//! Order statistics with an honesty rule for tails: a percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it, so a p99
//! needs at least 1 000 samples. Medians are reported as they are.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooFewSamples {
    /// The requested quantile, in `(0, 1)`.
    pub quantile_permille: u32,
    /// Samples available.
    pub samples: usize,
    /// Samples that would have lain beyond the percentile.
    pub beyond: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{:.1} over {} samples leaves {} beyond it; at least {MIN_BEYOND} are required",
            f64::from(self.quantile_permille) / 10.0,
            self.samples,
            self.beyond
        )
    }
}

impl std::error::Error for TooFewSamples {}

/// The nearest-rank `quantile` of `samples` (any order). Refuses when fewer
/// than [`MIN_BEYOND`] samples lie beyond the chosen rank.
pub fn percentile(samples: &[f64], quantile: f64) -> Result<f64, TooFewSamples> {
    assert!(
        quantile > 0.0 && quantile < 1.0,
        "quantile must lie strictly between 0 and 1"
    );
    let n = samples.len();
    // Nearest rank: the smallest sample with at least `quantile` of the
    // samples at or below it.
    let rank = ((quantile * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(TooFewSamples {
            quantile_permille: (quantile * 1000.0).round() as u32,
            samples: n,
            beyond,
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median (mean of the two middle values for an even count). `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Which units of a run (rounds, or set-ups) to report, given the share of
/// CPU time the hypervisor stole during each: those at or under the median
/// share, so at least the calmer half. The choice reads only the host,
/// never the measured times, so a slow program stays slow.
pub fn calm(steal: &[f64]) -> Vec<bool> {
    let cut = median(steal).unwrap_or(0.0);
    steal.iter().map(|&s| s <= cut).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_is_refused_with_fewer_than_ten_samples_beyond_it() {
        // 999 samples: rank 990, only 9 beyond.
        let err = percentile(&ramp(999), 0.99).unwrap_err();
        assert_eq!(err.beyond, 9);
        assert_eq!(err.samples, 999);
        // 1 000 samples: rank 990, exactly 10 beyond.
        assert_eq!(percentile(&ramp(1000), 0.99), Ok(990.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut shuffled = ramp(2000);
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.5), Ok(1000.0));
        assert_eq!(percentile(&shuffled, 0.99), Ok(1980.0));
    }

    #[test]
    fn calm_keeps_the_calmer_half_and_every_tie() {
        assert_eq!(
            calm(&[0.30, 0.05, 0.20, 0.10]),
            vec![false, true, false, true]
        );
        assert_eq!(calm(&[0.01, 0.02, 0.30]), vec![true, true, false]);
        // A quiet host: every round at the median is kept.
        assert_eq!(calm(&[0.0, 0.003, 0.0, 0.0]), vec![true, false, true, true]);
        assert!(calm(&[]).is_empty());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
