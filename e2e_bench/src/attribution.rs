//! Turns the spans of the traced rounds into per-layer figures, and checks
//! that the spans on each round's blocking path add up to the round.
//!
//! A round's blocking path is: the `Begin` admin call, the submit phase of
//! whichever driver thread finished it last, the `Close` admin call, and the
//! scan phase of whichever thread finished it last. Each of those root spans
//! is split into self times of its descendants, and each self time is
//! charged to the layer its span name starts with. Whatever part of the
//! round no root covers is unattributed.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::driver::{RoundRecord, THREADS};
use crate::stats::{median, percentile};
use crate::trace::{Span, SERVER_THREAD};

/// The layers time is charged to, in report order.
pub const LAYERS: [&str; 5] = ["core", "coordinator", "pkg", "mixd", "cdn"];

/// The layer a span belongs to, by name.
pub fn layer_of(name: &str) -> &'static str {
    let prefix = name.split('.').next().unwrap_or("");
    match prefix {
        "core" | "client" => "core",
        "round" | "coordinator" => "coordinator",
        "pkg" => "pkg",
        "mixd" => "mixd",
        "cdn" => "cdn",
        _ => "core",
    }
}

/// The spans of one run, indexed.
pub struct Trace<'a> {
    spans: &'a [Span],
    children: HashMap<u64, Vec<usize>>,
    traced: HashSet<u64>,
}

/// One metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

impl<'a> Trace<'a> {
    /// Indexes `spans`; `rounds` says which correlation ids were traced.
    pub fn new(spans: &'a [Span], rounds: &[RoundRecord]) -> Self {
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push(i);
            }
        }
        let traced = rounds
            .iter()
            .filter(|r| r.traced)
            .map(|r| alpenhorn_obs::correlation_id(r.protocol.code(), r.round))
            .collect();
        Trace {
            spans,
            children,
            traced,
        }
    }

    /// A span's duration minus the part its children cover.
    pub fn self_ns(&self, span: &Span) -> u64 {
        let kids = self
            .children
            .get(&span.id)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        let intervals = kids
            .iter()
            .map(|&k| (self.spans[k].start_ns, self.spans[k].end_ns))
            .collect();
        span.duration_ns() - covered_ns(intervals, span.start_ns, span.end_ns)
    }

    /// Spans of traced rounds named `name`.
    fn named(&self, name: &str) -> impl Iterator<Item = &Span> + '_ {
        let name = name.to_string();
        self.spans
            .iter()
            .filter(move |s| s.name == name && self.traced.contains(&s.correlation))
    }

    /// Charges `root` and all its descendants' self times to their layers.
    fn charge(&self, root: &Span, layers: &mut BTreeMap<&'static str, u64>) {
        let mut stack = vec![root];
        while let Some(span) = stack.pop() {
            *layers.entry(layer_of(span.name)).or_default() += self.self_ns(span);
            if let Some(kids) = self.children.get(&span.id) {
                stack.extend(kids.iter().map(|&k| &self.spans[k]));
            }
        }
    }

    /// Per-layer time on the blocking path of every traced round, and the
    /// unattributed remainder, both as shares of total traced round time.
    pub fn blocking_path(&self, rounds: &[RoundRecord]) -> (BTreeMap<&'static str, f64>, f64) {
        let mut roots_by_round: HashMap<u64, Vec<&Span>> = HashMap::new();
        for s in self.spans {
            if s.parent == 0 && s.thread != SERVER_THREAD && self.traced.contains(&s.correlation) {
                roots_by_round.entry(s.correlation).or_default().push(s);
            }
        }
        let mut layers: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut round_ns = 0u64;
        let mut covered = 0u64;
        for record in rounds.iter().filter(|r| r.traced) {
            round_ns += (record.seconds * 1e9) as u64;
            let correlation = alpenhorn_obs::correlation_id(record.protocol.code(), record.round);
            let roots = roots_by_round
                .get(&correlation)
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            let mut path: Vec<&Span> = roots
                .iter()
                .copied()
                .filter(|s| s.name.starts_with("round."))
                .collect();
            for phase in ["core.participate", "core.scan"] {
                let latest = (0..THREADS as u8)
                    .max_by_key(|&t| {
                        roots
                            .iter()
                            .filter(|s| s.thread == t && s.name == phase)
                            .map(|s| s.end_ns)
                            .max()
                            .unwrap_or(0)
                    })
                    .expect("at least one driver thread");
                path.extend(
                    roots
                        .iter()
                        .copied()
                        .filter(|s| s.thread == latest && s.name == phase),
                );
            }
            for root in path {
                covered += root.duration_ns();
                self.charge(root, &mut layers);
            }
        }
        let total = round_ns.max(1) as f64;
        let shares = layers
            .into_iter()
            .map(|(k, v)| (k, v as f64 / total))
            .collect();
        let unattributed = (round_ns as f64 - covered as f64) / total;
        (shares, unattributed)
    }

    /// Every per-layer metric of the traced rounds.
    pub fn metrics(&self, rounds: &[RoundRecord], all_spans_register: &[f64]) -> Vec<Metric> {
        let mut m: Vec<Metric> = Vec::new();
        let durations = |name: &str, scale: f64| -> Vec<f64> {
            self.named(name)
                .map(|s| s.duration_ns() as f64 / scale)
                .collect()
        };
        let self_of = |name: &str, scale: f64| -> Vec<f64> {
            self.named(name)
                .map(|s| self.self_ns(s) as f64 / scale)
                .collect()
        };
        let per_round = |name: &str, value: &dyn Fn(&Span) -> f64| -> Vec<f64> {
            let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
            for s in self.named(name) {
                *sums.entry(s.correlation).or_default() += value(s);
            }
            sums.into_values().collect()
        };
        const MS: f64 = 1e6;
        const US: f64 = 1e3;

        let client_ops: HashSet<u64> = self
            .named("core.participate")
            .chain(self.named("core.scan"))
            .map(|s| s.id)
            .collect();
        let participations = self.named("core.participate").count().max(1) as f64;
        let client_rpcs = self
            .spans
            .iter()
            .filter(|s| client_ops.contains(&s.parent))
            .count() as f64;
        m.push((
            "core.participate_self_ms_p50".into(),
            p50(&self_of("core.participate", MS)),
            "ms",
        ));
        m.push((
            "core.scan_self_ms_p50".into(),
            p50(&self_of("core.scan", MS)),
            "ms",
        ));
        m.push((
            "core.rpcs_per_client_round".into(),
            client_rpcs / participations,
            "count",
        ));

        m.push((
            "coordinator.round_info_us_p50".into(),
            p50(&durations("coordinator.round_info", US)),
            "us",
        ));
        let submit = durations("coordinator.submit", US);
        m.push(("coordinator.submit_us_p50".into(), p50(&submit), "us"));
        m.push(("coordinator.submit_us_p99".into(), p99(&submit), "us"));
        m.push((
            "coordinator.register_us_p50".into(),
            p50(all_spans_register),
            "us",
        ));
        m.push((
            "coordinator.issue_token_us_p50".into(),
            p50(&durations("coordinator.issue_token", US)),
            "us",
        ));
        m.push((
            "coordinator.begin_ms".into(),
            p50(&durations("coordinator.begin", MS)),
            "ms",
        ));
        m.push((
            "coordinator.close_ms".into(),
            p50(&durations("coordinator.close", MS)),
            "ms",
        ));
        m.push((
            "coordinator.close_self_ms".into(),
            p50(&self_of("coordinator.close", MS)),
            "ms",
        ));
        m.push((
            "coordinator.origin_fetches".into(),
            self.named("coordinator.origin_fetch").count() as f64,
            "count",
        ));

        let extract = durations("pkg.extract", US);
        m.push(("pkg.extract_us_p50".into(), p50(&extract), "us"));
        m.push(("pkg.extract_us_p99".into(), p99(&extract), "us"));

        for hop in crate::shims::HOP_NAMES.iter() {
            let (begin, process, end) = *hop;
            let prefix = &process[..process.len() - ".process".len()];
            m.push((
                format!("{prefix}.process_ms"),
                p50(&durations(process, MS)),
                "ms",
            ));
            m.push((
                format!("{prefix}.begin_us"),
                p50(&durations(begin, US)),
                "us",
            ));
            m.push((format!("{prefix}.end_us"), p50(&durations(end, US)), "us"));
            m.push((
                format!("{prefix}.bytes_in"),
                p50(&per_round(process, &|s| s.bytes as f64)),
                "bytes",
            ));
        }

        let ok_puts: Vec<f64> = self
            .named("cdn.put_shard")
            .filter(|s| !s.failed)
            .map(|s| s.duration_ns() as f64 / US)
            .collect();
        m.push((
            "cdn.publish_ms".into(),
            p50(&per_round("cdn.put_shard", &|s| {
                s.duration_ns() as f64 / MS
            })),
            "ms",
        ));
        m.push(("cdn.put_shard_us_p50".into(), p50(&ok_puts), "us"));
        let gets: Vec<&Span> = self
            .named("cdn.get_shard")
            .chain(self.named("cdn.get_parity"))
            .collect();
        let ok_gets: Vec<f64> = gets
            .iter()
            .filter(|s| !s.failed)
            .map(|s| s.duration_ns() as f64 / US)
            .collect();
        let downloads = self.named("cdn.fetch").count().max(1) as f64;
        let shard_bytes: u64 = gets.iter().map(|s| s.bytes).sum();
        let parity_bytes: u64 = self.named("cdn.get_parity").map(|s| s.bytes).sum();
        m.push(("cdn.get_shard_us_p50".into(), p50(&ok_gets), "us"));
        m.push((
            "cdn.fetch_self_us_p50".into(),
            p50(&self_of("cdn.fetch", US)),
            "us",
        ));
        m.push((
            "cdn.shard_gets_per_download".into(),
            gets.len() as f64 / downloads,
            "1/download",
        ));
        m.push((
            "cdn.parity_share".into(),
            parity_bytes as f64 / shard_bytes.max(1) as f64,
            "ratio",
        ));
        m.push((
            "cdn.failed_gets".into(),
            gets.iter().filter(|s| s.failed).count() as f64 / downloads,
            "1/download",
        ));

        let growth: Vec<f64> = rounds
            .iter()
            .filter_map(|r| r.dir_growth.map(|g| g as f64))
            .collect();
        m.push(("storage.dir_bytes_per_round".into(), p50(&growth), "bytes"));

        let (shares, unattributed) = self.blocking_path(rounds);
        for layer in LAYERS {
            m.push((
                format!("{layer}.path_share"),
                shares.get(layer).copied().unwrap_or(0.0),
                "ratio",
            ));
        }
        let round_s = |traced: bool| -> f64 {
            p50(&rounds
                .iter()
                .filter(|r| r.traced == traced)
                .map(|r| r.seconds)
                .collect::<Vec<_>>())
        };
        m.push((
            "trace.overhead_ratio".into(),
            round_s(true) / round_s(false),
            "ratio",
        ));
        m.push(("trace.unattributed_share".into(), unattributed, "ratio"));
        m
    }
}

/// Median of a layer's samples; 0 when the layer did no such work in this
/// workload.
fn p50(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(0.0)
}

/// p99 of a layer's samples; 0 when the layer did no such work in this
/// workload. Panics when fewer than ten samples lie beyond it, which the
/// traced run's length is chosen to prevent.
fn p99(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    percentile(samples, 0.99).unwrap_or_else(|e| panic!("per-layer percentile: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered_ns(vec![(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered_ns(vec![(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(covered_ns(vec![], 0, 10), 0);
    }

    #[test]
    fn layers_by_prefix() {
        assert_eq!(layer_of("core.participate"), "core");
        assert_eq!(layer_of("client.rpc"), "core");
        assert_eq!(layer_of("round.close"), "coordinator");
        assert_eq!(layer_of("pkg.extract"), "pkg");
        assert_eq!(layer_of("mixd.h2.process"), "mixd");
        assert_eq!(layer_of("cdn.get_parity"), "cdn");
    }
}
