//! End-to-end round benchmark over the TCP topology, with per-layer
//! attribution. See `README.md` beside this package for the workloads, the
//! metrics and how to run one workload alone.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload af_crowd --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with no spans recorded; with
//! `--trace 1` they are the per-layer ones, from a run that records spans
//! on two of every three rounds. The exit code is nonzero when any client
//! operation failed or was wrong, or when the traced spans on the blocking
//! path do not add up to the round time within [`UNATTRIBUTED_TOLERANCE`].

mod attribution;
mod driver;
mod host;
mod shims;
mod stats;
mod topology;
mod trace;

use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Instant;

use alpenhorn_coordinator::ClusterConfig;
use alpenhorn_mixnet::{MailboxPolicy, NoiseConfig};
use alpenhorn_wire::RoundKind;

use crate::attribution::{Metric, Trace};
use crate::driver::{RoundsOutput, Session, Spec, Stop, Tracing};
use crate::stats::{calm, median, percentile};
use crate::topology::Shape;

/// Deployments set up and measured per untraced run; `setup_s` is the
/// median of their set-up times.
const SESSIONS: usize = 3;
/// Samples every reported p99 needs (ten beyond it).
const P99_SAMPLES: usize = 1000;
/// Largest share of round time the traced blocking path may leave
/// uncovered.
const UNATTRIBUTED_TOLERANCE: f64 = 0.05;
/// Per-user daily token budget on the rate-limited workload: above any
/// number of rounds one run can reach.
const TOKEN_BUDGET: u32 = 10_000;
/// Seed of every server-side secret and noise draw.
const CLUSTER_SEED: u8 = 90;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// Where results, spans and temporary data directories go: under the
/// Cargo target directory, never over a committed file.
fn output_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("e2e_bench")
}

/// The three workloads. Client seeds and the pair schedule come from
/// `seed`.
fn workload(name: &str, data_root: &std::path::Path) -> Result<Spec, String> {
    // Server randomness (keys, noise) is part of the deployment, not of
    // the workload: every seed runs against the same cluster.
    let config = ClusterConfig::test(CLUSTER_SEED);
    let shape = |config: ClusterConfig| Shape {
        config,
        data_dir: None,
        token_budget: None,
        down_node: None,
        shims: true,
    };
    let af_crowd = Spec {
        protocol: RoundKind::AddFriend,
        clients: 2000,
        initiations_per_round: 100,
        setup_pairs: 0,
        calls_per_round: 0,
        shape: shape(config.clone()),
    };
    match name {
        "af_crowd" => Ok(af_crowd),
        "af_durable" => {
            let mut spec = af_crowd;
            spec.shape.data_dir = Some(data_root.to_path_buf());
            spec.shape.token_budget = Some(TOKEN_BUDGET);
            Ok(spec)
        }
        "dial_bulk" => {
            let mut config = config;
            config.dialing_noise = NoiseConfig::paper_dialing();
            // The paper's Bloom filter sizing (75 000 real tokens per
            // mailbox): one mailbox for this population. With a mailbox per
            // 100 clients, a mix hop's reply can outgrow the 16 MiB frame
            // limit at this noise level and the round is lost.
            config.mailbox_policy.dialing_target = MailboxPolicy::default().dialing_target;
            let mut shape = shape(config);
            // Node 1 holds data shard 1 of every blob: every fetch decodes
            // from parity.
            shape.down_node = Some(1);
            Ok(Spec {
                protocol: RoundKind::Dialing,
                clients: 200,
                initiations_per_round: 0,
                setup_pairs: 100,
                calls_per_round: 20,
                shape,
            })
        }
        _ => Err(format!(
            "unknown workload {name}; expected af_crowd, dial_bulk or af_durable"
        )),
    }
}

/// Adds `other`'s correctness counts to `into`.
fn absorb(into: &mut RoundsOutput, other: &RoundsOutput) {
    into.attempted += other.attempted;
    into.failed += other.failed;
    into.failures.extend(other.failures.iter().cloned());
}

/// What the measured deployments of one run produced.
#[derive(Default)]
struct Runs {
    /// Set-up time of every deployment.
    setup_s: Vec<f64>,
    /// Share of CPU time stolen during each set-up.
    setup_steal: Vec<f64>,
    /// Correctness counts of set-up, warm-up and keywheel checks.
    checks: RoundsOutput,
    /// The measured rounds of each measured deployment.
    measured: Vec<RoundsOutput>,
    /// Mailbox bytes clients downloaded in the measured rounds.
    down_bytes: u64,
    /// Spans of the traced deployment.
    spans: Vec<trace::Span>,
}

/// Sets up deployments one after another, timing each set-up (boot,
/// registration, friendships), and measures each for an equal share of
/// `seconds`. An untraced run uses [`SESSIONS`] deployments: each one's
/// threads, connections and allocations are a fresh draw of the
/// scheduler's and allocator's placement, and the metrics pool all of them.
/// A traced run sets up and measures one, and traces its registrations too.
fn run_sessions(spec: &Spec, args: &Args) -> Result<Runs, String> {
    let sessions = if args.trace { 1 } else { SESSIONS };
    let stop = Stop::Timed {
        seconds: args.seconds / sessions as f64,
        untraced_samples: if args.trace { 0 } else { P99_SAMPLES },
        traced_samples: if args.trace { P99_SAMPLES } else { 0 },
    };
    let tracing = if args.trace {
        Tracing::Sampled
    } else {
        Tracing::Off
    };
    let mut runs = Runs::default();
    for k in 0..sessions {
        let mut spec = spec.clone();
        if let Some(dir) = &spec.shape.data_dir {
            spec.shape.data_dir = Some(dir.join(format!("session-{k}")));
        }
        trace::set_enabled(args.trace);
        let ticks = host::cpu_ticks();
        let started = Instant::now();
        let mut session = Session::boot(&spec, args.seed, false)?;
        let befriended = if spec.setup_pairs > 0 {
            session.befriend(Tracing::Off)
        } else {
            Ok(RoundsOutput::default())
        };
        runs.setup_s.push(started.elapsed().as_secs_f64());
        runs.setup_steal
            .push(host::steal_share(ticks, host::cpu_ticks()));
        trace::set_enabled(false);
        let result = befriended.and_then(|befriended| {
            absorb(&mut runs.checks, &befriended);
            // One unmeasured round first, so connections, caches and
            // allocator pools are warm; its outcomes are checked like any
            // other.
            let warmup = session.run(spec.protocol, Stop::Rounds(1), Tracing::Off)?;
            absorb(&mut runs.checks, &warmup);
            shims::take_down_bytes();
            let out = session.run(spec.protocol, stop, tracing)?;
            let down_bytes = shims::take_down_bytes();
            let (pairs, failures) = session.check_keywheels();
            runs.checks.attempted += pairs;
            runs.checks.failed += failures.len() as u64;
            runs.checks.failures.extend(failures);
            Ok((out, down_bytes))
        });
        session.shutdown();
        let (out, down_bytes) = result?;
        runs.measured.push(out);
        runs.down_bytes += down_bytes;
    }
    runs.spans = trace::take();
    Ok(runs)
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let out_dir = output_dir();
    let data_root = out_dir.join(format!("data-{}", std::process::id()));
    let spec = workload(&args.workload, &data_root)?;
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < driver::THREADS {
        return Err(format!(
            "needs at least {} CPUs, found {nproc}",
            driver::THREADS
        ));
    }
    let provenance = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("cpu_model", host::cpu_model()),
        ("git_revision", host::git_revision()),
        ("network", "loopback TCP".into()),
        ("pairing", "mock".into()),
        ("clients", spec.clients.to_string()),
    ];
    for (k, v) in &provenance {
        println!("# {k}: {v}");
    }

    let runs = run_sessions(&spec, &args);
    let _ = std::fs::remove_dir_all(&data_root);
    let runs = runs?;

    let attempted = runs.checks.attempted + runs.measured.iter().map(|o| o.attempted).sum::<u64>();
    let failed = runs.checks.failed + runs.measured.iter().map(|o| o.failed).sum::<u64>();
    let failures =
        std::iter::once(&runs.checks.failures).chain(runs.measured.iter().map(|o| &o.failures));
    for failure in failures.flatten().take(20) {
        eprintln!("FAILED: {failure}");
    }
    let mut ok = failed == 0;
    // Every untraced round as (deployment, record), in the order they ran.
    let untraced: Vec<(usize, &driver::RoundRecord)> = runs
        .measured
        .iter()
        .enumerate()
        .flat_map(|(d, o)| o.rounds.iter().filter(|r| !r.traced).map(move |r| (d, r)))
        .collect();
    let steal: Vec<f64> = untraced.iter().map(|(_, r)| r.steal).collect();
    let mut notes: Vec<String> = vec![format!(
        "host steal share per untraced round: median {:.4}, max {:.4}",
        median(&steal).unwrap_or(0.0),
        steal.iter().copied().fold(0.0, f64::max)
    )];
    let mut metrics: Vec<Metric> = Vec::new();
    if !args.trace {
        // Only the rounds the host left calm are reported (see
        // `stats::calm`): the choice reads steal, never the times.
        let kept: HashSet<(usize, u64)> = untraced
            .iter()
            .zip(calm(&steal))
            .filter(|(_, keep)| *keep)
            .map(|((d, r), _)| (*d, r.round))
            .collect();
        let round_times: Vec<f64> = untraced
            .iter()
            .filter(|(d, r)| kept.contains(&(*d, r.round)))
            .map(|(_, r)| r.seconds)
            .collect();
        // p50 and p99 over every sample of the kept rounds.
        let kept = &kept;
        let latency = |pick: fn(&RoundsOutput) -> &Vec<(u64, f64)>| {
            let samples: Vec<f64> = runs
                .measured
                .iter()
                .enumerate()
                .flat_map(|(d, out)| {
                    pick(out)
                        .iter()
                        .filter(move |(round, _)| kept.contains(&(d, *round)))
                        .map(|&(_, ms)| ms)
                })
                .collect();
            let p50 = median(&samples).ok_or("no latency samples")?;
            let p99 = percentile(&samples, 0.99).map_err(|e| format!("p99: {e}"))?;
            Ok::<_, String>((p50, p99, samples.len()))
        };
        let (submit_p50, submit_p99, submit_n) = latency(|o| &o.submit_ms)?;
        let (fetch_p50, fetch_p99, fetch_n) = latency(|o| &o.fetch_ms)?;
        // Throughput at the median round, so that a few rounds slowed by
        // the host do not move it more than they move round_s.
        let round_s = median(&round_times).ok_or("no measured rounds")?;
        let setups: Vec<f64> = runs
            .setup_s
            .iter()
            .zip(calm(&runs.setup_steal))
            .filter(|(_, keep)| *keep)
            .map(|(s, _)| *s)
            .collect();
        metrics.push(("round_s".into(), round_s, "s"));
        metrics.push((
            "client_rounds_per_s".into(),
            spec.clients as f64 / round_s,
            "1/s",
        ));
        metrics.push(("submit_ms_p50".into(), submit_p50, "ms"));
        metrics.push(("submit_ms_p99".into(), submit_p99, "ms"));
        metrics.push(("fetch_ms_p50".into(), fetch_p50, "ms"));
        metrics.push(("fetch_ms_p99".into(), fetch_p99, "ms"));
        metrics.push((
            "down_bytes_per_client_round".into(),
            runs.down_bytes as f64 / (untraced.len() * spec.clients) as f64,
            "bytes",
        ));
        metrics.push((
            "ok_ratio".into(),
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        ));
        metrics.push(("setup_s".into(), median(&setups).unwrap_or(0.0), "s"));
        metrics.push(("peak_rss_mb".into(), host::peak_rss_mb(), "MB"));
        notes.push(format!(
            "samples: {} of {} rounds over {} deployments kept as calm, {submit_n} submit, \
             {fetch_n} fetch (N = {} clients per round); setup_s over {} of {} set-ups",
            round_times.len(),
            untraced.len(),
            runs.measured.len(),
            spec.clients,
            setups.len(),
            runs.setup_s.len()
        ));
        let all_rounds: Vec<f64> = untraced.iter().map(|(_, r)| r.seconds).collect();
        notes.push(format!(
            "round_s over every untraced round: {:.6}",
            median(&all_rounds).unwrap_or(0.0)
        ));
        notes.push(format!(
            "fail_ratio: {}",
            failed as f64 / attempted.max(1) as f64
        ));
    } else {
        let spans = &runs.spans;
        let out = runs
            .measured
            .last()
            .expect("a traced run measures one deployment");
        let register: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "coordinator.register")
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        let trace_index = Trace::new(spans, &out.rounds);
        metrics = trace_index.metrics(&out.rounds, &register);
        let unattributed = metrics
            .iter()
            .find(|(name, _, _)| name == "trace.unattributed_share")
            .map_or(1.0, |m| m.1);
        if unattributed.abs() > UNATTRIBUTED_TOLERANCE {
            eprintln!(
                "FAILED: traced spans on the blocking path leave {:.2}% of round time unattributed \
                 (tolerance {:.0}%)",
                unattributed * 100.0,
                UNATTRIBUTED_TOLERANCE * 100.0
            );
            ok = false;
        }
        let traced_rounds = out.rounds.iter().filter(|r| r.traced).count();
        notes.push(format!(
            "samples: {traced_rounds} traced rounds, {} untraced, {} spans",
            untraced.len(),
            spans.len()
        ));
        let spans_path = out_dir.join(format!("{}-seed{}.spans.tsv", args.workload, args.seed));
        trace::write_tsv(&spans_path, spans)
            .map_err(|e| format!("{}: {e}", spans_path.display()))?;
        notes.push(format!("spans: {}", spans_path.display()));
    }

    for (name, value, unit) in &metrics {
        println!("{name:<36} {value:>14.6} {unit}");
    }
    for note in &notes {
        println!("# {note}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\": {ok}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    let provenance_json: Vec<String> = provenance
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
        .chain(
            notes
                .iter()
                .enumerate()
                .map(|(i, n)| format!("\"note{i}\": \"{}\"", n.replace('"', "'"))),
        )
        .collect();
    let record_path = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(
        &record_path,
        format!(
            "{{\"provenance\": {{{}}}, \"result\": {result}}}\n",
            provenance_json.join(", ")
        ),
    )
    .map_err(|e| format!("{}: {e}", record_path.display()))?;
    println!("{result}");
    Ok(ok)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            std::process::exit(2);
        }
    }
}
