#!/usr/bin/env bash
# Staged CI gate: formatting, lints, build, tests, bench smoke + snapshot.
#
#   scripts/ci.sh
#
# Each stage prints a banner and the pipeline stops at the first red stage.
# BENCH_SMOKE=1 makes the vendored criterion stand-in run each benchmark for
# a handful of iterations — enough to catch a pipeline regression (panic,
# equivalence failure, pathological slowdown) without a full measurement run.
# The bench snapshot stages write fresh snapshots under target/bench/; the
# committed BENCH_pr*.json baselines are never overwritten. Set
# BENCH_BASELINE_DIR to a directory of snapshots recorded on this machine
# (`.` for the committed ones) to gate every fresh snapshot against its
# namesake there with scripts/bench_compare.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

STAGE="(startup)"
stage() {
    STAGE="$1"
    echo
    echo "===== [stage: $STAGE] ====="
}
trap 'echo; echo "ci.sh: FAILED at stage: $STAGE" >&2' ERR

stage "fmt (cargo fmt --check)"
cargo fmt --check

stage "clippy (cargo clippy --all-targets -- -D warnings)"
cargo clippy --all-targets -- -D warnings

stage "build (release)"
cargo build --release

stage "tests"
cargo test -q

# Loopback-vs-TCP equivalence smoke: the same seeded scenario must produce
# byte-identical client events over the in-process loopback transport and
# over TCP against a live localhost daemon (plus concurrent-client and
# hostile-peer coverage). Runs inside `cargo test -q` too; this named stage
# makes a transport regression point at itself.
stage "transport equivalence smoke (loopback vs TCP alpenhornd)"
cargo test -q --test transport_equivalence

# Concurrent-equivalence gate (PR 8): clients racing through the sharded
# submission intake on concurrent connections must see event streams
# byte-identical to the sequential single-lock reference, and the intake's
# canonical merge must be shard-count- and arrival-order-invariant (property
# tests over shard counts 1..=16, random permutations, racing threads, and
# full published-mailbox rounds). Runs inside `cargo test -q` too; this named
# stage makes a determinism regression point at itself.
stage "concurrent equivalence (sharded intake determinism + racing clients vs loopback)"
cargo test -q --test shard_determinism
cargo test -q --test transport_equivalence concurrent

# Distributed-deployment gate (PR 9): a coordinator driving 3 networked mixd
# daemons over MixerRpc, with mailboxes offloaded to a 4-node cdnd fleet as
# 3+1 erasure shards, must yield client-event streams byte-identical to the
# in-process fault-free run — including one cdnd killed mid-run, with the
# surviving fetches reconstructed by XOR-only parity decode. The per-crate
# property suites (shift-XOR loss patterns, remote-chain ≡ in-process chain
# over every mixer count and pipeline depth) run inside `cargo test -q` too;
# this named stage makes a distribution regression point at itself.
stage "distributed equivalence (3 mixd + 4 cdnd, one killed mid-run, vs in-process)"
cargo test -q --test distributed_equivalence
cargo test -q -p alpenhorn-erasure --test shift_xor_proptests
cargo test -q -p alpenhorn-mixd --test loopback_equivalence

# Observability gate (PR 10): metrics, spans, and logs must be invisible to
# the protocol. The e2e re-runs the seeded distributed scenario with the
# always-on instrumentation and asserts the client event stream stays
# byte-identical, one correlation id links the round's spans across
# coordinator, mixd, and cdnd, and the round/shard counters reconcile.
# Receivers derive that id from the request's (protocol, round); the frame
# carries none. The --ignored variant fetches GetTelemetry from a live
# alpenhornd over TCP. The wire proptests pin the one frame layout.
stage "observability (telemetry e2e + GetTelemetry smoke vs live alpenhornd)"
cargo test -q --test observability_e2e
cargo test -q --release --test observability_e2e -- --ignored
cargo test -q -p alpenhorn-wire --test rpc_proptests

# The end-to-end round benchmark is a package of its own (e2e_bench/, see
# its README); its self-tests check that the timing shims leave the event
# stream unchanged and that its percentile and calm-round rules hold.
stage "benchmark self-tests (e2e_bench)"
cargo test --release --offline --manifest-path e2e_bench/Cargo.toml

# Full sampling budget, not BENCH_SMOKE: these stages' output is the perf
# trajectory (each snapshot takes seconds), and smoke numbers would make
# bench_compare.sh diffs meaningless.
mkdir -p target/bench
for snapshot in pr3:hash_hot_path pr4:wire_rpc pr5:storage_wal pr6:fault_injection \
    pr7:scenario_engine pr8:coordinator_concurrency pr9:distributed_round \
    pr10:telemetry_overhead; do
    name="BENCH_${snapshot%%:*}.json"
    bench="${snapshot#*:}"
    stage "bench snapshot: $bench (writes target/bench/$name)"
    BENCH_JSON_OUT="$PWD/target/bench/$name" cargo bench -p alpenhorn-bench --bench "$bench"
done

# Perf numbers are hardware-specific, so a committed snapshot is only a
# valid baseline on comparable hardware: the regression gate is opt-in.
if [[ -n "${BENCH_BASELINE_DIR:-}" ]]; then
    for fresh in target/bench/BENCH_pr*.json; do
        name="$(basename "$fresh")"
        stage "bench compare: $name (vs $BENCH_BASELINE_DIR/$name)"
        scripts/bench_compare.sh "$BENCH_BASELINE_DIR/$name" "$fresh"
    done
fi

# Crash-recovery smoke: start a durable alpenhornd, run a full seeded
# scenario with a SIGKILL + restart between rounds, and require the client
# event stream to be byte-identical to an uncrashed daemon's. The test
# spawns the release alpenhornd built above (same profile as this stage's
# test harness).
stage "crash-recovery smoke (SIGKILL alpenhornd --data-dir, restart, finish scenario)"
cargo test -q --release --test crash_recovery -- --ignored

# Chaos gate: seeded fault plans (request/response drops, delays, duplicate
# deliveries, frame corruption, scripted mid-run disconnects) over retrying
# clients must converge to the byte-identical event stream of a fault-free
# run, with no double effect on the coordinator's ledgers. The --ignored
# variant layers a SIGKILL + restart of a live alpenhornd under the same
# fault plans (crash recovery and fault injection composed).
stage "chaos (seeded fault-plan suite + SIGKILL-under-faults alpenhornd)"
cargo test -q --release --test chaos
cargo test -q --release --test chaos -- --ignored

# Scenario smoke: three scripted timelines (churn wave, crash-restart storm,
# partition window) in the scenarios-as-data text format, executed through
# the deterministic engine with the full invariant-checker suite (mailbox
# conservation, submission accounting, ledger consistency, fault-free-twin
# convergence), plus a replay-determinism check. Runs inside `cargo test -q`
# too; this named stage makes a scenario regression point at itself.
stage "scenario smoke (churn wave, crash-restart storm, partition window)"
cargo test -q --test scenario_smoke

stage "bench smoke: mixnet round pipeline"
BENCH_SMOKE=1 cargo bench -p alpenhorn-bench --bench mixnet_ops

stage "bench smoke: pkg throughput"
BENCH_SMOKE=1 cargo bench -p alpenhorn-bench --bench pkg_throughput

echo
echo "ci.sh: all green"
