#!/usr/bin/env bash
# Offline CI gate: formatting, lints, tier-1 build + tests, and an engine
# benchmark smoke run. Everything here must pass with no network access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --release -- -D warnings

echo "==> tier-1 build"
cargo build --release

echo "==> benchmark build (standalone manifest, as BENCHMARK.json runs it)"
# The benchmark of record builds from its own manifest and lock file, so
# a dependency added to a crate it links must already be in that lock
# file; --locked fails the build instead of rewriting it.
cargo build --release --offline --locked --manifest-path crates/bench/src/bin/e2e/Cargo.toml

echo "==> tier-1 tests"
cargo test -q --release

echo "==> workspace tests"
cargo test -q --release --workspace

echo "==> engine benchmark (smoke)"
cargo run --release -p gaat-bench --bin engine_speed -- --smoke --out /tmp/BENCH_engine_smoke.json
echo "smoke benchmark OK"

echo "==> topology benchmark (smoke)"
# Runs the tiny congestion ablation and writes BENCH_net JSON; exits 1 if
# the FatTree single-flow sanity pin diverges >1% from Flat.
cargo run --release -p gaat-bench --bin net_speed -- --smoke --out /tmp/BENCH_net_smoke.json
# Belt and braces on top of the binary's own exit code: the recorded
# JSON must actually say the FatTree-vs-Flat sanity pin passed.
grep -q '"pass": true' /tmp/BENCH_net_smoke.json \
  || { echo "sanity_pin failed in BENCH_net_smoke.json" >&2; exit 1; }
echo "topo smoke OK"

echo "==> collectives benchmark (smoke)"
# Ring/tree allreduce and MoE alltoall sweeps; exits 1 if any collective
# diverges from its scalar reference or the training step fails to
# overlap. Merges into the same JSON net_speed wrote above.
cargo run --release -p gaat-bench --bin coll_speed -- --smoke --out /tmp/BENCH_net_smoke.json
grep -q '"sanity_pin": {"ring_allreduce": true, "tree_allreduce": true, "moe": true, "pass": true}' /tmp/BENCH_net_smoke.json \
  || { echo "coll_speed sanity pin failed in BENCH_net_smoke.json" >&2; exit 1; }
echo "coll smoke OK"

echo "==> adaptive load balancer benchmark (smoke)"
# Closed-loop LB against a degraded link plus a 4x GPU straggler: the
# adaptive policy must claw back >= 20% of the static-vs-fault-free
# makespan gap, replay bit-identically from the same seed, keep the
# Jacobi solution checksum equal across all cells, and fingerprint
# identically at sweep pool workers 1/2/4. Virtual-time pins — never
# excused by throttling.
cargo run --release -p gaat-bench --bin lb_speed -- --smoke --out /tmp/BENCH_lb_smoke.json
grep -Eq '"sanity_pin": \{"recovery": [0-9.]+, "min_recovery": 0.2, "replay_identical": true, "solutions_identical": true, "workers_match": true, "pass": true\}' /tmp/BENCH_lb_smoke.json \
  || { echo "lb_speed sanity pin failed in BENCH_lb_smoke.json" >&2; exit 1; }
echo "lb smoke OK"

echo "==> sweep-engine benchmark (smoke)"
# Batched scenario-sweep engine: fingerprints at workers 1/2/4 must
# match each other and standalone runs, and world reuse must cut mean
# per-scenario setup overhead (flagged instead of failed only when the
# ThrottleGuard suspects host thermal throttling).
cargo run --release -p gaat-bench --bin sweep_speed -- --smoke --out /tmp/BENCH_sweep_smoke.json
grep -Eq '"sanity_pin": \{"scenarios": [0-9]+, "workers_match": true, "standalone_match": true, "pass": true\}' /tmp/BENCH_sweep_smoke.json \
  || { echo "sweep_speed sanity pin failed in BENCH_sweep_smoke.json" >&2; exit 1; }
# The prefix-fork cell's correctness pin: a fork-enabled sweep of the
# fault-shaped grid must fingerprint identically to the unforked sweep
# (the fork speedup half is throttle-flagged inside the binary, but
# fingerprint equality is never excused).
grep -q '"fingerprints_match": true' /tmp/BENCH_sweep_smoke.json \
  || { echo "sweep_speed fork fingerprint pin failed in BENCH_sweep_smoke.json" >&2; exit 1; }
echo "sweep smoke OK"

echo "==> fault-injection smoke"
# Deterministic replay diff (same fault seed twice -> identical
# fingerprints) + Jacobi3D bit-identical to the reference under 1%
# message drop with the reliable transport on. Offline, sub-second.
cargo run --release -p gaat-bench --bin fault_smoke
echo "fault smoke OK"

echo "CI green"
