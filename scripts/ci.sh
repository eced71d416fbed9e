#!/usr/bin/env bash
# Offline CI gate: formatting, lints, rustdoc, the tier-1 build, the
# standalone benchmark build, tier-1 and workspace tests (which hold every
# correctness pin) in release and in the dev profile, the fault-tolerance
# example (PE-failure recovery must still match the reference solver), the
# sweep example, profile_run in its four modes (the default single-node
# profile, the adaptive LB under 1% loss, and the allreduce and alltoall
# collectives, each run twice with byte-identical output apart from the
# LB's host latency line; an unknown argument and a drop rate that is
# not a probability must fail), the two README examples (quickstart and
# wavefront, each run twice with byte-identical output), a smoke run of
# every benchmark workload, the figures binary's argument checks
# (unknown --fig, --effort and --topology values must fail), the
# quick-figure ledger (every quick figure, the fat-tree Fig 7c, the
# protocol landscape and the collective tables regenerated and diffed
# against results/quick/) and the sweep engine's in-process prefix-fork
# ratio gate.
# Everything here must pass with no network access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --release -- -D warnings

echo "==> rustdoc -D warnings"
# Broken intra-doc links (e.g. to a deleted method) fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> tier-1 build"
# --locked: a manifest edit that would rewrite the root Cargo.lock fails
# here instead of changing the lock file behind the gate's back.
cargo build --release --locked

echo "==> benchmark build (standalone manifest, as BENCHMARK.json runs it)"
# The benchmark of record builds from its own manifest and lock file, so
# a dependency added to a crate it links must already be in that lock
# file; --locked fails the build instead of rewriting it.
cargo build --release --offline --locked --manifest-path crates/bench/src/bin/e2e/Cargo.toml

echo "==> tier-1 tests"
cargo test -q --release

echo "==> workspace tests"
cargo test -q --release --workspace

echo "==> workspace tests (dev profile)"
# Debug assertions are on here: the engine's event-leak audit on drop and
# its queue invariants (occupancy drift, time going backwards) only
# exist in this profile.
cargo test -q --workspace

echo "==> fault-tolerance example"
# Real-buffer Jacobi3D loses a PE mid-run; the example asserts that
# checkpoint/rollback recovery still matches the sequential reference.
cargo run --release -p gaat --example fault_tolerance
echo "fault-tolerance example OK"

echo "==> examples"
# sweep_run drives a 1024-scenario forked sweep; it must exit 0.
cargo run --release -p gaat --example sweep_run
# profile_run's default mode is the paper's single-node Nsight-style
# profile: the per-kernel breakdown and engine timeline come from the
# device tracer. Under adaptive LB and 1% loss it rolls back four times,
# so late events meet stale slab keys; the two collective runs drive
# gaat-coll. Each mode runs twice and the two runs must print the same
# bytes; the LB run passes the same trace path both times (it prints
# it) and masks its one host-time line, the planner's host latency. An
# unknown argument and a drop rate that is not a probability must exit
# non-zero.
prof_out=$(mktemp -d)
# Run an example twice and diff the two outputs.
twice() {
    for run in a b; do
        cargo run --release -p gaat --example "$@" \
            | sed -E 's/^  host latency: .*/  host latency: <host>/' >"$prof_out/$run"
    done
    diff "$prof_out/a" "$prof_out/b"
}
twice profile_run
twice profile_run -- --lb --drop 0.01 --trace-out "$prof_out/trace.json"
twice profile_run -- --collective allreduce
twice profile_run -- --collective alltoall
if cargo run --release -p gaat --example profile_run -- --bogus 2>/dev/null; then
    echo "profile_run --bogus must exit non-zero"
    exit 1
fi
for rate in nan 1.5; do
    if cargo run --release -p gaat --example profile_run -- --drop "$rate" 2>/dev/null; then
        echo "profile_run --drop $rate must exit non-zero"
        exit 1
    fi
done
# The README's two examples. quickstart validates every Jacobi3D version
# against the CPU reference, wavefront drives Sweep3D; each runs twice
# and must print the same bytes, the end to end determinism check.
twice quickstart
twice wavefront
rm -rf "$prof_out"
echo "examples OK"

echo "==> benchmark smoke run"
# Every workload of the benchmark of record, shrunken; exits 1 if any
# attempt failed.
cargo run --release --offline --manifest-path crates/bench/src/bin/e2e/Cargo.toml -- --workload all --smoke
echo "benchmark smoke OK"

echo "==> figures binary"
# Every figure run is in the quick-figure ledger below; here an unknown
# --fig, --effort or --topology value must fail rather than write
# nothing, and its error must list the valid names (6s, 512, protocols
# and coll among the figures; quick, standard and full; flat and
# fattree).
figs_out=$(mktemp -d)
if cargo run --release -p gaat-bench --bin figures -- --fig bogus --out "$figs_out" 2>"$figs_out/bogus.err"; then
    echo "figures --fig bogus must exit non-zero"
    exit 1
fi
for name in 6s 512 protocols coll; do
    if ! grep "valid:" "$figs_out/bogus.err" | grep -qw "$name"; then
        echo "figures --fig bogus must list $name among the valid figures"
        exit 1
    fi
done
if cargo run --release -p gaat-bench --bin figures -- --effort bogus --out "$figs_out" 2>"$figs_out/bogus.err"; then
    echo "figures --effort bogus must exit non-zero"
    exit 1
fi
for name in quick standard full; do
    if ! grep "valid:" "$figs_out/bogus.err" | grep -qw "$name"; then
        echo "figures --effort bogus must list $name among the valid efforts"
        exit 1
    fi
done
if cargo run --release -p gaat-bench --bin figures -- --topology bogus --out "$figs_out" 2>"$figs_out/bogus.err"; then
    echo "figures --topology bogus must exit non-zero"
    exit 1
fi
for name in flat fattree; do
    if ! grep "valid:" "$figs_out/bogus.err" | grep -qw "$name"; then
        echo "figures --topology bogus must list $name among the valid topologies"
        exit 1
    fi
done
rm -rf "$figs_out"
echo "figures OK"

echo "==> quick-figure ledger"
# Every quick figure row is a pin: the CSVs of --fig all and of the
# fat-tree Fig 7c, and the stdout of --fig all, regenerated at quick
# effort and diffed against the committed copies in results/quick/. A
# change that moves a row fails here; re-recording means running these
# two commands with --out results/quick (masking the stdout the same
# way) and committing the diff. Two stdout fields depend on the host,
# so one sed masks them in both copies: the LB table's planner wall
# time (plan ... us/round) and the directory in the last line (CSV
# written under <dir>).
mask='s/plan +[0-9.]+ us\/round/plan <host> us\/round/; s/^CSV written under .*/CSV written under <dir>/'
ledger=$(mktemp -d)
mkdir "$ledger/new" "$ledger/committed"
cargo run --release -p gaat-bench --bin figures -- --fig all --effort quick --out "$ledger/new" \
    | sed -E "$mask" >"$ledger/new/figures_all.txt"
cargo run --release -p gaat-bench --bin figures -- --fig 7c --topology fattree --effort quick --out "$ledger/new" >/dev/null
cp results/quick/* "$ledger/committed/"
sed -E -i "$mask" "$ledger/committed/figures_all.txt"
diff -r "$ledger/committed" "$ledger/new"
rm -rf "$ledger"
echo "ledger OK"

echo "==> sweep-engine ratio gate"
# Prefix forking must run the fork grid >= 2x faster, the median of
# three alternating off/on pairs; a miss fails unless the ThrottleGuard
# suspects the host slowed down mid-run.
cargo run --release -p gaat-bench --bin sweep_speed
echo "sweep gate OK"

echo "CI green"
