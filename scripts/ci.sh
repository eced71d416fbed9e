#!/usr/bin/env bash
# Offline CI gate: formatting, lints, rustdoc, the tier-1 build, the
# standalone benchmark build, tier-1 and workspace tests (which hold every
# correctness pin) in release and in the dev profile, the fault-tolerance
# example (PE-failure recovery must still match the reference solver), the
# sweep example, profile_run in its three modes (the default single-node
# profile run twice with byte-identical output; an unknown argument and a
# drop rate that is not a probability must fail), the two README examples (quickstart run twice with byte-identical
# output, wavefront), a smoke run of every benchmark workload, a quick
# Fig 9, a quick fat-tree Fig 7c, the protocol landscape and the quick
# collective tables through the figures binary (whose unknown --fig,
# --effort and --topology values must fail) and the sweep engine's
# in-process prefix-fork ratio gate.
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
# device tracer, and two runs must print the same bytes. Under adaptive LB
# and 1% loss it rolls back four times, so late events meet stale slab
# keys; the collective run drives gaat-coll; an unknown argument and a
# drop rate that is not a probability must exit non-zero.
prof_out=$(mktemp -d)
cargo run --release -p gaat --example profile_run >"$prof_out/a"
cargo run --release -p gaat --example profile_run >"$prof_out/b"
diff "$prof_out/a" "$prof_out/b"
rm -rf "$prof_out"
trace_out="$(mktemp)"
cargo run --release -p gaat --example profile_run -- --lb --drop 0.01 --trace-out "$trace_out"
rm -f "$trace_out"
cargo run --release -p gaat --example profile_run -- --collective allreduce
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
# against the CPU reference; two runs must print the same bytes, the end
# to end determinism check.
qs_out=$(mktemp -d)
cargo run --release -p gaat --example quickstart >"$qs_out/a"
cargo run --release -p gaat --example quickstart >"$qs_out/b"
diff "$qs_out/a" "$qs_out/b"
rm -rf "$qs_out"
cargo run --release -p gaat --example wavefront
echo "examples OK"

echo "==> benchmark smoke run"
# Every workload of the benchmark of record, shrunken; exits 1 if any
# attempt failed.
cargo run --release --offline --manifest-path crates/bench/src/bin/e2e/Cargo.toml -- --workload all --smoke
echo "benchmark smoke OK"

echo "==> figures binary"
# Fig 9 at quick effort runs every graph x fusion path of Jacobi3D
# through the binary, the fat-tree Fig 7c builds fat-tree worlds through
# the sweep engine's worker pool, the protocol landscape drives every UCX
# protocol, and the quick collective tables run the ring/tree allreduce,
# MoE alltoall and training-overlap slices (their correctness pins are
# unit tests in gaat-coll and gaat-dptrain); an unknown --fig, --effort
# or --topology value must fail rather than write nothing, and its error
# must list the valid names (6s, 512, protocols and coll among the
# figures; quick, standard and full; flat and fattree).
figs_out=$(mktemp -d)
cargo run --release -p gaat-bench --bin figures -- --fig 9 --effort quick --out "$figs_out"
test -s "$figs_out/fig9.csv"
cargo run --release -p gaat-bench --bin figures -- --fig 7c --topology fattree --effort quick --out "$figs_out"
test -s "$figs_out/fig7c-fattree.csv"
cargo run --release -p gaat-bench --bin figures -- --fig protocols --out "$figs_out"
cargo run --release -p gaat-bench --bin figures -- --fig coll --effort quick --out "$figs_out"
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

echo "==> sweep-engine ratio gate"
# Prefix forking must run the fork grid >= 2x faster, the median of
# three alternating off/on pairs; a miss fails unless the ThrottleGuard
# suspects the host slowed down mid-run.
cargo run --release -p gaat-bench --bin sweep_speed
echo "sweep gate OK"

echo "CI green"
