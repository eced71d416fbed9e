//! Sweep-engine ratio gates, each measured within one process:
//!
//! - **World reuse** must cut mean per-scenario setup (engine
//!   allocation + machine + application construction) by at least 25%
//!   on a 64-scenario Jacobi3D grid (8 seeds × ODF × placement × loss).
//! - **Prefix forking** must drain the 64-scenario fork grid (8 seeds ×
//!   4 drop rates × 2 late fault onsets) at least 2× faster than the
//!   unforked sweep.
//!
//! Each ratio is the median of three alternating off/on pairs, so one
//! descheduled sweep cannot decide the verdict. The reuse line also
//! prints that median pair's fresh and reused mean setup times. A miss
//! exits 1 unless the ThrottleGuard suspects the host slowed down
//! during the run; then it is flagged instead. The fingerprint pins on the same grid shapes
//! are tests in `crates/sweep/tests/`.
//!
//! Usage: `sweep_speed` (no options).

use gaat_bench::throttle::ThrottleGuard;
use gaat_jacobi3d::{CommMode, Dims, Placement};
use gaat_rt::MachineConfig;
use gaat_sim::{FaultPlan, SimDuration, SimTime};
use gaat_sweep::{run_sweep, Scenario, ScenarioGrid, SweepOptions, SweepReport, Workload};

/// Alternating off/on pairs per ratio.
const PAIRS: usize = 3;
/// Minimum setup cut from world reuse.
const REUSE_TARGET: f64 = 0.25;
/// Minimum scenarios/s speedup from prefix forking.
const FORK_TARGET: f64 = 2.0;

fn base_machine() -> MachineConfig {
    let mut machine = MachineConfig::validation(2, 2);
    machine.faults = FaultPlan {
        seed: 42,
        drop_prob: 0.0,
        ..FaultPlan::none()
    };
    machine.ucx.reliability.enabled = true;
    machine
}

/// The reuse grid: Jacobi3D 8³ × 4 iterations over 8 seeds × ODF ×
/// placement × loss.
fn reuse_grid() -> ScenarioGrid {
    let mut grid = ScenarioGrid::new(base_machine());
    grid.workloads.push(Workload::Jacobi {
        global: Dims::cube(8),
        iters: 4,
        warmup: 1,
        comm: CommMode::HostStaging,
    });
    grid.seeds = (1..=8).collect();
    grid.odfs = vec![1, 2];
    grid.placements = vec![Placement::Packed, Placement::RoundRobin];
    grid.drop_rates = vec![0.0, 0.05];
    grid
}

/// The fork grid: within a machine seed, scenarios differ only in drop
/// rate and fault onset, with onsets at 83% and 93% of the ~1.39 ms
/// timeline, so one executed prefix serves eight branches.
fn fork_grid() -> ScenarioGrid {
    let t = |us: u64| SimTime::ZERO + SimDuration::from_us(us);
    let mut grid = ScenarioGrid::new(base_machine());
    grid.workloads.push(Workload::Jacobi {
        global: Dims::cube(8),
        iters: 8,
        warmup: 1,
        comm: CommMode::HostStaging,
    });
    grid.seeds = (1..=8).collect();
    grid.odfs = vec![2];
    grid.drop_rates = vec![0.0, 0.02, 0.05, 0.10];
    grid.fault_onsets = vec![t(1150), t(1300)];
    grid
}

/// The pair with the median `ratio(off, on)` over [`PAIRS`] pairs, as
/// `(ratio, off, on)`, where each pair sweeps `scenarios` with
/// `set(opts, false)` and then `set(opts, true)`.
fn median_pair(
    scenarios: &[Scenario],
    set: impl Fn(&mut SweepOptions, bool),
    ratio: impl Fn(&SweepReport, &SweepReport) -> f64,
) -> (f64, SweepReport, SweepReport) {
    let sweep = |on: bool| {
        let mut opts = SweepOptions::new();
        set(&mut opts, on);
        run_sweep(scenarios, &opts).expect("no sweep I/O configured")
    };
    let mut pairs: Vec<_> = (0..PAIRS)
        .map(|_| {
            let off = sweep(false);
            let on = sweep(true);
            (ratio(&off, &on), off, on)
        })
        .collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    pairs.swap_remove(PAIRS / 2)
}

fn mean_setup_ns(report: &SweepReport) -> f64 {
    let n = report.records.len().max(1) as f64;
    report
        .records
        .iter()
        .map(|r| r.setup_ns as f64)
        .sum::<f64>()
        / n
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: sweep_speed");
        std::process::exit(2);
    }
    let reuse_scenarios = reuse_grid().expand();
    let fork_scenarios = fork_grid().expand();

    let mut guard = ThrottleGuard::open(2);
    let (reduction, fresh, reused) = median_pair(
        &reuse_scenarios,
        |opts, on| opts.reuse_worlds = on,
        |fresh, reused| 1.0 - mean_setup_ns(reused) / mean_setup_ns(fresh),
    );
    let (speedup, _, _) = median_pair(
        &fork_scenarios,
        |opts, on| opts.fork = on,
        |nofork, fork| {
            assert_eq!(
                fork.fingerprints(),
                nofork.fingerprints(),
                "forked sweep differs from the unforked sweep"
            );
            nofork.wall.as_secs_f64() / fork.wall.as_secs_f64()
        },
    );
    guard.close();

    let throttled = guard.throttle_suspected();
    let verdict = |pass: bool| match (pass, throttled) {
        (true, _) => "OK",
        (false, true) => "FLAGGED (throttle suspected)",
        (false, false) => "FAIL",
    };
    let reuse_pass = reduction >= REUSE_TARGET;
    let fork_pass = speedup >= FORK_TARGET;
    println!(
        "reuse  {} scenarios: setup cut {:.0}% (fresh {:.1} us, reused {:.1} us mean setup; median of {PAIRS} pairs; target {:.0}%)  {}",
        reuse_scenarios.len(),
        reduction * 100.0,
        mean_setup_ns(&fresh) / 1e3,
        mean_setup_ns(&reused) / 1e3,
        REUSE_TARGET * 100.0,
        verdict(reuse_pass)
    );
    println!(
        "fork   {} scenarios: {speedup:.2}x scenarios/s (median of {PAIRS} pairs; target {FORK_TARGET:.1}x)  {}",
        fork_scenarios.len(),
        verdict(fork_pass)
    );
    println!(
        "steady-state drift {:.3}x{}",
        guard.slowdown_ratio(),
        if throttled {
            "  ** thermal throttle suspected — ratios are biased **"
        } else {
            ""
        }
    );
    let missed = !reuse_pass || !fork_pass;
    if missed && !throttled {
        std::process::exit(1);
    }
}
