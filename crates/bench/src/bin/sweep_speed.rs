//! Sweep-engine ratio gate, measured within one process: **prefix
//! forking** must drain the 64-scenario fork grid (8 seeds × 4 drop
//! rates × 2 late fault onsets) at least 2× faster than the unforked
//! sweep.
//!
//! The ratio is the median of three alternating off/on pairs, so one
//! descheduled sweep cannot decide the verdict. A miss exits 1 unless
//! the ThrottleGuard suspects the host slowed down during the run; then
//! it is flagged instead. The fingerprint pins on the same grid shape
//! are tests in `crates/sweep/tests/`.
//!
//! Usage: `sweep_speed` (no options).

use gaat_bench::throttle::ThrottleGuard;
use gaat_jacobi3d::{CommMode, Dims};
use gaat_rt::MachineConfig;
use gaat_sim::{FaultPlan, SimDuration, SimTime};
use gaat_sweep::{run_sweep, Scenario, ScenarioGrid, SweepOptions, Workload};

/// Alternating off/on pairs.
const PAIRS: usize = 3;
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

/// The median over [`PAIRS`] pairs of the unforked sweep's wall time
/// over the forked one's, checking each pair's fingerprints agree.
fn median_fork_speedup(scenarios: &[Scenario]) -> f64 {
    let sweep = |fork: bool| {
        let opts = SweepOptions {
            fork,
            ..SweepOptions::new()
        };
        run_sweep(scenarios, &opts).expect("no sweep I/O configured")
    };
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|_| {
            let nofork = sweep(false);
            let fork = sweep(true);
            assert_eq!(
                fork.fingerprints(),
                nofork.fingerprints(),
                "forked sweep differs from the unforked sweep"
            );
            nofork.wall.as_secs_f64() / fork.wall.as_secs_f64()
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[PAIRS / 2]
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: sweep_speed");
        std::process::exit(2);
    }
    let fork_scenarios = fork_grid().expand();

    let mut guard = ThrottleGuard::open(2);
    let speedup = median_fork_speedup(&fork_scenarios);
    guard.close();

    let throttled = guard.throttle_suspected();
    let pass = speedup >= FORK_TARGET;
    let verdict = match (pass, throttled) {
        (true, _) => "OK",
        (false, true) => "FLAGGED (throttle suspected)",
        (false, false) => "FAIL",
    };
    println!(
        "fork   {} scenarios: {speedup:.2}x scenarios/s (median of {PAIRS} pairs; target {FORK_TARGET:.1}x)  {verdict}",
        fork_scenarios.len(),
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
    if !pass && !throttled {
        std::process::exit(1);
    }
}
