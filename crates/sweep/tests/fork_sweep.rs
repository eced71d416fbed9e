//! The prefix-memoizing executor's contract: forked execution is
//! bit-invisible. Fingerprints from a fork-enabled sweep at workers
//! {1, 2, 4} must match a fork-disabled sweep, must match standalone
//! one-off runs, and the fork machinery must actually engage on a
//! fault-sweep-shaped grid.

use gaat_jacobi3d::{CommMode, Dims};
use gaat_rt::MachineConfig;
use gaat_sim::{mix64, FaultPlan, SimDuration, SimTime};
use gaat_sweep::{run_standalone, run_sweep, ScenarioGrid, SweepOptions, Workload};

fn t(us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_us(us)
}

fn jacobi() -> Workload {
    Workload::Jacobi {
        global: Dims::cube(8),
        iters: 3,
        warmup: 1,
        comm: CommMode::HostStaging,
    }
}

/// A fault-sweep-shaped grid: drop-rate × onset × machine-seed axes
/// over one machine shape, so scenarios within a (seed) cell differ
/// only in their post-onset stochastic fault behaviour.
fn fault_grid() -> ScenarioGrid {
    let mut machine = MachineConfig::validation(2, 2);
    machine.faults = FaultPlan {
        seed: 7,
        ..FaultPlan::none()
    };
    machine.ucx.reliability.enabled = true;
    let mut grid = ScenarioGrid::new(machine);
    grid.workloads = vec![jacobi()];
    grid.seeds = vec![1, 2];
    grid.odfs = vec![2];
    grid.drop_rates = vec![0.0, 0.05, 0.15];
    grid.fault_onsets = vec![t(40), t(80)];
    grid
}

/// The same shape diverging late: Jacobi3D 8³ × 8 iterations (a
/// ~1.39 ms timeline) with onsets at 83% and 93% of it, so one executed
/// prefix per seed serves eight branches.
fn late_onset_grid() -> ScenarioGrid {
    let mut machine = MachineConfig::validation(2, 2);
    machine.faults = FaultPlan {
        seed: 42,
        ..FaultPlan::none()
    };
    machine.ucx.reliability.enabled = true;
    let mut grid = ScenarioGrid::new(machine);
    grid.workloads = vec![Workload::Jacobi {
        global: Dims::cube(8),
        iters: 8,
        warmup: 1,
        comm: CommMode::HostStaging,
    }];
    grid.seeds = vec![1, 2];
    grid.odfs = vec![2];
    grid.drop_rates = vec![0.0, 0.02, 0.05, 0.10];
    grid.fault_onsets = vec![t(1150), t(1300)];
    grid
}

#[test]
fn forked_sweeps_match_unforked_and_standalone_at_all_worker_counts() {
    for (grid, len) in [(fault_grid(), 12), (late_onset_grid(), 16)] {
        let scenarios = grid.expand();
        assert_eq!(scenarios.len(), len);
        let seeds = grid.seeds.len();

        let mut opts = SweepOptions::new();
        opts.fork = false;
        opts.workers = 1;
        let reference = run_sweep(&scenarios, &opts).expect("no I/O configured");
        assert_eq!(reference.fork.snapshots_taken, 0);

        opts.fork = true;
        for workers in [1, 2, 4] {
            opts.workers = workers;
            let forked = run_sweep(&scenarios, &opts).expect("no I/O configured");
            assert_eq!(
                forked.fingerprints(),
                reference.fingerprints(),
                "fork path must be bit-invisible at {workers} workers"
            );
            // One group per machine seed, each forking its other
            // scenarios off one snapshot; only the prefix worlds are
            // ever built.
            assert_eq!(forked.fork.groups, seeds);
            assert_eq!(forked.fork.snapshots_taken, seeds);
            assert_eq!(forked.fork.scenarios_forked, len - seeds);
            assert_eq!(forked.fork.declined, 0);
            assert_eq!(forked.slots.prepared as usize, seeds);
        }

        for (sc, fp) in scenarios.iter().zip(&reference.fingerprints()) {
            assert_eq!(
                run_standalone(sc).fingerprint(),
                *fp,
                "sweep record for `{}` differs from a standalone run",
                sc.label()
            );
        }

        // The axes did something: drop rates diverge outcomes within a seed.
        let fps = reference.fingerprints();
        assert_ne!(fps[0], fps[2], "lossy branch must differ from clean");
    }
}

/// Sweep3d chares are plain data and fork through `Clone`, so the
/// planner groups sweep3d fault scenarios instead of forcing them
/// standalone. Forked fingerprints must equal both the unforked sweep
/// and fresh standalone runs, and the snapshot must actually be taken
/// (the world no longer declines).
#[test]
fn sweep3d_forks_bit_identically_to_standalone() {
    let mut machine = MachineConfig::validation(2, 2);
    machine.faults = FaultPlan {
        seed: 11,
        ..FaultPlan::none()
    };
    machine.ucx.reliability.enabled = true;
    let mut grid = ScenarioGrid::new(machine);
    grid.workloads = vec![Workload::Sweep3d {
        global: Dims::cube(8),
        sweeps: 2,
        warmup: 1,
    }];
    grid.odfs = vec![2];
    grid.drop_rates = vec![0.0, 0.05, 0.1];
    grid.fault_onsets = vec![t(40)];
    let scenarios = grid.expand();
    assert_eq!(scenarios.len(), 3);

    let mut opts = SweepOptions::new();
    opts.fork = false;
    let reference = run_sweep(&scenarios, &opts).expect("no I/O configured");
    assert_eq!(reference.fork.snapshots_taken, 0);

    opts.fork = true;
    for workers in [1, 2] {
        opts.workers = workers;
        let forked = run_sweep(&scenarios, &opts).expect("no I/O configured");
        assert_eq!(
            forked.fingerprints(),
            reference.fingerprints(),
            "sweep3d fork path must be bit-invisible at {workers} workers"
        );
        assert_eq!(forked.fork.groups, 1);
        assert_eq!(forked.fork.snapshots_taken, 1, "world must not decline");
        assert_eq!(forked.fork.scenarios_forked, 2);
        assert_eq!(forked.fork.declined, 0);
    }

    for (sc, fp) in scenarios.iter().zip(&reference.fingerprints()) {
        assert_eq!(
            run_standalone(sc).fingerprint(),
            *fp,
            "sweep record for `{}` differs from a standalone run",
            sc.label()
        );
    }
}

#[test]
fn fault_seed_axis_forks_with_retries_off() {
    let mut machine = MachineConfig::validation(2, 2);
    machine.ucx.reliability.enabled = false;
    let mut grid = ScenarioGrid::new(machine);
    grid.workloads = vec![jacobi()];
    grid.odfs = vec![2];
    grid.drop_rates = vec![0.05];
    grid.fault_onsets = vec![t(30)];
    grid.fault_seeds = vec![1, 2, 3, 4];
    let scenarios = grid.expand();

    let mut opts = SweepOptions::new();
    opts.fork = true;
    let forked = run_sweep(&scenarios, &opts).expect("no I/O configured");
    assert_eq!(forked.fork.groups, 1);
    assert_eq!(forked.fork.scenarios_forked, 3);
    for (sc, fp) in scenarios.iter().zip(&forked.fingerprints()) {
        assert_eq!(run_standalone(sc).fingerprint(), *fp);
    }
    // Retries are off and drops armed: stalls are expected — and must
    // reproduce exactly through the fork path (checked above); at least
    // two seeds should disagree for the axis to mean anything.
    let fps = forked.fingerprints();
    assert!(fps.iter().any(|f| *f != fps[0]));
}

/// Property-style randomized pin (the workspace vendors no property
/// testing crate, so the generator is a hand-rolled `mix64` chain):
/// random grids — including ones with nothing shareable — must produce
/// identical fingerprints through the forked sweep at 1 and 2 workers
/// and through fresh standalone execution of every scenario.
#[test]
fn random_grids_fork_bit_identically_to_fresh_runs() {
    let mut state = 0x9a7_5eed_u64;
    let mut next = move |n: u64| {
        state = mix64(state.wrapping_add(0x9E37_79B9_7F4A_7C15));
        state % n
    };

    for round in 0..6 {
        let mut machine = MachineConfig::validation(2, 2);
        machine.faults.seed = next(100);
        machine.ucx.reliability.enabled = next(2) == 0;
        let mut grid = ScenarioGrid::new(machine);
        grid.workloads = vec![jacobi()];
        grid.odfs = vec![1 + next(2) as usize];
        grid.seeds = (0..1 + next(2)).map(|i| 10 + i).collect();
        grid.drop_rates = (0..1 + next(3)).map(|i| i as f64 * 0.04).collect();
        // Rounds alternate between shareable (late-onset) and
        // unshareable (onset-zero / no-loss) shapes; onset 0 must
        // degrade to the plain per-scenario executor.
        grid.fault_onsets = match next(3) {
            0 => vec![SimTime::ZERO],
            1 => vec![t(20 + next(40))],
            _ => vec![SimTime::ZERO, t(20 + next(40)), t(100)],
        };
        grid.fault_seeds = (0..1 + next(2)).map(|i| 50 + i).collect();
        let scenarios = grid.expand();

        let mut opts = SweepOptions::new();
        opts.fork = true;
        let mut prints = Vec::new();
        for workers in [1, 2] {
            opts.workers = workers;
            let rep = run_sweep(&scenarios, &opts).expect("no I/O configured");
            prints.push(rep.fingerprints());
        }
        assert_eq!(prints[0], prints[1], "round {round}: worker count leaked");
        for (sc, fp) in scenarios.iter().zip(&prints[0]) {
            assert_eq!(
                run_standalone(sc).fingerprint(),
                *fp,
                "round {round}: fork path diverged for `{}`",
                sc.label()
            );
        }
    }
}

/// Every workload forks now that chares fork through `Clone`. Over a
/// lossy grid with the reliable transport on — drop rates
/// {0, 5%, 10%} × two lossy onsets after `t = 0` — forked fingerprints
/// at workers {1, 2, 4} equal the unforked sweep and fresh standalone
/// runs, the planner forms groups, and no world declines the snapshot.
#[test]
fn train_and_moe_fork_bit_identically_to_standalone() {
    let workloads = [
        Workload::Train {
            params: 1 << 12,
            steps: 2,
        },
        Workload::Moe {
            tokens: 64,
            hidden: 16,
            rounds: 2,
        },
    ];
    for workload in workloads {
        let mut machine = MachineConfig::validation(2, 2);
        machine.faults = FaultPlan {
            seed: 5,
            ..FaultPlan::none()
        };
        machine.ucx.reliability.enabled = true;
        let mut grid = ScenarioGrid::new(machine);
        grid.workloads = vec![workload];
        grid.drop_rates = vec![0.0, 0.05, 0.1];
        grid.fault_onsets = vec![t(40), t(80)];
        let scenarios = grid.expand();
        assert_eq!(scenarios.len(), 6);

        let mut opts = SweepOptions::new();
        opts.fork = false;
        opts.workers = 1;
        let reference = run_sweep(&scenarios, &opts).expect("no I/O configured");
        assert_eq!(reference.fork.groups, 0);

        opts.fork = true;
        for workers in [1, 2, 4] {
            opts.workers = workers;
            let forked = run_sweep(&scenarios, &opts).expect("no I/O configured");
            assert_eq!(
                forked.fingerprints(),
                reference.fingerprints(),
                "{workload:?} fork path must be bit-invisible at {workers} workers"
            );
            assert!(
                forked.fork.groups > 0,
                "{workload:?}: the planner must group"
            );
            assert_eq!(
                forked.fork.declined, 0,
                "{workload:?}: world must not decline"
            );
            assert_eq!(forked.fork.snapshots_taken, forked.fork.groups);
        }

        for (sc, fp) in scenarios.iter().zip(&reference.fingerprints()) {
            assert_eq!(
                run_standalone(sc).fingerprint(),
                *fp,
                "sweep record for `{}` differs from a standalone run",
                sc.label()
            );
        }
        // The lossy axis reached the run: the 10% drop branch differs
        // from the clean one.
        let fps = reference.fingerprints();
        assert_ne!(
            fps[0], fps[4],
            "{workload:?}: lossy branch must differ from clean"
        );
    }
}
