//! The prefix-memoizing executor's contract: forked execution is
//! bit-invisible. Fingerprints from a fork-enabled sweep at workers
//! {1, 2, 4} must match a fork-disabled sweep, must match standalone
//! one-off runs, and the fork machinery must actually engage on a
//! fault-sweep-shaped grid. Resume must complete a partial sweep to the
//! same fingerprints as an uninterrupted one.

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

#[test]
fn forked_sweeps_match_unforked_and_standalone_at_all_worker_counts() {
    let scenarios = fault_grid().expand();
    assert_eq!(scenarios.len(), 12);

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
        // One group per machine seed, each forking 6 scenarios off one
        // snapshot; only the 2 prefix worlds are ever built.
        assert_eq!(forked.fork.groups, 2);
        assert_eq!(forked.fork.snapshots_taken, 2);
        assert_eq!(forked.fork.scenarios_forked, 10);
        assert_eq!(forked.fork.declined, 0);
        assert_eq!(forked.slots.prepared, 2);
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

#[test]
fn resume_completes_a_partial_sweep_bit_identically() {
    let scenarios = fault_grid().expand();
    let dir = std::env::temp_dir();
    let path = dir.join("gaat_sweep_resume_test.jsonl");

    let mut opts = SweepOptions::new();
    opts.workers = 2;
    opts.jsonl = Some(path.clone());
    let fresh = run_sweep(&scenarios, &opts).expect("temp dir is writable");
    let want = fresh.fingerprints();

    // Simulate a kill mid-sweep: keep 5 intact lines, then a torn line.
    let full = std::fs::read_to_string(&path).unwrap();
    let mut partial: String = full.lines().take(5).map(|l| format!("{l}\n")).collect();
    partial.push_str("{\"i\": 11, \"label\": \"jacobi se");
    std::fs::write(&path, &partial).unwrap();

    opts.resume = true;
    let resumed = run_sweep(&scenarios, &opts).expect("temp dir is writable");
    assert_eq!(resumed.resumed, 5, "five intact records must be kept");
    assert_eq!(
        resumed.fingerprints(),
        want,
        "a resumed sweep must equal an uninterrupted one"
    );
    // The rewritten file carries every record, torn tail gone.
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), scenarios.len());

    // Resuming a *complete* file runs nothing at all.
    let third = run_sweep(&scenarios, &opts).expect("temp dir is writable");
    assert_eq!(third.resumed, scenarios.len());
    assert_eq!(third.slots.prepared, 0, "no worlds built on a full resume");
    assert_eq!(third.fingerprints(), want);
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_rejects_records_from_a_different_grid() {
    let scenarios = fault_grid().expand();
    let dir = std::env::temp_dir();
    let path = dir.join("gaat_sweep_resume_mismatch_test.jsonl");

    let mut opts = SweepOptions::new();
    opts.jsonl = Some(path.clone());
    let fresh = run_sweep(&scenarios, &opts).expect("temp dir is writable");

    // A grid with a different fault seed: same indices, different
    // labels. Nothing from the old file may be trusted.
    let mut other_grid = fault_grid();
    other_grid.machine.faults.seed = 8;
    let others = other_grid.expand();
    opts.resume = true;
    let resumed = run_sweep(&others, &opts).expect("temp dir is writable");
    assert_eq!(resumed.resumed, 0, "label mismatch must reject resume");
    assert_ne!(resumed.fingerprints(), fresh.fingerprints());
    std::fs::remove_file(&path).ok();
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
