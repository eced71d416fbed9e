//! The sweep engine's contract: per-scenario outcomes are independent
//! of worker count and dequeue order. Fingerprints at workers {1, 2, 4}
//! must match each other and must match standalone one-off runs of the
//! same scenarios.

use gaat_jacobi3d::{CommMode, Dims, Placement, Reference};
use gaat_net::{FatTreeParams, TopologyKind};
use gaat_rt::{LbPolicy, MachineConfig};
use gaat_sim::{FaultPlan, PeFault, SimDuration, SimTime};
use gaat_sweep::{run_standalone, run_sweep, ScenarioGrid, ScenarioRecord, SweepOptions, Workload};

fn test_machine() -> MachineConfig {
    let mut machine = MachineConfig::validation(2, 2);
    machine.faults = FaultPlan {
        seed: 42,
        drop_prob: 0.0,
        ..FaultPlan::none()
    };
    machine.ucx.reliability.enabled = true;
    machine
}

fn small_fattree() -> TopologyKind {
    // Two nodes on separate leaves over two spines, so inter-node
    // traffic actually crosses a spine.
    TopologyKind::FatTree(FatTreeParams {
        leaf_radix: 1,
        spines: 2,
        trunk_bw: 23.0e9,
        hop_latency_ns: 150,
    })
}

/// All four workloads, both topologies, a loss axis, and (for Jacobi,
/// which tolerates stalls) a retries-off arm — small enough to run five
/// times in a test, wide enough to cross every engine code path.
fn test_grid() -> ScenarioGrid {
    let mut grid = ScenarioGrid::new(test_machine());
    grid.workloads = vec![
        Workload::Jacobi {
            global: Dims::cube(8),
            iters: 3,
            warmup: 1,
            comm: CommMode::HostStaging,
        },
        Workload::Sweep3d {
            global: Dims::cube(8),
            sweeps: 2,
            warmup: 1,
        },
        Workload::Train {
            params: 4096,
            steps: 2,
        },
        Workload::Moe {
            tokens: 64,
            hidden: 8,
            rounds: 2,
        },
    ];
    grid.seeds = vec![1, 2];
    grid.odfs = vec![1, 2];
    grid.placements = vec![Placement::RoundRobin];
    grid.topologies = vec![TopologyKind::Flat, small_fattree()];
    grid.drop_rates = vec![0.0, 0.05];
    grid.retries = vec![true, false];
    // Only Jacobi runs stall-tolerantly; everything else needs the
    // reliable transport whenever loss is armed. Retries-off at zero
    // loss is a duplicate of retries-on.
    grid.filter = Some(|sc| {
        if sc.retries {
            true
        } else {
            matches!(sc.workload, Workload::Jacobi { .. }) && sc.drop_rate > 0.0
        }
    });
    grid
}

#[test]
fn expansion_is_stable_and_indexed() {
    let scenarios = test_grid().expand();
    assert!(!scenarios.is_empty());
    for (i, sc) in scenarios.iter().enumerate() {
        assert_eq!(sc.index, i, "indices are positional");
    }
    let again = test_grid().expand();
    assert_eq!(scenarios.len(), again.len());
    for (a, b) in scenarios.iter().zip(&again) {
        assert_eq!(a.label(), b.label(), "expansion order is deterministic");
    }
}

/// Jacobi3D alone over seeds × ODF × placement × loss, with a stalling
/// retries-off arm: 24 scenarios.
fn jacobi_loss_grid() -> ScenarioGrid {
    let mut grid = ScenarioGrid::new(test_machine());
    grid.workloads.push(Workload::Jacobi {
        global: Dims::cube(8),
        iters: 4,
        warmup: 1,
        comm: CommMode::HostStaging,
    });
    grid.seeds = vec![1, 2];
    grid.odfs = vec![1, 2];
    grid.placements = vec![Placement::Packed, Placement::RoundRobin];
    grid.drop_rates = vec![0.0, 0.05];
    grid.retries = vec![true, false];
    grid.filter = Some(|sc| sc.retries || sc.drop_rate > 0.0);
    grid
}

#[test]
fn fingerprints_invariant_across_workers_and_standalone() {
    assert_eq!(jacobi_loss_grid().expand().len(), 24);
    for grid in [test_grid(), jacobi_loss_grid()] {
        let scenarios = grid.expand();

        let mut opts = SweepOptions::new();
        let mut runs = Vec::new();
        for workers in [1, 2, 4] {
            opts.workers = workers;
            runs.push(run_sweep(&scenarios, &opts).expect("no I/O configured"));
        }

        let reference = runs[0].fingerprints();
        assert_eq!(reference.len(), scenarios.len());
        for run in &runs[1..] {
            assert_eq!(
                run.fingerprints(),
                reference,
                "sweep outcomes must not depend on worker count"
            );
        }
        // One fresh world per scenario (this grid forms no fork group),
        // and none recycled.
        for run in &runs {
            assert_eq!(run.slots.prepared as usize, scenarios.len());
            assert_eq!(run.slots.reused, 0);
        }

        // And each record matches a standalone one-off run of its scenario.
        for (sc, fp) in scenarios.iter().zip(&reference) {
            let solo = run_standalone(sc);
            assert_eq!(
                solo.fingerprint(),
                *fp,
                "sweep record for `{}` differs from a standalone run",
                sc.label()
            );
        }
    }
}

#[test]
fn stalled_scenarios_are_reported_not_fatal() {
    let scenarios = test_grid().expand();
    let report = run_sweep(&scenarios, &SweepOptions::new()).expect("no I/O configured");
    let stalled: Vec<_> = report.records.iter().filter(|r| !r.ok).collect();
    assert!(
        !stalled.is_empty(),
        "the retries-off loss arm should stall some blocks"
    );
    for r in &stalled {
        assert!(r.stalled > 0, "a failed record carries its casualty count");
        assert!(r.makespan_ns > 0, "stall time is still deterministic");
        assert_eq!(r.unit_ns, 0);
    }
    assert!(report.records.iter().any(|r| r.ok));
}

#[test]
fn jsonl_and_csv_outputs_stream_every_record() {
    let scenarios = test_grid().expand();
    let dir = std::env::temp_dir();
    let mut opts = SweepOptions::new();
    opts.workers = 2;
    opts.jsonl = Some(dir.join("gaat_sweep_test.jsonl"));
    opts.csv = Some(dir.join("gaat_sweep_test.csv"));
    let report = run_sweep(&scenarios, &opts).expect("temp dir is writable");

    let jsonl = std::fs::read_to_string(opts.jsonl.as_ref().unwrap()).unwrap();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), scenarios.len(), "one JSONL line per scenario");
    for rec in &report.records {
        // Records stream in completion order; find by index and check
        // the line is exactly the record's encoding.
        let tag = format!("{{\"i\": {}, ", rec.index);
        let line = lines
            .iter()
            .find(|l| l.starts_with(&tag))
            .expect("every scenario has a line");
        assert_eq!(*line, rec.jsonl());
        assert!(line.contains(&format!("{:016x}", rec.fingerprint())));
    }

    let csv = std::fs::read_to_string(opts.csv.as_ref().unwrap()).unwrap();
    let rows = report.aggregate();
    assert_eq!(
        csv.lines().count(),
        rows.len() + 1,
        "header + one row per group"
    );
    assert_eq!(
        csv.lines().next().unwrap(),
        "group,count,ok,stalled,mean_makespan_ns,mean_unit_ns,mean_wall_ns"
    );
    let total: usize = rows.iter().map(|r| r.count).sum();
    assert_eq!(total, scenarios.len(), "aggregate covers every scenario");
}

#[test]
fn template_pe_failure_recovers_in_every_scenario() {
    // A template machine that kills a PE must turn checkpoints on in
    // every Jacobi scenario; without them the build panics and takes
    // the whole grid down.
    let mut machine = MachineConfig::validation(2, 2);
    machine.ucx.reliability.enabled = true;
    machine.faults.pe_failures = vec![PeFault {
        at: SimTime::ZERO + SimDuration::from_us(300),
        pe: 1,
    }];
    let mut grid = ScenarioGrid::new(machine);
    let (global, iters, warmup) = (Dims::cube(8), 8, 1);
    grid.workloads = vec![Workload::Jacobi {
        global,
        iters,
        warmup,
        comm: CommMode::HostStaging,
    }];
    grid.seeds = vec![1, 2];
    grid.odfs = vec![1, 2];
    let scenarios = grid.expand();
    assert_eq!(scenarios.len(), 4);

    let mut reference = Reference::new(global);
    reference.run(iters + warmup);
    let standalone: Vec<u64> = scenarios
        .iter()
        .map(|sc| run_standalone(sc).fingerprint())
        .collect();
    for workers in [1, 2] {
        let opts = SweepOptions {
            workers,
            ..SweepOptions::new()
        };
        let report = run_sweep(&scenarios, &opts).expect("no I/O configured");
        assert_eq!(report.fingerprints(), standalone, "workers={workers}");
        for r in &report.records {
            assert!(r.ok, "{} did not recover", r.label);
            assert!(r.makespan_ns > 300_000, "the PE died before the end");
            assert_eq!(r.checksum, Some(reference.norm2()), "{}", r.label);
        }
    }
}

/// The LB rules are checked per scenario: a retries-off scenario under
/// the adaptive balancer, or a GPU-aware one, becomes a rejected record
/// that names its rule, and the rest of the grid still runs.
#[test]
fn rejected_scenarios_are_recorded_not_fatal() {
    let jacobi = |comm| Workload::Jacobi {
        global: Dims::cube(8),
        iters: 3,
        warmup: 1,
        comm,
    };
    let mut machine = MachineConfig::validation(2, 2);
    machine.lb.period = SimDuration::from_us(200);
    let mut retries_grid = ScenarioGrid::new(machine.clone());
    retries_grid.workloads = vec![jacobi(CommMode::HostStaging)];
    retries_grid.retries = vec![true, false];
    retries_grid.lb_policies = vec![LbPolicy::Off, LbPolicy::Adaptive];
    machine.ucx.reliability.enabled = true;
    let mut comm_grid = ScenarioGrid::new(machine);
    comm_grid.workloads = vec![jacobi(CommMode::GpuAware)];
    comm_grid.lb_policies = vec![LbPolicy::Off, LbPolicy::Adaptive];

    for (grid, rule) in [
        (retries_grid, "requires ucx.reliability.enabled"),
        (comm_grid, "need host-staging communication"),
    ] {
        let scenarios = grid.expand();
        let report = run_sweep(&scenarios, &SweepOptions::new()).expect("no I/O configured");
        let mut rejected = 0;
        for (sc, rec) in scenarios.iter().zip(&report.records) {
            let solo = run_standalone(sc);
            assert_eq!(rec.fingerprint(), solo.fingerprint(), "{}", sc.label());
            assert_eq!(rec.error, solo.error, "{}", sc.label());
            if let Some(e) = &rec.error {
                rejected += 1;
                assert!(e.contains(rule), "{}: {e}", sc.label());
                assert_eq!(sc.lb_policy, LbPolicy::Adaptive, "{}", sc.label());
                assert!(!rec.ok);
                assert_eq!((rec.stalled, rec.makespan_ns, rec.entries), (0, 0, 0));
                assert!(rec.jsonl().contains(rule));
                assert_eq!(
                    ScenarioRecord::from_jsonl(&rec.jsonl()).unwrap().error,
                    rec.error
                );
            } else {
                assert!(rec.ok, "{} should run", sc.label());
            }
        }
        assert_eq!(rejected, 1, "exactly one scenario breaks `{rule}`");
    }

    // A NaN jitter rejects its scenario the same way, and the scenario
    // beside it still runs.
    let mut grid = ScenarioGrid::new(MachineConfig::validation(2, 2));
    grid.workloads = vec![jacobi(CommMode::HostStaging)];
    grid.seeds = vec![1, 2];
    let mut scenarios = grid.expand();
    scenarios[1].machine.net.jitter = f64::NAN;
    let report = run_sweep(&scenarios, &SweepOptions::new()).expect("no I/O configured");
    let outcomes: Vec<(bool, Option<&str>)> = report
        .records
        .iter()
        .map(|r| (r.ok, r.error.as_deref()))
        .collect();
    let bad = Some("net.jitter must be a finite factor in [0, 1]");
    assert_eq!(outcomes, [(true, None), (false, bad)]);
    assert_eq!(
        run_standalone(&scenarios[1]).fingerprint(),
        report.records[1].fingerprint()
    );
}

/// A drop rate that is not a probability (NaN, below 0 or above 1)
/// becomes a rejected record naming the field, and the valid rate beside
/// it still runs.
#[test]
fn out_of_range_drop_rates_are_recorded_not_fatal() {
    let mut grid = ScenarioGrid::new(test_machine());
    grid.workloads = vec![Workload::Jacobi {
        global: Dims::cube(8),
        iters: 3,
        warmup: 1,
        comm: CommMode::HostStaging,
    }];
    grid.drop_rates = vec![0.01, f64::NAN, -0.5, 1.5];
    let report = run_sweep(&grid.expand(), &SweepOptions::new()).expect("no I/O configured");
    let outcomes: Vec<(bool, Option<&str>)> = report
        .records
        .iter()
        .map(|r| (r.ok, r.error.as_deref()))
        .collect();
    let bad = (
        false,
        Some("faults.drop_prob must be a probability in [0, 1]"),
    );
    assert_eq!(outcomes, [(true, None), bad, bad, bad]);
}

/// A scenario its own app refuses (a training run with fewer parameters
/// than its 4 gradient buckets, a Sweep3D run with no timed sweep)
/// becomes a rejected record instead of aborting the sweep, and the good
/// scenario beside them still runs.
#[test]
fn app_config_rejections_are_recorded_not_fatal() {
    let mut grid = ScenarioGrid::new(test_machine());
    grid.workloads = vec![
        Workload::Train {
            params: 3,
            steps: 1,
        },
        Workload::Sweep3d {
            global: Dims::cube(8),
            sweeps: 0,
            warmup: 1,
        },
        Workload::Moe {
            tokens: 64,
            hidden: 8,
            rounds: 1,
        },
    ];
    let scenarios = grid.expand();
    let report = run_sweep(&scenarios, &SweepOptions::new()).expect("no I/O configured");
    let outcomes: Vec<(&str, bool, Option<&str>)> = scenarios
        .iter()
        .zip(&report.records)
        .map(|(sc, r)| (sc.workload.name(), r.ok, r.error.as_deref()))
        .collect();
    assert_eq!(
        outcomes,
        [
            ("train", false, Some("3 parameters cannot fill 4 buckets")),
            ("sweep3d", false, Some("need at least one timed sweep")),
            ("moe", true, None),
        ]
    );
}
