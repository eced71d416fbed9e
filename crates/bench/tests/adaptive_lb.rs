//! The adaptive load balancer's pins, on the LB table of
//! `gaat_bench::ablation` at 12 iterations: two fat-tree nodes, Charm-H
//! at 192³, GPU 2 throttled 4× and the fault-free run's hottest link at
//! quarter capacity. Every check is in virtual time or bit equality, so
//! none depends on the host.

use gaat_bench::ablation::{lb_cell, lb_config, lb_faults, lb_machine, lb_table};
use gaat_jacobi3d::{CommMode, Dims};
use gaat_rt::LbPolicy;
use gaat_sim::{FaultPlan, SimDuration};
use gaat_sweep::{run_sweep, ScenarioGrid, SweepOptions, Workload};

const ITERS: usize = 12;

/// The adaptive policy claws back at least 20% of the frozen-vs-fault-free
/// makespan gap, and replays bit-identically from the same seed.
#[test]
fn adaptive_lb_recovers_a_fifth_of_the_gap_and_replays() {
    let t = lb_table(ITERS);
    assert!(
        t.recovery() >= 0.20,
        "adaptive recovered {:.3} of the gap (fault-free {} ns, frozen {} ns, adaptive {} ns)",
        t.recovery(),
        t.fault_free.total_ns,
        t.frozen.total_ns,
        t.adaptive.total_ns
    );
    let (replay, _) = lb_cell(lb_config(
        lb_faults(t.hot_link),
        LbPolicy::Adaptive,
        t.period,
        Dims::cube(192),
        ITERS,
    ));
    assert_eq!(replay.total_ns, t.adaptive.total_ns);
    assert_eq!(replay.checksum, t.adaptive.checksum);
    assert_eq!(replay.entries, t.adaptive.entries);
    assert_eq!(replay.lb.migrations, t.adaptive.lb.migrations);
}

/// A small real-buffer trio of the same scenario shape (fault-free,
/// frozen, adaptive at 48³, 6 iterations) checksums bit-identically:
/// migration rollbacks do not perturb the math. The adaptive run must
/// actually migrate, or the pin would not reach the rollback path.
#[test]
fn lb_rollbacks_keep_real_buffer_solutions_identical() {
    let t = lb_table(ITERS);
    let run = |faults: FaultPlan, policy: LbPolicy, period: SimDuration| {
        let mut cfg = lb_config(faults, policy, period, Dims::cube(48), 6);
        cfg.machine.real_buffers = true;
        cfg.warmup = 1;
        let (cell, _) = lb_cell(cfg);
        (
            cell.checksum.expect("real buffers yield a checksum"),
            cell.lb.migrations,
        )
    };
    let (ideal, _) = run(FaultPlan::none(), LbPolicy::Off, SimDuration::ZERO);
    let (frozen, _) = run(lb_faults(t.hot_link), LbPolicy::Off, SimDuration::ZERO);
    let period = SimDuration::from_us(200);
    let (balanced, migrations) = run(lb_faults(t.hot_link), LbPolicy::Adaptive, period);
    assert_eq!(frozen, ideal);
    assert_eq!(balanced, ideal);
    assert!(migrations > 0, "the adaptive run must migrate");
}

/// The degraded scenario under {off, adaptive} swept at pool workers
/// 1, 2 and 4 fingerprints identically.
#[test]
fn lb_sweep_fingerprints_match_across_workers() {
    let t = lb_table(ITERS);
    let mut machine = lb_machine();
    machine.faults = lb_faults(t.hot_link);
    machine.lb.period = t.period;
    let mut grid = ScenarioGrid::new(machine);
    grid.workloads.push(Workload::Jacobi {
        global: Dims::cube(192),
        iters: ITERS,
        warmup: 2,
        comm: CommMode::HostStaging,
    });
    grid.odfs = vec![2];
    grid.lb_policies = vec![LbPolicy::Off, LbPolicy::Adaptive];
    let scenarios = grid.expand();
    let mut opts = SweepOptions::new();
    let mut prints = Vec::new();
    for workers in [1, 2, 4] {
        opts.workers = workers;
        prints.push(
            run_sweep(&scenarios, &opts)
                .expect("no sweep I/O configured")
                .fingerprints(),
        );
    }
    assert_eq!(prints[1], prints[0], "2 workers");
    assert_eq!(prints[2], prints[0], "4 workers");
    // Same fault plan, different policies: the balancer changed the run.
    assert_ne!(prints[0][0], prints[0][1]);
}
