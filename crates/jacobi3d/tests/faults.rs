//! Fault-injection validation for the task-runtime Jacobi3D.
//!
//! With the reliable transport on, deterministic message loss must be
//! invisible to the numerics: the solver converges to the exact same
//! field as the fault-free run (and the sequential reference), only
//! later. Without retries, loss stalls the iteration. A PE failure is
//! recovered from buddy checkpoints and still matches the reference
//! bit for bit.

use gaat_jacobi3d::mpi_app::MpiShared;
use gaat_jacobi3d::{charm, CommMode, ConfigError, Dims, JacobiConfig, RunResult};
use gaat_rt::{App, ConfigError as MachineError, LbPolicy, MachineConfig, Simulation};
use gaat_sim::{
    FaultPlan, LinkFault, LinkFaultKind, PeFault, SimDuration, SimTime, StragglerWindow,
};

fn faulty_cfg(comm: CommMode, drop_prob: f64, retries: bool) -> JacobiConfig {
    let mut machine = MachineConfig::validation(2, 2);
    machine.faults = FaultPlan {
        seed: 42,
        drop_prob,
        ..FaultPlan::none()
    };
    machine.ucx.reliability.enabled = retries;
    let mut cfg = JacobiConfig::new(machine, Dims::cube(8));
    cfg.iters = 4;
    cfg.warmup = 1;
    cfg.odf = 2;
    cfg.comm = comm;
    cfg
}

/// About 1% of inter-node messages dropped over a longer run (fault
/// seed 1302, 12 iterations, 2 warm-up): drops are rare enough that a
/// run sees only a handful, each recovered by retransmit.
fn rare_loss_cfg() -> JacobiConfig {
    let mut cfg = faulty_cfg(CommMode::HostStaging, 0.01, true);
    cfg.machine.faults.seed = 1302;
    cfg.iters = 12;
    cfg.warmup = 2;
    cfg
}

fn assert_quiesced(sim: &Simulation) {
    assert_eq!(sim.machine.ucx.in_flight(), 0, "transfers leak");
    assert_eq!(sim.machine.ucx.stashed(), 0, "tokens/timers leak");
    assert_eq!(sim.machine.parked(), 0, "parked runtime payloads leak");
}

#[test]
fn lossy_host_staging_converges_bit_identically() {
    for cfg in [
        faulty_cfg(CommMode::HostStaging, 0.1, true),
        rare_loss_cfg(),
    ] {
        let (mut sim, ids, sh) = charm::build(cfg);
        charm::run(&mut sim, &ids, &sh);
        let st = sim.machine.ucx.stats();
        assert!(sim.machine.fabric.stats().drops > 0, "the plan should drop");
        assert!(st.retransmits > 0, "the drop plan should force retransmits");
        assert_eq!(st.peers_dead, 0, "no peer should be declared dead");
        assert_quiesced(&sim);
        sh.check(&sim, &ids);
    }
}

#[test]
fn lossy_gpu_aware_converges_bit_identically() {
    let cfg = faulty_cfg(CommMode::GpuAware, 0.02, true);
    let (mut sim, ids, sh) = charm::build(cfg);
    charm::run(&mut sim, &ids, &sh);
    let st = sim.machine.ucx.stats();
    assert!(st.retransmits > 0, "the drop plan should force retransmits");
    assert_quiesced(&sim);
    sh.check(&sim, &ids);
}

#[test]
fn lossy_run_costs_time_but_not_correctness() {
    let clean = faulty_cfg(CommMode::HostStaging, 0.0, true);
    let lossy = faulty_cfg(CommMode::HostStaging, 0.1, true);
    let (mut s0, ids0, sh0) = charm::build(clean);
    let r0 = charm::run(&mut s0, &ids0, &sh0);
    let (mut s1, ids1, sh1) = charm::build(lossy);
    let r1 = charm::run(&mut s1, &ids1, &sh1);
    assert_eq!(r0.checksum, r1.checksum, "loss must not change the field");
    assert!(
        r1.total > r0.total,
        "retransmits cost time: {} vs {}",
        r1.total,
        r0.total
    );
}

/// Silent message loss stalls at least one block: the run is a stalled
/// outcome, with no time per iteration, instead of a panic.
fn assert_stalls<A: App<Config = JacobiConfig, Result = RunResult>>(cfg: JacobiConfig) {
    let stalled = A::build_and_run(cfg).expect_err("a block stalls");
    assert!(stalled.stalled > 0, "{stalled:?}");
    assert_eq!(stalled.unit, SimDuration::ZERO);
    assert!(stalled.total > SimDuration::ZERO, "{stalled:?}");
}

/// Both runtimes: Charm-H at ODF 2 and MPI-H, one rank per PE.
#[test]
fn lossy_without_retries_fails_to_complete() {
    let mut cfg = faulty_cfg(CommMode::HostStaging, 0.05, false);
    assert_stalls::<charm::Shared>(cfg.clone());
    cfg.odf = 1;
    assert_stalls::<MpiShared>(cfg);
}

#[test]
fn pe_failure_recovers_from_checkpoints() {
    // Fault-free pass to learn the completion time, then kill a PE at
    // 60% of it — past the first full checkpoint wave.
    let mut cfg = faulty_cfg(CommMode::HostStaging, 0.0, true);
    cfg.checkpoint_every = 2;
    let (mut sim0, ids0, sh0) = charm::build(cfg.clone());
    let r0 = charm::run(&mut sim0, &ids0, &sh0);
    assert!(sim0.machine.stats().checkpoints_stored > 0);

    cfg.machine.faults.pe_failures = vec![PeFault {
        at: SimTime::ZERO + r0.total.mul_f64(0.6),
        pe: 1,
    }];
    let (mut sim, ids, sh) = charm::build(cfg);
    let r = charm::run(&mut sim, &ids, &sh);
    let st = sim.machine.stats();
    assert_eq!(st.pe_failures, 1);
    assert_eq!(st.recoveries, 1);
    assert_eq!(st.chares_restored as usize, ids.len());
    assert!(!sim.machine.pe_alive(1));
    assert!(sim.machine.incarnation() > 0);
    // Redoing rolled-back iterations costs time.
    assert!(r.total > r0.total, "{} vs {}", r.total, r0.total);
    assert_quiesced(&sim);
    sh.check(&sim, &ids);
}

/// The adaptive cell of `gaat_bench::ablation`'s LB table (two fat-tree
/// nodes, Charm-H at 192³, one GPU throttled 4×, the fault-free run's
/// hottest link at quarter capacity, balancer period = one fault-free
/// iteration) at 300 iterations, with 1% message loss at fault seed 2
/// on top. Returns the number of
/// blocks that never finished.
fn lossy_lb_stalls(throttled_gpu: usize) -> usize {
    let base = |faults: FaultPlan, policy: LbPolicy, period: SimDuration| {
        let mut machine = MachineConfig::summit_fattree(2);
        machine.net.jitter = 0.0;
        machine.ucx.reliability.enabled = true;
        machine.faults = faults;
        machine.lb.policy = policy;
        machine.lb.period = period;
        machine.lb.hysteresis_pct = 15;
        machine.lb.budget = 2;
        let mut c = JacobiConfig::new(machine, Dims::cube(192));
        c.comm = CommMode::HostStaging;
        c.odf = 2;
        c.iters = 300;
        c.warmup = 2;
        if c.machine.lb.enabled() {
            c.checkpoint_every = 1;
        }
        c
    };
    let (mut sim, ids, sh) =
        charm::build(base(FaultPlan::none(), LbPolicy::Off, SimDuration::ZERO));
    let ideal = charm::run(&mut sim, &ids, &sh);
    let hot_link = sim.machine.fabric.stats().hottest_link.expect("traffic").0;

    let mut faults = FaultPlan {
        seed: 2,
        drop_prob: 0.01,
        ..FaultPlan::none()
    };
    faults.stragglers.push(StragglerWindow {
        device: throttled_gpu,
        from: SimTime::ZERO,
        until: SimTime::ZERO + SimDuration::from_ms(60_000),
        slowdown: 4.0,
    });
    faults.link_faults.push(LinkFault {
        at: SimTime::ZERO,
        link: hot_link,
        kind: LinkFaultKind::Degrade(0.25),
    });
    let cfg = base(faults, LbPolicy::Adaptive, ideal.time_per_iter);
    let (mut sim, ids, sh) = charm::build(cfg);
    let (_, stalled) = charm::run_tolerant(&mut sim, &ids, &sh);
    assert!(sim.machine.lb_stats().applied > 0, "the balancer migrated");
    assert_quiesced(&sim);
    stalled
}

/// A halo that reaches a block between its restore and its resume used
/// to be handled with pre-rollback state (GPU 9: an out-of-bounds event
/// reset on the new device) or parked and then wiped (GPU 8: 12 blocks
/// stalled).
#[test]
fn lossy_rebalancing_finishes_every_block() {
    assert_eq!(lossy_lb_stalls(9), 0);
    assert_eq!(lossy_lb_stalls(8), 0);
}

#[test]
fn same_fault_seed_replays_identically() {
    let fingerprint = |cfg: JacobiConfig| {
        let (mut sim, ids, sh) = charm::build(cfg);
        let r = charm::run(&mut sim, &ids, &sh);
        let st = sim.machine.ucx.stats();
        let net = sim.machine.fabric.stats();
        (
            (r.total, r.checksum, r.entries),
            (net.drops, net.corrupts),
            (st.retransmits, st.timeouts, st.duplicates, st.acks_sent),
        )
    };
    for cfg in [
        faulty_cfg(CommMode::HostStaging, 0.1, true),
        rare_loss_cfg(),
    ] {
        assert_eq!(
            fingerprint(cfg.clone()),
            fingerprint(cfg),
            "same seed, same trajectory"
        );
    }
}

/// A GPU-aware block cannot move to another PE: its channels and graphs
/// belong to the device it was built on. A GPU-aware run that arms the
/// load balancer (here against a 4× straggler) is rejected before it is
/// built, not when the balancer first migrates a block.
#[test]
fn gpu_aware_lb_is_rejected_at_build() {
    let mut machine = MachineConfig::summit(2);
    machine.ucx.reliability.enabled = true;
    machine.lb.policy = LbPolicy::Adaptive;
    machine.lb.period = SimDuration::from_us(240);
    machine.faults.stragglers.push(StragglerWindow {
        device: 3,
        from: SimTime::ZERO,
        until: SimTime::ZERO + SimDuration::from_ms(60_000),
        slowdown: 4.0,
    });
    let mut cfg = JacobiConfig::new(machine, Dims::cube(192));
    cfg.comm = CommMode::GpuAware;
    cfg.odf = 2;
    cfg.checkpoint_every = 1;
    assert_rejected(
        &cfg,
        ConfigError::MigrationNeedsHostStaging,
        "need host-staging communication",
    );
}

/// `cfg` fails validation with `want`, whose message still reads
/// `text`.
fn assert_rejected(cfg: &JacobiConfig, want: ConfigError, text: &str) {
    let err = cfg.validate().unwrap_err();
    assert_eq!(err, want);
    assert!(err.to_string().contains(text), "{err}");
}

/// The PE-failure counterpart of [`gpu_aware_lb_is_rejected_at_build`]:
/// recovery would move the dead PE's blocks, so a GPU-aware run with a
/// PE failure armed is rejected before it is built.
#[test]
fn gpu_aware_pe_failure_is_rejected_at_build() {
    let mut machine = MachineConfig::summit(2);
    machine.ucx.reliability.enabled = true;
    machine.faults.pe_failures = vec![PeFault {
        at: SimTime::from_ns(1_000_000),
        pe: 1,
    }];
    let mut cfg = JacobiConfig::new(machine, Dims::cube(96));
    cfg.comm = CommMode::GpuAware;
    cfg.odf = 2;
    cfg.checkpoint_every = 1;
    assert_rejected(
        &cfg,
        ConfigError::MigrationNeedsHostStaging,
        "need host-staging communication",
    );
}

/// Charm-H at 96³ with checkpointing on: a configuration that passes
/// validation unless `machine`'s fault plan is out of range, in which
/// case it must fail with `want`, whose message still reads `text`.
fn assert_charm_h_rejected(mut machine: MachineConfig, want: MachineError, text: &str) {
    machine.ucx.reliability.enabled = true;
    let mut cfg = JacobiConfig::new(machine, Dims::cube(96));
    cfg.comm = CommMode::HostStaging;
    cfg.odf = 2;
    cfg.checkpoint_every = 1;
    assert_rejected(&cfg, ConfigError::Machine(want), text);
}

fn link_down(link: u32) -> LinkFault {
    LinkFault {
        at: SimTime::ZERO + SimDuration::from_us(100),
        link,
        kind: LinkFaultKind::Down,
    }
}

/// `summit_fattree(2)` has 14 links (2 NVLink, 2 + 2 NIC ports and one
/// leaf with 4 up/down trunk pairs); a fault on link 9,999 is rejected
/// before the simulation is built, not when it fires.
#[test]
fn out_of_range_link_fault_is_rejected_at_build() {
    let mut machine = MachineConfig::summit_fattree(2);
    machine.faults.link_faults = vec![link_down(9_999)];
    assert_charm_h_rejected(
        machine,
        MachineError::LinkOutOfRange {
            fault: 0,
            link: 9_999,
            links: 14,
        },
        "link fault 0 targets link 9999, but the fabric has 14 links",
    );
}

/// A Flat fabric has no link graph, so any link fault is out of range.
#[test]
fn link_fault_on_flat_fabric_is_rejected_at_build() {
    let mut machine = MachineConfig::summit(2);
    machine.faults.link_faults = vec![link_down(0)];
    assert_charm_h_rejected(
        machine,
        MachineError::LinkOutOfRange {
            fault: 0,
            link: 0,
            links: 0,
        },
        "link fault 0 targets link 0, but the fabric has 0 links",
    );
}

#[test]
fn out_of_range_pe_failure_is_rejected_at_build() {
    let mut machine = MachineConfig::summit(2);
    machine.faults.pe_failures = vec![PeFault {
        at: SimTime::from_ns(1_000_000),
        pe: 99,
    }];
    assert_charm_h_rejected(
        machine,
        MachineError::PeOutOfRange {
            fault: 0,
            pe: 99,
            pes: 12,
        },
        "PE failure 0 targets PE 99, but the machine has 12 PEs",
    );
}

#[test]
fn out_of_range_straggler_is_rejected_at_build() {
    let mut machine = MachineConfig::summit(2);
    machine.faults.stragglers = vec![StragglerWindow {
        device: 99,
        from: SimTime::ZERO,
        until: SimTime::ZERO + SimDuration::from_ms(10),
        slowdown: 2.0,
    }];
    assert_charm_h_rejected(
        machine,
        MachineError::DeviceOutOfRange {
            window: 0,
            device: 99,
            devices: 12,
        },
        "straggler window 0 targets device 99, but the machine has 12 devices",
    );
}
