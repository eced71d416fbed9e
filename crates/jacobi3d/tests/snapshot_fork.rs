//! World snapshot/fork validation at the full-runtime level.
//!
//! The sweep engine's prefix memoization rests on one claim: a world
//! rewound to a clone of a paused [`Simulation`] and driven to quiescence
//! is bit-identical to a world that ran the same scenario fresh from
//! `t = 0`. These tests pin that claim for the Jacobi3D app across the
//! late-diverging fault axes the memoizer actually forks on
//! (drop probability and fault seed past an onset instant), including
//! restoring one snapshot several times, and on a fat tree whose trunk
//! is down at the snapshot instant.

use gaat_jacobi3d::charm;
use gaat_jacobi3d::{CommMode, Dims, JacobiConfig, RunResult};
use gaat_net::{FatTreeGraph, FatTreeParams, TopologyKind};
use gaat_rt::{App, ConfigError, MachineConfig, Simulation};
use gaat_sim::{FaultPlan, LinkFault, LinkFaultKind, SimDuration, SimTime};

fn onset_cfg(
    topology: TopologyKind,
    drop_prob: f64,
    onset_us: u64,
    retries: bool,
    fault_seed: u64,
) -> JacobiConfig {
    let mut machine = MachineConfig::validation(2, 2);
    machine.net.topology = topology;
    machine.faults = FaultPlan {
        seed: fault_seed,
        drop_prob,
        onset: SimTime::ZERO + SimDuration::from_us(onset_us),
        ..FaultPlan::none()
    };
    machine.ucx.reliability.enabled = retries;
    let mut cfg = JacobiConfig::new(machine, Dims::cube(8));
    cfg.iters = 4;
    cfg.warmup = 1;
    cfg.odf = 2;
    cfg.comm = CommMode::HostStaging;
    cfg
}

/// Everything a forked branch must reproduce bit for bit.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Option<RunResult>,
    stalled: usize,
    end_ns: u64,
    net_messages: u64,
    net_drops: u64,
    net_retransmits: u64,
    ucx_retransmits: u64,
    ucx_timeouts: u64,
    entries: u64,
    link_faults: u64,
    failovers: u64,
    flow_aborts: u64,
    parked: usize,
    ucx_stashed: usize,
    ucx_in_flight: usize,
    leaked_events: usize,
}

fn outcome(sim: &Simulation, run: Result<RunResult, gaat_rt::Outcome>) -> Outcome {
    let stalled = run.as_ref().err().map_or(0, |o| o.stalled);
    let result = run.ok();
    let net = sim.machine.fabric.stats();
    let ucx = sim.machine.ucx.stats();
    let o = Outcome {
        result,
        stalled,
        end_ns: sim.now().as_ns(),
        net_messages: net.messages,
        net_drops: net.drops,
        net_retransmits: net.retransmits,
        ucx_retransmits: ucx.retransmits,
        ucx_timeouts: ucx.timeouts,
        entries: sim.machine.stats().entries,
        link_faults: net.link_faults,
        failovers: net.failovers,
        flow_aborts: net.flow_aborts,
        parked: sim.machine.parked(),
        ucx_stashed: sim.machine.ucx.stashed(),
        ucx_in_flight: sim.machine.ucx.in_flight(),
        leaked_events: sim.sim.leak_check(),
    };
    // A run whose blocks all finished must leave nothing behind in any
    // layer: no parked payload, no transport state, no engine event.
    if stalled == 0 {
        assert_eq!(
            (o.parked, o.ucx_stashed, o.ucx_in_flight, o.leaked_events),
            (0, 0, 0, 0),
            "a finished run leaked state"
        );
    }
    o
}

fn run_fresh(cfg: JacobiConfig) -> Outcome {
    let (mut sim, ids, sh) = charm::Shared::build(cfg);
    let run = sh.run(&mut sim, &ids);
    outcome(&sim, run)
}

/// Build under `branch0`, pause just before the shared onset, clone the
/// world, let branch0 finish live, then rewind to the clone once per
/// other branch with its fault plan swapped in. Returns one outcome per
/// branch, in order.
fn run_forked(branches: &[JacobiConfig], onset: SimTime) -> Vec<Outcome> {
    let (mut sim, ids, sh) = charm::Shared::build(branches[0].clone());
    sh.start(&mut sim, &ids);
    sim.run_until(onset - SimDuration::from_ns(1));
    let snap = sim.clone();
    let mut out = Vec::new();
    let run = sh.finish(&mut sim, &ids);
    out.push(outcome(&sim, run));
    for cfg in &branches[1..] {
        sim.clone_from(&snap);
        sim.set_stochastic_faults(cfg.machine.faults.clone())
            .expect("branches share their time-triggered faults");
        let run = sh.finish(&mut sim, &ids);
        out.push(outcome(&sim, run));
    }
    out
}

#[test]
fn forked_drop_rate_branches_match_fresh_runs() {
    // Same machine, same fault seed, same onset; the branches differ
    // only in post-onset drop probability — the canonical late axis.
    let onset = SimTime::ZERO + SimDuration::from_us(40);
    let branches = [
        onset_cfg(TopologyKind::Flat, 0.08, 40, true, 9),
        onset_cfg(TopologyKind::Flat, 0.20, 40, true, 9),
        onset_cfg(TopologyKind::Flat, 0.0, 40, true, 9),
    ];
    let fresh: Vec<Outcome> = branches.iter().map(|c| run_fresh(c.clone())).collect();
    let forked = run_forked(&branches, onset);
    assert_eq!(forked, fresh);
    // The divergence must be real: the lossy branches dropped messages
    // (onset landed mid-run) and differ from the clean branch.
    assert!(fresh[0].net_drops > 0, "onset must land before quiescence");
    assert!(fresh[1].net_drops > fresh[0].net_drops);
    assert_eq!(fresh[2].net_drops, 0);
    assert_ne!(fresh[0].end_ns, fresh[2].end_ns);
}

#[test]
fn one_snapshot_restores_many_times() {
    let onset = SimTime::ZERO + SimDuration::from_us(40);
    let b = onset_cfg(TopologyKind::Flat, 0.15, 40, true, 7);
    // Branch list repeats the same plan: every restore of the one
    // snapshot must reproduce the same bits.
    let branches = [b.clone(), b.clone(), b];
    let forked = run_forked(&branches, onset);
    assert_eq!(forked[1], forked[0]);
    assert_eq!(forked[2], forked[0]);
}

#[test]
fn forked_fault_seed_branches_match_with_retries_off() {
    // With the reliable transport off the fault seed feeds nothing
    // before the onset (fates are onset-gated, no retry jitter draws),
    // so seed becomes a valid late axis. Drops then stall blocks; the
    // stalled counts and drain times must still match fresh runs.
    let onset = SimTime::ZERO + SimDuration::from_us(30);
    let branches = [
        onset_cfg(TopologyKind::Flat, 0.05, 30, false, 1),
        onset_cfg(TopologyKind::Flat, 0.05, 30, false, 2),
        onset_cfg(TopologyKind::Flat, 0.05, 30, false, 3),
    ];
    let fresh: Vec<Outcome> = branches.iter().map(|c| run_fresh(c.clone())).collect();
    let forked = run_forked(&branches, onset);
    assert_eq!(forked, fresh);
    assert!(
        fresh.iter().any(|o| o.stalled > 0),
        "some seed should stall a block at this drop rate"
    );
}

#[test]
fn snapshot_past_quiescence_degrades_gracefully() {
    // An onset beyond the makespan: run_until drains the queue before
    // the pause instant, the snapshot captures the quiesced world, and
    // every branch — whatever its post-onset plan — equals the
    // fault-free run, exactly as fresh execution would.
    let onset = SimTime::ZERO + SimDuration::from_ms(50);
    let branches = [
        onset_cfg(TopologyKind::Flat, 0.3, 50_000, true, 4),
        onset_cfg(TopologyKind::Flat, 0.7, 50_000, true, 4),
    ];
    let fresh: Vec<Outcome> = branches.iter().map(|c| run_fresh(c.clone())).collect();
    let forked = run_forked(&branches, onset);
    assert_eq!(forked, fresh);
    assert_eq!(fresh[0].net_drops, 0);
    assert_eq!(fresh[0], fresh[1]);
}

#[test]
fn forked_fat_tree_branches_match_fresh_runs_across_a_trunk_outage() {
    // Two nodes on separate leaves over two spines. The primary trunk
    // of 0 -> 1 goes down before the snapshot instant and comes back
    // after it, so the snapshot captures live flows, a down link and
    // the failover routing it forces; every restored branch must then
    // replay the recovery exactly as a fresh run does.
    let ft = FatTreeParams {
        leaf_radix: 1,
        spines: 2,
        trunk_bw: 23.0e9,
        hop_latency_ns: 150,
    };
    let graph = FatTreeGraph::new(2, 60.0e9, 23.0e9, ft);
    let mut route = Vec::new();
    graph.try_route(0, 1, &mut route).unwrap();
    let trunk = route[1].0;
    let onset = SimTime::ZERO + SimDuration::from_us(40);
    let branches = [0.08, 0.20, 0.0].map(|drop| {
        let mut cfg = onset_cfg(TopologyKind::FatTree(ft), drop, 40, true, 9);
        cfg.machine.faults.link_faults = vec![
            LinkFault {
                at: SimTime::ZERO + SimDuration::from_us(20),
                link: trunk,
                kind: LinkFaultKind::Down,
            },
            LinkFault {
                at: SimTime::ZERO + SimDuration::from_us(600),
                link: trunk,
                kind: LinkFaultKind::Up,
            },
        ];
        cfg
    });
    let fresh: Vec<Outcome> = branches.iter().map(|c| run_fresh(c.clone())).collect();
    let forked = run_forked(&branches, onset);
    assert_eq!(forked, fresh);
    for o in &fresh {
        assert_eq!(o.link_faults, 2, "both link faults fire before quiescence");
        assert!(o.failovers > 0, "traffic must detour around the down trunk");
    }
    assert!(fresh[0].net_drops > 0, "onset must land before quiescence");
    assert_eq!(fresh[2].net_drops, 0);
    assert_ne!(fresh[0].end_ns, fresh[2].end_ns);
}

/// Forking swaps only the stochastic fault fields; a plan whose
/// time-triggered faults differ from the armed one would fire faults
/// the world never scheduled, so the swap is refused.
#[test]
fn stochastic_swap_refuses_different_link_faults() {
    let mut machine = MachineConfig::summit_fattree(2);
    machine.faults.link_faults = vec![LinkFault {
        at: SimTime::ZERO + SimDuration::from_us(100),
        link: 7,
        kind: LinkFaultKind::Down,
    }];
    let mut sim = Simulation::new(machine.clone());
    machine.faults.link_faults[0].link = 8;
    let err = sim.set_stochastic_faults(machine.faults).unwrap_err();
    assert_eq!(err, ConfigError::ArmedFaultsChanged);
    assert!(
        err.to_string().contains("must match the armed plan"),
        "{err}"
    );
}
