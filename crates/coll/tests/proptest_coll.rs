//! Property-based validation of the collective schedules: arbitrary
//! payload sizes, rank counts (including non-powers-of-two), chunk
//! sizes, and placements must match the order-aware scalar references
//! bit for bit — and keep matching when the fabric drops messages and
//! the reliable transport retries them.

use proptest::prelude::*;

use gaat_coll::{Algorithm, CollAppConfig, CollOp, CollShared, RankPlacement};
use gaat_rt::{App, MachineConfig};
use gaat_sim::{FaultPlan, SimDuration};

fn any_op() -> impl Strategy<Value = CollOp> {
    prop_oneof![
        Just(CollOp::AllReduce),
        Just(CollOp::ReduceScatter),
        Just(CollOp::AllGather),
        Just(CollOp::Broadcast),
        Just(CollOp::AllToAll),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32, // each case runs a full simulation + reference solve
        ..ProptestConfig::default()
    })]

    #[test]
    fn allreduce_matches_reference_on_arbitrary_configs(
        nodes in 1usize..5,
        pes in 1usize..4,
        count in 1usize..300,
        chunk in 1usize..64,
        rounds in 1usize..3,
        tree in any::<bool>(),
        round_robin in any::<bool>(),
    ) {
        let mut cfg = CollAppConfig::new(
            MachineConfig::validation(nodes, pes),
            CollOp::AllReduce,
            if tree { Algorithm::Tree } else { Algorithm::Ring },
            count,
        );
        cfg.chunk = chunk;
        cfg.rounds = rounds;
        cfg.warmup = rounds - 1;
        cfg.placement = if round_robin {
            RankPlacement::RoundRobin
        } else {
            RankPlacement::Packed
        };
        let (mut sim, ids, sh) = CollShared::build(cfg);
        sh.run(&mut sim, &ids).unwrap();
        let compared = sh.check(&sim, &ids);
        prop_assert_eq!(compared, count * nodes * pes);
    }

    #[test]
    fn every_collective_matches_reference(
        nodes in 1usize..4,
        pes in 1usize..4,
        count in 1usize..120,
        chunk in 1usize..40,
        op in any_op(),
        tree in any::<bool>(),
    ) {
        let mut cfg = CollAppConfig::new(
            MachineConfig::validation(nodes, pes),
            op,
            if tree { Algorithm::Tree } else { Algorithm::Ring },
            count,
        );
        cfg.chunk = chunk;
        let (mut sim, ids, sh) = CollShared::build(cfg);
        sh.run(&mut sim, &ids).unwrap();
        let compared = sh.check(&sim, &ids);
        prop_assert!(compared > 0);
    }
}

/// Message loss with the reliable transport on must not change a single
/// output bit: the retries reorder wire traffic, but lane sequencing
/// keeps the combine order — and therefore the floating-point result —
/// identical to the clean run.
#[test]
fn allreduce_is_bit_identical_under_message_loss() {
    let mk = |drop: f64| {
        let mut machine = MachineConfig::validation(2, 2);
        if drop > 0.0 {
            machine.faults = FaultPlan {
                seed: 7,
                drop_prob: drop,
                ..FaultPlan::none()
            };
            machine.ucx.reliability.enabled = true;
        }
        let mut cfg = CollAppConfig::new(machine, CollOp::AllReduce, Algorithm::Ring, 300);
        cfg.chunk = 16;
        cfg.rounds = 2;
        cfg.warmup = 1;
        cfg
    };

    let (mut lossy_sim, ids, sh) = CollShared::build(mk(0.05));
    let lossy = sh.run(&mut lossy_sim, &ids).unwrap();
    let retransmits = lossy_sim.machine.ucx.stats().retransmits;
    assert!(retransmits > 0, "drop plan should force retries");
    // The strongest statement: the lossy run still matches the scalar
    // reference exactly (which the clean run matches too).
    sh.check(&lossy_sim, &ids);

    let clean = CollShared::build_and_run(mk(0.0)).unwrap();
    assert!(
        lossy.total > clean.total,
        "retries should cost simulated time"
    );
}

/// With the reliable transport off, a dropped chunk is never resent, so
/// some rank never finishes its round: the run is a stalled outcome,
/// with no time per round, instead of a panic.
#[test]
fn allreduce_without_retries_stalls_into_an_outcome() {
    let mut machine = MachineConfig::validation(2, 2);
    machine.faults = FaultPlan {
        seed: 42,
        drop_prob: 0.05,
        ..FaultPlan::none()
    };
    let cfg = CollAppConfig::new(machine, CollOp::AllReduce, Algorithm::Ring, 4096);
    let stalled = CollShared::build_and_run(cfg).expect_err("a rank stalls");
    assert!(stalled.stalled > 0, "{stalled:?}");
    assert_eq!(stalled.unit, SimDuration::ZERO);
    assert!(stalled.total > SimDuration::ZERO, "{stalled:?}");
}
