//! Property-based validation: arbitrary small grids, machine shapes,
//! ODFs, and feature combinations must all match the sequential reference
//! bit-for-bit. This is the strongest end-to-end correctness property in
//! the repository — it exercises decomposition remainders, boundary
//! blocks, every protocol, and the whole event pipeline at once.

use proptest::prelude::*;

use std::panic::{catch_unwind, AssertUnwindSafe};

use gaat_jacobi3d::{charm, mpi_app, CommMode, Dims, Fusion, JacobiConfig, SyncMode};
use gaat_net::{FatTreeParams, TopologyKind};
use gaat_rt::{LbPolicy, MachineConfig};
use gaat_sim::{LinkFault, LinkFaultKind, PeFault, SimDuration, SimTime, StragglerWindow};

fn any_fusion() -> impl Strategy<Value = Fusion> {
    prop_oneof![
        Just(Fusion::None),
        Just(Fusion::A),
        Just(Fusion::B),
        Just(Fusion::C),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, // each case runs a full simulation + reference solve
        ..ProptestConfig::default()
    })]

    #[test]
    fn charm_matches_reference_on_arbitrary_configs(
        gx in 4usize..14,
        gy in 4usize..14,
        gz in 4usize..14,
        nodes in 1usize..4,
        pes in 1usize..4,
        odf in 1usize..5,
        iters in 1usize..5,
        gpu_aware in any::<bool>(),
        original_sync in any::<bool>(),
        fusion in any_fusion(),
        graphs in any::<bool>(),
    ) {
        let mut cfg = JacobiConfig::new(
            MachineConfig::validation(nodes, pes),
            Dims::new(gx, gy, gz),
        );
        cfg.odf = odf;
        cfg.iters = iters;
        cfg.warmup = 1;
        cfg.comm = if gpu_aware { CommMode::GpuAware } else { CommMode::HostStaging };
        // Fusion/graphs only compose with GPU-aware + optimized sync.
        if gpu_aware && !original_sync {
            cfg.fusion = fusion;
            cfg.graphs = graphs;
        }
        cfg.sync = if original_sync { SyncMode::Original } else { SyncMode::Optimized };
        prop_assert!(cfg.validate().is_ok());
        let (mut sim, ids, sh) = charm::build(cfg);
        charm::run(&mut sim, &ids, &sh);
        let compared = charm::validate_against_reference(&sim, &ids, &sh);
        prop_assert_eq!(compared, gx * gy * gz);
    }

    #[test]
    fn mpi_matches_reference_on_arbitrary_configs(
        g in 4usize..14,
        nodes in 1usize..4,
        pes in 1usize..4,
        vr in 1usize..4,
        iters in 1usize..5,
        gpu_aware in any::<bool>(),
        overlap in any::<bool>(),
    ) {
        let mut cfg = JacobiConfig::new(
            MachineConfig::validation(nodes, pes),
            Dims::cube(g),
        );
        cfg.iters = iters;
        cfg.warmup = 1;
        cfg.virtual_ranks = vr;
        cfg.overlap = overlap;
        cfg.comm = if gpu_aware { CommMode::GpuAware } else { CommMode::HostStaging };
        prop_assert!(cfg.validate().is_ok());
        let (mut sim, ids, sh) = mpi_app::build(cfg);
        mpi_app::run(&mut sim, &ids, &sh);
        let compared = mpi_app::validate_against_reference(&sim, &ids, &sh);
        prop_assert_eq!(compared, g * g * g);
    }
}

/// `true` one time in `n`.
fn one_in(n: u32) -> impl Strategy<Value = bool> {
    (0..n).prop_map(|x| x == 0)
}

/// A count in 0..=2 that is 0 one time in six.
fn small_count() -> impl Strategy<Value = usize> {
    (0usize..6).prop_map(|x| x.min(2))
}

/// A fault target `t` one time in three (`None` otherwise), with `t`
/// drawn by `target`.
fn maybe<S: Strategy>(target: S) -> impl Strategy<Value = Option<S::Value>> {
    (one_in(3), target).prop_map(|(on, t)| on.then_some(t))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 512, // build only, no run
        ..ProptestConfig::default()
    })]

    /// `validate` is the whole set of build-time config rules: over tiny
    /// grids, every knob a rule reads and every fault target in or out of
    /// range, a config passes it exactly when `charm::build` accepts it.
    /// Each knob takes its rejected value less often than not. Nodes and
    /// PEs per node each run 0..3, so some machines have no PE at all;
    /// about one case in 27 is valid and builds. PE and device
    /// targets run 0..5 on 0–4 PEs; link targets run 0..21 on 0 (Flat), 11 or 14
    /// (FatTree) links; `comm_priority` runs 0..6 against 4 priority
    /// classes.
    #[test]
    fn validate_accepts_exactly_what_charm_builds(
        nodes in 0usize..3,
        pes in 0usize..3,
        fattree in any::<bool>(),
        gpu_aware in any::<bool>(),
        original_sync in one_in(4),
        fusion in prop_oneof![Just(Fusion::None), Just(Fusion::None), any_fusion()],
        graphs in one_in(3),
        odf in small_count(),
        iters in small_count(),
        virtual_ranks in small_count(),
        lb in one_in(3),
        no_checkpoint in one_in(4),
        no_reliability in one_in(4),
        pe_failure in maybe(0usize..5),
        straggler in maybe(0usize..5),
        link_fault in maybe((0u32..8).prop_map(|l| 3 * l)),
        comm_priority in 0usize..6,
    ) {
        let mut machine = MachineConfig::validation(nodes, pes);
        if fattree {
            machine.net.topology = TopologyKind::FatTree(FatTreeParams::default());
        }
        machine.ucx.reliability.enabled = !no_reliability;
        if lb {
            machine.lb.policy = LbPolicy::Adaptive;
            machine.lb.period = SimDuration::from_us(100);
        }
        let at = SimTime::ZERO + SimDuration::from_us(100);
        if let Some(pe) = pe_failure {
            machine.faults.pe_failures.push(PeFault { at, pe });
        }
        if let Some(device) = straggler {
            machine.faults.stragglers.push(StragglerWindow {
                device,
                from: SimTime::ZERO,
                until: at,
                slowdown: 2.0,
            });
        }
        if let Some(link) = link_fault {
            machine.faults.link_faults.push(LinkFault {
                at,
                link,
                kind: LinkFaultKind::Down,
            });
        }
        let mut cfg = JacobiConfig::new(machine, Dims::cube(8));
        cfg.comm = if gpu_aware { CommMode::GpuAware } else { CommMode::HostStaging };
        cfg.sync = if original_sync { SyncMode::Original } else { SyncMode::Optimized };
        cfg.fusion = fusion;
        cfg.graphs = graphs;
        cfg.odf = odf;
        cfg.iters = iters;
        cfg.warmup = 1;
        cfg.virtual_ranks = virtual_ranks;
        cfg.checkpoint_every = usize::from(!no_checkpoint);
        cfg.comm_priority = comm_priority;
        let checked = cfg.validate();
        let built = catch_unwind(AssertUnwindSafe(|| charm::build(cfg.clone()))).is_ok();
        prop_assert_eq!(checked.is_ok(), built, "{:?} for {:?}", checked, cfg);
    }
}
