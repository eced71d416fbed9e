//! Property-based validation: arbitrary small grids, machine shapes,
//! ODFs, and feature combinations must all match the sequential reference
//! bit-for-bit. This is the strongest end-to-end correctness property in
//! the repository — it exercises decomposition remainders, boundary
//! blocks, every protocol, and the whole event pipeline at once.

use proptest::prelude::*;

use gaat_jacobi3d::mpi_app::MpiShared;
use gaat_jacobi3d::{charm, CommMode, Dims, Fusion, JacobiConfig, SyncMode};
use gaat_rt::{App, MachineConfig};

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
        let compared = sh.check(&sim, &ids);
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
        let (mut sim, ids, sh) = MpiShared::build(cfg);
        sh.run(&mut sim, &ids).unwrap();
        let compared = sh.check(&sim, &ids);
        prop_assert_eq!(compared, g * g * g);
    }
}
