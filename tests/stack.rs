//! Cross-crate integration: the full stack (engine → GPU → fabric → UCX →
//! runtime → application) wired together in ways the per-crate tests
//! don't cover.

use gaat::jacobi3d::mpi_app::MpiShared;
use gaat::jacobi3d::{charm, CommMode, Dims, Fusion, JacobiConfig, SyncMode};
use gaat::rt::{App, MachineConfig};

fn real_cfg(global: usize) -> JacobiConfig {
    let mut c = JacobiConfig::new(MachineConfig::validation(2, 2), Dims::cube(global));
    c.iters = 4;
    c.warmup = 1;
    c
}

#[test]
fn charm_and_mpi_agree_bit_for_bit() {
    let mut c1 = real_cfg(12);
    c1.comm = CommMode::GpuAware;
    c1.odf = 2;
    let a = charm::Shared::build_and_run(c1).unwrap();
    let mut c2 = real_cfg(12);
    c2.comm = CommMode::HostStaging;
    let b = MpiShared::build_and_run(c2).unwrap();
    assert_eq!(
        a.checksum.expect("real").to_bits(),
        b.checksum.expect("real").to_bits(),
        "different runtimes and transports, same numerics"
    );
}

#[test]
fn every_optimization_layer_stacks_functionally() {
    // Fusion C + graphs + ODF + GPU-aware, all at once, against the
    // plainest possible configuration.
    let mut plain = real_cfg(16);
    plain.comm = CommMode::HostStaging;
    plain.sync = SyncMode::Original;
    let a = charm::Shared::build_and_run(plain).unwrap();

    let mut fancy = real_cfg(16);
    fancy.comm = CommMode::GpuAware;
    fancy.fusion = Fusion::C;
    fancy.graphs = true;
    fancy.odf = 4;
    let b = charm::Shared::build_and_run(fancy).unwrap();

    assert_eq!(
        a.checksum.expect("real").to_bits(),
        b.checksum.expect("real").to_bits()
    );
    // Graph launches actually happened in the fancy config.
    assert!(b.graph_launches > 0);
    assert_eq!(a.graph_launches, 0);
}

#[test]
fn device_stats_reflect_fusion() {
    // Fusion C collapses ~13 kernels per block-iteration into 1.
    let run = |fusion| {
        let mut c = real_cfg(16);
        c.comm = CommMode::GpuAware;
        c.fusion = fusion;
        c.odf = 2;
        charm::Shared::build_and_run(c).unwrap()
    };
    let base = run(Fusion::None);
    let fused = run(Fusion::C);
    assert!(
        fused.kernels * 3 < base.kernels,
        "fusion C should slash kernel count: {} vs {}",
        fused.kernels,
        base.kernels
    );
    assert_eq!(
        base.checksum.expect("real").to_bits(),
        fused.checksum.expect("real").to_bits()
    );
}

#[test]
fn graphs_replace_stream_launches() {
    let run = |graphs| {
        let mut c = real_cfg(16);
        c.comm = CommMode::GpuAware;
        c.graphs = graphs;
        c.odf = 2;
        charm::Shared::build_and_run(c).unwrap()
    };
    let stream = run(false);
    let graphed = run(true);
    // With graphs the per-iteration unpack/update/pack kernels move into
    // graph nodes; only the initial packs remain as stream launches.
    assert!(graphed.kernels < stream.kernels / 2);
    assert!(graphed.graph_launches > 0);
}

#[test]
fn odd_grid_and_pe_combinations_work() {
    // Non-power-of-two grids with remainders, PEs that don't divide the
    // grid, high ODF.
    for (nodes, pes, global, odf) in [(1, 3, 13, 3), (3, 2, 17, 2), (2, 3, 11, 1)] {
        let mut c = JacobiConfig::new(MachineConfig::validation(nodes, pes), Dims::cube(global));
        c.comm = CommMode::GpuAware;
        c.odf = odf;
        c.iters = 3;
        c.warmup = 1;
        let (mut sim, ids, sh) = charm::build(c);
        charm::run(&mut sim, &ids, &sh);
        let compared = sh.check(&sim, &ids);
        assert_eq!(compared, global * global * global);
    }
}

#[test]
fn anisotropic_grids_work() {
    let mut c = JacobiConfig::new(MachineConfig::validation(2, 2), Dims::new(24, 6, 10));
    c.comm = CommMode::HostStaging;
    c.odf = 2;
    c.iters = 3;
    c.warmup = 0;
    let (mut sim, ids, sh) = charm::build(c);
    charm::run(&mut sim, &ids, &sh);
    sh.check(&sim, &ids);
}

#[test]
fn zero_warmup_runs() {
    let mut c = real_cfg(8);
    c.warmup = 0;
    c.comm = CommMode::GpuAware;
    let r = charm::Shared::build_and_run(c).unwrap();
    assert!(r.time_per_iter.as_ns() > 0);
}

#[test]
fn protocol_statistics_match_transport() {
    // Host-staging never exercises the GPU-aware protocols; GPU-aware at
    // small halo sizes only uses GPUDirect.
    let mut c = real_cfg(12);
    c.comm = CommMode::HostStaging;
    let (mut sim, ids, sh) = charm::build(c);
    charm::run(&mut sim, &ids, &sh);
    let s = sim.machine.ucx.stats();
    assert_eq!(s.gpudirect, 0);
    assert_eq!(s.pipelined, 0);
    assert!(s.active_messages > 0, "halos travel as runtime messages");

    let mut c = real_cfg(12);
    c.comm = CommMode::GpuAware;
    let (mut sim, ids, sh) = charm::build(c);
    charm::run(&mut sim, &ids, &sh);
    let s = sim.machine.ucx.stats();
    assert!(s.gpudirect > 0);
    assert_eq!(s.pipelined, 0, "12^3 halos stay under the threshold");
}

#[test]
fn cpu_utilization_increases_with_odf() {
    let run = |odf| {
        let mut c = JacobiConfig::new(MachineConfig::summit(2), Dims::cube(384));
        c.comm = CommMode::GpuAware;
        c.odf = odf;
        c.iters = 6;
        c.warmup = 1;
        charm::Shared::build_and_run(c).unwrap()
    };
    let low = run(1);
    let high = run(8);
    assert!(
        high.cpu_utilization > low.cpu_utilization,
        "ODF-8 {} should use more CPU than ODF-1 {}",
        high.cpu_utilization,
        low.cpu_utilization
    );
}

#[test]
fn mpi_manual_overlap_helps_and_stays_correct() {
    // The Fig. 1b manual-overlap pattern must not change numerics and
    // should not be slower where communication is substantial.
    let mk = |overlap| {
        let mut c = JacobiConfig::new(MachineConfig::summit(4), Dims::cube(384));
        c.comm = CommMode::GpuAware;
        c.overlap = overlap;
        c.iters = 8;
        c.warmup = 2;
        c
    };
    let plain = MpiShared::build_and_run(mk(false)).unwrap();
    let overlapped = MpiShared::build_and_run(mk(true)).unwrap();
    assert!(
        overlapped.time_per_iter.as_ns() <= plain.time_per_iter.as_ns() * 102 / 100,
        "overlap {} should not lose to plain {}",
        overlapped.time_per_iter,
        plain.time_per_iter
    );
}

#[test]
fn updating_graph_params_every_iteration_voids_the_benefit() {
    // Paper §III-D2: "This avoids the overhead of updating all graph
    // nodes for each iteration, which would void the benefits from using
    // CUDA Graphs." Measure all three at a launch-bound configuration.
    use gaat::jacobi3d::app::GraphStrategy;
    let mk = |graphs: bool, strategy: GraphStrategy| {
        let mut c = JacobiConfig::new(MachineConfig::summit(16), Dims::cube(768));
        c.comm = CommMode::GpuAware;
        c.odf = 8;
        c.graphs = graphs;
        c.graph_strategy = strategy;
        c.iters = 12;
        c.warmup = 3;
        charm::Shared::build_and_run(c)
            .unwrap()
            .time_per_iter
            .as_micros_f64()
    };
    let no_graphs = mk(false, GraphStrategy::TwoGraphs);
    let two_graphs = mk(true, GraphStrategy::TwoGraphs);
    let updating = mk(true, GraphStrategy::UpdateParams);
    // The paper's solution wins clearly over plain streams...
    assert!(
        two_graphs < no_graphs * 0.85,
        "two-graphs {two_graphs} should beat no-graphs {no_graphs}"
    );
    // ...and per-iteration node updates give some of that win back (in
    // our model the erosion is partial — ~13 cheap node updates per
    // launch — where the paper's blanket statement says "void"; the
    // direction and mechanism match).
    assert!(
        updating > two_graphs * 1.03,
        "updating {updating} should be measurably behind two-graphs {two_graphs}"
    );
    assert!(
        updating < no_graphs,
        "updating {updating} should still beat no graphs {no_graphs}"
    );
}
