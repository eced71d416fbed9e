//! AMPI-style virtualization of the MPI version — the paper's stated
//! future work ("MPI processes are virtualized as chare objects, allowing
//! an arbitrary number of 'processes' to be run on a set number of PEs").

use gaat::jacobi3d::mpi_app::MpiShared;
use gaat::jacobi3d::{CommMode, Dims, JacobiConfig};
use gaat::rt::{App, MachineConfig};

#[test]
fn virtualized_ranks_match_reference() {
    let mut cfg = JacobiConfig::new(MachineConfig::validation(2, 2), Dims::cube(12));
    cfg.comm = CommMode::GpuAware;
    cfg.virtual_ranks = 3; // 12 ranks on 4 PEs
    cfg.iters = 4;
    cfg.warmup = 1;
    let (mut sim, ids, sh) = MpiShared::build(cfg);
    assert_eq!(ids.len(), 12);
    sh.run(&mut sim, &ids).unwrap();
    let compared = sh.check(&sim, &ids);
    assert_eq!(compared, 12 * 12 * 12);
}

#[test]
fn virtualization_checksum_matches_plain_mpi() {
    let mk = |vr| {
        let mut cfg = JacobiConfig::new(MachineConfig::validation(2, 2), Dims::cube(12));
        cfg.comm = CommMode::HostStaging;
        cfg.virtual_ranks = vr;
        cfg.iters = 4;
        cfg.warmup = 1;
        MpiShared::build_and_run(cfg).unwrap()
    };
    let plain = mk(1);
    let ampi = mk(4);
    assert_eq!(
        plain.checksum.expect("real").to_bits(),
        ampi.checksum.expect("real").to_bits()
    );
}

#[test]
fn virtualization_buys_overlap_where_plain_mpi_stalls() {
    // Coarse blocks with heavy host staging: plain MPI spends a large
    // fraction of each iteration blocked on transfers; a co-located
    // virtual rank fills those stalls with its own compute, like the
    // task runtime's ODF does.
    let mk = |vr| {
        let mut cfg = JacobiConfig::new(MachineConfig::summit(4), Dims::cube(768));
        cfg.comm = CommMode::HostStaging;
        cfg.virtual_ranks = vr;
        cfg.iters = 10;
        cfg.warmup = 2;
        MpiShared::build_and_run(cfg).unwrap()
    };
    let plain = mk(1);
    let ampi = mk(4);
    assert!(
        ampi.time_per_iter < plain.time_per_iter,
        "AMPI {} should beat plain MPI {}",
        ampi.time_per_iter,
        plain.time_per_iter
    );
}

#[test]
fn deep_virtualization_eventually_pays_overheads() {
    // Like high ODF in Fig. 7b: at small granularity, more virtual ranks
    // mean more per-rank overheads than overlap gains.
    let mk = |vr| {
        let mut cfg = JacobiConfig::new(MachineConfig::summit(1), Dims::cube(96));
        cfg.comm = CommMode::GpuAware;
        cfg.virtual_ranks = vr;
        cfg.iters = 10;
        cfg.warmup = 2;
        MpiShared::build_and_run(cfg).unwrap()
    };
    let light = mk(1);
    let deep = mk(8);
    assert!(
        deep.time_per_iter > light.time_per_iter,
        "8-way virtualization of tiny blocks should cost: {} vs {}",
        deep.time_per_iter,
        light.time_per_iter
    );
}
