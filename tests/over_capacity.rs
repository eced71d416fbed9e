//! A GPU allocated past its memory fails the build loudly, as a real
//! `cudaMalloc` would, in every app that provisions chares through
//! `Machine::create_chares`. A device's footprint depends on how the app
//! places its chares, so this is the one build panic `validate` cannot
//! foresee. Each world is one Summit node (six 16 GB GPUs) with phantom
//! buffers, so nothing is actually allocated on the host.

use gaat::coll::{Algorithm, CollAppConfig, CollOp, CollShared};
use gaat::jacobi3d::mpi_app::MpiShared;
use gaat::jacobi3d::{Dims, JacobiConfig};
use gaat::rt::{App, MachineConfig};
use gaat::sweep3d::{SweepConfig, SweepShared};

#[test]
#[should_panic(expected = "over capacity")]
fn mpi_jacobi3d_past_gpu_memory_panics() {
    // 2560^3 over 6 ranks: two copies of ~2.7e9 cells, ~45 GB per GPU.
    let cfg = JacobiConfig::new(MachineConfig::summit(1), Dims::cube(2560));
    MpiShared::validate(&cfg).expect("only the footprint is too big");
    let _ = MpiShared::build(cfg);
}

#[test]
#[should_panic(expected = "over capacity")]
fn sweep3d_past_gpu_memory_panics() {
    // 3200^3 over 6 blocks: ~5.5e9 cells, ~44 GB per GPU.
    let cfg = SweepConfig::new(MachineConfig::summit(1), Dims::cube(3200));
    SweepShared::validate(&cfg).expect("only the footprint is too big");
    let _ = SweepShared::build(cfg);
}

#[test]
#[should_panic(expected = "over capacity")]
fn coll_app_past_gpu_memory_panics() {
    // 4Gi elements per rank: 32 GiB of input on every GPU.
    let count = 1 << 32;
    let mut cfg = CollAppConfig::new(
        MachineConfig::summit(1),
        CollOp::AllReduce,
        Algorithm::Ring,
        count,
    );
    cfg.chunk = count;
    CollShared::validate(&cfg).expect("only the footprint is too big");
    let _ = CollShared::build(cfg);
}
