//! # gaat-jacobi3d — the Jacobi3D proxy application
//!
//! The scientific proxy application the paper evaluates with: a 7-point
//! Jacobi relaxation on a 3D grid, decomposed into blocks that exchange
//! halos every iteration. Four versions, as in the paper's Fig. 7:
//!
//! - **MPI-H** — MPI-style ranks, application-level host staging.
//! - **MPI-D** — MPI-style ranks, CUDA-aware (device buffers to the
//!   communication layer).
//! - **Charm-H** — overdecomposed task-runtime version, host staging.
//! - **Charm-D** — overdecomposed task-runtime version with GPU-aware
//!   Channel API communication.
//!
//! Plus the paper's §III knobs: original vs optimized host-device
//! synchronization (Fig. 6), kernel fusion strategies A/B/C (Fig. 8),
//! and graph execution (Fig. 9).
//!
//! In validation mode (small grids, real buffers) every variant's final
//! field is compared bit-for-bit against a sequential reference solver.

#![warn(missing_docs)]

pub mod app;
mod block;
pub mod charm;
pub mod geom;
pub mod kernels;
pub mod mpi_app;
pub mod reference;

pub use app::{CommMode, ConfigError, Fusion, JacobiConfig, Placement, RunResult, SyncMode};
pub use geom::{best_grid, chare_to_pe, place_chare, Decomp, Dims, Face, FACES};
pub use reference::Reference;

/// Run a Charm-style experiment end to end.
pub fn run_charm(cfg: JacobiConfig) -> RunResult {
    run_charm_in(gaat_rt::Simulation::new(cfg.machine.clone()), cfg).1
}

/// Run an MPI-style experiment end to end.
pub fn run_mpi(cfg: JacobiConfig) -> RunResult {
    run_mpi_in(gaat_rt::Simulation::new(cfg.machine.clone()), cfg).1
}

/// [`run_charm`] in a caller-provided engine (e.g. a recycled
/// [`gaat_rt::WorldSlot`] world); returns the finished simulation so the
/// caller can retire it back into the slot.
pub fn run_charm_in(
    sim0: gaat_rt::Simulation,
    cfg: JacobiConfig,
) -> (gaat_rt::Simulation, RunResult) {
    let (mut sim, ids, sh) = charm::build_in(sim0, cfg);
    let r = charm::run(&mut sim, &ids, &sh);
    (sim, r)
}

/// [`run_mpi`] in a caller-provided engine; returns the finished
/// simulation so the caller can retire it back into the slot.
pub fn run_mpi_in(
    sim0: gaat_rt::Simulation,
    cfg: JacobiConfig,
) -> (gaat_rt::Simulation, RunResult) {
    let (mut sim, ids, sh) = mpi_app::build_in(sim0, cfg);
    let r = mpi_app::run(&mut sim, &ids, &sh);
    (sim, r)
}
