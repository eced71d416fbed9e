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
//! Both runtimes' versions are [`gaat_rt::App`]s: [`charm::Shared`]
//! and [`mpi_app::MpiShared`] validate, build, start, finish and check
//! a [`JacobiConfig`]. In validation mode (small grids, real buffers)
//! `check` compares every variant's final field bit-for-bit against a
//! sequential reference solver.

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
