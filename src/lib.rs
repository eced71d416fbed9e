//! # gaat — GPU-Aware Asynchronous Tasks
//!
//! A full reproduction of *"Improving Scalability with GPU-Aware
//! Asynchronous Tasks"* (Choi, Richards, Kale — IPDPS Workshops 2022) as
//! a Rust library: an overdecomposition-driven asynchronous task runtime
//! with GPU-aware communication, running on a deterministic
//! discrete-event model of a Summit-like GPU cluster, evaluated with the
//! Jacobi3D proxy application.
//!
//! This crate is the facade: it re-exports the whole stack.
//!
//! | Layer | Crate | What it is |
//! |---|---|---|
//! | [`sim`] | `gaat-sim` | Discrete-event engine, virtual time, RNG, fault plans, span tracing, generational slab |
//! | [`gpu`] | `gaat-gpu` | GPU device model: streams, events, DMA engines, graphs |
//! | [`net`] | `gaat-net` | Interconnect: flat per-NIC serialization + α-β latency, or flows over a fat tree |
//! | (inside [`net`]) | `gaat-topo` | Flow solver: link graph, fat-tree routing, max-min fair bandwidth sharing |
//! | [`ucx`] | `gaat-ucx` | Protocols: eager, rendezvous, GPUDirect, pipelined staging |
//! | [`rt`]  | `gaat-rt`  | **The paper's contribution**: chares, schedulers, HAPI, Channel API |
//! | [`mpi`] | `gaat-mpi` | MPI-like baseline runtime |
//! | [`jacobi3d`] | `gaat-jacobi3d` | The proxy application, all four versions |
//! | [`sweep3d`] | `gaat-sweep3d` | Wavefront-sweep proxy app (pipelined dependencies) |
//! | [`coll`] | `gaat-coll` | GPU-aware collectives: ring/tree allreduce, reduce-scatter, allgather, broadcast, alltoall |
//! | [`dptrain`] | `gaat-dptrain` | ML-traffic proxies: data-parallel training, skew-routed MoE alltoall |
//! | [`sweep`] | `gaat-sweep` | Batched scenario-sweep engine: grids, worker pool, prefix forks, streamed JSONL |
//!
//! ## Quickstart
//!
//! ```
//! use gaat::jacobi3d::{charm, CommMode, Dims, JacobiConfig};
//! use gaat::rt::{App, MachineConfig};
//!
//! // Charm-D: overdecomposed tasks + GPU-aware communication,
//! // on 2 simulated Summit nodes (12 GPUs).
//! let mut cfg = JacobiConfig::new(MachineConfig::summit(2), Dims::cube(192));
//! cfg.comm = CommMode::GpuAware;
//! cfg.odf = 4;
//! cfg.iters = 10;
//! cfg.warmup = 2;
//! let result = charm::Shared::build_and_run(cfg).expect("no block stalls");
//! assert!(result.time_per_iter.as_ns() > 0);
//! ```

#![warn(missing_docs)]

pub use gaat_coll as coll;
pub use gaat_dptrain as dptrain;
pub use gaat_gpu as gpu;
pub use gaat_jacobi3d as jacobi3d;
pub use gaat_mpi as mpi;
pub use gaat_net as net;
pub use gaat_rt as rt;
pub use gaat_sim as sim;
pub use gaat_sweep as sweep;
pub use gaat_sweep3d as sweep3d;
pub use gaat_ucx as ucx;
