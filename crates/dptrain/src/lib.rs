//! # gaat-dptrain — ML-traffic proxy applications
//!
//! Two workloads that put collective traffic (gaat-coll) under the same
//! runtime, GPU model, and fabric as the paper's halo-exchange apps:
//!
//! - [`train`] — synchronous data-parallel training steps: a forward
//!   kernel, backward kernels producing gradient *buckets* in reverse
//!   order, each bucket's allreduce launched as soon as its gradient is
//!   ready (DDP-style compute/communication overlap, with bucket-size
//!   and overlap knobs), then an SGD update. Validated bit-identical
//!   against a sequential scalar reference.
//! - [`moe`] — an MoE-style dispatch/combine pair of variable alltoalls
//!   with deterministically skewed expert routing, stressing placement
//!   sensitivity under spine contention.
//!
//! Both are [`gaat_rt::App`]s, on [`TrainShared`] and [`MoeShared`],
//! and both stand on gaat-coll's rank scaffold ([`gaat_coll::rank`]),
//! whose `validate` holds the config rules every rank run shares. Each
//! creates one chare per rank on [`gaat_coll::plan::place_rank`]'s PE
//! with [`gaat_rt::Machine::create_chares`] and wires its members with
//! [`gaat_coll::member::wire_members`]. Their configs fail with
//! gaat-coll's [`ConfigError`].

#![warn(missing_docs)]

pub mod moe;
pub mod train;

pub use gaat_coll::ConfigError;
pub use moe::{MoeConfig, MoeResult, MoeShared};
pub use train::{TrainConfig, TrainMode, TrainResult, TrainShared};
