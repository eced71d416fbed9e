//! # gaat-coll — GPU-aware collectives over the fabric
//!
//! NCCL-style collectives expressed as chunked, pipelined asynchronous
//! tasks on the chare runtime: ring and binomial-tree **allreduce**,
//! ring **reduce-scatter** and **allgather**, tree **broadcast**, and
//! pairwise **alltoall** (uniform and per-pair-counted for MoE
//! routing). Every transfer goes through the Channel API → gaat-ucx →
//! fabric path, so protocol selection (GPUDirect vs pipelined staging),
//! D-mod-k routing, spine contention, and link statistics all apply;
//! every reduction is a priced GPU kernel with a functional elementwise
//! `+=` effect, validated bit-identical against order-aware scalar
//! references.
//!
//! Layers:
//! - [`plan`](mod@plan) — pure schedules: per-rank, per-lane step
//!   lists. Lanes are independent element ranges; their concurrent
//!   progress is the pipelining.
//! - [`reference`](mod@reference) — sequential scalar references
//!   replicating each schedule's combine order (floating-point
//!   addition is not associative, so bit-identity requires order-aware
//!   references).
//! - [`member`] — the participant state machine a chare embeds.
//! - [`app`] — a standalone proxy app running back-to-back collectives,
//!   used by `coll_speed`, `profile_run --collective`, and the tests.

#![warn(missing_docs)]

pub mod app;
pub mod member;
pub mod plan;
pub mod reference;

pub use app::{
    build, payload_bytes, run, run_coll, validate_against_reference, CollAppConfig, CollChare,
    CollResult, CollShared,
};
pub use member::{CollEntries, CollMember, MemberEvent, MemberStats};
pub use plan::{alltoallv_plan, plan, Algorithm, CollOp, CollPlan, RankPlacement};
