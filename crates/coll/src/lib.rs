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
//! - [`member`] — the participant state machine a chare embeds, and
//!   `wire_members`, which installs a plan's channels.
//! - [`rank`] — the rank scaffold every proxy app shares: the start
//!   entry, the reference read-back and the rules every rank run
//!   validates. Each app creates its rank chares on
//!   [`plan::place_rank`]'s PEs with
//!   [`gaat_rt::Machine::create_chares`].
//! - [`app`] — a standalone proxy app running back-to-back collectives
//!   ([`CollShared`], a [`gaat_rt::App`]), used by `figures --fig coll`,
//!   `profile_run --collective`, and the reference-equality tests.

#![warn(missing_docs)]

pub mod app;
pub mod member;
pub mod plan;
pub mod rank;
pub mod reference;

pub use app::{payload_bytes, CollAppConfig, CollChare, CollResult, CollShared};
pub use member::{CollEntries, CollMember, MemberEvent, MemberStats};
pub use plan::{alltoallv_plan, plan, Algorithm, CollOp, CollPlan, RankPlacement};
pub use rank::ConfigError;
