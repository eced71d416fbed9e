//! # gaat-sweep — batched scenario-sweep engine
//!
//! Simulation-as-a-service for the rest of the workspace: a declarative
//! [`ScenarioGrid`] (seed × ODF × topology × placement × fault plan ×
//! workload, with explicit axes and an optional filter) expands into an
//! indexed list of [`Scenario`] requests, and [`run_sweep`] drains the
//! list across a pool of worker threads. Each scenario runs in a fresh
//! world built with [`gaat_rt::Simulation::new`] and its app's `build`.
//!
//! Results stream incrementally: one JSONL record per completed
//! scenario (fingerprint, makespan, network/transport/collective
//! counters, wall time), flushed per line so a killed sweep keeps
//! everything finished so far, plus an end-of-sweep CSV aggregate.
//! A killed sweep can also be *resumed*: with
//! [`SweepOptions::resume`] the engine re-reads the partial JSONL,
//! keeps every intact record, and runs only what is missing.
//! Per-scenario outcomes are independent of worker count and dequeue
//! order; only wall-clock metadata varies. A scenario whose
//! configuration fails validation is recorded as rejected, with the
//! rule's text, and the rest of the grid still runs.
//!
//! Fault sweeps additionally share work through **prefix memoization**
//! ([`SweepOptions::fork`], the [`fork`] module): scenarios that agree
//! on everything except their post-onset stochastic fault behaviour are
//! grouped, the shared prefix executes once, the world is cloned just
//! before the earliest fault onset, and each group member finishes from
//! that clone (a `clone_from` of the [`gaat_rt::Simulation`]) — pinned
//! bit-identical to running every scenario from `t = 0`.

#![warn(missing_docs)]

pub mod engine;
pub mod fork;
pub mod grid;
pub mod record;

pub use engine::{run_batch, run_standalone, run_sweep, SweepOptions, SweepReport};
pub use fork::ForkStats;
pub use grid::{Scenario, ScenarioGrid, Workload};
pub use record::{AggregateRow, ScenarioRecord};
