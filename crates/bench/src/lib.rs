//! # gaat-bench — figure-regeneration harness
//!
//! One function per figure of the paper's evaluation (Figs. 6–9 and the
//! §IV-C 512-node headline), each returning tabular rows that the
//! `figures` binary renders as CSV and ASCII tables and that the
//! workspace integration tests assert shape properties on.
//!
//! All runs are deterministic given their seeds; the paper's
//! three-trial averages map to three RNG seeds.

#![warn(missing_docs)]

pub mod ablation;
pub mod coll;
pub mod figures;
pub mod harness;
pub mod protocols;
pub mod throttle;

pub use figures::{
    fig512, fig6, fig6s, fig7a, fig7b, fig7c, fig8, fig9, weak_dims, HEADLINE_POINTS,
};
pub use harness::{best_per_point, Effort, Row, Topology, Variant};
