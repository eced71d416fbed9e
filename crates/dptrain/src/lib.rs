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

#![warn(missing_docs)]

pub mod moe;
pub mod train;

/// A training or MoE configuration that cannot be built, one variant per
/// rule; see [`TrainConfig::validate`] and [`MoeConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The machine itself is rejected.
    Machine(gaat_rt::ConfigError),
    /// `steps` (training) or `rounds` (MoE) is 0.
    NothingTimed,
    /// `buckets` is 0.
    ZeroBuckets,
    /// Fewer parameters than buckets, so some bucket would be empty.
    FewerParamsThanBuckets {
        /// `params`.
        params: usize,
        /// `buckets`.
        buckets: usize,
    },
    /// `hidden` is 0.
    ZeroHidden,
    /// `hot_frac` is not a probability.
    HotFracOutOfRange(f64),
}

impl From<gaat_rt::ConfigError> for ConfigError {
    fn from(e: gaat_rt::ConfigError) -> Self {
        ConfigError::Machine(e)
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Machine(e) => e.fmt(f),
            ConfigError::NothingTimed => f.write_str("need at least one timed step or round"),
            ConfigError::ZeroBuckets => f.write_str("need at least one gradient bucket"),
            ConfigError::FewerParamsThanBuckets { params, buckets } => {
                write!(f, "{params} parameters cannot fill {buckets} buckets")
            }
            ConfigError::ZeroHidden => f.write_str("need at least one element per token"),
            ConfigError::HotFracOutOfRange(p) => write!(f, "hot_frac is {p}, not in [0, 1]"),
        }
    }
}

// `Display` already prints a wrapped machine error's text, so there is
// no `source` to chain.
impl std::error::Error for ConfigError {}

pub use moe::{build_moe, run_moe, run_moe_app, validate_moe, MoeConfig, MoeResult, MoeShared};
pub use train::{
    build_train, run_train, validate_train, TrainConfig, TrainMode, TrainResult, TrainShared,
};
