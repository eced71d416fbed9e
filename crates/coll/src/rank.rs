//! The rank scaffold every collective proxy app shares: the [`E_START`]
//! entry the app's start broadcasts, the reference read-back, and the
//! config rules every rank run shares. Each app creates one chare per
//! rank, on [`place_rank`](crate::plan::place_rank)'s PE, with
//! [`Machine::create_chares`](gaat_rt::Machine::create_chares). Each
//! rank counts its rounds on a [`gaat_rt::RunClock`], which
//! [`gaat_rt::App::finish`] folds. An app keeps only its buffers, entry
//! methods and reference.

use gaat_rt::{BufRange, BufferId, ChareId, EntryId, MachineConfig, Simulation};

/// Begin execution: the entry [`App::start`](gaat_rt::App::start)
/// broadcasts to every rank.
pub const E_START: EntryId = EntryId(0);

/// A collective proxy app config that cannot be built, one variant per
/// rule. [`validate`] checks the first five, which every rank run
/// shares; each app's `App::validate` checks the rest.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The machine itself is rejected.
    Machine(gaat_rt::ConfigError),
    /// No timed step or round.
    NothingTimed,
    /// `chunk` is 0.
    ZeroChunk,
    /// More ranks than PEs.
    TooManyRanks {
        /// The rank count asked for.
        ranks: usize,
        /// The machine's PE count.
        pes: usize,
    },
    /// PE failures or the load balancer armed: ranks cannot move.
    Migration,
    /// `buckets` is 0 (training).
    ZeroBuckets,
    /// Fewer parameters than buckets, so some bucket would be empty
    /// (training).
    FewerParamsThanBuckets {
        /// `params`.
        params: usize,
        /// `buckets`.
        buckets: usize,
    },
    /// `hidden` is 0 (MoE).
    ZeroHidden,
    /// `hot_frac` is not a probability (MoE).
    HotFracOutOfRange(f64),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Machine(e) => e.fmt(f),
            ConfigError::NothingTimed => f.write_str("need at least one timed step or round"),
            ConfigError::ZeroChunk => f.write_str("need at least one element per chunk"),
            ConfigError::TooManyRanks { ranks, pes } => {
                write!(f, "{ranks} ranks on {pes} PEs: at most one rank per PE")
            }
            ConfigError::Migration => f.write_str(
                "the collective proxy apps cannot move ranks: PE failures and the adaptive LB \
                 need the task runtime's recovery",
            ),
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

/// Check the rules every rank run shares: the machine's
/// ([`MachineConfig::validate`]), then at least one timed round, a
/// nonzero `chunk`, no more `ranks` than PEs (0 means one per PE), and
/// no PE failure or load balancer ([`MachineConfig::migrates`]), since
/// a rank takes no checkpoint to move by.
pub fn validate(
    machine: &MachineConfig,
    rounds: usize,
    chunk: usize,
    ranks: usize,
) -> Result<(), ConfigError> {
    machine.validate().map_err(ConfigError::Machine)?;
    if rounds == 0 {
        return Err(ConfigError::NothingTimed);
    }
    if chunk == 0 {
        return Err(ConfigError::ZeroChunk);
    }
    let pes = machine.total_pes();
    if ranks > pes {
        return Err(ConfigError::TooManyRanks { ranks, pes });
    }
    if machine.migrates() {
        return Err(ConfigError::Migration);
    }
    Ok(())
}

/// The participant count `ranks` denotes: 0 means one rank per PE.
pub fn effective_ranks(machine: &MachineConfig, ranks: usize) -> usize {
    if ranks == 0 {
        machine.total_pes()
    } else {
        ranks
    }
}

/// Read the first `len` elements of `buf` on the device of the PE
/// hosting rank chare `id`. Requires real buffers.
pub fn read(sim: &Simulation, id: ChareId, buf: BufferId, len: usize) -> Vec<f64> {
    let dev = sim.machine.pe_device(sim.machine.pe_of(id));
    sim.machine.devices[dev.0]
        .mem
        .read(BufRange::new(buf, 0, len))
        .expect("validation needs real buffers")
}
