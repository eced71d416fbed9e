//! The rank scaffold every collective proxy app shares: one chare per
//! rank, placed with [`place_rank`] and built by the app; a
//! [`RoundClock`] per chare; the [`E_START`] entry the app's start
//! broadcasts; and the drain that folds the clocks into per-round time
//! and total. An app keeps only its buffers, entry methods and
//! reference.

use gaat_gpu::Device;
use gaat_rt::{
    BufRange, BufferId, Chare, ChareId, Ctx, EntryId, MachineConfig, RunOutcome, Simulation,
};
use gaat_sim::{SimDuration, SimTime};

use crate::plan::{place_rank, RankPlacement};

/// Begin execution: the entry [`App::start`](gaat_rt::App::start)
/// broadcasts to every rank.
pub const E_START: EntryId = EntryId(0);

/// A collective proxy app config that cannot be built, one variant per
/// rule. [`validate`] checks the first four, which every rank run
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
/// nonzero `chunk`, and no more `ranks` than PEs (0 means one per PE).
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

/// One rank's round count and the times its warm-up and its last round
/// finished.
#[derive(Debug, Clone)]
pub struct RoundClock {
    round: usize,
    warmup: usize,
    timed: usize,
    /// Completion time of the warm-up rounds.
    warm_at: Option<SimTime>,
    /// Completion time of the final round.
    done_at: Option<SimTime>,
}

impl RoundClock {
    /// A clock for `timed` rounds after `warmup` untimed ones.
    pub fn new(timed: usize, warmup: usize) -> Self {
        RoundClock {
            round: 0,
            warmup,
            timed,
            warm_at: (warmup == 0).then_some(SimTime::ZERO),
            done_at: None,
        }
    }

    /// Rounds finished so far (the index of the round under way).
    pub fn round(&self) -> usize {
        self.round
    }

    /// Whether a round is left to run.
    pub fn running(&self) -> bool {
        self.round < self.warmup + self.timed
    }

    /// Count one finished round at the current entry's start time.
    /// Returns whether another round is left to run.
    pub fn tick(&mut self, ctx: &Ctx<'_>) -> bool {
        self.round += 1;
        if self.round == self.warmup {
            self.warm_at = Some(ctx.start_time());
        }
        if !self.running() {
            self.done_at = Some(ctx.start_time());
        }
        self.running()
    }
}

/// Create a world on `machine` and place `ranks` rank chares on it, rank
/// `r` on [`place_rank`]'s PE. `make(r, device)` allocates rank `r`'s
/// buffers and streams on its PE's device and returns its chare; the
/// device must still fit in memory afterwards. Returns the world and the
/// chare id of every rank, in rank order.
pub fn place<C: Chare>(
    machine: &MachineConfig,
    ranks: usize,
    placement: RankPlacement,
    mut make: impl FnMut(usize, &mut Device) -> C,
) -> (Simulation, Vec<ChareId>) {
    let mut sim = Simulation::new(machine.clone());
    let base = sim.machine.chare_count();
    let ids = (0..ranks)
        .map(|r| {
            let pe = place_rank(r, ranks, machine.nodes, machine.pes_per_node, placement);
            let dev = sim.machine.pe_device(pe);
            let device = &mut sim.machine.devices[dev.0];
            let chare = make(r, device);
            device.assert_memory_fits();
            let id = sim.machine.create_chare(pe, Box::new(chare));
            assert_eq!(id, ChareId(base + r), "rank {r} got a foreign chare id");
            id
        })
        .collect();
    (sim, ids)
}

/// An app's `finish`: drain a started run to quiescence and fold every
/// rank's clock (dug out of its chare by `clock`, which may also collect
/// the chare's counters). Returns the mean time per timed round after
/// the slowest rank's warm-up, and the total up to the slowest rank's
/// last round.
pub fn finish<C: Chare>(
    sim: &mut Simulation,
    ids: &[ChareId],
    mut clock: impl FnMut(&C) -> &RoundClock,
) -> (SimDuration, SimDuration) {
    assert_eq!(sim.run(), RunOutcome::Drained, "rank run should quiesce");
    let mut warm = SimTime::ZERO;
    let mut done = SimTime::ZERO;
    let mut timed = 1;
    for &id in ids {
        let c = clock(sim.machine.chare_as::<C>(id));
        warm = warm.max(c.warm_at.expect("warmed"));
        done = done.max(c.done_at.expect("finished"));
        timed = c.timed;
    }
    (done.since(warm) / timed as u64, done.since(SimTime::ZERO))
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
