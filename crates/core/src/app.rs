//! The one interface every proxy application implements, and the one
//! rule that times it: every chare counts its iterations (sweeps, steps,
//! rounds) on a [`RunClock`], and [`App::finish`] folds the clocks into
//! one [`Timing`], or into a stalled [`Outcome`] if a chare never
//! finished.

use std::sync::Arc;

use gaat_sim::{RunOutcome, SimDuration, SimTime};

use crate::machine::{Chare, Ctx, Simulation};
use crate::msg::{ChareId, EntryId};

/// What every app's run reduces to: the fields a sweep fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Outcome {
    /// Mean time per timed iteration, sweep, step or round (0 if stalled).
    pub unit: SimDuration,
    /// Makespan, or for a stalled run when the queue drained.
    pub total: SimDuration,
    /// Field checksum, for the apps that compute one.
    pub checksum: Option<f64>,
    /// Chares that never finished.
    pub stalled: usize,
    /// Collective payload bytes through channels.
    pub coll_bytes: u64,
    /// Collective chunks sent.
    pub coll_chunks: u64,
}

/// One chare's iteration count and the times its warm-up and its last
/// iteration finished.
#[derive(Debug, Clone)]
pub struct RunClock {
    round: usize,
    warmup: usize,
    timed: usize,
    /// Completion time of the warm-up iterations.
    warm_at: Option<SimTime>,
    /// Completion time of the final iteration.
    done_at: Option<SimTime>,
}

impl RunClock {
    /// A clock for `timed` iterations after `warmup` untimed ones.
    pub fn new(timed: usize, warmup: usize) -> Self {
        RunClock {
            round: 0,
            warmup,
            timed,
            warm_at: (warmup == 0).then_some(SimTime::ZERO),
            done_at: None,
        }
    }

    /// Iterations finished so far (the index of the one under way).
    pub fn round(&self) -> usize {
        self.round
    }

    /// Whether an iteration is left to run.
    pub fn running(&self) -> bool {
        self.round < self.warmup + self.timed
    }

    /// Count one finished iteration at the current entry's start time.
    /// Returns whether another iteration is left to run.
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

/// The timing of a run in which every chare finished.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Mean time per timed iteration after the slowest chare's warm-up
    /// (the paper's y-axis).
    pub unit: SimDuration,
    /// Makespan: up to the slowest chare's last iteration.
    pub total: SimDuration,
    /// When the slowest chare finished its warm-up.
    pub warm_at: SimTime,
    /// Mean CPU utilization across PEs over the makespan.
    pub cpu_utilization: f64,
}

/// A proxy application, implemented on its run-wide shared parameters.
/// A clone of a started [`Simulation`] (a fork) finishes like the world.
pub trait App: Sized {
    /// The experiment description.
    type Config;
    /// Why a config cannot be built.
    type Error: std::fmt::Display;
    /// The chare type `build` creates for every id it returns.
    type Chare: Chare;
    /// What a run in which every chare finished yields.
    type Result;

    /// Check every rule `build` would otherwise panic on.
    fn validate(cfg: &Self::Config) -> Result<(), Self::Error>;

    /// Build a fresh world, its chares and the shared parameters;
    /// panics with the error text exactly when `validate` rejects `cfg`.
    fn build(cfg: Self::Config) -> (Simulation, Vec<ChareId>, Arc<Self>);

    /// The clock a chare counts its iterations on.
    fn clock(chare: &Self::Chare) -> &RunClock;

    /// Inject the start without running the engine; by default the
    /// tree broadcast of `EntryId(0)` to every chare.
    fn start(&self, sim: &mut Simulation, ids: &[ChareId]) {
        let Simulation { sim, machine } = sim;
        machine.broadcast(sim, ids, EntryId(0), 0);
    }

    /// Collect the result of a drained run in which every chare
    /// finished, given the fold of their clocks.
    fn collect(&self, sim: &Simulation, ids: &[ChareId], timing: Timing) -> Self::Result;

    /// Drain a started run to quiescence and fold every chare's clock.
    /// If a chare is still running (with retries off, a lost message
    /// parks it forever), the run is an `Err` outcome that counts the
    /// stalled chares and whose total is when the queue drained;
    /// otherwise it is [`collect`](Self::collect)'s result.
    fn finish(&self, sim: &mut Simulation, ids: &[ChareId]) -> Result<Self::Result, Outcome> {
        assert_eq!(sim.run(), RunOutcome::Drained, "run should quiesce");
        let (mut warm, mut done, mut timed, mut stalled) = (SimTime::ZERO, SimTime::ZERO, 1, 0);
        for &id in ids {
            let c = Self::clock(sim.machine.chare_as::<Self::Chare>(id));
            match (c.warm_at, c.done_at) {
                (Some(w), Some(d)) => {
                    warm = warm.max(w);
                    done = done.max(d);
                    timed = c.timed;
                }
                _ => stalled += 1,
            }
        }
        if stalled > 0 {
            return Err(Outcome {
                total: sim.now().since(SimTime::ZERO),
                stalled,
                ..Outcome::default()
            });
        }
        let pes = sim.machine.pes.len();
        let timing = Timing {
            unit: done.since(warm) / timed as u64,
            total: done.since(SimTime::ZERO),
            warm_at: warm,
            cpu_utilization: (0..pes)
                .map(|p| sim.machine.pe_utilization(p, done))
                .sum::<f64>()
                / pes as f64,
        };
        Ok(self.collect(sim, ids, timing))
    }

    /// Compare a finished real-buffer world bit for bit against the
    /// app's sequential reference; returns the elements compared.
    fn check(&self, sim: &Simulation, ids: &[ChareId]) -> usize;

    /// Reduce a complete run's result to the fields every app shares.
    fn outcome(result: &Self::Result) -> Outcome;

    /// Reduce a run, complete or stalled, to the fields every app shares.
    fn outcome_of(run: &Result<Self::Result, Outcome>) -> Outcome {
        run.as_ref().map_or_else(|stalled| *stalled, Self::outcome)
    }

    /// Start, then finish.
    fn run(&self, sim: &mut Simulation, ids: &[ChareId]) -> Result<Self::Result, Outcome> {
        self.start(sim, ids);
        self.finish(sim, ids)
    }

    /// Build a fresh world and run it.
    fn build_and_run(cfg: Self::Config) -> Result<Self::Result, Outcome> {
        let (mut sim, ids, app) = Self::build(cfg);
        app.run(&mut sim, &ids)
    }
}
