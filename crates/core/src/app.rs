//! The one interface every proxy application implements.

use std::sync::Arc;

use gaat_sim::SimDuration;

use crate::machine::Simulation;
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

/// A proxy application, implemented on its run-wide shared parameters.
/// A clone of a started [`Simulation`] (a fork) finishes like the world.
pub trait App: Sized {
    /// The experiment description.
    type Config;
    /// Why a config cannot be built.
    type Error: std::fmt::Display;
    /// What a finished run yields.
    type Result;

    /// Check every rule `build` would otherwise panic on.
    fn validate(cfg: &Self::Config) -> Result<(), Self::Error>;

    /// Build a fresh world, its chares and the shared parameters;
    /// panics with the error text exactly when `validate` rejects `cfg`.
    fn build(cfg: Self::Config) -> (Simulation, Vec<ChareId>, Arc<Self>);

    /// Inject the start without running the engine; by default the
    /// tree broadcast of `EntryId(0)` to every chare.
    fn start(&self, sim: &mut Simulation, ids: &[ChareId]) {
        let Simulation { sim, machine } = sim;
        machine.broadcast(sim, ids, EntryId(0), 0);
    }

    /// Drain a started run to quiescence and collect its result.
    fn finish(&self, sim: &mut Simulation, ids: &[ChareId]) -> Self::Result;

    /// Compare a finished real-buffer world bit for bit against the
    /// app's sequential reference; returns the elements compared.
    fn check(&self, sim: &Simulation, ids: &[ChareId]) -> usize;

    /// Reduce a result to the fields every app shares.
    fn outcome(result: &Self::Result) -> Outcome;

    /// Start, then finish.
    fn run(&self, sim: &mut Simulation, ids: &[ChareId]) -> Self::Result {
        self.start(sim, ids);
        self.finish(sim, ids)
    }

    /// Build a fresh world and run it.
    fn build_and_run(cfg: Self::Config) -> Self::Result {
        let (mut sim, ids, app) = Self::build(cfg);
        app.run(&mut sim, &ids)
    }
}
