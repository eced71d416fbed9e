//! World-slot reuse: amortizing per-run allocation across many runs.
//!
//! Every [`Simulation::new`] pays for the event engine's 256 KiB of
//! wheel bucket heads and for growing its slab arena, ring and heaps
//! again — costs that rival the useful work of a small scenario and
//! repeat thousands of times in a sweep. A
//! [`WorldSlot`] is one reusable simulation cell: it parks the engine
//! between runs and rebuilds only the per-scenario [`Machine`] on top
//! of it.
//!
//! Reuse is *bit-invisible*: [`gaat_sim::Sim::reset`] restores the
//! engine to the observable state of a fresh one (slot indices,
//! generations, sequence numbers, and the clock all restart at zero).
//! `crates/sweep/tests` pin this with a reset-slot-vs-fresh-world
//! bit-identity test.

use crate::config::MachineConfig;
use crate::machine::{Machine, Simulation};
use gaat_sim::Sim;

/// Usage counters of one slot (how often reuse actually happened).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotStats {
    /// Simulations prepared by this slot.
    pub prepared: u64,
    /// Of those, how many reused a retired engine's allocations.
    pub reused: u64,
}

/// A reusable arena/World cell: park an engine with [`WorldSlot::retire`]
/// after a run, get it back (reset, allocations intact) from the next
/// [`WorldSlot::prepare`].
#[derive(Default)]
pub struct WorldSlot {
    engine: Option<Sim<Machine>>,
    stats: SlotStats,
}

impl WorldSlot {
    /// An empty slot; the first `prepare` builds everything fresh.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a ready-to-run simulation for `cfg`, reusing the retired
    /// engine's allocations when one is parked. Bit-identical to
    /// `Simulation::new(cfg)`.
    pub fn prepare(&mut self, cfg: MachineConfig) -> Simulation {
        let engine = match self.engine.take() {
            Some(mut e) => {
                e.reset();
                self.stats.reused += 1;
                e
            }
            None => Sim::new(),
        };
        self.stats.prepared += 1;
        Simulation::new_in(engine, cfg)
    }

    /// Park a finished simulation's engine for the next `prepare`. The
    /// machine (chares, buffers, stats) is dropped; only the engine's
    /// heap survives. Accepts stalled runs too — `prepare` resets any
    /// still-pending events away.
    pub fn retire(&mut self, sim: Simulation) {
        self.engine = Some(sim.sim);
    }

    /// Usage counters.
    pub fn stats(&self) -> SlotStats {
        self.stats
    }
}
