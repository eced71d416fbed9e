//! Differential test: the slab-arena/calendar-queue engine against a
//! reference `BinaryHeap` + tombstone implementation (the seed engine's
//! design), driven by the same randomized schedule/cancel/soon workload.
//!
//! Both sides interpret an identical stream of RNG-derived commands, so
//! any divergence in firing order — ring vs bucket vs overflow routing,
//! cancellation, horizon crossings — shows up as the first mismatching
//! trace entry. The real engine also forks mid-run: it clones itself at
//! the reference's median event time and replays the tail from the clone
//! twice, and all three tails must match. The same three runs are then
//! repeated on an engine that was left mid-run on another seed's
//! workload and `reset()`. Seeded via [`SimRng`] so failures replay
//! exactly.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use gaat_sim::{Sim, SimDuration, SimRng, SimTime};

/// What a fired event decides to do next. Decisions are derived from the
/// world RNG by [`decide`], which both engines call at the same points,
/// so the command streams are identical as long as firing order is.
enum Cmd {
    /// Schedule a new event `delay` ns from now.
    Spawn { delay: u64 },
    /// Cancel the `choice % live.len()`-th tracked id (no-op when the
    /// event already fired — both sides must agree on that too).
    Cancel { choice: u64 },
}

/// Delay mixture covering every routing tier of the new engine: same
/// instant (ring), short (wheel), exact horizon boundaries, and
/// far-future (overflow heap).
fn spawn_delay(rng: &mut SimRng) -> u64 {
    match rng.below(16) {
        0..=3 => 0,
        4..=9 => 1 + rng.below(4_096),
        10..=12 => 4_096 + rng.below(61_000),
        13 => 65_535 + rng.below(3), // straddle the 65536-bucket horizon
        _ => 65_536 + rng.below(1_000_000),
    }
}

fn decide(rng: &mut SimRng, budget_left: u64) -> Vec<Cmd> {
    let mut cmds = Vec::new();
    let spawns = match rng.below(8) {
        0 => 0,
        1..=4 => 1,
        _ => 2,
    };
    for _ in 0..spawns.min(budget_left) {
        cmds.push(Cmd::Spawn {
            delay: spawn_delay(rng),
        });
    }
    if rng.below(4) == 0 {
        cmds.push(Cmd::Cancel {
            choice: rng.next_u64(),
        });
    }
    cmds
}

// ----- real engine -----

#[derive(Clone)]
struct RealWorld {
    rng: SimRng,
    trace: Vec<(u64, u32)>,
    live: Vec<gaat_sim::EventId>,
    next_label: u32,
    budget: u64,
}

fn fire_real(w: &mut RealWorld, sim: &mut Sim<RealWorld>, label: u64) {
    w.trace.push((sim.now().as_ns(), label as u32));
    for cmd in decide(&mut w.rng, w.budget) {
        match cmd {
            Cmd::Spawn { delay } => {
                w.budget -= 1;
                let label = w.next_label;
                w.next_label += 1;
                let at = sim.now() + SimDuration::from_ns(delay);
                let id = sim.at(at, fire_real, u64::from(label));
                w.live.push(id);
            }
            Cmd::Cancel { choice } => {
                if !w.live.is_empty() {
                    let i = (choice % w.live.len() as u64) as usize;
                    let id = w.live.swap_remove(i);
                    sim.cancel(id);
                }
            }
        }
    }
}

/// Trace and executed-event count of one run.
type Run = (Vec<(u64, u32)>, u64);

/// A world for `seed` with its initial events scheduled on `sim`.
fn start_real(sim: &mut Sim<RealWorld>, seed: u64, initial: u64, budget: u64) -> RealWorld {
    let mut seeder = SimRng::new(seed ^ 0x5eed);
    let mut w = RealWorld {
        rng: SimRng::new(seed),
        trace: Vec::new(),
        live: Vec::new(),
        next_label: 0,
        budget,
    };
    for _ in 0..initial {
        let label = w.next_label;
        w.next_label += 1;
        let at = SimTime::from_ns(seeder.below(10_000));
        let id = sim.at(at, fire_real, u64::from(label));
        w.live.push(id);
    }
    w
}

/// Run the workload on `sim`, a fresh or reset engine, pausing at
/// `fork_at` to clone the engine and the world. Returns the
/// uninterrupted run, then two runs restored from that clone.
fn run_real(
    sim: &mut Sim<RealWorld>,
    seed: u64,
    initial: u64,
    budget: u64,
    fork_at: SimTime,
) -> Vec<Run> {
    let mut w = start_real(sim, seed, initial, budget);
    sim.run_until(&mut w, fork_at);
    let snap = sim.clone();
    let saved = w.clone();
    sim.run(&mut w);
    let mut runs = vec![(w.trace, sim.events_executed())];
    for _ in 0..2 {
        sim.clone_from(&snap);
        let mut w = saved.clone();
        sim.run(&mut w);
        runs.push((w.trace, sim.events_executed()));
    }
    runs
}

// ----- reference engine: BinaryHeap + cancellation tombstones -----

struct RefSim {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    cancelled: HashSet<u64>,
    next_seq: u64,
    now: u64,
    executed: u64,
}

impl RefSim {
    fn schedule(&mut self, at: u64, label: u32) -> u64 {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq, label)));
        seq
    }
}

struct RefWorld {
    rng: SimRng,
    trace: Vec<(u64, u32)>,
    live: Vec<u64>,
    next_label: u32,
    budget: u64,
}

fn fire_ref(w: &mut RefWorld, sim: &mut RefSim, label: u32) {
    w.trace.push((sim.now, label));
    for cmd in decide(&mut w.rng, w.budget) {
        match cmd {
            Cmd::Spawn { delay } => {
                w.budget -= 1;
                let label = w.next_label;
                w.next_label += 1;
                let seq = sim.schedule(sim.now + delay, label);
                w.live.push(seq);
            }
            Cmd::Cancel { choice } => {
                if !w.live.is_empty() {
                    let i = (choice % w.live.len() as u64) as usize;
                    let seq = w.live.swap_remove(i);
                    sim.cancelled.insert(seq);
                }
            }
        }
    }
}

fn run_ref(seed: u64, initial: u64, budget: u64) -> Run {
    let mut sim = RefSim {
        heap: BinaryHeap::new(),
        cancelled: HashSet::new(),
        next_seq: 0,
        now: 0,
        executed: 0,
    };
    let mut seeder = SimRng::new(seed ^ 0x5eed);
    let mut w = RefWorld {
        rng: SimRng::new(seed),
        trace: Vec::new(),
        live: Vec::new(),
        next_label: 0,
        budget,
    };
    for _ in 0..initial {
        let label = w.next_label;
        w.next_label += 1;
        let seq = sim.schedule(seeder.below(10_000), label);
        w.live.push(seq);
    }
    while let Some(Reverse((at, seq, label))) = sim.heap.pop() {
        if sim.cancelled.remove(&seq) {
            continue;
        }
        sim.now = at;
        sim.executed += 1;
        fire_ref(&mut w, &mut sim, label);
    }
    (w.trace, sim.executed)
}

/// Every real-engine run (uninterrupted and both restores, on a fresh
/// engine and on a reset one) must match the reference heap event for
/// event.
fn check(seed: u64, initial: u64, budget: u64) {
    let (ref_trace, ref_n) = run_ref(seed, initial, budget);
    let fork_at = SimTime::from_ns(ref_trace[ref_trace.len() / 2].0);
    let mut runs = run_real(&mut Sim::new(), seed, initial, budget, fork_at);
    // Leave another seed's workload pending in the ring, wheel and
    // overflow, then reset and replay this seed on the same engine.
    let mut reused: Sim<RealWorld> = Sim::new();
    let mut other = start_real(&mut reused, seed + 1_000, initial, budget);
    reused.run_until(&mut other, fork_at);
    reused.reset();
    runs.extend(run_real(&mut reused, seed, initial, budget, fork_at));
    let names = [
        "live",
        "restore 1",
        "restore 2",
        "reset live",
        "reset restore 1",
        "reset restore 2",
    ];
    for ((real_trace, real_n), run) in runs.into_iter().zip(names) {
        assert_eq!(
            real_n, ref_n,
            "executed-count divergence at seed {seed} ({run})"
        );
        if let Some(i) =
            (0..real_trace.len().min(ref_trace.len())).find(|&i| real_trace[i] != ref_trace[i])
        {
            panic!(
                "trace divergence at seed {seed} ({run}), event {i}: real {:?} vs reference {:?}",
                real_trace[i], ref_trace[i]
            );
        }
        assert_eq!(
            real_trace.len(),
            ref_trace.len(),
            "length divergence at seed {seed} ({run})"
        );
    }
}

#[test]
fn new_queue_matches_reference_heap_across_seeds() {
    for seed in 0..24u64 {
        check(seed, 64, 4_000);
    }
}

#[test]
fn new_queue_matches_reference_heap_deep_population() {
    // A deeper run that forces slot recycling, bucket reuse after wheel
    // wraparound, and a populated overflow tier.
    check(99, 2_000, 60_000);
}
