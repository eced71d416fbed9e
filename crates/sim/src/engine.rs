//! The discrete-event engine.
//!
//! [`Sim<W>`] owns the pending-event set for a world type `W` chosen by
//! the embedding application (the runtime crate uses its `Machine`).
//! Events at equal timestamps fire in scheduling order (a monotonically
//! increasing sequence number breaks ties), which makes every run
//! bit-deterministic.
//!
//! # Internals
//!
//! The pending set is built for zero steady-state allocation and O(1)
//! common-case scheduling:
//!
//! - **Slab arena.** Every scheduled event lives in the crate's
//!   generational [`Slab`]; slots are recycled, so the steady state
//!   allocates nothing. An [`EventId`] is the event's slab key, so a
//!   stale id (the event fired or was cancelled, and the slot was
//!   reused) can never touch the wrong event. Cancellation just marks
//!   the event — O(1), no queue surgery, no tombstone set. The ring and
//!   the overflow heap hold bare 4-byte slot indices; the wheel holds
//!   none at all (see below).
//!
//! - **Two-tier queue.** Tier 0 is a FIFO ring holding the events of
//!   the *current instant* in seq order; [`Sim::soon`] and
//!   same-timestamp bursts append and pop at O(1). Tier 1 is a timer
//!   wheel of `BUCKETS` one-nanosecond buckets covering a rolling
//!   horizon of `BUCKETS` ns, with a `BinaryHeap` overflow for events
//!   beyond the horizon. A bucket is one `u32` head (256 KiB for the
//!   whole wheel) of an intrusive list linked through the events' own
//!   slab slots, newest first. Advancing to the next instant scans a
//!   flat occupancy bitmap (one bit per bucket) for the first nonempty
//!   bucket, whose index alone gives its instant, and walks its list
//!   onto the ring back to front. Only when the overflow top shares
//!   that instant is the batch sorted by seq.
//!
//! - **Plain-data events.** Every event (message delivery, kernel/DMA
//!   completion, progress ticks) is a plain function plus one integer
//!   payload word, stored inline in its slot — no `Box`, no vtable — so
//!   an event is `Copy` and cloning the engine (the world fork) copies
//!   the whole arena with one slice copy.
//!
//! Determinism is unchanged from the original heap engine: the firing
//! order is exactly lexicographic `(time, seq)`. The ring is sorted by
//! seq because fresh seqs are globally increasing, a bucket's list is
//! newest first (so walking it back to front yields seq order), and
//! mixed batches are seq-sorted on extraction; a bucket always holds a
//! single instant (the horizon invariant `now <= at < now + BUCKETS` is
//! preserved as `now` advances because pending times never precede
//! `now`, which is also what lets a bucket's index name its instant);
//! and the overflow top is compared against the wheel minimum on every
//! advance, so far-future events that have drifted inside the horizon
//! still fire at the right instant.
//!
//! One `Sim` is deliberately single-threaded: determinism and
//! reproducibility of the *simulated* machine matter far more here than
//! wall-clock parallelism of one run. Host parallelism lives one level
//! up, in the scenario sweep pool (`gaat-sweep`), which runs many
//! independent simulations concurrently, one engine per worker thread.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::slab::Slab;
use crate::time::{SimDuration, SimTime};

/// Number of wheel buckets (power of two), each one nanosecond wide, so
/// a bucket is exactly one instant: the advance path drains whole
/// buckets with no per-instant rescans, and a bucket's instant follows
/// from its index. Horizon = ~65 us, which covers the runtime's
/// dominant delays (same-instant callbacks, sub-us hops, network
/// latencies, short kernels); events further out wait in the overflow
/// heap until their instant arrives.
const BUCKETS: usize = 65536;
/// Words in the bucket-occupancy bitmap.
const OCC_WORDS: usize = BUCKETS / 64;
/// End of a bucket list.
const NIL: u32 = u32::MAX;

/// Identifier of a scheduled event, usable to cancel it before it fires:
/// the event's [`Slab`] key. Ids held past the event's firing (or
/// cancellation) go stale and are ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

/// An event handler: the world, the engine, and the event's payload word.
type Handler<W> = fn(&mut W, &mut Sim<W>, u64);

/// What runs when an event fires.
enum EventKind<W> {
    /// Event was cancelled; its slot is freed when the queue reaches it.
    Cancelled,
    /// Plain function plus its payload word.
    Call(Handler<W>, u64),
}

// By hand: a derive would demand `W: Copy`, but `fn` pointers over any
// `W` are plain data.
impl<W> Clone for EventKind<W> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<W> Copy for EventKind<W> {}

/// One pending event.
struct Event<W> {
    seq: u64,
    /// Next (older) entry of the same wheel bucket, or `NIL`; unused on
    /// the ring and in the overflow heap.
    next: u32,
    kind: EventKind<W>,
}

impl<W> Event<W> {
    #[inline]
    fn is_live(&self) -> bool {
        matches!(self.kind, EventKind::Call(..))
    }
}

impl<W> Clone for Event<W> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<W> Copy for Event<W> {}

/// Overflow-heap entry: plain data, ordered by `(at, seq)` inverted so
/// the `BinaryHeap` max-heap pops the earliest first.
#[derive(Clone, Copy)]
struct OvEntry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for OvEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for OvEntry {}
impl PartialOrd for OvEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OvEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Outcome of [`Sim::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Drained,
    /// The configured event-count limit was hit (likely a livelock in the
    /// model; surfaced loudly rather than spinning forever).
    EventLimit,
}

/// A deterministic discrete-event simulator over world type `W`.
pub struct Sim<W> {
    now: SimTime,
    next_seq: u64,
    executed: u64,
    event_limit: u64,
    /// Live (scheduled, not yet fired or cancelled) event count.
    live: usize,
    peak_pending: usize,
    /// True once a run fully drained the queue and nothing has been
    /// scheduled since; gates the teardown leak audit.
    drained: bool,

    /// Every scheduled event not yet reclaimed (live or cancelled).
    events: Slab<Event<W>>,

    // Tier 0: the current instant's events, slot indices in seq order.
    ring: VecDeque<u32>,
    /// Timestamp shared by every entry in `ring`.
    ring_at: SimTime,

    // Tier 1: timer wheel + occupancy bitmap + far-future overflow.
    /// Newest entry's slot per bucket; meaningful only where the
    /// bucket's `occ` bit is set, so clearing the wheel is clearing
    /// `occ`.
    heads: Vec<u32>,
    occ: Vec<u64>,
    /// Total entries currently in wheel buckets (live or cancelled).
    wheel_len: usize,
    overflow: BinaryHeap<OvEntry>,

    /// Reused batch buffer for `(seq, slot)` extraction at one instant.
    scratch: Vec<(u64, u32)>,
}

impl<W> Default for Sim<W> {
    fn default() -> Self {
        Self::new()
    }
}

/// Cloning forks the engine mid-run. The copy holds the same clock,
/// counters and pending events, and the slab's free list and
/// generations too, so it mints the same [`EventId`]s and replays
/// bit-identically to the original from that point. Every event is plain
/// data, so every engine state can be cloned. By hand: `Event<W>` is
/// `Copy` for every `W`, so no `W: Clone` bound is needed.
impl<W> Clone for Sim<W> {
    fn clone(&self) -> Self {
        let mut sim = Sim::new();
        sim.clone_from(self);
        sim
    }

    /// Copy `source` into this engine, keeping this engine's heap
    /// allocations (like [`Sim::reset`]): the fork's restore path, which
    /// can rewind one engine to the same clone any number of times.
    fn clone_from(&mut self, source: &Self) {
        // Destructured so that a new field fails to compile until it is
        // copied here; `scratch` holds nothing between instants.
        let Sim {
            now,
            next_seq,
            executed,
            event_limit,
            live,
            peak_pending,
            drained,
            events,
            ring,
            ring_at,
            heads,
            occ,
            wheel_len,
            overflow,
            scratch: _,
        } = source;
        self.now = *now;
        self.next_seq = *next_seq;
        self.executed = *executed;
        self.event_limit = *event_limit;
        self.live = *live;
        self.peak_pending = *peak_pending;
        self.drained = *drained;
        self.events.clone_from(events);
        self.ring.clone_from(ring);
        self.ring_at = *ring_at;
        self.heads.clone_from(heads);
        self.occ.clone_from(occ);
        self.wheel_len = *wheel_len;
        self.overflow.clone_from(overflow);
        self.scratch.clear();
    }
}

impl<W> Sim<W> {
    /// A fresh simulator at time zero with the default event limit.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            next_seq: 0,
            executed: 0,
            event_limit: u64::MAX,
            live: 0,
            peak_pending: 0,
            drained: false,
            events: Slab::new(),
            ring: VecDeque::new(),
            ring_at: SimTime::ZERO,
            heads: vec![0; BUCKETS],
            occ: vec![0; OCC_WORDS],
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            scratch: Vec::new(),
        }
    }

    /// Cap on the total number of executed events; exceeded caps end the
    /// run with [`RunOutcome::EventLimit`].
    pub fn with_event_limit(mut self, limit: u64) -> Self {
        self.event_limit = limit;
        self
    }

    /// Restore this engine to the observable state of a fresh
    /// [`Sim::new`] while keeping every heap allocation — the slab, the
    /// 256 KiB of wheel bucket heads, the ring, the overflow heap, and
    /// the scratch buffer all retain their capacity. A reset engine replays any
    /// schedule bit-identically to a fresh one: the slab restarts at
    /// slot 0 / generation 0 (so it mints a fresh engine's
    /// [`EventId`]s), sequence numbers restart at 0, and the clock
    /// returns to zero. Only the event limit survives the reset.
    ///
    /// This is the world-slot reuse hook: the sweep engine resets one
    /// engine per worker between scenarios instead of re-allocating the
    /// wheel and regrowing the slab, ring and heap for every run.
    pub fn reset(&mut self) {
        self.now = SimTime::ZERO;
        self.next_seq = 0;
        self.executed = 0;
        self.live = 0;
        self.peak_pending = 0;
        self.drained = false;
        self.events.reset();
        self.ring.clear();
        self.ring_at = SimTime::ZERO;
        // A bucket head counts only while its occupancy bit is set, so
        // zeroing the bitmap empties every bucket.
        debug_assert!(
            self.wheel_len > 0 || self.occ.iter().all(|&w| w == 0),
            "occ/wheel_len drift"
        );
        self.occ.fill(0);
        self.wheel_len = 0;
        self.overflow.clear();
        self.scratch.clear();
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of live events currently pending. Cancelled events leave
    /// this count immediately, even though their slots are reclaimed
    /// lazily as the queue reaches them.
    #[inline]
    pub fn pending(&self) -> usize {
        self.live
    }

    /// High-water mark of the live pending-event count over the whole run.
    #[inline]
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    // ----- scheduling -----

    /// Schedule `f` to run with payload word `a` at absolute time `at`.
    /// Times in the past are clamped to "now" (the event still runs,
    /// after already-queued events at the current instant).
    pub fn at(&mut self, at: SimTime, f: Handler<W>, a: u64) -> EventId {
        self.drained = false;
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut ev = Event {
            seq,
            next: NIL,
            kind: EventKind::Call(f, a),
        };
        let key;
        if at == self.now && (self.ring.is_empty() || self.ring_at == self.now) {
            // Current instant: straight onto the ring. Fresh seqs are
            // globally increasing, so appending keeps the ring seq-sorted.
            key = self.events.insert(ev);
            self.ring_at = self.now;
            self.ring.push_back(key as u32);
        } else if at.as_ns() - self.now.as_ns() < BUCKETS as u64 {
            // Push onto the front of the bucket's list: newest first.
            let bi = (at.as_ns() as usize) & (BUCKETS - 1);
            let bit = 1u64 << (bi % 64);
            if self.occ[bi / 64] & bit != 0 {
                ev.next = self.heads[bi];
            }
            key = self.events.insert(ev);
            self.heads[bi] = key as u32;
            self.occ[bi / 64] |= bit;
            self.wheel_len += 1;
        } else {
            key = self.events.insert(ev);
            self.overflow.push(OvEntry {
                at,
                seq,
                slot: key as u32,
            });
        }
        self.live += 1;
        if self.live > self.peak_pending {
            self.peak_pending = self.live;
        }
        EventId(key)
    }

    /// [`Sim::at`] relative to the current time.
    pub fn after(&mut self, delay: SimDuration, f: Handler<W>, a: u64) -> EventId {
        self.at(self.now + delay, f, a)
    }

    /// [`Sim::at`] at the current instant, after all events already
    /// queued for this instant.
    pub fn soon(&mut self, f: Handler<W>, a: u64) -> EventId {
        self.at(self.now, f, a)
    }

    /// Cancel a previously scheduled event. Cancelling an event that
    /// already fired is a no-op: its id has gone stale. Cancelling twice
    /// is a no-op too.
    pub fn cancel(&mut self, id: EventId) {
        if let Some(ev) = self.events.get_mut(id.0) {
            if ev.is_live() {
                // The slot itself is reclaimed when the queue reaches it.
                ev.kind = EventKind::Cancelled;
                self.live -= 1;
            }
        }
    }

    // ----- queue advance -----

    /// First occupied bucket in circular order starting at `start`, or
    /// `None` if the wheel is empty.
    fn next_occupied(&self, start: usize) -> Option<usize> {
        let start = start & (BUCKETS - 1);
        let mut word = start / 64;
        let mut w = self.occ[word] & (!0u64 << (start % 64));
        for _ in 0..=OCC_WORDS {
            if w != 0 {
                return Some(word * 64 + w.trailing_zeros() as usize);
            }
            word = (word + 1) % OCC_WORDS;
            w = self.occ[word];
        }
        None
    }

    /// Earliest timestamp in the wheel and its bucket index: one bitmap
    /// scan, no slot read. Every wheel entry's time lies in
    /// `[now, now + BUCKETS)` and a bucket is one instant, so the
    /// bucket's distance from `now`'s bucket is its distance in ns.
    /// Cancelled entries stay in their bucket until reclaimed, so they
    /// are counted here and skipped cheaply at ring pop.
    fn wheel_min(&self) -> Option<(usize, SimTime)> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = (self.now.as_ns() as usize) & (BUCKETS - 1);
        let bi = self.next_occupied(start).expect("wheel_len > 0");
        let ahead = (bi.wrapping_sub(start) & (BUCKETS - 1)) as u64;
        Some((bi, self.now + SimDuration::from_ns(ahead)))
    }

    /// Unlink bucket `bi`'s whole list and mark the bucket empty,
    /// returning the list's head (newest entry).
    fn take_bucket(&mut self, bi: usize) -> u32 {
        self.occ[bi / 64] &= !(1u64 << (bi % 64));
        self.heads[bi]
    }

    /// Earliest live overflow timestamp, popping cancelled tops.
    fn overflow_min(&mut self) -> Option<SimTime> {
        while let Some(top) = self.overflow.peek() {
            if self.events.by_slot(top.slot).is_live() {
                return Some(top.at);
            }
            let dead = self.overflow.pop().expect("peeked entry vanished");
            self.events.remove_slot(dead.slot);
        }
        None
    }

    /// Move every event at the next live instant onto the ring. Returns
    /// false if nothing is pending. Does not touch `now`; the clock
    /// advances only when an event executes (in [`Sim::step`]).
    fn advance(&mut self) -> bool {
        debug_assert!(self.ring.is_empty());
        let wheel = self.wheel_min();
        let over = self.overflow_min();
        let t = match (wheel, over) {
            (Some((_, wt)), Some(ot)) => wt.min(ot),
            (Some((_, wt)), None) => wt,
            (None, Some(ot)) => ot,
            (None, None) => return false,
        };
        let over_tie = over == Some(t);
        if !over_tie {
            // Common case: the instant lives entirely in one bucket.
            // Bucket pushes happen in schedule order and seqs increase
            // globally, so the list runs newest to oldest — walking it
            // onto the front of the (empty) ring leaves the ring
            // seq-sorted. Cancelled entries ride along and are reclaimed
            // at ring pop.
            let (bi, _) = wheel.expect("no overflow tie implies a wheel hit");
            let mut s = self.take_bucket(bi);
            while s != NIL {
                self.ring.push_front(s);
                self.wheel_len -= 1;
                s = self.events.by_slot(s).next;
            }
            self.ring_at = t;
            return true;
        }
        self.scratch.clear();
        if let Some((bi, wt)) = wheel {
            if wt == t {
                // One-instant buckets: drain the whole bucket.
                let mut s = self.take_bucket(bi);
                while s != NIL {
                    let ev = self.events.by_slot(s);
                    self.scratch.push((ev.seq, s));
                    self.wheel_len -= 1;
                    s = ev.next;
                }
            }
        }
        while let Some(top) = self.overflow.peek() {
            if top.at != t {
                break;
            }
            let e = self.overflow.pop().expect("peeked entry vanished");
            if self.events.by_slot(e.slot).is_live() {
                self.scratch.push((e.seq, e.slot));
            } else {
                self.events.remove_slot(e.slot);
            }
        }
        // Restore the total (time, seq) order within the instant.
        self.scratch.sort_unstable();
        self.ring_at = t;
        for &(_, s) in &self.scratch {
            self.ring.push_back(s);
        }
        !self.ring.is_empty()
    }

    /// Execute a single event if one is pending; returns whether an event
    /// ran. Cancelled events are skipped silently.
    pub fn step(&mut self, world: &mut W) -> bool {
        loop {
            let idx = match self.ring.pop_front() {
                Some(idx) => idx,
                None => {
                    if !self.advance() {
                        return false;
                    }
                    continue;
                }
            };
            debug_assert!(self.ring_at >= self.now, "time went backwards");
            // Free before dispatch so the slot is reusable and the event's
            // own id is stale during its callback.
            let EventKind::Call(f, a) = self.events.remove_slot(idx).kind else {
                continue;
            };
            self.now = self.ring_at;
            self.executed += 1;
            self.live -= 1;
            f(world, self, a);
            return true;
        }
    }

    /// Run until the queue drains or the event limit is reached.
    pub fn run(&mut self, world: &mut W) -> RunOutcome {
        loop {
            if self.executed >= self.event_limit {
                return RunOutcome::EventLimit;
            }
            if !self.step(world) {
                self.drained = true;
                return RunOutcome::Drained;
            }
        }
    }

    /// Run until simulated time would exceed `deadline` (events at exactly
    /// `deadline` still run), the queue drains, or the event limit is
    /// reached. The clock is left at
    /// `min(deadline, time of last executed event)`.
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) -> RunOutcome {
        loop {
            if self.executed >= self.event_limit {
                return RunOutcome::EventLimit;
            }
            match self.peek_time() {
                None => {
                    self.drained = true;
                    return RunOutcome::Drained;
                }
                Some(t) if t > deadline => {
                    self.now = self.now.max(deadline.min(t));
                    return RunOutcome::Drained;
                }
                Some(_) => {
                    self.step(world);
                }
            }
        }
    }

    // ----- teardown audit -----

    /// True when the last `run`/`run_until` drained the queue completely
    /// and nothing has been scheduled since.
    #[inline]
    pub fn quiesced(&self) -> bool {
        self.drained
    }

    /// Audit the event slab: the number of events it still holds (live,
    /// or cancelled but not yet reclaimed). A fully
    /// drained run leaves zero — cancelled entries are reclaimed as the
    /// queue reaches their instant — so a nonzero count after quiesce
    /// means an event leaked (e.g. a retry layer re-arming a wakeup it
    /// believed cancelled). Debug builds run this check automatically
    /// when the `Sim` is dropped after quiesce.
    pub fn leak_check(&self) -> usize {
        self.events.len()
    }

    /// Timestamp of the next live (non-cancelled) pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Clean cancelled entries off the ring front.
        while let Some(&idx) = self.ring.front() {
            if self.events.by_slot(idx).is_live() {
                return Some(self.ring_at);
            }
            self.ring.pop_front();
            self.events.remove_slot(idx);
        }
        loop {
            let wheel = self.wheel_min();
            let over = self.overflow_min();
            let (t, wheel_bi) = match (wheel, over) {
                (Some((bi, wt)), Some(ot)) if wt <= ot => (wt, Some(bi)),
                (_, Some(ot)) => (ot, None),
                (Some((bi, wt)), None) => (wt, Some(bi)),
                (None, None) => return None,
            };
            if let Some(bi) = wheel_bi {
                let mut s = self.heads[bi];
                while s != NIL && !self.events.by_slot(s).is_live() {
                    s = self.events.by_slot(s).next;
                }
                if s == NIL {
                    // All cancelled. A live overflow entry can share the
                    // instant with such a bucket; the instant is then live.
                    if over == Some(t) {
                        return Some(t);
                    }
                    let mut s = self.take_bucket(bi);
                    while s != NIL {
                        s = self.events.remove_slot(s).next;
                        self.wheel_len -= 1;
                    }
                    continue;
                }
            }
            return Some(t);
        }
    }
}

impl<W> Drop for Sim<W> {
    fn drop(&mut self) {
        // Event-leak audit: a simulator dropped after quiescing must hold
        // no event payloads. Debug builds only, and never while unwinding
        // (the leak is then a symptom, not the bug).
        #[cfg(debug_assertions)]
        {
            if self.drained && !std::thread::panicking() {
                let leaked = self.leak_check();
                assert_eq!(
                    leaked, 0,
                    "event-leak audit: {leaked} slab slot(s) still occupied after quiesce \
                     (live counter = {})",
                    self.live
                );
                assert_eq!(
                    self.live, 0,
                    "event-leak audit: live counter nonzero after quiesce with empty slab"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type World = Vec<u32>;

    fn d(ns: u64) -> SimDuration {
        SimDuration::from_ns(ns)
    }

    fn push(w: &mut World, _: &mut Sim<World>, a: u64) {
        w.push(a as u32);
    }

    fn nop(_: &mut World, _: &mut Sim<World>, _: u64) {}

    #[test]
    fn events_fire_in_time_order() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        sim.after(d(30), push, 3);
        sim.after(d(10), push, 1);
        sim.after(d(20), push, 2);
        assert_eq!(sim.run(&mut w), RunOutcome::Drained);
        assert_eq!(w, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_ns(30));
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn ties_fire_in_scheduling_order() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        for i in 0..100 {
            sim.after(d(5), push, i);
        }
        sim.run(&mut w);
        assert_eq!(w, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn reset_restores_a_fresh_engine_bit_identically() {
        // The same schedule — near-time wheel buckets, ties, a cancel,
        // and a far-future overflow event — must execute identically on
        // a fresh engine and on a reset one, and mint the same ids.
        fn drive(sim: &mut Sim<World>) -> (Vec<u32>, u64, SimTime, Vec<EventId>) {
            let mut w = Vec::new();
            let mut ids: Vec<EventId> =
                (0..50).map(|i| sim.after(d(i * 7 % 40), push, i)).collect();
            ids.push(sim.after(d(200_000_000), push, 999));
            let doomed = sim.after(d(5), push, 777);
            sim.cancel(doomed);
            ids.push(doomed);
            assert_eq!(sim.run(&mut w), RunOutcome::Drained);
            ids.push(sim.after(d(1), push, 1));
            ids.push(sim.after(d(2), push, 2));
            assert_eq!(sim.run(&mut w), RunOutcome::Drained);
            (w, sim.events_executed(), sim.now(), ids)
        }
        let mut fresh: Sim<World> = Sim::new();
        let expect = drive(&mut fresh);
        assert!(!expect.0.contains(&777), "cancelled event must not fire");

        let mut reused: Sim<World> = Sim::new();
        let first = drive(&mut reused);
        assert_eq!(first, expect);
        reused.reset();
        assert_eq!(reused.now(), SimTime::ZERO);
        assert_eq!(reused.events_executed(), 0);
        let second = drive(&mut reused);
        assert_eq!(second, expect, "reset engine must replay bit-identically");
    }

    #[test]
    fn snapshot_round_trip_replays_bit_identically() {
        // Same shape as the reset bit-identity pin: wheel buckets, ties,
        // a cancel, a far-future overflow event, and events that
        // schedule events.
        fn spawn(w: &mut World, sim: &mut Sim<World>, a: u64) {
            w.push(a as u32);
            sim.after(d(13), push, a + 1000);
        }
        fn build(sim: &mut Sim<World>) {
            for i in 0..40u64 {
                sim.at(SimTime::from_ns(i * 9 % 70), spawn, i);
            }
            sim.at(SimTime::from_ns(200_000_000), push, 999);
            let doomed = sim.at(SimTime::from_ns(33), push, 777);
            sim.cancel(doomed);
        }

        // Unforked reference: one fresh engine runs start to finish.
        let mut reference: Sim<World> = Sim::new();
        let mut expect = Vec::new();
        build(&mut reference);
        assert_eq!(reference.run(&mut expect), RunOutcome::Drained);
        assert!(!expect.contains(&777), "cancelled event must not fire");
        let expect_executed = reference.events_executed();
        let expect_now = reference.now();

        // Forked run: execute the shared prefix once, snapshot mid-flight
        // (pending events in ring, wheel, and overflow), then finish.
        let mut sim: Sim<World> = Sim::new();
        let mut prefix = Vec::new();
        build(&mut sim);
        sim.run_until(&mut prefix, SimTime::from_ns(35));
        let snap = sim.clone();
        assert_eq!(snap.now(), sim.now());
        assert_eq!(snap.pending(), sim.pending());
        let snap_executed = sim.events_executed();

        let mut first = prefix.clone();
        sim.run(&mut first);
        assert_eq!(first, expect, "prefix + tail must equal the fresh run");
        assert_eq!(sim.events_executed(), expect_executed);
        assert_eq!(sim.now(), expect_now);

        // Restore over the drained engine and replay the tail again; the
        // same snapshot must fork any number of times.
        for round in 0..3 {
            sim.clone_from(&snap);
            assert_eq!(sim.events_executed(), snap_executed);
            assert_eq!(sim.now(), snap.now());
            let mut again = prefix.clone();
            sim.run(&mut again);
            assert_eq!(
                again, expect,
                "restored engine must replay bit-identically (round {round})"
            );
            assert_eq!(sim.events_executed(), expect_executed);
            assert_eq!(sim.now(), expect_now);
        }
    }

    #[test]
    fn snapshot_preserves_free_list_and_generations() {
        // EventIds minted after a restore must match those minted after
        // the original point: slot recycling order and generations are
        // part of the capture.
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        for _ in 0..8 {
            sim.after(d(1), nop, 0);
        }
        sim.after(d(10), nop, 0);
        sim.run_until(&mut w, SimTime::from_ns(5));
        let snap = sim.clone();
        let a = sim.after(d(1), nop, 0);
        let b = sim.after(d(2), nop, 0);
        sim.clone_from(&snap);
        let a2 = sim.after(d(1), nop, 0);
        let b2 = sim.after(d(2), nop, 0);
        assert_eq!((a, b), (a2, b2), "post-restore EventIds must replay");
        sim.run(&mut w);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        sim.after(
            d(10),
            |w: &mut World, sim: &mut Sim<World>, _| {
                w.push(1);
                sim.after(d(5), push, 2);
            },
            0,
        );
        sim.run(&mut w);
        assert_eq!(w, vec![1, 2]);
        assert_eq!(sim.now(), SimTime::from_ns(15));
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        let id = sim.after(d(10), push, 99);
        sim.after(d(20), push, 1);
        sim.cancel(id);
        sim.run(&mut w);
        assert_eq!(w, vec![1]);
        // executed counts only live events
        assert_eq!(sim.events_executed(), 1);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        let id = sim.after(d(1), push, 7);
        sim.run(&mut w);
        sim.cancel(id);
        sim.after(d(1), push, 8);
        sim.run(&mut w);
        assert_eq!(w, vec![7, 8]);
    }

    #[test]
    fn past_times_clamp_to_now() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        sim.after(
            d(100),
            |w: &mut World, sim: &mut Sim<World>, _| {
                w.push(1);
                // Scheduling "in the past" runs at the current instant.
                sim.at(
                    SimTime::from_ns(10),
                    |w: &mut World, sim: &mut Sim<World>, _| {
                        w.push(2);
                        assert_eq!(sim.now(), SimTime::from_ns(100));
                    },
                    0,
                );
            },
            0,
        );
        sim.run(&mut w);
        assert_eq!(w, vec![1, 2]);
    }

    #[test]
    fn event_limit_detects_livelock() {
        let mut sim: Sim<World> = Sim::new().with_event_limit(1000);
        let mut w = Vec::new();
        fn respawn(_: &mut World, sim: &mut Sim<World>, _: u64) {
            sim.after(SimDuration::from_ns(1), respawn, 0);
        }
        sim.after(d(1), respawn, 0);
        assert_eq!(sim.run(&mut w), RunOutcome::EventLimit);
        assert_eq!(sim.events_executed(), 1000);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        for i in 1..=5 {
            sim.at(SimTime::from_ns(i * 10), push, i);
        }
        sim.run_until(&mut w, SimTime::from_ns(30));
        assert_eq!(w, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_ns(30));
        sim.run(&mut w);
        assert_eq!(w, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn soon_runs_after_current_instant_queue() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        sim.after(
            d(10),
            |w: &mut World, sim: &mut Sim<World>, _| {
                sim.soon(push, 2);
                w.push(1);
            },
            0,
        );
        sim.after(d(10), push, 3);
        sim.run(&mut w);
        // Event at t=10 scheduled first runs first; `soon` lands after the
        // other already-queued t=10 event because of sequence ordering.
        assert_eq!(w, vec![1, 3, 2]);
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut sim: Sim<World> = Sim::new();
        let id = sim.after(d(5), nop, 0);
        sim.after(d(9), nop, 0);
        sim.cancel(id);
        assert_eq!(sim.peek_time(), Some(SimTime::from_ns(9)));
    }

    #[test]
    fn slots_are_recycled_and_stale_ids_stay_dead() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        let a = sim.after(d(1), push, 1);
        sim.run(&mut w);
        // The slot is recycled for the next event; the stale id must not
        // cancel the new occupant.
        let b = sim.after(d(1), push, 2);
        assert_eq!(a.0 as u32, b.0 as u32, "same slot");
        assert_ne!(a, b, "new generation");
        sim.cancel(a);
        sim.run(&mut w);
        assert_eq!(w, vec![1, 2]);
    }

    #[test]
    fn far_future_events_cross_the_wheel_horizon() {
        // Events far beyond the wheel horizon (overflow heap) must still
        // interleave correctly with near events and same-time ties.
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        let horizon = BUCKETS as u64;
        sim.at(SimTime::from_ns(3 * horizon), push, 4);
        sim.at(SimTime::from_ns(2 * horizon + 7), push, 2);
        sim.at(SimTime::from_ns(2 * horizon + 7), push, 3);
        sim.at(SimTime::from_ns(5), push, 1);
        sim.run(&mut w);
        assert_eq!(w, vec![1, 2, 3, 4]);
        assert_eq!(sim.now(), SimTime::from_ns(3 * horizon));
    }

    #[test]
    fn pending_reports_live_events_only() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        let a = sim.after(d(1), nop, 0);
        sim.after(d(2), nop, 0);
        sim.after(d(3), nop, 0);
        assert_eq!(sim.pending(), 3);
        sim.cancel(a);
        assert_eq!(sim.pending(), 2, "cancelled events are not pending");
        assert_eq!(sim.peak_pending(), 3);
        sim.step(&mut w);
        assert_eq!(sim.pending(), 1);
        sim.run(&mut w);
        assert_eq!(sim.pending(), 0);
        assert_eq!(sim.events_executed(), 2);
    }

    #[test]
    fn cancel_overflow_and_bucket_entries() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        let horizon = BUCKETS as u64;
        let far = sim.at(SimTime::from_ns(2 * horizon), push, 99);
        let near = sim.at(SimTime::from_ns(50), push, 98);
        sim.at(SimTime::from_ns(60), push, 1);
        sim.cancel(far);
        sim.cancel(near);
        assert_eq!(sim.peek_time(), Some(SimTime::from_ns(60)));
        sim.run(&mut w);
        assert_eq!(w, vec![1]);
        assert_eq!(sim.pending(), 0);
    }

    /// Far enough ahead that [`schedule_tie`]'s first events land in the
    /// overflow heap, yet within reach of the wheel from its setup event.
    const TIE: u64 = 2 * BUCKETS as u64;

    /// Two overflow events at `TIE` (payloads 100, 101), then, from an
    /// event at `TIE - 10`, four wheel events at `TIE` (1..=4) of which
    /// the second is cancelled: one bucket holding several entries that
    /// shares its instant with live overflow entries.
    fn schedule_tie(sim: &mut Sim<World>) {
        fn fill(_: &mut World, sim: &mut Sim<World>, _: u64) {
            for a in 1..=4 {
                let id = sim.at(SimTime::from_ns(TIE), push, a);
                if a == 2 {
                    sim.cancel(id);
                }
            }
        }
        sim.at(SimTime::from_ns(TIE), push, 100);
        sim.at(SimTime::from_ns(TIE), push, 101);
        sim.at(SimTime::from_ns(TIE - 10), fill, 0);
    }

    #[test]
    fn bucket_tied_with_overflow_fires_in_seq_order() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        schedule_tie(&mut sim);
        sim.run_until(&mut w, SimTime::from_ns(TIE - 1));
        assert_eq!(sim.overflow.len(), 2, "tied entries wait in the heap");
        assert_eq!(sim.wheel_len, 4, "and in one bucket");
        assert_eq!(sim.peek_time(), Some(SimTime::from_ns(TIE)));
        assert_eq!(sim.run(&mut w), RunOutcome::Drained);
        assert_eq!(w, vec![100, 101, 1, 3, 4]);
        assert_eq!(sim.now(), SimTime::from_ns(TIE));
        assert_eq!(sim.leak_check(), 0, "the cancelled entry is reclaimed");
    }

    #[test]
    fn peek_time_reclaims_an_all_cancelled_bucket() {
        let mut sim: Sim<World> = Sim::new();
        let doomed: Vec<EventId> = (0..4).map(|_| sim.after(d(5), nop, 0)).collect();
        sim.after(d(9), nop, 0);
        for id in doomed {
            sim.cancel(id);
        }
        assert_eq!(sim.leak_check(), 5);
        assert_eq!(sim.peek_time(), Some(SimTime::from_ns(9)));
        assert_eq!(sim.leak_check(), 1, "all four slots reclaimed");
        assert_eq!(sim.wheel_len, 1);

        // An all-cancelled bucket tied with a live overflow entry keeps
        // its instant live.
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        sim.at(SimTime::from_ns(TIE), push, 7);
        sim.run_until(&mut w, SimTime::from_ns(TIE - 5));
        let ids: Vec<EventId> = (0..3)
            .map(|_| sim.at(SimTime::from_ns(TIE), push, 8))
            .collect();
        for id in ids {
            sim.cancel(id);
        }
        assert_eq!(sim.peek_time(), Some(SimTime::from_ns(TIE)));
        assert_eq!(sim.wheel_len, 3, "the tied bucket waits for the advance");
        sim.run(&mut w);
        assert_eq!(w, vec![7]);
        assert_eq!(sim.leak_check(), 0);
    }

    #[test]
    fn snapshot_of_a_tied_bucket_replays_and_mints_the_same_ids() {
        let mut sim: Sim<World> = Sim::new();
        let mut prefix = Vec::new();
        schedule_tie(&mut sim);
        sim.run_until(&mut prefix, SimTime::from_ns(TIE - 1));
        let snap = sim.clone();
        // Replay the tail, then mint fresh ids from the drained engine.
        let tail = |sim: &mut Sim<World>| {
            let mut w = prefix.clone();
            assert_eq!(sim.run(&mut w), RunOutcome::Drained);
            let ids: Vec<EventId> = (0..6).map(|i| sim.after(d(i), push, i)).collect();
            sim.run(&mut w);
            (w, sim.events_executed(), sim.now(), ids)
        };
        let expect = tail(&mut sim);
        assert_eq!(expect.0[..5], [100, 101, 1, 3, 4]);
        for round in 0..2 {
            sim.clone_from(&snap);
            assert_eq!(sim.wheel_len, 4);
            assert_eq!(tail(&mut sim), expect, "restore round {round}");
        }
    }

    #[test]
    fn leak_audit_clean_after_drain() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        let horizon = BUCKETS as u64;
        let a = sim.after(d(5), nop, 0);
        let b = sim.at(SimTime::from_ns(2 * horizon), nop, 0);
        sim.after(d(7), push, 1);
        sim.cancel(a);
        sim.cancel(b);
        assert!(!sim.quiesced());
        assert_eq!(sim.run(&mut w), RunOutcome::Drained);
        assert!(sim.quiesced());
        assert_eq!(sim.leak_check(), 0, "drained run must reclaim all slots");
        // Scheduling again un-quiesces.
        sim.after(d(1), nop, 0);
        assert!(!sim.quiesced());
        assert!(sim.leak_check() > 0);
        sim.run(&mut w);
        assert!(sim.quiesced());
    }

    #[test]
    fn leak_audit_ignores_mid_run_drop() {
        // Dropping with events still pending is legal (run_until, early
        // teardown): the audit only arms after a true quiesce.
        let mut sim: Sim<World> = Sim::new();
        sim.after(d(5), nop, 0);
        let mut w = Vec::new();
        sim.run_until(&mut w, SimTime::from_ns(1));
        assert!(!sim.quiesced());
        drop(sim);
    }
}
