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
//! - **Slab arena.** Every scheduled event lives in a slot of a `Vec`
//!   backed slab with an intrusive free list; slots are recycled, so the
//!   steady state allocates nothing. [`EventId`] packs the slot index
//!   with a per-slot generation counter, so a stale id (the event fired
//!   or was cancelled, and the slot was reused) can never touch the
//!   wrong event. Cancellation just marks the slot — O(1), no queue
//!   surgery, no tombstone set.
//!
//! - **Two-tier queue.** Tier 0 is a FIFO ring holding the events of
//!   the *current instant* in seq order; `soon()` and same-timestamp
//!   bursts append and pop at O(1). Tier 1 is a timer wheel of
//!   `BUCKETS` power-of-two-width buckets covering a rolling horizon
//!   of `BUCKETS << BUCKET_SHIFT` ns, with a `BinaryHeap` overflow for
//!   events beyond the horizon. Advancing to the next instant scans a
//!   hierarchical occupancy bitmap for the first nonempty bucket,
//!   extracts everything at the minimum timestamp (from the bucket and
//!   the overflow top, either of which may hold it), sorts that batch
//!   by seq, and refills the ring.
//!
//! - **Closure-free fast path.** The dominant runtime events (message
//!   delivery, kernel/DMA completion, progress ticks) are plain
//!   functions plus one or two integer payload words. The
//!   `*_call0/1/2` scheduling entry points store a bare `fn` pointer
//!   and the words inline in the slot — no `Box`, no vtable. Capturing
//!   closures still work through the original [`Sim::at`] family as a
//!   general fallback.
//!
//! Determinism is unchanged from the original heap engine: the firing
//! order is exactly lexicographic `(time, seq)`. The ring is sorted by
//! seq because fresh seqs are globally increasing and batches are
//! seq-sorted on extraction; a bucket always holds a single absolute
//! bucket's worth of times (the horizon invariant `at >> BUCKET_SHIFT <
//! base + BUCKETS` is preserved as `now` advances because pending times
//! never precede `now`); and the overflow top is compared against the
//! wheel minimum on every advance, so far-future events that have
//! drifted inside the horizon still fire at the right instant.
//!
//! One `Sim` is deliberately single-threaded: determinism and
//! reproducibility of the *simulated* machine matter far more here than
//! wall-clock parallelism of one run. Host parallelism lives one level
//! up, in the scenario sweep pool (`gaat-sweep`), which runs many
//! independent simulations concurrently, one engine per worker thread.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::{SimDuration, SimTime};

/// Log2 of the bucket width in ns. Kept at 0 — one bucket per
/// nanosecond — so a bucket is exactly one instant: the advance path
/// drains whole buckets with no per-instant rescans, and the minimum
/// timestamp of a bucket is just its first entry's.
const BUCKET_SHIFT: u32 = 0;
/// Number of wheel buckets (power of two). Horizon = BUCKETS << BUCKET_SHIFT
/// = ~65 us, which covers the runtime's dominant delays (same-instant
/// callbacks, sub-us hops, network latencies, short kernels); events
/// further out wait in the overflow heap until their instant arrives.
const BUCKETS: usize = 65536;
/// Words in the bucket-occupancy bitmap.
const OCC_WORDS: usize = BUCKETS / 64;

/// Identifier of a scheduled event, usable to cancel it before it fires.
///
/// Packs a slab slot index with that slot's generation; ids held past
/// the event's firing (or cancellation) go stale and are ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    #[inline]
    fn pack(idx: u32, generation: u32) -> Self {
        EventId(((generation as u64) << 32) | idx as u64)
    }

    #[inline]
    fn idx(self) -> u32 {
        self.0 as u32
    }

    #[inline]
    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Boxed event closure over the world type `W`.
///
/// The closure is `Send` so a whole `Sim` (and the world it drives) can be
/// handed to another host thread.
pub type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Sim<W>) + Send>;

/// What runs when an event fires. `Call0/1/2` are the closure-free fast
/// path: a bare `fn` pointer plus payload words, stored inline.
enum EventKind<W> {
    /// Slot is on the free list.
    Vacant,
    /// Event was cancelled; the slot is freed when the queue reaches it.
    Cancelled,
    /// General fallback: a boxed capturing closure.
    Closure(EventFn<W>),
    /// Plain function, no payload.
    Call0(fn(&mut W, &mut Sim<W>)),
    /// Plain function plus one payload word.
    Call1(fn(&mut W, &mut Sim<W>, u64), u64),
    /// Plain function plus two payload words.
    Call2(fn(&mut W, &mut Sim<W>, u64, u64), u64, u64),
}

impl<W> EventKind<W> {
    #[inline]
    fn is_live(&self) -> bool {
        !matches!(self, EventKind::Vacant | EventKind::Cancelled)
    }

    /// Duplicate this event payload for a [`SimSnapshot`]. The
    /// closure-free kinds are plain data (`fn` pointers + words) and
    /// copy freely; a pending boxed closure cannot be cloned, so its
    /// presence makes the whole snapshot decline.
    fn try_clone(&self) -> Result<Self, SnapshotError> {
        Ok(match self {
            EventKind::Vacant => EventKind::Vacant,
            EventKind::Cancelled => EventKind::Cancelled,
            EventKind::Closure(_) => return Err(SnapshotError::ClosureEvent),
            EventKind::Call0(f) => EventKind::Call0(*f),
            EventKind::Call1(f, a) => EventKind::Call1(*f, *a),
            EventKind::Call2(f, a, b) => EventKind::Call2(*f, *a, *b),
        })
    }
}

/// One slab slot. `next_free` threads the free list through vacant slots.
struct Slot<W> {
    generation: u32,
    next_free: u32,
    seq: u64,
    at: SimTime,
    kind: EventKind<W>,
}

const NO_SLOT: u32 = u32::MAX;

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
    /// An event called [`Sim::stop`].
    Stopped,
    /// The configured event-count limit was hit (likely a livelock in the
    /// model; surfaced loudly rather than spinning forever).
    EventLimit,
}

/// Why [`Sim::snapshot`] declined to capture the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// A pending event is a boxed capturing closure ([`Sim::at`] family),
    /// which cannot be cloned into a snapshot. Callers treat this as
    /// "decline to fork" and fall back to fresh per-scenario execution.
    ClosureEvent,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::ClosureEvent => {
                write!(f, "pending boxed-closure event cannot be snapshotted")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A point-in-time capture of a [`Sim`]'s complete pending-event state:
/// the clock, every counter, the full slab arena (including vacant
/// slots, so the free-list order and per-slot generations — and with
/// them every future [`EventId`] — replay exactly), the current
/// instant's FIFO ring, the occupied wheel buckets, and the overflow
/// heap. [`Sim::restore`] rewinds an engine to this state; the restored
/// engine then replays bit-identically to one that ran fresh to the
/// same point.
///
/// Only closure-free events (`*_call0/1/2`) can be captured; a pending
/// boxed closure makes [`Sim::snapshot`] return
/// [`SnapshotError::ClosureEvent`].
pub struct SimSnapshot<W> {
    now: SimTime,
    next_seq: u64,
    executed: u64,
    stop: bool,
    event_limit: u64,
    live: usize,
    peak_pending: usize,
    drained: bool,
    slots: Vec<Slot<W>>,
    free_head: u32,
    ring: Vec<u32>,
    ring_at: SimTime,
    /// `(bucket index, entries)` for every occupied wheel bucket.
    buckets: Vec<(u32, Vec<u32>)>,
    overflow: Vec<OvEntry>,
}

impl<W> SimSnapshot<W> {
    /// Simulated time at which the snapshot was taken.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Live pending events captured in the snapshot.
    #[inline]
    pub fn pending(&self) -> usize {
        self.live
    }
}

/// A deterministic discrete-event simulator over world type `W`.
pub struct Sim<W> {
    now: SimTime,
    next_seq: u64,
    executed: u64,
    stop: bool,
    event_limit: u64,
    /// Live (scheduled, not yet fired or cancelled) event count.
    live: usize,
    peak_pending: usize,
    /// True once a run fully drained the queue and nothing has been
    /// scheduled since; gates the teardown leak audit.
    drained: bool,

    // Slab arena.
    slots: Vec<Slot<W>>,
    free_head: u32,

    // Tier 0: the current instant's events, slot indices in seq order.
    ring: VecDeque<u32>,
    /// Timestamp shared by every entry in `ring`.
    ring_at: SimTime,

    // Tier 1: timer wheel + occupancy bitmap + far-future overflow.
    buckets: Vec<Vec<u32>>,
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

impl<W> Sim<W> {
    /// A fresh simulator at time zero with the default event limit.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            next_seq: 0,
            executed: 0,
            stop: false,
            event_limit: u64::MAX,
            live: 0,
            peak_pending: 0,
            drained: false,
            slots: Vec::new(),
            free_head: NO_SLOT,
            ring: VecDeque::new(),
            ring_at: SimTime::ZERO,
            buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
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
    /// 65536-bucket wheel, the ring, the overflow heap, and the scratch
    /// buffer all retain their capacity. A reset engine replays any
    /// schedule bit-identically to a fresh one: the slab restarts at
    /// slot 0 / generation 0, sequence numbers restart at 0, and the
    /// clock returns to zero. Only the event limit survives the reset.
    ///
    /// This is the world-slot reuse hook: the sweep engine resets one
    /// engine per worker between scenarios instead of re-allocating the
    /// ~1.5 MB wheel for every run.
    pub fn reset(&mut self) {
        self.now = SimTime::ZERO;
        self.next_seq = 0;
        self.executed = 0;
        self.stop = false;
        self.live = 0;
        self.peak_pending = 0;
        self.drained = false;
        // Dropping the slots runs any boxed-closure destructors;
        // `clear` keeps the Vec's capacity.
        self.slots.clear();
        self.free_head = NO_SLOT;
        self.ring.clear();
        self.ring_at = SimTime::ZERO;
        self.clear_wheel();
        self.overflow.clear();
        self.scratch.clear();
    }

    /// Empty every occupied wheel bucket and zero the occupancy bitmap,
    /// keeping all bucket capacity. A bucket is nonempty iff its
    /// occupancy bit is set (both are cleared together in `advance`),
    /// so scanning the bitmap clears the wheel in
    /// O(words + occupied buckets) instead of touching all 65536
    /// bucket headers.
    fn clear_wheel(&mut self) {
        if self.wheel_len > 0 {
            for w in 0..OCC_WORDS {
                let mut word = self.occ[w];
                while word != 0 {
                    let b = word.trailing_zeros() as usize;
                    self.buckets[w * 64 + b].clear();
                    word &= word - 1;
                }
                self.occ[w] = 0;
            }
            self.wheel_len = 0;
        } else {
            debug_assert!(self.occ.iter().all(|&w| w == 0), "occ/wheel_len drift");
        }
    }

    /// Capture the engine's complete pending-event state. Fails with
    /// [`SnapshotError::ClosureEvent`] if any slab slot holds a boxed
    /// capturing closure; the closure-free `*_call0/1/2` events the
    /// runtime schedules on its steady-state paths all capture cleanly.
    ///
    /// The capture is deep: vacant slots are recorded too, so the
    /// free-list threading and per-slot generation counters — and with
    /// them the exact [`EventId`]s future scheduling will mint — replay
    /// identically after [`Sim::restore`].
    pub fn snapshot(&self) -> Result<SimSnapshot<W>, SnapshotError> {
        let mut slots = Vec::with_capacity(self.slots.len());
        for s in &self.slots {
            slots.push(Slot {
                generation: s.generation,
                next_free: s.next_free,
                seq: s.seq,
                at: s.at,
                kind: s.kind.try_clone()?,
            });
        }
        let mut buckets = Vec::new();
        for w in 0..OCC_WORDS {
            let mut word = self.occ[w];
            while word != 0 {
                let b = word.trailing_zeros() as usize;
                let bi = w * 64 + b;
                buckets.push((bi as u32, self.buckets[bi].clone()));
                word &= word - 1;
            }
        }
        Ok(SimSnapshot {
            now: self.now,
            next_seq: self.next_seq,
            executed: self.executed,
            stop: self.stop,
            event_limit: self.event_limit,
            live: self.live,
            peak_pending: self.peak_pending,
            drained: self.drained,
            slots,
            free_head: self.free_head,
            ring: self.ring.iter().copied().collect(),
            ring_at: self.ring_at,
            buckets,
            overflow: self.overflow.iter().copied().collect(),
        })
    }

    /// Rewind this engine to the exact state captured by
    /// [`Sim::snapshot`], keeping every heap allocation (like
    /// [`Sim::reset`]). After restoring, the engine replays
    /// bit-identically to one that ran fresh to the snapshot point: the
    /// clock, sequence counter, slab generations, free list, ring,
    /// wheel, and overflow heap all match. One snapshot can be restored
    /// any number of times — the fork primitive the sweep memoizer
    /// builds on.
    pub fn restore(&mut self, snap: &SimSnapshot<W>) {
        self.now = snap.now;
        self.next_seq = snap.next_seq;
        self.executed = snap.executed;
        self.stop = snap.stop;
        self.event_limit = snap.event_limit;
        self.live = snap.live;
        self.peak_pending = snap.peak_pending;
        self.drained = snap.drained;
        self.slots.clear();
        for s in &snap.slots {
            self.slots.push(Slot {
                generation: s.generation,
                next_free: s.next_free,
                seq: s.seq,
                at: s.at,
                kind: s
                    .kind
                    .try_clone()
                    .expect("snapshots never hold closure events"),
            });
        }
        self.free_head = snap.free_head;
        self.ring.clear();
        self.ring.extend(snap.ring.iter().copied());
        self.ring_at = snap.ring_at;
        self.clear_wheel();
        for (bi, entries) in &snap.buckets {
            let bi = *bi as usize;
            self.buckets[bi].extend_from_slice(entries);
            self.occ[bi / 64] |= 1u64 << (bi % 64);
            self.wheel_len += entries.len();
        }
        self.overflow.clear();
        self.overflow.extend(snap.overflow.iter().copied());
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

    /// Snapshot of this engine's counters.
    pub fn stats(&self) -> crate::stats::SimStats {
        crate::stats::SimStats {
            events_executed: self.executed,
            pending: self.live as u64,
            peak_pending: self.peak_pending as u64,
        }
    }

    // ----- slab -----

    #[inline]
    fn alloc(&mut self, at: SimTime, seq: u64, kind: EventKind<W>) -> (u32, u32) {
        if self.free_head != NO_SLOT {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            self.free_head = slot.next_free;
            slot.next_free = NO_SLOT;
            slot.seq = seq;
            slot.at = at;
            slot.kind = kind;
            (idx, slot.generation)
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot {
                generation: 0,
                next_free: NO_SLOT,
                seq,
                at,
                kind,
            });
            (idx, 0)
        }
    }

    /// Return a slot to the free list, bumping its generation so stale
    /// [`EventId`]s can never reach the next occupant.
    #[inline]
    fn free(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        slot.kind = EventKind::Vacant;
        slot.generation = slot.generation.wrapping_add(1);
        slot.next_free = self.free_head;
        self.free_head = idx;
    }

    // ----- scheduling -----

    fn schedule(&mut self, at: SimTime, kind: EventKind<W>) -> EventId {
        self.drained = false;
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let (idx, generation) = self.alloc(at, seq, kind);
        if at == self.now && (self.ring.is_empty() || self.ring_at == self.now) {
            // Current instant: straight onto the ring. Fresh seqs are
            // globally increasing, so appending keeps the ring seq-sorted.
            self.ring_at = self.now;
            self.ring.push_back(idx);
        } else {
            let abs = at.as_ns() >> BUCKET_SHIFT;
            let base = self.now.as_ns() >> BUCKET_SHIFT;
            if abs - base < BUCKETS as u64 {
                let bi = (abs & (BUCKETS as u64 - 1)) as usize;
                self.buckets[bi].push(idx);
                self.occ[bi / 64] |= 1u64 << (bi % 64);
                self.wheel_len += 1;
            } else {
                self.overflow.push(OvEntry { at, seq, slot: idx });
            }
        }
        self.live += 1;
        if self.live > self.peak_pending {
            self.peak_pending = self.live;
        }
        EventId::pack(idx, generation)
    }

    /// Schedule `f` to run at absolute time `at`. Times in the past are
    /// clamped to "now" (the event still runs, after already-queued events
    /// at the current instant).
    pub fn at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut W, &mut Sim<W>) + Send + 'static,
    ) -> EventId {
        self.schedule(at, EventKind::Closure(Box::new(f)))
    }

    /// Schedule `f` to run `delay` after the current time.
    pub fn after(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut W, &mut Sim<W>) + Send + 'static,
    ) -> EventId {
        self.at(self.now + delay, f)
    }

    /// Schedule `f` at the current instant, after all events already queued
    /// for this instant.
    pub fn soon(&mut self, f: impl FnOnce(&mut W, &mut Sim<W>) + Send + 'static) -> EventId {
        self.at(self.now, f)
    }

    /// Closure-free fast path: schedule a plain function at `at`.
    pub fn at_call0(&mut self, at: SimTime, f: fn(&mut W, &mut Sim<W>)) -> EventId {
        self.schedule(at, EventKind::Call0(f))
    }

    /// Closure-free fast path: schedule a plain function plus one payload
    /// word at `at`.
    pub fn at_call1(&mut self, at: SimTime, f: fn(&mut W, &mut Sim<W>, u64), a: u64) -> EventId {
        self.schedule(at, EventKind::Call1(f, a))
    }

    /// Closure-free fast path: schedule a plain function plus two payload
    /// words at `at`.
    pub fn at_call2(
        &mut self,
        at: SimTime,
        f: fn(&mut W, &mut Sim<W>, u64, u64),
        a: u64,
        b: u64,
    ) -> EventId {
        self.schedule(at, EventKind::Call2(f, a, b))
    }

    /// [`Sim::at_call0`] relative to the current time.
    pub fn after_call0(&mut self, delay: SimDuration, f: fn(&mut W, &mut Sim<W>)) -> EventId {
        self.at_call0(self.now + delay, f)
    }

    /// [`Sim::at_call1`] relative to the current time.
    pub fn after_call1(
        &mut self,
        delay: SimDuration,
        f: fn(&mut W, &mut Sim<W>, u64),
        a: u64,
    ) -> EventId {
        self.at_call1(self.now + delay, f, a)
    }

    /// [`Sim::at_call2`] relative to the current time.
    pub fn after_call2(
        &mut self,
        delay: SimDuration,
        f: fn(&mut W, &mut Sim<W>, u64, u64),
        a: u64,
        b: u64,
    ) -> EventId {
        self.at_call2(self.now + delay, f, a, b)
    }

    /// [`Sim::at_call0`] at the current instant.
    pub fn soon_call0(&mut self, f: fn(&mut W, &mut Sim<W>)) -> EventId {
        self.at_call0(self.now, f)
    }

    /// [`Sim::at_call1`] at the current instant.
    pub fn soon_call1(&mut self, f: fn(&mut W, &mut Sim<W>, u64), a: u64) -> EventId {
        self.at_call1(self.now, f, a)
    }

    /// [`Sim::at_call2`] at the current instant.
    pub fn soon_call2(&mut self, f: fn(&mut W, &mut Sim<W>, u64, u64), a: u64, b: u64) -> EventId {
        self.at_call2(self.now, f, a, b)
    }

    /// Cancel a previously scheduled event. Cancelling an event that
    /// already fired (or was already cancelled) is a no-op: the id has
    /// gone stale and no longer matches its slot's generation.
    pub fn cancel(&mut self, id: EventId) {
        let idx = id.idx() as usize;
        if let Some(slot) = self.slots.get_mut(idx) {
            if slot.generation == id.generation() && slot.kind.is_live() {
                // Drop the payload now (releases captured resources);
                // the slot itself is reclaimed when the queue reaches it.
                slot.kind = EventKind::Cancelled;
                self.live -= 1;
            }
        }
    }

    /// Ask the run loop to return after the current event completes.
    pub fn stop(&mut self) {
        self.stop = true;
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

    /// Earliest timestamp in the wheel and its bucket index. With
    /// one-instant buckets every entry in a bucket shares its timestamp,
    /// so this is one bitmap scan plus one slot read — no bucket scan.
    /// Cancelled entries keep their `at` until reclaimed, so they are
    /// counted here and skipped cheaply at ring pop.
    fn wheel_min(&mut self) -> Option<(usize, SimTime)> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = ((self.now.as_ns() >> BUCKET_SHIFT) as usize) & (BUCKETS - 1);
        let bi = self.next_occupied(start).expect("wheel_len > 0");
        let first = self.buckets[bi][0];
        Some((bi, self.slots[first as usize].at))
    }

    /// Earliest live overflow timestamp, popping cancelled tops.
    fn overflow_min(&mut self) -> Option<SimTime> {
        while let Some(top) = self.overflow.peek() {
            if self.slots[top.slot as usize].kind.is_live() {
                return Some(top.at);
            }
            let dead = self.overflow.pop().expect("peeked entry vanished");
            self.free(dead.slot);
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
            // globally, so the bucket is already seq-sorted — move it
            // straight onto the ring without touching the slots.
            let (bi, _) = wheel.expect("no overflow tie implies a wheel hit");
            self.wheel_len -= self.buckets[bi].len();
            self.ring_at = t;
            for s in self.buckets[bi].drain(..) {
                self.ring.push_back(s);
            }
            self.occ[bi / 64] &= !(1u64 << (bi % 64));
            return !self.ring.is_empty();
        }
        self.scratch.clear();
        if let Some((bi, wt)) = wheel {
            if wt == t {
                // One-instant buckets: drain the whole bucket. Cancelled
                // entries ride along and are reclaimed at ring pop.
                self.wheel_len -= self.buckets[bi].len();
                for s in self.buckets[bi].drain(..) {
                    self.scratch.push((self.slots[s as usize].seq, s));
                }
                self.occ[bi / 64] &= !(1u64 << (bi % 64));
            }
        }
        while let Some(top) = self.overflow.peek() {
            if top.at != t {
                break;
            }
            let e = self.overflow.pop().expect("peeked entry vanished");
            if self.slots[e.slot as usize].kind.is_live() {
                self.scratch.push((e.seq, e.slot));
            } else {
                self.free(e.slot);
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
            let kind = std::mem::replace(&mut self.slots[idx as usize].kind, EventKind::Vacant);
            debug_assert!(self.ring_at >= self.now, "time went backwards");
            match kind {
                EventKind::Vacant => unreachable!("vacant slot on the ring"),
                EventKind::Cancelled => {
                    self.free(idx);
                    continue;
                }
                live => {
                    self.now = self.ring_at;
                    self.executed += 1;
                    self.live -= 1;
                    // Free before dispatch so the slot is reusable and the
                    // event's own id is stale during its callback.
                    self.free(idx);
                    match live {
                        EventKind::Closure(f) => f(world, self),
                        EventKind::Call0(f) => f(world, self),
                        EventKind::Call1(f, a) => f(world, self, a),
                        EventKind::Call2(f, a, b) => f(world, self, a, b),
                        EventKind::Vacant | EventKind::Cancelled => unreachable!(),
                    }
                    return true;
                }
            }
        }
    }

    /// Run until the queue drains, [`Sim::stop`] is called, or the event
    /// limit is reached.
    pub fn run(&mut self, world: &mut W) -> RunOutcome {
        self.stop = false;
        loop {
            if self.stop {
                return RunOutcome::Stopped;
            }
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
    /// `deadline` still run), the queue drains, stop is requested, or the
    /// event limit is reached. The clock is left at
    /// `min(deadline, time of last executed event)`.
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) -> RunOutcome {
        self.stop = false;
        loop {
            if self.stop {
                return RunOutcome::Stopped;
            }
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

    /// Audit the slab arena: the number of slots still holding an event
    /// payload (live, or cancelled but not yet reclaimed). A fully
    /// drained run leaves zero — cancelled entries are reclaimed as the
    /// queue reaches their instant — so a nonzero count after quiesce
    /// means an event leaked (e.g. a retry layer re-arming a wakeup it
    /// believed cancelled). Debug builds run this check automatically
    /// when the `Sim` is dropped after quiesce.
    pub fn leak_check(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !matches!(s.kind, EventKind::Vacant))
            .count()
    }

    /// Timestamp of the next live (non-cancelled) pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Clean cancelled entries off the ring front.
        while let Some(&idx) = self.ring.front() {
            if self.slots[idx as usize].kind.is_live() {
                return Some(self.ring_at);
            }
            self.ring.pop_front();
            self.free(idx);
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
                let all_dead = !self.buckets[bi]
                    .iter()
                    .any(|&s| self.slots[s as usize].kind.is_live());
                if all_dead {
                    // A live overflow entry can share the instant with a
                    // fully cancelled bucket; the instant is then live.
                    if over == Some(t) {
                        return Some(t);
                    }
                    self.wheel_len -= self.buckets[bi].len();
                    while let Some(s) = self.buckets[bi].pop() {
                        self.free(s);
                    }
                    self.occ[bi / 64] &= !(1u64 << (bi % 64));
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

    #[test]
    fn events_fire_in_time_order() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        sim.after(d(30), |w: &mut World, _| w.push(3));
        sim.after(d(10), |w: &mut World, _| w.push(1));
        sim.after(d(20), |w: &mut World, _| w.push(2));
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
            sim.after(d(5), move |w: &mut World, _| w.push(i));
        }
        sim.run(&mut w);
        assert_eq!(w, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn reset_restores_a_fresh_engine_bit_identically() {
        // The same schedule — near-time wheel buckets, ties, a cancel,
        // and a far-future overflow event — must execute identically on
        // a fresh engine and on a reset one.
        fn drive(sim: &mut Sim<World>) -> (Vec<u32>, u64, SimTime) {
            let mut w = Vec::new();
            for i in 0..50u32 {
                sim.after(d(u64::from(i) * 7 % 40), move |w: &mut World, _| w.push(i));
            }
            sim.after(d(200_000_000), |w: &mut World, _| w.push(999));
            let doomed = sim.after(d(5), |w: &mut World, _| w.push(777));
            sim.cancel(doomed);
            assert_eq!(sim.run(&mut w), RunOutcome::Drained);
            (w, sim.events_executed(), sim.now())
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
        // Same shape as the reset bit-identity pin, but closure-free so
        // the arena can be captured: wheel buckets, ties, a cancel, a
        // far-future overflow event, and events that schedule events.
        fn push(w: &mut World, _: &mut Sim<World>, a: u64) {
            w.push(a as u32);
        }
        fn spawn(w: &mut World, sim: &mut Sim<World>, a: u64) {
            w.push(a as u32);
            sim.after_call1(d(13), push, a + 1000);
        }
        fn build(sim: &mut Sim<World>) {
            for i in 0..40u64 {
                sim.at_call1(SimTime::from_ns(i * 9 % 70), spawn, i);
            }
            sim.at_call1(SimTime::from_ns(200_000_000), push, 999);
            let doomed = sim.at_call1(SimTime::from_ns(33), push, 777);
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
        let snap = sim.snapshot().expect("closure-free schedule must capture");
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
            sim.restore(&snap);
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
        fn nop(_: &mut World, _: &mut Sim<World>) {}
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        for _ in 0..8 {
            sim.after_call0(d(1), nop);
        }
        sim.after_call0(d(10), nop);
        sim.run_until(&mut w, SimTime::from_ns(5));
        let snap = sim.snapshot().expect("closure-free");
        let a = sim.after_call0(d(1), nop);
        let b = sim.after_call0(d(2), nop);
        sim.restore(&snap);
        let a2 = sim.after_call0(d(1), nop);
        let b2 = sim.after_call0(d(2), nop);
        assert_eq!((a, b), (a2, b2), "post-restore EventIds must replay");
        sim.run(&mut w);
    }

    #[test]
    fn snapshot_declines_pending_closures() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        sim.after(d(5), |w: &mut World, _| w.push(1));
        assert_eq!(sim.snapshot().err(), Some(SnapshotError::ClosureEvent));
        // A cancelled closure drops its payload immediately, so the
        // remaining arena is capturable again once live closures fire.
        let doomed = sim.after(d(9), |_: &mut World, _| {});
        sim.cancel(doomed);
        sim.run(&mut w);
        assert_eq!(w, vec![1]);
        assert!(sim.snapshot().is_ok(), "fired/cancelled closures are gone");
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        sim.after(d(10), |w: &mut World, sim: &mut Sim<World>| {
            w.push(1);
            sim.after(d(5), |w: &mut World, _| w.push(2));
        });
        sim.run(&mut w);
        assert_eq!(w, vec![1, 2]);
        assert_eq!(sim.now(), SimTime::from_ns(15));
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        let id = sim.after(d(10), |w: &mut World, _| w.push(99));
        sim.after(d(20), |w: &mut World, _| w.push(1));
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
        let id = sim.after(d(1), |w: &mut World, _| w.push(7));
        sim.run(&mut w);
        sim.cancel(id);
        sim.after(d(1), |w: &mut World, _| w.push(8));
        sim.run(&mut w);
        assert_eq!(w, vec![7, 8]);
    }

    #[test]
    fn past_times_clamp_to_now() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        sim.after(d(100), |w: &mut World, sim: &mut Sim<World>| {
            w.push(1);
            // Scheduling "in the past" runs at the current instant.
            sim.at(
                SimTime::from_ns(10),
                |w: &mut World, sim: &mut Sim<World>| {
                    w.push(2);
                    assert_eq!(sim.now(), SimTime::from_ns(100));
                },
            );
        });
        sim.run(&mut w);
        assert_eq!(w, vec![1, 2]);
    }

    #[test]
    fn stop_halts_the_loop() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        sim.after(d(1), |w: &mut World, sim: &mut Sim<World>| {
            w.push(1);
            sim.stop();
        });
        sim.after(d(2), |w: &mut World, _| w.push(2));
        assert_eq!(sim.run(&mut w), RunOutcome::Stopped);
        assert_eq!(w, vec![1]);
        // The remaining event is still pending and runs on the next run().
        assert_eq!(sim.run(&mut w), RunOutcome::Drained);
        assert_eq!(w, vec![1, 2]);
    }

    #[test]
    fn event_limit_detects_livelock() {
        let mut sim: Sim<World> = Sim::new().with_event_limit(1000);
        let mut w = Vec::new();
        fn respawn(_: &mut World, sim: &mut Sim<World>) {
            sim.after(SimDuration::from_ns(1), respawn);
        }
        sim.after(d(1), respawn);
        assert_eq!(sim.run(&mut w), RunOutcome::EventLimit);
        assert_eq!(sim.events_executed(), 1000);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        for i in 1..=5 {
            sim.at(SimTime::from_ns(i * 10), move |w: &mut World, _| {
                w.push(i as u32)
            });
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
        sim.after(d(10), |w: &mut World, sim: &mut Sim<World>| {
            sim.soon(|w: &mut World, _| w.push(2));
            w.push(1);
        });
        sim.after(d(10), |w: &mut World, _| w.push(3));
        sim.run(&mut w);
        // Event at t=10 scheduled first runs first; `soon` lands after the
        // other already-queued t=10 event because of sequence ordering.
        assert_eq!(w, vec![1, 3, 2]);
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut sim: Sim<World> = Sim::new();
        let id = sim.after(d(5), |_: &mut World, _| {});
        sim.after(d(9), |_: &mut World, _| {});
        sim.cancel(id);
        assert_eq!(sim.peek_time(), Some(SimTime::from_ns(9)));
    }

    #[test]
    fn fast_path_interleaves_with_closures_in_seq_order() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        fn push1(w: &mut World, _: &mut Sim<World>, a: u64) {
            w.push(a as u32);
        }
        fn push2(w: &mut World, _: &mut Sim<World>, a: u64, b: u64) {
            w.push((a + b) as u32);
        }
        sim.after_call1(d(10), push1, 1);
        sim.after(d(10), |w: &mut World, _| w.push(2));
        sim.after_call2(d(10), push2, 1, 2);
        sim.after_call0(d(5), |w: &mut World, _| w.push(0));
        sim.run(&mut w);
        assert_eq!(w, vec![0, 1, 2, 3]);
    }

    #[test]
    fn slots_are_recycled_and_stale_ids_stay_dead() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        let a = sim.after(d(1), |w: &mut World, _| w.push(1));
        sim.run(&mut w);
        // The slot is recycled for the next event; the stale id must not
        // cancel the new occupant.
        let b = sim.after(d(1), |w: &mut World, _| w.push(2));
        assert_eq!(a.idx(), b.idx());
        assert_ne!(a.generation(), b.generation());
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
        let horizon = (BUCKETS as u64) << BUCKET_SHIFT;
        sim.at(SimTime::from_ns(3 * horizon), |w: &mut World, _| w.push(4));
        sim.at(SimTime::from_ns(2 * horizon + 7), |w: &mut World, _| {
            w.push(2)
        });
        sim.at(SimTime::from_ns(2 * horizon + 7), |w: &mut World, _| {
            w.push(3)
        });
        sim.at(SimTime::from_ns(5), |w: &mut World, _| w.push(1));
        sim.run(&mut w);
        assert_eq!(w, vec![1, 2, 3, 4]);
        assert_eq!(sim.now(), SimTime::from_ns(3 * horizon));
    }

    #[test]
    fn pending_reports_live_events_only() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        let a = sim.after(d(1), |_: &mut World, _| {});
        sim.after(d(2), |_: &mut World, _| {});
        sim.after(d(3), |_: &mut World, _| {});
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
        let horizon = (BUCKETS as u64) << BUCKET_SHIFT;
        let far = sim.at(SimTime::from_ns(2 * horizon), |w: &mut World, _| w.push(99));
        let near = sim.at(SimTime::from_ns(50), |w: &mut World, _| w.push(98));
        sim.at(SimTime::from_ns(60), |w: &mut World, _| w.push(1));
        sim.cancel(far);
        sim.cancel(near);
        assert_eq!(sim.peek_time(), Some(SimTime::from_ns(60)));
        sim.run(&mut w);
        assert_eq!(w, vec![1]);
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn leak_audit_clean_after_drain() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = Vec::new();
        let horizon = (BUCKETS as u64) << BUCKET_SHIFT;
        let a = sim.after(d(5), |_: &mut World, _| {});
        let b = sim.at(SimTime::from_ns(2 * horizon), |_: &mut World, _| {});
        sim.after(d(7), |w: &mut World, _| w.push(1));
        sim.cancel(a);
        sim.cancel(b);
        assert!(!sim.quiesced());
        assert_eq!(sim.run(&mut w), RunOutcome::Drained);
        assert!(sim.quiesced());
        assert_eq!(sim.leak_check(), 0, "drained run must reclaim all slots");
        // Scheduling again un-quiesces.
        sim.after(d(1), |_: &mut World, _| {});
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
        sim.after(d(5), |_: &mut World, _| {});
        let mut w = Vec::new();
        sim.run_until(&mut w, SimTime::from_ns(1));
        assert!(!sim.quiesced());
        drop(sim);
    }
}
