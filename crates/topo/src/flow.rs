//! Max-min fair flow simulation over a static link graph, with
//! *incremental* rate recomputation.
//!
//! Rates are piecewise-constant: they only change when a flow starts or
//! finishes. Between those instants every flow drains at its assigned
//! rate, so the caller can sleep until `next_wakeup()` and then call
//! `advance(now)` — an idempotent settle/complete/recompute step — to
//! collect finished flow tokens and learn the next wakeup instant.
//!
//! Rate assignment is progressive water-filling: find the bottleneck
//! link (smallest capacity-left / unfrozen-flows share), freeze every
//! unfrozen flow crossing it at that share, subtract the frozen rates
//! from every link they cross, repeat. Ties break on the lower link id
//! so the result is independent of iteration order.
//!
//! The incremental part: a flow admit/complete can only change the rates
//! of flows in its *bottleneck component* — the transitive closure of
//! "shares a link with" seeded from the changed flow's route. Flows (and
//! links) outside that closure see exactly the same water-filling
//! sub-problem as before, so their rates, ETAs, and link scratch are left
//! untouched, and the per-flow arithmetic inside the component replays
//! the from-scratch op sequence bit for bit (see DESIGN.md "Incremental
//! rate recomputation").
//!
//! The unit of water-filling is a *route class*: all live flows on one
//! exact link sequence. Flows in a class cross the same links, so they
//! enter every dirty closure together and freeze in the same round at
//! the same share; the closure, the freeze loop and the share refresh
//! therefore walk classes, not flows, and only the rate write stays per
//! member. Per-link lists hold classes (each class once per hop while
//! it has members), so a completion or abort touches a link's list only
//! when its class empties. Draining, ETA projection and byte attribution
//! stay per flow.
//!
//! Two further structural choices, both behavior-preserving:
//!
//! - **Deferred recomputation.** Admits and completions only *seed* the
//!   dirty set; the actual water-fill runs lazily at the next query
//!   (`next_wakeup` / a time-advancing `settle`). Rates are only ever
//!   *used* to integrate bytes over an interval or to project ETAs, and
//!   both happen strictly after all same-instant mutations, so merging
//!   the recomputes of one event instant is unobservable — but it halves
//!   the fill count under churny traffic (complete + re-admit at one
//!   instant is one fill, not two or three).
//! - **Pacing by scan.** ETAs live in a mirror kept in admission order
//!   next to the remaining bytes and rates; every fill re-projects the
//!   flows whose rate moved and then takes the next wakeup as the
//!   minimum of that mirror, one contiguous O(live) scan.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::{BusySpan, CongestionSummary, LinkDesc, LinkId, LinkUsage, SolverStats};
use gaat_sim::{SimDuration, SimTime};

/// Flows with no more than this many bytes left are complete. Guards the
/// f64 drain arithmetic against never quite reaching zero.
pub const EPS_BYTES: f64 = 1e-6;

/// Fresh-slot rate sentinel: compares unequal to every real share, so a
/// newly admitted flow is always recorded as changed by its first fill
/// and gets an ETA projection.
const RATE_UNSET: f64 = -1.0;

/// Cold per-link bookkeeping (stats and occupancy). The water-filling
/// scratch lives in packed parallel arrays on [`FlowSim`] instead, so the
/// fill's inner loops touch only a few cache lines.
#[derive(Debug, Clone)]
struct LinkMeta {
    desc: LinkDesc,
    /// Bytes carried by *completed* flows; live flows are attributed at
    /// report time from `total - remaining`.
    bytes: f64,
    busy_ns: u64,
    busy_since: SimTime,
    peak: u32,
}

/// Word-wise multiplicative hash for route keys: a route is a length
/// and a handful of link ids, so one multiply per word keeps the
/// per-admission lookup cheap. Routes come from the topology, not from
/// outside the program, so no collision resistance is needed.
#[derive(Default)]
struct RouteHasher(u64);

impl RouteHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for RouteHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.add(word as u64);
    }

    fn write_usize(&mut self, word: usize) {
        self.add(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Interned route classes. A class is created the first time its route
/// is admitted and lives as long as the [`FlowSim`]; an empty class just
/// sits off every link list until a flow joins it again, so the class
/// count is bounded by the distinct routes the caller ever uses.
#[derive(Debug, Clone, Default)]
struct RouteClasses {
    index: HashMap<Box<[LinkId]>, u32, BuildHasherDefault<RouteHasher>>,
    /// Flat route storage, `stride` link ids per class; avoids one Vec
    /// pointer chase per class in the fill's inner loops.
    route: Vec<u32>,
    route_len: Vec<u32>,
    stride: usize,
    /// Live flow slots of each class (unordered).
    members: Vec<Vec<u32>>,
    /// Fill scratch: frozen this fill when `== epoch`.
    frozen: Vec<u64>,
    /// Closure scratch: in the dirty set when `== epoch`.
    mark: Vec<u64>,
}

impl RouteClasses {
    fn route(&self, c: usize) -> &[u32] {
        &self.route[c * self.stride..c * self.stride + self.route_len[c] as usize]
    }

    /// Class id of `route`, creating the class on first sight.
    fn intern(&mut self, route: &[LinkId]) -> u32 {
        if let Some(&c) = self.index.get(route) {
            return c;
        }
        if route.len() > self.stride {
            // Grow the stride so the route fits, re-laying out the arena.
            let new_stride = route.len().next_power_of_two();
            let mut arena = vec![0u32; self.route_len.len() * new_stride];
            for c in 0..self.route_len.len() {
                let n = self.route_len[c] as usize;
                arena[c * new_stride..c * new_stride + n]
                    .copy_from_slice(&self.route[c * self.stride..c * self.stride + n]);
            }
            self.route = arena;
            self.stride = new_stride;
        }
        let c = self.route_len.len() as u32;
        self.route.resize(self.route.len() + self.stride, 0);
        let base = c as usize * self.stride;
        for (slot, l) in self.route[base..base + route.len()].iter_mut().zip(route) {
            *slot = l.0;
        }
        self.route_len.push(route.len() as u32);
        self.members.push(Vec::new());
        self.frozen.push(0);
        self.mark.push(0);
        self.index.insert(route.into(), c);
        c
    }
}

/// The flow-level interconnect state machine. See the module docs.
///
/// Per-flow, per-class and per-link hot state is stored
/// struct-of-arrays: the water-fill, the settle loop, and the closure
/// walk only stream over small contiguous `f64`/`u32` arrays, never over wide
/// structs.
#[derive(Debug, Clone)]
pub struct FlowSim {
    // --- per-flow arrays, indexed by slot ---
    rate: Vec<f64>,
    /// Original byte count (for report-time byte attribution).
    total: Vec<f64>,
    token: Vec<u64>,
    alive: Vec<bool>,
    /// Route class of each flow (its route is the class's).
    class: Vec<u32>,
    /// Position of each live flow in its class's member list.
    cpos: Vec<u32>,

    // --- per-class state ---
    classes: RouteClasses,

    // --- per-link arrays, indexed by link id ---
    lmeta: Vec<LinkMeta>,
    /// Non-empty route classes crossing each link, once per hop
    /// (unordered — the water-filling result is invariant to
    /// within-round freeze order). Changes only when a class empties or
    /// gains its first member.
    lclasses: Vec<Vec<u32>>,
    /// Capacity in bytes per nanosecond.
    lcap: Vec<f64>,
    /// Packed water-fill scratch per link: `[capacity_left,
    /// unfrozen_flow_count]`, one cache line touch per route hop. The
    /// count is f64 so the share division needs no conversion; exact
    /// for any realistic flow count.
    lcu: Vec<[f64; 2]>,
    /// Live-flow count per link (the member counts of its classes summed).
    lactive: Vec<u32>,
    /// Dirty-link scratch, valid when `== epoch`.
    lmark: Vec<u64>,
    /// Position of the link in the fill's candidate list.
    cand_pos: Vec<u32>,

    // --- global state ---
    free: Vec<u32>,
    /// Live flow slots in admission order (drives deterministic
    /// completion ordering).
    live: Vec<u32>,
    /// Remaining bytes / current rate of each live flow, stored compacted
    /// in `live` order so the per-event drain streams over contiguous
    /// `f64`s (and vectorizes) instead of gathering by slot. `rate_live`
    /// mirrors `rate` for live flows; both are maintained by the same
    /// writes that update the slot-indexed arrays.
    rem_live: Vec<f64>,
    rate_live: Vec<f64>,
    /// Projected completion instant of each live flow under the current
    /// rates, in `live` order (`SimTime::MAX` until a fill has seen the
    /// flow); the next wakeup is its minimum, one contiguous scan.
    eta_live: Vec<SimTime>,
    /// Slot -> index in `live` (valid while the flow is live).
    lpos: Vec<u32>,
    /// Instant up to which all flows have been drained.
    settled_at: SimTime,
    /// Cached earliest completion instant across live flows.
    next_eta: Option<SimTime>,
    epoch: u64,
    closed: Vec<BusySpan>,
    record_spans: bool,
    /// A fill is owed before rates/ETAs may next be observed.
    pending: bool,
    // Scratch buffers reused across fills (steady state allocates
    // nothing).
    seed: Vec<u32>,
    cand: Vec<u32>,
    cand_share: Vec<f64>,
    changed: Vec<u32>,
    touched: Vec<u32>,
    emptied: Vec<u32>,
    stats: SolverStats,
}

impl FlowSim {
    /// An idle solver over `links`, indexed by [`LinkId`](crate::LinkId).
    pub fn new(links: Vec<LinkDesc>) -> Self {
        let n = links.len();
        let lmeta = links
            .iter()
            .map(|&desc| LinkMeta {
                desc,
                bytes: 0.0,
                busy_ns: 0,
                busy_since: SimTime::ZERO,
                peak: 0,
            })
            .collect();
        FlowSim {
            rate: Vec::new(),
            total: Vec::new(),
            token: Vec::new(),
            alive: Vec::new(),
            class: Vec::new(),
            cpos: Vec::new(),
            classes: RouteClasses {
                stride: 4,
                ..RouteClasses::default()
            },
            lmeta,
            lclasses: vec![Vec::new(); n],
            lcap: links.iter().map(|&d| d.bw / 1e9).collect(),
            lcu: vec![[0.0; 2]; n],
            lactive: vec![0; n],
            lmark: vec![0; n],
            cand_pos: vec![0; n],
            free: Vec::new(),
            live: Vec::new(),
            rem_live: Vec::new(),
            rate_live: Vec::new(),
            eta_live: Vec::new(),
            lpos: Vec::new(),
            settled_at: SimTime::ZERO,
            next_eta: None,
            epoch: 0,
            closed: Vec::new(),
            record_spans: false,
            pending: false,
            seed: Vec::new(),
            cand: Vec::new(),
            cand_share: Vec::new(),
            changed: Vec::new(),
            touched: Vec::new(),
            emptied: Vec::new(),
            stats: SolverStats::default(),
        }
    }

    /// Record each link's busy intervals for [`FlowSim::drain_spans`]
    /// (off by default).
    pub fn set_record_spans(&mut self, on: bool) {
        self.record_spans = on;
    }

    /// Flows admitted and not yet completed or aborted.
    pub fn active_flows(&self) -> usize {
        self.live.len()
    }

    /// Incremental-solver counters accumulated since construction.
    pub fn solver_stats(&self) -> SolverStats {
        self.stats
    }

    /// Assert that the route-class bookkeeping balances: each link's
    /// class sizes sum to its live-flow count, no empty class sits on a
    /// link list, and every live flow is in its class's member list at
    /// the position it records. Also assert that the live-order arrays
    /// pacing reads stay in step with `live`: one entry per live flow,
    /// `lpos` inverts `live`, and with no fill pending the cached wakeup
    /// is the minimum ETA. For tests; O(links + classes + flows).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let n = self.live.len();
        assert_eq!(self.rem_live.len(), n, "rem_live vs live");
        assert_eq!(self.rate_live.len(), n, "rate_live vs live");
        assert_eq!(self.eta_live.len(), n, "eta_live vs live");
        for (j, &f) in self.live.iter().enumerate() {
            assert_eq!(self.lpos[f as usize] as usize, j, "lpos of flow {f}");
        }
        if !self.pending {
            assert_eq!(
                self.next_eta,
                self.eta_live.iter().min().copied(),
                "cached wakeup vs minimum ETA"
            );
        }
        for (l, list) in self.lclasses.iter().enumerate() {
            let mut sum = 0usize;
            for &c in list {
                let m = self.classes.members[c as usize].len();
                assert!(m > 0, "empty class {c} on link {l}'s list");
                sum += m;
            }
            assert_eq!(
                sum, self.lactive[l] as usize,
                "class sizes on link {l} vs its live-flow count"
            );
        }
        for &f in &self.live {
            let i = f as usize;
            let c = self.class[i] as usize;
            assert_eq!(
                self.classes.members[c].get(self.cpos[i] as usize),
                Some(&f),
                "flow {f} not at its recorded position in class {c}"
            );
        }
    }

    /// Instant up to which flows have been drained (the traffic horizon).
    pub fn settled_at(&self) -> SimTime {
        self.settled_at
    }

    /// Earliest instant at which some flow completes, if any are live.
    /// Runs any deferred rate recomputation first.
    pub fn next_wakeup(&mut self) -> Option<SimTime> {
        if self.pending {
            self.flush();
        }
        self.next_eta
    }

    /// `(token, rate, eta)` of every live flow in admission order — the
    /// observable rate state, for differential tests and debugging.
    pub fn live_flows(&mut self) -> Vec<(u64, f64, SimTime)> {
        if self.pending {
            self.flush();
        }
        self.live
            .iter()
            .zip(&self.eta_live)
            .map(|(&idx, &eta)| {
                let i = idx as usize;
                (self.token[i], self.rate[i], eta)
            })
            .collect()
    }

    /// Admit a new flow over `route` carrying `bytes`. The token is
    /// returned by `advance` when the flow finishes. Rates of flows
    /// sharing links (transitively) shrink at the next query; the caller
    /// must re-read `next_wakeup()` afterwards.
    ///
    /// # Panics
    ///
    /// If `route` is empty: no fill would ever reach the flow, so it
    /// would never get a rate or complete.
    pub fn start(&mut self, now: SimTime, route: &[LinkId], bytes: f64, token: u64) {
        assert!(
            !route.is_empty(),
            "FlowSim::start: a flow's route needs at least one link"
        );
        if self.pending && now > self.settled_at {
            self.flush();
        }
        self.settle(now);
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                let i = self.rate.len() as u32;
                self.rate.push(0.0);
                self.total.push(0.0);
                self.token.push(0);
                self.alive.push(false);
                self.class.push(0);
                self.cpos.push(0);
                self.lpos.push(0);
                i
            }
        };
        let i = idx as usize;
        self.total[i] = bytes.max(0.0);
        self.rate[i] = RATE_UNSET;
        self.token[i] = token;
        self.alive[i] = true;
        let c = self.classes.intern(route);
        let members = &mut self.classes.members[c as usize];
        self.class[i] = c;
        self.cpos[i] = members.len() as u32;
        members.push(idx);
        let first = members.len() == 1;
        for &LinkId(l) in route {
            if first {
                self.lclasses[l as usize].push(c);
            }
            let a = &mut self.lactive[l as usize];
            *a += 1;
            let a = *a;
            let m = &mut self.lmeta[l as usize];
            if a == 1 {
                m.busy_since = now;
            }
            m.peak = m.peak.max(a);
            self.seed.push(l);
        }
        self.live.push(idx);
        self.lpos[i] = (self.live.len() - 1) as u32;
        self.rem_live.push(bytes.max(0.0));
        self.rate_live.push(RATE_UNSET);
        self.eta_live.push(SimTime::MAX);
        self.pending = true;
    }

    /// Drain flows to `now`, push tokens of completed flows onto `done`
    /// (admission order), release their links, and mark the affected
    /// bottleneck components dirty. Safe to call at any instant >= the
    /// last settle point.
    pub fn advance(&mut self, now: SimTime, done: &mut Vec<u64>) {
        if self.pending && now > self.settled_at {
            self.flush();
        }
        let dt = now.since(self.settled_at).as_ns() as f64;
        self.settled_at = now;
        let n = self.live.len();
        // Pass 1: arithmetic only, streaming over the live-compacted
        // mirrors. Branch-free and contiguous, so it vectorizes; the
        // per-flow operations match the slot-indexed drain bit for bit.
        let mut ncomplete = 0usize;
        if dt > 0.0 {
            let rem = &mut self.rem_live[..n];
            let rl = &self.rate_live[..n];
            for j in 0..n {
                let r0 = rem[j];
                let carried = (rl[j] * dt).min(r0);
                let r = r0 - carried;
                rem[j] = r;
                ncomplete += (r <= EPS_BYTES) as usize;
            }
        } else {
            let rem = &self.rem_live[..n];
            ncomplete += rem.iter().filter(|&&r| r <= EPS_BYTES).count();
        }
        if ncomplete == 0 {
            return;
        }
        // Pass 2 (only when something finished): collect completions in
        // admission order, compacting the live list and its mirrors.
        let Self {
            rem_live,
            rate_live,
            eta_live,
            lpos,
            total,
            token,
            alive,
            class,
            cpos,
            classes,
            lmeta,
            lactive,
            lclasses,
            free,
            live,
            closed,
            record_spans,
            seed,
            ..
        } = self;
        let mut w = 0usize;
        for j in 0..n {
            let idx = live[j];
            let r = rem_live[j];
            if r > EPS_BYTES {
                live[w] = idx;
                rem_live[w] = r;
                rate_live[w] = rate_live[j];
                eta_live[w] = eta_live[j];
                lpos[idx as usize] = w as u32;
                w += 1;
                continue;
            }
            let i = idx as usize;
            done.push(token[i]);
            alive[i] = false;
            leave_class(classes, lclasses, class, cpos, idx);
            for &l in classes.route(class[i] as usize) {
                let l = l as usize;
                lactive[l] -= 1;
                let m = &mut lmeta[l];
                m.bytes += total[i];
                seed.push(l as u32);
                if lactive[l] == 0 {
                    m.busy_ns += now.since(m.busy_since).as_ns();
                    if *record_spans && now > m.busy_since {
                        closed.push(BusySpan {
                            link: LinkId(l as u32),
                            kind: m.desc.kind,
                            start: m.busy_since,
                            end: now,
                        });
                    }
                }
            }
            free.push(idx);
        }
        live.truncate(w);
        rem_live.truncate(w);
        rate_live.truncate(w);
        eta_live.truncate(w);
        self.pending = true;
    }

    /// Change a link's capacity in place (degradation / repair). Flows
    /// are drained to `now` at their old rates first — progress already
    /// made is not re-priced — then the link is seeded dirty so every
    /// flow (transitively) sharing it is re-water-filled at the next
    /// query; flows elsewhere keep their rates bit-exactly.
    pub fn set_link_bw(&mut self, now: SimTime, link: LinkId, bw: f64) {
        assert!(bw > 0.0, "link capacity must stay positive; abort instead");
        if self.pending && now > self.settled_at {
            self.flush();
        }
        self.settle(now);
        let l = link.0 as usize;
        self.lmeta[l].desc.bw = bw;
        self.lcap[l] = bw / 1e9;
        self.seed.push(link.0);
        self.pending = true;
    }

    /// Abort every in-flight flow crossing `link` (the link failed).
    /// Tokens of the killed flows are pushed onto `aborted` in admission
    /// order; bytes carried before the failure stay attributed to their
    /// links. The caller decides what an abort means (retry, surface an
    /// error) — the flow simulation just releases the resources and
    /// marks the affected components dirty.
    pub fn abort_link(&mut self, now: SimTime, link: LinkId, aborted: &mut Vec<u64>) {
        if self.pending && now > self.settled_at {
            self.flush();
        }
        self.settle(now);
        let l0 = link.0 as usize;
        if self.lactive[l0] == 0 {
            // No fill follows, and the settle may have moved an overdue
            // ETA later.
            self.next_eta = self.eta_live.iter().min().copied();
            return;
        }
        // Victims in admission order (member lists are unordered).
        let mut victims: Vec<u32> = Vec::with_capacity(self.lactive[l0] as usize);
        for &c in &self.lclasses[l0] {
            victims.extend_from_slice(&self.classes.members[c as usize]);
        }
        victims.sort_unstable_by_key(|&f| self.lpos[f as usize]);
        for &idx in &victims {
            let i = idx as usize;
            aborted.push(self.token[i]);
            self.alive[i] = false;
            let carried = (self.total[i] - self.rem_live[self.lpos[i] as usize]).max(0.0);
            leave_class(
                &mut self.classes,
                &mut self.lclasses,
                &self.class,
                &mut self.cpos,
                idx,
            );
            for &l in self.classes.route(self.class[i] as usize) {
                let l = l as usize;
                self.lactive[l] -= 1;
                self.seed.push(l as u32);
                let m = &mut self.lmeta[l];
                m.bytes += carried;
                if self.lactive[l] == 0 {
                    m.busy_ns += now.since(m.busy_since).as_ns();
                    if self.record_spans && now > m.busy_since {
                        self.closed.push(BusySpan {
                            link: LinkId(l as u32),
                            kind: m.desc.kind,
                            start: m.busy_since,
                            end: now,
                        });
                    }
                }
            }
            self.free.push(idx);
        }
        // Stable compaction of the live list and its mirrors, exactly
        // like the completion pass, so surviving flows keep admission
        // order.
        let n = self.live.len();
        let mut w = 0usize;
        for j in 0..n {
            let idx = self.live[j];
            if !self.alive[idx as usize] {
                continue;
            }
            self.live[w] = idx;
            self.rem_live[w] = self.rem_live[j];
            self.rate_live[w] = self.rate_live[j];
            self.eta_live[w] = self.eta_live[j];
            self.lpos[idx as usize] = w as u32;
            w += 1;
        }
        self.live.truncate(w);
        self.rem_live.truncate(w);
        self.rate_live.truncate(w);
        self.eta_live.truncate(w);
        self.pending = true;
    }

    /// Move accumulated busy intervals out (for tracer lanes).
    pub fn drain_spans(&mut self, out: &mut Vec<BusySpan>) {
        out.append(&mut self.closed);
    }

    /// Per-link counters; `horizon` is the sim end used both to close
    /// still-busy intervals and as the utilization denominator. Bytes of
    /// still-live flows are attributed from their progress so far.
    pub fn link_report(&self, horizon: SimTime) -> Vec<LinkUsage> {
        let total_ns = horizon.as_ns().max(1);
        let mut partial = vec![0.0f64; self.lmeta.len()];
        for (j, &idx) in self.live.iter().enumerate() {
            let i = idx as usize;
            let carried = self.total[i] - self.rem_live[j];
            for &l in self.classes.route(self.class[i] as usize) {
                partial[l as usize] += carried;
            }
        }
        self.lmeta
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let mut busy = m.busy_ns;
                if self.lactive[i] > 0 && horizon > m.busy_since {
                    busy += horizon.since(m.busy_since).as_ns();
                }
                LinkUsage {
                    link: LinkId(i as u32),
                    kind: m.desc.kind,
                    bytes: m.bytes + partial[i],
                    busy_ns: busy,
                    peak_flows: m.peak,
                    utilization: busy as f64 / total_ns as f64,
                }
            })
            .collect()
    }

    /// [`FlowSim::link_report`] folded into one summary: the peak flow
    /// count and the hottest link up to `horizon`.
    pub fn congestion(&self, horizon: SimTime) -> CongestionSummary {
        let mut out = CongestionSummary::default();
        for usage in self.link_report(horizon) {
            out.peak_link_flows = out.peak_link_flows.max(usage.peak_flows);
            if usage.busy_ns > 0 && usage.utilization > out.max_link_utilization {
                out.max_link_utilization = usage.utilization;
                out.hottest_link = Some(usage.link);
            }
        }
        out
    }

    /// Drain every live flow at its current rate up to `now`. A flow
    /// that crosses the completion threshold here without an `advance`
    /// collecting it (the caller slept past its ETA) gets its ETA
    /// re-anchored to the settle point, exactly like the from-scratch
    /// solver's full recompute did. That can move an ETA later, so the
    /// caller must re-derive the wakeup: every caller owes a fill
    /// afterwards except an abort on an empty link, which rescans.
    fn settle(&mut self, now: SimTime) {
        debug_assert!(now >= self.settled_at, "settle moved backwards");
        let dt = now.since(self.settled_at).as_ns() as f64;
        if dt > 0.0 {
            let live = self.rem_live.iter_mut().zip(&self.rate_live);
            for ((rem, &rate), eta) in live.zip(&mut self.eta_live) {
                let was_open = *rem > EPS_BYTES;
                let carried = (rate * dt).min(*rem);
                *rem -= carried;
                if was_open && *rem <= EPS_BYTES {
                    *eta = now;
                }
            }
        }
        self.settled_at = now;
    }

    /// Run the deferred incremental water-fill: close the accumulated
    /// seed under "shares a link", re-run progressive water-filling on
    /// that component only, re-project the ETAs of exactly the flows
    /// whose rate changed, and take the next wakeup as the minimum ETA.
    fn flush(&mut self) {
        self.pending = false;
        self.epoch += 1;
        self.stats.recomputes += 1;
        let epoch = self.epoch;
        let live_n = self.live.len();
        let Self {
            rate,
            classes,
            lclasses,
            lcap,
            lcu,
            lmark,
            cand_pos,
            rem_live,
            rate_live,
            eta_live,
            lpos,
            seed,
            cand,
            cand_share,
            changed,
            touched,
            emptied,
            stats,
            ..
        } = self;
        let RouteClasses {
            route: croute,
            route_len: croute_len,
            stride,
            members,
            frozen: cfrozen,
            mark: cmark,
            ..
        } = classes;
        let stride = *stride;

        cand.clear();
        cand_share.clear();

        // Seed the dirty link set with the changed flows' routes.
        for &l in seed.iter() {
            let l = l as usize;
            if lmark[l] != epoch {
                lmark[l] = epoch;
                lcu[l] = [lcap[l], 0.0];
                cand.push(l as u32);
            }
        }
        seed.clear();
        // Transitive closure: every class on a dirty link is dirty, and
        // every link on a dirty class's route is dirty. After this, dirty
        // links carry only dirty flows, so the component water-fills
        // independently of the rest of the fabric. A class adds its
        // member count to each of its links' unfrozen counts: an exact
        // integer in f64, the same sum as adding one per flow.
        let mut dirty = 0usize;
        let mut li = 0;
        while li < cand.len() {
            let l = cand[li] as usize;
            li += 1;
            // Index form: `lclasses[l]` cannot be borrowed across the
            // loop body (cand/lmark are pushed to inside it).
            #[allow(clippy::needless_range_loop)]
            for ci in 0..lclasses[l].len() {
                let c = lclasses[l][ci] as usize;
                if cmark[c] == epoch {
                    continue;
                }
                cmark[c] = epoch;
                let m = members[c].len();
                dirty += m;
                let base = c * stride;
                for &l2 in &croute[base..base + croute_len[c] as usize] {
                    let l2 = l2 as usize;
                    if lmark[l2] != epoch {
                        lmark[l2] = epoch;
                        lcu[l2] = [lcap[l2], 0.0];
                        cand.push(l2 as u32);
                    }
                    lcu[l2][1] += m as f64;
                }
            }
        }

        stats.record_component(dirty, cand.len(), live_n);

        if dirty > 0 {
            // Candidate shares; links whose flows all completed drop out.
            let mut i = 0;
            while i < cand.len() {
                let l = cand[i] as usize;
                let [c, u] = lcu[l];
                if u == 0.0 {
                    cand.swap_remove(i);
                    continue;
                }
                cand_pos[l] = i as u32;
                cand_share.push(c / u);
                i += 1;
            }

            // Water-fill the component. Identical op order to the
            // from-scratch solver restricted to this component: the same
            // bottleneck sequence (min share, ties to the lower link id)
            // and per-link the same ordered subtractions, so rates come
            // out bit for bit equal.
            //
            // The round loop appends to fixed-size scratch through a
            // cursor instead of `Vec::push`: a push's potential
            // reallocation forces the compiler to reload every slice
            // pointer after it, which dominates the inner loop.
            if touched.len() < stride * dirty {
                touched.resize(stride * dirty, 0);
            }
            if changed.len() < dirty {
                changed.resize(dirty, 0);
            }
            let tb = touched.as_mut_slice();
            let cb = changed.as_mut_slice();
            let mut clen = 0usize;
            let mut left = dirty;
            while left > 0 && !cand.is_empty() {
                // Bottleneck scan: a packed-double min pass, then the
                // lowest link id among the ties (ties are rare, so the
                // second pass is a predictable not-taken branch).
                let mn = simd_min(&cand_share[..]);
                let bottleneck = tie_min_id(&cand_share[..], &cand[..], mn);
                let share = mn.max(0.0);

                // Freeze every unfrozen class crossing the bottleneck
                // and subtract its members' shares along its route.
                // Every flow frozen in a round subtracts the same share,
                // so `m` subtractions per link for an `m`-member class
                // replay the per-flow op sequence bit for bit. Candidate
                // shares are refreshed once per link at the end of the
                // round — the intermediate quotients were never read, so
                // the refresh divides once per touched link. The touched
                // list may carry duplicates (two frozen classes sharing
                // a hop); the refresh skips entries whose candidate slot
                // no longer holds the link.
                let clist = &lclasses[bottleneck as usize];
                let mut tlen = 0usize;
                emptied.clear();
                for &c in clist {
                    let c = c as usize;
                    if cfrozen[c] == epoch {
                        continue;
                    }
                    cfrozen[c] = epoch;
                    let m = members[c].len();
                    left -= m;
                    for &f in &members[c] {
                        let i = f as usize;
                        if rate[i] != share {
                            rate[i] = share;
                            rate_live[lpos[i] as usize] = share;
                            cb[clen] = f;
                            clen += 1;
                        }
                    }
                    let base = c * stride;
                    for &l in &croute[base..base + croute_len[c] as usize] {
                        // The bottleneck's own scratch is never read
                        // again: every flow crossing it freezes now, so
                        // it is removed below instead of updated here.
                        if l == bottleneck {
                            continue;
                        }
                        let cl = &mut lcu[l as usize];
                        let mut cap = cl[0];
                        for _ in 0..m {
                            cap = (cap - share).max(0.0);
                        }
                        cl[0] = cap;
                        cl[1] -= m as f64;
                        if cl[1] == 0.0 {
                            emptied.push(l);
                        }
                        tb[tlen] = l;
                        tlen += 1;
                    }
                }
                {
                    let p = cand_pos[bottleneck as usize] as usize;
                    cand.swap_remove(p);
                    cand_share.swap_remove(p);
                    if p < cand.len() {
                        cand_pos[cand[p] as usize] = p as u32;
                    }
                }
                // Refresh in two passes: drop emptied links first, then
                // divide. The freeze loop recorded every link whose
                // unfrozen count crossed zero (it crosses exactly once),
                // so the removal pass walks that short list instead of
                // every touched entry. With the structure mutations out
                // of the way the division pass has no data dependence
                // between iterations, so the quotients pipeline at
                // divider throughput. Division results don't feed each
                // other, so the order is free; removal order only
                // permutes candidate slots, never the candidate set.
                for &l in emptied.iter() {
                    let p = cand_pos[l as usize] as usize;
                    cand.swap_remove(p);
                    cand_share.swap_remove(p);
                    if p < cand.len() {
                        cand_pos[cand[p] as usize] = p as u32;
                    }
                }
                for &l in tb[..tlen].iter() {
                    let l = l as usize;
                    let p = cand_pos[l] as usize;
                    if p >= cand.len() || cand[p] != l as u32 {
                        continue;
                    }
                    let [c, u] = lcu[l];
                    cand_share[p] = c / u;
                }
            }

            // Re-project completion instants for flows whose rate moved;
            // everyone else keeps both rate and ETA.
            let settled_at = self.settled_at;
            for &f in cb[..clen].iter() {
                let p = lpos[f as usize] as usize;
                eta_live[p] = project_eta(rem_live[p], rate_live[p], settled_at);
            }
        }
        self.next_eta = self.eta_live.iter().min().copied();
    }
}

/// Remove live flow `f` from its class, moving the class's last member
/// into its slot. A class that empties leaves every link list it sat on.
fn leave_class(
    classes: &mut RouteClasses,
    lclasses: &mut [Vec<u32>],
    class: &[u32],
    cpos: &mut [u32],
    f: u32,
) {
    let c = class[f as usize] as usize;
    let p = cpos[f as usize] as usize;
    let members = &mut classes.members[c];
    members.swap_remove(p);
    if let Some(&moved) = members.get(p) {
        cpos[moved as usize] = p as u32;
    }
    if !members.is_empty() {
        return;
    }
    for &l in classes.route(c) {
        let list = &mut lclasses[l as usize];
        let q = list
            .iter()
            .position(|&x| x as usize == c)
            .expect("a non-empty class is on its links' lists");
        list.swap_remove(q);
    }
}

/// Lowest id among `ids[i]` where `shares[i] == mn` (IEEE equality, same
/// as the scalar `==`). On x86-64 this runs as packed compares with a
/// movemask test per chunk; ties are rare, so the per-chunk branch is a
/// predictable not-taken jump and the loop streams at load throughput.
#[inline]
fn tie_min_id(shares: &[f64], ids: &[u32], mn: f64) -> u32 {
    debug_assert_eq!(shares.len(), ids.len());
    let mut best = u32::MAX;
    let mut i = 0;
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::*;
        // SSE2 is part of the x86-64 baseline.
        unsafe {
            let needle = _mm_set1_pd(mn);
            while i + 4 <= shares.len() {
                let a = _mm_loadu_pd(shares.as_ptr().add(i));
                let b = _mm_loadu_pd(shares.as_ptr().add(i + 2));
                let m = _mm_movemask_pd(_mm_cmpeq_pd(a, needle))
                    | (_mm_movemask_pd(_mm_cmpeq_pd(b, needle)) << 2);
                if m != 0 {
                    for k in 0..4 {
                        if m & (1 << k) != 0 {
                            best = best.min(ids[i + k]);
                        }
                    }
                }
                i += 4;
            }
        }
    }
    while i < shares.len() {
        if shares[i] == mn {
            best = best.min(ids[i]);
        }
        i += 1;
    }
    best
}

/// Branch-free minimum over a share slice, shaped so the paired `min`
/// accumulators compile to packed-double instructions. `min` is exact
/// and order-free, so the result is the same as a sequential fold.
#[inline]
fn simd_min(shares: &[f64]) -> f64 {
    let mut a0 = [f64::INFINITY; 2];
    let mut a1 = [f64::INFINITY; 2];
    let mut a2 = [f64::INFINITY; 2];
    let mut a3 = [f64::INFINITY; 2];
    let mut it = shares.chunks_exact(8);
    for c in &mut it {
        a0 = [a0[0].min(c[0]), a0[1].min(c[1])];
        a1 = [a1[0].min(c[2]), a1[1].min(c[3])];
        a2 = [a2[0].min(c[4]), a2[1].min(c[5])];
        a3 = [a3[0].min(c[6]), a3[1].min(c[7])];
    }
    let mut mn = a0[0]
        .min(a0[1])
        .min(a1[0].min(a1[1]))
        .min(a2[0].min(a2[1]).min(a3[0].min(a3[1])));
    for &s in it.remainder() {
        mn = mn.min(s);
    }
    mn
}

/// Completion instant of a flow with `remaining` bytes at `rate`,
/// projected from the settle point — the same rounding the from-scratch
/// solver applied on every recompute.
#[inline]
fn project_eta(remaining: f64, rate: f64, settled_at: SimTime) -> SimTime {
    if remaining <= EPS_BYTES {
        settled_at
    } else {
        debug_assert!(rate > 0.0, "live flow with zero rate");
        let ns = (remaining / rate).ceil().max(1.0) as u64;
        settled_at + SimDuration::from_ns(ns)
    }
}
