//! Differential tests of the incremental max-min solver in
//! [`FlowSim`] against a deliberately naive from-scratch reference.
//!
//! The reference re-runs progressive water-filling over *every* live
//! flow at each observation point, with no dirty sets, no route
//! classes, no deferred-fill merging, no live-order mirrors, and no
//! SIMD — just the textbook algorithm in the same op order. The
//! property asserted is exact equality (`==` on the `f64` rates, not
//! approximate): the incremental solver's documentation claims it
//! replays the from-scratch op sequence bit for bit, and these tests
//! hold it to that over randomized admit/advance churn, including
//! same-instant event batches, sleeps past completion instants, and
//! zero-byte flows.
//! A second property draws every route from a small pool, so many live
//! flows share one route class, and mixes in link aborts and capacity
//! changes. Both check the solver's class bookkeeping and its pacing
//! mirrors after every op.

use proptest::prelude::*;

use gaat_sim::{SimDuration, SimTime};
use gaat_topo::{FlowSim, LinkDesc, LinkId, LinkKind, EPS_BYTES};

// ---------------------------------------------------------------------------
// Reference model
// ---------------------------------------------------------------------------

struct RefFlow {
    token: u64,
    route: Vec<usize>,
    total: f64,
    rem: f64,
    rate: f64,
    eta: SimTime,
}

/// From-scratch water-filling reference. Mirrors the *observable*
/// semantics of `FlowSim` — deferred recomputation at the next query,
/// drain-then-collect on advance, ETA re-projection only when a rate
/// changes — while recomputing every rate from zero each time.
struct RefSim {
    caps: Vec<f64>,
    flows: Vec<RefFlow>,
    settled_at: SimTime,
    pending: bool,
    // Per-link accounting, kept independently of FlowSim's.
    bytes_done: Vec<f64>,
    busy_ns: Vec<u64>,
    busy_since: Vec<SimTime>,
    occ: Vec<u32>,
    peak: Vec<u32>,
}

fn project_eta(rem: f64, rate: f64, at: SimTime) -> SimTime {
    if rem <= EPS_BYTES {
        at
    } else {
        let ns = (rem / rate).ceil().max(1.0) as u64;
        at + SimDuration::from_ns(ns)
    }
}

impl RefSim {
    fn new(links: &[LinkDesc]) -> Self {
        let n = links.len();
        RefSim {
            caps: links.iter().map(|d| d.bw / 1e9).collect(),
            flows: Vec::new(),
            settled_at: SimTime::ZERO,
            pending: false,
            bytes_done: vec![0.0; n],
            busy_ns: vec![0; n],
            busy_since: vec![SimTime::ZERO; n],
            occ: vec![0; n],
            peak: vec![0; n],
        }
    }

    /// Textbook progressive water-filling over all live flows: pick the
    /// bottleneck (min capacity-left / unfrozen, ties to the lowest link
    /// id), freeze its flows, subtract, repeat. ETAs are re-projected
    /// only for flows whose rate changed, like the real solver.
    fn refill(&mut self) {
        self.pending = false;
        let nl = self.caps.len();
        let mut cap = self.caps.clone();
        let mut unfrozen = vec![0u32; nl];
        for f in &self.flows {
            for &l in &f.route {
                unfrozen[l] += 1;
            }
        }
        let mut frozen = vec![false; self.flows.len()];
        let mut left = self.flows.len();
        while left > 0 {
            let mut mn = f64::INFINITY;
            let mut bottleneck = usize::MAX;
            for l in 0..nl {
                if unfrozen[l] > 0 {
                    let s = cap[l] / unfrozen[l] as f64;
                    if s < mn {
                        mn = s;
                        bottleneck = l;
                    }
                }
            }
            if bottleneck == usize::MAX {
                break;
            }
            let share = mn.max(0.0);
            #[allow(clippy::needless_range_loop)]
            for fi in 0..self.flows.len() {
                if frozen[fi] || !self.flows[fi].route.contains(&bottleneck) {
                    continue;
                }
                frozen[fi] = true;
                left -= 1;
                let f = &mut self.flows[fi];
                if f.rate != share {
                    f.rate = share;
                    f.eta = project_eta(f.rem, share, self.settled_at);
                }
                for &l in &f.route {
                    if l != bottleneck {
                        cap[l] = (cap[l] - share).max(0.0);
                        unfrozen[l] -= 1;
                    }
                }
            }
            unfrozen[bottleneck] = 0;
        }
    }

    /// Drain to `now`; a flow crossing the completion threshold outside
    /// an `advance` gets its ETA re-anchored to the settle point.
    fn settle(&mut self, now: SimTime) {
        let dt = now.since(self.settled_at).as_ns() as f64;
        if dt > 0.0 {
            for f in &mut self.flows {
                let was_open = f.rem > EPS_BYTES;
                let carried = (f.rate * dt).min(f.rem);
                f.rem -= carried;
                if was_open && f.rem <= EPS_BYTES {
                    f.eta = now;
                }
            }
        }
        self.settled_at = now;
    }

    fn start(&mut self, now: SimTime, route: &[usize], bytes: f64, token: u64) {
        if self.pending && now > self.settled_at {
            self.refill();
        }
        self.settle(now);
        for &l in route {
            self.occ[l] += 1;
            if self.occ[l] == 1 {
                self.busy_since[l] = now;
            }
            self.peak[l] = self.peak[l].max(self.occ[l]);
        }
        self.flows.push(RefFlow {
            token,
            route: route.to_vec(),
            total: bytes.max(0.0),
            rem: bytes.max(0.0),
            rate: -1.0,
            eta: SimTime::MAX,
        });
        self.pending = true;
    }

    fn advance(&mut self, now: SimTime, done: &mut Vec<u64>) {
        if self.pending && now > self.settled_at {
            self.refill();
        }
        let dt = now.since(self.settled_at).as_ns() as f64;
        self.settled_at = now;
        let mut completed = false;
        if dt > 0.0 {
            for f in &mut self.flows {
                let carried = (f.rate * dt).min(f.rem);
                f.rem -= carried;
            }
        }
        let mut kept = Vec::new();
        for f in std::mem::take(&mut self.flows) {
            if f.rem > EPS_BYTES {
                kept.push(f);
                continue;
            }
            completed = true;
            done.push(f.token);
            for &l in &f.route {
                self.occ[l] -= 1;
                self.bytes_done[l] += f.total;
                if self.occ[l] == 0 {
                    self.busy_ns[l] += now.since(self.busy_since[l]).as_ns();
                }
            }
        }
        self.flows = kept;
        if completed {
            self.pending = true;
        }
    }

    /// Drain to `now`, then remove every flow crossing `link` in
    /// admission order, attributing the bytes each carried so far.
    fn abort_link(&mut self, now: SimTime, link: usize, aborted: &mut Vec<u64>) {
        if self.pending && now > self.settled_at {
            self.refill();
        }
        self.settle(now);
        let mut kept = Vec::new();
        for f in std::mem::take(&mut self.flows) {
            if !f.route.contains(&link) {
                kept.push(f);
                continue;
            }
            aborted.push(f.token);
            let carried = (f.total - f.rem).max(0.0);
            for &l in &f.route {
                self.occ[l] -= 1;
                self.bytes_done[l] += carried;
                if self.occ[l] == 0 {
                    self.busy_ns[l] += now.since(self.busy_since[l]).as_ns();
                }
            }
            self.pending = true;
        }
        self.flows = kept;
    }

    /// Drain to `now` at the old rates, then refill at the next query.
    fn set_link_bw(&mut self, now: SimTime, link: usize, bw: f64) {
        if self.pending && now > self.settled_at {
            self.refill();
        }
        self.settle(now);
        self.caps[link] = bw / 1e9;
        self.pending = true;
    }

    fn next_wakeup(&mut self) -> Option<SimTime> {
        if self.pending {
            self.refill();
        }
        self.flows.iter().map(|f| f.eta).min()
    }

    fn live_flows(&mut self) -> Vec<(u64, f64, SimTime)> {
        if self.pending {
            self.refill();
        }
        self.flows
            .iter()
            .map(|f| (f.token, f.rate, f.eta))
            .collect()
    }

    /// `(bytes, busy_ns, peak)` per link at `horizon`, matching the
    /// accounting rules of `FlowSim::link_report`.
    fn link_report(&self, horizon: SimTime) -> Vec<(f64, u64, u32)> {
        let mut out = Vec::new();
        for l in 0..self.caps.len() {
            let mut bytes = self.bytes_done[l];
            for f in &self.flows {
                if f.route.contains(&l) {
                    bytes += f.total - f.rem;
                }
            }
            let mut busy = self.busy_ns[l];
            if self.occ[l] > 0 {
                busy += horizon.since(self.busy_since[l]).as_ns();
            }
            out.push((bytes, busy, self.peak[l]));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Churn driver
// ---------------------------------------------------------------------------

const NUM_LINKS: usize = 8;

fn links() -> Vec<LinkDesc> {
    (0..NUM_LINKS)
        .map(|i| LinkDesc {
            kind: LinkKind::LeafUp,
            bw: [1.0e9, 2.0e9, 4.0e9, 8.0e9][i % 4],
        })
        .collect()
}

fn route_from_bits(bits: u16) -> Vec<usize> {
    let bits = (bits as usize % ((1 << NUM_LINKS) - 1)) + 1; // never empty
    (0..NUM_LINKS).filter(|l| bits & (1 << l) != 0).collect()
}

fn assert_same_state(fs: &mut FlowSim, rf: &mut RefSim, ctx: &str) {
    assert_eq!(fs.next_wakeup(), rf.next_wakeup(), "next_wakeup: {ctx}");
    let a = fs.live_flows();
    let b = rf.live_flows();
    assert_eq!(a.len(), b.len(), "live count: {ctx}");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.0, y.0, "token order: {ctx}");
        assert_eq!(x.1, y.1, "rate of flow {}: {ctx}", x.0);
        assert_eq!(x.2, y.2, "eta of flow {}: {ctx}", x.0);
    }
}

/// Run one generated churn scenario through both solvers, comparing
/// rates, ETAs, completion batches, and per-link stats exactly.
fn run_scenario(ops: Vec<(u8, u16, u32, u16)>) {
    let mut fs = FlowSim::new(links());
    let mut rf = RefSim::new(&links());
    let mut now = SimTime::ZERO;
    let mut token = 0u64;
    let (mut d1, mut d2) = (Vec::new(), Vec::new());

    for (i, &(kind, bits, bytes, dt)) in ops.iter().enumerate() {
        match kind % 4 {
            // Admit at the current instant: same-instant admits merge
            // into one deferred recompute.
            0 => {
                let route = route_from_bits(bits);
                let ids: Vec<LinkId> = route.iter().map(|&l| LinkId(l as u32)).collect();
                fs.start(now, &ids, bytes as f64, token);
                rf.start(now, &route, bytes as f64, token);
                token += 1;
            }
            // Admit later: start() itself settles forward, possibly
            // carrying flows across the completion threshold.
            1 => {
                now += SimDuration::from_ns(dt as u64 + 1);
                let route = route_from_bits(bits);
                let ids: Vec<LinkId> = route.iter().map(|&l| LinkId(l as u32)).collect();
                fs.start(now, &ids, bytes as f64, token);
                rf.start(now, &route, bytes as f64, token);
                token += 1;
            }
            // Hop exactly onto the next completion instant.
            2 => {
                let w1 = fs.next_wakeup();
                assert_eq!(w1, rf.next_wakeup(), "wakeup before hop {i}");
                if let Some(w) = w1 {
                    now = w;
                    d1.clear();
                    d2.clear();
                    fs.advance(now, &mut d1);
                    rf.advance(now, &mut d2);
                    assert_eq!(d1, d2, "completion batch at hop {i}");
                }
            }
            // Sleep an arbitrary interval, possibly past several ETAs.
            _ => {
                now += SimDuration::from_ns(dt as u64);
                d1.clear();
                d2.clear();
                fs.advance(now, &mut d1);
                rf.advance(now, &mut d2);
                assert_eq!(d1, d2, "completion batch at sleep {i}");
            }
        }
        // Observing every op would defeat deferred-fill merging, so
        // only a pseudo-random half of the admits are inspected.
        fs.check_invariants();
        if kind % 4 >= 2 || bytes % 2 == 0 {
            assert_same_state(&mut fs, &mut rf, &format!("after op {i}"));
        }
    }

    // Drain everything and compare the per-link accounting.
    for guard in 0.. {
        assert!(guard < 100_000, "drain did not converge");
        let w1 = fs.next_wakeup();
        assert_eq!(w1, rf.next_wakeup(), "wakeup during drain");
        let Some(w) = w1 else { break };
        now = w;
        d1.clear();
        d2.clear();
        fs.advance(now, &mut d1);
        rf.advance(now, &mut d2);
        assert_eq!(d1, d2, "completion batch during drain");
    }
    assert_eq!(fs.active_flows(), 0);

    let horizon = now + SimDuration::from_ns(1);
    let report = fs.link_report(horizon);
    let expect = rf.link_report(horizon);
    for (u, (bytes, busy, peak)) in report.iter().zip(expect.iter()) {
        assert_eq!(u.bytes, *bytes, "bytes on {:?}", u.link);
        assert_eq!(u.busy_ns, *busy, "busy_ns on {:?}", u.link);
        assert_eq!(u.peak_flows, *peak, "peak_flows on {:?}", u.link);
    }

    // The incremental solver did real work and its counters add up.
    let stats = fs.solver_stats();
    if token > 0 {
        assert!(stats.recomputes > 0);
    }
}

proptest! {
    /// The incremental solver and the from-scratch reference agree
    /// exactly — rates, ETAs, wakeups, completion order, link stats —
    /// over arbitrary admit/advance churn.
    #[test]
    fn incremental_matches_from_scratch(
        ops in prop::collection::vec(
            (0u8..8, 0u16..1024, 0u32..2_000_000, 0u16..50_000),
            1..80,
        )
    ) {
        run_scenario(ops);
    }
}

/// Capacities a `set_link_bw` op may pick, bytes/second.
const BWS: [f64; 4] = [0.5e9, 1.0e9, 3.0e9, 8.0e9];

/// Like [`run_scenario`], but every admission draws its route from a
/// small fixed `pool`, so many live flows share one exact route, and
/// the op mix adds link aborts and capacity changes. Each op is
/// `(kind, pick, bytes, dt)`: `pick` chooses the pool route, the link
/// to abort, or the link and capacity to set.
fn run_pooled_scenario(pool: Vec<u16>, ops: Vec<(u8, u16, u32, u16)>) {
    let pool: Vec<Vec<usize>> = pool.into_iter().map(route_from_bits).collect();
    let mut fs = FlowSim::new(links());
    let mut rf = RefSim::new(&links());
    let mut now = SimTime::ZERO;
    let mut token = 0u64;
    let (mut d1, mut d2) = (Vec::new(), Vec::new());

    for (i, &(kind, pick, bytes, dt)) in ops.iter().enumerate() {
        let route = &pool[pick as usize % pool.len()];
        let ids: Vec<LinkId> = route.iter().map(|&l| LinkId(l as u32)).collect();
        let link = pick as usize % NUM_LINKS;
        match kind % 8 {
            // Admissions dominate so classes grow past one member.
            0..=2 => {
                fs.start(now, &ids, bytes as f64, token);
                rf.start(now, route, bytes as f64, token);
                token += 1;
            }
            3 => {
                now += SimDuration::from_ns(dt as u64 + 1);
                fs.start(now, &ids, bytes as f64, token);
                rf.start(now, route, bytes as f64, token);
                token += 1;
            }
            4 => {
                let w1 = fs.next_wakeup();
                assert_eq!(w1, rf.next_wakeup(), "wakeup before hop {i}");
                if let Some(w) = w1 {
                    now = w;
                    d1.clear();
                    d2.clear();
                    fs.advance(now, &mut d1);
                    rf.advance(now, &mut d2);
                    assert_eq!(d1, d2, "completion batch at hop {i}");
                }
            }
            5 => {
                now += SimDuration::from_ns(dt as u64);
                d1.clear();
                d2.clear();
                fs.advance(now, &mut d1);
                rf.advance(now, &mut d2);
                assert_eq!(d1, d2, "completion batch at sleep {i}");
            }
            6 => {
                now += SimDuration::from_ns(dt as u64 % 1000);
                d1.clear();
                d2.clear();
                fs.abort_link(now, LinkId(link as u32), &mut d1);
                rf.abort_link(now, link, &mut d2);
                assert_eq!(d1, d2, "aborted flows at op {i}");
            }
            _ => {
                now += SimDuration::from_ns(dt as u64 % 1000);
                let bw = BWS[(pick as usize / NUM_LINKS) % BWS.len()];
                fs.set_link_bw(now, LinkId(link as u32), bw);
                rf.set_link_bw(now, link, bw);
            }
        }
        fs.check_invariants();
        if kind % 8 >= 4 || bytes % 2 == 0 {
            assert_same_state(&mut fs, &mut rf, &format!("after op {i}"));
        }
    }

    for guard in 0.. {
        assert!(guard < 100_000, "drain did not converge");
        let w1 = fs.next_wakeup();
        assert_eq!(w1, rf.next_wakeup(), "wakeup during drain");
        let Some(w) = w1 else { break };
        now = w;
        d1.clear();
        d2.clear();
        fs.advance(now, &mut d1);
        rf.advance(now, &mut d2);
        assert_eq!(d1, d2, "completion batch during drain");
    }
    assert_eq!(fs.active_flows(), 0);

    let horizon = now + SimDuration::from_ns(1);
    let report = fs.link_report(horizon);
    let expect = rf.link_report(horizon);
    for (u, (bytes, busy, peak)) in report.iter().zip(expect.iter()) {
        assert_eq!(u.bytes, *bytes, "bytes on {:?}", u.link);
        assert_eq!(u.busy_ns, *busy, "busy_ns on {:?}", u.link);
        assert_eq!(u.peak_flows, *peak, "peak_flows on {:?}", u.link);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Exact agreement with the reference when many flows share each
    /// route and links fail or change capacity mid-run.
    #[test]
    fn shared_routes_and_link_faults_match_from_scratch(
        pool in prop::collection::vec(0u16..1024, 3..=6),
        ops in prop::collection::vec(
            (0u8..16, 0u16..1024, 0u32..2_000_000, 0u16..50_000),
            1..120,
        )
    ) {
        run_pooled_scenario(pool, ops);
    }
}

// ---------------------------------------------------------------------------
// Directed regressions
// ---------------------------------------------------------------------------

fn t(ns: u64) -> SimTime {
    SimTime::from_ns(ns)
}

/// Completing the only flow on otherwise-empty links must take the
/// empty-dirty-set fast path: no live flow is re-water-filled, and
/// bystander flows keep their exact rate and ETA.
#[test]
fn empty_dirty_set_skips_live_flows() {
    // One flow per link: every flow is a component of its own.
    let n = 12usize;
    let links: Vec<LinkDesc> = (0..n)
        .map(|_| LinkDesc {
            kind: LinkKind::NicUp,
            bw: 1.0e9,
        })
        .collect();
    let mut fs = FlowSim::new(links);
    for i in 0..n {
        fs.start(
            t(0),
            &[LinkId(i as u32)],
            1000.0 * (i as f64 + 1.0),
            i as u64,
        );
    }
    fs.next_wakeup(); // first fill: touches all 12
    let before_flows = fs.live_flows();
    let s0 = fs.solver_stats();

    // Flow 0 finishes at 1µs, leaving link 0 empty.
    let mut done = Vec::new();
    fs.advance(t(1_000), &mut done);
    assert_eq!(done, vec![0]);
    fs.next_wakeup(); // deferred fill runs here

    let s1 = fs.solver_stats();
    assert_eq!(s1.recomputes, s0.recomputes + 1);
    assert_eq!(
        s1.empty_recomputes,
        s0.empty_recomputes + 1,
        "a completion on an otherwise-empty link is an empty dirty set"
    );
    assert_eq!(s1.touched_flows, s0.touched_flows, "no flow re-filled");
    assert_eq!(
        s1.rate_updates_avoided - s0.rate_updates_avoided,
        (n - 1) as u64,
        "all surviving flows were skipped"
    );
    // Bystanders keep rate and ETA exactly.
    let after_flows = fs.live_flows();
    assert_eq!(&before_flows[1..], &after_flows[..]);
}

/// Churn inside one bottleneck component leaves disjoint components'
/// flows untouched (counted via `touched_flows`), however small the
/// component is next to the fabric.
#[test]
fn disjoint_component_not_refilled() {
    for n in [2, 6, 12, 20] {
        disjoint_component_not_refilled_at(n);
    }
}

fn disjoint_component_not_refilled_at(n: usize) {
    let links: Vec<LinkDesc> = (0..n)
        .map(|_| LinkDesc {
            kind: LinkKind::NicUp,
            bw: 1.0e9,
        })
        .collect();
    let mut fs = FlowSim::new(links);
    for i in 0..n {
        fs.start(t(0), &[LinkId(i as u32)], 1.0e6, i as u64);
    }
    fs.next_wakeup();
    let s0 = fs.solver_stats();

    // A second flow on link k halves that component's shares; nothing
    // else shares a link with it.
    let k = n / 2;
    fs.start(t(10), &[LinkId(k as u32)], 1.0e6, 99);
    fs.next_wakeup();
    let s1 = fs.solver_stats();
    assert_eq!(
        s1.touched_flows - s0.touched_flows,
        2,
        "only link {k}'s two flows re-filled (fabric of {n})"
    );
    assert_eq!(
        s1.rate_updates_avoided - s0.rate_updates_avoided,
        (n - 1) as u64,
        "fabric of {n}"
    );
}

/// Aborting an empty link after sleeping past a flow's ETA re-anchors
/// that ETA to the abort instant, later than before; the wakeup must
/// follow it rather than keep the overdue instant.
#[test]
fn abort_on_empty_link_reanchors_overdue_wakeup() {
    let links: Vec<LinkDesc> = (0..3)
        .map(|_| LinkDesc {
            kind: LinkKind::NicUp,
            bw: 1.0e9,
        })
        .collect();
    let mut fs = FlowSim::new(links);
    fs.start(t(0), &[LinkId(0)], 1000.0, 0);
    fs.start(t(0), &[LinkId(1)], 1.0e6, 1);
    assert_eq!(fs.next_wakeup(), Some(t(1_000)));
    // Capacity unchanged, so the fill keeps flow 0's ETA at 1µs.
    fs.set_link_bw(t(500), LinkId(0), 1.0e9);
    let mut aborted = Vec::new();
    fs.abort_link(t(1_500), LinkId(2), &mut aborted);
    assert!(aborted.is_empty());
    fs.check_invariants();
    assert_eq!(fs.next_wakeup(), Some(t(1_500)));
    let mut done = Vec::new();
    fs.advance(t(1_500), &mut done);
    assert_eq!(done, vec![0]);
}
