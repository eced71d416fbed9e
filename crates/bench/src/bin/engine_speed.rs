//! Engine throughput benchmark, tracked from PR 1 onward.
//!
//! Measures raw discrete-event-engine throughput (events/sec) on
//! workloads shaped like the runtime's real event traffic, plus one
//! Jacobi3D strong-scaling step, and writes `BENCH_engine.json` so the
//! perf trajectory is recorded in-repo. Self-contained: no external
//! crates, JSON written by hand.
//!
//! Workloads:
//! - `churn_boxed`: self-rescheduling boxed-closure events with the
//!   seed engine's API only — directly comparable to the seed
//!   `BinaryHeap<Box<dyn FnOnce>>` engine (the recorded baseline).
//! - `churn_fast`: the same schedule shape through the closure-free
//!   fn-pointer fast path.
//! - `burst_soon`: same-instant burst drains (`soon` chains), the
//!   zero-latency-callback pattern.
//! - `cancel_heavy`: schedule/cancel pairs, the retry/timeout pattern.
//! - `jacobi_step`: a real Jacobi3D strong-scaling step on the task
//!   runtime; events/sec here is end-to-end simulator speed.
//!
//! Usage: `engine_speed [--smoke] [--out PATH]`

use std::time::Instant;

use gaat_jacobi3d::{charm, CommMode, Dims, JacobiConfig};
use gaat_rt::MachineConfig;
use gaat_sim::{Sim, SimDuration, SimRng, SimTime};

/// Seed-engine (`BinaryHeap` + `Box<dyn FnOnce>` + `HashSet` tombstones)
/// throughput on `churn_boxed` with the default event count and depth,
/// measured on this repository's reference container with the identical
/// benchmark binary (the seed `engine.rs` dropped in, plus shims mapping
/// the `*_call*` API onto boxed closures — which is how the seed engine
/// represents every event). Best of 5 runs. The acceptance bar for the
/// slab-arena/calendar rewrite is >= 2x this.
const BASELINE_CHURN_EVENTS_PER_SEC: f64 = 2_463_075.0;

struct WorkloadResult {
    name: &'static str,
    events: u64,
    wall_s: f64,
    peak_pending: usize,
}

impl WorkloadResult {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s
    }
}

/// World for the churn workloads: an RNG driving the schedule shape, a
/// ring of cancellable ids, and a payload slab for the fast-path variant
/// (the same side-slab idiom the runtime uses for envelope delivery).
struct ChurnWorld {
    rng: SimRng,
    cancellable: Vec<gaat_sim::EventId>,
    fired: u64,
    acc: u64,
    payloads: Vec<[u64; 4]>,
    payload_free: Vec<u32>,
}

impl ChurnWorld {
    fn new(seed: u64) -> Self {
        ChurnWorld {
            rng: SimRng::new(seed),
            cancellable: Vec::new(),
            fired: 0,
            acc: 0,
            payloads: Vec::new(),
            payload_free: Vec::new(),
        }
    }

    fn fresh_payload(&mut self) -> [u64; 4] {
        let x = self.rng.next_u64();
        [x, x ^ 0xa5a5, x.rotate_left(17), x.wrapping_mul(3)]
    }

    fn stash(&mut self, p: [u64; 4]) -> u64 {
        match self.payload_free.pop() {
            Some(i) => {
                self.payloads[i as usize] = p;
                i as u64
            }
            None => {
                self.payloads.push(p);
                (self.payloads.len() - 1) as u64
            }
        }
    }

    fn consume(&mut self, p: [u64; 4]) {
        self.acc ^= p[0]
            .wrapping_add(p[1])
            .wrapping_add(p[2])
            .wrapping_add(p[3]);
    }
}

/// Draw the next delay in the runtime-shaped mixture: a same-instant
/// share (zero-latency callbacks), mostly short latencies, some medium
/// completions, and a small far tail that crosses the calendar horizon.
/// Every fired event schedules exactly one successor, so the pending
/// population stays at the seeded depth instead of ballooning.
fn churn_delay(rng: &mut SimRng) -> Option<SimDuration> {
    match rng.below(100) {
        0..=24 => None, // same instant (soon)
        25..=79 => Some(SimDuration::from_ns(1 + rng.below(4096))),
        80..=94 => Some(SimDuration::from_ns(4_096 + rng.below(28_672))),
        _ => Some(SimDuration::from_ns(32_768 + rng.below(968_232))),
    }
}

/// Pending-event depth for the churn workloads: the in-flight event
/// population of a strong-scaling sweep point (hundreds of nodes x
/// several GPUs x overdecomposition factor, each with messages, kernel
/// completions, and DMA events in flight), which is exactly the regime
/// the paper's launch-overhead results live in. Simulator throughput at
/// this depth bounds how many such configurations we can sweep.
const CHURN_DEPTH: u64 = 100_000;

/// One churn event under the seed engine's only representation: a boxed
/// closure capturing a 32-byte payload (one heap allocation per event,
/// exactly how the seed runtime carried envelopes and completions).
fn churn_boxed_event(w: &mut ChurnWorld, sim: &mut Sim<ChurnWorld>) {
    w.fired += 1;
    let p = w.fresh_payload();
    let next = move |w: &mut ChurnWorld, sim: &mut Sim<ChurnWorld>| {
        w.consume(p);
        churn_boxed_event(w, sim);
    };
    match churn_delay(&mut w.rng) {
        None => sim.soon(next),
        Some(d) => sim.after(d, next),
    };
    // Every 8th event also schedules a timeout-style victim and cancels
    // the oldest outstanding one, exercising the cancel path. Victim
    // delays (>= 4us) dwarf the ~64-mark cancellation window, so the
    // cancel always lands on a live event and the population holds at
    // the seeded depth (+ the 64-victim window).
    if w.fired.is_multiple_of(8) {
        let d = SimDuration::from_ns(4_096 + w.rng.below(28_672));
        let vid = sim.after(d, |_w: &mut ChurnWorld, _sim: &mut Sim<ChurnWorld>| {});
        w.cancellable.push(vid);
        if w.cancellable.len() > 64 {
            let victim = w.cancellable.remove(0);
            sim.cancel(victim);
        }
    }
}

/// The same schedule shape through the closure-free fast path: the
/// payload lives in a world-side slab and the event carries its index —
/// the conversion pattern used for envelope delivery and deferred GPU
/// enqueues in `gaat-rt`.
fn churn_fast_event(w: &mut ChurnWorld, sim: &mut Sim<ChurnWorld>, pidx: u64) {
    let p = w.payloads[pidx as usize];
    w.payload_free.push(pidx as u32);
    w.consume(p);
    w.fired += 1;
    let p = w.fresh_payload();
    let idx = w.stash(p);
    match churn_delay(&mut w.rng) {
        None => sim.soon_call1(churn_fast_event, idx),
        Some(d) => sim.after_call1(d, churn_fast_event, idx),
    };
    if w.fired.is_multiple_of(8) {
        let d = SimDuration::from_ns(4_096 + w.rng.below(28_672));
        let vid = sim.after_call0(d, churn_victim_event);
        w.cancellable.push(vid);
        if w.cancellable.len() > 64 {
            let victim = w.cancellable.remove(0);
            sim.cancel(victim);
        }
    }
}

/// A timeout that expired without being cancelled: nothing to do.
fn churn_victim_event(_w: &mut ChurnWorld, _sim: &mut Sim<ChurnWorld>) {}

fn churn_boxed(n: u64, depth: u64, seed: u64) -> WorkloadResult {
    let mut sim: Sim<ChurnWorld> = Sim::new().with_event_limit(n);
    let mut w = ChurnWorld::new(seed);
    for i in 0..depth {
        sim.at(SimTime::from_ns(i % 4096), churn_boxed_event);
    }
    let start = Instant::now();
    sim.run(&mut w);
    let wall_s = start.elapsed().as_secs_f64();
    WorkloadResult {
        name: "churn_boxed",
        events: sim.events_executed(),
        wall_s,
        peak_pending: sim.peak_pending(),
    }
}

fn churn_fast(n: u64, depth: u64, seed: u64) -> WorkloadResult {
    let mut sim: Sim<ChurnWorld> = Sim::new().with_event_limit(n);
    let mut w = ChurnWorld::new(seed);
    for i in 0..depth {
        let idx = w.stash([i, 0, 0, 0]);
        sim.at_call1(SimTime::from_ns(i % 4096), churn_fast_event, idx);
    }
    let start = Instant::now();
    sim.run(&mut w);
    let wall_s = start.elapsed().as_secs_f64();
    WorkloadResult {
        name: "churn_fast",
        events: sim.events_executed(),
        wall_s,
        peak_pending: sim.peak_pending(),
    }
}

fn burst_soon(n: u64) -> WorkloadResult {
    // Chains of same-instant events separated by short hops: the
    // zero-latency callback pattern (scheduler drains, eager send-done).
    fn hop(w: &mut u64, sim: &mut Sim<u64>) {
        *w += 1;
        if (*w).is_multiple_of(32) {
            sim.after(SimDuration::from_ns(100), hop);
        } else {
            sim.soon(hop);
        }
    }
    let mut sim: Sim<u64> = Sim::new().with_event_limit(n);
    let mut w = 0u64;
    for _ in 0..64 {
        sim.soon(hop);
    }
    let start = Instant::now();
    sim.run(&mut w);
    let wall_s = start.elapsed().as_secs_f64();
    WorkloadResult {
        name: "burst_soon",
        events: sim.events_executed(),
        wall_s,
        peak_pending: sim.peak_pending(),
    }
}

fn cancel_heavy(n: u64) -> WorkloadResult {
    // Every fired event schedules two futures and cancels one of them:
    // half of all scheduled events die before firing (timeout pattern).
    struct W {
        rng: SimRng,
    }
    fn ev(w: &mut W, sim: &mut Sim<W>) {
        let d1 = SimDuration::from_ns(1 + w.rng.below(10_000));
        let d2 = SimDuration::from_ns(1 + w.rng.below(10_000));
        let keep = sim.after(d1, ev);
        let kill = sim.after(d2, ev);
        let _ = keep;
        sim.cancel(kill);
    }
    let mut sim: Sim<W> = Sim::new().with_event_limit(n);
    let mut w = W {
        rng: SimRng::new(7),
    };
    for i in 0..1_000 {
        sim.at(SimTime::from_ns(i), ev);
    }
    let start = Instant::now();
    sim.run(&mut w);
    let wall_s = start.elapsed().as_secs_f64();
    WorkloadResult {
        name: "cancel_heavy",
        events: sim.events_executed(),
        wall_s,
        peak_pending: sim.peak_pending(),
    }
}

fn jacobi_step(smoke: bool) -> WorkloadResult {
    // One strong-scaling point: fixed global grid across a few nodes,
    // GPU-aware halo exchange, modest ODF.
    let mut cfg = JacobiConfig::new(
        MachineConfig::summit(if smoke { 2 } else { 4 }),
        Dims::cube(if smoke { 96 } else { 192 }),
    );
    cfg.comm = CommMode::GpuAware;
    cfg.odf = 4;
    cfg.iters = if smoke { 4 } else { 20 };
    cfg.warmup = 1;
    let (mut sim, ids, sh) = charm::build(cfg);
    let start = Instant::now();
    charm::run(&mut sim, &ids, &sh);
    let wall_s = start.elapsed().as_secs_f64();
    WorkloadResult {
        name: "jacobi_step",
        events: sim.sim.events_executed(),
        wall_s,
        peak_pending: sim.sim.peak_pending(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_engine.json".to_string());

    let churn_n: u64 = if smoke { 200_000 } else { 4_000_000 };
    let churn_depth: u64 = if smoke { 10_000 } else { CHURN_DEPTH };
    let burst_n: u64 = if smoke { 200_000 } else { 4_000_000 };
    let cancel_n: u64 = if smoke { 100_000 } else { 1_000_000 };

    // Bracket the whole benchmark with steady-state probe windows so a
    // thermally-throttling host is recorded in the JSON, not silently
    // baked into the numbers.
    let mut guard = gaat_bench::throttle::ThrottleGuard::open(if smoke { 2 } else { 5 });

    // Best-of-N to shed scheduler noise; each rep rebuilds its Sim.
    let reps = if smoke { 1 } else { 5 };
    let best = |f: &dyn Fn() -> WorkloadResult| {
        let mut best = f();
        for _ in 1..reps {
            let r = f();
            if r.wall_s < best.wall_s {
                best = r;
            }
        }
        best
    };
    let results = vec![
        best(&|| churn_boxed(churn_n, churn_depth, 42)),
        best(&|| churn_fast(churn_n, churn_depth, 42)),
        best(&|| burst_soon(burst_n)),
        best(&|| cancel_heavy(cancel_n)),
        best(&|| jacobi_step(smoke)),
    ];

    guard.close();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"engine_speed\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!(
        "  \"baseline_churn_boxed_events_per_sec\": {:.0},\n",
        BASELINE_CHURN_EVENTS_PER_SEC
    ));
    json.push_str("  \"workloads\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"events\": {}, \"wall_s\": {:.6}, \"events_per_sec\": {:.0}, \"peak_pending\": {}}}{}\n",
            r.name,
            r.events,
            r.wall_s,
            r.events_per_sec(),
            r.peak_pending,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    let speedup_of = |eps: f64| {
        if BASELINE_CHURN_EVENTS_PER_SEC > 0.0 {
            eps / BASELINE_CHURN_EVENTS_PER_SEC
        } else {
            0.0
        }
    };
    let boxed_speedup = speedup_of(results[0].events_per_sec());
    let fast_speedup = speedup_of(results[1].events_per_sec());
    json.push_str(&format!(
        "  \"churn_boxed_speedup_vs_baseline\": {boxed_speedup:.3},\n"
    ));
    json.push_str(&format!(
        "  \"churn_fast_speedup_vs_baseline\": {fast_speedup:.3},\n"
    ));
    json.push_str(&format!("  \"steady_state\": {}\n", guard.json_object()));
    json.push_str("}\n");

    for r in &results {
        println!(
            "{:<14} {:>10} events  {:>9.3} ms  {:>12.0} events/s  peak_pending={}",
            r.name,
            r.events,
            r.wall_s * 1e3,
            r.events_per_sec(),
            r.peak_pending
        );
    }
    if boxed_speedup > 0.0 {
        println!(
            "churn speedup vs seed baseline: boxed {boxed_speedup:.2}x, fast {fast_speedup:.2}x"
        );
    }
    println!(
        "steady-state drift {:.3}x{}",
        guard.slowdown_ratio(),
        if guard.throttle_suspected() {
            "  ** thermal throttle suspected — numbers are biased **"
        } else {
            ""
        }
    );
    std::fs::write(&out, json).expect("write BENCH_engine.json");
    println!("wrote {out}");
}
