//! The four workloads and the measurement loop they share: one untimed
//! warm-up repetition, then timed repetitions, each on a freshly built
//! world, until the run's time is spent, with batches of warm set-up
//! samples before the first few.
//!
//! Every workload runs on the calling thread; the sweep runs with one
//! pool worker.

use std::sync::Arc;
use std::time::Instant;

use gaat_jacobi3d::charm::{self, Shared};
use gaat_jacobi3d::{CommMode, Dims, JacobiConfig, Placement, Reference};
use gaat_rt::{ChareId, LbPolicy, MachineConfig, Simulation};
use gaat_sim::{mix64, FaultPlan, LinkFault, LinkFaultKind, SimDuration, SimTime, StragglerWindow};
use gaat_sweep::{run_standalone, run_sweep, Scenario, ScenarioGrid, SweepOptions};

use crate::layers::{self, Counters, Parts, SweepParts};
use crate::stats::{median, percentile, Attempts, Replay};
use crate::trace::{Took, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's headline point: Charm-D at 512 Summit nodes.
    Strong512,
    /// Charm-H under link contention on the fat-tree flow solver.
    Fattree32,
    /// Adaptive load balancing against a straggling GPU and a degraded
    /// link, through checkpoints, rollback and migration.
    FaultsLb,
    /// A 1024-scenario grid of tiny real-buffer worlds with prefix forks.
    Sweep1024,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Strong512,
        Workload::Fattree32,
        Workload::FaultsLb,
        Workload::Sweep1024,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Strong512 => "strong512",
            Workload::Fattree32 => "fattree32",
            Workload::FaultsLb => "faults_lb",
            Workload::Sweep1024 => "sweep1024",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Timed warm constructions behind `setup_s` taken before each of the
    /// first [`SETUP_BATCHES`] timed repetitions: in all, enough that the
    /// median of a few-millisecond (or smaller) build holds still.
    fn setup_batch(self) -> usize {
        match self {
            Workload::Strong512 => 5,
            Workload::Fattree32 | Workload::FaultsLb => 20,
            Workload::Sweep1024 => 40,
        }
    }
}

/// Set-up samples are taken in this many batches, one before each of the
/// first timed repetitions, so that they sample the host across the run
/// instead of in one burst of a few milliseconds at its start.
const SETUP_BATCHES: usize = 5;

/// How to run a workload.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// Wall time for the timed repetitions (split evenly between the
    /// untraced and traced halves when tracing).
    pub seconds: f64,
    pub trace: bool,
    /// Shrunken configurations for a quick correctness pass.
    pub smoke: bool,
}

/// What one measured run produced. Times are process CPU seconds unless
/// named wall.
pub struct Outcome {
    pub attempts: Attempts,
    /// Untraced timed repetitions.
    pub run_s: Vec<f64>,
    /// Wall time of the same repetitions.
    pub run_wall_s: Vec<f64>,
    /// Traced timed repetitions (empty unless tracing).
    pub traced_run_s: Vec<f64>,
    /// Warm set-up samples.
    pub setup_s: Vec<f64>,
    /// The untimed warm-up repetition.
    pub cold_run_s: f64,
    /// Layer metrics (filled when tracing).
    pub layers: Vec<(&'static str, f64)>,
}

/// A workload's three phases, driven by [`measure`].
trait Bench {
    /// One warm fresh construction, dropped unrun; its set-up CPU seconds.
    fn setup_once(&mut self, tr: &mut Tracer) -> f64;
    /// One repetition on a freshly built world; the timed call.
    /// `attempts` is `None` for the warm-up, which counts no attempt.
    fn rep(&mut self, tr: &mut Tracer, attempts: Option<&mut Attempts>) -> Took;
    /// Correctness checks after the timed repetitions.
    fn check(&mut self, _tr: &mut Tracer, _attempts: &mut Attempts) {}
    /// Layer metrics from the last repetition and the set-up samples.
    fn layers(&self) -> Vec<(&'static str, f64)>;
}

/// Run one workload: warm-up, timed repetitions with batches of set-up
/// samples between them, and checks.
pub fn measure(w: Workload, o: &Opts, tr: &mut Tracer) -> Outcome {
    tr.set_on(o.trace);
    let mut b: Box<dyn Bench> = match w {
        Workload::Sweep1024 => Box::new(SweepBench::new(o)),
        _ => Box::new(JacobiBench::new(w, o, tr)),
    };
    let setup = if o.smoke {
        Setup {
            batches: 1,
            batch: 3,
        }
    } else {
        Setup {
            batches: SETUP_BATCHES,
            batch: w.setup_batch(),
        }
    };
    tr.set_on(false);
    b.setup_once(tr);
    let cold_run_s = b.rep(tr, None).cpu;

    let mut attempts = Attempts::default();
    let mut setup_s = Vec::new();
    let budget = if o.trace { o.seconds / 2.0 } else { o.seconds };
    let mut reps = |tr: &mut Tracer, first_run: usize, setup_s: Option<&mut Vec<f64>>| {
        timed_reps(
            &mut *b,
            tr,
            &mut attempts,
            budget,
            setup,
            first_run,
            setup_s,
        )
    };
    // The set-up samples go with the half whose spans are kept.
    let untraced = reps(tr, 1, (!o.trace).then_some(&mut setup_s));
    let traced_run_s = if o.trace {
        tr.set_on(true);
        reps(tr, untraced.len() + 1, Some(&mut setup_s))
            .iter()
            .map(|t| t.cpu)
            .collect()
    } else {
        Vec::new()
    };
    tr.set_run(0);
    b.check(tr, &mut attempts);
    let layers = if o.trace { b.layers() } else { Vec::new() };
    Outcome {
        attempts,
        run_s: untraced.iter().map(|t| t.cpu).collect(),
        run_wall_s: untraced.iter().map(|t| t.wall).collect(),
        traced_run_s,
        setup_s,
        cold_run_s,
        layers,
    }
}

/// How the set-up samples are spread over the timed repetitions.
#[derive(Debug, Clone, Copy)]
struct Setup {
    batches: usize,
    batch: usize,
}

/// Repetitions until `budget` seconds of wall time (builds and set-up
/// samples included) are spent, and at least one per set-up batch. With
/// `setup_s`, a batch of set-up samples goes before each of the first
/// repetitions.
fn timed_reps(
    b: &mut dyn Bench,
    tr: &mut Tracer,
    attempts: &mut Attempts,
    budget: f64,
    setup: Setup,
    first_run: usize,
    mut setup_s: Option<&mut Vec<f64>>,
) -> Vec<Took> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let spent = start.elapsed().as_secs_f64();
        let per_rep = if out.is_empty() {
            0.0
        } else {
            spent / out.len() as f64
        };
        if out.len() >= setup.batches && spent + per_rep > budget {
            return out;
        }
        tr.set_run((first_run + out.len()) as u32);
        if let Some(samples) = setup_s.as_deref_mut().filter(|_| out.len() < setup.batches) {
            samples.extend((0..setup.batch).map(|_| b.setup_once(tr)));
        }
        out.push(b.rep(tr, Some(&mut *attempts)));
    }
}

/// The straggler's slowdown in `faults_lb` and the capacity left on the
/// hottest link (the `lb_speed` headline cell).
const STRAGGLER_SLOWDOWN: f64 = 4.0;
const LINK_DEGRADE: f64 = 0.25;

fn strong512(seed: u64, smoke: bool) -> JacobiConfig {
    let mut machine = MachineConfig::summit(if smoke { 16 } else { 512 });
    machine.seed = seed;
    let mut c = JacobiConfig::new(machine, Dims::cube(3072));
    c.comm = CommMode::GpuAware;
    c.odf = 2;
    (c.iters, c.warmup) = if smoke { (1, 0) } else { (3, 2) };
    c
}

fn fattree32(seed: u64, smoke: bool) -> JacobiConfig {
    let mut machine = MachineConfig::summit_fattree(if smoke { 4 } else { 32 });
    machine.seed = seed;
    let mut c = JacobiConfig::new(machine, Dims::cube(1536));
    c.comm = CommMode::HostStaging;
    c.odf = 4;
    c.placement = Placement::RoundRobin;
    (c.iters, c.warmup) = (3, 3);
    c
}

/// Two fat-tree nodes, Charm-H at 192³ with the reliable transport on.
fn faults_lb_base(
    faults: FaultPlan,
    policy: LbPolicy,
    period: SimDuration,
    iters: usize,
) -> JacobiConfig {
    let mut machine = MachineConfig::summit_fattree(2);
    machine.net.jitter = 0.0;
    machine.ucx.reliability.enabled = true;
    machine.faults = faults;
    machine.lb.policy = policy;
    machine.lb.period = period;
    machine.lb.hysteresis_pct = 15;
    machine.lb.budget = 2;
    let mut c = JacobiConfig::new(machine, Dims::cube(192));
    c.comm = CommMode::HostStaging;
    c.odf = 2;
    c.iters = iters;
    c.warmup = 2;
    if c.machine.lb.enabled() {
        c.checkpoint_every = 1;
    }
    c
}

/// The adaptive balancer against one GPU throttled 4× and the hottest
/// link of a fault-free calibration run at quarter capacity. The seed
/// picks the throttled GPU (seed 1 throttles GPU 2, as `lb_speed` does),
/// so every seed maps to one of twelve inputs. The calibration also sets
/// the balancer period to one fault-free iteration; it is timed as its
/// own `calibrate` span.
///
/// There is no stochastic message loss: with 1% loss, the repeated
/// migrations it provokes on this cell panic or stall some runs,
/// depending on the loss seed.
fn faults_lb(seed: u64, smoke: bool, tr: &mut Tracer) -> JacobiConfig {
    let iters = if smoke { 20 } else { 300 };
    let t = tr.enter("calibrate", "bench");
    let (mut sim, ids, sh) = charm::build(faults_lb_base(
        FaultPlan::none(),
        LbPolicy::Off,
        SimDuration::ZERO,
        iters,
    ));
    let ideal = charm::run(&mut sim, &ids, &sh);
    let hot_link = sim.machine.fabric.stats().hottest_link.map(|l| l.0);
    let gpus = sh.cfg.machine.total_pes() as u64;
    tr.exit(t);

    let mut faults = FaultPlan::none();
    faults.stragglers.push(StragglerWindow {
        device: (seed.wrapping_add(1) % gpus) as usize,
        from: SimTime::ZERO,
        until: SimTime::ZERO + SimDuration::from_ms(60_000),
        slowdown: STRAGGLER_SLOWDOWN,
    });
    faults.link_faults.extend(hot_link.map(|link| LinkFault {
        at: SimTime::ZERO,
        link,
        kind: LinkFaultKind::Degrade(LINK_DEGRADE),
    }));
    faults_lb_base(faults, LbPolicy::Adaptive, ideal.time_per_iter, iters)
}

type World = (Simulation, Vec<ChareId>, Arc<Shared>);

/// `Simulation::new` then `charm::build_in`, each timed; returns the
/// world and both CPU times, s.
fn build(cfg: &JacobiConfig, tr: &mut Tracer) -> (World, f64, f64) {
    let t = tr.enter("Simulation::new", "rt");
    let sim = Simulation::new(cfg.machine.clone());
    let new_s = tr.exit(t).cpu;
    let t = tr.enter("charm::build_in", "jacobi3d");
    let world = charm::build_in(sim, cfg.clone());
    let build_s = tr.exit(t).cpu;
    (world, new_s, build_s)
}

/// The three Jacobi3D workloads.
struct JacobiBench {
    cfg: JacobiConfig,
    /// Applied load-balancing plans each repetition must reach.
    min_applied: u64,
    replay: Replay<crate::stats::Fingerprint>,
    new_s: Vec<f64>,
    build_s: Vec<f64>,
    last: Counters,
    last_run_s: f64,
    sim_us_per_iter: f64,
    sim_makespan_ms: f64,
}

impl JacobiBench {
    fn new(w: Workload, o: &Opts, tr: &mut Tracer) -> Self {
        let (cfg, min_applied) = match w {
            Workload::Strong512 => (strong512(o.seed, o.smoke), 0),
            Workload::Fattree32 => (fattree32(o.seed, o.smoke), 0),
            Workload::FaultsLb => (faults_lb(o.seed, o.smoke, tr), 1),
            Workload::Sweep1024 => unreachable!("the sweep has its own bench"),
        };
        JacobiBench {
            cfg,
            min_applied,
            replay: Replay::new(),
            new_s: Vec::new(),
            build_s: Vec::new(),
            last: Counters::default(),
            last_run_s: 0.0,
            sim_us_per_iter: 0.0,
            sim_makespan_ms: 0.0,
        }
    }
}

impl Bench for JacobiBench {
    fn setup_once(&mut self, tr: &mut Tracer) -> f64 {
        let (world, new_s, build_s) = build(&self.cfg, tr);
        drop(world);
        self.new_s.push(new_s);
        self.build_s.push(build_s);
        new_s + build_s
    }

    fn rep(&mut self, tr: &mut Tracer, attempts: Option<&mut Attempts>) -> Took {
        let ((mut sim, ids, sh), _, _) = build(&self.cfg, tr);
        let t = tr.enter("charm::run_tolerant", "jacobi3d");
        let span = t.id();
        let (res, stalled) = charm::run_tolerant(&mut sim, &ids, &sh);
        let took = tr.exit(t);

        let counters = Counters::read(&sim, res.as_ref());
        let same = self
            .replay
            .matches(&layers::fingerprint(&sim, res.as_ref()));
        let ok = same && stalled == 0 && res.is_some() && counters.lb_applied() >= self.min_applied;
        if let Some(a) = attempts {
            a.record(ok);
        }
        if let Some(id) = span {
            tr.attach(id, counters.span_counters());
        }
        if let Some(r) = &res {
            self.sim_us_per_iter = r.time_per_iter.as_micros_f64();
            self.sim_makespan_ms = r.total.as_millis_f64();
        }
        self.last = counters;
        self.last_run_s = took.cpu;
        took
    }

    fn layers(&self) -> Vec<(&'static str, f64)> {
        layers::values(
            &self.last,
            &Parts {
                counted_run_s: self.last_run_s,
                new_ms: median(&self.new_s) * 1e3,
                build_ms: median(&self.build_s) * 1e3,
                sim_us_per_iter: self.sim_us_per_iter,
                sim_makespan_ms: self.sim_makespan_ms,
                ..Parts::default()
            },
        )
    }
}

/// Scenarios re-run standalone and checked against the sweep and the
/// sequential reference.
const CHECKED_SCENARIOS: usize = 8;

/// The `examples/sweep_run.rs` grid: 32 machine seeds (the block picked
/// by `seed`) × ODF {1,2,4,8} × {Packed, RoundRobin} × drop {0, 1%, 5%,
/// 10%}, losses arming at 800 µs, on the 2×2 validation machine with
/// real 8³ buffers and the reliable transport on.
fn sweep_grid(seed: u64, smoke: bool) -> ScenarioGrid {
    let mut machine = MachineConfig::validation(2, 2);
    machine.faults = FaultPlan {
        seed: 42,
        ..FaultPlan::none()
    };
    machine.ucx.reliability.enabled = true;
    let mut grid = ScenarioGrid::new(machine);
    grid.workloads.push(gaat_sweep::Workload::Jacobi {
        global: Dims::cube(8),
        iters: 6,
        warmup: 1,
        comm: CommMode::HostStaging,
    });
    let per: u64 = if smoke { 2 } else { 32 };
    let first = per.wrapping_mul(seed.saturating_sub(1)).wrapping_add(1);
    grid.seeds = (0..per).map(|i| first.wrapping_add(i)).collect();
    grid.odfs = vec![1, 2, 4, 8];
    grid.placements = vec![Placement::Packed, Placement::RoundRobin];
    grid.drop_rates = vec![0.0, 0.01, 0.05, 0.10];
    grid.fault_onsets = vec![SimTime::ZERO + SimDuration::from_us(800)];
    grid
}

/// `count` distinct scenario indices below `n`, drawn from `seed`.
fn chosen(seed: u64, n: usize, count: usize) -> Vec<usize> {
    let mut picks = Vec::new();
    let mut h = seed ^ 0x5EED_C0FF_EE00_0001;
    while picks.len() < count.min(n) {
        h = mix64(h.wrapping_add(0x9E37_79B9_7F4A_7C15));
        let i = (h % n as u64) as usize;
        if !picks.contains(&i) {
            picks.push(i);
        }
    }
    picks
}

struct SweepBench {
    seed: u64,
    grid: ScenarioGrid,
    scenarios: Vec<Scenario>,
    opts: SweepOptions,
    /// Record fingerprints of the first (warm-up) sweep.
    first: Replay<Vec<u64>>,
    expand_s: Vec<f64>,
    new_s: Vec<f64>,
    build_s: Vec<f64>,
    setup_us: Vec<f64>,
    wall_us: Vec<f64>,
    sweep: SweepParts,
    unit_ns: Vec<f64>,
    makespan_ns: Vec<f64>,
    counted: Counters,
    counted_run_s: f64,
}

impl SweepBench {
    fn new(o: &Opts) -> Self {
        let grid = sweep_grid(o.seed, o.smoke);
        let scenarios = grid.expand();
        let mut opts = SweepOptions::new();
        opts.workers = 1;
        SweepBench {
            seed: o.seed,
            grid,
            scenarios,
            opts,
            first: Replay::new(),
            expand_s: Vec::new(),
            new_s: Vec::new(),
            build_s: Vec::new(),
            setup_us: Vec::new(),
            wall_us: Vec::new(),
            sweep: SweepParts::default(),
            unit_ns: Vec::new(),
            makespan_ns: Vec::new(),
            counted: Counters::default(),
            counted_run_s: 0.0,
        }
    }
}

impl Bench for SweepBench {
    /// Expanding the grid plus scenario 0's fresh world.
    fn setup_once(&mut self, tr: &mut Tracer) -> f64 {
        let t = tr.enter("ScenarioGrid::expand", "sweep");
        let scenarios = self.grid.expand();
        let expand_s = tr.exit(t).cpu;
        let (world, new_s, build_s) = build(&scenarios[0].jacobi_config(), tr);
        drop(world);
        self.expand_s.push(expand_s);
        self.new_s.push(new_s);
        self.build_s.push(build_s);
        expand_s + new_s + build_s
    }

    fn rep(&mut self, tr: &mut Tracer, attempts: Option<&mut Attempts>) -> Took {
        let t = tr.enter("run_sweep", "sweep");
        let span = t.id();
        let report =
            run_sweep(&self.scenarios, &self.opts).expect("no sweep output files are configured");
        let took = tr.exit(t);

        let prints = report.fingerprints();
        self.first.matches(&prints);
        let first = self.first.first().expect("set by the first sweep");
        if let Some(a) = attempts {
            for (rec, (fp, want)) in report.records.iter().zip(prints.iter().zip(first)) {
                a.record(rec.ok && fp == want);
            }
            self.setup_us
                .extend(report.records.iter().map(|r| r.setup_ns as f64 / 1e3));
            self.wall_us
                .extend(report.records.iter().map(|r| r.wall_ns as f64 / 1e3));
        }
        if let Some(id) = span {
            // Scenarios ran back to back on one worker, so laying their
            // reported walls end to end from the span's start covers the
            // same share of it as the real (unrecorded) start times.
            let mut at = tr.span(id).start_ns;
            for rec in &report.records {
                let c = tr.child(
                    id,
                    "scenario",
                    Some(rec.label.clone()),
                    at,
                    at + rec.wall_ns,
                );
                tr.child(c, "scenario.setup", None, at, at + rec.setup_ns);
                at += rec.wall_ns;
            }
            tr.attach(
                id,
                vec![
                    ("sweep.scenarios", report.records.len() as f64),
                    ("sweep.forked", report.fork.scenarios_forked as f64),
                    ("rt.slots_reused", report.slots.reused as f64),
                ],
            );
        }
        let n = report.records.len() as f64;
        let fork = &report.fork;
        self.sweep = SweepParts {
            scenarios: n,
            ok_frac: report.records.iter().filter(|r| r.ok).count() as f64 / n,
            fork_frac: fork.scenarios_forked as f64 / n,
            fork_declined: fork.declined as f64,
            snapshot_us: fork.snapshot_ns as f64 / 1e3 / fork.snapshots_taken.max(1) as f64,
            restore_us: fork.restore_ns as f64 / 1e3 / fork.scenarios_forked.max(1) as f64,
            slot_reuse_frac: report.slots.reused as f64 / report.slots.prepared.max(1) as f64,
            ..SweepParts::default()
        };
        self.unit_ns = report.records.iter().map(|r| r.unit_ns as f64).collect();
        self.makespan_ns = report
            .records
            .iter()
            .map(|r| r.makespan_ns as f64)
            .collect();
        took
    }

    /// Re-run the seed's chosen scenarios standalone: each record must
    /// match the sweep's fingerprint and the sequential reference's
    /// checksum bit for bit. While tracing, the same scenarios are also
    /// built and run here so their layer counters can be read (the sweep
    /// exports only its records).
    fn check(&mut self, tr: &mut Tracer, attempts: &mut Attempts) {
        let gaat_sweep::Workload::Jacobi {
            global,
            iters,
            warmup,
            ..
        } = self.grid.workloads[0]
        else {
            unreachable!("the sweep grid is Jacobi3D");
        };
        let t = tr.enter("Reference::run", "jacobi3d");
        let mut reference = Reference::new(global);
        reference.run(iters + warmup);
        let want = reference.norm2().to_bits();
        tr.exit(t);

        let first = self.first.first().expect("a sweep ran").clone();
        for i in chosen(self.seed, self.scenarios.len(), CHECKED_SCENARIOS) {
            let sc = &self.scenarios[i];
            let t = tr.enter("run_standalone", "sweep");
            let rec = run_standalone(sc);
            tr.exit(t);
            attempts.record(
                rec.ok
                    && rec.fingerprint() == first[i]
                    && rec.checksum.map(f64::to_bits) == Some(want),
            );
            if tr.is_on() {
                let ((mut sim, ids, sh), _, _) = build(&sc.jacobi_config(), tr);
                let t = tr.enter("charm::run_tolerant", "jacobi3d");
                let (res, _) = charm::run_tolerant(&mut sim, &ids, &sh);
                self.counted_run_s += tr.exit(t).cpu;
                self.counted.add(&Counters::read(&sim, res.as_ref()));
            }
        }
    }

    fn layers(&self) -> Vec<(&'static str, f64)> {
        let sweep = SweepParts {
            setup_us_p50: percentile(&self.setup_us, 50.0),
            wall_us_p50: percentile(&self.wall_us, 50.0),
            wall_us_p99: percentile(&self.wall_us, 99.0),
            ..self.sweep
        };
        layers::values(
            &self.counted,
            &Parts {
                counted_run_s: self.counted_run_s,
                new_ms: median(&self.new_s) * 1e3,
                build_ms: median(&self.build_s) * 1e3,
                expand_ms: median(&self.expand_s) * 1e3,
                sim_us_per_iter: median(&self.unit_ns) / 1e3,
                sim_makespan_ms: median(&self.makespan_ns) / 1e6,
                sweep,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("all"), None);
    }

    #[test]
    fn sweep_seed_picks_its_block_of_grid_seeds() {
        assert_eq!(sweep_grid(1, false).seeds, (1..=32).collect::<Vec<u64>>());
        assert_eq!(sweep_grid(2, false).seeds, (33..=64).collect::<Vec<u64>>());
        assert_eq!(sweep_grid(2, false).expand().len(), 1024);
        assert_eq!(sweep_grid(1, true).expand().len(), 64);
    }

    #[test]
    fn chosen_scenarios_are_distinct_and_seeded() {
        let a = chosen(1, 1024, 8);
        assert_eq!(a.len(), 8);
        assert!(a.iter().all(|&i| i < 1024));
        let mut d = a.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 8);
        assert_eq!(a, chosen(1, 1024, 8));
        assert_ne!(a, chosen(2, 1024, 8));
    }
}
