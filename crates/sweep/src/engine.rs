//! The request-driven sweep executor: a work queue drained by a pool of
//! std threads, each owning one reusable [`WorldSlot`].
//!
//! Determinism argument, in full:
//!
//! 1. Every scenario runs in its *own* single-machine simulation, fully
//!    determined by its `MachineConfig` (seed, fault plan, topology)
//!    and workload parameters. Nothing about one scenario's execution
//!    reads another's state.
//! 2. World-slot reuse is bit-invisible ([`gaat_sim::Sim::reset`]
//!    restores a fresh engine's observable state; pinned by the
//!    world-reuse test), so it does not matter *which* slot — with
//!    *whatever* history — a scenario lands on.
//! 3. The shared route table replays exactly what each fabric would
//!    derive itself (`gaat-topo`'s `RouteTable` is built by replaying
//!    `try_route`), so sharing immutable topology state is also
//!    bit-invisible.
//! 4. Workers claim scenarios by atomic fetch-add, so worker count and
//!    dequeue order only permute *completion order*. Records carry
//!    their scenario's stable grid index; the report re-sorts by index,
//!    and wall-clock metadata is excluded from fingerprints.
//!
//! Hence: fingerprints from a sweep at any worker count equal each
//! other and equal standalone single-run invocations of the same
//! scenarios. `crates/sweep/tests/determinism_sweep.rs` pins this.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use gaat_jacobi3d::{charm, RunResult};
use gaat_net::SharedTopology;
use gaat_rt::{ChareId, Simulation, SlotStats, WorldSlot};
use gaat_sim::SimDuration;

use crate::fork::{self, ForkStats, Unit};
use crate::grid::{Scenario, Workload};
use crate::record::{AggregateRow, ScenarioRecord};

/// How to drain a scenario queue.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; 0 = host parallelism.
    pub workers: usize,
    /// Recycle each worker's engine between scenarios (the fast path;
    /// off = build a fresh world per run, for overhead measurement).
    pub reuse_worlds: bool,
    /// Analyze the scenario list into prefix groups (see [`fork`]) and
    /// run each group's shared prefix once, snapshotting at the
    /// divergence instant and forking the branches from the snapshot.
    /// Bit-invisible in the records — pinned against the unforked path
    /// — and off for anything the planner cannot prove shareable.
    pub fork: bool,
    /// Resume a partial sweep: re-read `jsonl` (if it exists), keep
    /// every intact record whose index and label match this scenario
    /// list, and run only the missing scenarios. The file is rewritten
    /// with the kept records first, so a corrupt tail line from a kill
    /// mid-write is dropped rather than appended after.
    pub resume: bool,
    /// Stream one JSON record per completed scenario here, flushed per
    /// line so a killed sweep keeps everything finished so far.
    pub jsonl: Option<PathBuf>,
    /// Write the end-of-sweep aggregate summary here as CSV.
    pub csv: Option<PathBuf>,
}

impl SweepOptions {
    /// Defaults plus world reuse and prefix-fork sharing on (the normal
    /// configuration).
    pub fn new() -> Self {
        SweepOptions {
            reuse_worlds: true,
            fork: true,
            ..Default::default()
        }
    }
}

/// Everything a finished sweep produced, in scenario-index order.
#[derive(Debug)]
pub struct SweepReport {
    /// One record per scenario, sorted by grid index.
    pub records: Vec<ScenarioRecord>,
    /// Wall time of the whole drain.
    pub wall: Duration,
    /// Worker threads used.
    pub workers: usize,
    /// Merged world-slot counters across workers.
    pub slots: SlotStats,
    /// Merged prefix-fork counters across workers (all zero when
    /// [`SweepOptions::fork`] is off or nothing was shareable).
    pub fork: ForkStats,
    /// Scenarios satisfied from the resumed JSONL instead of executed.
    pub resumed: usize,
}

impl SweepReport {
    /// Per-scenario fingerprints in index order (the cross-worker-count
    /// comparison key).
    pub fn fingerprints(&self) -> Vec<u64> {
        self.records
            .iter()
            .map(ScenarioRecord::fingerprint)
            .collect()
    }

    /// Records folded by group (everything but the seed axis), in
    /// first-appearance order.
    pub fn aggregate(&self) -> Vec<AggregateRow> {
        let mut rows: Vec<AggregateRow> = Vec::new();
        for r in &self.records {
            let row = match rows.iter_mut().find(|g| g.group == r.group) {
                Some(row) => row,
                None => {
                    rows.push(AggregateRow {
                        group: r.group.clone(),
                        count: 0,
                        ok: 0,
                        stalled: 0,
                        mean_makespan_ns: 0.0,
                        mean_unit_ns: 0.0,
                        mean_wall_ns: 0.0,
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            // Accumulate sums first; normalized below.
            row.count += 1;
            row.stalled += r.stalled;
            row.mean_wall_ns += r.wall_ns as f64;
            if r.ok {
                row.ok += 1;
                row.mean_makespan_ns += r.makespan_ns as f64;
                row.mean_unit_ns += r.unit_ns as f64;
            }
        }
        for row in &mut rows {
            row.mean_wall_ns /= row.count as f64;
            if row.ok > 0 {
                row.mean_makespan_ns /= row.ok as f64;
                row.mean_unit_ns /= row.ok as f64;
            }
        }
        rows
    }

    /// The aggregate as a printable table.
    pub fn aggregate_table(&self) -> String {
        let mut out = format!(
            "{:<55} {:>5} {:>5} {:>7} {:>12} {:>10}\n",
            "group", "runs", "ok", "stalled", "makespan_us", "unit_us"
        );
        for row in self.aggregate() {
            out.push_str(&format!(
                "{:<55} {:>5} {:>5} {:>7} {:>12.1} {:>10.2}\n",
                row.group,
                row.count,
                row.ok,
                row.stalled,
                row.mean_makespan_ns / 1e3,
                row.mean_unit_ns / 1e3,
            ));
        }
        out
    }
}

/// Drain `scenarios` across a worker pool and collect every record.
/// Per-scenario outcomes are independent of `opts.workers` and of
/// dequeue order (see the module docs for the argument); only the
/// wall-clock metadata fields vary.
pub fn run_sweep(scenarios: &[Scenario], opts: &SweepOptions) -> std::io::Result<SweepReport> {
    let start = Instant::now();
    let workers = if opts.workers == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        opts.workers
    };

    // One immutable topology/route table per unique machine shape,
    // built up front and shared behind `Arc`s by every worker.
    let mut shapes: Vec<SharedTopology> = Vec::new();
    for sc in scenarios {
        if !shapes
            .iter()
            .any(|t| t.matches(sc.machine.nodes, &sc.machine.net))
        {
            shapes.push(SharedTopology::build(sc.machine.nodes, &sc.machine.net));
        }
    }

    // Resume: harvest intact records from a previous partial JSONL.
    // A record is trusted only if it parses, its stored fingerprint
    // matches the recomputed one, and its index/label agree with this
    // scenario list (guarding against resuming a different grid).
    let mut slots_out: Vec<Option<ScenarioRecord>> = vec![None; scenarios.len()];
    let mut resumed = 0usize;
    if opts.resume {
        if let Some(p) = &opts.jsonl {
            if let Ok(text) = std::fs::read_to_string(p) {
                for line in text.lines() {
                    if let Some(mut rec) = ScenarioRecord::from_jsonl(line) {
                        let i = rec.index;
                        if i < scenarios.len()
                            && rec.label == scenarios[i].label()
                            && slots_out[i].is_none()
                        {
                            rec.group = scenarios[i].group();
                            slots_out[i] = Some(rec);
                            resumed += 1;
                        }
                    }
                }
            }
        }
    }
    let skip: Vec<bool> = slots_out.iter().map(Option::is_some).collect();
    let units = fork::plan(scenarios, opts.fork, &skip);

    let mut jsonl = match &opts.jsonl {
        Some(p) => Some(BufWriter::new(File::create(p)?)),
        None => None,
    };
    // Rewriting (rather than appending to) the file on resume drops any
    // corrupt tail line; the kept records come back first.
    if let Some(w) = jsonl.as_mut() {
        for rec in slots_out.iter().flatten() {
            writeln!(w, "{}", rec.jsonl())?;
        }
        w.flush()?;
    }
    let mut write_err: Option<std::io::Error> = None;

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<ScenarioRecord>();
    let mut slots = SlotStats::default();
    let mut fork_stats = ForkStats::default();
    let shapes_ref = &shapes;
    let next_ref = &next;
    let units_ref = &units;

    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..workers {
            let tx = tx.clone();
            handles.push(s.spawn(move || {
                let mut w = Worker::new(scenarios, opts.reuse_worlds);
                for t in shapes_ref {
                    w.slot.install_topology(t.clone());
                }
                'drain: loop {
                    let u = next_ref.fetch_add(1, Ordering::Relaxed);
                    if u >= units_ref.len() {
                        break;
                    }
                    for rec in w.run_unit(&units_ref[u]) {
                        if tx.send(rec).is_err() {
                            break 'drain;
                        }
                    }
                }
                (w.slot.stats(), w.fork)
            }));
        }
        drop(tx);
        // The calling thread is the sink: stream each record out the
        // moment it lands, so a killed sweep keeps every completed one.
        for rec in rx {
            if let Some(w) = jsonl.as_mut() {
                if write_err.is_none() {
                    let line = rec.jsonl();
                    if let Err(e) = writeln!(w, "{line}").and_then(|()| w.flush()) {
                        write_err = Some(e);
                    }
                }
            }
            let idx = rec.index;
            slots_out[idx] = Some(rec);
        }
        for h in handles {
            let (st, fs) = h.join().expect("sweep worker panicked");
            slots.prepared += st.prepared;
            slots.reused += st.reused;
            fork_stats.merge(&fs);
        }
    });
    if let Some(e) = write_err {
        return Err(e);
    }

    let records: Vec<ScenarioRecord> = slots_out
        .into_iter()
        .map(|r| r.expect("every scenario produces exactly one record"))
        .collect();
    let report = SweepReport {
        records,
        wall: start.elapsed(),
        workers,
        slots,
        fork: fork_stats,
        resumed,
    };
    if let Some(p) = &opts.csv {
        let mut w = BufWriter::new(File::create(p)?);
        writeln!(w, "{}", AggregateRow::csv_header())?;
        for row in report.aggregate() {
            writeln!(w, "{}", row.csv())?;
        }
        w.flush()?;
    }
    Ok(report)
}

/// Run one scenario standalone, on a throwaway slot with no engine or
/// topology reuse — the reference path the determinism test compares
/// sweep records against.
pub fn run_standalone(sc: &Scenario) -> ScenarioRecord {
    let mut w = Worker::new(std::slice::from_ref(sc), false);
    let mut recs = w.run_unit(&Unit::Single(0));
    recs.pop().expect("a single scenario yields one record")
}

/// Drain an arbitrary job list across a pool of worker threads, each
/// owning one reusable [`WorldSlot`] — the generic pool underneath
/// [`run_sweep`], exposed so other harnesses (the figure generator, the
/// examples) can recycle worlds instead of hand-rolling serial loops.
/// Jobs are claimed by atomic fetch-add; results come back in job
/// order. `workers == 0` uses host parallelism.
pub fn run_batch<J, R, F>(jobs: &[J], workers: usize, f: F) -> (Vec<R>, SlotStats)
where
    J: Sync,
    R: Send,
    F: Fn(&mut WorldSlot, &J) -> R + Sync,
{
    let workers = if workers == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        workers
    }
    .min(jobs.len().max(1));
    let next = AtomicUsize::new(0);
    let out: Vec<std::sync::Mutex<Option<R>>> = (0..jobs.len())
        .map(|_| std::sync::Mutex::new(None))
        .collect();
    let mut slots = SlotStats::default();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..workers {
            handles.push(s.spawn(|| {
                let mut slot = WorldSlot::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    *out[i].lock().expect("a batch job panicked") = Some(f(&mut slot, &jobs[i]));
                }
                slot.stats()
            }));
        }
        for h in handles {
            let st = h.join().expect("batch worker panicked");
            slots.prepared += st.prepared;
            slots.reused += st.reused;
        }
    });
    let results = out
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("lock poisoned")
                .expect("job claimed but never finished")
        })
        .collect();
    (results, slots)
}

/// A record with identity filled in and every outcome field zeroed.
fn base_record(sc: &Scenario) -> ScenarioRecord {
    ScenarioRecord {
        index: sc.index,
        group: sc.group(),
        label: sc.label(),
        ok: true,
        stalled: 0,
        makespan_ns: 0,
        unit_ns: 0,
        checksum: None,
        entries: 0,
        net_messages: 0,
        net_bytes: 0,
        net_drops: 0,
        net_retransmits: 0,
        ucx_retransmits: 0,
        ucx_timeouts: 0,
        ucx_duplicates: 0,
        coll_bytes: 0,
        coll_chunks: 0,
        wall_ns: 0,
        setup_ns: 0,
        reused_world: false,
    }
}

/// Fold a tolerant Jacobi outcome into the record.
fn apply_jacobi_outcome(
    rec: &mut ScenarioRecord,
    sim: &Simulation,
    res: Option<RunResult>,
    stalled: usize,
) {
    match res {
        Some(r) => {
            rec.makespan_ns = r.total.as_ns();
            rec.unit_ns = r.time_per_iter.as_ns();
            rec.checksum = r.checksum;
        }
        None => {
            rec.ok = false;
            rec.stalled = stalled as u64;
            rec.makespan_ns = sim.sim.now().as_ns();
        }
    }
}

/// Copy the machine's end-of-run counters into the record.
fn seal_record(rec: &mut ScenarioRecord, sim: &Simulation) {
    let net = sim.machine.fabric.stats();
    let ucx = sim.machine.ucx.stats();
    rec.entries = sim.machine.stats().entries;
    rec.net_messages = net.messages;
    rec.net_bytes = net.bytes;
    rec.net_drops = net.drops;
    rec.net_retransmits = net.retransmits;
    rec.ucx_retransmits = ucx.retransmits;
    rec.ucx_timeouts = ucx.timeouts;
    rec.ucx_duplicates = ucx.duplicates;
}

/// One executor thread's state: the scenario list, its reusable world
/// slot, and its fork counters.
struct Worker<'a> {
    scenarios: &'a [Scenario],
    slot: WorldSlot,
    reuse: bool,
    fork: ForkStats,
}

impl<'a> Worker<'a> {
    fn new(scenarios: &'a [Scenario], reuse: bool) -> Self {
        Worker {
            scenarios,
            slot: WorldSlot::new(),
            reuse,
            fork: ForkStats::default(),
        }
    }

    /// Run one unit of work, dispatching on its workload. A single
    /// scenario is a group of one with no fork point.
    fn run_unit(&mut self, unit: &Unit) -> Vec<ScenarioRecord> {
        match self.scenarios[unit.members().0[0]].workload {
            Workload::Jacobi { .. } => self.run_app(
                unit,
                |sim0, sc: &Scenario| charm::build_in(sim0, sc.jacobi_config()),
                charm::start,
                |sim, ids, sh, rec| {
                    let (res, stalled) = charm::finish_tolerant(sim, ids, sh);
                    apply_jacobi_outcome(rec, sim, res, stalled);
                },
            ),
            Workload::Sweep3d {
                global,
                sweeps,
                warmup,
            } => self.run_app(
                unit,
                move |sim0, sc: &Scenario| {
                    let mut cfg = gaat_sweep3d::SweepConfig::new(sc.machine.clone(), global);
                    cfg.odf = sc.odf;
                    cfg.sweeps = sweeps;
                    cfg.warmup = warmup;
                    gaat_sweep3d::build_in(sim0, cfg)
                },
                gaat_sweep3d::start,
                |sim, ids, sh, rec| {
                    let r = gaat_sweep3d::finish(sim, ids, sh);
                    rec.makespan_ns = r.total.as_ns();
                    rec.unit_ns = r.time_per_sweep.as_ns();
                },
            ),
            Workload::Train { params, steps } => self.run_app(
                unit,
                move |sim0, sc: &Scenario| {
                    let mut cfg = gaat_dptrain::TrainConfig::new(sc.machine.clone(), params);
                    cfg.steps = steps;
                    gaat_dptrain::train::build_train_in(sim0, cfg)
                },
                gaat_dptrain::train::start_train,
                |sim, ids, sh, rec| {
                    let r = gaat_dptrain::train::finish_train(sim, ids, sh);
                    rec.makespan_ns = r.total.as_ns();
                    rec.unit_ns = r.time_per_step.as_ns();
                    rec.coll_bytes = r.coll_stats.bytes;
                    rec.coll_chunks = r.coll_stats.chunks;
                },
            ),
            Workload::Moe {
                tokens,
                hidden,
                rounds,
            } => self.run_app(
                unit,
                move |sim0, sc: &Scenario| {
                    let mut cfg = gaat_dptrain::MoeConfig::new(sc.machine.clone(), tokens, hidden);
                    cfg.rounds = rounds;
                    gaat_dptrain::moe::build_moe_in(sim0, cfg)
                },
                gaat_dptrain::moe::start_moe,
                |sim, ids, sh, rec| {
                    let r = gaat_dptrain::moe::finish_moe(sim, ids, sh);
                    rec.makespan_ns = r.total.as_ns();
                    rec.unit_ns = r.time_per_round.as_ns();
                    rec.coll_bytes = r.dispatch_stats.bytes + r.combine_stats.bytes;
                    rec.coll_chunks = r.dispatch_stats.chunks + r.combine_stats.chunks;
                },
            ),
        }
    }

    /// Workload-agnostic body of [`run_unit`]: `build` constructs the
    /// app world inside a prepared simulation, `start` injects the
    /// initial broadcast, and `finish` drains the run and folds its
    /// outcome into the record. Builds and starts the first member's
    /// world. For a group, it runs the shared prefix to just
    /// before `divergence` and snapshots. It finishes the first member
    /// live, then every other member from a restore of the snapshot with
    /// its own stochastic fault plan swapped in. If the world declines to
    /// snapshot, the first member still finishes live (the prefix ran under
    /// its exact config) and the rest fall back to standalone runs —
    /// correctness never depends on the fork succeeding.
    fn run_app<Sh, B>(
        &mut self,
        unit: &Unit,
        build: B,
        start: fn(&mut Simulation, &[ChareId]),
        finish: fn(&mut Simulation, &[ChareId], &Sh, &mut ScenarioRecord),
    ) -> Vec<ScenarioRecord>
    where
        B: Fn(Simulation, &Scenario) -> (Simulation, Vec<ChareId>, Arc<Sh>),
    {
        let (scenarios, reuse) = (self.scenarios, self.reuse);
        let (slot, fstats) = (&mut self.slot, &mut self.fork);
        // Build and start a member's world from t = 0.
        let launch = |slot: &mut WorldSlot, sc: &Scenario| {
            let t0 = Instant::now();
            let mut rec = base_record(sc);
            rec.reused_world = reuse && slot.stats().prepared > 0;
            let sim0 = if reuse {
                slot.prepare(sc.machine.clone())
            } else {
                Simulation::new(sc.machine.clone())
            };
            let (mut sim, ids, sh) = build(sim0, sc);
            rec.setup_ns = t0.elapsed().as_nanos() as u64;
            start(&mut sim, &ids);
            (sim, ids, sh, rec, t0)
        };
        let finish = |sim: &mut Simulation, ids: &[ChareId], sh: &Sh, mut rec, t0: Instant| {
            finish(sim, ids, sh, &mut rec);
            seal_record(&mut rec, sim);
            rec.wall_ns = t0.elapsed().as_nanos() as u64;
            rec
        };

        let (members, divergence) = unit.members();
        let (mut sim, ids, sh, rec, t0) = launch(slot, &scenarios[members[0]]);
        let snap = divergence.and_then(|t| {
            fstats.groups += 1;
            // Events at exactly the divergence instant may already observe
            // the late fields, so the pause lands one tick before it.
            sim.run_until(t - SimDuration::from_ns(1));
            let st = Instant::now();
            let snap = sim.snapshot()?;
            fstats.snapshots_taken += 1;
            fstats.snapshot_ns += st.elapsed().as_nanos() as u64;
            Some(snap)
        });
        let mut out = vec![finish(&mut sim, &ids, &sh, rec, t0)];
        let rest = &members[1..];
        if let Some(snap) = &snap {
            fstats.scenarios_forked += rest.len();
            for &m in rest {
                let bt = Instant::now();
                sim.restore(snap);
                let restore_ns = bt.elapsed().as_nanos() as u64;
                fstats.restore_ns += restore_ns;
                let mut rec = base_record(&scenarios[m]);
                rec.setup_ns = restore_ns;
                rec.reused_world = true;
                sim.set_stochastic_faults(scenarios[m].machine.faults.clone());
                out.push(finish(&mut sim, &ids, &sh, rec, bt));
            }
        }
        if reuse {
            slot.retire(sim);
        }
        if snap.is_none() {
            fstats.declined += rest.len();
            for &m in rest {
                let (mut sim, ids, sh, rec, t0) = launch(slot, &scenarios[m]);
                out.push(finish(&mut sim, &ids, &sh, rec, t0));
                if reuse {
                    slot.retire(sim);
                }
            }
        }
        out
    }
}
