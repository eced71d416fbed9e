//! The request-driven sweep executor: a work queue drained by a pool of
//! std threads, each building a fresh world per unit of work.
//!
//! Determinism argument, in full:
//!
//! 1. Every scenario runs in its *own* single-machine simulation, fully
//!    determined by its `MachineConfig` (seed, fault plan, topology)
//!    and workload parameters. Nothing about one scenario's execution
//!    reads another's state.
//! 2. Every unit builds its world with `Simulation::new` and the app's
//!    `build`, so no state survives from one unit to the next, and it
//!    does not matter *which* worker a scenario lands on.
//! 3. Workers claim scenarios by atomic fetch-add, so worker count and
//!    dequeue order only permute *completion order*. Records carry
//!    their scenario's stable grid index; the report re-sorts by index,
//!    and wall-clock metadata is excluded from fingerprints.
//!
//! Hence: fingerprints from a sweep at any worker count equal each
//! other and equal standalone single-run invocations of the same
//! scenarios. `crates/sweep/tests/determinism_sweep.rs` pins this.
//! A scenario that fails validation is never built: [`run_sweep`] and
//! [`run_standalone`] both turn it into the same rejected record.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use gaat_jacobi3d::{charm, RunResult};
use gaat_rt::{ChareId, Simulation};
use gaat_sim::SimDuration;

use crate::fork::{self, ForkStats, Unit};
use crate::grid::{Scenario, Workload};
use crate::record::{AggregateRow, ScenarioRecord};

/// How to drain a scenario queue.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; 0 = host parallelism.
    pub workers: usize,
    /// Analyze the scenario list into prefix groups (see [`fork`]) and
    /// run each group's shared prefix once, cloning the world at the
    /// divergence instant and forking the branches from the clone.
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
    /// Defaults plus prefix-fork sharing on (the normal configuration).
    pub fn new() -> Self {
        SweepOptions {
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
    /// Worlds built across workers.
    pub slots: WorldCounts,
    /// Merged prefix-fork counters across workers (all zero when
    /// [`SweepOptions::fork`] is off or nothing was shareable).
    pub fork: ForkStats,
    /// Scenarios satisfied from the resumed JSONL instead of executed.
    pub resumed: usize,
}

/// How many worlds a sweep built. Stays only for the benchmark binary,
/// which still reads both fields, until a benchmark-only change drops
/// that reader.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorldCounts {
    /// Worlds built with `Simulation::new`: one per unit of work.
    pub prepared: u64,
    /// Always 0: every unit builds a fresh world.
    pub reused: u64,
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
    // A scenario whose configuration is rejected gets its record now
    // and never reaches the planner, so it joins no fork group.
    for (slot, sc) in slots_out.iter_mut().zip(scenarios) {
        if slot.is_none() {
            *slot = rejection(sc);
        }
    }
    let skip: Vec<bool> = slots_out.iter().map(Option::is_some).collect();
    let units = fork::plan(scenarios, opts.fork, &skip);

    let mut jsonl = match &opts.jsonl {
        Some(p) => Some(BufWriter::new(File::create(p)?)),
        None => None,
    };
    // Rewriting (rather than appending to) the file on resume drops any
    // corrupt tail line; the kept and rejected records come first.
    if let Some(w) = jsonl.as_mut() {
        for rec in slots_out.iter().flatten() {
            writeln!(w, "{}", rec.jsonl())?;
        }
        w.flush()?;
    }
    let mut write_err: Option<std::io::Error> = None;

    let stats = drain(
        &units,
        opts.workers,
        || Worker::new(scenarios),
        Worker::run_unit,
        |w| (w.built, w.fork),
        // The calling thread is the sink: stream each record out the
        // moment it lands, so a killed sweep keeps every completed one.
        |_, recs| {
            for rec in recs {
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
        },
    );
    let workers = stats.len();
    let mut slots = WorldCounts::default();
    let mut fork_stats = ForkStats::default();
    for (built, fs) in &stats {
        slots.prepared += built;
        fork_stats.merge(fs);
    }
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

/// Run one scenario standalone, in its own fresh world — the reference
/// path the determinism test compares sweep records against.
pub fn run_standalone(sc: &Scenario) -> ScenarioRecord {
    if let Some(rec) = rejection(sc) {
        return rec;
    }
    let mut w = Worker::new(std::slice::from_ref(sc));
    let mut recs = w.run_unit(&Unit::Single(0));
    recs.pop().expect("a single scenario yields one record")
}

/// Drain an arbitrary job list on the sweep engine's pool, so harnesses
/// (the figure generator) need no serial loops of their own.
/// [`run_sweep`] drains its units on the same pool and adds resume,
/// prefix forks and streamed JSONL output. Results come back in job
/// order. `workers == 0` uses host parallelism.
pub fn run_batch<J, R, F>(jobs: &[J], workers: usize, f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    let mut out: Vec<Option<R>> = (0..jobs.len()).map(|_| None).collect();
    drain(
        jobs,
        workers,
        || (),
        |(), j| f(j),
        |()| (),
        |i, r| out[i] = Some(r),
    );
    out.into_iter()
        .map(|r| r.expect("every job produces exactly one result"))
        .collect()
}

/// The one worker pool under [`run_sweep`] and [`run_batch`]: `workers`
/// threads (0 = host parallelism; never more than there are jobs), each
/// holding one state built by `init`, claim jobs by atomic fetch-add.
/// Every result reaches `sink` on the calling thread, with its job
/// index, as soon as its job finishes. Returns one `done(state)` per
/// worker.
fn drain<J, S, R, T>(
    jobs: &[J],
    workers: usize,
    init: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, &J) -> R + Sync,
    done: impl Fn(S) -> T + Sync,
    mut sink: impl FnMut(usize, R),
) -> Vec<T>
where
    J: Sync,
    R: Send,
    T: Send,
{
    let workers = if workers == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        workers
    }
    .min(jobs.len().max(1));
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let tx = tx.clone();
                let (next, init, run, done) = (&next, &init, &run, &done);
                s.spawn(move || {
                    let mut state = init();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() || tx.send((i, run(&mut state, &jobs[i]))).is_err() {
                            break;
                        }
                    }
                    done(state)
                })
            })
            .collect();
        drop(tx);
        for (i, r) in rx {
            sink(i, r);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("pool worker panicked"))
            .collect()
    })
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
        error: None,
    }
}

/// The record of a scenario whose configuration fails validation, or
/// `None` if it can be built. Every workload checks its whole app
/// config, the machine included.
fn rejection(sc: &Scenario) -> Option<ScenarioRecord> {
    let error = match sc.workload {
        Workload::Jacobi { .. } => sc.jacobi_config().validate().err()?.to_string(),
        Workload::Sweep3d { .. } => sc.sweep3d_config().validate().err()?.to_string(),
        Workload::Train { .. } => sc.train_config().validate().err()?.to_string(),
        Workload::Moe { .. } => sc.moe_config().validate().err()?.to_string(),
    };
    Some(ScenarioRecord {
        ok: false,
        error: Some(error),
        ..base_record(sc)
    })
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

/// What an app's `build` returns: the world, its chare ids and the
/// app's shared parameters.
type Built<Sh> = (Simulation, Vec<ChareId>, Arc<Sh>);

/// One executor thread's state: the scenario list, how many worlds it
/// built, and its fork counters.
struct Worker<'a> {
    scenarios: &'a [Scenario],
    built: u64,
    fork: ForkStats,
}

impl<'a> Worker<'a> {
    fn new(scenarios: &'a [Scenario]) -> Self {
        Worker {
            scenarios,
            built: 0,
            fork: ForkStats::default(),
        }
    }

    /// Run one unit of work, dispatching on its workload. A single
    /// scenario is a group of one with no fork point.
    fn run_unit(&mut self, unit: &Unit) -> Vec<ScenarioRecord> {
        match self.scenarios[unit.members().0[0]].workload {
            Workload::Jacobi { .. } => self.run_app(
                unit,
                |sc| charm::build(sc.jacobi_config()),
                charm::start,
                |sim, ids, sh, rec| {
                    let (res, stalled) = charm::finish_tolerant(sim, ids, sh);
                    apply_jacobi_outcome(rec, sim, res, stalled);
                },
            ),
            Workload::Sweep3d { .. } => self.run_app(
                unit,
                |sc| gaat_sweep3d::build(sc.sweep3d_config()),
                gaat_sweep3d::start,
                |sim, ids, sh, rec| {
                    let r = gaat_sweep3d::finish(sim, ids, sh);
                    rec.makespan_ns = r.total.as_ns();
                    rec.unit_ns = r.time_per_sweep.as_ns();
                },
            ),
            Workload::Train { .. } => self.run_app(
                unit,
                |sc| gaat_dptrain::train::build_train(sc.train_config()),
                gaat_dptrain::train::start_train,
                |sim, ids, sh, rec| {
                    let r = gaat_dptrain::train::finish_train(sim, ids, sh);
                    rec.makespan_ns = r.total.as_ns();
                    rec.unit_ns = r.time_per_step.as_ns();
                    rec.coll_bytes = r.coll_stats.bytes;
                    rec.coll_chunks = r.coll_stats.chunks;
                },
            ),
            Workload::Moe { .. } => self.run_app(
                unit,
                |sc| gaat_dptrain::moe::build_moe(sc.moe_config()),
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

    /// Workload-agnostic body of [`run_unit`]: `build` constructs a
    /// fresh world for a scenario, `start` injects the initial
    /// broadcast, and `finish` drains the run and folds its outcome into
    /// the record. Builds and starts the first member's world. For a
    /// group, it runs the shared prefix to just before `divergence` and
    /// clones the world. It finishes the first
    /// member live, then every other member from the clone (rewinding
    /// with `clone_from`) with its own stochastic fault plan swapped in.
    fn run_app<Sh>(
        &mut self,
        unit: &Unit,
        build: fn(&Scenario) -> Built<Sh>,
        start: fn(&mut Simulation, &[ChareId]),
        finish: fn(&mut Simulation, &[ChareId], &Sh, &mut ScenarioRecord),
    ) -> Vec<ScenarioRecord> {
        let scenarios = self.scenarios;
        let fstats = &mut self.fork;
        let finish = |sim: &mut Simulation, ids: &[ChareId], sh: &Sh, mut rec, t0: Instant| {
            finish(sim, ids, sh, &mut rec);
            seal_record(&mut rec, sim);
            rec.wall_ns = t0.elapsed().as_nanos() as u64;
            rec
        };

        // Build and start the first member's world from t = 0.
        let (members, divergence) = unit.members();
        let sc = &scenarios[members[0]];
        let t0 = Instant::now();
        let mut rec = base_record(sc);
        let (mut sim, ids, sh) = build(sc);
        self.built += 1;
        rec.setup_ns = t0.elapsed().as_nanos() as u64;
        start(&mut sim, &ids);
        let snap = divergence.map(|t| {
            fstats.groups += 1;
            // Events at exactly the divergence instant may already observe
            // the late fields, so the pause lands one tick before it.
            sim.run_until(t - SimDuration::from_ns(1));
            let st = Instant::now();
            let snap = sim.clone();
            fstats.snapshots_taken += 1;
            fstats.snapshot_ns += st.elapsed().as_nanos() as u64;
            snap
        });
        let mut out = vec![finish(&mut sim, &ids, &sh, rec, t0)];
        let rest = &members[1..];
        if let Some(snap) = &snap {
            fstats.scenarios_forked += rest.len();
            for &m in rest {
                let bt = Instant::now();
                sim.clone_from(snap);
                let restore_ns = bt.elapsed().as_nanos() as u64;
                fstats.restore_ns += restore_ns;
                let mut rec = base_record(&scenarios[m]);
                rec.setup_ns = restore_ns;
                sim.set_stochastic_faults(scenarios[m].machine.faults.clone())
                    .expect("a fork group's members share their time-triggered faults");
                out.push(finish(&mut sim, &ids, &sh, rec, bt));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_batch_returns_results_in_job_order() {
        let jobs: Vec<usize> = (0..20).collect();
        for workers in [1, 3, 64] {
            let out = run_batch(&jobs, workers, |&i| i * 10);
            assert_eq!(out, (0..20).map(|i| i * 10).collect::<Vec<_>>());
        }
    }
}
