//! Spans recorded at the benchmark's own call sites into the layers,
//! kept in memory and written out when the run ends.
//!
//! A span is one timed call: `{id, parent, run, name, layer, start_ns,
//! end_ns}`, with the run span of each repetition also carrying the
//! layer counters read after it. Its self time is its duration minus
//! the part of it that its children cover. Spans inside the engine are
//! out of scope here: these are the boundaries the benchmark itself
//! crosses.
//!
//! Each timed call yields both its wall time (the span's extent) and
//! the CPU time the process spent in it (what the benchmark reports; see
//! [`cpu_time`]).

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::json::quote;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    /// Repetition the span belongs to (0 = set-up and checks).
    pub run: u32,
    /// The call, e.g. `charm::build_in`.
    pub name: &'static str,
    /// What the layer reported about the call (a sweep scenario's label).
    pub label: Option<String>,
    /// The crate called into.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counters: Vec<(&'static str, f64)>,
}

/// CPU time of this process so far: user plus system time of all its
/// threads. On a shared host, wall time also counts the time the process
/// waited for a CPU that another tenant held; CPU time leaves that out.
pub fn cpu_time() -> Duration {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
        // fields on 64-bit Linux), and `clock_gettime` writes only into it.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "the process CPU clock exists on every Linux");
        Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        ORIGIN.get_or_init(Instant::now).elapsed()
    }
}

/// Durations of one timed call, s.
#[derive(Debug, Clone, Copy)]
pub struct Took {
    pub wall: f64,
    pub cpu: f64,
}

/// A call in progress; [`Tracer::exit`] closes it.
pub struct Open {
    id: Option<usize>,
    start: Instant,
    cpu: Duration,
}

impl Open {
    /// The span's id when tracing is on.
    pub fn id(&self) -> Option<usize> {
        self.id
    }
}

/// Times calls, and records them as spans while tracing is on. With
/// tracing off it is a pair of clock reads per call.
pub struct Tracer {
    on: bool,
    origin: Instant,
    run: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            run: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tag the spans that follow with repetition `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Start timing a call. Span bookkeeping happens before the clock
    /// read so that it stays out of the measured interval.
    pub fn enter(&mut self, name: &'static str, layer: &'static str) -> Open {
        let id = self.on.then(|| {
            self.spans.push(Span {
                parent: self.stack.last().copied(),
                run: self.run,
                name,
                label: None,
                layer,
                start_ns: 0,
                end_ns: 0,
                counters: Vec::new(),
            });
            let id = self.spans.len() - 1;
            self.stack.push(id);
            id
        });
        let start = Instant::now();
        let cpu = cpu_time();
        if let Some(id) = id {
            self.spans[id].start_ns = self.ns(start);
        }
        Open { id, start, cpu }
    }

    /// Stop timing a call.
    pub fn exit(&mut self, open: Open) -> Took {
        let cpu = cpu_time();
        let end = Instant::now();
        if let Some(id) = open.id {
            self.stack.pop();
            self.spans[id].end_ns = self.ns(end);
        }
        Took {
            wall: end.duration_since(open.start).as_secs_f64(),
            cpu: cpu.saturating_sub(open.cpu).as_secs_f64(),
        }
    }

    /// The span with this id.
    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Record a finished child of `parent` from a duration a layer
    /// reported rather than one timed here.
    pub fn child(
        &mut self,
        parent: usize,
        name: &'static str,
        label: Option<String>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let layer = self.spans[parent].layer;
        self.spans.push(Span {
            parent: Some(parent),
            run: self.run,
            name,
            label,
            layer,
            start_ns,
            end_ns,
            counters: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Attach layer counters to a span.
    pub fn attach(&mut self, id: usize, counters: Vec<(&'static str, f64)>) {
        self.spans[id].counters = counters;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (clipped to the span).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                kids[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&kids)
            .map(|(s, kids)| {
                let mut iv: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                iv.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in iv {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Per (layer, name): span count, total and self time in ns, in order
    /// of first appearance.
    pub fn summary(&self) -> Vec<(&'static str, &'static str, u64, u64, u64)> {
        let selfs = self.self_ns();
        let mut rows: Vec<(&'static str, &'static str, u64, u64, u64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let total = s.end_ns - s.start_ns;
            match rows.iter_mut().find(|r| r.0 == s.layer && r.1 == s.name) {
                Some(r) => {
                    r.2 += 1;
                    r.3 += total;
                    r.4 += own;
                }
                None => rows.push((s.layer, s.name, 1, total, own)),
            }
        }
        rows
    }

    /// Write every span and the per-(layer, name) summary as JSON.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"workload\": {}, \"seed\": {seed}, \"summary\": [",
            quote(workload)
        )?;
        let rows = self.summary();
        for (i, (layer, name, count, total, own)) in rows.iter().enumerate() {
            writeln!(
                w,
                "  {{\"layer\": {}, \"name\": {}, \"count\": {count}, \"total_ms\": {}, \"self_ms\": {}}}{}",
                quote(layer),
                quote(name),
                *total as f64 / 1e6,
                *own as f64 / 1e6,
                if i + 1 < rows.len() { "," } else { "" }
            )?;
        }
        writeln!(w, "], \"spans\": [")?;
        let selfs = self.self_ns();
        for (id, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(k, v)| format!("{}: {v}", quote(k)))
                .collect();
            writeln!(
                w,
                "  {{\"id\": {id}, \"parent\": {}, \"run\": {}, \"name\": {}, \"label\": {}, \"layer\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}, \"counters\": {{{}}}}}{}",
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.run,
                quote(s.name),
                s.label.as_deref().map_or("null".to_string(), quote),
                quote(s.layer),
                s.start_ns,
                s.end_ns,
                counters.join(", "),
                if id + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut tr = Tracer::new();
        tr.set_on(true);
        let root = tr.enter("run_sweep", "sweep");
        let id = root.id().expect("tracing is on");
        tr.exit(root);
        // Overwrite the clock readings with a fixed layout: a 100 ns
        // parent with children covering [10, 40) ∪ [30, 50) ∪ [90, 120).
        tr.spans[id].start_ns = 0;
        tr.spans[id].end_ns = 100;
        tr.child(id, "scenario", Some("a".into()), 10, 40);
        tr.child(id, "scenario", Some("b".into()), 30, 50);
        let c = tr.child(id, "scenario", None, 90, 120);
        tr.child(c, "scenario.setup", None, 90, 95);
        let selfs = tr.self_ns();
        assert_eq!(selfs[id], 100 - 40 - 10);
        assert_eq!(selfs[c], 25);
        let summary = tr.summary();
        assert_eq!(
            summary[1],
            ("sweep", "scenario", 3, 30 + 20 + 30, 30 + 20 + 25)
        );
    }

    #[test]
    fn tracing_off_still_times_but_records_nothing() {
        let mut tr = Tracer::new();
        let open = tr.enter("charm::run_tolerant", "jacobi3d");
        assert!(open.id().is_none());
        let spin: u64 = (0..2_000_000u64).map(std::hint::black_box).sum();
        let took = tr.exit(open);
        assert!(spin > 0 && took.cpu > 0.0 && took.wall > 0.0);
        assert_eq!(tr.len(), 0);
    }

    #[test]
    fn nested_calls_record_their_parent() {
        let mut tr = Tracer::new();
        tr.set_on(true);
        let outer = tr.enter("calibrate", "bench");
        let inner = tr.enter("charm::build_in", "jacobi3d");
        let inner_id = inner.id();
        tr.exit(inner);
        let outer_id = outer.id();
        tr.exit(outer);
        assert_eq!(tr.span(inner_id.unwrap()).parent, outer_id);
        assert!(tr.span(outer_id.unwrap()).end_ns >= tr.span(inner_id.unwrap()).end_ns);
    }
}
