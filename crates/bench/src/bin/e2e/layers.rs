//! Per-layer metrics: the counters each layer exports through its stats
//! struct, read after a run, plus host times the benchmark measures
//! around its calls into a layer. Names follow the crates.

use gaat_jacobi3d::RunResult;
use gaat_rt::Simulation;

use crate::stats::Fingerprint;

/// Every per-layer metric a traced run prints: `(name, unit)`. The same
/// list, with each metric's better direction, is `per_layer` in
/// `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.peak_pending", "count"),
    ("sim.host_ns_per_event", "ns/event"),
    ("sim.snapshot_us", "us/snapshot"),
    ("sim.restore_us", "us/restore"),
    ("topo.recomputes", "count"),
    ("topo.empty_recompute_frac", "frac"),
    ("topo.touched_flows", "count"),
    ("topo.touched_links", "count"),
    ("topo.rate_updates_avoided", "count"),
    ("topo.host_us_per_recompute", "us/recompute"),
    ("net.messages", "count"),
    ("net.bytes", "bytes"),
    ("net.inter_bytes", "bytes"),
    ("net.control_messages", "count"),
    ("net.drops", "count"),
    ("net.flow_aborts", "count"),
    ("net.max_link_util", "frac"),
    ("ucx.sends", "count"),
    ("ucx.gpudirect", "count"),
    ("ucx.pipelined_chunks", "count"),
    ("ucx.retransmits", "count"),
    ("ucx.timeouts", "count"),
    ("ucx.duplicates", "count"),
    ("ucx.retransmit_frac", "frac"),
    ("gpu.kernels", "count"),
    ("gpu.graph_launches", "count"),
    ("gpu.memcpys", "count"),
    ("gpu.memcpy_bytes", "bytes"),
    ("gpu.completions", "count"),
    ("rt.entries", "count"),
    ("rt.sends", "count"),
    ("rt.cpu_util", "frac"),
    ("rt.new_ms", "ms"),
    ("rt.checkpoints_stored", "count"),
    ("rt.chares_restored", "count"),
    ("rt.migrations", "count"),
    ("rt.lb_rounds", "count"),
    ("rt.lb_applied_frac", "frac"),
    ("rt.lb_plan_us", "us/round"),
    ("rt.lb_apply_us", "us/plan"),
    ("rt.slot_reuse_frac", "frac"),
    ("jacobi3d.build_ms", "ms"),
    ("jacobi3d.sim_us_per_iter", "sim_us"),
    ("jacobi3d.sim_makespan_ms", "sim_ms"),
    ("sweep.scenarios", "count"),
    ("sweep.ok_frac", "frac"),
    ("sweep.fork_frac", "frac"),
    ("sweep.fork_declined", "count"),
    ("sweep.expand_ms", "ms/grid"),
    ("sweep.scenario_setup_us_p50", "us/scenario"),
    ("sweep.scenario_wall_us_p50", "us/scenario"),
    ("sweep.scenario_wall_us_p99", "us/scenario"),
    ("host.cold_run_s", "s"),
    ("host.run_wall_s", "s"),
    ("host.cpu_wait_frac", "frac"),
    ("host.alu_probe_pre_ms", "ms"),
    ("host.alu_probe_post_ms", "ms"),
    ("host.l2_chase_pre_ms", "ms"),
    ("host.l2_chase_post_ms", "ms"),
    ("bench.run_samples", "count"),
    ("bench.setup_samples", "count"),
    ("trace.overhead_frac", "frac"),
];

/// Counters read from finished worlds through the layers' exported
/// stats structs. Counts add across worlds; peaks and utilizations take
/// the maximum.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    events: u64,
    peak_pending: u64,
    recomputes: u64,
    empty_recomputes: u64,
    touched_flows: u64,
    touched_links: u64,
    rate_updates_avoided: u64,
    net_messages: u64,
    net_bytes: u64,
    inter_bytes: u64,
    control_messages: u64,
    drops: u64,
    flow_aborts: u64,
    max_link_util: f64,
    ucx_sends: u64,
    gpudirect: u64,
    chunks: u64,
    retransmits: u64,
    timeouts: u64,
    duplicates: u64,
    kernels: u64,
    graph_launches: u64,
    memcpys: u64,
    memcpy_bytes: u64,
    completions: u64,
    entries: u64,
    rt_sends: u64,
    checkpoints_stored: u64,
    chares_restored: u64,
    migrations: u64,
    lb_rounds: u64,
    lb_applied: u64,
    lb_plan_ns: u64,
    lb_apply_ns: u64,
    cpu_util: f64,
}

impl Counters {
    /// Read a finished world. `res` is the application's result when
    /// every block finished.
    pub fn read(sim: &Simulation, res: Option<&RunResult>) -> Self {
        let m = &sim.machine;
        let net = m.fabric.stats();
        let ucx = m.ucx.stats();
        let rt = m.stats();
        let lb = m.lb_stats();
        let mut c = Counters {
            events: sim.sim.events_executed(),
            peak_pending: sim.sim.peak_pending() as u64,
            recomputes: net.solver.recomputes,
            empty_recomputes: net.solver.empty_recomputes,
            touched_flows: net.solver.touched_flows,
            touched_links: net.solver.touched_links,
            rate_updates_avoided: net.solver.rate_updates_avoided,
            net_messages: net.messages,
            net_bytes: net.bytes,
            inter_bytes: net.inter_bytes,
            control_messages: net.control_messages,
            drops: net.drops,
            flow_aborts: net.flow_aborts,
            max_link_util: net.max_link_utilization,
            ucx_sends: ucx.eager
                + ucx.rendezvous
                + ucx.gpudirect
                + ucx.pipelined
                + ucx.active_messages,
            gpudirect: ucx.gpudirect,
            chunks: ucx.chunks,
            retransmits: ucx.retransmits,
            timeouts: ucx.timeouts,
            duplicates: ucx.duplicates,
            entries: rt.entries,
            rt_sends: rt.sends,
            checkpoints_stored: rt.checkpoints_stored,
            chares_restored: rt.chares_restored,
            migrations: lb.migrations,
            lb_rounds: lb.rounds,
            lb_applied: lb.applied,
            lb_plan_ns: lb.plan_host_ns,
            lb_apply_ns: lb.apply_host_ns,
            cpu_util: res.map_or(0.0, |r| r.cpu_utilization),
            ..Counters::default()
        };
        for d in &m.devices {
            let s = d.stats();
            c.kernels += s.kernels;
            c.graph_launches += s.graph_launches;
            c.memcpys += s.memcpys;
            c.memcpy_bytes += s.memcpy_bytes;
            c.completions += s.completions;
        }
        c
    }

    /// Fold another world's counters into these.
    pub fn add(&mut self, o: &Counters) {
        let c = *self;
        *self = Counters {
            events: c.events + o.events,
            peak_pending: c.peak_pending.max(o.peak_pending),
            recomputes: c.recomputes + o.recomputes,
            empty_recomputes: c.empty_recomputes + o.empty_recomputes,
            touched_flows: c.touched_flows + o.touched_flows,
            touched_links: c.touched_links + o.touched_links,
            rate_updates_avoided: c.rate_updates_avoided + o.rate_updates_avoided,
            net_messages: c.net_messages + o.net_messages,
            net_bytes: c.net_bytes + o.net_bytes,
            inter_bytes: c.inter_bytes + o.inter_bytes,
            control_messages: c.control_messages + o.control_messages,
            drops: c.drops + o.drops,
            flow_aborts: c.flow_aborts + o.flow_aborts,
            max_link_util: c.max_link_util.max(o.max_link_util),
            ucx_sends: c.ucx_sends + o.ucx_sends,
            gpudirect: c.gpudirect + o.gpudirect,
            chunks: c.chunks + o.chunks,
            retransmits: c.retransmits + o.retransmits,
            timeouts: c.timeouts + o.timeouts,
            duplicates: c.duplicates + o.duplicates,
            kernels: c.kernels + o.kernels,
            graph_launches: c.graph_launches + o.graph_launches,
            memcpys: c.memcpys + o.memcpys,
            memcpy_bytes: c.memcpy_bytes + o.memcpy_bytes,
            completions: c.completions + o.completions,
            entries: c.entries + o.entries,
            rt_sends: c.rt_sends + o.rt_sends,
            checkpoints_stored: c.checkpoints_stored + o.checkpoints_stored,
            chares_restored: c.chares_restored + o.chares_restored,
            migrations: c.migrations + o.migrations,
            lb_rounds: c.lb_rounds + o.lb_rounds,
            lb_applied: c.lb_applied + o.lb_applied,
            lb_plan_ns: c.lb_plan_ns + o.lb_plan_ns,
            lb_apply_ns: c.lb_apply_ns + o.lb_apply_ns,
            cpu_util: c.cpu_util.max(o.cpu_util),
        }
    }

    /// Applied load-balancing plans.
    pub fn lb_applied(&self) -> u64 {
        self.lb_applied
    }

    /// The raw counts attached to a run span.
    pub fn span_counters(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("sim.events", self.events as f64),
            ("topo.recomputes", self.recomputes as f64),
            ("net.messages", self.net_messages as f64),
            ("net.bytes", self.net_bytes as f64),
            ("ucx.sends", self.ucx_sends as f64),
            ("ucx.retransmits", self.retransmits as f64),
            ("gpu.kernels", self.kernels as f64),
            ("rt.entries", self.entries as f64),
            ("rt.lb_rounds", self.lb_rounds as f64),
        ]
    }
}

/// The run's fingerprint tuple, read from a finished world.
pub fn fingerprint(sim: &Simulation, res: Option<&RunResult>) -> Fingerprint {
    Fingerprint {
        makespan_ns: res.map_or(sim.now().as_ns(), |r| r.total.as_ns()),
        events: sim.sim.events_executed(),
        entries: sim.machine.stats().entries,
        net_bytes: sim.machine.fabric.stats().bytes,
    }
}

/// Sweep-level numbers from the sweep report (all zero for the Jacobi
/// workloads, which run no sweep).
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepParts {
    pub scenarios: f64,
    pub ok_frac: f64,
    pub fork_frac: f64,
    pub fork_declined: f64,
    pub snapshot_us: f64,
    pub restore_us: f64,
    pub slot_reuse_frac: f64,
    pub setup_us_p50: f64,
    pub wall_us_p50: f64,
    pub wall_us_p99: f64,
}

/// Inputs to [`values`] beyond the counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Parts {
    /// CPU seconds the counted worlds spent in their timed run calls.
    pub counted_run_s: f64,
    /// Median CPU ms of `Simulation::new` in the set-up samples.
    pub new_ms: f64,
    /// Median CPU ms of `charm::build_in` in the set-up samples.
    pub build_ms: f64,
    /// Median CPU ms of `ScenarioGrid::expand` in the set-up samples.
    pub expand_ms: f64,
    /// Virtual µs per timed iteration.
    pub sim_us_per_iter: f64,
    /// Virtual makespan, ms.
    pub sim_makespan_ms: f64,
    pub sweep: SweepParts,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every layer metric except the `host.*`, `bench.*` and `trace.*`
/// ones, which `main` adds.
pub fn values(c: &Counters, p: &Parts) -> Vec<(&'static str, f64)> {
    let f = |x: u64| x as f64;
    vec![
        ("sim.events", f(c.events)),
        ("sim.peak_pending", f(c.peak_pending)),
        (
            "sim.host_ns_per_event",
            ratio(p.counted_run_s * 1e9, f(c.events)),
        ),
        ("sim.snapshot_us", p.sweep.snapshot_us),
        ("sim.restore_us", p.sweep.restore_us),
        ("topo.recomputes", f(c.recomputes)),
        (
            "topo.empty_recompute_frac",
            ratio(f(c.empty_recomputes), f(c.recomputes)),
        ),
        ("topo.touched_flows", f(c.touched_flows)),
        ("topo.touched_links", f(c.touched_links)),
        ("topo.rate_updates_avoided", f(c.rate_updates_avoided)),
        (
            "topo.host_us_per_recompute",
            ratio(p.counted_run_s * 1e6, f(c.recomputes)),
        ),
        ("net.messages", f(c.net_messages)),
        ("net.bytes", f(c.net_bytes)),
        ("net.inter_bytes", f(c.inter_bytes)),
        ("net.control_messages", f(c.control_messages)),
        ("net.drops", f(c.drops)),
        ("net.flow_aborts", f(c.flow_aborts)),
        ("net.max_link_util", c.max_link_util),
        ("ucx.sends", f(c.ucx_sends)),
        ("ucx.gpudirect", f(c.gpudirect)),
        ("ucx.pipelined_chunks", f(c.chunks)),
        ("ucx.retransmits", f(c.retransmits)),
        ("ucx.timeouts", f(c.timeouts)),
        ("ucx.duplicates", f(c.duplicates)),
        (
            "ucx.retransmit_frac",
            ratio(f(c.retransmits), f(c.ucx_sends)),
        ),
        ("gpu.kernels", f(c.kernels)),
        ("gpu.graph_launches", f(c.graph_launches)),
        ("gpu.memcpys", f(c.memcpys)),
        ("gpu.memcpy_bytes", f(c.memcpy_bytes)),
        ("gpu.completions", f(c.completions)),
        ("rt.entries", f(c.entries)),
        ("rt.sends", f(c.rt_sends)),
        ("rt.cpu_util", c.cpu_util),
        ("rt.new_ms", p.new_ms),
        ("rt.checkpoints_stored", f(c.checkpoints_stored)),
        ("rt.chares_restored", f(c.chares_restored)),
        ("rt.migrations", f(c.migrations)),
        ("rt.lb_rounds", f(c.lb_rounds)),
        ("rt.lb_applied_frac", ratio(f(c.lb_applied), f(c.lb_rounds))),
        (
            "rt.lb_plan_us",
            ratio(f(c.lb_plan_ns) / 1e3, f(c.lb_rounds)),
        ),
        (
            "rt.lb_apply_us",
            ratio(f(c.lb_apply_ns) / 1e3, f(c.lb_applied)),
        ),
        ("rt.slot_reuse_frac", p.sweep.slot_reuse_frac),
        ("jacobi3d.build_ms", p.build_ms),
        ("jacobi3d.sim_us_per_iter", p.sim_us_per_iter),
        ("jacobi3d.sim_makespan_ms", p.sim_makespan_ms),
        ("sweep.scenarios", p.sweep.scenarios),
        ("sweep.ok_frac", p.sweep.ok_frac),
        ("sweep.fork_frac", p.sweep.fork_frac),
        ("sweep.fork_declined", p.sweep.fork_declined),
        ("sweep.expand_ms", p.expand_ms),
        ("sweep.scenario_setup_us_p50", p.sweep.setup_us_p50),
        ("sweep.scenario_wall_us_p50", p.sweep.wall_us_p50),
        ("sweep.scenario_wall_us_p99", p.sweep.wall_us_p99),
    ]
}
