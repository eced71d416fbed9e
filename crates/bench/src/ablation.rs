//! Ablation studies for the design choices the paper motivates in prose:
//!
//! - **Channel API vs GPU Messaging API** (§II-B): the older API's post
//!   entry method delays the receive posting; ping-pong latency shows it.
//! - **Asynchronous vs synchronous GPU completion** (§III-A / Fig. 4):
//!   blocking `cudaStreamSynchronize` freezes the PE's scheduler and
//!   serializes the chares mapped to it.
//! - **Communication-stream priority** (§III-A): unprioritized packing /
//!   staging kernels get stuck behind other chares' update kernels.
//! - **Device pipeline threshold** (§IV-B / Fig. 7a): where the
//!   GPUDirect → pipelined-staging protocol switch lands determines
//!   whether GPU-aware communication helps or hurts.
//!
//! Two robustness tables beyond the paper ride along, both in virtual
//! time: the fault sweep (drop rate × retries × ODF × LB policy) and the
//! adaptive load balancer against a straggling GPU and a degraded link.

use gaat_gpu::{KernelSpec, Op, Space, StreamId};
use gaat_jacobi3d::mpi_app::MpiShared;
use gaat_jacobi3d::{charm, CommMode, Dims, JacobiConfig};
use gaat_rt::{
    gpu_msg, App, BufRange, Callback, ChannelEnd, Chare, ChareId, Ctx, EntryId, Envelope, LbPolicy,
    LbStats, MachineConfig, MemLoc, Simulation,
};
use gaat_sim::{FaultPlan, LinkFault, LinkFaultKind, SimDuration, SimTime, StragglerWindow};
use gaat_sweep::{run_sweep, ScenarioGrid, SweepOptions, Workload};

use crate::harness::{Effort, Row};

// ---------------------------------------------------------------------
// Channel API vs GPU Messaging API ping-pong
// ---------------------------------------------------------------------

const E_GO: EntryId = EntryId(0);
const E_RECVD: EntryId = EntryId(1);
const E_POST: EntryId = EntryId(2);
const E_READY: EntryId = EntryId(3);
const E_SENT: EntryId = EntryId(4);

/// Ping-pong chare using either the Channel API or the GPU Messaging API.
#[derive(Clone)]
struct Pinger {
    peer: ChareId,
    channel: Option<ChannelEnd>,
    gpu_sender: gpu_msg::GpuMsgSender,
    use_channel: bool,
    buf_send: MemLoc,
    buf_recv: MemLoc,
    hops_left: u32,
    finished_at: Option<SimTime>,
}

impl Pinger {
    fn fire(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.me();
        if self.use_channel {
            let mut ch = self.channel.take().expect("channel");
            ch.recv(ctx, self.buf_recv, Callback::to(me, E_RECVD));
            ch.send(ctx, self.buf_send, Callback::Ignore);
            self.channel = Some(ch);
        } else {
            // GPU Messaging API: metadata → peer's post entry → ready →
            // data. The matching receive posting is *delayed* by the post
            // entry method round trip — the API's documented weakness.
            self.gpu_sender.send(
                ctx,
                self.peer,
                E_POST,
                E_READY,
                self.buf_send,
                Callback::Ignore,
            );
        }
    }
}

impl Chare for Pinger {
    fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        match env.entry {
            E_GO => self.fire(ctx),
            E_RECVD => {
                if self.hops_left == 0 {
                    self.finished_at = Some(ctx.start_time());
                } else {
                    self.hops_left -= 1;
                    self.fire(ctx);
                }
            }
            E_POST => {
                let meta = env.take::<gpu_msg::GpuMsgMeta>();
                let me = ctx.me();
                gpu_msg::post_recv(ctx, &meta, self.buf_recv, Callback::to(me, E_RECVD));
            }
            E_READY => self.gpu_sender.on_ready(ctx, env),
            E_SENT => {}
            other => panic!("unexpected entry {other:?}"),
        }
    }
}

/// Round-trip comparison: mean one-hop latency (µs) of the Channel API vs
/// the GPU Messaging API for a device buffer of `bytes`, across two
/// nodes.
pub fn channel_vs_gpu_messaging(bytes: u64, hops: u32) -> (f64, f64) {
    let run = |use_channel: bool| -> f64 {
        let mut cfg = MachineConfig::summit(2);
        cfg.pes_per_node = 1;
        cfg.net.jitter = 0.0;
        let mut sim = Simulation::new(cfg);
        let elems = (bytes / 8) as usize;
        let mk_bufs = |sim: &mut Simulation, pe: usize| {
            let dev = sim.machine.pe_device(pe);
            let s = sim.machine.devices[dev.0]
                .mem
                .alloc_phantom(Space::Device, elems);
            let r = sim.machine.devices[dev.0]
                .mem
                .alloc_phantom(Space::Device, elems);
            (
                MemLoc {
                    device: dev,
                    range: BufRange::whole(s, elems),
                },
                MemLoc {
                    device: dev,
                    range: BufRange::whole(r, elems),
                },
            )
        };
        let (s0, r0) = mk_bufs(&mut sim, 0);
        let (s1, r1) = mk_bufs(&mut sim, 1);
        let a = ChareId(0);
        let b = ChareId(1);
        let mk = |peer, buf_send, buf_recv, hops_left| Pinger {
            peer,
            channel: None,
            gpu_sender: gpu_msg::GpuMsgSender::new(),
            use_channel,
            buf_send,
            buf_recv,
            hops_left,
            finished_at: None,
        };
        let ca = sim.machine.create_chare(0, Box::new(mk(b, s0, r0, hops)));
        let cb = sim.machine.create_chare(1, Box::new(mk(a, s1, r1, hops)));
        assert_eq!((ca, cb), (a, b));
        if use_channel {
            let (ea, eb) = gaat_rt::create_channel(&mut sim.machine, a, b);
            sim.machine.chare_mut::<Pinger>(a).channel = Some(ea);
            sim.machine.chare_mut::<Pinger>(b).channel = Some(eb);
        }
        {
            let Simulation { sim, machine, .. } = &mut sim;
            machine.inject(sim, a, Envelope::empty(E_GO));
            machine.inject(sim, b, Envelope::empty(E_GO));
        }
        sim.run();
        let fa = sim
            .machine
            .chare_as::<Pinger>(a)
            .finished_at
            .expect("finished");
        fa.as_micros_f64() / (hops as f64 + 1.0)
    };
    (run(true), run(false))
}

// ---------------------------------------------------------------------
// Sync vs async completion (Fig. 4)
// ---------------------------------------------------------------------

/// A chare that repeatedly offloads a kernel, detecting completion either
/// synchronously (blocking the PE) or via HAPI.
#[derive(Clone)]
struct Offloader {
    stream: StreamId,
    synchronous: bool,
    reps_left: u32,
    kernel_us: u64,
    cpu_us: u64,
    finished_at: Option<SimTime>,
}

impl Offloader {
    fn step(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.me();
        ctx.launch(
            self.stream,
            Op::kernel(KernelSpec::phantom(
                "work",
                SimDuration::from_us(self.kernel_us),
            )),
        );
        if self.synchronous {
            ctx.stream_sync(self.stream, Callback::to(me, E_RECVD));
        } else {
            ctx.hapi(self.stream, Callback::to(me, E_RECVD));
        }
    }
}

impl Chare for Offloader {
    fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        match env.entry {
            E_GO => self.step(ctx),
            E_RECVD => {
                // Host-side post-processing of the kernel's result — the
                // "useful work" the scheduler can overlap with other
                // chares' GPU time when completion is asynchronous.
                ctx.compute(SimDuration::from_us(self.cpu_us));
                if self.reps_left == 0 {
                    self.finished_at = Some(ctx.start_time());
                } else {
                    self.reps_left -= 1;
                    self.step(ctx);
                }
            }
            other => panic!("unexpected entry {other:?}"),
        }
    }
}

/// Fig. 4 reproduction: `chares` chares on one PE, each running `reps`
/// cycles of (GPU kernel of `kernel_us`, host phase of `cpu_us`).
/// Returns (sync makespan µs, async makespan µs). With synchronous
/// completion the blocked PE can neither run other chares' host phases
/// nor launch their kernels; with HAPI everything overlaps.
pub fn sync_vs_async_completion(chares: usize, reps: u32, kernel_us: u64) -> (f64, f64) {
    let run = |synchronous: bool| -> f64 {
        let mut cfg = MachineConfig::summit(1);
        cfg.pes_per_node = 1;
        cfg.net.jitter = 0.0;
        let mut sim = Simulation::new(cfg);
        let mut ids = Vec::new();
        for _ in 0..chares {
            let stream = sim.machine.devices[0].create_stream(0);
            ids.push(sim.machine.create_chare(
                0,
                Box::new(Offloader {
                    stream,
                    synchronous,
                    reps_left: reps,
                    kernel_us,
                    cpu_us: kernel_us * 3 / 5,
                    finished_at: None,
                }),
            ));
        }
        {
            let Simulation { sim, machine, .. } = &mut sim;
            for &id in &ids {
                machine.inject(sim, id, Envelope::empty(E_GO));
            }
        }
        sim.run();
        ids.iter()
            .map(|&id| {
                sim.machine
                    .chare_as::<Offloader>(id)
                    .finished_at
                    .expect("finished")
                    .as_micros_f64()
            })
            .fold(0.0, f64::max)
    };
    (run(true), run(false))
}

// ---------------------------------------------------------------------
// Jacobi-level ablations
// ---------------------------------------------------------------------

/// Communication-stream priority ablation on Charm-D (§III-A): rows for
/// prioritized vs unprioritized communication streams.
pub fn comm_priority(e: &Effort, nodes: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for (label, prio) in [("prioritized", 2usize), ("unprioritized", 0)] {
        let mut cfg = JacobiConfig::new(e.machine(nodes), crate::figures::weak_dims(768, nodes));
        cfg.comm = CommMode::GpuAware;
        cfg.odf = 4;
        cfg.comm_priority = prio;
        cfg.iters = e.iters;
        cfg.warmup = e.warmup;
        let r = charm::Shared::build_and_run(cfg).expect("every block finishes");
        rows.push(Row::single("abl-priority", label.into(), nodes, 4, &r));
    }
    rows
}

/// AMPI-style virtualization of the MPI version (the paper's stated
/// future work): plain MPI vs 2/4-way virtualized ranks on a workload
/// with substantial staging stalls for virtualization to fill.
pub fn ampi_virtualization(e: &Effort, nodes: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for vr in [1usize, 2, 4] {
        let mut cfg = JacobiConfig::new(e.machine(nodes), Dims::cube(768));
        cfg.comm = CommMode::HostStaging;
        cfg.virtual_ranks = vr;
        cfg.iters = e.iters;
        cfg.warmup = e.warmup;
        let r = MpiShared::build_and_run(cfg).expect("every rank finishes");
        let series = if vr == 1 {
            "MPI-H".into()
        } else {
            format!("AMPI-H ({vr} ranks/PE)")
        };
        rows.push(Row::single("abl-ampi", series, nodes, vr, &r));
    }
    rows
}

/// Pipeline-threshold sensitivity (the Fig. 7a protocol cliff): run a
/// fixed two-node workload with 9.4 MB halos while moving the device
/// rendezvous threshold, so the same messages flip between GPUDirect and
/// pipelined staging.
pub fn pipeline_threshold_sweep(e: &Effort) -> Vec<Row> {
    let mut rows = Vec::new();
    for threshold_mb in [1u64, 2, 4, 8, 16] {
        let mut cfg = JacobiConfig::new(e.machine(2), Dims::new(1536, 1536, 3072));
        cfg.comm = CommMode::GpuAware;
        cfg.odf = 4;
        cfg.machine.ucx.pipeline_threshold = threshold_mb << 20;
        cfg.iters = e.iters;
        cfg.warmup = e.warmup;
        let r = charm::Shared::build_and_run(cfg).expect("every block finishes");
        rows.push(Row::single(
            "abl-threshold",
            format!("threshold={threshold_mb}MiB"),
            2,
            4,
            &r,
        ));
    }
    rows
}

// ---------------------------------------------------------------------
// Fault sweep: drop rate × retries × ODF × LB policy
// ---------------------------------------------------------------------

/// One fault-sweep scenario's outcome.
pub struct FaultSweepRow {
    /// Per-message drop probability.
    pub drop_rate: f64,
    /// Overdecomposition factor.
    pub odf: usize,
    /// Whether the reliable transport was on.
    pub retries: bool,
    /// Load-balancing policy.
    pub lb: LbPolicy,
    /// Simulated time per iteration; `None` when blocks stalled.
    pub us_per_iter: Option<f64>,
    /// Transport retransmits issued.
    pub retransmits: u64,
    /// Blocks that never finished.
    pub stalled: u64,
}

/// How loss prices into iteration time with the retry layer on, and how
/// many blocks stall without it: HostStaging Jacobi3D (8³, 8 iterations)
/// on the 2×2 validation machine at fault seed 42, drained as one
/// `gaat-sweep` grid. Rows are ordered drop rate, then ODF, then
/// retries on before off.
pub fn fault_sweep() -> Vec<FaultSweepRow> {
    let mut machine = MachineConfig::validation(2, 2);
    machine.faults = FaultPlan {
        seed: 42,
        drop_prob: 0.0,
        ..FaultPlan::none()
    };
    // A non-zero template period arms the balancer for the non-Off
    // policies on the `lb_policies` axis below.
    machine.lb.period = SimDuration::from_us(100);
    let mut grid = ScenarioGrid::new(machine);
    grid.workloads.push(Workload::Jacobi {
        global: Dims::cube(8),
        iters: 8,
        warmup: 2,
        comm: CommMode::HostStaging,
    });
    grid.odfs = vec![1, 2, 4];
    grid.drop_rates = vec![0.0, 0.01, 0.05, 0.10];
    grid.retries = vec![true, false];
    grid.lb_policies = vec![LbPolicy::Off, LbPolicy::Greedy, LbPolicy::Adaptive];
    // Retries-off at zero loss is identical to retries-on; skip it.
    // Keep only scenarios that pass validation: the balancer migrates
    // over the reliable transport, so non-Off policies need retries on.
    grid.filter = Some(|sc| {
        let m = &sc.machine;
        (m.ucx.reliability.enabled || m.faults.drop_prob != 0.0)
            && sc.jacobi_config().validate().is_ok()
    });
    let scenarios = grid.expand();
    let report = run_sweep(&scenarios, &SweepOptions::new()).expect("no sweep I/O configured");
    let mut rows: Vec<FaultSweepRow> = scenarios
        .iter()
        .zip(&report.records)
        .map(|(sc, rec)| FaultSweepRow {
            drop_rate: sc.machine.faults.drop_prob,
            odf: sc.odf,
            retries: sc.machine.ucx.reliability.enabled,
            lb: sc.machine.lb.policy,
            us_per_iter: rec.ok.then(|| rec.unit_ns as f64 / 1e3),
            retransmits: rec.ucx_retransmits,
            stalled: rec.stalled,
        })
        .collect();
    // Grid nesting is odf-outer; the table reads best drop-outer. The
    // sort is stable, so LB policies keep their axis order.
    rows.sort_by(|x, y| {
        x.drop_rate
            .total_cmp(&y.drop_rate)
            .then(x.odf.cmp(&y.odf))
            .then(y.retries.cmp(&x.retries))
    });
    rows
}

// ---------------------------------------------------------------------
// Adaptive load balancing against a straggler and a degraded link
// ---------------------------------------------------------------------

/// The LB experiment's machine: two fat-tree nodes, jitter off so cells
/// compare, and the reliable transport on (the balancer migrates over
/// it).
pub fn lb_machine() -> MachineConfig {
    let mut machine = MachineConfig::summit_fattree(2);
    machine.net.jitter = 0.0;
    machine.ucx.reliability.enabled = true;
    machine
}

/// The degraded cells' fault plan: GPU 2 throttled 4× for the whole run,
/// plus `hot_link` (the fault-free run's hottest link) at quarter
/// capacity.
pub fn lb_faults(hot_link: Option<u32>) -> FaultPlan {
    let mut faults = FaultPlan::none();
    faults.stragglers.push(StragglerWindow {
        device: 2,
        from: SimTime::ZERO,
        until: SimTime::ZERO + SimDuration::from_ms(60_000),
        slowdown: 4.0,
    });
    if let Some(link) = hot_link {
        faults.link_faults.push(LinkFault {
            at: SimTime::ZERO,
            link,
            kind: LinkFaultKind::Degrade(0.25),
        });
    }
    faults
}

/// One LB cell: Charm-H Jacobi3D at ODF 2 (2 warm-up iterations) on
/// [`lb_machine`]. Each applied plan is a global rollback, so the
/// balancer demands a 15% projected win and moves at most 2 chares per
/// plan, and a balanced run checkpoints every iteration.
pub fn lb_config(
    faults: FaultPlan,
    policy: LbPolicy,
    period: SimDuration,
    global: Dims,
    iters: usize,
) -> JacobiConfig {
    let mut machine = lb_machine();
    machine.faults = faults;
    machine.lb.policy = policy;
    machine.lb.period = period;
    machine.lb.hysteresis_pct = 15;
    machine.lb.budget = 2;
    let mut cfg = JacobiConfig::new(machine, global);
    cfg.comm = CommMode::HostStaging;
    cfg.odf = 2;
    cfg.iters = iters;
    cfg.warmup = 2;
    if cfg.machine.lb.enabled() {
        cfg.checkpoint_every = 1;
    }
    cfg
}

/// One finished LB cell.
#[derive(Debug, Clone)]
pub struct LbCell {
    /// Simulated makespan.
    pub total_ns: u64,
    /// Field checksum (real-buffer runs only).
    pub checksum: Option<f64>,
    /// Entry methods executed.
    pub entries: u64,
    /// Balancer counters.
    pub lb: LbStats,
}

/// Run one LB cell; also returns the run's hottest link.
pub fn lb_cell(cfg: JacobiConfig) -> (LbCell, Option<u32>) {
    let (mut sim, ids, sh) = charm::Shared::build(cfg);
    let r = sh.run(&mut sim, &ids).expect("every block finishes");
    let cell = LbCell {
        total_ns: r.total.as_ns(),
        checksum: r.checksum,
        entries: r.entries,
        lb: sim.machine.lb_stats(),
    };
    (cell, sim.machine.fabric.stats().hottest_link.map(|l| l.0))
}

/// The four-cell LB table at 192³.
pub struct LbTable {
    /// The fault-free run's hottest link, degraded in the faulted cells.
    pub hot_link: Option<u32>,
    /// Balancer period: one fault-free iteration.
    pub period: SimDuration,
    /// No faults, balancer off: the ideal makespan.
    pub fault_free: LbCell,
    /// Faults, balancer off: a placement frozen at startup.
    pub frozen: LbCell,
    /// Faults, sensor-blind greedy policy (the ablation).
    pub greedy: LbCell,
    /// Faults, closed-loop adaptive policy.
    pub adaptive: LbCell,
}

impl LbTable {
    /// Share of the frozen-vs-fault-free makespan gap the adaptive
    /// policy claws back.
    pub fn recovery(&self) -> f64 {
        let gap = self
            .frozen
            .total_ns
            .saturating_sub(self.fault_free.total_ns) as f64;
        let recovered = self.frozen.total_ns.saturating_sub(self.adaptive.total_ns) as f64;
        if gap > 0.0 {
            recovered / gap
        } else {
            0.0
        }
    }
}

/// The LB experiment at `iters` iterations. The fault-free probe run
/// yields the ideal makespan, the balancer period (about one tick per
/// iteration) and the link to degrade, all in virtual time, so the
/// calibration is deterministic.
pub fn lb_table(iters: usize) -> LbTable {
    let global = Dims::cube(192);
    let cfg = |faults, policy, period| lb_config(faults, policy, period, global, iters);
    let (fault_free, hot_link) = lb_cell(cfg(FaultPlan::none(), LbPolicy::Off, SimDuration::ZERO));
    let period = SimDuration::from_ns(fault_free.total_ns / iters as u64);
    let faulted = |policy, period| lb_cell(cfg(lb_faults(hot_link), policy, period)).0;
    LbTable {
        hot_link,
        period,
        fault_free,
        frozen: faulted(LbPolicy::Off, SimDuration::ZERO),
        greedy: faulted(LbPolicy::Greedy, period),
        adaptive: faulted(LbPolicy::Adaptive, period),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_api_beats_gpu_messaging_api() {
        let (channel_us, gpu_msg_us) = channel_vs_gpu_messaging(96 << 10, 4);
        assert!(
            channel_us < gpu_msg_us,
            "channel {channel_us} should beat gpu-msg {gpu_msg_us}"
        );
    }

    #[test]
    fn async_completion_beats_sync_with_many_chares() {
        let (sync_us, async_us) = sync_vs_async_completion(4, 8, 50);
        assert!(
            async_us < sync_us * 0.7,
            "async {async_us} should be far below sync {sync_us}"
        );
    }

    #[test]
    fn sync_vs_async_equal_for_single_chare() {
        // With one chare there is nothing to overlap; the two schemes
        // should be within a few percent.
        let (sync_us, async_us) = sync_vs_async_completion(1, 8, 50);
        let ratio = sync_us / async_us;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }
}
