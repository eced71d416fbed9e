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

use gaat_gpu::{KernelSpec, Op, Space, StreamId};
use gaat_jacobi3d::{run_charm, CommMode, Dims, JacobiConfig};
use gaat_rt::{
    gpu_msg, BufRange, Callback, ChannelEnd, Chare, ChareId, Ctx, EntryId, Envelope, MachineConfig,
    MemLoc, Simulation,
};
use gaat_sim::{SimDuration, SimTime};

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
            sim.machine
                .chare_for_setup(a)
                .downcast_mut::<Pinger>()
                .expect("pinger")
                .channel = Some(ea);
            sim.machine
                .chare_for_setup(b)
                .downcast_mut::<Pinger>()
                .expect("pinger")
                .channel = Some(eb);
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
        let mut cfg = JacobiConfig::new(
            MachineConfig::summit(nodes),
            crate::figures::weak_dims(768, nodes),
        );
        cfg.comm = CommMode::GpuAware;
        cfg.odf = 4;
        cfg.comm_priority = prio;
        cfg.iters = e.iters;
        cfg.warmup = e.warmup;
        let r = run_charm(cfg);
        rows.push(Row {
            figure: "abl-priority".into(),
            series: label.into(),
            nodes,
            odf: 4,
            fusion: "None".into(),
            graphs: false,
            time_us: r.time_per_iter.as_micros_f64(),
            cpu_util: r.cpu_utilization,
            seeds: 1,
        });
    }
    rows
}

/// AMPI-style virtualization of the MPI version (the paper's stated
/// future work): plain MPI vs 2/4-way virtualized ranks on a workload
/// with substantial staging stalls for virtualization to fill.
pub fn ampi_virtualization(e: &Effort, nodes: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for vr in [1usize, 2, 4] {
        let mut cfg = JacobiConfig::new(MachineConfig::summit(nodes), Dims::cube(768));
        cfg.comm = CommMode::HostStaging;
        cfg.virtual_ranks = vr;
        cfg.iters = e.iters;
        cfg.warmup = e.warmup;
        let r = gaat_jacobi3d::run_mpi(cfg);
        rows.push(Row {
            figure: "abl-ampi".into(),
            series: if vr == 1 {
                "MPI-H".into()
            } else {
                format!("AMPI-H ({vr} ranks/PE)")
            },
            nodes,
            odf: vr,
            fusion: "None".into(),
            graphs: false,
            time_us: r.time_per_iter.as_micros_f64(),
            cpu_util: r.cpu_utilization,
            seeds: 1,
        });
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
        let mut cfg = JacobiConfig::new(MachineConfig::summit(2), Dims::new(1536, 1536, 3072));
        cfg.comm = CommMode::GpuAware;
        cfg.odf = 4;
        cfg.machine.ucx.pipeline_threshold = threshold_mb << 20;
        cfg.iters = e.iters;
        cfg.warmup = e.warmup;
        let r = run_charm(cfg);
        rows.push(Row {
            figure: "abl-threshold".into(),
            series: format!("threshold={threshold_mb}MiB"),
            nodes: 2,
            odf: 4,
            fusion: "None".into(),
            graphs: false,
            time_us: r.time_per_iter.as_micros_f64(),
            cpu_util: r.cpu_utilization,
            seeds: 1,
        });
    }
    rows
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
