//! The task-runtime (Charm++-style) version of Jacobi3D.
//!
//! Each block of the global grid is a chare. An iteration is driven
//! entirely by completion messages (no blocking anywhere):
//!
//! 1. `E_PACKED` / `E_POST_ITER` — the single host-device sync point per
//!    iteration (HAPI callback after the packing kernels): swap the
//!    in/out pointers, post channel receives (GPU-aware) and sends.
//! 2. Halo arrivals (`E_ARRIVED` from channels, `E_RECV_HALO` as
//!    host-staged runtime messages) enqueue per-face unpack kernels,
//!    unless a fused-unpack strategy or graph execution defers them.
//! 3. When all halos have arrived *and* all sends have completed
//!    (`all_halos`), the update kernel and the next iteration's packs are
//!    enqueued — or a single captured graph is launched — ending with the
//!    next sync point.
//!
//! The `SyncMode::Original` variant reproduces the paper's
//! pre-optimization baseline: an extra host-device sync after the update
//! and a single stream for transfers and (un)packing (Fig. 6).

use std::sync::Arc;

use gaat_gpu::{CudaEventId, Device, GpuTimingModel, GraphBuilder, NodeIndex};
use gaat_rt::{
    create_channel, BufRange, Callback, ChannelEnd, Chare, ChareId, Ctx, DeviceId, EntryId,
    Envelope, GraphId, KernelSpec, MemLoc, Op, Simulation, StreamId, WhenSet,
};
use gaat_sim::SimTime;

use crate::app::{CommMode, Fusion, GraphStrategy, JacobiConfig, RunResult, SyncMode};
use crate::block::{self, Block, Owner};
use crate::geom::{place_chare, Decomp, Face, FACES};

/// Begin execution (injected at t = 0).
pub const E_START: EntryId = EntryId(0);
/// Packing kernels finished (HAPI) — no pointer swap (start / original).
pub const E_PACKED: EntryId = EntryId(1);
/// Update + packs finished (HAPI / graph) — swap and start next exchange.
pub const E_POST_ITER: EntryId = EntryId(2);
/// Update finished (original sync mode's extra sync point).
pub const E_UPDATE_DONE: EntryId = EntryId(3);
/// A channel receive completed (refnum = face index).
pub const E_ARRIVED: EntryId = EntryId(4);
/// A channel send completed (refnum = face index).
pub const E_SEND_DONE: EntryId = EntryId(5);
/// A D2H staging copy completed (host-staging mode; refnum = face index).
pub const E_STAGED: EntryId = EntryId(6);
/// A host-staged halo message arrived (refnum = iteration).
pub const E_RECV_HALO: EntryId = EntryId(7);
/// The final-norm reduction result (delivered to block 0).
pub const E_NORM: EntryId = EntryId(8);
/// Restart after a failure recovery (refnum = the recovery epoch, i.e.
/// the iteration count every block rolled back to).
pub const E_RESUME: EntryId = EntryId(9);

/// Host-staged halo payload.
#[derive(Clone)]
pub struct HaloMsg {
    /// The *receiver's* face this halo belongs to.
    pub face: Face,
    /// Functional payload (None in phantom mode).
    pub data: Option<Vec<f64>>,
}

/// Immutable run-wide parameters shared by all block chares.
#[derive(Debug)]
pub struct Shared {
    /// The experiment.
    pub cfg: JacobiConfig,
    /// Block decomposition (PEs × ODF blocks).
    pub decomp: Decomp,
    /// Reducer id for the final-norm reduction.
    pub norm_reducer: u64,
    /// Chare receiving the reduction result.
    pub root: ChareId,
    /// Participants in the reduction.
    pub nblocks: usize,
}

impl Shared {
    /// The chare of block `index`: blocks take consecutive ids from the
    /// root.
    fn chare_of(&self, index: usize) -> ChareId {
        ChareId(self.root.0 + index)
    }
}

/// A block's streams and events on its device.
#[derive(Clone, Copy)]
struct Streams {
    comp: StreamId,
    comm: StreamId,
    d2h: StreamId,
    h2d: StreamId,
    ev_unpacks: CudaEventId,
    ev_update: CudaEventId,
    /// Host staging: orders each face's H2D before its unpack.
    ev_face: [Option<CudaEventId>; 6],
}

impl Streams {
    /// Compute at low priority; communication-related work at high
    /// priority (paper §III-A). The original scheme uses a single
    /// transfer stream; the optimized one splits D2H and H2D.
    fn create(cfg: &JacobiConfig, device: &mut Device, faces: &[Face]) -> Streams {
        let mut ev_face = [None; 6];
        if cfg.comm == CommMode::HostStaging {
            for &f in faces {
                ev_face[f.index()] = Some(device.create_event());
            }
        }
        let comp = device.create_stream(0);
        let prio = cfg.comm_priority;
        let comm = device.create_stream(prio);
        let (d2h, h2d) = match cfg.sync {
            SyncMode::Original => (comm, comm),
            SyncMode::Optimized => (device.create_stream(prio), device.create_stream(prio)),
        };
        let ev_unpacks = device.create_event();
        let ev_update = device.create_event();
        Streams {
            comp,
            comm,
            d2h,
            h2d,
            ev_unpacks,
            ev_update,
            ev_face,
        }
    }
}

/// One block of the grid.
#[derive(Clone)]
pub struct BlockChare {
    sh: Arc<Shared>,
    block: Block,
    channels: [Option<ChannelEnd>; 6],
    gpu: Streams,
    graphs: Option<[GraphId; 2]>,
    /// Node-ordered kernel specs per parity (UpdateParams strategy).
    graph_update_specs: Option<[Vec<KernelSpec>; 2]>,
    iter: usize,
    arrived: usize,
    sends_done: usize,
    pending: WhenSet,
    /// Device holding this block's buffers (tracked so a post-recovery
    /// resume can detect migration and re-provision).
    dev: DeviceId,
    /// The interior captured at a checkpoint, set only on the stored
    /// clone. A rollback swaps that clone in, and `E_RESUME` writes the
    /// interior back to device memory.
    resume: Option<Vec<f64>>,
    /// Time this block finished its warm-up iterations.
    pub warm_at: Option<SimTime>,
    /// Time this block finished all iterations.
    pub done_at: Option<SimTime>,
    /// Final-norm reduction result (set on the root block only).
    pub norm_result: Option<f64>,
}

impl BlockChare {
    fn total(&self) -> usize {
        self.sh.cfg.total_iters()
    }

    fn defer_unpack(&self) -> bool {
        self.sh.cfg.fusion.defers_unpack() || self.sh.cfg.graphs
    }

    // ---- iteration driving ----------------------------------------------

    /// Enqueue this iteration's pack kernels (reading `u[p_src]`) and the
    /// HAPI sync point delivering `done` when they complete.
    fn enqueue_packs(&self, ctx: &mut Ctx<'_>, p_src: usize, done: Callback) {
        match self.sh.cfg.fusion {
            Fusion::None => {
                for &f in &self.block.faces {
                    let spec = self.block.pack_spec(&ctx.machine.cfg.gpu, p_src, f);
                    ctx.launch(self.gpu.comm, Op::kernel(spec));
                }
            }
            Fusion::A | Fusion::B | Fusion::C => {
                // C only reaches here for the very first iteration, where
                // there is nothing to fuse the packs *into*.
                let spec = self.block.fused_pack_spec(&ctx.machine.cfg.gpu, p_src);
                ctx.launch(self.gpu.comm, Op::kernel(spec));
            }
        }
        ctx.hapi(self.gpu.comm, done);
    }

    /// Crossed an iteration boundary (counter already incremented):
    /// record timings, maybe checkpoint; false = run complete, stop
    /// issuing work.
    fn on_iteration_boundary(&mut self, ctx: &mut Ctx<'_>) -> bool {
        if self.iter == self.sh.cfg.warmup {
            self.warm_at = Some(ctx.start_time());
        }
        if self.iter >= self.total() {
            self.done_at = Some(ctx.start_time());
            if self.sh.cfg.compute_norm {
                self.contribute_norm(ctx);
            }
            return false;
        }
        let every = self.sh.cfg.checkpoint_every;
        if every > 0 && self.iter > 0 && self.iter.is_multiple_of(every) {
            // The checkpoint is this block as it stands, plus the
            // interior of the current solution buffer. Ghost cells are
            // excluded: the restart re-runs the halo exchange before the
            // next update reads them. Halos parked now belong to the
            // incarnation a rollback abandons.
            let mut interior = Vec::new();
            let mem = &ctx.machine.devices[self.dev.0].mem;
            self.block.read_interior(mem, |_, v| interior.push(v));
            let pending = std::mem::take(&mut self.pending);
            let mut ck = self.clone();
            self.pending = pending;
            ck.resume = Some(interior);
            ctx.store_checkpoint(self.iter as u64, Box::new(ck), self.state_bytes());
        }
        true
    }

    /// Wire price of a checkpoint: a 16-byte header, the iteration count
    /// and the interior cells (none on phantom buffers).
    fn state_bytes(&self) -> u64 {
        let real = self.sh.cfg.machine.real_buffers;
        let cells = if real { self.block.dims.count() } else { 0 };
        16 + 8 * (1 + cells as u64)
    }

    /// Re-create device-side resources on the PE's device when a
    /// restored checkpoint resumes on a device other than the one it was
    /// taken on (the old device's allocations are stranded — acceptable
    /// in the model, where device memory is only accounted at build
    /// time). Channels and graphs are per-device and not rebuilt:
    /// [`JacobiConfig::validate`] admits a run whose blocks migrate only
    /// with host staging.
    fn reprovision(&mut self, ctx: &mut Ctx<'_>) {
        let dev = ctx.device();
        let device = &mut ctx.machine.devices[dev.0];
        self.block = self.block.realloc(&self.sh.cfg, &mut device.mem);
        self.gpu = Streams::create(&self.sh.cfg, device, &self.block.faces);
        self.dev = dev;
    }

    /// Contribute this block's squared norm to the global reduction (the
    /// convergence-monitoring pattern; exercises the runtime's reduction
    /// path from inside the application).
    fn contribute_norm(&mut self, ctx: &mut Ctx<'_>) {
        // Host-side evaluation of the local norm (a real application would
        // launch a reduction kernel; the charge approximates that).
        ctx.compute(gaat_sim::SimDuration::from_us(5));
        let mut local = 0.0;
        let mem = &ctx.machine.devices[ctx.device().0].mem;
        self.block.read_interior(mem, |_, v| local += v * v);
        let cb = Callback::to(self.sh.root, E_NORM);
        ctx.contribute(self.sh.norm_reducer, 0, local, self.sh.nblocks, cb);
    }

    /// Post receives and sends for the current iteration's halo exchange.
    /// The arrival/send counters are reset at the iteration *transition*
    /// (not here): a fast neighbour's halo may land before our own packs
    /// complete, and it must be counted, not wiped.
    fn begin_exchange(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.me();
        let b = &self.block;
        match self.sh.cfg.comm {
            CommMode::GpuAware => {
                let device = ctx.device();
                for &f in &b.faces {
                    let i = f.index();
                    let loc = |buf| MemLoc {
                        device,
                        range: BufRange::whole(buf, b.face_cells(f)),
                    };
                    let mut ch = self.channels[i].take().expect("channel wired");
                    ch.recv(
                        ctx,
                        loc(b.recv_d(f)),
                        Callback::to_ref(me, E_ARRIVED, i as u64),
                    );
                    ch.send(
                        ctx,
                        loc(b.send_d(f)),
                        Callback::to_ref(me, E_SEND_DONE, i as u64),
                    );
                    self.channels[i] = Some(ch);
                }
            }
            CommMode::HostStaging => {
                // Stage each face to the host; E_STAGED per face sends the
                // runtime message.
                for &f in &b.faces {
                    let cells = b.face_cells(f);
                    let src = BufRange::whole(b.send_d(f), cells);
                    let dst = BufRange::whole(b.send_h(f), cells);
                    ctx.launch(self.gpu.d2h, Op::d2h(src, dst));
                    let staged = Callback::to_ref(me, E_STAGED, f.index() as u64);
                    ctx.hapi(self.gpu.d2h, staged);
                }
                // Early halos parked for this iteration?
                let iter = self.iter as u64;
                while let Some(env) = self.pending.take(E_RECV_HALO, iter) {
                    self.handle_staged_halo(ctx, env);
                }
            }
        }
        self.check_exchange_complete(ctx);
    }

    /// A host-staged halo for the *current* iteration: H2D + unpack.
    fn handle_staged_halo(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        let msg = env.take::<HaloMsg>();
        let b = &self.block;
        let cells = b.face_cells(msg.face);
        let host = BufRange::whole(b.recv_h(msg.face), cells);
        // Functional landing of the payload into the host staging buffer.
        if let Some(data) = &msg.data {
            let dev = ctx.device();
            ctx.machine.devices[dev.0].mem.write(host, data);
        }
        let h2d_op = Op::h2d(host, BufRange::whole(b.recv_d(msg.face), cells));
        match self.sh.cfg.sync {
            SyncMode::Original => {
                // Single transfer/(un)pack stream: order alone suffices.
                ctx.launch(self.gpu.comm, h2d_op);
            }
            SyncMode::Optimized => {
                let ev = self.gpu.ev_face[msg.face.index()].expect("host-staged face");
                ctx.gpu_event_reset(ev);
                ctx.launch(self.gpu.h2d, h2d_op);
                ctx.launch_light(self.gpu.h2d, Op::record(ev));
                ctx.launch_light(self.gpu.comm, Op::wait(ev));
            }
        }
        let spec = b.unpack_spec(&ctx.machine.cfg.gpu, b.cur, msg.face);
        ctx.launch(self.gpu.comm, Op::kernel(spec));
        self.arrived += 1;
    }

    fn check_exchange_complete(&mut self, ctx: &mut Ctx<'_>) {
        let faces = self.block.faces.len();
        if self.arrived == faces && self.sends_done == faces {
            self.all_halos(ctx);
        }
    }

    /// Every halo arrived and every send completed: run the back half of
    /// the iteration on the GPU.
    fn all_halos(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.me();
        let p = self.block.cur;
        let last = self.iter + 1 >= self.total();
        let gpu = self.gpu;

        if self.sh.cfg.graphs {
            // Halo exchange followed by one graph launch (paper §III-D2).
            let g = match self.sh.cfg.graph_strategy {
                GraphStrategy::TwoGraphs => self.graphs.expect("graphs built")[p],
                GraphStrategy::UpdateParams => {
                    // Re-parameterize every node for this parity — the
                    // costly alternative the paper rejects.
                    let g = self.graphs.expect("graphs built")[0];
                    let specs = self.graph_update_specs.as_ref().expect("specs kept")[p].clone();
                    for (node, spec) in specs.into_iter().enumerate() {
                        ctx.update_graph_kernel(g, node, spec);
                    }
                    g
                }
            };
            ctx.launch_graph(gpu.comp, g, Callback::to(me, E_POST_ITER));
            return;
        }

        let b = &self.block;
        match (self.sh.cfg.sync, self.sh.cfg.fusion) {
            (SyncMode::Optimized, Fusion::C) => {
                // One kernel for unpacks + update + packs.
                let spec = b.fused_all_spec(&ctx.machine.cfg.gpu, p);
                ctx.launch(gpu.comp, Op::kernel(spec));
                ctx.hapi(gpu.comp, Callback::to(me, E_POST_ITER));
            }
            (SyncMode::Optimized, fusion) => {
                ctx.gpu_event_reset(gpu.ev_unpacks);
                ctx.gpu_event_reset(gpu.ev_update);
                if fusion == Fusion::B {
                    let spec = b.fused_unpack_spec(&ctx.machine.cfg.gpu, p);
                    ctx.launch(gpu.comm, Op::kernel(spec));
                }
                ctx.launch_light(gpu.comm, Op::record(gpu.ev_unpacks));
                ctx.launch_light(gpu.comp, Op::wait(gpu.ev_unpacks));
                let spec = b.update_spec(&ctx.machine.cfg.gpu, p);
                ctx.launch(gpu.comp, Op::kernel(spec));
                if last {
                    ctx.hapi(gpu.comp, Callback::to(me, E_POST_ITER));
                } else {
                    ctx.launch_light(gpu.comp, Op::record(gpu.ev_update));
                    ctx.launch_light(gpu.comm, Op::wait(gpu.ev_update));
                    self.enqueue_packs(ctx, 1 - p, Callback::to(me, E_POST_ITER));
                }
            }
            (SyncMode::Original, _) => {
                // Extra sync point after the update (pre-optimization).
                ctx.gpu_event_reset(gpu.ev_unpacks);
                ctx.launch_light(gpu.comm, Op::record(gpu.ev_unpacks));
                ctx.launch_light(gpu.comp, Op::wait(gpu.ev_unpacks));
                let spec = b.update_spec(&ctx.machine.cfg.gpu, p);
                ctx.launch(gpu.comp, Op::kernel(spec));
                ctx.hapi(gpu.comp, Callback::to(me, E_UPDATE_DONE));
            }
        }
    }

    /// Swap the in/out buffers and cross into the next iteration.
    fn next_iteration(&mut self) {
        self.block.cur = 1 - self.block.cur;
        self.iter += 1;
        self.arrived = 0;
        self.sends_done = 0;
    }
}

impl Chare for BlockChare {
    fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        match env.entry {
            E_START => {
                // Pack the initial field and enter the exchange loop.
                self.enqueue_packs(ctx, self.block.cur, Callback::to(ctx.me(), E_PACKED));
            }
            E_PACKED => {
                self.begin_exchange(ctx);
            }
            E_POST_ITER => {
                self.next_iteration();
                if self.on_iteration_boundary(ctx) {
                    self.begin_exchange(ctx);
                }
            }
            E_UPDATE_DONE => {
                // Original sync scheme: swap after the post-update sync,
                // then pack in a separate phase.
                self.next_iteration();
                if self.on_iteration_boundary(ctx) {
                    self.enqueue_packs(ctx, self.block.cur, Callback::to(ctx.me(), E_PACKED));
                }
            }
            E_ARRIVED => {
                if !self.defer_unpack() {
                    let face = FACES[env.refnum as usize];
                    let spec = self
                        .block
                        .unpack_spec(&ctx.machine.cfg.gpu, self.block.cur, face);
                    ctx.launch(self.gpu.comm, Op::kernel(spec));
                }
                self.arrived += 1;
                self.check_exchange_complete(ctx);
            }
            E_SEND_DONE => {
                self.sends_done += 1;
                self.check_exchange_complete(ctx);
            }
            E_STAGED => {
                // Host-staging: the face's D2H completed; ship the halo as
                // a runtime message.
                let face = FACES[env.refnum as usize];
                let cells = self.block.face_cells(face);
                let dev = ctx.device();
                let data = ctx.machine.devices[dev.0]
                    .mem
                    .read(BufRange::whole(self.block.send_h(face), cells));
                let n = self.block.neighbors[face.index()].expect("active face has neighbor");
                let to = self.sh.chare_of(n);
                let msg = HaloMsg {
                    face: face.opposite(),
                    data,
                };
                ctx.send(
                    to,
                    Envelope::new(E_RECV_HALO, msg)
                        .with_refnum(self.iter as u64)
                        .with_bytes(cells as u64 * 8),
                );
                self.sends_done += 1;
                self.check_exchange_complete(ctx);
            }
            E_NORM => {
                self.norm_result = Some(env.take::<f64>());
            }
            E_RECV_HALO => {
                // Between the rollback and `E_RESUME` the block is a
                // restored checkpoint whose interior is not yet back in
                // device memory, possibly on a device it has not
                // reprovisioned: a neighbour that resumed first must wait
                // in the parking lot.
                if self.resume.is_none()
                    && env.refnum == self.iter as u64
                    && self.arrived < self.block.faces.len()
                {
                    self.handle_staged_halo(ctx, env);
                    self.check_exchange_complete(ctx);
                } else {
                    // A neighbour running ahead: park until we catch up.
                    self.pending.deposit(env);
                }
            }
            E_RESUME => {
                let interior = self.resume.take().expect("E_RESUME reaches a checkpoint");
                assert_eq!(
                    self.iter, env.refnum as usize,
                    "block restored from a different epoch than the recovery line"
                );
                if ctx.device() != self.dev {
                    self.reprovision(ctx);
                }
                // Land the checkpointed interior into the current
                // solution buffer; ghosts are refreshed by the exchange
                // the restart re-runs.
                let mut cells = interior.into_iter();
                let mem = &mut ctx.machine.devices[self.dev.0].mem;
                self.block
                    .write_interior(mem, |_| cells.next().expect("checkpointed interior"));
                // Unpack cost of the restore, then rejoin the loop the
                // same way E_START enters it: pack and exchange.
                ctx.compute(gaat_sim::SimDuration::from_us(10));
                self.enqueue_packs(ctx, self.block.cur, Callback::to(ctx.me(), E_PACKED));
            }
            other => panic!("unknown entry {other:?}"),
        }
    }
}

impl Owner for BlockChare {
    fn block(&self) -> &Block {
        &self.block
    }

    fn finished(&self) -> (Option<SimTime>, Option<SimTime>) {
        (self.warm_at, self.done_at)
    }
}

/// Build the whole Charm-style Jacobi3D simulation: machine, chares,
/// buffers, streams, channels, and (optionally) graphs. Returns the
/// simulation, the chare ids, and the shared parameters.
pub fn build(cfg: JacobiConfig) -> (Simulation, Vec<ChareId>, Arc<Shared>) {
    let sim = Simulation::new(cfg.machine.clone());
    build_in(sim, cfg)
}

/// Like [`build`], but constructing the application inside a
/// caller-provided simulation, so a caller can time `Simulation::new`
/// and the application build apart. The simulation must have been built
/// from `cfg.machine` (same shape, seed, and fault plan). Panics with
/// the [`ConfigError`](crate::ConfigError) text if `cfg` fails
/// [`JacobiConfig::validate`].
pub fn build_in(mut sim: Simulation, cfg: JacobiConfig) -> (Simulation, Vec<ChareId>, Arc<Shared>) {
    cfg.validate().unwrap_or_else(|e| panic!("{e}"));
    debug_assert_eq!(sim.machine.cfg.total_pes(), cfg.machine.total_pes());
    let pes = cfg.machine.total_pes();
    let nblocks = pes * cfg.odf;
    let norm_reducer = sim.machine.create_reducer();
    let base = sim.machine.chare_count();
    let ids: Vec<ChareId> = (0..nblocks).map(|i| ChareId(base + i)).collect();
    let sh = Arc::new(Shared {
        cfg: cfg.clone(),
        decomp: Decomp::new(cfg.global, nblocks),
        norm_reducer,
        root: ids[0],
        nblocks,
    });

    for (bi, &id) in ids.iter().enumerate() {
        let pe = place_chare(bi, nblocks, pes, cfg.placement);
        let dev = sim.machine.pe_device(pe);
        let t = &sim.machine.cfg.gpu;
        let device = &mut sim.machine.devices[dev.0];
        let block = Block::new(&cfg, &sh.decomp, bi, &mut device.mem);
        let gpu = Streams::create(&cfg, device, &block.faces);
        let (graphs, graph_update_specs) = if cfg.graphs {
            let (graphs, specs) = build_graphs(&cfg, &block, t, device);
            let keep = cfg.graph_strategy == GraphStrategy::UpdateParams;
            (Some(graphs), keep.then_some(specs))
        } else {
            (None, None)
        };
        let chare = BlockChare {
            sh: sh.clone(),
            block,
            channels: Default::default(),
            gpu,
            graphs,
            graph_update_specs,
            iter: 0,
            arrived: 0,
            sends_done: 0,
            pending: WhenSet::new(),
            dev,
            resume: None,
            warm_at: (cfg.warmup == 0).then_some(SimTime::ZERO),
            done_at: None,
            norm_result: None,
        };
        assert_eq!(sim.machine.create_chare(pe, Box::new(chare)), id);
    }

    // Checked here rather than in `JacobiConfig::validate`: a device's
    // footprint depends on how this runtime places blocks on it.
    for d in &sim.machine.devices {
        d.assert_memory_fits();
    }

    if cfg.migrates() {
        sim.machine.set_recovery_resume(ids.clone(), E_RESUME);
    }

    // Wire one channel per neighbouring pair (GPU-aware mode).
    if cfg.comm == CommMode::GpuAware {
        for (a, &id) in ids.iter().enumerate() {
            let neighbors = sim.machine.chare_as::<BlockChare>(id).block.neighbors;
            for (f, n) in FACES.into_iter().zip(neighbors) {
                let Some(b) = n.filter(|&b| a < b) else {
                    continue;
                };
                let (ea, eb) = create_channel(&mut sim.machine, id, ids[b]);
                set_channel(&mut sim.machine, id, f, ea);
                set_channel(&mut sim.machine, ids[b], f.opposite(), eb);
            }
        }
    }

    (sim, ids, sh)
}

fn set_channel(m: &mut gaat_rt::Machine, id: ChareId, f: Face, end: ChannelEnd) {
    let any = m.chare_for_setup(id);
    let block = any.downcast_mut::<BlockChare>().expect("block chare");
    block.channels[f.index()] = Some(end);
}

/// Capture the two per-parity iteration graphs for a block, returning the
/// graph handles and the node-ordered kernel specs per parity (kept when
/// the single-graph UpdateParams strategy needs to re-parameterize).
/// Updates and fused-all kernels are node class 0, copies class 2.
fn build_graphs(
    cfg: &JacobiConfig,
    block: &Block,
    t: &GpuTimingModel,
    device: &mut Device,
) -> ([GraphId; 2], [Vec<KernelSpec>; 2]) {
    let mut graphs = [GraphId(0); 2];
    let mut all_specs: [Vec<KernelSpec>; 2] = [Vec::new(), Vec::new()];
    for (p, specs) in all_specs.iter_mut().enumerate() {
        let mut b = GraphBuilder::new();
        let mut add = |spec: KernelSpec, class: usize, deps: &[NodeIndex]| {
            specs.push(spec.clone());
            b.kernel(spec, class, deps)
        };
        if cfg.fusion == Fusion::C {
            // One node for everything.
            add(block.fused_all_spec(t, p), 0, &[]);
        } else {
            // Unpack roots, the update after all of them, the packs
            // (of the update's output) after the update.
            let unpacks: Vec<NodeIndex> = if cfg.fusion == Fusion::B {
                vec![add(block.fused_unpack_spec(t, p), 2, &[])]
            } else {
                block
                    .faces
                    .iter()
                    .map(|&f| add(block.unpack_spec(t, p, f), 2, &[]))
                    .collect()
            };
            let update = add(block.update_spec(t, p), 0, &unpacks);
            if cfg.fusion == Fusion::None {
                for &f in &block.faces {
                    add(block.pack_spec(t, 1 - p, f), 2, &[update]);
                }
            } else {
                add(block.fused_pack_spec(t, 1 - p), 2, &[update]);
            }
        }
        graphs[p] = device.register_graph(b.build());
    }
    (graphs, all_specs)
}

/// Run a built simulation to completion and collect the result.
pub fn run(sim: &mut Simulation, ids: &[ChareId], sh: &Shared) -> RunResult {
    start(sim, ids);
    let (result, stalled) = finish_tolerant(sim, ids, sh);
    result.unwrap_or_else(|| panic!("{stalled} blocks never finished"))
}

/// Start the application and run to quiescence, tolerating stalls: with
/// the reliable transport off and message drops armed, a block that
/// loses a halo message parks forever and the queue drains early.
/// Returns the result if every block finished, plus the stalled-block
/// count. This is the sweep engine's runner — a drop-rate axis must not
/// abort the whole grid.
pub fn run_tolerant(
    sim: &mut Simulation,
    ids: &[ChareId],
    sh: &Shared,
) -> (Option<RunResult>, usize) {
    start(sim, ids);
    finish_tolerant(sim, ids, sh)
}

/// Start every block via the runtime's tree broadcast (the
/// `block_proxy.run()` of the paper's Fig. 3) without running the
/// engine. Startup is outside the timed region, but the costs are real.
/// The sweep memoizer needs the start and the drain as separate steps so
/// it can pause at a fault-onset instant, clone the world, and fork;
/// [`run_tolerant`] is exactly `start` + [`finish_tolerant`].
pub fn start(sim: &mut Simulation, ids: &[ChareId]) {
    let Simulation { sim, machine, .. } = sim;
    machine.broadcast(sim, ids, E_START, 0);
}

/// Drain an already-started run to quiescence and collect, tolerating
/// stalls (see [`run_tolerant`]). Also the second half of a forked
/// branch: a world rewound to a clone taken after [`start`] already has
/// the broadcast in its event state, so the branch resumes here directly.
pub fn finish_tolerant(
    sim: &mut Simulation,
    ids: &[ChareId],
    sh: &Shared,
) -> (Option<RunResult>, usize) {
    let outcome = sim.run();
    assert_eq!(
        outcome,
        gaat_rt::RunOutcome::Drained,
        "simulation should quiesce"
    );
    let stalled = ids
        .iter()
        .filter(|&&id| sim.machine.chare_as::<BlockChare>(id).done_at.is_none())
        .count();
    if stalled > 0 {
        return (None, stalled);
    }
    let norm = sh.cfg.compute_norm.then(|| {
        let root = sim.machine.chare_as::<BlockChare>(sh.root);
        root.norm_result.expect("norm reduction completed")
    });
    (
        Some(block::collect::<BlockChare>(sim, ids, &sh.cfg, norm)),
        0,
    )
}

/// Sum of squares of the final field (`None` in phantom mode). The field
/// is reconstructed in global order first, so the checksum is independent
/// of the decomposition and bit-comparable across variants.
pub fn checksum(sim: &Simulation, ids: &[ChareId], sh: &Shared) -> Option<f64> {
    block::checksum::<BlockChare>(sim, ids, &sh.cfg)
}

/// Compare every block's final field against the sequential reference,
/// bit-for-bit. Returns the number of cells compared.
pub fn validate_against_reference(sim: &Simulation, ids: &[ChareId], sh: &Shared) -> usize {
    block::validate::<BlockChare>(sim, ids, &sh.cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Dims;
    use gaat_rt::MachineConfig;

    /// A checkpoint costs a 16-byte header, the iteration count and the
    /// interior cells, of which phantom buffers have none.
    #[test]
    fn state_bytes_prices_the_interior_of_real_buffers_only() {
        let mut cfg = JacobiConfig::new(MachineConfig::validation(1, 2), Dims::cube(6));
        cfg.machine.real_buffers = false;
        let (sim, ids, _) = build(cfg.clone());
        for &id in &ids {
            assert_eq!(sim.machine.chare_as::<BlockChare>(id).state_bytes(), 24);
        }
        cfg.machine.real_buffers = true;
        let (sim, ids, _) = build(cfg);
        let mut cells = 0;
        for &id in &ids {
            let b = sim.machine.chare_as::<BlockChare>(id);
            let n = b.block.dims.count();
            assert_eq!(b.state_bytes(), 16 + 8 * (1 + n as u64));
            cells += n;
        }
        assert_eq!(cells, 6 * 6 * 6);
    }
}
