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

use gaat_gpu::{CudaEventId, GraphBuilder};
use gaat_rt::{
    create_channel, BufRange, BufferId, Callback, ChannelEnd, Chare, ChareId, ChareSnapshot, Ctx,
    DeviceId, EntryId, Envelope, GraphId, KernelSpec, MemLoc, Op, Simulation, Space, StreamId,
    WhenSet,
};
use gaat_sim::SimTime;

use crate::app::{CommMode, Fusion, GraphStrategy, JacobiConfig, RunResult, SyncMode};
use crate::geom::{place_chare, Decomp, Dims, Face, FACES};
use crate::kernels;
use crate::reference::initial_value;

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

/// One block of the grid.
#[derive(Clone)]
pub struct BlockChare {
    sh: Arc<Shared>,
    dims: Dims,
    faces: Vec<Face>,
    neighbors: [Option<ChareId>; 6],
    channels: [Option<ChannelEnd>; 6],
    u: [BufferId; 2],
    cur: usize,
    halo_send_d: [Option<BufferId>; 6],
    halo_recv_d: [Option<BufferId>; 6],
    halo_send_h: [Option<BufferId>; 6],
    halo_recv_h: [Option<BufferId>; 6],
    comp: StreamId,
    comm: StreamId,
    d2h: StreamId,
    h2d: StreamId,
    ev_unpacks: CudaEventId,
    ev_update: CudaEventId,
    ev_face: [Option<CudaEventId>; 6],
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
    /// Snapshot handed over by [`Chare::restore`], applied at `E_RESUME`
    /// (restore has no machine access, so device memory is written then).
    resume: Option<ChareSnapshot>,
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

    fn face_cells(&self, f: Face) -> usize {
        f.area(self.dims)
    }

    fn active_face_cells(&self) -> Vec<usize> {
        self.faces.iter().map(|&f| self.face_cells(f)).collect()
    }

    // ---- kernel specs --------------------------------------------------

    fn update_spec(&self, ctx: &Ctx<'_>, p: usize) -> KernelSpec {
        let t = &ctx.machine.cfg.gpu;
        let work = kernels::update_work(t, self.dims.count());
        let (uin, uout, d) = (self.u[p], self.u[1 - p], self.dims);
        KernelSpec::with_func("update", work, move |m| kernels::update(m, uin, uout, d))
    }

    fn pack_spec(&self, ctx: &Ctx<'_>, p_src: usize, f: Face) -> KernelSpec {
        let t = &ctx.machine.cfg.gpu;
        let work = kernels::copy_work(t, self.face_cells(f));
        let (u, halo, d) = (
            self.u[p_src],
            self.halo_send_d[f.index()].expect("active face"),
            self.dims,
        );
        KernelSpec::with_func("pack", work, move |m| kernels::pack(m, u, halo, d, f))
    }

    fn unpack_spec(&self, ctx: &Ctx<'_>, p: usize, f: Face) -> KernelSpec {
        let t = &ctx.machine.cfg.gpu;
        let work = kernels::copy_work(t, self.face_cells(f));
        let (u, halo, d) = (
            self.u[p],
            self.halo_recv_d[f.index()].expect("active face"),
            self.dims,
        );
        KernelSpec::with_func("unpack", work, move |m| kernels::unpack(m, u, halo, d, f))
    }

    fn fused_pack_spec(&self, ctx: &Ctx<'_>, p_src: usize) -> KernelSpec {
        let t = &ctx.machine.cfg.gpu;
        let work = kernels::fused_copy_work(t, &self.active_face_cells());
        let u = self.u[p_src];
        let d = self.dims;
        let halos: Vec<(Face, BufferId)> = self
            .faces
            .iter()
            .map(|&f| (f, self.halo_send_d[f.index()].expect("active")))
            .collect();
        KernelSpec::with_func("pack_fused", work, move |m| {
            for &(f, h) in &halos {
                kernels::pack(m, u, h, d, f);
            }
        })
    }

    fn fused_unpack_spec(&self, ctx: &Ctx<'_>, p: usize) -> KernelSpec {
        let t = &ctx.machine.cfg.gpu;
        let work = kernels::fused_copy_work(t, &self.active_face_cells());
        let u = self.u[p];
        let d = self.dims;
        let halos: Vec<(Face, BufferId)> = self
            .faces
            .iter()
            .map(|&f| (f, self.halo_recv_d[f.index()].expect("active")))
            .collect();
        KernelSpec::with_func("unpack_fused", work, move |m| {
            for &(f, h) in &halos {
                kernels::unpack(m, u, h, d, f);
            }
        })
    }

    fn fused_all_spec(&self, ctx: &Ctx<'_>, p: usize) -> KernelSpec {
        let t = &ctx.machine.cfg.gpu;
        let work = kernels::fused_all_work(t, self.dims.count(), &self.active_face_cells());
        let (uin, uout, d) = (self.u[p], self.u[1 - p], self.dims);
        let recv: Vec<(Face, BufferId)> = self
            .faces
            .iter()
            .map(|&f| (f, self.halo_recv_d[f.index()].expect("active")))
            .collect();
        let send: Vec<(Face, BufferId)> = self
            .faces
            .iter()
            .map(|&f| (f, self.halo_send_d[f.index()].expect("active")))
            .collect();
        KernelSpec::with_func("fused_all", work, move |m| {
            for &(f, h) in &recv {
                kernels::unpack(m, uin, h, d, f);
            }
            kernels::update(m, uin, uout, d);
            for &(f, h) in &send {
                kernels::pack(m, uout, h, d, f);
            }
        })
    }

    // ---- iteration driving ----------------------------------------------

    /// Enqueue this iteration's pack kernels (reading `u[p_src]`) and the
    /// HAPI sync point delivering `done` when they complete.
    fn enqueue_packs(&self, ctx: &mut Ctx<'_>, p_src: usize, done: Callback) {
        match self.sh.cfg.fusion {
            Fusion::None => {
                for &f in &self.faces.clone() {
                    ctx.launch(self.comm, Op::kernel(self.pack_spec(ctx, p_src, f)));
                }
            }
            Fusion::A | Fusion::B | Fusion::C => {
                // C only reaches here for the very first iteration, where
                // there is nothing to fuse the packs *into*.
                ctx.launch(self.comm, Op::kernel(self.fused_pack_spec(ctx, p_src)));
            }
        }
        ctx.hapi(self.comm, done);
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
            let snap = self.snapshot(ctx);
            ctx.store_checkpoint(self.iter as u64, snap);
        }
        true
    }

    /// Serialize the block at an iteration boundary: the iteration count
    /// and the interior of the current solution buffer. Ghost cells are
    /// excluded — the restart re-runs the halo exchange before the next
    /// update reads them.
    fn snapshot(&self, ctx: &mut Ctx<'_>) -> ChareSnapshot {
        let d = self.dims;
        let mut floats = Vec::new();
        if let Some(s) = ctx.machine.devices[self.dev.0]
            .mem
            .get(self.u[self.cur])
            .as_slice()
        {
            floats.reserve(d.count());
            for z in 1..=d.z {
                for y in 1..=d.y {
                    for x in 1..=d.x {
                        floats.push(s[kernels::idx(d, x, y, z)]);
                    }
                }
            }
        }
        ChareSnapshot {
            ints: vec![self.iter as i64],
            floats,
        }
    }

    /// Re-create device-side resources on the PE's device after a
    /// migration forced by failure recovery (the old device's allocations
    /// are stranded — acceptable in the model, where device memory is
    /// only accounted at build time). Channels and graphs are per-device
    /// and not rebuilt: recovery is supported for the host-staging,
    /// non-graph configurations.
    fn reprovision(&mut self, ctx: &mut Ctx<'_>) {
        assert!(
            self.sh.cfg.comm == CommMode::HostStaging && !self.sh.cfg.graphs,
            "post-recovery migration requires host-staging, non-graph config"
        );
        let real = self.sh.cfg.machine.real_buffers;
        let dims = self.dims;
        let dev = ctx.device();
        let device = &mut ctx.machine.devices[dev.0];
        let len = kernels::ghosted_len(dims);
        self.u = [
            device.mem.alloc(Space::Device, len, real),
            device.mem.alloc(Space::Device, len, real),
        ];
        for &f in &self.faces {
            let cells = f.area(dims);
            let i = f.index();
            self.halo_send_d[i] = Some(device.mem.alloc(Space::Device, cells, real));
            self.halo_recv_d[i] = Some(device.mem.alloc(Space::Device, cells, real));
            self.halo_send_h[i] = Some(device.mem.alloc(Space::Host, cells, real));
            self.halo_recv_h[i] = Some(device.mem.alloc(Space::Host, cells, real));
            self.ev_face[i] = Some(device.create_event());
        }
        let comp = device.create_stream(0);
        let prio = self.sh.cfg.comm_priority;
        let comm = device.create_stream(prio);
        let (d2h, h2d) = match self.sh.cfg.sync {
            SyncMode::Original => (comm, comm),
            SyncMode::Optimized => (device.create_stream(prio), device.create_stream(prio)),
        };
        self.comp = comp;
        self.comm = comm;
        self.d2h = d2h;
        self.h2d = h2d;
        self.ev_unpacks = device.create_event();
        self.ev_update = device.create_event();
        self.dev = dev;
    }

    /// Contribute this block's squared norm to the global reduction (the
    /// convergence-monitoring pattern; exercises the runtime's reduction
    /// path from inside the application).
    fn contribute_norm(&mut self, ctx: &mut Ctx<'_>) {
        // Host-side evaluation of the local norm (a real application would
        // launch a reduction kernel; the charge approximates that).
        ctx.compute(gaat_sim::SimDuration::from_us(5));
        let dev = ctx.device();
        let local = match ctx.machine.devices[dev.0]
            .mem
            .get(self.u[self.cur])
            .as_slice()
        {
            Some(s) => {
                let d = self.dims;
                let mut acc = 0.0;
                for z in 1..=d.z {
                    for y in 1..=d.y {
                        for x in 1..=d.x {
                            let v = s[kernels::idx(d, x, y, z)];
                            acc += v * v;
                        }
                    }
                }
                acc
            }
            None => 0.0,
        };
        let cb = Callback::to(self.sh.root, E_NORM);
        ctx.contribute(self.sh.norm_reducer, 0, local, self.sh.nblocks, cb);
    }

    /// Post receives and sends for the current iteration's halo exchange.
    /// The arrival/send counters are reset at the iteration *transition*
    /// (not here): a fast neighbour's halo may land before our own packs
    /// complete, and it must be counted, not wiped.
    fn begin_exchange(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.me();
        let faces = self.faces.clone();
        match self.sh.cfg.comm {
            CommMode::GpuAware => {
                for &f in &faces {
                    let i = f.index();
                    let dev = ctx.device();
                    let recv_loc = MemLoc {
                        device: dev,
                        range: BufRange::whole(
                            self.halo_recv_d[i].expect("active"),
                            self.face_cells(f),
                        ),
                    };
                    let send_loc = MemLoc {
                        device: dev,
                        range: BufRange::whole(
                            self.halo_send_d[i].expect("active"),
                            self.face_cells(f),
                        ),
                    };
                    let mut ch = self.channels[i].take().expect("channel wired");
                    ch.recv(ctx, recv_loc, Callback::to_ref(me, E_ARRIVED, i as u64));
                    ch.send(ctx, send_loc, Callback::to_ref(me, E_SEND_DONE, i as u64));
                    self.channels[i] = Some(ch);
                }
            }
            CommMode::HostStaging => {
                // Stage each face to the host; E_STAGED per face sends the
                // runtime message.
                for &f in &faces {
                    let i = f.index();
                    let cells = self.face_cells(f);
                    let src = BufRange::whole(self.halo_send_d[i].expect("active"), cells);
                    let dst = BufRange::whole(self.halo_send_h[i].expect("active"), cells);
                    let tag_cb = Callback::to_ref(me, E_STAGED, i as u64);
                    let op = Op::d2h(src, dst);
                    ctx.launch(self.d2h, op);
                    ctx.hapi(self.d2h, tag_cb);
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
        let i = msg.face.index();
        let cells = self.face_cells(msg.face);
        let host = self.halo_recv_h[i].expect("active");
        // Functional landing of the payload into the host staging buffer.
        if let Some(data) = &msg.data {
            let dev = ctx.device();
            ctx.machine.devices[dev.0]
                .mem
                .write(BufRange::whole(host, cells), data);
        }
        let h2d_op = Op::h2d(
            BufRange::whole(host, cells),
            BufRange::whole(self.halo_recv_d[i].expect("active"), cells),
        );
        match self.sh.cfg.sync {
            SyncMode::Original => {
                // Single transfer/(un)pack stream: order alone suffices.
                ctx.launch(self.comm, h2d_op);
                let spec = self.unpack_spec(ctx, self.cur, msg.face);
                ctx.launch(self.comm, Op::kernel(spec));
            }
            SyncMode::Optimized => {
                let ev = self.ev_face[i].expect("active");
                ctx.gpu_event_reset(ev);
                ctx.launch(self.h2d, h2d_op);
                ctx.launch_light(self.h2d, Op::record(ev));
                ctx.launch_light(self.comm, Op::wait(ev));
                let spec = self.unpack_spec(ctx, self.cur, msg.face);
                ctx.launch(self.comm, Op::kernel(spec));
            }
        }
        self.arrived += 1;
    }

    fn check_exchange_complete(&mut self, ctx: &mut Ctx<'_>) {
        if self.arrived == self.faces.len() && self.sends_done == self.faces.len() {
            self.all_halos(ctx);
        }
    }

    /// Every halo arrived and every send completed: run the back half of
    /// the iteration on the GPU.
    fn all_halos(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.me();
        let p = self.cur;
        let last = self.iter + 1 >= self.total();

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
            ctx.launch_graph(self.comp, g, Callback::to(me, E_POST_ITER));
            return;
        }

        match (self.sh.cfg.sync, self.sh.cfg.fusion) {
            (SyncMode::Optimized, Fusion::C) => {
                // One kernel for unpacks + update + packs.
                let spec = self.fused_all_spec(ctx, p);
                ctx.launch(self.comp, Op::kernel(spec));
                ctx.hapi(self.comp, Callback::to(me, E_POST_ITER));
            }
            (SyncMode::Optimized, fusion) => {
                ctx.gpu_event_reset(self.ev_unpacks);
                ctx.gpu_event_reset(self.ev_update);
                if fusion == Fusion::B {
                    let spec = self.fused_unpack_spec(ctx, p);
                    ctx.launch(self.comm, Op::kernel(spec));
                }
                ctx.launch_light(self.comm, Op::record(self.ev_unpacks));
                ctx.launch_light(self.comp, Op::wait(self.ev_unpacks));
                let spec = self.update_spec(ctx, p);
                ctx.launch(self.comp, Op::kernel(spec));
                if last {
                    ctx.hapi(self.comp, Callback::to(me, E_POST_ITER));
                } else {
                    ctx.launch_light(self.comp, Op::record(self.ev_update));
                    ctx.launch_light(self.comm, Op::wait(self.ev_update));
                    self.enqueue_packs(ctx, 1 - p, Callback::to(me, E_POST_ITER));
                }
            }
            (SyncMode::Original, _) => {
                // Extra sync point after the update (pre-optimization).
                ctx.gpu_event_reset(self.ev_unpacks);
                ctx.launch_light(self.comm, Op::record(self.ev_unpacks));
                ctx.launch_light(self.comp, Op::wait(self.ev_unpacks));
                let spec = self.update_spec(ctx, p);
                ctx.launch(self.comp, Op::kernel(spec));
                ctx.hapi(self.comp, Callback::to(me, E_UPDATE_DONE));
            }
        }
    }
}

impl Chare for BlockChare {
    fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        match env.entry {
            E_START => {
                // Pack the initial field and enter the exchange loop.
                self.enqueue_packs(ctx, self.cur, Callback::to(ctx.me(), E_PACKED));
            }
            E_PACKED => {
                self.begin_exchange(ctx);
            }
            E_POST_ITER => {
                self.cur = 1 - self.cur;
                self.iter += 1;
                self.arrived = 0;
                self.sends_done = 0;
                if self.on_iteration_boundary(ctx) {
                    self.begin_exchange(ctx);
                }
            }
            E_UPDATE_DONE => {
                // Original sync scheme: swap after the post-update sync,
                // then pack in a separate phase.
                self.cur = 1 - self.cur;
                self.iter += 1;
                self.arrived = 0;
                self.sends_done = 0;
                if self.on_iteration_boundary(ctx) {
                    self.enqueue_packs(ctx, self.cur, Callback::to(ctx.me(), E_PACKED));
                }
            }
            E_ARRIVED => {
                if !self.defer_unpack() {
                    let face = FACES[env.refnum as usize];
                    let spec = self.unpack_spec(ctx, self.cur, face);
                    ctx.launch(self.comm, Op::kernel(spec));
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
                let i = face.index();
                let cells = self.face_cells(face);
                let dev = ctx.device();
                let data = ctx.machine.devices[dev.0]
                    .mem
                    .read(BufRange::whole(self.halo_send_h[i].expect("active"), cells));
                let to = self.neighbors[i].expect("active face has neighbor");
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
                // Between `restore` and `E_RESUME` the block still holds
                // its pre-rollback iteration and (after a migration) the
                // old device's buffers, streams and events: a neighbour
                // that resumed first must wait in the parking lot.
                if self.resume.is_none()
                    && env.refnum == self.iter as u64
                    && self.arrived < self.faces.len()
                {
                    self.handle_staged_halo(ctx, env);
                    self.check_exchange_complete(ctx);
                } else {
                    // A neighbour running ahead: park until we catch up.
                    self.pending.deposit(env);
                }
            }
            E_RESUME => {
                let snap = self.resume.take().expect("restore() ran before E_RESUME");
                let epoch = env.refnum as usize;
                assert_eq!(
                    snap.ints[0] as usize, epoch,
                    "block restored from a different epoch than the recovery line"
                );
                self.iter = epoch;
                self.arrived = 0;
                self.sends_done = 0;
                self.done_at = None;
                if ctx.device() != self.dev {
                    self.reprovision(ctx);
                }
                // Land the checkpointed interior into the current
                // solution buffer; ghosts are refreshed by the exchange
                // the restart re-runs.
                let d = self.dims;
                if let Some(s) = ctx.machine.devices[self.dev.0]
                    .mem
                    .get_mut(self.u[self.cur])
                    .as_mut_slice()
                {
                    let mut k = 0;
                    for z in 1..=d.z {
                        for y in 1..=d.y {
                            for x in 1..=d.x {
                                s[kernels::idx(d, x, y, z)] = snap.floats[k];
                                k += 1;
                            }
                        }
                    }
                }
                // Unpack cost of the restore, then rejoin the loop the
                // same way E_START enters it: pack and exchange.
                ctx.compute(gaat_sim::SimDuration::from_us(10));
                self.enqueue_packs(ctx, self.cur, Callback::to(ctx.me(), E_PACKED));
            }
            other => panic!("unknown entry {other:?}"),
        }
    }

    fn restore(&mut self, snap: ChareSnapshot) {
        // Halos parked before the rollback belong to the abandoned
        // incarnation. Anything delivered from here on comes from a
        // neighbour that already resumed, and is kept for the restart.
        self.pending = WhenSet::new();
        self.resume = Some(snap);
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
/// caller-provided simulation — typically one prepared by a
/// `gaat_rt::WorldSlot`, so the engine's heap allocations are recycled
/// across a sweep. The simulation must have been built from
/// `cfg.machine` (same shape, seed, and fault plan).
pub fn build_in(mut sim: Simulation, cfg: JacobiConfig) -> (Simulation, Vec<ChareId>, Arc<Shared>) {
    cfg.validate();
    debug_assert_eq!(sim.machine.cfg.total_pes(), cfg.machine.total_pes());
    let pes = cfg.machine.total_pes();
    let nblocks = pes * cfg.odf;
    let decomp = Decomp::new(cfg.global, nblocks);
    let real = cfg.machine.real_buffers;
    let norm_reducer = sim.machine.create_reducer();
    let base = sim.machine.chare_count();
    let ids: Vec<ChareId> = (0..nblocks).map(|i| ChareId(base + i)).collect();
    let sh = Arc::new(Shared {
        cfg: cfg.clone(),
        decomp,
        norm_reducer,
        root: ids[0],
        nblocks,
    });

    for bi in 0..nblocks {
        let coord = sh.decomp.coord_of(bi);
        let dims = sh.decomp.block_dims(coord);
        let origin = sh.decomp.block_origin(coord);
        let faces = sh.decomp.active_faces(coord);
        let pe = place_chare(bi, nblocks, pes, cfg.placement);
        let dev = sim.machine.pe_device(pe);
        let device = &mut sim.machine.devices[dev.0];

        // Solution buffers (two copies, as in the paper).
        let len = kernels::ghosted_len(dims);
        let u0 = device.mem.alloc(Space::Device, len, real);
        let u1 = device.mem.alloc(Space::Device, len, real);
        if real {
            let s = device.mem.get_mut(u0).as_mut_slice().expect("real");
            for z in 1..=dims.z {
                for y in 1..=dims.y {
                    for x in 1..=dims.x {
                        s[kernels::idx(dims, x, y, z)] =
                            initial_value(origin.0 + x - 1, origin.1 + y - 1, origin.2 + z - 1);
                    }
                }
            }
        }

        let mut halo_send_d = [None; 6];
        let mut halo_recv_d = [None; 6];
        let mut halo_send_h = [None; 6];
        let mut halo_recv_h = [None; 6];
        let mut ev_face = [None; 6];
        for &f in &faces {
            let cells = f.area(dims);
            let i = f.index();
            halo_send_d[i] = Some(device.mem.alloc(Space::Device, cells, real));
            halo_recv_d[i] = Some(device.mem.alloc(Space::Device, cells, real));
            if cfg.comm == CommMode::HostStaging {
                halo_send_h[i] = Some(device.mem.alloc(Space::Host, cells, real));
                halo_recv_h[i] = Some(device.mem.alloc(Space::Host, cells, real));
                ev_face[i] = Some(device.create_event());
            }
        }

        // Streams: compute at low priority; communication-related work at
        // high priority (paper §III-A). The original scheme uses a single
        // transfer stream; the optimized one splits D2H and H2D.
        let comp = device.create_stream(0);
        let prio = cfg.comm_priority;
        let comm = device.create_stream(prio);
        let (d2h, h2d) = match cfg.sync {
            SyncMode::Original => (comm, comm),
            SyncMode::Optimized => (device.create_stream(prio), device.create_stream(prio)),
        };
        let ev_unpacks = device.create_event();
        let ev_update = device.create_event();

        let mut neighbors = [None; 6];
        for &f in &faces {
            let n = sh.decomp.neighbor(coord, f).expect("active face");
            neighbors[f.index()] = Some(ids[sh.decomp.index_of(n)]);
        }

        let mut block = BlockChare {
            sh: sh.clone(),
            dims,
            faces,
            neighbors,
            channels: Default::default(),
            u: [u0, u1],
            cur: 0,
            halo_send_d,
            halo_recv_d,
            halo_send_h,
            halo_recv_h,
            comp,
            comm,
            d2h,
            h2d,
            ev_unpacks,
            ev_update,
            ev_face,
            graphs: None,
            graph_update_specs: None,
            iter: 0,
            arrived: 0,
            sends_done: 0,
            pending: WhenSet::new(),
            dev,
            resume: None,
            warm_at: if cfg.warmup == 0 {
                Some(SimTime::ZERO)
            } else {
                None
            },
            done_at: None,
            norm_result: None,
        };

        if cfg.graphs {
            let (graphs, specs) = build_graphs(&cfg, &block, &mut sim.machine.devices[dev.0]);
            block.graphs = Some(graphs);
            if cfg.graph_strategy == GraphStrategy::UpdateParams {
                block.graph_update_specs = Some(specs);
            }
        }

        let id = sim.machine.create_chare(pe, Box::new(block));
        assert_eq!(id, ids[bi]);
    }

    for d in &sim.machine.devices {
        d.assert_memory_fits();
    }

    if !cfg.machine.faults.pe_failures.is_empty() || cfg.machine.lb.enabled() {
        assert!(
            cfg.checkpoint_every > 0,
            "PE failures or the adaptive LB are armed but checkpointing is off"
        );
        sim.machine.set_recovery_resume(ids.clone(), E_RESUME);
    }

    // Wire channels (GPU-aware mode).
    if cfg.comm == CommMode::GpuAware {
        for bi in 0..nblocks {
            let coord = sh.decomp.coord_of(bi);
            for &f in &sh.decomp.active_faces(coord) {
                let n = sh.decomp.neighbor(coord, f).expect("active");
                let ni = sh.decomp.index_of(n);
                if bi < ni {
                    let (ea, eb) = create_channel(&mut sim.machine, ids[bi], ids[ni]);
                    set_channel(&mut sim.machine, ids[bi], f, ea);
                    set_channel(&mut sim.machine, ids[ni], f.opposite(), eb);
                }
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
fn build_graphs(
    cfg: &JacobiConfig,
    block: &BlockChare,
    device: &mut gaat_gpu::Device,
) -> ([GraphId; 2], [Vec<KernelSpec>; 2]) {
    let t = device.timing.clone();
    let mut out = [GraphId(0); 2];
    let mut all_specs: [Vec<KernelSpec>; 2] = [Vec::new(), Vec::new()];
    for (gi, p) in [0usize, 1].into_iter().enumerate() {
        let mut b = GraphBuilder::new();
        let mut specs: Vec<KernelSpec> = Vec::new();
        let dims = block.dims;
        let (uin, uout) = (block.u[p], block.u[1 - p]);
        let faces = block.faces.clone();
        let cells: Vec<usize> = faces.iter().map(|&f| f.area(dims)).collect();
        let recv: Vec<(Face, BufferId)> = faces
            .iter()
            .map(|&f| (f, block.halo_recv_d[f.index()].expect("active")))
            .collect();
        let send: Vec<(Face, BufferId)> = faces
            .iter()
            .map(|&f| (f, block.halo_send_d[f.index()].expect("active")))
            .collect();
        let add = |b: &mut GraphBuilder,
                   specs: &mut Vec<KernelSpec>,
                   spec: KernelSpec,
                   class: usize,
                   deps: &[gaat_gpu::NodeIndex]| {
            specs.push(spec.clone());
            b.kernel(spec, class, deps)
        };

        if cfg.fusion == Fusion::C {
            // One node for everything.
            let work = kernels::fused_all_work(&t, dims.count(), &cells);
            let (r2, s2) = (recv.clone(), send.clone());
            let spec = KernelSpec::with_func("fused_all", work, move |m| {
                for &(f, h) in &r2 {
                    kernels::unpack(m, uin, h, dims, f);
                }
                kernels::update(m, uin, uout, dims);
                for &(f, h) in &s2 {
                    kernels::pack(m, uout, h, dims, f);
                }
            });
            add(&mut b, &mut specs, spec, 0, &[]);
            out[gi] = device.register_graph(b.build());
            all_specs[gi] = specs;
            continue;
        }

        // Unpack roots.
        let mut unpack_nodes = Vec::new();
        match cfg.fusion {
            Fusion::B => {
                let work = kernels::fused_copy_work(&t, &cells);
                let r2 = recv.clone();
                let spec = KernelSpec::with_func("unpack_fused", work, move |m| {
                    for &(f, h) in &r2 {
                        kernels::unpack(m, uin, h, dims, f);
                    }
                });
                unpack_nodes.push(add(&mut b, &mut specs, spec, 2, &[]));
            }
            Fusion::None | Fusion::A => {
                for &(f, h) in &recv {
                    let work = kernels::copy_work(&t, f.area(dims));
                    let spec = KernelSpec::with_func("unpack", work, move |m| {
                        kernels::unpack(m, uin, h, dims, f);
                    });
                    unpack_nodes.push(add(&mut b, &mut specs, spec, 2, &[]));
                }
            }
            Fusion::C => unreachable!(),
        }

        // Update depends on all unpacks.
        let update_spec =
            KernelSpec::with_func("update", kernels::update_work(&t, dims.count()), move |m| {
                kernels::update(m, uin, uout, dims)
            });
        let update = add(&mut b, &mut specs, update_spec, 0, &unpack_nodes);

        // Packs depend on the update.
        match cfg.fusion {
            Fusion::A | Fusion::B => {
                let work = kernels::fused_copy_work(&t, &cells);
                let s2 = send.clone();
                let spec = KernelSpec::with_func("pack_fused", work, move |m| {
                    for &(f, h) in &s2 {
                        kernels::pack(m, uout, h, dims, f);
                    }
                });
                add(&mut b, &mut specs, spec, 2, &[update]);
            }
            Fusion::None => {
                for &(f, h) in &send {
                    let work = kernels::copy_work(&t, f.area(dims));
                    let spec = KernelSpec::with_func("pack", work, move |m| {
                        kernels::pack(m, uout, h, dims, f);
                    });
                    add(&mut b, &mut specs, spec, 2, &[update]);
                }
            }
            Fusion::C => unreachable!(),
        }
        out[gi] = device.register_graph(b.build());
        all_specs[gi] = specs;
    }
    (out, all_specs)
}

/// Run a built simulation to completion and collect the result.
pub fn run(sim: &mut Simulation, ids: &[ChareId], sh: &Shared) -> RunResult {
    // Start every block via the runtime's tree broadcast (the
    // `block_proxy.run()` of the paper's Fig. 3). Startup is outside the
    // timed region, but the costs are real.
    {
        let Simulation { sim, machine, .. } = sim;
        machine.broadcast(sim, ids, E_START, 0);
    }
    assert_eq!(
        sim.run(),
        gaat_rt::RunOutcome::Drained,
        "simulation should quiesce"
    );
    collect(sim, ids, sh)
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

/// Tree-broadcast `E_START` to every block without running the engine.
/// The sweep memoizer needs the start and the drain as separate steps so
/// it can pause at a fault-onset instant, snapshot the world, and fork;
/// [`run_tolerant`] is exactly `start` + [`finish_tolerant`].
pub fn start(sim: &mut Simulation, ids: &[ChareId]) {
    let Simulation { sim, machine, .. } = sim;
    machine.broadcast(sim, ids, E_START, 0);
}

/// Drain an already-started run to quiescence and collect, tolerating
/// stalls (see [`run_tolerant`]). Also the second half of a forked
/// branch: after a [`Simulation::restore`] the broadcast is already in
/// the replayed event state, so the branch resumes here directly.
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
    (Some(collect(sim, ids, sh)), 0)
}

/// Fold a drained run's per-block state into a [`RunResult`].
fn collect(sim: &mut Simulation, ids: &[ChareId], sh: &Shared) -> RunResult {
    let mut warm = SimTime::ZERO;
    let mut done = SimTime::ZERO;
    for &id in ids {
        let b = sim.machine.chare_as::<BlockChare>(id);
        warm = warm.max(b.warm_at.expect("block warmed up"));
        done = done.max(b.done_at.expect("block finished"));
    }
    let iters = sh.cfg.iters as u64;
    let checksum = checksum(sim, ids, sh);
    let kernels: u64 = sim.machine.devices.iter().map(|d| d.stats().kernels).sum();
    let graph_launches: u64 = sim
        .machine
        .devices
        .iter()
        .map(|d| d.stats().graph_launches)
        .sum();
    let pes = sim.machine.pes.len();
    let cpu_utilization = (0..pes)
        .map(|p| sim.machine.pe_utilization(p, done))
        .sum::<f64>()
        / pes as f64;
    let reduced_norm = if sh.cfg.compute_norm {
        let root = sim.machine.chare_as::<BlockChare>(sh.root);
        Some(root.norm_result.expect("norm reduction completed"))
    } else {
        None
    };
    RunResult {
        time_per_iter: done.since(warm) / iters,
        total: done.since(SimTime::ZERO),
        warm_at: warm,
        checksum,
        entries: sim.machine.stats().entries,
        kernels,
        graph_launches,
        cpu_utilization,
        reduced_norm,
    }
}

/// Sum of squares of the final field (`None` in phantom mode). The field
/// is reconstructed in global order first, so the checksum is independent
/// of the decomposition and bit-comparable across variants.
pub fn checksum(sim: &Simulation, ids: &[ChareId], sh: &Shared) -> Option<f64> {
    if !sh.cfg.machine.real_buffers {
        return None;
    }
    let mut field = vec![0.0f64; sh.cfg.global.count()];
    let g = sh.cfg.global;
    for &id in ids {
        let b = sim.machine.chare_as::<BlockChare>(id);
        let pe = sim.machine.pe_of(id);
        let dev = sim.machine.pe_device(pe);
        let buf = sim.machine.devices[dev.0].mem.get(b.u[b.cur]);
        let s = buf.as_slice()?;
        let d = b.dims;
        let coord = sh.decomp.coord_of(id.0 - ids[0].0);
        let o = sh.decomp.block_origin(coord);
        for z in 1..=d.z {
            for y in 1..=d.y {
                for x in 1..=d.x {
                    let gi = ((o.2 + z - 1) * g.y + (o.1 + y - 1)) * g.x + (o.0 + x - 1);
                    field[gi] = s[kernels::idx(d, x, y, z)];
                }
            }
        }
    }
    Some(field.iter().map(|v| v * v).sum())
}

/// Compare every block's final field against the sequential reference,
/// bit-for-bit. Returns the number of cells compared.
pub fn validate_against_reference(sim: &Simulation, ids: &[ChareId], sh: &Shared) -> usize {
    let mut reference = crate::reference::Reference::new(sh.cfg.global);
    reference.run(sh.cfg.total_iters());
    let mut compared = 0;
    for &id in ids {
        let b = sim.machine.chare_as::<BlockChare>(id);
        let pe = sim.machine.pe_of(id);
        let dev = sim.machine.pe_device(pe);
        let buf = sim.machine.devices[dev.0].mem.get(b.u[b.cur]);
        let s = buf.as_slice().expect("validation needs real buffers");
        let d = b.dims;
        let coord = sh.decomp.coord_of(id.0 - ids[0].0);
        let o = sh.decomp.block_origin(coord);
        for z in 1..=d.z {
            for y in 1..=d.y {
                for x in 1..=d.x {
                    let got = s[kernels::idx(d, x, y, z)];
                    let want = reference.value_at(o.0 + x - 1, o.1 + y - 1, o.2 + z - 1);
                    assert_eq!(
                        got, want,
                        "block {coord:?} cell ({x},{y},{z}): {got} != {want}"
                    );
                    compared += 1;
                }
            }
        }
    }
    compared
}
