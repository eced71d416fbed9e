//! The MPI version of Jacobi3D (paper Fig. 1): one rank per PE/GPU,
//! nonblocking halo exchange with `Waitall`, and blocking
//! stream-synchronize between GPU phases — the classic structure whose
//! lost overlap motivates the task-runtime approach.
//!
//! Variants: host staging (MPI-H) vs CUDA-aware (MPI-D), and the optional
//! *manual overlap* pattern from Fig. 1b (interior update overlapped with
//! the halo exchange) as an extension.

use std::sync::Arc;

use gaat_mpi::Mpi;
use gaat_rt::{
    BufRange, BufferId, Callback, Chare, ChareId, Ctx, EntryId, Envelope, KernelSpec, MemLoc, Op,
    Simulation, Space, StreamId,
};
use gaat_sim::SimTime;

use crate::app::{CommMode, JacobiConfig, RunResult};
use crate::geom::{Decomp, Dims, Face, FACES};
use crate::kernels;
use crate::reference::initial_value;

/// Begin execution.
pub const E_START: EntryId = EntryId(0);
/// Request-completion callbacks (routed to [`Mpi::on_request_done`]).
pub const E_REQ: EntryId = EntryId(1);
/// Pack kernels done (post stream-sync).
pub const E_PACKED: EntryId = EntryId(2);
/// D2H staging done (host-staging mode).
pub const E_STAGED: EntryId = EntryId(3);
/// Waitall finished.
pub const E_COMM_DONE: EntryId = EntryId(4);
/// Update done; iteration boundary.
pub const E_ITER_DONE: EntryId = EntryId(5);

/// Immutable run-wide parameters.
#[derive(Debug)]
pub struct MpiShared {
    /// The experiment.
    pub cfg: JacobiConfig,
    /// One block per rank.
    pub decomp: Decomp,
}

/// One MPI rank owning one block.
#[derive(Clone)]
pub struct JacobiRank {
    mpi: Mpi,
    sh: Arc<MpiShared>,
    dims: Dims,
    faces: Vec<Face>,
    /// Neighbour rank across each face.
    neighbors: [Option<usize>; 6],
    u: [BufferId; 2],
    cur: usize,
    halo_send_d: [Option<BufferId>; 6],
    halo_recv_d: [Option<BufferId>; 6],
    halo_send_h: [Option<BufferId>; 6],
    halo_recv_h: [Option<BufferId>; 6],
    stream: StreamId,
    iter: usize,
    /// Warm-up completion time.
    pub warm_at: Option<SimTime>,
    /// Final completion time.
    pub done_at: Option<SimTime>,
}

impl JacobiRank {
    fn face_cells(&self, f: Face) -> usize {
        f.area(self.dims)
    }

    fn interior_cells(&self) -> usize {
        self.dims.x.saturating_sub(2)
            * self.dims.y.saturating_sub(2)
            * self.dims.z.saturating_sub(2)
    }

    /// Blocking wait on the GPU stream — except under AMPI-style
    /// virtualization, where the user-level thread yields (asynchronous
    /// detection) so co-located ranks keep the PE busy.
    fn gpu_wait(&self, ctx: &mut Ctx<'_>, resume: EntryId) {
        let me = ctx.me();
        if self.sh.cfg.virtual_ranks > 1 {
            ctx.hapi(self.stream, Callback::to(me, resume));
        } else {
            ctx.stream_sync(self.stream, Callback::to(me, resume));
        }
    }

    /// Phase 1: pack all faces, then synchronize.
    fn step_pack(&mut self, ctx: &mut Ctx<'_>) {
        for &f in &self.faces.clone() {
            let t = &ctx.machine.cfg.gpu;
            let work = kernels::copy_work(t, self.face_cells(f));
            let (u, halo, d) = (
                self.u[self.cur],
                self.halo_send_d[f.index()].expect("active"),
                self.dims,
            );
            let spec =
                KernelSpec::with_func("pack", work, move |m| kernels::pack(m, u, halo, d, f));
            ctx.launch(self.stream, Op::kernel(spec));
        }
        self.gpu_wait(ctx, E_PACKED);
    }

    /// Phase 2 (host staging only): D2H all faces, then synchronize.
    fn step_stage_out(&mut self, ctx: &mut Ctx<'_>) {
        for &f in &self.faces.clone() {
            let i = f.index();
            let cells = self.face_cells(f);
            ctx.launch(
                self.stream,
                Op::d2h(
                    BufRange::whole(self.halo_send_d[i].expect("active"), cells),
                    BufRange::whole(self.halo_send_h[i].expect("active"), cells),
                ),
            );
        }
        self.gpu_wait(ctx, E_STAGED);
    }

    /// Phase 3: post all sends and receives, optionally overlap the
    /// interior update, then wait for everything.
    fn step_comm(&mut self, ctx: &mut Ctx<'_>) {
        let dev = ctx.device();
        let host = self.sh.cfg.comm == CommMode::HostStaging;
        for &f in &self.faces.clone() {
            let i = f.index();
            let cells = self.face_cells(f);
            let nb = self.neighbors[i].expect("active face");
            let (sbuf, rbuf) = if host {
                (
                    self.halo_send_h[i].expect("active"),
                    self.halo_recv_h[i].expect("active"),
                )
            } else {
                (
                    self.halo_send_d[i].expect("active"),
                    self.halo_recv_d[i].expect("active"),
                )
            };
            let sloc = MemLoc {
                device: dev,
                range: BufRange::whole(sbuf, cells),
            };
            let rloc = MemLoc {
                device: dev,
                range: BufRange::whole(rbuf, cells),
            };
            // Tag = the *sender's* face index, so my receive across face f
            // matches the neighbour's send from f.opposite().
            self.mpi.irecv(ctx, nb, f.opposite().index() as u64, rloc);
            self.mpi.isend(ctx, nb, f.index() as u64, sloc);
        }
        if self.sh.cfg.overlap {
            // Manual overlap (Fig. 1b): the interior does not depend on
            // halo data.
            let t = &ctx.machine.cfg.gpu;
            let work = kernels::update_work(t, self.interior_cells());
            ctx.launch(
                self.stream,
                Op::kernel(KernelSpec::phantom("update_interior", work)),
            );
        }
        self.mpi.wait_all(ctx, E_COMM_DONE, self.iter as u64);
    }

    /// Phase 4: stage in (host mode), unpack, update the block (exterior
    /// only under manual overlap), then synchronize into the iteration
    /// boundary.
    fn step_update(&mut self, ctx: &mut Ctx<'_>) {
        let host = self.sh.cfg.comm == CommMode::HostStaging;
        for &f in &self.faces.clone() {
            let i = f.index();
            let cells = self.face_cells(f);
            if host {
                ctx.launch(
                    self.stream,
                    Op::h2d(
                        BufRange::whole(self.halo_recv_h[i].expect("active"), cells),
                        BufRange::whole(self.halo_recv_d[i].expect("active"), cells),
                    ),
                );
            }
            let t = &ctx.machine.cfg.gpu;
            let work = kernels::copy_work(t, cells);
            let (u, halo, d) = (
                self.u[self.cur],
                self.halo_recv_d[i].expect("active"),
                self.dims,
            );
            let spec =
                KernelSpec::with_func("unpack", work, move |m| kernels::unpack(m, u, halo, d, f));
            ctx.launch(self.stream, Op::kernel(spec));
        }
        // The update kernel; under manual overlap only the exterior
        // remains (the functional effect is always the full sweep — the
        // interior phantom kernel carried no effect).
        let t = &ctx.machine.cfg.gpu;
        let cells = if self.sh.cfg.overlap {
            self.dims.count() - self.interior_cells()
        } else {
            self.dims.count()
        };
        let work = kernels::update_work(t, cells);
        let (uin, uout, d) = (self.u[self.cur], self.u[1 - self.cur], self.dims);
        let name = if self.sh.cfg.overlap {
            "update_exterior"
        } else {
            "update"
        };
        let spec = KernelSpec::with_func(name, work, move |m| kernels::update(m, uin, uout, d));
        ctx.launch(self.stream, Op::kernel(spec));
        self.gpu_wait(ctx, E_ITER_DONE);
    }
}

impl Chare for JacobiRank {
    fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        match env.entry {
            E_START => self.step_pack(ctx),
            E_REQ => self.mpi.on_request_done(ctx, env),
            E_PACKED => {
                if self.sh.cfg.comm == CommMode::HostStaging {
                    self.step_stage_out(ctx);
                } else {
                    self.step_comm(ctx);
                }
            }
            E_STAGED => self.step_comm(ctx),
            E_COMM_DONE => self.step_update(ctx),
            E_ITER_DONE => {
                self.cur = 1 - self.cur;
                self.iter += 1;
                if self.iter == self.sh.cfg.warmup {
                    self.warm_at = Some(ctx.start_time());
                }
                if self.iter >= self.sh.cfg.total_iters() {
                    self.done_at = Some(ctx.start_time());
                } else {
                    self.step_pack(ctx);
                }
            }
            other => panic!("unknown entry {other:?}"),
        }
    }
}

/// Build the MPI Jacobi3D simulation: one rank per PE.
pub fn build(cfg: JacobiConfig) -> (Simulation, Vec<ChareId>, Arc<MpiShared>) {
    let sim = Simulation::new(cfg.machine.clone());
    build_in(sim, cfg)
}

/// [`build`] into a caller-provided engine (a recycled
/// [`gaat_rt::WorldSlot`] world), so batched sweeps can reuse engines
/// across MPI-variant runs exactly as they do for the task runtime.
pub fn build_in(
    mut sim: Simulation,
    cfg: JacobiConfig,
) -> (Simulation, Vec<ChareId>, Arc<MpiShared>) {
    cfg.validate();
    assert_eq!(
        cfg.odf, 1,
        "the MPI versions always run one rank per PE (use the task runtime for ODF > 1, \
         or virtual_ranks for AMPI-style virtualization)"
    );
    let pes = cfg.machine.total_pes();
    let nranks = pes * cfg.virtual_ranks;
    let decomp = Decomp::new(cfg.global, nranks);
    let real = cfg.machine.real_buffers;
    let sh = Arc::new(MpiShared {
        cfg: cfg.clone(),
        decomp,
    });

    // Pre-allocate per-rank GPU resources (the factory below cannot touch
    // the machine while `create_ranks` holds it).
    struct Pre {
        dims: Dims,
        faces: Vec<Face>,
        neighbors: [Option<usize>; 6],
        u: [BufferId; 2],
        hs_d: [Option<BufferId>; 6],
        hr_d: [Option<BufferId>; 6],
        hs_h: [Option<BufferId>; 6],
        hr_h: [Option<BufferId>; 6],
        stream: StreamId,
    }
    let mut pre: Vec<Option<Pre>> = Vec::with_capacity(nranks);
    for rank in 0..nranks {
        let coord = sh.decomp.coord_of(rank);
        let dims = sh.decomp.block_dims(coord);
        let origin = sh.decomp.block_origin(coord);
        let faces = sh.decomp.active_faces(coord);
        let device = &mut sim.machine.devices[rank / cfg.virtual_ranks];
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
        let mut hs_d = [None; 6];
        let mut hr_d = [None; 6];
        let mut hs_h = [None; 6];
        let mut hr_h = [None; 6];
        let mut neighbors = [None; 6];
        for &f in &faces {
            let cells = f.area(dims);
            let i = f.index();
            hs_d[i] = Some(device.mem.alloc(Space::Device, cells, real));
            hr_d[i] = Some(device.mem.alloc(Space::Device, cells, real));
            if cfg.comm == CommMode::HostStaging {
                hs_h[i] = Some(device.mem.alloc(Space::Host, cells, real));
                hr_h[i] = Some(device.mem.alloc(Space::Host, cells, real));
            }
            neighbors[i] = Some(
                sh.decomp
                    .index_of(sh.decomp.neighbor(coord, f).expect("active")),
            );
        }
        let stream = device.create_stream(1);
        pre.push(Some(Pre {
            dims,
            faces,
            neighbors,
            u: [u0, u1],
            hs_d,
            hr_d,
            hs_h,
            hr_h,
            stream,
        }));
    }

    for d in &sim.machine.devices {
        d.assert_memory_fits();
    }

    let sh2 = sh.clone();
    let ids = gaat_mpi::create_ranks(
        &mut sim,
        nranks,
        cfg.virtual_ranks,
        E_REQ,
        move |rank, mpi| {
            let p = pre[rank].take().expect("one factory call per rank");
            JacobiRank {
                mpi,
                sh: sh2.clone(),
                dims: p.dims,
                faces: p.faces,
                neighbors: p.neighbors,
                u: p.u,
                cur: 0,
                halo_send_d: p.hs_d,
                halo_recv_d: p.hr_d,
                halo_send_h: p.hs_h,
                halo_recv_h: p.hr_h,
                stream: p.stream,
                iter: 0,
                warm_at: if sh2.cfg.warmup == 0 {
                    Some(SimTime::ZERO)
                } else {
                    None
                },
                done_at: None,
            }
        },
    );
    (sim, ids, sh)
}

/// Run a built MPI simulation and collect the result.
pub fn run(sim: &mut Simulation, ids: &[ChareId], sh: &MpiShared) -> RunResult {
    gaat_mpi::start_all(sim, ids, E_START);
    let outcome = sim.run();
    assert_eq!(outcome, gaat_rt::RunOutcome::Drained, "should quiesce");
    let mut warm = SimTime::ZERO;
    let mut done = SimTime::ZERO;
    for &id in ids {
        let r = sim.machine.chare_as::<JacobiRank>(id);
        warm = warm.max(r.warm_at.expect("rank warmed up"));
        done = done.max(r.done_at.expect("rank finished"));
    }
    let checksum = checksum(sim, ids, sh);
    let kernels: u64 = sim.machine.devices.iter().map(|d| d.stats().kernels).sum();
    let pes = sim.machine.pes.len();
    let cpu_utilization = (0..pes)
        .map(|p| sim.machine.pe_utilization(p, done))
        .sum::<f64>()
        / pes as f64;
    RunResult {
        time_per_iter: done.since(warm) / sh.cfg.iters as u64,
        total: done.since(SimTime::ZERO),
        warm_at: warm,
        checksum,
        entries: sim.machine.stats().entries,
        kernels,
        graph_launches: 0,
        cpu_utilization,
        reduced_norm: None,
    }
}

/// Sum of squares of the final field (`None` in phantom mode),
/// reconstructed in global order so it is bit-comparable across variants
/// and decompositions.
pub fn checksum(sim: &Simulation, ids: &[ChareId], sh: &MpiShared) -> Option<f64> {
    if !sh.cfg.machine.real_buffers {
        return None;
    }
    let mut field = vec![0.0f64; sh.cfg.global.count()];
    let g = sh.cfg.global;
    for (rank, &id) in ids.iter().enumerate() {
        let r = sim.machine.chare_as::<JacobiRank>(id);
        let pe = sim.machine.pe_of(id);
        let buf = sim.machine.devices[pe].mem.get(r.u[r.cur]);
        let s = buf.as_slice()?;
        let d = r.dims;
        let o = sh.decomp.block_origin(sh.decomp.coord_of(rank));
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

/// Bit-exact comparison of every rank's final block against the
/// sequential reference.
pub fn validate_against_reference(sim: &Simulation, ids: &[ChareId], sh: &MpiShared) -> usize {
    let mut reference = crate::reference::Reference::new(sh.cfg.global);
    reference.run(sh.cfg.total_iters());
    let mut compared = 0;
    for (rank, &id) in ids.iter().enumerate() {
        let r = sim.machine.chare_as::<JacobiRank>(id);
        let pe = sim.machine.pe_of(id);
        let buf = sim.machine.devices[pe].mem.get(r.u[r.cur]);
        let s = buf.as_slice().expect("validation needs real buffers");
        let d = r.dims;
        let o = sh.decomp.block_origin(sh.decomp.coord_of(rank));
        for z in 1..=d.z {
            for y in 1..=d.y {
                for x in 1..=d.x {
                    let got = s[kernels::idx(d, x, y, z)];
                    let want = reference.value_at(o.0 + x - 1, o.1 + y - 1, o.2 + z - 1);
                    assert_eq!(got, want, "rank {rank} cell ({x},{y},{z})");
                    compared += 1;
                }
            }
        }
    }
    compared
}

const _: () = {
    // FACES must stay in sync with the 6-slot arrays used above.
    assert!(FACES.len() == 6);
};
