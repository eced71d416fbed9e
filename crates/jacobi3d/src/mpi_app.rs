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
    BufRange, Callback, Chare, ChareId, Ctx, EntryId, Envelope, KernelSpec, MemLoc, Op, Simulation,
    StreamId,
};
use gaat_sim::SimTime;

use crate::app::{CommMode, JacobiConfig, RunResult};
use crate::block::{self, Block, Owner};
use crate::geom::Decomp;
use crate::kernels;

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
    /// The block; its neighbours are rank indices.
    block: Block,
    stream: StreamId,
    iter: usize,
    /// Warm-up completion time.
    pub warm_at: Option<SimTime>,
    /// Final completion time.
    pub done_at: Option<SimTime>,
}

impl JacobiRank {
    fn interior_cells(&self) -> usize {
        let d = self.block.dims;
        d.x.saturating_sub(2) * d.y.saturating_sub(2) * d.z.saturating_sub(2)
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
        let b = &self.block;
        for &f in &b.faces {
            let spec = b.pack_spec(&ctx.machine.cfg.gpu, b.cur, f);
            ctx.launch(self.stream, Op::kernel(spec));
        }
        self.gpu_wait(ctx, E_PACKED);
    }

    /// Phase 2 (host staging only): D2H all faces, then synchronize.
    fn step_stage_out(&mut self, ctx: &mut Ctx<'_>) {
        let b = &self.block;
        for &f in &b.faces {
            let cells = b.face_cells(f);
            let op = Op::d2h(
                BufRange::whole(b.send_d(f), cells),
                BufRange::whole(b.send_h(f), cells),
            );
            ctx.launch(self.stream, op);
        }
        self.gpu_wait(ctx, E_STAGED);
    }

    /// Phase 3: post all sends and receives, optionally overlap the
    /// interior update, then wait for everything.
    fn step_comm(&mut self, ctx: &mut Ctx<'_>) {
        let device = ctx.device();
        let host = self.sh.cfg.comm == CommMode::HostStaging;
        let b = &self.block;
        for &f in &b.faces {
            let nb = b.neighbors[f.index()].expect("active face");
            let (sbuf, rbuf) = if host {
                (b.send_h(f), b.recv_h(f))
            } else {
                (b.send_d(f), b.recv_d(f))
            };
            let loc = |buf| MemLoc {
                device,
                range: BufRange::whole(buf, b.face_cells(f)),
            };
            // Tag = the *sender's* face index, so my receive across face f
            // matches the neighbour's send from f.opposite().
            self.mpi
                .irecv(ctx, nb, f.opposite().index() as u64, loc(rbuf));
            self.mpi.isend(ctx, nb, f.index() as u64, loc(sbuf));
        }
        if self.sh.cfg.overlap {
            // Manual overlap (Fig. 1b): the interior does not depend on
            // halo data.
            let work = kernels::update_work(&ctx.machine.cfg.gpu, self.interior_cells());
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
        let b = &self.block;
        for &f in &b.faces {
            let cells = b.face_cells(f);
            if host {
                let op = Op::h2d(
                    BufRange::whole(b.recv_h(f), cells),
                    BufRange::whole(b.recv_d(f), cells),
                );
                ctx.launch(self.stream, op);
            }
            let spec = b.unpack_spec(&ctx.machine.cfg.gpu, b.cur, f);
            ctx.launch(self.stream, Op::kernel(spec));
        }
        // The update kernel; under manual overlap only the exterior
        // remains (the functional effect is always the full sweep — the
        // interior phantom kernel carried no effect).
        let t = &ctx.machine.cfg.gpu;
        let spec = if self.sh.cfg.overlap {
            let exterior = b.dims.count() - self.interior_cells();
            b.update_spec_over(t, b.cur, "update_exterior", exterior)
        } else {
            b.update_spec(t, b.cur)
        };
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
                self.block.cur = 1 - self.block.cur;
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

impl Owner for JacobiRank {
    fn block(&self) -> &Block {
        &self.block
    }

    fn finished(&self) -> (Option<SimTime>, Option<SimTime>) {
        (self.warm_at, self.done_at)
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
/// Panics with the [`ConfigError`](crate::ConfigError) text if `cfg`
/// fails [`JacobiConfig::validate`].
pub fn build_in(
    mut sim: Simulation,
    cfg: JacobiConfig,
) -> (Simulation, Vec<ChareId>, Arc<MpiShared>) {
    cfg.validate().unwrap_or_else(|e| panic!("{e}"));
    // Stays at build: `JacobiConfig` does not say which runtime runs
    // it, and the task runtime accepts any ODF.
    assert_eq!(
        cfg.odf, 1,
        "the MPI versions always run one rank per PE (use the task runtime for ODF > 1, \
         or virtual_ranks for AMPI-style virtualization)"
    );
    let nranks = cfg.machine.total_pes() * cfg.virtual_ranks;
    let sh = Arc::new(MpiShared {
        cfg: cfg.clone(),
        decomp: Decomp::new(cfg.global, nranks),
    });

    // Pre-allocate per-rank GPU resources (the factory below cannot touch
    // the machine while `create_ranks` holds it).
    let mut pre: Vec<Option<(Block, StreamId)>> = (0..nranks)
        .map(|rank| {
            let device = &mut sim.machine.devices[rank / cfg.virtual_ranks];
            let block = Block::new(&cfg, &sh.decomp, rank, &mut device.mem);
            Some((block, device.create_stream(1)))
        })
        .collect();

    // Checked here rather than in `JacobiConfig::validate`: a device's
    // footprint depends on how this runtime places ranks on it.
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
            let (block, stream) = pre[rank].take().expect("one factory call per rank");
            JacobiRank {
                mpi,
                sh: sh2.clone(),
                block,
                stream,
                iter: 0,
                warm_at: (sh2.cfg.warmup == 0).then_some(SimTime::ZERO),
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
    block::collect::<JacobiRank>(sim, ids, &sh.cfg, None)
}

/// Sum of squares of the final field (`None` in phantom mode),
/// reconstructed in global order so it is bit-comparable across variants
/// and decompositions.
pub fn checksum(sim: &Simulation, ids: &[ChareId], sh: &MpiShared) -> Option<f64> {
    block::checksum::<JacobiRank>(sim, ids, &sh.cfg)
}

/// Bit-exact comparison of every rank's final block against the
/// sequential reference.
pub fn validate_against_reference(sim: &Simulation, ids: &[ChareId], sh: &MpiShared) -> usize {
    block::validate::<JacobiRank>(sim, ids, &sh.cfg)
}
