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
    App, BufRange, Callback, Chare, ChareId, Ctx, EntryId, Envelope, KernelSpec, MemLoc, Op,
    Outcome, RunClock, Simulation, StreamId, Timing,
};

use crate::app::{CommMode, ConfigError, JacobiConfig, RunResult};
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

/// Immutable run-wide parameters; the [`App`] of the MPI versions.
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
    /// Iterations run and when the warm-up and the last one finished.
    clock: RunClock,
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
        self.mpi
            .wait_all(ctx, E_COMM_DONE, self.clock.round() as u64);
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
                if self.clock.tick(ctx) {
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
}

impl App for MpiShared {
    type Config = JacobiConfig;
    type Error = ConfigError;
    type Chare = JacobiRank;
    type Result = RunResult;

    /// [`JacobiConfig::validate`], then the MPI versions' own rules: one
    /// rank per PE (`odf` 1), and no PE failures or load balancer, since
    /// blocks move only through the task runtime's recovery.
    fn validate(cfg: &JacobiConfig) -> Result<(), ConfigError> {
        cfg.validate()?;
        if cfg.odf != 1 {
            return Err(ConfigError::MpiOdf);
        }
        if cfg.machine.migrates() {
            return Err(ConfigError::MpiMigration);
        }
        Ok(())
    }

    /// One rank per PE, or `virtual_ranks` per PE.
    fn build(cfg: JacobiConfig) -> (Simulation, Vec<ChareId>, Arc<MpiShared>) {
        Self::validate(&cfg).unwrap_or_else(|e| panic!("{e}"));
        let mut sim = Simulation::new(cfg.machine.clone());
        let nranks = cfg.machine.total_pes() * cfg.virtual_ranks;
        let sh = Arc::new(MpiShared {
            cfg: cfg.clone(),
            decomp: Decomp::new(cfg.global, nranks),
        });

        // A device's footprint depends on how this runtime places ranks
        // on it, so `create_chares` checks memory rather than `validate`.
        let first = ChareId(sim.machine.chare_count());
        let ids = sim.machine.create_chares(
            nranks,
            |r| r / cfg.virtual_ranks,
            |r, device| JacobiRank {
                mpi: Mpi::new(r, nranks, first, E_REQ),
                sh: sh.clone(),
                block: Block::new(&cfg, &sh.decomp, r, &mut device.mem),
                stream: device.create_stream(1),
                clock: RunClock::new(cfg.iters, cfg.warmup),
            },
        );
        (sim, ids, sh)
    }

    /// Every rank's start entry, injected rank by rank.
    fn start(&self, sim: &mut Simulation, ids: &[ChareId]) {
        let Simulation { sim, machine } = sim;
        for &r in ids {
            machine.inject(sim, r, Envelope::empty(E_START));
        }
    }

    fn clock(r: &JacobiRank) -> &RunClock {
        &r.clock
    }

    fn collect(&self, sim: &Simulation, ids: &[ChareId], t: Timing) -> RunResult {
        block::collect::<JacobiRank>(sim, ids, &self.cfg, t, None)
    }

    fn check(&self, sim: &Simulation, ids: &[ChareId]) -> usize {
        block::validate::<JacobiRank>(sim, ids, &self.cfg)
    }

    /// Also the Charm versions' outcome of a complete run.
    fn outcome(r: &RunResult) -> Outcome {
        Outcome {
            unit: r.time_per_iter,
            total: r.total,
            checksum: r.checksum,
            ..Outcome::default()
        }
    }
}
