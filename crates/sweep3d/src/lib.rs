//! # gaat-sweep3d — wavefront sweep proxy application
//!
//! A KBA-style sweep: each block depends on its −x/−y/−z neighbours'
//! boundary planes, computes a Gauss–Seidel-order update, and feeds its
//! +x/+y/+z neighbours. Dependencies form a diagonal wavefront that
//! crosses the block grid.
//!
//! Where Jacobi3D showcases overdecomposition as an *overlap* engine,
//! the sweep showcases it as a *latency* engine: a single wavefront
//! crosses the machine in `O(diagonal × block time)`; finer blocks
//! (higher ODF) shorten each stage and overlap communication with the
//! next stage's compute, cutting the time a sweep takes to cross the
//! grid. In steady state with many back-to-back sweeps, every block is
//! busy regardless of ODF and per-chare overheads dominate instead —
//! the same granularity trade-off the paper quantifies for Jacobi3D.
//! Both regimes are asserted in this crate's tests, on the same runtime,
//! GPU model, and GPU-aware Channel API.
//!
//! [`SweepShared`] is the app's [`App`]: it validates, builds, starts,
//! finishes and checks a [`SweepConfig`]. Functional mode computes the
//! exact sequential sweep result (dependencies are honoured, so
//! parallel order cannot change the values), and `check` compares it
//! against [`reference_sweep`] bit-for-bit.

#![warn(missing_docs)]

use std::sync::Arc;

use gaat_jacobi3d::geom::{chare_to_pe, Decomp, Dims, Face};
use gaat_jacobi3d::kernels::{ghosted_len, idx};
use gaat_rt::{
    create_channel, App, BufRange, BufferId, Callback, ChannelEnd, Chare, ChareId, Ctx, EntryId,
    Envelope, KernelSpec, MachineConfig, MemLoc, Op, Outcome, RunClock, Simulation, Space,
    StreamId, Timing,
};

/// Begin execution.
pub const E_START: EntryId = EntryId(0);
/// An upstream halo arrived via channel (refnum = face index).
pub const E_ARRIVED: EntryId = EntryId(1);
/// Sweep kernel + downstream packs completed (HAPI).
pub const E_SWEPT: EntryId = EntryId(2);
/// A downstream send completed (buffer reusable).
pub const E_SENT: EntryId = EntryId(3);

/// The three upstream faces of the (+,+,+) sweep direction.
const UPSTREAM: [Face; 3] = [Face::Xm, Face::Ym, Face::Zm];
/// The three downstream faces.
const DOWNSTREAM: [Face; 3] = [Face::Xp, Face::Yp, Face::Zp];

/// Experiment description.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// The machine.
    pub machine: MachineConfig,
    /// Global grid.
    pub global: Dims,
    /// Chares per PE.
    pub odf: usize,
    /// Number of full sweeps (timed).
    pub sweeps: usize,
    /// Warm-up sweeps excluded from timing.
    pub warmup: usize,
}

impl SweepConfig {
    /// Defaults: one sweep per measurement, ODF 1.
    pub fn new(machine: MachineConfig, global: Dims) -> Self {
        SweepConfig {
            machine,
            global,
            odf: 1,
            sweeps: 8,
            warmup: 2,
        }
    }
}

/// A sweep configuration that cannot be built, one variant per rule; see
/// [`SweepShared`]'s [`App::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The machine itself is rejected.
    Machine(gaat_rt::ConfigError),
    /// `odf` is 0.
    ZeroOdf,
    /// `sweeps` is 0.
    ZeroSweeps,
    /// PE failures or the load balancer armed: blocks cannot move.
    Migration,
}

impl From<gaat_rt::ConfigError> for ConfigError {
    fn from(e: gaat_rt::ConfigError) -> Self {
        ConfigError::Machine(e)
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Machine(e) => e.fmt(f),
            ConfigError::ZeroOdf => f.write_str("ODF must be at least 1"),
            ConfigError::ZeroSweeps => f.write_str("need at least one timed sweep"),
            ConfigError::Migration => f.write_str(
                "Sweep3D cannot move blocks: PE failures and the adaptive LB need checkpoints, \
                 which its blocks do not take",
            ),
        }
    }
}

// `Display` already prints a wrapped machine error's text, so there is
// no `source` to chain.
impl std::error::Error for ConfigError {}

/// Shared run parameters; the sweep's [`App`].
#[derive(Debug)]
pub struct SweepShared {
    /// The experiment.
    pub cfg: SweepConfig,
    /// Block decomposition.
    pub decomp: Decomp,
}

/// One block of the sweep.
#[derive(Clone)]
pub struct SweepChare {
    dims: Dims,
    /// Upstream faces that have neighbours (dependencies).
    up: Vec<Face>,
    /// Downstream faces that have neighbours (successors).
    down: Vec<Face>,
    channels: [Option<ChannelEnd>; 6],
    u: BufferId,
    halo_recv: [Option<BufferId>; 6],
    halo_send: [Option<BufferId>; 6],
    comm: StreamId,
    /// Sweeps run and when the warm-up and the last sweep finished.
    clock: RunClock,
    arrived: usize,
    sends_done: usize,
}

impl SweepChare {
    /// Post upstream receives for the current sweep, then check readiness
    /// (corner blocks have no dependencies at all).
    fn begin_sweep(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.me();
        for &f in &self.up.clone() {
            let i = f.index();
            let cells = f.area(self.dims);
            let loc = MemLoc {
                device: ctx.device(),
                range: BufRange::whole(self.halo_recv[i].expect("active"), cells),
            };
            let mut ch = self.channels[i].take().expect("channel wired");
            ch.recv(ctx, loc, Callback::to_ref(me, E_ARRIVED, i as u64));
            self.channels[i] = Some(ch);
        }
        self.check_ready(ctx);
    }

    fn check_ready(&mut self, ctx: &mut Ctx<'_>) {
        // Ready when all upstream halos arrived and our downstream send
        // buffers from the previous sweep are free again.
        if self.arrived == self.up.len() && self.sends_done == self.down.len() {
            self.compute_and_feed(ctx);
        }
    }

    /// Unpack upstream ghosts, run the sweep kernel, pack downstream.
    fn compute_and_feed(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.me();
        let t = ctx.machine.cfg.gpu.clone();
        let dims = self.dims;
        let u = self.u;
        for &f in &self.up.clone() {
            let h = self.halo_recv[f.index()].expect("active");
            let work = gaat_jacobi3d::kernels::copy_work(&t, f.area(dims));
            let spec = KernelSpec::with_func("unpack", work, move |m| {
                gaat_jacobi3d::kernels::unpack(m, u, h, dims, f);
            });
            ctx.launch(self.comm, Op::kernel(spec));
        }
        // All operations of one sweep step run on the single comm stream,
        // whose FIFO order encodes the unpack → sweep → pack dependency.
        let work = t.membound_work(dims.count() as u64 * 16);
        let spec = KernelSpec::with_func("sweep", work, move |m| sweep_block(m, u, dims));
        ctx.launch(self.comm, Op::kernel(spec));
        for &f in &self.down.clone() {
            let h = self.halo_send[f.index()].expect("active");
            let work = gaat_jacobi3d::kernels::copy_work(&t, f.area(dims));
            let spec = KernelSpec::with_func("pack", work, move |m| {
                gaat_jacobi3d::kernels::pack(m, u, h, dims, f);
            });
            ctx.launch(self.comm, Op::kernel(spec));
        }
        ctx.hapi(self.comm, Callback::to(me, E_SWEPT));
    }

    /// Kernel work done: ship downstream halos and move to the next sweep.
    fn on_swept(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.me();
        self.sends_done = 0;
        for &f in &self.down.clone() {
            let i = f.index();
            let cells = f.area(self.dims);
            let loc = MemLoc {
                device: ctx.device(),
                range: BufRange::whole(self.halo_send[i].expect("active"), cells),
            };
            let mut ch = self.channels[i].take().expect("channel wired");
            ch.send(ctx, loc, Callback::to_ref(me, E_SENT, i as u64));
            self.channels[i] = Some(ch);
        }
        self.arrived = 0;
        if self.clock.tick(ctx) {
            self.begin_sweep(ctx);
        }
    }
}

impl Chare for SweepChare {
    fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        match env.entry {
            E_START => {
                // Sends from "last sweep" are vacuously complete.
                self.sends_done = self.down.len();
                self.begin_sweep(ctx);
            }
            E_ARRIVED => {
                self.arrived += 1;
                self.check_ready(ctx);
            }
            E_SENT => {
                self.sends_done += 1;
                self.check_ready(ctx);
            }
            E_SWEPT => self.on_swept(ctx),
            other => panic!("unknown entry {other:?}"),
        }
    }
}

/// Functional block sweep: Gauss–Seidel order update reading the three
/// already-updated (or ghost) upstream neighbours.
pub fn sweep_block(m: &mut gaat_gpu::MemoryPool, u: BufferId, d: Dims) {
    let Some(s) = m.get_mut(u).as_mut_slice() else {
        return;
    };
    let sx = 1usize;
    let sy = d.x + 2;
    let sz = (d.x + 2) * (d.y + 2);
    for z in 1..=d.z {
        for y in 1..=d.y {
            for x in 1..=d.x {
                let i = idx(d, x, y, z);
                s[i] = (s[i - sx] + s[i - sy] + s[i - sz]) / 3.0 + 0.25;
            }
        }
    }
}

/// Sequential reference: `sweeps` full sweeps over the global grid with
/// zero inflow ghosts. Returns the final field (ghosted layout).
pub fn reference_sweep(global: Dims, sweeps: usize) -> Vec<f64> {
    let mut m = gaat_gpu::MemoryPool::new();
    let u = m.alloc_real(Space::Device, ghosted_len(global));
    for _ in 0..sweeps {
        sweep_block(&mut m, u, global);
    }
    m.read(BufRange::whole(u, ghosted_len(global)))
        .expect("real buffer")
}

impl App for SweepShared {
    type Config = SweepConfig;
    type Error = ConfigError;
    type Chare = SweepChare;
    /// A sweep's result is its timing.
    type Result = Timing;

    /// Check every rule that depends only on this configuration: the
    /// machine's ([`gaat_rt::MachineConfig::validate`]), then ODF and
    /// timed sweeps of at least 1, and no PE failure or load balancer
    /// ([`gaat_rt::MachineConfig::migrates`]), since a block takes no
    /// checkpoint to move by.
    fn validate(cfg: &SweepConfig) -> Result<(), ConfigError> {
        cfg.machine.validate()?;
        if cfg.odf == 0 {
            return Err(ConfigError::ZeroOdf);
        }
        if cfg.sweeps == 0 {
            return Err(ConfigError::ZeroSweeps);
        }
        if cfg.machine.migrates() {
            return Err(ConfigError::Migration);
        }
        Ok(())
    }

    fn build(cfg: SweepConfig) -> (Simulation, Vec<ChareId>, Arc<SweepShared>) {
        Self::validate(&cfg).unwrap_or_else(|e| panic!("{e}"));
        let mut sim = Simulation::new(cfg.machine.clone());
        let pes = cfg.machine.total_pes();
        let nblocks = pes * cfg.odf;
        let decomp = Decomp::new(cfg.global, nblocks);
        let real = cfg.machine.real_buffers;
        let sh = Arc::new(SweepShared {
            cfg: cfg.clone(),
            decomp,
        });
        let ids = sim.machine.create_chares(
            nblocks,
            |bi| chare_to_pe(bi, nblocks, pes),
            |bi, device| {
                let coord = sh.decomp.coord_of(bi);
                let dims = sh.decomp.block_dims(coord);
                let u = device.mem.alloc(Space::Device, ghosted_len(dims), real);
                let mut halo_recv = [None; 6];
                let mut halo_send = [None; 6];
                let mut up = Vec::new();
                let mut down = Vec::new();
                for &f in &UPSTREAM {
                    if sh.decomp.neighbor(coord, f).is_some() {
                        halo_recv[f.index()] =
                            Some(device.mem.alloc(Space::Device, f.area(dims), real));
                        up.push(f);
                    }
                }
                for &f in &DOWNSTREAM {
                    if sh.decomp.neighbor(coord, f).is_some() {
                        halo_send[f.index()] =
                            Some(device.mem.alloc(Space::Device, f.area(dims), real));
                        down.push(f);
                    }
                }
                SweepChare {
                    dims,
                    up,
                    down,
                    channels: Default::default(),
                    u,
                    halo_recv,
                    halo_send,
                    comm: device.create_stream(2),
                    clock: RunClock::new(cfg.sweeps, cfg.warmup),
                    arrived: 0,
                    sends_done: 0,
                }
            },
        );

        // Wire downstream channels (one per +axis neighbour pair).
        for bi in 0..nblocks {
            let coord = sh.decomp.coord_of(bi);
            for &f in &DOWNSTREAM {
                if let Some(n) = sh.decomp.neighbor(coord, f) {
                    let ni = sh.decomp.index_of(n);
                    let (ea, eb) = create_channel(&mut sim.machine, ids[bi], ids[ni]);
                    sim.machine.chare_mut::<SweepChare>(ids[bi]).channels[f.index()] = Some(ea);
                    sim.machine.chare_mut::<SweepChare>(ids[ni]).channels[f.opposite().index()] =
                        Some(eb);
                }
            }
        }
        (sim, ids, sh)
    }

    fn clock(b: &SweepChare) -> &RunClock {
        &b.clock
    }

    fn collect(&self, _: &Simulation, _: &[ChareId], t: Timing) -> Timing {
        t
    }

    /// Compares every block's final field against [`reference_sweep`].
    fn check(&self, sim: &Simulation, ids: &[ChareId]) -> usize {
        let reference = reference_sweep(self.cfg.global, self.cfg.sweeps + self.cfg.warmup);
        let g = self.cfg.global;
        let mut compared = 0;
        for &id in ids {
            let b = sim.machine.chare_as::<SweepChare>(id);
            let dev = sim.machine.pe_device(sim.machine.pe_of(id));
            let buf = sim.machine.devices[dev.0].mem.get(b.u);
            let s = buf.as_slice().expect("validation needs real buffers");
            let coord = self.decomp.coord_of(id.0 - ids[0].0);
            let o = self.decomp.block_origin(coord);
            let d = b.dims;
            for z in 1..=d.z {
                for y in 1..=d.y {
                    for x in 1..=d.x {
                        let got = s[idx(d, x, y, z)];
                        let want = reference[idx(g, o.0 + x, o.1 + y, o.2 + z)];
                        assert_eq!(got, want, "block {coord:?} cell ({x},{y},{z})");
                        compared += 1;
                    }
                }
            }
        }
        compared
    }

    fn outcome(r: &Timing) -> Outcome {
        Outcome {
            unit: r.unit,
            total: r.total,
            ..Outcome::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_sweep_fills_from_the_corner() {
        let r = reference_sweep(Dims::cube(3), 1);
        let d = Dims::cube(3);
        // corner cell: all upstream are zero ghosts → 0.25
        assert_eq!(r[idx(d, 1, 1, 1)], 0.25);
        // next along x: (0.25 + 0 + 0)/3 + 0.25
        assert_eq!(r[idx(d, 2, 1, 1)], 0.25 / 3.0 + 0.25);
    }

    #[test]
    fn parallel_sweep_matches_reference() {
        for odf in [1usize, 2, 4] {
            let mut cfg = SweepConfig::new(MachineConfig::validation(2, 2), Dims::cube(12));
            cfg.odf = odf;
            cfg.sweeps = 3;
            cfg.warmup = 1;
            let (mut sim, ids, sh) = SweepShared::build(cfg);
            sh.run(&mut sim, &ids).unwrap();
            let compared = sh.check(&sim, &ids);
            assert_eq!(compared, 12 * 12 * 12, "odf={odf}");
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let mk = || {
            let mut cfg = SweepConfig::new(MachineConfig::summit(2), Dims::cube(96));
            cfg.odf = 2;
            cfg.sweeps = 4;
            cfg.warmup = 1;
            SweepShared::build_and_run(cfg).unwrap()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.total, b.total);
    }

    #[test]
    fn overdecomposition_cuts_wavefront_fill_latency() {
        // A single sweep front crossing the machine: coarse blocks make
        // every pipeline stage long; finer blocks shorten the critical
        // path. (In steady-state throughput with many back-to-back
        // sweeps, ODF-1 is already fully busy — tested below.)
        // Blocks must be compute-heavy enough that stage time, not
        // per-chare overhead, dominates the critical path.
        let latency = |odf| {
            let mut cfg = SweepConfig::new(MachineConfig::summit(4), Dims::cube(768));
            cfg.odf = odf;
            cfg.sweeps = 1;
            cfg.warmup = 0;
            SweepShared::build_and_run(cfg).unwrap().total
        };
        let coarse = latency(1);
        let fine = latency(4);
        assert!(
            fine < coarse,
            "ODF-4 fill {fine} should beat ODF-1 fill {coarse}"
        );
    }

    #[test]
    fn steady_state_throughput_prefers_coarse_blocks() {
        // Back-to-back sweeps saturate every block even at ODF-1, so the
        // per-chare overheads of high ODF dominate — the granularity
        // trade-off, sweep edition.
        let mk = |odf| {
            let mut cfg = SweepConfig::new(MachineConfig::summit(4), Dims::cube(384));
            cfg.odf = odf;
            cfg.sweeps = 6;
            cfg.warmup = 2;
            SweepShared::build_and_run(cfg).unwrap()
        };
        let coarse = mk(1);
        let fine = mk(8);
        assert!(
            coarse.unit < fine.unit,
            "steady-state ODF-1 {} should beat ODF-8 {}",
            coarse.unit,
            fine.unit
        );
    }

    #[test]
    fn single_block_runs_standalone() {
        let mut cfg = SweepConfig::new(MachineConfig::validation(1, 1), Dims::cube(8));
        cfg.sweeps = 2;
        cfg.warmup = 0;
        let (mut sim, ids, sh) = SweepShared::build(cfg);
        sh.run(&mut sim, &ids).unwrap();
        assert_eq!(sh.check(&sim, &ids), 512);
    }
}
