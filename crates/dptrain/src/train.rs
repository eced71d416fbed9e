//! Synchronous data-parallel training proxy.
//!
//! Every rank holds an identical parameter vector `W` and computes a
//! rank-local gradient per step (a deterministic function standing in
//! for a local batch). The backward pass produces the gradient in
//! `buckets` pieces, **in reverse bucket order** like a real DDP
//! backward; with `overlap` on, each bucket's allreduce launches the
//! moment its backward kernel retires, so gradient communication rides
//! under the remaining backward compute. The step ends with an SGD
//! update `W -= lr · Σg / P`, making every rank's `W` bit-identical —
//! validated against a sequential scalar reference that replicates the
//! allreduce combine order.
//!
//! [`TrainMode::ComputeOnly`] and [`TrainMode::CommOnly`] run the same
//! step with communication (resp. compute) elided, so a harness can
//! measure overlap: `full step < compute-only + comm-only`.

use std::sync::Arc;

use gaat_coll::member::{wire_members, CollEntries, CollMember, MemberEvent, MemberStats};
use gaat_coll::plan::{
    even_split, place_rank, plan, ring_lanes, tree_lanes, Algorithm, CollOp, CollPlan,
    RankPlacement,
};
use gaat_coll::rank::{self, E_START};
use gaat_coll::reference;
use gaat_gpu::Space;
use gaat_rt::{
    App, BufRange, BufferId, Callback, Chare, ChareId, Ctx, EntryId, Envelope, KernelSpec,
    MachineConfig, Op, Outcome, RunClock, Simulation, StreamId, Timing,
};
use gaat_sim::SimDuration;

use crate::ConfigError;

/// A backward bucket's kernel retired (refnum = bucket).
pub const E_BWD: EntryId = EntryId(1);
/// The SGD update kernel retired.
pub const E_UPDATED: EntryId = EntryId(2);
/// Member event: receive landed (refnum = bucket<<16 | lane).
pub const E_RECV: EntryId = EntryId(3);
/// Member event: send buffer reusable.
pub const E_SENT: EntryId = EntryId(4);
/// Member event: reduction kernel retired.
pub const E_REDUCED: EntryId = EntryId(5);

/// What part of the step to run (for overlap measurement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainMode {
    /// Compute and communication, overlapped per `overlap`.
    Full,
    /// Forward/backward/update kernels only; no allreduce.
    ComputeOnly,
    /// Gradient allreduces only; no kernels, no update.
    CommOnly,
}

/// Experiment description.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// The machine.
    pub machine: MachineConfig,
    /// Parameter (= gradient) elements per replica.
    pub params: usize,
    /// Gradient bucket count (the bucket-size knob).
    pub buckets: usize,
    /// Allreduce schedule.
    pub algorithm: Algorithm,
    /// Pipelining chunk for each bucket's allreduce.
    pub chunk: usize,
    /// Launch a bucket's allreduce as soon as its backward kernel
    /// retires (true) or only after the whole backward pass (false).
    pub overlap: bool,
    /// SGD learning rate.
    pub lr: f64,
    /// Kernel work per parameter per pass, in bytes of memory traffic
    /// (scales compute relative to communication).
    pub intensity: u64,
    /// Timed steps.
    pub steps: usize,
    /// Warm-up steps excluded from timing.
    pub warmup: usize,
    /// Rank→PE mapping.
    pub placement: RankPlacement,
    /// What to run.
    pub mode: TrainMode,
}

impl TrainConfig {
    /// Defaults: 4 buckets, ring allreduce, overlap on, 4 timed steps.
    pub fn new(machine: MachineConfig, params: usize) -> Self {
        TrainConfig {
            machine,
            params,
            buckets: 4,
            algorithm: Algorithm::Ring,
            chunk: 1 << 16,
            overlap: true,
            lr: 0.05,
            intensity: 48,
            steps: 4,
            warmup: 1,
            placement: RankPlacement::Packed,
            mode: TrainMode::Full,
        }
    }
}

/// Result of a training run.
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// Mean time per step (post-warm-up).
    pub time_per_step: SimDuration,
    /// Total simulated time.
    pub total: SimDuration,
    /// Merged allreduce counters across ranks and buckets.
    pub coll_stats: MemberStats,
}

/// Shared run parameters; the training proxy's [`App`].
#[derive(Debug)]
pub struct TrainShared {
    /// The experiment.
    pub cfg: TrainConfig,
    /// Participant count.
    pub ranks: usize,
    /// Per-bucket allreduce plans.
    pub plans: Vec<CollPlan>,
}

/// Initial parameter value.
pub fn init_weight(i: usize) -> f64 {
    let h = reference::mix64(i as u64 ^ 0x00ab_cdef);
    1.0 + (h & 0xf_ffff) as f64 / 1_048_576.0
}

/// Rank `r`'s gradient element `i` at `step` (the stand-in for a local
/// batch's backward pass).
pub fn grad_value(rank: usize, step: usize, i: usize) -> f64 {
    let h = reference::mix64(((rank as u64) << 40) ^ ((step as u64) << 28) ^ i as u64 ^ 0x6ead);
    (h & 0xf_ffff) as f64 / 1_048_576.0 - 0.5
}

/// One data-parallel replica.
#[derive(Clone)]
pub struct TrainChare {
    sh: Arc<TrainShared>,
    rank: usize,
    w: BufferId,
    g: BufferId,
    compute: StreamId,
    members: Vec<CollMember>,
    bwd_ready: usize,
    buckets_done: usize,
    /// Steps run and when the warm-up and the last step finished.
    clock: RunClock,
}

impl TrainChare {
    fn begin_step(&mut self, ctx: &mut Ctx<'_>) {
        let cfg = &self.sh.cfg;
        self.bwd_ready = 0;
        self.buckets_done = 0;
        if cfg.mode == TrainMode::CommOnly {
            for b in 0..cfg.buckets {
                self.start_bucket(ctx, b);
            }
            return;
        }
        let me = ctx.me();
        let t = ctx.machine.cfg.gpu.clone();
        // Forward pass: timing only.
        let fwd = KernelSpec::phantom("fwd", t.membound_work(cfg.params as u64 * cfg.intensity));
        ctx.launch(self.compute, Op::kernel(fwd));
        // Backward pass: buckets retire in reverse order, each filling
        // its gradient range (functional) and firing its own HAPI.
        let (rank, step, g) = (self.rank, self.clock.round(), self.g);
        for b in (0..cfg.buckets).rev() {
            let (bo, bl) = even_split(cfg.params, cfg.buckets, b);
            let work = t.membound_work(bl as u64 * cfg.intensity * 2);
            let spec = KernelSpec::with_func("bwd", work, move |m| {
                fill_grad(m, g, bo, bl, rank, step);
            });
            ctx.launch(self.compute, Op::kernel(spec));
            ctx.hapi(self.compute, Callback::to_ref(me, E_BWD, b as u64));
        }
    }

    fn start_bucket(&mut self, ctx: &mut Ctx<'_>, b: usize) {
        if self.members[b].begin(ctx) {
            self.bucket_complete(ctx);
        }
    }

    fn bucket_complete(&mut self, ctx: &mut Ctx<'_>) {
        self.buckets_done += 1;
        if self.buckets_done == self.sh.cfg.buckets {
            match self.sh.cfg.mode {
                TrainMode::CommOnly => self.advance_step(ctx),
                _ => self.launch_update(ctx),
            }
        }
    }

    fn on_bwd(&mut self, ctx: &mut Ctx<'_>, b: usize) {
        self.bwd_ready += 1;
        match self.sh.cfg.mode {
            TrainMode::ComputeOnly => {
                if self.bwd_ready == self.sh.cfg.buckets {
                    self.launch_update(ctx);
                }
            }
            TrainMode::Full => {
                if self.sh.cfg.overlap {
                    self.start_bucket(ctx, b);
                } else if self.bwd_ready == self.sh.cfg.buckets {
                    for b2 in 0..self.sh.cfg.buckets {
                        self.start_bucket(ctx, b2);
                    }
                }
            }
            TrainMode::CommOnly => unreachable!("no backward in comm-only"),
        }
    }

    fn launch_update(&mut self, ctx: &mut Ctx<'_>) {
        let cfg = &self.sh.cfg;
        let me = ctx.me();
        let t = ctx.machine.cfg.gpu.clone();
        let (w, g, params) = (self.w, self.g, cfg.params);
        let (lr, p) = (cfg.lr, self.sh.ranks as f64);
        let work = t.membound_work(params as u64 * 24);
        let spec = KernelSpec::with_func("sgd", work, move |m| {
            sgd_update(m, w, g, params, lr, p);
        });
        ctx.launch(self.compute, Op::kernel(spec));
        ctx.hapi(self.compute, Callback::to(me, E_UPDATED));
    }

    fn advance_step(&mut self, ctx: &mut Ctx<'_>) {
        if self.clock.tick(ctx) {
            self.begin_step(ctx);
        }
    }
}

impl Chare for TrainChare {
    fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        let ev = match env.entry {
            E_START => {
                self.begin_step(ctx);
                return;
            }
            E_BWD => {
                self.on_bwd(ctx, env.refnum as usize);
                return;
            }
            E_UPDATED => {
                self.advance_step(ctx);
                return;
            }
            E_RECV => MemberEvent::Recv,
            E_SENT => MemberEvent::Sent,
            E_REDUCED => MemberEvent::Reduced,
            other => panic!("unknown entry {other:?}"),
        };
        let b = (env.refnum >> 16) as usize;
        if self.members[b].on_event(ctx, ev, env.refnum) {
            self.bucket_complete(ctx);
        }
    }
}

/// Functional backward: fill a gradient bucket. Phantom-safe.
pub fn fill_grad(
    m: &mut gaat_gpu::MemoryPool,
    g: BufferId,
    bo: usize,
    bl: usize,
    rank: usize,
    step: usize,
) {
    let Some(s) = m.get_mut(g).as_mut_slice() else {
        return;
    };
    for i in 0..bl {
        s[bo + i] = grad_value(rank, step, bo + i);
    }
}

/// Functional SGD update: `W -= lr · g / P`. Phantom-safe.
pub fn sgd_update(
    m: &mut gaat_gpu::MemoryPool,
    w: BufferId,
    g: BufferId,
    params: usize,
    lr: f64,
    p: f64,
) {
    let Some(grads) = m.read(BufRange::new(g, 0, params)) else {
        return;
    };
    let Some(s) = m.get_mut(w).as_mut_slice() else {
        return;
    };
    for i in 0..params {
        s[i] -= lr * grads[i] / p;
    }
}

impl App for TrainShared {
    type Config = TrainConfig;
    type Error = ConfigError;
    type Chare = TrainChare;
    type Result = TrainResult;

    /// Check every rule that depends only on this configuration:
    /// [`rank::validate`]'s (the machine, at least one timed step, a
    /// nonzero `chunk`, no PE failure or load balancer), then at least one bucket and no more buckets
    /// than parameters.
    fn validate(cfg: &TrainConfig) -> Result<(), ConfigError> {
        rank::validate(&cfg.machine, cfg.steps, cfg.chunk, 0)?;
        if cfg.buckets == 0 {
            return Err(ConfigError::ZeroBuckets);
        }
        if cfg.params < cfg.buckets {
            return Err(ConfigError::FewerParamsThanBuckets {
                params: cfg.params,
                buckets: cfg.buckets,
            });
        }
        Ok(())
    }

    fn build(cfg: TrainConfig) -> (Simulation, Vec<ChareId>, Arc<TrainShared>) {
        Self::validate(&cfg).unwrap_or_else(|e| panic!("{e}"));
        let ranks = cfg.machine.total_pes();
        let plans: Vec<CollPlan> = (0..cfg.buckets)
            .map(|b| {
                let (_, bl) = even_split(cfg.params, cfg.buckets, b);
                plan(CollOp::AllReduce, cfg.algorithm, ranks, bl, cfg.chunk)
            })
            .collect();
        let real = cfg.machine.real_buffers;
        let sh = Arc::new(TrainShared { cfg, ranks, plans });
        let cfg = &sh.cfg;
        let entries = CollEntries {
            recv: E_RECV,
            sent: E_SENT,
            reduced: E_REDUCED,
        };
        let mut sim = Simulation::new(cfg.machine.clone());
        let m = &cfg.machine;
        let ids = sim.machine.create_chares(
            ranks,
            |r| place_rank(r, ranks, m.nodes, m.pes_per_node, cfg.placement),
            |r, device| {
                let w = device.mem.alloc(Space::Device, cfg.params, real);
                let g = device.mem.alloc(Space::Device, cfg.params, real);
                let compute = device.create_stream(1);
                let comm = device.create_stream(2);
                let members: Vec<CollMember> = (0..cfg.buckets)
                    .map(|b| {
                        let (bo, _) = even_split(cfg.params, cfg.buckets, b);
                        CollMember::new(
                            r,
                            sh.plans[b].members[r].clone(),
                            false,
                            g,
                            bo,
                            None,
                            0,
                            comm,
                            entries,
                            (b as u64) << 16,
                            device,
                            real,
                        )
                    })
                    .collect();
                if real {
                    let vals: Vec<f64> = (0..cfg.params).map(init_weight).collect();
                    device.mem.write(BufRange::new(w, 0, cfg.params), &vals);
                }
                TrainChare {
                    sh: sh.clone(),
                    rank: r,
                    w,
                    g,
                    compute,
                    members,
                    bwd_ready: 0,
                    buckets_done: 0,
                    clock: RunClock::new(cfg.steps, cfg.warmup),
                }
            },
        );
        for b in 0..cfg.buckets {
            wire_members(
                &mut sim.machine,
                &ids,
                &sh.plans[b],
                |c: &mut TrainChare| &mut c.members[b],
            );
        }
        (sim, ids, sh)
    }

    fn clock(c: &TrainChare) -> &RunClock {
        &c.clock
    }

    fn collect(&self, sim: &Simulation, ids: &[ChareId], t: Timing) -> TrainResult {
        let mut coll_stats = MemberStats::default();
        for &id in ids {
            for m in &sim.machine.chare_as::<TrainChare>(id).members {
                coll_stats.merge(&m.stats);
            }
        }
        TrainResult {
            time_per_step: t.unit,
            total: t.total,
            coll_stats,
        }
    }

    /// Compare every rank's final weights against [`reference_weights`],
    /// bit for bit. Returns elements compared.
    fn check(&self, sim: &Simulation, ids: &[ChareId]) -> usize {
        let cfg = &self.cfg;
        assert!(cfg.machine.real_buffers, "validation needs real buffers");
        assert_eq!(cfg.mode, TrainMode::Full, "only full steps validate");
        let want = reference_weights(cfg, self.ranks);
        let mut compared = 0;
        for &id in ids {
            let c = sim.machine.chare_as::<TrainChare>(id);
            let got = rank::read(sim, id, c.w, cfg.params);
            assert_eq!(got, want, "rank weights diverged");
            compared += cfg.params;
        }
        compared
    }

    fn outcome(r: &TrainResult) -> Outcome {
        Outcome {
            unit: r.time_per_step,
            total: r.total,
            coll_bytes: r.coll_stats.bytes,
            coll_chunks: r.coll_stats.chunks,
            ..Outcome::default()
        }
    }
}

/// Sequential scalar reference for the final weights after a full run.
pub fn reference_weights(cfg: &TrainConfig, ranks: usize) -> Vec<f64> {
    let mut w: Vec<f64> = (0..cfg.params).map(init_weight).collect();
    let p = ranks as f64;
    for step in 0..cfg.steps + cfg.warmup {
        let mut gsum = vec![0.0; cfg.params];
        for b in 0..cfg.buckets {
            let (bo, bl) = even_split(cfg.params, cfg.buckets, b);
            let inputs: Vec<Vec<f64>> = (0..ranks)
                .map(|r| (0..bl).map(|i| grad_value(r, step, bo + i)).collect())
                .collect();
            let lanes = match cfg.algorithm {
                Algorithm::Ring => ring_lanes(bl, ranks, cfg.chunk),
                Algorithm::Tree => tree_lanes(bl, cfg.chunk),
            };
            let red = reference::allreduce(cfg.algorithm, ranks, bl, lanes, &inputs);
            gsum[bo..bo + bl].copy_from_slice(&red);
        }
        for i in 0..cfg.params {
            w[i] -= cfg.lr * gsum[i] / p;
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_matches_reference_ring_and_tree() {
        for alg in [Algorithm::Ring, Algorithm::Tree] {
            for buckets in [1usize, 3] {
                let mut cfg = TrainConfig::new(MachineConfig::validation(2, 3), 50);
                cfg.algorithm = alg;
                cfg.buckets = buckets;
                cfg.chunk = 4;
                cfg.steps = 2;
                cfg.warmup = 1;
                let (mut sim, ids, sh) = TrainShared::build(cfg);
                sh.run(&mut sim, &ids).unwrap();
                assert_eq!(sh.check(&sim, &ids), 50 * 6, "{alg:?}/{buckets}");
            }
        }
    }

    #[test]
    fn no_overlap_also_matches_reference() {
        let mut cfg = TrainConfig::new(MachineConfig::validation(2, 2), 32);
        cfg.overlap = false;
        cfg.steps = 2;
        cfg.warmup = 0;
        cfg.chunk = 8;
        let (mut sim, ids, sh) = TrainShared::build(cfg);
        sh.run(&mut sim, &ids).unwrap();
        sh.check(&sim, &ids);
    }

    #[test]
    fn overlap_beats_sum_of_parts() {
        // The acceptance criterion: step time < compute time + comm time.
        // The second config is jitter-free with enough arithmetic per
        // parameter that compute and comm are the same order of magnitude.
        let mut large = TrainConfig::new(MachineConfig::summit(2), 1 << 20);
        large.steps = 3;
        let mut dense = TrainConfig::new(MachineConfig::summit(2), 1 << 18);
        dense.machine.net.jitter = 0.0;
        dense.intensity = 1024;
        dense.steps = 2;
        for base in [large, dense] {
            let mk = |mode, overlap| {
                let mut cfg = base.clone();
                cfg.mode = mode;
                cfg.overlap = overlap;
                cfg.buckets = 8;
                cfg.chunk = 1 << 14;
                cfg.warmup = 1;
                TrainShared::build_and_run(cfg).unwrap().time_per_step
            };
            let full = mk(TrainMode::Full, true);
            let compute = mk(TrainMode::ComputeOnly, true);
            let comm = mk(TrainMode::CommOnly, true);
            assert!(
                full < compute + comm,
                "{} params: overlapped {full} should beat compute {compute} + comm {comm}",
                base.params
            );
            let serial = mk(TrainMode::Full, false);
            assert!(full < serial, "overlap {full} should beat serial {serial}");
        }
    }

    #[test]
    fn training_is_deterministic() {
        let mk = || {
            let mut cfg = TrainConfig::new(MachineConfig::summit(2), 1 << 16);
            cfg.steps = 2;
            cfg.warmup = 1;
            TrainShared::build_and_run(cfg).unwrap()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.total, b.total);
        assert_eq!(a.coll_stats, b.coll_stats);
    }
}
