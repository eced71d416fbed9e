//! MoE-style dispatch/combine alltoall proxy.
//!
//! Every rank holds `tokens` tokens of `hidden` elements and routes
//! each token to an expert rank with a deterministic, *skewed*
//! distribution: with probability `hot_frac` a token goes to one of the
//! first `hot_experts` ranks, otherwise uniformly anywhere. A round is
//! dispatch (variable alltoall of token blocks), an expert kernel
//! (elementwise transform priced on the GPU), and combine (the
//! transposed variable alltoall bringing every token home).
//!
//! The skew concentrates incast on the hot ranks' nodes, which makes
//! rank placement matter under spine contention — the congestion
//! ablation's measurable quantity — unlike a uniform alltoall whose
//! traffic matrix is placement-invariant.

use std::sync::Arc;

use gaat_coll::member::{CollEntries, CollMember, MemberEvent, MemberStats};
use gaat_coll::plan::{alltoallv_plan, place_rank, CollPlan, RankPlacement};
use gaat_coll::reference::mix64;
use gaat_gpu::Space;
use gaat_rt::{
    BufRange, BufferId, Callback, Chare, ChareId, Ctx, EntryId, Envelope, KernelSpec,
    MachineConfig, Op, RunOutcome, Simulation, StreamId,
};
use gaat_sim::{SimDuration, SimTime};

use crate::ConfigError;

/// Begin execution.
pub const E_START: EntryId = EntryId(0);
/// The expert kernel retired.
pub const E_EXPERT: EntryId = EntryId(1);
/// Member event: receive landed (refnum = member<<16 | lane).
pub const E_RECV: EntryId = EntryId(2);
/// Member event: send buffer reusable.
pub const E_SENT: EntryId = EntryId(3);
/// Member event: reduction / local-copy kernel retired.
pub const E_REDUCED: EntryId = EntryId(4);

const DISPATCH: u64 = 0;
const COMBINE: u64 = 1 << 16;

/// Experiment description.
#[derive(Debug, Clone)]
pub struct MoeConfig {
    /// The machine.
    pub machine: MachineConfig,
    /// Tokens held by each rank.
    pub tokens: usize,
    /// Elements per token.
    pub hidden: usize,
    /// How many low-numbered ranks are "hot" experts.
    pub hot_experts: usize,
    /// Probability a token routes to a hot expert.
    pub hot_frac: f64,
    /// Routing seed.
    pub seed: u64,
    /// Pipelining chunk for the alltoalls.
    pub chunk: usize,
    /// Timed rounds.
    pub rounds: usize,
    /// Warm-up rounds excluded from timing.
    pub warmup: usize,
    /// Rank→PE mapping.
    pub placement: RankPlacement,
    /// Participant count; 0 means one rank per PE.
    pub ranks: usize,
}

impl MoeConfig {
    /// Defaults: 2 hot experts drawing 50% of tokens, one timed round.
    pub fn new(machine: MachineConfig, tokens: usize, hidden: usize) -> Self {
        MoeConfig {
            machine,
            tokens,
            hidden,
            hot_experts: 2,
            hot_frac: 0.5,
            seed: 0x1337,
            chunk: 1 << 16,
            rounds: 1,
            warmup: 0,
            placement: RankPlacement::Packed,
            ranks: 0,
        }
    }

    /// Check every rule that depends only on this configuration: the
    /// machine's ([`gaat_rt::MachineConfig::validate`]), then at least
    /// one timed round, a nonzero `hidden`, and `hot_frac` in `[0, 1]`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.machine.validate()?;
        if self.rounds == 0 {
            return Err(ConfigError::NothingTimed);
        }
        if self.hidden == 0 {
            return Err(ConfigError::ZeroHidden);
        }
        if !(0.0..=1.0).contains(&self.hot_frac) {
            return Err(ConfigError::HotFracOutOfRange(self.hot_frac));
        }
        Ok(())
    }

    /// Effective participant count.
    pub fn effective_ranks(&self) -> usize {
        if self.ranks == 0 {
            self.machine.total_pes()
        } else {
            self.ranks
        }
    }
}

/// Result of a run.
#[derive(Debug, Clone)]
pub struct MoeResult {
    /// Mean time per round (post-warm-up).
    pub time_per_round: SimDuration,
    /// Total simulated time.
    pub total: SimDuration,
    /// Merged dispatch-alltoall counters.
    pub dispatch_stats: MemberStats,
    /// Merged combine-alltoall counters.
    pub combine_stats: MemberStats,
}

/// Shared run parameters.
#[derive(Debug)]
pub struct MoeShared {
    /// The experiment.
    pub cfg: MoeConfig,
    /// Participant count.
    pub ranks: usize,
    /// `counts[r][e]`: tokens rank `r` routes to expert `e`.
    pub counts: Vec<Vec<usize>>,
    /// Dispatch schedule (counts × hidden elements).
    pub dispatch: CollPlan,
    /// Combine schedule (the transpose).
    pub combine: CollPlan,
}

/// The expert a token routes to. Deterministic in (seed, rank, token).
pub fn expert_of(
    seed: u64,
    ranks: usize,
    hot_experts: usize,
    hot_frac: f64,
    rank: usize,
    token: usize,
) -> usize {
    let h = mix64(seed ^ ((rank as u64) << 32) ^ ((token as u64) << 1) ^ 0x5eed);
    let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
    let h2 = mix64(h);
    let hot = hot_experts.clamp(1, ranks);
    if frac < hot_frac {
        (h2 % hot as u64) as usize
    } else {
        (h2 % ranks as u64) as usize
    }
}

/// The full routing matrix: `counts[r][e]` tokens from `r` to expert `e`.
pub fn routing_counts(cfg: &MoeConfig, ranks: usize) -> Vec<Vec<usize>> {
    let mut counts = vec![vec![0usize; ranks]; ranks];
    for r in 0..ranks {
        for t in 0..cfg.tokens {
            counts[r][expert_of(cfg.seed, ranks, cfg.hot_experts, cfg.hot_frac, r, t)] += 1;
        }
    }
    counts
}

/// Element `k` of token `t` held by `rank`.
pub fn token_value(rank: usize, t: usize, k: usize) -> f64 {
    let h = mix64(((rank as u64) << 40) ^ ((t as u64) << 20) ^ k as u64 ^ 0x70ce);
    1.0 + (h & 0xf_ffff) as f64 / 1_048_576.0
}

/// The expert's elementwise transform (expert `e` applies its own
/// scale and bias).
pub fn expert_transform(x: f64, e: usize) -> f64 {
    x * (1.0 + 0.0625 * e as f64) + 0.03125 * (e as f64 + 1.0)
}

/// Rank `r`'s dispatch send buffer: tokens grouped by destination
/// expert (ascending), tokens in ascending order within a group.
pub fn dispatch_layout(cfg: &MoeConfig, ranks: usize, r: usize) -> Vec<f64> {
    let mut v = Vec::with_capacity(cfg.tokens * cfg.hidden);
    for e in 0..ranks {
        for t in 0..cfg.tokens {
            if expert_of(cfg.seed, ranks, cfg.hot_experts, cfg.hot_frac, r, t) == e {
                for k in 0..cfg.hidden {
                    v.push(token_value(r, t, k));
                }
            }
        }
    }
    v
}

/// Rank `r`'s expected combine output: each of its tokens transformed
/// by the expert it was routed to, grouped by expert (the combine
/// alltoall's arrival layout).
pub fn reference_output(cfg: &MoeConfig, ranks: usize, r: usize) -> Vec<f64> {
    let mut v = Vec::with_capacity(cfg.tokens * cfg.hidden);
    for e in 0..ranks {
        for t in 0..cfg.tokens {
            if expert_of(cfg.seed, ranks, cfg.hot_experts, cfg.hot_frac, r, t) == e {
                for k in 0..cfg.hidden {
                    v.push(expert_transform(token_value(r, t, k), e));
                }
            }
        }
    }
    v
}

/// One MoE participant: the local shard's dispatcher and its expert.
#[derive(Clone)]
pub struct MoeChare {
    sh: Arc<MoeShared>,
    rank: usize,
    disp_out: BufferId,
    exp_out: BufferId,
    expert_elems: usize,
    stream: StreamId,
    dispatch: CollMember,
    combine: CollMember,
    round: usize,
    /// Completion time of the warm-up rounds.
    pub warm_at: Option<SimTime>,
    /// Completion time of the final round.
    pub done_at: Option<SimTime>,
    /// The combine output buffer (for validation).
    pub comb_out: BufferId,
}

impl MoeChare {
    fn total(&self) -> usize {
        self.sh.cfg.rounds + self.sh.cfg.warmup
    }

    fn start_round(&mut self, ctx: &mut Ctx<'_>) {
        while self.round < self.total() {
            if !self.dispatch.begin(ctx) {
                return;
            }
            if !self.run_expert_then_combine(ctx) {
                return;
            }
        }
    }

    /// Dispatch finished: price the expert on the GPU, then combine.
    /// Returns `true` when the whole round completed synchronously.
    fn on_dispatch_done(&mut self, ctx: &mut Ctx<'_>) {
        if self.run_expert_then_combine(ctx) {
            self.start_round(ctx);
        }
    }

    fn run_expert_then_combine(&mut self, ctx: &mut Ctx<'_>) -> bool {
        if self.expert_elems == 0 {
            // No tokens arrived; skip the kernel, go straight to combine.
            return self.start_combine(ctx);
        }
        let t = ctx.machine.cfg.gpu.clone();
        let (src, dst, len, e) = (self.disp_out, self.exp_out, self.expert_elems, self.rank);
        // Read + math + write per element.
        let work = t.membound_work(len as u64 * 16);
        let spec = KernelSpec::with_func("moe_expert", work, move |m| {
            expert_kernel(m, src, dst, len, e);
        });
        ctx.launch(self.stream, Op::kernel(spec));
        let me = ctx.me();
        ctx.hapi(self.stream, Callback::to(me, E_EXPERT));
        false
    }

    /// Returns `true` when combine completed synchronously.
    fn start_combine(&mut self, ctx: &mut Ctx<'_>) -> bool {
        if self.combine.begin(ctx) {
            self.advance(ctx);
            return true;
        }
        false
    }

    fn advance(&mut self, ctx: &mut Ctx<'_>) {
        self.round += 1;
        if self.round == self.sh.cfg.warmup {
            self.warm_at = Some(ctx.start_time());
        }
        if self.round == self.total() {
            self.done_at = Some(ctx.start_time());
        }
    }
}

impl Chare for MoeChare {
    fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        let ev = match env.entry {
            E_START => {
                self.start_round(ctx);
                return;
            }
            E_EXPERT => {
                if self.start_combine(ctx) {
                    self.start_round(ctx);
                }
                return;
            }
            E_RECV => MemberEvent::Recv,
            E_SENT => MemberEvent::Sent,
            E_REDUCED => MemberEvent::Reduced,
            other => panic!("unknown entry {other:?}"),
        };
        let which = env.refnum & !gaat_coll::member::LANE_MASK;
        let done = if which == DISPATCH {
            self.dispatch.on_event(ctx, ev, env.refnum)
        } else {
            self.combine.on_event(ctx, ev, env.refnum)
        };
        if done {
            if which == DISPATCH {
                self.on_dispatch_done(ctx);
            } else {
                self.advance(ctx);
                self.start_round(ctx);
            }
        }
    }
}

/// Functional expert kernel body. Phantom-safe.
pub fn expert_kernel(
    m: &mut gaat_gpu::MemoryPool,
    src: BufferId,
    dst: BufferId,
    len: usize,
    e: usize,
) {
    let Some(vals) = m.read(BufRange::new(src, 0, len)) else {
        return;
    };
    let Some(d) = m.get_mut(dst).as_mut_slice() else {
        return;
    };
    for (i, x) in vals.iter().enumerate() {
        d[i] = expert_transform(*x, e);
    }
}

/// Build the MoE simulation. Panics with the [`ConfigError`] text if
/// `cfg` fails [`MoeConfig::validate`].
pub fn build_moe(cfg: MoeConfig) -> (Simulation, Vec<ChareId>, Arc<MoeShared>) {
    let mut sim = Simulation::new(cfg.machine.clone());
    cfg.validate().unwrap_or_else(|e| panic!("{e}"));
    let ranks = cfg.effective_ranks();
    let counts = routing_counts(&cfg, ranks);
    let elems: Vec<Vec<usize>> = counts
        .iter()
        .map(|row| row.iter().map(|&c| c * cfg.hidden).collect())
        .collect();
    let transposed: Vec<Vec<usize>> = (0..ranks)
        .map(|e| (0..ranks).map(|r| elems[r][e]).collect())
        .collect();
    let dispatch = alltoallv_plan(&elems, cfg.chunk);
    let combine = alltoallv_plan(&transposed, cfg.chunk);
    let real = cfg.machine.real_buffers;
    let sh = Arc::new(MoeShared {
        cfg: cfg.clone(),
        ranks,
        counts,
        dispatch,
        combine,
    });
    let base = sim.machine.chare_count();
    let ids: Vec<ChareId> = (0..ranks).map(|i| ChareId(base + i)).collect();
    let entries = CollEntries {
        recv: E_RECV,
        sent: E_SENT,
        reduced: E_REDUCED,
    };
    #[allow(clippy::needless_range_loop)]
    for r in 0..ranks {
        let pe = place_rank(
            r,
            ranks,
            cfg.machine.nodes,
            cfg.machine.pes_per_node,
            cfg.placement,
        );
        let dev = sim.machine.pe_device(pe);
        let device = &mut sim.machine.devices[dev.0];
        let in_len = sh.dispatch.in_elems[r].max(1);
        let expert_elems = sh.dispatch.out_elems[r];
        let disp_in = device.mem.alloc(Space::Device, in_len, real);
        let disp_out = device.mem.alloc(Space::Device, expert_elems.max(1), real);
        let exp_out = device.mem.alloc(Space::Device, expert_elems.max(1), real);
        let comb_out = device
            .mem
            .alloc(Space::Device, sh.combine.out_elems[r].max(1), real);
        let stream = device.create_stream(2);
        let dispatch = CollMember::new(
            r,
            sh.dispatch.members[r].clone(),
            true,
            disp_in,
            0,
            Some(disp_out),
            0,
            stream,
            entries,
            DISPATCH,
            device,
            real,
        );
        let combine = CollMember::new(
            r,
            sh.combine.members[r].clone(),
            true,
            exp_out,
            0,
            Some(comb_out),
            0,
            stream,
            entries,
            COMBINE,
            device,
            real,
        );
        if real && sh.dispatch.in_elems[r] > 0 {
            let vals = dispatch_layout(&cfg, ranks, r);
            device
                .mem
                .write(BufRange::new(disp_in, 0, vals.len()), &vals);
        }
        device.assert_memory_fits();
        let chare = MoeChare {
            sh: sh.clone(),
            rank: r,
            disp_out,
            exp_out,
            expert_elems,
            stream,
            dispatch,
            combine,
            round: 0,
            warm_at: if cfg.warmup == 0 {
                Some(SimTime::ZERO)
            } else {
                None
            },
            done_at: None,
            comb_out,
        };
        let id = sim.machine.create_chare(pe, Box::new(chare));
        assert_eq!(id, ids[r]);
    }
    gaat_coll::member::wire_members(&mut sim.machine, &ids, &sh.dispatch, |any| {
        &mut any.downcast_mut::<MoeChare>().expect("moe chare").dispatch
    });
    gaat_coll::member::wire_members(&mut sim.machine, &ids, &sh.combine, |any| {
        &mut any.downcast_mut::<MoeChare>().expect("moe chare").combine
    });
    (sim, ids, sh)
}

/// Tree-broadcast `E_START` to every rank without running the engine:
/// the first half of [`run_moe`]. The sweep memoizer pauses between the
/// halves to snapshot and fork the world.
pub fn start_moe(sim: &mut Simulation, ids: &[ChareId]) {
    let Simulation { sim, machine, .. } = sim;
    machine.broadcast(sim, ids, E_START, 0);
}

/// Run to completion and collect results.
pub fn run_moe(sim: &mut Simulation, ids: &[ChareId], sh: &MoeShared) -> MoeResult {
    start_moe(sim, ids);
    finish_moe(sim, ids, sh)
}

/// Drain a started run to quiescence and collect results: the second
/// half of [`run_moe`].
pub fn finish_moe(sim: &mut Simulation, ids: &[ChareId], sh: &MoeShared) -> MoeResult {
    assert_eq!(sim.run(), RunOutcome::Drained, "MoE round should quiesce");
    let mut warm = SimTime::ZERO;
    let mut done = SimTime::ZERO;
    let mut dispatch_stats = MemberStats::default();
    let mut combine_stats = MemberStats::default();
    for &id in ids {
        let c = sim.machine.chare_as::<MoeChare>(id);
        warm = warm.max(c.warm_at.expect("warmed"));
        done = done.max(c.done_at.expect("finished"));
        dispatch_stats.merge(&c.dispatch.stats);
        combine_stats.merge(&c.combine.stats);
    }
    MoeResult {
        time_per_round: done.since(warm) / sh.cfg.rounds as u64,
        total: done.since(SimTime::ZERO),
        dispatch_stats,
        combine_stats,
    }
}

/// Convenience: build + run.
pub fn run_moe_app(cfg: MoeConfig) -> MoeResult {
    let (mut sim, ids, sh) = build_moe(cfg);
    run_moe(&mut sim, &ids, &sh)
}

/// Compare every rank's combine output against [`reference_output`],
/// bit for bit. Returns elements compared.
pub fn validate_moe(sim: &Simulation, ids: &[ChareId], sh: &MoeShared) -> usize {
    assert!(sh.cfg.machine.real_buffers, "validation needs real buffers");
    let mut compared = 0;
    for (r, &id) in ids.iter().enumerate() {
        let want = reference_output(&sh.cfg, sh.ranks, r);
        if want.is_empty() {
            continue;
        }
        let c = sim.machine.chare_as::<MoeChare>(id);
        let pe = sim.machine.pe_of(id);
        let dev = sim.machine.pe_device(pe);
        let got = sim.machine.devices[dev.0]
            .mem
            .read(BufRange::new(c.comb_out, 0, want.len()))
            .expect("real buffers");
        assert_eq!(got, want, "MoE combine output rank {r}");
        compared += want.len();
    }
    compared
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_skewed_and_conserves_tokens() {
        let cfg = MoeConfig {
            hot_experts: 2,
            hot_frac: 0.7,
            ..MoeConfig::new(MachineConfig::validation(2, 3), 128, 4)
        };
        let counts = routing_counts(&cfg, 6);
        for row in &counts {
            assert_eq!(row.iter().sum::<usize>(), 128);
        }
        let per_expert: Vec<usize> = (0..6).map(|e| counts.iter().map(|r| r[e]).sum()).collect();
        let hot: usize = per_expert[..2].iter().sum();
        let cold: usize = per_expert[2..].iter().sum();
        assert!(
            hot > 2 * cold,
            "hot experts should dominate: {per_expert:?}"
        );
    }

    #[test]
    fn moe_round_matches_reference() {
        // (nodes, PEs per node, tokens, hidden, chunk, hot_frac)
        for (nodes, pes, tokens, hidden, chunk, hot_frac) in [
            (2, 3, 17, 3, 7, 0.6),
            (3, 1, 17, 3, 7, 0.6),
            (2, 3, 33, 5, 11, 0.7),
        ] {
            let mut cfg = MoeConfig::new(MachineConfig::validation(nodes, pes), tokens, hidden);
            cfg.chunk = chunk;
            cfg.hot_frac = hot_frac;
            let (mut sim, ids, sh) = build_moe(cfg);
            run_moe(&mut sim, &ids, &sh);
            let n = validate_moe(&sim, &ids, &sh);
            assert!(n > 0);
        }
    }

    #[test]
    fn multi_round_moe_is_idempotent_and_validates() {
        let mut cfg = MoeConfig::new(MachineConfig::validation(2, 2), 9, 2);
        cfg.rounds = 2;
        cfg.warmup = 1;
        cfg.chunk = 5;
        let (mut sim, ids, sh) = build_moe(cfg);
        run_moe(&mut sim, &ids, &sh);
        validate_moe(&sim, &ids, &sh);
    }

    #[test]
    fn single_rank_moe_completes() {
        let cfg = MoeConfig::new(MachineConfig::validation(1, 1), 5, 2);
        let (mut sim, ids, sh) = build_moe(cfg);
        let res = run_moe(&mut sim, &ids, &sh);
        assert_eq!(res.dispatch_stats.chunks, 0, "self traffic stays local");
        validate_moe(&sim, &ids, &sh);
    }

    #[test]
    fn moe_runs_are_deterministic() {
        let mk = || {
            let mut cfg = MoeConfig::new(MachineConfig::summit(2), 512, 64);
            cfg.hot_experts = 3;
            cfg.hot_frac = 0.7;
            cfg.rounds = 2;
            cfg.warmup = 1;
            run_moe_app(cfg)
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.total, b.total);
        assert_eq!(a.dispatch_stats, b.dispatch_stats);
        assert_eq!(a.combine_stats, b.combine_stats);
    }
}
