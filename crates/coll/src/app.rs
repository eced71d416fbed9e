//! Standalone collective proxy app: one participant chare per rank,
//! running `rounds` back-to-back collectives. This is what the
//! `coll_speed` bench, `profile_run --collective`, and the correctness
//! tests drive.

use std::sync::Arc;

use gaat_gpu::Space;
use gaat_rt::{
    BufRange, Chare, ChareId, Ctx, EntryId, Envelope, MachineConfig, RunOutcome, Simulation,
};
use gaat_sim::{SimDuration, SimTime};

use crate::member::{wire_members, CollEntries, CollMember, MemberEvent, MemberStats};
use crate::plan::{
    even_split, place_rank, plan, reduce_scatter_owner, ring_lanes, tree_lanes, uses_out_buffer,
    Algorithm, CollOp, CollPlan, RankPlacement,
};
use crate::reference;

/// Begin execution.
pub const E_START: EntryId = EntryId(0);
/// A channel receive landed (member event).
pub const E_RECV: EntryId = EntryId(1);
/// A channel send's buffer is reusable (member event).
pub const E_SENT: EntryId = EntryId(2);
/// A reduction / local-copy kernel retired (member event).
pub const E_REDUCED: EntryId = EntryId(3);

/// Experiment description.
#[derive(Debug, Clone)]
pub struct CollAppConfig {
    /// The machine.
    pub machine: MachineConfig,
    /// Which collective.
    pub op: CollOp,
    /// Ring or tree (allreduce only; others use their canonical shape).
    pub algorithm: Algorithm,
    /// Element count (per-op semantics, see [`plan`]).
    pub count: usize,
    /// Pipelining chunk: target elements per wire transfer.
    pub chunk: usize,
    /// Timed collective rounds.
    pub rounds: usize,
    /// Warm-up rounds excluded from timing.
    pub warmup: usize,
    /// Rank→PE mapping.
    pub placement: RankPlacement,
    /// Participant count; 0 means one rank per PE.
    pub ranks: usize,
}

impl CollAppConfig {
    /// Defaults: one timed round, 64Ki-element chunks, packed placement,
    /// one rank per PE.
    pub fn new(machine: MachineConfig, op: CollOp, algorithm: Algorithm, count: usize) -> Self {
        CollAppConfig {
            machine,
            op,
            algorithm,
            count,
            chunk: 1 << 16,
            rounds: 1,
            warmup: 0,
            placement: RankPlacement::Packed,
            ranks: 0,
        }
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
pub struct CollResult {
    /// Mean time per collective round (post-warm-up).
    pub time_per_round: SimDuration,
    /// Total simulated time.
    pub total: SimDuration,
    /// Merged member counters.
    pub stats: MemberStats,
}

impl CollResult {
    /// NCCL-convention bus bandwidth in bytes/s for this op, given the
    /// per-rank payload `bytes` and the measured round time.
    pub fn bus_bandwidth(&self, op: CollOp, ranks: usize, bytes: u64) -> f64 {
        let t = self.time_per_round.as_ns() as f64 * 1e-9;
        if t == 0.0 {
            return 0.0;
        }
        let p = ranks as f64;
        let factor = match op {
            CollOp::AllReduce => 2.0 * (p - 1.0) / p,
            CollOp::ReduceScatter | CollOp::AllGather | CollOp::AllToAll => (p - 1.0) / p,
            CollOp::Broadcast => 1.0,
        };
        bytes as f64 * factor / t
    }
}

/// Shared run parameters.
#[derive(Debug)]
pub struct CollShared {
    /// The experiment.
    pub cfg: CollAppConfig,
    /// The schedule.
    pub plan: CollPlan,
}

/// One collective participant.
#[derive(Clone)]
pub struct CollChare {
    sh: Arc<CollShared>,
    /// The embedded executor.
    pub member: CollMember,
    round: usize,
    /// Completion time of the warm-up rounds.
    pub warm_at: Option<SimTime>,
    /// Completion time of the final round.
    pub done_at: Option<SimTime>,
}

impl CollChare {
    fn total(&self) -> usize {
        self.sh.cfg.rounds + self.sh.cfg.warmup
    }

    fn start(&mut self, ctx: &mut Ctx<'_>) {
        while self.round < self.total() {
            if !self.member.begin(ctx) {
                return;
            }
            self.advance(ctx);
        }
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

impl Chare for CollChare {
    fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        let ev = match env.entry {
            E_START => {
                self.start(ctx);
                return;
            }
            E_RECV => MemberEvent::Recv,
            E_SENT => MemberEvent::Sent,
            E_REDUCED => MemberEvent::Reduced,
            other => panic!("unknown entry {other:?}"),
        };
        if self.member.on_event(ctx, ev, env.refnum) {
            self.advance(ctx);
            self.start(ctx);
        }
    }
}

/// Build the collective simulation.
pub fn build(cfg: CollAppConfig) -> (Simulation, Vec<ChareId>, Arc<CollShared>) {
    assert!(cfg.rounds > 0, "at least one timed round");
    let ranks = cfg.effective_ranks();
    let p = plan(cfg.op, cfg.algorithm, ranks, cfg.count, cfg.chunk);
    let mut sim = Simulation::new(cfg.machine.clone());
    let real = cfg.machine.real_buffers;
    let sh = Arc::new(CollShared {
        cfg: cfg.clone(),
        plan: p,
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
        let in_len = sh.plan.in_elems[r].max(1);
        let data = device.mem.alloc(Space::Device, in_len, real);
        let out = uses_out_buffer(cfg.op).then(|| {
            device
                .mem
                .alloc(Space::Device, sh.plan.out_elems[r].max(1), real)
        });
        let stream = device.create_stream(2);
        let member = CollMember::new(
            r,
            sh.plan.members[r].clone(),
            uses_out_buffer(cfg.op),
            data,
            0,
            out,
            0,
            stream,
            entries,
            0,
            device,
            real,
        );
        if real && sh.plan.in_elems[r] > 0 {
            let vals: Vec<f64> = (0..sh.plan.in_elems[r])
                .map(|i| reference::input_value(r, i))
                .collect();
            device.mem.write(BufRange::new(data, 0, vals.len()), &vals);
        }
        device.assert_memory_fits();
        let chare = CollChare {
            sh: sh.clone(),
            member,
            round: 0,
            warm_at: if cfg.warmup == 0 {
                Some(SimTime::ZERO)
            } else {
                None
            },
            done_at: None,
        };
        let id = sim.machine.create_chare(pe, Box::new(chare));
        assert_eq!(id, ids[r]);
    }
    wire_members(&mut sim.machine, &ids, &sh.plan, |any| {
        &mut any.downcast_mut::<CollChare>().expect("coll chare").member
    });
    (sim, ids, sh)
}

/// Run to completion and collect results.
pub fn run(sim: &mut Simulation, ids: &[ChareId], sh: &CollShared) -> CollResult {
    {
        let Simulation { sim, machine, .. } = sim;
        machine.broadcast(sim, ids, E_START, 0);
    }
    assert_eq!(sim.run(), RunOutcome::Drained, "collective should quiesce");
    let mut warm = SimTime::ZERO;
    let mut done = SimTime::ZERO;
    let mut stats = MemberStats::default();
    for &id in ids {
        let c = sim.machine.chare_as::<CollChare>(id);
        warm = warm.max(c.warm_at.expect("warmed"));
        done = done.max(c.done_at.expect("finished"));
        stats.merge(&c.member.stats);
    }
    CollResult {
        time_per_round: done.since(warm) / sh.cfg.rounds as u64,
        total: done.since(SimTime::ZERO),
        stats,
    }
}

/// Convenience: build + run.
pub fn run_coll(cfg: CollAppConfig) -> CollResult {
    let (mut sim, ids, sh) = build(cfg);
    run(&mut sim, &ids, &sh)
}

/// Compare every rank's defined output region against the scalar
/// reference, bit for bit. Returns elements compared. Requires real
/// buffers; reduce-scatter additionally requires a single round (its
/// later rounds consume unspecified partial sums).
#[allow(clippy::needless_range_loop)]
pub fn validate_against_reference(sim: &Simulation, ids: &[ChareId], sh: &CollShared) -> usize {
    assert!(sh.cfg.machine.real_buffers, "validation needs real buffers");
    let cfg = &sh.cfg;
    let ranks = cfg.effective_ranks();
    let total_rounds = cfg.rounds + cfg.warmup;
    let count = cfg.count;
    let mut state = reference::initial_inputs(ranks, sh.plan.in_elems[0]);
    let mut compared = 0;
    match cfg.op {
        CollOp::AllReduce => {
            let lanes = match cfg.algorithm {
                Algorithm::Ring => ring_lanes(count, ranks, cfg.chunk),
                Algorithm::Tree => tree_lanes(count, cfg.chunk),
            };
            for _ in 0..total_rounds {
                let out = reference::allreduce(cfg.algorithm, ranks, count, lanes, &state);
                state = vec![out; ranks];
            }
            for r in 0..ranks {
                let got = read_member_data(sim, ids[r], count);
                assert_eq!(got, state[r], "allreduce rank {r}");
                compared += count;
            }
        }
        CollOp::ReduceScatter => {
            assert_eq!(total_rounds, 1, "reduce-scatter validates one round");
            let lanes = ring_lanes(count, ranks, cfg.chunk);
            for r in 0..ranks {
                let got = read_member_data(sim, ids[r], count);
                for (off, vals) in reference::reduce_scatter(ranks, count, lanes, &state, r) {
                    assert_eq!(
                        &got[off..off + vals.len()],
                        &vals[..],
                        "reduce-scatter rank {r} segment {}",
                        reduce_scatter_owner(r, ranks)
                    );
                    compared += vals.len();
                }
            }
        }
        CollOp::AllGather => {
            let lanes = ring_lanes(count, ranks, cfg.chunk);
            for _ in 0..total_rounds {
                let out = reference::allgather(ranks, count, lanes, &state);
                state = vec![out; ranks];
            }
            for r in 0..ranks {
                let got = read_member_data(sim, ids[r], count);
                assert_eq!(got, state[r], "allgather rank {r}");
                compared += count;
            }
        }
        CollOp::Broadcast => {
            let out = reference::broadcast(&state);
            for r in 0..ranks {
                let got = read_member_data(sim, ids[r], count);
                assert_eq!(got, out, "broadcast rank {r}");
                compared += count;
            }
        }
        CollOp::AllToAll => {
            for r in 0..ranks {
                let want = reference::alltoall(ranks, count, &state, r);
                let got = read_member_out(sim, ids[r], ranks * count);
                assert_eq!(got, want, "alltoall rank {r}");
                compared += want.len();
            }
        }
    }
    compared
}

fn read_member_data(sim: &Simulation, id: ChareId, len: usize) -> Vec<f64> {
    let c = sim.machine.chare_as::<CollChare>(id);
    let pe = sim.machine.pe_of(id);
    let dev = sim.machine.pe_device(pe);
    sim.machine.devices[dev.0]
        .mem
        .read(BufRange::new(c.member.data_buffer(), 0, len))
        .expect("validation needs real buffers")
}

fn read_member_out(sim: &Simulation, id: ChareId, len: usize) -> Vec<f64> {
    let c = sim.machine.chare_as::<CollChare>(id);
    let pe = sim.machine.pe_of(id);
    let dev = sim.machine.pe_device(pe);
    sim.machine.devices[dev.0]
        .mem
        .read(BufRange::new(
            c.member.out_buffer().expect("alltoall has an out buffer"),
            0,
            len,
        ))
        .expect("validation needs real buffers")
}

/// Logical payload bytes per rank for bus-bandwidth accounting.
pub fn payload_bytes(op: CollOp, ranks: usize, count: usize) -> u64 {
    match op {
        CollOp::AllReduce | CollOp::ReduceScatter | CollOp::AllGather | CollOp::Broadcast => {
            count as u64 * 8
        }
        CollOp::AllToAll => (ranks * count) as u64 * 8,
    }
}

/// A deterministic fingerprint of the defined outputs (for lossy-run
/// comparisons): the XOR of every output element's bit pattern.
pub fn output_fingerprint(sim: &Simulation, ids: &[ChareId], sh: &CollShared) -> u64 {
    let cfg = &sh.cfg;
    let ranks = cfg.effective_ranks();
    let mut h = 0u64;
    #[allow(clippy::needless_range_loop)]
    for r in 0..ranks {
        let vals = if uses_out_buffer(cfg.op) {
            read_member_out(sim, ids[r], sh.plan.out_elems[r])
        } else if cfg.op == CollOp::ReduceScatter {
            let lanes = ring_lanes(cfg.count, ranks, cfg.chunk);
            let mut v = Vec::new();
            let all = read_member_data(sim, ids[r], cfg.count);
            let j = reduce_scatter_owner(r, ranks);
            for l in 0..lanes {
                let (lo, llen) = even_split(cfg.count, lanes, l);
                let (o, len) = even_split(llen, ranks, j);
                v.extend_from_slice(&all[lo + o..lo + o + len]);
            }
            v
        } else {
            read_member_data(sim, ids[r], cfg.count)
        };
        for (i, v) in vals.iter().enumerate() {
            h ^= v.to_bits().rotate_left((i % 63) as u32);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_OPS: [CollOp; 5] = [
        CollOp::AllReduce,
        CollOp::ReduceScatter,
        CollOp::AllGather,
        CollOp::Broadcast,
        CollOp::AllToAll,
    ];

    #[test]
    fn all_collectives_match_reference_non_power_of_two() {
        // 2 nodes × 3 PEs = 6 ranks; 3 nodes × 1 PE = 3 ranks.
        for (nodes, pes) in [(2usize, 3usize), (3, 1)] {
            for op in ALL_OPS {
                for alg in [Algorithm::Ring, Algorithm::Tree] {
                    let mut cfg = CollAppConfig::new(
                        MachineConfig::validation(nodes, pes),
                        op,
                        alg,
                        37, // non-divisible by rank count
                    );
                    cfg.chunk = 5;
                    let (mut sim, ids, sh) = build(cfg);
                    run(&mut sim, &ids, &sh);
                    let n = validate_against_reference(&sim, &ids, &sh);
                    assert!(n > 0, "{op:?}/{alg:?} compared nothing");
                }
            }
        }
    }

    #[test]
    fn multi_round_allreduce_matches_reference() {
        for alg in [Algorithm::Ring, Algorithm::Tree] {
            let mut cfg =
                CollAppConfig::new(MachineConfig::validation(2, 2), CollOp::AllReduce, alg, 64);
            cfg.rounds = 2;
            cfg.warmup = 1;
            cfg.chunk = 16;
            let (mut sim, ids, sh) = build(cfg);
            run(&mut sim, &ids, &sh);
            validate_against_reference(&sim, &ids, &sh);
        }
    }

    #[test]
    fn single_rank_collectives_complete() {
        for op in ALL_OPS {
            let cfg = CollAppConfig::new(MachineConfig::validation(1, 1), op, Algorithm::Ring, 16);
            let (mut sim, ids, sh) = build(cfg);
            let res = run(&mut sim, &ids, &sh);
            assert_eq!(res.stats.chunks, 0, "{op:?} single rank sends nothing");
            validate_against_reference(&sim, &ids, &sh);
        }
    }

    #[test]
    fn placement_does_not_change_results() {
        for placement in [RankPlacement::Packed, RankPlacement::RoundRobin] {
            let mut cfg = CollAppConfig::new(
                MachineConfig::validation(2, 3),
                CollOp::AllReduce,
                Algorithm::Ring,
                41,
            );
            cfg.placement = placement;
            cfg.chunk = 7;
            let (mut sim, ids, sh) = build(cfg);
            run(&mut sim, &ids, &sh);
            validate_against_reference(&sim, &ids, &sh);
        }
    }

    #[test]
    fn chunking_pipelines_large_ring_allreduce() {
        // Multiple lanes overlap wire time with reduction kernels; a
        // single monolithic lane cannot.
        let time = |chunk: usize| {
            let mut cfg = CollAppConfig::new(
                MachineConfig::summit(4),
                CollOp::AllReduce,
                Algorithm::Ring,
                1 << 21, // 16 MiB
            );
            cfg.chunk = chunk;
            cfg.rounds = 2;
            cfg.warmup = 1;
            run_coll(cfg).time_per_round
        };
        let pipelined = time(1 << 15);
        let monolithic = time(1 << 30);
        assert!(
            pipelined < monolithic,
            "chunked {pipelined} should beat monolithic {monolithic}"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let mk = || {
            let mut cfg = CollAppConfig::new(
                MachineConfig::summit(2),
                CollOp::AllReduce,
                Algorithm::Ring,
                1 << 16,
            );
            cfg.rounds = 3;
            cfg.warmup = 1;
            run_coll(cfg)
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.total, b.total);
        assert_eq!(a.stats, b.stats);
    }
}
