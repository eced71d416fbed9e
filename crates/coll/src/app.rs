//! Standalone collective proxy app: one participant chare per rank,
//! placed and timed by the [`rank`] scaffold, running `rounds`
//! back-to-back collectives. This is what
//! `figures --fig coll`, `profile_run --collective`, and the
//! reference-equality tests below drive.

use std::sync::Arc;

use gaat_gpu::Space;
use gaat_rt::{
    App, BufRange, Chare, ChareId, Ctx, EntryId, Envelope, MachineConfig, Outcome, RunClock,
    Simulation, Timing,
};
use gaat_sim::SimDuration;

use crate::member::{wire_members, CollEntries, CollMember, MemberEvent, MemberStats};
use crate::plan::{
    place_rank, plan, reduce_scatter_owner, ring_lanes, tree_lanes, uses_out_buffer, Algorithm,
    CollOp, CollPlan, RankPlacement,
};
use crate::rank::{self, ConfigError, E_START};
use crate::reference;

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
        rank::effective_ranks(&self.machine, self.ranks)
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

/// Shared run parameters; the standalone collective's [`App`].
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
    /// The embedded executor.
    pub member: CollMember,
    /// Rounds run and when the warm-up and the last round finished.
    clock: RunClock,
}

impl CollChare {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        while self.clock.running() && self.member.begin(ctx) {
            self.clock.tick(ctx);
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
            self.clock.tick(ctx);
            self.start(ctx);
        }
    }
}

impl App for CollShared {
    type Config = CollAppConfig;
    type Error = ConfigError;
    type Chare = CollChare;
    type Result = CollResult;

    /// Check [`rank::validate`]'s rules: the machine, at least one
    /// timed round, a nonzero `chunk`, no more `ranks` than PEs, and no
    /// PE failure or load balancer.
    fn validate(cfg: &CollAppConfig) -> Result<(), ConfigError> {
        rank::validate(&cfg.machine, cfg.rounds, cfg.chunk, cfg.ranks)
    }

    fn build(cfg: CollAppConfig) -> (Simulation, Vec<ChareId>, Arc<CollShared>) {
        Self::validate(&cfg).unwrap_or_else(|e| panic!("{e}"));
        let ranks = cfg.effective_ranks();
        let real = cfg.machine.real_buffers;
        let sh = Arc::new(CollShared {
            plan: plan(cfg.op, cfg.algorithm, ranks, cfg.count, cfg.chunk),
            cfg,
        });
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
                let in_len = sh.plan.in_elems[r];
                let data = device.mem.alloc(Space::Device, in_len.max(1), real);
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
                if real && in_len > 0 {
                    let vals: Vec<f64> =
                        (0..in_len).map(|i| reference::input_value(r, i)).collect();
                    device.mem.write(BufRange::new(data, 0, in_len), &vals);
                }
                CollChare {
                    member,
                    clock: RunClock::new(cfg.rounds, cfg.warmup),
                }
            },
        );
        wire_members(&mut sim.machine, &ids, &sh.plan, |c: &mut CollChare| {
            &mut c.member
        });
        (sim, ids, sh)
    }

    fn clock(c: &CollChare) -> &RunClock {
        &c.clock
    }

    fn collect(&self, sim: &Simulation, ids: &[ChareId], t: Timing) -> CollResult {
        let mut stats = MemberStats::default();
        for &id in ids {
            stats.merge(&sim.machine.chare_as::<CollChare>(id).member.stats);
        }
        CollResult {
            time_per_round: t.unit,
            total: t.total,
            stats,
        }
    }

    /// Compares every rank's defined output region against the scalar
    /// reference. Reduce-scatter needs a single round: its later rounds
    /// consume unspecified partial sums.
    #[allow(clippy::needless_range_loop)]
    fn check(&self, sim: &Simulation, ids: &[ChareId]) -> usize {
        let cfg = &self.cfg;
        assert!(cfg.machine.real_buffers, "validation needs real buffers");
        let ranks = cfg.effective_ranks();
        let total_rounds = cfg.rounds + cfg.warmup;
        let count = cfg.count;
        let mut state = reference::initial_inputs(ranks, self.plan.in_elems[0]);
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

    fn outcome(r: &CollResult) -> Outcome {
        Outcome {
            unit: r.time_per_round,
            total: r.total,
            coll_bytes: r.stats.bytes,
            coll_chunks: r.stats.chunks,
            ..Outcome::default()
        }
    }
}

fn read_member_data(sim: &Simulation, id: ChareId, len: usize) -> Vec<f64> {
    let c = sim.machine.chare_as::<CollChare>(id);
    rank::read(sim, id, c.member.data_buffer(), len)
}

fn read_member_out(sim: &Simulation, id: ChareId, len: usize) -> Vec<f64> {
    let c = sim.machine.chare_as::<CollChare>(id);
    let out = c.member.out_buffer().expect("alltoall has an out buffer");
    rank::read(sim, id, out, len)
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
                    let (mut sim, ids, sh) = CollShared::build(cfg);
                    sh.run(&mut sim, &ids).unwrap();
                    let n = sh.check(&sim, &ids);
                    assert!(n > 0, "{op:?}/{alg:?} compared nothing");
                }
            }
        }
    }

    #[test]
    fn multi_round_allreduce_matches_reference() {
        // (nodes, PEs per node, count, chunk): a divisible case, and 6
        // ranks with a count and chunk that divide nothing.
        for (nodes, pes, count, chunk) in [(2, 2, 64, 16), (2, 3, 501, 37)] {
            for alg in [Algorithm::Ring, Algorithm::Tree] {
                let mut cfg = CollAppConfig::new(
                    MachineConfig::validation(nodes, pes),
                    CollOp::AllReduce,
                    alg,
                    count,
                );
                cfg.rounds = 2;
                cfg.warmup = 1;
                cfg.chunk = chunk;
                let (mut sim, ids, sh) = CollShared::build(cfg);
                sh.run(&mut sim, &ids).unwrap();
                let n = sh.check(&sim, &ids);
                assert!(n > 0, "{alg:?} at {count}/{chunk} compared nothing");
            }
        }
    }

    #[test]
    fn single_rank_collectives_complete() {
        for op in ALL_OPS {
            let cfg = CollAppConfig::new(MachineConfig::validation(1, 1), op, Algorithm::Ring, 16);
            let (mut sim, ids, sh) = CollShared::build(cfg);
            let res = sh.run(&mut sim, &ids).unwrap();
            assert_eq!(res.stats.chunks, 0, "{op:?} single rank sends nothing");
            sh.check(&sim, &ids);
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
            let (mut sim, ids, sh) = CollShared::build(cfg);
            sh.run(&mut sim, &ids).unwrap();
            sh.check(&sim, &ids);
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
            CollShared::build_and_run(cfg).unwrap().time_per_round
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
            CollShared::build_and_run(cfg).unwrap()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.total, b.total);
        assert_eq!(a.stats, b.stats);
    }
}
