//! Collective-communication tables behind `figures --fig coll`, all on
//! Summit nodes with jitter off, in virtual time:
//!
//! - [`allreduce`]: algorithm (ring/tree) × topology (flat/fat-tree) —
//!   bus bandwidth, round time, and the fabric's link counters. Under
//!   spine contention ring's neighbour traffic and tree's incast behave
//!   measurably differently.
//! - [`moe`]: the skew-routed MoE dispatch/combine under topology ×
//!   placement. The hot experts concentrate incast, so Packed (hot
//!   experts share one node) and RoundRobin separate on the fat tree —
//!   the placement signal a uniform alltoall cannot show.
//! - [`overlap`]: data-parallel training step time for the full
//!   overlapped step vs compute-only vs comm-only vs serialized (overlap
//!   off), demonstrating communication hiding.
//!
//! Each takes `small`, which shrinks payloads and rounds to a smoke
//! size (the quick effort). The correctness pins on these workloads
//! (bit-identity against the scalar references, step time below
//! compute + comm) are unit tests in `gaat-coll` and `gaat-dptrain`.

use gaat_coll::{payload_bytes, Algorithm, CollAppConfig, CollOp, CollShared, RankPlacement};
use gaat_dptrain::{MoeConfig, MoeShared, TrainConfig, TrainMode, TrainShared};
use gaat_rt::{App, MachineConfig};

/// One allreduce cell.
pub struct AllreduceCell {
    /// `ring` or `tree`.
    pub algorithm: &'static str,
    /// `flat` or `fattree`.
    pub topology: &'static str,
    /// Simulated time per round, ns.
    pub round_ns: u64,
    /// Bus bandwidth, GB/s.
    pub bus_gbps: f64,
    /// Bytes that crossed between nodes.
    pub inter_bytes: u64,
    /// Highest link utilization (0 on the flat fabric).
    pub max_link_utilization: f64,
}

/// One MoE placement cell.
pub struct MoeCell {
    /// `flat` or `fattree`.
    pub topology: &'static str,
    /// `packed` or `round_robin`.
    pub placement: &'static str,
    /// Simulated time per dispatch/combine round, ns.
    pub round_ns: u64,
    /// Bytes that crossed between nodes.
    pub inter_bytes: u64,
    /// Most flows sharing one link at once (0 on the flat fabric).
    pub peak_link_flows: u32,
    /// Highest link utilization (0 on the flat fabric).
    pub max_link_utilization: f64,
}

/// The same training step, decomposed.
pub struct OverlapResult {
    /// Full overlapped step, ns.
    pub full_ns: u64,
    /// Compute only, ns.
    pub compute_ns: u64,
    /// Communication only, ns.
    pub comm_ns: u64,
    /// Full step with overlap off, ns.
    pub serial_ns: u64,
    /// Fraction of the comm time hidden under compute.
    pub comm_hidden: f64,
}

const TOPOLOGIES: [&str; 2] = ["flat", "fattree"];

fn machine(topology: &str) -> MachineConfig {
    let mut machine = if topology == "fattree" {
        MachineConfig::summit_fattree(4)
    } else {
        MachineConfig::summit(4)
    };
    machine.net.jitter = 0.0;
    machine
}

/// Ring and tree allreduce on 4 nodes, flat then fat tree.
pub fn allreduce(small: bool) -> Vec<AllreduceCell> {
    let mut out = Vec::new();
    for topology in TOPOLOGIES {
        for (alg, algorithm) in [(Algorithm::Ring, "ring"), (Algorithm::Tree, "tree")] {
            let count = if small { 1 << 18 } else { 1 << 22 };
            let mut cfg = CollAppConfig::new(machine(topology), CollOp::AllReduce, alg, count);
            cfg.rounds = if small { 2 } else { 6 };
            cfg.warmup = 1;
            let ranks = cfg.effective_ranks();
            let (mut sim, ids, app) = CollShared::build(cfg);
            let res = app.run(&mut sim, &ids).expect("every rank finishes");
            let stats = sim.machine.fabric.stats();
            let payload = payload_bytes(CollOp::AllReduce, ranks, count);
            out.push(AllreduceCell {
                algorithm,
                topology,
                round_ns: res.time_per_round.as_ns(),
                bus_gbps: res.bus_bandwidth(CollOp::AllReduce, ranks, payload) / 1e9,
                inter_bytes: stats.inter_bytes,
                max_link_utilization: stats.max_link_utilization,
            });
        }
    }
    out
}

/// Skewed MoE alltoall on 4 nodes: flat then fat tree, Packed then
/// RoundRobin expert placement.
pub fn moe(small: bool) -> Vec<MoeCell> {
    let mut out = Vec::new();
    for topology in TOPOLOGIES {
        for (placement, name) in [
            (RankPlacement::Packed, "packed"),
            (RankPlacement::RoundRobin, "round_robin"),
        ] {
            let (tokens, hidden) = if small { (256, 64) } else { (2048, 256) };
            let mut cfg = MoeConfig::new(machine(topology), tokens, hidden);
            // One node's worth of hot experts drawing most tokens: Packed
            // puts them all behind one leaf, RoundRobin spreads the incast.
            cfg.hot_experts = cfg.machine.pes_per_node;
            cfg.hot_frac = 0.7;
            cfg.placement = placement;
            cfg.rounds = if small { 1 } else { 4 };
            cfg.warmup = 1;
            let (mut sim, ids, app) = MoeShared::build(cfg);
            let res = app.run(&mut sim, &ids).expect("every rank finishes");
            let stats = sim.machine.fabric.stats();
            out.push(MoeCell {
                topology,
                placement: name,
                round_ns: res.time_per_round.as_ns(),
                inter_bytes: stats.inter_bytes,
                peak_link_flows: stats.peak_link_flows,
                max_link_utilization: stats.max_link_utilization,
            });
        }
    }
    out
}

/// Data-parallel training on 2 flat nodes: the full step and its parts.
pub fn overlap(small: bool) -> OverlapResult {
    let step = |mode: TrainMode, overlap: bool| {
        let params = if small { 1 << 18 } else { 1 << 22 };
        let mut cfg = TrainConfig::new(MachineConfig::summit(2), params);
        cfg.machine.net.jitter = 0.0;
        cfg.mode = mode;
        cfg.overlap = overlap;
        // Enough arithmetic per parameter that compute and comm are the
        // same order of magnitude — otherwise there is nothing to hide.
        cfg.intensity = 1024;
        cfg.buckets = 8;
        cfg.chunk = 1 << 14;
        cfg.steps = if small { 2 } else { 4 };
        cfg.warmup = 1;
        TrainShared::build_and_run(cfg)
            .expect("every rank finishes")
            .time_per_step
            .as_ns()
    };
    let full_ns = step(TrainMode::Full, true);
    let compute_ns = step(TrainMode::ComputeOnly, true);
    let comm_ns = step(TrainMode::CommOnly, true);
    let serial_ns = step(TrainMode::Full, false);
    let comm_hidden = if comm_ns > 0 {
        (compute_ns + comm_ns).saturating_sub(full_ns) as f64 / comm_ns as f64
    } else {
        0.0
    };
    OverlapResult {
        full_ns,
        compute_ns,
        comm_ns,
        serial_ns,
        comm_hidden,
    }
}
