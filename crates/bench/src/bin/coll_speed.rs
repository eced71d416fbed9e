//! Collective-performance slice bench, written to `BENCH_coll.json`.
//!
//! Three parts, all on 4 Summit nodes with jitter off:
//!
//! - `allreduce`: algorithm (ring/tree) × topology (flat/fat-tree)
//!   sweep — bus bandwidth, round time, and the fabric's link counters.
//!   Under spine contention ring's neighbour traffic and tree's incast
//!   behave measurably differently.
//! - `moe_alltoall`: the skew-routed MoE dispatch/combine under
//!   topology × placement. The hot experts concentrate incast, so
//!   Packed (hot experts share one node) and RoundRobin separate on the
//!   fat tree — the placement signal a uniform alltoall cannot show.
//! - `dptrain_overlap`: data-parallel training step time for the full
//!   overlapped step vs compute-only vs comm-only vs serialized
//!   (overlap off), demonstrating communication hiding.
//!
//! The correctness pins on these workloads (bit-identity against the
//! scalar references, step time below compute + comm) are unit tests
//! in `gaat-coll` and `gaat-dptrain`.
//!
//! Usage: `coll_speed [--smoke] [--out PATH]` (default
//! `BENCH_coll.json`).

use std::time::Instant;

use gaat_coll::{build, payload_bytes, run, Algorithm, CollAppConfig, CollOp, RankPlacement};
use gaat_dptrain::moe::{build_moe, moe_payload_bytes, run_moe, MoeConfig};
use gaat_dptrain::{TrainConfig, TrainMode};
use gaat_rt::MachineConfig;

/// One allreduce sweep cell.
struct AllreduceCell {
    algorithm: &'static str,
    topology: &'static str,
    round_ns: u64,
    bus_gbps: f64,
    inter_bytes: u64,
    max_link_utilization: f64,
    wall_s: f64,
}

fn allreduce_cell(alg: Algorithm, topology: &'static str, smoke: bool) -> AllreduceCell {
    let mut machine = if topology == "fattree" {
        MachineConfig::summit_fattree(4)
    } else {
        MachineConfig::summit(4)
    };
    machine.net.jitter = 0.0;
    let count = if smoke { 1 << 18 } else { 1 << 22 };
    let mut cfg = CollAppConfig::new(machine, CollOp::AllReduce, alg, count);
    cfg.rounds = if smoke { 2 } else { 6 };
    cfg.warmup = 1;
    let ranks = cfg.effective_ranks();
    let start = Instant::now();
    let (mut sim, ids, sh) = build(cfg);
    let res = run(&mut sim, &ids, &sh);
    let wall_s = start.elapsed().as_secs_f64();
    let stats = sim.machine.fabric.stats();
    AllreduceCell {
        algorithm: match alg {
            Algorithm::Ring => "ring",
            Algorithm::Tree => "tree",
        },
        topology,
        round_ns: res.time_per_round.as_ns(),
        bus_gbps: res.bus_bandwidth(
            CollOp::AllReduce,
            ranks,
            payload_bytes(CollOp::AllReduce, ranks, count),
        ) / 1e9,
        inter_bytes: stats.inter_bytes,
        max_link_utilization: stats.max_link_utilization,
        wall_s,
    }
}

/// One MoE placement-ablation cell.
struct MoeCell {
    topology: &'static str,
    placement: &'static str,
    round_ns: u64,
    payload_bytes: u64,
    inter_bytes: u64,
    peak_link_flows: u32,
    max_link_utilization: f64,
    wall_s: f64,
}

fn moe_cell(topology: &'static str, placement: RankPlacement, smoke: bool) -> MoeCell {
    let mut machine = if topology == "fattree" {
        MachineConfig::summit_fattree(4)
    } else {
        MachineConfig::summit(4)
    };
    machine.net.jitter = 0.0;
    let (tokens, hidden) = if smoke { (256, 64) } else { (2048, 256) };
    let mut cfg = MoeConfig::new(machine, tokens, hidden);
    // One node's worth of hot experts drawing most tokens: Packed puts
    // them all behind one leaf, RoundRobin spreads the incast.
    cfg.hot_experts = cfg.machine.pes_per_node;
    cfg.hot_frac = 0.7;
    cfg.placement = placement;
    cfg.rounds = if smoke { 1 } else { 4 };
    cfg.warmup = 1;
    let start = Instant::now();
    let (mut sim, ids, sh) = build_moe(cfg);
    let res = run_moe(&mut sim, &ids, &sh);
    let wall_s = start.elapsed().as_secs_f64();
    let stats = sim.machine.fabric.stats();
    MoeCell {
        topology,
        placement: match placement {
            RankPlacement::Packed => "packed",
            RankPlacement::RoundRobin => "round_robin",
        },
        round_ns: res.time_per_round.as_ns(),
        payload_bytes: moe_payload_bytes(&sh),
        inter_bytes: stats.inter_bytes,
        peak_link_flows: stats.peak_link_flows,
        max_link_utilization: stats.max_link_utilization,
        wall_s,
    }
}

/// Training overlap measurement: the same step, decomposed.
struct OverlapResult {
    full_ns: u64,
    compute_ns: u64,
    comm_ns: u64,
    serial_ns: u64,
    /// Fraction of the comm time hidden under compute.
    comm_hidden: f64,
}

fn overlap_cells(smoke: bool) -> OverlapResult {
    let step = |mode: TrainMode, overlap: bool| {
        let params = if smoke { 1 << 18 } else { 1 << 22 };
        let mut cfg = TrainConfig::new(MachineConfig::summit(2), params);
        cfg.machine.net.jitter = 0.0;
        cfg.mode = mode;
        cfg.overlap = overlap;
        // Enough arithmetic per parameter that compute and comm are the
        // same order of magnitude — otherwise there is nothing to hide.
        cfg.intensity = 1024;
        cfg.buckets = 8;
        cfg.chunk = 1 << 14;
        cfg.steps = if smoke { 2 } else { 4 };
        cfg.warmup = 1;
        gaat_dptrain::train::train(cfg).time_per_step.as_ns()
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

/// `(smoke, out)` from the command line.
fn parse_args() -> Result<(bool, String), String> {
    let mut smoke = false;
    let mut out = "BENCH_coll.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out = args
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or("--out needs a path")?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((smoke, out))
}

fn main() {
    let (smoke, out) = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\nusage: coll_speed [--smoke] [--out PATH]");
        std::process::exit(2);
    });

    let mut guard = gaat_bench::throttle::ThrottleGuard::open(if smoke { 2 } else { 5 });

    let allreduce = vec![
        allreduce_cell(Algorithm::Ring, "flat", smoke),
        allreduce_cell(Algorithm::Tree, "flat", smoke),
        allreduce_cell(Algorithm::Ring, "fattree", smoke),
        allreduce_cell(Algorithm::Tree, "fattree", smoke),
    ];
    let moe = vec![
        moe_cell("flat", RankPlacement::Packed, smoke),
        moe_cell("flat", RankPlacement::RoundRobin, smoke),
        moe_cell("fattree", RankPlacement::Packed, smoke),
        moe_cell("fattree", RankPlacement::RoundRobin, smoke),
    ];
    let overlap = overlap_cells(smoke);
    guard.close();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"coll_speed\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str("  \"allreduce\": [\n");
    for (i, c) in allreduce.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"algorithm\": \"{}\", \"topology\": \"{}\", \"round_ns\": {}, \"bus_gbps\": {:.3}, \"inter_bytes\": {}, \"max_link_utilization\": {:.4}, \"wall_s\": {:.6}}}{}\n",
            c.algorithm,
            c.topology,
            c.round_ns,
            c.bus_gbps,
            c.inter_bytes,
            c.max_link_utilization,
            c.wall_s,
            if i + 1 < allreduce.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"moe_alltoall\": [\n");
    for (i, c) in moe.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"topology\": \"{}\", \"placement\": \"{}\", \"round_ns\": {}, \"payload_bytes\": {}, \"inter_bytes\": {}, \"peak_link_flows\": {}, \"max_link_utilization\": {:.4}, \"wall_s\": {:.6}}}{}\n",
            c.topology,
            c.placement,
            c.round_ns,
            c.payload_bytes,
            c.inter_bytes,
            c.peak_link_flows,
            c.max_link_utilization,
            c.wall_s,
            if i + 1 < moe.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"dptrain_overlap\": {{\"full_ns\": {}, \"compute_ns\": {}, \"comm_ns\": {}, \"serial_ns\": {}, \"comm_hidden\": {:.3}}},\n",
        overlap.full_ns,
        overlap.compute_ns,
        overlap.comm_ns,
        overlap.serial_ns,
        overlap.comm_hidden,
    ));
    json.push_str(&format!(
        "  \"steady_state\": {}\n}}\n",
        guard.json_object()
    ));

    for c in &allreduce {
        println!(
            "allreduce {:<5} {:<8} round {:>12} ns  bus {:>8.2} GB/s  inter {:>12} B  max_util {:.3}",
            c.algorithm, c.topology, c.round_ns, c.bus_gbps, c.inter_bytes, c.max_link_utilization
        );
    }
    for c in &moe {
        println!(
            "moe      {:<8} {:<12} round {:>12} ns  inter {:>12} B  peak_flows {:>3}  max_util {:.3}",
            c.topology, c.placement, c.round_ns, c.inter_bytes, c.peak_link_flows, c.max_link_utilization
        );
    }
    println!(
        "overlap        full {} ns  compute {} ns  comm {} ns  serial {} ns  comm hidden {:.0}%",
        overlap.full_ns,
        overlap.compute_ns,
        overlap.comm_ns,
        overlap.serial_ns,
        overlap.comm_hidden * 100.0,
    );
    println!(
        "steady-state drift {:.3}x{}",
        guard.slowdown_ratio(),
        if guard.throttle_suspected() {
            "  ** thermal throttle suspected — numbers are biased **"
        } else {
            ""
        }
    );
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");
}
