//! Nsight-style profiling of a Jacobi3D run — the analysis the paper used
//! to find its §III-C optimizations ("After profiling the performance of
//! Jacobi3D with NVIDIA Nsight Systems, we observe that there is room for
//! another optimization...").
//!
//! Runs Charm-D on one simulated node with tracing enabled, prints the
//! per-kernel time breakdown for GPU 0, per-PE scheduler utilization, and
//! an ASCII timeline of one GPU's engines across two iterations — showing
//! pack/unpack kernels, transfers, and the update kernel overlapping.
//!
//! ```text
//! cargo run --release --example profile_run
//! ```
//!
//! Pass `--trace-out PATH` to also write the merged timeline (PE lanes,
//! GPU engine lanes, fabric link lanes) as Chrome `trace_event` JSON for
//! chrome://tracing or <https://ui.perfetto.dev>.

use gaat::jacobi3d::{charm, CommMode, Dims, JacobiConfig};
use gaat::rt::{LbPolicy, MachineConfig};
use gaat::sim::{FaultPlan, SimDuration, SimTime, StragglerWindow, Tracer};

fn trace_out_path() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace-out" {
            let path = args.next().expect("--trace-out requires a path");
            return Some(path.into());
        }
        if let Some(path) = arg.strip_prefix("--trace-out=") {
            return Some(path.into());
        }
    }
    None
}

/// `--drop RATE` injects stochastic message loss (reliable transport
/// on): the retransmissions then show up both in the counters and as
/// extra spans on the fabric link lanes of the exported trace.
fn drop_rate() -> Option<f64> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--drop" {
            let p = args.next().expect("--drop requires a rate");
            return Some(p.parse().expect("parse drop rate"));
        }
        if let Some(p) = arg.strip_prefix("--drop=") {
            return Some(p.parse().expect("parse drop rate"));
        }
    }
    None
}

/// `--lb` arms the adaptive load balancer against an injected GPU
/// straggler window and prints the closed-loop counters after the run:
/// LB rounds planned/applied/declined, chares migrated, host-side
/// plan/apply latency, and the hottest-link utilization before/after
/// the last applied plan. Migration markers land on their own lane in
/// the Chrome trace export.
fn lb() -> bool {
    std::env::args().skip(1).any(|a| a == "--lb")
}

/// `--collective {allreduce,alltoall}` profiles the gaat-coll proxy app
/// instead of Jacobi3D: per-algorithm traffic counters (bytes, chunks,
/// steps, reduced elements) plus the usual GPU-side kernel breakdown.
fn collective() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--collective" {
            return Some(args.next().expect("--collective requires an op"));
        }
        if let Some(op) = arg.strip_prefix("--collective=") {
            return Some(op.to_string());
        }
    }
    None
}

/// The `--collective` microbench: back-to-back collectives on two
/// simulated nodes with tracing on, counters per algorithm.
fn collective_profile(which: &str) {
    use gaat::coll::{build, payload_bytes, run, Algorithm, CollAppConfig, CollOp};

    let algorithms: Vec<(&str, CollOp, Algorithm)> = match which {
        "allreduce" => vec![
            ("ring", CollOp::AllReduce, Algorithm::Ring),
            ("tree", CollOp::AllReduce, Algorithm::Tree),
        ],
        "alltoall" => vec![("pairwise", CollOp::AllToAll, Algorithm::Ring)],
        other => {
            eprintln!("error: unknown collective {other:?} (allreduce | alltoall)");
            std::process::exit(2);
        }
    };
    for (name, op, alg) in algorithms {
        let mut machine = MachineConfig::summit(2);
        machine.trace = true;
        let count = 1 << 20;
        let mut cfg = CollAppConfig::new(machine, op, alg, count);
        cfg.rounds = 4;
        cfg.warmup = 1;
        let ranks = cfg.effective_ranks();
        let (mut sim, ids, sh) = build(cfg);
        let res = run(&mut sim, &ids, &sh);
        let bytes = payload_bytes(op, ranks, count);
        println!("== {which} ({name}) on {ranks} ranks, {count} elements ==");
        println!(
            "  {} per round  ({:.2} GB/s bus bandwidth)",
            res.time_per_round,
            res.bus_bandwidth(op, ranks, bytes) / 1e9
        );
        println!(
            "  counters: {} wire bytes, {} chunks, {} lane steps, {} elements reduced, {} rounds",
            res.stats.bytes,
            res.stats.chunks,
            res.stats.steps,
            res.stats.reduced_elems,
            res.stats.rounds
        );
        println!("  GPU 0 time by kernel / transfer:");
        for s in sim.machine.devices[0].tracer.summary() {
            println!(
                "    {:<10} {:<12} x{:<5} total {}",
                s.category, s.label, s.count, s.total
            );
        }
        println!();
    }
}

fn main() {
    let trace_out = trace_out_path();
    let drop = drop_rate();
    let lb = lb();
    if let Some(which) = collective() {
        if drop.is_some() || lb {
            eprintln!("error: --drop/--lb are not supported with --collective");
            std::process::exit(2);
        }
        collective_profile(&which);
        return;
    }
    // Loss needs inter-node traffic to act on; the fault-free profile
    // keeps the paper's single-node Nsight setup.
    let mut machine = MachineConfig::summit(if drop.is_some() { 2 } else { 1 });
    machine.trace = true;
    if let Some(p) = drop {
        machine.faults = FaultPlan {
            seed: 42,
            drop_prob: p,
            ..FaultPlan::none()
        };
        machine.ucx.reliability.enabled = true;
    }
    if lb {
        // Give the balancer something to fix: GPU 0 throttled 3x for the
        // whole run. Migrations ride the checkpoint/restore path, so
        // checkpointing and the reliable transport come on with it.
        machine.faults.stragglers.push(StragglerWindow {
            device: 0,
            from: SimTime::ZERO,
            until: SimTime::ZERO + SimDuration::from_ms(10_000),
            slowdown: 3.0,
        });
        machine.ucx.reliability.enabled = true;
        machine.lb.policy = LbPolicy::Adaptive;
        machine.lb.period = SimDuration::from_ms(2);
    }
    let mut cfg = JacobiConfig::new(machine, Dims::cube(768));
    cfg.comm = CommMode::HostStaging; // more engine traffic to look at
    cfg.odf = 2;
    cfg.iters = 6;
    cfg.warmup = 2;
    if lb {
        cfg.checkpoint_every = 1;
    }
    let (mut sim, ids, sh) = charm::build(cfg);
    let result = charm::run(&mut sim, &ids, &sh);
    println!(
        "ran {} iterations on {} chares: {} per iteration\n",
        sh.cfg.iters,
        ids.len(),
        result.time_per_iter
    );

    // Per-kernel breakdown on device 0 (what Nsight's CUDA trace shows).
    println!("== GPU 0: time by kernel / transfer ==");
    let dev = &sim.machine.devices[0];
    for s in dev.tracer.summary() {
        println!(
            "  {:<10} {:<12} x{:<5} total {}",
            s.category, s.label, s.count, s.total
        );
    }

    // Scheduler-side view (what Projections shows).
    println!("\n== PE scheduler utilization ==");
    let end = SimTime::ZERO + result.total;
    for pe in 0..sim.machine.pes.len() {
        let busy = sim.machine.tracer.lane_busy(pe as u32, SimTime::ZERO, end);
        println!(
            "  PE {pe}: {:5.1}% busy  ({} messages)",
            100.0 * busy.as_ns() as f64 / end.as_ns() as f64,
            sim.machine.pes[pe].stats.messages
        );
    }

    // Fault/reliability counters (all zero on a clean run; `--drop`
    // makes the retry machinery visible here and on the link lanes).
    let ucx = sim.machine.ucx.stats();
    let net = sim.machine.fabric.stats();
    println!("\n== fault / reliability counters ==");
    println!(
        "  fabric: {} drops, {} corrupts, {} failovers, {} no-routes",
        net.drops, net.corrupts, net.failovers, net.no_routes
    );
    println!(
        "  ucx:    {} retransmits, {} timeouts, {} duplicates, {} acks sent/{} received, {} peers dead",
        ucx.retransmits, ucx.timeouts, ucx.duplicates, ucx.acks_sent, ucx.acks_received, ucx.peers_dead
    );

    // Closed-loop balancer counters (the --lb profile).
    if lb {
        let s = sim.machine.lb_stats();
        println!("\n== adaptive load balancer ==");
        println!(
            "  {} rounds: {} applied, {} declined, {} chares migrated",
            s.rounds, s.applied, s.declined, s.migrations
        );
        println!(
            "  host latency: plan {:.1} us/round, apply {:.1} us/round",
            s.plan_host_ns as f64 / 1e3 / s.rounds.max(1) as f64,
            s.apply_host_ns as f64 / 1e3 / s.applied.max(1) as f64,
        );
        println!(
            "  hottest link around last applied plan: {:.1}% -> {:.1}% utilized",
            100.0 * s.last_util_before,
            100.0 * s.last_util_after
        );
    }

    // Timeline of GPU 0's engines across iterations 3-4 of the run.
    let from = result.warm_at;
    let to = from + (result.time_per_iter * 2);
    println!("\n== GPU 0 engine timeline (two iterations) ==");
    println!("   u = update, p = pack(+fused), d/h = DMA, . = idle\n");
    print!(
        "{}",
        dev.tracer
            .ascii_timeline(&[(0, "compute"), (1, "d2h"), (2, "h2d")], from, to, 100)
    );
    println!(
        "\nNote how transfers and (un)packing overlap with the update kernel —\n\
         the concurrency the paper's optimized implementation creates by using\n\
         separate high-priority streams per direction (§III-C)."
    );

    if let Some(path) = trace_out {
        // Merge every tracer into one timeline with disjoint lane
        // ranges: PEs first, then each device's engines, then fabric
        // links.
        let mut merged = Tracer::enabled();
        merged.extend_from(&sim.machine.tracer, 0);
        // Lane pes.len() is the machine's LB-migration marker lane;
        // device lanes start above it so the markers stay visible.
        let mut lane = sim.machine.pes.len() as u32 + 1;
        for dev in &sim.machine.devices {
            merged.extend_from(&dev.tracer, lane);
            lane += 8; // engine lanes per device
        }
        merged.extend_from(&sim.machine.fabric.tracer, lane);
        merged.export_chrome(&path).expect("write chrome trace");
        println!(
            "\nwrote {} spans of Chrome trace JSON to {}",
            merged.spans().len(),
            path.display()
        );
    }
}
