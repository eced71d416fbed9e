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
//! chrome://tracing or <https://ui.perfetto.dev>. `--drop RATE`, `--lb`
//! and `--collective OP` select the other profiles (see [`Args`]); an
//! unknown argument, a missing value or an unparsable rate prints the
//! usage to stderr and exits 2; a configuration that fails validation
//! (a `--drop` rate outside [0, 1] or NaN) prints the error and exits 2.

use gaat::jacobi3d::{charm, CommMode, Dims, JacobiConfig};
use gaat::rt::{App, LbPolicy, MachineConfig};
use gaat::sim::{FaultPlan, SimDuration, SimTime, StragglerWindow, Tracer};
use std::path::PathBuf;

/// Command-line options.
#[derive(Default)]
struct Args {
    /// `--trace-out PATH`: write the merged Chrome trace there.
    trace_out: Option<PathBuf>,
    /// `--drop RATE` injects stochastic message loss (reliable transport
    /// on): the retransmissions then show up both in the counters and as
    /// extra spans on the fabric link lanes of the exported trace.
    drop: Option<f64>,
    /// `--lb` arms the adaptive load balancer against an injected GPU
    /// straggler window and prints the closed-loop counters after the
    /// run: LB rounds planned/applied/declined, chares migrated,
    /// host-side plan/apply latency, and the hottest-link utilization
    /// before/after the last applied plan. Migration markers land on
    /// their own lane in the Chrome trace export.
    lb: bool,
    /// `--collective {allreduce,alltoall}` profiles the gaat-coll proxy
    /// app instead of Jacobi3D: per-algorithm traffic counters (bytes,
    /// chunks, steps, reduced elements) plus the usual GPU-side kernel
    /// breakdown.
    collective: Option<String>,
}

/// Parse the command line; a flag's value may follow it or be attached
/// with `=`.
fn parse_args() -> Result<Args, String> {
    let mut out = Args::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, v)) => (flag, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| args.next().filter(|v| !v.starts_with("--")))
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--trace-out" => out.trace_out = Some(value()?.into()),
            "--drop" => {
                let rate = value()?;
                let rate = rate
                    .parse()
                    .map_err(|_| format!("--drop needs a number, got {rate:?}"))?;
                out.drop = Some(rate);
            }
            "--lb" if inline.is_none() => out.lb = true,
            "--collective" => out.collective = Some(value()?),
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    if out.collective.is_some() && (out.drop.is_some() || out.lb || out.trace_out.is_some()) {
        return Err("--drop, --lb and --trace-out are not supported with --collective".into());
    }
    Ok(out)
}

/// The `--collective` microbench: back-to-back collectives on two
/// simulated nodes with tracing on, counters per algorithm.
fn collective_profile(which: &str) {
    use gaat::coll::{payload_bytes, Algorithm, CollAppConfig, CollOp, CollShared};

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
        let (mut sim, ids, app) = CollShared::build(cfg);
        let res = app.run(&mut sim, &ids).expect("every rank finishes");
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
    let Args {
        trace_out,
        drop,
        lb,
        collective,
    } = parse_args().unwrap_or_else(|e| {
        eprintln!(
            "error: {e}\nusage: profile_run [--trace-out PATH] [--drop RATE] [--lb] \
             [--collective allreduce|alltoall]"
        );
        std::process::exit(2);
    });
    if let Some(which) = collective {
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
    if let Err(e) = charm::Shared::validate(&cfg) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let (mut sim, ids, sh) = charm::Shared::build(cfg);
    let result = sh.run(&mut sim, &ids).expect("every block finishes");
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
