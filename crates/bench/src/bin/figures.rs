//! Regenerate the paper's evaluation figures.
//!
//! ```text
//! cargo run --release -p gaat-bench --bin figures -- [--fig all|6|6s|7|7a|7b|7c|512|8|9|ablations|protocols|coll]
//!                                                    [--effort quick|standard|full]
//!                                                    [--topology flat|fattree]
//!                                                    [--out results]
//! ```
//!
//! Each figure is written as `results/figN.csv` and printed as an ASCII
//! table; Fig. 9 additionally prints the graph-execution speedups. `6s`
//! is Fig. 6 in the transfer-bound regime (768³ strong, 4–32 nodes);
//! `512` is the §IV-C headline (Charm-D and Charm-H, 3072³, 128–512
//! nodes, whatever the effort's node cap); `protocols` prints the
//! OSU-style protocol landscape and `coll` the allreduce, MoE alltoall
//! and training-overlap tables (smoke sizes at `quick`), and neither
//! writes a CSV. The `full` effort matches the paper's scale (512 nodes,
//! 100 iterations, 3 seeds) and takes a long time; `standard` (default)
//! reproduces every qualitative claim in minutes.
//!
//! `--topology fattree` runs the figures and the Jacobi3D ablations on
//! the fat-tree interconnect instead of the flat one and writes
//! `figN-fattree.csv`, so the committed flat results are never
//! overwritten. The protocol landscape, the collective tables, the
//! Channel-API, completion and fault-sweep ablations and the adaptive-LB
//! table keep their fixed machines whatever the flag says.
//!
//! An unknown argument or value, or a flag with no value, prints the
//! usage and the valid values to stderr and exits 2.

use std::path::PathBuf;

use gaat_bench::harness::{print_table, write_csv};
use gaat_bench::{
    ablation, best_per_point, coll, fig512, fig6, fig6s, fig7a, fig7b, fig7c, fig8, fig9, Effort,
    Topology,
};

/// Every `--fig` value; `7` selects 7a, 7b and 7c.
const FIGS: [&str; 13] = [
    "all",
    "6",
    "6s",
    "7",
    "7a",
    "7b",
    "7c",
    "512",
    "8",
    "9",
    "ablations",
    "protocols",
    "coll",
];

/// `(fig, effort name, effort, out)` from the command line; the effort
/// carries the `--topology` choice.
fn parse_args() -> Result<(String, String, Effort, PathBuf), String> {
    let (mut fig, mut effort_name) = ("all".to_string(), "standard".to_string());
    let (mut topology, mut out) = (Topology::Flat, PathBuf::from("results"));
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--fig" => fig = value()?,
            "--effort" => effort_name = value()?,
            "--topology" => {
                topology = match value()?.as_str() {
                    "flat" => Topology::Flat,
                    "fattree" => Topology::FatTree,
                    other => {
                        return Err(format!("unknown topology {other:?}; valid: flat, fattree"))
                    }
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !FIGS.contains(&fig.as_str()) {
        return Err(format!(
            "unknown figure {fig:?}; valid: {}",
            FIGS.join(", ")
        ));
    }
    let mut effort = match effort_name.as_str() {
        "quick" => Effort::quick(),
        "standard" => Effort::standard(),
        "full" => Effort::full(),
        other => {
            return Err(format!(
                "unknown effort {other:?}; valid: quick, standard, full"
            ))
        }
    };
    effort.topology = topology;
    Ok((fig, effort_name, effort, out))
}

fn main() {
    let (fig, effort_name, effort, out) = parse_args().unwrap_or_else(|e| {
        eprintln!(
            "{e}\nusage: figures [--fig {}] [--effort quick|standard|full] \
             [--topology flat|fattree] [--out DIR]",
            FIGS.join("|")
        );
        std::process::exit(2);
    });
    let topology = effort.topology;
    println!(
        "effort={effort_name}: iters={} warmup={} max_nodes={} odfs={:?} seeds={:?} jitter={:?}",
        effort.iters, effort.warmup, effort.max_nodes, effort.odfs, effort.seeds, effort.jitter
    );
    println!("machine model (1 node shown): {:?}", effort.machine(1));
    let csv = |name: &str| match topology {
        Topology::Flat => out.join(format!("{name}.csv")),
        Topology::FatTree => out.join(format!("{name}-fattree.csv")),
    };

    let want = |name: &str| fig == "all" || fig == name || (name.starts_with(&fig) && fig == "7");

    if want("6") {
        let rows = fig6(&effort);
        write_csv(&csv("fig6"), &rows).expect("write fig6 CSV");
        print_table(
            "Fig 6 — Charm-H host-staging, before vs after optimizations (6a weak 1536^3/node, 6b strong 3072^3)",
            &rows,
        );
    }
    if want("6s") {
        let rows = fig6s(&effort);
        write_csv(&csv("fig6s"), &rows).expect("write fig6s CSV");
        print_table(
            "Fig 6 (transfer-bound) — Charm-H original vs optimized, strong 768^3",
            &rows,
        );
    }
    if want("7a") {
        let rows = fig7a(&effort);
        write_csv(&csv("fig7a"), &rows).expect("write fig7a CSV");
        print_table("Fig 7a — weak scaling, 1536^3 per node (all ODFs)", &rows);
        print_table("Fig 7a — best ODF per point", &best_per_point(&rows));
    }
    if want("7b") {
        let rows = fig7b(&effort);
        write_csv(&csv("fig7b"), &rows).expect("write fig7b CSV");
        print_table("Fig 7b — weak scaling, 192^3 per node (all ODFs)", &rows);
        print_table("Fig 7b — best ODF per point", &best_per_point(&rows));
    }
    if want("7c") {
        let rows = fig7c(&effort);
        write_csv(&csv("fig7c"), &rows).expect("write fig7c CSV");
        print_table("Fig 7c — strong scaling, 3072^3 global (all ODFs)", &rows);
        print_table("Fig 7c — best ODF per point", &best_per_point(&rows));
    }
    if want("512") {
        let rows = fig512(&effort);
        write_csv(&csv("fig512"), &rows).expect("write fig512 CSV");
        print_table(
            "§IV-C headline — Charm-D vs Charm-H, strong 3072^3 at 128-512 nodes",
            &rows,
        );
    }
    if want("8") {
        let rows = fig8(&effort);
        write_csv(&csv("fig8"), &rows).expect("write fig8 CSV");
        print_table("Fig 8 — kernel fusion on Charm-D, strong 768^3", &rows);
    }
    if want("9") {
        let rows = fig9(&effort);
        write_csv(&csv("fig9"), &rows).expect("write fig9 CSV");
        print_table("Fig 9 — graph execution on Charm-D, strong 768^3", &rows);
        println!("\n=== Fig 9 — speedup from graphs (baseline / graphs) ===");
        for (series, nodes, speedup) in gaat_bench::figures::fig9_speedups(&rows) {
            println!("  {series:<22} {nodes:>4} nodes: {speedup:.2}x");
        }
    }
    if want("ablations") {
        let mut rows = Vec::new();
        rows.extend(ablation::comm_priority(&effort, 8.min(effort.max_nodes)));
        rows.extend(ablation::pipeline_threshold_sweep(&effort));
        rows.extend(ablation::ampi_virtualization(
            &effort,
            4.min(effort.max_nodes),
        ));
        write_csv(&csv("ablations"), &rows).expect("write ablations CSV");
        print_table("Ablations — stream priority & protocol threshold", &rows);

        let (ch, gm) = ablation::channel_vs_gpu_messaging(96 << 10, 20);
        println!("\n=== Ablation — Channel API vs GPU Messaging API (96 KiB device ping-pong) ===");
        println!("  Channel API       : {ch:.1} us/hop");
        println!(
            "  GPU Messaging API : {gm:.1} us/hop   ({:.2}x slower)",
            gm / ch
        );

        let (sync_us, async_us) = ablation::sync_vs_async_completion(4, 16, 50);
        println!("\n=== Ablation — Fig 4: completion detection (4 chares on one PE) ===");
        println!("  synchronous  : {sync_us:.1} us makespan");
        println!(
            "  asynchronous : {async_us:.1} us makespan ({:.2}x faster)",
            sync_us / async_us
        );

        println!("\n=== Ablation — fault sweep (HostStaging, 2x2 validation machine, 8 iters) ===");
        println!(
            "{:>6} {:>4} {:>9} {:>9} | {:>12} {:>11} {:>10}",
            "drop", "odf", "retries", "lb", "us/iter", "retransmits", "stalled"
        );
        for r in ablation::fault_sweep() {
            println!(
                "{:>6.2} {:>4} {:>9} {:>9} | {:>12} {:>11} {:>10}",
                r.drop_rate,
                r.odf,
                if r.retries { "on" } else { "off" },
                format!("{:?}", r.lb).to_lowercase(),
                r.us_per_iter
                    .map_or_else(|| "-".to_string(), |us| format!("{us:.1}")),
                r.retransmits,
                r.stalled
            );
        }

        let lb = ablation::lb_table(16);
        println!(
            "\n=== Ablation — adaptive LB vs GPU 2 at 4x and link {:?} at 25% (192^3, 16 iters, period {} ns) ===",
            lb.hot_link,
            lb.period.as_ns()
        );
        for (name, c) in [
            ("fault_free", &lb.fault_free),
            ("static", &lb.frozen),
            ("greedy", &lb.greedy),
            ("adaptive", &lb.adaptive),
        ] {
            println!(
                "  {name:<11} total {:>10} ns  lb {:>2} rounds / {:>2} applied / {:>2} migrations  plan {:>5.1} us/round",
                c.total_ns,
                c.lb.rounds,
                c.lb.applied,
                c.lb.migrations,
                c.lb.plan_host_ns as f64 / 1e3 / c.lb.rounds.max(1) as f64,
            );
        }
        println!(
            "  adaptive recovers {:.1}% of the static-vs-fault-free gap",
            100.0 * lb.recovery()
        );
    }
    if want("protocols") {
        println!("\n=== Protocol landscape — one-way latency and bandwidth per protocol ===");
        println!(
            "{:>10}  {:<7} {:<18} {:>12} {:>12}",
            "bytes", "space", "protocol", "latency", "bandwidth"
        );
        for p in gaat_bench::protocols::landscape(32 << 20) {
            println!(
                "{:>10}  {:<7} {:<18} {:>9.1} us {:>9.2} GB/s",
                p.bytes, p.space, p.protocol, p.latency_us, p.bandwidth_gbs
            );
        }
        println!(
            "\nNote the pipelined-staging cliff past 512 KiB device messages —\n\
             the protocol switch behind the paper's Fig. 7a result."
        );
    }
    if want("coll") {
        // Allreduce and skewed MoE on 4 nodes under both topologies, then
        // the training step's overlap; smoke sizes at quick effort.
        let small = effort_name == "quick";
        println!(
            "\n=== Collectives — allreduce and MoE alltoall on 4 nodes, training overlap on 2 ==="
        );
        for c in coll::allreduce(small) {
            println!(
                "allreduce {:<5} {:<8} round {:>12} ns  bus {:>8.2} GB/s  inter {:>12} B  max_util {:.3}",
                c.algorithm, c.topology, c.round_ns, c.bus_gbps, c.inter_bytes, c.max_link_utilization
            );
        }
        for c in coll::moe(small) {
            println!(
                "moe      {:<8} {:<12} round {:>12} ns  inter {:>12} B  peak_flows {:>3}  max_util {:.3}",
                c.topology, c.placement, c.round_ns, c.inter_bytes, c.peak_link_flows, c.max_link_utilization
            );
        }
        let o = coll::overlap(small);
        println!(
            "overlap        full {} ns  compute {} ns  comm {} ns  serial {} ns  comm hidden {:.0}%",
            o.full_ns,
            o.compute_ns,
            o.comm_ns,
            o.serial_ns,
            o.comm_hidden * 100.0,
        );
    }
    println!("\nCSV written under {}", out.display());
}
