//! The wavefront-sweep proxy app: a different communication pattern on
//! the same GPU-aware asynchronous runtime. Shows both granularity
//! regimes — overdecomposition cuts the latency of a single sweep front
//! crossing the machine, while steady-state throughput prefers coarser
//! blocks (the same trade-off the paper quantifies for Jacobi3D).
//!
//! ```text
//! cargo run --release --example wavefront [nodes]
//! ```

use gaat::jacobi3d::Dims;
use gaat::rt::{App, MachineConfig};
use gaat::sweep3d::{SweepConfig, SweepShared};

fn main() {
    let nodes: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("nodes must be a number"))
        .unwrap_or(4);
    let global = Dims::cube(768);
    println!(
        "wavefront sweep of a 768x768x768 grid over {nodes} nodes ({} GPUs)\n",
        nodes * 6
    );

    println!("single-sweep latency (pipeline fill):");
    for odf in [1usize, 2, 4, 8] {
        let mut cfg = SweepConfig::new(MachineConfig::summit(nodes), global);
        cfg.odf = odf;
        cfg.sweeps = 1;
        cfg.warmup = 0;
        let r = SweepShared::build_and_run(cfg).expect("every block finishes");
        println!("  ODF {odf}: {:>10}", r.total);
    }

    println!("\nsteady-state time per sweep (8 back-to-back sweeps):");
    for odf in [1usize, 2, 4, 8] {
        let mut cfg = SweepConfig::new(MachineConfig::summit(nodes), global);
        cfg.odf = odf;
        cfg.sweeps = 8;
        cfg.warmup = 2;
        let r = SweepShared::build_and_run(cfg).expect("every block finishes");
        println!(
            "  ODF {odf}: {:>10}   (cpu {:.2})",
            r.unit, r.cpu_utilization
        );
    }
    println!(
        "\nFiner blocks shorten the wavefront's critical path but add per-chare\n\
         overheads once the pipeline is saturated — pick the ODF for the regime."
    );
}
