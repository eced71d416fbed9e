//! Quickstart: run the Jacobi3D proxy application in all four of the
//! paper's configurations on a small simulated cluster, verify the
//! numerics against the sequential reference, and print a comparison.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gaat::jacobi3d::mpi_app::MpiShared;
use gaat::jacobi3d::{charm, CommMode, Dims, JacobiConfig};
use gaat::rt::{App, MachineConfig};

fn main() {
    // ----- Part 1: functional validation on a small real-data grid -----
    println!("validating numerics on a 16^3 grid (real buffers, 2 nodes x 2 GPUs)...");
    let mut vcfg = JacobiConfig::new(MachineConfig::validation(2, 2), Dims::cube(16));
    vcfg.comm = CommMode::GpuAware;
    vcfg.odf = 2;
    vcfg.iters = 5;
    vcfg.warmup = 2;
    let (mut sim, ids, app) = charm::Shared::build(vcfg.clone());
    app.run(&mut sim, &ids).expect("every block finishes");
    let cells = app.check(&sim, &ids);
    println!("  Charm-D: {cells} cells bit-identical to the reference solver");

    vcfg.odf = 1;
    let (mut sim, ids, app) = MpiShared::build(vcfg);
    app.run(&mut sim, &ids).expect("every rank finishes");
    let cells = app.check(&sim, &ids);
    println!("  MPI-D  : {cells} cells bit-identical to the reference solver");

    // ----- Part 2: performance comparison (phantom mode, larger) -----
    println!("\ncomparing the paper's four versions (192^3 per node, 4 nodes):");
    let nodes = 4;
    let global = Dims::new(192, 384, 384); // 192^3 per node over 4 nodes
    let base = |comm| {
        let mut c = JacobiConfig::new(MachineConfig::summit(nodes), global);
        c.comm = comm;
        c.iters = 30;
        c.warmup = 5;
        c
    };
    let mpi_h = MpiShared::build_and_run(base(CommMode::HostStaging)).expect("every rank finishes");
    let mpi_d = MpiShared::build_and_run(base(CommMode::GpuAware)).expect("every rank finishes");
    let mut ch = base(CommMode::HostStaging);
    ch.odf = 1;
    let charm_h = charm::Shared::build_and_run(ch).expect("every block finishes");
    let mut cd = base(CommMode::GpuAware);
    cd.odf = 1;
    let charm_d = charm::Shared::build_and_run(cd).expect("every block finishes");

    for (name, r) in [
        ("MPI-H  ", &mpi_h),
        ("MPI-D  ", &mpi_d),
        ("Charm-H", &charm_h),
        ("Charm-D", &charm_d),
    ] {
        println!(
            "  {name}: {:>9.1} us/iter   (mean CPU utilization {:.0}%)",
            r.time_per_iter.as_micros_f64(),
            r.cpu_utilization * 100.0
        );
    }
    let speedup = mpi_h.time_per_iter.as_ns() as f64 / charm_d.time_per_iter.as_ns() as f64;
    println!("\nGPU-aware asynchronous tasks (Charm-D) vs host-staging MPI: {speedup:.2}x faster");
}
