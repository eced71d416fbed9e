//! A thousand simulations as one request: drive the `gaat-sweep` engine
//! over a 1024-scenario Jacobi3D grid (32 seeds × 4 ODFs × 2 placements
//! × 4 drop rates, faults arming mid-timeline) on the validation
//! machine, streaming one JSONL record per finished scenario and
//! printing the per-group aggregate at the end.
//!
//! Every worker recycles one world slot (engine reset between
//! scenarios); outcomes are bit-identical at any worker count, so feel
//! free to vary `SWEEP_WORKERS`. Because the drop rates only become
//! observable at the 800 us fault onset, the prefix-memoizing planner
//! groups the four drop rates of each (seed, ODF, placement) cell,
//! executes their shared prefix once, snapshots the world just before
//! the onset, and forks the remaining three scenarios from the snapshot
//! — the prefix-tree stats printed at the end show how much
//! re-execution that saved, and the records stay bit-identical to
//! unforked runs.
//!
//! ```text
//! cargo run --release -p gaat --example sweep_run
//! SWEEP_WORKERS=4 cargo run --release -p gaat --example sweep_run
//! ```

use gaat::jacobi3d::{CommMode, Dims, Placement};
use gaat::rt::MachineConfig;
use gaat::sim::{FaultPlan, SimDuration, SimTime};
use gaat::sweep::{run_sweep, ScenarioGrid, SweepOptions, Workload};

fn main() {
    let mut machine = MachineConfig::validation(2, 2);
    machine.faults = FaultPlan {
        seed: 42,
        drop_prob: 0.0,
        ..FaultPlan::none()
    };
    machine.ucx.reliability.enabled = true;

    let mut grid = ScenarioGrid::new(machine);
    grid.workloads.push(Workload::Jacobi {
        global: Dims::cube(8),
        iters: 6,
        warmup: 1,
        comm: CommMode::HostStaging,
    });
    grid.seeds = (1..=32).collect();
    grid.odfs = vec![1, 2, 4, 8];
    grid.placements = vec![Placement::Packed, Placement::RoundRobin];
    grid.drop_rates = vec![0.0, 0.01, 0.05, 0.10];
    // Faults arm most of the way through the ~1.1 ms timeline, so each
    // drop-rate cell shares a long executed prefix (the fork point).
    grid.fault_onsets = vec![SimTime::ZERO + SimDuration::from_us(800)];
    let scenarios = grid.expand();
    assert!(scenarios.len() >= 1000, "meant to demo a big batch");

    let mut opts = SweepOptions::new();
    opts.workers = std::env::var("SWEEP_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let out = std::env::temp_dir();
    opts.jsonl = Some(out.join("gaat_sweep_run.jsonl"));
    opts.csv = Some(out.join("gaat_sweep_run.csv"));

    let report = run_sweep(&scenarios, &opts).expect("sweep output files should be writable");

    println!(
        "swept {} scenarios on {} workers in {:.2}s ({:.0} scenarios/sec)",
        report.records.len(),
        report.workers,
        report.wall.as_secs_f64(),
        report.records.len() as f64 / report.wall.as_secs_f64()
    );
    println!(
        "world slots: {} prepared, {} recycled",
        report.slots.prepared, report.slots.reused
    );
    println!(
        "prefix tree: {} groups, {} snapshots taken, {} scenarios forked, \
         snapshot {:.0} us / restore {:.0} us mean",
        report.fork.groups,
        report.fork.snapshots_taken,
        report.fork.scenarios_forked,
        report.fork.snapshot_ns as f64 / report.fork.snapshots_taken.max(1) as f64 / 1e3,
        report.fork.restore_ns as f64 / report.fork.scenarios_forked.max(1) as f64 / 1e3,
    );
    println!(
        "records: {}   aggregate: {}\n",
        opts.jsonl.as_ref().unwrap().display(),
        opts.csv.as_ref().unwrap().display()
    );
    print!("{}", report.aggregate_table());
}
