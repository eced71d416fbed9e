//! Run orchestration: effort levels, result rows, parallel sweeps, CSV
//! output, and table printing.

use std::fmt;
use std::path::Path;

use gaat_jacobi3d::mpi_app::MpiShared;
use gaat_jacobi3d::{charm, CommMode, Fusion, JacobiConfig, RunResult, SyncMode};
use gaat_rt::{App, MachineConfig};

/// Which of the paper's four Jacobi3D versions to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// MPI with host staging.
    MpiH,
    /// CUDA-aware MPI.
    MpiD,
    /// Task runtime with host staging.
    CharmH,
    /// Task runtime with GPU-aware Channel API.
    CharmD,
}

impl Variant {
    /// The paper's series label.
    pub fn label(self) -> &'static str {
        match self {
            Variant::MpiH => "MPI-H",
            Variant::MpiD => "MPI-D",
            Variant::CharmH => "Charm-H",
            Variant::CharmD => "Charm-D",
        }
    }

    /// Is this a task-runtime (overdecomposable) version?
    pub fn is_charm(self) -> bool {
        matches!(self, Variant::CharmH | Variant::CharmD)
    }

    /// Halo transport of this variant.
    pub fn comm(self) -> CommMode {
        match self {
            Variant::MpiH | Variant::CharmH => CommMode::HostStaging,
            Variant::MpiD | Variant::CharmD => CommMode::GpuAware,
        }
    }
}

/// Which interconnect model the figure machines use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// The flat per-NIC model ([`MachineConfig::summit`]); the committed
    /// `results/` are flat.
    Flat,
    /// The fat-tree link graph with max-min fair sharing
    /// ([`MachineConfig::summit_fattree`]).
    FatTree,
}

/// How much compute to spend regenerating figures.
#[derive(Debug, Clone)]
pub struct Effort {
    /// Timed iterations (paper: 100).
    pub iters: usize,
    /// Warm-up iterations (paper: 10).
    pub warmup: usize,
    /// Largest node count for the scaling sweeps (paper: 512).
    pub max_nodes: usize,
    /// ODFs swept for the task-runtime versions (paper: 1..16 by 2x).
    pub odfs: Vec<usize>,
    /// RNG seeds averaged per point (paper: 3 trials).
    pub seeds: Vec<u64>,
    /// Network jitter override (`None` = machine default). Quick efforts
    /// run a single seed, so per-message jitter (±1%) is not averaged
    /// out and can flip marginal shape comparisons — they pin it to 0
    /// and assert on the noise-free means instead.
    pub jitter: Option<f64>,
    /// Interconnect model of every machine built by [`Effort::machine`].
    pub topology: Topology,
}

impl Effort {
    /// Tiny runs for integration tests (seconds of wall time).
    pub fn quick() -> Self {
        Effort {
            iters: 6,
            warmup: 2,
            max_nodes: 8,
            odfs: vec![1, 4],
            seeds: vec![1],
            jitter: Some(0.0),
            topology: Topology::Flat,
        }
    }

    /// Default for `cargo run --bin figures` (a few minutes).
    pub fn standard() -> Self {
        Effort {
            iters: 30,
            warmup: 5,
            max_nodes: 64,
            odfs: vec![1, 2, 4, 8],
            seeds: vec![1],
            jitter: None,
            topology: Topology::Flat,
        }
    }

    /// Paper-scale runs (hours): 512 nodes, 100 iterations, 3 seeds.
    pub fn full() -> Self {
        Effort {
            iters: 100,
            warmup: 10,
            max_nodes: 512,
            odfs: vec![1, 2, 4, 8, 16],
            seeds: vec![1, 2, 3],
            jitter: None,
            topology: Topology::Flat,
        }
    }

    /// The Summit-like machine of `nodes` nodes on this effort's
    /// topology.
    pub fn machine(&self, nodes: usize) -> MachineConfig {
        match self.topology {
            Topology::Flat => MachineConfig::summit(nodes),
            Topology::FatTree => MachineConfig::summit_fattree(nodes),
        }
    }

    /// Powers of two from `from` to `min(cap, max_nodes)`.
    pub fn node_counts(&self, from: usize, cap: usize) -> Vec<usize> {
        let mut v = Vec::new();
        let mut n = from;
        while n <= cap.min(self.max_nodes) {
            v.push(n);
            n *= 2;
        }
        v
    }
}

/// One measured point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Figure id ("6a", "7c", ...).
    pub figure: String,
    /// Series label as it would appear in the plot legend.
    pub series: String,
    /// Node count (x axis).
    pub nodes: usize,
    /// ODF used (1 for MPI).
    pub odf: usize,
    /// Fusion strategy.
    pub fusion: String,
    /// Graph execution on?
    pub graphs: bool,
    /// Mean time per iteration in microseconds (y axis).
    pub time_us: f64,
    /// Mean CPU utilization across PEs.
    pub cpu_util: f64,
    /// Seeds averaged.
    pub seeds: usize,
}

impl Row {
    /// The row of one seed of an unfused, graph-free run.
    pub fn single(figure: &str, series: String, nodes: usize, odf: usize, r: &RunResult) -> Row {
        Row {
            figure: figure.into(),
            series,
            nodes,
            odf,
            fusion: "None".into(),
            graphs: false,
            time_us: r.time_per_iter.as_micros_f64(),
            cpu_util: r.cpu_utilization,
            seeds: 1,
        }
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>4} nodes  {:<22} odf={:<2} {:>12.1} us/iter  (cpu {:.2})",
            self.nodes, self.series, self.odf, self.time_us, self.cpu_util
        )
    }
}

/// Run one experiment configuration, one fresh world per seed,
/// averaging over the effort's seeds.
#[allow(clippy::too_many_arguments)] // a flat experiment descriptor
pub fn run_point(
    figure: &str,
    series: &str,
    variant: Variant,
    nodes: usize,
    global: gaat_jacobi3d::Dims,
    odf: usize,
    fusion: Fusion,
    graphs: bool,
    sync: SyncMode,
    e: &Effort,
) -> Row {
    let mut total_us = 0.0;
    let mut total_cpu = 0.0;
    for &seed in &e.seeds {
        let mut cfg = JacobiConfig::new(e.machine(nodes), global);
        cfg.machine.seed = seed;
        if let Some(j) = e.jitter {
            cfg.machine.net.jitter = j;
        }
        cfg.comm = variant.comm();
        cfg.sync = sync;
        cfg.fusion = fusion;
        cfg.graphs = graphs;
        cfg.iters = e.iters;
        cfg.warmup = e.warmup;
        cfg.odf = odf;
        let r = if variant.is_charm() {
            charm::Shared::build_and_run(cfg)
        } else {
            MpiShared::build_and_run(cfg)
        }
        .expect("every block finishes");
        total_us += r.time_per_iter.as_micros_f64();
        total_cpu += r.cpu_utilization;
    }
    let n = e.seeds.len() as f64;
    Row {
        figure: figure.to_string(),
        series: series.to_string(),
        nodes,
        odf,
        fusion: format!("{fusion:?}"),
        graphs,
        time_us: total_us / n,
        cpu_util: total_cpu / n,
        seeds: e.seeds.len(),
    }
}

/// For each (series, nodes) keep only the fastest row over ODFs — how the
/// paper reports its task-runtime series ("the ODF with the best
/// performance is chosen as the representative for each point").
pub fn best_per_point(rows: &[Row]) -> Vec<Row> {
    let mut best: Vec<Row> = Vec::new();
    for r in rows {
        match best
            .iter_mut()
            .find(|b| b.series == r.series && b.nodes == r.nodes && b.figure == r.figure)
        {
            Some(b) => {
                if r.time_us < b.time_us {
                    *b = r.clone();
                }
            }
            None => best.push(r.clone()),
        }
    }
    best
}

/// Serialize rows as CSV.
pub fn write_csv(path: &Path, rows: &[Row]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "figure,series,nodes,odf,fusion,graphs,time_us,cpu_util,seeds"
    )?;
    for r in rows {
        writeln!(
            f,
            "{},{},{},{},{},{},{:.3},{:.4},{}",
            r.figure, r.series, r.nodes, r.odf, r.fusion, r.graphs, r.time_us, r.cpu_util, r.seeds
        )?;
    }
    Ok(())
}

/// Render rows as an aligned ASCII table grouped by node count.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("\n=== {title} ===");
    let mut sorted: Vec<&Row> = rows.iter().collect();
    sorted.sort_by(|a, b| {
        (&a.figure, a.nodes, &a.series, a.odf, &a.fusion, a.graphs)
            .cmp(&(&b.figure, b.nodes, &b.series, b.odf, &b.fusion, b.graphs))
    });
    let mut last_group = (String::new(), usize::MAX);
    for r in sorted {
        if (r.figure.clone(), r.nodes) != last_group {
            println!("-- fig {} @ {} node(s) --", r.figure, r.nodes);
            last_group = (r.figure.clone(), r.nodes);
        }
        let tag = if r.graphs { " +graphs" } else { "" };
        println!(
            "  {:<22} odf={:<2} fusion={:<4}{:8} {:>12.1} us/iter  cpu={:.2}",
            r.series, r.odf, r.fusion, tag, r.time_us, r.cpu_util
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_counts_are_powers_of_two() {
        let e = Effort {
            max_nodes: 64,
            ..Effort::quick()
        };
        assert_eq!(e.node_counts(1, 512), vec![1, 2, 4, 8, 16, 32, 64]);
        assert_eq!(e.node_counts(8, 16), vec![8, 16]);
        assert_eq!(e.node_counts(128, 512), Vec::<usize>::new());
    }

    #[test]
    fn best_per_point_picks_minimum() {
        let mk = |series: &str, nodes, odf, t| Row {
            figure: "x".into(),
            series: series.into(),
            nodes,
            odf,
            fusion: "None".into(),
            graphs: false,
            time_us: t,
            cpu_util: 0.0,
            seeds: 1,
        };
        let rows = vec![
            mk("a", 1, 1, 10.0),
            mk("a", 1, 2, 7.0),
            mk("a", 2, 1, 9.0),
            mk("b", 1, 1, 1.0),
        ];
        let best = best_per_point(&rows);
        assert_eq!(best.len(), 3);
        let a1 = best
            .iter()
            .find(|r| r.series == "a" && r.nodes == 1)
            .expect("present");
        assert_eq!(a1.odf, 2);
        assert_eq!(a1.time_us, 7.0);
    }
}
