//! The experiments of the paper's evaluation section, one function per
//! figure. See DESIGN.md for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured shape comparisons.

use gaat_jacobi3d::{Dims, Fusion, SyncMode};

use crate::harness::{run_point, Effort, Row, Variant};

/// Global grid for weak scaling: the per-node volume stays `base³` by
/// doubling one axis per doubling of nodes (the paper's "size of each
/// dimension is increased successively by a factor of two").
pub fn weak_dims(base: usize, nodes: usize) -> Dims {
    assert!(nodes.is_power_of_two());
    let mut d = [base, base, base];
    let mut k = nodes.trailing_zeros() as usize;
    let mut axis = 2; // grow z first, then y, then x
    while k > 0 {
        d[axis] *= 2;
        axis = (axis + 2) % 3; // z, y, x, z, ...
        k -= 1;
    }
    Dims::new(d[0], d[1], d[2])
}

struct Job {
    figure: &'static str,
    series: String,
    variant: Variant,
    nodes: usize,
    global: Dims,
    odf: usize,
    fusion: Fusion,
    graphs: bool,
    sync: SyncMode,
}

/// Run every job on the sweep engine's pool; each worker recycles one
/// world across the points it claims. Rows come back in job order.
fn exec(jobs: Vec<Job>, e: &Effort) -> Vec<Row> {
    gaat_sweep::run_batch(&jobs, 0, |slot, j| {
        run_point(
            slot, j.figure, &j.series, j.variant, j.nodes, j.global, j.odf, j.fusion, j.graphs,
            j.sync, e,
        )
    })
    .0
}

/// Charm-H, ODF-4, before and after the host-device synchronization and
/// stream-concurrency optimizations (§III-C): the pair every Fig. 6 point
/// compares.
fn sync_pair(figure: &'static str, nodes: usize, global: Dims) -> [Job; 2] {
    [
        ("Charm-H (original)", SyncMode::Original),
        ("Charm-H (optimized)", SyncMode::Optimized),
    ]
    .map(|(series, sync)| Job {
        figure,
        series: series.into(),
        variant: Variant::CharmH,
        nodes,
        global,
        odf: 4,
        fusion: Fusion::None,
        graphs: false,
        sync,
    })
}

/// Fig. 6: Charm-H before/after the optimizations, (a) weak scaling at
/// 1536³/node, (b) strong scaling of a 3072³ grid.
pub fn fig6(e: &Effort) -> Vec<Row> {
    let mut jobs = Vec::new();
    for nodes in e.node_counts(1, 64) {
        jobs.extend(sync_pair("6a", nodes, weak_dims(1536, nodes)));
    }
    for nodes in e.node_counts(8, 256) {
        jobs.extend(sync_pair("6b", nodes, Dims::cube(3072)));
    }
    exec(jobs, e)
}

/// Fig. 6 in the transfer-bound regime: the same comparison on a 768³
/// strong-scaling grid, where blocks are small enough that
/// synchronization and transfers sit on the critical path (the paper's
/// argument for why the optimizations matter at scale).
pub fn fig6s(e: &Effort) -> Vec<Row> {
    let mut jobs = Vec::new();
    for nodes in e.node_counts(4, 32) {
        jobs.extend(sync_pair("6s", nodes, Dims::cube(768)));
    }
    exec(jobs, e)
}

/// The (nodes, ODF) points of the §IV-C headline: 3072³ strong scaling
/// at 128, 256 and 512 nodes (768, 1,536 and 3,072 GPUs).
pub const HEADLINE_POINTS: [(usize, usize); 3] = [(128, 4), (256, 2), (512, 2)];

/// The §IV-C headline, "sub-millisecond time per iteration on 512 nodes":
/// Charm-D and Charm-H on a 3072³ grid at [`HEADLINE_POINTS`]. The points
/// ignore `e.max_nodes`; this figure exists to show that scale.
pub fn fig512(e: &Effort) -> Vec<Row> {
    let mut jobs = Vec::new();
    for (nodes, odf) in HEADLINE_POINTS {
        for variant in [Variant::CharmD, Variant::CharmH] {
            jobs.push(Job {
                figure: "512",
                series: variant.label().into(),
                variant,
                nodes,
                global: Dims::cube(3072),
                odf,
                fusion: Fusion::None,
                graphs: false,
                sync: SyncMode::Optimized,
            });
        }
    }
    exec(jobs, e)
}

/// The four-version comparison used by Figs. 7a–7c. Task-runtime versions
/// are swept over the effort's ODFs (the figure shows the best per
/// point; the CSV keeps all ODFs so the crossover analysis is possible).
fn four_versions(figure: &'static str, nodes: usize, global: Dims, e: &Effort) -> Vec<Job> {
    let mut jobs = Vec::new();
    for variant in [Variant::MpiH, Variant::MpiD] {
        jobs.push(Job {
            figure,
            series: variant.label().into(),
            variant,
            nodes,
            global,
            odf: 1,
            fusion: Fusion::None,
            graphs: false,
            sync: SyncMode::Optimized,
        });
    }
    for variant in [Variant::CharmH, Variant::CharmD] {
        for &odf in &e.odfs {
            jobs.push(Job {
                figure,
                series: variant.label().into(),
                variant,
                nodes,
                global,
                odf,
                fusion: Fusion::None,
                graphs: false,
                sync: SyncMode::Optimized,
            });
        }
    }
    jobs
}

/// Fig. 7a: weak scaling, 1536³ per node (halos up to 9.4 MB — the
/// GPU-aware pipelined-staging regime).
pub fn fig7a(e: &Effort) -> Vec<Row> {
    let mut jobs = Vec::new();
    for nodes in e.node_counts(1, 512) {
        jobs.extend(four_versions("7a", nodes, weak_dims(1536, nodes), e));
    }
    exec(jobs, e)
}

/// Fig. 7b: weak scaling, 192³ per node (96 KB halos — the GPUDirect
/// regime).
pub fn fig7b(e: &Effort) -> Vec<Row> {
    let mut jobs = Vec::new();
    for nodes in e.node_counts(1, 512) {
        jobs.extend(four_versions("7b", nodes, weak_dims(192, nodes), e));
    }
    exec(jobs, e)
}

/// Fig. 7c: strong scaling of a 3072³ global grid up to 512 nodes.
pub fn fig7c(e: &Effort) -> Vec<Row> {
    let mut jobs = Vec::new();
    for nodes in e.node_counts(8, 512) {
        jobs.extend(four_versions("7c", nodes, Dims::cube(3072), e));
    }
    exec(jobs, e)
}

/// Fig. 8: kernel fusion strategies on Charm-D, strong scaling of a
/// 768³ grid, ODF 1 and 8.
pub fn fig8(e: &Effort) -> Vec<Row> {
    let mut jobs = Vec::new();
    for nodes in e.node_counts(1, 128) {
        for odf in [1usize, 8] {
            for (name, fusion) in [
                ("Baseline", Fusion::None),
                ("Fusion-A", Fusion::A),
                ("Fusion-B", Fusion::B),
                ("Fusion-C", Fusion::C),
            ] {
                jobs.push(Job {
                    figure: "8",
                    series: format!("{name} (ODF-{odf})"),
                    variant: Variant::CharmD,
                    nodes,
                    global: Dims::cube(768),
                    odf,
                    fusion,
                    graphs: false,
                    sync: SyncMode::Optimized,
                });
            }
        }
    }
    exec(jobs, e)
}

/// Fig. 9: speedup from graph execution (with and without fusion),
/// Charm-D, 768³ strong scaling, ODF 1 and 8. Emits both the baseline
/// and the graph rows; speedups are baseline/graphs per (series, nodes).
pub fn fig9(e: &Effort) -> Vec<Row> {
    let mut jobs = Vec::new();
    for nodes in e.node_counts(1, 128) {
        for odf in [1usize, 8] {
            for (name, fusion) in [
                ("NoFusion", Fusion::None),
                ("Fusion-A", Fusion::A),
                ("Fusion-B", Fusion::B),
                ("Fusion-C", Fusion::C),
            ] {
                for graphs in [false, true] {
                    jobs.push(Job {
                        figure: "9",
                        series: format!("{name} (ODF-{odf})"),
                        variant: Variant::CharmD,
                        nodes,
                        global: Dims::cube(768),
                        odf,
                        fusion,
                        graphs,
                        sync: SyncMode::Optimized,
                    });
                }
            }
        }
    }
    exec(jobs, e)
}

/// Compute the Fig. 9 speedups: for every (series, nodes), the ratio of
/// the no-graphs time to the graphs time.
pub fn fig9_speedups(rows: &[Row]) -> Vec<(String, usize, f64)> {
    let mut out = Vec::new();
    for r in rows.iter().filter(|r| !r.graphs) {
        if let Some(g) = rows
            .iter()
            .find(|g| g.graphs && g.series == r.series && g.nodes == r.nodes)
        {
            out.push((r.series.clone(), r.nodes, r.time_us / g.time_us));
        }
    }
    out.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weak_dims_conserve_per_node_volume() {
        for k in 0..10 {
            let nodes = 1usize << k;
            let d = weak_dims(192, nodes);
            assert_eq!(d.count(), 192 * 192 * 192 * nodes, "nodes={nodes}");
        }
    }

    #[test]
    fn weak_dims_grow_one_axis_at_a_time() {
        assert_eq!(weak_dims(100, 1), Dims::new(100, 100, 100));
        assert_eq!(weak_dims(100, 2), Dims::new(100, 100, 200));
        assert_eq!(weak_dims(100, 4), Dims::new(100, 200, 200));
        assert_eq!(weak_dims(100, 8), Dims::new(200, 200, 200));
        assert_eq!(weak_dims(100, 512), Dims::new(800, 800, 800));
    }

    #[test]
    fn fig9_speedups_pair_rows() {
        let mk = |graphs, t| Row {
            figure: "9".into(),
            series: "s (ODF-1)".into(),
            nodes: 4,
            odf: 1,
            fusion: "None".into(),
            graphs,
            time_us: t,
            cpu_util: 0.0,
            seeds: 1,
        };
        let rows = vec![mk(false, 100.0), mk(true, 50.0)];
        let sp = fig9_speedups(&rows);
        assert_eq!(sp.len(), 1);
        assert!((sp[0].2 - 2.0).abs() < 1e-12);
    }
}
