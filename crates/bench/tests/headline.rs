//! The paper's §IV-C headline, pinned: Charm-D strong-scales a 3072³
//! grid to 512 nodes (3,072 GPUs) at under a millisecond per iteration.
//! The check is in virtual time, so it does not depend on the host.
//!
//! No Charm-D vs Charm-H ordering is asserted: the model puts Charm-H
//! ahead at all three `HEADLINE_POINTS` (see EXPERIMENTS.md, Fig 7c).

use gaat_bench::harness::run_point;
use gaat_bench::{Effort, Variant, HEADLINE_POINTS};
use gaat_jacobi3d::{Dims, Fusion, SyncMode};

#[test]
fn charm_d_at_512_nodes_is_sub_millisecond() {
    let (nodes, odf) = HEADLINE_POINTS[2];
    assert_eq!(nodes, 512, "the headline is the 512-node point");
    let e = Effort {
        iters: 3,
        warmup: 2,
        seeds: vec![1],
        jitter: None,
        ..Effort::standard()
    };
    let r = run_point(
        "512",
        "Charm-D",
        Variant::CharmD,
        nodes,
        Dims::cube(3072),
        odf,
        Fusion::None,
        false,
        SyncMode::Optimized,
        &e,
    );
    assert!(
        r.time_us < 1000.0,
        "Charm-D at {nodes} nodes, ODF {odf}: {:.1} us/iter",
        r.time_us
    );
}
