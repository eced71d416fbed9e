//! The fat-tree model stays calibrated to the alpha-beta constants: one
//! unloaded same-leaf message costs the same under `FatTree` as under
//! `Flat`, within 1%.

use gaat_net::{Fabric, FatTreeParams, NetMsg, NetParams, NodeId, TopologyKind, TrafficClass};
use gaat_sim::{SimDuration, SimRng, SimTime};

mod common;
use common::deliveries;

#[test]
fn unloaded_same_leaf_message_costs_the_same_on_fattree_and_flat() {
    let msg = NetMsg {
        src: NodeId(0),
        dst: NodeId(1),
        bytes: 4 << 20, // large enough that a switch hop is < 1%
        extra_latency: SimDuration::ZERO,
        token: 1,
        key: 0,
        class: TrafficClass::Data,
        attempt: 0,
    };
    let mut params = NetParams {
        jitter: 0.0,
        ..NetParams::default()
    };
    let flat = Fabric::new(2, params.clone(), SimRng::new(1));
    let flat_ns = deliveries(flat, &[(SimTime::ZERO, msg)])[0].as_ns();

    params.topology = TopologyKind::FatTree(FatTreeParams::default());
    let fattree = Fabric::new(2, params, SimRng::new(1));
    let fattree_ns = deliveries(fattree, &[(SimTime::ZERO, msg)])[0].as_ns();

    let rel_err = (fattree_ns as f64 - flat_ns as f64).abs() / flat_ns as f64;
    assert!(
        rel_err <= 0.01,
        "FatTree {fattree_ns} ns vs Flat {flat_ns} ns: {rel_err:.4} > 1%"
    );
}
