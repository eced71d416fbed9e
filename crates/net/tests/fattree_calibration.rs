//! The fat-tree model stays calibrated to the alpha-beta constants: one
//! unloaded same-leaf message costs the same under `FatTree` as under
//! `Flat`, within 1%.

use gaat_net::{
    send, Fabric, FatTreeParams, NetHost, NetMsg, NetParams, NodeId, TopologyKind, TrafficClass,
};
use gaat_sim::{Sim, SimDuration, SimRng, SimTime};

struct World {
    fabric: Fabric,
    delivered: Option<SimTime>,
}

impl NetHost for World {
    fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }
    fn on_net_deliver(&mut self, sim: &mut Sim<Self>, _msg: NetMsg) {
        self.delivered = Some(sim.now());
    }
}

#[test]
fn unloaded_same_leaf_message_costs_the_same_on_fattree_and_flat() {
    let msg = NetMsg {
        src: NodeId(0),
        dst: NodeId(1),
        bytes: 4 << 20, // large enough that a switch hop is < 1%
        extra_latency: SimDuration::ZERO,
        token: 1,
        class: TrafficClass::Data,
        attempt: 0,
    };
    let mut params = NetParams {
        jitter: 0.0,
        ..NetParams::default()
    };
    let flat_ns = Fabric::new(2, params.clone(), SimRng::new(1))
        .commit(SimTime::ZERO, &msg)
        .as_ns();

    params.topology = TopologyKind::FatTree(FatTreeParams::default());
    let mut w = World {
        fabric: Fabric::new(2, params, SimRng::new(1)),
        delivered: None,
    };
    let mut sim: Sim<World> = Sim::new();
    send(&mut w, &mut sim, msg);
    sim.run(&mut w);
    let fattree_ns = w.delivered.expect("message delivered").as_ns();

    let rel_err = (fattree_ns as f64 - flat_ns as f64).abs() / flat_ns as f64;
    assert!(
        rel_err <= 0.01,
        "FatTree {fattree_ns} ns vs Flat {flat_ns} ns: {rel_err:.4} > 1%"
    );
}
