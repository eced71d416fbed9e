//! Shared helper: drive messages through [`gaat_net::send`] on an event
//! queue and record when each one lands.

use gaat_net::{send, Fabric, NetHost, NetMsg};
use gaat_sim::{Sim, SimTime};

struct World {
    fabric: Fabric,
    /// `(send instant, message)`, indexed by the send event's payload word.
    sends: Vec<(SimTime, NetMsg)>,
    got: Vec<(u64, SimTime)>,
}

impl NetHost for World {
    fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }
    fn on_net_deliver(&mut self, sim: &mut Sim<Self>, msg: NetMsg) {
        self.got.push((msg.token, sim.now()));
    }
}

/// Send each message at its instant (ties in input order), run to the
/// end, and return each message's delivery instant in input order.
/// Tokens must be distinct.
pub fn deliveries(fabric: Fabric, sends: &[(SimTime, NetMsg)]) -> Vec<SimTime> {
    let mut w = World {
        fabric,
        sends: sends.to_vec(),
        got: Vec::new(),
    };
    let mut sim: Sim<World> = Sim::new();
    for (i, &(at, _)) in sends.iter().enumerate() {
        sim.at(
            at,
            |w: &mut World, sim: &mut Sim<World>, i| send(w, sim, w.sends[i as usize].1),
            i as u64,
        );
    }
    sim.run(&mut w);
    sends
        .iter()
        .map(|(_, m)| {
            let mut at = w.got.iter().filter(|g| g.0 == m.token).map(|g| g.1);
            let first = at.next().expect("message delivered");
            assert!(at.next().is_none(), "tokens must be distinct");
            first
        })
        .collect()
}
