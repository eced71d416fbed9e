//! Reliability-protocol tests: deterministic message loss with the
//! ack/retry machinery enabled must be invisible to completion semantics
//! (every transfer finishes exactly once, payloads intact) and must
//! leave no protocol state behind. Escalation (`PeerDead`) and the
//! post-failure `purge` contract are exercised explicitly.

use std::collections::HashMap;

use gaat_gpu::{
    BufRange, BufferId, CompletionTag, Device, DeviceId, GpuHost, GpuTimingModel, Space,
};
use gaat_net::{
    Fabric, FatTreeGraph, FatTreeParams, NetHost, NetMsg, NetParams, NodeId, TopologyKind,
};
use gaat_sim::{FaultPlan, LinkFault, LinkFaultKind, Sim, SimDuration, SimRng, SimTime};
use gaat_ucx::{
    irecv, isend, MemLoc, ReliabilityParams, Tag, UcxEvent, UcxHost, UcxParams, UcxState, WorkerId,
};

struct World {
    devices: Vec<Device>,
    fabric: Fabric,
    ucx: UcxState,
    tag_cookies: HashMap<u64, u64>,
    next_tag: u64,
    recv_done: usize,
    send_done: usize,
    peers_dead: Vec<WorkerId>,
}

impl World {
    fn new(workers: usize, params: UcxParams, faults: FaultPlan) -> Self {
        let net = NetParams {
            jitter: 0.0,
            ..NetParams::default()
        };
        Self::with_net(workers, params, faults, net)
    }

    fn with_net(workers: usize, params: UcxParams, faults: FaultPlan, net: NetParams) -> Self {
        let mut fabric = Fabric::new(workers, net, SimRng::new(7));
        fabric.set_faults(faults);
        World {
            devices: (0..workers)
                .map(|i| Device::new(DeviceId(i), GpuTimingModel::default()))
                .collect(),
            fabric,
            ucx: UcxState::new(workers, params),
            tag_cookies: HashMap::new(),
            next_tag: 0,
            recv_done: 0,
            send_done: 0,
            peers_dead: Vec::new(),
        }
    }
}

impl GpuHost for World {
    fn device_mut(&mut self, id: DeviceId) -> &mut Device {
        &mut self.devices[id.0]
    }
    fn on_gpu_complete(&mut self, sim: &mut Sim<Self>, _dev: DeviceId, tag: CompletionTag) {
        let cookie = self.tag_cookies.remove(&tag.0).expect("registered");
        gaat_ucx::on_gpu_tag(self, sim, cookie);
    }
}
impl NetHost for World {
    fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }
    fn on_net_deliver(&mut self, sim: &mut Sim<Self>, msg: NetMsg) {
        gaat_ucx::on_net_deliver(self, sim, msg);
    }
    fn on_net_dropped(&mut self, sim: &mut Sim<Self>, msg: NetMsg) {
        gaat_ucx::on_net_dropped(self, sim, msg);
    }
}
impl UcxHost for World {
    fn ucx_mut(&mut self) -> &mut UcxState {
        &mut self.ucx
    }
    fn worker_node(&self, w: WorkerId) -> NodeId {
        NodeId(w.0)
    }
    fn on_ucx_event(&mut self, _sim: &mut Sim<Self>, ev: UcxEvent) {
        match ev {
            UcxEvent::RecvDone { .. } => self.recv_done += 1,
            UcxEvent::SendDone { .. } => self.send_done += 1,
            UcxEvent::AmDelivered { .. } => {}
            UcxEvent::PeerDead { worker } => self.peers_dead.push(worker),
        }
    }
    fn alloc_gpu_tag(&mut self, cookie: u64) -> CompletionTag {
        let t = self.next_tag;
        self.next_tag += 1;
        self.tag_cookies.insert(t, cookie);
        CompletionTag(t)
    }
}

fn reliable_params() -> UcxParams {
    UcxParams {
        reliability: ReliabilityParams {
            enabled: true,
            ..ReliabilityParams::default()
        },
        ..UcxParams::default()
    }
}

fn lossy(drop_prob: f64) -> FaultPlan {
    FaultPlan {
        seed: 42,
        drop_prob,
        ..FaultPlan::none()
    }
}

fn assert_quiesced(w: &World) {
    assert_eq!(w.ucx.in_flight(), 0, "transfers leak");
    assert_eq!(w.ucx.stashed(), 0, "net tokens / gpu tags / retries leak");
}

/// Launch `n` host-to-host transfers of `elems` f64s from worker 0 to
/// worker 1, run to quiescence, and verify every payload.
fn exchange(w: &mut World, n: usize, elems: usize) {
    let mut expected: Vec<(BufferId, Vec<f64>)> = Vec::new();
    let mut posts = Vec::new();
    for i in 0..n {
        let sbuf = w.devices[0].mem.alloc_real(Space::Host, elems);
        let rbuf = w.devices[1].mem.alloc_real(Space::Host, elems);
        let data: Vec<f64> = (0..elems).map(|k| (i * 1000 + k) as f64).collect();
        w.devices[0].mem.write(BufRange::whole(sbuf, elems), &data);
        expected.push((rbuf, data));
        let tag = Tag(i as u64);
        let sloc = MemLoc {
            device: DeviceId(0),
            range: BufRange::whole(sbuf, elems),
        };
        let rloc = MemLoc {
            device: DeviceId(1),
            range: BufRange::whole(rbuf, elems),
        };
        posts.push((tag, sloc, rloc));
    }
    let mut sim: Sim<World> = Sim::new().with_event_limit(10_000_000);
    for (tag, sloc, rloc) in posts {
        irecv(w, &mut sim, WorkerId(1), WorkerId(0), tag, rloc, 0);
        isend(w, &mut sim, WorkerId(0), WorkerId(1), tag, sloc, 0);
    }
    assert_eq!(sim.run(w), gaat_sim::RunOutcome::Drained);
    assert_eq!(w.recv_done, n, "every transfer completes exactly once");
    assert_eq!(w.send_done, n);
    for (rbuf, data) in expected {
        let got = w.devices[1]
            .mem
            .read(BufRange::whole(rbuf, data.len()))
            .expect("real buffer");
        assert_eq!(got, data, "payload must survive loss and retransmission");
    }
}

#[test]
fn lossy_eager_completes_with_retransmits() {
    let mut w = World::new(2, reliable_params(), lossy(0.3));
    exchange(&mut w, 20, 8); // well under the eager threshold
    let st = w.ucx.stats();
    assert_eq!(st.eager, 20);
    assert!(st.retransmits > 0, "30% loss must force retransmits");
    assert!(st.timeouts > 0, "silent drops are only seen via timeout");
    assert!(st.acks_sent > 0 && st.acks_received > 0);
    assert!(
        w.peers_dead.is_empty(),
        "loss must not be mistaken for death"
    );
    assert_quiesced(&w);
}

#[test]
fn lossy_rendezvous_completes_with_retransmits() {
    // Large host payloads: the RTS, CTS, and data message are each
    // individually droppable and individually retried.
    let mut w = World::new(2, reliable_params(), lossy(0.3));
    let elems = (UcxParams::default().eager_threshold as usize / 8) * 4;
    exchange(&mut w, 8, elems);
    let st = w.ucx.stats();
    assert_eq!(st.rendezvous, 8);
    assert!(st.retransmits > 0);
    assert!(w.peers_dead.is_empty());
    assert_quiesced(&w);
}

#[test]
fn duplicate_deliveries_are_suppressed() {
    // A delivered message whose ack is lost gets retransmitted; the
    // receiver must recognize the duplicate, count it, re-ack it, and
    // not complete the receive twice (recv_done stays exact in
    // `exchange`). 25% loss over 40 messages guarantees at least one
    // lost ack with this seed, while keeping the compound per-round
    // failure rate (data drop OR ack drop) far from retry exhaustion.
    let mut w = World::new(2, reliable_params(), lossy(0.25));
    exchange(&mut w, 40, 8);
    let st = w.ucx.stats();
    assert!(
        st.duplicates > 0,
        "a lost ack should have forced a duplicate"
    );
    assert!(w.peers_dead.is_empty());
    assert_quiesced(&w);
}

#[test]
fn peer_dead_after_retries_exhausted_and_purge_drains() {
    // Total blackout: every attempt (and every ack) drops. The sender
    // must escalate to PeerDead after max_retries, and the runtime's
    // recovery contract — purge() — must drain what the dead transfer
    // left behind.
    let mut params = reliable_params();
    params.reliability.max_retries = 3;
    let mut w = World::new(2, params, lossy(1.0));
    let sbuf = w.devices[0].mem.alloc_real(Space::Host, 8);
    let rbuf = w.devices[1].mem.alloc_real(Space::Host, 8);
    w.devices[0].mem.write(BufRange::whole(sbuf, 8), &[1.0; 8]);
    let sloc = MemLoc {
        device: DeviceId(0),
        range: BufRange::whole(sbuf, 8),
    };
    let rloc = MemLoc {
        device: DeviceId(1),
        range: BufRange::whole(rbuf, 8),
    };
    let mut sim: Sim<World> = Sim::new();
    irecv(&mut w, &mut sim, WorkerId(1), WorkerId(0), Tag(0), rloc, 0);
    isend(&mut w, &mut sim, WorkerId(0), WorkerId(1), Tag(0), sloc, 0);
    sim.run(&mut w);
    assert_eq!(w.peers_dead, vec![WorkerId(1)]);
    let st = w.ucx.stats();
    assert_eq!(st.peers_dead, 1);
    assert_eq!(st.retransmits, 3, "exactly max_retries retransmissions");
    assert_eq!(w.recv_done, 0, "nothing ever arrived");
    // The dead transfer's state survives escalation (the runtime owns
    // the decision of what to do with it) …
    assert!(w.ucx.in_flight() > 0);
    // … and purge — what recovery calls — drains all of it.
    let timers = w.ucx.purge();
    assert!(timers.is_empty(), "escalation already retired its timer");
    assert_quiesced(&w);
}

#[test]
fn link_abort_triggers_fast_retransmit_over_failover_path() {
    // Fat tree, two spines. A large transfer 0 -> 2 streams over the
    // primary spine; mid-flight its uplink dies. The fabric aborts the
    // flow and surfaces it via on_net_dropped, which with reliability on
    // is an immediate retransmit — no timeout wait — and the retry
    // routes over the surviving spine.
    let ft = FatTreeParams {
        leaf_radix: 2,
        spines: 2,
        trunk_bw: 23.0e9,
        hop_latency_ns: 0,
    };
    let nodes = 4;
    let graph = FatTreeGraph::new(nodes, 60.0e9, 23.0e9, ft);
    let mut route = Vec::new();
    graph.try_route(0, 2, &mut route).unwrap();
    let primary_uplink = route[1];

    let faults = FaultPlan {
        link_faults: vec![LinkFault {
            at: SimTime::ZERO + SimDuration::from_us(10),
            link: primary_uplink.0,
            kind: LinkFaultKind::Down,
        }],
        ..FaultPlan::none()
    };
    let net = NetParams {
        jitter: 0.0,
        topology: TopologyKind::FatTree(ft),
        ..NetParams::default()
    };
    let mut w = World::with_net(nodes, reliable_params(), faults, net);
    let mut sim: Sim<World> = Sim::new();
    gaat_net::arm_link_faults(&mut w, &mut sim);

    // 1 MiB of host data: ~45 us on a 23 GB/s trunk, so the data
    // message is mid-flight when the link dies at t=10us.
    let elems = (1 << 20) / 8;
    let sbuf = w.devices[0].mem.alloc_real(Space::Host, elems);
    let rbuf = w.devices[2].mem.alloc_real(Space::Host, elems);
    let data: Vec<f64> = (0..elems).map(|k| k as f64).collect();
    w.devices[0].mem.write(BufRange::whole(sbuf, elems), &data);
    let sloc = MemLoc {
        device: DeviceId(0),
        range: BufRange::whole(sbuf, elems),
    };
    let rloc = MemLoc {
        device: DeviceId(2),
        range: BufRange::whole(rbuf, elems),
    };
    irecv(&mut w, &mut sim, WorkerId(2), WorkerId(0), Tag(0), rloc, 0);
    isend(&mut w, &mut sim, WorkerId(0), WorkerId(2), Tag(0), sloc, 0);
    sim.run(&mut w);

    assert_eq!(w.recv_done, 1, "the transfer survives the link failure");
    let st = w.ucx.stats();
    assert!(st.retransmits >= 1, "the aborted flow must be resent");
    assert_eq!(
        st.timeouts, 0,
        "fast retransmit reacts to the abort notification, not the timer"
    );
    let got = w.devices[2]
        .mem
        .read(BufRange::whole(rbuf, elems))
        .expect("real buffer");
    assert_eq!(got, data);
    assert!(w.peers_dead.is_empty());
    assert_quiesced(&w);
}

#[test]
fn reliability_machinery_is_inert_without_faults() {
    // With retries on but a clean fabric, the only overhead is acks:
    // no timeouts, no retransmits, no duplicates.
    let mut w = World::new(2, reliable_params(), FaultPlan::none());
    exchange(&mut w, 10, 8);
    let st = w.ucx.stats();
    assert_eq!(st.retransmits, 0);
    assert_eq!(st.timeouts, 0);
    assert_eq!(st.duplicates, 0);
    assert_eq!(st.acks_sent, st.acks_received);
    assert_quiesced(&w);
}
