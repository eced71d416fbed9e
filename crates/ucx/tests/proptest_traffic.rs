//! Property-based protocol tests: arbitrary traffic matrices of mixed
//! sizes, spaces, and posting orders must all complete with intact
//! payloads and no leaked protocol state.

use std::collections::HashMap;

use proptest::prelude::*;

use gaat_gpu::{
    BufRange, BufferId, CompletionTag, Device, DeviceId, GpuHost, GpuTimingModel, Space,
};
use gaat_net::{Fabric, NetHost, NetMsg, NetParams, NodeId};
use gaat_sim::FaultPlan;
use gaat_sim::{Sim, SimRng, SimTime};
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
    expected: Vec<(BufferId, usize, Vec<f64>)>,
    /// Per message `i` (sent under `Tag(i)`): sender, receiver, source
    /// and destination, looked up by the posting events' payload word.
    posts: Vec<(WorkerId, WorkerId, MemLoc, MemLoc)>,
}

impl World {
    fn new(workers: usize, params: UcxParams) -> Self {
        let net = NetParams {
            jitter: 0.0,
            ..NetParams::default()
        };
        World {
            devices: (0..workers)
                .map(|i| Device::new(DeviceId(i), GpuTimingModel::default()))
                .collect(),
            fabric: Fabric::new(workers, net, SimRng::new(7)),
            ucx: UcxState::new(workers, params),
            tag_cookies: HashMap::new(),
            next_tag: 0,
            recv_done: 0,
            send_done: 0,
            expected: Vec::new(),
            posts: Vec::new(),
        }
    }
}

fn post_send(w: &mut World, sim: &mut Sim<World>, i: u64) {
    let (from, to, sloc, _) = w.posts[i as usize];
    isend(w, sim, from, to, Tag(i), sloc, 0);
}

fn post_recv(w: &mut World, sim: &mut Sim<World>, i: u64) {
    let (from, to, _, rloc) = w.posts[i as usize];
    irecv(w, sim, to, from, Tag(i), rloc, 0);
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
            UcxEvent::PeerDead { .. } => panic!("no peer should die in fault-free traffic"),
        }
    }
    fn alloc_gpu_tag(&mut self, cookie: u64) -> CompletionTag {
        let t = self.next_tag;
        self.next_tag += 1;
        self.tag_cookies.insert(t, cookie);
        CompletionTag(t)
    }
}

#[derive(Debug, Clone)]
struct Msg {
    from: usize,
    to: usize,
    elems: usize,
    device_space: bool,
    recv_first: bool,
    delay_ns: u64,
}

fn msg_strategy(workers: usize) -> impl Strategy<Value = Msg> {
    (
        0..workers,
        0..workers,
        // spans eager, rendezvous, GPUDirect, and pipelined (with the
        // shrunk thresholds configured below)
        prop_oneof![1usize..64, 512usize..2048, 4096usize..9000],
        any::<bool>(),
        any::<bool>(),
        0u64..50_000,
    )
        .prop_map(
            move |(from, to, elems, device_space, recv_first, delay_ns)| Msg {
                from,
                to: if from == to { (to + 1) % workers } else { to },
                elems,
                device_space,
                recv_first,
                delay_ns,
            },
        )
}

/// Drive `msgs` through a fresh world and return it at quiescence.
/// Shrinks the protocol thresholds so the small test sizes still cross
/// every protocol boundary.
fn drive(msgs: &[Msg], reliability: ReliabilityParams, faults: FaultPlan) -> World {
    let params = UcxParams {
        eager_threshold: 4 << 10,     // 4 KiB
        pipeline_threshold: 16 << 10, // 16 KiB
        pipeline_chunk: 8 << 10,
        reliability,
        ..UcxParams::default()
    };
    let mut w = World::new(3, params);
    w.fabric.set_faults(faults);
    let mut expected: Vec<(BufferId, usize, Vec<f64>)> = Vec::new();
    let mut plan: Vec<(Msg, BufferId, BufferId)> = Vec::new();
    for (i, m) in msgs.iter().enumerate() {
        let space = if m.device_space {
            Space::Device
        } else {
            Space::Host
        };
        let sbuf = w.devices[m.from].mem.alloc_real(space, m.elems);
        let rbuf = w.devices[m.to].mem.alloc_real(space, m.elems);
        let data: Vec<f64> = (0..m.elems).map(|k| (i * 100_000 + k) as f64).collect();
        w.devices[m.from]
            .mem
            .write(BufRange::whole(sbuf, m.elems), &data);
        expected.push((rbuf, m.to, data));
        plan.push((m.clone(), sbuf, rbuf));
    }
    let mut sim: Sim<World> = Sim::new().with_event_limit(5_000_000);
    for (i, (m, sbuf, rbuf)) in plan.into_iter().enumerate() {
        let i = i as u64;
        let (from, to) = (WorkerId(m.from), WorkerId(m.to));
        let sloc = MemLoc {
            device: DeviceId(m.from),
            range: BufRange::whole(sbuf, m.elems),
        };
        let rloc = MemLoc {
            device: DeviceId(m.to),
            range: BufRange::whole(rbuf, m.elems),
        };
        w.posts.push((from, to, sloc, rloc));
        let at = SimTime::from_ns(m.delay_ns);
        if m.recv_first {
            sim.at(at, post_recv, i);
            sim.at(at, post_send, i);
        } else {
            sim.at(at, post_send, i);
            sim.at(at, post_recv, i);
        }
    }
    assert_eq!(sim.run(&mut w), gaat_sim::RunOutcome::Drained);
    w.expected = expected;
    w
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Every message completes exactly once on both sides, payloads land
    /// intact, and the protocol state fully drains.
    #[test]
    fn random_traffic_completes_with_intact_payloads(
        msgs in prop::collection::vec(msg_strategy(3), 1..25)
    ) {
        let w = drive(&msgs, ReliabilityParams::default(), FaultPlan::none());
        prop_assert_eq!(w.recv_done, msgs.len());
        prop_assert_eq!(w.send_done, msgs.len());
        prop_assert_eq!(w.ucx.in_flight(), 0);
        for (rbuf, owner, data) in &w.expected {
            let got = w.devices[*owner]
                .mem
                .read(BufRange::whole(*rbuf, data.len()))
                .expect("real");
            prop_assert_eq!(&got, data);
        }
    }

    /// The same property under stochastic loss with the reliable
    /// transport on: arbitrary traffic plus arbitrary drop/corrupt rates
    /// still completes exactly once per message with intact payloads,
    /// and the retry machinery drains fully (quiesce invariant). The
    /// retry budget is raised so compound data+ack loss cannot reach
    /// peer-death escalation at these rates.
    #[test]
    fn lossy_traffic_completes_and_quiesces(
        msgs in prop::collection::vec(msg_strategy(3), 1..20),
        seed in 0u64..1000,
        drop_permille in 0u32..200,
        corrupt_permille in 0u32..50,
    ) {
        let drop_prob = drop_permille as f64 / 1000.0;
        let corrupt_prob = corrupt_permille as f64 / 1000.0;
        let rel = ReliabilityParams {
            enabled: true,
            max_retries: 20,
            ..ReliabilityParams::default()
        };
        let faults = FaultPlan { seed, drop_prob, corrupt_prob, ..FaultPlan::none() };
        let w = drive(&msgs, rel, faults);
        prop_assert_eq!(w.recv_done, msgs.len());
        prop_assert_eq!(w.send_done, msgs.len());
        prop_assert_eq!(w.ucx.in_flight(), 0);
        prop_assert_eq!(w.ucx.stashed(), 0);
        for (rbuf, owner, data) in &w.expected {
            let got = w.devices[*owner]
                .mem
                .read(BufRange::whole(*rbuf, data.len()))
                .expect("real");
            prop_assert_eq!(&got, data);
        }
    }
}
