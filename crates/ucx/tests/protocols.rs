//! End-to-end protocol tests: a mock two-node world with one device per
//! worker, exercising eager, rendezvous, GPUDirect, pipelined staging, and
//! active messages, with functional payload verification.

use std::collections::HashMap;

use gaat_gpu::{
    BufRange, BufferId, CompletionTag, Device, DeviceId, GpuHost, GpuTimingModel, Space,
};
use gaat_net::{Fabric, NetHost, NetMsg, NetParams, NodeId};
use gaat_sim::{Sim, SimRng, SimTime};
use gaat_ucx::{
    am_send, irecv, isend, MemLoc, Tag, UcxEvent, UcxHost, UcxParams, UcxState, WorkerId,
};

struct World {
    devices: Vec<Device>,
    fabric: Fabric,
    ucx: UcxState,
    node_of: Vec<NodeId>,
    tag_cookies: HashMap<u64, u64>,
    next_tag: u64,
    events: Vec<(UcxEvent, SimTime)>,
}

impl World {
    /// `workers` endpoints, one device each, one worker per node.
    fn new(workers: usize) -> Self {
        let net = NetParams {
            jitter: 0.0,
            ..NetParams::default()
        };
        World {
            devices: (0..workers)
                .map(|i| Device::new(DeviceId(i), GpuTimingModel::default()))
                .collect(),
            fabric: Fabric::new(workers, net, SimRng::new(42)),
            ucx: UcxState::new(workers, UcxParams::default()),
            node_of: (0..workers).map(NodeId).collect(),
            tag_cookies: HashMap::new(),
            next_tag: 0,
            events: Vec::new(),
        }
    }

    fn alloc(&mut self, worker: usize, space: Space, len: usize) -> BufferId {
        self.devices[worker].mem.alloc_real(space, len)
    }

    fn loc(&self, worker: usize, buf: BufferId, len: usize) -> MemLoc {
        MemLoc {
            device: DeviceId(worker),
            range: BufRange::whole(buf, len),
        }
    }

    fn fill(&mut self, worker: usize, buf: BufferId, base: f64) {
        let s = self.devices[worker]
            .mem
            .get_mut(buf)
            .as_mut_slice()
            .expect("real");
        for (i, x) in s.iter_mut().enumerate() {
            *x = base + i as f64;
        }
    }

    fn read(&self, worker: usize, buf: BufferId, len: usize) -> Vec<f64> {
        self.devices[worker]
            .mem
            .read(BufRange::whole(buf, len))
            .expect("real")
    }

    fn event_times(&self, pred: impl Fn(&UcxEvent) -> bool) -> Vec<SimTime> {
        self.events
            .iter()
            .filter(|(e, _)| pred(e))
            .map(|&(_, t)| t)
            .collect()
    }
}

impl GpuHost for World {
    fn device_mut(&mut self, id: DeviceId) -> &mut Device {
        &mut self.devices[id.0]
    }
    fn on_gpu_complete(&mut self, sim: &mut Sim<Self>, _dev: DeviceId, tag: CompletionTag) {
        let cookie = self.tag_cookies.remove(&tag.0).expect("registered tag");
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
        self.node_of[w.0]
    }
    fn on_ucx_event(&mut self, sim: &mut Sim<Self>, ev: UcxEvent) {
        self.events.push((ev, sim.now()));
    }
    fn alloc_gpu_tag(&mut self, cookie: u64) -> CompletionTag {
        let t = self.next_tag;
        self.next_tag += 1;
        self.tag_cookies.insert(t, cookie);
        CompletionTag(t)
    }
}

/// Call `setup` at t = 0 to post the first operations, then run to
/// quiescence; returns the final clock.
fn run(w: &mut World, setup: impl FnOnce(&mut World, &mut Sim<World>)) -> SimTime {
    let mut sim: Sim<World> = Sim::new().with_event_limit(1_000_000);
    setup(w, &mut sim);
    assert_eq!(sim.run(w), gaat_sim::RunOutcome::Drained);
    sim.now()
}

fn recv_done(w: &World) -> Vec<SimTime> {
    w.event_times(|e| matches!(e, UcxEvent::RecvDone { .. }))
}

fn send_done(w: &World) -> Vec<SimTime> {
    w.event_times(|e| matches!(e, UcxEvent::SendDone { .. }))
}

/// One payload word holding a receive buffer (high 32 bits) and its
/// length in elements (low 32 bits).
fn buf_and_len(buf: BufferId, len: usize) -> u64 {
    u64::from(buf.0) << 32 | len as u64
}

#[test]
fn eager_host_message_delivers_data() {
    let mut w = World::new(2);
    let len = 1024; // 8 KiB < eager threshold
    let sbuf = w.alloc(0, Space::Host, len);
    let rbuf = w.alloc(1, Space::Host, len);
    w.fill(0, sbuf, 100.0);
    let (sl, rl) = (w.loc(0, sbuf, len), w.loc(1, rbuf, len));
    run(&mut w, move |w, sim| {
        irecv(w, sim, WorkerId(1), WorkerId(0), Tag(7), rl, 11);
        isend(w, sim, WorkerId(0), WorkerId(1), Tag(7), sl, 22);
    });
    assert_eq!(w.read(1, rbuf, len), w.read(0, sbuf, len));
    assert_eq!(recv_done(&w).len(), 1);
    assert_eq!(send_done(&w).len(), 1);
    // Sender completes at t=0 (eager); receiver at about latency + ser.
    assert_eq!(send_done(&w)[0], SimTime::ZERO);
    let expect = w.fabric.params().inter_latency + w.fabric.params().inter_ser(8 * len as u64 + 64);
    assert_eq!(recv_done(&w)[0].as_ns(), expect.as_ns());
    assert_eq!(w.ucx.stats().eager, 1);
}

#[test]
fn eager_unexpected_arrival_then_post() {
    let mut w = World::new(2);
    let len = 512;
    let sbuf = w.alloc(0, Space::Host, len);
    let rbuf = w.alloc(1, Space::Host, len);
    w.fill(0, sbuf, 5.0);
    let sl = w.loc(0, sbuf, len);
    run(&mut w, move |w, sim| {
        isend(w, sim, WorkerId(0), WorkerId(1), Tag(1), sl, 0);
        // Post the receive long after the data has landed unexpectedly.
        sim.after(
            gaat_sim::SimDuration::from_ms(5),
            |w: &mut World, sim, word| {
                let rl = w.loc(1, BufferId((word >> 32) as u32), word as u32 as usize);
                irecv(w, sim, WorkerId(1), WorkerId(0), Tag(1), rl, 0);
            },
            buf_and_len(rbuf, len),
        );
    });
    assert_eq!(w.read(1, rbuf, len), w.read(0, sbuf, len));
    assert_eq!(recv_done(&w).len(), 1);
    assert_eq!(
        recv_done(&w)[0].as_ns(),
        5_000_000,
        "completes at post time"
    );
}

#[test]
fn rendezvous_host_message() {
    let mut w = World::new(2);
    let len = 32 * 1024; // 256 KiB > 64 KiB eager threshold
    let sbuf = w.alloc(0, Space::Host, len);
    let rbuf = w.alloc(1, Space::Host, len);
    w.fill(0, sbuf, -3.0);
    let (sl, rl) = (w.loc(0, sbuf, len), w.loc(1, rbuf, len));
    run(&mut w, move |w, sim| {
        irecv(w, sim, WorkerId(1), WorkerId(0), Tag(2), rl, 0);
        isend(w, sim, WorkerId(0), WorkerId(1), Tag(2), sl, 0);
    });
    assert_eq!(w.read(1, rbuf, len), w.read(0, sbuf, len));
    assert_eq!(w.ucx.stats().rendezvous, 1);
    // RTS + CTS + DATA: at least 3 network latencies.
    let p = w.fabric.params();
    let floor = p.inter_latency * 3 + p.inter_ser(8 * len as u64);
    assert!(recv_done(&w)[0].as_ns() >= floor.as_ns());
    // Send completes with data delivery for rendezvous.
    assert_eq!(send_done(&w)[0], recv_done(&w)[0]);
}

#[test]
fn rendezvous_waits_for_recv_post() {
    let mut w = World::new(2);
    let len = 32 * 1024;
    let sbuf = w.alloc(0, Space::Host, len);
    let rbuf = w.alloc(1, Space::Host, len);
    let sl = w.loc(0, sbuf, len);
    let delay = gaat_sim::SimDuration::from_ms(2);
    run(&mut w, move |w, sim| {
        isend(w, sim, WorkerId(0), WorkerId(1), Tag(2), sl, 0);
        sim.after(
            delay,
            |w: &mut World, sim, word| {
                let rl = w.loc(1, BufferId((word >> 32) as u32), word as u32 as usize);
                irecv(w, sim, WorkerId(1), WorkerId(0), Tag(2), rl, 0);
            },
            buf_and_len(rbuf, len),
        );
    });
    // Data cannot start before the recv was posted at 2 ms.
    assert!(recv_done(&w)[0].as_ns() > 2_000_000);
    assert_eq!(w.ucx.in_flight(), 0);
}

#[test]
fn gpudirect_device_message() {
    let mut w = World::new(2);
    let len = 12 * 1024; // 96 KiB — the paper's small-halo size
    let sbuf = w.alloc(0, Space::Device, len);
    let rbuf = w.alloc(1, Space::Device, len);
    w.fill(0, sbuf, 7.0);
    let (sl, rl) = (w.loc(0, sbuf, len), w.loc(1, rbuf, len));
    run(&mut w, move |w, sim| {
        irecv(w, sim, WorkerId(1), WorkerId(0), Tag(3), rl, 0);
        isend(w, sim, WorkerId(0), WorkerId(1), Tag(3), sl, 0);
    });
    assert_eq!(w.read(1, rbuf, len), w.read(0, sbuf, len));
    assert_eq!(w.ucx.stats().gpudirect, 1);
    // GPUDirect never touches the DMA engines.
    assert_eq!(w.devices[0].stats().memcpys, 0);
    assert_eq!(w.devices[1].stats().memcpys, 0);
}

#[test]
fn pipelined_device_message_uses_dma_engines() {
    let mut w = World::new(2);
    let len = (9 << 20) / 8; // 9 MiB — the paper's large-halo size
    let sbuf = w.alloc(0, Space::Device, len);
    let rbuf = w.alloc(1, Space::Device, len);
    w.fill(0, sbuf, 0.5);
    let (sl, rl) = (w.loc(0, sbuf, len), w.loc(1, rbuf, len));
    run(&mut w, move |w, sim| {
        irecv(w, sim, WorkerId(1), WorkerId(0), Tag(4), rl, 0);
        isend(w, sim, WorkerId(0), WorkerId(1), Tag(4), sl, 0);
    });
    assert_eq!(w.read(1, rbuf, len), w.read(0, sbuf, len));
    assert_eq!(w.ucx.stats().pipelined, 1);
    let chunks = (9u64 << 20).div_ceil(w.ucx.params().pipeline_chunk);
    assert_eq!(w.ucx.stats().chunks, chunks);
    // Staging copies on both sides.
    assert_eq!(w.devices[0].stats().memcpys, chunks);
    assert_eq!(w.devices[1].stats().memcpys, chunks);
    assert_eq!(recv_done(&w).len(), 1);
    assert_eq!(send_done(&w).len(), 1);
    // SendDone (last D2H) precedes RecvDone (last H2D).
    assert!(send_done(&w)[0] < recv_done(&w)[0]);
}

#[test]
fn pipelined_is_slower_per_byte_than_gpudirect_at_threshold() {
    // Just below the threshold: GPUDirect. Just above: pipelined. The
    // per-byte time jumps — the protocol-change cliff from Fig. 7a.
    let t = |len: usize| {
        let mut w = World::new(2);
        let sbuf = w.alloc(0, Space::Device, len);
        let rbuf = w.alloc(1, Space::Device, len);
        let (sl, rl) = (w.loc(0, sbuf, len), w.loc(1, rbuf, len));
        let end = run(&mut w, move |w, sim| {
            irecv(w, sim, WorkerId(1), WorkerId(0), Tag(1), rl, 0);
            isend(w, sim, WorkerId(0), WorkerId(1), Tag(1), sl, 0);
        });
        end.as_ns() as f64 / (len * 8) as f64
    };
    let below = t((512 << 10) / 8); // exactly threshold → GPUDirect
    let above = t((513 << 10) / 8);
    assert!(
        above > below,
        "per-byte {above} above threshold should exceed {below}"
    );
}

#[test]
fn active_message_delivery() {
    let mut w = World::new(2);
    run(&mut w, |w, sim| {
        am_send(w, sim, WorkerId(0), WorkerId(1), 256, 77);
    });
    let am: Vec<_> = w
        .events
        .iter()
        .filter_map(|(e, t)| match e {
            UcxEvent::AmDelivered { at, user } => Some((at.0, *user, *t)),
            _ => None,
        })
        .collect();
    assert_eq!(am.len(), 1);
    assert_eq!((am[0].0, am[0].1), (1, 77));
    assert!(am[0].2 > SimTime::ZERO);
    assert_eq!(w.ucx.stats().active_messages, 1);
}

#[test]
fn tags_demultiplex_out_of_order() {
    let mut w = World::new(2);
    let len = 64;
    let s1 = w.alloc(0, Space::Host, len);
    let s2 = w.alloc(0, Space::Host, len);
    let r1 = w.alloc(1, Space::Host, len);
    let r2 = w.alloc(1, Space::Host, len);
    w.fill(0, s1, 1000.0);
    w.fill(0, s2, 2000.0);
    let (l_s1, l_s2) = (w.loc(0, s1, len), w.loc(0, s2, len));
    let (l_r1, l_r2) = (w.loc(1, r1, len), w.loc(1, r2, len));
    run(&mut w, move |w, sim| {
        // Receives posted in reverse tag order of the sends.
        irecv(w, sim, WorkerId(1), WorkerId(0), Tag(2), l_r2, 0);
        irecv(w, sim, WorkerId(1), WorkerId(0), Tag(1), l_r1, 0);
        isend(w, sim, WorkerId(0), WorkerId(1), Tag(1), l_s1, 0);
        isend(w, sim, WorkerId(0), WorkerId(1), Tag(2), l_s2, 0);
    });
    assert_eq!(w.read(1, r1, len)[0], 1000.0);
    assert_eq!(w.read(1, r2, len)[0], 2000.0);
}

#[test]
fn same_tag_matches_fifo() {
    let mut w = World::new(2);
    let len = 16;
    let s1 = w.alloc(0, Space::Host, len);
    let s2 = w.alloc(0, Space::Host, len);
    let r1 = w.alloc(1, Space::Host, len);
    let r2 = w.alloc(1, Space::Host, len);
    w.fill(0, s1, 1.0);
    w.fill(0, s2, 2.0);
    let (l_s1, l_s2) = (w.loc(0, s1, len), w.loc(0, s2, len));
    let (l_r1, l_r2) = (w.loc(1, r1, len), w.loc(1, r2, len));
    run(&mut w, move |w, sim| {
        irecv(w, sim, WorkerId(1), WorkerId(0), Tag(9), l_r1, 0);
        irecv(w, sim, WorkerId(1), WorkerId(0), Tag(9), l_r2, 0);
        isend(w, sim, WorkerId(0), WorkerId(1), Tag(9), l_s1, 0);
        isend(w, sim, WorkerId(0), WorkerId(1), Tag(9), l_s2, 0);
    });
    // FIFO: first send lands in first posted recv.
    assert_eq!(w.read(1, r1, len)[0], 1.0);
    assert_eq!(w.read(1, r2, len)[0], 2.0);
}

#[test]
fn intra_node_transfer_works() {
    let mut w = World::new(2);
    // Both workers on node 0.
    w.node_of[1] = NodeId(0);
    let len = 256;
    let sbuf = w.alloc(0, Space::Host, len);
    let rbuf = w.alloc(1, Space::Host, len);
    w.fill(0, sbuf, 3.5);
    let (sl, rl) = (w.loc(0, sbuf, len), w.loc(1, rbuf, len));
    let end = run(&mut w, move |w, sim| {
        irecv(w, sim, WorkerId(1), WorkerId(0), Tag(5), rl, 0);
        isend(w, sim, WorkerId(0), WorkerId(1), Tag(5), sl, 0);
    });
    assert_eq!(w.read(1, rbuf, len), w.read(0, sbuf, len));
    // Intra-node: cheaper than an inter-node eager of the same size.
    let p = w.fabric.params();
    assert!(end.as_ns() < (p.inter_latency + p.inter_ser(len as u64 * 8 + 64)).as_ns());
}

#[test]
fn no_transfers_leak() {
    let mut w = World::new(2);
    // Mixed sizes & spaces, all matched: state must fully drain.
    let sizes = [
        (128usize, Space::Host),
        (16 * 1024, Space::Host),
        (12 * 1024, Space::Device),
        ((2 << 20) / 8, Space::Device),
    ];
    for (i, (len, space)) in sizes.into_iter().enumerate() {
        let sbuf = w.alloc(0, space, len);
        let rbuf = w.alloc(1, space, len);
        let (sl, rl) = (w.loc(0, sbuf, len), w.loc(1, rbuf, len));
        let tag = Tag(i as u64);
        run(&mut w, move |w, sim| {
            irecv(w, sim, WorkerId(1), WorkerId(0), tag, rl, 0);
            isend(w, sim, WorkerId(0), WorkerId(1), tag, sl, 0);
        });
    }
    assert_eq!(w.ucx.in_flight(), 0);
    assert_eq!(recv_done(&w).len(), 4);
    assert_eq!(send_done(&w).len(), 4);
}

/// Fabric totals `(messages, bytes, control messages, control bytes)` of
/// one matched `len`-element send from worker 0 to worker 1.
fn wire_shape(space: Space, len: usize) -> (u64, u64, u64, u64) {
    let mut w = World::new(2);
    let sbuf = w.alloc(0, space, len);
    let rbuf = w.alloc(1, space, len);
    let (sl, rl) = (w.loc(0, sbuf, len), w.loc(1, rbuf, len));
    run(&mut w, move |w, sim| {
        irecv(w, sim, WorkerId(1), WorkerId(0), Tag(1), rl, 0);
        isend(w, sim, WorkerId(0), WorkerId(1), Tag(1), sl, 0);
    });
    let s = w.fabric.stats();
    (s.messages, s.bytes, s.control_messages, s.control_bytes)
}

/// With reliability off, every protocol step is one fabric message of
/// the header plus its payload (derated for GPUDirect data and pipelined
/// chunks), and only the RTS/CTS handshake counts as control traffic.
#[test]
fn every_protocol_step_has_its_wire_shape() {
    let p = UcxParams::default();
    let h = p.header_bytes;
    let derated = |bytes: u64, by: f64| (bytes as f64 * by).round() as u64;
    let elems = |bytes: u64| (bytes / 8) as usize;

    let eager = 8 << 10;
    assert_eq!(wire_shape(Space::Host, elems(eager)), (1, h + eager, 0, 0));

    let rendezvous = 256 << 10;
    assert_eq!(
        wire_shape(Space::Host, elems(rendezvous)),
        (3, 3 * h + rendezvous, 2, 2 * h)
    );

    let gpudirect = 96 << 10;
    let data = derated(gpudirect, p.gpudirect_bw_derate);
    assert_eq!(
        wire_shape(Space::Device, elems(gpudirect)),
        (3, 3 * h + data, 2, 2 * h)
    );

    // 2.5 chunks: two full chunks and a half one.
    let c = p.pipeline_chunk;
    let chunks: u64 = [c, c, c / 2]
        .iter()
        .map(|&b| h + derated(b, p.pipeline_bw_derate))
        .sum();
    assert_eq!(
        wire_shape(Space::Device, elems(5 * c / 2)),
        (5, 2 * h + chunks, 2, 2 * h)
    );

    let mut w = World::new(2);
    run(&mut w, |w, sim| {
        am_send(w, sim, WorkerId(0), WorkerId(1), 256, 0)
    });
    let s = w.fabric.stats();
    let am = (s.messages, s.bytes, s.control_messages, s.control_bytes);
    assert_eq!(am, (1, h + 256, 0, 0));
}
