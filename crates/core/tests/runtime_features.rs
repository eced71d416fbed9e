//! Integration tests of runtime features that the in-crate unit tests
//! don't cover end to end: tree broadcast, the Channel API over many
//! iterations, the GPU Messaging API round trip, and multi-round
//! reductions.

use gaat_gpu::Space;
use gaat_rt::{
    create_channel, gpu_msg, BufRange, Callback, ChannelEnd, Chare, ChareId, Ctx, EntryId,
    Envelope, MachineConfig, MemLoc, Simulation,
};
use gaat_sim::SimTime;

const E_GO: EntryId = EntryId(0);
const E_AUX: EntryId = EntryId(1);
const E_DONE: EntryId = EntryId(2);
const E_POST: EntryId = EntryId(3);
const E_READY: EntryId = EntryId(4);

// ---------------------------------------------------------------------

#[derive(Clone)]
struct Receiver {
    got: Vec<(u64, SimTime)>,
}
impl Chare for Receiver {
    fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        self.got.push((env.refnum, ctx.start_time()));
    }
}

#[test]
fn broadcast_reaches_every_target_once() {
    let mut sim = Simulation::new(MachineConfig::validation(4, 3));
    let mut ids = Vec::new();
    for pe in 0..12 {
        for _ in 0..2 {
            ids.push(
                sim.machine
                    .create_chare(pe, Box::new(Receiver { got: vec![] })),
            );
        }
    }
    {
        let Simulation { sim, machine, .. } = &mut sim;
        let targets = ids.clone();
        machine.broadcast(sim, &targets, E_GO, 7);
    }
    sim.run();
    for &id in &ids {
        let r = sim.machine.chare_as::<Receiver>(id);
        assert_eq!(r.got.len(), 1, "chare {id:?} should get exactly one copy");
        assert_eq!(r.got[0].0, 7);
    }
}

#[test]
fn broadcast_scales_logarithmically() {
    // Tree fan-out: the last delivery should land at O(log P) hops, far
    // below P serialized sends from the root.
    let time_for = |nodes: usize| {
        let mut sim = Simulation::new(MachineConfig::validation(nodes, 1));
        let ids: Vec<ChareId> = (0..nodes)
            .map(|pe| {
                sim.machine
                    .create_chare(pe, Box::new(Receiver { got: vec![] }))
            })
            .collect();
        {
            let Simulation { sim, machine, .. } = &mut sim;
            machine.broadcast(sim, &ids, E_GO, 0);
        }
        sim.run();
        ids.iter()
            .map(|&id| sim.machine.chare_as::<Receiver>(id).got[0].1)
            .fold(SimTime::ZERO, SimTime::max)
            .as_ns()
    };
    let t16 = time_for(16);
    let t64 = time_for(64);
    // 4x the PEs should cost ~log factor (~1.5x), nowhere near 4x.
    assert!(
        t64 < t16 * 5 / 2,
        "broadcast should scale ~log: 16 PEs {t16} ns, 64 PEs {t64} ns"
    );
}

// ---------------------------------------------------------------------

#[derive(Clone)]
struct ChannelIterator {
    end: Option<ChannelEnd>,
    send_buf: MemLoc,
    recv_buf: MemLoc,
    rounds_left: u32,
    received: u32,
}

impl Chare for ChannelIterator {
    fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        match env.entry {
            E_GO | E_DONE => {
                if env.entry == E_DONE {
                    self.received += 1;
                    if self.rounds_left == 0 {
                        return;
                    }
                    self.rounds_left -= 1;
                }
                let me = ctx.me();
                let mut end = self.end.take().expect("channel");
                end.recv(ctx, self.recv_buf, Callback::to(me, E_DONE));
                end.send(ctx, self.send_buf, Callback::Ignore);
                self.end = Some(end);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn channel_sequences_stay_matched_over_many_rounds() {
    let mut sim = Simulation::new(MachineConfig::validation(2, 1));
    let mk_loc = |sim: &mut Simulation, pe: usize| {
        let dev = sim.machine.pe_device(pe);
        let b = sim.machine.devices[dev.0].mem.alloc_real(Space::Device, 64);
        MemLoc {
            device: dev,
            range: BufRange::whole(b, 64),
        }
    };
    let (s0, r0) = (mk_loc(&mut sim, 0), mk_loc(&mut sim, 0));
    let (s1, r1) = (mk_loc(&mut sim, 1), mk_loc(&mut sim, 1));
    let rounds = 50;
    let a = sim.machine.create_chare(
        0,
        Box::new(ChannelIterator {
            end: None,
            send_buf: s0,
            recv_buf: r0,
            rounds_left: rounds,
            received: 0,
        }),
    );
    let b = sim.machine.create_chare(
        1,
        Box::new(ChannelIterator {
            end: None,
            send_buf: s1,
            recv_buf: r1,
            rounds_left: rounds,
            received: 0,
        }),
    );
    let (ea, eb) = create_channel(&mut sim.machine, a, b);
    sim.machine
        .chare_for_setup(a)
        .downcast_mut::<ChannelIterator>()
        .expect("chare")
        .end = Some(ea);
    sim.machine
        .chare_for_setup(b)
        .downcast_mut::<ChannelIterator>()
        .expect("chare")
        .end = Some(eb);
    {
        let Simulation { sim, machine, .. } = &mut sim;
        machine.inject(sim, a, Envelope::empty(E_GO));
        machine.inject(sim, b, Envelope::empty(E_GO));
    }
    sim.run();
    assert_eq!(
        sim.machine.chare_as::<ChannelIterator>(a).received,
        rounds + 1
    );
    assert_eq!(
        sim.machine.chare_as::<ChannelIterator>(b).received,
        rounds + 1
    );
    assert_eq!(sim.machine.ucx.in_flight(), 0, "no leaked transfers");
}

// ---------------------------------------------------------------------

#[derive(Clone)]
struct GpuMsgPair {
    peer: ChareId,
    sender: gpu_msg::GpuMsgSender,
    send_buf: MemLoc,
    recv_buf: MemLoc,
    recv_done: bool,
    send_done: bool,
}

impl Chare for GpuMsgPair {
    fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        match env.entry {
            E_GO => {
                let me = ctx.me();
                let _ = me;
                self.sender.send(
                    ctx,
                    self.peer,
                    E_POST,
                    E_READY,
                    self.send_buf,
                    Callback::to(ctx.me(), E_AUX),
                );
            }
            E_POST => {
                let meta = env.take::<gpu_msg::GpuMsgMeta>();
                let me = ctx.me();
                gpu_msg::post_recv(ctx, &meta, self.recv_buf, Callback::to(me, E_DONE));
            }
            E_READY => self.sender.on_ready(ctx, env),
            E_DONE => self.recv_done = true,
            E_AUX => self.send_done = true,
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn gpu_messaging_api_moves_data_with_post_entry() {
    let mut sim = Simulation::new(MachineConfig::validation(2, 1));
    let mk = |sim: &mut Simulation, pe: usize, fill: f64| {
        let dev = sim.machine.pe_device(pe);
        let b = sim.machine.devices[dev.0].mem.alloc_real(Space::Device, 32);
        sim.machine.devices[dev.0]
            .mem
            .write(BufRange::new(b, 0, 1), &[fill]);
        (
            b,
            MemLoc {
                device: dev,
                range: BufRange::whole(b, 32),
            },
        )
    };
    let (_sb, sloc) = mk(&mut sim, 0, 42.0);
    let (rb, rloc) = mk(&mut sim, 1, 0.0);
    let a = ChareId(0);
    let b = ChareId(1);
    let ca = sim.machine.create_chare(
        0,
        Box::new(GpuMsgPair {
            peer: b,
            sender: gpu_msg::GpuMsgSender::new(),
            send_buf: sloc,
            recv_buf: sloc, // unused on the sender
            recv_done: false,
            send_done: false,
        }),
    );
    let cb = sim.machine.create_chare(
        1,
        Box::new(GpuMsgPair {
            peer: a,
            sender: gpu_msg::GpuMsgSender::new(),
            send_buf: rloc, // unused on the receiver
            recv_buf: rloc,
            recv_done: false,
            send_done: false,
        }),
    );
    assert_eq!((ca, cb), (a, b));
    {
        let Simulation { sim, machine, .. } = &mut sim;
        machine.inject(sim, a, Envelope::empty(E_GO));
    }
    sim.run();
    assert!(sim.machine.chare_as::<GpuMsgPair>(b).recv_done);
    assert!(sim.machine.chare_as::<GpuMsgPair>(a).send_done);
    let got = sim.machine.devices[1]
        .mem
        .read(BufRange::new(rb, 0, 1))
        .expect("real");
    assert_eq!(got[0], 42.0);
}

// ---------------------------------------------------------------------

#[derive(Clone)]
struct RoundContributor {
    reducer: u64,
    n: usize,
    cb: Callback,
    rounds: u64,
}
impl Chare for RoundContributor {
    fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        if env.entry == E_GO {
            for round in 0..self.rounds {
                ctx.contribute(self.reducer, round, (round + 1) as f64, self.n, self.cb);
            }
        }
    }
}
#[derive(Clone)]
struct RoundRoot {
    sums: Vec<f64>,
}
impl Chare for RoundRoot {
    fn receive(&mut self, _ctx: &mut Ctx<'_>, env: Envelope) {
        self.sums.push(env.take::<f64>());
    }
}

#[test]
fn reduction_rounds_do_not_mix() {
    let mut sim = Simulation::new(MachineConfig::validation(2, 2));
    let reducer = sim.machine.create_reducer();
    let root = sim
        .machine
        .create_chare(0, Box::new(RoundRoot { sums: vec![] }));
    let cb = Callback::to(root, E_DONE);
    let n = 4;
    let rounds = 3;
    let ids: Vec<ChareId> = (0..n)
        .map(|pe| {
            sim.machine.create_chare(
                pe,
                Box::new(RoundContributor {
                    reducer,
                    n,
                    cb,
                    rounds,
                }),
            )
        })
        .collect();
    {
        let Simulation { sim, machine, .. } = &mut sim;
        for &id in &ids {
            machine.inject(sim, id, Envelope::empty(E_GO));
        }
    }
    sim.run();
    let mut sums = sim.machine.chare_as::<RoundRoot>(root).sums.clone();
    sums.sort_by(f64::total_cmp);
    // round r sums to 4 * (r+1)
    assert_eq!(sums, vec![4.0, 8.0, 12.0]);
}
