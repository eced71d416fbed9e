//! Contract tests for the execution model: simulated-CPU charging, the
//! temporal spreading of side effects, and PE blocking semantics — the
//! mechanics every performance result in this repository rests on.

use gaat_gpu::{KernelSpec, Op, StreamId};
use gaat_rt::{Callback, Chare, ChareId, Ctx, EntryId, Envelope, MachineConfig, Simulation};
use gaat_sim::{SimDuration, SimTime};

const E_GO: EntryId = EntryId(0);
const E_PING: EntryId = EntryId(1);

/// Launches `n` kernels in one entry method; the device must receive them
/// spread by the CPU launch cost, not all at the entry's start.
#[derive(Clone)]
struct Launcher {
    stream: StreamId,
    n: usize,
}
impl Chare for Launcher {
    fn receive(&mut self, ctx: &mut Ctx<'_>, _env: Envelope) {
        for _ in 0..self.n {
            ctx.launch(
                self.stream,
                Op::kernel(KernelSpec::phantom("k", SimDuration::from_ns(100))),
            );
        }
    }
}

#[test]
fn kernel_launches_are_spread_by_cpu_cost() {
    let mut machine_cfg = MachineConfig::validation(1, 1);
    machine_cfg.trace = true;
    let mut sim = Simulation::new(machine_cfg);
    let stream = sim.machine.devices[0].create_stream(0);
    let c = sim
        .machine
        .create_chare(0, Box::new(Launcher { stream, n: 5 }));
    {
        let Simulation { sim, machine, .. } = &mut sim;
        machine.inject(sim, c, Envelope::empty(E_GO));
    }
    sim.run();
    // The kernels are tiny (100ns) versus the 4.5us launch cost, so each
    // kernel finishes before the CPU issues the next: submit times in the
    // device trace must be >= cpu_launch apart.
    let spans: Vec<_> = sim.machine.devices[0]
        .tracer
        .spans()
        .iter()
        .filter(|s| s.category == "kernel")
        .map(|s| s.start.as_ns())
        .collect();
    assert_eq!(spans.len(), 5);
    let launch = sim.machine.cfg.gpu.cpu_launch.as_ns();
    for pair in spans.windows(2) {
        assert!(
            pair[1] - pair[0] >= launch,
            "kernel submits {pair:?} should be >= {launch} ns apart"
        );
    }
}

/// An entry method's charged time makes the PE busy: a second message is
/// dispatched only after the charge elapses.
#[derive(Clone)]
struct Busy {
    work: SimDuration,
    ran_at: Vec<SimTime>,
}
impl Chare for Busy {
    fn receive(&mut self, ctx: &mut Ctx<'_>, _env: Envelope) {
        self.ran_at.push(ctx.start_time());
        ctx.compute(self.work);
    }
}

#[test]
fn charged_time_delays_the_next_dispatch() {
    let mut sim = Simulation::new(MachineConfig::validation(1, 1));
    let c = sim.machine.create_chare(
        0,
        Box::new(Busy {
            work: SimDuration::from_us(100),
            ran_at: vec![],
        }),
    );
    {
        let Simulation { sim, machine, .. } = &mut sim;
        machine.inject(sim, c, Envelope::empty(E_GO));
        machine.inject(sim, c, Envelope::empty(E_GO));
    }
    sim.run();
    let ran = &sim.machine.chare_as::<Busy>(c).ran_at;
    assert_eq!(ran.len(), 2);
    let gap = ran[1].since(ran[0]);
    assert!(
        gap >= SimDuration::from_us(100),
        "second entry after {gap}, expected >= 100us"
    );
}

/// Sends issued later in an entry method leave later (charge offsets are
/// reflected in message departure, hence arrival order).
#[derive(Clone)]
struct Sender {
    peers: Vec<ChareId>,
}
impl Chare for Sender {
    fn receive(&mut self, ctx: &mut Ctx<'_>, _env: Envelope) {
        for (i, &p) in self.peers.clone().iter().enumerate() {
            // Interleave compute so each send departs later.
            ctx.compute(SimDuration::from_us(10 * (i as u64 + 1)));
            ctx.send(p, Envelope::empty(E_PING).with_bytes(32));
        }
    }
}
#[derive(Clone)]
struct Stamp {
    at: Option<SimTime>,
}
impl Chare for Stamp {
    fn receive(&mut self, ctx: &mut Ctx<'_>, _env: Envelope) {
        self.at = Some(ctx.start_time());
    }
}

#[test]
fn send_offsets_respect_program_order() {
    let mut sim = Simulation::new(MachineConfig::validation(1, 2));
    let a = sim.machine.create_chare(1, Box::new(Stamp { at: None }));
    let b = sim.machine.create_chare(1, Box::new(Stamp { at: None }));
    let s = sim
        .machine
        .create_chare(0, Box::new(Sender { peers: vec![a, b] }));
    {
        let Simulation { sim, machine, .. } = &mut sim;
        machine.inject(sim, s, Envelope::empty(E_GO));
    }
    sim.run();
    let ta = sim.machine.chare_as::<Stamp>(a).at.expect("a ran");
    let tb = sim.machine.chare_as::<Stamp>(b).at.expect("b ran");
    // b's send departed >= 20us after a's (10us vs 10+20us compute).
    assert!(tb > ta, "b at {tb} should be after a at {ta}");
    assert!(
        tb.since(ta) >= SimDuration::from_us(15),
        "gap {}",
        tb.since(ta)
    );
}

/// While a PE is blocked in a synchronous stream wait, even high-priority
/// messages queue; they run immediately on unblock, before normal ones.
#[derive(Clone)]
struct BlockThenRecord {
    stream: StreamId,
    order: Vec<u16>,
}
impl Chare for BlockThenRecord {
    fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        match env.entry {
            E_GO => {
                ctx.launch(
                    self.stream,
                    Op::kernel(KernelSpec::phantom("long", SimDuration::from_ms(1))),
                );
                ctx.stream_sync(self.stream, Callback::Ignore);
            }
            other => self.order.push(other.0),
        }
    }
}

#[test]
fn blocked_pe_preserves_priority_order() {
    let mut sim = Simulation::new(MachineConfig::validation(1, 1));
    let stream = sim.machine.devices[0].create_stream(0);
    let c = sim.machine.create_chare(
        0,
        Box::new(BlockThenRecord {
            stream,
            order: vec![],
        }),
    );
    {
        let Simulation { sim, machine, .. } = &mut sim;
        machine.inject(sim, c, Envelope::empty(E_GO));
        // These arrive while the PE is blocked on the 1ms kernel.
        machine.inject(sim, c, Envelope::empty(EntryId(10)));
        machine.inject(sim, c, Envelope::empty(EntryId(11)).high_priority());
        machine.inject(sim, c, Envelope::empty(EntryId(12)));
    }
    sim.run();
    assert_eq!(
        sim.machine.chare_as::<BlockThenRecord>(c).order,
        vec![11, 10, 12],
        "high priority first once unblocked"
    );
}

/// Entry counters and per-chare load accounting line up with execution.
#[test]
fn load_accounting_tracks_charged_time() {
    let mut sim = Simulation::new(MachineConfig::validation(1, 2));
    let light = sim.machine.create_chare(
        0,
        Box::new(Busy {
            work: SimDuration::from_us(1),
            ran_at: vec![],
        }),
    );
    let heavy = sim.machine.create_chare(
        1,
        Box::new(Busy {
            work: SimDuration::from_us(500),
            ran_at: vec![],
        }),
    );
    {
        let Simulation { sim, machine, .. } = &mut sim;
        for _ in 0..3 {
            machine.inject(sim, light, Envelope::empty(E_GO));
            machine.inject(sim, heavy, Envelope::empty(E_GO));
        }
    }
    sim.run();
    let l = sim.machine.load_of(light);
    let h = sim.machine.load_of(heavy);
    assert!(h > l * 50, "heavy {h} should dwarf light {l}");
    assert!(h >= SimDuration::from_us(1500), "3 x 500us of compute: {h}");
}
