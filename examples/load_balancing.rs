//! Runtime adaptivity — the reason the paper tolerates overdecomposition
//! overheads even when ODF > 1 is slower: migratable chares enable load
//! balancing. This example builds an imbalanced ensemble of GPU-offloading
//! chares (a hotspot pattern), runs one phase, rebalances with the greedy
//! strategy using the runtime's measured per-chare loads, and runs the
//! next phase on the new mapping.
//!
//! ```text
//! cargo run --release --example load_balancing
//! ```

use gaat::gpu::{KernelSpec, Op, StreamId};
use gaat::rt::{lb, Callback, Chare, ChareId, Ctx, EntryId, Envelope, MachineConfig, Simulation};
use gaat::sim::{SimDuration, SimTime};

const E_GO: EntryId = EntryId(0);
const E_DONE: EntryId = EntryId(1);

/// A chare that runs `reps` cycles of (GPU kernel, host post-processing),
/// with per-chare work weight — the hotspot.
#[derive(Clone)]
struct Worker {
    stream: Option<StreamId>,
    weight: u64,
    reps_left: u32,
    finished_at: Option<SimTime>,
}

impl Worker {
    fn step(&mut self, ctx: &mut Ctx<'_>) {
        // Streams are per-device; after migration we need one on the new
        // device, so create lazily per phase.
        let stream = *self.stream.get_or_insert_with(|| {
            let dev = ctx.device();
            ctx.machine.devices[dev.0].create_stream(0)
        });
        ctx.launch(
            stream,
            Op::kernel(KernelSpec::phantom(
                "work",
                SimDuration::from_us(20 * self.weight),
            )),
        );
        ctx.hapi(stream, Callback::to(ctx.me(), E_DONE));
    }
}

impl Chare for Worker {
    fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        match env.entry {
            E_GO => {
                self.finished_at = None;
                self.step(ctx);
            }
            E_DONE => {
                // Host-side post-processing proportional to the weight.
                ctx.compute(SimDuration::from_us(15 * self.weight));
                if self.reps_left == 0 {
                    self.finished_at = Some(ctx.start_time());
                } else {
                    self.reps_left -= 1;
                    self.step(ctx);
                }
            }
            other => panic!("unexpected entry {other:?}"),
        }
    }
}

fn run_phase(sim: &mut Simulation, ids: &[ChareId], reps: u32) -> SimDuration {
    let start = sim.now();
    {
        let Simulation { sim, machine, .. } = sim;
        for &id in ids {
            let w = machine
                .chare_for_setup(id)
                .downcast_mut::<Worker>()
                .expect("worker");
            w.reps_left = reps;
            w.stream = None; // re-created on the (possibly new) device
            machine.inject(sim, id, Envelope::empty(E_GO));
        }
    }
    sim.run();
    let end = ids
        .iter()
        .map(|&id| {
            sim.machine
                .chare_as::<Worker>(id)
                .finished_at
                .expect("phase finished")
        })
        .fold(SimTime::ZERO, SimTime::max);
    end.since(start)
}

fn main() {
    let pes = 8;
    let odf = 4;
    let mut sim = Simulation::new(MachineConfig::validation(1, pes));

    // Hotspot: the chares initially mapped to PE 0 and PE 1 are 6x
    // heavier (think: a refined region of an AMR mesh).
    let mut ids = Vec::new();
    for i in 0..pes * odf {
        let pe = i / odf;
        let weight = if pe < 2 { 6 } else { 1 };
        ids.push(sim.machine.create_chare(
            pe,
            Box::new(Worker {
                stream: None,
                weight,
                reps_left: 0,
                finished_at: None,
            }),
        ));
    }

    let before = run_phase(&mut sim, &ids, 40);
    println!("phase 1 (imbalanced, hotspot on PEs 0-1): {before}");

    // The runtime measured every chare's charged CPU time during phase 1;
    // greedy rebalancing uses exactly that.
    let report = lb::greedy_rebalance(&mut sim.machine, &ids);
    println!(
        "greedy rebalance: {} migrations, predicted max PE load {:.1} ms -> {:.1} ms",
        report.migrations,
        report.max_before_ns as f64 / 1e6,
        report.max_after_ns as f64 / 1e6,
    );

    let after = run_phase(&mut sim, &ids, 40);
    println!("phase 2 (rebalanced):                      {after}");
    println!(
        "speedup from load balancing: {:.2}x",
        before.as_ns() as f64 / after.as_ns() as f64
    );
    assert!(after < before, "rebalancing must help this workload");
}
