//! Microbenchmarks of the task runtime: message scheduling throughput,
//! reductions, and the sync-vs-async completion comparison of Fig. 4.

use criterion::{criterion_group, criterion_main, Criterion};

use gaat_bench::ablation::sync_vs_async_completion;
use gaat_rt::{Callback, Chare, ChareId, Ctx, EntryId, Envelope, MachineConfig, Simulation};

const E_PING: EntryId = EntryId(0);

#[derive(Clone)]
struct Ping {
    peer: Option<ChareId>,
    got: u64,
    limit: u64,
}

impl Chare for Ping {
    fn receive(&mut self, ctx: &mut Ctx<'_>, _env: Envelope) {
        self.got += 1;
        if self.got < self.limit {
            if let Some(p) = self.peer {
                ctx.send(p, Envelope::empty(E_PING).with_bytes(64));
            }
        }
    }
}

fn pingpong(remote: bool, hops: u64) -> gaat_sim::SimTime {
    let cfg = if remote {
        MachineConfig::validation(2, 1)
    } else {
        MachineConfig::validation(1, 1)
    };
    let mut sim = Simulation::new(cfg);
    let a = sim.machine.create_chare(
        0,
        Box::new(Ping {
            peer: None,
            got: 0,
            limit: hops,
        }),
    );
    let pe_b = if remote { 1 } else { 0 };
    let b = sim.machine.create_chare(
        pe_b,
        Box::new(Ping {
            peer: Some(a),
            got: 0,
            limit: hops,
        }),
    );
    sim.machine
        .chare_for_setup(a)
        .downcast_mut::<Ping>()
        .expect("ping")
        .peer = Some(b);
    {
        let Simulation { sim, machine, .. } = &mut sim;
        machine.inject(sim, a, Envelope::empty(E_PING));
    }
    sim.run();
    sim.now()
}

fn bench_pingpong(c: &mut Criterion) {
    c.bench_function("runtime/pingpong_local_x1000", |b| {
        b.iter(|| pingpong(false, 1000))
    });
    c.bench_function("runtime/pingpong_remote_x1000", |b| {
        b.iter(|| pingpong(true, 1000))
    });
}

#[derive(Clone)]
struct Contributor {
    reducer: u64,
    n: usize,
    cb: Callback,
}
impl Chare for Contributor {
    fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        if env.entry == EntryId(0) {
            ctx.contribute(self.reducer, env.refnum, 1.0, self.n, self.cb);
        }
    }
}
#[derive(Clone)]
struct Sink {
    got: u64,
}
impl Chare for Sink {
    fn receive(&mut self, _ctx: &mut Ctx<'_>, _env: Envelope) {
        self.got += 1;
    }
}

fn bench_reduction(c: &mut Criterion) {
    c.bench_function("runtime/reduction_256_contributors", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(MachineConfig::validation(8, 4));
            let root = sim.machine.create_chare(0, Box::new(Sink { got: 0 }));
            let reducer = sim.machine.create_reducer();
            let cb = Callback::to(root, EntryId(0));
            let ids: Vec<ChareId> = (0..256)
                .map(|i| {
                    sim.machine.create_chare(
                        i % 32,
                        Box::new(Contributor {
                            reducer,
                            n: 256,
                            cb,
                        }),
                    )
                })
                .collect();
            {
                let Simulation { sim, machine, .. } = &mut sim;
                for &id in &ids {
                    machine.inject(sim, id, Envelope::empty(EntryId(0)));
                }
            }
            sim.run();
            assert_eq!(sim.machine.chare_as::<Sink>(root).got, 1);
            sim.now()
        })
    });
}

fn bench_sync_vs_async(c: &mut Criterion) {
    c.bench_function("runtime/fig4_sync_completion", |b| {
        b.iter(|| sync_vs_async_completion(4, 16, 50).0)
    });
    c.bench_function("runtime/fig4_async_completion", |b| {
        b.iter(|| sync_vs_async_completion(4, 16, 50).1)
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(500)).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_pingpong, bench_reduction, bench_sync_vs_async
}
criterion_main!(benches);
