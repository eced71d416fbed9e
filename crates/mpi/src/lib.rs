//! # gaat-mpi — MPI-like baseline runtime
//!
//! The comparison point of the paper's evaluation (MPI-H and MPI-D): rank
//! processes with nonblocking point-to-point operations and `Waitall`
//! semantics, built over the same machine, UCX layer, and GPU model as
//! the task runtime.
//!
//! Ranks are implemented as chares pinned one per PE (the paper's
//! configuration: one MPI process per CPU core + GPU). Because processes
//! cannot literally block in a discrete-event world, a rank is written as
//! a state machine: `wait_all` registers a continuation entry that fires
//! when every outstanding request completes. While waiting, the rank
//! processes no application logic — faithfully reproducing MPI's blocking
//! `MPI_Waitall` (and its lost-overlap pitfall from the paper's Fig. 1
//! unless the *manual overlap* pattern is coded explicitly).
//!
//! AMPI-style virtualization (`ranks_per_pe > 1`) is supported as an
//! extension: multiple rank chares share a PE and the scheduler
//! interleaves them.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::Arc;

use gaat_rt::{Callback, Chare, ChareId, Ctx, EntryId, Envelope, MemLoc, Simulation};
use gaat_sim::SimDuration;
use gaat_ucx::Tag;

/// A nonblocking request handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Request(pub u64);

/// Per-rank MPI state, embedded in the application's rank chare.
#[derive(Debug, Clone)]
pub struct Mpi {
    /// This rank's index.
    pub rank: usize,
    /// Communicator size.
    pub size: usize,
    ranks: Arc<Vec<ChareId>>,
    req_entry: EntryId,
    next_req: u64,
    outstanding: HashMap<u64, bool>,
    wait: Option<Waiting>,
    /// CPU cost of each MPI call (Isend/Irecv/Waitall), charged to the PE.
    pub call_cost: SimDuration,
}

#[derive(Debug, Clone)]
struct Waiting {
    remaining: usize,
    resume: EntryId,
    refnum: u64,
}

impl Mpi {
    /// State for rank `rank` of `size`, where `ranks` maps rank → chare
    /// and `req_entry` is the entry id the application routes to
    /// [`Mpi::on_request_done`].
    pub fn new(rank: usize, ranks: Arc<Vec<ChareId>>, req_entry: EntryId) -> Self {
        Mpi {
            rank,
            size: ranks.len(),
            ranks,
            req_entry,
            next_req: 0,
            outstanding: HashMap::new(),
            wait: None,
            call_cost: SimDuration::from_ns(400),
        }
    }

    /// The chare implementing a rank.
    pub fn chare_of(&self, rank: usize) -> ChareId {
        self.ranks[rank]
    }

    fn new_request(&mut self) -> Request {
        let r = self.next_req;
        self.next_req += 1;
        self.outstanding.insert(r, false);
        Request(r)
    }

    /// Nonblocking send to `dst` with `tag` from the buffer at `loc`
    /// (host or device memory — device memory makes this CUDA-aware MPI).
    pub fn isend(&mut self, ctx: &mut Ctx<'_>, dst: usize, tag: u64, loc: MemLoc) -> Request {
        ctx.compute(self.call_cost);
        let req = self.new_request();
        let me = ctx.me();
        let dst_pe = ctx.machine.pe_of(self.ranks[dst]);
        let cb = Callback::to_ref(me, self.req_entry, req.0);
        ctx.ucx_isend(dst_pe, mpi_tag(self.rank, tag), loc, cb);
        req
    }

    /// Nonblocking receive from `src` with `tag` into the buffer at `loc`.
    pub fn irecv(&mut self, ctx: &mut Ctx<'_>, src: usize, tag: u64, loc: MemLoc) -> Request {
        ctx.compute(self.call_cost);
        let req = self.new_request();
        let me = ctx.me();
        let src_pe = ctx.machine.pe_of(self.ranks[src]);
        let cb = Callback::to_ref(me, self.req_entry, req.0);
        ctx.ucx_irecv(src_pe, mpi_tag(src, tag), loc, cb);
        req
    }

    /// Wait for every outstanding request; when the last one completes,
    /// `resume` is invoked on this rank with `refnum`. If nothing is
    /// outstanding the resume message is sent immediately.
    pub fn wait_all(&mut self, ctx: &mut Ctx<'_>, resume: EntryId, refnum: u64) {
        ctx.compute(self.call_cost);
        assert!(self.wait.is_none(), "nested wait_all");
        self.outstanding.retain(|_, done| !*done);
        let remaining = self.outstanding.len();
        if remaining == 0 {
            let me = ctx.me();
            ctx.send(
                me,
                Envelope::empty(resume).with_refnum(refnum).high_priority(),
            );
        } else {
            self.wait = Some(Waiting {
                remaining,
                resume,
                refnum,
            });
        }
    }

    /// Route request-completion callbacks here from the rank chare's
    /// `receive` (entry == the `req_entry` passed at construction).
    pub fn on_request_done(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        let req = env.refnum;
        match self.outstanding.get_mut(&req) {
            Some(done) => *done = true,
            None => panic!("completion for unknown request {req}"),
        }
        if let Some(w) = &mut self.wait {
            w.remaining -= 1;
            if w.remaining == 0 {
                let Waiting { resume, refnum, .. } = self.wait.take().expect("present");
                self.outstanding.retain(|_, done| !*done);
                let me = ctx.me();
                ctx.send(
                    me,
                    Envelope::empty(resume).with_refnum(refnum).high_priority(),
                );
            }
        }
    }

    /// Number of incomplete requests.
    pub fn pending(&self) -> usize {
        self.outstanding.values().filter(|d| !**d).count()
    }
}

/// MPI tag namespace: disjoint from channel (bit 62) and GPU-message
/// (bit 63) tags; includes the source rank so (worker, tag) matching
/// behaves like MPI's (source, tag).
fn mpi_tag(src_rank: usize, tag: u64) -> Tag {
    debug_assert!(tag < (1 << 20), "MPI tag too large");
    Tag((1u64 << 62) | ((src_rank as u64) << 20) | tag)
}

/// Build `n` ranks (round-robin `ranks_per_pe` per PE; 1 = classic MPI,
/// more than one = AMPI-style virtualization) from a factory that
/// receives `(rank, mpi_state)`.
pub fn create_ranks<F, R>(
    sim: &mut Simulation,
    n: usize,
    ranks_per_pe: usize,
    req_entry: EntryId,
    mut factory: F,
) -> Vec<ChareId>
where
    F: FnMut(usize, Mpi) -> R,
    R: Chare,
{
    assert!(ranks_per_pe >= 1);
    let pes = sim.machine.pes.len();
    assert!(
        n <= pes * ranks_per_pe,
        "{n} ranks need more than {pes} PEs x {ranks_per_pe}"
    );
    // Reserve ids first so every rank knows the full mapping.
    let base = sim.machine.chare_count();
    let ids: Arc<Vec<ChareId>> = Arc::new((0..n).map(|i| ChareId(base + i)).collect());
    let mut out = Vec::with_capacity(n);
    for rank in 0..n {
        let pe = rank / ranks_per_pe;
        let mpi = Mpi::new(rank, ids.clone(), req_entry);
        let id = sim.machine.create_chare(pe, Box::new(factory(rank, mpi)));
        assert_eq!(id, ids[rank], "chare ids must match reservation");
        out.push(id);
    }
    out
}

/// Convenience: start every rank by injecting `entry` at time zero.
pub fn start_all(sim: &mut Simulation, ranks: &[ChareId], entry: EntryId) {
    let Simulation { sim, machine, .. } = sim;
    for &r in ranks {
        machine.inject(sim, r, Envelope::empty(entry));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaat_rt::{MachineConfig, Space};
    use gaat_sim::RunOutcome;

    const E_START: EntryId = EntryId(0);
    const E_REQ: EntryId = EntryId(1);
    const E_DONE: EntryId = EntryId(2);

    /// Rank program: exchange a buffer with the partner rank and record
    /// completion time.
    #[derive(Clone)]
    struct Exchange {
        mpi: Mpi,
        sbuf: Option<MemLoc>,
        rbuf: Option<MemLoc>,
        finished_at: Option<gaat_sim::SimTime>,
    }

    impl Chare for Exchange {
        fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
            match env.entry {
                E_START => {
                    let partner = self.mpi.size - 1 - self.mpi.rank;
                    let (s, r) = (self.sbuf.expect("setup"), self.rbuf.expect("setup"));
                    self.mpi.irecv(ctx, partner, 0, r);
                    self.mpi.isend(ctx, partner, 0, s);
                    self.mpi.wait_all(ctx, E_DONE, 0);
                }
                E_REQ => self.mpi.on_request_done(ctx, env),
                E_DONE => self.finished_at = Some(ctx.start_time()),
                other => panic!("unexpected entry {other:?}"),
            }
        }
    }

    fn build_exchange(nodes: usize, pes: usize, ranks_per_pe: usize) -> (Simulation, Vec<ChareId>) {
        let mut sim = Simulation::new(MachineConfig::validation(nodes, pes));
        let n = nodes * pes * ranks_per_pe;
        let ranks = create_ranks(&mut sim, n, ranks_per_pe, E_REQ, |_r, mpi| Exchange {
            mpi,
            sbuf: None,
            rbuf: None,
            finished_at: None,
        });
        // Allocate buffers and poke them into the rank chares.
        for (i, &id) in ranks.iter().enumerate() {
            let pe = sim.machine.pe_of(id);
            let dev = sim.machine.pe_device(pe);
            let sbuf = sim.machine.devices[dev.0].mem.alloc_real(Space::Host, 128);
            let rbuf = sim.machine.devices[dev.0].mem.alloc_real(Space::Host, 128);
            sim.machine.devices[dev.0]
                .mem
                .write(gaat_rt::BufRange::whole(sbuf, 1), &[i as f64 + 1.0]);
            let loc = |b| MemLoc {
                device: dev,
                range: gaat_rt::BufRange::whole(b, 128),
            };
            // Direct state surgery during setup (chares are not running).
            let any: &mut dyn std::any::Any = sim.machine.chare_for_setup(id);
            let ex = any.downcast_mut::<Exchange>().expect("type");
            ex.sbuf = Some(loc(sbuf));
            ex.rbuf = Some(loc(rbuf));
        }
        (sim, ranks)
    }

    #[test]
    fn pairwise_exchange_completes() {
        let (mut sim, ranks) = build_exchange(2, 1, 1);
        start_all(&mut sim, &ranks, E_START);
        assert_eq!(sim.run(), RunOutcome::Drained);
        for &r in &ranks {
            let ex = sim.machine.chare_as::<Exchange>(r);
            assert!(ex.finished_at.is_some(), "rank did not finish");
            assert_eq!(ex.mpi.pending(), 0);
        }
        // Data actually moved: rank 0's recv buffer holds rank 1's value.
        let pe0_dev = 0;
        let got = sim.machine.devices[pe0_dev]
            .mem
            .read(gaat_rt::BufRange::new(gaat_rt::BufferId(1), 0, 1))
            .expect("real");
        assert_eq!(got[0], 2.0);
    }

    #[test]
    fn ampi_virtualization_two_ranks_per_pe() {
        let (mut sim, ranks) = build_exchange(1, 2, 2);
        assert_eq!(ranks.len(), 4);
        // Ranks 0,1 on PE0; 2,3 on PE1.
        assert_eq!(sim.machine.pe_of(ranks[0]), 0);
        assert_eq!(sim.machine.pe_of(ranks[1]), 0);
        assert_eq!(sim.machine.pe_of(ranks[3]), 1);
        start_all(&mut sim, &ranks, E_START);
        assert_eq!(sim.run(), RunOutcome::Drained);
        for &r in &ranks {
            assert!(sim.machine.chare_as::<Exchange>(r).finished_at.is_some());
        }
    }

    #[test]
    fn waitall_with_nothing_outstanding_resumes() {
        #[derive(Clone)]
        struct Trivial {
            mpi: Mpi,
            done: bool,
        }
        impl Chare for Trivial {
            fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
                match env.entry {
                    E_START => self.mpi.wait_all(ctx, E_DONE, 0),
                    E_REQ => self.mpi.on_request_done(ctx, env),
                    E_DONE => self.done = true,
                    _ => unreachable!(),
                }
            }
        }
        let mut sim = Simulation::new(MachineConfig::validation(1, 1));
        let ranks = create_ranks(&mut sim, 1, 1, E_REQ, |_r, mpi| Trivial {
            mpi,
            done: false,
        });
        start_all(&mut sim, &ranks, E_START);
        sim.run();
        assert!(sim.machine.chare_as::<Trivial>(ranks[0]).done);
    }

    #[test]
    fn requests_reset_between_phases() {
        // Two sequential exchanges through the same Mpi state must not
        // leak requests between wait_all phases.
        #[derive(Clone)]
        struct TwoPhase {
            mpi: Mpi,
            sbuf: Option<MemLoc>,
            rbuf: Option<MemLoc>,
            phase: u32,
        }
        impl Chare for TwoPhase {
            fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
                match env.entry {
                    E_START | E_DONE => {
                        if env.entry == E_DONE {
                            self.phase += 1;
                        }
                        if self.phase < 2 {
                            let partner = 1 - self.mpi.rank;
                            self.mpi
                                .irecv(ctx, partner, self.phase as u64, self.rbuf.expect("b"));
                            self.mpi
                                .isend(ctx, partner, self.phase as u64, self.sbuf.expect("b"));
                            self.mpi.wait_all(ctx, E_DONE, self.phase as u64);
                        }
                    }
                    E_REQ => self.mpi.on_request_done(ctx, env),
                    _ => unreachable!(),
                }
            }
        }
        let mut sim = Simulation::new(MachineConfig::validation(2, 1));
        let ranks = create_ranks(&mut sim, 2, 1, E_REQ, |_r, mpi| TwoPhase {
            mpi,
            sbuf: None,
            rbuf: None,
            phase: 0,
        });
        for &id in &ranks {
            let pe = sim.machine.pe_of(id);
            let dev = sim.machine.pe_device(pe);
            let sbuf = sim.machine.devices[dev.0].mem.alloc_real(Space::Host, 8);
            let rbuf = sim.machine.devices[dev.0].mem.alloc_real(Space::Host, 8);
            let any: &mut dyn std::any::Any = sim.machine.chare_for_setup(id);
            let tp = any.downcast_mut::<TwoPhase>().expect("type");
            tp.sbuf = Some(MemLoc {
                device: dev,
                range: gaat_rt::BufRange::whole(sbuf, 8),
            });
            tp.rbuf = Some(MemLoc {
                device: dev,
                range: gaat_rt::BufRange::whole(rbuf, 8),
            });
        }
        start_all(&mut sim, &ranks, E_START);
        assert_eq!(sim.run(), RunOutcome::Drained);
        for &r in &ranks {
            let tp = sim.machine.chare_as::<TwoPhase>(r);
            assert_eq!(tp.phase, 2);
            assert_eq!(tp.mpi.pending(), 0);
        }
    }
}
