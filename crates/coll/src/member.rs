//! The collective participant state machine.
//!
//! A [`CollMember`] lives inside a host chare and executes one rank's
//! [`MemberPlan`]: per lane, it posts the current step's channel
//! receive/send, launches the reduction (or lets direct receives land in
//! place), and advances when the receive has landed, the reduction
//! kernel has retired, and the outgoing buffer is reusable. Lanes
//! progress independently — that is the pipelining — while channel
//! sequence numbers stay aligned because both endpoints execute the same
//! per-lane schedule order.
//!
//! The host chare owns three entry methods and forwards them here; the
//! callback refnum is `tag | lane`, where `tag` distinguishes members
//! when a chare embeds several (gradient buckets, dispatch vs combine).

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use gaat_gpu::{BufRange, BufferId, Device, MemoryPool, StreamId};
use gaat_rt::{
    create_channel, Callback, ChannelEnd, Chare, ChareId, Ctx, EntryId, KernelSpec, Machine,
    MemLoc, Op,
};

use crate::plan::{CollPlan, MemberPlan, Step};

/// Lane index carried in a local-copy completion refnum.
pub const LOCAL_LANE: u64 = 0xffff;

/// Mask extracting the lane from a member event refnum.
pub const LANE_MASK: u64 = 0xffff;

/// The three entry methods a host chare dedicates to a member.
#[derive(Debug, Clone, Copy)]
pub struct CollEntries {
    /// A channel receive landed.
    pub recv: EntryId,
    /// A channel send's buffer is reusable.
    pub sent: EntryId,
    /// A reduction or local-copy kernel retired (HAPI).
    pub reduced: EntryId,
}

/// Which member event an entry method maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberEvent {
    /// Receive landed.
    Recv,
    /// Send buffer reusable.
    Sent,
    /// Reduction / local copy retired.
    Reduced,
}

/// Traffic and progress counters for one member (merge across ranks for
/// the per-algorithm totals profile_run prints).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemberStats {
    /// Payload bytes pushed into channels.
    pub bytes: u64,
    /// Chunks (channel sends) issued.
    pub chunks: u64,
    /// Lane steps completed.
    pub steps: u64,
    /// Elements combined by reduction kernels.
    pub reduced_elems: u64,
    /// Collective rounds completed.
    pub rounds: u64,
}

impl MemberStats {
    /// Accumulate another member's counters.
    pub fn merge(&mut self, o: &MemberStats) {
        self.bytes += o.bytes;
        self.chunks += o.chunks;
        self.steps += o.steps;
        self.reduced_elems += o.reduced_elems;
        self.rounds += o.rounds;
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct LaneState {
    cur: usize,
    issued: bool,
    recv_done: bool,
    send_done: bool,
    reduce_done: bool,
    finished: bool,
}

impl LaneState {
    fn step_done(&self) -> bool {
        self.recv_done && self.send_done && self.reduce_done
    }
}

/// One rank's collective executor; embed in a chare and forward the
/// dedicated entry methods to [`CollMember::on_event`].
#[derive(Clone)]
pub struct CollMember {
    /// This member's rank in the collective.
    pub rank: usize,
    plan: MemberPlan,
    into_out: bool,
    data: BufferId,
    data_off: usize,
    out: Option<BufferId>,
    out_off: usize,
    scratch: Option<BufferId>,
    scratch_off: Vec<usize>,
    channels: BTreeMap<(usize, usize), ChannelEnd>,
    stream: StreamId,
    entries: CollEntries,
    tag: u64,
    lanes: Vec<LaneState>,
    lanes_left: usize,
    copies_left: usize,
    running: bool,
    /// Counters, cumulative across rounds.
    pub stats: MemberStats,
}

impl CollMember {
    /// Create a member executing `plan` for `rank`.
    ///
    /// `data`/`out` are the send-source and (for personalized
    /// exchanges) receive-destination buffers; `*_off` lets several
    /// members share one buffer at different base offsets (gradient
    /// buckets). Scratch for reductions is allocated here, one disjoint
    /// region per lane. `tag` must have its low 16 bits clear; it is
    /// OR-ed with the lane index into every callback refnum.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        rank: usize,
        plan: MemberPlan,
        into_out: bool,
        data: BufferId,
        data_off: usize,
        out: Option<BufferId>,
        out_off: usize,
        stream: StreamId,
        entries: CollEntries,
        tag: u64,
        device: &mut Device,
        real: bool,
    ) -> CollMember {
        assert_eq!(tag & LANE_MASK, 0, "tag low bits carry the lane");
        assert!(plan.lanes.len() < LOCAL_LANE as usize, "too many lanes");
        // Scratch: per lane, the largest reduce-landing chunk.
        let needs: Vec<usize> = plan
            .lanes
            .iter()
            .map(|l| {
                l.steps
                    .iter()
                    .filter(|s| s.reduce)
                    .filter_map(|s| s.recv.map(|x| x.len))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let total: usize = needs.iter().sum();
        let mut off = 0;
        let scratch_off = needs
            .iter()
            .map(|n| {
                let here = off;
                off += n;
                here
            })
            .collect();
        let scratch = (total > 0).then(|| device.mem.alloc(gaat_gpu::Space::Device, total, real));
        let nlanes = plan.lanes.len();
        CollMember {
            rank,
            plan,
            into_out,
            data,
            data_off,
            out,
            out_off,
            scratch,
            scratch_off,
            channels: BTreeMap::new(),
            stream,
            entries,
            tag,
            lanes: vec![LaneState::default(); nlanes],
            lanes_left: 0,
            copies_left: 0,
            running: false,
            stats: MemberStats::default(),
        }
    }

    /// Install the channel used for `(lane, peer)` traffic.
    pub fn install_channel(&mut self, lane: usize, peer: usize, end: ChannelEnd) {
        let prev = self.channels.insert((lane, peer), end);
        assert!(
            prev.is_none(),
            "duplicate channel (lane {lane}, peer {peer})"
        );
    }

    /// Whether a collective round is in flight.
    pub fn running(&self) -> bool {
        self.running
    }

    /// The data (send-source / in-place result) buffer.
    pub fn data_buffer(&self) -> BufferId {
        self.data
    }

    /// The output buffer of a personalized exchange, if any.
    pub fn out_buffer(&self) -> Option<BufferId> {
        self.out
    }

    /// Start one collective round. Returns `true` when the round
    /// completed synchronously (single rank, empty payload).
    pub fn begin(&mut self, ctx: &mut Ctx<'_>) -> bool {
        assert!(!self.running, "collective round already in flight");
        self.running = true;
        self.lanes_left = self.lanes.len();
        for st in &mut self.lanes {
            *st = LaneState::default();
        }
        self.start_local_copies(ctx);
        for lane in 0..self.lanes.len() {
            self.pump(ctx, lane);
        }
        self.check_complete()
    }

    /// Local copies (alltoall self-block) run once per round on the
    /// member's stream, completion batched behind one HAPI callback.
    fn start_local_copies(&mut self, ctx: &mut Ctx<'_>) {
        self.copies_left = 0;
        let copies: Vec<_> = self
            .plan
            .local
            .iter()
            .copied()
            .filter(|c| c.len > 0)
            .collect();
        if copies.is_empty() {
            return;
        }
        let t = ctx.machine.cfg.gpu.clone();
        let src_buf = self.data;
        let dst_buf = self.out.expect("local copies target the out buffer");
        let (doff, ooff) = (self.data_off, self.out_off);
        for c in copies {
            let work = t.membound_work(c.len as u64 * 16);
            let spec = KernelSpec::with_func("coll_local", work, move |m| {
                local_copy(m, src_buf, doff + c.src, dst_buf, ooff + c.dst, c.len);
            });
            ctx.launch(self.stream, Op::kernel(spec));
        }
        let me = ctx.me();
        ctx.hapi(
            self.stream,
            Callback::to_ref(me, self.entries.reduced, self.tag | LOCAL_LANE),
        );
        self.copies_left = 1;
    }

    /// Drive a lane: issue the current step if needed, and keep
    /// advancing through virtually-complete steps (zero-length
    /// transfers on both sides).
    fn pump(&mut self, ctx: &mut Ctx<'_>, lane: usize) {
        loop {
            let nsteps = self.plan.lanes[lane].steps.len();
            let st = &mut self.lanes[lane];
            if st.cur >= nsteps {
                if !st.finished {
                    st.finished = true;
                    self.lanes_left -= 1;
                }
                return;
            }
            if st.issued {
                if !st.step_done() {
                    return;
                }
                st.cur += 1;
                st.issued = false;
                self.stats.steps += 1;
                continue;
            }
            self.issue(ctx, lane);
            if !self.lanes[lane].step_done() {
                return;
            }
        }
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>, lane: usize) {
        let step: Step = self.plan.lanes[lane].steps[self.lanes[lane].cur];
        let do_recv = step.recv.is_some_and(|x| x.len > 0);
        let do_send = step.send.is_some_and(|x| x.len > 0);
        {
            let st = &mut self.lanes[lane];
            st.issued = true;
            st.recv_done = !do_recv;
            st.reduce_done = !(do_recv && step.reduce);
            st.send_done = !do_send;
        }
        let me = ctx.me();
        let dev = ctx.device();
        if do_recv {
            let x = step.recv.expect("checked");
            let range = if step.reduce {
                let s = self.scratch.expect("reduce steps have scratch");
                BufRange::new(s, self.scratch_off[lane], x.len)
            } else if self.into_out {
                let o = self.out.expect("out buffer");
                BufRange::new(o, self.out_off + x.offset, x.len)
            } else {
                BufRange::new(self.data, self.data_off + x.offset, x.len)
            };
            let loc = MemLoc { device: dev, range };
            let cb = Callback::to_ref(me, self.entries.recv, self.tag | lane as u64);
            let mut ch = self
                .channels
                .remove(&(lane, x.peer))
                .unwrap_or_else(|| panic!("channel (lane {lane}, peer {}) wired", x.peer));
            ch.recv(ctx, loc, cb);
            self.channels.insert((lane, x.peer), ch);
        }
        if do_send {
            let x = step.send.expect("checked");
            let range = BufRange::new(self.data, self.data_off + x.offset, x.len);
            let loc = MemLoc { device: dev, range };
            let cb = Callback::to_ref(me, self.entries.sent, self.tag | lane as u64);
            let mut ch = self
                .channels
                .remove(&(lane, x.peer))
                .unwrap_or_else(|| panic!("channel (lane {lane}, peer {}) wired", x.peer));
            ch.send(ctx, loc, cb);
            self.channels.insert((lane, x.peer), ch);
            self.stats.chunks += 1;
            self.stats.bytes += x.len as u64 * 8;
        }
    }

    /// Forward a dedicated entry method's firing. Returns `true` when
    /// the whole collective round just completed.
    pub fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: MemberEvent, refnum: u64) -> bool {
        assert!(self.running, "event outside a collective round");
        let lane = (refnum & LANE_MASK) as usize;
        match ev {
            MemberEvent::Reduced if lane == LOCAL_LANE as usize => {
                self.copies_left -= 1;
            }
            MemberEvent::Recv => {
                let st = self.lanes[lane];
                let step: Step = self.plan.lanes[lane].steps[st.cur];
                if step.reduce {
                    let x = step.recv.expect("reduce implies recv");
                    let t = ctx.machine.cfg.gpu.clone();
                    let s = self.scratch.expect("scratch");
                    let (soff, dbuf, doff) =
                        (self.scratch_off[lane], self.data, self.data_off + x.offset);
                    // 2 reads + 1 write per element.
                    let work = t.membound_work(x.len as u64 * 24);
                    let len = x.len;
                    let spec = KernelSpec::with_func("coll_reduce", work, move |m| {
                        reduce_add(m, s, soff, dbuf, doff, len);
                    });
                    ctx.launch(self.stream, Op::kernel(spec));
                    let me = ctx.me();
                    ctx.hapi(
                        self.stream,
                        Callback::to_ref(me, self.entries.reduced, self.tag | lane as u64),
                    );
                    self.stats.reduced_elems += x.len as u64;
                }
                self.lanes[lane].recv_done = true;
                self.pump(ctx, lane);
            }
            MemberEvent::Sent => {
                self.lanes[lane].send_done = true;
                self.pump(ctx, lane);
            }
            MemberEvent::Reduced => {
                self.lanes[lane].reduce_done = true;
                self.pump(ctx, lane);
            }
        }
        self.check_complete()
    }

    fn check_complete(&mut self) -> bool {
        if self.running && self.lanes_left == 0 && self.copies_left == 0 {
            self.running = false;
            self.stats.rounds += 1;
            true
        } else {
            false
        }
    }
}

/// Functional reduction kernel body: `dst[doff..] += src[soff..]`.
/// Phantom-safe: does nothing when either buffer is phantom.
pub fn reduce_add(
    m: &mut MemoryPool,
    src: BufferId,
    soff: usize,
    dst: BufferId,
    doff: usize,
    len: usize,
) {
    let Some(vals) = m.read(BufRange::new(src, soff, len)) else {
        return;
    };
    let Some(d) = m.get_mut(dst).as_mut_slice() else {
        return;
    };
    for (i, v) in vals.iter().enumerate() {
        d[doff + i] += v;
    }
}

/// Functional local-copy kernel body. Phantom-safe.
pub fn local_copy(
    m: &mut MemoryPool,
    src: BufferId,
    soff: usize,
    dst: BufferId,
    doff: usize,
    len: usize,
) {
    if let Some(vals) = m.read(BufRange::new(src, soff, len)) {
        m.write(BufRange::new(dst, doff, len), &vals);
    }
}

/// The distinct `(lane, low rank, high rank)` channel edges a plan
/// needs, in deterministic order.
pub fn plan_edges(plan: &CollPlan) -> Vec<(usize, usize, usize)> {
    let mut set = BTreeSet::new();
    for (r, m) in plan.members.iter().enumerate() {
        for (l, lane) in m.lanes.iter().enumerate() {
            for st in &lane.steps {
                for x in [st.send, st.recv].into_iter().flatten() {
                    if x.len > 0 {
                        set.insert((l, r.min(x.peer), r.max(x.peer)));
                    }
                }
            }
        }
    }
    set.into_iter().collect()
}

/// Create and install every channel a plan needs. `ids[r]` is the chare
/// hosting rank `r`; `get` picks the plan's [`CollMember`] out of the
/// chare (apps embedding several members select by plan).
pub fn wire_members<C: Chare>(
    machine: &mut Machine,
    ids: &[ChareId],
    plan: &CollPlan,
    mut get: impl FnMut(&mut C) -> &mut CollMember,
) {
    assert_eq!(ids.len(), plan.ranks);
    for (lane, a, b) in plan_edges(plan) {
        let (ea, eb) = create_channel(machine, ids[a], ids[b]);
        get(machine.chare_mut(ids[a])).install_channel(lane, b, ea);
        get(machine.chare_mut(ids[b])).install_channel(lane, a, eb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan, Algorithm, CollOp};

    #[test]
    fn ring_edges_are_neighbours_only() {
        let p = plan(CollOp::AllReduce, Algorithm::Ring, 4, 64, 1 << 20);
        let edges = plan_edges(&p);
        assert_eq!(edges, vec![(0, 0, 1), (0, 0, 3), (0, 1, 2), (0, 2, 3)]);
    }

    #[test]
    fn tree_edges_are_parent_child() {
        let p = plan(CollOp::AllReduce, Algorithm::Tree, 5, 64, 1 << 20);
        let edges = plan_edges(&p);
        assert_eq!(edges, vec![(0, 0, 1), (0, 0, 2), (0, 0, 4), (0, 2, 3)]);
    }

    #[test]
    fn alltoall_edges_are_all_pairs() {
        let p = plan(CollOp::AllToAll, Algorithm::Ring, 4, 8, 1 << 20);
        assert_eq!(plan_edges(&p).len(), 6);
    }

    #[test]
    fn stats_merge_adds() {
        let mut a = MemberStats {
            bytes: 1,
            chunks: 2,
            steps: 3,
            reduced_elems: 4,
            rounds: 5,
        };
        a.merge(&a.clone());
        assert_eq!(a.bytes, 2);
        assert_eq!(a.rounds, 10);
    }
}
