//! The simulated GPU device: streams with in-order (FIFO) semantics,
//! CUDA-event dependencies across streams, graph instances, and the
//! compute/DMA engines they feed.
//!
//! The device is a passive state machine. [`Device::advance`] is
//! idempotent: it accounts engine progress up to `now`, applies functional
//! effects of finished operations, issues newly-ready stream ops, and
//! returns the next instant at which something will complete. The
//! host-side pump in [`crate::host`] wires this into the event loop.
//!
//! Issuing costs O(streams that changed), not O(all streams): the device
//! marks a stream when something happens that can let it progress (an
//! enqueue, the end of its in-flight op, the recording of an event it
//! waits on), and [`Device::advance`] visits only marked streams.

use std::collections::VecDeque;

use gaat_sim::{FaultPlan, SimDuration, SimTime, Slab, Tracer};

use crate::engines::{ComputeEngine, DmaEngine, JobId, PRIORITY_CLASSES};
use crate::graph::{GraphInstance, GraphSpec};
use crate::memory::{BufRange, MemoryPool};
use crate::op::{CompletionTag, CudaEventId, GraphId, KernelFunc, Op, OpKind, StreamId, Work};
use crate::timing::GpuTimingModel;

/// Global identifier of a device (index into the machine's device table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub usize);

#[derive(Debug, Clone)]
struct Stream {
    class: usize,
    queue: VecDeque<Op>,
    /// An op from this stream is executing on an engine (or as a graph
    /// instance); FIFO order forbids issuing the next one until it ends.
    in_flight: bool,
    /// The head op waits on an unrecorded event and this stream is in
    /// that event's waiter list. Only the head can block, so a stream is
    /// in at most one list.
    waiting: bool,
    /// The next stream in the same waiter list.
    next_waiter: Option<u32>,
}

/// A CUDA-style event.
#[derive(Debug, Clone, Default)]
struct Event {
    /// Instant of the latest record, `None` while unrecorded.
    recorded: Option<SimTime>,
    /// First stream of the list of streams blocked on a `WaitEvent` for
    /// this event, linked through `Stream::next_waiter`. Recording the
    /// event marks them all ready and empties the list.
    waiters: Option<u32>,
}

/// A set of stream indices, one bit per stream.
#[derive(Debug, Clone, Default)]
struct StreamSet {
    words: Vec<u64>,
}

impl StreamSet {
    fn insert(&mut self, s: usize) {
        let w = s / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (s % 64);
    }

    fn remove(&mut self, s: usize) {
        self.words[s / 64] &= !(1 << (s % 64));
    }

    /// The smallest member at or above `from`.
    fn first_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = self.words.get(w)? & (!0 << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.words.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    fn clear(&mut self) {
        self.words.fill(0);
    }
}

#[derive(Clone)]
enum Effect {
    None,
    Kernel(KernelFunc),
    Copy { src: BufRange, dst: BufRange },
}

/// Trace metadata carried by every engine job.
#[derive(Debug, Clone, Copy)]
struct JobMeta {
    /// Engine lane: 0 = compute, 1 = D2H, 2 = H2D.
    lane: u32,
    category: &'static str,
    label: &'static str,
    submitted: SimTime,
}

/// What an engine job's completion releases.
#[derive(Debug, Clone, Copy)]
enum Owner {
    /// A stream op: the stream may issue again, and its tag fires.
    Stream {
        stream: usize,
        tag: Option<CompletionTag>,
    },
    /// A node of a running graph instance: its children may dispatch.
    Node { instance: u64, node: usize },
}

/// One engine job in flight: who issued it, the functional effect to
/// apply at its completion, and its trace span so far.
#[derive(Clone)]
struct Job {
    owner: Owner,
    effect: Effect,
    meta: JobMeta,
}

/// Aggregate statistics of one device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Kernels launched via streams (not graph nodes).
    pub kernels: u64,
    /// Kernel-equivalents executed as graph nodes.
    pub graph_nodes: u64,
    /// Whole-graph launches.
    pub graph_launches: u64,
    /// DMA transfers (both directions, stream + graph).
    pub memcpys: u64,
    /// Bytes moved by DMA.
    pub memcpy_bytes: u64,
    /// Completion tags fired.
    pub completions: u64,
}

/// One simulated GPU.
#[derive(Clone)]
pub struct Device {
    /// This device's identifier.
    pub id: DeviceId,
    /// Timing model in effect.
    pub timing: GpuTimingModel,
    /// Device + pinned host memory.
    pub mem: MemoryPool,
    streams: Vec<Stream>,
    /// Streams that may be able to issue: marked on enqueue, when their
    /// in-flight op ends, and when an event they wait on is recorded. An
    /// unmarked stream cannot progress.
    ready: StreamSet,
    events: Vec<Event>,
    graphs: Vec<GraphSpec>,
    /// Executing graph launches, keyed by the key their nodes' jobs carry.
    instances: Slab<GraphInstance>,
    compute: ComputeEngine,
    d2h: DmaEngine,
    h2d: DmaEngine,
    /// Engine jobs in flight; the slab key is the `JobId`.
    jobs: Slab<Job>,
    /// Scratch for the jobs one `advance` finds finished.
    done: Vec<JobId>,
    completions: Vec<CompletionTag>,
    /// Earliest wakeup currently scheduled by the pump (dedup only).
    pub(crate) scheduled_wakeup: Option<SimTime>,
    /// Fault plan consulted for straggler windows (inert by default).
    faults: FaultPlan,
    stats: DeviceStats,
    /// Span recorder (disabled unless the embedder enables it); lanes:
    /// 0 = compute engine, 1 = D2H engine, 2 = H2D engine.
    pub tracer: Tracer,
}

impl Device {
    /// A device with the given timing model and no streams.
    pub fn new(id: DeviceId, timing: GpuTimingModel) -> Self {
        let slots = timing.compute_slots;
        Device {
            id,
            timing,
            mem: MemoryPool::new(),
            streams: Vec::new(),
            ready: StreamSet::default(),
            events: Vec::new(),
            graphs: Vec::new(),
            instances: Slab::new(),
            compute: ComputeEngine::new(slots),
            d2h: DmaEngine::new(),
            h2d: DmaEngine::new(),
            jobs: Slab::new(),
            done: Vec::new(),
            completions: Vec::new(),
            scheduled_wakeup: None,
            faults: FaultPlan::none(),
            stats: DeviceStats::default(),
            tracer: Tracer::new(),
        }
    }

    /// Create a stream with priority class `class` (0 = lowest,
    /// `PRIORITY_CLASSES - 1` = highest).
    pub fn create_stream(&mut self, class: usize) -> StreamId {
        assert!(class < PRIORITY_CLASSES, "priority class out of range");
        let id = StreamId(self.streams.len() as u32);
        self.streams.push(Stream {
            class,
            queue: VecDeque::new(),
            in_flight: false,
            waiting: false,
            next_waiter: None,
        });
        id
    }

    /// Create an (unrecorded) event.
    pub fn create_event(&mut self) -> CudaEventId {
        let id = CudaEventId(self.events.len() as u32);
        self.events.push(Event::default());
        id
    }

    /// Clear an event back to the unrecorded state so it can be reused in
    /// the next iteration.
    pub fn reset_event(&mut self, ev: CudaEventId) {
        self.events[ev.0 as usize].recorded = None;
    }

    /// Instant at which an event was recorded, if it has been.
    pub fn event_time(&self, ev: CudaEventId) -> Option<SimTime> {
        self.events[ev.0 as usize].recorded
    }

    /// Register a captured graph for later launching.
    pub fn register_graph(&mut self, spec: GraphSpec) -> GraphId {
        let id = GraphId(self.graphs.len() as u32);
        self.graphs.push(spec);
        id
    }

    /// Number of nodes in a registered graph.
    pub fn graph_len(&self, g: GraphId) -> usize {
        self.graphs[g.0 as usize].len()
    }

    /// Replace the kernel of one graph node (the analogue of
    /// `cudaGraphExecKernelNodeSetParams`). The structural DAG is fixed;
    /// only the node's payload changes. The *CPU cost* of the update is
    /// charged by the caller (see `GpuTimingModel::graph_node_update_cpu`)
    /// — the paper's §III-D2 point is precisely that paying it for every
    /// node every iteration voids the benefit of graphs.
    ///
    /// # Panics
    /// Panics if the node is not a kernel node or the graph is currently
    /// executing.
    pub fn update_graph_kernel(&mut self, g: GraphId, node: usize, spec: crate::op::KernelSpec) {
        assert!(
            !self.instances.values().any(|i| i.graph == g.0 as usize),
            "cannot update a graph while an instance is executing"
        );
        match &mut self.graphs[g.0 as usize].nodes[node].work {
            Work::Kernel(k) => *k = spec,
            other => panic!("node {node} is not a kernel node: {other:?}"),
        }
    }

    /// Append an operation to a stream. Call [`crate::host::pump`] (or
    /// [`Device::advance`]) afterwards to let it issue.
    pub fn enqueue(&mut self, stream: StreamId, op: Op) {
        let s = stream.0 as usize;
        self.streams[s].queue.push_back(op);
        self.ready.insert(s);
    }

    /// True if the stream has no queued or in-flight work.
    pub fn stream_idle(&self, stream: StreamId) -> bool {
        let s = &self.streams[stream.0 as usize];
        !s.in_flight && s.queue.is_empty()
    }

    /// Device statistics so far.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Bytes of device memory (HBM) currently allocated.
    pub fn device_bytes(&self) -> u64 {
        self.mem.bytes_in(crate::memory::Space::Device)
    }

    /// Panic if allocations exceed the modeled HBM capacity — the check a
    /// real `cudaMalloc` failure would force. Drivers call this after
    /// setting up an application.
    pub fn assert_memory_fits(&self) {
        let used = self.device_bytes();
        assert!(
            used <= self.timing.mem_capacity,
            "device {:?} over capacity: {:.2} GB allocated of {:.2} GB",
            self.id,
            used as f64 / 1e9,
            self.timing.mem_capacity as f64 / 1e9,
        );
    }

    /// Take all completion tags fired since the last drain.
    pub fn drain_completions(&mut self) -> Vec<CompletionTag> {
        std::mem::take(&mut self.completions)
    }

    /// Hand back a buffer [`Device::drain_completions`] returned, once its
    /// tags are handled, so later completions reuse its allocation. Tags
    /// still in it are discarded; the buffer is dropped instead if tags
    /// fired in the meantime.
    pub fn recycle_completions(&mut self, mut buf: Vec<CompletionTag>) {
        if self.completions.is_empty() {
            buf.clear();
            self.completions = buf;
        }
    }

    /// Install the fault plan consulted for straggler windows. Work
    /// submitted while a window covers this device takes `slowdown`
    /// times as long.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Straggler dilation for work submitted at `now`. Sampled once at
    /// submission: a job that spans a window boundary keeps the factor
    /// it was admitted with.
    fn dilate(&self, now: SimTime, d: SimDuration) -> SimDuration {
        if self.faults.stragglers.is_empty() {
            return d;
        }
        let f = self.faults.straggler_slowdown(self.id.0, now);
        if f == 1.0 {
            d
        } else {
            d.mul_f64(f)
        }
    }

    /// Abandon every piece of queued and in-flight work: stream queues,
    /// engine jobs, graph instances, undrained completion tags, and
    /// recorded events. Used by the runtime's failure recovery, where
    /// work issued before a rollback must neither complete nor apply its
    /// functional effects afterwards.
    pub fn purge(&mut self, now: SimTime) {
        for s in &mut self.streams {
            s.queue.clear();
            s.in_flight = false;
            s.waiting = false;
            s.next_waiter = None;
        }
        self.ready.clear();
        for e in &mut self.events {
            *e = Event::default();
        }
        self.instances.clear();
        self.jobs.clear();
        self.completions.clear();
        self.compute.clear(now);
        self.d2h.clear();
        self.h2d.clear();
        self.scheduled_wakeup = None;
    }

    /// Account progress up to `now`, apply effects, issue ready work, and
    /// return the next completion instant if any work is in flight.
    pub fn advance(&mut self, now: SimTime) -> Option<SimTime> {
        let mut done = std::mem::take(&mut self.done);
        self.compute.advance(now, &mut done);
        self.d2h.advance(now, &mut done);
        self.h2d.advance(now, &mut done);
        for &job in &done {
            self.finish_job(job, now);
        }
        done.clear();
        self.done = done;
        self.pump_streams(now);
        self.next_wakeup()
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        [
            self.compute.next_completion(),
            self.d2h.next_completion(),
            self.h2d.next_completion(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn fire_tag(&mut self, tag: Option<CompletionTag>) {
        if let Some(t) = tag {
            self.completions.push(t);
            self.stats.completions += 1;
        }
    }

    /// The op in flight on stream `s` ended: it may issue again.
    fn release_stream(&mut self, s: usize) {
        self.streams[s].in_flight = false;
        self.ready.insert(s);
    }

    fn finish_job(&mut self, job: JobId, now: SimTime) {
        let Job {
            owner,
            effect,
            meta,
        } = self.jobs.remove(job).expect("unknown job finished");
        self.tracer
            .record(meta.lane, meta.category, meta.label, meta.submitted, now);
        match effect {
            Effect::None => {}
            Effect::Kernel(f) => f(&mut self.mem),
            Effect::Copy { src, dst } => self.mem.copy(src, dst),
        }
        match owner {
            Owner::Stream { stream, tag } => {
                self.release_stream(stream);
                self.fire_tag(tag);
            }
            Owner::Node { instance, node } => {
                // Release the node's children in edge order.
                let spec_idx = self.instances.get(instance).expect("live").graph;
                for i in 0..self.graphs[spec_idx].children[node].len() {
                    let c = self.graphs[spec_idx].children[node][i];
                    let inst = self.instances.get_mut(instance).expect("live");
                    inst.indegree[c] -= 1;
                    if inst.indegree[c] == 0 {
                        self.dispatch_node(instance, c, now);
                    }
                }
                let inst = self.instances.get_mut(instance).expect("live");
                inst.remaining -= 1;
                if inst.remaining == 0 {
                    let inst = self.instances.remove(instance).expect("live");
                    self.release_stream(inst.stream);
                    self.fire_tag(inst.tag);
                }
            }
        }
    }

    fn dispatch_node(&mut self, instance: u64, node: usize, now: SimTime) {
        let spec_idx = self.instances.get(instance).expect("live").graph;
        let n = &self.graphs[spec_idx].nodes[node];
        let (work, class) = (n.work.clone(), n.class);
        self.issue(work, class, Owner::Node { instance, node }, now);
    }

    /// Submit `work` to its engine at priority `class`: the one place an
    /// engine job is made. A graph node pays the cheaper device dispatch,
    /// counts its kernel in `graph_nodes` rather than `kernels`, and
    /// traces under `"graph"`; the job's effect is taken now, which is
    /// safe for a node because [`Device::update_graph_kernel`] refuses to
    /// change a running graph.
    fn issue(&mut self, work: Work, class: usize, owner: Owner, now: SimTime) {
        let node = matches!(owner, Owner::Node { .. });
        let (lane, label, effect, dur) = match work {
            Work::Kernel(spec) => {
                let dispatch = if node {
                    self.stats.graph_nodes += 1;
                    self.timing.graph_node_dispatch
                } else {
                    self.stats.kernels += 1;
                    self.timing.kernel_dispatch
                };
                let effect = spec.func.map_or(Effect::None, Effect::Kernel);
                (0, spec.name, effect, spec.work + dispatch)
            }
            Work::MemcpyD2H { src, dst } | Work::MemcpyH2D { src, dst } => {
                let (lane, label) = match work {
                    Work::MemcpyD2H { .. } => (1, "d2h"),
                    _ => (2, "h2d"),
                };
                self.stats.memcpys += 1;
                self.stats.memcpy_bytes += src.bytes();
                let dur = self.timing.dma_time(src.bytes());
                (lane, label, Effect::Copy { src, dst }, dur)
            }
        };
        let category = match (node, lane) {
            (true, _) => "graph",
            (false, 0) => "kernel",
            (false, _) => "memcpy",
        };
        let meta = JobMeta {
            lane,
            category,
            label,
            submitted: now,
        };
        let job = self.jobs.insert(Job {
            owner,
            effect,
            meta,
        });
        let dur = self.dilate(now, dur);
        match lane {
            0 => self.compute.submit(job, class, dur),
            1 => self.d2h.submit(now, job, class, dur),
            _ => self.h2d.submit(now, job, class, dur),
        }
    }

    /// Issue every stream op that can issue. Only marked streams are
    /// visited, in ascending passes behind a cursor: a stream marked above
    /// the cursor (an `EventRecord` releasing a later stream's `WaitEvent`)
    /// is visited in this pass, one at or below it in the next. An
    /// unmarked stream cannot progress, so this issues exactly what
    /// repeated full ascending passes to a fixpoint would, in the same
    /// order.
    fn pump_streams(&mut self, now: SimTime) {
        let mut cursor = 0;
        while let Some(s) = self
            .ready
            .first_from(cursor)
            .or_else(|| self.ready.first_from(0))
        {
            self.ready.remove(s);
            self.pump_one(s, now);
            cursor = s + 1;
        }
    }

    /// Issue ops from the head of stream `s` until it is in flight, empty,
    /// or blocked on an unrecorded event, whose waiter list it then joins.
    fn pump_one(&mut self, s: usize, now: SimTime) {
        while !self.streams[s].in_flight {
            let Some(op) = self.streams[s].queue.front() else {
                return;
            };
            if let OpKind::WaitEvent(ev) = op.kind {
                let e = &mut self.events[ev.0 as usize];
                if e.recorded.is_none() {
                    let stream = &mut self.streams[s];
                    if !stream.waiting {
                        stream.waiting = true;
                        stream.next_waiter = e.waiters.replace(s as u32);
                    }
                    return;
                }
            }
            let op = self.streams[s].queue.pop_front().expect("front");
            match op.kind {
                OpKind::Marker | OpKind::WaitEvent(_) => self.fire_tag(op.tag),
                OpKind::EventRecord(ev) => {
                    let e = &mut self.events[ev.0 as usize];
                    e.recorded = Some(now);
                    let mut next = e.waiters.take();
                    while let Some(w) = next {
                        let waiter = &mut self.streams[w as usize];
                        waiter.waiting = false;
                        next = waiter.next_waiter.take();
                        self.ready.insert(w as usize);
                    }
                    self.fire_tag(op.tag);
                }
                OpKind::Work(work) => {
                    let class = self.streams[s].class;
                    let owner = Owner::Stream {
                        stream: s,
                        tag: op.tag,
                    };
                    self.issue(work, class, owner, now);
                    self.streams[s].in_flight = true;
                }
                OpKind::GraphLaunch(g) => {
                    self.stats.graph_launches += 1;
                    let spec = &self.graphs[g.0 as usize];
                    if spec.is_empty() {
                        self.fire_tag(op.tag);
                        continue;
                    }
                    let indegree: Vec<usize> = spec.nodes.iter().map(|n| n.deps.len()).collect();
                    let remaining = spec.len();
                    let roots = spec.roots();
                    let inst = self.instances.insert(GraphInstance {
                        graph: g.0 as usize,
                        stream: s,
                        indegree,
                        remaining,
                        tag: op.tag,
                    });
                    for r in roots {
                        self.dispatch_node(inst, r, now);
                    }
                    self.streams[s].in_flight = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::memory::Space;
    use crate::op::KernelSpec;
    use gaat_sim::SimDuration;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn dev() -> Device {
        Device::new(DeviceId(0), GpuTimingModel::default())
    }

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    /// Drive the device to completion with a manual loop; returns the time
    /// at which the last op finished and all tags fired so far.
    fn drain(d: &mut Device, mut now: SimTime) -> (SimTime, Vec<CompletionTag>) {
        let mut tags = Vec::new();
        loop {
            let wake = d.advance(now);
            tags.extend(d.drain_completions());
            match wake {
                Some(w) => now = w,
                None => return (now, tags),
            }
        }
    }

    #[test]
    fn kernel_completes_after_work_plus_dispatch() {
        let mut d = dev();
        let s = d.create_stream(0);
        d.enqueue(
            s,
            Op::kernel(KernelSpec::phantom("k", SimDuration::from_us(10)))
                .with_tag(CompletionTag(1)),
        );
        let (end, tags) = drain(&mut d, t(0));
        assert_eq!(tags, vec![CompletionTag(1)]);
        let expect = SimDuration::from_us(10) + d.timing.kernel_dispatch;
        assert_eq!(end.as_ns(), expect.as_ns());
        assert_eq!(d.stats().kernels, 1);
    }

    #[test]
    fn stream_is_fifo() {
        let mut d = dev();
        let s = d.create_stream(0);
        for i in 0..3 {
            d.enqueue(
                s,
                Op::kernel(KernelSpec::phantom("k", SimDuration::from_us(5)))
                    .with_tag(CompletionTag(i)),
            );
        }
        let (end, tags) = drain(&mut d, t(0));
        assert_eq!(
            tags,
            vec![CompletionTag(0), CompletionTag(1), CompletionTag(2)]
        );
        // serialized: 3 * (5us + dispatch)
        let per = SimDuration::from_us(5) + d.timing.kernel_dispatch;
        assert_eq!(end.as_ns(), 3 * per.as_ns());
    }

    #[test]
    fn independent_streams_share_compute() {
        let mut d = dev();
        let a = d.create_stream(0);
        let b = d.create_stream(0);
        d.enqueue(
            a,
            Op::kernel(KernelSpec::phantom("a", SimDuration::from_us(10))),
        );
        d.enqueue(
            b,
            Op::kernel(KernelSpec::phantom("b", SimDuration::from_us(10))),
        );
        let (end, _) = drain(&mut d, t(0));
        // processor sharing: both complete at 2*(10us+dispatch) — i.e. they
        // ran concurrently, not 2x serialized with an idle device.
        let per = SimDuration::from_us(10) + d.timing.kernel_dispatch;
        assert_eq!(end.as_ns(), 2 * per.as_ns());
    }

    #[test]
    fn marker_fires_in_order() {
        let mut d = dev();
        let s = d.create_stream(0);
        d.enqueue(
            s,
            Op::kernel(KernelSpec::phantom("k", SimDuration::from_us(1))),
        );
        d.enqueue(s, Op::marker().with_tag(CompletionTag(9)));
        // Marker must not fire before the kernel completes.
        d.advance(t(0));
        assert!(d.drain_completions().is_empty());
        let (_, tags) = drain(&mut d, t(0));
        assert_eq!(tags, vec![CompletionTag(9)]);
    }

    #[test]
    fn event_synchronizes_streams() {
        let mut d = dev();
        let a = d.create_stream(0);
        let b = d.create_stream(0);
        let ev = d.create_event();
        // stream b waits for event recorded after a's kernel
        d.enqueue(b, Op::wait(ev));
        d.enqueue(
            b,
            Op::kernel(KernelSpec::phantom("b", SimDuration::from_us(1)))
                .with_tag(CompletionTag(2)),
        );
        d.enqueue(
            a,
            Op::kernel(KernelSpec::phantom("a", SimDuration::from_us(5))),
        );
        d.enqueue(a, Op::record(ev).with_tag(CompletionTag(1)));
        let (_, tags) = drain(&mut d, t(0));
        assert_eq!(tags, vec![CompletionTag(1), CompletionTag(2)]);
        let a_done = SimDuration::from_us(5) + d.timing.kernel_dispatch;
        assert_eq!(d.event_time(ev), Some(SimTime::ZERO + a_done));
    }

    #[test]
    fn event_reset_blocks_again() {
        let mut d = dev();
        let s = d.create_stream(0);
        let ev = d.create_event();
        d.enqueue(s, Op::record(ev));
        d.advance(t(0));
        assert!(d.event_time(ev).is_some());
        d.reset_event(ev);
        d.enqueue(s, Op::wait(ev));
        d.enqueue(s, Op::marker().with_tag(CompletionTag(5)));
        d.advance(t(10));
        assert!(
            d.drain_completions().is_empty(),
            "wait must block after reset"
        );
        d.enqueue(s, Op::record(ev)); // queued behind the wait: deadlock in
                                      // real CUDA too; record from another stream instead
        let s2 = d.create_stream(0);
        d.enqueue(s2, Op::record(ev));
        d.advance(t(20));
        assert_eq!(d.drain_completions(), vec![CompletionTag(5)]);
    }

    #[test]
    fn memcpy_uses_separate_engines() {
        let mut d = dev();
        let dbuf = d.mem.alloc_real(Space::Device, 1024);
        let hbuf = d.mem.alloc_real(Space::Host, 1024);
        let s1 = d.create_stream(0);
        let s2 = d.create_stream(0);
        d.enqueue(
            s1,
            Op::d2h(BufRange::whole(dbuf, 1024), BufRange::whole(hbuf, 1024)),
        );
        d.enqueue(
            s2,
            Op::h2d(BufRange::whole(hbuf, 1024), BufRange::whole(dbuf, 1024)),
        );
        let (end, _) = drain(&mut d, t(0));
        // both directions in parallel: total time = one dma_time
        assert_eq!(end, SimTime::ZERO + d.timing.dma_time(8 * 1024));
        assert_eq!(d.stats().memcpys, 2);
        assert_eq!(d.stats().memcpy_bytes, 2 * 8 * 1024);
    }

    #[test]
    fn memcpy_moves_real_data() {
        let mut d = dev();
        let dbuf = d.mem.alloc_real(Space::Device, 4);
        let hbuf = d.mem.alloc_real(Space::Host, 4);
        d.mem.write(BufRange::whole(dbuf, 4), &[1.0, 2.0, 3.0, 4.0]);
        let s = d.create_stream(0);
        d.enqueue(
            s,
            Op::d2h(BufRange::whole(dbuf, 4), BufRange::whole(hbuf, 4)),
        );
        drain(&mut d, t(0));
        assert_eq!(
            d.mem.read(BufRange::whole(hbuf, 4)).expect("real"),
            vec![1.0, 2.0, 3.0, 4.0]
        );
    }

    #[test]
    fn kernel_func_applies_at_completion() {
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = counter.clone();
        let mut d = dev();
        let s = d.create_stream(0);
        d.enqueue(
            s,
            Op::kernel(KernelSpec {
                name: "count",
                work: SimDuration::from_us(1),
                func: Some(Arc::new(move |_m| {
                    c2.fetch_add(1, Ordering::Relaxed);
                })),
            }),
        );
        d.advance(t(0));
        assert_eq!(counter.load(Ordering::Relaxed), 0, "not before completion");
        drain(&mut d, t(0));
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn high_priority_stream_preempts() {
        let mut d = dev();
        let lo = d.create_stream(0);
        let hi = d.create_stream(3);
        d.enqueue(
            lo,
            Op::kernel(KernelSpec::phantom("big", SimDuration::from_us(100)))
                .with_tag(CompletionTag(1)),
        );
        d.advance(t(0));
        // at t=10us, enqueue a tiny high-priority kernel
        d.enqueue(
            hi,
            Op::kernel(KernelSpec::phantom("small", SimDuration::from_us(2)))
                .with_tag(CompletionTag(2)),
        );
        let (_, tags) = drain(&mut d, t(10_000));
        // The small kernel finishes first despite arriving later.
        assert_eq!(tags, vec![CompletionTag(2), CompletionTag(1)]);
    }

    #[test]
    fn graph_runs_dag_with_dependencies() {
        let mut d = dev();
        let s = d.create_stream(0);
        let mut b = GraphBuilder::new();
        let k = |n| KernelSpec::phantom(n, SimDuration::from_us(10));
        let a = b.kernel(k("a"), 0, &[]);
        let c = b.kernel(k("c"), 0, &[]);
        let join = b.kernel(k("join"), 0, &[a, c]);
        let _ = join;
        let g = d.register_graph(b.build());
        d.enqueue(s, Op::graph(g).with_tag(CompletionTag(7)));
        let (end, tags) = drain(&mut d, t(0));
        assert_eq!(tags, vec![CompletionTag(7)]);
        // a and c run concurrently (PS: 2x10us each stretched to 20us+2*nd),
        // then join runs alone (10us + nd).
        let nd = d.timing.graph_node_dispatch;
        let expect = (SimDuration::from_us(10) + nd) * 2 + (SimDuration::from_us(10) + nd);
        assert_eq!(end.as_ns(), expect.as_ns());
        assert_eq!(d.stats().graph_launches, 1);
        assert_eq!(d.stats().graph_nodes, 3);
    }

    #[test]
    fn graph_blocks_its_stream() {
        let mut d = dev();
        let s = d.create_stream(0);
        let mut b = GraphBuilder::new();
        b.kernel(KernelSpec::phantom("n", SimDuration::from_us(5)), 0, &[]);
        let g = d.register_graph(b.build());
        d.enqueue(s, Op::graph(g));
        d.enqueue(s, Op::marker().with_tag(CompletionTag(1)));
        d.advance(t(0));
        assert!(d.drain_completions().is_empty());
        let (_, tags) = drain(&mut d, t(0));
        assert_eq!(tags, vec![CompletionTag(1)]);
    }

    #[test]
    fn empty_graph_completes_immediately() {
        let mut d = dev();
        let s = d.create_stream(0);
        let g = d.register_graph(GraphBuilder::new().build());
        d.enqueue(s, Op::graph(g).with_tag(CompletionTag(3)));
        d.advance(t(0));
        assert_eq!(d.drain_completions(), vec![CompletionTag(3)]);
    }

    #[test]
    fn graph_node_dispatch_cheaper_than_stream_launch() {
        // The same chain of 10 kernels: graph execution must be faster
        // than stream execution because per-node dispatch is cheaper.
        let chain = 10usize;
        let work = SimDuration::from_us(2);

        let mut d1 = dev();
        let s = d1.create_stream(0);
        for _ in 0..chain {
            d1.enqueue(s, Op::kernel(KernelSpec::phantom("k", work)));
        }
        let (stream_end, _) = drain(&mut d1, t(0));

        let mut d2 = dev();
        let s2 = d2.create_stream(0);
        let mut b = GraphBuilder::new();
        let mut prev = None;
        for _ in 0..chain {
            let deps: Vec<_> = prev.into_iter().collect();
            prev = Some(b.kernel(KernelSpec::phantom("k", work), 0, &deps));
        }
        let g = d2.register_graph(b.build());
        d2.enqueue(s2, Op::graph(g));
        let (graph_end, _) = drain(&mut d2, t(0));

        assert!(
            graph_end < stream_end,
            "graph {graph_end} should beat stream {stream_end}"
        );
        let saved = d1.timing.kernel_dispatch - d1.timing.graph_node_dispatch;
        assert_eq!(
            stream_end.as_ns() - graph_end.as_ns(),
            saved.as_ns() * chain as u64
        );
    }

    #[test]
    fn trace_spans_name_lane_category_and_label() {
        let mut d = dev();
        d.tracer.set_enabled(true);
        let cells = 512;
        let dbuf = d.mem.alloc_phantom(Space::Device, cells);
        let hbuf = d.mem.alloc_phantom(Space::Host, cells);
        let (dev_r, host_r) = (BufRange::whole(dbuf, cells), BufRange::whole(hbuf, cells));
        let mut b = GraphBuilder::new();
        let gk = b.kernel(KernelSpec::phantom("gk", SimDuration::from_us(5)), 0, &[]);
        b.add(
            Work::MemcpyD2H {
                src: dev_r,
                dst: host_r,
            },
            2,
            &[gk],
        );
        let g = d.register_graph(b.build());
        let s = d.create_stream(0);
        d.enqueue(
            s,
            Op::kernel(KernelSpec::phantom("k", SimDuration::from_us(10))),
        );
        d.enqueue(s, Op::d2h(dev_r, host_r));
        d.enqueue(s, Op::h2d(host_r, dev_r));
        d.enqueue(s, Op::graph(g));
        drain(&mut d, t(0));

        let dma = d.timing.dma_time(8 * cells as u64);
        let k_end = t(0) + SimDuration::from_us(10) + d.timing.kernel_dispatch;
        let gk_end = k_end + dma * 2 + SimDuration::from_us(5) + d.timing.graph_node_dispatch;
        let span = |lane, category, label, start: SimTime, len| gaat_sim::Span {
            lane,
            category,
            label,
            start,
            end: start + len,
        };
        let want = [
            span(0, "kernel", "k", t(0), k_end.since(t(0))),
            span(1, "memcpy", "d2h", k_end, dma),
            span(2, "memcpy", "h2d", k_end + dma, dma),
            span(
                0,
                "graph",
                "gk",
                k_end + dma * 2,
                gk_end.since(k_end + dma * 2),
            ),
            span(1, "graph", "d2h", gk_end, dma),
        ];
        assert_eq!(d.tracer.spans(), &want[..]);
    }

    #[test]
    fn instance_slots_are_reused() {
        let mut d = dev();
        let s = d.create_stream(0);
        let mut b = GraphBuilder::new();
        b.kernel(KernelSpec::phantom("n", SimDuration::from_us(1)), 0, &[]);
        let g = d.register_graph(b.build());
        for _ in 0..5 {
            d.enqueue(s, Op::graph(g));
        }
        drain(&mut d, t(0));
        // all instances finished and freed; at most one slot was ever used
        assert!(d.instances.slots() <= 1);
        assert_eq!(d.stats().graph_launches, 5);
    }
}
