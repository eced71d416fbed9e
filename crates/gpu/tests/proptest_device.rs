//! Property-based tests for the device model: FIFO stream semantics,
//! throughput conservation under processor sharing, graph dependency
//! correctness on random DAGs, and a differential test of the issue path
//! against a full-rescan reference device.

use std::collections::{HashMap, VecDeque};

use proptest::prelude::*;

use gaat_gpu::engines::{ComputeEngine, DmaEngine, JobId};
use gaat_gpu::{
    BufRange, BufferId, CompletionTag, CudaEventId, Device, DeviceId, DeviceStats, GpuTimingModel,
    GraphBuilder, GraphId, KernelSpec, NodeIndex, Op, Space, StreamId, Work,
};
use gaat_sim::{SimDuration, SimTime};

/// Drive a device until idle, returning (tag, completion time) in firing
/// order.
fn drain(d: &mut Device) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut now = SimTime::ZERO;
    loop {
        let wake = d.advance(now);
        for t in d.drain_completions() {
            out.push((t.0, now.as_ns()));
        }
        match wake {
            Some(w) => now = w,
            None => return out,
        }
    }
}

proptest! {
    /// Ops of one stream complete in enqueue order; every tag fires once.
    #[test]
    fn stream_fifo_order(works in prop::collection::vec(1u64..50, 1..30)) {
        let mut d = Device::new(DeviceId(0), GpuTimingModel::default());
        let s = d.create_stream(0);
        for (i, &w) in works.iter().enumerate() {
            d.enqueue(
                s,
                Op::kernel(KernelSpec::phantom("k", SimDuration::from_us(w)))
                    .with_tag(CompletionTag(i as u64)),
            );
        }
        let fired = drain(&mut d);
        prop_assert_eq!(fired.len(), works.len());
        for (i, &(tag, _)) in fired.iter().enumerate() {
            prop_assert_eq!(tag, i as u64);
        }
        // serialized: completion time of last = sum(work + dispatch)
        let total: u64 = works
            .iter()
            .map(|w| w * 1000 + d.timing.kernel_dispatch.as_ns())
            .sum();
        prop_assert_eq!(fired.last().expect("nonempty").1, total);
    }

    /// Processor sharing conserves throughput: with everything submitted
    /// at t=0 in one priority class and enough slots, the last completion
    /// lands exactly at the sum of all work.
    #[test]
    fn processor_sharing_conserves_total_work(
        works in prop::collection::vec(1u64..100, 1..20)
    ) {
        let mut d = Device::new(DeviceId(0), GpuTimingModel::default());
        for &w in &works {
            let s = d.create_stream(0);
            d.enqueue(s, Op::kernel(KernelSpec::phantom("k", SimDuration::from_us(w))));
        }
        let mut now = SimTime::ZERO;
        while let Some(w) = d.advance(now) {
            now = w;
        }
        let total: u64 = works
            .iter()
            .map(|w| w * 1000 + d.timing.kernel_dispatch.as_ns())
            .sum();
        // Rounding of shared-progress wakeups may add < 1ns per completion.
        let end = now.as_ns();
        prop_assert!(
            end >= total && end <= total + works.len() as u64,
            "end {end} vs total {total}"
        );
    }

    /// Random DAGs execute all nodes, complete exactly once, and take at
    /// least the critical-path time and at most the serialized time.
    #[test]
    fn graph_respects_dependencies(
        works in prop::collection::vec(1u64..50, 1..25),
        edges in prop::collection::vec((any::<u16>(), any::<u16>()), 0..60),
    ) {
        let n = works.len();
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in &edges {
            let (a, b) = ((a as usize) % n, (b as usize) % n);
            if a < b && !deps[b].contains(&a) {
                deps[b].push(a);
            }
        }
        let mut d = Device::new(DeviceId(0), GpuTimingModel::default());
        let s = d.create_stream(0);
        let mut b = GraphBuilder::new();
        for (i, &w) in works.iter().enumerate() {
            let dd: Vec<NodeIndex> = deps[i].iter().map(|&x| NodeIndex(x)).collect();
            b.kernel(KernelSpec::phantom("n", SimDuration::from_us(w)), 0, &dd);
        }
        let g = d.register_graph(b.build());
        d.enqueue(s, Op::graph(g).with_tag(CompletionTag(99)));
        let fired = drain(&mut d);
        prop_assert_eq!(fired.len(), 1);
        let end = fired[0].1;

        let nd = d.timing.graph_node_dispatch.as_ns();
        let node_ns: Vec<u64> = works.iter().map(|w| w * 1000 + nd).collect();
        // critical path via longest path in DAG (deps are all lower-index)
        let mut dist = vec![0u64; n];
        for i in 0..n {
            let base = deps[i].iter().map(|&p| dist[p]).max().unwrap_or(0);
            dist[i] = base + node_ns[i];
        }
        let critical = dist.iter().copied().max().unwrap_or(0);
        let serial: u64 = node_ns.iter().sum();
        prop_assert!(end >= critical, "end {end} < critical path {critical}");
        prop_assert!(
            end <= serial + n as u64,
            "end {end} > serialized bound {serial}"
        );
        prop_assert_eq!(d.stats().graph_nodes, n as u64);
    }

    /// A high-priority kernel submitted while low-priority work runs never
    /// finishes later than it would on an idle device plus one nanosecond
    /// of rounding (strict priority preemption).
    #[test]
    fn priority_latency_is_isolation(
        lo_work in 10u64..1000,
        hi_work in 1u64..100,
        delay in 0u64..500,
    ) {
        let mut d = Device::new(DeviceId(0), GpuTimingModel::default());
        let lo = d.create_stream(0);
        let hi = d.create_stream(3);
        d.enqueue(lo, Op::kernel(KernelSpec::phantom("lo", SimDuration::from_us(lo_work))));
        d.advance(SimTime::ZERO);
        let submit = SimTime::from_ns(delay * 1000);
        d.enqueue(
            hi,
            Op::kernel(KernelSpec::phantom("hi", SimDuration::from_us(hi_work)))
                .with_tag(CompletionTag(1)),
        );
        let mut now = submit;
        let mut hi_done = None;
        loop {
            let wake = d.advance(now);
            for t in d.drain_completions() {
                if t.0 == 1 {
                    hi_done = Some(now);
                }
            }
            match wake {
                Some(w) => now = w,
                None => break,
            }
        }
        let hi_done = hi_done.expect("high-priority kernel finished");
        let ideal = submit + SimDuration::from_us(hi_work) + d.timing.kernel_dispatch;
        prop_assert!(
            hi_done.as_ns() <= ideal.as_ns() + 1,
            "hi finished {hi_done} vs ideal {ideal}"
        );
    }
}

// ---- differential test of the issue path ------------------------------

/// A stream operation of a random workload. Copies are sized in `f64`
/// cells; kernels in nanoseconds of dedicated-device work.
#[derive(Debug, Clone, Copy)]
enum RefOp {
    Kernel(u64),
    D2h(usize),
    H2d(usize),
    Record(usize),
    Wait(usize),
    Marker,
    Graph(usize),
}

#[derive(Debug, Clone, Copy)]
enum NodeKind {
    Kernel(u64),
    D2h(usize),
    H2d(usize),
}

#[derive(Debug, Clone)]
struct Node {
    kind: NodeKind,
    class: usize,
    deps: Vec<usize>,
}

/// One step of a workload. Enqueues and resets are batched between
/// `Advance` steps, as the runtime batches them between device pumps.
#[derive(Debug, Clone, Copy)]
enum Step {
    Enqueue(usize, RefOp),
    Reset(usize),
    /// Move time forward by this many ns, advancing at every predicted
    /// completion on the way.
    Advance(u64),
}

#[derive(Debug, Clone)]
struct Workload {
    classes: Vec<usize>,
    events: usize,
    graphs: Vec<Vec<Node>>,
    steps: Vec<Step>,
}

const MAX_CELLS: usize = 4096;

type RawNode = (u8, usize, u32, u16);
type RawStep = (u8, u32, u32);

fn workload(
    classes: Vec<usize>,
    events: usize,
    raw_graphs: Vec<Vec<RawNode>>,
    raw_steps: Vec<RawStep>,
) -> Workload {
    let kind = |k: u8, x: u32| match k {
        0 => NodeKind::Kernel(500 + u64::from(x) % 20_000),
        1 => NodeKind::D2h(1 + x as usize % MAX_CELLS),
        _ => NodeKind::H2d(1 + x as usize % MAX_CELLS),
    };
    let graphs: Vec<Vec<Node>> = raw_graphs
        .into_iter()
        .map(|nodes| {
            (0..nodes.len())
                .map(|i| {
                    let (k, class, x, dep_bits) = nodes[i];
                    Node {
                        kind: kind(k, x),
                        class,
                        deps: (0..i).filter(|&d| dep_bits >> d & 1 == 1).collect(),
                    }
                })
                .collect()
        })
        .collect();
    let streams = classes.len() as u32;
    let steps = raw_steps
        .into_iter()
        .map(|(k, a, b)| {
            let s = (a % streams) as usize;
            let ev = b as usize % events;
            match k {
                0..=29 => Step::Enqueue(s, RefOp::Kernel(500 + u64::from(b) % 20_000)),
                30..=37 => Step::Enqueue(s, RefOp::D2h(1 + b as usize % MAX_CELLS)),
                38..=45 => Step::Enqueue(s, RefOp::H2d(1 + b as usize % MAX_CELLS)),
                46..=57 => Step::Enqueue(s, RefOp::Record(ev)),
                58..=69 => Step::Enqueue(s, RefOp::Wait(ev)),
                70..=75 => Step::Enqueue(s, RefOp::Marker),
                76..=80 if !graphs.is_empty() => {
                    Step::Enqueue(s, RefOp::Graph(b as usize % graphs.len()))
                }
                76..=86 => Step::Reset(ev),
                _ => Step::Advance(u64::from(b) % 30_000),
            }
        })
        .collect();
    Workload {
        classes,
        events,
        graphs,
        steps,
    }
}

/// A device driven through the differential test.
trait Model {
    /// Apply an `Enqueue` or `Reset` step; `tag` identifies the op.
    fn apply(&mut self, step: Step, tag: u64);
    fn advance(&mut self, now: SimTime) -> Option<SimTime>;
    fn drain(&mut self) -> Vec<u64>;
}

/// Run a workload, returning every fired tag with the instant it was
/// drained at, in firing order, plus the instant the device went idle.
fn drive(m: &mut dyn Model, steps: &[Step]) -> (Vec<(u64, u64)>, u64) {
    let mut fired = Vec::new();
    let mut now = SimTime::ZERO;
    let mut settle = |m: &mut dyn Model, now: SimTime| {
        let wake = m.advance(now);
        fired.extend(m.drain().into_iter().map(|t| (t, now.as_ns())));
        wake
    };
    let mut wake = None;
    for (i, &step) in steps.iter().enumerate() {
        match step {
            Step::Advance(dt) => {
                let target = now + SimDuration::from_ns(dt);
                while let Some(w) = wake.filter(|&w| w <= target) {
                    now = w;
                    wake = settle(m, now);
                }
                now = target;
                wake = settle(m, now);
            }
            other => m.apply(other, i as u64),
        }
    }
    wake = settle(m, now);
    while let Some(w) = wake {
        now = w;
        wake = settle(m, now);
    }
    (fired, now.as_ns())
}

struct Real {
    d: Device,
    streams: Vec<StreamId>,
    events: Vec<CudaEventId>,
    graphs: Vec<GraphId>,
    dbuf: BufferId,
    hbuf: BufferId,
}

impl Real {
    fn new(w: &Workload, timing: GpuTimingModel) -> Self {
        let mut d = Device::new(DeviceId(0), timing);
        let dbuf = d.mem.alloc_phantom(Space::Device, MAX_CELLS);
        let hbuf = d.mem.alloc_phantom(Space::Host, MAX_CELLS);
        let streams = w.classes.iter().map(|&c| d.create_stream(c)).collect();
        let events = (0..w.events).map(|_| d.create_event()).collect();
        let graphs = w
            .graphs
            .iter()
            .map(|nodes| {
                let mut b = GraphBuilder::new();
                for n in nodes {
                    let kind = match n.kind {
                        NodeKind::Kernel(ns) => {
                            Work::Kernel(KernelSpec::phantom("n", SimDuration::from_ns(ns)))
                        }
                        NodeKind::D2h(c) => Work::MemcpyD2H {
                            src: BufRange::whole(dbuf, c),
                            dst: BufRange::whole(hbuf, c),
                        },
                        NodeKind::H2d(c) => Work::MemcpyH2D {
                            src: BufRange::whole(hbuf, c),
                            dst: BufRange::whole(dbuf, c),
                        },
                    };
                    let deps: Vec<NodeIndex> = n.deps.iter().map(|&x| NodeIndex(x)).collect();
                    b.add(kind, n.class, &deps);
                }
                d.register_graph(b.build())
            })
            .collect();
        Real {
            d,
            streams,
            events,
            graphs,
            dbuf,
            hbuf,
        }
    }
}

impl Model for Real {
    fn apply(&mut self, step: Step, tag: u64) {
        let (s, op) = match step {
            Step::Enqueue(s, op) => (s, op),
            Step::Reset(ev) => return self.d.reset_event(self.events[ev]),
            Step::Advance(_) => unreachable!(),
        };
        let (dbuf, hbuf) = (self.dbuf, self.hbuf);
        let op = match op {
            RefOp::Kernel(ns) => Op::kernel(KernelSpec::phantom("k", SimDuration::from_ns(ns))),
            RefOp::D2h(c) => Op::d2h(BufRange::whole(dbuf, c), BufRange::whole(hbuf, c)),
            RefOp::H2d(c) => Op::h2d(BufRange::whole(hbuf, c), BufRange::whole(dbuf, c)),
            RefOp::Record(ev) => Op::record(self.events[ev]),
            RefOp::Wait(ev) => Op::wait(self.events[ev]),
            RefOp::Marker => Op::marker(),
            RefOp::Graph(g) => Op::graph(self.graphs[g]),
        };
        self.d
            .enqueue(self.streams[s], op.with_tag(CompletionTag(tag)));
    }

    fn advance(&mut self, now: SimTime) -> Option<SimTime> {
        self.d.advance(now)
    }

    fn drain(&mut self) -> Vec<u64> {
        let buf = self.d.drain_completions();
        let tags = buf.iter().map(|t| t.0).collect();
        self.d.recycle_completions(buf);
        tags
    }
}

struct OracleStream {
    class: usize,
    queue: VecDeque<(RefOp, u64)>,
    in_flight: bool,
}

enum Origin {
    Stream(usize, u64),
    Node(usize, usize),
}

struct OracleInstance {
    graph: usize,
    stream: usize,
    indegree: Vec<usize>,
    remaining: usize,
    tag: u64,
}

/// The device's issue path as it was before streams were marked: every
/// pump rescans all streams in ascending passes until a pass issues
/// nothing, and jobs get fresh ids from a counter. The marked-stream path
/// must match it op for op.
struct Oracle {
    timing: GpuTimingModel,
    streams: Vec<OracleStream>,
    events: Vec<Option<SimTime>>,
    graphs: Vec<Vec<Node>>,
    children: Vec<Vec<Vec<usize>>>,
    instances: Vec<Option<OracleInstance>>,
    compute: ComputeEngine,
    d2h: DmaEngine,
    h2d: DmaEngine,
    jobs: HashMap<JobId, Origin>,
    next_job: JobId,
    completions: Vec<u64>,
    stats: DeviceStats,
}

impl Oracle {
    fn new(w: &Workload, timing: GpuTimingModel) -> Self {
        let children = w
            .graphs
            .iter()
            .map(|nodes| {
                let mut ch = vec![Vec::new(); nodes.len()];
                for (i, n) in nodes.iter().enumerate() {
                    for &d in &n.deps {
                        ch[d].push(i);
                    }
                }
                ch
            })
            .collect();
        Oracle {
            compute: ComputeEngine::new(timing.compute_slots),
            timing,
            streams: w
                .classes
                .iter()
                .map(|&class| OracleStream {
                    class,
                    queue: VecDeque::new(),
                    in_flight: false,
                })
                .collect(),
            events: vec![None; w.events],
            graphs: w.graphs.clone(),
            children,
            instances: Vec::new(),
            d2h: DmaEngine::new(),
            h2d: DmaEngine::new(),
            jobs: HashMap::new(),
            next_job: 0,
            completions: Vec::new(),
            stats: DeviceStats::default(),
        }
    }

    fn fire(&mut self, tag: u64) {
        self.completions.push(tag);
        self.stats.completions += 1;
    }

    fn submit(
        &mut self,
        kind: NodeKind,
        class: usize,
        origin: Origin,
        dispatch: SimDuration,
        now: SimTime,
    ) {
        let job = self.next_job;
        self.next_job += 1;
        self.jobs.insert(job, origin);
        match kind {
            NodeKind::Kernel(ns) => {
                self.compute
                    .submit(job, class, SimDuration::from_ns(ns) + dispatch)
            }
            NodeKind::D2h(c) | NodeKind::H2d(c) => {
                let bytes = c as u64 * 8;
                self.stats.memcpys += 1;
                self.stats.memcpy_bytes += bytes;
                let engine = match kind {
                    NodeKind::D2h(_) => &mut self.d2h,
                    _ => &mut self.h2d,
                };
                engine.submit(now, job, class, self.timing.dma_time(bytes));
            }
        }
    }

    fn dispatch_node(&mut self, inst: usize, node: usize, now: SimTime) {
        let g = self.instances[inst].as_ref().expect("live").graph;
        let Node { kind, class, .. } = self.graphs[g][node].clone();
        if let NodeKind::Kernel(_) = kind {
            self.stats.graph_nodes += 1;
        }
        let dispatch = self.timing.graph_node_dispatch;
        self.submit(kind, class, Origin::Node(inst, node), dispatch, now);
    }

    fn finish(&mut self, job: JobId, now: SimTime) {
        match self.jobs.remove(&job).expect("known job") {
            Origin::Stream(s, tag) => {
                self.streams[s].in_flight = false;
                self.fire(tag);
            }
            Origin::Node(i, node) => {
                let g = self.instances[i].as_ref().expect("live").graph;
                let mut ready = Vec::new();
                let inst = self.instances[i].as_mut().expect("live");
                for &c in &self.children[g][node] {
                    inst.indegree[c] -= 1;
                    if inst.indegree[c] == 0 {
                        ready.push(c);
                    }
                }
                inst.remaining -= 1;
                for c in ready {
                    self.dispatch_node(i, c, now);
                }
                if self.instances[i].as_ref().expect("live").remaining == 0 {
                    let inst = self.instances[i].take().expect("live");
                    self.streams[inst.stream].in_flight = false;
                    self.fire(inst.tag);
                }
            }
        }
    }

    fn pump_one(&mut self, s: usize, now: SimTime) -> bool {
        let mut progressed = false;
        while !self.streams[s].in_flight {
            let Some(&(op, tag)) = self.streams[s].queue.front() else {
                break;
            };
            if let RefOp::Wait(ev) = op {
                if self.events[ev].is_none() {
                    break;
                }
            }
            self.streams[s].queue.pop_front();
            progressed = true;
            let class = self.streams[s].class;
            let dispatch = self.timing.kernel_dispatch;
            let origin = Origin::Stream(s, tag);
            match op {
                RefOp::Marker | RefOp::Wait(_) => self.fire(tag),
                RefOp::Record(ev) => {
                    self.events[ev] = Some(now);
                    self.fire(tag);
                }
                RefOp::Kernel(ns) => {
                    self.stats.kernels += 1;
                    self.submit(NodeKind::Kernel(ns), class, origin, dispatch, now);
                    self.streams[s].in_flight = true;
                }
                RefOp::D2h(c) => {
                    self.submit(NodeKind::D2h(c), class, origin, dispatch, now);
                    self.streams[s].in_flight = true;
                }
                RefOp::H2d(c) => {
                    self.submit(NodeKind::H2d(c), class, origin, dispatch, now);
                    self.streams[s].in_flight = true;
                }
                RefOp::Graph(g) => {
                    self.stats.graph_launches += 1;
                    let nodes = &self.graphs[g];
                    if nodes.is_empty() {
                        self.fire(tag);
                        continue;
                    }
                    let inst = OracleInstance {
                        graph: g,
                        stream: s,
                        indegree: nodes.iter().map(|n| n.deps.len()).collect(),
                        remaining: nodes.len(),
                        tag,
                    };
                    let roots: Vec<usize> = (0..nodes.len())
                        .filter(|&i| nodes[i].deps.is_empty())
                        .collect();
                    let idx = match self.instances.iter().position(Option::is_none) {
                        Some(i) => {
                            self.instances[i] = Some(inst);
                            i
                        }
                        None => {
                            self.instances.push(Some(inst));
                            self.instances.len() - 1
                        }
                    };
                    for r in roots {
                        self.dispatch_node(idx, r, now);
                    }
                    self.streams[s].in_flight = true;
                }
            }
        }
        progressed
    }
}

impl Model for Oracle {
    fn apply(&mut self, step: Step, tag: u64) {
        match step {
            Step::Enqueue(s, op) => self.streams[s].queue.push_back((op, tag)),
            Step::Reset(ev) => self.events[ev] = None,
            Step::Advance(_) => unreachable!(),
        }
    }

    fn advance(&mut self, now: SimTime) -> Option<SimTime> {
        let mut done = Vec::new();
        self.compute.advance(now, &mut done);
        self.d2h.advance(now, &mut done);
        self.h2d.advance(now, &mut done);
        for job in done {
            self.finish(job, now);
        }
        loop {
            let mut progressed = false;
            for s in 0..self.streams.len() {
                progressed |= self.pump_one(s, now);
            }
            if !progressed {
                break;
            }
        }
        [
            self.compute.next_completion(),
            self.d2h.next_completion(),
            self.h2d.next_completion(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn drain(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.completions)
    }
}

/// Run `w` on the device and on the reference; both must fire the same
/// tags at the same instants, end in the same state, and count the same.
fn assert_matches_oracle(w: &Workload) {
    // Two resident kernels per class, so compute jobs also queue.
    let timing = GpuTimingModel {
        compute_slots: 2,
        ..GpuTimingModel::default()
    };
    let mut real = Real::new(w, timing.clone());
    let mut oracle = Oracle::new(w, timing);
    let got = drive(&mut real, &w.steps);
    let want = drive(&mut oracle, &w.steps);
    assert_eq!(got, want, "fired (tag, ns) sequences differ");
    assert_eq!(real.d.stats(), oracle.stats);
    for (ev, &at) in real.events.iter().zip(&oracle.events) {
        assert_eq!(real.d.event_time(*ev), at);
    }
    for (s, o) in real.streams.iter().zip(&oracle.streams) {
        assert_eq!(real.d.stream_idle(*s), !o.in_flight && o.queue.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Random op mixes over few streams (dense cross-stream waits) or
    /// many (the ready set spans two or three words) issue exactly as the
    /// full-rescan reference does.
    #[test]
    fn issue_path_matches_full_rescan(
        classes in prop_oneof![
            prop::collection::vec(0usize..4, 1..8),
            prop::collection::vec(0usize..4, 60..140),
        ],
        events in 1usize..6,
        graphs in prop::collection::vec(
            prop::collection::vec((0u8..3, 0usize..4, any::<u32>(), any::<u16>()), 0..7),
            0..3,
        ),
        steps in prop::collection::vec((0u8..100, any::<u32>(), any::<u32>()), 1..400),
    ) {
        assert_matches_oracle(&workload(classes, events, graphs, steps));
    }
}

/// Two event chains through 150 streams (three words of the ready set),
/// both started by stream 0. Each odd stream releases the odd stream two
/// above it, which is visited later in the same pass; each even stream
/// releases the even stream two below it, which waits for the next pass.
/// The second round resets every event and puts a copy on each link.
#[test]
fn event_chains_across_words_match_full_rescan() {
    let n = 150;
    let mut steps = Vec::new();
    for round in 0..2 {
        if round > 0 {
            steps.extend((0..n).map(Step::Reset));
        }
        for s in 1..n {
            steps.push(Step::Enqueue(s, RefOp::Wait(s)));
            let link = if round == 0 {
                RefOp::Marker
            } else {
                RefOp::D2h(64)
            };
            steps.push(Step::Enqueue(s, link));
            let next = if s % 2 == 1 { s + 2 } else { s - 2 };
            if (1..n).contains(&next) {
                steps.push(Step::Enqueue(s, RefOp::Record(next)));
            }
        }
        steps.push(Step::Enqueue(0, RefOp::Kernel(1_000)));
        steps.push(Step::Enqueue(0, RefOp::Record(1)));
        steps.push(Step::Enqueue(0, RefOp::Record(n - 2)));
        steps.push(Step::Advance(50_000));
    }
    assert_matches_oracle(&Workload {
        classes: (0..n).map(|s| s % 4).collect(),
        events: n,
        graphs: Vec::new(),
        steps,
    });
}
