//! # gaat-net — simulated interconnect
//!
//! The fabric owns message admission, statistics, and delivery-event
//! scheduling, and delegates *cost* to one of two topology models:
//!
//! - [`TopologyKind::Flat`] (default) is the Summit-like open-loop model:
//!   every node owns a NIC with separate egress (injection) and ingress
//!   (ejection) serialization queues; inter-node messages pay
//!   `latency + bytes/bandwidth` plus any queueing at either NIC, and the
//!   delivery time is fixed at send time.
//! - [`TopologyKind::FatTree`] routes each message over an explicit link
//!   graph (NVLink inside the node, NIC injection/ejection ports, a
//!   two-level fat tree of trunks — see `gaat-topo`) and advances it as a
//!   *flow* under max-min fair bandwidth sharing. Flow completion times
//!   move whenever flows start or finish, so the fabric keeps exactly one
//!   pending wakeup event and reschedules it through the slab/calendar
//!   event core as the earliest completion changes.
//!
//! The fabric knows nothing about GPUs or protocols; the `gaat-ucx` crate
//! layers eager/rendezvous and GPU-aware protocols on top.

#![warn(missing_docs)]

use gaat_sim::{
    EventId, FaultPlan, LinkFaultKind, MsgFate, Sim, SimDuration, SimRng, SimTime, Slab, Tracer,
};
use gaat_topo::FlowSim;
pub use gaat_topo::{
    BusySpan, CongestionSummary, FatTreeGraph, FatTreeParams, LinkId, LinkKind, LinkUsage,
    SolverStats,
};

/// Identifier of a machine node (which hosts several PEs/GPUs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Which interconnect model prices and schedules messages.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TopologyKind {
    /// Per-NIC alpha-beta model; unloaded links, delivery fixed at send.
    #[default]
    Flat,
    /// Link-graph model with max-min fair sharing over a two-level fat
    /// tree; messages contend for NVLink, NIC ports, and trunks.
    FatTree(FatTreeParams),
}

/// Calibration constants of the fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct NetParams {
    /// Base one-way latency between nodes (host memory to host memory).
    pub inter_latency: SimDuration,
    /// One-way latency within a node (shared memory / NVLink peer copy).
    pub intra_latency: SimDuration,
    /// Per-node injection (and ejection) bandwidth, bytes/second.
    pub inter_bw: f64,
    /// Intra-node copy bandwidth, bytes/second.
    pub intra_bw: f64,
    /// Relative jitter applied to modeled times (models the paper's
    /// run-to-run variance; 0 disables).
    pub jitter: f64,
    /// Which topology model prices messages.
    pub topology: TopologyKind,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            // Dual-rail EDR InfiniBand on Summit: ~23 GB/s injection,
            // ~1.5 us MPI-level latency.
            inter_latency: SimDuration::from_ns(1_600),
            intra_latency: SimDuration::from_ns(700),
            inter_bw: 23.0e9,
            intra_bw: 60.0e9,
            jitter: 0.01,
            topology: TopologyKind::Flat,
        }
    }
}

impl NetParams {
    /// Serialization time of `bytes` on the inter-node NIC.
    pub fn inter_ser(&self, bytes: u64) -> SimDuration {
        SimDuration::from_ns((bytes as f64 / self.inter_bw * 1e9).round() as u64)
    }

    /// Serialization time of `bytes` on the intra-node path.
    pub fn intra_ser(&self, bytes: u64) -> SimDuration {
        SimDuration::from_ns((bytes as f64 / self.intra_bw * 1e9).round() as u64)
    }
}

/// Coarse message class, for traffic accounting and (in topology models)
/// future QoS; the fabric prices all classes identically today.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrafficClass {
    /// Bulk payload (eager data, rendezvous data, pipeline chunks).
    #[default]
    Data,
    /// Protocol control (RTS/CTS handshakes).
    Control,
    /// Active-message envelopes.
    Am,
}

/// A message handed to the fabric and returned verbatim at delivery (or
/// loss notification). It carries two embedder words: `token` is the
/// message's identity on the wire, which the fabric hashes into its
/// latency jitter and the fault plan into its drop/corrupt fate; `key`
/// is only carried, never hashed, so the communication layer can put a
/// handle to its protocol state there without moving any timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetMsg {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Wire size in bytes (payload + header).
    pub bytes: u64,
    /// Additional latency this message pays on top of the fabric base
    /// latency (e.g. GPUDirect RDMA setup, protocol handshakes).
    pub extra_latency: SimDuration,
    /// Wire identity: hashed by [`Fabric`]'s jitter draw and by the fault
    /// plan's message fate.
    pub token: u64,
    /// Opaque embedder key: carried and returned, never hashed.
    pub key: u64,
    /// Traffic class, for accounting.
    pub class: TrafficClass,
    /// Retransmission attempt number; 0 for the first transmission. Kept
    /// out of the jitter hash (a retry replays the original wire cost)
    /// but fed to the fault plan so each attempt gets an independent
    /// drop/corrupt draw.
    pub attempt: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct Nic {
    egress_free: SimTime,
    ingress_free: SimTime,
}

/// Per-fabric statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetStats {
    /// Messages sent (inter + intra).
    pub messages: u64,
    /// Total bytes sent.
    pub bytes: u64,
    /// Inter-node messages only.
    pub inter_messages: u64,
    /// Inter-node bytes only.
    pub inter_bytes: u64,
    /// Protocol-control messages (RTS/CTS) only.
    pub control_messages: u64,
    /// Protocol-control bytes only.
    pub control_bytes: u64,
    /// Highest simultaneous flow count on any single link (topology
    /// models only; 0 under `Flat`).
    pub peak_link_flows: u32,
    /// Highest per-link utilization, busy time over the traffic horizon
    /// (topology models only; 0 under `Flat`).
    pub max_link_utilization: f64,
    /// The link holding `max_link_utilization`, if any traffic flowed.
    pub hottest_link: Option<LinkId>,
    /// Incremental rate-solver counters (recomputes, flows and links
    /// touched, rate updates avoided; all zero under `Flat`).
    pub solver: SolverStats,
    /// Messages silently dropped at injection by the fault plan.
    pub drops: u64,
    /// Messages corrupted in flight (checksum-discarded at the receiver
    /// after paying full wire cost).
    pub corrupts: u64,
    /// Retransmissions admitted (messages with `attempt > 0`).
    pub retransmits: u64,
    /// Cross-leaf admissions routed via an alternate spine because the
    /// primary D-mod-k spine was down.
    pub failovers: u64,
    /// Scheduled link fault events applied (down/up/degrade).
    pub link_faults: u64,
    /// In-flight flows aborted by a link going down (each is surfaced to
    /// the host via `NetHost::on_net_dropped`).
    pub flow_aborts: u64,
    /// Admissions refused because link failures left no path between the
    /// endpoints (also surfaced via `NetHost::on_net_dropped`).
    pub no_routes: u64,
}

/// Outcome of admitting a message into the topology model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admit {
    /// Open-loop: the delivery instant is fixed at admission.
    Deliver(SimTime),
    /// Closed-loop: the topology owns the message's progress as a flow;
    /// `failover` reports whether an alternate route carried it because
    /// the primary path was down.
    Flow {
        /// True when the route detoured around a failed link.
        failover: bool,
        /// Latency added after the wire transfer completes.
        tail: SimDuration,
    },
    /// Link failures have disconnected the endpoints; the message is
    /// dead on arrival and the fabric surfaces it as dropped.
    NoRoute,
}

/// The pricing-and-scheduling backend behind a [`Fabric`], selected by
/// [`TopologyKind`].
///
/// `admit` either prices the message immediately (`Flat` returns
/// [`Admit::Deliver`]) or takes ownership of its progress and returns
/// [`Admit::Flow`], in which case the fabric keeps one wakeup event at
/// the flow model's next wakeup and advances it there to learn which
/// in-flight messages completed — the idempotent
/// settle/complete/reschedule state machine from `gaat-topo`.
#[derive(Debug, Clone)]
enum Topology {
    Flat(Flat),
    FatTree(Box<FatTree>),
}

impl Topology {
    /// Price `msg` (already jittered by `jitter`) entering at `now`.
    /// `flight` is the fabric's in-flight key, the flow model's token.
    fn admit(&mut self, now: SimTime, msg: &NetMsg, jitter: f64, flight: u64) -> Admit {
        match self {
            Topology::Flat(f) => Admit::Deliver(f.admit(now, msg, jitter)),
            Topology::FatTree(t) => t.admit(now, msg, jitter, flight),
        }
    }

    /// The max-min flow model, if this topology has one (`Flat` does
    /// not: it has no links to share, no rate solver and no busy spans).
    fn flows(&self) -> Option<&FlowSim> {
        match self {
            Topology::Flat(_) => None,
            Topology::FatTree(t) => Some(&t.flows),
        }
    }
}

/// The seed per-NIC alpha-beta model; delivery fixed at send time.
#[derive(Debug, Clone)]
struct Flat {
    params: NetParams,
    nics: Vec<Nic>,
}

impl Flat {
    fn admit(&mut self, now: SimTime, msg: &NetMsg, jitter: f64) -> SimTime {
        if msg.src == msg.dst {
            // Intra-node: latency + serialization, no NIC contention.
            let ser = self.params.intra_ser(msg.bytes).mul_f64(jitter);
            let lat = (self.params.intra_latency + msg.extra_latency).mul_f64(jitter);
            return now + lat + ser;
        }
        let ser = self.params.inter_ser(msg.bytes).mul_f64(jitter);
        let latency = (self.params.inter_latency + msg.extra_latency).mul_f64(jitter);

        // Egress: wait for the injection port, then serialize.
        let depart = now.max(self.nics[msg.src.0].egress_free);
        self.nics[msg.src.0].egress_free = depart + ser;

        // Flight: the last byte lands `latency + ser` after departure, and
        // the ejection port must be free for the whole serialization
        // window ending at delivery.
        let tail_arrival = depart + latency + ser;
        let delivery = tail_arrival.max(self.nics[msg.dst.0].ingress_free + ser);
        self.nics[msg.dst.0].ingress_free = delivery;
        delivery
    }
}

/// Fat-tree topology backend: routes each message over the link graph
/// and advances it as a max-min fair flow; base + per-hop latency is
/// added after the wire transfer completes, so an unloaded flow lands at
/// `send + latency + bytes/bw` like `Flat` (plus switch hops).
#[derive(Debug, Clone)]
struct FatTree {
    graph: FatTreeGraph,
    flows: FlowSim,
    inter_latency: SimDuration,
    intra_latency: SimDuration,
    hop_latency: SimDuration,
    route_buf: Vec<LinkId>,
    done_buf: Vec<u64>,
}

impl FatTree {
    fn new(nodes: usize, params: &NetParams, ft: FatTreeParams) -> Self {
        let graph = FatTreeGraph::new(nodes, params.intra_bw, params.inter_bw, ft);
        let flows = FlowSim::new(graph.links().to_vec());
        FatTree {
            graph,
            flows,
            inter_latency: params.inter_latency,
            intra_latency: params.intra_latency,
            hop_latency: SimDuration::from_ns(ft.hop_latency_ns),
            route_buf: Vec::new(),
            done_buf: Vec::new(),
        }
    }

    fn admit(&mut self, now: SimTime, msg: &NetMsg, jitter: f64, flight: u64) -> Admit {
        let info = match self
            .graph
            .try_route(msg.src.0, msg.dst.0, &mut self.route_buf)
        {
            Some(info) => info,
            None => return Admit::NoRoute,
        };
        let base = if msg.src == msg.dst {
            self.intra_latency
        } else {
            self.inter_latency
        };
        let tail =
            (base + self.hop_latency * u64::from(info.hops) + msg.extra_latency).mul_f64(jitter);
        self.flows
            .start(now, &self.route_buf, msg.bytes as f64 * jitter, flight);
        Admit::Flow {
            failover: info.failover,
            tail,
        }
    }

    /// Apply a scheduled link state change at `now`: down links reroute
    /// future traffic and abort the flows crossing them (their fabric
    /// flight keys are pushed to `aborted`), degradations rescale
    /// capacity, and `Up` restores the nominal bandwidth.
    fn apply_link_fault(
        &mut self,
        now: SimTime,
        link: LinkId,
        kind: LinkFaultKind,
        aborted: &mut Vec<u64>,
    ) {
        match kind {
            LinkFaultKind::Down => {
                self.graph.set_link_state(link, false);
                self.flows.abort_link(now, link, aborted);
            }
            LinkFaultKind::Up => {
                self.graph.set_link_state(link, true);
                // Restore nominal capacity (undoes any prior degradation).
                let bw = self.graph.links()[link.0 as usize].bw;
                self.flows.set_link_bw(now, link, bw);
            }
            LinkFaultKind::Degrade(factor) => {
                let bw = self.graph.links()[link.0 as usize].bw;
                self.flows
                    .set_link_bw(now, link, bw * factor.clamp(1e-6, 1.0));
            }
        }
    }
}

/// A message parked in the fabric while it is in flight.
#[derive(Debug, Clone, Copy)]
struct Flight {
    msg: NetMsg,
    /// Latency a flow topology adds once the wire transfer completes
    /// (zero under `Flat`, which prices delivery at admission).
    tail: SimDuration,
}

/// The interconnect state: admission/stats front end over the
/// topology model selected by [`NetParams::topology`]. Cloning deep-copies
/// everything — NIC port clocks, link graph, flow rates, ETA queue —
/// which is what lets a world snapshot fork a live fabric.
#[derive(Debug, Clone)]
pub struct Fabric {
    params: NetParams,
    nodes: usize,
    topo: Topology,
    /// Seed-derived salt for per-message jitter hashing.
    jitter_salt: u64,
    stats: NetStats,
    /// In-flight messages parked until their delivery event fires; the
    /// slab key rides in the event (and is the flow model's token), and
    /// slots are recycled so steady-state sends allocate nothing.
    in_flight: Slab<Flight>,
    /// The single pending topology wakeup event, if any.
    wakeup: Option<(SimTime, EventId)>,
    /// The fault plan in effect (inert by default).
    faults: FaultPlan,
    /// Scratch for link-abort victim collection.
    abort_buf: Vec<u64>,
    /// Per-link busy lanes (lane = [`LinkId`]); enable via
    /// [`Fabric::set_tracing`] and merge into a machine timeline with
    /// `Tracer::extend_from`.
    pub tracer: Tracer,
    scratch: Vec<(u64, SimTime)>,
    span_buf: Vec<BusySpan>,
}

impl Fabric {
    /// A fabric connecting `nodes` nodes, with the topology selected by
    /// `params.topology`.
    pub fn new(nodes: usize, params: NetParams, mut rng: SimRng) -> Self {
        let topo = match params.topology {
            TopologyKind::Flat => Topology::Flat(Flat {
                params: params.clone(),
                nics: vec![Nic::default(); nodes],
            }),
            TopologyKind::FatTree(ft) => {
                Topology::FatTree(Box::new(FatTree::new(nodes, &params, ft)))
            }
        };
        Fabric {
            params,
            nodes,
            topo,
            jitter_salt: rng.next_u64(),
            stats: NetStats::default(),
            in_flight: Slab::new(),
            wakeup: None,
            faults: FaultPlan::none(),
            abort_buf: Vec::new(),
            tracer: Tracer::new(),
            scratch: Vec::new(),
            span_buf: Vec::new(),
        }
    }

    /// Install a fault plan. The stochastic drop/corrupt draws take
    /// effect on subsequent sends; scheduled link faults must still be
    /// armed on the event queue via [`arm_link_faults`].
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// The fault plan in effect.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of directed links in the topology's link graph: the bound
    /// on a [`gaat_sim::LinkFault`]'s `link` index (0 under `Flat`,
    /// which has no link graph).
    pub fn link_count(&self) -> usize {
        match &self.topo {
            Topology::Flat(_) => 0,
            Topology::FatTree(t) => t.graph.links().len(),
        }
    }

    /// The calibration constants in effect.
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// Statistics so far. Congestion fields are folded in from the
    /// topology using its traffic horizon as the utilization denominator
    /// (zero under `Flat`).
    pub fn stats(&self) -> NetStats {
        self.stats_at(self.topo.flows().map_or(SimTime::ZERO, |f| f.settled_at()))
    }

    /// Statistics so far, with link utilization over `[0, horizon]`.
    /// The adaptive load balancer polls this once per LB tick. Pure
    /// read; calling it cannot perturb the simulation.
    pub fn stats_at(&self, horizon: SimTime) -> NetStats {
        let mut stats = self.stats;
        if let Some(flows) = self.topo.flows() {
            let summary = flows.congestion(horizon);
            stats.peak_link_flows = summary.peak_link_flows;
            stats.max_link_utilization = summary.max_link_utilization;
            stats.hottest_link = summary.hottest_link;
            stats.solver = flows.solver_stats();
        }
        stats
    }

    /// Enable or disable per-link busy-span recording into
    /// [`Fabric::tracer`].
    pub fn set_tracing(&mut self, on: bool) {
        self.tracer.set_enabled(on);
        if let Topology::FatTree(t) = &mut self.topo {
            t.flows.set_record_spans(on);
        }
    }

    /// Update message/byte counters for `msg`.
    fn account(&mut self, msg: &NetMsg) {
        self.stats.messages += 1;
        self.stats.bytes += msg.bytes;
        if msg.src != msg.dst {
            self.stats.inter_messages += 1;
            self.stats.inter_bytes += msg.bytes;
        }
        if msg.class == TrafficClass::Control {
            self.stats.control_messages += 1;
            self.stats.control_bytes += msg.bytes;
        }
        if msg.attempt > 0 {
            self.stats.retransmits += 1;
        }
    }

    /// Multiplicative jitter factor for `msg`, uniform in
    /// `[1 - jitter, 1 + jitter]`.
    ///
    /// The factor is a pure hash of `(salt, src, dst, token)` — not a
    /// draw from a shared RNG stream — so a message's modeled latency
    /// depends only on its own identity: adding or reordering unrelated
    /// traffic cannot perturb existing messages. The salt comes from the
    /// fabric's seed, so distinct seeds still model distinct "runs".
    fn draw_jitter(&self, msg: &NetMsg) -> f64 {
        let eps = self.params.jitter;
        if eps <= 0.0 {
            return 1.0;
        }
        let h = gaat_sim::mix64(
            self.jitter_salt
                ^ (msg.src.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (msg.dst.0 as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                ^ msg.token.wrapping_mul(0x1656_67B1_9E37_79F9),
        );
        let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        1.0 + eps * (2.0 * unit - 1.0)
    }

    /// Advance the topology to `now`, collect completed transfers into
    /// `out` as `(in-flight key, delivery instant)`, and drain link
    /// busy spans into the fabric tracer.
    pub fn tick_topology(&mut self, now: SimTime, out: &mut Vec<(u64, SimTime)>) {
        let Topology::FatTree(t) = &mut self.topo else {
            return;
        };
        t.done_buf.clear();
        t.flows.advance(now, &mut t.done_buf);
        for &flight in &t.done_buf {
            let tail = self.in_flight.get(flight).expect("flight parked").tail;
            out.push((flight, now + tail));
        }
        if self.tracer.is_enabled() {
            let mut spans = std::mem::take(&mut self.span_buf);
            t.flows.drain_spans(&mut spans);
            for s in &spans {
                self.tracer
                    .record(s.link.0, "link", s.kind.label(), s.start, s.end);
            }
            spans.clear();
            self.span_buf = spans;
        }
    }
}

/// World-side requirements for hosting the fabric.
pub trait NetHost: Sized + 'static {
    /// Access the fabric.
    fn fabric_mut(&mut self) -> &mut Fabric;

    /// Called when a message is delivered at the destination node.
    fn on_net_deliver(&mut self, sim: &mut Sim<Self>, msg: NetMsg);

    /// Called when the fabric *knows* a message died: its link went down
    /// mid-flight or link failures left no route at admission. Silent
    /// losses (stochastic drop/corrupt) do NOT land here — the sender
    /// discovers those by ack timeout, as on a real wire. Default: the
    /// loss is absorbed (a reliability layer overrides this).
    fn on_net_dropped(&mut self, _sim: &mut Sim<Self>, _msg: NetMsg) {}
}

/// Send a message. Open-loop topologies price it immediately and one
/// delivery event is scheduled; flow topologies admit it into the link
/// graph and the fabric's single wakeup event is rescheduled to the new
/// earliest completion. Either way the message parks in the fabric's
/// in-flight slab and events carry only its key.
pub fn send<W: NetHost>(w: &mut W, sim: &mut Sim<W>, msg: NetMsg) {
    let now = sim.now();
    let fabric = w.fabric_mut();
    fabric.account(&msg);
    if msg.src != msg.dst && fabric.faults.lossy_at(now) {
        // A dropped message never reaches the wire; a corrupted one pays
        // full wire cost and is discarded at delivery (see `deliver`).
        if let MsgFate::Drop =
            fabric
                .faults
                .msg_fate(msg.src.0 as u64, msg.dst.0 as u64, msg.token, msg.attempt)
        {
            fabric.stats.drops += 1;
            return;
        }
    }
    let jitter = fabric.draw_jitter(&msg);
    let key = fabric.in_flight.insert(Flight {
        msg,
        tail: SimDuration::ZERO,
    });
    match fabric.topo.admit(now, &msg, jitter, key) {
        Admit::Deliver(at) => {
            sim.at(at, deliver::<W>, key);
        }
        Admit::Flow { failover, tail } => {
            fabric.in_flight.get_mut(key).expect("just parked").tail = tail;
            if failover {
                fabric.stats.failovers += 1;
            }
            reconcile_wakeup(w, sim);
        }
        Admit::NoRoute => {
            fabric.stats.no_routes += 1;
            fabric.in_flight.remove(key);
            w.on_net_dropped(sim, msg);
        }
    }
}

fn deliver<W: NetHost>(w: &mut W, sim: &mut Sim<W>, key: u64) {
    let fabric = w.fabric_mut();
    let msg = fabric.in_flight.remove(key).expect("flight parked").msg;
    if msg.src != msg.dst && fabric.faults.lossy_at(sim.now()) {
        if let MsgFate::Corrupt =
            fabric
                .faults
                .msg_fate(msg.src.0 as u64, msg.dst.0 as u64, msg.token, msg.attempt)
        {
            // Checksum failure at the receiver NIC: paid for the wire,
            // delivered nothing. The sender recovers by ack timeout.
            fabric.stats.corrupts += 1;
            return;
        }
    }
    w.on_net_deliver(sim, msg);
}

/// Arm the fault plan's scheduled link faults on the event queue. Call
/// once after [`Fabric::set_faults`]; each fault fires at its instant,
/// flips the link state in the topology, and surfaces aborted in-flight
/// messages through [`NetHost::on_net_dropped`].
pub fn arm_link_faults<W: NetHost>(w: &mut W, sim: &mut Sim<W>) {
    let fabric = w.fabric_mut();
    for (i, lf) in fabric.faults.link_faults.iter().enumerate() {
        sim.at(lf.at, link_fault_fire::<W>, i as u64);
    }
}

/// A scheduled link fault fires: apply it, abort crossing flows, surface
/// the victims, and re-arm the fabric wakeup (rates changed).
fn link_fault_fire<W: NetHost>(w: &mut W, sim: &mut Sim<W>, idx: u64) {
    let now = sim.now();
    let dead = {
        let fabric = w.fabric_mut();
        let lf = fabric.faults.link_faults[idx as usize];
        fabric.stats.link_faults += 1;
        let mut aborted = std::mem::take(&mut fabric.abort_buf);
        aborted.clear();
        if let Topology::FatTree(t) = &mut fabric.topo {
            t.apply_link_fault(now, LinkId(lf.link), lf.kind, &mut aborted);
        }
        fabric.stats.flow_aborts += aborted.len() as u64;
        let dead: Vec<NetMsg> = aborted
            .iter()
            .map(|&fl| fabric.in_flight.remove(fl).expect("flight parked").msg)
            .collect();
        aborted.clear();
        fabric.abort_buf = aborted;
        dead
    };
    for msg in dead {
        w.on_net_dropped(sim, msg);
    }
    reconcile_wakeup(w, sim);
}

/// Keep exactly one pending tick event at the topology's next wakeup.
fn reconcile_wakeup<W: NetHost>(w: &mut W, sim: &mut Sim<W>) {
    let fabric = w.fabric_mut();
    let want = match &mut fabric.topo {
        Topology::Flat(_) => None,
        Topology::FatTree(t) => t.flows.next_wakeup(),
    };
    let stale = match (fabric.wakeup, want) {
        (Some((at, _)), Some(next)) => at != next,
        (None, Some(_)) => true,
        (Some(_), None) => true,
        (None, None) => false,
    };
    if !stale {
        return;
    }
    if let Some((_, id)) = fabric.wakeup.take() {
        sim.cancel(id);
    }
    if let Some(next) = want {
        let id = sim.at(next, tick::<W>, 0);
        w.fabric_mut().wakeup = Some((next, id));
    }
}

/// Topology wakeup: complete transfers due at `now`, schedule their
/// delivery events, and re-arm the next wakeup. The payload word is
/// unused.
fn tick<W: NetHost>(w: &mut W, sim: &mut Sim<W>, _: u64) {
    let now = sim.now();
    let mut out = {
        let fabric = w.fabric_mut();
        fabric.wakeup = None;
        let mut out = std::mem::take(&mut fabric.scratch);
        out.clear();
        fabric.tick_topology(now, &mut out);
        out
    };
    for &(flight, at) in &out {
        sim.at(at, deliver::<W>, flight);
    }
    out.clear();
    w.fabric_mut().scratch = out;
    reconcile_wakeup(w, sim);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(nodes: usize) -> Fabric {
        let params = NetParams {
            jitter: 0.0,
            ..NetParams::default()
        };
        Fabric::new(nodes, params, SimRng::new(1))
    }

    fn msg(src: usize, dst: usize, bytes: u64) -> NetMsg {
        NetMsg {
            src: NodeId(src),
            dst: NodeId(dst),
            bytes,
            extra_latency: SimDuration::ZERO,
            token: 0,
            key: 0,
            class: TrafficClass::Data,
            attempt: 0,
        }
    }

    /// `m` with its token set to `token`.
    fn tok(mut m: NetMsg, token: u64) -> NetMsg {
        m.token = token;
        m
    }

    /// A host that records each delivered and each surfaced dropped
    /// token with its instant.
    struct SendWorld {
        fabric: Fabric,
        got: Vec<(u64, SimTime)>,
        dropped: Vec<(u64, SimTime)>,
        /// Messages the t = 0 events send, indexed by their payload word.
        outbox: Vec<NetMsg>,
    }
    impl NetHost for SendWorld {
        fn fabric_mut(&mut self) -> &mut Fabric {
            &mut self.fabric
        }
        fn on_net_deliver(&mut self, sim: &mut Sim<Self>, msg: NetMsg) {
            self.got.push((msg.token, sim.now()));
        }
        fn on_net_dropped(&mut self, sim: &mut Sim<Self>, msg: NetMsg) {
            self.dropped.push((msg.token, sim.now()));
        }
    }

    /// Arm the fabric's link faults, send `msgs` through [`send`] at
    /// t = 0, in order, and run to the end.
    fn run_sends(fabric: Fabric, msgs: Vec<NetMsg>) -> (SendWorld, Sim<SendWorld>) {
        let n = msgs.len() as u64;
        let mut w = SendWorld {
            fabric,
            got: vec![],
            dropped: vec![],
            outbox: msgs,
        };
        let mut sim: Sim<SendWorld> = Sim::new();
        arm_link_faults(&mut w, &mut sim);
        for i in 0..n {
            sim.soon(
                |w: &mut SendWorld, sim: &mut Sim<SendWorld>, i| send(w, sim, w.outbox[i as usize]),
                i,
            );
        }
        sim.run(&mut w);
        (w, sim)
    }

    /// Each message's delivery instant under [`run_sends`], in input
    /// order. Tokens must be distinct.
    fn deliveries(fabric: Fabric, msgs: &[NetMsg]) -> Vec<SimTime> {
        let (w, _) = run_sends(fabric, msgs.to_vec());
        msgs.iter()
            .map(|m| {
                let mut at = w.got.iter().filter(|g| g.0 == m.token).map(|g| g.1);
                let first = at.next().expect("message delivered");
                assert!(at.next().is_none(), "tokens must be distinct");
                first
            })
            .collect()
    }

    #[test]
    fn unloaded_inter_node_latency() {
        let f = fabric(2);
        let expect = f.params.inter_latency + f.params.inter_ser(1 << 20);
        let t = deliveries(f, &[msg(0, 1, 1 << 20)])[0]; // 1 MiB
        assert_eq!(t.as_ns(), expect.as_ns());
        // ~45.6 us for 1 MiB at 23 GB/s plus 1.6 us
        assert!((44_000..50_000).contains(&t.as_ns()), "{t}");
    }

    #[test]
    fn zero_byte_message_pays_latency_only() {
        let f = fabric(2);
        let latency = f.params.inter_latency;
        let t = deliveries(f, &[msg(0, 1, 0)])[0];
        assert_eq!(t.as_ns(), latency.as_ns());
    }

    #[test]
    fn intra_node_is_faster() {
        let msgs = [tok(msg(0, 1, 1 << 20), 1), tok(msg(0, 0, 1 << 20), 2)];
        let [inter, intra] = deliveries(fabric(2), &msgs)[..] else {
            unreachable!()
        };
        assert!(intra < inter, "intra {intra} should beat inter {inter}");
    }

    #[test]
    fn egress_serializes_concurrent_sends() {
        let f = fabric(3);
        let ser = f.params.inter_ser(1 << 20);
        let msgs = [tok(msg(0, 1, 1 << 20), 1), tok(msg(0, 2, 1 << 20), 2)];
        let [a, b] = deliveries(f, &msgs)[..] else {
            unreachable!()
        };
        // second message waits for the first's injection window
        assert_eq!(b.as_ns(), (a + ser).as_ns());
    }

    #[test]
    fn ingress_serializes_concurrent_receives() {
        let f = fabric(3);
        let ser = f.params.inter_ser(1 << 20);
        let msgs = [tok(msg(0, 2, 1 << 20), 1), tok(msg(1, 2, 1 << 20), 2)];
        let [a, b] = deliveries(f, &msgs)[..] else {
            unreachable!()
        };
        assert_eq!(b.as_ns(), (a + ser).as_ns());
    }

    #[test]
    fn different_pairs_do_not_contend() {
        let msgs = [tok(msg(0, 1, 1 << 20), 1), tok(msg(2, 3, 1 << 20), 2)];
        let [a, b] = deliveries(fabric(4), &msgs)[..] else {
            unreachable!()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn extra_latency_adds_up() {
        let mut m = msg(0, 1, 1024);
        let base = deliveries(fabric(2), &[m])[0];
        m.extra_latency = SimDuration::from_us(5);
        let with = deliveries(fabric(2), &[m])[0];
        assert_eq!(with.as_ns(), base.as_ns() + 5_000);
    }

    #[test]
    fn jitter_perturbs_but_stays_close() {
        let params = NetParams {
            jitter: 0.05,
            ..NetParams::default()
        };
        let nominal = params.inter_latency + params.inter_ser(1 << 20);
        for seed in 0..50 {
            let f = Fabric::new(2, params.clone(), SimRng::new(seed));
            let t = deliveries(f, &[msg(0, 1, 1 << 20)])[0];
            let ratio = t.as_ns() as f64 / nominal.as_ns() as f64;
            assert!((0.93..=1.07).contains(&ratio), "ratio {ratio}");
        }
    }

    #[test]
    fn jitter_is_per_message_not_draw_order() {
        // A message's jitter hashes from (src, dst, token), so unrelated
        // traffic on a disjoint pair cannot perturb its delivery time.
        let params = NetParams {
            jitter: 0.05,
            ..NetParams::default()
        };
        let probe = tok(msg(0, 1, 1 << 16), 77);

        let quiet = Fabric::new(4, params.clone(), SimRng::new(9));
        let t_quiet = deliveries(quiet, &[probe])[0];

        let busy = Fabric::new(4, params, SimRng::new(9));
        let mut msgs: Vec<NetMsg> = (0..5).map(|i| tok(msg(2, 3, 10_000), 1_000 + i)).collect();
        msgs.push(probe);
        let t_busy = *deliveries(busy, &msgs).last().expect("probe sent");
        assert_eq!(t_quiet, t_busy);
    }

    #[test]
    fn stats_account_messages() {
        let mut ctl = msg(0, 1, 16);
        ctl.class = TrafficClass::Control;
        let (w, _) = run_sends(fabric(2), vec![msg(0, 1, 100), msg(0, 0, 50), ctl]);
        let s = w.fabric.stats();
        assert_eq!(s.messages, 3);
        assert_eq!(s.bytes, 166);
        assert_eq!(s.inter_messages, 2);
        assert_eq!(s.inter_bytes, 116);
        assert_eq!(s.control_messages, 1);
        assert_eq!(s.control_bytes, 16);
    }

    #[test]
    fn send_schedules_delivery_event() {
        let (w, _) = run_sends(fabric(2), vec![tok(msg(0, 1, 4096), 42)]);
        assert_eq!(w.got.len(), 1);
        assert_eq!(w.got[0].0, 42);
        assert!(w.got[0].1 > SimTime::ZERO);
    }

    #[test]
    fn pipelined_chunks_overlap_on_the_wire() {
        // Sending 8 chunks back-to-back costs one latency plus 8
        // serializations — the fabric pipelines, which is what makes the
        // UCX pipelined-staging protocol worthwhile at all.
        let f = fabric(2);
        let chunk = 1u64 << 20;
        let expect = f.params.inter_latency + f.params.inter_ser(chunk) * 8;
        let msgs: Vec<NetMsg> = (0..8).map(|i| tok(msg(0, 1, chunk), i)).collect();
        let last = *deliveries(f, &msgs).last().expect("chunks sent");
        assert_eq!(last.as_ns(), expect.as_ns());
    }

    // ---- fat-tree topology ------------------------------------------

    fn ft_fabric(nodes: usize, ft: FatTreeParams) -> Fabric {
        let params = NetParams {
            jitter: 0.0,
            topology: TopologyKind::FatTree(ft),
            ..NetParams::default()
        };
        Fabric::new(nodes, params, SimRng::new(1))
    }

    #[test]
    fn fat_tree_unloaded_matches_flat_within_a_hop() {
        // One message, same leaf: FatTree should agree with Flat up to
        // the explicit switch-hop latency.
        let ft = FatTreeParams::default();
        let hop = ft.hop_latency_ns;
        let mut m = msg(0, 1, 1 << 20);
        m.token = 1;
        let (w, _) = run_sends(ft_fabric(2, ft), vec![m]);
        let flat = deliveries(fabric(2), &[m])[0];
        let got = w.got[0].1.as_ns();
        let want = flat.as_ns() + hop;
        let diff = got.abs_diff(want);
        assert!(diff <= 2, "fat-tree {got} vs flat+hop {want}");
    }

    #[test]
    fn fat_tree_shares_trunk_bandwidth() {
        // Two nodes on leaf 0 each stream to a distinct node on leaf 1
        // through the same spine trunk: both transfers take twice the
        // unloaded wire time.
        let ft = FatTreeParams {
            leaf_radix: 2,
            spines: 1,
            trunk_bw: 23.0e9, // trunk as fast as one NIC -> it bottlenecks
            hop_latency_ns: 0,
        };
        let bytes = 1u64 << 20;
        let mut a = msg(0, 2, bytes);
        a.token = 1;
        let mut b = msg(1, 3, bytes);
        b.token = 2;
        let (w, _) = run_sends(ft_fabric(4, ft), vec![a, b]);
        assert_eq!(w.got.len(), 2);
        let unloaded = NetParams::default().inter_ser(bytes).as_ns();
        let lat = NetParams::default().inter_latency.as_ns();
        for &(_, at) in &w.got {
            let wire = at.as_ns() - lat;
            let ratio = wire as f64 / (2 * unloaded) as f64;
            assert!(
                (0.98..=1.02).contains(&ratio),
                "each flow should see ~half the trunk: {ratio}"
            );
        }
        let stats = w.fabric.stats();
        assert_eq!(stats.peak_link_flows, 2);
        assert!(
            stats.max_link_utilization > 0.9,
            "shared trunk should be hot: {}",
            stats.max_link_utilization
        );
        assert!(stats.hottest_link.is_some());
    }

    #[test]
    fn fat_tree_send_replays_exactly() {
        let ft = FatTreeParams {
            leaf_radix: 2,
            spines: 2,
            ..FatTreeParams::default()
        };
        let run = || {
            let mut msgs = Vec::new();
            for i in 0..12u64 {
                let mut m = msg((i % 4) as usize, ((i * 3 + 1) % 4) as usize, 1 << 16);
                m.token = i;
                msgs.push(m);
            }
            let (w, sim) = run_sends(ft_fabric(4, ft), msgs);
            (w.got.clone(), sim.now())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fat_tree_records_link_spans_when_traced() {
        let ft = FatTreeParams {
            leaf_radix: 2,
            spines: 1,
            ..FatTreeParams::default()
        };
        let mut fabric = ft_fabric(4, ft);
        fabric.set_tracing(true);
        let mut m = msg(0, 3, 1 << 20);
        m.token = 9;
        let (w, _) = run_sends(fabric, vec![m]);
        assert!(
            !w.fabric.tracer.spans().is_empty(),
            "link busy spans should land in the fabric tracer"
        );
        assert!(w.fabric.tracer.spans().iter().any(|s| s.label == "leaf-up"));
    }

    // ---- fault injection --------------------------------------------

    use gaat_sim::{LinkFault, StragglerWindow};

    #[test]
    fn lossy_plan_drops_some_messages_deterministically() {
        let plan = FaultPlan {
            seed: 42,
            drop_prob: 0.25,
            corrupt_prob: 0.05,
            ..FaultPlan::none()
        };
        let run = || {
            let mut f = fabric(2);
            f.set_faults(plan.clone());
            let msgs = (0..200u64)
                .map(|i| {
                    let mut m = msg(0, 1, 4096);
                    m.token = i;
                    m
                })
                .collect();
            let (w, _) = run_sends(f, msgs);
            (
                w.got.clone(),
                w.fabric.stats().drops,
                w.fabric.stats().corrupts,
            )
        };
        let (got_a, drops_a, corrupts_a) = run();
        let (got_b, drops_b, corrupts_b) = run();
        assert_eq!(got_a, got_b, "same plan must replay bit-identically");
        assert_eq!((drops_a, corrupts_a), (drops_b, corrupts_b));
        assert!(drops_a > 20, "~25% of 200 should drop: {drops_a}");
        assert!(corrupts_a > 1, "~5% of 200 should corrupt: {corrupts_a}");
        assert_eq!(
            got_a.len() as u64 + drops_a + corrupts_a,
            200,
            "every message is delivered, dropped, or corrupted"
        );
    }

    #[test]
    fn corrupt_consumes_wire_but_drop_does_not() {
        // A plan that corrupts everything still serializes each message
        // through the NICs; a plan that drops everything leaves the NICs
        // idle. Distinguish via the egress queueing seen by a later
        // clean message — under drop-all the probe departs immediately.
        let mk = |drop_prob: f64, corrupt_prob: f64| {
            let mut f = fabric(2);
            f.set_faults(FaultPlan {
                seed: 1,
                drop_prob,
                corrupt_prob,
                ..FaultPlan::none()
            });
            f
        };
        // drop_prob=1 ⇒ every attempt drops (unit hash < 1.0 always).
        let msgs: Vec<NetMsg> = (0..4u64)
            .map(|i| {
                let mut m = msg(0, 1, 1 << 20);
                m.token = i;
                m
            })
            .collect();
        let (w_drop, sim_drop) = run_sends(mk(1.0, 0.0), msgs.clone());
        assert!(w_drop.got.is_empty());
        assert_eq!(w_drop.fabric.stats().drops, 4);
        assert_eq!(sim_drop.now(), SimTime::ZERO, "drops never touch the wire");

        let (w_cor, sim_cor) = run_sends(mk(0.0, 1.0), msgs);
        assert!(w_cor.got.is_empty());
        assert_eq!(w_cor.fabric.stats().corrupts, 4);
        assert!(
            sim_cor.now().as_ns() > 0,
            "corrupted messages pay wire time before being discarded"
        );
    }

    #[test]
    fn intra_node_messages_are_never_dropped() {
        let mut f = fabric(2);
        f.set_faults(FaultPlan {
            seed: 3,
            drop_prob: 1.0,
            ..FaultPlan::none()
        });
        let msgs = (0..8u64)
            .map(|i| {
                let mut m = msg(0, 0, 4096);
                m.token = i;
                m
            })
            .collect();
        let (w, _) = run_sends(f, msgs);
        assert_eq!(w.got.len(), 8, "loopback traffic bypasses the wire");
        assert_eq!(w.fabric.stats().drops, 0);
    }

    #[test]
    fn retransmit_attempt_redraws_fate_and_is_counted() {
        let plan = FaultPlan {
            seed: 5,
            drop_prob: 0.5,
            ..FaultPlan::none()
        };
        // Find a token whose attempt 0 drops but attempt 1 delivers.
        let token = (0..1000u64)
            .find(|&t| {
                plan.msg_fate(0, 1, t, 0) == MsgFate::Drop
                    && plan.msg_fate(0, 1, t, 1) == MsgFate::Deliver
            })
            .expect("some token drops then delivers");
        let mut f = fabric(2);
        f.set_faults(plan);
        let mut first = msg(0, 1, 4096);
        first.token = token;
        let mut retry = first;
        retry.attempt = 1;
        let (w, _) = run_sends(f, vec![first, retry]);
        assert_eq!(w.got.len(), 1, "the retry gets through");
        let s = w.fabric.stats();
        assert_eq!(s.drops, 1);
        assert_eq!(s.retransmits, 1);
    }

    #[test]
    fn link_down_aborts_flows_and_fails_over() {
        // Two leaves, two spines. Token 0 streams cross-leaf over the
        // primary spine; mid-flight the primary's uplink dies. The flow
        // aborts (surfaced via on_net_dropped), and a later message
        // fails over to the alternate spine and is delivered.
        let ft = FatTreeParams {
            leaf_radix: 2,
            spines: 2,
            trunk_bw: 23.0e9,
            hop_latency_ns: 0,
        };
        let nodes = 4;
        let graph = FatTreeGraph::new(nodes, 60.0e9, 23.0e9, ft);
        let mut route = Vec::new();
        // dst=2 on leaf 1: primary spine = 2 % 2 = 0; route holds the
        // src-leaf uplink to spine 0 at index 1 (after the NIC).
        graph.try_route(0, 2, &mut route).unwrap();
        let primary_uplink = route[1];

        let mut fabric = ft_fabric(nodes, ft);
        fabric.set_faults(FaultPlan {
            link_faults: vec![LinkFault {
                at: SimTime::ZERO + SimDuration::from_us(5),
                link: primary_uplink.0,
                kind: LinkFaultKind::Down,
            }],
            ..FaultPlan::none()
        });
        let mut w = SendWorld {
            fabric,
            got: vec![],
            dropped: vec![],
            outbox: vec![],
        };
        let mut sim: Sim<SendWorld> = Sim::new();
        arm_link_faults(&mut w, &mut sim);
        // 1 MiB at 23 GB/s is ~45 us of wire: still in flight at t=5us.
        sim.soon(
            |w: &mut SendWorld, sim: &mut Sim<SendWorld>, _| {
                send(w, sim, tok(msg(0, 2, 1 << 20), 7))
            },
            0,
        );
        // After the fault, a fresh message must fail over to spine 1.
        sim.after(
            SimDuration::from_us(10),
            |w: &mut SendWorld, sim: &mut Sim<SendWorld>, _| {
                send(w, sim, tok(msg(0, 2, 1 << 16), 8))
            },
            0,
        );
        sim.run(&mut w);

        assert_eq!(w.dropped.len(), 1, "in-flight flow surfaced as dropped");
        assert_eq!(w.dropped[0].0, 7);
        assert_eq!(w.dropped[0].1.as_ns(), 5_000, "aborted at the fault time");
        assert_eq!(w.got.len(), 1, "failover message delivered");
        assert_eq!(w.got[0].0, 8);
        let s = w.fabric.stats();
        assert_eq!(s.link_faults, 1);
        assert_eq!(s.flow_aborts, 1);
        assert_eq!(s.failovers, 1);
        assert_eq!(s.no_routes, 0);
    }

    #[test]
    fn no_route_surfaces_message_as_dropped() {
        let ft = FatTreeParams {
            leaf_radix: 2,
            spines: 1,
            ..FatTreeParams::default()
        };
        let nodes = 4;
        let mut fabric = ft_fabric(nodes, ft);
        // Kill the destination's NIC ejection port before any traffic.
        fabric.set_faults(FaultPlan {
            link_faults: vec![LinkFault {
                at: SimTime::ZERO,
                link: (2 * nodes + 3) as u32, // NIC down-port of node 3
                kind: LinkFaultKind::Down,
            }],
            ..FaultPlan::none()
        });
        let mut m = msg(0, 3, 4096);
        m.token = 11;
        let (w, _) = run_sends(fabric, vec![m]);
        assert!(w.got.is_empty());
        assert_eq!(w.dropped.len(), 1);
        assert_eq!(w.fabric.stats().no_routes, 1);
    }

    #[test]
    fn degrade_then_up_restores_bandwidth() {
        // One cross-leaf stream; halfway through, the trunk is degraded
        // to 10% and later restored. Delivery lands strictly later than
        // the unfaulted run but the run still completes.
        let ft = FatTreeParams {
            leaf_radix: 2,
            spines: 1,
            trunk_bw: 23.0e9,
            hop_latency_ns: 0,
        };
        let nodes = 4;
        let graph = FatTreeGraph::new(nodes, 60.0e9, 23.0e9, ft);
        let mut route = Vec::new();
        graph.try_route(0, 2, &mut route).unwrap();
        let trunk = route[1];

        let base = {
            let mut m = msg(0, 2, 1 << 20);
            m.token = 1;
            let (w, _) = run_sends(ft_fabric(nodes, ft), vec![m]);
            w.got[0].1
        };
        let mut fabric = ft_fabric(nodes, ft);
        fabric.set_faults(FaultPlan {
            link_faults: vec![
                LinkFault {
                    at: SimTime::ZERO + SimDuration::from_us(10),
                    link: trunk.0,
                    kind: LinkFaultKind::Degrade(0.1),
                },
                LinkFault {
                    at: SimTime::ZERO + SimDuration::from_us(20),
                    link: trunk.0,
                    kind: LinkFaultKind::Up,
                },
            ],
            ..FaultPlan::none()
        });
        let mut m = msg(0, 2, 1 << 20);
        m.token = 1;
        let (w, _) = run_sends(fabric, vec![m]);
        assert_eq!(w.got.len(), 1, "degraded flow still completes");
        let slowed = w.got[0].1;
        // The 10 us window at 10% speed carries only 1 us worth of
        // bytes, so delivery slips by exactly 9 us.
        assert_eq!(
            slowed.as_ns(),
            (base + SimDuration::from_us(9)).as_ns(),
            "degradation window must cost exactly its lost wire time"
        );
        assert_eq!(w.fabric.stats().link_faults, 2);
        assert_eq!(w.fabric.stats().flow_aborts, 0);
    }

    #[test]
    fn inert_plan_leaves_fat_tree_schedule_bit_identical() {
        // Installing FaultPlan::none() (and arming zero link faults)
        // must not move any delivery by a nanosecond.
        let ft = FatTreeParams {
            leaf_radix: 2,
            spines: 2,
            ..FatTreeParams::default()
        };
        let run = |with_plan: bool| {
            let mut fabric = ft_fabric(4, ft);
            if with_plan {
                fabric.set_faults(FaultPlan::none());
            }
            let mut msgs = Vec::new();
            for i in 0..12u64 {
                let mut m = msg((i % 4) as usize, ((i * 3 + 1) % 4) as usize, 1 << 16);
                m.token = i;
                msgs.push(m);
            }
            let (w, sim) = run_sends(fabric, msgs);
            (w.got.clone(), sim.now())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn straggler_plan_does_not_touch_the_fabric() {
        // Straggler windows are a device-model concern; the fabric must
        // not consult them on the message path.
        let mut f = fabric(2);
        f.set_faults(FaultPlan {
            stragglers: vec![StragglerWindow {
                device: 0,
                from: SimTime::ZERO,
                until: SimTime::ZERO + SimDuration::from_ms(10),
                slowdown: 4.0,
            }],
            ..FaultPlan::none()
        });
        let msgs = (0..4u64)
            .map(|i| {
                let mut m = msg(0, 1, 4096);
                m.token = i;
                m
            })
            .collect();
        let (w, _) = run_sends(f, msgs);
        assert_eq!(w.got.len(), 4);
        assert_eq!(w.fabric.stats().drops, 0);
    }
}
