//! The simulated machine: devices, fabric, communication layer, PEs, and
//! the chare table — plus the message-driven execution engine.
//!
//! Entry methods are ordinary Rust code that runs instantly in wall-clock
//! time while *charging* simulated CPU time to its PE through [`Ctx`]:
//! scheduler and dispatch overheads, kernel-launch CPU costs, send
//! overheads, and any declared compute. Side effects (GPU enqueues,
//! message sends) take effect at the simulated instant the charging
//! reaches, so a method that launches 13 kernels occupies its PE for
//! 13 × `cpu_launch` — the CPU-side overhead that kernel fusion and graph
//! launch eliminate in the paper's Figs. 8 and 9.

use std::collections::HashMap;

use gaat_gpu::{CompletionTag, Device, DeviceId, GpuHost, GraphId, Op, OpKind, StreamId, Work};
use gaat_net::{Fabric, NetHost, NetMsg, NodeId};
use gaat_sim::{RunOutcome, Sim, SimDuration, SimRng, SimTime, Slab, Tracer};
use gaat_ucx::{MemLoc, UcxEvent, UcxHost, UcxState, WorkerId};

use crate::config::{ConfigError, MachineConfig};
use crate::msg::{Callback, ChareId, Envelope};
use crate::pe::Pe;
use crate::recovery::{Checkpoint, Recovery};

/// A migratable, message-driven task object (the chare analogue).
///
/// All behaviour goes through [`Chare::receive`]; applications match on
/// `env.entry` the way a Charm Interface file declares entry methods.
/// The `Any` supertrait enables post-run state inspection via
/// [`Machine::chare_as`]. The [`ChareClone`] supertrait comes free with
/// `#[derive(Clone)]`: it is how a world fork deep-copies chares
/// mid-flight, and how a chare checkpoints itself
/// ([`Ctx::store_checkpoint`] takes a clone, which a rollback swaps back
/// into the chare table).
pub trait Chare: std::any::Any + ChareClone {
    /// Handle one message.
    fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope);
}

/// Object-safe cloning of boxed chares (the dyn-clone idiom). Blanket
/// implemented for every `Chare + Clone`, so a chare opts in with
/// `#[derive(Clone)]` and never implements this by hand.
pub trait ChareClone {
    /// Deep-copy this chare into a new box.
    fn clone_box(&self) -> Box<dyn Chare>;
}

impl<T: Chare + Clone> ChareClone for T {
    fn clone_box(&self) -> Box<dyn Chare> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Chare> {
    fn clone(&self) -> Self {
        (**self).clone_box()
    }
}

/// Where a fired GPU completion tag is routed.
#[derive(Clone)]
enum TagRoute {
    /// Deliver a callback message.
    Callback(Callback),
    /// Unblock a PE that issued a synchronous stream wait, then deliver.
    UnblockPe { pe: usize, then: Callback },
    /// Hand to the communication layer (staging-pipeline copies).
    Ucx(u64),
}

/// What an in-flight runtime active message carries.
#[derive(Clone)]
enum AmKind {
    /// An entry-method invocation.
    Chare(ChareId, Envelope),
    /// A reduction contribution travelling to the root.
    Contribution {
        reducer: u64,
        round: u64,
        value: f64,
        expected: usize,
        cb: Callback,
    },
    /// A broadcast-tree fragment: deliver to the local targets of the
    /// first PE, forward the rest down the binomial tree.
    Broadcast {
        entry: crate::msg::EntryId,
        refnum: u64,
        /// (pe, chares-on-that-pe) groups still to cover; the first group
        /// is this fragment's destination.
        groups: Vec<(usize, Vec<ChareId>)>,
    },
    /// A checkpoint copy travelling to its buddy PE's memory.
    Checkpoint(Checkpoint),
}

#[derive(Debug, Clone, Default)]
struct ReductionSlot {
    count: usize,
    sum: f64,
}

/// Payload of a runtime action deferred to a later simulated instant.
///
/// These are the events the machine schedules on its own hot paths; the
/// payload parks in the machine's `deferred` slab and the event carries
/// only its key, so scheduling them allocates nothing in steady state.
#[derive(Clone)]
enum Deferred {
    /// Local chare-to-chare delivery after `local_latency`.
    LocalMsg { to: ChareId, env: Envelope },
    /// A send leaving the sending entry method at its charge offset.
    Route {
        src_pe: usize,
        from: ChareId,
        to: ChareId,
        env: Envelope,
    },
    /// Enqueue an operation on a device stream and pump the device.
    Enqueue {
        dev: DeviceId,
        stream: StreamId,
        op: Op,
    },
    /// Reset a CUDA-style event on a device.
    EventReset {
        dev: DeviceId,
        ev: gaat_gpu::CudaEventId,
    },
    /// Update one kernel node of a captured graph.
    GraphUpdate {
        dev: DeviceId,
        graph: GraphId,
        node: usize,
        spec: gaat_gpu::KernelSpec,
    },
    /// A reduction contribution leaving its entry method.
    Contribute {
        src_pe: usize,
        reducer: u64,
        round: u64,
        value: f64,
        expected: usize,
        cb: Callback,
    },
    /// A two-sided UCX send issued at the entry method's charge offset.
    Isend {
        from: usize,
        to_worker: usize,
        tag: gaat_ucx::Tag,
        loc: MemLoc,
        user: u64,
    },
    /// A two-sided UCX receive posted at the entry method's charge offset.
    Irecv {
        me: usize,
        from_worker: usize,
        tag: gaat_ucx::Tag,
        loc: MemLoc,
        user: u64,
    },
    /// A checkpoint leaving its entry method.
    Checkpoint(Checkpoint),
}

/// Fired deferred-action event: takes the payload back, then performs
/// the action. An event scheduled before a rollback finds its key stale
/// and does nothing.
fn run_deferred(m: &mut Machine, sim: &mut Sim<Machine>, key: u64) {
    let Some(d) = m.deferred.remove(key) else {
        assert!(m.recovery.incarnation > 0, "stale deferred key");
        return;
    };
    match d {
        Deferred::LocalMsg { to, env } => m.enqueue_to_chare(sim, to, env),
        Deferred::Route {
            src_pe,
            from,
            to,
            env,
        } => m.route_msg(sim, src_pe, from, to, env),
        Deferred::Enqueue { dev, stream, op } => {
            m.devices[dev.0].enqueue(stream, op);
            gaat_gpu::pump(m, sim, dev);
        }
        Deferred::EventReset { dev, ev } => m.devices[dev.0].reset_event(ev),
        Deferred::GraphUpdate {
            dev,
            graph,
            node,
            spec,
        } => m.devices[dev.0].update_graph_kernel(graph, node, spec),
        Deferred::Contribute {
            src_pe,
            reducer,
            round,
            value,
            expected,
            cb,
        } => {
            let token = m.am_store.insert(AmKind::Contribution {
                reducer,
                round,
                value,
                expected,
                cb,
            });
            // Contributions go to the root PE (PE 0).
            gaat_ucx::am_send(m, sim, WorkerId(src_pe), WorkerId(0), 48, token);
        }
        Deferred::Isend {
            from,
            to_worker,
            tag,
            loc,
            user,
        } => gaat_ucx::isend(m, sim, WorkerId(from), WorkerId(to_worker), tag, loc, user),
        Deferred::Irecv {
            me,
            from_worker,
            tag,
            loc,
            user,
        } => gaat_ucx::irecv(m, sim, WorkerId(me), WorkerId(from_worker), tag, loc, user),
        Deferred::Checkpoint(ck) => {
            // Local half of the double checkpoint: a copy in the owner
            // PE's own memory, no wire cost. It covers the case where the
            // *buddy* is the PE that fails.
            let src = ck.on;
            m.store_copy(ck.clone());
            let buddy = m.buddy_of(src);
            if buddy == src {
                return;
            }
            let bytes = ck.bytes + m.cfg.rt.envelope_bytes;
            let copy = Checkpoint { on: buddy, ..ck };
            let token = m.am_store.insert(AmKind::Checkpoint(copy));
            gaat_ucx::am_send(m, sim, WorkerId(src), WorkerId(buddy), bytes, token);
        }
    }
}

/// Fired PE-dispatch event (the scheduled half of [`Machine::kick_pe`]).
fn run_pe_ev(m: &mut Machine, sim: &mut Sim<Machine>, pe: u64) {
    m.run_pe(sim, pe as usize);
}

/// Aggregate machine statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct MachineStats {
    /// Entry methods executed.
    pub entries: u64,
    /// Runtime messages sent chare-to-chare.
    pub sends: u64,
    /// Chare migrations performed.
    pub migrations: u64,
    /// Checkpoint copies stored, in the owner's and the buddy's memory.
    pub checkpoints_stored: u64,
    /// PE failures injected by the fault plan.
    pub pe_failures: u64,
    /// Global rollback recoveries performed.
    pub recoveries: u64,
    /// Chares restored from checkpoints across all rollbacks.
    pub chares_restored: u64,
}

/// The world type of every simulation in this stack.
///
/// `Clone` is the world fork: a deep mid-flight copy of the devices
/// (stream queues, engines, memory, graph instances), the fabric (NIC
/// clocks, flow state, in-flight messages), the communication layer
/// (transfers, retry timers, token counters), the PEs (message queues,
/// busy clocks), every chare and every held checkpoint.
#[derive(Clone)]
pub struct Machine {
    /// Configuration the machine was built from.
    pub cfg: MachineConfig,
    /// One device per PE.
    pub devices: Vec<Device>,
    /// The interconnect.
    pub fabric: Fabric,
    /// The communication layer.
    pub ucx: UcxState,
    /// Per-PE schedulers.
    pub pes: Vec<Pe>,
    pub(crate) chares: Vec<Option<Box<dyn Chare>>>,
    pub(crate) chare_pe: Vec<usize>,
    pub(crate) chare_load: Vec<SimDuration>,
    /// Parked payloads, each keyed by what its event or callback carries:
    /// GPU completion tags, active-message tokens, UCX user cookies and
    /// deferred runtime actions (see [`Deferred`]). Rollback clears all
    /// four, so a key issued before it reads as stale.
    tag_routes: Slab<TagRoute>,
    am_store: Slab<AmKind>,
    ucx_routes: Slab<Callback>,
    deferred: Slab<Deferred>,
    reductions: HashMap<(u64, u64), ReductionSlot>,
    next_reducer: u64,
    next_channel: u64,
    /// Liveness of each PE (all true until a planned failure fires).
    pub(crate) pe_alive: Vec<bool>,
    /// Checkpoint store, rollback state and load-balancer meters.
    pub(crate) recovery: Recovery,
    /// Entry-method span recorder, one lane per PE (enabled by
    /// `MachineConfig::trace`). Device-side spans live in each device's
    /// own tracer.
    pub tracer: Tracer,
    pub(crate) stats: MachineStats,
}

impl Machine {
    /// Build a machine from a configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        let pes = cfg.total_pes();
        let devices: Vec<Device> = (0..pes)
            .map(|i| {
                let mut d = Device::new(DeviceId(i), cfg.gpu.clone());
                d.tracer.set_enabled(cfg.trace);
                if !cfg.faults.stragglers.is_empty() {
                    d.set_fault_plan(cfg.faults.clone());
                }
                d
            })
            .collect();
        let mut fabric = Fabric::new(cfg.nodes, cfg.net.clone(), SimRng::new(cfg.seed).stream(1));
        fabric.set_tracing(cfg.trace);
        if cfg.faults.is_active() {
            fabric.set_faults(cfg.faults.clone());
        }
        let ucx = UcxState::new(pes, cfg.ucx.clone());
        Machine {
            devices,
            fabric,
            ucx,
            pes: (0..pes).map(|_| Pe::new()).collect(),
            chares: Vec::new(),
            chare_pe: Vec::new(),
            chare_load: Vec::new(),
            tag_routes: Slab::new(),
            am_store: Slab::new(),
            ucx_routes: Slab::new(),
            deferred: Slab::new(),
            reductions: HashMap::new(),
            next_reducer: 0,
            next_channel: 0,
            pe_alive: vec![true; pes],
            recovery: Recovery::default(),
            tracer: if cfg.trace {
                Tracer::enabled()
            } else {
                Tracer::new()
            },
            cfg,
            stats: MachineStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> MachineStats {
        self.stats
    }

    /// Whether a PE is still alive (false after a planned failure fires).
    pub fn pe_alive(&self, pe: usize) -> bool {
        self.pe_alive[pe]
    }

    /// Payloads parked under a GPU completion tag, active-message token,
    /// UCX user cookie or deferred-action key and not yet taken back: the
    /// runtime's counterpart of [`UcxState::stashed`]. A quiesced machine
    /// holds none, across rollbacks too.
    pub fn parked(&self) -> usize {
        self.tag_routes.len() + self.am_store.len() + self.ucx_routes.len() + self.deferred.len()
    }

    /// Tear down every layer's in-flight state for a rollback: cancel the
    /// transport's retry timers and forget its transfers, clear the
    /// parked payloads and open reductions, empty every PE's queue and
    /// purge every device. Anything the fabric still delivers afterwards
    /// is dropped as a stale token.
    pub(crate) fn clear_in_flight(&mut self, sim: &mut Sim<Machine>) {
        for timer in self.ucx.purge() {
            sim.cancel(timer);
        }
        self.tag_routes.clear();
        self.am_store.clear();
        self.ucx_routes.clear();
        self.deferred.clear();
        self.reductions.clear();
        let now = sim.now();
        for pe in 0..self.pes.len() {
            self.pes[pe].clear();
            // In-flight kernels from before the rollback must not apply
            // their effects to restored buffers.
            self.devices[pe].purge(now);
        }
    }

    /// Schedule the fault plan's time-triggered faults (link and PE
    /// failures). Called once by [`Simulation::new`]; drivers that build
    /// a raw [`Machine`] and want faults must call it before running.
    /// The plan must have passed [`MachineConfig::validate`], which
    /// [`Simulation::new`] checks: every link, PE and device it names
    /// exists, and PE failures run over the reliable transport.
    pub fn arm_faults(&mut self, sim: &mut Sim<Machine>) {
        if !self.cfg.faults.is_active() {
            return;
        }
        gaat_net::arm_link_faults(self, sim);
        for (i, pf) in self.cfg.faults.pe_failures.iter().enumerate() {
            sim.at(pf.at, crate::recovery::pe_fail, i as u64);
        }
    }

    /// Number of registered chares.
    pub fn chare_count(&self) -> usize {
        self.chares.len()
    }

    /// Current PE of a chare.
    pub fn pe_of(&self, c: ChareId) -> usize {
        self.chare_pe[c.0]
    }

    /// Accumulated CPU time charged by a chare (the load PE-failure
    /// recovery places refugee chares by).
    pub fn load_of(&self, c: ChareId) -> SimDuration {
        self.chare_load[c.0]
    }

    /// Device owned by a PE (non-SMP: one GPU per PE).
    pub fn pe_device(&self, pe: usize) -> DeviceId {
        DeviceId(pe)
    }

    /// Register a chare on a PE. Done during setup, before the simulation
    /// runs.
    pub fn create_chare(&mut self, pe: usize, chare: Box<dyn Chare>) -> ChareId {
        assert!(pe < self.pes.len(), "PE {pe} out of range");
        let id = ChareId(self.chares.len());
        self.chares.push(Some(chare));
        self.chare_pe.push(pe);
        self.chare_load.push(SimDuration::ZERO);
        self.recovery.add_chare();
        id
    }

    /// Borrow a chare's state (for post-run inspection). Panics if the
    /// chare is currently executing.
    pub fn chare(&self, id: ChareId) -> &dyn Chare {
        self.chares[id.0].as_deref().expect("chare not executing")
    }

    /// Downcast helper for post-run inspection.
    pub fn chare_as<T: Chare>(&self, id: ChareId) -> &T {
        let c: &dyn std::any::Any = self.chare(id);
        c.downcast_ref::<T>().expect("chare type mismatch")
    }

    /// Mutable access to a chare's state during setup (before the
    /// simulation runs) — e.g. to hand it buffers or channel ends.
    pub fn chare_for_setup(&mut self, id: ChareId) -> &mut dyn std::any::Any {
        self.chares[id.0]
            .as_deref_mut()
            .expect("chare not executing")
    }

    /// Deliver `env` to `chare` at simulation start (used by drivers to
    /// seed the initial broadcast without charging runtime costs).
    pub fn inject(&mut self, sim: &mut Sim<Machine>, chare: ChareId, env: Envelope) {
        self.enqueue_to_chare(sim, chare, env);
    }

    /// Broadcast an empty message with `entry`/`refnum` to `targets` over
    /// a binomial tree of the involved PEs (the proxy-broadcast analogue
    /// of `block_proxy.run()` in the paper's Fig. 3). Unlike
    /// [`Machine::inject`], every hop pays real messaging costs.
    pub fn broadcast(
        &mut self,
        sim: &mut Sim<Machine>,
        targets: &[ChareId],
        entry: crate::msg::EntryId,
        refnum: u64,
    ) {
        // Group targets by current PE, deterministically ordered.
        let mut by_pe: std::collections::BTreeMap<usize, Vec<ChareId>> =
            std::collections::BTreeMap::new();
        for &c in targets {
            by_pe.entry(self.pe_of(c)).or_default().push(c);
        }
        let groups: Vec<(usize, Vec<ChareId>)> = by_pe.into_iter().collect();
        self.deliver_broadcast(sim, entry, refnum, groups);
    }

    /// Deliver a broadcast fragment: enqueue to the head group's chares,
    /// split the tail across two child fragments (binomial tree).
    fn deliver_broadcast(
        &mut self,
        sim: &mut Sim<Machine>,
        entry: crate::msg::EntryId,
        refnum: u64,
        mut groups: Vec<(usize, Vec<ChareId>)>,
    ) {
        if groups.is_empty() {
            return;
        }
        let (head_pe, locals) = groups.remove(0);
        // Forward the two halves of the remainder first (wire time
        // overlaps with local delivery).
        let mid = groups.len() / 2;
        let right = groups.split_off(mid);
        for child in [groups, right] {
            if let Some(&(child_pe, _)) = child.first() {
                let bytes = 64 + child.len() as u64 * 16;
                let token = self.am_store.insert(AmKind::Broadcast {
                    entry,
                    refnum,
                    groups: child,
                });
                gaat_ucx::am_send(
                    self,
                    sim,
                    WorkerId(head_pe),
                    WorkerId(child_pe),
                    bytes,
                    token,
                );
            }
        }
        for c in locals {
            self.enqueue_to_chare(sim, c, Envelope::empty(entry).with_refnum(refnum));
        }
    }

    /// Create a fresh reducer id.
    pub fn create_reducer(&mut self) -> u64 {
        let r = self.next_reducer;
        self.next_reducer += 1;
        r
    }

    /// Create a fresh channel id (used by [`crate::channel`]).
    pub(crate) fn alloc_channel_id(&mut self) -> u64 {
        let c = self.next_channel;
        self.next_channel += 1;
        c
    }

    fn deliver_callback(&mut self, sim: &mut Sim<Machine>, cb: Callback, value: Option<f64>) {
        match cb {
            Callback::Ignore => {}
            Callback::ToChare {
                chare,
                entry,
                refnum,
            } => {
                let env = match value {
                    Some(v) => Envelope::new(entry, v),
                    None => Envelope::empty(entry),
                }
                .with_refnum(refnum)
                .high_priority();
                self.enqueue_to_chare(sim, chare, env);
            }
        }
    }

    /// Queue a message at the chare's current PE and make sure the PE will
    /// dispatch.
    pub(crate) fn enqueue_to_chare(
        &mut self,
        sim: &mut Sim<Machine>,
        chare: ChareId,
        env: Envelope,
    ) {
        let pe = self.chare_pe[chare.0];
        self.pes[pe].push(chare, env);
        self.kick_pe(sim, pe);
    }

    /// Schedule a dispatch event for the PE if none is pending.
    fn kick_pe(&mut self, sim: &mut Sim<Machine>, pe: usize) {
        if !self.pe_alive[pe] || self.pes[pe].dispatch_scheduled || self.pes[pe].blocked {
            return;
        }
        let at = match self.pes[pe].busy_until {
            Some(t) if t > sim.now() => t,
            _ => sim.now(),
        };
        self.pes[pe].dispatch_scheduled = true;
        sim.at(at, run_pe_ev, pe as u64);
    }

    /// Execute at most one message on the PE and reschedule.
    fn run_pe(&mut self, sim: &mut Sim<Machine>, pe: usize) {
        self.pes[pe].dispatch_scheduled = false;
        if !self.pe_alive[pe] {
            return;
        }
        let now = sim.now();
        if !self.pes[pe].ready(now) {
            if self.pes[pe].queued() > 0 && !self.pes[pe].blocked {
                self.kick_pe(sim, pe);
            }
            return;
        }
        let Some((chare_id, env)) = self.pes[pe].pop() else {
            // A recovery cleared the queue between the kick and this
            // dispatch event.
            assert!(self.recovery.incarnation > 0, "ready implies nonempty");
            return;
        };
        self.pes[pe].stats.messages += 1;
        let env_priority_high = env.priority == crate::msg::MsgPriority::High;
        if env_priority_high {
            self.pes[pe].stats.high_priority += 1;
        }
        self.stats.entries += 1;
        let mut chare = self.chares[chare_id.0]
            .take()
            .expect("chare executing reentrantly");
        let mut ctx = Ctx {
            machine: self,
            sim,
            pe,
            chare: chare_id,
            charged: SimDuration::ZERO,
            block: None,
        };
        ctx.charged = ctx.machine.cfg.rt.sched_per_msg + ctx.machine.cfg.rt.entry_dispatch;
        chare.receive(&mut ctx, env);
        let charged = ctx.charged;
        let block = ctx.block.take();
        self.chares[chare_id.0] = Some(chare);
        self.chare_load[chare_id.0] += charged;
        self.recovery.meter_work(chare_id, charged.as_ns());
        self.pes[pe].stats.cpu_time += charged;
        let end = now + charged;
        self.pes[pe].busy_until = Some(end);
        self.tracer.record(
            pe as u32,
            "pe",
            if env_priority_high {
                "callback"
            } else {
                "entry"
            },
            now,
            end,
        );
        if let Some((dev, stream, then)) = block {
            // Synchronous stream wait: freeze the PE, enqueue a marker
            // whose completion unblocks it (paper Fig. 4, "sync" lane).
            self.pes[pe].blocked = true;
            let tag = CompletionTag(self.tag_routes.insert(TagRoute::UnblockPe { pe, then }));
            let key = self.deferred.insert(Deferred::Enqueue {
                dev,
                stream,
                op: Op::marker().with_tag(tag),
            });
            sim.at(end, run_deferred, key);
        } else if self.pes[pe].queued() > 0 {
            self.kick_pe(sim, pe);
        }
    }

    /// Route a chare-to-chare message (runs at the instant the sending
    /// entry method reaches the send call). The destination PE is
    /// resolved *here*, not at the send call, so messages to a chare
    /// migrated in between are forwarded to its new home automatically.
    fn route_msg(
        &mut self,
        sim: &mut Sim<Machine>,
        src_pe: usize,
        from: ChareId,
        to: ChareId,
        env: Envelope,
    ) {
        self.stats.sends += 1;
        self.recovery.meter_send(from, to, env.wire_bytes);
        let dst_pe = self.chare_pe[to.0];
        if dst_pe == src_pe {
            let delay = self.cfg.rt.local_latency;
            let key = self.deferred.insert(Deferred::LocalMsg { to, env });
            sim.after(delay, run_deferred, key);
        } else {
            let bytes = env.wire_bytes + self.cfg.rt.envelope_bytes;
            let token = self.am_store.insert(AmKind::Chare(to, env));
            gaat_ucx::am_send(self, sim, WorkerId(src_pe), WorkerId(dst_pe), bytes, token);
        }
    }

    /// CPU utilization of a PE over `[0, now]`.
    pub fn pe_utilization(&self, pe: usize, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        self.pes[pe].stats.cpu_time.as_ns() as f64 / now.as_ns() as f64
    }
}

impl GpuHost for Machine {
    fn device_mut(&mut self, id: DeviceId) -> &mut Device {
        &mut self.devices[id.0]
    }

    fn on_gpu_complete(&mut self, sim: &mut Sim<Self>, _dev: DeviceId, tag: CompletionTag) {
        let Some(route) = self.tag_routes.remove(tag.0) else {
            assert!(self.recovery.incarnation > 0, "unknown completion tag");
            return;
        };
        match route {
            TagRoute::Callback(cb) => self.deliver_callback(sim, cb, None),
            TagRoute::UnblockPe { pe, then } => {
                self.pes[pe].blocked = false;
                self.deliver_callback(sim, then, None);
                self.kick_pe(sim, pe);
            }
            TagRoute::Ucx(cookie) => gaat_ucx::on_gpu_tag(self, sim, cookie),
        }
    }
}

impl NetHost for Machine {
    fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    fn on_net_deliver(&mut self, sim: &mut Sim<Self>, msg: NetMsg) {
        gaat_ucx::on_net_deliver(self, sim, msg);
    }

    fn on_net_dropped(&mut self, sim: &mut Sim<Self>, msg: NetMsg) {
        // A link failure aborted the flow (or admission found no route):
        // tell the reliability layer so it retransmits immediately
        // instead of waiting out the ack timeout.
        gaat_ucx::on_net_dropped(self, sim, msg);
    }
}

impl UcxHost for Machine {
    fn ucx_mut(&mut self) -> &mut UcxState {
        &mut self.ucx
    }

    fn worker_node(&self, w: WorkerId) -> NodeId {
        NodeId(self.cfg.node_of_pe(w.0))
    }

    fn worker_alive(&self, w: WorkerId) -> bool {
        self.pe_alive[w.0]
    }

    fn on_ucx_event(&mut self, sim: &mut Sim<Self>, ev: UcxEvent) {
        match ev {
            UcxEvent::AmDelivered { at: _, user } => {
                let Some(kind) = self.am_store.remove(user) else {
                    assert!(self.recovery.incarnation > 0, "unknown AM token");
                    return;
                };
                match kind {
                    AmKind::Chare(to, env) => self.enqueue_to_chare(sim, to, env),
                    AmKind::Contribution {
                        reducer,
                        round,
                        value,
                        expected,
                        cb,
                    } => {
                        let slot = self.reductions.entry((reducer, round)).or_default();
                        slot.count += 1;
                        slot.sum += value;
                        if slot.count == expected {
                            let sum = slot.sum;
                            self.reductions.remove(&(reducer, round));
                            self.deliver_callback(sim, cb, Some(sum));
                        }
                    }
                    AmKind::Broadcast {
                        entry,
                        refnum,
                        groups,
                    } => self.deliver_broadcast(sim, entry, refnum, groups),
                    AmKind::Checkpoint(ck) => self.store_copy(ck),
                }
            }
            UcxEvent::SendDone { user } | UcxEvent::RecvDone { user } => {
                let Some(cb) = self.ucx_routes.remove(user) else {
                    assert!(self.recovery.incarnation > 0, "unknown UCX route");
                    return;
                };
                self.deliver_callback(sim, cb, None);
            }
            UcxEvent::PeerDead { worker: _ } => {
                // The transport gave up on a peer after max_retries. With
                // planned faults, recovery is driven by the armed failure
                // events (the simulated failure detector), so escalation
                // here is advisory; the attempt is already counted in
                // `UcxStats::peers_dead`.
            }
        }
    }

    fn alloc_gpu_tag(&mut self, cookie: u64) -> CompletionTag {
        CompletionTag(self.tag_routes.insert(TagRoute::Ucx(cookie)))
    }
}

/// The API surface an entry method sees (the `this`/proxy environment).
pub struct Ctx<'a> {
    /// The machine (public so setup-style code can reach devices).
    pub machine: &'a mut Machine,
    /// The simulator (for scheduling custom events).
    pub sim: &'a mut Sim<Machine>,
    pe: usize,
    chare: ChareId,
    charged: SimDuration,
    block: Option<(DeviceId, StreamId, Callback)>,
}

impl<'a> Ctx<'a> {
    /// The executing chare's id.
    pub fn me(&self) -> ChareId {
        self.chare
    }

    /// The PE this entry method runs on.
    pub fn pe(&self) -> usize {
        self.pe
    }

    /// The GPU owned by this PE.
    pub fn device(&self) -> DeviceId {
        self.machine.pe_device(self.pe)
    }

    /// Simulated time at which this entry method started.
    pub fn start_time(&self) -> SimTime {
        self.sim.now()
    }

    /// Simulated time charged so far (entry start offset of the next
    /// action).
    pub fn elapsed(&self) -> SimDuration {
        self.charged
    }

    /// Charge pure CPU work.
    pub fn compute(&mut self, work: SimDuration) {
        self.charged += work;
    }

    /// Send a message to another chare (asynchronous, like a proxy entry
    /// method invocation).
    pub fn send(&mut self, to: ChareId, env: Envelope) {
        self.charged += self.machine.cfg.rt.send_overhead;
        let src_pe = self.pe;
        let from = self.chare;
        self.defer_at_charge(Deferred::Route {
            src_pe,
            from,
            to,
            env,
        });
    }

    /// Enqueue a GPU operation on this PE's device, charging the CPU
    /// launch cost.
    pub fn launch(&mut self, stream: StreamId, op: Op) {
        self.charged += self.machine.cfg.gpu.cpu_launch;
        self.gpu_enqueue_at(stream, op);
    }

    /// Enqueue a lightweight stream operation (event record/wait, marker)
    /// at the reduced CPU cost.
    pub fn launch_light(&mut self, stream: StreamId, op: Op) {
        self.charged += self.machine.cfg.gpu.cpu_light;
        self.gpu_enqueue_at(stream, op);
    }

    /// Reset a CUDA-style event so it can be re-recorded this iteration.
    /// Takes effect at the current charge offset, before subsequently
    /// enqueued operations.
    pub fn gpu_event_reset(&mut self, ev: gaat_gpu::CudaEventId) {
        let dev = self.device();
        self.defer_at_charge(Deferred::EventReset { dev, ev });
    }

    /// Launch a captured graph (one cheap CPU call for the whole DAG,
    /// plus a small per-node submit cost).
    pub fn launch_graph(&mut self, stream: StreamId, graph: GraphId, cb: Callback) {
        let nodes = self.machine.devices[self.device().0].graph_len(graph) as u64;
        let gpu = &self.machine.cfg.gpu;
        self.charged += gpu.graph_launch_cpu + gpu.graph_launch_cpu_per_node * nodes;
        let tag = CompletionTag(self.machine.tag_routes.insert(TagRoute::Callback(cb)));
        self.gpu_enqueue_at(stream, Op::graph(graph).with_tag(tag));
    }

    /// Update one kernel node of a captured graph
    /// (`cudaGraphExecKernelNodeSetParams`), charging the per-node CPU
    /// update cost. The paper's §III-D2 alternates two pre-built graphs
    /// precisely to avoid paying this for every node every iteration.
    pub fn update_graph_kernel(&mut self, graph: GraphId, node: usize, spec: gaat_gpu::KernelSpec) {
        self.charged += self.machine.cfg.gpu.graph_node_update_cpu;
        let dev = self.device();
        self.defer_at_charge(Deferred::GraphUpdate {
            dev,
            graph,
            node,
            spec,
        });
    }

    /// HAPI-style asynchronous completion detection: when the stream
    /// reaches this point, deliver `cb` (at high priority) — without
    /// blocking the PE.
    pub fn hapi(&mut self, stream: StreamId, cb: Callback) {
        self.charged += self.machine.cfg.gpu.cpu_light;
        let tag = CompletionTag(self.machine.tag_routes.insert(TagRoute::Callback(cb)));
        self.gpu_enqueue_at(stream, Op::marker().with_tag(tag));
    }

    /// Synchronous stream wait (`cudaStreamSynchronize`): after this entry
    /// method returns, the PE *blocks* — processing no further messages —
    /// until everything currently in `stream` completes, then `resume` is
    /// delivered. This is the synchronous-completion baseline of the
    /// paper's Fig. 4.
    pub fn stream_sync(&mut self, stream: StreamId, resume: Callback) {
        self.charged += self.machine.cfg.gpu.cpu_light;
        self.block = Some((self.device(), stream, resume));
    }

    /// Contribute to a reduction over `expected` participants; when all
    /// have contributed (for this `round`), `cb` receives the sum as an
    /// `f64` payload.
    pub fn contribute(
        &mut self,
        reducer: u64,
        round: u64,
        value: f64,
        expected: usize,
        cb: Callback,
    ) {
        self.charged += self.machine.cfg.rt.send_overhead;
        let src_pe = self.pe;
        self.defer_at_charge(Deferred::Contribute {
            src_pe,
            reducer,
            round,
            value,
            expected,
            cb,
        });
    }

    /// Checkpoint the executing chare at logical `epoch` (double
    /// in-memory checkpointing). `state` must be a clone of the executing
    /// chare, with any device-side state it needs captured into it;
    /// `bytes` is the wire price of that state. The owner's PE keeps one
    /// copy and a runtime message carries the other to the buddy PE. A
    /// rollback swaps a copy of `state` into the chare table.
    pub fn store_checkpoint(&mut self, epoch: u64, state: Box<dyn Chare>, bytes: u64) {
        self.charged += self.machine.cfg.rt.send_overhead;
        let (chare, on) = (self.chare, self.pe);
        self.defer_at_charge(Deferred::Checkpoint(Checkpoint {
            chare,
            epoch,
            on,
            bytes,
            state,
        }));
    }

    /// Park `d` and run it when this entry method reaches its current
    /// charge offset.
    fn defer_at_charge(&mut self, d: Deferred) {
        let key = self.machine.deferred.insert(d);
        let at = self.sim.now() + self.charged;
        self.sim.at(at, run_deferred, key);
    }

    /// Enqueue with no extra charge (internal; charge added by callers).
    fn gpu_enqueue_at(&mut self, stream: StreamId, op: Op) {
        // Meter the dedicated-device cost of the work this chare puts on
        // the GPU (kernel work as declared, DMA priced by the timing
        // model) into its LB load meter. Pure bookkeeping: bit-invisible
        // while the balancer is off. Graph launches are not metered
        // per-node here; graph-heavy apps still meter their CPU charge.
        let gpu_ns = match &op.kind {
            OpKind::Work(Work::Kernel(spec)) => spec.work.as_ns(),
            OpKind::Work(Work::MemcpyD2H { src, .. } | Work::MemcpyH2D { src, .. }) => {
                self.machine.cfg.gpu.dma_time(src.bytes()).as_ns()
            }
            _ => 0,
        };
        self.machine.recovery.meter_work(self.chare, gpu_ns);
        let dev = self.device();
        self.defer_at_charge(Deferred::Enqueue { dev, stream, op });
    }

    /// Issue a two-sided UCX send with explicit worker addressing. Used
    /// by the Channel API, the GPU Messaging API, and the MPI layer;
    /// applications normally go through those instead.
    pub fn ucx_isend(&mut self, to_worker: usize, tag: gaat_ucx::Tag, loc: MemLoc, cb: Callback) {
        self.charged += self.machine.cfg.rt.channel_call;
        let from = self.pe;
        let user = self.machine.ucx_routes.insert(cb);
        self.defer_at_charge(Deferred::Isend {
            from,
            to_worker,
            tag,
            loc,
            user,
        });
    }

    /// Issue a two-sided UCX receive with explicit worker addressing.
    /// See [`Ctx::ucx_isend`].
    pub fn ucx_irecv(&mut self, from_worker: usize, tag: gaat_ucx::Tag, loc: MemLoc, cb: Callback) {
        self.charged += self.machine.cfg.rt.channel_call;
        let me = self.pe;
        let user = self.machine.ucx_routes.insert(cb);
        self.defer_at_charge(Deferred::Irecv {
            me,
            from_worker,
            tag,
            loc,
            user,
        });
    }
}

/// A ready-to-run simulation: the engine plus the machine.
///
/// Cloning forks the world mid-run: the engine's pending events plus a
/// deep copy of the [`Machine`]. A clone driven to quiescence replays
/// bit-identically to the original, and `clone_from` rewinds a world to
/// the same clone any number of times while keeping the engine's heap
/// allocations. This is the sweep engine's prefix fork; it is the
/// in-memory half of the paper's double in-memory checkpoint, used for
/// memoization instead of recovery.
pub struct Simulation {
    /// The event engine.
    pub sim: Sim<Machine>,
    /// The machine state.
    pub machine: Machine,
}

impl Clone for Simulation {
    fn clone(&self) -> Self {
        Simulation {
            sim: self.sim.clone(),
            machine: self.machine.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.sim.clone_from(&source.sim);
        self.machine.clone_from(&source.machine);
    }
}

impl Simulation {
    /// Build a simulation from a configuration. Panics with the
    /// [`ConfigError`] text if `cfg` fails
    /// [`MachineConfig::validate`].
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let mut sim = Sim::new().with_event_limit(5_000_000_000);
        let mut machine = Machine::new(cfg);
        machine.arm_faults(&mut sim);
        machine.arm_lb(&mut sim);
        Simulation { sim, machine }
    }

    /// Run to quiescence (the drained event queue *is* quiescence
    /// detection: no pending work anywhere in the machine).
    pub fn run(&mut self) -> RunOutcome {
        self.sim.run(&mut self.machine)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Run until simulated time would exceed `deadline` (events at
    /// exactly `deadline` still run), the queue drains, or the event
    /// limit trips. Resuming with [`Simulation::run`] (or a later
    /// deadline) continues exactly as an uninterrupted run would — the
    /// pause point at which the sweep's prefix memoization forks.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.sim.run_until(&mut self.machine, deadline)
    }

    /// Swap the stochastic portion of the fault plan in place — a pure
    /// data write, no events armed or cancelled. This is how the sweep
    /// memoizer applies a branch's late-diverging fault axis (onset,
    /// drop/corrupt probability, seed) after a restore; time-triggered
    /// faults (link faults, PE failures, stragglers) are armed as build
    /// time events and must be identical across branches sharing a
    /// prefix, so they are deliberately NOT re-armed here. Returns
    /// [`ConfigError::ArmedFaultsChanged`], changing
    /// nothing, if `faults` differs from the armed plan in any of them.
    pub fn set_stochastic_faults(
        &mut self,
        faults: gaat_sim::FaultPlan,
    ) -> Result<(), ConfigError> {
        let armed = &self.machine.cfg.faults;
        if faults.link_faults != armed.link_faults
            || faults.pe_failures != armed.pe_failures
            || faults.stragglers != armed.stragglers
            || faults.detection_delay != armed.detection_delay
        {
            return Err(ConfigError::ArmedFaultsChanged);
        }
        if !faults.stragglers.is_empty() {
            for d in &mut self.machine.devices {
                d.set_fault_plan(faults.clone());
            }
        }
        self.machine.fabric.set_faults(faults.clone());
        self.machine.cfg.faults = faults;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{EntryId, MsgPriority};

    /// A chare that counts pings and pongs back.
    #[derive(Clone)]
    struct Ping {
        got: u64,
        peer: Option<ChareId>,
        limit: u64,
    }

    const E_PING: EntryId = EntryId(0);

    impl Chare for Ping {
        fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
            assert_eq!(env.entry, E_PING);
            self.got += 1;
            if self.got < self.limit {
                if let Some(peer) = self.peer {
                    ctx.send(peer, Envelope::empty(E_PING).with_bytes(64));
                }
            }
        }
    }

    fn two_chare_setup(same_pe: bool) -> (Simulation, ChareId, ChareId) {
        let cfg = MachineConfig::validation(if same_pe { 1 } else { 2 }, 1);
        let mut s = Simulation::new(cfg);
        let a = s.machine.create_chare(
            0,
            Box::new(Ping {
                got: 0,
                peer: None,
                limit: 10,
            }),
        );
        let b_pe = if same_pe { 0 } else { 1 };
        let b = s.machine.create_chare(
            b_pe,
            Box::new(Ping {
                got: 0,
                peer: Some(a),
                limit: 10,
            }),
        );
        // wire a -> b
        {
            let a_ref = s.machine.chares[a.0].as_mut().expect("a");
            // Downcast through Any to set the peer.
            let any = a_ref.as_mut() as &mut dyn std::any::Any;
            any.downcast_mut::<Ping>().expect("ping").peer = Some(b);
        }
        (s, a, b)
    }

    #[test]
    fn ping_pong_across_nodes() {
        let (mut s, a, b) = two_chare_setup(false);
        let Simulation { sim, machine, .. } = &mut s;
        machine.inject(sim, a, Envelope::empty(E_PING));
        assert_eq!(s.run(), RunOutcome::Drained);
        let pa = s.machine.chare_as::<Ping>(a);
        let pb = s.machine.chare_as::<Ping>(b);
        // a receives the injected ping + pongs; b receives a's sends.
        assert_eq!(pa.got + pb.got, 10 + 9);
        assert!(s.now() > SimTime::ZERO);
        assert_eq!(s.machine.stats().entries, 19);
    }

    #[test]
    fn ping_pong_same_pe_is_faster() {
        let (mut s1, a1, _) = two_chare_setup(false);
        {
            let Simulation { sim, machine, .. } = &mut s1;
            machine.inject(sim, a1, Envelope::empty(E_PING));
        }
        s1.run();
        let remote = s1.now();

        let (mut s2, a2, _) = two_chare_setup(true);
        {
            let Simulation { sim, machine, .. } = &mut s2;
            machine.inject(sim, a2, Envelope::empty(E_PING));
        }
        s2.run();
        let local = s2.now();
        assert!(local < remote, "local {local} should beat remote {remote}");
    }

    /// A chare that records the order in which its entries ran.
    #[derive(Clone)]
    struct Recorder {
        order: Vec<(u16, u64)>,
    }
    impl Chare for Recorder {
        fn receive(&mut self, _ctx: &mut Ctx<'_>, env: Envelope) {
            self.order.push((env.entry.0, env.refnum));
        }
    }

    #[test]
    fn high_priority_messages_jump_the_queue() {
        let cfg = MachineConfig::validation(1, 1);
        let mut s = Simulation::new(cfg);
        let c = s
            .machine
            .create_chare(0, Box::new(Recorder { order: vec![] }));
        let Simulation { sim, machine, .. } = &mut s;
        // Three normal messages then one high-priority one, all at t=0.
        machine.inject(sim, c, Envelope::empty(EntryId(1)));
        machine.inject(sim, c, Envelope::empty(EntryId(2)));
        machine.inject(sim, c, Envelope::empty(EntryId(3)));
        machine.inject(sim, c, Envelope::empty(EntryId(4)).high_priority());
        s.run();
        let r = s.machine.chare_as::<Recorder>(c);
        // All four are queued before the first dispatch event fires, so
        // the high-priority message runs first.
        assert_eq!(
            r.order.iter().map(|&(e, _)| e).collect::<Vec<_>>(),
            vec![4, 1, 2, 3]
        );
    }

    /// Chare that launches a kernel and asks for HAPI completion.
    #[derive(Clone)]
    struct GpuUser {
        stream: Option<StreamId>,
        done_at: Option<SimTime>,
        launched_at: Option<SimTime>,
    }
    const E_GO: EntryId = EntryId(0);
    const E_DONE: EntryId = EntryId(1);

    impl Chare for GpuUser {
        fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
            match env.entry {
                E_GO => {
                    self.launched_at = Some(ctx.start_time());
                    let s = self.stream.expect("stream created in setup");
                    ctx.launch(
                        s,
                        Op::kernel(gaat_gpu::KernelSpec::phantom(
                            "work",
                            SimDuration::from_us(50),
                        )),
                    );
                    ctx.hapi(s, Callback::to(ctx.me(), E_DONE));
                }
                E_DONE => {
                    assert_eq!(env.priority, MsgPriority::High);
                    self.done_at = Some(ctx.start_time());
                }
                other => panic!("unexpected entry {other:?}"),
            }
        }
    }

    #[test]
    fn hapi_detects_gpu_completion_asynchronously() {
        let cfg = MachineConfig::validation(1, 1);
        let mut s = Simulation::new(cfg);
        let stream = s.machine.devices[0].create_stream(0);
        let c = s.machine.create_chare(
            0,
            Box::new(GpuUser {
                stream: Some(stream),
                done_at: None,
                launched_at: None,
            }),
        );
        let Simulation { sim, machine, .. } = &mut s;
        machine.inject(sim, c, Envelope::empty(E_GO));
        assert_eq!(s.run(), RunOutcome::Drained);
        let g = s.machine.chare_as::<GpuUser>(c);
        let done = g.done_at.expect("completion callback ran");
        // Kernel work of 50us must have elapsed before the callback.
        assert!(done.as_ns() > 50_000, "done at {done}");
    }

    #[test]
    fn stream_sync_blocks_other_chares() {
        // Two chares on one PE. Chare 0 launches a long kernel with a
        // synchronous wait; chare 1's message gets stuck behind the block.
        #[derive(Clone)]
        struct Blocker {
            stream: StreamId,
            resumed_at: Option<SimTime>,
        }
        impl Chare for Blocker {
            fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
                match env.entry {
                    EntryId(0) => {
                        ctx.launch(
                            self.stream,
                            Op::kernel(gaat_gpu::KernelSpec::phantom(
                                "long",
                                SimDuration::from_ms(1),
                            )),
                        );
                        ctx.stream_sync(self.stream, Callback::to(ctx.me(), EntryId(1)));
                    }
                    EntryId(1) => self.resumed_at = Some(ctx.start_time()),
                    _ => unreachable!(),
                }
            }
        }
        #[derive(Clone)]
        struct Bystander {
            ran_at: Option<SimTime>,
        }
        impl Chare for Bystander {
            fn receive(&mut self, ctx: &mut Ctx<'_>, _env: Envelope) {
                self.ran_at = Some(ctx.start_time());
            }
        }
        let cfg = MachineConfig::validation(1, 1);
        let mut s = Simulation::new(cfg);
        let stream = s.machine.devices[0].create_stream(0);
        let blocker = s.machine.create_chare(
            0,
            Box::new(Blocker {
                stream,
                resumed_at: None,
            }),
        );
        let bystander = s
            .machine
            .create_chare(0, Box::new(Bystander { ran_at: None }));
        let Simulation { sim, machine, .. } = &mut s;
        machine.inject(sim, blocker, Envelope::empty(EntryId(0)));
        machine.inject(sim, bystander, Envelope::empty(EntryId(0)));
        s.run();
        let ran = s
            .machine
            .chare_as::<Bystander>(bystander)
            .ran_at
            .expect("ran");
        // The bystander could not run until the ~1ms kernel finished.
        assert!(ran.as_ns() > 1_000_000, "bystander ran at {ran}");
        assert!(s.machine.chare_as::<Blocker>(blocker).resumed_at.is_some());
    }

    /// With HAPI (async completion) instead of stream_sync, the bystander
    /// runs immediately — the overlap benefit of Fig. 4.
    #[test]
    fn async_completion_does_not_block_other_chares() {
        #[derive(Clone)]
        struct AsyncUser {
            stream: StreamId,
        }
        impl Chare for AsyncUser {
            fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
                if env.entry == EntryId(0) {
                    ctx.launch(
                        self.stream,
                        Op::kernel(gaat_gpu::KernelSpec::phantom(
                            "long",
                            SimDuration::from_ms(1),
                        )),
                    );
                    ctx.hapi(self.stream, Callback::to(ctx.me(), EntryId(1)));
                }
            }
        }
        #[derive(Clone)]
        struct Bystander {
            ran_at: Option<SimTime>,
        }
        impl Chare for Bystander {
            fn receive(&mut self, ctx: &mut Ctx<'_>, _env: Envelope) {
                self.ran_at = Some(ctx.start_time());
            }
        }
        let cfg = MachineConfig::validation(1, 1);
        let mut s = Simulation::new(cfg);
        let stream = s.machine.devices[0].create_stream(0);
        let a = s.machine.create_chare(0, Box::new(AsyncUser { stream }));
        let b = s
            .machine
            .create_chare(0, Box::new(Bystander { ran_at: None }));
        let Simulation { sim, machine, .. } = &mut s;
        machine.inject(sim, a, Envelope::empty(EntryId(0)));
        machine.inject(sim, b, Envelope::empty(EntryId(0)));
        s.run();
        let ran = s.machine.chare_as::<Bystander>(b).ran_at.expect("ran");
        assert!(
            ran.as_ns() < 100_000,
            "bystander overlapped with GPU work, ran at {ran}"
        );
    }

    #[test]
    fn reduction_sums_contributions() {
        #[derive(Clone)]
        struct Contributor {
            reducer: u64,
            n: usize,
            root_cb: Callback,
            value: f64,
        }
        impl Chare for Contributor {
            fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
                if env.entry == EntryId(0) {
                    ctx.contribute(self.reducer, 1, self.value, self.n, self.root_cb);
                }
            }
        }
        #[derive(Clone)]
        struct Root {
            got: Option<f64>,
        }
        impl Chare for Root {
            fn receive(&mut self, _ctx: &mut Ctx<'_>, env: Envelope) {
                self.got = Some(env.take::<f64>());
            }
        }
        let cfg = MachineConfig::validation(2, 2);
        let mut s = Simulation::new(cfg);
        let reducer = s.machine.create_reducer();
        let root = s.machine.create_chare(0, Box::new(Root { got: None }));
        let cb = Callback::to(root, EntryId(9));
        let n = 4;
        let mut ids = vec![];
        for pe in 0..4 {
            ids.push(s.machine.create_chare(
                pe,
                Box::new(Contributor {
                    reducer,
                    n,
                    root_cb: cb,
                    value: (pe + 1) as f64,
                }),
            ));
        }
        let Simulation { sim, machine, .. } = &mut s;
        for &c in &ids {
            machine.inject(sim, c, Envelope::empty(EntryId(0)));
        }
        s.run();
        assert_eq!(s.machine.chare_as::<Root>(root).got, Some(10.0));
    }

    #[test]
    fn migration_moves_execution() {
        #[derive(Clone)]
        struct WhichPe {
            ran_on: Vec<usize>,
        }
        impl Chare for WhichPe {
            fn receive(&mut self, ctx: &mut Ctx<'_>, _env: Envelope) {
                self.ran_on.push(ctx.pe());
            }
        }
        let cfg = MachineConfig::validation(1, 2);
        let mut s = Simulation::new(cfg);
        let c = s
            .machine
            .create_chare(0, Box::new(WhichPe { ran_on: vec![] }));
        {
            let Simulation { sim, machine, .. } = &mut s;
            machine.inject(sim, c, Envelope::empty(EntryId(0)));
        }
        s.run();
        s.machine.migrate(c, 1);
        {
            let Simulation { sim, machine, .. } = &mut s;
            machine.inject(sim, c, Envelope::empty(EntryId(0)));
        }
        s.run();
        assert_eq!(s.machine.chare_as::<WhichPe>(c).ran_on, vec![0, 1]);
        assert_eq!(s.machine.stats().migrations, 1);
    }

    /// Pausing at fixed deadlines and resuming must replay a plain run
    /// exactly — the property the sweep's prefix fork relies on when it
    /// stops a world at the fork point and carries on.
    #[test]
    fn stepped_run_until_matches_plain_run_on_ping_pong() {
        let (mut s1, a1, b1) = two_chare_setup(false);
        {
            let Simulation { sim, machine, .. } = &mut s1;
            machine.inject(sim, a1, Envelope::empty(E_PING));
        }
        assert_eq!(s1.run(), RunOutcome::Drained);

        let (mut s2, a2, b2) = two_chare_setup(false);
        {
            let Simulation { sim, machine, .. } = &mut s2;
            machine.inject(sim, a2, Envelope::empty(E_PING));
        }
        let step = SimDuration::from_ns(1_583);
        let mut deadline = SimTime::ZERO;
        let mut pauses = 0;
        while s2.sim.peek_time().is_some() {
            deadline += step;
            assert_eq!(s2.run_until(deadline), RunOutcome::Drained);
            pauses += 1;
        }
        assert!(pauses > 1, "the run must pause more than once");
        assert_eq!(s2.now(), s1.now(), "stepped run must be bit-identical");
        assert_eq!(
            s2.machine.chare_as::<Ping>(a2).got,
            s1.machine.chare_as::<Ping>(a1).got
        );
        assert_eq!(
            s2.machine.chare_as::<Ping>(b2).got,
            s1.machine.chare_as::<Ping>(b1).got
        );
        assert_eq!(s2.sim.events_executed(), s1.sim.events_executed());
        assert_eq!(s2.sim.pending(), s1.sim.pending());
        assert_eq!(s2.sim.peak_pending(), s1.sim.peak_pending());
    }
}
