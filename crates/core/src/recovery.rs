//! Checkpoint/restart and the periodic load balancer: every way a chare
//! rolls back or changes PE.
//!
//! Models the double in-memory checkpoint/restart protocol of Charm++
//! (Zheng et al., "FTC-Charm++"): each chare periodically hands the
//! runtime a copy of its state, kept in its own PE's memory and shipped
//! to a *buddy* PE's memory. When a PE fails, every chare rolls back to
//! the newest epoch for which all chares hold a surviving copy, chares
//! stranded on the dead PE are re-placed onto live PEs, and execution
//! resumes from the restored cut. Keeping the last *two* epochs
//! guarantees a consistent recovery line even when the failure lands in
//! the middle of a checkpoint wave.
//!
//! A checkpoint is a clone of the chare ([`crate::ChareClone`]), into
//! which the chare has captured any device-side state it needs; rollback
//! swaps a copy of it into the chare table. The load balancer migrates
//! through the same rollback, so a chare only ever changes PE at a
//! consistent checkpoint cut.

use std::collections::BTreeMap;

use gaat_sim::{Sim, SimDuration, SimTime};

use crate::config::LbPolicy;
use crate::machine::{Chare, Machine};
use crate::msg::{ChareId, EntryId};

/// One copy of a chare's checkpoint: in flight to the PE that will
/// hold it, or held there.
#[derive(Clone)]
pub(crate) struct Checkpoint {
    pub(crate) chare: ChareId,
    pub(crate) epoch: u64,
    /// PE whose memory holds the copy (the owner's PE until it departs
    /// for the buddy). Copies held by a PE that fails are lost with it.
    pub(crate) on: usize,
    /// Wire price of the state, without the runtime envelope.
    pub(crate) bytes: u64,
    pub(crate) state: Box<dyn Chare>,
}

/// Closed-loop load-balancer counters (all zero with the balancer off).
#[derive(Debug, Clone, Copy, Default)]
pub struct LbStats {
    /// LB tick events that ran.
    pub rounds: u64,
    /// Rounds whose plan was applied (migrations executed).
    pub applied: u64,
    /// Rounds whose plan was declined at apply time (no complete
    /// checkpoint cut, or no resume entry registered).
    pub declined: u64,
    /// Chares moved across all applied plans.
    pub migrations: u64,
    /// Host (wall-clock) nanoseconds spent scoring plans.
    pub plan_host_ns: u64,
    /// Host (wall-clock) nanoseconds spent applying plans (purge +
    /// restore + resume broadcast).
    pub apply_host_ns: u64,
    /// Hottest-link utilization read at the most recent applied plan's
    /// tick (the "before" half of the post-LB delta).
    pub last_util_before: f64,
    /// Hottest-link utilization read one period after the most recent
    /// applied plan (the "after" half; 0 until that tick fires).
    pub last_util_after: f64,
}

/// The machine's checkpoint store, rollback state and LB meters.
#[derive(Clone, Default)]
pub(crate) struct Recovery {
    /// Held copies per chare, sorted by (epoch, holder), so the last one
    /// is the chare's newest epoch.
    store: Vec<Vec<Checkpoint>>,
    /// Recovery generation: 0 until the first rollback. Event-layer
    /// lookups stay strict (panic on unknown ids) while this is 0 and
    /// tolerate post-purge stragglers afterwards.
    pub(crate) incarnation: u64,
    /// Broadcast issued after every rollback to restart the application.
    resume: Option<(Vec<ChareId>, EntryId)>,
    /// Per-chare ns (CPU charge + estimated kernel/DMA time) accrued
    /// since the last LB tick folded it; pure bookkeeping, so metering
    /// is bit-invisible while the balancer is off.
    recent: Vec<u64>,
    /// Per-chare EWMA of `recent` per LB period (integer fold).
    ewma: Vec<u64>,
    /// Per-chare bytes sent to each partner chare (comm-affinity meter;
    /// BTreeMap for deterministic iteration order).
    sent: Vec<BTreeMap<usize, u64>>,
    /// True between an applied plan and the next tick's "after"
    /// utilization reading.
    await_after: bool,
    stats: LbStats,
}

/// Newest epoch among a chare's held copies (0 for none).
fn newest(slots: &[Checkpoint]) -> u64 {
    slots.last().map_or(0, |s| s.epoch)
}

impl Recovery {
    /// Track one more chare.
    pub(crate) fn add_chare(&mut self) {
        self.store.push(Vec::new());
        self.recent.push(0);
        self.ewma.push(0);
        self.sent.push(BTreeMap::new());
    }

    /// Meter `ns` of work (CPU charge or estimated device time) to `c`.
    pub(crate) fn meter_work(&mut self, c: ChareId, ns: u64) {
        self.recent[c.0] += ns;
    }

    /// Meter a `bytes`-byte message from `from` to `to`.
    pub(crate) fn meter_send(&mut self, from: ChareId, to: ChareId, bytes: u64) {
        *self.sent[from.0].entry(to.0).or_insert(0) += bytes;
    }

    /// Accept one copy into its holder's memory. Epochs older than the
    /// newest two are discarded: keeping two guarantees a collectively
    /// complete cut survives a failure that lands mid-checkpoint-wave.
    fn store(&mut self, ck: Checkpoint) {
        let c = ck.chare.0;
        let slots = &mut self.store[c];
        slots.retain(|s| !(s.epoch == ck.epoch && s.on == ck.on));
        slots.push(ck);
        slots.sort_by_key(|s| (s.epoch, s.on));
        // Recovery and the balancer restore from the global cut.
        // Asynchrony lets fast chares run several epochs ahead of a
        // straggler, so pruning to the newest two alone would evict the
        // cut from the fast chares' stores. Clamp pruning so each chare
        // also keeps its newest epoch at or below the cut; retention
        // stays bounded by the drift the application's dependences
        // allow. Pruning never drops the newest epoch, so the cut holds.
        let cut = self.cut();
        let slots = &mut self.store[c];
        let mut epochs: Vec<u64> = slots.iter().map(|s| s.epoch).collect();
        epochs.dedup();
        if epochs.len() > 2 {
            let newest_two = epochs[epochs.len() - 2];
            let held_cut = epochs.iter().rev().find(|&&e| e <= cut).map_or(0, |&e| e);
            slots.retain(|s| s.epoch >= newest_two.min(held_cut));
        }
    }

    /// The global cut: the minimum over chares of the newest epoch held
    /// (0 while some chare holds none).
    fn cut(&self) -> u64 {
        self.store.iter().map(|s| newest(s)).min().unwrap_or(0)
    }

    /// The cut epoch and a copy of each chare's newest checkpoint at or
    /// before it, in chare order; `None` if some chare holds none.
    /// Asynchronous execution lets chares drift further apart than the
    /// two retained epochs, so a chare may hold nothing at or before
    /// the cut.
    fn cut_states(&self) -> Option<(u64, Vec<Box<dyn Chare>>)> {
        let epoch = self.cut();
        let states = self.store.iter().map(|slots| {
            let ck = slots.iter().rev().find(|s| s.epoch <= epoch)?;
            Some(ck.state.clone())
        });
        Some((epoch, states.collect::<Option<_>>()?))
    }
}

/// Fired scheduled-PE-failure event: the process at
/// `cfg.faults.pe_failures[idx]` vanishes. Queued work and in-flight GPU
/// work on it are gone; recovery begins once the failure detector
/// notices.
pub(crate) fn pe_fail(m: &mut Machine, sim: &mut Sim<Machine>, idx: u64) {
    let pe = m.cfg.faults.pe_failures[idx as usize].pe;
    assert!(m.pe_alive[pe], "PE {pe} failed twice");
    m.pe_alive[pe] = false;
    m.stats.pe_failures += 1;
    m.devices[pe].purge(sim.now());
    m.pes[pe].clear();
    sim.after(m.cfg.faults.detection_delay, recover, pe as u64);
}

/// Fired failure-detection event: global rollback recovery after
/// `failed` died (the restart half of double in-memory checkpointing).
/// Drop the copies that died with it, re-place its chares onto live PEs
/// heaviest first ([`crate::lb::lpt_place`], seeded with the survivors'
/// loads), and [`Machine::rollback`].
fn recover(m: &mut Machine, sim: &mut Sim<Machine>, failed: u64) {
    m.stats.recoveries += 1;
    for slots in &mut m.recovery.store {
        slots.retain(|s| s.on != failed as usize);
    }
    let mut pe_load = vec![0u64; m.pes.len()];
    let mut refugees = Vec::new();
    for c in 0..m.chare_count() {
        let (pe, load) = (m.chare_pe[c], m.chare_load[c].as_ns());
        if m.pe_alive[pe] {
            pe_load[pe] += load;
        } else {
            refugees.push((ChareId(c), load));
        }
    }
    let moves = crate::lb::lpt_place(&refugees, &mut pe_load, &m.pe_alive);
    m.rollback(sim, &moves).expect(
        "PE failure needs set_recovery_resume and a surviving checkpoint cut for every chare",
    );
}

/// Fired periodic load-balancing event (`round` counts ticks): fold
/// meters, read sensors, score a plan, and (maybe) apply it through
/// [`Machine::rollback`], the recovery machinery minus the dead PE.
fn lb_tick(m: &mut Machine, sim: &mut Sim<Machine>, round: u64) {
    // `pending` excludes this firing event, so zero means nothing else
    // can ever happen: the run is over. Let the world drain instead of
    // keeping it alive with an endless tick chain.
    if sim.pending() == 0 {
        return;
    }
    sim.after(m.cfg.lb.period, lb_tick, round + 1);
    let now = sim.now();
    let r = &mut m.recovery;
    r.stats.rounds += 1;
    // Fold the per-period accumulators into the EWMAs. Integer
    // arithmetic (`e += (r - e) >> 1`) keeps the meters — and with them
    // every migration decision — bit-identical across platforms and
    // repeated runs.
    for (e, recent) in r.ewma.iter_mut().zip(&mut r.recent) {
        let (ei, ri) = (*e as i64, *recent as i64);
        *e = (ei + ((ri - ei) >> 1)) as u64;
        *recent = 0;
    }
    // Sensors: the hottest link and fault counters from the fabric,
    // retry distress from the transport. Pure reads — polling cannot
    // perturb the run. A link at utilization ≥ 1 has a backlog.
    let net = m.fabric.stats_at(now);
    if r.await_after {
        r.stats.last_util_after = net.max_link_utilization;
        r.await_after = false;
    }
    let ucx = m.ucx.stats();
    let distressed = net.max_link_utilization >= 1.0
        || net.retransmits > 0
        || net.failovers > 0
        || net.link_faults > 0
        || net.flow_aborts > 0
        || ucx.retransmits > 0
        || ucx.timeouts > 0;
    let t0 = std::time::Instant::now();
    let plan = m.lb_plan(now, distressed);
    m.recovery.stats.plan_host_ns += t0.elapsed().as_nanos() as u64;
    let Some(plan) = plan else {
        return;
    };
    // In-flight messages need no explicit forwarding: anything the
    // fabric still delivers after the rollback is dropped as a stale
    // token, and the reliable transport's purge guarantees the
    // application sees a consistent restart. The rollback declines,
    // leaving the world untouched, when the application has not
    // published a resume entry and a complete checkpoint cut.
    let t0 = std::time::Instant::now();
    if m.rollback(sim, &plan.moves).is_some() {
        // Migration marker in the trace (one dedicated lane above the
        // per-PE lanes).
        let lane = m.pes.len() as u32;
        m.tracer
            .record(lane, "lb", "migrate", now, now + SimDuration::from_ns(1));
        let r = &mut m.recovery;
        r.stats.applied += 1;
        r.stats.migrations += plan.moves.len() as u64;
        r.stats.last_util_before = net.max_link_utilization;
        r.await_after = true;
    } else {
        m.recovery.stats.declined += 1;
    }
    m.recovery.stats.apply_host_ns += t0.elapsed().as_nanos() as u64;
}

impl Machine {
    /// Recovery generation: 0 until the first rollback.
    pub fn incarnation(&self) -> u64 {
        self.recovery.incarnation
    }

    /// Register the entry broadcast to `targets` after every rollback,
    /// with the cut epoch as its refnum. It reaches each chare as the
    /// checkpoint copy swapped into the chare table, possibly on a new
    /// PE. Applications that arm PE failures or the load balancer must
    /// call this during setup.
    pub fn set_recovery_resume(&mut self, targets: Vec<ChareId>, entry: EntryId) {
        self.recovery.resume = Some((targets, entry));
    }

    /// Arm the periodic load-balancing tick. Called once by
    /// [`crate::Simulation::new`] after [`Machine::arm_faults`]; inert
    /// unless `cfg.lb.enabled()`, so existing configurations replay
    /// bit-identically. [`crate::MachineConfig::validate`] requires the
    /// reliable transport when the balancer is on.
    pub fn arm_lb(&mut self, sim: &mut Sim<Machine>) {
        if self.cfg.lb.enabled() {
            sim.after(self.cfg.lb.period, lb_tick, 0);
        }
    }

    /// Load-balancer counters so far.
    pub fn lb_stats(&self) -> LbStats {
        self.recovery.stats
    }

    /// Accept one checkpoint copy into the memory of the PE it names.
    pub(crate) fn store_copy(&mut self, ck: Checkpoint) {
        self.stats.checkpoints_stored += 1;
        self.recovery.store(ck);
    }

    /// Gather sensor inputs and run the configured planner.
    fn lb_plan(&self, now: SimTime, distressed: bool) -> Option<crate::lb::LbPlan> {
        let n_pes = self.pes.len();
        let adaptive = self.cfg.lb.policy == LbPolicy::Adaptive;
        // Straggler awareness: a chare's projected cost on PE `p` is its
        // EWMA meter stretched by `p`'s active slowdown window.
        let pe_slow: Vec<f64> = if adaptive {
            (0..n_pes)
                .map(|p| self.cfg.faults.straggler_slowdown(p, now))
                .collect()
        } else {
            vec![1.0; n_pes]
        };
        let affinity: Vec<Vec<(usize, u64)>> = if adaptive {
            let pairs = |m: &BTreeMap<usize, u64>| m.iter().map(|(&k, &v)| (k, v)).collect();
            self.recovery.sent.iter().map(pairs).collect()
        } else {
            vec![Vec::new(); self.chare_count()]
        };
        let node_of: Vec<usize> = (0..n_pes).map(|p| self.cfg.node_of_pe(p)).collect();
        let sensors = crate::lb::LbSensors {
            pe_of: &self.chare_pe,
            base_ns: &self.recovery.ewma,
            pe_slow: &pe_slow,
            alive: &self.pe_alive,
            affinity: &affinity,
            node_of: &node_of,
            distressed: adaptive && distressed,
        };
        crate::lb::periodic_plan(&sensors, &self.cfg.lb)
    }

    /// Global rollback to the newest checkpoint epoch every chare holds
    /// (the collective cut), moving chares on the way: tear down every
    /// layer's in-flight state ([`Machine::clear_in_flight`]), apply
    /// `moves`, swap a copy of each
    /// chare's checkpoint into the chare table in id order, and
    /// broadcast the registered resume entry with the epoch as its
    /// refnum. Returns the epoch, or `None` — before touching any state
    /// — when no resume entry is registered or the cut is incomplete.
    fn rollback(&mut self, sim: &mut Sim<Machine>, moves: &[(ChareId, usize)]) -> Option<u64> {
        let (targets, entry) = self.recovery.resume.clone()?;
        let (epoch, states) = self.recovery.cut_states()?;
        self.recovery.incarnation += 1;
        self.clear_in_flight(sim);
        for &(c, pe) in moves {
            self.migrate(c, pe);
        }
        self.stats.chares_restored += states.len() as u64;
        for (slot, state) in self.chares.iter_mut().zip(states) {
            let was = slot.as_deref().expect("chare resident during rollback");
            debug_assert_eq!(
                was.type_id(),
                (*state).type_id(),
                "a checkpoint must be a clone of its chare"
            );
            *slot = Some(state);
        }
        self.broadcast(sim, &targets, entry, epoch);
        Some(epoch)
    }

    /// Re-home a chare on another PE. Only [`Machine::rollback`] calls
    /// it, after every in-flight message and queued entry is purged.
    pub(crate) fn migrate(&mut self, chare: ChareId, to_pe: usize) {
        assert!(to_pe < self.pes.len());
        self.stats.migrations += 1;
        self.chare_pe[chare.0] = to_pe;
    }

    /// Next live PE after `pe` in ring order: the buddy that holds its
    /// chares' checkpoints.
    pub(crate) fn buddy_of(&self, pe: usize) -> usize {
        let n = self.pes.len();
        (1..=n)
            .map(|k| (pe + k) % n)
            .find(|&q| self.pe_alive[q])
            .unwrap_or(pe)
    }
}
