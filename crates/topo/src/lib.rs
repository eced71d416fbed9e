//! Topology-aware interconnect model.
//!
//! The machine is a graph of directed links (NVLink/X-bus inside a node,
//! NIC injection/ejection ports, and a two-level fat tree of EDR trunks
//! between nodes). Messages become *flows*: a flow occupies every link on
//! its static route and the set of concurrent flows shares each link's
//! bandwidth max-min fairly. Whenever a flow starts or finishes, the
//! affected rates are recomputed and in-flight completion times move —
//! the caller reschedules them through its event queue using the
//! idempotent `FlowSim::advance` / `next_wakeup` state machine.
//!
//! The crate is deliberately free of event-queue types beyond
//! [`gaat_sim::SimTime`]: `gaat-net` owns the wiring into the engine.

#![warn(missing_docs)]

mod fattree;
mod flow;

pub use fattree::{FatTreeGraph, FatTreeParams, RouteInfo};
pub use flow::{FlowSim, EPS_BYTES};

/// Counters of the incremental max-min solver, accumulated over a
/// [`FlowSim`]'s lifetime. One *recompute* is the dirty-set closure plus
/// (unless the closure is empty) a water-filling pass over that
/// component; flows outside the component keep their rate and ETA, which
/// is what [`SolverStats::rate_updates_avoided`] counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolverStats {
    /// Recompute passes run (one per admit, one per completion batch).
    pub recomputes: u64,
    /// Recomputes whose dirty closure held no live flows (the fast
    /// path: the changed route's links are otherwise empty).
    pub empty_recomputes: u64,
    /// Total flows re-water-filled across all recomputes (= per-flow
    /// rate assignments actually performed).
    pub touched_flows: u64,
    /// Total links reset and scanned across all recomputes.
    pub touched_links: u64,
    /// Live flows whose rate/ETA a recompute did *not* have to touch,
    /// summed over recomputes — the work a from-scratch solver would
    /// have redone.
    pub rate_updates_avoided: u64,
}

impl SolverStats {
    /// Record one recompute that touched `dirty_flows` of the `live`
    /// flows and reset `dirty_links` links.
    pub fn record_component(&mut self, dirty_flows: usize, dirty_links: usize, live: usize) {
        if dirty_flows == 0 {
            self.empty_recomputes += 1;
        }
        self.touched_flows += dirty_flows as u64;
        self.touched_links += dirty_links as u64;
        self.rate_updates_avoided += (live - dirty_flows) as u64;
    }
}

use gaat_sim::SimTime;

/// Index of a directed link in a topology graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// What a link physically is; used for labelling stats and trace lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// Intra-node GPU/host interconnect (NVLink / X-bus).
    NvLink,
    /// NIC injection port (node -> leaf switch).
    NicUp,
    /// NIC ejection port (leaf switch -> node).
    NicDown,
    /// Leaf-to-spine trunk (up direction).
    LeafUp,
    /// Spine-to-leaf trunk (down direction).
    LeafDown,
}

impl LinkKind {
    /// Short lowercase name, used as a trace label.
    pub fn label(self) -> &'static str {
        match self {
            LinkKind::NvLink => "nvlink",
            LinkKind::NicUp => "nic-up",
            LinkKind::NicDown => "nic-down",
            LinkKind::LeafUp => "leaf-up",
            LinkKind::LeafDown => "leaf-down",
        }
    }
}

/// Static description of one directed link.
#[derive(Debug, Clone, Copy)]
pub struct LinkDesc {
    /// What the link connects.
    pub kind: LinkKind,
    /// Capacity in bytes/second.
    pub bw: f64,
}

/// Per-link counters accumulated by the flow simulation.
#[derive(Debug, Clone, Copy)]
pub struct LinkUsage {
    /// The link counted.
    pub link: LinkId,
    /// What the link connects.
    pub kind: LinkKind,
    /// Total bytes carried.
    pub bytes: f64,
    /// Nanoseconds during which at least one flow crossed the link.
    pub busy_ns: u64,
    /// Highest number of simultaneous flows observed.
    pub peak_flows: u32,
    /// busy_ns / horizon_ns as given to [`FlowSim::link_report`].
    pub utilization: f64,
}

/// Whole-fabric congestion summary, cheap enough to fold into `NetStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CongestionSummary {
    /// Highest simultaneous flow count seen on any single link.
    pub peak_link_flows: u32,
    /// Highest per-link utilization (busy time / horizon).
    pub max_link_utilization: f64,
    /// Link holding `max_link_utilization`, if any traffic flowed.
    pub hottest_link: Option<LinkId>,
}

/// A closed interval during which a link was busy; drained by the caller
/// into tracer lanes.
#[derive(Debug, Clone, Copy)]
pub struct BusySpan {
    /// The busy link.
    pub link: LinkId,
    /// What the link connects.
    pub kind: LinkKind,
    /// When the first flow started crossing the link.
    pub start: SimTime,
    /// When the last flow left it.
    pub end: SimTime,
}
