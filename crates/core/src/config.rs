//! Machine and runtime configuration.

use gaat_gpu::GpuTimingModel;
use gaat_net::NetParams;
use gaat_sim::SimDuration;
use gaat_ucx::UcxParams;

/// CPU-side costs of the task runtime (the analogue of Charm++ scheduler
/// and messaging overheads). These are what make fine-grained
/// overdecomposition expensive — the effect that bounds the useful ODF in
/// the paper's Figs. 7–9.
#[derive(Debug, Clone, PartialEq)]
pub struct RtCosts {
    /// Scheduler cost of popping one message and locating its target
    /// chare.
    pub sched_per_msg: SimDuration,
    /// Cost of dispatching into an entry method (unpacking, invoking).
    pub entry_dispatch: SimDuration,
    /// CPU cost of a proxy send (marshalling, envelope setup).
    pub send_overhead: SimDuration,
    /// CPU cost of a Channel API send/recv call (thin UCX pass-through).
    pub channel_call: SimDuration,
    /// Latency of a same-PE message (queue reinsertion, no network).
    pub local_latency: SimDuration,
    /// Envelope bytes added to every runtime message on the wire.
    pub envelope_bytes: u64,
}

impl Default for RtCosts {
    fn default() -> Self {
        RtCosts {
            sched_per_msg: SimDuration::from_ns(900),
            entry_dispatch: SimDuration::from_ns(400),
            send_overhead: SimDuration::from_ns(750),
            channel_call: SimDuration::from_ns(500),
            local_latency: SimDuration::from_ns(250),
            envelope_bytes: 96,
        }
    }
}

/// Which migration planner the periodic load-balancing step runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LbPolicy {
    /// No load balancing: the LB tick is never armed.
    #[default]
    Off,
    /// The same budgeted, incremental planner as `Adaptive`, run on the
    /// live EWMA load meters alone: straggler factors are all ones and
    /// the comm-affinity and fabric-distress sensors are off.
    Greedy,
    /// Congestion-, straggler-, and comm-affinity-aware planner: loads
    /// are inflated by active straggler windows and migration targets
    /// are biased toward the chare's heaviest communication partners.
    Adaptive,
}

/// Closed-loop load-balancer knobs. Inert by default: with
/// [`LbPolicy::Off`] or a zero period no tick is armed, no meters feed
/// a planner, and every run replays bit-identically to builds that
/// predate the balancer.
#[derive(Debug, Clone, PartialEq)]
pub struct LbConfig {
    /// Planner run on each tick.
    pub policy: LbPolicy,
    /// Virtual time between LB steps; `ZERO` disables the balancer
    /// regardless of policy.
    pub period: SimDuration,
    /// Maximum chares migrated per LB round (thrash bound).
    pub budget: usize,
    /// A plan is applied only if it improves the projected makespan by
    /// at least this percentage of the current one (hysteresis).
    pub hysteresis_pct: u32,
}

impl Default for LbConfig {
    fn default() -> Self {
        LbConfig {
            policy: LbPolicy::Off,
            period: SimDuration::ZERO,
            budget: 4,
            hysteresis_pct: 5,
        }
    }
}

impl LbConfig {
    /// Whether the periodic LB step should be armed at all.
    pub fn enabled(&self) -> bool {
        self.policy != LbPolicy::Off && self.period > SimDuration::ZERO
    }
}

/// Full description of the simulated machine: topology, device timing,
/// fabric, communication-layer and runtime costs.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// PEs per node; each PE owns one GPU (the paper's non-SMP
    /// one-process-per-GPU configuration; 6 on Summit).
    pub pes_per_node: usize,
    /// GPU timing model (same for every device).
    pub gpu: GpuTimingModel,
    /// Fabric constants.
    pub net: NetParams,
    /// Communication-layer constants.
    pub ucx: UcxParams,
    /// Runtime CPU costs.
    pub rt: RtCosts,
    /// Root RNG seed (a "run" in the paper's three-trial averages).
    pub seed: u64,
    /// Deterministic fault plan: message loss/corruption, link and PE
    /// failures, straggler windows. Inert by default, so fault-free runs
    /// are bit-identical to builds that predate fault injection.
    pub faults: gaat_sim::FaultPlan,
    /// Allocate real (functional) buffers instead of phantom ones.
    pub real_buffers: bool,
    /// Record execution traces (entry spans per PE, kernel/memcpy spans
    /// per device engine) for Nsight-style analysis. Off by default —
    /// tracing a 3,072-GPU run would record millions of spans.
    pub trace: bool,
    /// Closed-loop load balancer. Inert by default (policy `Off`,
    /// period zero) so existing runs replay bit-identically.
    pub lb: LbConfig,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            nodes: 1,
            pes_per_node: 6,
            gpu: GpuTimingModel::default(),
            net: NetParams::default(),
            ucx: UcxParams::default(),
            rt: RtCosts::default(),
            seed: 1,
            faults: gaat_sim::FaultPlan::none(),
            real_buffers: false,
            trace: false,
            lb: LbConfig::default(),
        }
    }
}

impl MachineConfig {
    /// A Summit-like machine of `nodes` nodes (6 GPUs each).
    pub fn summit(nodes: usize) -> Self {
        MachineConfig {
            nodes,
            ..Default::default()
        }
    }

    /// A Summit-like machine whose interconnect is the explicit
    /// fat-tree topology model (`gaat-topo`): messages contend for
    /// NVLink, NIC ports, and leaf/spine trunks under max-min fair
    /// sharing, instead of the flat per-NIC model of [`Self::summit`].
    pub fn summit_fattree(nodes: usize) -> Self {
        let mut cfg = Self::summit(nodes);
        cfg.net.topology = gaat_net::TopologyKind::FatTree(gaat_net::FatTreeParams::default());
        cfg
    }

    /// Small functional-validation machine: `nodes` nodes × `pes` PEs with
    /// real buffers and no jitter (bit-exact numerics).
    pub fn validation(nodes: usize, pes: usize) -> Self {
        let mut cfg = MachineConfig {
            nodes,
            pes_per_node: pes,
            real_buffers: true,
            ..Default::default()
        };
        cfg.net.jitter = 0.0;
        cfg
    }

    /// Total PE (= GPU = worker) count.
    pub fn total_pes(&self) -> usize {
        self.nodes * self.pes_per_node
    }

    /// Node of a PE.
    pub fn node_of_pe(&self, pe: usize) -> usize {
        pe / self.pes_per_node
    }

    /// Check the rules a machine configuration must meet before a
    /// [`crate::Simulation`] is built from it: the machine has a PE,
    /// every fault names a link,
    /// PE or device the machine has, the UCX staging stream's priority is
    /// a stream priority class, the pipelined protocol's chunk is at
    /// least one byte, the fault plan's drop and corrupt probabilities
    /// lie in [0, 1], and PE failures and the load balancer run
    /// over the reliable transport. Both purge fabric-stashed
    /// deliveries for cancelled transfers, which only the reliable
    /// transport's token tracking can identify as stale.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.total_pes() == 0 {
            return Err(ConfigError::NoPes);
        }
        // A jitter above 1 can draw a negative factor, and a NaN one a
        // NaN factor; neither prices a message.
        if !(0.0..=1.0).contains(&self.net.jitter) {
            return Err(ConfigError::JitterOutOfRange);
        }
        // A zero or NaN bandwidth serializes every message for all time.
        for (field, bw) in [
            ("net.inter_bw", self.net.inter_bw),
            ("net.intra_bw", self.net.intra_bw),
        ] {
            if !(bw.is_finite() && bw > 0.0) {
                return Err(ConfigError::NotABandwidth { field });
            }
        }
        let links = match self.net.topology {
            gaat_net::TopologyKind::Flat => 0,
            gaat_net::TopologyKind::FatTree(ft) => {
                // Checked before `link_count`, which divides by the radix.
                if ft.leaf_radix == 0 {
                    return Err(ConfigError::FatTreeNoLeafRadix);
                }
                if ft.spines == 0 {
                    return Err(ConfigError::FatTreeNoSpines);
                }
                if ft.trunk_bw.is_nan() || ft.trunk_bw <= 0.0 {
                    return Err(ConfigError::FatTreeTrunkBandwidth);
                }
                ft.link_count(self.nodes)
            }
        };
        // One device per PE.
        let pes = self.total_pes();
        let faults = &self.faults;
        for (fault, lf) in faults.link_faults.iter().enumerate() {
            if lf.link as usize >= links {
                let link = lf.link;
                return Err(ConfigError::LinkOutOfRange { fault, link, links });
            }
        }
        for (fault, pf) in faults.pe_failures.iter().enumerate() {
            if pf.pe >= pes {
                let pe = pf.pe;
                return Err(ConfigError::PeOutOfRange { fault, pe, pes });
            }
        }
        for (window, sw) in faults.stragglers.iter().enumerate() {
            if sw.device >= pes {
                let (device, devices) = (sw.device, pes);
                return Err(ConfigError::DeviceOutOfRange {
                    window,
                    device,
                    devices,
                });
            }
        }
        let priority = self.ucx.staging_priority;
        if priority >= gaat_gpu::PRIORITY_CLASSES {
            return Err(ConfigError::StagingPriorityOutOfRange { priority });
        }
        if self.ucx.pipeline_chunk == 0 {
            return Err(ConfigError::PipelineChunkZero);
        }
        for (field, p) in [
            ("faults.drop_prob", faults.drop_prob),
            ("faults.corrupt_prob", faults.corrupt_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(ConfigError::NotAProbability { field });
            }
        }
        if !faults.pe_failures.is_empty() && !self.ucx.reliability.enabled {
            return Err(ConfigError::PeFailureNeedsReliability);
        }
        if self.lb.enabled() && !self.ucx.reliability.enabled {
            return Err(ConfigError::LbNeedsReliability);
        }
        Ok(())
    }
}

/// A machine configuration the runtime cannot run, one variant per
/// rule; see [`MachineConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `nodes` or `pes_per_node` is 0.
    NoPes,
    /// `net.jitter` is NaN or outside [0, 1].
    JitterOutOfRange,
    /// A fabric bandwidth is not a finite number of bytes/s above 0.
    NotABandwidth {
        /// The offending field.
        field: &'static str,
    },
    /// A fat tree with `leaf_radix` 0: no leaf switch has a node port.
    FatTreeNoLeafRadix,
    /// A fat tree with `spines` 0: leaves have no path between them.
    FatTreeNoSpines,
    /// A fat tree whose `trunk_bw` is not a positive number of bytes/s.
    FatTreeTrunkBandwidth,
    /// A link fault names a link past the fabric's link count (0 on a
    /// `Flat` fabric, which has no link graph).
    LinkOutOfRange {
        /// Position of the fault in the plan.
        fault: usize,
        /// The link it names.
        link: u32,
        /// Links the fabric has.
        links: usize,
    },
    /// A PE failure names a PE the machine does not have.
    PeOutOfRange {
        /// Position of the failure in the plan.
        fault: usize,
        /// The PE it names.
        pe: usize,
        /// PEs the machine has.
        pes: usize,
    },
    /// A straggler window names a device the machine does not have.
    DeviceOutOfRange {
        /// Position of the window in the plan.
        window: usize,
        /// The device it names.
        device: usize,
        /// Devices the machine has.
        devices: usize,
    },
    /// `ucx.staging_priority` is not a stream priority class.
    StagingPriorityOutOfRange {
        /// The priority asked for.
        priority: usize,
    },
    /// `ucx.pipeline_chunk` is 0: the pipelined protocol cannot split a
    /// message into chunks.
    PipelineChunkZero,
    /// A loss probability is NaN or outside [0, 1].
    NotAProbability {
        /// The offending field.
        field: &'static str,
    },
    /// PE failures are armed without the reliable transport.
    PeFailureNeedsReliability,
    /// The load balancer is armed without the reliable transport.
    LbNeedsReliability,
    /// [`crate::Simulation::set_stochastic_faults`] was given a plan whose
    /// time-triggered faults differ from the armed plan's.
    ArmedFaultsChanged,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ConfigError::NoPes => f.write_str("the machine needs nodes >= 1 and pes_per_node >= 1"),
            ConfigError::JitterOutOfRange => {
                f.write_str("net.jitter must be a finite factor in [0, 1]")
            }
            ConfigError::NotABandwidth { field } => {
                write!(f, "{field} must be a finite bandwidth > 0 bytes/s")
            }
            ConfigError::FatTreeNoLeafRadix => {
                f.write_str("net.topology fat tree needs leaf_radix >= 1")
            }
            ConfigError::FatTreeNoSpines => f.write_str("net.topology fat tree needs spines >= 1"),
            ConfigError::FatTreeTrunkBandwidth => {
                f.write_str("net.topology fat tree needs trunk_bw > 0 bytes/s")
            }
            ConfigError::LinkOutOfRange { fault, link, links } => write!(
                f,
                "link fault {fault} targets link {link}, but the fabric has {links} links"
            ),
            ConfigError::PeOutOfRange { fault, pe, pes } => write!(
                f,
                "PE failure {fault} targets PE {pe}, but the machine has {pes} PEs"
            ),
            ConfigError::DeviceOutOfRange {
                window,
                device,
                devices,
            } => write!(
                f,
                "straggler window {window} targets device {device}, but the machine has \
                 {devices} devices"
            ),
            ConfigError::StagingPriorityOutOfRange { priority } => write!(
                f,
                "ucx.staging_priority is {priority}, but streams have {} priority classes",
                gaat_gpu::PRIORITY_CLASSES
            ),
            ConfigError::PipelineChunkZero => f.write_str("ucx.pipeline_chunk must be >= 1 byte"),
            ConfigError::NotAProbability { field } => {
                write!(f, "{field} must be a probability in [0, 1]")
            }
            ConfigError::PeFailureNeedsReliability => {
                f.write_str("PE-failure recovery requires ucx.reliability.enabled")
            }
            ConfigError::LbNeedsReliability => f.write_str(
                "adaptive LB migration requires ucx.reliability.enabled: the post-apply purge \
                 leaves fabric-stashed deliveries that only the reliable transport's token \
                 tracking can identify as stale",
            ),
            ConfigError::ArmedFaultsChanged => f.write_str(
                "set_stochastic_faults may change only the seed, drop/corrupt probabilities and \
                 onset: link faults, PE failures, stragglers and detection delay must match the \
                 armed plan",
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summit_topology() {
        let c = MachineConfig::summit(8);
        assert_eq!(c.total_pes(), 48);
        assert_eq!(c.node_of_pe(0), 0);
        assert_eq!(c.node_of_pe(5), 0);
        assert_eq!(c.node_of_pe(6), 1);
        assert_eq!(c.node_of_pe(47), 7);
    }

    #[test]
    fn staging_priority_must_be_a_stream_class() {
        let mut c = MachineConfig::validation(1, 2);
        c.ucx.staging_priority = gaat_gpu::PRIORITY_CLASSES - 1;
        assert_eq!(c.validate(), Ok(()));
        c.ucx.staging_priority = gaat_gpu::PRIORITY_CLASSES;
        let e = c.validate().unwrap_err();
        assert_eq!(e, ConfigError::StagingPriorityOutOfRange { priority: 4 });
        assert!(e.to_string().contains("ucx.staging_priority is 4"));
    }

    #[test]
    fn pipeline_chunk_must_be_positive() {
        let mut c = MachineConfig::validation(1, 2);
        c.ucx.pipeline_chunk = 1;
        assert_eq!(c.validate(), Ok(()));
        c.ucx.pipeline_chunk = 0;
        let e = c.validate().unwrap_err();
        assert_eq!(e, ConfigError::PipelineChunkZero);
        assert!(e.to_string().contains("ucx.pipeline_chunk"));
    }

    #[test]
    fn loss_probabilities_must_be_in_unit_range() {
        let mut c = MachineConfig::validation(1, 2);
        for p in [0.0, 0.5, 1.0] {
            c.faults.drop_prob = p;
            c.faults.corrupt_prob = p;
            assert_eq!(c.validate(), Ok(()));
        }
        for p in [f64::NAN, -0.5, 1.5] {
            c.faults.drop_prob = p;
            let e = c.validate().unwrap_err();
            let field = "faults.drop_prob";
            assert_eq!(e, ConfigError::NotAProbability { field });
            assert!(e.to_string().contains(field));
            c.faults.drop_prob = 0.0;
            c.faults.corrupt_prob = p;
            let field = "faults.corrupt_prob";
            assert_eq!(c.validate(), Err(ConfigError::NotAProbability { field }));
            c.faults.corrupt_prob = 0.0;
        }
    }

    #[test]
    fn jitter_must_be_in_unit_range() {
        let mut c = MachineConfig::validation(1, 2);
        for j in [0.0, 0.5, 1.0] {
            c.net.jitter = j;
            assert_eq!(c.validate(), Ok(()));
        }
        for j in [f64::NAN, f64::INFINITY, -0.5, 1.5] {
            c.net.jitter = j;
            let e = c.validate().unwrap_err();
            assert_eq!(e, ConfigError::JitterOutOfRange, "jitter {j}");
            assert!(e.to_string().contains("net.jitter"));
        }
    }

    #[test]
    fn fabric_bandwidths_must_be_finite_and_positive() {
        let mut c = MachineConfig::validation(1, 2);
        for bw in [0.0, -1.0e9, f64::NAN, f64::INFINITY] {
            c.net.inter_bw = bw;
            let e = c.validate().unwrap_err();
            let field = "net.inter_bw";
            assert_eq!(e, ConfigError::NotABandwidth { field }, "inter_bw {bw}");
            assert!(e.to_string().contains(field));
            c.net.inter_bw = 23.0e9;
            c.net.intra_bw = bw;
            let field = "net.intra_bw";
            assert_eq!(c.validate(), Err(ConfigError::NotABandwidth { field }));
            c.net.intra_bw = 60.0e9;
        }
        assert_eq!(c.validate(), Ok(()));
    }

    /// `MachineConfig::summit_fattree(4)` with its fat-tree parameters
    /// changed by `edit`.
    fn fattree_with(edit: impl FnOnce(&mut gaat_net::FatTreeParams)) -> MachineConfig {
        let mut c = MachineConfig::summit_fattree(4);
        if let gaat_net::TopologyKind::FatTree(ft) = &mut c.net.topology {
            edit(ft);
        }
        c
    }

    #[test]
    fn fat_tree_needs_a_leaf_radix() {
        assert_eq!(fattree_with(|_| {}).validate(), Ok(()));
        let e = fattree_with(|ft| ft.leaf_radix = 0).validate().unwrap_err();
        assert_eq!(e, ConfigError::FatTreeNoLeafRadix);
        assert!(e.to_string().contains("leaf_radix"));
    }

    #[test]
    fn fat_tree_needs_spines() {
        let e = fattree_with(|ft| ft.spines = 0).validate().unwrap_err();
        assert_eq!(e, ConfigError::FatTreeNoSpines);
        assert!(e.to_string().contains("spines"));
    }

    #[test]
    fn fat_tree_needs_positive_trunk_bandwidth() {
        for bw in [0.0, -1.0e9, f64::NAN] {
            let e = fattree_with(|ft| ft.trunk_bw = bw).validate().unwrap_err();
            assert_eq!(e, ConfigError::FatTreeTrunkBandwidth, "trunk_bw {bw}");
        }
        assert!(ConfigError::FatTreeTrunkBandwidth
            .to_string()
            .contains("trunk_bw"));
    }

    #[test]
    fn machine_needs_a_node_and_a_pe_per_node() {
        assert_eq!(
            MachineConfig::validation(0, 2).validate(),
            Err(ConfigError::NoPes)
        );
        assert_eq!(
            MachineConfig::validation(2, 0).validate(),
            Err(ConfigError::NoPes)
        );
        assert!(ConfigError::NoPes.to_string().contains("pes_per_node >= 1"));
        // Checked before the fat tree's link count divides by the nodes.
        let mut c = MachineConfig::summit_fattree(0);
        assert_eq!(c.validate(), Err(ConfigError::NoPes));
        c.nodes = 1;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validation_config_is_deterministic() {
        let c = MachineConfig::validation(1, 2);
        assert!(c.real_buffers);
        assert_eq!(c.net.jitter, 0.0);
        assert_eq!(c.total_pes(), 2);
    }
}
