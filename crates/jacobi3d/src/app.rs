//! Application-level configuration and results for Jacobi3D runs.

use gaat_rt::MachineConfig;
use gaat_sim::{SimDuration, SimTime};

use crate::geom::Dims;

/// How halo data travels between blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommMode {
    /// Application-level host staging: explicit D2H, host message, H2D
    /// (the `-H` variants in the paper).
    HostStaging,
    /// GPU-aware communication: device buffers handed directly to the
    /// communication layer (the `-D` variants).
    GpuAware,
}

/// Host-device synchronization scheme (paper §III-C / Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// The original implementation: two sync points per iteration (after
    /// the update and before the halo exchange) and a single
    /// high-priority stream for transfers and (un)packing.
    Original,
    /// The optimized implementation: one sync point per iteration and
    /// separate D2H / H2D streams overlapping with (un)packing.
    Optimized,
}

/// Kernel fusion strategy (paper §III-D1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fusion {
    /// No fusion: one kernel per pack, unpack, and update.
    None,
    /// Strategy A: the six pack kernels fused into one.
    A,
    /// Strategy B: packs fused and unpacks fused (two kernels).
    B,
    /// Strategy C: unpacks + update + packs in a single kernel.
    C,
}

impl Fusion {
    /// True when unpacking must wait for *all* halos (fused unpack).
    pub fn defers_unpack(self) -> bool {
        matches!(self, Fusion::B | Fusion::C)
    }
}

/// How graph execution handles the per-iteration in/out pointer swap
/// (paper §III-D2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphStrategy {
    /// Two captured graphs with the buffer pointers exchanged, alternated
    /// every iteration — the paper's solution.
    TwoGraphs,
    /// A single graph whose every node is re-parameterized each iteration
    /// (`cudaGraphExecKernelNodeSetParams`) — the alternative the paper
    /// rejects because the update cost "would void the benefits".
    UpdateParams,
}

/// How chares map onto PEs (and therefore nodes). Placement decides how
/// much halo traffic crosses node boundaries, which is what the
/// topology-aware fabric model prices: a congestion ablation runs the
/// same problem under both placements and compares hot links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Contiguous blocks of the linearized chare order per PE (the
    /// Charm++ default block map) — neighbours mostly share a node.
    Packed,
    /// Chare `i` on PE `i % npes` — adjacent blocks land on different
    /// PEs/nodes, maximizing inter-node halo traffic (adversarial for
    /// the interconnect).
    RoundRobin,
}

/// A full experiment description.
#[derive(Debug, Clone)]
pub struct JacobiConfig {
    /// The machine to simulate.
    pub machine: MachineConfig,
    /// Global grid extents.
    pub global: Dims,
    /// Overdecomposition factor: chares per PE (task-runtime versions
    /// only; the MPI versions always run one rank per PE).
    pub odf: usize,
    /// Chare-to-PE (and node) mapping (task-runtime versions only).
    pub placement: Placement,
    /// Halo transport.
    pub comm: CommMode,
    /// Synchronization scheme.
    pub sync: SyncMode,
    /// Kernel fusion strategy.
    pub fusion: Fusion,
    /// Execute each iteration's kernels as a captured graph (two
    /// alternating graphs for the in/out pointer swap).
    pub graphs: bool,
    /// Pointer-swap handling when `graphs` is on.
    pub graph_strategy: GraphStrategy,
    /// Timed iterations.
    pub iters: usize,
    /// Warm-up iterations excluded from the timers (10 in the paper).
    pub warmup: usize,
    /// MPI manual-overlap variant (interior update overlapped with halo
    /// exchange, paper Fig. 1).
    pub overlap: bool,
    /// Priority class of communication-related streams (packs, unpacks,
    /// transfers). The paper argues these must outrank compute (§III-A);
    /// setting this to 0 reproduces the unprioritized ablation. Must be
    /// below [`gaat_gpu::PRIORITY_CLASSES`].
    pub comm_priority: usize,
    /// Virtual MPI ranks per PE for the MPI versions (AMPI-style
    /// virtualization, the paper's stated future work). 1 = plain MPI.
    /// With more than one, blocking GPU waits become thread yields (as
    /// AMPI's user-level threads would), so co-located ranks overlap.
    pub virtual_ranks: usize,
    /// After the last iteration, compute the global squared norm of the
    /// field via a runtime reduction over all blocks (task-runtime
    /// version only). Functional value requires real buffers.
    pub compute_norm: bool,
    /// Checkpoint every N iteration boundaries to the buddy PE (0 = off;
    /// task-runtime version only). Required when the machine's fault
    /// plan schedules PE failures.
    pub checkpoint_every: usize,
}

impl JacobiConfig {
    /// A sane default experiment on the given machine and grid.
    pub fn new(machine: MachineConfig, global: Dims) -> Self {
        JacobiConfig {
            machine,
            global,
            odf: 1,
            placement: Placement::Packed,
            comm: CommMode::GpuAware,
            sync: SyncMode::Optimized,
            fusion: Fusion::None,
            graphs: false,
            graph_strategy: GraphStrategy::TwoGraphs,
            iters: 100,
            warmup: 10,
            overlap: false,
            comm_priority: 2,
            virtual_ranks: 1,
            compute_norm: false,
            checkpoint_every: 0,
        }
    }

    /// Total iterations including warm-up.
    pub fn total_iters(&self) -> usize {
        self.iters + self.warmup
    }

    /// Check every rule that depends only on this configuration: the
    /// machine's ([`MachineConfig::validate`]), then the application's.
    /// `comm_priority` must be a stream priority class. Fusion and graphs are used only with GPU-aware communication and
    /// the optimized sync scheme (paper §III-D), and a run whose blocks
    /// migrate needs checkpoints to restore from and host staging, since
    /// a GPU-aware block's channels and graphs are tied to the device it
    /// was built on ([`MachineConfig::migrates`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.machine.validate()?;
        if self.odf == 0 {
            return Err(ConfigError::ZeroOdf);
        }
        if self.virtual_ranks == 0 {
            return Err(ConfigError::ZeroRanks);
        }
        if self.iters == 0 {
            return Err(ConfigError::ZeroIters);
        }
        if self.comm_priority >= gaat_gpu::PRIORITY_CLASSES {
            return Err(ConfigError::CommPriorityOutOfRange(self.comm_priority));
        }
        if self.fusion != Fusion::None || self.graphs {
            if self.comm != CommMode::GpuAware {
                return Err(ConfigError::FusionNeedsGpuAware);
            }
            if self.sync != SyncMode::Optimized {
                return Err(ConfigError::FusionNeedsOptimizedSync);
            }
        }
        if self.machine.migrates() {
            if self.checkpoint_every == 0 {
                return Err(ConfigError::MigrationNeedsCheckpoints);
            }
            if self.comm != CommMode::HostStaging {
                return Err(ConfigError::MigrationNeedsHostStaging);
            }
        }
        Ok(())
    }
}

/// A Jacobi3D configuration that cannot be built, one variant per rule;
/// see [`JacobiConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The machine itself is rejected.
    Machine(gaat_rt::ConfigError),
    /// `odf` is 0.
    ZeroOdf,
    /// `virtual_ranks` is 0.
    ZeroRanks,
    /// `iters` is 0.
    ZeroIters,
    /// `comm_priority` is not a stream priority class.
    CommPriorityOutOfRange(usize),
    /// Fusion or graphs without GPU-aware communication.
    FusionNeedsGpuAware,
    /// Fusion or graphs with the original sync scheme.
    FusionNeedsOptimizedSync,
    /// PE failures or the load balancer armed with checkpointing off.
    MigrationNeedsCheckpoints,
    /// PE failures or the load balancer armed on GPU-aware communication.
    MigrationNeedsHostStaging,
    /// An MPI version asked for more than one block per PE.
    MpiOdf,
    /// An MPI version with PE failures or the load balancer armed.
    MpiMigration,
}

impl From<gaat_rt::ConfigError> for ConfigError {
    fn from(e: gaat_rt::ConfigError) -> Self {
        ConfigError::Machine(e)
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            ConfigError::Machine(e) => return e.fmt(f),
            ConfigError::ZeroOdf => "ODF must be at least 1",
            ConfigError::ZeroRanks => "need at least one rank per PE",
            ConfigError::ZeroIters => "need at least one timed iteration",
            ConfigError::CommPriorityOutOfRange(p) => {
                return write!(
                    f,
                    "comm_priority is {p}, but streams have {} priority classes",
                    gaat_gpu::PRIORITY_CLASSES
                )
            }
            ConfigError::FusionNeedsGpuAware => {
                "fusion/graphs are only used with GPU-aware communication"
            }
            ConfigError::FusionNeedsOptimizedSync => {
                "fusion/graphs build on the optimized implementation"
            }
            ConfigError::MigrationNeedsCheckpoints => {
                "PE failures or the adaptive LB are armed but checkpointing is off"
            }
            ConfigError::MigrationNeedsHostStaging => {
                "PE failures or the adaptive LB need host-staging communication: a migrated \
                 block cannot rebuild its channels or graphs"
            }
            ConfigError::MpiOdf => {
                "the MPI versions always run one rank per PE (use the task runtime for ODF > 1, \
                 or virtual_ranks for AMPI-style virtualization)"
            }
            ConfigError::MpiMigration => {
                "the MPI versions cannot move ranks: PE failures and the adaptive LB need the \
                 task runtime's recovery"
            }
        };
        f.write_str(msg)
    }
}

// `Display` already prints a wrapped machine error's text, so there is
// no `source` to chain.
impl std::error::Error for ConfigError {}

/// Result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Mean time per timed iteration (the paper's y-axis).
    pub time_per_iter: SimDuration,
    /// End-to-end simulated time.
    pub total: SimDuration,
    /// Time at which every block had finished warm-up.
    pub warm_at: SimTime,
    /// Sum of squares of the final field (validation fingerprint); `None`
    /// in phantom mode.
    pub checksum: Option<f64>,
    /// Global squared norm obtained through the runtime's reduction tree
    /// (`compute_norm`); `None` when not requested.
    pub reduced_norm: Option<f64>,
    /// Entry methods executed.
    pub entries: u64,
    /// Kernels launched via streams.
    pub kernels: u64,
    /// Graph launches.
    pub graph_launches: u64,
    /// Mean CPU utilization across PEs over the run.
    pub cpu_utilization: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_paper_combos() {
        let mut c = JacobiConfig::new(MachineConfig::validation(1, 2), Dims::cube(12));
        assert!(c.validate().is_ok());
        c.comm = CommMode::GpuAware;
        c.fusion = Fusion::C;
        c.graphs = true;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn fusion_requires_gpu_aware() {
        let mut c = JacobiConfig::new(MachineConfig::validation(1, 2), Dims::cube(12));
        c.comm = CommMode::HostStaging;
        c.fusion = Fusion::A;
        let e = c.validate().unwrap_err();
        assert_eq!(e, ConfigError::FusionNeedsGpuAware);
        assert!(e.to_string().contains("GPU-aware"));
    }

    #[test]
    fn graphs_require_optimized_sync() {
        let mut c = JacobiConfig::new(MachineConfig::validation(1, 2), Dims::cube(12));
        c.sync = SyncMode::Original;
        c.graphs = true;
        let e = c.validate().unwrap_err();
        assert_eq!(e, ConfigError::FusionNeedsOptimizedSync);
        assert!(e.to_string().contains("optimized"));
    }

    #[test]
    fn fusion_deferral() {
        assert!(!Fusion::None.defers_unpack());
        assert!(!Fusion::A.defers_unpack());
        assert!(Fusion::B.defers_unpack());
        assert!(Fusion::C.defers_unpack());
    }
}
