//! Declarative scenario grids and their expansion into request lists.
//!
//! A [`ScenarioGrid`] is a template machine plus explicit axes (seed ×
//! ODF × topology × placement × fault plan × workload);
//! [`ScenarioGrid::expand`] multiplies the axes out, applies the grid's
//! filter, and assigns each surviving [`Scenario`] a stable index. The index — not the dequeue
//! order — names the scenario everywhere downstream, which is what lets
//! per-scenario outcomes stay independent of worker count.

use gaat_jacobi3d::{CommMode, Dims, JacobiConfig, Placement};
use gaat_net::TopologyKind;
use gaat_rt::{LbPolicy, MachineConfig};
use gaat_sim::SimTime;

/// Which application a scenario runs. Workload parameters that are not
/// grid axes (problem size, iteration counts) ride along inside the
/// variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Charm-style Jacobi3D halo exchange (stall-tolerant under loss
    /// with retries off).
    Jacobi {
        /// Global grid.
        global: Dims,
        /// Timed iterations.
        iters: usize,
        /// Warm-up iterations.
        warmup: usize,
        /// Halo transport mode.
        comm: CommMode,
    },
    /// KBA wavefront sweep.
    Sweep3d {
        /// Global grid.
        global: Dims,
        /// Timed sweeps.
        sweeps: usize,
        /// Warm-up sweeps.
        warmup: usize,
    },
    /// Data-parallel training proxy (bucketed gradient allreduce).
    Train {
        /// Gradient elements per replica.
        params: usize,
        /// Timed steps.
        steps: usize,
    },
    /// Skew-routed MoE alltoall proxy.
    Moe {
        /// Tokens per rank.
        tokens: usize,
        /// Elements per token.
        hidden: usize,
        /// Timed rounds.
        rounds: usize,
    },
}

impl Workload {
    /// Short name for labels and records.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Jacobi { .. } => "jacobi",
            Workload::Sweep3d { .. } => "sweep3d",
            Workload::Train { .. } => "train",
            Workload::Moe { .. } => "moe",
        }
    }
}

/// A declarative sweep: one template machine and the axes to multiply
/// out. Empty axis vectors are treated as "keep the template's value"
/// (a single-element axis).
#[derive(Clone)]
pub struct ScenarioGrid {
    /// Template machine; every scenario clones it and then applies its
    /// axis values (seed, topology, drop rate, retries).
    pub machine: MachineConfig,
    /// Applications to run.
    pub workloads: Vec<Workload>,
    /// Machine seeds (jitter and fault-fate salt derivation).
    pub seeds: Vec<u64>,
    /// Overdecomposition factors (Jacobi and Sweep3d; ignored by the
    /// ML proxies, which are one chare per PE).
    pub odfs: Vec<usize>,
    /// Chare placements (Jacobi only).
    pub placements: Vec<Placement>,
    /// Interconnect models.
    pub topologies: Vec<TopologyKind>,
    /// Stochastic message-drop probabilities (fault plan).
    pub drop_rates: Vec<f64>,
    /// Fault-onset instants: the stochastic drop/corrupt draws are
    /// suppressed before this time. A non-zero onset is what lets the
    /// fork-aware executor share one executed prefix across every
    /// scenario that agrees up to its earliest onset.
    pub fault_onsets: Vec<SimTime>,
    /// Fault-plan seeds (the hash salt behind per-message fate draws).
    /// A late axis only with retries off; with the reliable transport
    /// on the seed also feeds retry-backoff jitter from `t = 0`, so the
    /// planner keeps differing-seed scenarios in separate prefix groups.
    pub fault_seeds: Vec<u64>,
    /// Reliable-transport switch values.
    pub retries: Vec<bool>,
    /// Load-balancer policies. Each value overwrites the template's
    /// `machine.lb.policy`; the template supplies period / budget /
    /// hysteresis (a non-`Off` policy with a zero template period
    /// stays disabled — set `machine.lb.period` on the template).
    pub lb_policies: Vec<LbPolicy>,
    /// Keep only scenarios this predicate accepts (e.g. skip
    /// retries-off at zero loss). `None` keeps everything.
    pub filter: Option<fn(&Scenario) -> bool>,
}

impl ScenarioGrid {
    /// A grid over `machine` with every axis pinned to the template's
    /// value; push onto the axis vectors to widen it.
    pub fn new(machine: MachineConfig) -> Self {
        ScenarioGrid {
            machine,
            workloads: Vec::new(),
            seeds: Vec::new(),
            odfs: Vec::new(),
            placements: Vec::new(),
            topologies: Vec::new(),
            drop_rates: Vec::new(),
            fault_onsets: Vec::new(),
            fault_seeds: Vec::new(),
            retries: Vec::new(),
            lb_policies: Vec::new(),
            filter: None,
        }
    }

    /// Multiply the axes out into an indexed scenario list. Axis
    /// nesting order (outer to inner): workload, topology, placement,
    /// ODF, drop rate, fault onset, fault seed, retries, LB policy,
    /// seed. The order — and therefore every scenario's index —
    /// depends only on the grid, never on how the queue is later
    /// drained.
    pub fn expand(&self) -> Vec<Scenario> {
        assert!(
            !self.workloads.is_empty(),
            "grid needs at least one workload"
        );
        let seeds = non_empty(&self.seeds, self.machine.seed);
        let odfs = non_empty(&self.odfs, 1);
        let placements = non_empty(&self.placements, Placement::Packed);
        let topologies = non_empty(&self.topologies, self.machine.net.topology);
        let drops = non_empty(&self.drop_rates, self.machine.faults.drop_prob);
        let onsets = non_empty(&self.fault_onsets, self.machine.faults.onset);
        let fault_seeds = non_empty(&self.fault_seeds, self.machine.faults.seed);
        let retries = non_empty(&self.retries, self.machine.ucx.reliability.enabled);
        let lb_policies = non_empty(&self.lb_policies, self.machine.lb.policy);

        let mut out = Vec::new();
        for &workload in &self.workloads {
            for &topology in &topologies {
                for &placement in &placements {
                    for &odf in &odfs {
                        for &drop_rate in &drops {
                            for &fault_onset in &onsets {
                                for &fault_seed in &fault_seeds {
                                    for &retry in &retries {
                                        for &lb_policy in &lb_policies {
                                            for &seed in &seeds {
                                                let mut machine = self.machine.clone();
                                                machine.seed = seed;
                                                machine.net.topology = topology;
                                                machine.faults.drop_prob = drop_rate;
                                                machine.faults.onset = fault_onset;
                                                machine.faults.seed = fault_seed;
                                                machine.ucx.reliability.enabled = retry;
                                                machine.lb.policy = lb_policy;
                                                let sc = Scenario {
                                                    index: out.len(),
                                                    workload,
                                                    seed,
                                                    odf,
                                                    placement,
                                                    topology,
                                                    drop_rate,
                                                    fault_onset,
                                                    fault_seed,
                                                    retries: retry,
                                                    lb_policy,
                                                    machine,
                                                };
                                                if self.filter.is_none_or(|f| f(&sc)) {
                                                    out.push(sc);
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

fn non_empty<T: Copy>(axis: &[T], default: T) -> Vec<T> {
    if axis.is_empty() {
        vec![default]
    } else {
        axis.to_vec()
    }
}

/// One fully resolved simulation request: the axis values plus the
/// machine config they produce. Cheap to clone; everything a worker
/// needs to run the scenario from scratch.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable position in the expanded grid (assigned post-filter).
    pub index: usize,
    /// Application and its non-axis parameters.
    pub workload: Workload,
    /// Machine seed.
    pub seed: u64,
    /// Overdecomposition factor.
    pub odf: usize,
    /// Chare placement (Jacobi).
    pub placement: Placement,
    /// Interconnect model.
    pub topology: TopologyKind,
    /// Message-drop probability.
    pub drop_rate: f64,
    /// Instant before which the stochastic fault draws are suppressed.
    pub fault_onset: SimTime,
    /// Fault-plan seed (fate-draw hash salt).
    pub fault_seed: u64,
    /// Reliable transport on/off.
    pub retries: bool,
    /// Load-balancer policy (effective only when the template's
    /// `machine.lb.period` is non-zero).
    pub lb_policy: LbPolicy,
    /// The resolved machine config (template + axis values).
    pub machine: MachineConfig,
}

impl Scenario {
    /// Human-readable identity, unique within a grid.
    pub fn label(&self) -> String {
        format!(
            "{} seed={} {}",
            self.workload.name(),
            self.seed,
            self.group_suffix()
        )
    }

    /// Group key: the label minus the seed axis, for aggregation over
    /// seeds.
    pub fn group(&self) -> String {
        format!("{} {}", self.workload.name(), self.group_suffix())
    }

    fn group_suffix(&self) -> String {
        let topo = match self.topology {
            TopologyKind::Flat => "flat",
            TopologyKind::FatTree(_) => "fattree",
        };
        let place = match self.placement {
            Placement::Packed => "packed",
            Placement::RoundRobin => "rr",
        };
        let mut s = format!(
            "{topo} {place} odf={} drop={:.2} retries={}",
            self.odf,
            self.drop_rate,
            if self.retries { "on" } else { "off" }
        );
        // Fault onset/seed only widen the identity when the axes are in
        // play, so labels of pre-existing grids are unchanged.
        if self.fault_onset != SimTime::ZERO {
            s.push_str(&format!(" onset={}ns", self.fault_onset.as_ns()));
        }
        if self.fault_seed != 0 {
            s.push_str(&format!(" fseed={}", self.fault_seed));
        }
        // Only widens the identity when the LB axis is in play, so
        // labels of pre-existing grids are unchanged.
        if self.lb_policy != LbPolicy::Off {
            let p = match self.lb_policy {
                LbPolicy::Off => unreachable!(),
                LbPolicy::Greedy => "greedy",
                LbPolicy::Adaptive => "adaptive",
            };
            s.push_str(&format!(" lb={p}"));
        }
        s
    }

    /// The Jacobi config this scenario denotes (panics for other
    /// workloads).
    pub fn jacobi_config(&self) -> JacobiConfig {
        match self.workload {
            Workload::Jacobi {
                global,
                iters,
                warmup,
                comm,
            } => {
                let mut cfg = JacobiConfig::new(self.machine.clone(), global);
                cfg.comm = comm;
                cfg.iters = iters;
                cfg.warmup = warmup;
                cfg.odf = self.odf;
                cfg.placement = self.placement;
                // The LB migrates through the checkpoint/restore path,
                // so an armed balancer needs checkpoints on.
                if self.machine.lb.enabled() {
                    cfg.checkpoint_every = 1;
                }
                cfg
            }
            other => panic!("not a Jacobi scenario: {other:?}"),
        }
    }
}
