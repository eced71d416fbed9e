//! Declarative scenario grids and their expansion into request lists.
//!
//! A [`ScenarioGrid`] is a template machine plus explicit axes (seed ×
//! ODF × topology × placement × fault plan × workload);
//! [`ScenarioGrid::expand`] multiplies the axes out, applies the grid's
//! filter, and assigns each surviving [`Scenario`] a stable index. The index — not the dequeue
//! order — names the scenario everywhere downstream, which is what lets
//! per-scenario outcomes stay independent of worker count.

use gaat_dptrain::{MoeConfig, TrainConfig};
use gaat_jacobi3d::{CommMode, Dims, JacobiConfig, Placement};
use gaat_net::TopologyKind;
use gaat_rt::{LbPolicy, MachineConfig};
use gaat_sim::SimTime;
use gaat_sweep3d::SweepConfig;

/// Which application a scenario runs. Workload parameters that are not
/// grid axes (problem size, iteration counts) ride along inside the
/// variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Charm-style Jacobi3D halo exchange.
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
                                                    odf,
                                                    placement,
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

/// One fully resolved simulation request: the workload, the two axis
/// values that are not machine fields, and the machine config the other
/// axes resolve into. Cheap to clone; everything a worker needs to run
/// the scenario from scratch.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable position in the expanded grid (assigned post-filter).
    pub index: usize,
    /// Application and its non-axis parameters.
    pub workload: Workload,
    /// Overdecomposition factor.
    pub odf: usize,
    /// Chare placement (Jacobi).
    pub placement: Placement,
    /// The resolved machine config: the template with the seed,
    /// topology, drop rate, fault onset, fault seed, retries and LB
    /// policy axes applied (the LB policy takes effect only when the
    /// template's `lb.period` is non-zero).
    pub machine: MachineConfig,
}

impl Scenario {
    /// Human-readable identity, unique within a grid.
    pub fn label(&self) -> String {
        format!(
            "{} seed={} {}",
            self.workload.name(),
            self.machine.seed,
            self.group_suffix()
        )
    }

    /// Group key: the label minus the seed axis, for aggregation over
    /// seeds.
    pub fn group(&self) -> String {
        format!("{} {}", self.workload.name(), self.group_suffix())
    }

    fn group_suffix(&self) -> String {
        let m = &self.machine;
        let topo = match m.net.topology {
            TopologyKind::Flat => "flat",
            TopologyKind::FatTree(_) => "fattree",
        };
        let place = match self.placement {
            Placement::Packed => "packed",
            Placement::RoundRobin => "rr",
        };
        let retries = if m.ucx.reliability.enabled {
            "on"
        } else {
            "off"
        };
        let mut s = format!(
            "{topo} {place} odf={} drop={:.2} retries={retries}",
            self.odf, m.faults.drop_prob
        );
        // Fault onset/seed only widen the identity when the axes are in
        // play, so labels of pre-existing grids are unchanged.
        if m.faults.onset != SimTime::ZERO {
            s.push_str(&format!(" onset={}ns", m.faults.onset.as_ns()));
        }
        if m.faults.seed != 0 {
            s.push_str(&format!(" fseed={}", m.faults.seed));
        }
        // Only widens the identity when the LB axis is in play, so
        // labels of pre-existing grids are unchanged.
        if m.lb.policy != LbPolicy::Off {
            let p = match m.lb.policy {
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
                // PE-failure recovery and the LB both restore from
                // checkpoints, so either one needs checkpoints on.
                if cfg.machine.migrates() {
                    cfg.checkpoint_every = 1;
                }
                cfg
            }
            other => panic!("not a Jacobi scenario: {other:?}"),
        }
    }

    /// The Sweep3D config this scenario denotes (panics for other
    /// workloads).
    pub fn sweep3d_config(&self) -> SweepConfig {
        match self.workload {
            Workload::Sweep3d {
                global,
                sweeps,
                warmup,
            } => {
                let mut cfg = SweepConfig::new(self.machine.clone(), global);
                cfg.odf = self.odf;
                cfg.sweeps = sweeps;
                cfg.warmup = warmup;
                cfg
            }
            other => panic!("not a Sweep3D scenario: {other:?}"),
        }
    }

    /// The training config this scenario denotes (panics for other
    /// workloads).
    pub fn train_config(&self) -> TrainConfig {
        match self.workload {
            Workload::Train { params, steps } => {
                let mut cfg = TrainConfig::new(self.machine.clone(), params);
                cfg.steps = steps;
                cfg
            }
            other => panic!("not a training scenario: {other:?}"),
        }
    }

    /// The MoE config this scenario denotes (panics for other
    /// workloads).
    pub fn moe_config(&self) -> MoeConfig {
        match self.workload {
            Workload::Moe {
                tokens,
                hidden,
                rounds,
            } => {
                let mut cfg = MoeConfig::new(self.machine.clone(), tokens, hidden);
                cfg.rounds = rounds;
                cfg
            }
            other => panic!("not a MoE scenario: {other:?}"),
        }
    }
}
