//! Prefix-tree analysis of a scenario list: which scenarios can share
//! one executed prefix, and where that prefix ends.
//!
//! Two scenarios may share a prefix when their worlds are bit-identical
//! up to some virtual instant `T` and diverge only through state that
//! can be swapped in *after* a [`gaat_rt::Simulation::restore`] without
//! arming or cancelling events. The late-divergent state is exactly the
//! stochastic half of the fault plan:
//!
//! - `drop_prob` / `corrupt_prob` — fate draws are pure hashes gated by
//!   [`gaat_sim::FaultPlan::lossy_at`], so before the onset they are
//!   behaviourally invisible whatever their value;
//! - `onset` itself — scenarios with different onsets share the prefix
//!   up to the *earliest* lossy onset in the group;
//! - the fault `seed` — but only with the reliable transport **off**:
//!   with retries on the seed also feeds ack-timeout backoff jitter from
//!   `t = 0`, which makes it prefix-visible, so the planner keeps
//!   differing-seed scenarios apart in that case.
//!
//! Everything else — machine shape, workload, ODF, placement, machine
//! seed, retries toggle, and the *time-triggered* fault sources (link
//! faults, PE failures, straggler windows), which are armed as build
//! time events — must be identical within a group.
//!
//! The planner is conservative by construction: a scenario that cannot
//! prove membership in a group runs standalone, which degrades exactly
//! to the pre-fork executor. Runtime declines (a world that refuses to
//! snapshot, e.g. a pending boxed closure) degrade the same way.

use gaat_sim::SimTime;

use crate::grid::{Scenario, Workload};

/// Counters describing what the prefix-tree executor actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForkStats {
    /// Prefix groups planned with at least two members.
    pub groups: usize,
    /// World snapshots actually taken (one per group that forked).
    pub snapshots_taken: usize,
    /// Scenarios executed from a restored snapshot rather than from
    /// `t = 0` (group members beyond the first).
    pub scenarios_forked: usize,
    /// Group members that fell back to standalone execution because the
    /// world declined to snapshot at run time.
    pub declined: usize,
    /// Host nanoseconds spent taking snapshots.
    pub snapshot_ns: u64,
    /// Host nanoseconds spent restoring snapshots.
    pub restore_ns: u64,
}

impl ForkStats {
    /// Fold another worker's counters into this one.
    pub fn merge(&mut self, o: &ForkStats) {
        self.groups += o.groups;
        self.snapshots_taken += o.snapshots_taken;
        self.scenarios_forked += o.scenarios_forked;
        self.declined += o.declined;
        self.snapshot_ns += o.snapshot_ns;
        self.restore_ns += o.restore_ns;
    }
}

/// One schedulable work item: either a standalone scenario or a prefix
/// group that runs its shared prefix once and forks at `divergence`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Unit {
    /// Run `scenarios[i]` from scratch (the pre-fork path).
    Single(usize),
    /// Run the members' shared prefix once under the first member's
    /// config, snapshot just before `divergence`, and finish each
    /// member from the snapshot with its own stochastic fault plan.
    Group {
        /// Positions into the scenario slice, in index order; the first
        /// member's config drives the shared prefix.
        members: Vec<usize>,
        /// Earliest instant at which any member's behaviour can depend
        /// on its late-divergent fields (the minimum lossy onset).
        /// Always `> 0`.
        divergence: SimTime,
    },
}

impl Unit {
    /// Member positions and fork point. A single scenario is a group of
    /// one with no fork point.
    pub(crate) fn members(&self) -> (&[usize], Option<SimTime>) {
        match self {
            Unit::Single(i) => (std::slice::from_ref(i), None),
            Unit::Group {
                members,
                divergence,
            } => (members, Some(*divergence)),
        }
    }
}

/// The group identity: everything that must be bit-identical for two
/// scenarios to share an executed prefix.
struct Key {
    workload: Workload,
    odf: usize,
    placement: gaat_jacobi3d::Placement,
    machine: gaat_rt::MachineConfig,
}

fn key_of(sc: &Scenario) -> Key {
    let mut machine = sc.machine.clone();
    // Normalize the late-divergent fields away; whatever remains must
    // match exactly (PartialEq over the whole MachineConfig).
    machine.faults.drop_prob = 0.0;
    machine.faults.corrupt_prob = 0.0;
    machine.faults.onset = SimTime::ZERO;
    if !machine.ucx.reliability.enabled {
        // Retries off: the fault seed feeds only the onset-gated fate
        // draws, so it is late-divergent too.
        machine.faults.seed = 0;
    }
    Key {
        workload: sc.workload,
        odf: sc.odf,
        placement: sc.placement,
        machine,
    }
}

fn key_eq(a: &Key, b: &Key) -> bool {
    a.workload == b.workload
        && a.odf == b.odf
        && a.placement == b.placement
        && a.machine == b.machine
}

/// Analyze `scenarios` (skipping positions where `skip` is set, e.g.
/// already-completed work on a resumed sweep) into an ordered unit
/// list. With `fork` off every scenario becomes a [`Unit::Single`],
/// reproducing the pre-fork executor exactly.
pub(crate) fn plan(scenarios: &[Scenario], fork: bool, skip: &[bool]) -> Vec<Unit> {
    let live = |i: usize| !skip.get(i).copied().unwrap_or(false);
    if !fork {
        return (0..scenarios.len())
            .filter(|&i| live(i))
            .map(Unit::Single)
            .collect();
    }
    // Proto-groups keyed by normalized config, in first-appearance
    // order (a pure function of the scenario list, so the unit list —
    // and with it every downstream fingerprint — is independent of
    // worker count and dequeue order).
    let mut keys: Vec<Key> = Vec::new();
    let mut protos: Vec<Vec<usize>> = Vec::new();
    for (i, sc) in scenarios.iter().enumerate() {
        if !live(i) {
            continue;
        }
        let k = key_of(sc);
        match keys.iter().position(|e| key_eq(e, &k)) {
            Some(p) => protos[p].push(i),
            None => {
                keys.push(k);
                protos.push(vec![i]);
            }
        }
    }

    let mut out = Vec::new();
    for members in protos {
        // A lossy member whose draws are active from t = 0 shares no
        // prefix with anyone; peel it off as a single.
        let (zeros, rest): (Vec<usize>, Vec<usize>) = members.into_iter().partition(|&i| {
            let f = &scenarios[i].machine.faults;
            f.lossy() && f.onset == SimTime::ZERO
        });
        out.extend(zeros.into_iter().map(Unit::Single));
        // The group forks at the earliest instant any member's late
        // fields become observable. Members that are not lossy at all
        // never observe them, so any divergence time is sound for them.
        let divergence = rest
            .iter()
            .filter(|&&i| scenarios[i].machine.faults.lossy())
            .map(|&i| scenarios[i].machine.faults.onset)
            .min();
        match divergence {
            Some(t) if rest.len() >= 2 => out.push(Unit::Group {
                members: rest,
                divergence: t,
            }),
            // No lossy member: the members are behaviourally identical
            // but nothing forces a fork point; run them standalone.
            // One member: nothing to share.
            _ => out.extend(rest.into_iter().map(Unit::Single)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ScenarioGrid;
    use gaat_jacobi3d::{CommMode, Dims};
    use gaat_rt::MachineConfig;
    use gaat_sim::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_us(us)
    }

    fn jacobi_grid() -> ScenarioGrid {
        let mut machine = MachineConfig::validation(2, 2);
        machine.faults.seed = 42;
        let mut grid = ScenarioGrid::new(machine);
        grid.workloads.push(Workload::Jacobi {
            global: Dims::cube(8),
            iters: 3,
            warmup: 1,
            comm: CommMode::HostStaging,
        });
        grid
    }

    #[test]
    fn drop_axis_with_onset_forms_one_group() {
        let mut grid = jacobi_grid();
        grid.drop_rates = vec![0.0, 0.05, 0.1];
        grid.fault_onsets = vec![t(40)];
        grid.retries = vec![true];
        let scs = grid.expand();
        let units = plan(&scs, true, &vec![false; scs.len()]);
        assert_eq!(
            units,
            vec![Unit::Group {
                members: vec![0, 1, 2],
                divergence: t(40),
            }]
        );
    }

    #[test]
    fn onset_axis_forks_at_the_earliest_onset() {
        let mut grid = jacobi_grid();
        grid.drop_rates = vec![0.1];
        grid.fault_onsets = vec![t(40), t(80), t(120)];
        let scs = grid.expand();
        let units = plan(&scs, true, &vec![false; scs.len()]);
        assert_eq!(
            units,
            vec![Unit::Group {
                members: vec![0, 1, 2],
                divergence: t(40),
            }]
        );
    }

    #[test]
    fn zero_onset_lossy_scenarios_run_standalone() {
        let mut grid = jacobi_grid();
        grid.drop_rates = vec![0.1];
        grid.fault_onsets = vec![SimTime::ZERO, t(40), t(80)];
        let scs = grid.expand();
        let units = plan(&scs, true, &vec![false; scs.len()]);
        assert_eq!(
            units,
            vec![
                Unit::Single(0),
                Unit::Group {
                    members: vec![1, 2],
                    divergence: t(40),
                }
            ]
        );
    }

    #[test]
    fn fault_seed_is_late_only_with_retries_off() {
        let mut grid = jacobi_grid();
        grid.drop_rates = vec![0.1];
        grid.fault_onsets = vec![t(40)];
        grid.fault_seeds = vec![1, 2];
        grid.retries = vec![false];
        let scs = grid.expand();
        let units = plan(&scs, true, &vec![false; scs.len()]);
        assert_eq!(units.len(), 1, "retries off: seeds share one group");

        grid.retries = vec![true];
        let scs = grid.expand();
        let units = plan(&scs, true, &vec![false; scs.len()]);
        assert_eq!(
            units.len(),
            2,
            "retries on: the seed feeds backoff jitter from t=0, no sharing"
        );
    }

    #[test]
    fn machine_seed_and_odf_split_groups() {
        let mut grid = jacobi_grid();
        grid.drop_rates = vec![0.0, 0.1];
        grid.fault_onsets = vec![t(40)];
        grid.seeds = vec![1, 2];
        grid.odfs = vec![1, 2];
        let scs = grid.expand();
        assert_eq!(scs.len(), 8);
        let units = plan(&scs, true, &vec![false; scs.len()]);
        assert_eq!(units.len(), 4, "one group per (odf, seed)");
        for u in &units {
            match u {
                Unit::Group { members, .. } => assert_eq!(members.len(), 2),
                other => panic!("expected groups only, got {other:?}"),
            }
        }
    }

    #[test]
    fn no_lossy_member_means_no_group() {
        let mut grid = jacobi_grid();
        grid.drop_rates = vec![0.0];
        grid.fault_onsets = vec![t(40), t(80)];
        let scs = grid.expand();
        let units = plan(&scs, true, &vec![false; scs.len()]);
        assert!(units.iter().all(|u| matches!(u, Unit::Single(_))));
    }

    #[test]
    fn fork_off_and_skips_degrade_to_singles() {
        let mut grid = jacobi_grid();
        grid.drop_rates = vec![0.0, 0.1];
        grid.fault_onsets = vec![t(40)];
        let scs = grid.expand();
        let units = plan(&scs, false, &vec![false; scs.len()]);
        assert_eq!(units, vec![Unit::Single(0), Unit::Single(1)]);
        // A completed member shrinks its group below the fork threshold.
        let units = plan(&scs, true, &[true, false]);
        assert_eq!(units, vec![Unit::Single(1)]);
    }
}
