//! Load balancing — the runtime adaptivity that overdecomposition
//! enables (one of the paper's motivations for tolerating ODF overheads).
//!
//! Two planners live here:
//!
//! - [`greedy_rebalance`] — the classic Charm++ GreedyLB strategy:
//!   reassign the heaviest chares first onto the least-loaded PEs
//!   (`lpt_place`, which PE-failure recovery also uses to re-place a
//!   dead PE's chares), applied only when the LPT plan strictly
//!   improves the makespan. Callers invoke it at phase boundaries.
//! - [`periodic_plan`] — the closed-loop planner behind the machine's
//!   periodic LB tick (`MachineConfig::lb`). It scores *incremental*
//!   migrations from live sensor inputs ([`LbSensors`]): per-chare EWMA
//!   load meters, per-PE straggler slowdown factors, per-chare
//!   communication bytes, and a fabric-distress flag. Up to
//!   `LbConfig::budget` single-chare moves are accepted, each only if
//!   it strictly lowers the projected makespan; the whole plan is then
//!   gated behind `LbConfig::hysteresis_pct`. The same never-degrade
//!   contract as `greedy_rebalance`, extended with comm affinity:
//!   among destinations whose projected load is within a slack band of
//!   the minimum, the planner prefers the node holding the chare's
//!   heaviest communication partners — and fabric distress (a hot or
//!   degraded link, retransmits) widens the band, trading perfect
//!   compute balance for less inter-node traffic over hot spines.
//!
//! Every choice breaks ties deterministically (lowest PE index, lowest
//! chare id), so a plan is a pure function of its sensor inputs and the
//! balancer replays bit-identically at a fixed seed.

use crate::config::LbConfig;
use crate::machine::Machine;
use crate::msg::ChareId;

/// Sensor block the machine gathers for one periodic LB round. All
/// slices are indexed by chare id except `pe_slow`, `alive`, and
/// `node_of`, which are indexed by PE.
pub struct LbSensors<'a> {
    /// Current PE of each chare.
    pub pe_of: &'a [usize],
    /// Per-chare EWMA load meter (CPU charge + estimated kernel/DMA ns
    /// per LB period).
    pub base_ns: &'a [u64],
    /// Per-PE straggler slowdown factor currently in effect (≥ 1; a
    /// chare's projected cost on PE `p` is `base_ns × pe_slow[p]`).
    pub pe_slow: &'a [f64],
    /// Per-PE liveness (failed PEs are never migration targets).
    pub alive: &'a [bool],
    /// Per-chare communication partners: `(partner chare, bytes sent)`.
    pub affinity: &'a [Vec<(usize, u64)>],
    /// Node of each PE (comm affinity is scored at node granularity:
    /// colocating partners on one node takes their traffic off the
    /// inter-node links entirely).
    pub node_of: &'a [usize],
    /// Fabric distress (hot link, retransmits, failovers): widens the
    /// affinity slack band so colocation can win over perfect balance.
    pub distressed: bool,
}

/// A scored migration proposal from [`periodic_plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LbPlan {
    /// Moves to execute, in decision order: `(chare, destination PE)`.
    pub moves: Vec<(ChareId, usize)>,
    /// Projected makespan of the current placement, in ns.
    pub max_before_ns: u64,
    /// Projected makespan after the moves, in ns (strictly lower).
    pub max_after_ns: u64,
}

/// Score up to `cfg.budget` incremental migrations from live sensors.
/// Returns `None` when no plan clears the never-degrade + hysteresis
/// bar — every returned plan satisfies
/// `max_after_ns < max_before_ns`, improves by at least
/// `cfg.hysteresis_pct` percent, and holds `moves.len() ≤ cfg.budget`.
pub fn periodic_plan(s: &LbSensors<'_>, cfg: &LbConfig) -> Option<LbPlan> {
    let n_pes = s.pe_slow.len();
    let n = s.base_ns.len();
    if n == 0 || n_pes < 2 || cfg.budget == 0 {
        return None;
    }
    // Projected cost of chare `c` on PE `p`: the EWMA meter stretched by
    // the PE's active straggler window. f64 multiply + round is IEEE-
    // deterministic, so plans replay bit-identically.
    let cost = |c: usize, p: usize| -> u64 { (s.base_ns[c] as f64 * s.pe_slow[p]).round() as u64 };
    let mut pe_of: Vec<usize> = s.pe_of.to_vec();
    let mut load = vec![0u64; n_pes];
    for c in 0..n {
        load[pe_of[c]] += cost(c, pe_of[c]);
    }
    let max_before = load.iter().copied().max().unwrap_or(0);
    if max_before == 0 {
        return None;
    }
    // Affinity slack band: a destination qualifies if its projected
    // load is within `num/den` of the best destination's. Distress
    // widens the band — colocating chatter matters more than the last
    // few percent of compute balance when a spine is hot or degraded.
    let (slack_num, slack_den): (u64, u64) = if s.distressed { (110, 100) } else { (102, 100) };
    // Bytes chare `c` exchanges with partners resident on PE `p`'s node
    // under the (virtual) placement `pe_of`.
    let node_aff = |c: usize, p: usize, pe_of: &[usize]| -> u64 {
        s.affinity[c]
            .iter()
            .filter(|&&(partner, _)| partner != c && s.node_of[pe_of[partner]] == s.node_of[p])
            .map(|&(_, b)| b)
            .sum()
    };
    let mut moved = vec![false; n];
    let mut moves: Vec<(ChareId, usize)> = Vec::new();
    let mut cur_max = max_before;
    'rounds: while moves.len() < cfg.budget {
        // Most-loaded live PE (tie: lowest index).
        let (src, _) = load
            .iter()
            .enumerate()
            .filter(|&(p, _)| s.alive[p])
            .max_by_key(|&(p, &l)| (l, std::cmp::Reverse(p)))?;
        // Try its chares heaviest-first (tie: lowest id) until one has
        // a destination that strictly lowers the global makespan.
        let mut residents: Vec<usize> = (0..n).filter(|&c| pe_of[c] == src && !moved[c]).collect();
        residents.sort_by_key(|&c| (std::cmp::Reverse(s.base_ns[c]), c));
        for c in residents {
            // Best destination by projected load (tie: lowest index).
            let min_after = (0..n_pes)
                .filter(|&p| s.alive[p] && p != src)
                .map(|p| load[p] + cost(c, p))
                .min();
            let Some(min_after) = min_after else {
                break 'rounds;
            };
            // Among destinations within the slack band, prefer the one
            // whose node holds the chare's heaviest partners, then the
            // lighter load, then the lower index.
            let dst = (0..n_pes)
                .filter(|&p| s.alive[p] && p != src)
                .filter_map(|p| {
                    let after = load[p] + cost(c, p);
                    (after.saturating_mul(slack_den) <= min_after.saturating_mul(slack_num))
                        .then_some((node_aff(c, p, &pe_of), std::cmp::Reverse(after), p))
                })
                .max_by_key(|&(aff, after, p)| (aff, after, std::cmp::Reverse(p)));
            let Some((_, _, dst)) = dst else {
                continue;
            };
            // Never-degrade: accept only if the move strictly lowers
            // the projected global makespan.
            let mut trial = load.clone();
            trial[src] -= cost(c, src);
            trial[dst] += cost(c, dst);
            let new_max = trial.iter().copied().max().unwrap_or(0);
            if new_max >= cur_max {
                continue;
            }
            load = trial;
            pe_of[c] = dst;
            moved[c] = true;
            moves.push((ChareId(c), dst));
            cur_max = new_max;
            continue 'rounds;
        }
        // No chare on the hottest PE has an improving move: converged.
        break;
    }
    if moves.is_empty() {
        return None;
    }
    let max_after = cur_max;
    // Hysteresis: ignore plans whose win is below the configured
    // fraction of the current makespan (migration is not free — a
    // rollback to the last checkpoint rides on every applied plan).
    let hyst = (cfg.hysteresis_pct as u64).min(100);
    if max_after.saturating_mul(100) > max_before.saturating_mul(100 - hyst) {
        return None;
    }
    Some(LbPlan {
        moves,
        max_before_ns: max_before,
        max_after_ns: max_after,
    })
}

/// Outcome of one rebalance pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Chares whose PE changed.
    pub migrations: usize,
    /// Max per-PE load before, in ns.
    pub max_before_ns: u64,
    /// Max per-PE load after (predicted), in ns.
    pub max_after_ns: u64,
}

/// Longest-processing-time placement, the rule behind
/// [`greedy_rebalance`] and PE-failure recovery: take `items`
/// (`(chare, load)`) heaviest first, ties to the lowest chare id, and
/// put each on the least-loaded PE `p` with `alive[p]`, ties to the
/// lowest index. `loads` holds each PE's starting load on entry and its
/// planned load on return. Returns `(chare, PE)` in placement order.
pub(crate) fn lpt_place(
    items: &[(ChareId, u64)],
    loads: &mut [u64],
    alive: &[bool],
) -> Vec<(ChareId, usize)> {
    let mut order = items.to_vec();
    order.sort_by_key(|&(c, l)| (std::cmp::Reverse(l), c));
    order
        .into_iter()
        .map(|(c, l)| {
            let target = (0..loads.len())
                .filter(|&p| alive[p])
                .min_by_key(|&p| (loads[p], p))
                .expect("a live PE to place on");
            loads[target] += l;
            (c, target)
        })
        .collect()
}

/// Greedily reassign `chares` across all PEs by descending measured load.
/// Returns what changed. Loads are the cumulative per-chare charged CPU
/// times since simulation start.
pub fn greedy_rebalance(m: &mut Machine, chares: &[ChareId]) -> RebalanceReport {
    let npes = m.pes.len();
    let loads: Vec<(ChareId, u64)> = chares.iter().map(|&c| (c, m.load_of(c).as_ns())).collect();
    let mut before = vec![0u64; npes];
    for &(c, l) in &loads {
        before[m.pe_of(c)] += l;
    }
    let max_before_ns = before.into_iter().max().unwrap_or(0);

    // Plan first, migrate second. LPT is a 4/3-approximation, not an
    // optimum: on an input that is already well placed it can *raise*
    // the makespan, so the plan is only applied when it strictly
    // improves on the current placement — rebalancing never degrades.
    let mut assigned = vec![0u64; npes];
    let plan = lpt_place(&loads, &mut assigned, &vec![true; npes]);
    let max_planned_ns = assigned.into_iter().max().unwrap_or(0);
    if max_planned_ns >= max_before_ns {
        return RebalanceReport {
            migrations: 0,
            max_before_ns,
            max_after_ns: max_before_ns,
        };
    }

    let mut migrations = 0;
    for (c, target) in plan {
        if m.pe_of(c) != target {
            m.migrate(c, target);
            migrations += 1;
        }
    }
    RebalanceReport {
        migrations,
        max_before_ns,
        max_after_ns: max_planned_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::machine::{Chare, Ctx};
    use crate::msg::Envelope;
    use gaat_sim::SimDuration;

    #[derive(Clone)]
    struct Dummy;
    impl Chare for Dummy {
        fn receive(&mut self, _ctx: &mut Ctx<'_>, _env: Envelope) {}
    }

    #[test]
    fn rebalance_spreads_skewed_load() {
        let mut m = Machine::new(MachineConfig::validation(1, 4));
        // 8 chares all crammed on PE 0 with loads 8,7,...,1 (ms).
        let mut chares = vec![];
        for i in 0..8u64 {
            let c = m.create_chare(0, Box::new(Dummy));
            // Inject synthetic load measurements.
            m.set_load_for_test(c, SimDuration::from_ms(8 - i));
            chares.push(c);
        }
        let report = greedy_rebalance(&mut m, &chares);
        assert!(report.migrations > 0);
        assert!(report.max_after_ns < report.max_before_ns);
        // Greedy on 8,7,..,1 over 4 PEs achieves the optimal makespan 9.
        assert_eq!(report.max_after_ns, 9_000_000);
        // Every PE got at least one chare.
        for pe in 0..4 {
            assert!(chares.iter().any(|&c| m.pe_of(c) == pe), "PE {pe} empty");
        }
    }

    #[test]
    fn lpt_place_skips_dead_pes_and_respects_seeded_loads() {
        // PE 1 is dead; PE 0 starts 5 ns behind PE 2.
        let items = [(ChareId(0), 4), (ChareId(1), 3), (ChareId(2), 2)];
        let mut loads = [5, 0, 0];
        let alive = [true, false, true];
        let plan = lpt_place(&items, &mut loads, &alive);
        // 4 -> PE 2 (0 < 5), 3 -> PE 2 (4 < 5), 2 -> PE 0 (5 < 7).
        assert_eq!(
            plan,
            vec![(ChareId(0), 2), (ChareId(1), 2), (ChareId(2), 0)]
        );
        assert_eq!(loads, [7, 0, 7]);
    }

    #[test]
    fn lpt_place_breaks_ties_by_lowest_pe_then_lowest_chare() {
        // Equal loads in scrambled id order: placed by ascending id,
        // each onto the lowest-index PE among the least loaded.
        let items = [(ChareId(3), 1), (ChareId(1), 1), (ChareId(2), 1)];
        let mut loads = [0, 0];
        let plan = lpt_place(&items, &mut loads, &[true, true]);
        assert_eq!(
            plan,
            vec![(ChareId(1), 0), (ChareId(2), 1), (ChareId(3), 0)]
        );
        assert_eq!(loads, [2, 1]);
    }

    #[test]
    fn balanced_load_needs_no_migration() {
        let mut m = Machine::new(MachineConfig::validation(1, 2));
        let a = m.create_chare(0, Box::new(Dummy));
        let b = m.create_chare(1, Box::new(Dummy));
        m.set_load_for_test(a, SimDuration::from_ms(5));
        m.set_load_for_test(b, SimDuration::from_ms(5));
        let report = greedy_rebalance(&mut m, &[a, b]);
        assert_eq!(report.migrations, 0);
        assert_eq!(report.max_before_ns, report.max_after_ns);
    }

    #[test]
    fn empty_chare_set_is_a_noop() {
        let mut m = Machine::new(MachineConfig::validation(1, 4));
        let report = greedy_rebalance(&mut m, &[]);
        assert_eq!(report.migrations, 0);
        assert_eq!(report.max_before_ns, 0);
        assert_eq!(report.max_after_ns, 0);
    }

    #[test]
    fn single_pe_cannot_migrate() {
        let mut m = Machine::new(MachineConfig::validation(1, 1));
        let mut chares = vec![];
        for i in 1..=4u64 {
            let c = m.create_chare(0, Box::new(Dummy));
            m.set_load_for_test(c, SimDuration::from_ms(i));
            chares.push(c);
        }
        let report = greedy_rebalance(&mut m, &chares);
        assert_eq!(report.migrations, 0);
        assert_eq!(report.max_before_ns, report.max_after_ns);
        assert_eq!(report.max_before_ns, 10_000_000);
    }

    fn flat_sensors<'a>(
        pe_of: &'a [usize],
        base: &'a [u64],
        slow: &'a [f64],
        alive: &'a [bool],
        affinity: &'a [Vec<(usize, u64)>],
        node_of: &'a [usize],
    ) -> LbSensors<'a> {
        LbSensors {
            pe_of,
            base_ns: base,
            pe_slow: slow,
            alive,
            affinity,
            node_of,
            distressed: false,
        }
    }

    #[test]
    fn periodic_plan_unloads_the_hot_pe() {
        let pe_of = [0, 0, 0, 0];
        let base = [4_000u64, 3_000, 2_000, 1_000];
        let slow = [1.0, 1.0];
        let alive = [true, true];
        let aff: Vec<Vec<(usize, u64)>> = vec![vec![]; 4];
        let node_of = [0, 0];
        let s = flat_sensors(&pe_of, &base, &slow, &alive, &aff, &node_of);
        let cfg = LbConfig {
            policy: crate::config::LbPolicy::Adaptive,
            period: SimDuration::from_us(10),
            budget: 4,
            hysteresis_pct: 5,
        };
        let plan = periodic_plan(&s, &cfg).expect("skewed load must plan");
        assert!(plan.max_after_ns < plan.max_before_ns);
        assert!(plan.moves.len() <= 4);
        assert_eq!(plan.max_before_ns, 10_000);
        // Optimal split is 5000/5000.
        assert_eq!(plan.max_after_ns, 5_000);
    }

    #[test]
    fn periodic_plan_respects_budget_and_hysteresis() {
        let pe_of = [0, 0, 0, 0];
        let base = [4_000u64, 3_000, 2_000, 1_000];
        let slow = [1.0, 1.0];
        let alive = [true, true];
        let aff: Vec<Vec<(usize, u64)>> = vec![vec![]; 4];
        let node_of = [0, 0];
        let s = flat_sensors(&pe_of, &base, &slow, &alive, &aff, &node_of);
        let mut cfg = LbConfig {
            policy: crate::config::LbPolicy::Adaptive,
            period: SimDuration::from_us(10),
            budget: 1,
            hysteresis_pct: 5,
        };
        let plan = periodic_plan(&s, &cfg).expect("one move still helps");
        assert_eq!(plan.moves.len(), 1);
        // An absurd hysteresis bar rejects every plan.
        cfg.hysteresis_pct = 90;
        cfg.budget = 4;
        assert_eq!(periodic_plan(&s, &cfg), None);
    }

    #[test]
    fn periodic_plan_avoids_straggling_pes() {
        // PE 1 is the only other PE but runs 10x slow: moving there
        // would raise the makespan, so the planner must stay put.
        let pe_of = [0, 0];
        let base = [4_000u64, 4_000];
        let slow = [1.0, 10.0];
        let alive = [true, true];
        let aff: Vec<Vec<(usize, u64)>> = vec![vec![]; 2];
        let node_of = [0, 0];
        let s = flat_sensors(&pe_of, &base, &slow, &alive, &aff, &node_of);
        let cfg = LbConfig {
            policy: crate::config::LbPolicy::Adaptive,
            period: SimDuration::from_us(10),
            budget: 4,
            hysteresis_pct: 0,
        };
        assert_eq!(periodic_plan(&s, &cfg), None);

        // Flip the straggler onto PE 0 and the same loads must move.
        let slow = [10.0, 1.0];
        let s = flat_sensors(&pe_of, &base, &slow, &alive, &aff, &node_of);
        let plan = periodic_plan(&s, &cfg).expect("escape the straggler");
        assert!(plan.moves.iter().all(|&(_, p)| p == 1));
    }

    #[test]
    fn periodic_plan_prefers_communication_partners_under_distress() {
        // Chares 0..3 sit on PE 0 (node 0). Chare 0 chats with chare 3,
        // which lives on node 1 (PE 2). Destinations PE 1 (node 0) and
        // PE 2 (node 1) are both empty; under distress the affinity
        // term must pull chare 0 toward its partner's node even though
        // both destinations project identical load.
        let pe_of = [0, 0, 0, 2];
        let base = [4_000u64, 3_000, 2_000, 100];
        let slow = [1.0, 1.0, 1.0];
        let alive = [true, true, true];
        let aff: Vec<Vec<(usize, u64)>> =
            vec![vec![(3, 1 << 20)], vec![], vec![], vec![(0, 1 << 20)]];
        let node_of = [0, 0, 1];
        let mut s = flat_sensors(&pe_of, &base, &slow, &alive, &aff, &node_of);
        s.distressed = true;
        let cfg = LbConfig {
            policy: crate::config::LbPolicy::Adaptive,
            period: SimDuration::from_us(10),
            budget: 1,
            hysteresis_pct: 0,
        };
        let plan = periodic_plan(&s, &cfg).expect("skew must plan");
        assert_eq!(plan.moves, vec![(ChareId(0), 2)], "chase the partner");
    }

    #[test]
    fn periodic_plan_never_targets_dead_pes() {
        let pe_of = [0, 0, 0];
        let base = [3_000u64, 2_000, 1_000];
        let slow = [1.0, 1.0, 1.0];
        let alive = [true, false, true];
        let aff: Vec<Vec<(usize, u64)>> = vec![vec![]; 3];
        let node_of = [0, 0, 0];
        let s = flat_sensors(&pe_of, &base, &slow, &alive, &aff, &node_of);
        let cfg = LbConfig {
            policy: crate::config::LbPolicy::Adaptive,
            period: SimDuration::from_us(10),
            budget: 4,
            hysteresis_pct: 0,
        };
        let plan = periodic_plan(&s, &cfg).expect("plan exists");
        assert!(plan.moves.iter().all(|&(_, p)| p == 2));
    }

    #[test]
    fn lpt_worsening_input_is_left_alone() {
        // Loads 3,3,2,2,2 optimally pre-placed on 2 PEs at makespan 6;
        // raw LPT would produce 7. The plan must be discarded.
        let mut m = Machine::new(MachineConfig::validation(1, 2));
        let mut chares = vec![];
        for (pe, ms) in [(0, 3), (0, 3), (1, 2), (1, 2), (1, 2)] {
            let c = m.create_chare(pe, Box::new(Dummy));
            m.set_load_for_test(c, SimDuration::from_ms(ms));
            chares.push(c);
        }
        let report = greedy_rebalance(&mut m, &chares);
        assert_eq!(report.migrations, 0);
        assert_eq!(report.max_before_ns, 6_000_000);
        assert_eq!(report.max_after_ns, 6_000_000);
        assert!(chares.iter().take(2).all(|&c| m.pe_of(c) == 0));
    }
}
