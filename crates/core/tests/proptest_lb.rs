//! Property tests for the periodic load balancer: across rounds of
//! shifting straggler factors and PE deaths, every plan `periodic_plan`
//! returns beats the placement it started from.

use proptest::prelude::*;

use gaat_rt::lb::periodic_plan;
use gaat_rt::{LbConfig, LbSensors};

proptest! {
    /// Rounds of periodic planning against a shifting fault landscape
    /// (fresh straggler factors and PE deaths each round). Every
    /// applied plan must beat staying put under its own cost model,
    /// clear the hysteresis bar, stay within the per-round migration
    /// budget, never target a dead PE — and replay bit-identically from
    /// the same sensors.
    #[test]
    fn periodic_plan_never_degrades_across_rounds(
        pes in 2usize..6,
        chares in prop::collection::vec((0usize..6, 0u64..20_000, 0usize..24, 0u64..4_096), 1..24),
        rounds in prop::collection::vec(
            (
                prop::collection::vec(1u32..40, 6),      // per-PE slowdown, tenths
                prop::collection::vec(any::<bool>(), 6), // per-PE liveness
                any::<bool>(),                           // fabric distress
            ),
            1..4,
        ),
        budget in 1usize..6,
        hysteresis in 0u32..30,
    ) {
        let n = chares.len();
        let mut pe_of: Vec<usize> = chares.iter().map(|&(pe, ..)| pe % pes).collect();
        let base: Vec<u64> = chares.iter().map(|&(_, l, ..)| l).collect();
        let affinity: Vec<Vec<(usize, u64)>> = chares
            .iter()
            .map(|&(.., partner, bytes)| vec![(partner % n, bytes)])
            .collect();
        let node_of: Vec<usize> = (0..pes).map(|p| p / 2).collect();
        let cfg = LbConfig {
            budget,
            hysteresis_pct: hysteresis,
            ..LbConfig::default()
        };

        for (slow_tenths, deaths, distressed) in rounds {
            let pe_slow: Vec<f64> = slow_tenths[..pes].iter().map(|&t| t as f64 / 10.0).collect();
            // PE 0 stays alive so a migration target always exists.
            let alive: Vec<bool> = (0..pes).map(|p| p == 0 || !deaths[p]).collect();
            let sensors = LbSensors {
                pe_of: &pe_of,
                base_ns: &base,
                pe_slow: &pe_slow,
                alive: &alive,
                affinity: &affinity,
                node_of: &node_of,
                distressed,
            };
            let plan = periodic_plan(&sensors, &cfg);
            prop_assert_eq!(&plan, &periodic_plan(&sensors, &cfg), "plan must be deterministic");
            let Some(plan) = plan else { continue };

            prop_assert!(!plan.moves.is_empty());
            prop_assert!(plan.moves.len() <= budget, "budget exceeded");
            for &(_, dst) in &plan.moves {
                prop_assert!(alive[dst], "plan targets dead PE {}", dst);
            }

            // Replay the plan under its own cost model: the projected
            // makespans must be exactly what the plan claims, and the
            // move must beat staying put by the hysteresis margin.
            let cost = |c: usize, p: usize| (base[c] as f64 * pe_slow[p]).round() as u64;
            let mut load = vec![0u64; pes];
            for c in 0..n {
                load[pe_of[c]] += cost(c, pe_of[c]);
            }
            let before = load.iter().copied().max().unwrap_or(0);
            prop_assert_eq!(before, plan.max_before_ns);
            for &(c, dst) in &plan.moves {
                load[pe_of[c.0]] -= cost(c.0, pe_of[c.0]);
                load[dst] += cost(c.0, dst);
                pe_of[c.0] = dst; // applied: next round starts from here
            }
            let after = load.iter().copied().max().unwrap_or(0);
            prop_assert_eq!(after, plan.max_after_ns);
            prop_assert!(after < before, "applied plan degraded: {} -> {}", before, after);
            prop_assert!(
                u128::from(after) * 100 <= u128::from(before) * u128::from(100 - hysteresis.min(100)),
                "hysteresis bar missed: {} -> {} at {}%",
                before,
                after,
                hysteresis
            );
        }
    }
}
