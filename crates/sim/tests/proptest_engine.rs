//! Property-based tests for the discrete-event engine: ordering,
//! determinism, and cancellation invariants under arbitrary schedules.

use proptest::prelude::*;

use gaat_sim::{Sim, SimDuration, SimTime};

/// Run a schedule of (delay_ns, payload) events and return payloads in
/// execution order along with the observed timestamps.
fn execute(schedule: &[(u64, u32)]) -> (Vec<u32>, Vec<u64>) {
    #[derive(Default)]
    struct World {
        fired: Vec<(u32, u64)>,
    }
    let mut sim: Sim<World> = Sim::new();
    let mut w = World::default();
    fn fire(w: &mut World, sim: &mut Sim<World>, payload: u64) {
        let now = sim.now().as_ns();
        w.fired.push((payload as u32, now));
    }
    for &(delay, payload) in schedule {
        sim.at(SimTime::from_ns(delay), fire, u64::from(payload));
    }
    sim.run(&mut w);
    let payloads = w.fired.iter().map(|&(p, _)| p).collect();
    let times = w.fired.iter().map(|&(_, t)| t).collect();
    (payloads, times)
}

proptest! {
    /// Events always fire in nondecreasing time order, and every scheduled
    /// event fires exactly once.
    #[test]
    fn fires_all_events_in_time_order(
        schedule in prop::collection::vec((0u64..1_000_000, any::<u32>()), 0..200)
    ) {
        let (payloads, times) = execute(&schedule);
        prop_assert_eq!(payloads.len(), schedule.len());
        for w in times.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        // multiset equality of payloads
        let mut got = payloads.clone();
        let mut want: Vec<u32> = schedule.iter().map(|&(_, p)| p).collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Equal-time events fire in scheduling order (stable tie-break).
    #[test]
    fn equal_times_are_fifo(payloads in prop::collection::vec(any::<u32>(), 1..100)) {
        let schedule: Vec<(u64, u32)> = payloads.iter().map(|&p| (42, p)).collect();
        let (got, _) = execute(&schedule);
        prop_assert_eq!(got, payloads);
    }

    /// Two identical schedules produce identical execution traces.
    #[test]
    fn deterministic_replay(
        schedule in prop::collection::vec((0u64..1_000_000, any::<u32>()), 0..200)
    ) {
        prop_assert_eq!(execute(&schedule), execute(&schedule));
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn cancellation_removes_exactly_the_cancelled(
        delays in prop::collection::vec(0u64..1_000, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        struct World { fired: Vec<usize> }
        let mut sim: Sim<World> = Sim::new();
        let mut w = World { fired: vec![] };
        let mut ids = vec![];
        for (i, &delay) in delays.iter().enumerate() {
            let id = sim.at(SimTime::from_ns(delay), |w: &mut World, _, i| {
                w.fired.push(i as usize);
            }, i as u64);
            ids.push(id);
        }
        let mut expect: Vec<usize> = vec![];
        for (i, id) in ids.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                sim.cancel(*id);
            } else {
                expect.push(i);
            }
        }
        sim.run(&mut w);
        let mut got = w.fired.clone();
        got.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// run_until never executes events past the deadline and a following
    /// run() completes the rest.
    #[test]
    fn run_until_partitions_execution(
        delays in prop::collection::vec(0u64..1_000, 1..100),
        deadline in 0u64..1_000,
    ) {
        struct World { fired: Vec<u64> }
        let mut sim: Sim<World> = Sim::new();
        let mut w = World { fired: vec![] };
        for &delay in &delays {
            sim.at(SimTime::from_ns(delay), |w: &mut World, sim, _| {
                w.fired.push(sim.now().as_ns());
            }, 0);
        }
        sim.run_until(&mut w, SimTime::from_ns(deadline));
        prop_assert!(w.fired.iter().all(|&t| t <= deadline));
        let before = w.fired.len();
        prop_assert_eq!(before, delays.iter().filter(|&&d| d <= deadline).count());
        sim.run(&mut w);
        prop_assert_eq!(w.fired.len(), delays.len());
        prop_assert!(w.fired[before..].iter().all(|&t| t > deadline));
    }
}

// Randomized cascade: events schedule further events; the engine must keep
// time monotone and honor relative delays exactly.
proptest! {
    #[test]
    fn cascading_events_keep_time_monotone(
        seeds in prop::collection::vec((1u64..1_000, 0u8..3), 1..50)
    ) {
        struct World { trace: Vec<u64>, spawned: usize }
        let mut sim: Sim<World> = Sim::new();
        let mut w = World { trace: vec![], spawned: 0 };
        // The payload word packs `delay << 2 | children`.
        fn parent(w: &mut World, sim: &mut Sim<World>, word: u64) {
            let (delay, children) = (word >> 2, word & 3);
            w.trace.push(sim.now().as_ns());
            for c in 0..children {
                w.spawned += 1;
                sim.after(SimDuration::from_ns(delay + c), |w: &mut World, sim: &mut Sim<World>, _| {
                    w.trace.push(sim.now().as_ns());
                }, 0);
            }
        }
        for &(delay, children) in &seeds {
            sim.after(SimDuration::from_ns(delay), parent, delay << 2 | u64::from(children));
        }
        sim.run(&mut w);
        prop_assert_eq!(w.trace.len(), seeds.len() + w.spawned);
        for pair in w.trace.windows(2) {
            prop_assert!(pair[0] <= pair[1]);
        }
    }
}
