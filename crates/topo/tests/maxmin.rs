//! Unit coverage for the max-min fair flow simulation and fat-tree
//! routing, independent of the event engine.

use gaat_sim::SimTime;
use gaat_topo::{FatTreeGraph, FatTreeParams, FlowSim, LinkDesc, LinkId, LinkKind};

fn t(ns: u64) -> SimTime {
    SimTime::from_ns(ns)
}

fn one_link(bw: f64) -> FlowSim {
    FlowSim::new(vec![LinkDesc {
        kind: LinkKind::LeafUp,
        bw,
    }])
}

#[test]
fn single_flow_gets_full_bandwidth() {
    // 2 bytes/ns; 1000 bytes take 500 ns.
    let mut fs = one_link(2.0e9);
    fs.start(t(0), &[LinkId(0)], 1000.0, 7);
    assert_eq!(fs.next_wakeup(), Some(t(500)));
    let mut done = Vec::new();
    fs.advance(t(500), &mut done);
    assert_eq!(done, vec![7]);
    assert_eq!(fs.next_wakeup(), None);
    assert_eq!(fs.active_flows(), 0);
}

#[test]
fn two_flows_share_a_link_half_each() {
    let mut fs = one_link(2.0e9);
    fs.start(t(0), &[LinkId(0)], 1000.0, 1);
    fs.start(t(0), &[LinkId(0)], 1000.0, 2);
    // Each runs at 1 byte/ns -> both finish at 1000 ns.
    assert_eq!(fs.next_wakeup(), Some(t(1000)));
    let mut done = Vec::new();
    fs.advance(t(1000), &mut done);
    assert_eq!(done, vec![1, 2], "completion follows admission order");
}

#[test]
fn finishing_flow_returns_bandwidth() {
    let mut fs = one_link(2.0e9);
    fs.start(t(0), &[LinkId(0)], 1000.0, 1);
    fs.start(t(0), &[LinkId(0)], 3000.0, 2);
    // Both at 1 byte/ns; flow 1 done at t=1000 with 2000 bytes left on
    // flow 2, which then speeds up to 2 bytes/ns and lands at t=2000.
    assert_eq!(fs.next_wakeup(), Some(t(1000)));
    let mut done = Vec::new();
    fs.advance(t(1000), &mut done);
    assert_eq!(done, vec![1]);
    assert_eq!(fs.next_wakeup(), Some(t(2000)));
    done.clear();
    fs.advance(t(2000), &mut done);
    assert_eq!(done, vec![2]);
}

#[test]
fn water_filling_gives_leftover_to_unconstrained_flow() {
    // link0: 10 bytes/ns, link1: 1 byte/ns.
    let mut fs = FlowSim::new(vec![
        LinkDesc {
            kind: LinkKind::LeafUp,
            bw: 10.0e9,
        },
        LinkDesc {
            kind: LinkKind::LeafUp,
            bw: 1.0e9,
        },
    ]);
    // Flow 2 is pinned to 1 byte/ns by link1; flow 1 gets the other
    // 9 bytes/ns of link0 instead of a naive equal split of 5.
    fs.start(t(0), &[LinkId(0)], 1800.0, 1);
    fs.start(t(0), &[LinkId(0), LinkId(1)], 100.0, 2);
    let mut done = Vec::new();
    fs.advance(t(100), &mut done);
    assert_eq!(done, vec![2], "bottlenecked flow lands at 100 ns");
    done.clear();
    fs.advance(t(200), &mut done);
    assert_eq!(done, vec![1], "wide flow ran at 9 B/ns from the start");
}

#[test]
fn late_arrival_slows_existing_flow() {
    let mut fs = one_link(2.0e9);
    fs.start(t(0), &[LinkId(0)], 2000.0, 1);
    assert_eq!(fs.next_wakeup(), Some(t(1000)));
    // At t=500 flow 1 has 1000 bytes left; a newcomer halves its rate.
    fs.start(t(500), &[LinkId(0)], 1000.0, 2);
    assert_eq!(fs.next_wakeup(), Some(t(1500)));
    let mut done = Vec::new();
    fs.advance(t(1500), &mut done);
    assert_eq!(done, vec![1, 2]);
}

#[test]
fn zero_byte_flow_completes_immediately() {
    let mut fs = one_link(2.0e9);
    fs.start(t(10), &[LinkId(0)], 0.0, 9);
    assert_eq!(fs.next_wakeup(), Some(t(10)));
    let mut done = Vec::new();
    fs.advance(t(10), &mut done);
    assert_eq!(done, vec![9]);
}

/// A flow with no links would never be reached by a fill: its rate
/// would stay unset and every drain would add bytes instead of removing
/// them, so it could never complete. `start` refuses it.
#[test]
#[should_panic(expected = "at least one link")]
fn empty_route_is_rejected() {
    let mut fs = one_link(1.0e9);
    fs.start(t(0), &[], 1000.0, 1);
}

#[test]
fn identical_runs_replay_exactly() {
    let run = || {
        let mut fs = FlowSim::new(vec![
            LinkDesc {
                kind: LinkKind::NicUp,
                bw: 3.0e9,
            },
            LinkDesc {
                kind: LinkKind::LeafUp,
                bw: 2.0e9,
            },
        ]);
        let mut done = Vec::new();
        let mut trace = Vec::new();
        for i in 0..40u64 {
            let route: &[LinkId] = if i % 3 == 0 {
                &[LinkId(0)]
            } else {
                &[LinkId(0), LinkId(1)]
            };
            fs.start(t(i * 37), route, 500.0 + (i * 131 % 900) as f64, i);
            while let Some(w) = fs.next_wakeup() {
                if w > t((i + 1) * 37) {
                    break;
                }
                fs.advance(w, &mut done);
                trace.push((w.as_ns(), done.len()));
            }
        }
        while let Some(w) = fs.next_wakeup() {
            fs.advance(w, &mut done);
            trace.push((w.as_ns(), done.len()));
        }
        (done, trace)
    };
    assert_eq!(run(), run());
}

#[test]
fn usage_counters_track_bytes_peak_and_busy_time() {
    let mut fs = one_link(2.0e9);
    fs.start(t(0), &[LinkId(0)], 1000.0, 1);
    fs.start(t(0), &[LinkId(0)], 1000.0, 2);
    let mut done = Vec::new();
    fs.advance(t(1000), &mut done);
    let report = fs.link_report(t(2000));
    assert_eq!(report.len(), 1);
    let usage = &report[0];
    assert!((usage.bytes - 2000.0).abs() < 1e-6);
    assert_eq!(usage.peak_flows, 2);
    assert_eq!(usage.busy_ns, 1000);
    assert!((usage.utilization - 0.5).abs() < 1e-9);

    let summary = fs.congestion(t(2000));
    assert_eq!(summary.peak_link_flows, 2);
    assert_eq!(summary.hottest_link, Some(LinkId(0)));
    assert!((summary.max_link_utilization - 0.5).abs() < 1e-9);
}

#[test]
fn busy_spans_cover_active_intervals() {
    let mut fs = one_link(2.0e9);
    fs.set_record_spans(true);
    fs.start(t(100), &[LinkId(0)], 1000.0, 1);
    let mut done = Vec::new();
    fs.advance(t(600), &mut done);
    assert_eq!(done, vec![1]);
    let mut spans = Vec::new();
    fs.drain_spans(&mut spans);
    assert_eq!(spans.len(), 1);
    assert_eq!((spans[0].start, spans[0].end), (t(100), t(600)));
    assert_eq!(spans[0].kind, LinkKind::LeafUp);
}

#[test]
fn fat_tree_routes_are_static_and_leveled() {
    let params = FatTreeParams {
        leaf_radix: 2,
        spines: 2,
        trunk_bw: 24.0e9,
        hop_latency_ns: 150,
    };
    let g = FatTreeGraph::new(6, 60.0e9, 23.0e9, params);
    // 6 nodes -> 3 leaves; links: 6 nvlink, 6 nic-up, 6 nic-down,
    // 3 leaves * 2 spines * 2 directions = 12 trunks.
    assert_eq!(g.links().len(), 30);

    let mut route = Vec::new();
    // Same node: NVLink loopback, zero switch hops.
    assert_eq!(g.route(3, 3, &mut route), 0);
    assert_eq!(route, vec![LinkId(3)]);
    assert_eq!(g.links()[3].kind, LinkKind::NvLink);

    // Same leaf (nodes 0 and 1): NIC up + NIC down via one leaf switch.
    assert_eq!(g.route(0, 1, &mut route), 1);
    assert_eq!(route, vec![LinkId(6), LinkId(13)]);
    assert_eq!(g.links()[6].kind, LinkKind::NicUp);
    assert_eq!(g.links()[13].kind, LinkKind::NicDown);

    // Cross leaf (node 0 -> node 5, leaf 0 -> leaf 2, spine 5 % 2 = 1).
    assert_eq!(g.route(0, 5, &mut route), 3);
    assert_eq!(route.len(), 4);
    assert_eq!(g.links()[route[1].0 as usize].kind, LinkKind::LeafUp);
    assert_eq!(g.links()[route[2].0 as usize].kind, LinkKind::LeafDown);
    // Deterministic: the same pair always picks the same spine.
    let mut again = Vec::new();
    g.route(0, 5, &mut again);
    assert_eq!(route, again);
}

#[test]
fn failover_picks_alternate_spine_deterministically() {
    let params = FatTreeParams {
        leaf_radix: 2,
        spines: 2,
        trunk_bw: 24.0e9,
        hop_latency_ns: 150,
    };
    let mut g = FatTreeGraph::new(6, 60.0e9, 23.0e9, params);
    let mut primary = Vec::new();
    let info = g.try_route(0, 5, &mut primary).expect("healthy route");
    assert!(!info.failover);

    // Kill the primary spine's uplink trunk: the route must move to the
    // other spine and report the failover.
    g.set_link_state(primary[1], false);
    assert!(!g.link_is_up(primary[1]));
    let mut alt = Vec::new();
    let info = g.try_route(0, 5, &mut alt).expect("alternate spine");
    assert!(info.failover);
    assert_eq!(info.hops, 3);
    assert_ne!(alt[1], primary[1]);
    // Deterministic: repeated queries under the same link state agree.
    let mut again = Vec::new();
    assert_eq!(g.try_route(0, 5, &mut again), Some(info));
    assert_eq!(alt, again);

    // Restore: the primary spine wins again.
    g.set_link_state(primary[1], true);
    let mut back = Vec::new();
    let info = g.try_route(0, 5, &mut back).expect("restored");
    assert!(!info.failover);
    assert_eq!(back, primary);
}

#[test]
fn no_route_when_nic_or_all_spines_down() {
    let params = FatTreeParams {
        leaf_radix: 2,
        spines: 2,
        trunk_bw: 24.0e9,
        hop_latency_ns: 150,
    };
    let mut g = FatTreeGraph::new(6, 60.0e9, 23.0e9, params);
    let mut buf = Vec::new();
    // Down the destination NIC ejection port: unreachable.
    g.route(0, 5, &mut buf);
    let nic_down = *buf.last().unwrap();
    g.set_link_state(nic_down, false);
    assert_eq!(g.try_route(0, 5, &mut buf), None);
    g.set_link_state(nic_down, true);

    // Down both spine pairs between leaf 0 and leaf 2.
    let mut r = Vec::new();
    g.try_route(0, 5, &mut r).unwrap();
    g.set_link_state(r[1], false);
    g.try_route(0, 5, &mut r).unwrap();
    g.set_link_state(r[1], false);
    assert_eq!(g.try_route(0, 5, &mut r), None);
    // Intra-leaf traffic is unaffected by trunk failures.
    assert!(g.try_route(0, 1, &mut r).is_some());
}

#[test]
fn abort_link_kills_crossing_flows_and_respects_survivors() {
    // link 0 shared; link 1 only used by flow 2.
    let mut fs = FlowSim::new(vec![
        LinkDesc {
            kind: LinkKind::LeafUp,
            bw: 2.0e9,
        },
        LinkDesc {
            kind: LinkKind::LeafUp,
            bw: 2.0e9,
        },
    ]);
    fs.start(t(0), &[LinkId(0)], 1000.0, 1);
    fs.start(t(0), &[LinkId(0)], 1000.0, 2);
    fs.start(t(0), &[LinkId(1)], 1000.0, 3);
    assert_eq!(fs.next_wakeup(), Some(t(500)));
    // At t=250, link 0 fails: flows 1 and 2 abort in admission order.
    let mut aborted = Vec::new();
    fs.abort_link(t(250), LinkId(0), &mut aborted);
    assert_eq!(aborted, vec![1, 2]);
    assert_eq!(fs.active_flows(), 1);
    // Flow 3 had the full link all along: unchanged ETA.
    assert_eq!(fs.next_wakeup(), Some(t(500)));
    let mut done = Vec::new();
    fs.advance(t(500), &mut done);
    assert_eq!(done, vec![3]);
    // Carried bytes before the abort stay attributed: 250 ns at
    // 1 byte/ns each = 250 bytes per aborted flow.
    let report = fs.link_report(t(500));
    assert!((report[0].bytes - 500.0).abs() < 1e-6);
}

#[test]
fn abort_link_frees_bandwidth_for_survivors() {
    let mut fs = one_link(2.0e9);
    fs.start(t(0), &[LinkId(0)], 1000.0, 1);
    let mut fs2 = FlowSim::new(vec![
        LinkDesc {
            kind: LinkKind::LeafUp,
            bw: 2.0e9,
        },
        LinkDesc {
            kind: LinkKind::NicUp,
            bw: 2.0e9,
        },
    ]);
    // Flow 1 crosses both links, flow 2 only link 0. Killing link 1
    // aborts flow 1 and flow 2 doubles its rate.
    fs2.start(t(0), &[LinkId(0), LinkId(1)], 1000.0, 1);
    fs2.start(t(0), &[LinkId(0)], 1000.0, 2);
    assert_eq!(fs2.next_wakeup(), Some(t(1000)));
    let mut aborted = Vec::new();
    fs2.abort_link(t(500), LinkId(1), &mut aborted);
    assert_eq!(aborted, vec![1]);
    // Flow 2 has 500 bytes left at 2 bytes/ns -> done at t=750.
    assert_eq!(fs2.next_wakeup(), Some(t(750)));
    let mut done = Vec::new();
    fs2.advance(t(750), &mut done);
    assert_eq!(done, vec![2]);
    drop(fs);
}

#[test]
fn set_link_bw_degrades_and_restores() {
    let mut fs = one_link(2.0e9);
    fs.start(t(0), &[LinkId(0)], 1000.0, 1);
    assert_eq!(fs.next_wakeup(), Some(t(500)));
    // Halve the capacity at t=250: the flow is settled to t=250 at its
    // old rate internally (no advance needed), leaving 500 bytes at
    // 1 byte/ns.
    fs.set_link_bw(t(250), LinkId(0), 1.0e9);
    assert_eq!(fs.next_wakeup(), Some(t(750)));
    // Restore at t=500: 250 bytes left at 2 bytes/ns.
    fs.set_link_bw(t(500), LinkId(0), 2.0e9);
    assert_eq!(fs.next_wakeup(), Some(t(625)));
    let mut done = Vec::new();
    fs.advance(t(625), &mut done);
    assert_eq!(done, vec![1]);
}
