//! Property-based tests of the fabric model: serialization conservation,
//! latency floors, and pair independence under arbitrary traffic.

use proptest::prelude::*;

use gaat_net::{Fabric, NetMsg, NetParams, NodeId, TrafficClass};
use gaat_sim::{SimDuration, SimRng, SimTime};

mod common;
use common::deliveries;

fn fabric(nodes: usize) -> Fabric {
    let params = NetParams {
        jitter: 0.0,
        ..NetParams::default()
    };
    Fabric::new(nodes, params, SimRng::new(3))
}

proptest! {
    /// Every inter-node message is delivered no earlier than
    /// `send + latency + serialization`, regardless of load.
    #[test]
    fn latency_floor_holds(
        msgs in prop::collection::vec((0usize..6, 0usize..6, 1u64..4_000_000, 0u64..100_000), 1..60)
    ) {
        let f = fabric(6);
        let params = f.params().clone();
        let sends: Vec<(SimTime, NetMsg)> = msgs
            .iter()
            .enumerate()
            .filter(|(_, &(src, dst, _, _))| src != dst)
            .map(|(i, &(src, dst, bytes, at))| {
                let m = NetMsg {
                    src: NodeId(src),
                    dst: NodeId(dst),
                    bytes,
                    extra_latency: SimDuration::ZERO,
                    token: i as u64,
                    key: 0,
                    class: TrafficClass::Data,
                    attempt: 0,
                };
                (SimTime::from_ns(at), m)
            })
            .collect();
        for (&(now, m), delivered) in sends.iter().zip(deliveries(f, &sends)) {
            let floor = now + params.inter_latency + params.inter_ser(m.bytes);
            prop_assert!(
                delivered >= floor,
                "delivered {delivered} before floor {floor}"
            );
        }
    }

    /// Conservation at the egress port: back-to-back messages from one
    /// node depart at least their serialization apart, so the last
    /// delivery is bounded below by total bytes / bandwidth.
    #[test]
    fn egress_serialization_is_conserved(
        sizes in prop::collection::vec(1u64..2_000_000, 1..40)
    ) {
        let f = fabric(2);
        let params = f.params().clone();
        let sends: Vec<(SimTime, NetMsg)> = sizes
            .iter()
            .enumerate()
            .map(|(i, &bytes)| {
                let m = NetMsg {
                    src: NodeId(0),
                    dst: NodeId(1),
                    bytes,
                    extra_latency: SimDuration::ZERO,
                    token: i as u64,
                    key: 0,
                    class: TrafficClass::Data,
                    attempt: 0,
                };
                (SimTime::ZERO, m)
            })
            .collect();
        let last = deliveries(f, &sends).into_iter().max().expect("one message at least");
        let total: u64 = sizes.iter().map(|&b| params.inter_ser(b).as_ns()).sum();
        prop_assert!(
            last.as_ns() >= total,
            "last delivery {last} under total serialization {total} ns"
        );
    }

    /// Disjoint node pairs never interfere: the delivery time of a
    /// message is the same whether or not other pairs carry traffic.
    #[test]
    fn disjoint_pairs_are_independent(
        noise in prop::collection::vec(1u64..1_000_000, 0..30),
        probe_bytes in 1u64..1_000_000,
    ) {
        let probe = NetMsg {
            src: NodeId(0),
            dst: NodeId(1),
            bytes: probe_bytes,
            extra_latency: SimDuration::ZERO,
            token: 0,
            key: 0,
            class: TrafficClass::Data,
            attempt: 0,
        };
        let t_quiet = deliveries(fabric(4), &[(SimTime::ZERO, probe)])[0];

        let mut sends: Vec<(SimTime, NetMsg)> = noise
            .iter()
            .enumerate()
            .map(|(i, &bytes)| {
                let m = NetMsg {
                    src: NodeId(2),
                    dst: NodeId(3),
                    bytes,
                    extra_latency: SimDuration::ZERO,
                    token: 1 + i as u64,
                    key: 0,
                    class: TrafficClass::Data,
                    attempt: 0,
                };
                (SimTime::ZERO, m)
            })
            .collect();
        sends.push((SimTime::ZERO, probe));
        let t_busy = *deliveries(fabric(4), &sends).last().expect("probe sent");
        prop_assert_eq!(t_quiet, t_busy);
    }

    /// Deliveries from one sender to one receiver preserve send order
    /// (the fabric is FIFO per direction, which the tag-matching layer
    /// relies on for same-tag FIFO semantics).
    #[test]
    fn per_pair_fifo(
        msgs in prop::collection::vec((1u64..500_000, 0u64..50_000), 2..40)
    ) {
        let mut send_times: Vec<u64> = msgs.iter().map(|&(_, t)| t).collect();
        send_times.sort_unstable();
        let sends: Vec<(SimTime, NetMsg)> = send_times
            .iter()
            .enumerate()
            .map(|(i, &at)| {
                let m = NetMsg {
                    src: NodeId(0),
                    dst: NodeId(1),
                    bytes: msgs[i].0,
                    extra_latency: SimDuration::ZERO,
                    token: i as u64,
                    key: 0,
                    class: TrafficClass::Data,
                    attempt: 0,
                };
                (SimTime::from_ns(at), m)
            })
            .collect();
        let mut last_delivery = SimTime::ZERO;
        for d in deliveries(fabric(2), &sends) {
            prop_assert!(
                d >= last_delivery,
                "delivery {d} before previous {last_delivery}"
            );
            last_delivery = d;
        }
    }
}
