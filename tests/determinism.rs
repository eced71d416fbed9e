//! Whole-stack determinism: identical configurations must give
//! bit-identical traces, and the only seed-dependence is the modeled
//! jitter.

use gaat::jacobi3d::mpi_app::MpiShared;
use gaat::jacobi3d::{charm, CommMode, Dims, Fusion, JacobiConfig};
use gaat::rt::{App, MachineConfig};

fn cfg() -> JacobiConfig {
    let mut c = JacobiConfig::new(MachineConfig::summit(2), Dims::cube(192));
    c.iters = 8;
    c.warmup = 2;
    c
}

#[test]
fn charm_runs_replay_exactly() {
    for comm in [CommMode::HostStaging, CommMode::GpuAware] {
        let mk = || {
            let mut c = cfg();
            c.comm = comm;
            c.odf = 4;
            c
        };
        let a = charm::Shared::build_and_run(mk()).unwrap();
        let b = charm::Shared::build_and_run(mk()).unwrap();
        assert_eq!(a.time_per_iter, b.time_per_iter, "{comm:?}");
        assert_eq!(a.total, b.total);
        assert_eq!(a.entries, b.entries);
        assert_eq!(a.kernels, b.kernels);
    }
}

#[test]
fn mpi_runs_replay_exactly() {
    let a = MpiShared::build_and_run(cfg()).unwrap();
    let b = MpiShared::build_and_run(cfg()).unwrap();
    assert_eq!(a.time_per_iter, b.time_per_iter);
    assert_eq!(a.entries, b.entries);
}

#[test]
fn graph_and_fusion_paths_replay_exactly() {
    let mk = || {
        let mut c = cfg();
        c.comm = CommMode::GpuAware;
        c.fusion = Fusion::B;
        c.graphs = true;
        c.odf = 2;
        c
    };
    let a = charm::Shared::build_and_run(mk()).unwrap();
    let b = charm::Shared::build_and_run(mk()).unwrap();
    assert_eq!(a.total, b.total);
    assert_eq!(a.graph_launches, b.graph_launches);
}

/// Golden fingerprints recorded on the seed `BinaryHeap` + boxed-closure
/// engine (commit 3c05e51) for the exact configurations above. The
/// slab-arena/calendar-queue rewrite must reproduce the seed's
/// (time, seq) firing order bit for bit, so these totals may never move
/// unless the *model* (latencies, topology) changes — in which case the
/// change must be deliberate and these constants re-recorded.
///
/// Re-recorded once (PR 2, deliberate model change): network jitter is
/// now a pure hash of each message's `(src, dst, token)` identity
/// instead of a draw from the fabric's shared RNG stream, so unrelated
/// traffic can no longer perturb an existing message's latency through
/// RNG draw order. Totals moved by tens of nanoseconds on a
/// multi-millisecond run (HostStaging 5_375_583 -> 5_375_600, GpuAware
/// 3_115_437 -> 3_115_454, mpi 985_297 -> 986_355, graphs+fusionB
/// 604_716 -> 604_747); entry/kernel/launch counts — the structural
/// fingerprint — are unchanged. The refactor to the `Topology` backend
/// was verified bit-identical against the old jitter model before the
/// hash switch, so these constants isolate exactly the jitter change.
#[test]
fn firing_order_matches_seed_engine_goldens() {
    let golden = [
        (
            CommMode::HostStaging,
            5_375_600u64,
            509_822u64,
            4_736u64,
            4_640u64,
        ),
        (CommMode::GpuAware, 3_115_454, 295_779, 4_736, 4_640),
    ];
    for (comm, total_ns, per_iter_ns, entries, kernels) in golden {
        let mut c = cfg();
        c.comm = comm;
        c.odf = 4;
        let r = charm::Shared::build_and_run(c).unwrap();
        assert_eq!(r.total.as_ns(), total_ns, "{comm:?} total");
        assert_eq!(r.time_per_iter.as_ns(), per_iter_ns, "{comm:?} per-iter");
        assert_eq!(r.entries, entries, "{comm:?} entries");
        assert_eq!(r.kernels, kernels, "{comm:?} kernels");
    }

    let r = MpiShared::build_and_run(cfg()).unwrap();
    assert_eq!(r.total.as_ns(), 986_355, "mpi total");
    assert_eq!(r.time_per_iter.as_ns(), 97_886, "mpi per-iter");
    assert_eq!(r.entries, 1_172, "mpi entries");

    let mut c = cfg();
    c.comm = CommMode::GpuAware;
    c.fusion = Fusion::B;
    c.graphs = true;
    c.odf = 2;
    let r = charm::Shared::build_and_run(c).unwrap();
    assert_eq!(r.total.as_ns(), 604_747, "graphs+fusionB total");
    assert_eq!(r.entries, 2_128, "graphs+fusionB entries");
    assert_eq!(r.graph_launches, 240, "graphs+fusionB graph launches");
}

#[test]
fn seeds_change_timing_but_not_structure() {
    let mk = |seed| {
        let mut c = cfg();
        c.machine.seed = seed;
        c.comm = CommMode::GpuAware;
        c.odf = 2;
        c
    };
    let a = charm::Shared::build_and_run(mk(1)).unwrap();
    let b = charm::Shared::build_and_run(mk(99)).unwrap();
    // Timing differs (jitter), structure does not.
    assert_ne!(a.total, b.total);
    assert_eq!(a.entries, b.entries);
    assert_eq!(a.kernels, b.kernels);
    let ratio = a.total.as_ns() as f64 / b.total.as_ns() as f64;
    assert!((0.9..1.1).contains(&ratio), "jitter is small: {ratio}");
}

/// A fault plan with every stochastic knob at zero is `!is_active()` and
/// must be *behaviourally invisible*: the run takes the no-fault fast
/// paths and reproduces the golden totals bit for bit, even though the
/// plan's seed is nonzero.
#[test]
fn inert_fault_plan_matches_goldens() {
    let mut c = cfg();
    c.machine.faults = gaat::sim::FaultPlan {
        seed: 7,
        drop_prob: 0.0,
        ..gaat::sim::FaultPlan::none()
    };
    c.comm = CommMode::HostStaging;
    c.odf = 4;
    let r = charm::Shared::build_and_run(c).unwrap();
    assert_eq!(r.total.as_ns(), 5_375_600, "inert plan must not move time");
    assert_eq!(r.entries, 4_736);
    assert_eq!(r.kernels, 4_640);
}

/// Fault injection is part of the deterministic state: the same lossy
/// seed replays the same drops, retransmissions, and final timing.
#[test]
fn lossy_runs_replay_exactly() {
    let mk = || {
        let mut c = cfg();
        c.machine.faults = gaat::sim::FaultPlan {
            seed: 42,
            drop_prob: 0.05,
            corrupt_prob: 0.01,
            ..gaat::sim::FaultPlan::none()
        };
        c.machine.ucx.reliability.enabled = true;
        c.comm = CommMode::HostStaging;
        c.odf = 4;
        c
    };
    let a = charm::Shared::build_and_run(mk()).unwrap();
    let b = charm::Shared::build_and_run(mk()).unwrap();
    assert_eq!(a.total, b.total);
    assert_eq!(a.entries, b.entries);
    assert_eq!(a.kernels, b.kernels);
    // And the faults genuinely fired: loss costs time over the clean run.
    let mut clean = cfg();
    clean.comm = CommMode::HostStaging;
    clean.odf = 4;
    let c = charm::Shared::build_and_run(clean).unwrap();
    assert!(a.total > c.total, "{} vs {}", a.total, c.total);
}

#[test]
fn zero_jitter_makes_seeds_irrelevant() {
    let mk = |seed| {
        let mut c = cfg();
        c.machine.seed = seed;
        c.machine.net.jitter = 0.0;
        c.comm = CommMode::GpuAware;
        c
    };
    let a = charm::Shared::build_and_run(mk(1)).unwrap();
    let b = charm::Shared::build_and_run(mk(2)).unwrap();
    assert_eq!(a.total, b.total);
}

/// Golden fingerprints for the collective-traffic proxy apps (gaat-coll
/// under gaat-dptrain), recorded when they landed: one data-parallel
/// training scenario and one skew-routed MoE scenario on the Flat 2-node
/// machine. Totals may only move on a deliberate model change; the
/// traffic counters (bytes/chunks/steps) are the structural fingerprint
/// and pin the schedules themselves.
#[test]
fn coll_proxy_apps_replay_goldens() {
    use gaat::dptrain::{MoeConfig, MoeShared, TrainConfig, TrainShared};

    let mut c = TrainConfig::new(MachineConfig::summit(2), 1 << 16);
    c.steps = 2;
    c.warmup = 1;
    let r = TrainShared::build_and_run(c).unwrap();
    assert_eq!(r.total.as_ns(), 1_904_268, "train total");
    assert_eq!(r.time_per_step.as_ns(), 633_748, "train per-step");
    assert_eq!(r.coll_stats.bytes, 34_603_008, "bytes");
    assert_eq!(r.coll_stats.chunks, 3_168, "chunks");
    assert_eq!(r.coll_stats.steps, 3_168, "steps");
    assert_eq!(r.coll_stats.reduced_elems, 2_162_688, "reduced");
    assert_eq!(r.coll_stats.rounds, 144, "rounds");

    let mut c = MoeConfig::new(MachineConfig::summit(2), 512, 64);
    c.hot_experts = 3;
    c.hot_frac = 0.7;
    c.rounds = 2;
    c.warmup = 1;
    let r = MoeShared::build_and_run(c).unwrap();
    assert_eq!(r.total.as_ns(), 924_567, "moe total");
    assert_eq!(r.time_per_round.as_ns(), 307_777, "moe per-round");
    for (name, s) in [
        ("dispatch", &r.dispatch_stats),
        ("combine", &r.combine_stats),
    ] {
        assert_eq!(s.bytes, 8_623_104, "{name} bytes");
        assert_eq!(s.chunks, 396, "{name} chunks");
        assert_eq!(s.steps, 396, "{name} steps");
    }
}

/// Golden fingerprints for the standalone collective app (`coll::app`)
/// on the Flat 2-node machine: ring and tree allreduce and a pairwise
/// alltoall, each two timed rounds after one warm-up round. Pins the
/// per-round time, the total and every merged member counter.
#[test]
fn coll_app_replays_goldens() {
    use gaat::coll::{Algorithm, CollAppConfig, CollOp, CollShared, MemberStats};

    let stats = |bytes, chunks, steps, reduced_elems| MemberStats {
        bytes,
        chunks,
        steps,
        reduced_elems,
        rounds: 36,
    };
    // (op, algorithm, count, ns per round, ns total, merged stats)
    let cases = [
        (
            CollOp::AllReduce,
            Algorithm::Ring,
            1 << 16,
            325_023,
            978_015,
            stats(34_603_008, 792, 792, 2_162_688),
        ),
        (
            CollOp::AllReduce,
            Algorithm::Tree,
            1 << 16,
            239_550,
            721_353,
            stats(34_603_008, 66, 132, 2_162_688),
        ),
        (
            CollOp::AllToAll,
            Algorithm::Ring,
            1 << 12,
            150_916,
            456_076,
            stats(12_976_128, 396, 396, 0),
        ),
    ];
    for (op, alg, count, per_round, total, want) in cases {
        let mut c = CollAppConfig::new(MachineConfig::summit(2), op, alg, count);
        c.rounds = 2;
        c.warmup = 1;
        let r = CollShared::build_and_run(c).unwrap();
        assert_eq!(
            r.time_per_round.as_ns(),
            per_round,
            "{op:?}/{alg:?} per-round"
        );
        assert_eq!(r.total.as_ns(), total, "{op:?}/{alg:?} total");
        assert_eq!(r.stats, want, "{op:?}/{alg:?} stats");
    }
}

/// The `fattree32` benchmark shape at smoke size: Charm-H at ODF 4 with
/// round-robin placement on a 4-node fat tree, so many chares on one
/// node send halos to chares on the same remote node and the flow
/// solver carries many flows over identical routes. `trunk_fault`
/// switches to two-node leaves (so cross-leaf traffic climbs the
/// trunks) with the reliable transport on, and takes one trunk down at
/// `down` and back up at `up`.
fn fattree_smoke(
    trunk_fault: Option<(u32, u64, u64)>,
) -> (gaat::jacobi3d::RunResult, gaat::net::NetStats) {
    use gaat::jacobi3d::{charm, Placement};
    use gaat::net::{FatTreeParams, TopologyKind};
    use gaat::sim::{FaultPlan, LinkFault, LinkFaultKind, SimTime};

    let mut c = JacobiConfig::new(MachineConfig::summit_fattree(4), Dims::cube(1536));
    c.comm = CommMode::HostStaging;
    c.odf = 4;
    c.placement = Placement::RoundRobin;
    (c.iters, c.warmup) = (3, 3);
    if let Some((link, down, up)) = trunk_fault {
        c.machine.net.topology = TopologyKind::FatTree(FatTreeParams {
            leaf_radix: 2,
            ..FatTreeParams::default()
        });
        c.machine.ucx.reliability.enabled = true;
        let at = |ns| SimTime::from_ns(ns);
        c.machine.faults = FaultPlan {
            link_faults: vec![
                LinkFault {
                    at: at(down),
                    link,
                    kind: LinkFaultKind::Down,
                },
                LinkFault {
                    at: at(up),
                    link,
                    kind: LinkFaultKind::Up,
                },
            ],
            ..FaultPlan::none()
        };
    }
    let (mut sim, ids, sh) = charm::build(c);
    let r = charm::run(&mut sim, &ids, &sh);
    (r, sim.machine.fabric.stats())
}

/// Goldens for [`fattree_smoke`], recorded when they landed. They pin
/// the max-min flow solver end to end: total and per-iteration time,
/// the structural counts, the fabric's flow aborts and the exact bits
/// of the hottest link's utilization. The fault variant takes trunk 16
/// (leaf 0 up to spine 2, the D-mod-k spine of node 2) down 10 ms into
/// the run and back up at 20 ms, so it covers the abort, failover and
/// restore paths. These may only move on a deliberate model change.
#[test]
fn fattree_runs_replay_goldens() {
    let (r, s) = fattree_smoke(None);
    assert_eq!(r.total.as_ns(), 34_662_352, "fattree total");
    assert_eq!(r.time_per_iter.as_ns(), 4_972_421, "fattree per-iter");
    assert_eq!(r.entries, 6_144, "fattree entries");
    assert_eq!(r.kernels, 5_952, "fattree kernels");
    assert_eq!(s.flow_aborts, 0, "fattree flow aborts");
    assert_eq!(
        s.max_link_utilization.to_bits(),
        0x3fe6_952e_9616_cbd5,
        "fattree max link utilization"
    );

    let (r, s) = fattree_smoke(Some((16, 10_000_000, 20_000_000)));
    assert_eq!(r.total.as_ns(), 87_138_328, "trunk fault total");
    assert_eq!(r.time_per_iter.as_ns(), 14_449_662, "trunk fault per-iter");
    assert_eq!(r.entries, 6_144, "trunk fault entries");
    assert_eq!(r.kernels, 5_952, "trunk fault kernels");
    assert_eq!(s.link_faults, 2, "trunk fault events applied");
    assert_eq!(s.flow_aborts, 70, "trunk fault flow aborts");
    assert_eq!(s.failovers, 272, "trunk fault failovers");
    assert_eq!(
        s.max_link_utilization.to_bits(),
        0x3fef_f43d_2bc1_da2b,
        "trunk fault max link utilization"
    );
}

/// The counters a global rollback leaves behind, for the rollback
/// goldens below: makespan, chares restored, migrations, recoveries,
/// LB plans applied and declined, the final chare→PE map, and the
/// transport's post-purge counters (stale tokens dropped, retransmits,
/// timeouts, duplicates).
#[derive(Debug, PartialEq, Eq)]
struct Rollback {
    makespan_ns: u64,
    chares_restored: u64,
    migrations: u64,
    recoveries: u64,
    lb_applied: u64,
    lb_declined: u64,
    placement: Vec<usize>,
    ucx_stale_tokens: u64,
    ucx_retransmits: u64,
    ucx_timeouts: u64,
    ucx_duplicates: u64,
}

fn run_rollback(c: JacobiConfig) -> Rollback {
    use gaat::jacobi3d::charm;
    let (mut sim, ids, sh) = charm::build(c);
    let r = charm::run(&mut sim, &ids, &sh);
    let m = &sim.machine;
    let (st, lb, ucx) = (m.stats(), m.lb_stats(), m.ucx.stats());
    Rollback {
        makespan_ns: r.total.as_ns(),
        chares_restored: st.chares_restored,
        migrations: st.migrations,
        recoveries: st.recoveries,
        lb_applied: lb.applied,
        lb_declined: lb.declined,
        placement: ids.iter().map(|&id| m.pe_of(id)).collect(),
        ucx_stale_tokens: ucx.stale_tokens,
        ucx_retransmits: ucx.retransmits,
        ucx_timeouts: ucx.timeouts,
        ucx_duplicates: ucx.duplicates,
    }
}

/// Rollback golden for PE-failure recovery: real-buffer Jacobi3D on
/// 2 nodes × 2 PEs at ODF 2, checkpoints every other iteration, PE 1
/// killed mid-run. Pins the refugee placement (heaviest first onto the
/// least-loaded live PE) and everything the rollback restores. Recorded
/// before recovery and load balancing shared one rollback path; may
/// only move on a deliberate model change.
#[test]
fn pe_failure_rollback_replays_golden() {
    use gaat::sim::{FaultPlan, PeFault, SimTime};
    let mut machine = MachineConfig::validation(2, 2);
    machine.ucx.reliability.enabled = true;
    machine.faults = FaultPlan {
        seed: 42,
        pe_failures: vec![PeFault {
            // 60% of the fault-free run's 782_212 ns: past the first
            // complete checkpoint wave.
            at: SimTime::from_ns(469_327),
            pe: 1,
        }],
        ..FaultPlan::none()
    };
    let mut c = JacobiConfig::new(machine, Dims::cube(8));
    (c.iters, c.warmup, c.odf) = (4, 1, 2);
    c.comm = CommMode::HostStaging;
    c.checkpoint_every = 2;
    assert_eq!(
        run_rollback(c),
        Rollback {
            makespan_ns: 1_255_336,
            chares_restored: 8,
            migrations: 2,
            recoveries: 1,
            lb_applied: 0,
            lb_declined: 0,
            placement: vec![0, 0, 0, 2, 2, 2, 3, 3],
            ucx_stale_tokens: 1,
            ucx_retransmits: 0,
            ucx_timeouts: 0,
            ucx_duplicates: 0,
        }
    );
}

/// Rollback golden for adaptive load balancing: Charm-H on two fat-tree
/// nodes with GPU 3 throttled 4×, the fault-free run's hottest link
/// degraded to quarter capacity and 1% message loss, checkpoints every
/// iteration and a balancer tick about every iteration. Pins how many
/// plans were applied and declined, the resulting placement, and the
/// rollback counters.
/// Recorded before recovery and load balancing shared one rollback
/// path; may only move on a deliberate model change.
#[test]
fn adaptive_lb_rollback_replays_golden() {
    use gaat::rt::LbPolicy;
    use gaat::sim::{FaultPlan, LinkFault, LinkFaultKind, SimDuration, SimTime, StragglerWindow};
    let mut machine = MachineConfig::summit_fattree(2);
    machine.net.jitter = 0.0;
    machine.ucx.reliability.enabled = true;
    machine.lb.policy = LbPolicy::Adaptive;
    // About one fault-free iteration (239_472 ns).
    machine.lb.period = SimDuration::from_us(240);
    machine.lb.hysteresis_pct = 15;
    machine.lb.budget = 2;
    let mut faults = FaultPlan {
        seed: 2,
        drop_prob: 0.01,
        ..FaultPlan::none()
    };
    faults.stragglers.push(StragglerWindow {
        device: 3,
        from: SimTime::ZERO,
        until: SimTime::ZERO + SimDuration::from_ms(60_000),
        slowdown: 4.0,
    });
    faults.link_faults.push(LinkFault {
        at: SimTime::ZERO,
        // The fault-free run's hottest link.
        link: 1,
        kind: LinkFaultKind::Degrade(0.25),
    });
    machine.faults = faults;
    let mut c = JacobiConfig::new(machine, Dims::cube(96));
    (c.iters, c.warmup, c.odf) = (12, 2, 2);
    c.comm = CommMode::HostStaging;
    c.checkpoint_every = 1;
    assert_eq!(
        run_rollback(c),
        Rollback {
            makespan_ns: 4_631_593,
            chares_restored: 48,
            migrations: 4,
            recoveries: 0,
            lb_applied: 2,
            lb_declined: 2,
            placement: vec![
                0, 0, 1, 1, 2, 2, 11, 2, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11
            ],
            ucx_stale_tokens: 0,
            ucx_retransmits: 4,
            ucx_timeouts: 4,
            ucx_duplicates: 1,
        }
    );
}

/// One Jacobi3D variant of the golden matrix below, with the fields its
/// golden pins.
#[derive(Debug, PartialEq, Eq)]
struct VariantPin {
    total_ns: u64,
    per_iter_ns: u64,
    entries: u64,
    kernels: u64,
    graph_launches: u64,
}

impl VariantPin {
    fn of(r: &gaat::jacobi3d::RunResult) -> Self {
        VariantPin {
            total_ns: r.total.as_ns(),
            per_iter_ns: r.time_per_iter.as_ns(),
            entries: r.entries,
            kernels: r.kernels,
            graph_launches: r.graph_launches,
        }
    }
}

/// Virtual-time goldens over the Jacobi3D variant matrix at [`cfg`]'s
/// size: the original sync scheme, every fusion strategy on the stream
/// and graph paths, the re-parameterized single graph, and the MPI
/// host-staged, manual-overlap and virtualized variants. Every variant
/// launches the same kernels on the same block layout, so a refactor of
/// the block model must leave all of them bit-identical. Recorded when
/// the matrix landed; may only move on a deliberate model change.
#[test]
fn variant_matrix_replays_goldens() {
    use gaat::jacobi3d::app::GraphStrategy;
    use gaat::jacobi3d::SyncMode;
    let charm = |odf, f: &dyn Fn(&mut JacobiConfig)| {
        let mut c = cfg();
        c.odf = odf;
        f(&mut c);
        VariantPin::of(&charm::Shared::build_and_run(c).unwrap())
    };
    let mpi = |f: &dyn Fn(&mut JacobiConfig)| {
        let mut c = cfg();
        f(&mut c);
        VariantPin::of(&MpiShared::build_and_run(c).unwrap())
    };
    let got = [
        (
            "charm-H original",
            charm(4, &|c| {
                c.comm = CommMode::HostStaging;
                c.sync = SyncMode::Original;
            }),
        ),
        (
            "charm-D original",
            charm(4, &|c| c.sync = SyncMode::Original),
        ),
        ("charm-D fusion A", charm(4, &|c| c.fusion = Fusion::A)),
        ("charm-D fusion B", charm(4, &|c| c.fusion = Fusion::B)),
        ("charm-D fusion C", charm(4, &|c| c.fusion = Fusion::C)),
        ("graphs fusion None", charm(2, &|c| c.graphs = true)),
        (
            "graphs fusion A",
            charm(2, &|c| {
                c.graphs = true;
                c.fusion = Fusion::A;
            }),
        ),
        (
            "graphs fusion C",
            charm(2, &|c| {
                c.graphs = true;
                c.fusion = Fusion::C;
            }),
        ),
        (
            "graphs update-params",
            charm(2, &|c| {
                c.graphs = true;
                c.graph_strategy = GraphStrategy::UpdateParams;
            }),
        ),
        ("mpi-H", mpi(&|c| c.comm = CommMode::HostStaging)),
        ("mpi-D", mpi(&|c| c.comm = CommMode::GpuAware)),
        ("mpi overlap", mpi(&|c| c.overlap = true)),
        ("mpi virtual ranks 2", mpi(&|c| c.virtual_ranks = 2)),
    ];
    // (name, total ns, per-iteration ns, entries, kernels, graph launches)
    let want: [(&str, u64, u64, u64, u64, u64); 13] = [
        ("charm-H original", 5_185_400, 499_797, 5_168, 4_640, 0),
        ("charm-D original", 3_144_254, 304_666, 5_168, 4_640, 0),
        ("charm-D fusion A", 2_305_454, 224_904, 4_736, 3_040, 0),
        ("charm-D fusion B", 1_495_454, 143_904, 4_736, 1_440, 0),
        ("charm-D fusion C", 1_078_282, 102_595, 4_736, 528, 0),
        ("graphs fusion None", 966_357, 89_078, 2_128, 92, 240),
        ("graphs fusion A", 892_055, 86_953, 2_128, 24, 240),
        ("graphs fusion C", 580_439, 55_201, 2_128, 24, 240),
        ("graphs update-params", 1_258_262, 119_064, 2_128, 92, 240),
        ("mpi-H", 1_764_421, 175_334, 1_292, 920, 0),
        ("mpi-D", 986_355, 97_886, 1_172, 920, 0),
        ("mpi overlap", 844_065, 83_657, 1_172, 1_040, 0),
        ("mpi virtual ranks 2", 1_562_428, 153_491, 2_584, 2_080, 0),
    ];
    for ((name, p), (wname, total_ns, per_iter_ns, entries, kernels, graph_launches)) in
        got.iter().zip(want)
    {
        assert_eq!(*name, wname);
        let want = VariantPin {
            total_ns,
            per_iter_ns,
            entries,
            kernels,
            graph_launches,
        };
        assert_eq!(*p, want, "{name}");
    }
}
