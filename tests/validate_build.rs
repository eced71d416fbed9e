//! `validate` accepts exactly what `build` builds, for every proxy app
//! through the one [`App`] interface: a config fails `validate` exactly
//! when `build` panics, and the panic text is the error's text.
//!
//! Charm Jacobi3D, MPI Jacobi3D and Sweep3D draw 512 random configs
//! each from a seeded generator (the root package vendors no property
//! testing crate, so it is a hand-rolled [`SimRng`] stream): tiny grids,
//! 0–2 nodes × 0–2 PEs per node (so some machines have no PE at all),
//! ODF and iteration counts 0–2, and every fault target in or out of
//! range, with the LB and a PE failure sometimes armed. Each knob takes
//! its rejected value less often than not. The collective apps (the
//! standalone collective, training and MoE) walk small exhaustive grids
//! that include zero timed rounds or steps, a zero chunk, more ranks
//! than PEs, and a PE failure or the LB armed.
//!
//! Only Charm Jacobi3D moves chares, so every other app must reject a
//! machine that [`MachineConfig::migrates`]: such a config would build,
//! then panic mid-run on a PE failure with nothing to resume.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use gaat::coll::{Algorithm, CollAppConfig, CollOp, CollShared};
use gaat::dptrain::{MoeConfig, MoeShared, TrainConfig, TrainShared};
use gaat::jacobi3d::mpi_app::MpiShared;
use gaat::jacobi3d::{charm, CommMode, Dims, Fusion, JacobiConfig, SyncMode};
use gaat::net::{FatTreeParams, TopologyKind};
use gaat::rt::{App, LbPolicy, MachineConfig};
use gaat::sim::{LinkFault, LinkFaultKind, PeFault, SimDuration, SimRng, SimTime, StragglerWindow};
use gaat::sweep3d::{SweepConfig, SweepShared};

/// Random configs per Jacobi3D version and for Sweep3D.
const CASES: usize = 512;

/// How many configs an app accepted and how many it rejected.
#[derive(Debug, Default)]
struct Tally {
    accepted: usize,
    rejected: usize,
}

impl Tally {
    /// Assert `A::validate(cfg)` is `Err` exactly when `A::build(cfg)`
    /// panics, with the same text, and count the verdict.
    fn agree<A: App>(&mut self, cfg: A::Config)
    where
        A::Config: Clone + Debug,
    {
        let checked = A::validate(&cfg).map_err(|e| e.to_string());
        let built = catch_unwind(AssertUnwindSafe(|| {
            A::build(cfg.clone());
        }))
        .map_err(|payload| match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast_ref::<&str>().unwrap_or(&"?").to_string(),
        });
        match (&checked, &built) {
            (Ok(()), Ok(())) => self.accepted += 1,
            (Err(e), Err(text)) => {
                assert_eq!(text, e, "{cfg:?}");
                self.rejected += 1;
            }
            (Ok(()), Err(text)) => {
                panic!("validate accepted, build panicked with {text:?}: {cfg:?}")
            }
            (Err(e), Ok(())) => panic!("validate rejected with {e:?}, build succeeded: {cfg:?}"),
        }
    }

    /// Both verdicts occurred, so the inputs reach both sides of every
    /// app's rules.
    fn assert_both(&self, app: &str) {
        assert!(self.accepted > 0 && self.rejected > 0, "{app}: {self:?}");
    }
}

/// `true` one time in `n`.
fn one_in(rng: &mut SimRng, n: u64) -> bool {
    rng.below(n) == 0
}

/// A count in 0..=2 that is 0 one time in six.
fn small_count(rng: &mut SimRng) -> usize {
    (rng.below(6) as usize).min(2)
}

/// A fault target below `n` one time in three.
fn maybe(rng: &mut SimRng, n: u64) -> Option<usize> {
    let on = one_in(rng, 3);
    let target = rng.below(n) as usize;
    on.then_some(target)
}

/// A random tiny machine: 0–2 nodes × 0–2 PEs per node, flat or fat
/// tree, the reliable transport sometimes off, the adaptive LB
/// sometimes armed, and a PE failure, a straggling device and a
/// downed link each sometimes scheduled. PE and device targets run
/// 0..5 on 0–4 PEs; link targets run 0..21 on 0 (Flat), 11 or 14
/// (FatTree) links.
fn machine(rng: &mut SimRng) -> MachineConfig {
    let mut m = MachineConfig::validation(rng.below(3) as usize, rng.below(3) as usize);
    if one_in(rng, 2) {
        m.net.topology = TopologyKind::FatTree(FatTreeParams::default());
    }
    m.ucx.reliability.enabled = !one_in(rng, 4);
    if one_in(rng, 3) {
        m.lb.policy = LbPolicy::Adaptive;
        m.lb.period = SimDuration::from_us(100);
    }
    let at = SimTime::ZERO + SimDuration::from_us(100);
    if let Some(pe) = maybe(rng, 5) {
        m.faults.pe_failures.push(PeFault { at, pe });
    }
    if let Some(device) = maybe(rng, 5) {
        m.faults.stragglers.push(StragglerWindow {
            device,
            from: SimTime::ZERO,
            until: at,
            slowdown: 2.0,
        });
    }
    if let Some(l) = maybe(rng, 8) {
        m.faults.link_faults.push(LinkFault {
            at,
            link: 3 * l as u32,
            kind: LinkFaultKind::Down,
        });
    }
    m
}

/// A random Jacobi3D config on an 8³ grid: every knob a rule reads.
/// Fusion is off two times in three; `comm_priority` runs 0..6 against
/// 4 priority classes.
fn jacobi(rng: &mut SimRng) -> JacobiConfig {
    let mut cfg = JacobiConfig::new(machine(rng), Dims::cube(8));
    cfg.comm = if one_in(rng, 2) {
        CommMode::GpuAware
    } else {
        CommMode::HostStaging
    };
    if one_in(rng, 4) {
        cfg.sync = SyncMode::Original;
    }
    if rng.below(3) == 0 {
        cfg.fusion = [Fusion::None, Fusion::A, Fusion::B, Fusion::C][rng.below(4) as usize];
    }
    cfg.graphs = one_in(rng, 3);
    cfg.odf = small_count(rng);
    cfg.iters = small_count(rng);
    cfg.warmup = 1;
    cfg.virtual_ranks = small_count(rng);
    cfg.checkpoint_every = usize::from(!one_in(rng, 4));
    cfg.comm_priority = rng.below(6) as usize;
    cfg
}

#[test]
fn charm_validate_accepts_exactly_what_builds() {
    let mut rng = SimRng::new(0xc4a2);
    let mut tally = Tally::default();
    for _ in 0..CASES {
        tally.agree::<charm::Shared>(jacobi(&mut rng));
    }
    tally.assert_both("Charm Jacobi3D");
}

/// The MPI versions add two rules to Jacobi3D's: one rank per PE, and
/// no PE failure or LB, since ranks cannot move. Without them such a
/// config would pass `validate`, then panic at build (ODF) or mid-run
/// (a PE failure with nothing to resume).
#[test]
fn mpi_validate_accepts_exactly_what_builds() {
    let mut rng = SimRng::new(0x3d9a);
    let mut tally = Tally::default();
    for _ in 0..CASES {
        let cfg = jacobi(&mut rng);
        if MpiShared::validate(&cfg).is_ok() {
            assert!(cfg.odf == 1 && !cfg.machine.migrates(), "{cfg:?}");
        }
        tally.agree::<MpiShared>(cfg);
    }
    tally.assert_both("MPI Jacobi3D");
}

#[test]
fn sweep3d_validate_accepts_exactly_what_builds() {
    let mut rng = SimRng::new(0x53e3);
    let mut tally = Tally::default();
    for _ in 0..CASES {
        let mut cfg = SweepConfig::new(machine(&mut rng), Dims::cube(6));
        cfg.odf = small_count(&mut rng);
        cfg.sweeps = small_count(&mut rng);
        cfg.warmup = 1;
        if SweepShared::validate(&cfg).is_ok() {
            assert!(!cfg.machine.migrates(), "{cfg:?}");
        }
        tally.agree::<SweepShared>(cfg);
    }
    tally.assert_both("Sweep3D");
}

/// Every (nodes, PEs per node) pair in 0..3 × 0..3, each plain, with
/// a PE failure armed and with the adaptive LB armed (both over the
/// reliable transport they need).
fn machines() -> impl Iterator<Item = MachineConfig> {
    let shapes =
        (0..3).flat_map(|nodes| (0..3).map(move |pes| MachineConfig::validation(nodes, pes)));
    shapes.flat_map(|plain| {
        let mut failing = plain.clone();
        failing.ucx.reliability.enabled = true;
        failing.faults.pe_failures.push(PeFault {
            at: SimTime::ZERO + SimDuration::from_us(100),
            pe: 0,
        });
        let mut balanced = plain.clone();
        balanced.ucx.reliability.enabled = true;
        balanced.lb.policy = LbPolicy::Adaptive;
        balanced.lb.period = SimDuration::from_us(100);
        [plain, failing, balanced]
    })
}

/// A rank app accepts no machine that migrates.
fn stays_put<A: App>(cfg: &A::Config, machine: &MachineConfig) {
    if A::validate(cfg).is_ok() {
        assert!(!machine.migrates(), "{machine:?}");
    }
}

#[test]
fn coll_app_validate_accepts_exactly_what_builds() {
    let shapes = [
        (CollOp::AllReduce, Algorithm::Ring),
        (CollOp::AllReduce, Algorithm::Tree),
        (CollOp::AllToAll, Algorithm::Ring),
    ];
    let mut tally = Tally::default();
    for machine in machines() {
        for (op, algorithm) in shapes {
            for count in [0, 7] {
                for chunk in [0, 3] {
                    for rounds in [0, 1] {
                        for ranks in [0, 2, 5] {
                            let mut cfg = CollAppConfig::new(machine.clone(), op, algorithm, count);
                            cfg.chunk = chunk;
                            cfg.rounds = rounds;
                            cfg.ranks = ranks;
                            stays_put::<CollShared>(&cfg, &machine);
                            tally.agree::<CollShared>(cfg);
                        }
                    }
                }
            }
        }
    }
    tally.assert_both("collective");
}

#[test]
fn train_validate_accepts_exactly_what_builds() {
    let mut tally = Tally::default();
    for machine in machines() {
        for params in [0, 2, 8] {
            for buckets in [0, 1, 3] {
                for chunk in [0, 4] {
                    for steps in [0, 1] {
                        let mut cfg = TrainConfig::new(machine.clone(), params);
                        cfg.buckets = buckets;
                        cfg.chunk = chunk;
                        cfg.steps = steps;
                        stays_put::<TrainShared>(&cfg, &machine);
                        tally.agree::<TrainShared>(cfg);
                    }
                }
            }
        }
    }
    tally.assert_both("training");
}

#[test]
fn moe_validate_accepts_exactly_what_builds() {
    let mut tally = Tally::default();
    for machine in machines() {
        for tokens in [0, 5] {
            for hidden in [0, 2] {
                for hot_frac in [0.5, 1.5] {
                    for chunk in [0, 3] {
                        for rounds in [0, 1] {
                            for ranks in [0, 2, 5] {
                                let mut cfg = MoeConfig::new(machine.clone(), tokens, hidden);
                                cfg.hot_frac = hot_frac;
                                cfg.chunk = chunk;
                                cfg.rounds = rounds;
                                cfg.ranks = ranks;
                                stays_put::<MoeShared>(&cfg, &machine);
                                tally.agree::<MoeShared>(cfg);
                            }
                        }
                    }
                }
            }
        }
    }
    tally.assert_both("MoE");
}
