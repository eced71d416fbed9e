//! `validate` accepts exactly what `build` builds, for every collective
//! proxy config: on small grids that include a machine with no nodes or
//! no PEs, zero timed rounds or steps, a zero chunk and more ranks than
//! PEs, a config fails `validate` exactly when its build panics, and the
//! panic text is the error's text.

use std::panic::{catch_unwind, AssertUnwindSafe};

use gaat_coll::{Algorithm, CollAppConfig, CollOp};
use gaat_dptrain::{MoeConfig, TrainConfig};
use gaat_rt::MachineConfig;

/// The panic text of `build`, or `None` if it returned.
fn build_panic(build: impl FnOnce()) -> Option<String> {
    let payload = catch_unwind(AssertUnwindSafe(build)).err()?;
    Some(match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p.downcast_ref::<&str>().unwrap_or(&"?").to_string(),
    })
}

/// Every (nodes, PEs per node) pair in 0..3 × 0..3.
fn machines() -> impl Iterator<Item = MachineConfig> {
    (0..3).flat_map(|nodes| (0..3).map(move |pes| MachineConfig::validation(nodes, pes)))
}

fn assert_agree<E: std::error::Error>(checked: Result<(), E>, built: Option<String>, cfg: &str) {
    match (checked, built) {
        (Ok(()), None) => {}
        (Err(e), Some(text)) => assert_eq!(text, e.to_string(), "{cfg}"),
        (Ok(()), Some(text)) => panic!("validate accepted, build panicked with {text:?}: {cfg}"),
        (Err(e), None) => panic!("validate rejected with {e:?}, build succeeded: {cfg}"),
    }
}

#[test]
fn coll_app_validate_accepts_exactly_what_builds() {
    let shapes = [
        (CollOp::AllReduce, Algorithm::Ring),
        (CollOp::AllReduce, Algorithm::Tree),
        (CollOp::AllToAll, Algorithm::Ring),
    ];
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
                            let built = build_panic(|| {
                                gaat_coll::build(cfg.clone());
                            });
                            assert_agree(cfg.validate(), built, &format!("{cfg:?}"));
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn train_validate_accepts_exactly_what_builds() {
    for machine in machines() {
        for params in [0, 2, 8] {
            for buckets in [0, 1, 3] {
                for chunk in [0, 4] {
                    for steps in [0, 1] {
                        let mut cfg = TrainConfig::new(machine.clone(), params);
                        cfg.buckets = buckets;
                        cfg.chunk = chunk;
                        cfg.steps = steps;
                        let built = build_panic(|| {
                            gaat_dptrain::build_train(cfg.clone());
                        });
                        assert_agree(cfg.validate(), built, &format!("{cfg:?}"));
                    }
                }
            }
        }
    }
}

#[test]
fn moe_validate_accepts_exactly_what_builds() {
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
                                let built = build_panic(|| {
                                    gaat_dptrain::build_moe(cfg.clone());
                                });
                                assert_agree(cfg.validate(), built, &format!("{cfg:?}"));
                            }
                        }
                    }
                }
            }
        }
    }
}
