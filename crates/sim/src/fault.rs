//! Deterministic fault injection plan.
//!
//! A [`FaultPlan`] describes *what goes wrong* during a run: stochastic
//! message drops/corruption, scheduled link failures and degradations,
//! PE (process) failures, and GPU straggler windows. It deliberately
//! contains no mechanism — the fabric, the communication library, and
//! the runtime each consult the plan at their own injection points and
//! implement the consequences (retry, reroute, recovery) themselves.
//!
//! Two properties keep fault injection bit-deterministic:
//!
//! 1. **Hash-derived decisions.** Per-message outcomes (drop, corrupt)
//!    are pure functions of stable identifiers — `(src, dst, token,
//!    attempt)` hashed through [`mix64`] with the plan's seed — never of
//!    RNG draw order. Unrelated traffic cannot perturb whether a given
//!    message is dropped, and the same seed replays to the same faults.
//! 2. **Scheduled events.** Link and PE faults are explicit `(time,
//!    target)` entries armed through the ordinary event queue, so they
//!    interleave with the workload at exactly the same virtual instant
//!    on every run.
//!
//! The retransmission `attempt` participates in the hash so a dropped
//! message's retry gets a *fresh* drop decision; with a fixed attempt a
//! doomed message would be doomed forever.

use crate::rng::mix64;
use crate::time::SimTime;

/// Domain separator for drop decisions.
const DROP_SALT: u64 = 0x6F61_7564_726F_7021;
/// Domain separator for corruption decisions.
const CORRUPT_SALT: u64 = 0x632D_7275_7074_6564;

#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[inline]
fn msg_key(src: u64, dst: u64, token: u64, attempt: u32) -> u64 {
    src.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ dst.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ token.wrapping_mul(0x1656_67B1_9E37_79F9)
        ^ (attempt as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)
}

/// Outcome of the stochastic per-message fault draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgFate {
    /// Delivered normally.
    Deliver,
    /// Silently lost in the fabric (sender recovers by timeout).
    Drop,
    /// Corrupted in flight; the model treats this as checksum-detected
    /// at the receiver NIC and discarded, i.e. a drop with its own
    /// counter.
    Corrupt,
}

/// What happens to a link at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkFaultKind {
    /// The link goes down; routes fail over, in-flight flows abort.
    Down,
    /// The link comes back up at full capacity.
    Up,
    /// Transient degradation: capacity is multiplied by the factor
    /// (`0 < factor <= 1`). A later `Up` restores full bandwidth.
    Degrade(f64),
}

/// A scheduled link state change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// When the fault takes effect.
    pub at: SimTime,
    /// Directed-link index in the topology graph.
    pub link: u32,
    /// New state.
    pub kind: LinkFaultKind,
}

/// A scheduled permanent PE (process) failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeFault {
    /// When the PE dies.
    pub at: SimTime,
    /// The PE that dies.
    pub pe: usize,
}

/// A window during which one GPU runs slow (thermal throttling, a noisy
/// neighbour, a failing HBM stack).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerWindow {
    /// The affected device.
    pub device: usize,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Duration multiplier for work issued in the window (`>= 1`).
    pub slowdown: f64,
}

/// A complete, seeded description of the faults injected into one run.
///
/// The default plan injects nothing and is behaviourally invisible: no
/// events are armed and every fate draw returns [`MsgFate::Deliver`]
/// without hashing, so fault-free runs stay bit-identical to builds that
/// predate fault injection.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all hash-derived decisions.
    pub seed: u64,
    /// Probability that an inter-node message is silently dropped.
    pub drop_prob: f64,
    /// Probability that an inter-node message is corrupted (detected and
    /// discarded at the receiver).
    pub corrupt_prob: f64,
    /// Instant before which the stochastic drop/corrupt draws are
    /// suppressed (every fate check made at `now < onset` returns
    /// `Deliver` without hashing). `ZERO` — the default — applies the
    /// draws from the start. Because fates are pure hashes that arm no
    /// events, a run is bit-identical to a fault-free run up to the
    /// onset instant, which is what lets a sweep share one executed
    /// prefix across plans that differ only in their post-onset
    /// drop/corrupt behaviour.
    pub onset: SimTime,
    /// Scheduled link state changes, armed by the fabric.
    pub link_faults: Vec<LinkFault>,
    /// Scheduled permanent PE failures, armed by the runtime.
    pub pe_failures: Vec<PeFault>,
    /// GPU straggler windows, consulted by the device timing model.
    pub stragglers: Vec<StragglerWindow>,
    /// Delay between a PE failure and the runtime noticing it (failure
    /// detector latency before recovery starts).
    pub detection_delay: crate::time::SimDuration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            onset: SimTime::ZERO,
            link_faults: Vec::new(),
            pe_failures: Vec::new(),
            stragglers: Vec::new(),
            detection_delay: crate::time::SimDuration::from_us(50),
        }
    }
}

impl FaultPlan {
    /// The empty plan (no faults).
    pub fn none() -> Self {
        Self::default()
    }

    /// True if any fault source is configured. Callers use this to skip
    /// arming events and per-message draws entirely on the no-fault
    /// path.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.corrupt_prob > 0.0
            || !self.link_faults.is_empty()
            || !self.pe_failures.is_empty()
            || !self.stragglers.is_empty()
    }

    /// True if the stochastic message-fate draw can ever return
    /// something other than `Deliver`.
    #[inline]
    pub fn lossy(&self) -> bool {
        self.drop_prob > 0.0 || self.corrupt_prob > 0.0
    }

    /// True if a fate check made at instant `now` may return something
    /// other than `Deliver`: the plan is lossy and the onset has passed.
    /// Fabric injection points call this with the current virtual time so
    /// a plan with a late onset is behaviourally invisible before it.
    #[inline]
    pub fn lossy_at(&self, now: SimTime) -> bool {
        self.lossy() && now >= self.onset
    }

    /// Decide the fate of one message transmission attempt. Pure in
    /// `(seed, src, dst, token, attempt)`; the attempt number gives each
    /// retransmission an independent draw.
    #[inline]
    pub fn msg_fate(&self, src: u64, dst: u64, token: u64, attempt: u32) -> MsgFate {
        if !self.lossy() {
            return MsgFate::Deliver;
        }
        let key = msg_key(src, dst, token, attempt);
        if self.drop_prob > 0.0 && unit(mix64(self.seed ^ DROP_SALT ^ key)) < self.drop_prob {
            return MsgFate::Drop;
        }
        if self.corrupt_prob > 0.0
            && unit(mix64(self.seed ^ CORRUPT_SALT ^ key)) < self.corrupt_prob
        {
            return MsgFate::Corrupt;
        }
        MsgFate::Deliver
    }

    /// Deterministic backoff jitter factor in `[1, 2)` for retry
    /// attempt `attempt` of message `token`. Spreads synchronized
    /// timeouts without consuming RNG draws.
    #[inline]
    pub fn backoff_jitter(seed: u64, token: u64, attempt: u32) -> f64 {
        let h = mix64(
            seed ^ 0x6261_636B_6F66_6621
                ^ token.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (attempt as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
        );
        1.0 + unit(h)
    }

    /// The straggler slowdown factor for `device` at time `t` (1.0 when
    /// no window is active; overlapping windows multiply).
    pub fn straggler_slowdown(&self, device: usize, t: SimTime) -> f64 {
        let mut f = 1.0;
        for w in &self.stragglers {
            if w.device == device && w.from <= t && t < w.until {
                f *= w.slowdown.max(1.0);
            }
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn default_plan_is_inert() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        assert!(!p.lossy());
        for t in 0..100 {
            assert_eq!(p.msg_fate(1, 2, t, 0), MsgFate::Deliver);
        }
    }

    #[test]
    fn fate_is_pure_and_seed_dependent() {
        let mut a = FaultPlan::none();
        a.drop_prob = 0.2;
        a.corrupt_prob = 0.05;
        a.seed = 42;
        let b = a.clone();
        let mut differs_from_other_seed = false;
        let mut c = a.clone();
        c.seed = 43;
        for token in 0..1000u64 {
            assert_eq!(a.msg_fate(3, 7, token, 0), b.msg_fate(3, 7, token, 0));
            if a.msg_fate(3, 7, token, 0) != c.msg_fate(3, 7, token, 0) {
                differs_from_other_seed = true;
            }
        }
        assert!(differs_from_other_seed);
    }

    #[test]
    fn drop_rate_is_roughly_calibrated() {
        let mut p = FaultPlan::none();
        p.drop_prob = 0.10;
        p.seed = 7;
        let n = 100_000u64;
        let dropped = (0..n)
            .filter(|&t| p.msg_fate(1, 2, t, 0) == MsgFate::Drop)
            .count();
        let rate = dropped as f64 / n as f64;
        assert!(
            (0.09..0.11).contains(&rate),
            "drop rate {rate} not near 0.10"
        );
    }

    #[test]
    fn attempts_redraw_fate() {
        let mut p = FaultPlan::none();
        p.drop_prob = 0.5;
        p.seed = 11;
        // A message dropped at attempt 0 must eventually get through on
        // some retry: attempts give independent draws.
        let mut all_attempts_identical = true;
        for token in 0..64u64 {
            let f0 = p.msg_fate(1, 2, token, 0);
            if (1..8).any(|a| p.msg_fate(1, 2, token, a) != f0) {
                all_attempts_identical = false;
            }
        }
        assert!(!all_attempts_identical);
    }

    #[test]
    fn onset_gates_fate_checks_without_changing_them() {
        let mut p = FaultPlan::none();
        p.drop_prob = 0.3;
        p.seed = 5;
        let t = |us| SimTime::ZERO + SimDuration::from_us(us);
        let mut late = p.clone();
        late.onset = t(100);
        assert!(p.lossy_at(SimTime::ZERO));
        assert!(!late.lossy_at(t(99)));
        assert!(late.lossy_at(t(100)));
        // The draw itself is onset-independent: once active, a message's
        // fate equals the onset-zero plan's fate for that message.
        for token in 0..200u64 {
            assert_eq!(p.msg_fate(1, 2, token, 0), late.msg_fate(1, 2, token, 0));
        }
    }

    #[test]
    fn backoff_jitter_in_range_and_deterministic() {
        for token in 0..100u64 {
            for attempt in 0..5 {
                let j = FaultPlan::backoff_jitter(9, token, attempt);
                assert!((1.0..2.0).contains(&j));
                assert_eq!(j, FaultPlan::backoff_jitter(9, token, attempt));
            }
        }
    }

    #[test]
    fn straggler_windows_multiply() {
        let mut p = FaultPlan::none();
        let t = |us| SimTime::ZERO + SimDuration::from_us(us);
        p.stragglers.push(StragglerWindow {
            device: 0,
            from: t(10),
            until: t(20),
            slowdown: 2.0,
        });
        p.stragglers.push(StragglerWindow {
            device: 0,
            from: t(15),
            until: t(30),
            slowdown: 1.5,
        });
        assert_eq!(p.straggler_slowdown(0, t(5)), 1.0);
        assert_eq!(p.straggler_slowdown(0, t(12)), 2.0);
        assert_eq!(p.straggler_slowdown(0, t(17)), 3.0);
        assert_eq!(p.straggler_slowdown(0, t(25)), 1.5);
        assert_eq!(p.straggler_slowdown(1, t(12)), 1.0);
        assert!(p.is_active());
    }
}
