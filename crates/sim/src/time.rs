//! Virtual time for the discrete-event simulation.
//!
//! All simulated time is kept in integer **nanoseconds** so that event
//! ordering is exact and runs are bit-reproducible across platforms. Two
//! newtypes are provided: [`SimTime`] (a point on the simulation clock) and
//! [`SimDuration`] (a span between two points). Arithmetic between them is
//! defined the obvious way and saturates rather than wrapping, so a
//! mis-calibrated model produces a visibly huge time instead of silent
//! wraparound.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, in nanoseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The beginning of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "never" for wakeups.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since the start of the run.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Seconds as a float, for reporting only.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Milliseconds as a float, for reporting only.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    /// Microseconds as a float, for reporting only.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 * 1e-3
    }

    /// Span from an earlier instant to `self`, saturating to zero if
    /// `earlier` is actually later (callers normally guarantee ordering).
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Largest representable span; used as "infinite".
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// nanosecond and clamping negatives to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Seconds as a float, for reporting only.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Milliseconds as a float, for reporting only.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    /// Microseconds as a float, for reporting only.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 * 1e-3
    }

    /// Multiply by a non-negative float factor (used for jitter and
    /// throughput-sharing), rounding to the nearest nanosecond.
    #[inline]
    pub fn mul_f64(self, f: f64) -> SimDuration {
        debug_assert!(f >= 0.0, "negative duration scale {f}");
        SimDuration((self.0 as f64 * f).round() as u64)
    }

    /// The longer of two spans.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The shorter of two spans.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

/// Pretty-print with an automatically chosen unit (ns / µs / ms / s).
fn fmt_ns(ns: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ns < 10_000 {
        write!(f, "{ns}ns")
    } else if ns < 10_000_000 {
        write!(f, "{:.2}us", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        write!(f, "{:.3}ms", ns as f64 / 1e6)
    } else {
        write!(f, "{:.3}s", ns as f64 / 1e9)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_ns(1_000);
        let d = SimDuration::from_us(3);
        assert_eq!((t + d).as_ns(), 4_000);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).since(t), d);
    }

    #[test]
    fn saturating_behaviour() {
        let t = SimTime::from_ns(5);
        assert_eq!((t - SimDuration::from_ns(10)).as_ns(), 0);
        assert_eq!(t.since(SimTime::from_ns(100)), SimDuration::ZERO);
        assert_eq!(SimTime::MAX + SimDuration::from_ns(1), SimTime::MAX);
    }

    #[test]
    fn unit_constructors() {
        assert_eq!(SimDuration::from_secs(2).as_ns(), 2_000_000_000);
        assert_eq!(SimDuration::from_ms(2).as_ns(), 2_000_000);
        assert_eq!(SimDuration::from_us(2).as_ns(), 2_000);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_ns(), 1_500_000_000);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn float_views() {
        let d = SimDuration::from_ms(1500);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((d.as_millis_f64() - 1500.0).abs() < 1e-9);
        assert!((d.as_micros_f64() - 1.5e6).abs() < 1e-6);
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_ns(1000);
        assert_eq!(d.mul_f64(1.5).as_ns(), 1500);
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
        assert_eq!(d.mul_f64(0.0004).as_ns(), 0);
    }

    #[test]
    fn display_units() {
        assert_eq!(SimDuration::from_ns(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_us(123).to_string(), "123.00us");
        assert_eq!(SimDuration::from_ms(45).to_string(), "45.000ms");
        assert_eq!(SimDuration::from_secs(45).to_string(), "45.000s");
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_ns(3);
        let b = SimTime::from_ns(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(
            SimDuration::from_ns(3).max(SimDuration::from_ns(9)).as_ns(),
            9
        );
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4u64).map(SimDuration::from_ns).sum();
        assert_eq!(total.as_ns(), 10);
    }
}
