//! Statistics collection for simulation runs.
//!
//! Small, allocation-light accumulators used by the device, network, and
//! runtime models to report utilization, latency distributions, and
//! per-iteration timings.

use crate::time::{SimDuration, SimTime};

/// Engine-level counters for one `Sim`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SimStats {
    /// Events executed.
    pub events_executed: u64,
    /// Live events currently pending.
    pub pending: u64,
    /// High-water mark of the live pending-event count.
    pub peak_pending: u64,
}

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Accumulator {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Empty accumulator.
    pub fn new() -> Self {
        Accumulator {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Record a duration sample in nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_ns() as f64);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation (0 if fewer than 2 samples).
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Merge another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &Accumulator) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Tracks what fraction of simulated time a resource spent busy.
///
/// Call [`BusyTracker::set_busy`] on every busy/idle transition; at the end
/// of the run, [`BusyTracker::utilization`] gives busy-time / elapsed-time.
#[derive(Debug, Clone, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BusyTracker {
    busy_since: Option<SimTime>,
    accumulated: SimDuration,
    transitions: u64,
}

impl BusyTracker {
    /// New tracker, initially idle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a busy/idle transition at `now`. Redundant transitions (busy
    /// while busy) are ignored.
    pub fn set_busy(&mut self, now: SimTime, busy: bool) {
        match (self.busy_since, busy) {
            (None, true) => {
                self.busy_since = Some(now);
                self.transitions += 1;
            }
            (Some(since), false) => {
                self.accumulated += now.since(since);
                self.busy_since = None;
                self.transitions += 1;
            }
            _ => {}
        }
    }

    /// Total busy time up to `now` (counting an open busy interval).
    pub fn busy_time(&self, now: SimTime) -> SimDuration {
        match self.busy_since {
            Some(since) => self.accumulated + now.since(since),
            None => self.accumulated,
        }
    }

    /// Busy fraction of the window `[start, now]`; 0 for an empty window.
    pub fn utilization(&self, start: SimTime, now: SimTime) -> f64 {
        let window = now.since(start).as_ns();
        if window == 0 {
            return 0.0;
        }
        self.busy_time(now).as_ns() as f64 / window as f64
    }

    /// Number of busy/idle transitions observed.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }
}

/// Fixed-boundary log-scale histogram of durations (ns), 1 ns .. ~18 s.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LogHistogram {
    /// bucket `i` counts samples in `[2^i, 2^(i+1))` ns
    buckets: Vec<u64>,
    count: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Empty histogram with 64 power-of-two buckets.
    pub fn new() -> Self {
        LogHistogram {
            buckets: vec![0; 64],
            count: 0,
        }
    }

    /// Record one duration.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_ns().max(1);
        let bucket = 63 - ns.leading_zeros() as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
    }

    /// Total samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Approximate quantile (returns the upper bound of the bucket that
    /// contains the q-th sample). `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return SimDuration::from_ns(1u64 << (i + 1).min(63));
            }
        }
        SimDuration::MAX
    }
}

/// Per-iteration timing record for an application run.
#[derive(Debug, Clone, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct IterationTimer {
    marks: Vec<SimTime>,
}

impl IterationTimer {
    /// New, empty timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the completion instant of the next iteration.
    pub fn mark(&mut self, now: SimTime) {
        self.marks.push(now);
    }

    /// Number of marks recorded.
    pub fn len(&self) -> usize {
        self.marks.len()
    }

    /// True if no marks were recorded.
    pub fn is_empty(&self) -> bool {
        self.marks.is_empty()
    }

    /// Mean time per iteration over marks `[skip, ..]`, measured from mark
    /// `skip - 1` (or time zero when `skip == 0`). `skip` implements the
    /// paper's warm-up iterations that are excluded from the timers.
    pub fn mean_per_iteration(&self, skip: usize) -> Option<SimDuration> {
        if self.marks.len() <= skip {
            return None;
        }
        let start = if skip == 0 {
            SimTime::ZERO
        } else {
            self.marks[skip - 1]
        };
        let end = *self.marks.last().expect("non-empty");
        let iters = (self.marks.len() - skip) as u64;
        Some(end.since(start) / iters)
    }

    /// All recorded marks.
    pub fn marks(&self) -> &[SimTime] {
        &self.marks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_basic_moments() {
        let mut a = Accumulator::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            a.record(x);
        }
        assert_eq!(a.count(), 8);
        assert!((a.mean() - 5.0).abs() < 1e-12);
        assert!((a.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(a.min(), 2.0);
        assert_eq!(a.max(), 9.0);
        assert!((a.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn accumulator_empty_is_zeroes() {
        let a = Accumulator::new();
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.std_dev(), 0.0);
        assert_eq!(a.min(), 0.0);
        assert_eq!(a.max(), 0.0);
    }

    #[test]
    fn accumulator_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Accumulator::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut left = Accumulator::new();
        let mut right = Accumulator::new();
        for &x in &xs[..37] {
            left.record(x);
        }
        for &x in &xs[37..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.std_dev() - whole.std_dev()).abs() < 1e-9);
    }

    #[test]
    fn busy_tracker_utilization() {
        let t = |ns| SimTime::from_ns(ns);
        let mut b = BusyTracker::new();
        b.set_busy(t(10), true);
        b.set_busy(t(30), false);
        b.set_busy(t(50), true);
        b.set_busy(t(60), false);
        assert_eq!(b.busy_time(t(100)).as_ns(), 30);
        assert!((b.utilization(t(0), t(100)) - 0.3).abs() < 1e-12);
        assert_eq!(b.transitions(), 4);
    }

    #[test]
    fn busy_tracker_open_interval_counts() {
        let t = |ns| SimTime::from_ns(ns);
        let mut b = BusyTracker::new();
        b.set_busy(t(0), true);
        assert_eq!(b.busy_time(t(40)).as_ns(), 40);
        // redundant busy is ignored
        b.set_busy(t(20), true);
        assert_eq!(b.busy_time(t(40)).as_ns(), 40);
    }

    #[test]
    fn histogram_quantiles_are_monotone() {
        let mut h = LogHistogram::new();
        for i in 1..=1000u64 {
            h.record(SimDuration::from_ns(i));
        }
        assert_eq!(h.count(), 1000);
        let q10 = h.quantile(0.1);
        let q50 = h.quantile(0.5);
        let q99 = h.quantile(0.99);
        assert!(q10 <= q50 && q50 <= q99);
        assert!(q99.as_ns() >= 512);
    }

    #[test]
    fn iteration_timer_with_warmup() {
        let mut t = IterationTimer::new();
        // 2 warm-up iterations of 100 ns then 3 timed iterations of 10 ns.
        t.mark(SimTime::from_ns(100));
        t.mark(SimTime::from_ns(200));
        t.mark(SimTime::from_ns(210));
        t.mark(SimTime::from_ns(220));
        t.mark(SimTime::from_ns(230));
        let per = t.mean_per_iteration(2).expect("has timed iterations");
        assert_eq!(per.as_ns(), 10);
        assert!(t.mean_per_iteration(5).is_none());
        assert_eq!(t.mean_per_iteration(0).expect("all").as_ns(), 46);
    }
}
