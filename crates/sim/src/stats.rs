//! The busy-time tracker the device and runtime models report
//! utilization with.

use crate::time::{SimDuration, SimTime};

/// Tracks what fraction of simulated time a resource spent busy.
///
/// Call [`BusyTracker::set_busy`] on every busy/idle transition; at the end
/// of the run, [`BusyTracker::utilization`] gives busy-time / elapsed-time.
#[derive(Debug, Clone, Default)]
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
