//! Execution engines inside a device: a processor-sharing compute engine
//! with strict priority classes, and FIFO DMA engines (one per copy
//! direction, like the dual copy engines of a real GPU).
//!
//! Engines know nothing about streams or graphs; they execute opaque jobs
//! identified by `u64` and report completions. The device translates
//! between stream/graph state and engine jobs.

use std::collections::VecDeque;

use gaat_sim::{SimDuration, SimTime};

/// Number of distinct stream priority classes (0 = lowest).
pub const PRIORITY_CLASSES: usize = 4;

/// Opaque engine job identifier (assigned by the device).
pub type JobId = u64;

#[derive(Debug, Clone)]
struct ComputeJob {
    id: JobId,
    class: usize,
    /// Remaining dedicated-device work, in (fractional) nanoseconds.
    remaining: f64,
}

/// Processor-sharing compute engine with strict priority classes.
///
/// Jobs of the highest priority class present share the device's
/// throughput equally (each progresses at rate `1/n`); lower classes are
/// paused entirely while a higher class is resident. At most
/// `slots` jobs per class are resident; the rest wait in per-class FIFO
/// queues. This approximates how CUDA high-priority streams displace
/// thread blocks of low-priority streams.
#[derive(Debug, Clone)]
pub struct ComputeEngine {
    slots: usize,
    running: Vec<ComputeJob>,
    queued: [VecDeque<ComputeJob>; PRIORITY_CLASSES],
    last: SimTime,
}

impl ComputeEngine {
    /// Engine with `slots` resident jobs per priority class.
    pub fn new(slots: usize) -> Self {
        ComputeEngine {
            slots: slots.max(1),
            running: Vec::new(),
            queued: Default::default(),
            last: SimTime::ZERO,
        }
    }

    /// Number of currently resident jobs.
    pub fn resident(&self) -> usize {
        self.running.len()
    }

    /// Drop every running and queued job without completing it (failure
    /// recovery).
    pub fn clear(&mut self, now: SimTime) {
        self.running.clear();
        for q in &mut self.queued {
            q.clear();
        }
        self.last = now;
    }

    fn top_class(&self) -> Option<usize> {
        self.running.iter().map(|j| j.class).max()
    }

    fn running_in_class(&self, class: usize) -> usize {
        self.running.iter().filter(|j| j.class == class).count()
    }

    /// Account for progress since the last call; must be invoked (via the
    /// device) before any mutation and at every predicted completion time.
    /// Appends finished job ids to `done`.
    pub fn advance(&mut self, now: SimTime, done: &mut Vec<JobId>) {
        let elapsed = now.since(self.last).as_ns() as f64;
        self.last = now;
        if elapsed > 0.0 {
            if let Some(top) = self.top_class() {
                let n = self.running_in_class(top) as f64;
                let share = elapsed / n;
                for j in self.running.iter_mut().filter(|j| j.class == top) {
                    j.remaining -= share;
                }
            }
        }
        // Collect completions (remaining within half a nanosecond of zero
        // counts as done — predicted wakeups are rounded up to integer ns).
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].remaining <= 0.5 {
                let j = self.running.swap_remove(i);
                done.push(j.id);
            } else {
                i += 1;
            }
        }
        self.admit();
    }

    fn admit(&mut self) {
        for class in (0..PRIORITY_CLASSES).rev() {
            while self.running_in_class(class) < self.slots {
                match self.queued[class].pop_front() {
                    Some(j) => self.running.push(j),
                    None => break,
                }
            }
        }
    }

    /// Submit a job with `work` of dedicated-device time at priority
    /// `class`. The caller must have advanced the engine to the current
    /// instant first (the device wrapper guarantees this).
    pub fn submit(&mut self, id: JobId, class: usize, work: SimDuration) {
        let job = ComputeJob {
            id,
            class,
            remaining: work.as_ns().max(1) as f64,
        };
        if self.running_in_class(class) < self.slots {
            self.running.push(job);
        } else {
            self.queued[class].push_back(job);
        }
    }

    /// Predicted time of the next job completion, given no further
    /// submissions.
    pub fn next_completion(&self) -> Option<SimTime> {
        let top = self.top_class()?;
        let n = self.running_in_class(top) as f64;
        let min_remaining = self
            .running
            .iter()
            .filter(|j| j.class == top)
            .map(|j| j.remaining)
            .fold(f64::INFINITY, f64::min);
        let ns = (min_remaining * n).ceil().max(1.0) as u64;
        Some(self.last + SimDuration::from_ns(ns))
    }
}

#[derive(Debug, Clone)]
struct DmaJob {
    id: JobId,
    duration: SimDuration,
}

/// FIFO DMA engine with priority-ordered admission: one transfer at a
/// time, back-to-back, higher classes first among the waiting.
#[derive(Debug, Clone)]
pub struct DmaEngine {
    current: Option<(JobId, SimTime)>,
    queued: [VecDeque<DmaJob>; PRIORITY_CLASSES],
}

impl Default for DmaEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl DmaEngine {
    /// Idle engine.
    pub fn new() -> Self {
        DmaEngine {
            current: None,
            queued: Default::default(),
        }
    }

    /// Drop the in-flight transfer and every queued one without
    /// completing them (failure recovery).
    pub fn clear(&mut self) {
        self.current = None;
        for q in &mut self.queued {
            q.clear();
        }
    }

    fn pop_next(&mut self) -> Option<DmaJob> {
        for class in (0..PRIORITY_CLASSES).rev() {
            if let Some(j) = self.queued[class].pop_front() {
                return Some(j);
            }
        }
        None
    }

    /// Account for all completions up to `now`; transfers chain
    /// back-to-back at their exact finish times even if `advance` is called
    /// late. Appends finished job ids to `done`.
    pub fn advance(&mut self, now: SimTime, done: &mut Vec<JobId>) {
        while let Some((id, finish)) = self.current {
            if finish > now {
                break;
            }
            done.push(id);
            self.current = self.pop_next().map(|j| (j.id, finish + j.duration));
        }
    }

    /// Submit a transfer of the given duration at priority `class`.
    /// Caller advances first.
    pub fn submit(&mut self, now: SimTime, id: JobId, class: usize, duration: SimDuration) {
        if self.current.is_none() {
            self.current = Some((id, now + duration));
        } else {
            self.queued[class].push_back(DmaJob { id, duration });
        }
    }

    /// Finish time of the in-flight transfer, if any.
    pub fn next_completion(&self) -> Option<SimTime> {
        self.current.map(|(_, t)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }
    fn d(ns: u64) -> SimDuration {
        SimDuration::from_ns(ns)
    }

    #[test]
    fn single_kernel_runs_at_full_rate() {
        let mut e = ComputeEngine::new(4);
        let mut done = Vec::new();
        e.advance(t(0), &mut done);
        e.submit(1, 0, d(1000));
        assert_eq!(e.next_completion(), Some(t(1000)));
        e.advance(t(1000), &mut done);
        assert_eq!(done, vec![1]);
    }

    #[test]
    fn two_equal_kernels_share_throughput() {
        let mut e = ComputeEngine::new(4);
        let mut done = Vec::new();
        e.advance(t(0), &mut done);
        e.submit(1, 0, d(1000));
        e.submit(2, 0, d(1000));
        // each progresses at rate 1/2 → both done at 2000
        assert_eq!(e.next_completion(), Some(t(2000)));
        e.advance(t(2000), &mut done);
        done.sort_unstable();
        assert_eq!(done, vec![1, 2]);
    }

    #[test]
    fn late_arrival_shares_remaining_work() {
        let mut e = ComputeEngine::new(4);
        let mut done = Vec::new();
        e.advance(t(0), &mut done);
        e.submit(1, 0, d(1000));
        // at t=500, job 1 has 500 left; job 2 arrives with 500
        e.advance(t(500), &mut done);
        e.submit(2, 0, d(500));
        // both have 500 remaining at rate 1/2 → complete at 1500
        assert_eq!(e.next_completion(), Some(t(1500)));
        e.advance(t(1500), &mut done);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn high_priority_pauses_low() {
        let mut e = ComputeEngine::new(4);
        let mut done = Vec::new();
        e.advance(t(0), &mut done);
        e.submit(1, 0, d(1000)); // low priority
        e.advance(t(200), &mut done); // 800 left
        e.submit(2, 3, d(300)); // high priority
                                // job 2 runs alone: completes at 500
        assert_eq!(e.next_completion(), Some(t(500)));
        e.advance(t(500), &mut done);
        assert_eq!(done, vec![2]);
        // job 1 resumes with 800 left → completes at 1300
        assert_eq!(e.next_completion(), Some(t(1300)));
        e.advance(t(1300), &mut done);
        assert_eq!(done, vec![2, 1]);
    }

    #[test]
    fn slots_queue_excess_jobs() {
        let mut e = ComputeEngine::new(2);
        let mut done = Vec::new();
        e.advance(t(0), &mut done);
        for id in 0..4 {
            e.submit(id, 0, d(1000));
        }
        assert_eq!(e.resident(), 2);
        // two resident at rate 1/2: first pair completes at 2000
        e.advance(t(2000), &mut done);
        assert_eq!(done.len(), 2);
        assert_eq!(e.resident(), 2);
        e.advance(t(4000), &mut done);
        assert_eq!(done.len(), 4);
    }

    #[test]
    fn spurious_advance_is_harmless() {
        let mut e = ComputeEngine::new(4);
        let mut done = Vec::new();
        e.advance(t(0), &mut done);
        e.submit(1, 0, d(1000));
        for now in [100, 250, 600, 999] {
            e.advance(t(now), &mut done);
            assert!(done.is_empty());
        }
        e.advance(t(1000), &mut done);
        assert_eq!(done, vec![1]);
    }

    #[test]
    fn dma_fifo_back_to_back() {
        let mut e = DmaEngine::new();
        let mut done = Vec::new();
        e.advance(t(0), &mut done);
        e.submit(t(0), 1, 0, d(100));
        e.submit(t(0), 2, 0, d(100));
        assert_eq!(e.next_completion(), Some(t(100)));
        // advance late: both still finish at exact chained times
        e.advance(t(500), &mut done);
        assert_eq!(done, vec![1, 2]);
    }

    #[test]
    fn dma_priority_jumps_queue() {
        let mut e = DmaEngine::new();
        let mut done = Vec::new();
        e.advance(t(0), &mut done);
        e.submit(t(0), 1, 0, d(100));
        e.submit(t(0), 2, 0, d(100));
        e.submit(t(0), 3, 3, d(100)); // high priority, queued behind current only
        e.advance(t(300), &mut done);
        assert_eq!(done, vec![1, 3, 2]);
    }

    #[test]
    fn dma_idle_gap_starts_at_submit_time() {
        let mut e = DmaEngine::new();
        let mut done = Vec::new();
        e.advance(t(0), &mut done);
        e.submit(t(0), 1, 0, d(100));
        e.advance(t(100), &mut done);
        assert_eq!(done, vec![1]);
        done.clear();
        e.advance(t(1000), &mut done);
        e.submit(t(1000), 2, 0, d(50));
        assert_eq!(e.next_completion(), Some(t(1050)));
    }

    #[test]
    fn processor_sharing_conserves_throughput() {
        // 10 jobs of 1000 ns each on one engine: total completion at
        // 10_000 ns regardless of sharing pattern.
        let mut e = ComputeEngine::new(16);
        let mut done = Vec::new();
        e.advance(t(0), &mut done);
        for id in 0..10 {
            e.submit(id, 0, d(1000));
        }
        assert_eq!(e.next_completion(), Some(t(10_000)));
        e.advance(t(10_000), &mut done);
        assert_eq!(done.len(), 10);
    }
}
