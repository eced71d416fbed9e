//! Processing elements: one scheduler per PE, message-driven.
//!
//! A PE repeatedly pops the highest-priority pending message and executes
//! the target chare's entry method, staying busy for the simulated CPU
//! time the method charges. A PE can also be *blocked* — the state a
//! synchronous `cudaStreamSynchronize` puts the host thread in (paper
//! Fig. 4): a blocked PE does not process its queue at all, which is
//! exactly why synchronous completion destroys overlap.

use std::collections::VecDeque;

use gaat_sim::{SimDuration, SimTime};

use crate::msg::{ChareId, Envelope, MsgPriority};

/// Per-PE statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct PeStats {
    /// Messages executed.
    pub messages: u64,
    /// Total CPU time charged by entry methods (for utilization reports,
    /// cf. the paper's discussion of CUDA Graphs benefiting
    /// high-CPU-utilization runs).
    pub cpu_time: SimDuration,
}

/// One processing element.
#[derive(Debug, Clone, Default)]
pub struct Pe {
    high: VecDeque<(ChareId, Envelope)>,
    normal: VecDeque<(ChareId, Envelope)>,
    /// The PE is executing an entry method until this time.
    pub busy_until: Option<SimTime>,
    /// Blocked on a synchronous GPU wait; the queue is frozen.
    pub blocked: bool,
    /// A dispatch event is pending (dedup flag for the machine).
    pub dispatch_scheduled: bool,
    /// Counters.
    pub stats: PeStats,
}

impl Pe {
    /// Idle PE.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue a message for `chare`.
    pub fn push(&mut self, chare: ChareId, env: Envelope) {
        match env.priority {
            MsgPriority::High => self.high.push_back((chare, env)),
            MsgPriority::Normal => self.normal.push_back((chare, env)),
        }
    }

    /// Pop the next message (high priority first).
    pub fn pop(&mut self) -> Option<(ChareId, Envelope)> {
        self.high.pop_front().or_else(|| self.normal.pop_front())
    }

    /// Number of queued messages.
    pub fn queued(&self) -> usize {
        self.high.len() + self.normal.len()
    }

    /// Drop all queued messages and execution state (failure recovery).
    /// Counters survive. A dispatch event already in flight will find an
    /// empty queue and do nothing; clearing `dispatch_scheduled` lets
    /// post-recovery traffic schedule a fresh one.
    pub fn clear(&mut self) {
        self.high.clear();
        self.normal.clear();
        self.busy_until = None;
        self.blocked = false;
        self.dispatch_scheduled = false;
    }

    /// Whether the PE can start executing a message right now.
    pub fn ready(&self, now: SimTime) -> bool {
        !self.blocked
            && self.queued() > 0
            && match self.busy_until {
                None => true,
                Some(t) => t <= now,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::EntryId;

    #[test]
    fn priority_order() {
        let mut pe = Pe::new();
        pe.push(ChareId(0), Envelope::empty(EntryId(0)));
        pe.push(ChareId(1), Envelope::empty(EntryId(1)).high_priority());
        pe.push(ChareId(2), Envelope::empty(EntryId(2)));
        let order: Vec<usize> = std::iter::from_fn(|| pe.pop().map(|(c, _)| c.0)).collect();
        assert_eq!(order, vec![1, 0, 2]);
    }

    #[test]
    fn ready_logic() {
        let mut pe = Pe::new();
        assert!(!pe.ready(SimTime::ZERO), "empty queue is not ready");
        pe.push(ChareId(0), Envelope::empty(EntryId(0)));
        assert!(pe.ready(SimTime::ZERO));
        pe.busy_until = Some(SimTime::from_ns(100));
        assert!(!pe.ready(SimTime::from_ns(50)));
        assert!(pe.ready(SimTime::from_ns(100)));
        pe.blocked = true;
        assert!(!pe.ready(SimTime::from_ns(200)));
    }

    #[test]
    fn fifo_within_class() {
        let mut pe = Pe::new();
        for i in 0..5 {
            pe.push(ChareId(i), Envelope::empty(EntryId(0)));
        }
        let order: Vec<usize> = std::iter::from_fn(|| pe.pop().map(|(c, _)| c.0)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }
}
