//! Host probes recorded next to every run, and the process's peak
//! resident set.
//!
//! Two fixed kernels separate the kinds of host noise: an integer spin
//! (the `gaat_bench::throttle` probe) moves with the clock and CPU
//! share, while a pointer chase over a 2 MiB ring moves with cache and
//! memory contention from neighbours. A run whose probes moved between
//! its start and end was measured on a disturbed host.

use std::time::Instant;

use gaat_bench::throttle::ThrottleGuard;

use crate::stats::median;
use crate::trace::Tracer;

/// Samples per probe; the median is reported.
const SAMPLES: usize = 3;
/// Ring entries: 2 MiB of `u32`, about one core's L2.
const CHASE_LEN: usize = (2 << 20) / 4;
/// Dependent loads per chase sample.
const CHASE_STEPS: usize = 1 << 21;

/// Median probe times, ms.
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    pub alu_ms: f64,
    pub l2_chase_ms: f64,
}

/// A ring of successor indices visiting every entry once per lap, so
/// each load depends on the previous one and prefetchers cannot help.
pub struct Chase(Vec<u32>);

impl Chase {
    pub fn new() -> Self {
        // Sattolo's shuffle of the identity is a single cycle.
        let mut next: Vec<u32> = (0..CHASE_LEN as u32).collect();
        for i in (1..CHASE_LEN).rev() {
            let j = (gaat_sim::mix64(i as u64 ^ 0x9E37_79B9_7F4A_7C15) % i as u64) as usize;
            next.swap(i, j);
        }
        Chase(next)
    }

    fn sample_ms(&self) -> f64 {
        let start = Instant::now();
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.0[at as usize];
        }
        std::hint::black_box(at);
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// One ALU probe window, timed from outside.
fn alu_sample_ms() -> f64 {
    let start = Instant::now();
    std::hint::black_box(ThrottleGuard::open(1));
    start.elapsed().as_secs_f64() * 1e3
}

/// Take both probes (a `host.probe` span when tracing).
pub fn take(chase: &Chase, tr: &mut Tracer) -> Probes {
    let t = tr.enter("host.probe", "host");
    let alu: Vec<f64> = (0..SAMPLES).map(|_| alu_sample_ms()).collect();
    let l2: Vec<f64> = (0..SAMPLES).map(|_| chase.sample_ms()).collect();
    tr.exit(t);
    Probes {
        alu_ms: median(&alu),
        l2_chase_ms: median(&l2),
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chase_ring_is_one_cycle_through_every_entry() {
        let chase = Chase::new();
        let mut at = 0u32;
        for step in 1..=CHASE_LEN {
            at = chase.0[at as usize];
            if at == 0 {
                assert_eq!(step, CHASE_LEN, "returned to the start early");
            }
        }
        assert_eq!(at, 0);
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
