//! Steady-state throttle guard for the wall-clock benchmarks.
//!
//! Wall-clock numbers and ratios are only comparable across runs if the
//! host sustained a steady clock for the whole benchmark. A
//! thermally-throttled (or noisy-neighbour) host skews the later
//! workloads against the earlier ones — the sustained-vs-burst
//! discrepancies we have chased before came from exactly this. The
//! guard brackets the benchmark with windows of a fixed CPU-bound probe
//! kernel and records the drift: if the machine got materially slower
//! between the opening and closing window, the output says so instead
//! of silently recording biased numbers.

use std::time::Instant;

/// Probe-kernel iterations per sample: an integer-mix spin sized to run
/// for a few milliseconds on a contemporary core — long enough to be
/// scheduler-noise-tolerant, short enough that a window adds negligible
/// wall time to the benchmark.
const PROBE_ITERS: u64 = 8_000_000;

/// Slowdown of the closing window vs the opening window above which we
/// flag the run. 10% is far beyond timer noise for a multi-millisecond
/// probe but well within what sustained thermal throttling produces.
const SUSPECT_RATIO: f64 = 1.10;

/// One fixed CPU-bound probe sample; returns wall seconds.
fn probe_once() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..PROBE_ITERS {
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (x >> 27) ^ i;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Brackets a benchmark run with probe windows.
pub struct ThrottleGuard {
    window: usize,
    before: Vec<f64>,
    after: Vec<f64>,
}

impl ThrottleGuard {
    /// Open the guard and measure the opening window of `window` probe
    /// samples (call before the first workload).
    pub fn open(window: usize) -> Self {
        let before = (0..window).map(|_| probe_once()).collect();
        ThrottleGuard {
            window,
            before,
            after: Vec::new(),
        }
    }

    /// Measure the closing window (call after the last workload).
    pub fn close(&mut self) {
        self.after = (0..self.window).map(|_| probe_once()).collect();
    }

    /// Closing-window mean probe time over opening-window mean: > 1
    /// means the machine got slower while the benchmark ran.
    pub fn slowdown_ratio(&self) -> f64 {
        let b = mean(&self.before);
        if b > 0.0 {
            mean(&self.after) / b
        } else {
            1.0
        }
    }

    /// True when the drift between the windows exceeds the suspect
    /// threshold.
    pub fn throttle_suspected(&self) -> bool {
        self.slowdown_ratio() > SUSPECT_RATIO
    }

    /// The guard's verdict and window stats as a JSON object value
    /// (embed as `"steady_state": <this>`). Hand-formatted like the rest
    /// of the BENCH JSON.
    pub fn json_object(&self) -> String {
        let min = |xs: &[f64]| xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = |xs: &[f64]| xs.iter().cloned().fold(0.0f64, f64::max);
        format!(
            "{{\"window\": {}, \"probe_iters\": {}, \
             \"before_mean_ms\": {:.3}, \"before_min_ms\": {:.3}, \"before_max_ms\": {:.3}, \
             \"after_mean_ms\": {:.3}, \"after_min_ms\": {:.3}, \"after_max_ms\": {:.3}, \
             \"slowdown_ratio\": {:.4}, \"thermal_throttle_suspected\": {}}}",
            self.window,
            PROBE_ITERS,
            mean(&self.before) * 1e3,
            min(&self.before) * 1e3,
            max(&self.before) * 1e3,
            mean(&self.after) * 1e3,
            min(&self.after) * 1e3,
            max(&self.after) * 1e3,
            self.slowdown_ratio(),
            self.throttle_suspected(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_machine_is_not_flagged() {
        // Back-to-back windows with no benchmark in between: whatever
        // this host is doing, the two windows see the same machine.
        let mut g = ThrottleGuard::open(3);
        g.close();
        assert!(
            g.slowdown_ratio() < 1.5,
            "adjacent windows should be comparable: {}",
            g.slowdown_ratio()
        );
        let json = g.json_object();
        assert!(json.contains("\"thermal_throttle_suspected\": "));
        assert!(json.contains("\"slowdown_ratio\": "));
    }

    #[test]
    fn synthetic_drift_is_flagged() {
        let g = ThrottleGuard {
            window: 2,
            before: vec![0.010, 0.010],
            after: vec![0.013, 0.013],
        };
        assert!(g.slowdown_ratio() > 1.25);
        assert!(g.throttle_suspected());
        assert!(g
            .json_object()
            .contains("\"thermal_throttle_suspected\": true"));
    }
}
