//! Order statistics, the tail-percentile rule, run fingerprints and the
//! failure accounting behind a result's `attempted` / `failed` counts.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median: the middle value, or the mean of the two middle values for
/// an even count; 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`, the method the spread of a set of
/// runs is judged by.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let q = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100); 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest of p90, p99, p99.9 and p99.99 that still has at least
/// ten of `n` samples beyond it, or `None` when even p90 has fewer.
/// A tail percentile with fewer samples beyond it is one outlier's value.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [(90.0, 100), (99.0, 1_000), (99.9, 10_000), (99.99, 100_000)]
        .into_iter()
        .rev()
        .find(|&(_, need)| n >= need)
        .map(|(p, _)| p)
}

/// The deterministic outcome of one simulated run. Repetitions of one
/// workload at one seed must all produce the same tuple; a difference
/// means the program is not replaying the same work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Virtual makespan, ns.
    pub makespan_ns: u64,
    /// Events the engine executed.
    pub events: u64,
    /// Entry methods the runtime executed.
    pub entries: u64,
    /// Bytes the fabric carried.
    pub net_bytes: u64,
}

/// Compares every later value against the first one it saw.
#[derive(Debug)]
pub struct Replay<T> {
    first: Option<T>,
}

impl<T: PartialEq + Clone> Replay<T> {
    pub fn new() -> Self {
        Replay { first: None }
    }

    /// True if `got` equals the first value seen (which the first call
    /// records).
    pub fn matches(&mut self, got: &T) -> bool {
        match &self.first {
            Some(first) => first == got,
            None => {
                self.first = Some(got.clone());
                true
            }
        }
    }

    /// The first value seen, if any.
    pub fn first(&self) -> Option<&T> {
        self.first.as_ref()
    }
}

/// Attempts and failures: one attempt per timed repetition (per scenario
/// record for a sweep) and per correctness check.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Attempts {
    /// Attempts made.
    pub attempted: u64,
    /// Attempts that failed.
    pub failed: u64,
}

impl Attempts {
    /// Count one attempt.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed over attempted (0 before any attempt).
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // Two samples extrapolate past both ends, as Python does:
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(spread(&ten), (8.25 - 2.75) / 5.5);
    }

    #[test]
    fn nearest_rank_percentile() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(1024), Some(99.0));
        assert_eq!(tail_percentile(5120), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // The rule holds at the boundary: p99 of 1,000 has 10 beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = percentile(&xs, tail_percentile(xs.len()).unwrap());
        assert_eq!(xs.iter().filter(|&&x| x > p).count(), 10);
    }

    #[test]
    fn fingerprint_mismatch_counts_as_a_failure() {
        let fp = Fingerprint {
            makespan_ns: 1_000,
            events: 50,
            entries: 20,
            net_bytes: 4_096,
        };
        let mut replay = Replay::new();
        let mut attempts = Attempts::default();
        attempts.record(replay.matches(&fp));
        attempts.record(replay.matches(&fp));
        let forced = Fingerprint { events: 51, ..fp };
        attempts.record(replay.matches(&forced));
        assert_eq!(replay.first(), Some(&fp));
        assert_eq!(
            attempts,
            Attempts {
                attempted: 3,
                failed: 1
            }
        );
        assert_eq!(attempts.fail_frac(), 1.0 / 3.0);
    }
}
