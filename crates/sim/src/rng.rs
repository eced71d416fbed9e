//! Deterministic, splittable random numbers.
//!
//! The simulation must be bit-reproducible across runs *and* across
//! versions of third-party crates, so the generator is implemented here:
//! xoshiro256** seeded through SplitMix64, the standard combination. Each
//! model component derives its own independent stream from a root seed and
//! a stable `u64` stream id, so adding RNG consumers in one subsystem never
//! perturbs the draw sequence of another.

/// SplitMix64 step, used for seeding and stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    mix64(*state)
}

/// The SplitMix64 finalizer as a stateless `u64 -> u64` hash. Model code
/// uses this to derive per-entity randomness from stable identifiers
/// (e.g. per-message jitter from `(src, dst, token)`) so that unrelated
/// draws elsewhere cannot perturb the result.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** generator with stream splitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Seed a generator from a root seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent stream for component `stream`. The derivation
    /// hashes (seed-state, stream) through SplitMix64 so streams with
    /// adjacent ids are uncorrelated.
    pub fn stream(&self, stream: u64) -> SimRng {
        let mut sm = self.s[0] ^ self.s[2] ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, n)`. `n` must be nonzero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Lemire's multiply-shift rejection-free approximation is fine for
        // simulation purposes (bias < 2^-64 * n).
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn streams_are_independent_of_parent_draws() {
        let root = SimRng::new(7);
        let s1 = root.stream(3);
        let mut root2 = SimRng::new(7);
        let _ = root2.next_u64(); // consuming from a clone must not matter:
        let s2 = SimRng::new(7).stream(3);
        assert_eq!(s1, s2);
        assert_ne!(s1, root.stream(4));
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = SimRng::new(11);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c} too skewed");
        }
    }
}
