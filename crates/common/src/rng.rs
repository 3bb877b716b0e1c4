//! Deterministic random numbers for workloads and the exploration engine.
//!
//! The simulator itself is fully deterministic; workloads use [`SimRng`]
//! for stochastic decisions (transaction mixes, task sizes) so that a given
//! seed reproduces a run cycle-for-cycle. The generator is an in-repo
//! xoshiro256** seeded through a SplitMix64 stream — no external crates,
//! so the whole workspace builds offline and a seed printed by the
//! schedule explorer reproduces forever, independent of dependency
//! versions. Golden-value tests below pin the exact streams.

/// SplitMix64 finalizer: a fast, high-quality 64-bit mixing function for
/// deriving deterministic per-item parameters (task sizes, spawn shapes,
/// perturbation delays).
pub fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Mixes several values into one seed (order-sensitive), for deriving
/// independent deterministic streams from (seed, stream, event) tuples.
pub fn mix64(parts: &[u64]) -> u64 {
    let mut acc = 0x517C_C1B7_2722_0A95_u64;
    for &p in parts {
        acc = hash64(acc ^ p);
    }
    acc
}

/// A seeded, cheap, deterministic RNG (xoshiro256**).
///
/// # Examples
///
/// ```
/// use asymfence_common::rng::SimRng;
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates an RNG from a seed, expanding it with SplitMix64 so that
    /// nearby seeds yield uncorrelated streams.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 sequence (state increments by the golden gamma, then
        // finalizes) — the reference seeding procedure for xoshiro.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        SimRng { s }
    }

    /// Derives an independent child stream, e.g. one per thread.
    pub fn fork(&mut self, salt: u64) -> Self {
        let s = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::new(s)
    }

    /// Next raw 64-bit value (xoshiro256** step).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)` via the widening-multiply reduction
    /// (bias below 2⁻⁶⁴ for the bounds used here).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value in `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(span + 1)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        // 53 uniform mantissa bits in [0, 1).
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Picks an index according to integer weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted(&mut self, weights: &[u64]) -> usize {
        let total: u64 = weights.iter().sum();
        assert!(total > 0, "weighted() needs a positive total weight");
        let mut x = self.below(total);
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        unreachable!("weight accounting is exhaustive")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash64_mixes() {
        assert_ne!(hash64(0), 0);
        assert_ne!(hash64(1), hash64(2));
        // Avalanche sanity: flipping one input bit changes many output bits.
        let d = (hash64(42) ^ hash64(43)).count_ones();
        assert!(d > 16, "poor mixing: {d} bits");
    }

    #[test]
    fn hash64_golden_values() {
        // SplitMix64 reference output for seed 0.
        assert_eq!(hash64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(hash64(0), 16294208416658607535);
    }

    #[test]
    fn mix64_is_order_sensitive() {
        assert_ne!(mix64(&[1, 2]), mix64(&[2, 1]));
        assert_eq!(mix64(&[1, 2]), mix64(&[1, 2]));
        assert_ne!(mix64(&[]), mix64(&[0]));
    }

    #[test]
    fn deterministic_streams() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    // Golden values pin the exact generator streams: the explorer persists
    // bare seeds, so these streams must never change.
    #[test]
    fn next_u64_golden_values() {
        let mut r = SimRng::new(0);
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                11091344671253066420,
                13793997310169335082,
                1900383378846508768,
                7684712102626143532,
            ]
        );
        let mut r = SimRng::new(2015);
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                15884579172074877358,
                10649050805077927697,
                15490298832268373387,
                3895344929837023606,
            ]
        );
    }

    #[test]
    fn below_golden_values() {
        let mut r = SimRng::new(42);
        let got: Vec<u64> = (0..6).map(|_| r.below(10)).collect();
        assert_eq!(got, vec![0, 3, 6, 9, 9, 7]);
    }

    #[test]
    fn weighted_golden_values() {
        let mut r = SimRng::new(42);
        let got: Vec<usize> = (0..6).map(|_| r.weighted(&[1, 3, 4])).collect();
        assert_eq!(got, vec![0, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn fork_golden_values() {
        let mut root = SimRng::new(42);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        assert_eq!(c1.next_u64(), 957964351160264821);
        assert_eq!(c2.next_u64(), 1112608787296227110);
    }

    #[test]
    fn forked_streams_differ_by_salt() {
        let mut root1 = SimRng::new(7);
        let mut root2 = SimRng::new(7);
        let mut c1 = root1.fork(1);
        let mut c2 = root2.fork(2);
        let s1: Vec<u64> = (0..8).map(|_| c1.next_u64()).collect();
        let s2: Vec<u64> = (0..8).map(|_| c2.next_u64()).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn below_in_bounds() {
        let mut r = SimRng::new(1);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn range_inclusive() {
        let mut r = SimRng::new(1);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2000 {
            let v = r.range(3, 5);
            assert!((3..=5).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 5;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn range_full_domain() {
        let mut r = SimRng::new(3);
        // Must not overflow on the full u64 range.
        let _ = r.range(0, u64::MAX);
        let _ = r.range(5, 5);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(1);
        for _ in 0..100 {
            assert!(!r.chance(0.0));
            assert!(r.chance(1.0));
        }
    }

    #[test]
    fn weighted_respects_zero_weight() {
        let mut r = SimRng::new(1);
        for _ in 0..500 {
            let i = r.weighted(&[0, 5, 0, 5]);
            assert!(i == 1 || i == 3);
        }
    }

    #[test]
    fn weighted_roughly_proportional() {
        let mut r = SimRng::new(9);
        let mut counts = [0u64; 2];
        for _ in 0..10_000 {
            counts[r.weighted(&[1, 3])] += 1;
        }
        let frac = counts[1] as f64 / 10_000.0;
        assert!((0.70..0.80).contains(&frac), "frac={frac}");
    }
}
