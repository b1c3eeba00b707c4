//! Deterministic pseudo-random number generation.
//!
//! Every stochastic component in the workspace (traffic generators, workload
//! profiles, allocator tie-breaking where configured) owns its own [`Pcg32`]
//! stream seeded from the experiment seed, so simulations are exactly
//! reproducible and independent components do not perturb each other's
//! streams. We implement PCG-XSH-RR 64/32 directly rather than pulling the
//! full `rand` machinery into the hot simulation loops; the `rand` crate is
//! still used at the workload-construction layer where distribution adaptors
//! are convenient.

const MULTIPLIER: u64 = 6364136223846793005;

/// A PCG-XSH-RR 64/32 generator: 64-bit state, 32-bit output.
///
/// Small, fast, statistically solid for simulation purposes, and —
/// critically — fully deterministic across platforms.
///
/// # Example
///
/// ```
/// use ra_sim::Pcg32;
///
/// let mut a = Pcg32::new(42, 0);
/// let mut b = Pcg32::new(42, 0);
/// assert_eq!(a.next_u32(), b.next_u32()); // same seed, same stream
///
/// let mut c = Pcg32::new(42, 1);
/// assert_ne!(a.next_u32(), c.next_u32()); // different stream id
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

impl Pcg32 {
    /// Creates a generator from a seed and a stream id.
    ///
    /// Distinct `(seed, stream)` pairs produce statistically independent
    /// sequences; components derive their stream id from a stable role index
    /// so adding a component never shifts another's stream.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Pcg32 {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Next 32 uniformly random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(MULTIPLIER).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// Uniform integer in `[0, bound)` without modulo bias (Lemire's method).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "below() requires a positive bound");
        loop {
            let x = self.next_u32();
            let m = u64::from(x) * u64::from(bound);
            let low = m as u32;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 32) as u32;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        // 53 random bits scaled into the unit interval.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Geometric inter-arrival sample with success probability `p`,
    /// i.e. the number of failures before the first success (>= 0).
    ///
    /// Used by Bernoulli injection processes to skip ahead to the next
    /// injection cycle in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1]`.
    #[inline]
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "geometric requires p in (0, 1]");
        if p >= 1.0 {
            return 0;
        }
        let u = self.uniform().max(f64::MIN_POSITIVE);
        (u.ln() / (1.0 - p).ln()) as u64
    }

    /// Forks an independent generator for a sub-component.
    ///
    /// The child stream is derived from fresh output of `self`, so repeated
    /// forks yield distinct streams.
    pub fn fork(&mut self, role: u64) -> Pcg32 {
        let seed = self.next_u64();
        Pcg32::new(seed, role.wrapping_mul(2).wrapping_add(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = Pcg32::new(7, 3);
        let mut b = Pcg32::new(7, 3);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = Pcg32::new(7, 0);
        let mut b = Pcg32::new(7, 1);
        let same = (0..100).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 3, "streams should be nearly disjoint, {same} matches");
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Pcg32::new(1, 0);
        for _ in 0..10_000 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    fn below_covers_all_residues() {
        let mut rng = Pcg32::new(2, 0);
        let mut seen = [0u32; 5];
        for _ in 0..5_000 {
            seen[rng.below(5) as usize] += 1;
        }
        for (i, &count) in seen.iter().enumerate() {
            assert!(count > 800, "residue {i} under-sampled: {count}");
        }
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn below_zero_panics() {
        Pcg32::new(1, 0).below(0);
    }

    #[test]
    fn uniform_is_in_unit_interval_and_centered() {
        let mut rng = Pcg32::new(3, 0);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn geometric_mean_matches_theory() {
        let mut rng = Pcg32::new(4, 0);
        let p = 0.25;
        let n = 20_000;
        let total: u64 = (0..n).map(|_| rng.geometric(p)).sum();
        let mean = total as f64 / n as f64;
        let expect = (1.0 - p) / p; // 3.0
        assert!(
            (mean - expect).abs() < 0.15,
            "geometric mean {mean} vs {expect}"
        );
    }

    #[test]
    fn geometric_p_one_is_always_zero() {
        let mut rng = Pcg32::new(5, 0);
        assert_eq!(rng.geometric(1.0), 0);
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = Pcg32::new(9, 0);
        let mut a = parent.fork(0);
        let mut b = parent.fork(1);
        let same = (0..100).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 3);
    }
}
