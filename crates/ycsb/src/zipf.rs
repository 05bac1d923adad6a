//! Zipfian key generation (YCSB's generator, Gray et al.'s method).
//!
//! The paper's *zipfian* workloads draw keys with skew θ = 0.99 and then
//! scramble them by hashing "so that frequent keys do not (necessarily)
//! appear in close proximity" (§6) — YCSB's `ScrambledZipfianGenerator`.

use rand::Rng;

/// Default YCSB skew.
pub const DEFAULT_THETA: f64 = 0.99;

/// A Zipfian rank generator over `0..n` (rank 0 most popular).
///
/// # Example
///
/// ```
/// use incll_ycsb::zipf::Zipfian;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let z = Zipfian::new(1000, incll_ycsb::zipf::DEFAULT_THETA);
/// let r = z.next_rank(&mut rng);
/// assert!(r < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Builds a generator over `0..n` with skew `theta`.
    ///
    /// Computing ζ(n, θ) is O(n); construct once and reuse.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is not in (0, 1).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipfian needs a nonempty key space");
        assert!(
            theta > 0.0 && theta < 1.0,
            "theta must be in (0,1), got {theta}"
        );
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// Draws the next rank (0 = most popular).
    pub fn next_rank(&self, rng: &mut impl Rng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// ζ(n, θ) = Σ_{i=1..n} 1/i^θ.
fn zeta(n: u64, theta: f64) -> f64 {
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

/// FNV-1a 64 scrambler used to spread popular keys across the key space.
#[inline]
pub fn scramble(x: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A scrambled-Zipfian generator: Zipfian ranks hashed into `0..n`.
#[derive(Debug, Clone)]
pub struct ScrambledZipfian {
    inner: Zipfian,
}

impl ScrambledZipfian {
    /// Builds a generator over `0..n` with the default YCSB skew.
    pub fn new(n: u64) -> Self {
        ScrambledZipfian {
            inner: Zipfian::new(n, DEFAULT_THETA),
        }
    }

    /// Draws a key index in `0..n`.
    pub fn next_index(&self, rng: &mut impl Rng) -> u64 {
        scramble(self.inner.next_rank(rng)) % self.inner.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ranks_stay_in_range() {
        let z = Zipfian::new(100, DEFAULT_THETA);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10_000 {
            assert!(z.next_rank(&mut rng) < 100);
        }
    }

    #[test]
    fn distribution_is_skewed_toward_low_ranks() {
        let z = Zipfian::new(1000, DEFAULT_THETA);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0u64; 1000];
        let draws = 100_000;
        for _ in 0..draws {
            counts[z.next_rank(&mut rng) as usize] += 1;
        }
        // Rank 0 should dwarf the median rank, and the top-10 ranks should
        // hold a large share (θ=0.99 over 1000 items ⇒ roughly a third).
        assert!(counts[0] > counts[500] * 20);
        let top10: u64 = counts[..10].iter().sum();
        assert!(
            top10 as f64 > 0.25 * draws as f64,
            "top-10 share too small: {top10}"
        );
    }

    #[test]
    fn theta_zero_like_uniformity_rejected() {
        // API guards: invalid theta panics rather than misbehaving.
        let r = std::panic::catch_unwind(|| Zipfian::new(10, 1.0));
        assert!(r.is_err());
    }

    #[test]
    fn scrambled_spreads_hot_keys() {
        let z = ScrambledZipfian::new(1_000);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(z.next_index(&mut rng)).or_insert(0u64) += 1;
        }
        // Still skewed: some key is very hot...
        let max = counts.values().max().copied().unwrap();
        assert!(max > 2_000);
        // ...but the two hottest keys are not adjacent (scrambling).
        let mut by_count: Vec<_> = counts.iter().collect();
        by_count.sort_by_key(|(_, c)| std::cmp::Reverse(**c));
        let (a, b) = (*by_count[0].0, *by_count[1].0);
        assert!(a.abs_diff(b) > 1, "hot keys {a} and {b} adjacent");
    }

    #[test]
    fn scramble_is_deterministic() {
        assert_eq!(scramble(12345), scramble(12345));
        assert_ne!(scramble(1), scramble(2));
    }

    #[test]
    fn zeta_small_values() {
        assert!((zeta(1, 0.5) - 1.0).abs() < 1e-12);
        let z2 = zeta(2, 0.99);
        assert!((z2 - (1.0 + 1.0 / 2f64.powf(0.99))).abs() < 1e-12);
    }
}
