//! Log-linear latency histogram: 64 linear sub-buckets per power of two,
//! so a bucket is at most 1/64 ≈ 1.6 % wide and recording is two shifts
//! and an increment.

const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Values at or above 2^40 ns (18 minutes) share the last bucket.
const MAX_BITS: u32 = 40;
const BUCKETS: usize = ((MAX_BITS - SUB_BITS + 1) as usize) * SUB;

/// A histogram of nanosecond values.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    if msb >= MAX_BITS {
        return BUCKETS - 1;
    }
    let shift = msb - SUB_BITS;
    ((shift as usize + 1) << SUB_BITS) + ((v >> shift) as usize & (SUB - 1))
}

/// The `[low, high)` value range of bucket `b`.
fn bounds_of(b: usize) -> (u64, u64) {
    if b < SUB {
        return (b as u64, b as u64 + 1);
    }
    let shift = (b >> SUB_BITS) as u32 - 1;
    let low = ((SUB + (b & (SUB - 1))) as u64) << shift;
    (low, low + (1 << shift))
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The value at quantile `q` in `[0, 1]`, or 0 when empty: the sample
    /// of that rank is placed inside its bucket by its position among the
    /// bucket's samples, so the result moves smoothly with the data
    /// instead of jumping between bucket midpoints.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((self.total - 1) as f64 * q).round() as u64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if seen + c > rank {
                let (lo, hi) = bounds_of(b);
                let within = ((rank - seen) as f64 + 0.5) / c as f64;
                return lo as f64 + (hi - lo) as f64 * within;
            }
            seen += c;
        }
        unreachable!("rank below total")
    }

    /// The highest of p50, p90, p99, p99.9, p99.99 that still has at
    /// least ten samples beyond it, as `(percentile, value)`.
    pub fn highest_supported(&self) -> (f64, f64) {
        let mut best = 50.0;
        for p in [90.0, 99.0, 99.9, 99.99] {
            if self.total as f64 * (1.0 - p / 100.0) >= 10.0 {
                best = p;
            }
        }
        (best, self.quantile(best / 100.0))
    }

    /// Total nanoseconds spent in samples above `floor_ns` (bucket
    /// midpoints), for "time in slow operations" metrics.
    pub fn time_above(&self, floor_ns: u64) -> f64 {
        let first = bucket_of(floor_ns) + 1;
        self.counts[first..]
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let (lo, hi) = bounds_of(first + i);
                c as f64 * (lo + hi - 1) as f64 / 2.0
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    #[test]
    fn buckets_tile_the_range() {
        let mut next = 0;
        for b in 0..BUCKETS {
            let (lo, hi) = bounds_of(b);
            assert_eq!(lo, next, "bucket {b}");
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(hi - 1), b);
            next = hi;
        }
        assert_eq!(next, 1 << MAX_BITS);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_track_a_sorted_vector_within_two_per_cent() {
        // A long-tailed mix like a latency distribution: mostly ~300 ns,
        // a tail out to milliseconds.
        let mut rng = Rng::new(1);
        let mut vals = Vec::new();
        let mut h = Hist::new();
        for _ in 0..200_000 {
            let base = 200 + rng.below(400);
            let v = match rng.below(100) {
                0 => base * 5_000,
                1..=5 => base * 40,
                _ => base,
            };
            vals.push(v);
            h.record(v);
        }
        vals.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0] {
            let want = vals[((vals.len() - 1) as f64 * q).round() as usize] as f64;
            let got = h.quantile(q);
            assert!((got - want).abs() / want <= 0.02, "q{q}: {got} vs {want}");
        }
        assert_eq!(h.count(), 200_000);
    }

    #[test]
    fn highest_supported_percentile_needs_ten_samples_beyond() {
        let mut h = Hist::new();
        (0..999).for_each(|v| h.record(v));
        assert_eq!(h.highest_supported().0, 90.0);
        h.record(5);
        assert_eq!(h.highest_supported().0, 99.0);
    }

    #[test]
    fn time_above_sums_the_slow_tail() {
        let mut h = Hist::new();
        (0..100).for_each(|_| h.record(50));
        (0..4).for_each(|_| h.record(1 << 20));
        let t = h.time_above(100_000);
        assert!((t - 4.0 * (1 << 20) as f64).abs() / t < 0.02, "{t}");
        let mut m = Hist::new();
        m.merge(&h);
        m.merge(&h);
        assert_eq!(m.count(), 208);
        assert_eq!(Hist::new().quantile(0.5), 0.0);
    }
}
