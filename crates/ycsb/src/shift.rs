//! A skew-shifting workload: a write hotspot that **rotates across
//! shards** over time.
//!
//! Static Zipfian streams keep the same keys hot forever, so a per-shard
//! checkpoint cadence tuned once stays right forever. Real workloads
//! migrate: the hot tenant moves, the working set drifts, and a shard
//! that was write-hot goes cold (and vice versa). [`ShiftingHotspot`]
//! reproduces that pattern deterministically so checkpoint-cadence
//! experiments face a write rate that keeps moving:
//!
//! * key indices are bucketed per shard with the **caller's** routing
//!   function (pass the store's own `shard_of`, so the generator and the
//!   store can never disagree about placement);
//! * during each *phase* of `period` draws, one shard is hot: a fraction
//!   `hot_frac` of draws sweeps that shard's **whole** bucket uniformly —
//!   a migrating batch tenant rewriting a wide working set, so the
//!   first-touch (undo-logging) footprint keeps growing with the
//!   checkpoint window;
//! * the remaining draws model the resident tenants every shard keeps: a
//!   Zipfian over a small `resident`-key prefix of a uniformly chosen
//!   shard's bucket, so background traffic is skewed and low-rate rather
//!   than uniform;
//! * after `period` draws the hotspot advances to the next shard, round
//!   robin, so every shard cycles hot → cold → hot.
//!
//! The split matters for cadence experiments: the migrating tenant's
//! undo tail grows almost linearly with the checkpoint window (a uniform
//! sweep keeps finding un-logged pre-images), while a resident tenant's
//! is bounded by its small hot set — exactly the asymmetry a per-shard
//! controller can exploit and a single static cadence cannot.

use rand::Rng;

use crate::workload::storage_key;
use crate::zipf::{Zipfian, DEFAULT_THETA};

/// Rotating-hotspot key-index generator (one per thread; draws advance
/// its phase clock).
pub struct ShiftingHotspot {
    /// Key indices owned by each shard, in index order; hot draws sweep
    /// `buckets[hot]` uniformly.
    buckets: Vec<Vec<u64>>,
    /// One resident-prefix Zipfian per shard (the background tenants).
    resident_zipfs: Vec<Zipfian>,
    period: u64,
    hot_frac: f64,
    drawn: u64,
}

impl ShiftingHotspot {
    /// Buckets `0..nkeys` by `shard_of(storage_key(i))` and prepares the
    /// per-shard resident Zipfians.
    ///
    /// `period` is the number of draws one shard stays hot; `hot_frac`
    /// is the fraction of draws sweeping the hot shard's whole bucket
    /// uniformly (the rest goes to a random shard's `resident`-key
    /// prefix — `resident` is clamped to the bucket size).
    ///
    /// # Panics
    ///
    /// Panics if any shard owns no keys (make `nkeys` comfortably larger
    /// than the shard count), if `period` or `resident` is zero, or if
    /// `hot_frac` is outside `[0, 1]`.
    pub fn new(
        nkeys: u64,
        shards: usize,
        shard_of: impl Fn(&[u8]) -> usize,
        period: u64,
        hot_frac: f64,
        resident: u64,
    ) -> Self {
        assert!(period > 0, "period must be positive");
        assert!(resident > 0, "resident must be positive");
        assert!(
            (0.0..=1.0).contains(&hot_frac),
            "hot_frac must be a fraction"
        );
        let mut buckets = vec![Vec::new(); shards];
        for i in 0..nkeys {
            let s = shard_of(&storage_key(i));
            assert!(s < shards, "shard_of returned {s} for {shards} shards");
            buckets[s].push(i);
        }
        for (s, b) in buckets.iter().enumerate() {
            assert!(!b.is_empty(), "shard {s} owns no keys; raise nkeys");
        }
        let resident_zipfs = buckets
            .iter()
            .map(|b| Zipfian::new(resident.min(b.len() as u64), DEFAULT_THETA))
            .collect();
        ShiftingHotspot {
            buckets,
            resident_zipfs,
            period,
            hot_frac,
            drawn: 0,
        }
    }

    /// Number of shards the hotspot cycles over.
    pub fn shard_count(&self) -> usize {
        self.buckets.len()
    }

    /// The shard that is hot for the phase containing draw `op_index`.
    pub fn hot_shard(&self, op_index: u64) -> usize {
        ((op_index / self.period) % self.buckets.len() as u64) as usize
    }

    /// Draws the next key index, advancing the phase clock.
    pub fn next_index(&mut self, rng: &mut impl Rng) -> u64 {
        let hot = self.hot_shard(self.drawn);
        self.drawn += 1;
        if rng.gen_bool(self.hot_frac) {
            let bucket = &self.buckets[hot];
            bucket[rng.gen_range(0..bucket.len())]
        } else {
            let s = rng.gen_range(0..self.buckets.len());
            self.buckets[s][self.resident_zipfs[s].next_rank(rng) as usize]
        }
    }
}

impl std::fmt::Debug for ShiftingHotspot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShiftingHotspot")
            .field("shards", &self.buckets.len())
            .field("period", &self.period)
            .field("hot_frac", &self.hot_frac)
            .field("drawn", &self.drawn)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The same FNV-1a routing the store uses, over the 8-byte storage
    /// key — a stand-in for `Store::shard_of` in unit tests.
    fn route(key: &[u8], shards: usize) -> usize {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in key {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        (h as usize) & (shards - 1)
    }

    #[test]
    fn hotspot_rotates_round_robin_over_every_shard() {
        let h = ShiftingHotspot::new(1000, 4, |k| route(k, 4), 100, 0.9, 64);
        assert_eq!(h.shard_count(), 4);
        for w in 0..8u64 {
            assert_eq!(h.hot_shard(w * 100), (w % 4) as usize);
            assert_eq!(h.hot_shard(w * 100 + 99), (w % 4) as usize);
        }
    }

    #[test]
    fn hot_phase_draws_concentrate_on_the_hot_shard() {
        let shards = 4;
        let mut h = ShiftingHotspot::new(2000, shards, |k| route(k, shards), 500, 0.9, 64);
        let mut rng = StdRng::seed_from_u64(7);
        for phase in 0..shards as u64 {
            let hot = h.hot_shard(phase * 500);
            let mut on_hot = 0usize;
            for _ in 0..500 {
                let idx = h.next_index(&mut rng);
                assert!(idx < 2000);
                if route(&storage_key(idx), shards) == hot {
                    on_hot += 1;
                }
            }
            // 90 % targeted + the background draws that land there anyway.
            assert!(
                on_hot > 400,
                "phase {phase}: only {on_hot}/500 draws hit hot shard {hot}"
            );
        }
    }

    #[test]
    fn background_draws_stay_in_each_shards_resident_prefix() {
        let shards = 2;
        let resident = 16u64;
        // hot_frac 0: every draw is background, so every index must come
        // from some shard's first `resident` bucket entries.
        let mut h = ShiftingHotspot::new(1000, shards, |k| route(k, shards), 50, 0.0, resident);
        let residents: Vec<Vec<u64>> = h
            .buckets
            .iter()
            .map(|b| b[..resident as usize].to_vec())
            .collect();
        let mut rng = StdRng::seed_from_u64(13);
        let mut seen_shards = [false; 2];
        for _ in 0..400 {
            let idx = h.next_index(&mut rng);
            let s = residents
                .iter()
                .position(|r| r.contains(&idx))
                .expect("background draw outside every resident prefix");
            seen_shards[s] = true;
        }
        assert!(
            seen_shards.iter().all(|&s| s),
            "background traffic should reach every shard"
        );
    }

    #[test]
    fn draws_are_deterministic_under_a_seed() {
        let mk = || ShiftingHotspot::new(800, 2, |k| route(k, 2), 50, 0.8, 32);
        let (mut a, mut b) = (mk(), mk());
        let mut ra = StdRng::seed_from_u64(3);
        let mut rb = StdRng::seed_from_u64(3);
        for _ in 0..300 {
            assert_eq!(a.next_index(&mut ra), b.next_index(&mut rb));
        }
    }

    #[test]
    #[should_panic(expected = "owns no keys")]
    fn starved_shards_are_rejected() {
        // Route everything to shard 0: shard 1 has no keys.
        let _ = ShiftingHotspot::new(100, 2, |_| 0, 10, 0.9, 16);
    }
}
