//! YCSB workload specifications used by the paper's evaluation (§6).
//!
//! * **A** — write-heavy: 50 % puts, 50 % reads
//! * **B** — read-heavy: 5 % puts, 95 % reads
//! * **C** — read-only
//! * **E** — read-only scans of 10 keys (the paper's variant)
//!
//! Keys are drawn from `0..nkeys` either uniformly or scrambled-Zipfian
//! (θ = 0.99) and mapped to 8-byte storage keys through the same FNV
//! scrambler the loader uses, so hot keys are spread across the tree.

use rand::Rng;

use crate::zipf::{scramble, ScrambledZipfian};

/// The operation mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mix {
    /// 50 % puts / 50 % reads.
    A,
    /// 5 % puts / 95 % reads.
    B,
    /// 100 % reads.
    C,
    /// 100 % scans of 10 keys.
    E,
}

impl Mix {
    /// All paper workloads, in figure order.
    pub const ALL: [Mix; 4] = [Mix::A, Mix::B, Mix::C, Mix::E];

    /// The paper's label (e.g. `YCSB_A`).
    pub fn label(self) -> &'static str {
        match self {
            Mix::A => "YCSB_A",
            Mix::B => "YCSB_B",
            Mix::C => "YCSB_C",
            Mix::E => "YCSB_E",
        }
    }

    /// Fraction of puts in the mix.
    pub fn put_fraction(self) -> f64 {
        match self {
            Mix::A => 0.5,
            Mix::B => 0.05,
            Mix::C | Mix::E => 0.0,
        }
    }
}

/// Key distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dist {
    /// Uniform over the key space.
    Uniform,
    /// Scrambled Zipfian, θ = 0.99.
    Zipfian,
}

impl Dist {
    /// Both paper distributions.
    pub const ALL: [Dist; 2] = [Dist::Uniform, Dist::Zipfian];

    /// The paper's label.
    pub fn label(self) -> &'static str {
        match self {
            Dist::Uniform => "uniform",
            Dist::Zipfian => "zipfian",
        }
    }
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point lookup.
    Read(u64),
    /// Insert-or-update with a payload.
    Put(u64, u64),
    /// Scan `count` keys starting at the index.
    Scan(u64, usize),
}

/// Maps a logical key index to its 8-byte storage key (scrambled).
#[inline]
pub fn storage_key(index: u64) -> [u8; 8] {
    scramble(index).to_be_bytes()
}

/// Per-thread operation stream for a workload.
pub struct OpStream {
    mix: Mix,
    nkeys: u64,
    zipf: Option<ScrambledZipfian>,
    counter: u64,
}

impl OpStream {
    /// Creates a stream over `nkeys` keys: Zipfian over the given table,
    /// uniform for `None`. A table is O(nkeys) to build, so build one and
    /// clone it into every thread's stream.
    pub fn with_zipf(mix: Mix, nkeys: u64, zipf: Option<ScrambledZipfian>) -> Self {
        OpStream {
            mix,
            nkeys,
            zipf,
            counter: 0,
        }
    }

    #[inline]
    fn next_index(&self, rng: &mut impl Rng) -> u64 {
        match &self.zipf {
            None => rng.gen_range(0..self.nkeys),
            Some(z) => z.next_index(rng),
        }
    }

    /// Draws the next operation.
    #[inline]
    pub fn next_op(&mut self, rng: &mut impl Rng) -> Op {
        let idx = self.next_index(rng);
        match self.mix {
            Mix::E => Op::Scan(idx, 10),
            Mix::C => Op::Read(idx),
            mix => {
                if rng.gen_bool(mix.put_fraction()) {
                    self.counter += 1;
                    Op::Put(idx, self.counter)
                } else {
                    Op::Read(idx)
                }
            }
        }
    }
}

impl std::fmt::Debug for OpStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpStream")
            .field("mix", &self.mix)
            .field("nkeys", &self.nkeys)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mix_fractions(mix: Mix) -> (f64, f64) {
        let mut s = OpStream::with_zipf(mix, 1000, None);
        let mut rng = StdRng::seed_from_u64(9);
        let (mut puts, mut scans) = (0u64, 0u64);
        let n = 20_000;
        for _ in 0..n {
            match s.next_op(&mut rng) {
                Op::Put(..) => puts += 1,
                Op::Scan(..) => scans += 1,
                Op::Read(_) => {}
            }
        }
        (puts as f64 / n as f64, scans as f64 / n as f64)
    }

    #[test]
    fn mix_a_is_half_puts() {
        let (puts, scans) = mix_fractions(Mix::A);
        assert!((puts - 0.5).abs() < 0.02, "put fraction {puts}");
        assert_eq!(scans, 0.0);
    }

    #[test]
    fn mix_b_is_five_percent_puts() {
        let (puts, _) = mix_fractions(Mix::B);
        assert!((puts - 0.05).abs() < 0.01, "put fraction {puts}");
    }

    #[test]
    fn mix_c_is_read_only() {
        let (puts, scans) = mix_fractions(Mix::C);
        assert_eq!(puts, 0.0);
        assert_eq!(scans, 0.0);
    }

    #[test]
    fn mix_e_is_scan_only() {
        let (puts, scans) = mix_fractions(Mix::E);
        assert_eq!(puts, 0.0);
        assert_eq!(scans, 1.0);
    }

    #[test]
    fn indices_stay_in_range_both_dists() {
        for zipf in [None, Some(ScrambledZipfian::new(500))] {
            let mut s = OpStream::with_zipf(Mix::A, 500, zipf);
            let mut rng = StdRng::seed_from_u64(11);
            for _ in 0..5_000 {
                let idx = match s.next_op(&mut rng) {
                    Op::Read(i) | Op::Put(i, _) | Op::Scan(i, _) => i,
                };
                assert!(idx < 500);
            }
        }
    }

    #[test]
    fn storage_keys_are_scrambled_and_stable() {
        assert_eq!(storage_key(5), storage_key(5));
        assert_ne!(storage_key(5), storage_key(6));
        // Adjacent indices land far apart.
        let a = u64::from_be_bytes(storage_key(1));
        let b = u64::from_be_bytes(storage_key(2));
        assert!(a.abs_diff(b) > 1 << 20);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Mix::A.label(), "YCSB_A");
        assert_eq!(Dist::Zipfian.label(), "zipfian");
    }
}
