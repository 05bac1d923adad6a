//! The benchmark's own seeded load generator.
//!
//! Nothing here depends on `crates/ycsb` or `vendor/rand`, so no later
//! change to either can alter the load the benchmark offers. Everything
//! is a pure function of the `--seed` argument: the key set, the value
//! tags, and every per-thread op tape.

/// SplitMix64's finaliser: a bijection on `u64`, used both to scramble
/// key indices into keys and to derive value tags.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// xoshiro256** seeded through SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator whose whole stream is determined by `seed`.
    pub fn new(seed: u64) -> Self {
        let mut z = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            *w = mix64(z);
        }
        Rng { s }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let r = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        r
    }

    /// Uniform in `0..n` (`n > 0`); the multiply-shift bias is below
    /// 2^-32 for every `n` the benchmark uses.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seed-dependent key set and value tagging shared by every workload.
///
/// Key `i` is the 8-byte big-endian image of a bijective scramble of
/// `i`, so neighbouring indices land far apart in the tree and the set
/// differs between seeds. Every value carries a tag derived from its key,
/// so any read can be validated without a model.
#[derive(Debug, Clone, Copy)]
pub struct Keyspace {
    salt: u64,
}

/// Bytes of every key.
pub const KEY_BYTES: usize = 8;

impl Keyspace {
    /// The key set of `seed`.
    pub fn new(seed: u64) -> Self {
        Keyspace {
            salt: mix64(seed ^ 0x6b65_7973_7061_6365),
        }
    }

    /// Key number `idx`.
    #[inline]
    pub fn key(&self, idx: u64) -> [u8; KEY_BYTES] {
        mix64(idx ^ self.salt).to_be_bytes()
    }

    /// Fills `out` with the value of `key` at `version`: bytes 0..4 the
    /// version, bytes 4..8 the key's tag, the rest a tag-derived filler.
    #[inline]
    pub fn fill_value(key: &[u8; KEY_BYTES], version: u32, out: &mut [u8]) {
        debug_assert!(out.len() >= 8);
        let tag = tag_of(key);
        out[..4].copy_from_slice(&version.to_le_bytes());
        out[4..8].copy_from_slice(&tag.to_le_bytes());
        for b in &mut out[8..] {
            *b = tag as u8;
        }
    }

    /// Validates a value read back for `key`: the length, the tag and the
    /// filler's last byte. Returns the version it carries.
    #[inline]
    pub fn check_value(key: &[u8], value: &[u8], len: usize) -> Option<u32> {
        if value.len() != len || key.len() != KEY_BYTES {
            return None;
        }
        let tag = tag_of(key.try_into().ok()?);
        if value[4..8] != tag.to_le_bytes() || (len > 8 && value[len - 1] != tag as u8) {
            return None;
        }
        Some(u32::from_le_bytes(value[..4].try_into().ok()?))
    }
}

#[inline]
fn tag_of(key: &[u8; KEY_BYTES]) -> u32 {
    (mix64(u64::from_be_bytes(*key) ^ 0x7461_6774_6167_7461) >> 32) as u32
}

/// Zipfian ranks over `0..n` by Gray et al.'s method (YCSB's generator),
/// scrambled so hot keys are spread over the key space.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

/// The skew every Zipfian workload uses.
pub const THETA: f64 = 0.99;

impl Zipf {
    /// A generator over `0..n` with skew `theta` in (0, 1). O(n) set-up.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 1 && theta > 0.0 && theta < 1.0);
        let zetan = zeta(n, theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2, theta) / zetan);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    /// The next rank (0 is the most popular).
    pub fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
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

    /// The next key index: the rank scrambled into `0..n`.
    pub fn index(&self, rng: &mut Rng) -> u64 {
        mix64(self.rank(rng)) % self.n
    }

    /// The probability mass theory gives rank 0.
    #[cfg(test)]
    pub fn top_mass(&self) -> f64 {
        1.0 / self.zetan
    }
}

fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

/// One generated operation. Indices address [`Keyspace::key`]; the
/// stateful kinds (`InsertNew`, `Insert`/`RemoveOldest`) take their key
/// from a per-thread counter at run time, so a tape can wrap around
/// without repeating a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point read of key `idx`.
    Get(u64),
    /// Update of existing key `idx`.
    Put(u64),
    /// Range scan of `len` keys from key `idx`.
    Scan(u64, u32),
    /// Insert of a key never used before (the thread's next fresh index).
    InsertNew,
    /// Churn: remove the oldest key of the thread's live window.
    RemoveOldest,
    /// Churn: read the key `r % window` places above the oldest.
    GetLive(u32),
}

/// Ops per tape. A thread that runs past the end starts over.
pub const TAPE_OPS: usize = 1 << 20;

const K_GET: u64 = 0;
const K_PUT: u64 = 1;
const K_SCAN: u64 = 2;
const K_INSERT: u64 = 3;
const K_REMOVE: u64 = 4;
const K_GETLIVE: u64 = 5;

/// A pre-generated op sequence, packed one `u64` per op so the timed loop
/// touches 8 bytes of tape per operation.
#[derive(Debug, Clone)]
pub struct Tape {
    ops: Vec<u64>,
}

impl Tape {
    fn pack(op: Op) -> u64 {
        match op {
            Op::Get(i) => K_GET << 60 | i,
            Op::Put(i) => K_PUT << 60 | i,
            Op::Scan(i, len) => K_SCAN << 60 | (len as u64) << 40 | i,
            Op::InsertNew => K_INSERT << 60,
            Op::RemoveOldest => K_REMOVE << 60,
            Op::GetLive(r) => K_GETLIVE << 60 | r as u64,
        }
    }

    /// Op number `i` (wrapping).
    #[inline]
    pub fn op(&self, i: usize) -> Op {
        let w = self.ops[i & (self.ops.len() - 1)];
        let low = w & ((1 << 40) - 1);
        match w >> 60 {
            K_GET => Op::Get(low),
            K_PUT => Op::Put(low),
            K_SCAN => Op::Scan(low, ((w >> 40) & 0xfffff) as u32),
            K_INSERT => Op::InsertNew,
            K_REMOVE => Op::RemoveOldest,
            _ => Op::GetLive(low as u32),
        }
    }

    /// FNV-1a over the packed ops: equal exactly when the tapes are.
    pub fn hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in &self.ops {
            for b in w.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// How key indices are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist {
    /// Every key equally likely.
    Uniform,
    /// Scrambled Zipfian, θ = [`THETA`].
    Zipfian,
}

/// An operation mix: the shares (in per cent, summing to 100) of each op
/// kind, the key distribution, and which slice of the key space a thread
/// may touch.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Share of [`Op::Get`].
    pub get: u32,
    /// Share of [`Op::Put`].
    pub put: u32,
    /// Share of [`Op::Scan`] (1..=100 keys).
    pub scan: u32,
    /// Share of [`Op::InsertNew`].
    pub insert: u32,
    /// Share of [`Op::RemoveOldest`].
    pub remove: u32,
    /// Share of [`Op::GetLive`].
    pub get_live: u32,
    /// Key distribution of `Get`/`Put`/`Scan`.
    pub dist: Dist,
    /// `true`: thread `t` of `T` only draws indices `i` with
    /// `i % T == t`, so it alone writes them.
    pub owned: bool,
}

impl Mix {
    const NONE: Mix = Mix {
        get: 0,
        put: 0,
        scan: 0,
        insert: 0,
        remove: 0,
        get_live: 0,
        dist: Dist::Uniform,
        owned: false,
    };
    /// 50 % reads, 50 % updates, uniform.
    pub const YCSB_A: Mix = Mix {
        get: 50,
        put: 50,
        ..Mix::NONE
    };
    /// 100 % reads, Zipfian.
    pub const YCSB_C: Mix = Mix {
        get: 100,
        dist: Dist::Zipfian,
        ..Mix::NONE
    };
    /// 95 % scans from a Zipfian start, 5 % inserts of new keys.
    pub const SCAN_E: Mix = Mix {
        scan: 95,
        insert: 5,
        dist: Dist::Zipfian,
        ..Mix::NONE
    };
    /// Sliding window: 40 % insert-newest, 40 % remove-oldest, 20 % reads.
    pub const CHURN: Mix = Mix {
        insert: 40,
        remove: 40,
        get_live: 20,
        ..Mix::NONE
    };
    /// 90 % PUT, 10 % GET of keys the connection owns.
    pub const NET_PUT: Mix = Mix {
        get: 10,
        put: 90,
        owned: true,
        ..Mix::NONE
    };
    /// 95 % GET, 5 % PUT of keys the connection owns.
    pub const NET_OPEN: Mix = Mix {
        get: 95,
        put: 5,
        owned: true,
        ..Mix::NONE
    };
    /// 100 % updates of keys the thread owns (the restart workload's
    /// committed rounds and doomed bursts).
    pub const UPDATE_OWNED: Mix = Mix {
        put: 100,
        owned: true,
        ..Mix::NONE
    };
}

/// Generates thread `thread` of `threads`' tape of `ops` operations
/// (a power of two) over `nkeys` preloaded keys.
pub fn tape(seed: u64, mix: &Mix, nkeys: u64, thread: usize, threads: usize, ops: usize) -> Tape {
    assert!(ops.is_power_of_two());
    assert_eq!(
        mix.get + mix.put + mix.scan + mix.insert + mix.remove + mix.get_live,
        100
    );
    let mut rng = Rng::new(mix64(seed) ^ mix64(thread as u64 + 1));
    let zipf = (mix.dist == Dist::Zipfian).then(|| Zipf::new(nkeys, THETA));
    let (t, nt) = (thread as u64, threads as u64);
    let draw = |rng: &mut Rng| -> u64 {
        let i = match &zipf {
            Some(z) => z.index(rng),
            None => rng.below(nkeys),
        };
        if mix.owned {
            // Round down to the thread's residue class.
            let owned = i - i % nt + t;
            if owned < nkeys {
                owned
            } else {
                t
            }
        } else {
            i
        }
    };
    let mut packed = Vec::with_capacity(ops);
    for _ in 0..ops {
        let mut roll = rng.below(100) as u32;
        let mut pick = |share: u32| {
            let hit = roll < share;
            roll = roll.wrapping_sub(share);
            hit
        };
        let op = if pick(mix.get) {
            Op::Get(draw(&mut rng))
        } else if pick(mix.put) {
            Op::Put(draw(&mut rng))
        } else if pick(mix.scan) {
            let start = draw(&mut rng);
            Op::Scan(start, 1 + rng.below(100) as u32)
        } else if pick(mix.insert) {
            Op::InsertNew
        } else if pick(mix.remove) {
            Op::RemoveOldest
        } else {
            Op::GetLive(rng.next_u64() as u32)
        };
        packed.push(Tape::pack(op));
    }
    Tape { ops: packed }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_tape_other_seed_other_tape() {
        for mix in [
            Mix::YCSB_A,
            Mix::YCSB_C,
            Mix::SCAN_E,
            Mix::CHURN,
            Mix::NET_PUT,
        ] {
            let a = tape(7, &mix, 10_000, 0, 2, 1 << 12);
            let b = tape(7, &mix, 10_000, 0, 2, 1 << 12);
            let c = tape(8, &mix, 10_000, 0, 2, 1 << 12);
            let d = tape(7, &mix, 10_000, 1, 2, 1 << 12);
            assert_eq!(a.hash(), b.hash());
            assert_ne!(a.hash(), c.hash());
            assert_ne!(a.hash(), d.hash());
        }
    }

    #[test]
    fn ops_survive_packing() {
        for op in [
            Op::Get(999_999),
            Op::Put(0),
            Op::Scan(123_456, 100),
            Op::InsertNew,
            Op::RemoveOldest,
            Op::GetLive(u32::MAX),
        ] {
            let t = Tape {
                ops: vec![Tape::pack(op)],
            };
            assert_eq!(t.op(0), op);
            assert_eq!(t.op(1), op, "wraps");
        }
    }

    #[test]
    fn mixes_hold_their_shares_and_ownership() {
        let t = tape(3, &Mix::NET_PUT, 1000, 1, 2, 1 << 14);
        let mut puts = 0;
        for i in 0..1 << 14 {
            match t.op(i) {
                Op::Put(k) => {
                    puts += 1;
                    assert_eq!(k % 2, 1);
                }
                Op::Get(k) => assert_eq!(k % 2, 1),
                other => panic!("unexpected {other:?}"),
            }
        }
        let share = puts as f64 / (1 << 14) as f64;
        assert!((share - 0.9).abs() < 0.02, "{share}");
    }

    #[test]
    fn zipfian_top_rank_mass_matches_theory() {
        let z = Zipf::new(100_000, THETA);
        let mut rng = Rng::new(11);
        let n = 400_000;
        let top = (0..n).filter(|_| z.rank(&mut rng) == 0).count();
        let got = top as f64 / n as f64;
        let want = z.top_mass();
        assert!((got - want).abs() / want < 0.05, "got {got}, theory {want}");
    }

    #[test]
    fn keys_are_distinct_and_values_self_validate() {
        let ks = Keyspace::new(5);
        let mut keys: Vec<_> = (0..10_000).map(|i| ks.key(i)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 10_000);
        assert_ne!(Keyspace::new(6).key(1), ks.key(1));

        let k = ks.key(42);
        let mut v = [0u8; 64];
        Keyspace::fill_value(&k, 9, &mut v);
        assert_eq!(Keyspace::check_value(&k, &v, 64), Some(9));
        assert_eq!(Keyspace::check_value(&ks.key(43), &v, 64), None);
        assert_eq!(Keyspace::check_value(&k, &v[..8], 64), None);
        v[63] ^= 1;
        assert_eq!(Keyspace::check_value(&k, &v, 64), None);
    }
}
