//! XXH64 entry checksums for torn-entry detection.
//!
//! Log entries are sealed with a checksum over the payload and the header
//! fields (see the crate docs' "Entry format"). The checksum is not
//! cryptographic; it only needs to make a partially persisted (torn)
//! entry overwhelmingly unlikely to validate — and to cost far less than
//! the `sfence` that follows it. XXH64 (public spec, seed 0) consumes
//! 32-byte stripes in four independent multiply-rotate lanes, so a 320 B
//! node image hashes at memory speed instead of one dependent multiply
//! per byte.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

const STRIPE: usize = 32;

#[inline(always)]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline(always)]
fn merge_round(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// Streaming XXH64 with seed 0: feed bytes in any split, then
/// [`Xxh64::digest`].
pub(crate) struct Xxh64 {
    lanes: [u64; 4],
    /// Bytes not yet folded into the lanes (`buffered < STRIPE`).
    buf: [u8; STRIPE],
    buffered: usize,
    total: u64,
}

impl Xxh64 {
    pub(crate) fn new() -> Self {
        Xxh64 {
            lanes: [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)],
            buf: [0; STRIPE],
            buffered: 0,
            total: 0,
        }
    }

    #[inline(always)]
    fn stripe(lanes: &mut [u64; 4], stripe: &[u8]) {
        for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = round(*lane, word(w));
        }
    }

    #[inline]
    pub(crate) fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.buffered > 0 {
            let take = (STRIPE - self.buffered).min(bytes.len());
            self.buf[self.buffered..self.buffered + take].copy_from_slice(&bytes[..take]);
            self.buffered += take;
            bytes = &bytes[take..];
            if self.buffered < STRIPE {
                return;
            }
            Self::stripe(&mut self.lanes, &self.buf);
            self.buffered = 0;
        }
        let mut stripes = bytes.chunks_exact(STRIPE);
        let mut lanes = self.lanes;
        for s in &mut stripes {
            Self::stripe(&mut lanes, s);
        }
        self.lanes = lanes;
        let rest = stripes.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    #[inline]
    pub(crate) fn digest(&self) -> u64 {
        let [a, b, c, d] = self.lanes;
        let mut h = if self.total >= STRIPE as u64 {
            let h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            [a, b, c, d].into_iter().fold(h, merge_round)
        } else {
            P5 // seed (lane 2) + P5
        };
        h = h.wrapping_add(self.total);
        let mut words = self.buf[..self.buffered].chunks_exact(8);
        for w in &mut words {
            h = (h ^ round(0, word(w)))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
        }
        let mut rest = words.remainder();
        if rest.len() >= 4 {
            let w = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as u64;
            h = (h ^ w.wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            rest = &rest[4..];
        }
        for &b in rest {
            h = (h ^ (b as u64).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// Seals a streamed payload hash into the checksum stored in the entry:
/// XXH64 over `payload ‖ epoch ‖ target ‖ len_word` (little-endian
/// words), so every payload byte, every header field and — through
/// XXH64's own length fold — the payload length feed the sum.
#[inline]
pub(crate) fn seal(mut payload: Xxh64, epoch: u64, target: u64, len_word: u64) -> u64 {
    let mut header = [0u8; 24];
    header[..8].copy_from_slice(&epoch.to_le_bytes());
    header[8..16].copy_from_slice(&target.to_le_bytes());
    header[16..].copy_from_slice(&len_word.to_le_bytes());
    payload.update(&header);
    payload.digest()
}

/// [`seal`] for a payload already contiguous in memory.
#[inline]
pub(crate) fn entry_checksum(payload: &[u8], epoch: u64, target: u64, len_word: u64) -> u64 {
    let mut h = Xxh64::new();
    h.update(payload);
    seal(h, epoch, target, len_word)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn xxh64(bytes: &[u8]) -> u64 {
        let mut h = Xxh64::new();
        h.update(bytes);
        h.digest()
    }

    #[test]
    fn published_vectors() {
        // Seed-0 vectors from the reference implementation's docs and
        // bindings; the last two cross the 32-byte stripe threshold.
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(xxh64(b"xxhash"), 0x32DD_3895_2C4B_C720);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
        assert_eq!(
            xxh64(b"The quick brown fox jumps over the lazy dog"),
            0x0B24_2D36_1FDA_71BC
        );
    }

    #[test]
    fn seal_depends_on_every_field() {
        let base = entry_checksum(b"payload", 1, 2, 3);
        assert_ne!(base, entry_checksum(b"payload", 9, 2, 3));
        assert_ne!(base, entry_checksum(b"payload", 1, 9, 3));
        assert_ne!(base, entry_checksum(b"payload", 1, 2, 9));
        assert_ne!(base, entry_checksum(b"other", 1, 2, 3));
        // Header words are position-sensitive, not a commutative fold.
        assert_ne!(base, entry_checksum(b"payload", 2, 1, 3));
    }

    proptest! {
        /// Streaming in arbitrary splits equals one-shot, for the raw hash
        /// and for the sealed entry checksum.
        #[test]
        fn streamed_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..1500),
                                   cuts in proptest::collection::vec(any::<u16>(), 0..12)) {
            let mut at: Vec<usize> = cuts.iter().map(|&c| c as usize % (data.len() + 1)).collect();
            at.sort_unstable();
            let mut h = Xxh64::new();
            let mut prev = 0;
            for &c in &at {
                h.update(&data[prev..c]);
                prev = c;
            }
            h.update(&data[prev..]);
            prop_assert_eq!(h.digest(), xxh64(&data));
            prop_assert_eq!(seal(h, 7, 8, 9), entry_checksum(&data, 7, 8, 9));
        }
    }
}
