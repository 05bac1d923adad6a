//! Durable node layout: the paper's Figure 1, byte for byte.
//!
//! A durable leaf is 320 bytes = 5 cache lines with every in-cache-line
//! log placed in the same line as the field it protects:
//!
//! ```text
//! line 0 (  0.. 64): version | parent | next | meta(nodeEpoch+flags)
//!                    | permutationInCLL | permutation | 2 spare words
//! line 1 ( 64..128): ikeys[0..8]
//! line 2 (128..192): ikeys[8..14] | klenx[14] + 2 pad
//! line 3 (192..256): ValInCLL1 | vals[0..7]
//! line 4 (256..320): vals[7..14] | ValInCLL2
//! ```
//!
//! `InCLLp` = {meta, permutationInCLL} shares line 0 with `permutation`;
//! `ValInCLL1` shares line 3 with `vals[0..7]`; `ValInCLL2` shares line 4
//! with `vals[7..14]` — so every log write is ordered before its mutation
//! by PCSO's same-line rule alone (§4.1).
//!
//! When the in-line logs cannot cover a change, the leaf falls back to the
//! external undo log one **region** at a time ([`LEAF_REGIONS`]):
//!
//! ```text
//! head   (lines 0–2,   0..192): meta, permutation + InCLLp, ikeys, klenx
//! line 3 (           192..256): ValInCLL1 | vals[0..7]     meta::VAL1_LOGGED
//! line 4 (           256..320): vals[7..14] | ValInCLL2    meta::VAL2_LOGGED
//! ```
//!
//! Most of what the in-line logs cannot cover never gets here: an insert,
//! and a second hot value in one line, take a slot that was free at epoch
//! start (the value's key moves), which restoring `InCLLp` never names.
//! In a leaf with no such slot left, a second hot value in one line
//! captures just that line and sets its `meta` bit; a permutation or
//! structural change the in-line logs cannot absorb captures whatever
//! regions the epoch has not captured yet and sets `meta::LOGGED`. Each region is captured at most once per epoch, so
//! no byte is logged twice and replay needs no order.
//!
//! The durable leaf holds **14** entries — one fewer than the transient
//! MT/MT+ leaf's 15 — paying for the embedded logs exactly as the paper
//! does (§4.1, footnote 4). The width and these offsets are all that
//! differs between the two trees' nodes: both run the one algorithm of
//! `incll_masstree::tree`, which reads every field at the offset its
//! instantiation names (`crate::tree`'s `NodeStore` impl).
//!
//! Durable interior nodes are also 320 bytes; all their modifications go
//! through the external log (§4.2), so they carry no InCLLs.

use incll_masstree::Permutation;

/// Entries per durable leaf (one fewer than the transient 15, §4.1).
pub const LEAF_WIDTH: usize = 14;
/// Separator keys per durable interior node.
pub const INT_WIDTH: usize = 14;
/// Durable node size in bytes (5 cache lines).
pub const NODE_BYTES: usize = 320;

/// Permutation type for durable leaves.
pub type DPerm = Permutation<LEAF_WIDTH>;

// ---------------------------------------------------------------------
// Leaf field offsets (bytes from the node base)
// ---------------------------------------------------------------------

/// Version word (transient semantics; reinitialised by recovery).
pub const OFF_VERSION: u64 = 0;
/// Parent interior offset (0 = layer root).
pub const OFF_PARENT: u64 = 8;
/// Right-sibling leaf offset.
pub const OFF_NEXT: u64 = 16;
/// `meta` word: nodeEpoch + flags (see [`meta`]).
pub const OFF_META: u64 = 24;
/// `permutationInCLL` — the permutation's in-line undo log.
pub const OFF_PERM_INCLL: u64 = 32;
/// The permutation word.
pub const OFF_PERM: u64 = 40;
/// Key slices: 14 × 8 bytes spanning lines 1–2.
pub const OFF_IKEYS: u64 = 64;
/// `keylenx` byte array (line 2 tail).
pub const OFF_KLENX: u64 = 176;
/// `ValInCLL1`: head of line 3, covering `vals[0..7]`.
pub const OFF_INCLL1: u64 = 192;
/// Values 0..7 (line 3) and 7..14 (line 4).
pub const OFF_VALS: u64 = 200;
/// `ValInCLL2`: tail of line 4, covering `vals[7..14]`.
pub const OFF_INCLL2: u64 = 312;

/// Offset of `vals[idx]`, skipping the `ValInCLL2` hole.
///
/// `vals[0..7]` occupy line 3 after `ValInCLL1`; `vals[7..14]` start line 4.
#[inline]
pub fn off_val(idx: usize) -> u64 {
    debug_assert!(idx < LEAF_WIDTH);
    if idx < 7 {
        OFF_VALS + (idx as u64) * 8
    } else {
        256 + ((idx - 7) as u64) * 8
    }
}

/// Offset of `ikeys[idx]`.
#[inline]
pub fn off_ikey(idx: usize) -> u64 {
    debug_assert!(idx < LEAF_WIDTH);
    OFF_IKEYS + (idx as u64) * 8
}

/// Offset of the ValInCLL covering `vals[idx]` (`ValInCLL1` for line 3,
/// `ValInCLL2` for line 4).
#[inline]
pub fn incll_for(idx: usize) -> u64 {
    if idx < 7 {
        OFF_INCLL1
    } else {
        OFF_INCLL2
    }
}

/// A leaf's external-undo regions, `(offset, bytes)`: the head (lines
/// 0–2), value line 3, value line 4. Disjoint, in address order, covering
/// the node; [`meta::REGION_LOGGED`] holds each one's capture bit.
pub const LEAF_REGIONS: [(u64, usize); 3] = [(0, 192), (OFF_INCLL1, 64), (256, 64)];

/// The region (index into [`LEAF_REGIONS`]) holding `vals[idx]` and the
/// ValInCLL that covers it.
#[inline]
pub fn val_region(idx: usize) -> usize {
    if idx < 7 {
        1
    } else {
        2
    }
}

// ---------------------------------------------------------------------
// Interior field offsets
// ---------------------------------------------------------------------

/// Interior: number of separator keys.
pub const OFF_INT_NKEYS: u64 = 32;
/// Interior: sorted separator keys (14 × 8 bytes).
pub const OFF_INT_KEYS: u64 = 40;
/// Interior: children offsets (15 × 8 bytes).
pub const OFF_INT_CHILDREN: u64 = 152;

/// Offset of interior key `i`.
#[inline]
pub fn off_int_key(i: usize) -> u64 {
    debug_assert!(i < INT_WIDTH);
    OFF_INT_KEYS + (i as u64) * 8
}

/// Offset of interior child `i`.
#[inline]
pub fn off_int_child(i: usize) -> u64 {
    debug_assert!(i <= INT_WIDTH);
    OFF_INT_CHILDREN + (i as u64) * 8
}

// ---------------------------------------------------------------------
// meta word: nodeEpoch (56 bits) + flags
// ---------------------------------------------------------------------

/// The durable `meta` word (Listing 2's `nodeEpoch` and `logged`, plus
/// durable node-kind bits so recovery can rebuild the transient version
/// word):
///
/// ```text
/// bits  0..56: nodeEpoch
/// bit  58:     val1Logged (transient semantics)
/// bit  59:     val2Logged (transient semantics)
/// bit  60:     unused (older media may carry it set; nothing reads it)
/// bit  61:     logged     (transient semantics)
/// bit  62:     is_leaf    (immutable after init)
/// bit  63:     is_root    (changes only under external logging)
/// ```
///
/// The three capture bits mean something only while `nodeEpoch` is the
/// current epoch: every epoch stamp and every lazy recovery clears them.
pub mod meta {
    /// Mask of the epoch field.
    pub const EPOCH_MASK: u64 = (1 << 56) - 1;
    /// Leaf value line 3 already captured in the external log this epoch.
    pub const VAL1_LOGGED: u64 = 1 << 58;
    /// Leaf value line 4 already captured in the external log this epoch.
    pub const VAL2_LOGGED: u64 = 1 << 59;
    /// Node already captured in the external log this epoch — for a leaf,
    /// every one of its regions.
    pub const LOGGED: u64 = 1 << 61;
    /// The bit that marks each of [`super::LEAF_REGIONS`] captured: the
    /// head is only ever captured as the last region standing, so its bit
    /// is `LOGGED`.
    pub const REGION_LOGGED: [u64; 3] = [LOGGED, VAL1_LOGGED, VAL2_LOGGED];
    /// Border node.
    pub const IS_LEAF: u64 = 1 << 62;
    /// Root of its trie layer.
    pub const IS_ROOT: u64 = 1 << 63;

    /// Extracts the node epoch.
    #[inline]
    pub fn epoch(meta: u64) -> u64 {
        meta & EPOCH_MASK
    }

    /// Replaces the epoch field, keeping flags.
    #[inline]
    pub fn with_epoch(meta: u64, epoch: u64) -> u64 {
        debug_assert_eq!(epoch & !EPOCH_MASK, 0, "epoch overflow");
        (meta & !EPOCH_MASK) | epoch
    }

    /// The high 40 bits of an epoch — the window shared with the 16-bit
    /// `lowNodeEpoch` stored in each ValInCLL (§4.1.3's wrap guard
    /// compares these).
    #[inline]
    pub fn high_window(epoch: u64) -> u64 {
        epoch & EPOCH_MASK & !0xFFFF
    }
}

// ---------------------------------------------------------------------
// ValInCLL packing (§4.1.3)
// ---------------------------------------------------------------------

/// A packed value-log word: slot index (4 bits), value offset (44 bits),
/// low 16 epoch bits.
pub mod val_incll {
    /// Index marker for an unused ValInCLL.
    pub const INVALID_IDX: usize = 15;
    const PTR_MASK: u64 = 0x0000_FFFF_FFFF_FFF0;

    /// Packs `(ptr, idx, low16 epoch)` into one word.
    ///
    /// # Panics
    ///
    /// Debug-panics if `ptr` is not 16-aligned / below 2^48 or `idx > 15`.
    #[inline]
    pub fn pack(ptr: u64, idx: usize, epoch_low16: u16) -> u64 {
        debug_assert_eq!(ptr & !PTR_MASK, 0, "value offset {ptr:#x} not packable");
        debug_assert!(idx <= 15);
        ptr | idx as u64 | ((epoch_low16 as u64) << 48)
    }

    /// An invalid (unused) word stamped with an epoch.
    #[inline]
    pub fn invalid(epoch_low16: u16) -> u64 {
        pack(0, INVALID_IDX, epoch_low16)
    }

    /// The logged value offset.
    #[inline]
    pub fn ptr(word: u64) -> u64 {
        word & PTR_MASK
    }

    /// The logged slot index (15 = invalid).
    #[inline]
    pub fn idx(word: u64) -> usize {
        (word & 0xF) as usize
    }

    /// The low 16 epoch bits.
    #[inline]
    pub fn low16(word: u64) -> u16 {
        (word >> 48) as u16
    }

    /// Reconstructs the full epoch from the node's epoch window (§4.1.3).
    #[inline]
    pub fn full_epoch(word: u64, node_epoch: u64) -> u64 {
        super::meta::high_window(node_epoch) | low16(word) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_cache_line_discipline() {
        // InCLLp (meta + permutationInCLL) shares line 0 with permutation.
        assert_eq!(OFF_META / 64, OFF_PERM / 64);
        assert_eq!(OFF_PERM_INCLL / 64, OFF_PERM / 64);
        // ValInCLL1 shares line 3 with vals[0..7].
        for i in 0..7 {
            assert_eq!(OFF_INCLL1 / 64, off_val(i) / 64, "val {i}");
        }
        // ValInCLL2 shares line 4 with vals[7..14].
        for i in 7..14 {
            assert_eq!(OFF_INCLL2 / 64, off_val(i) / 64, "val {i}");
        }
        // The two value lines are distinct.
        assert_ne!(OFF_INCLL1 / 64, OFF_INCLL2 / 64);
        // Node is exactly 5 lines.
        assert_eq!(OFF_INCLL2 + 8, NODE_BYTES as u64);
    }

    // Compile-time layout guards (clippy: constant assertions belong
    // outside runtime tests).
    const _: () = assert!(OFF_IKEYS >= 64);
    const _: () = assert!(OFF_KLENX + 14 <= OFF_INCLL1);

    #[test]
    fn leaf_regions_tile_the_node_and_hold_their_fields() {
        let mut end = 0;
        for &(off, len) in &LEAF_REGIONS {
            assert_eq!(off, end, "regions are contiguous and disjoint");
            end = off + len as u64;
        }
        assert_eq!(end, NODE_BYTES as u64);
        let within = |r: usize, off: u64| {
            let (start, len) = LEAF_REGIONS[r];
            (start..start + len as u64).contains(&off)
        };
        for f in [OFF_META, OFF_PERM_INCLL, OFF_PERM, OFF_KLENX + 8] {
            assert!(within(0, f), "head field at {f}");
        }
        for i in 0..LEAF_WIDTH {
            assert!(within(0, off_ikey(i)), "ikey {i}");
            assert!(within(val_region(i), off_val(i)), "val {i}");
            assert!(within(val_region(i), incll_for(i)), "ValInCLL of val {i}");
        }
        let bits = meta::REGION_LOGGED;
        assert_eq!(bits.iter().fold(0, |m, b| m | b).count_ones(), 3);
        for b in bits {
            assert_eq!(b & meta::EPOCH_MASK, 0);
            assert_eq!(b & (meta::IS_LEAF | meta::IS_ROOT), 0);
        }
    }

    #[test]
    fn field_regions_do_not_overlap() {
        assert_eq!(off_ikey(13) + 8, OFF_KLENX);
        assert_eq!(off_val(6) + 8, 256);
        assert_eq!(off_val(13) + 8, OFF_INCLL2);
        assert!(off_int_child(INT_WIDTH) + 8 <= NODE_BYTES as u64);
    }

    #[test]
    fn meta_roundtrip() {
        let m = meta::with_epoch(meta::IS_LEAF | meta::VAL2_LOGGED, 0xABCD);
        assert_eq!(meta::epoch(m), 0xABCD);
        assert!(m & meta::IS_LEAF != 0);
        assert!(m & meta::VAL2_LOGGED != 0);
        assert!(m & meta::LOGGED == 0);
        let m2 = meta::with_epoch(m, 7);
        assert_eq!(meta::epoch(m2), 7);
        assert!(m2 & meta::IS_LEAF != 0);
    }

    #[test]
    fn val_incll_roundtrip() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let w = val_incll::pack(0x1234_5670, 6, 0xBEEF);
        assert_eq!(val_incll::ptr(w), 0x1234_5670);
        assert_eq!(val_incll::idx(w), 6);
        assert_eq!(val_incll::low16(w), 0xBEEF);
        // Packing is lossless for every representable triple: any
        // 16-aligned offset below 2^48, any slot, any low epoch half.
        let mut rng = StdRng::seed_from_u64(0x001A_7C11);
        for _ in 0..4096 {
            let ptr = rng.gen_range(0u64..1 << 44) << 4;
            let idx = rng.gen_range(0usize..15);
            let ep: u16 = rng.gen();
            let w = val_incll::pack(ptr, idx, ep);
            assert_eq!(val_incll::ptr(w), ptr);
            assert_eq!(val_incll::idx(w), idx);
            assert_eq!(val_incll::low16(w), ep);
        }
    }

    #[test]
    fn val_incll_invalid() {
        let w = val_incll::invalid(7);
        assert_eq!(val_incll::idx(w), val_incll::INVALID_IDX);
        assert_eq!(val_incll::ptr(w), 0);
        assert_eq!(val_incll::low16(w), 7);
    }

    #[test]
    fn val_incll_epoch_reconstruction() {
        let node_epoch = 0x12_3456_ABCD;
        let w = val_incll::pack(16, 0, 0xABCD);
        assert_eq!(val_incll::full_epoch(w, node_epoch), node_epoch);
        // A stale low half reconstructs within the same window.
        let stale = val_incll::pack(16, 0, 0x0001);
        assert_eq!(val_incll::full_epoch(stale, node_epoch), 0x12_3456_0001);
    }

    #[test]
    fn epoch_window_wrap_detection() {
        let e1 = 0xFFFF;
        let e2 = 0x1_0000;
        assert_ne!(meta::high_window(e1), meta::high_window(e2));
        assert_eq!(meta::high_window(e2), meta::high_window(e2 + 0xFF));
    }
}
