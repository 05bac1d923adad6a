//! Node version words: Masstree's optimistic concurrency control (§2.2).
//!
//! Every node carries a 64-bit version word combining a spinlock, "dirty"
//! bits announcing in-progress inserts/splits, and generation counters that
//! readers validate against:
//!
//! ```text
//! bit  0: LOCK        writer lock
//! bit  1: INSERTING   contents being rearranged (dirty)
//! bit  2: SPLITTING   node splitting (dirty; held across the parent update)
//! bit  3: DELETED     node retired
//! bit  4: IS_ROOT     node is the root of its trie layer
//! bit  5: IS_LEAF     border node (vs interior)
//! bits  8..36: vinsert counter (bumped by every insert/remove unlock)
//! bits 36..63: vsplit  counter (bumped by every split unlock)
//! ```
//!
//! Readers take a *stable* snapshot (spin while dirty), read node contents,
//! then re-check the word: any change to the dirty bits or counters means
//! the read raced a writer and must retry. Writers lock, set a dirty bit,
//! mutate, and unlock-with-increment in one release store.
//!
//! The bits and the pure `u64` helpers live here; the protocol itself
//! (`stable`, `lock`, `mark_dirty`, `unlock`, `set_flag`) is written once
//! over a tree's word access ([`crate::tree::NodeStore`]), so the transient
//! and the durable tree lock the same way. In persistent memory the word is
//! semantically transient: recovery reinitialises it (§4.3).

/// Writer lock bit.
pub const LOCK: u64 = 1 << 0;
/// Insert-in-progress dirty bit.
pub const INSERTING: u64 = 1 << 1;
/// Split-in-progress dirty bit.
pub const SPLITTING: u64 = 1 << 2;
/// Node retired.
pub const DELETED: u64 = 1 << 3;
/// Root of its trie layer.
pub const IS_ROOT: u64 = 1 << 4;
/// Border (leaf) node.
pub const IS_LEAF: u64 = 1 << 5;

const VINSERT_SHIFT: u32 = 8;
const VINSERT_UNIT: u64 = 1 << VINSERT_SHIFT;
const VSPLIT_SHIFT: u32 = 36;
const DIRTY: u64 = INSERTING | SPLITTING;

/// Whether a version word is dirty (contents unstable).
#[inline]
pub fn is_dirty(v: u64) -> bool {
    v & DIRTY != 0
}

/// Whether the lock bit is held.
#[inline]
pub fn is_locked(v: u64) -> bool {
    v & LOCK != 0
}

/// Whether two stable snapshots allow a read to be trusted: the dirty bits
/// and both counters must be identical (the lock bit alone is fine — a
/// writer that locked but has not yet dirtied anything has not changed the
/// contents).
#[inline]
pub fn changed(before: u64, after: u64) -> bool {
    (before ^ after) & !LOCK != 0
}

/// The unlock word for a writer: clear lock + dirty bits and bump the
/// counters for the work performed. Each counter wraps within its own
/// field (no carry between them).
#[inline]
pub fn unlock_word(v: u64, did_insert: bool, did_split: bool) -> u64 {
    const FIELD: u64 = (1 << 28) - 1; // both counters are 28 bits wide
    let flags = v & ((VINSERT_UNIT - 1) & !(LOCK | INSERTING | SPLITTING));
    let mut vins = (v >> VINSERT_SHIFT) & FIELD;
    let mut vspl = (v >> VSPLIT_SHIFT) & FIELD;
    if did_insert {
        vins = (vins + 1) & FIELD;
    }
    if did_split {
        vspl = (vspl + 1) & FIELD;
    }
    flags | (vins << VINSERT_SHIFT) | (vspl << VSPLIT_SHIFT)
}

/// Whether the leaf's keys may have moved elsewhere since snapshot
/// `before` (split or retirement) — insert/remove churn is fine, the leaf
/// still covers the key range.
#[inline]
pub fn moved_since(before: u64, now: u64) -> bool {
    const VSPLIT_MASK: u64 = !((1u64 << VSPLIT_SHIFT) - 1);
    (before ^ now) & (VSPLIT_MASK | DELETED) != 0
}

/// One step of a spin wait: a pause for the first 128 steps, then a yield.
#[inline]
pub fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins < 128 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VSPLIT_UNIT: u64 = 1 << VSPLIT_SHIFT;

    #[test]
    fn split_bumps_vsplit_not_vinsert_only() {
        let a = unlock_word(LOCK | SPLITTING, false, true);
        assert_eq!(a & (LOCK | SPLITTING), 0);
        assert!(changed(0, a));
        let b = unlock_word(LOCK | INSERTING, true, false);
        assert!(changed(0, b));
        assert_ne!(a, b, "insert and split advance different counters");
    }

    #[test]
    fn lock_bit_alone_is_not_a_change() {
        assert!(!changed(0, LOCK));
        assert!(changed(0, INSERTING));
        assert!(changed(0, unlock_word(LOCK, true, false)));
    }

    #[test]
    fn unlock_keeps_kind_flags() {
        let w = unlock_word(IS_LEAF | IS_ROOT | LOCK | INSERTING, true, false);
        assert_eq!(w & (IS_LEAF | IS_ROOT), IS_LEAF | IS_ROOT);
        assert!(!is_locked(w) && !is_dirty(w));
    }

    #[test]
    fn only_splits_and_retirement_move_keys() {
        let v = IS_LEAF;
        assert!(!moved_since(v, unlock_word(v | LOCK, true, false)));
        assert!(moved_since(v, unlock_word(v | LOCK, false, true)));
        assert!(moved_since(v, v | DELETED));
    }

    #[test]
    fn vinsert_overflow_does_not_touch_vsplit() {
        // Saturate vinsert to the top of its field and add one more.
        let vins_max = ((VSPLIT_UNIT - VINSERT_UNIT) / VINSERT_UNIT) * VINSERT_UNIT;
        let w = unlock_word(LOCK | vins_max, true, false);
        assert_eq!(w >> VSPLIT_SHIFT, 0, "vinsert carry must not reach vsplit");
    }
}
