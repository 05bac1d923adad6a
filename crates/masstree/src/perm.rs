//! Masstree's permutation word (§2.2).
//!
//! A leaf stores keys and values in *unsorted* array slots; a single 64-bit
//! word — the permutation — records which slots are occupied and in what
//! sorted order. Inserting or removing a key is then a single atomic store
//! of the new permutation, which is exactly the property the paper's
//! `InCLLp` exploits: logging that one word suffices to undo any sequence
//! of deletions in an epoch, mixed with writes into slots that were free
//! when it was logged (§4.1.1 allows pure insertions or pure deletions;
//! [`Permutation::front_free_outside`] steers a write to such a slot).
//! Two kinds of write take one: an insertion, and an update that moves
//! its key out of a slot whose value line has no in-line log left
//! ([`Permutation::replace_at`]) — the old slot keeps its epoch-start
//! value, which the logged word still names.
//!
//! Layout (kpermuter-style): the low nibble is the occupied count; nibble
//! `1 + i` holds the slot index at sorted position `i`. Nibbles past the
//! count hold the free slots, so allocating a slot for insertion is "take
//! the nibble at position `count`".
//!
//! The word supports widths up to 15 (15 index nibbles + the count nibble).

/// A permutation over `W` slots (`W` ≤ 15).
///
/// # Example
///
/// ```
/// use incll_masstree::perm::Permutation;
///
/// let mut p = Permutation::<15>::empty();
/// let slot = p.insert_at(0); // allocate a slot for sorted position 0
/// assert_eq!(p.len(), 1);
/// assert_eq!(p.slot_at(0), slot);
/// p.remove_at(0);
/// assert_eq!(p.len(), 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Permutation<const W: usize>(u64);

impl<const W: usize> Permutation<W> {
    /// An empty permutation: count 0, free slots in ascending order.
    pub fn empty() -> Self {
        assert!(W <= 15, "permutation supports at most 15 slots");
        let mut word = 0u64;
        for i in 0..W {
            word |= (i as u64) << (4 + 4 * i);
        }
        Permutation(word)
    }

    /// Wraps a raw permutation word (e.g. read from a node).
    #[inline]
    pub const fn from_raw(word: u64) -> Self {
        Permutation(word)
    }

    /// The raw 64-bit word.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Number of occupied slots.
    #[inline]
    pub fn len(self) -> usize {
        (self.0 & 0xF) as usize
    }

    /// Whether no slot is occupied.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Whether all `W` slots are occupied.
    #[inline]
    pub fn is_full(self) -> bool {
        self.len() == W
    }

    /// The slot index stored at sorted position `pos`.
    ///
    /// # Panics
    ///
    /// Debug-panics if `pos >= W`.
    #[inline]
    pub fn slot_at(self, pos: usize) -> usize {
        debug_assert!(pos < W);
        ((self.0 >> (4 + 4 * pos)) & 0xF) as usize
    }

    fn set_slot_at(&mut self, pos: usize, slot: usize) {
        let shift = 4 + 4 * pos;
        self.0 = (self.0 & !(0xF << shift)) | ((slot as u64) << shift);
    }

    /// Allocates a free slot and inserts it at sorted position `pos`,
    /// returning the slot index. The caller writes the key/value into the
    /// slot *before* publishing the new permutation.
    ///
    /// # Panics
    ///
    /// Panics if the permutation is full or `pos > len()`.
    #[must_use = "the returned slot must be filled before publishing"]
    pub fn insert_at(&mut self, pos: usize) -> usize {
        let count = self.len();
        assert!(count < W, "insert into full permutation");
        assert!(pos <= count, "insert position {pos} beyond count {count}");
        let free = self.slot_at(count); // first free slot lives at position `count`
        let mut i = count;
        while i > pos {
            let v = self.slot_at(i - 1);
            self.set_slot_at(i, v);
            i -= 1;
        }
        self.set_slot_at(pos, free);
        self.0 = (self.0 & !0xF) | (count as u64 + 1);
        free
    }

    /// Removes the entry at sorted position `pos`; its slot returns to the
    /// free region.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len()`.
    pub fn remove_at(&mut self, pos: usize) {
        let count = self.len();
        assert!(pos < count, "remove position {pos} beyond count {count}");
        let slot = self.slot_at(pos);
        for i in pos..count - 1 {
            let v = self.slot_at(i + 1);
            self.set_slot_at(i, v);
        }
        // Recycle the slot at the front of the free region.
        self.set_slot_at(count - 1, slot);
        self.0 = (self.0 & !0xF) | (count as u64 - 1);
    }

    /// Moves the entry at sorted position `pos` into the first free slot,
    /// returning that slot; the entry's old slot becomes the front of the
    /// free region. The count is unchanged. The caller copies the entry
    /// into the returned slot *before* publishing the new permutation.
    ///
    /// # Panics
    ///
    /// Panics if the permutation is full or `pos >= len()`.
    #[must_use = "the returned slot must be filled before publishing"]
    pub fn replace_at(&mut self, pos: usize) -> usize {
        let count = self.len();
        assert!(count < W, "replace in full permutation");
        assert!(pos < count, "replace position {pos} beyond count {count}");
        let (old, free) = (self.slot_at(pos), self.slot_at(count));
        self.set_slot_at(pos, free);
        self.set_slot_at(count, old);
        free
    }

    /// Moves the first free slot that `other` also lists as free to the
    /// front of the free region, so the next [`Permutation::insert_at`]
    /// takes it. Returns `false`, leaving `self` unchanged, when every
    /// free slot is occupied in `other`.
    ///
    /// A durable leaf passes its epoch-start permutation: an insert into a
    /// slot that was free then overwrites nothing that permutation names.
    pub fn front_free_outside(&mut self, other: Self) -> bool {
        let taken = other.occupied().fold(0u16, |m, s| m | 1 << s);
        let count = self.len();
        let Some(pos) = (count..W).find(|&i| taken & 1 << self.slot_at(i) == 0) else {
            return false;
        };
        if pos != count {
            let (front, pick) = (self.slot_at(count), self.slot_at(pos));
            self.set_slot_at(count, pick);
            self.set_slot_at(pos, front);
        }
        true
    }

    /// Iterator over occupied slot indices in sorted order.
    pub fn occupied(self) -> impl Iterator<Item = usize> {
        (0..self.len()).map(move |i| self.slot_at(i))
    }

    /// Returns a permutation keeping only the first `keep` sorted
    /// positions; the dropped entries' slots return to the free region.
    /// Used when a split moves the upper entries to a new node.
    ///
    /// # Panics
    ///
    /// Panics if `keep > len()`.
    #[must_use]
    pub fn truncated(self, keep: usize) -> Self {
        let count = self.len();
        assert!(keep <= count, "cannot keep {keep} of {count}");
        let mut out = self;
        // Occupied prefix stays; everything else (dropped + already free)
        // goes to the free region in stable order.
        for i in keep..W {
            out.set_slot_at(i, self.slot_at(i));
        }
        out.0 = (out.0 & !0xF) | keep as u64;
        out
    }
}

impl<const W: usize> std::fmt::Debug for Permutation<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Perm[{}](", self.len())?;
        for i in 0..self.len() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", self.slot_at(i))?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type P15 = Permutation<15>;
    type P14 = Permutation<14>;

    /// The structural invariant: the count fits and all `W` nibbles form
    /// a permutation of `0..W`.
    fn is_valid<const W: usize>(p: Permutation<W>) -> bool {
        let mut seen = [false; 16];
        p.len() <= W
            && (0..W).all(|i| {
                let s = p.slot_at(i);
                s < W && !std::mem::replace(&mut seen[s], true)
            })
    }

    #[test]
    fn empty_has_ascending_free_slots() {
        let p = P15::empty();
        assert_eq!(p.len(), 0);
        assert!(is_valid(p));
        // First insertion takes slot 0, second slot 1, ...
        let mut q = p;
        assert_eq!(q.insert_at(0), 0);
        assert_eq!(q.insert_at(1), 1);
        assert_eq!(q.insert_at(0), 2);
        assert!(is_valid(q));
    }

    #[test]
    fn insert_shifts_positions() {
        let mut p = P15::empty();
        let a = p.insert_at(0);
        let b = p.insert_at(0); // inserted before a
        assert_eq!(p.slot_at(0), b);
        assert_eq!(p.slot_at(1), a);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn remove_returns_slot_to_free_pool() {
        let mut p = P15::empty();
        let a = p.insert_at(0);
        let _b = p.insert_at(1);
        p.remove_at(0);
        assert_eq!(p.len(), 1);
        assert!(is_valid(p));
        // The freed slot is immediately reusable.
        let c = p.insert_at(1);
        assert_eq!(c, a);
    }

    #[test]
    fn fill_and_empty_width_14() {
        let mut p = P14::empty();
        let mut slots = Vec::new();
        for i in 0..14 {
            slots.push(p.insert_at(i));
        }
        assert!(p.is_full());
        assert!(is_valid(p));
        let unique: std::collections::HashSet<_> = slots.iter().collect();
        assert_eq!(unique.len(), 14);
        for _ in 0..14 {
            p.remove_at(0);
        }
        assert!(p.is_empty());
        assert!(is_valid(p));
    }

    #[test]
    #[should_panic(expected = "full")]
    fn insert_into_full_panics() {
        let mut p = P14::empty();
        for i in 0..14 {
            let _ = p.insert_at(i);
        }
        let _ = p.insert_at(0);
    }

    #[test]
    #[should_panic(expected = "beyond count")]
    fn remove_past_count_panics() {
        let mut p = P15::empty();
        let _ = p.insert_at(0);
        p.remove_at(1);
    }

    #[test]
    fn raw_roundtrip() {
        let mut p = P15::empty();
        let _ = p.insert_at(0);
        let q = P15::from_raw(p.raw());
        assert_eq!(p, q);
    }

    #[test]
    fn front_free_outside_prefers_slots_free_in_the_other() {
        let mut start = P14::empty();
        for i in 0..12 {
            let _ = start.insert_at(i);
        }
        // Without removes the first free slot already qualifies.
        let mut p = start;
        assert!(p.front_free_outside(start));
        assert_eq!(p, start);
        // Two removes put slots 0 and 5 ahead of 12 and 13.
        p.remove_at(5);
        p.remove_at(0);
        assert_eq!(p.slot_at(p.len()), 0);
        assert!(p.front_free_outside(start));
        assert!(is_valid(p));
        assert_eq!(p.occupied().count(), 10);
        let s = p.insert_at(3);
        assert!(s >= 12, "took slot {s}, occupied at the start");
        assert!(p.front_free_outside(start));
        let t = p.insert_at(0);
        assert_eq!(s + t, 25, "the other one of 12 and 13");
        // Only slots the start permutation named are left.
        let before = p;
        assert!(!p.front_free_outside(start));
        assert_eq!(p, before);
        // A full permutation has nothing to offer.
        let mut full = start;
        let _ = full.insert_at(0);
        let _ = full.insert_at(0);
        assert!(!full.front_free_outside(P14::empty()));
    }

    #[test]
    fn replace_at_moves_an_entry_to_a_slot_free_in_the_other() {
        let mut start = P14::empty();
        for i in 0..10 {
            let _ = start.insert_at(i);
        }
        let mut p = start;
        p.remove_at(2);
        // Slot 2 fronts the free region, but `start` names it: steer past.
        assert_eq!(p.slot_at(p.len()), 2);
        assert!(p.front_free_outside(start));
        let order: Vec<usize> = p.occupied().collect();
        let new = p.replace_at(4);
        assert_eq!(new, 10, "the first slot free in `start`");
        assert!(is_valid(p));
        assert_eq!(p.len(), 9, "a move keeps the count");
        let mut want = order.clone();
        want[4] = new;
        assert_eq!(p.occupied().collect::<Vec<_>>(), want);
        assert_eq!(
            p.slot_at(p.len()),
            order[4],
            "the old slot fronts the free region"
        );
        // Moving again takes the next slot `start` left free; the moved
        // entry's old slot is not one of them.
        assert!(p.front_free_outside(start));
        assert_eq!(p.replace_at(0), 11);
        assert!(is_valid(p));
    }

    #[test]
    #[should_panic(expected = "full")]
    fn replace_in_full_panics() {
        let mut p = P14::empty();
        for i in 0..14 {
            let _ = p.insert_at(i);
        }
        let _ = p.replace_at(0);
    }

    #[test]
    fn occupied_iterates_in_order() {
        let mut p = P15::empty();
        let a = p.insert_at(0);
        let b = p.insert_at(1);
        let c = p.insert_at(1);
        assert_eq!(p.occupied().collect::<Vec<_>>(), vec![a, c, b]);
    }

    #[test]
    fn random_ops_preserve_invariant() {
        // Deterministic pseudo-random insert/remove churn.
        let mut p = P15::empty();
        let mut model: Vec<usize> = Vec::new(); // model of slots by position
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = (x >> 33) as usize;
            if p.is_full() || (!p.is_empty() && r.is_multiple_of(2)) {
                let pos = r % p.len();
                p.remove_at(pos);
                model.remove(pos);
            } else {
                let pos = r % (p.len() + 1);
                let slot = p.insert_at(pos);
                model.insert(pos, slot);
            }
            assert!(is_valid(p));
            assert_eq!(p.occupied().collect::<Vec<_>>(), model);
        }
    }
}
