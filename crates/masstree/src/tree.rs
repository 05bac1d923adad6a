//! The Masstree algorithm (§2.2), written once over [`NodeStore`].
//!
//! A concurrent trie of B+trees: optimistic lock-free readers validated by
//! node version words ([`crate::version`]), per-node writer locks,
//! permutation-published leaf updates ([`crate::perm`]), B+tree splits
//! with the `SPLITTING` bit held across the parent update (which is what
//! makes the reader descent protocol sound), and trie layering for keys
//! longer than 8 bytes ([`crate::key`]).
//!
//! Nodes are addresses and every field is a 64-bit word at an offset the
//! implementation names, so one algorithm runs over both instantiations:
//! the transient MT/MT+ baseline ([`crate::Masstree`], raw atomics) and the
//! durable tree (words in a persistent arena at the paper's Fig. 1
//! offsets). The durable tree's logging runs through the hooks, each
//! called at the one point the InCLL discipline needs it — before the
//! store it guards; the transient tree keeps their no-op defaults.
//!
//! A layer is reached through its *holder*: a word holding the address of
//! the layer's root node, swung when the root splits. A leaf slot whose
//! `keylenx` is [`KLEN_LAYER`] holds the next layer's holder; any other
//! slot holds a *value word*, which the algorithm stores and returns but
//! never interprets.

use std::cmp::Ordering;

use crate::key::{entry_cmp, search_klenx, KeyCursor, KLEN_LAYER};
use crate::perm::Permutation;
use crate::version::{self, INSERTING, IS_LEAF, IS_ROOT, LOCK, SPLITTING};

/// Outcome of a leaf search for `(ikey, klenx)`.
#[derive(Debug)]
pub enum Search {
    /// Exact entry at sorted position `pos`, array slot `slot`.
    Found {
        /// Sorted position.
        pos: usize,
        /// Array slot.
        slot: usize,
        /// The entry's `keylenx`.
        klenx: u8,
        /// The entry's value word (or layer holder).
        val: u64,
    },
    /// Absent; would sort at position `pos`.
    NotFound {
        /// Sorted insert position.
        pos: usize,
    },
}

/// A Masstree's nodes: word access at a node address, the node layout,
/// node creation and the durable hooks; `W` is the leaf width. The
/// algorithm is this trait's provided methods.
///
/// Both node kinds start with the version word (offset 0) and keep their
/// parent word at [`NodeStore::OFF_PARENT`]. A leaf's `keylenx` bytes are
/// packed little-endian into the words from [`NodeStore::OFF_KLENX`].
///
/// The unsafe methods take node and holder addresses: each must name a
/// live node (or holder) of this tree, reached from a holder under the
/// protection the caller's reclamation scheme gives (an epoch pin).
///
/// # Safety
///
/// An implementation's creation methods return fresh, exclusively owned,
/// 8-aligned memory holding every word the layout names, and its word
/// access is valid at every such address: the safe provided methods
/// store into a fresh node before publishing it.
pub unsafe trait NodeStore<const W: usize> {
    /// Separator keys per interior node.
    const INT_WIDTH: usize;
    /// Parent interior node (0 at a layer root), both node kinds.
    const OFF_PARENT: u64;
    /// Leaf: right sibling (0 at the layer's right edge).
    const OFF_NEXT: u64;
    /// Leaf: the permutation word.
    const OFF_PERM: u64;
    /// Leaf: the `keylenx` bytes.
    const OFF_KLENX: u64;
    /// Interior: the separator count.
    const OFF_INT_NKEYS: u64;
    /// Leaf: offset of `ikeys[slot]`.
    fn off_ikey(slot: usize) -> u64;
    /// Leaf: offset of `vals[slot]`.
    fn off_val(slot: usize) -> u64;
    /// Interior: offset of separator `i`.
    fn off_int_key(i: usize) -> u64;
    /// Interior: offset of child `i`.
    fn off_int_child(i: usize) -> u64;

    /// What a write carries to creation and the hooks (thread slot, and
    /// on the durable tree the epoch the write lands in).
    type Cx: Copy;
    /// Node, holder or value creation failure.
    type Error: std::fmt::Debug;

    /// Relaxed load of the word at `addr`.
    ///
    /// # Safety
    /// `addr` is a word of a live node or holder of this tree.
    unsafe fn load(&self, addr: u64) -> u64;
    /// Acquire load of the word at `addr`.
    ///
    /// # Safety
    /// As for [`NodeStore::load`].
    unsafe fn load_acquire(&self, addr: u64) -> u64;
    /// Relaxed store to the word at `addr`.
    ///
    /// # Safety
    /// As for [`NodeStore::load`], and the caller owns the word.
    unsafe fn store(&self, addr: u64, val: u64);
    /// Release store to the word at `addr`.
    ///
    /// # Safety
    /// As for [`NodeStore::store`].
    unsafe fn store_release(&self, addr: u64, val: u64);
    /// Compare-exchange of the word at `addr` (acquire on success).
    ///
    /// # Safety
    /// As for [`NodeStore::load`].
    unsafe fn cas(&self, addr: u64, current: u64, new: u64) -> bool;

    /// A fresh empty leaf, its version word holding `IS_LEAF` plus
    /// `IS_ROOT` and `LOCK` as asked.
    fn new_leaf(&self, cx: Self::Cx, is_root: bool, locked: bool) -> Result<u64, Self::Error>;
    /// A fresh empty interior node, flagged as [`NodeStore::new_leaf`].
    fn new_interior(&self, cx: Self::Cx, is_root: bool, locked: bool) -> Result<u64, Self::Error>;
    /// A fresh layer holder naming `root`.
    fn new_holder(&self, cx: Self::Cx, root: u64) -> Result<u64, Self::Error>;

    /// Called on a node before its first use by a descent, an upward
    /// split or a scan (durable: lazy recovery).
    fn maybe_recover(&self, _node: u64) {}
    /// Called on a value word about to be replaced or removed.
    fn prefetch_value(&self, _buf: u64) {}
    /// Called with the leaf locked before an insert marks it dirty; may
    /// reorder `perm`'s free slots (durable: InCLLp).
    fn incll_insert(&self, _cx: Self::Cx, _lf: u64, _perm: &mut Permutation<W>) {}
    /// Called with the leaf locked before the value of `slot` (now `old`)
    /// is replaced. `Some(perm)`: move the key instead, publishing `perm`
    /// with the key in its first free slot (durable: ValInCLL).
    fn incll_val(
        &self,
        _cx: Self::Cx,
        _lf: u64,
        _slot: usize,
        _old: u64,
    ) -> Option<Permutation<W>> {
        None
    }
    /// Called with the leaf locked before a removal marks it dirty.
    fn incll_remove(&self, _cx: Self::Cx, _lf: u64) {}
    /// Called with the leaf locked before a layer conversion or a split.
    fn ensure_leaf_logged(&self, _cx: Self::Cx, _lf: u64) {}
    /// Called with the interior node locked before an insert or a split.
    fn ensure_int_logged(&self, _cx: Self::Cx, _node: u64) {}
    /// Called before a root split swings `holder`.
    fn log_holder(&self, _cx: Self::Cx, _holder: u64) {}
    /// Called on the old root after the holder swing, before its
    /// version word drops `IS_ROOT`.
    fn demote_root(&self, _node: u64) {}

    // ------------------------------------------------------------------
    // The version protocol
    // ------------------------------------------------------------------

    /// Spins until `node`'s version is not dirty; returns the snapshot.
    ///
    /// # Safety
    /// `node` is a live node of this tree.
    #[inline]
    unsafe fn stable(&self, node: u64) -> u64 {
        let mut spins = 0u32;
        loop {
            // SAFETY: the caller's contract.
            let v = unsafe { self.load_acquire(node) };
            if !version::is_dirty(v) {
                return v;
            }
            version::backoff(&mut spins);
        }
    }

    /// Acquires `node`'s writer lock (spinning); returns the locked word.
    ///
    /// # Safety
    /// `node` is a live node of this tree.
    unsafe fn lock(&self, node: u64) -> u64 {
        let mut spins = 0u32;
        loop {
            // SAFETY: the caller's contract.
            let v = unsafe { self.load(node) };
            if !version::is_locked(v) && unsafe { self.cas(node, v, v | LOCK) } {
                return v | LOCK;
            }
            version::backoff(&mut spins);
        }
    }

    /// Sets a dirty bit while holding the lock.
    ///
    /// # Safety
    /// `node` is a live node of this tree, locked by the caller.
    #[inline]
    unsafe fn mark_dirty(&self, node: u64, bit: u64) {
        unsafe {
            let v = self.load(node);
            debug_assert!(version::is_locked(v), "dirty bit without the lock");
            self.store_release(node, v | bit);
        }
    }

    /// Releases the lock, clearing dirty bits and bumping the counters
    /// for the work performed.
    ///
    /// # Safety
    /// As for [`NodeStore::mark_dirty`].
    #[inline]
    unsafe fn unlock(&self, node: u64, did_insert: bool, did_split: bool) {
        unsafe {
            let v = self.load(node);
            debug_assert!(version::is_locked(v));
            self.store_release(node, version::unlock_word(v, did_insert, did_split));
        }
    }

    /// Sets or clears a flag bit (e.g. `IS_ROOT`) while holding the lock.
    ///
    /// # Safety
    /// As for [`NodeStore::mark_dirty`].
    unsafe fn set_flag(&self, node: u64, bit: u64, on: bool) {
        unsafe {
            let v = self.load(node);
            debug_assert!(version::is_locked(v));
            self.store_release(node, if on { v | bit } else { v & !bit });
        }
    }

    // ------------------------------------------------------------------
    // Leaf fields
    // ------------------------------------------------------------------

    /// The leaf's permutation.
    ///
    /// # Safety
    /// `lf` is a live leaf of this tree.
    #[inline]
    unsafe fn perm_of(&self, lf: u64) -> Permutation<W> {
        // SAFETY: the caller's contract.
        Permutation::from_raw(unsafe { self.load_acquire(lf + Self::OFF_PERM) })
    }

    /// `keylenx[slot]`.
    ///
    /// # Safety
    /// As for [`NodeStore::perm_of`].
    #[inline]
    unsafe fn klenx_at(&self, lf: u64, slot: usize) -> u8 {
        // SAFETY: the caller's contract.
        let word = unsafe { self.load_acquire(lf + Self::OFF_KLENX + (slot as u64 / 8) * 8) };
        (word >> ((slot % 8) * 8)) as u8
    }

    /// Writes `keylenx[slot]`.
    ///
    /// # Safety
    /// As for [`NodeStore::perm_of`], and the leaf is locked (or not yet
    /// published) by the caller: the exclusive writer.
    #[inline]
    unsafe fn set_klenx(&self, lf: u64, slot: usize, klenx: u8) {
        let off = lf + Self::OFF_KLENX + (slot as u64 / 8) * 8;
        let shift = (slot % 8) * 8;
        // SAFETY: the caller's contract.
        unsafe {
            let word = self.load(off);
            self.store_release(
                off,
                (word & !(0xFFu64 << shift)) | ((klenx as u64) << shift),
            );
        }
    }

    // ------------------------------------------------------------------
    // Descent
    // ------------------------------------------------------------------

    /// Finds the border leaf for `ikey` within the layer at `holder`,
    /// hand-over-hand validated. Returns the leaf and the stable version
    /// snapshot the caller must validate against.
    ///
    /// # Safety
    /// `holder` is a live holder of this tree.
    #[inline]
    unsafe fn find_leaf(&self, holder: u64, ikey: u64) -> (u64, u64) {
        unsafe {
            'retry: loop {
                let n0 = self.load_acquire(holder);
                self.maybe_recover(n0);
                let v0 = self.stable(n0);
                if v0 & IS_ROOT == 0 {
                    // Root demoted by a split; the holder is updated before
                    // the flag clears, so re-reading resolves promptly.
                    std::hint::spin_loop();
                    continue 'retry;
                }
                let (mut n, mut v) = (n0, v0);
                loop {
                    if v & IS_LEAF != 0 {
                        return (n, v);
                    }
                    let child = self.load_acquire(n + Self::off_int_child(self.route(n, ikey)));
                    if child == 0 {
                        continue 'retry;
                    }
                    self.maybe_recover(child);
                    // Take the child's stable version BEFORE re-validating
                    // the parent: a leaf split holds SPLITTING until the
                    // parent is updated, so this order guarantees we either
                    // see the parent change (retry) or a pre-split child.
                    let vc = self.stable(child);
                    if version::changed(v, self.load_acquire(n)) {
                        continue 'retry;
                    }
                    n = child;
                    v = vc;
                }
            }
        }
    }

    /// Child index routing `ikey`: the number of separators ≤ `ikey`
    /// (keys equal to a separator route right). The count is clamped to
    /// the node's width: recovered media may hold a torn one.
    ///
    /// # Safety
    /// `int` is a live interior node of this tree.
    #[inline]
    unsafe fn route(&self, int: u64, ikey: u64) -> usize {
        unsafe {
            let n = (self.load_acquire(int + Self::OFF_INT_NKEYS) as usize).min(Self::INT_WIDTH);
            let mut i = 0;
            while i < n && self.load_acquire(int + Self::off_int_key(i)) <= ikey {
                i += 1;
            }
            i
        }
    }

    /// Linear search of a (stable or locked) leaf for `(ikey, klenx)`.
    ///
    /// # Safety
    /// `lf` is a live leaf of this tree.
    unsafe fn search_leaf(&self, lf: u64, ikey: u64, klenx: u8) -> Search {
        unsafe {
            let perm = self.perm_of(lf);
            for pos in 0..perm.len() {
                let slot = perm.slot_at(pos);
                let k = self.load_acquire(lf + Self::off_ikey(slot));
                let kl = self.klenx_at(lf, slot);
                match entry_cmp(k, kl, ikey, klenx) {
                    Ordering::Less => continue,
                    Ordering::Equal => {
                        return Search::Found {
                            pos,
                            slot,
                            klenx: kl,
                            val: self.load_acquire(lf + Self::off_val(slot)),
                        }
                    }
                    Ordering::Greater => return Search::NotFound { pos },
                }
            }
            Search::NotFound { pos: perm.len() }
        }
    }

    /// Reads the entry `(ikey, keylenx, value)` at sorted position `pos`
    /// (must be in range).
    ///
    /// # Safety
    /// `lf` is a live leaf of this tree.
    unsafe fn entry_at(&self, lf: u64, pos: usize) -> (u64, u8, u64) {
        unsafe {
            let slot = self.perm_of(lf).slot_at(pos);
            (
                self.load_acquire(lf + Self::off_ikey(slot)),
                self.klenx_at(lf, slot),
                self.load_acquire(lf + Self::off_val(slot)),
            )
        }
    }

    // ------------------------------------------------------------------
    // get / put / remove
    // ------------------------------------------------------------------

    /// Looks up `key` under the layer at `holder`, returning its value
    /// word as it was when the leaf's version validated.
    ///
    /// # Safety
    /// `holder` is a live holder of this tree.
    unsafe fn get_inner(&self, holder: u64, key: &[u8]) -> Option<u64> {
        unsafe {
            let mut cur = KeyCursor::new(key);
            let mut holder = holder;
            'layer: loop {
                let ikey = cur.ikey();
                let target = search_klenx(&cur);
                'retry: loop {
                    let (lf, v) = self.find_leaf(holder, ikey);
                    // The outcome, decided before validation: `Err` names
                    // the layer to descend into.
                    let act = match self.search_leaf(lf, ikey, target) {
                        Search::Found { klenx, val, .. } if klenx == KLEN_LAYER => Err(val),
                        Search::Found { val, .. } => Ok(Some(val)),
                        // A terminal-8 probe may still descend into a layer
                        // holding this exact slice as its empty suffix.
                        Search::NotFound { pos } if target == 8 && pos < self.perm_of(lf).len() => {
                            match self.entry_at(lf, pos) {
                                (k, KLEN_LAYER, h) if k == ikey => Err(h),
                                _ => Ok(None),
                            }
                        }
                        Search::NotFound { .. } => Ok(None),
                    };
                    if version::changed(v, self.load_acquire(lf)) {
                        continue 'retry;
                    }
                    match act {
                        Ok(found) => return found,
                        Err(h) => {
                            holder = h;
                            cur.descend();
                            continue 'layer;
                        }
                    }
                }
            }
        }
    }

    /// Inserts or updates `key` under the layer at `holder`. `new_val`
    /// makes the value word the key is to hold; it runs at most once, with
    /// the leaf locked. Returns the value word replaced, if any: reading
    /// and reclaiming it is the caller's. A creation failure leaves the
    /// tree as it was.
    ///
    /// # Safety
    /// `holder` is a live holder of this tree.
    unsafe fn put_inner(
        &self,
        cx: Self::Cx,
        holder: u64,
        key: &[u8],
        new_val: &mut impl FnMut() -> Result<u64, Self::Error>,
    ) -> Result<Option<u64>, Self::Error> {
        // A creation failure must release the held leaf lock before
        // surfacing, or the leaf would be stuck locked forever.
        macro_rules! or_unlock {
            ($s:ident, $lf:expr, $made:expr) => {
                match $made {
                    Ok(x) => x,
                    Err(e) => {
                        $s.unlock($lf, false, false);
                        return Err(e);
                    }
                }
            };
        }
        unsafe {
            let mut cur = KeyCursor::new(key);
            let mut holder = holder;
            'layer: loop {
                let ikey = cur.ikey();
                let target = search_klenx(&cur);
                'retry: loop {
                    let (lf, v) = self.find_leaf(holder, ikey);

                    // Fast read-only layer descent (no lock needed).
                    if target == KLEN_LAYER {
                        if let Search::Found { val: h, .. } = self.search_leaf(lf, ikey, KLEN_LAYER)
                        {
                            if version::changed(v, self.load_acquire(lf)) {
                                continue 'retry;
                            }
                            holder = h;
                            cur.descend();
                            continue 'layer;
                        }
                    }

                    let lv = self.lock(lf);
                    if version::moved_since(v, lv) {
                        self.unlock(lf, false, false);
                        continue 'retry;
                    }

                    match self.search_leaf(lf, ikey, target) {
                        Search::Found {
                            pos,
                            slot,
                            klenx,
                            val: old,
                        } => {
                            if klenx == KLEN_LAYER {
                                // target == KLEN_LAYER: descend-insert.
                                self.unlock(lf, false, false);
                                holder = old;
                                cur.descend();
                                continue 'layer;
                            }
                            // Exact terminal: swap in the fresh value.
                            self.prefetch_value(old);
                            let nb = or_unlock!(self, lf, new_val());
                            if let Some(mut perm) = self.incll_val(cx, lf, slot, old) {
                                // Move the key to the free slot the hook
                                // chose, published as an insert is.
                                self.mark_dirty(lf, INSERTING);
                                let to = perm.replace_at(pos);
                                self.store(lf + Self::off_ikey(to), ikey);
                                self.set_klenx(lf, to, klenx);
                                self.store(lf + Self::off_val(to), nb);
                                self.store_release(lf + Self::OFF_PERM, perm.raw());
                                self.unlock(lf, true, false);
                            } else {
                                self.store_release(lf + Self::off_val(slot), nb);
                                self.unlock(lf, false, false);
                            }
                            return Ok(Some(old));
                        }
                        Search::NotFound { pos } => {
                            if target == 8 && pos < self.perm_of(lf).len() {
                                // Descend into an existing layer as "".
                                let (k, kl, h) = self.entry_at(lf, pos);
                                if k == ikey && kl == KLEN_LAYER {
                                    self.unlock(lf, false, false);
                                    holder = h;
                                    cur.descend();
                                    continue 'layer;
                                }
                            }
                            if target == KLEN_LAYER {
                                // Terminal-8 occupying our slice? Convert it
                                // into a layer holding it as the empty
                                // suffix (a complex op: the leaf is logged
                                // first).
                                if pos > 0 {
                                    let (k, kl, old) = self.entry_at(lf, pos - 1);
                                    if k == ikey && kl == 8 {
                                        let slot = self.perm_of(lf).slot_at(pos - 1);
                                        let h = or_unlock!(
                                            self,
                                            lf,
                                            self.new_layer_with(cx, 0, 0, old)
                                        );
                                        self.ensure_leaf_logged(cx, lf);
                                        self.mark_dirty(lf, INSERTING);
                                        self.store_release(lf + Self::off_val(slot), h);
                                        self.set_klenx(lf, slot, KLEN_LAYER);
                                        self.unlock(lf, true, false);
                                        holder = h;
                                        cur.descend();
                                        continue 'layer;
                                    }
                                }
                                // Fresh sub-layer chain holding only this key.
                                let mut sub = cur;
                                sub.descend();
                                let h =
                                    or_unlock!(self, lf, self.build_layer_chain(cx, sub, new_val));
                                self.insert_entry(cx, holder, lf, pos, ikey, KLEN_LAYER, h);
                                return Ok(None);
                            }
                            // Plain terminal insert.
                            let nb = or_unlock!(self, lf, new_val());
                            self.insert_entry(cx, holder, lf, pos, ikey, target, nb);
                            return Ok(None);
                        }
                    }
                }
            }
        }
    }

    /// Builds a single-entry layer; returns its holder.
    fn new_layer_with(
        &self,
        cx: Self::Cx,
        ikey: u64,
        klenx: u8,
        val: u64,
    ) -> Result<u64, Self::Error> {
        let leaf = self.new_leaf(cx, /*is_root*/ true, /*locked*/ false)?;
        let mut perm = Permutation::<W>::empty();
        let slot = perm.insert_at(0);
        // SAFETY: a fresh leaf, not yet published: this thread owns it.
        unsafe {
            self.store(leaf + Self::off_ikey(slot), ikey);
            self.set_klenx(leaf, slot, klenx);
            self.store(leaf + Self::off_val(slot), val);
            self.store_release(leaf + Self::OFF_PERM, perm.raw());
        }
        self.new_holder(cx, leaf)
    }

    /// Builds a chain of layers in which `cur`'s remaining key is the one
    /// terminal entry; returns the top holder.
    fn build_layer_chain(
        &self,
        cx: Self::Cx,
        cur: KeyCursor<'_>,
        new_val: &mut impl FnMut() -> Result<u64, Self::Error>,
    ) -> Result<u64, Self::Error> {
        if cur.is_terminal() {
            let val = new_val()?;
            self.new_layer_with(cx, cur.ikey(), cur.klen(), val)
        } else {
            let mut sub = cur;
            sub.descend();
            let inner = self.build_layer_chain(cx, sub, new_val)?;
            self.new_layer_with(cx, cur.ikey(), KLEN_LAYER, inner)
        }
    }

    /// Removes `key` under the layer at `holder`, returning the value word
    /// it held: reclaiming it is the caller's.
    ///
    /// # Safety
    /// `holder` is a live holder of this tree.
    unsafe fn remove_inner(&self, cx: Self::Cx, holder: u64, key: &[u8]) -> Option<u64> {
        unsafe {
            let mut cur = KeyCursor::new(key);
            let mut holder = holder;
            'layer: loop {
                let ikey = cur.ikey();
                let target = search_klenx(&cur);
                'retry: loop {
                    let (lf, v) = self.find_leaf(holder, ikey);
                    let lv = self.lock(lf);
                    if version::moved_since(v, lv) {
                        self.unlock(lf, false, false);
                        continue 'retry;
                    }
                    let (pos, val) = match self.search_leaf(lf, ikey, target) {
                        Search::Found { klenx, val, .. } if klenx == KLEN_LAYER => {
                            self.unlock(lf, false, false);
                            holder = val;
                            cur.descend();
                            continue 'layer;
                        }
                        Search::Found { pos, val, .. } => (pos, val),
                        Search::NotFound { pos } => {
                            if target == 8 && pos < self.perm_of(lf).len() {
                                let (k, kl, h) = self.entry_at(lf, pos);
                                if k == ikey && kl == KLEN_LAYER {
                                    self.unlock(lf, false, false);
                                    holder = h;
                                    cur.descend();
                                    continue 'layer;
                                }
                            }
                            self.unlock(lf, false, false);
                            return None;
                        }
                    };
                    self.prefetch_value(val);
                    // The freed slot may hold an entry the epoch-start
                    // permutation names, so an insert this epoch reuses
                    // it only through the fallback (`incll_insert`).
                    self.incll_remove(cx, lf);
                    self.mark_dirty(lf, INSERTING);
                    let mut perm = self.perm_of(lf);
                    perm.remove_at(pos);
                    self.store_release(lf + Self::OFF_PERM, perm.raw());
                    self.unlock(lf, true, false);
                    return Some(val);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Insert with split
    // ------------------------------------------------------------------

    /// Inserts `(ikey, klenx, val)` into the locked leaf `lf` at sorted
    /// position `pos`, splitting if full. Consumes the leaf lock.
    ///
    /// # Safety
    /// `holder` is the live holder of `lf`'s layer; `lf` is locked by the
    /// caller.
    #[allow(clippy::too_many_arguments)] // one flat hot-path call, no natural struct
    unsafe fn insert_entry(
        &self,
        cx: Self::Cx,
        holder: u64,
        lf: u64,
        pos: usize,
        ikey: u64,
        klenx: u8,
        val: u64,
    ) {
        unsafe {
            let mut perm = self.perm_of(lf);
            if !perm.is_full() {
                self.incll_insert(cx, lf, &mut perm);
                self.mark_dirty(lf, INSERTING);
                let slot = perm.insert_at(pos);
                self.store(lf + Self::off_ikey(slot), ikey);
                self.set_klenx(lf, slot, klenx);
                self.store(lf + Self::off_val(slot), val);
                self.store_release(lf + Self::OFF_PERM, perm.raw());
                self.unlock(lf, true, false);
                return;
            }

            // Split, then insert into whichever half now covers the key.
            let (right, sep) = self.split_leaf(cx, holder, lf);
            let target = if ikey < sep { lf } else { right };
            let tpos = match self.search_leaf(target, ikey, klenx) {
                Search::NotFound { pos } => pos,
                Search::Found { .. } => unreachable!("key appeared during split"),
            };
            let mut tperm = self.perm_of(target);
            self.mark_dirty(target, INSERTING);
            let slot = tperm.insert_at(tpos);
            self.store(target + Self::off_ikey(slot), ikey);
            self.set_klenx(target, slot, klenx);
            self.store(target + Self::off_val(slot), val);
            self.store_release(target + Self::OFF_PERM, tperm.raw());

            // Unlock both halves: the original leaf performed the split;
            // the target additionally performed the insert.
            let left_was_target = target == lf;
            self.unlock(lf, left_was_target, true);
            self.unlock(right, !left_was_target, false);
        }
    }

    /// Splits the locked, full leaf (logged first: a split is the
    /// "complex modification" case, §4.2): moves the upper entries to a
    /// fresh right sibling, links it, and pushes the separator into the
    /// parent while holding `SPLITTING`. Returns `(right, separator)`;
    /// both halves stay locked.
    ///
    /// # Safety
    /// As for [`NodeStore::insert_entry`].
    unsafe fn split_leaf(&self, cx: Self::Cx, holder: u64, lf: u64) -> (u64, u64) {
        unsafe {
            self.ensure_leaf_logged(cx, lf);
            self.mark_dirty(lf, SPLITTING);
            let perm = self.perm_of(lf);
            let count = perm.len();
            debug_assert!(perm.is_full(), "only full leaves split");

            // Split position: nearest ikey boundary to the midpoint (equal
            // ikeys must never straddle nodes; interior keys are bare ikeys).
            let ikey_at = |p: usize| self.load(lf + Self::off_ikey(perm.slot_at(p)));
            let mid = count / 2 + 1;
            let p = (0..count)
                .flat_map(|delta| [mid.saturating_sub(delta), mid + delta])
                .find(|&c| c >= 1 && c < count && ikey_at(c - 1) != ikey_at(c))
                .expect("a full leaf holds at least two distinct ikeys");

            // The right sibling is born locked, so the insert can go into it
            // before an unlock publishes it.
            let right = self
                .new_leaf(cx, /*is_root*/ false, /*locked*/ true)
                .expect("arena full");
            let mut rperm = Permutation::<W>::empty();
            for (j, posn) in (p..count).enumerate() {
                let slot = perm.slot_at(posn);
                let rslot = rperm.insert_at(j);
                self.store(
                    right + Self::off_ikey(rslot),
                    self.load(lf + Self::off_ikey(slot)),
                );
                self.set_klenx(right, rslot, self.klenx_at(lf, slot));
                self.store(
                    right + Self::off_val(rslot),
                    self.load(lf + Self::off_val(slot)),
                );
            }
            self.store_release(right + Self::OFF_PERM, rperm.raw());
            let sep = self.load(right + Self::off_ikey(rperm.slot_at(0)));
            self.store(right + Self::OFF_NEXT, self.load(lf + Self::OFF_NEXT));
            self.store(right + Self::OFF_PARENT, self.load(lf + Self::OFF_PARENT));
            self.store_release(lf + Self::OFF_NEXT, right);
            self.store_release(lf + Self::OFF_PERM, perm.truncated(p).raw());

            self.insert_upward(cx, holder, lf, right, sep);
            (right, sep)
        }
    }

    /// Pushes `(sep, right)` above `left` (both locked by the caller, with
    /// `left` still SPLITTING — that ordering is what readers rely on).
    ///
    /// # Safety
    /// `holder` is the live holder of the nodes' layer.
    unsafe fn insert_upward(&self, cx: Self::Cx, holder: u64, left: u64, right: u64, sep: u64) {
        unsafe {
            loop {
                let p = self.load_acquire(left + Self::OFF_PARENT);
                if p == 0 {
                    // `left` was the layer root: grow an interior root and
                    // swing the holder (the holder is logged first: it must
                    // revert with everything else).
                    let nr = self
                        .new_interior(cx, /*is_root*/ true, /*locked*/ false)
                        .expect("arena full");
                    self.store(nr + Self::off_int_key(0), sep);
                    self.store(nr + Self::off_int_child(0), left);
                    self.store(nr + Self::off_int_child(1), right);
                    self.store_release(nr + Self::OFF_INT_NKEYS, 1);
                    self.store_release(left + Self::OFF_PARENT, nr);
                    self.store_release(right + Self::OFF_PARENT, nr);
                    self.log_holder(cx, holder);
                    // Publish the new root BEFORE demoting the old one so
                    // readers that observe !IS_ROOT always find it.
                    self.store_release(holder, nr);
                    self.demote_root(left);
                    self.set_flag(left, IS_ROOT, false);
                    return;
                }
                self.maybe_recover(p);
                self.lock(p);
                if self.load_acquire(left + Self::OFF_PARENT) != p {
                    // `left` migrated to a new parent while we locked.
                    self.unlock(p, false, false);
                    continue;
                }
                if (self.load(p + Self::OFF_INT_NKEYS) as usize) < Self::INT_WIDTH {
                    self.ensure_int_logged(cx, p);
                    self.interior_insert(p, sep, right);
                    self.unlock(p, true, false);
                    return;
                }
                // Parent full: split it (recursively), then insert into the
                // proper half.
                let (pr, psep) = self.split_interior(cx, holder, p);
                let target = if sep < psep { p } else { pr };
                self.interior_insert(target, sep, right);
                self.unlock(p, target == p, true);
                self.unlock(pr, target == pr, false);
                return;
            }
        }
    }

    /// Inserts `(sep, right)` into a locked, non-full interior node.
    ///
    /// # Safety
    /// `pi` is a live interior node of this tree, locked by the caller.
    unsafe fn interior_insert(&self, pi: u64, sep: u64, right: u64) {
        unsafe {
            self.mark_dirty(pi, INSERTING);
            let n = self.load(pi + Self::OFF_INT_NKEYS) as usize;
            let mut idx = 0;
            while idx < n && self.load(pi + Self::off_int_key(idx)) < sep {
                idx += 1;
            }
            let mut j = n;
            while j > idx {
                self.store(
                    pi + Self::off_int_key(j),
                    self.load(pi + Self::off_int_key(j - 1)),
                );
                self.store(
                    pi + Self::off_int_child(j + 1),
                    self.load(pi + Self::off_int_child(j)),
                );
                j -= 1;
            }
            self.store(pi + Self::off_int_key(idx), sep);
            self.store(pi + Self::off_int_child(idx + 1), right);
            self.store_release(pi + Self::OFF_INT_NKEYS, n as u64 + 1);
            self.store_release(right + Self::OFF_PARENT, pi);
        }
    }

    /// Splits the locked, full interior node `p`; returns the new right
    /// node (locked) and the promoted separator. Updates ancestors
    /// recursively while holding `SPLITTING`.
    ///
    /// # Safety
    /// `holder` is the live holder of `p`'s layer; `p` is locked by the
    /// caller.
    unsafe fn split_interior(&self, cx: Self::Cx, holder: u64, p: u64) -> (u64, u64) {
        unsafe {
            self.ensure_int_logged(cx, p);
            self.mark_dirty(p, SPLITTING);
            let n = self.load(p + Self::OFF_INT_NKEYS) as usize;
            debug_assert_eq!(n, Self::INT_WIDTH);
            let mid = n / 2; // promote keys[mid]
            let psep = self.load(p + Self::off_int_key(mid));

            let r = self
                .new_interior(cx, /*is_root*/ false, /*locked*/ true)
                .expect("arena full");
            let rcount = n - mid - 1;
            for j in 0..rcount {
                self.store(
                    r + Self::off_int_key(j),
                    self.load(p + Self::off_int_key(mid + 1 + j)),
                );
            }
            for j in 0..=rcount {
                let child = self.load(p + Self::off_int_child(mid + 1 + j));
                self.store(r + Self::off_int_child(j), child);
                // The move of the child's parent word is NOT logged here:
                // durable recovery re-derives every parent pointer from the
                // restored interior images, which both avoids racing the
                // (unlocked) child's own logging and keeps each log target
                // single-entry.
                self.maybe_recover(child);
                self.store_release(child + Self::OFF_PARENT, r);
            }
            self.store_release(r + Self::OFF_INT_NKEYS, rcount as u64);
            self.store(r + Self::OFF_PARENT, self.load(p + Self::OFF_PARENT));
            self.store_release(p + Self::OFF_INT_NKEYS, mid as u64);

            self.insert_upward(cx, holder, p, r, psep);
            (r, psep)
        }
    }

    // ------------------------------------------------------------------
    // Scan
    // ------------------------------------------------------------------

    /// Scans at most `limit` keys ≥ `start` under the layer at `holder` in
    /// order, invoking `f(key_bytes, value_word)`. Returns the number
    /// visited.
    ///
    /// # Safety
    /// `holder` is a live holder of this tree.
    unsafe fn scan_from(
        &self,
        holder: u64,
        start: &[u8],
        limit: usize,
        f: &mut dyn FnMut(&[u8], u64),
    ) -> usize {
        if limit == 0 {
            return 0;
        }
        let mut remaining = limit;
        let mut prefix = Vec::with_capacity(start.len() + 8);
        // SAFETY: the caller's contract.
        unsafe {
            self.scan_layer(
                holder,
                Some(KeyCursor::new(start)),
                &mut prefix,
                &mut remaining,
                f,
            )
        };
        limit - remaining
    }

    /// Scans the layer at `holder`, every key prefixed by `prefix`.
    /// `start`: position bound for this layer (None = from the beginning).
    /// Returns `false` once `remaining` hits zero.
    ///
    /// # Safety
    /// As for [`NodeStore::scan_from`].
    unsafe fn scan_layer(
        &self,
        holder: u64,
        start: Option<KeyCursor<'_>>,
        prefix: &mut Vec<u8>,
        remaining: &mut usize,
        f: &mut dyn FnMut(&[u8], u64),
    ) -> bool {
        unsafe {
            let (mut lf, _) = self.find_leaf(holder, start.map_or(0, |c| c.ikey()));
            // Entries are compared with `start` until one reaches it, not
            // just in the first leaf: a split racing the descent can move
            // keys below `start` into the next leaf.
            let mut before = start;
            let mut entries: Vec<(u64, u8, u64)> = Vec::with_capacity(W);
            loop {
                self.maybe_recover(lf);
                // Snapshot the leaf under version validation.
                let next = loop {
                    entries.clear();
                    let v = self.stable(lf);
                    let perm = self.perm_of(lf);
                    for pos in 0..perm.len() {
                        let slot = perm.slot_at(pos);
                        entries.push((
                            self.load_acquire(lf + Self::off_ikey(slot)),
                            self.klenx_at(lf, slot),
                            self.load_acquire(lf + Self::off_val(slot)),
                        ));
                    }
                    let next = self.load_acquire(lf + Self::OFF_NEXT);
                    if !version::changed(v, self.load_acquire(lf)) {
                        break next;
                    }
                    // On a split, restart this leaf (entries may have moved
                    // right; the `next` hop will still reach them).
                };
                for &(k, kl, val) in &entries {
                    let mut sub_start = None;
                    if let Some(sc) = before {
                        match entry_cmp(k, kl, sc.ikey(), search_klenx(&sc)) {
                            Ordering::Less => continue,
                            // The start key descends into this layer.
                            Ordering::Equal if kl == KLEN_LAYER && !sc.is_terminal() => {
                                let mut sub = sc;
                                sub.descend();
                                sub_start = Some(sub);
                            }
                            _ => {}
                        }
                        before = None;
                    }
                    if kl == KLEN_LAYER {
                        prefix.extend_from_slice(&k.to_be_bytes());
                        let go = self.scan_layer(val, sub_start, prefix, remaining, f);
                        prefix.truncate(prefix.len() - 8);
                        if !go {
                            return false;
                        }
                    } else {
                        prefix.extend_from_slice(&k.to_be_bytes()[..kl as usize]);
                        f(prefix, val);
                        prefix.truncate(prefix.len() - kl as usize);
                        *remaining -= 1;
                        if *remaining == 0 {
                            return false;
                        }
                    }
                }
                if next == 0 {
                    return true;
                }
                lf = next;
            }
        }
    }
}
