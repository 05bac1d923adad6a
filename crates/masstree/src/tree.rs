//! The transient Masstree: a concurrent trie of B+trees (§2.2).
//!
//! This is the paper's baseline structure (MT with the global allocator,
//! MT+ with the pool allocator): optimistic lock-free readers validated by
//! node version words, per-node writer locks, permutation-published leaf
//! updates, B+tree splits with the `SPLITTING` bit held across the parent
//! update (which is what makes the reader descent protocol sound), and
//! trie layering for keys longer than 8 bytes.
//!
//! Values are opaque `u64` payloads stored in 32-byte buffers allocated per
//! `put` — matching the paper's workload, where every update allocates a
//! fresh value buffer and retires the old one through epoch-based
//! reclamation.

use std::sync::atomic::{AtomicU64, Ordering};

use incll_epoch::{EpochManager, ThreadHandle};

use crate::alloc::TransientAlloc;
use crate::key::{entry_cmp, ikey_bytes, search_klenx, KeyCursor, KLEN_LAYER};
use crate::node::{
    interior_ref, leaf_ref, version_of, Interior, Leaf, LeafPerm, RootCell, INT_WIDTH, NODE_BYTES,
};
use crate::version::{self, INSERTING, IS_LEAF, IS_ROOT, SPLITTING};

/// Size of a value buffer, the whole object (paper §6: values live in
/// 32-byte buffers). The durable store's smallest value object is the
/// same 32 bytes, its allocator header included.
pub const VALUE_BUF_BYTES: usize = 32;
/// Size of a layer root cell allocation.
const ROOT_CELL_BYTES: usize = 16;

/// Per-thread operation context: epoch registration + allocator identity.
pub struct TreeCtx {
    handle: ThreadHandle,
    tid: usize,
}

impl std::fmt::Debug for TreeCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TreeCtx").field("tid", &self.tid).finish()
    }
}

/// Outcome of a leaf search for `(ikey, klenx)`.
enum Search {
    /// Exact entry at sorted position `pos`, array slot `slot`.
    Found {
        pos: usize,
        slot: usize,
        klenx: u8,
        val: u64,
    },
    /// Absent; would sort at position `pos`.
    NotFound { pos: usize },
}

/// The transient Masstree (see module docs).
///
/// # Example
///
/// ```
/// use incll_pmem::PArena;
/// use incll_epoch::{EpochManager, EpochOptions};
/// use incll_masstree::{AllocMode, Masstree, TransientAlloc};
///
/// # fn main() -> Result<(), incll_pmem::Error> {
/// let arena = PArena::builder().capacity_bytes(1 << 20).build()?;
/// let mgr = EpochManager::new(arena, EpochOptions::transient());
/// let alloc = TransientAlloc::new(AllocMode::Global, 1, None);
/// let tree = Masstree::new(mgr, alloc);
/// let ctx = tree.thread_ctx(0);
/// assert_eq!(tree.put(&ctx, b"hello", 7), None);
/// assert_eq!(tree.get(&ctx, b"hello"), Some(7));
/// assert_eq!(tree.put(&ctx, b"hello", 9), Some(7));
/// assert!(tree.remove(&ctx, b"hello"));
/// assert_eq!(tree.get(&ctx, b"hello"), None);
/// # Ok(())
/// # }
/// ```
pub struct Masstree {
    root: Box<RootCell>,
    alloc: TransientAlloc,
    mgr: EpochManager,
}

// SAFETY: all shared state is behind atomics and the version-lock protocol;
// the raw node addresses are owned by the tree and freed only under EBR.
unsafe impl Send for Masstree {}
// SAFETY: as above.
unsafe impl Sync for Masstree {}

impl Masstree {
    /// Creates an empty tree. The allocator's epoch hook is registered on
    /// `mgr` so deferred frees recycle at each boundary.
    pub fn new(mgr: EpochManager, alloc: TransientAlloc) -> Self {
        alloc.attach(&mgr);
        let addr = alloc.alloc(0, NODE_BYTES);
        // SAFETY: fresh exclusive allocation of node size.
        unsafe { Leaf::init(addr, IS_ROOT) };
        let root = Box::new(RootCell::default());
        root.store(addr);
        Masstree { root, alloc, mgr }
    }

    /// Registers the calling thread and returns its operation context.
    pub fn thread_ctx(&self, tid: usize) -> TreeCtx {
        TreeCtx {
            handle: self.mgr.register(),
            tid,
        }
    }

    // ------------------------------------------------------------------
    // Public operations
    // ------------------------------------------------------------------

    /// Looks up `key`, returning its value payload.
    pub fn get(&self, ctx: &TreeCtx, key: &[u8]) -> Option<u64> {
        let _g = ctx.handle.pin();
        // SAFETY: guard pinned; nodes reachable from the root are live.
        unsafe { self.get_inner(key) }
    }

    /// Inserts or updates `key` with a fresh value buffer holding `val`,
    /// returning the previous payload if the key existed.
    pub fn put(&self, ctx: &TreeCtx, key: &[u8], val: u64) -> Option<u64> {
        let _g = ctx.handle.pin();
        // SAFETY: as for `get`.
        unsafe { self.put_inner(ctx, key, val) }
    }

    /// Removes `key`, returning whether it was present.
    pub fn remove(&self, ctx: &TreeCtx, key: &[u8]) -> bool {
        let _g = ctx.handle.pin();
        // SAFETY: as for `get`.
        unsafe { self.remove_inner(ctx, key) }
    }

    /// Scans at most `limit` keys ≥ `start` in order, invoking
    /// `f(key_bytes, payload)`. Returns the number visited.
    pub fn scan(
        &self,
        ctx: &TreeCtx,
        start: &[u8],
        limit: usize,
        f: &mut dyn FnMut(&[u8], u64),
    ) -> usize {
        if limit == 0 {
            return 0;
        }
        let _g = ctx.handle.pin();
        let mut remaining = limit;
        let mut prefix = Vec::with_capacity(start.len() + 8);
        // SAFETY: as for `get`.
        unsafe {
            self.scan_layer(
                &self.root,
                Some(KeyCursor::new(start)),
                &mut prefix,
                &mut remaining,
                f,
            );
        }
        limit - remaining
    }

    // ------------------------------------------------------------------
    // Descent
    // ------------------------------------------------------------------

    /// Finds the border leaf for `ikey` within the layer rooted at `cell`,
    /// hand-over-hand validated. Returns the leaf address and the stable
    /// version snapshot the caller must validate against.
    unsafe fn find_leaf(cell: &RootCell, ikey: u64) -> (u64, u64) {
        unsafe {
            'retry: loop {
                let n0 = cell.load();
                let v0 = version_of(n0).stable();
                if v0 & IS_ROOT == 0 {
                    // Root demoted by a split; the cell is updated before the
                    // flag clears, so re-reading resolves promptly.
                    std::hint::spin_loop();
                    continue 'retry;
                }
                let mut n = n0;
                let mut v = v0;
                loop {
                    if v & IS_LEAF != 0 {
                        return (n, v);
                    }
                    let int = interior_ref(n);
                    let idx = int.route(ikey);
                    let child = int.children[idx].load(Ordering::Acquire);
                    if child == 0 {
                        continue 'retry;
                    }
                    // Take the child's stable version BEFORE re-validating the
                    // parent: a leaf split holds SPLITTING until the parent is
                    // updated, so this order guarantees we either see the
                    // parent change (retry) or a pre-split child.
                    let vc = version_of(child).stable();
                    if version::changed(v, version_of(n).load()) {
                        continue 'retry;
                    }
                    n = child;
                    v = vc;
                }
            }
        }
    }

    /// Linear search of a (stable or locked) leaf for `(ikey, klenx)`.
    unsafe fn search_leaf(lf: &Leaf, ikey: u64, klenx: u8) -> Search {
        let perm = lf.perm();
        for pos in 0..perm.len() {
            let slot = perm.slot_at(pos);
            let k = lf.ikeys[slot].load(Ordering::Acquire);
            let kl = lf.klenx[slot].load(Ordering::Acquire);
            match entry_cmp(k, kl, ikey, klenx) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => {
                    return Search::Found {
                        pos,
                        slot,
                        klenx: kl,
                        val: lf.vals[slot].load(Ordering::Acquire),
                    }
                }
                std::cmp::Ordering::Greater => return Search::NotFound { pos },
            }
        }
        Search::NotFound { pos: perm.len() }
    }

    /// Reads the entry at sorted position `pos` (must be in range).
    unsafe fn entry_at(lf: &Leaf, pos: usize) -> (u64, u8, u64) {
        let slot = lf.perm().slot_at(pos);
        (
            lf.ikeys[slot].load(Ordering::Acquire),
            lf.klenx[slot].load(Ordering::Acquire),
            lf.vals[slot].load(Ordering::Acquire),
        )
    }

    // ------------------------------------------------------------------
    // get
    // ------------------------------------------------------------------

    unsafe fn get_inner(&self, key: &[u8]) -> Option<u64> {
        unsafe {
            let mut cur = KeyCursor::new(key);
            let mut cell: *const RootCell = &*self.root;
            'layer: loop {
                let ikey = cur.ikey();
                let target = search_klenx(&cur);
                'retry: loop {
                    let (lf_addr, v) = Self::find_leaf(&*cell, ikey);
                    let lf = leaf_ref(lf_addr);
                    let sr = Self::search_leaf(lf, ikey, target);
                    // Candidate outcome, decided before validation.
                    enum Act {
                        Ret(Option<u64>),
                        Descend(u64),
                    }
                    let act = match sr {
                        Search::Found { klenx, val, .. } => {
                            if klenx == KLEN_LAYER {
                                Act::Descend(val)
                            } else {
                                Act::Ret(Some(val))
                            }
                        }
                        Search::NotFound { pos } => {
                            // A terminal-8 probe may still descend into a layer
                            // holding this exact slice as its empty suffix.
                            if target == 8 && pos < lf.perm().len() {
                                let (k, kl, val) = Self::entry_at(lf, pos);
                                if k == ikey && kl == KLEN_LAYER {
                                    Act::Descend(val)
                                } else {
                                    Act::Ret(None)
                                }
                            } else {
                                Act::Ret(None)
                            }
                        }
                    };
                    if version::changed(v, lf.version.load()) {
                        continue 'retry;
                    }
                    match act {
                        Act::Ret(Some(buf)) => {
                            // Buffers are immutable once published and retired
                            // under EBR: safe to read after validation.
                            return Some(*(buf as *const u64));
                        }
                        Act::Ret(None) => return None,
                        Act::Descend(holder) => {
                            cell = holder as *const RootCell;
                            cur.descend();
                            continue 'layer;
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // put
    // ------------------------------------------------------------------

    unsafe fn put_inner(&self, ctx: &TreeCtx, key: &[u8], val: u64) -> Option<u64> {
        unsafe {
            let mut cur = KeyCursor::new(key);
            let mut cell: *const RootCell = &*self.root;
            'layer: loop {
                let ikey = cur.ikey();
                let target = search_klenx(&cur);
                'retry: loop {
                    let (lf_addr, v) = Self::find_leaf(&*cell, ikey);
                    let lf = leaf_ref(lf_addr);

                    // Fast read-only layer descent (no lock needed).
                    if target == KLEN_LAYER {
                        if let Search::Found { klenx, val: h, .. } =
                            Self::search_leaf(lf, ikey, KLEN_LAYER)
                        {
                            debug_assert_eq!(klenx, KLEN_LAYER);
                            if version::changed(v, lf.version.load()) {
                                continue 'retry;
                            }
                            cell = h as *const RootCell;
                            cur.descend();
                            continue 'layer;
                        }
                    }

                    let lv = lf.version.lock();
                    if Self::moved_since(v, lv) {
                        lf.version.unlock(false, false);
                        continue 'retry;
                    }

                    match Self::search_leaf(lf, ikey, target) {
                        Search::Found {
                            slot,
                            klenx,
                            val: old,
                            ..
                        } => {
                            if klenx == KLEN_LAYER {
                                // target == KLEN_LAYER: descend-insert.
                                lf.version.unlock(false, false);
                                cell = old as *const RootCell;
                                cur.descend();
                                continue 'layer;
                            }
                            // Exact terminal: swap in a fresh value buffer.
                            let nb = self.new_value_buf(ctx, val);
                            lf.vals[slot].store(nb, Ordering::Release);
                            lf.version.unlock(false, false);
                            let old_payload = *(old as *const u64);
                            self.alloc.defer_free(ctx.tid, old, VALUE_BUF_BYTES);
                            return Some(old_payload);
                        }
                        Search::NotFound { pos } => {
                            if target == 8 && pos < lf.perm().len() {
                                // Descend into an existing layer as "".
                                let (k, kl, h) = Self::entry_at(lf, pos);
                                if k == ikey && kl == KLEN_LAYER {
                                    lf.version.unlock(false, false);
                                    cell = h as *const RootCell;
                                    cur.descend();
                                    continue 'layer;
                                }
                            }
                            if target == KLEN_LAYER {
                                // Terminal-8 occupying our slice? Convert it
                                // into a layer holding it as the empty suffix.
                                if pos > 0 {
                                    let ppos = pos - 1;
                                    let pslot = lf.perm().slot_at(ppos);
                                    let k = lf.ikeys[pslot].load(Ordering::Acquire);
                                    let kl = lf.klenx[pslot].load(Ordering::Acquire);
                                    if k == ikey && kl == 8 {
                                        let old = lf.vals[pslot].load(Ordering::Acquire);
                                        let holder = self.new_layer_with(ctx, 0, 0, old);
                                        lf.version.mark_dirty(INSERTING);
                                        lf.vals[pslot].store(holder, Ordering::Release);
                                        lf.klenx[pslot].store(KLEN_LAYER, Ordering::Release);
                                        lf.version.unlock(true, false);
                                        cell = holder as *const RootCell;
                                        cur.descend();
                                        continue 'layer;
                                    }
                                }
                                // Fresh sub-layer chain holding only this key.
                                let mut sub = cur;
                                sub.descend();
                                let holder = self.build_layer_chain(ctx, sub, val);
                                self.insert_entry(
                                    ctx, cell, lf_addr, pos, ikey, KLEN_LAYER, holder,
                                );
                                return None;
                            }
                            // Plain terminal insert.
                            let nb = self.new_value_buf(ctx, val);
                            self.insert_entry(ctx, cell, lf_addr, pos, ikey, target, nb);
                            return None;
                        }
                    }
                }
            }
        }
    }

    /// Whether the leaf's keys may have moved elsewhere since snapshot
    /// `before` (split or retirement) — insert/remove churn is fine, the
    /// leaf still covers the key range.
    fn moved_since(before: u64, now: u64) -> bool {
        const VSPLIT_MASK: u64 = !((1u64 << 36) - 1);
        (before ^ now) & (VSPLIT_MASK | version::DELETED) != 0
    }

    /// Allocates and fills a 32-byte value buffer.
    unsafe fn new_value_buf(&self, ctx: &TreeCtx, val: u64) -> u64 {
        unsafe {
            let buf = self.alloc.alloc(ctx.tid, VALUE_BUF_BYTES);
            (buf as *mut u64).write(val);
            buf
        }
    }

    /// Builds a chain of sub-layers so that `cur`'s remaining key becomes a
    /// terminal entry; returns the top holder-cell address.
    unsafe fn new_layer_with(&self, ctx: &TreeCtx, ikey: u64, klenx: u8, val: u64) -> u64 {
        unsafe {
            let leaf_addr = self.alloc.alloc(ctx.tid, NODE_BYTES);
            let lf = Leaf::init(leaf_addr, IS_ROOT);
            let mut perm = LeafPerm::empty();
            let slot = perm.insert_at(0);
            lf.ikeys[slot].store(ikey, Ordering::Relaxed);
            lf.klenx[slot].store(klenx, Ordering::Relaxed);
            lf.vals[slot].store(val, Ordering::Relaxed);
            lf.set_perm(perm);
            let holder = self.alloc.alloc(ctx.tid, ROOT_CELL_BYTES);
            (holder as *const AtomicU64)
                .as_ref()
                .unwrap()
                .store(leaf_addr, Ordering::Release);
            holder
        }
    }

    unsafe fn build_layer_chain(&self, ctx: &TreeCtx, cur: KeyCursor<'_>, val: u64) -> u64 {
        unsafe {
            if cur.is_terminal() {
                let buf = self.new_value_buf(ctx, val);
                self.new_layer_with(ctx, cur.ikey(), cur.klen(), buf)
            } else {
                let mut sub = cur;
                sub.descend();
                let inner = self.build_layer_chain(ctx, sub, val);
                self.new_layer_with(ctx, cur.ikey(), KLEN_LAYER, inner)
            }
        }
    }

    // ------------------------------------------------------------------
    // remove
    // ------------------------------------------------------------------

    unsafe fn remove_inner(&self, ctx: &TreeCtx, key: &[u8]) -> bool {
        unsafe {
            let mut cur = KeyCursor::new(key);
            let mut cell: *const RootCell = &*self.root;
            'layer: loop {
                let ikey = cur.ikey();
                let target = search_klenx(&cur);
                'retry: loop {
                    let (lf_addr, v) = Self::find_leaf(&*cell, ikey);
                    let lf = leaf_ref(lf_addr);
                    let lv = lf.version.lock();
                    if Self::moved_since(v, lv) {
                        lf.version.unlock(false, false);
                        continue 'retry;
                    }
                    match Self::search_leaf(lf, ikey, target) {
                        Search::Found {
                            pos, klenx, val, ..
                        } => {
                            if klenx == KLEN_LAYER {
                                lf.version.unlock(false, false);
                                cell = val as *const RootCell;
                                cur.descend();
                                continue 'layer;
                            }
                            lf.version.mark_dirty(INSERTING);
                            let mut perm = lf.perm();
                            perm.remove_at(pos);
                            lf.set_perm(perm);
                            lf.version.unlock(true, false);
                            self.alloc.defer_free(ctx.tid, val, VALUE_BUF_BYTES);
                            return true;
                        }
                        Search::NotFound { pos } => {
                            if target == 8 && pos < lf.perm().len() {
                                let (k, kl, h) = Self::entry_at(lf, pos);
                                if k == ikey && kl == KLEN_LAYER {
                                    lf.version.unlock(false, false);
                                    cell = h as *const RootCell;
                                    cur.descend();
                                    continue 'layer;
                                }
                            }
                            lf.version.unlock(false, false);
                            return false;
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // insert with split
    // ------------------------------------------------------------------

    /// Inserts `(ikey, klenx, val)` into the locked leaf `lf_addr` at
    /// sorted position `pos`, splitting if full. Consumes the leaf lock.
    #[allow(clippy::too_many_arguments)] // one flat hot-path call, no natural struct
    unsafe fn insert_entry(
        &self,
        ctx: &TreeCtx,
        cell: *const RootCell,
        lf_addr: u64,
        pos: usize,
        ikey: u64,
        klenx: u8,
        val: u64,
    ) {
        unsafe {
            let lf = leaf_ref(lf_addr);
            let mut perm = lf.perm();
            if !perm.is_full() {
                lf.version.mark_dirty(INSERTING);
                let slot = perm.insert_at(pos);
                lf.ikeys[slot].store(ikey, Ordering::Relaxed);
                lf.klenx[slot].store(klenx, Ordering::Relaxed);
                lf.vals[slot].store(val, Ordering::Relaxed);
                lf.set_perm(perm);
                lf.version.unlock(true, false);
                return;
            }

            // Split, then insert into whichever half now covers the key.
            let (right_addr, sep) = self.split_leaf(ctx, cell, lf_addr);
            let target_addr = if ikey < sep { lf_addr } else { right_addr };
            let target = leaf_ref(target_addr);
            let tpos = match Self::search_leaf(target, ikey, klenx) {
                Search::NotFound { pos } => pos,
                Search::Found { .. } => unreachable!("key appeared during split"),
            };
            let mut tperm = target.perm();
            target.version.mark_dirty(INSERTING);
            let slot = tperm.insert_at(tpos);
            target.ikeys[slot].store(ikey, Ordering::Relaxed);
            target.klenx[slot].store(klenx, Ordering::Relaxed);
            target.vals[slot].store(val, Ordering::Relaxed);
            target.set_perm(tperm);

            // Unlock both halves: the original leaf performed the split; the
            // target additionally performed the insert.
            let left_was_target = target_addr == lf_addr;
            leaf_ref(lf_addr)
                .version
                .unlock(left_was_target, /*did_split*/ true);
            leaf_ref(right_addr).version.unlock(!left_was_target, false);
        }
    }

    /// Splits the locked, full leaf: moves the upper entries to a fresh
    /// right sibling, links it, and pushes the separator into the parent
    /// while holding `SPLITTING`. Returns `(right_addr, separator)`; both
    /// halves remain locked.
    unsafe fn split_leaf(&self, ctx: &TreeCtx, cell: *const RootCell, lf_addr: u64) -> (u64, u64) {
        unsafe {
            let lf = leaf_ref(lf_addr);
            lf.version.mark_dirty(SPLITTING);
            let perm = lf.perm();
            let count = perm.len();
            debug_assert!(perm.is_full(), "only full leaves split");

            // Split position: nearest ikey boundary to the midpoint (equal
            // ikeys must never straddle nodes; interior keys are bare ikeys).
            let ikey_at = |p: usize| lf.ikeys[perm.slot_at(p)].load(Ordering::Relaxed);
            let mid = count / 2 + 1;
            let mut split_pos = None;
            for delta in 0..count {
                for cand in [mid.saturating_sub(delta), mid + delta] {
                    if cand >= 1 && cand < count && ikey_at(cand - 1) != ikey_at(cand) {
                        split_pos = Some(cand);
                        break;
                    }
                }
                if split_pos.is_some() {
                    break;
                }
            }
            let p = split_pos.expect("leaf with a single ikey cannot fill (≤ 10 variants)");

            // Build the right sibling (locked from birth so we can insert into
            // it before publishing an unlock).
            let r_addr = self.alloc.alloc(ctx.tid, NODE_BYTES);
            let r = Leaf::init(r_addr, 0);
            r.version.lock();
            let mut rperm = LeafPerm::empty();
            for (j, posn) in (p..count).enumerate() {
                let slot = perm.slot_at(posn);
                let rslot = rperm.insert_at(j);
                r.ikeys[rslot].store(lf.ikeys[slot].load(Ordering::Relaxed), Ordering::Relaxed);
                r.klenx[rslot].store(lf.klenx[slot].load(Ordering::Relaxed), Ordering::Relaxed);
                r.vals[rslot].store(lf.vals[slot].load(Ordering::Relaxed), Ordering::Relaxed);
            }
            r.set_perm(rperm);
            let sep = r.ikeys[rperm.slot_at(0)].load(Ordering::Relaxed);
            r.next
                .store(lf.next.load(Ordering::Acquire), Ordering::Relaxed);
            r.parent
                .store(lf.parent.load(Ordering::Acquire), Ordering::Relaxed);
            lf.next.store(r_addr, Ordering::Release);
            lf.set_perm(perm.truncated(p));

            self.insert_upward(ctx, cell, lf_addr, r_addr, sep);
            (r_addr, sep)
        }
    }

    /// Reads the parent field shared by both node kinds (same offset).
    unsafe fn parent_of<'a>(addr: u64) -> &'a AtomicU64 {
        unsafe {
            // Leaf.parent and Interior.parent both sit at byte offset 16.
            &*((addr + 16) as *const AtomicU64)
        }
    }

    /// Pushes `(sep, right)` above `left` (both locked by the caller, with
    /// `left` still SPLITTING — that ordering is what readers rely on).
    unsafe fn insert_upward(
        &self,
        ctx: &TreeCtx,
        cell: *const RootCell,
        left: u64,
        right: u64,
        sep: u64,
    ) {
        unsafe {
            loop {
                let p = Self::parent_of(left).load(Ordering::Acquire);
                if p == 0 {
                    // `left` was the layer root: grow a new interior root.
                    let nr_addr = self.alloc.alloc(ctx.tid, NODE_BYTES);
                    let nr = Interior::init(nr_addr, IS_ROOT);
                    nr.keys[0].store(sep, Ordering::Relaxed);
                    nr.children[0].store(left, Ordering::Relaxed);
                    nr.children[1].store(right, Ordering::Relaxed);
                    nr.nkeys.store(1, Ordering::Release);
                    Self::parent_of(left).store(nr_addr, Ordering::Release);
                    Self::parent_of(right).store(nr_addr, Ordering::Release);
                    // Publish the new root BEFORE demoting the old one so
                    // readers that observe !IS_ROOT always find the fresh cell.
                    (*cell).store(nr_addr);
                    version_of(left).set_flag(IS_ROOT, false);
                    return;
                }
                let pi = interior_ref(p);
                pi.version.lock();
                if Self::parent_of(left).load(Ordering::Acquire) != p {
                    // `left` migrated to a new parent while we locked.
                    pi.version.unlock(false, false);
                    continue;
                }
                if pi.len() < INT_WIDTH {
                    self.interior_insert(pi, sep, right);
                    pi.version.unlock(true, false);
                    return;
                }
                // Parent full: split it (recursively), then insert into the
                // proper half.
                let (pr_addr, psep) = self.split_interior(ctx, cell, p);
                let target = if sep < psep { p } else { pr_addr };
                let ti = interior_ref(target);
                self.interior_insert(ti, sep, right);
                interior_ref(p).version.unlock(target == p, true);
                interior_ref(pr_addr)
                    .version
                    .unlock(target == pr_addr, false);
                return;
            }
        }
    }

    /// Inserts `(sep, right)` into a locked, non-full interior node.
    unsafe fn interior_insert(&self, pi: &Interior, sep: u64, right: u64) {
        unsafe {
            pi.version.mark_dirty(INSERTING);
            let n = pi.len();
            let mut idx = 0;
            while idx < n && pi.keys[idx].load(Ordering::Relaxed) < sep {
                idx += 1;
            }
            debug_assert!(idx >= n || pi.keys[idx].load(Ordering::Relaxed) != sep);
            let mut j = n;
            while j > idx {
                pi.keys[j].store(pi.keys[j - 1].load(Ordering::Relaxed), Ordering::Relaxed);
                pi.children[j + 1].store(pi.children[j].load(Ordering::Relaxed), Ordering::Relaxed);
                j -= 1;
            }
            pi.keys[idx].store(sep, Ordering::Relaxed);
            pi.children[idx + 1].store(right, Ordering::Relaxed);
            pi.nkeys.store(n as u64 + 1, Ordering::Release);
            Self::parent_of(right).store(pi as *const Interior as u64, Ordering::Release);
        }
    }

    /// Splits the locked, full interior node at `p_addr`; returns the new
    /// right node (locked) and the promoted separator. Recursively updates
    /// ancestors while holding `SPLITTING`.
    unsafe fn split_interior(
        &self,
        ctx: &TreeCtx,
        cell: *const RootCell,
        p_addr: u64,
    ) -> (u64, u64) {
        unsafe {
            let pi = interior_ref(p_addr);
            pi.version.mark_dirty(SPLITTING);
            let n = pi.len();
            debug_assert_eq!(n, INT_WIDTH);
            let mid = n / 2; // promote keys[mid]
            let psep = pi.keys[mid].load(Ordering::Relaxed);

            let r_addr = self.alloc.alloc(ctx.tid, NODE_BYTES);
            let r = Interior::init(r_addr, 0);
            r.version.lock();
            let rcount = n - mid - 1;
            for j in 0..rcount {
                r.keys[j].store(
                    pi.keys[mid + 1 + j].load(Ordering::Relaxed),
                    Ordering::Relaxed,
                );
            }
            for j in 0..=rcount {
                let child = pi.children[mid + 1 + j].load(Ordering::Relaxed);
                r.children[j].store(child, Ordering::Relaxed);
                Self::parent_of(child).store(r_addr, Ordering::Release);
            }
            r.nkeys.store(rcount as u64, Ordering::Release);
            r.parent
                .store(pi.parent.load(Ordering::Acquire), Ordering::Relaxed);
            pi.nkeys.store(mid as u64, Ordering::Release);

            self.insert_upward(ctx, cell, p_addr, r_addr, psep);
            (r_addr, psep)
        }
    }

    // ------------------------------------------------------------------
    // scan
    // ------------------------------------------------------------------

    /// Scans the layer at `cell`. `start`: position bound for this layer
    /// (None = from the beginning). Returns `false` once `remaining` hits
    /// zero.
    unsafe fn scan_layer(
        &self,
        cell: &RootCell,
        start: Option<KeyCursor<'_>>,
        prefix: &mut Vec<u8>,
        remaining: &mut usize,
        f: &mut dyn FnMut(&[u8], u64),
    ) -> bool {
        unsafe {
            let start_ikey = start.map(|c| c.ikey()).unwrap_or(0);
            let (mut lf_addr, _) = Self::find_leaf(cell, start_ikey);
            let mut first = true;
            loop {
                let lf = leaf_ref(lf_addr);
                // Snapshot the leaf under version validation.
                let mut entries: Vec<(u64, u8, u64)> = Vec::with_capacity(16);
                let next;
                loop {
                    entries.clear();
                    let v = lf.version.stable();
                    let perm = lf.perm();
                    for pos in 0..perm.len() {
                        let slot = perm.slot_at(pos);
                        entries.push((
                            lf.ikeys[slot].load(Ordering::Acquire),
                            lf.klenx[slot].load(Ordering::Acquire),
                            lf.vals[slot].load(Ordering::Acquire),
                        ));
                    }
                    let n = lf.next.load(Ordering::Acquire);
                    if !version::changed(v, lf.version.load()) {
                        next = n;
                        break;
                    }
                    // On a split, restart this leaf (entries may have moved
                    // right; the `next` hop will still reach them).
                }
                for &(k, kl, val) in &entries {
                    if first {
                        if let Some(sc) = start {
                            let skl = search_klenx(&sc);
                            match entry_cmp(k, kl, sc.ikey(), skl) {
                                std::cmp::Ordering::Less => continue,
                                std::cmp::Ordering::Equal
                                    if kl == KLEN_LAYER && !sc.is_terminal() =>
                                {
                                    // The start key descends into this layer.
                                    let mut sub = sc;
                                    sub.descend();
                                    prefix.extend_from_slice(&k.to_be_bytes());
                                    let go = self.scan_layer(
                                        &*(val as *const RootCell),
                                        Some(sub),
                                        prefix,
                                        remaining,
                                        f,
                                    );
                                    prefix.truncate(prefix.len() - 8);
                                    if !go {
                                        return false;
                                    }
                                    continue;
                                }
                                _ => {}
                            }
                        }
                    }
                    if kl == KLEN_LAYER {
                        prefix.extend_from_slice(&k.to_be_bytes());
                        let go =
                            self.scan_layer(&*(val as *const RootCell), None, prefix, remaining, f);
                        prefix.truncate(prefix.len() - 8);
                        if !go {
                            return false;
                        }
                    } else {
                        let keylen = prefix.len() + kl as usize;
                        prefix.extend_from_slice(&ikey_bytes(k, kl));
                        f(&prefix[..keylen], *(val as *const u64));
                        prefix.truncate(keylen - kl as usize);
                        *remaining -= 1;
                        if *remaining == 0 {
                            return false;
                        }
                    }
                }
                first = false;
                if next == 0 {
                    return true;
                }
                lf_addr = next;
            }
        }
    }

    // ------------------------------------------------------------------
    // teardown
    // ------------------------------------------------------------------

    unsafe fn destroy_subtree(&self, addr: u64) {
        unsafe {
            if version_of(addr).is_leaf() {
                let lf = leaf_ref(addr);
                for slot in lf.perm().occupied() {
                    let kl = lf.klenx[slot].load(Ordering::Relaxed);
                    let val = lf.vals[slot].load(Ordering::Relaxed);
                    if kl == KLEN_LAYER {
                        let sub = (*(val as *const RootCell)).load();
                        self.destroy_subtree(sub);
                        self.alloc.free_now(val, ROOT_CELL_BYTES);
                    } else {
                        self.alloc.free_now(val, VALUE_BUF_BYTES);
                    }
                }
            } else {
                let int = interior_ref(addr);
                for i in 0..=int.len() {
                    let c = int.children[i].load(Ordering::Relaxed);
                    if c != 0 {
                        self.destroy_subtree(c);
                    }
                }
            }
            self.alloc.free_now(addr, NODE_BYTES);
        }
    }
}

impl Drop for Masstree {
    fn drop(&mut self) {
        // Exclusive access (&mut): walk and free everything, then run one
        // boundary drain so deferred frees release too.
        // SAFETY: no concurrent users can exist during Drop.
        unsafe { self.destroy_subtree(self.root.load()) };
        self.alloc.on_epoch_boundary();
    }
}

impl std::fmt::Debug for Masstree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Masstree")
            .field("alloc", &self.alloc)
            .finish()
    }
}
