//! The transient Masstree: the paper's MT and MT+ baselines (§2.2, §6).
//!
//! The algorithm of [`crate::tree`] over plain memory: node fields are
//! `AtomicU64` words at raw addresses (readers run lock-free under version
//! validation, so every racing load must be defined behaviour), the hooks
//! keep their no-op defaults, and nodes come from a [`TransientAlloc`] (MT
//! with the global allocator, MT+ with the pool allocator).
//!
//! Values are opaque `u64` payloads stored in 32-byte buffers allocated per
//! `put` — matching the paper's workload, where every update allocates a
//! fresh value buffer and retires the old one through epoch-based
//! reclamation.
//!
//! Both node kinds are 320 bytes, cache-line aligned:
//!
//! ```text
//! leaf:     version | parent | next | permutation | keylenx[15] + pad
//!           | ikeys[15] (48..168) | vals[15] (168..288)
//! interior: version | parent | nkeys | keys[15] (24..144)
//!           | children[16] (144..272)
//! ```
//!
//! A leaf holds 15 entries, the paper's transient Masstree default; the
//! durable leaf holds one fewer to make room for its in-line logs.

use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};

use incll_epoch::{EpochManager, ThreadHandle};

use crate::alloc::TransientAlloc;
use crate::key::KLEN_LAYER;
use crate::perm::Permutation;
use crate::tree::NodeStore;
use crate::version::{IS_LEAF, IS_ROOT, LOCK};

/// Keys/values per leaf (the paper's transient Masstree default, §2.2).
const LEAF_WIDTH: usize = 15;
/// Byte size of both node kinds (they share one allocation class).
const NODE_BYTES: usize = 320;
/// Size of a value buffer, the whole object (paper §6: values live in
/// 32-byte buffers). The durable store's smallest value object is the
/// same 32 bytes, its allocator header included.
pub const VALUE_BUF_BYTES: usize = 32;
/// Size of a layer holder allocation.
const HOLDER_BYTES: usize = 16;

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
    /// The top layer's holder.
    root: Box<AtomicU64>,
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
        let tree = Masstree {
            root: Box::default(),
            alloc,
            mgr,
        };
        let Ok(leaf) = tree.new_leaf(0, /*is_root*/ true, /*locked*/ false);
        tree.root.store(leaf, Ordering::Release);
        tree
    }

    /// Registers the calling thread and returns its operation context.
    pub fn thread_ctx(&self, tid: usize) -> TreeCtx {
        TreeCtx {
            handle: self.mgr.register(),
            tid,
        }
    }

    fn holder(&self) -> u64 {
        &*self.root as *const AtomicU64 as u64
    }

    /// Looks up `key`, returning its value payload.
    pub fn get(&self, ctx: &TreeCtx, key: &[u8]) -> Option<u64> {
        let _g = ctx.handle.pin();
        // SAFETY: guard pinned, so nodes reachable from the root are live;
        // value buffers are immutable once published and retired under EBR.
        unsafe {
            self.get_inner(self.holder(), key)
                .map(|buf| *(buf as *const u64))
        }
    }

    /// Inserts or updates `key` with a fresh value buffer holding `val`,
    /// returning the previous payload if the key existed.
    pub fn put(&self, ctx: &TreeCtx, key: &[u8], val: u64) -> Option<u64> {
        let _g = ctx.handle.pin();
        let mut new_val = || {
            let buf = self.alloc.alloc(ctx.tid, VALUE_BUF_BYTES);
            // SAFETY: a fresh allocation of a value buffer.
            unsafe { (buf as *mut u64).write(val) };
            Ok(buf)
        };
        // SAFETY: as for `get`.
        let Ok(old) = unsafe { self.put_inner(ctx.tid, self.holder(), key, &mut new_val) };
        old.map(|buf| {
            // SAFETY: as for `get`; the buffer is retired below, under EBR.
            let payload = unsafe { *(buf as *const u64) };
            self.alloc.defer_free(ctx.tid, buf, VALUE_BUF_BYTES);
            payload
        })
    }

    /// Removes `key`, returning whether it was present.
    pub fn remove(&self, ctx: &TreeCtx, key: &[u8]) -> bool {
        let _g = ctx.handle.pin();
        // SAFETY: as for `get`.
        let old = unsafe { self.remove_inner(ctx.tid, self.holder(), key) };
        old.map(|buf| self.alloc.defer_free(ctx.tid, buf, VALUE_BUF_BYTES))
            .is_some()
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
        let _g = ctx.handle.pin();
        // SAFETY: as for `get`.
        unsafe {
            self.scan_from(self.holder(), start, limit, &mut |k, buf| {
                f(k, *(buf as *const u64))
            })
        }
    }

    /// A fresh zeroed node, its version word `kind` plus `IS_ROOT` and
    /// `LOCK` as asked.
    fn new_node(&self, tid: usize, kind: u64, is_root: bool, locked: bool) -> u64 {
        let node = self.alloc.alloc(tid, NODE_BYTES);
        let root = if is_root { IS_ROOT } else { 0 };
        let lock = if locked { LOCK } else { 0 };
        // SAFETY: a fresh, exclusively owned, 64-aligned node allocation.
        unsafe {
            for w in (8..NODE_BYTES as u64).step_by(8) {
                self.store(node + w, 0);
            }
            self.store(node, kind | root | lock);
        }
        node
    }

    /// Frees every node, holder and value buffer below `node`.
    ///
    /// # Safety
    ///
    /// Exclusive access: no other thread uses the tree.
    unsafe fn destroy_subtree(&self, node: u64) {
        unsafe {
            if self.load(node) & IS_LEAF != 0 {
                for slot in self.perm_of(node).occupied() {
                    let val = self.load(node + Self::off_val(slot));
                    if self.klenx_at(node, slot) == KLEN_LAYER {
                        self.destroy_subtree(self.load(val));
                        self.alloc.free_now(val, HOLDER_BYTES);
                    } else {
                        self.alloc.free_now(val, VALUE_BUF_BYTES);
                    }
                }
            } else {
                let n = self.load(node + Self::OFF_INT_NKEYS) as usize;
                for i in 0..=n {
                    self.destroy_subtree(self.load(node + Self::off_int_child(i)));
                }
            }
            self.alloc.free_now(node, NODE_BYTES);
        }
    }
}

/// The word at `addr`.
///
/// # Safety
///
/// `addr` is a live, 8-aligned word of this tree.
#[inline]
unsafe fn word<'a>(addr: u64) -> &'a AtomicU64 {
    unsafe { &*(addr as *const AtomicU64) }
}

// SAFETY: nodes and holders come from the tree's allocator, sized and
// aligned for the layout above; a word is an `AtomicU64` at its address.
unsafe impl NodeStore<LEAF_WIDTH> for Masstree {
    const INT_WIDTH: usize = 15;
    const OFF_PARENT: u64 = 8;
    const OFF_NEXT: u64 = 16;
    const OFF_PERM: u64 = 24;
    const OFF_KLENX: u64 = 32;
    const OFF_INT_NKEYS: u64 = 16;
    #[inline]
    fn off_ikey(slot: usize) -> u64 {
        48 + 8 * slot as u64
    }
    #[inline]
    fn off_val(slot: usize) -> u64 {
        168 + 8 * slot as u64
    }
    #[inline]
    fn off_int_key(i: usize) -> u64 {
        24 + 8 * i as u64
    }
    #[inline]
    fn off_int_child(i: usize) -> u64 {
        144 + 8 * i as u64
    }

    /// The thread slot.
    type Cx = usize;
    type Error = Infallible;

    #[inline]
    unsafe fn load(&self, addr: u64) -> u64 {
        unsafe { word(addr).load(Ordering::Relaxed) }
    }
    #[inline]
    unsafe fn load_acquire(&self, addr: u64) -> u64 {
        unsafe { word(addr).load(Ordering::Acquire) }
    }
    #[inline]
    unsafe fn store(&self, addr: u64, val: u64) {
        unsafe { word(addr).store(val, Ordering::Relaxed) }
    }
    #[inline]
    unsafe fn store_release(&self, addr: u64, val: u64) {
        unsafe { word(addr).store(val, Ordering::Release) }
    }
    #[inline]
    unsafe fn cas(&self, addr: u64, current: u64, new: u64) -> bool {
        unsafe { word(addr) }
            .compare_exchange(current, new, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    fn new_leaf(&self, tid: usize, is_root: bool, locked: bool) -> Result<u64, Infallible> {
        let lf = self.new_node(tid, IS_LEAF, is_root, locked);
        // SAFETY: a fresh leaf, not yet published.
        unsafe {
            self.store(
                lf + Self::OFF_PERM,
                Permutation::<LEAF_WIDTH>::empty().raw(),
            )
        };
        Ok(lf)
    }

    fn new_interior(&self, tid: usize, is_root: bool, locked: bool) -> Result<u64, Infallible> {
        Ok(self.new_node(tid, 0, is_root, locked))
    }

    fn new_holder(&self, tid: usize, root: u64) -> Result<u64, Infallible> {
        let holder = self.alloc.alloc(tid, HOLDER_BYTES);
        // SAFETY: a fresh holder allocation, not yet published.
        unsafe { self.store_release(holder, root) };
        Ok(holder)
    }
}

impl Drop for Masstree {
    fn drop(&mut self) {
        // Exclusive access (&mut): walk and free everything, then run one
        // boundary drain so deferred frees release too.
        // SAFETY: no concurrent users can exist during Drop.
        unsafe { self.destroy_subtree(self.root.load(Ordering::Relaxed)) };
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
