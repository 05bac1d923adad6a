//! Transient allocation policies: the MT / MT+ distinction (§6).
//!
//! The paper's optimized baseline MT+ differs from stock Masstree (MT) by
//! obtaining memory from an `mmap`-ed pool instead of `jemalloc` (plus the
//! per-epoch barrier both share here). This module provides both policies
//! behind one handle:
//!
//! * [`AllocMode::Global`] — the process allocator, one call per object
//!   (the MT baseline).
//! * [`AllocMode::Pool`] — per-thread free-list stacks over a pre-mapped
//!   arena (the MT+ baseline); allocation is a `Vec::pop`.
//!
//! Frees are epoch-deferred in both modes: freed objects land in a
//! per-thread garbage bin and are recycled (pool) or deallocated (global)
//! at the epoch boundary, when every thread has quiesced — the standard
//! epoch-based-reclamation guarantee Masstree relies on.

use std::alloc::{alloc, dealloc, Layout};
use std::sync::Arc;

use parking_lot::Mutex;

use incll_epoch::EpochManager;
use incll_pmem::PArena;

/// Which backing store serves allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocMode {
    /// Process allocator (MT baseline).
    Global,
    /// Pre-mapped pool with per-thread free lists (MT+ baseline).
    Pool,
}

/// Size classes used by the transient trees (nodes are 320 B, value
/// buffers 32 B).
const POOL_CLASSES: &[usize] = &[16, 32, 64, 128, 320, 512, 1024];

fn class_of(size: usize) -> usize {
    POOL_CLASSES
        .iter()
        .position(|&c| size <= c)
        .unwrap_or_else(|| panic!("transient allocation of {size} bytes has no pool class"))
}

/// Cache-line-align anything at least a cache line big (nodes are
/// `repr(align(64))`); small buffers keep 16-byte alignment.
fn align_of_size(size: usize) -> usize {
    if size >= 64 {
        64
    } else {
        16
    }
}

struct ThreadBins {
    /// Pool-mode free stacks, one per class.
    free: Vec<Vec<u64>>,
    /// Deferred frees awaiting the epoch boundary: (addr, size).
    garbage: Vec<(u64, usize)>,
}

impl ThreadBins {
    fn new() -> Self {
        ThreadBins {
            free: vec![Vec::new(); POOL_CLASSES.len()],
            garbage: Vec::new(),
        }
    }
}

struct Inner {
    mode: AllocMode,
    /// Backing pool for [`AllocMode::Pool`] (a fast-mode arena acting as
    /// plain mapped memory).
    pool: Option<PArena>,
    bins: Vec<Mutex<ThreadBins>>,
}

/// The transient allocator handle (cheap to clone).
///
/// Addresses returned are raw virtual addresses (`u64`), uniform across
/// both modes.
#[derive(Clone)]
pub struct TransientAlloc {
    inner: Arc<Inner>,
}

impl TransientAlloc {
    /// Creates an allocator for `nthreads` workers.
    ///
    /// `pool` must be `Some` for [`AllocMode::Pool`]; the arena acts as the
    /// mmap-ed pool and must outlive all allocations (the handle keeps it
    /// alive).
    ///
    /// # Panics
    ///
    /// Panics if pool mode is requested without an arena.
    pub fn new(mode: AllocMode, nthreads: usize, pool: Option<PArena>) -> Self {
        if mode == AllocMode::Pool {
            assert!(pool.is_some(), "pool mode needs a backing arena");
        }
        TransientAlloc {
            inner: Arc::new(Inner {
                mode,
                pool,
                bins: (0..nthreads.max(1))
                    .map(|_| Mutex::new(ThreadBins::new()))
                    .collect(),
            }),
        }
    }

    /// Allocates `size` bytes (16-aligned), returning its address.
    ///
    /// # Panics
    ///
    /// Panics on host allocator failure or pool exhaustion.
    pub fn alloc(&self, thread: usize, size: usize) -> u64 {
        match self.inner.mode {
            AllocMode::Global => {
                let layout =
                    Layout::from_size_align(size.max(16), align_of_size(size)).expect("layout");
                // SAFETY: nonzero size; layout valid.
                let p = unsafe { alloc(layout) };
                assert!(!p.is_null(), "global allocation of {size} bytes failed");
                p as u64
            }
            AllocMode::Pool => {
                let class = class_of(size);
                let mut bins = self.inner.bins[thread % self.inner.bins.len()].lock();
                if let Some(addr) = bins.free[class].pop() {
                    return addr;
                }
                drop(bins);
                let arena = self.inner.pool.as_ref().expect("pool arena");
                let off = arena
                    .carve(POOL_CLASSES[class], align_of_size(POOL_CLASSES[class]))
                    .expect("pool arena exhausted; increase pool capacity");
                // SAFETY: freshly carved, in-bounds offset.
                unsafe { arena.ptr_at(off) as u64 }
            }
        }
    }

    /// Defers the free of `addr` (from [`TransientAlloc::alloc`] with
    /// `size`) until the next epoch boundary.
    pub fn defer_free(&self, thread: usize, addr: u64, size: usize) {
        let mut bins = self.inner.bins[thread % self.inner.bins.len()].lock();
        bins.garbage.push((addr, size));
    }

    /// Epoch-boundary hook: recycles (pool) or deallocates (global) all
    /// deferred frees. Runs while all threads are quiesced.
    pub fn on_epoch_boundary(&self) {
        for bin in &self.inner.bins {
            let mut bins = bin.lock();
            let garbage = std::mem::take(&mut bins.garbage);
            for (addr, size) in garbage {
                match self.inner.mode {
                    AllocMode::Global => {
                        let layout = Layout::from_size_align(size.max(16), align_of_size(size))
                            .expect("layout");
                        // SAFETY: addr came from `alloc` with this layout;
                        // the epoch barrier guarantees no thread still
                        // holds a reference.
                        unsafe { dealloc(addr as *mut u8, layout) };
                    }
                    AllocMode::Pool => {
                        bins.free[class_of(size)].push(addr);
                    }
                }
            }
        }
    }

    /// Registers the boundary hook on an epoch manager.
    pub fn attach(&self, mgr: &EpochManager) {
        let this = self.clone();
        mgr.add_advance_hook(Box::new(move |_| this.on_epoch_boundary()));
    }

    /// Immediately frees `addr` (drop path only: requires no concurrent
    /// readers).
    pub(crate) fn free_now(&self, addr: u64, size: usize) {
        match self.inner.mode {
            AllocMode::Global => {
                let layout =
                    Layout::from_size_align(size.max(16), align_of_size(size)).expect("layout");
                // SAFETY: caller guarantees exclusive access (Drop).
                unsafe { dealloc(addr as *mut u8, layout) };
            }
            AllocMode::Pool => {
                let mut bins = self.inner.bins[0].lock();
                bins.free[class_of(size)].push(addr);
            }
        }
    }
}

impl std::fmt::Debug for TransientAlloc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransientAlloc")
            .field("mode", &self.inner.mode)
            .field("threads", &self.inner.bins.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_alloc() -> TransientAlloc {
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        TransientAlloc::new(AllocMode::Pool, 2, Some(arena))
    }

    #[test]
    fn global_alloc_free_roundtrip() {
        let a = TransientAlloc::new(AllocMode::Global, 1, None);
        let p = a.alloc(0, 320);
        assert_eq!(p % 16, 0);
        // Write through it to catch bad pointers under sanitizers.
        unsafe { std::ptr::write_bytes(p as *mut u8, 0xAB, 320) };
        a.defer_free(0, p, 320);
        a.on_epoch_boundary();
    }

    #[test]
    fn pool_reuses_after_boundary() {
        let a = pool_alloc();
        let p = a.alloc(0, 32);
        a.defer_free(0, p, 32);
        let q = a.alloc(0, 32);
        assert_ne!(p, q, "deferred free must not be reused immediately");
        a.on_epoch_boundary();
        let r = a.alloc(0, 32);
        assert_eq!(p, r, "boundary recycles deferred frees");
    }

    #[test]
    fn pool_classes_do_not_mix() {
        let a = pool_alloc();
        let p = a.alloc(0, 32);
        a.defer_free(0, p, 32);
        a.on_epoch_boundary();
        let q = a.alloc(0, 320);
        assert_ne!(p, q);
    }

    #[test]
    fn threads_use_separate_pools() {
        let a = pool_alloc();
        let p = a.alloc(0, 32);
        a.defer_free(0, p, 32);
        a.on_epoch_boundary();
        // Thread 1's stack is empty: fresh carve.
        let q = a.alloc(1, 32);
        assert_ne!(p, q);
    }

    #[test]
    #[should_panic(expected = "pool mode needs a backing arena")]
    fn pool_without_arena_panics() {
        let _ = TransientAlloc::new(AllocMode::Pool, 1, None);
    }
}
