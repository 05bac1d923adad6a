//! Transient Masstree node layouts.
//!
//! Both node kinds are 320 bytes, cache-line aligned, and start with the
//! version word so a node reference (`u64` address) can be inspected before
//! its kind is known:
//!
//! * [`Leaf`] — border node: 15 unsorted key slots ordered by the
//!   permutation word, `keylenx` tags (terminal length or layer marker) and
//!   value words (value-buffer address, or layer root-cell address when
//!   `keylenx == KLEN_LAYER`).
//! * [`Interior`] — B+tree internal node: up to 15 sorted `ikey`
//!   separators and 16 children.
//!
//! All fields are atomics: readers run lock-free under version validation,
//! so every racing load must be defined behavior.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::perm::Permutation;
use crate::version::{NodeVersion, IS_LEAF};

/// Keys/values per leaf (the paper's transient Masstree default, §2.2).
pub const LEAF_WIDTH: usize = 15;
/// Separator keys per interior node.
pub const INT_WIDTH: usize = 15;

/// Permutation type for transient leaves.
pub type LeafPerm = Permutation<LEAF_WIDTH>;

/// A border (leaf) node.
#[repr(C, align(64))]
pub struct Leaf {
    /// Version word ([`crate::version`]).
    pub version: NodeVersion,
    /// Permutation word ([`crate::perm`]).
    pub permutation: AtomicU64,
    /// Parent interior node address (0 when layer root).
    pub parent: AtomicU64,
    /// Right sibling address (0 at the layer's right edge).
    pub next: AtomicU64,
    /// 8-byte big-endian key slices, unsorted.
    pub ikeys: [AtomicU64; LEAF_WIDTH],
    /// Terminal length (0..=8) or [`crate::key::KLEN_LAYER`].
    pub klenx: [AtomicU8; LEAF_WIDTH],
    /// Value-buffer address, or layer root-cell address for layer slots.
    pub vals: [AtomicU64; LEAF_WIDTH],
}

/// An interior node.
#[repr(C, align(64))]
pub struct Interior {
    /// Version word.
    pub version: NodeVersion,
    /// Number of separator keys (≤ [`INT_WIDTH`]).
    pub nkeys: AtomicU64,
    /// Parent interior node address (0 when layer root).
    pub parent: AtomicU64,
    /// Sorted separator keys.
    pub keys: [AtomicU64; INT_WIDTH],
    /// Children addresses (`nkeys + 1` populated).
    pub children: [AtomicU64; INT_WIDTH + 1],
}

/// A mutable root cell: each trie layer's root pointer lives in one so
/// root splits can swing it atomically.
#[derive(Debug, Default)]
#[repr(C)]
pub struct RootCell(pub AtomicU64);

impl RootCell {
    /// Reads the current layer root address.
    #[inline]
    pub fn load(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// Installs a new layer root address.
    #[inline]
    pub fn store(&self, node: u64) {
        self.0.store(node, Ordering::Release);
    }
}

/// Returns the version word of the node at `addr`.
///
/// # Safety
///
/// `addr` must reference a live `Leaf` or `Interior` (both start with the
/// version word).
#[inline]
pub unsafe fn version_of<'a>(addr: u64) -> &'a NodeVersion {
    unsafe { &*(addr as *const NodeVersion) }
}

/// Casts `addr` to a leaf reference.
///
/// # Safety
///
/// `addr` must reference a live, properly initialised `Leaf`.
#[inline]
pub unsafe fn leaf_ref<'a>(addr: u64) -> &'a Leaf {
    unsafe { &*(addr as *const Leaf) }
}

/// Casts `addr` to an interior reference.
///
/// # Safety
///
/// `addr` must reference a live, properly initialised `Interior`.
#[inline]
pub unsafe fn interior_ref<'a>(addr: u64) -> &'a Interior {
    unsafe { &*(addr as *const Interior) }
}

impl Leaf {
    /// Initialises raw memory at `addr` as an empty leaf with the given
    /// version flags (besides `IS_LEAF`, which is always set).
    ///
    /// # Safety
    ///
    /// `addr` must point to at least `size_of::<Leaf>()` bytes of exclusively
    /// owned, 64-aligned memory.
    pub unsafe fn init(addr: u64, extra_flags: u64) -> &'static Leaf {
        unsafe {
            let l = &mut *(addr as *mut Leaf);
            std::ptr::write(
                &mut l.version,
                NodeVersion::with_flags(IS_LEAF | extra_flags),
            );
            l.permutation
                .store(LeafPerm::empty().raw(), Ordering::Relaxed);
            l.parent.store(0, Ordering::Relaxed);
            l.next.store(0, Ordering::Relaxed);
            // Key/val slots gated by the permutation: no init required, but
            // zero them for deterministic debugging.
            for i in 0..LEAF_WIDTH {
                l.ikeys[i].store(0, Ordering::Relaxed);
                l.klenx[i].store(0, Ordering::Relaxed);
                l.vals[i].store(0, Ordering::Relaxed);
            }
            &*(addr as *const Leaf)
        }
    }

    /// Loads the permutation.
    #[inline]
    pub fn perm(&self) -> LeafPerm {
        LeafPerm::from_raw(self.permutation.load(Ordering::Acquire))
    }

    /// Publishes a new permutation.
    #[inline]
    pub fn set_perm(&self, p: LeafPerm) {
        self.permutation.store(p.raw(), Ordering::Release);
    }
}

impl Interior {
    /// Initialises raw memory at `addr` as an empty interior node.
    ///
    /// # Safety
    ///
    /// As for [`Leaf::init`].
    pub unsafe fn init(addr: u64, extra_flags: u64) -> &'static Interior {
        unsafe {
            let n = &mut *(addr as *mut Interior);
            std::ptr::write(&mut n.version, NodeVersion::with_flags(extra_flags));
            n.nkeys.store(0, Ordering::Relaxed);
            n.parent.store(0, Ordering::Relaxed);
            for i in 0..INT_WIDTH {
                n.keys[i].store(0, Ordering::Relaxed);
            }
            for i in 0..=INT_WIDTH {
                n.children[i].store(0, Ordering::Relaxed);
            }
            &*(addr as *const Interior)
        }
    }

    /// Number of separator keys.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.nkeys.load(Ordering::Acquire) as usize
    }

    /// Child index routing `ikey`: the number of separators ≤ `ikey`
    /// (keys equal to a separator route right).
    #[inline]
    pub fn route(&self, ikey: u64) -> usize {
        let n = self.len();
        let mut i = 0;
        while i < n && self.keys[i].load(Ordering::Acquire) <= ikey {
            i += 1;
        }
        i
    }
}

/// Byte size of both node kinds (they share one allocation class).
pub const NODE_BYTES: usize = std::mem::size_of::<Leaf>();

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::IS_ROOT;

    #[test]
    fn node_sizes_are_320_bytes_aligned_64() {
        assert_eq!(std::mem::size_of::<Leaf>(), 320);
        assert_eq!(std::mem::size_of::<Interior>(), 320);
        assert_eq!(std::mem::align_of::<Leaf>(), 64);
        assert_eq!(std::mem::align_of::<Interior>(), 64);
    }

    #[test]
    fn version_is_first_field() {
        // The kind-agnostic header cast relies on this.
        assert_eq!(std::mem::offset_of!(Leaf, version), 0);
        assert_eq!(std::mem::offset_of!(Interior, version), 0);
    }

    #[test]
    fn leaf_init_is_empty_root_leaf() {
        let mem = vec![0u8; NODE_BYTES + 64];
        let addr = (mem.as_ptr() as u64 + 63) & !63;
        let l = unsafe { Leaf::init(addr, IS_ROOT) };
        assert!(l.perm().is_empty());
        assert!(l.version.is_leaf());
        assert!(l.version.load() & IS_ROOT != 0);
        assert_eq!(l.next.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn interior_routing() {
        let mem = vec![0u8; NODE_BYTES + 64];
        let addr = (mem.as_ptr() as u64 + 63) & !63;
        let n = unsafe { Interior::init(addr, 0) };
        n.keys[0].store(10, Ordering::Relaxed);
        n.keys[1].store(20, Ordering::Relaxed);
        n.nkeys.store(2, Ordering::Relaxed);
        assert_eq!(n.route(5), 0);
        assert_eq!(n.route(10), 1, "equal keys route right");
        assert_eq!(n.route(15), 1);
        assert_eq!(n.route(20), 2);
        assert_eq!(n.route(99), 2);
    }

    #[test]
    fn root_cell_swings() {
        let c = RootCell::default();
        c.store(0x1000);
        assert_eq!(c.load(), 0x1000);
    }
}
