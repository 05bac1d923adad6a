//! Durable memory allocator with in-cache-line-logged free lists (§5).
//!
//! The paper's observation: an allocator is just a durable data structure —
//! a set of free chunks — so the same fine-grain-checkpointing + InCLL
//! recipe applies. This allocator provides:
//!
//! * **Per-(thread, class) free lists** — the pool-allocation style of the
//!   MT+ baseline, lock-free because each thread owns its lists.
//! * **16-byte object headers** ([`header`]) packing `next`, the epoch-start
//!   `next` (the undo log) and a 32-bit epoch into two words via pointer
//!   canonical-form bits plus 2-bit torn-write counters (§5.1).
//! * **InCLL-protected list heads** — one cache line per list pair, logged
//!   in place with release-ordered same-line stores.
//! * **Epoch-based reclamation**: `free` pushes onto a *pending* list;
//!   pending objects are spliced into the allocatable list at the next
//!   epoch boundary, guaranteeing an object is only handed out if it was
//!   free at the start of the epoch. That property is what makes logging
//!   buffer *contents* unnecessary (§5): after a crash the buffer reverts
//!   to free, and nobody can hold a reference to it.
//!
//! No `clwb`/`sfence` ever executes on the allocation or free path.
//!
//! # Epoch domains
//!
//! Under per-shard epoch domains every epoch-tagged undo in this allocator
//! must be keyed to exactly **one** domain's timeline, or a head cell
//! touched by two shards could not be rolled back per shard. The free
//! lists therefore become per-**(thread, domain)**-per-class
//! ([`PAlloc::create_sharded`], [`PAlloc::alloc_in`]): every object is
//! owned for life by the shard whose tree references it (keys never
//! migrate between shards), so its header epochs, its head cells and its
//! pending-list residency all live on that shard's timeline — allocated
//! under the shard's epoch, spliced at the shard's boundary, repaired
//! against the shard's failed set.
//!
//! The bump **watermark** is per shard too, and the carvable space behind
//! it is a **chunked extent pool**: the allocator turns the arena's
//! remaining space into a pool of fixed-size power-of-two extents
//! ([`PAlloc::create_sharded`] must therefore be the last create-time
//! carver) and each shard carves from a chain of extents it *claims
//! online* from the shared durable extent-owner table
//! ([`incll_pmem::superblock::SB_EXTENT_OWNERS`]) — one byte per extent
//! on dedicated cache lines, claimed lowest-index first with a
//! CAS-then-`clwb`/`sfence` so a crash mid-claim shows either an owned
//! extent or a free one, never a torn owner. Each shard keeps its own
//! carve frontier with its own durable InCLL watermark triple on a
//! dedicated cache line ([`incll_pmem::superblock::shard_bump_off`]).
//! Slab carves never cross shards, the frontier's epoch tag lives on the
//! owning shard's own timeline, and the paper's flush-free watermark
//! protocol applies per shard: a crash rolls each shard's frontier back
//! to its epoch-start value, so slabs carved in a doomed epoch
//! **un-carve** within the owning extent — nothing leaks, and no
//! `clwb`/`sfence` ever runs on the common carve path (only the rare
//! extent *claim* — once per extent, ever — issues one write-back +
//! fence, so the durable claim always precedes any durable frontier
//! referencing the extent).
//!
//! Extents are never released: a claim made in an epoch that later
//! failed (the frontier reverted out of the extent) merely leaves the
//! extent on the owning shard's **reserve** chain, reused before any new
//! claim — so recovery rebuilds each shard's chain from the owner table
//! with zero media writes, byte-identical at every recovery worker
//! count. [`Error::Pmem`]`(OutOfMemory)` from the carve path means the
//! **pool** is exhausted (every extent claimed and the shard's chain
//! full). A one-shard store is the same pool with a single claimant.
//!
//! # Example
//!
//! ```
//! use incll_pmem::{superblock, PArena};
//! use incll_palloc::PAlloc;
//!
//! # fn main() -> Result<(), incll_palloc::Error> {
//! let arena = PArena::builder().capacity_bytes(1 << 20).build()?;
//! superblock::format(&arena);
//! let alloc = PAlloc::create(&arena, /*threads*/ 2)?;
//! let buf = alloc.alloc(/*thread*/ 0, /*epoch*/ 1, 32)?;
//! arena.pwrite_u64(buf, 42); // fill the buffer: no flush needed
//! alloc.free(0, 1, buf, 32);
//! # Ok(())
//! # }
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use incll_pmem::{superblock, PArena};

mod cell;
mod classes;
pub mod header;

pub use classes::{
    class_for, class_for_aligned64, ALIGNED64_CLASS_SIZES, CLASS_SIZES, NUM_CLASSES, SLAB_OBJECTS,
    TOTAL_CLASSES,
};
pub use header::HEADER_BYTES;

/// Errors returned by the durable allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Underlying arena failure (typically out of memory).
    Pmem(incll_pmem::Error),
    /// Requested size exceeds the largest size class.
    UnsupportedSize {
        /// The offending request, in bytes.
        size: usize,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Pmem(e) => write!(f, "persistent memory error: {e}"),
            Error::UnsupportedSize { size } => write!(
                f,
                "allocation of {size} bytes exceeds the largest size class ({})",
                CLASS_SIZES[NUM_CLASSES - 1]
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Pmem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<incll_pmem::Error> for Error {
    fn from(e: incll_pmem::Error) -> Self {
        Error::Pmem(e)
    }
}

/// Default pool extent size: 1 MiB.
pub const DEFAULT_EXTENT_BYTES: u64 = 1 << 20;
/// Smallest pool extent size create will shrink to for tiny arenas. Must
/// hold at least one object of the largest class plus alignment slack.
pub const MIN_EXTENT_BYTES: u64 = 64 * 1024;

/// The extent pool every domain carves from.
#[derive(Debug, Clone, Copy)]
struct Pool {
    /// Base offset of extent 0 (64-aligned).
    base: u64,
    /// Bytes per extent (power of two, multiple of 64).
    extent_bytes: u64,
    /// Number of extents in the pool.
    count: usize,
}

impl Pool {
    #[inline]
    fn start(&self, idx: usize) -> u64 {
        self.base + idx as u64 * self.extent_bytes
    }

    #[inline]
    fn end(&self, idx: usize) -> u64 {
        self.start(idx) + self.extent_bytes
    }
}

struct Inner {
    arena: PArena,
    /// Base of the head-cell region:
    /// `nthreads × ndomains × TOTAL_CLASSES` cache lines.
    root: u64,
    nthreads: usize,
    /// Epoch domains.
    ndomains: usize,
    /// Low 32 bits of every durable failed epoch, per domain (object
    /// headers store 32-bit epochs).
    failed_low32: Vec<Vec<u32>>,
    /// Full failed epochs, per domain (head cells store full epochs).
    failed_full: Vec<Vec<u64>>,
    /// The shared extent pool.
    pool: Pool,
    /// Per-domain transient carve frontier, mirroring the domain's durable
    /// watermark.
    frontier: Vec<AtomicU64>,
    /// Per-domain end of the *active* extent (the one the frontier is
    /// inside); the frontier may carve up to it.
    limit: Vec<AtomicU64>,
    /// Per-domain reserve chain: owned-but-not-yet-active extent indices
    /// in ascending order (claims are strictly lowest-index-first and
    /// extents are never released, so ascending order is canonical).
    /// Activated front-first before any new claim.
    reserve: Vec<Mutex<Vec<u32>>>,
    /// Serialises each domain's durable-watermark updates (slab carving is
    /// rare); one lock per domain so carves never contend across shards.
    carve_locks: Vec<Mutex<()>>,
}

/// The durable allocator (see crate docs). Cheap to clone.
#[derive(Clone)]
pub struct PAlloc {
    inner: Arc<Inner>,
}

impl PAlloc {
    /// [`PAlloc::create_sharded`] with one domain. Like it, this must be
    /// the last create-time carver.
    ///
    /// # Errors
    ///
    /// Propagates arena carve failures.
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` is zero.
    pub fn create(arena: &PArena, nthreads: usize) -> Result<Self, Error> {
        Self::create_sharded(arena, nthreads, 1)
    }

    /// Creates a fresh allocator whose free lists are segregated per
    /// **(thread, domain)**: allocations under domain `d`
    /// ([`PAlloc::alloc_in`]) come from, and return to, lists whose undo
    /// tags live entirely on `d`'s epoch timeline. See the crate docs'
    /// epoch-domains section.
    ///
    /// The allocator also turns the rest of the arena into the **extent
    /// pool**: all remaining carvable space becomes up to
    /// [`incll_pmem::superblock::MAX_EXTENTS`] fixed-size power-of-two
    /// extents (default [`DEFAULT_EXTENT_BYTES`], shrunk for
    /// tiny arenas, grown for huge ones), each shard eagerly claims one,
    /// and further extents are claimed online from the shared durable
    /// owner table as shards exhaust their chains. The pool claims the
    /// rest of the arena, so this must be the *last* create-time carver —
    /// carve shared regions (e.g. the external log) first.
    ///
    /// # Errors
    ///
    /// Propagates arena carve failures (including an arena too small to
    /// give every domain at least one extent).
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `ndomains` is zero.
    pub fn create_sharded(arena: &PArena, nthreads: usize, ndomains: usize) -> Result<Self, Error> {
        assert!(nthreads > 0, "allocator needs at least one thread slot");
        assert!(ndomains > 0, "allocator needs at least one epoch domain");
        let region = (nthreads * ndomains * TOTAL_CLASSES) as u64 * cell::CELL_BYTES;
        let root = arena.carve(region as usize, 64)?;
        // Head cells start zeroed (the arena's mapping is kernel-zeroed).
        arena.pwrite_u64(superblock::SB_PALLOC_HEADS, root);
        arena.pwrite_u64(superblock::SB_PALLOC_HEADS + 8, nthreads as u64);
        arena.pwrite_u64(superblock::SB_PALLOC_HEADS + 16, TOTAL_CLASSES as u64);
        arena.pwrite_u64(superblock::SB_PALLOC_HEADS + 24, ndomains as u64);

        // Size the pool: start at the default extent, shrink while the
        // pool cannot give every domain an extent, grow while it would
        // overflow the owner table.
        let base = (arena.bump() + 63) & !63;
        let avail = (arena.capacity() as u64).saturating_sub(base);
        let mut extent_bytes = DEFAULT_EXTENT_BYTES;
        while extent_bytes > MIN_EXTENT_BYTES && avail / extent_bytes < ndomains as u64 {
            extent_bytes /= 2;
        }
        while avail / extent_bytes > superblock::MAX_EXTENTS as u64 {
            extent_bytes *= 2;
        }
        let count = (avail / extent_bytes).min(superblock::MAX_EXTENTS as u64) as usize;
        if count < ndomains {
            return Err(Error::Pmem(incll_pmem::Error::OutOfMemory {
                requested: (MIN_EXTENT_BYTES as usize) * ndomains,
                capacity: arena.capacity(),
            }));
        }
        // Reserved, not carved: an extent is populated when it is claimed,
        // so resident memory follows the store's size, not the arena's.
        let split = arena.reserve((extent_bytes * count as u64) as usize, 64)?;
        arena.pwrite_u64(superblock::SB_ARENA_SPLIT, split);
        arena.pwrite_u64(superblock::SB_ARENA_REGION_BYTES, extent_bytes);
        arena.pwrite_u64(superblock::SB_EXTENT_COUNT, count as u64);
        arena.clwb(superblock::SB_ARENA_SPLIT);
        let pool = Pool {
            base: split,
            extent_bytes,
            count,
        };
        let mut frontier = Vec::with_capacity(ndomains);
        let mut limit = Vec::with_capacity(ndomains);
        for d in 0..ndomains {
            // Eagerly claim extent d for shard d: the claim flushes
            // itself, so the pool starts with a durable one-extent
            // chain per shard.
            let claimed = superblock::claim_extent(arena, d, d);
            debug_assert!(claimed, "fresh pool extent must be claimable");
            let start = pool.start(d);
            arena.populate(start, extent_bytes as usize);
            frontier.push(AtomicU64::new(start));
            limit.push(AtomicU64::new(pool.end(d)));
            arena.pwrite_u64(superblock::shard_bump_off(d), start);
            arena.pwrite_u64(superblock::shard_bump_incll_off(d), start);
            arena.pwrite_u64(superblock::shard_bump_epoch_off(d), 0);
            arena.clwb(superblock::shard_bump_off(d));
        }
        let reserve = (0..ndomains).map(|_| Mutex::new(Vec::new())).collect();
        arena.clwb_range(superblock::SB_PALLOC_HEADS, 32);
        arena.sfence();
        Ok(PAlloc {
            inner: Arc::new(Inner {
                arena: arena.clone(),
                root,
                nthreads,
                ndomains,
                failed_low32: vec![Vec::new(); ndomains],
                failed_full: vec![Vec::new(); ndomains],
                pool,
                frontier,
                limit,
                reserve,
                carve_locks: (0..ndomains).map(|_| Mutex::new(())).collect(),
            }),
        })
    }

    /// Stage one of recovery: rebuilds the allocator handle from the
    /// superblock descriptor — domain count, regions, failed-epoch sets —
    /// **without repairing anything**. Every domain must then be repaired
    /// exactly once via [`PAlloc::recover_domain`] before it serves
    /// allocations; distinct domains may be repaired concurrently (each
    /// repair touches only that domain's head cells, watermark line and
    /// object headers).
    ///
    /// The failed-epoch sets are snapshotted here, so the caller must have
    /// recorded every crashed epoch
    /// ([`incll_pmem::superblock::record_failed_epoch_for`]) for **all**
    /// domains before calling.
    ///
    /// # Panics
    ///
    /// Panics if the arena carries no allocator root or if `ndomains`
    /// differs from the domain count fixed at create.
    pub fn open_staged(arena: &PArena, ndomains: usize) -> Self {
        let root = arena.pread_u64(superblock::SB_PALLOC_HEADS);
        let nthreads = arena.pread_u64(superblock::SB_PALLOC_HEADS + 8) as usize;
        let on_media = arena.pread_u64(superblock::SB_PALLOC_HEADS + 24) as usize;
        assert!(
            root != 0 && nthreads > 0,
            "arena has no allocator root; format + create first"
        );
        assert_eq!(ndomains, on_media, "one exec epoch per allocator domain");
        let failed_full: Vec<Vec<u64>> = (0..ndomains)
            .map(|d| superblock::failed_epochs_for(arena, d))
            .collect();
        let failed_low32: Vec<Vec<u32>> = failed_full
            .iter()
            .map(|f| f.iter().map(|&e| e as u32).collect())
            .collect();

        let split = arena.pread_u64(superblock::SB_ARENA_SPLIT);
        let extent_bytes = arena.pread_u64(superblock::SB_ARENA_REGION_BYTES);
        let count = arena.pread_u64(superblock::SB_EXTENT_COUNT) as usize;
        assert!(
            split != 0 && extent_bytes != 0 && count != 0,
            "allocator without an extent-pool descriptor"
        );
        // The pool claimed the rest of the arena at create; reflect
        // that in the transient global frontier.
        arena.set_bump(split + extent_bytes * count as u64);
        let pool = Pool {
            base: split,
            extent_bytes,
            count,
        };
        // Frontiers start at the raw durable watermark; recover_domain
        // rolls each back past its failed epochs and then rebuilds the
        // extent chain (active limit + reserve) from the owner table.
        let frontier: Vec<AtomicU64> = (0..ndomains)
            .map(|d| AtomicU64::new(arena.pread_u64(superblock::shard_bump_off(d))))
            .collect();
        let limit = (0..ndomains)
            .map(|d| AtomicU64::new(frontier[d].load(Ordering::Relaxed)))
            .collect();
        let reserve = (0..ndomains).map(|_| Mutex::new(Vec::new())).collect();
        PAlloc {
            inner: Arc::new(Inner {
                arena: arena.clone(),
                root,
                nthreads,
                ndomains,
                failed_low32,
                failed_full,
                pool,
                frontier,
                limit,
                reserve,
                carve_locks: (0..ndomains).map(|_| Mutex::new(())).collect(),
            }),
        }
    }

    /// Stage two of recovery, for one domain: reverts the domain's carve
    /// watermark if its epoch tag names a failed epoch (un-carving slabs
    /// doomed with the epoch), repairs the domain's head cells against its
    /// own failed set, and splices its surviving pending lists under
    /// `exec_epoch`.
    ///
    /// Touches only domain-owned state, so distinct domains may run
    /// concurrently from different recovery workers; the result is
    /// byte-identical to running the domains sequentially in any order.
    /// Idempotent under re-crash (no flushes; §4.3).
    pub fn recover_domain(&self, domain: usize, exec_epoch: u64) {
        let arena = &self.inner.arena;
        let failed = &self.inner.failed_full[domain];
        // Watermark: the InCLL revert, on the shard's own timeline.
        let we = arena.pread_u64(superblock::shard_bump_epoch_off(domain));
        if we != 0 && failed.contains(&we) {
            let logged = arena.pread_u64(superblock::shard_bump_incll_off(domain));
            arena.pwrite_u64(superblock::shard_bump_off(domain), logged);
            arena.pwrite_u64_release(superblock::shard_bump_epoch_off(domain), exec_epoch);
        }
        let wm = arena.pread_u64(superblock::shard_bump_off(domain));
        self.inner.frontier[domain].store(wm, Ordering::Relaxed);
        self.rebuild_chain(domain, wm);
        // Head cells: threads × classes lines of this domain, each against
        // the domain's own failed set.
        for t in 0..self.inner.nthreads {
            for c in 0..TOTAL_CLASSES {
                let cell = self.cell(t, domain, c);
                cell::recover_cell(arena, cell, |e| failed.contains(&e), exec_epoch);
            }
        }
        // Surviving pending objects were freed in completed epochs of this
        // domain: they are reusable now. Splice them in, logged under the
        // domain's new epoch.
        self.on_domain_boundary(domain, exec_epoch);
    }

    /// Rebuilds `domain`'s transient extent chain from the durable owner
    /// table after the watermark revert landed the frontier at `frontier`.
    /// Extents are claimed lowest-index-first and never released, so the
    /// shard's owned extents sorted ascending are: fully-carved extents
    /// (end ≤ frontier), then at most one *active* extent containing the
    /// frontier, then *reserve* extents (start ≥ frontier) — extents whose
    /// claims durably landed but whose first carve belonged to a failed
    /// epoch. Reserves are queued for reuse before any fresh claim; the
    /// rebuild itself is read-only media-wise, so it is byte-identical at
    /// every recovery worker count.
    fn rebuild_chain(&self, domain: usize, frontier: u64) {
        let pool = &self.inner.pool;
        let arena = &self.inner.arena;
        let owner = u8::try_from(domain + 1).expect("shard fits the owner byte");
        // Until an owned extent contains the frontier, the shard may not
        // carve (frontier sits exactly on an extent-end boundary).
        let mut limit = frontier;
        let mut reserve = Vec::new();
        for i in 0..pool.count {
            if superblock::extent_owner(arena, i) != owner {
                continue;
            }
            let (s, e) = (pool.start(i), pool.end(i));
            if s <= frontier && frontier < e {
                limit = e;
            } else if s >= frontier {
                reserve.push(u32::try_from(i).expect("extent index fits u32"));
            }
        }
        self.inner.limit[domain].store(limit, Ordering::Relaxed);
        *self.inner.reserve[domain].lock() = reserve;
    }

    /// The extent pool descriptor `(base, extent_bytes, count)`.
    /// Diagnostics / tests.
    pub fn extent_pool(&self) -> (u64, u64, usize) {
        let p = &self.inner.pool;
        (p.base, p.extent_bytes, p.count)
    }

    /// The `[start, end)` spans of every extent currently owned by
    /// `domain` (ascending). Reads the durable owner table. Diagnostics /
    /// tests.
    pub fn owned_extents(&self, domain: usize) -> Vec<(u64, u64)> {
        let pool = &self.inner.pool;
        let owner = u8::try_from(domain + 1).expect("shard fits the owner byte");
        (0..pool.count)
            .filter(|&i| superblock::extent_owner(&self.inner.arena, i) == owner)
            .map(|i| (pool.start(i), pool.end(i)))
            .collect()
    }

    /// Reads the two durable header words of the object whose payload
    /// starts at `payload` (an offset from [`PAlloc::alloc`] that is
    /// still live or epoch-protected). Two atomic word loads, no copying,
    /// no header mutation — the **borrowed-read revalidation** primitive:
    /// a live object's header words are rewritten only when the object is
    /// freed (the §5.1 two-word protocol in [`PAlloc::free`]) or spliced
    /// at an epoch boundary, so a reader that snapshots the words at
    /// borrow time and re-reads them later detects a concurrent
    /// free/overwrite of the object without ever touching its payload.
    ///
    /// Best-effort by design: a same-epoch free whose list linkage
    /// happens to reproduce the exact prior words is indistinguishable
    /// from "still live". That is benign for epoch-pinned readers — the
    /// payload bytes themselves are untouched by `free` and cannot be
    /// recycled until the pinned domain's next boundary.
    pub fn payload_header_words(&self, payload: u64) -> (u64, u64) {
        let obj = payload - HEADER_BYTES as u64;
        let a = &self.inner.arena;
        (a.pread_u64(obj), a.pread_u64(obj + 8))
    }

    /// Number of per-thread slots.
    pub fn threads(&self) -> usize {
        self.inner.nthreads
    }

    #[inline]
    fn cell(&self, thread: usize, domain: usize, class: usize) -> u64 {
        debug_assert!(
            thread < self.inner.nthreads && domain < self.inner.ndomains && class < TOTAL_CLASSES
        );
        let idx = (thread * self.inner.ndomains + domain) * TOTAL_CLASSES + class;
        self.inner.root + (idx as u64) * cell::CELL_BYTES
    }

    #[inline]
    fn is_failed_low32(&self, domain: usize, e: u32) -> bool {
        // Empty in any execution that never crashed: a single predictable
        // branch on the hot path.
        let f = &self.inner.failed_low32[domain];
        !f.is_empty() && f.contains(&e)
    }

    /// Allocates `size` bytes for `thread` during `epoch` of domain 0,
    /// returning the payload offset (16-byte aligned). Performs **no**
    /// write-backs or fences. (Domain-routed form: [`PAlloc::alloc_in`].)
    ///
    /// # Errors
    ///
    /// [`Error::UnsupportedSize`] above the largest class;
    /// [`Error::Pmem`] when the arena is exhausted.
    pub fn alloc(&self, thread: usize, epoch: u64, size: usize) -> Result<u64, Error> {
        self.alloc_in(thread, 0, epoch, size)
    }

    /// Allocates `size` bytes for `thread` under domain `domain`, whose
    /// current epoch is `epoch`. The object comes from (and its undo tags
    /// live on) that domain's timeline; it must be freed back to the same
    /// domain ([`PAlloc::free_in`]).
    ///
    /// # Errors
    ///
    /// As for [`PAlloc::alloc`].
    pub fn alloc_in(
        &self,
        thread: usize,
        domain: usize,
        epoch: u64,
        size: usize,
    ) -> Result<u64, Error> {
        let class = class_for(size).ok_or(Error::UnsupportedSize { size })?;
        self.alloc_class(thread, domain, epoch, class)
    }

    /// Like [`PAlloc::alloc_in`] but the returned payload offset is
    /// 64-byte (cache-line) aligned — used for durable tree nodes, whose
    /// embedded logs rely on exact line placement. Nodes are never freed.
    ///
    /// # Errors
    ///
    /// As for [`PAlloc::alloc`].
    pub fn alloc_aligned64_in(
        &self,
        thread: usize,
        domain: usize,
        epoch: u64,
        size: usize,
    ) -> Result<u64, Error> {
        let class = class_for_aligned64(size).ok_or(Error::UnsupportedSize { size })?;
        let payload = self.alloc_class(thread, domain, epoch, class)?;
        debug_assert_eq!(payload % 64, 0);
        Ok(payload)
    }

    fn alloc_class(
        &self,
        thread: usize,
        domain: usize,
        epoch: u64,
        class: usize,
    ) -> Result<u64, Error> {
        let arena = &self.inner.arena;
        let cell = self.cell(thread, domain, class);
        let mut head = cell::free_head(arena, cell);
        if head == 0 {
            self.refill(thread, domain, class, epoch)?;
            head = cell::free_head(arena, cell);
        }
        // Decode (and crash-repair) the popped object's header to find the
        // next free object.
        let w0 = arena.pread_u64(head);
        let w1 = arena.pread_u64(head + 8);
        let decoded = header::decode(w0, w1, |e| self.is_failed_low32(domain, e));
        cell::set_free_head(arena, cell, epoch, decoded.next);
        arena.stats().add_palloc_alloc();
        Ok(head + HEADER_BYTES as u64)
    }

    /// Returns the object at `payload` (from [`PAlloc::alloc`]) of `size`
    /// bytes to `thread`'s domain-0 pending list. The object becomes
    /// allocatable at the next epoch boundary (epoch-based reclamation).
    /// Performs **no** write-backs or fences.
    ///
    /// # Panics
    ///
    /// Panics if `size` does not map to a class (it must be the size passed
    /// to `alloc`, or any size in the same class).
    pub fn free(&self, thread: usize, epoch: u64, payload: u64, size: usize) {
        self.free_in(thread, 0, epoch, payload, size);
    }

    /// Returns an object to `thread`'s pending list **of domain `domain`**
    /// — the domain it was allocated under; it becomes allocatable at that
    /// domain's next boundary, once the freeing shard's epoch (which also
    /// removed the last reference) can no longer be rolled back.
    ///
    /// # Panics
    ///
    /// As for [`PAlloc::free`].
    pub fn free_in(&self, thread: usize, domain: usize, epoch: u64, payload: u64, size: usize) {
        let class = class_for(size).expect("free of unsupported size");
        self.free_class(thread, domain, epoch, payload, class);
    }

    fn free_class(&self, thread: usize, domain: usize, epoch: u64, payload: u64, class: usize) {
        let arena = &self.inner.arena;
        let cell = self.cell(thread, domain, class);
        let obj = payload - HEADER_BYTES as u64;

        cell::log_pending(arena, cell, epoch);
        let old_head = cell::pend_head(arena, cell);
        self.write_obj_next(obj, old_head, epoch, domain);
        cell::set_pend_head(arena, cell, obj);
        if cell::pend_tail(arena, cell) == 0 {
            cell::set_pend_tail(arena, cell, obj);
        }
        arena.stats().add_palloc_free();
    }

    /// Writes `obj.next := next` with the §5.1 header protocol: the first
    /// modification in `epoch` rewrites both words (log word first, then
    /// current word, same line) with an incremented torn-write counter;
    /// later modifications in the same epoch touch only the current word.
    fn write_obj_next(&self, obj: u64, next: u64, epoch: u64, domain: usize) {
        let arena = &self.inner.arena;
        let e32 = epoch as u32;
        let w0 = arena.pread_u64(obj);
        let w1 = arena.pread_u64(obj + 8);
        let decoded = header::decode(w0, w1, |e| self.is_failed_low32(domain, e));
        if decoded.torn || header::epoch32(w0, w1) != e32 {
            let nc = header::counter(w1).wrapping_add(1) & 3;
            // Log the *crash-repaired* current next, not the raw current
            // word: headers are repaired lazily (decode-time only), so
            // when the previous header write happened in a failed epoch,
            // `ptr(w0)` is exactly the rolled-back value — logging it
            // would resurrect a dead link if this epoch fails too (the
            // undo entry must capture the epoch-start state *as decode
            // defines it*). Harmless garbage only when the object was
            // allocated at epoch start: reverting re-allocates it and
            // nothing follows its next.
            arena.pwrite_u64(obj + 8, header::pack(decoded.next, nc, e32 as u16));
            arena.pwrite_u64_release(obj, header::pack(next, nc, (e32 >> 16) as u16));
            arena.stats().add_incll_alloc();
        } else {
            arena.pwrite_u64_release(
                obj,
                header::pack(next, header::counter(w0), header::epoch16(w0)),
            );
        }
    }

    /// Carves up to `max_objs` (≥ 1) objects of `stride` bytes from
    /// `domain`'s extent chain, returning `(first_object, count)`. The
    /// caller holds the domain's carve lock and logs the watermark move.
    /// When the active extent cannot fit even one object, the next extent
    /// is activated — reserve first, else a fresh claim from the shared
    /// pool — and the frontier jumps to its start (just another watermark
    /// move on the shard's own InCLL timeline).
    fn carve_objects(
        &self,
        domain: usize,
        stride: u64,
        align: u64,
        max_objs: usize,
    ) -> Result<(u64, usize), Error> {
        loop {
            let cur = self.inner.frontier[domain].load(Ordering::Relaxed);
            let limit = self.inner.limit[domain].load(Ordering::Relaxed);
            let aligned = (cur + align - 1) & !(align - 1);
            let fit = limit.saturating_sub(aligned.min(limit)) / stride;
            if fit >= 1 {
                let n = (fit as usize).min(max_objs);
                self.inner.frontier[domain].store(aligned + stride * n as u64, Ordering::Relaxed);
                return Ok((aligned, n));
            }
            self.activate_next_extent(domain, stride)?;
        }
    }

    /// Moves `domain`'s frontier into its next extent: the front of the
    /// reserve chain if one exists (an extent whose claim survived a
    /// crashed epoch, or was queued by an earlier revert), otherwise a
    /// fresh claim of the lowest-index free extent in the shared pool.
    /// Caller holds the domain's carve lock. `OutOfMemory` only when the
    /// pool has no free extent left — the whole arena is exhausted.
    ///
    /// A fresh claim is the one deliberate exception to the flush-free
    /// carve path: the owner byte is CAS'd then clwb+sfence'd inside
    /// [`incll_pmem::superblock::claim_extent`], so the durable claim
    /// always precedes any durable frontier value referencing the extent
    /// (frontiers only persist at checkpoint flushes).
    fn activate_next_extent(&self, domain: usize, stride: u64) -> Result<(), Error> {
        let pool = &self.inner.pool;
        let idx = {
            let mut reserve = self.inner.reserve[domain].lock();
            if reserve.is_empty() {
                self.claim_free_extent(domain, stride)?
            } else {
                reserve.remove(0) as usize
            }
        };
        self.inner.frontier[domain].store(pool.start(idx), Ordering::Relaxed);
        self.inner.limit[domain].store(pool.end(idx), Ordering::Relaxed);
        Ok(())
    }

    /// Claims the lowest-index free extent for `domain`, durably (the
    /// claim CAS flushes itself), and populates it: the page faults of
    /// fresh arena land here, on the path that already pays a fence, and
    /// never on an allocation. Losing a race to another shard just moves
    /// on to the next free index.
    fn claim_free_extent(&self, domain: usize, stride: u64) -> Result<usize, Error> {
        let pool = &self.inner.pool;
        let arena = &self.inner.arena;
        for i in 0..pool.count {
            if superblock::extent_owner(arena, i) == 0 && superblock::claim_extent(arena, i, domain)
            {
                arena.populate(pool.start(i), pool.extent_bytes as usize);
                return Ok(i);
            }
        }
        Err(Error::Pmem(incll_pmem::Error::OutOfMemory {
            requested: stride as usize,
            capacity: (pool.extent_bytes * pool.count as u64) as usize,
        }))
    }

    /// Carves a fresh slab for (thread, domain, class) and chains it onto
    /// the free list, InCLL-logging the owning frontier's watermark move
    /// on the domain's own epoch timeline — no write-backs, no fences; a
    /// crash in a failed epoch rolls the frontier back and the slab
    /// un-carves.
    fn refill(&self, thread: usize, domain: usize, class: usize, epoch: u64) -> Result<(), Error> {
        let arena = &self.inner.arena;
        let stride = classes::stride(class) as u64;
        let head_off = classes::header_off_in_stride(class) as u64;
        let align = if classes::is_aligned64(class) {
            64u64
        } else {
            16
        };
        let (slab, objs) = {
            let _g = self.inner.carve_locks[domain].lock();
            // Extents may be smaller than a full slab of the largest
            // class; carve whatever fits (at least one object) so small
            // pools never strand extent tails.
            let carved = self.carve_objects(domain, stride, align, SLAB_OBJECTS)?;
            let new_frontier = self.inner.frontier[domain].load(Ordering::Relaxed);
            // InCLL-log the domain's durable watermark on its first move
            // this epoch (the paper's flush-free protocol, per shard: the
            // triple shares one cache line and the epoch tag lives on the
            // carving shard's own timeline).
            if arena.pread_u64(superblock::shard_bump_epoch_off(domain)) != epoch {
                let old = arena.pread_u64(superblock::shard_bump_off(domain));
                arena.pwrite_u64(superblock::shard_bump_incll_off(domain), old);
                arena.pwrite_u64_release(superblock::shard_bump_epoch_off(domain), epoch);
                arena.stats().add_incll_alloc();
            }
            arena.pwrite_u64_release(superblock::shard_bump_off(domain), new_frontier);
            carved
        };
        // Chain the fresh objects: slab[i].next = slab[i+1]; the last one
        // points at the current free head. Fresh headers need no logging:
        // a crash reverts the head swing and the slab is unreachable.
        let cell = self.cell(thread, domain, class);
        let cur_head = cell::free_head(arena, cell);
        let e32 = epoch as u32;
        for i in 0..objs {
            let obj = slab + (i as u64) * stride + head_off;
            let next = if i + 1 < objs { obj + stride } else { cur_head };
            arena.pwrite_u64(obj + 8, header::pack(0, 1, e32 as u16));
            arena.pwrite_u64(obj, header::pack(next, 1, (e32 >> 16) as u16));
        }
        cell::set_free_head(arena, cell, epoch, slab + head_off);
        Ok(())
    }

    /// Domain-0 epoch-boundary hook; see [`PAlloc::on_domain_boundary`].
    pub fn on_epoch_boundary(&self, new_epoch: u64) {
        self.on_domain_boundary(0, new_epoch);
    }

    /// Epoch-boundary hook for domain `domain`: splices every one of its
    /// pending lists onto the matching free list, making objects freed in
    /// the domain's finished epoch allocatable. Runs while the domain's
    /// threads are quiesced; all writes are InCLL-logged under
    /// `new_epoch`, so a crash mid-epoch reverts the splice and the
    /// objects simply wait in pending — never leaked. Other domains'
    /// pending lists (whose frees may still roll back) are untouched.
    pub fn on_domain_boundary(&self, domain: usize, new_epoch: u64) {
        let arena = &self.inner.arena;
        for t in 0..self.inner.nthreads {
            for c in 0..TOTAL_CLASSES {
                let cell = self.cell(t, domain, c);
                let phead = cell::pend_head(arena, cell);
                if phead == 0 {
                    continue;
                }
                let ptail = cell::pend_tail(arena, cell);
                debug_assert_ne!(ptail, 0, "pending list with head but no tail");
                let fhead = cell::free_head(arena, cell);
                // tail.next := old free head (tail was the oldest pending).
                self.write_obj_next(ptail, fhead, new_epoch, domain);
                cell::set_free_head(arena, cell, new_epoch, phead);
                cell::log_pending(arena, cell, new_epoch);
                cell::set_pend_head(arena, cell, 0);
                cell::set_pend_tail(arena, cell, 0);
            }
        }
    }

    /// Failed-epoch-set **compaction sweep** for `domain`, run inside the
    /// domain's advance (quiesced, pre-flush): rewrites the header of
    /// every object reachable from the domain's free and pending lists so
    /// it is tagged with the current (`epoch`) timeline position instead
    /// of any historic epoch. After the checkpoint flush that follows, no
    /// durable list-reachable header can need a rollback keyed to an
    /// older failed epoch, so those entries may be pruned
    /// ([`incll_pmem::superblock::prune_failed_epochs`]).
    ///
    /// Objects *not* on any list (live allocations) may keep stale tags:
    /// their next header write re-logs from the decoded state, and a
    /// stale undo value only survives into a list when the push that
    /// wrote it is itself rolled back — which re-orphans the object.
    pub fn normalize_lists(&self, domain: usize, epoch: u64) {
        let arena = &self.inner.arena;
        let e32 = epoch as u32;
        for t in 0..self.inner.nthreads {
            for c in 0..TOTAL_CLASSES {
                let cell = self.cell(t, domain, c);
                for head in [cell::free_head(arena, cell), cell::pend_head(arena, cell)] {
                    let mut cur = head;
                    let mut hops = 0usize;
                    while cur != 0 {
                        let w0 = arena.pread_u64(cur);
                        let w1 = arena.pread_u64(cur + 8);
                        let decoded = header::decode(w0, w1, |e| self.is_failed_low32(domain, e));
                        if decoded.torn || header::epoch32(w0, w1) != e32 {
                            self.write_obj_next(cur, decoded.next, epoch, domain);
                        }
                        cur = decoded.next;
                        hops += 1;
                        assert!(hops <= 10_000_000, "list cycle during normalization");
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for PAlloc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PAlloc")
            .field("threads", &self.inner.nthreads)
            .field("domains", &self.inner.ndomains)
            .field("classes", &TOTAL_CLASSES)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(nthreads: usize) -> (PArena, PAlloc) {
        let arena = PArena::builder().capacity_bytes(8 << 20).build().unwrap();
        superblock::format(&arena);
        let alloc = PAlloc::create(&arena, nthreads).unwrap();
        (arena, alloc)
    }

    /// Recovery's two stages, as `Store::open` runs them: rebuild the
    /// handle, then repair each domain under its new execution epoch.
    fn reopen(arena: &PArena, exec_epochs: &[u64]) -> PAlloc {
        let alloc = PAlloc::open_staged(arena, exec_epochs.len());
        for (d, &exec) in exec_epochs.iter().enumerate() {
            alloc.recover_domain(d, exec);
        }
        alloc
    }

    /// The objects on `(thread, domain, class)`'s free list, decoded the
    /// way `alloc` decodes them.
    fn free_list(alloc: &PAlloc, thread: usize, domain: usize, class: usize) -> Vec<u64> {
        let head = cell::free_head(&alloc.inner.arena, alloc.cell(thread, domain, class));
        walk(alloc, domain, head)
    }

    /// The objects on `(thread, domain, class)`'s pending list.
    fn pending_list(alloc: &PAlloc, thread: usize, domain: usize, class: usize) -> Vec<u64> {
        let head = cell::pend_head(&alloc.inner.arena, alloc.cell(thread, domain, class));
        walk(alloc, domain, head)
    }

    fn walk(alloc: &PAlloc, domain: usize, mut cur: u64) -> Vec<u64> {
        let arena = &alloc.inner.arena;
        let mut out = Vec::new();
        while cur != 0 {
            out.push(cur);
            let (w0, w1) = (arena.pread_u64(cur), arena.pread_u64(cur + 8));
            cur = header::decode(w0, w1, |e| alloc.is_failed_low32(domain, e)).next;
            assert!(out.len() <= 1_000_000, "list cycle detected");
        }
        out
    }

    fn tracked(nthreads: usize) -> (PArena, PAlloc) {
        let arena = PArena::builder()
            .capacity_bytes(8 << 20)
            .tracked(true)
            .build()
            .unwrap();
        superblock::format(&arena);
        let alloc = PAlloc::create(&arena, nthreads).unwrap();
        arena.global_flush(); // creation state is durable
        (arena, alloc)
    }

    #[test]
    fn alloc_returns_aligned_distinct_payloads() {
        let (_a, alloc) = fresh(1);
        let x = alloc.alloc(0, 1, 32).unwrap();
        let y = alloc.alloc(0, 1, 32).unwrap();
        assert_ne!(x, y);
        assert_eq!(x % 16, 0);
        assert_eq!(y % 16, 0);
    }

    #[test]
    fn alloc_rejects_oversize() {
        let (_a, alloc) = fresh(1);
        assert!(matches!(
            alloc.alloc(0, 1, 1 << 20),
            Err(Error::UnsupportedSize { .. })
        ));
    }

    #[test]
    fn freed_object_not_reused_same_epoch() {
        let (_a, alloc) = fresh(1);
        let x = alloc.alloc(0, 1, 32).unwrap();
        alloc.free(0, 1, x, 32);
        // Same epoch: x sits in pending, a new alloc must not return it.
        let y = alloc.alloc(0, 1, 32).unwrap();
        assert_ne!(x, y);
        assert_eq!(pending_list(&alloc, 0, 0, class_for(32).unwrap()).len(), 1);
    }

    #[test]
    fn freed_object_reused_after_boundary() {
        let (_a, alloc) = fresh(1);
        let x = alloc.alloc(0, 1, 32).unwrap();
        alloc.free(0, 1, x, 32);
        alloc.on_epoch_boundary(2);
        assert!(pending_list(&alloc, 0, 0, class_for(32).unwrap()).is_empty());
        // Spliced to the head: the next alloc returns it.
        let y = alloc.alloc(0, 2, 32).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn splice_preserves_all_objects() {
        let (_a, alloc) = fresh(1);
        let class = class_for(32).unwrap();
        let objs: Vec<u64> = (0..10).map(|_| alloc.alloc(0, 1, 32).unwrap()).collect();
        let before_free = free_list(&alloc, 0, 0, class).len();
        for &o in &objs {
            alloc.free(0, 1, o, 32);
        }
        alloc.on_epoch_boundary(2);
        let after = free_list(&alloc, 0, 0, class).len();
        assert_eq!(after, before_free + 10);
    }

    #[test]
    fn classes_are_segregated() {
        let (_a, alloc) = fresh(1);
        let x = alloc.alloc(0, 1, 32).unwrap();
        let y = alloc.alloc(0, 1, 320).unwrap();
        alloc.free(0, 1, x, 32);
        alloc.free(0, 1, y, 320);
        assert_eq!(pending_list(&alloc, 0, 0, class_for(32).unwrap()).len(), 1);
        assert_eq!(pending_list(&alloc, 0, 0, class_for(320).unwrap()).len(), 1);
    }

    #[test]
    fn threads_have_independent_lists() {
        let (_a, alloc) = fresh(2);
        let x = alloc.alloc(0, 1, 32).unwrap();
        // Cross-thread free: object migrates to thread 1's pending list.
        alloc.free(1, 1, x, 32);
        assert_eq!(pending_list(&alloc, 1, 0, class_for(32).unwrap()).len(), 1);
        assert!(pending_list(&alloc, 0, 0, class_for(32).unwrap()).is_empty());
    }

    #[test]
    fn no_flushes_on_alloc_free_path() {
        let (arena, alloc) = fresh(1);
        // Warm up so the slab carve (which logs the watermark durably) is
        // out of the way.
        let warm = alloc.alloc(0, 1, 32).unwrap();
        alloc.free(0, 1, warm, 32);
        let base = arena.stats().snapshot();
        for i in 0..50 {
            let x = alloc.alloc(0, 1, 32).unwrap();
            if i % 2 == 0 {
                alloc.free(0, 1, x, 32);
            }
        }
        let d = arena.stats().snapshot().delta(&base);
        assert_eq!(d.clwb, 0, "allocation path must not write back");
        assert_eq!(d.sfence, 0, "allocation path must not fence");
    }

    #[test]
    fn stats_count_allocs_and_frees() {
        let (arena, alloc) = fresh(1);
        let x = alloc.alloc(0, 1, 32).unwrap();
        alloc.free(0, 1, x, 32);
        assert_eq!(arena.stats().palloc_allocs(), 1);
        assert_eq!(arena.stats().palloc_frees(), 1);
    }

    // ---------------- crash tests ----------------

    #[test]
    fn crash_reverts_allocations_to_epoch_start() {
        let (arena, alloc) = tracked(1);
        let class = class_for(32).unwrap();
        // Epoch 1: warm the free list, then checkpoint.
        let warm = alloc.alloc(0, 1, 32).unwrap();
        alloc.free(0, 1, warm, 32);
        arena.pwrite_u64(superblock::domain_cur_epoch_off(0), 2);
        arena.global_flush();
        alloc.on_epoch_boundary(2);
        let free_before: Vec<u64> = free_list(&alloc, 0, 0, class);

        // Epoch 2: allocate a few objects, then crash.
        for _ in 0..3 {
            alloc.alloc(0, 2, 32).unwrap();
        }
        superblock::record_failed_epoch_for(&arena, 0, 2).unwrap();
        arena.crash_seeded(11);

        let alloc2 = reopen(&arena, &[3]);
        let free_after = free_list(&alloc2, 0, 0, class);
        assert_eq!(
            free_after, free_before,
            "free list must revert to the epoch-2 start state"
        );
    }

    #[test]
    fn crash_reverts_frees_without_leaking() {
        let (arena, alloc) = tracked(1);
        let class = class_for(32).unwrap();
        let x = alloc.alloc(0, 1, 32).unwrap();
        arena.pwrite_u64(superblock::domain_cur_epoch_off(0), 2);
        arena.global_flush();
        alloc.on_epoch_boundary(2);
        let free_before = free_list(&alloc, 0, 0, class);

        // Epoch 2: free x, crash before the boundary.
        alloc.free(0, 2, x, 32);
        superblock::record_failed_epoch_for(&arena, 0, 2).unwrap();
        arena.crash_seeded(5);

        let alloc2 = reopen(&arena, &[3]);
        // x reverts to "allocated": neither free nor pending.
        let obj = x - HEADER_BYTES as u64;
        assert!(!free_list(&alloc2, 0, 0, class).contains(&obj));
        assert!(pending_list(&alloc2, 0, 0, class).is_empty());
        assert_eq!(free_list(&alloc2, 0, 0, class), free_before);
    }

    #[test]
    fn crash_preserves_completed_epoch_frees() {
        let (arena, alloc) = tracked(1);
        let class = class_for(32).unwrap();
        let x = alloc.alloc(0, 1, 32).unwrap();
        alloc.free(0, 1, x, 32); // freed in epoch 1 (completes below)
        arena.pwrite_u64(superblock::domain_cur_epoch_off(0), 2);
        arena.global_flush(); // checkpoint: epoch 1 completed
        alloc.on_epoch_boundary(2);

        // Epoch 2 does nothing; crash.
        superblock::record_failed_epoch_for(&arena, 0, 2).unwrap();
        arena.crash_seeded(6);

        let alloc2 = reopen(&arena, &[3]);
        // The splice happened in epoch 2 and was rolled back, so x sits in
        // pending after recovery... and open() re-splices it into free.
        let obj = x - HEADER_BYTES as u64;
        assert!(
            free_list(&alloc2, 0, 0, class).contains(&obj),
            "object freed in a completed epoch must be allocatable"
        );
        // And it is reusable.
        let y = alloc2.alloc(0, 3, 32).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn crash_reverts_watermark() {
        let (arena, alloc) = tracked(1);
        arena.pwrite_u64(superblock::domain_cur_epoch_off(0), 2);
        arena.global_flush();
        let wm_before = arena.pread_u64(superblock::shard_bump_off(0));

        // Epoch 2: force slab carving in a class never touched before.
        let doomed = alloc.alloc(0, 2, 320).unwrap();
        assert!(arena.pread_u64(superblock::shard_bump_off(0)) > wm_before);
        superblock::record_failed_epoch_for(&arena, 0, 2).unwrap();
        arena.crash_seeded(7);

        let alloc2 = reopen(&arena, &[3]);
        assert_eq!(
            arena.pread_u64(superblock::shard_bump_off(0)),
            wm_before,
            "the shard's durable frontier must revert to its epoch-start value"
        );
        // The doomed slab un-carved inside its extent: the same space is
        // handed out again.
        assert_eq!(alloc2.alloc(0, 3, 320).unwrap(), doomed);
        let (s, e) = alloc2.owned_extents(0)[0];
        assert!(s <= doomed && doomed < e);
    }

    #[test]
    fn exhaustive_crash_cuts_keep_lists_consistent() {
        // For a workload of allocs + frees in one failed epoch, every
        // seeded crash must recover the exact epoch-start free list.
        for seed in 0..25u64 {
            let (arena, alloc) = tracked(1);
            let class = class_for(32).unwrap();
            let a = alloc.alloc(0, 1, 32).unwrap();
            let b = alloc.alloc(0, 1, 32).unwrap();
            alloc.free(0, 1, a, 32);
            arena.pwrite_u64(superblock::domain_cur_epoch_off(0), 2);
            arena.global_flush();
            alloc.on_epoch_boundary(2);
            let baseline = free_list(&alloc, 0, 0, class);

            // Epoch 2 churn: alloc 2, free b, alloc 1.
            let _c = alloc.alloc(0, 2, 32).unwrap();
            let _d = alloc.alloc(0, 2, 32).unwrap();
            alloc.free(0, 2, b, 32);
            let _e = alloc.alloc(0, 2, 32).unwrap();

            superblock::record_failed_epoch_for(&arena, 0, 2).unwrap();
            arena.crash_seeded(seed);
            let alloc2 = reopen(&arena, &[3]);
            assert_eq!(
                free_list(&alloc2, 0, 0, class),
                baseline,
                "seed {seed}: free list must match epoch-2 start"
            );
            assert!(pending_list(&alloc2, 0, 0, class).is_empty());
        }
    }

    #[test]
    fn double_crash_recovery_is_idempotent() {
        let (arena, alloc) = tracked(1);
        let class = class_for(32).unwrap();
        let a = alloc.alloc(0, 1, 32).unwrap();
        alloc.free(0, 1, a, 32);
        arena.pwrite_u64(superblock::domain_cur_epoch_off(0), 2);
        arena.global_flush();
        alloc.on_epoch_boundary(2);
        let baseline = free_list(&alloc, 0, 0, class);

        alloc.alloc(0, 2, 32).unwrap();
        superblock::record_failed_epoch_for(&arena, 0, 2).unwrap();
        arena.crash_seeded(1);
        // First recovery starts, then crashes again before any checkpoint.
        let alloc2 = reopen(&arena, &[3]);
        alloc2.alloc(0, 3, 32).unwrap();
        superblock::record_failed_epoch_for(&arena, 0, 3).unwrap();
        arena.crash_seeded(2);
        let alloc3 = reopen(&arena, &[4]);
        assert_eq!(free_list(&alloc3, 0, 0, class), baseline);
    }

    #[test]
    fn aligned64_allocations_are_cache_line_aligned() {
        let (_a, alloc) = fresh(1);
        for _ in 0..100 {
            let p = alloc.alloc_aligned64_in(0, 0, 1, 320).unwrap();
            assert_eq!(p % 64, 0, "node payload must start a cache line");
        }
    }

    #[test]
    fn aligned64_and_normal_classes_never_collide() {
        let (_a, alloc) = fresh(1);
        let a = alloc.alloc(0, 1, 320).unwrap(); // normal 320 class
        let b = alloc.alloc_aligned64_in(0, 0, 1, 320).unwrap(); // aligned class
        assert_ne!(a, b);
        // Objects from different classes never overlap.
        assert!(b + 320 <= a || a + 320 <= b);
    }

    #[test]
    fn aligned64_crash_revert() {
        let (arena, alloc) = tracked(1);
        let class = class_for_aligned64(320).unwrap();
        alloc.alloc_aligned64_in(0, 0, 1, 320).unwrap(); // carves the slab
        arena.pwrite_u64(superblock::domain_cur_epoch_off(0), 2);
        arena.global_flush();
        alloc.on_epoch_boundary(2);
        let baseline = free_list(&alloc, 0, 0, class);
        for _ in 0..5 {
            alloc.alloc_aligned64_in(0, 0, 2, 320).unwrap();
        }
        superblock::record_failed_epoch_for(&arena, 0, 2).unwrap();
        arena.crash_seeded(9);
        let alloc2 = reopen(&arena, &[3]);
        assert_eq!(free_list(&alloc2, 0, 0, class), baseline);
    }

    #[test]
    fn crash_chain_never_resurrects_live_objects() {
        // Regression for a stale-undo-log bug: object headers are repaired
        // lazily (decode-time only), so the first-modification log must
        // capture the *decoded* next, not the raw current word — the raw
        // word may itself be a rolled-back value from an earlier failed
        // epoch, and re-logging it can splice a live object back onto a
        // free list two crashes later. Seen in the wild as a committed
        // key's value buffer being handed out to another key after a
        // chain of (doomed churn, crash, recover, committed churn) rounds.
        use std::collections::HashSet;

        for seed in 0..10u64 {
            let (arena, mut alloc) = tracked(1);
            let class = class_for(32).unwrap();
            let mut rng_state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut rng = move || {
                rng_state ^= rng_state << 13;
                rng_state ^= rng_state >> 7;
                rng_state ^= rng_state << 17;
                rng_state
            };

            // live = allocated objects the "application" still references.
            let mut live: Vec<u64> = Vec::new();
            let mut epoch = 1u64;
            for _ in 0..4 {
                live.push(alloc.alloc(0, epoch, 32).unwrap());
            }
            // Checkpoint the initial state.
            epoch += 1;
            arena.pwrite_u64(superblock::domain_cur_epoch_off(0), epoch);
            arena.global_flush();
            alloc.on_epoch_boundary(epoch);
            let mut checkpoint = live.clone();

            for round in 0..8u64 {
                // "Clean restart": the uniform open-equals-recover protocol
                // records the current (empty) epoch as failed and
                // re-splices pendings under the next one — the pattern the
                // full system produces on every reopen.
                superblock::record_failed_epoch_for(&arena, 0, epoch).unwrap();
                epoch += 1;
                alloc = reopen(&arena, &[epoch]);

                // Doomed churn: allocs and frees that the crash must undo.
                let mut doomed_live = live.clone();
                for _ in 0..(rng() % 8 + 1) {
                    if rng() % 2 == 0 || doomed_live.is_empty() {
                        doomed_live.push(alloc.alloc(0, epoch, 32).unwrap());
                    } else {
                        let at = (rng() as usize) % doomed_live.len();
                        alloc.free(0, epoch, doomed_live.swap_remove(at), 32);
                    }
                }
                superblock::record_failed_epoch_for(&arena, 0, epoch).unwrap();
                arena.crash_seeded(seed * 100 + round);

                epoch += 1;
                alloc = reopen(&arena, &[epoch]);
                live = checkpoint.clone();

                // Invariant: nothing the application still references may
                // appear on the repaired free or pending lists.
                let live_objs: HashSet<u64> =
                    live.iter().map(|p| p - HEADER_BYTES as u64).collect();
                let mut seen = HashSet::new();
                for obj in free_list(&alloc, 0, 0, class)
                    .into_iter()
                    .chain(pending_list(&alloc, 0, 0, class))
                {
                    assert!(
                        !live_objs.contains(&obj),
                        "seed {seed} round {round}: live object {obj:#x} resurrected"
                    );
                    assert!(
                        seen.insert(obj),
                        "seed {seed} round {round}: object {obj:#x} listed twice"
                    );
                }

                // Committed churn, then a checkpoint.
                for _ in 0..(rng() % 6 + 1) {
                    if rng() % 2 == 0 || live.is_empty() {
                        live.push(alloc.alloc(0, epoch, 32).unwrap());
                    } else {
                        let at = (rng() as usize) % live.len();
                        alloc.free(0, epoch, live.swap_remove(at), 32);
                    }
                }
                epoch += 1;
                arena.pwrite_u64(superblock::domain_cur_epoch_off(0), epoch);
                arena.global_flush();
                alloc.on_epoch_boundary(epoch);
                checkpoint = live.clone();
            }
        }
    }

    // ---------------- epoch domains ----------------

    fn tracked_sharded(nthreads: usize, ndomains: usize) -> (PArena, PAlloc) {
        let arena = PArena::builder()
            .capacity_bytes(8 << 20)
            .tracked(true)
            .build()
            .unwrap();
        superblock::format(&arena);
        let alloc = PAlloc::create_sharded(&arena, nthreads, ndomains).unwrap();
        arena.global_flush(); // creation state is durable
        (arena, alloc)
    }

    #[test]
    fn domains_have_independent_lists() {
        let arena = PArena::builder().capacity_bytes(8 << 20).build().unwrap();
        superblock::format(&arena);
        let alloc = PAlloc::create_sharded(&arena, 1, 2).unwrap();
        let x = alloc.alloc_in(0, 0, 1, 32).unwrap();
        let y = alloc.alloc_in(0, 1, 5, 32).unwrap();
        assert_ne!(x, y);
        alloc.free_in(0, 0, 1, x, 32);
        alloc.free_in(0, 1, 5, y, 32);
        assert_eq!(pending_list(&alloc, 0, 0, class_for(32).unwrap()).len(), 1);
        assert_eq!(pending_list(&alloc, 0, 1, class_for(32).unwrap()).len(), 1);
        // Only domain 1's boundary splices domain 1's pendings.
        alloc.on_domain_boundary(1, 6);
        assert_eq!(pending_list(&alloc, 0, 0, class_for(32).unwrap()).len(), 1);
        assert!(pending_list(&alloc, 0, 1, class_for(32).unwrap()).is_empty());
        assert_eq!(alloc.alloc_in(0, 1, 6, 32).unwrap(), y, "spliced -> reused");
    }

    #[test]
    fn domain_crash_reverts_only_that_domains_lists() {
        // Both domains warm their lists, checkpoint at their own (different)
        // epochs, then domain 1 churns in a doomed epoch and crashes.
        // Domain 1's pops revert to its boundary; domain 0 is untouched.
        let (arena, alloc) = tracked_sharded(1, 2);
        let class = class_for(32).unwrap();
        let keep = alloc.alloc_in(0, 0, 1, 32).unwrap();
        // Warm domain 1's free list inside its epoch 5.
        let w = alloc.alloc_in(0, 1, 5, 32).unwrap();
        alloc.free_in(0, 1, 5, w, 32);
        // Both domains complete a checkpoint (the test flushes everything:
        // a superset of the scoped flush, always legal).
        arena.pwrite_u64(superblock::domain_cur_epoch_off(0), 2);
        arena.pwrite_u64(superblock::domain_cur_epoch_off(1), 6);
        arena.global_flush();
        alloc.on_domain_boundary(0, 2);
        alloc.on_domain_boundary(1, 6);
        let d0_free = free_list(&alloc, 0, 0, class);
        // The boundary splices above ran *after* the flush (tags epoch
        // 2/6), mirroring the real advance; flush again so the spliced
        // state is the durable baseline.
        arena.global_flush();
        let d1_free = free_list(&alloc, 0, 1, class);

        // Domain 1 churns in its (doomed) epoch 6, then crashes.
        alloc.alloc_in(0, 1, 6, 32).unwrap();
        alloc.alloc_in(0, 1, 6, 32).unwrap();
        superblock::record_failed_epoch_for(&arena, 1, 6).unwrap();
        arena.crash_seeded(21);

        let alloc2 = reopen(&arena, &[3, 7]);
        assert_eq!(
            free_list(&alloc2, 0, 0, class),
            d0_free,
            "domain 0 must keep its completed state"
        );
        assert_eq!(
            free_list(&alloc2, 0, 1, class),
            d1_free,
            "domain 1 must revert to its own boundary"
        );
        // And the kept domain-0 object is still absent from every list.
        let keep_obj = keep - HEADER_BYTES as u64;
        assert!(!free_list(&alloc2, 0, 0, class).contains(&keep_obj));
        assert!(!free_list(&alloc2, 0, 1, class).contains(&keep_obj));
    }

    #[test]
    fn multi_domain_extents_are_disjoint_and_every_domain_owns_one() {
        let (_arena, alloc) = tracked_sharded(2, 4);
        let (base, ext, count) = alloc.extent_pool();
        assert!(ext.is_power_of_two());
        assert_eq!(base % 64, 0);
        assert!(count >= 4, "pool must fit one extent per domain");
        // Create eagerly claimed one extent per domain; no overlap.
        let mut seen = Vec::new();
        for d in 0..4 {
            let owned = alloc.owned_extents(d);
            assert_eq!(owned.len(), 1, "domain {d} starts with one extent");
            for &(s, e) in &owned {
                assert!(s < e && e - s == ext);
                for &(s2, e2) in &seen {
                    assert!(e <= s2 || s >= e2, "extents must not overlap");
                }
            }
            seen.extend(owned);
        }
        // Allocations land inside an extent owned by their own domain.
        for d in 0..4 {
            let p = alloc.alloc_in(0, d, 1, 32).unwrap();
            assert!(
                alloc
                    .owned_extents(d)
                    .iter()
                    .any(|&(s, e)| p >= s && p + 32 <= e),
                "domain {d} payload outside its owned extents"
            );
        }
    }

    #[test]
    fn one_domain_allocator_owns_a_pool_and_claims_from_it() {
        let (arena, alloc) = fresh(1);
        let (base, ext, count) = alloc.extent_pool();
        assert!(ext.is_power_of_two() && count >= 2);
        assert_eq!(alloc.owned_extents(0), vec![(base, base + ext)]);
        // The pool took the rest of the arena: nothing else can carve.
        assert_eq!(arena.bump(), base + ext * count as u64);
        // Exhausting the first extent claims the next one online.
        while alloc.owned_extents(0).len() == 1 {
            alloc.alloc(0, 1, 4096).unwrap();
        }
        assert_eq!(
            alloc.owned_extents(0),
            vec![(base, base + ext), (base + ext, base + 2 * ext)]
        );
    }

    #[test]
    fn multi_domain_carve_path_is_flush_free() {
        // The frontier is InCLL-logged per shard: not a single fence or
        // write-back on the carve path.
        let (arena, alloc) = tracked_sharded(1, 2);
        let base = arena.stats().snapshot();
        alloc.alloc_in(0, 0, 1, 320).unwrap(); // forces a slab carve
        alloc.alloc_in(0, 1, 5, 700).unwrap(); // and on the other shard
        let d = arena.stats().snapshot().delta(&base);
        assert_eq!(d.clwb, 0, "carve path must not write back");
        assert_eq!(d.sfence, 0, "carve path must not fence");
    }

    #[test]
    fn multi_domain_watermark_reverts_and_doomed_slabs_uncarve() {
        let (arena, alloc) = tracked_sharded(1, 2);
        // Checkpoint both domains at their own epochs.
        arena.pwrite_u64(superblock::domain_cur_epoch_off(0), 2);
        arena.pwrite_u64(superblock::domain_cur_epoch_off(1), 6);
        arena.global_flush();
        let wm0 = arena.pread_u64(superblock::shard_bump_off(0));
        let wm1 = arena.pread_u64(superblock::shard_bump_off(1));

        // Domain 1 carves slabs in its doomed epoch 6; domain 0 carves in
        // its epoch 2, which will complete.
        alloc.alloc_in(0, 1, 6, 320).unwrap();
        alloc.alloc_in(0, 1, 6, 700).unwrap();
        alloc.alloc_in(0, 0, 2, 320).unwrap();
        arena.pwrite_u64(superblock::domain_cur_epoch_off(0), 3);
        arena.global_flush(); // domain 0's epoch 2 completes (superset flush)
        let wm0_after = arena.pread_u64(superblock::shard_bump_off(0));
        assert!(wm0_after > wm0, "domain 0's frontier moved");

        superblock::record_failed_epoch_for(&arena, 1, 6).unwrap();
        arena.crash_seeded(3);
        let alloc2 = reopen(&arena, &[4, 7]);
        assert_eq!(
            arena.pread_u64(superblock::shard_bump_off(1)),
            wm1,
            "doomed domain-1 slabs must un-carve (frontier reverts)"
        );
        assert_eq!(
            arena.pread_u64(superblock::shard_bump_off(0)),
            wm0_after,
            "domain 0's completed carve must survive"
        );
        // The reverted frontier hands the same space out again, inside an
        // extent domain 1 owns.
        let p = alloc2.alloc_in(0, 1, 7, 320).unwrap();
        assert!(
            alloc2
                .owned_extents(1)
                .iter()
                .any(|&(s, e)| p >= s && p < e),
            "reused space must sit in a domain-1 extent"
        );
    }

    #[test]
    fn hot_domain_grows_across_the_pool_before_out_of_memory() {
        // A hot domain claims free extents until the *pool* is empty — far
        // more than a static 1/ndomains share — and the error is typed.
        // The cold sibling keeps allocating from its own extent afterwards.
        let arena = PArena::builder().capacity_bytes(8 << 20).build().unwrap();
        superblock::format(&arena);
        let alloc = PAlloc::create_sharded(&arena, 1, 2).unwrap();
        let (_base, ext, count) = alloc.extent_pool();
        let stride = classes::stride(class_for(4096).unwrap()) as u64;
        let mut got = 0u64;
        let err = loop {
            match alloc.alloc_in(0, 0, 1, 4096) {
                Ok(_) => got += 1,
                Err(e) => break e,
            }
        };
        assert!(matches!(
            err,
            Error::Pmem(incll_pmem::Error::OutOfMemory { .. })
        ));
        // Domain 0 ends up owning every extent except domain 1's.
        assert_eq!(alloc.owned_extents(0).len(), count - 1);
        let static_share = ext * count as u64 / 2;
        assert!(
            got * stride > static_share,
            "hot domain must outgrow its old static share (got {got} objects)"
        );
        // The sibling domain still has its own extent.
        alloc.alloc_in(0, 1, 1, 4096).unwrap();
    }

    #[test]
    fn doomed_epoch_claim_survives_as_reserve_and_is_reused() {
        // A crash after a durable extent claim whose first carve belonged
        // to a failed epoch: the frontier reverts out of the extent, the
        // owner byte stays (claims are never torn and never released), and
        // recovery queues the extent as reserve — reused before any fresh
        // claim, so the owner table is byte-stable across the reuse. The
        // same on an allocator's only domain as on one of several.
        for (ndomains, d) in [(1usize, 0usize), (4, 1)] {
            let (arena, alloc) = tracked_sharded(1, ndomains);
            for dom in 0..ndomains {
                arena.pwrite_u64(superblock::domain_cur_epoch_off(dom), 6);
            }
            arena.global_flush();
            let owned_before = alloc.owned_extents(d).len();
            let wm = arena.pread_u64(superblock::shard_bump_off(d));
            let owners = |arena: &PArena| -> Vec<u8> {
                (0..alloc.extent_pool().2)
                    .map(|i| superblock::extent_owner(arena, i))
                    .collect()
            };

            // Burn through the domain's active extent in its doomed epoch 6
            // until a fresh claim fires.
            while alloc.owned_extents(d).len() == owned_before {
                alloc.alloc_in(0, d, 6, 4096).unwrap();
            }
            let owners_after_claim = owners(&arena);
            superblock::record_failed_epoch_for(&arena, d, 6).unwrap();
            arena.crash_seeded(11);

            let alloc2 = reopen(&arena, &vec![7; ndomains]);
            // Frontier reverted out of the claimed extent...
            assert_eq!(arena.pread_u64(superblock::shard_bump_off(d)), wm);
            // ...but the claim itself survived (flushed at claim time).
            assert_eq!(owners(&arena), owners_after_claim, "claims are never torn");
            assert_eq!(alloc2.owned_extents(d).len(), owned_before + 1);

            // Refilling the domain again reuses the reserve extent — the
            // owner table does not change.
            while arena.pread_u64(superblock::shard_bump_off(d)) == wm {
                alloc2.alloc_in(0, d, 7, 4096).unwrap();
            }
            for _ in 0..400 {
                alloc2.alloc_in(0, d, 7, 4096).unwrap();
            }
            assert_eq!(
                owners(&arena),
                owners_after_claim,
                "ndomains={ndomains}: reserve extents must be consumed before any fresh claim"
            );
        }
    }

    #[test]
    fn normalize_lists_retags_reachable_headers() {
        let (arena, alloc) = tracked_sharded(1, 2);
        let class = class_for(32).unwrap();
        // Build a free list whose headers are tagged with epoch 1, plus a
        // pending object tagged epoch 2.
        let a = alloc.alloc_in(0, 1, 1, 32).unwrap();
        alloc.free_in(0, 1, 2, a, 32);
        alloc.normalize_lists(1, 9);
        for obj in free_list(&alloc, 0, 1, class)
            .into_iter()
            .chain(pending_list(&alloc, 0, 1, class))
        {
            let w0 = arena.pread_u64(obj);
            let w1 = arena.pread_u64(obj + 8);
            assert_eq!(
                header::epoch32(w0, w1),
                9,
                "every reachable header must carry the sweep epoch"
            );
        }
        // Lists are structurally unchanged by normalization.
        assert_eq!(pending_list(&alloc, 0, 1, class).len(), 1);
    }

    #[test]
    fn concurrent_threads_allocate_independently() {
        let (_arena, alloc) = fresh(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let alloc = alloc.clone();
                s.spawn(move || {
                    let mut got = Vec::new();
                    for _ in 0..200 {
                        got.push(alloc.alloc(t, 1, 32).unwrap());
                    }
                    got.sort_unstable();
                    got.dedup();
                    assert_eq!(got.len(), 200, "duplicate allocation");
                    for &g in &got {
                        alloc.free(t, 1, g, 32);
                    }
                });
            }
        });
    }
}
