use std::ffi::{c_int, c_void};
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::journal::Journal;
pub use crate::journal::DOMAIN_SHARED;
use crate::latency::{spin_ns, LatencyModel};
use crate::stats::Stats;
use crate::superblock;
use crate::{Error, Result};

/// Cache-line size assumed throughout the system, in bytes.
pub const CACHE_LINE: usize = 64;

std::thread_local! {
    /// The epoch domain the calling thread is currently mutating under
    /// (see [`FlushDomainScope`]). [`DOMAIN_SHARED`] outside any scope.
    static CURRENT_DOMAIN: std::cell::Cell<u16> = const { std::cell::Cell::new(DOMAIN_SHARED) };
}

/// RAII scope tagging every tracked store the current thread makes with an
/// epoch-domain id, so a later [`PArena::flush_domain`] call covers them.
///
/// The durable tree enters a scope for the owning shard around every
/// operation; code running outside any scope (formatting, shared
/// bookkeeping) dirties lines as [`DOMAIN_SHARED`], which **every** scoped
/// flush covers. Scopes nest; the previous domain is restored on drop.
///
/// Tagging affects only *tracked* arenas (the crash simulator); fast-mode
/// stores ignore it.
#[derive(Debug)]
pub struct FlushDomainScope {
    prev: u16,
}

impl FlushDomainScope {
    /// Enters a scope: stores by this thread are tagged with `domain`
    /// until the returned guard drops.
    pub fn enter(domain: u16) -> Self {
        let prev = CURRENT_DOMAIN.with(|d| d.replace(domain));
        FlushDomainScope { prev }
    }
}

impl Drop for FlushDomainScope {
    fn drop(&mut self) {
        CURRENT_DOMAIN.with(|d| d.set(self.prev));
    }
}

#[inline]
fn current_domain() -> u16 {
    CURRENT_DOMAIN.with(|d| d.get())
}

/// Minimum carve alignment; guarantees persistent-pointer low bits are zero
/// (the paper packs pointers assuming 16-byte allocation alignment, §4.1.3).
pub const MIN_ALIGN: usize = 16;

/// An arena must at least hold the superblock.
const MIN_CAPACITY: usize = superblock::CARVE_START as usize;

/// The page size the mapping is aligned to and advised for: x86-64's and
/// aarch64's PMD-level huge page, and what a DAX mapping of real NVM uses.
const HUGE_PAGE: usize = 2 << 20;

/// Step of [`PArena::populate`]: the smallest page any supported host
/// uses, so one touch per step reaches every page whatever its size.
const SMALL_PAGE: u64 = 4096;

#[cfg(not(all(unix, target_pointer_width = "64")))]
compile_error!("incll-pmem maps its arena with mmap(2): a 64-bit unix host is required");

// No `libc` crate is vendored; std already links the C library these three
// come from. `off_t` is 64 bits on every 64-bit unix.
extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    #[cfg(target_os = "linux")]
    fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
}

const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 2;
#[cfg(target_os = "linux")]
const MAP_ANONYMOUS: c_int = 0x20;
#[cfg(not(target_os = "linux"))]
const MAP_ANONYMOUS: c_int = 0x1000;
#[cfg(target_os = "linux")]
const MADV_HUGEPAGE: c_int = 14;

/// The arena's backing store: one anonymous private mapping of whole
/// [`HUGE_PAGE`]s at a [`HUGE_PAGE`]-aligned address, kernel-zeroed and
/// lazily populated, unmapped on drop.
struct Mapping {
    base: NonNull<u8>,
    /// Mapped bytes: the capacity rounded up to whole huge pages.
    len: usize,
    /// Whether the kernel accepted `MADV_HUGEPAGE` over the mapping.
    huge_pages: bool,
}

impl Mapping {
    /// Maps room for `capacity` bytes; `None` when the host refuses.
    fn new(capacity: usize) -> Option<Mapping> {
        let len = capacity.checked_next_multiple_of(HUGE_PAGE)?;
        // One huge page of slack: wherever the kernel places the span, it
        // contains an aligned `len`-byte run; the rest goes straight back.
        let span = len.checked_add(HUGE_PAGE)?;
        // SAFETY: a fresh anonymous mapping at a kernel-chosen address
        // aliases nothing this process owns.
        let raw = unsafe {
            mmap(
                std::ptr::null_mut(),
                span,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        // MAP_FAILED is `(void *) -1`.
        if raw as isize == -1 {
            return None;
        }
        let head = (raw as usize).next_multiple_of(HUGE_PAGE) - raw as usize;
        // SAFETY: `head < HUGE_PAGE`, so `base` and the two trimmed runs
        // `[raw, base)` and `[base + len, raw + span)` lie inside the span
        // just mapped, which nothing else references yet; every boundary
        // is page-aligned (`raw` by mmap, the others by HUGE_PAGE). A
        // failed trim only leaves address space reserved.
        let base = unsafe {
            let base = raw.cast::<u8>().add(head);
            if head > 0 {
                munmap(raw, head);
            }
            munmap(base.add(len).cast(), HUGE_PAGE - head);
            base
        };
        // SAFETY: advice over exactly the mapping owned here; it changes
        // how the kernel backs the pages, never their content.
        #[cfg(target_os = "linux")]
        let huge_pages = unsafe { madvise(base.cast(), len, MADV_HUGEPAGE) } == 0;
        #[cfg(not(target_os = "linux"))]
        let huge_pages = false;
        Some(Mapping {
            base: NonNull::new(base).expect("mmap without MAP_FIXED never maps page 0"),
            len,
            huge_pages,
        })
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: `[base, base + len)` is exactly what `new` kept mapped,
        // and the last handle to it is going away.
        unsafe { munmap(self.base.as_ptr().cast(), self.len) };
    }
}

// SAFETY: the mapping is plain process memory owned by this value; the
// pointer carries no thread affinity and `len`/`huge_pages` are immutable.
unsafe impl Send for Mapping {}
// SAFETY: as above; shared access to the *content* goes through `PArena`'s
// accessors, whose callers uphold aliasing rules.
unsafe impl Sync for Mapping {}

/// A simulated persistent-memory arena.
///
/// The arena stands in for an NVM device mapped into the address space.
/// Durable data lives at stable `u64` **offsets** (0 is null); all
/// durable stores go through the `pwrite_*` accessors so that *tracked*
/// arenas can journal them per cache line and later simulate a power
/// failure with [`PArena::crash_seeded`].
///
/// `PArena` is a cheap handle (`Arc` internally) and is `Send + Sync`;
/// synchronisation of the *content* is the data structures' job, exactly as
/// with real memory.
///
/// # Backing
///
/// One anonymous private `mmap`, **2 MiB-aligned** and advised
/// `MADV_HUGEPAGE`, unmapped when the last handle drops — the shape of a
/// DAX mapping of real NVM, which uses 2 MiB pages. Why 2 MiB: a tree
/// descent touches a handful of nodes scattered over the whole arena, and
/// on 4 KiB pages a store larger than the second-level TLB's reach (8 MiB
/// on current x86) pays a page walk — under a hypervisor a *nested* one —
/// for nearly every node and value buffer it touches; on 2 MiB pages the
/// same TLB reaches 3 GiB. Where the kernel refuses the advice
/// ([`PArena::huge_pages_advised`]) or has transparent huge pages switched
/// off, the arena works unchanged on small pages, only slower.
///
/// The mapping is **kernel-zeroed and lazily populated**: `build` touches
/// only the superblock, and resident memory follows what is claimed, not
/// the capacity. So that no store operation ever meets a zero-fill fault
/// (~150 µs for a huge page), the two places that extend into untouched
/// arena populate what they take: [`PArena::carve`] (create time: log
/// buffers, allocator head cells) and the allocator's extent claim (rare,
/// already fenced). Reading never-populated space is legal and reads zero.
///
/// # Modes
///
/// * **fast** (default): accessors compile to plain atomic loads/stores;
///   flush primitives only count and optionally inject latency. Used by all
///   benchmarks.
/// * **tracked**: every durable store is journaled per cache line under the
///   PCSO model, enabling crash injection. Used by recovery tests.
///
/// # Example
///
/// ```
/// use incll_pmem::PArena;
///
/// # fn main() -> Result<(), incll_pmem::Error> {
/// let arena = PArena::builder()
///     .capacity_bytes(1 << 20)
///     .tracked(true)
///     .build()?;
/// let off = arena.carve(128, 64)?;
/// arena.pwrite_u64(off, 1);
/// arena.crash_seeded(42); // the store may or may not survive
/// let v = arena.pread_u64(off);
/// assert!(v == 0 || v == 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct PArena {
    inner: Arc<Inner>,
}

struct Inner {
    map: Mapping,
    capacity: usize,
    bump: AtomicU64,
    tracked: bool,
    journal: Journal,
    stats: Stats,
    latency: LatencyModel,
}

/// Builder for [`PArena`] (see [`PArena::builder`]).
#[derive(Debug, Clone)]
pub struct PArenaBuilder {
    capacity: usize,
    tracked: bool,
    sfence_ns: u64,
    wbinvd_ns: u64,
}

impl Default for PArenaBuilder {
    fn default() -> Self {
        PArenaBuilder {
            capacity: 64 << 20,
            tracked: false,
            sfence_ns: 0,
            wbinvd_ns: 0,
        }
    }
}

impl PArenaBuilder {
    /// Sets the arena capacity in bytes (rounded up to 4 KiB; the mapping
    /// behind it covers whole 2 MiB pages).
    #[must_use]
    pub fn capacity_bytes(mut self, bytes: usize) -> Self {
        self.capacity = bytes;
        self
    }

    /// Enables per-store journaling and crash injection.
    #[must_use]
    pub fn tracked(mut self, tracked: bool) -> Self {
        self.tracked = tracked;
        self
    }

    /// Sets the initial emulated post-`sfence` latency in nanoseconds.
    #[must_use]
    pub fn sfence_latency_ns(mut self, ns: u64) -> Self {
        self.sfence_ns = ns;
        self
    }

    /// Sets the initial emulated whole-cache-flush latency in nanoseconds.
    #[must_use]
    pub fn wbinvd_latency_ns(mut self, ns: u64) -> Self {
        self.wbinvd_ns = ns;
        self
    }

    /// Maps the arena (see [`PArena`]'s *Backing* section).
    ///
    /// # Errors
    ///
    /// Returns [`Error::CapacityTooSmall`] for capacities that cannot hold the
    /// superblock ([`superblock::CARVE_START`]) and
    /// [`Error::HostAllocationFailed`] if the host cannot back the arena.
    pub fn build(self) -> Result<PArena> {
        if self.capacity < MIN_CAPACITY {
            return Err(Error::CapacityTooSmall {
                requested: self.capacity,
                minimum: MIN_CAPACITY,
            });
        }
        let map = Mapping::new(self.capacity).ok_or(Error::HostAllocationFailed {
            requested: self.capacity,
        })?;
        // Cannot overflow: at most `map.len`.
        let capacity = self.capacity.next_multiple_of(SMALL_PAGE as usize);
        let latency = LatencyModel::new();
        latency.set_sfence_ns(self.sfence_ns);
        latency.set_wbinvd_ns(self.wbinvd_ns);
        let arena = PArena {
            inner: Arc::new(Inner {
                map,
                capacity,
                bump: AtomicU64::new(superblock::CARVE_START),
                tracked: self.tracked,
                journal: Journal::new(),
                stats: Stats::new(),
                latency,
            }),
        };
        // The superblock is not carved, so nothing else would populate it.
        arena.populate(0, MIN_CAPACITY);
        Ok(arena)
    }
}

impl PArena {
    /// Returns a builder with default settings (64 MiB, fast mode).
    pub fn builder() -> PArenaBuilder {
        PArenaBuilder::default()
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Persistence-event counters.
    pub fn stats(&self) -> &Stats {
        &self.inner.stats
    }

    /// Emulated-latency knobs.
    pub fn latency(&self) -> &LatencyModel {
        &self.inner.latency
    }

    // ------------------------------------------------------------------
    // Carving (bump allocation of fresh space; durable free lists are the
    // `incll-palloc` crate's job).
    // ------------------------------------------------------------------

    /// Carves `size` bytes at `align` alignment from never-used space and
    /// [populates](PArena::populate) them, so the caller's first stores
    /// meet no page fault.
    ///
    /// The returned offset is stable across simulated crashes. The durable
    /// allocator persists its own watermark and re-synchronises the bump
    /// pointer on recovery via [`PArena::set_bump`].
    ///
    /// # Errors
    ///
    /// [`Error::BadAlignment`] if `align` is not a power of two, and
    /// [`Error::OutOfMemory`] when the arena is exhausted.
    pub fn carve(&self, size: usize, align: usize) -> Result<u64> {
        let offset = self.reserve(size, align)?;
        self.populate(offset, size);
        Ok(offset)
    }

    /// [`PArena::carve`] without the populate: takes the space and leaves
    /// it unbacked. For a region whose owner hands it out piecemeal and
    /// populates each piece as it does — the allocator's extent pool, which
    /// takes the whole rest of the arena at create.
    ///
    /// # Errors
    ///
    /// As [`PArena::carve`].
    pub fn reserve(&self, size: usize, align: usize) -> Result<u64> {
        if align == 0 || !align.is_power_of_two() {
            return Err(Error::BadAlignment { align });
        }
        let align = align.max(MIN_ALIGN) as u64;
        let size = size as u64;
        let cap = self.inner.capacity as u64;
        let mut cur = self.inner.bump.load(Ordering::Relaxed);
        loop {
            let aligned = (cur + align - 1) & !(align - 1);
            let end = aligned + size;
            if end > cap {
                return Err(Error::OutOfMemory {
                    requested: size as usize,
                    capacity: self.inner.capacity,
                });
            }
            match self.inner.bump.compare_exchange_weak(
                cur,
                end,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(aligned),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Backs `[offset, offset + len)` with zeroed host memory now, so no
    /// later access to it page-faults: one value-preserving atomic write
    /// per page, inside the range. A huge page's zero-fill costs ~150 µs;
    /// the two places that extend into untouched arena ([`PArena::carve`]
    /// and the allocator's extent claim) pay it here, where the work is
    /// already rare and slow, and no store operation ever does.
    ///
    /// The caller owns the range (freshly carved or claimed); content is
    /// unchanged, so tracked-mode journaling is not involved.
    ///
    /// # Panics
    ///
    /// Panics if the range does not lie inside the arena.
    pub fn populate(&self, offset: u64, len: usize) {
        let end = offset
            .checked_add(len as u64)
            .filter(|&end| end <= self.inner.capacity as u64)
            .expect("populate range outside the arena");
        let mut at = offset.next_multiple_of(8);
        while at + 8 <= end {
            let word = self.atom(at);
            let cur = word.load(Ordering::Relaxed);
            // A compare-exchange of a value with itself: a real write (the
            // page must become private and writable, not the shared zero
            // page a load would map) that cannot lose a racing store. An
            // idempotent `fetch_or(0)` would not do — LLVM lowers it to a
            // fence without touching the address.
            let _ = word.compare_exchange(cur, cur, Ordering::Relaxed, Ordering::Relaxed);
            at = (at & !(SMALL_PAGE - 1)) + SMALL_PAGE;
        }
    }

    /// Whether the kernel accepted the huge-page advice for this arena's
    /// mapping. `false` (a kernel without transparent huge pages, or a
    /// non-Linux host) is not an error: the arena then works on small
    /// pages, and every access into a working set larger than the TLB's
    /// reach pays the page walk. `true` is necessary, not sufficient: a
    /// host whose `/sys/kernel/mm/transparent_hugepage/enabled` reads
    /// `never` accepts the advice and ignores it.
    pub fn huge_pages_advised(&self) -> bool {
        self.inner.map.huge_pages
    }

    /// Current bump watermark (first never-carved offset).
    pub fn bump(&self) -> u64 {
        self.inner.bump.load(Ordering::Relaxed)
    }

    /// Resets the bump watermark; used by recovery to re-synchronise with
    /// the durably logged watermark.
    pub fn set_bump(&self, offset: u64) {
        self.inner.bump.store(offset, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Raw access
    // ------------------------------------------------------------------

    /// Returns a raw pointer to `offset`.
    ///
    /// # Safety
    ///
    /// `offset` must lie within the arena and all use of the pointer must
    /// respect Rust aliasing rules (the arena does not synchronise access).
    #[inline]
    pub unsafe fn ptr_at(&self, offset: u64) -> *mut u8 {
        unsafe {
            debug_assert!(
                (offset as usize) < self.inner.capacity,
                "offset {offset:#x} outside arena of {} bytes",
                self.inner.capacity
            );
            self.inner.map.base.as_ptr().add(offset as usize)
        }
    }

    #[inline]
    fn atom(&self, offset: u64) -> &AtomicU64 {
        debug_assert_eq!(offset % 8, 0, "u64 access must be 8-aligned");
        debug_assert!((offset as usize) + 8 <= self.inner.capacity);
        // SAFETY: in-bounds (asserted), 8-aligned, and AtomicU64 may alias
        // any initialized memory; atomics make concurrent access defined.
        unsafe { &*(self.ptr_at(offset) as *const AtomicU64) }
    }

    /// Reads the 64 bytes of the cache line containing `offset` using
    /// atomic word loads (safe under concurrent atomic stores).
    fn read_line(&self, line: u64) -> [u8; CACHE_LINE] {
        let base = line * CACHE_LINE as u64;
        let mut buf = [0u8; CACHE_LINE];
        for w in 0..CACHE_LINE / 8 {
            let v = self.atom(base + (w as u64) * 8).load(Ordering::Relaxed);
            buf[w * 8..w * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
        buf
    }

    fn write_line(&self, line: u64, content: &[u8; CACHE_LINE]) {
        let base = line * CACHE_LINE as u64;
        for w in 0..CACHE_LINE / 8 {
            let v = u64::from_le_bytes(content[w * 8..w * 8 + 8].try_into().unwrap());
            self.atom(base + (w as u64) * 8).store(v, Ordering::Relaxed);
        }
    }

    // ------------------------------------------------------------------
    // Durable loads/stores
    // ------------------------------------------------------------------

    /// Relaxed 64-bit load from `offset` (must be 8-aligned).
    #[inline]
    pub fn pread_u64(&self, offset: u64) -> u64 {
        self.atom(offset).load(Ordering::Relaxed)
    }

    /// Acquire 64-bit load from `offset`.
    #[inline]
    pub fn pread_u64_acquire(&self, offset: u64) -> u64 {
        self.atom(offset).load(Ordering::Acquire)
    }

    /// Relaxed 64-bit store to `offset` (must be 8-aligned).
    #[inline]
    pub fn pwrite_u64(&self, offset: u64, value: u64) {
        self.store_u64(offset, value, Ordering::Relaxed);
    }

    /// Release 64-bit store to `offset`.
    ///
    /// Release ordering is what the InCLL algorithm uses between the
    /// in-line log write and the mutation it protects: free on x86, it only
    /// constrains compiler reordering, yet under PCSO it suffices to order
    /// same-cache-line persistence (§2.1).
    #[inline]
    pub fn pwrite_u64_release(&self, offset: u64, value: u64) {
        self.store_u64(offset, value, Ordering::Release);
    }

    #[inline]
    fn store_u64(&self, offset: u64, value: u64, order: Ordering) {
        if self.inner.tracked {
            let line = offset / CACHE_LINE as u64;
            let within = (offset % CACHE_LINE as u64) as usize;
            self.inner.journal.record_store(
                line,
                within,
                &value.to_le_bytes(),
                current_domain(),
                || self.read_line(line),
                || self.atom(offset).store(value, order),
            );
        } else {
            self.atom(offset).store(value, order);
        }
    }

    /// 64-bit compare-exchange on `offset`.
    ///
    /// Used for lock words embedded in durable nodes. Lock words are
    /// semantically transient (recovery reinitialises them), so tracked
    /// mode journals the final value only when the exchange succeeds.
    #[inline]
    pub fn pcompare_exchange_u64(
        &self,
        offset: u64,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> std::result::Result<u64, u64> {
        if self.inner.tracked {
            let line = offset / CACHE_LINE as u64;
            let within = (offset % CACHE_LINE as u64) as usize;
            let mut out = Err(0u64);
            self.inner.journal.record_store(
                line,
                within,
                &new.to_le_bytes(),
                current_domain(),
                || self.read_line(line),
                || {
                    out = self
                        .atom(offset)
                        .compare_exchange(current, new, success, failure);
                },
            );
            // On failure a spurious journal record of `new` exists, but the
            // *apply* closure did not store, so memory and journal disagree.
            // Re-record the actual current value to keep replay idempotent.
            if let Err(actual) = out {
                let line = offset / CACHE_LINE as u64;
                self.inner.journal.record_store(
                    line,
                    within,
                    &actual.to_le_bytes(),
                    current_domain(),
                    || self.read_line(line),
                    || {},
                );
            }
            out
        } else {
            self.atom(offset)
                .compare_exchange(current, new, success, failure)
        }
    }

    /// Relaxed 8-bit load from `offset` (any alignment).
    #[inline]
    pub fn pread_u8(&self, offset: u64) -> u8 {
        let shift = (offset % 8) * 8;
        (self.atom(offset & !7).load(Ordering::Acquire) >> shift) as u8
    }

    /// 8-bit compare-exchange on `offset` (any alignment): atomically
    /// replaces the byte at `offset` with `new` iff it currently equals
    /// `current`, returning `Ok(current)` on success or `Err(actual)` with
    /// the observed byte otherwise.
    ///
    /// Used for single-byte durable ownership words (the allocator's
    /// extent-owner table) where several writers may race on *adjacent*
    /// bytes of one word: the implementation loops a word-level CAS
    /// restricted to the target byte, so neighbouring-byte writers never
    /// fail each other spuriously at this API's level. Tracked mode
    /// journals exactly the byte finally stored, keeping crash replay
    /// idempotent.
    pub fn pcas_u8(&self, offset: u64, current: u8, new: u8) -> std::result::Result<u8, u8> {
        let word_off = offset & !7;
        let shift = ((offset % 8) * 8) as u32;
        let atom = self.atom(word_off);
        loop {
            let word = atom.load(Ordering::Acquire);
            let actual = (word >> shift) as u8;
            if actual != current {
                return Err(actual);
            }
            let new_word = (word & !(0xffu64 << shift)) | (u64::from(new) << shift);
            if self.inner.tracked {
                let line = offset / CACHE_LINE as u64;
                let within = (offset % CACHE_LINE as u64) as usize;
                let mut ok = false;
                self.inner.journal.record_store(
                    line,
                    within,
                    &[new],
                    current_domain(),
                    || self.read_line(line),
                    || {
                        ok = atom
                            .compare_exchange(word, new_word, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok();
                    },
                );
                if ok {
                    return Ok(current);
                }
                // The word CAS lost (target byte or a neighbour changed):
                // the apply closure did not store, so re-record whatever
                // byte is actually in memory to keep replay idempotent,
                // then retry from the fresh word.
                let cur_byte = (atom.load(Ordering::Acquire) >> shift) as u8;
                self.inner.journal.record_store(
                    line,
                    within,
                    &[cur_byte],
                    current_domain(),
                    || self.read_line(line),
                    || {},
                );
            } else if atom
                .compare_exchange(word, new_word, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Ok(current);
            }
        }
    }

    /// Copies `data` into the arena at `offset` (byte-granular).
    ///
    /// Intended for regions with exclusive ownership (log buffers, freshly
    /// allocated objects); it is not atomic with respect to concurrent
    /// readers of the same words.
    pub fn pwrite_bytes(&self, offset: u64, data: &[u8]) {
        debug_assert!((offset as usize) + data.len() <= self.inner.capacity);
        if self.inner.tracked {
            // Split at cache-line boundaries so each journal record stays
            // within one line.
            let mut cursor = 0usize;
            while cursor < data.len() {
                let abs = offset + cursor as u64;
                let line = abs / CACHE_LINE as u64;
                let within = (abs % CACHE_LINE as u64) as usize;
                let chunk = (CACHE_LINE - within).min(data.len() - cursor);
                let slice = &data[cursor..cursor + chunk];
                self.inner.journal.record_store(
                    line,
                    within,
                    slice,
                    current_domain(),
                    || self.read_line(line),
                    || {
                        // SAFETY: in-bounds (asserted above); caller owns the
                        // region exclusively per this method's contract.
                        unsafe {
                            std::ptr::copy_nonoverlapping(slice.as_ptr(), self.ptr_at(abs), chunk);
                        }
                    },
                );
                cursor += chunk;
            }
        } else {
            // SAFETY: in-bounds; exclusive ownership per contract.
            unsafe {
                std::ptr::copy_nonoverlapping(data.as_ptr(), self.ptr_at(offset), data.len());
            }
        }
    }

    /// Copies `buf.len()` bytes out of the arena at `offset`.
    pub fn pread_bytes(&self, offset: u64, buf: &mut [u8]) {
        debug_assert!((offset as usize) + buf.len() <= self.inner.capacity);
        // SAFETY: in-bounds; plain read of possibly-racing memory is only
        // performed on regions the caller owns or has synchronised.
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr_at(offset), buf.as_mut_ptr(), buf.len());
        }
    }

    /// Hints the CPU to pull the cache lines overlapping
    /// `[offset, offset+len)` towards the core (x86_64 `prefetcht0`; a
    /// no-op elsewhere). Purely a performance hint with no durable or
    /// observable effect, so callers may pass **untrusted** ranges —
    /// recovery derives them from log headers it has not verified yet: a
    /// range that does not lie wholly inside the arena is silently
    /// ignored, and no out-of-bounds pointer is ever formed.
    #[inline]
    pub fn prefetch(&self, offset: u64, len: usize) {
        let in_bounds = offset
            .checked_add(len as u64)
            .is_some_and(|end| end <= self.inner.capacity as u64);
        if len == 0 || !in_bounds {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let first = offset & !(CACHE_LINE as u64 - 1);
            for line in (first..offset + len as u64).step_by(CACHE_LINE) {
                // SAFETY: `first <= line < offset + len <= capacity`
                // (checked above), so the pointer is in bounds; prefetch
                // reads no memory architecturally.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(self.ptr_at(line) as *const i8) };
            }
        }
    }

    // ------------------------------------------------------------------
    // Persistence primitives
    // ------------------------------------------------------------------

    /// Initiates write-back of the cache line containing `offset`
    /// (`clwb`/`clflushopt` analogue). Asynchronous: durability is only
    /// guaranteed after the next [`PArena::sfence`].
    #[inline]
    pub fn clwb(&self, offset: u64) {
        self.inner.stats.add_clwb(1);
        if self.inner.tracked {
            let line = offset / CACHE_LINE as u64;
            self.inner.journal.clwb(line, || self.read_line(line));
        }
    }

    /// Issues `clwb` for every cache line overlapping `[offset, offset+len)`.
    pub fn clwb_range(&self, offset: u64, len: usize) {
        if len == 0 {
            return;
        }
        let first = offset / CACHE_LINE as u64;
        let last = (offset + len as u64 - 1) / CACHE_LINE as u64;
        // One update of the shared counter line per range, not per line.
        self.inner.stats.add_clwb(last - first + 1);
        if self.inner.tracked {
            for line in first..=last {
                self.inner.journal.clwb(line, || self.read_line(line));
            }
        }
    }

    /// Persistence fence (`sfence` analogue): all previously issued `clwb`s
    /// are durable when this returns. Injects the configured emulated NVM
    /// latency.
    pub fn sfence(&self) {
        fence(Ordering::SeqCst);
        self.inner.stats.add_sfence();
        if self.inner.tracked {
            self.inner.journal.sfence();
        }
        spin_ns(self.inner.latency.sfence_ns());
    }

    /// Whole-cache flush (`wbinvd` analogue): *everything* stored so far is
    /// durable when this returns. Injects the configured flush latency
    /// (1.38 ms on the paper's hardware, §6.2).
    pub fn global_flush(&self) {
        fence(Ordering::SeqCst);
        self.inner.stats.add_global_flush();
        if self.inner.tracked {
            self.inner.journal.flush_all();
        }
        spin_ns(self.inner.latency.wbinvd_ns());
    }

    /// Scoped flush: everything stored under [`FlushDomainScope`]s for
    /// `domain` — plus all [`DOMAIN_SHARED`] lines — is durable when this
    /// returns. The per-shard-epoch analogue of [`PArena::global_flush`]:
    /// a dirty-line write-back walk rather than `wbinvd`, so other
    /// domains' working sets keep their cache residency (and, in tracked
    /// mode, their crash exposure). Injects the configured scoped-flush
    /// latency.
    pub fn flush_domain(&self, domain: u16) {
        fence(Ordering::SeqCst);
        self.inner.stats.add_scoped_flush();
        if self.inner.tracked {
            self.inner.journal.flush_domain(domain);
        }
        spin_ns(self.inner.latency.scoped_flush_ns());
    }

    // ------------------------------------------------------------------
    // Crash injection (tracked mode)
    // ------------------------------------------------------------------

    /// Number of cache lines currently holding unpersisted stores.
    ///
    /// Always 0 in fast mode and immediately after
    /// [`PArena::global_flush`].
    pub fn unpersisted_lines(&self) -> usize {
        self.inner.journal.unpersisted_lines()
    }

    /// Simulates a power failure with a seeded RNG choosing, per cache
    /// line, how many unpersisted stores reached NVM.
    ///
    /// After return the arena content equals a legal post-failure NVM image
    /// under PCSO; callers then run recovery against it.
    ///
    /// # Panics
    ///
    /// Panics if the arena is not tracked — crashing a fast-mode arena
    /// would silently test nothing.
    pub fn crash_seeded(&self, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        self.crash_with(|_, n| rng.gen_range(0..=n));
    }

    /// Simulates a power failure with an explicit per-line prefix chooser
    /// (`choose(line_index, n_stores) -> kept_prefix`), for exhaustive
    /// crash-point enumeration in tests.
    ///
    /// # Panics
    ///
    /// Panics if the arena is not tracked, or if `choose` returns more than
    /// `n_stores`.
    pub fn crash_with(&self, choose: impl FnMut(u64, usize) -> usize) {
        assert!(
            self.inner.tracked,
            "crash injection requires a tracked arena"
        );
        self.inner
            .journal
            .crash_with(choose, |line, content| self.write_line(line, content));
    }
}

impl std::fmt::Debug for PArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PArena")
            .field("capacity", &self.inner.capacity)
            .field("bump", &self.bump())
            .field("tracked", &self.inner.tracked)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(tracked: bool) -> PArena {
        PArena::builder()
            .capacity_bytes(1 << 20)
            .tracked(tracked)
            .build()
            .unwrap()
    }

    #[test]
    fn build_rejects_tiny_capacity() {
        let err = PArena::builder().capacity_bytes(1024).build().unwrap_err();
        assert!(matches!(err, Error::CapacityTooSmall { .. }));
    }

    #[test]
    fn build_refuses_what_the_host_cannot_map() {
        for capacity in [1usize << 46, usize::MAX] {
            let err = PArena::builder()
                .capacity_bytes(capacity)
                .build()
                .unwrap_err();
            assert_eq!(
                err,
                Error::HostAllocationFailed {
                    requested: capacity
                }
            );
        }
    }

    #[test]
    fn mapping_is_whole_aligned_huge_pages() {
        for capacity in [1 << 20, (5 << 20) + 4096, 6 << 20] {
            let a = PArena::builder().capacity_bytes(capacity).build().unwrap();
            let map = &a.inner.map;
            assert_eq!(map.base.as_ptr() as usize % HUGE_PAGE, 0);
            assert_eq!(map.len, capacity.next_multiple_of(HUGE_PAGE));
            assert_eq!(a.capacity(), capacity);
            // Kernel-zeroed to the last word, whatever page it sits on.
            assert_eq!(a.pread_u64(capacity as u64 - 8), 0);
        }
    }

    #[test]
    fn populate_touches_without_changing_content() {
        let a = arena(true);
        let off = a.carve(3 * SMALL_PAGE as usize, 64).unwrap();
        a.pwrite_u64(off + SMALL_PAGE, 5);
        a.populate(off + 3, 2 * SMALL_PAGE as usize); // unaligned start
        a.populate(off, 0);
        a.populate(a.capacity() as u64 - 4, 4); // no whole word: nothing to do
        assert_eq!(a.pread_u64(off), 0);
        assert_eq!(a.pread_u64(off + SMALL_PAGE), 5);
        // The journal saw one store; populate added none.
        a.crash_with(|_, n| {
            assert_eq!(n, 1);
            0
        });
        assert_eq!(a.pread_u64(off + SMALL_PAGE), 0);
    }

    #[test]
    #[should_panic(expected = "outside the arena")]
    fn populate_rejects_out_of_range() {
        let a = arena(false);
        a.populate(a.capacity() as u64 - 8, 16);
    }

    #[test]
    fn reserve_is_carve_without_the_populate() {
        let a = arena(false);
        let x = a.reserve(100, 64).unwrap();
        assert_eq!(x % 64, 0);
        assert_eq!(a.bump(), x + 100);
        assert!(matches!(
            a.reserve(2 << 20, 16),
            Err(Error::OutOfMemory { .. })
        ));
        assert!(matches!(a.reserve(8, 3), Err(Error::BadAlignment { .. })));
    }

    #[test]
    fn carve_respects_alignment_and_bounds() {
        let a = arena(false);
        let x = a.carve(100, 64).unwrap();
        assert_eq!(x % 64, 0);
        assert!(x >= superblock::CARVE_START);
        let y = a.carve(8, 16).unwrap();
        assert!(y >= x + 100);
        assert_eq!(y % 16, 0);
    }

    #[test]
    fn carve_minimum_alignment_is_16() {
        let a = arena(false);
        let x = a.carve(8, 1).unwrap();
        assert_eq!(x % 16, 0);
    }

    #[test]
    fn carve_exhaustion_errors() {
        let a = arena(false);
        let res = a.carve(2 << 20, 16);
        assert!(matches!(res, Err(Error::OutOfMemory { .. })));
    }

    #[test]
    fn carve_bad_alignment_errors() {
        let a = arena(false);
        assert!(matches!(a.carve(8, 3), Err(Error::BadAlignment { .. })));
        assert!(matches!(a.carve(8, 0), Err(Error::BadAlignment { .. })));
    }

    #[test]
    fn write_read_roundtrip() {
        let a = arena(false);
        let off = a.carve(64, 64).unwrap();
        a.pwrite_u64(off, 0x0123_4567_89ab_cdef);
        assert_eq!(a.pread_u64(off), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn bytes_roundtrip() {
        let a = arena(false);
        let off = a.carve(256, 64).unwrap();
        let data: Vec<u8> = (0..=255).collect();
        a.pwrite_bytes(off, &data);
        let mut back = vec![0u8; 256];
        a.pread_bytes(off, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn stats_count_persistence_ops() {
        let a = arena(false);
        let off = a.carve(256, 64).unwrap();
        a.clwb(off);
        a.clwb_range(off, 200); // 4 lines
        a.sfence();
        a.global_flush();
        let s = a.stats().snapshot();
        assert_eq!(s.clwb, 5);
        assert_eq!(s.sfence, 1);
        assert_eq!(s.global_flush, 1);
    }

    #[test]
    fn clwb_range_journals_every_line_in_tracked_mode() {
        let a = arena(true);
        let off = a.carve(256, 64).unwrap();
        for i in 0..4 {
            a.pwrite_u64(off + i * 64, i + 1);
        }
        a.clwb_range(off + 8, 200); // lines 0..=3
        a.sfence();
        assert_eq!(a.stats().clwb(), 4);
        a.crash_with(|_, _| 0);
        for i in 0..4 {
            assert_eq!(a.pread_u64(off + i * 64), i + 1);
        }
    }

    #[test]
    fn prefetch_ignores_out_of_range_hints() {
        let a = arena(false);
        let cap = a.capacity() as u64;
        a.prefetch(superblock::CARVE_START, 320);
        a.prefetch(cap - 64, 64); // last line: in range
        a.prefetch(cap - 63, 64); // straddles the end
        a.prefetch(cap, 1);
        a.prefetch(u64::MAX - 8, 320); // offset + len overflows
        a.prefetch(0xdead_beef_dead_0000, 320);
        a.prefetch(64, 0);
    }

    #[test]
    fn tracked_store_crash_all_or_nothing() {
        let a = arena(true);
        let off = a.carve(64, 64).unwrap();
        a.pwrite_u64(off, 77);
        assert_eq!(a.unpersisted_lines(), 1);
        a.crash_with(|_, _| 0);
        assert_eq!(a.pread_u64(off), 0);
        a.pwrite_u64(off, 88);
        a.crash_with(|_, n| n);
        assert_eq!(a.pread_u64(off), 88);
    }

    #[test]
    fn tracked_same_line_prefix_order() {
        let a = arena(true);
        let off = a.carve(64, 64).unwrap();
        a.pwrite_u64(off, 1); // store 0
        a.pwrite_u64(off + 8, 2); // store 1
        a.pwrite_u64(off, 3); // store 2
        a.crash_with(|_, _| 2);
        assert_eq!(a.pread_u64(off), 1);
        assert_eq!(a.pread_u64(off + 8), 2);
    }

    #[test]
    fn clwb_sfence_makes_durable() {
        let a = arena(true);
        let off = a.carve(64, 64).unwrap();
        a.pwrite_u64(off, 9);
        a.clwb(off);
        a.sfence();
        assert_eq!(a.unpersisted_lines(), 0);
        a.crash_with(|_, _| 0);
        assert_eq!(a.pread_u64(off), 9);
    }

    #[test]
    fn global_flush_makes_everything_durable() {
        let a = arena(true);
        let off = a.carve(1024, 64).unwrap();
        for i in 0..128 {
            a.pwrite_u64(off + i * 8, i + 1);
        }
        a.global_flush();
        a.crash_with(|_, _| 0);
        for i in 0..128 {
            assert_eq!(a.pread_u64(off + i * 8), i + 1);
        }
    }

    #[test]
    fn scoped_flush_covers_own_domain_and_shared_only() {
        let a = arena(true);
        let base = a.carve(256, 64).unwrap();
        {
            let _s = FlushDomainScope::enter(1);
            a.pwrite_u64(base, 11);
        }
        {
            let _s = FlushDomainScope::enter(2);
            a.pwrite_u64(base + 64, 22);
        }
        a.pwrite_u64(base + 128, 33); // untagged -> shared
        assert_eq!(a.unpersisted_lines(), 3);
        a.flush_domain(1);
        assert_eq!(a.unpersisted_lines(), 1, "only domain 2's line is left");
        a.crash_with(|_, _| 0);
        assert_eq!(a.pread_u64(base), 11, "domain-1 line durable");
        assert_eq!(a.pread_u64(base + 64), 0, "domain-2 line reverted");
        assert_eq!(a.pread_u64(base + 128), 33, "shared line durable");
        assert_eq!(a.stats().scoped_flush(), 1);
    }

    #[test]
    fn flush_domain_scopes_nest_and_restore() {
        let a = arena(true);
        let base = a.carve(192, 64).unwrap();
        let _outer = FlushDomainScope::enter(7);
        {
            let _inner = FlushDomainScope::enter(9);
            a.pwrite_u64(base, 1);
        }
        a.pwrite_u64(base + 64, 2);
        a.flush_domain(9);
        a.crash_with(|_, _| 0);
        assert_eq!(a.pread_u64(base), 1);
        assert_eq!(a.pread_u64(base + 64), 0, "outer-scope line not flushed");
    }

    #[test]
    fn crash_seeded_yields_prefixes() {
        let a = arena(true);
        let off = a.carve(64, 64).unwrap();
        a.pwrite_u64(off, 1);
        a.pwrite_u64(off, 2);
        a.pwrite_u64(off, 3);
        a.crash_seeded(7);
        let v = a.pread_u64(off);
        assert!(v <= 3, "value {v} is not a store prefix");
    }

    #[test]
    #[should_panic(expected = "tracked")]
    fn crash_on_fast_arena_panics() {
        let a = arena(false);
        a.crash_with(|_, _| 0);
    }

    #[test]
    fn compare_exchange_failure_keeps_actual_value() {
        let a = arena(true);
        let off = a.carve(64, 64).unwrap();
        a.pwrite_u64(off, 4);
        assert!(a
            .pcompare_exchange_u64(off, 9, 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_err());
        a.crash_with(|_, n| n);
        assert_eq!(a.pread_u64(off), 4);
    }

    #[test]
    fn byte_cas_claims_and_rejects() {
        let a = arena(false);
        let off = a.carve(64, 64).unwrap();
        assert_eq!(a.pread_u8(off + 3), 0);
        assert_eq!(a.pcas_u8(off + 3, 0, 7), Ok(0));
        assert_eq!(a.pread_u8(off + 3), 7);
        // Wrong expectation reports the observed byte, stores nothing.
        assert_eq!(a.pcas_u8(off + 3, 0, 9), Err(7));
        assert_eq!(a.pread_u8(off + 3), 7);
        // Neighbouring bytes of the same word are untouched.
        assert_eq!(a.pcas_u8(off + 4, 0, 1), Ok(0));
        assert_eq!(a.pread_u8(off + 3), 7);
        assert_eq!(a.pread_u8(off + 4), 1);
    }

    #[test]
    fn byte_cas_tracked_is_all_or_nothing_across_a_crash() {
        let a = arena(true);
        let off = a.carve(64, 64).unwrap();
        a.pcas_u8(off + 5, 0, 3).unwrap();
        // Unflushed: a crash that drops every unpersisted store loses the
        // claim whole (the byte reads free again, never torn)...
        a.crash_with(|_, _| 0);
        assert_eq!(a.pread_u8(off + 5), 0);
        // ...and once flushed, the claim survives any crash.
        a.pcas_u8(off + 5, 0, 3).unwrap();
        a.clwb(off + 5);
        a.sfence();
        a.crash_with(|_, _| 0);
        assert_eq!(a.pread_u8(off + 5), 3);
    }

    #[test]
    fn byte_cas_is_atomic_under_contention() {
        let a = arena(false);
        let off = a.carve(64, 64).unwrap();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for t in 1..=8u8 {
                let a = a.clone();
                handles.push(s.spawn(move || a.pcas_u8(off, 0, t).is_ok()));
            }
            let winners = handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .filter(|&won| won)
                .count();
            assert_eq!(winners, 1, "exactly one claimant may win the byte");
        });
        assert!((1..=8).contains(&a.pread_u8(off)));
    }

    #[test]
    fn handle_is_cheap_clone_sharing_state() {
        let a = arena(false);
        let b = a.clone();
        let off = a.carve(8, 16).unwrap();
        b.pwrite_u64(off, 3);
        assert_eq!(a.pread_u64(off), 3);
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PArena>();
    }
}
