//! External per-object undo log (paper §4.2).
//!
//! The external log is the conventional fallback the InCLL design leans on
//! for infrequent, complex modifications: node splits, internal-node
//! updates, layer conversions, and any case the in-cache-line logs cannot
//! cover (epoch-tag wrap-around, and a leaf with no slot left that was
//! free at epoch start: there a second value changed in one cache line
//! within an epoch, or an insert into a slot a removed key held, has
//! nowhere else to go; while such a slot is left, the key moves or
//! lands in it and nothing is logged).
//!
//! Protocol (per logged object):
//!
//! 1. copy the object's current bytes into the log as an entry tagged with
//!    the current epoch and a checksum,
//! 2. `clwb` the entry's cache lines and `sfence` — the entry is durable,
//! 3. only then may the caller modify the object.
//!
//! Each byte range is logged at most once per epoch (the caller tracks
//! this: the durable tree with a `logged` bit per node, and per region of
//! a leaf), so an epoch's entries are disjoint, mutually independent, and
//! recovery can replay them in any order or in parallel (§4.2). One entry
//! covers one range — a whole node, or one cache-line region of a leaf
//! ([`ExtLog::log_ranges_in`]).
//!
//! The log is *logically* discarded at every epoch boundary — after the
//! checkpoint flush, all logged pre-images are obsolete — by resetting the
//! per-slot append cursors. Entries are never erased; epoch tags plus the
//! contiguous-failed-run rule (see [`ExtLog::replay_domain`]) make stale entries
//! inert. Crucially, cursors are **not** reset by recovery itself: replay
//! writes are unflushed, so the pre-images they came from must survive
//! until the first post-recovery checkpoint (the paper: "if the system
//! crashes before recovery is complete, it can be applied again").
//!
//! # Durability discipline: two rules
//!
//! One protocol, no option. The log holds two kinds of entry and each has
//! exactly the ordering it needs:
//!
//! 1. **Guarding appends seal the run.** An undo entry
//!    ([`ExtLog::log_object_in`], [`ExtLog::log_ranges_in`]) guards an
//!    in-place modification the caller performs the moment the append
//!    returns, and any dirty line may be evicted — i.e. persisted — at a
//!    crash, so the pre-image must be durable *before* the modification
//!    is even issued (write-ahead). The append therefore persists the
//!    slot's whole staged run — this entry plus anything staged before it
//!    — with one `clwb_range`+`sfence` before it returns. With nothing
//!    staged that is the paper's per-entry flush, byte for byte.
//! 2. **Intents stage.** A batch intent ([`ExtLog::log_intent_in`])
//!    describes an operation whose guarded store — the batch's commit
//!    record — has not happened when the intent is appended, so the
//!    append writes the entry and advances the cursor, nothing else.
//!
//! Who drains a staged run: the batch layer's [`ExtLog::drain_thread`],
//! issued once per commit *before* the commit record is flushed (the one
//! ordering constraint an intent needs — one fence for every shard the
//! commit covers); the next guarding append on the
//! slot (rule 1); and the domain's boundary ([`ExtLog::drain_domain`]).
//! A run is bounded by one batch.
//!
//! A crash with a run still staged may persist any subset of its lines.
//! That is harmless: an entry missing any line fails its checksum and
//! ends the slot's valid prefix, so replay surfaces a (possibly empty)
//! *prefix* of the staged intents and never one behind a torn entry —
//! and every one of them belongs to a batch with no commit record, which
//! recovery drops whether it sees the intent or not.
//!
//! # Epoch domains
//!
//! Under per-shard epoch domains the log is one append buffer per
//! **(thread, domain)** pair, because the per-domain
//! state above — discard cursors at *that domain's* boundary, replay *that
//! domain's* contiguous failed run — only works if one buffer never mixes
//! entries from two domains' epoch timelines. [`ExtLog::create_sharded`]
//! fixes the domain count on media ([`superblock::SB_EXTLOG_DOMAINS`]);
//! [`ExtLog::log_object_in`] appends to the caller's (thread, domain)
//! buffer, sealing the domain id into the checksummed entry tag;
//! [`ExtLog::reset_domain`] and [`ExtLog::replay_domain`] scope discard
//! and replay to one domain.
//!
//! # Segments
//!
//! A buffer is sized for the worst epoch (the paper measures 84 K nodes
//! per 64 ms epoch on a 1 M-key tree, §6.3), yet most epochs write a small
//! fraction of it, and most buffers of a sharded store are never written
//! at all. So a buffer's capacity is a **cap**, not a reservation: the
//! buffer is an ordered list of fixed-size **segments**, each found
//! through the slot's words in the superblock's segment directory
//! ([`superblock::SB_LOG_DIR`]), and it holds only the segments its
//! cursor has reached. Byte `b` of a buffer lives at offset `b mod
//! segment` of its `b / segment`-th segment; an entry that straddles two
//! segments is written and read in two pieces, so the entry format and
//! replay's valid-prefix scan are those of one contiguous buffer.
//!
//! A store's log ([`ExtLog::create_in_pool`]) cuts its segments from
//! extents of the allocator's pool that it owns ([`superblock::log_owner`]):
//! create claims one extent per domain and gives every slot its first
//! segment from it, and a writer reserving room past its segments
//! ([`ExtLog::has_room`], [`ExtLog::grow`]) takes one of the domain's
//! free segments, claiming a fresh extent only when none is left. The
//! segment is populated there, before the writer pins its epoch, so
//! resident and claimed memory both follow what the buffers reach and no
//! checkpoint waits behind a page fault.
//!
//! **A boundary gives segments back.** [`ExtLog::reset_domain`] keeps each
//! buffer's first segment and returns the rest to the domain's free
//! segments, where the next buffer to grow takes them (already resident:
//! no second populate). So a domain's log is bounded by one buffer's cap
//! plus one segment per slot, `cap + T × segment`, not by `T × cap`: a
//! bounded [`ExtLog::grow`] claims a fresh extent only while the domain's
//! segments, held and free, stay under that bound
//! ([`ExtLog::bytes_held`]), and past it reports the buffer short, so the
//! caller ends the domain's epoch and takes the segments that boundary
//! returns. That bound is also what a crash may leave to replay in the
//! domain. A domain written by `k` slots at once therefore reaches a
//! boundary once per cap of log its writers append together — up to `k`
//! times as often as `k` separate caps would.
//!
//! The return is ordered for a crash: the trimmed directory words are
//! zeroed and written back behind one `sfence` before any segment joins
//! the free list, so no two buffers' durable words ever name one segment,
//! and replay never reads one buffer's entries through another buffer's
//! stale word. `grow` and the trim both hold the domain's free-segment
//! lock, so a writer growing its buffer and a boundary trimming it run
//! one at a time.
//!
//! The claim order makes a durable entry reachable: the extent's owner
//! byte is CAS'd and fenced first, the directory word is stored next, and
//! the drain that makes the first entry in the segment durable writes the
//! directory line back under the same fence. A crash between the claim
//! and that drain leaves the segment named by no durable word; opening
//! the log returns it to its domain's free segments
//! ([`ExtLog::adopt_extents`]) without writing anything, and it is never
//! handed to the allocator.
//!
//! A standalone log ([`ExtLog::create_sharded`], no pool) carves every
//! segment of every buffer from the arena at create and keeps them all.
//!
//! # Entry format
//!
//! Undo entries and batch intents share one format, appended back to
//! back in a (thread, domain) buffer, each 8-byte aligned:
//!
//! | Bytes | Word | Contents |
//! |-------|------|----------|
//! | 0–7   | `epoch`    | the domain epoch the entry was appended in |
//! | 8–15  | `target`   | arena offset the pre-image came from; for an intent, the batch id |
//! | 16–23 | `len_word` | payload length (low 48 bits) and tag (high 16 bits: domain id, plus [`INTENT_TAG_BIT`]) |
//! | 24–31 | `sum`      | the entry checksum |
//! | 32–   | payload    | `len` bytes, zero-padded to the next multiple of 8 |
//!
//! `sum` is **XXH64** (seed 0) over `payload ‖ epoch ‖ target ‖
//! len_word`, the three words little-endian: every payload byte and every
//! header field feeds it, the payload length twice (inside `len_word` and
//! through XXH64's own length fold); the padding does not. XXH64 consumes
//! 32-byte stripes in four independent multiply-rotate lanes, then 8-byte
//! words, then tail bytes, and ends in an avalanche, so sealing or
//! verifying a 320 B node image costs tens of nanoseconds — well under
//! the `sfence` that follows it — where a byte-serial hash was half of an
//! append and a third of a restart. The sum is part of what a crashed
//! medium holds, so changing it is a layout version bump: read with the
//! wrong function, every entry looks torn and undo is silently skipped.
//!
//! An entry is valid only once its stored `sum` matches, so a torn append
//! — any subset of its cache lines missing — fails verification and ends
//! the buffer's valid prefix. Replay reads each payload once, verifies it
//! in that buffer and applies it from there.
//!
//! **Look-ahead headers are untrusted.** While entry *i* is verified,
//! replay reads the header behind it and prefetches that entry's target
//! ([`PArena::prefetch`]), because replay otherwise meets every node
//! cold. That next header has not been verified — it may be torn, or
//! debris of a completed epoch — so its `target` and length feed nothing
//! but a size-capped hint that the arena bounds-checks and silently drops
//! when out of range. Nothing is applied, collected or counted before its
//! own checksum has matched.

use std::sync::atomic::{AtomicU64, Ordering};

use incll_pmem::{superblock, PArena};
use parking_lot::Mutex;

mod checksum;

/// Fixed per-entry header size in bytes.
const HEADER: u64 = 32;

/// The smallest segment, unless a whole buffer is smaller: every store
/// operation's worst-case undo fits an emptied buffer's first segment,
/// so a write that forced a boundary always finds room.
const MIN_SEGMENT: u64 = 16 << 10;

/// A standalone log (no extent pool) sizes its segments as if its
/// threads shared extents of this many bytes.
const STANDALONE_EXTENT: u64 = 64 << 10;

/// Replay prefetches at most this many bytes of a look-ahead entry's
/// target (a node image is 320 B): the length comes from an unverified
/// header, so it must not size an unbounded prefetch loop.
const PREFETCH_BYTES: u64 = 512;

/// The header's third word packs the payload length (low 48 bits) with an
/// opaque caller tag (high 16 bits — the durable tree stores the owning
/// shard id there so recovery can attribute replay work per shard).
const LEN_MASK: u64 = (1 << 48) - 1;

/// Tag bit marking a batch **intent** entry (see [`ExtLog::log_intent_in`]).
/// An intent shares its (thread, domain) buffer with that domain's undo
/// entries — its tag is `domain | INTENT_TAG_BIT` — but carries a redo
/// payload instead of a pre-image: replay checksum-validates it, collects
/// it into [`ReplayReport::intents`], and skips it without copying
/// anything back. Domain ids are shard indices (< 64), so the bit never
/// collides with a real domain tag.
pub const INTENT_TAG_BIT: u16 = 1 << 15;

#[inline]
fn pack_len(len: u64, tag: u16) -> u64 {
    debug_assert!(len <= LEN_MASK);
    len | (tag as u64) << 48
}

/// Where an entry's payload comes from.
#[derive(Clone, Copy)]
enum Payload<'a> {
    /// An undo pre-image: this many bytes at the entry's `target`.
    Object(usize),
    /// A batch intent: the caller's redo description.
    Bytes(&'a [u8]),
}

/// Per-(thread, domain) append state, padded to avoid false sharing.
/// Single-writer: only the owning thread appends (recovery and resets run
/// quiesced), so the atomics carry visibility, not mutual exclusion.
#[repr(align(64))]
#[derive(Default)]
struct Slot {
    /// Bytes appended so far.
    cursor: AtomicU64,
    /// Start of the **staged** (appended, not yet persisted) byte range,
    /// which always ends at `cursor`; `staged == cursor` means drained.
    staged: AtomicU64,
    /// Bytes from the buffer's start its segments cover, capped at the
    /// buffer's capacity. Moves back only at a boundary that returns the
    /// segments past the first ([`ExtLog::reset_domain`]). Stored only
    /// under the domain's free-segment lock; the owner's unlocked read in
    /// [`ExtLog::has_room`] may be stale, and the boundary that trims it
    /// completes before any pin the owner takes after it, so a check made
    /// under a pin sees the trim.
    room: AtomicU64,
    /// Leading directory words of the slot known to be written back; the
    /// next drain writes back the rest of the slot's segments' words.
    dir_durable: AtomicU64,
}

impl Slot {
    fn reset(&self) {
        self.cursor.store(0, Ordering::Relaxed);
        self.staged.store(0, Ordering::Relaxed);
    }
}

/// One domain's log segments that no buffer holds, and how many it owns.
#[derive(Default)]
struct Free {
    /// Returned by boundaries: resident already, so taken first (the
    /// most recently returned first) and never populated again.
    returned: Vec<u64>,
    /// Cut from a claimed or adopted extent and not held since, in
    /// descending order (the lowest is taken first).
    fresh: Vec<u64>,
    /// Segments of the domain's log extents, held and free (0 for a
    /// standalone log, which owns no extent).
    owned: u64,
}

/// A batch intent entry surfaced (not applied) by replay: the staged redo
/// payload of one batch operation on one shard, awaiting in-doubt
/// resolution by the layer that owns the batch-commit table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntentEntry {
    /// The thread slot the intent was appended from.
    pub thread: usize,
    /// The domain epoch the intent was staged in.
    pub epoch: u64,
    /// The batch id (stored in the entry's target word — intents have no
    /// target object; they describe an operation, not a pre-image).
    pub batch_id: u64,
    /// The opaque redo payload, exactly as staged.
    pub payload: Vec<u8>,
}

/// Report returned by [`ExtLog::replay_domain`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Entries copied back into their objects.
    pub entries_applied: u64,
    /// Total payload bytes copied back.
    pub bytes_applied: u64,
    /// Where each slot's valid prefix ended (cursor positions after
    /// replay).
    pub scan_stopped_at: Vec<u64>,
    /// Every applied `(target, len)`, for structural post-passes (the
    /// durable tree re-derives child parent pointers from restored
    /// interior images).
    pub applied: Vec<(u64, u64)>,
    /// Batch intent entries found in the scanned valid prefixes, in slot
    /// order then append order (deterministic at any caller parallelism
    /// over distinct domains). Intents are validated and collected, never
    /// applied — resolution belongs to the batch-commit layer.
    pub intents: Vec<IntentEntry>,
}

/// The segment size and directory words per slot of a log of `threads ×
/// domains` buffers capped at `per_slot` bytes, whose extents hold
/// `extent_bytes`: the largest power of two no larger than the buffer or
/// an even share of one extent per thread, floored at [`MIN_SEGMENT`]
/// unless one segment then holds the whole buffer, and doubled while the
/// buffers' words would not fit the superblock's directory.
fn geometry(
    per_slot: u64,
    extent_bytes: u64,
    threads: usize,
    domains: usize,
) -> incll_pmem::Result<(u64, u64)> {
    let share = per_slot.min(extent_bytes / threads as u64).max(1);
    let mut segment = (1u64 << share.ilog2())
        .max(MIN_SEGMENT)
        .min(per_slot.next_power_of_two());
    loop {
        let words = per_slot.div_ceil(segment);
        if (threads * domains) as u64 * words <= superblock::MAX_LOG_SEGMENTS as u64 {
            return Ok((segment, words));
        }
        if segment >= extent_bytes {
            return Err(incll_pmem::Error::OutOfMemory {
                requested: threads * domains,
                capacity: superblock::MAX_LOG_SEGMENTS,
            });
        }
        segment *= 2;
    }
}

/// The arena offset of byte `off` of `(thread, domain)`'s buffer, read
/// from the durable descriptor and directory — a test seam for poking a
/// log on media without a handle to it.
#[doc(hidden)]
pub fn slot_offset(arena: &PArena, thread: usize, domain: usize, off: u64) -> u64 {
    let domains = arena.pread_u64(superblock::SB_EXTLOG_DOMAINS) as usize;
    let segment = arena.pread_u64(superblock::SB_EXTLOG_SEGMENT);
    let words = arena.pread_u64(superblock::SB_EXTLOG_DIR_WORDS);
    let word = (thread * domains + domain) as u64 * words + off / segment;
    arena.pread_u64(superblock::log_dir_off(word as usize)) + off % segment
}

/// The external undo log: per-thread durable append buffers.
///
/// # Example
///
/// ```
/// use incll_pmem::{superblock, PArena};
/// use incll_extlog::ExtLog;
///
/// # fn main() -> Result<(), incll_pmem::Error> {
/// let arena = PArena::builder().capacity_bytes(1 << 20).build()?;
/// superblock::format(&arena);
/// let log = ExtLog::create(&arena, 2, 64 * 1024)?;
///
/// // A durable object we will clobber and then restore.
/// let obj = arena.carve(64, 64)?;
/// arena.pwrite_u64(obj, 0xAAAA);
/// log.log_object_in(/*thread*/ 0, /*domain*/ 0, /*epoch*/ 1, obj, 64); // undo image
/// arena.pwrite_u64(obj, 0xBBBB); // the guarded modification
///
/// // Crash in domain 0's epoch 1: replay restores the pre-image.
/// let report = log.replay_domain(0, 1, 1);
/// assert_eq!(report.entries_applied, 1);
/// assert_eq!(arena.pread_u64(obj), 0xAAAA);
/// # Ok(())
/// # }
/// ```
pub struct ExtLog {
    arena: PArena,
    /// Capacity of one (thread, domain) buffer, in bytes.
    per_slot: u64,
    /// Bytes per segment (a power of two).
    segment: u64,
    /// Directory words per slot.
    words: u64,
    /// Bytes per pool extent the log cuts segments from (0: standalone).
    extent_bytes: u64,
    /// Thread slots.
    threads: usize,
    /// Epoch domains.
    domains: usize,
    /// One append state per (thread, domain), thread-major.
    slots: Vec<Slot>,
    /// Per domain: its free segments. The lock also makes a buffer's
    /// growth and a boundary's trim of it run one at a time.
    free: Vec<Mutex<Free>>,
}

impl ExtLog {
    /// A standalone single-domain log for `slots` threads of `per_thread`
    /// bytes each (see [`ExtLog::create_sharded`]).
    ///
    /// # Errors
    ///
    /// Propagates arena carve failures
    /// ([`incll_pmem::Error::OutOfMemory`]).
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn create(arena: &PArena, slots: usize, per_thread: usize) -> incll_pmem::Result<Self> {
        Self::create_sharded(arena, slots, per_thread, 1)
    }

    /// A standalone log, with no extent pool to grow into: each of
    /// `threads` thread slots gets `domains` independent buffers of
    /// `per_thread / domains` bytes (the per-thread total is unchanged by
    /// sharding), every segment of which is carved from the arena here,
    /// and the layout is recorded in the superblock.
    ///
    /// # Errors
    ///
    /// Propagates arena carve failures
    /// ([`incll_pmem::Error::OutOfMemory`]).
    ///
    /// # Panics
    ///
    /// Panics if `threads` or `domains` is zero.
    pub fn create_sharded(
        arena: &PArena,
        threads: usize,
        per_thread: usize,
        domains: usize,
    ) -> incll_pmem::Result<Self> {
        let layout = Self::describe(arena, threads, per_thread, domains, 0)?;
        let words = (threads * domains) as u64 * layout.words;
        // Position-major, so a buffer's consecutive segments are not
        // adjacent in the arena once there are two buffers.
        for pos in 0..layout.words {
            for slot in 0..(threads * domains) as u64 {
                let seg = arena.carve(layout.segment as usize, 64)?;
                let word = slot * layout.words + pos;
                arena.pwrite_u64(superblock::log_dir_off(word as usize), seg);
            }
        }
        arena.clwb_range(superblock::SB_LOG_DIR, words as usize * 8);
        arena.sfence();
        Ok(Self::open(arena))
    }

    /// A store's log: `threads × domains` buffers of `per_thread /
    /// domains` bytes each, whose segments are cut from pool extents of
    /// `extent_bytes` bytes that `claim(domain)` claims durably for the
    /// domain's log, returning the extent's offset. One extent is claimed
    /// per domain here, and every slot of the domain takes its first
    /// segment from it; buffers grow past that by [`ExtLog::grow`].
    ///
    /// # Errors
    ///
    /// What `claim` returns, and
    /// [`incll_pmem::Error::OutOfMemory`] when the buffers would need more
    /// segments than the superblock's directory holds.
    ///
    /// # Panics
    ///
    /// Panics if `threads` or `domains` is zero.
    pub fn create_in_pool(
        arena: &PArena,
        threads: usize,
        per_thread: usize,
        domains: usize,
        extent_bytes: u64,
        mut claim: impl FnMut(usize) -> incll_pmem::Result<u64>,
    ) -> incll_pmem::Result<Self> {
        let log = Self::with_layout(
            arena.clone(),
            Self::describe(arena, threads, per_thread, domains, extent_bytes)?,
        );
        for d in 0..domains {
            for t in 0..threads {
                log.grow(t, d, 1, false, || claim(d))?;
            }
        }
        Ok(log)
    }

    /// Checks the geometry and writes the descriptor; holds no segment.
    fn describe(
        arena: &PArena,
        threads: usize,
        per_thread: usize,
        domains: usize,
        extent_bytes: u64,
    ) -> incll_pmem::Result<Layout> {
        assert!(threads > 0, "external log needs at least one slot");
        assert!(domains > 0, "external log needs at least one domain");
        let per_slot = ((per_thread / domains) as u64).next_multiple_of(64).max(64);
        let span = if extent_bytes == 0 {
            STANDALONE_EXTENT
        } else {
            extent_bytes
        };
        let (segment, words) = geometry(per_slot, span, threads, domains)?;
        arena.pwrite_u64(superblock::SB_EXTLOG_THREADS, threads as u64);
        arena.pwrite_u64(superblock::SB_EXTLOG_PER_THREAD, per_slot);
        arena.pwrite_u64(superblock::SB_EXTLOG_DOMAINS, domains as u64);
        arena.pwrite_u64(superblock::SB_EXTLOG_SEGMENT, segment);
        arena.pwrite_u64(superblock::SB_EXTLOG_DIR_WORDS, words);
        arena.clwb(superblock::SB_EXTLOG_THREADS);
        arena.sfence();
        Ok(Layout {
            per_slot,
            segment,
            words,
            extent_bytes,
            threads,
            domains,
        })
    }

    /// Opens the log recorded in the superblock of a recovered arena.
    ///
    /// Cursors start at zero; [`ExtLog::replay_domain`] repositions them past the
    /// surviving valid prefix so new entries do not clobber pre-images that
    /// are still needed. Each buffer holds the segments its directory
    /// words name up to the first word that is empty; a store's log then
    /// takes back the rest of each domain's extents with
    /// [`ExtLog::adopt_extents`].
    ///
    /// # Panics
    ///
    /// Panics if the superblock carries no log descriptor.
    pub fn open(arena: &PArena) -> Self {
        let layout = Layout {
            threads: arena.pread_u64(superblock::SB_EXTLOG_THREADS) as usize,
            per_slot: arena.pread_u64(superblock::SB_EXTLOG_PER_THREAD),
            domains: arena.pread_u64(superblock::SB_EXTLOG_DOMAINS) as usize,
            segment: arena.pread_u64(superblock::SB_EXTLOG_SEGMENT),
            words: arena.pread_u64(superblock::SB_EXTLOG_DIR_WORDS),
            extent_bytes: arena.pread_u64(superblock::SB_ARENA_REGION_BYTES),
        };
        assert!(
            layout.threads > 0 && layout.domains > 0 && layout.segment.is_power_of_two(),
            "arena has no external log descriptor"
        );
        let log = Self::with_layout(arena.clone(), layout);
        for (i, slot) in log.slots.iter().enumerate() {
            let held = (0..log.words)
                .take_while(|&p| arena.pread_u64(log.dir_off(i, p)) != 0)
                .count() as u64;
            slot.room
                .store((held * log.segment).min(log.per_slot), Ordering::Relaxed);
            slot.dir_durable.store(held, Ordering::Relaxed);
        }
        log
    }

    fn with_layout(arena: PArena, l: Layout) -> Self {
        ExtLog {
            arena,
            per_slot: l.per_slot,
            segment: l.segment,
            words: l.words,
            extent_bytes: l.extent_bytes,
            threads: l.threads,
            domains: l.domains,
            slots: (0..l.threads * l.domains)
                .map(|_| Slot::default())
                .collect(),
            free: (0..l.domains)
                .map(|_| Mutex::new(Free::default()))
                .collect(),
        }
    }

    /// Takes back `domain`'s log extents (their offsets, as the owner
    /// table names them) after [`ExtLog::open`]: every segment of them
    /// that no slot's directory names becomes one of the domain's free
    /// segments — those of a claim a crash left in doubt included. Reads
    /// the directory, writes nothing.
    pub fn adopt_extents(&self, domain: usize, extents: &[u64]) {
        let held: std::collections::HashSet<u64> = (0..self.threads)
            .flat_map(|t| {
                let slot = self.slot_index(t, domain);
                (0..self.words).map(move |p| self.arena.pread_u64(self.dir_off(slot, p)))
            })
            .collect();
        let per_extent = self.extent_bytes / self.segment;
        let mut fresh: Vec<u64> = extents
            .iter()
            .flat_map(|&e| (0..per_extent).map(move |i| e + i * self.segment))
            .filter(|s| !held.contains(s))
            .collect();
        fresh.sort_unstable_by(|a, b| b.cmp(a));
        *self.free[domain].lock() = Free {
            returned: Vec::new(),
            fresh,
            owned: extents.len() as u64 * per_extent,
        };
    }

    /// Bytes of the pool extents `domain`'s log owns: its buffers'
    /// segments and its free ones. A bounded [`ExtLog::grow`] claims no
    /// extent once this reaches one buffer's capacity plus one segment
    /// per thread slot, so it stays within that bound rounded up to whole
    /// extents, unless unbounded growth claimed more. 0 for a standalone
    /// log. Briefly takes the domain's free-segment lock.
    pub fn bytes_held(&self, domain: usize) -> u64 {
        self.free[domain].lock().owned * self.segment
    }

    /// The bytes past which a bounded [`ExtLog::grow`] claims no extent
    /// for a domain: one buffer's capacity plus one segment per thread
    /// slot — what every buffer keeps across a boundary, plus room for
    /// one buffer to fill to its cap.
    pub fn held_bound(&self) -> u64 {
        self.per_slot + self.threads as u64 * self.segment
    }

    /// Bytes appended to `(thread, domain)`'s buffer but not yet
    /// persisted: intents staged since the slot's last drain or guarding
    /// append.
    pub fn staged_bytes(&self, thread: usize, domain: usize) -> u64 {
        let slot = &self.slots[self.slot_index(thread, domain)];
        slot.cursor
            .load(Ordering::Relaxed)
            .saturating_sub(slot.staged.load(Ordering::Relaxed))
    }

    /// Persists `(thread, domain)`'s staged run, if any: one
    /// `clwb_range` over it plus one `sfence` — how a guarding append
    /// seals itself and whatever was staged before it. No-op when
    /// nothing is staged.
    fn drain(&self, thread: usize, domain: usize) {
        let slot = self.slot_index(thread, domain);
        if self.drain_clwb(slot) {
            self.arena.sfence();
        }
    }

    /// Persists every thread's staged run in `domain` — the domain's
    /// epoch-boundary drain (writers are quiesced there, so the sweep is
    /// race-free). All slots' `clwb`s share a single trailing `sfence`.
    pub fn drain_domain(&self, domain: usize) {
        let mut any = false;
        for t in 0..self.threads {
            any |= self.drain_clwb(self.slot_index(t, domain));
        }
        if any {
            self.arena.sfence();
        }
    }

    /// Persists `thread`'s staged runs in the domains of `mask` (bit `d`
    /// for domain `d`) — the batch layer's drain: one commit's intents,
    /// staged across all the shards it covers, become durable behind a
    /// single trailing `sfence` (the per-thread mirror of
    /// [`ExtLog::drain_domain`]). Only the owning thread may call it, and
    /// only while it holds pins on those domains: a boundary in a domain
    /// it does not pin may be trimming that buffer.
    pub fn drain_thread(&self, thread: usize, mask: u64) {
        let mut any = false;
        for d in (0..self.domains).filter(|&d| mask & (1u64 << d) != 0) {
            any |= self.drain_clwb(self.slot_index(thread, d));
        }
        if any {
            self.arena.sfence();
        }
    }

    /// Issues the `clwb_range` for `slot`'s staged run — and for the
    /// directory words of segments the slot took since its last drain,
    /// so the entries and the words that find them persist under the
    /// same fence — and marks it drained; returns whether anything was
    /// staged. The caller owns the trailing `sfence`.
    fn drain_clwb(&self, slot: usize) -> bool {
        let state = &self.slots[slot];
        let cur = state.cursor.load(Ordering::Relaxed);
        let start = state.staged.load(Ordering::Relaxed);
        if start >= cur {
            return false;
        }
        self.for_each_piece(slot, start, cur - start, |at, len| {
            self.arena.clwb_range(at, len)
        });
        let held = state.room.load(Ordering::Relaxed).div_ceil(self.segment);
        let durable = state.dir_durable.load(Ordering::Relaxed);
        if held > durable {
            self.arena
                .clwb_range(self.dir_off(slot, durable), ((held - durable) * 8) as usize);
            state.dir_durable.store(held, Ordering::Relaxed);
        }
        state.staged.store(cur, Ordering::Relaxed);
        true
    }

    /// Capacity of one (thread, domain) buffer, in bytes: the most it may
    /// hold, whether or not it holds the segments for it yet.
    pub fn slot_capacity(&self) -> u64 {
        self.per_slot
    }

    /// Log bytes an entry with a `payload_len`-byte payload occupies
    /// (header plus the payload padded to 8 bytes) — for callers that
    /// must check a buffer's room before they start appending.
    pub const fn entry_bytes(payload_len: usize) -> u64 {
        HEADER + ((payload_len as u64 + 7) & !7)
    }

    /// The raw buffer index of `(thread, domain)`.
    #[inline]
    fn slot_index(&self, thread: usize, domain: usize) -> usize {
        debug_assert!(thread < self.threads && domain < self.domains);
        thread * self.domains + domain
    }

    /// Offset of buffer `slot`'s directory word for segment `pos`.
    #[inline]
    fn dir_off(&self, slot: usize, pos: u64) -> u64 {
        superblock::log_dir_off((slot as u64 * self.words + pos) as usize)
    }

    /// The segment position of byte `off` of a buffer, and its offset
    /// within that segment (a power of two: a shift and a mask).
    #[inline]
    fn split(&self, off: u64) -> (u64, u64) {
        (
            off >> self.segment.trailing_zeros(),
            off & (self.segment - 1),
        )
    }

    /// Arena offset of byte `off` of buffer `slot`.
    #[inline]
    fn at(&self, slot: usize, off: u64) -> u64 {
        let (pos, within) = self.split(off);
        self.arena.pread_u64(self.dir_off(slot, pos)) + within
    }

    /// [`ExtLog::at`], remembering in `last` the segment it looked up
    /// (its position and arena offset): a scan through a buffer reads
    /// each directory word once.
    #[inline]
    fn at_from(&self, slot: usize, off: u64, last: &mut (u64, u64)) -> u64 {
        let (pos, within) = self.split(off);
        if pos != last.0 {
            *last = (pos, self.arena.pread_u64(self.dir_off(slot, pos)));
        }
        last.1 + within
    }

    /// Arena offsets of the four header words of the entry at byte `off`
    /// of buffer `slot`. Words are 8-aligned and segments whole lines, so
    /// each word lies in one segment, and all four share the entry's
    /// first unless the header straddles a boundary: one directory
    /// lookup in the common case.
    #[inline]
    fn header_words(&self, slot: usize, off: u64) -> [u64; 4] {
        let at = self.at(slot, off);
        let first = self.split(off).1;
        std::array::from_fn(|i| {
            let w = 8 * i as u64;
            if first + w < self.segment {
                at + w
            } else {
                self.at(slot, off + w)
            }
        })
    }

    /// Calls `f(arena offset, len)` for each piece of buffer `slot`'s
    /// bytes `[off, off + len)` that lies in one segment, in order.
    fn for_each_piece(&self, slot: usize, mut off: u64, len: u64, mut f: impl FnMut(u64, usize)) {
        let end = off + len;
        while off < end {
            let n = (self.segment - self.split(off).1).min(end - off);
            f(self.at(slot, off), n as usize);
            off += n;
        }
    }

    /// Writes `bytes` at byte `off` of buffer `slot`, a piece per segment.
    fn write_at(&self, slot: usize, off: u64, bytes: &[u8]) {
        let mut done = 0;
        self.for_each_piece(slot, off, bytes.len() as u64, |at, n| {
            self.arena.pwrite_bytes(at, &bytes[done..done + n]);
            done += n;
        });
    }

    /// Reads `buf.len()` bytes at byte `off` of buffer `slot`.
    fn read_at(&self, slot: usize, off: u64, buf: &mut [u8]) {
        let mut done = 0;
        self.for_each_piece(slot, off, buf.len() as u64, |at, n| {
            self.arena.pread_bytes(at, &mut buf[done..done + n]);
            done += n;
        });
    }

    /// Bytes currently appended in `(thread, domain)`'s buffer.
    pub fn used_in(&self, thread: usize, domain: usize) -> u64 {
        self.slots[self.slot_index(thread, domain)]
            .cursor
            .load(Ordering::Relaxed)
    }

    /// Whether `(thread, domain)`'s buffer holds segments for `need`
    /// bytes past its cursor: a writer's room check, two loads from the
    /// slot's own line and one compare. When `false`, the buffer is short
    /// (a boundary must empty it) or only its segments are
    /// ([`ExtLog::grow`]). A `true` holds until the domain's next
    /// boundary, which may trim the buffer back to its first segment: a
    /// writer that needs more than that segment checks again once its pin
    /// holds boundaries off.
    #[inline]
    pub fn has_room(&self, thread: usize, domain: usize, need: u64) -> bool {
        let slot = &self.slots[self.slot_index(thread, domain)];
        slot.cursor.load(Ordering::Relaxed) + need <= slot.room.load(Ordering::Relaxed)
    }

    /// Gives `(thread, domain)`'s buffer segments through `cursor + need`
    /// (capped at its capacity), so appends within that reservation have
    /// somewhere to go and meet no page fault. Each missing segment is
    /// the one the slot's directory already names there, else one the
    /// domain's boundaries returned, else the domain's lowest fresh
    /// segment, else the first of a fresh extent that `claim` claims
    /// durably for the domain's log (its offset). Its directory word is
    /// stored, and it is [populated](PArena::populate) unless a boundary
    /// returned it. Only the buffer's owning thread may call it.
    ///
    /// `bounded` caps the domain's log: no extent is claimed once its
    /// segments, held and free, reach [`ExtLog::held_bound`]. Then, and
    /// only then, this returns `Ok(false)`, with the segments taken
    /// before it kept: a boundary in the domain returns every buffer's
    /// segments past its first, which are enough for this buffer's whole
    /// capacity.
    ///
    /// # Errors
    ///
    /// What `claim` returns (the pool is full); the segments taken before
    /// it stay the slot's.
    pub fn grow(
        &self,
        thread: usize,
        domain: usize,
        need: u64,
        bounded: bool,
        mut claim: impl FnMut() -> incll_pmem::Result<u64>,
    ) -> incll_pmem::Result<bool> {
        let slot = self.slot_index(thread, domain);
        let state = &self.slots[slot];
        let mut cold = Vec::new();
        let grown = {
            let mut free = self.free[domain].lock();
            let want = (state.cursor.load(Ordering::Relaxed) + need).min(self.per_slot);
            let mut room = state.room.load(Ordering::Relaxed);
            loop {
                if room >= want {
                    break Ok(true);
                }
                let pos = room.div_ceil(self.segment);
                let word = self.dir_off(slot, pos);
                let named = self.arena.pread_u64(word);
                let seg = if named != 0 {
                    cold.push(named);
                    named
                } else if let Some(seg) = free.returned.pop() {
                    seg
                } else {
                    match self.take_fresh(&mut free, bounded, &mut claim) {
                        Ok(Some(seg)) => {
                            cold.push(seg);
                            seg
                        }
                        Ok(None) => break Ok(false),
                        Err(e) => break Err(e),
                    }
                };
                self.arena.pwrite_u64(word, seg);
                room = ((pos + 1) * self.segment).min(self.per_slot);
                state.room.store(room, Ordering::Relaxed);
            }
        };
        // Outside the lock: a boundary's trim never waits on a page fault.
        for seg in cold {
            self.arena.populate(seg, self.segment as usize);
        }
        grown
    }

    /// The domain's lowest fresh segment, else the first of a fresh
    /// extent (whose other segments become fresh ones) — or `None` when
    /// `bounded` and the domain's segments have reached the bound.
    fn take_fresh(
        &self,
        free: &mut Free,
        bounded: bool,
        claim: &mut impl FnMut() -> incll_pmem::Result<u64>,
    ) -> incll_pmem::Result<Option<u64>> {
        if let Some(seg) = free.fresh.pop() {
            return Ok(Some(seg));
        }
        if bounded && free.owned * self.segment >= self.held_bound() {
            return Ok(None);
        }
        let extent = claim()?;
        let segments = self.extent_bytes / self.segment;
        free.fresh
            .extend((1..segments).rev().map(|i| extent + i * self.segment));
        free.owned += segments;
        Ok(Some(extent))
    }

    /// Logs the `len` bytes at arena offset `target` as an undo entry for
    /// `epoch` **of domain `domain`** in `(thread, domain)`'s buffer. The
    /// domain id is sealed into the checksummed entry tag, so replay can
    /// verify attribution (the durable tree's domains are its shards).
    ///
    /// Durable before return, together with anything staged before it in
    /// the buffer: one `clwb_range` + `sfence` covers the slot's whole
    /// staged run, since the caller may modify the object as soon as this
    /// returns (the write-ahead invariant). Each buffer is single-writer:
    /// callers pass their own thread's slot.
    ///
    /// # Panics
    ///
    /// Panics if the buffer's segments are full (reserve room first, see
    /// the crate docs' *Segments*) or if `thread` or `domain` is out of
    /// range.
    pub fn log_object_in(&self, thread: usize, domain: usize, epoch: u64, target: u64, len: usize) {
        self.log_ranges_in(thread, domain, epoch, &[(target, len)], 1);
    }

    /// Logs each `(target, len)` of `ranges` as one undo entry for `epoch`
    /// of domain `domain`, back to back in `(thread, domain)`'s buffer,
    /// and seals them all — with anything staged before them — under one
    /// `clwb_range` + `sfence` before returning.
    ///
    /// The ranges must not overlap each other or any other undo entry of
    /// the epoch, or replay would depend on order. Every payload byte is
    /// counted ([`incll_pmem::Stats::ext_bytes_logged`]), the ranges as
    /// `objects` logged objects ([`incll_pmem::Stats::ext_nodes_logged`]):
    /// a caller capturing one object range by range across calls counts
    /// it at its first call only.
    ///
    /// # Panics
    ///
    /// As for [`ExtLog::log_object_in`].
    pub fn log_ranges_in(
        &self,
        thread: usize,
        domain: usize,
        epoch: u64,
        ranges: &[(u64, usize)],
        objects: u64,
    ) {
        let slot = self.slot_index(thread, domain);
        for &(target, len) in ranges {
            self.append(slot, epoch, target, Payload::Object(len), domain as u16);
        }
        self.arena.stats().add_ext_nodes(objects);
        // Seal before return: the caller modifies the logged ranges the
        // moment we return, and a crash may persist any dirty line of
        // that modification — the pre-images must already be durable.
        self.drain(thread, domain);
    }

    /// Stages a batch **intent** for `epoch` of domain `domain` in
    /// `(thread, domain)`'s buffer. The entry's tag is
    /// `domain | `[`INTENT_TAG_BIT`] and its target word carries
    /// `batch_id`; `payload` is an opaque redo description owned by the
    /// batch layer. Replay of the domain validates and collects intents
    /// ([`ReplayReport::intents`]) without applying them, and they are
    /// discarded with the rest of the buffer at the domain's next epoch
    /// boundary.
    ///
    /// **Not durable on return**: the intent stays staged until an
    /// [`ExtLog::drain_thread`], the slot's next guarding append, or the
    /// boundary — the caller must drain before publishing anything (a
    /// commit record) that makes the intent actionable.
    ///
    /// # Panics
    ///
    /// As for [`ExtLog::log_object_in`].
    pub fn log_intent_in(
        &self,
        thread: usize,
        domain: usize,
        epoch: u64,
        batch_id: u64,
        payload: &[u8],
    ) {
        self.append(
            self.slot_index(thread, domain),
            epoch,
            batch_id,
            Payload::Bytes(payload),
            domain as u16 | INTENT_TAG_BIT,
        );
        self.arena.stats().add_ext_nodes(1);
    }

    /// The one entry writer: payload, then the four header words, then
    /// the cursor, each piece into the segment that holds it. The entry
    /// is only valid once the stored checksum matches, so a torn entry is
    /// detected and ignored by replay. Writes nothing durable by itself —
    /// the entry joins the slot's staged run.
    fn append(&self, slot: usize, epoch: u64, target: u64, payload: Payload<'_>, tag: u16) {
        let len = match payload {
            Payload::Object(len) => len,
            Payload::Bytes(bytes) => bytes.len(),
        };
        let need = Self::entry_bytes(len);
        let state = &self.slots[slot];
        let cur = state.cursor.load(Ordering::Relaxed);
        let room = state.room.load(Ordering::Relaxed);
        assert!(
            cur + need <= room,
            "external log slot {slot} overflow: {cur} + {need} > {room}; \
             reserve log room first, or increase per-thread log capacity"
        );

        let mut hash = checksum::Xxh64::new();
        match payload {
            // A pre-image: chunked copy arena -> log, checksum streamed.
            Payload::Object(len) => {
                let mut copied = 0usize;
                let mut chunk = [0u8; 512];
                while copied < len {
                    let n = (len - copied).min(512);
                    self.arena
                        .pread_bytes(target + copied as u64, &mut chunk[..n]);
                    hash.update(&chunk[..n]);
                    self.write_at(slot, cur + HEADER + copied as u64, &chunk[..n]);
                    copied += n;
                }
            }
            Payload::Bytes(bytes) => {
                hash.update(bytes);
                self.write_at(slot, cur + HEADER, bytes);
            }
        }
        let len_word = pack_len(len as u64, tag);
        let sum = checksum::seal(hash, epoch, target, len_word);
        for (at, word) in self
            .header_words(slot, cur)
            .into_iter()
            .zip([epoch, target, len_word, sum])
        {
            self.arena.pwrite_u64(at, word);
        }

        state.cursor.store(cur + need, Ordering::Relaxed);
        self.arena.stats().add_ext_bytes(len as u64);
    }

    /// Logically discards the whole log (epoch-boundary hook on a
    /// single-domain store, after the checkpoint flush has made every
    /// pre-image obsolete).
    pub fn reset(&self) {
        self.slots.iter().for_each(Slot::reset);
    }

    /// Logically discards one domain's buffers (that domain's
    /// epoch-boundary hook): its completed epoch's pre-images are obsolete,
    /// while other domains' still-at-risk entries are untouched.
    ///
    /// A store's log also gives back every segment past each buffer's
    /// first: their directory words are zeroed and written back behind one
    /// `sfence`, and only then do the segments join the domain's free
    /// ones (see the crate docs' *Segments*). A standalone log keeps
    /// every segment. The domain's writers must be quiesced.
    pub fn reset_domain(&self, domain: usize) {
        let mut free = self.free[domain].lock();
        let mut back = Vec::new();
        for t in 0..self.threads {
            let slot = self.slot_index(t, domain);
            let state = &self.slots[slot];
            state.reset();
            let held = state.room.load(Ordering::Relaxed).div_ceil(self.segment);
            if free.owned == 0 || held <= 1 {
                continue;
            }
            for pos in 1..held {
                let word = self.dir_off(slot, pos);
                back.push(self.arena.pread_u64(word));
                self.arena.pwrite_u64(word, 0);
            }
            self.arena
                .clwb_range(self.dir_off(slot, 1), ((held - 1) * 8) as usize);
            state.room.store(self.segment, Ordering::Relaxed);
            let durable = state.dir_durable.load(Ordering::Relaxed);
            state.dir_durable.store(durable.min(1), Ordering::Relaxed);
        }
        if !back.is_empty() {
            self.arena.sfence();
            free.returned.extend(back);
        }
    }

    /// Replays domain `domain`'s buffers, copying pre-images back over
    /// their objects. An entry applies only if it lives in the domain's
    /// buffer, carries the domain's sealed tag and has an epoch inside
    /// `[min_epoch, max_epoch]` — the domain's contiguous run of failed
    /// epochs ending at the crashed one. Each buffer's scan stops at the
    /// first entry that is torn, mis-tagged (treated as corruption) or
    /// outside the range (stale debris from completed epochs); cursors are
    /// repositioned to the end of each valid prefix so subsequent appends
    /// preserve still-needed entries.
    ///
    /// Replay performs no flushes: if the system crashes again before the
    /// next checkpoint, the entries are simply replayed again (§4.3).
    ///
    /// # Concurrency
    ///
    /// `&self`-concurrent across **distinct** domains: each call touches
    /// only its domain's buffers, cursors and (shard-owned) target
    /// objects, and builds its own report — parallel recovery calls this
    /// from one worker per shard. Two concurrent calls on the *same*
    /// domain race on its cursors and are not supported.
    pub fn replay_domain(&self, domain: usize, min_epoch: u64, max_epoch: u64) -> ReplayReport {
        let mut report = ReplayReport::default();
        for t in 0..self.threads {
            self.replay_slot(
                self.slot_index(t, domain),
                min_epoch,
                max_epoch,
                domain as u16,
                &mut report,
            );
        }
        self.arena.stats().add_ext_replayed(report.entries_applied);
        report
    }

    fn replay_slot(
        &self,
        slot: usize,
        min_epoch: u64,
        max_epoch: u64,
        domain: u16,
        report: &mut ReplayReport,
    ) {
        // Only the segments the slot's directory names hold entries.
        let room = self.slots[slot].room.load(Ordering::Relaxed);
        // One payload buffer for the whole slot: each entry is read once,
        // verified in it and applied from it.
        let mut payload = Vec::new();
        let mut cur = 0u64;
        let mut last = (u64::MAX, 0);
        loop {
            if cur + HEADER > room {
                break;
            }
            // Nearly every entry lies in one segment: its header words and
            // payload are then plain offsets from one lookup.
            let at = self.at_from(slot, cur, &mut last);
            let whole = self.split(cur).1 + HEADER;
            let [epoch, target, len_word, sum] = if whole <= self.segment {
                [0, 8, 16, 24].map(|w| self.arena.pread_u64(at + w))
            } else {
                self.header_words(slot, cur)
                    .map(|w| self.arena.pread_u64(w))
            };
            let len = len_word & LEN_MASK;
            let tag = (len_word >> 48) as u16;
            let is_intent = tag & INTENT_TAG_BIT != 0;
            // Three-way tag check: the domain's own undo entries apply,
            // its own intents are collected below, anything else is
            // corruption and stops the slot scan like a torn checksum.
            if epoch < min_epoch
                || epoch > max_epoch
                || len == 0
                || cur + HEADER + len > room
                || (tag != domain && tag != (domain | INTENT_TAG_BIT))
            {
                break;
            }
            let next = cur + HEADER + ((len + 7) & !7);
            // Look-ahead: while this entry is verified, pull the next
            // entry's target towards the core — replay meets every node
            // cold otherwise. The next header is *unverified* (it may be
            // torn or stale debris), so it only ever feeds a bounded,
            // bounds-checked hint; nothing is applied before its own
            // checksum has matched.
            if next + HEADER <= room {
                let ahead = if self.split(next).1 + HEADER <= self.segment {
                    let at = self.at_from(slot, next, &mut last);
                    [at + 8, at + 16]
                } else {
                    let h = self.header_words(slot, next);
                    [h[1], h[2]]
                };
                let ahead_len_word = self.arena.pread_u64(ahead[1]);
                if (ahead_len_word >> 48) as u16 & INTENT_TAG_BIT == 0 {
                    self.arena.prefetch(
                        self.arena.pread_u64(ahead[0]),
                        (ahead_len_word & LEN_MASK).min(PREFETCH_BYTES) as usize,
                    );
                }
            }
            // Verify the checksum before trusting the entry.
            payload.resize(len as usize, 0);
            if whole + len <= self.segment {
                self.arena.pread_bytes(at + HEADER, &mut payload);
            } else {
                self.read_at(slot, cur + HEADER, &mut payload);
            }
            if checksum::entry_checksum(&payload, epoch, target, len_word) != sum {
                break; // torn tail entry: its modification never started
            }
            if is_intent {
                // Collect, never apply: the batch layer resolves
                // intents against the durable commit table after undo
                // replay finishes.
                report.intents.push(IntentEntry {
                    thread: slot / self.domains,
                    epoch,
                    batch_id: target,
                    payload: payload.clone(),
                });
            } else {
                // Apply: copy the pre-image back.
                self.arena.pwrite_bytes(target, &payload);
                report.entries_applied += 1;
                report.bytes_applied += len;
                report.applied.push((target, len));
            }
            cur = next;
        }
        // The surviving prefix is durable by construction; nothing is
        // staged behind it.
        self.slots[slot].cursor.store(cur, Ordering::Relaxed);
        self.slots[slot].staged.store(cur, Ordering::Relaxed);
        report.scan_stopped_at.push(cur);
        // Emulated NVM device time for streaming this buffer's valid
        // prefix (no-op unless the latency model configures a rate;
        // see `LatencyModel::stall_replay_read`).
        self.arena.latency().stall_replay_read(cur);
    }
}

/// An [`ExtLog`]'s geometry, as its descriptor records it.
struct Layout {
    per_slot: u64,
    segment: u64,
    words: u64,
    extent_bytes: u64,
    threads: usize,
    domains: usize,
}

impl std::fmt::Debug for ExtLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExtLog")
            .field("threads", &self.threads)
            .field("domains", &self.domains)
            .field("per_slot", &self.per_slot)
            .field("segment", &self.segment)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(slots: usize) -> (PArena, ExtLog, u64) {
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        let log = ExtLog::create(&arena, slots, 8 * 1024).unwrap();
        let obj = arena.carve(320, 64).unwrap();
        (arena, log, obj)
    }

    fn tracked_log(per_thread: usize) -> (PArena, ExtLog) {
        let arena = PArena::builder()
            .capacity_bytes(1 << 20)
            .tracked(true)
            .build()
            .unwrap();
        superblock::format(&arena);
        arena.global_flush();
        let log = ExtLog::create(&arena, 1, per_thread).unwrap();
        (arena, log)
    }

    fn fill(arena: &PArena, obj: u64, pattern: u64) {
        for i in 0..40 {
            arena.pwrite_u64(obj + i * 8, pattern + i);
        }
    }

    fn check(arena: &PArena, obj: u64, pattern: u64) -> bool {
        (0..40).all(|i| arena.pread_u64(obj + i * 8) == pattern + i)
    }

    #[test]
    fn log_and_replay_restores_preimage() {
        let (arena, log, obj) = setup(1);
        fill(&arena, obj, 100);
        log.log_object_in(0, 0, 1, obj, 320);
        fill(&arena, obj, 999);
        let r = log.replay_domain(0, 1, 1);
        assert_eq!(r.entries_applied, 1);
        assert_eq!(r.bytes_applied, 320);
        assert!(check(&arena, obj, 100));
    }

    #[test]
    fn replay_ignores_completed_epochs() {
        let (arena, log, obj) = setup(1);
        fill(&arena, obj, 100);
        log.log_object_in(0, 0, 1, obj, 320);
        fill(&arena, obj, 200);
        // Epoch 1 completed; its entries are stale.
        let r = log.replay_domain(0, 2, 2);
        assert_eq!(r.entries_applied, 0);
        assert!(check(&arena, obj, 200));
    }

    #[test]
    fn reset_discards_entries() {
        let (arena, log, obj) = setup(1);
        fill(&arena, obj, 100);
        log.log_object_in(0, 0, 1, obj, 320);
        log.reset();
        assert_eq!(log.used_in(0, 0), 0);
        fill(&arena, obj, 200);
        // New entry from epoch 2 overwrites slot start.
        log.log_object_in(0, 0, 2, obj, 320);
        fill(&arena, obj, 300);
        let r = log.replay_domain(0, 2, 2);
        assert_eq!(r.entries_applied, 1);
        assert!(check(&arena, obj, 200));
    }

    #[test]
    fn multi_slot_entries_replay_independently() {
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        let log = ExtLog::create(&arena, 4, 4 * 1024).unwrap();
        let objs: Vec<u64> = (0..4).map(|_| arena.carve(64, 64).unwrap()).collect();
        for (slot, &obj) in objs.iter().enumerate() {
            arena.pwrite_u64(obj, slot as u64 + 10);
            log.log_object_in(slot, 0, 3, obj, 64);
            arena.pwrite_u64(obj, 0);
        }
        let r = log.replay_domain(0, 3, 3);
        assert_eq!(r.entries_applied, 4);
        for (slot, &obj) in objs.iter().enumerate() {
            assert_eq!(arena.pread_u64(obj), slot as u64 + 10);
        }
    }

    #[test]
    fn contiguous_failed_run_replays_all_generations() {
        // Crash in epoch 5, recovery appended epoch-6 entries (no reset),
        // crash again in 6: both generations replay.
        let (arena, log, obj) = setup(1);
        let obj2 = arena.carve(64, 64).unwrap();
        fill(&arena, obj, 100);
        log.log_object_in(0, 0, 5, obj, 320);
        fill(&arena, obj, 500);
        // recovery for 5 would replay here; then epoch 6 logs another obj
        arena.pwrite_u64(obj2, 42);
        log.log_object_in(0, 0, 6, obj2, 64);
        arena.pwrite_u64(obj2, 0);
        let r = log.replay_domain(0, 5, 6);
        assert_eq!(r.entries_applied, 2);
        assert!(check(&arena, obj, 100));
        assert_eq!(arena.pread_u64(obj2), 42);
    }

    #[test]
    fn stale_failed_epoch_beyond_prefix_is_not_replayed() {
        // Failed = {3, 9}. Epoch 3 wrote a big entry; epochs 4..8 completed
        // with no logging (cursor reset each time); epoch 9 wrote one small
        // entry at the buffer start. The intact epoch-3 debris further in
        // must NOT replay (epochs 4..8 committed over it).
        let (arena, log, obj) = setup(1);
        let obj2 = arena.carve(64, 64).unwrap();
        fill(&arena, obj, 100);
        log.log_object_in(0, 0, 3, obj, 320); // epoch-3 debris
        log.reset(); // epochs 4..8 complete
        arena.pwrite_u64(obj2, 7);
        log.log_object_in(0, 0, 9, obj2, 64); // epoch-9 entry (small)
        arena.pwrite_u64(obj2, 8);
        fill(&arena, obj, 400); // committed post-3 state of obj

        // Replay range = contiguous failed run ending at 9 = [9, 9].
        let r = log.replay_domain(0, 9, 9);
        assert_eq!(r.entries_applied, 1);
        assert_eq!(arena.pread_u64(obj2), 7);
        assert!(check(&arena, obj, 400), "epoch-3 debris must stay inert");
    }

    #[test]
    fn torn_entry_is_ignored() {
        let (arena, log, obj) = setup(1);
        fill(&arena, obj, 100);
        log.log_object_in(0, 0, 1, obj, 320);
        // Corrupt the payload to simulate a torn write.
        let base = log.at(0, 0);
        arena.pwrite_u64(base + HEADER + 8, 0xBAD);
        fill(&arena, obj, 500);
        let r = log.replay_domain(0, 1, 1);
        assert_eq!(r.entries_applied, 0);
        assert!(check(&arena, obj, 500));
    }

    #[test]
    fn replay_repositions_cursor_for_safe_append() {
        let (arena, log, obj) = setup(1);
        fill(&arena, obj, 100);
        log.log_object_in(0, 0, 1, obj, 320);
        let used = log.used_in(0, 0);
        // Simulate restart: fresh handle, cursors at zero.
        let log2 = ExtLog::open(&arena);
        assert_eq!(log2.used_in(0, 0), 0);
        let r = log2.replay_domain(0, 1, 1);
        assert_eq!(r.entries_applied, 1);
        assert_eq!(
            log2.used_in(0, 0),
            used,
            "cursor must skip surviving entries"
        );
    }

    #[test]
    fn entry_is_durable_before_modification() {
        // Tracked arena: the log entry must survive a crash taken right
        // after log_object_in returns, even though nothing else was flushed.
        let (arena, log) = tracked_log(4 * 1024);
        let obj = arena.carve(64, 64).unwrap();
        arena.pwrite_u64(obj, 11);
        log.log_object_in(0, 0, 1, obj, 64);
        arena.pwrite_u64(obj, 22); // modification, unflushed
        arena.crash_seeded(3); // adversarial cut everywhere
        let log2 = ExtLog::open(&arena);
        let r = log2.replay_domain(0, 1, 1);
        assert_eq!(r.entries_applied, 1, "sealed entry must survive crash");
        assert_eq!(arena.pread_u64(obj), 11);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics_with_guidance() {
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        let log = ExtLog::create(&arena, 1, 1024).unwrap();
        let obj = arena.carve(320, 64).unwrap();
        for _ in 0..10 {
            log.log_object_in(0, 0, 1, obj, 320);
        }
    }

    #[test]
    fn tag_is_covered_by_the_checksum() {
        // Flipping the tag bits of a sealed entry must invalidate it: a
        // torn header cannot silently reattribute (or resize) an entry.
        // The flip turns the undo entry into one of its own domain's
        // intents, which the tag check admits: only the checksum can
        // reject it.
        let (arena, log, obj) = setup(1);
        fill(&arena, obj, 100);
        log.log_object_in(0, 0, 1, obj, 320);
        fill(&arena, obj, 500);
        let base = log.at(0, 0);
        let w = arena.pread_u64(base + 16);
        arena.pwrite_u64(base + 16, (w & LEN_MASK) | u64::from(INTENT_TAG_BIT) << 48);
        let r = log.replay_domain(0, 1, 1);
        assert_eq!(r.entries_applied, 0);
        assert!(r.intents.is_empty());
        assert!(check(&arena, obj, 500));
    }

    #[test]
    fn domain_buffers_reset_and_replay_independently() {
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        let log = ExtLog::create_sharded(&arena, 1, 16 * 1024, 2).unwrap();
        let obj0 = arena.carve(64, 64).unwrap();
        let obj1 = arena.carve(64, 64).unwrap();

        // Domain 0 in its epoch 4, domain 1 in its (independent) epoch 9.
        arena.pwrite_u64(obj0, 100);
        log.log_object_in(0, 0, 4, obj0, 64);
        arena.pwrite_u64(obj0, 999);
        arena.pwrite_u64(obj1, 200);
        log.log_object_in(0, 1, 9, obj1, 64);
        arena.pwrite_u64(obj1, 999);

        // Domain 0 completes its epoch: only its buffer resets.
        log.reset_domain(0);
        assert_eq!(log.used_in(0, 0), 0);
        assert!(log.used_in(0, 1) > 0);

        // Domain 1 crashes in epoch 9: replay touches only domain 1.
        let r = log.replay_domain(1, 9, 9);
        assert_eq!(r.entries_applied, 1);
        assert_eq!(arena.pread_u64(obj1), 200);
        assert_eq!(arena.pread_u64(obj0), 999, "domain 0 must be untouched");
    }

    #[test]
    fn replay_domain_rejects_mismatched_tags() {
        // A domain buffer holding an entry sealed with a different tag is
        // corrupt; the scan must stop without applying it.
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        let log = ExtLog::create_sharded(&arena, 1, 16 * 1024, 2).unwrap();
        let obj = arena.carve(64, 64).unwrap();
        arena.pwrite_u64(obj, 7);
        log.log_object_in(0, 1, 3, obj, 64);
        arena.pwrite_u64(obj, 8);
        // Rewrite the tag (re-sealing the checksum so only the tag check
        // can reject it).
        let base = log.at(log.slot_index(0, 1), 0);
        let len_word = pack_len(64, 0);
        let mut chunk = [0u8; 64];
        arena.pread_bytes(base + HEADER, &mut chunk);
        arena.pwrite_u64(base + 16, len_word);
        arena.pwrite_u64(
            base + 24,
            checksum::entry_checksum(&chunk, 3, obj, len_word),
        );
        let r = log.replay_domain(1, 3, 3);
        assert_eq!(r.entries_applied, 0, "foreign tag must not replay");
        assert_eq!(arena.pread_u64(obj), 8);
    }

    #[test]
    fn sharded_layout_survives_reopen() {
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        let obj = arena.carve(64, 64).unwrap();
        {
            let log = ExtLog::create_sharded(&arena, 2, 8 * 1024, 4).unwrap();
            arena.pwrite_u64(obj, 5);
            log.log_object_in(1, 3, 7, obj, 64);
            arena.pwrite_u64(obj, 6);
        }
        let log2 = ExtLog::open(&arena);
        assert_eq!((log2.threads, log2.domains), (2, 4));
        let r = log2.replay_domain(3, 7, 7);
        assert_eq!(r.entries_applied, 1);
        assert_eq!(arena.pread_u64(obj), 5);
        assert_eq!(log2.used_in(1, 3), r.scan_stopped_at[1]);
    }

    #[test]
    fn concurrent_replay_of_distinct_domains_is_safe_and_exact() {
        // One worker per domain, all replaying at once (the parallel
        // recovery shape). Repeated many times to shake interleavings out
        // (no vendored loom; iteration count is the interleaving driver).
        const DOMAINS: usize = 4;
        const OBJS_PER_DOMAIN: usize = 8;
        for round in 0..50u64 {
            let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
            superblock::format(&arena);
            let log = ExtLog::create_sharded(&arena, 2, 32 * 1024, DOMAINS).unwrap();
            let mut objs = vec![Vec::new(); DOMAINS];
            for (d, dom_objs) in objs.iter_mut().enumerate() {
                for i in 0..OBJS_PER_DOMAIN {
                    let obj = arena.carve(64, 64).unwrap();
                    let val = (round + 1) * 1000 + (d as u64) * 100 + i as u64;
                    arena.pwrite_u64(obj, val);
                    // Each domain crashes in its own epoch 10 + d.
                    log.log_object_in(i % 2, d, 10 + d as u64, obj, 64);
                    arena.pwrite_u64(obj, 0xDEAD); // doomed overwrite
                    dom_objs.push((obj, val));
                }
            }
            let reports: Vec<ReplayReport> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..DOMAINS)
                    .map(|d| {
                        let log = &log;
                        s.spawn(move || log.replay_domain(d, 10 + d as u64, 10 + d as u64))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for (d, r) in reports.iter().enumerate() {
                assert_eq!(
                    r.entries_applied, OBJS_PER_DOMAIN as u64,
                    "round {round}: domain {d} must replay exactly its own entries"
                );
                for &(obj, val) in &objs[d] {
                    assert_eq!(arena.pread_u64(obj), val, "round {round} domain {d}");
                }
                // Cursors repositioned past this domain's valid prefix.
                assert_eq!(r.scan_stopped_at.len(), 2);
            }
        }
    }

    #[test]
    fn poisoned_tag_in_one_domain_cannot_poison_other_workers_reports() {
        // Regression: a mismatched shard tag in one domain's buffer stops
        // THAT worker's slot scan; concurrent workers on other domains
        // must replay their full counts and report untouched totals.
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        let log = ExtLog::create_sharded(&arena, 1, 16 * 1024, 3).unwrap();
        let mut objs = Vec::new();
        for d in 0..3usize {
            let obj = arena.carve(64, 64).unwrap();
            arena.pwrite_u64(obj, 40 + d as u64);
            log.log_object_in(0, d, 5, obj, 64);
            arena.pwrite_u64(obj, 0);
            objs.push(obj);
        }
        // Poison domain 1's entry: re-seal it with a foreign tag so only
        // the tag check (not the checksum) can reject it.
        let base = log.at(log.slot_index(0, 1), 0);
        let len_word = pack_len(64, 2);
        let mut chunk = [0u8; 64];
        arena.pread_bytes(base + HEADER, &mut chunk);
        arena.pwrite_u64(base + 16, len_word);
        arena.pwrite_u64(
            base + 24,
            checksum::entry_checksum(&chunk, 5, objs[1], len_word),
        );

        let reports: Vec<ReplayReport> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|d| {
                    let log = &log;
                    s.spawn(move || log.replay_domain(d, 5, 5))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(reports[0].entries_applied, 1, "domain 0 unaffected");
        assert_eq!(reports[2].entries_applied, 1, "domain 2 unaffected");
        assert_eq!(reports[1].entries_applied, 0, "poisoned entry rejected");
        assert_eq!(arena.pread_u64(objs[0]), 40);
        assert_eq!(arena.pread_u64(objs[2]), 42);
        assert_eq!(arena.pread_u64(objs[1]), 0, "poisoned entry not applied");
    }

    #[test]
    fn intents_are_collected_not_applied_and_cursor_skips_them() {
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        let log = ExtLog::create_sharded(&arena, 1, 16 * 1024, 2).unwrap();
        let obj = arena.carve(64, 64).unwrap();

        // Domain 1's buffer interleaves an undo entry, an intent, and
        // another undo entry — all in epoch 7.
        arena.pwrite_u64(obj, 111);
        log.log_object_in(0, 1, 7, obj, 64);
        arena.pwrite_u64(obj, 222);
        log.log_intent_in(0, 1, 7, 42, b"put k=v");
        arena.pwrite_u64(obj, 333);

        let r = log.replay_domain(1, 7, 7);
        assert_eq!(r.entries_applied, 1, "only the undo entry applies");
        assert_eq!(arena.pread_u64(obj), 111, "pre-image restored");
        assert_eq!(r.intents.len(), 1);
        assert_eq!(r.intents[0].batch_id, 42);
        assert_eq!(r.intents[0].epoch, 7);
        assert_eq!(r.intents[0].thread, 0);
        assert_eq!(r.intents[0].payload, b"put k=v");
        // The cursor sits past BOTH entries: post-recovery appends must
        // not clobber a still-needed intent.
        assert_eq!(log.used_in(0, 1), r.scan_stopped_at[0]);
        assert_eq!(log.used_in(0, 1), (HEADER + 64) + (HEADER + 8));
    }

    #[test]
    fn torn_intent_stops_the_scan_without_surfacing() {
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        let log = ExtLog::create_sharded(&arena, 1, 16 * 1024, 1).unwrap();
        log.log_intent_in(0, 0, 3, 9, b"payload-bytes");
        // Corrupt the payload: the checksum no longer matches.
        let base = log.at(0, 0);
        arena.pwrite_u64(base + HEADER, 0xBAD);
        let r = log.replay_domain(0, 3, 3);
        assert!(r.intents.is_empty(), "torn intent must not surface");
        assert_eq!(r.entries_applied, 0);
    }

    #[test]
    fn foreign_domain_intent_tag_stops_the_scan() {
        // An intent sealed for domain 2 sitting in domain 1's buffer is
        // corruption, exactly like a foreign undo tag.
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        let log = ExtLog::create_sharded(&arena, 1, 16 * 1024, 3).unwrap();
        log.log_intent_in(0, 1, 5, 77, b"x");
        // Re-seal domain 1's entry with domain 2's intent tag.
        let base = log.at(log.slot_index(0, 1), 0);
        let len_word = pack_len(1, 2 | INTENT_TAG_BIT);
        arena.pwrite_u64(base + 16, len_word);
        arena.pwrite_u64(base + 24, checksum::entry_checksum(b"x", 5, 77, len_word));
        let r = log.replay_domain(1, 5, 5);
        assert!(r.intents.is_empty());
        assert_eq!(r.scan_stopped_at, vec![0]);
    }

    #[test]
    fn one_thread_drain_covers_every_domain_with_one_fence() {
        let arena = PArena::builder()
            .capacity_bytes(1 << 20)
            .tracked(true)
            .build()
            .unwrap();
        superblock::format(&arena);
        arena.global_flush();
        let log = ExtLog::create_sharded(&arena, 2, 16 * 1024, 4).unwrap();
        for d in [0, 2, 3] {
            log.log_intent_in(0, d, 1, 40 + d as u64, b"mine");
        }
        log.log_intent_in(1, 1, 1, 99, b"another thread's");
        log.log_intent_in(0, 1, 1, 41, b"unpinned");
        let before = arena.stats().snapshot();
        log.drain_thread(0, 0b1101);
        assert_eq!(arena.stats().snapshot().delta(&before).sfence, 1);
        assert_ne!(log.staged_bytes(1, 1), 0, "only the caller's runs drain");
        assert_ne!(log.staged_bytes(0, 1), 0, "only the named domains drain");
        log.drain_thread(0, 0b1101);
        assert_eq!(
            arena.stats().snapshot().delta(&before).sfence,
            1,
            "nothing staged, nothing fenced"
        );
        arena.crash_with(|_, _| 0);
        let log = ExtLog::open(&arena);
        for d in 0..4 {
            let ids: Vec<u64> = log
                .replay_domain(d, 1, 1)
                .intents
                .iter()
                .map(|e| e.batch_id)
                .collect();
            let want = if d == 1 { vec![] } else { vec![40 + d as u64] };
            assert_eq!(ids, want, "domain {d}");
        }
    }

    #[test]
    fn intent_is_durable_after_drain_and_vanishes_undrained() {
        for drain in [true, false] {
            let (arena, log) = tracked_log(32 * 1024);
            let a = arena.carve(64, 64).unwrap();
            arena.pwrite_u64(a, 11);
            log.log_object_in(0, 0, 1, a, 64); // durable before return
            arena.pwrite_u64(a, 12);
            log.log_intent_in(0, 0, 1, 77, b"staged-op");
            assert!(log.staged_bytes(0, 0) > 0);
            if drain {
                log.drain(0, 0);
                assert_eq!(log.staged_bytes(0, 0), 0);
            }
            // A power failure persisting nothing still in flight: an
            // un-drained intent vanishes with the rest of the cache —
            // indistinguishable from one never staged, and its batch,
            // necessarily lacking a commit record, is dropped either way.
            arena.crash_with(|_, _| 0);
            let log2 = ExtLog::open(&arena);
            let r = log2.replay_domain(0, 1, 1);
            assert_eq!(r.entries_applied, 1, "the sealed undo entry survives");
            assert_eq!(arena.pread_u64(a), 11, "pre-image restored");
            if drain {
                assert_eq!(r.intents.len(), 1, "a drained intent survives");
                assert_eq!(r.intents[0].payload, b"staged-op");
            } else {
                assert!(r.intents.is_empty(), "the staged intent vanishes");
            }
        }
    }

    #[test]
    fn one_guarded_append_seals_the_staged_intents_with_one_fence() {
        // 15 intents, then one undo entry whose object is modified right
        // after the append: the intents stage, and the guarded append's
        // single seal covers the whole run. The undo entry is durable
        // before the modification (write-ahead), which the replay check
        // proves by restoring the pre-image.
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        let log = ExtLog::create_sharded(&arena, 1, 32 * 1024, 2).unwrap();
        let obj = arena.carve(64, 64).unwrap();
        arena.pwrite_u64(obj, 7);
        let before = arena.stats().snapshot().sfence;
        for i in 0..15 {
            log.log_intent_in(0, 1, 1, 40 + i, b"redo-op");
        }
        log.log_object_in(0, 1, 1, obj, 64);
        let fences = arena.stats().snapshot().sfence - before;
        arena.pwrite_u64(obj, 0xDEAD); // the guarded modification
        assert_eq!(fences, 1, "one seal covers intents + the guarded entry");
        assert_eq!(log.staged_bytes(0, 1), 0);
        let r = log.replay_domain(1, 1, 1);
        assert_eq!(r.entries_applied, 1, "the undo entry replays");
        assert_eq!(r.intents.len(), 15, "every intent is surfaced");
        assert_eq!(arena.pread_u64(obj), 7, "pre-image restored");
    }

    #[test]
    fn intents_stay_staged_until_drain_or_a_guarded_append() {
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        let log = ExtLog::create(&arena, 1, 32 * 1024).unwrap();
        let obj = arena.carve(64, 64).unwrap();
        let before = arena.stats().snapshot();
        // One 64-byte-payload intent occupies HEADER + 64 = 96 bytes; no
        // byte count ever flushes the run by itself.
        let p = [5u8; 64];
        for n in 1..=100u64 {
            log.log_intent_in(0, 0, 1, 9, &p);
            assert_eq!(log.staged_bytes(0, 0), 96 * n);
        }
        let staged = arena.stats().snapshot();
        assert_eq!(staged.sfence, before.sfence, "staging never fences");
        assert_eq!(staged.clwb, before.clwb, "staging never writes back");
        log.drain(0, 0);
        assert_eq!(log.staged_bytes(0, 0), 0, "drain persists the run");
        assert_eq!(arena.stats().snapshot().sfence, before.sfence + 1);
        log.drain(0, 0);
        assert_eq!(
            arena.stats().snapshot().sfence,
            before.sfence + 1,
            "nothing staged, nothing fenced"
        );
        // Undo-object appends never leave the run staged: each guards an
        // imminent in-place modification, so its seal drains everything.
        log.log_intent_in(0, 0, 1, 9, &p);
        assert_eq!(log.staged_bytes(0, 0), 96);
        log.log_object_in(0, 0, 1, obj, 64);
        assert_eq!(log.staged_bytes(0, 0), 0, "guarded append drains the run");
    }

    #[test]
    fn every_subset_of_staged_lines_surfaces_a_prefix_of_the_intents() {
        // Three staged intents over six cache lines (payload lengths are
        // multiples of 8 with no zero byte, so every line of an entry
        // holds checksummed content). A crash may persist any subset of
        // those lines: replay must surface exactly the intents in front
        // of the first entry that lost a line — a prefix, never an intent
        // behind a torn one. After `drain`, no choice loses anything.
        let payloads: [Vec<u8>; 3] = [vec![0xA1; 72], vec![0xB2; 104], vec![0xC3; 56]];
        let mut spans = Vec::new(); // each intent's [first, last] line, slot-relative
        let mut off = 0u64;
        for p in &payloads {
            let end = off + ExtLog::entry_bytes(p.len());
            spans.push((off / 64, (end - 1) / 64));
            off = end;
        }
        let lines = spans[2].1 + 1;
        assert!(lines >= 4, "the run must span several lines");
        for drained in [false, true] {
            for kept in 0u32..1 << lines {
                let (arena, log) = tracked_log(4 * 1024);
                for (i, p) in payloads.iter().enumerate() {
                    log.log_intent_in(0, 0, 1, 10 + i as u64, p);
                }
                if drained {
                    log.drain(0, 0);
                }
                let first_line = log.at(0, 0) / 64;
                arena.crash_with(|line, n| {
                    let rel = line.wrapping_sub(first_line);
                    if rel < lines && kept & (1 << rel) == 0 {
                        0
                    } else {
                        n
                    }
                });
                let r = ExtLog::open(&arena).replay_domain(0, 1, 1);
                let intact = |&(lo, hi): &(u64, u64)| (lo..=hi).all(|l| kept & (1 << l) != 0);
                let want = if drained {
                    3
                } else {
                    spans.iter().take_while(|s| intact(s)).count()
                };
                assert_eq!(
                    r.intents.len(),
                    want,
                    "drained={drained} kept={kept:#b}: valid prefix only"
                );
                for (i, e) in r.intents.iter().enumerate() {
                    assert_eq!(e.batch_id, 10 + i as u64);
                    assert_eq!(e.payload, payloads[i]);
                }
            }
        }
    }

    /// A pooled log over a tracked arena: `threads` slots of `per_slot`
    /// bytes on one domain, whose extents of `extent` bytes are carved
    /// from the arena (the stand-in for the allocator's pool), and the
    /// list of extents claimed so far.
    fn pooled(
        threads: usize,
        per_slot: usize,
        extent: u64,
    ) -> (PArena, ExtLog, std::sync::Arc<Mutex<Vec<u64>>>) {
        let arena = PArena::builder()
            .capacity_bytes(4 << 20)
            .tracked(true)
            .build()
            .unwrap();
        superblock::format(&arena);
        arena.pwrite_u64(superblock::SB_ARENA_REGION_BYTES, extent);
        let claimed = std::sync::Arc::new(Mutex::new(Vec::new()));
        let c = claimed.clone();
        let a = arena.clone();
        let log = ExtLog::create_in_pool(&arena, threads, per_slot, 1, extent, move |_| {
            let e = a.reserve(extent as usize, 64)?;
            c.lock().push(e);
            Ok(e)
        })
        .unwrap();
        arena.global_flush();
        (arena, log, claimed)
    }

    /// Carves a fresh extent for `log`'s growth, recording it.
    fn claim_into<'a>(
        arena: &PArena,
        claimed: &'a Mutex<Vec<u64>>,
        extent: u64,
    ) -> impl FnMut() -> incll_pmem::Result<u64> + 'a {
        let arena = arena.clone();
        move || {
            let e = arena.reserve(extent as usize, 64)?;
            claimed.lock().push(e);
            Ok(e)
        }
    }

    #[test]
    fn segments_follow_the_rule_and_slots_share_an_extent() {
        // 4 slots of 1 MiB on 256 KiB extents: 64 KiB segments, one
        // extent gives every slot its first, and nothing else is held.
        let (_arena, log, claimed) = pooled(4, 1 << 20, 256 << 10);
        assert_eq!((log.segment, log.words), (64 << 10, 16));
        assert_eq!(claimed.lock().len(), 1);
        let e = claimed.lock()[0];
        for t in 0..4 {
            assert_eq!(log.at(log.slot_index(t, 0), 0), e + t as u64 * (64 << 10));
            assert!(log.has_room(t, 0, 64 << 10));
            assert!(!log.has_room(t, 0, (64 << 10) + 1));
        }
        // Tiny buffers take one segment each, never below a whole buffer;
        // large shares are floored at the minimum segment.
        assert_eq!(geometry(4096, 1 << 20, 8, 1).unwrap(), (4096, 1));
        assert_eq!(geometry(6144, 1 << 20, 8, 1).unwrap(), (8192, 1));
        assert_eq!(
            geometry(1 << 20, 64 << 10, 16, 1).unwrap(),
            (MIN_SEGMENT, 64)
        );
        // Too many buffers for the directory double the segment until
        // they fit, and fail typed when even a whole extent does not.
        let (seg, words) = geometry(16 << 20, 1 << 20, 64, 4).unwrap();
        assert!(256 * words <= superblock::MAX_LOG_SEGMENTS as u64 && seg > 16 << 10);
        assert!(geometry(16 << 20, 1 << 20, 64, 64).is_err());
    }

    #[test]
    fn growth_takes_free_segments_first_and_claims_only_when_none_is_left() {
        // Three slots of 192 KiB on 512 KiB extents: 128 KiB segments,
        // two per slot at most, and create's extent leaves one free.
        let (arena, log, claimed) = pooled(3, 192 << 10, 512 << 10);
        let seg = log.segment;
        assert_eq!((seg, log.words), (128 << 10, 2));
        let e0 = claimed.lock()[0];
        log.grow(
            0,
            0,
            192 << 10,
            false,
            claim_into(&arena, &claimed, 512 << 10),
        )
        .unwrap();
        assert_eq!(log.at(0, seg), e0 + 3 * seg, "the free segment first");
        assert_eq!(claimed.lock().len(), 1);
        log.grow(
            1,
            0,
            192 << 10,
            false,
            claim_into(&arena, &claimed, 512 << 10),
        )
        .unwrap();
        let e1 = claimed.lock()[1];
        assert_eq!(log.at(log.slot_index(1, 0), seg), e1, "then a fresh extent");
        // The cap bounds growth, and the fresh extent's rest is free.
        log.grow(
            2,
            0,
            1 << 30,
            false,
            claim_into(&arena, &claimed, 512 << 10),
        )
        .unwrap();
        assert!(log.has_room(2, 0, 192 << 10) && !log.has_room(2, 0, (192 << 10) + 1));
        assert_eq!(log.at(log.slot_index(2, 0), seg), e1 + seg);
        assert_eq!(claimed.lock().len(), 2);
        // A boundary rewinds cursors over segments the slots keep.
        log.log_intent_in(0, 0, 1, 7, &[1; 100]);
        log.reset();
        assert!(log.has_room(0, 0, 192 << 10));
        // A full pool fails typed, and the slot keeps what it took.
        let (_arena, log, _) = pooled(3, 192 << 10, 512 << 10);
        let full = || {
            Err(incll_pmem::Error::OutOfMemory {
                requested: 1,
                capacity: 1,
            })
        };
        assert!(
            log.grow(0, 0, 192 << 10, false, full).is_ok(),
            "one free segment"
        );
        assert!(log.grow(1, 0, 192 << 10, false, full).is_err());
        assert!(log.has_room(1, 0, seg) && !log.has_room(1, 0, seg + 1));
    }

    #[test]
    fn a_boundary_returns_segments_past_the_first_and_bounded_growth_takes_them() {
        // Two slots of 512 KiB on 256 KiB extents: 128 KiB segments, and
        // the domain's bound is 512 + 2 × 128 KiB, three extents.
        let (arena, log, claimed) = pooled(2, 512 << 10, 256 << 10);
        let seg = log.segment;
        assert_eq!((seg, log.held_bound()), (128 << 10, 768 << 10));
        let claim = || claim_into(&arena, &claimed, 256 << 10);
        assert!(log.grow(0, 0, 512 << 10, true, claim()).unwrap());
        assert!(log.grow(1, 0, 2 * seg, true, claim()).unwrap());
        assert_eq!(claimed.lock().len(), 3);
        assert_eq!(log.bytes_held(0), 768 << 10);
        // At the bound: no claim, the buffer reported short, and what it
        // took before stays.
        assert!(!log.grow(1, 0, 512 << 10, true, claim()).unwrap());
        assert_eq!(claimed.lock().len(), 3);
        assert!(log.has_room(1, 0, 2 * seg) && !log.has_room(1, 0, 2 * seg + 1));
        // Unbounded growth claims past it.
        let (_a, unbounded, c) = pooled(2, 512 << 10, 256 << 10);
        assert!(unbounded
            .grow(0, 0, 512 << 10, true, claim_into(&_a, &c, 256 << 10))
            .unwrap());
        assert!(unbounded
            .grow(1, 0, 512 << 10, false, claim_into(&_a, &c, 256 << 10))
            .unwrap());
        assert_eq!(unbounded.bytes_held(0), 1 << 20);

        // The boundary: every word past a buffer's first is zeroed and
        // written back behind one fence, so a crash right after it keeps
        // no word naming a returned segment.
        let words = |t: usize| -> Vec<u64> {
            (0..log.words)
                .map(|p| arena.pread_u64(log.dir_off(log.slot_index(t, 0), p)))
                .collect()
        };
        let first = [words(0)[0], words(1)[0]];
        let returned: Vec<u64> = words(0)[1..]
            .iter()
            .chain(&words(1)[1..2])
            .copied()
            .collect();
        let before = arena.stats().snapshot();
        log.reset_domain(0);
        assert_eq!(arena.stats().snapshot().delta(&before).sfence, 1);
        arena.crash_with(|_, _| 0);
        for (t, &first) in first.iter().enumerate() {
            assert_eq!(words(t)[0], first, "slot {t} keeps its first segment");
            assert!(
                words(t)[1..].iter().all(|&w| w == 0),
                "slot {t}: {:?}",
                words(t)
            );
            assert!(log.has_room(t, 0, seg) && !log.has_room(t, 0, seg + 1));
        }
        assert_eq!(log.bytes_held(0), 768 << 10, "returned, not released");
        // Growth takes the returned segments, claiming nothing.
        assert!(log
            .grow(1, 0, 512 << 10, true, || panic!(
                "claimed past returned segments"
            ))
            .unwrap());
        let got = &words(1)[1..];
        assert!(
            got.iter().all(|w| returned.contains(w)),
            "{got:?} ⊄ {returned:?}"
        );
        // A standalone log owns no extent and keeps every segment.
        let (_arena, standalone, _) = setup(1);
        standalone.log_object_in(0, 0, 1, _arena.carve(64, 64).unwrap(), 64);
        standalone.reset_domain(0);
        assert!(standalone.has_room(0, 0, standalone.per_slot));
        assert_eq!(standalone.bytes_held(0), 0);
    }

    #[test]
    fn an_entry_straddling_two_segments_is_written_and_replayed_in_two_pieces() {
        // Two slots of a standalone log, carved position by position, so
        // slot 0's two segments are not adjacent.
        let arena = PArena::builder()
            .capacity_bytes(1 << 20)
            .tracked(true)
            .build()
            .unwrap();
        superblock::format(&arena);
        let log = ExtLog::create(&arena, 2, 64 << 10).unwrap();
        assert_eq!((log.segment, log.words), (32 << 10, 2));
        assert_ne!(log.at(0, 32 << 10), log.at(0, 0) + (32 << 10));
        let objs: Vec<u64> = (0..120).map(|_| arena.carve(320, 64).unwrap()).collect();
        for (i, &o) in objs.iter().enumerate() {
            fill(&arena, o, 100 * i as u64);
        }
        arena.global_flush();
        let mut straddled = false;
        for &o in &objs {
            let cur = log.used_in(0, 0);
            let end = cur + ExtLog::entry_bytes(320);
            straddled |= cur < 32 << 10 && end > 32 << 10;
            log.log_object_in(0, 0, 3, o, 320);
            fill(&arena, o, 0xDEAD);
        }
        assert!(straddled, "no entry crossed the segment boundary");
        arena.crash_seeded(9);
        let r = ExtLog::open(&arena).replay_domain(0, 3, 3);
        assert_eq!(r.entries_applied, 120);
        for (i, &o) in objs.iter().enumerate() {
            assert!(check(&arena, o, 100 * i as u64), "object {i}");
        }
    }

    #[test]
    fn a_segments_directory_word_persists_with_its_first_entry() {
        // Slot 0 grows into its second segment and seals an entry there:
        // the drain writes the directory word back under the entry's own
        // fence, so a crash keeping nothing unflushed still finds it.
        let (arena, log, claimed) = pooled(1, 256 << 10, 128 << 10);
        let obj = arena.carve(64, 64).unwrap();
        arena.pwrite_u64(obj, 5);
        arena.global_flush();
        let seg = log.segment;
        let payload = vec![1u8; seg as usize - 2 * HEADER as usize];
        log.log_intent_in(0, 0, 4, 1, &payload);
        log.grow(
            0,
            0,
            2 * HEADER + 64,
            false,
            claim_into(&arena, &claimed, 128 << 10),
        )
        .unwrap();
        let before = arena.stats().snapshot();
        log.log_object_in(0, 0, 4, obj, 64);
        assert_eq!(arena.stats().snapshot().delta(&before).sfence, 1);
        arena.pwrite_u64(obj, 6);
        arena.crash_with(|_, _| 0);
        let log = ExtLog::open(&arena);
        let r = log.replay_domain(0, 4, 4);
        assert_eq!((r.entries_applied, r.intents.len()), (1, 1));
        assert_eq!(arena.pread_u64(obj), 5);
    }

    #[test]
    fn a_segment_whose_word_never_persisted_returns_to_the_free_segments() {
        // Slot 0 takes its second segment, then the store crashes before
        // any entry there is drained: the word is lost, the segment is in
        // doubt, and adopting the extent frees it without a write.
        let (arena, log, claimed) = pooled(1, 256 << 10, 128 << 10);
        let second = log.segment;
        log.grow(
            0,
            0,
            second + 1,
            false,
            claim_into(&arena, &claimed, 128 << 10),
        )
        .unwrap();
        let seg = log.at(0, second);
        arena.crash_with(|_, _| 0);
        let log = ExtLog::open(&arena);
        assert!(log.has_room(0, 0, second) && !log.has_room(0, 0, second + 1));
        let before = arena.stats().snapshot();
        log.adopt_extents(0, &claimed.lock());
        assert_eq!(log.free[0].lock().fresh, vec![seg]);
        let d = arena.stats().snapshot().delta(&before);
        assert_eq!((d.clwb, d.sfence), (0, 0));
        log.grow(0, 0, second + 1, false, || panic!("a free segment is left"))
            .unwrap();
        assert_eq!(log.at(0, second), seg);
    }

    #[test]
    fn stats_count_logged_nodes() {
        let (arena, log, obj) = setup(1);
        log.log_object_in(0, 0, 1, obj, 320);
        log.log_object_in(0, 0, 1, obj, 320);
        assert_eq!(arena.stats().ext_nodes_logged(), 2);
        assert_eq!(arena.stats().ext_bytes_logged(), 640);
    }

    #[test]
    fn disjoint_ranges_seal_under_one_fence_and_replay_in_any_order() {
        // Two epoch-5 captures of one object's disjoint ranges, the second
        // appended after the first range was already modified: each entry
        // restores only its own bytes, so replay order cannot matter.
        let (arena, log) = tracked_log(8 * 1024);
        let obj = arena.carve(320, 64).unwrap();
        fill(&arena, obj, 100);
        let before = arena.stats().snapshot();
        log.log_ranges_in(0, 0, 5, &[(obj + 192, 64)], 1);
        arena.pwrite_u64(obj + 192, 0xDEAD);
        log.log_ranges_in(0, 0, 5, &[(obj, 192), (obj + 256, 64)], 0);
        let d = arena.stats().snapshot().delta(&before);
        assert_eq!(
            (d.sfence, d.ext_bytes_logged, d.ext_nodes_logged),
            (2, 320, 1)
        );
        assert_eq!(log.used_in(0, 0), 3 * HEADER + 320);
        fill(&arena, obj, 900); // the guarded modifications, unflushed
        arena.crash_seeded(5);
        let r = ExtLog::open(&arena).replay_domain(0, 5, 5);
        assert_eq!(r.entries_applied, 3);
        assert_eq!(r.bytes_applied, 320);
        assert!(check(&arena, obj, 100));
    }
}
