//! External per-object undo log (paper §4.2).
//!
//! The external log is the conventional fallback the InCLL design leans on
//! for infrequent, complex modifications: node splits, internal-node
//! updates, layer conversions, and any case the in-cache-line logs cannot
//! cover (two values in one cache line modified in one epoch, a remove
//! followed by an insert into the same slot, epoch-tag wrap-around).
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
//! Under per-shard epoch domains the log region is subdivided into one
//! append buffer per **(thread, domain)** pair, because the per-domain
//! state above — discard cursors at *that domain's* boundary, replay *that
//! domain's* contiguous failed run — only works if one buffer never mixes
//! entries from two domains' epoch timelines. [`ExtLog::create_sharded`]
//! fixes the domain count on media ([`superblock::SB_EXTLOG_DOMAINS`]);
//! [`ExtLog::log_object_in`] appends to the caller's (thread, domain)
//! buffer, sealing the domain id into the checksummed entry tag;
//! [`ExtLog::reset_domain`] and [`ExtLog::replay_domain`] scope discard
//! and replay to one domain.
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

mod checksum;

/// Fixed per-entry header size in bytes.
const HEADER: u64 = 32;

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
}

impl Slot {
    fn reset(&self) {
        self.cursor.store(0, Ordering::Relaxed);
        self.staged.store(0, Ordering::Relaxed);
    }
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
    region: u64,
    /// Capacity of one (thread, domain) buffer, in bytes.
    per_slot: u64,
    /// Thread slots.
    threads: usize,
    /// Epoch domains.
    domains: usize,
    /// One append state per (thread, domain), thread-major.
    slots: Vec<Slot>,
}

impl ExtLog {
    /// Carves a fresh single-domain log region for `slots` threads of
    /// `per_thread` bytes each and records it in the superblock.
    ///
    /// # Errors
    ///
    /// Propagates arena carve failures ([`incll_pmem::Error::OutOfMemory`]).
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn create(arena: &PArena, slots: usize, per_thread: usize) -> incll_pmem::Result<Self> {
        Self::create_sharded(arena, slots, per_thread, 1)
    }

    /// Carves a fresh log region subdivided per (thread, domain): each of
    /// `threads` thread slots gets `domains` independent buffers of
    /// `per_thread / domains` bytes (the per-thread total is unchanged by
    /// sharding), and the layout is recorded in the superblock.
    ///
    /// # Errors
    ///
    /// Propagates arena carve failures ([`incll_pmem::Error::OutOfMemory`]).
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
        assert!(threads > 0, "external log needs at least one slot");
        assert!(domains > 0, "external log needs at least one domain");
        let per_slot = ((per_thread / domains) as u64 + 63) & !63;
        let region = arena.carve(per_slot as usize * threads * domains, 64)?;
        arena.pwrite_u64(superblock::SB_EXTLOG_OFF, region);
        arena.pwrite_u64(superblock::SB_EXTLOG_THREADS, threads as u64);
        arena.pwrite_u64(superblock::SB_EXTLOG_PER_THREAD, per_slot);
        arena.pwrite_u64(superblock::SB_EXTLOG_DOMAINS, domains as u64);
        arena.clwb_range(superblock::SB_EXTLOG_OFF, 32);
        arena.sfence();
        Ok(Self::with_layout(
            arena.clone(),
            region,
            per_slot,
            threads,
            domains,
        ))
    }

    /// Opens the log recorded in the superblock of a recovered arena.
    ///
    /// Cursors start at zero; [`ExtLog::replay_domain`] repositions them past the
    /// surviving valid prefix so new entries do not clobber pre-images that
    /// are still needed.
    ///
    /// # Panics
    ///
    /// Panics if the superblock carries no log descriptor.
    pub fn open(arena: &PArena) -> Self {
        let region = arena.pread_u64(superblock::SB_EXTLOG_OFF);
        let threads = arena.pread_u64(superblock::SB_EXTLOG_THREADS) as usize;
        let per_slot = arena.pread_u64(superblock::SB_EXTLOG_PER_THREAD);
        let domains = arena.pread_u64(superblock::SB_EXTLOG_DOMAINS) as usize;
        assert!(
            region != 0 && threads > 0 && domains > 0,
            "arena has no external log descriptor"
        );
        Self::with_layout(arena.clone(), region, per_slot, threads, domains)
    }

    fn with_layout(
        arena: PArena,
        region: u64,
        per_slot: u64,
        threads: usize,
        domains: usize,
    ) -> Self {
        ExtLog {
            arena,
            region,
            per_slot,
            threads,
            domains,
            slots: (0..threads * domains).map(|_| Slot::default()).collect(),
        }
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

    /// Persists every staged run of `thread`, whichever domains they are
    /// in — the batch layer's drain: one commit's intents, staged across
    /// all the shards it covers, become durable behind a single trailing
    /// `sfence` (the per-thread mirror of [`ExtLog::drain_domain`]). Only
    /// the owning thread may call it.
    pub fn drain_thread(&self, thread: usize) {
        let mut any = false;
        for d in 0..self.domains {
            any |= self.drain_clwb(self.slot_index(thread, d));
        }
        if any {
            self.arena.sfence();
        }
    }

    /// Issues the `clwb_range` for `slot`'s staged run and marks it
    /// drained; returns whether anything was staged. The caller owns the
    /// trailing `sfence`.
    fn drain_clwb(&self, slot: usize) -> bool {
        let state = &self.slots[slot];
        let cur = state.cursor.load(Ordering::Relaxed);
        let start = state.staged.load(Ordering::Relaxed);
        if start >= cur {
            return false;
        }
        self.arena
            .clwb_range(self.slot_base(slot) + start, (cur - start) as usize);
        state.staged.store(cur, Ordering::Relaxed);
        true
    }

    /// Capacity of one (thread, domain) buffer, in bytes.
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

    /// Arena offset of buffer `slot`'s first byte.
    #[inline]
    fn slot_base(&self, slot: usize) -> u64 {
        self.region + (slot as u64) * self.per_slot
    }

    /// Bytes currently appended in `(thread, domain)`'s buffer.
    pub fn used_in(&self, thread: usize, domain: usize) -> u64 {
        self.slots[self.slot_index(thread, domain)]
            .cursor
            .load(Ordering::Relaxed)
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
    /// Panics if the buffer is full (size the log for the worst-case
    /// nodes per epoch; the paper measures 84 K nodes per 64 ms epoch on a
    /// 1 M-key tree, §6.3) or if `thread` or `domain` is out of range.
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
    /// the cursor. The entry is only valid once the stored checksum
    /// matches, so a torn entry is detected and ignored by replay.
    /// Writes nothing durable by itself — the entry joins the slot's
    /// staged run.
    fn append(&self, slot: usize, epoch: u64, target: u64, payload: Payload<'_>, tag: u16) {
        let len = match payload {
            Payload::Object(len) => len,
            Payload::Bytes(bytes) => bytes.len(),
        };
        let need = Self::entry_bytes(len);
        let cur = self.slots[slot].cursor.load(Ordering::Relaxed);
        assert!(
            cur + need <= self.per_slot,
            "external log slot {slot} overflow: {cur} + {need} > {}; \
             increase per-thread log capacity",
            self.per_slot
        );
        let base = self.slot_base(slot) + cur;

        let mut hash = checksum::Xxh64::new();
        match payload {
            // A pre-image: chunked copy arena -> arena, checksum streamed.
            Payload::Object(len) => {
                let mut copied = 0usize;
                let mut chunk = [0u8; 512];
                while copied < len {
                    let n = (len - copied).min(512);
                    self.arena
                        .pread_bytes(target + copied as u64, &mut chunk[..n]);
                    hash.update(&chunk[..n]);
                    self.arena
                        .pwrite_bytes(base + HEADER + copied as u64, &chunk[..n]);
                    copied += n;
                }
            }
            Payload::Bytes(bytes) => {
                hash.update(bytes);
                self.arena.pwrite_bytes(base + HEADER, bytes);
            }
        }
        let len_word = pack_len(len as u64, tag);
        self.arena.pwrite_u64(base, epoch);
        self.arena.pwrite_u64(base + 8, target);
        self.arena.pwrite_u64(base + 16, len_word);
        self.arena
            .pwrite_u64(base + 24, checksum::seal(hash, epoch, target, len_word));

        self.slots[slot].cursor.store(cur + need, Ordering::Relaxed);
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
    pub fn reset_domain(&self, domain: usize) {
        for t in 0..self.threads {
            self.slots[self.slot_index(t, domain)].reset();
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
        let slot_base = self.slot_base(slot);
        // One payload buffer for the whole slot: each entry is read once,
        // verified in it and applied from it.
        let mut payload = Vec::new();
        let mut cur = 0u64;
        loop {
            if cur + HEADER > self.per_slot {
                break;
            }
            let base = slot_base + cur;
            let epoch = self.arena.pread_u64(base);
            let target = self.arena.pread_u64(base + 8);
            let len_word = self.arena.pread_u64(base + 16);
            let sum = self.arena.pread_u64(base + 24);
            let len = len_word & LEN_MASK;
            let tag = (len_word >> 48) as u16;
            let is_intent = tag & INTENT_TAG_BIT != 0;
            // Three-way tag check: the domain's own undo entries apply,
            // its own intents are collected below, anything else is
            // corruption and stops the slot scan like a torn checksum.
            if epoch < min_epoch
                || epoch > max_epoch
                || len == 0
                || cur + HEADER + len > self.per_slot
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
            if next + HEADER <= self.per_slot {
                let ahead = slot_base + next;
                let ahead_len_word = self.arena.pread_u64(ahead + 16);
                if (ahead_len_word >> 48) as u16 & INTENT_TAG_BIT == 0 {
                    self.arena.prefetch(
                        self.arena.pread_u64(ahead + 8),
                        (ahead_len_word & LEN_MASK).min(PREFETCH_BYTES) as usize,
                    );
                }
            }
            // Verify the checksum before trusting the entry.
            payload.resize(len as usize, 0);
            self.arena.pread_bytes(base + HEADER, &mut payload);
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

impl std::fmt::Debug for ExtLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExtLog")
            .field("threads", &self.threads)
            .field("domains", &self.domains)
            .field("per_slot", &self.per_slot)
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
        let base = arena.pread_u64(superblock::SB_EXTLOG_OFF);
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
        let base = arena.pread_u64(superblock::SB_EXTLOG_OFF);
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
        let base = arena.pread_u64(superblock::SB_EXTLOG_OFF) + log.per_slot;
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
        let base = arena.pread_u64(superblock::SB_EXTLOG_OFF) + log.per_slot;
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
        let base = arena.pread_u64(superblock::SB_EXTLOG_OFF);
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
        let base = arena.pread_u64(superblock::SB_EXTLOG_OFF) + log.per_slot;
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
        let before = arena.stats().snapshot();
        log.drain_thread(0);
        assert_eq!(arena.stats().snapshot().delta(&before).sfence, 1);
        assert_ne!(log.staged_bytes(1, 1), 0, "only the caller's runs drain");
        log.drain_thread(0);
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
                let first_line = log.slot_base(0) / 64;
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
