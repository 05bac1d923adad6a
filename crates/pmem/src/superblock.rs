//! Durable superblock layout: fixed offsets shared by all subsystems.
//!
//! The first [`CARVE_START`] bytes of the arena act like a filesystem
//! superblock. Each subsystem owns a region (documented below) and accesses
//! it through its own logic; this module only centralises the offsets so
//! they cannot collide, plus the format/open handshake.
//!
//! Cache-line discipline matters here: every field group that is protected
//! by an in-cache-line log (a shard's carve watermark, a batch-commit
//! slot) sits inside a single cache line, so the InCLL ordering argument
//! (§2.1 "granularity") applies.
//!
//! **Global cells** (byte offsets from the arena base; line = 64 B):
//!
//! | Offset | Line(s) | Contents |
//! |--------|---------|----------|
//! | 0      | 0       | reserved (offset 0 means null) |
//! | 64     | 1       | magic, version, tree-created flag, shard count |
//! | 128    | 2       | external-log descriptor (threads, per-slot cap, domains, segment bytes, directory words per slot) |
//! | 192    | 3       | allocator descriptor (head-cell region, threads, classes, domains) |
//! | 256    | 4       | extent-pool descriptor (pool base, extent bytes, extent count) |
//! | 320    | 5       | batch-id ceiling word (durable batch-id allocator, bumped a block at a time) |
//! | 384    | 6–9     | extent-owner table: one owner byte per extent (up to 256) |
//! | 640    | 10–63   | batch-commit table: 108 × 32 B commit-run slots (lo, hi, shard mask) |
//! | 4096   | 64–1151 | shard cells: [`MAX_SHARDS`] × [`SHARD_CELL_BYTES`] |
//! | 73728  | 1152–1663 | external-log segment directory: [`MAX_LOG_SEGMENTS`] words |
//! | 106496 | —       | start of carvable space |
//!
//! **Shard cells.** Every shard `s` in `0..MAX_SHARDS` — a `shards(1)`
//! store's only shard included — owns the 17 cache lines at
//! [`shard_cell`]`(s)`, laid out identically (byte offsets within the cell):
//!
//! ```text
//! line 0      +0    durable current epoch    +8    first epoch of current execution
//!             +16   tree root holder         +24   holder's logged-epoch tag
//! line 1      +64   carve watermark          +72   watermarkInCLL      +80  epoch tag
//! lines 2–16  +128  failed-epoch count       +136  failed epochs (119 × u64)
//! ```
//!
//! No cache line holds fields of two shards, so per-shard checkpoints,
//! carves and recovery workers never contend on (or write back) another
//! shard's line. The watermark triple is alone on its line: it is an InCLL
//! group logged on the owning shard's own epoch timeline, and nothing else
//! may dirty that line between the log word and the watermark store.

use crate::{Error, PArena, Result};

/// Identifies a formatted InCLL arena.
pub const MAGIC: u64 = 0x19C1_1C05_A5B1_2019;
/// On-media format version. Every other version — older media included —
/// must be rejected by openers, never reinterpreted or reformatted: the
/// cells of one version read as garbage under another.
///
/// Version 12 dropped the external log's reserved region: a log buffer
/// is an ordered list of segments carved from pool extents the log owns
/// ([`log_owner`]), found through the segment directory
/// ([`SB_LOG_DIR`]). Version 11 media are refused with nothing written.
pub const VERSION: u64 = 12;

/// Offset of the magic word.
pub const SB_MAGIC: u64 = 64;
/// Offset of the format version.
pub const SB_VERSION: u64 = 72;
/// Offset of the tree-created flag (1 once a store has been created).
pub const SB_TREE_META: u64 = 80;
/// Offset of the keyspace shard count, fixed at store creation (power of
/// two, `1..=`[`MAX_SHARDS`]).
pub const SB_SHARD_COUNT: u64 = 88;

/// Offset of the external-log thread-count word (0 = no log).
pub const SB_EXTLOG_THREADS: u64 = 128;
/// Offset of the external-log per-slot capacity word: the most bytes one
/// (thread, domain) buffer may hold, a cap rather than a reservation.
pub const SB_EXTLOG_PER_THREAD: u64 = 136;
/// Offset of the external-log domain-count word.
pub const SB_EXTLOG_DOMAINS: u64 = 144;
/// Offset of the external-log segment-size word (a power of two).
pub const SB_EXTLOG_SEGMENT: u64 = 152;
/// Offset of the directory-words-per-slot word: slot `s`'s segments are
/// directory entries `s · words .. (s + 1) · words`.
pub const SB_EXTLOG_DIR_WORDS: u64 = 160;

/// Offset of the allocator descriptor: head-cell region base, then (at
/// `+8`, `+16`, `+24`) the thread, class and domain counts.
pub const SB_PALLOC_HEADS: u64 = 192;

/// Offset of the extent-pool base word: the base offset of the extent
/// pool the allocator carved out of the arena at create time.
pub const SB_ARENA_SPLIT: u64 = 256;
/// Offset of the bytes-per-extent word. Power of two; extent `i` spans
/// `[base + i·extent_bytes, base + (i+1)·extent_bytes)`.
pub const SB_ARENA_REGION_BYTES: u64 = 264;
/// Offset of the extent-count word: how many extents the pool holds
/// (`1..=`[`MAX_EXTENTS`]). Shares its line with the other two descriptor
/// words, so the whole descriptor persists with one write-back.
pub const SB_EXTENT_COUNT: u64 = 272;

// ---------------------------------------------------------------------
// Extent-owner table
// ---------------------------------------------------------------------

/// Offset of the extent-owner table: one byte per extent, 0 = free,
/// [`data_owner`]`(shard)` = carved by that shard's allocator,
/// [`log_owner`]`(shard)` = cut into that shard's external-log segments.
/// The table occupies four dedicated cache lines (no other superblock
/// field shares them), so claim write-backs never race another
/// subsystem's line state.
///
/// A claim is a byte CAS (`0 → owner`) followed by `clwb`/`sfence`
/// ([`claim_extent`]): the byte is the *only* durable word naming the
/// owner, so a crash anywhere in the protocol leaves the extent either
/// durably owned or durably free — never torn. What references the
/// extent can only do so *after* the fence: a shard's carve frontier,
/// which persists no earlier than the shard's next checkpoint flush, or
/// a log slot's directory entry ([`SB_LOG_DIR`]), which persists with the
/// drain of the first entry appended to the segment. So a durable
/// reference implies a durable claim. The converse crash shape — claim
/// durable, reference not — is the **in-doubt claim**: recovery keeps a
/// data extent on the owning shard's reserve chain, and a log extent's
/// unreferenced segments on the shard's log reserve (extents are never
/// released, and neither kind ever becomes the other), with zero media
/// writes, so the repair is byte-identical at every recovery worker
/// count.
pub const SB_EXTENT_OWNERS: u64 = 384;
/// Maximum number of pool extents (the owner table is four cache lines).
pub const MAX_EXTENTS: usize = 256;
/// The owner-byte bit that marks a log extent.
const LOG_OWNER_BIT: u8 = 0x80;

/// The owner byte of an extent shard `shard`'s allocator carves from.
///
/// # Panics
///
/// Panics if `shard >= MAX_SHARDS`.
pub const fn data_owner(shard: usize) -> u8 {
    assert!(shard < MAX_SHARDS, "shard index out of range");
    shard as u8 + 1
}

/// The owner byte of an extent cut into shard `shard`'s log segments.
///
/// # Panics
///
/// Panics if `shard >= MAX_SHARDS`.
pub const fn log_owner(shard: usize) -> u8 {
    LOG_OWNER_BIT | data_owner(shard)
}

/// The offset of extent `i`'s owner byte.
///
/// # Panics
///
/// Panics if `i >= MAX_EXTENTS`.
#[inline]
pub const fn extent_owner_off(i: usize) -> u64 {
    assert!(i < MAX_EXTENTS, "extent index out of range");
    SB_EXTENT_OWNERS + i as u64
}

/// Reads extent `i`'s owner byte: 0 = free, else [`data_owner`] or
/// [`log_owner`] of the owning shard.
pub fn extent_owner(arena: &PArena, i: usize) -> u8 {
    arena.pread_u8(extent_owner_off(i))
}

/// Claims extent `i` for `owner` ([`data_owner`] or [`log_owner`]) if it
/// is free, making the claim durable before returning `true`. Returns
/// `false` when it is already owned, by anyone. See [`SB_EXTENT_OWNERS`]
/// for the crash-atomicity argument.
pub fn claim_extent(arena: &PArena, i: usize, owner: u8) -> bool {
    debug_assert_ne!(owner, 0, "0 is the free owner byte");
    let off = extent_owner_off(i);
    if arena.pcas_u8(off, 0, owner).is_err() {
        return false;
    }
    arena.clwb(off);
    arena.sfence();
    true
}

// ---------------------------------------------------------------------
// Batch-commit table
// ---------------------------------------------------------------------

/// Offset of the durable batch-id **ceiling**: no id at or above it has
/// ever been issued. Ids are handed out from DRAM, a block of
/// [`BATCH_ID_BLOCK`] at a time ([`reserve_batch_ids`] bumps and fences
/// the ceiling once per block, **before** any intent carrying an id of
/// the new block is written), and a reopened store starts at the ceiling
/// — so an id on media is never reissued, and a crash wastes at most the
/// rest of one block. Format initialises it to 1 (0 means "no batch" in
/// the commit table below).
pub const SB_BATCH_NEXT_ID: u64 = 320;
/// Ids one durable ceiling bump reserves: the allocator's fence is paid
/// once per this many batches.
pub const BATCH_ID_BLOCK: u64 = 256;

/// Offset of the batch-commit table: [`BATCH_RUNS`] **commit-run** slots
/// of 32 bytes each — word 0 `lo`, word 1 `hi`, word 2 the mask of shards
/// some batch of the run touched since that shard's last boundary (bit
/// `s` = shard `s`; [`MAX_SHARDS`] is 64, so one word suffices), word 3
/// unused. Two slots fill a line; none straddles one.
///
/// A batch is **committed** iff some slot has `lo != 0` and
/// `lo <= id <= hi`. A run only ever grows by the id directly after its
/// `hi`, within one execution, so every id inside a run was committed by
/// construction — a run is a set of exact ids written compactly, never a
/// watermark: an id that staged intents and did not commit (a crash, the
/// test seam) or was never issued (the tail of an id block after a
/// reopen) ends the run, and the next commit opens another.
///
/// All three words share one cache line, so the record rides the InCLL
/// same-line-ordering argument: stores to one line persist as a prefix.
/// *Opening* a run stores mask, then `lo`, then `hi`
/// ([`write_batch_run_open`]); the prefixes are the slot's previous
/// `(lo, hi)` under a wider mask, then `(new lo, old hi)` — an **empty**
/// range, ids being monotonic — then the committed run. *Extending* one
/// stores the widened mask, then `hi` ([`write_batch_run_extend`]): the
/// old run under a wider mask, then the new one. A torn record therefore
/// reads as "all batches up to the old `hi`" or "up to the new", and the
/// mask is never narrower than the run it describes.
///
/// A reused slot's stale `(lo, hi)` is harmless for the same reason a
/// drained mask is: the slot was only reusable once every shard its run
/// touched had crossed a boundary, which discarded every intent those ids
/// ever wrote — the range still names only committed ids, and nothing on
/// media can match it any more.
pub const SB_BATCH_TABLE: u64 = 640;
/// Number of commit-run slots: lines 10–63, 54 lines × 2 slots.
///
/// A slot is consumed per *run*, not per batch: only an id gap (a reopen,
/// a batch that staged and never committed) opens one, and a slot is
/// reusable once every shard in its mask has crossed a boundary. When
/// none is, committers *force* that boundary (see `incll`'s eviction
/// fallback). How many batches can be in doubt at once is bounded by the
/// external-log capacity that holds their intents, not by this table.
pub const BATCH_RUNS: usize = 108;

/// The offset of commit-run slot `i` (`lo`; `hi` lives at `+8`, the
/// shard mask at `+16`).
///
/// # Panics
///
/// Panics if `i >= BATCH_RUNS`.
#[inline]
pub const fn batch_run_off(i: usize) -> u64 {
    assert!(i < BATCH_RUNS, "commit-run slot out of range");
    SB_BATCH_TABLE + (i as u64) * 32
}

/// Durably reserves the next block of batch ids: bumps the ceiling word
/// by [`BATCH_ID_BLOCK`], flushes it, and returns the reserved range
/// (starting at the old ceiling). A crash merely wastes the unissued
/// rest of the block.
pub fn reserve_batch_ids(arena: &PArena) -> std::ops::Range<u64> {
    let first = arena.pread_u64(SB_BATCH_NEXT_ID).max(1);
    let ceiling = first + BATCH_ID_BLOCK;
    arena.pwrite_u64(SB_BATCH_NEXT_ID, ceiling);
    arena.clwb(SB_BATCH_NEXT_ID);
    arena.sfence();
    first..ceiling
}

/// Reads commit-run slot `i` as `(lo, hi, shard_mask)`; `lo == 0` or
/// `lo > hi` means the slot names no batch.
pub fn batch_run(arena: &PArena, i: usize) -> (u64, u64, u64) {
    let off = batch_run_off(i);
    (
        arena.pread_u64(off),
        arena.pread_u64(off + 8),
        arena.pread_u64(off + 16),
    )
}

/// The stores that open the run `[id, id]` in slot `i`: mask, `lo`,
/// `hi`, in that order (see [`SB_BATCH_TABLE`] for the prefix argument).
/// Nothing is durable before [`persist_batch_run`].
pub fn write_batch_run_open(arena: &PArena, i: usize, id: u64, shard_mask: u64) {
    let off = batch_run_off(i);
    arena.pwrite_u64(off + 16, shard_mask);
    arena.pwrite_u64(off, id);
    arena.pwrite_u64(off + 8, id);
}

/// The stores that extend slot `i`'s run to end at `hi` (the id directly
/// after its current `hi`): the widened mask first, `hi` second. Nothing
/// is durable before [`persist_batch_run`].
pub fn write_batch_run_extend(arena: &PArena, i: usize, hi: u64, shard_mask: u64) {
    let off = batch_run_off(i);
    arena.pwrite_u64(off + 16, shard_mask);
    arena.pwrite_u64(off + 8, hi);
}

/// Makes slot `i`'s line durable: one `clwb`, one `sfence`. After the
/// fence the batch whose record was just stored is committed; before it,
/// the line holds some prefix of those stores and the batch is in doubt.
pub fn persist_batch_run(arena: &PArena, i: usize) {
    arena.clwb(batch_run_off(i));
    arena.sfence();
}

/// Clears shard `shard`'s bit in slot `i`'s durable mask (plain store, no
/// flush — callers run this after the durable epoch bump that already
/// made the run's intents on that shard non-replayable, so losing the
/// clear is merely conservative).
pub fn clear_batch_shard(arena: &PArena, i: usize, shard: usize) {
    let off = batch_run_off(i) + 16;
    let mask = arena.pread_u64(off);
    arena.pwrite_u64(off, mask & !(1u64 << shard));
}

/// Returns `true` if `batch_id` has a durable commit record: it lies
/// inside some slot's run. Reads the whole table: for one-off checks
/// (tests, diagnostics); recovery snapshots the table once instead.
pub fn batch_is_committed(arena: &PArena, batch_id: u64) -> bool {
    (0..BATCH_RUNS).any(|i| {
        let (lo, hi, _) = batch_run(arena, i);
        lo != 0 && (lo..=hi).contains(&batch_id)
    })
}

// ---------------------------------------------------------------------
// Shard cells
// ---------------------------------------------------------------------

/// Maximum shard count (one cell each).
pub const MAX_SHARDS: usize = 64;
/// Offset of shard 0's cell; see the module docs for the cell diagram.
pub const SB_SHARD_CELLS: u64 = 4096;
/// Bytes per shard cell (17 cache lines).
pub const SHARD_CELL_BYTES: u64 = 1088;
/// Capacity of each shard's failed-epoch set.
///
/// Each entry is one crash survived by the shard since its last completed
/// checkpoint: completed checkpoints prune the set (see
/// [`prune_failed_epochs`] and the compaction pass in `incll`'s advance
/// hooks), so the bound is on crashes *between* checkpoints, not on the
/// arena's lifetime.
pub const MAX_FAILED_EPOCHS: usize = 119;

const CELL_EXEC_EPOCH: u64 = 8;
const CELL_ROOT_HOLDER: u64 = 16;
const CELL_BUMP: u64 = 64;
const CELL_FAILED_CNT: u64 = 128;
const CELL_FAILED_ARR: u64 = 136;

/// The offset of shard `s`'s cell.
///
/// # Panics
///
/// Panics if `s >= MAX_SHARDS`.
#[inline]
pub const fn shard_cell(s: usize) -> u64 {
    assert!(s < MAX_SHARDS, "shard index out of range");
    SB_SHARD_CELLS + s as u64 * SHARD_CELL_BYTES
}

/// The offset of shard `s`'s durable current-epoch word.
#[inline]
pub const fn domain_cur_epoch_off(s: usize) -> u64 {
    shard_cell(s)
}

/// The offset of shard `s`'s first-epoch-of-current-execution word.
#[inline]
pub const fn domain_exec_epoch_off(s: usize) -> u64 {
    shard_cell(s) + CELL_EXEC_EPOCH
}

/// The offset of shard `s`'s tree root-holder cell. Its logged-epoch tag
/// lives at `+8` (holders are externally logged at most once per epoch;
/// the tag enforces it).
#[inline]
pub const fn shard_root_holder(s: usize) -> u64 {
    shard_cell(s) + CELL_ROOT_HOLDER
}

/// The offset of shard `s`'s durable carve watermark, first word of the
/// shard's InCLL triple (watermark, watermarkInCLL, epoch tag). The tag
/// is on the owning shard's **own** epoch timeline.
#[inline]
pub const fn shard_bump_off(s: usize) -> u64 {
    shard_cell(s) + CELL_BUMP
}

/// The offset of shard `s`'s logged (epoch-start) watermark.
#[inline]
pub const fn shard_bump_incll_off(s: usize) -> u64 {
    shard_bump_off(s) + 8
}

/// The offset of shard `s`'s watermark-log epoch tag.
#[inline]
pub const fn shard_bump_epoch_off(s: usize) -> u64 {
    shard_bump_off(s) + 16
}

#[inline]
const fn failed_cnt_off(s: usize) -> u64 {
    shard_cell(s) + CELL_FAILED_CNT
}

#[inline]
const fn failed_arr_off(s: usize) -> u64 {
    shard_cell(s) + CELL_FAILED_ARR
}

// ---------------------------------------------------------------------
// External-log segment directory
// ---------------------------------------------------------------------

/// Offset of the external-log **segment directory**: one word per
/// segment position of every (thread, domain) buffer, slot-major (see
/// [`SB_EXTLOG_DIR_WORDS`]). Word `p` of a slot holds the arena offset of
/// the slot's `p`-th segment, or 0 while the slot has none there. A
/// segment's bytes are the slot's bytes `p · segment .. (p + 1) ·
/// segment`, so an entry that straddles two segments is written and read
/// in two pieces and the entry format does not change.
///
/// A word is written once, after the claim of the extent it points into
/// is durable, and never moves: segments are not given back. It is not
/// flushed on its own; the log's drain writes the line back under the
/// fence that makes the first entry in the segment durable, so a durable
/// entry is always reachable and a word that never persisted leaves its
/// segment on the shard's log reserve (see [`SB_EXTENT_OWNERS`]).
pub const SB_LOG_DIR: u64 = SB_SHARD_CELLS + MAX_SHARDS as u64 * SHARD_CELL_BYTES;
/// Directory words: the most segments all log buffers together may hold.
pub const MAX_LOG_SEGMENTS: usize = 4096;

/// The offset of directory word `i`.
///
/// # Panics
///
/// Panics if `i >= MAX_LOG_SEGMENTS`.
#[inline]
pub const fn log_dir_off(i: usize) -> u64 {
    assert!(i < MAX_LOG_SEGMENTS, "log directory index out of range");
    SB_LOG_DIR + i as u64 * 8
}

/// First carvable offset (end of the superblock).
pub const CARVE_START: u64 = SB_LOG_DIR + MAX_LOG_SEGMENTS as u64 * 8;

/// Formats a fresh arena: writes magic/version, zeroes all superblock
/// fields, and flushes the superblock.
///
/// Calling `format` on an already-formatted arena wipes it.
pub fn format(arena: &PArena) {
    // Zero the whole superblock area first (idempotent on fresh arenas).
    for line in (64..CARVE_START).step_by(64) {
        arena.pwrite_bytes(line, &[0u8; 64]);
    }
    arena.pwrite_u64(SB_VERSION, VERSION);
    for s in 0..MAX_SHARDS {
        arena.pwrite_u64(domain_cur_epoch_off(s), 1);
        arena.pwrite_u64(domain_exec_epoch_off(s), 1);
    }
    arena.pwrite_u64(SB_BATCH_NEXT_ID, 1);
    // Magic last: a torn format leaves the arena unformatted.
    arena.pwrite_u64(SB_MAGIC, MAGIC);
    arena.clwb_range(64, (CARVE_START - 64) as usize);
    arena.sfence();
    arena.set_bump(CARVE_START);
}

/// Returns `true` if the arena carries a valid superblock of the
/// **current** layout version.
pub fn is_formatted(arena: &PArena) -> bool {
    arena.pread_u64(SB_MAGIC) == MAGIC && arena.pread_u64(SB_VERSION) == VERSION
}

/// Returns `true` if the arena carries the InCLL magic at all, regardless
/// of layout version. Openers use this to distinguish "blank, safe to
/// format" from "formatted with an incompatible layout" — the latter must
/// surface a typed error, never a silent reformat.
pub fn has_magic(arena: &PArena) -> bool {
    arena.pread_u64(SB_MAGIC) == MAGIC
}

/// The on-media layout version word (meaningful only when
/// [`has_magic`] is true).
pub fn raw_version(arena: &PArena) -> u64 {
    arena.pread_u64(SB_VERSION)
}

/// Appends `epoch` to shard `shard`'s durable failed-epoch set
/// (idempotent), flushing the update.
///
/// # Errors
///
/// [`Error::FailedEpochSetFull`] once [`MAX_FAILED_EPOCHS`] crashes have
/// been recorded for the shard without an intervening completed
/// checkpoint (which prunes the set).
pub fn record_failed_epoch_for(arena: &PArena, shard: usize, epoch: u64) -> Result<()> {
    let arr = failed_arr_off(shard);
    let cnt_off = failed_cnt_off(shard);
    let cnt = arena.pread_u64(cnt_off) as usize;
    for i in 0..cnt.min(MAX_FAILED_EPOCHS) {
        if arena.pread_u64(arr + (i as u64) * 8) == epoch {
            return Ok(()); // already recorded (re-crash during recovery)
        }
    }
    if cnt >= MAX_FAILED_EPOCHS {
        return Err(Error::FailedEpochSetFull);
    }
    // Entry first, count second: a torn append is invisible.
    arena.pwrite_u64(arr + (cnt as u64) * 8, epoch);
    arena.clwb(arr + (cnt as u64) * 8);
    arena.sfence();
    arena.pwrite_u64(cnt_off, cnt as u64 + 1);
    arena.clwb(cnt_off);
    arena.sfence();
    Ok(())
}

/// Reads shard `shard`'s durable failed-epoch set.
pub fn failed_epochs_for(arena: &PArena, shard: usize) -> Vec<u64> {
    let arr = failed_arr_off(shard);
    let cnt = (arena.pread_u64(failed_cnt_off(shard)) as usize).min(MAX_FAILED_EPOCHS);
    (0..cnt)
        .map(|i| arena.pread_u64(arr + (i as u64) * 8))
        .collect()
}

/// Compacts shard `shard`'s durable failed-epoch set, keeping only entries
/// `>= keep_from` — the caller passes the epoch whose checkpoint just
/// completed, pruning every entry the completed checkpoint made
/// unreferenceable.
///
/// Crash-safe without any extra logging: entries are compacted in place
/// *before* the count shrinks, and every intermediate entry word holds a
/// value from the original set, so a torn prune only leaves a (safe,
/// conservative) superset of the compacted set. No-op when nothing is
/// prunable.
///
/// # Safety contract (caller's)
///
/// Pruning an entry is only sound once no durable node or allocator header
/// can still need a rollback keyed to it — `incll`'s advance-time
/// compaction pass establishes that by sweeping the shard's nodes and
/// allocator lists *before* the checkpoint flush that precedes this call.
pub fn prune_failed_epochs(arena: &PArena, shard: usize, keep_from: u64) {
    let entries = failed_epochs_for(arena, shard);
    let keep: Vec<u64> = entries
        .iter()
        .copied()
        .filter(|&e| e >= keep_from)
        .collect();
    if keep.len() == entries.len() {
        return;
    }
    let arr = failed_arr_off(shard);
    for (i, &e) in keep.iter().enumerate() {
        arena.pwrite_u64(arr + (i as u64) * 8, e);
    }
    if !keep.is_empty() {
        arena.clwb_range(arr, keep.len() * 8);
        arena.sfence();
    }
    arena.pwrite_u64(failed_cnt_off(shard), keep.len() as u64);
    arena.clwb(failed_cnt_off(shard));
    arena.sfence();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena() -> PArena {
        PArena::builder().capacity_bytes(1 << 20).build().unwrap()
    }

    /// `(offset, bytes)` of every global cell.
    const GLOBAL_CELLS: [(u64, u64); 9] = [
        (SB_MAGIC, 32), // magic, version, tree meta, shard count
        (SB_EXTLOG_THREADS, 40),
        (SB_PALLOC_HEADS, 32),
        (SB_ARENA_SPLIT, 24),
        (SB_BATCH_NEXT_ID, 8),
        (SB_BATCH_TABLE, BATCH_RUNS as u64 * 32),
        (SB_EXTENT_OWNERS, MAX_EXTENTS as u64),
        (SB_SHARD_CELLS, MAX_SHARDS as u64 * SHARD_CELL_BYTES),
        (SB_LOG_DIR, MAX_LOG_SEGMENTS as u64 * 8),
    ];

    #[test]
    fn layout_is_disjoint_and_every_shard_cell_has_the_same_line_exclusive_shape() {
        for (i, &(off, len)) in GLOBAL_CELLS.iter().enumerate() {
            assert!(off >= 64, "offset 0 is the null pointer's line");
            assert!(off + len <= CARVE_START, "cell {i} runs past CARVE_START");
            for &(o2, l2) in &GLOBAL_CELLS[i + 1..] {
                assert!(off + len <= o2 || o2 + l2 <= off, "cell {i} overlaps");
            }
        }
        // Groups written back as one unit share one line.
        assert_eq!(SB_MAGIC / 64, SB_SHARD_COUNT / 64);
        assert_eq!(SB_EXTLOG_THREADS / 64, SB_EXTLOG_DIR_WORDS / 64);
        assert_eq!(SB_ARENA_SPLIT / 64, SB_EXTENT_COUNT / 64);
        for i in 0..BATCH_RUNS {
            assert_eq!(batch_run_off(i) / 64, (batch_run_off(i) + 16) / 64);
        }
        // The table ends exactly where the shard cells begin.
        assert_eq!(batch_run_off(BATCH_RUNS - 1) + 32, SB_SHARD_CELLS);
        // The owner table is on dedicated lines, and ends where the
        // commit table begins.
        assert_eq!(SB_EXTENT_OWNERS % 64, 0);
        assert_eq!(MAX_EXTENTS % 64, 0);
        assert_eq!(SB_EXTENT_OWNERS + MAX_EXTENTS as u64, SB_BATCH_TABLE);
        assert_eq!(SB_LOG_DIR % 64, 0);
        assert_eq!(log_dir_off(MAX_LOG_SEGMENTS - 1) + 8, CARVE_START);
        assert_eq!(CARVE_START % 64, 0);

        assert_eq!(SB_SHARD_CELLS % 64, 0);
        assert_eq!(SHARD_CELL_BYTES % 64, 0);
        for s in 0..MAX_SHARDS {
            // Cells start on a line and span whole lines (asserted above),
            // so fields inside their own cell never share a line with
            // another shard's.
            let cell = shard_cell(s);
            let failed_end = failed_arr_off(s) + MAX_FAILED_EPOCHS as u64 * 8;
            let fields = [
                (domain_cur_epoch_off(s), 8),
                (domain_exec_epoch_off(s), 8),
                (shard_root_holder(s), 16),
                (shard_bump_off(s), 24),
                (failed_cnt_off(s), 8),
                (failed_arr_off(s), failed_end - failed_arr_off(s)),
            ];
            for (i, &(off, len)) in fields.iter().enumerate() {
                assert_eq!(off % 8, 0);
                assert!(cell <= off && off + len <= cell + SHARD_CELL_BYTES);
                for &(o2, l2) in &fields[i + 1..] {
                    assert!(
                        off + len <= o2 || o2 + l2 <= off,
                        "shard {s} fields overlap"
                    );
                }
            }
            // The watermark triple starts a line, shares it (the InCLL
            // same-line requirement), and nothing else is on that line.
            let bump_line = shard_bump_off(s) / 64;
            assert_eq!(shard_bump_off(s) % 64, 0);
            assert_eq!(shard_bump_incll_off(s), shard_bump_off(s) + 8);
            assert_eq!(shard_bump_epoch_off(s), shard_bump_off(s) + 16);
            for &(off, len) in &fields {
                if off != shard_bump_off(s) {
                    assert!((off + len - 1) / 64 < bump_line || off / 64 > bump_line);
                }
            }
            // Root holder and its tag are adjacent words of one line.
            assert_eq!(shard_root_holder(s) / 64, (shard_root_holder(s) + 8) / 64);
        }
    }

    #[test]
    fn failed_set_append_is_entry_first_count_second() {
        let a = PArena::builder()
            .capacity_bytes(1 << 20)
            .tracked(true)
            .build()
            .unwrap();
        format(&a);
        a.global_flush();
        for s in [0, 1, MAX_SHARDS - 1] {
            // An entry whose count bump never landed is invisible...
            a.pwrite_u64(failed_arr_off(s), 77);
            assert!(failed_epochs_for(&a, s).is_empty());
            // ...and a real append pays one write-back + fence for the
            // entry, then one for the count.
            let before = a.stats().snapshot();
            record_failed_epoch_for(&a, s, 9).unwrap();
            let d = a.stats().snapshot().delta(&before);
            assert_eq!((d.clwb, d.sfence), (2, 2));
            a.crash_with(|_, _| 0);
            assert_eq!(failed_epochs_for(&a, s), vec![9]);
        }
    }

    #[test]
    fn version_probes_distinguish_blank_stale_and_current() {
        let a = arena();
        assert!(!has_magic(&a));
        format(&a);
        assert!(has_magic(&a));
        assert!(is_formatted(&a));
        assert_eq!(raw_version(&a), VERSION);
        // Older superblocks keep their magic but are not "formatted" in
        // the current sense.
        for stale in 1..VERSION {
            a.pwrite_u64(SB_VERSION, stale);
            assert!(has_magic(&a));
            assert!(!is_formatted(&a));
            assert_eq!(raw_version(&a), stale);
        }
    }

    #[test]
    fn format_then_open() {
        let a = arena();
        assert!(!is_formatted(&a));
        format(&a);
        assert!(is_formatted(&a));
        for s in 0..MAX_SHARDS {
            assert_eq!(a.pread_u64(domain_cur_epoch_off(s)), 1);
            assert_eq!(a.pread_u64(domain_exec_epoch_off(s)), 1);
        }
        assert_eq!(a.bump(), CARVE_START);
    }

    #[test]
    fn failed_epoch_set_roundtrip() {
        let a = arena();
        format(&a);
        assert!(failed_epochs_for(&a, 0).is_empty());
        record_failed_epoch_for(&a, 0, 10).unwrap();
        record_failed_epoch_for(&a, 0, 12).unwrap();
        record_failed_epoch_for(&a, 0, 10).unwrap(); // idempotent
        assert_eq!(failed_epochs_for(&a, 0), vec![10, 12]);
    }

    #[test]
    fn per_shard_failed_sets_are_independent() {
        let a = arena();
        format(&a);
        record_failed_epoch_for(&a, 0, 5).unwrap();
        record_failed_epoch_for(&a, 3, 9).unwrap();
        record_failed_epoch_for(&a, 3, 11).unwrap();
        assert_eq!(failed_epochs_for(&a, 0), vec![5]);
        assert_eq!(failed_epochs_for(&a, 3), vec![9, 11]);
        assert!(failed_epochs_for(&a, 1).is_empty());
    }

    #[test]
    fn every_shard_fills_at_the_one_capacity_and_prune_unblocks_it() {
        let a = arena();
        format(&a);
        for s in 0..MAX_SHARDS {
            for e in 0..MAX_FAILED_EPOCHS as u64 {
                record_failed_epoch_for(&a, s, e + 100).unwrap();
            }
            assert!(matches!(
                record_failed_epoch_for(&a, s, 5),
                Err(Error::FailedEpochSetFull)
            ));
            // Existing entries stay readable, an idempotent re-record is
            // still fine, and the neighbours' cells are untouched.
            record_failed_epoch_for(&a, s, 100).unwrap();
            assert_eq!(failed_epochs_for(&a, s).len(), MAX_FAILED_EPOCHS);
            if s + 1 < MAX_SHARDS {
                assert!(failed_epochs_for(&a, s + 1).is_empty());
                assert_eq!(a.pread_u64(domain_cur_epoch_off(s + 1)), 1);
            }
            prune_failed_epochs(&a, s, u64::MAX);
            record_failed_epoch_for(&a, s, 999).unwrap();
            assert_eq!(failed_epochs_for(&a, s), vec![999]);
        }
    }

    #[test]
    fn prune_drops_only_older_entries() {
        let a = arena();
        format(&a);
        for e in [4u64, 7, 9, 12] {
            record_failed_epoch_for(&a, 0, e).unwrap();
        }
        prune_failed_epochs(&a, 0, 9);
        assert_eq!(failed_epochs_for(&a, 0), vec![9, 12]);
        // Pruning everything empties the set and re-recording works.
        prune_failed_epochs(&a, 0, u64::MAX);
        assert!(failed_epochs_for(&a, 0).is_empty());
        record_failed_epoch_for(&a, 0, 20).unwrap();
        assert_eq!(failed_epochs_for(&a, 0), vec![20]);
    }

    #[test]
    fn batch_ids_are_monotonic_and_commit_matches_exactly() {
        let a = arena();
        format(&a);
        // Blocks are disjoint, ascending, and start at the old ceiling.
        let b1 = reserve_batch_ids(&a);
        let b2 = reserve_batch_ids(&a);
        assert_eq!(b1, 1..1 + BATCH_ID_BLOCK);
        assert_eq!(b2, b1.end..b1.end + BATCH_ID_BLOCK);
        assert_eq!(a.pread_u64(SB_BATCH_NEXT_ID), b2.end);

        assert!(!batch_is_committed(&a, 1));
        assert!(!batch_is_committed(&a, 0)); // 0 is "no batch", never committed
        write_batch_run_open(&a, 0, 1, 0b101);
        persist_batch_run(&a, 0);
        assert!(batch_is_committed(&a, 1));
        assert!(!batch_is_committed(&a, 2));
        assert_eq!(batch_run(&a, 0), (1, 1, 0b101));
        // Extending commits exactly the next id and widens the mask.
        write_batch_run_extend(&a, 0, 2, 0b111);
        persist_batch_run(&a, 0);
        assert!(batch_is_committed(&a, 2));
        assert!(!batch_is_committed(&a, 3));
        assert_eq!(batch_run(&a, 0), (1, 2, 0b111));
        // Clearing shard bits narrows the mask without touching the run.
        clear_batch_shard(&a, 0, 2);
        clear_batch_shard(&a, 0, 1);
        assert_eq!(batch_run(&a, 0), (1, 2, 0b001));
        clear_batch_shard(&a, 0, 0);
        assert_eq!(batch_run(&a, 0), (1, 2, 0));
        assert!(batch_is_committed(&a, 1)); // commit survives mask drain
                                            // Slot reuse: the old run disappears, the new one commits.
        write_batch_run_open(&a, 0, 5, 0b11);
        persist_batch_run(&a, 0);
        assert!(!batch_is_committed(&a, 1) && !batch_is_committed(&a, 2));
        assert!(!batch_is_committed(&a, 4));
        assert!(batch_is_committed(&a, 5));
    }

    #[test]
    fn every_persisted_prefix_of_a_run_record_names_the_old_run_or_the_new() {
        let a = PArena::builder()
            .capacity_bytes(1 << 20)
            .tracked(true)
            .build()
            .unwrap();
        let line = batch_run_off(0) / 64;
        // (the record's stores, how many, the new id, whether the slot's
        // earlier run [3, 4] is still live — else it is a reused slot's
        // stale range, which may or may not read as committed).
        type Record = (fn(&PArena), usize, u64, bool);
        let records: [Record; 3] = [
            (|a| write_batch_run_extend(a, 0, 5, 0b111), 2, 5, true),
            (|a| write_batch_run_open(a, 0, 9, 0b1), 3, 9, false),
            // Slot 1 is empty: on the same line as slot 0, which must not move.
            (|a| write_batch_run_open(a, 1, 7, 0b11), 3, 7, true),
        ];
        for (stores, n, new, earlier_is_live) in records {
            for cut in 0..=n {
                format(&a);
                write_batch_run_open(&a, 0, 3, 0b1);
                write_batch_run_extend(&a, 0, 4, 0b1);
                persist_batch_run(&a, 0);
                a.global_flush();
                stores(&a);
                a.crash_with(|l, stores| {
                    assert_eq!((l, stores), (line, n));
                    cut
                });
                let slots = (batch_run(&a, 0), batch_run(&a, 1));
                for id in 1..12 {
                    let want = match id {
                        3 | 4 if earlier_is_live => true,
                        3 | 4 => continue,
                        _ => id == new && cut == n,
                    };
                    assert_eq!(
                        batch_is_committed(&a, id),
                        want,
                        "record of {new} cut {cut}/{n}, id {id}: line reads {slots:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn extent_claims_are_exclusive_and_exactly_once() {
        let a = arena();
        format(&a);
        for i in 0..MAX_EXTENTS {
            assert_eq!(extent_owner(&a, i), 0, "fresh pool is all-free");
        }
        assert!(claim_extent(&a, 3, data_owner(0)));
        assert_eq!(extent_owner(&a, 3), 1);
        // Neither the owner nor anyone else can claim it again, for data
        // or for a log.
        assert!(!claim_extent(&a, 3, data_owner(0)));
        assert!(!claim_extent(&a, 3, data_owner(5)));
        assert!(!claim_extent(&a, 3, log_owner(0)));
        assert_eq!(extent_owner(&a, 3), 1);
        // Adjacent extents (same owner-table word) claim independently.
        assert!(claim_extent(&a, 2, data_owner(7)));
        assert!(claim_extent(&a, 4, data_owner(63)));
        assert!(claim_extent(&a, MAX_EXTENTS - 1, log_owner(63)));
        assert_eq!(extent_owner(&a, 2), 8);
        assert_eq!(extent_owner(&a, 3), 1);
        assert_eq!(extent_owner(&a, 4), 64);
        assert_eq!(extent_owner(&a, MAX_EXTENTS - 1), log_owner(63));
        // Every shard's data and log codes are distinct and non-zero.
        let codes: std::collections::HashSet<u8> = (0..MAX_SHARDS)
            .flat_map(|s| [data_owner(s), log_owner(s)])
            .collect();
        assert_eq!(codes.len(), 2 * MAX_SHARDS);
        assert!(!codes.contains(&0));
    }

    #[test]
    fn extent_claim_is_never_torn_across_a_crash() {
        let a = PArena::builder()
            .capacity_bytes(1 << 20)
            .tracked(true)
            .build()
            .unwrap();
        format(&a);
        a.global_flush();
        // A completed claim is durable the moment claim_extent returns:
        // even the harshest crash (drop every unflushed store) keeps it.
        assert!(claim_extent(&a, 9, data_owner(4)));
        a.crash_with(|_, _| 0);
        assert_eq!(extent_owner(&a, 9), 5, "a returned claim must survive");
        // A claim that crashed *before* its write-back (simulated by the
        // raw CAS without the flush) is lost whole: the byte reads free,
        // never torn, and the extent is claimable again.
        assert!(a.pcas_u8(extent_owner_off(10), 0, 3).is_ok());
        a.crash_with(|_, _| 0);
        assert_eq!(extent_owner(&a, 10), 0, "a pre-flush claim vanishes");
        assert!(claim_extent(&a, 10, log_owner(6)));
        assert_eq!(extent_owner(&a, 10), log_owner(6));
    }

    #[test]
    fn concurrent_claimants_split_the_pool_without_overlap() {
        let a = arena();
        format(&a);
        // Eight shards race to claim every extent lowest-index-first; each
        // extent must end up with exactly one owner and every shard's
        // claim set must be disjoint.
        let counts: Vec<usize> = std::thread::scope(|s| {
            (0..8usize)
                .map(|shard| {
                    let a = a.clone();
                    s.spawn(move || {
                        let mut got = 0;
                        for i in 0..MAX_EXTENTS {
                            if claim_extent(&a, i, data_owner(shard)) {
                                got += 1;
                            }
                        }
                        got
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(counts.iter().sum::<usize>(), MAX_EXTENTS);
        for i in 0..MAX_EXTENTS {
            let o = extent_owner(&a, i);
            assert!((1..=8).contains(&o), "extent {i} owner {o} out of range");
        }
    }

    #[test]
    fn format_survives_tracked_crash_after_flush() {
        let a = PArena::builder()
            .capacity_bytes(1 << 20)
            .tracked(true)
            .build()
            .unwrap();
        format(&a);
        a.global_flush();
        a.crash_seeded(1);
        assert!(is_formatted(&a));
    }
}
