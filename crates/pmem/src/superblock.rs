//! Durable superblock layout: fixed offsets shared by all subsystems.
//!
//! The first [`CARVE_START`] bytes of the arena act like a filesystem
//! superblock. Each subsystem owns a region (documented below) and accesses
//! it through its own logic; this module only centralises the offsets so
//! they cannot collide, plus the format/open handshake.
//!
//! Cache-line discipline matters here: every field group that is protected
//! by an in-cache-line log (the allocator's bump watermark and free-list
//! heads) occupies a single dedicated cache line, so the InCLL ordering
//! argument (§2.1 "granularity") applies.
//!
//! Layout (byte offsets from the arena base; line = 64 B):
//!
//! | Offset | Line(s)  | Contents |
//! |--------|----------|----------|
//! | 0      | 0        | reserved (offset 0 is the null `PPtr`) |
//! | 64     | 1        | magic, version, shard-0 durable current epoch, shard-0 first epoch of current execution |
//! | 128    | 2–16     | shard-0 failed-epoch set: count + up to 119 epochs |
//! | 1088   | 17       | shard-0 allocator bump watermark InCLL triple |
//! | 1152   | 18       | shard-0 root holder + tree metadata + shard count |
//! | 1216   | 19       | external-log region descriptor (incl. domain count) |
//! | 1280   | 20–43    | allocator class heads descriptor + head lines |
//! | 2816   | 44–59    | shard root-holder table (shards 1..64, 16 B cells) |
//! | 3840   | 60       | extent-pool descriptor (pool base + extent bytes + extent count) |
//! | 3904   | 61       | batch next-id word (monotonic durable batch-id allocator) |
//! | 3968   | 62–63    | batch-commit table: 8 × 16 B (batch id, shard mask) slots |
//! | 4096   | 64–190   | epoch-domain table: per-shard epoch counters + failed sets (shards 1..64, 128 B cells) |
//! | 12160  | 190–191  | extent-owner table: one owner byte per extent (up to 128) |
//! | 12288  | 192–254  | per-shard watermark table: one InCLL triple line per shard 1..64 |
//! | 16320  | 255      | spare |
//! | 16384  | —        | start of carvable space |
//!
//! Shard 0's epoch counters, failed-epoch set and watermark triple stay on
//! the **legacy cells** (offsets 64–1152), so a `shards(1)` store keeps
//! the pre-domain cell positions; shards 1..63 get a 128-byte cell each in
//! the domain table (their own durable current/exec epoch pair plus a
//! smaller failed-epoch set) and — since v4 — a dedicated watermark line
//! each in the per-shard watermark table, so concurrent slab carves on
//! different shards never share a cache line.

use crate::{Error, PArena, Result};

/// Identifies a formatted InCLL arena.
pub const MAGIC: u64 = 0x19C1_1C05_A5B1_2019;
/// On-media format version. Version 7 changed the **external-log entry
/// checksum** (byte-serial FNV-1a → XXH64, see `incll-extlog`'s "Entry
/// format"): the superblock cells are where v6 left them, but the sum is
/// part of what a crashed medium holds — a v6 log read by this build
/// would fail every checksum and silently skip undo — so v6 media is
/// rejected like every other foreign version. Version 6 replaced the
/// static per-shard region split with the **chunked extent pool**: the carvable space is a
/// pool of fixed-size extents and shards claim them online from the
/// durable extent-owner table ([`SB_EXTENT_OWNERS`], descriptor at
/// [`SB_ARENA_SPLIT`]/[`SB_ARENA_REGION_BYTES`]/[`SB_EXTENT_COUNT`]) — a
/// v5 split descriptor would be misread as a pool, so v5 media is
/// rejected like every other foreign version. Version 5 added the
/// batch-commit table ([`SB_BATCH_NEXT_ID`], [`SB_BATCH_TABLE`]) backing
/// cross-shard atomic write batches. Version 4 added the per-shard
/// allocator arenas: the carve-region descriptor, the per-shard
/// watermark table ([`SB_SHARD_BUMP_TABLE`]) and another [`CARVE_START`]
/// move. Version 3 added the per-shard epoch-domain table
/// ([`SB_DOMAIN_TABLE`]); version 2 added the shard table
/// ([`SB_SHARD_COUNT`], [`shard_root_holder`]); version-1 media has
/// neither. Older media must be rejected by openers, not reinterpreted.
pub const VERSION: u64 = 7;

/// Offset of the magic word.
pub const SB_MAGIC: u64 = 64;
/// Offset of the format version.
pub const SB_VERSION: u64 = 72;
/// Offset of shard 0's durable current-epoch word (see `incll-epoch`).
pub const SB_CUR_EPOCH: u64 = 80;
/// Offset of shard 0's first-epoch-of-current-execution word.
pub const SB_EXEC_EPOCH: u64 = 88;

/// Offset of shard 0's failed-epoch count.
pub const SB_FAILED_CNT: u64 = 128;
/// Offset of shard 0's failed-epoch array (u64 entries).
pub const SB_FAILED_ARR: u64 = 136;
/// Capacity of shard 0's failed-epoch set.
///
/// Each entry is one crash survived by this arena since the last completed
/// checkpoint: completed checkpoints prune the set (see
/// [`prune_failed_epochs`] and the compaction pass in `incll`'s advance
/// hooks), so the bound is on crashes *between* checkpoints, not on the
/// arena's lifetime.
pub const MAX_FAILED_EPOCHS: usize = 119;

/// Offset of **shard 0's** allocator bump-watermark InCLL triple
/// (watermark, watermarkInCLL, epoch — one cache line). On a `shards(1)`
/// store this is the whole arena's single carve frontier (the pre-v4
/// meaning); under per-shard arenas (v4) it is shard 0's frontier, with
/// shards 1..63 on [`SB_SHARD_BUMP_TABLE`] lines.
pub const SB_BUMP: u64 = 1088;
/// Offset of the logged (epoch-start) watermark.
pub const SB_BUMP_INCLL: u64 = 1096;
/// Offset of the watermark log's epoch tag.
pub const SB_BUMP_EPOCH: u64 = 1104;

/// Offset of the extent-pool base word (v6): the base offset of the
/// extent pool the allocator carved out of the arena at create time, or 0
/// on a store whose allocator was created single-domain (one shared
/// frontier, the paper's exact media shape — a `shards(1)` store keeps a
/// single implicit extent chain and never touches the pool machinery).
pub const SB_ARENA_SPLIT: u64 = 3840;
/// Offset of the bytes-per-extent word (v6; meaningful only when
/// [`SB_ARENA_SPLIT`] is nonzero). Power of two; extent `i` spans
/// `[base + i·extent_bytes, base + (i+1)·extent_bytes)`.
pub const SB_ARENA_REGION_BYTES: u64 = 3848;
/// Offset of the extent-count word (v6): how many extents the pool holds
/// (`1..=`[`MAX_EXTENTS`]). Shares line 60 with the other two descriptor
/// words, so the whole descriptor persists with one write-back.
pub const SB_EXTENT_COUNT: u64 = 3856;

// ---------------------------------------------------------------------
// Extent-owner table (v6)
// ---------------------------------------------------------------------

/// Offset of the extent-owner table: one byte per extent, 0 = free,
/// `shard + 1` = owned by that shard. The table occupies two dedicated
/// cache lines (no other superblock field shares them), so claim
/// write-backs never race another subsystem's line state.
///
/// A claim is a byte CAS (`0 → shard + 1`) followed by `clwb`/`sfence`
/// ([`claim_extent`]): the byte is the *only* durable word naming the
/// owner, so a crash anywhere in the protocol leaves the extent either
/// durably owned or durably free — never torn. The shard's carve
/// frontier can only reference the extent *after* the fence, and
/// frontiers persist no earlier than the shard's next checkpoint flush,
/// so a durable frontier inside an extent implies a durable claim.
/// The converse crash shape — claim durable, frontier not — is the
/// **in-doubt claim**: recovery keeps the extent on the owning shard's
/// reserve chain (extents are never released), with zero media writes,
/// so the repair is byte-identical at every recovery worker count.
pub const SB_EXTENT_OWNERS: u64 = 12160;
/// Maximum number of pool extents (the owner table is two cache lines).
pub const MAX_EXTENTS: usize = 128;

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

/// Reads extent `i`'s owner byte: 0 = free, `shard + 1` = owned.
pub fn extent_owner(arena: &PArena, i: usize) -> u8 {
    arena.pread_u8(extent_owner_off(i))
}

/// Claims extent `i` for `shard` if it is free, making the claim durable
/// before returning `true`. Returns `false` when another shard (or a
/// prior claim by this one) already owns it. See [`SB_EXTENT_OWNERS`]
/// for the crash-atomicity argument.
///
/// # Panics
///
/// Panics if `shard + 1` does not fit the owner byte.
pub fn claim_extent(arena: &PArena, i: usize, shard: usize) -> bool {
    let owner = u8::try_from(shard + 1).expect("shard fits the owner byte");
    let off = extent_owner_off(i);
    if arena.pcas_u8(off, 0, owner).is_err() {
        return false;
    }
    arena.clwb(off);
    arena.sfence();
    true
}

// ---------------------------------------------------------------------
// Batch-commit table (v5)
// ---------------------------------------------------------------------

/// Offset of the durable next-batch-id word (v5). Monotonic: every
/// cross-shard write batch takes the current value and durably bumps it
/// **before** writing any intent entry, so a batch id on media is never
/// reissued. Format initialises it to 1 (0 means "no batch" in the
/// commit table below).
pub const SB_BATCH_NEXT_ID: u64 = 3904;

/// Offset of the batch-commit table (v5): [`BATCH_SLOTS`] slots of 16
/// bytes each — word 0 the batch id (0 = empty slot), word 1 the mask of
/// shards the batch touched (bit `s` = shard `s`; [`MAX_SHARDS`] is 64,
/// so one word suffices).
///
/// A batch is **committed** iff some slot's id word equals its batch id
/// exactly. Both words of a slot share one cache line, so the commit
/// protocol (mask first, id second, same line) rides the InCLL
/// same-line-ordering argument: a torn commit leaves the old id, never a
/// new id with a stale mask.
pub const SB_BATCH_TABLE: u64 = 3968;
/// Number of batch-commit slots. Bounds the batches that can be in-doubt
/// at once; committers reuse slots once every shard in a slot's mask has
/// advanced past the batch's intents (see `incll`'s eviction protocol).
pub const BATCH_SLOTS: usize = 8;

/// The offset of batch-commit slot `i` (its shard-mask word lives at
/// `+8`).
///
/// # Panics
///
/// Panics if `i >= BATCH_SLOTS`.
#[inline]
pub const fn batch_slot_off(i: usize) -> u64 {
    assert!(i < BATCH_SLOTS, "batch slot out of range");
    SB_BATCH_TABLE + (i as u64) * 16
}

/// Durably allocates the next batch id: reads the counter, bumps and
/// flushes it, and returns the pre-bump value. A crash between the bump
/// and the batch's first intent merely wastes an id.
pub fn next_batch_id(arena: &PArena) -> u64 {
    let id = arena.pread_u64(SB_BATCH_NEXT_ID).max(1);
    arena.pwrite_u64(SB_BATCH_NEXT_ID, id + 1);
    arena.clwb(SB_BATCH_NEXT_ID);
    arena.sfence();
    id
}

/// Reads batch-commit slot `i` as `(batch_id, shard_mask)`; id 0 means
/// the slot is empty.
pub fn batch_slot(arena: &PArena, i: usize) -> (u64, u64) {
    let off = batch_slot_off(i);
    (arena.pread_u64(off), arena.pread_u64(off + 8))
}

/// Durably writes the commit record for `batch_id` into slot `i`: mask
/// first, id second — both on one line, one flush. After the fence the
/// batch is committed; before it, the slot still names its previous
/// occupant (or 0) and the batch is in doubt (recovery drops it).
pub fn set_batch_slot(arena: &PArena, i: usize, batch_id: u64, shard_mask: u64) {
    let off = batch_slot_off(i);
    arena.pwrite_u64(off + 8, shard_mask);
    arena.pwrite_u64(off, batch_id);
    arena.clwb(off);
    arena.sfence();
}

/// Clears shard `shard`'s bit in slot `i`'s durable mask (plain store, no
/// flush — callers run this after the durable epoch bump that already
/// made the batch's intents on that shard non-replayable, so losing the
/// clear is merely conservative).
pub fn clear_batch_shard(arena: &PArena, i: usize, shard: usize) {
    let off = batch_slot_off(i);
    let mask = arena.pread_u64(off + 8);
    arena.pwrite_u64(off + 8, mask & !(1u64 << shard));
}

/// Returns `true` if `batch_id` has a durable commit record: some slot's
/// id word matches it exactly. Exact match is the whole protocol —
/// reused slots hold *different* ids, so an in-doubt batch can never
/// alias a committed one.
pub fn batch_is_committed(arena: &PArena, batch_id: u64) -> bool {
    batch_id != 0 && (0..BATCH_SLOTS).any(|i| arena.pread_u64(batch_slot_off(i)) == batch_id)
}

/// Offset of the durable tree-root pointer (a root-holder cell). Under
/// sharding this is **shard 0's** holder — the legacy single-tree layout
/// is exactly the `shard_count == 1` case (see [`shard_root_holder`]).
pub const SB_TREE_ROOT: u64 = 1152;
/// Offset of the root holder's logged-epoch tag (holders are externally
/// logged at most once per epoch; the tag enforces it).
pub const SB_TREE_ROOT_TAG: u64 = 1160;
/// Offset of tree metadata (initialisation flag).
pub const SB_TREE_META: u64 = 1168;
/// Offset of the keyspace shard count, fixed at store creation (power of
/// two, `1..=`[`MAX_SHARDS`]; 0 on media that predates store creation).
pub const SB_SHARD_COUNT: u64 = 1176;

/// Offset of the shard root-holder table: one 16-byte holder/tag cell per
/// shard **after the first** (shard 0 keeps the legacy
/// [`SB_TREE_ROOT`]/[`SB_TREE_ROOT_TAG`] pair, so a 1-shard store is
/// byte-identical to the pre-shard layout outside the version and count
/// words).
pub const SB_SHARD_TABLE: u64 = 2816;
/// Maximum shard count (the table holds `MAX_SHARDS - 1` cells).
pub const MAX_SHARDS: usize = 64;

/// The superblock offset of shard `i`'s root-holder cell (its logged-epoch
/// tag lives at `+8`).
///
/// # Panics
///
/// Panics if `i >= MAX_SHARDS`.
#[inline]
pub const fn shard_root_holder(i: usize) -> u64 {
    assert!(i < MAX_SHARDS, "shard index out of range");
    if i == 0 {
        SB_TREE_ROOT
    } else {
        SB_SHARD_TABLE + (i as u64 - 1) * 16
    }
}

/// Offset of the external-log region pointer.
pub const SB_EXTLOG_OFF: u64 = 1216;
/// Offset of the external-log thread-count word.
pub const SB_EXTLOG_THREADS: u64 = 1224;
/// Offset of the external-log per-slot capacity word.
pub const SB_EXTLOG_PER_THREAD: u64 = 1232;
/// Offset of the external-log domain-count word (v3; 0 reads as 1 so
/// domain-oblivious media stays interpretable).
pub const SB_EXTLOG_DOMAINS: u64 = 1240;

/// Offset of the first allocator class-head line.
pub const SB_PALLOC_HEADS: u64 = 1280;
/// Maximum number of allocator size classes (one line each).
pub const PALLOC_MAX_CLASSES: usize = 24;

// ---------------------------------------------------------------------
// Epoch-domain table (v3)
// ---------------------------------------------------------------------

/// Offset of the epoch-domain table: one [`DOMAIN_CELL_BYTES`] cell per
/// shard **after the first** (shard 0 keeps the legacy epoch and
/// failed-set cells, preserving the pre-domain positions for `shards(1)`
/// media).
///
/// Cell layout (byte offsets within the cell):
///
/// ```text
/// +0  durable current epoch    +8  first epoch of current execution
/// +16 failed-epoch count       +24 failed epochs (up to 13 × u64)
/// ```
pub const SB_DOMAIN_TABLE: u64 = 4096;
/// Bytes per epoch-domain cell (two cache lines).
pub const DOMAIN_CELL_BYTES: u64 = 128;
/// Failed-epoch capacity of a non-zero shard's domain cell. Smaller than
/// shard 0's legacy [`MAX_FAILED_EPOCHS`]; compaction at completed
/// checkpoints keeps both far from full.
pub const MAX_FAILED_EPOCHS_SHARD: usize = 13;

#[inline]
const fn domain_cell(shard: usize) -> u64 {
    assert!(shard >= 1 && shard < MAX_SHARDS, "domain cell out of range");
    SB_DOMAIN_TABLE + (shard as u64 - 1) * DOMAIN_CELL_BYTES
}

/// The offset of shard `i`'s durable current-epoch word.
///
/// # Panics
///
/// Panics if `i >= MAX_SHARDS`.
#[inline]
pub const fn domain_cur_epoch_off(i: usize) -> u64 {
    if i == 0 {
        SB_CUR_EPOCH
    } else {
        domain_cell(i)
    }
}

/// The offset of shard `i`'s first-epoch-of-current-execution word.
///
/// # Panics
///
/// Panics if `i >= MAX_SHARDS`.
#[inline]
pub const fn domain_exec_epoch_off(i: usize) -> u64 {
    if i == 0 {
        SB_EXEC_EPOCH
    } else {
        domain_cell(i) + 8
    }
}

/// The offset of shard `i`'s failed-epoch count word.
#[inline]
const fn failed_cnt_off(i: usize) -> u64 {
    if i == 0 {
        SB_FAILED_CNT
    } else {
        domain_cell(i) + 16
    }
}

/// The offset of shard `i`'s failed-epoch array.
#[inline]
const fn failed_arr_off(i: usize) -> u64 {
    if i == 0 {
        SB_FAILED_ARR
    } else {
        domain_cell(i) + 24
    }
}

/// The failed-epoch capacity of shard `i`'s set.
#[inline]
pub const fn failed_capacity(i: usize) -> usize {
    if i == 0 {
        MAX_FAILED_EPOCHS
    } else {
        MAX_FAILED_EPOCHS_SHARD
    }
}

// ---------------------------------------------------------------------
// Per-shard watermark table (v4)
// ---------------------------------------------------------------------

/// Offset of the per-shard watermark table: one full cache line per shard
/// **after the first** (shard 0 keeps the legacy [`SB_BUMP`] triple),
/// holding that shard's carve-frontier InCLL triple:
///
/// ```text
/// +0  watermark    +8  watermarkInCLL    +16 epoch tag
/// ```
///
/// Each shard's triple lives on its own line, so the same-line-ordering
/// (InCLL) protocol applies per shard and concurrent carves on different
/// shards never contend on a cache line. The epoch tag is on the owning
/// shard's **own** timeline — exactly the single-domain watermark
/// protocol, instantiated once per shard.
pub const SB_SHARD_BUMP_TABLE: u64 = 12288;

/// The offset of shard `i`'s durable carve watermark.
///
/// # Panics
///
/// Panics if `i >= MAX_SHARDS`.
#[inline]
pub const fn shard_bump_off(i: usize) -> u64 {
    assert!(i < MAX_SHARDS, "shard index out of range");
    if i == 0 {
        SB_BUMP
    } else {
        SB_SHARD_BUMP_TABLE + (i as u64 - 1) * 64
    }
}

/// The offset of shard `i`'s logged (epoch-start) watermark.
#[inline]
pub const fn shard_bump_incll_off(i: usize) -> u64 {
    shard_bump_off(i) + 8
}

/// The offset of shard `i`'s watermark-log epoch tag.
#[inline]
pub const fn shard_bump_epoch_off(i: usize) -> u64 {
    shard_bump_off(i) + 16
}

/// First carvable offset (end of the superblock + domain and watermark
/// tables).
pub const CARVE_START: u64 = 16384;

/// Formats a fresh arena: writes magic/version, zeroes all superblock
/// fields, and flushes the superblock.
///
/// Calling `format` on an already-formatted arena wipes it.
pub fn format(arena: &PArena) {
    // Zero the whole superblock area first (idempotent on fresh arenas).
    let zeros = [0u8; (CARVE_START - 64) as usize];
    arena.pwrite_bytes(64, &zeros);
    arena.pwrite_u64(SB_VERSION, VERSION);
    arena.pwrite_u64(SB_CUR_EPOCH, 1);
    arena.pwrite_u64(SB_EXEC_EPOCH, 1);
    arena.pwrite_u64(SB_BUMP, CARVE_START);
    arena.pwrite_u64(SB_BUMP_INCLL, CARVE_START);
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

/// Appends `epoch` to shard 0's durable failed-epoch set. See
/// [`record_failed_epoch_for`].
///
/// # Errors
///
/// [`Error::FailedEpochSetFull`] once [`MAX_FAILED_EPOCHS`] crashes have
/// accumulated without a completed checkpoint.
pub fn record_failed_epoch(arena: &PArena, epoch: u64) -> Result<()> {
    record_failed_epoch_for(arena, 0, epoch)
}

/// Appends `epoch` to shard `shard`'s durable failed-epoch set
/// (idempotent), flushing the update.
///
/// # Errors
///
/// [`Error::FailedEpochSetFull`] once [`failed_capacity`] crashes have
/// been recorded for the shard without an intervening completed
/// checkpoint (which prunes the set).
pub fn record_failed_epoch_for(arena: &PArena, shard: usize, epoch: u64) -> Result<()> {
    let cap = failed_capacity(shard);
    let arr = failed_arr_off(shard);
    let cnt_off = failed_cnt_off(shard);
    let cnt = arena.pread_u64(cnt_off) as usize;
    for i in 0..cnt.min(cap) {
        if arena.pread_u64(arr + (i as u64) * 8) == epoch {
            return Ok(()); // already recorded (re-crash during recovery)
        }
    }
    if cnt >= cap {
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

/// Reads shard 0's durable failed-epoch set.
pub fn failed_epochs(arena: &PArena) -> Vec<u64> {
    failed_epochs_for(arena, 0)
}

/// Reads shard `shard`'s durable failed-epoch set.
pub fn failed_epochs_for(arena: &PArena, shard: usize) -> Vec<u64> {
    let cap = failed_capacity(shard);
    let arr = failed_arr_off(shard);
    let cnt = (arena.pread_u64(failed_cnt_off(shard)) as usize).min(cap);
    (0..cnt)
        .map(|i| arena.pread_u64(arr + (i as u64) * 8))
        .collect()
}

/// Returns `true` if `epoch` is in shard 0's durable failed-epoch set.
pub fn is_failed_epoch(arena: &PArena, epoch: u64) -> bool {
    failed_epochs(arena).contains(&epoch)
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

    #[test]
    fn layout_lines_do_not_collide() {
        // Field groups that must share a line, and groups that must not.
        assert_eq!(SB_BUMP / 64, SB_BUMP_INCLL / 64);
        assert_eq!(SB_BUMP / 64, SB_BUMP_EPOCH / 64);
        assert_ne!(SB_MAGIC / 64, SB_FAILED_CNT / 64);
        assert_ne!(SB_BUMP / 64, SB_TREE_ROOT / 64);
        assert!(SB_FAILED_ARR + (MAX_FAILED_EPOCHS as u64) * 8 <= SB_BUMP);
        assert!(SB_PALLOC_HEADS + (PALLOC_MAX_CLASSES as u64) * 64 <= SB_SHARD_TABLE);
        // The shard table must sit past the allocator heads and in front
        // of the domain table, which in turn fits before the watermark
        // table, which fits before carvable space.
        assert!(shard_root_holder(MAX_SHARDS - 1) + 16 <= SB_DOMAIN_TABLE);
        assert!(
            domain_cur_epoch_off(MAX_SHARDS - 1) + DOMAIN_CELL_BYTES <= SB_SHARD_BUMP_TABLE,
            "domain table must fit before the watermark table"
        );
        assert!(
            shard_bump_off(MAX_SHARDS - 1) + 64 <= CARVE_START,
            "watermark table must fit before carvable space"
        );
        // A domain cell must hold its epochs, count and full failed array.
        assert!(24 + (MAX_FAILED_EPOCHS_SHARD as u64) * 8 <= DOMAIN_CELL_BYTES);
        // The extent-pool descriptor must not collide with its neighbours,
        // and all three words must share line 60 (one write-back).
        assert!(SB_ARENA_SPLIT >= shard_root_holder(MAX_SHARDS - 1) + 16);
        const { assert!(SB_EXTENT_COUNT + 8 <= SB_BATCH_NEXT_ID) };
        assert_eq!(SB_ARENA_SPLIT / 64, SB_EXTENT_COUNT / 64);
        // The extent-owner table owns two dedicated lines between the
        // domain table and the per-shard watermark table.
        assert_eq!(SB_EXTENT_OWNERS % 64, 0);
        assert!(domain_cur_epoch_off(MAX_SHARDS - 1) + DOMAIN_CELL_BYTES <= SB_EXTENT_OWNERS);
        assert!(extent_owner_off(MAX_EXTENTS - 1) < SB_SHARD_BUMP_TABLE);
        // The batch next-id word and commit table sit between the carve
        // descriptor and the domain table; each slot's two words share a
        // line (the commit-ordering requirement).
        const { assert!(SB_BATCH_NEXT_ID + 8 <= SB_BATCH_TABLE) };
        assert!(batch_slot_off(BATCH_SLOTS - 1) + 16 <= SB_DOMAIN_TABLE);
        for i in 0..BATCH_SLOTS {
            assert_eq!(batch_slot_off(i) / 64, (batch_slot_off(i) + 8) / 64);
        }
    }

    #[test]
    fn shard_bump_triples_are_line_exclusive_and_legacy_anchored() {
        assert_eq!(shard_bump_off(0), SB_BUMP);
        assert_eq!(shard_bump_incll_off(0), SB_BUMP_INCLL);
        assert_eq!(shard_bump_epoch_off(0), SB_BUMP_EPOCH);
        let lines: Vec<u64> = (0..MAX_SHARDS).map(|i| shard_bump_off(i) / 64).collect();
        for (i, &l) in lines.iter().enumerate() {
            assert_eq!(shard_bump_off(i) % 64, 0, "triple {i} must start a line");
            // The whole triple shares one line (the InCLL requirement)...
            assert_eq!(shard_bump_epoch_off(i) / 64, l);
            // ...and no two shards share a line (no cross-shard contention).
            for &other in &lines[i + 1..] {
                assert_ne!(l, other, "watermark lines must be per shard");
            }
        }
    }

    #[test]
    fn shard_holder_cells_are_distinct_and_aligned() {
        assert_eq!(shard_root_holder(0), SB_TREE_ROOT);
        let holders: Vec<u64> = (0..MAX_SHARDS).map(shard_root_holder).collect();
        for (i, &h) in holders.iter().enumerate() {
            assert_eq!(h % 16, 0, "holder {i} must be 16-byte aligned");
            for &other in &holders[i + 1..] {
                assert!(other >= h + 16, "holder cells must not overlap");
            }
        }
    }

    #[test]
    fn domain_cells_are_distinct_and_legacy_anchored() {
        assert_eq!(domain_cur_epoch_off(0), SB_CUR_EPOCH);
        assert_eq!(domain_exec_epoch_off(0), SB_EXEC_EPOCH);
        assert_eq!(failed_capacity(0), MAX_FAILED_EPOCHS);
        let cells: Vec<u64> = (1..MAX_SHARDS).map(domain_cur_epoch_off).collect();
        for (i, &c) in cells.iter().enumerate() {
            assert_eq!(c % 64, 0, "domain cell {i} must start a cache line");
            for &other in &cells[i + 1..] {
                assert!(other >= c + DOMAIN_CELL_BYTES);
            }
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
        // Older (v1..v6) superblocks keep their magic but are no longer
        // "formatted" in the current sense.
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
        assert_eq!(a.pread_u64(SB_CUR_EPOCH), 1);
        assert_eq!(a.pread_u64(SB_BUMP), CARVE_START);
    }

    #[test]
    fn failed_epoch_set_roundtrip() {
        let a = arena();
        format(&a);
        assert!(failed_epochs(&a).is_empty());
        record_failed_epoch(&a, 10).unwrap();
        record_failed_epoch(&a, 12).unwrap();
        record_failed_epoch(&a, 10).unwrap(); // idempotent
        assert_eq!(failed_epochs(&a), vec![10, 12]);
        assert!(is_failed_epoch(&a, 12));
        assert!(!is_failed_epoch(&a, 11));
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
    fn failed_epoch_set_fills_up() {
        let a = arena();
        format(&a);
        for e in 0..MAX_FAILED_EPOCHS as u64 {
            record_failed_epoch(&a, e + 100).unwrap();
        }
        assert!(matches!(
            record_failed_epoch(&a, 5),
            Err(Error::FailedEpochSetFull)
        ));
        // Existing entries still readable and idempotent re-record still ok.
        record_failed_epoch(&a, 100).unwrap();
    }

    #[test]
    fn shard_failed_epoch_set_fills_at_shard_capacity() {
        let a = arena();
        format(&a);
        for e in 0..MAX_FAILED_EPOCHS_SHARD as u64 {
            record_failed_epoch_for(&a, 2, e + 100).unwrap();
        }
        assert!(matches!(
            record_failed_epoch_for(&a, 2, 5),
            Err(Error::FailedEpochSetFull)
        ));
    }

    #[test]
    fn prune_drops_only_older_entries() {
        let a = arena();
        format(&a);
        for e in [4u64, 7, 9, 12] {
            record_failed_epoch(&a, e).unwrap();
        }
        prune_failed_epochs(&a, 0, 9);
        assert_eq!(failed_epochs(&a), vec![9, 12]);
        // Pruning everything empties the set and re-recording works.
        prune_failed_epochs(&a, 0, u64::MAX);
        assert!(failed_epochs(&a).is_empty());
        record_failed_epoch(&a, 20).unwrap();
        assert_eq!(failed_epochs(&a), vec![20]);
    }

    #[test]
    fn prune_unblocks_a_full_set() {
        let a = arena();
        format(&a);
        for e in 0..MAX_FAILED_EPOCHS_SHARD as u64 {
            record_failed_epoch_for(&a, 1, e + 10).unwrap();
        }
        assert!(record_failed_epoch_for(&a, 1, 999).is_err());
        prune_failed_epochs(&a, 1, u64::MAX);
        record_failed_epoch_for(&a, 1, 999).unwrap();
        assert_eq!(failed_epochs_for(&a, 1), vec![999]);
    }

    #[test]
    fn batch_ids_are_monotonic_and_commit_matches_exactly() {
        let a = arena();
        format(&a);
        let b1 = next_batch_id(&a);
        let b2 = next_batch_id(&a);
        assert_eq!(b1, 1);
        assert_eq!(b2, 2);
        assert!(!batch_is_committed(&a, b1));
        assert!(!batch_is_committed(&a, 0)); // 0 is "no batch", never committed
        set_batch_slot(&a, 0, b1, 0b101);
        assert!(batch_is_committed(&a, b1));
        assert!(!batch_is_committed(&a, b2));
        assert_eq!(batch_slot(&a, 0), (b1, 0b101));
        // Clearing shard bits narrows the mask without touching the id.
        clear_batch_shard(&a, 0, 2);
        assert_eq!(batch_slot(&a, 0), (b1, 0b001));
        clear_batch_shard(&a, 0, 0);
        assert_eq!(batch_slot(&a, 0), (b1, 0));
        assert!(batch_is_committed(&a, b1)); // commit survives mask drain
                                             // Slot reuse: the old id disappears, the new one commits.
        set_batch_slot(&a, 0, b2, 0b11);
        assert!(!batch_is_committed(&a, b1));
        assert!(batch_is_committed(&a, b2));
    }

    #[test]
    fn extent_claims_are_exclusive_and_exactly_once() {
        let a = arena();
        format(&a);
        for i in 0..MAX_EXTENTS {
            assert_eq!(extent_owner(&a, i), 0, "fresh pool is all-free");
        }
        assert!(claim_extent(&a, 3, 0));
        assert_eq!(extent_owner(&a, 3), 1);
        // Neither the owner nor anyone else can claim it again.
        assert!(!claim_extent(&a, 3, 0));
        assert!(!claim_extent(&a, 3, 5));
        assert_eq!(extent_owner(&a, 3), 1);
        // Adjacent extents (same owner-table word) claim independently.
        assert!(claim_extent(&a, 2, 7));
        assert!(claim_extent(&a, 4, 63));
        assert_eq!(extent_owner(&a, 2), 8);
        assert_eq!(extent_owner(&a, 3), 1);
        assert_eq!(extent_owner(&a, 4), 64);
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
        assert!(claim_extent(&a, 9, 4));
        a.crash_with(|_, _| 0);
        assert_eq!(extent_owner(&a, 9), 5, "a returned claim must survive");
        // A claim that crashed *before* its write-back (simulated by the
        // raw CAS without the flush) is lost whole: the byte reads free,
        // never torn, and the extent is claimable again.
        assert!(a.pcas_u8(extent_owner_off(10), 0, 3).is_ok());
        a.crash_with(|_, _| 0);
        assert_eq!(extent_owner(&a, 10), 0, "a pre-flush claim vanishes");
        assert!(claim_extent(&a, 10, 6));
        assert_eq!(extent_owner(&a, 10), 7);
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
                            if claim_extent(&a, i, shard) {
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
