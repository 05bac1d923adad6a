//! Cross-shard atomic write batches: the mini-transaction layer.
//!
//! Since every shard checkpoints and recovers on its own epoch timeline
//! (PR 4), a multi-key write spanning shards is not crash-atomic by
//! itself: a crash can persist shard `a`'s half at its boundary while
//! shard `b`'s half rolls back. [`WriteBatch`] restores atomicity for
//! exactly those writes, without giving up the per-shard cadence:
//!
//! 1. **Stage** — [`Session::batch`] collects puts/deletes in DRAM; no
//!    tree or media byte is touched until commit.
//! 2. **Intent entries** — commit takes the next batch id (monotonic;
//!    ids are reserved from the superblock in durable blocks,
//!    [`incll_pmem::superblock::reserve_batch_ids`], so taking one costs
//!    a fence only once per block, and that fence precedes every intent
//!    of the block) and appends one *intent* entry per operation into the
//!    owning shard's external-log buffer
//!    ([`incll_extlog::ExtLog::log_intent_in`]) — a tagged entry kind
//!    beside the undo entries, checksummed the same way. Intents are redo
//!    records: recovery replays them *forward*, never into an object.
//!    Intents only *stage* in the log; one
//!    [`incll_extlog::ExtLog::drain_thread`] then makes all of them
//!    durable behind a single `sfence`, whatever shards they are on —
//!    the first of a commit's two ordering points: *intents durable
//!    before the commit record*.
//! 3. **Commit record** — one durable cache line in the superblock batch
//!    table marks the batch committed, the second ordering point (*record
//!    durable before the ack*). A table slot is a **commit run**
//!    `(lo, hi, shard mask)`: the ids `lo..=hi` are committed. A commit
//!    whose id directly follows this execution's open run *extends* it
//!    (mask widened first, `hi` second —
//!    [`incll_pmem::superblock::write_batch_run_extend`]); after any id
//!    gap — a batch that staged and never committed, a reopen — it
//!    *opens* the next run (mask, `lo`, `hi`). Either way: same line, one
//!    `clwb`, one `sfence`. This is the atomicity point: an id inside a
//!    run is committed everywhere, any other id nowhere. A run is still a
//!    set of exact ids — it only ever grows by the very next id, so no
//!    uncommitted id can lie inside one — never a watermark.
//! 4. **Apply** — the staged operations run through the ordinary put /
//!    remove paths while every touched shard is pinned
//!    (`ThreadHandle::pin_mask`, ascending shard order), so each
//!    shard's half lands in a single epoch of that shard.
//!
//! So a durable commit costs exactly two fences of its own, at any shard
//! count; whatever else it fences is the ordinary write path's (an undo
//! entry for a node the in-cache-line logs cannot cover).
//!
//! Per-shard recovery resolves in-doubt batches deterministically: the
//! replay scan surfaces each shard's intents, and intents whose batch id
//! lies inside a durable commit run are **redone** through the normal
//! put / remove paths (idempotent — a second crash replays them again),
//! while all others are **dropped**. Resolution is per-shard work on
//! shard-owned state, so it is byte-identical at every
//! `recovery_threads` count.
//!
//! A shard's epoch boundary makes its applied half durable and
//! simultaneously discards its log buffers — so the boundary hook also
//! retires the shard's bit from every run's mask
//! ([`incll_pmem::superblock::clear_batch_shard`]); a later commit that
//! extends the run names the shard again. A run whose mask drained to
//! zero is a reusable slot (its stale range can match nothing: every
//! intent its ids wrote is gone). Slots are consumed per id gap, not per
//! commit, so the table fills only when gaps keep coming with no boundary
//! in between; commit then evicts the run covering the fewest shards by
//! forcing those shards over a boundary first. **Nothing here ends an
//! epoch on a store without a cadence except the log-room rule below**,
//! which every write obeys: how much a crash may leave to redo is bounded
//! by the log buffers' size ([`crate::Store::in_doubt_bound_bytes`], live
//! in [`crate::ShardStats::in_doubt_log_bytes`]), and every forced
//! boundary is counted in [`crate::ShardStats::advances_forced`].
//!
//! **Log room.** Log space is only reclaimed at a boundary, so before
//! any pin is taken commit reserves, per covered shard, the batch's
//! intent bytes plus an undo allowance per op and one split chain, and
//! forces a boundary on every shard whose (thread, shard) buffer lacks
//! that room — the same rule, in the same function, that every
//! [`crate::Store::put`] obeys with one op's worst case. A boundary
//! between that reservation and the pins may trim a buffer back to its
//! first segment, so commit checks each covered shard's room again once
//! its pins hold boundaries off, and on a short buffer drops the pins
//! and the table lock and reserves again. A batch that would not fit an
//! *empty* buffer fails with [`Error::BatchExceedsLog`] before any id,
//! intent or record is written.
//!
//! **No pin across a commit that may checkpoint.** A forced boundary waits
//! for every pin on the shard to drop — the committing session's own
//! included. So a commit whose buffer is short while its session holds a
//! pin on any shard (a live [`crate::ValueRef`], a
//! [`Session::pin_shard`] guard) fails with [`Error::SessionPinned`]
//! before any id, intent or record. The intent protocol may also force
//! boundaries to free a run slot, so a commit that takes the table lock
//! checks for a pin first — on every such commit, not only the one that
//! would have evicted.
//!
//! **Single-shard batches take none of the intent machinery**: when
//! every staged key routes to one shard (always true with `shards(1)`),
//! commit holds one pin on that shard across the ordinary put /
//! remove calls — same-epoch atomicity with no batch id, no intents, no
//! commit record. `shards(1)` media and semantics are unchanged.

use std::sync::atomic::Ordering;

use incll_extlog::ExtLog;
use incll_pmem::{superblock, PArena};

use crate::error::{Error, MAX_VALUE_BYTES};
use crate::store::{Session, Store};
use crate::tree::{Inner, SPLIT_CHAIN, UNDO_ALLOWANCE};

/// Most operations one [`WriteBatch`] can stage. Every staged op becomes
/// an intent entry in the committing thread's external-log buffers, so
/// the cap bounds the log space a single commit can pin between
/// checkpoints.
pub const MAX_BATCH_OPS: usize = 1024;

/// Intent-payload op kinds (`[kind: u64][key_len: u64][key][val]`).
const KIND_PUT: u64 = 0;
const KIND_DELETE: u64 = 1;

/// One commit run of the in-memory mirror: the ids `lo..=hi` are
/// committed, and `mask` names the shards whose logs may still hold their
/// intents. `lo == 0` is an empty slot.
#[derive(Clone, Copy, Default)]
struct Run {
    lo: u64,
    hi: u64,
    mask: u64,
}

/// In-memory mirror of the superblock batch table plus the batch-id
/// allocator. Guarded by `Inner::batches`, which doubles as the global
/// commit lock (one intent-protocol commit at a time; serializing them
/// keeps the run protocol and the id sequence trivial).
pub(crate) struct BatchSlots {
    runs: [Run; superblock::BATCH_RUNS],
    /// The slot of the run **this execution** last committed into. A
    /// commit whose id directly follows that run's `hi` extends it in
    /// place; anything else opens a new run. Runs loaded from media are
    /// never extended (a reopen skips to the id ceiling anyway).
    open: Option<usize>,
    /// The id the next commit takes.
    next_id: u64,
    /// The durable ceiling: ids below it are reserved, so taking one
    /// costs no media write.
    id_ceiling: u64,
}

impl BatchSlots {
    /// Snapshots the durable table (create loads all-zero slots; open
    /// loads whatever survived the crash). Ids resume at the durable
    /// ceiling, so the first commit reserves a fresh block.
    pub(crate) fn load(arena: &PArena) -> Self {
        let mut runs = [Run::default(); superblock::BATCH_RUNS];
        for (i, r) in runs.iter_mut().enumerate() {
            let (lo, hi, mask) = superblock::batch_run(arena, i);
            *r = Run { lo, hi, mask };
        }
        let ceiling = arena.pread_u64(superblock::SB_BATCH_NEXT_ID).max(1);
        BatchSlots {
            runs,
            open: None,
            next_id: ceiling,
            id_ceiling: ceiling,
        }
    }

    /// The committed id ranges, ascending and disjoint: what recovery
    /// matches a shard's surfaced intents against. Every id inside a run
    /// was committed (a run grows only by the very next id), so this is
    /// an exact id set, never a watermark — an id between two runs may
    /// belong to a batch that staged its intents and never committed.
    pub(crate) fn committed_runs(&self) -> Vec<(u64, u64)> {
        let mut runs: Vec<(u64, u64)> = self
            .runs
            .iter()
            .filter(|r| r.lo != 0 && r.lo <= r.hi)
            .map(|r| (r.lo, r.hi))
            .collect();
        runs.sort_unstable();
        runs
    }

    /// Slots whose run still names a shard: the runs a crash right now
    /// would match intents against.
    pub(crate) fn live_runs(&self) -> usize {
        self.runs.iter().filter(|r| r.mask != 0).count()
    }

    /// Retires shard `d` from every run, durable word and mirror both.
    /// Called at shard `d`'s epoch boundary (its intents just became
    /// non-replayable) and after a boundary this layer forced.
    fn clear_shard(&mut self, arena: &PArena, d: usize) {
        for (i, r) in self.runs.iter_mut().enumerate() {
            if r.mask & (1u64 << d) != 0 {
                superblock::clear_batch_shard(arena, i, d);
                r.mask &= !(1u64 << d);
            }
        }
    }

    /// Whether the next commit's record extends this execution's open
    /// run (its id is the one directly after the run's `hi`).
    fn extends(&self) -> Option<usize> {
        self.open.filter(|&i| self.runs[i].hi + 1 == self.next_id)
    }

    /// Picks the slot the next commit record will use: the open run when
    /// the record extends it, else any drained slot, else — the
    /// full-table fallback, reachable only by burning a run per commit —
    /// evict the live run covering the fewest shards by forcing each
    /// covered shard over an epoch boundary (that makes the victim's
    /// intents non-replayable, so its record is moot).
    fn acquire(&mut self, inner: &Inner) -> usize {
        if let Some(i) = self.extends() {
            return i;
        }
        if let Some(i) = self.runs.iter().position(|r| r.mask == 0) {
            return i;
        }
        let victim = (0..self.runs.len())
            .min_by_key(|&i| self.runs[i].mask.count_ones())
            .expect("table has slots");
        let mask = self.runs[victim].mask;
        for d in 0..64 {
            if mask & (1u64 << d) != 0 {
                self.force_boundary(inner, d);
            }
        }
        debug_assert_eq!(self.runs[victim].mask, 0);
        victim
    }

    /// Takes the next batch id, reserving a durable block first when the
    /// last one is used up — fenced before the caller writes any intent
    /// carrying the id, so an id on media is never reissued.
    fn take_id(&mut self, arena: &PArena) -> u64 {
        if self.next_id == self.id_ceiling {
            let block = superblock::reserve_batch_ids(arena);
            debug_assert_eq!(block.start, self.next_id);
            self.id_ceiling = block.end;
        }
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// The atomicity point: durably records `id` in `slot` (chosen by
    /// [`BatchSlots::acquire`] before `id` was taken) — one line, one
    /// `clwb`, one `sfence`, whether the record extends or opens a run.
    fn record(&mut self, arena: &PArena, slot: usize, id: u64, mask: u64) {
        let run = &mut self.runs[slot];
        if self.open == Some(slot) && run.hi + 1 == id {
            run.mask |= mask;
            run.hi = id;
            superblock::write_batch_run_extend(arena, slot, id, run.mask);
        } else {
            *run = Run {
                lo: id,
                hi: id,
                mask,
            };
            self.open = Some(slot);
            superblock::write_batch_run_open(arena, slot, id, mask);
        }
        superblock::persist_batch_run(arena, slot);
    }

    /// Forces shard `d` over an epoch boundary on behalf of
    /// [`BatchSlots::acquire`], which holds the table lock. The boundary
    /// hook cannot take `Inner::batches` (we hold it), so mirror its
    /// clearing here ourselves. The committing session holds no pin
    /// (`WriteBatch::run` checked before taking the lock).
    fn force_boundary(&mut self, inner: &Inner, d: usize) {
        inner.mgr.advance_domain(d);
        inner.forced_boundaries[d].fetch_add(1, Ordering::Relaxed);
        self.clear_shard(&inner.arena, d);
    }
}

impl Inner {
    /// Boundary-hook half of the run lifecycle: shard `d` just completed
    /// a checkpoint (discarding its log, intents included), so a crash
    /// would redo nothing there and no commit record needs to name it
    /// any more.
    ///
    /// `try_lock`: a commit in flight holds the table lock — possibly
    /// while *forcing* this very advance. Skipping is safe because a
    /// stale mask bit is conservative: it only delays slot reuse (commit
    /// matching is by id, never by mask), and the next boundary clears
    /// it.
    pub(crate) fn retire_batch_shard(&self, d: usize) {
        self.in_doubt_bytes[d].store(0, Ordering::Relaxed);
        if let Some(mut table) = self.batches.try_lock() {
            table.clear_shard(&self.arena, d);
        }
    }
}

/// One staged operation.
enum BatchOp {
    Put { key: Vec<u8>, val: Vec<u8> },
    Delete { key: Vec<u8> },
}

/// A staged operation with the shard its key routes to, hashed once at
/// staging: commit consults the shard in every one of its passes.
struct Staged {
    shard: usize,
    op: BatchOp,
}

impl BatchOp {
    /// Length of the payload [`BatchOp::encode_into`] writes.
    fn encoded_len(&self) -> usize {
        match self {
            BatchOp::Put { key, val } => 16 + key.len() + val.len(),
            BatchOp::Delete { key } => 16 + key.len(),
        }
    }

    /// Overwrites `out` with the intent-entry payload:
    /// `[kind: u64][key_len: u64][key][val]`, little-endian words
    /// (deletes carry no value bytes). Commit reuses one `out` across a
    /// batch's ops.
    fn encode_into(&self, out: &mut Vec<u8>) {
        let (kind, key, val): (u64, &[u8], &[u8]) = match self {
            BatchOp::Put { key, val } => (KIND_PUT, key, val),
            BatchOp::Delete { key } => (KIND_DELETE, key, &[]),
        };
        out.clear();
        out.extend_from_slice(&kind.to_le_bytes());
        out.extend_from_slice(&(key.len() as u64).to_le_bytes());
        out.extend_from_slice(key);
        out.extend_from_slice(val);
    }
}

/// A decoded intent payload (recovery's redo view of one staged op).
pub(crate) enum RedoOp<'a> {
    Put { key: &'a [u8], val: &'a [u8] },
    Delete { key: &'a [u8] },
}

/// Decodes an intent payload written by [`BatchOp::encode_into`]. `None` on a
/// malformed payload — unreachable for entries that passed the log's
/// checksum, but recovery treats it as a skip rather than a panic.
pub(crate) fn decode_intent(payload: &[u8]) -> Option<RedoOp<'_>> {
    if payload.len() < 16 {
        return None;
    }
    let kind = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
    let key_len = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes")) as usize;
    let rest = &payload[16..];
    if key_len > rest.len() {
        return None;
    }
    let (key, val) = rest.split_at(key_len);
    match kind {
        KIND_PUT => Some(RedoOp::Put { key, val }),
        KIND_DELETE if val.is_empty() => Some(RedoOp::Delete { key }),
        _ => None,
    }
}

/// A staged batch of puts/deletes that commits atomically across shards
/// — **all** of it survives a crash, or **none** of it does, even when
/// the staged keys route to shards on different checkpoint cadences.
///
/// Obtain via [`Session::batch`]; stage with [`WriteBatch::put`] /
/// [`WriteBatch::delete`]; make it happen with [`WriteBatch::commit`].
/// Dropping an uncommitted batch discards it without touching the store.
/// See the module docs for the commit protocol and crash semantics.
pub struct WriteBatch<'s> {
    sess: &'s Session,
    ops: Vec<Staged>,
}

impl<'s> WriteBatch<'s> {
    pub(crate) fn new(sess: &'s Session) -> Self {
        WriteBatch {
            sess,
            ops: Vec::new(),
        }
    }

    /// Stages an insert-or-update of `key`. Nothing is written until
    /// [`WriteBatch::commit`]; within one batch, later ops on the same
    /// key win (ops apply in staging order).
    ///
    /// # Errors
    ///
    /// [`Error::ValueTooLarge`] beyond [`MAX_VALUE_BYTES`];
    /// [`Error::BatchTooLarge`] beyond [`MAX_BATCH_OPS`] staged ops.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), Error> {
        if value.len() > MAX_VALUE_BYTES {
            return Err(Error::ValueTooLarge {
                size: value.len(),
                max: MAX_VALUE_BYTES,
            });
        }
        self.check_capacity()?;
        self.ops.push(Staged {
            shard: self.sess.store().shard_of(key),
            op: BatchOp::Put {
                key: key.to_vec(),
                val: value.to_vec(),
            },
        });
        Ok(())
    }

    /// Stages a removal of `key` (a no-op at apply time if absent).
    ///
    /// # Errors
    ///
    /// [`Error::BatchTooLarge`] beyond [`MAX_BATCH_OPS`] staged ops.
    pub fn delete(&mut self, key: &[u8]) -> Result<(), Error> {
        self.check_capacity()?;
        self.ops.push(Staged {
            shard: self.sess.store().shard_of(key),
            op: BatchOp::Delete { key: key.to_vec() },
        });
        Ok(())
    }

    fn check_capacity(&self) -> Result<(), Error> {
        if self.ops.len() >= MAX_BATCH_OPS {
            return Err(Error::BatchTooLarge {
                ops: self.ops.len() + 1,
                max: MAX_BATCH_OPS,
            });
        }
        Ok(())
    }

    /// Staged operation count.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing has been staged.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Commits the batch: after this returns, either every staged op is
    /// applied (and will be *redone* by recovery if a crash intervenes
    /// before the touched shards checkpoint), or — for a crash striking
    /// mid-commit, before the commit record — none will survive.
    ///
    /// Returns the durable batch id, or `0` for the single-shard fast
    /// path (every staged key on one shard: ops apply under a single
    /// epoch pin with no batch id, intents, or commit record — exactly
    /// the pre-batch scoped-flush behavior). An empty batch is a no-op
    /// returning `0`.
    ///
    /// # Errors
    ///
    /// Arena exhaustion ([`Error::Pmem`]) — commit **pre-reserves every
    /// value buffer before staging anything**, so a shard without room
    /// fails the whole batch cleanly: no intent reaches any shard's log,
    /// no batch id is consumed, no commit record is written, and every
    /// other shard's contents are untouched (live and across a crash).
    /// The rare residual case is *structural* exhaustion mid-apply (a
    /// node split with a completely empty pool) after the commit record:
    /// the batch is then *logically* committed — the next recovery
    /// completes it from its intents — and such errors should be treated
    /// as fatal for the process.
    ///
    /// [`Error::BatchExceedsLog`] when one shard's share of the batch
    /// (intents plus the undo allowance) cannot fit an empty per-thread
    /// log buffer — equally clean: nothing was written. Split the batch
    /// or raise [`crate::Options::log_bytes_per_thread`]. When the pool
    /// has no extent left for the log's segments, the same overflow of
    /// the segments an emptied buffer holds is an [`Error::Pmem`]`
    /// (OutOfMemory)`, also with nothing written.
    ///
    /// [`Error::SessionPinned`] while this session holds an epoch pin (a
    /// live [`crate::ValueRef`] or [`Session::pin_shard`] guard), when
    /// the batch spans shards or its shard's log buffer is short —
    /// nothing was written; drop the pin and commit again.
    pub fn commit(self) -> Result<u64, Error> {
        self.run(true, false)
    }

    /// [`WriteBatch::commit`] with a **durability-on-return** guarantee:
    /// when this returns, every staged op survives any later crash, even
    /// if no shard ever reaches another checkpoint boundary.
    ///
    /// The plain [`WriteBatch::commit`] already gives cross-shard batches
    /// this property for free (their intents + commit record are redo
    /// state), but routes single-shard batches over the intent-free fast
    /// path, where the ops stay rollback-exposed until that shard's next
    /// boundary. `commit_durable` forces the full protocol for every
    /// mask: intents into the owning shards' logs, one drain (every
    /// covered shard's `clwb_range` behind one `sfence`), then the single
    /// durable commit record. This is the group-commit hook the network
    /// server amortizes small puts through: N requests coalesced into one
    /// `commit_durable` cost two fences instead of N checkpoint barriers.
    ///
    /// Always returns a real batch id (≥ 1) except for the empty-batch
    /// no-op (`0`).
    ///
    /// # Errors
    ///
    /// Same as [`WriteBatch::commit`], except that
    /// [`Error::SessionPinned`] applies to every durable commit (none
    /// takes the pin-nesting fast path).
    pub fn commit_durable(self) -> Result<u64, Error> {
        self.run(true, true)
    }

    /// Crash-test seam: assigns the batch id and stages every intent
    /// entry durably, then stops — no commit record, no apply. A crash
    /// here is the "mid-batch" matrix point; recovery must drop the
    /// batch on every shard. Single-shard batches stage nothing and
    /// return `0` (their fast path has no intent phase at all).
    #[doc(hidden)]
    pub fn stage_without_commit(self) -> Result<u64, Error> {
        self.run(false, false)
    }

    fn run(self, commit: bool, durable: bool) -> Result<u64, Error> {
        if self.ops.is_empty() {
            return Ok(0);
        }
        let store = self.sess.store();
        let ctx = self.sess.ctx();
        // Per shard: whether the batch covers it, its intent bytes, and
        // the undo its applies may seal (the log-room rule's input).
        let mut mask = 0u64;
        let mut intent = [0u64; superblock::MAX_SHARDS];
        let mut undo = [SPLIT_CHAIN; superblock::MAX_SHARDS];
        for &Staged { shard, ref op } in &self.ops {
            mask |= 1u64 << shard;
            intent[shard] += ExtLog::entry_bytes(op.encoded_len());
            undo[shard] += UNDO_ALLOWANCE;
        }

        // A durable commit skips the fast path even on one shard: the
        // intent + commit-record protocol below is exactly what makes the
        // batch redo-able before any boundary completes.
        if mask.count_ones() <= 1 && !durable {
            if !commit {
                return Ok(0);
            }
            // Fast path: one pin holds the shard's epoch open
            // across every op, so the whole batch lands in a single epoch
            // of its single shard — crash-atomic with no media additions.
            // The pin also holds off any boundary, so the room comes
            // first, and is checked again under the pin: a boundary
            // between the two may have trimmed the buffer.
            let shard = mask.trailing_zeros() as usize;
            let tree = store.shard_tree(shard);
            let pin = loop {
                tree.reserve_log_room(ctx, undo[shard])?;
                let pin = ctx.pin_shard(shard);
                if tree.has_log_room(ctx, undo[shard]) {
                    break pin;
                }
            };
            // Reserve every value buffer first: a full shard fails the
            // whole batch here, before any tree state moves.
            let bufs = self.prepare_bufs(store, |_| pin.epoch())?;
            // The inner facade paths seal their own undo entries before
            // each modification (write-ahead), so nothing is left staged
            // when the pin releases the shard for advances.
            self.apply(store, bufs)?;
            return Ok(0);
        }

        // Anything below may force a boundary on a shard, which waits
        // for every pin on it — this session's own would never drop.
        if let Some(shard) = ctx.first_pinned() {
            return Err(Error::SessionPinned { shard });
        }
        let covered = || (0..superblock::MAX_SHARDS).filter(|&d| mask & (1u64 << d) != 0);
        let inner = &store.shard_tree(0).inner;
        let (mut table, slot, guards) = loop {
            for d in covered() {
                store
                    .shard_tree(d)
                    .reserve_log_room(ctx, intent[d] + undo[d])?;
            }
            // The table lock is the global commit lock: one
            // intent-protocol commit at a time (the run protocol and the
            // id sequence stay race-free; per-key throughput is
            // unaffected).
            let mut table = inner.batches.lock();
            // Eviction may force epoch advances, so it runs before any
            // pin.
            let slot = table.acquire(inner);
            // Pin every touched shard (ascending, one consistent order)
            // so intents are stamped with — and the apply below lands in
            // — one epoch per shard.
            let guards = ctx.pin_shards(mask);
            // A boundary since the reservation — an eviction's, another
            // writer's, the cadence's — trims a buffer back to its first
            // segment: reserve again, pins and lock dropped.
            if covered().all(|d| store.shard_tree(d).has_log_room(ctx, intent[d] + undo[d])) {
                break (table, slot, guards);
            }
        };
        let tid = self.sess.tid();
        let mut epoch = [0u64; superblock::MAX_SHARDS];
        for g in &guards {
            epoch[g.domain()] = g.epoch();
        }
        // Reserve every value buffer before anything is staged or named
        // durably: a shard without room fails the whole batch *cleanly* —
        // no intent in any surviving shard's log, no id consumed, no
        // commit record — instead of erroring mid-apply after the commit
        // record made the batch logically committed.
        let bufs = self.prepare_bufs(store, |s| epoch[s])?;
        let id = table.take_id(&inner.arena);
        let mut payload = Vec::new();
        for &Staged { shard, ref op } in &self.ops {
            op.encode_into(&mut payload);
            inner
                .log
                .log_intent_in(tid, shard, epoch[shard], id, &payload);
        }
        // First ordering point — intents before record: the intents above
        // are merely staged, so drain this thread's runs on every covered
        // shard behind one fence. Every intent is then durable — and
        // reachable through replay's valid-prefix scan — before anything
        // durable can name the batch id.
        inner.log.drain_thread(tid, mask);
        if !commit {
            // Intents durable, commit record absent: the in-doubt state
            // the crash matrix probes. The id was consumed (monotonicity
            // is unconditional), so the next commit opens a new run.
            return Ok(id);
        }
        // Second ordering point — record before ack: one durable line.
        table.record(&inner.arena, slot, id, mask);
        for g in &guards {
            let d = g.domain();
            inner.in_doubt_bytes[d].fetch_add(intent[d], Ordering::Relaxed);
        }
        // The applies seal their own undo entries before each
        // modification (write-ahead), so nothing is left staged when the
        // pins release the shards for advances.
        self.apply(store, bufs)?;
        Ok(id)
    }

    /// Reserves one filled value buffer per staged put, under the pins
    /// the caller already holds (`epoch_of(shard)` is the pinned epoch
    /// the later apply runs in). On exhaustion every buffer reserved so
    /// far goes back to its shard's pending list and the typed error
    /// surfaces — the batch has touched nothing durable yet.
    fn prepare_bufs(
        &self,
        store: &Store,
        epoch_of: impl Fn(usize) -> u64,
    ) -> Result<Vec<Option<u64>>, Error> {
        let ctx = self.sess.ctx();
        let mut bufs: Vec<Option<u64>> = Vec::with_capacity(self.ops.len());
        for &Staged { shard, ref op } in &self.ops {
            let buf = match op {
                BatchOp::Put { val, .. } => {
                    let tree = store.shard_tree(shard);
                    match tree.prepare_value_buf(ctx, epoch_of(shard), val) {
                        Ok(b) => Some(b),
                        Err(e) => {
                            for (prev, b) in self.ops.iter().zip(&bufs) {
                                if let Some(b) = b {
                                    store.shard_tree(prev.shard).release_value_buf(
                                        ctx,
                                        epoch_of(prev.shard),
                                        *b,
                                    );
                                }
                            }
                            return Err(e);
                        }
                    }
                }
                BatchOp::Delete { .. } => None,
            };
            bufs.push(buf);
        }
        Ok(bufs)
    }

    /// Applies the staged ops through the ordinary facade paths (the
    /// caller holds whatever pins the path requires; nested pins on an
    /// already-pinned shard share its epoch), consuming the value buffers
    /// [`WriteBatch::prepare_bufs`] reserved.
    fn apply(&self, store: &Store, bufs: Vec<Option<u64>>) -> Result<(), Error> {
        let ctx = self.sess.ctx();
        for (&Staged { shard, ref op }, buf) in self.ops.iter().zip(bufs) {
            let tree = store.shard_tree(shard);
            match op {
                BatchOp::Put { key, val } => tree.put_bytes_with_buf(ctx, key, val, buf)?,
                BatchOp::Delete { key } => {
                    tree.remove(ctx, key);
                }
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for WriteBatch<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteBatch")
            .field("ops", &self.ops.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Options, Store};
    use incll_pmem::PArena;

    fn open(shards: usize) -> (PArena, Store) {
        let arena = PArena::builder()
            .capacity_bytes(64 << 20)
            .build()
            .expect("arena");
        let opts = Options::new()
            .threads(2)
            .log_bytes_per_thread(1 << 20)
            .shards(shards);
        let (store, _) = Store::open(&arena, opts).expect("open");
        (arena, store)
    }

    #[test]
    fn intent_payload_roundtrips() {
        let put = BatchOp::Put {
            key: b"k1".to_vec(),
            val: b"value bytes".to_vec(),
        };
        let mut payload = Vec::new();
        put.encode_into(&mut payload);
        assert_eq!(payload.len(), put.encoded_len());
        match decode_intent(&payload) {
            Some(RedoOp::Put { key, val }) => {
                assert_eq!(key, b"k1");
                assert_eq!(val, b"value bytes");
            }
            _ => panic!("put payload decoded wrong"),
        }
        let del = BatchOp::Delete {
            key: b"gone".to_vec(),
        };
        // Reusing the buffer must leave nothing of the longer put behind.
        del.encode_into(&mut payload);
        assert_eq!((payload.len(), del.encoded_len()), (16 + 4, 16 + 4));
        match decode_intent(&payload) {
            Some(RedoOp::Delete { key }) => assert_eq!(key, b"gone"),
            _ => panic!("delete payload decoded wrong"),
        }
        assert!(decode_intent(b"short").is_none());
        // key_len past the end must not panic.
        let mut bad = 0u64.to_le_bytes().to_vec();
        bad.extend_from_slice(&1000u64.to_le_bytes());
        assert!(decode_intent(&bad).is_none());
    }

    #[test]
    fn single_shard_batch_touches_no_batch_media() {
        let (arena, store) = open(1);
        let sess = store.session().expect("session");
        let mut b = sess.batch();
        b.put(b"a", b"1").unwrap();
        b.put(b"b", b"2").unwrap();
        b.delete(b"a").unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b.commit().expect("commit"), 0, "fast path assigns no id");
        assert_eq!(store.get(&sess, b"a"), None);
        assert_eq!(store.get(&sess, b"b").as_deref(), Some(&b"2"[..]));
        // No commit record, no id block reserved: the batch table is
        // untouched and the next cross-shard id is still the first.
        for i in 0..superblock::BATCH_RUNS {
            assert_eq!(superblock::batch_run(&arena, i), (0, 0, 0));
        }
        assert_eq!(arena.pread_u64(superblock::SB_BATCH_NEXT_ID), 1);
    }

    /// Two keys on distinct shards.
    fn two_shard_keys(store: &Store) -> (Vec<u8>, Vec<u8>) {
        let k0 = b"key-000".to_vec();
        let k1 = (0..1000u32)
            .map(|i| format!("key-{i:03}").into_bytes())
            .find(|k| store.shard_of(k) != store.shard_of(&k0))
            .expect("found a second shard");
        (k0, k1)
    }

    /// The non-empty slots of the durable table, in slot order.
    fn runs_on_media(arena: &PArena) -> Vec<(u64, u64, u64)> {
        (0..superblock::BATCH_RUNS)
            .map(|i| superblock::batch_run(arena, i))
            .filter(|r| r.0 != 0)
            .collect()
    }

    #[test]
    fn cross_shard_commit_writes_one_slot_then_boundaries_drain_it() {
        let (arena, store) = open(4);
        let sess = store.session().expect("session");
        let (k0, k1) = two_shard_keys(&store);
        let mut b = sess.batch();
        b.put(&k0, b"v0").unwrap();
        b.put(&k1, b"v1").unwrap();
        let id = b.commit().expect("commit");
        assert!(id >= 1);
        assert!(superblock::batch_is_committed(&arena, id));
        assert_eq!(store.get(&sess, &k0).as_deref(), Some(&b"v0"[..]));
        assert_eq!(store.get(&sess, &k1).as_deref(), Some(&b"v1"[..]));
        let mask = 1u64 << store.shard_of(&k0) | 1u64 << store.shard_of(&k1);
        assert_eq!(runs_on_media(&arena), [(id, id, mask)]);
        assert_eq!(store.commit_runs_live(), 1);
        // Both shards' boundaries retire their mask bits; the slot drains.
        store.checkpoint();
        assert_eq!(runs_on_media(&arena), [(id, id, 0)]);
        assert_eq!(store.commit_runs_live(), 0);
        // The next id directly follows, so the commit extends the drained
        // run in place and names its shards again.
        let mut b = sess.batch();
        b.put(&k0, b"v2").unwrap();
        b.put(&k1, b"v3").unwrap();
        let id2 = b.commit().expect("commit");
        assert_eq!(id2, id + 1);
        assert_eq!(runs_on_media(&arena), [(id, id2, mask)]);
    }

    #[test]
    fn consecutive_commits_coalesce_and_an_id_gap_opens_the_next_run() {
        let (arena, store) = open(4);
        let sess = store.session().expect("session");
        let (k0, k1) = two_shard_keys(&store);
        let both = 1u64 << store.shard_of(&k0) | 1u64 << store.shard_of(&k1);
        let batch = |durable_on: Option<&[u8]>| {
            let mut b = sess.batch();
            match durable_on {
                Some(k) => b.put(k, b"one shard").unwrap(),
                None => {
                    b.put(&k0, b"v").unwrap();
                    b.put(&k1, b"v").unwrap();
                }
            }
            b
        };
        // Three commits, one run; its mask is the union of what they
        // covered, widened only when a commit adds a shard.
        assert_eq!(batch(Some(&k0)).commit_durable().unwrap(), 1);
        let only0 = 1u64 << store.shard_of(&k0);
        assert_eq!(runs_on_media(&arena), [(1, 1, only0)]);
        assert_eq!(batch(None).commit().unwrap(), 2);
        assert_eq!(batch(Some(&k1)).commit_durable().unwrap(), 3);
        assert_eq!(runs_on_media(&arena), [(1, 3, both)]);
        // A batch that stages and never commits consumes id 4: the gap
        // ends the run, so no range on media ever contains it.
        assert_eq!(batch(None).stage_without_commit().unwrap(), 4);
        assert_eq!(batch(None).commit().unwrap(), 5);
        assert_eq!(batch(None).commit().unwrap(), 6);
        assert_eq!(runs_on_media(&arena), [(1, 3, both), (5, 6, both)]);
        assert!(!superblock::batch_is_committed(&arena, 4));
        assert_eq!(store.commit_runs_live(), 2);
        // One id block covered all of it.
        assert_eq!(
            arena.pread_u64(superblock::SB_BATCH_NEXT_ID),
            1 + superblock::BATCH_ID_BLOCK
        );
    }

    #[test]
    fn ids_cross_block_edges_without_a_gap_and_a_reopen_skips_to_the_ceiling() {
        let (arena, store) = open(2);
        let sess = store.session().expect("session");
        let (k0, k1) = two_shard_keys(&store);
        let n = superblock::BATCH_ID_BLOCK + 3;
        for want in 1..=n {
            let mut b = sess.batch();
            b.put(&k0, &want.to_le_bytes()).unwrap();
            b.put(&k1, &want.to_le_bytes()).unwrap();
            assert_eq!(b.commit().unwrap(), want);
        }
        assert_eq!(runs_on_media(&arena), [(1, n, 0b11)]);
        let ceiling = 1 + 2 * superblock::BATCH_ID_BLOCK;
        assert_eq!(arena.pread_u64(superblock::SB_BATCH_NEXT_ID), ceiling);
        drop(sess);
        drop(store);
        let opts = Options::new()
            .threads(2)
            .log_bytes_per_thread(1 << 20)
            .shards(2);
        let (store, _) = Store::open(&arena, opts).expect("reopen");
        let sess = store.session().expect("session");
        let mut b = sess.batch();
        b.put(&k0, b"after").unwrap();
        b.put(&k1, b"after").unwrap();
        assert_eq!(
            b.commit().unwrap(),
            ceiling,
            "never an id below the ceiling"
        );
        assert_eq!(runs_on_media(&arena)[1], (ceiling, ceiling, 0b11));
    }

    #[test]
    fn slot_eviction_forces_boundaries_instead_of_overflowing() {
        let (arena, store) = open(4);
        let sess = store.session().expect("session");
        let (k0, k1) = two_shard_keys(&store);
        // A run costs a slot only when an id gap precedes it, so burn one
        // per commit through the seam: more runs than the table has
        // slots, with no checkpoint in between. acquire() must evict
        // (forcing boundaries) rather than panic or corrupt earlier
        // records.
        let rounds = 2 * superblock::BATCH_RUNS;
        for round in 0..rounds {
            let mut gap = sess.batch();
            gap.put(&k0, b"never").unwrap();
            gap.put(&k1, b"never").unwrap();
            gap.stage_without_commit().expect("stage");
            let mut b = sess.batch();
            b.put(&k0, format!("a{round}").as_bytes()).unwrap();
            b.put(&k1, format!("b{round}").as_bytes()).unwrap();
            b.commit().expect("commit");
        }
        let last = rounds - 1;
        assert_eq!(store.get(&sess, &k0), Some(format!("a{last}").into_bytes()));
        assert_eq!(store.get(&sess, &k1), Some(format!("b{last}").into_bytes()));
        // Commit k finds the table full of live runs at k = BATCH_RUNS
        // (0-based) and forces both covered shards, which drains every
        // run at once; the second table's worth fits again.
        for s in 0..4 {
            let covered = s == store.shard_of(&k0) || s == store.shard_of(&k1);
            assert_eq!(store.shard_stats(s).advances_forced, covered as u64);
        }
        assert_eq!(runs_on_media(&arena).len(), superblock::BATCH_RUNS);
        assert_eq!(store.commit_runs_live(), superblock::BATCH_RUNS);
    }

    #[test]
    fn batch_cap_is_enforced() {
        let (_arena, store) = open(1);
        let sess = store.session().expect("session");
        let mut b = sess.batch();
        for i in 0..MAX_BATCH_OPS {
            b.put(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        assert!(matches!(
            b.put(b"one-too-many", b"v"),
            Err(Error::BatchTooLarge { .. })
        ));
        assert!(matches!(
            b.delete(b"one-too-many"),
            Err(Error::BatchTooLarge { .. })
        ));
    }

    #[test]
    fn durable_commit_forces_the_record_on_a_single_shard() {
        let (arena, store) = open(1);
        let sess = store.session().expect("session");
        let mut b = sess.batch();
        b.put(b"k1", b"v1").unwrap();
        b.put(b"k2", b"v2").unwrap();
        let id = b.commit_durable().expect("durable commit");
        assert!(id >= 1, "durable commits always take a real id");
        assert!(superblock::batch_is_committed(&arena, id));
        assert_eq!(store.get(&sess, b"k1").as_deref(), Some(&b"v1"[..]));
        // The shard's boundary retires the record like any cross-shard one.
        store.checkpoint();
        assert_eq!(runs_on_media(&arena), [(id, id, 0)]);
    }

    #[test]
    fn durable_commit_survives_a_crash_with_no_boundary() {
        for shards in [1usize, 4] {
            let arena = PArena::builder()
                .capacity_bytes(64 << 20)
                .tracked(true)
                .build()
                .expect("arena");
            let opts = Options::new()
                .threads(2)
                .log_bytes_per_thread(1 << 20)
                .shards(shards);
            let (store, _) = Store::open(&arena, opts.clone()).expect("open");
            {
                let sess = store.session().expect("session");
                let mut b = sess.batch();
                for i in 0..16u32 {
                    b.put(format!("grp-{i:02}").as_bytes(), &i.to_le_bytes())
                        .unwrap();
                }
                assert!(b.commit_durable().expect("durable commit") >= 1);
                // A plain put after the durable group: rollback-exposed,
                // must vanish (no boundary ever completes here).
                store.put(&sess, b"exposed", b"gone").expect("put");
            }
            drop(store);
            arena.crash_seeded(7 + shards as u64);
            let (store, report) = Store::open(&arena, opts).expect("recover");
            assert!(!report.created);
            let sess = store.session().expect("session");
            for i in 0..16u32 {
                assert_eq!(
                    store
                        .get(&sess, format!("grp-{i:02}").as_bytes())
                        .as_deref(),
                    Some(&i.to_le_bytes()[..]),
                    "shards={shards} key {i}: a durable group must be redone"
                );
            }
            assert_eq!(
                store.get(&sess, b"exposed"),
                None,
                "shards={shards}: an unbatched put must roll back"
            );
        }
    }

    #[test]
    fn dropped_batch_is_a_no_op() {
        let (_arena, store) = open(2);
        let sess = store.session().expect("session");
        let mut b = sess.batch();
        b.put(b"ghost", b"never").unwrap();
        drop(b);
        assert_eq!(store.get(&sess, b"ghost"), None);
        let empty = sess.batch();
        assert!(empty.is_empty());
        assert_eq!(empty.commit().expect("empty commit"), 0);
    }
}
