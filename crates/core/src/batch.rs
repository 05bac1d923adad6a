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
//! 2. **Intent entries** — commit assigns a monotonic durable batch id
//!    ([`incll_pmem::superblock::next_batch_id`]) and appends one
//!    *intent* entry per operation into the owning shard's external-log
//!    buffer ([`incll_extlog::ExtLog::log_intent_in`]) — a new tagged
//!    entry kind beside the undo entries, checksummed the same way.
//!    Intents are redo records: recovery replays them *forward*, never
//!    into an object.
//!    Intents only *stage* in the log; one
//!    [`incll_extlog::ExtLog::drain`] per covered shard then makes them
//!    durable — the single ordering constraint an intent needs is
//!    *durable before the commit record*.
//! 3. **Commit record** — one durable `(batch id, shard mask)` slot write
//!    in the superblock batch table
//!    ([`incll_pmem::superblock::set_batch_slot`]) marks the
//!    batch committed. This is the atomicity point: a batch id present in
//!    the table is committed everywhere, an absent id nowhere.
//! 4. **Apply** — the staged operations run through the ordinary put /
//!    remove paths while every touched shard is pinned
//!    (`ThreadHandle::pin_domains_mut`, ascending shard order), so each
//!    shard's half lands in a single epoch of that shard.
//!
//! Per-shard recovery resolves in-doubt batches deterministically: the
//! replay scan surfaces each shard's intents, and intents whose batch id
//! has a durable commit record are **redone** through the normal put /
//! remove paths (idempotent — a second crash replays them again), while
//! intents with no commit record are **dropped**. Resolution is per-shard
//! work on shard-owned state, so it is byte-identical at every
//! `recovery_threads` count.
//!
//! A shard's epoch boundary makes its applied half durable and
//! simultaneously discards its log buffers — so the boundary hook also
//! retires the shard's bit from every batch-table slot
//! ([`incll_pmem::superblock::clear_batch_shard`]). A slot whose mask
//! drains to zero is reusable; when all [`superblock::BATCH_SLOTS`] are
//! still live, commit evicts the slot covering the fewest shards by
//! forcing those shards over a boundary first. On a store with no
//! checkpoint cadence that eviction is what ends an epoch: one forced
//! flush per covered shard every [`superblock::BATCH_SLOTS`] commits
//! (counted in [`crate::ShardStats::advances_forced`]).
//!
//! **Log room.** Log space is only reclaimed at a boundary, so before
//! any pin is taken commit sums, per covered shard, the batch's intent
//! bytes plus [`UNDO_ALLOWANCE`] per op, and forces a boundary on every
//! shard whose (thread, shard) buffer lacks that room. A batch that would
//! not fit an *empty* buffer fails with [`Error::BatchExceedsLog`] before
//! any id, intent or record is written.
//!
//! **No pin across a commit.** Both forced boundaries wait for every
//! pin on the shard to drop — the committing session's own included. So
//! a commit that takes the table lock first checks that its session
//! holds no pin on any shard (a live [`crate::ValueRef`], a
//! [`Session::pin_shard`] guard) and otherwise fails with
//! [`Error::SessionPinned`], again before any id, intent or record —
//! on every such commit, not only the one that would have evicted.
//!
//! **Single-shard batches take none of this machinery**: when every
//! staged key routes to one shard (always true with `shards(1)`), commit
//! holds one mutating pin on that shard across the ordinary put / remove
//! calls — same-epoch atomicity with no batch id, no intents, no commit
//! record. `shards(1)` media and semantics are unchanged.

use std::sync::atomic::Ordering;

use incll_extlog::ExtLog;
use incll_pmem::{superblock, PArena};

use crate::error::{Error, MAX_VALUE_BYTES};
use crate::store::{Session, Store};
use crate::tree::Inner;

/// Most operations one [`WriteBatch`] can stage. Every staged op becomes
/// an intent entry in the committing thread's external-log buffers, so
/// the cap bounds the log space a single commit can pin between
/// checkpoints.
pub const MAX_BATCH_OPS: usize = 1024;

/// External-log bytes commit reserves per staged op for the undo entries
/// its apply seals (two node images: the leaf, and a parent when the op
/// splits it — a node is logged at most once per epoch, so a batch's
/// applies stay under this on average by a wide margin).
const UNDO_ALLOWANCE: u64 = 2 * ExtLog::entry_bytes(crate::layout::NODE_BYTES);

/// Intent-payload op kinds (`[kind: u64][key_len: u64][key][val]`).
const KIND_PUT: u64 = 0;
const KIND_DELETE: u64 = 1;

/// In-memory mirror of the superblock batch table: one `(batch id,
/// shard mask)` pair per slot, `id == 0` meaning empty. Guarded by
/// `Inner::batches`, which doubles as the global commit lock (commits
/// are rare and cross-shard by definition; serializing them keeps the
/// slot protocol trivial).
pub(crate) struct BatchSlots {
    pub(crate) slots: [(u64, u64); superblock::BATCH_SLOTS],
}

impl BatchSlots {
    /// Snapshots the durable table (create loads all-zero slots; open
    /// loads whatever survived the crash).
    pub(crate) fn load(arena: &PArena) -> Self {
        let mut slots = [(0u64, 0u64); superblock::BATCH_SLOTS];
        for (i, s) in slots.iter_mut().enumerate() {
            *s = superblock::batch_slot(arena, i);
        }
        BatchSlots { slots }
    }

    /// The ids with a commit record, ascending: what recovery matches a
    /// shard's surfaced intents against. Exact ids, never a watermark —
    /// an id below a committed one may belong to a batch that staged its
    /// intents and never committed.
    pub(crate) fn committed_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .slots
            .iter()
            .map(|s| s.0)
            .filter(|&id| id != 0)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Retires shard `d` from every slot, durable word and mirror both.
    /// Called at shard `d`'s epoch boundary (its intents just became
    /// non-replayable) and during eviction (after forcing that boundary).
    fn clear_shard(&mut self, arena: &PArena, d: usize) {
        for (i, s) in self.slots.iter_mut().enumerate() {
            if s.0 != 0 && s.1 & (1u64 << d) != 0 {
                superblock::clear_batch_shard(arena, i, d);
                s.1 &= !(1u64 << d);
            }
        }
    }

    /// Picks the slot the next commit record will use: any drained slot,
    /// else evict the live slot covering the fewest shards by forcing
    /// each covered shard over an epoch boundary (that makes the victim's
    /// intents non-replayable, so its commit record is moot). Returns
    /// with the chosen slot's mirror mask at zero.
    fn acquire(&mut self, inner: &Inner) -> usize {
        if let Some(i) = self
            .slots
            .iter()
            .position(|&(id, mask)| id == 0 || mask == 0)
        {
            return i;
        }
        let victim = (0..self.slots.len())
            .min_by_key(|&i| self.slots[i].1.count_ones())
            .expect("table has slots");
        let mask = self.slots[victim].1;
        for d in 0..64 {
            if mask & (1u64 << d) != 0 {
                self.force_boundary(inner, d);
            }
        }
        debug_assert_eq!(self.slots[victim].1, 0);
        victim
    }

    /// Forces shard `d` over an epoch boundary (resetting its log
    /// buffers) on behalf of a commit that holds the table lock. The
    /// boundary hook cannot take `Inner::batches` (we hold it), so mirror
    /// its clearing here ourselves. The committing session holds no pin
    /// (`WriteBatch::run` checked before taking the lock).
    fn force_boundary(&mut self, inner: &Inner, d: usize) {
        inner.mgr.advance_domain(d);
        inner.forced_boundaries[d].fetch_add(1, Ordering::Relaxed);
        self.clear_shard(&inner.arena, d);
    }

    /// The log-room rule (see the module docs): `need[d]` is the bytes
    /// the commit may append to `(tid, d)`'s buffer (0 for an uncovered
    /// shard); on return every covered buffer has that much room, after
    /// a forced boundary where it lacked it.
    fn reserve_log_room(
        &mut self,
        inner: &Inner,
        tid: usize,
        need: &[u64; superblock::MAX_SHARDS],
    ) -> Result<(), Error> {
        let capacity = inner.log.slot_capacity();
        if let Some(shard) = need.iter().position(|&n| n > capacity) {
            return Err(Error::BatchExceedsLog {
                shard,
                needed: need[shard],
                capacity,
            });
        }
        for (d, &n) in need.iter().enumerate() {
            if n != 0 && inner.log.used_in(tid, d) + n > capacity {
                self.force_boundary(inner, d);
            }
        }
        Ok(())
    }
}

impl Inner {
    /// Boundary-hook half of the slot lifecycle: shard `d` just completed
    /// a checkpoint (discarding its log, intents included), so no commit
    /// record needs to name it any more.
    ///
    /// `try_lock`: a commit in flight holds the table lock — possibly
    /// while *forcing* this very advance during eviction. Skipping is
    /// safe because a stale mask bit is conservative: it only delays slot
    /// reuse (commit matching is by id, never by mask), and the next
    /// boundary clears it.
    pub(crate) fn retire_batch_shard(&self, d: usize) {
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
    /// or raise [`crate::Options::log_bytes_per_thread`].
    ///
    /// [`Error::SessionPinned`] when the batch spans shards while this
    /// session holds an epoch pin (a live [`crate::ValueRef`] or
    /// [`Session::pin_shard`] guard) — nothing was written; drop the pin
    /// and commit again.
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
    /// mask: intents into the owning shards' logs, one drain per shard
    /// (one `clwb_range`+`sfence` per shard for the *whole* batch), then
    /// the single durable commit record. This is the group-commit hook the
    /// network server amortizes small puts through: N requests coalesced
    /// into one `commit_durable` cost a handful of fences instead of N
    /// checkpoint barriers.
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
        // Per shard: whether the batch covers it, and the log bytes its
        // share may append (the log-room rule's input).
        let mut mask = 0u64;
        let mut need = [0u64; superblock::MAX_SHARDS];
        for &Staged { shard, ref op } in &self.ops {
            mask |= 1u64 << shard;
            need[shard] += ExtLog::entry_bytes(op.encoded_len()) + UNDO_ALLOWANCE;
        }

        // A durable commit skips the fast path even on one shard: the
        // intent + commit-record protocol below is exactly what makes the
        // batch redo-able before any boundary completes.
        if mask.count_ones() <= 1 && !durable {
            if !commit {
                return Ok(0);
            }
            // Fast path: one mutating pin holds the shard's epoch open
            // across every op, so the whole batch lands in a single epoch
            // of its single shard — crash-atomic with no media additions.
            let shard = mask.trailing_zeros() as usize;
            let pin = self.sess.ctx().pin_shard_mut(shard);
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
        if let Some(shard) = self.sess.ctx().first_pinned() {
            return Err(Error::SessionPinned { shard });
        }
        let inner = &store.shard_tree(0).inner;
        // The table lock is the global commit lock: one cross-shard
        // commit at a time (the slot protocol and the durable id bump
        // stay race-free; per-key throughput is unaffected).
        let mut table = inner.batches.lock();
        let tid = self.sess.tid();
        // Both may force epoch advances, so both run before any pin.
        table.reserve_log_room(inner, tid, &need)?;
        let slot = table.acquire(inner);
        // Pin every touched shard (ascending, one consistent order) so
        // intents are stamped with — and the apply below lands in — one
        // epoch per shard.
        let guards = self.sess.ctx().pin_shards_mut(mask);
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
        let id = superblock::next_batch_id(&inner.arena);
        let mut payload = Vec::new();
        for &Staged { shard, ref op } in &self.ops {
            op.encode_into(&mut payload);
            inner
                .log
                .log_intent_in(tid, shard, epoch[shard], id, &payload);
        }
        // The intents above are merely staged: drain each covered
        // shard's run now, so every intent is durable — and reachable
        // through replay's valid-prefix scan — before anything durable
        // can name the batch id. One `clwb_range`+`sfence` per shard
        // covers the whole group.
        for g in &guards {
            inner.log.drain(tid, g.domain());
        }
        if !commit {
            // Intents durable, commit record absent: the in-doubt state
            // the crash matrix probes. The id was consumed (monotonicity
            // is unconditional) but no slot names it.
            return Ok(id);
        }
        // The atomicity point: one durable slot write.
        superblock::set_batch_slot(&inner.arena, slot, id, mask);
        table.slots[slot] = (id, mask);
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
        // No commit record, no id consumed: the batch table is untouched
        // and the next cross-shard id is still the first.
        for i in 0..superblock::BATCH_SLOTS {
            assert_eq!(superblock::batch_slot(&arena, i), (0, 0));
        }
        assert_eq!(arena.pread_u64(superblock::SB_BATCH_NEXT_ID), 1);
    }

    #[test]
    fn cross_shard_commit_writes_one_slot_then_boundaries_drain_it() {
        let (arena, store) = open(4);
        let sess = store.session().expect("session");
        // Find keys on two distinct shards.
        let k0 = b"key-000".to_vec();
        let mut k1 = Vec::new();
        for i in 0..1000u32 {
            let k = format!("key-{i:03}").into_bytes();
            if store.shard_of(&k) != store.shard_of(&k0) {
                k1 = k;
                break;
            }
        }
        assert!(!k1.is_empty(), "found a second shard");
        let mut b = sess.batch();
        b.put(&k0, b"v0").unwrap();
        b.put(&k1, b"v1").unwrap();
        let id = b.commit().expect("commit");
        assert!(id >= 1);
        assert!(superblock::batch_is_committed(&arena, id));
        assert_eq!(store.get(&sess, &k0).as_deref(), Some(&b"v0"[..]));
        assert_eq!(store.get(&sess, &k1).as_deref(), Some(&b"v1"[..]));
        // Both shards' boundaries retire their mask bits; the slot drains.
        store.checkpoint();
        let drained =
            (0..superblock::BATCH_SLOTS).all(|i| superblock::batch_slot(&arena, i).1 == 0);
        assert!(drained, "checkpoint barrier must drain every mask");
        // Ids stay monotonic across commits.
        let mut b = sess.batch();
        b.put(&k0, b"v2").unwrap();
        b.put(&k1, b"v3").unwrap();
        let id2 = b.commit().expect("commit");
        assert!(id2 > id);
    }

    #[test]
    fn slot_eviction_forces_boundaries_instead_of_overflowing() {
        let (_arena, store) = open(4);
        let sess = store.session().expect("session");
        let k0 = b"key-000".to_vec();
        let mut k1 = Vec::new();
        for i in 0..1000u32 {
            let k = format!("key-{i:03}").into_bytes();
            if store.shard_of(&k) != store.shard_of(&k0) {
                k1 = k;
                break;
            }
        }
        // More cross-shard commits than table slots, with no checkpoint
        // in between: acquire() must evict (forcing boundaries) rather
        // than panic or corrupt earlier records.
        let rounds = 2 * superblock::BATCH_SLOTS;
        for round in 0..rounds {
            let mut b = sess.batch();
            b.put(&k0, format!("a{round}").as_bytes()).unwrap();
            b.put(&k1, format!("b{round}").as_bytes()).unwrap();
            b.commit().expect("commit");
        }
        let last = rounds - 1;
        assert_eq!(store.get(&sess, &k0), Some(format!("a{last}").into_bytes()));
        assert_eq!(store.get(&sess, &k1), Some(format!("b{last}").into_bytes()));
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
        let drained =
            (0..superblock::BATCH_SLOTS).all(|i| superblock::batch_slot(&arena, i).1 == 0);
        assert!(drained);
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
