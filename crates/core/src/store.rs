//! The `Store` facade: unified lifecycle, RAII sessions, byte-slice
//! values, and iterator scans.
//!
//! [`Store`] is the front door of the crate. It wraps the durable Masstree
//! behind an embedded-KV-store shape:
//!
//! * **One-call lifecycle** — [`Store::open`] formats an empty arena,
//!   creates a fresh store, or recovers an existing one, and always
//!   returns a [`RecoveryReport`] describing what happened.
//! * **RAII sessions** — [`Store::session`] hands out a slot from the
//!   bounded per-thread pool ([`Options::threads`]); dropping the
//!   [`Session`] releases it. No unchecked thread ids.
//! * **Byte-slice values** — [`Store::put`]/[`Store::get`] move `&[u8]`
//!   values in and out of length-prefixed, size-classed durable buffers
//!   (§5), with [`Store::put_u64`]/[`Store::get_u64`] as the paper's
//!   8-byte-payload convenience.
//! * **Zero-copy reads** — [`Store::get_ref`] returns a borrowed
//!   [`ValueRef`] view of the value bytes in place, backed by an epoch
//!   read pin; `get`/`get_u64` are wrappers over it.
//! * **Scans** — callback ([`Store::scan`]) and iterator
//!   ([`Store::range`], [`Store::iter`]) forms, both in global key order.
//! * **Sharding** — [`Options::shards`] hash partitions the keyspace over
//!   N independent durable trees, **each with its own epoch domain**:
//!   point ops route by key hash, scans k-way merge, and every shard
//!   checkpoints ([`Store::checkpoint_shard`]) and crash-recovers on its
//!   own cadence ([`Store::checkpoint`] remains the all-shards barrier).
//!   See the crate docs' "crash semantics under independent cadences".
//!
//! ```
//! use incll_pmem::PArena;
//! use incll::{Options, Store};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let arena = PArena::builder().capacity_bytes(16 << 20).build()?;
//! let opts = Options::new().threads(1).log_bytes_per_thread(1 << 20);
//! let (store, report) = Store::open(&arena, opts)?;
//! assert!(report.created);
//! let sess = store.session()?;
//! store.put(&sess, b"k", b"some bytes")?;
//! assert_eq!(store.get(&sess, b"k").as_deref(), Some(&b"some bytes"[..]));
//! store.checkpoint(); // durable from here on
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;
use std::ops::{Bound, RangeBounds};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use incll_epoch::{AdvanceDriver, Cadence, EpochManager, Guard};
use incll_pmem::{superblock, PArena};

use crate::error::Error;
use crate::recovery::RecoveryReport;
use crate::tree::{DCtx, DurableConfig, DurableMasstree, ValueRef, OP_UNDO_BOUND};

/// Builder-style construction options for [`Store::open`].
///
/// The defaults: 8 thread slots, 16 MiB of external log per thread, InCLL
/// enabled, 1 shard.
#[derive(Debug, Clone)]
pub struct Options {
    config: DurableConfig,
    cadence: Option<Cadence>,
}

impl Options {
    /// Default options.
    pub fn new() -> Self {
        Options {
            config: DurableConfig::default(),
            cadence: None,
        }
    }

    /// Session-slot count (per-thread allocator lists + log buffers).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// External-log capacity per thread, in bytes, split evenly over the
    /// shards: each (session slot, shard) pair owns a buffer of
    /// `bytes / shards`. Log space is reclaimed only at a shard's
    /// checkpoint, so this is the byte half of *when a shard
    /// checkpoints*: every write checks its buffer for room before it
    /// starts and forces its shard over a boundary when the buffer is
    /// short (see the crate docs' "When a shard checkpoints"). A shard
    /// written from `T` slots holds one such buffer's worth of undo and
    /// intents plus one log segment per slot, not `T` buffers' worth: a
    /// checkpoint gives each buffer's segments past its first back to
    /// the shard, and a writer that finds the shard's log at that bound
    /// forces the checkpoint and reuses them. That is also what a crash
    /// replays there.
    ///
    /// The value is a cap, and nothing is claimed for it up front: a
    /// buffer is a list of segments cut from extents of the store's
    /// pool, taken one at a time as its cursor reaches them (after one
    /// segment per buffer at format). Claimed and resident memory both
    /// follow what the shard's buffers have written since its last
    /// checkpoint, so size it for the worst epoch without paying for it
    /// in every epoch, or in every buffer.
    #[must_use]
    pub fn log_bytes_per_thread(mut self, bytes: usize) -> Self {
        self.config.log_bytes_per_thread = bytes;
        self
    }

    /// `false` selects the paper's LOGGING ablation (external log only).
    #[must_use]
    pub fn incll(mut self, enabled: bool) -> Self {
        self.config.incll_enabled = enabled;
        self
    }

    /// Keyspace shard count: the store holds `shards` independent durable
    /// trees, one epoch domain each, and routes every operation by key
    /// hash. Must be a power of two in
    /// `1..=`[`incll_pmem::superblock::MAX_SHARDS`]; the default 1 is
    /// the paper's system: one tree, one epoch domain, one whole-cache
    /// flush per checkpoint.
    ///
    /// The count is **fixed at format time**: it decides where every key
    /// lives, so reopening an existing store with a different value is a
    /// typed error ([`crate::Error::ShardMismatch`]), never a silent
    /// re-rout.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Worker threads [`Store::open`] spreads per-shard crash recovery
    /// over (clamped to the shard count; values below 1 read as 1 =
    /// sequential replay). Purely a restart-latency knob: the recovered
    /// state is byte-identical at every worker count, because each shard's
    /// recovery touches only shard-owned state.
    ///
    /// Defaults to [`std::thread::available_parallelism`], so a
    /// multi-shard store recovers one shard per core.
    #[must_use]
    pub fn recovery_threads(mut self, workers: usize) -> Self {
        self.config.recovery_threads = workers.max(1);
        self
    }

    /// Background checkpoint cadence: [`Store::open`] spawns an
    /// [`incll_epoch::AdvanceDriver`] applying this [`Cadence`] to
    /// **every** shard's epoch domain, and the store owns the driver for
    /// its lifetime (it stops when the last clone drops). The cadence
    /// bounds the *time* between a shard's checkpoints;
    /// [`Options::log_bytes_per_thread`] bounds the *bytes*, on every
    /// write, with or without a cadence — see the crate docs' "When a
    /// shard checkpoints".
    ///
    /// Without this option no driver is spawned: checkpoints come from
    /// explicit [`Store::checkpoint`] / [`Store::checkpoint_shard`]
    /// calls, a driver the caller manages on [`Store::epoch_manager`],
    /// and the log-room rule.
    #[must_use]
    pub fn cadence(mut self, cadence: Cadence) -> Self {
        self.cadence = Some(cadence);
        self
    }

    /// The per-tree configuration these options describe.
    pub(crate) fn to_config(&self) -> DurableConfig {
        self.config.clone()
    }
}

impl Default for Options {
    fn default() -> Self {
        Options::new()
    }
}

/// Bounded pool of per-thread slots backing [`Session`]s.
struct SlotPool {
    free: Mutex<Vec<usize>>,
    /// Signalled once per released slot ([`Session::drop`]), waking one
    /// [`Store::session_blocking`] waiter.
    released: Condvar,
    limit: usize,
}

impl SlotPool {
    fn new(limit: usize) -> Arc<Self> {
        Arc::new(SlotPool {
            // Reversed so the first session gets slot 0.
            free: Mutex::new((0..limit).rev().collect()),
            released: Condvar::new(),
            limit,
        })
    }

    fn lock_free(&self) -> std::sync::MutexGuard<'_, Vec<usize>> {
        // Slot pushes/pops cannot panic, so the lock cannot be poisoned.
        self.free.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A registered operation handle: one slot from the store's bounded
/// per-thread pool, released automatically on drop.
///
/// Obtain via [`Store::session`]; pass by reference to every operation.
/// A `Session` is single-threaded state (`!Sync` use pattern: one per
/// worker thread), but may be *moved* across threads.
pub struct Session {
    ctx: DCtx,
    pool: Arc<SlotPool>,
    tid: usize,
    /// The owning store (clones share everything), so batch commit can
    /// route staged keys and reach shared batch-commit state.
    store: Store,
}

impl Session {
    /// The slot id this session occupies.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Pins shard 0's epoch domain for a multi-operation sequence. Each
    /// shard checkpoints independently; use [`Session::pin_shard`] (with
    /// [`Store::shard_of`]) to hold a specific shard's boundary.
    pub fn pin(&self) -> Guard<'_> {
        self.ctx.pin()
    }

    /// Pins shard `shard`'s epoch domain: that shard cannot take a
    /// checkpoint while the guard lives.
    pub fn pin_shard(&self, shard: usize) -> Guard<'_> {
        self.ctx.pin_shard(shard)
    }

    /// Starts an empty [`crate::WriteBatch`]: a staged set of puts and
    /// deletes that commits **atomically across shards** — after a crash,
    /// recovery surfaces either every operation of the batch or none of
    /// them, even though the touched shards checkpoint on independent
    /// cadences. Batches whose keys all land on one shard skip the
    /// cross-shard machinery entirely (see `crate::batch`).
    ///
    /// ```
    /// # use incll_pmem::PArena;
    /// # use incll::{Options, Store};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// # let arena = PArena::builder().capacity_bytes(16 << 20).build()?;
    /// # let (store, _) = Store::open(&arena, Options::new().threads(1)
    /// #     .log_bytes_per_thread(1 << 20).shards(2))?;
    /// # let sess = store.session()?;
    /// let mut batch = sess.batch();
    /// batch.put(b"debit:alice", b"-10")?;
    /// batch.put(b"credit:bob", b"+10")?;
    /// batch.commit()?; // both keys or neither, on any crash
    /// # Ok(())
    /// # }
    /// ```
    pub fn batch(&self) -> crate::batch::WriteBatch<'_> {
        crate::batch::WriteBatch::new(self)
    }

    /// The owning store (batch commit's route back to shared state).
    pub(crate) fn store(&self) -> &Store {
        &self.store
    }

    /// The per-thread context (batch commit's pins and log slot).
    pub(crate) fn ctx(&self) -> &DCtx {
        &self.ctx
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.pool.lock_free().push(self.tid);
        self.pool.released.notify_one();
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").field("tid", &self.tid).finish()
    }
}

/// A durable, crash-recoverable key-value store (see module docs).
///
/// Cheap to clone; all clones share the underlying trees and session pool.
///
/// # Sharding
///
/// When opened with [`Options::shards`]` > 1`, the keyspace is hash
/// partitioned over that many independent durable trees. Point operations
/// route by key hash; [`Store::scan`], [`Store::range`] and [`Store::iter`]
/// merge the per-shard trees lazily into one globally key-ordered stream.
/// Every shard is its **own epoch domain**: [`Store::checkpoint_shard`]
/// (or a per-domain driver cadence) makes one shard durable, stalling
/// only sessions pinned in it, and a crash rolls each shard back to its
/// own last completed boundary. [`Store::checkpoint`] is the all-domains
/// barrier yielding one common cross-shard point-in-time.
#[derive(Clone)]
pub struct Store {
    /// One handle per shard; `shards[0]` doubles as the lifecycle handle
    /// (epoch manager, allocator, arena).
    shards: Vec<DurableMasstree>,
    slots: Arc<SlotPool>,
    /// The background cadence driver [`Options::cadence`] asked for
    /// (`None` without that option). Shared by every clone; the driver
    /// stops when the last clone drops.
    driver: Option<Arc<AdvanceDriver>>,
}

impl Store {
    /// Opens the store in `arena`, doing whatever the arena's state calls
    /// for: **format** if the arena is blank, **create** if it holds no
    /// store yet, **recover** otherwise (uniform across crashes and clean
    /// shutdowns). The report says which path ran
    /// ([`RecoveryReport::created`]) and what recovery replayed — per
    /// shard, in [`RecoveryReport::per_shard`].
    ///
    /// # Errors
    ///
    /// Arena exhaustion while creating; a full failed-epoch set while
    /// recovering; [`Error::UnsupportedLayout`] when the arena carries a
    /// superblock of a different on-media version (never silently
    /// reformatted); [`Error::InvalidShardCount`] /
    /// [`Error::ShardMismatch`] when [`Options::shards`] is malformed or
    /// disagrees with the count fixed at format time.
    pub fn open(arena: &PArena, options: Options) -> Result<(Store, RecoveryReport), Error> {
        let config = options.to_config();
        // Reject malformed options before any media write: a blank arena
        // handed a bad shard count must stay blank.
        crate::tree::validate_shard_count(config.shards)?;
        if !superblock::is_formatted(arena) {
            if superblock::has_magic(arena) {
                // A store from another layout generation: refuse to guess,
                // and above all refuse to reformat over it.
                return Err(Error::UnsupportedLayout {
                    found: superblock::raw_version(arena),
                    expected: superblock::VERSION,
                });
            }
            superblock::format(arena);
        }
        let (tree, report) = if arena.pread_u64(superblock::SB_TREE_META) == 1 {
            DurableMasstree::open(arena, config)?
        } else {
            let tree = DurableMasstree::create(arena, config)?;
            let report = RecoveryReport {
                created: true,
                failed_epoch: 0,
                failed_epochs: Vec::new(),
                replayed_entries: 0,
                replayed_bytes: 0,
                replay_time: Duration::ZERO,
                parallel_workers: 0,
                per_shard: Vec::new(),
            };
            (tree, report)
        };
        let slots = SlotPool::new(tree.allocator().threads());
        let shards: Vec<DurableMasstree> = (0..tree.shard_count()).map(|i| tree.shard(i)).collect();
        let driver = options.cadence.map(|c| {
            Arc::new(AdvanceDriver::spawn_per_domain(
                tree.epoch_manager().clone(),
                vec![c; shards.len()],
            ))
        });
        Ok((
            Store {
                shards,
                slots,
                driver,
            },
            report,
        ))
    }

    /// Acquires a session slot from the bounded pool.
    ///
    /// # Errors
    ///
    /// [`Error::TooManyThreads`] when every configured slot
    /// ([`Options::threads`]) is held by a live [`Session`]. To wait for
    /// a slot instead of failing, use [`Store::session_blocking`].
    pub fn session(&self) -> Result<Session, Error> {
        let tid = self.slots.lock_free().pop().ok_or(Error::TooManyThreads {
            limit: self.slots.limit,
        })?;
        Ok(self.session_from_slot(tid))
    }

    /// Acquires a session slot, **waiting** up to `timeout` for one to be
    /// released when the pool is exhausted. The fairness is the pool's
    /// (each released slot wakes one waiter); a zero timeout degenerates
    /// to [`Store::session`]'s try-acquire.
    ///
    /// This is the front door for servers mapping more client connections
    /// than the store has session slots ([`Options::threads`]): a worker
    /// that would have gotten a hard [`Error::TooManyThreads`] instead
    /// rides out a short burst, and only a genuinely wedged pool (a slot
    /// held past the deadline) surfaces an error.
    ///
    /// # Errors
    ///
    /// [`Error::SessionTimeout`] when no slot was released within
    /// `timeout`.
    pub fn session_blocking(&self, timeout: Duration) -> Result<Session, Error> {
        let deadline = Instant::now() + timeout;
        let mut free = self.slots.lock_free();
        loop {
            if let Some(tid) = free.pop() {
                drop(free);
                return Ok(self.session_from_slot(tid));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(Error::SessionTimeout {
                    limit: self.slots.limit,
                    waited: timeout,
                });
            }
            // Spurious wakeups and steals (another waiter popping first)
            // both land back on the pop-or-wait loop above.
            let (guard, _timeout_result) = self
                .slots
                .released
                .wait_timeout(free, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            free = guard;
        }
    }

    /// Wraps an already-popped pool slot in a [`Session`].
    fn session_from_slot(&self, tid: usize) -> Session {
        let ctx = self.shards[0]
            .thread_ctx(tid)
            .expect("pool slots are within the configured range");
        Session {
            ctx,
            pool: Arc::clone(&self.slots),
            tid,
            store: self.clone(),
        }
    }

    // ==================================================================
    // Operations
    // ==================================================================

    /// The shard tree `key` routes to.
    #[inline]
    fn tree_for(&self, key: &[u8]) -> &DurableMasstree {
        &self.shards[crate::tree::shard_of(key, self.shards.len())]
    }

    /// Inserts or updates `key`, returning a copy of the previous value.
    ///
    /// The value lands in a fresh length-prefixed durable buffer from the
    /// size class fitting it; like every operation here, no cache-line
    /// flush or fence runs on this path. Before it starts, the put checks
    /// its session's log buffer for the key's shard for one op's
    /// worst-case undo and, when the buffer is short, checkpoints that
    /// shard first (counted in [`ShardStats::advances_forced`]).
    ///
    /// # Errors
    ///
    /// [`Error::ValueTooLarge`] above [`crate::MAX_VALUE_BYTES`];
    /// [`Error::Pmem`] when the arena cannot fit the value buffer;
    /// [`Error::SessionPinned`] when the buffer is short while this
    /// session holds a pin on any shard (a live [`ValueRef`], a
    /// [`Session::pin_shard`] guard), since the checkpoint would wait for
    /// that pin; [`Error::BatchExceedsLog`] when even an empty buffer
    /// cannot hold one op's worst case. None of these writes anything.
    pub fn put(&self, sess: &Session, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>, Error> {
        let tree = self.tree_for(key);
        tree.reserve_log_room(&sess.ctx, OP_UNDO_BOUND)?;
        tree.put_bytes(&sess.ctx, key, value)
    }

    /// Looks up `key`, returning a **borrowed, zero-copy** view of its
    /// value bytes in place in the durable buffer.
    ///
    /// The returned [`ValueRef`] dereferences to `&[u8]` without copying
    /// a byte; it holds a read pin on the key's shard, so that one shard
    /// cannot checkpoint until the view is dropped (other shards are
    /// unaffected). Concurrent overwrites or removes of the key leave the
    /// viewed bytes intact — the reader always sees a complete old-or-
    /// current value, never a torn one. [`Store::get`] and
    /// [`Store::get_u64`] are thin wrappers over this method.
    ///
    /// ```
    /// # use incll_pmem::PArena;
    /// # use incll::{Options, Store};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// # let arena = PArena::builder().capacity_bytes(16 << 20).build()?;
    /// # let (store, _) = Store::open(&arena, Options::new().threads(1)
    /// #     .log_bytes_per_thread(1 << 20))?;
    /// # let sess = store.session()?;
    /// store.put(&sess, b"k", b"value bytes")?;
    /// let v = store.get_ref(&sess, b"k").unwrap();
    /// assert_eq!(&*v, b"value bytes"); // no allocation, no copy
    /// drop(v); // releases the shard's read pin
    /// # Ok(())
    /// # }
    /// ```
    pub fn get_ref<'s>(&'s self, sess: &'s Session, key: &[u8]) -> Option<ValueRef<'s>> {
        self.tree_for(key).get_ref(&sess.ctx, key)
    }

    /// Looks up `key`, returning a copy of its value.
    ///
    /// Exactly [`Store::get_ref`] + [`ValueRef::to_vec`]: one allocation
    /// and one copy per hit. Prefer [`Store::get_ref`] on read-heavy hot
    /// paths.
    pub fn get(&self, sess: &Session, key: &[u8]) -> Option<Vec<u8>> {
        self.get_ref(sess, key).map(|v| v.to_vec())
    }

    /// Removes `key`, returning whether it was present. Obeys the same
    /// log-room rule as [`Store::put`].
    ///
    /// # Panics
    ///
    /// Panics if this session holds a pin on any shard while its log
    /// buffer for the key's shard is short, and the remove then overruns
    /// the buffer ([`Store::put`] reports that case as
    /// [`Error::SessionPinned`]; a remove has no error to return). The
    /// same holds on a store whose per-(slot, shard) buffer is too small
    /// for one op's worst case, where [`Store::put`] fails with
    /// [`Error::BatchExceedsLog`].
    pub fn remove(&self, sess: &Session, key: &[u8]) -> bool {
        let tree = self.tree_for(key);
        // Err only in the cases the Panics section names: the write goes
        // ahead without a checkpoint, and usually fits anyway.
        let _ = tree.reserve_log_room(&sess.ctx, OP_UNDO_BOUND);
        tree.remove(&sess.ctx, key)
    }

    /// [`Store::put`] for the paper's 8-byte payloads (stored
    /// little-endian; interchangeable with the byte-slice form).
    ///
    /// The returned previous payload is the previous value's first 8
    /// bytes, a shorter one zero-extended (as [`ValueRef::as_u64`]); for
    /// mixed-width keys use [`Store::put`], which returns the full
    /// previous value. Obeys the same log-room rule as [`Store::put`].
    ///
    /// # Errors
    ///
    /// As [`Store::put`] (an 8-byte value is never too large):
    /// [`Error::Pmem`] when the arena cannot fit the value buffer, and the
    /// key keeps its previous value; [`Error::SessionPinned`] when the
    /// session's log buffer for the key's shard is short while the session
    /// holds a pin; [`Error::BatchExceedsLog`] when even an empty buffer
    /// cannot hold one op's worst case. None of these writes anything.
    pub fn put_u64(&self, sess: &Session, key: &[u8], value: u64) -> Result<Option<u64>, Error> {
        let tree = self.tree_for(key);
        tree.reserve_log_room(&sess.ctx, OP_UNDO_BOUND)?;
        tree.put(&sess.ctx, key, value)
    }

    /// [`Store::get`] for the paper's 8-byte payloads.
    ///
    /// Routed through the borrowed read path: equivalent to
    /// `store.get(&sess, key)` followed by a little-endian `u64` decode
    /// of the value's first 8 bytes (a shorter value zero-extended), but
    /// decodes in place via [`ValueRef::as_u64`] — no allocation, no byte
    /// copy.
    pub fn get_u64(&self, sess: &Session, key: &[u8]) -> Option<u64> {
        self.get_ref(sess, key).map(|v| v.as_u64())
    }

    /// Scans at most `limit` keys ≥ `start` in **global** key order,
    /// passing each (key, value) pair to `f`. Returns the number visited.
    ///
    /// On a sharded store this is the k-way merge of the per-shard trees.
    /// Like [`Store::range`], the scan is an **epoch-snapshot** scan: it
    /// pins a shard's epoch only for the duration of each batch refill
    /// (never across calls to `f`), so an arbitrarily long or slow scan
    /// never blocks any shard's checkpoint — `f` may itself call
    /// [`Store::checkpoint_shard`].
    pub fn scan(
        &self,
        sess: &Session,
        start: &[u8],
        limit: usize,
        f: &mut dyn FnMut(&[u8], &[u8]),
    ) -> usize {
        if limit == 0 {
            return 0;
        }
        let mut merge = self.range(sess, start..);
        // Small limits must not pull a full batch per shard: each cursor
        // copies every fetched value, so clamp the refill size.
        merge.batch = limit.min(RANGE_BATCH);
        let mut visited = 0usize;
        for (key, value) in merge {
            f(&key, &value);
            visited += 1;
            if visited == limit {
                break;
            }
        }
        visited
    }

    /// Iterates `(key, value)` pairs over a key range, in **global** key
    /// order (a lazy k-way merge over the per-shard trees).
    ///
    /// Bounds are byte strings: `store.range(&sess, &b"a"[..]..&b"m"[..])`.
    /// For the full store use [`Store::iter`].
    ///
    /// The iterator is an **epoch-snapshot** scan: no epoch pin is held
    /// between `next()` calls. Each shard cursor pins its shard's domain
    /// only while refilling one bounded batch, then re-finds its position
    /// by a fresh descent from the successor of the last key it saw — so
    /// a scan held open indefinitely never delays any shard's
    /// `advance_domain`, and checkpoints taken mid-scan are perfectly
    /// legal (each batch observes a state at least as new as the last).
    pub fn range<'s, K, R>(&'s self, sess: &'s Session, bounds: R) -> RangeScan<'s>
    where
        K: AsRef<[u8]>,
        R: RangeBounds<K>,
    {
        let start = match bounds.start_bound() {
            Bound::Unbounded => Vec::new(),
            Bound::Included(k) => k.as_ref().to_vec(),
            Bound::Excluded(k) => successor(k.as_ref().to_vec()),
        };
        let end = match bounds.end_bound() {
            Bound::Unbounded => Bound::Unbounded,
            Bound::Included(k) => Bound::Included(k.as_ref().to_vec()),
            Bound::Excluded(k) => Bound::Excluded(k.as_ref().to_vec()),
        };
        RangeScan {
            store: self,
            sess,
            end,
            batch: RANGE_BATCH,
            cursors: (0..self.shards.len())
                .map(|shard| ShardCursor {
                    shard,
                    next_start: Some(start.clone()),
                    buf: VecDeque::new(),
                })
                .collect(),
        }
    }

    /// Iterates every `(key, value)` pair in order.
    pub fn iter<'s>(&'s self, sess: &'s Session) -> RangeScan<'s> {
        self.range::<&[u8], _>(sess, ..)
    }

    // ==================================================================
    // Lifecycle & introspection
    // ==================================================================

    /// Takes a checkpoint of **every** shard now (the all-domains
    /// barrier): everything written so far — on every shard — survives
    /// any later crash. Advances each shard's epoch domain in shard
    /// order; returns shard 0's new epoch.
    ///
    /// It also empties every shard's log, so it retires every commit
    /// run's mask and resets [`ShardStats::in_doubt_log_bytes`] and
    /// [`ShardStats::bytes_since_boundary`]: a recovery right after it
    /// has nothing to replay or redo. On a store opened without
    /// [`Options::cadence`] nothing else ends an epoch but a write that
    /// finds its log buffer short (the log-room rule), so recovery may
    /// replay up to [`Options::log_bytes_per_thread`] per slot; an
    /// embedder that wants shorter recoveries calls this, sets a cadence,
    /// or sizes the log smaller.
    ///
    /// For a scoped checkpoint that stalls only one shard's sessions, use
    /// [`Store::checkpoint_shard`]. (Background cadence:
    /// [`incll_epoch::AdvanceDriver`] — per-domain cadences via
    /// [`incll_epoch::AdvanceDriver::spawn_per_domain`] — on
    /// [`Store::epoch_manager`].)
    ///
    /// # Deadlocks
    ///
    /// Must not be called while the calling thread's [`Session`] holds a
    /// pin on any shard (a live [`ValueRef`], a [`Session::pin_shard`]
    /// guard): the checkpoint waits for every pin on the shard to drop.
    pub fn checkpoint(&self) -> u64 {
        self.shards[0].epoch_manager().advance()
    }

    /// Takes a checkpoint of shard `shard` only: everything written to
    /// **that shard** so far survives any later crash, and only sessions
    /// currently operating in that shard are (briefly) stalled. Other
    /// shards' epochs, logs and in-flight work are untouched. Returns the
    /// shard's new epoch.
    ///
    /// # Deadlocks
    ///
    /// Must not be called while the calling thread's [`Session`] holds a
    /// pin on `shard` (see [`Store::checkpoint`]).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shard_count()`.
    pub fn checkpoint_shard(&self, shard: usize) -> u64 {
        assert!(shard < self.shards.len(), "shard out of range");
        self.shards[0].epoch_manager().advance_domain(shard)
    }

    /// Permanently stops the background cadence driver, if
    /// [`Options::cadence`] spawned one (no-op otherwise): no further
    /// automatic checkpoints fire on any shard, while explicit
    /// [`Store::checkpoint`] / [`Store::checkpoint_shard`] keep working.
    /// For controlled teardowns: a crash-measurement harness freezes the
    /// cadence *before* quiescing its writers, so a backlogged driver
    /// can't spend the sudden idle time on a final catch-up advance that
    /// erases the undo exposure the harness is about to measure.
    pub fn halt_cadence(&self) {
        if let Some(d) = &self.driver {
            d.halt();
        }
    }

    /// The epoch authority driving fine-grain checkpoints (shared by every
    /// shard).
    pub fn epoch_manager(&self) -> &EpochManager {
        self.shards[0].epoch_manager()
    }

    /// The underlying arena (stats counters, latency knobs).
    pub fn arena(&self) -> &PArena {
        self.shards[0].arena()
    }

    /// The configured session-slot count.
    pub fn threads(&self) -> usize {
        self.slots.limit
    }

    /// The keyspace shard count fixed when this store was formatted.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` routes to (stable across restarts).
    pub fn shard_of(&self, key: &[u8]) -> usize {
        crate::tree::shard_of(key, self.shards.len())
    }

    /// Checkpoint observability for shard `i`: its epoch, the log bytes
    /// a crash now would replay there, and how many checkpoints the
    /// cadence, the log-room rule and explicit calls took.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn shard_stats(&self, i: usize) -> ShardStats {
        assert!(i < self.shards.len(), "shard out of range");
        let mgr = self.epoch_manager();
        let c = mgr.domain_counters(i);
        let inner = &self.shards[0].inner;
        ShardStats {
            epoch: mgr.current_epoch_of(i),
            bytes_since_boundary: (0..self.threads()).map(|t| inner.log.used_in(t, i)).sum(),
            in_doubt_log_bytes: inner.in_doubt_bytes[i].load(Ordering::Relaxed),
            log_bytes_held: inner.log.bytes_held(i),
            advances_fired: c.advances_fired,
            advances_forced: inner.forced_boundaries[i].load(Ordering::Relaxed),
            advances_skipped: c.advances_skipped,
        }
    }

    /// The most [`ShardStats::in_doubt_log_bytes`] can read on any shard:
    /// the shard's log full of intents, which is one (slot, shard)
    /// buffer's cap plus one log segment per session slot, rounded up to
    /// whole pool extents (and never more than every slot's buffer full).
    /// With no cadence this — a function of [`Options::threads`],
    /// [`Options::shards`], [`Options::log_bytes_per_thread`] and the
    /// arena's extent size — is what bounds the work a recovery may have
    /// to redo per shard. Only a write whose session holds a pin while its
    /// buffer is short grows a shard's log past it.
    pub fn in_doubt_bound_bytes(&self) -> u64 {
        let log = &self.shards[0].inner.log;
        let extent = self.shards[0].allocator().extent_pool().1;
        let all_full = self.threads() as u64 * log.slot_capacity();
        log.held_bound().next_multiple_of(extent).min(all_full)
    }

    /// Commit runs still naming a shard: the batch-table slots a crash
    /// right now would match surfaced intents against. A store that
    /// never reopened and never abandoned a staged batch keeps every
    /// durable commit in one run. Briefly takes the commit lock.
    pub fn commit_runs_live(&self) -> usize {
        self.shards[0].inner.batches.lock().live_runs()
    }

    /// Extent-pool observability: the pool descriptor
    /// `(pool_base, extent_bytes, extent_count)` plus the number of
    /// extents each shard currently owns, for its data and its external
    /// log together (create claims one of each per shard; hot shards and
    /// growing log buffers claim more online). Always `Some`: every store,
    /// at every shard count, carves from the pool. Diagnostics /
    /// experiments.
    pub fn extent_stats(&self) -> Option<ExtentStats> {
        let alloc = self.shards[0].allocator();
        let (pool_base, extent_bytes, extent_count) = alloc.extent_pool();
        Some(ExtentStats {
            pool_base,
            extent_bytes,
            extent_count,
            owned_per_shard: (0..self.shards.len())
                .map(|d| alloc.owned_extents(d).len() + alloc.log_extents(d).len())
                .collect(),
        })
    }

    /// Shard `i`'s tree handle (crate-internal: batch commit and recovery
    /// resolution reach per-shard state through it).
    pub(crate) fn shard_tree(&self, i: usize) -> &DurableMasstree {
        &self.shards[i]
    }
}

/// One shard's checkpoint observability snapshot ([`Store::shard_stats`]).
///
/// The advance counters come from the shard's epoch domain
/// ([`incll_epoch::EpochManager::domain_counters`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// The shard's current epoch.
    pub epoch: u64,
    /// External-log bytes in the shard's buffers, summed over every
    /// session slot: entries with their headers, undo and intents alike,
    /// written since the shard's last completed checkpoint — exactly what
    /// a crash right now would have recovery scan there.
    pub bytes_since_boundary: u64,
    /// Checkpoints completed on this shard (driver ticks plus explicit
    /// [`Store::checkpoint`]/[`Store::checkpoint_shard`] calls).
    pub advances_fired: u64,
    /// Log bytes of committed batch intents staged on this shard since
    /// its last completed checkpoint: what a crash right now would redo
    /// here. Bounded by the shard's log: one (slot, shard) buffer's cap
    /// plus one segment per session slot ([`Store::in_doubt_bound_bytes`]),
    /// not one cap per slot.
    pub in_doubt_log_bytes: u64,
    /// Bytes of the pool extents the shard's external log owns: the
    /// segments its (slot, shard) buffers hold and the free ones a
    /// boundary returned. A boundary keeps each buffer's first segment
    /// and returns the rest, and a writer claims a fresh log extent only
    /// while this is under one buffer's cap plus one segment per slot, so
    /// it stays within that bound rounded up to whole extents, unless a
    /// session holding a pin had to grow its buffer past it.
    pub log_bytes_held: u64,
    /// The subset of [`ShardStats::advances_fired`] that a write forced:
    /// the log-room rule, when a put, remove or commit found its
    /// (slot, shard) log buffer short, or — the full-table fallback — a
    /// commit reusing a commit-run slot (see `crate::batch`). On a store
    /// with no cadence these are the only checkpoints nobody asked for.
    pub advances_forced: u64,
    /// Driver ticks skipped because the shard was clean (the dirty-work
    /// heuristic of a lazy cadence).
    pub advances_skipped: u64,
}

/// Extent-pool snapshot ([`Store::extent_stats`]): the superblock's pool
/// descriptor plus how many extents each shard owns, read from the
/// durable owner table. `pool_base + extent_bytes × Σ owned_per_shard` is
/// every arena byte the store has claimed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtentStats {
    /// Arena offset where the extent pool starts.
    pub pool_base: u64,
    /// Bytes per extent (power of two, fixed at format).
    pub extent_bytes: u64,
    /// Total extents in the pool.
    pub extent_count: usize,
    /// `owned_per_shard[s]` = extents shard `s` has durably claimed: the
    /// ones its allocator carves from and the ones its external-log
    /// buffers' segments are cut from.
    pub owned_per_shard: Vec<usize>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("threads", &self.slots.limit)
            .field("shards", &self.shards.len())
            .field("tree", &self.shards[0])
            .finish()
    }
}

/// Keys-in-batches pull iterator returned by [`Store::range`]: a lazy
/// k-way merge over one batched cursor per shard, yielding global key
/// order.
///
/// Each refill runs one bounded scan on one shard under a short read pin
/// released before the refill returns — the iterator holds **no** epoch
/// pin between `next()` calls, so shards checkpoint freely mid-scan. A
/// cursor revalidates its position on every refill by descending afresh
/// from the successor of the last key it yielded (positions are keys,
/// not node pointers, so advances and even node splits between batches
/// are harmless). Mutations racing the iterator are seen or missed per
/// batch exactly as they would be by the equivalent sequence of
/// [`Store::scan`] calls. Keys are unique across shards (each key routes
/// to exactly one), so the merge needs no tie-breaking.
///
/// # Interaction with [`crate::WriteBatch`] commits
///
/// A batch that commits **between** two refills is observed atomically
/// by every refill that follows: commit applies all of its ops before
/// returning, and each refill re-descends from the successor of the last
/// yielded key, reading whatever is then current. So a later refill
/// never shows a *torn* batch — a committed batch's op is visible to it
/// exactly when every other op of that batch is already applied. (Keys
/// the scan already passed are history: a batch writing behind the
/// cursor is simply not revisited, same as any racing put.) A refill
/// racing a commit's *apply phase* may still see its prefix — per-op
/// visibility there is the same as for individual racing puts; only
/// crash recovery and refills after commit returns get the all-or-
/// nothing view. Shrink [`Store::scan`]'s `limit` (or a small batch) to
/// tighten refill boundaries — the guarantee is per refill, not per
/// `next()` call.
pub struct RangeScan<'s> {
    store: &'s Store,
    sess: &'s Session,
    end: Bound<Vec<u8>>,
    batch: usize,
    cursors: Vec<ShardCursor>,
}

/// One shard's position in the merge.
struct ShardCursor {
    shard: usize,
    /// Start key of the shard's next batch; `None` once exhausted.
    next_start: Option<Vec<u8>>,
    buf: VecDeque<(Vec<u8>, Vec<u8>)>,
}

/// Keys fetched per refill.
const RANGE_BATCH: usize = 64;

impl ShardCursor {
    /// Pulls the next batch from this cursor's shard tree. After this
    /// returns, either `buf` is non-empty or `next_start` is `None`.
    fn refill(&mut self, store: &Store, sess: &Session, end: &Bound<Vec<u8>>, batch: usize) {
        let Some(start) = self.next_start.take() else {
            return;
        };
        let mut visited = 0usize;
        let mut past_end = false;
        let buf = &mut self.buf;
        let tree = &store.shards[self.shard];
        let arena = tree.arena();
        // scan_raw yields value-buffer offsets, so each in-bound value is
        // copied exactly once (directly into the batch).
        tree.scan_raw(sess.ctx(), &start, batch, &mut |k, vbuf| {
            visited += 1;
            if past_end {
                return;
            }
            if !within_end(end, k) {
                past_end = true;
                return;
            }
            buf.push_back((k.to_vec(), crate::tree::read_value_bytes(arena, vbuf)));
        });
        // Re-arm only if this batch was full and still inside the bound.
        // `buf` was empty on entry (the merge drains a cursor before
        // refilling it), so its back is the last visited in-bound key.
        if visited == batch && !past_end {
            if let Some((last, _)) = self.buf.back() {
                self.next_start = Some(successor(last.clone()));
            }
        }
    }
}

impl Iterator for RangeScan<'_> {
    type Item = (Vec<u8>, Vec<u8>);

    fn next(&mut self) -> Option<Self::Item> {
        // Refill any drained-but-live cursor, then pop the smallest head.
        // Shard counts are small (≤ 64), so a linear min beats a heap.
        for c in &mut self.cursors {
            if c.buf.is_empty() && c.next_start.is_some() {
                c.refill(self.store, self.sess, &self.end, self.batch);
            }
        }
        let mut min: Option<usize> = None;
        for (i, c) in self.cursors.iter().enumerate() {
            if let Some((head, _)) = c.buf.front() {
                if min.is_none_or(|m| head < &self.cursors[m].buf.front().expect("non-empty").0) {
                    min = Some(i);
                }
            }
        }
        self.cursors[min?].buf.pop_front()
    }
}

/// The smallest byte string strictly greater than `k`.
fn successor(mut k: Vec<u8>) -> Vec<u8> {
    k.push(0);
    k
}

fn within_end(end: &Bound<Vec<u8>>, key: &[u8]) -> bool {
    match end {
        Bound::Unbounded => true,
        Bound::Included(e) => key <= e.as_slice(),
        Bound::Excluded(e) => key < e.as_slice(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_two_slot() -> (PArena, Store) {
        let arena = PArena::builder()
            .capacity_bytes(32 << 20)
            .build()
            .expect("arena");
        let opts = Options::new().threads(2).log_bytes_per_thread(1 << 20);
        let (store, _) = Store::open(&arena, opts).expect("open");
        (arena, store)
    }

    #[test]
    fn session_blocking_times_out_on_an_exhausted_pool() {
        let (_arena, store) = open_two_slot();
        let _a = store.session().unwrap();
        let _b = store.session().unwrap();
        assert!(matches!(
            store.session(),
            Err(Error::TooManyThreads { limit: 2 })
        ));
        let start = Instant::now();
        let err = store
            .session_blocking(Duration::from_millis(30))
            .expect_err("pool stays exhausted");
        assert!(
            matches!(err, Error::SessionTimeout { limit: 2, .. }),
            "{err:?}"
        );
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn session_blocking_wakes_when_a_slot_releases() {
        let (_arena, store) = open_two_slot();
        let a = store.session().unwrap();
        let _b = store.session().unwrap();
        std::thread::scope(|s| {
            let store2 = store.clone();
            let waiter = s.spawn(move || store2.session_blocking(Duration::from_secs(10)));
            std::thread::sleep(Duration::from_millis(20));
            drop(a); // releases a slot; the waiter must claim it
            let sess = waiter.join().expect("no panic").expect("slot released");
            assert!(sess.tid() < 2);
        });
    }

    #[test]
    fn session_blocking_grabs_a_free_slot_immediately() {
        let (_arena, store) = open_two_slot();
        let start = Instant::now();
        let sess = store
            .session_blocking(Duration::from_secs(5))
            .expect("free pool");
        assert!(start.elapsed() < Duration::from_secs(1));
        store.put(&sess, b"k", b"v").expect("usable session");
    }
}
