//! The durable Masstree: fine-grain checkpointing + in-cache-line logging.
//!
//! Structure and concurrency protocol mirror the transient tree
//! (`incll_masstree::tree`); every *durable mutation* additionally runs the
//! paper's logging discipline:
//!
//! * permutation changes (insert/remove) are guarded by `InCLLp`
//!   (Listing 3) — one same-cache-line log write, no flush;
//! * value updates are guarded by `ValInCLL1/2` (§4.1.3) — ditto;
//! * splits, layer conversions, root swings and every interior-node
//!   modification go through the external undo log (§4.2): entry → `clwb`
//!   → `sfence` → mutate;
//! * a leaf goes to the external log one region at a time (head, value
//!   line 3, value line 4; see [`crate::layout`]): a second hot value in
//!   one line captures that 64-byte line, a change the in-line logs cannot
//!   absorb captures the regions still missing, and a captured region
//!   needs no further logging for the rest of the epoch (the `logged`
//!   bits).
//!
//! With `incll_enabled == false` the tree runs in the paper's **LOGGING**
//! configuration (Figs. 7–8): the in-line logs are bypassed and every
//! node's first modification per epoch external-logs it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use incll_epoch::{EpochManager, EpochOptions, Guard, ThreadHandle};
use incll_extlog::ExtLog;
use incll_masstree::key::{entry_cmp, ikey_bytes, search_klenx, KeyCursor, KLEN_LAYER};
use incll_palloc::PAlloc;
use incll_pmem::{superblock, FlushDomainScope, PArena};

use crate::error::{Error, MAX_VALUE_BYTES};
use crate::layout::{
    incll_for, meta, off_ikey, off_int_child, off_int_key, off_val, val_incll, val_region, DPerm,
    INT_WIDTH, LEAF_REGIONS, LEAF_WIDTH, NODE_BYTES, OFF_INCLL1, OFF_INCLL2, OFF_INT_NKEYS,
    OFF_KLENX, OFF_META, OFF_NEXT, OFF_PARENT, OFF_PERM, OFF_PERM_INCLL,
};
use crate::pversion as pv;

/// Minimum durable value-buffer size (paper §6: 32-byte buffers).
///
/// Every value buffer is length-prefixed (`[len: u64][payload bytes]`) and
/// allocated from the size class fitting `8 + len`, but never smaller than
/// this — so the paper's fixed 32-byte-buffer regime is exactly what small
/// (e.g. `u64`) values get.
pub const VALUE_BUF_BYTES: usize = 32;
/// Layer root-holder cell size.
const HOLDER_BYTES: usize = 16;
/// Recovery-lock array size (transient; hashed by node offset, §4.3).
pub(crate) const REC_LOCKS: usize = 1024;

/// Interior levels one tree layer can reach, as far as the log-room rule
/// is concerned — a stated bound, not a limit the tree enforces. Nodes are
/// never freed and interiors never merge, and an interior split leaves
/// both halves at least seven children ([`INT_WIDTH`] = 14 keys split
/// 7 | 6), so a layer with `h` interior levels holds at least `2·7^(h-1)`
/// leaves: twelve levels take `2·7^11` ≈ 4·10⁹ leaves, 1.2 TiB of
/// 320-byte nodes in one layer of one shard.
const MAX_INTERIOR_LEVELS: u64 = 12;

/// One interior node's undo entry: its whole 320-byte image.
const INTERIOR_UNDO: u64 = ExtLog::entry_bytes(NODE_BYTES);

/// The undo an op seals when its split, if any, stops at the parent:
/// every region of its leaf as an entry of its own — a leaf may be
/// captured region by region within an epoch — plus the parent's image.
/// A commit reserves this per staged op.
pub(crate) const UNDO_ALLOWANCE: u64 = {
    let mut leaf = 0;
    let mut r = 0;
    while r < LEAF_REGIONS.len() {
        leaf += ExtLog::entry_bytes(LEAF_REGIONS[r].1);
        r += 1;
    }
    leaf + INTERIOR_UNDO
};

/// The rest of a split chain above the parent: one image per further
/// interior level, and the holder cell a layer-root split swings. A
/// commit reserves this once per covered shard.
pub(crate) const SPLIT_CHAIN: u64 =
    (MAX_INTERIOR_LEVELS - 1) * INTERIOR_UNDO + ExtLog::entry_bytes(HOLDER_BYTES);

/// One op's worst-case undo, what a facade write reserves: 4 688 bytes.
///
/// An op changes one leaf of one layer; a layer conversion or a new
/// sub-layer builds fresh nodes, and a fresh node needs no pre-image. The
/// leaf is captured at most once per region per epoch, three entries at
/// worst. A split then captures the parent, a parent split the
/// grandparent, and so on up the layer — each interior node at most once
/// per epoch, so one image per level, at most [`MAX_INTERIOR_LEVELS`] —
/// and a split of the layer's root seals its 16-byte holder cell.
/// Nothing else on the write path appends undo.
///
/// A multi-op commit reserves [`UNDO_ALLOWANCE`] per op and one
/// [`SPLIT_CHAIN`] per shard instead: exact for one op, and for more it
/// covers one split cascading past its parent per shard (which needs a
/// full parent). Further cascades in the same commit borrow the room the
/// other ops leave — most capture no interior node, and nothing captured
/// this epoch is captured again. That part is a reservation, not a proof;
/// `ExtLog::append`'s overflow assert stays the invariant behind it.
pub(crate) const OP_UNDO_BOUND: u64 = UNDO_ALLOWANCE + SPLIT_CHAIN;

/// Construction options for [`DurableMasstree`] (what
/// [`crate::Options`] builds).
#[derive(Debug, Clone)]
pub(crate) struct DurableConfig {
    /// Worker-thread slots (allocator lists + log buffers are per-thread).
    pub threads: usize,
    /// External-log capacity per thread, in bytes. Size for the worst-case
    /// logged nodes per epoch (§6.3 measures 84 K nodes ≈ 30 MB on a
    /// write-heavy 1 M-key tree).
    pub log_bytes_per_thread: usize,
    /// `false` selects the paper's LOGGING ablation: external log only.
    pub incll_enabled: bool,
    /// Keyspace shards: independent tree roots, one epoch domain each
    /// (power of two, `1..=`[`superblock::MAX_SHARDS`]). Fixed at create;
    /// opens must pass the created value.
    pub shards: usize,
    /// Worker threads [`DurableMasstree::open`] spreads per-shard recovery
    /// over (clamped to the shard count; 1 = sequential replay). Recovered
    /// state is byte-identical at every worker count — shards recover on
    /// disjoint state — so this is purely a restart-latency knob.
    ///
    /// Defaults to the `INCLL_RECOVERY_THREADS` environment variable when
    /// set (so a whole test suite can be rerun under parallel recovery),
    /// else 1.
    pub recovery_threads: usize,
}

/// The default for [`DurableConfig::recovery_threads`]: the
/// `INCLL_RECOVERY_THREADS` environment override, or 1 (sequential).
pub(crate) fn default_recovery_threads() -> usize {
    std::env::var("INCLL_RECOVERY_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            threads: 8,
            log_bytes_per_thread: 16 << 20,
            incll_enabled: true,
            shards: 1,
            recovery_threads: default_recovery_threads(),
        }
    }
}

/// Checks that `shards` is a power of two in `1..=MAX_SHARDS`.
pub(crate) fn validate_shard_count(shards: usize) -> Result<(), Error> {
    if shards == 0 || shards > superblock::MAX_SHARDS || !shards.is_power_of_two() {
        return Err(Error::InvalidShardCount {
            requested: shards,
            max: superblock::MAX_SHARDS,
        });
    }
    Ok(())
}

/// Per-thread operation context (the inside of a [`crate::Session`]).
pub(crate) struct DCtx {
    handle: ThreadHandle,
    tid: usize,
}

impl DCtx {
    /// Pins shard 0's epoch domain ([`crate::Session::pin`]).
    pub fn pin(&self) -> Guard<'_> {
        self.handle.pin()
    }

    /// Pins shard `shard`'s epoch domain: that shard cannot checkpoint
    /// while the guard lives.
    pub fn pin_shard(&self, shard: usize) -> Guard<'_> {
        self.handle.pin_domain_read(shard)
    }

    /// Mutating pin on one shard (marks the domain dirty): the batch
    /// fast path holds one of these across every op of a single-shard
    /// batch so all of them land in one epoch.
    pub(crate) fn pin_shard_mut(&self, shard: usize) -> Guard<'_> {
        self.handle.pin_domain_mut(shard)
    }

    /// Mutating pins on every shard named by `mask`, taken in ascending
    /// shard order (the batch-commit pin set; see `crate::batch`).
    pub(crate) fn pin_shards_mut(&self, mask: u64) -> Vec<Guard<'_>> {
        self.handle.pin_domains_mut(mask)
    }

    /// The lowest shard this thread holds a pin on, if any (batch
    /// commit's no-pin precondition).
    pub(crate) fn first_pinned(&self) -> Option<usize> {
        self.handle.first_pinned()
    }
}

impl std::fmt::Debug for DCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DCtx").field("tid", &self.tid).finish()
    }
}

/// A borrowed, zero-copy view of one value's durable bytes, returned by
/// [`crate::Store::get_ref`].
///
/// Dereferences to the payload byte slice **in place** — no allocation,
/// no copy; the view holds an epoch pin on its shard, so the buffer
/// cannot be recycled while the view lives.
///
/// The pin is a *read* pin ([`incll_epoch::ThreadHandle::pin_domain_read`]):
/// it writes no log-buffer or arena byte and never marks the domain dirty,
/// so holding a view briefly is free — but holding one across long pauses
/// delays that one shard's checkpoints, exactly like an open transaction.
/// Drop the view before blocking.
///
/// # What a `ValueRef` may observe
///
/// The bytes were the key's current value at lookup time (validated under
/// the leaf's version check). A *concurrent overwrite or remove* of the
/// same key does not disturb them: puts swap in a fresh buffer and only
/// pass the old one to the allocator, whose free path rewrites just the
/// 16-byte object *header* in front of the payload — never the payload
/// itself — and cannot recycle the buffer before an epoch boundary this
/// pin blocks. So a held `ValueRef` always reads an intact, complete
/// value (possibly superseded), never a torn one.
///
/// [`ValueRef::is_stale`] detects supersession: it re-reads the buffer's
/// header words and compares them against the snapshot taken at lookup.
/// Any cross-epoch free rewrites both words (bumping the §5.1 ABA
/// counter) and is always detected; a same-epoch free is detected on a
/// best-effort basis (see [`PAlloc::payload_header_words`]). Either way
/// the payload bytes remain the intact old value.
pub struct ValueRef<'s> {
    arena: &'s PArena,
    alloc: &'s PAlloc,
    /// Offset of the `[len: u64][payload]` value buffer.
    buf: u64,
    len: usize,
    /// Header-word snapshot taken at lookup, for [`ValueRef::is_stale`].
    hdr: (u64, u64),
    pin: Guard<'s>,
}

impl<'s> ValueRef<'s> {
    /// Decodes the payload as the `u64` convenience encoding
    /// (little-endian, as written by [`crate::Store::put_u64`]).
    /// Meaningful only for 8-byte values.
    pub fn as_u64(&self) -> u64 {
        u64::from_le(self.arena.pread_u64(self.buf + 8))
    }

    /// Copies the payload out (the escape hatch back to owned data; this
    /// is exactly what the allocating `get` does).
    pub fn to_vec(&self) -> Vec<u8> {
        (**self).to_vec()
    }

    /// Whether the value has been superseded (overwritten or removed)
    /// since lookup, detected by re-reading the buffer's allocator header
    /// words against the snapshot taken at lookup. The payload bytes stay
    /// the intact old value either way — this is a freshness signal, not
    /// a validity one. Detection is exact across epoch boundaries and
    /// best-effort within one epoch (see the type docs).
    pub fn is_stale(&self) -> bool {
        self.alloc.payload_header_words(self.buf) != self.hdr
    }

    /// The epoch this view is pinned in.
    pub fn epoch(&self) -> u64 {
        self.pin.epoch()
    }
}

impl std::ops::Deref for ValueRef<'_> {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        // SAFETY: `buf + 8 .. buf + 8 + len` lies inside the arena
        // mapping (the length prefix was read under the leaf version
        // check and bounds are debug-asserted by `ptr_at`), and the held
        // epoch pin keeps the allocator from recycling the buffer, so the
        // bytes stay valid and unmutated for the borrow's lifetime.
        unsafe { std::slice::from_raw_parts(self.arena.ptr_at(self.buf + 8), self.len) }
    }
}

impl AsRef<[u8]> for ValueRef<'_> {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for ValueRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ValueRef")
            .field("len", &self.len)
            .field("epoch", &self.epoch())
            .field("stale", &self.is_stale())
            .finish()
    }
}

pub(crate) struct Inner {
    pub(crate) arena: PArena,
    pub(crate) mgr: EpochManager,
    pub(crate) alloc: PAlloc,
    pub(crate) log: ExtLog,
    /// Durable failed-epoch set **per shard**, loaded at open (empty on a
    /// fresh create). Shard `s`'s nodes are only ever rolled back against
    /// `failed[s]` — each shard crashes and recovers on its own timeline.
    pub(crate) failed: Vec<Vec<u64>>,
    /// First epoch of each shard's current execution; nodes stamped older
    /// than their shard's entry need lazy recovery.
    pub(crate) exec_epochs: Vec<u64>,
    pub(crate) rec_locks: Vec<Mutex<()>>,
    pub(crate) incll_enabled: bool,
    /// Keyspace shards sharing this state (allocator, log; one epoch
    /// domain and one tree root per shard).
    pub(crate) shard_count: usize,
    /// Batch-commit state: serializes intent-protocol commits, mirrors
    /// the superblock batch table's commit runs and hands out batch ids
    /// (see `crate::batch`). Loaded from media at create/open.
    pub(crate) batches: Mutex<crate::batch::BatchSlots>,
    /// Per shard: epoch boundaries forced by the log-room rule or by the
    /// batch table's full-table fallback. A statistic; publishes nothing.
    pub(crate) forced_boundaries: Vec<AtomicU64>,
    /// Per shard: log bytes of committed intents staged since the
    /// shard's last boundary — what a crash right now would redo there.
    /// A statistic; publishes nothing.
    pub(crate) in_doubt_bytes: Vec<AtomicU64>,
}

/// A durable, crash-recoverable Masstree in persistent memory: one shard
/// of a [`crate::Store`].
///
/// # Sharding
///
/// A store formatted with more than one shard holds that many independent
/// tree roots, each with its **own epoch domain** — its own counter,
/// advance cadence, log buffers, allocator lists and failed-epoch set —
/// over one shared arena. A `DurableMasstree` handle speaks to **one**
/// shard's tree: its operations pin that shard's domain and its writes
/// land in that shard's persistence scope. Constructors return the
/// shard-0 handle; [`DurableMasstree::shard`] derives handles for the
/// others. Key routing lives a level up, in [`crate::Store`]; at this
/// level the caller owns placement.
#[derive(Clone)]
pub(crate) struct DurableMasstree {
    pub(crate) inner: Arc<Inner>,
    /// Superblock offset of this handle's root-holder cell.
    root_holder: u64,
    /// The shard this handle is rooted in: its epoch domain, its log
    /// buffers, its allocator lists.
    shard_id: usize,
    /// Cached `inner.exec_epochs[shard_id]` (the `maybe_recover` hot-path
    /// comparison must not chase a Vec).
    exec_epoch: u64,
}

enum Search {
    Found {
        pos: usize,
        slot: usize,
        klenx: u8,
        val: u64,
    },
    NotFound {
        pos: usize,
    },
}

impl DurableMasstree {
    // ==================================================================
    // Construction
    // ==================================================================

    /// Creates a fresh durable tree in a formatted arena, flushing the
    /// initial state so it survives an immediate crash
    /// ([`crate::Store::open`]'s create branch).
    ///
    /// # Errors
    ///
    /// Propagates arena exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if the arena is not formatted
    /// ([`incll_pmem::superblock::format`]).
    pub fn create(arena: &PArena, config: DurableConfig) -> Result<Self, Error> {
        assert!(
            superblock::is_formatted(arena),
            "arena must be formatted before create"
        );
        crate::tree::validate_shard_count(config.shards)?;
        // One epoch domain, one log buffer set and one allocator list set
        // per shard: every shard checkpoints on its own timeline. The log
        // region is carved *before* the allocator, which turns all
        // remaining carvable space into the extent pool and must be the
        // last create-time carver.
        let mgr = EpochManager::with_domains(arena.clone(), EpochOptions::durable(), config.shards);
        let log = ExtLog::create_sharded(
            arena,
            config.threads,
            config.log_bytes_per_thread,
            config.shards,
        )?;
        let alloc = PAlloc::create_sharded(arena, config.threads, config.shards)?;
        let epoch = mgr.current_epoch();
        let exec_epochs = (0..config.shards).map(|s| mgr.exec_epoch_of(s)).collect();

        let inner = Arc::new(Inner {
            arena: arena.clone(),
            mgr,
            alloc,
            log,
            failed: vec![Vec::new(); config.shards],
            exec_epochs,
            rec_locks: (0..REC_LOCKS).map(|_| Mutex::new(())).collect(),
            incll_enabled: config.incll_enabled,
            shard_count: config.shards,
            batches: Mutex::new(crate::batch::BatchSlots::load(arena)),
            forced_boundaries: (0..config.shards).map(|_| AtomicU64::new(0)).collect(),
            in_doubt_bytes: (0..config.shards).map(|_| AtomicU64::new(0)).collect(),
        });
        let tree = Self::shard_handle(&inner, 0);
        // One empty root leaf per shard, each behind its own holder cell.
        for s in 0..config.shards {
            let root = tree.new_leaf(0, epoch, /*is_root*/ true, /*locked*/ false)?;
            arena.pwrite_u64(superblock::shard_root_holder(s), root);
        }
        // Seal the mkfs epoch before the flush below makes it a durable
        // checkpoint: every carve and free-list move above is InCLL-tagged
        // with `epoch`, so the store must *execute* in `epoch + 1`. Were a
        // crash before the first runtime boundary to fail the mkfs epoch
        // itself, allocator recovery would revert those moves — un-carving
        // the very root leaves the flushed tree references — and later
        // allocations would hand their memory out again.
        for s in 0..config.shards {
            inner.mgr.restart_domain_at(s, epoch + 1);
        }
        arena.pwrite_u64(superblock::SB_SHARD_COUNT, config.shards as u64);
        arena.pwrite_u64(superblock::SB_TREE_META, 1);
        tree.attach_hooks();
        // mkfs moment: the empty trees become the first durable checkpoint.
        arena.global_flush();
        Ok(tree)
    }

    /// The shard count fixed when this store was created.
    pub fn shard_count(&self) -> usize {
        self.inner.shard_count
    }

    /// A handle rooted in shard `i`, sharing all state (allocator, log,
    /// epoch manager, sessions) with this one.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn shard(&self, i: usize) -> DurableMasstree {
        assert!(
            i < self.inner.shard_count,
            "shard {i} out of range (store has {})",
            self.inner.shard_count
        );
        Self::shard_handle(&self.inner, i)
    }

    /// Wraps recovered shared state into the shard-0 handle (recovery's
    /// constructor; `create` builds its own).
    pub(crate) fn from_inner(inner: Arc<Inner>) -> Self {
        Self::shard_handle(&inner, 0)
    }

    pub(crate) fn attach_hooks(&self) {
        // Weak: the hooks live inside the epoch manager, which `Inner`
        // owns — a strong capture would cycle and leak the whole arena.
        for d in 0..self.inner.shard_count {
            // Pre-flush (quiesced, before the checkpoint flush): the
            // failed-epoch-set compaction sweep. When shard `d` still has
            // durable failed entries, eagerly lazy-recover every leaf of
            // its tree and re-tag its allocator lists, so the flush that
            // follows persists a state in which no node or header needs a
            // rollback keyed to those entries.
            let weak = Arc::downgrade(&self.inner);
            self.inner.mgr.add_pre_flush_hook_on(
                d,
                Box::new(move |finishing_epoch| {
                    if let Some(inner) = weak.upgrade() {
                        // Checkpoint boundaries force a log drain: the
                        // finishing epoch's entries must be durable before
                        // its checkpoint completes. Normally a no-op —
                        // undo entries seal themselves and the batch layer
                        // drains its staged intents before its commit
                        // record — but an intent staged outside a batch
                        // commit is still covered here (writers are
                        // quiesced, so the sweep is race-free).
                        inner.log.drain_domain(d);
                        if !superblock::failed_epochs_for(&inner.arena, d).is_empty() {
                            DurableMasstree::shard_handle(&inner, d).sweep_recover();
                            inner.alloc.normalize_lists(d, finishing_epoch);
                        }
                    }
                }),
            );
            // Boundary (after the flush + durable epoch bump): discard the
            // shard's undo log, release its pending frees, and prune the
            // failed entries the sweep above made unreferenceable (every
            // entry predates the epoch whose checkpoint just completed).
            let weak = Arc::downgrade(&self.inner);
            self.inner.mgr.add_advance_hook_on(
                d,
                Box::new(move |new_epoch| {
                    if let Some(inner) = weak.upgrade() {
                        // The preceding flush made all of this shard's
                        // logged pre-images obsolete.
                        inner.log.reset_domain(d);
                        inner.alloc.on_domain_boundary(d, new_epoch);
                        superblock::prune_failed_epochs(&inner.arena, d, new_epoch);
                        // The log reset just discarded this shard's batch
                        // intents too, so no commit record needs to name
                        // this shard any more: retire its bit from every
                        // commit run (see `crate::batch`).
                        inner.retire_batch_shard(d);
                    }
                }),
            );
        }
    }

    /// The one construction site for shard handles: derives the root
    /// holder and the cached exec epoch from `shard` (every other
    /// constructor delegates here so the caching invariant lives in one
    /// place).
    fn shard_handle(inner: &Arc<Inner>, shard: usize) -> DurableMasstree {
        DurableMasstree {
            inner: Arc::clone(inner),
            root_holder: superblock::shard_root_holder(shard),
            shard_id: shard,
            exec_epoch: inner.exec_epochs[shard],
        }
    }

    /// The epoch manager (drive it with
    /// [`incll_epoch::AdvanceDriver`] or manual
    /// [`EpochManager::advance`]).
    pub fn epoch_manager(&self) -> &EpochManager {
        &self.inner.mgr
    }

    /// The underlying arena.
    pub fn arena(&self) -> &PArena {
        &self.inner.arena
    }

    /// The durable allocator backing this tree.
    pub fn allocator(&self) -> &PAlloc {
        &self.inner.alloc
    }

    /// Registers the calling thread on slot `tid`.
    ///
    /// Slot ids index the per-thread allocator free lists and external-log
    /// buffers, so they are bounds-checked against the configured pool
    /// ([`DurableConfig::threads`]). [`crate::Store::session`] hands out
    /// slots automatically.
    ///
    /// # Errors
    ///
    /// [`Error::TooManyThreads`] when `tid` is outside the configured
    /// range.
    pub fn thread_ctx(&self, tid: usize) -> Result<DCtx, Error> {
        let limit = self.inner.alloc.threads();
        if tid >= limit {
            return Err(Error::TooManyThreads { limit });
        }
        Ok(DCtx {
            handle: self.inner.mgr.register(),
            tid,
        })
    }

    // ==================================================================
    // Public operations
    // ==================================================================

    /// Pins this handle's shard domain (the cheap **read** pin — no
    /// log-buffer touch, never dirties the domain) and enters its flush
    /// scope (ops on shard `s` stall only behind shard `s`'s advances,
    /// and any writes they do make — lazy-recovery repairs on the read
    /// path — are covered by shard `s`'s scoped checkpoint flush).
    #[inline]
    fn enter<'c>(&self, ctx: &'c DCtx) -> (Guard<'c>, FlushDomainScope) {
        (
            ctx.handle.pin_domain_read(self.shard_id),
            FlushDomainScope::enter(self.shard_id as u16),
        )
    }

    /// [`DurableMasstree::enter`] for mutating operations: also stamps the
    /// shard's domain dirty so lazily cadenced drivers checkpoint it.
    #[inline]
    fn enter_mut<'c>(&self, ctx: &'c DCtx) -> (Guard<'c>, FlushDomainScope) {
        (
            ctx.handle.pin_domain_mut(self.shard_id),
            FlushDomainScope::enter(self.shard_id as u16),
        )
    }

    /// The log-room rule, the one byte-driven epoch trigger: before a
    /// write takes its pin on this shard, `ctx`'s log buffer for the shard
    /// must have `need` bytes of room, and when it has not, the shard is
    /// forced over an epoch boundary (which empties every one of its
    /// buffers). Log space is reclaimed nowhere else, so a write that
    /// passes this cannot overrun the buffer within its reservation. The
    /// fast path is one relaxed load of the slot's own cursor and one
    /// compare. Each (slot, shard) buffer has a single writer and a
    /// concurrent boundary only adds room, so nothing here is locked.
    ///
    /// # Errors
    ///
    /// [`Error::BatchExceedsLog`] when `need` exceeds an empty buffer;
    /// [`Error::SessionPinned`] when the buffer is short while `ctx` holds
    /// a pin on any shard — the boundary would wait for that pin forever,
    /// and two writers each pinned on the other's shard would deadlock.
    /// Either way nothing was written.
    #[inline]
    pub(crate) fn reserve_log_room(&self, ctx: &DCtx, need: u64) -> Result<(), Error> {
        let log = &self.inner.log;
        if log.used_in(ctx.tid, self.shard_id) + need <= log.slot_capacity() {
            return Ok(());
        }
        self.force_log_room(ctx, need)
    }

    #[cold]
    fn force_log_room(&self, ctx: &DCtx, need: u64) -> Result<(), Error> {
        let capacity = self.inner.log.slot_capacity();
        if need > capacity {
            return Err(Error::BatchExceedsLog {
                shard: self.shard_id,
                needed: need,
                capacity,
            });
        }
        if let Some(shard) = ctx.first_pinned() {
            return Err(Error::SessionPinned { shard });
        }
        self.inner.mgr.advance_domain(self.shard_id);
        self.inner.forced_boundaries[self.shard_id].fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Looks up `key`, returning a **borrowed, zero-copy** view of its
    /// value bytes in the durable buffer — the `(ptr, len, class)`-shaped
    /// lookup. No byte is copied; the returned [`ValueRef`] dereferences
    /// to the payload in place and holds a read pin on this shard's epoch
    /// domain, so the shard cannot checkpoint (and the allocator cannot
    /// recycle the buffer) until the view is dropped.
    ///
    /// The view is validated at construction: the leaf's version is
    /// re-checked after the slot read (so the buffer was `key`'s current
    /// value at that instant) and the buffer's allocator header words are
    /// snapshotted for later [`ValueRef::is_stale`] checks. See
    /// [`ValueRef`] for the full read-semantics contract.
    pub fn get_ref<'s>(&'s self, ctx: &'s DCtx, key: &[u8]) -> Option<ValueRef<'s>> {
        let guard = ctx.handle.pin_domain_read(self.shard_id);
        let alloc = &self.inner.alloc;
        let found = {
            // Lazy-recovery repairs during the descent are writes; scope
            // them to this shard for the lookup only — the returned view
            // itself never writes, so it does not hold the scope.
            let _scope = FlushDomainScope::enter(self.shard_id as u16);
            // SAFETY: guard pinned; offsets reachable from the root are
            // nodes.
            unsafe {
                self.get_inner(key, |a, buf| {
                    let len = a.pread_u64(buf) as usize;
                    debug_assert!(len <= MAX_VALUE_BYTES, "corrupt value-buffer length");
                    (buf, len, alloc.payload_header_words(buf))
                })
            }
        };
        found.map(|(buf, len, hdr)| ValueRef {
            arena: &self.inner.arena,
            alloc,
            buf,
            len,
            hdr,
            pin: guard,
        })
    }

    /// Inserts or updates `key` with a `u64` payload (stored little-endian
    /// in a fresh length-prefixed durable buffer), returning the previous
    /// payload.
    ///
    /// The returned payload is meaningful only when the previous value was
    /// itself 8 bytes wide; use [`DurableMasstree::put_bytes`] to observe
    /// the full previous value of mixed-width keys.
    ///
    /// # Errors
    ///
    /// As [`DurableMasstree::put_bytes`]: [`Error::Pmem`] when the arena
    /// cannot fit the value buffer (the key's previous mapping survives).
    pub fn put(&self, ctx: &DCtx, key: &[u8], val: u64) -> Result<Option<u64>, Error> {
        self.put_value(ctx, key, &val.to_le_bytes(), None, read_value_u64)
    }

    /// Inserts or updates `key` with a byte-slice value (fresh size-classed
    /// durable buffer per put, §5), returning a copy of the previous value.
    ///
    /// # Errors
    ///
    /// [`Error::ValueTooLarge`] when `val` exceeds [`MAX_VALUE_BYTES`] (the
    /// tree is untouched in that case), and [`Error::Pmem`] when the arena
    /// cannot fit the value buffer (the key's previous mapping survives).
    ///
    /// # Panics
    ///
    /// Panics if the arena runs out *mid-split* while making room for a
    /// brand-new key — structural node allocation still treats exhaustion
    /// as fatal.
    pub fn put_bytes(&self, ctx: &DCtx, key: &[u8], val: &[u8]) -> Result<Option<Vec<u8>>, Error> {
        self.put_value(ctx, key, val, None, read_value_bytes)
    }

    /// [`DurableMasstree::put_bytes`] consuming a value buffer the caller
    /// already reserved with [`DurableMasstree::prepare_value_buf`] (the
    /// batch commit path reserves every buffer up front so a full shard
    /// fails the batch before anything durable names it). `None` falls
    /// back to allocating inline. The batch has no use for the previous
    /// value, so none is read or copied.
    pub(crate) fn put_bytes_with_buf(
        &self,
        ctx: &DCtx,
        key: &[u8],
        val: &[u8],
        prealloc: Option<u64>,
    ) -> Result<(), Error> {
        self.put_value(ctx, key, val, prealloc, |_, _| ()).map(drop)
    }

    /// The byte-slice put both forms above share; `read_old` decides what,
    /// if anything, is made of the buffer the put replaces.
    fn put_value<R>(
        &self,
        ctx: &DCtx,
        key: &[u8],
        val: &[u8],
        mut prealloc: Option<u64>,
        read_old: impl Fn(&PArena, u64) -> R,
    ) -> Result<Option<R>, Error> {
        if val.len() > MAX_VALUE_BYTES {
            return Err(Error::ValueTooLarge {
                size: val.len(),
                max: MAX_VALUE_BYTES,
            });
        }
        let (g, _s) = self.enter_mut(ctx);
        let epoch = g.epoch();
        // SAFETY: as for `get`.
        let out = unsafe { self.put_inner(ctx, epoch, key, val, &mut prealloc, read_old) };
        // No drain on exit: every undo entry the operation appended was
        // sealed before its guarded modification (see `log_node`).
        out
    }

    /// Allocates — and fills — the value buffer a later
    /// [`DurableMasstree::put_bytes_with_buf`] for `val` will consume.
    /// Must run under a mutating pin on this shard carrying `epoch`.
    pub(crate) fn prepare_value_buf(
        &self,
        ctx: &DCtx,
        epoch: u64,
        val: &[u8],
    ) -> Result<u64, Error> {
        if val.len() > MAX_VALUE_BYTES {
            return Err(Error::ValueTooLarge {
                size: val.len(),
                max: MAX_VALUE_BYTES,
            });
        }
        self.new_value_buf(ctx.tid, epoch, val)
    }

    /// Returns an unused [`DurableMasstree::prepare_value_buf`] reservation
    /// to the shard's pending list (reusable at its next boundary).
    pub(crate) fn release_value_buf(&self, ctx: &DCtx, epoch: u64, buf: u64) {
        self.free_value_buf(ctx.tid, epoch, buf);
    }

    /// Removes `key`, returning whether it was present.
    pub fn remove(&self, ctx: &DCtx, key: &[u8]) -> bool {
        let (g, _s) = self.enter_mut(ctx);
        let epoch = g.epoch();
        // SAFETY: as for `get`.
        let out = unsafe { self.remove_inner(ctx, epoch, key) };
        // No drain on exit — as for `put`: undo entries seal themselves.
        out
    }

    /// Callback scan over (key, value-buffer offset) pairs.
    pub(crate) fn scan_raw(
        &self,
        ctx: &DCtx,
        start: &[u8],
        limit: usize,
        f: &mut dyn FnMut(&[u8], u64),
    ) -> usize {
        if limit == 0 {
            return 0;
        }
        let _g = self.enter(ctx);
        let mut remaining = limit;
        let mut prefix = Vec::with_capacity(start.len() + 8);
        // SAFETY: as for `get`.
        unsafe {
            self.scan_layer(
                self.root_holder,
                Some(KeyCursor::new(start)),
                &mut prefix,
                &mut remaining,
                f,
            );
        }
        limit - remaining
    }

    // ==================================================================
    // Node creation
    // ==================================================================

    fn new_leaf(
        &self,
        tid: usize,
        epoch: u64,
        is_root: bool,
        locked: bool,
    ) -> Result<u64, incll_palloc::Error> {
        let a = &self.inner.arena;
        let off = self
            .inner
            .alloc
            .alloc_aligned64_in(tid, self.shard_id, epoch, NODE_BYTES)?;
        let mut vflags = pv::IS_LEAF;
        let mut mflags = meta::IS_LEAF | meta::INS_ALLOWED | meta::LOGGED;
        if is_root {
            vflags |= pv::IS_ROOT;
            mflags |= meta::IS_ROOT;
        }
        pv::reinit(a, off, if locked { vflags | pv::LOCK } else { vflags });
        a.pwrite_u64(off + OFF_PARENT, 0);
        a.pwrite_u64(off + OFF_NEXT, 0);
        a.pwrite_u64(off + OFF_PERM_INCLL, DPerm::empty().raw());
        a.pwrite_u64(off + OFF_PERM, DPerm::empty().raw());
        a.pwrite_u64(off + OFF_INCLL1, val_incll::invalid(epoch as u16));
        a.pwrite_u64(off + OFF_INCLL2, val_incll::invalid(epoch as u16));
        // klenx words zeroed (slots are gated by the permutation, but keep
        // recycled-node debris out of debug dumps).
        a.pwrite_u64(off + OFF_KLENX, 0);
        a.pwrite_u64(off + OFF_KLENX + 8, 0);
        // Fresh node: `logged` set — a crash reverts the allocator and the
        // referencing pointer, so the node needs no pre-image this epoch.
        a.pwrite_u64_release(off + OFF_META, meta::with_epoch(mflags, epoch));
        Ok(off)
    }

    fn new_interior(
        &self,
        tid: usize,
        epoch: u64,
        is_root: bool,
        locked: bool,
    ) -> Result<u64, incll_palloc::Error> {
        let a = &self.inner.arena;
        let off = self
            .inner
            .alloc
            .alloc_aligned64_in(tid, self.shard_id, epoch, NODE_BYTES)?;
        let mut vflags = 0;
        let mut mflags = meta::LOGGED;
        if is_root {
            vflags |= pv::IS_ROOT;
            mflags |= meta::IS_ROOT;
        }
        pv::reinit(a, off, if locked { vflags | pv::LOCK } else { vflags });
        a.pwrite_u64(off + OFF_PARENT, 0);
        a.pwrite_u64(off + OFF_INT_NKEYS, 0);
        a.pwrite_u64_release(off + OFF_META, meta::with_epoch(mflags, epoch));
        Ok(off)
    }

    // ==================================================================
    // The InCLL engine (Listing 3)
    // ==================================================================

    /// Seals undo entries for `ranges` of a node into this shard's
    /// (thread, domain) buffer, tagged with the shard id, so the shard's
    /// recovery replays — and its boundary discards — exactly its own
    /// entries. `first`: this is the node's first capture of the epoch,
    /// which counts it as one logged node however many entries its
    /// regions take.
    ///
    /// The entries are **sealed before return**: callers publish a
    /// capture bit and mutate the node in place the moment this returns,
    /// and a crash may persist any dirty line of that mutation, so the
    /// pre-images must already be durable (write-ahead). The seal is one
    /// `clwb_range`+`sfence` over the slot's whole staged run — any batch
    /// intents staged ahead of these entries share its fence.
    fn log_ranges(&self, tid: usize, epoch: u64, ranges: &[(u64, usize)], first: bool) {
        self.inner
            .log
            .log_ranges_in(tid, self.shard_id, epoch, ranges, u64::from(first));
    }

    /// Captures every region of leaf `lf` (meta word `m`) this epoch has
    /// not captured yet — the whole leaf when `m` is from an older epoch —
    /// so that any part of it may change next; adjacent regions share one
    /// entry. The caller publishes `meta::LOGGED`.
    fn log_leaf(&self, tid: usize, epoch: u64, lf: u64, m: u64) {
        let captured = if meta::epoch(m) == epoch { m } else { 0 };
        // The callers checked `LOGGED`, so the head is always here: at most
        // the head (with line 3) and line 4 apart.
        let mut ranges = [(0u64, 0usize); 2];
        let mut n = 0;
        for (&(off, len), bit) in LEAF_REGIONS.iter().zip(meta::REGION_LOGGED) {
            if captured & bit != 0 {
                continue;
            }
            match ranges[..n].last_mut() {
                Some((start, l)) if *start + *l as u64 == lf + off => *l += len,
                _ => {
                    ranges[n] = (lf + off, len);
                    n += 1;
                }
            }
        }
        let first = captured & (meta::VAL1_LOGGED | meta::VAL2_LOGGED) == 0;
        self.log_ranges(tid, epoch, &ranges[..n], first);
    }

    /// `InCLL()` for permutation-only mutations (insert/remove).
    /// `allowed`: whether InCLLp may absorb this mutation when the node was
    /// already touched this epoch.
    fn incll_perm(&self, tid: usize, epoch: u64, lf: u64, allowed: bool) {
        let a = &self.inner.arena;
        let m = a.pread_u64(lf + OFF_META);
        if meta::epoch(m) != epoch {
            self.incll_new_epoch(tid, epoch, lf, m, None);
        } else if m & meta::LOGGED == 0 && !allowed {
            self.log_leaf(tid, epoch, lf, m);
            a.pwrite_u64_release(lf + OFF_META, m | meta::LOGGED);
        }
    }

    /// `InCLL()` for a value update of slot `idx` whose current value is
    /// `oldval`.
    fn incll_val(&self, tid: usize, epoch: u64, lf: u64, idx: usize, oldval: u64) {
        let a = &self.inner.arena;
        let m = a.pread_u64(lf + OFF_META);
        if meta::epoch(m) != epoch {
            self.incll_new_epoch(tid, epoch, lf, m, Some((idx, oldval)));
            return;
        }
        let region = val_region(idx);
        let line_logged = meta::REGION_LOGGED[region];
        if m & (meta::LOGGED | line_logged) != 0 {
            return;
        }
        let incll_off = lf + incll_for(idx);
        let w = a.pread_u64(incll_off);
        if val_incll::idx(w) == idx {
            // This slot's epoch-start value is already captured.
        } else if val_incll::idx(w) == val_incll::INVALID_IDX {
            // The line's log is free: take it. Ordered before the value
            // store by the same-line rule.
            a.pwrite_u64_release(incll_off, val_incll::pack(oldval, idx, epoch as u16));
            a.stats().add_incll_val();
        } else {
            // Two hot values in one cache line: fall back (§4.2) — to the
            // line alone. Its ValInCLL is inside the captured image, so
            // replay plus lazy recovery still restore the first value.
            let (off, len) = LEAF_REGIONS[region];
            let first = m & (meta::VAL1_LOGGED | meta::VAL2_LOGGED) == 0;
            self.log_ranges(tid, epoch, &[(lf + off, len)], first);
            a.pwrite_u64_release(lf + OFF_META, m | line_logged);
        }
    }

    /// First modification of the node in `epoch`: stamp all three in-line
    /// logs (or external-log the whole leaf on the 16-bit epoch-window
    /// wrap, §4.1.3), then advance `nodeEpoch`. Store order per line: log
    /// words first, epoch word second, caller's mutation third.
    fn incll_new_epoch(&self, tid: usize, epoch: u64, lf: u64, m: u64, vlog: Option<(usize, u64)>) {
        let a = &self.inner.arena;
        let node_epoch = meta::epoch(m);
        let mut logged = false;
        if !self.inner.incll_enabled || meta::high_window(epoch) != meta::high_window(node_epoch) {
            self.log_leaf(tid, epoch, lf, m);
            logged = true;
        }
        if !logged {
            a.pwrite_u64(lf + OFF_PERM_INCLL, a.pread_u64(lf + OFF_PERM));
            let low = epoch as u16;
            let (w1, w2) = match vlog {
                Some((idx, oldval)) if idx < 7 => {
                    (val_incll::pack(oldval, idx, low), val_incll::invalid(low))
                }
                Some((idx, oldval)) => (val_incll::invalid(low), val_incll::pack(oldval, idx, low)),
                None => (val_incll::invalid(low), val_incll::invalid(low)),
            };
            a.pwrite_u64(lf + OFF_INCLL1, w1);
            a.pwrite_u64(lf + OFF_INCLL2, w2);
            a.stats().add_incll_perm();
            if vlog.is_some() {
                a.stats().add_incll_val();
            }
        }
        let kind = m & (meta::IS_LEAF | meta::IS_ROOT);
        let flags = kind | meta::INS_ALLOWED | if logged { meta::LOGGED } else { 0 };
        a.pwrite_u64_release(lf + OFF_META, meta::with_epoch(flags, epoch));
    }

    /// Ensures a leaf is externally logged this epoch (split / conversion
    /// paths: subsequent modifications in the epoch are then free).
    fn ensure_leaf_logged(&self, tid: usize, epoch: u64, lf: u64) {
        let a = &self.inner.arena;
        let m = a.pread_u64(lf + OFF_META);
        if meta::epoch(m) == epoch && m & meta::LOGGED != 0 {
            return;
        }
        self.log_leaf(tid, epoch, lf, m);
        let kind = m & (meta::IS_LEAF | meta::IS_ROOT);
        a.pwrite_u64_release(
            lf + OFF_META,
            meta::with_epoch(kind | meta::INS_ALLOWED | meta::LOGGED, epoch),
        );
    }

    /// Externally logs a 16-byte root-holder cell at most once per epoch
    /// (the cell's second word tags the last logged epoch). At-most-once
    /// matters: replay applies entries in order, so a second entry would
    /// re-install a mid-epoch (doomed) root.
    fn log_holder(&self, tid: usize, epoch: u64, holder: u64) {
        let a = &self.inner.arena;
        if a.pread_u64(holder + 8) != epoch {
            self.log_ranges(tid, epoch, &[(holder, HOLDER_BYTES)], true);
            a.pwrite_u64_release(holder + 8, epoch);
        }
    }

    /// Ensures an interior node is externally logged this epoch — interior
    /// nodes have no InCLLs; this is their entire logging story (§4.2's
    /// per-node epoch check prevents duplicate logging).
    fn ensure_int_logged(&self, tid: usize, epoch: u64, node: u64) {
        let a = &self.inner.arena;
        let m = a.pread_u64(node + OFF_META);
        if meta::epoch(m) == epoch && m & meta::LOGGED != 0 {
            return;
        }
        a.stats().add_ext_interior();
        // Identical mechanics: an interior never sets a line bit, so its
        // regions coalesce into one whole-node entry — the 320-byte image
        // recovery re-derives child parent pointers from.
        self.ensure_leaf_logged(tid, epoch, node);
    }

    // ==================================================================
    // Lazy recovery (Listing 4)
    // ==================================================================

    /// Recovery check on every node access: nodes stamped before this
    /// shard's execution are repaired in place before use (against this
    /// shard's failed-epoch set — each shard rolls back to its own
    /// boundary).
    #[inline]
    pub(crate) fn maybe_recover(&self, node: u64) {
        let m = self.inner.arena.pread_u64(node + OFF_META);
        if meta::epoch(m) >= self.exec_epoch {
            return;
        }
        self.recover_node_slow(node);
    }

    #[cold]
    fn recover_node_slow(&self, node: u64) {
        let inner = &self.inner;
        let a = &inner.arena;
        let failed = &inner.failed[self.shard_id];
        let exec_epoch = self.exec_epoch;
        let _g = inner.rec_locks[(node as usize >> 6) % REC_LOCKS].lock();
        let m = a.pread_u64(node + OFF_META);
        let node_epoch = meta::epoch(m);
        if node_epoch >= exec_epoch {
            return; // someone else repaired it while we waited
        }
        let is_leaf = m & meta::IS_LEAF != 0;
        if is_leaf {
            // InCLLp: roll the permutation back to the epoch start.
            if failed.contains(&node_epoch) {
                let logged = a.pread_u64(node + OFF_PERM_INCLL);
                a.pwrite_u64(node + OFF_PERM, logged);
            }
            // Refresh the log to match the (possibly restored) current
            // value: the epoch bump below re-arms InCLLp for this epoch,
            // and its content must be the epoch-start value.
            let cur = a.pread_u64(node + OFF_PERM);
            a.pwrite_u64(node + OFF_PERM_INCLL, cur);

            // ValInCLLs: reconstruct each log's epoch from the node's
            // window; roll back and reset. Value restore precedes the
            // reset in the same line, so a re-crash replays idempotently.
            for incll in [OFF_INCLL1, OFF_INCLL2] {
                let w = a.pread_u64(node + incll);
                let idx = val_incll::idx(w);
                if idx != val_incll::INVALID_IDX && idx < LEAF_WIDTH {
                    let e = val_incll::full_epoch(w, node_epoch);
                    if failed.contains(&e) {
                        a.pwrite_u64(node + off_val(idx), val_incll::ptr(w));
                    }
                }
                a.pwrite_u64_release(node + incll, val_incll::invalid(exec_epoch as u16));
            }
            a.stats().add_lazy_recovered();
        }
        // The lock word may hold any torn garbage: reinitialise it from
        // the durable kind bits (`basenode::initlock()`).
        let mut vflags = 0;
        if is_leaf {
            vflags |= pv::IS_LEAF;
        }
        if m & meta::IS_ROOT != 0 {
            vflags |= pv::IS_ROOT;
        }
        pv::reinit(a, node, vflags);
        // Publish: stamping exec_epoch ends recovery for this node. Note
        // the refreshed InCLLp above makes this exactly equivalent to a
        // first-modification stamp in exec_epoch.
        let kind = m & (meta::IS_LEAF | meta::IS_ROOT);
        a.pwrite_u64_release(
            node + OFF_META,
            meta::with_epoch(kind | meta::INS_ALLOWED, exec_epoch),
        );
    }

    /// Eagerly lazy-recovers **every** leaf of this shard's tree (layer
    /// roots included) — the failed-epoch-set compaction sweep. Runs in
    /// the shard's pre-flush advance hook, with the shard's threads
    /// quiesced, so no pins or version validation are needed; after the
    /// checkpoint flush that follows, no durable node of this shard still
    /// references an old failed epoch and the shard's set can be pruned.
    pub(crate) fn sweep_recover(&self) {
        // SAFETY: quiesced advance context — this shard has no concurrent
        // mutators, and holders reachable from the root are live.
        unsafe { self.sweep_layer_quiesced(self.root_holder) }
    }

    unsafe fn sweep_layer_quiesced(&self, holder: u64) {
        unsafe {
            let a = &self.inner.arena;
            let mut n = a.pread_u64(holder);
            if n == 0 {
                return;
            }
            // Descend to the leftmost leaf, repairing interiors on the way.
            loop {
                self.maybe_recover(n);
                let m = a.pread_u64(n + OFF_META);
                if m & meta::IS_LEAF != 0 {
                    break;
                }
                let child = a.pread_u64(n + off_int_child(0));
                if child == 0 {
                    return;
                }
                n = child;
            }
            // Walk the leaf chain, recursing into sub-layers.
            let mut lf = n;
            loop {
                self.maybe_recover(lf);
                let perm = self.perm_of(lf);
                for pos in 0..perm.len() {
                    let slot = perm.slot_at(pos);
                    if self.klenx_at(lf, slot) == KLEN_LAYER {
                        // The slot's value is the sub-layer's holder cell.
                        self.sweep_layer_quiesced(a.pread_u64(lf + off_val(slot)));
                    }
                }
                let next = a.pread_u64(lf + OFF_NEXT);
                if next == 0 {
                    return;
                }
                lf = next;
            }
        }
    }

    // ==================================================================
    // Descent (mirrors the transient tree)
    // ==================================================================

    unsafe fn find_leaf(&self, holder: u64, ikey: u64) -> (u64, u64) {
        let a = &self.inner.arena;
        'retry: loop {
            let n0 = a.pread_u64_acquire(holder);
            self.maybe_recover(n0);
            let v0 = pv::stable(a, n0);
            if v0 & pv::IS_ROOT == 0 {
                std::hint::spin_loop();
                continue 'retry;
            }
            let mut n = n0;
            let mut v = v0;
            loop {
                if v & pv::IS_LEAF != 0 {
                    return (n, v);
                }
                let idx = self.route(n, ikey);
                let child = a.pread_u64_acquire(n + off_int_child(idx));
                if child == 0 {
                    continue 'retry;
                }
                self.maybe_recover(child);
                let vc = pv::stable(a, child);
                if pv::changed(v, pv::load(a, n)) {
                    continue 'retry;
                }
                n = child;
                v = vc;
            }
        }
    }

    fn route(&self, int: u64, ikey: u64) -> usize {
        let a = &self.inner.arena;
        let n = a.pread_u64_acquire(int + OFF_INT_NKEYS) as usize;
        let n = n.min(INT_WIDTH);
        let mut i = 0;
        while i < n && a.pread_u64_acquire(int + off_int_key(i)) <= ikey {
            i += 1;
        }
        i
    }

    fn klenx_at(&self, lf: u64, slot: usize) -> u8 {
        let word = self
            .inner
            .arena
            .pread_u64_acquire(lf + OFF_KLENX + ((slot as u64) / 8) * 8);
        (word >> ((slot % 8) * 8)) as u8
    }

    /// Writes `klenx[slot]` (leaf locked: exclusive writer).
    fn set_klenx(&self, lf: u64, slot: usize, klenx: u8) {
        let a = &self.inner.arena;
        let off = lf + OFF_KLENX + ((slot as u64) / 8) * 8;
        let shift = (slot % 8) * 8;
        let word = a.pread_u64(off);
        let new = (word & !(0xFFu64 << shift)) | ((klenx as u64) << shift);
        a.pwrite_u64_release(off, new);
    }

    fn perm_of(&self, lf: u64) -> DPerm {
        DPerm::from_raw(self.inner.arena.pread_u64_acquire(lf + OFF_PERM))
    }

    unsafe fn search_leaf(&self, lf: u64, ikey: u64, klenx: u8) -> Search {
        let a = &self.inner.arena;
        let perm = self.perm_of(lf);
        for pos in 0..perm.len() {
            let slot = perm.slot_at(pos);
            let k = a.pread_u64_acquire(lf + off_ikey(slot));
            let kl = self.klenx_at(lf, slot);
            match entry_cmp(k, kl, ikey, klenx) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => {
                    return Search::Found {
                        pos,
                        slot,
                        klenx: kl,
                        val: a.pread_u64_acquire(lf + off_val(slot)),
                    }
                }
                std::cmp::Ordering::Greater => return Search::NotFound { pos },
            }
        }
        Search::NotFound { pos: perm.len() }
    }

    unsafe fn entry_at(&self, lf: u64, pos: usize) -> (u64, u8, u64) {
        let a = &self.inner.arena;
        let slot = self.perm_of(lf).slot_at(pos);
        (
            a.pread_u64_acquire(lf + off_ikey(slot)),
            self.klenx_at(lf, slot),
            a.pread_u64_acquire(lf + off_val(slot)),
        )
    }

    // ==================================================================
    // get
    // ==================================================================

    unsafe fn get_inner<R>(
        &self,
        key: &[u8],
        mut read: impl FnMut(&PArena, u64) -> R,
    ) -> Option<R> {
        unsafe {
            let a = &self.inner.arena;
            let mut cur = KeyCursor::new(key);
            let mut holder = self.root_holder;
            'layer: loop {
                let ikey = cur.ikey();
                let target = search_klenx(&cur);
                'retry: loop {
                    let (lf, v) = self.find_leaf(holder, ikey);
                    enum Act {
                        Ret(Option<u64>),
                        Descend(u64),
                    }
                    let act = match self.search_leaf(lf, ikey, target) {
                        Search::Found { klenx, val, .. } => {
                            if klenx == KLEN_LAYER {
                                Act::Descend(val)
                            } else {
                                Act::Ret(Some(val))
                            }
                        }
                        Search::NotFound { pos } => {
                            if target == 8 && pos < self.perm_of(lf).len() {
                                let (k, kl, val) = self.entry_at(lf, pos);
                                if k == ikey && kl == KLEN_LAYER {
                                    Act::Descend(val)
                                } else {
                                    Act::Ret(None)
                                }
                            } else {
                                Act::Ret(None)
                            }
                        }
                    };
                    if pv::changed(v, pv::load(a, lf)) {
                        continue 'retry;
                    }
                    match act {
                        Act::Ret(Some(buf)) => return Some(read(a, buf)),
                        Act::Ret(None) => return None,
                        Act::Descend(h) => {
                            holder = h;
                            cur.descend();
                            continue 'layer;
                        }
                    }
                }
            }
        }
    }

    // ==================================================================
    // put
    // ==================================================================

    fn moved_since(before: u64, now: u64) -> bool {
        const VSPLIT_MASK: u64 = !((1u64 << 36) - 1);
        (before ^ now) & (VSPLIT_MASK | pv::DELETED) != 0
    }

    /// Allocates a fresh length-prefixed value buffer holding `data`.
    fn new_value_buf(&self, tid: usize, epoch: u64, data: &[u8]) -> Result<u64, Error> {
        let buf =
            self.inner
                .alloc
                .alloc_in(tid, self.shard_id, epoch, value_buf_size(data.len()))?;
        // Plain stores, no flush: the checkpoint flush persists contents,
        // and a crash reverts both the buffer and every reference (§5).
        self.inner.arena.pwrite_u64(buf, data.len() as u64);
        self.inner.arena.pwrite_bytes(buf + 8, data);
        Ok(buf)
    }

    /// Returns a value buffer to the allocator. The stored length prefix
    /// names the size class; it is intact for any live buffer (the §5 EBR
    /// argument: buffers referenced at a boundary are never overwritten
    /// during the following epoch).
    fn free_value_buf(&self, tid: usize, epoch: u64, buf: u64) {
        let len = self.inner.arena.pread_u64(buf) as usize;
        self.inner
            .alloc
            .free_in(tid, self.shard_id, epoch, buf, value_buf_size(len));
    }

    unsafe fn put_inner<R>(
        &self,
        ctx: &DCtx,
        epoch: u64,
        key: &[u8],
        val: &[u8],
        prealloc: &mut Option<u64>,
        read_old: impl Fn(&PArena, u64) -> R,
    ) -> Result<Option<R>, Error> {
        // Allocation failures below must release the held leaf lock before
        // surfacing, or the leaf would be stuck locked forever.
        macro_rules! alloc_or_unlock {
            ($a:expr, $lf:expr, $alloc:expr) => {
                match $alloc {
                    Ok(off) => off,
                    Err(e) => {
                        pv::unlock($a, $lf, false, false);
                        return Err(e.into());
                    }
                }
            };
        }
        unsafe {
            let a = &self.inner.arena;
            let tid = ctx.tid;
            let mut cur = KeyCursor::new(key);
            let mut holder = self.root_holder;
            'layer: loop {
                let ikey = cur.ikey();
                let target = search_klenx(&cur);
                'retry: loop {
                    let (lf, v) = self.find_leaf(holder, ikey);

                    if target == KLEN_LAYER {
                        if let Search::Found { val: h, .. } = self.search_leaf(lf, ikey, KLEN_LAYER)
                        {
                            if pv::changed(v, pv::load(a, lf)) {
                                continue 'retry;
                            }
                            holder = h;
                            cur.descend();
                            continue 'layer;
                        }
                    }

                    let lv = pv::lock(a, lf);
                    if Self::moved_since(v, lv) {
                        pv::unlock(a, lf, false, false);
                        continue 'retry;
                    }

                    match self.search_leaf(lf, ikey, target) {
                        Search::Found {
                            slot,
                            klenx,
                            val: old,
                            ..
                        } => {
                            if klenx == KLEN_LAYER {
                                pv::unlock(a, lf, false, false);
                                holder = old;
                                cur.descend();
                                continue 'layer;
                            }
                            // Update: InCLL-log the old pointer, then swap.
                            let nb = match prealloc.take() {
                                Some(b) => b,
                                None => {
                                    alloc_or_unlock!(a, lf, self.new_value_buf(tid, epoch, val))
                                }
                            };
                            self.incll_val(tid, epoch, lf, slot, old);
                            a.pwrite_u64_release(lf + off_val(slot), nb);
                            pv::unlock(a, lf, false, false);
                            let old_payload = read_old(a, old);
                            self.free_value_buf(tid, epoch, old);
                            return Ok(Some(old_payload));
                        }
                        Search::NotFound { pos } => {
                            if target == 8 && pos < self.perm_of(lf).len() {
                                let (k, kl, h) = self.entry_at(lf, pos);
                                if k == ikey && kl == KLEN_LAYER {
                                    pv::unlock(a, lf, false, false);
                                    holder = h;
                                    cur.descend();
                                    continue 'layer;
                                }
                            }
                            if target == KLEN_LAYER {
                                // Terminal-8 conversion: complex op → external
                                // log the node, then swing the slot to a layer.
                                if pos > 0 {
                                    let (k, kl, old) = self.entry_at(lf, pos - 1);
                                    if k == ikey && kl == 8 {
                                        let slot = self.perm_of(lf).slot_at(pos - 1);
                                        let h = alloc_or_unlock!(
                                            a,
                                            lf,
                                            self.new_layer_with(tid, epoch, 0, 0, old)
                                        );
                                        self.ensure_leaf_logged(tid, epoch, lf);
                                        pv::mark_dirty(a, lf, pv::DIRTY_INSERT);
                                        a.pwrite_u64_release(lf + off_val(slot), h);
                                        self.set_klenx(lf, slot, KLEN_LAYER);
                                        pv::unlock(a, lf, true, false);
                                        holder = h;
                                        cur.descend();
                                        continue 'layer;
                                    }
                                }
                                let mut sub = cur;
                                sub.descend();
                                let h = alloc_or_unlock!(
                                    a,
                                    lf,
                                    self.build_layer_chain(tid, epoch, sub, val, prealloc)
                                );
                                self.insert_entry(ctx, epoch, holder, lf, pos, ikey, KLEN_LAYER, h);
                                return Ok(None);
                            }
                            let nb = match prealloc.take() {
                                Some(b) => b,
                                None => {
                                    alloc_or_unlock!(a, lf, self.new_value_buf(tid, epoch, val))
                                }
                            };
                            self.insert_entry(ctx, epoch, holder, lf, pos, ikey, target, nb);
                            return Ok(None);
                        }
                    }
                }
            }
        }
    }

    /// Builds a single-entry sub-layer; returns the holder-cell offset.
    fn new_layer_with(
        &self,
        tid: usize,
        epoch: u64,
        ikey: u64,
        klenx: u8,
        val: u64,
    ) -> Result<u64, incll_palloc::Error> {
        let a = &self.inner.arena;
        let leaf = self.new_leaf(tid, epoch, /*is_root*/ true, /*locked*/ false)?;
        let mut perm = DPerm::empty();
        let slot = perm.insert_at(0);
        a.pwrite_u64(leaf + off_ikey(slot), ikey);
        self.set_klenx(leaf, slot, klenx);
        a.pwrite_u64(leaf + off_val(slot), val);
        a.pwrite_u64_release(leaf + OFF_PERM, perm.raw());
        let holder = self
            .inner
            .alloc
            .alloc_in(tid, self.shard_id, epoch, HOLDER_BYTES)?;
        a.pwrite_u64(holder, leaf);
        // Fresh holder: tag it as already logged this epoch (a crash
        // reverts the whole allocation, so no pre-image is needed).
        a.pwrite_u64_release(holder + 8, epoch);
        Ok(holder)
    }

    unsafe fn build_layer_chain(
        &self,
        tid: usize,
        epoch: u64,
        cur: KeyCursor<'_>,
        val: &[u8],
        prealloc: &mut Option<u64>,
    ) -> Result<u64, Error> {
        unsafe {
            if cur.is_terminal() {
                let buf = match prealloc.take() {
                    Some(b) => b,
                    None => self.new_value_buf(tid, epoch, val)?,
                };
                Ok(self.new_layer_with(tid, epoch, cur.ikey(), cur.klen(), buf)?)
            } else {
                let mut sub = cur;
                sub.descend();
                let inner = self.build_layer_chain(tid, epoch, sub, val, prealloc)?;
                Ok(self.new_layer_with(tid, epoch, cur.ikey(), KLEN_LAYER, inner)?)
            }
        }
    }

    // ==================================================================
    // remove
    // ==================================================================

    unsafe fn remove_inner(&self, ctx: &DCtx, epoch: u64, key: &[u8]) -> bool {
        unsafe {
            let a = &self.inner.arena;
            let tid = ctx.tid;
            let mut cur = KeyCursor::new(key);
            let mut holder = self.root_holder;
            'layer: loop {
                let ikey = cur.ikey();
                let target = search_klenx(&cur);
                'retry: loop {
                    let (lf, v) = self.find_leaf(holder, ikey);
                    let lv = pv::lock(a, lf);
                    if Self::moved_since(v, lv) {
                        pv::unlock(a, lf, false, false);
                        continue 'retry;
                    }
                    match self.search_leaf(lf, ikey, target) {
                        Search::Found {
                            pos, klenx, val, ..
                        } => {
                            if klenx == KLEN_LAYER {
                                pv::unlock(a, lf, false, false);
                                holder = val;
                                cur.descend();
                                continue 'layer;
                            }
                            // InCLLp absorbs pure removals; afterwards,
                            // insertions into this node must external-log
                            // (remove-then-insert hazard, §4.1.1).
                            self.incll_perm(tid, epoch, lf, true);
                            let m = a.pread_u64(lf + OFF_META);
                            a.pwrite_u64_release(lf + OFF_META, m & !meta::INS_ALLOWED);
                            pv::mark_dirty(a, lf, pv::DIRTY_INSERT);
                            let mut perm = self.perm_of(lf);
                            perm.remove_at(pos);
                            a.pwrite_u64_release(lf + OFF_PERM, perm.raw());
                            pv::unlock(a, lf, true, false);
                            self.free_value_buf(tid, epoch, val);
                            return true;
                        }
                        Search::NotFound { pos } => {
                            if target == 8 && pos < self.perm_of(lf).len() {
                                let (k, kl, h) = self.entry_at(lf, pos);
                                if k == ikey && kl == KLEN_LAYER {
                                    pv::unlock(a, lf, false, false);
                                    holder = h;
                                    cur.descend();
                                    continue 'layer;
                                }
                            }
                            pv::unlock(a, lf, false, false);
                            return false;
                        }
                    }
                }
            }
        }
    }

    // ==================================================================
    // insert + splits
    // ==================================================================

    #[allow(clippy::too_many_arguments)] // one flat hot-path call, no natural struct
    unsafe fn insert_entry(
        &self,
        ctx: &DCtx,
        epoch: u64,
        holder: u64,
        lf: u64,
        pos: usize,
        ikey: u64,
        klenx: u8,
        val: u64,
    ) {
        unsafe {
            let a = &self.inner.arena;
            let tid = ctx.tid;
            let mut perm = self.perm_of(lf);
            if !perm.is_full() {
                let allowed = a.pread_u64(lf + OFF_META) & meta::INS_ALLOWED != 0;
                self.incll_perm(tid, epoch, lf, allowed);
                pv::mark_dirty(a, lf, pv::DIRTY_INSERT);
                let slot = perm.insert_at(pos);
                a.pwrite_u64(lf + off_ikey(slot), ikey);
                self.set_klenx(lf, slot, klenx);
                a.pwrite_u64(lf + off_val(slot), val);
                a.pwrite_u64_release(lf + OFF_PERM, perm.raw());
                pv::unlock(a, lf, true, false);
                return;
            }

            let (right, sep) = self.split_leaf(ctx, epoch, holder, lf);
            let target = if ikey < sep { lf } else { right };
            let tpos = match self.search_leaf(target, ikey, klenx) {
                Search::NotFound { pos } => pos,
                Search::Found { .. } => unreachable!("key appeared during split"),
            };
            let mut tperm = self.perm_of(target);
            pv::mark_dirty(a, target, pv::DIRTY_INSERT);
            let slot = tperm.insert_at(tpos);
            a.pwrite_u64(target + off_ikey(slot), ikey);
            self.set_klenx(target, slot, klenx);
            a.pwrite_u64(target + off_val(slot), val);
            a.pwrite_u64_release(target + OFF_PERM, tperm.raw());

            let left_was_target = target == lf;
            pv::unlock(a, lf, left_was_target, true);
            pv::unlock(a, right, !left_was_target, false);
        }
    }

    /// Splits the locked, full leaf (external-logged first: splits are the
    /// "complex modification" case, §4.2). Both halves stay locked.
    unsafe fn split_leaf(&self, ctx: &DCtx, epoch: u64, holder: u64, lf: u64) -> (u64, u64) {
        unsafe {
            let a = &self.inner.arena;
            let tid = ctx.tid;
            self.ensure_leaf_logged(tid, epoch, lf);
            pv::mark_dirty(a, lf, pv::DIRTY_SPLIT);
            let perm = self.perm_of(lf);
            let count = perm.len();
            debug_assert!(perm.is_full());

            let ikey_at = |p: usize| a.pread_u64(lf + off_ikey(perm.slot_at(p)));
            let mid = count / 2 + 1;
            let mut split_pos = None;
            for delta in 0..count {
                for cand in [mid.saturating_sub(delta), mid + delta] {
                    if cand >= 1 && cand < count && ikey_at(cand - 1) != ikey_at(cand) {
                        split_pos = Some(cand);
                        break;
                    }
                }
                if split_pos.is_some() {
                    break;
                }
            }
            let p = split_pos.expect("a full leaf holds at least two distinct ikeys");

            let right = self
                .new_leaf(tid, epoch, /*is_root*/ false, /*locked*/ true)
                .expect("arena full");
            let mut rperm = DPerm::empty();
            for (j, posn) in (p..count).enumerate() {
                let slot = perm.slot_at(posn);
                let rslot = rperm.insert_at(j);
                a.pwrite_u64(right + off_ikey(rslot), a.pread_u64(lf + off_ikey(slot)));
                self.set_klenx(right, rslot, self.klenx_at(lf, slot));
                a.pwrite_u64(right + off_val(rslot), a.pread_u64(lf + off_val(slot)));
            }
            a.pwrite_u64_release(right + OFF_PERM, rperm.raw());
            let sep = a.pread_u64(right + off_ikey(rperm.slot_at(0)));
            a.pwrite_u64(right + OFF_NEXT, a.pread_u64(lf + OFF_NEXT));
            a.pwrite_u64(right + OFF_PARENT, a.pread_u64(lf + OFF_PARENT));
            a.pwrite_u64_release(lf + OFF_NEXT, right);
            a.pwrite_u64_release(lf + OFF_PERM, perm.truncated(p).raw());

            self.insert_upward(ctx, epoch, holder, lf, right, sep);
            (right, sep)
        }
    }

    unsafe fn insert_upward(
        &self,
        ctx: &DCtx,
        epoch: u64,
        holder: u64,
        left: u64,
        right: u64,
        sep: u64,
    ) {
        unsafe {
            let a = &self.inner.arena;
            let tid = ctx.tid;
            loop {
                let p = a.pread_u64_acquire(left + OFF_PARENT);
                if p == 0 {
                    // Layer-root split: grow an interior root and swing the
                    // holder (both external-logged; the holder is tiny but
                    // must revert with everything else).
                    let nr = self
                        .new_interior(tid, epoch, /*is_root*/ true, /*locked*/ false)
                        .expect("arena full");
                    a.pwrite_u64(nr + off_int_key(0), sep);
                    a.pwrite_u64(nr + off_int_child(0), left);
                    a.pwrite_u64(nr + off_int_child(1), right);
                    a.pwrite_u64_release(nr + OFF_INT_NKEYS, 1);
                    a.pwrite_u64_release(left + OFF_PARENT, nr);
                    a.pwrite_u64_release(right + OFF_PARENT, nr);
                    self.log_holder(tid, epoch, holder);
                    a.pwrite_u64_release(holder, nr);
                    // Demote `left` (logged above by its split path): durable
                    // root bit then transient flag.
                    let m = a.pread_u64(left + OFF_META);
                    a.pwrite_u64_release(left + OFF_META, m & !meta::IS_ROOT);
                    pv::set_flag(a, left, pv::IS_ROOT, false);
                    return;
                }
                self.maybe_recover(p);
                pv::lock(a, p);
                if a.pread_u64_acquire(left + OFF_PARENT) != p {
                    pv::unlock(a, p, false, false);
                    continue;
                }
                let n = a.pread_u64(p + OFF_INT_NKEYS) as usize;
                if n < INT_WIDTH {
                    self.ensure_int_logged(tid, epoch, p);
                    self.interior_insert(p, sep, right);
                    pv::unlock(a, p, true, false);
                    return;
                }
                let (pr, psep) = self.split_interior(ctx, epoch, holder, p);
                let target = if sep < psep { p } else { pr };
                self.interior_insert(target, sep, right);
                pv::unlock(a, p, target == p, true);
                pv::unlock(a, pr, target == pr, false);
                return;
            }
        }
    }

    unsafe fn interior_insert(&self, pi: u64, sep: u64, right: u64) {
        let a = &self.inner.arena;
        pv::mark_dirty(a, pi, pv::DIRTY_INSERT);
        let n = a.pread_u64(pi + OFF_INT_NKEYS) as usize;
        let mut idx = 0;
        while idx < n && a.pread_u64(pi + off_int_key(idx)) < sep {
            idx += 1;
        }
        let mut j = n;
        while j > idx {
            a.pwrite_u64(pi + off_int_key(j), a.pread_u64(pi + off_int_key(j - 1)));
            a.pwrite_u64(
                pi + off_int_child(j + 1),
                a.pread_u64(pi + off_int_child(j)),
            );
            j -= 1;
        }
        a.pwrite_u64(pi + off_int_key(idx), sep);
        a.pwrite_u64(pi + off_int_child(idx + 1), right);
        a.pwrite_u64_release(pi + OFF_INT_NKEYS, n as u64 + 1);
        a.pwrite_u64_release(right + OFF_PARENT, pi);
    }

    unsafe fn split_interior(&self, ctx: &DCtx, epoch: u64, holder: u64, p: u64) -> (u64, u64) {
        unsafe {
            let a = &self.inner.arena;
            let tid = ctx.tid;
            self.ensure_int_logged(tid, epoch, p);
            pv::mark_dirty(a, p, pv::DIRTY_SPLIT);
            let n = a.pread_u64(p + OFF_INT_NKEYS) as usize;
            debug_assert_eq!(n, INT_WIDTH);
            let mid = n / 2;
            let psep = a.pread_u64(p + off_int_key(mid));

            let r = self
                .new_interior(tid, epoch, /*is_root*/ false, /*locked*/ true)
                .expect("arena full");
            let rcount = n - mid - 1;
            for j in 0..rcount {
                a.pwrite_u64(
                    r + off_int_key(j),
                    a.pread_u64(p + off_int_key(mid + 1 + j)),
                );
            }
            for j in 0..=rcount {
                let child = a.pread_u64(p + off_int_child(mid + 1 + j));
                a.pwrite_u64(r + off_int_child(j), child);
                // The move of the child's parent word is NOT logged here:
                // recovery re-derives every parent pointer from the restored
                // interior images (see `recovery.rs`), which both avoids
                // racing the (unlocked) child's own logging and keeps each
                // log target single-entry.
                self.maybe_recover(child);
                pv_store_parent(a, child, r);
            }
            a.pwrite_u64_release(r + OFF_INT_NKEYS, rcount as u64);
            a.pwrite_u64(r + OFF_PARENT, a.pread_u64(p + OFF_PARENT));
            a.pwrite_u64_release(p + OFF_INT_NKEYS, mid as u64);

            self.insert_upward(ctx, epoch, holder, p, r, psep);
            (r, psep)
        }
    }

    // ==================================================================
    // scan
    // ==================================================================

    unsafe fn scan_layer(
        &self,
        holder: u64,
        start: Option<KeyCursor<'_>>,
        prefix: &mut Vec<u8>,
        remaining: &mut usize,
        f: &mut dyn FnMut(&[u8], u64),
    ) -> bool {
        unsafe {
            let a = &self.inner.arena;
            let start_ikey = start.map(|c| c.ikey()).unwrap_or(0);
            let (mut lf, _) = self.find_leaf(holder, start_ikey);
            let mut first = true;
            loop {
                self.maybe_recover(lf);
                let mut entries: Vec<(u64, u8, u64)> = Vec::with_capacity(LEAF_WIDTH);
                let next;
                loop {
                    entries.clear();
                    let v = pv::stable(a, lf);
                    let perm = self.perm_of(lf);
                    for pos in 0..perm.len() {
                        let slot = perm.slot_at(pos);
                        entries.push((
                            a.pread_u64_acquire(lf + off_ikey(slot)),
                            self.klenx_at(lf, slot),
                            a.pread_u64_acquire(lf + off_val(slot)),
                        ));
                    }
                    let nx = a.pread_u64_acquire(lf + OFF_NEXT);
                    if !pv::changed(v, pv::load(a, lf)) {
                        next = nx;
                        break;
                    }
                }
                for &(k, kl, val) in &entries {
                    if first {
                        if let Some(sc) = start {
                            let skl = search_klenx(&sc);
                            match entry_cmp(k, kl, sc.ikey(), skl) {
                                std::cmp::Ordering::Less => continue,
                                std::cmp::Ordering::Equal
                                    if kl == KLEN_LAYER && !sc.is_terminal() =>
                                {
                                    let mut sub = sc;
                                    sub.descend();
                                    prefix.extend_from_slice(&k.to_be_bytes());
                                    let go = self.scan_layer(val, Some(sub), prefix, remaining, f);
                                    prefix.truncate(prefix.len() - 8);
                                    if !go {
                                        return false;
                                    }
                                    continue;
                                }
                                _ => {}
                            }
                        }
                    }
                    if kl == KLEN_LAYER {
                        prefix.extend_from_slice(&k.to_be_bytes());
                        let go = self.scan_layer(val, None, prefix, remaining, f);
                        prefix.truncate(prefix.len() - 8);
                        if !go {
                            return false;
                        }
                    } else {
                        let keylen = prefix.len() + kl as usize;
                        prefix.extend_from_slice(&ikey_bytes(k, kl));
                        f(&prefix[..keylen], val);
                        prefix.truncate(keylen - kl as usize);
                        *remaining -= 1;
                        if *remaining == 0 {
                            return false;
                        }
                    }
                }
                first = false;
                if next == 0 {
                    return true;
                }
                lf = next;
            }
        }
    }
}

/// Stores a node's parent word (helper shared by split paths).
fn pv_store_parent(a: &PArena, node: u64, parent: u64) {
    a.pwrite_u64_release(node + OFF_PARENT, parent);
}

/// FNV-1a 64 of `bytes`: the **routing hash**. It belongs to
/// [`shard_of`] alone — the external log seals its entries with its own
/// checksum — so speeding up one can never silently re-route every key.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Routes a key to one of `shards` (power-of-two) keyspace shards: FNV-1a
/// 64 over the key bytes, masked. Part of the on-media contract — the
/// same key must route identically across restarts.
#[inline]
pub(crate) fn shard_of(key: &[u8], shards: usize) -> usize {
    if shards <= 1 {
        0
    } else {
        (fnv1a64(key) as usize) & (shards - 1)
    }
}

// ======================================================================
// Value-buffer codec (`[len: u64][payload bytes]`, size-classed)
// ======================================================================

/// Allocation size for a value of `len` bytes: length prefix + payload,
/// floored at the paper's 32-byte buffer so small values keep the §6
/// regime.
#[inline]
fn value_buf_size(len: usize) -> usize {
    (8 + len).max(VALUE_BUF_BYTES)
}

/// Reads a buffer's payload as the `u64` convenience encoding
/// (little-endian, written by [`DurableMasstree::put`]).
#[inline]
fn read_value_u64(a: &PArena, buf: u64) -> u64 {
    u64::from_le(a.pread_u64(buf + 8))
}

/// Copies a buffer's payload out.
pub(crate) fn read_value_bytes(a: &PArena, buf: u64) -> Vec<u8> {
    let len = a.pread_u64(buf) as usize;
    debug_assert!(len <= MAX_VALUE_BYTES, "corrupt value-buffer length");
    let mut out = vec![0u8; len];
    a.pread_bytes(buf + 8, &mut out);
    out
}

impl std::fmt::Debug for DurableMasstree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableMasstree")
            .field("exec_epoch", &self.exec_epoch)
            .field("incll_enabled", &self.inner.incll_enabled)
            .field("failed_epochs", &self.inner.failed[self.shard_id].len())
            .field("shard", &self.shard_id)
            .field("shard_count", &self.inner.shard_count)
            .finish()
    }
}

// Keep AtomicU64 import alive for the doc examples in lib.rs.
#[allow(unused)]
type _A = AtomicU64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_hash_is_fnv1a64() {
        // Reference-table vectors: the routing hash is an on-media
        // contract and must stay FNV-1a 64 bit for bit.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(shard_of(b"a", 8), 4);
        assert_eq!(shard_of(b"a", 1), 0);
    }
}
