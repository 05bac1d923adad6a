//! The durable Masstree: fine-grain checkpointing + in-cache-line logging.
//!
//! The tree is the one Masstree algorithm of `incll_masstree::tree` —
//! descent, splits, layer conversion, remove, scan and the version lock —
//! instantiated over this shard's nodes in the arena (the
//! [`NodeStore`] impl at the end of this file): the paper's Fig. 1 layout
//! ([`crate::layout`]), every load, store and CAS through [`PArena`], and
//! the logging discipline as the algorithm's hooks, each called before the
//! store it guards. This file keeps what is durable: the InCLL engine
//! behind the hooks, the external-log captures, lazy recovery and the
//! failed-epoch sweep, the value-buffer codec and the log-room rule.
//!
//! Every *durable mutation* runs the paper's logging discipline:
//!
//! * permutation changes (insert/remove) are guarded by `InCLLp`
//!   (Listing 3) — one same-cache-line log write, no flush. Removes are
//!   always covered; an insert is covered when its slot was free at
//!   epoch start (the slot it takes is chosen so), and only an insert
//!   whose every free slot held a key at epoch start falls back below;
//! * value updates are guarded by `ValInCLL1/2` (§4.1.3) — ditto. A slot
//!   free at epoch start needs no undo at all; a second hot value in one
//!   line moves its key into such a slot, a permutation change `InCLLp`
//!   covers like an insert, and only a leaf with none left falls back;
//! * splits, layer conversions, root swings and every interior-node
//!   modification go through the external undo log (§4.2): entry → `clwb`
//!   → `sfence` → mutate;
//! * a leaf goes to the external log one region at a time (head, value
//!   line 3, value line 4; see [`crate::layout`]): a second hot value with
//!   no slot to move to captures its 64-byte line, a change the in-line
//!   logs cannot absorb captures the regions still missing, and a
//!   captured region needs no further logging for the rest of the epoch
//!   (the `logged` bits).
//!
//! With `incll_enabled == false` the tree runs in the paper's **LOGGING**
//! configuration (Figs. 7–8): the in-line logs are bypassed and every
//! node's first modification per epoch external-logs it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use incll_epoch::{EpochManager, EpochOptions, Guard, ThreadHandle};
use incll_extlog::ExtLog;
use incll_masstree::key::KLEN_LAYER;
use incll_masstree::tree::NodeStore;
use incll_masstree::version::{IS_LEAF, IS_ROOT, LOCK};
use incll_palloc::{PAlloc, HEADER_BYTES};
use incll_pmem::{superblock, FlushDomainScope, PArena};

use crate::error::{Error, MAX_VALUE_BYTES};
use crate::layout::{
    incll_for, meta, off_ikey, off_int_child, off_int_key, off_val, val_incll, val_region, DPerm,
    INT_WIDTH, LEAF_REGIONS, LEAF_WIDTH, NODE_BYTES, OFF_INCLL1, OFF_INCLL2, OFF_INT_NKEYS,
    OFF_KLENX, OFF_META, OFF_NEXT, OFF_PARENT, OFF_PERM, OFF_PERM_INCLL, OFF_VERSION,
};

/// Smallest durable value object, allocator header included (paper §6:
/// 32-byte buffers).
///
/// Every value buffer is length-prefixed (`[len: u64][payload bytes]`) and
/// allocated from the size class fitting `8 + len`, floored at the 16-byte
/// class — so a value of up to 8 bytes (a `u64`) lives in one 32-byte,
/// 32-aligned object: the 16-byte header, the length and the payload on
/// one cache line, the paper's buffer and what the MT+ pool spends.
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
    /// External-log capacity per thread, in bytes: a cap, of which each
    /// buffer claims pool extents only as it is written. Size for the
    /// worst-case logged nodes per epoch (§6.3 measures 84 K nodes ≈ 30 MB
    /// on a write-heavy 1 M-key tree).
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
    /// Defaults to [`std::thread::available_parallelism`] (1 where that
    /// is unknown).
    pub recovery_threads: usize,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            threads: 8,
            log_bytes_per_thread: 16 << 20,
            incll_enabled: true,
            shards: 1,
            recovery_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
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
    /// while the guard lives (the batch fast path holds one across every
    /// op of a single-shard batch so all of them land in one epoch).
    pub fn pin_shard(&self, shard: usize) -> Guard<'_> {
        self.handle.pin_on(shard)
    }

    /// Pins every shard named by `mask`, in ascending shard order (the
    /// batch-commit pin set; see `crate::batch`).
    pub(crate) fn pin_shards(&self, mask: u64) -> Vec<Guard<'_>> {
        self.handle.pin_mask(mask)
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
/// The pin ([`incll_epoch::ThreadHandle::pin_on`]) writes no log-buffer
/// or arena byte, so holding a view briefly is free — but holding one
/// across long pauses delays that one shard's checkpoints, exactly like
/// an open transaction. Drop the view before blocking.
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
pub struct ValueRef<'s> {
    arena: &'s PArena,
    /// Offset of the `[len: u64][payload]` value buffer.
    buf: u64,
    len: usize,
    pin: Guard<'s>,
}

impl<'s> ValueRef<'s> {
    /// Decodes the payload as the `u64` convenience encoding
    /// (little-endian, as written by [`crate::Store::put_u64`]): its
    /// first 8 bytes, a shorter payload zero-extended. Never reads past
    /// the payload's length, so a short value never shows the bytes a
    /// recycled buffer held before.
    pub fn as_u64(&self) -> u64 {
        let mut word = [0u8; 8];
        let n = self.len.min(8);
        word[..n].copy_from_slice(&self[..n]);
        u64::from_le_bytes(word)
    }

    /// Copies the payload out (the escape hatch back to owned data; this
    /// is exactly what the allocating `get` does).
    pub fn to_vec(&self) -> Vec<u8> {
        (**self).to_vec()
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
        // per shard: every shard checkpoints on its own timeline. The
        // allocator turns all carvable space into the extent pool, and
        // the log cuts its buffers' segments from extents of that pool:
        // one per shard now, more as buffers grow.
        let mgr = EpochManager::with_domains(arena.clone(), EpochOptions::durable(), config.shards);
        let alloc = PAlloc::create_sharded(arena, config.threads, config.shards)?;
        let log = ExtLog::create_in_pool(
            arena,
            config.threads,
            config.log_bytes_per_thread,
            config.shards,
            alloc.extent_pool().1,
            |shard| alloc.claim_log_extent(shard),
        )?;
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
            let root = tree.new_leaf((0, epoch), /*is_root*/ true, /*locked*/ false)?;
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
                        // logged pre-images obsolete: the buffers start
                        // again, each in its first segment.
                        inner.log.reset_domain(d);
                        // So a single op, which reserves its room before
                        // it pins, still fits however a boundary between
                        // the two trimmed its buffer.
                        debug_assert!((0..inner.alloc.threads()).all(|t| {
                            inner
                                .log
                                .has_room(t, d, OP_UNDO_BOUND.min(inner.log.slot_capacity()))
                        }));
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

    /// Pins this handle's shard domain and enters its flush scope: ops
    /// on shard `s` stall only behind shard `s`'s advances, and every
    /// write they make — a put's or remove's, or a lazy-recovery repair
    /// on the read path — is covered by shard `s`'s scoped checkpoint
    /// flush.
    #[inline]
    fn enter<'c>(&self, ctx: &'c DCtx) -> (Guard<'c>, FlushDomainScope) {
        (
            ctx.handle.pin_on(self.shard_id),
            FlushDomainScope::enter(self.shard_id as u16),
        )
    }

    /// The log-room rule, the one byte-driven epoch trigger: before a
    /// write takes its pin on this shard, `ctx`'s log buffer for the shard
    /// must have `need` bytes of room, and when it has not, the shard is
    /// forced over an epoch boundary (which empties every one of its
    /// buffers). Log space is reclaimed nowhere else, so a write that
    /// passes this cannot overrun the buffer within its reservation. The
    /// reservation also gives the buffer the segments that room needs
    /// ([`ExtLog::grow`]: segments the shard's boundaries returned first,
    /// then fresh ones, else a fresh log extent claimed from the pool),
    /// populated, so the write's appends meet no page fault under its
    /// pin. The fast path is two relaxed loads from the slot's own line
    /// (cursor and room) and one compare, with nothing locked.
    ///
    /// A boundary returns every buffer's segments past its first, and the
    /// shard claims a fresh extent only while its log's segments stay
    /// under one buffer's cap plus one segment per slot
    /// ([`ExtLog::held_bound`]). Past that a writer forces the boundary
    /// and takes the segments it returned. A writer holding a pin cannot
    /// force one, so it claims past the bound instead.
    ///
    /// A boundary between this reservation and the write's pin may trim
    /// the buffer back to its first segment with its cursor at 0. A
    /// segment holds at least [`OP_UNDO_BOUND`] unless the whole buffer
    /// is smaller, so a single op still fits; a batch commit, which may
    /// need more, checks its room again under its pins.
    ///
    /// When the pool has no extent left, the buffer makes do with the
    /// segments it holds: the shard is forced over a boundary and the
    /// write starts the buffer again.
    ///
    /// # Errors
    ///
    /// [`Error::BatchExceedsLog`] when `need` exceeds an empty buffer;
    /// [`Error::Pmem`]`(OutOfMemory)` when the pool is full and `need`
    /// exceeds the segments an emptied buffer holds;
    /// [`Error::SessionPinned`] when a boundary is due while `ctx` holds a
    /// pin on any shard — the boundary would wait for that pin forever,
    /// and two writers each pinned on the other's shard would deadlock.
    /// None of these writes anything.
    #[inline]
    pub(crate) fn reserve_log_room(&self, ctx: &DCtx, need: u64) -> Result<(), Error> {
        if self.has_log_room(ctx, need) {
            return Ok(());
        }
        self.extend_log_room(ctx, need)
    }

    /// Whether `ctx`'s log buffer for this shard has `need` bytes of room
    /// now ([`ExtLog::has_room`]).
    #[inline]
    pub(crate) fn has_log_room(&self, ctx: &DCtx, need: u64) -> bool {
        self.inner.log.has_room(ctx.tid, self.shard_id, need)
    }

    #[cold]
    fn extend_log_room(&self, ctx: &DCtx, need: u64) -> Result<(), Error> {
        let log = &self.inner.log;
        let capacity = log.slot_capacity();
        if need > capacity {
            return Err(Error::BatchExceedsLog {
                shard: self.shard_id,
                needed: need,
                capacity,
            });
        }
        let pinned = ctx.first_pinned();
        loop {
            let used = log.used_in(ctx.tid, self.shard_id);
            if used + need <= capacity {
                match self.grow_log(ctx, need, pinned.is_none()) {
                    Ok(true) => return Ok(()),
                    // At the bound: the boundary below returns segments.
                    Ok(false) => {}
                    // Even an emptied buffer's segments cannot hold it.
                    Err(e) if used == 0 => return Err(Error::Pmem(e)),
                    // The pool is full: reuse the segments held.
                    Err(_) => {}
                }
            }
            if let Some(shard) = pinned {
                return Err(Error::SessionPinned { shard });
            }
            self.inner.mgr.advance_domain(self.shard_id);
            self.inner.forced_boundaries[self.shard_id].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Gives `ctx`'s log buffer for this shard segments for `need` bytes
    /// past its cursor, up to its capacity ([`ExtLog::grow`]), claiming
    /// log extents from the pool where its shard has no free segment —
    /// when `bounded`, only while the shard's log is under its bound
    /// (`Ok(false)` past it). Never forces a boundary, which is what
    /// recovery's redo of committed batches needs: a boundary would
    /// discard their intents.
    pub(crate) fn grow_log(
        &self,
        ctx: &DCtx,
        need: u64,
        bounded: bool,
    ) -> Result<bool, incll_pmem::Error> {
        self.inner
            .log
            .grow(ctx.tid, self.shard_id, need, bounded, || {
                self.inner.alloc.claim_log_extent(self.shard_id)
            })
    }

    /// Looks up `key`, returning a **borrowed, zero-copy** view of its
    /// value bytes in the durable buffer. No byte is copied; the returned [`ValueRef`] dereferences
    /// to the payload in place and holds a pin on this shard's epoch
    /// domain, so the shard cannot checkpoint (and the allocator cannot
    /// recycle the buffer) until the view is dropped.
    ///
    /// The view is validated at construction: the leaf's version is
    /// re-checked after the slot read, so the buffer was `key`'s current
    /// value at that instant. See [`ValueRef`] for the full read-semantics
    /// contract.
    pub fn get_ref<'s>(&'s self, ctx: &'s DCtx, key: &[u8]) -> Option<ValueRef<'s>> {
        let guard = ctx.handle.pin_on(self.shard_id);
        let buf = {
            // Lazy-recovery repairs during the descent are writes; scope
            // them to this shard for the lookup only — the returned view
            // itself never writes, so it does not hold the scope.
            let _scope = FlushDomainScope::enter(self.shard_id as u16);
            // SAFETY: guard pinned; offsets reachable from the root are
            // nodes.
            unsafe { self.get_inner(self.root_holder, key) }?
        };
        let len = self.inner.arena.pread_u64(buf) as usize;
        debug_assert!(len <= MAX_VALUE_BYTES, "corrupt value-buffer length");
        Some(ValueRef {
            arena: &self.inner.arena,
            buf,
            len,
            pin: guard,
        })
    }

    /// Inserts or updates `key` with a `u64` payload (stored little-endian
    /// in a fresh length-prefixed durable buffer), returning the previous
    /// payload.
    ///
    /// The returned payload is the previous value's first 8 bytes, a
    /// shorter one zero-extended; use [`DurableMasstree::put_bytes`] to
    /// observe the full previous value of mixed-width keys.
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
        let (g, _s) = self.enter(ctx);
        let epoch = g.epoch();
        let mut new_val = || match prealloc.take() {
            Some(b) => Ok(b),
            None => self.new_value_buf(ctx.tid, epoch, val),
        };
        // SAFETY: as for `get_ref`.
        let old = unsafe { self.put_inner((ctx.tid, epoch), self.root_holder, key, &mut new_val) }?;
        // No drain on exit: every undo entry the operation appended was
        // sealed before its guarded modification (see `log_ranges`).
        Ok(old.map(|buf| {
            let payload = read_old(&self.inner.arena, buf);
            self.free_value_buf(ctx.tid, epoch, buf);
            payload
        }))
    }

    /// Allocates — and fills — the value buffer a later
    /// [`DurableMasstree::put_bytes_with_buf`] for `val` will consume.
    /// Must run under a pin on this shard carrying `epoch`.
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
        Ok(self.new_value_buf(ctx.tid, epoch, val)?)
    }

    /// Returns an unused [`DurableMasstree::prepare_value_buf`] reservation
    /// to the shard's pending list (reusable at its next boundary).
    pub(crate) fn release_value_buf(&self, ctx: &DCtx, epoch: u64, buf: u64) {
        self.free_value_buf(ctx.tid, epoch, buf);
    }

    /// Removes `key`, returning whether it was present.
    pub fn remove(&self, ctx: &DCtx, key: &[u8]) -> bool {
        let (g, _s) = self.enter(ctx);
        let epoch = g.epoch();
        // SAFETY: as for `get_ref`.
        let old = unsafe { self.remove_inner((ctx.tid, epoch), self.root_holder, key) };
        // No drain on exit — as for `put`: undo entries seal themselves.
        old.map(|buf| self.free_value_buf(ctx.tid, epoch, buf))
            .is_some()
    }

    /// Callback scan over (key, value-buffer offset) pairs.
    pub(crate) fn scan_raw(
        &self,
        ctx: &DCtx,
        start: &[u8],
        limit: usize,
        f: &mut dyn FnMut(&[u8], u64),
    ) -> usize {
        let _g = self.enter(ctx);
        // SAFETY: as for `get_ref`.
        unsafe { self.scan_from(self.root_holder, start, limit, f) }
    }

    // ==================================================================
    // The InCLL engine (Listing 3): what the hooks below share
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
        let flags = kind | if logged { meta::LOGGED } else { 0 };
        a.pwrite_u64_release(lf + OFF_META, meta::with_epoch(flags, epoch));
    }

    // ==================================================================
    // Lazy recovery (Listing 4)
    // ==================================================================

    /// [`NodeStore::maybe_recover`]'s slow path: repairs a node stamped
    /// before this shard's execution.
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
            vflags |= IS_LEAF;
        }
        if m & meta::IS_ROOT != 0 {
            vflags |= IS_ROOT;
        }
        a.pwrite_u64_release(node + OFF_VERSION, vflags);
        // Publish: stamping exec_epoch ends recovery for this node. Note
        // the refreshed InCLLp above makes this exactly equivalent to a
        // first-modification stamp in exec_epoch.
        let kind = m & (meta::IS_LEAF | meta::IS_ROOT);
        a.pwrite_u64_release(node + OFF_META, meta::with_epoch(kind, exec_epoch));
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
    // Value buffers (codec below)
    // ==================================================================

    /// Allocates a fresh length-prefixed value buffer holding `data`.
    fn new_value_buf(
        &self,
        tid: usize,
        epoch: u64,
        data: &[u8],
    ) -> Result<u64, incll_palloc::Error> {
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
}

/// The durable tree's nodes: the paper's Fig. 1 layout in the arena, every
/// load, store and CAS through [`PArena`] (so a tracked arena journals
/// each store), and the InCLL engine (Listing 3) and lazy recovery
/// (Listing 4) as the algorithm's hooks.
// SAFETY: nodes and holders are fresh arena allocations of `NODE_BYTES`
// (64-aligned) and `HOLDER_BYTES`; every word goes through `PArena`.
unsafe impl NodeStore<LEAF_WIDTH> for DurableMasstree {
    const INT_WIDTH: usize = INT_WIDTH;
    const OFF_PARENT: u64 = OFF_PARENT;
    const OFF_NEXT: u64 = OFF_NEXT;
    const OFF_PERM: u64 = OFF_PERM;
    const OFF_KLENX: u64 = OFF_KLENX;
    const OFF_INT_NKEYS: u64 = OFF_INT_NKEYS;
    #[inline]
    fn off_ikey(slot: usize) -> u64 {
        off_ikey(slot)
    }
    #[inline]
    fn off_val(slot: usize) -> u64 {
        off_val(slot)
    }
    #[inline]
    fn off_int_key(i: usize) -> u64 {
        off_int_key(i)
    }
    #[inline]
    fn off_int_child(i: usize) -> u64 {
        off_int_child(i)
    }

    /// The thread slot and the epoch the write lands in.
    type Cx = (usize, u64);
    type Error = incll_palloc::Error;

    #[inline]
    unsafe fn load(&self, addr: u64) -> u64 {
        self.inner.arena.pread_u64(addr)
    }
    #[inline]
    unsafe fn load_acquire(&self, addr: u64) -> u64 {
        self.inner.arena.pread_u64_acquire(addr)
    }
    #[inline]
    unsafe fn store(&self, addr: u64, val: u64) {
        self.inner.arena.pwrite_u64(addr, val)
    }
    #[inline]
    unsafe fn store_release(&self, addr: u64, val: u64) {
        self.inner.arena.pwrite_u64_release(addr, val)
    }
    #[inline]
    unsafe fn cas(&self, addr: u64, current: u64, new: u64) -> bool {
        self.inner
            .arena
            .pcompare_exchange_u64(addr, current, new, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    fn new_leaf(
        &self,
        (tid, epoch): (usize, u64),
        is_root: bool,
        locked: bool,
    ) -> Result<u64, incll_palloc::Error> {
        let a = &self.inner.arena;
        let off = self
            .inner
            .alloc
            .alloc_aligned64_in(tid, self.shard_id, epoch, NODE_BYTES)?;
        let mut vflags = if locked { IS_LEAF | LOCK } else { IS_LEAF };
        let mut mflags = meta::IS_LEAF | meta::LOGGED;
        if is_root {
            vflags |= IS_ROOT;
            mflags |= meta::IS_ROOT;
        }
        a.pwrite_u64_release(off + OFF_VERSION, vflags);
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
        (tid, epoch): (usize, u64),
        is_root: bool,
        locked: bool,
    ) -> Result<u64, incll_palloc::Error> {
        let a = &self.inner.arena;
        let off = self
            .inner
            .alloc
            .alloc_aligned64_in(tid, self.shard_id, epoch, NODE_BYTES)?;
        let mut vflags = if locked { LOCK } else { 0 };
        let mut mflags = meta::LOGGED;
        if is_root {
            vflags |= IS_ROOT;
            mflags |= meta::IS_ROOT;
        }
        a.pwrite_u64_release(off + OFF_VERSION, vflags);
        a.pwrite_u64(off + OFF_PARENT, 0);
        a.pwrite_u64(off + OFF_INT_NKEYS, 0);
        a.pwrite_u64_release(off + OFF_META, meta::with_epoch(mflags, epoch));
        Ok(off)
    }

    fn new_holder(
        &self,
        (tid, epoch): (usize, u64),
        root: u64,
    ) -> Result<u64, incll_palloc::Error> {
        let a = &self.inner.arena;
        let holder = self
            .inner
            .alloc
            .alloc_in(tid, self.shard_id, epoch, HOLDER_BYTES)?;
        a.pwrite_u64(holder, root);
        // Fresh holder: tag it as already logged this epoch (a crash
        // reverts the whole allocation, so no pre-image is needed).
        a.pwrite_u64_release(holder + 8, epoch);
        Ok(holder)
    }

    /// Recovery check on every node access: nodes stamped before this
    /// shard's execution are repaired in place before use (against this
    /// shard's failed-epoch set — each shard rolls back to its own
    /// boundary).
    #[inline]
    fn maybe_recover(&self, node: u64) {
        let m = self.inner.arena.pread_u64(node + OFF_META);
        if meta::epoch(m) >= self.exec_epoch {
            return;
        }
        self.recover_node_slow(node);
    }

    /// Starts loading the lines [`DurableMasstree::free_value_buf`] will
    /// touch — the buffer's allocator header and its length prefix — so
    /// the miss overlaps the write's own work instead of following it.
    fn prefetch_value(&self, buf: u64) {
        self.inner
            .arena
            .prefetch(buf.wrapping_sub(HEADER_BYTES as u64), HEADER_BYTES + 8);
    }

    /// `InCLL()` for an insertion into `perm`, the leaf's current
    /// permutation (not full). InCLLp absorbs an insert whose slot was
    /// free at epoch start: restoring the epoch-start permutation never
    /// names that slot, so the key, `klenx` and value written into it need
    /// no undo. The first free slot always qualifies in a leaf with no
    /// removal this epoch; after removals, `perm`'s free region is
    /// reordered to put such a slot first. Only when every free slot held
    /// a key at epoch start — the remove-then-insert hazard of §4.1.1 —
    /// does the leaf fall back to the external log.
    #[inline]
    fn incll_insert(&self, (tid, epoch): (usize, u64), lf: u64, perm: &mut DPerm) {
        let a = &self.inner.arena;
        let m = a.pread_u64(lf + OFF_META);
        if meta::epoch(m) != epoch {
            self.incll_new_epoch(tid, epoch, lf, m, None);
        } else if m & meta::LOGGED == 0
            && !perm.front_free_outside(DPerm::from_raw(a.pread_u64(lf + OFF_PERM_INCLL)))
        {
            self.log_leaf(tid, epoch, lf, m);
            a.pwrite_u64_release(lf + OFF_META, m | meta::LOGGED);
        }
    }

    /// `InCLL()` for a value update of slot `idx` whose current value is
    /// `oldval`. Returns the permutation to publish when the update must
    /// not store into `idx` but move its key: the leaf's current one, with
    /// a slot that was free at epoch start at the front of its free region.
    ///
    /// A slot free at epoch start (its key was inserted or moved this
    /// epoch) needs no undo: restoring InCLLp never names it, so the
    /// store goes in place and the line's ValInCLL stays free. Otherwise
    /// the line's ValInCLL takes the old value. When it already holds
    /// another slot — two hot values in one line — the key moves to a
    /// slot free at epoch start, which InCLLp covers as it covers an
    /// insert; the old slot keeps the epoch-start value InCLLp names.
    /// Only a leaf with no such slot left captures the 64-byte line
    /// (§4.2).
    fn incll_val(
        &self,
        (tid, epoch): (usize, u64),
        lf: u64,
        idx: usize,
        oldval: u64,
    ) -> Option<DPerm> {
        let a = &self.inner.arena;
        let m = a.pread_u64(lf + OFF_META);
        if meta::epoch(m) != epoch {
            self.incll_new_epoch(tid, epoch, lf, m, Some((idx, oldval)));
            return None;
        }
        let region = val_region(idx);
        let line_logged = meta::REGION_LOGGED[region];
        if m & (meta::LOGGED | line_logged) != 0 {
            return None;
        }
        let start = DPerm::from_raw(a.pread_u64(lf + OFF_PERM_INCLL));
        if !start.occupied().any(|s| s == idx) {
            return None;
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
            // SAFETY: `lf` is a live leaf, locked by the caller.
            let mut perm = unsafe { self.perm_of(lf) };
            if perm.front_free_outside(start) {
                return Some(perm);
            }
            // No slot free at epoch start is left: fall back (§4.2) — to
            // the line alone. Its ValInCLL is inside the captured image,
            // so replay plus lazy recovery still restore the first value.
            let (off, len) = LEAF_REGIONS[region];
            let first = m & (meta::VAL1_LOGGED | meta::VAL2_LOGGED) == 0;
            self.log_ranges(tid, epoch, &[(lf + off, len)], first);
            a.pwrite_u64_release(lf + OFF_META, m | line_logged);
        }
        None
    }

    /// `InCLL()` for a removal: InCLLp absorbs any number of them, since
    /// a removal overwrites no slot.
    fn incll_remove(&self, (tid, epoch): (usize, u64), lf: u64) {
        let m = self.inner.arena.pread_u64(lf + OFF_META);
        if meta::epoch(m) != epoch {
            self.incll_new_epoch(tid, epoch, lf, m, None);
        }
    }

    /// Ensures a leaf is externally logged this epoch (split / conversion
    /// paths: subsequent modifications in the epoch are then free).
    fn ensure_leaf_logged(&self, (tid, epoch): (usize, u64), lf: u64) {
        let a = &self.inner.arena;
        let m = a.pread_u64(lf + OFF_META);
        if meta::epoch(m) == epoch && m & meta::LOGGED != 0 {
            return;
        }
        self.log_leaf(tid, epoch, lf, m);
        let kind = m & (meta::IS_LEAF | meta::IS_ROOT);
        a.pwrite_u64_release(lf + OFF_META, meta::with_epoch(kind | meta::LOGGED, epoch));
    }

    /// Ensures an interior node is externally logged this epoch — interior
    /// nodes have no InCLLs; this is their entire logging story (§4.2's
    /// per-node epoch check prevents duplicate logging).
    fn ensure_int_logged(&self, (tid, epoch): (usize, u64), node: u64) {
        let a = &self.inner.arena;
        let m = a.pread_u64(node + OFF_META);
        if meta::epoch(m) == epoch && m & meta::LOGGED != 0 {
            return;
        }
        a.stats().add_ext_interior();
        // Identical mechanics: an interior never sets a line bit, so its
        // regions coalesce into one whole-node entry — the 320-byte image
        // recovery re-derives child parent pointers from.
        self.ensure_leaf_logged((tid, epoch), node);
    }

    /// Externally logs a 16-byte root-holder cell at most once per epoch
    /// (the cell's second word tags the last logged epoch). At-most-once
    /// matters: replay applies entries in order, so a second entry would
    /// re-install a mid-epoch (doomed) root.
    fn log_holder(&self, (tid, epoch): (usize, u64), holder: u64) {
        let a = &self.inner.arena;
        if a.pread_u64(holder + 8) != epoch {
            self.log_ranges(tid, epoch, &[(holder, HOLDER_BYTES)], true);
            a.pwrite_u64_release(holder + 8, epoch);
        }
    }

    /// Demotes the old root's durable kind bit (the node was logged by its
    /// split path); the version word's flag follows.
    fn demote_root(&self, node: u64) {
        let a = &self.inner.arena;
        let m = a.pread_u64(node + OFF_META);
        a.pwrite_u64_release(node + OFF_META, m & !meta::IS_ROOT);
    }
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
/// floored at the 16-byte class so a value of up to 8 bytes takes the
/// paper's 32-byte buffer ([`VALUE_BUF_BYTES`], header included).
#[inline]
fn value_buf_size(len: usize) -> usize {
    (8 + len).max(VALUE_BUF_BYTES - HEADER_BYTES)
}

/// Reads a buffer's payload as the `u64` convenience encoding (written
/// by [`DurableMasstree::put`]): its first 8 bytes, little-endian, a
/// shorter payload zero-extended. Reads only the stored length's bytes,
/// all on the length prefix's line for a value of up to 8 bytes.
#[inline]
fn read_value_u64(a: &PArena, buf: u64) -> u64 {
    let len = (a.pread_u64(buf) as usize).min(8);
    let mut word = [0u8; 8];
    a.pread_bytes(buf + 8, &mut word[..len]);
    u64::from_le_bytes(word)
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
