//! Post-crash recovery orchestration (§4.3), per epoch domain — in
//! parallel across shards.
//!
//! Opening a durable tree after a failure (or a clean shutdown — the
//! procedure is uniform) runs the paper's recovery once **per shard**,
//! each against that shard's own epoch timeline:
//!
//! 1. Each shard's durable epoch counter names *its* failed epoch; it
//!    joins the shard's durable failed-epoch set (idempotent across
//!    repeated crashes).
//! 2. The shard's external-log buffers replay every sealed entry of the
//!    *contiguous run* of that shard's failed epochs ending at the crash —
//!    older failed-epoch debris is inert (completed epochs separated them
//!    from the crash; see `incll-extlog`). Entries are independent, so
//!    replay order is free.
//! 3. The shard's epoch counters restart durably past its failed epoch.
//!    This is the only flush recovery performs: new work is tagged with
//!    the new epoch, so the new epoch number must be durable before work
//!    begins.
//! 4. The allocator repairs the shard's head cells and reverts the
//!    shard's carve watermark (un-carving doomed slabs).
//! 5. The shard's in-doubt **write batches** are resolved (see
//!    `crate::batch`): the replay scan surfaced the shard's intent
//!    entries, and each batch with a durable commit record in the
//!    superblock batch table is *redone* through the ordinary put /
//!    remove paths, while a batch with no commit record is *dropped* —
//!    so a cross-shard batch survives a crash everywhere or nowhere.
//!    Redo is idempotent (a re-crash replays the same intents again) and
//!    per-shard on shard-owned state, hence byte-identical at every
//!    worker count. Counts land in [`ShardReplay::batches_redone`] /
//!    [`ShardReplay::batches_dropped`].
//! 6. Everything else — permutation and value rollbacks, lock-word
//!    reinitialisation — happens **lazily** on first access to each node
//!    (Listing 4), so restart latency is the log-replay time, not a tree
//!    walk.
//!
//! # Recovery parallelism
//!
//! Since the log buffers are per-(thread × shard) and every durable
//! object — node, holder cell, value buffer, allocator list, watermark
//! line, epoch cell — is owned by exactly one shard for life, the
//! per-shard recovery steps touch **disjoint** state. [`DurableMasstree::open`]
//! therefore spreads them over up to [`DurableConfig::recovery_threads`]
//! workers, each owning a strided subset of the shards; steps 1–4 run
//! start-to-finish per shard inside one worker, mirroring how *Adaptive
//! Logging* exploits partitioned logs for parallel replay. The recovered
//! state is **byte-identical at every worker count** (including 1): no
//! two shards share a cache line of recovered state, so interleaving
//! cannot change any outcome — only the restart wall-clock. The
//! [`RecoveryReport`] carries the worker count actually used and each
//! shard's replay wall time.
//!
//! Because every shard checkpoints on its own cadence, the recovered
//! shards do **not** share a point in time: shard `a` restarts at its own
//! last completed boundary, shard `b` at its (possibly much newer) one.
//! Per-key durability is unchanged — a key's shard checkpointed it or it
//! rolls back — but cross-shard invariants must be enforced above this
//! layer (or by [`crate::Store::checkpoint`], the all-domains barrier).
//!
//! Re-crashing during recovery is safe: nothing above is destructive
//! before its effect is re-derivable, and each failed-epoch set keeps
//! growing until one of that shard's checkpoints completes (which also
//! compacts it; see `incll-pmem`'s `prune_failed_epochs`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use incll_epoch::{EpochManager, EpochOptions};
use incll_extlog::{ExtLog, IntentEntry};
use incll_palloc::PAlloc;
use incll_pmem::{superblock, PArena};

use crate::batch::RedoOp;
use crate::error::Error;
use crate::tree::{DurableConfig, DurableMasstree, Inner};

/// Replay work attributed to one keyspace shard (log entries carry the
/// owning shard's tag; see `incll_extlog`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardReplay {
    /// The shard index.
    pub shard: usize,
    /// External-log entries replayed into this shard's tree.
    pub replayed_entries: u64,
    /// Bytes copied back into this shard's tree.
    pub replayed_bytes: u64,
    /// The epoch of **this shard** the crash interrupted (shards
    /// checkpoint independently, so these differ across shards).
    pub failed_epoch: u64,
    /// The epoch this shard's new execution starts at (its recovered
    /// boundary + 1).
    pub recovered_epoch: u64,
    /// Wall-clock time of this shard's eager recovery (log replay, parent
    /// re-derivation, epoch restart, allocator repair) inside its worker.
    /// With parallel recovery these overlap; they sum to more than
    /// [`RecoveryReport::replay_time`] when the workers actually ran
    /// concurrently.
    pub replay_time: Duration,
    /// In-doubt write batches whose commit record was durable: their
    /// intent entries on this shard were redone (see `crate::batch`).
    pub batches_redone: u64,
    /// In-doubt write batches with no durable commit record: their intent
    /// entries on this shard were dropped.
    pub batches_dropped: u64,
}

/// What recovery did; the §6.3 experiment reports these numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `true` when [`crate::Store::open`] found no existing store and
    /// created a fresh one (nothing below applies in that case).
    pub created: bool,
    /// The epoch the crash interrupted in **shard 0** (the whole store's
    /// failed epoch on an unsharded store; per-shard epochs are in
    /// [`RecoveryReport::per_shard`]).
    pub failed_epoch: u64,
    /// Shard 0's durable failed epochs after recording this crash.
    pub failed_epochs: Vec<u64>,
    /// External-log entries replayed, across all shards.
    pub replayed_entries: u64,
    /// Bytes copied back by replay, across all shards.
    pub replayed_bytes: u64,
    /// Wall-clock time of the eager phase (log replay, all shards).
    pub replay_time: Duration,
    /// Recovery workers used: `min(recovery_threads, shards)`; 1 means
    /// the shards were replayed sequentially, 0 that the store was
    /// freshly created and nothing was recovered. The recovered *state*
    /// is identical at every worker count (see the module docs) — only
    /// the wall-clock changes.
    pub parallel_workers: usize,
    /// Replay work and recovered boundary per shard (one entry per shard,
    /// indexed by shard id; empty when the store was freshly created).
    /// Each shard recovers to **its own** last completed epoch; the
    /// entries' counts sum to [`RecoveryReport::replayed_entries`].
    pub per_shard: Vec<ShardReplay>,
}

/// Runs `f(shard)` for every shard, spread over `workers` threads (worker
/// `w` owns the strided subset `w, w+workers, ...`), and returns the
/// results indexed by shard. `workers == 1` runs inline. The closure is
/// called exactly once per shard; cross-shard ordering is unspecified —
/// callers must only do shard-owned work inside.
fn run_per_shard<T, F>(workers: usize, shards: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || shards <= 1 {
        return (0..shards).map(f).collect();
    }
    let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None).take(shards).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let f = &f;
                s.spawn(move || {
                    (w..shards)
                        .step_by(workers)
                        .map(|d| (d, f(d)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (d, v) in h.join().expect("recovery worker panicked") {
                out[d] = Some(v);
            }
        }
    });
    out.into_iter()
        .map(|v| v.expect("every shard visited exactly once"))
        .collect()
}

/// Per-shard result of the failed-epoch resolution phase.
struct Resolved {
    /// The shard's interrupted epoch.
    failed_epoch: u64,
    /// The shard's durable failed-epoch set after recording it.
    failed: Vec<u64>,
    /// Start of the contiguous failed run ending at the crash.
    run_min: u64,
}

impl DurableMasstree {
    /// Recovers a durable tree from a crashed (or cleanly closed) arena,
    /// rolling **each shard back to its own** last completed epoch
    /// boundary — with up to [`DurableConfig::recovery_threads`] shards
    /// recovering concurrently (see the module docs).
    ///
    /// Most callers want [`crate::Store::open`], which formats/creates on
    /// first use and recovers otherwise.
    ///
    /// # Errors
    ///
    /// Fails if a shard's failed-epoch set is full
    /// ([`incll_pmem::Error::FailedEpochSetFull`] — only possible after
    /// many crashes with **no** completed checkpoint in between, since
    /// checkpoints compact the sets), or with [`Error::ShardMismatch`]
    /// when `config.shards` differs from the count fixed at create.
    ///
    /// # Panics
    ///
    /// Panics if the arena was never [`DurableMasstree::create`]d.
    pub fn open(arena: &PArena, config: DurableConfig) -> Result<(Self, RecoveryReport), Error> {
        assert!(
            superblock::is_formatted(arena) && arena.pread_u64(superblock::SB_TREE_META) == 1,
            "arena holds no durable tree; call create first"
        );
        // 0. The shard count is a format-time property: every root holder,
        //    every epoch-domain cell, and every key's routing depends on it.
        crate::tree::validate_shard_count(config.shards)?;
        let on_media = arena.pread_u64(superblock::SB_SHARD_COUNT) as usize;
        if config.shards != on_media {
            return Err(Error::ShardMismatch {
                requested: config.shards,
                on_media,
            });
        }
        let workers = config.recovery_threads.max(1).min(on_media);

        let log = ExtLog::open(arena);
        let t0 = Instant::now();

        // Phase 1 (parallel over shards): record each shard's failed epoch
        // and compute its contiguous failed run. Each shard writes only
        // its own superblock cells.
        let resolved = run_per_shard(workers, on_media, |d| -> Result<Resolved, Error> {
            let failed_epoch = arena.pread_u64(superblock::domain_cur_epoch_off(d));
            superblock::record_failed_epoch_for(arena, d, failed_epoch)?;
            let failed = superblock::failed_epochs_for(arena, d);
            let mut run_min = failed_epoch;
            while run_min > 1 && failed.contains(&(run_min - 1)) {
                run_min -= 1;
            }
            Ok(Resolved {
                failed_epoch,
                failed,
                run_min,
            })
        });
        // Surface errors deterministically: lowest shard index first.
        let mut failed_sets = Vec::with_capacity(on_media);
        let mut exec_epochs = Vec::with_capacity(on_media);
        let mut runs = Vec::with_capacity(on_media);
        for r in resolved {
            let r = r?;
            failed_sets.push(r.failed);
            exec_epochs.push(r.failed_epoch + 1);
            runs.push((r.run_min, r.failed_epoch));
        }

        // Shared handles the per-shard workers repair through. Built
        // between the phases: the epoch manager snapshots the (not yet
        // restarted) durable counters, and the allocator snapshots the
        // (now complete) failed-epoch sets.
        let mgr = EpochManager::with_domains(arena.clone(), EpochOptions::durable(), on_media);
        let alloc = PAlloc::open_staged(arena, on_media);

        // Phase 2 (parallel over shards): replay the shard's own log
        // buffers, re-derive parent pointers from its restored interiors,
        // restart its epoch domain, and repair its allocator state — all
        // shard-owned, so workers never touch a common cache line. The
        // replay scan also surfaces the shard's batch intent entries,
        // carried forward to the resolution phase below.
        let replayed: Vec<(ShardReplay, Vec<IntentEntry>)> =
            run_per_shard(workers, on_media, |d| {
                let ts = Instant::now();
                let (run_min, failed_epoch) = runs[d];

                // 2a. Replay the shard's contiguous failed run ending at the
                //     crash, from its own buffers, filtered by its tag.
                let replay = log.replay_domain(d, run_min, failed_epoch);

                // 2b. Structural post-pass: parent pointers are not
                //     individually logged (see `tree.rs::split_interior`); the
                //     restored interior images are the ground truth for child
                //     membership, so re-derive every child's parent word from
                //     them. Idempotent, unordered; children belong to the same
                //     shard as their interior.
                for &(target, len) in &replay.applied {
                    if len == crate::layout::NODE_BYTES as u64 {
                        let m = arena.pread_u64(target + crate::layout::OFF_META);
                        if m & crate::layout::meta::IS_LEAF == 0 {
                            let n = (arena.pread_u64(target + crate::layout::OFF_INT_NKEYS)
                                as usize)
                                .min(crate::layout::INT_WIDTH);
                            for i in 0..=n {
                                let child =
                                    arena.pread_u64(target + crate::layout::off_int_child(i));
                                if child != 0 {
                                    arena.pwrite_u64(child + crate::layout::OFF_PARENT, target);
                                }
                            }
                        }
                    }
                }

                // 2c. Restart the shard's epochs durably past its own failure.
                mgr.restart_domain_at(d, failed_epoch + 1);

                // 2d. Allocator repair: head cells, watermark revert
                //     (un-carving doomed slabs), pending-list splice.
                alloc.recover_domain(d, failed_epoch + 1);

                // 2e. The shard's log extents: segments no buffer's
                //     directory names (a claim the crash left in doubt)
                //     become its free segments again. Reads only.
                log.adopt_extents(d, &alloc.log_extents(d));

                let shard_replay = ShardReplay {
                    shard: d,
                    replayed_entries: replay.entries_applied,
                    replayed_bytes: replay.bytes_applied,
                    failed_epoch,
                    recovered_epoch: failed_epoch + 1,
                    replay_time: ts.elapsed(),
                    batches_redone: 0,
                    batches_dropped: 0,
                };
                (shard_replay, replay.intents)
            });
        let (mut per_shard, intents): (Vec<ShardReplay>, Vec<Vec<IntentEntry>>) =
            replayed.into_iter().unzip();

        // The batch table as the crash left it: the mirror commits start
        // from, and the commit runs phase 3 resolves intents against
        // (redo and boundaries only ever clear mask words, never ids).
        let batches = crate::batch::BatchSlots::load(arena);
        let committed = batches.committed_runs();

        let tree = DurableMasstree::from_inner(Arc::new(Inner {
            arena: arena.clone(),
            mgr,
            alloc,
            log,
            failed: failed_sets.clone(),
            exec_epochs,
            rec_locks: (0..crate::tree::REC_LOCKS)
                .map(|_| Mutex::new(()))
                .collect(),
            incll_enabled: config.incll_enabled,
            shard_count: on_media,
            batches: Mutex::new(batches),
            forced_boundaries: (0..on_media).map(|_| AtomicU64::new(0)).collect(),
            in_doubt_bytes: (0..on_media).map(|_| AtomicU64::new(0)).collect(),
        }));
        tree.attach_hooks();

        // Phase 3 (parallel over shards): resolve the shard's in-doubt
        // batches against the durable batch table — redo committed
        // intents through the ordinary put/remove paths at the restarted
        // epoch, drop the rest. Still shard-owned work: thread slot 0's
        // allocator lists and log buffers are per-(thread × shard), so
        // two workers redoing different shards never share state, and
        // the recovered bytes stay identical at every worker count.
        let resolved = run_per_shard(workers, on_media, |d| {
            resolve_in_doubt_batches(&tree, &committed, d, &intents[d])
        });
        for (d, (redone, dropped)) in resolved.into_iter().enumerate() {
            per_shard[d].batches_redone = redone;
            per_shard[d].batches_dropped = dropped;
        }
        let replay_time = t0.elapsed();

        let report = RecoveryReport {
            created: false,
            failed_epoch: per_shard[0].failed_epoch,
            failed_epochs: failed_sets[0].clone(),
            replayed_entries: per_shard.iter().map(|s| s.replayed_entries).sum(),
            replayed_bytes: per_shard.iter().map(|s| s.replayed_bytes).sum(),
            replay_time,
            parallel_workers: workers,
            per_shard,
        };
        Ok((tree, report))
    }
}

/// Resolves one shard's in-doubt batches (phase 3): groups the shard's
/// surfaced intents by batch id (ascending — a deterministic order), then
/// redoes every batch whose id lies inside one of `committed` (the
/// durable commit runs, ascending and disjoint — an exact-id match, see
/// `BatchSlots::committed_runs`) and drops the rest. The redone intents
/// stay in the shard's log until its next boundary, so their bytes seed
/// the shard's in-doubt counter.
/// Returns `(batches_redone, batches_dropped)`.
///
/// Redo runs through the ordinary put/remove paths on thread slot 0 —
/// puts are last-write-wins and deletes are no-ops when absent, so a
/// re-crash that replays the same intents again converges to the same
/// bytes (the second recovery's undo replay first restores this pass's
/// own pre-images).
fn resolve_in_doubt_batches(
    tree: &DurableMasstree,
    committed: &[(u64, u64)],
    d: usize,
    intents: &[IntentEntry],
) -> (u64, u64) {
    if intents.is_empty() {
        return (0, 0);
    }
    let mut by_batch: BTreeMap<u64, Vec<&IntentEntry>> = BTreeMap::new();
    for e in intents {
        by_batch.entry(e.batch_id).or_default().push(e);
    }
    let shard = tree.shard(d);
    let ctx = shard.thread_ctx(0).expect("thread slot 0 always exists");
    let (mut redone, mut dropped) = (0u64, 0u64);
    let mut in_doubt = 0u64;
    for (&id, entries) in &by_batch {
        // The run starting at or below `id`, if any, is the only one that
        // can hold it.
        let below = committed.partition_point(|&(lo, _)| lo <= id);
        if below == 0 || committed[below - 1].1 < id {
            dropped += 1;
            continue;
        }
        for e in entries {
            in_doubt += ExtLog::entry_bytes(e.payload.len());
            // Room for the op's undo without a boundary; with the pool
            // full, the redo relies on the segments the buffer holds.
            let _ = shard.grow_log(&ctx, crate::tree::OP_UNDO_BOUND, false);
            match crate::batch::decode_intent(&e.payload) {
                Some(RedoOp::Put { key, val }) => {
                    shard
                        .put_bytes(&ctx, key, val)
                        .expect("arena must fit a committed batch's redo");
                }
                Some(RedoOp::Delete { key }) => {
                    shard.remove(&ctx, key);
                }
                // Unreachable for checksummed intents; never panic
                // recovery over one undecodable payload.
                None => {}
            }
        }
        redone += 1;
    }
    tree.inner.in_doubt_bytes[d].store(in_doubt, Ordering::Relaxed);
    (redone, dropped)
}
