//! Deterministic crash-injection torture matrix for **parallel per-shard
//! recovery** and **per-shard allocator arenas**.
//!
//! Sweeps shards {1, 2, 4, 8} × recovery workers {1, 2, 4} × crash points
//! {mid-replay, mid-carve, mid-compaction}. Every cell drives the same
//! deterministic history (per-shard staggered checkpoints, a
//! crash-point-specific doomed phase, a seeded PCSO crash), recovers with
//! the cell's worker count, and asserts:
//!
//! * every shard lands **exactly** on its own recovered epoch (tracked by
//!   a per-shard epoch mirror, off-by-one intolerant);
//! * the surviving contents equal the per-shard committed model;
//! * the report attributes replay per shard and names the worker count.
//!
//! A separate battery proves **parallel ≡ sequential**: the identical
//! history is run twice — byte-identical up to the final crash — then
//! recovered once with 1 worker and once with 4, and the two arenas must
//! agree on every byte (a full-arena digest), not merely on visible
//! contents.

use std::collections::{BTreeMap, BTreeSet};

use incll_repro::prelude::*;

const SHARD_SWEEP: &[usize] = &[1, 2, 4, 8];
const WORKER_SWEEP: &[usize] = &[1, 2, 4];

/// Where in the lifecycle the (final) crash lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CrashPoint {
    /// Crash, recover (replay runs, nothing checkpoints), then crash
    /// again mid-recovery-epoch with no new work: the second recovery
    /// must re-replay to the same state (§4.3 idempotence), per shard.
    Replay,
    /// The doomed epoch allocates values in size classes never touched
    /// before, forcing fresh slab carves on every shard's own frontier;
    /// the crash must un-carve them (per-shard watermark rollback).
    Carve,
    /// A first crash leaves failed-epoch debris; a completed checkpoint
    /// then runs the compaction sweep (eager lazy-recovery + list
    /// re-tagging + prune) before the doomed phase and final crash.
    Compaction,
}

const CRASH_POINTS: &[CrashPoint] = &[
    CrashPoint::Replay,
    CrashPoint::Carve,
    CrashPoint::Compaction,
];

fn tracked() -> PArena {
    PArena::builder()
        .capacity_bytes(32 << 20)
        .tracked(true)
        .build()
        .unwrap()
}

fn options(shards: usize, workers: usize) -> Options {
    Options::new()
        .threads(1)
        .log_bytes_per_thread(1 << 20)
        .shards(shards)
        .recovery_threads(workers)
}

/// Warms `sess`'s shard-0 log buffer until it holds segments for its
/// whole capacity, with durable deletes of absent keys (intents only):
/// from then on no log claim can make shard 0's owned extents grow, so
/// the loops that wait for that growth wait for a *data* claim.
fn warm_log(store: &Store, sess: &Session) {
    use incll_pmem::superblock;
    // Thread slot 0's shard-0 buffer owns the directory's first words.
    let full = |arena: &PArena| {
        let words = arena.pread_u64(superblock::SB_EXTLOG_DIR_WORDS) as usize;
        (0..words).all(|p| arena.pread_u64(superblock::log_dir_off(p)) != 0)
    };
    let mut i = 0u64;
    while !full(store.arena()) {
        let mut b = sess.batch();
        let key = (0u64..)
            .map(|j| format!("warm{i}-{j}").into_bytes())
            .find(|k| store.shard_of(k) == 0)
            .unwrap();
        b.delete(&key).unwrap();
        b.commit_durable().unwrap();
        i += 1;
        assert!(
            i < 100_000,
            "shard 0's log buffer never grew to its capacity"
        );
    }
}

/// Deterministic variable-length value: spans the small/medium classes.
fn bval(i: u64) -> Vec<u8> {
    let len = ((i * 37) % 347) as usize;
    (0..len).map(|j| (i as u8).wrapping_add(j as u8)).collect()
}

/// A value in a size class the staggered phases never touch (600 → 768,
/// 1500 → 2048, 3500 → 4096): allocating one forces a fresh slab carve.
fn carve_val(i: u64) -> Vec<u8> {
    let len = [600usize, 1500, 3500][(i % 3) as usize];
    vec![i as u8; len]
}

/// Copies `working`'s mappings for every key routed to `shard` into
/// `expect` (insertions and removals): the model image of "shard `shard`
/// just completed a checkpoint".
fn commit_shard(
    expect: &mut BTreeMap<Vec<u8>, Vec<u8>>,
    working: &BTreeMap<Vec<u8>, Vec<u8>>,
    store: &Store,
    shard: usize,
) {
    let keys: BTreeSet<Vec<u8>> = expect.keys().chain(working.keys()).cloned().collect();
    for k in keys {
        if store.shard_of(&k) == shard {
            match working.get(&k) {
                Some(v) => {
                    expect.insert(k, v.clone());
                }
                None => {
                    expect.remove(&k);
                }
            }
        }
    }
}

/// FNV-1a over every byte of the arena (u64-stride): two arenas with equal
/// digests hold identical contents.
fn arena_digest(arena: &PArena) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut buf = [0u8; 4096];
    let cap = arena.capacity() as u64;
    let mut off = 0u64;
    while off < cap {
        let n = ((cap - off) as usize).min(4096);
        arena.pread_bytes(off, &mut buf[..n]);
        for w in buf[..n].chunks(8) {
            let mut word = [0u8; 8];
            word[..w.len()].copy_from_slice(w);
            h ^= u64::from_le_bytes(word);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        off += n as u64;
    }
    h
}

/// What one matrix cell produced, for cross-cell comparison.
struct CellOutcome {
    expect: BTreeMap<Vec<u8>, Vec<u8>>,
    /// Per-shard failed/recovered epochs from the final report.
    per_shard: Vec<(u64, u64, u64)>, // (failed, recovered, entries)
    digest: u64,
}

/// Drives the deterministic history for one cell and recovers with
/// `final_workers`. Intermediate recoveries (the extra crash/reopen
/// rounds of `Replay` / `Compaction`) use `mid_workers`, so the
/// byte-equivalence battery can hold everything before the final crash
/// identical while varying only the final recovery.
fn run_cell(
    shards: usize,
    point: CrashPoint,
    mid_workers: usize,
    final_workers: usize,
) -> CellOutcome {
    let arena = tracked();
    // Per-shard epoch mirror: create seals the mkfs epoch and leaves
    // every shard executing at epoch 2; every advance (+1), every
    // crash/reopen (+1, restart past the failure).
    let mut epochs = vec![2u64; shards];
    let mut working: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut expect: BTreeMap<Vec<u8>, Vec<u8>>;

    let (store, r) = Store::open(&arena, options(shards, mid_workers)).unwrap();
    assert!(r.created);
    {
        let sess = store.session().unwrap();
        // Committed base: keys 0..80, then the common barrier.
        for i in 0..80u64 {
            store.put(&sess, &i.to_be_bytes(), &bval(i)).unwrap();
            working.insert(i.to_be_bytes().to_vec(), bval(i));
        }
        store.checkpoint();
        for e in &mut epochs {
            *e += 1;
        }
        expect = working.clone();

        // Staggered per-shard boundaries: two rounds of churn; shard s
        // checkpoints in the first (s % 3) rounds only, so the per-shard
        // boundaries drift apart deterministically.
        for round in 0..2u64 {
            for i in 0..40u64 {
                let k = 1000 + round * 100 + i;
                store.put(&sess, &k.to_be_bytes(), &bval(k)).unwrap();
                working.insert(k.to_be_bytes().to_vec(), bval(k));
            }
            for i in 0..10u64 {
                let k = (round * 13 + i * 3) % 80;
                store.remove(&sess, &k.to_be_bytes());
                working.remove(k.to_be_bytes().as_slice());
            }
            for (s, e) in epochs.iter_mut().enumerate() {
                if round < (s % 3) as u64 {
                    store.checkpoint_shard(s);
                    *e += 1;
                    commit_shard(&mut expect, &working, &store, s);
                }
            }
        }
    }

    // Crash-point-specific tail. Every branch ends with the store dropped
    // and the *final* seeded crash taken.
    match point {
        CrashPoint::Carve => {
            // Doomed phase forcing fresh slab carves on every shard: big
            // values in classes no earlier phase touched.
            let sess = store.session().unwrap();
            for i in 0..30u64 {
                let k = 5000 + i;
                store.put(&sess, &k.to_be_bytes(), &carve_val(i)).unwrap();
            }
            drop(sess);
            drop(store);
            arena.crash_seeded(0xC0FFEE ^ shards as u64);
        }
        CrashPoint::Replay => {
            // Doomed churn, crash, one *completed* recovery (replay runs,
            // nothing checkpoints), then an immediate second crash: the
            // final recovery must re-replay to the identical state.
            let sess = store.session().unwrap();
            for i in 0..40u64 {
                let k = 2000 + i;
                store.put(&sess, &k.to_be_bytes(), &bval(k)).unwrap();
            }
            drop(sess);
            drop(store);
            arena.crash_seeded(0xA11CE ^ shards as u64);
            let (store2, r2) = Store::open(&arena, options(shards, mid_workers)).unwrap();
            assert!(!r2.created);
            for e in &mut epochs {
                *e += 1;
            }
            drop(store2);
            arena.crash_seeded(0xB0B ^ shards as u64);
        }
        CrashPoint::Compaction => {
            // First crash leaves failed debris; a completed checkpoint
            // then compacts (sweep + re-tag + prune) before the doomed
            // phase and the final crash.
            drop(store);
            arena.crash_seeded(0xD00D ^ shards as u64);
            let (store2, r2) = Store::open(&arena, options(shards, mid_workers)).unwrap();
            assert!(!r2.created);
            for e in &mut epochs {
                *e += 1;
            }
            // The crash rolled the un-checkpointed staggered churn back:
            // the live state is exactly the per-shard committed model.
            working = expect.clone();
            {
                let sess = store2.session().unwrap();
                for i in 0..30u64 {
                    let k = 3000 + i;
                    store2.put(&sess, &k.to_be_bytes(), &bval(k)).unwrap();
                    working.insert(k.to_be_bytes().to_vec(), bval(k));
                }
                store2.checkpoint(); // the compaction pass runs here
                for e in &mut epochs {
                    *e += 1;
                }
                expect = working.clone();
                for i in 0..20u64 {
                    let k = 4000 + i;
                    store2.put(&sess, &k.to_be_bytes(), &bval(k)).unwrap();
                }
            }
            drop(store2);
            arena.crash_seeded(0xFACADE ^ shards as u64);
        }
    }

    // The measured recovery: the cell's worker count.
    let (store, report) = Store::open(&arena, options(shards, final_workers)).unwrap();
    assert!(!report.created);
    assert_eq!(
        report.parallel_workers,
        final_workers.min(shards),
        "workers are clamped to the shard count"
    );
    assert_eq!(report.per_shard.len(), shards);
    for (s, rep) in report.per_shard.iter().enumerate() {
        assert_eq!(rep.shard, s);
        assert_eq!(
            rep.failed_epoch, epochs[s],
            "{point:?} shards={shards} workers={final_workers}: shard {s} \
             must fail at exactly its own epoch"
        );
        assert_eq!(rep.recovered_epoch, rep.failed_epoch + 1);
    }
    assert_eq!(
        report.replayed_entries,
        report
            .per_shard
            .iter()
            .map(|s| s.replayed_entries)
            .sum::<u64>()
    );
    if point == CrashPoint::Compaction {
        // The completed checkpoint compacted shard 0's set: only epochs
        // at/after the compacting boundary may remain (plus this crash).
        assert!(
            report.failed_epochs.len() <= 2,
            "{point:?}: compaction must have pruned shard 0's set, got {:?}",
            report.failed_epochs
        );
    }

    // Contents: every shard exactly at its own committed boundary.
    {
        let sess = store.session().unwrap();
        let got: Vec<(Vec<u8>, Vec<u8>)> = store.iter(&sess).collect();
        let want: Vec<(Vec<u8>, Vec<u8>)> = expect.clone().into_iter().collect();
        assert_eq!(
            got, want,
            "{point:?} shards={shards} workers={final_workers}: contents \
             must match the per-shard committed model"
        );
    }
    drop(store);
    let digest = arena_digest(&arena);

    CellOutcome {
        expect,
        per_shard: report
            .per_shard
            .iter()
            .map(|s| (s.failed_epoch, s.recovered_epoch, s.replayed_entries))
            .collect(),
        digest,
    }
}

/// The full matrix, one crash point per test so failures name their cell.
fn run_matrix(point: CrashPoint) {
    for &shards in SHARD_SWEEP {
        // All worker counts of one (shards, point) cell must agree on
        // everything observable — the matrix's sequential ≡ parallel
        // claim at the model level (the byte-level twin is below).
        let mut baseline: Option<CellOutcome> = None;
        for &workers in WORKER_SWEEP {
            let out = run_cell(shards, point, 1, workers);
            if let Some(base) = &baseline {
                assert_eq!(
                    base.expect, out.expect,
                    "{point:?} shards={shards}: model must not depend on workers"
                );
                assert_eq!(
                    base.per_shard, out.per_shard,
                    "{point:?} shards={shards} workers={workers}: per-shard \
                     epochs/replay must not depend on workers"
                );
                assert_eq!(
                    base.digest, out.digest,
                    "{point:?} shards={shards} workers={workers}: recovered \
                     arenas must be byte-identical"
                );
            } else {
                baseline = Some(out);
            }
        }
    }
}

#[test]
fn crash_matrix_mid_carve() {
    run_matrix(CrashPoint::Carve);
}

#[test]
fn crash_matrix_mid_replay() {
    run_matrix(CrashPoint::Replay);
}

#[test]
fn crash_matrix_mid_compaction() {
    run_matrix(CrashPoint::Compaction);
}

/// What one batch-crash cell produced, for cross-worker comparison.
struct BatchCell {
    got: Vec<(Vec<u8>, Vec<u8>)>,
    redone: u64,
    dropped: u64,
    digest: u64,
}

/// Deterministic history ending in a crash with one cross-shard batch in
/// flight: staged (intents durable, **no** commit record) when `commit`
/// is false, fully committed (commit record durable, apply raced the
/// crash arbitrarily — here it completed) when true. Recovers with
/// `final_workers` and reports contents, batch-resolution counters, and
/// the full-arena digest.
fn run_batch_cell(shards: usize, commit: bool, final_workers: usize) -> BatchCell {
    let arena = tracked();
    let mut expect: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

    let (store, r) = Store::open(&arena, options(shards, 1)).unwrap();
    assert!(r.created);
    {
        let sess = store.session().unwrap();
        for i in 0..40u64 {
            store.put(&sess, &i.to_be_bytes(), &bval(i)).unwrap();
            expect.insert(i.to_be_bytes().to_vec(), bval(i));
        }
        store.checkpoint();

        // The in-doubt batch: eight puts plus a delete of a committed
        // key, spread across shards by the ordinary router.
        let keys: Vec<Vec<u8>> = (0..8u64)
            .map(|i| format!("batch/{i:02}").into_bytes())
            .collect();
        if shards > 1 {
            let touched: BTreeSet<usize> = keys.iter().map(|k| store.shard_of(k)).collect();
            assert!(
                touched.len() >= 2,
                "the battery needs a genuinely cross-shard batch"
            );
        }
        let mut batch = sess.batch();
        for (i, k) in keys.iter().enumerate() {
            batch.put(k, &bval(9000 + i as u64)).unwrap();
        }
        batch.delete(&3u64.to_be_bytes()).unwrap();
        let id = if commit {
            batch.commit().unwrap()
        } else {
            batch.stage_without_commit().unwrap()
        };
        if shards > 1 {
            assert!(id > 0, "a cross-shard batch must take the slow path");
        }
        if commit && shards > 1 {
            // Committed cross-shard batches survive the crash: recovery
            // redoes them from their durable intents.
            for (i, k) in keys.iter().enumerate() {
                expect.insert(k.clone(), bval(9000 + i as u64));
            }
            expect.remove(3u64.to_be_bytes().as_slice());
        }
        // `commit && shards == 1` is the fast path: same-epoch atomicity
        // with no intents, so the pre-boundary crash rolls the whole
        // batch back — exactly like a plain un-checkpointed put.
    }
    drop(store);
    arena.crash_seeded(0xBA7C4 ^ shards as u64 ^ u64::from(commit));

    let (store, report) = Store::open(&arena, options(shards, final_workers)).unwrap();
    assert!(!report.created);
    let redone: u64 = report.per_shard.iter().map(|s| s.batches_redone).sum();
    let dropped: u64 = report.per_shard.iter().map(|s| s.batches_dropped).sum();
    let got: Vec<(Vec<u8>, Vec<u8>)> = {
        let sess = store.session().unwrap();
        store.iter(&sess).collect()
    };
    let want: Vec<(Vec<u8>, Vec<u8>)> = expect.into_iter().collect();
    assert_eq!(
        got, want,
        "commit={commit} shards={shards} workers={final_workers}: the batch \
         must be all-present (committed) or all-absent (staged), never torn"
    );
    drop(store);
    BatchCell {
        got,
        redone,
        dropped,
        digest: arena_digest(&arena),
    }
}

#[test]
fn mid_batch_crash_drops_the_batch_on_every_shard_identically() {
    for &shards in &[2usize, 4, 8] {
        let mut baseline: Option<BatchCell> = None;
        for &workers in WORKER_SWEEP {
            let out = run_batch_cell(shards, false, workers);
            assert_eq!(out.redone, 0, "shards={shards}: nothing was committed");
            assert!(
                out.dropped >= 2,
                "shards={shards}: every intent-holding shard must report the \
                 staged batch dropped, got {}",
                out.dropped
            );
            if let Some(base) = &baseline {
                assert_eq!(base.got, out.got);
                assert_eq!((base.redone, base.dropped), (out.redone, out.dropped));
                assert_eq!(
                    base.digest, out.digest,
                    "shards={shards} workers={workers}: dropping an in-doubt \
                     batch must be byte-identical at every worker count"
                );
            } else {
                baseline = Some(out);
            }
        }
    }
}

#[test]
fn post_commit_crash_redoes_the_batch_on_every_shard_identically() {
    for &shards in &[2usize, 4, 8] {
        let mut baseline: Option<BatchCell> = None;
        for &workers in WORKER_SWEEP {
            let out = run_batch_cell(shards, true, workers);
            assert_eq!(out.dropped, 0, "shards={shards}: the batch committed");
            assert!(
                out.redone >= 2,
                "shards={shards}: every intent-holding shard must redo the \
                 committed batch, got {}",
                out.redone
            );
            if let Some(base) = &baseline {
                assert_eq!(base.got, out.got);
                assert_eq!((base.redone, base.dropped), (out.redone, out.dropped));
                assert_eq!(
                    base.digest, out.digest,
                    "shards={shards} workers={workers}: redoing a committed \
                     batch must be byte-identical at every worker count"
                );
            } else {
                baseline = Some(out);
            }
        }
    }
}

#[test]
fn single_shard_batches_keep_the_fast_path_crash_shape() {
    // shards(1) batches never write batch media: a pre-boundary crash
    // rolls them back whole (same-epoch atomicity), and recovery has no
    // batches to resolve.
    for commit in [false, true] {
        let out = run_batch_cell(1, commit, 1);
        assert_eq!((out.redone, out.dropped), (0, 0));
        assert!(
            out.got.iter().all(|(k, _)| !k.starts_with(b"batch/")),
            "commit={commit}: an un-checkpointed fast-path batch rolls back"
        );
        assert!(out
            .got
            .iter()
            .any(|(k, _)| k == &3u64.to_be_bytes().to_vec()));
    }
}

#[test]
fn committed_batch_survives_a_second_crash_before_any_boundary() {
    // Redo is idempotent: crash again after a recovery that redid the
    // batch but before any shard checkpoints, and the second recovery
    // must land on the identical state.
    let shards = 4usize;
    let arena = tracked();
    let mut expect: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    {
        let (store, _) = Store::open(&arena, options(shards, 1)).unwrap();
        let sess = store.session().unwrap();
        for i in 0..40u64 {
            store.put(&sess, &i.to_be_bytes(), &bval(i)).unwrap();
            expect.insert(i.to_be_bytes().to_vec(), bval(i));
        }
        store.checkpoint();
        let mut batch = sess.batch();
        for i in 0..6u64 {
            let k = format!("twice/{i}");
            batch.put(k.as_bytes(), &bval(7000 + i)).unwrap();
            expect.insert(k.into_bytes(), bval(7000 + i));
        }
        assert!(batch.commit().unwrap() > 0);
    }
    arena.crash_seeded(0x2CE);
    let (store, r1) = Store::open(&arena, options(shards, 2)).unwrap();
    assert!(r1.per_shard.iter().map(|s| s.batches_redone).sum::<u64>() >= 2);
    drop(store); // no checkpoint: intents and commit record still live
    arena.crash_seeded(0x2CF);
    let (store, r2) = Store::open(&arena, options(shards, 4)).unwrap();
    assert!(
        r2.per_shard.iter().map(|s| s.batches_redone).sum::<u64>() >= 2,
        "the second recovery must redo the still-unretired batch again"
    );
    let sess = store.session().unwrap();
    let got: Vec<(Vec<u8>, Vec<u8>)> = store.iter(&sess).collect();
    let want: Vec<(Vec<u8>, Vec<u8>)> = expect.into_iter().collect();
    assert_eq!(got, want, "double-crash redo must be idempotent");
}

const WIDE_SHARDS: usize = 4;
const WIDE_KEYS: u64 = 24;

fn wide_key(i: u64) -> Vec<u8> {
    format!("wide/{i:02}").into_bytes()
}

/// A fresh 4-shard store with the `wide/` keys preloaded and
/// checkpointed, and the model of what is durable.
fn wide_store(arena: &PArena) -> (Store, BTreeMap<Vec<u8>, Vec<u8>>) {
    let (store, _) = Store::open(arena, options(WIDE_SHARDS, 1)).unwrap();
    let sess = store.session().unwrap();
    let mut expect = BTreeMap::new();
    for i in 0..WIDE_KEYS {
        store.put(&sess, &wide_key(i), &bval(i)).unwrap();
        expect.insert(wide_key(i), bval(i));
    }
    store.checkpoint();
    drop(sess);
    (store, expect)
}

/// Stages batch `b` of a deterministic history over the `wide/` keys:
/// one delete, puts on two thirds of the rest, every shard covered —
/// later batches overwrite and delete what earlier ones put, so redo
/// order is visible. `model`, when given, takes the batch's effect.
fn wide_batch<'s>(
    store: &Store,
    sess: &'s Session,
    b: u64,
    mut model: Option<&mut BTreeMap<Vec<u8>, Vec<u8>>>,
) -> WriteBatch<'s> {
    let mut batch = sess.batch();
    let mut mask = 0u64;
    for i in 0..WIDE_KEYS {
        let k = wide_key(i);
        if i == b % WIDE_KEYS {
            batch.delete(&k).unwrap();
            model.as_deref_mut().map(|m| m.remove(&k));
        } else if !(b + i).is_multiple_of(3) {
            batch.put(&k, &bval(b * WIDE_KEYS + i)).unwrap();
            model
                .as_deref_mut()
                .map(|m| m.insert(k.clone(), bval(b * WIDE_KEYS + i)));
        } else {
            continue;
        }
        mask |= 1 << store.shard_of(&k);
    }
    assert_eq!(mask.count_ones() as usize, WIDE_SHARDS, "batch {b}");
    batch
}

/// The non-empty commit runs on media, in slot order.
fn runs_on_media(arena: &PArena) -> Vec<(u64, u64, u64)> {
    use incll_pmem::superblock::{batch_run, BATCH_RUNS};
    (0..BATCH_RUNS)
        .map(|i| batch_run(arena, i))
        .filter(|r| r.0 != 0)
        .collect()
}

/// Recovers `arena` with `workers`, checks every shard's redo/drop
/// counts and the surviving contents, and returns the arena digest.
fn recover_wide(
    arena: &PArena,
    workers: usize,
    want: &BTreeMap<Vec<u8>, Vec<u8>>,
    redone_dropped: (u64, u64),
    what: &str,
) -> u64 {
    let (store, report) = Store::open(arena, options(WIDE_SHARDS, workers)).unwrap();
    for s in &report.per_shard {
        assert_eq!(
            (s.batches_redone, s.batches_dropped),
            redone_dropped,
            "{what} workers={workers} shard {}",
            s.shard
        );
    }
    let sess = store.session().unwrap();
    let got: Vec<(Vec<u8>, Vec<u8>)> = store.iter(&sess).collect();
    let want: Vec<(Vec<u8>, Vec<u8>)> = want.clone().into_iter().collect();
    assert_eq!(got, want, "{what} workers={workers}");
    drop(sess);
    drop(store);
    arena_digest(arena)
}

/// The in-doubt window is as wide as the log, not the batch table. `n`
/// committed durable batches, each covering every shard, with no boundary
/// anywhere: without id gaps they share one run and **all** of them are
/// in doubt at the crash; with a gap before each (a batch that staged and
/// never committed) every commit burns a run slot, the table fills, and
/// only the batches since the eviction's forced boundaries are in doubt.
/// Each shard redoes exactly those, in commit order, drops every gap
/// batch, and the result is byte-identical at 1 and 4 recovery workers.
#[test]
fn every_in_doubt_batch_of_a_full_table_is_redone_in_commit_order() {
    use incll_pmem::superblock::BATCH_RUNS;
    // 150 without gaps: one run, far more batches than the table has
    // slots. BATCH_RUNS + 4 with gaps: the crash lands three commits
    // after an eviction's forced advances checkpointed the first
    // BATCH_RUNS batches.
    for (n, gaps) in [(150u64, false), (BATCH_RUNS as u64 + 4, true)] {
        let evictions = if gaps { (n - 1) / BATCH_RUNS as u64 } else { 0 };
        let in_doubt = n - evictions * BATCH_RUNS as u64;
        // The evicting commit's own gap batch was staged before the
        // boundaries it forced, so those discarded it too.
        let dropped = match (gaps, evictions) {
            (false, _) => 0,
            (true, 0) => n,
            (true, _) => in_doubt - 1,
        };
        for seed in 0..8u64 {
            let mut digests = Vec::new();
            for workers in [1usize, 4] {
                let arena = tracked();
                let (store, mut expect) = wide_store(&arena);
                {
                    let sess = store.session().unwrap();
                    for b in 0..n {
                        if gaps {
                            let gap = wide_batch(&store, &sess, 5000 + b, None);
                            assert!(gap.stage_without_commit().unwrap() > 0);
                        }
                        let batch = wide_batch(&store, &sess, b, Some(&mut expect));
                        assert!(batch.commit_durable().unwrap() > 0);
                    }
                    for s in 0..WIDE_SHARDS {
                        assert_eq!(store.shard_stats(s).advances_forced, evictions);
                    }
                }
                drop(store);
                let runs = runs_on_media(&arena);
                if gaps {
                    assert_eq!(runs.len(), BATCH_RUNS, "the table filled");
                    assert!(runs.iter().all(|r| r.0 == r.1), "one batch per run");
                } else {
                    assert_eq!(runs, [(1, n, 0b1111)], "one run holds them all");
                }
                arena.crash_seeded(0x1DB7 + seed);
                digests.push(recover_wide(
                    &arena,
                    workers,
                    &expect,
                    (in_doubt, dropped),
                    &format!("n={n} gaps={gaps} seed={seed}"),
                ));
            }
            assert_eq!(digests[0], digests[1], "n={n} gaps={gaps} seed={seed}");
        }
    }
}

/// A commit record is stores to one cache line, and a crash persists a
/// prefix of them. For an *extend* (mask, `hi`) and for an *open* over a
/// reused slot's stale range (mask, `lo`, `hi`), every prefix must
/// recover to "all batches up to the old `hi`" or "up to the new" —
/// never part of a batch, never an uncommitted id — at both worker
/// counts, byte-identically.
#[test]
fn every_persisted_prefix_of_a_commit_record_recovers_whole_batches() {
    use incll_pmem::superblock::{batch_run_off, write_batch_run_extend, write_batch_run_open};
    for open in [false, true] {
        let stores = if open { 3 } else { 2 };
        for cut in 0..=stores {
            let mut digests = Vec::new();
            for workers in [1usize, 4] {
                let arena = tracked();
                let (store, mut expect) = wide_store(&arena);
                let sess = store.session().unwrap();
                let commit = |b: u64, expect: &mut BTreeMap<_, _>| {
                    wide_batch(&store, &sess, b, Some(expect))
                        .commit_durable()
                        .unwrap()
                };
                let stage = |b: u64| {
                    wide_batch(&store, &sess, b, None)
                        .stage_without_commit()
                        .unwrap()
                };
                // Two runs, drained by a checkpoint: slot 1 holds the
                // stale range [3, 3] an open will overwrite.
                assert_eq!(commit(0, &mut expect), 1);
                assert_eq!(stage(900), 2);
                assert_eq!(commit(1, &mut expect), 3);
                store.checkpoint();
                // This execution's live run: [4, 6] in slot 0 (the first
                // drained slot), every shard named.
                assert_eq!(stage(901), 4);
                for b in 2..5 {
                    commit(b, &mut expect);
                }
                assert_eq!(runs_on_media(&arena), [(5, 7, 0b1111), (3, 3, 0)]);
                // The record under test: batch 5's intents are durable
                // (the seam), its record reaches the line but no
                // write-back does.
                let slot = if open {
                    assert_eq!(stage(902), 8, "a gap: the next record opens a run");
                    1
                } else {
                    0
                };
                let mut landed = expect.clone();
                let id = wide_batch(&store, &sess, 5, Some(&mut landed))
                    .stage_without_commit()
                    .unwrap();
                if open {
                    write_batch_run_open(&arena, slot, id, 0b1111);
                } else {
                    write_batch_run_extend(&arena, slot, id, 0b1111);
                }
                drop(sess);
                drop(store);
                let line = batch_run_off(slot) / 64;
                let mut rng = 0x9E37_79B9u64 ^ cut as u64;
                arena.crash_with(|l, n| {
                    if l == line {
                        assert_eq!(n, stores, "only the record's stores are unpersisted");
                        return cut;
                    }
                    // Everything else (applied tree lines, cleared mask
                    // words): an arbitrary but repeatable prefix.
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(l);
                    (rng >> 33) as usize % (n + 1)
                });
                // In doubt on every shard: batches 2, 3, 4 (+ 5 if its
                // record landed); dropped: ids 4, (8,) and 5's if torn.
                let whole = cut == stores;
                let want = if whole { &landed } else { &expect };
                let redone = 3 + u64::from(whole);
                let dropped = 1 + u64::from(open) + u64::from(!whole);
                digests.push(recover_wide(
                    &arena,
                    workers,
                    want,
                    (redone, dropped),
                    &format!("open={open} cut={cut}"),
                ));
            }
            assert_eq!(digests[0], digests[1], "open={open} cut={cut}");
        }
    }
}

/// `commit, stage_without_commit, commit`, crash: the uncommitted id
/// sits between two committed ones, so a watermark would resurrect it.
/// Two runs on media; the first and third batches are redone on every
/// shard, the second dropped on every shard.
#[test]
fn an_uncommitted_id_between_two_commits_splits_the_run_and_is_dropped() {
    for seed in 0..4u64 {
        let mut digests = Vec::new();
        for workers in [1usize, 4] {
            let arena = tracked();
            let (store, mut expect) = wide_store(&arena);
            {
                let sess = store.session().unwrap();
                let first = wide_batch(&store, &sess, 0, Some(&mut expect));
                assert_eq!(first.commit_durable().unwrap(), 1);
                let second = wide_batch(&store, &sess, 1, None);
                assert_eq!(second.stage_without_commit().unwrap(), 2);
                let third = wide_batch(&store, &sess, 2, Some(&mut expect));
                assert_eq!(third.commit_durable().unwrap(), 3);
            }
            drop(store);
            assert_eq!(runs_on_media(&arena), [(1, 1, 0b1111), (3, 3, 0b1111)]);
            arena.crash_seeded(0x5EA3 + seed);
            digests.push(recover_wide(
                &arena,
                workers,
                &expect,
                (2, 1),
                &format!("seed={seed}"),
            ));
        }
        assert_eq!(digests[0], digests[1], "seed={seed}");
    }
}

/// `k` commits, crash, reopen, `k` more commits, crash with a further
/// batch's intents staged — and no boundary anywhere. Both executions'
/// runs are redone in id order (the second execution's batches overwrite
/// the first's), the in-flight id is dropped, and a third crash straight
/// after that recovery converges to the same contents — the same bytes
/// at 1 and 4 workers.
#[test]
fn runs_of_two_executions_are_both_redone_in_id_order() {
    use incll_pmem::superblock::BATCH_ID_BLOCK;
    const K: u64 = 5;
    let mut digests = Vec::new();
    for workers in [1usize, 4] {
        let arena = tracked();
        let (store, mut expect) = wide_store(&arena);
        {
            let sess = store.session().unwrap();
            for b in 0..K {
                wide_batch(&store, &sess, b, Some(&mut expect))
                    .commit_durable()
                    .unwrap();
            }
        }
        drop(store);
        arena.crash_seeded(0xE8EC);
        let (store, r) = Store::open(&arena, options(WIDE_SHARDS, workers)).unwrap();
        assert!(r.per_shard.iter().all(|s| s.batches_redone == K));
        // A reopen starts at the id ceiling: a gap, hence a second run.
        let ceiling = 1 + BATCH_ID_BLOCK;
        {
            let sess = store.session().unwrap();
            for b in K..2 * K {
                let id = wide_batch(&store, &sess, b, Some(&mut expect))
                    .commit_durable()
                    .unwrap();
                assert_eq!(id, ceiling + b - K);
            }
            let in_flight = wide_batch(&store, &sess, 2 * K, None);
            assert_eq!(in_flight.stage_without_commit().unwrap(), ceiling + K);
            assert!((0..WIDE_SHARDS).all(|s| store.shard_stats(s).advances_fired == 0));
        }
        drop(store);
        assert_eq!(
            runs_on_media(&arena),
            [(1, K, 0b1111), (ceiling, ceiling + K - 1, 0b1111)]
        );
        arena.crash_seeded(0xE8ED);
        recover_wide(&arena, workers, &expect, (2 * K, 1), "second crash");
        // Nothing checkpointed, so the third recovery finds the same
        // intents under the same runs and must rebuild the same contents
        // (its epochs and failed-epoch sets have moved on, its keys and
        // values have not).
        arena.crash_seeded(0xE8EE);
        let what = "third crash";
        digests.push(recover_wide(&arena, workers, &expect, (2 * K, 1), what));
    }
    assert_eq!(digests[0], digests[1]);
}

#[test]
fn recovered_store_stays_writable_and_durable_at_every_cell_shape() {
    // Liveness after the worst cell shapes: a recovered store must accept
    // new work, checkpoint it, and survive one more crash.
    for &shards in &[1usize, 8] {
        for &point in CRASH_POINTS {
            let arena = tracked();
            let mut epochs = vec![2u64; shards];
            {
                let (store, _) = Store::open(&arena, options(shards, 2)).unwrap();
                let sess = store.session().unwrap();
                for i in 0..40u64 {
                    store.put(&sess, &i.to_be_bytes(), &bval(i)).unwrap();
                }
                store.checkpoint();
                for e in &mut epochs {
                    *e += 1;
                }
                let sz = match point {
                    CrashPoint::Carve => 2000,
                    _ => 64,
                };
                store.put(&sess, b"doomed", &vec![9u8; sz]).unwrap();
            }
            arena.crash_seeded(7 ^ shards as u64);
            if point == CrashPoint::Replay {
                let (s2, _) = Store::open(&arena, options(shards, 4)).unwrap();
                drop(s2);
                for e in &mut epochs {
                    *e += 1;
                }
                arena.crash_seeded(8 ^ shards as u64);
            }
            let (store, _) = Store::open(&arena, options(shards, 4)).unwrap();
            {
                let sess = store.session().unwrap();
                assert_eq!(store.get(&sess, b"doomed"), None);
                store.put(&sess, b"after", b"alive").unwrap();
                store.checkpoint();
            }
            drop(store);
            arena.crash_seeded(9 ^ shards as u64);
            let (store, _) = Store::open(&arena, options(shards, 1)).unwrap();
            let sess = store.session().unwrap();
            assert_eq!(store.get(&sess, b"after").as_deref(), Some(&b"alive"[..]));
            assert_eq!(store.get(&sess, &0u64.to_be_bytes()), Some(bval(0)));
        }
    }
}

/// Regression: a store crashed **before any runtime checkpoint** must
/// still hand out fresh memory after recovery. The mkfs flush seals the
/// create epoch (`DurableMasstree::create` restarts every domain past
/// it), so the first failed epoch can never be the one whose carves and
/// free-list moves produced the root leaves — were it, allocator
/// recovery would un-carve them and post-recovery puts would recycle
/// live node memory (observed as a clobbered version word).
#[test]
fn puts_after_a_crash_with_no_prior_checkpoint_stay_sound() {
    for &shards in &[1usize, 4] {
        let arena = tracked();
        {
            let (store, _) = Store::open(&arena, options(shards, 2)).unwrap();
            let sess = store.session().unwrap();
            for i in 0..40u64 {
                store.put(&sess, &i.to_be_bytes(), &bval(i)).unwrap();
            }
            // No checkpoint: every put above dies with the epoch.
        }
        arena.crash_seeded(21 ^ shards as u64);
        let (store, _) = Store::open(&arena, options(shards, 2)).unwrap();
        let sess = store.session().unwrap();
        for i in 0..40u64 {
            assert_eq!(
                store.get(&sess, &i.to_be_bytes()),
                None,
                "shards={shards}: uncheckpointed put survived"
            );
        }
        // New work must land in fresh memory, not the rolled-back
        // tree's nodes.
        for i in 100..140u64 {
            store.put(&sess, &i.to_be_bytes(), &bval(i)).unwrap();
        }
        for i in 100..140u64 {
            assert_eq!(
                store.get(&sess, &i.to_be_bytes()),
                Some(bval(i)),
                "shards={shards}: post-recovery put lost"
            );
        }
    }
}

/// What one mid-extent-claim cell produced, for cross-worker comparison.
struct ClaimCell {
    got: Vec<(Vec<u8>, Vec<u8>)>,
    /// Raw extent-owner bytes (`0` free, `shard + 1` owned) after the
    /// final recovery.
    owners: Vec<u8>,
    /// Extents owned per shard after the final recovery.
    owned: Vec<usize>,
    per_shard: Vec<(u64, u64, u64)>, // (failed, recovered, entries)
    digest: u64,
}

/// Deterministic history ending in a crash **immediately after** shard 0
/// claims a second extent, inside an epoch that never checkpoints. The
/// claim's owner byte is durable before any frontier references the
/// extent, so recovery must keep the extent owned (it re-queues as
/// reserve) while rolling every doomed store back — identically at any
/// worker count.
fn run_claim_cell(shards: usize, final_workers: usize) -> ClaimCell {
    let arena = tracked();
    let mut expect: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

    let (store, r) = Store::open(&arena, options(shards, 1)).unwrap();
    assert!(r.created);
    let pre_crash_owners: Vec<u8>;
    {
        let sess = store.session().unwrap();
        for i in 0..40u64 {
            store.put(&sess, &i.to_be_bytes(), &bval(i)).unwrap();
            expect.insert(i.to_be_bytes().to_vec(), bval(i));
        }
        // A hot working set routed entirely to shard 0.
        let hot: Vec<Vec<u8>> = (0..16u64)
            .map(|t| {
                (0u64..)
                    .map(|i| format!("claim{t}-{i}").into_bytes())
                    .find(|k| store.shard_of(k) == 0)
                    .unwrap()
            })
            .collect();
        for k in &hot {
            store.put(&sess, k, b"seed").unwrap();
            expect.insert(k.clone(), b"seed".to_vec());
        }
        store.checkpoint();

        // Doomed phase: overwrite the hot set with carve-class values
        // until shard 0's frontier spills into a freshly claimed extent,
        // then stop — the crash lands with the claim durable but every
        // store that motivated it doomed.
        warm_log(&store, &sess);
        let before = store.extent_stats().unwrap().owned_per_shard[0];
        let big = carve_val(2); // 3500 → the 4096 class
        let mut i = 0usize;
        loop {
            store.put(&sess, &hot[i % hot.len()], &big).unwrap();
            i += 1;
            if store.extent_stats().unwrap().owned_per_shard[0] > before {
                break;
            }
            assert!(i < 10_000, "shard 0 never claimed a second extent");
        }
        let stats = store.extent_stats().unwrap();
        pre_crash_owners = (0..stats.extent_count)
            .map(|e| incll_pmem::superblock::extent_owner(&arena, e))
            .collect();
    }
    drop(store);
    arena.crash_seeded(0xEC1A ^ shards as u64);

    let (store, report) = Store::open(&arena, options(shards, final_workers)).unwrap();
    assert!(!report.created);
    let stats = store.extent_stats().unwrap();
    let owners: Vec<u8> = (0..stats.extent_count)
        .map(|e| incll_pmem::superblock::extent_owner(&arena, e))
        .collect();
    assert_eq!(
        owners, pre_crash_owners,
        "shards={shards} workers={final_workers}: recovery must neither \
         release nor re-assign a durably claimed extent"
    );
    let got: Vec<(Vec<u8>, Vec<u8>)> = {
        let sess = store.session().unwrap();
        store.iter(&sess).collect()
    };
    let want: Vec<(Vec<u8>, Vec<u8>)> = expect.into_iter().collect();
    assert_eq!(
        got, want,
        "shards={shards} workers={final_workers}: every doomed store must \
         roll back even though the claim it forced survives"
    );
    drop(store);
    ClaimCell {
        got,
        owners,
        owned: stats.owned_per_shard,
        per_shard: report
            .per_shard
            .iter()
            .map(|s| (s.failed_epoch, s.recovered_epoch, s.replayed_entries))
            .collect(),
        digest: arena_digest(&arena),
    }
}

#[test]
fn crash_mid_extent_claim_resolves_identically_at_every_worker_count() {
    // shards(1) included: its one shard claims from the same pool.
    for &shards in &[1usize, 2, 4] {
        let mut baseline: Option<ClaimCell> = None;
        for &workers in WORKER_SWEEP {
            let out = run_claim_cell(shards, workers);
            assert!(
                out.owned[0] >= 2,
                "shards={shards} workers={workers}: the claimed extent must \
                 survive recovery as shard 0's reserve, owned {:?}",
                out.owned
            );
            if let Some(base) = &baseline {
                assert_eq!(base.got, out.got);
                assert_eq!(
                    base.owners, out.owners,
                    "shards={shards} workers={workers}: the owner table must \
                     not depend on the worker count"
                );
                assert_eq!(base.owned, out.owned);
                assert_eq!(
                    base.per_shard, out.per_shard,
                    "shards={shards} workers={workers}: per-shard \
                     epochs/replay must not depend on workers"
                );
                assert_eq!(
                    base.digest, out.digest,
                    "shards={shards} workers={workers}: a mid-claim crash \
                     must recover byte-identically at every worker count"
                );
            } else {
                baseline = Some(out);
            }
        }
    }
}

#[test]
fn recovered_reserve_extent_is_reused_before_any_fresh_claim() {
    // After a mid-claim crash, the orphaned extent re-queues as reserve:
    // renewed pressure on the same shard must consume it without touching
    // the owner table — on one shard exactly as on several.
    for shards in [1usize, 4] {
        let arena = tracked();
        let hot: Vec<Vec<u8>>;
        {
            let (store, _) = Store::open(&arena, options(shards, 1)).unwrap();
            let sess = store.session().unwrap();
            hot = (0..16u64)
                .map(|t| {
                    (0u64..)
                        .map(|i| format!("reuse{t}-{i}").into_bytes())
                        .find(|k| store.shard_of(k) == 0)
                        .unwrap()
                })
                .collect();
            for k in &hot {
                store.put(&sess, k, b"seed").unwrap();
            }
            store.checkpoint();
            warm_log(&store, &sess);
            let before = store.extent_stats().unwrap().owned_per_shard[0];
            let big = carve_val(2);
            let mut i = 0usize;
            while store.extent_stats().unwrap().owned_per_shard[0] == before {
                store.put(&sess, &hot[i % hot.len()], &big).unwrap();
                i += 1;
                assert!(i < 10_000, "shard 0 never claimed a second extent");
            }
        }
        arena.crash_seeded(0xEC1B);

        let (store, _) = Store::open(&arena, options(shards, 2)).unwrap();
        let stats = store.extent_stats().unwrap();
        let owners = |arena: &PArena| -> Vec<u8> {
            (0..stats.extent_count)
                .map(|e| incll_pmem::superblock::extent_owner(arena, e))
                .collect()
        };
        let before = owners(&arena);
        let sess = store.session().unwrap();
        // Burn through the reverted frontier and well into the reserve
        // extent, all inside one epoch so every overwrite carves fresh (the
        // displaced buffers stay deferred): one extent holds ~250 of these
        // 4 KiB-class values, so 320 puts must spill into the reserve while
        // staying far from needing a third extent.
        let big = carve_val(2);
        for _round in 0..20usize {
            for k in &hot {
                store.put(&sess, k, &big).unwrap();
            }
        }
        store.checkpoint();
        assert_eq!(
            before,
            owners(&arena),
            "shards={shards}: the reserve extent must absorb renewed pressure \
             before any fresh claim touches the owner table"
        );
        assert_eq!(store.get(&sess, &hot[0]), Some(big));
    }
}

/// A current-version medium crashed mid-epoch must **replay its external
/// log** — a log whose entry checksums the opener cannot verify replays
/// nothing and silently skips undo, which is why the layout version
/// screens the checksum too. The doomed epoch splits nodes and overwrites
/// committed values, so rolling it back needs externally logged
/// pre-images; every worker count must apply them (`replayed_entries >
/// 0`), land on the committed model, and agree on every arena byte.
#[test]
fn medium_crashed_mid_epoch_replays_its_log_at_every_worker_count() {
    for &shards in &[1usize, 4] {
        let mut baseline: Option<(u64, u64)> = None;
        for &workers in WORKER_SWEEP {
            let arena = tracked();
            {
                let (store, _) = Store::open(&arena, options(shards, 1)).unwrap();
                assert_eq!(
                    incll_pmem::superblock::raw_version(&arena),
                    incll_pmem::superblock::VERSION
                );
                let sess = store.session().unwrap();
                for i in 0..300u64 {
                    store.put(&sess, &i.to_be_bytes(), &bval(i)).unwrap();
                }
                store.checkpoint();
                for i in 0..600u64 {
                    store.put(&sess, &i.to_be_bytes(), &bval(i + 1000)).unwrap();
                }
            }
            arena.crash_seeded(0x77 + shards as u64);
            let (store, report) = Store::open(&arena, options(shards, workers)).unwrap();
            assert!(
                report.replayed_entries > 0,
                "shards={shards} workers={workers}: the crashed epoch's undo \
                 log must replay, not be skipped"
            );
            let sess = store.session().unwrap();
            for i in 0..600u64 {
                let want = (i < 300).then(|| bval(i));
                assert_eq!(
                    store.get(&sess, &i.to_be_bytes()),
                    want,
                    "shards={shards} workers={workers} key {i}"
                );
            }
            drop(sess);
            drop(store);
            let cell = (report.replayed_entries, arena_digest(&arena));
            assert_eq!(
                *baseline.get_or_insert(cell),
                cell,
                "shards={shards} workers={workers}: parallel replay must be \
                 byte-identical to sequential"
            );
        }
    }
}
