//! Cross-crate crash-consistency tests — the paper's §5.2 methodology:
//! "intentionally crashing the system at random points, launching a new
//! process, and checking that the system's state matched the state at the
//! beginning of the failed epoch."
//!
//! Everything runs through the public `Store`/`Session` facade, in two
//! registers: the paper's 8-byte payloads (`put_u64`) and variable-length
//! byte-slice values — each crash scenario has both.

use std::collections::BTreeMap;

use incll_repro::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn options() -> Options {
    Options::new().threads(2).log_bytes_per_thread(1 << 20)
}

fn tracked_arena() -> PArena {
    PArena::builder()
        .capacity_bytes(64 << 20)
        .tracked(true)
        .build()
        .unwrap()
}

fn collect(store: &Store, sess: &Session) -> Vec<(Vec<u8>, Vec<u8>)> {
    store.iter(sess).collect()
}

fn model_vec(m: &BTreeMap<Vec<u8>, Vec<u8>>) -> Vec<(Vec<u8>, Vec<u8>)> {
    m.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
}

/// A random op applied to both store and model. Mixes short/long keys (so
/// trie layers participate), and u64/byte-slice values (so both value
/// paths participate).
fn apply_random(
    store: &Store,
    sess: &Session,
    model: &mut BTreeMap<Vec<u8>, Vec<u8>>,
    rng: &mut StdRng,
    key_space: u64,
) {
    let k = rng.gen_range(0..key_space);
    let key: Vec<u8> = if k % 7 == 0 {
        format!("long-key-prefix-{k:08}").into_bytes()
    } else {
        k.to_be_bytes().to_vec()
    };
    match rng.gen_range(0..10) {
        0..=2 => {
            let v: u64 = rng.gen();
            store.put_u64(sess, &key, v).unwrap();
            model.insert(key, v.to_le_bytes().to_vec());
        }
        3..=5 => {
            let len = rng.gen_range(0..300usize);
            let v: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u64) as u8).collect();
            store.put(sess, &key, &v).unwrap();
            model.insert(key, v);
        }
        6..=7 => {
            store.remove(sess, &key);
            model.remove(&key);
        }
        _ => {
            assert_eq!(store.get(sess, &key), model.get(&key).cloned());
        }
    }
}

#[test]
fn hundred_seeded_crashes_match_checkpoints() {
    for seed in 0..40u64 {
        let arena = tracked_arena();
        let (store, _) = Store::open(&arena, options()).unwrap();
        let sess = store.session().unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = BTreeMap::new();

        // 1-3 committed epochs.
        for _ in 0..rng.gen_range(1..=3) {
            for _ in 0..rng.gen_range(5..300) {
                apply_random(&store, &sess, &mut model, &mut rng, 150);
            }
            store.checkpoint();
        }
        let checkpoint = model_vec(&model);

        // Doomed epoch, then a seeded crash.
        for _ in 0..rng.gen_range(1..300) {
            apply_random(&store, &sess, &mut model, &mut rng, 150);
        }
        drop(sess);
        drop(store);
        arena.crash_seeded(seed.wrapping_mul(0x9E37_79B9) + 1);

        let (store, report) = Store::open(&arena, options()).unwrap();
        assert!(!report.created);
        let sess = store.session().unwrap();
        assert_eq!(collect(&store, &sess), checkpoint, "seed {seed}");
    }
}

#[test]
fn crash_chain_with_work_between_crashes() {
    // Crash, recover, commit new work, crash again — repeatedly.
    let arena = tracked_arena();
    let mut rng = StdRng::seed_from_u64(77);
    let mut model = BTreeMap::new();

    let (store, _) = Store::open(&arena, options()).unwrap();
    {
        let sess = store.session().unwrap();
        for _ in 0..200 {
            apply_random(&store, &sess, &mut model, &mut rng, 100);
        }
        store.checkpoint();
    }
    drop(store);
    let mut checkpoint = model_vec(&model);

    for round in 0..6 {
        // Doomed work + crash.
        {
            let (store, _) = Store::open(&arena, options()).unwrap();
            let sess = store.session().unwrap();
            let mut doomed = model.clone();
            for _ in 0..rng.gen_range(1..150) {
                apply_random(&store, &sess, &mut doomed, &mut rng, 100);
            }
        }
        arena.crash_seeded(round * 13 + 5);

        // Recover, verify, commit fresh work. The completed checkpoint of
        // the previous round compacted the failed-epoch set, so only the
        // epochs failed since then are recorded (the doomed epoch, plus
        // the open-time epoch recovery conservatively records).
        let (store, report) = Store::open(&arena, options()).unwrap();
        assert!(!report.failed_epochs.is_empty());
        assert!(
            report.failed_epochs.len() <= 3,
            "round {round}: checkpoints must compact the failed-epoch set, \
             got {:?}",
            report.failed_epochs
        );
        let sess = store.session().unwrap();
        assert_eq!(collect(&store, &sess), checkpoint, "round {round}");
        for _ in 0..rng.gen_range(1..100) {
            apply_random(&store, &sess, &mut model, &mut rng, 100);
        }
        store.checkpoint();
        checkpoint = model_vec(&model);
    }
}

#[test]
fn immediate_crash_after_recovery_is_safe() {
    // Crash during the very first epoch after a recovery (recovery writes
    // themselves are unflushed and must replay idempotently).
    let arena = tracked_arena();
    let mut model = BTreeMap::new();
    {
        let (store, _) = Store::open(&arena, options()).unwrap();
        let sess = store.session().unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..300 {
            apply_random(&store, &sess, &mut model, &mut rng, 80);
        }
        store.checkpoint();
        let mut doomed = model.clone();
        for _ in 0..100 {
            apply_random(&store, &sess, &mut doomed, &mut rng, 80);
        }
    }
    let checkpoint = model_vec(&model);
    for i in 0..8u64 {
        arena.crash_seeded(1000 + i);
        let (store, _) = Store::open(&arena, options()).unwrap();
        let sess = store.session().unwrap();
        // Touch some nodes (partial lazy recovery), then crash again.
        for k in 0..20u64 {
            store.get(&sess, &k.to_be_bytes());
        }
    }
    arena.crash_seeded(9999);
    let (store, _) = Store::open(&arena, options()).unwrap();
    let sess = store.session().unwrap();
    assert_eq!(collect(&store, &sess), checkpoint);
}

#[test]
fn crash_with_multithreaded_doomed_epoch() {
    // Multiple sessions mutate during the doomed epoch; the crash happens
    // after they quiesce (the simulated power failure is a whole-machine
    // event; in-flight ops either completed their stores or not, which the
    // per-line cuts model).
    let arena = tracked_arena();
    let (store, _) = Store::open(&arena, options()).unwrap();
    {
        let sess = store.session().unwrap();
        for i in 0..400u64 {
            store.put_u64(&sess, &i.to_be_bytes(), i).unwrap();
        }
    }
    store.checkpoint();

    std::thread::scope(|s| {
        for tid in 0..2usize {
            let store = store.clone();
            s.spawn(move || {
                let sess = store.session().unwrap();
                let mut rng = StdRng::seed_from_u64(tid as u64);
                for _ in 0..500 {
                    let k = rng.gen_range(0..400u64).to_be_bytes();
                    match rng.gen_range(0..4) {
                        0 => {
                            store.put_u64(&sess, &k, rng.gen()).unwrap();
                        }
                        1 => {
                            store
                                .put(&sess, &k, &vec![1u8; rng.gen_range(0..200)])
                                .unwrap();
                        }
                        2 => {
                            store.remove(&sess, &k);
                        }
                        _ => {
                            store.get(&sess, &k);
                        }
                    }
                }
            });
        }
    });
    drop(store);
    arena.crash_seeded(31337);

    let (store, _) = Store::open(&arena, options()).unwrap();
    let sess = store.session().unwrap();
    for i in 0..400u64 {
        assert_eq!(store.get_u64(&sess, &i.to_be_bytes()), Some(i), "key {i}");
    }
}

#[test]
fn crash_rolls_every_shard_back_to_the_same_checkpoint() {
    // The all-domains barrier (`Store::checkpoint`): when only the
    // barrier is used, the doomed epoch touches all shards, the per-line
    // crash cuts land "between" their flushes, and every shard must still
    // recover to the same barrier state. (Independent per-shard
    // boundaries are exercised below and in the proptest matrix.)
    for seed in 0..20u64 {
        let arena = tracked_arena();
        let opts = options().shards(4);
        let (store, _) = Store::open(&arena, opts.clone()).unwrap();
        let mut model = BTreeMap::new();
        {
            let sess = store.session().unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..250 {
                apply_random(&store, &sess, &mut model, &mut rng, 200);
            }
            store.checkpoint();
            // Doomed work, forced onto every shard.
            let mut touched = [false; 4];
            let mut doomed = model.clone();
            let mut i = 0u64;
            while !touched.iter().all(|&t| t) || i < 200 {
                let key = (seed * 100_000 + i).to_be_bytes();
                touched[store.shard_of(&key)] = true;
                store.put_u64(&sess, &key, i).unwrap();
                doomed.insert(key.to_vec(), i.to_le_bytes().to_vec());
                i += 1;
            }
        }
        drop(store);
        arena.crash_seeded(seed.wrapping_mul(0x5851_F42D) + 3);

        let (store, report) = Store::open(&arena, opts).unwrap();
        // One failed epoch for the whole store — shards cannot diverge.
        assert!(!report.created);
        assert_eq!(report.per_shard.len(), 4);
        assert_eq!(
            report
                .per_shard
                .iter()
                .map(|s| s.replayed_entries)
                .sum::<u64>(),
            report.replayed_entries,
            "per-shard attribution must cover every replayed entry"
        );
        let sess = store.session().unwrap();
        assert_eq!(collect(&store, &sess), model_vec(&model), "seed {seed}");
        // Per-shard residency: `iter` merges every shard's tree whatever
        // it holds, `get` looks only in the shard the key routes to — so a
        // key recovered into the wrong shard would be yielded and not
        // found. The shards partition exactly the checkpointed keys.
        let mut resident = vec![Vec::new(); 4];
        for (k, v) in store.iter(&sess) {
            assert_eq!(store.get(&sess, &k), Some(v), "seed {seed}: routed get");
            resident[store.shard_of(&k)].push(k);
        }
        for (s, keys) in resident.iter().enumerate() {
            let expect: Vec<&Vec<u8>> = model.keys().filter(|k| store.shard_of(k) == s).collect();
            assert!(keys.iter().eq(expect), "seed {seed}, shard {s}");
        }
    }
}

#[test]
fn per_shard_checkpoints_give_independent_crash_boundaries() {
    // The epoch-domain claim: `checkpoint_shard(s)` makes exactly shard
    // s's writes durable. After a crash, a shard that checkpointed keeps
    // its recent writes while a shard that did not rolls back to the
    // older barrier — per-key durability is unchanged, but the shards'
    // points-in-time are now independent.
    for seed in 0..20u64 {
        let arena = tracked_arena();
        let opts = options().shards(2);
        let (store, _) = Store::open(&arena, opts.clone()).unwrap();
        // A handful of keys per shard.
        let keys_of = |s: usize| -> Vec<Vec<u8>> {
            (0u64..)
                .map(|i| i.to_be_bytes().to_vec())
                .filter(|k| store.shard_of(k) == s)
                .take(30)
                .collect()
        };
        let (keys0, keys1) = (keys_of(0), keys_of(1));
        {
            let sess = store.session().unwrap();
            for k in keys0.iter().chain(&keys1) {
                store.put_u64(&sess, k, 1).unwrap();
            }
            store.checkpoint(); // barrier: epoch boundary B for both

            // Phase 2: both shards write; ONLY shard 0 checkpoints.
            for k in keys0.iter().chain(&keys1) {
                store.put_u64(&sess, k, 2).unwrap();
            }
            store.checkpoint_shard(0);

            // Phase 3: both shards write again; nobody checkpoints.
            for k in keys0.iter().chain(&keys1) {
                store.put_u64(&sess, k, 3).unwrap();
            }
        }
        drop(store);
        arena.crash_seeded(seed * 31 + 11);

        let (store, report) = Store::open(&arena, opts).unwrap();
        assert_eq!(report.per_shard.len(), 2);
        // Create seals the mkfs epoch, so execution starts at epoch 2.
        assert_eq!(report.per_shard[0].failed_epoch, 4, "shard 0: B + own");
        assert_eq!(report.per_shard[1].failed_epoch, 3, "shard 1: B only");
        let sess = store.session().unwrap();
        for k in &keys0 {
            assert_eq!(
                store.get_u64(&sess, k),
                Some(2),
                "seed {seed}: shard 0 recovers to its own (newer) boundary"
            );
        }
        for k in &keys1 {
            assert_eq!(
                store.get_u64(&sess, k),
                Some(1),
                "seed {seed}: shard 1 rolls back to the barrier"
            );
        }
    }
}

#[test]
fn value_buffers_revert_with_contents_intact() {
    // The §5 EBR argument: buffers referenced at the epoch boundary are
    // never overwritten during the next epoch, so reverted pointers see
    // intact contents.
    let arena = tracked_arena();
    let (store, _) = Store::open(&arena, options()).unwrap();
    {
        let sess = store.session().unwrap();
        for i in 0..200u64 {
            store.put_u64(&sess, &i.to_be_bytes(), i * 7).unwrap();
        }
    }
    store.checkpoint();
    {
        let sess = store.session().unwrap();
        // Update every key several times (buffer churn + reuse pressure).
        for round in 0..3u64 {
            for i in 0..200u64 {
                store
                    .put_u64(&sess, &i.to_be_bytes(), round * 1000 + i)
                    .unwrap();
            }
        }
    }
    drop(store);
    arena.crash_seeded(404);
    let (store, _) = Store::open(&arena, options()).unwrap();
    let sess = store.session().unwrap();
    for i in 0..200u64 {
        assert_eq!(
            store.get_u64(&sess, &i.to_be_bytes()),
            Some(i * 7),
            "key {i}"
        );
    }
}

#[test]
fn byte_value_buffers_revert_with_contents_intact() {
    // Byte-value twin of the above: churn crosses size classes in both
    // directions before the crash.
    let arena = tracked_arena();
    let val = |i: u64, round: u64| -> Vec<u8> {
        let len = ((i * 13 + round * 101) % 500) as usize;
        (0..len).map(|j| (i as u8).wrapping_add(j as u8)).collect()
    };
    let (store, _) = Store::open(&arena, options()).unwrap();
    {
        let sess = store.session().unwrap();
        for i in 0..200u64 {
            store.put(&sess, &i.to_be_bytes(), &val(i, 0)).unwrap();
        }
    }
    store.checkpoint();
    {
        let sess = store.session().unwrap();
        for round in 1..4u64 {
            for i in 0..200u64 {
                store.put(&sess, &i.to_be_bytes(), &val(i, round)).unwrap();
            }
        }
    }
    drop(store);
    arena.crash_seeded(405);
    let (store, _) = Store::open(&arena, options()).unwrap();
    let sess = store.session().unwrap();
    for i in 0..200u64 {
        assert_eq!(
            store.get(&sess, &i.to_be_bytes()),
            Some(val(i, 0)),
            "key {i}"
        );
    }
}

#[test]
fn full_pool_fails_a_batch_cleanly_and_the_store_keeps_serving() {
    // A batch with a put on a shard whose extent pool is exhausted must
    // fail as a whole *before* anything durable happens: no intent in any
    // surviving shard's log, no batch id consumed, no commit record — and
    // the other keys' contents are untouched both live and across a
    // crash. On `shards(4)` the batch is cross-shard; on `shards(1)` the
    // one shard claims from the same pool and fails the same way.
    use incll_pmem::superblock;

    for shards in [1usize, 4] {
        let arena = PArena::builder()
            .capacity_bytes(16 << 20)
            .tracked(true)
            .build()
            .unwrap();
        let opts = || {
            Options::new()
                .threads(2)
                .log_bytes_per_thread(1 << 20)
                .shards(shards)
        };
        let (store, _) = Store::open(&arena, opts()).unwrap();
        let sess = store.session().unwrap();
        let key_on = |shard: usize, tag: u64| -> Vec<u8> {
            (0u64..)
                .map(|i| format!("k{tag}-{i}").into_bytes())
                .find(|k| store.shard_of(k) == shard)
                .unwrap()
        };
        // The shard that stays roomy (shard 0 itself on one shard).
        let other = shards - 1;

        // Baseline: one durable key on the other shard, plus a working set
        // of shard-0 keys to overwrite (updates only — no splits — so
        // exhaustion always surfaces as a typed value-buffer error).
        let k1a = key_on(other, 100);
        store.put(&sess, &k1a, b"alpha").unwrap();
        let hot: Vec<Vec<u8>> = (0..32).map(|t| key_on(0, t)).collect();
        for k in &hot {
            store.put(&sess, k, b"seed").unwrap();
        }
        store.checkpoint();

        // Exhaust shard 0's pool: overwrites allocate fresh value buffers
        // while the freed ones sit in pending until a boundary we never
        // run.
        let big = vec![0xabu8; 3000];
        let exhaust = |store: &Store, sess: &Session| {
            let mut i = 0usize;
            loop {
                match store.put(sess, &hot[i % hot.len()], &big) {
                    Ok(_) => i += 1,
                    Err(e) => break e,
                }
            }
        };
        let err = exhaust(&store, &sess);
        assert!(
            matches!(err, Error::Pmem(incll_pmem::Error::OutOfMemory { .. })),
            "shards={shards}: exhaustion must be typed, got {err:?}"
        );
        // The 8-byte put has the same contract: once its own size class
        // runs dry too, it fails typed and its key keeps its value.
        let err = (0u64..)
            .find_map(|i| {
                let k = &hot[i as usize % hot.len()];
                let held = store.get(&sess, k);
                let err = store.put_u64(&sess, k, i).err()?;
                assert_eq!(store.get(&sess, k), held, "shards={shards}: key touched");
                Some(err)
            })
            .unwrap();
        assert!(
            matches!(err, Error::Pmem(incll_pmem::Error::OutOfMemory { .. })),
            "shards={shards}: put_u64 exhaustion must be typed, got {err:?}"
        );

        // The batch: a fresh key on the other shard plus a put on the full
        // one. The whole batch must fail with the same typed error.
        let k1b = key_on(other, 101);
        let id_before = arena.pread_u64(superblock::SB_BATCH_NEXT_ID);
        let mut batch = sess.batch();
        batch.put(&k1b, b"beta").unwrap();
        batch.put(&hot[0], &big).unwrap();
        match batch.commit() {
            Err(Error::Pmem(incll_pmem::Error::OutOfMemory { .. })) => {}
            other => panic!("shards={shards}: expected OutOfMemory, got {other:?}"),
        }

        // Nothing durable was touched: no id block reserved (the first
        // id a store takes reserves one), every run slot empty, the other
        // half of the batch invisible, prior contents intact.
        assert_eq!(arena.pread_u64(superblock::SB_BATCH_NEXT_ID), id_before);
        for s in 0..superblock::BATCH_RUNS {
            assert_eq!(superblock::batch_run(&arena, s), (0, 0, 0));
        }
        assert_eq!(store.get(&sess, &k1b), None, "failed batch must not apply");
        assert_eq!(store.get(&sess, &k1a).as_deref(), Some(&b"alpha"[..]));

        // And across a crash: no intent leaked into any log, so recovery
        // redoes and drops nothing.
        drop(sess);
        drop(store);
        arena.crash_seeded(1009);
        let (store, report) = Store::open(&arena, opts()).unwrap();
        let sess = store.session().unwrap();
        for sr in &report.per_shard {
            assert_eq!(sr.batches_redone, 0, "no batch may be redone");
            assert_eq!(sr.batches_dropped, 0, "no intent may have leaked");
        }
        assert_eq!(store.get(&sess, &k1b), None);
        assert_eq!(store.get(&sess, &k1a).as_deref(), Some(&b"alpha"[..]));
        for k in &hot {
            assert_eq!(
                store.get(&sess, k).as_deref(),
                Some(&b"seed"[..]),
                "shards={shards}: shard-0 baseline must revert to its checkpoint"
            );
        }

        // Exhaustion is not fatal. Refill the pool (every extent claimed in
        // the doomed epoch came back as a reserve), hit the typed error
        // again, and the store still reads, removes, and — once a boundary
        // recycles the displaced buffers — takes the put it just refused.
        let err = exhaust(&store, &sess);
        assert!(matches!(
            err,
            Error::Pmem(incll_pmem::Error::OutOfMemory { .. })
        ));
        assert_eq!(store.get(&sess, &k1a).as_deref(), Some(&b"alpha"[..]));
        assert!(store.remove(&sess, &hot[0]));
        assert_eq!(store.get(&sess, &hot[0]), None);
        store.checkpoint();
        store.put(&sess, &hot[0], &big).unwrap();
        assert_eq!(store.get(&sess, &hot[0]).as_deref(), Some(&big[..]));
    }
}

#[test]
fn durable_batches_never_overflow_the_log_without_a_cadence() {
    // Log space is only reclaimed at a boundary, and without a cadence
    // nothing schedules one: back-to-back durable batches on one shard
    // must make their own room (a forced boundary) instead of running the
    // (thread, shard) buffer into its overflow assert.
    use incll_pmem::superblock;

    let arena = tracked_arena();
    // 1 MiB per thread over 4 shards: 256 KiB per (thread, shard) buffer.
    let opts = options().shards(4);
    let (store, _) = Store::open(&arena, opts.clone()).unwrap();
    let sess = store.session().unwrap();
    let mut shard0_keys = (0u64..)
        .map(|i| format!("room-{i:06}").into_bytes())
        .filter(|k| store.shard_of(k) == 0);
    let val = vec![0x5Au8; 600];

    // ~66 KB of intents per batch: the fourth would overflow 256 KiB.
    let mut committed = Vec::new();
    let mut last_id = 0;
    for round in 0..8 {
        let mut batch = sess.batch();
        let keys: Vec<Vec<u8>> = shard0_keys.by_ref().take(100).collect();
        for k in &keys {
            batch.put(k, &val).unwrap();
        }
        let id = batch
            .commit_durable()
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(id, last_id + 1);
        last_id = id;
        committed.extend(keys);
    }
    // The log-room rule, not a table of records, is what ended epochs:
    // the forced boundaries landed on the one shard that ran short, and
    // all eight commits still share one run.
    assert!(store.shard_stats(0).advances_forced >= 2);
    assert!((1..4).all(|s| store.shard_stats(s).advances_forced == 0));
    assert_eq!(
        superblock::batch_run(&arena, 0),
        (1, last_id, 1),
        "one run; shard 0 is named again after its last boundary"
    );

    // A batch that cannot fit even an empty buffer fails typed, before
    // anything durable names it.
    let mut batch = sess.batch();
    let too_many: Vec<Vec<u8>> = shard0_keys.by_ref().take(400).collect();
    for k in &too_many {
        batch.put(k, &val).unwrap();
    }
    match batch.commit_durable() {
        Err(Error::BatchExceedsLog {
            shard: 0,
            needed,
            capacity,
        }) => assert!(needed > capacity),
        other => panic!("expected BatchExceedsLog, got {other:?}"),
    }
    assert_eq!(store.get(&sess, &too_many[0]), None);
    // It consumed no id: the next commit takes the one after the last.
    let mut batch = sess.batch();
    let k = shard0_keys.next().unwrap();
    batch.put(&k, &val).unwrap();
    assert_eq!(batch.commit_durable().unwrap(), last_id + 1);
    committed.push(k);

    // Every committed key reads back, live and across a crash.
    for k in &committed {
        assert_eq!(store.get(&sess, k).as_deref(), Some(&val[..]));
    }
    drop(sess);
    drop(store);
    arena.crash_seeded(4242);
    let (store, _) = Store::open(&arena, opts).unwrap();
    let sess = store.session().unwrap();
    for k in &committed {
        assert_eq!(store.get(&sess, k).as_deref(), Some(&val[..]));
    }
    assert_eq!(store.get(&sess, &too_many[0]), None);
}

/// FNV-1a over every byte of the arena: two arenas with equal digests
/// hold identical contents.
fn arena_digest(arena: &PArena) -> u64 {
    let mut buf = vec![0u8; arena.capacity()];
    arena.pread_bytes(0, &mut buf);
    buf.chunks(8).fold(0xcbf2_9ce4_8422_2325, |h, w| {
        let mut word = [0u8; 8];
        word[..w.len()].copy_from_slice(w);
        (h ^ u64::from_le_bytes(word)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn a_crash_right_after_a_forced_boundary_recovers_exactly_that_boundary() {
    // No cadence: after the checkpoint only the log-room rule ends an
    // epoch. Scattered writes on shard 0 fill its 256 KiB (slot, shard)
    // buffer until a put finds it short and checkpoints the shard before
    // it starts; the crash strikes right after that put. Shard 0 must come
    // back as the forced boundary left it — that put rolled back, every
    // earlier one kept — and shard 1, which no boundary reached since the
    // checkpoint, as the checkpoint left it; byte-identically at every
    // recovery worker count, the default (one per core) included.
    let run = |workers: Option<usize>| {
        let arena = tracked_arena();
        let mut opts = options().shards(4);
        if let Some(n) = workers {
            opts = opts.recovery_threads(n);
        }
        let (store, _) = Store::open(&arena, opts.clone()).unwrap();
        let sess = store.session().unwrap();
        let keys_on = |shard: usize, n: usize| -> Vec<Vec<u8>> {
            (0u64..)
                .map(|i| i.wrapping_mul(0x9E37_79B9).to_be_bytes().to_vec())
                .filter(|k| store.shard_of(k) == shard)
                .take(n)
                .collect()
        };
        let (keys0, keys1) = (keys_on(0, 20_000), keys_on(1, 200));
        let mut model = BTreeMap::new();
        for k in keys0.iter().chain(&keys1) {
            store.put_u64(&sess, k, 0).unwrap();
            model.insert(k.clone(), 0u64.to_le_bytes().to_vec());
        }
        store.checkpoint();
        let checkpoint = model.clone();

        let mut rng = StdRng::seed_from_u64(28);
        for k in &keys1 {
            store.put(&sess, k, b"doomed").unwrap();
        }
        let boundary = loop {
            let k = &keys0[rng.gen_range(0..keys0.len())];
            let forced = store.shard_stats(0).advances_forced;
            let old = if rng.gen_range(0..8) == 0 {
                store.remove(&sess, k);
                model.remove(k)
            } else {
                let v: Vec<u8> = (0..rng.gen_range(0..40)).map(|_| rng.gen()).collect();
                store.put(&sess, k, &v).unwrap();
                model.insert(k.clone(), v)
            };
            if store.shard_stats(0).advances_forced > forced {
                // The boundary came first: the model without this write.
                let mut at_boundary = model.clone();
                match old {
                    Some(v) => at_boundary.insert(k.clone(), v),
                    None => at_boundary.remove(k),
                };
                break at_boundary;
            }
        };
        assert_eq!(store.shard_stats(0).advances_forced, 1);
        assert_eq!(store.shard_stats(1).advances_forced, 0);
        drop(sess);
        drop(store);
        arena.crash_seeded(2800);

        let (store, report) = Store::open(&arena, opts).unwrap();
        assert!(!report.created);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(report.parallel_workers, workers.unwrap_or(cores).min(4));
        let sess = store.session().unwrap();
        let mut expect: BTreeMap<Vec<u8>, Vec<u8>> = boundary
            .into_iter()
            .filter(|(k, _)| store.shard_of(k) == 0)
            .collect();
        expect.extend(
            checkpoint
                .into_iter()
                .filter(|(k, _)| store.shard_of(k) != 0),
        );
        assert_eq!(
            collect(&store, &sess),
            model_vec(&expect),
            "workers={workers:?}"
        );
        drop(sess);
        drop(store);
        arena_digest(&arena)
    };
    let sequential = run(Some(1));
    assert_eq!(sequential, run(Some(4)));
    assert_eq!(sequential, run(None));
}

/// Keys each shard's test leaf is given: a full leaf and one more.
const LEAF_KEYS: usize = 15;

/// Runs `doomed` on every shard's root leaf of a tracked store whose
/// shards each hold `written` checkpointed keys (`keys[i]` in slot `i`,
/// the shard's next keys unwritten after them), crashes at seeds 0..10
/// and demands exactly the checkpoint back. Twice per seed: the second
/// doomed round runs in the recovery epoch, on leaves whose epoch-start
/// permutations lazy recovery rewrote.
fn slot_reuse_recovers_the_checkpoint(
    shards: usize,
    written: usize,
    doomed: impl Fn(&Store, &Session, &[Vec<u8>]),
) {
    for seed in 0..10u64 {
        let arena = tracked_arena();
        let opts = options().shards(shards);
        let (store, _) = Store::open(&arena, opts.clone()).unwrap();
        let keys: Vec<Vec<Vec<u8>>> = (0..shards)
            .map(|s| {
                (0u64..)
                    .map(|i| i.to_be_bytes().to_vec())
                    .filter(|k| store.shard_of(k) == s)
                    .take(LEAF_KEYS)
                    .collect()
            })
            .collect();
        let sess = store.session().unwrap();
        for shard_keys in &keys {
            for (i, k) in shard_keys[..written].iter().enumerate() {
                store.put(&sess, k, &[i as u8; 24]).unwrap();
            }
        }
        store.checkpoint();
        let checkpoint = collect(&store, &sess);
        drop(sess);
        drop(store);
        for round in 0..2 {
            let (store, _) = Store::open(&arena, opts.clone()).unwrap();
            let sess = store.session().unwrap();
            assert_eq!(collect(&store, &sess), checkpoint, "seed {seed}");
            for shard_keys in &keys {
                doomed(&store, &sess, shard_keys);
            }
            drop(sess);
            drop(store);
            arena.crash_seeded(seed * 2 + round);
        }
        let (store, _) = Store::open(&arena, opts).unwrap();
        let sess = store.session().unwrap();
        assert_eq!(
            collect(&store, &sess),
            checkpoint,
            "shards {shards} seed {seed}"
        );
    }
}

#[test]
fn crash_reverts_removes_and_inserts_into_slots_free_at_epoch_start() {
    for shards in [1, 4] {
        slot_reuse_recovers_the_checkpoint(shards, 7, |store, sess, keys| {
            for k in &keys[..3] {
                assert!(store.remove(sess, k));
            }
            for k in &keys[7..10] {
                store.put(sess, k, b"inserted").unwrap();
            }
        });
    }
}

#[test]
fn crash_reverts_slot_reuse_through_the_head_fallback() {
    for shards in [1, 4] {
        slot_reuse_recovers_the_checkpoint(shards, 7, |store, sess, keys| {
            for i in 0..7 {
                assert!(store.remove(sess, &keys[i]));
                store.put(sess, &keys[7 + i], b"cycled").unwrap();
            }
            // Only slots the checkpoint's keys held are left.
            store.put(sess, &keys[14], b"fallback").unwrap();
            assert!(store.remove(sess, &keys[7]));
            store.put(sess, &keys[0], b"after").unwrap();
            store.put(sess, &keys[8], b"updated").unwrap();
        });
    }
}

#[test]
fn crash_reverts_a_key_removed_and_reinserted_in_one_epoch() {
    for shards in [1, 4] {
        slot_reuse_recovers_the_checkpoint(shards, 7, |store, sess, keys| {
            assert!(store.remove(sess, &keys[3]));
            store.put(sess, &keys[3], b"again").unwrap();
            // Its new slot's value line now takes an update too.
            store.put(sess, &keys[3], b"and again").unwrap();
            store.put_u64(sess, &keys[4], 4).unwrap();
        });
    }
}

/// Value lengths one key steps through: objects of 32, 32, 48, 48, 96,
/// 288 and 32 bytes, so the walk moves a value up and down the
/// allocator's 16-byte-spaced classes and stays in one class twice.
const CLASS_CROSSING_LENS: &[usize] = &[0, 8, 9, 24, 72, 264, 8];

/// A value no other (step, key) pair writes.
fn class_crossing_value(step: usize, key: usize) -> Vec<u8> {
    let len = CLASS_CROSSING_LENS[step % CLASS_CROSSING_LENS.len()];
    (0..len).map(|j| (step * 131 + key * 7 + j) as u8).collect()
}

#[test]
fn class_crossing_updates_recover_the_checkpoint_at_every_worker_count() {
    // Every key walks the length tape: a seeded prefix of the steps is
    // checkpointed one step per epoch, the rest run in one doomed epoch
    // (frees and allocations crossing classes within it), then a seeded
    // crash. Recovery must land on the checkpoint, and a follow-up write
    // of every key must read back intact — no object was handed out
    // twice — leaving the same arena bytes at 1 and 4 recovery workers.
    const KEYS: usize = 100;
    let steps = CLASS_CROSSING_LENS.len();
    for shards in [1usize, 4] {
        for seed in 0..10u64 {
            let committed = 1 + seed as usize % (steps - 1);
            let run = |workers: usize| {
                let arena = tracked_arena();
                let opts = options().shards(shards).recovery_threads(workers);
                let (store, _) = Store::open(&arena, opts.clone()).unwrap();
                let sess = store.session().unwrap();
                let keys: Vec<Vec<u8>> = (0..KEYS as u64)
                    .map(|i| i.wrapping_mul(0x9E37_79B9).to_be_bytes().to_vec())
                    .collect();
                let write_step = |step: usize| {
                    for (i, k) in keys.iter().enumerate() {
                        store.put(&sess, k, &class_crossing_value(step, i)).unwrap();
                    }
                };
                for step in 0..committed {
                    write_step(step);
                    store.checkpoint();
                }
                let checkpoint = collect(&store, &sess);
                for step in committed..steps {
                    write_step(step);
                }
                drop(sess);
                drop(store);
                arena.crash_seeded(seed * 17 + shards as u64);

                let (store, report) = Store::open(&arena, opts).unwrap();
                assert!(!report.created);
                let sess = store.session().unwrap();
                let at = format!("shards {shards} seed {seed} workers {workers}");
                assert_eq!(collect(&store, &sess), checkpoint, "{at}");
                // Two follow-up rounds, the second after a boundary that
                // recycles the first round's frees.
                for round in 0..2 {
                    let step = steps + round;
                    for (i, k) in keys.iter().enumerate() {
                        store
                            .put(&sess, k, &class_crossing_value(step + i, i))
                            .unwrap();
                    }
                    for (i, k) in keys.iter().enumerate() {
                        let want = class_crossing_value(step + i, i);
                        assert_eq!(store.get(&sess, k), Some(want), "{at} round {round}");
                    }
                    store.checkpoint();
                }
                drop(sess);
                drop(store);
                let mut image = vec![0u8; arena.capacity()];
                arena.pread_bytes(0, &mut image);
                image
            };
            assert!(
                run(1) == run(4),
                "shards {shards} seed {seed}: the arenas differ by worker count"
            );
        }
    }
}
