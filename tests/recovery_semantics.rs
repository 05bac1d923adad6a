//! Recovery-protocol semantics across crates, via the `Store` facade:
//! unified-open behavior, reports, failed-epoch accumulation, and
//! allocator/tree agreement after restarts.

use incll_repro::prelude::*;

fn options() -> Options {
    Options::new().threads(2).log_bytes_per_thread(1 << 20)
}

fn tracked() -> PArena {
    PArena::builder()
        .capacity_bytes(64 << 20)
        .tracked(true)
        .build()
        .unwrap()
}

#[test]
fn open_formats_creates_then_recovers() {
    // The unified lifecycle: blank arena -> format + create; existing
    // store -> recover — same call, distinguished by the report.
    let arena = tracked();
    let (store, r1) = Store::open(&arena, options()).unwrap();
    assert!(r1.created);
    assert_eq!(r1.failed_epoch, 0);
    assert_eq!(r1.replayed_entries, 0);
    {
        let sess = store.session().unwrap();
        store.put(&sess, b"k", b"v").unwrap();
        store.checkpoint();
    }
    drop(store);
    let (store, r2) = Store::open(&arena, options()).unwrap();
    assert!(!r2.created, "second open must recover, not re-create");
    let sess = store.session().unwrap();
    assert_eq!(store.get(&sess, b"k").as_deref(), Some(&b"v"[..]));
}

#[test]
fn session_pool_is_bounded_and_raii() {
    let arena = tracked();
    let (store, _) = Store::open(&arena, options()).unwrap();
    let s0 = store.session().unwrap();
    let s1 = store.session().unwrap();
    assert_ne!(s0.tid(), s1.tid());
    // Pool of 2 exhausted: the third acquisition reports, not corrupts.
    match store.session() {
        Err(Error::TooManyThreads { limit }) => assert_eq!(limit, 2),
        other => panic!("expected TooManyThreads, got {other:?}"),
    }
    // RAII: dropping a session frees its slot for reuse.
    let freed = s0.tid();
    drop(s0);
    let s2 = store.session().unwrap();
    assert_eq!(s2.tid(), freed);
    drop(s1);
    drop(s2);
    // And the pool refills completely.
    let all: Vec<Session> = (0..2).map(|_| store.session().unwrap()).collect();
    assert_eq!(all.len(), 2);
}

#[test]
fn oversized_values_error_cleanly() {
    let arena = tracked();
    let (store, _) = Store::open(&arena, options()).unwrap();
    let sess = store.session().unwrap();
    store.put(&sess, b"k", &vec![1u8; MAX_VALUE_BYTES]).unwrap();
    match store.put(&sess, b"k", &vec![2u8; MAX_VALUE_BYTES + 1]) {
        Err(Error::ValueTooLarge { size, max }) => {
            assert_eq!(size, MAX_VALUE_BYTES + 1);
            assert_eq!(max, MAX_VALUE_BYTES);
        }
        other => panic!("expected ValueTooLarge, got {other:?}"),
    }
    // The store is untouched by the failed put.
    assert_eq!(
        store.get(&sess, b"k").map(|v| v.len()),
        Some(MAX_VALUE_BYTES)
    );
}

#[test]
fn recovery_report_counts_replayed_entries() {
    let arena = tracked();
    let (store, _) = Store::open(&arena, options()).unwrap();
    {
        let sess = store.session().unwrap();
        for i in 0..50u64 {
            store.put_u64(&sess, &i.to_be_bytes(), i).unwrap();
        }
        store.checkpoint();
        // Force external logging: remove-then-insert in one epoch.
        for i in 0..20u64 {
            store.remove(&sess, &i.to_be_bytes());
            store.put_u64(&sess, &(100 + i).to_be_bytes(), i).unwrap();
        }
    }
    let logged = store.arena().stats().ext_nodes_logged();
    assert!(logged > 0, "the hazard path must have logged nodes");
    drop(store);
    arena.crash_seeded(8);
    let (_, report) = Store::open(&arena, options()).unwrap();
    assert!(!report.created);
    assert!(report.replayed_entries > 0);
    assert!(report.replayed_bytes >= report.replayed_entries * 8);
    // Create executes at epoch 2 (mkfs epoch sealed); the checkpoint
    // advances to 3, which the crash then fails.
    assert_eq!(report.failed_epoch, 3);
    assert_eq!(report.failed_epochs, vec![3]);
}

#[test]
fn failed_epochs_accumulate_across_crashes() {
    let arena = tracked();
    let (store, _) = Store::open(&arena, options()).unwrap();
    {
        let sess = store.session().unwrap();
        store.put_u64(&sess, b"x", 1).unwrap();
        store.checkpoint();
    }
    drop(store);
    for round in 0..5u64 {
        arena.crash_seeded(round);
        let (store, report) = Store::open(&arena, options()).unwrap();
        assert_eq!(report.failed_epochs.len(), round as usize + 1);
        let sess = store.session().unwrap();
        assert_eq!(store.get_u64(&sess, b"x"), Some(1));
        // Doomed mutation each round (never checkpointed).
        store.put_u64(&sess, b"doomed", round).unwrap();
    }
}

// ---------------------------------------------------------------------
// Shard-aware open: typed errors and per-shard reports
// ---------------------------------------------------------------------

#[test]
fn shard_count_mismatch_is_a_typed_error() {
    let arena = tracked();
    let (store, _) = Store::open(&arena, options().shards(2)).unwrap();
    {
        let sess = store.session().unwrap();
        store.put_u64(&sess, b"k", 7).unwrap();
        store.checkpoint();
    }
    drop(store);
    match Store::open(&arena, options().shards(4)) {
        Err(Error::ShardMismatch {
            requested,
            on_media,
        }) => {
            assert_eq!((requested, on_media), (4, 2));
        }
        other => panic!("expected ShardMismatch, got {other:?}"),
    }
    // The store is intact and reopens fine with the formatted count.
    let (store, report) = Store::open(&arena, options().shards(2)).unwrap();
    assert!(!report.created);
    let sess = store.session().unwrap();
    assert_eq!(store.get_u64(&sess, b"k"), Some(7));
}

#[test]
fn invalid_shard_counts_are_rejected_before_touching_media() {
    for bad in [0usize, 3, 6, 65, 128] {
        let arena = tracked();
        match Store::open(&arena, options().shards(bad)) {
            Err(Error::InvalidShardCount { requested, .. }) => assert_eq!(requested, bad),
            other => panic!("shards({bad}): expected InvalidShardCount, got {other:?}"),
        }
        // The blank arena must still be blank — the rejected open may not
        // have formatted it on the way to the error.
        assert!(
            !incll_pmem::superblock::has_magic(&arena),
            "shards({bad}): rejected open must not format the arena"
        );
    }
}

#[test]
fn key_routing_is_pinned_to_fnv1a64() {
    // Which shard owns a key is an on-media contract: a store reopened
    // by a build that routes differently would look for every key in the
    // wrong tree. The routing hash is FNV-1a 64 masked to the shard count
    // (FNV-1a("a") = 0xaf63dc4c8601ec8c, so "a" lands on 0 of 4 and 4 of
    // 8) and must never drift with, say, the log's entry checksum.
    let golden: [(&[u8], usize, usize); 9] = [
        (b"", 1, 5),
        (b"a", 0, 4),
        (b"key-000", 1, 1),
        (b"key-001", 2, 6),
        (b"user4219", 2, 6),
        (b"durable-key", 2, 6),
        (&[0, 0, 0, 0, 0, 0, 0, 1], 2, 2),
        (&[0xff; 8], 1, 5),
        (b"The quick brown fox jumps over the lazy dog", 0, 0),
    ];
    let open = |shards: usize| {
        let arena = tracked();
        Store::open(&arena, options().shards(shards)).unwrap().0
    };
    let (four, eight) = (open(4), open(8));
    for (key, of4, of8) in golden {
        assert_eq!(four.shard_of(key), of4, "shards(4) key {key:?}");
        assert_eq!(eight.shard_of(key), of8, "shards(8) key {key:?}");
    }
}

#[test]
fn older_layouts_fail_typed_and_unwritten() {
    use incll_pmem::superblock;
    assert_eq!(superblock::VERSION, 10);
    // Every older generation, on a real store rewound to that version
    // word: each differs from this build in superblock shape or log-entry
    // checksum, so its cells would be misread. The opener must return
    // UnsupportedLayout and write not one byte — never "helpfully"
    // reformat over user data.
    for stale_version in 1..superblock::VERSION {
        let arena = tracked();
        let (store, _) = Store::open(&arena, options()).unwrap();
        {
            let sess = store.session().unwrap();
            store.put_u64(&sess, b"precious", 1).unwrap();
            store.checkpoint();
        }
        drop(store);
        arena.pwrite_u64(superblock::SB_VERSION, stale_version);
        let image =
            |a: &PArena| -> Vec<u64> { (0..a.bump() / 8).map(|w| a.pread_u64(w * 8)).collect() };
        let before = image(&arena);
        match Store::open(&arena, options()) {
            Err(Error::UnsupportedLayout { found, expected }) => {
                assert_eq!(found, stale_version);
                assert_eq!(expected, 10);
            }
            other => panic!("v{stale_version}: expected UnsupportedLayout, got {other:?}"),
        }
        assert!(
            before == image(&arena),
            "v{stale_version}: refused open must not write"
        );
        // Nothing was wiped: restoring the version word brings the data
        // back.
        arena.pwrite_u64(superblock::SB_VERSION, superblock::VERSION);
        let (store, _) = Store::open(&arena, options()).unwrap();
        let sess = store.session().unwrap();
        assert_eq!(store.get_u64(&sess, b"precious"), Some(1));
    }
}

#[test]
fn truncated_or_garbage_shard_table_still_fails_typed() {
    use incll_pmem::superblock;
    // Foreign-version media whose shard cells are garbage (a torn
    // migration, a truncated copy): version screening must reject it
    // before any code path interprets the cells.
    let arena = tracked();
    arena.pwrite_u64(superblock::SB_MAGIC, superblock::MAGIC);
    arena.pwrite_u64(superblock::SB_VERSION, 2);
    arena.pwrite_u64(superblock::SB_TREE_META, 1);
    arena.pwrite_u64(superblock::SB_SHARD_COUNT, 999); // absurd count
    for i in 0..32u64 {
        arena.pwrite_u64(superblock::SB_SHARD_CELLS + i * 8, 0xDEAD_BEEF ^ i);
    }
    match Store::open(&arena, options()) {
        Err(Error::UnsupportedLayout { found, .. }) => assert_eq!(found, 2),
        other => panic!("expected UnsupportedLayout, got {other:?}"),
    }
    // The garbage is untouched (no repair attempts on foreign layouts).
    for i in 0..32u64 {
        assert_eq!(
            arena.pread_u64(superblock::SB_SHARD_CELLS + i * 8),
            0xDEAD_BEEF ^ i
        );
    }
}

#[test]
fn failed_epoch_set_compacts_at_checkpoints() {
    use incll_pmem::superblock;
    // Regression for unbounded failed-epoch growth: more crash/recover
    // rounds than MAX_FAILED_EPOCHS (119) used to end in
    // FailedEpochSetFull, because entries were never pruned. Now each
    // completed checkpoint sweeps the trees + allocator lists and compacts
    // every entry older than itself, so the set stays tiny forever.
    let arena = tracked();
    {
        let (store, _) = Store::open(&arena, options()).unwrap();
        let sess = store.session().unwrap();
        for i in 0..40u64 {
            store.put_u64(&sess, &i.to_be_bytes(), i).unwrap();
        }
        store.checkpoint();
    }
    for round in 0..(incll_pmem::superblock::MAX_FAILED_EPOCHS as u64 + 20) {
        arena.crash_seeded(round * 7 + 1);
        let (store, report) = Store::open(&arena, options())
            .unwrap_or_else(|e| panic!("round {round}: open failed with {e}"));
        assert!(
            report.failed_epochs.len() <= 3,
            "round {round}: set must stay compacted, got {:?}",
            report.failed_epochs
        );
        let sess = store.session().unwrap();
        // Doomed churn so every round has rollback work, then a committed
        // checkpoint whose advance compacts the set.
        store
            .put_u64(&sess, &(round % 40).to_be_bytes(), 9999)
            .unwrap();
        store.checkpoint();
        assert!(
            superblock::failed_epochs_for(&arena, 0).is_empty(),
            "round {round}: the completed checkpoint must prune the set"
        );
        store.put_u64(&sess, b"doomed-tail", round).unwrap(); // dies with the crash
    }
    // Data is still exactly the per-round committed state.
    let (store, _) = Store::open(&arena, options()).unwrap();
    let sess = store.session().unwrap();
    assert_eq!(store.get_u64(&sess, b"doomed-tail"), None);
    let mut n = 0;
    store.scan(&sess, b"", usize::MAX, &mut |_, _| n += 1);
    assert_eq!(n, 40);
}

#[test]
fn sharded_failed_sets_compact_independently() {
    use incll_pmem::superblock;
    // A hot shard checkpointing on its own cadence compacts its own set
    // while a never-advancing shard keeps accumulating — bounded only by
    // its (now-pruneable) capacity.
    let arena = tracked();
    let opts = options().shards(2);
    // Find one key per shard.
    let (store, _) = Store::open(&arena, opts.clone()).unwrap();
    let key_for = |shard: usize| {
        (0u64..)
            .map(|i| i.to_be_bytes())
            .find(|k| store.shard_of(k) == shard)
            .unwrap()
    };
    let (k0, k1) = (key_for(0), key_for(1));
    {
        let sess = store.session().unwrap();
        store.put_u64(&sess, &k0, 1).unwrap();
        store.put_u64(&sess, &k1, 1).unwrap();
        store.checkpoint();
    }
    drop(store);
    // Stay well inside shard 1's capacity: a shard that *never* completes
    // a checkpoint is still bounded by its set size — compaction needs a
    // completed boundary to anchor to.
    let rounds = 11u64;
    for round in 0..rounds {
        arena.crash_seeded(round + 900);
        let (store, _) = Store::open(&arena, opts.clone()).unwrap();
        let sess = store.session().unwrap();
        // Shard 0 commits work and checkpoints (compacting its set);
        // shard 1 only ever does doomed work, so its set keeps growing.
        store.put_u64(&sess, &k0, round).unwrap();
        store.checkpoint_shard(0);
        assert!(superblock::failed_epochs_for(&arena, 0).is_empty());
        assert_eq!(
            superblock::failed_epochs_for(&arena, 1).len(),
            round as usize + 1,
            "shard 1 has never checkpointed: its set must accumulate"
        );
        store.put_u64(&sess, &k1, round).unwrap(); // doomed every round
    }
    // Shard 1 finally checkpoints: its set compacts too, unblocking
    // unlimited further crashes, and both shards carry their own
    // boundaries' data.
    arena.crash_seeded(990);
    let (store, report) = Store::open(&arena, opts.clone()).unwrap();
    assert!(report.per_shard[1].failed_epoch > 1);
    {
        let sess = store.session().unwrap();
        assert_eq!(store.get_u64(&sess, &k1), Some(1), "shard 1 rolls back");
        assert_eq!(store.get_u64(&sess, &k0), Some(rounds - 1));
        store.checkpoint_shard(1);
    }
    assert!(superblock::failed_epochs_for(&arena, 1).is_empty());
    drop(store);
    // And the compacted shard survives many more crash rounds.
    for round in 0..5u64 {
        arena.crash_seeded(round + 2000);
        let (store, _) = Store::open(&arena, opts.clone()).unwrap();
        let sess = store.session().unwrap();
        store.put_u64(&sess, &k1, 100 + round).unwrap();
        store.checkpoint_shard(1);
        assert!(superblock::failed_epochs_for(&arena, 1).is_empty());
    }
}

#[test]
fn recovery_report_aggregates_per_shard_counts() {
    let arena = tracked();
    let opts = options().shards(4);
    let (store, _) = Store::open(&arena, opts.clone()).unwrap();
    {
        let sess = store.session().unwrap();
        for i in 0..80u64 {
            store.put_u64(&sess, &i.to_be_bytes(), i).unwrap();
        }
        store.checkpoint();
        // Force external logging on every shard: remove-then-insert in
        // one epoch is the InCLLp hazard path.
        for i in 0..80u64 {
            store.remove(&sess, &i.to_be_bytes());
            store.put_u64(&sess, &(1000 + i).to_be_bytes(), i).unwrap();
        }
    }
    drop(store);
    arena.crash_seeded(44);
    let (_, report) = Store::open(&arena, opts).unwrap();
    assert_eq!(report.per_shard.len(), 4);
    for (i, s) in report.per_shard.iter().enumerate() {
        assert_eq!(s.shard, i);
    }
    assert_eq!(
        report
            .per_shard
            .iter()
            .map(|s| s.replayed_entries)
            .sum::<u64>(),
        report.replayed_entries
    );
    assert_eq!(
        report
            .per_shard
            .iter()
            .map(|s| s.replayed_bytes)
            .sum::<u64>(),
        report.replayed_bytes
    );
    assert!(
        report
            .per_shard
            .iter()
            .filter(|s| s.replayed_entries > 0)
            .count()
            >= 2,
        "the hazard churn must have logged on several shards: {:?}",
        report.per_shard
    );
}

#[test]
fn recovery_report_names_workers_and_per_shard_times() {
    let arena = tracked();
    let opts = |workers: usize| options().shards(8).recovery_threads(workers);
    let (store, created) = Store::open(&arena, opts(1)).unwrap();
    assert_eq!(
        created.parallel_workers, 0,
        "a created store recovered nothing; no workers ran"
    );
    {
        let sess = store.session().unwrap();
        for i in 0..60u64 {
            store.put_u64(&sess, &i.to_be_bytes(), i).unwrap();
        }
        store.checkpoint();
        for i in 0..60u64 {
            store.remove(&sess, &i.to_be_bytes());
            store.put_u64(&sess, &(500 + i).to_be_bytes(), i).unwrap();
        }
    }
    drop(store);
    arena.crash_seeded(51);
    // Asking for more workers than shards clamps to the shard count.
    let (store, report) = Store::open(&arena, opts(16)).unwrap();
    assert_eq!(report.parallel_workers, 8, "clamped to the shard count");
    assert_eq!(report.per_shard.len(), 8);
    for s in &report.per_shard {
        assert_eq!(s.recovered_epoch, s.failed_epoch + 1);
    }
    // Per-shard wall times are recorded inside the workers; the overall
    // eager phase must at least cover the slowest shard's time.
    let max_shard = report
        .per_shard
        .iter()
        .map(|s| s.replay_time)
        .max()
        .unwrap();
    assert!(
        report.replay_time >= max_shard,
        "the eager phase ({:?}) must cover the slowest shard ({max_shard:?})",
        report.replay_time
    );
    drop(store);
    arena.crash_seeded(52);
    // Sequential recovery (explicit, immune to INCLL_RECOVERY_THREADS).
    let (_, report) = Store::open(&arena, opts(1)).unwrap();
    assert_eq!(report.parallel_workers, 1);
}

#[test]
fn exec_epoch_monotonically_grows() {
    let arena = tracked();
    let (store, _) = Store::open(&arena, options()).unwrap();
    store.checkpoint();
    store.checkpoint();
    let before = store.epoch_manager().current_epoch();
    drop(store);
    arena.crash_seeded(1);
    let (store, _) = Store::open(&arena, options()).unwrap();
    assert!(store.epoch_manager().current_epoch() > before);
    assert_eq!(
        store.epoch_manager().exec_epoch(),
        store.epoch_manager().current_epoch()
    );
}

#[test]
fn checkpoint_after_recovery_clears_failed_run() {
    // Once an epoch completes post-recovery, older log debris must never
    // replay again.
    let arena = tracked();
    let (store, _) = Store::open(&arena, options()).unwrap();
    {
        let sess = store.session().unwrap();
        for i in 0..30u64 {
            store.put_u64(&sess, &i.to_be_bytes(), i).unwrap();
        }
        store.checkpoint();
        for i in 0..30u64 {
            store.put_u64(&sess, &i.to_be_bytes(), 999).unwrap();
        }
    }
    drop(store);
    arena.crash_seeded(3);
    let (store, r1) = Store::open(&arena, options()).unwrap();
    assert!(r1.replayed_entries > 0 || arena.stats().ext_nodes_logged() == 0);
    {
        let sess = store.session().unwrap();
        for i in 0..30u64 {
            store.put_u64(&sess, &i.to_be_bytes(), 7).unwrap();
        }
        store.checkpoint(); // completes: resets the log
    }
    drop(store);
    arena.crash_seeded(4);
    let (store, r2) = Store::open(&arena, options()).unwrap();
    assert_eq!(
        r2.replayed_entries, 0,
        "a completed checkpoint must invalidate old entries"
    );
    let sess = store.session().unwrap();
    for i in 0..30u64 {
        assert_eq!(store.get_u64(&sess, &i.to_be_bytes()), Some(7));
    }
}

#[test]
fn allocator_and_tree_agree_after_recovery() {
    // Every value reachable from the store reads back correctly after a
    // crash + recovery + further churn (no use-after-free of buffers) —
    // exercised across size classes via byte values.
    let arena = tracked();
    let bval = |i: u64, tag: u64| -> Vec<u8> {
        let len = ((i * 31 + tag) % 400) as usize;
        (0..len)
            .map(|j| (tag as u8).wrapping_add(j as u8))
            .collect()
    };
    let (store, _) = Store::open(&arena, options()).unwrap();
    {
        let sess = store.session().unwrap();
        for i in 0..300u64 {
            store.put(&sess, &i.to_be_bytes(), &bval(i, 0)).unwrap();
        }
        store.checkpoint();
        for i in 0..300u64 {
            store.put(&sess, &i.to_be_bytes(), &bval(i, 1)).unwrap(); // churn buffers
        }
    }
    drop(store);
    arena.crash_seeded(12);
    let (store, _) = Store::open(&arena, options()).unwrap();
    let sess = store.session().unwrap();
    // Post-recovery churn reuses reverted buffers.
    for i in 0..300u64 {
        assert_eq!(store.get(&sess, &i.to_be_bytes()), Some(bval(i, 0)));
        store.put(&sess, &i.to_be_bytes(), &bval(i, 5)).unwrap();
    }
    store.checkpoint();
    for i in 0..300u64 {
        assert_eq!(store.get(&sess, &i.to_be_bytes()), Some(bval(i, 5)));
    }
}

#[test]
fn a_hot_shard_grows_past_its_static_share_and_uniform_pressure_claims_evenly() {
    // The extent pool is shared: a fill routed to ONE of 8 shards must
    // complete by claiming extents a static one-region-per-shard split
    // could never have handed it (it would be out of memory at 1/8th of
    // the arena with 7/8ths free), and balanced pressure must spread its
    // claims evenly. 3000-byte values land in the 4 KiB size class, so
    // 3000 puts write ~12 MiB into a 64 MiB arena.
    for skewed in [true, false] {
        let arena = PArena::builder().capacity_bytes(64 << 20).build().unwrap();
        let (store, _) = Store::open(&arena, Options::new().threads(2).shards(8)).unwrap();
        let sess = store.session().unwrap();
        let hot = 0usize;
        let val = vec![0x6bu8; 3000];
        let keys = (0u64..)
            .map(|i| format!("eg{i}").into_bytes())
            .filter(|key| !skewed || store.shard_of(key) == hot);
        for (n, key) in keys.take(3000).enumerate() {
            store
                .put(&sess, &key, &val)
                .unwrap_or_else(|e| panic!("skewed={skewed}: put {n} failed: {e}"));
            if (n + 1).is_multiple_of(512) {
                store.checkpoint(); // bound the undo-log tail
            }
        }
        let stats = store
            .extent_stats()
            .expect("every store carves from the pool");
        let owned = &stats.owned_per_shard;
        if skewed {
            assert!(
                owned[hot] > stats.extent_count / 8,
                "hot shard owns {} of {} extents: no more than a static split's share",
                owned[hot],
                stats.extent_count
            );
        } else {
            let (min, max) = (owned.iter().min().unwrap(), owned.iter().max().unwrap());
            assert!(max - min <= 2, "uniform fill claimed unevenly: {owned:?}");
        }
    }
}

#[test]
fn clean_restart_cycles_preserve_data() {
    let arena = tracked();
    let mut expected = Vec::new();
    {
        let (store, _) = Store::open(&arena, options()).unwrap();
        let sess = store.session().unwrap();
        for i in 0..100u64 {
            store.put_u64(&sess, &i.to_be_bytes(), i).unwrap();
            expected.push((i.to_be_bytes().to_vec(), i.to_le_bytes().to_vec()));
        }
        store.checkpoint();
    }
    for cycle in 0..4u64 {
        let (store, _) = Store::open(&arena, options()).unwrap();
        let sess = store.session().unwrap();
        let got: Vec<(Vec<u8>, Vec<u8>)> = store.iter(&sess).collect();
        assert_eq!(got, expected, "cycle {cycle}");
        // Add one key per cycle, checkpoint it.
        let k = (1000 + cycle).to_be_bytes();
        store.put_u64(&sess, &k, cycle).unwrap();
        expected.push((k.to_vec(), cycle.to_le_bytes().to_vec()));
        expected.sort();
        store.checkpoint();
    }
}

#[test]
fn stats_reflect_recovery_work() {
    let arena = tracked();
    let (store, _) = Store::open(&arena, options()).unwrap();
    {
        let sess = store.session().unwrap();
        for i in 0..100u64 {
            store.put_u64(&sess, &i.to_be_bytes(), i).unwrap();
        }
        store.checkpoint();
        for i in 0..100u64 {
            store.put_u64(&sess, &i.to_be_bytes(), i * 2).unwrap();
        }
    }
    drop(store);
    arena.crash_seeded(21);
    let before = arena.stats().snapshot();
    let (store, _) = Store::open(&arena, options()).unwrap();
    let sess = store.session().unwrap();
    let mut n = 0u64;
    store.scan(&sess, b"", usize::MAX, &mut |_, _| n += 1);
    let d = arena.stats().snapshot().delta(&before);
    assert_eq!(n, 100);
    assert!(
        d.nodes_lazy_recovered > 0,
        "the scan must have lazily recovered leaves"
    );
}
