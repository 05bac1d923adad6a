//! Scan edge cases on the durable store: empty stores, boundary starts,
//! layer crossings, limits, iterator range bounds, scans racing recovery,
//! and the k-way merge across keyspace shards.

use incll_repro::prelude::*;

/// Shard counts the merge-sensitive cases run at (1 = the native
/// single-tree scan, 2 and 8 = genuine merges).
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

fn store_with(shards: usize) -> (PArena, Store, Session) {
    let arena = PArena::builder()
        .capacity_bytes(32 << 20)
        .tracked(true)
        .build()
        .unwrap();
    let (s, _) = Store::open(
        &arena,
        Options::new()
            .threads(1)
            .log_bytes_per_thread(1 << 20)
            .shards(shards),
    )
    .unwrap();
    let sess = s.session().unwrap();
    (arena, s, sess)
}

fn store() -> (PArena, Store, Session) {
    store_with(1)
}

fn val_of(v: &[u8]) -> u64 {
    u64::from_le_bytes(v[..8].try_into().unwrap())
}

#[test]
fn scan_of_empty_store_returns_nothing() {
    let (_a, s, sess) = store();
    let mut hits = 0;
    assert_eq!(s.scan(&sess, b"", 10, &mut |_, _| hits += 1), 0);
    assert_eq!(s.scan(&sess, b"zzz", usize::MAX, &mut |_, _| hits += 1), 0);
    assert_eq!(hits, 0);
    assert_eq!(s.iter(&sess).count(), 0);
}

#[test]
fn scan_limit_zero_is_a_noop() {
    let (_a, s, sess) = store();
    s.put(&sess, b"a", b"1").unwrap();
    assert_eq!(s.scan(&sess, b"", 0, &mut |_, _| panic!("no visits")), 0);
}

#[test]
fn scan_start_past_last_key() {
    let (_a, s, sess) = store();
    for i in 0..50u64 {
        s.put_u64(&sess, &i.to_be_bytes(), i).unwrap();
    }
    let mut hits = 0;
    s.scan(&sess, &100u64.to_be_bytes(), 10, &mut |_, _| hits += 1);
    assert_eq!(hits, 0);
}

#[test]
fn scan_start_exactly_on_a_key_is_inclusive() {
    let (_a, s, sess) = store();
    for i in 0..20u64 {
        s.put_u64(&sess, &i.to_be_bytes(), i).unwrap();
    }
    let mut got = Vec::new();
    s.scan(&sess, &7u64.to_be_bytes(), 3, &mut |_, v| {
        got.push(val_of(v))
    });
    assert_eq!(got, vec![7, 8, 9]);
}

#[test]
fn scan_start_between_keys_rounds_up() {
    let (_a, s, sess) = store();
    for i in (0..40u64).step_by(4) {
        s.put_u64(&sess, &i.to_be_bytes(), i).unwrap();
    }
    let mut got = Vec::new();
    s.scan(&sess, &5u64.to_be_bytes(), 2, &mut |_, v| {
        got.push(val_of(v))
    });
    assert_eq!(got, vec![8, 12]);
}

#[test]
fn scan_descends_into_layers_at_the_start_key() {
    let (_a, s, sess) = store();
    // One slice prefix with several suffixes → a sub-layer.
    for suffix in ["", "-a", "-b", "-c"] {
        s.put_u64(
            &sess,
            format!("prefix01{suffix}").as_bytes(),
            suffix.len() as u64,
        )
        .unwrap();
    }
    s.put_u64(&sess, b"prefix02", 99).unwrap();
    // Start *inside* the layer: must pick up -b, -c, then the next slice.
    let mut got = Vec::new();
    s.scan(&sess, b"prefix01-b", 10, &mut |k, _| {
        got.push(String::from_utf8_lossy(k).into_owned())
    });
    assert_eq!(got, vec!["prefix01-b", "prefix01-c", "prefix02"]);
}

#[test]
fn scan_emits_full_keys_across_layers() {
    let (_a, s, sess) = store();
    let long = vec![b'q'; 30];
    s.put(&sess, &long, b"deep").unwrap();
    s.put(&sess, b"q", b"shallow").unwrap();
    let got: Vec<(Vec<u8>, Vec<u8>)> = s.iter(&sess).collect();
    assert_eq!(
        got,
        vec![
            (b"q".to_vec(), b"shallow".to_vec()),
            (long.clone(), b"deep".to_vec()),
        ]
    );
}

#[test]
fn scan_spanning_many_leaves_with_removals() {
    let (_a, s, sess) = store();
    for i in 0..600u64 {
        s.put_u64(&sess, &i.to_be_bytes(), i).unwrap();
    }
    // Punch holes (including whole-leaf ranges).
    for i in 100..250u64 {
        assert!(s.remove(&sess, &i.to_be_bytes()));
    }
    let mut got = Vec::new();
    s.scan(&sess, &90u64.to_be_bytes(), 20, &mut |_, v| {
        got.push(val_of(v))
    });
    let expect: Vec<u64> = (90..100).chain(250..260).collect();
    assert_eq!(
        got, expect,
        "scan must skip removed ranges and empty leaves"
    );
}

// ---------------------------------------------------------------------
// The iterator form
// ---------------------------------------------------------------------

#[test]
fn range_bounds_cover_all_four_shapes() {
    let (_a, s, sess) = store();
    for i in 0..20u64 {
        s.put_u64(&sess, &i.to_be_bytes(), i).unwrap();
    }
    let k = |i: u64| i.to_be_bytes();
    let vals = |it: RangeScan<'_>| -> Vec<u64> { it.map(|(_, v)| val_of(&v)).collect() };

    // start..end (half-open)
    assert_eq!(vals(s.range(&sess, &k(5)[..]..&k(9)[..])), vec![5, 6, 7, 8]);
    // start..=end (inclusive)
    assert_eq!(
        vals(s.range(&sess, &k(5)[..]..=&k(9)[..])),
        vec![5, 6, 7, 8, 9]
    );
    // ..end (from the start)
    assert_eq!(vals(s.range(&sess, ..&k(3)[..])), vec![0, 1, 2]);
    // start.. (to the end)
    assert_eq!(vals(s.range(&sess, &k(17)[..]..)), vec![17, 18, 19]);
    // full
    assert_eq!(vals(s.iter(&sess)).len(), 20);
    // empty range
    assert_eq!(
        vals(s.range(&sess, &k(9)[..]..&k(5)[..])),
        Vec::<u64>::new()
    );
}

#[test]
fn range_spans_many_refill_batches() {
    // More keys than one internal batch: the iterator must stitch batches
    // without gaps or duplicates.
    let (_a, s, sess) = store();
    for i in 0..1000u64 {
        s.put_u64(&sess, &i.to_be_bytes(), i).unwrap();
    }
    let got: Vec<u64> = s
        .range(&sess, &100u64.to_be_bytes()[..]..&900u64.to_be_bytes()[..])
        .map(|(_, v)| val_of(&v))
        .collect();
    let expect: Vec<u64> = (100..900).collect();
    assert_eq!(got, expect);
}

#[test]
fn range_excluded_start_and_prefix_keys() {
    let (_a, s, sess) = store();
    for key in [&b"app"[..], b"apple", b"apple-pie", b"banana"] {
        s.put(&sess, key, key).unwrap();
    }
    // An Excluded start on an existing key skips exactly that key (the
    // next key up may be its extension).
    use std::ops::Bound;
    let got: Vec<Vec<u8>> = s
        .range::<&[u8], _>(&sess, (Bound::Excluded(&b"apple"[..]), Bound::Unbounded))
        .map(|(key, _)| key)
        .collect();
    assert_eq!(got, vec![b"apple-pie".to_vec(), b"banana".to_vec()]);
}

#[test]
fn range_sees_checkpointed_state_after_crash() {
    let (arena, s, sess) = store();
    for i in 0..50u64 {
        s.put_u64(&sess, &i.to_be_bytes(), i).unwrap();
    }
    s.checkpoint();
    for i in 50..80u64 {
        s.put_u64(&sess, &i.to_be_bytes(), i).unwrap(); // doomed
    }
    drop(sess);
    drop(s);
    arena.crash_seeded(77);
    let (s, _) = Store::open(
        &arena,
        Options::new().threads(1).log_bytes_per_thread(1 << 20),
    )
    .unwrap();
    let sess = s.session().unwrap();
    assert_eq!(s.iter(&sess).count(), 50);
}

#[test]
fn scan_immediately_after_recovery_forces_lazy_repairs() {
    let (arena, s, sess) = store();
    for i in 0..300u64 {
        s.put_u64(&sess, &i.to_be_bytes(), i).unwrap();
    }
    s.checkpoint();
    for i in 0..300u64 {
        s.put_u64(&sess, &i.to_be_bytes(), 0xDEAD).unwrap();
    }
    drop(sess);
    drop(s);
    arena.crash_seeded(55);
    let (s2, _) = Store::open(
        &arena,
        Options::new().threads(1).log_bytes_per_thread(1 << 20),
    )
    .unwrap();
    let sess = s2.session().unwrap();
    // The very first operation is a full scan: every leaf recovers lazily
    // under the scan's feet.
    let got: Vec<(u64, u64)> = s2
        .iter(&sess)
        .map(|(k, v)| {
            (
                u64::from_be_bytes(k.as_slice().try_into().unwrap()),
                val_of(&v),
            )
        })
        .collect();
    let expect: Vec<(u64, u64)> = (0..300).map(|i| (i, i)).collect();
    assert_eq!(got, expect);
    assert!(arena.stats().nodes_lazy_recovered() > 0);
}

// ---------------------------------------------------------------------
// Merged scans across shard boundaries
// ---------------------------------------------------------------------

#[test]
fn reverse_ordered_inserts_scan_globally_sorted_at_every_shard_count() {
    for shards in SHARD_COUNTS {
        let (_a, s, sess) = store_with(shards);
        assert_eq!(s.shard_count(), shards);
        // Insert in strictly descending order so no shard receives its
        // keys pre-sorted relative to the others' interleaving.
        for i in (0..500u64).rev() {
            s.put_u64(&sess, &i.to_be_bytes(), i).unwrap();
        }
        let got: Vec<u64> = s
            .iter(&sess)
            .map(|(k, _)| u64::from_be_bytes(k.as_slice().try_into().unwrap()))
            .collect();
        let expect: Vec<u64> = (0..500).collect();
        assert_eq!(got, expect, "shards={shards}");
        // The callback form agrees, including mid-stream starts + limits.
        let mut vals = Vec::new();
        s.scan(&sess, &123u64.to_be_bytes(), 7, &mut |_, v| {
            vals.push(u64::from_le_bytes(v[..8].try_into().unwrap()))
        });
        assert_eq!(vals, (123..130).collect::<Vec<u64>>(), "shards={shards}");
    }
}

#[test]
fn empty_and_singleton_shards_do_not_disturb_the_merge() {
    // 8 shards, 3 keys: most shards are empty, and the merge must neither
    // stall on them nor invent entries.
    let (_a, s, sess) = store_with(8);
    let keys: [&[u8]; 3] = [b"alpha", b"mid", b"zed"];
    for k in keys {
        s.put(&sess, k, k).unwrap();
    }
    let got: Vec<Vec<u8>> = s.iter(&sess).map(|(k, _)| k).collect();
    assert_eq!(
        got,
        vec![b"alpha".to_vec(), b"mid".to_vec(), b"zed".to_vec()]
    );
    let mut hits = 0;
    assert_eq!(s.scan(&sess, b"aa", usize::MAX, &mut |_, _| hits += 1), 3);
    assert_eq!(hits, 3);
    assert_eq!(s.scan(&sess, b"zz", 10, &mut |_, _| panic!("past end")), 0);
}

#[test]
fn range_confined_to_a_single_shard_hit() {
    // Keys chosen so a whole contiguous key range lives on one shard:
    // the merge must drain that one cursor and ignore the rest.
    let (_a, s, sess) = store_with(8);
    // Find 6 keys routing to shard 0 and give them a common prefix region.
    let mut on_shard0 = Vec::new();
    let mut elsewhere = Vec::new();
    for i in 0..4000u64 {
        let key = format!("key-{i:06}").into_bytes();
        if s.shard_of(&key) == 0 && on_shard0.len() < 6 {
            on_shard0.push(key);
        } else if elsewhere.len() < 50 {
            elsewhere.push(key);
        }
    }
    assert_eq!(on_shard0.len(), 6, "4000 candidates must yield 6 hits");
    for k in on_shard0.iter().chain(&elsewhere) {
        s.put(&sess, k, k).unwrap();
    }
    // A range holding exactly one shard-0 key.
    let target = &on_shard0[2];
    let got: Vec<Vec<u8>> = s
        .range(&sess, target.as_slice()..=target.as_slice())
        .map(|(k, _)| k)
        .collect();
    assert_eq!(got, vec![target.clone()]);
}

#[test]
fn bound_exclusive_edges_hold_at_every_shard_count() {
    use std::ops::Bound;
    for shards in SHARD_COUNTS {
        let (_a, s, sess) = store_with(shards);
        for i in 0..40u64 {
            s.put_u64(&sess, &i.to_be_bytes(), i).unwrap();
        }
        let k = |i: u64| i.to_be_bytes();
        let vals = |it: RangeScan<'_>| -> Vec<u64> {
            it.map(|(key, _)| u64::from_be_bytes(key.as_slice().try_into().unwrap()))
                .collect()
        };
        // Excluded start, excluded end.
        let got = vals(s.range::<&[u8], _>(
            &sess,
            (Bound::Excluded(&k(10)[..]), Bound::Excluded(&k(14)[..])),
        ));
        assert_eq!(got, vec![11, 12, 13], "shards={shards}");
        // Excluded start == last key -> empty.
        let got = vals(s.range::<&[u8], _>(&sess, (Bound::Excluded(&k(39)[..]), Bound::Unbounded)));
        assert_eq!(got, Vec::<u64>::new(), "shards={shards}");
        // Inverted exclusive range -> empty, at any shard count.
        let got = vals(s.range(&sess, &k(20)[..]..&k(10)[..]));
        assert_eq!(got, Vec::<u64>::new(), "shards={shards}");
        // Half-open range straddling everything.
        let got = vals(s.range(&sess, &k(38)[..]..&k(40)[..]));
        assert_eq!(got, vec![38, 39], "shards={shards}");
    }
}

#[test]
fn merged_range_spans_many_refill_batches_on_sharded_stores() {
    // More keys than one per-shard batch (64): cursors re-arm mid-merge.
    for shards in [2usize, 8] {
        let (_a, s, sess) = store_with(shards);
        for i in 0..1500u64 {
            s.put_u64(&sess, &i.to_be_bytes(), i).unwrap();
        }
        let got: Vec<u64> = s
            .range(&sess, &100u64.to_be_bytes()[..]..&1400u64.to_be_bytes()[..])
            .map(|(_, v)| val_of(&v))
            .collect();
        let expect: Vec<u64> = (100..1400).collect();
        assert_eq!(got, expect, "shards={shards}");
    }
}

#[test]
fn sharded_scan_sees_checkpointed_state_after_crash() {
    for shards in SHARD_COUNTS {
        let (arena, s, sess) = store_with(shards);
        for i in 0..120u64 {
            s.put_u64(&sess, &i.to_be_bytes(), i).unwrap();
        }
        s.checkpoint();
        for i in 120..200u64 {
            s.put_u64(&sess, &i.to_be_bytes(), i).unwrap(); // doomed, lands on all shards
        }
        drop(sess);
        drop(s);
        arena.crash_seeded(2000 + shards as u64);
        let (s, _) = Store::open(
            &arena,
            Options::new()
                .threads(1)
                .log_bytes_per_thread(1 << 20)
                .shards(shards),
        )
        .unwrap();
        let sess = s.session().unwrap();
        let got: Vec<u64> = s
            .iter(&sess)
            .map(|(k, _)| u64::from_be_bytes(k.as_slice().try_into().unwrap()))
            .collect();
        assert_eq!(got, (0..120).collect::<Vec<u64>>(), "shards={shards}");
    }
}

// ---------------------------------------------------------------------
// Write batches committing between refills
// ---------------------------------------------------------------------

/// Base data for the refill-atomicity cases: 200 `a-` keys plus 6 `x-del-`
/// victims, spread over 2 shards, so a paused merge holds per-shard
/// buffers strictly inside the `a-` range.
fn refill_fixture() -> (PArena, Store, Session) {
    let (arena, s, sess) = store_with(2);
    for i in 0..200u64 {
        s.put(&sess, format!("a-{i:04}").as_bytes(), &i.to_le_bytes())
            .unwrap();
    }
    for i in 0..6u64 {
        s.put(&sess, format!("x-del-{i}").as_bytes(), b"victim")
            .unwrap();
    }
    (arena, s, sess)
}

#[test]
fn batch_committed_between_refills_lands_atomically_in_the_scan() {
    // A cross-shard batch committing while a range scan is paused between
    // refills must be observed all-or-nothing by every later refill: all
    // of its not-yet-buffered effects appear, never a prefix.
    let (_a, s, sess) = refill_fixture();
    let mut it = s.iter(&sess);
    // Drain past one internal refill (64) but keep every shard cursor
    // alive and buffered well inside the `a-` range.
    let mut seen: Vec<Vec<u8>> = Vec::new();
    for _ in 0..74 {
        seen.push(it.next().expect("200+ keys remain").0);
    }

    let mut batch = sess.batch();
    for i in 0..8u64 {
        batch
            .put(format!("x-new-{i}").as_bytes(), &i.to_le_bytes())
            .unwrap();
    }
    for i in 0..6u64 {
        batch.delete(format!("x-del-{i}").as_bytes()).unwrap();
    }
    batch.put(b"a-0190", b"updated").unwrap();
    assert!(
        batch.commit().unwrap() > 0,
        "the fixture batch must be cross-shard"
    );

    let rest: Vec<(Vec<u8>, Vec<u8>)> = it.collect();
    let keys: Vec<&[u8]> = rest.iter().map(|(k, _)| k.as_slice()).collect();
    // No tearing: every batch put is present, every batch delete absent.
    for i in 0..8u64 {
        let k = format!("x-new-{i}").into_bytes();
        assert!(keys.contains(&k.as_slice()), "missing {i}: torn batch");
    }
    assert!(
        !keys.iter().any(|k| k.starts_with(b"x-del-")),
        "a deleted victim survived: torn batch"
    );
    assert_eq!(
        rest.iter()
            .find(|(k, _)| k == b"a-0190")
            .map(|(_, v)| v.as_slice()),
        Some(&b"updated"[..]),
        "an ahead-of-cursor overwrite must surface at the next refill"
    );
    // The stitched stream stays sorted and duplicate-free.
    let mut all = seen;
    all.extend(rest.iter().map(|(k, _)| k.clone()));
    let mut sorted = all.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(all, sorted, "refill stitching reordered or duplicated keys");
}

#[test]
fn staged_batch_never_leaks_into_a_scan() {
    // Intents without a commit record are staged media, not data: a scan
    // paused across the staging must see none of it.
    let (_a, s, sess) = refill_fixture();
    let mut it = s.iter(&sess);
    for _ in 0..74 {
        it.next().expect("200+ keys remain");
    }
    let mut batch = sess.batch();
    for i in 0..8u64 {
        batch
            .put(format!("x-new-{i}").as_bytes(), &i.to_le_bytes())
            .unwrap();
    }
    batch.delete(b"x-del-0").unwrap();
    assert!(batch.stage_without_commit().unwrap() > 0);

    let rest: Vec<Vec<u8>> = it.map(|(k, _)| k).collect();
    assert!(
        !rest.iter().any(|k| k.starts_with(b"x-new-")),
        "staged puts leaked into the scan"
    );
    assert_eq!(
        rest.iter().filter(|k| k.starts_with(b"x-del-")).count(),
        6,
        "a staged delete took effect"
    );
}

#[test]
fn transient_tree_scan_edges_match() {
    // The same edge semantics hold for the MT baseline.
    let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
    let mgr = EpochManager::new(arena, EpochOptions::transient());
    let t = Masstree::new(mgr, TransientAlloc::new(AllocMode::Global, 1, None));
    let ctx = t.bench_ctx(0);
    let mut hits = 0;
    assert_eq!(t.scan(&ctx, b"", 10, &mut |_, _| hits += 1), 0);
    for i in (0..40u64).step_by(4) {
        t.put(&ctx, &i.to_be_bytes(), i);
    }
    let mut got = Vec::new();
    t.scan(&ctx, &5u64.to_be_bytes(), 2, &mut |_, v| got.push(v));
    assert_eq!(got, vec![8, 12]);
}
