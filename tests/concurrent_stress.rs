//! Concurrent stress across crates: worker sessions hammer each system
//! while the epoch driver checkpoints at a fast cadence; afterwards the
//! structures must be fully coherent.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use incll_repro::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WORKERS: usize = 3;
const KEYS: u64 = 3_000;

fn val_of(v: &[u8]) -> u64 {
    u64::from_le_bytes(v[..8].try_into().unwrap())
}

/// Every worker writes values tagged with its session id into its own key
/// slice; afterwards each key holds a value its owner wrote.
fn stress_durable(incll_enabled: bool, shards: usize) {
    let arena = PArena::builder().capacity_bytes(128 << 20).build().unwrap();
    let (store, _) = Store::open(
        &arena,
        Options::new()
            .threads(WORKERS)
            .log_bytes_per_thread(8 << 20)
            .incll(incll_enabled)
            .shards(shards),
    )
    .unwrap();
    let driver = AdvanceDriver::spawn(store.epoch_manager().clone(), Duration::from_millis(4));
    let ops_done = AtomicU64::new(0);
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            let store = store.clone();
            let ops_done = &ops_done;
            let stop = &stop;
            s.spawn(move || {
                let sess = store.session().expect("one slot per worker");
                let tid = sess.tid();
                let mut rng = StdRng::seed_from_u64(tid as u64 + 1);
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Keys partitioned by tid => deterministic ownership.
                    let k = (rng.gen_range(0..KEYS / WORKERS as u64) * WORKERS as u64 + tid as u64)
                        .to_be_bytes();
                    match rng.gen_range(0..10) {
                        0..=5 => {
                            store
                                .put_u64(&sess, &k, (tid as u64) << 56 | local)
                                .unwrap();
                            local += 1;
                        }
                        6..=7 => {
                            store.remove(&sess, &k);
                        }
                        _ => {
                            if let Some(v) = store.get_u64(&sess, &k) {
                                assert_eq!(
                                    v >> 56,
                                    tid as u64,
                                    "worker {tid} read another worker's value"
                                );
                            }
                        }
                    }
                    ops_done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        std::thread::sleep(Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
    });
    drop(driver);
    assert!(ops_done.load(Ordering::Relaxed) > 1_000);

    // Full-store coherence: iteration is sorted, values belong to owners.
    let sess = store.session().unwrap();
    let mut prev: Option<Vec<u8>> = None;
    for (k, v) in store.iter(&sess) {
        if let Some(p) = &prev {
            assert!(p < &k, "iteration out of order");
        }
        let idx = u64::from_be_bytes(k.as_slice().try_into().unwrap());
        assert_eq!(
            val_of(&v) >> 56,
            idx % WORKERS as u64,
            "value owner mismatch"
        );
        prev = Some(k);
    }
}

#[test]
fn durable_store_concurrent_stress() {
    stress_durable(true, 1);
}

#[test]
fn logging_mode_concurrent_stress() {
    stress_durable(false, 1);
}

#[test]
fn sharded_store_concurrent_stress() {
    // Same ownership/coherence bar with the keyspace hash partitioned:
    // routing must never send two workers' slices to each other, and the
    // full-store iteration at the end is the k-way merge under load.
    stress_durable(true, 8);
}

#[test]
fn session_pool_cycles_under_contention() {
    // Workers repeatedly acquire/release sessions from a pool smaller than
    // the worker count; every acquisition either succeeds with a valid
    // slot or reports exhaustion — never a stale or duplicated slot.
    let arena = PArena::builder().capacity_bytes(64 << 20).build().unwrap();
    let (store, _) = Store::open(
        &arena,
        Options::new().threads(2).log_bytes_per_thread(1 << 20),
    )
    .unwrap();
    let successes = AtomicU64::new(0);
    let exhausted = AtomicU64::new(0);
    std::thread::scope(|s| {
        for w in 0..4 {
            let store = store.clone();
            let successes = &successes;
            let exhausted = &exhausted;
            s.spawn(move || {
                for i in 0..300u64 {
                    match store.session() {
                        Ok(sess) => {
                            assert!(sess.tid() < 2, "slot out of range");
                            store
                                .put_u64(&sess, &(w * 1000 + i).to_be_bytes(), i)
                                .unwrap();
                            successes.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(Error::TooManyThreads { limit }) => {
                            assert_eq!(limit, 2);
                            exhausted.fetch_add(1, Ordering::Relaxed);
                            std::thread::yield_now();
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            });
        }
    });
    assert!(successes.load(Ordering::Relaxed) > 0);
    // With 4 workers over 2 slots, the pool must have saturated at least
    // occasionally — and recovered every time.
    let sess = store.session().unwrap();
    assert!(store.iter(&sess).count() > 0);
}

#[test]
fn transient_trees_concurrent_stress() {
    for mode in [AllocMode::Global, AllocMode::Pool] {
        let pool = PArena::builder().capacity_bytes(64 << 20).build().unwrap();
        let mgr = EpochManager::new(pool.clone(), EpochOptions::transient());
        let alloc = match mode {
            AllocMode::Global => TransientAlloc::new(mode, WORKERS, None),
            AllocMode::Pool => TransientAlloc::new(mode, WORKERS, Some(pool)),
        };
        let tree = std::sync::Arc::new(Masstree::new(mgr.clone(), alloc));
        let driver = AdvanceDriver::spawn(mgr, Duration::from_millis(4));
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for tid in 0..WORKERS {
                let tree = tree.clone();
                let stop = &stop;
                s.spawn(move || {
                    let ctx = tree.bench_ctx(tid);
                    let mut rng = StdRng::seed_from_u64(tid as u64);
                    while !stop.load(Ordering::Relaxed) {
                        let k = rng.gen_range(0..KEYS).to_be_bytes();
                        match rng.gen_range(0..4) {
                            0 | 1 => {
                                tree.put(&ctx, &k, rng.gen());
                            }
                            2 => {
                                tree.remove(&ctx, &k);
                            }
                            _ => {
                                tree.get(&ctx, &k);
                            }
                        }
                    }
                });
            }
            std::thread::sleep(Duration::from_millis(300));
            stop.store(true, Ordering::Relaxed);
        });
        drop(driver);
        let ctx = tree.bench_ctx(0);
        let mut count = 0u64;
        let mut prev: Option<Vec<u8>> = None;
        tree.scan(&ctx, b"", usize::MAX, &mut |k, _| {
            if let Some(p) = &prev {
                assert!(p.as_slice() < k);
            }
            prev = Some(k.to_vec());
            count += 1;
        });
        assert!(count <= KEYS);
    }
}

#[test]
fn concurrent_scans_with_writers() {
    for shards in [1usize, 4] {
        concurrent_scans_with_writers_at(shards);
    }
}

/// Scanners must observe sorted, in-range keys while a writer churns —
/// with `shards > 1` every scan is a live k-way merge racing the writer.
fn concurrent_scans_with_writers_at(shards: usize) {
    let arena = PArena::builder().capacity_bytes(64 << 20).build().unwrap();
    let (store, _) = Store::open(
        &arena,
        Options::new()
            .threads(WORKERS)
            .log_bytes_per_thread(4 << 20)
            .shards(shards),
    )
    .unwrap();
    {
        let sess = store.session().unwrap();
        for i in 0..KEYS {
            store.put_u64(&sess, &i.to_be_bytes(), i).unwrap();
        }
    }
    let driver = AdvanceDriver::spawn(store.epoch_manager().clone(), Duration::from_millis(4));
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // One writer updating values (mixing u64 and byte-slice forms).
        {
            let store = store.clone();
            let stop = &stop;
            s.spawn(move || {
                let sess = store.session().unwrap();
                let mut rng = StdRng::seed_from_u64(1);
                while !stop.load(Ordering::Relaxed) {
                    let k = rng.gen_range(0..KEYS).to_be_bytes();
                    if rng.gen_bool(0.5) {
                        store.put_u64(&sess, &k, rng.gen()).unwrap();
                    } else {
                        let len = rng.gen_range(8..100usize);
                        store.put(&sess, &k, &vec![9u8; len]).unwrap();
                    }
                }
            });
        }
        // Two scanners verifying order continuously.
        for w in 1..WORKERS {
            let store = store.clone();
            let stop = &stop;
            s.spawn(move || {
                let sess = store.session().unwrap();
                let mut rng = StdRng::seed_from_u64(w as u64);
                while !stop.load(Ordering::Relaxed) {
                    let start = rng.gen_range(0..KEYS).to_be_bytes();
                    let mut prev: Option<Vec<u8>> = None;
                    store.scan(&sess, &start, 20, &mut |k, _| {
                        if let Some(p) = &prev {
                            assert!(p.as_slice() < k, "scan order violated");
                        }
                        assert!(k >= &start[..]);
                        prev = Some(k.to_vec());
                    });
                }
            });
        }
        std::thread::sleep(Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
    });
    drop(driver);
}

const RACE_WRITERS: u64 = 2;
const RACE_READERS: usize = 2;
const RACE_OPS: u64 = 4_000;
/// Long keys per shared 8-byte prefix: enough to split the sub-layer.
const RACE_GROUP: u64 = 32;
/// Writers wait for every reader to finish one more pass every this many
/// ops.
const RACE_STEP: u64 = 250;

/// The value every racing key holds: a function of the key alone, so a
/// reader can check any key it finds.
fn race_val(key: &[u8]) -> u64 {
    key.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Writer `w`'s op `j` inserts two fresh keys: the ascending 8-byte key
/// `j·W + w`, and a 9–24-byte key under the 8-byte key of op
/// `j / RACE_GROUP` (already present: the first such key converts it into
/// a layer, the rest split that layer and build layers below it).
fn race_keys(w: u64, j: u64) -> [Vec<u8>; 2] {
    let short = (j * RACE_WRITERS + w).to_be_bytes().to_vec();
    let mut long = ((j / RACE_GROUP) * RACE_WRITERS + w).to_be_bytes().to_vec();
    let mix = j.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let suffix = [mix.to_be_bytes(), (!mix).to_be_bytes()].concat();
    long.extend_from_slice(&suffix[..1 + (j % 16) as usize]);
    [short, long]
}

/// Marks a reader gone, even one that panics, so no writer waits on it.
struct PassesGuard<'a>(&'a AtomicU64);

impl Drop for PassesGuard<'_> {
    fn drop(&mut self) {
        self.0.store(u64::MAX, Ordering::Release);
    }
}

/// Leaf and interior splits, root swings and layer conversions racing
/// readers. Writers insert fresh keys (see [`race_keys`]) and publish a
/// watermark after each op; readers snapshot the watermarks, then check
/// that every key published before the read is found with its value, and
/// that a scan is strictly ascending and holds every published key in
/// the range it covered.
fn race_splits_with_readers<K: KvBench>(
    tree: &K,
    scan: impl Fn(&K, &K::Ctx, &[u8], usize, &mut dyn FnMut(&[u8], u64)) -> usize + Sync,
) {
    use std::collections::{BTreeMap, HashMap};
    // Every key the writers will insert, with the first op inserting it.
    let mut model: BTreeMap<Vec<u8>, (u64, u64)> = BTreeMap::new();
    for w in 0..RACE_WRITERS {
        for j in 0..RACE_OPS {
            for k in race_keys(w, j) {
                model.entry(k).or_insert((w, j));
            }
        }
    }
    let marks: Vec<AtomicU64> = (0..RACE_WRITERS).map(|_| AtomicU64::new(0)).collect();
    let writers_done = AtomicU64::new(0);
    // Reads interleave with the writes at every stage of the tree's
    // growth, however the threads are scheduled: every RACE_STEP ops a
    // writer waits until each reader has finished one more pass.
    let passes: Vec<AtomicU64> = (0..RACE_READERS).map(|_| AtomicU64::new(0)).collect();
    std::thread::scope(|s| {
        for w in 0..RACE_WRITERS {
            let (marks, writers_done, passes) = (&marks, &writers_done, &passes);
            s.spawn(move || {
                let ctx = tree.bench_ctx(w as usize);
                for j in 0..RACE_OPS {
                    if j % RACE_STEP == 0 {
                        let want: Vec<u64> = passes
                            .iter()
                            .map(|p| p.load(Ordering::Acquire).saturating_add(1))
                            .collect();
                        while passes
                            .iter()
                            .zip(&want)
                            .any(|(p, &n)| p.load(Ordering::Acquire) < n)
                        {
                            std::thread::yield_now();
                        }
                    }
                    for k in race_keys(w, j) {
                        tree.bench_put(&ctx, &k, race_val(&k));
                    }
                    marks[w as usize].store(j + 1, Ordering::Release);
                }
                writers_done.fetch_add(1, Ordering::Release);
            });
        }
        for r in 0..RACE_READERS {
            let (marks, writers_done, model, scan) = (&marks, &writers_done, &model, &scan);
            let passes = &passes;
            s.spawn(move || {
                let _gone = PassesGuard(&passes[r]);
                let ctx = tree.bench_ctx(RACE_WRITERS as usize + r);
                let mut rng = StdRng::seed_from_u64(r as u64);
                let mut scans = 0u64;
                loop {
                    let last = writers_done.load(Ordering::Acquire) == RACE_WRITERS;
                    let seen: Vec<u64> = marks.iter().map(|m| m.load(Ordering::Acquire)).collect();
                    let published = |&(w, j): &(u64, u64)| j < seen[w as usize];
                    // Point reads of published keys.
                    let w = rng.gen_range(0..RACE_WRITERS);
                    if seen[w as usize] > 0 {
                        let j = rng.gen_range(0..seen[w as usize]);
                        for k in race_keys(w, j) {
                            assert_eq!(tree.bench_get(&ctx, &k), Some(race_val(&k)), "{k:?}");
                        }
                    }
                    // A scan from a random key of the model.
                    let skip = rng.gen_range(0..model.len());
                    let start = model.keys().nth(skip).unwrap().clone();
                    let mut got: HashMap<Vec<u8>, u64> = HashMap::new();
                    let mut prev: Option<Vec<u8>> = None;
                    let n = scan(tree, &ctx, &start, 40, &mut |k, v| {
                        assert!(k >= &start[..], "scan below its start");
                        if let Some(p) = &prev {
                            assert!(p.as_slice() < k, "scan order violated");
                        }
                        prev = Some(k.to_vec());
                        got.insert(k.to_vec(), v);
                    });
                    let covered: Vec<_> = match (&prev, n) {
                        (Some(end), 40) => model.range(start.clone()..=end.clone()).collect(),
                        _ => model.range(start.clone()..).collect(),
                    };
                    for (k, op) in covered {
                        if published(op) {
                            assert_eq!(got.get(k), Some(&race_val(k)), "scan missed {k:?}");
                        }
                    }
                    for (k, v) in &got {
                        assert_eq!(*v, race_val(k), "scan value of {k:?}");
                    }
                    scans += 1;
                    passes[r].fetch_add(1, Ordering::Release);
                    if last {
                        break;
                    }
                }
                assert!(scans >= RACE_OPS / RACE_STEP);
            });
        }
    });
    let ctx = tree.bench_ctx(0);
    let mut all = Vec::new();
    scan(tree, &ctx, b"", usize::MAX, &mut |k, v| {
        all.push((k.to_vec(), v))
    });
    let expect: Vec<_> = model.keys().map(|k| (k.clone(), race_val(k))).collect();
    assert_eq!(all, expect);
}

#[test]
fn splits_and_layer_conversions_race_readers_on_mtplus() {
    let pool = PArena::builder().capacity_bytes(64 << 20).build().unwrap();
    let mgr = EpochManager::new(pool.clone(), EpochOptions::transient());
    let alloc = TransientAlloc::new(AllocMode::Pool, 4, Some(pool));
    let tree = Masstree::new(mgr.clone(), alloc);
    let driver = AdvanceDriver::spawn(mgr, Duration::from_millis(4));
    race_splits_with_readers(&tree, |t, ctx, start, n, f| t.scan(ctx, start, n, f));
    drop(driver);
}

#[test]
fn splits_and_layer_conversions_race_readers_on_store() {
    for shards in [1usize, 4] {
        let arena = PArena::builder().capacity_bytes(64 << 20).build().unwrap();
        let opts = Options::new()
            .threads(4)
            .log_bytes_per_thread(4 << 20)
            .shards(shards);
        let (store, _) = Store::open(&arena, opts).unwrap();
        let driver = AdvanceDriver::spawn(store.epoch_manager().clone(), Duration::from_millis(4));
        race_splits_with_readers(&store, |st, sess, start, n, f| {
            st.scan(sess, start, n, &mut |k, v| f(k, val_of(v)))
        });
        drop(driver);
    }
}
