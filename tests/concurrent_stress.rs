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
