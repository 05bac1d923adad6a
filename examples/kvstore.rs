//! A miniature durable KV service built on the `Store` facade: a
//! hash-sharded keyspace (4 independent InCLL trees, one epoch domain
//! each), background checkpointing of every shard on the paper's 64 ms
//! epoch clock, with the log-room rule checkpointing a shard early
//! whenever a writer's log buffer for it runs short, concurrent
//! worker sessions from the RAII pool, byte-slice and `u64` traffic
//! (allocating and zero-copy reads), explicit scoped checkpoints,
//! per-shard checkpoint observability, a simulated restart, and a
//! YCSB-style traffic report.
//!
//! Run with: `cargo run --release --example kvstore`

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use incll_repro::prelude::*;

const KEYS: u64 = 100_000;
const WORKERS: usize = 2;
/// Keyspace shards: puts/gets route by key hash, scans merge, and every
/// shard checkpoints on its own epoch domain. Fixed at format time —
/// reopening (below) must pass the same count.
const SHARDS: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arena = PArena::builder().capacity_bytes(256 << 20).build()?;
    // The store owns its checkpoint driver: every shard checkpoints at
    // the paper's 64 ms epoch. The time bound comes from the cadence; the byte bound from the log
    // size — 4 MiB per (worker, shard) — checked on every write.
    let options = Options::new()
        .threads(WORKERS)
        .log_bytes_per_thread(16 << 20)
        .shards(SHARDS)
        .cadence(Cadence::eager(DEFAULT_EPOCH_INTERVAL));
    let (store, _) = Store::open(&arena, options.clone())?;
    assert_eq!(store.shard_count(), SHARDS);

    // Phase 1: bulk load (the YCSB driver speaks `KvBench`, which `Store`
    // implements).
    let t0 = Instant::now();
    load(&store, KEYS, WORKERS);
    println!("loaded {KEYS} keys in {:?}", t0.elapsed());

    // Phase 2: serve mixed traffic for a second — every worker owns one
    // session from the bounded pool.
    let stop = AtomicBool::new(false);
    let served = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let store = store.clone();
            let stop = &stop;
            let served = &served;
            s.spawn(move || {
                let sess = store.session().expect("one slot per worker");
                let mut i = w as u64;
                let mut value = [0u8; 24];
                while !stop.load(Ordering::Relaxed) {
                    let key = storage_key(i % KEYS);
                    match i % 4 {
                        0 => {
                            store
                                .put_u64(&sess, &key, i)
                                .expect("arena sized for the keys");
                        }
                        1 => {
                            value[..8].copy_from_slice(&i.to_le_bytes());
                            store.put(&sess, &key, &value).expect("fits size class");
                        }
                        2 => {
                            store.get(&sess, &key);
                        }
                        _ => {
                            // The zero-copy read: borrow the durable bytes
                            // in place under a short epoch pin — no
                            // allocation on the hot serving path.
                            if let Some(v) = store.get_ref(&sess, &key) {
                                std::hint::black_box(v.len());
                            }
                        }
                    }
                    i += WORKERS as u64;
                    served.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        std::thread::sleep(Duration::from_secs(1));
        stop.store(true, Ordering::Relaxed);
    });

    // Who ended each shard's epochs? The cadence's ticks and the
    // boundaries the log-room rule forced because a worker's buffer for
    // the shard ran short.
    println!("\nper-shard checkpoints after 1 s of traffic:");
    for i in 0..store.shard_count() {
        let st = store.shard_stats(i);
        println!(
            "  shard {i}: epoch {:>3}, {} advances ({} forced by log room), \
             {} B of log since the last boundary",
            st.epoch, st.advances_fired, st.advances_forced, st.bytes_since_boundary,
        );
    }

    // A scoped checkpoint: make one hot key's shard durable *now*,
    // stalling only the sessions pinned in that shard.
    let hot = storage_key(0);
    let shard_epoch = store.checkpoint_shard(store.shard_of(&hot));
    println!(
        "shard {} checkpointed alone at its epoch {}",
        store.shard_of(&hot),
        shard_epoch
    );

    // An atomic cross-shard write batch: both account halves and the
    // audit record commit (or crash away) together — one durable commit
    // record instead of an all-shards barrier on the write path.
    {
        let sess = store.session()?;
        let mut batch = sess.batch();
        batch.put(b"accounts/alice", &900u64.to_le_bytes())?;
        batch.put(b"accounts/bob", &1100u64.to_le_bytes())?;
        batch.put(b"audit/transfer-0001", b"alice->bob:100")?;
        let id = batch.commit()?;
        if id == 0 {
            println!("transfer committed on the single-shard fast path");
        } else {
            println!("cross-shard transfer committed atomically as batch {id}");
        }
    }

    let epoch = store.checkpoint(); // final all-shards barrier
    println!(
        "served {} ops; shard 0 now at epoch {}",
        served.load(Ordering::Relaxed),
        epoch
    );

    // Phase 3: "restart" the service (same arena, fresh handles) — the
    // data survives without any load phase.
    drop(store);
    let (store, report) = Store::open(&arena, options)?;
    let (redone, dropped) = report.per_shard.iter().fold((0u64, 0u64), |(r, d), s| {
        (r + s.batches_redone, d + s.batches_dropped)
    });
    println!(
        "reopened instantly: {} log entries to replay, {redone} in-doubt \
         batches redone, {dropped} dropped (clean shutdown)",
        report.replayed_entries
    );
    let sess = store.session()?;
    let mut count = 0u64;
    store.scan(&sess, b"", usize::MAX, &mut |_, _| count += 1);
    println!("store still holds {count} keys after restart");

    let s = store.arena().stats().snapshot();
    println!(
        "\nlifetime persistence traffic: {} clwb, {} sfence, \
         {} whole-cache + {} scoped flushes, {} ext-logged nodes, {} InCLL logs",
        s.clwb,
        s.sfence,
        s.global_flush,
        s.scoped_flush,
        s.ext_nodes_logged,
        s.incll_perm_logs + s.incll_val_logs
    );
    Ok(())
}
