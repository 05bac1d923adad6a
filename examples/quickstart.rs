//! Quickstart: a durable key-value store in five minutes — open a store,
//! write byte-slice values, checkpoint, crash, and recover, all through
//! the `Store` / `Session` facade.
//!
//! Note the persistence counters at the end: zeros where a conventional
//! NVM structure would pay a flush + fence per operation.
//!
//! Run with: `cargo run --release --example quickstart`

use incll_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. An arena stands in for an NVM device mapping ("tracked" journals
    //    every store so we can simulate a power failure later).
    let arena = PArena::builder()
        .capacity_bytes(64 << 20)
        .tracked(true)
        .build()?;

    // 2. One call does it all: format the blank arena and create a fresh
    //    store (on an existing arena the same call recovers instead).
    //    `shards(2)` splits the keyspace over two independent InCLL trees
    //    under one epoch — fixed at format time, so recovery below passes
    //    the same options.
    let options = Options::new()
        .threads(2)
        .log_bytes_per_thread(4 << 20)
        .shards(2);
    let (store, report) = Store::open(&arena, options.clone())?;
    assert!(report.created);

    // 3. Sessions come from a bounded RAII pool — no raw thread ids.
    let sess = store.session()?;

    // 4. Values are byte slices in durable, size-classed buffers; the
    //    `_u64` forms cover the paper's 8-byte payloads. Every mutation is
    //    crash-recoverable, yet none of these flushes a cache line.
    store.put(&sess, b"tuesday", b"taco night")?;
    store.put(&sess, b"wednesday", b"leftovers, obviously")?;
    store.put(&sess, b"thursday", &vec![42u8; 300])?; // 320-byte class
    store.put_u64(&sess, b"visits", 7)?;

    assert_eq!(
        store.get(&sess, b"wednesday").as_deref(),
        Some(&b"leftovers, obviously"[..])
    );
    assert_eq!(store.get(&sess, b"friday"), None);
    assert_eq!(
        store.put(&sess, b"tuesday", b"pizza night")?.as_deref(),
        Some(&b"taco night"[..]),
        "put returns the previous value"
    );
    assert_eq!(store.get_u64(&sess, b"visits"), Some(7));
    assert!(store.remove(&sess, b"thursday"));

    println!("contents in key order:");
    for (key, value) in store.iter(&sess) {
        println!(
            "  {:<12} => {} bytes: {:?}",
            String::from_utf8_lossy(&key),
            value.len(),
            String::from_utf8_lossy(&value[..value.len().min(20)]),
        );
    }

    // 5. A checkpoint: one whole-cache flush makes everything above
    //    durable. With the paper's 64 ms cadence this runs in the
    //    background (see `AdvanceDriver`).
    let epoch = store.checkpoint();
    println!("\ncheckpointed; now in epoch {epoch}");

    // 6. Doomed work: written after the checkpoint, erased by the crash.
    store.put(&sess, b"tuesday", b"doomed edit")?;
    store.put(&sess, b"doomed-key", b"never checkpointed")?;

    drop(sess);
    drop(store);
    arena.crash_seeded(2024); // *** power failure ***
    println!("*** CRASH ***");

    // 7. The same open call now recovers: state rolls back to the last
    //    epoch boundary.
    let (store, report) = Store::open(&arena, options)?;
    assert!(!report.created);
    println!(
        "recovered: failed epoch {}, {} log entries replayed in {:?}",
        report.failed_epoch, report.replayed_entries, report.replay_time
    );
    let sess = store.session()?;
    assert_eq!(
        store.get(&sess, b"tuesday").as_deref(),
        Some(&b"pizza night"[..]),
        "checkpointed value survived the crash"
    );
    assert_eq!(
        store.get(&sess, b"doomed-key"),
        None,
        "doomed write rolled back"
    );

    // 8. The paper's economics, visible in the counters.
    let s = store.arena().stats().snapshot();
    println!("\npersistence counters:");
    println!("  cache-line write-backs (clwb): {}", s.clwb);
    println!("  persistence fences (sfence):   {}", s.sfence);
    println!("  whole-cache flushes:           {}", s.global_flush);
    println!(
        "  in-cache-line logs (free!):    perm={} val={}",
        s.incll_perm_logs, s.incll_val_logs
    );
    println!("  externally logged nodes:       {}", s.ext_nodes_logged);
    Ok(())
}
