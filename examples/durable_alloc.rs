//! The durable allocator at work (paper §5), observed through the `Store`
//! facade: every put carves a fresh length-prefixed buffer from a
//! per-thread, InCLL-logged free list — with zero write-backs — and a
//! crash rolls the allocator back together with the tree.
//!
//! Run with: `cargo run --release --example durable_alloc`

use incll_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arena = PArena::builder()
        .capacity_bytes(32 << 20)
        .tracked(true)
        .build()?;
    let options = Options::new().threads(1).log_bytes_per_thread(1 << 20);
    let (store, _) = Store::open(&arena, options.clone())?;
    let sess = store.session()?;

    // Epoch 1: three values across different size classes (each put
    // allocates `8 + len` bytes behind a 16-byte header, floored so a
    // small value takes the paper's 32-byte buffer).
    store.put(&sess, b"small", b"hi")?; //              32-byte object
    store.put(&sess, b"medium", &[1u8; 100])?; //      128-byte object
    store.put(&sess, b"large", &[2u8; 1000])?; //     1040-byte object
    let s = store.arena().stats().snapshot();
    println!(
        "epoch 1: {} durable allocations (values + tree nodes), {} frees",
        s.palloc_allocs, s.palloc_frees
    );

    // Updating a value allocates a fresh buffer and frees the old one onto
    // the *pending* list; epoch-based reclamation hands it out again only
    // after the next checkpoint, which is why buffer contents never need
    // logging (§5).
    let before = store.arena().stats().snapshot();
    store.put(&sess, b"small", b"ho")?;
    let d = store.arena().stats().snapshot().delta(&before);
    assert_eq!((d.palloc_allocs, d.palloc_frees), (1, 1));
    println!(
        "update: +{} alloc, +{} free, {} clwb, {} sfence — the whole \
         alloc/free path is flush-free",
        d.palloc_allocs, d.palloc_frees, d.clwb, d.sfence
    );
    assert_eq!(d.clwb, 0, "no write-backs on the allocation path");
    assert_eq!(d.sfence, 0, "no fences on the allocation path");

    // Checkpoint, then doomed epoch-2 work the crash must revert.
    store.checkpoint();
    store.put(&sess, b"doomed", &[3u8; 100])?;
    store.put(&sess, b"large", b"doomed overwrite")?;
    store.remove(&sess, b"medium");
    println!("epoch 2: doomed alloc + overwrite + remove — then *** CRASH ***");
    drop(sess);
    drop(store);
    arena.crash_seeded(7);

    // Recovery reverts the allocator to the epoch-2 start: the doomed
    // allocation is back on the free list, the doomed free is undone, and
    // every reverted pointer still sees intact buffer contents.
    let (store, report) = Store::open(&arena, options)?;
    let sess = store.session()?;
    println!(
        "recovered from epoch {}: {} log entries replayed",
        report.failed_epoch, report.replayed_entries
    );
    assert_eq!(store.get(&sess, b"doomed"), None);
    assert_eq!(store.get(&sess, b"small").as_deref(), Some(&b"ho"[..]));
    assert_eq!(
        store.get(&sess, b"medium").as_deref(),
        Some(&[1u8; 100][..])
    );
    assert_eq!(
        store.get(&sess, b"large").as_deref(),
        Some(&[2u8; 1000][..])
    );
    println!("verified: allocations reverted, frees undone, contents intact");

    // And the reverted buffers are genuinely reusable.
    store.put(&sess, b"fresh", &[4u8; 100])?;
    assert_eq!(store.get(&sess, b"fresh").as_deref(), Some(&[4u8; 100][..]));
    println!("post-recovery allocation reuses the reverted buffers");
    Ok(())
}
