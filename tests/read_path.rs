//! The borrowed read path, end to end through the `Store` facade:
//! `get_ref` equivalence with the copying reads, guard semantics under
//! concurrent mutation and checkpoints, epoch-snapshot scans that stay
//! open across per-shard checkpoints, and crash recovery feeding the
//! zero-copy path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use incll_repro::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn options(shards: usize) -> Options {
    Options::new()
        .threads(4)
        .log_bytes_per_thread(1 << 20)
        .shards(shards)
}

fn fresh(shards: usize) -> Store {
    let arena = PArena::builder().capacity_bytes(64 << 20).build().unwrap();
    Store::open(&arena, options(shards)).unwrap().0
}

fn tracked_arena() -> PArena {
    PArena::builder()
        .capacity_bytes(64 << 20)
        .tracked(true)
        .build()
        .unwrap()
}

/// A value whose every byte carries the same tag: any mix of two
/// generations is detectable with a one-pass scan.
fn tagged(tag: u8, len: usize) -> Vec<u8> {
    vec![tag; len]
}

// ---------------------------------------------------------------------
// Equivalence of the reads
// ---------------------------------------------------------------------

/// `get_ref` observes exactly the bytes `get`/`get_u64` copy out, for
/// assorted value lengths, on 1/2/8 shards.
#[test]
fn get_ref_matches_every_copying_read() {
    for shards in [1usize, 2, 8] {
        let store = fresh(shards);
        let sess = store.session().unwrap();
        let lengths = [0usize, 1, 7, 8, 9, 24, 100, 500, 2048];
        for (i, &len) in lengths.iter().enumerate() {
            let key = format!("key-{i:04}").into_bytes();
            let val = tagged(b'a' + i as u8, len);
            store.put(&sess, &key, &val).unwrap();
        }
        store.put_u64(&sess, b"u64-key", 0xDEAD_BEEF_u64).unwrap();

        for (i, &len) in lengths.iter().enumerate() {
            let key = format!("key-{i:04}").into_bytes();
            let v = store.get_ref(&sess, &key).expect("present");
            assert_eq!(v.len(), len, "shards={shards}");
            assert_eq!(&*v, &store.get(&sess, &key).unwrap()[..]);
            assert_eq!(v.to_vec(), tagged(b'a' + i as u8, len));
        }
        // The u64 register decodes identically through both paths.
        let v = store.get_ref(&sess, b"u64-key").unwrap();
        assert_eq!(v.as_u64(), 0xDEAD_BEEF);
        assert_eq!(store.get_u64(&sess, b"u64-key"), Some(0xDEAD_BEEF));
        assert_eq!(
            u64::from_le_bytes(store.get(&sess, b"u64-key").unwrap().try_into().unwrap()),
            0xDEAD_BEEF
        );
        // Misses are None through every read.
        assert!(store.get_ref(&sess, b"absent").is_none());
        assert!(store.get(&sess, b"absent").is_none());
    }
}

/// A value shorter than 8 bytes reads as a `u64` zero-extended — through
/// `get_u64`, `as_u64` and the previous value `put_u64` returns — never
/// with the tail of whatever its recycled buffer held before.
#[test]
fn short_values_read_as_u64_zero_extended() {
    let store = fresh(1);
    let sess = store.session().unwrap();
    store.put(&sess, b"A", &[0xFF; 8]).unwrap();
    // The overwrite frees A's first buffer; the checkpoint makes it
    // allocatable, and B's put (same session, same size class) takes it.
    store.put(&sess, b"A", &[1; 100]).unwrap();
    store.checkpoint();
    store.put(&sess, b"B", &[1, 2, 3]).unwrap();
    assert_eq!(store.get_u64(&sess, b"B"), Some(0x03_02_01));
    assert_eq!(store.get_ref(&sess, b"B").unwrap().as_u64(), 0x03_02_01);
    assert_eq!(store.put_u64(&sess, b"B", 7).unwrap(), Some(0x03_02_01));
    assert_eq!(store.get_u64(&sess, b"B"), Some(7));
}

// ---------------------------------------------------------------------
// Guards under concurrent mutation
// ---------------------------------------------------------------------

/// Overwriting (and removing) a value while a `ValueRef` to it is
/// outstanding: the borrowed bytes stay the *old* value — never torn —
/// while a fresh lookup detects the overwrite.
#[test]
fn overwrite_under_outstanding_guard_reads_old_and_detects() {
    let store = fresh(1);
    let sess = store.session().unwrap();
    let old = tagged(b'O', 200);
    store.put(&sess, b"k", &old).unwrap();
    // Complete the epoch: the overwrite below frees the old buffer in a
    // *later* epoch, whose free rewrites the header in front of the
    // payload — never the payload the guard reads.
    store.checkpoint();

    let v = store.get_ref(&sess, b"k").expect("present");
    // Same-session overwrite under the outstanding guard (read pins are
    // re-entrant with the write pin the put takes).
    store.put(&sess, b"k", &tagged(b'N', 200)).unwrap();
    assert_eq!(&*v, &old[..], "guard must keep the old bytes intact");
    assert!(v.iter().all(|&b| b == b'O'), "never torn");
    assert_eq!(store.get(&sess, b"k").unwrap(), tagged(b'N', 200));
    drop(v);

    // Same story for remove.
    store.checkpoint();
    let v = store.get_ref(&sess, b"k").expect("present");
    store.remove(&sess, b"k");
    assert!(
        v.iter().all(|&b| b == b'N'),
        "old value intact after remove"
    );
    assert!(store.get(&sess, b"k").is_none());
    drop(v);
}

/// A guard held on one shard never blocks checkpoints of the *other*
/// shards, and stays valid across them.
#[test]
fn guard_survives_checkpoints_of_other_shards() {
    let shards = 8;
    let store = fresh(shards);
    let sess = store.session().unwrap();
    for i in 0..64u64 {
        store.put_u64(&sess, &storage_key(i), i).unwrap();
    }
    let v = store.get_ref(&sess, &storage_key(0)).expect("present");
    let pinned = store.shard_of(&storage_key(0));
    for s in 0..shards {
        if s != pinned {
            store.checkpoint_shard(s);
        }
    }
    assert_eq!(v.as_u64(), 0, "guard valid across other shards' advances");
    drop(v);
    store.checkpoint_shard(pinned); // and the pinned one, once released
}

/// A commit that may force a checkpoint (every `commit_durable`, every
/// cross-shard `commit`) refuses to run while its own session holds a
/// guard — the forced checkpoint would wait for that guard forever. Runs
/// on a helper thread so a regression is a timeout, not a hung suite.
#[test]
fn a_commit_that_may_checkpoint_fails_typed_under_its_own_sessions_guard() {
    use incll_pmem::superblock::SB_BATCH_NEXT_ID;
    let (tx, rx) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        let store = fresh(4);
        let sess = store.session().unwrap();
        for i in 0..16u64 {
            store.put_u64(&sess, &storage_key(i), i).unwrap();
        }
        let stage = |tag: u8| {
            let mut b = sess.batch();
            for i in 0..16u64 {
                b.put(&storage_key(i), &[tag; 8]).unwrap();
            }
            b
        };
        let next_id = || store.arena().pread_u64(SB_BATCH_NEXT_ID);

        let v = store.get_ref(&sess, &storage_key(0)).expect("present");
        let refused = Err(Error::SessionPinned {
            shard: store.shard_of(&storage_key(0)),
        });
        let id_before = next_id();
        // Every such commit, not only the one that would have evicted.
        for tag in 1..=3 {
            assert_eq!(stage(tag).commit_durable(), refused);
            assert_eq!(stage(tag).commit(), refused);
        }
        assert_eq!(next_id(), id_before, "a refused commit reserves no ids");
        assert_eq!(v.as_u64(), 0, "and writes nothing");
        // The single-shard fast path nests under the guard as before.
        let mut b = sess.batch();
        b.put(&storage_key(0), &[9; 8]).unwrap();
        assert_eq!(b.commit(), Ok(0));

        drop(v);
        assert_eq!(
            stage(4).commit_durable().unwrap(),
            id_before,
            "a refused commit consumes no id"
        );
        for i in 0..16u64 {
            assert_eq!(store.get(&sess, &storage_key(i)), Some(vec![4; 8]));
        }
        tx.send(()).unwrap();
    });
    let outcome = rx.recv_timeout(Duration::from_secs(5));
    if outcome != Err(std::sync::mpsc::RecvTimeoutError::Timeout) {
        helper.join().unwrap(); // surface the helper's own panic, if any
    }
    outcome.expect("the commit waited for its own session's pin");
}

/// Writer flips a key between two tagged generations while readers deref
/// borrowed views under a fast checkpoint cadence: every observed value
/// is wholly one generation.
#[test]
fn hammered_get_ref_is_never_torn() {
    let store = fresh(2);
    {
        let sess = store.session().unwrap();
        store.put(&sess, b"hot", &tagged(0xAA, 512)).unwrap();
    }
    let driver = AdvanceDriver::spawn(store.epoch_manager().clone(), Duration::from_millis(2));
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        {
            let store = store.clone();
            let stop = &stop;
            s.spawn(move || {
                let sess = store.session().unwrap();
                let mut gen = 0u8;
                while !stop.load(Ordering::Relaxed) {
                    let tag = if gen.is_multiple_of(2) { 0xAA } else { 0x55 };
                    store.put(&sess, b"hot", &tagged(tag, 512)).unwrap();
                    gen = gen.wrapping_add(1);
                }
            });
        }
        for _ in 0..2 {
            let store = store.clone();
            let stop = &stop;
            s.spawn(move || {
                let sess = store.session().unwrap();
                while !stop.load(Ordering::Relaxed) {
                    let v = store.get_ref(&sess, b"hot").expect("always present");
                    let first = v[0];
                    assert!(first == 0xAA || first == 0x55);
                    assert!(v.iter().all(|&b| b == first), "torn read");
                    assert_eq!(v.len(), 512);
                }
            });
        }
        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);
    });
    drop(driver);
}

// ---------------------------------------------------------------------
// Epoch-snapshot scans vs checkpoints
// ---------------------------------------------------------------------

/// Acceptance: a `range` scan held open across `checkpoint_shard` on
/// **every** shard completes with globally ordered, non-torn results.
#[test]
fn range_scan_survives_checkpoints_of_every_shard() {
    let shards = 8;
    let store = fresh(shards);
    let sess = store.session().unwrap();
    let mut model = BTreeMap::new();
    for i in 0..1_000u64 {
        let key = storage_key(i).to_vec();
        let val = tagged((i % 251) as u8, 8 + (i % 64) as usize);
        store.put(&sess, &key, &val).unwrap();
        model.insert(key, val);
    }

    let mut seen = Vec::new();
    let mut scan = store.range(&sess, &b""[..]..);
    for step in 0.. {
        // Checkpoint every shard, repeatedly, while the scan is open.
        store.checkpoint_shard(step % shards);
        match scan.next() {
            Some((k, v)) => seen.push((k, v)),
            None => break,
        }
    }
    assert_eq!(seen.len(), model.len(), "scan must be complete");
    let expect: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
    assert_eq!(seen, expect, "globally ordered, values intact");
}

/// The scan callback may itself checkpoint the very shard it is reading:
/// no pin is held while `f` runs.
#[test]
fn scan_callback_may_checkpoint_its_own_shard() {
    let store = fresh(1);
    let sess = store.session().unwrap();
    for i in 0..300u64 {
        store.put_u64(&sess, &storage_key(i), i).unwrap();
    }
    let mut visited = 0usize;
    let n = store.scan(&sess, b"", usize::MAX, &mut |_, v| {
        assert_eq!(v.len(), 8);
        visited += 1;
        if visited.is_multiple_of(10) {
            store.checkpoint_shard(0);
        }
    });
    assert_eq!(n, 300);
    assert_eq!(visited, 300);
}

/// A pure-read workload — `get_ref` lookups and full scans — never marks
/// a domain dirty: lazy per-domain cadence drivers skip every tick and
/// the epochs stay where they started.
#[test]
fn pure_reads_leave_lazy_cadence_idle() {
    let shards = 2;
    let store = fresh(shards);
    let sess = store.session().unwrap();
    for i in 0..200u64 {
        store.put_u64(&sess, &storage_key(i), i).unwrap();
    }
    store.checkpoint(); // flush the load, start from a clean boundary
    let mgr = store.epoch_manager().clone();
    let before: Vec<u64> = (0..shards).map(|d| mgr.current_epoch_of(d)).collect();
    let driver = AdvanceDriver::spawn_per_domain(
        mgr.clone(),
        vec![Cadence::lazy(Duration::from_millis(1)); shards],
    );
    let t0 = std::time::Instant::now();
    while t0.elapsed() < Duration::from_millis(30) {
        for i in 0..50u64 {
            assert!(store.get_ref(&sess, &storage_key(i)).is_some());
        }
        store.scan(&sess, b"", usize::MAX, &mut |_, _| {});
    }
    drop(driver);
    let after: Vec<u64> = (0..shards).map(|d| mgr.current_epoch_of(d)).collect();
    assert_eq!(before, after, "read-only traffic must not force advances");
}

// ---------------------------------------------------------------------
// Crash recovery feeds the borrowed path
// ---------------------------------------------------------------------

/// Checkpointed values survive a crash and read back — bit-exact —
/// through `get_ref`; doomed-epoch writes are invisible to it.
#[test]
fn get_ref_after_crash_recovery() {
    let arena = tracked_arena();
    let mut model = BTreeMap::new();
    {
        let (store, _) = Store::open(&arena, options(2)).unwrap();
        let sess = store.session().unwrap();
        for i in 0..400u64 {
            let key = storage_key(i).to_vec();
            let val = tagged((i % 250) as u8, 1 + (i % 96) as usize);
            store.put(&sess, &key, &val).unwrap();
            model.insert(key, val);
        }
        store.checkpoint();
        // Doomed epoch: overwrites and inserts that must roll back.
        for i in 0..400u64 {
            store.put(&sess, &storage_key(i), b"doomed").unwrap();
        }
        store.put(&sess, b"doomed-insert", b"x").unwrap();
    }
    arena.crash_seeded(0xC0FFEE);
    let (store, _) = Store::open(&arena, options(2)).unwrap();
    let sess = store.session().unwrap();
    for (key, val) in &model {
        let v = store.get_ref(&sess, key).expect("checkpointed key");
        assert_eq!(&*v, &val[..], "recovered bytes must be exact");
    }
    assert!(store.get_ref(&sess, b"doomed-insert").is_none());
}

// ---------------------------------------------------------------------
// Model sweep
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random put/overwrite/remove sequences against a BTreeMap oracle:
    /// after every op, `get_ref` agrees with the oracle on the touched
    /// key; at the end, on every key ever used. Shards 1/2/8.
    #[test]
    fn get_ref_agrees_with_model(seed in any::<u64>(), shard_sel in 0usize..3) {
        let shards = [1usize, 2, 8][shard_sel];
        let store = fresh(shards);
        let sess = store.session().unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for step in 0..300u32 {
            let key = format!("k{:03}", rng.gen_range(0..60)).into_bytes();
            match rng.gen_range(0..10) {
                0..=5 => {
                    let len = rng.gen_range(0..300usize);
                    let val = tagged(rng.gen(), len);
                    store.put(&sess, &key, &val).unwrap();
                    model.insert(key.clone(), val);
                }
                6..=7 => {
                    store.remove(&sess, &key);
                    model.remove(&key);
                }
                _ => {}
            }
            if step % 50 == 0 {
                store.checkpoint();
            }
            let got = store.get_ref(&sess, &key).map(|v| v.to_vec());
            prop_assert_eq!(&got, &model.get(&key).cloned(), "shards={}", shards);
        }
        for (key, val) in &model {
            let v = store.get_ref(&sess, key).expect("model key present");
            prop_assert_eq!(&*v, &val[..]);
        }
    }
}
