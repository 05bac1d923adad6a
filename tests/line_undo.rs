//! Cache-line-grain undo for leaves. A second hot value in a value line
//! moves its key into a slot that was free at epoch start, which the
//! epoch-start permutation InCLLp never names, and logs nothing. Only a
//! leaf with no such slot left reaches the external log, one region at a
//! time — value line 3, value line 4, the head — each at most once per
//! epoch: a second hot value in a line captures that line, a change the
//! in-line logs cannot absorb (an insert whose only free slots held keys
//! at epoch start, a split) captures the regions still missing. No byte
//! is logged twice in an epoch, so replay needs no order; these batteries
//! crash around every kind of move and capture, on a tracked arena at
//! shards {1, 4} and recovery workers {1, 4}, and demand the last
//! checkpoint's contents and byte-identical arenas across worker counts.

use std::collections::BTreeMap;

use incll_pmem::superblock;
use incll_repro::prelude::*;

const SHARDS: [usize; 2] = [1, 4];
const WORKERS: [usize; 2] = [1, 4];

fn tracked() -> PArena {
    PArena::builder()
        .capacity_bytes(8 << 20)
        .tracked(true)
        .build()
        .unwrap()
}

fn options(shards: usize, workers: usize) -> Options {
    Options::new()
        .threads(1)
        .log_bytes_per_thread(256 << 10)
        .shards(shards)
        .recovery_threads(workers)
}

fn val(i: u64) -> Vec<u8> {
    (0..(i % 29) as usize)
        .map(|j| (i as u8) ^ j as u8)
        .collect()
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over every byte of the arena: equal digests, equal contents.
fn digest(arena: &PArena) -> u64 {
    let mut buf = vec![0u8; arena.capacity()];
    arena.pread_bytes(0, &mut buf);
    buf.chunks(8).fold(0xcbf2_9ce4_8422_2325, |h, w| {
        let mut word = [0u8; 8];
        word[..w.len()].copy_from_slice(w);
        (h ^ u64::from_le_bytes(word)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn read(arena: &PArena, off: u64, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    arena.pread_bytes(off, &mut buf);
    buf
}

fn assert_holds(store: &Store, model: &BTreeMap<Vec<u8>, Vec<u8>>, what: &str) {
    let sess = store.session().unwrap();
    let got: Vec<(Vec<u8>, Vec<u8>)> = store.iter(&sess).collect();
    let want: Vec<(Vec<u8>, Vec<u8>)> = model.clone().into_iter().collect();
    assert_eq!(got, want, "{what}");
}

/// 40 keys: six on every shard but the first, the rest on shard 0, so
/// shard 0's leaves fill and split at every shard count.
fn hot_keys(store: &Store) -> Vec<Vec<u8>> {
    let shards = store.shard_count();
    let mut quota = vec![6; shards];
    quota[0] = 40 - 6 * (shards - 1);
    (0..)
        .map(|i| format!("hot/{i:03}").into_bytes())
        .filter(|k| {
            let q = &mut quota[store.shard_of(k)];
            *q > 0 && {
                *q -= 1;
                true
            }
        })
        .take(40)
        .collect()
}

/// `ops` seeded operations on the hot keys, mirrored into `model`:
/// updates (a second hot value in a line moves its key, or captures the
/// line once no slot free at epoch start is left), removes, and inserts
/// of absent keys (once removes leave only slots that held keys at epoch
/// start, they capture the head; into a full leaf they split it).
fn tape(
    store: &Store,
    keys: &[Vec<u8>],
    model: &mut BTreeMap<Vec<u8>, Vec<u8>>,
    mut rng: u64,
    ops: usize,
) {
    let sess = store.session().unwrap();
    for _ in 0..ops {
        let k = &keys[splitmix(&mut rng) as usize % keys.len()];
        let v = val(splitmix(&mut rng));
        if model.contains_key(k) && splitmix(&mut rng).is_multiple_of(4) {
            assert!(store.remove(&sess, k));
            model.remove(k);
        } else {
            store.put(&sess, k, &v).unwrap();
            model.insert(k.clone(), v);
        }
    }
}

/// Half the hot keys checkpointed, a doomed tape, a crash; a doomed tape
/// in the recovery epoch, a crash. Both recoveries must land on the
/// checkpoint. Returns the final arena digest and the entries replayed.
fn hot_leaf_cell(shards: usize, workers: usize, seed: u64) -> (u64, u64) {
    let arena = tracked();
    let mut model = BTreeMap::new();
    let keys = {
        let (store, _) = Store::open(&arena, options(shards, 1)).unwrap();
        let keys = hot_keys(&store);
        let sess = store.session().unwrap();
        for (i, k) in keys.iter().enumerate().step_by(2) {
            store.put(&sess, k, &val(i as u64)).unwrap();
            model.insert(k.clone(), val(i as u64));
        }
        drop(sess);
        store.checkpoint();
        tape(&store, &keys, &mut model.clone(), seed, 120);
        keys
    };
    arena.crash_seeded(2 * seed);
    let (store, first) = Store::open(&arena, options(shards, workers)).unwrap();
    let what = format!("shards={shards} workers={workers} seed={seed}");
    assert_holds(&store, &model, &format!("{what}: first recovery"));
    tape(&store, &keys, &mut model.clone(), !seed, 60);
    drop(store);
    arena.crash_seeded(2 * seed + 1);
    let (store, second) = Store::open(&arena, options(shards, workers)).unwrap();
    assert_holds(&store, &model, &format!("{what}: second recovery"));
    drop(store);
    (
        digest(&arena),
        first.replayed_entries + second.replayed_entries,
    )
}

#[test]
fn hot_leaves_crashed_around_every_kind_of_capture_recover_the_checkpoint() {
    for shards in SHARDS {
        let mut replayed = 0;
        for seed in 0..50u64 {
            let cells: Vec<(u64, u64)> = WORKERS
                .iter()
                .map(|&w| hot_leaf_cell(shards, w, seed))
                .collect();
            assert_eq!(
                cells[0], cells[1],
                "shards={shards} seed={seed}: recovery must be byte-identical at every worker count"
            );
            replayed += cells[0].1;
        }
        assert!(
            replayed > 0,
            "shards={shards}: the tapes never reached the external log"
        );
    }
}

/// Fifteen keys per shard, in key order. Put in order into the shard's
/// fresh root leaf, key `i` holds slot `i`: keys 0–6 are in value line 3,
/// keys 7–13 in value line 4, and the fifteenth splits the full leaf.
fn leaf_keys(store: &Store) -> Vec<Vec<Vec<u8>>> {
    (0..store.shard_count())
        .map(|s| {
            (0..)
                .map(|i| format!("leaf/{i:03}").into_bytes())
                .filter(|k| store.shard_of(k) == s)
                .take(15)
                .collect()
        })
        .collect()
}

/// Where byte `off` of thread 0's log buffer for `shard` lies.
fn log_buffer(arena: &PArena, shard: usize, off: u64) -> u64 {
    incll_extlog::slot_offset(arena, 0, shard, off)
}

/// A line entry (32 B header + 64 B line image) and the value store it
/// guards, crashed after the first `cut` of the entry's stores reached
/// the medium — `cut` past the last one persists the guarded store too.
/// With `tail`, the entry under test is its buffer's second, behind a
/// sealed capture of the leaf's other value line. Returns the arena
/// digest after recovery.
fn line_entry_cell(shards: usize, tail: bool, cut: usize, workers: usize) -> u64 {
    let what = format!("shards={shards} tail={tail} cut={cut} workers={workers}");
    let arena = tracked();
    let mut model = BTreeMap::new();
    let (entry, stores) = {
        let (store, _) = Store::open(&arena, options(shards, 1)).unwrap();
        let sess = store.session().unwrap();
        // A full leaf on the last shard: no slot was free at epoch start
        // for a key to move to, so a second hot value captures its line.
        let keys = &leaf_keys(&store)[shards - 1][..14];
        for (i, k) in keys.iter().enumerate() {
            store.put(&sess, k, &val(i as u64)).unwrap();
            model.insert(k.clone(), val(i as u64));
        }
        store.checkpoint();
        // The doomed epoch: slot 0 takes line 3's ValInCLL; with `tail`,
        // slot 1 captures line 3 and slot 7 takes line 4's ValInCLL. The
        // next update (slot 1, or slot 8) captures its line: the entry
        // under test.
        store.put(&sess, &keys[0], b"doomed").unwrap();
        let mut hot = 1;
        if tail {
            store.put(&sess, &keys[1], b"doomed").unwrap();
            store.put(&sess, &keys[7], b"doomed").unwrap();
            hot = 8;
        }
        // Everything before the entry under test reaches the medium.
        arena.global_flush();
        let entry = log_buffer(&arena, shards - 1, if tail { 96 } else { 0 });
        let lines: Vec<u64> = (entry / 64..=(entry + 95) / 64).collect();
        let before: Vec<Vec<u8>> = lines.iter().map(|l| read(&arena, l * 64, 64)).collect();
        store.put(&sess, &keys[hot], b"doomed").unwrap();
        assert_eq!(arena.pread_u64(entry + 16) & ((1 << 48) - 1), 64, "{what}");
        // Take the sealed entry off the medium again and re-issue its
        // stores unflushed, in append order — payload, one store per
        // line, then the four header words — so the crash below can keep
        // any prefix of them.
        let sealed = read(&arena, entry, 96);
        for (l, old) in lines.iter().zip(&before) {
            arena.pwrite_bytes(l * 64, old);
            arena.clwb(l * 64);
        }
        arena.sfence();
        let mut stores = Vec::new();
        let mut at = entry + 32;
        while at < entry + 96 {
            let end = ((at / 64 + 1) * 64).min(entry + 96);
            stores.push((at, end));
            at = end;
        }
        stores.extend((0..4).map(|w| (entry + 8 * w, entry + 8 * w + 8)));
        for &(start, end) in &stores {
            arena.pwrite_bytes(
                start,
                &sealed[(start - entry) as usize..(end - entry) as usize],
            );
        }
        (entry, stores)
    };
    let entry_lines = entry / 64..=(entry + 95) / 64;
    let whole = cut >= stores.len();
    let mut rng = cut as u64;
    arena.crash_with(|line, n| {
        if entry_lines.contains(&line) {
            let mine = stores.iter().filter(|s| s.0 / 64 == line);
            assert_eq!(n, mine.count(), "{what}: only the entry is unflushed there");
            stores[..cut.min(stores.len())]
                .iter()
                .filter(|s| s.0 / 64 == line)
                .count()
        } else if !whole {
            // The guarded store — and everything after the seal — waits
            // for the entry; the update's earlier stores may as well.
            0
        } else if cut > stores.len() {
            n
        } else {
            splitmix(&mut rng) as usize % (n + 1)
        }
    });
    let (store, report) = Store::open(&arena, options(shards, workers)).unwrap();
    let entries = u64::from(tail) + u64::from(whole);
    assert_eq!(
        (report.replayed_entries, report.replayed_bytes),
        (entries, 64 * entries),
        "{what}: the valid prefix ends at a torn entry"
    );
    assert_holds(&store, &model, &what);
    drop(store);
    digest(&arena)
}

#[test]
fn every_persisted_prefix_of_a_line_entry_and_its_guarded_store_recovers_the_checkpoint() {
    for shards in SHARDS {
        // Two payload stores (the image spans two lines) and four header
        // words, then the guarded store.
        for cut in 0..=7 {
            let digests: Vec<u64> = WORKERS
                .iter()
                .map(|&w| line_entry_cell(shards, false, cut, w))
                .collect();
            assert_eq!(digests[0], digests[1], "shards={shards} cut={cut}");
        }
    }
}

#[test]
fn a_torn_line_entry_at_a_buffer_tail_ends_the_valid_prefix_and_its_store_never_happened() {
    for shards in SHARDS {
        // One payload store (the image fills one line), four header words,
        // then the guarded store; every cut below 5 tears the entry.
        for cut in 0..=6 {
            let digests: Vec<u64> = WORKERS
                .iter()
                .map(|&w| line_entry_cell(shards, true, cut, w))
                .collect();
            assert_eq!(digests[0], digests[1], "shards={shards} cut={cut}");
        }
    }
}

/// A move's crash cell: every shard's root leaf gets its first `written`
/// keys (key `i` in slot `i`), checkpointed; `doomed` runs on every shard
/// and the arena crashes at `seed`. The reopened store must hold the
/// checkpoint; `doomed` runs again in the recovery epoch, on leaves lazy
/// recovery re-stamped — when the store was read back first, or on the
/// tape's own first access without `read_back` — and a second crash must
/// land on the checkpoint too. Returns the final arena digest.
fn move_cell(
    shards: usize,
    workers: usize,
    seed: u64,
    written: usize,
    read_back: bool,
    doomed: &impl Fn(&Store, &Session, &[Vec<u8>]),
) -> u64 {
    let what = format!("shards={shards} workers={workers} seed={seed}");
    let arena = tracked();
    let mut model = BTreeMap::new();
    {
        let (store, _) = Store::open(&arena, options(shards, 1)).unwrap();
        let sess = store.session().unwrap();
        for shard_keys in leaf_keys(&store) {
            for (i, k) in shard_keys[..written].iter().enumerate() {
                store.put(&sess, k, &val(i as u64)).unwrap();
                model.insert(k.clone(), val(i as u64));
            }
        }
        store.checkpoint();
        for shard_keys in leaf_keys(&store) {
            doomed(&store, &sess, &shard_keys);
        }
    }
    arena.crash_seeded(2 * seed);
    {
        let (store, _) = Store::open(&arena, options(shards, workers)).unwrap();
        if read_back {
            assert_holds(&store, &model, &format!("{what}: first recovery"));
        }
        let sess = store.session().unwrap();
        for shard_keys in leaf_keys(&store) {
            doomed(&store, &sess, &shard_keys);
        }
    }
    arena.crash_seeded(2 * seed + 1);
    let (store, _) = Store::open(&arena, options(shards, workers)).unwrap();
    assert_holds(&store, &model, &format!("{what}: second recovery"));
    drop(store);
    digest(&arena)
}

/// [`move_cell`] at shards {1, 4} and seeds 0..10, byte-identical at
/// recovery workers {1, 4}.
fn moves_recover_the_checkpoint(
    written: usize,
    read_back: bool,
    doomed: impl Fn(&Store, &Session, &[Vec<u8>]),
) {
    for shards in SHARDS {
        for seed in 0..10 {
            let digests: Vec<u64> = WORKERS
                .iter()
                .map(|&w| move_cell(shards, w, seed, written, read_back, &doomed))
                .collect();
            assert_eq!(digests[0], digests[1], "shards={shards} seed={seed}");
        }
    }
}

#[test]
fn crash_reverts_a_move_and_the_moved_keys_next_updates() {
    moves_recover_the_checkpoint(7, true, |store, sess, keys| {
        // Slot 0 takes line 3's ValInCLL; slots 1 and 2 move to 7 and 8.
        store.put(sess, &keys[0], b"doomed").unwrap();
        store.put(sess, &keys[1], b"moved").unwrap();
        store.put(sess, &keys[1], b"moved again").unwrap();
        store.put(sess, &keys[2], b"moved").unwrap();
        store.put_u64(sess, &keys[2], 2).unwrap();
        store.put(sess, &keys[0], b"doomed again").unwrap();
    });
}

#[test]
fn crash_reverts_a_move_then_removes_around_it() {
    moves_recover_the_checkpoint(7, true, |store, sess, keys| {
        store.put(sess, &keys[0], b"doomed").unwrap();
        store.put(sess, &keys[1], b"moved").unwrap();
        assert!(store.remove(sess, &keys[1]));
        assert!(store.remove(sess, &keys[2]));
        // Slot 2 fronts the free region but held a key at epoch start:
        // the next move takes slot 7, which the removed moved key left.
        store.put(sess, &keys[3], b"moved").unwrap();
        store.put(sess, &keys[3], b"moved again").unwrap();
        store.put(sess, &keys[7], b"inserted").unwrap();
        assert!(store.remove(sess, &keys[3]));
    });
}

#[test]
fn crash_reverts_a_move_then_the_insert_that_captures_the_head() {
    moves_recover_the_checkpoint(12, true, |store, sess, keys| {
        // The move takes slot 12, the insert the last free slot, 13.
        store.put(sess, &keys[0], b"doomed").unwrap();
        store.put(sess, &keys[1], b"moved").unwrap();
        store.put(sess, &keys[12], b"inserted").unwrap();
        // Only slots the checkpoint's keys held are left: the next
        // insert captures the head, and the epoch logs nothing more.
        assert!(store.remove(sess, &keys[5]));
        store.put(sess, &keys[13], b"captured").unwrap();
        store.put(sess, &keys[2], b"after").unwrap();
        store.put(sess, &keys[1], b"after").unwrap();
    });
}

#[test]
fn crash_reverts_a_move_then_a_split() {
    moves_recover_the_checkpoint(13, true, |store, sess, keys| {
        // The move takes slot 13; the insert after it reuses slot 1
        // through the head capture, and the next one splits the leaf.
        store.put(sess, &keys[0], b"doomed").unwrap();
        store.put(sess, &keys[1], b"moved").unwrap();
        store.put(sess, &keys[13], b"captured").unwrap();
        store.put(sess, &keys[14], b"split").unwrap();
        for k in keys {
            store.put(sess, k, b"after the split").unwrap();
        }
    });
}

#[test]
fn crash_reverts_a_move_on_a_leaf_lazy_recovery_restamped_under_it() {
    // The recovery epoch's tape is the leaf's first access: its descent
    // re-stamps the leaf, then the same update moves a key.
    moves_recover_the_checkpoint(7, false, |store, sess, keys| {
        store.put(sess, &keys[4], b"doomed").unwrap();
        store.put(sess, &keys[5], b"moved").unwrap();
        assert!(store.remove(sess, &keys[6]));
        store.put(sess, &keys[3], b"moved").unwrap();
        store.put(sess, &keys[5], b"moved again").unwrap();
    });
}

/// The root leaf of `shard` (a leaf of at most 14 keys never split).
fn root_leaf(arena: &PArena, shard: usize) -> u64 {
    arena.pread_u64(superblock::shard_root_holder(shard))
}

/// Stores a move leaves unflushed in its leaf, per line: the lock, the
/// dirty mark, the permutation and the unlock (line 0); the key (line 1);
/// the `klenx` word (line 2); the value (line 4). Line 3 is the source
/// line, which the move does not write.
const MOVE_STORES: [usize; 5] = [4, 1, 1, 0, 1];

/// Seven keys in the last shard's root leaf, checkpointed. In the doomed
/// epoch slot 0 takes line 3's ValInCLL and everything so far reaches the
/// medium; then slot 1's update moves its key to slot 7. The crash keeps
/// the first `kept[l]` of leaf line `l`'s stores, and the value buffer's
/// and allocator's lines whole with `rest`, not at all without. Recovery
/// must replay nothing and land on the checkpoint. Returns the digest.
fn move_prefix_cell(shards: usize, kept: [usize; 5], rest: bool, workers: usize) -> u64 {
    let what = format!("shards={shards} kept={kept:?} rest={rest} workers={workers}");
    let arena = tracked();
    let mut model = BTreeMap::new();
    let leaf = {
        let (store, _) = Store::open(&arena, options(shards, 1)).unwrap();
        let sess = store.session().unwrap();
        let keys = &leaf_keys(&store)[shards - 1];
        for (i, k) in keys[..7].iter().enumerate() {
            store.put(&sess, k, &val(i as u64)).unwrap();
            model.insert(k.clone(), val(i as u64));
        }
        store.checkpoint();
        store.put(&sess, &keys[0], b"doomed").unwrap();
        arena.global_flush();
        store.put(&sess, &keys[1], b"moved").unwrap();
        root_leaf(&arena, shards - 1) / 64
    };
    arena.crash_with(|line, n| match line.checked_sub(leaf) {
        Some(l) if l < 5 => {
            assert_eq!(n, MOVE_STORES[l as usize], "{what}: line {l}");
            kept[l as usize]
        }
        _ if rest => n,
        _ => 0,
    });
    let (store, report) = Store::open(&arena, options(shards, workers)).unwrap();
    assert_eq!(report.replayed_entries, 0, "{what}: a move logs nothing");
    assert_holds(&store, &model, &what);
    drop(store);
    digest(&arena)
}

#[test]
fn every_persisted_prefix_of_a_moves_stores_recovers_the_checkpoint() {
    for shards in SHARDS {
        for cell in 0..MOVE_STORES.iter().map(|&n| n + 1).product::<usize>() {
            let mut kept = [0; 5];
            let mut digits = cell;
            for (k, n) in kept.iter_mut().zip(MOVE_STORES) {
                *k = digits % (n + 1);
                digits /= n + 1;
            }
            for rest in [false, true] {
                let digests: Vec<u64> = WORKERS
                    .iter()
                    .map(|&w| move_prefix_cell(shards, kept, rest, w))
                    .collect();
                assert_eq!(
                    digests[0], digests[1],
                    "shards={shards} kept={kept:?} rest={rest}"
                );
            }
        }
    }
}
