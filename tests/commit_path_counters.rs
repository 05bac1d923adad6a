//! The durable commit path, judged by deterministic persistence counters
//! (`PArena::stats()` deltas) instead of wall-clock throughput: what a
//! group saves over singles is fences, what a batch saves over the
//! checkpoint barrier is flushes, what ends an epoch nobody asked for is
//! log room and nothing else, and what a leaf's undo costs is the cache
//! lines it dirtied — all countable exactly.

use incll_pmem::superblock::BATCH_ID_BLOCK;
use incll_repro::prelude::*;
use incll_server::{
    encode_request, encode_response, CommitMode, Request, Response, ServerConfig, Service,
};

const SHARDS: usize = 4;

/// A fresh 4-shard store with keys `0..256` preloaded and checkpointed,
/// so every run below starts from the same media state.
fn prepared() -> (PArena, Store) {
    let arena = PArena::builder().capacity_bytes(64 << 20).build().unwrap();
    let options = Options::new()
        .threads(4)
        .log_bytes_per_thread(4 << 20)
        .shards(SHARDS);
    let (store, _) = Store::open(&arena, options).unwrap();
    let sess = store.session().unwrap();
    for i in 0..256u64 {
        store.put(&sess, &key(i), &[0u8; 64]).unwrap();
    }
    store.checkpoint();
    drop(sess);
    (arena, store)
}

fn key(i: u64) -> Vec<u8> {
    i.to_be_bytes().to_vec()
}

/// `n` one-op durable commits; returns the fences they cost.
fn single_commit_fences(n: u64) -> u64 {
    let (arena, store) = prepared();
    let sess = store.session().unwrap();
    let before = arena.stats().snapshot();
    for i in 0..n {
        let mut b = sess.batch();
        b.put(&key(i), &[i as u8; 64]).unwrap();
        assert!(b.commit_durable().unwrap() >= 1);
    }
    arena.stats().snapshot().delta(&before).sfence
}

/// The fences the ordinary write path pays for the same `n` updates with
/// no commit protocol around them: the apply-side share of a commit
/// (undo entries for nodes InCLL cannot cover, allocator refills).
fn apply_fences(n: u64) -> u64 {
    let (arena, store) = prepared();
    let sess = store.session().unwrap();
    let before = arena.stats().snapshot();
    for i in 0..n {
        store.put(&sess, &key(i), &[i as u8; 64]).unwrap();
    }
    arena.stats().snapshot().delta(&before).sfence
}

#[test]
fn a_durable_commit_costs_two_fences_at_any_shard_count() {
    let (arena, store) = prepared();
    let sess = store.session().unwrap();
    // One key per shard; each is its leaf's first update of the epoch,
    // which the in-cache-line log absorbs without an external entry.
    let per_shard: Vec<Vec<u8>> = (0..SHARDS)
        .map(|s| (0..256).map(key).find(|k| store.shard_of(k) == s).unwrap())
        .collect();
    // Reserve the id block and warm the allocator, then start the epoch
    // over so the counted commits meet untouched leaves.
    let mut b = sess.batch();
    for k in &per_shard {
        b.put(k, &[1; 64]).unwrap();
    }
    b.commit_durable().unwrap();
    for covered in [1, SHARDS, 2] {
        store.checkpoint();
        let before = arena.stats().snapshot();
        let mut b = sess.batch();
        for k in &per_shard[..covered] {
            b.put(k, &[covered as u8; 64]).unwrap();
        }
        assert!(b.commit_durable().unwrap() >= 1);
        let d = arena.stats().snapshot().delta(&before);
        // Intents before record, record before ack — and nothing else.
        assert_eq!(d.sfence, 2, "a commit covering {covered} shards");
        assert_eq!((d.scoped_flush, d.global_flush), (0, 0));
    }
}

#[test]
fn one_durable_group_saves_two_fences_per_rider_over_singles() {
    const N: u64 = 64;
    let (arena, store) = prepared();
    let sess = store.session().unwrap();
    let before = arena.stats().snapshot();
    let mut b = sess.batch();
    for i in 0..N {
        b.put(&key(i), &[i as u8; 64]).unwrap();
    }
    assert!(b.commit_durable().unwrap() >= 1);
    let grouped = arena.stats().snapshot().delta(&before).sfence;

    // A commit pays one fence for its intents (every covered shard's
    // behind the same one) and one for its record, whatever it carries;
    // the id allocator pays one per block of ids. The apply-side fences
    // are the ordinary write path's and common to both.
    let apply = apply_fences(N);
    let id_blocks = |commits: u64| commits.div_ceil(BATCH_ID_BLOCK);
    assert_eq!(grouped, 2 + id_blocks(1) + apply);
    assert_eq!(single_commit_fences(N), 2 * N + id_blocks(N) + apply);
}

#[test]
fn a_group_window_costs_fewer_fences_than_single_durable_commits() {
    const N: u64 = 100;
    let (arena, store) = prepared();
    let svc = Service::new(store.clone(), &ServerConfig::default()).unwrap();
    // N PUT frames that arrived together are exactly one drain's group.
    let mut input = Vec::new();
    for i in 0..N {
        let put = Request::Put {
            key: key(i),
            val: vec![i as u8; 64],
        };
        encode_request(&put, &mut input);
    }
    let before = arena.stats().snapshot();
    let mut replies = Vec::new();
    assert_eq!(svc.serve_buffered(0, &input, &mut replies), input.len());
    let grouped = arena.stats().snapshot().delta(&before).sfence;
    assert_eq!(svc.group_stats(), (1, N), "one group");
    let mut ok = Vec::new();
    encode_response(&Response::Ok, &mut ok);
    assert_eq!(replies, ok.repeat(N as usize), "every write acked");

    let singles = single_commit_fences(N);
    assert!(
        grouped < singles,
        "one {N}-op group cost {grouped} fences, {N} singles cost {singles}"
    );
}

fn forced(store: &Store) -> Vec<u64> {
    (0..SHARDS)
        .map(|s| store.shard_stats(s).advances_forced)
        .collect()
}

#[test]
fn a_cadence_less_store_pays_one_forced_flush_per_shard_per_table_of_commits() {
    // What the name remembers: up to layout v9 every commit took a table
    // slot, and the 217th found the table full and flushed every shard.
    // Commits coalesce into one run now, so a table of commits — and
    // another, and half of a third — costs no flush at all.
    const COMMITS: u64 = 500;
    let (arena, store) = prepared();
    let sess = store.session().unwrap();
    let before = arena.stats().snapshot();
    for round in 0..COMMITS {
        let mut b = sess.batch();
        let mut mask = 0u64;
        for i in 0..16u64 {
            mask |= 1 << store.shard_of(&key(i));
            b.put(&key(i), &[round as u8; 64]).unwrap();
        }
        assert_eq!(mask.count_ones() as usize, SHARDS);
        assert_eq!(b.commit_durable().unwrap(), round + 1);
    }
    let d = arena.stats().snapshot().delta(&before);
    assert_eq!((d.scoped_flush, d.global_flush), (0, 0));
    assert_eq!(forced(&store), [0; SHARDS]);
    assert_eq!(store.commit_runs_live(), 1);
    // What a crash would redo is what bounds the epoch instead: every
    // shard still holds all 500 commits' intents.
    for s in 0..SHARDS {
        let st = store.shard_stats(s);
        assert_eq!(st.advances_fired, 1, "prepared()'s checkpoint, no other");
        assert!(st.in_doubt_log_bytes >= COMMITS * 64);
    }
}

#[test]
fn a_full_log_buffer_forces_one_flush_on_exactly_its_shard() {
    let (arena, store) = prepared();
    let sess = store.session().unwrap();
    // 4 MiB per thread over 4 shards: 1 MiB per (thread, shard) buffer.
    // Each commit puts 64 × 1 KiB values on shard 2 only.
    let keys: Vec<Vec<u8>> = (0..256)
        .map(key)
        .filter(|k| store.shard_of(k) == 2)
        .take(16)
        .collect();
    let before = arena.stats().snapshot();
    let mut commits = 0u64;
    let mut in_doubt_peak = 0;
    while forced(&store) == [0; SHARDS] {
        in_doubt_peak = store.shard_stats(2).in_doubt_log_bytes;
        let mut b = sess.batch();
        for k in keys.iter().cycle().take(64) {
            b.put(k, &[commits as u8; 1024]).unwrap();
        }
        b.commit_durable().unwrap();
        commits += 1;
        assert!(commits < 100, "the log-room rule never fired");
    }
    let d = arena.stats().snapshot().delta(&before);
    assert_eq!(forced(&store), [0, 0, 1, 0]);
    assert_eq!((d.scoped_flush, d.global_flush), (1, 0));
    // The buffer held more than one commit's worth before it ran short,
    // the boundary emptied it, and the commit that forced the boundary
    // is the only one in doubt now.
    let one_commit = 64 * (32 + 16 + 8 + 1024);
    assert!(commits > 2 && in_doubt_peak >= (commits - 1) * one_commit);
    assert!(in_doubt_peak <= 1 << 20, "bounded by the buffer");
    assert_eq!(store.shard_stats(2).in_doubt_log_bytes, one_commit);
    assert_eq!(store.commit_runs_live(), 1, "still one run");
}

#[test]
fn a_cross_shard_commit_flushes_nothing_where_the_barrier_flushes_every_shard() {
    let (arena, store) = prepared();
    let sess = store.session().unwrap();
    let mut b = sess.batch();
    let mut mask = 0u64;
    for i in 0..16u64 {
        mask |= 1 << store.shard_of(&key(i));
        b.put(&key(i), b"batched").unwrap();
    }
    assert_eq!(
        mask.count_ones() as usize,
        SHARDS,
        "the batch spans every shard"
    );

    let before = arena.stats().snapshot();
    assert!(b.commit().unwrap() >= 1);
    let d = arena.stats().snapshot().delta(&before);
    assert_eq!((d.scoped_flush, d.global_flush), (0, 0));

    let before = arena.stats().snapshot();
    store.checkpoint();
    let d = arena.stats().snapshot().delta(&before);
    assert_eq!(d.scoped_flush + d.global_flush, SHARDS as u64);
}

/// A store with one leaf per shard, filled in key order, checkpointed:
/// `keys[s][i]` sits in slot `i` of shard `s`'s root leaf (slots 0–6 are
/// value line 3, 7–13 value line 4). The next `extra` keys of each shard
/// are returned unwritten.
fn slotted(
    shards: usize,
    log_bytes: usize,
    written: usize,
    extra: usize,
) -> (PArena, Store, Vec<Vec<Vec<u8>>>) {
    let arena = PArena::builder().capacity_bytes(32 << 20).build().unwrap();
    let options = Options::new()
        .threads(1)
        .log_bytes_per_thread(log_bytes)
        .shards(shards);
    let (store, _) = Store::open(&arena, options).unwrap();
    let keys: Vec<Vec<Vec<u8>>> = (0..shards)
        .map(|s| {
            (0..)
                .map(key)
                .filter(|k| store.shard_of(k) == s)
                .take(written + extra)
                .collect()
        })
        .collect();
    let sess = store.session().unwrap();
    for shard_keys in &keys {
        for k in &shard_keys[..written] {
            store.put(&sess, k, &[7; 64]).unwrap();
        }
    }
    drop(sess);
    store.checkpoint();
    (arena, store, keys)
}

/// A leaf pays for the lines it dirties. In a full leaf — no slot free at
/// epoch start for a key to move to — three updates in one value line
/// cost one sealed 64-byte line image, three in the other line one more,
/// and the change that needs the whole leaf then logs only its head —
/// whatever replay later reads is exactly those regions.
#[test]
fn a_leaf_logs_each_region_once_per_epoch_and_replay_reads_only_those() {
    for split in [false, true] {
        let (arena, store, keys) = slotted(1, 1 << 20, 14, 1);
        let keys = &keys[0];
        let sess = store.session().unwrap();
        let checkpoint: Vec<(Vec<u8>, Vec<u8>)> = store.iter(&sess).collect();
        assert_eq!(checkpoint.len(), 14);
        let counted = |slots: &[usize]| {
            let before = arena.stats().snapshot();
            for &i in slots {
                store.put(&sess, &keys[i], &[i as u8; 64]).unwrap();
            }
            let d = arena.stats().snapshot().delta(&before);
            (d.ext_bytes_logged, d.sfence, d.ext_nodes_logged)
        };
        // Slot 0 takes line 3's ValInCLL, slot 1 captures the line (the
        // leaf's first capture: one logged node), slot 2 is free.
        assert_eq!(counted(&[0, 1, 2]), (64, 1, 1), "split={split}");
        // Line 4 likewise — the same leaf in the same epoch, no new node.
        assert_eq!(counted(&[7, 8, 9]), (64, 1, 0), "split={split}");
        let before = arena.stats().snapshot();
        if split {
            // A 15th key splits the full leaf: its head is all that is
            // left to capture. The leaf is its layer's root, so the split
            // also seals the 16-byte root holder it swings.
            store.put(&sess, &keys[14], b"split").unwrap();
        } else {
            // The leaf was full at the checkpoint, so the insert can only
            // reuse the removed key's slot and InCLLp cannot cover it:
            // head only.
            assert!(store.remove(&sess, &keys[13]));
            store.put(&sess, &keys[14], b"reinsert").unwrap();
        }
        let d = arena.stats().snapshot().delta(&before);
        let holder = if split { 16 } else { 0 };
        assert_eq!(
            (d.ext_bytes_logged, d.sfence, d.ext_nodes_logged),
            (192 + holder, 1 + u64::from(split), u64::from(split)),
            "split={split}"
        );
        drop(sess);
        drop(store);
        // Reopening without a checkpoint fails the epoch: replay reads the
        // leaf's three regions — 64 + 64 + 192 = 320 bytes, one leaf's
        // worth — and the holder when the split swung it.
        let (store, report) = Store::open(&arena, Options::new().threads(1)).unwrap();
        assert_eq!(
            (report.replayed_entries, report.replayed_bytes),
            (3 + u64::from(split), 320 + holder),
            "split={split}"
        );
        let sess = store.session().unwrap();
        let got: Vec<(Vec<u8>, Vec<u8>)> = store.iter(&sess).collect();
        assert_eq!(got, checkpoint, "split={split}: the checkpoint, exactly");
    }
}

/// `(ext_bytes_logged, sfence, ext_nodes_logged)` that `ops` cost.
fn undo_cost(arena: &PArena, ops: impl FnOnce()) -> (u64, u64, u64) {
    let before = arena.stats().snapshot();
    ops();
    let d = arena.stats().snapshot().delta(&before);
    (d.ext_bytes_logged, d.sfence, d.ext_nodes_logged)
}

/// A leaf of 7 keys has 7 slots that were free at the checkpoint. Three
/// removes and three inserts into it stay in the cache line: each insert
/// takes one of those slots, which the epoch-start permutation InCLLp
/// restores never names — on every shard, no undo and no fence.
#[test]
fn three_removes_and_three_inserts_in_a_leaf_log_nothing() {
    for shards in [1, 4] {
        let (arena, store, keys) = slotted(shards, 1 << 20, 7, 3);
        let sess = store.session().unwrap();
        let cost = undo_cost(&arena, || {
            for shard_keys in &keys {
                for k in &shard_keys[..3] {
                    assert!(store.remove(&sess, k));
                }
                for k in &shard_keys[7..] {
                    store.put(&sess, k, b"inserted").unwrap();
                }
            }
        });
        assert_eq!(cost, (0, 0, 0), "shards={shards}");
        for shard_keys in &keys {
            assert_eq!(store.get(&sess, &shard_keys[0]), None);
            assert_eq!(store.get(&sess, &shard_keys[9]).unwrap(), b"inserted");
        }
    }
}

/// Remove/insert cycles use up the slots that were free at the
/// checkpoint one by one, for free. The insert that finds only slots the
/// checkpoint's keys held is the hazard InCLLp cannot cover: it captures
/// what the leaf has not captured yet under one fence — the whole leaf as
/// its first capture, or exactly the 192-byte head once both value lines
/// were captured by updates. A leaf of 9 keys (slots 0–6 in value line 3,
/// 7–8 in line 4) has 5 free slots; once the cycles have taken them, a
/// second hot value in a line has no slot to move to and captures it.
#[test]
fn inserts_take_slots_free_at_epoch_start_until_none_is_left_then_capture_the_head() {
    for shards in [1, 4] {
        for lines_first in [false, true] {
            let case = format!("shards={shards} lines_first={lines_first}");
            let (arena, store, keys) = slotted(shards, 1 << 20, 9, 6);
            let sess = store.session().unwrap();
            let put = |k: &[u8], v: &[u8]| store.put(&sess, k, v).unwrap();
            let lines = |slots: [usize; 2]| {
                undo_cost(&arena, || {
                    for shard_keys in &keys {
                        for i in slots {
                            put(&shard_keys[i], b"update");
                        }
                    }
                })
            };
            let n = shards as u64;
            let cycles = undo_cost(&arena, || {
                for shard_keys in &keys {
                    for i in 0..5 {
                        assert!(store.remove(&sess, &shard_keys[i]));
                        put(&shard_keys[9 + i], b"cycled");
                    }
                }
            });
            assert_eq!(cycles, (0, 0, 0), "{case}");
            if lines_first {
                // Slot 5 takes line 3's ValInCLL, slot 6 captures the
                // line: the leaf's first capture, one logged node.
                assert_eq!(lines([5, 6]), (64 * n, n, n), "{case}");
                // Line 4 likewise — the same leaf, no new node.
                assert_eq!(lines([7, 8]), (64 * n, n, 0), "{case}");
            }
            let fallback = undo_cost(&arena, || {
                for shard_keys in &keys {
                    put(&shard_keys[14], b"fallback");
                }
            });
            let (bytes, nodes) = if lines_first { (192, 0) } else { (320, 1) };
            assert_eq!(fallback, (bytes * n, n, nodes * n), "{case}");
            // Captured: the rest of the epoch is free.
            let after = undo_cost(&arena, || {
                for shard_keys in &keys {
                    assert!(store.remove(&sess, &shard_keys[9]));
                    put(&shard_keys[0], b"after");
                    put(&shard_keys[5], b"after");
                    put(&shard_keys[6], b"after");
                }
            });
            assert_eq!(after, (0, 0, 0), "{case}");
        }
    }
}

/// A second hot value in a value line whose ValInCLL holds another slot
/// moves its key into a slot that was free at the checkpoint: InCLLp
/// covers the move as it covers an insert, and the old slot keeps the
/// value InCLLp names. A moved key updated again stays where it is —
/// its slot was free at epoch start — so none of it logs or fences.
#[test]
fn a_second_hot_value_moves_its_key_and_logs_nothing() {
    for shards in [1, 4] {
        let (arena, store, keys) = slotted(shards, 1 << 20, 7, 0);
        let sess = store.session().unwrap();
        let cost = undo_cost(&arena, || {
            for shard_keys in &keys {
                // Slot 0 takes line 3's ValInCLL; slots 1–6 move to 7–12.
                for (i, k) in shard_keys.iter().enumerate() {
                    store.put(&sess, k, &[i as u8; 64]).unwrap();
                }
            }
        });
        assert_eq!(cost, (0, 0, 0), "shards={shards}: the moves");
        let again = undo_cost(&arena, || {
            for shard_keys in &keys {
                for k in shard_keys {
                    store.put(&sess, k, b"again").unwrap();
                    store.put(&sess, k, b"and again").unwrap();
                }
            }
        });
        assert_eq!(again, (0, 0, 0), "shards={shards}: the moved keys");
        for shard_keys in &keys {
            for k in shard_keys {
                assert_eq!(store.get(&sess, k).unwrap(), b"and again");
            }
        }
        assert_eq!(store.iter(&sess).count(), 7 * shards);
    }
}

/// A key inserted this epoch sits in a slot that was free at the
/// checkpoint, so its updates need no undo and leave its line's ValInCLL
/// free: in a leaf the insert filled, the checkpoint's key in that line
/// still takes the ValInCLL for free. With no free slot left, the next
/// hot value in the line pays exactly one 64-byte line image and one
/// fence.
#[test]
fn an_inserted_key_updates_for_free_and_a_full_leaf_pays_one_line() {
    for shards in [1, 4] {
        let (arena, store, keys) = slotted(shards, 1 << 20, 13, 1);
        let sess = store.session().unwrap();
        let n = shards as u64;
        let fresh = undo_cost(&arena, || {
            for shard_keys in &keys {
                // Slot 13 (value line 4) was free at the checkpoint.
                store.put(&sess, &shard_keys[13], b"inserted").unwrap();
                store.put(&sess, &shard_keys[13], b"updated").unwrap();
                // Line 4's ValInCLL is still free for slot 7.
                store.put(&sess, &shard_keys[7], b"updated").unwrap();
            }
        });
        assert_eq!(fresh, (0, 0, 0), "shards={shards}");
        let full = undo_cost(&arena, || {
            for shard_keys in &keys {
                store.put(&sess, &shard_keys[8], b"updated").unwrap();
            }
        });
        assert_eq!(full, (64 * n, n, n), "shards={shards}: the full leaf");
        for shard_keys in &keys {
            assert_eq!(store.get(&sess, &shard_keys[13]).unwrap(), b"updated");
            assert_eq!(store.get(&sess, &shard_keys[8]).unwrap(), b"updated");
        }
    }
}

/// A key removed and put back in the same epoch returns in a slot that
/// was free at the checkpoint, not its old one: no undo, no fence.
#[test]
fn a_removed_key_reinserted_in_the_same_epoch_logs_nothing() {
    let (arena, store, keys) = slotted(1, 1 << 20, 7, 0);
    let k = &keys[0][3];
    let sess = store.session().unwrap();
    let cost = undo_cost(&arena, || {
        assert!(store.remove(&sess, k));
        store.put(&sess, k, b"again").unwrap();
    });
    assert_eq!(cost, (0, 0, 0));
    assert_eq!(store.get(&sess, k).unwrap(), b"again");
    assert_eq!(store.iter(&sess).count(), 7);
}

/// The log-room allowance prices a leaf captured region by region. A
/// cross-shard batch whose ops capture every region of two leaves —
/// line 3, line 4, and the head by a remove and an insert into a leaf that
/// was full at epoch start — is committed
/// against a (thread, shard) buffer filled to levels on both sides of the
/// batch's need: it commits where the buffer has room and forces a
/// boundary on that shard first where it has not, and never overruns it.
#[test]
fn a_batch_capturing_every_region_of_two_leaves_fits_or_forces_a_boundary() {
    const LOG_BYTES: usize = 64 << 10; // 32 KiB per (thread, shard)
    let mut outcomes = std::collections::BTreeSet::new();
    for fillers in 18..=26u64 {
        let (arena, store, keys) = slotted(2, LOG_BYTES, 14, 1);
        let sess = store.session().unwrap();
        // Fill shard 0's buffer with durable one-op commits on slot 0's
        // key: intents only (its line's ValInCLL absorbs every update).
        for i in 0..fillers {
            let mut b = sess.batch();
            b.put(&keys[0][0], &[i as u8; 1000]).unwrap();
            b.commit_durable().unwrap();
        }
        assert_eq!(store.shard_stats(0).advances_forced, 0, "fillers={fillers}");
        let mut b = sess.batch();
        let mut intent_bytes = 0;
        for shard_keys in &keys {
            for i in [1, 2, 7, 8] {
                b.put(&shard_keys[i], b"line").unwrap();
                intent_bytes += 16 + 8 + 4;
            }
            b.delete(&shard_keys[13]).unwrap();
            b.put(&shard_keys[14], b"head").unwrap();
            intent_bytes += (16 + 8) + (16 + 8 + 4);
        }
        let before = arena.stats().snapshot();
        assert!(b.commit().unwrap() >= 1, "fillers={fillers}");
        let d = arena.stats().snapshot().delta(&before);
        // 64 + 64 + 192 bytes of undo per leaf, whichever way it went.
        assert_eq!(
            d.ext_bytes_logged - intent_bytes,
            2 * 320,
            "fillers={fillers}"
        );
        let forced = store.shard_stats(0).advances_forced;
        assert!(forced <= 1 && store.shard_stats(1).advances_forced == 0);
        outcomes.insert(forced);
        for shard_keys in &keys {
            assert_eq!(store.get(&sess, &shard_keys[1]).unwrap(), b"line");
            assert_eq!(store.get(&sess, &shard_keys[13]), None);
            assert_eq!(store.get(&sess, &shard_keys[14]).unwrap(), b"head");
        }
    }
    assert_eq!(
        outcomes.into_iter().collect::<Vec<_>>(),
        [0, 1],
        "the sweep must cover both a batch that fits and one that forces a boundary"
    );
}

/// One op's worst-case undo, what every plain put reserves: three leaf
/// regions as separate entries, twelve interior-node images and the
/// layer's holder cell (`crates/core/src/tree.rs`, `OP_UNDO_BOUND`).
const OP_UNDO_BOUND: u64 = 224 + 96 + 96 + 12 * 352 + 48;

/// Grows shard `shard` of a [`prepared`] store by `n` fresh keys, in
/// scattered order, and checkpoints: the shard then has thousands of
/// leaves from before the running epoch, and an update scattered over
/// them captures value lines into its log (a leaf created in the running
/// epoch needs no pre-image, so inserts alone log little).
fn grown(store: &Store, shard: usize, n: usize) -> Vec<Vec<u8>> {
    let sess = store.session().unwrap();
    let keys: Vec<Vec<u8>> = (0u64..)
        .map(|i| key(256 + i.wrapping_mul(0x9E37_79B9) % (1 << 30)))
        .filter(|k| store.shard_of(k) == shard)
        .take(n)
        .collect();
    for k in &keys {
        store.put(&sess, k, &[1; 8]).unwrap();
    }
    store.checkpoint();
    keys
}

/// Plain puts obey the same rule as commits: the put that finds its
/// (thread, shard) buffer within one op's worst case of full checkpoints
/// that shard, and no other, before it starts.
#[test]
fn a_full_log_buffer_forces_one_flush_on_exactly_its_shard_for_plain_puts() {
    let (arena, store) = prepared();
    let keys = grown(&store, 2, 100_000);
    let sess = store.session().unwrap();
    let before = arena.stats().snapshot();
    let mut keys = keys.iter();
    let mut peak = 0;
    while forced(&store) == [0; SHARDS] {
        peak = store.shard_stats(2).bytes_since_boundary;
        let k = keys.next().expect("the log-room rule never fired");
        store.put(&sess, k, &[2; 8]).unwrap();
    }
    let d = arena.stats().snapshot().delta(&before);
    assert_eq!(forced(&store), [0, 0, 1, 0]);
    assert_eq!((d.scoped_flush, d.global_flush), (1, 0));
    // The rule fired within one op's worst case of the 1 MiB buffer's
    // end, before the buffer could overrun; the put that forced it is all
    // the shard has logged since.
    assert!(
        peak + OP_UNDO_BOUND > 1 << 20 && peak <= 1 << 20,
        "peak {peak}"
    );
    assert!(store.shard_stats(2).bytes_since_boundary <= OP_UNDO_BOUND);
    for s in [0, 1, 3] {
        assert_eq!(store.shard_stats(s).bytes_since_boundary, 0, "shard {s}");
    }
}

/// A put that would have to checkpoint while its own session holds a pin
/// cannot wait for that pin: it fails typed, having written nothing, and
/// goes through once the pin is gone.
#[test]
fn a_put_on_a_short_buffer_under_its_own_sessions_pin_fails_typed_and_writes_nothing() {
    let (arena, store) = prepared();
    let keys = grown(&store, 2, 100_000);
    let sess = store.session().unwrap();
    // Fill shard 2's buffer until the next put must checkpoint first.
    let mut next = keys.iter();
    while store.shard_stats(2).bytes_since_boundary + OP_UNDO_BOUND <= 1 << 20 {
        store.put(&sess, next.next().unwrap(), &[2; 8]).unwrap();
    }
    assert_eq!(forced(&store), [0; SHARDS]);
    let target = next.next().unwrap();
    let held = store.get_ref(&sess, &key(0)).unwrap();
    let (stats, before) = (store.shard_stats(2), arena.stats().snapshot());
    match store.put(&sess, target, b"pinned") {
        Err(Error::SessionPinned { shard }) => assert_eq!(shard, store.shard_of(&key(0))),
        other => panic!("expected SessionPinned, got {other:?}"),
    }
    // The 8-byte form obeys the same rule with the same error.
    match store.put_u64(&sess, target, 7) {
        Err(Error::SessionPinned { shard }) => assert_eq!(shard, store.shard_of(&key(0))),
        other => panic!("expected SessionPinned from put_u64, got {other:?}"),
    }
    let d = arena.stats().snapshot().delta(&before);
    assert_eq!((d.ext_bytes_logged, d.clwb, d.sfence), (0, 0, 0));
    assert_eq!((d.scoped_flush, d.global_flush), (0, 0));
    assert_eq!(store.shard_stats(2), stats);
    assert_eq!(store.get(&sess, target).unwrap(), [1; 8]);
    drop(held);
    store.put(&sess, target, b"pinned").unwrap();
    assert_eq!(forced(&store), [0, 0, 1, 0]);
    assert_eq!(store.get(&sess, target).unwrap(), b"pinned");
}

/// Keys of the log-room probe.
const PROBE_KEYS: u64 = 200_000;

/// The log-room probe: one session slot, a 256 KiB log and no cadence,
/// `PROBE_KEYS` keys inserted in a scattered order and checkpointed.
/// Nothing but the log-room rule ends an epoch on this store.
///
/// The scattered load leaves leaves 7 to 14 keys full, as random inserts
/// do. (Keys loaded in order leave every leaf at 8 keys with 6 free
/// slots, exactly the moves an update of each of its keys needs, so an
/// update tape would never capture a line.)
fn probe_store() -> (PArena, Store) {
    let arena = PArena::builder().capacity_bytes(256 << 20).build().unwrap();
    let options = Options::new().threads(1).log_bytes_per_thread(256 << 10);
    let (store, _) = Store::open(&arena, options).unwrap();
    let sess = store.session().unwrap();
    // The stride is coprime to `PROBE_KEYS`: every key once.
    for i in 0..PROBE_KEYS {
        store
            .put(&sess, &key(i * 0x9E37_79B9 % PROBE_KEYS), &[1; 8])
            .unwrap();
    }
    drop(sess);
    store.checkpoint();
    (arena, store)
}

/// `PROBE_KEYS` updates scattered over the probe's keys: nearly every
/// leaf takes several within an epoch, so a second hot value in a line
/// moves its key into a slot that was free at epoch start until a fuller
/// leaf has none left, and from then on each value line that overflows
/// its in-cache-line log is captured — far more undo than the buffer
/// holds.
fn scattered() -> impl Iterator<Item = Vec<u8>> {
    (0..PROBE_KEYS).map(|i| key(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % PROBE_KEYS))
}

/// Checks the probe survived on forced boundaries and lost no write.
fn probe_holds(store: &Store) {
    let st = store.shard_stats(0);
    assert!(st.advances_forced > 0, "{st:?}");
    assert!(st.bytes_since_boundary <= 256 << 10, "{st:?}");
    let sess = store.session().unwrap();
    assert_eq!(store.iter(&sess).count() as u64, PROBE_KEYS);
    for k in scattered().take(1000) {
        assert_eq!(store.get(&sess, &k).unwrap(), [2; 8]);
    }
}

#[test]
fn the_log_room_probe_passes_through_plain_puts() {
    let (_arena, store) = probe_store();
    let sess = store.session().unwrap();
    for k in scattered() {
        store.put(&sess, &k, &[2; 8]).unwrap();
    }
    drop(sess);
    probe_holds(&store);
}

#[test]
fn the_log_room_probe_passes_through_single_shard_commits() {
    let (_arena, store) = probe_store();
    let sess = store.session().unwrap();
    let keys: Vec<Vec<u8>> = scattered().collect();
    for chunk in keys.chunks(64) {
        let mut b = sess.batch();
        for k in chunk {
            b.put(k, &[2; 8]).unwrap();
        }
        assert_eq!(b.commit().unwrap(), 0, "the single-shard fast path");
    }
    drop(sess);
    probe_holds(&store);
}

#[test]
fn the_log_room_probe_passes_through_an_async_server() {
    let (_arena, store) = probe_store();
    let cfg = ServerConfig {
        workers: 1,
        commit: CommitMode::Async,
        ..ServerConfig::default()
    };
    let svc = Service::new(store.clone(), &cfg).unwrap();
    let mut ok = Vec::new();
    encode_response(&Response::Ok, &mut ok);
    let keys: Vec<Vec<u8>> = scattered().collect();
    for chunk in keys.chunks(256) {
        let mut input = Vec::new();
        for k in chunk {
            let put = Request::Put {
                key: k.clone(),
                val: vec![2; 8],
            };
            encode_request(&put, &mut input);
        }
        let mut replies = Vec::new();
        assert_eq!(svc.serve_buffered(0, &input, &mut replies), input.len());
        assert_eq!(replies, ok.repeat(chunk.len()), "every write acked");
    }
    drop(svc);
    probe_holds(&store);
}

/// A cadence bounds the time between a shard's checkpoints, the log-room
/// rule the bytes: on a sharded store whose cadence never fires during
/// the run, scattered updates that log far more than the cap
/// still leave every shard's log, summed over its sessions' buffers,
/// within `threads × cap / shards`, each shard having forced its own
/// boundaries.
#[test]
fn a_long_cadence_still_bounds_each_shards_log_by_bytes() {
    const KEYS: u64 = 80_000;
    const THREADS: usize = 2;
    const CAP: usize = 64 << 10;
    let arena = PArena::builder().capacity_bytes(128 << 20).build().unwrap();
    let options = Options::new()
        .threads(THREADS)
        .log_bytes_per_thread(CAP)
        .shards(SHARDS)
        .cadence(Cadence::eager(std::time::Duration::from_secs(3600)));
    let (store, _) = Store::open(&arena, options).unwrap();
    let sessions = [store.session().unwrap(), store.session().unwrap()];
    // The stride is coprime to `KEYS`: every key once, scattered.
    for i in 0..KEYS {
        let k = key(i * 0x9E37_79B9 % KEYS);
        store.put(&sessions[0], &k, &[1; 8]).unwrap();
    }
    store.checkpoint();
    let before: Vec<ShardStats> = (0..SHARDS).map(|s| store.shard_stats(s)).collect();
    let bound = (THREADS * CAP / SHARDS) as u64;
    for i in 0..KEYS {
        let k = key(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % KEYS);
        store
            .put(&sessions[i as usize % THREADS], &k, &[2; 8])
            .unwrap();
        let st = store.shard_stats(store.shard_of(&k));
        assert!(st.bytes_since_boundary <= bound, "put {i}: {st:?}");
    }
    for (s, before) in before.iter().enumerate() {
        let st = store.shard_stats(s);
        let forced = st.advances_forced - before.advances_forced;
        assert!(forced > 0, "shard {s}: {st:?}");
        assert_eq!(
            st.advances_fired - before.advances_fired,
            forced,
            "shard {s}: only the log-room rule ends an epoch"
        );
        assert!(st.bytes_since_boundary <= bound, "shard {s}: {st:?}");
    }
}
