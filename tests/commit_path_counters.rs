//! The durable commit path, judged by deterministic persistence counters
//! (`PArena::stats()` deltas) instead of wall-clock throughput: what a
//! group saves over singles is fences, what a batch saves over the
//! checkpoint barrier is flushes, and what the batch table's size buys is
//! forced flushes per commit — all countable exactly.

use incll_pmem::superblock::BATCH_SLOTS;
use incll_repro::prelude::*;
use incll_server::{encode_request, encode_response, Request, Response, ServerConfig, Service};

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

    // Each single pays its own id bump, drain and commit record; the
    // group pays one id bump, one drain per shard and one record. The
    // apply-side undo and allocator fences are common to both.
    let singles = single_commit_fences(N);
    assert!(
        singles >= grouped + 2 * (N - 1),
        "one {N}-op group cost {grouped} fences, {N} singles cost {singles}"
    );
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

#[test]
fn a_cadence_less_store_pays_one_forced_flush_per_shard_per_table_of_commits() {
    const COMMITS: u64 = 500;
    let (arena, store) = prepared();
    let sess = store.session().unwrap();
    let forced = |store: &Store| -> u64 {
        (0..SHARDS)
            .map(|s| store.shard_stats(s).advances_forced)
            .sum()
    };
    assert_eq!(forced(&store), 0);
    let before = arena.stats().snapshot();
    for round in 0..COMMITS {
        let mut b = sess.batch();
        let mut mask = 0u64;
        for i in 0..16u64 {
            mask |= 1 << store.shard_of(&key(i));
            b.put(&key(i), &[round as u8; 64]).unwrap();
        }
        assert_eq!(mask.count_ones() as usize, SHARDS);
        assert!(b.commit_durable().unwrap() >= 1);
    }
    let d = arena.stats().snapshot().delta(&before);
    // Every commit covers every shard and nothing else checkpoints, so a
    // slot frees only by eviction: commit k evicts iff the table is full
    // of live records, i.e. at k = BATCH_SLOTS, 2·BATCH_SLOTS, … — and
    // each eviction advances all the victim's shards.
    let evictions = (COMMITS - 1) / BATCH_SLOTS as u64;
    assert_eq!(d.scoped_flush, SHARDS as u64 * evictions);
    assert_eq!(d.global_flush, 0);
    assert_eq!(forced(&store), d.scoped_flush);
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
