//! All three systems (MT, MT+, INCLL-behind-`Store`) and a reference
//! `BTreeMap` must agree on every operation result for identical
//! operation tapes — the durability machinery must be semantically
//! invisible. A second tape checks byte-slice values against the model.

use std::collections::BTreeMap;

use incll_repro::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
enum TapeOp {
    Put(Vec<u8>, u64),
    Get(Vec<u8>),
    Remove(Vec<u8>),
    Scan(Vec<u8>, usize),
}

fn random_tape(seed: u64, len: usize) -> Vec<TapeOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let klen = rng.gen_range(0..24);
            let key: Vec<u8> = (0..klen).map(|_| rng.gen_range(b'a'..=b'd')).collect();
            match rng.gen_range(0..10) {
                0..=4 => TapeOp::Put(key, rng.gen()),
                5..=6 => TapeOp::Get(key),
                7..=8 => TapeOp::Remove(key),
                _ => TapeOp::Scan(key, rng.gen_range(1..20)),
            }
        })
        .collect()
}

fn model_observe(tape: &[TapeOp]) -> Vec<String> {
    let mut m: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    tape.iter()
        .map(|op| match op {
            TapeOp::Put(k, v) => format!("{:?}", m.insert(k.clone(), *v)),
            TapeOp::Get(k) => format!("{:?}", m.get(k).copied()),
            TapeOp::Remove(k) => format!("{:?}", m.remove(k).is_some()),
            TapeOp::Scan(k, n) => {
                let hits: Vec<(Vec<u8>, u64)> = m
                    .range(k.clone()..)
                    .take(*n)
                    .map(|(k, v)| (k.clone(), *v))
                    .collect();
                format!("{hits:?}")
            }
        })
        .collect()
}

fn masstree_observe(tree: &Masstree, tape: &[TapeOp]) -> Vec<String> {
    let ctx = tree.bench_ctx(0);
    tape.iter()
        .map(|op| match op {
            TapeOp::Put(k, v) => format!("{:?}", tree.put(&ctx, k, *v)),
            TapeOp::Get(k) => format!("{:?}", tree.get(&ctx, k)),
            TapeOp::Remove(k) => format!("{:?}", tree.remove(&ctx, k)),
            TapeOp::Scan(k, n) => {
                let mut out = Vec::new();
                tree.scan(&ctx, k, *n, &mut |k, v| out.push((k.to_vec(), v)));
                format!("{out:?}")
            }
        })
        .collect()
}

/// Observes the tape through the `Store` facade's u64 convenience forms,
/// with periodic checkpoints interleaved.
fn store_observe(store: &Store, tape: &[TapeOp], checkpoint_every: usize) -> Vec<String> {
    let sess = store.session().unwrap();
    tape.iter()
        .enumerate()
        .map(|(i, op)| {
            if i % checkpoint_every == checkpoint_every - 1 {
                store.checkpoint();
            }
            match op {
                TapeOp::Put(k, v) => format!("{:?}", store.put_u64(&sess, k, *v).unwrap()),
                TapeOp::Get(k) => format!("{:?}", store.get_u64(&sess, k)),
                TapeOp::Remove(k) => format!("{:?}", store.remove(&sess, k)),
                TapeOp::Scan(k, n) => {
                    let mut out = Vec::new();
                    store.scan(&sess, k, *n, &mut |k, v| {
                        out.push((k.to_vec(), u64::from_le_bytes(v[..8].try_into().unwrap())))
                    });
                    format!("{out:?}")
                }
            }
        })
        .collect()
}

#[test]
fn four_implementations_agree() {
    for seed in 0..6u64 {
        let tape = random_tape(seed, 4_000);
        let expect = model_observe(&tape);

        // MT
        {
            let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
            let mgr = EpochManager::new(arena, EpochOptions::transient());
            let tree = Masstree::new(mgr, TransientAlloc::new(AllocMode::Global, 1, None));
            assert_eq!(masstree_observe(&tree, &tape), expect, "MT seed {seed}");
        }
        // MT+
        {
            let pool = PArena::builder().capacity_bytes(32 << 20).build().unwrap();
            let mgr = EpochManager::new(pool.clone(), EpochOptions::transient());
            let tree = Masstree::new(mgr, TransientAlloc::new(AllocMode::Pool, 1, Some(pool)));
            assert_eq!(masstree_observe(&tree, &tape), expect, "MT+ seed {seed}");
        }
        // INCLL behind the Store facade (with periodic checkpoints), at
        // several shard counts — routing and merged scans must be
        // semantically invisible too.
        for shards in [1usize, 4] {
            let arena = PArena::builder().capacity_bytes(64 << 20).build().unwrap();
            let (store, _) = Store::open(
                &arena,
                Options::new()
                    .threads(1)
                    .log_bytes_per_thread(1 << 20)
                    .shards(shards),
            )
            .unwrap();
            assert_eq!(
                store_observe(&store, &tape, 500),
                expect,
                "INCLL seed {seed} shards {shards}"
            );
        }
    }
}

#[test]
fn logging_mode_agrees_too() {
    let tape = random_tape(99, 3_000);
    let expect = model_observe(&tape);
    let arena = PArena::builder().capacity_bytes(64 << 20).build().unwrap();
    let (store, _) = Store::open(
        &arena,
        Options::new()
            .threads(1)
            .log_bytes_per_thread(4 << 20)
            .incll(false), // LOGGING ablation
    )
    .unwrap();
    assert_eq!(store_observe(&store, &tape, 300), expect);
}

#[test]
fn byte_values_agree_with_model() {
    // The byte-slice twin: random variable-length values against a
    // `BTreeMap<Vec<u8>, Vec<u8>>`, through puts/gets/removes/iterators.
    let mut rng = StdRng::seed_from_u64(12);
    let arena = PArena::builder().capacity_bytes(64 << 20).build().unwrap();
    let (store, _) = Store::open(
        &arena,
        Options::new().threads(1).log_bytes_per_thread(1 << 20),
    )
    .unwrap();
    let sess = store.session().unwrap();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for step in 0..6_000 {
        if step % 500 == 499 {
            store.checkpoint();
        }
        let klen = rng.gen_range(0..24);
        let key: Vec<u8> = (0..klen).map(|_| rng.gen_range(b'a'..=b'd')).collect();
        match rng.gen_range(0..10) {
            0..=4 => {
                let len = rng.gen_range(0..400usize);
                let v: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u64) as u8).collect();
                assert_eq!(
                    store.put(&sess, &key, &v).unwrap(),
                    model.insert(key, v),
                    "step {step}"
                );
            }
            5..=6 => {
                assert_eq!(
                    store.get(&sess, &key),
                    model.get(&key).cloned(),
                    "step {step}"
                );
            }
            7..=8 => {
                assert_eq!(
                    store.remove(&sess, &key),
                    model.remove(&key).is_some(),
                    "step {step}"
                );
            }
            _ => {}
        }
    }
    let got: Vec<(Vec<u8>, Vec<u8>)> = store.iter(&sess).collect();
    let expect: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
    assert_eq!(got, expect);
}
