//! Masstree (§2.2), one algorithm for two trees: the paper's transient
//! MT and MT+ baselines (§6) and the durable tree of the `incll` crate.
//!
//! Masstree is a trie of B+trees: each trie layer consumes 8 key bytes
//! ([`key`]), each layer is a concurrent B+tree whose border nodes keep
//! unsorted entries ordered by a permutation word ([`perm`]), and all
//! synchronisation follows the optimistic version-validation protocol
//! ([`version`]). The algorithm — descent, insert, splits, layer
//! conversion, remove and scan — is written once ([`tree`]), over a trait
//! that supplies word access at a node address, the node layout, node
//! creation and the durable hooks ([`NodeStore`]). The transient tree
//! ([`Masstree`]) is its instantiation over plain memory with 15-wide
//! leaves; the durable tree instantiates it over a persistent arena with
//! the paper's 14-wide Fig. 1 leaves, adding in-cache-line logging through
//! the hooks.
//!
//! Two allocation policies reproduce the paper's baselines ([`alloc`]):
//! MT uses the global allocator; MT+ uses a pre-mapped pool with
//! per-thread free lists.
//!
//! # Quick start
//!
//! ```
//! use incll_pmem::PArena;
//! use incll_epoch::{EpochManager, EpochOptions};
//! use incll_masstree::{AllocMode, Masstree, TransientAlloc};
//!
//! # fn main() -> Result<(), incll_pmem::Error> {
//! // MT+ flavor: pool allocation over a pre-mapped arena.
//! let pool = PArena::builder().capacity_bytes(4 << 20).build()?;
//! let mgr = EpochManager::new(pool.clone(), EpochOptions::transient());
//! let alloc = TransientAlloc::new(AllocMode::Pool, 2, Some(pool));
//! let tree = Masstree::new(mgr, alloc);
//!
//! let ctx = tree.thread_ctx(0);
//! tree.put(&ctx, b"key-1", 100);
//! tree.put(&ctx, b"key-2", 200);
//! let mut seen = Vec::new();
//! tree.scan(&ctx, b"key-", 10, &mut |k, v| seen.push((k.to_vec(), v)));
//! assert_eq!(seen.len(), 2);
//! # Ok(())
//! # }
//! ```

pub mod alloc;
pub mod key;
pub mod perm;
mod transient;
pub mod tree;
pub mod version;

pub use alloc::{AllocMode, TransientAlloc};
pub use perm::Permutation;
pub use transient::{Masstree, TreeCtx, VALUE_BUF_BYTES};
pub use tree::NodeStore;

#[cfg(test)]
mod tree_tests {
    use super::*;
    use incll_epoch::{EpochManager, EpochOptions};
    use incll_pmem::PArena;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn mt() -> Masstree {
        mt_with_epochs().0
    }

    /// An MT tree and the epoch manager that drives its reclamation.
    fn mt_with_epochs() -> (Masstree, EpochManager) {
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        let mgr = EpochManager::new(arena, EpochOptions::transient());
        let tree = Masstree::new(mgr.clone(), TransientAlloc::new(AllocMode::Global, 8, None));
        (tree, mgr)
    }

    #[test]
    fn empty_tree_misses() {
        let t = mt();
        let ctx = t.thread_ctx(0);
        assert_eq!(t.get(&ctx, b"nope"), None);
        assert!(!t.remove(&ctx, b"nope"));
    }

    #[test]
    fn put_get_update_remove() {
        let t = mt();
        let ctx = t.thread_ctx(0);
        assert_eq!(t.put(&ctx, b"alpha", 1), None);
        assert_eq!(t.get(&ctx, b"alpha"), Some(1));
        assert_eq!(t.put(&ctx, b"alpha", 2), Some(1));
        assert_eq!(t.get(&ctx, b"alpha"), Some(2));
        assert!(t.remove(&ctx, b"alpha"));
        assert_eq!(t.get(&ctx, b"alpha"), None);
        assert!(!t.remove(&ctx, b"alpha"));
    }

    #[test]
    fn empty_key_is_a_valid_key() {
        let t = mt();
        let ctx = t.thread_ctx(0);
        assert_eq!(t.put(&ctx, b"", 42), None);
        assert_eq!(t.get(&ctx, b""), Some(42));
        assert!(t.remove(&ctx, b""));
    }

    #[test]
    fn prefix_keys_coexist() {
        // "ab" vs "ab\0" share a padded slice but differ in klen.
        let t = mt();
        let ctx = t.thread_ctx(0);
        t.put(&ctx, b"ab", 1);
        t.put(&ctx, b"ab\0", 2);
        t.put(&ctx, b"a", 3);
        assert_eq!(t.get(&ctx, b"ab"), Some(1));
        assert_eq!(t.get(&ctx, b"ab\0"), Some(2));
        assert_eq!(t.get(&ctx, b"a"), Some(3));
    }

    #[test]
    fn long_keys_descend_layers() {
        let t = mt();
        let ctx = t.thread_ctx(0);
        t.put(&ctx, b"abcdefgh-layer-two", 1);
        t.put(&ctx, b"abcdefgh-layer-2nd", 2);
        t.put(&ctx, b"abcdefgh", 3); // exactly one slice: folds into layer
        assert_eq!(t.get(&ctx, b"abcdefgh-layer-two"), Some(1));
        assert_eq!(t.get(&ctx, b"abcdefgh-layer-2nd"), Some(2));
        assert_eq!(t.get(&ctx, b"abcdefgh"), Some(3));
        assert_eq!(t.get(&ctx, b"abcdefgh-layer"), None);
        assert!(t.remove(&ctx, b"abcdefgh"));
        assert_eq!(t.get(&ctx, b"abcdefgh"), None);
        assert_eq!(t.get(&ctx, b"abcdefgh-layer-two"), Some(1));
    }

    #[test]
    fn layer_conversion_preserves_old_value() {
        let t = mt();
        let ctx = t.thread_ctx(0);
        t.put(&ctx, b"12345678", 11); // terminal-8
        t.put(&ctx, b"12345678suffix", 22); // forces conversion
        assert_eq!(t.get(&ctx, b"12345678"), Some(11));
        assert_eq!(t.get(&ctx, b"12345678suffix"), Some(22));
    }

    #[test]
    fn very_long_keys_build_layer_chains() {
        let t = mt();
        let ctx = t.thread_ctx(0);
        let key = vec![b'x'; 100];
        t.put(&ctx, &key, 5);
        assert_eq!(t.get(&ctx, &key), Some(5));
        let mut key99 = key.clone();
        key99.truncate(99);
        assert_eq!(t.get(&ctx, &key99), None);
        t.put(&ctx, &key99, 6);
        assert_eq!(t.get(&ctx, &key99), Some(6));
        assert_eq!(t.get(&ctx, &key), Some(5));
    }

    #[test]
    fn splits_preserve_all_keys() {
        let t = mt();
        let ctx = t.thread_ctx(0);
        // Far more keys than one leaf: forces leaf + interior splits.
        for i in 0..5000u64 {
            t.put(&ctx, &i.to_be_bytes(), i * 10);
        }
        for i in 0..5000u64 {
            assert_eq!(t.get(&ctx, &i.to_be_bytes()), Some(i * 10), "key {i}");
        }
    }

    #[test]
    fn descending_inserts_split_correctly() {
        let t = mt();
        let ctx = t.thread_ctx(0);
        for i in (0..2000u64).rev() {
            t.put(&ctx, &i.to_be_bytes(), i);
        }
        for i in 0..2000u64 {
            assert_eq!(t.get(&ctx, &i.to_be_bytes()), Some(i));
        }
    }

    #[test]
    fn random_ops_match_btreemap_model() {
        let t = mt();
        let ctx = t.thread_ctx(0);
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(0xA5);
        for step in 0..30_000 {
            let klen = rng.gen_range(0..20);
            let key: Vec<u8> = (0..klen).map(|_| rng.gen_range(b'a'..=b'f')).collect();
            match rng.gen_range(0..10) {
                0..=4 => {
                    let v = rng.gen::<u64>();
                    assert_eq!(
                        t.put(&ctx, &key, v),
                        model.insert(key.clone(), v),
                        "put mismatch at step {step} key {key:?}"
                    );
                }
                5..=6 => {
                    assert_eq!(
                        t.remove(&ctx, &key),
                        model.remove(&key).is_some(),
                        "remove mismatch at step {step} key {key:?}"
                    );
                }
                _ => {
                    assert_eq!(
                        t.get(&ctx, &key),
                        model.get(&key).copied(),
                        "get mismatch at step {step} key {key:?}"
                    );
                }
            }
        }
        // Full-order scan equivalence.
        let mut scanned = Vec::new();
        t.scan(&ctx, b"", usize::MAX, &mut |k, v| {
            scanned.push((k.to_vec(), v))
        });
        let expect: Vec<(Vec<u8>, u64)> = model.into_iter().collect();
        assert_eq!(scanned, expect);
    }

    #[test]
    fn scan_from_start_key_and_limit() {
        let t = mt();
        let ctx = t.thread_ctx(0);
        for i in 0..100u64 {
            t.put(&ctx, &i.to_be_bytes(), i);
        }
        let mut got = Vec::new();
        let n = t.scan(&ctx, &10u64.to_be_bytes(), 10, &mut |_, v| got.push(v));
        assert_eq!(n, 10);
        assert_eq!(got, (10..20).collect::<Vec<u64>>());
    }

    #[test]
    fn scan_crosses_layers_in_order() {
        let t = mt();
        let ctx = t.thread_ctx(0);
        let keys: Vec<&[u8]> = vec![
            b"a",
            b"abcdefgh",
            b"abcdefgh-1",
            b"abcdefgh-2",
            b"abcdefgi",
            b"b",
        ];
        for (i, k) in keys.iter().enumerate() {
            t.put(&ctx, k, i as u64);
        }
        let mut got = Vec::new();
        t.scan(&ctx, b"", 100, &mut |k, v| got.push((k.to_vec(), v)));
        let mut expect: Vec<(Vec<u8>, u64)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.to_vec(), i as u64))
            .collect();
        expect.sort();
        assert_eq!(got, expect);
    }

    #[test]
    fn mtplus_pool_flavor_behaves_identically() {
        let pool = PArena::builder().capacity_bytes(16 << 20).build().unwrap();
        let mgr = EpochManager::new(pool.clone(), EpochOptions::transient());
        let t = Masstree::new(
            mgr.clone(),
            TransientAlloc::new(AllocMode::Pool, 8, Some(pool)),
        );
        let ctx = t.thread_ctx(0);
        for i in 0..3000u64 {
            t.put(&ctx, &i.to_be_bytes(), i + 1);
        }
        for i in 0..3000u64 {
            assert_eq!(t.get(&ctx, &i.to_be_bytes()), Some(i + 1));
        }
        for i in 0..1500u64 {
            assert!(t.remove(&ctx, &i.to_be_bytes()));
        }
        mgr.advance(); // recycle buffers
        for i in 1500..3000u64 {
            assert_eq!(t.get(&ctx, &i.to_be_bytes()), Some(i + 1));
        }
    }

    #[test]
    fn concurrent_disjoint_writers() {
        let t = std::sync::Arc::new(mt());
        std::thread::scope(|s| {
            for tid in 0..4usize {
                let t = t.clone();
                s.spawn(move || {
                    let ctx = t.thread_ctx(tid);
                    for i in 0..2000u64 {
                        let k = (i * 4 + tid as u64).to_be_bytes();
                        t.put(&ctx, &k, i);
                    }
                });
            }
        });
        let ctx = t.thread_ctx(0);
        for tid in 0..4u64 {
            for i in 0..2000u64 {
                let k = (i * 4 + tid).to_be_bytes();
                assert_eq!(t.get(&ctx, &k), Some(i));
            }
        }
    }

    #[test]
    fn concurrent_mixed_readers_writers_with_epochs() {
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        let mgr = EpochManager::new(arena, EpochOptions::transient());
        let t = std::sync::Arc::new(Masstree::new(
            mgr.clone(),
            TransientAlloc::new(AllocMode::Global, 8, None),
        ));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            for tid in 0..4usize {
                let t = t.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    let ctx = t.thread_ctx(tid);
                    let mut rng = StdRng::seed_from_u64(tid as u64);
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let k = rng.gen_range(0..5000u64).to_be_bytes();
                        match rng.gen_range(0..4) {
                            0 => {
                                t.put(&ctx, &k, rng.gen());
                            }
                            1 => {
                                t.remove(&ctx, &k);
                            }
                            _ => {
                                t.get(&ctx, &k);
                            }
                        }
                    }
                });
            }
            // Concurrent epoch churn (reclamation pressure).
            for _ in 0..30 {
                mgr.advance();
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        // Tree is still coherent afterwards.
        let ctx = t.thread_ctx(0);
        let mut count = 0usize;
        t.scan(&ctx, b"", usize::MAX, &mut |_, _| count += 1);
        assert!(count <= 5000);
    }

    #[test]
    fn version_protocol_over_node_words() {
        use crate::version::{changed, is_dirty, is_locked, INSERTING, IS_LEAF};
        let t = mt();
        let Ok(n) = t.new_leaf(0, false, false);
        // SAFETY: `n` is a live leaf of `t`, used by this thread only until
        // the reader below, which only loads it.
        unsafe {
            let before = t.stable(n);
            assert_eq!(before & IS_LEAF, IS_LEAF);
            t.lock(n);
            t.unlock(n, false, false);
            assert!(
                !changed(before, t.stable(n)),
                "an idle lock changes nothing"
            );
            t.lock(n);
            t.mark_dirty(n, INSERTING);
            let t = &t;
            std::thread::scope(|s| {
                let reader = s.spawn(move || t.stable(n));
                std::thread::sleep(std::time::Duration::from_millis(20));
                t.unlock(n, true, false);
                let after = reader.join().unwrap();
                assert!(!is_dirty(after) && !is_locked(after));
                assert!(changed(before, after), "an insert bumps vinsert");
            });
        }
    }

    #[test]
    fn contended_lock_is_exclusive() {
        let t = mt();
        let Ok(n) = t.new_interior(0, false, false);
        let counter = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        // SAFETY: `n` is a live node of `t`.
                        unsafe { t.lock(n) };
                        // Non-atomic increment under the lock.
                        let x = counter.load(std::sync::atomic::Ordering::Relaxed);
                        counter.store(x + 1, std::sync::atomic::Ordering::Relaxed);
                        // SAFETY: as above.
                        unsafe { t.unlock(n, false, false) };
                    }
                });
            }
        });
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 4000);
    }

    #[test]
    fn interior_routing_sends_equal_keys_right() {
        let t = mt();
        let Ok(n) = t.new_interior(0, false, false);
        // SAFETY: `n` is a live interior node of `t`, unpublished.
        unsafe {
            t.store(n + Masstree::off_int_key(0), 10);
            t.store(n + Masstree::off_int_key(1), 20);
            t.store(n + Masstree::OFF_INT_NKEYS, 2);
            let route: Vec<usize> = [5, 10, 15, 20, 99].iter().map(|&k| t.route(n, k)).collect();
            assert_eq!(route, [0, 1, 1, 2, 2]);
        }
    }

    #[test]
    fn values_survive_epoch_reclamation() {
        let (t, mgr) = mt_with_epochs();
        let ctx = t.thread_ctx(0);
        t.put(&ctx, b"k", 1);
        t.put(&ctx, b"k", 2); // old buffer deferred
        mgr.advance(); // old buffer freed
        assert_eq!(t.get(&ctx, b"k"), Some(2));
    }
}
