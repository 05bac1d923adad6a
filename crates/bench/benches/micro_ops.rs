//! Micro-benchmarks of the individual operations each system performs,
//! isolating the InCLL mechanism's per-op cost (the "5.9–15.4 % runtime
//! overhead" the abstract quotes is the macro view of these numbers).

use criterion::{criterion_group, criterion_main, Criterion};
use incll_bench::systems::{build_incll, build_mtplus, SystemConfig};
use incll_ycsb::storage_key;

fn bench(c: &mut Criterion) {
    let keys = 50_000u64;
    let mut cfg = SystemConfig::new(keys, 1);
    cfg.wbinvd_ns = 0;
    cfg.epoch_interval = Some(std::time::Duration::from_millis(64));

    let mtp = build_mtplus(&cfg);
    let inc = build_incll(&cfg);
    let mctx = mtp.tree.thread_ctx(0);
    let sess = inc.store.session().expect("slot 0 exists");
    for i in 0..keys {
        mtp.tree.put(&mctx, &storage_key(i), i);
        inc.store.put_u64(&sess, &storage_key(i), i).unwrap();
    }

    let mut g = c.benchmark_group("micro");
    let mut i = 0u64;
    g.bench_function("get_mtplus", |b| {
        b.iter(|| {
            i += 1;
            mtp.tree.get(&mctx, &storage_key(i % keys))
        })
    });
    g.bench_function("get_incll", |b| {
        b.iter(|| {
            i += 1;
            inc.store.get_u64(&sess, &storage_key(i % keys))
        })
    });
    g.bench_function("update_mtplus", |b| {
        b.iter(|| {
            i += 1;
            mtp.tree.put(&mctx, &storage_key(i % keys), i)
        })
    });
    g.bench_function("update_incll", |b| {
        b.iter(|| {
            i += 1;
            inc.store.put_u64(&sess, &storage_key(i % keys), i).unwrap()
        })
    });
    g.bench_function("scan10_mtplus", |b| {
        b.iter(|| {
            i += 1;
            mtp.tree
                .scan(&mctx, &storage_key(i % keys), 10, &mut |_, _| {})
        })
    });
    g.bench_function("scan10_incll", |b| {
        b.iter(|| {
            i += 1;
            inc.store
                .scan(&sess, &storage_key(i % keys), 10, &mut |_, _| {})
        })
    });
    // Insert/remove cycle on InCLLp alone: each insert takes a slot free
    // at epoch start, so the external log stays out of it.
    g.bench_function("insert_remove_incll", |b| {
        b.iter(|| {
            i += 1;
            let k = (keys + i % 1000).to_be_bytes();
            inc.store.put_u64(&sess, &k, i).unwrap();
            inc.store.remove(&sess, &k)
        })
    });
    // Byte values: 100 bytes, a larger size class than the 8-byte form.
    let payload = [7u8; 100];
    g.bench_function("put100b_store_incll", |b| {
        b.iter(|| {
            i += 1;
            inc.store
                .put(&sess, &storage_key(i % keys), &payload)
                .expect("fits size class")
        })
    });
    g.bench_function("get100b_store_incll", |b| {
        b.iter(|| {
            i += 1;
            inc.store.get(&sess, &storage_key(i % keys))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
