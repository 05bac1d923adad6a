//! Multi-threaded benchmark driver: loads a store and runs a workload,
//! reporting throughput the way the paper does (total operations /
//! wall-clock seconds; §6 runs 1 M ops on each of 8 driver threads).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::workload::{storage_key, Dist, Mix, Op, OpStream};
use crate::zipf::ScrambledZipfian;

/// A key-value store that can serve the YCSB drivers.
///
/// Two implementations: the transient [`incll_masstree::Masstree`] (MT and
/// MT+) and the durable [`incll::Store`] (INCLL and its LOGGING ablation).
pub trait KvBench: Send + Sync {
    /// Per-thread operation context.
    type Ctx;

    /// Registers worker `tid`.
    fn bench_ctx(&self, tid: usize) -> Self::Ctx;
    /// Point lookup.
    fn bench_get(&self, ctx: &Self::Ctx, key: &[u8]) -> Option<u64>;
    /// Insert-or-update.
    fn bench_put(&self, ctx: &Self::Ctx, key: &[u8], val: u64);
    /// Scan `n` keys from `start`; returns keys visited.
    fn bench_scan(&self, ctx: &Self::Ctx, start: &[u8], n: usize) -> usize;

    /// Byte-slice insert-or-update. Stores without native byte values
    /// (the transient baselines) keep the default, which packs the first
    /// eight bytes little-endian into the `u64` payload.
    fn bench_put_bytes(&self, ctx: &Self::Ctx, key: &[u8], val: &[u8]) {
        let mut word = [0u8; 8];
        let n = val.len().min(8);
        word[..n].copy_from_slice(&val[..n]);
        self.bench_put(ctx, key, u64::from_le_bytes(word));
    }

    /// The driver's read: touch the value bytes in place without copying
    /// them out, returning whether the key was present. Stores with a
    /// zero-copy read path (the durable [`incll::Store`]'s `get_ref`)
    /// override this; the default falls back to the plain lookup.
    fn bench_get_ref(&self, ctx: &Self::Ctx, key: &[u8]) -> bool {
        self.bench_get(ctx, key).is_some()
    }

    /// Atomic multi-put: applies every `(key, value)` pair as one write
    /// batch. The default issues the puts one by one — correct for
    /// stores without batch support, but not atomic. The durable
    /// [`incll::Store`] overrides this with a real `WriteBatch` commit,
    /// so the group is crash-atomic even when the keys span shards.
    fn bench_batch(&self, ctx: &Self::Ctx, ops: &[([u8; 8], u64)]) {
        for (k, v) in ops {
            self.bench_put(ctx, k, *v);
        }
    }

    /// Keyspace shards this store partitions over (1 for unsharded
    /// systems). Experiments report it so shard-scaling runs are
    /// self-describing.
    fn bench_shards(&self) -> usize {
        1
    }
}

impl KvBench for incll_masstree::Masstree {
    type Ctx = incll_masstree::TreeCtx;

    fn bench_ctx(&self, tid: usize) -> Self::Ctx {
        self.thread_ctx(tid)
    }
    fn bench_get(&self, ctx: &Self::Ctx, key: &[u8]) -> Option<u64> {
        self.get(ctx, key)
    }
    fn bench_put(&self, ctx: &Self::Ctx, key: &[u8], val: u64) {
        self.put(ctx, key, val);
    }
    fn bench_scan(&self, ctx: &Self::Ctx, start: &[u8], n: usize) -> usize {
        self.scan(ctx, start, n, &mut |_, _| {})
    }
}

impl KvBench for incll::Store {
    type Ctx = incll::Session;

    fn bench_ctx(&self, _tid: usize) -> Self::Ctx {
        // The RAII pool hands out its own slot ids; drivers just need a
        // distinct session per worker.
        self.session()
            .expect("driver thread count within the store's session pool")
    }
    fn bench_get(&self, ctx: &Self::Ctx, key: &[u8]) -> Option<u64> {
        self.get_u64(ctx, key)
    }
    fn bench_put(&self, ctx: &Self::Ctx, key: &[u8], val: u64) {
        self.put_u64(ctx, key, val);
    }
    fn bench_scan(&self, ctx: &Self::Ctx, start: &[u8], n: usize) -> usize {
        // The facade scan merges across shards, so E-mix scans measure the
        // shard-aware path (on one shard it is the tree's native scan).
        self.scan(ctx, start, n, &mut |_, _| {})
    }
    fn bench_put_bytes(&self, ctx: &Self::Ctx, key: &[u8], val: &[u8]) {
        self.put(ctx, key, val)
            .expect("bench values fit the largest size class");
    }
    fn bench_get_ref(&self, ctx: &Self::Ctx, key: &[u8]) -> bool {
        // Decode in place so the value bytes are actually touched.
        self.get_ref(ctx, key).map(|v| v.as_u64()).is_some()
    }
    fn bench_batch(&self, ctx: &Self::Ctx, ops: &[([u8; 8], u64)]) {
        let mut batch = ctx.batch();
        for (k, v) in ops {
            batch
                .put(k, &v.to_le_bytes())
                .expect("bench batches stay within the op cap");
        }
        batch.commit().expect("bench batches commit");
    }
    fn bench_shards(&self) -> usize {
        self.shard_count()
    }
}

/// A benchmark run description.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Worker threads.
    pub threads: usize,
    /// Operations per thread.
    pub ops_per_thread: u64,
    /// Key-space size (tree preloaded with exactly these keys).
    pub nkeys: u64,
    /// Operation mix.
    pub mix: Mix,
    /// Key distribution.
    pub dist: Dist,
    /// RNG seed (per-thread streams derive from it).
    pub seed: u64,
}

/// Result of a run.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    /// Total operations executed.
    pub ops: u64,
    /// Wall-clock duration.
    pub elapsed: Duration,
}

impl RunResult {
    /// Throughput in million operations per second.
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64() / 1e6
    }
}

/// Preloads keys `0..nkeys` (scrambled) across `threads` workers.
pub fn load<K: KvBench>(store: &K, nkeys: u64, threads: usize) {
    let threads = threads.max(1);
    std::thread::scope(|s| {
        for tid in 0..threads {
            let store = &store;
            s.spawn(move || {
                let ctx = store.bench_ctx(tid);
                let mut i = tid as u64;
                while i < nkeys {
                    store.bench_put(&ctx, &storage_key(i), i);
                    i += threads as u64;
                }
            });
        }
    });
}

/// How the driver serves `Op::Put`s — the write-path comparison axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteMode {
    /// One put per operation. The historical driver default.
    Single,
    /// Buffer `batch_size` puts per worker and commit each group as one
    /// atomic [`KvBench::bench_batch`] (a tail shorter than
    /// `batch_size` commits at the end of the run).
    BatchedWrites {
        /// Puts per committed batch (clamped to at least 1).
        batch_size: usize,
    },
}

impl WriteMode {
    /// Display label (`single` / `batch<N>`).
    pub fn label(self) -> String {
        match self {
            WriteMode::Single => "single".to_owned(),
            WriteMode::BatchedWrites { batch_size } => format!("batch{batch_size}"),
        }
    }
}

/// Runs the workload, returning aggregate throughput. Reads go through
/// [`KvBench::bench_get_ref`], writes are issued one put at a time; use
/// [`run_with_writes`] to batch them.
pub fn run<K: KvBench>(store: &K, cfg: &RunConfig) -> RunResult {
    run_with_writes(store, cfg, WriteMode::Single)
}

/// [`run`] with an explicit write path for `Op::Put`s.
pub fn run_with_writes<K: KvBench>(store: &K, cfg: &RunConfig, writes: WriteMode) -> RunResult {
    let barrier = Barrier::new(cfg.threads + 1);
    let total_ops = AtomicU64::new(0);
    // Zipfian tables are O(nkeys) to build: construct one and share.
    let zipf_proto = match cfg.dist {
        Dist::Uniform => None,
        Dist::Zipfian => Some(ScrambledZipfian::new(cfg.nkeys)),
    };
    let started = std::sync::Mutex::new(None::<Instant>);
    std::thread::scope(|s| {
        for tid in 0..cfg.threads {
            let store = &store;
            let barrier = &barrier;
            let total_ops = &total_ops;
            let zipf = zipf_proto.clone();
            let cfg2 = cfg.clone();
            s.spawn(move || {
                let ctx = store.bench_ctx(tid);
                let mut stream = OpStream::with_zipf(cfg2.mix, cfg2.nkeys, zipf);
                let mut rng = StdRng::seed_from_u64(cfg2.seed ^ (tid as u64) << 32 | tid as u64);
                // One pending-put buffer for the batched write path.
                let batch_size = match writes {
                    WriteMode::Single => 0,
                    WriteMode::BatchedWrites { batch_size } => batch_size.max(1),
                };
                let mut pending: Vec<([u8; 8], u64)> = Vec::with_capacity(batch_size);
                barrier.wait();
                for _ in 0..cfg2.ops_per_thread {
                    match stream.next_op(&mut rng) {
                        Op::Read(i) => {
                            store.bench_get_ref(&ctx, &storage_key(i));
                        }
                        Op::Put(i, v) => {
                            if batch_size == 0 {
                                store.bench_put(&ctx, &storage_key(i), v);
                            } else {
                                pending.push((storage_key(i), v));
                                if pending.len() >= batch_size {
                                    store.bench_batch(&ctx, &pending);
                                    pending.clear();
                                }
                            }
                        }
                        Op::Scan(i, n) => {
                            store.bench_scan(&ctx, &storage_key(i), n);
                        }
                    }
                }
                if !pending.is_empty() {
                    store.bench_batch(&ctx, &pending); // the short tail
                }
                total_ops.fetch_add(cfg2.ops_per_thread, Ordering::Relaxed);
            });
        }
        *started.lock().unwrap() = Some(Instant::now());
        barrier.wait();
    });
    let elapsed = started.lock().unwrap().expect("start time").elapsed();
    RunResult {
        ops: total_ops.load(Ordering::Relaxed),
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incll_epoch::{EpochManager, EpochOptions};
    use incll_masstree::{AllocMode, Masstree, TransientAlloc};
    use incll_pmem::PArena;

    fn mt() -> Masstree {
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        let mgr = EpochManager::new(arena, EpochOptions::transient());
        Masstree::new(mgr, TransientAlloc::new(AllocMode::Global, 4, None))
    }

    #[test]
    fn load_populates_all_keys() {
        let t = mt();
        load(&t, 1000, 2);
        let ctx = t.thread_ctx(0);
        for i in 0..1000u64 {
            assert_eq!(t.get(&ctx, &storage_key(i)), Some(i), "key {i}");
        }
    }

    #[test]
    fn run_executes_requested_ops() {
        let t = mt();
        load(&t, 500, 2);
        let cfg = RunConfig {
            threads: 2,
            ops_per_thread: 2_000,
            nkeys: 500,
            mix: Mix::A,
            dist: Dist::Uniform,
            seed: 4,
        };
        let res = run(&t, &cfg);
        assert_eq!(res.ops, 4_000);
        assert!(res.elapsed.as_nanos() > 0);
        assert!(res.mops() > 0.0);
    }

    #[test]
    fn run_against_store_facade() {
        let arena = PArena::builder().capacity_bytes(64 << 20).build().unwrap();
        let opts = incll::Options::new()
            .threads(2)
            .log_bytes_per_thread(1 << 20);
        let (store, report) = incll::Store::open(&arena, opts).unwrap();
        assert!(report.created);
        load(&store, 300, 2);
        for (mix, dist) in [
            (Mix::A, Dist::Uniform),
            (Mix::A, Dist::Zipfian),
            (Mix::E, Dist::Uniform),
        ] {
            let res = run(
                &store,
                &RunConfig {
                    threads: 2,
                    ops_per_thread: 500,
                    nkeys: 300,
                    mix,
                    dist,
                    seed: 9,
                },
            );
            assert_eq!(res.ops, 1_000);
        }
        // Load went through the u64 path; spot-check via the facade, and
        // the driver's borrowed read really serves hits and misses.
        let sess = store.session().unwrap();
        assert!(store.get_u64(&sess, &storage_key(0)).is_some());
        assert!(store.bench_get_ref(&sess, &storage_key(0)));
        assert!(!store.bench_get_ref(&sess, b"never-loaded"));
    }

    #[test]
    fn batched_writes_run_on_the_sharded_store_facade() {
        let arena = PArena::builder().capacity_bytes(64 << 20).build().unwrap();
        let opts = incll::Options::new()
            .threads(2)
            .log_bytes_per_thread(1 << 20)
            .shards(4);
        let (store, _) = incll::Store::open(&arena, opts).unwrap();
        load(&store, 200, 2);
        for batch_size in [1usize, 8] {
            let res = run_with_writes(
                &store,
                &RunConfig {
                    threads: 2,
                    ops_per_thread: 300,
                    nkeys: 200,
                    mix: Mix::A,
                    dist: Dist::Uniform,
                    seed: 5,
                },
                WriteMode::BatchedWrites { batch_size },
            );
            assert_eq!(res.ops, 600, "batch_size {batch_size}");
        }
        assert_eq!(WriteMode::Single.label(), "single");
        assert_eq!(WriteMode::BatchedWrites { batch_size: 8 }.label(), "batch8");
    }

    #[test]
    fn bench_batch_applies_every_pair_on_every_impl() {
        // Transient default: a plain put loop.
        let t = mt();
        let ctx = t.bench_ctx(0);
        let ops: Vec<([u8; 8], u64)> = (0..5u64).map(|i| (storage_key(i), 100 + i)).collect();
        t.bench_batch(&ctx, &ops);
        for i in 0..5u64 {
            assert_eq!(t.bench_get(&ctx, &storage_key(i)), Some(100 + i));
        }

        // Durable store: a real cross-shard WriteBatch commit.
        let arena = PArena::builder().capacity_bytes(64 << 20).build().unwrap();
        let opts = incll::Options::new()
            .threads(1)
            .log_bytes_per_thread(1 << 20)
            .shards(4);
        let (store, _) = incll::Store::open(&arena, opts).unwrap();
        let sess = store.bench_ctx(0);
        store.bench_batch(&sess, &ops);
        for i in 0..5u64 {
            assert_eq!(store.bench_get(&sess, &storage_key(i)), Some(100 + i));
        }
    }

    #[test]
    fn byte_ops_roundtrip_on_every_impl() {
        // Transient default: first 8 bytes, little-endian.
        let t = mt();
        let ctx = t.bench_ctx(0);
        t.bench_put_bytes(&ctx, b"k", b"abcdefgh-tail-ignored");
        assert_eq!(
            t.bench_get(&ctx, b"k"),
            Some(u64::from_le_bytes(*b"abcdefgh"))
        );

        // Durable store: full byte fidelity.
        let arena = PArena::builder().capacity_bytes(64 << 20).build().unwrap();
        let opts = incll::Options::new()
            .threads(1)
            .log_bytes_per_thread(1 << 20);
        let (store, _) = incll::Store::open(&arena, opts).unwrap();
        let sess = store.bench_ctx(0);
        store.bench_put_bytes(&sess, b"k", b"a considerably longer byte value");
        assert_eq!(
            store.get(&sess, b"k").as_deref(),
            Some(&b"a considerably longer byte value"[..])
        );
    }
}
