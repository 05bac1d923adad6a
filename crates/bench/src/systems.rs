//! Builders for the three systems the paper compares (§6):
//!
//! * **MT** — unmodified transient Masstree: global allocator.
//! * **MT+** — optimized transient Masstree: pool allocation + the
//!   per-epoch global barrier (the two enhancements named in §6).
//! * **INCLL** — the durable store (this paper's system) behind its
//!   [`Store`] facade, checkpointing every 64 ms at an emulated `wbinvd`
//!   cost of 1.38 ms (§6.2).

use std::time::Duration;

use incll::{Options, Store};
use incll_epoch::{AdvanceDriver, Cadence, EpochManager, EpochOptions, DEFAULT_EPOCH_INTERVAL};
use incll_masstree::{AllocMode, Masstree, TransientAlloc};
use incll_pmem::PArena;

/// The measured `wbinvd` cost on the paper's hardware (§6.2), injected at
/// every checkpoint flush.
const PAPER_WBINVD_NS: u64 = 1_380_000;

/// External-log capacity per thread: a cap, of which each buffer claims
/// arena only as it is written.
const LOG_BYTES_PER_THREAD: usize = 32 << 20;

/// Shared sizing knobs.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Key-space size the tree will hold.
    pub keys: u64,
    /// Worker threads (allocator slots, log slots).
    pub threads: usize,
    /// `false` = the paper's LOGGING ablation (external log only).
    pub incll: bool,
    /// Epoch length for the background driver (the durable system's is
    /// the store's own, one eager cadence); `None` = no driver (tests
    /// advance manually).
    pub epoch_interval: Option<Duration>,
}

impl SystemConfig {
    /// Defaults for a given scale: InCLL on, 64 ms epochs.
    pub fn new(keys: u64, threads: usize) -> Self {
        SystemConfig {
            keys,
            threads,
            incll: true,
            epoch_interval: Some(DEFAULT_EPOCH_INTERVAL),
        }
    }

    /// Arena bytes for the durable system: nodes (384-byte strides at
    /// ~14 entries/leaf), value buffers (32-byte objects, as MT+'s), the
    /// log's whole capacity (it claims only what it writes, but may
    /// write that much), plus headroom for epoch churn.
    fn durable_capacity(&self) -> usize {
        let keys = self.keys as usize;
        let nodes = keys / 7 * 384 * 2;
        let buffers = keys * 32 * 2;
        let log = self.threads * LOG_BYTES_PER_THREAD;
        (nodes + buffers + log + (96 << 20)).next_power_of_two()
    }

    /// Pool bytes for MT+ (320-byte nodes, 32-byte buffers).
    fn pool_capacity(&self) -> usize {
        let keys = self.keys as usize;
        let nodes = keys / 7 * 320 * 2;
        let buffers = keys * 32 * 3;
        (nodes + buffers + (96 << 20)).next_power_of_two()
    }
}

/// A built transient system: the tree plus its epoch driver.
///
/// Field order matters: the driver stops (joins) before the tree drops.
pub struct TransientSystem {
    /// Held only to be stopped on drop.
    _driver: Option<AdvanceDriver>,
    /// The tree under test.
    pub tree: Masstree,
}

/// A built durable system: the store under test (it owns its cadence
/// driver; [`Store::halt_cadence`] stops it) and its arena.
pub struct DurableSystem {
    /// The store under test.
    pub store: Store,
    /// The arena (latency knobs, stats).
    pub arena: PArena,
}

/// Builds the MT baseline (global allocator).
pub fn build_mt(cfg: &SystemConfig) -> TransientSystem {
    let tiny = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
    let mgr = EpochManager::new(tiny, EpochOptions::transient());
    let alloc = TransientAlloc::new(AllocMode::Global, cfg.threads, None);
    let tree = Masstree::new(mgr.clone(), alloc);
    let driver = cfg.epoch_interval.map(|iv| AdvanceDriver::spawn(mgr, iv));
    TransientSystem {
        _driver: driver,
        tree,
    }
}

/// Builds the MT+ baseline (pool allocator + epoch barrier).
pub fn build_mtplus(cfg: &SystemConfig) -> TransientSystem {
    let pool = PArena::builder()
        .capacity_bytes(cfg.pool_capacity())
        .build()
        .unwrap();
    let mgr = EpochManager::new(pool.clone(), EpochOptions::transient());
    let alloc = TransientAlloc::new(AllocMode::Pool, cfg.threads, Some(pool));
    let tree = Masstree::new(mgr.clone(), alloc);
    let driver = cfg.epoch_interval.map(|iv| AdvanceDriver::spawn(mgr, iv));
    TransientSystem {
        _driver: driver,
        tree,
    }
}

/// Builds the durable INCLL system (or its LOGGING ablation) behind the
/// [`Store`] facade.
pub fn build_incll(cfg: &SystemConfig) -> DurableSystem {
    let arena = PArena::builder()
        .capacity_bytes(cfg.durable_capacity())
        .wbinvd_latency_ns(PAPER_WBINVD_NS)
        .build()
        .unwrap();
    let mut options = Options::new()
        .threads(cfg.threads)
        .log_bytes_per_thread(LOG_BYTES_PER_THREAD)
        .incll(cfg.incll);
    if let Some(interval) = cfg.epoch_interval {
        options = options.cadence(Cadence::eager(interval));
    }
    let (store, _report) = Store::open(&arena, options).expect("arena sized for the key count");
    DurableSystem { store, arena }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incll_ycsb::{load, run, Dist, Mix, RunConfig};

    fn tiny_cfg() -> SystemConfig {
        let mut c = SystemConfig::new(2_000, 2);
        c.epoch_interval = Some(Duration::from_millis(8));
        c
    }

    #[test]
    fn all_three_systems_run_the_same_workload() {
        let cfg = tiny_cfg();
        let rc = RunConfig {
            threads: 2,
            ops_per_thread: 2_000,
            nkeys: cfg.keys,
            mix: Mix::A,
            dist: Dist::Uniform,
            seed: 3,
        };
        let mt = build_mt(&cfg);
        load(&mt.tree, cfg.keys, cfg.threads);
        assert_eq!(run(&mt.tree, &rc).ops, 4_000);

        let mtp = build_mtplus(&cfg);
        load(&mtp.tree, cfg.keys, cfg.threads);
        assert_eq!(run(&mtp.tree, &rc).ops, 4_000);

        let inc = build_incll(&cfg);
        load(&inc.store, cfg.keys, cfg.threads);
        assert_eq!(run(&inc.store, &rc).ops, 4_000);
    }

    #[test]
    fn sharded_durable_system_serves_the_workload() {
        let cfg = tiny_cfg();
        let arena = PArena::builder().capacity_bytes(64 << 20).build().unwrap();
        let options = Options::new()
            .threads(cfg.threads)
            .log_bytes_per_thread(1 << 20)
            .shards(4);
        let (store, _) = Store::open(&arena, options).unwrap();
        assert_eq!(store.shard_count(), 4);
        load(&store, cfg.keys, cfg.threads);
        let rc = RunConfig {
            threads: 2,
            ops_per_thread: 2_000,
            nkeys: cfg.keys,
            mix: Mix::E, // scans exercise the k-way merge
            dist: Dist::Uniform,
            seed: 11,
        };
        assert_eq!(run(&store, &rc).ops, 4_000);
    }

    #[test]
    fn logging_ablation_logs_more_nodes() {
        // Deterministic: no driver; one manual boundary so the run's first
        // modifications happen in a fresh epoch.
        let mut cfg = tiny_cfg();
        cfg.epoch_interval = None;
        let rc = RunConfig {
            threads: 1,
            ops_per_thread: 3_000,
            nkeys: cfg.keys,
            mix: Mix::A,
            dist: Dist::Uniform,
            seed: 5,
        };
        let mut counts = [0u64; 2];
        for (i, incll) in [true, false].into_iter().enumerate() {
            cfg.incll = incll;
            let sys = build_incll(&cfg);
            load(&sys.store, cfg.keys, 1);
            sys.store.checkpoint();
            let before = sys.arena.stats().snapshot();
            run(&sys.store, &rc);
            counts[i] = sys.arena.stats().snapshot().delta(&before).ext_nodes_logged;
        }
        assert!(
            counts[1] > counts[0],
            "LOGGING ({}) must log more than INCLL ({})",
            counts[1],
            counts[0]
        );
    }
}
