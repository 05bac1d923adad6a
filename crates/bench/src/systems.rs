//! Builders for the three systems the paper compares (§6):
//!
//! * **MT** — unmodified transient Masstree: global allocator.
//! * **MT+** — optimized transient Masstree: pool allocation + the
//!   per-epoch global barrier (the two enhancements named in §6).
//! * **INCLL** — the durable store (this paper's system) behind its
//!   [`Store`] facade, checkpointing every 64 ms at an emulated `wbinvd`
//!   cost of 1.38 ms (§6.2) unless overridden.

use std::time::Duration;

use incll::{Options, Store};
use incll_epoch::{AdvanceDriver, Cadence, EpochManager, EpochOptions, DEFAULT_EPOCH_INTERVAL};
use incll_masstree::{AllocMode, Masstree, TransientAlloc};
use incll_pmem::PArena;

/// The measured `wbinvd` cost on the paper's hardware (§6.2), injected at
/// every checkpoint flush by default.
pub const PAPER_WBINVD_NS: u64 = 1_380_000;

/// Shared sizing/latency knobs.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Key-space size the tree will hold.
    pub keys: u64,
    /// Worker threads (allocator slots, log slots).
    pub threads: usize,
    /// Emulated post-`sfence` NVM latency (Figs. 3, 8).
    pub sfence_ns: u64,
    /// Emulated whole-cache-flush cost (§6.2).
    pub wbinvd_ns: u64,
    /// `false` = the paper's LOGGING ablation (external log only).
    pub incll: bool,
    /// External-log capacity per thread.
    pub log_bytes_per_thread: usize,
    /// Epoch length for the background driver (the durable system's is
    /// the store's own, one eager cadence per shard); `None` = no driver
    /// (tests advance manually).
    pub epoch_interval: Option<Duration>,
    /// Keyspace shards for the durable system (power of two; 1 = the
    /// paper's single-tree configuration). Each shard is its own epoch
    /// domain with an independent checkpoint cadence.
    pub shards: usize,
    /// Emulated cost of one **scoped** (per-domain) flush, used by
    /// sharded systems' per-shard advances. `None` models a dirty-line
    /// write-back walk over one shard's working set: `wbinvd_ns /
    /// shards`.
    pub scoped_flush_ns: Option<u64>,
    /// Emulated NVM streaming-read cost replay pays per KB of valid log
    /// prefix at recovery (0 = free).
    pub replay_read_ns_per_kb: u64,
}

impl SystemConfig {
    /// Defaults for a given scale: paper latencies, 64 ms epochs.
    pub fn new(keys: u64, threads: usize) -> Self {
        SystemConfig {
            keys,
            threads,
            sfence_ns: 0,
            wbinvd_ns: PAPER_WBINVD_NS,
            incll: true,
            log_bytes_per_thread: 32 << 20,
            epoch_interval: Some(DEFAULT_EPOCH_INTERVAL),
            shards: 1,
            scoped_flush_ns: None,
            replay_read_ns_per_kb: 0,
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
        let log = self.threads * self.log_bytes_per_thread;
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
        .wbinvd_latency_ns(cfg.wbinvd_ns)
        .sfence_latency_ns(cfg.sfence_ns)
        .build()
        .unwrap();
    // Sharded advances issue scoped flushes; emulate one shard's share of
    // the whole-cache cost unless overridden.
    arena.latency().set_scoped_flush_ns(
        cfg.scoped_flush_ns
            .unwrap_or(cfg.wbinvd_ns / cfg.shards.max(1) as u64),
    );
    arena
        .latency()
        .set_replay_read_ns_per_kb(cfg.replay_read_ns_per_kb);
    let mut options = Options::new()
        .threads(cfg.threads)
        .log_bytes_per_thread(cfg.log_bytes_per_thread)
        .incll(cfg.incll)
        .shards(cfg.shards);
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
        c.wbinvd_ns = 0;
        c.epoch_interval = Some(Duration::from_millis(8));
        c.log_bytes_per_thread = 1 << 20;
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
        let mut cfg = tiny_cfg();
        cfg.shards = 4;
        let sys = build_incll(&cfg);
        assert_eq!(sys.store.shard_count(), 4);
        load(&sys.store, cfg.keys, cfg.threads);
        let rc = RunConfig {
            threads: 2,
            ops_per_thread: 2_000,
            nkeys: cfg.keys,
            mix: Mix::E, // scans exercise the k-way merge
            dist: Dist::Uniform,
            seed: 11,
        };
        assert_eq!(run(&sys.store, &rc).ops, 4_000);
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
