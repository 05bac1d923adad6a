//! Workspace umbrella for the InCLL reproduction.
//!
//! The real code lives in the member crates; this package hosts the
//! runnable examples (`examples/`) and the cross-crate integration tests
//! (`tests/`). The [`prelude`] re-exports everything those need.
//!
//! The supported public surface is the `Store` facade
//! ([`incll::Store`] / [`incll::Session`] / [`incll::Options`] /
//! [`incll::Error`]); examples and integration tests use only it (plus
//! the transient baselines and the YCSB harness).

/// One-stop imports for examples and integration tests.
pub mod prelude {
    pub use incll::{
        Error, ExtentStats, Options, RangeScan, RecoveryReport, Session, ShardReplay, ShardStats,
        Store, ValueRef, WriteBatch, MAX_BATCH_OPS, MAX_VALUE_BYTES,
    };
    pub use incll_epoch::{
        AdvanceDriver, Cadence, EpochManager, EpochOptions, DEFAULT_EPOCH_INTERVAL,
    };
    pub use incll_masstree::{AllocMode, Masstree, TransientAlloc, TreeCtx};
    pub use incll_pmem::{PArena, StatsSnapshot};
    pub use incll_ycsb::{load, run, storage_key, Dist, KvBench, Mix, RunConfig};
}
