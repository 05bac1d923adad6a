//! YCSB-style workload substrate for the InCLL evaluation (§6).
//!
//! The paper drives all throughput experiments with four YCSB mixes
//! (A/B/C/E) over uniform and scrambled-Zipfian key distributions, 8-byte
//! keys and values, on trees preloaded with the whole key space. This
//! crate reproduces that harness:
//!
//! * [`zipf`] — Zipfian (θ = 0.99) and scrambled-Zipfian generators;
//! * [`workload`] — the operation mixes and key mapping;
//! * [`runner`] — a multi-threaded load/run driver generic over the
//!   three systems under test via [`runner::KvBench`].
//!
//! # Example
//!
//! ```
//! use incll_pmem::PArena;
//! use incll_epoch::{EpochManager, EpochOptions};
//! use incll_masstree::{AllocMode, Masstree, TransientAlloc};
//! use incll_ycsb::{load, run, Dist, Mix, RunConfig};
//!
//! # fn main() -> Result<(), incll_pmem::Error> {
//! let arena = PArena::builder().capacity_bytes(1 << 20).build()?;
//! let mgr = EpochManager::new(arena, EpochOptions::transient());
//! let tree = Masstree::new(mgr, TransientAlloc::new(AllocMode::Global, 2, None));
//! load(&tree, 1_000, 2);
//! let res = run(&tree, &RunConfig {
//!     threads: 2, ops_per_thread: 1_000, nkeys: 1_000,
//!     mix: Mix::A, dist: Dist::Zipfian, seed: 42,
//! });
//! assert_eq!(res.ops, 2_000);
//! # Ok(())
//! # }
//! ```

pub mod runner;
pub mod workload;
pub mod zipf;

pub use runner::{load, run, KvBench, RunConfig, RunResult};
pub use workload::{storage_key, Dist, Mix, Op, OpStream};
pub use zipf::{ScrambledZipfian, Zipfian};
