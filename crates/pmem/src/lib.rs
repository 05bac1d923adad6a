//! Simulated persistent memory (NVM) substrate for the InCLL reproduction.
//!
//! The paper ("Fine-Grain Checkpointing with In-Cache-Line Logging",
//! ASPLOS'19) runs on x86 hardware with NVM emulated by a DRAM file and uses
//! `clwb`/`clflushopt` + `sfence` for explicit write-back and the privileged
//! `wbinvd` instruction for whole-cache flushes. This crate substitutes a
//! software model with the same *observable* semantics:
//!
//! * [`PArena`] — a large memory arena standing in for the NVM device,
//!   mapped the way a DAX device is: one anonymous `mmap`, 2 MiB-aligned
//!   and huge-page-advised, kernel-zeroed and populated as the store
//!   claims it (the *Backing* section of [`PArena`] says why, and what
//!   happens on a host without transparent huge pages). Durable
//!   references are 16-byte-aligned `u64` **offsets** (0 is null), so the
//!   44-bit pointer packing the paper relies on works identically.
//! * Persistence primitives — [`PArena::clwb`], [`PArena::sfence`],
//!   [`PArena::global_flush`] — count invocations, optionally inject
//!   emulated NVM latency (the paper's Figs. 3 and 8 methodology), and, in
//!   *tracked* mode, manipulate a per-cache-line store journal.
//! * The **PCSO** (Persistent Cache Store Order) model — writes to one cache
//!   line persist in program order; writes to different lines persist in an
//!   arbitrary order unless explicitly fenced. Tracked mode journals every
//!   durable store per line; [`PArena::crash_seeded`] independently truncates each
//!   line's history at a random prefix, producing an adversarial-but-legal
//!   post-failure NVM image for recovery testing.
//!
//! # Example
//!
//! ```
//! use incll_pmem::PArena;
//!
//! # fn main() -> Result<(), incll_pmem::Error> {
//! let arena = PArena::builder().capacity_bytes(1 << 20).build()?;
//! let off = arena.carve(64, 64)?;
//! arena.pwrite_u64(off, 0xdead_beef);
//! arena.clwb(off);
//! arena.sfence();
//! assert_eq!(arena.pread_u64(off), 0xdead_beef);
//! # Ok(())
//! # }
//! ```

mod arena;
mod error;
mod journal;
mod latency;
mod stats;
pub mod superblock;

pub use arena::{FlushDomainScope, PArena, PArenaBuilder, CACHE_LINE, DOMAIN_SHARED};
pub use error::Error;
pub use latency::{spin_ns, LatencyModel};
pub use stats::{Stats, StatsSnapshot};

/// Result alias for persistent-memory operations.
pub type Result<T> = std::result::Result<T, Error>;
