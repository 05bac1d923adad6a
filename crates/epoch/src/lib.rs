//! Epoch management for fine-grain checkpointing, organised as
//! independent per-shard epoch **domains**.
//!
//! The paper partitions execution into short epochs (64 ms). At the start of
//! each epoch every worker thread is briefly quiesced at a **global
//! barrier** (one of the two MT+ enhancements, §6), the whole cache is
//! flushed to NVM (`wbinvd`, §6.2), the durable epoch counter is bumped,
//! and per-epoch state (external log, allocator pending-free lists) is
//! reset. Epochs double as the memory-reclamation grace period: an object
//! freed in epoch *e* may be reused from *e + 1* on, which is exactly the
//! property the durable allocator's recovery argument needs (§5).
//!
//! A single-domain [`EpochManager`] (the default) is exactly that global
//! epoch. With [`EpochManager::with_domains`], each keyspace shard gets
//! its **own** counter, quiescence set, advance path and boundary hooks:
//! advancing one domain quiesces only the threads pinned in it
//! ([`ThreadHandle::pin_on`]) and issues a *scoped* flush
//! ([`incll_pmem::PArena::flush_domain`]) covering only that domain's
//! dirty lines, so checkpointing one shard never stalls another's
//! threads.
//!
//! This crate provides:
//!
//! * [`EpochManager`] — the domain array: per-domain epoch words, thread
//!   registration, the Dekker-style pin/advance protocol, durable epoch
//!   recording, boundary hooks, and pre-flush hooks (where failed-epoch
//!   compaction sweeps run).
//! * [`ThreadHandle`]/[`Guard`] — per-thread, per-domain epoch pinning.
//!   Every data structure operation, read or write, runs inside a guard
//!   ([`ThreadHandle::pin_on`], or [`ThreadHandle::pin_mask`] for a set
//!   of domains); a domain cannot advance while any of *its* guards is
//!   live.
//! * [`AdvanceDriver`] — a background thread advancing every domain on
//!   one fixed clock, like the paper's unconditional 64 ms epoch (a
//!   store's options carry that interval as a [`Cadence`]). The timer
//!   bounds the *time* between a domain's checkpoints; what bounds the
//!   *bytes* is the caller's to enforce (the durable store forces a
//!   domain over a boundary when a writer's log buffer for it runs
//!   short), so no controller here estimates a write rate.
//!
//! # Example
//!
//! ```
//! use incll_pmem::{superblock, PArena};
//! use incll_epoch::{EpochManager, EpochOptions};
//!
//! # fn main() -> Result<(), incll_pmem::Error> {
//! let arena = PArena::builder().capacity_bytes(1 << 20).build()?;
//! superblock::format(&arena);
//! let mgr = EpochManager::new(arena, EpochOptions::durable());
//! let handle = mgr.register();
//! {
//!     let guard = handle.pin();
//!     assert_eq!(guard.epoch(), 1);
//! } // guard dropped: thread quiescent
//! mgr.advance();
//! assert_eq!(handle.pin().epoch(), 2);
//! # Ok(())
//! # }
//! ```

mod driver;
mod manager;

pub use driver::{AdvanceDriver, Cadence};
pub use manager::{AdvanceHook, EpochManager, EpochOptions, Guard, ThreadHandle};

/// The paper's epoch length: 64 ms (Masstree's reclamation interval, §4).
pub const DEFAULT_EPOCH_INTERVAL: std::time::Duration = std::time::Duration::from_millis(64);
