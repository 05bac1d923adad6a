//! The crate-wide error type for the public `Store` / tree API.
//!
//! Lower layers have their own error enums (`incll_pmem::Error`,
//! `incll_palloc::Error`); everything the public API can return is folded
//! into [`Error`] here so callers never need to name an internal crate.

use incll_palloc::{CLASS_SIZES, NUM_CLASSES};

/// Largest value accepted by byte-slice `put` (the biggest allocator size
/// class minus the 8-byte length prefix every value buffer carries).
pub const MAX_VALUE_BYTES: usize = CLASS_SIZES[NUM_CLASSES - 1] - 8;

/// Errors surfaced by the public API ([`crate::Store`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Underlying persistent-memory failure (arena exhaustion, bad
    /// capacity, full failed-epoch set, ...).
    Pmem(incll_pmem::Error),
    /// A value exceeds the largest durable-buffer size class.
    ValueTooLarge {
        /// The offending value length, in bytes.
        size: usize,
        /// The maximum supported length ([`MAX_VALUE_BYTES`]).
        max: usize,
    },
    /// All session slots are taken, or an explicit thread id is out of
    /// range: the store was opened with a bounded per-thread pool
    /// ([`crate::Options::threads`]) sizing its allocator free lists and
    /// external-log buffers.
    TooManyThreads {
        /// The configured slot count.
        limit: usize,
    },
    /// The arena carries an InCLL superblock of a different on-media
    /// layout version; opening it would
    /// misinterpret the layout, and formatting it would destroy data, so
    /// neither happens.
    UnsupportedLayout {
        /// The version found on media.
        found: u64,
        /// The version this build reads and writes.
        expected: u64,
    },
    /// The requested shard count does not match the count fixed when the
    /// store was formatted ([`crate::Options::shards`] is a format-time
    /// property; reopen with the on-media value).
    ShardMismatch {
        /// The shard count the caller asked for.
        requested: usize,
        /// The shard count recorded in the superblock.
        on_media: usize,
    },
    /// The requested shard count is not a power of two in
    /// `1..=`[`incll_pmem::superblock::MAX_SHARDS`].
    InvalidShardCount {
        /// The offending count.
        requested: usize,
        /// The largest supported count.
        max: usize,
    },
    /// [`crate::Store::session_blocking`] waited out its deadline without
    /// any live [`crate::Session`] releasing a slot. Unlike
    /// [`Error::TooManyThreads`] (the immediate-mode failure), this means
    /// the pool stayed exhausted for the whole timeout.
    SessionTimeout {
        /// The configured slot count.
        limit: usize,
        /// How long the caller was willing to wait.
        waited: std::time::Duration,
    },
    /// A [`crate::WriteBatch`] staged more operations than one batch can
    /// carry ([`crate::MAX_BATCH_OPS`]): every staged op becomes an intent
    /// entry in the per-thread external log, so the cap bounds the log
    /// space one commit can pin. Split the work across batches.
    BatchTooLarge {
        /// The number of operations the caller tried to stage.
        ops: usize,
        /// The largest supported batch ([`crate::MAX_BATCH_OPS`]).
        max: usize,
    },
    /// What a write reserves in one shard's log — a
    /// [`crate::WriteBatch`]'s intent entries plus the undo allowance of
    /// its applies, or one put's worst-case undo — exceeds the capacity of
    /// an *empty* per-(thread, shard) external-log buffer, so no
    /// checkpoint could make room for it. Nothing was written. Split the
    /// batch or raise [`crate::Options::log_bytes_per_thread`].
    BatchExceedsLog {
        /// The shard whose buffer is too small.
        shard: usize,
        /// Log bytes the write may append to that shard's buffer.
        needed: u64,
        /// The buffer's capacity
        /// ([`crate::Options::log_bytes_per_thread`] / shards).
        capacity: u64,
    },
    /// A write that may have to force a checkpoint was issued while its
    /// own session holds an epoch pin — a live [`crate::ValueRef`], a
    /// [`crate::Session::pin_shard`] guard: a put or single-shard `commit`
    /// whose log buffer is short, every `commit_durable`, every
    /// cross-shard `commit`. The forced checkpoint would wait for that pin
    /// forever, so the write is refused up front. Nothing was written.
    /// Drop the pin and write again.
    SessionPinned {
        /// The lowest shard the session holds a pin on.
        shard: usize,
    },
    /// An internal subsystem reported a condition with no dedicated
    /// variant (future-proofing against `#[non_exhaustive]` sources).
    Internal(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Pmem(e) => write!(f, "persistent memory error: {e}"),
            Error::ValueTooLarge { size, max } => {
                write!(f, "value of {size} bytes exceeds the {max}-byte maximum")
            }
            Error::TooManyThreads { limit } => {
                write!(
                    f,
                    "no usable thread slot: the store has {limit} (all in use, \
                     or the requested tid is out of range)"
                )
            }
            Error::UnsupportedLayout { found, expected } => {
                write!(
                    f,
                    "arena holds an InCLL store with on-media layout version \
                     {found}, but this build speaks version {expected}"
                )
            }
            Error::ShardMismatch {
                requested,
                on_media,
            } => {
                write!(
                    f,
                    "shard count is fixed at format time: the store on media \
                     has {on_media} shard(s), but {requested} were requested"
                )
            }
            Error::InvalidShardCount { requested, max } => {
                write!(
                    f,
                    "invalid shard count {requested}: must be a power of two \
                     between 1 and {max}"
                )
            }
            Error::SessionTimeout { limit, waited } => {
                write!(
                    f,
                    "no session slot released within {waited:?}: all {limit} \
                     remained held for the whole wait"
                )
            }
            Error::BatchTooLarge { ops, max } => {
                write!(
                    f,
                    "write batch of {ops} operations exceeds the {max}-op \
                     maximum"
                )
            }
            Error::BatchExceedsLog {
                shard,
                needed,
                capacity,
            } => {
                write!(
                    f,
                    "write needs {needed} external-log bytes on shard \
                     {shard}, but a per-thread buffer holds {capacity}"
                )
            }
            Error::SessionPinned { shard } => {
                write!(
                    f,
                    "write may checkpoint while its session holds an epoch \
                     pin on shard {shard}; drop the borrow or guard first"
                )
            }
            Error::Internal(what) => write!(f, "internal error: {what}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Pmem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<incll_pmem::Error> for Error {
    fn from(e: incll_pmem::Error) -> Self {
        Error::Pmem(e)
    }
}

impl From<incll_palloc::Error> for Error {
    fn from(e: incll_palloc::Error) -> Self {
        match e {
            incll_palloc::Error::Pmem(p) => Error::Pmem(p),
            incll_palloc::Error::UnsupportedSize { size } => Error::ValueTooLarge {
                // Allocation sizes include the 8-byte length prefix; report
                // the value length the caller asked for.
                size: size.saturating_sub(8),
                max: MAX_VALUE_BYTES,
            },
            other => Error::Internal(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let errs = [
            Error::Pmem(incll_pmem::Error::FailedEpochSetFull),
            Error::ValueTooLarge {
                size: 9000,
                max: MAX_VALUE_BYTES,
            },
            Error::TooManyThreads { limit: 4 },
            Error::UnsupportedLayout {
                found: 1,
                expected: 2,
            },
            Error::ShardMismatch {
                requested: 4,
                on_media: 2,
            },
            Error::InvalidShardCount {
                requested: 3,
                max: 64,
            },
            Error::BatchTooLarge {
                ops: 2000,
                max: 1024,
            },
            Error::SessionTimeout {
                limit: 4,
                waited: std::time::Duration::from_millis(50),
            },
            Error::BatchExceedsLog {
                shard: 0,
                needed: 5 << 20,
                capacity: 4 << 20,
            },
            Error::SessionPinned { shard: 2 },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn palloc_errors_fold_in() {
        let e: Error = incll_palloc::Error::UnsupportedSize { size: 5000 }.into();
        assert!(matches!(e, Error::ValueTooLarge { .. }));
        let e: Error = incll_palloc::Error::Pmem(incll_pmem::Error::FailedEpochSetFull).into();
        assert_eq!(e, Error::Pmem(incll_pmem::Error::FailedEpochSetFull));
    }

    #[test]
    fn max_value_tracks_the_largest_class() {
        assert_eq!(MAX_VALUE_BYTES + 8, CLASS_SIZES[NUM_CLASSES - 1]);
    }
}
