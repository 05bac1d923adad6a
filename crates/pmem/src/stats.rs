use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! stats_fields {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// Persistence-event counters shared by every layer of the system.
        ///
        /// The evaluation section of the paper reports, besides throughput,
        /// the *number of externally logged nodes* (Fig. 7) and reasons about
        /// write-back/fence counts; these counters are the single sink all
        /// crates report into. Every update is one relaxed `fetch_add` on a
        /// counter all threads share — the InCLL path's included: each
        /// in-line log the tree takes (`incll_perm_logs`, `incll_val_logs`)
        /// and each allocator alloc or free (`palloc_allocs`,
        /// `palloc_frees`, `incll_alloc_logs`) bumps one, so every put
        /// performs a few shared atomic adds besides its persistence work.
        #[derive(Debug, Default)]
        pub struct Stats {
            $( $(#[$doc])* $name: AtomicU64, )+
        }

        /// A point-in-time copy of [`Stats`].
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $( $(#[$doc])* pub $name: u64, )+
        }

        impl Stats {
            /// Creates a zeroed counter set.
            pub fn new() -> Self {
                Self::default()
            }

            $(
                $(#[$doc])*
                #[inline]
                pub fn $name(&self) -> u64 {
                    self.$name.load(Ordering::Relaxed)
                }
            )+

            /// Takes a consistent-enough snapshot of all counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $( $name: self.$name.load(Ordering::Relaxed), )+
                }
            }

            /// Resets every counter to zero.
            pub fn reset(&self) {
                $( self.$name.store(0, Ordering::Relaxed); )+
            }
        }

        impl StatsSnapshot {
            /// Returns `self - earlier`, field-wise (saturating).
            #[must_use]
            pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $( $name: self.$name.saturating_sub(earlier.$name), )+
                }
            }
        }
    };
}

stats_fields! {
    /// Cache-line write-back (`clwb`) instructions issued.
    clwb,
    /// Persistence fences (`sfence`) issued.
    sfence,
    /// Whole-cache flushes (`wbinvd` analogue) issued at epoch boundaries.
    global_flush,
    /// Scoped (per-domain) flushes issued at per-shard epoch boundaries.
    scoped_flush,
    /// Objects captured in the external log: a node (or holder cell)
    /// once per epoch — at its first capture, however many entries its
    /// regions take — and every batch intent.
    ext_nodes_logged,
    /// Interior (non-leaf) nodes among those (§6.1 ablation).
    ext_interior_logged,
    /// Payload bytes written to the external log, every entry's.
    ext_bytes_logged,
    /// Permutation-field InCLL logs taken (first modification per epoch).
    incll_perm_logs,
    /// Value-slot InCLL logs taken.
    incll_val_logs,
    /// Allocator free-list InCLL logs taken.
    incll_alloc_logs,
    /// Objects handed out by the durable allocator.
    palloc_allocs,
    /// Objects returned to the durable allocator.
    palloc_frees,
    /// Nodes recovered lazily from their InCLLs after a crash.
    nodes_lazy_recovered,
    /// External-log entries replayed during recovery.
    ext_entries_replayed,
}

impl Stats {
    /// Adds `n` to a counter; the `$name` getters read them back.
    ///
    /// Incrementers are generated individually below to keep call sites
    /// greppable.
    #[inline]
    fn add(field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` `clwb` instructions.
    #[inline]
    pub fn add_clwb(&self, n: u64) {
        Self::add(&self.clwb, n);
    }

    /// Records an `sfence`.
    #[inline]
    pub fn add_sfence(&self) {
        Self::add(&self.sfence, 1);
    }

    /// Records a whole-cache flush.
    #[inline]
    pub fn add_global_flush(&self) {
        Self::add(&self.global_flush, 1);
    }

    /// Records a scoped (per-domain) flush.
    #[inline]
    pub fn add_scoped_flush(&self) {
        Self::add(&self.scoped_flush, 1);
    }

    /// Records `n` objects captured in the external log.
    #[inline]
    pub fn add_ext_nodes(&self, n: u64) {
        Self::add(&self.ext_nodes_logged, n);
    }

    /// Records `bytes` of external-log payload.
    #[inline]
    pub fn add_ext_bytes(&self, bytes: u64) {
        Self::add(&self.ext_bytes_logged, bytes);
    }

    /// Records an externally logged interior node.
    #[inline]
    pub fn add_ext_interior(&self) {
        Self::add(&self.ext_interior_logged, 1);
    }

    /// Records a permutation InCLL log.
    #[inline]
    pub fn add_incll_perm(&self) {
        Self::add(&self.incll_perm_logs, 1);
    }

    /// Records a value InCLL log.
    #[inline]
    pub fn add_incll_val(&self) {
        Self::add(&self.incll_val_logs, 1);
    }

    /// Records an allocator InCLL log.
    #[inline]
    pub fn add_incll_alloc(&self) {
        Self::add(&self.incll_alloc_logs, 1);
    }

    /// Records a durable allocation.
    #[inline]
    pub fn add_palloc_alloc(&self) {
        Self::add(&self.palloc_allocs, 1);
    }

    /// Records a durable free.
    #[inline]
    pub fn add_palloc_free(&self) {
        Self::add(&self.palloc_frees, 1);
    }

    /// Records a lazily recovered node.
    #[inline]
    pub fn add_lazy_recovered(&self) {
        Self::add(&self.nodes_lazy_recovered, 1);
    }

    /// Records `n` replayed external-log entries.
    #[inline]
    pub fn add_ext_replayed(&self, n: u64) {
        Self::add(&self.ext_entries_replayed, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = Stats::new();
        s.add_clwb(3);
        s.add_sfence();
        s.add_ext_nodes(1);
        s.add_ext_bytes(192);
        s.add_ext_bytes(64);
        assert_eq!(s.clwb(), 3);
        assert_eq!(s.sfence(), 1);
        assert_eq!(s.ext_nodes_logged(), 1);
        assert_eq!(s.ext_bytes_logged(), 256);
    }

    #[test]
    fn snapshot_delta() {
        let s = Stats::new();
        s.add_incll_perm();
        let a = s.snapshot();
        s.add_incll_perm();
        s.add_incll_val();
        let b = s.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.incll_perm_logs, 1);
        assert_eq!(d.incll_val_logs, 1);
        assert_eq!(d.clwb, 0);
    }

    #[test]
    fn reset_zeroes() {
        let s = Stats::new();
        s.add_palloc_alloc();
        s.add_palloc_free();
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }
}
