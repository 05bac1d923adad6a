use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::EpochManager;

/// A background thread that advances the epoch on a fixed interval,
/// mirroring the paper's 64 ms checkpoint cadence.
///
/// The driver stops (and joins its thread) on drop. Stopping is prompt
/// regardless of the interval: the thread waits in `park_timeout` slices
/// and is unparked by the drop, so a driver on a multi-second cadence
/// still joins in microseconds.
///
/// # Example
///
/// ```
/// use incll_pmem::{superblock, PArena};
/// use incll_epoch::{AdvanceDriver, EpochManager, EpochOptions};
/// use std::time::Duration;
///
/// # fn main() -> Result<(), incll_pmem::Error> {
/// let arena = PArena::builder().capacity_bytes(1 << 20).build()?;
/// superblock::format(&arena);
/// let mgr = EpochManager::new(arena, EpochOptions::durable());
/// let driver = AdvanceDriver::spawn(mgr.clone(), Duration::from_millis(5));
/// std::thread::sleep(Duration::from_millis(40));
/// drop(driver); // stops and joins the thread
/// assert!(mgr.current_epoch() > 1);
/// # Ok(())
/// # }
/// ```
pub struct AdvanceDriver {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

/// One domain's checkpoint cadence in a per-domain driver
/// ([`AdvanceDriver::spawn_per_domain`]): a fixed interval, optionally
/// skipping clean domains. Build one with [`Cadence::lazy`] or
/// [`Cadence::eager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cadence {
    /// Target time between this domain's advances.
    pub interval: Duration,
    /// Skip an advance when the domain saw no **write** pins since its
    /// last one (the dirty-work heuristic: a clean domain has nothing to
    /// flush and nothing new to checkpoint, so stalling its — nonexistent
    /// — writers buys nothing). Read-only pins — borrowed `get_ref`
    /// lookups, snapshot-scan batch refills — never count as dirty work,
    /// so a pure-read workload leaves a lazy cadence idle forever. The
    /// skipped tick still reschedules normally.
    pub skip_clean: bool,
}

impl Cadence {
    /// A cadence advancing every `interval`, skipping clean domains.
    pub fn lazy(interval: Duration) -> Self {
        Cadence {
            interval,
            skip_clean: true,
        }
    }

    /// A cadence advancing every `interval` unconditionally.
    pub fn eager(interval: Duration) -> Self {
        Cadence {
            interval,
            skip_clean: false,
        }
    }
}

impl AdvanceDriver {
    /// Spawns a driver advancing every domain of `mgr` (in index order)
    /// every `interval` — the single global cadence. For independent
    /// per-domain cadences see [`AdvanceDriver::spawn_per_domain`].
    pub fn spawn(mgr: EpochManager, interval: Duration) -> Self {
        let cadences = vec![Cadence::eager(interval); mgr.domains()];
        Self::spawn_per_domain(mgr, cadences)
    }

    /// Spawns a driver scheduling each domain on its **own** cadence: a
    /// hot shard can checkpoint every few milliseconds while cold shards
    /// tick lazily (or, with [`Cadence::lazy`], not at all while idle).
    /// One background thread serves every domain, always advancing the
    /// earliest-deadline domain next.
    ///
    /// Scheduling is **fixed-rate**, not fixed-delay: each domain's next
    /// deadline is computed from its *previous deadline*, so a slow
    /// advance (long quiesce, big flush, slow boundary hooks) eats into
    /// its own period instead of silently stretching every subsequent
    /// one. Only when an advance overruns its whole period does the
    /// schedule re-anchor at "now" (no catch-up bursts).
    ///
    /// # Panics
    ///
    /// Panics if `cadences.len() != mgr.domains()`.
    pub fn spawn_per_domain(mgr: EpochManager, cadences: Vec<Cadence>) -> Self {
        assert_eq!(
            cadences.len(),
            mgr.domains(),
            "one cadence per epoch domain"
        );
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let thread = std::thread::Builder::new()
            .name("incll-epoch-driver".into())
            .spawn(move || {
                let now = Instant::now();
                let mut deadlines: Vec<Instant> =
                    cadences.iter().map(|c| now + c.interval).collect();
                loop {
                    // Next event: the earliest deadline across every domain.
                    let (d, deadline) = deadlines
                        .iter()
                        .copied()
                        .enumerate()
                        .min_by_key(|&(_, t)| t)
                        .expect("at least one domain");
                    loop {
                        if stop2.load(Ordering::Acquire) {
                            return;
                        }
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        std::thread::park_timeout(deadline - now);
                    }
                    let cadence = cadences[d];
                    if !cadence.skip_clean || mgr.domain_dirty(d) {
                        mgr.advance_domain(d);
                    } else {
                        mgr.note_advance_skipped(d);
                    }
                    // Fixed-rate rescheduling: from the deadline that just
                    // fired, re-anchoring only on a whole-period overrun.
                    let next = deadline + cadence.interval;
                    let now = Instant::now();
                    deadlines[d] = if next > now {
                        next
                    } else {
                        now + cadence.interval
                    };
                }
            })
            .expect("spawn epoch driver");
        AdvanceDriver {
            stop,
            thread: Some(thread),
        }
    }

    /// Permanently stops the driver **without joining** its thread: the
    /// stop flag is raised and the thread unparked, so no advance fires
    /// after the in-flight one (if any) completes. Callable through a
    /// shared handle, unlike a drop, which needs the driver itself. The
    /// use case is a controlled-teardown harness: freeze the
    /// cadence *before* quiescing writers, so a backlogged driver can't
    /// spend the sudden idle time on one last catch-up advance and erase
    /// the undo tail the harness is about to measure. The thread is
    /// joined by the drop as usual.
    pub fn halt(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = &self.thread {
            t.thread().unpark();
        }
    }
}

impl Drop for AdvanceDriver {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for AdvanceDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdvanceDriver")
            .field("stopped", &self.stop.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EpochOptions;
    use incll_pmem::{superblock, PArena};

    #[test]
    fn driver_advances_epochs() {
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        let mgr = EpochManager::new(arena, EpochOptions::durable());
        let driver = AdvanceDriver::spawn(mgr.clone(), Duration::from_millis(2));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while mgr.current_epoch() < 4 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(driver);
        assert!(mgr.current_epoch() >= 4);
    }

    #[test]
    fn driver_stops_on_drop() {
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        let mgr = EpochManager::new(arena, EpochOptions::transient());
        {
            let _driver = AdvanceDriver::spawn(mgr.clone(), Duration::from_millis(1));
            std::thread::sleep(Duration::from_millis(10));
        }
        let settled = mgr.current_epoch();
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(mgr.current_epoch(), settled);
    }

    #[test]
    fn stop_is_prompt_even_with_a_long_interval() {
        // Regression: the driver used to sleep out its full interval
        // before noticing `stop`; with a 60 s cadence that hung drop for
        // a minute. The parked wait must join far inside one interval.
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        let mgr = EpochManager::new(arena, EpochOptions::durable());
        let driver = AdvanceDriver::spawn(mgr.clone(), Duration::from_secs(60));
        std::thread::sleep(Duration::from_millis(20));
        let t0 = std::time::Instant::now();
        drop(driver);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "drop took {:?}, must not wait out the 60 s interval",
            t0.elapsed()
        );
        assert_eq!(mgr.current_epoch(), 1, "no advance fired mid-interval");
    }

    #[test]
    fn per_domain_driver_runs_independent_cadences() {
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        let mgr = EpochManager::with_domains(arena, EpochOptions::durable(), 2);
        // Domain 0 hot (2 ms, eager), domain 1 cold (lazy: skip while
        // clean, so it must never advance — nothing ever pins it).
        let driver = AdvanceDriver::spawn_per_domain(
            mgr.clone(),
            vec![
                Cadence::eager(Duration::from_millis(2)),
                Cadence::lazy(Duration::from_millis(2)),
            ],
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while mgr.current_epoch_of(0) < 4 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(driver);
        assert!(mgr.current_epoch_of(0) >= 4, "hot domain must tick");
        assert_eq!(
            mgr.current_epoch_of(1),
            1,
            "clean lazy domain must be skipped"
        );
    }

    #[test]
    fn lazy_cadence_advances_once_dirty() {
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        let mgr = EpochManager::with_domains(arena, EpochOptions::durable(), 2);
        let driver = AdvanceDriver::spawn_per_domain(
            mgr.clone(),
            vec![
                Cadence::lazy(Duration::from_millis(2)),
                Cadence::lazy(Duration::from_millis(2)),
            ],
        );
        let h = mgr.register();
        drop(h.pin_domain_mut(1)); // dirty domain 1 only
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while mgr.current_epoch_of(1) < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(driver);
        assert!(mgr.current_epoch_of(1) >= 2, "dirty domain must advance");
        assert_eq!(mgr.current_epoch_of(0), 1);
    }

    #[test]
    fn lazy_cadence_ignores_read_pins() {
        // Regression for the read-path contract: read pins
        // (`pin_domain_read`) must not mark a domain dirty, so a pure-scan
        // workload hammering a lazily cadenced domain leaves its
        // checkpoint timer idle.
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        let mgr = EpochManager::with_domains(arena, EpochOptions::durable(), 2);
        let driver = AdvanceDriver::spawn_per_domain(
            mgr.clone(),
            vec![
                Cadence::lazy(Duration::from_millis(1)),
                Cadence::lazy(Duration::from_millis(1)),
            ],
        );
        let h = mgr.register();
        let t0 = std::time::Instant::now();
        while t0.elapsed() < Duration::from_millis(20) {
            drop(h.pin_domain_read(0));
            drop(h.pin_domain_read(1));
        }
        drop(driver);
        assert_eq!(
            mgr.current_epoch_of(0),
            1,
            "read pins must not dirty domain 0"
        );
        assert_eq!(
            mgr.current_epoch_of(1),
            1,
            "read pins must not dirty domain 1"
        );
    }

    #[test]
    fn driver_with_workers() {
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        let mgr = EpochManager::new(arena, EpochOptions::durable());
        let driver = AdvanceDriver::spawn(mgr.clone(), Duration::from_millis(1));
        std::thread::scope(|s| {
            for _ in 0..3 {
                let mgr = mgr.clone();
                s.spawn(move || {
                    let h = mgr.register();
                    for _ in 0..10_000 {
                        let _g = h.pin();
                    }
                });
            }
        });
        drop(driver);
        assert!(mgr.current_epoch() >= 1);
    }

    #[test]
    fn slow_advances_do_not_stretch_the_cadence() {
        // Regression (fixed-rate scheduling): deadlines used to be
        // recomputed from `Instant::now()` *after* the advance completed,
        // so a slow flush/hook stretched every subsequent period
        // (fixed-delay). With a 14 ms boundary hook on a 20 ms cadence,
        // fixed-delay manages at most 1000/34 ≈ 29 advances per second;
        // fixed-rate holds the 20 ms period (the hook fits inside it) and
        // reaches ~50.
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        let mgr = EpochManager::with_domains(arena, EpochOptions::durable(), 1);
        mgr.add_advance_hook_on(
            0,
            Box::new(|_| std::thread::sleep(Duration::from_millis(14))),
        );
        let driver = AdvanceDriver::spawn_per_domain(
            mgr.clone(),
            vec![Cadence::eager(Duration::from_millis(20))],
        );
        std::thread::sleep(Duration::from_millis(1_000));
        drop(driver);
        let advances = mgr.current_epoch_of(0) - 1;
        assert!(
            advances >= 32,
            "{advances} advances in 1 s: the slow hook stretched the \
             cadence (fixed-delay scheduling)"
        );
    }
}
