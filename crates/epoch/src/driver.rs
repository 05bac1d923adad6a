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

/// A checkpoint cadence: the fixed interval between epoch boundaries,
/// the paper's unconditional epoch clock ([`crate::DEFAULT_EPOCH_INTERVAL`]).
/// Build one with [`Cadence::eager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cadence {
    /// Target time between advances.
    pub interval: Duration,
}

impl Cadence {
    /// A cadence advancing every `interval`.
    pub fn eager(interval: Duration) -> Self {
        Cadence { interval }
    }
}

impl AdvanceDriver {
    /// Spawns a driver advancing every domain of `mgr`, in index order,
    /// every `interval` — one clock for every domain. Each domain's
    /// advance is still its own (it quiesces only that domain's pins and
    /// flushes only its lines), so a tick stalls one shard at a time.
    ///
    /// Scheduling is **fixed-rate**, not fixed-delay: each deadline is
    /// computed from the *previous deadline*, so a slow tick (long
    /// quiesce, big flush, slow boundary hooks) eats into its own period
    /// instead of silently stretching every subsequent one. Only when a
    /// tick overruns its whole period does the schedule re-anchor at
    /// "now" (no catch-up bursts).
    pub fn spawn(mgr: EpochManager, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let thread = std::thread::Builder::new()
            .name("incll-epoch-driver".into())
            .spawn(move || {
                let mut deadline = Instant::now() + interval;
                loop {
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
                    mgr.advance();
                    // Fixed-rate rescheduling: from the deadline that just
                    // fired, re-anchoring only on a whole-period overrun.
                    let next = deadline + interval;
                    let now = Instant::now();
                    deadline = if next > now { next } else { now + interval };
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
        // fixed-delay manages at most 1000/34 ≈ 29 ticks per second;
        // fixed-rate holds the 20 ms period (the hook fits inside it) and
        // reaches ~50. One clock serves every domain: the slow hook on
        // domain 2 delays the others' advances within a tick but never
        // costs any of them a tick.
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        let mgr = EpochManager::with_domains(arena, EpochOptions::durable(), 4);
        mgr.add_advance_hook_on(
            2,
            Box::new(|_| std::thread::sleep(Duration::from_millis(14))),
        );
        let driver = AdvanceDriver::spawn(mgr.clone(), Duration::from_millis(20));
        std::thread::sleep(Duration::from_millis(1_000));
        drop(driver);
        let advances: Vec<u64> = (0..4).map(|d| mgr.advances_fired(d)).collect();
        let (lo, hi) = (
            advances.iter().min().unwrap(),
            advances.iter().max().unwrap(),
        );
        assert!(
            hi - lo <= 1,
            "{advances:?}: every domain ticks on the one clock"
        );
        assert!(
            *lo >= 32,
            "{advances:?} advances in 1 s: the slow hook stretched the \
             cadence (fixed-delay scheduling)"
        );
    }
}
