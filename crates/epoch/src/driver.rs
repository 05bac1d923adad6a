use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::EpochManager;

/// A background thread that advances the epoch on a fixed interval,
/// mirroring the paper's 64 ms checkpoint cadence.
///
/// The driver stops (and joins its thread) on [`AdvanceDriver::stop`] or
/// drop. Stopping is prompt regardless of the interval: the thread waits
/// in `park_timeout` slices and is unparked by `stop`, so a driver on a
/// multi-second cadence still joins in microseconds.
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
/// driver.stop();
/// assert!(mgr.current_epoch() > 1);
/// # Ok(())
/// # }
/// ```
pub struct AdvanceDriver {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    /// Per-domain current interval in nanoseconds — the adaptive
    /// controller's observable state.
    intervals: Arc<Vec<AtomicU64>>,
}

/// One domain's **static** cadence in a per-domain driver
/// ([`AdvanceDriver::spawn_per_domain`]). The degenerate (non-adaptive)
/// configs: [`DomainCadence::eager`] and [`DomainCadence::lazy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainCadence {
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

impl DomainCadence {
    /// A cadence advancing every `interval`, skipping clean domains.
    pub fn lazy(interval: Duration) -> Self {
        DomainCadence {
            interval,
            skip_clean: true,
        }
    }

    /// A cadence advancing every `interval` unconditionally.
    pub fn eager(interval: Duration) -> Self {
        DomainCadence {
            interval,
            skip_clean: false,
        }
    }
}

/// An **adaptive** per-domain cadence: the controller samples each
/// domain's write-rate counters ([`EpochManager::domain_counters`]) and
/// moves the interval to follow the measured rate — tightening a hot
/// domain toward [`AdaptiveCadence::min`] (short undo windows where they
/// pay off) and relaxing a cold one toward [`AdaptiveCadence::max`] (no
/// flush work for idle shards).
///
/// The controller is deliberately simple and damped:
///
/// * the write-rate counters are sampled every [`AdaptiveCadence::min`]
///   (the observation tick, decoupled from the advances themselves);
///   each sample is one **observation** of the *predicted window* — the
///   measured byte rate times the current interval: `hot` when above
///   [`AdaptiveCadence::target_dirty_bytes`], `cold` when below half of
///   it, neutral in between (a dead band);
/// * the interval moves only after [`AdaptiveCadence::hysteresis`]
///   *consecutive same-direction* observations — a single bursty or
///   quiet sample never moves the cadence. A move re-targets the
///   interval straight to the measured equilibrium —
///   `target_dirty_bytes / rate`, clamped to `[min, max]` — so a shard
///   whose write rate shifted by orders of magnitude (a hotspot arriving
///   or leaving) converges in one move instead of a ladder of steps;
/// * when the controller tightens, the domain's next advance deadline is
///   pulled forward to at most one new interval away, so a domain that
///   *turns* hot reacts within a few `min` ticks instead of waiting out
///   a relaxed interval already in flight;
/// * adaptive domains always skip clean ticks (the dirty-work heuristic),
///   counting them in [`crate::DomainCounters::advances_skipped`];
/// * the interval starts at the geometric midpoint of `[min, max]`:
///   equidistant (in doublings) from both clamps, so a restarted
///   controller converges to either extreme in half the observations a
///   `min` or `max` start would need in the worst case.
///
/// A dirty domain is therefore never starved: whatever the controller
/// has done, its next deadline is at most `max` away, and a dirty
/// deadline always advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveCadence {
    /// Tightest interval the controller may reach (hot-domain cadence) —
    /// also the controller's sampling period: write rates are observed
    /// every `min` regardless of the current interval.
    pub min: Duration,
    /// Most relaxed interval — also the starvation bound: a dirty domain
    /// waits at most this long for its next advance.
    pub max: Duration,
    /// Bytes of external-log traffic per window the controller steers
    /// toward: above this is a `hot` observation, below half of it `cold`.
    pub target_dirty_bytes: u64,
    /// Consecutive same-direction observations required before the
    /// interval moves one step.
    pub hysteresis: u32,
}

impl Default for AdaptiveCadence {
    /// Paper-anchored defaults: 8 ms–256 ms around the 64 ms epoch,
    /// targeting 256 KiB of log traffic per window, two-observation
    /// damping.
    fn default() -> Self {
        AdaptiveCadence {
            min: crate::DEFAULT_EPOCH_INTERVAL / 8,
            max: crate::DEFAULT_EPOCH_INTERVAL * 4,
            target_dirty_bytes: 256 << 10,
            hysteresis: 2,
        }
    }
}

/// One domain's checkpoint policy for
/// [`AdvanceDriver::spawn_per_domain`]: a fixed [`DomainCadence`] or the
/// measured [`AdaptiveCadence`] controller. Both static forms convert
/// with `From`, so existing `DomainCadence` lists keep working.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cadence {
    /// A fixed interval (optionally skipping clean domains).
    Static(DomainCadence),
    /// The write-rate-following controller.
    Adaptive(AdaptiveCadence),
}

impl Cadence {
    /// Static cadence advancing every `interval`, skipping clean domains.
    pub fn lazy(interval: Duration) -> Self {
        Cadence::Static(DomainCadence::lazy(interval))
    }

    /// Static cadence advancing every `interval` unconditionally.
    pub fn eager(interval: Duration) -> Self {
        Cadence::Static(DomainCadence::eager(interval))
    }

    /// The adaptive controller with the given bounds.
    pub fn adaptive(cfg: AdaptiveCadence) -> Self {
        Cadence::Adaptive(cfg)
    }

    /// The interval this policy starts at: the configured interval for
    /// statics, the geometric midpoint of `[min, max]` for the adaptive
    /// controller (equally many doublings from either clamp, so a fresh
    /// controller — e.g. right after recovery — reaches any equilibrium
    /// in the fewest worst-case observations).
    fn initial_interval(&self) -> Duration {
        match self {
            Cadence::Static(c) => c.interval,
            Cadence::Adaptive(a) => {
                let mid = (a.min.as_nanos() as f64 * a.max.as_nanos() as f64).sqrt();
                Duration::from_nanos(mid as u64).clamp(a.min, a.max)
            }
        }
    }
}

impl From<DomainCadence> for Cadence {
    fn from(c: DomainCadence) -> Self {
        Cadence::Static(c)
    }
}

impl From<AdaptiveCadence> for Cadence {
    fn from(a: AdaptiveCadence) -> Self {
        Cadence::Adaptive(a)
    }
}

/// Per-domain controller state inside the driver thread.
struct DomainCtl {
    cadence: Cadence,
    interval: Duration,
    skip_clean: bool,
    /// Signed run of same-direction observations: positive = consecutive
    /// hot samples, negative = consecutive cold ones.
    streak: i64,
    /// `bytes_logged` at the last observation (rate differencing).
    last_bytes: u64,
    /// When the last observation was taken (rate denominator).
    last_obs: Instant,
}

impl AdvanceDriver {
    /// Spawns a driver advancing every domain of `mgr` (in index order)
    /// every `interval` — the single global cadence. For independent
    /// per-domain cadences see [`AdvanceDriver::spawn_per_domain`].
    pub fn spawn(mgr: EpochManager, interval: Duration) -> Self {
        let cadences = vec![DomainCadence::eager(interval); mgr.domains()];
        Self::spawn_per_domain(mgr, cadences)
    }

    /// Spawns a driver scheduling each domain on its **own** policy: a
    /// hot shard can checkpoint every few milliseconds while cold shards
    /// tick lazily (or, with [`DomainCadence::lazy`] /
    /// [`Cadence::Adaptive`], not at all while idle). One background
    /// thread serves every domain, always advancing the earliest-deadline
    /// domain next.
    ///
    /// Scheduling is **fixed-rate**, not fixed-delay: each domain's next
    /// deadline is computed from its *previous deadline*, so a slow
    /// advance (long quiesce, big flush, slow boundary hooks) eats into
    /// its own period instead of silently stretching every subsequent
    /// one. Only when an advance overruns its whole period does the
    /// schedule re-anchor at "now" (no catch-up bursts).
    ///
    /// Accepts any mix of policies via `Into<Cadence>`; a plain
    /// `Vec<DomainCadence>` keeps the pre-adaptive behavior.
    ///
    /// # Panics
    ///
    /// Panics if `cadences.len() != mgr.domains()`, or if an adaptive
    /// entry is malformed (`min` zero, `min > max`, or zero
    /// `hysteresis`).
    pub fn spawn_per_domain<C: Into<Cadence>>(mgr: EpochManager, cadences: Vec<C>) -> Self {
        let cadences: Vec<Cadence> = cadences.into_iter().map(Into::into).collect();
        assert_eq!(
            cadences.len(),
            mgr.domains(),
            "one cadence per epoch domain"
        );
        for c in &cadences {
            if let Cadence::Adaptive(a) = c {
                assert!(!a.min.is_zero(), "adaptive min interval must be nonzero");
                assert!(a.min <= a.max, "adaptive min must not exceed max");
                assert!(a.hysteresis >= 1, "hysteresis must be at least 1");
            }
        }
        let intervals: Arc<Vec<AtomicU64>> = Arc::new(
            cadences
                .iter()
                .map(|c| AtomicU64::new(c.initial_interval().as_nanos() as u64))
                .collect(),
        );
        let intervals2 = intervals.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let thread = std::thread::Builder::new()
            .name("incll-epoch-driver".into())
            .spawn(move || {
                let now = Instant::now();
                let mut ctls: Vec<DomainCtl> = cadences
                    .iter()
                    .map(|&cadence| DomainCtl {
                        cadence,
                        interval: cadence.initial_interval(),
                        // Adaptive domains always use the dirty-work
                        // heuristic: a clean tick has nothing to flush.
                        skip_clean: match cadence {
                            Cadence::Static(c) => c.skip_clean,
                            Cadence::Adaptive(_) => true,
                        },
                        streak: 0,
                        last_bytes: 0,
                        last_obs: now,
                    })
                    .collect();
                let mut deadlines: Vec<Instant> = ctls.iter().map(|c| now + c.interval).collect();
                // Adaptive domains also take a write-rate **observation**
                // every `min`, independent of their advances, so a domain
                // that turns hot is noticed within O(min) rather than at
                // the end of a relaxed interval already in flight. Static
                // domains never observe: `None`, skipped by the selection
                // loop (a time-based sentinel would eventually become the
                // permanently-earliest deadline and livelock the driver).
                let mut observe_at: Vec<Option<Instant>> = cadences
                    .iter()
                    .map(|c| match c {
                        Cadence::Adaptive(a) => Some(now + a.min),
                        Cadence::Static(_) => None,
                    })
                    .collect();
                loop {
                    // Next event: the earliest advance or observation
                    // deadline across every domain.
                    let mut d = 0usize;
                    let mut deadline = deadlines[0];
                    let mut observation = false;
                    for (i, &t) in deadlines.iter().enumerate() {
                        if t < deadline {
                            (d, deadline, observation) = (i, t, false);
                        }
                    }
                    for (i, &t) in observe_at.iter().enumerate() {
                        if let Some(t) = t {
                            if t < deadline {
                                (d, deadline, observation) = (i, t, true);
                            }
                        }
                    }
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
                    let ctl = &mut ctls[d];
                    if observation {
                        if let Cadence::Adaptive(a) = ctl.cadence {
                            let now = Instant::now();
                            // One observation: the predicted window — the
                            // byte rate since the last sample, scaled to
                            // the current interval. Equal to the plain
                            // per-window byte count at steady state, but
                            // available every `min` tick.
                            let bytes = mgr.domain_counters(d).bytes_logged;
                            let delta = bytes.saturating_sub(ctl.last_bytes);
                            ctl.last_bytes = bytes;
                            let elapsed = now
                                .saturating_duration_since(ctl.last_obs)
                                .max(Duration::from_micros(100));
                            ctl.last_obs = now;
                            let predicted = delta as f64 * ctl.interval.as_nanos() as f64
                                / elapsed.as_nanos() as f64;
                            let dir: i64 = if predicted > a.target_dirty_bytes as f64 {
                                1 // hot: tighten
                            } else if predicted < a.target_dirty_bytes as f64 / 2.0 {
                                -1 // cold: relax
                            } else {
                                0 // dead band: hold
                            };
                            ctl.streak = if dir == 0 || ctl.streak.signum() != dir {
                                dir
                            } else {
                                ctl.streak + dir
                            };
                            if ctl.streak.unsigned_abs() >= u64::from(a.hysteresis) {
                                let tighten = ctl.streak > 0;
                                // Re-target to the measured equilibrium:
                                // the interval whose window would hold
                                // `target_dirty_bytes` at the current
                                // rate. Gated by direction so a hot
                                // streak only ever tightens (and vice
                                // versa), never overshoots past "hold".
                                let ideal = if delta == 0 {
                                    a.max
                                } else {
                                    Duration::from_nanos(
                                        (a.target_dirty_bytes as f64 * elapsed.as_nanos() as f64
                                            / delta as f64)
                                            as u64,
                                    )
                                };
                                ctl.interval = if tighten {
                                    ideal.clamp(a.min, ctl.interval)
                                } else {
                                    ideal.clamp(ctl.interval, a.max)
                                };
                                ctl.streak = 0;
                                intervals2[d]
                                    .store(ctl.interval.as_nanos() as u64, Ordering::Relaxed);
                                if tighten {
                                    // React now: the pending deadline was
                                    // scheduled under the old, longer
                                    // interval.
                                    deadlines[d] = deadlines[d].min(now + ctl.interval);
                                }
                            }
                            let next = deadline + a.min;
                            observe_at[d] = Some(if next > now { next } else { now + a.min });
                        }
                    } else {
                        if !ctl.skip_clean || mgr.domain_dirty(d) {
                            mgr.advance_domain(d);
                        } else {
                            mgr.note_advance_skipped(d);
                        }
                        // Fixed-rate rescheduling: from the deadline that
                        // just fired, re-anchoring only on a whole-period
                        // overrun.
                        let next = deadline + ctl.interval;
                        let now = Instant::now();
                        deadlines[d] = if next > now { next } else { now + ctl.interval };
                    }
                }
            })
            .expect("spawn epoch driver");
        AdvanceDriver {
            stop,
            thread: Some(thread),
            intervals,
        }
    }

    /// Domain `d`'s current checkpoint interval — for static cadences the
    /// configured one, for adaptive domains wherever the controller has
    /// moved it. `None` for an out-of-range `d`.
    pub fn current_interval(&self, d: usize) -> Option<Duration> {
        self.intervals
            .get(d)
            .map(|ns| Duration::from_nanos(ns.load(Ordering::Relaxed)))
    }

    /// Stops the driver and joins its thread (promptly, even mid-interval).
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Permanently stops the driver **without joining** its thread: the
    /// stop flag is raised and the thread unparked, so no advance fires
    /// after the in-flight one (if any) completes. Callable through a
    /// shared handle, unlike [`AdvanceDriver::stop`], which consumes the
    /// driver. The use case is a controlled-teardown harness: freeze the
    /// cadence *before* quiescing writers, so a backlogged driver can't
    /// spend the sudden idle time on one last catch-up advance and erase
    /// the undo tail the harness is about to measure. The thread is
    /// joined by `stop` or drop as usual.
    pub fn halt(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = &self.thread {
            t.thread().unpark();
        }
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

impl Drop for AdvanceDriver {
    fn drop(&mut self) {
        self.shutdown();
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
        driver.stop();
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
        driver.stop();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "stop took {:?}, must not wait out the 60 s interval",
            t0.elapsed()
        );
        assert_eq!(mgr.current_epoch(), 1, "no advance fired mid-interval");
    }

    #[test]
    fn drop_is_prompt_even_with_a_long_interval() {
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        let mgr = EpochManager::new(arena, EpochOptions::transient());
        let t0 = std::time::Instant::now();
        {
            let _driver = AdvanceDriver::spawn(mgr, Duration::from_secs(60));
        }
        assert!(t0.elapsed() < Duration::from_secs(5));
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
                DomainCadence::eager(Duration::from_millis(2)),
                DomainCadence::lazy(Duration::from_millis(2)),
            ],
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while mgr.current_epoch_of(0) < 4 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        driver.stop();
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
                DomainCadence::lazy(Duration::from_millis(2)),
                DomainCadence::lazy(Duration::from_millis(2)),
            ],
        );
        let h = mgr.register();
        drop(h.pin_domain_mut(1)); // dirty domain 1 only
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while mgr.current_epoch_of(1) < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        driver.stop();
        assert!(mgr.current_epoch_of(1) >= 2, "dirty domain must advance");
        assert_eq!(mgr.current_epoch_of(0), 1);
    }

    #[test]
    fn lazy_cadence_ignores_read_pins() {
        // Regression for the read-path contract: read-only pins (both the
        // generic `pin_domain` and the explicit `pin_domain_read`) must
        // not mark a domain dirty, so a pure-scan workload hammering a
        // lazily cadenced domain leaves its checkpoint timer idle.
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        let mgr = EpochManager::with_domains(arena, EpochOptions::durable(), 2);
        let driver = AdvanceDriver::spawn_per_domain(
            mgr.clone(),
            vec![
                DomainCadence::lazy(Duration::from_millis(1)),
                DomainCadence::lazy(Duration::from_millis(1)),
            ],
        );
        let h = mgr.register();
        let t0 = std::time::Instant::now();
        while t0.elapsed() < Duration::from_millis(20) {
            drop(h.pin_domain(0));
            drop(h.pin_domain_read(0));
            drop(h.pin_domain_read(1));
        }
        driver.stop();
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
        driver.stop();
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
            vec![DomainCadence::eager(Duration::from_millis(20))],
        );
        std::thread::sleep(Duration::from_millis(1_000));
        driver.stop();
        let advances = mgr.current_epoch_of(0) - 1;
        assert!(
            advances >= 32,
            "{advances} advances in 1 s: the slow hook stretched the \
             cadence (fixed-delay scheduling)"
        );
    }

    #[test]
    fn adaptive_cadence_tightens_hot_and_relaxes_cold() {
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        let mgr = EpochManager::with_domains(arena, EpochOptions::durable(), 2);
        let cfg = AdaptiveCadence {
            min: Duration::from_millis(2),
            max: Duration::from_millis(64),
            target_dirty_bytes: 1024,
            hysteresis: 2,
        };
        let driver = AdvanceDriver::spawn_per_domain(mgr.clone(), vec![cfg; 2]);
        let start = driver.current_interval(0).unwrap();
        assert!(
            start > cfg.min && start < cfg.max,
            "starts between the clamps (geometric midpoint), got {start:?}"
        );
        assert_eq!(driver.current_interval(2), None, "out of range");

        // Domain 0 hot: a writer keeps it dirty and logs far past the
        // target every window. Domain 1 stays untouched.
        let stop = AtomicBool::new(false);
        let hot_live = std::thread::scope(|s| {
            let mgr2 = mgr.clone();
            let stop = &stop;
            s.spawn(move || {
                let h = mgr2.register();
                while !stop.load(Ordering::Relaxed) {
                    drop(h.pin_domain_mut(0));
                    mgr2.note_logged_bytes(0, 4096);
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            let deadline = Instant::now() + Duration::from_secs(5);
            while (driver.current_interval(1) != Some(cfg.max)
                || driver.current_interval(0) != Some(cfg.min)
                || mgr.current_epoch_of(0) < 4
                || mgr.domain_counters(1).advances_skipped == 0)
                && Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(5));
            }
            // Sample the hot interval while the writer is still running:
            // the moment it stops, domain 0 turns idle and the controller
            // (correctly) starts relaxing it.
            let hot_live = driver.current_interval(0);
            stop.store(true, Ordering::Relaxed);
            hot_live
        });
        assert_eq!(
            driver.current_interval(1),
            Some(cfg.max),
            "cold domain must relax to max"
        );
        assert_eq!(hot_live, Some(cfg.min), "hot domain must hold min");
        driver.stop();
        assert!(
            mgr.current_epoch_of(0) >= 4,
            "hot domain must have checkpointed repeatedly"
        );
        assert_eq!(
            mgr.current_epoch_of(1),
            1,
            "clean adaptive domain is skipped, never advanced"
        );
        assert!(
            mgr.domain_counters(1).advances_skipped > 0,
            "skipped ticks must be counted"
        );
        assert_eq!(mgr.domain_counters(1).advances_fired, 0);
    }

    #[test]
    fn adaptive_relaxation_never_starves_a_dirty_domain() {
        // Starvation guard: skip_clean + adaptive relaxation must never
        // leave a dirty domain un-advanced past `max`. Pause the writer
        // until the controller has fully relaxed, then resume it: the
        // dirty domain must advance within a small multiple of `max`,
        // and the interval must never exceed `max`.
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        let mgr = EpochManager::with_domains(arena, EpochOptions::durable(), 1);
        let cfg = AdaptiveCadence {
            min: Duration::from_millis(5),
            max: Duration::from_millis(50),
            target_dirty_bytes: 1 << 20,
            hysteresis: 1,
        };
        let driver = AdvanceDriver::spawn_per_domain(mgr.clone(), vec![cfg]);

        // Paused writer: every window is cold, so the controller relaxes.
        let deadline = Instant::now() + Duration::from_secs(5);
        while driver.current_interval(0) != Some(cfg.max) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(driver.current_interval(0), Some(cfg.max));
        // Fully relaxed and still idle: the clamp must hold at max.
        std::thread::sleep(3 * cfg.max);
        assert_eq!(
            driver.current_interval(0),
            Some(cfg.max),
            "relaxation must clamp at max"
        );
        assert_eq!(mgr.current_epoch_of(0), 1, "idle domain never advanced");

        // Resumed writer: one dirty stamp must be checkpointed within the
        // starvation bound (max, plus generous scheduler slack).
        let h = mgr.register();
        drop(h.pin_domain_mut(0));
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs(5);
        while mgr.current_epoch_of(0) < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let waited = t0.elapsed();
        assert!(
            mgr.current_epoch_of(0) >= 2,
            "dirty domain must advance after the writer resumes"
        );
        assert!(
            waited <= 10 * cfg.max,
            "dirty domain waited {waited:?}, far past the {:?} bound",
            cfg.max
        );
        assert!(
            driver.current_interval(0).unwrap() <= cfg.max,
            "interval may never exceed max"
        );
        driver.stop();
    }

    #[test]
    fn cadence_conversions_and_constructors_agree() {
        let iv = Duration::from_millis(7);
        assert_eq!(Cadence::lazy(iv), Cadence::from(DomainCadence::lazy(iv)));
        assert_eq!(Cadence::eager(iv), Cadence::from(DomainCadence::eager(iv)));
        let a = AdaptiveCadence::default();
        assert_eq!(Cadence::adaptive(a), Cadence::from(a));
        assert!(a.min <= a.max);
        assert!(a.hysteresis >= 1);
        let start = Cadence::Adaptive(a).initial_interval();
        assert!(start >= a.min && start <= a.max, "start within clamps");
        assert_eq!(Cadence::lazy(iv).initial_interval(), iv);
    }
}
