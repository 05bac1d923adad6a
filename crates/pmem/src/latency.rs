use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Emulated NVM latency configuration.
///
/// The paper evaluates sensitivity to NVM speed by adding an artificial
/// delay *after* `sfence` instructions (`clwb` is asynchronous, so the fence
/// is where a program actually waits for the memory round trip; §6, Figs. 3
/// and 8). The whole-cache flush used at epoch boundaries costs 1.38–1.39 ms
/// on the paper's hardware (§6.2); the same stall can be injected here so
/// the checkpoint-cost experiment reproduces that overhead profile.
///
/// All fields are runtime-tunable atomics so a benchmark can sweep latencies
/// without rebuilding the arena.
#[derive(Debug, Default)]
pub struct LatencyModel {
    /// Delay injected after every [`sfence`](crate::PArena::sfence), in ns.
    sfence_ns: AtomicU64,
    /// Delay injected by every
    /// [`global_flush`](crate::PArena::global_flush), in ns.
    wbinvd_ns: AtomicU64,
    /// Delay injected by every
    /// [`flush_domain`](crate::PArena::flush_domain), in ns.
    scoped_flush_ns: AtomicU64,
    /// Emulated NVM streaming-read time per KiB scanned by recovery
    /// replay, in ns (0 = off).
    replay_read_ns_per_kb: AtomicU64,
}

impl LatencyModel {
    /// Creates a model with no emulated latency.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the post-`sfence` delay in nanoseconds.
    pub fn set_sfence_ns(&self, ns: u64) {
        self.sfence_ns.store(ns, Ordering::Relaxed);
    }

    /// Returns the configured post-`sfence` delay in nanoseconds.
    pub fn sfence_ns(&self) -> u64 {
        self.sfence_ns.load(Ordering::Relaxed)
    }

    /// Sets the whole-cache-flush delay in nanoseconds.
    pub fn set_wbinvd_ns(&self, ns: u64) {
        self.wbinvd_ns.store(ns, Ordering::Relaxed);
    }

    /// Returns the configured whole-cache-flush delay in nanoseconds.
    pub fn wbinvd_ns(&self) -> u64 {
        self.wbinvd_ns.load(Ordering::Relaxed)
    }

    /// Sets the scoped (per-domain) flush delay in nanoseconds. A scoped
    /// flush write-backs one domain's dirty lines instead of the whole
    /// cache, so benchmarks typically configure a fraction of the
    /// `wbinvd` cost here.
    pub fn set_scoped_flush_ns(&self, ns: u64) {
        self.scoped_flush_ns.store(ns, Ordering::Relaxed);
    }

    /// Returns the configured scoped-flush delay in nanoseconds.
    pub fn scoped_flush_ns(&self) -> u64 {
        self.scoped_flush_ns.load(Ordering::Relaxed)
    }

    /// Sets the emulated NVM streaming-read cost of recovery replay, in
    /// nanoseconds per KiB of log scanned (e.g. 1 GiB/s per stream ≈
    /// 1000 ns/KiB). Default 0: off.
    ///
    /// Replay streams megabytes of sealed log per buffer; at that scale a
    /// recovery worker is *waiting on the device*, not on a pipeline
    /// stall, so [`LatencyModel::stall_replay_read`] models the wait as
    /// descheduled time (`thread::sleep`) rather than a spin — which is
    /// also what lets concurrent recovery workers overlap their streams'
    /// device time, the memory-level parallelism that partitioned-log
    /// parallel recovery exploits on real NVM.
    pub fn set_replay_read_ns_per_kb(&self, ns: u64) {
        self.replay_read_ns_per_kb.store(ns, Ordering::Relaxed);
    }

    /// Returns the configured replay streaming-read cost (ns per KiB).
    pub fn replay_read_ns_per_kb(&self) -> u64 {
        self.replay_read_ns_per_kb.load(Ordering::Relaxed)
    }

    /// Emulates the NVM device time of streaming `bytes` of log during
    /// recovery replay (no-op unless
    /// [`LatencyModel::set_replay_read_ns_per_kb`] configured a rate).
    /// Called once per replayed log buffer, so each stall is a single
    /// `thread::sleep` of typically hundreds of microseconds. Timer slop
    /// and wake-up latency are not small against that: the sleep lasts
    /// at least the modelled time and often tens of microseconds more (a
    /// 262 µs stall measured 325 µs asleep on a 2-vCPU host), so a
    /// short replay's modelled device time reads high by about that much.
    pub fn stall_replay_read(&self, bytes: u64) {
        let per_kb = self.replay_read_ns_per_kb();
        if per_kb == 0 || bytes == 0 {
            return;
        }
        let ns = bytes.saturating_mul(per_kb) / 1024;
        if ns > 0 {
            std::thread::sleep(std::time::Duration::from_nanos(ns));
        }
    }
}

/// Busy-waits for approximately `ns` nanoseconds.
///
/// Used to emulate NVM round-trip latency. A spin (rather than a sleep)
/// mirrors how a CPU stalls on `sfence`: the core makes no progress but is
/// not descheduled.
#[inline]
pub fn spin_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let start = Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_zero() {
        let m = LatencyModel::new();
        assert_eq!(m.sfence_ns(), 0);
        assert_eq!(m.wbinvd_ns(), 0);
    }

    #[test]
    fn set_and_get_roundtrip() {
        let m = LatencyModel::new();
        m.set_sfence_ns(500);
        m.set_wbinvd_ns(1_380_000);
        assert_eq!(m.sfence_ns(), 500);
        assert_eq!(m.wbinvd_ns(), 1_380_000);
    }

    #[test]
    fn spin_waits_at_least_requested() {
        let start = Instant::now();
        spin_ns(200_000); // 200 µs
        assert!(start.elapsed().as_nanos() >= 200_000);
    }

    #[test]
    fn spin_zero_returns_immediately() {
        spin_ns(0);
    }
}
