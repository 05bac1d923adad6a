//! The fixed measurement conditions and the host-side helpers: emulated
//! NVM profile, arena construction, `/proc` readers, the environment
//! record written into every results file.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use incll_pmem::PArena;

use crate::json::Json;

/// Emulated post-`sfence` NVM latency. Non-zero so that a fence costs
/// wall-clock time and a commit-path change can show.
pub const SFENCE_NS: u64 = 200;
/// Whole-cache flush cost on the paper's hardware (§6.2).
pub const WBINVD_NS: u64 = 1_380_000;
/// Emulated streaming-read cost of recovery replay (≈ 1 GiB/s).
pub const REPLAY_READ_NS_PER_KB: u64 = 1000;
/// Untimed warm-up before every timed window.
pub const WARMUP: Duration = Duration::from_secs(1);
/// The largest arena any workload may build: arenas are sized to need.
pub const MAX_ARENA_BYTES: usize = 512 << 20;

/// Driver threads / client connections: one processor fewer than there
/// are, at least 1 and at most 3.
///
/// Every workload runs something beside its drivers — the checkpoint
/// cadence, the server's threads — and a run with more busy threads than
/// processors measures how the scheduler interleaves them: with two
/// drivers and a 16 ms cadence on two processors, `churn`'s 0.5 s slices
/// ranged over ±15 % within one run, and ten runs' throughput spread
/// 17-25 % (9 % with one driver, run in alternation).
pub fn driver_threads() -> usize {
    nproc().saturating_sub(1).clamp(1, 3)
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fast-mode (or crash-tracked) arena under the benchmark's NVM
/// profile. A scoped flush costs one shard's share of the whole-cache
/// flush (the rule `crates/bench/src/systems.rs` uses).
pub fn arena(bytes: usize, shards: usize, tracked: bool) -> PArena {
    assert!(bytes <= MAX_ARENA_BYTES);
    let arena = PArena::builder()
        .capacity_bytes(bytes)
        .tracked(tracked)
        .sfence_latency_ns(SFENCE_NS)
        .wbinvd_latency_ns(WBINVD_NS)
        .build()
        .expect("host memory for the arena");
    arena
        .latency()
        .set_scoped_flush_ns(WBINVD_NS / shards.max(1) as u64);
    arena
        .latency()
        .set_replay_read_ns_per_kb(REPLAY_READ_NS_PER_KB);
    arena
}

fn proc_field(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Live threads of this process.
pub fn thread_count() -> u64 {
    proc_field("/proc/self/status", "Threads:").unwrap_or(0)
}

/// CPU seconds (user + system) the whole process has consumed, threads
/// that already exited included. `/proc/self/stat` counts in 10 ms ticks
/// (`USER_HZ` is 100 on every Linux ABI), fine against multi-second
/// windows.
pub fn cpu_seconds() -> f64 {
    stat_cpu_seconds("/proc/self/stat")
}

/// CPU seconds the calling thread has consumed.
pub fn thread_cpu_seconds() -> f64 {
    stat_cpu_seconds("/proc/thread-self/stat")
}

fn stat_cpu_seconds(file: &str) -> f64 {
    let stat = std::fs::read_to_string(file).unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    // rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    let ticks = |i: usize| f.get(i).and_then(|t| t.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// A thread that does nothing but yield, so that one processor never
/// goes idle while it lives.
///
/// This sandbox is a virtual machine whose idle processors halt, and
/// waking a halted one costs either ~10 µs or ~50 µs depending on the
/// host's adaptive halt-polling — a state that lasts for seconds to whole
/// runs. An open-loop request at 10 k QPS crosses four thread hand-offs,
/// each a wake-up of a mostly idle processor, so its median latency read
/// 83 µs in one run and 207 µs in the next (README, "Fixed conditions").
/// With one processor kept awake the two states are 1.4x apart, not 2.5x;
/// a thread per processor was worse than one. Every runnable thread goes
/// first (`yield_now`), and the thread's own CPU time is returned so the
/// caller can leave it out of `cpu_us_per_op`.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<f64>,
}

impl KeepAwake {
    /// Starts the thread.
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            // Relaxed: the flag publishes nothing but itself.
            while !seen.load(Ordering::Relaxed) {
                std::thread::yield_now();
            }
            thread_cpu_seconds()
        });
        KeepAwake { stop, thread }
    }

    /// Stops the thread and returns the CPU seconds it consumed.
    pub fn stop(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("keep-awake thread panicked")
    }
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and on what a results file was measured.
pub fn environment(seed: u64, seconds: u64) -> Json {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    Json::obj([
        ("nproc", Json::from(nproc() as u64)),
        ("driver_threads", Json::from(driver_threads() as u64)),
        ("kernel", Json::from(kernel)),
        ("rustc", Json::from(command_line("rustc", &["-V"]))),
        (
            "commit",
            Json::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("sfence_ns", Json::from(SFENCE_NS)),
        ("wbinvd_ns", Json::from(WBINVD_NS)),
        ("scoped_flush_ns", Json::from("wbinvd_ns / shards")),
        ("replay_read_ns_per_kb", Json::from(REPLAY_READ_NS_PER_KB)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(thread_count() >= 1);
        let before = cpu_seconds();
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(60) {
            std::hint::spin_loop();
        }
        assert!(cpu_seconds() > before);
    }

    #[test]
    fn keep_awake_reports_its_own_cpu_time() {
        let awake = KeepAwake::start();
        std::thread::sleep(Duration::from_millis(80));
        let cpu = awake.stop();
        assert!(cpu > 0.0 && cpu < 1.0, "{cpu}");
    }
}
