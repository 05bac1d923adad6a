//! What every workload shares: how its store is sized, opened, preloaded
//! and — after the measured window — restarted and verified. Only the
//! `incll::Store` facade is used.

use std::time::{Duration, Instant};

use incll::{Options, RecoveryReport, Store};
use incll_epoch::Cadence;
use incll_pmem::PArena;

use crate::gen::{Keyspace, KEY_BYTES};
use crate::hist::Hist;
use crate::sys;
use crate::verify::{verify_iter, Checks};

/// The shape of one workload's store.
#[derive(Debug, Clone)]
pub struct StoreSpec {
    /// Keyspace shards (1 = the paper's system).
    pub shards: usize,
    /// Background checkpoint cadence, eager, in milliseconds.
    pub cadence_ms: Option<u64>,
    /// Keys preloaded before the window.
    pub nkeys: u64,
    /// Bytes per value.
    pub value_len: usize,
    /// Session slots: the driver threads or server workers, plus the
    /// set-up/verification session.
    pub sessions: usize,
    /// External-log bytes per session slot.
    pub log_bytes_per_thread: usize,
    /// Arena capacity, sized to the workload's need.
    pub arena_bytes: usize,
}

impl StoreSpec {
    /// The `Options` this spec opens its store with (the same on every
    /// reopen).
    pub fn options(&self) -> Options {
        let opts = Options::new()
            .threads(self.sessions)
            .shards(self.shards)
            .log_bytes_per_thread(self.log_bytes_per_thread)
            .recovery_threads(sys::driver_threads());
        match self.cadence_ms {
            Some(ms) => opts.cadence(Cadence::eager(Duration::from_millis(ms))),
            None => opts,
        }
    }

    /// User bytes (keys + values) of `keys` live keys.
    pub fn user_bytes(&self, keys: u64) -> u64 {
        keys * (KEY_BYTES + self.value_len) as u64
    }
}

/// A freshly built and preloaded system.
pub struct Loaded {
    /// The arena (counters, latency profile; survives the store).
    pub arena: PArena,
    /// The store.
    pub store: Store,
    /// Arena bytes claimed after preload over live user bytes.
    pub space_amp: f64,
    /// Seconds the build took: arena, `Store::open`, preload, checkpoint.
    pub setup_s: f64,
}

/// Arena bytes the store has claimed: the carve frontier on `shards(1)`,
/// the pool base plus every owned extent otherwise.
pub fn claimed_bytes(arena: &PArena, store: &Store) -> u64 {
    match store.extent_stats() {
        Some(x) => x.pool_base + x.extent_bytes * x.owned_per_shard.iter().sum::<usize>() as u64,
        None => arena.bump(),
    }
}

/// Builds the arena, opens the store and preloads `preload_idx(0..nkeys)`
/// from one thread (so the layout is a function of the seed alone), then
/// checkpoints.
pub fn build(spec: &StoreSpec, ks: &Keyspace, preload_idx: &dyn Fn(u64) -> u64) -> Loaded {
    let t0 = Instant::now();
    let arena = sys::arena(spec.arena_bytes, spec.shards, false);
    let (store, report) = Store::open(&arena, spec.options()).expect("arena sized for the spec");
    assert!(report.created);
    {
        let sess = store.session().expect("set-up session");
        let mut val = vec![0u8; spec.value_len];
        for i in 0..spec.nkeys {
            let key = ks.key(preload_idx(i));
            Keyspace::fill_value(&key, 0, &mut val);
            store.put(&sess, &key, &val).expect("preload put");
        }
        store.checkpoint();
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let space_amp = claimed_bytes(&arena, &store) as f64 / spec.user_bytes(spec.nkeys) as f64;
    Loaded {
        arena,
        store,
        space_amp,
        setup_s,
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// `setup_s`: the median of `first` — the set-up the run measured on —
/// and [`SETUPS`]` - 1` more, each built, timed and dropped by `again`.
///
/// The further set-ups come **last**, once the caller has dropped its own
/// system, so peak memory stays one arena and, above all, nothing large
/// is freed just before the window: this VM hands freed pages back to its
/// host in the background, and with three set-ups ahead of the window 8
/// runs in 20 of `net_open` met a 12-66 ms stall (1 in 14 with one).
pub fn median_setup_s(first: f64, mut again: impl FnMut() -> f64) -> f64 {
    let mut times = vec![first];
    times.extend((1..SETUPS).map(|_| again()));
    median(&mut times)
}

/// Median of `v` (sorted in place); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// What restarting a workload's store cost, and what recovery reported.
pub struct Restarted {
    /// The reopened store.
    pub store: Store,
    /// Median `Store::open` time over the reopens, ms.
    pub restart_ms: f64,
    /// First full read pass after the last reopen, ms.
    pub first_pass_ms: f64,
    /// The last reopen's report.
    pub report: RecoveryReport,
    /// Nodes recovered lazily since the restart began.
    pub lazy_nodes: u64,
    /// When each reopen started and ended.
    pub opens: Vec<(Instant, Instant)>,
}

/// Reopens per [`restart`].
pub const REOPENS: usize = 5;
/// Equal chunks each thread's share of a read pass is timed in.
pub const PASS_CHUNKS: usize = 16;
/// Updates in the doomed burst before a [`restart`].
pub const DOOMED: u64 = 100_000;
/// The version every doomed update carries; no workload writes it, so a
/// value holding it after a restart is a write that outlived its epoch.
pub const DOOMED_VERSION: u32 = u32::MAX;

/// Restarts a workload's store the hard way and verifies what comes back.
///
/// Halts the cadence and checkpoints, then overwrites up to [`DOOMED`]
/// live keys (evenly spaced) with [`DOOMED_VERSION`] and drops the store
/// with no checkpoint (the caller
/// has already dropped every other clone and session), so the reopen has
/// an interrupted epoch to roll back. Reopens [`REOPENS`] times (each
/// replays the same log), then makes the first full [`read_pass`] over
/// `live()` — each value validated, none doomed — and a full
/// [`verify_iter`].
pub fn restart<I: Iterator<Item = u64>>(
    arena: &PArena,
    store: Store,
    spec: &StoreSpec,
    ks: &Keyspace,
    live: &dyn Fn() -> I,
    live_count: u64,
    checks: &mut Checks,
) -> Restarted {
    let lazy0 = arena.stats().nodes_lazy_recovered();
    // Freeze the cadence first: a background checkpoint in the middle of
    // the burst would make part of it durable, and rightly so.
    store.halt_cadence();
    store.checkpoint();
    {
        let sess = store.session().expect("burst session");
        let mut val = vec![0u8; spec.value_len];
        // Spread evenly over the live keys, so every chunk of the read
        // pass meets the same share of nodes awaiting lazy recovery.
        let stride = (live_count / DOOMED).max(1) as usize;
        for idx in live().step_by(stride).take(DOOMED as usize) {
            let key = ks.key(idx);
            Keyspace::fill_value(&key, DOOMED_VERSION, &mut val);
            let prev = store.put(&sess, &key, &val);
            checks.check(matches!(prev, Ok(Some(_))), || {
                format!("doomed update of key index {idx}: {prev:?}")
            });
        }
    }
    drop(store);
    // Reopened without a cadence: a background checkpoint's recovery sweep
    // racing the first pass would make that pass's time a matter of timing.
    let quiet = StoreSpec {
        cadence_ms: None,
        ..spec.clone()
    };
    let mut opens = Vec::new();
    let mut last = None;
    for _ in 0..REOPENS {
        drop(last.take());
        let t0 = Instant::now();
        let (store, report) = Store::open(arena, quiet.options()).expect("reopen");
        opens.push((t0, Instant::now()));
        checks.check(!report.created, || "reopen created a fresh store".into());
        last = Some((store, report));
    }
    let (store, report) = last.expect("at least one reopen");
    let keys: Vec<u64> = live().collect();
    let first_pass_ms = read_pass(
        &store,
        ks,
        &keys,
        spec.value_len,
        checks,
        None,
        &|_, version| version != DOOMED_VERSION,
    );
    let lazy_nodes = arena.stats().nodes_lazy_recovered() - lazy0;
    {
        let sess = store.session().expect("verification session");
        verify_iter(&store, &sess, live_count, spec.value_len, checks);
    }
    Restarted {
        store,
        restart_ms: median(
            &mut opens
                .iter()
                .map(|(a, b)| (*b - *a).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        ),
        first_pass_ms,
        report,
        lazy_nodes,
        opens,
    }
}

/// The full read pass: `get_ref` of every key index in `keys`, split over
/// the driver threads, each value validated and its version accepted by
/// `version_ok(index, version)`. Per-read latencies go to `reads` when
/// given.
///
/// Returns the pass's time in ms. Each thread walks its share in
/// [`PASS_CHUNKS`] equal chunks timed one by one; the pass's time is the
/// median chunk's times their number, so a host hiccup in one chunk does
/// not decide the metric.
pub fn read_pass(
    store: &Store,
    ks: &Keyspace,
    keys: &[u64],
    value_len: usize,
    checks: &mut Checks,
    reads: Option<&mut Hist>,
    version_ok: &(dyn Fn(u64, u32) -> bool + Sync),
) -> f64 {
    let threads = sys::driver_threads();
    let share = keys.len().div_ceil(threads).max(1);
    let chunk = share.div_ceil(PASS_CHUNKS).max(1);
    let timed = reads.is_some();
    let lanes: Vec<(Vec<f64>, Checks, Hist)> = std::thread::scope(|s| {
        let handles: Vec<_> = keys
            .chunks(share)
            .map(|part| {
                s.spawn(move || {
                    let sess = store.session().expect("read-pass session");
                    let (mut ms, mut checks, mut hist) = (Vec::new(), Checks::default(), Hist::new());
                    for piece in part.chunks(chunk) {
                        let t0 = Instant::now();
                        let mut prev = t0;
                        for &idx in piece {
                            let key = ks.key(idx);
                            let ok = store
                                .get_ref(&sess, &key)
                                .and_then(|v| Keyspace::check_value(&key, &v, value_len))
                                .is_some_and(|version| version_ok(idx, version));
                            checks.check(ok, || {
                                format!("read pass: key index {idx} missing, wrong, or holding a version it must not")
                            });
                            if timed {
                                let now = Instant::now();
                                hist.record((now - prev).as_nanos() as u64);
                                prev = now;
                            }
                        }
                        if piece.len() == chunk {
                            ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        }
                    }
                    (ms, checks, hist)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("read-pass thread panicked"))
            .collect()
    });
    let mut chunk_ms = Vec::new();
    let mut hist = Hist::new();
    for (ms, c, h) in lanes {
        chunk_ms.extend(ms);
        checks.merge(c);
        hist.merge(&h);
    }
    if let Some(r) = reads {
        r.merge(&hist);
    }
    // One thread's share, at the median chunk's pace.
    median(&mut chunk_ms) * share as f64 / chunk as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(shards: usize) -> StoreSpec {
        StoreSpec {
            shards,
            cadence_ms: Some(8),
            nkeys: 3000,
            value_len: 24,
            sessions: 2,
            log_bytes_per_thread: 1 << 20,
            arena_bytes: 32 << 20,
        }
    }

    #[test]
    fn build_restart_verify_round_trip() {
        for shards in [1, 4] {
            let spec = spec(shards);
            let ks = Keyspace::new(9);
            let l = build(&spec, &ks, &|i| i);
            let mut checks = Checks::default();
            let r = restart(
                &l.arena,
                l.store,
                &spec,
                &ks,
                &|| 0..3000,
                3000,
                &mut checks,
            );
            assert!(checks.correct(), "{checks:?}");
            // 3000 doomed updates, the reopens, 3000 reads, 3000 + 1 iter checks.
            assert_eq!(checks.attempted, 3000 + REOPENS as u64 + 3000 + 3001);
            assert!(r.restart_ms > 0.0 && r.first_pass_ms > 0.0);
            assert!(!r.report.created);
            assert!(
                r.report.replayed_entries > 0,
                "the doomed burst was rolled back"
            );

            // A key the model expects but the store lacks is a failure,
            // and so is a version the caller rules out.
            let mut checks = Checks::default();
            let mut reads = Hist::new();
            let all = |_, _| true;
            read_pass(
                &r.store,
                &ks,
                &[2999, 3000],
                24,
                &mut checks,
                Some(&mut reads),
                &all,
            );
            assert_eq!((checks.attempted, checks.failed), (2, 1));
            assert_eq!(reads.count(), 2);
            let mut checks = Checks::default();
            read_pass(&r.store, &ks, &[5, 6], 24, &mut checks, None, &|idx, _| {
                idx != 5
            });
            assert_eq!(checks.failed, 1);
        }
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
