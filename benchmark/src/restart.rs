//! The `restart` workload: restart time and the durability contract.
//!
//! Each cycle writes a committed round and checkpoints it, then a doomed
//! burst that never sees a checkpoint, drops the store, reopens the
//! arena, and reads every key back: the recovered state must equal the
//! model at the last completed checkpoint. Fast-arena cycles are timed;
//! a few small cycles on a crash-tracked arena end in
//! `PArena::crash_seeded`, so only lines that were persisted survive.

use std::time::{Duration, Instant};

use incll::{Options, Store};
use incll_pmem::PArena;

use crate::gen::{self, Keyspace, Mix, Op, Tape};
use crate::harness::{self, median, StoreSpec};
use crate::hist::Hist;
use crate::json::Json;
use crate::layers;
use crate::report::Outcome;
use crate::sys;
use crate::trace::{self, Span, Tracer, ROOT, SAMPLE_EVERY};
use crate::verify::{verify_iter, Checks};
use crate::window::{self, Unit};

/// The workload's name in `BENCHMARK.json`.
pub const NAME: &str = "restart";

/// Updates per thread in a committed round.
const COMMITTED_PER_THREAD: usize = 20_000;
/// Updates per thread in a doomed burst.
const DOOMED_PER_THREAD: usize = 100_000;
/// Crash-tracked cycles, and their (small) sizes: the tracked arena
/// journals every store, so it is slow by design.
const TRACKED_CYCLES: u64 = 3;
const TRACKED_KEYS: u64 = 20_000;
const TRACKED_COMMITTED: usize = 2_000;
const TRACKED_DOOMED: usize = 5_000;

fn spec(threads: usize) -> StoreSpec {
    StoreSpec {
        shards: 4,
        cadence_ms: None,
        nkeys: 300_000,
        value_len: 8,
        sessions: threads + 1,
        // A doomed burst logs most of the tree's leaves before any
        // checkpoint resets the log.
        log_bytes_per_thread: 32 << 20,
        arena_bytes: 192 << 20,
    }
}

/// What one thread's burst wrote, in order.
struct Burst {
    writes: Vec<(u64, u32)>,
    hist: Hist,
    checks: Checks,
    tracer: Option<Tracer>,
}

/// `n` updates from `tape` (from position `pos`), versions counting up
/// from `version`.
#[allow(clippy::too_many_arguments)]
fn burst(
    store: &Store,
    ks: &Keyspace,
    tape: &Tape,
    pos: usize,
    n: usize,
    version: u32,
    value_len: usize,
    mut tracer: Option<(Tracer, f64)>,
) -> Burst {
    let sess = store.session().expect("burst session");
    let mut out = Burst {
        writes: Vec::with_capacity(n),
        hist: Hist::new(),
        checks: Checks::default(),
        tracer: None,
    };
    let mut val = vec![0u8; value_len];
    let mut prev = Instant::now();
    for i in 0..n {
        let Op::Put(idx) = tape.op(pos + i) else {
            unreachable!("the update tape holds only puts")
        };
        let key = ks.key(idx);
        let v = version + i as u32;
        Keyspace::fill_value(&key, v, &mut val);
        // A sampled update's span brackets the `Store::put` call alone.
        let sampled = tracer.is_some() && (i as u64).is_multiple_of(SAMPLE_EVERY);
        let t0 = sampled.then(Instant::now);
        let ok = matches!(store.put(&sess, &key, &val), Ok(Some(_)));
        let now = Instant::now();
        out.checks
            .check(ok, || format!("update of key index {idx} failed"));
        out.writes.push((idx, v));
        out.hist.record((now - prev).as_nanos() as u64);
        prev = now;
        if let (Some((t, weight)), Some(t0)) = (&mut tracer, t0) {
            t.push(Span {
                name: "core.put",
                start_ns: t.at(t0),
                end_ns: t.at(now),
                parent: ROOT,
                op: (pos + i) as u64,
                weight: *weight,
            });
        }
    }
    out.tracer = tracer.map(|(t, _)| t);
    out
}

/// One round of bursts on `threads` threads. Returns what was written (in
/// per-thread order; threads own disjoint keys).
#[allow(clippy::too_many_arguments)]
fn round(
    store: &Store,
    ks: &Keyspace,
    tapes: &[Tape],
    pos: usize,
    n: usize,
    version: u32,
    value_len: usize,
    hist: &mut Hist,
    checks: &mut Checks,
    tracer: &mut Option<(Tracer, u32)>,
) -> Vec<(u64, u32)> {
    let threads = tapes.len();
    let bursts: Vec<Burst> = std::thread::scope(|s| {
        let handles: Vec<_> = tapes
            .iter()
            .map(|tape| {
                // Concurrent threads share the wall clock.
                let lane = tracer.as_ref().map(|(t, _)| {
                    (
                        Tracer::new(t.origin()),
                        SAMPLE_EVERY as f64 / threads as f64,
                    )
                });
                s.spawn(move || burst(store, ks, tape, pos, n, version, value_len, lane))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("burst thread panicked"))
            .collect()
    });
    let mut writes = Vec::new();
    for b in bursts {
        hist.merge(&b.hist);
        checks.merge(b.checks);
        writes.extend(b.writes);
        if let (Some((t, root)), Some(lane)) = (tracer.as_mut(), b.tracer) {
            t.absorb(lane);
            t.reparent_roots(*root);
        }
    }
    writes
}

/// What the timed cycles measured.
#[derive(Default)]
struct Cycles {
    open_ms: Vec<f64>,
    first_pass_ms: Vec<f64>,
    replay_ms: Vec<f64>,
    max_shard_ms: Vec<f64>,
    lazy_nodes: Vec<f64>,
    replay_entries: Vec<f64>,
    replay_bytes: Vec<f64>,
    batches_redone: Vec<f64>,
    ops: u64,
}

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::new(NAME, seed, seconds, traced);
    let ks = Keyspace::new(seed);
    let threads = sys::driver_threads();
    let spec = spec(threads);
    let tapes: Vec<Tape> = (0..threads)
        .map(|t| {
            gen::tape(
                seed,
                &Mix::UPDATE_OWNED,
                spec.nkeys,
                t,
                threads,
                gen::TAPE_OPS,
            )
        })
        .collect();
    out.extra("tape_hash", Json::from(format!("{:016x}", tapes[0].hash())));
    let loaded = harness::build(&spec, &ks, &|i| i);
    out.checks.passed(spec.nkeys);
    let (arena, mut store) = (loaded.arena, loaded.store);

    let mut model = vec![0u32; spec.nkeys as usize];
    // Each cycle is a slice of its own.
    let mut units: Vec<Unit> = Vec::new();
    let mut cycles = Cycles::default();
    let mut tracer = traced.then(|| {
        let mut t = Tracer::new(Instant::now());
        let root = t.begin("bench.pass", ROOT, 0, 1.0);
        (t, root)
    });
    let budget = Duration::from_secs(seconds);
    let stats0 = arena.stats().snapshot();
    let started = Instant::now();
    let (mut pos, mut version) = (0usize, 1u32);
    while started.elapsed() < budget {
        let op_no = cycles.ops;
        let (cycle_start, cpu0) = (Instant::now(), sys::cpu_seconds());
        let (mut reads, mut writes) = (Hist::new(), Hist::new());
        // Committed round, then the checkpoint that makes it durable.
        let committed = round(
            &store,
            &ks,
            &tapes,
            pos,
            COMMITTED_PER_THREAD,
            version,
            spec.value_len,
            &mut writes,
            &mut out.checks,
            &mut tracer,
        );
        pos += COMMITTED_PER_THREAD;
        version += COMMITTED_PER_THREAD as u32;
        let span = tracer
            .as_mut()
            .map(|(t, root)| t.begin("epoch.checkpoint", *root, op_no, 1.0));
        store.checkpoint();
        if let (Some(id), Some((t, _))) = (span, tracer.as_mut()) {
            t.end(id);
        }
        for (idx, v) in committed {
            model[idx as usize] = v;
        }
        // Doomed burst: no checkpoint follows, so none of it may survive.
        round(
            &store,
            &ks,
            &tapes,
            pos,
            DOOMED_PER_THREAD,
            version,
            spec.value_len,
            &mut writes,
            &mut out.checks,
            &mut tracer,
        );
        pos += DOOMED_PER_THREAD;
        version += DOOMED_PER_THREAD as u32;
        drop(store);

        let lazy0 = arena.stats().nodes_lazy_recovered();
        let span = tracer
            .as_mut()
            .map(|(t, root)| t.begin("core.open", *root, op_no, 1.0));
        let t0 = Instant::now();
        let (reopened, report) = Store::open(&arena, spec.options()).expect("reopen");
        cycles.open_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let (Some(id), Some((t, _))) = (span, tracer.as_mut()) {
            t.end(id);
        }
        store = reopened;
        out.checks
            .check(!report.created, || "reopen created a fresh store".into());

        let span = tracer
            .as_mut()
            .map(|(t, root)| t.begin("core.read_pass", *root, op_no, 1.0));
        cycles.first_pass_ms.push(model_pass(
            &store,
            &ks,
            &model,
            spec.value_len,
            &mut out.checks,
            Some(&mut reads),
        ));
        if let (Some(id), Some((t, _))) = (span, tracer.as_mut()) {
            t.end(id);
        }

        cycles
            .replay_ms
            .push(report.replay_time.as_secs_f64() * 1e3);
        cycles.max_shard_ms.push(
            report
                .per_shard
                .iter()
                .map(|s| s.replay_time.as_secs_f64() * 1e3)
                .fold(0.0, f64::max),
        );
        cycles
            .lazy_nodes
            .push((arena.stats().nodes_lazy_recovered() - lazy0) as f64);
        cycles.replay_entries.push(report.replayed_entries as f64);
        cycles.replay_bytes.push(report.replayed_bytes as f64);
        cycles.batches_redone.push(
            report
                .per_shard
                .iter()
                .map(|s| s.batches_redone)
                .sum::<u64>() as f64,
        );
        cycles.ops += ((COMMITTED_PER_THREAD + DOOMED_PER_THREAD) * threads) as u64 + spec.nkeys;
        units.push(Unit {
            reads,
            writes,
            seconds: cycle_start.elapsed().as_secs_f64(),
            cpu_s: sys::cpu_seconds() - cpu0,
        });
    }
    let wall_s = started.elapsed().as_secs_f64();
    let d = arena.stats().snapshot().delta(&stats0);
    let writes_total: u64 = units.iter().map(|u| u.writes.count()).sum();
    if let Some((t, root)) = &mut tracer {
        t.end(*root);
    }
    // No key may have appeared or vanished either.
    {
        let sess = store.session().expect("verification session");
        verify_iter(&store, &sess, spec.nkeys, spec.value_len, &mut out.checks);
    }
    tracked_cycles(seed, &mut out.checks);

    let n_cycles = cycles.open_ms.len() as u64;
    out.set_n(
        "core.recovery.first_pass_ms",
        median(&mut cycles.first_pass_ms),
        n_cycles,
    );
    if !traced {
        window::report_units(&units, &mut out);
        out.set_n("restart_ms", median(&mut cycles.open_ms), n_cycles);
        out.set("space_amp", loaded.space_amp);
        out.set("peak_rss_mb", sys::peak_rss_mb());
        // The further set-ups, last (see `median_setup_s`).
        drop(store);
        drop(arena);
        let setup_s = harness::median_setup_s(loaded.setup_s, || {
            harness::build(&spec, &ks, &|i| i).setup_s
        });
        out.set("setup_s", setup_s);
        return out;
    }

    layers::count_metrics(
        &mut out,
        &d,
        writes_total,
        wall_s * 1e9,
        arena.latency(),
        spec.user_bytes(writes_total),
    );
    out.set("epoch.checkpoints", n_cycles as f64 * spec.shards as f64);
    out.set_n(
        "core.recovery.open_ms",
        median(&mut cycles.open_ms),
        n_cycles,
    );
    out.set_n(
        "core.recovery.replay_ms",
        median(&mut cycles.replay_ms),
        n_cycles,
    );
    out.set_n(
        "core.recovery.max_shard_ms",
        median(&mut cycles.max_shard_ms),
        n_cycles,
    );
    out.set_n(
        "core.recovery.lazy_nodes",
        median(&mut cycles.lazy_nodes),
        n_cycles,
    );
    out.set_n(
        "core.recovery.batches_redone",
        median(&mut cycles.batches_redone),
        n_cycles,
    );
    out.set_n(
        "extlog.replay_entries",
        median(&mut cycles.replay_entries),
        n_cycles,
    );
    out.set_n(
        "extlog.replay_bytes",
        median(&mut cycles.replay_bytes),
        n_cycles,
    );
    {
        let sess = store.session().expect("probe session");
        layers::probe_metrics(&mut out, &sess, &ks, spec.value_len, &Mix::NET_PUT, 64);
    }
    let Some((tracer, root)) = tracer else {
        unreachable!("a traced run keeps a tracer")
    };
    let (puts, put_ns) = trace::mean_ns(tracer.spans(), "core.put");
    out.set_n("core.put_ns", put_ns, puts);
    layers::checkpoint_metrics(&mut out, tracer.spans());
    layers::finish_trace(&mut out, &tracer, root, 1);
    out
}

/// The first full read pass after a reopen: every key must carry exactly
/// the model's version. Returns the pass's time in ms.
fn model_pass(
    store: &Store,
    ks: &Keyspace,
    model: &[u32],
    value_len: usize,
    checks: &mut Checks,
    reads: Option<&mut Hist>,
) -> f64 {
    let keys: Vec<u64> = (0..model.len() as u64).collect();
    harness::read_pass(
        store,
        ks,
        &keys,
        value_len,
        checks,
        reads,
        &|idx, version| version == model[idx as usize],
    )
}

/// Small cycles on a crash-tracked arena: after the doomed burst the
/// arena loses a seeded choice of its unpersisted lines, and the reopened
/// store must still equal the model at the last checkpoint.
fn tracked_cycles(seed: u64, checks: &mut Checks) {
    let ks = Keyspace::new(seed ^ 0x7472_6163_6b65_6421);
    let threads = sys::driver_threads();
    let spec = StoreSpec {
        nkeys: TRACKED_KEYS,
        log_bytes_per_thread: 4 << 20,
        arena_bytes: 64 << 20,
        ..spec(threads)
    };
    let tapes: Vec<Tape> = (0..threads)
        .map(|t| gen::tape(seed, &Mix::UPDATE_OWNED, spec.nkeys, t, threads, 1 << 16))
        .collect();
    let arena: PArena = sys::arena(spec.arena_bytes, spec.shards, true);
    // Emulated stalls are pointless under the journal's own cost.
    arena.latency().set_sfence_ns(0);
    arena.latency().set_wbinvd_ns(0);
    arena.latency().set_scoped_flush_ns(0);
    let options: Options = spec.options();
    let (mut store, _) = Store::open(&arena, options.clone()).expect("tracked arena sized");
    let mut model = vec![0u32; spec.nkeys as usize];
    {
        let sess = store.session().expect("set-up session");
        let mut val = vec![0u8; spec.value_len];
        for i in 0..spec.nkeys {
            let key = ks.key(i);
            Keyspace::fill_value(&key, 0, &mut val);
            store.put(&sess, &key, &val).expect("preload put");
        }
        store.checkpoint();
    }
    let (mut pos, mut version) = (0usize, 1u32);
    let mut scratch = Hist::new();
    for cycle in 0..TRACKED_CYCLES {
        let committed = round(
            &store,
            &ks,
            &tapes,
            pos,
            TRACKED_COMMITTED,
            version,
            spec.value_len,
            &mut scratch,
            checks,
            &mut None,
        );
        pos += TRACKED_COMMITTED;
        version += TRACKED_COMMITTED as u32;
        store.checkpoint();
        for (idx, v) in committed {
            model[idx as usize] = v;
        }
        round(
            &store,
            &ks,
            &tapes,
            pos,
            TRACKED_DOOMED,
            version,
            spec.value_len,
            &mut scratch,
            checks,
            &mut None,
        );
        pos += TRACKED_DOOMED;
        version += TRACKED_DOOMED as u32;
        drop(store);
        arena.crash_seeded(seed.wrapping_add(cycle));
        let (reopened, report) = Store::open(&arena, options.clone()).expect("reopen after crash");
        store = reopened;
        checks.check(!report.created, || {
            "tracked reopen created a fresh store".into()
        });
        model_pass(&store, &ks, &model, spec.value_len, checks, None);
        let sess = store.session().expect("verification session");
        verify_iter(&store, &sess, spec.nkeys, spec.value_len, checks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracked_crash_cycles_recover_to_the_model() {
        let mut checks = Checks::default();
        tracked_cycles(5, &mut checks);
        assert!(checks.correct(), "{:?}", checks.messages);
        assert!(checks.attempted > TRACKED_CYCLES * TRACKED_KEYS);
    }

    #[test]
    fn a_stale_model_is_caught() {
        let ks = Keyspace::new(1);
        let spec = StoreSpec {
            nkeys: 1000,
            arena_bytes: 32 << 20,
            log_bytes_per_thread: 1 << 20,
            ..spec(1)
        };
        let l = harness::build(&spec, &ks, &|i| i);
        let mut model = vec![0u32; 1000];
        model[17] = 3; // the store never saw version 3
        let mut checks = Checks::default();
        model_pass(&l.store, &ks, &model, 8, &mut checks, None);
        assert_eq!((checks.attempted, checks.failed), (1000, 1));
    }
}
