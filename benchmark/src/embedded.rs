//! The four embedded workloads — `ycsb_a`, `ycsb_c`, `scan_e`, `churn` —
//! driven through the `incll::Store` facade: a timed run (T closed-loop
//! threads, background cadence, tracing off) and a traced run (one
//! thread, op-count-driven checkpoints, a counted pass then a spanned
//! pass over the same tape).

use std::time::{Duration, Instant};

use incll::{Session, Store};

use crate::gen::{self, Keyspace, Mix, Op, Tape, TAPE_OPS};
use crate::harness::{self, Loaded, StoreSpec};
use crate::hist::Hist;
use crate::json::Json;
use crate::layers;
use crate::probes;
use crate::report::Outcome;
use crate::sys;
use crate::trace::{self, Span, Tracer, ROOT, SAMPLE_EVERY};
use crate::verify::Checks;
use crate::window::{self, Kind, Slices, SLICE};

/// How the traced run checkpoints: every `every` ops, either the whole
/// store or one shard round-robin. Driven by op count, not a timer, so
/// the counted pass repeats exactly.
#[derive(Debug, Clone, Copy)]
pub struct TraceCheckpoints {
    every: u64,
    per_shard: bool,
}

/// One embedded workload's definition.
pub struct Embedded {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    mix: Mix,
    spec: StoreSpec,
    /// Traced-pass length per second of `--seconds`.
    trace_ops_per_s: u64,
    trace_ckpt: TraceCheckpoints,
}

/// The definition of embedded workload `name`.
pub fn workload(name: &str) -> Option<Embedded> {
    let t = sys::driver_threads();
    let base = StoreSpec {
        shards: 1,
        cadence_ms: Some(64),
        nkeys: 1_000_000,
        value_len: 8,
        sessions: t + 1,
        log_bytes_per_thread: 16 << 20,
        arena_bytes: 192 << 20,
    };
    Some(match name {
        "ycsb_a" => Embedded {
            name: "ycsb_a",
            mix: Mix::YCSB_A,
            spec: base,
            trace_ops_per_s: 250_000,
            // ≈ the 64 ms cadence at one thread's speed.
            trace_ckpt: TraceCheckpoints {
                every: 150_000,
                per_shard: false,
            },
        },
        "ycsb_c" => Embedded {
            name: "ycsb_c",
            mix: Mix::YCSB_C,
            spec: base,
            trace_ops_per_s: 250_000,
            trace_ckpt: TraceCheckpoints {
                every: 150_000,
                per_shard: false,
            },
        },
        "scan_e" => Embedded {
            name: "scan_e",
            mix: Mix::SCAN_E,
            spec: StoreSpec { shards: 4, ..base },
            trace_ops_per_s: 12_500,
            trace_ckpt: TraceCheckpoints {
                every: 4_000,
                per_shard: false,
            },
        },
        "churn" => Embedded {
            name: "churn",
            mix: Mix::CHURN,
            spec: StoreSpec {
                shards: 4,
                cadence_ms: Some(16),
                nkeys: 200_000 / t as u64 * t as u64,
                value_len: 256,
                // Room for the doomed burst's 100 k fresh 256 B buffers
                // on top of the window's own garbage.
                arena_bytes: 256 << 20,
                ..base
            },
            trace_ops_per_s: 125_000,
            trace_ckpt: TraceCheckpoints {
                every: 20_000,
                per_shard: true,
            },
        },
        _ => return None,
    })
}

/// Key indices a thread creates itself live above every preloaded index.
fn own_idx(thread: usize, k: u64) -> u64 {
    1 << 40 | (thread as u64) << 34 | k
}

/// One thread's position in its tape and in the key space it owns.
struct Cursor {
    thread: usize,
    pos: usize,
    /// First own-key number not used yet (scan_e inserts, churn's newest).
    fresh: u64,
    /// Churn: oldest live own-key number.
    oldest: u64,
    version: u32,
    val: Vec<u8>,
    checks: Checks,
    /// Keys returned by scans, for per-key scan cost.
    scanned_keys: u64,
    /// What the scan in progress returned, validated once it is over.
    scan_buf: Vec<(Vec<u8>, Vec<u8>)>,
}

impl Cursor {
    fn new(thread: usize, own_preloaded: u64, value_len: usize) -> Self {
        Cursor {
            thread,
            pos: 0,
            fresh: own_preloaded,
            oldest: 0,
            version: 0,
            val: vec![0; value_len],
            checks: Checks::default(),
            scanned_keys: 0,
            scan_buf: Vec::with_capacity(100),
        }
    }
}

/// When a call into `Store` began and ended.
type CallSpan = (Instant, Instant);

/// Runs `call`; with `SPAN`, reads the clock right before and right after
/// it, so a span covers the `Store` call and none of the harness's own
/// work (tape decode, key scramble, value fill, validation).
#[inline]
fn call<const SPAN: bool, R>(call: impl FnOnce() -> R) -> (R, Option<CallSpan>) {
    if SPAN {
        let t0 = Instant::now();
        let r = call();
        (r, Some((t0, Instant::now())))
    } else {
        (call(), None)
    }
}

/// Executes one operation through the facade, validating what it
/// returns. Gives the histogram it belongs in, its span name and, with
/// `SPAN`, when its `Store` call began and ended.
#[inline]
fn exec<const SPAN: bool>(
    store: &Store,
    sess: &Session,
    ks: &Keyspace,
    op: Op,
    c: &mut Cursor,
) -> (Kind, &'static str, Option<CallSpan>) {
    let vlen = c.val.len();
    let get = |c: &mut Cursor, idx: u64| {
        let key = ks.key(idx);
        let (v, span) = call::<SPAN, _>(|| store.get_ref(sess, &key));
        let ok = v.is_some_and(|v| Keyspace::check_value(&key, &v, vlen).is_some());
        c.checks
            .check(ok, || format!("get_ref: key index {idx} missing or wrong"));
        span
    };
    let put = |c: &mut Cursor, idx: u64, expect_prev: bool| {
        let key = ks.key(idx);
        c.version = c.version.wrapping_add(1);
        Keyspace::fill_value(&key, c.version, &mut c.val);
        let (prev, span) = call::<SPAN, _>(|| store.put(sess, &key, &c.val));
        let ok = matches!(prev, Ok(prev) if prev.is_some() == expect_prev);
        c.checks.check(ok, || {
            format!("put: key index {idx} failed or wrong previous")
        });
        span
    };
    match op {
        Op::Get(idx) => (Kind::Read, "core.get_ref", get(c, idx)),
        Op::GetLive(r) => {
            let idx = own_idx(c.thread, c.oldest + r as u64 % (c.fresh - c.oldest));
            (Kind::Read, "core.get_ref", get(c, idx))
        }
        Op::Put(idx) => (Kind::Write, "core.put", put(c, idx, true)),
        Op::Scan(idx, len) => {
            let start = ks.key(idx);
            let buf = &mut c.scan_buf;
            buf.clear();
            let ((), span) = call::<SPAN, _>(|| {
                buf.extend(store.range(sess, &start[..]..).take(len as usize));
            });
            let ok = buf.first().is_none_or(|(k, _)| k.as_slice() >= &start[..])
                && buf.windows(2).all(|w| w[0].0 < w[1].0)
                && buf
                    .iter()
                    .all(|(k, v)| Keyspace::check_value(k, v, vlen).is_some());
            c.scanned_keys += buf.len() as u64;
            c.checks.check(ok, || {
                format!("range from key index {idx}: order or value wrong")
            });
            (Kind::Read, "core.range", span)
        }
        // A window this small never occurs (it random-walks around 10^5
        // keys), but an insert keeps the operation well-defined if it did.
        Op::RemoveOldest if c.fresh - c.oldest > 1 => {
            let key = ks.key(own_idx(c.thread, c.oldest));
            c.oldest += 1;
            let (ok, span) = call::<SPAN, _>(|| store.remove(sess, &key));
            c.checks
                .check(ok, || "remove: oldest key was absent".to_string());
            (Kind::Write, "core.remove", span)
        }
        Op::InsertNew | Op::RemoveOldest => {
            let idx = own_idx(c.thread, c.fresh);
            c.fresh += 1;
            (Kind::Write, "core.put", put(c, idx, false))
        }
    }
}

type LiveKeys<'a> = Box<dyn Iterator<Item = u64> + 'a>;

/// What one thread brings back from the timed window.
struct Lane {
    cursor: Cursor,
    window: window::Lane,
}

impl Embedded {
    fn preload_idx(&self) -> impl Fn(u64) -> u64 {
        let churn = self.mix.remove > 0;
        let t = sys::driver_threads() as u64;
        move |i| {
            if churn {
                own_idx((i % t) as usize, i / t)
            } else {
                i
            }
        }
    }

    /// Own keys each thread starts with (churn's preloaded window).
    fn own_preloaded(&self) -> u64 {
        if self.mix.remove > 0 {
            self.spec.nkeys / sys::driver_threads() as u64
        } else {
            0
        }
    }

    fn tapes(&self, seed: u64, threads: usize) -> Vec<Tape> {
        (0..threads)
            .map(|t| gen::tape(seed, &self.mix, self.spec.nkeys, t, threads, TAPE_OPS))
            .collect()
    }

    /// Every live key index after the cursors' work, and how many.
    fn live<'a>(&self, cursors: &'a [Cursor]) -> (impl Fn() -> LiveKeys<'a>, u64) {
        let base = if self.mix.remove > 0 {
            0
        } else {
            self.spec.nkeys
        };
        let count = base + cursors.iter().map(|c| c.fresh - c.oldest).sum::<u64>();
        let live = move || -> LiveKeys<'a> {
            let own = cursors
                .iter()
                .flat_map(|c| (c.oldest..c.fresh).map(move |k| own_idx(c.thread, k)));
            Box::new((0..base).chain(own))
        };
        (live, count)
    }

    /// The timed run: end-to-end metrics, tracing off.
    pub fn run_timed(&self, seed: u64, seconds: u64) -> Outcome {
        let mut out = Outcome::new(self.name, seed, seconds, false);
        let ks = Keyspace::new(seed);
        let threads = sys::driver_threads();
        let tapes = self.tapes(seed, threads);
        out.extra("tape_hash", Json::from(format!("{:016x}", tapes[0].hash())));
        let Loaded {
            arena,
            store,
            space_amp,
            setup_s,
        } = harness::build(&self.spec, &ks, &self.preload_idx());
        out.checks.passed(self.spec.nkeys);

        let cursors = (0..threads)
            .map(|t| Cursor::new(t, self.own_preloaded(), self.spec.value_len))
            .collect();
        let slices = (Duration::from_secs(seconds).as_nanos() / SLICE.as_nanos()) as usize;
        let (mut cursors, measured) = drive(&store, &ks, &tapes, cursors, sys::WARMUP, slices);
        // A read-only window has no writes of its own, and the result line
        // wants every metric from every workload: its write latencies come
        // from a short coda of updates drawn like the window's reads.
        let coda = if measured.total(Kind::Write).count() > 0 {
            None
        } else {
            let mix = Mix {
                get: 0,
                put: 100,
                ..self.mix
            };
            let tapes: Vec<Tape> = (0..threads)
                .map(|t| gen::tape(seed, &mix, self.spec.nkeys, t, threads, TAPE_OPS))
                .collect();
            cursors.iter_mut().for_each(|c| c.pos = 0);
            let (after, coda) = drive(&store, &ks, &tapes, cursors, CODA_WARMUP, CODA_SLICES);
            cursors = after;
            Some(coda)
        };
        for c in &mut cursors {
            out.checks.merge(std::mem::take(&mut c.checks));
        }

        let (live, live_count) = self.live(&cursors);
        let restarted = harness::restart(
            &arena,
            store,
            &self.spec,
            &ks,
            &live,
            live_count,
            &mut out.checks,
        );

        measured.report_rates(&mut out);
        measured.report_latency(&mut out, Kind::Read);
        coda.as_ref()
            .unwrap_or(&measured)
            .report_latency(&mut out, Kind::Write);
        out.set_n("restart_ms", restarted.restart_ms, harness::REOPENS as u64);
        out.set_n(
            "core.recovery.first_pass_ms",
            restarted.first_pass_ms,
            harness::PASS_CHUNKS as u64,
        );
        out.set("space_amp", space_amp);
        out.set("peak_rss_mb", sys::peak_rss_mb());

        // The further set-ups, last (see `median_setup_s`).
        drop(restarted);
        drop(arena);
        let setup_s = harness::median_setup_s(setup_s, || {
            harness::build(&self.spec, &ks, &self.preload_idx()).setup_s
        });
        out.set("setup_s", setup_s);
        out
    }

    /// The traced run: per-layer metrics from exact counts, spans and
    /// probes.
    pub fn run_traced(&self, seed: u64, seconds: u64) -> Outcome {
        let mut out = Outcome::new(self.name, seed, seconds, true);
        let ks = Keyspace::new(seed);
        let tape = gen::tape(
            seed,
            &self.mix,
            self.spec.nkeys,
            0,
            sys::driver_threads(),
            TAPE_OPS,
        );
        out.extra("tape_hash", Json::from(format!("{:016x}", tape.hash())));
        // No background driver: checkpoints come from the op count alone.
        let spec = StoreSpec {
            cadence_ms: None,
            ..self.spec.clone()
        };
        let Loaded { arena, store, .. } = harness::build(&spec, &ks, &self.preload_idx());
        out.checks.passed(spec.nkeys);
        let n_ops = self.trace_ops_per_s * seconds;
        let sess = store.session().expect("driver session");
        let mut cursor = Cursor::new(0, self.own_preloaded(), spec.value_len);

        // A quarter-length warm-up first, so the counted pass does not pay
        // for cold caches and first-touch pages the spanned pass is spared.
        self.pass(&store, &sess, &ks, &tape, &mut cursor, n_ops / 4, None);
        cursor.pos = 0;
        // Counted pass: spans off, exact counter deltas.
        let stats0 = arena.stats().snapshot();
        let shard0 = layers::shard_totals(&store);
        let counted = self.pass(&store, &sess, &ks, &tape, &mut cursor, n_ops, None);
        let d = arena.stats().snapshot().delta(&stats0);
        let shard1 = layers::shard_totals(&store);
        let kop = n_ops as f64 / 1e3;
        let wall_ns = counted.wall.as_nanos() as f64;
        layers::count_metrics(
            &mut out,
            &d,
            n_ops,
            wall_ns,
            arena.latency(),
            spec.user_bytes(counted.writes.count()),
        );
        out.set(
            "palloc.extents_claimed",
            store
                .extent_stats()
                .map_or(0, |x| x.owned_per_shard.iter().sum()) as f64,
        );
        out.set("epoch.checkpoints", (shard1.0 - shard0.0) as f64);
        out.set("epoch.skipped", (shard1.1 - shard0.1) as f64);
        let mut chained = counted.reads.clone();
        chained.merge(&counted.writes);
        out.set(
            "epoch.fg_stall_ms_per_s",
            chained.time_above(100_000) / 1e6 / counted.wall.as_secs_f64(),
        );
        let untraced_kops = kop / counted.wall.as_secs_f64();
        out.set_n("trace.untraced_kops", untraced_kops, n_ops);

        // Spanned pass: the same tape again, spans on.
        let mut tracer = Tracer::new(Instant::now());
        let root = tracer.begin("bench.pass", ROOT, 0, 1.0);
        cursor.pos = 0;
        let keys0 = cursor.scanned_keys;
        let spanned = self.pass(
            &store,
            &sess,
            &ks,
            &tape,
            &mut cursor,
            n_ops,
            Some((&mut tracer, root)),
        );
        tracer.end(root);
        let traced_kops = kop / spanned.wall.as_secs_f64();
        out.set(
            "trace.overhead_pct",
            (untraced_kops - traced_kops) / untraced_kops * 100.0,
        );
        for (metric, span) in [
            ("core.get_ref_ns", "core.get_ref"),
            ("core.put_ns", "core.put"),
            ("core.remove_ns", "core.remove"),
        ] {
            let (n, mean) = trace::mean_ns(tracer.spans(), span);
            out.set_n(metric, mean, n);
        }
        // Scans are sampled like every op; their keys are counted on all.
        let (scans, scan_mean) = trace::mean_ns(tracer.spans(), "core.range");
        let scan_share = self.mix.scan as f64 / 100.0;
        let keys_per_scan =
            (cursor.scanned_keys - keys0) as f64 / (n_ops as f64 * scan_share).max(1.0);
        out.set_n(
            "core.scan_ns_per_key",
            if scans == 0 {
                0.0
            } else {
                scan_mean / keys_per_scan
            },
            scans,
        );
        layers::checkpoint_metrics(&mut out, tracer.spans());

        // Probes: this workload's store for the facade-level ones, fresh
        // arenas under the same NVM profile for the layers below.
        layers::probe_metrics(&mut out, &sess, &ks, spec.value_len, &Mix::NET_PUT, 64);
        if self.spec.shards == 1 {
            let mt =
                probes::transient_masstree(&ks, &tape, spec.nkeys, n_ops, self.trace_ckpt.every);
            out.set("masstree.get_ns", mt.get_ns);
            out.set("masstree.put_ns", mt.put_ns);
            let core_ns = wall_ns / n_ops as f64;
            out.set(
                "masstree.durable_overhead_pct",
                (core_ns - mt.per_op_ns) / mt.per_op_ns * 100.0,
            );
        }

        // Restart, its reopens spanned, then the span file.
        out.checks.merge(std::mem::take(&mut cursor.checks));
        drop(sess);
        // The other threads' preloaded keys are live too, untouched.
        let mut cursors = vec![cursor];
        cursors.extend(
            (1..sys::driver_threads())
                .map(|t| Cursor::new(t, self.own_preloaded(), spec.value_len)),
        );
        let (live, live_count) = self.live(&cursors);
        let restarted = harness::restart(
            &arena,
            store,
            &spec,
            &ks,
            &live,
            live_count,
            &mut out.checks,
        );
        layers::recovery_metrics(&mut out, &restarted, Some((&mut tracer, ROOT)));
        layers::finish_trace(&mut out, &tracer, root, 1);
        out
    }

    /// Runs `n_ops` of `tape` on one thread, checkpointing by op count.
    /// Latencies are chained end-to-start, so a checkpoint's stall lands
    /// on the operation that waited behind it — as a foreground thread
    /// would feel it.
    #[allow(clippy::too_many_arguments)]
    fn pass(
        &self,
        store: &Store,
        sess: &Session,
        ks: &Keyspace,
        tape: &Tape,
        cursor: &mut Cursor,
        n_ops: u64,
        mut tracer: Option<(&mut Tracer, u32)>,
    ) -> PassResult {
        let mut reads = Hist::new();
        let mut writes = Hist::new();
        let mut next_shard = 0;
        let start = Instant::now();
        let mut prev = start;
        for i in 0..n_ops {
            let op = tape.op(cursor.pos);
            cursor.pos += 1;
            // A sampled operation's span brackets its `Store` call alone.
            let (kind, name, span) = if tracer.is_some() && i % SAMPLE_EVERY == 0 {
                exec::<true>(store, sess, ks, op, cursor)
            } else {
                exec::<false>(store, sess, ks, op, cursor)
            };
            let now = Instant::now();
            let ns = (now - prev).as_nanos() as u64;
            match kind {
                Kind::Read => reads.record(ns),
                Kind::Write => writes.record(ns),
            }
            if let (Some((t, root)), Some((t0, t1))) = (&mut tracer, span) {
                t.push(Span {
                    name,
                    start_ns: t.at(t0),
                    end_ns: t.at(t1),
                    parent: *root,
                    op: i,
                    weight: SAMPLE_EVERY as f64,
                });
            }
            prev = now;
            if (i + 1) % self.trace_ckpt.every == 0 {
                let span = tracer
                    .as_mut()
                    .map(|(t, root)| t.begin("epoch.checkpoint", *root, i, 1.0));
                if self.trace_ckpt.per_shard {
                    store.checkpoint_shard(next_shard);
                    next_shard = (next_shard + 1) % store.shard_count();
                } else {
                    store.checkpoint();
                }
                if let (Some(id), Some((t, _))) = (span, &mut tracer) {
                    t.end(id);
                    // The checkpoint has its own span: keep it out of the
                    // next operation's.
                    prev = Instant::now();
                }
            }
        }
        PassResult {
            reads,
            writes,
            wall: start.elapsed(),
        }
    }
}

struct PassResult {
    reads: Hist,
    writes: Hist,
    wall: Duration,
}

/// Warm-up and window of a read-only workload's update coda.
const CODA_WARMUP: Duration = Duration::from_millis(500);
const CODA_SLICES: usize = 8;

/// One closed-loop thread per tape for `warmup`, then a window of `slices`
/// slices. Gives the cursors back with the window's slices, all threads
/// merged, process CPU attached.
fn drive(
    store: &Store,
    ks: &Keyspace,
    tapes: &[Tape],
    cursors: Vec<Cursor>,
    warmup: Duration,
    slices: usize,
) -> (Vec<Cursor>, Slices) {
    // Every thread cuts its window at the same instants, so the loop
    // needs no shared flag.
    let warm_end = Instant::now() + warmup;
    let (lanes, cpu_s) = std::thread::scope(|s| {
        let handles: Vec<_> = tapes
            .iter()
            .zip(cursors)
            .map(|(tape, cursor)| {
                let window = window::Lane::new(warm_end, SLICE, slices);
                s.spawn(move || timed_lane(store, ks, tape, cursor, window))
            })
            .collect();
        let cpu_s = window::cpu_per_slice(warm_end, slices);
        let lanes: Vec<Lane> = handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect();
        (lanes, cpu_s)
    });
    let (cursors, windows) = lanes.into_iter().map(|l| (l.cursor, l.window)).unzip();
    (cursors, Slices::merge(windows).with_cpu(cpu_s))
}

/// One driver thread of the timed run: warm up until the window opens,
/// then measure until it closes. One clock read per operation, chained
/// end-to-start.
fn timed_lane(
    store: &Store,
    ks: &Keyspace,
    tape: &Tape,
    mut cursor: Cursor,
    mut window: window::Lane,
) -> Lane {
    let sess = store.session().expect("driver session");
    let mut prev = Instant::now();
    loop {
        let op = tape.op(cursor.pos);
        cursor.pos += 1;
        let (kind, _, _) = exec::<false>(store, &sess, ks, op, &mut cursor);
        let now = Instant::now();
        let ns = (now - prev).as_nanos() as u64;
        prev = now;
        if !window.record(now, kind, ns) {
            break;
        }
    }
    Lane { cursor, window }
}
