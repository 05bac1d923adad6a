//! The two network workloads, driven over loopback TCP against an
//! in-process `incll_server::Server`: `net_put` (closed loop, pipelined,
//! write-heavy — the commit path) and `net_open` (open loop at fixed
//! rates, read-mostly — queueing and thread hand-off).
//!
//! Every connection reads and writes only keys it owns, so it knows what
//! each GET may return: no older than the last PUT acknowledged before the
//! GET was sent, no newer than the last PUT sent.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use incll::Store;
use incll_pmem::PArena;
use incll_server::{
    decode_response, encode_request, BatchOp, Request, Response, Server, ServerConfig,
};

use crate::gen::{self, Keyspace, Mix, Op, Tape, TAPE_OPS};
use crate::harness::{self, median, StoreSpec};
use crate::hist::Hist;
use crate::json::Json;
use crate::layers;
use crate::report::Outcome;
use crate::sys;
use crate::trace::{Span, Tracer, ROOT, SAMPLE_EVERY};
use crate::verify::Checks;
use crate::window::{self, Kind, Slices, SLICE};

/// Requests each closed-loop connection keeps in flight.
const PIPELINE: usize = 64;
/// Puts per preload BATCH.
const LOAD_CHUNK: u64 = 512;
/// Open-loop rates, requests per second over all connections.
pub const RATES: [u64; 4] = [5_000, 10_000, 20_000, 40_000];
/// The rate whose latencies are the workload's `read_*` / `write_*`.
const REPORT_RATE: u64 = 10_000;
/// Slices (of [`SLICE`]) each rate runs for, per 8 of `--seconds`. The
/// reported rate gets half, so each of its slices holds hundreds of
/// writes.
const RATE_SLICES_PER_8S: [usize; 4] = [2, 8, 2, 4];
/// Open-loop latency limit on p99.
const LIMIT: Duration = Duration::from_millis(5);
/// A sender this far behind its schedule makes its slice's latencies the
/// generator's: at the reported rate 5 ms is 1 % of a slice's requests.
const LATE_LIMIT: Duration = Duration::from_millis(5);

/// One network workload's definition.
pub struct Net {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    mix: Mix,
    open_loop: bool,
    spec: StoreSpec,
}

/// The definition of network workload `name`.
pub fn workload(name: &str) -> Option<Net> {
    let workers = ServerConfig::default().workers;
    let spec = StoreSpec {
        shards: 4,
        // As the `incll-server` binary: no cadence; commit records carry
        // durability and batch-slot eviction forces the boundaries.
        cadence_ms: None,
        nkeys: 200_000,
        value_len: 64,
        // Workers, the group committer, and the set-up session.
        sessions: workers + 2,
        log_bytes_per_thread: 16 << 20,
        arena_bytes: 160 << 20,
    };
    match name {
        "net_put" => Some(Net {
            name: "net_put",
            mix: Mix::NET_PUT,
            open_loop: false,
            spec,
        }),
        "net_open" => Some(Net {
            name: "net_open",
            mix: Mix::NET_OPEN,
            open_loop: true,
            spec,
        }),
        _ => None,
    }
}

/// A client connection: framed sends, incremental framed receives.
struct Client {
    stream: TcpStream,
    rbuf: Vec<u8>,
    rpos: usize,
    wbuf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the in-process server");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        Client {
            stream,
            rbuf: Vec::with_capacity(64 << 10),
            rpos: 0,
            wbuf: Vec::with_capacity(4 << 10),
        }
    }

    /// A second handle on the same socket (for a sender/receiver pair).
    fn split(&self) -> Client {
        Client {
            stream: self.stream.try_clone().expect("clone socket"),
            rbuf: Vec::with_capacity(64 << 10),
            rpos: 0,
            wbuf: Vec::with_capacity(4 << 10),
        }
    }

    fn queue(&mut self, req: &Request) {
        encode_request(req, &mut self.wbuf);
    }

    fn flush(&mut self) {
        self.stream.write_all(&self.wbuf).expect("send");
        self.wbuf.clear();
    }

    /// Blocks for the next response frame.
    fn recv(&mut self) -> Response {
        loop {
            let have = &self.rbuf[self.rpos..];
            if have.len() >= 4 {
                let len = u32::from_le_bytes(have[..4].try_into().expect("4 bytes")) as usize;
                if have.len() >= 4 + len {
                    let resp = decode_response(&have[4..4 + len]).expect("well-formed response");
                    self.rpos += 4 + len;
                    return resp;
                }
            }
            if self.rpos > 0 {
                self.rbuf.drain(..self.rpos);
                self.rpos = 0;
            }
            let mut chunk = [0u8; 16 << 10];
            let n = self.stream.read(&mut chunk).expect("receive");
            assert!(n > 0, "server closed the connection");
            self.rbuf.extend_from_slice(&chunk[..n]);
        }
    }

    fn call(&mut self, req: &Request) -> Response {
        self.queue(req);
        self.flush();
        self.recv()
    }
}

/// What a connection remembers about a request until its reply.
struct Pending {
    /// Send time (closed loop) or intended send time (open loop).
    at: Instant,
    /// The key's index.
    idx: u64,
    /// `Some(version)` for a PUT.
    put: Option<u32>,
    /// A GET may return versions `lo..=hi`.
    lo: u32,
    hi: u32,
    /// Request number on this connection.
    seq: u64,
}

/// What a connection knows about the versions of the keys it owns
/// (indexed by the key's number among them).
struct Versions {
    /// Last acknowledged PUT. Written when a reply arrives, read when a
    /// GET is sent — by two threads in the open loop.
    acked: Vec<AtomicU32>,
    /// Last PUT sent.
    sent: Vec<u32>,
    next: u32,
}

/// Turns one connection's tape into requests.
struct Script<'a> {
    check: Checker<'a>,
    tape: &'a Tape,
    pos: usize,
    val: Vec<u8>,
}

/// Checks replies against what the connection itself wrote.
#[derive(Clone, Copy)]
struct Checker<'a> {
    ks: &'a Keyspace,
    conns: u64,
    value_len: usize,
}

impl Script<'_> {
    /// The next request and its [`Pending`] record.
    fn next(
        &mut self,
        acked: &[AtomicU32],
        sent: &mut [u32],
        next: &mut u32,
        at: Instant,
    ) -> (Request, Pending) {
        let seq = self.pos as u64;
        let (idx, is_put) = match self.tape.op(self.pos) {
            Op::Get(i) => (i, false),
            Op::Put(i) => (i, true),
            other => unreachable!("network mixes hold only GET and PUT, got {other:?}"),
        };
        self.pos += 1;
        let local = (idx / self.check.conns) as usize;
        let key = self.check.ks.key(idx);
        let mut p = Pending {
            at,
            idx,
            put: None,
            lo: acked[local].load(Ordering::Acquire),
            hi: sent[local],
            seq,
        };
        let req = if is_put {
            *next += 1;
            sent[local] = *next;
            p.put = Some(*next);
            Keyspace::fill_value(&key, *next, &mut self.val);
            Request::Put {
                key: key.to_vec(),
                val: self.val.clone(),
            }
        } else {
            Request::Get { key: key.to_vec() }
        };
        (req, p)
    }
}

impl Checker<'_> {
    /// Checks `resp` against `p`, recording an acknowledged PUT.
    fn settle(&self, p: &Pending, resp: &Response, acked: &[AtomicU32], checks: &mut Checks) {
        let ok = match (p.put, resp) {
            (Some(version), Response::Ok) => {
                acked[(p.idx / self.conns) as usize].store(version, Ordering::Release);
                true
            }
            (None, Response::Value(bytes)) => {
                Keyspace::check_value(&self.ks.key(p.idx), bytes, self.value_len)
                    .is_some_and(|version| (p.lo..=p.hi).contains(&version))
            }
            _ => false,
        };
        checks.check(ok, || {
            format!(
                "request {} (key index {}): reply {resp:?}, wanted {}",
                p.seq,
                p.idx,
                match p.put {
                    Some(_) => "Ok".to_string(),
                    None => format!("version {}..={}", p.lo, p.hi),
                }
            )
        });
    }
}

/// What one connection measured.
struct NetLane {
    /// The window's slices (closed loop: the whole window; open loop: one
    /// rate step).
    window: window::Lane,
    /// Every reply of the step, late ones included (open loop).
    reads: Hist,
    writes: Hist,
    checks: Checks,
    tracer: Option<Tracer>,
    /// How late sends went out against their schedule, by slice (open
    /// loop only).
    lag: Option<window::Lane>,
    /// Replies that arrived by the step's end plus the latency limit.
    on_time: u64,
    scheduled: u64,
    /// Threads of the process while the load ran.
    threads_seen: u64,
}

impl NetLane {
    fn new(window: window::Lane, tracer: Option<Tracer>) -> Self {
        NetLane {
            lag: None,
            window,
            reads: Hist::new(),
            writes: Hist::new(),
            checks: Checks::default(),
            tracer,
            on_time: 0,
            scheduled: 0,
            threads_seen: 0,
        }
    }

    /// Records the reply to `p` that arrived at `now`. `false` once the
    /// window has closed.
    fn record(&mut self, p: &Pending, now: Instant, root: u32) -> bool {
        let ns = now.saturating_duration_since(p.at).as_nanos() as u64;
        let kind = if p.put.is_some() {
            self.writes.record(ns);
            Kind::Write
        } else {
            self.reads.record(ns);
            Kind::Read
        };
        if let Some(t) = &mut self.tracer {
            // Sampled by a hash of the request number: a fixed stride
            // would always pick the same slot of the 64-deep pipeline.
            if gen::mix64(p.seq).is_multiple_of(SAMPLE_EVERY) {
                let end_ns = t.at(now);
                t.push(Span {
                    name: match kind {
                        Kind::Write => "server.put",
                        Kind::Read => "server.get",
                    },
                    start_ns: end_ns.saturating_sub(ns),
                    end_ns,
                    parent: root,
                    op: p.seq,
                    // Detail only: pipelined requests overlap, so the
                    // connection's time is accounted by `server.busy`.
                    weight: 0.0,
                });
            }
        }
        self.window.record(now, kind, ns)
    }
}

/// A running server on a freshly built, BATCH-preloaded store.
struct System {
    arena: PArena,
    store: Store,
    server: Server,
    setup_s: f64,
    space_amp: f64,
}

/// What the process and the counters had done by one instant.
struct Mark {
    at: Instant,
    cpu_s: f64,
    stats: incll_pmem::StatsSnapshot,
    groups: (u64, u64),
}

impl System {
    fn mark(&self) -> Mark {
        Mark {
            at: Instant::now(),
            cpu_s: sys::cpu_seconds(),
            stats: self.arena.stats().snapshot(),
            groups: self.server.group_stats(),
        }
    }
}

impl Net {
    fn start(&self, ks: &Keyspace) -> System {
        let t0 = Instant::now();
        let arena = sys::arena(self.spec.arena_bytes, self.spec.shards, false);
        let (store, _) = Store::open(&arena, self.spec.options()).expect("arena sized for spec");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let server = Server::start(store.clone(), listener, ServerConfig::default())
            .expect("session pool sized for the workers");
        let mut client = Client::connect(server.local_addr());
        let mut val = vec![0u8; self.spec.value_len];
        for chunk in 0..self.spec.nkeys.div_ceil(LOAD_CHUNK) {
            let ops = (chunk * LOAD_CHUNK..((chunk + 1) * LOAD_CHUNK).min(self.spec.nkeys))
                .map(|i| {
                    let key = ks.key(i);
                    Keyspace::fill_value(&key, 0, &mut val);
                    BatchOp::Put {
                        key: key.to_vec(),
                        val: val.clone(),
                    }
                })
                .collect();
            let resp = client.call(&Request::Batch { ops });
            assert!(matches!(resp, Response::Committed(_)), "preload: {resp:?}");
        }
        let setup_s = t0.elapsed().as_secs_f64();
        let space_amp = harness::claimed_bytes(&arena, &store) as f64
            / self.spec.user_bytes(self.spec.nkeys) as f64;
        System {
            arena,
            store,
            server,
            setup_s,
            space_amp,
        }
    }

    fn versions(&self, conns: usize) -> Versions {
        let own = self.spec.nkeys as usize / conns + 1;
        Versions {
            acked: (0..own).map(|_| AtomicU32::new(0)).collect(),
            sent: vec![0; own],
            next: 0,
        }
    }

    fn script<'a>(&self, ks: &'a Keyspace, tape: &'a Tape, conns: usize) -> Script<'a> {
        Script {
            check: Checker {
                ks,
                conns: conns as u64,
                value_len: self.spec.value_len,
            },
            tape,
            pos: 0,
            val: vec![0; self.spec.value_len],
        }
    }

    /// One run, timed (`traced == false`: end-to-end metrics) or traced
    /// (per-layer metrics, sampled request spans).
    pub fn run(&self, seed: u64, seconds: u64, traced: bool) -> Outcome {
        let mut out = Outcome::new(self.name, seed, seconds, traced);
        let ks = Keyspace::new(seed);
        let conns = sys::driver_threads();
        let tapes: Vec<Tape> = (0..conns)
            .map(|c| gen::tape(seed, &self.mix, self.spec.nkeys, c, conns, TAPE_OPS))
            .collect();
        out.extra("tape_hash", Json::from(format!("{:016x}", tapes[0].hash())));
        let mut system = self.start(&ks);
        out.checks.passed(self.spec.nkeys);
        let addr = system.server.local_addr();
        let origin = Instant::now();
        let rtt_us = if traced { idle_rtt_us(addr, &ks) } else { 0.0 };

        // The load: closed loop over one sliced window, or the ladder.
        let slices = (Duration::from_secs(seconds).as_nanos() / SLICE.as_nanos()) as usize;
        let (lanes, steps, measured, m0, m1) = if self.open_loop {
            let m0 = system.mark();
            // Arrivals leave both processors idle most of the time: keep
            // one awake, and its CPU time out of the account.
            let awake = sys::KeepAwake::start();
            let (lanes, steps) = self.ladder(addr, &ks, &tapes, seconds, traced.then_some(origin));
            let mut m1 = system.mark();
            m1.cpu_s -= awake.stop();
            (lanes, Some(steps), None, m0, m1)
        } else {
            let warm_end = Instant::now() + sys::WARMUP;
            std::thread::scope(|s| {
                let handles: Vec<_> = tapes
                    .iter()
                    .map(|tape| {
                        let script = self.script(&ks, tape, conns);
                        let versions = self.versions(conns);
                        let lane = NetLane::new(
                            window::Lane::new(warm_end, SLICE, slices),
                            traced.then(|| Tracer::new(origin)),
                        );
                        s.spawn(move || closed_lane(addr, script, versions, lane))
                    })
                    .collect();
                std::thread::sleep(warm_end.saturating_duration_since(Instant::now()));
                let m0 = system.mark();
                let cpu_s = window::cpu_per_slice(warm_end, slices);
                let m1 = system.mark();
                let mut lanes: Vec<NetLane> = handles
                    .into_iter()
                    .map(|h| h.join().expect("connection thread panicked"))
                    .collect();
                let windows = lanes
                    .iter_mut()
                    .map(|l| {
                        std::mem::replace(&mut l.window, window::Lane::new(warm_end, SLICE, 0))
                    })
                    .collect();
                let measured = Slices::merge(windows).with_cpu(cpu_s);
                (lanes, None, Some(measured), m0, m1)
            })
        };
        let wall_s = (m1.at - m0.at).as_secs_f64();
        let d = m1.stats.delta(&m0.stats);
        // The server's threads: all but main and the client's own.
        let client_threads = if self.open_loop { 2 * conns } else { conns } as u64;
        let server_threads = lanes
            .iter()
            .map(|l| l.threads_seen)
            .max()
            .unwrap_or(0)
            .saturating_sub(1 + client_threads);

        let (mut reads, mut writes) = (Hist::new(), Hist::new());
        let mut tracer = traced.then(|| Tracer::new(origin));
        for lane in lanes {
            reads.merge(&lane.reads);
            writes.merge(&lane.writes);
            out.checks.merge(lane.checks);
            if let (Some(t), Some(l)) = (&mut tracer, lane.tracer) {
                t.absorb(l);
            }
        }
        // Replies counted: the window's (closed loop) or all (open loop).
        let ops = measured
            .as_ref()
            .map_or(reads.count() + writes.count(), Slices::total_ops);

        // Stop the server (joining its threads and dropping its store
        // clones), then restart and verify what it left behind.
        system.server.shutdown();
        let System {
            arena,
            store,
            server,
            setup_s,
            space_amp,
        } = system;
        drop(server);
        let restarted = harness::restart(
            &arena,
            store,
            &self.spec,
            &ks,
            &|| 0..self.spec.nkeys,
            self.spec.nkeys,
            &mut out.checks,
        );

        // The reported rate's slices (open loop).
        let report_step = steps.as_ref().map(|steps| {
            steps
                .iter()
                .find(|s| s.rate == REPORT_RATE)
                .expect("rate listed")
        });
        if !traced {
            match (&measured, report_step) {
                (Some(m), _) => {
                    m.report_rates(&mut out);
                    m.report_latency(&mut out, Kind::Read);
                    m.report_latency(&mut out, Kind::Write);
                }
                (None, Some(step)) => {
                    // Open loop: the rate is an input. Throughput is what
                    // the ladder delivered per second of its wall time,
                    // drains included; latencies are the reported rate's.
                    out.set_n("throughput_kops", ops as f64 / wall_s / 1e3, ops);
                    out.set_n(
                        "cpu_us_per_op",
                        (m1.cpu_s - m0.cpu_s) * 1e6 / ops as f64,
                        ops,
                    );
                    step.slices.report_latency(&mut out, Kind::Read);
                    step.slices.report_latency(&mut out, Kind::Write);
                }
                (None, None) => unreachable!("a run is closed- or open-loop"),
            }
            out.set_n("restart_ms", restarted.restart_ms, harness::REOPENS as u64);
            out.set_n(
                "core.recovery.first_pass_ms",
                restarted.first_pass_ms,
                harness::PASS_CHUNKS as u64,
            );
            out.set("space_amp", space_amp);
            out.set("peak_rss_mb", sys::peak_rss_mb());
            if let Some(steps) = &steps {
                out.extra(
                    "rate_within_limit_qps",
                    Json::from(rate_within_limit(steps)),
                );
                out.extra("open_loop_steps", steps_json(steps));
            }
            // The further set-ups, last (see `median_setup_s`).
            drop(restarted);
            drop(arena);
            let setup_s = harness::median_setup_s(setup_s, || {
                let mut again = self.start(&ks);
                again.server.shutdown();
                again.setup_s
            });
            out.set("setup_s", setup_s);
            return out;
        }

        // Warm-up and drain writes are in the counters too: close enough
        // for ratios that are reported with their spread, not gated.
        layers::count_metrics(
            &mut out,
            &d,
            ops,
            wall_s * 1e9,
            arena.latency(),
            self.spec.user_bytes(writes.count()),
        );

        let (groups, grouped) = (m1.groups.0 - m0.groups.0, m1.groups.1 - m0.groups.1);
        out.set_n(
            "server.group_size_mean",
            grouped as f64 / groups.max(1) as f64,
            groups,
        );
        out.set("server.groups_per_s", groups as f64 / wall_s);
        out.set("server.rtt_us", rtt_us);
        let write_p50_us = match (&measured, report_step) {
            (Some(m), _) => m.quantile_us(Kind::Write, 0.5),
            (None, Some(step)) => step.slices.quantile_us(Kind::Write, 0.5),
            (None, None) => 0.0,
        };
        out.set("server.commit_wait_us", write_p50_us - rtt_us);
        out.set("server.threads", server_threads as f64);
        if let Some(steps) = &steps {
            for s in steps {
                let tag = format!("r{}k", s.rate / 1000);
                let mut both = s.reads.clone();
                both.merge(&s.writes);
                out.set_n(
                    &format!("server.open.p99_us.{tag}"),
                    both.quantile(0.99) / 1e3,
                    both.count(),
                );
                out.set(
                    &format!("server.open.achieved_frac.{tag}"),
                    s.on_time as f64 / s.scheduled.max(1) as f64,
                );
            }
            let mut lag = Hist::new();
            steps.iter().for_each(|s| lag.merge(&s.lag));
            out.set_n(
                "server.open.sched_lag_us_p99",
                lag.quantile(0.99) / 1e3,
                lag.count(),
            );
            out.set(
                "server.open.rate_within_limit_qps",
                rate_within_limit(steps),
            );
            out.extra("open_loop_steps", steps_json(steps));
        }
        {
            let sess = restarted.store.session().expect("probe session");
            layers::probe_metrics(
                &mut out,
                &sess,
                &ks,
                self.spec.value_len,
                &self.mix,
                self.spec.value_len,
            );
        }
        let Some(mut tracer) = tracer else {
            unreachable!("a traced run keeps a tracer")
        };
        // One root over the whole load (warm-up and drain included); the
        // connections' roots hang off it.
        let conn_roots = tracer.spans().iter().filter(|s| s.parent == ROOT);
        let start_ns = conn_roots.clone().map(|s| s.start_ns).min().unwrap_or(0);
        let end_ns = conn_roots.map(|s| s.end_ns).max().unwrap_or(0);
        let root = tracer.spans().len() as u32;
        tracer.push(Span {
            name: "bench.load",
            start_ns,
            end_ns,
            parent: ROOT,
            op: 0,
            weight: 1.0,
        });
        tracer.reparent_roots(root);
        layers::recovery_metrics(&mut out, &restarted, Some((&mut tracer, ROOT)));
        layers::finish_trace(&mut out, &tracer, root, conns);
        out
    }

    /// The open loop: each listed rate in turn, every connection a sender
    /// on a fixed schedule and a receiver, drained between rates.
    fn ladder(
        &self,
        addr: SocketAddr,
        ks: &Keyspace,
        tapes: &[Tape],
        seconds: u64,
        trace_origin: Option<Instant>,
    ) -> (Vec<NetLane>, Vec<Step>) {
        let conns = tapes.len();
        let mut clients: Vec<Client> = (0..conns).map(|_| Client::connect(addr)).collect();
        let mut scripts: Vec<Script> = tapes.iter().map(|t| self.script(ks, t, conns)).collect();
        let mut versions: Vec<Versions> = (0..conns).map(|_| self.versions(conns)).collect();
        let mut tracers: Vec<Option<Tracer>> =
            (0..conns).map(|_| trace_origin.map(Tracer::new)).collect();
        let roots: Vec<u32> = tracers
            .iter_mut()
            .map(|t| {
                t.as_mut()
                    .map_or(ROOT, |t| t.begin("bench.conn", ROOT, 0, 1.0))
            })
            .collect();
        let mut totals: Vec<NetLane> = Vec::new();
        let mut steps = Vec::new();
        for (&rate, per_8s) in RATES.iter().zip(RATE_SLICES_PER_8S) {
            let step_slices = (per_8s * seconds as usize / 8).max(1);
            let span = SLICE * step_slices as u32;
            let per_conn = ((rate as f64 / conns as f64) * span.as_secs_f64()) as u64;
            let gap = span.div_f64(per_conn as f64);
            let start = Instant::now() + Duration::from_millis(2);
            let lanes: Vec<NetLane> = std::thread::scope(|s| {
                let handles: Vec<_> = clients
                    .iter_mut()
                    .zip(scripts.iter_mut())
                    .zip(versions.iter_mut())
                    .zip(tracers.iter_mut().zip(&roots))
                    .enumerate()
                    .map(|(c, (((client, script), v), (tracer, &root)))| {
                        // Stagger the connections across one gap.
                        let first = start + gap.mul_f64(c as f64 / conns as f64);
                        let lane = NetLane::new(
                            window::Lane::new(start, SLICE, step_slices),
                            tracer.take(),
                        );
                        s.spawn(move || {
                            open_lane(client, script, v, first, gap, per_conn, lane, root)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("connection thread panicked"))
                    .collect()
            });
            let mut step = Step {
                rate,
                reads: Hist::new(),
                writes: Hist::new(),
                lag: Hist::new(),
                late_slices: 0,
                on_time: 0,
                scheduled: 0,
                slices: Slices::merge(vec![window::Lane::new(start, SLICE, step_slices)]),
            };
            let mut windows = Vec::new();
            let mut lags = Vec::new();
            let mut kept = Vec::new();
            for (mut lane, tracer) in lanes.into_iter().zip(tracers.iter_mut()) {
                step.reads.merge(&lane.reads);
                step.writes.merge(&lane.writes);
                lags.push(lane.lag.take().expect("an open-loop lane records its lag"));
                step.on_time += lane.on_time;
                step.scheduled += lane.scheduled;
                *tracer = lane.tracer.take();
                windows.push(std::mem::replace(
                    &mut lane.window,
                    window::Lane::new(start, SLICE, 0),
                ));
                kept.push(lane);
            }
            // A slice in which the generator itself fell behind did not
            // offer the stated load: its replies measure the client's
            // scheduling, not the server.
            let lags = Slices::merge(lags);
            let late: Vec<bool> = (0..step_slices)
                .map(|k| lags.slice_max_ns(Kind::Read, k) >= LATE_LIMIT.as_nanos() as f64)
                .collect();
            step.lag = lags.total(Kind::Read);
            step.late_slices = late.iter().filter(|&&l| l).count();
            step.slices = Slices::merge(windows).without(&late);
            steps.push(step);
            totals.extend(kept);
        }
        // Hand each connection's spans back on one of its lanes.
        for ((tracer, &root), lane) in tracers.iter_mut().zip(&roots).zip(totals.iter_mut()) {
            if let Some(mut t) = tracer.take() {
                t.end(root);
                lane.tracer = Some(t);
            }
        }
        (totals, steps)
    }
}

/// One rate of the open loop.
struct Step {
    rate: u64,
    /// Every reply of the step, late ones included.
    reads: Hist,
    writes: Hist,
    lag: Hist,
    /// Slices left out of `slices` because the generator ran late in them.
    late_slices: usize,
    on_time: u64,
    scheduled: u64,
    /// The replies that arrived inside the step, by slice, less the
    /// slices the generator ran late in.
    slices: Slices,
}

/// The highest listed rate that met the limit: p99 within [`LIMIT`] and
/// at least 98 % of the scheduled requests answered by the end of the
/// step plus the limit (a growing backlog fails the second test).
fn rate_within_limit(steps: &[Step]) -> f64 {
    steps
        .iter()
        .filter(|s| {
            let mut both = s.reads.clone();
            both.merge(&s.writes);
            both.quantile(0.99) <= LIMIT.as_nanos() as f64
                && s.on_time as f64 >= 0.98 * s.scheduled as f64
        })
        .map(|s| s.rate as f64)
        .fold(0.0, f64::max)
}

fn steps_json(steps: &[Step]) -> Json {
    Json::Arr(
        steps
            .iter()
            .map(|s| {
                Json::obj([
                    ("rate_qps", Json::from(s.rate)),
                    ("scheduled", Json::from(s.scheduled)),
                    ("answered_in_time", Json::from(s.on_time)),
                    ("read_p50_us", Json::from(s.reads.quantile(0.5) / 1e3)),
                    ("read_p99_us", Json::from(s.reads.quantile(0.99) / 1e3)),
                    ("write_p50_us", Json::from(s.writes.quantile(0.5) / 1e3)),
                    ("write_p99_us", Json::from(s.writes.quantile(0.99) / 1e3)),
                    ("sched_lag_p99_us", Json::from(s.lag.quantile(0.99) / 1e3)),
                    ("late_slices_left_out", Json::from(s.late_slices as u64)),
                ])
            })
            .collect(),
    )
}

/// Median of 2000 one-deep GET round trips on an otherwise idle server.
fn idle_rtt_us(addr: SocketAddr, ks: &Keyspace) -> f64 {
    let mut client = Client::connect(addr);
    let mut us = Vec::with_capacity(2000);
    for i in 0..2200u64 {
        let t0 = Instant::now();
        let resp = client.call(&Request::Get {
            key: ks.key(i).to_vec(),
        });
        assert!(matches!(resp, Response::Value(_)));
        if i >= 200 {
            us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    median(&mut us)
}

/// One closed-loop connection: [`PIPELINE`] requests in flight, the next
/// sent as each reply arrives; latency from the send to the reply. Sends
/// stop when the window closes; what is in flight then drains uncounted.
fn closed_lane(
    addr: SocketAddr,
    mut script: Script,
    mut v: Versions,
    mut lane: NetLane,
) -> NetLane {
    let mut client = Client::connect(addr);
    let root = lane
        .tracer
        .as_mut()
        .map_or(ROOT, |t| t.begin("bench.conn", ROOT, 0, 1.0));
    let mut pending: VecDeque<Pending> = VecDeque::with_capacity(PIPELINE);
    let now = Instant::now();
    for _ in 0..PIPELINE {
        let (req, p) = script.next(&v.acked, &mut v.sent, &mut v.next, now);
        client.queue(&req);
        pending.push_back(p);
    }
    client.flush();
    while let Some(p) = pending.pop_front() {
        let resp = client.recv();
        let now = Instant::now();
        script.check.settle(&p, &resp, &v.acked, &mut lane.checks);
        lane.record(&p, now, root);
        if lane.threads_seen == 0 {
            lane.threads_seen = sys::thread_count();
        }
        if lane.window.open_at(now) {
            let (req, p) = script.next(&v.acked, &mut v.sent, &mut v.next, now);
            client.queue(&req);
            client.flush();
            pending.push_back(p);
        }
    }
    if let Some(t) = &mut lane.tracer {
        // A full pipeline waits on the server from first send to last reply.
        let busy = t.begin("server.busy", root, 0, 1.0);
        t.end(busy);
        t.end(root);
        t.stretch_back(busy, now);
    }
    lane
}

/// One open-loop connection at one rate: a sender thread issuing request
/// `i` at `first + i * gap` whatever the replies do, and (this thread) a
/// receiver timing each reply from its *intended* send time.
#[allow(clippy::too_many_arguments)]
fn open_lane(
    client: &mut Client,
    script: &mut Script,
    v: &mut Versions,
    first: Instant,
    gap: Duration,
    count: u64,
    mut lane: NetLane,
    root: u32,
) -> NetLane {
    lane.scheduled = count;
    let check = script.check;
    let Versions { acked, sent, next } = v;
    let acked = &acked[..];
    // Requests awaiting replies, and since when there has been one.
    let queue: Mutex<(VecDeque<Pending>, Instant)> = Mutex::new((VecDeque::new(), first));
    let mut sender = client.split();
    let in_time = first + gap.mul_f64(count as f64) + LIMIT;
    let mut busy = Duration::ZERO;
    let lag = lane.window.empty_like();
    lane.lag = Some(std::thread::scope(|s| {
        let sending = s.spawn(|| {
            let mut lag = lag;
            let mut issued = 0u64;
            while issued < count {
                let due = first + gap.mul_f64(issued as f64);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                    continue;
                }
                // Everything due by now goes out in one write.
                let mut q = queue.lock().expect("queue lock");
                if q.0.is_empty() {
                    q.1 = now;
                }
                while issued < count {
                    let due = first + gap.mul_f64(issued as f64);
                    if due > now {
                        break;
                    }
                    lag.record(now, Kind::Read, (now - due).as_nanos() as u64);
                    let (req, p) = script.next(acked, sent, next, due);
                    sender.queue(&req);
                    q.0.push_back(p);
                    issued += 1;
                }
                drop(q);
                sender.flush();
            }
            lag
        });
        for done in 0..count {
            let resp = client.recv();
            let now = Instant::now();
            let p = {
                let mut q = queue.lock().expect("queue lock");
                let p = q.0.pop_front().expect("a reply follows its request");
                if q.0.is_empty() {
                    busy += now.saturating_duration_since(q.1);
                }
                p
            };
            check.settle(&p, &resp, acked, &mut lane.checks);
            lane.record(&p, now, root);
            lane.on_time += u64::from(now <= in_time);
            if done == 0 {
                lane.threads_seen = sys::thread_count();
            }
        }
        sending.join().expect("sender thread panicked")
    }));
    if let Some(t) = &mut lane.tracer {
        // The time this connection had a request outstanding, as one span.
        let start_ns = t.at(first);
        t.push(Span {
            name: "server.busy",
            start_ns,
            end_ns: start_ns + busy.as_nanos() as u64,
            parent: root,
            op: script.pos as u64,
            weight: 1.0,
        });
    }
    lane
}
