//! The concurrent TCP front-end: M connections on N worker sessions.
//!
//! ```text
//!  conn 1 ──reader──▶ queue 1 ──▶ worker 1 (Session) ──┐        ┌─▶ writer 1 ──▶ conn 1
//!  conn 2 ──reader──▶ queue 2 ──▶ worker 2 (Session) ──┤ reorder├─▶ writer 2 ──▶ conn 2
//!    ...                ...              ...           │ buffers│       ...
//!  conn M ──reader──▶ queue N ──▶ worker N (Session) ──┘        └─▶ writer M ──▶ conn M
//!                                        │
//!                          puts/dels/batches ──▶ group committer
//! ```
//!
//! Each connection gets a cheap reader thread that frames requests and
//! stamps them with a per-connection sequence number; the heavyweight
//! resource — a [`Session`] from the store's bounded pool — is held by
//! the N workers, so M ≫ N connections share N sessions. A connection is
//! **pinned** to one worker (round-robin at accept): its requests
//! execute on that worker in sequence order, which is what makes writes
//! from one pipeline reach the store — and, through the single committer
//! thread, durability — in request order. Requests still *complete* out
//! of order (grouped acks arrive on the committer thread); the
//! per-connection **reorder buffer** holds completed frames until all
//! earlier sequence numbers are ready, and a per-connection **writer
//! thread** drains the in-order prefix to the socket. Workers and the
//! committer never touch a socket, so a client that stops reading stalls
//! only its own writer, never the commit path.
//!
//! Backpressure: the reader pauses once
//! [`ServerConfig::pipeline_depth`] requests are in flight (read but
//! not yet written back), so one connection can pin at most
//! `pipeline_depth` request + response frames — the 1&nbsp;MiB frame cap
//! then bounds bytes, not just one frame.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use incll::{Error, Session, Store};

use crate::group::{GroupCommitter, GroupOp};
use crate::protocol::{
    decode_request, encode_response, encode_value, entry_wire_len, read_frame, BatchOp, Request,
    Response, WireError, ENTRIES_HEADER_LEN, MAX_FRAME_BYTES,
};

/// How long blocked socket reads and writes wait before re-checking the
/// stop flag.
const SOCKET_POLL: Duration = Duration::from_millis(50);

/// The writer thread coalesces contiguous ready frames into one socket
/// write up to this many bytes.
const WRITER_COALESCE_BYTES: usize = 64 << 10;

/// How (and when) a PUT or DEL becomes durable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitMode {
    /// Every write commits durably before its response — one
    /// intent/commit protocol (and its fences) per request. The
    /// baseline the group committer is measured against.
    PerRequest,
    /// Writes coalesce across connections into fence-shared groups;
    /// the response is sent only after the write's group is durable.
    /// A group is whatever queued while the last group was committing:
    /// no timer, no option. `BATCH` requests ride the same committer
    /// queue (as their own atomic commit), keeping each connection's
    /// writes in order.
    Group,
    /// Writes apply in place and are acknowledged immediately; they
    /// become durable only at the next epoch boundary. Acked writes
    /// **can vanish** in a crash — the fast, weak mode.
    Async,
}

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (= sessions drawn from the store's pool).
    pub workers: usize,
    /// Durability discipline for PUT and DEL (BATCH is always durable).
    pub commit: CommitMode,
    /// How long `Server::start` waits for each worker's session before
    /// giving up with [`Error::SessionTimeout`].
    pub session_timeout: Duration,
    /// Most requests one connection may have in flight (read off the
    /// socket but not yet answered on the wire). The reader pauses at
    /// the bound, bounding the memory a connection can pin.
    pub pipeline_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            commit: CommitMode::Group,
            session_timeout: Duration::from_secs(5),
            pipeline_depth: 256,
        }
    }
}

/// Atomic request counters, surfaced by the STATS opcode.
#[derive(Default)]
struct Counters {
    conns: AtomicU64,
    requests: AtomicU64,
    gets: AtomicU64,
    puts: AtomicU64,
    dels: AtomicU64,
    batches: AtomicU64,
    scans: AtomicU64,
    wire_errors: AtomicU64,
}

/// One queued request, stamped with its connection and order.
struct Job {
    conn: Arc<Conn>,
    seq: u64,
    req: Result<Request, WireError>,
}

/// The response side of one connection: frames complete out of order
/// (the pinned worker and the group committer interleave) but must
/// leave in `seq` order.
struct OutBuf {
    /// Next sequence number the socket owes the client.
    next: u64,
    /// Completed frames waiting on earlier ones.
    ready: BTreeMap<u64, Vec<u8>>,
    /// Set by the writer once the socket is dead; later frames drop.
    broken: bool,
    /// Set when the reader exits: how many requests it issued in all.
    /// The writer exits once `next` catches up.
    total: Option<u64>,
}

struct Conn {
    /// The worker this connection is pinned to. All its requests
    /// execute there in sequence order — the write-ordering guarantee.
    worker: usize,
    /// Requests issued so far; mirrors the reader's local counter so a
    /// drop guard can publish `total` even if the reader panics.
    issued: AtomicU64,
    out: Mutex<OutBuf>,
    /// Wakes the writer (frame completed / reader done) and the reader
    /// (backpressure slot freed / socket broken).
    cv: Condvar,
}

impl Conn {
    /// Hands `seq`'s encoded frame to the reorder buffer; the writer
    /// thread flushes the in-order prefix. Never blocks on the socket,
    /// so this is safe to call from the group-commit thread.
    fn complete(&self, seq: u64, frame: Vec<u8>) {
        let mut out = self.out.lock().unwrap();
        if out.broken {
            return; // client gone; the writer has already exited
        }
        out.ready.insert(seq, frame);
        drop(out);
        self.cv.notify_all();
    }
}

/// Publishes the reader's final request count when the reader thread
/// ends — even by panic — so the connection's writer can terminate.
struct ReaderDone<'a>(&'a Conn);

impl Drop for ReaderDone<'_> {
    fn drop(&mut self) {
        let issued = self.0.issued.load(Ordering::SeqCst);
        self.0.out.lock().unwrap().total = Some(issued);
        self.0.cv.notify_all();
    }
}

/// One worker's private job queue. Connections are pinned to a queue,
/// so a connection's jobs are handled by one thread, in order.
struct WorkerQueue {
    jobs: Mutex<VecDeque<Job>>,
    cv: Condvar,
}

struct Shared {
    store: Store,
    commit: CommitMode,
    queues: Vec<WorkerQueue>,
    pipeline_depth: u64,
    stop: AtomicBool,
    /// Set (after `stop`) once every reader has been joined: no more
    /// jobs can arrive, so an idle worker may exit.
    readers_done: AtomicBool,
    counters: Counters,
    group: Option<GroupCommitter>,
}

/// A running server; dropping it (or calling [`Server::shutdown`])
/// stops every thread and flushes the group committer.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    writers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds worker sessions and starts serving `listener`.
    ///
    /// Sessions for all workers (plus one for the group committer) are
    /// acquired up front with [`Store::session_blocking`], so a pool
    /// too small for `cfg.workers` fails here with
    /// [`Error::SessionTimeout`] instead of wedging a worker later.
    pub fn start(store: Store, listener: TcpListener, cfg: ServerConfig) -> Result<Server, Error> {
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        listener
            .set_nonblocking(true)
            .expect("set_nonblocking on listener");

        // Reserve every session before any thread spawns.
        let mut sessions = Vec::with_capacity(cfg.workers);
        for _ in 0..cfg.workers {
            sessions.push(store.session_blocking(cfg.session_timeout)?);
        }
        let group = match &cfg.commit {
            CommitMode::Group => {
                let sess = store.session_blocking(cfg.session_timeout)?;
                Some(
                    GroupCommitter::start(store.clone(), sess)
                        .map_err(|e| Error::Internal(format!("spawn group-commit thread: {e}")))?,
                )
            }
            _ => None,
        };

        let shared = Arc::new(Shared {
            store,
            commit: cfg.commit.clone(),
            queues: (0..cfg.workers.max(1))
                .map(|_| WorkerQueue {
                    jobs: Mutex::new(VecDeque::new()),
                    cv: Condvar::new(),
                })
                .collect(),
            pipeline_depth: cfg.pipeline_depth.max(1) as u64,
            stop: AtomicBool::new(false),
            readers_done: AtomicBool::new(false),
            counters: Counters::default(),
            group,
        });

        // Unwinds a partial start: stop flag up, wake and join whatever
        // already runs, flush the committer — then surface the spawn
        // failure as a typed error instead of panicking the caller.
        let unwind = |workers: Vec<JoinHandle<()>>, what: &str, e: std::io::Error| {
            shared.stop.store(true, Ordering::SeqCst);
            shared.readers_done.store(true, Ordering::SeqCst);
            for q in &shared.queues {
                q.cv.notify_all();
            }
            for t in workers {
                let _ = t.join();
            }
            if let Some(g) = &shared.group {
                g.shutdown();
            }
            Error::Internal(format!("spawn {what} thread: {e}"))
        };

        let mut workers = Vec::with_capacity(sessions.len());
        for (i, sess) in sessions.into_iter().enumerate() {
            let worker_shared = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(format!("incll-worker-{i}"))
                .spawn(move || worker_loop(&worker_shared, i, &sess))
            {
                Ok(t) => workers.push(t),
                Err(e) => return Err(unwind(workers, "worker", e)),
            }
        }

        let readers = Arc::new(Mutex::new(Vec::new()));
        let writers = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let acceptor_shared = Arc::clone(&shared);
            let readers = Arc::clone(&readers);
            let writers = Arc::clone(&writers);
            match std::thread::Builder::new()
                .name("incll-acceptor".into())
                .spawn(move || accept_loop(&acceptor_shared, &listener, &readers, &writers))
            {
                Ok(t) => t,
                Err(e) => return Err(unwind(workers, "acceptor", e)),
            }
        };

        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
            workers,
            readers,
            writers,
        })
    }

    /// The address the server is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// `(groups_committed, ops_grouped)` from the group committer, or
    /// zeros when running in a non-grouping commit mode.
    pub fn group_stats(&self) -> (u64, u64) {
        self.shared.group.as_ref().map_or((0, 0), |g| g.stats())
    }

    /// Stops accepting, drains the group committer, joins every thread.
    /// In-flight requests complete; their responses still flush (unless
    /// the client has stopped reading, in which case its writer gives
    /// up at the next blocked-write poll).
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
        for t in std::mem::take(&mut *self.readers.lock().unwrap()) {
            let _ = t.join();
        }
        // Readers are gone, so no new jobs can arrive: let idle workers
        // exit, and let busy ones drain what is already queued.
        self.shared.readers_done.store(true, Ordering::SeqCst);
        for q in &self.shared.queues {
            q.cv.notify_all();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        // Workers are gone; flushing the committer completes the last
        // grouped acks, after which each writer reaches its total.
        if let Some(g) = &self.shared.group {
            g.shutdown();
        }
        for t in std::mem::take(&mut *self.writers.lock().unwrap()) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Joins whichever of `handles` have already finished, keeping the
/// rest — called on each accept so a long-lived server does not
/// accumulate one dead JoinHandle per connection ever served.
fn reap_finished(handles: &Mutex<Vec<JoinHandle<()>>>) {
    let finished: Vec<_> = {
        let mut hs = handles.lock().unwrap();
        let mut live = Vec::with_capacity(hs.len());
        let mut finished = Vec::new();
        for h in hs.drain(..) {
            if h.is_finished() {
                finished.push(h);
            } else {
                live.push(h);
            }
        }
        *hs = live;
        finished
    };
    for h in finished {
        let _ = h.join();
    }
}

fn accept_loop(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    readers: &Mutex<Vec<JoinHandle<()>>>,
    writers: &Mutex<Vec<JoinHandle<()>>>,
) {
    let mut next_worker = 0usize;
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((sock, _)) => {
                reap_finished(readers);
                reap_finished(writers);
                // Under fd exhaustion the clone fails; shed this
                // connection and keep accepting rather than dying.
                let write_half = match sock.try_clone() {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                shared.counters.conns.fetch_add(1, Ordering::Relaxed);
                let _ = sock.set_nodelay(true);
                // Finite timeouts let both halves poll `stop`.
                let _ = sock.set_read_timeout(Some(SOCKET_POLL));
                let _ = write_half.set_write_timeout(Some(SOCKET_POLL));
                let conn = Arc::new(Conn {
                    worker: next_worker % shared.queues.len(),
                    issued: AtomicU64::new(0),
                    out: Mutex::new(OutBuf {
                        next: 0,
                        ready: BTreeMap::new(),
                        broken: false,
                        total: None,
                    }),
                    cv: Condvar::new(),
                });
                next_worker = next_worker.wrapping_add(1);
                let writer = {
                    let shared = Arc::clone(shared);
                    let conn = Arc::clone(&conn);
                    std::thread::Builder::new()
                        .name("incll-writer".into())
                        .spawn(move || writer_loop(&conn, write_half, &shared.stop))
                };
                let Ok(writer) = writer else { continue };
                writers.lock().unwrap().push(writer);
                let reader = {
                    let shared = Arc::clone(shared);
                    let conn = Arc::clone(&conn);
                    std::thread::Builder::new()
                        .name("incll-reader".into())
                        .spawn(move || {
                            let _done = ReaderDone(&conn);
                            reader_loop(&shared, sock, &conn);
                        })
                };
                match reader {
                    Ok(r) => readers.lock().unwrap().push(r),
                    Err(_) => {
                        // No reader ever runs: report zero requests so
                        // the already-spawned writer can exit.
                        conn.out.lock().unwrap().total = Some(0);
                        conn.cv.notify_all();
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

/// Retries the socket's read timeouts so `read_frame` never observes a
/// mid-frame `WouldBlock` (which would drop partially read bytes and
/// desync the stream). Each timeout tick polls the stop flag; stopping
/// surfaces as `ConnectionAborted` — a kind `read_exact` won't retry.
struct PollRead<'a> {
    sock: &'a mut TcpStream,
    stop: &'a AtomicBool,
}

impl io::Read for PollRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match io::Read::read(self.sock, buf) {
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if self.stop.load(Ordering::SeqCst) {
                        return Err(io::Error::new(
                            io::ErrorKind::ConnectionAborted,
                            "server stopping",
                        ));
                    }
                }
                r => return r,
            }
        }
    }
}

/// Frames one connection's requests into seq-stamped jobs.
fn reader_loop(shared: &Arc<Shared>, mut sock: TcpStream, conn: &Arc<Conn>) {
    let mut seq = 0u64;
    loop {
        if !admit(shared, conn, seq) {
            return; // backpressure met a dead socket or a stopping server
        }
        let mut poll = PollRead {
            sock: &mut sock,
            stop: &shared.stop,
        };
        let payload = match read_frame(&mut poll) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean close between frames
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Oversized header: we cannot resynchronise the stream,
                // so answer in order and hang up.
                enqueue(
                    shared,
                    conn,
                    seq,
                    Err(WireError::Oversized {
                        len: 0,
                        max: MAX_FRAME_BYTES,
                    }),
                );
                return;
            }
            Err(_) => return, // peer reset / mid-frame EOF
        };
        // Frame intact: a decode error is answerable without desync.
        enqueue(shared, conn, seq, decode_request(&payload));
        seq += 1;
    }
}

/// Blocks until the connection is below its pipeline-depth bound.
/// Returns `false` when reading should stop instead (socket broken, or
/// the server is stopping while the bound is still met).
fn admit(shared: &Shared, conn: &Conn, issued: u64) -> bool {
    let mut out = conn.out.lock().unwrap();
    loop {
        if out.broken {
            return false;
        }
        if issued - out.next < shared.pipeline_depth {
            return true;
        }
        if shared.stop.load(Ordering::SeqCst) {
            return false;
        }
        let (guard, _) = conn.cv.wait_timeout(out, SOCKET_POLL).unwrap();
        out = guard;
    }
}

fn enqueue(shared: &Arc<Shared>, conn: &Arc<Conn>, seq: u64, req: Result<Request, WireError>) {
    let q = &shared.queues[conn.worker];
    let job = Job {
        conn: Arc::clone(conn),
        seq,
        req,
    };
    conn.issued.store(seq + 1, Ordering::SeqCst);
    q.jobs.lock().unwrap().push_back(job);
    q.cv.notify_one();
}

/// Drains the connection's in-order response prefix to the socket.
/// The only thread that writes to (or errors on) this socket.
fn writer_loop(conn: &Conn, mut sock: TcpStream, stop: &AtomicBool) {
    let mut buf = Vec::new();
    loop {
        buf.clear();
        {
            let mut out = conn.out.lock().unwrap();
            loop {
                while buf.len() < WRITER_COALESCE_BYTES {
                    let next = out.next;
                    match out.ready.remove(&next) {
                        Some(frame) => {
                            out.next += 1;
                            buf.extend_from_slice(&frame);
                        }
                        None => break,
                    }
                }
                if !buf.is_empty() {
                    break;
                }
                if out.total == Some(out.next) {
                    return; // every issued request has been answered
                }
                out = conn.cv.wait(out).unwrap();
            }
        }
        // Slots freed: a reader paused at the pipeline bound may resume.
        conn.cv.notify_all();
        if write_poll(&mut sock, &buf, stop).is_err() {
            let mut out = conn.out.lock().unwrap();
            out.broken = true;
            out.ready.clear(); // nothing further will be sent
            drop(out);
            conn.cv.notify_all(); // unblock a reader waiting on a slot
            return;
        }
    }
}

/// `write_all` over a socket with a write timeout: timeout ticks poll
/// the stop flag (so shutdown is never wedged by a client that stopped
/// reading), everything else is a real error.
fn write_poll(sock: &mut TcpStream, buf: &[u8], stop: &AtomicBool) -> io::Result<()> {
    let mut at = 0;
    while at < buf.len() {
        match sock.write(&buf[at..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => at += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "server stopping",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn worker_loop(shared: &Arc<Shared>, idx: usize, sess: &Session) {
    let q = &shared.queues[idx];
    loop {
        let job = {
            let mut jobs = q.jobs.lock().unwrap();
            loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                // `readers_done` (not `stop`) gates the exit: readers
                // may still be flushing their last jobs at stop time,
                // and every enqueued job must be answered.
                if shared.readers_done.load(Ordering::SeqCst) {
                    return;
                }
                jobs = q.cv.wait(jobs).unwrap();
            }
        };
        handle_job(shared, sess, job);
    }
}

fn frame_of(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_response(resp, &mut buf);
    buf
}

fn handle_job(shared: &Arc<Shared>, sess: &Session, job: Job) {
    let c = &shared.counters;
    c.requests.fetch_add(1, Ordering::Relaxed);
    let req = match job.req {
        Ok(req) => req,
        Err(e) => {
            c.wire_errors.fetch_add(1, Ordering::Relaxed);
            job.conn
                .complete(job.seq, frame_of(&Response::Error(e.to_string())));
            return;
        }
    };
    let store = &shared.store;
    let resp = match req {
        Request::Get { key } => {
            c.gets.fetch_add(1, Ordering::Relaxed);
            // Encode straight from the borrow — one copy, into the frame —
            // and release the shard's read pin before the hand-off.
            let frame = match store.get_ref(sess, &key) {
                Some(val) => {
                    let mut frame = Vec::with_capacity(5 + val.len());
                    encode_value(&val, &mut frame);
                    frame
                }
                None => frame_of(&Response::NotFound),
            };
            job.conn.complete(job.seq, frame);
            return;
        }
        Request::Put { key, val } => {
            c.puts.fetch_add(1, Ordering::Relaxed);
            match &shared.commit {
                CommitMode::Async => match store.put(sess, &key, &val) {
                    Ok(_) => Response::Ok,
                    Err(e) => Response::Error(e.to_string()),
                },
                CommitMode::PerRequest => {
                    let mut b = sess.batch();
                    match b
                        .put(&key, &val)
                        .and_then(|()| b.commit_durable().map(|_| ()))
                    {
                        Ok(()) => Response::Ok,
                        Err(e) => Response::Error(e.to_string()),
                    }
                }
                CommitMode::Group => {
                    submit_grouped(shared, job.conn, job.seq, GroupOp::Put { key, val });
                    return; // the committer completes this seq
                }
            }
        }
        Request::Del { key } => {
            c.dels.fetch_add(1, Ordering::Relaxed);
            match &shared.commit {
                CommitMode::Async => {
                    store.remove(sess, &key);
                    Response::Ok
                }
                CommitMode::PerRequest => {
                    let mut b = sess.batch();
                    match b.delete(&key).and_then(|()| b.commit_durable().map(|_| ())) {
                        Ok(()) => Response::Ok,
                        Err(e) => Response::Error(e.to_string()),
                    }
                }
                CommitMode::Group => {
                    submit_grouped(shared, job.conn, job.seq, GroupOp::Del { key });
                    return;
                }
            }
        }
        Request::Batch { ops } => {
            c.batches.fetch_add(1, Ordering::Relaxed);
            if matches!(&shared.commit, CommitMode::Group) {
                // Ride the committer queue so this connection's writes
                // stay in request order relative to its grouped
                // puts/dels; the batch still commits as its own atomic
                // WriteBatch.
                submit_grouped(shared, job.conn, job.seq, GroupOp::Batch { ops });
                return;
            }
            let mut b = sess.batch();
            let staged = ops.iter().try_for_each(|op| match op {
                BatchOp::Put { key, val } => b.put(key, val),
                BatchOp::Del { key } => b.delete(key),
            });
            match staged.and_then(|()| b.commit_durable()) {
                Ok(id) => Response::Committed(id),
                Err(e) => Response::Error(e.to_string()),
            }
        }
        Request::Scan { start, limit } => {
            c.scans.fetch_add(1, Ordering::Relaxed);
            let found = store.range(sess, &start[..]..).take(limit as usize);
            match collect_scan(found, MAX_FRAME_BYTES) {
                Some(entries) => Response::Entries(entries),
                None => Response::Error("scan reply exceeds frame cap; lower limit".to_string()),
            }
        }
        Request::Stats => Response::Stats(stats_json(shared)),
    };
    job.conn.complete(job.seq, frame_of(&resp));
}

/// Collects a SCAN reply's entries, or `None` as soon as the reply would
/// pass `cap` payload bytes: an oversized frame would desync (or be
/// refused by) the client, and the rest of the walk would be wasted.
fn collect_scan(
    found: impl Iterator<Item = (Vec<u8>, Vec<u8>)>,
    cap: usize,
) -> Option<Vec<(Vec<u8>, Vec<u8>)>> {
    let mut entries = Vec::new();
    let mut payload = ENTRIES_HEADER_LEN;
    for (k, v) in found {
        payload += entry_wire_len(&k, &v);
        if payload > cap {
            return None;
        }
        entries.push((k, v));
    }
    Some(entries)
}

/// Routes a write through the group committer; the completion runs on
/// the committer thread once the write's group is durable.
fn submit_grouped(shared: &Arc<Shared>, conn: Arc<Conn>, seq: u64, op: GroupOp) {
    let group = shared.group.as_ref().expect("Group mode has a committer");
    let batch_reply = matches!(op, GroupOp::Batch { .. });
    group.submit(
        op,
        Box::new(move |outcome| {
            let resp = match outcome {
                Ok(id) if batch_reply => Response::Committed(id),
                Ok(_) => Response::Ok,
                Err(msg) => Response::Error(msg),
            };
            conn.complete(seq, frame_of(&resp));
        }),
    );
}

/// Hand-rolled flat JSON object — the protocol's one schemaless reply.
fn stats_json(shared: &Shared) -> String {
    let c = &shared.counters;
    let (groups, grouped_ops) = shared.group.as_ref().map_or((0, 0), |g| g.stats());
    let pm = shared.store.arena().stats().snapshot();
    let forced: u64 = (0..shared.store.shard_count())
        .map(|i| shared.store.shard_stats(i).advances_forced)
        .sum();
    let mode = match &shared.commit {
        CommitMode::PerRequest => "per_request",
        CommitMode::Group => "group",
        CommitMode::Async => "async",
    };
    format!(
        concat!(
            "{{\"commit_mode\":\"{}\",\"connections\":{},\"requests\":{},",
            "\"gets\":{},\"puts\":{},\"dels\":{},\"batches\":{},\"scans\":{},",
            "\"wire_errors\":{},\"groups_committed\":{},\"ops_grouped\":{},",
            "\"forced_boundaries\":{},\"sfences\":{},\"clwbs\":{},\"shards\":{}}}"
        ),
        mode,
        c.conns.load(Ordering::Relaxed),
        c.requests.load(Ordering::Relaxed),
        c.gets.load(Ordering::Relaxed),
        c.puts.load(Ordering::Relaxed),
        c.dels.load(Ordering::Relaxed),
        c.batches.load(Ordering::Relaxed),
        c.scans.load(Ordering::Relaxed),
        c.wire_errors.load(Ordering::Relaxed),
        groups,
        grouped_ops,
        forced,
        pm.sfence,
        pm.clwb,
        shared.store.shard_count(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_capped_scan_stops_pulling_once_the_cap_is_passed() {
        // 100-byte values: entry n + 1 is the first past a cap sized for
        // n of them, and nothing behind it may be pulled.
        let per_entry = entry_wire_len(&[0u8; 8], &[0u8; 100]);
        let n = 7;
        let cap = ENTRIES_HEADER_LEN + n * per_entry + per_entry / 2;
        let mut pulled = 0usize;
        let endless = std::iter::repeat_with(|| {
            pulled += 1;
            (vec![0u8; 8], vec![0u8; 100])
        });
        assert_eq!(collect_scan(endless, cap), None);
        assert_eq!(pulled, n + 1);

        let entries = collect_scan(
            std::iter::repeat_with(|| (vec![1u8; 8], vec![2u8; 100])).take(n),
            cap,
        )
        .expect("n entries fit");
        assert_eq!(entries.len(), n);
    }
}
