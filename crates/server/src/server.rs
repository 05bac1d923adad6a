//! The TCP front-end: run-to-completion connections on N session slots.
//!
//! ```text
//!                 ┌────────────── one thread per connection ──────────────┐
//!  conn 1 ──read──▶ decode ─▶ execute in order ─▶ commit the drain's ─▶ write ──▶ conn 1
//!  conn 2 ──read──▶ decode ─▶ on its slot's       writes as one      ─▶ write ──▶ conn 2
//!    ...                       Session            durable group          ...
//!  conn M ──read──▶ decode ─▶ (slot = M mod N)                        ─▶ write ──▶ conn M
//! ```
//!
//! A connection's thread reads whatever has arrived, and
//! [`Service::serve_buffered`] turns those bytes into reply bytes: it
//! decodes every whole frame, executes them in request order on the
//! connection's **session slot** — one of N [`Session`]s from the store's
//! bounded pool, so M ≫ N connections share N sessions — commits the
//! drain's `PUT`/`DEL`/`BATCH` writes as one durable group, and encodes
//! every reply, in request order, into one buffer that leaves in one
//! `write`. The slot is locked only inside that call, never across
//! socket I/O, so a client that stops reading blocks its own thread in
//! `write` and nobody else.
//!
//! One thread executes a connection's requests serially, so its writes
//! reach the store — and durability — in request order, and its replies
//! leave in request order: there is nothing to reorder. A `GET` executes
//! at its position; grouped writes apply when their drain's group
//! commits, so a `GET` pipelined behind an unacknowledged `PUT` may still
//! read the old value (the ack is the visibility point), and never sees a
//! `PUT` that follows it.
//!
//! Backpressure is counted in bytes: a drain stops taking frames once it
//! owes [`DRAIN_BYTES`] of replies, and the read buffer holds that much
//! plus one frame, so a connection pins about one frame cap
//! ([`MAX_FRAME_BYTES`]) plus [`DRAIN_BYTES`] each way. What piles up
//! in the socket while a drain commits is the next drain.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use incll::{Error, Session, Store, WriteBatch, MAX_BATCH_OPS};

use crate::protocol::{
    decode_request_ref, encode_response, encode_value, entry_wire_len, frame_len, BatchOpRef,
    RequestRef, Response, ENTRIES_HEADER_LEN, MAX_FRAME_BYTES, OK_FRAME,
};

/// How long blocked socket reads and writes wait before re-checking the
/// stop flag.
const SOCKET_POLL: Duration = Duration::from_millis(50);

/// Reply bytes (acks still owed included) at which a drain stops taking
/// frames, and the size of a connection's read buffer before a longer
/// frame grows it.
pub const DRAIN_BYTES: usize = 64 << 10;

/// How (and when) a PUT or DEL becomes durable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitMode {
    /// The writes of one drain — everything a connection had sent by
    /// the time its thread read the socket — commit together, and their
    /// responses are sent only once that group is durable. The next read
    /// is the next group: no timer, no option. A `BATCH` commits at its
    /// position as its own atomic commit, keeping the connection's
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
    /// Session slots drawn from the store's pool; connections are dealt
    /// onto them round-robin.
    pub workers: usize,
    /// Durability discipline for PUT and DEL (BATCH is always durable).
    pub commit: CommitMode,
    /// How long `Server::start` waits for each slot's session before
    /// giving up with [`Error::SessionTimeout`].
    pub session_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            commit: CommitMode::Group,
            session_timeout: Duration::from_secs(5),
        }
    }
}

/// Atomic counters, surfaced by the STATS opcode.
#[derive(Default)]
struct Counters {
    conns: AtomicU64,
    live: AtomicU64,
    requests: AtomicU64,
    gets: AtomicU64,
    puts: AtomicU64,
    dels: AtomicU64,
    batches: AtomicU64,
    scans: AtomicU64,
    wire_errors: AtomicU64,
    /// Durable group commits (fence-bearing), and the writes that rode
    /// in them.
    groups: AtomicU64,
    grouped_ops: AtomicU64,
}

/// What every connection's thread shares: the store, the commit mode,
/// the session slots and the counters. Usable without a socket — a
/// connection is [`Service::serve_buffered`] between a `read` and a
/// `write`.
pub struct Service {
    store: Store,
    commit: CommitMode,
    slots: Vec<Mutex<Session>>,
    /// Raised by [`Server::shutdown`].
    stop: AtomicBool,
    counters: Counters,
}

impl Service {
    /// Draws `cfg.workers` sessions (at least one) with
    /// [`Store::session_blocking`], so a pool too small for them fails
    /// here with [`Error::SessionTimeout`] instead of wedging a
    /// connection later.
    pub fn new(store: Store, cfg: &ServerConfig) -> Result<Service, Error> {
        let slots = (0..cfg.workers.max(1))
            .map(|_| store.session_blocking(cfg.session_timeout).map(Mutex::new))
            .collect::<Result<_, _>>()?;
        Ok(Service {
            store,
            commit: cfg.commit.clone(),
            slots,
            stop: AtomicBool::new(false),
            counters: Counters::default(),
        })
    }

    /// `(durable group commits, writes that rode in them)`; `BATCH`
    /// frames are not counted, and other commit modes never group.
    pub fn group_stats(&self) -> (u64, u64) {
        (
            self.counters.groups.load(Ordering::Relaxed),
            self.counters.grouped_ops.load(Ordering::Relaxed),
        )
    }

    /// One drain: executes the whole frames at the head of `input`, in
    /// order, on session slot `slot` (modulo the slot count), appends
    /// their replies to `out` in the same order, and returns the bytes of
    /// `input` consumed. It stops at an incomplete frame, at an over-cap
    /// length prefix (the caller's to answer: the stream cannot be
    /// resynchronised), or once the replies reach [`DRAIN_BYTES`] —
    /// call again with the rest.
    ///
    /// In [`CommitMode::Group`] a `PUT` or `DEL` stages into an open
    /// batch and leaves a hole in `out`; the batch commits in chunks of
    /// at most [`MAX_BATCH_OPS`] and at the end of the drain, and only
    /// then are the holes filled, so an `OK` is encoded only after the
    /// `commit_durable` that carried it returned.
    pub fn serve_buffered(&self, slot: usize, input: &[u8], out: &mut Vec<u8>) -> usize {
        let sess = self.slots[slot % self.slots.len()]
            .lock()
            .expect("a connection panicked holding this session slot");
        let mut drain = Drain {
            svc: self,
            sess: &sess,
            input,
            batch: sess.batch(),
            staged: Vec::new(),
            failed: Vec::new(),
            out,
        };
        let (base, mut at) = (drain.out.len(), 0);
        while drain.out.len() - base < DRAIN_BYTES {
            let rest = &input[at..];
            match frame_len(rest) {
                Ok(Some(n)) if n <= rest.len() => {
                    drain.execute(at + 4..at + n);
                    at += n;
                }
                _ => break,
            }
        }
        drain.finish();
        at
    }
}

/// The state of one [`Service::serve_buffered`] call.
struct Drain<'a> {
    svc: &'a Service,
    sess: &'a Session,
    input: &'a [u8],
    out: &'a mut Vec<u8>,
    /// The open chunk of the drain's group. No [`incll::ValueRef`] is
    /// alive when it commits: a `GET` drops its borrow before returning.
    batch: WriteBatch<'a>,
    /// The open chunk's writes: reply hole in `out`, payload in `input`
    /// (kept for the per-op fallback).
    staged: Vec<(usize, std::ops::Range<usize>)>,
    /// Holes that get an `ERROR` instead of an `OK`, with the message.
    failed: Vec<(usize, String)>,
}

impl Drain<'_> {
    fn reply(&mut self, resp: &Response) {
        encode_response(resp, self.out);
    }

    /// Executes the request whose payload is `input[frame]`.
    fn execute(&mut self, frame: std::ops::Range<usize>) {
        let (svc, sess, input) = (self.svc, self.sess, self.input);
        let (store, c) = (&svc.store, &svc.counters);
        c.requests.fetch_add(1, Ordering::Relaxed);
        let req = match decode_request_ref(&input[frame.clone()]) {
            Ok(req) => req,
            Err(e) => {
                // The frame is intact, so the stream survives its payload.
                c.wire_errors.fetch_add(1, Ordering::Relaxed);
                return self.reply(&Response::Error(e.to_string()));
            }
        };
        match req {
            RequestRef::Get(key) => {
                c.gets.fetch_add(1, Ordering::Relaxed);
                // Encode straight from the borrow — one copy, into the reply.
                match store.get_ref(sess, key) {
                    Some(val) => encode_value(&val, self.out),
                    None => self.reply(&Response::NotFound),
                }
            }
            RequestRef::Write(op) => {
                match op {
                    BatchOpRef::Put(..) => c.puts.fetch_add(1, Ordering::Relaxed),
                    BatchOpRef::Del(_) => c.dels.fetch_add(1, Ordering::Relaxed),
                };
                if svc.commit == CommitMode::Group {
                    return self.stage(&op, frame);
                }
                let done = match op {
                    BatchOpRef::Put(key, val) => store.put(sess, key, val).map(|_| ()),
                    BatchOpRef::Del(key) => {
                        store.remove(sess, key);
                        Ok(())
                    }
                };
                match done {
                    Ok(()) => self.reply(&Response::Ok),
                    Err(e) => self.reply(&Response::Error(e.to_string())),
                }
            }
            RequestRef::Batch(ops) => {
                c.batches.fetch_add(1, Ordering::Relaxed);
                // A flush point: the writes before it commit first, then it
                // commits alone — atomic, under its own id, not counted as
                // a group.
                self.commit_open();
                match commit_alone(sess, &ops) {
                    Ok(id) => self.reply(&Response::Committed(id)),
                    Err(e) => self.reply(&Response::Error(e.to_string())),
                }
            }
            RequestRef::Scan(start, limit) => {
                c.scans.fetch_add(1, Ordering::Relaxed);
                let found = store.range(sess, start..).take(limit as usize);
                match collect_scan(found, MAX_FRAME_BYTES) {
                    Some(entries) => self.reply(&Response::Entries(entries)),
                    None => self.reply(&Response::Error(
                        "scan reply exceeds frame cap; lower limit".to_string(),
                    )),
                }
            }
            RequestRef::Stats => self.reply(&Response::Stats(stats_json(svc))),
        }
    }

    /// Adds a grouped write to the open chunk and leaves its reply hole.
    fn stage(&mut self, op: &BatchOpRef<'_>, frame: std::ops::Range<usize>) {
        let hole = self.out.len();
        self.out.extend_from_slice(&[0; OK_FRAME.len()]);
        match stage(&mut self.batch, op) {
            Ok(()) => self.staged.push((hole, frame)),
            // A single bad write (oversized value) must not poison its
            // neighbours: it fails alone.
            Err(e) => self.failed.push((hole, e.to_string())),
        }
        if self.staged.len() == MAX_BATCH_OPS {
            self.commit_open();
        }
    }

    /// Commits the open chunk durably and acks its writes.
    fn commit_open(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        let c = &self.svc.counters;
        let batch = std::mem::replace(&mut self.batch, self.sess.batch());
        let committed = batch.commit_durable().is_ok();
        if committed {
            c.groups.fetch_add(1, Ordering::Relaxed);
            c.grouped_ops
                .fetch_add(self.staged.len() as u64, Ordering::Relaxed);
        }
        for (hole, frame) in self.staged.drain(..) {
            // A store-level failure (say one shard's pool is exhausted)
            // aborted the whole chunk before anything durable happened.
            // Error-acking every rider would poison writes that are
            // individually fine, so each commits again alone and only
            // those that truly cannot commit are refused.
            let alone = if committed {
                Ok(())
            } else {
                let Ok(RequestRef::Write(op)) = decode_request_ref(&self.input[frame]) else {
                    unreachable!("staged from this frame")
                };
                commit_alone(self.sess, std::slice::from_ref(&op)).map(|_| {
                    c.groups.fetch_add(1, Ordering::Relaxed);
                    c.grouped_ops.fetch_add(1, Ordering::Relaxed);
                })
            };
            match alone {
                Ok(()) => self.out[hole..hole + OK_FRAME.len()].copy_from_slice(&OK_FRAME),
                Err(e) => self.failed.push((hole, e.to_string())),
            }
        }
    }

    /// Commits what is still open and widens the refused writes' holes
    /// into their `ERROR` frames, last first so earlier offsets hold.
    fn finish(mut self) {
        self.commit_open();
        self.failed.sort_unstable_by_key(|f| std::cmp::Reverse(f.0));
        for (hole, msg) in self.failed {
            let mut frame = Vec::new();
            encode_response(&Response::Error(msg), &mut frame);
            self.out.splice(hole..hole + OK_FRAME.len(), frame);
        }
    }
}

fn stage(batch: &mut WriteBatch<'_>, op: &BatchOpRef<'_>) -> Result<(), Error> {
    match op {
        BatchOpRef::Put(key, val) => batch.put(key, val),
        BatchOpRef::Del(key) => batch.delete(key),
    }
}

/// Commits `ops` durably as one atomic batch of their own (all or
/// nothing: a bad op fails them all); returns the batch id.
fn commit_alone(sess: &Session, ops: &[BatchOpRef<'_>]) -> Result<u64, Error> {
    let mut batch = sess.batch();
    ops.iter().try_for_each(|op| stage(&mut batch, op))?;
    batch.commit_durable()
}

/// A running server; dropping it (or calling [`Server::shutdown`])
/// stops every thread.
pub struct Server {
    svc: Arc<Service>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Draws the session slots (see [`Service::new`]) and starts serving
    /// `listener`: one acceptor thread, then one thread per connection.
    pub fn start(store: Store, listener: TcpListener, cfg: ServerConfig) -> Result<Server, Error> {
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        listener
            .set_nonblocking(true)
            .expect("set_nonblocking on listener");
        let svc = Arc::new(Service::new(store, &cfg)?);
        let conns = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let (svc, conns) = (Arc::clone(&svc), Arc::clone(&conns));
            std::thread::Builder::new()
                .name("incll-acceptor".into())
                .spawn(move || accept_loop(&svc, &listener, &conns))
                .map_err(|e| Error::Internal(format!("spawn acceptor thread: {e}")))?
        };
        Ok(Server {
            svc,
            addr,
            acceptor: Some(acceptor),
            conns,
        })
    }

    /// The address the server is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// [`Service::group_stats`].
    pub fn group_stats(&self) -> (u64, u64) {
        self.svc.group_stats()
    }

    /// Stops accepting and joins every thread. A drain in progress
    /// completes and its replies are written (unless the client has
    /// stopped reading, in which case the write gives up at its next
    /// poll); requests not yet read off a socket are dropped with it.
    pub fn shutdown(&mut self) {
        self.svc.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().expect("no code panics holding it"));
        for t in conns {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Counts a connection live from accept until its thread (or the closure
/// that never became one) is dropped — even by panic.
struct Live(Arc<Service>);

impl Drop for Live {
    fn drop(&mut self) {
        self.0.counters.live.fetch_sub(1, Ordering::Relaxed);
    }
}

fn accept_loop(svc: &Arc<Service>, listener: &TcpListener, conns: &Mutex<Vec<JoinHandle<()>>>) {
    let mut accepted = 0usize;
    while !svc.stop.load(Ordering::SeqCst) {
        let Ok((sock, _)) = listener.accept() else {
            // Nobody waiting — or a transient refusal (`EMFILE`,
            // `ECONNABORTED`): that connection is shed, the server keeps
            // accepting.
            std::thread::sleep(Duration::from_millis(5));
            continue;
        };
        svc.counters.conns.fetch_add(1, Ordering::Relaxed);
        svc.counters.live.fetch_add(1, Ordering::Relaxed);
        let live = Live(Arc::clone(svc));
        let _ = sock.set_nodelay(true);
        // Finite timeouts let blocked reads and writes poll `stop`.
        let _ = sock.set_read_timeout(Some(SOCKET_POLL));
        let _ = sock.set_write_timeout(Some(SOCKET_POLL));
        let slot = accepted;
        accepted = accepted.wrapping_add(1);
        // When the OS refuses the thread the closure drops: the socket
        // closes and the connection is no longer live.
        let spawned = std::thread::Builder::new()
            .name("incll-conn".into())
            .spawn(move || conn_loop(&live.0, sock, slot));
        let mut conns = conns.lock().expect("no code panics holding it");
        // A finished thread has nothing left to join: let go of its handle,
        // so a long-lived server does not keep one per connection ever
        // served.
        conns.retain(|t| !t.is_finished());
        conns.extend(spawned);
    }
}

/// One connection, start to finish: read what has arrived, serve it,
/// write the replies. The buffer is accumulated by hand, so a read
/// timeout mid-frame loses nothing.
fn conn_loop(svc: &Service, mut sock: TcpStream, slot: usize) {
    let mut buf = vec![0u8; DRAIN_BYTES];
    let (mut start, mut end) = (0, 0);
    let mut out = Vec::new();
    loop {
        let head = frame_len(&buf[start..end]);
        if matches!(head, Ok(Some(n)) if n <= end - start) {
            // A whole frame is buffered: a drain serves at least that one.
            start += svc.serve_buffered(slot, &buf[start..end], &mut out);
            if write_poll(&mut sock, &out, &svc.stop).is_err() {
                return;
            }
            out.clear();
            continue; // a drain that met its reply budget leaves whole frames
        }
        // The frame at the head is incomplete: make room for all of it.
        let need = match head {
            Ok(frame) => frame.unwrap_or(0),
            Err(e) => {
                // The stream cannot be resynchronised past a length the
                // server will not read: answer in order and hang up.
                svc.counters.requests.fetch_add(1, Ordering::Relaxed);
                svc.counters.wire_errors.fetch_add(1, Ordering::Relaxed);
                encode_response(&Response::Error(e.to_string()), &mut out);
                let _ = write_poll(&mut sock, &out, &svc.stop);
                return;
            }
        };
        if svc.stop.load(Ordering::SeqCst) {
            return;
        }
        buf.copy_within(start..end, 0);
        (start, end) = (0, end - start);
        if buf.len() < need {
            buf.resize(need, 0);
        } else if end == 0 && buf.len() > DRAIN_BYTES {
            buf.truncate(DRAIN_BYTES);
            buf.shrink_to_fit();
        }
        match sock.read(&mut buf[end..]) {
            Ok(0) => return, // closed, cleanly or mid-frame
            Ok(n) => end += n,
            Err(e) if is_poll_tick(&e) => {}
            Err(_) => return,
        }
    }
}

/// A socket timeout (or a signal): nothing moved, poll `stop` and retry.
fn is_poll_tick(e: &io::Error) -> bool {
    use io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    matches!(e.kind(), WouldBlock | TimedOut | Interrupted)
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
            Err(e) if is_poll_tick(&e) => {
                if stop.load(Ordering::SeqCst) {
                    return Err(io::ErrorKind::ConnectionAborted.into());
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
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

/// Hand-rolled flat JSON object — the protocol's one schemaless reply.
/// `connections` is cumulative; `live_connections` is accepted minus
/// exited, so the server is running `1 + live_connections` threads.
/// `in_doubt_log_bytes` is the largest shard's share of committed intents
/// no boundary has retired yet — what a crash right now would redo there
/// — under `commit_runs_live` commit records; `log_bytes_held` is the
/// external log's footprint summed over shards, segments held and free
/// ([`incll::ShardStats::log_bytes_held`]); `forced_boundaries` counts
/// the checkpoints writes had to force: the log-room rule, which every
/// put, remove and commit obeys whatever the commit mode, and a full run
/// table.
fn stats_json(svc: &Service) -> String {
    let c = &svc.counters;
    let (groups, grouped_ops) = svc.group_stats();
    let pm = svc.store.arena().stats().snapshot();
    let shards: Vec<_> = (0..svc.store.shard_count())
        .map(|i| svc.store.shard_stats(i))
        .collect();
    let forced: u64 = shards.iter().map(|s| s.advances_forced).sum();
    let in_doubt = shards.iter().map(|s| s.in_doubt_log_bytes).max();
    let held: u64 = shards.iter().map(|s| s.log_bytes_held).sum();
    let mode = match &svc.commit {
        CommitMode::Group => "group",
        CommitMode::Async => "async",
    };
    format!(
        concat!(
            "{{\"commit_mode\":\"{}\",\"connections\":{},\"live_connections\":{},",
            "\"requests\":{},\"gets\":{},\"puts\":{},\"dels\":{},\"batches\":{},",
            "\"scans\":{},\"wire_errors\":{},\"groups_committed\":{},\"ops_grouped\":{},",
            "\"forced_boundaries\":{},\"commit_runs_live\":{},\"in_doubt_log_bytes\":{},",
            "\"log_bytes_held\":{},",
            "\"sfences\":{},\"clwbs\":{},\"shards\":{}}}"
        ),
        mode,
        c.conns.load(Ordering::Relaxed),
        c.live.load(Ordering::Relaxed),
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
        svc.store.commit_runs_live(),
        in_doubt.unwrap_or(0),
        held,
        pm.sfence,
        pm.clwb,
        shards.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_response, encode_request, read_frame, BatchOp, Request};
    use incll::Options;
    use incll_pmem::PArena;

    fn service_on(arena_bytes: usize, options: Options) -> (Store, Session, Service) {
        let arena = PArena::builder().capacity_bytes(arena_bytes).build();
        let (store, _) = Store::open(Box::leak(Box::new(arena.unwrap())), options).unwrap();
        let sess = store.session().unwrap();
        let svc = Service::new(store.clone(), &ServerConfig::default()).unwrap();
        (store, sess, svc)
    }

    fn service() -> (Store, Session, Service) {
        let options = Options::new().threads(4).log_bytes_per_thread(4 << 20);
        service_on(64 << 20, options)
    }

    fn put(key: &[u8], val: &[u8]) -> Request {
        Request::Put {
            key: key.to_vec(),
            val: val.to_vec(),
        }
    }

    fn frames(reqs: &[Request]) -> Vec<u8> {
        let mut buf = Vec::new();
        for req in reqs {
            encode_request(req, &mut buf);
        }
        buf
    }

    fn replies(mut out: &[u8]) -> Vec<Response> {
        let mut all = Vec::new();
        while let Some(payload) = read_frame(&mut out).unwrap() {
            all.push(decode_response(&payload).unwrap());
        }
        all
    }

    /// Serves all of `input` (whole frames only), one drain per call.
    fn serve_all(svc: &Service, input: &[u8]) -> (Vec<Response>, usize) {
        let (mut out, mut at, mut drains) = (Vec::new(), 0, 0);
        while at < input.len() {
            let n = svc.serve_buffered(0, &input[at..], &mut out);
            assert!(n > 0, "a whole frame is buffered");
            at += n;
            drains += 1;
        }
        (replies(&out), drains)
    }

    #[test]
    fn the_writes_of_one_drain_are_one_group_chunked_at_the_batch_cap() {
        // 100 writes: one group. 1100: one drain over the batch cap, so
        // two chunks (each its own durable commit).
        for n in [100u64, 1100] {
            let (store, sess, svc) = service();
            let reqs: Vec<_> = (0..n)
                .map(|i| put(&i.to_be_bytes(), &[i as u8; 64]))
                .collect();
            let (got, drains) = serve_all(&svc, &frames(&reqs));
            assert_eq!(drains, 1);
            assert_eq!(got, vec![Response::Ok; n as usize]);
            assert_eq!(svc.group_stats(), (n.div_ceil(MAX_BATCH_OPS as u64), n));
            for i in 0..n {
                assert_eq!(store.get(&sess, &i.to_be_bytes()), Some(vec![i as u8; 64]));
            }
        }
    }

    #[test]
    fn queue_order_is_durability_order_across_puts_dels_and_batches() {
        let (store, sess, svc) = service();
        let k = b"contended".to_vec();
        // put v1, BATCH{put v2}, del, put v3 — all on one key, back to
        // back. Wherever the group boundaries fall, the final state must
        // be the *last* request's.
        let reqs = [
            put(&k, b"v1"),
            Request::Batch {
                ops: vec![BatchOp::Put {
                    key: k.clone(),
                    val: b"v2".to_vec(),
                }],
            },
            Request::Del { key: k.clone() },
            put(&k, b"v3"),
        ];
        let (got, _) = serve_all(&svc, &frames(&reqs));
        let [Response::Ok, Response::Committed(id), Response::Ok, Response::Ok] = got[..] else {
            panic!("got {got:?}");
        };
        assert!(id >= 1, "a standalone batch reports a real batch id");
        assert_eq!(store.get(&sess, &k), Some(b"v3".to_vec()));
        // The batch is a flush point: three commits, in request order, the
        // batch's id between the two groups' (and not counted as one).
        assert_eq!(svc.group_stats(), (2, 3));
        let mut next = sess.batch();
        next.put(b"other", b"4").unwrap();
        assert_eq!(next.commit_durable().unwrap(), id + 2);
    }

    #[test]
    fn a_get_reads_the_pre_drain_value_between_two_puts_of_its_key() {
        let (store, sess, svc) = service();
        store.put(&sess, b"k", b"old").unwrap();
        let get = Request::Get { key: b"k".to_vec() };
        let (got, _) = serve_all(
            &svc,
            &frames(&[put(b"k", b"new"), get, put(b"k", b"newer")]),
        );
        assert_eq!(
            got,
            [Response::Ok, Response::Value(b"old".to_vec()), Response::Ok]
        );
        assert_eq!(svc.group_stats(), (1, 2));
        assert_eq!(store.get(&sess, b"k"), Some(b"newer".to_vec()));
    }

    #[test]
    fn a_drain_stops_at_the_reply_budget_and_resumes_in_order() {
        let (store, sess, svc) = service();
        for i in 0..4u8 {
            store.put(&sess, &[i], &[i; 4000]).unwrap();
        }
        // 100 × ~4 KB replies: a drain owes at most the budget plus the
        // reply that crossed it.
        let reqs: Vec<_> = (0..100u8)
            .map(|i| Request::Get { key: vec![i % 4] })
            .collect();
        let input = frames(&reqs);
        let mut first = Vec::new();
        let n = svc.serve_buffered(0, &input, &mut first);
        assert!(n < input.len(), "the first drain must stop short");
        assert!((DRAIN_BYTES..DRAIN_BYTES + 4000 + 5).contains(&first.len()));
        let (got, drains) = serve_all(&svc, &input);
        assert!(drains > 1);
        let want: Vec<_> = (0..100u8)
            .map(|i| Response::Value(vec![i % 4; 4000]))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn an_oversized_value_fails_alone_without_poisoning_the_group() {
        let (store, sess, svc) = service();
        let reqs = [
            put(b"good-1", b"x"),
            put(b"bad", &vec![0u8; incll::MAX_VALUE_BYTES + 1]),
            put(b"good-2", b"y"),
        ];
        let (got, _) = serve_all(&svc, &frames(&reqs));
        assert_eq!(got[0], Response::Ok);
        assert!(matches!(got[1], Response::Error(_)), "got {:?}", got[1]);
        assert_eq!(got[2], Response::Ok);
        assert_eq!(svc.group_stats(), (1, 2));
        assert_eq!(store.get(&sess, b"good-2"), Some(b"y".to_vec()));
        assert_eq!(store.get(&sess, b"bad"), None);
    }

    #[test]
    fn a_full_shard_error_acks_only_the_affected_writes() {
        // A store-level OutOfMemory inside a group (one shard's
        // extent pool exhausted) must not poison the whole group or the
        // connection: riders on healthy shards still commit and ack
        // `OK`, only the writes that truly cannot commit ack `ERROR`, and
        // later drains keep working.
        let options = Options::new()
            .threads(4)
            .log_bytes_per_thread(1 << 20)
            .shards(2);
        let (store, sess, svc) = service_on(16 << 20, options);
        let key_on = |shard: usize, tag: u64| -> Vec<u8> {
            (0u64..)
                .map(|i| format!("gk{tag}-{i}").into_bytes())
                .find(|k| store.shard_of(k) == shard)
                .unwrap()
        };

        // Exhaust shard 0 by overwriting a fixed working set (updates
        // only, so exhaustion is always a typed value-buffer error).
        let hot: Vec<Vec<u8>> = (0..16).map(|t| key_on(0, t)).collect();
        for k in &hot {
            store.put(&sess, k, b"seed").unwrap();
        }
        store.checkpoint();
        let big = vec![0x5au8; 3000];
        let mut i = 0usize;
        while store.put(&sess, &hot[i % hot.len()], &big).is_ok() {
            i += 1;
        }

        // One group: a healthy-shard put, a doomed full-shard put, and a
        // delete on the full shard (no allocation — fine).
        let healthy = key_on(1, 900);
        let reqs = [
            put(&healthy, b"survives"),
            put(&hot[0], &big),
            Request::Del {
                key: hot[1].clone(),
            },
        ];
        let (got, drains) = serve_all(&svc, &frames(&reqs));
        assert_eq!(drains, 1);
        assert_eq!(got[0], Response::Ok, "healthy-shard write must commit");
        assert!(
            matches!(got[1], Response::Error(_)),
            "full-shard write must error-ack"
        );
        assert_eq!(got[2], Response::Ok, "allocation-free op must commit");
        assert_eq!(
            store.get(&sess, &healthy),
            Some(b"survives".to_vec()),
            "the healthy rider's bytes must be applied"
        );
        assert_eq!(store.get(&sess, &hot[1]), None, "delete must apply");

        // A later drain still commits.
        let (got, _) = serve_all(&svc, &frames(&[put(&key_on(1, 901), b"later")]));
        assert_eq!(got, [Response::Ok]);
    }

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
