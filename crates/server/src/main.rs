//! `incll-server` — serve an InCLL store over TCP.
//!
//! ```text
//! incll-server [--addr HOST:PORT] [--mem MIB] [--shards N] [--threads N]
//!              [--workers N] [--commit group|async]
//! ```
//!
//! `--workers` is the number of session slots the connections share.
//! `group` (the default) has nothing to tune: a connection's thread
//! commits together whatever writes had arrived when it read its socket.
//! Nor is there a checkpoint cadence to set: a shard's epoch ends when a
//! write finds its log buffer short, or the shard's log at its bound of
//! one buffer's cap plus a segment per slot, so what a crash can leave to
//! redo is bounded in bytes (`in_doubt_log_bytes` in `STATS`, at most the
//! bound printed at start-up), not in time.
//!
//! The store lives in an in-memory persistent-arena emulation; the
//! binary exists to put the full network stack (framing, pipelining,
//! group commit) under real sockets and real load generators.

use std::net::TcpListener;
use std::process::ExitCode;
use std::time::Duration;

use incll::{Options, Store};
use incll_pmem::PArena;
use incll_server::{CommitMode, Server, ServerConfig};

struct Args {
    addr: String,
    mem_mib: usize,
    shards: usize,
    threads: usize,
    workers: usize,
    commit: CommitMode,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7700".into(),
        mem_mib: 256,
        shards: 4,
        threads: 8,
        workers: 4,
        commit: CommitMode::Group,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = val("--addr")?,
            "--mem" => args.mem_mib = num(&val("--mem")?)?,
            "--shards" => args.shards = num(&val("--shards")?)?,
            "--threads" => args.threads = num(&val("--threads")?)?,
            "--workers" => args.workers = num(&val("--workers")?)?,
            "--commit" => {
                args.commit = match val("--commit")?.as_str() {
                    "group" => CommitMode::Group,
                    "async" => CommitMode::Async,
                    other => return Err(format!("unknown commit mode {other}")),
                }
            }
            "--help" | "-h" => {
                return Err("usage: incll-server [--addr HOST:PORT] [--mem MIB] \
                            [--shards N] [--threads N] [--workers N] \
                            [--commit group|async]\n\
                            no checkpoint cadence to set: in_doubt_log_bytes \
                            (STATS) bounds what a crash redoes"
                    .into())
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn num(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("not a number: {s}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let arena = match PArena::builder().capacity_bytes(args.mem_mib << 20).build() {
        Ok(a) => Box::leak(Box::new(a)),
        Err(e) => {
            eprintln!("arena: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Store speed differs by a quarter with and without huge pages under
    // the arena; say which this host gave.
    println!(
        "arena: {} MiB, huge pages {}",
        arena.capacity() >> 20,
        if arena.huge_pages_advised() {
            "advised"
        } else {
            "refused"
        }
    );
    // The session slots, and one to spare for whoever embeds the store.
    let threads = args.threads.max(args.workers + 1);
    let options = Options::new().threads(threads).shards(args.shards);
    let (store, report) = match Store::open(arena, options) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("store: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !report.created {
        eprintln!("recovered: {report:?}");
    }
    // No cadence runs here: a shard's epoch ends when a write finds its
    // log buffer short or the shard's log at its bound, so this is what a
    // crash can leave to redo.
    println!(
        "commit log: at most {} KiB in doubt per shard ({} shards)",
        store.in_doubt_bound_bytes() >> 10,
        store.shard_count()
    );
    let listener = match TcpListener::bind(&args.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let cfg = ServerConfig {
        workers: args.workers,
        commit: args.commit,
        session_timeout: Duration::from_secs(5),
    };
    let server = match Server::start(store, listener, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("incll-server listening on {}", server.local_addr());
    // Serve until killed; the driver scripts stop us with a signal.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
