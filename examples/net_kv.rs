//! The store behind a socket: an in-process TCP front-end with group
//! commit, driven through `incll_server::Client` — a durable bulk load
//! over BATCH frames, an acked PUT followed by pipelined GET/SCAN round
//! trips, a pipelined PUT burst the server commits in groups, and the
//! server's own STATS counters to close the books. (Load generation with
//! latency percentiles is the repo benchmark's `net_put` / `net_open`.)
//!
//! Run with: `cargo run --release --example net_kv`

use std::net::TcpListener;
use std::time::Instant;

use incll_repro::prelude::*;
use incll_server::{BatchOp, Client, CommitMode, Request, Response, Server, ServerConfig};

const KEYS: u64 = 20_000;
const WORKERS: usize = 2;
/// Puts per durable BATCH frame of the bulk load.
const LOAD_CHUNK: usize = 512;
/// Requests the burst keeps in flight.
const PIPELINE: usize = 64;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arena = PArena::builder().capacity_bytes(256 << 20).build()?;
    // The server's session slots + a spare for ad-hoc sessions.
    let options = Options::new()
        .threads(WORKERS + 1)
        .log_bytes_per_thread(16 << 20)
        .shards(2);
    let (store, _) = Store::open(&arena, options)?;

    // Group commit: every small write a connection sent while its thread
    // was committing the previous group is read together and joins the
    // next, and the whole group pays one fence pair.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let server = Server::start(
        store.clone(),
        listener,
        ServerConfig {
            workers: WORKERS,
            commit: CommitMode::Group,
            ..ServerConfig::default()
        },
    )?;
    let addr = server.local_addr();
    println!("serving on {addr} (group commit, {WORKERS} session slots)");
    let mut client = Client::connect(addr)?;

    // Bulk load over the wire: chunked BATCH frames, each durable (and
    // atomic across both shards) when its COMMITTED ack arrives.
    let keys: Vec<u64> = (0..KEYS).collect();
    for chunk in keys.chunks(LOAD_CHUNK) {
        let ops = chunk
            .iter()
            .map(|&i| BatchOp::Put {
                key: storage_key(i).to_vec(),
                val: i.to_le_bytes().to_vec(),
            })
            .collect();
        let resp = client.call(&Request::Batch { ops })?;
        assert!(matches!(resp, Response::Committed(_)), "{resp:?}");
    }
    println!("loaded {KEYS} keys over the socket");

    // Read-your-write under group commit: a write is applied when its
    // *group* commits — at the end of the drain it arrived in — so a
    // read pipelined behind an unacknowledged write may execute first.
    // The `OK` ack is the visibility point — wait for it before reading
    // the key back.
    assert_eq!(
        client.call(&Request::Put {
            key: b"net/answer".to_vec(),
            val: b"42".to_vec(),
        })?,
        Response::Ok
    );
    // Now pipeline: two requests on the wire before either response is
    // read; answers come back strictly in request order.
    client.send(&Request::Get {
        key: b"net/answer".to_vec(),
    })?;
    client.send(&Request::Scan {
        start: b"net/".to_vec(),
        limit: 1,
    })?;
    client.flush()?;
    assert_eq!(client.recv()?, Response::Value(b"42".to_vec()));
    let Response::Entries(entries) = client.recv()? else {
        panic!("scan must answer second");
    };
    assert_eq!(entries[0].0, b"net/answer");
    println!("acked put, then pipelined get/scan answered in request order");

    // A pipelined PUT burst: PIPELINE requests go out before the first ack
    // is read, so whatever piled up in the socket while the server was
    // committing one group becomes the next.
    let started = Instant::now();
    for window in keys.chunks(PIPELINE) {
        for &i in window {
            client.send(&Request::Put {
                key: storage_key(i).to_vec(),
                val: (i + 1).to_le_bytes().to_vec(),
            })?;
        }
        client.flush()?;
        for _ in window {
            assert_eq!(client.recv()?, Response::Ok);
        }
    }
    let secs = started.elapsed().as_secs_f64();
    println!(
        "burst: {KEYS} durable puts, {PIPELINE} in flight, in {secs:.2} s = {:.0} kops/s",
        KEYS as f64 / secs / 1e3
    );
    assert_eq!(
        client.call(&Request::Get {
            key: storage_key(7).to_vec(),
        })?,
        Response::Value(8u64.to_le_bytes().to_vec())
    );

    // The server keeps its own books: request counters, group-commit
    // coalescing, and the arena's fence traffic.
    let Response::Stats(json) = client.call(&Request::Stats)? else {
        panic!("stats must answer");
    };
    assert!(json.contains("\"commit_mode\":\"group\""));
    println!("server stats: {json}");

    let (groups, ops) = server.group_stats();
    assert!(groups > 0 && ops >= groups);
    println!(
        "group commit coalesced {ops} writes into {groups} durable groups \
         ({:.1} writes/group)",
        ops as f64 / groups as f64
    );
    Ok(())
}
