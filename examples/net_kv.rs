//! The store behind a socket: an in-process TCP front-end with group
//! commit, driven by the `incll_ycsb::net` clients — a durable bulk
//! load over BATCH frames, pipelined GET/PUT/SCAN round trips, a
//! closed-loop throughput burst, an open-loop latency probe at a fixed
//! QPS target, and the server's own STATS counters to close the books.
//!
//! Run with: `cargo run --release --example net_kv`

use std::net::TcpListener;

use incll_repro::prelude::*;
use incll_server::{CommitMode, Request, Response, Server, ServerConfig};
use incll_ycsb::{net_load, run_closed_loop, run_open_loop, Dist, Mix, NetClient, NetRunConfig};

const KEYS: u64 = 20_000;
const WORKERS: usize = 2;

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

    // Bulk load over the wire: chunked durable BATCH frames.
    net_load(addr, KEYS, 24, 512)?;
    println!("loaded {KEYS} keys over the socket");

    // Read-your-write under group commit: a write is applied when its
    // *group* commits — at the end of the drain it arrived in — so a
    // read pipelined behind an unacknowledged write may execute first.
    // The `OK` ack is the visibility point — wait for it before reading
    // the key back.
    let mut client = NetClient::connect(addr)?;
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

    // Closed loop: every connection keeps a full pipeline in flight.
    let closed = run_closed_loop(
        addr,
        &NetRunConfig {
            connections: 4,
            pipeline: 8,
            ops_per_conn: 5_000,
            nkeys: KEYS,
            mix: Mix::A,
            dist: Dist::Uniform,
            value_len: 24,
            seed: 7,
        },
    )?;
    assert_eq!(closed.errors, 0);
    println!(
        "closed loop: {} ops in {:.2} s = {:.0} kops/s",
        closed.ops,
        closed.secs,
        closed.kops()
    );

    // Open loop: a fixed arrival schedule, latency measured from the
    // *intended* send time, so queueing delay is charged to the server
    // (no coordinated omission).
    let open = run_open_loop(
        addr,
        &NetRunConfig {
            connections: 2,
            pipeline: 1,
            ops_per_conn: 1_250, // ~0.5 s of schedule at the target rate
            nkeys: KEYS,
            mix: Mix::A,
            dist: Dist::Uniform,
            value_len: 24,
            seed: 11,
        },
        5_000.0,
    )?;
    assert_eq!(open.errors, 0);
    println!(
        "open loop @ {} QPS target: achieved {:.0}, p50 {:.0} µs, p95 {:.0} µs, p99 {:.0} µs",
        open.target_qps,
        open.achieved_qps(),
        open.p50_us,
        open.p95_us,
        open.p99_us
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
