//! Integration tests for the TCP front-end: pipelining, response
//! ordering, write ordering, backpressure, and the full request
//! surface over real sockets.
//!
//! The ordering tests are the load-bearing ones, and they check two
//! distinct promises. *Response* order: a drain's grouped writes are
//! acked only when its group commits, after the reads around them have
//! executed, yet a client must never see response N+1 before response
//! N. *Write* order: one thread executes a connection's requests
//! serially, whatever the drain, chunk and `BATCH` boundaries, so
//! pipelined writes to one key must resolve to the last one issued — in
//! every commit mode.

use std::net::TcpListener;
use std::time::Duration;

use incll_repro::prelude::*;
use incll_server::{BatchOp, Client, CommitMode, Request, Response, Server, ServerConfig};

fn arena() -> PArena {
    PArena::builder().capacity_bytes(64 << 20).build().unwrap()
}

fn serve(store: &Store, commit: CommitMode, workers: usize) -> Server {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    Server::start(
        store.clone(),
        listener,
        ServerConfig {
            workers,
            commit,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

fn key(tag: u64) -> Vec<u8> {
    tag.to_be_bytes().to_vec()
}

fn val(tag: u64) -> Vec<u8> {
    let mut v = vec![0u8; 24];
    v[..8].copy_from_slice(&tag.to_le_bytes());
    v
}

#[test]
fn concurrent_pipelined_clients_see_responses_in_request_order() {
    let arena = arena();
    let options = Options::new()
        .threads(6)
        .log_bytes_per_thread(4 << 20)
        .shards(2);
    let (store, _) = Store::open(&arena, options).unwrap();
    let server = serve(&store, CommitMode::Group, 3);
    let addr = server.local_addr();

    // Preload 100 keys through a durable BATCH.
    let mut setup = Client::connect(addr).unwrap();
    let ops = (0..100u64)
        .map(|i| BatchOp::Put {
            key: key(i),
            val: val(i),
        })
        .collect();
    assert!(matches!(
        setup.call(&Request::Batch { ops }).unwrap(),
        Response::Committed(_)
    ));

    // Four clients, each pipelining a deterministic interleaving of
    // gets (answer known in advance) and grouped puts (answer Ok).
    std::thread::scope(|s| {
        for c in 0u64..4 {
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let n = 300u64;
                let mut expected = Vec::with_capacity(n as usize);
                for i in 0..n {
                    if i % 3 == 0 {
                        // A fresh key per client so clients don't race.
                        let tag = 1_000 + c * 10_000 + i;
                        client
                            .send(&Request::Put {
                                key: key(tag),
                                val: val(tag),
                            })
                            .unwrap();
                        expected.push(Response::Ok);
                    } else {
                        let tag = (c * 7 + i * 13) % 100;
                        client.send(&Request::Get { key: key(tag) }).unwrap();
                        expected.push(Response::Value(val(tag)));
                    }
                }
                client.flush().unwrap();
                for (i, want) in expected.iter().enumerate() {
                    let got = client.recv().unwrap();
                    assert_eq!(&got, want, "client {c}: response {i} out of order or wrong");
                }
            });
        }
    });
}

#[test]
fn a_malformed_frame_gets_a_typed_error_in_order_and_the_stream_continues() {
    let arena = arena();
    let options = Options::new().threads(5).log_bytes_per_thread(4 << 20);
    let (store, _) = Store::open(&arena, options).unwrap();
    let server = serve(&store, CommitMode::Group, 2);
    let mut client = Client::connect(server.local_addr()).unwrap();

    client
        .call(&Request::Put {
            key: key(1),
            val: val(1),
        })
        .unwrap();
    // Hand-craft a frame whose payload is an unknown opcode: framing is
    // intact, so the server can answer it and keep the stream alive.
    // Client has no raw hook, so drive a plain TcpStream.
    {
        use std::io::Write as _;
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&[1u8, 0, 0, 0, 0xEE]).unwrap(); // unknown opcode 0xEE
        let mut ok = Vec::new();
        incll_server::encode_request(&Request::Get { key: key(1) }, &mut ok);
        raw.write_all(&ok).unwrap();
        raw.flush().unwrap();
        let mut reader = std::io::BufReader::new(raw);
        let first = incll_server::read_frame(&mut reader).unwrap().unwrap();
        match incll_server::decode_response(&first).unwrap() {
            Response::Error(msg) => assert!(msg.contains("opcode"), "got {msg}"),
            other => panic!("expected a typed error, got {other:?}"),
        }
        let second = incll_server::read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(
            incll_server::decode_response(&second).unwrap(),
            Response::Value(val(1)),
            "the stream must survive a malformed (but framed) request"
        );
    }
}

#[test]
fn batch_scan_del_and_stats_cover_the_request_surface() {
    let arena = arena();
    let options = Options::new().threads(5).log_bytes_per_thread(4 << 20);
    let (store, _) = Store::open(&arena, options).unwrap();
    let server = serve(&store, CommitMode::Async, 2);
    let mut client = Client::connect(server.local_addr()).unwrap();

    // BATCH commits atomically and reports the batch id.
    let ops = (10..20u64)
        .map(|i| BatchOp::Put {
            key: key(i),
            val: val(i),
        })
        .collect();
    let Response::Committed(id) = client.call(&Request::Batch { ops }).unwrap() else {
        panic!("batch must commit");
    };
    assert!(id > 0);

    // SCAN returns the range in key order.
    let resp = client
        .call(&Request::Scan {
            start: key(10),
            limit: 5,
        })
        .unwrap();
    let Response::Entries(entries) = resp else {
        panic!("scan must return entries");
    };
    assert_eq!(entries.len(), 5);
    let keys: Vec<_> = entries.iter().map(|(k, _)| k.clone()).collect();
    assert_eq!(keys, (10..15u64).map(key).collect::<Vec<_>>());
    assert_eq!(entries[0].1, val(10));

    // DEL is idempotent-Ok; the key is gone afterwards.
    assert_eq!(
        client.call(&Request::Del { key: key(12) }).unwrap(),
        Response::Ok
    );
    assert_eq!(
        client.call(&Request::Get { key: key(12) }).unwrap(),
        Response::NotFound
    );

    // STATS is a JSON object naming the commit mode and request counts.
    let Response::Stats(json) = client.call(&Request::Stats).unwrap() else {
        panic!("stats must answer");
    };
    assert!(json.starts_with('{') && json.ends_with('}'), "got {json}");
    assert!(json.contains("\"commit_mode\":\"async\""), "got {json}");
    assert!(json.contains("\"batches\":1"), "got {json}");

    // An oversized value is a per-request error, not a dead connection.
    let resp = client
        .call(&Request::Put {
            key: key(1),
            val: vec![0u8; MAX_VALUE_BYTES + 1],
        })
        .unwrap();
    assert!(matches!(resp, Response::Error(_)));
    assert_eq!(
        client.call(&Request::Get { key: key(10) }).unwrap(),
        Response::Value(val(10))
    );
}

/// A SCAN whose reply would exceed the 1 MiB frame cap must not be sent:
/// the client would refuse the frame (dead connection) or, with debug
/// assertions on, the connection's thread would die encoding it. It is
/// answered in order with a typed error and the stream continues.
#[test]
fn a_scan_reply_over_the_frame_cap_gets_a_typed_error_and_the_stream_continues() {
    let arena = arena();
    let options = Options::new().threads(5).log_bytes_per_thread(4 << 20);
    let (store, _) = Store::open(&arena, options).unwrap();
    {
        let sess = store.session().unwrap();
        for i in 0..400u64 {
            store.put(&sess, &key(i), &vec![i as u8; 4000]).unwrap();
        }
    }
    let server = serve(&store, CommitMode::Async, 2);
    let addr = server.local_addr();
    // The client runs on its own thread so a wedged connection fails the
    // test instead of hanging it.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let scan = |limit| Request::Scan {
            start: key(0),
            limit,
        };
        // All three pipelined behind one flush: the error must keep its slot.
        client.send(&scan(400)).unwrap(); // ~1.6 MB of entries
        client.send(&scan(100)).unwrap(); // ~0.4 MB: fits
        client.send(&Request::Get { key: key(7) }).unwrap();
        client.flush().unwrap();
        let replies: Vec<_> = (0..3).map(|_| client.recv()).collect();
        let _ = tx.send(replies);
    });
    let Ok(replies) = rx.recv_timeout(Duration::from_secs(30)) else {
        std::mem::forget(server); // its drop would join the wedged connection
        panic!("connection wedged by an oversized SCAN reply");
    };
    let mut replies = replies.into_iter();
    match replies.next().unwrap() {
        Ok(Response::Error(msg)) => assert!(msg.contains("frame cap"), "got {msg}"),
        other => panic!("oversized scan must get a typed error, got {other:?}"),
    }
    match replies.next().unwrap() {
        Ok(Response::Entries(entries)) => {
            assert_eq!(entries.len(), 100);
            assert_eq!(entries[99], (key(99), vec![99u8; 4000]));
        }
        other => panic!("a scan under the cap must succeed, got {other:?}"),
    }
    assert_eq!(
        replies.next().unwrap().unwrap(),
        Response::Value(vec![7u8; 4000])
    );
}

/// The REVIEW-9 high-severity regression: pipelined writes to one key
/// from one connection once raced across threads and could commit out
/// of order, letting an *earlier* PUT become the final durable value.
/// A connection's requests execute on its one thread in request order,
/// and in group mode every write class (PUT/DEL/BATCH) commits at its
/// position in the drain — so the last issued write must win, in every
/// commit mode.
#[test]
fn pipelined_same_key_writes_resolve_to_the_last_one_in_every_mode() {
    for commit in [CommitMode::Group, CommitMode::Async] {
        let arena = arena();
        let options = Options::new()
            .threads(8)
            .log_bytes_per_thread(4 << 20)
            .shards(2);
        let (store, _) = Store::open(&arena, options).unwrap();
        let server = serve(&store, commit.clone(), 4);
        let addr = server.local_addr();

        // Several connections, each hammering its own key so the only
        // ordering in question is intra-connection.
        std::thread::scope(|s| {
            for c in 0u64..4 {
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let k = key(5_000 + c);
                    let n = 120u64;
                    for i in 0..n {
                        match i % 10 {
                            3 => client
                                .send(&Request::Batch {
                                    ops: vec![BatchOp::Put {
                                        key: k.clone(),
                                        val: val(i),
                                    }],
                                })
                                .unwrap(),
                            7 => client.send(&Request::Del { key: k.clone() }).unwrap(),
                            _ => client
                                .send(&Request::Put {
                                    key: k.clone(),
                                    val: val(i),
                                })
                                .unwrap(),
                        }
                    }
                    client.flush().unwrap();
                    for i in 0..n {
                        let got = client.recv().unwrap();
                        match i % 10 {
                            3 => assert!(
                                matches!(got, Response::Committed(_)),
                                "conn {c} op {i}: {got:?}"
                            ),
                            _ => assert_eq!(got, Response::Ok, "conn {c} op {i}"),
                        }
                    }
                    // The last op was PUT val(n-1); nothing earlier may
                    // overwrite it after its ack.
                    assert_eq!(
                        client.call(&Request::Get { key: k.clone() }).unwrap(),
                        Response::Value(val(n - 1)),
                        "conn {c}: an earlier pipelined write overtook the last one"
                    );
                });
            }
        });
        drop(server);
    }
}

/// A client that stops reading must stall only its own connection: its
/// thread blocks in `write` owing at most one drain's replies and
/// holding no session slot, while grouped commits keep acking other
/// connections.
#[test]
fn a_connection_that_stops_reading_does_not_stall_grouped_commits_for_others() {
    let arena = arena();
    let options = Options::new()
        .threads(6)
        .log_bytes_per_thread(4 << 20)
        .shards(2);
    let (store, _) = Store::open(&arena, options).unwrap();
    let server = serve(&store, CommitMode::Group, 2);
    let addr = server.local_addr();

    // Preload 200 keys with ~4 KB values: one SCAN response is ~800 KB,
    // so a few dozen unread SCANs overflow any kernel socket buffer and
    // wedge the slow connection's thread in `write` for real.
    let big = vec![0xABu8; 4000];
    let mut setup = Client::connect(addr).unwrap();
    let ops = (0..200u64)
        .map(|i| BatchOp::Put {
            key: key(i),
            val: big.clone(),
        })
        .collect();
    assert!(matches!(
        setup.call(&Request::Batch { ops }).unwrap(),
        Response::Committed(_)
    ));

    let scans = 48usize;
    let mut slow = Client::connect(addr).unwrap();
    for _ in 0..scans {
        slow.send(&Request::Scan {
            start: key(0),
            limit: 200,
        })
        .unwrap();
    }
    slow.flush().unwrap();
    // Let the slow connection's responses back up against the socket.
    std::thread::sleep(Duration::from_millis(200));

    // Meanwhile every grouped write from a healthy connection must ack.
    let mut live = Client::connect(addr).unwrap();
    for i in 0..50u64 {
        assert_eq!(
            live.call(&Request::Put {
                key: key(10_000 + i),
                val: val(i),
            })
            .unwrap(),
            Response::Ok,
            "put {i} stalled behind an unrelated slow reader"
        );
    }

    // The slow client finally drains and still gets every response,
    // intact and in order.
    for i in 0..scans {
        let Response::Entries(entries) = slow.recv().unwrap() else {
            panic!("scan {i} answered with the wrong shape");
        };
        assert_eq!(entries.len(), 200, "scan {i}");
        assert_eq!(entries[0].1, big, "scan {i}");
    }
}

/// The bound exercised is the reply budget: 2000 × 4 KB replies are far
/// more than one drain may owe (64 KiB), so the connection's thread
/// repeatedly stops taking frames, writes what it owes and resumes with
/// what is still buffered — while the client, which reads nothing until
/// it has sent everything, fills every kernel buffer in between. The
/// stream must still complete, in order.
#[test]
fn the_pipeline_depth_bound_pauses_and_resumes_without_losing_order() {
    let arena = arena();
    let options = Options::new()
        .threads(5)
        .log_bytes_per_thread(4 << 20)
        .shards(2);
    let (store, _) = Store::open(&arena, options).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = Server::start(
        store.clone(),
        listener,
        ServerConfig {
            workers: 2,
            commit: CommitMode::Group,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let big = vec![0x5Au8; 4000];
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(
        client
            .call(&Request::Put {
                key: key(1),
                val: big.clone(),
            })
            .unwrap(),
        Response::Ok
    );

    // Pipeline far more 4 KB GETs than one drain's budget (or the
    // kernel buffers) can hold before reading anything back.
    let n = 2000usize;
    for _ in 0..n {
        client.send(&Request::Get { key: key(1) }).unwrap();
    }
    client.flush().unwrap();
    for i in 0..n {
        assert_eq!(
            client.recv().unwrap(),
            Response::Value(big.clone()),
            "response {i}"
        );
    }
}

#[test]
fn session_pool_exhaustion_fails_server_start_with_a_typed_timeout() {
    let arena = arena();
    // Pool of 2 sessions; one goes to the test, leaving 1 for a server
    // that needs two slots.
    let options = Options::new().threads(2).log_bytes_per_thread(1 << 20);
    let (store, _) = Store::open(&arena, options).unwrap();
    let _held = store.session().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let err = Server::start(
        store.clone(),
        listener,
        ServerConfig {
            workers: 2,
            commit: CommitMode::Group,
            session_timeout: Duration::from_millis(50),
        },
    )
    .err()
    .expect("start must fail when the pool cannot cover the workers");
    assert!(
        matches!(err, Error::SessionTimeout { .. }),
        "expected SessionTimeout, got {err:?}"
    );
}

/// Log space is only reclaimed at a boundary, and the default server
/// store runs without a cadence: a run of large legal `BATCH` frames on
/// one shard must not run the committing session's log buffer into its
/// overflow assert — that kills the connection's thread and poisons its
/// session slot for every connection sharing it.
#[test]
fn large_batch_frames_on_one_shard_do_not_kill_the_committer() {
    let arena = arena();
    // 1 MiB per thread over 4 shards: 256 KiB per (thread, shard) buffer.
    let options = Options::new()
        .threads(6)
        .log_bytes_per_thread(1 << 20)
        .shards(4);
    let (store, _) = Store::open(&arena, options).unwrap();
    let mut server = serve(&store, CommitMode::Group, 2);
    let addr = server.local_addr();

    // Five frames of ~66 KB of intents each, every key on shard 0 (the
    // fourth would overflow the buffer), then an unrelated connection's
    // PUT, then shutdown — on a helper thread, so a dead connection fails
    // the test by timeout instead of hanging it.
    let shard0: Vec<Vec<u8>> = (0u64..)
        .map(key)
        .filter(|k| store.shard_of(k) == 0)
        .take(500)
        .collect();
    let (tx, rx) = std::sync::mpsc::channel();
    let driver = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        for frame in shard0.chunks(100) {
            let ops = frame
                .iter()
                .map(|key| BatchOp::Put {
                    key: key.clone(),
                    val: vec![0x5A; 600],
                })
                .collect();
            tx.send(client.call(&Request::Batch { ops }).unwrap())
                .unwrap();
        }
        let mut other = Client::connect(addr).unwrap();
        let put = Request::Put {
            key: key(u64::MAX),
            val: val(1),
        };
        tx.send(other.call(&put).unwrap()).unwrap();
        server.shutdown();
    });
    let next = || {
        rx.recv_timeout(Duration::from_secs(30))
            .expect("every frame and the PUT behind them must be answered")
    };
    for frame in 0..5 {
        assert!(matches!(next(), Response::Committed(_)), "frame {frame}");
    }
    assert_eq!(next(), Response::Ok);
    // The channel closes when the driver is past `shutdown`.
    assert!(
        rx.recv_timeout(Duration::from_secs(30))
            .is_err_and(|e| e == std::sync::mpsc::RecvTimeoutError::Disconnected),
        "shutdown must return"
    );
    driver.join().unwrap();
}
