//! Peers that misbehave: half-sent frames, lying length prefixes,
//! clients that never read, connection churn, and shutdown with all of
//! them still attached. One thread per connection must answer what it
//! can, in order, and let go of everything else — its session slot
//! above all — promptly.

use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use incll_repro::prelude::*;
use incll_server::{
    decode_response, encode_request, read_frame, BatchOp, Client, CommitMode, Request, Response,
    Server, ServerConfig, MAX_FRAME_BYTES,
};

fn serve(arena: &PArena, workers: usize) -> Server {
    let options = Options::new()
        .threads(workers + 1)
        .log_bytes_per_thread(4 << 20)
        .shards(2);
    let (store, _) = Store::open(arena, options).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let cfg = ServerConfig {
        workers,
        commit: CommitMode::Group,
        ..ServerConfig::default()
    };
    Server::start(store, listener, cfg).unwrap()
}

fn arena() -> PArena {
    PArena::builder().capacity_bytes(64 << 20).build().unwrap()
}

fn key(tag: u64) -> Vec<u8> {
    tag.to_be_bytes().to_vec()
}

fn put(tag: u64) -> Request {
    Request::Put {
        key: key(tag),
        val: vec![tag as u8; 24],
    }
}

fn frames(reqs: &[Request]) -> Vec<u8> {
    let mut buf = Vec::new();
    for req in reqs {
        encode_request(req, &mut buf);
    }
    buf
}

/// The next reply, or `None` once the server has closed the stream
/// cleanly (a reset or a cut frame is an error, and panics).
fn next_reply(from: &mut BufReader<TcpStream>) -> Option<Response> {
    let payload = read_frame(from).expect("a clean stream")?;
    Some(decode_response(&payload).unwrap())
}

/// A connection with `scans` × ~800 KB replies requested and none read:
/// enough to fill every kernel buffer and block its thread in `write`.
fn never_reading_scanner(server: &Server, scans: usize) -> Client {
    let mut setup = Client::connect(server.local_addr()).unwrap();
    let ops = (0..200u64)
        .map(|i| BatchOp::Put {
            key: key(i),
            val: vec![0xAB; 4000],
        })
        .collect();
    assert!(matches!(
        setup.call(&Request::Batch { ops }).unwrap(),
        Response::Committed(_)
    ));
    let mut slow = Client::connect(server.local_addr()).unwrap();
    for _ in 0..scans {
        slow.send(&Request::Scan {
            start: key(0),
            limit: 200,
        })
        .unwrap();
    }
    slow.flush().unwrap();
    slow
}

fn stat(json: &str, name: &str) -> u64 {
    let at = json.find(&format!("\"{name}\":")).expect(name) + name.len() + 3;
    let digits = json[at..].split(|c: char| !c.is_ascii_digit()).next();
    digits.unwrap().parse().expect(name)
}

#[test]
fn three_frames_and_half_a_fourth_then_a_half_close_get_three_replies_and_a_clean_close() {
    let arena = arena();
    let server = serve(&arena, 2);
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    let whole = frames(&[put(1), put(2), Request::Get { key: key(9) }]);
    let fourth = frames(&[put(4)]);
    sock.write_all(&whole).unwrap();
    sock.write_all(&fourth[..fourth.len() / 2]).unwrap();
    sock.shutdown(Shutdown::Write).unwrap();
    let mut from = BufReader::new(sock);
    assert_eq!(next_reply(&mut from), Some(Response::Ok));
    assert_eq!(next_reply(&mut from), Some(Response::Ok));
    assert_eq!(next_reply(&mut from), Some(Response::NotFound));
    assert_eq!(next_reply(&mut from), None, "half a frame gets no reply");
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(
        client.call(&Request::Get { key: key(4) }).unwrap(),
        Response::NotFound,
        "half a PUT must not be applied"
    );
}

#[test]
fn an_over_cap_length_prefix_gets_a_typed_error_naming_it_in_order_then_eof() {
    let arena = arena();
    let server = serve(&arena, 2);
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    let mut bytes = frames(&[put(1), Request::Get { key: key(9) }]);
    bytes.extend_from_slice(&((MAX_FRAME_BYTES + 1) as u32).to_le_bytes());
    sock.write_all(&bytes).unwrap();
    let mut from = BufReader::new(sock);
    assert_eq!(next_reply(&mut from), Some(Response::Ok));
    assert_eq!(next_reply(&mut from), Some(Response::NotFound));
    match next_reply(&mut from) {
        Some(Response::Error(msg)) => assert!(
            msg.contains(&format!("{} bytes", MAX_FRAME_BYTES + 1)),
            "the error must name the announced length, got {msg:?}"
        ),
        other => panic!("expected a typed error, got {other:?}"),
    }
    assert_eq!(next_reply(&mut from), None, "then the server hangs up");
}

#[test]
fn a_never_reading_client_does_not_hold_the_session_slot_it_shares() {
    let arena = arena();
    // One slot: the scanner and the healthy connection are pinned to it.
    let server = serve(&arena, 1);
    let addr = server.local_addr();
    let slow = never_reading_scanner(&server, 48);
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut live = Client::connect(addr).unwrap();
        let acks: Vec<_> = (0..50).map(|i| live.call(&put(10_000 + i))).collect();
        let _ = tx.send(acks);
    });
    let Ok(acks) = rx.recv_timeout(Duration::from_secs(30)) else {
        std::mem::forget(server);
        panic!("50 durable PUTs stalled behind a client that never reads");
    };
    for (i, ack) in acks.into_iter().enumerate() {
        assert_eq!(ack.unwrap(), Response::Ok, "put {i}");
    }
    drop(slow);
}

#[test]
fn connect_and_drop_cycles_leave_no_connection_live() {
    let arena = arena();
    let server = serve(&arena, 2);
    for i in 0..300u64 {
        let mut sock = TcpStream::connect(server.local_addr()).unwrap();
        if i % 3 == 0 {
            // Some leave mid-frame.
            sock.write_all(&frames(&[put(i)])[..6]).unwrap();
        }
    }
    let mut client = Client::connect(server.local_addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let Response::Stats(json) = client.call(&Request::Stats).unwrap() else {
            panic!("stats must answer");
        };
        assert_eq!(stat(&json, "connections"), 301);
        if stat(&json, "live_connections") == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "connections never exit: {json}");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(client.call(&put(7)).unwrap(), Response::Ok);
}

#[test]
fn shutdown_returns_within_a_second_with_idle_mid_frame_and_never_reading_peers() {
    let arena = arena();
    let mut server = serve(&arena, 2);
    let idle = TcpStream::connect(server.local_addr()).unwrap();
    let mut mid_frame = TcpStream::connect(server.local_addr()).unwrap();
    mid_frame.write_all(&frames(&[put(1)])[..6]).unwrap();
    let never_reading = never_reading_scanner(&server, 48);
    // Let the scanner's thread fill the socket and block.
    std::thread::sleep(Duration::from_millis(200));
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let t0 = Instant::now();
        server.shutdown();
        let _ = tx.send(t0.elapsed());
    });
    let took = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("shutdown must return");
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    drop((idle, mid_frame, never_reading));
}
