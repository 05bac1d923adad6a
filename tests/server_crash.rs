//! Kill-and-restart semantics of the TCP front-end's commit modes.
//!
//! The durability contract the protocol documentation promises:
//!
//! * **Group** mode: once a PUT's response arrives, the write's commit
//!   record is durable — it survives a crash with *no* epoch boundary
//!   ever taken, replayed from the batch intent at recovery.
//! * **Async** mode: an acknowledged PUT is durable only after the next
//!   checkpoint. Killed before one, it vanishes wholesale.
//!
//! Both halves run on a tracked arena: the "kill" drops every
//! unpersisted cache line down to an adversarial per-line prefix,
//! exactly the guarantee real hardware gives.

use std::net::TcpListener;

use incll_repro::prelude::*;
use incll_server::{Client, CommitMode, Request, Response, Server, ServerConfig};

const KEYS: u64 = 60;

fn tracked() -> PArena {
    PArena::builder()
        .capacity_bytes(64 << 20)
        .tracked(true)
        .build()
        .unwrap()
}

fn options() -> Options {
    Options::new()
        .threads(4)
        .log_bytes_per_thread(2 << 20)
        .shards(2)
}

fn key(tag: u64) -> Vec<u8> {
    tag.to_be_bytes().to_vec()
}

fn val(tag: u64) -> Vec<u8> {
    vec![tag as u8; 32]
}

/// Serves, acks `KEYS` puts under `commit`, then kills the machine
/// (without a checkpoint) and reopens the store.
fn ack_then_crash(arena: &PArena, commit: CommitMode, seed: u64) -> (Store, Session) {
    {
        let (store, _) = Store::open(arena, options()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut server = Server::start(
            store.clone(),
            listener,
            ServerConfig {
                workers: 2,
                commit,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        // Pipeline all the puts, then require an Ok ack for every one.
        for i in 0..KEYS {
            client
                .send(&Request::Put {
                    key: key(i),
                    val: val(i),
                })
                .unwrap();
        }
        client.flush().unwrap();
        for i in 0..KEYS {
            assert_eq!(
                client.recv().unwrap(),
                Response::Ok,
                "put {i} must be acknowledged"
            );
        }
        server.shutdown();
        // No checkpoint anywhere: whatever survives, survives on the
        // strength of commit records alone.
    }
    arena.crash_seeded(seed);
    let (store, report) = Store::open(arena, options()).unwrap();
    assert!(!report.created, "the store must be recovered, not re-made");
    let sess = store.session().unwrap();
    (store, sess)
}

#[test]
fn group_committed_acks_survive_a_kill_with_no_checkpoint() {
    let arena = tracked();
    let (store, sess) = ack_then_crash(&arena, CommitMode::Group, 0x5EED);
    for i in 0..KEYS {
        assert_eq!(
            store.get(&sess, &key(i)),
            Some(val(i)),
            "group-committed put {i} was acknowledged and must survive"
        );
    }
    // The recovered store keeps working.
    store.put(&sess, &key(999), &val(9)).unwrap();
    assert_eq!(store.get(&sess, &key(999)), Some(val(9)));
}

#[test]
fn async_acks_vanish_in_a_kill_before_any_checkpoint() {
    let arena = tracked();
    let (store, sess) = ack_then_crash(&arena, CommitMode::Async, 0xDEAD);
    for i in 0..KEYS {
        assert_eq!(
            store.get(&sess, &key(i)),
            None,
            "async put {i} was acked without a commit record; a crash \
             before the first checkpoint must erase it"
        );
    }
    // ... and the rolled-back store is still a working store.
    store.put(&sess, &key(7), &val(7)).unwrap();
    assert_eq!(store.get(&sess, &key(7)), Some(val(7)));
}
