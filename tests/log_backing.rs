//! Restarts across the external log's segment growth. A (slot, shard) log
//! buffer takes its pool segments one at a time as its cursor approaches
//! them, so an epoch whose undo outgrows the first 2 MiB appends into
//! segments the reservation took mid-epoch, and one that fills the buffer
//! forces a boundary and starts again in segments it keeps. Either way a
//! restart must roll the shard back to its last checkpoint.

use std::collections::BTreeMap;

use incll_repro::prelude::*;

const MIB: usize = 1 << 20;

/// The tape's key range: the preload checkpoints the even keys, the tape
/// updates those and inserts the odd ones between them. Its one epoch
/// logs about 2.4 MiB: the leaves whose free slots the updates' moves and
/// the inserts used up, and the parents the inserts split.
const KEYS: u64 = 100_000;

/// What the tape's first round logs more than: past the first 2 MiB of
/// segments, and the capacity of the buffer it fills.
const PAST_FIRST_STEP: usize = 2 * MIB + (256 << 10);

fn key(i: u64) -> Vec<u8> {
    format!("backing/{i:07}").into_bytes()
}

fn val(i: u64, round: u64) -> Vec<u8> {
    (i ^ round.rotate_left(32)).to_le_bytes().to_vec()
}

fn options(log_bytes: usize) -> Options {
    Options::new()
        .threads(1)
        .shards(1)
        .log_bytes_per_thread(log_bytes)
}

/// Opens a fresh store on `arena`, loads and checkpoints the even keys,
/// and returns it with its model.
fn loaded(arena: &PArena, log_bytes: usize) -> (Store, BTreeMap<Vec<u8>, Vec<u8>>) {
    let (store, _) = Store::open(arena, options(log_bytes)).unwrap();
    let mut model = BTreeMap::new();
    let sess = store.session().unwrap();
    for i in (0..KEYS).step_by(2) {
        store.put(&sess, &key(i), &val(i, 0)).unwrap();
        model.insert(key(i), val(i, 0));
    }
    drop(sess);
    store.checkpoint();
    (store, model)
}

/// Drops `store` without a checkpoint, reopens it and requires exactly
/// `checkpoint`'s contents.
fn restart_holds(
    arena: &PArena,
    store: Store,
    log_bytes: usize,
    checkpoint: &BTreeMap<Vec<u8>, Vec<u8>>,
) {
    drop(store);
    let (store, report) = Store::open(arena, options(log_bytes)).unwrap();
    assert!(!report.created);
    assert!(report.replayed_entries > 0, "the restart replayed no undo");
    let sess = store.session().unwrap();
    let got: Vec<(Vec<u8>, Vec<u8>)> = store.iter(&sess).collect();
    let want: Vec<(Vec<u8>, Vec<u8>)> = checkpoint.clone().into_iter().collect();
    assert_eq!(got.len(), want.len());
    assert!(got == want, "the restart did not land on the checkpoint");
}

#[test]
fn an_epoch_whose_undo_passes_the_first_backing_step_rolls_back() {
    let log_bytes = 8 * MIB;
    let arena = PArena::builder().capacity_bytes(64 * MIB).build().unwrap();
    let (store, checkpoint) = loaded(&arena, log_bytes);
    let sess = store.session().unwrap();
    for i in 0..KEYS {
        store.put(&sess, &key(i), &val(i, 1)).unwrap();
    }
    drop(sess);
    let stats = store.shard_stats(0);
    assert_eq!(stats.advances_forced, 0, "the buffer never ran short");
    assert!(
        stats.bytes_since_boundary > PAST_FIRST_STEP as u64,
        "{} log bytes: the epoch stayed inside the first 2 MiB of segments",
        stats.bytes_since_boundary
    );
    restart_holds(&arena, store, log_bytes, &checkpoint);
}

#[test]
fn a_buffer_filled_to_capacity_forces_a_boundary_and_rolls_back_to_it() {
    // An epoch's undo is bounded by the nodes that existed at its start,
    // each captured at most once, so a second round adds little: the
    // buffer holds what the test above checks the first round outgrows.
    let log_bytes = PAST_FIRST_STEP;
    let arena = PArena::builder().capacity_bytes(64 * MIB).build().unwrap();
    let (store, mut model) = loaded(&arena, log_bytes);
    let sess = store.session().unwrap();
    // The model as of the last boundary: the put that finds the buffer
    // short forces it before it writes, so it belongs to the next epoch.
    let mut checkpoint = model.clone();
    let mut forced = 0;
    for round in 1..=2 {
        for i in 0..KEYS {
            store.put(&sess, &key(i), &val(i, round)).unwrap();
            let now = store.shard_stats(0).advances_forced;
            if now > forced {
                forced = now;
                checkpoint = model.clone();
            }
            model.insert(key(i), val(i, round));
        }
    }
    drop(sess);
    assert!(forced >= 1, "the buffer never filled");
    assert!(
        store.shard_stats(0).bytes_since_boundary > 0,
        "the last epoch logged nothing"
    );
    restart_holds(&arena, store, log_bytes, &checkpoint);
}
