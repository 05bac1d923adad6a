//! Property-based tests on the core data structures and invariants,
//! driven through the public `Store` facade (the allocator-header
//! properties live in `incll-palloc`'s own suite).

use std::collections::BTreeMap;

use incll_repro::prelude::*;
use proptest::prelude::*;

use incll::layout::val_incll;
use incll_masstree::key::{entry_cmp, ikey_of, KeyCursor, KLEN_LAYER};
use incll_masstree::Permutation;

// ---------------------------------------------------------------------
// Permutation algebra
// ---------------------------------------------------------------------

proptest! {
    /// Arbitrary insert/remove sequences keep the permutation a valid
    /// permutation and agree with a Vec model.
    #[test]
    fn permutation_matches_vec_model(ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..200)) {
        let mut p = Permutation::<15>::empty();
        let mut model: Vec<usize> = Vec::new();
        for (sel, pos) in ops {
            if p.is_full() || (!p.is_empty() && sel % 2 == 0) {
                let at = pos as usize % p.len();
                p.remove_at(at);
                model.remove(at);
            } else {
                let at = pos as usize % (p.len() + 1);
                let slot = p.insert_at(at);
                model.insert(at, slot);
            }
            prop_assert!(p.is_valid());
            prop_assert_eq!(p.occupied().collect::<Vec<_>>(), model.clone());
        }
    }

    /// Truncation keeps a valid permutation holding exactly the prefix.
    #[test]
    fn permutation_truncation(keep in 0usize..14, fills in 1usize..14) {
        let mut p = Permutation::<14>::empty();
        let mut slots = Vec::new();
        for i in 0..fills {
            slots.push(p.insert_at(i));
        }
        let keep = keep.min(fills);
        let t = p.truncated(keep);
        prop_assert!(t.is_valid());
        prop_assert_eq!(t.len(), keep);
        prop_assert_eq!(t.occupied().collect::<Vec<_>>(), slots[..keep].to_vec());
    }
}

// ---------------------------------------------------------------------
// Packed-word round trips
// ---------------------------------------------------------------------

proptest! {
    /// ValInCLL packing is lossless for every representable triple.
    #[test]
    fn val_incll_roundtrip(ptr in 0u64..(1 << 44), idx in 0usize..15, ep in any::<u16>()) {
        let ptr = ptr << 4; // 16-aligned, < 2^48
        let w = val_incll::pack(ptr, idx, ep);
        prop_assert_eq!(val_incll::ptr(w), ptr);
        prop_assert_eq!(val_incll::idx(w), idx);
        prop_assert_eq!(val_incll::low16(w), ep);
    }
}

// ---------------------------------------------------------------------
// Key slicing agrees with lexicographic order
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn layered_key_order_is_lexicographic(a in proptest::collection::vec(any::<u8>(), 0..24),
                                          b in proptest::collection::vec(any::<u8>(), 0..24)) {
        let expect = a.cmp(&b);
        let mut ca = KeyCursor::new(&a);
        let mut cb = KeyCursor::new(&b);
        let got = loop {
            let ka = if ca.is_terminal() { ca.klen() } else { KLEN_LAYER };
            let kb = if cb.is_terminal() { cb.klen() } else { KLEN_LAYER };
            let ord = entry_cmp(ca.ikey(), ka, cb.ikey(), kb);
            if ord != std::cmp::Ordering::Equal {
                break ord;
            }
            if ca.is_terminal() && cb.is_terminal() {
                break std::cmp::Ordering::Equal;
            }
            ca.descend();
            cb.descend();
        };
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn ikey_is_order_preserving_on_prefixes(a in proptest::collection::vec(any::<u8>(), 0..8),
                                            b in proptest::collection::vec(any::<u8>(), 0..8)) {
        // For keys ≤ 8 bytes, (ikey, len) comparison == byte comparison.
        let ord = (ikey_of(&a), a.len()).cmp(&(ikey_of(&b), b.len()));
        prop_assert_eq!(ord, a.cmp(&b));
    }
}

// ---------------------------------------------------------------------
// Zipfian stays in range
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn zipf_indices_in_range(n in 1u64..5_000, seed in any::<u64>()) {
        use rand::SeedableRng;
        let z = incll_ycsb::ScrambledZipfian::new(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(z.next_index(&mut rng) < n);
        }
    }
}

// ---------------------------------------------------------------------
// Store vs model under random op tapes (single session)
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Put(u8, u64),
    PutBytes(u8, Vec<u8>),
    Remove(u8),
    Get(u8),
    Advance,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<u8>(), any::<u64>()).prop_map(|(k, v)| Op::Put(k, v)),
        3 => (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..512))
            .prop_map(|(k, v)| Op::PutBytes(k, v)),
        2 => any::<u8>().prop_map(Op::Remove),
        2 => any::<u8>().prop_map(Op::Get),
        1 => Just(Op::Advance),
    ]
}

/// Data ops only (no all-shard advances): the per-shard-boundary property
/// schedules its own `checkpoint_shard` calls.
fn data_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<u8>(), any::<u64>()).prop_map(|(k, v)| Op::Put(k, v)),
        3 => (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..512))
            .prop_map(|(k, v)| Op::PutBytes(k, v)),
        2 => any::<u8>().prop_map(Op::Remove),
        2 => any::<u8>().prop_map(Op::Get),
    ]
}

fn open_store(arena: &PArena, shards: usize) -> Store {
    open_store_with(arena, shards, 1).0
}

fn open_store_with(arena: &PArena, shards: usize, workers: usize) -> (Store, RecoveryReport) {
    Store::open(
        arena,
        Options::new()
            .threads(1)
            .log_bytes_per_thread(1 << 20)
            .shards(shards)
            .recovery_threads(workers),
    )
    .unwrap()
}

/// The shard counts the store-level properties sweep (1 = the unsharded
/// baseline; 2 and 4 exercise routing, merged scans, and cross-shard
/// crash atomicity).
fn shard_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(4)]
}

/// Recovery worker counts the crash properties sweep: every tape is
/// model-checked under both sequential (1) and parallel recovery.
fn worker_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(4)]
}

/// Applies `op` to both the store and the model.
fn apply(store: &Store, sess: &Session, model: &mut BTreeMap<u8, Vec<u8>>, op: &Op) {
    match op {
        Op::Put(k, v) => {
            store.put_u64(sess, &[*k], *v);
            model.insert(*k, v.to_le_bytes().to_vec());
        }
        Op::PutBytes(k, v) => {
            store.put(sess, &[*k], v).unwrap();
            model.insert(*k, v.clone());
        }
        Op::Remove(k) => {
            store.remove(sess, &[*k]);
            model.remove(k);
        }
        Op::Get(k) => {
            store.get(sess, &[*k]);
        }
        Op::Advance => {
            store.checkpoint();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// The durable store agrees with a BTreeMap across epoch boundaries,
    /// with u64 and variable-length byte values interleaved — at every
    /// shard count (routing + the merged iterator must be transparent).
    #[test]
    fn durable_store_matches_model(
        ops in proptest::collection::vec(op_strategy(), 1..300),
        shards in shard_strategy(),
    ) {
        let arena = PArena::builder().capacity_bytes(32 << 20).build().unwrap();
        let store = open_store(&arena, shards);
        let sess = store.session().unwrap();
        let mut model: BTreeMap<u8, Vec<u8>> = BTreeMap::new();
        for op in &ops {
            // Observed results must agree op-by-op...
            match op {
                Op::Put(k, v) => {
                    let old = store.put_u64(&sess, &[*k], *v);
                    let model_old = model.insert(*k, v.to_le_bytes().to_vec());
                    match &model_old {
                        None => prop_assert_eq!(old, None),
                        Some(b) if b.len() == 8 => {
                            prop_assert_eq!(
                                old,
                                Some(u64::from_le_bytes(b[..8].try_into().unwrap()))
                            );
                        }
                        // The prior value wasn't 8 bytes: the convenience
                        // form's return is unspecified beyond presence
                        // (use `put` to see the full previous bytes).
                        Some(_) => prop_assert!(old.is_some()),
                    }
                }
                Op::PutBytes(k, v) => {
                    prop_assert_eq!(store.put(&sess, &[*k], v).unwrap(), model.insert(*k, v.clone()));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(store.remove(&sess, &[*k]), model.remove(k).is_some());
                }
                Op::Get(k) => {
                    prop_assert_eq!(store.get(&sess, &[*k]), model.get(k).cloned());
                }
                Op::Advance => {
                    store.checkpoint();
                }
            }
        }
        // ...and so must the final iteration order.
        let scanned: Vec<(u8, Vec<u8>)> = store.iter(&sess).map(|(k, v)| (k[0], v)).collect();
        let expect: Vec<(u8, Vec<u8>)> = model.into_iter().collect();
        prop_assert_eq!(scanned, expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Crash consistency as a property, at every shard count **and every
    /// recovery worker count**: any op tape of variable-length values
    /// interleaved with epoch advances — the tail may itself contain
    /// advances, so the crash can land an arbitrary distance past the
    /// last completed boundary — plus any crash seed. Recovery lands
    /// exactly on the state at the last completed checkpoint, on
    /// **every** shard at once, whether the shards replay sequentially
    /// or in parallel.
    #[test]
    fn crash_recovers_to_checkpoint(
        committed in proptest::collection::vec(op_strategy(), 0..120),
        doomed in proptest::collection::vec(op_strategy(), 1..120),
        crash_seed in any::<u64>(),
        shards in shard_strategy(),
        workers in worker_strategy(),
    ) {
        let arena = PArena::builder()
            .capacity_bytes(32 << 20)
            .tracked(true)
            .build()
            .unwrap();
        let store = open_store_with(&arena, shards, 1).0;
        let mut model: BTreeMap<u8, Vec<u8>> = BTreeMap::new();
        {
            let sess = store.session().unwrap();
            for op in &committed {
                apply(&store, &sess, &mut model, op);
            }
            store.checkpoint(); // the checkpoint
            let mut doomed_model = model.clone();
            for op in &doomed {
                apply(&store, &sess, &mut doomed_model, op);
                if matches!(op, Op::Advance) {
                    // A mid-tape advance completed: everything before it —
                    // across all shards — is now the recovery target.
                    model = doomed_model.clone();
                }
            }
        }
        drop(store);
        arena.crash_seeded(crash_seed);
        let (store, report) = open_store_with(&arena, shards, workers);
        prop_assert_eq!(report.parallel_workers, workers.min(shards));
        let sess = store.session().unwrap();
        let scanned: Vec<(u8, Vec<u8>)> = store.iter(&sess).map(|(k, v)| (k[0], v)).collect();
        let expect: Vec<(u8, Vec<u8>)> = model.into_iter().collect();
        prop_assert_eq!(scanned, expect);
    }
}

/// Copies `working`'s entries for every key routed to `shard` into
/// `expect` (and removes the absent ones): the model-side image of "shard
/// `shard` just completed a checkpoint".
fn commit_shard(
    expect: &mut BTreeMap<u8, Vec<u8>>,
    working: &BTreeMap<u8, Vec<u8>>,
    store: &Store,
    shard: usize,
) {
    for k in 0..=255u8 {
        if store.shard_of(&[k]) == shard {
            match working.get(&k) {
                Some(v) => {
                    expect.insert(k, v.clone());
                }
                None => {
                    expect.remove(&k);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// The tentpole's crash matrix: shards ∈ {1, 2, 4}, each shard given a
    /// **different** number of `checkpoint_shard` advances interleaved
    /// with random mutation rounds, then a seeded crash. Recovery must
    /// land every shard on **its own** last completed boundary — shards
    /// that advanced recently keep their recent writes, shards that did
    /// not roll all the way back to the initial barrier — and the report
    /// must name each shard's failed/recovered epochs exactly.
    #[test]
    fn per_shard_boundaries_recover_independently(
        committed in proptest::collection::vec(data_op_strategy(), 0..60),
        rounds in proptest::collection::vec(
            proptest::collection::vec(data_op_strategy(), 1..40), 1..4),
        advance_quota in proptest::collection::vec(0usize..4, 4..5),
        crash_seed in any::<u64>(),
        shards in shard_strategy(),
        workers in worker_strategy(),
    ) {
        let arena = PArena::builder()
            .capacity_bytes(32 << 20)
            .tracked(true)
            .build()
            .unwrap();
        let store = open_store_with(&arena, shards, 1).0;
        let mut working: BTreeMap<u8, Vec<u8>> = BTreeMap::new();
        let mut advances_done = vec![0u64; shards];
        let expect = {
            let sess = store.session().unwrap();
            for op in &committed {
                apply(&store, &sess, &mut working, op);
            }
            store.checkpoint(); // the common barrier every shard starts from
            let mut expect = working.clone();
            for (round, chunk) in rounds.iter().enumerate() {
                for op in chunk {
                    apply(&store, &sess, &mut working, op);
                }
                // Stagger per-shard checkpoints: shard s advances in the
                // first `advance_quota[s]` rounds only, so the boundaries
                // drift apart.
                for s in 0..shards {
                    if advance_quota[s] > round {
                        store.checkpoint_shard(s);
                        advances_done[s] += 1;
                        commit_shard(&mut expect, &working, &store, s);
                    }
                }
            }
            expect
        };
        drop(store);
        arena.crash_seeded(crash_seed);

        let (store, report) = open_store_with(&arena, shards, workers);
        // Each shard's failed epoch is exactly its own advance history:
        // Epoch 2 at create (the mkfs epoch is sealed), +1 for the common
        // barrier, +1 per checkpoint_shard. True at every recovery worker
        // count.
        prop_assert_eq!(report.parallel_workers, workers.min(shards));
        prop_assert_eq!(report.per_shard.len(), shards);
        for (s, rep) in report.per_shard.iter().enumerate() {
            prop_assert_eq!(rep.shard, s);
            prop_assert_eq!(rep.failed_epoch, 3 + advances_done[s],
                "shard {} advanced {} times", s, advances_done[s]);
            prop_assert_eq!(rep.recovered_epoch, rep.failed_epoch + 1);
        }
        let sess = store.session().unwrap();
        let scanned: Vec<(u8, Vec<u8>)> = store.iter(&sess).map(|(k, v)| (k[0], v)).collect();
        let want: Vec<(u8, Vec<u8>)> = expect.into_iter().collect();
        prop_assert_eq!(scanned, want);
    }
}

// ---------------------------------------------------------------------
// Cross-shard write batches vs the committed-batches-only model
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum BatchOpT {
    Put(u8, u8),
    Delete(u8),
}

impl BatchOpT {
    fn key(&self) -> u8 {
        match self {
            BatchOpT::Put(k, _) | BatchOpT::Delete(k) => *k,
        }
    }
}

#[derive(Debug, Clone)]
enum BatchEvent {
    /// Stage 1–8 mixed puts/deletes; commit the batch, or leave it
    /// in-doubt (intents durable, no commit record).
    Batch { ops: Vec<BatchOpT>, commit: bool },
    /// `checkpoint_shard` on one shard: its fast-path batches become
    /// durable, its intents are discarded, its batch-table bits retire.
    AdvanceShard(u8),
}

fn batch_event_strategy() -> impl Strategy<Value = BatchEvent> {
    let op = prop_oneof![
        3 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| BatchOpT::Put(k, v)),
        1 => any::<u8>().prop_map(BatchOpT::Delete),
    ];
    prop_oneof![
        3 => (proptest::collection::vec(op, 1..9), any::<bool>())
            .prop_map(|(ops, commit)| BatchEvent::Batch { ops, commit }),
        1 => any::<u8>().prop_map(BatchEvent::AdvanceShard),
    ]
}

/// Deterministic variable-length batch value.
fn vval(seed: u8) -> Vec<u8> {
    let len = (seed as usize * 7) % 48;
    (0..len).map(|j| seed.wrapping_add(j as u8)).collect()
}

/// A resolved tape event, as it actually executed.
enum BatchDone {
    Batch {
        ops: Vec<BatchOpT>,
        committed: bool,
        cross: bool,
    },
    Advance(usize),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// The batch subsystem's crash property: random tapes of write
    /// batches (sizes 1–8, mixed puts and deletes, committed or left
    /// in-doubt) interleaved with per-shard advances, then a seeded
    /// crash. The recovered contents must equal the
    /// committed-batches-only model — in-doubt batches fully absent,
    /// committed cross-shard batches fully present (redone from
    /// intents), fast-path batches present exactly when their shard
    /// checkpointed afterwards — under both sequential and parallel
    /// recovery.
    #[test]
    fn batch_tapes_recover_to_committed_batches_only(
        base in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..40),
        events in proptest::collection::vec(batch_event_strategy(), 1..12),
        crash_seed in any::<u64>(),
        shards in shard_strategy(),
        workers in prop_oneof![Just(1usize), Just(4)],
    ) {
        use std::collections::BTreeSet;

        let arena = PArena::builder()
            .capacity_bytes(32 << 20)
            .tracked(true)
            .build()
            .unwrap();
        let store = open_store_with(&arena, shards, 1).0;
        let mut base_model: BTreeMap<u8, Vec<u8>> = BTreeMap::new();
        let mut done: Vec<BatchDone> = Vec::new();
        {
            let sess = store.session().unwrap();
            for (k, v) in &base {
                store.put(&sess, &[*k], &vval(*v)).unwrap();
                base_model.insert(*k, vval(*v));
            }
            store.checkpoint(); // the barrier every shard starts from
            for ev in &events {
                match ev {
                    BatchEvent::Batch { ops, commit } => {
                        let touched: BTreeSet<usize> =
                            ops.iter().map(|o| store.shard_of(&[o.key()])).collect();
                        let cross = touched.len() > 1;
                        let commit = *commit;
                        let mut b = sess.batch();
                        for op in ops {
                            match op {
                                BatchOpT::Put(k, v) => b.put(&[*k], &vval(*v)).unwrap(),
                                BatchOpT::Delete(k) => b.delete(&[*k]).unwrap(),
                            }
                        }
                        let id = if commit {
                            b.commit().unwrap()
                        } else {
                            b.stage_without_commit().unwrap()
                        };
                        prop_assert_eq!(id > 0, cross,
                            "only cross-shard batches take the slow path");
                        done.push(BatchDone::Batch {
                            ops: ops.clone(),
                            committed: commit,
                            cross,
                        });
                    }
                    BatchEvent::AdvanceShard(s) => {
                        let s = *s as usize % shards;
                        store.checkpoint_shard(s);
                        done.push(BatchDone::Advance(s));
                    }
                }
            }
        }
        drop(store);
        arena.crash_seeded(crash_seed);

        let (store, report) = open_store_with(&arena, shards, workers);
        prop_assert_eq!(report.parallel_workers, workers.min(shards));

        // The model: a batch's ops survive iff it committed AND either it
        // was cross-shard (recovery redoes it from its durable intents)
        // or its one shard checkpointed after it (ordinary durability).
        let mut last_adv = vec![None::<usize>; shards];
        for (i, d) in done.iter().enumerate() {
            if let BatchDone::Advance(s) = d {
                last_adv[*s] = Some(i);
            }
        }
        let mut expect = base_model;
        for (i, d) in done.iter().enumerate() {
            if let BatchDone::Batch { ops, committed, cross } = d {
                if !committed {
                    continue;
                }
                let durable = *cross || {
                    let s = store.shard_of(&[ops[0].key()]);
                    last_adv[s].is_some_and(|j| j > i)
                };
                if !durable {
                    continue;
                }
                for op in ops {
                    match op {
                        BatchOpT::Put(k, v) => {
                            expect.insert(*k, vval(*v));
                        }
                        BatchOpT::Delete(k) => {
                            expect.remove(k);
                        }
                    }
                }
            }
        }
        let sess = store.session().unwrap();
        let scanned: Vec<(u8, Vec<u8>)> = store.iter(&sess).map(|(k, v)| (k[0], v)).collect();
        let want: Vec<(u8, Vec<u8>)> = expect.into_iter().collect();
        prop_assert_eq!(scanned, want);
    }
}

// ---------------------------------------------------------------------
// Durable commits across executions vs the committed-prefix model
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum RunEvent {
    /// `commit_durable` (true) or `stage_without_commit` (false) of 1–6
    /// mixed puts/deletes.
    Batch { ops: Vec<BatchOpT>, commit: bool },
    /// `checkpoint_shard`: retires the shard's bit from every commit run.
    AdvanceShard(u8),
    /// Seeded crash and reopen; the tape continues on the recovered
    /// store, whose next id skips to the ceiling (a new run).
    Crash(u64),
}

fn run_event_strategy() -> impl Strategy<Value = RunEvent> {
    let op = prop_oneof![
        3 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| BatchOpT::Put(k, v)),
        1 => any::<u8>().prop_map(BatchOpT::Delete),
    ];
    prop_oneof![
        6 => (proptest::collection::vec(op, 1..7), prop_oneof![3 => Just(true), 1 => Just(false)])
            .prop_map(|(ops, commit)| RunEvent::Batch { ops, commit }),
        2 => any::<u8>().prop_map(RunEvent::AdvanceShard),
        1 => any::<u64>().prop_map(RunEvent::Crash),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Commit runs under every way a run can end: random tapes of durable
    /// commits, batches that stage and never commit, per-shard
    /// checkpoints and crashes with reopens, then a final crash. A
    /// `commit_durable` is durable on return, so after every recovery the
    /// contents must equal the model of exactly the committed batches, in
    /// commit order — and no id that only staged may ever lie inside a
    /// run on media, however runs were extended, opened and reused.
    #[test]
    fn durable_commit_tapes_recover_to_the_committed_prefix(
        events in proptest::collection::vec(run_event_strategy(), 1..24),
        final_seed in any::<u64>(),
        shards in shard_strategy(),
        workers in prop_oneof![Just(1usize), Just(4)],
    ) {
        use incll_pmem::superblock::batch_is_committed;

        let arena = PArena::builder()
            .capacity_bytes(32 << 20)
            .tracked(true)
            .build()
            .unwrap();
        let mut store = open_store_with(&arena, shards, 1).0;
        let mut model: BTreeMap<u8, Vec<u8>> = BTreeMap::new();
        let mut staged_only: Vec<u64> = Vec::new();
        let mut last_id = 0u64;
        let crashes = events.iter().cloned().chain([RunEvent::Crash(final_seed)]);
        for ev in crashes {
            match ev {
                RunEvent::Batch { ops, commit } => {
                    let sess = store.session().unwrap();
                    let mut b = sess.batch();
                    for op in &ops {
                        match op {
                            BatchOpT::Put(k, v) => b.put(&[*k], &vval(*v)).unwrap(),
                            BatchOpT::Delete(k) => b.delete(&[*k]).unwrap(),
                        }
                    }
                    if !commit {
                        // One-shard batches stage nothing and take no id.
                        let id = b.stage_without_commit().unwrap();
                        if id != 0 {
                            prop_assert!(id > last_id);
                            last_id = id;
                            staged_only.push(id);
                        }
                        continue;
                    }
                    let id = b.commit_durable().unwrap();
                    prop_assert!(id > last_id, "ids are monotonic across executions");
                    last_id = id;
                    prop_assert!(batch_is_committed(&arena, id));
                    for op in &ops {
                        match op {
                            BatchOpT::Put(k, v) => model.insert(*k, vval(*v)),
                            BatchOpT::Delete(k) => model.remove(k),
                        };
                    }
                }
                RunEvent::AdvanceShard(s) => {
                    store.checkpoint_shard(s as usize % shards);
                }
                RunEvent::Crash(seed) => {
                    drop(store);
                    arena.crash_seeded(seed);
                    store = open_store_with(&arena, shards, workers).0;
                    let sess = store.session().unwrap();
                    let got: Vec<(u8, Vec<u8>)> =
                        store.iter(&sess).map(|(k, v)| (k[0], v)).collect();
                    let want: Vec<(u8, Vec<u8>)> = model.clone().into_iter().collect();
                    prop_assert_eq!(got, want);
                }
            }
            for id in &staged_only {
                prop_assert!(!batch_is_committed(&arena, *id), "staged-only id {} in a run", id);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Per-shard allocator arenas: carve frontiers never overlap
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Any interleaving of allocations across domains, threads, size
    /// classes and epochs: every payload stays inside an extent its own
    /// domain owns, and no two live payloads overlap — per-shard carve
    /// frontiers never hand out the same slab twice, within or across
    /// shards, even as shards claim new extents from the shared pool.
    #[test]
    fn per_shard_carve_frontiers_never_hand_out_overlapping_slabs(
        tape in proptest::collection::vec(
            (0usize..4, 0usize..2, 0usize..5, 1u64..4), 1..150),
        domains in prop_oneof![Just(2usize), Just(4)],
    ) {
        use incll_palloc::PAlloc;
        use incll_pmem::superblock;

        let arena = PArena::builder().capacity_bytes(32 << 20).build().unwrap();
        superblock::format(&arena);
        let alloc = PAlloc::create_sharded(&arena, 2, domains).unwrap();
        // Sizes spanning several classes, including slab-forcing big ones.
        let sizes = [16usize, 100, 600, 1500, 3500];
        let mut live: Vec<(u64, u64, usize)> = Vec::new(); // (start, end, domain)
        for &(d, t, szi, epoch) in &tape {
            let d = d % domains;
            let size = sizes[szi];
            let p = alloc.alloc_in(t, d, epoch, size).unwrap();
            let end = p + size as u64;
            let owned = alloc.owned_extents(d);
            prop_assert!(
                owned.iter().any(|&(rs, rl)| p >= rs && end <= rl),
                "payload [{p:#x}, {end:#x}) lies in no extent owned by domain {d} ({owned:x?})"
            );
            for &(q, qe, qd) in &live {
                prop_assert!(
                    end <= q || qe <= p,
                    "[{p:#x}, {end:#x}) of domain {d} overlaps [{q:#x}, {qe:#x}) of domain {qd}"
                );
            }
            live.push((p, end, d));
        }
        // Distinct domains never share an extent.
        for a in 0..domains {
            for b in a + 1..domains {
                for &(s, e) in &alloc.owned_extents(a) {
                    for &(s2, e2) in &alloc.owned_extents(b) {
                        prop_assert!(e <= s2 || s >= e2, "domains {a}/{b} share an extent");
                    }
                }
            }
        }
    }
}
