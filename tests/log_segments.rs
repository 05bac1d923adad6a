//! The external log claims arena only where it has written. A (slot,
//! shard) log buffer is a list of segments cut from pool extents its
//! shard owns under the log owner code, taken as the buffer's cursor
//! reaches them: one per buffer at format, the rest by the log-room rule.
//! These batteries pin what that claims, what a full pool does to it, and
//! how a crash anywhere inside a segment claim recovers.

use std::collections::BTreeMap;

use incll_pmem::superblock;
use incll_repro::prelude::*;

const MIB: usize = 1 << 20;

/// Directory words of `(thread, shard)`'s buffer, as the media holds them.
fn dir_words(arena: &PArena, thread: usize, shard: usize) -> Vec<u64> {
    let domains = arena.pread_u64(superblock::SB_EXTLOG_DOMAINS) as usize;
    let words = arena.pread_u64(superblock::SB_EXTLOG_DIR_WORDS) as usize;
    let first = (thread * domains + shard) * words;
    (first..first + words)
        .map(|w| arena.pread_u64(superblock::log_dir_off(w)))
        .collect()
}

/// Every extent's owner byte.
fn owners(arena: &PArena, store: &Store) -> Vec<u8> {
    (0..store.extent_stats().unwrap().extent_count)
        .map(|i| superblock::extent_owner(arena, i))
        .collect()
}

/// How many extents `owner` holds.
fn count(owners: &[u8], owner: u8) -> usize {
    owners.iter().filter(|&&o| o == owner).count()
}

/// The `n`-th..`n + len` 8-byte keys routed to `shard`.
fn keys_on(store: &Store, shard: usize, tag: &str, n: usize) -> Vec<Vec<u8>> {
    (0u64..)
        .map(|i| format!("{tag}{i:0w$}", w = 8 - tag.len()).into_bytes())
        .filter(|k| store.shard_of(k) == shard)
        .take(n)
        .collect()
}

fn contents(store: &Store) -> Vec<(Vec<u8>, Vec<u8>)> {
    let sess = store.session().unwrap();
    store.iter(&sess).collect()
}

#[test]
fn the_log_claims_only_the_segments_its_writers_reached() {
    // Eight session slots, four shards, 16 MiB of log per slot: the old
    // layout set 128 MiB aside at format. One session writes; the other
    // seven hold one segment per shard and nothing more.
    let arena = PArena::builder().capacity_bytes(192 * MIB).build().unwrap();
    let opts = || {
        Options::new()
            .threads(8)
            .shards(4)
            .log_bytes_per_thread(16 * MIB)
    };
    let (store, _) = Store::open(&arena, opts()).unwrap();
    let seg = arena.pread_u64(superblock::SB_EXTLOG_SEGMENT);
    let ext = store.extent_stats().unwrap().extent_bytes;
    let per_extent = (ext / seg) as usize;
    assert_eq!(
        per_extent, 8,
        "one extent per shard gives all 8 slots a segment"
    );
    let sess = store.session().unwrap();
    // Durable commits stage an intent per put on its key's shard: enough
    // of them carry the writer's buffers past their first two segments on
    // every shard, within one epoch.
    let scramble = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_be_bytes();
    let held = |t: usize, s: usize| {
        dir_words(&arena, t, s)
            .iter()
            .take_while(|&&w| w != 0)
            .count()
    };
    let mut i = 0u64;
    while (0..4).any(|s| held(0, s) < 3) {
        let mut b = sess.batch();
        for _ in 0..512 {
            b.put(&scramble(i), &i.to_le_bytes()).unwrap();
            i += 1;
        }
        b.commit_durable().unwrap();
    }
    let own = owners(&arena, &store);
    for s in 0..4 {
        let writer = dir_words(&arena, 0, s);
        let held = held(0, s);
        assert!(writer[held..].iter().all(|&w| w == 0));
        // The writer's growth claims whole extents, each cut into
        // segments it takes in turn; format's extent fed every slot.
        assert_eq!(
            count(&own, superblock::log_owner(s)),
            1 + (held - 1).div_ceil(per_extent),
            "shard {s}: log extents for {held} segments"
        );
        for t in 1..8 {
            let idle = dir_words(&arena, t, s);
            assert_ne!(idle[0], 0, "slot {t} shard {s} holds its first segment");
            assert!(
                idle[1..].iter().all(|&w| w == 0),
                "slot {t} shard {s} claimed past its first segment"
            );
        }
    }
    store.checkpoint();

    // Then fill the arena with 8-byte values until the pool runs out. The
    // old layout's pool was the capacity less the 128 MiB region, and a
    // key costs at least its 32-byte value object and a 14th of a leaf's
    // 384-byte stride there: more keys than that bound proves the region
    // is gone.
    let old_pool = 192 * MIB as u64 - 8 * 16 * MIB as u64;
    let old_bound = old_pool * 14 / (14 * 32 + 384);
    let mut stored = i;
    loop {
        match store.put_u64(&sess, &scramble(stored), stored) {
            Ok(_) => stored += 1,
            Err(Error::Pmem(incll_pmem::Error::OutOfMemory { .. })) => break,
            Err(e) => panic!("after {stored} keys: {e}"),
        }
        if stored.is_multiple_of(65_536) {
            store.checkpoint();
        }
    }
    assert!(
        stored > old_bound,
        "{stored} keys fit; the old layout's pool held at most {old_bound}"
    );
}

/// The value every full-pool overwrite stores.
const BIG: [u8; 3000] = [0x5a; 3000];

/// A store whose pool is full of data, written by both of its sessions
/// (allocator lists are per session slot): each (slot, shard) log buffer
/// holds the first of its segments.
fn full_pool_store(
    arena: &PArena,
    shards: usize,
) -> (Store, [Session; 2], BTreeMap<Vec<u8>, Vec<u8>>) {
    let opts = Options::new()
        .threads(2)
        .shards(shards)
        .log_bytes_per_thread(2 * MIB);
    let (store, _) = Store::open(arena, opts).unwrap();
    let seg = arena.pread_u64(superblock::SB_EXTLOG_SEGMENT);
    let per_slot = arena.pread_u64(superblock::SB_EXTLOG_PER_THREAD);
    assert!(
        per_slot >= 2 * seg,
        "shards={shards}: one segment per buffer"
    );
    let mut model = BTreeMap::new();
    let hot: Vec<Vec<Vec<u8>>> = (0..shards).map(|s| keys_on(&store, s, "h", 32)).collect();
    let sessions = [store.session().unwrap(), store.session().unwrap()];
    for k in hot.iter().flatten() {
        store.put(&sessions[0], k, b"seed").unwrap();
        model.insert(k.clone(), b"seed".to_vec());
    }
    store.checkpoint();
    // Overwrites allocate fresh buffers while the displaced ones wait for
    // a boundary: every (session, shard) runs dry, and the pool with them.
    let mut full = vec![false; 2 * shards];
    let mut i = 0usize;
    while full.contains(&false) {
        let (t, s) = (i % 2, (i / 2) % shards);
        let k = &hot[s][(i / (2 * shards)) % 32];
        if !full[t * shards + s] {
            match store.put(&sessions[t], k, &BIG) {
                Ok(_) => {
                    model.insert(k.clone(), BIG.to_vec());
                }
                Err(Error::Pmem(incll_pmem::Error::OutOfMemory { .. })) => {
                    full[t * shards + s] = true
                }
                Err(e) => panic!("shards={shards}: {e}"),
            }
        }
        i += 1;
    }
    (store, sessions, model)
}

#[test]
fn a_full_pool_leaves_every_session_its_segments_and_fails_oversized_commits_typed() {
    for shards in [1usize, 4] {
        let arena = PArena::builder().capacity_bytes(8 * MIB).build().unwrap();
        let (store, sessions, mut model) = full_pool_store(&arena, shards);
        let seg = arena.pread_u64(superblock::SB_EXTLOG_SEGMENT);
        let own = owners(&arena, &store);
        assert!(!own.contains(&0), "shards={shards}: a free extent is left");
        // Long keys make intent-heavy deletes that allocate nothing.
        let long = |s: usize, tag: u64| -> Vec<u8> {
            (0u64..)
                .map(|i| {
                    let mut k = format!("gone{tag}-{i}-").into_bytes();
                    k.resize(4000, b'x');
                    k
                })
                .find(|k| store.shard_of(k) == s)
                .unwrap()
        };
        for (t, sess) in sessions.iter().enumerate() {
            for s in 0..shards {
                // Durable commits fill the buffer's one segment; the
                // next one finds the pool full and forces the boundary.
                let forced = store.shard_stats(s).advances_forced;
                let doomed: Vec<Vec<u8>> = (0..16).map(|j| long(s, j)).collect();
                let mut n = 0;
                while store.shard_stats(s).advances_forced == forced {
                    let mut b = sess.batch();
                    for k in &doomed {
                        b.delete(k).unwrap();
                    }
                    b.commit_durable().unwrap();
                    n += 1;
                    assert!(n < 1000, "shards={shards} slot {t} shard {s}: no boundary");
                }
                // After it, puts and removes run as ever: the boundary
                // released the buffers the session displaced, and one
                // segment holds any single op's undo.
                let k = keys_on(&store, s, "h", 1).remove(0);
                store.put(sess, &k, &BIG).unwrap();
                model.insert(k.clone(), BIG.to_vec());
                let gone = keys_on(&store, s, "h", 2 + t).remove(1 + t);
                assert!(store.remove(sess, &gone));
                model.remove(&gone);
                // A commit whose intents (4 048 bytes an op) overflow the
                // segment the buffer holds, though its reservation (768
                // bytes of undo allowance more an op) fits the capacity,
                // fails typed and writes nothing.
                let ids = arena.pread_u64(superblock::SB_BATCH_NEXT_ID);
                let mut b = sess.batch();
                let ops = (seg as usize * 5 / 4) / 4048;
                for j in 0..ops {
                    b.delete(&long(s, 100 + j as u64)).unwrap();
                }
                match b.commit_durable() {
                    Err(Error::Pmem(incll_pmem::Error::OutOfMemory { .. })) => {}
                    other => panic!("shards={shards} slot {t} shard {s}: got {other:?}"),
                }
                assert_eq!(store.shard_stats(s).bytes_since_boundary, 0);
                assert_eq!(arena.pread_u64(superblock::SB_BATCH_NEXT_ID), ids);
            }
        }
        assert_eq!(
            owners(&arena, &store),
            own,
            "shards={shards}: nothing claimed"
        );
        drop(sessions);
        let want: Vec<_> = model.into_iter().collect();
        assert!(
            contents(&store) == want,
            "shards={shards}: live contents differ"
        );
        drop(store);
        let opts = Options::new()
            .threads(2)
            .shards(shards)
            .log_bytes_per_thread(2 * MIB);
        let (store, _) = Store::open(&arena, opts).unwrap();
        assert!(
            contents(&store) == want,
            "shards={shards}: reopened contents differ"
        );
    }
}

// ---------------------------------------------------------------------
// Crashes inside a segment claim
// ---------------------------------------------------------------------

fn tracked() -> PArena {
    PArena::builder()
        .capacity_bytes(4 * MIB)
        .tracked(true)
        .build()
        .unwrap()
}

/// Four slots, so format's extent gives out all its segments and the
/// writer's second segment claims a fresh extent; two segments a buffer.
fn options(shards: usize, workers: usize) -> Options {
    Options::new()
        .threads(4)
        .shards(shards)
        .log_bytes_per_thread(512 << 10)
        .recovery_threads(workers)
}

/// Log bytes of a put's intent entry with a `key`-byte key and a
/// `val`-byte value (32-byte header; payload of two words, key, value).
fn put_entry(key: usize, val: usize) -> u64 {
    32 + (16 + key + val).next_multiple_of(8) as u64
}

fn read_line(arena: &PArena, line: u64) -> Vec<u8> {
    let mut buf = vec![0u8; 64];
    arena.pread_bytes(line * 64, &mut buf);
    buf
}

/// A `len`-byte key routed to shard 0 that no test stores.
fn absent(store: &Store, len: usize, i: u64) -> Vec<u8> {
    (0u64..)
        .map(|j| {
            let mut k = format!("absent{i}-{j}-").into_bytes();
            k.resize(len, b'z');
            k
        })
        .find(|k| store.shard_of(k) == 0)
        .unwrap()
}

/// What the claim cell leaves behind for comparison.
struct Claim {
    got: Vec<(Vec<u8>, Vec<u8>)>,
    owners: Vec<u8>,
    digest: u64,
}

fn digest(arena: &PArena) -> u64 {
    let mut buf = vec![0u8; arena.capacity()];
    arena.pread_bytes(0, &mut buf);
    buf.chunks(8).fold(0xcbf2_9ce4_8422_2325, |h, w| {
        let mut word = [0u8; 8];
        word[..w.len()].copy_from_slice(w);
        (h ^ u64::from_le_bytes(word)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Shard 0's writer fills its first segment with committed intents to
/// just below the boundary, then commits one batch whose reservation
/// claims a fresh log extent: two intents in the first segment, one
/// straddling the boundary, one wholly in the new segment. Then:
///
/// * `cut: None` — the crash keeps nothing that was not flushed;
/// * `cut: Some(k)` — the claim's stores are taken off the medium and
///   re-issued unflushed in protocol order (owner byte, directory word,
///   the straddling entry's lines, the new segment's entry lines, the
///   commit record, the applies' undo), and the crash keeps the first
///   `k` of them and nothing else.
///
/// Recovery must give the committed prefix: the batch iff its commit
/// record persisted. Returns `None` once `k` is past the last store.
fn claim_cell(shards: usize, workers: usize, cut: Option<usize>) -> Option<Claim> {
    let what = format!("shards={shards} workers={workers} cut={cut:?}");
    let arena = tracked();
    let (store, _) = Store::open(&arena, options(shards, 1)).unwrap();
    let seg = arena.pread_u64(superblock::SB_EXTLOG_SEGMENT);
    let mut model = BTreeMap::new();
    let sess = store.session().unwrap();
    for s in 0..shards {
        for k in keys_on(&store, s, "b", 8) {
            store.put(&sess, &k, &k).unwrap();
            model.insert(k.clone(), k);
        }
    }
    store.checkpoint();
    let owners_before = owners(&arena, &store);
    let used = |store: &Store| store.shard_stats(0).bytes_since_boundary;

    // Fillers: durable deletes of absent long keys — intents only, no
    // apply stores. A reservation covers a one-op commit's worst-case
    // undo too, so the last filler ends at most 4 688 bytes below the
    // boundary; the batch under test then starts in [seg − 8 KiB,
    // seg − 4 688].
    let lo = seg - 8192;
    let mut i = 0;
    while used(&store) < lo {
        // A delete's entry: 32-byte header, 16 bytes of words, the key.
        let room = seg - 4688 - used(&store);
        let len = (room.min(4096) - 56) as usize;
        let mut b = sess.batch();
        b.delete(&absent(&store, len, i)).unwrap();
        b.commit_durable().unwrap();
        i += 1;
    }
    let c0 = used(&store);
    assert!(c0 <= seg - 4688, "{what}: a filler crossed");
    assert_eq!(dir_words(&arena, 0, 0)[1], 0, "{what}: grew early");

    // The batch: A1, A2 end 40 bytes before the boundary, S straddles it,
    // B lies in the new segment.
    let k = keys_on(&store, 0, "x", 4);
    let e1 = put_entry(8, 4000);
    let e2 = seg - 40 - c0 - e1;
    let v2 = (e2 - put_entry(8, 0)) as usize;
    assert!(v2 <= 4096, "{what}: A2 needs {v2} bytes");
    let vals = [vec![1u8; 4000], vec![2u8; v2], vec![3u8; 40], vec![4u8; 40]];
    let s_at = seg - 40;
    let c1 = s_at + 2 * put_entry(8, 40);

    // Lines before the batch, for the surgery below.
    let dir_line = superblock::log_dir_off(1) / 64;
    let table: Vec<u64> =
        (superblock::SB_BATCH_TABLE / 64..superblock::SB_SHARD_CELLS / 64).collect();
    let seg_a_line = incll_extlog::slot_offset(&arena, 0, 0, s_at) / 64;
    let mut pre: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for &l in table.iter().chain([&dir_line, &seg_a_line]) {
        pre.insert(l, read_line(&arena, l));
    }
    let mut b = sess.batch();
    for (key, val) in k.iter().zip(&vals) {
        b.put(key, val).unwrap();
        model.insert(key.clone(), val.clone());
    }
    b.commit_durable().unwrap();
    let c2 = used(&store);
    drop(sess);
    drop(store);

    let after = {
        let (s, _) = (0..owners_before.len())
            .map(|i| (i, superblock::extent_owner(&arena, i)))
            .find(|&(i, o)| o != owners_before[i])
            .expect("the batch claimed an extent");
        s
    };
    assert_eq!(
        superblock::extent_owner(&arena, after),
        superblock::log_owner(0),
        "{what}"
    );
    let new_seg = dir_words(&arena, 0, 0)[1];
    assert_ne!(new_seg, 0, "{what}");
    assert_eq!(
        incll_extlog::slot_offset(&arena, 0, 0, seg),
        new_seg,
        "{what}: the second segment starts the claimed extent"
    );

    let Some(cut) = cut else {
        arena.crash_with(|_, _| 0);
        return Some(recover(&arena, shards, workers, &model, &what));
    };
    // The claim's stores in protocol order, one line each.
    let owner_line = superblock::extent_owner_off(after) / 64;
    let mut order = vec![owner_line, dir_line, seg_a_line];
    let line_of = |off: u64| incll_extlog::slot_offset(&arena, 0, 0, off) / 64;
    let mut off = seg;
    while off < c1 {
        order.push(line_of(off));
        off += 64;
    }
    order.extend(table.iter().filter(|&&l| read_line(&arena, l) != pre[&l]));
    let mut off = c1 & !63;
    while off < c2 {
        let l = line_of(off);
        if !order.contains(&l) {
            order.push(l);
        }
        off += 64;
    }
    if cut > order.len() {
        return None;
    }
    let committed_at = order.len() - order.iter().rev().position(|l| table.contains(l)).unwrap();
    if cut < committed_at {
        for key in &k {
            model.remove(key);
        }
    }
    // Off the medium: each line's content before the batch (the new
    // segment's and the owner byte's were zero), flushed.
    let post: Vec<Vec<u8>> = order.iter().map(|&l| read_line(&arena, l)).collect();
    for &l in &order {
        let old = pre.get(&l).cloned().unwrap_or_else(|| {
            if l == owner_line {
                let mut o = read_line(&arena, l);
                o[(superblock::extent_owner_off(after) % 64) as usize] = 0;
                o
            } else {
                vec![0u8; 64]
            }
        });
        arena.pwrite_bytes(l * 64, &old);
        arena.clwb(l * 64);
    }
    arena.sfence();
    // Re-issued unflushed, in order; the crash keeps the first `cut`.
    for (l, new) in order.iter().zip(&post) {
        arena.pwrite_bytes(l * 64, new);
    }
    arena.crash_with(|line, n| match order.iter().position(|&l| l == line) {
        Some(i) if i < cut => n,
        _ => 0,
    });
    let mut out = recover(&arena, shards, workers, &model, &what);
    // The claim's fate: an owner byte that persisted keeps the extent
    // the log's, in doubt while its directory word did not persist, and
    // recovery's redo of the fillers, which grows the writer's buffer,
    // takes its segment back without claiming anything. One that did not
    // persist leaves the extent free until that growth claims it anew.
    // Never a data extent either way.
    assert_eq!(out.owners[after], superblock::log_owner(0), "{what}");
    if cut >= 1 {
        let mut crashed = owners_before.clone();
        crashed[after] = superblock::log_owner(0);
        assert_eq!(out.owners, crashed, "{what}: recovery claimed an extent");
    }
    // Growing the writer again, if recovery did not, takes the claimed
    // extent's segment: never a second claim.
    let (store, _) = Store::open(&arena, options(shards, workers)).unwrap();
    let sess = store.session().unwrap();
    let before_regrow = owners(&arena, &store);
    while dir_words(&arena, 0, 0)[1] == 0 {
        let mut b = sess.batch();
        b.delete(&absent(&store, 4000, 1_000_000 + i)).unwrap();
        b.commit_durable().unwrap();
        i += 1;
    }
    let own = owners(&arena, &store);
    assert_eq!(
        dir_words(&arena, 0, 0)[1],
        new_seg,
        "{what}: regrown elsewhere"
    );
    assert_eq!(own[after], superblock::log_owner(0), "{what}");
    assert_eq!(
        count(&own, superblock::log_owner(0)),
        count(&owners_before, superblock::log_owner(0)) + 1,
        "{what}: claimed twice"
    );
    assert_eq!(
        own, before_regrow,
        "{what}: an in-doubt claim was claimed again"
    );
    for s in 0..shards {
        assert_eq!(
            count(&own, superblock::data_owner(s)),
            count(&owners_before, superblock::data_owner(s)),
            "{what}: shard {s}'s data chain changed"
        );
    }
    drop(sess);
    drop(store);
    out.owners = own;
    Some(out)
}

/// Opens the crashed arena and checks it against `model`.
fn recover(
    arena: &PArena,
    shards: usize,
    workers: usize,
    model: &BTreeMap<Vec<u8>, Vec<u8>>,
    what: &str,
) -> Claim {
    let (store, _) = Store::open(arena, options(shards, workers)).unwrap();
    let got = contents(&store);
    let want: Vec<_> = model.clone().into_iter().collect();
    if got != want {
        let keys = |v: &[(Vec<u8>, Vec<u8>)]| -> Vec<String> {
            v.iter()
                .map(|(k, v)| format!("{}={}B", String::from_utf8_lossy(k), v.len()))
                .collect()
        };
        panic!(
            "{what}: not the committed prefix: got {:?}, want {:?}",
            keys(&got),
            keys(&want)
        );
    }
    let owners = owners(arena, &store);
    drop(store);
    Claim {
        got,
        owners,
        digest: digest(arena),
    }
}

#[test]
fn a_committed_batch_in_a_fresh_segment_survives_a_crash_keeping_only_what_was_flushed() {
    // The drain that makes the batch's intents durable writes the new
    // segment's directory word back under the same fence, so redo finds
    // the straddling intent and the one behind it.
    for shards in [1usize, 4] {
        for workers in [1usize, 4] {
            claim_cell(shards, workers, None).unwrap();
        }
    }
}

#[test]
fn every_persisted_prefix_of_a_segment_claim_recovers_the_committed_prefix() {
    for shards in [1usize, 4] {
        for cut in 0.. {
            let mut first: Option<Claim> = None;
            for workers in [1usize, 4] {
                let Some(out) = claim_cell(shards, workers, Some(cut)) else {
                    break;
                };
                if let Some(base) = &first {
                    assert!(
                        base.got == out.got,
                        "shards={shards} cut={cut}: contents differ by worker count"
                    );
                    assert_eq!(base.owners, out.owners);
                    assert_eq!(
                        base.digest, out.digest,
                        "shards={shards} cut={cut}: recovery differs by worker count"
                    );
                } else {
                    first = Some(out);
                }
            }
            if first.is_none() {
                assert!(cut > 6, "shards={shards}: only {cut} stores enumerated");
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Segments a boundary gives back
// ---------------------------------------------------------------------

/// Durable commits of 16 puts of 1000-byte values each, cycling through
/// `keys` from `*next`, until `done` holds; the model follows.
fn commit_until(
    store: &Store,
    sess: &Session,
    keys: &[Vec<u8>],
    next: &mut usize,
    model: &mut BTreeMap<Vec<u8>, Vec<u8>>,
    mut done: impl FnMut(&Store) -> bool,
) {
    let mut commits = 0;
    while !done(store) {
        let mut b = sess.batch();
        for _ in 0..16 {
            let k = &keys[*next % keys.len()];
            let v = vec![(*next % 251) as u8; 1000];
            b.put(k, &v).unwrap();
            model.insert(k.clone(), v);
            *next += 1;
        }
        b.commit_durable().unwrap();
        commits += 1;
        assert!(commits < 10_000, "no progress");
    }
}

#[test]
fn a_boundary_hands_a_full_buffers_segments_to_the_next_writer() {
    // Two slots, four shards, 2 MiB per (slot, shard) on 1 MiB extents:
    // 512 KiB segments, four a buffer. A shard's log is bounded by one
    // cap plus a segment per slot, 3 MiB: three extents.
    let arena = PArena::builder().capacity_bytes(64 * MIB).build().unwrap();
    let opts = Options::new()
        .threads(2)
        .shards(4)
        .log_bytes_per_thread(8 * MIB);
    let (store, _) = Store::open(&arena, opts).unwrap();
    let seg = arena.pread_u64(superblock::SB_EXTLOG_SEGMENT);
    let ext = store.extent_stats().unwrap().extent_bytes;
    assert_eq!((seg, ext), (512 << 10, MIB as u64));
    let s = 2;
    let keys = keys_on(&store, s, "r", 2048);
    let (a, b) = (store.session().unwrap(), store.session().unwrap());
    let (ta, tb) = (a.tid(), b.tid());
    let mut model = BTreeMap::new();
    let mut next = 0;

    // A fills its buffer on the shard to its cap, within one epoch.
    commit_until(&store, &a, &keys, &mut next, &mut model, |_| {
        !dir_words(&arena, ta, s).contains(&0)
    });
    let st = store.shard_stats(s);
    assert_eq!(st.advances_forced, 0);
    assert_eq!(st.log_bytes_held, 3 * ext, "{st:?}");
    assert_eq!(count(&owners(&arena, &store), superblock::log_owner(s)), 3);
    let held_by_a = dir_words(&arena, ta, s);

    // B writes past its first segment, then its second: the shard's log
    // is at its bound, so B forces the boundary, which hands A's
    // segments back, and B grows into them without claiming.
    commit_until(&store, &b, &keys, &mut next, &mut model, |st| {
        st.shard_stats(s).advances_forced > 0
    });
    commit_until(&store, &b, &keys, &mut next, &mut model, |_| {
        dir_words(&arena, tb, s)[2] != 0
    });
    let st = store.shard_stats(s);
    assert_eq!(st.advances_forced, 1, "{st:?}");
    assert_eq!(
        count(&owners(&arena, &store), superblock::log_owner(s)),
        3,
        "the log claimed an extent"
    );
    assert_eq!(st.log_bytes_held, 3 * ext);
    let a_words = dir_words(&arena, ta, s);
    assert_eq!(a_words[0], held_by_a[0], "A keeps its first segment");
    assert!(
        a_words[1..].iter().all(|&w| w == 0),
        "A's words past its first are not cleared on media: {a_words:?}"
    );
    assert!(
        dir_words(&arena, tb, s)[1..3]
            .iter()
            .any(|w| held_by_a[1..].contains(w)),
        "B grew into none of A's returned segments"
    );
    for other in (0..4).filter(|&o| o != s) {
        assert_eq!(store.shard_stats(other).advances_forced, 0);
    }

    // Every key reads back, live and after a reopen.
    for (k, v) in &model {
        assert_eq!(store.get(&a, k).as_deref(), Some(&v[..]));
    }
    let want: Vec<_> = model.into_iter().collect();
    let live: Vec<_> = store.iter(&a).collect();
    assert!(live == want, "live contents differ");
    drop((a, b));
    drop(store);
    let opts = Options::new()
        .threads(2)
        .shards(4)
        .log_bytes_per_thread(8 * MIB);
    let (store, _) = Store::open(&arena, opts).unwrap();
    assert!(contents(&store) == want, "reopened contents differ");
}

/// Where [`return_cell`] crashes.
#[derive(Clone, Copy, Debug)]
enum ReturnCrash {
    /// Right after the boundary that returned A's segment, keeping
    /// nothing that was not flushed.
    AfterTrim,
    /// At the end, keeping nothing that was not flushed.
    AtEnd,
    /// The return's and the reuse's stores are taken off the medium and
    /// re-issued unflushed in protocol order — A's directory word
    /// cleared, B's word naming the segment, the straddling entry's
    /// line, B's entry lines in the segment, the commit record, the
    /// applies' undo — and the crash keeps the first `k` of them.
    Prefix(usize),
}

/// One durable delete of an absent `len`-byte key: an intent and
/// nothing else.
fn intent_only(store: &Store, sess: &Session, len: usize, i: u64) {
    let mut b = sess.batch();
    b.delete(&absent(store, len, i)).unwrap();
    b.commit_durable().unwrap();
}

/// Arena offset of `(thread, shard)`'s directory word `pos`.
fn dir_word_off(arena: &PArena, thread: usize, shard: usize, pos: usize) -> u64 {
    let domains = arena.pread_u64(superblock::SB_EXTLOG_DOMAINS) as usize;
    let words = arena.pread_u64(superblock::SB_EXTLOG_DIR_WORDS) as usize;
    superblock::log_dir_off((thread * domains + shard) * words + pos)
}

/// On shard 0 of a one-shard store, slot A grows into its second log
/// segment, and a checkpoint of the shard returns that segment. Slot B
/// then fills its first segment to just below the boundary and commits
/// a batch that grows it into the returned segment: two intents before
/// the boundary, one straddling it, one past it. The crash falls where
/// `crash` says; recovery must give the committed state, and at no
/// crash may two directory words on media name one segment, so replay
/// never reads B's entries through A's stale word. Returns `false` once
/// `Prefix(k)` is past the last store.
fn return_cell(crash: ReturnCrash) -> bool {
    let what = format!("{crash:?}");
    let arena = tracked();
    let (store, _) = Store::open(&arena, options(1, 1)).unwrap();
    let seg = arena.pread_u64(superblock::SB_EXTLOG_SEGMENT);
    let mut model = BTreeMap::new();
    let (a, b) = (store.session().unwrap(), store.session().unwrap());
    let (ta, tb) = (a.tid(), b.tid());
    for k in keys_on(&store, 0, "b", 8) {
        store.put(&a, &k, &k).unwrap();
        model.insert(k.clone(), k);
    }
    store.checkpoint();
    let used = |store: &Store| store.shard_stats(0).bytes_since_boundary;
    let mut i = 0;
    while used(&store) < seg + 8192 {
        intent_only(&store, &a, 4000, i);
        i += 1;
    }
    let returned = dir_words(&arena, ta, 0)[1];
    assert_ne!(returned, 0, "{what}: A never grew");
    let (a_line, b_line) = (
        dir_word_off(&arena, ta, 0, 1) / 64,
        dir_word_off(&arena, tb, 0, 1) / 64,
    );
    let pre_trim = read_line(&arena, a_line);
    store.checkpoint_shard(0);
    assert_eq!(dir_words(&arena, ta, 0)[1], 0, "{what}: A kept its segment");
    // No two words on media name one segment.
    let named_once = |what: &str| {
        let mut named: Vec<u64> = (0..4)
            .flat_map(|t| dir_words(&arena, t, 0))
            .filter(|&w| w != 0)
            .collect();
        let n = named.len();
        named.sort_unstable();
        named.dedup();
        assert_eq!(named.len(), n, "{what}: a segment named twice");
    };
    if let ReturnCrash::AfterTrim = crash {
        drop((a, b));
        drop(store);
        arena.crash_with(|_, _| 0);
        assert_eq!(
            dir_words(&arena, ta, 0)[1],
            0,
            "{what}: the clear was not fenced"
        );
        recover(&arena, 1, 1, &model, &what);
        return true;
    }
    let trimmed = read_line(&arena, a_line);

    // B's fillers end at most 4 688 bytes below its segment boundary
    // (see `claim_cell`), then the batch under test.
    let lo = seg - 8192;
    while used(&store) < lo {
        let room = seg - 4688 - used(&store);
        intent_only(&store, &b, (room.min(4096) - 56) as usize, i);
        i += 1;
    }
    let c0 = used(&store);
    assert!(c0 <= seg - 4688, "{what}: a filler crossed");
    assert_eq!(dir_words(&arena, tb, 0)[1], 0, "{what}: B grew early");
    let k = keys_on(&store, 0, "x", 4);
    let e1 = put_entry(8, 4000);
    let e2 = seg - 40 - c0 - e1;
    let v2 = (e2 - put_entry(8, 0)) as usize;
    assert!(v2 <= 4096, "{what}: A2 needs {v2} bytes");
    let vals = [vec![1u8; 4000], vec![2u8; v2], vec![3u8; 40], vec![4u8; 40]];
    let s_at = seg - 40;
    let c1 = s_at + 2 * put_entry(8, 40);
    let table: Vec<u64> =
        (superblock::SB_BATCH_TABLE / 64..superblock::SB_SHARD_CELLS / 64).collect();
    let straddle_line = incll_extlog::slot_offset(&arena, tb, 0, s_at) / 64;
    let seg_lines: Vec<u64> = (0..64).map(|l| returned / 64 + l).collect();
    let mut pre: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for &l in table
        .iter()
        .chain(&seg_lines)
        .chain([&straddle_line, &b_line])
    {
        pre.insert(l, read_line(&arena, l));
    }
    pre.insert(a_line, pre_trim);
    let mut bt = b.batch();
    for (key, val) in k.iter().zip(&vals) {
        bt.put(key, val).unwrap();
        model.insert(key.clone(), val.clone());
    }
    bt.commit_durable().unwrap();
    let c2 = used(&store);
    assert_eq!(
        dir_words(&arena, tb, 0)[1],
        returned,
        "{what}: B did not take the returned segment"
    );
    assert!(c2 - seg <= 64 * 64, "{what}: B wrote past the lines saved");
    drop((a, b));
    drop(store);

    let Some(cut) = (match crash {
        ReturnCrash::Prefix(cut) => Some(cut),
        _ => None,
    }) else {
        arena.crash_with(|_, _| 0);
        named_once(&what);
        recover(&arena, 1, 1, &model, &what);
        return true;
    };
    // The stores in protocol order: (line, content).
    let line_of = |off: u64| incll_extlog::slot_offset(&arena, tb, 0, off) / 64;
    let mut order: Vec<(u64, Vec<u8>)> = vec![
        (a_line, trimmed),
        (b_line, read_line(&arena, b_line)),
        (straddle_line, read_line(&arena, straddle_line)),
    ];
    let mut off = seg;
    while off < c1 {
        order.push((line_of(off), read_line(&arena, line_of(off))));
        off += 64;
    }
    for &l in &table {
        if read_line(&arena, l) != pre[&l] {
            order.push((l, read_line(&arena, l)));
        }
    }
    let mut off = c1 & !63;
    while off < c2 {
        let l = line_of(off);
        if !order.iter().any(|e| e.0 == l) {
            order.push((l, read_line(&arena, l)));
        }
        off += 64;
    }
    if cut > order.len() {
        return false;
    }
    let committed_at = order.len()
        - order
            .iter()
            .rev()
            .position(|e| table.contains(&e.0))
            .unwrap();
    if cut < committed_at {
        for key in &k {
            model.remove(key);
        }
    }
    // Off the medium: each line's content before its first store here,
    // flushed; then every store re-issued unflushed, in order.
    let mut lines: Vec<u64> = order.iter().map(|e| e.0).collect();
    lines.sort_unstable();
    lines.dedup();
    for &l in &lines {
        arena.pwrite_bytes(l * 64, &pre[&l]);
        arena.clwb(l * 64);
    }
    arena.sfence();
    for (l, content) in &order {
        arena.pwrite_bytes(l * 64, content);
    }
    arena.crash_with(|line, n| {
        let stores = order.iter().filter(|e| e.0 == line).count();
        assert!(
            stores == 0 || n == stores,
            "{what}: line {line} holds other stores"
        );
        order[..cut].iter().filter(|e| e.0 == line).count()
    });
    named_once(&what);
    recover(&arena, 1, 1, &model, &what);
    true
}

#[test]
fn every_persisted_prefix_of_a_segment_return_recovers_the_committed_state() {
    assert!(return_cell(ReturnCrash::AfterTrim));
    assert!(return_cell(ReturnCrash::AtEnd));
    for cut in 0.. {
        if !return_cell(ReturnCrash::Prefix(cut)) {
            assert!(cut > 4, "only {cut} stores enumerated");
            break;
        }
    }
}

#[test]
fn a_commit_rechecks_its_room_when_a_boundary_trims_its_buffer() {
    // Eight slots of 1 MiB per shard on 1 MiB extents: 128 KiB segments.
    // Every commit below reserves more than a first segment, so a
    // boundary between its reservation and its pins trims the buffer
    // under it: the commit must see that and reserve again, never
    // append past its room.
    let arena = PArena::builder().capacity_bytes(64 * MIB).build().unwrap();
    let opts = Options::new()
        .threads(8)
        .shards(2)
        .log_bytes_per_thread(2 * MIB);
    let (store, _) = Store::open(&arena, opts).unwrap();
    let seg = arena.pread_u64(superblock::SB_EXTLOG_SEGMENT);
    assert_eq!(seg, 128 << 10);
    let keys: Vec<Vec<Vec<u8>>> = (0..2).map(|s| keys_on(&store, s, "c", 200)).collect();
    let stop = std::sync::atomic::AtomicBool::new(false);
    let model = std::thread::scope(|sc| {
        let committer = sc.spawn(|| {
            let sess = store.session().unwrap();
            let mut model = BTreeMap::new();
            let mut n = 0u32;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let mut b = sess.batch();
                if n.is_multiple_of(2) {
                    // A durable commit on both shards: 128 intents of
                    // 1 KiB and their undo allowance on each.
                    for (j, k) in keys.iter().flat_map(|ks| &ks[..128]).enumerate() {
                        let v = vec![(n as usize + j) as u8; 1000];
                        b.put(k, &v).unwrap();
                        model.insert(k.clone(), v);
                    }
                    b.commit_durable().unwrap();
                } else {
                    // The single-shard fast path: 200 ops' undo allowance.
                    for (j, k) in keys[n as usize / 2 % 2].iter().enumerate() {
                        let v = (n as u64 * 1000 + j as u64).to_le_bytes().to_vec();
                        b.put(k, &v).unwrap();
                        model.insert(k.clone(), v);
                    }
                    b.commit().unwrap();
                }
                n += 1;
            }
            assert!(n > 4, "only {n} commits");
            model
        });
        let start = std::time::Instant::now();
        let mut s = 0;
        while start.elapsed() < std::time::Duration::from_secs(1) {
            store.checkpoint_shard(s);
            s ^= 1;
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        committer.join().expect("a commit overran its log room")
    });
    let want: Vec<_> = model.into_iter().collect();
    assert!(contents(&store) == want, "an acknowledged batch is missing");
    // A plain commit is durable at its shard's next boundary.
    store.checkpoint();
    drop(store);
    let opts = Options::new()
        .threads(8)
        .shards(2)
        .log_bytes_per_thread(2 * MIB);
    let (store, _) = Store::open(&arena, opts).unwrap();
    assert!(contents(&store) == want, "reopened contents differ");
}
