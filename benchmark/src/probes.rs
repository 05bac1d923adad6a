//! Probes: the only file that calls below or beside the `Store` facade.
//!
//! Each probe times one layer's public functions directly, under the same
//! emulated NVM profile as the workloads, on a small arena of its own.
//! A later change to `PAlloc`, `ExtLog`, `EpochManager`, the transient
//! `Masstree` or the wire codec has exactly this file to follow.

use std::hint::black_box;
use std::time::Instant;

use incll::Session;
use incll_epoch::{EpochManager, EpochOptions};
use incll_extlog::ExtLog;
use incll_masstree::{AllocMode, Masstree, TransientAlloc};
use incll_palloc::PAlloc;
use incll_pmem::superblock;
use incll_server::{decode_request, encode_request, encode_response, Request, Response};

use crate::gen::{self, Keyspace, Mix, Op, Tape};
use crate::harness::median;
use crate::hist::Hist;
use crate::report::Outcome;
use crate::sys;
use crate::trace::SAMPLE_EVERY;

/// Times `f` in `rounds` rounds of `per_round` calls and returns the
/// median round's nanoseconds per call.
fn ns_per_call(rounds: usize, per_round: usize, mut f: impl FnMut()) -> f64 {
    let mut per = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..per_round {
            f();
        }
        per.push(t0.elapsed().as_nanos() as f64 / per_round as f64);
    }
    median(&mut per)
}

/// `epoch.pin_ns`: `Session::pin` + drop on the workload's own store.
pub fn pin_ns(sess: &Session) -> f64 {
    ns_per_call(9, 20_000, || drop(black_box(sess.pin())))
}

/// `core.batch_commit_us`: one durable 16-put `Session::batch` of keys
/// outside every workload's key space, deleted again (untimed) so the
/// store's contents are unchanged.
pub fn batch_commit_us(sess: &Session, ks: &Keyspace, value_len: usize) -> f64 {
    const OPS: u64 = 16;
    let keys: Vec<_> = (0..OPS).map(|j| ks.key(1 << 50 | j)).collect();
    let mut val = vec![0u8; value_len];
    let mut us = Vec::new();
    for round in 0..100u32 {
        let mut batch = sess.batch();
        for key in &keys {
            Keyspace::fill_value(key, round, &mut val);
            batch.put(key, &val).expect("probe batch put");
        }
        let t0 = Instant::now();
        batch.commit_durable().expect("probe batch commit");
        us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        let mut undo = sess.batch();
        keys.iter()
            .for_each(|k| undo.delete(k).expect("probe delete"));
        undo.commit_durable().expect("probe batch undo");
    }
    median(&mut us)
}

/// `pmem.persist_ns`, `palloc.alloc_free_ns`, `extlog.append_ns`.
pub fn layer_probes(out: &mut Outcome) {
    // pmem: one durable word = store + write-back + fence.
    let arena = sys::arena(4 << 20, 1, false);
    let off = arena.carve(64 * 1024, 64).expect("probe carve");
    let mut i = 0u64;
    out.set(
        "pmem.persist_ns",
        ns_per_call(9, 2_000, || {
            let at = off + (i % 1024) * 64;
            arena.pwrite_u64(at, i);
            arena.clwb(at);
            arena.sfence();
            i += 1;
        }),
    );

    // palloc: alloc + free of the two classes the tree uses most (value
    // buffers, leaf nodes), recycled at an epoch boundary per round.
    let arena = sys::arena(16 << 20, 1, false);
    superblock::format(&arena);
    let alloc = PAlloc::create(&arena, 1).expect("probe allocator");
    let mut epoch = 2u64;
    let mut per = Vec::new();
    for _ in 0..9 {
        const N: usize = 2_000;
        let t0 = Instant::now();
        for size in [48usize, 264] {
            let objs: Vec<u64> = (0..N)
                .map(|_| alloc.alloc(0, epoch, size).expect("probe alloc"))
                .collect();
            objs.iter().for_each(|&o| alloc.free(0, epoch, o, size));
        }
        per.push(t0.elapsed().as_nanos() as f64 / (2 * N) as f64);
        epoch += 1;
        alloc.on_epoch_boundary(epoch);
    }
    out.set("palloc.alloc_free_ns", median(&mut per));

    // extlog: one 320-byte node pre-image, write-ahead (flush + fence).
    let arena = sys::arena(16 << 20, 1, false);
    superblock::format(&arena);
    let log = ExtLog::create(&arena, 1, 4 << 20).expect("probe log");
    let node = arena.carve(320, 64).expect("probe node");
    let mut per = Vec::new();
    for round in 0..9u64 {
        const N: usize = 2_000;
        let t0 = Instant::now();
        for _ in 0..N {
            log.log_object_in(0, 0, 2 + round, node, 320);
        }
        per.push(t0.elapsed().as_nanos() as f64 / N as f64);
        log.reset();
    }
    out.set("extlog.append_ns", median(&mut per));
}

/// `server.decode_ns`, `server.encode_ns` on the frames `mix` produces.
pub fn wire_probes(out: &mut Outcome, ks: &Keyspace, mix: &Mix, value_len: usize) {
    let tape = gen::tape(1, mix, 200_000, 0, 1, 1 << 10);
    let mut val = vec![0u8; value_len];
    let mut frames = Vec::new();
    let mut replies = Vec::new();
    for i in 0..1 << 10 {
        let (req, resp) = match tape.op(i) {
            Op::Put(idx) => {
                let key = ks.key(idx);
                Keyspace::fill_value(&key, i as u32, &mut val);
                (
                    Request::Put {
                        key: key.to_vec(),
                        val: val.clone(),
                    },
                    Response::Ok,
                )
            }
            Op::Get(idx) => (
                Request::Get {
                    key: ks.key(idx).to_vec(),
                },
                Response::Value(val.clone()),
            ),
            other => unreachable!("network mixes hold only GET and PUT, got {other:?}"),
        };
        let mut frame = Vec::new();
        encode_request(&req, &mut frame);
        frames.push(frame);
        replies.push(resp);
    }
    let mut i = 0;
    out.set(
        "server.decode_ns",
        ns_per_call(9, 20_000, || {
            // The payload follows the 4-byte length prefix.
            black_box(decode_request(&frames[i % frames.len()][4..]).expect("own frame"));
            i += 1;
        }),
    );
    let mut buf = Vec::with_capacity(256);
    out.set(
        "server.encode_ns",
        ns_per_call(9, 20_000, || {
            buf.clear();
            encode_response(&replies[i % replies.len()], &mut buf);
            black_box(&buf);
            i += 1;
        }),
    );
}

/// What the transient tree (the paper's MT+) took on the same tape.
pub struct TransientCost {
    /// Mean ns per `Masstree::get`, the call alone (1 in 64 sampled).
    pub get_ns: f64,
    /// Mean ns per `Masstree::put`, the call alone (1 in 64 sampled).
    pub put_ns: f64,
    /// Pass wall time over ops, epoch barriers and harness work included.
    pub per_op_ns: f64,
}

/// Runs `n_ops` of `tape` (its `Get`/`Put` ops) on a transient Masstree
/// with the pool allocator and an epoch barrier every `barrier_every`
/// ops, preloaded with the same `nkeys` keys.
///
/// The loop does per operation what the durable side's does — key
/// scramble, 8-byte tagged value filled before a put and validated after
/// a get, one clock read — so the two passes' wall times differ by the
/// trees alone.
pub fn transient_masstree(
    ks: &Keyspace,
    tape: &Tape,
    nkeys: u64,
    n_ops: u64,
    barrier_every: u64,
) -> TransientCost {
    let pool = incll_pmem::PArena::builder()
        .capacity_bytes(256 << 20)
        .build()
        .expect("host memory for the pool");
    let mgr = EpochManager::new(pool.clone(), EpochOptions::transient());
    let tree = Masstree::new(
        mgr.clone(),
        TransientAlloc::new(AllocMode::Pool, 1, Some(pool)),
    );
    let ctx = tree.thread_ctx(0);
    let mut val = [0u8; 8];
    for i in 0..nkeys {
        let key = ks.key(i);
        Keyspace::fill_value(&key, 0, &mut val);
        tree.put(&ctx, &key, u64::from_le_bytes(val));
    }
    mgr.advance();
    let (mut get_ns, mut gets, mut put_ns, mut puts) = (0u64, 0u64, 0u64, 0u64);
    let mut version = 0u32;
    // Filled like the durable pass's latency histogram, and as unread.
    let mut chained = Hist::new();
    let start = Instant::now();
    let mut prev = start;
    for i in 0..n_ops {
        let sampled = i % SAMPLE_EVERY == 0;
        let (ok, cost, calls) = match tape.op(i as usize) {
            Op::Get(idx) => {
                let key = ks.key(idx);
                let t0 = sampled.then(Instant::now);
                let v = tree.get(&ctx, &key);
                let ns = t0.map(|t| t.elapsed().as_nanos() as u64);
                let ok = v.is_some_and(|v| {
                    Keyspace::check_value(&key, &v.to_le_bytes(), val.len()).is_some()
                });
                (ok, ns, (&mut get_ns, &mut gets))
            }
            Op::Put(idx) => {
                let key = ks.key(idx);
                version = version.wrapping_add(1);
                Keyspace::fill_value(&key, version, &mut val);
                let t0 = sampled.then(Instant::now);
                let prev = tree.put(&ctx, &key, u64::from_le_bytes(val));
                let ns = t0.map(|t| t.elapsed().as_nanos() as u64);
                (prev.is_some(), ns, (&mut put_ns, &mut puts))
            }
            other => unreachable!("the transient probe runs point mixes, got {other:?}"),
        };
        assert!(ok, "transient tree lost or mangled a key at op {i}");
        if let Some(ns) = cost {
            *calls.0 += ns;
            *calls.1 += 1;
        }
        let now = Instant::now();
        chained.record((now - prev).as_nanos() as u64);
        prev = now;
        if (i + 1) % barrier_every == 0 {
            mgr.advance();
        }
    }
    let per_op_ns = start.elapsed().as_nanos() as f64 / n_ops as f64;
    black_box(chained);
    TransientCost {
        get_ns: get_ns as f64 / gets.max(1) as f64,
        put_ns: put_ns as f64 / puts.max(1) as f64,
        per_op_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_and_wire_probes_report_positive_costs() {
        let mut out = Outcome::new("ycsb_a", 1, 1, true);
        layer_probes(&mut out);
        wire_probes(&mut out, &Keyspace::new(1), &Mix::NET_PUT, 64);
        for name in [
            "pmem.persist_ns",
            "palloc.alloc_free_ns",
            "extlog.append_ns",
            "server.decode_ns",
            "server.encode_ns",
        ] {
            assert!(out.get(name).unwrap() > 0.0, "{name}");
        }
        // A durable word costs at least the emulated fence.
        assert!(out.get("pmem.persist_ns").unwrap() >= sys::SFENCE_NS as f64);
    }

    #[test]
    fn transient_tree_runs_the_tape() {
        let ks = Keyspace::new(2);
        let tape = gen::tape(2, &Mix::YCSB_A, 5_000, 0, 1, 1 << 12);
        let c = transient_masstree(&ks, &tape, 5_000, 4_000, 1_000);
        assert!(c.get_ns > 0.0 && c.put_ns > 0.0 && c.per_op_ns > 0.0);
    }
}
