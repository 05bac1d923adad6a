//! # incll — Fine-Grain Checkpointing with In-Cache-Line Logging
//!
//! A durable, crash-recoverable Masstree for (simulated) non-volatile
//! memory, reproducing Cohen, Aksun, Avni & Larus, *Fine-Grain
//! Checkpointing with In-Cache-Line Logging* (ASPLOS 2019).
//!
//! Three mechanisms cooperate:
//!
//! * **Fine-grain checkpointing** — execution is divided into short epochs
//!   ([`incll_epoch`]); each boundary flushes the whole cache, making NVM a
//!   complete checkpoint of the structure. A crash rolls the tree back to
//!   the last boundary.
//! * **In-cache-line logging (InCLL)** — each 14-entry leaf embeds three
//!   undo-log words *inside* its own cache lines (`InCLLp` for the
//!   permutation, `ValInCLL1/2` for values; the paper's Figure 1 byte for
//!   byte in the crate-private `layout` module); PCSO same-line
//!   ordering makes the logs durable-before-mutation with **zero** flushes
//!   or fences on the operation path.
//! * **External logging** ([`incll_extlog`]) for the rare complex cases:
//!   splits, interior nodes, layer conversions, InCLL overflow. A second
//!   hot value in one line moves its key into a slot that was free at
//!   epoch start, which `InCLLp` covers; only a leaf with no such slot
//!   left overflows. A leaf is logged at cache-line grain: an overflow
//!   logs that 64-byte line, a split or conversion the regions of the
//!   leaf not yet logged in the epoch.
//!
//! The durable allocator ([`incll_palloc`]) applies the same recipe to its
//! free lists, so a `put` (buffer allocation + tree update) runs without a
//! single synchronous NVM write.
//!
//! # Quick start
//!
//! The supported front door is the [`Store`] facade: one call opens (or
//! formats + creates, or recovers) a store; RAII [`Session`]s replace raw
//! thread ids; values are byte slices backed by size-classed durable
//! buffers; [`Options::shards`] hash partitions the keyspace over N
//! independent trees, **each with its own epoch domain** — its own
//! checkpoint cadence, its own crash boundary.
//!
//! ```
//! use incll_pmem::PArena;
//! use incll::{Options, Store};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // An arena stands in for an NVM device mapping.
//! let arena = PArena::builder().capacity_bytes(16 << 20).build()?;
//!
//! // Blank arena -> format + create; existing store -> recover. The
//! // shard count is fixed here, at format time: 4 independent InCLL
//! // trees, each its own epoch domain (shards(1), the default, is the
//! // paper's single-tree system).
//! let opts = Options::new()
//!     .threads(1)
//!     .log_bytes_per_thread(1 << 20)
//!     .shards(4);
//! let (store, report) = Store::open(&arena, opts)?;
//! assert!(report.created);
//! assert_eq!(store.shard_count(), 4);
//!
//! let sess = store.session()?; // slot released when `sess` drops
//! store.put(&sess, b"durable-key", b"any bytes at all")?; // routed by key hash
//! assert_eq!(
//!     store.get(&sess, b"durable-key").as_deref(),
//!     Some(&b"any bytes at all"[..]),
//! );
//! store.put_u64(&sess, b"counter", 7)?; // the paper's 8-byte payloads
//!
//! // Zero-copy reads: borrow the value bytes in place. The view holds a
//! // read pin on the key's shard until dropped (see "Read semantics").
//! let v = store.get_ref(&sess, b"durable-key").expect("present");
//! assert_eq!(&*v, b"any bytes at all");
//! drop(v);
//!
//! // Scoped checkpoint: only `durable-key`'s shard flushes, and only
//! // sessions pinned in that shard stall — cold shards never notice.
//! store.checkpoint_shard(store.shard_of(b"durable-key"));
//!
//! // Barrier checkpoint: every shard at once (one cross-shard
//! // point-in-time).
//! store.checkpoint();
//!
//! // Ordered iteration: a lazy k-way merge over the shard trees yields
//! // global key order (also: `store.scan` for the callback form).
//! for (key, value) in store.range(&sess, &b"a"[..]..&b"d"[..]) {
//!     assert_eq!(key, b"counter");
//!     assert_eq!(u64::from_le_bytes(value[..8].try_into()?), 7);
//! }
//!
//! // ... a crash here (see `PArena::crash_seeded` in tracked mode) rolls
//! // each shard back to ITS OWN last completed boundary; `Store::open`
//! // on the same arena recovers them all (per-shard epochs and replay
//! // counts in `report.per_shard`). Reopen with the same `shards(4)` —
//! // a mismatch is a typed error.
//! # Ok(())
//! # }
//! ```
//!
//! # Crash semantics under independent cadences
//!
//! With more than one shard, checkpoints are **per shard**: shard `s`
//! advances its own epoch domain (on [`Store::checkpoint_shard`] or a
//! per-domain driver cadence), flushing only its own dirty lines, and a
//! crash rolls each shard back to *that shard's* last completed boundary.
//! Concretely:
//!
//! * **Per-key durability is unchanged.** A key lives on exactly one
//!   shard forever (hash routing is part of the on-media contract), so
//!   "my write survives once its shard checkpoints" is the same guarantee
//!   the global epoch gave — reachable sooner, because a hot shard can
//!   run a tight cadence without paying for cold ones.
//! * **Cross-shard points-in-time are independent.** After a crash, shard
//!   `a` may recover newer state than shard `b`. A multi-key invariant
//!   spanning shards is only crash-atomic if it is made durable by the
//!   all-domains barrier [`Store::checkpoint`] (which advances every
//!   domain, yielding one common boundary) — or kept within one shard.
//! * **Recovery names each boundary.** [`RecoveryReport::per_shard`]
//!   carries every shard's failed and recovered epochs; the top-level
//!   fields repeat shard 0's pair.
//! * **Recovery is parallel — and deterministic.** [`Store::open`]
//!   spreads the per-shard recovery steps (failed-epoch resolution, log
//!   replay, parent re-derivation, epoch restart, allocator repair) over
//!   up to [`Options::recovery_threads`] workers (by default one per
//!   available core), one strided shard subset each. Every durable
//!   object is owned by exactly one shard for life — log buffers are
//!   per-(thread × shard), allocator lists and carve regions are
//!   per-shard, epoch and watermark cells sit on per-shard cache
//!   lines — so the workers write disjoint state and the
//!   recovered arena is **byte-identical at every worker count**,
//!   including 1. The knob changes restart latency only, never the
//!   outcome ([`RecoveryReport::parallel_workers`] and per-shard
//!   [`ShardReplay::replay_time`] report what ran); the crash-matrix
//!   suite asserts the equivalence cell by cell.
//! * **Allocation is per-shard too — and grows online.** Each shard owns
//!   a **chain of extents** claimed from a shared pool: the carvable arena is split into fixed-size power-of-two extents
//!   with a durable owner byte per extent on dedicated superblock lines.
//!   A shard carves from its active extent with its own InCLL-logged
//!   watermark — the carve path stays flush-free — and when the extent
//!   is exhausted it claims the lowest-index free extent (owner-byte CAS
//!   then `clwb`+`sfence`, the one deliberate flush on the allocation
//!   path), so a hot shard grows across the pool instead of failing with
//!   `OutOfMemory` while siblings sit on free space. `OutOfMemory`
//!   means the *pool* is empty — the whole arena really is spent.
//! * **Extent claims are crash-atomic and never torn.** The owner byte
//!   is published by a flushed single-byte CAS, so a crash mid-claim
//!   shows either a free extent or a fully owned one. A claim whose
//!   first carve belonged to a failed epoch survives the crash (claims
//!   are never released); the shard's watermark reverts out of the
//!   extent on its own timeline and recovery re-queues the extent as
//!   that shard's *reserve*, consumed before any fresh claim — a
//!   read-only rebuild from the owner table, byte-identical at every
//!   [`Options::recovery_threads`] count. Slabs carved in a doomed epoch
//!   still un-carve within their owning extent instead of leaking.
//!
//! `shards(1)` is the paper's system: one epoch domain, one barrier, one
//! whole-cache flush per checkpoint (`global_flush`, not a scoped one), one
//! crash boundary. Its single shard uses the same superblock cell and the
//! same extent pool as any other shard — the paper's *semantics*, not a
//! layout of its own.
//!
//! # When a shard checkpoints
//!
//! Two bounds end a shard's epoch, one in time and one in bytes:
//!
//! * **A cadence bounds the time between checkpoints.**
//!   [`Options::cadence`] gives the store a background driver that
//!   checkpoints every shard on its own timer:
//!   `Cadence::lazy(interval)` skips a tick whose shard saw no write since
//!   its last boundary (counted in [`ShardStats::advances_skipped`], not
//!   paid for), `Cadence::eager(interval)` always advances — the paper's
//!   unconditional epoch clock. [`Store::halt_cadence`] freezes the
//!   driver without consuming the store, for controlled-teardown
//!   experiments.
//! * **`log_bytes_per_thread / shards` bounds the bytes per (slot,
//!   shard), checked synchronously on every write.** Each session slot
//!   owns one external-log buffer per shard, and log space comes back
//!   only at that shard's boundary. So before a put, remove or batch
//!   commit takes its pin, it checks its own buffer for the bytes it may
//!   append — one op's worst-case undo for a put or remove; intents, an
//!   undo allowance per op and one split chain for a commit — and when the
//!   buffer is short it forces that shard over a boundary first
//!   ([`ShardStats::advances_forced`]). The check is one load of the
//!   slot's own cursor and one compare. This holds with or without a
//!   cadence, and it is the only thing that ends an epoch on a store
//!   without one. The buffer's size is a cap: it holds only the pool
//!   segments its cursor has reached, taken in the same check, and when
//!   the pool has none left the shard is forced over a boundary and the
//!   buffer starts again in the segments it holds.
//! * **`cap + T × segment` bounds a shard's whole log.** A boundary keeps
//!   each of the shard's `T` buffers' first segment and gives the rest
//!   back to the shard, and a growing buffer takes those before it
//!   claims a fresh log extent — which it does only while the shard's
//!   log segments, held and free ([`ShardStats::log_bytes_held`]), are
//!   under one buffer's cap plus one segment per slot. Past that the
//!   writer forces the shard's boundary and takes what it returned. So a
//!   shard written by `k` sessions at once checkpoints once per cap of
//!   log they write together — up to `k` times as often as one session
//!   writing alone — and holds one cap of log, not `k`.
//!
//! What a crash may leave to replay on a shard is therefore at most
//! `cap + T × segment` bytes, rounded up to whole pool extents
//! ([`Store::in_doubt_bound_bytes`]; [`ShardStats::bytes_since_boundary`]
//! is the live figure), where `cap` is `log_bytes_per_thread / shards`.
//! A write whose session already holds a pin (a live [`ValueRef`], a
//! [`Session::pin_shard`] guard) cannot force that boundary — it would
//! wait for its own pin — so on a short buffer it fails with
//! [`Error::SessionPinned`] instead, before writing anything; when only
//! the shard's bound stands in its way, it claims past the bound.
//!
//! # Batch atomicity and crash semantics
//!
//! [`Session::batch`] returns a [`WriteBatch`]: a staged set of puts and
//! deletes that commits **atomically across shards** without the
//! all-domains [`Store::checkpoint`] barrier. The contract:
//!
//! * **All or nothing, across cadences.** After any crash, recovery
//!   surfaces either every operation of a committed batch or none of an
//!   uncommitted one — even though each touched shard rolls back to its
//!   own boundary. The atomicity point is one durable cache line in the
//!   superblock batch table — a *commit run* `(lo, hi, shard mask)` that
//!   the commit either opens or extends by its id: commit first stages a
//!   checksummed *intent* entry per op in the owning shard's external
//!   log, drains the staged runs of every covered shard behind **one**
//!   `sfence`, then flushes the commit record (one `clwb` + `sfence`),
//!   then applies the ops under per-shard epoch pins. Those two fences —
//!   intents before record, record before ack — are all a commit pays
//!   for atomicity, at any shard count; ids come from a durable ceiling
//!   bumped once per [`incll_pmem::superblock::BATCH_ID_BLOCK`] commits.
//! * **One ordering constraint per intent: durable before the commit
//!   record.** Undo pre-images guard an in-place modification performed
//!   the moment their append returns, so they always seal before return
//!   (write-ahead). An intent guards nothing until its batch's commit
//!   record lands, so it only stages, and the drain before the record is
//!   the whole protocol. A staged intent lost in a crash belongs to a
//!   batch with no commit record, which recovery drops either way; the
//!   epoch boundary drains every buffer while writers are quiesced, so a
//!   completed checkpoint never leaves staged bytes behind.
//! * **Log room is checked up front**, by the rule every write obeys
//!   (see "When a shard checkpoints"): each covered shard's intent bytes
//!   plus an undo allowance per op and one split chain. A batch too large
//!   for an *empty* buffer fails with [`Error::BatchExceedsLog`] before
//!   any id, intent or record is written.
//! * **No pin across a commit that may checkpoint.** A forced boundary —
//!   for log room, or to free a commit-run slot, below — waits for every
//!   pin on the shard to drop, the committing session's own included. A
//!   cross-shard `commit` or any `commit_durable` issued while its
//!   session holds a [`ValueRef`] or a [`Session::pin_shard`] guard
//!   therefore fails with [`Error::SessionPinned`], likewise before any
//!   id, intent or record; so does a single-shard `commit` whose buffer
//!   is short. [`Store::checkpoint`] has the same precondition,
//!   unchecked.
//! * **Recovery resolves in-doubt batches deterministically.** Each
//!   shard's replay surfaces its intents; a batch whose id lies inside a
//!   durable commit run is *redone* through the ordinary put/remove paths
//!   (idempotently — a re-crash replays the same intents again), any
//!   other batch is *dropped*. Resolution is shard-owned work, so the
//!   recovered bytes are identical at every [`Options::recovery_threads`]
//!   count; [`ShardReplay::batches_redone`] /
//!   [`ShardReplay::batches_dropped`] report what happened.
//! * **Single-shard batches keep the fast path.** When every staged key
//!   routes to one shard (always, with `shards(1)`), commit holds one
//!   epoch pin across the ops — same-epoch atomicity with no batch id,
//!   no intents, no commit record.
//! * **Durability still arrives at the shard's boundary.** Commit makes
//!   the batch *crash-atomic* immediately, not durable: each shard's
//!   half persists when that shard next checkpoints (until then a crash
//!   redoes it from the intents). The boundary also retires the shard's
//!   bit from every commit run; a run whose mask drained is a reusable
//!   slot. Consecutive ids share a run, so a slot is consumed only by an
//!   id gap — a reopen, a batch that staged and never committed — and
//!   the table ([`incll_pmem::superblock::BATCH_RUNS`] slots) fills only
//!   if that happens over and over with no boundary between; commit then
//!   frees a slot by forcing the shards it covers over a boundary. On a
//!   store with no cadence (the network server's) **log room is the only
//!   thing that ends an epoch nobody asked for**: the batches in doubt
//!   at a crash are bounded by [`Options::log_bytes_per_thread`]
//!   ([`Store::in_doubt_bound_bytes`]; the live figure is
//!   [`ShardStats::in_doubt_log_bytes`]), not by a count, and the forced
//!   flushes are counted in [`ShardStats::advances_forced`].
//! * **Scans stay torn-free.** A batch committing between two
//!   [`Store::range`] refills is observed all-or-nothing by every
//!   subsequent refill (see [`RangeScan`]).
//!
//! ```
//! # use incll_pmem::PArena;
//! # use incll::{Options, Store};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let arena = PArena::builder().capacity_bytes(16 << 20).build()?;
//! # let (store, _) = Store::open(&arena, Options::new().threads(1)
//! #     .log_bytes_per_thread(1 << 20).shards(4))?;
//! # let sess = store.session()?;
//! let mut batch = sess.batch();
//! batch.put(b"orders/42", b"placed")?;
//! batch.put(b"inventory/widget", b"99")?;
//! batch.delete(b"carts/alice")?;
//! batch.commit()?; // crash-atomic across all three keys' shards
//! # Ok(())
//! # }
//! ```
//!
//! # Read semantics
//!
//! There is one read path: [`Store::get_ref`] borrows the value in place,
//! and [`Store::get`] is its owned convenience (`get_ref` + one copy;
//! [`Store::get_u64`] decodes the paper's 8-byte payloads in place). It is
//! decoupled from the persistence path: reads take a cheap **read pin** on their shard's epoch domain (one transient slot
//! store — no log-buffer write, no arena write, and never a "dirty"
//! stamp, so pure-read traffic leaves lazily cadenced checkpoint timers
//! idle).
//!
//! **What a [`ValueRef`] may observe.** [`Store::get_ref`] returns the
//! key's value validated under the leaf's version check at lookup time,
//! borrowed in place from the durable buffer. While the view lives, its
//! shard cannot pass an epoch boundary, and the allocator only recycles
//! freed buffers *at* a boundary — so the viewed bytes cannot be reused.
//! A concurrent overwrite or remove of the key swaps the tree's pointer
//! to a fresh buffer and frees the old one, but the free path rewrites
//! only the 16-byte allocator header in front of the payload, never the
//! payload itself: a held `ValueRef` therefore always reads an intact,
//! complete value — possibly superseded, never torn; a fresh lookup
//! sees the new one. Across an *advance* the view simply
//! keeps reading the same bytes — advances flush caches, they do not
//! move live data — but note the pin itself is what delays that shard's
//! advance, so long-held views should be dropped (or copied with
//! [`ValueRef::to_vec`]) before blocking.
//!
//! **Why snapshot scans can't block advances.** [`Store::range`] /
//! [`Store::iter`] / [`Store::scan`] hold **no** pin between items: each
//! per-shard cursor pins its shard only while refilling one bounded
//! batch (copying the batch out under the pin), then re-finds its
//! position by a fresh key-based descent on the next refill. A scan held
//! open for minutes therefore never delays any shard's
//! `advance_domain`; the stream is a sequence of per-batch epoch
//! snapshots, globally key-ordered, equivalent to the matching sequence
//! of bounded `scan` calls.
//!
//! # Serving traffic
//!
//! The `incll-server` crate puts this store behind a TCP front-end
//! (`incll-server` binary, `incll_server` library);
//! `incll_server::Client` is the pipelining client that frames it.
//! The wire format is length-prefixed binary — every frame is a 4-byte
//! little-endian payload length (capped at 1 MiB) followed by the
//! payload, whose first byte is an opcode (requests) or status
//! (responses). Keys carry a `u16` length prefix and embedded values a
//! `u32` prefix; a response whose payload is one trailing blob
//! (`VALUE`, `ERROR`, `STATS`) carries it raw — the frame length
//! already delimits it.
//!
//! | request | payload after opcode | response |
//! |---------|----------------------|----------|
//! | `GET` (0x01) | key | `VALUE` (0x03) or `NOT_FOUND` (0x01) |
//! | `PUT` (0x02) | key, value | `OK` (0x00) or `ERROR` (0x02) |
//! | `DEL` (0x03) | key | `OK` — idempotent; `NOT_FOUND` is a `GET` miss only |
//! | `BATCH` (0x04) | op count, then per op: kind byte (0 put / 1 del), key\[, value\] | `COMMITTED` (0x04) with the `u64` batch id |
//! | `SCAN` (0x05) | start key, `u32` limit | `ENTRIES` (0x05): count, then key/value pairs in key order |
//! | `STATS` (0x06) | — | `STATS` (0x06): a flat JSON object of server counters |
//!
//! **Pipelining.** A client may write any number of requests before
//! reading responses; the server answers every connection strictly in
//! request order. Each connection is one thread that runs its requests
//! to completion: it reads whatever has arrived, executes every whole
//! frame in request order on one of N pooled sessions (a slot it shares
//! with other connections and holds only while executing, never across
//! socket I/O), and writes all the replies back at once — so there is
//! nothing to reorder, and a client that stops reading blocks only its
//! own thread. A malformed-but-framed request gets a typed `ERROR` in
//! its slot and the stream continues; only an unframeable stream
//! (oversized length prefix) hangs up, after answering with an error
//! that names the length.
//!
//! **Write ordering.** Writes issued on one connection are applied —
//! and become durable — in request order in every commit mode: one
//! thread executes the connection's requests serially, and in group
//! mode its `PUT`s/`DEL`s *and* `BATCH`es commit at their positions in
//! that order (a `BATCH` as its own atomic commit). Pipelined same-key
//! writes therefore resolve to the last one issued. No order is defined
//! between writes on *different* connections that race.
//!
//! **Backpressure.** It is counted in bytes: the server stops taking a
//! connection's requests once it owes 64 KiB of replies, writes them,
//! and only then goes on; it buffers at most 64 KiB of requests plus one
//! frame. With the 1 MiB frame cap this bounds the memory any one
//! connection can pin, however fast it pipelines.
//!
//! **Group commit.** The server's write durability is a configuration,
//! not a wire flag — the same client bytes get two different
//! guarantees depending on the server's commit mode:
//!
//! * **Group** *(default)* — the small writes a connection has sent by
//!   the time its thread reads the socket are coalesced: whatever
//!   arrived while the previous group was committing is the next group
//!   (no timer, nothing to tune), and the whole group commits as one
//!   durable batch — one commit record, one fence pair, shared by every
//!   write in the group. Acks are withheld until the group's commit
//!   record is durable, so an `OK` means what a one-op
//!   [`WriteBatch::commit_durable`] per request would mean — durable —
//!   at one fence pair per group instead of per request, and the acks
//!   leave in request order with the replies to the reads around them.
//! * **Async** — plain [`Store::put`]/[`Store::remove`]: `OK` means
//!   *applied*, durable only at the shard's next checkpoint. A crash
//!   before one erases acknowledged writes.
//!
//! `BATCH` is always durable-on-ack regardless of mode (it is a
//! [`WriteBatch::commit_durable`] verbatim; under group commit the
//! connection's earlier grouped writes commit first, so it cannot
//! overtake them). Reads (`GET`/`SCAN`)
//! observe every *applied* write, durable or not — but under group
//! commit a write is applied when its group commits, so a read
//! pipelined behind a not-yet-acknowledged write may execute first
//! and miss it. The ack is the visibility point: read-your-writes
//! holds once the write's `OK` has arrived. A read never observes a
//! write that follows it on its connection.
//!
//! # Media compatibility
//!
//! On-media layouts are version-screened: v11 (this build) refuses v1–v10
//! media with a typed [`Error::UnsupportedLayout`] — never a reformat.
//!
//! # One door
//!
//! [`Store`], [`Session`] and [`Options`] are the only way to the durable
//! tree; the per-shard tree, its thread context and its configuration
//! are crate-private:
//!
//! ```compile_fail
//! use incll::DurableMasstree;
//! ```
//!
//! ```compile_fail
//! use incll::DCtx;
//! ```
//!
//! ```compile_fail
//! use incll::DurableConfig;
//! ```
//!
//! Node offsets are the tree's own, too:
//!
//! ```compile_fail
//! use incll::layout::val_incll;
//! ```

mod batch;
mod error;
mod layout;
mod recovery;
mod store;
mod tree;

pub use batch::{WriteBatch, MAX_BATCH_OPS};
pub use error::{Error, MAX_VALUE_BYTES};
pub use recovery::{RecoveryReport, ShardReplay};
pub use store::{ExtentStats, Options, RangeScan, Session, ShardStats, Store};
pub use tree::{ValueRef, VALUE_BUF_BYTES};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{DCtx, DurableConfig, DurableMasstree};
    use incll_pmem::{superblock, PArena};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn small_config() -> DurableConfig {
        DurableConfig {
            threads: 2,
            log_bytes_per_thread: 256 << 10,
            incll_enabled: true,
            shards: 1,
            recovery_threads: 1,
        }
    }

    fn fresh(tracked: bool) -> (PArena, DurableMasstree) {
        let arena = PArena::builder()
            .capacity_bytes(32 << 20)
            .tracked(tracked)
            .build()
            .unwrap();
        superblock::format(&arena);
        let tree = DurableMasstree::create(&arena, small_config()).unwrap();
        (arena, tree)
    }

    // The reads the facade builds from `get_ref`/`scan_raw`, spelled out
    // for one shard's tree so these tests keep driving it directly.

    fn get(tree: &DurableMasstree, ctx: &DCtx, key: &[u8]) -> Option<u64> {
        tree.get_ref(ctx, key).map(|v| v.as_u64())
    }

    fn get_bytes(tree: &DurableMasstree, ctx: &DCtx, key: &[u8]) -> Option<Vec<u8>> {
        tree.get_ref(ctx, key).map(|v| v.to_vec())
    }

    fn collect_bytes(tree: &DurableMasstree, ctx: &DCtx) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        tree.scan_raw(ctx, b"", usize::MAX, &mut |k, buf| {
            out.push((k.to_vec(), tree::read_value_bytes(tree.arena(), buf)))
        });
        out
    }

    fn collect(tree: &DurableMasstree, ctx: &DCtx) -> Vec<(Vec<u8>, u64)> {
        collect_bytes(tree, ctx)
            .into_iter()
            .map(|(k, v)| (k, u64::from_le_bytes(v[..8].try_into().unwrap())))
            .collect()
    }

    // ---------------- functional (no crash) ----------------

    #[test]
    fn store_cadence_option_wires_through() {
        use std::time::Duration;
        let arena = PArena::builder().capacity_bytes(32 << 20).build().unwrap();
        let opts = Options::new()
            .threads(2)
            .log_bytes_per_thread(1 << 20)
            .shards(2)
            .cadence(incll_epoch::Cadence::lazy(Duration::from_millis(2)));
        let (store, _) = Store::open(&arena, opts).unwrap();
        let sess = store.session().unwrap();
        for i in 0..500u64 {
            store.put_u64(&sess, &i.to_be_bytes(), i).unwrap();
        }
        store.checkpoint();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while store.shard_stats(0).advances_skipped == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        for i in 0..store.shard_count() {
            let s = store.shard_stats(i);
            assert_eq!(s.bytes_since_boundary, 0, "a checkpoint empties the log");
            assert!(s.advances_fired >= 1);
            assert!(s.epoch >= 2);
        }
        assert!(
            store.shard_stats(0).advances_skipped > 0,
            "idle shards must be skipped by the lazy driver"
        );
        // Dropping every clone stops the driver with it.
        let epoch_at_drop = store.shard_stats(0).epoch;
        drop(sess);
        drop(store);
        // No driver thread is left advancing the (still mapped) arena.
        let (store2, _) = Store::open(
            &arena,
            Options::new()
                .threads(2)
                .log_bytes_per_thread(1 << 20)
                .shards(2),
        )
        .unwrap();
        let settled = store2.shard_stats(0);
        assert!(settled.epoch >= epoch_at_drop);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            store2.shard_stats(0),
            settled,
            "no driver without a cadence"
        );
    }

    #[test]
    fn version_lock_on_durable_words_is_exclusive() {
        use incll_masstree::NodeStore;
        let (a, t) = fresh(false);
        let root = a.pread_u64(superblock::shard_root_holder(0));
        let counter = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..500 {
                        // SAFETY: `root` is the live root leaf of `t`.
                        unsafe { t.lock(root) };
                        // Non-atomic increment under the lock.
                        let x = counter.load(std::sync::atomic::Ordering::Relaxed);
                        counter.store(x + 1, std::sync::atomic::Ordering::Relaxed);
                        // SAFETY: as above.
                        unsafe { t.unlock(root, false, false) };
                    }
                });
            }
        });
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 2000);
        // SAFETY: as above.
        let v = unsafe { t.stable(root) };
        let leaf_root = incll_masstree::version::IS_LEAF | incll_masstree::version::IS_ROOT;
        assert_eq!(v, leaf_root, "idle unlocks leave the word as created");
    }

    #[test]
    fn put_get_update_remove() {
        let (_a, t) = fresh(false);
        let ctx = t.thread_ctx(0).unwrap();
        assert_eq!(t.put(&ctx, b"alpha", 1).unwrap(), None);
        assert_eq!(get(&t, &ctx, b"alpha"), Some(1));
        assert_eq!(t.put(&ctx, b"alpha", 2).unwrap(), Some(1));
        assert_eq!(get(&t, &ctx, b"alpha"), Some(2));
        assert!(t.remove(&ctx, b"alpha"));
        assert_eq!(get(&t, &ctx, b"alpha"), None);
    }

    #[test]
    fn small_values_take_one_32_byte_object_on_one_line() {
        // Values of 0..=8 bytes: header 16 + length 8 + payload in one
        // 32-byte object that never straddles a cache line.
        let (_a, t) = fresh(false);
        let ctx = t.thread_ctx(0).unwrap();
        for i in 0..200u64 {
            t.put_bytes(&ctx, &i.to_be_bytes(), &vec![i as u8; i as usize % 9])
                .unwrap();
        }
        let mut bufs = Vec::new();
        t.scan_raw(&ctx, b"", usize::MAX, &mut |_, buf| bufs.push(buf));
        assert_eq!(bufs.len(), 200);
        for &buf in &bufs {
            let obj = buf - incll_palloc::HEADER_BYTES as u64;
            assert_eq!(obj % VALUE_BUF_BYTES as u64, 0, "object at {obj}");
            assert_eq!(obj / 64, (obj + 31) / 64, "object at {obj} crosses a line");
        }
        // Consecutive objects of one slab sit one object apart.
        bufs.sort_unstable();
        let closest = bufs.windows(2).map(|w| w[1] - w[0]).min();
        assert_eq!(closest, Some(VALUE_BUF_BYTES as u64));
    }

    #[test]
    fn no_flushes_on_op_path() {
        let (a, t) = fresh(false);
        let ctx = t.thread_ctx(0).unwrap();
        // Warm up: slab carves + first-touch logging out of the way, then
        // start a fresh epoch so first modifications take the InCLL path
        // (fresh nodes are born "logged" and need no logging at all).
        for i in 0..64u64 {
            t.put(&ctx, &i.to_be_bytes(), i).unwrap();
        }
        t.epoch_manager().advance();
        let before = a.stats().snapshot();
        for i in 0..32u64 {
            t.put(&ctx, &(1000 + i).to_be_bytes(), i).unwrap(); // inserts, no splits
            t.put(&ctx, &i.to_be_bytes(), i + 1).unwrap(); // updates
            get(&t, &ctx, &i.to_be_bytes());
        }
        let d = a.stats().snapshot().delta(&before);
        // Splits may flush (external log); plain inserts/updates must not.
        assert_eq!(
            d.sfence, d.ext_nodes_logged,
            "every fence must come from an external-log seal"
        );
        assert!(d.incll_perm_logs > 0, "InCLLp should be absorbing inserts");
    }

    #[test]
    fn splits_and_scan_order() {
        let (_a, t) = fresh(false);
        let ctx = t.thread_ctx(0).unwrap();
        for i in 0..3000u64 {
            t.put(&ctx, &i.to_be_bytes(), i * 3).unwrap();
        }
        for i in 0..3000u64 {
            assert_eq!(get(&t, &ctx, &i.to_be_bytes()), Some(i * 3), "key {i}");
        }
        let all = collect(&t, &ctx);
        assert_eq!(all.len(), 3000);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn long_keys_and_layers() {
        let (_a, t) = fresh(false);
        let ctx = t.thread_ctx(0).unwrap();
        t.put(&ctx, b"abcdefgh", 1).unwrap();
        t.put(&ctx, b"abcdefgh-beyond-one-slice", 2).unwrap();
        t.put(&ctx, b"abcdefgh-beyond", 3).unwrap();
        t.put(&ctx, b"ab", 4).unwrap();
        assert_eq!(get(&t, &ctx, b"abcdefgh"), Some(1));
        assert_eq!(get(&t, &ctx, b"abcdefgh-beyond-one-slice"), Some(2));
        assert_eq!(get(&t, &ctx, b"abcdefgh-beyond"), Some(3));
        assert_eq!(get(&t, &ctx, b"ab"), Some(4));
        assert!(t.remove(&ctx, b"abcdefgh-beyond"));
        assert_eq!(get(&t, &ctx, b"abcdefgh-beyond"), None);
        assert_eq!(get(&t, &ctx, b"abcdefgh-beyond-one-slice"), Some(2));
    }

    #[test]
    fn model_equivalence_across_epochs() {
        let (_a, t) = fresh(false);
        let ctx = t.thread_ctx(0).unwrap();
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(7);
        for step in 0..20_000 {
            let key: Vec<u8> = (0..rng.gen_range(1..16))
                .map(|_| rng.gen_range(b'a'..=b'e'))
                .collect();
            match rng.gen_range(0..10) {
                0..=5 => {
                    let v = rng.gen();
                    assert_eq!(
                        t.put(&ctx, &key, v).unwrap(),
                        model.insert(key.clone(), v),
                        "{step}"
                    );
                }
                6..=7 => {
                    assert_eq!(t.remove(&ctx, &key), model.remove(&key).is_some(), "{step}");
                }
                _ => {
                    assert_eq!(get(&t, &ctx, &key), model.get(&key).copied(), "{step}");
                }
            }
            if step % 2500 == 0 {
                t.epoch_manager().advance();
            }
        }
        let expect: Vec<_> = model.into_iter().collect();
        assert_eq!(collect(&t, &ctx), expect);
    }

    #[test]
    fn concurrent_writers_disjoint_keys() {
        let (_a, t) = fresh(false);
        std::thread::scope(|s| {
            for tid in 0..2usize {
                let t = t.clone();
                s.spawn(move || {
                    let ctx = t.thread_ctx(tid).unwrap();
                    for i in 0..1500u64 {
                        t.put(&ctx, &(i * 2 + tid as u64).to_be_bytes(), i).unwrap();
                    }
                });
            }
        });
        let ctx = t.thread_ctx(0).unwrap();
        for tid in 0..2u64 {
            for i in 0..1500u64 {
                assert_eq!(get(&t, &ctx, &(i * 2 + tid).to_be_bytes()), Some(i));
            }
        }
    }

    // ---------------- crash + recovery ----------------

    /// Runs `mutate` in a fresh epoch, crashes with `seed`, reopens, and
    /// checks the tree matches `expect` (the state at the epoch boundary).
    fn crash_roundtrip(
        seed: u64,
        setup: impl Fn(&DurableMasstree, &DCtx) -> BTreeMap<Vec<u8>, u64>,
        mutate: impl Fn(&DurableMasstree, &DCtx),
    ) {
        let (arena, tree) = fresh(true);
        let ctx = tree.thread_ctx(0).unwrap();
        let expect = setup(&tree, &ctx);
        tree.epoch_manager().advance(); // checkpoint the setup state
        mutate(&tree, &ctx); // doomed epoch
        drop(ctx);
        drop(tree);
        arena.crash_seeded(seed);

        let (tree2, report) = DurableMasstree::open(&arena, small_config()).unwrap();
        assert!(report.failed_epoch >= 2);
        let ctx2 = tree2.thread_ctx(0).unwrap();
        let got = collect(&tree2, &ctx2);
        let want: Vec<_> = expect.into_iter().collect();
        assert_eq!(got, want, "seed {seed}: must match the checkpoint");
    }

    #[test]
    fn crash_with_staged_intents_recovers_to_the_last_boundary() {
        // A crash landing while a batch's intent entries still sit in a
        // DRAM staging buffer (appended, never drained) must behave as if
        // they were never staged: replay's valid-prefix scan stops at the
        // last sealed entry, the batch has no commit record, and the tree
        // recovers to its last completed boundary.
        let (arena, tree) = fresh(true);
        let ctx = tree.thread_ctx(0).unwrap();
        let mut expect = BTreeMap::new();
        for i in 0..50u64 {
            tree.put(&ctx, &i.to_be_bytes(), i).unwrap();
            expect.insert(i.to_be_bytes().to_vec(), i);
        }
        tree.epoch_manager().advance(); // the boundary to recover to

        // Doomed-epoch work through the ordinary wrappers (each seals
        // its own undo entries before the guarded modification)...
        for i in 50..60u64 {
            tree.put(&ctx, &i.to_be_bytes(), i).unwrap();
        }

        // ...then raw intents staged mid-"commit": appended to the
        // buffer, never drained — exactly the state a crash between a
        // batch's intent phase and its drain leaves behind.
        let epoch = tree.epoch_manager().current_epoch_of(0);
        tree.inner.log.log_intent_in(0, 0, epoch, 999, b"staged-op");
        assert!(
            tree.inner.log.staged_bytes(0, 0) > 0,
            "the raw intent must still be staged"
        );

        drop(ctx);
        drop(tree);
        // A power failure persisting nothing still in flight: the staged
        // intent vanishes with the rest of the cache.
        arena.crash_with(|_, _| 0);

        let (tree2, _) = DurableMasstree::open(&arena, small_config()).unwrap();
        let ctx2 = tree2.thread_ctx(0).unwrap();
        let got = collect(&tree2, &ctx2);
        let want: Vec<_> = expect.into_iter().collect();
        assert_eq!(got, want, "must recover exactly to the boundary");
    }

    #[test]
    fn crash_persisting_nodes_but_dropping_log_lines_recovers_to_the_boundary() {
        // The write-ahead-undo invariant, probed adversarially: the
        // chooser persists EVERY in-flight store except those landing in
        // the external log — its segments and their directory — which it
        // drops wholesale. If any undo
        // entry were merely staged (unsealed) when its guarded node
        // modification happened, this crash would persist the modified
        // node while erasing its pre-image, and recovery could not roll
        // the node back to the boundary. Runs the LOGGING ablation (InCLL
        // off) so every node's first modification per epoch takes the
        // external-log path.
        let arena = PArena::builder()
            .capacity_bytes(32 << 20)
            .tracked(true)
            .build()
            .unwrap();
        superblock::format(&arena);
        let mut cfg = small_config();
        cfg.incll_enabled = false;
        let tree = DurableMasstree::create(&arena, cfg.clone()).unwrap();
        let ctx = tree.thread_ctx(0).unwrap();
        let mut expect = BTreeMap::new();
        for i in 0..80u64 {
            tree.put(&ctx, &i.to_be_bytes(), i).unwrap();
            expect.insert(i.to_be_bytes().to_vec(), i);
        }
        tree.epoch_manager().advance(); // the boundary to recover to

        // Doomed epoch: in-place updates and fresh inserts, every
        // one externally logged (InCLL is off).
        for i in 0..100u64 {
            tree.put(&ctx, &i.to_be_bytes(), i + 1000).unwrap();
        }
        // The log's spans: every extent the owner table gives a log,
        // and the segment directory.
        let (_, extent, _) = tree.allocator().extent_pool();
        let mut spans: Vec<(u64, u64)> = (0..cfg.shards)
            .flat_map(|d| tree.allocator().log_extents(d))
            .map(|e| (e, e + extent))
            .collect();
        assert!(!spans.is_empty(), "the log must own extents");
        spans.push((superblock::SB_LOG_DIR, superblock::CARVE_START));
        drop(ctx);
        drop(tree);
        // Sealed entries live in the durable base and are untouched
        // by the chooser; only unsealed (staged) log bytes can be
        // dropped — exactly the eviction pattern that breaks a
        // protocol which defers undo durability past the mutation.
        arena.crash_with(|line, n| {
            let off = line * 64;
            if spans.iter().any(|&(lo, hi)| off >= lo && off < hi) {
                0
            } else {
                n
            }
        });

        let (tree2, _) = DurableMasstree::open(&arena, cfg).unwrap();
        let ctx2 = tree2.thread_ctx(0).unwrap();
        let got = collect(&tree2, &ctx2);
        let want: Vec<_> = expect.into_iter().collect();
        assert_eq!(
            got, want,
            "adversarial eviction must still recover exactly to the boundary"
        );
    }

    #[test]
    fn crash_reverts_inserts() {
        for seed in 0..10 {
            crash_roundtrip(
                seed,
                |t, ctx| {
                    let mut m = BTreeMap::new();
                    for i in 0..20u64 {
                        t.put(ctx, &i.to_be_bytes(), i).unwrap();
                        m.insert(i.to_be_bytes().to_vec(), i);
                    }
                    m
                },
                |t, ctx| {
                    for i in 20..40u64 {
                        t.put(ctx, &i.to_be_bytes(), i).unwrap();
                    }
                },
            );
        }
    }

    #[test]
    fn crash_reverts_updates() {
        for seed in 0..10 {
            crash_roundtrip(
                seed,
                |t, ctx| {
                    let mut m = BTreeMap::new();
                    for i in 0..20u64 {
                        t.put(ctx, &i.to_be_bytes(), i).unwrap();
                        m.insert(i.to_be_bytes().to_vec(), i);
                    }
                    m
                },
                |t, ctx| {
                    for i in 0..20u64 {
                        t.put(ctx, &i.to_be_bytes(), i + 1000).unwrap();
                    }
                },
            );
        }
    }

    #[test]
    fn crash_reverts_removes() {
        for seed in 0..10 {
            crash_roundtrip(
                seed,
                |t, ctx| {
                    let mut m = BTreeMap::new();
                    for i in 0..20u64 {
                        t.put(ctx, &i.to_be_bytes(), i).unwrap();
                        m.insert(i.to_be_bytes().to_vec(), i);
                    }
                    m
                },
                |t, ctx| {
                    for i in 0..10u64 {
                        t.remove(ctx, &i.to_be_bytes());
                    }
                },
            );
        }
    }

    #[test]
    fn crash_reverts_remove_then_insert_same_epoch() {
        // The InCLLp hazard case: the leaf is full at the checkpoint, so
        // no slot was free at epoch start and the first insert after the
        // removes forces the external-log fallback.
        for seed in 0..10 {
            crash_roundtrip(
                seed,
                |t, ctx| {
                    let mut m = BTreeMap::new();
                    for i in 0..14u64 {
                        t.put(ctx, &i.to_be_bytes(), i).unwrap();
                        m.insert(i.to_be_bytes().to_vec(), i);
                    }
                    m
                },
                |t, ctx| {
                    for i in 0..7u64 {
                        t.remove(ctx, &i.to_be_bytes());
                    }
                    for i in 100..107u64 {
                        t.put(ctx, &i.to_be_bytes(), i).unwrap();
                    }
                },
            );
        }
    }

    #[test]
    fn crash_reverts_splits() {
        for seed in 0..10 {
            crash_roundtrip(
                seed,
                |t, ctx| {
                    let mut m = BTreeMap::new();
                    for i in 0..10u64 {
                        t.put(ctx, &i.to_be_bytes(), i).unwrap();
                        m.insert(i.to_be_bytes().to_vec(), i);
                    }
                    m
                },
                |t, ctx| {
                    // Far beyond one leaf: leaf + interior splits.
                    for i in 10..400u64 {
                        t.put(ctx, &i.to_be_bytes(), i).unwrap();
                    }
                },
            );
        }
    }

    #[test]
    fn crash_preserves_completed_epoch_work() {
        let (arena, tree) = fresh(true);
        let ctx = tree.thread_ctx(0).unwrap();
        for i in 0..500u64 {
            tree.put(&ctx, &i.to_be_bytes(), i).unwrap();
        }
        tree.epoch_manager().advance();
        // Mixed mutations in the doomed epoch.
        for i in 0..100u64 {
            tree.put(&ctx, &i.to_be_bytes(), 9999).unwrap();
            tree.remove(&ctx, &(i + 200).to_be_bytes());
        }
        drop(ctx);
        drop(tree);
        arena.crash_seeded(99);
        let (tree2, _) = DurableMasstree::open(&arena, small_config()).unwrap();
        let ctx2 = tree2.thread_ctx(0).unwrap();
        for i in 0..500u64 {
            assert_eq!(get(&tree2, &ctx2, &i.to_be_bytes()), Some(i), "key {i}");
        }
    }

    #[test]
    fn random_ops_random_crash_matches_boundary_state() {
        for seed in 0..15u64 {
            let (arena, tree) = fresh(true);
            let ctx = tree.thread_ctx(0).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
            let mut checkpoint = model.clone();
            for _ in 0..3 {
                // one epoch of random churn
                for _ in 0..rng.gen_range(10..200) {
                    let key = rng.gen_range(0..60u64).to_be_bytes().to_vec();
                    match rng.gen_range(0..3) {
                        0 => {
                            let v = rng.gen();
                            tree.put(&ctx, &key, v).unwrap();
                            model.insert(key, v);
                        }
                        1 => {
                            tree.remove(&ctx, &key);
                            model.remove(&key);
                        }
                        _ => {
                            assert_eq!(get(&tree, &ctx, &key), model.get(&key).copied());
                        }
                    }
                }
                tree.epoch_manager().advance();
                checkpoint = model.clone();
            }
            // Doomed epoch.
            for _ in 0..rng.gen_range(10..200) {
                let key = rng.gen_range(0..60u64).to_be_bytes().to_vec();
                if rng.gen_bool(0.6) {
                    tree.put(&ctx, &key, rng.gen()).unwrap();
                } else {
                    tree.remove(&ctx, &key);
                }
            }
            drop(ctx);
            drop(tree);
            arena.crash_seeded(seed.wrapping_mul(31) + 7);
            let (tree2, _) = DurableMasstree::open(&arena, small_config()).unwrap();
            let ctx2 = tree2.thread_ctx(0).unwrap();
            let want: Vec<_> = checkpoint.into_iter().collect();
            assert_eq!(collect(&tree2, &ctx2), want, "seed {seed}");
        }
    }

    #[test]
    fn double_crash_recovers_to_same_boundary() {
        let (arena, tree) = fresh(true);
        let ctx = tree.thread_ctx(0).unwrap();
        let mut expect = BTreeMap::new();
        for i in 0..50u64 {
            tree.put(&ctx, &i.to_be_bytes(), i).unwrap();
            expect.insert(i.to_be_bytes().to_vec(), i);
        }
        tree.epoch_manager().advance();
        for i in 50..80u64 {
            tree.put(&ctx, &i.to_be_bytes(), i).unwrap();
        }
        drop(ctx);
        drop(tree);
        arena.crash_seeded(1);
        // First recovery, then more doomed work, then a second crash.
        let (tree2, _) = DurableMasstree::open(&arena, small_config()).unwrap();
        let ctx2 = tree2.thread_ctx(0).unwrap();
        for i in 80..110u64 {
            tree2.put(&ctx2, &i.to_be_bytes(), i).unwrap();
        }
        drop(ctx2);
        drop(tree2);
        arena.crash_seeded(2);
        let (tree3, report) = DurableMasstree::open(&arena, small_config()).unwrap();
        assert!(report.failed_epochs.len() >= 2);
        let ctx3 = tree3.thread_ctx(0).unwrap();
        let want: Vec<_> = expect.into_iter().collect();
        assert_eq!(collect(&tree3, &ctx3), want);
    }

    #[test]
    fn work_after_recovery_persists() {
        let (arena, tree) = fresh(true);
        let ctx = tree.thread_ctx(0).unwrap();
        tree.put(&ctx, b"before", 1).unwrap();
        tree.epoch_manager().advance();
        tree.put(&ctx, b"doomed", 2).unwrap();
        drop(ctx);
        drop(tree);
        arena.crash_seeded(5);
        let (tree2, _) = DurableMasstree::open(&arena, small_config()).unwrap();
        let ctx2 = tree2.thread_ctx(0).unwrap();
        assert_eq!(get(&tree2, &ctx2, b"before"), Some(1));
        assert_eq!(get(&tree2, &ctx2, b"doomed"), None);
        tree2.put(&ctx2, b"after", 3).unwrap();
        tree2.epoch_manager().advance(); // checkpoint the new work
        drop(ctx2);
        drop(tree2);
        arena.crash_seeded(6);
        let (tree3, _) = DurableMasstree::open(&arena, small_config()).unwrap();
        let ctx3 = tree3.thread_ctx(0).unwrap();
        assert_eq!(get(&tree3, &ctx3, b"before"), Some(1));
        assert_eq!(get(&tree3, &ctx3, b"after"), Some(3));
    }

    #[test]
    fn logging_only_mode_is_crash_consistent() {
        // The paper's LOGGING ablation must be *correct*, just slower.
        let config = DurableConfig {
            incll_enabled: false,
            ..small_config()
        };
        let arena = PArena::builder()
            .capacity_bytes(32 << 20)
            .tracked(true)
            .build()
            .unwrap();
        superblock::format(&arena);
        let tree = DurableMasstree::create(&arena, config.clone()).unwrap();
        let ctx = tree.thread_ctx(0).unwrap();
        let mut expect = BTreeMap::new();
        for i in 0..40u64 {
            tree.put(&ctx, &i.to_be_bytes(), i).unwrap();
            expect.insert(i.to_be_bytes().to_vec(), i);
        }
        tree.epoch_manager().advance();
        for i in 0..40u64 {
            tree.put(&ctx, &i.to_be_bytes(), 7777).unwrap();
        }
        assert!(arena.stats().ext_nodes_logged() > 0);
        drop(ctx);
        drop(tree);
        arena.crash_seeded(3);
        let (tree2, _) = DurableMasstree::open(&arena, config).unwrap();
        let ctx2 = tree2.thread_ctx(0).unwrap();
        let want: Vec<_> = expect.into_iter().collect();
        assert_eq!(collect(&tree2, &ctx2), want);
    }

    #[test]
    fn skewed_updates_share_incll_slot() {
        // Repeated updates of one key in an epoch need only one InCLL log.
        let (a, t) = fresh(false);
        let ctx = t.thread_ctx(0).unwrap();
        t.put(&ctx, b"hot", 0).unwrap();
        t.epoch_manager().advance();
        let before = a.stats().snapshot();
        for i in 0..100u64 {
            t.put(&ctx, b"hot", i).unwrap();
        }
        let d = a.stats().snapshot().delta(&before);
        assert_eq!(d.incll_val_logs, 1, "same-slot updates reuse the log");
        assert_eq!(d.ext_nodes_logged, 0);
    }

    #[test]
    fn epoch_window_wrap_falls_back_to_external_log() {
        // ValInCLLs store only 16 epoch bits; when the high window
        // changes (~once an hour at 64 ms epochs) the node must be
        // external-logged instead (§4.1.3).
        let (a, t) = fresh(false);
        let ctx = t.thread_ctx(0).unwrap();
        t.put(&ctx, b"wrapkey", 1).unwrap();
        t.epoch_manager().advance(); // nodeEpoch ∈ window 0

        // Jump the epoch across the 2^16 window boundary.
        t.epoch_manager().restart_domain_at(0, 1 << 16);
        let before = a.stats().snapshot();
        t.put(&ctx, b"wrapkey", 2).unwrap(); // first touch in the new window
        let d = a.stats().snapshot().delta(&before);
        assert!(
            d.ext_nodes_logged >= 1,
            "window wrap must trigger the external-log fallback"
        );
        assert_eq!(get(&t, &ctx, b"wrapkey"), Some(2));
        // Subsequent same-epoch updates are free again.
        let before = a.stats().snapshot();
        t.put(&ctx, b"wrapkey", 3).unwrap();
        let d = a.stats().snapshot().delta(&before);
        assert_eq!(d.ext_nodes_logged, 0);
    }

    #[test]
    fn wrap_crash_is_recoverable() {
        // Crash in the first epoch of a new 2^16 window: the logged nodes
        // replay correctly even though their InCLL windows mismatch.
        let arena = PArena::builder()
            .capacity_bytes(32 << 20)
            .tracked(true)
            .build()
            .unwrap();
        superblock::format(&arena);
        let tree = DurableMasstree::create(&arena, small_config()).unwrap();
        let mut expect = BTreeMap::new();
        {
            let ctx = tree.thread_ctx(0).unwrap();
            for i in 0..30u64 {
                tree.put(&ctx, &i.to_be_bytes(), i).unwrap();
                expect.insert(i.to_be_bytes().to_vec(), i);
            }
            tree.epoch_manager().advance();
            tree.epoch_manager().restart_domain_at(0, 1 << 16); // window jump

            // exec_epoch moved: lazy recovery will run; that's the uniform
            // open-equals-recover behavior.
            for i in 0..30u64 {
                tree.put(&ctx, &i.to_be_bytes(), 9999).unwrap(); // doomed
            }
        }
        drop(tree);
        arena.crash_seeded(4);
        let (tree2, _) = DurableMasstree::open(&arena, small_config()).unwrap();
        let ctx2 = tree2.thread_ctx(0).unwrap();
        let want: Vec<_> = expect.into_iter().collect();
        assert_eq!(collect(&tree2, &ctx2), want);
    }

    // ---------------- sharding (mid-level) ----------------

    #[test]
    fn shard_handles_are_independent_trees() {
        let arena = PArena::builder().capacity_bytes(32 << 20).build().unwrap();
        superblock::format(&arena);
        let cfg = DurableConfig {
            shards: 4,
            ..small_config()
        };
        let t0 = DurableMasstree::create(&arena, cfg).unwrap();
        assert_eq!(t0.shard_count(), 4);
        let ctx = t0.thread_ctx(0).unwrap();
        let t2 = t0.shard(2);
        // The same key placed in two shards lives twice — placement is the
        // caller's job at this level.
        t0.put(&ctx, b"k", 10).unwrap();
        t2.put(&ctx, b"k", 20).unwrap();
        assert_eq!(get(&t0, &ctx, b"k"), Some(10));
        assert_eq!(get(&t2, &ctx, b"k"), Some(20));
        assert!(t0.remove(&ctx, b"k"));
        assert_eq!(get(&t0, &ctx, b"k"), None);
        assert_eq!(get(&t2, &ctx, b"k"), Some(20), "shard 2 must be untouched");
    }

    #[test]
    fn shards_crash_and_recover_at_one_shared_boundary() {
        let arena = PArena::builder()
            .capacity_bytes(32 << 20)
            .tracked(true)
            .build()
            .unwrap();
        superblock::format(&arena);
        let cfg = DurableConfig {
            shards: 2,
            ..small_config()
        };
        let tree = DurableMasstree::create(&arena, cfg.clone()).unwrap();
        {
            let ctx = tree.thread_ctx(0).unwrap();
            let t1 = tree.shard(1);
            for i in 0..50u64 {
                tree.put(&ctx, &i.to_be_bytes(), i).unwrap();
                t1.put(&ctx, &i.to_be_bytes(), i + 1000).unwrap();
            }
            tree.epoch_manager().advance(); // one boundary covers both
            for i in 0..50u64 {
                tree.put(&ctx, &i.to_be_bytes(), 9999).unwrap(); // doomed, shard 0
                t1.put(&ctx, &(i + 50).to_be_bytes(), 9999).unwrap(); // doomed, shard 1
            }
        }
        drop(tree);
        arena.crash_seeded(17);
        let (tree2, report) = DurableMasstree::open(&arena, cfg).unwrap();
        assert_eq!(report.per_shard.len(), 2);
        assert_eq!(
            report
                .per_shard
                .iter()
                .map(|s| s.replayed_entries)
                .sum::<u64>(),
            report.replayed_entries
        );
        let ctx = tree2.thread_ctx(0).unwrap();
        let t1 = tree2.shard(1);
        for i in 0..50u64 {
            assert_eq!(get(&tree2, &ctx, &i.to_be_bytes()), Some(i));
            assert_eq!(get(&t1, &ctx, &i.to_be_bytes()), Some(i + 1000));
            assert_eq!(get(&t1, &ctx, &(i + 50).to_be_bytes()), None);
        }
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        let arena = PArena::builder().capacity_bytes(32 << 20).build().unwrap();
        let opts = Options::new()
            .threads(2)
            .log_bytes_per_thread(256 << 10)
            .shards(8);
        let (store, _) = Store::open(&arena, opts).unwrap();
        let mut hit = [false; 8];
        for i in 0..512u64 {
            let s = store.shard_of(&i.to_be_bytes());
            assert!(s < 8);
            assert_eq!(s, store.shard_of(&i.to_be_bytes()), "stable");
            hit[s] = true;
        }
        assert!(hit.iter().all(|&h| h), "512 keys must touch all 8 shards");
    }

    #[test]
    fn dropping_the_tree_releases_it() {
        // Regression: the epoch-boundary hook must hold the tree weakly;
        // a strong capture cycles through the manager and leaks the
        // arena (found the hard way: a 13 GB OOM in the figure harness).
        let (_a, t) = fresh(false);
        let weak = std::sync::Arc::downgrade(&t.inner);
        let mgr = t.epoch_manager().clone();
        drop(t);
        assert!(
            weak.upgrade().is_none(),
            "tree inner state must be freed once all handles drop"
        );
        // The surviving manager's hook degrades to a no-op.
        mgr.advance();
    }

    #[test]
    fn clean_reopen_preserves_everything() {
        let (arena, tree) = fresh(true);
        let ctx = tree.thread_ctx(0).unwrap();
        let mut expect = BTreeMap::new();
        for i in 0..300u64 {
            tree.put(&ctx, &i.to_be_bytes(), i * 2).unwrap();
            expect.insert(i.to_be_bytes().to_vec(), i * 2);
        }
        tree.epoch_manager().advance(); // clean shutdown = checkpoint
        drop(ctx);
        drop(tree);
        // No crash: reopen (uniform with recovery).
        let (tree2, _) = DurableMasstree::open(&arena, small_config()).unwrap();
        let ctx2 = tree2.thread_ctx(0).unwrap();
        let want: Vec<_> = expect.into_iter().collect();
        assert_eq!(collect(&tree2, &ctx2), want);
    }

    // ---------------- byte-slice values ----------------

    /// Deterministic variable-length value: spans empty through the 320+
    /// byte classes so crash tests cross size-class boundaries.
    fn bval(i: u64) -> Vec<u8> {
        let len = ((i * 37) % 347) as usize;
        (0..len).map(|j| (i as u8).wrapping_add(j as u8)).collect()
    }

    #[test]
    fn byte_put_get_update_remove() {
        let (_a, t) = fresh(false);
        let ctx = t.thread_ctx(0).unwrap();
        assert_eq!(t.put_bytes(&ctx, b"alpha", b"one").unwrap(), None);
        assert_eq!(get_bytes(&t, &ctx, b"alpha").as_deref(), Some(&b"one"[..]));
        assert_eq!(
            t.put_bytes(&ctx, b"alpha", &[7u8; 300]).unwrap().as_deref(),
            Some(&b"one"[..]),
            "class-crossing update returns the old value"
        );
        assert_eq!(
            get_bytes(&t, &ctx, b"alpha").as_deref(),
            Some(&[7u8; 300][..])
        );
        assert_eq!(
            t.put_bytes(&ctx, b"alpha", b"").unwrap().as_deref(),
            Some(&[7u8; 300][..])
        );
        assert_eq!(get_bytes(&t, &ctx, b"alpha").as_deref(), Some(&b""[..]));
        assert!(t.remove(&ctx, b"alpha"));
        assert_eq!(get_bytes(&t, &ctx, b"alpha"), None);
    }

    #[test]
    fn byte_and_u64_forms_interoperate() {
        let (_a, t) = fresh(false);
        let ctx = t.thread_ctx(0).unwrap();
        t.put(&ctx, b"k", 0xAB54_A98C_EB1F_0AD2).unwrap();
        assert_eq!(
            get_bytes(&t, &ctx, b"k").as_deref(),
            Some(&0xAB54_A98C_EB1F_0AD2u64.to_le_bytes()[..]),
            "u64 payloads are little-endian 8-byte values"
        );
        t.put_bytes(&ctx, b"k", &7u64.to_le_bytes()).unwrap();
        assert_eq!(get(&t, &ctx, b"k"), Some(7));
    }

    #[test]
    fn oversized_value_is_rejected_without_mutation() {
        let (_a, t) = fresh(false);
        let ctx = t.thread_ctx(0).unwrap();
        t.put_bytes(&ctx, b"k", b"keep").unwrap();
        let big = vec![0u8; MAX_VALUE_BYTES + 1];
        assert!(matches!(
            t.put_bytes(&ctx, b"k", &big),
            Err(Error::ValueTooLarge { .. })
        ));
        assert_eq!(get_bytes(&t, &ctx, b"k").as_deref(), Some(&b"keep"[..]));
        // The boundary itself is accepted.
        t.put_bytes(&ctx, b"k", &big[..MAX_VALUE_BYTES]).unwrap();
        assert_eq!(
            get_bytes(&t, &ctx, b"k").map(|v| v.len()),
            Some(MAX_VALUE_BYTES)
        );
    }

    #[test]
    fn thread_ctx_is_bounds_checked() {
        let (_a, t) = fresh(false);
        assert!(t.thread_ctx(0).is_ok());
        assert!(t.thread_ctx(1).is_ok());
        assert!(matches!(
            t.thread_ctx(2),
            Err(Error::TooManyThreads { limit: 2 })
        ));
        assert!(matches!(
            t.thread_ctx(usize::MAX),
            Err(Error::TooManyThreads { .. })
        ));
    }

    #[test]
    fn no_flushes_on_byte_value_op_path() {
        // The acceptance bar for the byte-value redesign: puts that hit
        // existing size-class buffers keep the InCLL path — zero fences
        // beyond external-log seals.
        let (a, t) = fresh(false);
        let ctx = t.thread_ctx(0).unwrap();
        // Warm up both the 32-byte and the 112-byte classes, then start a
        // fresh epoch.
        for i in 0..64u64 {
            t.put_bytes(&ctx, &i.to_be_bytes(), &[i as u8; 16]).unwrap();
            t.put_bytes(&ctx, &(500 + i).to_be_bytes(), &[i as u8; 100])
                .unwrap();
        }
        t.epoch_manager().advance();
        let before = a.stats().snapshot();
        // Every fence must come from an external-log seal: an op that
        // logged nothing fences nothing, and one that logged seals at least
        // once per object it counted (fewer is a missing write-ahead fence)
        // — plus once when the leaf's earlier regions were already
        // captured this epoch (such a seal counts no object).
        let put = |key: u64, val: &[u8]| {
            let before = a.stats().snapshot();
            t.put_bytes(&ctx, &key.to_be_bytes(), val).unwrap();
            let d = a.stats().snapshot().delta(&before);
            assert_eq!(d.ext_bytes_logged == 0, d.sfence == 0, "key {key}: {d:?}");
            assert!(
                d.ext_nodes_logged <= d.sfence && d.sfence <= d.ext_nodes_logged + 1,
                "key {key}: {d:?}"
            );
        };
        for i in 0..32u64 {
            put(1000 + i, &[1u8; 16]);
            put(i, &[2u8; 20]); // updates, same class
            put(500 + i, &[3u8; 90]);
            get_bytes(&t, &ctx, &i.to_be_bytes());
        }
        let d = a.stats().snapshot().delta(&before);
        assert!(d.incll_perm_logs > 0, "InCLLp should be absorbing inserts");
        assert!(d.incll_val_logs > 0, "ValInCLL should be absorbing updates");
    }

    /// Byte-value twin of `crash_roundtrip`.
    fn crash_roundtrip_bytes(
        seed: u64,
        setup: impl Fn(&DurableMasstree, &DCtx) -> BTreeMap<Vec<u8>, Vec<u8>>,
        mutate: impl Fn(&DurableMasstree, &DCtx),
    ) {
        let (arena, tree) = fresh(true);
        let ctx = tree.thread_ctx(0).unwrap();
        let expect = setup(&tree, &ctx);
        tree.epoch_manager().advance(); // checkpoint the setup state
        mutate(&tree, &ctx); // doomed epoch
        drop(ctx);
        drop(tree);
        arena.crash_seeded(seed);

        let (tree2, report) = DurableMasstree::open(&arena, small_config()).unwrap();
        assert!(report.failed_epoch >= 2);
        let ctx2 = tree2.thread_ctx(0).unwrap();
        let got = collect_bytes(&tree2, &ctx2);
        let want: Vec<_> = expect.into_iter().collect();
        assert_eq!(got, want, "seed {seed}: must match the checkpoint");
    }

    #[test]
    fn crash_reverts_inserts_bytes() {
        for seed in 0..10 {
            crash_roundtrip_bytes(
                seed,
                |t, ctx| {
                    let mut m = BTreeMap::new();
                    for i in 0..20u64 {
                        t.put_bytes(ctx, &i.to_be_bytes(), &bval(i)).unwrap();
                        m.insert(i.to_be_bytes().to_vec(), bval(i));
                    }
                    m
                },
                |t, ctx| {
                    for i in 20..40u64 {
                        t.put_bytes(ctx, &i.to_be_bytes(), &bval(i)).unwrap();
                    }
                },
            );
        }
    }

    #[test]
    fn crash_reverts_updates_bytes() {
        for seed in 0..10 {
            crash_roundtrip_bytes(
                seed,
                |t, ctx| {
                    let mut m = BTreeMap::new();
                    for i in 0..20u64 {
                        t.put_bytes(ctx, &i.to_be_bytes(), &bval(i)).unwrap();
                        m.insert(i.to_be_bytes().to_vec(), bval(i));
                    }
                    m
                },
                |t, ctx| {
                    for i in 0..20u64 {
                        // Doomed updates cross size classes both ways.
                        t.put_bytes(ctx, &i.to_be_bytes(), &bval(i + 1000)).unwrap();
                    }
                },
            );
        }
    }

    #[test]
    fn crash_reverts_removes_bytes() {
        for seed in 0..10 {
            crash_roundtrip_bytes(
                seed,
                |t, ctx| {
                    let mut m = BTreeMap::new();
                    for i in 0..20u64 {
                        t.put_bytes(ctx, &i.to_be_bytes(), &bval(i)).unwrap();
                        m.insert(i.to_be_bytes().to_vec(), bval(i));
                    }
                    m
                },
                |t, ctx| {
                    for i in 0..10u64 {
                        t.remove(ctx, &i.to_be_bytes());
                    }
                },
            );
        }
    }

    #[test]
    fn crash_reverts_remove_then_insert_same_epoch_bytes() {
        // The InCLLp hazard case: the leaf is full at the checkpoint, so
        // no slot was free at epoch start and the first insert after the
        // removes forces the external-log fallback.
        for seed in 0..10 {
            crash_roundtrip_bytes(
                seed,
                |t, ctx| {
                    let mut m = BTreeMap::new();
                    for i in 0..14u64 {
                        t.put_bytes(ctx, &i.to_be_bytes(), &bval(i)).unwrap();
                        m.insert(i.to_be_bytes().to_vec(), bval(i));
                    }
                    m
                },
                |t, ctx| {
                    for i in 0..7u64 {
                        t.remove(ctx, &i.to_be_bytes());
                    }
                    for i in 100..107u64 {
                        t.put_bytes(ctx, &i.to_be_bytes(), &bval(i)).unwrap();
                    }
                },
            );
        }
    }

    #[test]
    fn crash_reverts_splits_bytes() {
        for seed in 0..10 {
            crash_roundtrip_bytes(
                seed,
                |t, ctx| {
                    let mut m = BTreeMap::new();
                    for i in 0..10u64 {
                        t.put_bytes(ctx, &i.to_be_bytes(), &bval(i)).unwrap();
                        m.insert(i.to_be_bytes().to_vec(), bval(i));
                    }
                    m
                },
                |t, ctx| {
                    // Far beyond one leaf: leaf + interior splits.
                    for i in 10..400u64 {
                        t.put_bytes(ctx, &i.to_be_bytes(), &bval(i)).unwrap();
                    }
                },
            );
        }
    }

    #[test]
    fn byte_value_buffers_revert_with_contents_intact() {
        // §5 EBR for the generalized buffers: reverted pointers across all
        // size classes see intact contents after heavy doomed churn.
        let (arena, tree) = fresh(true);
        let ctx = tree.thread_ctx(0).unwrap();
        for i in 0..150u64 {
            tree.put_bytes(&ctx, &i.to_be_bytes(), &bval(i)).unwrap();
        }
        tree.epoch_manager().advance();
        for round in 0..3u64 {
            for i in 0..150u64 {
                tree.put_bytes(&ctx, &i.to_be_bytes(), &bval(i + round * 500 + 1))
                    .unwrap();
            }
        }
        drop(ctx);
        drop(tree);
        arena.crash_seeded(404);
        let (tree2, _) = DurableMasstree::open(&arena, small_config()).unwrap();
        let ctx2 = tree2.thread_ctx(0).unwrap();
        for i in 0..150u64 {
            assert_eq!(
                get_bytes(&tree2, &ctx2, &i.to_be_bytes()),
                Some(bval(i)),
                "key {i}"
            );
        }
    }
}
