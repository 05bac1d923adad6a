//! Per-cache-line store journal implementing the PCSO persistence model.
//!
//! In *tracked* mode every durable store is recorded against the cache line
//! it touches. The journal maintains, per line:
//!
//! * `base` — the content known to be in NVM (as of the last completed
//!   `clwb`+`sfence` or whole-cache flush), and
//! * `stores` — the ordered list of unpersisted stores since then.
//!
//! PCSO guarantees exactly one thing without fences: **stores to the same
//! cache line persist in program order**. A simulated crash therefore picks,
//! independently for each line, a random *prefix* of its store list and
//! materialises `base + prefix` as the post-crash NVM content. Cross-line
//! persist order is unconstrained, which the independent per-line choices
//! model adversarially.
//!
//! `clwb` snapshots the line's current content; a following `sfence`
//! promotes that snapshot to `base` (a `clwb` without a fence guarantees
//! nothing, so pending snapshots are ignored by [`Journal::crash_with`]).

use parking_lot::Mutex;
use std::collections::HashMap;

use crate::arena::CACHE_LINE;

const SHARDS: usize = 64;

/// The domain tag carried by stores made outside any flush-domain scope
/// (and by lines dirtied under more than one domain). Shared lines are
/// flushed by **every** scoped flush, so tagging conservatively only ever
/// makes *more* state durable — which is always a legal PCSO outcome (a
/// cache line may be evicted, i.e. persisted, at any moment).
pub const DOMAIN_SHARED: u16 = u16::MAX;

/// One recorded (unpersisted) store within a single cache line.
#[derive(Clone)]
struct StoreRec {
    /// Byte offset within the line.
    off: u8,
    /// Store width in bytes (1..=64).
    len: u8,
    /// The stored bytes (`data[..len]` is meaningful).
    data: [u8; CACHE_LINE],
}

/// Journal state for one cache line with unpersisted stores.
struct LineState {
    /// Content known to be durable.
    base: [u8; CACHE_LINE],
    /// Unpersisted stores in program order.
    stores: Vec<StoreRec>,
    /// `clwb` snapshot awaiting an `sfence`: `(snapshot, stores.len() at
    /// clwb time)`.
    pending: Option<([u8; CACHE_LINE], usize)>,
    /// The epoch domain that dirtied this line, or [`DOMAIN_SHARED`] when
    /// stores from more than one domain (or untagged stores) touched it.
    domain: u16,
}

/// The tracked-mode store journal. Internal to the arena.
pub(crate) struct Journal {
    shards: Vec<Mutex<HashMap<u64, LineState>>>,
    /// Lines with a `clwb` snapshot awaiting `sfence`.
    pending_lines: Mutex<Vec<u64>>,
}

impl Journal {
    pub(crate) fn new() -> Self {
        Journal {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            pending_lines: Mutex::new(Vec::new()),
        }
    }

    #[inline]
    fn shard(&self, line: u64) -> &Mutex<HashMap<u64, LineState>> {
        &self.shards[(line as usize) % SHARDS]
    }

    /// Records a store of `data` at byte `off` within `line`, then invokes
    /// `apply` (which performs the real memory store) while still holding
    /// the shard lock, so journal order equals memory order.
    ///
    /// `read_line` must return the line's *current* content; it is only
    /// called when the line enters the journal (its current content is then,
    /// by definition, also its durable content).
    pub(crate) fn record_store(
        &self,
        line: u64,
        off: usize,
        data: &[u8],
        domain: u16,
        read_line: impl FnOnce() -> [u8; CACHE_LINE],
        apply: impl FnOnce(),
    ) {
        debug_assert!(off + data.len() <= CACHE_LINE);
        let mut shard = self.shard(line).lock();
        let entry = shard.entry(line).or_insert_with(|| LineState {
            base: read_line(),
            stores: Vec::new(),
            pending: None,
            domain,
        });
        if entry.domain != domain {
            entry.domain = DOMAIN_SHARED;
        }
        let mut rec = StoreRec {
            off: off as u8,
            len: data.len() as u8,
            data: [0; CACHE_LINE],
        };
        rec.data[..data.len()].copy_from_slice(data);
        entry.stores.push(rec);
        apply();
    }

    /// Records a `clwb` of `line`: snapshots the current content so a later
    /// `sfence` can promote it to the durable base.
    pub(crate) fn clwb(&self, line: u64, read_line: impl FnOnce() -> [u8; CACHE_LINE]) {
        let mut shard = self.shard(line).lock();
        // A missing entry means no unpersisted stores: the line is already
        // durable and there is nothing to snapshot.
        if let Some(entry) = shard.get_mut(&line) {
            let upto = entry.stores.len();
            entry.pending = Some((read_line(), upto));
            self.pending_lines.lock().push(line);
        }
    }

    /// Completes all pending `clwb`s (the `sfence` semantics): each pending
    /// snapshot becomes the line's durable base and the covered stores are
    /// retired.
    pub(crate) fn sfence(&self) {
        let lines: Vec<u64> = std::mem::take(&mut *self.pending_lines.lock());
        for line in lines {
            let mut shard = self.shard(line).lock();
            if let Some(entry) = shard.get_mut(&line) {
                if let Some((snapshot, upto)) = entry.pending.take() {
                    entry.base = snapshot;
                    entry.stores.drain(..upto);
                    if entry.stores.is_empty() {
                        // Fully durable: base == current; drop the entry so
                        // crash() leaves the line untouched.
                        shard.remove(&line);
                    }
                }
            }
        }
    }

    /// Declares every line durable with its *current* content (the
    /// whole-cache-flush semantics).
    pub(crate) fn flush_all(&self) {
        self.pending_lines.lock().clear();
        for shard in &self.shards {
            shard.lock().clear();
        }
    }

    /// Declares durable (with current content) every line dirtied under
    /// `domain`, plus every [`DOMAIN_SHARED`] line — the scoped-flush
    /// semantics used by per-shard epoch advances. Lines owned by other
    /// domains keep their journal entries (and their crash exposure).
    pub(crate) fn flush_domain(&self, domain: u16) {
        for shard in &self.shards {
            shard
                .lock()
                .retain(|_, st| st.domain != domain && st.domain != DOMAIN_SHARED);
        }
        // pending_lines is deliberately left alone: ids whose entries were
        // just flushed are harmless (`sfence` skips lines with no journal
        // entry), while "cleaning" the list here would race a concurrent
        // clwb→sfence pair on another domain — taking the list out, even
        // briefly, makes that thread's sfence promote nothing and silently
        // revokes a durability guarantee it already returned with.
    }

    /// Number of cache lines holding unpersisted stores.
    pub(crate) fn unpersisted_lines(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Simulates a power failure.
    ///
    /// For every journaled line, `choose(line, n)` picks how many of its `n`
    /// unpersisted stores reached NVM (must return a value in `0..=n`); the
    /// reconstructed content is handed to `write_line`, which must copy it
    /// back into the arena. The journal is left empty: after a crash the
    /// arena content *is* the NVM content.
    pub(crate) fn crash_with(
        &self,
        mut choose: impl FnMut(u64, usize) -> usize,
        mut write_line: impl FnMut(u64, &[u8; CACHE_LINE]),
    ) {
        self.pending_lines.lock().clear();
        for shard in &self.shards {
            let mut map = shard.lock();
            // Deterministic iteration order so seeded crashes reproduce.
            let mut lines: Vec<u64> = map.keys().copied().collect();
            lines.sort_unstable();
            for line in lines {
                let entry = map.remove(&line).expect("line listed but missing");
                let k = choose(line, entry.stores.len());
                assert!(
                    k <= entry.stores.len(),
                    "crash chooser returned {k} > {} stores",
                    entry.stores.len()
                );
                let mut buf = entry.base;
                for rec in &entry.stores[..k] {
                    let (off, len) = (rec.off as usize, rec.len as usize);
                    buf[off..off + len].copy_from_slice(&rec.data[..len]);
                }
                write_line(line, &buf);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zero_line() -> [u8; CACHE_LINE] {
        [0; CACHE_LINE]
    }

    /// Cache lines holding unpersisted stores dirtied under `domain`
    /// (shared lines count for every domain).
    fn unpersisted_lines_in(j: &Journal, domain: u16) -> usize {
        j.shards
            .iter()
            .map(|s| {
                s.lock()
                    .values()
                    .filter(|st| st.domain == domain || st.domain == DOMAIN_SHARED)
                    .count()
            })
            .sum()
    }

    #[test]
    fn store_then_full_crash_keeps_store() {
        let j = Journal::new();
        j.record_store(5, 0, &7u64.to_le_bytes(), DOMAIN_SHARED, zero_line, || {});
        let mut seen = Vec::new();
        j.crash_with(|_, n| n, |line, buf| seen.push((line, buf[0])));
        assert_eq!(seen, vec![(5, 7)]);
        assert_eq!(j.unpersisted_lines(), 0);
    }

    #[test]
    fn store_then_zero_prefix_crash_reverts() {
        let j = Journal::new();
        j.record_store(5, 0, &7u64.to_le_bytes(), DOMAIN_SHARED, zero_line, || {});
        let mut seen = Vec::new();
        j.crash_with(|_, _| 0, |line, buf| seen.push((line, buf[0])));
        assert_eq!(seen, vec![(5, 0)]);
    }

    #[test]
    fn same_line_stores_apply_in_order() {
        let j = Journal::new();
        j.record_store(1, 0, &[1], DOMAIN_SHARED, zero_line, || {});
        j.record_store(1, 0, &[2], DOMAIN_SHARED, zero_line, || {});
        j.record_store(1, 8, &[9], DOMAIN_SHARED, zero_line, || {});
        // Prefix of 2: second store to byte 0 wins, byte 8 still zero.
        let mut byte0 = 0xff;
        let mut byte8 = 0xff;
        j.crash_with(
            |_, _| 2,
            |_, buf| {
                byte0 = buf[0];
                byte8 = buf[8];
            },
        );
        assert_eq!((byte0, byte8), (2, 0));
    }

    #[test]
    fn clwb_without_sfence_guarantees_nothing() {
        let j = Journal::new();
        j.record_store(3, 0, &[1], DOMAIN_SHARED, zero_line, || {});
        j.clwb(3, || {
            let mut l = zero_line();
            l[0] = 1;
            l
        });
        // No sfence: a crash may still lose the store.
        let mut byte0 = 0xff;
        j.crash_with(|_, _| 0, |_, buf| byte0 = buf[0]);
        assert_eq!(byte0, 0);
    }

    #[test]
    fn clwb_sfence_promotes_to_durable() {
        let j = Journal::new();
        j.record_store(3, 0, &[1], DOMAIN_SHARED, zero_line, || {});
        j.clwb(3, || {
            let mut l = zero_line();
            l[0] = 1;
            l
        });
        j.sfence();
        // Entry fully durable -> removed from journal entirely.
        assert_eq!(j.unpersisted_lines(), 0);
        let mut crashed_lines = 0;
        j.crash_with(|_, _| 0, |_, _| crashed_lines += 1);
        assert_eq!(crashed_lines, 0);
    }

    #[test]
    fn stores_after_clwb_remain_at_risk() {
        let j = Journal::new();
        j.record_store(3, 0, &[1], DOMAIN_SHARED, zero_line, || {});
        j.clwb(3, || {
            let mut l = zero_line();
            l[0] = 1;
            l
        });
        j.record_store(3, 1, &[2], DOMAIN_SHARED, zero_line, || {});
        j.sfence();
        assert_eq!(j.unpersisted_lines(), 1);
        let mut bytes = (0xff, 0xff);
        j.crash_with(|_, _| 0, |_, buf| bytes = (buf[0], buf[1]));
        // Pre-clwb store durable, post-clwb store lost.
        assert_eq!(bytes, (1, 0));
    }

    #[test]
    fn flush_all_makes_everything_durable() {
        let j = Journal::new();
        for line in 0..10 {
            j.record_store(line, 0, &[line as u8 + 1], DOMAIN_SHARED, zero_line, || {});
        }
        assert_eq!(j.unpersisted_lines(), 10);
        j.flush_all();
        assert_eq!(j.unpersisted_lines(), 0);
    }

    #[test]
    fn flush_domain_retires_only_that_domain_and_shared() {
        let j = Journal::new();
        j.record_store(1, 0, &[1], 3, zero_line, || {});
        j.record_store(2, 0, &[2], 5, zero_line, || {});
        j.record_store(3, 0, &[3], DOMAIN_SHARED, zero_line, || {});
        assert_eq!(unpersisted_lines_in(&j, 3), 2); // own line + shared
        j.flush_domain(3);
        assert_eq!(j.unpersisted_lines(), 1);
        // Only domain 5's line still reverts on crash.
        let mut seen = Vec::new();
        j.crash_with(|_, _| 0, |line, _| seen.push(line));
        assert_eq!(seen, vec![2]);
    }

    #[test]
    fn mixed_domain_line_becomes_shared() {
        let j = Journal::new();
        j.record_store(7, 0, &[1], 3, zero_line, || {});
        j.record_store(7, 8, &[2], 5, zero_line, || {});
        // Either domain's flush now covers the line.
        j.flush_domain(5);
        assert_eq!(j.unpersisted_lines(), 0);
    }

    #[test]
    fn foreign_domain_flush_does_not_steal_a_pending_clwb() {
        // Regression: flush_domain used to rebuild pending_lines, and a
        // scoped flush landing between another thread's clwb and sfence
        // stole the pending id — the sfence then promoted nothing and the
        // "durable" store could still revert at a crash.
        let j = Journal::new();
        j.record_store(4, 0, &[1], 0, zero_line, || {});
        j.clwb(4, || {
            let mut l = zero_line();
            l[0] = 1;
            l
        });
        j.flush_domain(1); // different domain: must not touch line 4
        j.sfence();
        assert_eq!(j.unpersisted_lines(), 0, "the clwb+sfence must promote");
        let mut crashed = 0;
        j.crash_with(|_, _| 0, |_, _| crashed += 1);
        assert_eq!(crashed, 0, "the fenced store must be durable");
    }

    #[test]
    fn flush_domain_drops_pending_clwb_of_flushed_lines() {
        let j = Journal::new();
        j.record_store(4, 0, &[1], 2, zero_line, || {});
        j.clwb(4, || {
            let mut l = zero_line();
            l[0] = 1;
            l
        });
        j.flush_domain(2);
        // The pending snapshot is gone with the entry; sfence is a no-op.
        j.sfence();
        assert_eq!(j.unpersisted_lines(), 0);
    }

    #[test]
    fn independent_lines_cut_independently() {
        let j = Journal::new();
        j.record_store(1, 0, &[1], DOMAIN_SHARED, zero_line, || {});
        j.record_store(2, 0, &[1], DOMAIN_SHARED, zero_line, || {});
        let mut results = HashMap::new();
        j.crash_with(
            |line, n| if line == 1 { n } else { 0 },
            |line, buf| {
                results.insert(line, buf[0]);
            },
        );
        assert_eq!(results[&1], 1);
        assert_eq!(results[&2], 0);
    }
}
