//! The group-commit stage: many small writes, one fence.
//!
//! Per-request durable commits pay one intent/commit-record protocol —
//! and its fences — *per put*. For small values that protocol dominates
//! the work. The [`GroupCommitter`] instead lets worker threads enqueue
//! writes and return immediately; a dedicated committer thread drains
//! the queue into one [`WriteBatch::commit_durable`] per group, then
//! runs every enqueued completion. There is no timer and nothing to
//! tune: the committer takes whatever is queued the moment it is free,
//! and whatever arrives while it commits is the next group — so a group
//! is as large as the load makes it, and a lone write waits for nothing.
//! (A commit's fences cost a few hundred nanoseconds; idling the
//! committer to share them costs more than it saves.) Requests from
//! *different connections* coalesce into the same group, so the fence
//! cost amortises across the whole server, not just one pipeline. The
//! queue is also the server's write-ordering spine: ops drain — and
//! commit — in submission order, and a [`GroupOp::Batch`] is an ordered
//! flush point that commits alone, which is why grouped mode can route
//! `BATCH` requests through here and keep one connection's writes in
//! request order.
//!
//! [`WriteBatch::commit_durable`]: incll::WriteBatch::commit_durable

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use incll::{Session, Store, MAX_BATCH_OPS};

use crate::protocol::BatchOp;

/// One write awaiting its group.
pub enum GroupOp {
    /// Insert or update `key`.
    Put {
        /// The key.
        key: Vec<u8>,
        /// The value.
        val: Vec<u8>,
    },
    /// Remove `key`.
    Del {
        /// The key.
        key: Vec<u8>,
    },
    /// An atomic multi-op batch riding the committer's queue. In group
    /// commit mode the server routes `BATCH` requests here instead of
    /// committing them inline on a worker, so one connection's
    /// `PUT`/`DEL`/`BATCH` stream reaches durability in request order.
    /// A batch never merges with neighbouring writes: it commits as its
    /// own [`WriteBatch`](incll::WriteBatch), preserving its
    /// all-or-nothing contract, and its completion receives the real
    /// batch id.
    Batch {
        /// The staged operations, applied atomically.
        ops: Vec<BatchOp>,
    },
}

/// Called exactly once when the write's group commits (or fails):
/// `Ok(batch_id)` after the group's commit record is durable.
pub type Completion = Box<dyn FnOnce(Result<u64, String>) + Send>;

struct PendingWrite {
    op: GroupOp,
    done: Completion,
}

struct State {
    pending: Vec<PendingWrite>,
    stop: bool,
}

struct Inner {
    state: Mutex<State>,
    cv: Condvar,
    /// Groups durably committed (fence-bearing commits).
    groups: AtomicU64,
    /// Writes that rode in those groups.
    ops: AtomicU64,
}

/// The committer: owns the queue and the thread that drains it.
///
/// Dropping the committer commits every still-pending write (no
/// enqueued ack is ever dropped) and joins the thread.
pub struct GroupCommitter {
    inner: Arc<Inner>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl GroupCommitter {
    /// Starts the committer thread. `sess` is the session the thread
    /// commits through — acquire it from the same [`Store`] before
    /// spawning workers so pool exhaustion surfaces at startup.
    ///
    /// # Errors
    ///
    /// The spawn failure, verbatim, when the OS refuses the committer
    /// thread — the caller decides whether to degrade or abort.
    pub fn start(store: Store, sess: Session) -> std::io::Result<Self> {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                pending: Vec::new(),
                stop: false,
            }),
            cv: Condvar::new(),
            groups: AtomicU64::new(0),
            ops: AtomicU64::new(0),
        });
        let thread = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("incll-group-commit".into())
                .spawn(move || committer_loop(&inner, &store, &sess))?
        };
        Ok(GroupCommitter {
            inner,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// Enqueues one write; `done` runs once its group is durable.
    pub fn submit(&self, op: GroupOp, done: Completion) {
        let mut st = self.inner.state.lock().unwrap();
        if st.stop {
            drop(st);
            done(Err("server shutting down".into()));
            return;
        }
        st.pending.push(PendingWrite { op, done });
        self.inner.cv.notify_one();
    }

    /// `(groups_committed, ops_grouped)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.inner.groups.load(Ordering::Relaxed),
            self.inner.ops.load(Ordering::Relaxed),
        )
    }

    /// Commits everything still queued, then stops the thread.
    /// Idempotent, and callable through a shared reference so a server
    /// can flush grouped acks mid-teardown (before joining the writer
    /// threads that deliver them).
    pub fn shutdown(&self) {
        {
            let mut st = self.inner.state.lock().unwrap();
            st.stop = true;
        }
        self.inner.cv.notify_all();
        if let Some(t) = self.thread.lock().unwrap().take() {
            let _ = t.join();
        }
    }
}

impl Drop for GroupCommitter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn committer_loop(inner: &Inner, store: &Store, sess: &Session) {
    loop {
        // Take everything queued; sleep only while there is nothing.
        let (writes, stopping) = {
            let mut st = inner.state.lock().unwrap();
            while st.pending.is_empty() && !st.stop {
                st = inner.cv.wait(st).unwrap();
            }
            (std::mem::take(&mut st.pending), st.stop)
        };

        // Commit outside the lock — submits keep flowing into the *next*
        // group while this one fences.
        if !writes.is_empty() {
            commit_group(inner, sess, writes);
        }
        if stopping {
            // One more sweep: submits may have raced the stop flag.
            let leftovers = std::mem::take(&mut inner.state.lock().unwrap().pending);
            if !leftovers.is_empty() {
                commit_group(inner, sess, leftovers);
            }
            let _ = store; // the committer's store handle pins the pool
            return;
        }
    }
}

/// Commits one group, chunking to the batch-size cap, and runs
/// every completion with its chunk's outcome. [`GroupOp::Batch`]
/// entries act as ordered flush points: the open chunk commits first,
/// then the batch commits alone (atomic, its own id), then chunking
/// resumes — queue order is durability order.
fn commit_group(inner: &Inner, sess: &Session, writes: Vec<PendingWrite>) {
    let mut writes = writes.into_iter().peekable();
    while writes.peek().is_some() {
        if matches!(writes.peek().map(|w| &w.op), Some(GroupOp::Batch { .. })) {
            let w = writes.next().unwrap();
            let GroupOp::Batch { ops } = w.op else {
                unreachable!("peeked a batch")
            };
            commit_standalone_batch(sess, ops, w.done);
            continue;
        }
        let mut batch = sess.batch();
        let mut chunk: Vec<PendingWrite> = Vec::new();
        while chunk.len() < MAX_BATCH_OPS {
            let Some(w) = writes.peek() else { break };
            let staged = match &w.op {
                GroupOp::Put { key, val } => batch.put(key, val),
                GroupOp::Del { key } => batch.delete(key),
                GroupOp::Batch { .. } => break, // flush point: close the chunk
            };
            match staged {
                Ok(()) => {
                    chunk.push(writes.next().unwrap());
                }
                Err(e) => {
                    // A single bad write (oversized value) must not
                    // poison its neighbours: fail it alone, keep going.
                    let w = writes.next().unwrap();
                    (w.done)(Err(e.to_string()));
                }
            }
        }
        if chunk.is_empty() {
            continue;
        }
        match batch.commit_durable() {
            Ok(id) => {
                inner.groups.fetch_add(1, Ordering::Relaxed);
                inner.ops.fetch_add(chunk.len() as u64, Ordering::Relaxed);
                for w in chunk {
                    (w.done)(Ok(id));
                }
            }
            Err(_) => {
                // A store-level failure (e.g. one shard's pool is
                // exhausted) aborted the whole chunk before anything
                // durable happened. Error-acking every rider would
                // poison writes that are individually fine, so retry
                // each as its own durable one-op batch: only the ops
                // that truly cannot commit error-ack, and the committer
                // stays alive for later groups.
                for w in chunk {
                    commit_single(inner, sess, w);
                }
            }
        }
    }
}

/// Per-op fallback after a failed chunk commit: the write commits (and
/// fences) alone, so its ack reflects *its* outcome, not a neighbour's.
fn commit_single(inner: &Inner, sess: &Session, w: PendingWrite) {
    let mut batch = sess.batch();
    let staged = match &w.op {
        GroupOp::Put { key, val } => batch.put(key, val),
        GroupOp::Del { key } => batch.delete(key),
        GroupOp::Batch { .. } => unreachable!("chunks never hold batches"),
    };
    match staged.and_then(|()| batch.commit_durable()) {
        Ok(id) => {
            inner.groups.fetch_add(1, Ordering::Relaxed);
            inner.ops.fetch_add(1, Ordering::Relaxed);
            (w.done)(Ok(id));
        }
        Err(e) => (w.done)(Err(e.to_string())),
    }
}

/// Commits one [`GroupOp::Batch`] as its own atomic [`WriteBatch`]
/// (all-or-nothing: a bad op fails the whole batch, matching the
/// inline `BATCH` path of the non-grouping commit modes). Not counted
/// in the grouping stats — those track coalesced small writes.
///
/// [`WriteBatch`]: incll::WriteBatch
fn commit_standalone_batch(sess: &Session, ops: Vec<BatchOp>, done: Completion) {
    let mut batch = sess.batch();
    let staged = ops.iter().try_for_each(|op| match op {
        BatchOp::Put { key, val } => batch.put(key, val),
        BatchOp::Del { key } => batch.delete(key),
    });
    match staged.and_then(|()| batch.commit_durable()) {
        Ok(id) => done(Ok(id)),
        Err(e) => done(Err(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incll::Options;
    use incll_pmem::PArena;
    use std::sync::mpsc;
    use std::time::Duration;

    fn store() -> (&'static PArena, Store) {
        let arena = Box::leak(Box::new(
            PArena::builder().capacity_bytes(64 << 20).build().unwrap(),
        ));
        let options = Options::new().threads(4).log_bytes_per_thread(4 << 20);
        let (store, _) = Store::open(arena, options).unwrap();
        (arena, store)
    }

    /// Parks the committer thread: submits one put of `key` whose
    /// completion (completions run on the committer) blocks until the
    /// returned sender is dropped, and returns once the committer is
    /// inside it. Everything submitted meanwhile queues, and is the next
    /// group.
    fn block_committer(committer: &GroupCommitter, key: &[u8]) -> mpsc::Sender<()> {
        let (parked_tx, parked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        committer.submit(
            GroupOp::Put {
                key: key.to_vec(),
                val: b"b".to_vec(),
            },
            Box::new(move |r| {
                parked_tx.send(r).unwrap();
                let _ = release_rx.recv();
            }),
        );
        parked_rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .unwrap();
        release_tx
    }

    #[test]
    fn what_queues_while_the_committer_is_busy_is_the_next_group() {
        // 100 writes: one group. 1100: one group over the batch cap, so
        // two chunks (each its own durable commit).
        for n in [100u64, 1100] {
            let chunks = n.div_ceil(MAX_BATCH_OPS as u64);
            let (_, store) = store();
            let sess = store.session().unwrap();
            let committer = GroupCommitter::start(store.clone(), store.session().unwrap()).unwrap();
            let release = block_committer(&committer, b"blocker");
            let (tx, rx) = mpsc::channel();
            for i in 0..n {
                let tx = tx.clone();
                committer.submit(
                    GroupOp::Put {
                        key: i.to_be_bytes().to_vec(),
                        val: vec![i as u8; 64],
                    },
                    Box::new(move |r| tx.send(r).unwrap()),
                );
            }
            assert_eq!(committer.stats(), (1, 1), "only the blocker committed");
            drop(release);
            for _ in 0..n {
                rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
            }
            assert_eq!(committer.stats(), (1 + chunks, 1 + n));
            for i in 0..n {
                assert_eq!(store.get(&sess, &i.to_be_bytes()), Some(vec![i as u8; 64]));
            }
        }
    }

    #[test]
    fn shutdown_flushes_pending_writes_instead_of_dropping_them() {
        let (_, store) = store();
        let sess = store.session().unwrap();
        let committer = GroupCommitter::start(store.clone(), store.session().unwrap()).unwrap();
        let release = block_committer(&committer, b"blocker");
        let (tx, rx) = mpsc::channel();
        for i in 0..5u64 {
            let tx = tx.clone();
            committer.submit(
                GroupOp::Put {
                    key: i.to_be_bytes().to_vec(),
                    val: b"flushed".to_vec(),
                },
                Box::new(move |r| tx.send(r).unwrap()),
            );
        }
        // The five are queued behind the parked committer; let it go
        // only once shutdown has raised the stop flag.
        std::thread::scope(|s| {
            s.spawn(|| committer.shutdown());
            while !committer.inner.state.lock().unwrap().stop {
                std::thread::yield_now();
            }
            drop(release);
        });
        for _ in 0..5 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
        }
        for i in 0..5u64 {
            assert_eq!(
                store.get(&sess, &i.to_be_bytes()),
                Some(b"flushed".to_vec())
            );
        }
    }

    #[test]
    fn queue_order_is_durability_order_across_puts_dels_and_batches() {
        let (_, store) = store();
        let sess = store.session().unwrap();
        let committer = GroupCommitter::start(store.clone(), store.session().unwrap()).unwrap();
        let (tx, rx) = mpsc::channel();
        let k = b"contended".to_vec();
        // put v1, BATCH{put v2}, del, put v3 — all on one key, enqueued
        // back to back. Wherever the group boundaries fall, the final
        // state must be the *last* submitted op's.
        let seqs: Vec<GroupOp> = vec![
            GroupOp::Put {
                key: k.clone(),
                val: b"v1".to_vec(),
            },
            GroupOp::Batch {
                ops: vec![BatchOp::Put {
                    key: k.clone(),
                    val: b"v2".to_vec(),
                }],
            },
            GroupOp::Del { key: k.clone() },
            GroupOp::Put {
                key: k.clone(),
                val: b"v3".to_vec(),
            },
        ];
        for (i, op) in seqs.into_iter().enumerate() {
            let tx = tx.clone();
            committer.submit(op, Box::new(move |r| tx.send((i, r)).unwrap()));
        }
        for _ in 0..4 {
            let (i, r) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            let id = r.unwrap_or_else(|e| panic!("op {i} failed: {e}"));
            if i == 1 {
                assert!(id >= 1, "a standalone batch reports a real batch id");
            }
        }
        assert_eq!(store.get(&sess, &k), Some(b"v3".to_vec()));
    }

    #[test]
    fn an_oversized_value_fails_alone_without_poisoning_the_group() {
        let (_, store) = store();
        let sess = store.session().unwrap();
        let committer = GroupCommitter::start(store.clone(), store.session().unwrap()).unwrap();
        let (tx, rx) = mpsc::channel();
        let t1 = tx.clone();
        committer.submit(
            GroupOp::Put {
                key: b"good-1".to_vec(),
                val: b"x".to_vec(),
            },
            Box::new(move |r| t1.send(("g1", r)).unwrap()),
        );
        let t2 = tx.clone();
        committer.submit(
            GroupOp::Put {
                key: b"bad".to_vec(),
                val: vec![0u8; incll::MAX_VALUE_BYTES + 1],
            },
            Box::new(move |r| t2.send(("bad", r)).unwrap()),
        );
        committer.submit(
            GroupOp::Put {
                key: b"good-2".to_vec(),
                val: b"y".to_vec(),
            },
            Box::new(move |r| tx.send(("g2", r)).unwrap()),
        );
        let mut outcomes = std::collections::BTreeMap::new();
        for _ in 0..3 {
            let (who, r) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            outcomes.insert(who, r.is_ok());
        }
        assert!(outcomes["g1"]);
        assert!(!outcomes["bad"]);
        assert!(outcomes["g2"]);
        assert_eq!(store.get(&sess, b"good-2"), Some(b"y".to_vec()));
        assert_eq!(store.get(&sess, b"bad"), None);
    }

    #[test]
    fn a_full_shard_error_acks_only_the_affected_writes() {
        // A store-level OutOfMemory inside a group (one shard's
        // extent pool exhausted) must not poison the whole group or kill
        // the committer: riders on healthy shards still commit and ack
        // `Ok`, only the writes that truly cannot commit ack `Err`, and
        // later groups keep working.
        let arena = Box::leak(Box::new(
            PArena::builder().capacity_bytes(16 << 20).build().unwrap(),
        ));
        let options = Options::new()
            .threads(4)
            .log_bytes_per_thread(1 << 20)
            .shards(2);
        let (store, _) = Store::open(arena, options).unwrap();
        let sess = store.session().unwrap();
        let key_on = |shard: usize, tag: u64| -> Vec<u8> {
            (0u64..)
                .map(|i| format!("gk{tag}-{i}").into_bytes())
                .find(|k| store.shard_of(k) == shard)
                .unwrap()
        };

        // Exhaust shard 0 by overwriting a fixed working set (updates
        // only, so exhaustion is always a typed value-buffer error).
        let hot: Vec<Vec<u8>> = (0..16).map(|t| key_on(0, t)).collect();
        for k in &hot {
            store.put(&sess, k, b"seed").unwrap();
        }
        store.checkpoint();
        let big = vec![0x5au8; 3000];
        let mut i = 0usize;
        while store.put(&sess, &hot[i % hot.len()], &big).is_ok() {
            i += 1;
        }

        let committer = GroupCommitter::start(store.clone(), store.session().unwrap()).unwrap();
        // One group: a healthy-shard put, a doomed full-shard put, and a
        // delete on the full shard (no allocation — fine).
        let release = block_committer(&committer, &key_on(1, 899));
        let healthy = key_on(1, 900);
        let (tx, rx) = mpsc::channel();
        let t1 = tx.clone();
        committer.submit(
            GroupOp::Put {
                key: healthy.clone(),
                val: b"survives".to_vec(),
            },
            Box::new(move |r| t1.send(("healthy", r)).unwrap()),
        );
        let t2 = tx.clone();
        committer.submit(
            GroupOp::Put {
                key: hot[0].clone(),
                val: big.clone(),
            },
            Box::new(move |r| t2.send(("doomed", r)).unwrap()),
        );
        committer.submit(
            GroupOp::Del {
                key: hot[1].clone(),
            },
            Box::new(move |r| tx.send(("del", r)).unwrap()),
        );
        drop(release);
        let mut outcomes = std::collections::BTreeMap::new();
        for _ in 0..3 {
            let (who, r) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            outcomes.insert(who, r.is_ok());
        }
        assert!(outcomes["healthy"], "healthy-shard write must commit");
        assert!(!outcomes["doomed"], "full-shard write must error-ack");
        assert!(outcomes["del"], "allocation-free op must commit");
        assert_eq!(
            store.get(&sess, &healthy),
            Some(b"survives".to_vec()),
            "the healthy rider's bytes must be applied"
        );
        assert_eq!(store.get(&sess, &hot[1]), None, "delete must apply");

        // The committer survived: a later group still commits.
        let (tx2, rx2) = mpsc::channel();
        committer.submit(
            GroupOp::Put {
                key: key_on(1, 901),
                val: b"later".to_vec(),
            },
            Box::new(move |r| tx2.send(r).unwrap()),
        );
        rx2.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
    }
}
