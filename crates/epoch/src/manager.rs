use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use incll_pmem::{superblock, FlushDomainScope, PArena};

/// A callback run at every epoch boundary with the new epoch number.
pub type AdvanceHook = Box<dyn Fn(u64) + Send + Sync>;

/// What an [`EpochManager`] does at each epoch boundary: checkpoint
/// ([`EpochOptions::durable`]) or only quiesce
/// ([`EpochOptions::transient`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochOptions {
    /// Flush at each advance and persist the epoch counters in the
    /// superblock (`clwb` + `sfence`). A single-domain manager flushes the
    /// whole cache ([`PArena::global_flush`]); a multi-domain manager
    /// issues a scoped flush ([`PArena::flush_domain`]) covering only the
    /// advancing domain's dirty lines (plus shared lines).
    durable: bool,
}

impl EpochOptions {
    /// Options for the durable (INCLL) system: flush + durable counter.
    pub fn durable() -> Self {
        EpochOptions { durable: true }
    }

    /// Options for the transient MT+ baseline: barrier only, no
    /// persistence.
    pub fn transient() -> Self {
        EpochOptions { durable: false }
    }
}

/// Per-registered-thread state: one pin word per domain.
///
/// `states[d]` is 0 when the thread is quiescent in domain `d` (no live
/// guard) and 1 when it is inside a guard; `dead` marks deregistered
/// threads the advancer must skip.
struct SlotRow {
    states: Vec<AtomicU64>,
    dead: AtomicBool,
}

/// The per-domain half of the manager: its own epoch counter, quiescence
/// flag, parking, advance serialisation, and hook lists.
struct DomainState {
    /// Source of truth for the running system; mirrors the durable counter.
    epoch: AtomicU64,
    /// First epoch of this execution (recovery sets it past failed epochs).
    exec: AtomicU64,
    /// Set while an advance is quiescing/working; gates `pin`.
    advancing: AtomicBool,
    /// Serialises this domain's advancers.
    advance_lock: Mutex<()>,
    /// Parking for threads that hit this domain's barrier mid-advance.
    park_lock: Mutex<()>,
    park_cv: Condvar,
    /// Hooks run after quiescence but *before* the checkpoint flush, with
    /// the finishing epoch (compaction sweeps live here: their writes are
    /// covered by the very flush that follows).
    pre_flush_hooks: Mutex<Vec<AdvanceHook>>,
    /// Hooks run after the durable epoch bump, with the new epoch.
    hooks: Mutex<Vec<AdvanceHook>>,
    /// Advances this domain completed.
    advances_fired: AtomicU64,
}

struct Shared {
    arena: PArena,
    domains: Vec<DomainState>,
    slots: Mutex<Vec<Arc<SlotRow>>>,
    options: EpochOptions,
}

/// The epoch authority (see crate docs): an array of independent epoch
/// **domains**, one per keyspace shard.
///
/// A single-domain manager (the default, [`EpochManager::new`]) behaves
/// exactly like the paper's global epoch: one counter, one barrier, a
/// whole-cache flush per advance. [`EpochManager::with_domains`] gives
/// every shard its own counter, quiescence set and advance path, so an
/// advance only stalls threads pinned in *that* domain and flushes only
/// its lines.
///
/// Cloneable handle; all clones share state.
#[derive(Clone)]
pub struct EpochManager {
    shared: Arc<Shared>,
}

impl EpochManager {
    /// Creates a single-domain manager over `arena` (the paper's global
    /// epoch).
    ///
    /// With [`EpochOptions::durable`] the starting epoch is read from the
    /// superblock (which must be formatted); otherwise it starts at 1.
    pub fn new(arena: PArena, options: EpochOptions) -> Self {
        Self::with_domains(arena, options, 1)
    }

    /// Creates a manager with `domains` independent epoch domains.
    ///
    /// Domain `d`'s durable counters live in shard `d`'s superblock cell,
    /// so each domain restarts from its own boundary after a crash.
    ///
    /// # Panics
    ///
    /// Panics if `domains` is 0 or exceeds
    /// [`incll_pmem::superblock::MAX_SHARDS`].
    pub fn with_domains(arena: PArena, options: EpochOptions, domains: usize) -> Self {
        assert!(
            (1..=superblock::MAX_SHARDS).contains(&domains),
            "domain count {domains} out of range"
        );
        let states = (0..domains)
            .map(|d| {
                let (start, exec) = if options.durable {
                    (
                        arena.pread_u64(superblock::domain_cur_epoch_off(d)),
                        arena.pread_u64(superblock::domain_exec_epoch_off(d)),
                    )
                } else {
                    (1, 1)
                };
                DomainState {
                    epoch: AtomicU64::new(start),
                    exec: AtomicU64::new(exec),
                    advancing: AtomicBool::new(false),
                    advance_lock: Mutex::new(()),
                    park_lock: Mutex::new(()),
                    park_cv: Condvar::new(),
                    pre_flush_hooks: Mutex::new(Vec::new()),
                    hooks: Mutex::new(Vec::new()),
                    advances_fired: AtomicU64::new(0),
                }
            })
            .collect();
        EpochManager {
            shared: Arc::new(Shared {
                arena,
                domains: states,
                slots: Mutex::new(Vec::new()),
                options,
            }),
        }
    }

    /// Number of epoch domains.
    pub fn domains(&self) -> usize {
        self.shared.domains.len()
    }

    /// The current epoch of domain 0 (the whole manager's epoch when
    /// single-domain).
    #[inline]
    pub fn current_epoch(&self) -> u64 {
        self.current_epoch_of(0)
    }

    /// The current epoch of domain `d`.
    #[inline]
    pub fn current_epoch_of(&self, d: usize) -> u64 {
        self.shared.domains[d].epoch.load(Ordering::Acquire)
    }

    /// The first epoch of domain `d`'s current execution (`currExecEpoch`
    /// in Listing 4). Nodes stamped with an older epoch need lazy
    /// recovery.
    #[inline]
    pub fn exec_epoch_of(&self, d: usize) -> u64 {
        self.shared.domains[d].exec.load(Ordering::Acquire)
    }

    /// Updates domain `d`'s epoch state after recovery: its new execution
    /// starts at `epoch`, durably recorded.
    ///
    /// `&self`-concurrent across **distinct** domains: each call writes
    /// only its own domain's counters and superblock cells (on separate
    /// cache lines), so parallel recovery restarts one domain per worker.
    pub fn restart_domain_at(&self, d: usize, epoch: u64) {
        let sh = &self.shared;
        let dom = &sh.domains[d];
        dom.epoch.store(epoch, Ordering::Release);
        dom.exec.store(epoch, Ordering::Release);
        if sh.options.durable {
            sh.arena
                .pwrite_u64(superblock::domain_cur_epoch_off(d), epoch);
            sh.arena
                .pwrite_u64(superblock::domain_exec_epoch_off(d), epoch);
            sh.arena.clwb(superblock::domain_cur_epoch_off(d));
            sh.arena.clwb(superblock::domain_exec_epoch_off(d));
            sh.arena.sfence();
        }
    }

    /// Registers the calling thread, returning its pinning handle (valid
    /// for every domain). Rows of dropped handles are pruned first, so
    /// the list holds no more rows than live handles plus those dropped
    /// since the last registration or advance.
    pub fn register(&self) -> ThreadHandle {
        let n = self.domains();
        let row = Arc::new(SlotRow {
            states: (0..n).map(|_| AtomicU64::new(0)).collect(),
            dead: AtomicBool::new(false),
        });
        let mut slots = self.shared.slots.lock();
        slots.retain(|s| !s.dead.load(Ordering::Acquire));
        slots.push(row.clone());
        drop(slots);
        ThreadHandle {
            mgr: self.clone(),
            row,
            depth: (0..n).map(|_| std::cell::Cell::new(0)).collect(),
        }
    }

    /// Adds a hook run at every **domain-0** epoch boundary, after the
    /// flush and the durable epoch bump, while that domain's threads are
    /// quiesced. The argument is the *new* epoch number. (Per-domain
    /// registration: [`EpochManager::add_advance_hook_on`].)
    pub fn add_advance_hook(&self, hook: AdvanceHook) {
        self.add_advance_hook_on(0, hook);
    }

    /// Adds a boundary hook on domain `d`.
    pub fn add_advance_hook_on(&self, d: usize, hook: AdvanceHook) {
        self.shared.domains[d].hooks.lock().push(hook);
    }

    /// Adds a hook on domain `d` run at each of its advances *after*
    /// quiescence but *before* the checkpoint flush, with the finishing
    /// epoch number. Writes made here are covered by the flush that
    /// immediately follows — the slot used by failed-epoch-set compaction
    /// sweeps.
    pub fn add_pre_flush_hook_on(&self, d: usize, hook: AdvanceHook) {
        self.shared.domains[d].pre_flush_hooks.lock().push(hook);
    }

    /// Advances every domain in index order (domain 0 first), returning
    /// domain 0's new epoch — the all-domains checkpoint barrier.
    pub fn advance(&self) -> u64 {
        let first = self.advance_domain(0);
        for d in 1..self.domains() {
            self.advance_domain(d);
        }
        first
    }

    /// Advances domain `d` to its next epoch: quiesce the threads pinned
    /// in `d` → run `d`'s pre-flush hooks → flush (whole-cache when
    /// single-domain, scoped to `d` otherwise) → durably bump `d`'s epoch
    /// → run `d`'s boundary hooks → resume.
    ///
    /// Returns the domain's new epoch number. Threads pinned in *other*
    /// domains are never stalled.
    ///
    /// # Deadlocks
    ///
    /// Must not be called while the calling thread holds a [`Guard`] on
    /// `d`; the advance waits for all of `d`'s guards to drop.
    pub fn advance_domain(&self, d: usize) -> u64 {
        let sh = &self.shared;
        let dom = &sh.domains[d];
        let _adv = dom.advance_lock.lock();

        // Dekker-style handshake with `pin`: set the flag, then wait for
        // every live slot to be quiescent in this domain.
        dom.advancing.store(true, Ordering::SeqCst);
        let slots: Vec<Arc<SlotRow>> = {
            let mut guard = sh.slots.lock();
            guard.retain(|s| !s.dead.load(Ordering::Acquire));
            guard.clone()
        };
        for slot in &slots {
            let mut spins = 0u32;
            while slot.states[d].load(Ordering::SeqCst) != 0 {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }

        // --- Domain quiesced: the checkpoint moment. Everything the
        // hooks and the epoch bump write below belongs to this domain's
        // persistence scope.
        let _scope = FlushDomainScope::enter(d as u16);
        let cur = dom.epoch.load(Ordering::Relaxed);
        for hook in dom.pre_flush_hooks.lock().iter() {
            hook(cur);
        }
        if sh.options.durable {
            if sh.domains.len() == 1 {
                // Single domain: the paper's whole-cache flush.
                sh.arena.global_flush();
            } else {
                // Scoped: only lines dirtied under this domain (+ shared).
                sh.arena.flush_domain(d as u16);
            }
        }
        let new_epoch = cur + 1;
        if sh.options.durable {
            // The epoch only "completes" once the successor number is
            // durable; a crash before this point rolls this domain back to
            // its previous boundary (conservative but consistent).
            sh.arena
                .pwrite_u64(superblock::domain_cur_epoch_off(d), new_epoch);
            sh.arena.clwb(superblock::domain_cur_epoch_off(d));
            sh.arena.sfence();
        }
        dom.epoch.store(new_epoch, Ordering::Release);
        for hook in dom.hooks.lock().iter() {
            hook(new_epoch);
        }
        dom.advances_fired.fetch_add(1, Ordering::Relaxed);

        // Resume this domain's world.
        dom.advancing.store(false, Ordering::SeqCst);
        let _pl = dom.park_lock.lock();
        dom.park_cv.notify_all();
        new_epoch
    }

    /// Advances domain `d` completed: driver ticks, explicit calls and
    /// the boundaries its callers forced.
    pub fn advances_fired(&self, d: usize) -> u64 {
        self.shared.domains[d]
            .advances_fired
            .load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for EpochManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochManager")
            .field("domains", &self.domains())
            .field("epoch", &self.current_epoch())
            .field("exec_epoch", &self.exec_epoch_of(0))
            .field("options", &self.shared.options)
            .finish()
    }
}

/// A registered thread's pinning handle. Not `Sync`: one per thread.
pub struct ThreadHandle {
    mgr: EpochManager,
    row: Arc<SlotRow>,
    /// Re-entrant pin depth per domain (inner pins are free).
    depth: Vec<std::cell::Cell<u32>>,
}

impl ThreadHandle {
    /// Pins domain 0's current epoch — the whole system's epoch on a
    /// single-domain manager. See [`ThreadHandle::pin_on`].
    #[inline]
    pub fn pin(&self) -> Guard<'_> {
        self.pin_on(0)
    }

    /// Pins domain `d`'s current epoch, blocking briefly if that domain's
    /// advance is in progress (the per-epoch barrier, scoped: only this
    /// domain's advances ever stall this pin). While the guard lives the
    /// domain cannot advance, so epoch-based reclamation cannot recycle
    /// anything the holder can still observe, and every write made under
    /// it belongs to the guard's epoch.
    ///
    /// The pin performs **no** arena or log-buffer write of any kind: one
    /// store to this thread's transient slot word plus one atomic epoch
    /// load. Reads and writes pin alike. Pins nest: an inner pin on a
    /// domain this thread already holds is free.
    #[inline]
    pub fn pin_on(&self, d: usize) -> Guard<'_> {
        let dom = &self.mgr.shared.domains[d];
        if self.depth[d].get() == 0 {
            loop {
                // Announce activity first, then re-check the flag: the
                // advancer uses the opposite order (SeqCst both sides).
                self.row.states[d].store(1, Ordering::SeqCst);
                if !dom.advancing.load(Ordering::SeqCst) {
                    break;
                }
                // Barrier hit: step back and park until the advance ends.
                self.row.states[d].store(0, Ordering::SeqCst);
                let mut pl = dom.park_lock.lock();
                if dom.advancing.load(Ordering::SeqCst) {
                    dom.park_cv.wait(&mut pl);
                }
            }
        }
        self.depth[d].set(self.depth[d].get() + 1);
        Guard {
            handle: self,
            domain: d,
            epoch: self.mgr.current_epoch_of(d),
        }
    }

    /// Pins every domain in `mask` (bit `d` = domain `d`), in ascending
    /// index order, returning the guards likewise ordered — the
    /// batch-scoped pin a cross-shard write batch holds while it stages,
    /// commits and applies. While the guards live, none of the covered
    /// domains can advance, so all of the batch's writes land in each
    /// guard's pinned epoch. Pins are not locks (two threads may pin the
    /// same domain concurrently); the ascending order just makes the
    /// acquisition deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `mask` names a domain this manager does not have.
    pub fn pin_mask(&self, mask: u64) -> Vec<Guard<'_>> {
        (0..64)
            .filter(|d| mask & (1u64 << d) != 0)
            .map(|d| {
                assert!(d < self.mgr.domains(), "domain {d} out of range");
                self.pin_on(d)
            })
            .collect()
    }

    /// The lowest domain this thread currently holds a [`Guard`] on, if
    /// any — the precondition [`EpochManager::advance_domain`] states,
    /// made checkable: a thread must not advance a domain it has pinned,
    /// it would wait for its own pin.
    pub fn first_pinned(&self) -> Option<usize> {
        self.depth.iter().position(|d| d.get() > 0)
    }
}

impl Drop for ThreadHandle {
    fn drop(&mut self) {
        self.row.dead.store(true, Ordering::Release);
        for s in &self.row.states {
            s.store(0, Ordering::SeqCst);
        }
    }
}

impl std::fmt::Debug for ThreadHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadHandle")
            .field("pinned", &self.depth.iter().any(|d| d.get() > 0))
            .finish()
    }
}

/// An epoch pin on one domain: while any guard is live that domain's epoch
/// cannot advance, so all reads/writes made under it belong to
/// [`Guard::epoch`] of [`Guard::domain`].
pub struct Guard<'h> {
    handle: &'h ThreadHandle,
    domain: usize,
    epoch: u64,
}

impl Guard<'_> {
    /// The epoch this guard pinned.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The domain this guard pinned.
    #[inline]
    pub fn domain(&self) -> usize {
        self.domain
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let cell = &self.handle.depth[self.domain];
        let d = cell.get() - 1;
        cell.set(d);
        if d == 0 {
            // Release suffices: the Dekker handshake needs SeqCst only on
            // the pin side (store the state, then load `advancing`). The
            // advancer's SeqCst load of this word acquires the release, so
            // every write made under the pin happens-before the checkpoint
            // that waited for it; a re-pin's SeqCst store follows this one
            // in the word's modification order, so the handshake still
            // orders it against the advancer's load.
            self.handle.row.states[self.domain].store(0, Ordering::Release);
        }
    }
}

impl std::fmt::Debug for Guard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Guard")
            .field("domain", &self.domain)
            .field("epoch", &self.epoch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn durable_mgr() -> EpochManager {
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        EpochManager::new(arena, EpochOptions::durable())
    }

    fn durable_mgr_domains(n: usize) -> EpochManager {
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        EpochManager::with_domains(arena, EpochOptions::durable(), n)
    }

    #[test]
    fn starts_at_formatted_epoch() {
        let mgr = durable_mgr();
        assert_eq!(mgr.current_epoch(), 1);
        assert_eq!(mgr.exec_epoch_of(0), 1);
    }

    #[test]
    fn advance_bumps_and_persists() {
        let mgr = durable_mgr();
        assert_eq!(mgr.advance(), 2);
        assert_eq!(mgr.current_epoch(), 2);
        assert_eq!(
            mgr.shared
                .arena
                .pread_u64(superblock::domain_cur_epoch_off(0)),
            2
        );
        assert_eq!(mgr.shared.arena.stats().global_flush(), 1);
    }

    #[test]
    fn transient_mode_skips_flush_and_persist() {
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        let mgr = EpochManager::new(arena, EpochOptions::transient());
        mgr.advance();
        assert_eq!(mgr.shared.arena.stats().global_flush(), 0);
        assert_eq!(mgr.current_epoch(), 2);
    }

    #[test]
    fn guard_epoch_is_stable() {
        let mgr = durable_mgr();
        let h = mgr.register();
        let g = h.pin();
        assert_eq!(g.epoch(), 1);
        drop(g);
        mgr.advance();
        assert_eq!(h.pin().epoch(), 2);
    }

    #[test]
    fn nested_pins_share_epoch() {
        let mgr = durable_mgr();
        let h = mgr.register();
        let g1 = h.pin();
        let g2 = h.pin();
        assert_eq!(g1.epoch(), g2.epoch());
        drop(g2);
        drop(g1);
        mgr.advance();
    }

    #[test]
    fn hooks_run_with_new_epoch() {
        let mgr = durable_mgr();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        mgr.add_advance_hook(Box::new(move |e| seen2.lock().push(e)));
        mgr.advance();
        mgr.advance();
        assert_eq!(*seen.lock(), vec![2, 3]);
    }

    #[test]
    fn pre_flush_hooks_see_the_finishing_epoch() {
        let mgr = durable_mgr();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        mgr.add_pre_flush_hook_on(0, Box::new(move |e| seen2.lock().push(e)));
        mgr.advance();
        mgr.advance();
        assert_eq!(*seen.lock(), vec![1, 2]);
    }

    #[test]
    fn pre_flush_hook_writes_are_covered_by_the_checkpoint() {
        let arena = PArena::builder()
            .capacity_bytes(1 << 20)
            .tracked(true)
            .build()
            .unwrap();
        superblock::format(&arena);
        arena.global_flush();
        let off = arena.carve(64, 64).unwrap();
        let mgr = EpochManager::with_domains(arena.clone(), EpochOptions::durable(), 2);
        let a2 = arena.clone();
        mgr.add_pre_flush_hook_on(1, Box::new(move |_| a2.pwrite_u64(off, 0xC0)));
        mgr.advance_domain(1);
        arena.crash_seeded(3);
        assert_eq!(
            arena.pread_u64(off),
            0xC0,
            "pre-flush writes must be durable after the advance"
        );
    }

    #[test]
    fn advance_waits_for_guards() {
        let mgr = durable_mgr();
        let mgr2 = mgr.clone();
        let h = mgr.register();
        let g = h.pin();
        let t = std::thread::spawn(move || mgr2.advance());
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(mgr.current_epoch(), 1, "advance must wait for the guard");
        drop(g);
        t.join().unwrap();
        assert_eq!(mgr.current_epoch(), 2);
    }

    #[test]
    fn pin_blocks_during_advance_then_proceeds() {
        let mgr = durable_mgr();
        // A slow hook keeps the advance window open.
        mgr.add_advance_hook(Box::new(|_| {
            std::thread::sleep(Duration::from_millis(50));
        }));
        let mgr2 = mgr.clone();
        let t = std::thread::spawn(move || {
            mgr2.advance();
        });
        std::thread::sleep(Duration::from_millis(10));
        let h = mgr.register();
        let g = h.pin(); // must park until the advance completes
        assert_eq!(g.epoch(), 2);
        drop(g);
        t.join().unwrap();
    }

    #[test]
    fn dropped_handles_do_not_block_advance() {
        let mgr = durable_mgr();
        let h = mgr.register();
        drop(h);
        mgr.advance();
        assert_eq!(mgr.current_epoch(), 2);
    }

    #[test]
    fn dropped_handles_do_not_pile_up_without_an_advance() {
        // Regression: dead rows used to be pruned only by an advance, so
        // a store that never checkpoints grew its row list by one per
        // session opened. Registration prunes them too.
        let mgr = durable_mgr_domains(4);
        let _held = mgr.register();
        for _ in 0..10_000 {
            let h = mgr.register();
            assert!(mgr.shared.slots.lock().len() <= 2, "live handles: 2");
            drop(h);
        }
        assert_eq!(mgr.current_epoch_of(0), 1, "no advance ran");
    }

    #[test]
    fn concurrent_workers_and_advancer() {
        let mgr = durable_mgr();
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let mgr = mgr.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    let h = mgr.register();
                    let mut last = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let g = h.pin();
                        // Epochs observed by a thread never go backwards.
                        assert!(g.epoch() >= last);
                        last = g.epoch();
                    }
                });
            }
            for _ in 0..50 {
                mgr.advance();
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(mgr.current_epoch(), 51);
    }

    #[test]
    fn restart_domain_at_updates_both_epochs() {
        let mgr = durable_mgr();
        mgr.restart_domain_at(0, 7);
        assert_eq!(mgr.current_epoch(), 7);
        assert_eq!(mgr.exec_epoch_of(0), 7);
        let arena = &mgr.shared.arena;
        assert_eq!(arena.pread_u64(superblock::domain_cur_epoch_off(0)), 7);
        assert_eq!(arena.pread_u64(superblock::domain_exec_epoch_off(0)), 7);
    }

    // ---------------- multi-domain ----------------

    #[test]
    fn domains_advance_independently() {
        let mgr = durable_mgr_domains(3);
        assert_eq!(mgr.domains(), 3);
        mgr.advance_domain(1);
        mgr.advance_domain(1);
        mgr.advance_domain(2);
        assert_eq!(mgr.current_epoch_of(0), 1);
        assert_eq!(mgr.current_epoch_of(1), 3);
        assert_eq!(mgr.current_epoch_of(2), 2);
        // Each domain's durable counter tracks its own epoch.
        let a = &mgr.shared.arena;
        assert_eq!(a.pread_u64(superblock::domain_cur_epoch_off(0)), 1);
        assert_eq!(a.pread_u64(superblock::domain_cur_epoch_off(1)), 3);
        assert_eq!(a.pread_u64(superblock::domain_cur_epoch_off(2)), 2);
    }

    #[test]
    fn concurrent_restart_of_distinct_domains_lands_each_exactly() {
        // The parallel-recovery shape: one worker restarts each domain.
        let mgr = durable_mgr_domains(8);
        std::thread::scope(|s| {
            for d in 0..8usize {
                let mgr = mgr.clone();
                s.spawn(move || mgr.restart_domain_at(d, 10 + d as u64));
            }
        });
        for d in 0..8usize {
            assert_eq!(mgr.current_epoch_of(d), 10 + d as u64);
            assert_eq!(mgr.exec_epoch_of(d), 10 + d as u64);
            let a = &mgr.shared.arena;
            assert_eq!(
                a.pread_u64(superblock::domain_cur_epoch_off(d)),
                10 + d as u64
            );
            assert_eq!(
                a.pread_u64(superblock::domain_exec_epoch_off(d)),
                10 + d as u64
            );
        }
    }

    #[test]
    fn multi_domain_reopen_reads_per_domain_epochs() {
        let arena = PArena::builder().capacity_bytes(1 << 20).build().unwrap();
        superblock::format(&arena);
        {
            let mgr = EpochManager::with_domains(arena.clone(), EpochOptions::durable(), 2);
            mgr.advance_domain(1);
            mgr.advance_domain(1);
        }
        let mgr2 = EpochManager::with_domains(arena, EpochOptions::durable(), 2);
        assert_eq!(mgr2.current_epoch_of(0), 1);
        assert_eq!(mgr2.current_epoch_of(1), 3);
    }

    #[test]
    fn multi_domain_advance_uses_scoped_flush() {
        let mgr = durable_mgr_domains(2);
        mgr.advance_domain(1);
        assert_eq!(mgr.shared.arena.stats().global_flush(), 0);
        assert_eq!(mgr.shared.arena.stats().scoped_flush(), 1);
        // The all-domains barrier issues one scoped flush per domain.
        mgr.advance();
        assert_eq!(mgr.shared.arena.stats().scoped_flush(), 3);
    }

    #[test]
    fn advance_of_one_domain_does_not_stall_other_domains_pins() {
        let mgr = durable_mgr_domains(2);
        // Keep domain 1's advance window open.
        mgr.add_advance_hook_on(
            1,
            Box::new(|_| std::thread::sleep(Duration::from_millis(80))),
        );
        let mgr2 = mgr.clone();
        let t = std::thread::spawn(move || mgr2.advance_domain(1));
        std::thread::sleep(Duration::from_millis(10));
        let h = mgr.register();
        let t0 = std::time::Instant::now();
        let g = h.pin_on(0); // must NOT park behind domain 1's advance
        assert!(
            t0.elapsed() < Duration::from_millis(40),
            "domain-0 pin stalled behind domain-1 advance"
        );
        drop(g);
        t.join().unwrap();
    }

    #[test]
    fn advance_waits_only_for_its_own_domains_guards() {
        let mgr = durable_mgr_domains(2);
        let h = mgr.register();
        let g0 = h.pin_on(0); // held across domain 1's advance
        let mgr2 = mgr.clone();
        let t = std::thread::spawn(move || mgr2.advance_domain(1));
        t.join().unwrap(); // completes even though domain 0 is pinned
        assert_eq!(mgr.current_epoch_of(1), 2);
        drop(g0);
    }

    #[test]
    fn domain_counters_track_advances_per_domain() {
        let mgr = durable_mgr_domains(2);
        assert_eq!(mgr.advances_fired(0), 0);
        mgr.advance_domain(0);
        assert_eq!(mgr.advances_fired(0), 1);
        // Domain 1 is untouched by domain 0's advance.
        assert_eq!(mgr.advances_fired(1), 0);
    }

    #[test]
    fn pin_mask_covers_exactly_the_mask_in_order() {
        let mgr = durable_mgr_domains(4);
        let h = mgr.register();
        let guards = h.pin_mask(0b1011); // domains 0, 1, 3
        assert_eq!(
            guards.iter().map(Guard::domain).collect::<Vec<_>>(),
            vec![0, 1, 3]
        );
        // The uncovered domain advances freely.
        let mgr2 = mgr.clone();
        let t = std::thread::spawn(move || mgr2.advance_domain(2));
        t.join().unwrap();
        assert_eq!(mgr.current_epoch_of(2), 2);

        // A covered domain's advance waits for the batch guards to drop.
        let mgr3 = mgr.clone();
        let t = std::thread::spawn(move || mgr3.advance_domain(3));
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(mgr.current_epoch_of(3), 1, "advance must wait for batch");
        drop(guards);
        t.join().unwrap();
        assert_eq!(mgr.current_epoch_of(3), 2);
    }

    #[test]
    fn batch_pins_nest_with_single_domain_pins() {
        // The apply phase re-enters per-domain pins under the batch's
        // outer guards; nesting must stay re-entrant and epoch-stable.
        let mgr = durable_mgr_domains(2);
        let h = mgr.register();
        let outer = h.pin_mask(0b11);
        let inner = h.pin_on(1);
        assert_eq!(inner.epoch(), outer[1].epoch());
        drop(inner);
        drop(outer);
        mgr.advance_domain(1);
        assert_eq!(mgr.current_epoch_of(1), 2);
    }

    #[test]
    fn per_domain_guards_nest_independently() {
        let mgr = durable_mgr_domains(2);
        let h = mgr.register();
        assert_eq!(h.first_pinned(), None);
        let g1 = h.pin_on(1);
        assert_eq!(h.first_pinned(), Some(1));
        let g0 = h.pin_on(0);
        assert_eq!(h.first_pinned(), Some(0));
        assert_eq!(g0.domain(), 0);
        assert_eq!(g1.domain(), 1);
        drop(g1);
        mgr.advance_domain(1); // domain 0 still pinned; must not matter
        drop(g0);
        assert_eq!(h.first_pinned(), None);
        mgr.advance_domain(0);
        assert_eq!(mgr.current_epoch_of(0), 2);
        assert_eq!(mgr.current_epoch_of(1), 2);
    }
}
