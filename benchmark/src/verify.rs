//! Correctness accounting. Every operation the benchmark issues is
//! attempted once and either passes its check or is counted as failed;
//! `fail_frac` and the process exit code both come from these counts.

use incll::{Session, Store};

use crate::gen::Keyspace;

/// Attempted and failed operations, with the first few failure messages.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Operations (and verification comparisons) attempted.
    pub attempted: u64,
    /// Those that failed or returned a wrong value.
    pub failed: u64,
    /// The first failures, for the report.
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts one attempt; a failed one keeps `what()` for the report.
    #[inline]
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts `n` attempts that passed.
    #[inline]
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    #[cold]
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(what);
        }
    }

    /// Folds another thread's counts in.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.messages.len());
        self.messages.extend(other.messages.into_iter().take(room));
    }

    /// Failed over attempted.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// `true` when something was attempted and nothing failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Full-store pass through `Store::iter`: the store must hold exactly
/// `expected_keys` keys, in strictly ascending order, each value carrying
/// its key's tag at `value_len` bytes.
pub fn verify_iter(
    store: &Store,
    sess: &Session,
    expected_keys: u64,
    value_len: usize,
    checks: &mut Checks,
) {
    let mut prev: Option<Vec<u8>> = None;
    let mut seen = 0u64;
    for (k, v) in store.iter(sess) {
        seen += 1;
        let ordered = prev.as_ref().is_none_or(|p| p < &k);
        checks.check(
            ordered && Keyspace::check_value(&k, &v, value_len).is_some(),
            || format!("iter: key {k:02x?} out of order or wrong value"),
        );
        prev = Some(k);
    }
    checks.check(seen == expected_keys, || {
        format!("iter: {seen} keys, expected {expected_keys}")
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use incll::Options;

    fn small_store(n: u64) -> (incll_pmem::PArena, Store, Keyspace) {
        let arena = crate::sys::arena(32 << 20, 2, false);
        let opts = Options::new()
            .threads(1)
            .shards(2)
            .log_bytes_per_thread(1 << 20);
        let (store, _) = Store::open(&arena, opts).unwrap();
        let ks = Keyspace::new(1);
        let sess = store.session().unwrap();
        let mut v = [0u8; 16];
        for i in 0..n {
            let k = ks.key(i);
            Keyspace::fill_value(&k, 0, &mut v);
            store.put(&sess, &k, &v).unwrap();
        }
        drop(sess);
        (arena, store, ks)
    }

    #[test]
    fn a_sound_store_passes() {
        let (_a, store, _) = small_store(500);
        let sess = store.session().unwrap();
        let mut c = Checks::default();
        verify_iter(&store, &sess, 500, 16, &mut c);
        assert!(c.correct(), "{c:?}");
        assert_eq!(c.attempted, 501);
    }

    #[test]
    fn a_corrupted_expectation_fails_the_run() {
        let (_a, store, ks) = small_store(500);
        let sess = store.session().unwrap();

        // Wrong key count.
        let mut c = Checks::default();
        verify_iter(&store, &sess, 499, 16, &mut c);
        assert_eq!(c.failed, 1);
        assert!(!c.correct());
        assert!(c.fail_frac() > 0.0);

        // A value whose tag belongs to another key.
        let mut v = [0u8; 16];
        Keyspace::fill_value(&ks.key(7), 0, &mut v);
        store.put(&sess, &ks.key(8), &v).unwrap();
        let mut c = Checks::default();
        verify_iter(&store, &sess, 500, 16, &mut c);
        assert_eq!(c.failed, 1, "{:?}", c.messages);

        // Wrong value length.
        let mut c = Checks::default();
        verify_iter(&store, &sess, 500, 8, &mut c);
        assert_eq!(c.failed, 500);
        assert_eq!(c.messages.len(), 8);
    }
}
