//! Execute a deterministic guest once per process; replay what it did.
//!
//! Every pod of an experiment runs the same guest on the same inputs to
//! the same result, so the *host* need execute each distinct guest only
//! once. What the run is *charged* in the simulation is not this module's
//! business: callers charge every start from the outcome, whether it was
//! just computed or recorded earlier (the artifact cache makes the same
//! split one stage earlier, for decode and validation).
//!
//! A record is keyed by **every input the guest can see** — `K`, compared
//! field by field against a borrowed view of the inputs, so that a hit
//! clones nothing — and an outcome that depended on anything outside the
//! key is recorded as *unreplayable*: a tombstone, so that later starts of
//! that guest execute without deciding again.
//!
//! One entry per distinct guest the process has started: a handful, found
//! by a linear search under a read lock. Workers racing on a first sight
//! both execute; the outcomes are equal by determinism and the first
//! insert wins.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, PoisonError, RwLock};

/// How the starts a [`Replay`] has answered split.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Starts that ran the guest for real: each first sight, and every
    /// start of an unreplayable guest.
    pub executed: u64,
    /// Starts answered from the record.
    pub replayed: u64,
    /// Of `executed`, the runs whose outcome depended on more than the key.
    pub unreplayable: u64,
}

/// The outcomes of the distinct guests (owned key `K`) started so far.
pub struct Replay<K, O> {
    /// `None` is the tombstone of an unreplayable guest.
    entries: RwLock<Vec<(K, Option<Arc<O>>)>>,
    executed: AtomicU64,
    replayed: AtomicU64,
    unreplayable: AtomicU64,
}

impl<K, O> Default for Replay<K, O> {
    fn default() -> Self {
        Replay::new()
    }
}

impl<K, O> Replay<K, O> {
    pub const fn new() -> Self {
        Replay {
            entries: RwLock::new(Vec::new()),
            executed: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            unreplayable: AtomicU64::new(0),
        }
    }

    /// What the guest with `inputs` does: the recorded outcome when there
    /// is one, else `execute`'s, which also says whether it may be recorded
    /// — `false` when the run depended on anything `inputs` does not hold.
    /// An `Err` (the guest could not be started at all) is never recorded.
    pub fn outcome<Q, E>(
        &self,
        inputs: &Q,
        execute: impl FnOnce() -> Result<(O, bool), E>,
    ) -> Result<Arc<O>, E>
    where
        Q: PartialEq<K>,
        K: for<'q> From<&'q Q>,
    {
        let known = {
            let entries = self.entries.read().unwrap_or_else(PoisonError::into_inner);
            entries.iter().find(|(k, _)| inputs == k).map(|(_, recorded)| recorded.clone())
        };
        if let Some(Some(recorded)) = known {
            self.replayed.fetch_add(1, Relaxed);
            return Ok(recorded);
        }
        self.executed.fetch_add(1, Relaxed);
        let (outcome, replayable) = execute()?;
        let outcome = Arc::new(outcome);
        if !replayable {
            self.unreplayable.fetch_add(1, Relaxed);
        }
        if known.is_none() {
            let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
            if !entries.iter().any(|(k, _)| inputs == k) {
                entries.push((K::from(inputs), replayable.then(|| Arc::clone(&outcome))));
            }
        }
        Ok(outcome)
    }

    /// Whether the guest with `inputs` is on record, and as what:
    /// `Some(true)` replayable, `Some(false)` the tombstone.
    pub fn recorded<Q: PartialEq<K>>(&self, inputs: &Q) -> Option<bool> {
        let entries = self.entries.read().unwrap_or_else(PoisonError::into_inner);
        entries.iter().find(|(k, _)| inputs == k).map(|(_, recorded)| recorded.is_some())
    }

    /// Distinct guests on record, tombstones included.
    pub fn len(&self) -> usize {
        self.entries.read().unwrap_or_else(PoisonError::into_inner).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> ReplayStats {
        ReplayStats {
            executed: self.executed.load(Relaxed),
            replayed: self.replayed.load(Relaxed),
            unreplayable: self.unreplayable.load(Relaxed),
        }
    }

    /// Forget every guest and zero the counters: the next start of each
    /// executes again.
    pub fn clear(&self) {
        self.entries.write().unwrap_or_else(PoisonError::into_inner).clear();
        self.executed.store(0, Relaxed);
        self.replayed.store(0, Relaxed);
        self.unreplayable.store(0, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Owned key and its borrowed view, as the two users shape theirs.
    #[derive(Debug, PartialEq)]
    struct Key(String, u64);
    struct Inputs<'a>(&'a str, u64);

    impl PartialEq<Key> for Inputs<'_> {
        fn eq(&self, k: &Key) -> bool {
            self.1 == k.1 && self.0 == k.0
        }
    }

    impl From<&Inputs<'_>> for Key {
        fn from(i: &Inputs<'_>) -> Key {
            Key(i.0.to_string(), i.1)
        }
    }

    type Never = std::convert::Infallible;

    #[test]
    fn a_guest_is_executed_once_and_replayed_after() {
        let replay: Replay<Key, u64> = Replay::new();
        let mut runs = 0;
        for _ in 0..5 {
            let out = replay.outcome(&Inputs("a", 1), || {
                runs += 1;
                Ok::<_, Never>((42, true))
            });
            assert_eq!(*out.unwrap(), 42);
        }
        assert_eq!(runs, 1);
        assert_eq!(replay.stats(), ReplayStats { executed: 1, replayed: 4, unreplayable: 0 });
        assert_eq!(replay.recorded(&Inputs("a", 1)), Some(true));
    }

    #[test]
    fn any_field_of_the_key_separates_entries() {
        let replay: Replay<Key, u64> = Replay::new();
        let run = |name, fuel, answer| {
            *replay.outcome(&Inputs(name, fuel), || Ok::<_, Never>((answer, true))).unwrap()
        };
        assert_eq!(run("a", 1, 10), 10);
        assert_eq!(run("a", 2, 20), 20);
        assert_eq!(run("b", 1, 30), 30);
        assert_eq!(run("a", 1, 99), 10, "recorded, not re-run");
        assert_eq!(replay.len(), 3);
    }

    #[test]
    fn an_unreplayable_guest_is_a_tombstone_and_runs_every_time() {
        let replay: Replay<Key, u64> = Replay::new();
        for answer in 0..4 {
            let out = replay.outcome(&Inputs("clock", 0), || Ok::<_, Never>((answer, false)));
            assert_eq!(*out.unwrap(), answer, "each start sees its own run");
        }
        assert_eq!(replay.stats(), ReplayStats { executed: 4, replayed: 0, unreplayable: 4 });
        assert_eq!(replay.recorded(&Inputs("clock", 0)), Some(false));
        assert_eq!(replay.len(), 1);
    }

    #[test]
    fn a_start_that_fails_outright_is_not_recorded() {
        let replay: Replay<Key, u64> = Replay::new();
        assert_eq!(
            replay.outcome(&Inputs("x", 0), || Err("no such import")),
            Err("no such import")
        );
        assert_eq!(replay.recorded(&Inputs("x", 0)), None);
        assert_eq!(*replay.outcome(&Inputs("x", 0), || Ok::<_, Never>((1, true))).unwrap(), 1);
        assert_eq!(replay.stats().executed, 2);
    }

    #[test]
    fn clear_forgets_entries_and_counters() {
        let replay: Replay<Key, u64> = Replay::new();
        replay.outcome(&Inputs("a", 1), || Ok::<_, Never>((1, true))).unwrap();
        replay.clear();
        assert!(replay.is_empty());
        assert_eq!(replay.stats(), ReplayStats::default());
        assert_eq!(*replay.outcome(&Inputs("a", 1), || Ok::<_, Never>((2, true))).unwrap(), 2);
    }

    #[test]
    fn racing_first_sights_leave_one_entry() {
        let replay: Replay<Key, u64> = Replay::new();
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    barrier.wait();
                    for _ in 0..100 {
                        let out = replay.outcome(&Inputs("a", 1), || Ok::<_, Never>((7, true)));
                        assert_eq!(*out.unwrap(), 7);
                    }
                });
            }
        });
        assert_eq!(replay.len(), 1);
        let stats = replay.stats();
        assert_eq!(stats.executed + stats.replayed, 400);
        assert!((1..=4).contains(&stats.executed), "{stats:?}");
    }
}
