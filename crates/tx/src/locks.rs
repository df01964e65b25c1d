//! Lock table: S/X tuple locks, IS/IX/S/X table locks, wait-die avoidance.
//!
//! Blocking waits use a condvar per lock table (coarse but simple); the
//! wait-die rule guarantees no deadlock: a transaction may only ever block
//! on *younger* lock holders, so wait-for edges always point from older to
//! younger and cannot cycle.

use std::collections::HashMap;

use parking_lot::{Condvar, Mutex};

use instant_common::{Error, Result, TableId, TupleId, TxId};

/// Lockable resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    Table(TableId),
    Tuple(TableId, TupleId),
}

/// Lock mode. Intention modes apply to tables only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Intention shared — will take S tuple locks below.
    IntentionShared,
    /// Intention exclusive — will take X tuple locks below.
    IntentionExclusive,
    /// Shared.
    Shared,
    /// Exclusive.
    Exclusive,
}

impl LockMode {
    /// Classical multigranularity compatibility matrix.
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        match (self, other) {
            (IntentionShared, Exclusive) | (Exclusive, IntentionShared) => false,
            (IntentionShared, _) | (_, IntentionShared) => true,
            (IntentionExclusive, IntentionExclusive) => true,
            (IntentionExclusive, _) | (_, IntentionExclusive) => false,
            (Shared, Shared) => true,
            (Shared, Exclusive) | (Exclusive, Shared) | (Exclusive, Exclusive) => false,
        }
    }

    /// Does `self` already cover a request for `want` by the same tx?
    pub fn covers(self, want: LockMode) -> bool {
        use LockMode::*;
        match (self, want) {
            (Exclusive, _) => true,
            (Shared, Shared) | (Shared, IntentionShared) => true,
            (IntentionExclusive, IntentionExclusive) | (IntentionExclusive, IntentionShared) => {
                true
            }
            (IntentionShared, IntentionShared) => true,
            _ => self == want,
        }
    }
}

#[derive(Debug, Default)]
struct LockState {
    /// Current holders and their modes.
    holders: Vec<(TxId, LockMode)>,
}

impl LockState {
    fn conflicts_with(&self, tx: TxId, mode: LockMode) -> Vec<TxId> {
        self.holders
            .iter()
            .filter(|(h, m)| *h != tx && !m.compatible(mode))
            .map(|(h, _)| *h)
            .collect()
    }
}

#[derive(Debug, Default)]
struct Tables {
    locks: HashMap<Resource, LockState>,
    /// Resources held per transaction (for release-all at commit/abort).
    held: HashMap<TxId, Vec<Resource>>,
    /// Counters for experiment E10.
    conflicts: u64,
    aborts: u64,
    grants: u64,
}

impl Tables {
    /// Grant `mode` on `res` to `tx` when no other holder conflicts
    /// (re-entrant; an upgrade replaces `tx`'s entry). Returns the
    /// conflicting holders, empty when granted.
    fn try_grant(&mut self, tx: TxId, res: Resource, mode: LockMode) -> Vec<TxId> {
        let entry = self.locks.entry(res).or_default();
        // Already covered?
        if let Some((_, held)) = entry.holders.iter().find(|(h, _)| *h == tx) {
            if held.covers(mode) {
                return Vec::new();
            }
        }
        let blockers = entry.conflicts_with(tx, mode);
        if !blockers.is_empty() {
            self.conflicts += 1;
            return blockers;
        }
        if let Some(slot) = entry.holders.iter_mut().find(|(h, _)| *h == tx) {
            slot.1 = strongest(slot.1, mode);
        } else {
            entry.holders.push((tx, mode));
            self.held.entry(tx).or_default().push(res);
        }
        self.grants += 1;
        blockers
    }
}

/// The lock manager.
#[derive(Debug)]
pub struct LockManager {
    state: Mutex<Tables>,
    cv: Condvar,
}

impl Default for LockManager {
    fn default() -> LockManager {
        LockManager {
            state: Mutex::ranked(410, Tables::default()),
            cv: Condvar::new(),
        }
    }
}

impl LockManager {
    pub fn new() -> LockManager {
        LockManager::default()
    }

    /// Acquire `mode` on `res` for `tx`, blocking (wait) or aborting (die)
    /// per the wait-die rule. Re-entrant: covered requests return
    /// immediately; upgrades (S→X) are honored when no other holder blocks.
    pub fn lock(&self, tx: TxId, res: Resource, mode: LockMode) -> Result<()> {
        let mut state = self.state.lock();
        loop {
            let blockers = state.try_grant(tx, res, mode);
            if blockers.is_empty() {
                return Ok(());
            }
            // Wait-die: if any blocker is *older* (smaller id), we die.
            if blockers.iter().any(|b| b.0 < tx.0) {
                state.aborts += 1;
                return Err(Error::TxConflict(format!(
                    "{tx} dies waiting for older holder on {res:?}"
                )));
            }
            // All blockers younger: wait for them to finish.
            self.cv.wait(&mut state);
        }
    }

    /// [`LockManager::lock`] without the wait: `false` when another
    /// holder conflicts, whatever its age. For a caller that must not
    /// block where it stands.
    pub fn try_lock(&self, tx: TxId, res: Resource, mode: LockMode) -> bool {
        self.state.lock().try_grant(tx, res, mode).is_empty()
    }

    /// Block until no transaction holds `res`. The caller must hold no
    /// lock: then nothing waits on it, so the wait cannot deadlock.
    pub fn wait_until_free(&self, res: Resource) {
        let mut state = self.state.lock();
        while state.locks.contains_key(&res) {
            self.cv.wait(&mut state);
        }
    }

    /// Release every lock held by `tx` (strict 2PL: only at commit/abort).
    pub fn release_all(&self, tx: TxId) {
        let mut state = self.state.lock();
        if let Some(resources) = state.held.remove(&tx) {
            for res in resources {
                if let Some(entry) = state.locks.get_mut(&res) {
                    entry.holders.retain(|(h, _)| *h != tx);
                    if entry.holders.is_empty() {
                        state.locks.remove(&res);
                    }
                }
            }
        }
        self.cv.notify_all();
    }

    /// Locks currently held by `tx`.
    pub fn held_by(&self, tx: TxId) -> Vec<Resource> {
        self.state.lock().held.get(&tx).cloned().unwrap_or_default()
    }

    /// `(grants, conflicts, wait-die aborts)` counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        let s = self.state.lock();
        (s.grants, s.conflicts, s.aborts)
    }

    /// Number of resources with at least one holder.
    pub fn locked_resources(&self) -> usize {
        self.state.lock().locks.len()
    }
}

fn strongest(a: LockMode, b: LockMode) -> LockMode {
    use LockMode::*;
    let rank = |m: LockMode| match m {
        IntentionShared => 0,
        IntentionExclusive => 1,
        Shared => 2,
        Exclusive => 3,
    };
    if rank(a) >= rank(b) {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tuple(t: u16) -> Resource {
        Resource::Tuple(TableId(1), TupleId::new(1, t))
    }

    #[test]
    fn compatibility_matrix() {
        use LockMode::*;
        assert!(Shared.compatible(Shared));
        assert!(!Shared.compatible(Exclusive));
        assert!(!Exclusive.compatible(Exclusive));
        assert!(IntentionShared.compatible(IntentionExclusive));
        assert!(IntentionExclusive.compatible(IntentionExclusive));
        assert!(!IntentionExclusive.compatible(Shared));
        assert!(!IntentionShared.compatible(Exclusive));
        assert!(IntentionShared.compatible(Shared));
    }

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::new();
        lm.lock(TxId(1), tuple(0), LockMode::Shared).unwrap();
        lm.lock(TxId(2), tuple(0), LockMode::Shared).unwrap();
        assert_eq!(lm.locked_resources(), 1);
        lm.release_all(TxId(1));
        lm.release_all(TxId(2));
        assert_eq!(lm.locked_resources(), 0);
    }

    #[test]
    fn younger_dies_on_conflict() {
        let lm = LockManager::new();
        lm.lock(TxId(1), tuple(0), LockMode::Exclusive).unwrap();
        let err = lm.lock(TxId(2), tuple(0), LockMode::Exclusive).unwrap_err();
        assert!(err.is_retryable());
        let (_, conflicts, aborts) = lm.counters();
        assert_eq!(conflicts, 1);
        assert_eq!(aborts, 1);
    }

    #[test]
    fn older_waits_for_younger() {
        let lm = Arc::new(LockManager::new());
        lm.lock(TxId(5), tuple(0), LockMode::Exclusive).unwrap();
        let lm2 = lm.clone();
        let waiter = std::thread::spawn(move || {
            // Tx 3 is older than 5 → must wait, then succeed.
            lm2.lock(TxId(3), tuple(0), LockMode::Exclusive).unwrap();
            lm2.release_all(TxId(3));
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        lm.release_all(TxId(5));
        waiter.join().unwrap();
    }

    #[test]
    fn reentrant_and_covered_requests() {
        let lm = LockManager::new();
        lm.lock(TxId(1), tuple(0), LockMode::Exclusive).unwrap();
        // X covers S and repeated X.
        lm.lock(TxId(1), tuple(0), LockMode::Shared).unwrap();
        lm.lock(TxId(1), tuple(0), LockMode::Exclusive).unwrap();
        assert_eq!(lm.held_by(TxId(1)).len(), 1);
    }

    #[test]
    fn upgrade_shared_to_exclusive_when_sole_holder() {
        let lm = LockManager::new();
        lm.lock(TxId(1), tuple(0), LockMode::Shared).unwrap();
        lm.lock(TxId(1), tuple(0), LockMode::Exclusive).unwrap();
        // Now nobody else can share.
        assert!(lm.lock(TxId(2), tuple(0), LockMode::Shared).is_err());
    }

    #[test]
    fn upgrade_blocked_by_other_reader_dies_if_older_holder() {
        let lm = LockManager::new();
        lm.lock(TxId(1), tuple(0), LockMode::Shared).unwrap();
        lm.lock(TxId(2), tuple(0), LockMode::Shared).unwrap();
        // Tx2 (younger) wants X but Tx1 (older) holds S → die.
        assert!(lm.lock(TxId(2), tuple(0), LockMode::Exclusive).is_err());
    }

    #[test]
    fn intention_locks_at_table_level() {
        let lm = LockManager::new();
        let table = Resource::Table(TableId(1));
        lm.lock(TxId(1), table, LockMode::IntentionShared).unwrap();
        lm.lock(TxId(2), table, LockMode::IntentionExclusive)
            .unwrap();
        // A full-table X (e.g. DROP) conflicts with both → younger dies.
        assert!(lm.lock(TxId(3), table, LockMode::Exclusive).is_err());
        lm.release_all(TxId(1));
        lm.release_all(TxId(2));
        lm.lock(TxId(4), table, LockMode::Exclusive).unwrap();
    }

    #[test]
    fn release_all_clears_and_wakes() {
        let lm = Arc::new(LockManager::new());
        lm.lock(TxId(10), tuple(1), LockMode::Exclusive).unwrap();
        lm.lock(TxId(10), tuple(2), LockMode::Shared).unwrap();
        assert_eq!(lm.held_by(TxId(10)).len(), 2);
        lm.release_all(TxId(10));
        assert!(lm.held_by(TxId(10)).is_empty());
        assert_eq!(lm.locked_resources(), 0);
    }

    #[test]
    fn no_deadlock_under_contention() {
        // 8 threads × 50 txs hammering 4 tuples with X locks: wait-die must
        // guarantee global progress (aborted txs retry with a NEW, larger id
        // — retrying with the same id could livelock against a younger
        // holder the victim must not wait for).
        let lm = Arc::new(LockManager::new());
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let lm = lm.clone();
            let counter = counter.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50u64 {
                    loop {
                        let id =
                            TxId(1000 + counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst));
                        let r1 = tuple((id.0 % 4) as u16);
                        let r2 = tuple(((id.0 + 1) % 4) as u16);
                        let ok = lm.lock(id, r1, LockMode::Exclusive).is_ok()
                            && lm.lock(id, r2, LockMode::Exclusive).is_ok();
                        lm.release_all(id);
                        if ok {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
                let _ = t;
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
