//! Transaction lifecycle: id assignment, state machine, lock release.
//!
//! The engine distinguishes **user** transactions from **system**
//! transactions (degradation batches, vacuum). Both obey 2PL through the
//! shared [`LockManager`]; the distinction is informational (metrics,
//! experiment E10's reader-vs-degrader conflict attribution) and controls
//! WAL behaviour in the core crate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use instant_common::{Error, Result, TxId};

use crate::locks::{LockManager, LockMode, Resource};

/// Who started the transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxKind {
    User,
    /// Degradation / vacuum batch.
    System,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxState {
    Active,
    Committed,
    Aborted,
}

/// A live transaction handle. Commit or abort exactly once; dropping an
/// active handle aborts it (RAII safety).
pub struct TxHandle {
    id: TxId,
    kind: TxKind,
    state: Mutex<TxState>,
    locks: Arc<LockManager>,
}

impl std::fmt::Debug for TxHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxHandle")
            .field("id", &self.id)
            .field("kind", &self.kind)
            .finish()
    }
}

impl TxHandle {
    pub fn id(&self) -> TxId {
        self.id
    }

    pub fn kind(&self) -> TxKind {
        self.kind
    }

    pub fn is_active(&self) -> bool {
        *self.state.lock() == TxState::Active
    }

    fn check_active(&self) -> Result<()> {
        if self.is_active() {
            Ok(())
        } else {
            Err(Error::TxState(format!("{} is not active", self.id)))
        }
    }

    /// Acquire a lock under this transaction.
    pub fn lock(&self, res: Resource, mode: LockMode) -> Result<()> {
        self.check_active()?;
        self.locks.lock(self.id, res, mode)
    }

    /// Commit: release all locks. The caller (core engine) is responsible
    /// for WAL-sync *before* calling this — WAL discipline lives a layer up.
    pub fn commit(&self) -> Result<()> {
        let mut state = self.state.lock();
        if *state != TxState::Active {
            return Err(Error::TxState(format!("{} already finished", self.id)));
        }
        *state = TxState::Committed;
        drop(state);
        self.locks.release_all(self.id);
        Ok(())
    }

    /// Abort: release all locks.
    pub fn abort(&self) -> Result<()> {
        let mut state = self.state.lock();
        if *state != TxState::Active {
            return Err(Error::TxState(format!("{} already finished", self.id)));
        }
        *state = TxState::Aborted;
        drop(state);
        self.locks.release_all(self.id);
        Ok(())
    }
}

impl Drop for TxHandle {
    fn drop(&mut self) {
        if self.is_active() {
            let _ = self.abort();
        }
    }
}

/// Issues transaction ids and handles.
#[derive(Debug)]
pub struct TxManager {
    next_id: AtomicU64,
    locks: Arc<LockManager>,
    started_user: AtomicU64,
    started_system: AtomicU64,
}

impl Default for TxManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TxManager {
    pub fn new() -> TxManager {
        TxManager {
            next_id: AtomicU64::new(1),
            locks: Arc::new(LockManager::new()),
            started_user: AtomicU64::new(0),
            started_system: AtomicU64::new(0),
        }
    }

    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    /// Begin a user transaction.
    pub fn begin(&self) -> TxHandle {
        self.begin_kind(TxKind::User)
    }

    /// Begin a system (degradation/vacuum) transaction.
    pub fn begin_system(&self) -> TxHandle {
        self.begin_kind(TxKind::System)
    }

    fn begin_kind(&self, kind: TxKind) -> TxHandle {
        let id = TxId(self.next_id.fetch_add(1, Ordering::SeqCst));
        match kind {
            TxKind::User => self.started_user.fetch_add(1, Ordering::Relaxed),
            TxKind::System => self.started_system.fetch_add(1, Ordering::Relaxed),
        };
        TxHandle {
            id,
            kind,
            state: Mutex::ranked(400, TxState::Active),
            locks: self.locks.clone(),
        }
    }

    /// `(user txs, system txs)` started.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.started_user.load(Ordering::Relaxed),
            self.started_system.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instant_common::{TableId, TupleId};

    fn res(t: u16) -> Resource {
        Resource::Tuple(TableId(1), TupleId::new(1, t))
    }

    #[test]
    fn ids_are_monotonic() {
        let tm = TxManager::new();
        let a = tm.begin();
        let b = tm.begin();
        assert!(b.id().0 > a.id().0);
    }

    #[test]
    fn commit_releases_locks() {
        let tm = TxManager::new();
        let tx = tm.begin();
        tx.lock(res(0), LockMode::Exclusive).unwrap();
        tx.commit().unwrap();
        let tx2 = tm.begin();
        tx2.lock(res(0), LockMode::Exclusive).unwrap();
    }

    #[test]
    fn drop_aborts_and_releases() {
        let tm = TxManager::new();
        {
            let tx = tm.begin();
            tx.lock(res(1), LockMode::Exclusive).unwrap();
            // dropped without commit
        }
        let tx2 = tm.begin();
        tx2.lock(res(1), LockMode::Exclusive).unwrap();
    }

    #[test]
    fn double_commit_rejected() {
        let tm = TxManager::new();
        let tx = tm.begin();
        tx.commit().unwrap();
        assert!(matches!(tx.commit(), Err(Error::TxState(_))));
        assert!(matches!(tx.abort(), Err(Error::TxState(_))));
    }

    #[test]
    fn lock_after_commit_rejected() {
        let tm = TxManager::new();
        let tx = tm.begin();
        tx.commit().unwrap();
        assert!(tx.lock(res(0), LockMode::Shared).is_err());
    }

    #[test]
    fn kinds_and_counters() {
        let tm = TxManager::new();
        let _u = tm.begin();
        let s = tm.begin_system();
        assert_eq!(s.kind(), TxKind::System);
        assert_eq!(tm.counters(), (1, 1));
    }
}
