//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no registry access, so this crate implements
//! the exact `parking_lot` API surface the workspace uses — `Mutex`,
//! `RwLock`, `Condvar` with non-poisoning guards and `&mut guard` condvar
//! waits — on top of `std::sync`. Poisoning is deliberately swallowed
//! (`parking_lot` has none): a panicking critical section must not turn
//! every later `lock()` into a second panic. Performance characteristics
//! differ from the real crate; correctness semantics do not.
//!
//! # Lock-rank deadlock detection (divergence from real `parking_lot`)
//!
//! On top of the stock API this shim adds a debug-only lock-order checker.
//! [`Mutex::ranked`] / [`RwLock::ranked`] construct a lock carrying a
//! numeric rank; under `cfg(debug_assertions)` every *blocking*
//! acquisition checks a thread-local stack of held ranks and panics —
//! naming both acquisition sites — if the new rank is not strictly
//! greater than every rank already held by the thread. Deadlock-prone
//! orderings thus fail loudly and deterministically in any debug test
//! that merely *executes* the two acquisitions on one thread, without
//! needing the cross-thread timing that makes real deadlocks flaky.
//!
//! Rules of the scheme (see the workspace `INVARIANTS.md` for the global
//! rank table):
//!
//! * Rank `0` (what plain [`Mutex::new`] assigns) means *unranked*:
//!   exempt from checking entirely. Reserved for locks whose discipline
//!   is not expressible as a static total order (e.g. per-page latches
//!   ordered by page identity).
//! * `try_lock`/`try_read`/`try_write` never check: a non-blocking
//!   acquisition cannot participate in a deadlock cycle. They still push
//!   the acquired rank so later blocking acquisitions see it.
//! * Equal ranks conflict: taking rank *N* while holding rank *N* panics.
//!   Two locks that can be held together must have distinct ranks.
//! * [`Condvar::wait`] keeps the mutex's rank on the stack: the lock is
//!   logically held across the wait, and the blocked thread cannot
//!   acquire anything else meanwhile.
//!
//! In release builds the rank field, the thread-local stack, and every
//! check compile away; `ranked(r, v)` is exactly `new(v)`.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the shim implements the ranked locks on top of std::sync, and its own tests use unranked ones"
)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::time::Duration;

#[cfg(debug_assertions)]
mod rank {
    //! Thread-local held-rank stack backing the debug lock-order checker.

    use std::cell::RefCell;
    use std::panic::Location;

    type Site = &'static Location<'static>;

    thread_local! {
        /// Ranks currently held by this thread, each with the source
        /// location that acquired it. Not necessarily sorted: guards may
        /// be dropped out of acquisition order.
        static HELD: RefCell<Vec<(u32, Site)>> = const { RefCell::new(Vec::new()) };
    }

    /// Panic if acquiring `new_rank` now would violate the strictly-
    /// increasing-rank discipline. Called *before* blocking, so a wrong
    /// ordering panics instead of deadlocking.
    pub(crate) fn check(new_rank: u32, new_site: Site) {
        if new_rank == 0 {
            return;
        }
        HELD.with(|held| {
            let held = held.borrow();
            if let Some(&(top_rank, top_site)) = held.iter().max_by_key(|(r, _)| *r) {
                if new_rank <= top_rank {
                    panic!(
                        "lock-rank violation: acquiring rank {new_rank} at {new_site} \
                         while holding rank {top_rank} acquired at {top_site}; \
                         locks must be taken in strictly increasing rank order \
                         (see INVARIANTS.md for the global rank table)"
                    );
                }
            }
        });
    }

    /// Record `rank` as held by this thread (no-op for rank 0).
    pub(crate) fn push(rank: u32, site: Site) {
        if rank == 0 {
            return;
        }
        HELD.with(|held| held.borrow_mut().push((rank, site)));
    }

    /// Drop the most recent record of `rank` (guards can unlock in any
    /// order, so this is a positional remove, not a stack pop).
    pub(crate) fn pop(rank: u32) {
        if rank == 0 {
            return;
        }
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(i) = held.iter().rposition(|(r, _)| *r == rank) {
                held.remove(i);
            }
        });
    }
}

/// A mutual-exclusion primitive with `parking_lot`'s non-poisoning API.
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    rank: u32,
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`]. The inner std guard lives in an `Option` so
/// [`Condvar::wait`] can temporarily take ownership of it (std's condvar
/// consumes the guard; parking_lot's borrows it mutably).
pub struct MutexGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    rank: u32,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// An unranked mutex (rank 0): exempt from lock-order checking.
    pub const fn new(value: T) -> Self {
        Self::ranked(0, value)
    }

    /// A mutex participating in lock-order checking under `rank`.
    /// Blocking acquisitions panic in debug builds unless `rank` is
    /// strictly greater than every rank the thread already holds.
    #[cfg_attr(
        not(debug_assertions),
        allow(unused_variables, reason = "release builds do not store the rank")
    )]
    pub const fn ranked(rank: u32, value: T) -> Self {
        Mutex {
            #[cfg(debug_assertions)]
            rank,
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    #[cfg(debug_assertions)]
    #[inline]
    fn rank(&self) -> u32 {
        self.rank
    }

    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let site = {
            let site = std::panic::Location::caller();
            rank::check(self.rank(), site);
            site
        };
        let guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        #[cfg(debug_assertions)]
        rank::push(self.rank(), site);
        MutexGuard {
            #[cfg(debug_assertions)]
            rank: self.rank(),
            inner: Some(guard),
        }
    }

    #[track_caller]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        #[cfg(debug_assertions)]
        rank::push(self.rank(), std::panic::Location::caller());
        Some(MutexGuard {
            #[cfg(debug_assertions)]
            rank: self.rank(),
            inner: Some(guard),
        })
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken by condvar wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken by condvar wait")
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        rank::pop(self.rank);
    }
}

/// A reader-writer lock with `parking_lot`'s non-poisoning API.
pub struct RwLock<T: ?Sized> {
    #[cfg(debug_assertions)]
    rank: u32,
    inner: std::sync::RwLock<T>,
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    rank: u32,
    inner: std::sync::RwLockReadGuard<'a, T>,
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    rank: u32,
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// An unranked lock (rank 0): exempt from lock-order checking.
    pub const fn new(value: T) -> Self {
        Self::ranked(0, value)
    }

    /// A lock participating in lock-order checking under `rank`; see
    /// [`Mutex::ranked`]. Read and write acquisitions check alike (two
    /// same-thread reads of one ranked lock also panic — that pattern
    /// deadlocks under a writer-priority implementation).
    #[cfg_attr(
        not(debug_assertions),
        allow(unused_variables, reason = "release builds do not store the rank")
    )]
    pub const fn ranked(rank: u32, value: T) -> Self {
        RwLock {
            #[cfg(debug_assertions)]
            rank,
            inner: std::sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    #[cfg(debug_assertions)]
    #[inline]
    fn rank(&self) -> u32 {
        self.rank
    }

    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let site = {
            let site = std::panic::Location::caller();
            rank::check(self.rank(), site);
            site
        };
        let guard = self.inner.read().unwrap_or_else(|e| e.into_inner());
        #[cfg(debug_assertions)]
        rank::push(self.rank(), site);
        RwLockReadGuard {
            #[cfg(debug_assertions)]
            rank: self.rank(),
            inner: guard,
        }
    }

    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let site = {
            let site = std::panic::Location::caller();
            rank::check(self.rank(), site);
            site
        };
        let guard = self.inner.write().unwrap_or_else(|e| e.into_inner());
        #[cfg(debug_assertions)]
        rank::push(self.rank(), site);
        RwLockWriteGuard {
            #[cfg(debug_assertions)]
            rank: self.rank(),
            inner: guard,
        }
    }

    #[track_caller]
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let guard = match self.inner.try_read() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        #[cfg(debug_assertions)]
        rank::push(self.rank(), std::panic::Location::caller());
        Some(RwLockReadGuard {
            #[cfg(debug_assertions)]
            rank: self.rank(),
            inner: guard,
        })
    }

    #[track_caller]
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        let guard = match self.inner.try_write() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        #[cfg(debug_assertions)]
        rank::push(self.rank(), std::panic::Location::caller());
        Some(RwLockWriteGuard {
            #[cfg(debug_assertions)]
            rank: self.rank(),
            inner: guard,
        })
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(g) => f.debug_tuple("RwLock").field(&&*g).finish(),
            None => f.write_str("RwLock(<locked>)"),
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        rank::pop(self.rank);
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        rank::pop(self.rank);
    }
}

/// A condition variable that borrows the [`MutexGuard`] mutably during
/// waits instead of consuming it.
#[derive(Default)]
pub struct Condvar(std::sync::Condvar);

/// Result of a timed wait; mirrors `parking_lot::WaitTimeoutResult`.
#[derive(Clone, Copy, Debug)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// The mutex's rank stays on the held stack for the duration: the
    /// lock is logically held across the wait, and this thread cannot
    /// acquire anything else while blocked.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard already taken");
        let inner = self.0.wait(inner).unwrap_or_else(|e| e.into_inner());
        guard.inner = Some(inner);
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.inner.take().expect("guard already taken");
        let (inner, result) = self
            .0
            .wait_timeout(inner, timeout)
            .unwrap_or_else(|e| e.into_inner());
        guard.inner = Some(inner);
        WaitTimeoutResult(result.timed_out())
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_readers_coexist() {
        let l = RwLock::new(7);
        let a = l.read();
        let b = l.read();
        assert_eq!(*a + *b, 14);
        drop((a, b));
        *l.write() = 9;
        assert_eq!(*l.read(), 9);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut done = lock.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }

    #[cfg(debug_assertions)]
    mod rank_checking {
        use super::*;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        fn panic_message(f: impl FnOnce()) -> String {
            let err = catch_unwind(AssertUnwindSafe(f)).expect_err("expected a panic");
            err.downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        }

        #[test]
        fn ordered_acquisition_is_clean() {
            let low = Mutex::ranked(10, ());
            let high = Mutex::ranked(20, ());
            let a = low.lock();
            let b = high.lock();
            drop(b);
            drop(a);
            // And again in a fresh order after full release.
            let b = high.lock();
            drop(b);
            let a = low.lock();
            drop(a);
        }

        #[test]
        fn inversion_panics_with_both_sites() {
            let low = Mutex::ranked(10, ());
            let high = Mutex::ranked(20, ());
            let _held = high.lock();
            let msg = panic_message(|| {
                let _ = low.lock();
            });
            assert!(msg.contains("lock-rank violation"), "got: {msg}");
            assert!(msg.contains("rank 10"), "got: {msg}");
            assert!(msg.contains("rank 20"), "got: {msg}");
            // Both acquisition sites name this file.
            assert!(msg.matches("lib.rs").count() >= 2, "got: {msg}");
        }

        #[test]
        fn equal_ranks_conflict() {
            let a = Mutex::ranked(30, ());
            let b = Mutex::ranked(30, ());
            let _held = a.lock();
            let msg = panic_message(|| {
                let _ = b.lock();
            });
            assert!(msg.contains("lock-rank violation"), "got: {msg}");
        }

        #[test]
        fn unranked_locks_are_exempt() {
            let ranked = Mutex::ranked(40, ());
            let plain_a = Mutex::new(());
            let plain_b = Mutex::new(());
            let _r = ranked.lock();
            // Unranked after ranked, nested unranked, ranked after
            // unranked — all fine.
            let _a = plain_a.lock();
            let _b = plain_b.lock();
            let higher = Mutex::ranked(41, ());
            let _h = higher.lock();
        }

        #[test]
        fn guard_drop_unwinds_the_stack() {
            let low = Mutex::ranked(10, ());
            let high = Mutex::ranked(20, ());
            {
                let _held = high.lock();
            }
            // High released: low is acquirable again.
            let _ = low.lock();
        }

        #[test]
        fn out_of_order_release_keeps_tracking() {
            let a = Mutex::ranked(10, ());
            let b = Mutex::ranked(20, ());
            let c = Mutex::ranked(30, ());
            let ga = a.lock();
            let gb = b.lock();
            let gc = c.lock();
            drop(gb); // middle released first
            let msg = panic_message(|| {
                let _ = b.lock(); // 20 <= 30 still held
            });
            assert!(msg.contains("rank 30"), "got: {msg}");
            drop(gc);
            let _gb = b.lock(); // now only 10 held: fine
            drop(ga);
        }

        #[test]
        fn rwlock_read_and_write_both_check() {
            let low = RwLock::ranked(10, ());
            let high = RwLock::ranked(20, ());
            let _held = high.read();
            let msg = panic_message(|| {
                let _ = low.read();
            });
            assert!(msg.contains("lock-rank violation"), "got: {msg}");
            drop(_held);
            let _held = high.write();
            let msg = panic_message(|| {
                let _ = low.write();
            });
            assert!(msg.contains("lock-rank violation"), "got: {msg}");
        }

        #[test]
        fn try_lock_does_not_check_but_is_tracked() {
            let low = Mutex::ranked(10, ());
            let high = Mutex::ranked(20, ());
            let _held = high.lock();
            // Opportunistic grab below the held rank: allowed.
            let g = low.try_lock().expect("uncontended");
            drop(g);
            // But while a try-acquired rank is held, blocking
            // acquisitions still see it.
            let g = low.try_lock().expect("uncontended");
            let mid = Mutex::ranked(15, ());
            let msg = panic_message(|| {
                let _ = mid.lock(); // 15 <= 20 held
            });
            assert!(msg.contains("lock-rank violation"), "got: {msg}");
            drop(g);
        }

        #[test]
        fn condvar_wait_keeps_rank_held() {
            let pair = Arc::new((Mutex::ranked(10, false), Condvar::new()));
            let pair2 = pair.clone();
            let t = std::thread::spawn(move || {
                let (lock, cv) = &*pair2;
                let mut done = lock.lock();
                while !*done {
                    cv.wait(&mut done);
                }
                // Still holding rank 10 after the wait: higher is fine,
                // and the guard pops exactly once on drop.
                drop(done);
                let _ = lock.lock();
            });
            {
                let (lock, cv) = &*pair;
                *lock.lock() = true;
                cv.notify_all();
            }
            t.join().unwrap();
        }

        #[test]
        fn ranks_are_per_thread() {
            let high = Arc::new(Mutex::ranked(20, ()));
            let low = Arc::new(Mutex::ranked(10, ()));
            let _held = high.lock();
            let low2 = low.clone();
            // Another thread holds nothing: its rank-10 acquisition is
            // clean even while this thread holds rank 20.
            std::thread::spawn(move || {
                let _ = low2.lock();
            })
            .join()
            .unwrap();
        }
    }
}
