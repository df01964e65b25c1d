//! Clock abstraction.
//!
//! LCP transitions are *time triggered* (Section II of the paper). The engine
//! never calls the OS clock directly; it reads a [`Clock`], so the same code
//! runs against wall time in production ([`SystemClock`]) and against a
//! deterministic, fast-forwardable [`MockClock`] in tests and experiments —
//! this is how we compress the paper's "1 hour / 1 day / 1 month" delays
//! into milliseconds of test time without touching engine logic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::time::{Duration, Timestamp};

/// Source of the engine's notion of "now".
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Current time.
    fn now(&self) -> Timestamp;
}

/// Shared, dynamically dispatched clock handle.
pub type SharedClock = Arc<dyn Clock>;

/// Wall-clock time (microseconds since the Unix epoch).
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Timestamp {
        let micros = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("system clock before Unix epoch")
            .as_micros() as u64;
        Timestamp(micros)
    }
}

/// Deterministic clock advanced manually by tests / the experiment harness.
///
/// Cloning shares the underlying time source, so a clock handed to the engine
/// and a clock kept by the test observe the same advances.
#[derive(Debug, Clone, Default)]
pub struct MockClock {
    micros: Arc<AtomicU64>,
}

impl MockClock {
    /// A mock clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance time by `d` and return the new now.
    pub fn advance(&self, d: Duration) -> Timestamp {
        let new = self.micros.fetch_add(d.0, Ordering::SeqCst) + d.0;
        Timestamp(new)
    }

    /// Jump directly to `t`. Panics if `t` is in the past — the engine
    /// assumes monotonic time.
    pub fn set(&self, t: Timestamp) {
        let prev = self.micros.swap(t.0, Ordering::SeqCst);
        assert!(
            prev <= t.0,
            "MockClock must be monotonic: {prev} -> {}",
            t.0
        );
    }

    /// Convenience: an `Arc<dyn Clock>` view of this clock.
    pub fn shared(&self) -> SharedClock {
        Arc::new(self.clone())
    }
}

impl Clock for MockClock {
    fn now(&self) -> Timestamp {
        Timestamp(self.micros.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_starts_at_zero_and_advances() {
        let c = MockClock::new();
        assert_eq!(c.now(), Timestamp::ZERO);
        c.advance(Duration::hours(1));
        assert_eq!(c.now(), Timestamp::ZERO + Duration::hours(1));
    }

    #[test]
    fn clones_share_time() {
        let a = MockClock::new();
        let b = a.clone();
        a.advance(Duration::days(1));
        assert_eq!(b.now(), Timestamp::ZERO + Duration::days(1));
    }

    #[test]
    fn shared_trait_object_observes_advances() {
        let c = MockClock::new();
        c.set(Timestamp::micros(5));
        let shared: SharedClock = c.shared();
        assert_eq!(shared.now(), Timestamp::micros(5));
        c.advance(Duration::micros(5));
        assert_eq!(shared.now(), Timestamp::micros(10));
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn set_rejects_going_backwards() {
        let c = MockClock::new();
        c.set(Timestamp::micros(100));
        c.set(Timestamp::micros(50));
    }

    #[test]
    fn system_clock_is_monotone_enough() {
        let c = SystemClock;
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        assert!(a.0 > 1_000_000_000_000_000, "expected post-2001 wall time");
    }
}
