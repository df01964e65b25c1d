//! The degradation scheduler: *timely* enforcement (paper Section III,
//! "How to enforce timely data degradation?").
//!
//! Every degradable attribute of every live tuple has exactly one pending
//! transition in the due-time priority queue. [`DegradationScheduler::due_batch`]
//! pops the transitions whose time has come; the engine executes them as a
//! system transaction and re-arms the next transition for each attribute.
//! Lateness (actual − due) is recorded in a log₂ histogram: exact count,
//! mean and max, and bucket-bound quantiles. The benchmark's
//! `live-degrade` workload reads it as the pump's lag.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use parking_lot::Mutex;

use instant_common::{Duration, TableId, Timestamp, TupleId};

/// One scheduled attribute transition. Ordered by its fields in
/// declaration order, due time first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PendingTransition {
    pub due: Timestamp,
    pub table: TableId,
    pub tid: TupleId,
    /// The armed tuple's insert time. Tuple ids are recycled, so `tid`
    /// alone may name a newer tuple by the time this fires.
    pub insert_ts: Timestamp,
    /// Index into the table's degradable-column list (not the column id).
    pub deg_slot: u8,
    /// The LCP stage being *left* when this fires.
    pub from_stage: u8,
}

/// Log₂-bucketed latency histogram (microseconds).
#[derive(Debug, Clone)]
pub struct LatenessHistogram {
    buckets: [u64; 64],
    count: u64,
    sum_micros: u128,
    max_micros: u64,
}

impl Default for LatenessHistogram {
    fn default() -> Self {
        LatenessHistogram {
            buckets: [0; 64],
            count: 0,
            sum_micros: 0,
            max_micros: 0,
        }
    }
}

impl LatenessHistogram {
    pub fn record(&mut self, d: Duration) {
        let us = d.as_micros();
        let bucket = if us == 0 {
            0
        } else {
            64 - us.leading_zeros() as usize
        };
        self.buckets[bucket.min(63)] += 1;
        self.count += 1;
        self.sum_micros += us as u128;
        self.max_micros = self.max_micros.max(us);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max(&self) -> Duration {
        Duration::micros(self.max_micros)
    }

    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            Duration::micros((self.sum_micros / self.count as u128) as u64)
        }
    }

    /// Approximate quantile (upper bound of the containing bucket).
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut acc = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            acc += b;
            if acc >= target.max(1) {
                // Bucket upper bound, clamped to the observed maximum so a
                // single large bucket never reports beyond reality.
                let upper = if i == 0 { 0 } else { 1u64 << i };
                return Duration::micros(upper.min(self.max_micros));
            }
        }
        self.max()
    }
}

/// The due-time priority queue plus lateness accounting.
#[derive(Debug)]
pub struct DegradationScheduler {
    queue: Mutex<BinaryHeap<Reverse<PendingTransition>>>,
    lateness: Mutex<LatenessHistogram>,
    fired: std::sync::atomic::AtomicU64,
}

impl Default for DegradationScheduler {
    fn default() -> DegradationScheduler {
        DegradationScheduler {
            queue: Mutex::ranked(350, BinaryHeap::new()),
            lateness: Mutex::ranked(360, LatenessHistogram::default()),
            fired: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl DegradationScheduler {
    pub fn new() -> DegradationScheduler {
        DegradationScheduler::default()
    }

    /// Arm a transition.
    pub fn schedule(&self, pt: PendingTransition) {
        self.queue.lock().push(Reverse(pt));
    }

    /// Pending transitions count.
    pub fn len(&self) -> usize {
        self.queue.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The earliest due time, if any (lets callers sleep precisely).
    pub fn next_due(&self) -> Option<Timestamp> {
        self.queue.lock().peek().map(|Reverse(pt)| pt.due)
    }

    /// Pop every transition due at or before `now`, up to `max` (0 = all).
    pub fn due_batch(&self, now: Timestamp, max: usize) -> Vec<PendingTransition> {
        let mut q = self.queue.lock();
        let mut out = Vec::new();
        while let Some(Reverse(pt)) = q.peek() {
            if pt.due > now {
                break;
            }
            if max != 0 && out.len() >= max {
                break;
            }
            #[expect(
                clippy::expect_used,
                reason = "peek() returned Some in the loop condition"
            )]
            out.push(q.pop().expect("peeked").0);
        }
        out
    }

    /// Record the lateness of an executed transition.
    pub fn record_fired(&self, due: Timestamp, executed_at: Timestamp) {
        self.lateness.lock().record(executed_at.since(due));
        self.fired
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Transitions executed so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Snapshot of the lateness histogram.
    pub fn lateness(&self) -> LatenessHistogram {
        self.lateness.lock().clone()
    }

    /// Drop every pending transition (recovery rebuilds from the heap).
    pub fn clear(&self) {
        self.queue.lock().clear();
    }

    /// Degradation-timeliness lag: how far past due the *oldest* pending
    /// transition is at `now` (zero when nothing is overdue). The paper's
    /// timeliness guarantee is exactly "this stays near zero".
    pub fn overdue_lag(&self, now: Timestamp) -> Duration {
        match self.next_due() {
            Some(due) if due <= now => now.since(due),
            _ => Duration::ZERO,
        }
    }

    /// Per-stage overdue lag: for each LCP stage with at least one overdue
    /// transition, the worst (oldest) lag at `now`. Walks the whole heap
    /// under the queue lock — stats-path only, never on the commit path.
    pub fn overdue_lag_by_stage(&self, now: Timestamp) -> Vec<(u8, Duration)> {
        let q = self.queue.lock();
        let mut worst: std::collections::BTreeMap<u8, Duration> = std::collections::BTreeMap::new();
        for Reverse(pt) in q.iter() {
            if pt.due <= now {
                let lag = now.since(pt.due);
                let e = worst.entry(pt.from_stage).or_insert(Duration::ZERO);
                if lag > *e {
                    *e = lag;
                }
            }
        }
        worst.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(due_us: u64, slot: u8) -> PendingTransition {
        PendingTransition {
            due: Timestamp::micros(due_us),
            table: TableId(1),
            tid: TupleId::new(1, slot as u16),
            insert_ts: Timestamp::ZERO,
            deg_slot: slot,
            from_stage: 0,
        }
    }

    #[test]
    fn pops_in_due_order() {
        let s = DegradationScheduler::new();
        s.schedule(pt(300, 0));
        s.schedule(pt(100, 1));
        s.schedule(pt(200, 2));
        let batch = s.due_batch(Timestamp::micros(1000), 0);
        let dues: Vec<u64> = batch.iter().map(|p| p.due.0).collect();
        assert_eq!(dues, vec![100, 200, 300]);
        assert!(s.is_empty());
    }

    #[test]
    fn respects_now_boundary() {
        let s = DegradationScheduler::new();
        s.schedule(pt(100, 0));
        s.schedule(pt(200, 1));
        let batch = s.due_batch(Timestamp::micros(150), 0);
        assert_eq!(batch.len(), 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s.next_due(), Some(Timestamp::micros(200)));
        // Exactly at the boundary fires.
        let batch2 = s.due_batch(Timestamp::micros(200), 0);
        assert_eq!(batch2.len(), 1);
    }

    #[test]
    fn batch_size_cap() {
        let s = DegradationScheduler::new();
        for i in 0..10 {
            s.schedule(pt(i, i as u8));
        }
        let batch = s.due_batch(Timestamp::micros(1000), 4);
        assert_eq!(batch.len(), 4);
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn lateness_recording_and_quantiles() {
        let s = DegradationScheduler::new();
        for lateness_us in [1u64, 10, 100, 1000, 10_000] {
            s.record_fired(Timestamp::micros(0), Timestamp::micros(lateness_us));
        }
        let h = s.lateness();
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), Duration::micros(10_000));
        assert!(h.mean() >= Duration::micros(2000));
        assert!(h.quantile(0.5) <= h.quantile(0.99));
        assert!(h.quantile(1.0) >= Duration::micros(8192));
        assert_eq!(s.fired(), 5);
    }

    #[test]
    fn zero_lateness_goes_to_bucket_zero() {
        let mut h = LatenessHistogram::default();
        h.record(Duration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
    }

    #[test]
    fn empty_histogram_quantiles() {
        let h = LatenessHistogram::default();
        assert_eq!(h.quantile(0.99), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
    }

    #[test]
    fn clear_empties_queue() {
        let s = DegradationScheduler::new();
        s.schedule(pt(1, 0));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.next_due(), None);
    }

    #[test]
    fn overdue_lag_overall_and_per_stage() {
        let s = DegradationScheduler::new();
        // Empty queue: nothing is overdue.
        assert_eq!(s.overdue_lag(Timestamp::micros(500)), Duration::ZERO);
        assert!(s.overdue_lag_by_stage(Timestamp::micros(500)).is_empty());

        s.schedule(PendingTransition {
            from_stage: 0,
            ..pt(100, 0)
        });
        s.schedule(PendingTransition {
            from_stage: 1,
            ..pt(300, 1)
        });
        s.schedule(PendingTransition {
            from_stage: 1,
            ..pt(900, 2)
        });

        // Before anything is due, lag is zero.
        assert_eq!(s.overdue_lag(Timestamp::micros(50)), Duration::ZERO);
        // At t=400 both stage-0 (due 100) and stage-1 (due 300) are late;
        // the overall lag is the oldest one.
        assert_eq!(s.overdue_lag(Timestamp::micros(400)), Duration::micros(300));
        let by_stage = s.overdue_lag_by_stage(Timestamp::micros(400));
        assert_eq!(
            by_stage,
            vec![(0, Duration::micros(300)), (1, Duration::micros(100)),]
        );
        // The t=900 transition isn't overdue yet and contributes nothing.
        assert!(by_stage
            .iter()
            .all(|(_, lag)| *lag <= Duration::micros(300)));
    }

    #[test]
    fn ties_break_deterministically() {
        let s = DegradationScheduler::new();
        s.schedule(pt(100, 2));
        s.schedule(pt(100, 1));
        s.schedule(pt(100, 0));
        let batch = s.due_batch(Timestamp::micros(100), 0);
        let slots: Vec<u8> = batch.iter().map(|p| p.deg_slot).collect();
        assert_eq!(slots, vec![0, 1, 2]);
    }
}
