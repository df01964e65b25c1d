//! Lock-free log-bucketed latency histograms.
//!
//! Sixty-four power-of-two buckets over microseconds: bucket 0 holds
//! `0 µs`, bucket *i* holds `[2^(i-1), 2^i)` — the same bucketing the
//! degradation scheduler's lateness histogram uses, so percentiles from
//! the two are comparable. Recording is wait-free (relaxed atomic adds);
//! snapshots are taken bucket by bucket without stopping writers, so a
//! snapshot is a *consistent underestimate*: its bucket total can lag
//! concurrent recordings but can never exceed the number of samples
//! actually recorded before the snapshot began returning.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const BUCKETS: usize = 64;

/// A concurrent latency histogram. Record from any thread, under any
/// lock; snapshot whenever.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub const fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }

    /// Index of the bucket covering `micros` (log2, clamped).
    fn bucket(micros: u64) -> usize {
        if micros == 0 {
            0
        } else {
            (64 - micros.leading_zeros() as usize).min(BUCKETS - 1)
        }
    }

    /// Record one sample, in microseconds. Wait-free.
    pub fn record(&self, micros: u64) {
        self.buckets[Self::bucket(micros)].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Record one sample from an elapsed [`Duration`].
    pub fn record_duration(&self, elapsed: Duration) {
        self.record(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
    }

    /// Point-in-time copy. The count is derived from the bucket loads
    /// themselves (not a separate counter), so percentiles are always
    /// internally consistent and the total never exceeds the number of
    /// samples recorded so far. `sum`/`max` are loaded independently and
    /// may include a sample whose bucket increment the snapshot missed.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        let mut count = 0u64;
        for (slot, bucket) in buckets.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
            count += *slot;
        }
        HistogramSnapshot {
            buckets,
            count,
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
            max_micros: self.max_micros.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.snapshot().fmt(f)
    }
}

/// An immutable, mergeable copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see the module docs for the bucketing).
    pub buckets: [u64; BUCKETS],
    /// Total samples across the buckets at snapshot time.
    pub count: u64,
    /// Sum of all recorded sample values, microseconds.
    pub sum_micros: u64,
    /// Largest recorded sample, microseconds.
    pub max_micros: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum_micros: 0,
            max_micros: 0,
        }
    }
}

impl HistogramSnapshot {
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample value, microseconds (0 when empty).
    pub fn mean_micros(&self) -> u64 {
        self.sum_micros.checked_div(self.count).unwrap_or(0)
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the `ceil(q·count)`-th sample, clamped to the
    /// observed maximum (so `quantile(1.0) == max`). Empty → 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let upper = if i == 0 { 0 } else { 1u64 << i.min(62) };
                return upper.min(self.max_micros);
            }
        }
        self.max_micros
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Fold another snapshot into this one (bucket-wise add); the result
    /// behaves as if both histograms' samples were recorded into one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_micros += other.sum_micros;
        self.max_micros = self.max_micros.max(other.max_micros);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(LatencyHistogram::bucket(0), 0);
        assert_eq!(LatencyHistogram::bucket(1), 1);
        assert_eq!(LatencyHistogram::bucket(2), 2);
        assert_eq!(LatencyHistogram::bucket(3), 2);
        assert_eq!(LatencyHistogram::bucket(4), 3);
        assert_eq!(LatencyHistogram::bucket(u64::MAX), 63);
    }

    #[test]
    fn quantiles_clamp_to_max_and_stay_monotone() {
        let h = LatencyHistogram::new();
        for us in [10u64, 20, 30, 1000, 5000] {
            h.record(us);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum_micros, 6060);
        assert_eq!(s.max_micros, 5000);
        assert!(s.p50() <= s.p95());
        assert!(s.p95() <= s.p99());
        assert!(s.p99() <= s.max_micros);
        assert_eq!(s.quantile(1.0), 5000, "top quantile clamps to max");
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean_micros(), 0);
    }

    #[test]
    fn merge_adds_samples() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record(100);
        b.record(200);
        b.record(300);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.sum_micros, 600);
        assert_eq!(m.max_micros, 300);
    }
}
