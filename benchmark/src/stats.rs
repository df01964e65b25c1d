//! Percentiles, medians, quartiles and open-loop timing.
//!
//! Two rules from the metrics contract live here so no workload can get
//! them wrong:
//!
//! * a tail is reported only at a percentile that has **at least ten
//!   samples beyond it** ([`supported`]); `p95` is the fixed tail name,
//!   and with fewer than 200 samples it falls back to the highest
//!   percentile of the ladder the sample does support;
//! * an open-loop operation is timed **from the instant it was due**,
//!   not from the instant the generator got round to sending it, and the
//!   generator's own lateness is reported beside it ([`OpenLoop`]).

/// Percentiles a timing may be reported at, lowest first.
const LADDER: [f64; 6] = [0.50, 0.75, 0.90, 0.95, 0.99, 0.999];

/// Samples that must lie beyond a percentile before it is reported.
const BEYOND: f64 = 10.0;

/// Does a sample of `n` have at least ten samples beyond percentile `q`?
/// The median is always allowed: it is the floor of the ladder.
pub fn supported(n: usize, q: f64) -> bool {
    q <= 0.50 || (n as f64) * (1.0 - q) >= BEYOND
}

/// The highest ladder percentile not above `cap` that `n` samples support.
pub fn highest_supported(n: usize, cap: f64) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| q <= cap && supported(n, q))
        .unwrap_or(0.50)
}

/// Percentile `q` of an ascending slice, linearly interpolated between
/// the two nearest ranks. Panics on an empty slice: a timing with no
/// samples is a harness bug, not a measurement.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.50)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// so the spread this harness prints is the spread the driver computes.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let n = data.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in (1..4).enumerate() {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        out[slot] = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Distance between the quartiles as a share of the median — the
/// run-to-run spread the benchmark's bounds are judged against.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// One timing, summarised: the median, the tail, and how many samples
/// stand behind them.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The value reported under the fixed tail name `p95`.
    pub p95: f64,
    /// The percentile `p95` was actually read at: 0.95 with 200 samples
    /// or more, otherwise the highest one the sample supports.
    pub p95_at: f64,
    /// The highest ladder percentile the sample supports, and its value.
    pub top_at: f64,
    pub top: f64,
    pub mean: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        let n = s.len();
        let p95_at = highest_supported(n, 0.95);
        let top_at = highest_supported(n, 1.0);
        Summary {
            n,
            p50: percentile(&s, 0.50),
            p95: percentile(&s, p95_at),
            p95_at,
            top_at,
            top: percentile(&s, top_at),
            mean: s.iter().sum::<f64>() / n as f64,
        }
    }
}

/// The tail of a timing that runs for a while, made steady: the window is
/// cut into equal sub-windows of at least 200 samples (so each supports
/// its own p95, at most one per second), the tail is read in each, and
/// the median of those is reported. One bad second — a checkpoint stall,
/// a noisy neighbour — then moves one sub-window, not the metric.
/// `ops` are `(seconds into the window, latency)`; returns the tail, the
/// number of sub-windows behind it, and the lowest percentile any of
/// them was read at (0.95 unless a sub-window is short of samples).
pub fn windowed_p95(ops: &[(f64, f64)], seconds: f64) -> (f64, usize, f64) {
    let k = (ops.len() / 200).min(seconds.ceil() as usize).max(1);
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); k];
    for &(at, v) in ops {
        let slot = ((at / seconds * k as f64) as usize).min(k - 1);
        buckets[slot].push(v);
    }
    let summaries: Vec<Summary> = buckets
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| Summary::of(b))
        .collect();
    let tails: Vec<f64> = summaries.iter().map(|s| s.p95).collect();
    let read_at = summaries.iter().map(|s| s.p95_at).fold(0.95, f64::min);
    (median(&tails), tails.len(), read_at)
}

/// Share of `values` at or under `limit`, counting `failed` operations
/// as misses: an operation that fails misses every latency limit.
pub fn within_limit_share(values: &[f64], limit: f64, failed: u64) -> f64 {
    let ok = values.iter().filter(|&&v| v <= limit).count() as f64;
    ok / (values.len() as f64 + failed as f64)
}

/// Latencies of an open-loop stream. Every time is in seconds from the
/// stream's own origin.
#[derive(Debug, Default, Clone)]
pub struct OpenLoop {
    /// When each operation was due, seconds.
    pub due_s: Vec<f64>,
    /// Completion minus **due** time, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Send minus due time, milliseconds: how late the generator ran.
    pub gen_late_ms: Vec<f64>,
}

impl OpenLoop {
    pub fn with_capacity(n: usize) -> OpenLoop {
        OpenLoop {
            due_s: Vec::with_capacity(n),
            latency_ms: Vec::with_capacity(n),
            gen_late_ms: Vec::with_capacity(n),
        }
    }

    /// Record one operation that was due at `due`, sent at `sent` and
    /// completed at `done`. A generator never sends early, so `sent`
    /// below `due` is clamped.
    pub fn record(&mut self, due: f64, sent: f64, done: f64) {
        self.due_s.push(due);
        self.latency_ms.push((done - due) * 1e3);
        self.gen_late_ms.push((sent - due).max(0.0) * 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert!(!supported(199, 0.95));
        assert!(supported(200, 0.95));
        assert!(!supported(999, 0.99));
        assert!(supported(1000, 0.99));
        assert!(supported(3, 0.50), "the median is always reported");
    }

    #[test]
    fn fewer_than_200_samples_fall_back_below_p95() {
        let values: Vec<f64> = (1..=150).map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!(s.n, 150);
        assert_eq!(s.p95_at, 0.90, "150 × 0.10 = 15 beyond p90, 7.5 beyond p95");
        assert!((s.p95 - percentile(&values, 0.90)).abs() < 1e-12);
        // 30 samples support nothing above p50; 40 support p75.
        assert_eq!(Summary::of(&values[..30]).p95_at, 0.50);
        assert_eq!(Summary::of(&values[..40]).p95_at, 0.75);
    }

    #[test]
    fn large_samples_report_p95_and_a_higher_top() {
        let values: Vec<f64> = (0..20_000).map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!(s.p95_at, 0.95);
        assert_eq!(s.top_at, 0.999);
        assert!((s.p50 - 9_999.5).abs() < 1e-9);
        assert!((s.p95 - 18_999.05).abs() < 1e-6);
    }

    #[test]
    fn one_bad_second_does_not_move_the_windowed_tail() {
        // Ten seconds at 400 ops/s, flat 1 ms, except that second 3 is a
        // stall: every operation in it takes 80 ms.
        let ops: Vec<(f64, f64)> = (0..4000)
            .map(|i| {
                let at = i as f64 / 400.0;
                (at, if (3.0..4.0).contains(&at) { 80.0 } else { 1.0 })
            })
            .collect();
        let all: Vec<f64> = ops.iter().map(|o| o.1).collect();
        assert_eq!(Summary::of(&all).p95, 80.0, "10 % of samples are slow");
        assert_eq!(windowed_p95(&ops, 10.0), (1.0, 10, 0.95));
        // Too few samples for two sub-windows: the whole window is one.
        assert_eq!(windowed_p95(&ops[..300], 10.0).1, 1);
        // Too few for p95 at all: the one window falls back down the ladder.
        assert_eq!(windowed_p95(&ops[..60], 10.0).2, 0.75);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
        assert_eq!(percentile(&v, 0.5), 25.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([2, 8], n=4) == [0.5, 5.0, 9.5]
        assert_eq!(quartiles(&[2.0, 8.0]), [0.5, 5.0, 9.5]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn failed_operations_miss_every_limit() {
        let v = [1.0, 2.0, 30.0, 4.0];
        assert_eq!(within_limit_share(&v, 20.0, 0), 0.75);
        assert_eq!(within_limit_share(&v, 20.0, 4), 0.375);
    }

    /// A single server fed on a fixed schedule, with one long stall
    /// injected. Timed from the send, only the stalled operation looks
    /// slow; timed from the due time, every operation queued behind it
    /// carries the wait — which is what a user of an open system sees.
    #[test]
    fn open_loop_charges_a_stall_to_the_operations_behind_it() {
        let gap = 0.001; // one operation due every millisecond
        let service = 0.0001;
        let stall = 0.050;
        let mut log = OpenLoop::with_capacity(200);
        let mut from_send_ms = Vec::new();
        let mut free_at = 0.0f64;
        for i in 0..200 {
            let due = i as f64 * gap;
            let sent = due.max(free_at);
            let done = sent + if i == 100 { stall } else { service };
            free_at = done;
            log.record(due, sent, done);
            from_send_ms.push((done - sent) * 1e3);
        }
        let slow_from_send = from_send_ms.iter().filter(|&&ms| ms > 1.0).count();
        let slow_from_due = log.latency_ms.iter().filter(|&&ms| ms > 1.0).count();
        assert_eq!(slow_from_send, 1, "service time hides the backlog");
        assert!(
            slow_from_due > 40,
            "the backlog behind a 50 ms stall drains at 0.9 ms per ms, saw {slow_from_due}"
        );
        // The operation right behind the stall waited for nearly all of it.
        assert!(log.latency_ms[101] > 48.0 && log.latency_ms[101] < 50.0);
        assert!(log.gen_late_ms[101] > 48.0);
        // Before the stall the generator was on time.
        assert_eq!(log.gen_late_ms[50], 0.0);
        assert!((within_limit_share(&log.latency_ms, 20.0, 0) - 166.0 / 200.0).abs() < 1e-12);
    }
}
