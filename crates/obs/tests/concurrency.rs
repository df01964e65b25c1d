//! Concurrency and unwind-safety guarantees of the observability plane:
//! snapshots taken mid-storm never overcount, percentiles stay monotone,
//! and span nesting survives panics (guard-based exit).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use instant_obs::{LatencyHistogram, Obs, Stage};

/// N writer threads hammer one histogram while a snapshot thread reads
/// it: every snapshot's bucket total must be ≤ the number of samples
/// already recorded (counted *before* each record call), and its
/// percentiles must be monotone — no torn read may manufacture samples.
#[test]
fn snapshots_under_concurrent_writers_never_overcount() {
    const WRITERS: usize = 4;
    const PER_WRITER: u64 = 20_000;
    let hist = Arc::new(LatencyHistogram::new());
    // Incremented BEFORE the matching record(): at every instant the
    // true recorded count is ≤ this, so any snapshot count must be too.
    let recorded = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let hist = hist.clone();
            let recorded = recorded.clone();
            s.spawn(move || {
                for i in 0..PER_WRITER {
                    recorded.fetch_add(1, Ordering::SeqCst);
                    // Spread across buckets so quantiles exercise the
                    // full accumulation walk.
                    hist.record((w as u64 + 1) * (i % 1024));
                }
            });
        }
        let hist2 = hist.clone();
        let recorded2 = recorded.clone();
        let done2 = done.clone();
        let snapshotter = s.spawn(move || {
            let mut snapshots = 0u64;
            loop {
                // Check-after-snapshot (not before): on a loaded host the
                // writers can finish before this thread is first
                // scheduled, and the test still wants ≥ 1 mid/post-storm
                // snapshot validated.
                let stop = done2.load(Ordering::SeqCst);
                let snap = hist2.snapshot();
                // The bucket walk itself bounds the count: a snapshot can
                // never exceed what was recorded before it finished. The
                // bound must be read *after* the walk — writers keep
                // landing samples while it runs, so a pre-walk load plus
                // any fixed slack is not an upper bound.
                let after = recorded2.load(Ordering::SeqCst);
                assert!(
                    snap.count <= after,
                    "snapshot count {} exceeds recorded {}",
                    snap.count,
                    after
                );
                let (p50, p95, p99) = (snap.p50(), snap.p95(), snap.p99());
                assert!(p50 <= p95, "p50 {p50} > p95 {p95}");
                assert!(p95 <= p99, "p95 {p95} > p99 {p99}");
                assert!(p99 <= snap.max_micros.max(p99), "p99 above max");
                snapshots += 1;
                if stop {
                    break;
                }
            }
            snapshots
        });
        // Let writers finish, then stop the snapshotter.
        // (Scope join order: spawned threads join at scope end; we flag
        // done once the writers' handles would be joined — simplest is a
        // short sleep loop watching the recorded count.)
        while recorded.load(Ordering::SeqCst) < (WRITERS as u64) * PER_WRITER {
            std::thread::yield_now();
        }
        done.store(true, Ordering::SeqCst);
        let snapshots = snapshotter.join().expect("snapshotter panicked");
        assert!(snapshots > 0, "snapshotter never ran");
    });

    // Quiesced: the final snapshot sees exactly every sample.
    let final_snap = hist.snapshot();
    assert_eq!(final_snap.count, (WRITERS as u64) * PER_WRITER);
}

/// Span exit is guard-based: a panic inside a nested span unwinds
/// through the guards, each of which records, so a worker thread that
/// catches a panic keeps tracing correctly.
#[test]
fn span_nesting_survives_panics() {
    let obs = Obs::new();
    obs.set_spans_enabled(true);

    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _outer = obs.span(Stage::QueryExec);
        let _inner = obs.span(Stage::QueryParse);
        panic!("mid-span failure");
    }));
    assert!(result.is_err(), "the panic must propagate");

    // Both spans recorded their (truncated) elapsed time on unwind…
    assert_eq!(obs.query_exec.snapshot().count, 1);
    assert_eq!(obs.query_parse.snapshot().count, 1);

    // …and the thread keeps tracing normally afterwards.
    drop(obs.span(Stage::QueryExec));
    assert_eq!(obs.query_exec.snapshot().count, 2);
}

/// Purpose counters and the slow-query ring stay consistent under
/// concurrent recorders (the ring never exceeds its bound).
#[test]
fn record_query_is_thread_safe() {
    let obs = Arc::new(Obs::new());
    obs.set_slow_query_threshold(Some(Duration::from_micros(1)));
    std::thread::scope(|s| {
        for t in 0..4 {
            let obs = obs.clone();
            s.spawn(move || {
                let purpose = if t % 2 == 0 { "audit" } else { "billing" };
                for _ in 0..500 {
                    obs.record_query("select", Some(purpose), 1, Duration::from_micros(10));
                }
            });
        }
    });
    let snap = obs.snapshot();
    let total: u64 = snap.purposes.iter().map(|(_, c)| c.queries).sum();
    assert_eq!(total, 2000);
    assert!(snap.slow_queries.len() <= instant_obs::registry::SLOW_LOG_CAP);
    assert_eq!(snap.hist("query.total").map(|h| h.count), Some(2000));
}
