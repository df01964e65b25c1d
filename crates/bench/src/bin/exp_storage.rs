//! E12: storage reclamation under steady insert + expunge.
//!
//! A short-lifetime LCP drives continuous expunge; we track heap size, live
//! tuples and vacuum reclaim over simulated days. Expected shape: live
//! tuples plateau (steady state), heap pages plateau after the first
//! vacuum-driven reuse cycle — the store does not grow without bound even
//! though the stream never stops (complete disappearance is enforced).
//!
//! Run: `cargo run --release -p instant_bench --bin exp_storage`

use instant_bench::{setup, Report};
use instant_common::{Duration, MockClock, Timestamp, Value};
use instant_core::baseline::Protection;
use instant_core::db::WalMode;
use instant_lcp::AttributeLcp;
use instant_workload::events::{EventStream, EventStreamConfig};

const DAYS: u64 = 20;

fn main() {
    let domain = setup::location_domain();
    let clock = MockClock::new();
    // 3-day total lifetime → steady state ≈ 3 days of stream.
    let scheme = Protection::Degradation(
        AttributeLcp::from_pairs(&[
            (0, Duration::hours(2)),
            (1, Duration::days(1)),
            (3, Duration::days(2)),
        ])
        .unwrap(),
    );
    let db = setup::events_db(&clock, &domain, &scheme, |cfg| {
        cfg.wal_mode = WalMode::Off;
        cfg.buffer_frames = 8192;
    });
    let table = db.catalog().get("events").unwrap();

    let mut stream = EventStream::new(
        EventStreamConfig {
            events_per_hour: 50.0,
            ..Default::default()
        },
        &domain,
        31337,
        Timestamp::ZERO,
    );
    let mut r = Report::new(
        "E12 — storage under steady insert + expunge (50 ev/h, 3-day lifetime)",
        &[
            "day",
            "inserted",
            "live",
            "expunged",
            "heap pages",
            "vacuum reclaimed B",
        ],
    );
    let mut next = stream.next_event();
    let mut inserted = 0usize;
    for day in 0..=DAYS {
        let sample_at = Timestamp::ZERO + Duration::days(day);
        while next.at < sample_at {
            clock.set(next.at);
            db.pump_degradation().unwrap();
            db.insert(
                "events",
                &[
                    next.row[0].clone(),
                    next.row[1].clone(),
                    next.row[2].clone(),
                ],
            )
            .unwrap();
            inserted += 1;
            next = stream.next_event();
        }
        clock.set(sample_at);
        db.pump_degradation().unwrap();
        let reclaimed = db.vacuum().unwrap();
        r.row_strings(vec![
            day.to_string(),
            inserted.to_string(),
            table.live_count().unwrap().to_string(),
            db.stats()
                .expunges
                .load(std::sync::atomic::Ordering::Relaxed)
                .to_string(),
            table.heap().page_count().to_string(),
            reclaimed.to_string(),
        ]);
    }
    r.emit("e12_storage");
    let _ = Value::Null;
}
