//! E12: storage reclamation under steady insert + expunge.
//!
//! A short-lifetime LCP drives continuous expunge; we track heap size, live
//! tuples and vacuum reclaim over simulated days. The store must not grow
//! without bound although the stream never stops: complete disappearance
//! frees the space that new tuples reuse.
//!
//! Checked claim: heap pages stop growing after the first lifetime — from
//! the first day past it to the last day the heap gains fewer pages than it
//! gained on day 1 alone — and vacuum reclaims bytes on every day with an
//! expunge behind it. Exits 1 naming each failing day.
//!
//! Run: `cargo run --release -p instant_bench --bin exp_storage`

use std::process::ExitCode;
use std::sync::atomic::Ordering;

use instant_bench::{setup, Claim, Report};
use instant_common::{Duration, MockClock, Timestamp};
use instant_core::baseline::Protection;
use instant_lcp::AttributeLcp;
use instant_workload::events::{EventStream, EventStreamConfig};

const DAYS: u64 = 20;

fn main() -> ExitCode {
    let domain = setup::location_domain();
    let clock = MockClock::new();
    // ~3-day total lifetime → steady state ≈ 3 days of stream.
    let lcp = AttributeLcp::from_pairs(&[
        (0, Duration::hours(2)),
        (1, Duration::days(1)),
        (3, Duration::days(2)),
    ])
    .unwrap();
    // The first sampled day past one whole lifetime.
    let settled = lcp
        .lifetime()
        .as_micros()
        .div_ceil(Duration::days(1).as_micros()) as usize;
    let db = setup::events_db(&clock, &domain, &Protection::Degradation(lcp));
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
    let mut pages = Vec::new();
    let mut claim = Claim::new(
        "heap pages stop growing after the first lifetime, \
         and vacuum reclaims bytes on every day after the first expunge",
    );
    for day in 0..=DAYS {
        let sample_at = Timestamp::ZERO + Duration::days(day);
        while next.at < sample_at {
            setup::ingest(&clock, &db, &next);
            inserted += 1;
            next = stream.next_event();
        }
        setup::advance_to(&clock, &db, sample_at);
        let reclaimed = db.vacuum().unwrap();
        let expunged = db.stats().expunges.load(Ordering::Relaxed);
        pages.push(table.heap().page_count());
        r.row(vec![
            day.to_string(),
            inserted.to_string(),
            table.live_count().unwrap().to_string(),
            expunged.to_string(),
            pages[day as usize].to_string(),
            reclaimed.to_string(),
        ]);
        claim.check(expunged == 0 || reclaimed > 0, || {
            format!("day {day}: {expunged} expunged so far, vacuum reclaimed 0 B")
        });
    }
    r.emit("e12_storage");

    let first_day = pages[1] - pages[0];
    let growth = pages[DAYS as usize].saturating_sub(pages[settled]);
    claim.check(growth < first_day, || {
        format!("days {settled}..{DAYS}: heap grew {growth} pages, day 1 alone grew {first_day}")
    });
    println!("{claim}");
    claim.exit_code()
}
