//! E6: usability — the paper's claim 3: "compared to data anonymization,
//! data degradation applies to attributes describing a recorded event while
//! keeping the identity of the donor intact … degrading the data rather
//! than deleting it offers a new compromise between privacy preservation
//! and application reach."
//!
//! Three application purposes query stores aged 45 days under each scheme:
//!
//! * `recent-exact` — user-facing: this user's accurate locations (d0);
//! * `user-history` — user-facing: this user's locations at city level,
//!   identity preserved (the anonymization baseline by construction cannot
//!   answer it at city accuracy; retention has expired the history);
//! * `country-stats` — analytics: events per country (d3).
//!
//! Reported: answered rows per purpose. Expected shape: degradation answers
//! the long-lived purposes where retention returns nothing, and the recent
//! accurate purpose where the static-anonymized store returns nothing.
//!
//! Run: `cargo run --release -p instant_bench --bin exp_usability`

use instant_bench::{setup, Report};
use instant_common::{Duration, LevelId, MockClock, Timestamp, Value};
use instant_core::baseline::{Protection, FOREVER};
use instant_core::db::WalMode;
use instant_core::query::session::Session;
use instant_lcp::AttributeLcp;
use instant_workload::events::{EventStream, EventStreamConfig};
use instant_workload::location::LocationDomain;

const SIM_DAYS: u64 = 45;

fn main() {
    let domain = setup::location_domain();
    let schemes = vec![
        Protection::Retention(Duration::days(30)),
        Protection::StaticAnon(LevelId(2), FOREVER),
        Protection::Degradation(
            AttributeLcp::from_pairs(&[
                (0, Duration::hours(6)),
                (1, Duration::days(2)),
                (2, Duration::days(14)),
                (3, Duration::days(60)),
            ])
            .unwrap(),
        ),
    ];
    let mut r = Report::new(
        "E6 — rows answered per purpose after 45 simulated days",
        &[
            "scheme",
            "recent-exact(d0)",
            "user-history(city)",
            "country-stats(d3)",
            "live tuples",
        ],
    );
    for scheme in &schemes {
        let (exact, history, stats, live) = run(&domain, scheme);
        r.row_strings(vec![
            scheme.label(),
            exact.to_string(),
            history.to_string(),
            stats.to_string(),
            live.to_string(),
        ]);
    }
    r.emit("e6_usability");
    println!(
        "Reading: retention serves all purposes only by keeping everything \
         accurate (maximum\nexposure) and loses all history past its TTL; \
         static anonymization cannot answer the\nidentity-linked city-level \
         purpose at all (its store is region-coarse); degradation\nanswers \
         each purpose from exactly the accuracy the purpose needs."
    );
}

fn run(domain: &LocationDomain, scheme: &Protection) -> (usize, usize, usize, usize) {
    let clock = MockClock::new();
    let db = setup::events_db(&clock, domain, scheme, |cfg| {
        cfg.wal_mode = WalMode::Off;
        cfg.buffer_frames = 8192;
    });
    let mut stream = EventStream::new(
        EventStreamConfig {
            events_per_hour: 15.0,
            users: 100,
            ..Default::default()
        },
        domain,
        2024,
        Timestamp::ZERO,
    );
    let horizon = Timestamp::ZERO + Duration::days(SIM_DAYS);
    let mut next = stream.next_event();
    while next.at < horizon {
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
        next = stream.next_event();
    }
    clock.set(horizon);
    db.pump_degradation().unwrap();

    let mut session = Session::new(db.clone());
    // Purpose 1: accurate recent fixes of the hottest user.
    session.clear_purpose();
    let exact = session
        .execute("SELECT id, location FROM events WHERE user = 'user0000'")
        .unwrap()
        .rows()
        .rows
        .len();
    // Purpose 2: that user's history at city accuracy — identity preserved.
    session
        .execute("DECLARE PURPOSE H SET ACCURACY LEVEL CITY FOR LOCATION")
        .unwrap();
    let history = session
        .execute("SELECT id, location FROM events WHERE user = 'user0000'")
        .unwrap()
        .rows()
        .rows
        .len();
    // Purpose 3: aggregate stats at country level.
    session
        .execute("DECLARE PURPOSE S SET ACCURACY LEVEL COUNTRY FOR LOCATION")
        .unwrap();
    let stats = session
        .execute("SELECT id FROM events WHERE location = 'Country00'")
        .unwrap()
        .rows()
        .rows
        .len();
    let live = db.catalog().get("events").unwrap().live_count().unwrap();
    let _ = Value::Null;
    (exact, history, stats, live)
}
