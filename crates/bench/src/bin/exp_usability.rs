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
//!   answer it at city accuracy; retention answers it only from the last
//!   30 days, and at full accuracy);
//! * `country-stats` — analytics: events per country (d3).
//!
//! Reported: answered rows per purpose, each query under a declared
//! purpose at that accuracy.
//!
//! Checked claim: the static-anonymized store answers 0 rows at d0 and at
//! city (it holds nothing finer than region); degradation answers more
//! than 0 at both; and degradation's country-level count exceeds
//! retention's (retention has expired the history degradation keeps
//! coarse). Exits 1 naming each failing cell.
//!
//! Run: `cargo run --release -p instant_bench --bin exp_usability`

use std::process::ExitCode;

use instant_bench::{setup, Claim, Report};
use instant_common::{Duration, LevelId, MockClock, Timestamp};
use instant_core::baseline::{Protection, FOREVER};
use instant_core::query::session::Session;
use instant_lcp::AttributeLcp;
use instant_workload::events::{EventStream, EventStreamConfig};
use instant_workload::location::LocationDomain;

const SIM_DAYS: u64 = 45;

fn main() -> ExitCode {
    let domain = setup::location_domain();
    // The claim below reads the rows by these positions.
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
    let mut answered = Vec::new();
    for scheme in &schemes {
        let (exact, history, stats, live) = run(&domain, scheme);
        r.row(vec![
            scheme.label(),
            exact.to_string(),
            history.to_string(),
            stats.to_string(),
            live.to_string(),
        ]);
        answered.push((exact, history, stats));
    }
    r.emit("e6_usability");

    let [retention, static_anon, degradation] = answered[..] else {
        unreachable!("three schemes")
    };
    let mut claim = Claim::new(
        "static-anon answers 0 rows at d0 and city, degradation > 0 at both, \
         and degradation's country count exceeds retention's",
    );
    claim.check(static_anon.0 == 0, || {
        format!("static-anon answered {} rows at d0", static_anon.0)
    });
    claim.check(static_anon.1 == 0, || {
        format!("static-anon answered {} rows at city", static_anon.1)
    });
    claim.check(degradation.0 > 0, || {
        "degradation answered 0 rows at d0".into()
    });
    claim.check(degradation.1 > 0, || {
        "degradation answered 0 rows at city".into()
    });
    claim.check(degradation.2 > retention.2, || {
        format!(
            "degradation's country count {} <= retention's {}",
            degradation.2, retention.2
        )
    });
    println!("{claim}");
    claim.exit_code()
}

fn run(domain: &LocationDomain, scheme: &Protection) -> (usize, usize, usize, usize) {
    let clock = MockClock::new();
    let db = setup::events_db(&clock, domain, scheme);
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
        setup::ingest(&clock, &db, &next);
        next = stream.next_event();
    }
    setup::advance_to(&clock, &db, horizon);

    let mut session = Session::new(db.clone());
    // Purpose 1: accurate recent fixes of the hottest user.
    session
        .execute("DECLARE PURPOSE E SET ACCURACY LEVEL d0 FOR LOCATION")
        .unwrap();
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
    (exact, history, stats, live)
}
