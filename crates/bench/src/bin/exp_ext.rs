//! E13: Section IV extensions ablation.
//!
//! (a) Event-triggered vs time-triggered degradation: how much accurate-
//!     state lifetime does an "on-logout degrade immediately" trigger shave
//!     off, in exposure terms?
//! (b) Strict vs relaxed query semantics: answered rows at each requested
//!     accuracy over a mixed-age store.
//! (c) Per-user LCPs: standard vs paranoid routing, exposure each.
//!
//! Run: `cargo run --release -p instant_bench --bin exp_ext`

use std::sync::Arc;

use instant_bench::{f, setup, Report};
use instant_common::{Duration, MockClock, Value};
use instant_core::baseline::Protection;
use instant_core::db::{Db, WalMode};
use instant_core::ext::{degrade_where, insert_for_class, per_user_tables, PrivacyClass};
use instant_core::metrics::total_exposure;
use instant_core::query::session::{QuerySemantics, Session};
use instant_lcp::AttributeLcp;
use instant_workload::location::LocationDomain;
use instant_workload::rng::Rng;

fn main() {
    let domain = setup::location_domain();
    event_triggered(&domain);
    strict_vs_relaxed(&domain);
    per_user(&domain);
}

fn mk_db(clock: &MockClock) -> Arc<Db> {
    setup::open_db(clock, |cfg| cfg.wal_mode = WalMode::Off)
}

/// (a) sessions end (logout) long before the 6 h timer; an event trigger
/// degrades on logout.
fn event_triggered(domain: &LocationDomain) {
    let mut r = Report::new(
        "E13a — event-triggered vs time-triggered degradation (500 sessions)",
        &["mode", "exposure after logouts", "accurate tuples left"],
    );
    for triggered in [false, true] {
        let clock = MockClock::new();
        let db = mk_db(&clock);
        let scheme = Protection::Degradation(
            AttributeLcp::from_pairs(&[(0, Duration::hours(6)), (3, Duration::days(30))]).unwrap(),
        );
        db.create_table(setup::events_schema(domain, &scheme))
            .unwrap();
        let mut rng = Rng::new(5);
        for i in 0..500 {
            let addr = domain.sample_address(&mut rng).to_string();
            db.insert(
                "events",
                &[
                    Value::Int(i),
                    Value::Str(format!("user{}", i % 50)),
                    Value::Str(addr),
                ],
            )
            .unwrap();
        }
        // 30 minutes in, every session logs out.
        clock.advance(Duration::minutes(30));
        let table = db.catalog().get("events").unwrap();
        if triggered {
            degrade_where(&db, &table, |_| true).unwrap();
        } else {
            db.pump_degradation().unwrap(); // nothing due yet
        }
        let exposure = total_exposure(&db).unwrap();
        let accurate = table
            .scan()
            .unwrap()
            .iter()
            .filter(|(_, t)| t.stages[0] == Some(0))
            .count();
        r.row_strings(vec![
            if triggered {
                "on-logout trigger"
            } else {
                "timer only"
            }
            .to_string(),
            f(exposure, 1),
            accurate.to_string(),
        ]);
    }
    r.emit("e13a_event_triggered");
}

/// (b) strict vs relaxed σ/π over a mixed-age population.
fn strict_vs_relaxed(domain: &LocationDomain) {
    let clock = MockClock::new();
    let db = mk_db(&clock);
    let mut session = Session::new(db.clone());
    session.register_hierarchy("geo", domain.hierarchy());
    session
        .execute(
            "CREATE TABLE events (id INT INDEXED, user TEXT, location TEXT \
             DEGRADE USING geo LCP 'd0:1h -> d1:1d -> d2:7d -> d3:30d' INDEXED)",
        )
        .unwrap();
    // Three cohorts: fresh (d0), day-old (d1), week-old (d2).
    let mut rng = Rng::new(8);
    let mut id = 0i64;
    for (cohort, advance) in [
        (200, Duration::ZERO),
        (200, Duration::days(7)),
        (200, Duration::hours(25)),
    ] {
        clock.advance(advance);
        db.pump_degradation().unwrap();
        for _ in 0..cohort {
            let addr = domain.sample_address(&mut rng).to_string();
            session
                .execute(&format!(
                    "INSERT INTO events VALUES ({id}, 'u{}', '{addr}')",
                    id % 10
                ))
                .unwrap();
            id += 1;
        }
    }
    db.pump_degradation().unwrap();
    let mut r = Report::new(
        "E13b — strict vs relaxed σ semantics (600 tuples in 3 age cohorts)",
        &["requested level", "strict rows", "relaxed rows"],
    );
    for level in 0u8..4 {
        session
            .execute(&format!(
                "DECLARE PURPOSE P SET ACCURACY LEVEL d{level} FOR LOCATION"
            ))
            .unwrap();
        session.set_semantics(QuerySemantics::Strict);
        let strict = session
            .execute("SELECT id FROM events")
            .unwrap()
            .rows()
            .rows
            .len();
        session.set_semantics(QuerySemantics::Relaxed);
        let relaxed = session
            .execute("SELECT id FROM events")
            .unwrap()
            .rows()
            .rows
            .len();
        r.row_strings(vec![
            format!("d{level}"),
            strict.to_string(),
            relaxed.to_string(),
        ]);
    }
    r.emit("e13b_strict_vs_relaxed");
}

/// (c) per-user (paranoid) LCPs via table routing.
fn per_user(domain: &LocationDomain) {
    let clock = MockClock::new();
    let db = mk_db(&clock);
    let standard =
        AttributeLcp::from_pairs(&[(0, Duration::hours(6)), (3, Duration::days(30))]).unwrap();
    let paranoid =
        AttributeLcp::from_pairs(&[(0, Duration::minutes(15)), (3, Duration::days(2))]).unwrap();
    let routes = per_user_tables(&db, "events", domain.hierarchy(), standard, paranoid).unwrap();
    let mut rng = Rng::new(13);
    for i in 0..400i64 {
        let class = if i % 4 == 0 {
            PrivacyClass::Paranoid
        } else {
            PrivacyClass::Standard
        };
        let addr = domain.sample_address(&mut rng).to_string();
        insert_for_class(&db, &routes, class, &[Value::Int(i), Value::Str(addr)]).unwrap();
    }
    clock.advance(Duration::hours(1));
    db.pump_degradation().unwrap();
    let mut r = Report::new(
        "E13c — per-user LCPs one hour after collection",
        &["class", "tuples", "exposure", "mean/value"],
    );
    for (class, name) in [
        (PrivacyClass::Standard, "events_standard"),
        (PrivacyClass::Paranoid, "events_paranoid"),
    ] {
        let table = db.catalog().get(name).unwrap();
        let rep = instant_core::metrics::exposure_of_table(&table).unwrap();
        r.row_strings(vec![
            format!("{class:?}"),
            rep.tuples.to_string(),
            f(rep.total_exposure, 1),
            f(rep.mean_exposure(), 3),
        ]);
    }
    r.emit("e13c_per_user");
}
