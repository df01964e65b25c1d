//! E4: exposure over time — the paper's claim 1, quantified.
//!
//! Four stores ingest the same Poisson location stream for 60 simulated
//! days under different protection schemes; a snapshot attacker strikes at
//! sampled instants and the residual-information exposure of each store is
//! recorded.
//!
//! Checked claim: on every sampled day from day 5 on, degradation's
//! exposure is below retention's; and until retention's 30-day TTL,
//! no-protection's exposure equals retention's (the TTL is the only thing
//! that separates them). Exits 1 naming each failing day.
//!
//! Run: `cargo run --release -p instant_bench --bin exp_exposure`

use std::process::ExitCode;

use instant_bench::{setup, Claim, Report};
use instant_common::{Duration, LevelId, MockClock, Timestamp};
use instant_core::baseline::{Protection, FOREVER};
use instant_core::metrics::exposure_of_table;
use instant_lcp::AttributeLcp;
use instant_workload::events::{EventStream, EventStreamConfig};
use instant_workload::location::LocationDomain;

const DAYS: u64 = 60;
const SAMPLE_EVERY_DAYS: u64 = 5;
const TTL_DAYS: u64 = 30;

fn main() -> ExitCode {
    let domain = setup::location_domain();
    // The claim below reads the curves by these positions.
    let schemes = vec![
        Protection::None,
        Protection::Retention(Duration::days(TTL_DAYS)),
        Protection::StaticAnon(LevelId(2), FOREVER),
        Protection::Degradation(
            AttributeLcp::from_pairs(&[
                (0, Duration::hours(1)),
                (1, Duration::days(1)),
                (2, Duration::days(7)),
                (3, Duration::days(30)),
            ])
            .unwrap(),
        ),
    ];

    // One row per sample day, one column per scheme.
    let mut curves: Vec<Vec<f64>> = Vec::new();
    let mut tuple_curves: Vec<Vec<usize>> = Vec::new();
    let mut labels = Vec::new();
    for scheme in &schemes {
        labels.push(scheme.label());
        let (exposures, tuples) = run_scheme(&domain, scheme);
        curves.push(exposures);
        tuple_curves.push(tuples);
    }

    let mut header: Vec<String> = vec!["day".into()];
    header.extend(labels.iter().cloned());
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut r = Report::new(
        "E4 — exposure over time (Σ residual information; identical 30-ev/h stream)",
        &header_refs,
    );
    let samples = (DAYS / SAMPLE_EVERY_DAYS) as usize + 1;
    for s in 0..samples {
        let mut row = vec![format!("{}", s as u64 * SAMPLE_EVERY_DAYS)];
        for c in &curves {
            row.push(format!("{:.1}", c[s]));
        }
        r.row(row);
    }
    r.emit("e4_exposure_over_time");

    let mut r2 = Report::new("E4b — live tuples over time", &header_refs);
    for s in 0..samples {
        let mut row = vec![format!("{}", s as u64 * SAMPLE_EVERY_DAYS)];
        for c in &tuple_curves {
            row.push(c[s].to_string());
        }
        r2.row(row);
    }
    r2.emit("e4b_tuples_over_time");

    let [none, retention, _static_anon, degradation] = &curves[..] else {
        unreachable!("four schemes")
    };
    let mut claim = Claim::new(
        "degradation exposes less than retention on every sampled day >= 5, \
         and no-protection equals retention until the 30-day TTL",
    );
    for s in 0..samples {
        let day = s as u64 * SAMPLE_EVERY_DAYS;
        claim.check(day < 5 || degradation[s] < retention[s], || {
            format!(
                "day {day}: degradation {:.1} >= retention {:.1}",
                degradation[s], retention[s]
            )
        });
        claim.check(day >= TTL_DAYS || none[s] == retention[s], || {
            format!(
                "day {day}: no-protection {:.1} != retention {:.1} before the TTL",
                none[s], retention[s]
            )
        });
    }
    println!("{claim}");
    claim.exit_code()
}

fn run_scheme(domain: &LocationDomain, scheme: &Protection) -> (Vec<f64>, Vec<usize>) {
    let clock = MockClock::new();
    let db = setup::events_db(&clock, domain, scheme);
    let mut stream = EventStream::new(
        EventStreamConfig {
            events_per_hour: 30.0,
            ..Default::default()
        },
        domain,
        4242,
        Timestamp::ZERO,
    );
    let mut exposures = Vec::new();
    let mut tuples = Vec::new();
    let table = db.catalog().get("events").unwrap();
    let mut next_event = stream.next_event();
    for day in 0..=DAYS {
        let sample_at = Timestamp::ZERO + Duration::days(day);
        // Ingest everything arriving before this sample point.
        while next_event.at < sample_at {
            setup::ingest(&clock, &db, &next_event);
            next_event = stream.next_event();
        }
        setup::advance_to(&clock, &db, sample_at);
        if day % SAMPLE_EVERY_DAYS == 0 {
            let rep = exposure_of_table(&table).unwrap();
            exposures.push(rep.total_exposure);
            tuples.push(rep.tuples);
        }
    }
    (exposures, tuples)
}
