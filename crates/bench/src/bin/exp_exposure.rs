//! E4: exposure over time — the paper's claim 1, quantified.
//!
//! Four stores ingest the same Poisson location stream for 60 simulated
//! days under different protection schemes; a snapshot attacker strikes at
//! sampled instants and the residual-information exposure of each store is
//! recorded. Expected shape: degradation strictly below retention at every
//! t beyond the first LCP step; static anonymization constant between them;
//! no-protection = retention until the TTL cliff.
//!
//! Run: `cargo run --release -p instant_bench --bin exp_exposure`

use instant_bench::{f, setup, Report};
use instant_common::{Duration, LevelId, MockClock, Timestamp};
use instant_core::baseline::{Protection, FOREVER};
use instant_core::db::WalMode;
use instant_core::metrics::exposure_of_table;
use instant_lcp::AttributeLcp;
use instant_workload::events::{EventStream, EventStreamConfig};
use instant_workload::location::LocationDomain;

const DAYS: u64 = 60;
const SAMPLE_EVERY_DAYS: u64 = 5;

fn main() {
    let domain = setup::location_domain();
    let schemes = vec![
        Protection::None,
        Protection::Retention(Duration::days(30)),
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
            row.push(f(c[s], 1));
        }
        r.row_strings(row);
    }
    r.emit("e4_exposure_over_time");

    let mut r2 = Report::new("E4b — live tuples over time", &header_refs);
    for s in 0..samples {
        let mut row = vec![format!("{}", s as u64 * SAMPLE_EVERY_DAYS)];
        for c in &tuple_curves {
            row.push(c[s].to_string());
        }
        r2.row_strings(row);
    }
    r2.emit("e4b_tuples_over_time");
}

fn run_scheme(domain: &LocationDomain, scheme: &Protection) -> (Vec<f64>, Vec<usize>) {
    let clock = MockClock::new();
    // Logging off keeps the 60-day simulation fsync-free; this
    // experiment measures store contents only.
    let db = setup::events_db(&clock, domain, scheme, |cfg| {
        cfg.wal_mode = WalMode::Off;
        cfg.buffer_frames = 8192;
    });
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
        let sample_at = instant_common::Timestamp::ZERO + Duration::days(day);
        // Ingest everything arriving before this sample point.
        while next_event.at < sample_at {
            clock.set(next_event.at);
            db.pump_degradation().unwrap();
            db.insert(
                "events",
                &[
                    next_event.row[0].clone(),
                    next_event.row[1].clone(),
                    next_event.row[2].clone(),
                ],
            )
            .unwrap();
            next_event = stream.next_event();
        }
        clock.set(sample_at);
        db.pump_degradation().unwrap();
        if day % SAMPLE_EVERY_DAYS == 0 {
            let rep = exposure_of_table(&table).unwrap();
            exposures.push(rep.total_exposure);
            tuples.push(rep.tuples);
        }
    }
    (exposures, tuples)
}
