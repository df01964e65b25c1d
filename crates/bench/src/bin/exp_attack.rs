//! E5: attack frequency vs captured accurate data — the paper's claim 2:
//! "to be effective, an attack targeting a database running a data
//! degradation process must be repeated with a frequency smaller than the
//! duration of the shortest degradation step."
//!
//! A stream runs for 14 simulated days with a 6-hour accurate stage. A
//! snapshot attacker strikes at each of several periods; we report the
//! fraction of all accurate values it ever observed.
//!
//! Checked claim: for every attack period the captured fraction is at most
//! min(1, step/period) + 0.01, and it is at least 0.95 when the period is
//! no longer than the 6 h step. Exits 1 naming each failing period.
//!
//! Run: `cargo run --release -p instant_bench --bin exp_attack`

use std::process::ExitCode;

use instant_bench::{setup, Claim, Report};
use instant_common::{Duration, MockClock, Timestamp, Value};
use instant_core::baseline::Protection;
use instant_lcp::AttributeLcp;
use instant_workload::events::{EventStream, EventStreamConfig};
use instant_workload::location::LocationDomain;

const SIM_DAYS: u64 = 14;
const ACCURATE_STAGE: Duration = Duration::hours(6);
/// Slack on the step/period bound: the stream is Poisson, not uniform.
const BOUND_SLACK: f64 = 0.01;
/// The least capture an attack at least as frequent as the step must reach.
const FREQUENT_CAPTURE: f64 = 0.95;

fn main() -> ExitCode {
    let domain = setup::location_domain();
    let periods = [
        ("1h", Duration::hours(1)),
        ("3h", Duration::hours(3)),
        ("6h", Duration::hours(6)),
        ("12h", Duration::hours(12)),
        ("1d", Duration::days(1)),
        ("3d", Duration::days(3)),
        ("7d", Duration::days(7)),
    ];
    let mut r = Report::new(
        "E5 — snapshot-attack frequency vs captured accurate values \
         (shortest step = 6h)",
        &[
            "attack period",
            "snapshots",
            "accurate captured",
            "universe",
            "fraction",
            "step/period bound",
        ],
    );
    let mut claim = Claim::new(
        "captured fraction <= min(1, step/period) + 0.01 for every period, \
         and >= 0.95 while the period <= the 6h step",
    );
    for (label, period) in periods {
        let (captured, universe, snapshots) = run(&domain, period);
        let bound = (ACCURATE_STAGE.as_micros() as f64 / period.as_micros() as f64).min(1.0);
        let fraction = captured as f64 / universe as f64;
        r.row(vec![
            label.to_string(),
            snapshots.to_string(),
            captured.to_string(),
            universe.to_string(),
            format!("{fraction:.3}"),
            format!("{bound:.3}"),
        ]);
        claim.check(fraction <= bound + BOUND_SLACK, || {
            format!("{label}: captured {fraction:.3} > bound {bound:.3} + {BOUND_SLACK}")
        });
        claim.check(period > ACCURATE_STAGE || fraction >= FREQUENT_CAPTURE, || {
            format!("{label}: captured {fraction:.3} < {FREQUENT_CAPTURE} at a period within the step")
        });
    }
    r.emit("e5_attack_frequency");
    println!("{claim}");
    claim.exit_code()
}

fn run(domain: &LocationDomain, period: Duration) -> (usize, usize, usize) {
    let clock = MockClock::new();
    let scheme = Protection::Degradation(
        AttributeLcp::from_pairs(&[
            (0, ACCURATE_STAGE),
            (1, Duration::days(2)),
            (3, Duration::days(10)),
        ])
        .unwrap(),
    );
    let db = setup::events_db(&clock, domain, &scheme);
    let mut stream = EventStream::new(
        EventStreamConfig {
            events_per_hour: 20.0,
            ..Default::default()
        },
        domain,
        777, // identical stream for every attack period
        Timestamp::ZERO,
    );
    let horizon = Timestamp::ZERO + Duration::days(SIM_DAYS);
    let mut next_attack = Timestamp::ZERO + period;
    // Claim 2 is about *events*: which tuples was the attacker ever able to
    // observe in their accurate (d0) state? Track tuple ids, not values —
    // popular addresses recurring in later windows must not count for the
    // events the attacker already missed.
    let mut observed_accurate: std::collections::HashSet<i64> = Default::default();
    let mut inserted = 0usize;
    let mut snapshots = 0usize;
    let table = db.catalog().get("events").unwrap();
    let mut next_event = stream.next_event();
    loop {
        // Interleave events and attacks in timestamp order.
        if next_event.at < next_attack && next_event.at < horizon {
            setup::ingest(&clock, &db, &next_event);
            inserted += 1;
            next_event = stream.next_event();
        } else if next_attack < horizon {
            setup::advance_to(&clock, &db, next_attack);
            snapshots += 1;
            for (_tid, t) in table.scan().unwrap() {
                if t.stages[0] == Some(0) {
                    let Value::Int(id) = t.row[0] else {
                        unreachable!("events.id is an INT column")
                    };
                    observed_accurate.insert(id);
                }
            }
            next_attack += period;
        } else {
            break;
        }
    }
    (observed_accurate.len(), inserted, snapshots)
}
