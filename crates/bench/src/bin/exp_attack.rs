//! E5: attack frequency vs captured accurate data — the paper's claim 2:
//! "to be effective, an attack targeting a database running a data
//! degradation process must be repeated with a frequency smaller than the
//! duration of the shortest degradation step."
//!
//! A stream runs for 14 simulated days with a 6-hour accurate stage. A
//! snapshot attacker strikes at each of several periods; we report the
//! fraction of all accurate values it ever observed. Expected shape:
//! capture ≈ 100% while the attack period ≤ the shortest step (6 h), then
//! decays ∝ step/period.
//!
//! Run: `cargo run --release -p instant_bench --bin exp_attack`

use instant_bench::{f, setup, Report};
use instant_common::{Duration, MockClock, Timestamp};
use instant_core::baseline::Protection;
use instant_core::db::WalMode;
use instant_lcp::AttributeLcp;
use instant_workload::events::{EventStream, EventStreamConfig};
use instant_workload::location::LocationDomain;

const SIM_DAYS: u64 = 14;
const ACCURATE_STAGE: Duration = Duration::hours(6);

fn main() {
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
    for (label, period) in periods {
        let (captured, universe, snapshots) = run(&domain, period);
        let bound = (ACCURATE_STAGE.as_micros() as f64 / period.as_micros() as f64).min(1.0);
        r.row_strings(vec![
            label.to_string(),
            snapshots.to_string(),
            captured.to_string(),
            universe.to_string(),
            f(captured as f64 / universe as f64, 3),
            f(bound, 3),
        ]);
    }
    r.emit("e5_attack_frequency");
    println!(
        "Reading: capture fraction tracks min(1, step/period) — attacks slower \
         than the\nshortest degradation step observe proportionally less accurate data."
    );
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
    // Logging off keeps the multi-day simulation fsync-free; this
    // experiment measures store contents only.
    let db = setup::events_db(&clock, domain, &scheme, |cfg| {
        cfg.wal_mode = WalMode::Off;
        cfg.buffer_frames = 8192;
    });
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
            inserted += 1;
            next_event = stream.next_event();
        } else if next_attack < horizon {
            clock.set(next_attack);
            db.pump_degradation().unwrap();
            snapshots += 1;
            for (_tid, t) in table.scan().unwrap() {
                if t.stages[0] == Some(0) {
                    observed_accurate.insert(match t.row[0] {
                        instant_common::Value::Int(i) => i,
                        _ => unreachable!(),
                    });
                }
            }
            next_attack += period;
        } else {
            break;
        }
    }
    (observed_accurate.len(), inserted, snapshots)
}
