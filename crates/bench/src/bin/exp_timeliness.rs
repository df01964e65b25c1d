//! E7: timeliness of degradation enforcement.
//!
//! N tuples' transitions all come due; the pump executes them in batches of
//! configurable size. Reported: throughput (transitions/s of wall time) and
//! the lateness distribution (how far behind its due time each transition
//! executed, in *simulated* time — here dominated by queue drain order).
//! Expected shape: throughput grows with batch size (fewer WAL syncs /
//! system transactions), lateness bounded by the pump interval.
//!
//! Run: `cargo run --release -p instant_bench --bin exp_timeliness`

use std::time::Instant;

use instant_bench::{rate, setup, Report};
use instant_common::{Duration, MockClock, Value};
use instant_core::baseline::Protection;
use instant_core::db::WalMode;
use instant_lcp::AttributeLcp;
use instant_workload::location::LocationDomain;
use instant_workload::rng::Rng;

const TUPLES: usize = 20_000;

fn main() {
    let domain = setup::location_domain();
    let mut r = Report::new(
        "E7 — degradation throughput & lateness vs batch size \
         (20k due transitions, sealed WAL)",
        &[
            "batch size",
            "wall ms",
            "transitions/s",
            "batches(sys txs)",
            "p50 lateness",
            "p99 lateness",
            "max lateness",
        ],
    );
    for batch in [1usize, 16, 64, 256, 1024, 0] {
        let label = if batch == 0 {
            "unbounded".to_string()
        } else {
            batch.to_string()
        };
        let row = run(&domain, batch, WalMode::Sealed);
        r.row_strings(vec![
            label,
            row.0.to_string(),
            row.1,
            row.2.to_string(),
            row.3.clone(),
            row.4.clone(),
            row.5.clone(),
        ]);
    }
    r.emit("e7_timeliness");

    // WAL-mode ablation at a fixed batch size.
    let mut r2 = Report::new(
        "E7b — WAL-mode ablation (batch 256)",
        &["wal mode", "wall ms", "transitions/s"],
    );
    for (name, mode) in [
        ("off", WalMode::Off),
        ("plain", WalMode::Plain),
        ("sealed", WalMode::Sealed),
    ] {
        let row = run(&domain, 256, mode);
        r2.row_strings(vec![name.to_string(), row.0.to_string(), row.1]);
    }
    r2.emit("e7b_wal_ablation");
}

fn run(
    domain: &LocationDomain,
    batch: usize,
    wal_mode: WalMode,
) -> (u128, String, u64, String, String, String) {
    let clock = MockClock::new();
    let scheme = Protection::Degradation(
        AttributeLcp::from_pairs(&[(0, Duration::hours(1)), (3, Duration::days(30))]).unwrap(),
    );
    let db = setup::events_db(&clock, domain, &scheme, |cfg| {
        cfg.batch_max = batch;
        cfg.wal_mode = wal_mode;
        cfg.buffer_frames = 4096;
    });
    let mut rng = Rng::new(1);
    for i in 0..TUPLES {
        let addr = domain.sample_address(&mut rng).to_string();
        db.insert(
            "events",
            &[
                Value::Int(i as i64),
                Value::Str(format!("user{}", i % 100)),
                Value::Str(addr),
            ],
        )
        .unwrap();
    }
    // Everything comes due at once.
    clock.advance(Duration::hours(2));
    let (_, sys_before) = db.tx_manager().counters();
    let start = Instant::now();
    let report = db.pump_degradation().unwrap();
    let wall = start.elapsed();
    assert_eq!(report.fired, TUPLES);
    let (_, sys_after) = db.tx_manager().counters();
    let h = db.scheduler().lateness();
    (
        wall.as_millis(),
        rate(report.fired, wall.as_secs_f64()),
        sys_after - sys_before,
        h.quantile(0.5).to_string(),
        h.quantile(0.99).to_string(),
        h.max().to_string(),
    )
}
