//! E11: crash recovery — correctness and cost.
//!
//! For growing post-checkpoint workloads: crash, recover, verify that (a)
//! every committed tuple is back at its exact degraded state (engine ==
//! abstract model), (b) nothing resurrected to finer accuracy, and report
//! the recovery wall time against the replayed log size. Expected shape:
//! recovery time linear in the post-checkpoint log. Exits with status 1
//! if any run counts a state mismatch or a resurrection.
//!
//! Run: `cargo run --release -p instant_bench --bin exp_recovery`

use std::path::PathBuf;
use std::time::Instant;

use instant_bench::{setup, Report};
use instant_common::{Clock, Duration, MockClock, Value};
use instant_core::baseline::Protection;
use instant_core::db::{Db, DbConfig};
use instant_lcp::{AttributeLcp, Degrader, Hierarchy};
use instant_workload::location::LocationDomain;
use instant_workload::rng::Rng;

fn main() {
    let domain = setup::location_domain();
    let mut r = Report::new(
        "E11 — recovery time vs post-checkpoint log (crash mid-degradation)",
        &[
            "post-ckpt inserts",
            "log bytes",
            "recovered tuples",
            "state mismatches",
            "resurrections",
            "recovery ms",
        ],
    );
    let mut failures = 0usize;
    for n in [100usize, 500, 2000, 8000] {
        let row = run(&domain, n);
        failures += row.2 + row.3;
        r.row_strings(vec![
            n.to_string(),
            row.0.to_string(),
            row.1.to_string(),
            row.2.to_string(),
            row.3.to_string(),
            row.4.to_string(),
        ]);
    }
    r.emit("e11_recovery");
    if failures > 0 {
        eprintln!("exp_recovery: recovered state diverged from the model");
        std::process::exit(1);
    }
}

fn run(domain: &LocationDomain, n: usize) -> (u64, usize, usize, usize, u128) {
    let path = std::env::temp_dir().join(format!("instantdb-e11-{}-{n}", std::process::id()));
    cleanup(&path);
    let clock = MockClock::new();
    let cfg = DbConfig {
        path: Some(path.clone()),
        ..DbConfig::default()
    };
    let lcp = AttributeLcp::from_pairs(&[
        (0, Duration::hours(1)),
        (1, Duration::days(1)),
        (3, Duration::days(30)),
    ])
    .unwrap();
    let scheme = Protection::Degradation(lcp.clone());
    let schema = setup::events_schema(domain, &scheme);
    let degrader = Degrader::new(domain.hierarchy(), lcp).unwrap();

    // Phase 1: work, checkpoint, more work, degrade, crash.
    let mut expected: Vec<(i64, instant_common::Timestamp, String)> = Vec::new();
    let log_bytes;
    {
        let db = Db::open(cfg.clone(), clock.shared()).unwrap();
        db.create_table(schema.clone()).unwrap();
        let mut rng = Rng::new(n as u64);
        // Half the tuples before the checkpoint…
        for i in 0..n / 2 {
            let addr = domain.sample_address(&mut rng).to_string();
            db.insert(
                "events",
                &[
                    Value::Int(i as i64),
                    Value::Str(format!("user{}", i % 20)),
                    Value::Str(addr.clone()),
                ],
            )
            .unwrap();
            expected.push((i as i64, clock.now(), addr));
        }
        db.checkpoint().unwrap();
        // …half after, plus a degradation pass mid-flight.
        clock.advance(Duration::minutes(30));
        for i in n / 2..n {
            let addr = domain.sample_address(&mut rng).to_string();
            db.insert(
                "events",
                &[
                    Value::Int(i as i64),
                    Value::Str(format!("user{}", i % 20)),
                    Value::Str(addr.clone()),
                ],
            )
            .unwrap();
            expected.push((i as i64, clock.now(), addr));
        }
        clock.advance(Duration::hours(1));
        db.pump_degradation().unwrap(); // first batch past 1h → city
        log_bytes = db.wal().unwrap().log_size().unwrap_or(0);
        drop(db); // crash
    }

    // Phase 2: recover and verify against the abstract model.
    let start = Instant::now();
    let db = Db::recover_with_schemas(cfg, clock.shared(), vec![schema]).unwrap();
    let elapsed = start.elapsed().as_millis();
    let table = db.catalog().get("events").unwrap();
    let now = clock.now();
    let live: std::collections::HashMap<i64, Value> = table
        .scan()
        .unwrap()
        .into_iter()
        .map(|(_, t)| (t.row[0].as_int().unwrap(), t.row[2].clone()))
        .collect();
    let mut mismatches = 0usize;
    let mut resurrections = 0usize;
    for (id, birth, addr) in &expected {
        let predicted = degrader
            .value_at(&Value::Str(addr.clone()), now.since(*birth))
            .unwrap();
        match live.get(id) {
            Some(stored) => {
                if stored != &predicted {
                    mismatches += 1;
                    // A mismatch that is *finer* than predicted is a
                    // resurrection — the cardinal sin.
                    if domain.tree().level_of(stored) < domain.tree().level_of(&predicted) {
                        resurrections += 1;
                    }
                }
            }
            None => {
                if predicted != Value::Removed {
                    mismatches += 1;
                }
            }
        }
    }
    cleanup(&path);
    (log_bytes, live.len(), mismatches, resurrections, elapsed)
}

fn cleanup(path: &std::path::Path) {
    for ext in ["idb", "wal"] {
        let mut s = path.as_os_str().to_os_string();
        s.push(".");
        s.push(ext);
        let p = PathBuf::from(s);
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_dir_all(&p); // the WAL is a segment dir
    }
}
