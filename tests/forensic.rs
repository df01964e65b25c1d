//! Forensic integration tests: an offline attacker greps the raw heap and
//! WAL images under each engine configuration (heap policy naive /
//! overwrite × WAL plain / sealed), before and after checkpoint.
//!
//! After degradation has retired a state, no configuration channel of the
//! degradation-aware engine may still reveal it: not the heap image, not
//! the WAL image, not the index. The classical configuration *must* leak
//! (that's the baseline the paper argues against — if it stopped leaking,
//! the experiment would be measuring nothing).

use std::sync::Arc;

use instantdb::prelude::*;
use instantdb::workload::attacker::{forensic_needles, forensic_scan};

const FRAGMENTS: [&str; 3] = ["Jussieu", "Voluceau", "Drienerlolaan"];
const ADDRESSES: [&str; 3] = ["4 rue Jussieu", "Domaine de Voluceau", "Drienerlolaan 5"];

fn build(secure: SecurePolicy, wal_mode: WalMode) -> (MockClock, Arc<Db>) {
    let clock = MockClock::new();
    let db = Arc::new(
        Db::open(
            DbConfig {
                secure,
                wal_mode,
                ..DbConfig::default()
            },
            clock.shared(),
        )
        .unwrap(),
    );
    let gt: Arc<dyn Hierarchy> = Arc::new(location_tree_fig1());
    db.create_table(
        TableSchema::new(
            "person",
            vec![
                Column::stable("id", DataType::Int),
                Column::degradable("location", DataType::Str, gt, AttributeLcp::fig2_location())
                    .unwrap()
                    .with_index(),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    for (i, a) in ADDRESSES.iter().enumerate() {
        db.insert("person", &[Value::Int(i as i64), Value::Str((*a).into())])
            .unwrap();
    }
    (clock, db)
}

#[test]
fn secure_engine_leaks_nothing_after_degradation() {
    let (clock, db) = build(SecurePolicy::Overwrite, WalMode::Sealed);
    clock.advance(Duration::hours(2));
    db.pump_degradation().unwrap();
    let scanner = forensic_needles(FRAGMENTS.iter().copied());
    // Even BEFORE checkpoint: heap overwritten, WAL sealed.
    let r = forensic_scan(&db, &scanner).unwrap();
    assert!(
        r.clean(),
        "sealed+overwrite engine leaked: {:?}",
        r.recovered
            .iter()
            .map(|v| String::from_utf8_lossy(v).to_string())
            .collect::<Vec<_>>()
    );
}

#[test]
fn classical_engine_leaks_from_heap_and_log() {
    let (clock, db) = build(SecurePolicy::Naive, WalMode::Plain);
    clock.advance(Duration::hours(2));
    db.pump_degradation().unwrap();
    let scanner = forensic_needles(FRAGMENTS.iter().copied());
    let r = forensic_scan(&db, &scanner).unwrap();
    assert!(
        !r.clean(),
        "the classical baseline is supposed to leak — measurement broken?"
    );
    assert!(
        r.occurrences >= FRAGMENTS.len(),
        "expected hits in heap and log"
    );
}

#[test]
fn plain_wal_is_the_only_leak_with_secure_heap() {
    // Secure heap + plaintext WAL: the log is the residual channel — this
    // isolates why the paper says the *logs* must be revisited too.
    let (clock, db) = build(SecurePolicy::Overwrite, WalMode::Plain);
    clock.advance(Duration::hours(2));
    db.pump_degradation().unwrap();
    let scanner = forensic_needles(FRAGMENTS.iter().copied());
    let images = db.forensic_images().unwrap();
    let heap_img = images.iter().find(|(n, _)| n == "heap").unwrap();
    let wal_img = images.iter().find(|(n, _)| n == "wal").unwrap();
    let heap_report = scanner.scan([heap_img.1.as_slice()]);
    let wal_report = scanner.scan([wal_img.1.as_slice()]);
    assert!(heap_report.clean(), "secure heap must hold no pre-image");
    assert!(
        !wal_report.clean(),
        "plaintext WAL retains the insert images"
    );
    // ...and nothing else: a degradation step is logged without a value,
    // so not one of the cities the rows now hold is in the log.
    let gt = location_tree_fig1();
    for a in ADDRESSES {
        let city = &gt.degradation_path(a).unwrap()[1].1;
        let hits = wal_img
            .1
            .windows(city.len())
            .filter(|w| *w == city.as_bytes())
            .count();
        assert_eq!(hits, 0, "{city} logged {hits} times");
    }
    // Checkpoint truncation closes even that channel.
    db.checkpoint().unwrap();
    let r = forensic_scan(&db, &scanner).unwrap();
    assert!(r.clean());
}

#[test]
fn naive_heap_is_the_only_leak_with_sealed_wal() {
    // The mirror case: a sealed log is clean even before checkpoint, but
    // a naive heap keeps the pre-images in its slot tails — and a
    // checkpoint, which truncates the log, does nothing about the heap.
    let (clock, db) = build(SecurePolicy::Naive, WalMode::Sealed);
    clock.advance(Duration::hours(2));
    db.pump_degradation().unwrap();
    let scanner = forensic_needles(FRAGMENTS.iter().copied());
    let images = db.forensic_images().unwrap();
    let heap_img = images.iter().find(|(n, _)| n == "heap").unwrap();
    let wal_img = images.iter().find(|(n, _)| n == "wal").unwrap();
    assert!(
        !scanner.scan([heap_img.1.as_slice()]).clean(),
        "naive heap retains the pre-images"
    );
    assert!(
        scanner.scan([wal_img.1.as_slice()]).clean(),
        "sealed WAL must hold no plaintext pre-image"
    );
    db.checkpoint().unwrap();
    let r = forensic_scan(&db, &scanner).unwrap();
    assert!(!r.clean(), "checkpoint does not scrub the naive heap");
}

#[test]
fn expunged_tuples_leave_no_trace_in_secure_mode() {
    let (clock, db) = build(SecurePolicy::Overwrite, WalMode::Sealed);
    clock.advance(Duration::months(3));
    db.pump_degradation().unwrap(); // full life cycle: expunge
    db.checkpoint().unwrap();
    // Hunt for every form along each degradation path, not just the leaves.
    let mut all_forms: Vec<String> = Vec::new();
    let gt = location_tree_fig1();
    for a in ADDRESSES {
        for (_, label) in gt.degradation_path(a).unwrap() {
            all_forms.push(label);
        }
    }
    let scanner = forensic_needles(all_forms.iter().map(|s| s.as_str()));
    let r = forensic_scan(&db, &scanner).unwrap();
    assert!(
        r.clean(),
        "no form of an expunged tuple may survive: {:?}",
        r.recovered
            .iter()
            .map(|v| String::from_utf8_lossy(v).to_string())
            .collect::<Vec<_>>()
    );
    assert_eq!(db.catalog().get("person").unwrap().live_count().unwrap(), 0);
}

#[test]
fn index_holds_no_finer_entries_than_the_store() {
    let (clock, db) = build(SecurePolicy::Overwrite, WalMode::Sealed);
    clock.advance(Duration::hours(2));
    db.pump_degradation().unwrap();
    let table = db.catalog().get("person").unwrap();
    // Level-0 index empty; all entries now at level 1 (cities).
    let occupancy = table
        .index_occupancy(instantdb::common::ColumnId(1))
        .unwrap();
    assert_eq!(occupancy[0], 0, "d0 index entries must be gone");
    assert_eq!(occupancy[1], ADDRESSES.len());
    // Probing the index with the old accurate keys yields nothing.
    for a in ADDRESSES {
        let hits = table
            .index_probe_deg(
                instantdb::common::ColumnId(1),
                LevelId(0),
                &Value::Str(a.into()),
            )
            .unwrap();
        assert!(hits.is_empty(), "{a} still indexed at d0");
    }
}

#[test]
fn vacuum_scrubs_naive_residue() {
    let (clock, db) = build(SecurePolicy::Naive, WalMode::Off);
    clock.advance(Duration::hours(2));
    db.pump_degradation().unwrap();
    let scanner = forensic_needles(FRAGMENTS.iter().copied());
    let before = forensic_scan(&db, &scanner).unwrap();
    assert!(!before.clean(), "naive heap keeps tails");
    db.vacuum().unwrap();
    let after = forensic_scan(&db, &scanner).unwrap();
    assert!(
        after.clean(),
        "vacuum must scrub residue: {:?}",
        after.recovered
    );
}
