//! Crash-recovery integration tests.
//!
//! The invariants under test:
//!
//! 1. committed work survives a crash;
//! 2. a crash can never make a tuple *regain* accuracy (no resurrection of
//!    degraded states) — the property the whole degradation-aware WAL
//!    design exists to guarantee;
//! 3. recovery is idempotent (recovering twice = once);
//! 4. key shredding makes pre-checkpoint images unrecoverable even when
//!    the log file itself is retained.

use std::path::PathBuf;
use std::sync::Arc;

use instantdb::prelude::*;

fn schema() -> TableSchema {
    let gt: Arc<dyn Hierarchy> = Arc::new(location_tree_fig1());
    TableSchema::new(
        "person",
        vec![
            Column::stable("id", DataType::Int).with_index(),
            Column::degradable("location", DataType::Str, gt, AttributeLcp::fig2_location())
                .unwrap()
                .with_index(),
        ],
    )
    .unwrap()
}

struct TempDbPath(PathBuf);

impl TempDbPath {
    fn new(tag: &str) -> TempDbPath {
        let p = std::env::temp_dir().join(format!(
            "instantdb-it-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let t = TempDbPath(p);
        t.cleanup();
        t
    }
    fn cleanup(&self) {
        for ext in ["idb", "wal"] {
            let mut s = self.0.as_os_str().to_os_string();
            s.push(".");
            s.push(ext);
            let p = PathBuf::from(s);
            let _ = std::fs::remove_file(&p);
            let _ = std::fs::remove_dir_all(&p); // the WAL is a segment dir
        }
    }
}

impl Drop for TempDbPath {
    fn drop(&mut self) {
        self.cleanup();
    }
}

fn cfg(path: &TempDbPath) -> DbConfig {
    DbConfig {
        path: Some(path.0.clone()),
        ..DbConfig::default()
    }
}

fn row(id: i64, addr: &str) -> Vec<Value> {
    vec![Value::Int(id), Value::Str(addr.into())]
}

#[test]
fn committed_inserts_survive_crash_without_checkpoint() {
    let path = TempDbPath::new("nockpt");
    let clock = MockClock::new();
    {
        let db = Db::open(cfg(&path), clock.shared()).unwrap();
        db.create_table(schema()).unwrap();
        for i in 0..20 {
            db.insert("person", &row(i, "4 rue Jussieu")).unwrap();
        }
        drop(db); // crash: no checkpoint, dirty pages lost
    }
    let db = Db::recover_with_schemas(cfg(&path), clock.shared(), vec![schema()]).unwrap();
    let table = db.catalog().get("person").unwrap();
    assert_eq!(table.live_count().unwrap(), 20);
    // Indexes rebuilt consistently.
    assert_eq!(
        table
            .index_probe_stable(instantdb::common::ColumnId(0), &Value::Int(7))
            .unwrap()
            .len(),
        1
    );
    // Scheduler re-armed for all 20 tuples.
    assert_eq!(db.scheduler().len(), 20);
}

#[test]
fn degraded_state_never_resurrects() {
    let path = TempDbPath::new("nores");
    let clock = MockClock::new();
    {
        let db = Db::open(cfg(&path), clock.shared()).unwrap();
        db.create_table(schema()).unwrap();
        for i in 0..10 {
            db.insert("person", &row(i, "Drienerlolaan 5")).unwrap();
        }
        clock.advance(Duration::hours(2));
        db.pump_degradation().unwrap(); // all at city
        clock.advance(Duration::days(2));
        db.pump_degradation().unwrap(); // all at region
        drop(db); // crash
    }
    let db = Db::recover_with_schemas(cfg(&path), clock.shared(), vec![schema()]).unwrap();
    let table = db.catalog().get("person").unwrap();
    let tuples = table.scan().unwrap();
    assert_eq!(tuples.len(), 10);
    for (_, t) in &tuples {
        assert_eq!(
            t.row[1],
            Value::Str("Overijssel".into()),
            "recovery must land at the latest degraded state"
        );
        assert_eq!(t.stages[0], Some(2));
    }
}

#[test]
fn crash_between_degradation_steps_is_consistent() {
    let path = TempDbPath::new("midstep");
    let clock = MockClock::new();
    {
        let db = Db::open(cfg(&path), clock.shared()).unwrap();
        db.create_table(schema()).unwrap();
        // Stagger inserts so only some tuples have degraded at crash time.
        for i in 0..5 {
            db.insert("person", &row(i, "4 rue Jussieu")).unwrap();
        }
        clock.advance(Duration::minutes(50));
        for i in 5..10 {
            db.insert("person", &row(i, "4 rue Jussieu")).unwrap();
        }
        clock.advance(Duration::minutes(20)); // first batch past 1 h, second not
        db.pump_degradation().unwrap();
        drop(db);
    }
    let db = Db::recover_with_schemas(cfg(&path), clock.shared(), vec![schema()]).unwrap();
    let table = db.catalog().get("person").unwrap();
    let mut cities = 0;
    let mut addresses = 0;
    for (_, t) in table.scan().unwrap() {
        match &t.row[1] {
            Value::Str(s) if s == "Paris" => cities += 1,
            Value::Str(s) if s == "4 rue Jussieu" => addresses += 1,
            other => panic!("unexpected location {other:?}"),
        }
    }
    assert_eq!((cities, addresses), (5, 5));
    // Pumping after recovery finishes the stragglers on schedule.
    clock.advance(Duration::hours(1));
    db.pump_degradation().unwrap();
    for (_, t) in table.scan().unwrap() {
        assert_eq!(t.row[1], Value::Str("Paris".into()));
    }
}

#[test]
fn recovery_is_idempotent() {
    let path = TempDbPath::new("idem");
    let clock = MockClock::new();
    {
        let db = Db::open(cfg(&path), clock.shared()).unwrap();
        db.create_table(schema()).unwrap();
        db.insert("person", &row(1, "4 rue Jussieu")).unwrap();
        db.checkpoint().unwrap();
        db.insert("person", &row(2, "Rue de la Paix")).unwrap();
        drop(db);
    }
    // Recover once, crash immediately (no new work), recover again.
    {
        let db = Db::recover_with_schemas(cfg(&path), clock.shared(), vec![schema()]).unwrap();
        assert_eq!(db.catalog().get("person").unwrap().live_count().unwrap(), 2);
        drop(db);
    }
    let db = Db::recover_with_schemas(cfg(&path), clock.shared(), vec![schema()]).unwrap();
    assert_eq!(
        db.catalog().get("person").unwrap().live_count().unwrap(),
        2,
        "double recovery must not duplicate tuples"
    );
}

#[test]
fn user_delete_survives_crash() {
    let path = TempDbPath::new("del");
    let clock = MockClock::new();
    {
        let db = Db::open(cfg(&path), clock.shared()).unwrap();
        db.create_table(schema()).unwrap();
        let t1 = db.insert("person", &row(1, "4 rue Jussieu")).unwrap();
        db.insert("person", &row(2, "Rue de la Paix")).unwrap();
        let table = db.catalog().get("person").unwrap();
        db.delete_tuple(&table, t1).unwrap();
        drop(db);
    }
    let db = Db::recover_with_schemas(cfg(&path), clock.shared(), vec![schema()]).unwrap();
    let table = db.catalog().get("person").unwrap();
    let tuples = table.scan().unwrap();
    assert_eq!(tuples.len(), 1);
    assert_eq!(tuples[0].1.row[0], Value::Int(2));
}

#[test]
fn shredded_log_images_stay_dead_across_restart() {
    let path = TempDbPath::new("shred");
    let clock = MockClock::new();
    {
        let db = Db::open(cfg(&path), clock.shared()).unwrap();
        db.create_table(schema()).unwrap();
        db.insert("person", &row(1, "4 rue Jussieu")).unwrap();
        clock.advance(Duration::hours(2));
        db.pump_degradation().unwrap();
        db.checkpoint().unwrap(); // shreds the insert's window
        drop(db);
    }
    let db = Db::recover_with_schemas(cfg(&path), clock.shared(), vec![schema()]).unwrap();
    // The shred watermark survived the restart: the insert's window —
    // whose key this process never derived — cannot be re-derived.
    let insert_window = db.keystore().window_of(Timestamp::ZERO);
    assert!(db.keystore().is_shredded(insert_window));
    assert!(db.keystore().key_of(insert_window).is_none());
    // And the recovered state is the degraded one.
    let table = db.catalog().get("person").unwrap();
    let (_, t) = &table.scan().unwrap()[0];
    assert_eq!(t.row[1], Value::Str("Paris".into()));
}

#[test]
fn expunge_survives_crash() {
    let path = TempDbPath::new("expunge");
    let clock = MockClock::new();
    {
        let db = Db::open(cfg(&path), clock.shared()).unwrap();
        db.create_table(schema()).unwrap();
        db.insert("person", &row(1, "4 rue Jussieu")).unwrap();
        db.insert("person", &row(2, "Science Park 123")).unwrap();
        db.checkpoint().unwrap();
        // Full life cycle for both tuples.
        clock.advance(Duration::months(3));
        let r = db.pump_degradation().unwrap();
        assert_eq!(r.expunged, 2);
        drop(db);
    }
    let db = Db::recover_with_schemas(cfg(&path), clock.shared(), vec![schema()]).unwrap();
    assert_eq!(
        db.catalog().get("person").unwrap().live_count().unwrap(),
        0,
        "expunged tuples must not come back"
    );
    assert!(db.scheduler().is_empty());
}

/// A pool flush between a checkpoint and a crash (`metrics::
/// storage_footprint` forces one; an eviction would too) puts pages on
/// disk that the checkpoint never saw and tuples that are further along
/// their life cycle than the log's images of them. Recovery must find
/// every acknowledged row exactly once — and what it finds must be
/// everything there is: nothing may outlive the life cycle on a page no
/// scan or pump visits.
#[test]
fn acked_inserts_survive_flush_between_checkpoint_and_crash() {
    const LOADED: i64 = 600;
    const TAIL: i64 = 200;
    let path = TempDbPath::new("flush-after-ckpt");
    let clock = MockClock::new();
    {
        let db = Db::open(cfg(&path), clock.shared()).unwrap();
        db.create_table(schema()).unwrap();
        for i in 0..LOADED {
            db.insert("person", &row(i, "4 rue Jussieu")).unwrap();
        }
        db.checkpoint().unwrap();
        // The tail arrives over two hours, so its older half is past the
        // first transition when the pump runs and the newer half is not.
        for i in LOADED..LOADED + TAIL {
            db.insert("person", &row(i, "4 rue Jussieu")).unwrap();
            clock.advance(Duration::secs(2 * 3600 / TAIL as u64));
        }
        db.pump_degradation().unwrap();
        instantdb::core::metrics::storage_footprint(&db).unwrap(); // flush_all, no checkpoint
        drop(db); // crash
    }
    let db = Db::recover_with_schemas(cfg(&path), clock.shared(), vec![schema()]).unwrap();
    let table = db.catalog().get("person").unwrap();
    let copies: Vec<(i64, usize)> = (0..LOADED + TAIL)
        .map(|id| {
            let tids = table
                .index_probe_stable(instantdb::common::ColumnId(0), &Value::Int(id))
                .unwrap();
            (id, tids.len())
        })
        .filter(|(_, n)| *n != 1)
        .collect();
    assert!(
        copies.is_empty(),
        "{} acknowledged rows lost or duplicated by recovery, first (id, copies) {:?}",
        copies.len(),
        copies.first()
    );
    assert_eq!(table.live_count().unwrap() as i64, LOADED + TAIL);

    // Run the whole life cycle out: with every tuple expunged and the log
    // checkpointed away, no accurate address may remain anywhere.
    clock.advance(Duration::months(3));
    db.pump_degradation().unwrap();
    assert_eq!(table.live_count().unwrap(), 0);
    db.checkpoint().unwrap();
    let needle = b"4 rue Jussieu";
    for (name, img) in db.forensic_images().unwrap() {
        let hits = img.windows(needle.len()).filter(|w| w == needle).count();
        assert_eq!(
            hits, 0,
            "{hits} accurate addresses still in the {name} image"
        );
    }
}

impl TempDbPath {
    /// Extensions of everything on disk under this path prefix, sorted.
    fn artifacts(&self) -> Vec<String> {
        let stem = format!("{}.", self.0.file_name().unwrap().to_str().unwrap());
        let mut exts: Vec<String> = std::fs::read_dir(self.0.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter_map(|n| n.strip_prefix(&stem).map(str::to_string))
            .collect();
        exts.sort();
        exts
    }
}

/// A `<path>.meta` beside the data file marks the older layout, whose
/// pages name no owner: reject it by name instead of misreading every
/// page as free and "recovering" an empty database over it.
#[test]
fn old_layout_with_meta_side_file_is_rejected_untouched() {
    let path = TempDbPath::new("old-meta");
    let meta = PathBuf::from(format!("{}.meta", path.0.display()));
    std::fs::write(&meta, "shredded \ntable person 1 pages 1,2\n").unwrap();
    let err = Db::recover_with_schemas(cfg(&path), MockClock::new().shared(), vec![schema()])
        .unwrap_err();
    assert!(
        matches!(&err, Error::Unsupported(msg) if msg.contains(".meta")),
        "got {err:?}"
    );
    assert_eq!(path.artifacts(), ["meta"], "nothing created beside it");
    std::fs::remove_file(&meta).unwrap();
}

/// One truth: a checkpointed data directory is the data file and the log.
#[test]
fn checkpoint_leaves_only_the_data_file_and_the_log() {
    let path = TempDbPath::new("two-artifacts");
    let db = Db::open(cfg(&path), MockClock::new().shared()).unwrap();
    db.create_table(schema()).unwrap();
    db.insert("person", &row(1, "4 rue Jussieu")).unwrap();
    db.checkpoint().unwrap();
    assert_eq!(path.artifacts(), ["idb", "wal"]);
}
