//! Group-commit pipeline + background checkpointer integration tests.
//!
//! The contracts under test, end to end through the engine:
//!
//! 1. N concurrent committers produce measurably fewer fsyncs than
//!    commits (the tentpole claim), and every acknowledged commit
//!    survives a crash;
//! 2. a tear mid-way through an unsynced group batch loses no
//!    acknowledged commit and resurrects no torn one;
//! 3. a full recovery round-trip through a background checkpoint +
//!    physical truncation lands on exactly the committed state.

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
            "instantdb-gc-{tag}-{}-{:?}",
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

fn row(id: i64, addr: &str) -> Vec<Value> {
    vec![Value::Int(id), Value::Str(addr.into())]
}

#[test]
fn concurrent_committers_share_fsyncs_and_all_survive_crash() {
    const THREADS: i64 = 8;
    const PER_THREAD: i64 = 25;
    let path = TempDbPath::new("stress");
    let clock = MockClock::new();
    let cfg = DbConfig {
        path: Some(path.0.clone()),
        group_commit: GroupCommitConfig {
            max_batch: 64,
            max_delay: std::time::Duration::from_micros(200),
        },
        ..DbConfig::default()
    };
    {
        let db = Arc::new(Db::open(cfg.clone(), clock.shared()).unwrap());
        db.create_table(schema()).unwrap();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let db = db.clone();
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        db.insert("person", &row(t * PER_THREAD + i, "4 rue Jussieu"))
                            .unwrap();
                    }
                });
            }
        });
        let stats = wal_stats(&db);
        assert_eq!(stats.group_commits, (THREADS * PER_THREAD) as u64);
        assert!(
            stats.group_batches < stats.group_commits,
            "concurrent committers must share fsyncs: {stats:?}"
        );
        assert_eq!(
            stats.fsyncs, stats.group_batches,
            "one fsync per drain, none elsewhere: {stats:?}"
        );
        assert!(stats.fsyncs_saved() > 0);
        drop(db); // crash: no checkpoint, dirty pages lost
    }
    let db = Db::recover_with_schemas(cfg, clock.shared(), vec![schema()]).unwrap();
    assert_eq!(
        db.catalog().get("person").unwrap().live_count().unwrap(),
        (THREADS * PER_THREAD) as usize,
        "every acknowledged commit must replay"
    );
}

#[test]
fn tear_mid_group_batch_loses_no_acknowledged_commit() {
    let path = TempDbPath::new("tear");
    let clock = MockClock::new();
    let cfg = DbConfig {
        path: Some(path.0.clone()),
        ..DbConfig::default()
    };
    {
        let db = Db::open(cfg.clone(), clock.shared()).unwrap();
        db.create_table(schema()).unwrap();
        for i in 0..10 {
            db.insert("person", &row(i, "4 rue Jussieu")).unwrap();
        }
        // A phantom group batch the crash interrupts before its fsync:
        // its records reach the file, its fsync never happens, and no
        // ticket for it was ever acknowledged. The tear targets exactly
        // the shard the engine routes this transaction to — the other
        // shards keep their acknowledged bytes intact, which is the
        // realistic crash shape for a sharded log.
        let wal = db.wal().unwrap();
        wal.torn_tail(0).unwrap(); // flush acknowledged bytes, all shards
        let at = db.now();
        let tx = instantdb::common::TxId(u64::MAX);
        let shard = wal.shard(wal.shard_for(Some(tx)));
        let synced = instantdb::wal::writer::log_size(shard).unwrap();
        wal.append(&instantdb::wal::LogRecord::Begin { tx, at })
            .unwrap();
        wal.append(&instantdb::wal::LogRecord::Delete {
            tx,
            table: db.catalog().get("person").unwrap().id(),
            tid: instantdb::common::TupleId::new(1, 0),
            at,
        })
        .unwrap();
        wal.append(&instantdb::wal::LogRecord::Commit { tx, at })
            .unwrap();
        shard.torn_tail(0).unwrap(); // flush the phantom, still no fsync
        let full = instantdb::wal::writer::log_size(shard).unwrap();
        // Crash tears mid-way through the phantom batch on its shard.
        shard.torn_tail((full - synced) / 2).unwrap();
        drop(db);
    }
    let db = Db::recover_with_schemas(cfg, clock.shared(), vec![schema()]).unwrap();
    assert_eq!(
        db.catalog().get("person").unwrap().live_count().unwrap(),
        10,
        "all ten acknowledged inserts live; the torn delete never ran"
    );
}

#[test]
fn recovery_keeps_identical_twin_inserts_distinct() {
    // Two concurrently-acknowledged inserts can carry byte-identical
    // stored images at the same timestamp, with log order opposite the
    // tid-allocation order. Replay of the first lands on some physical
    // tid; if the second's *logged* tid is that same slot, its replay
    // must not be swallowed as "already flushed" — both acknowledged
    // rows have to survive.
    let clock = MockClock::new();
    // Probe: the physical tid a fresh table hands its first insert —
    // the slot the first replayed record will land on.
    let first_tid = {
        let db = Db::open(
            DbConfig {
                wal_mode: WalMode::Plain,
                ..DbConfig::default()
            },
            clock.shared(),
        )
        .unwrap();
        db.create_table(schema()).unwrap();
        db.insert("person", &row(7, "4 rue Jussieu")).unwrap()
    };
    let path = TempDbPath::new("twins");
    let cfg = DbConfig {
        path: Some(path.0.clone()),
        wal_mode: WalMode::Plain,
        ..DbConfig::default()
    };
    {
        use instantdb::common::{Timestamp, TupleId, TxId};
        use instantdb::core::tuple::encode_stored_raw;
        use instantdb::wal::{LogRecord, Payload, WalSet};
        let mut s = path.0.as_os_str().to_os_string();
        s.push(".wal");
        let wal = WalSet::open(PathBuf::from(s), 1).unwrap();
        let image = encode_stored_raw(Timestamp::ZERO, &[Some(0)], &row(7, "4 rue Jussieu"));
        let batch = |tx: u64, tid: TupleId| {
            vec![
                LogRecord::Begin {
                    tx: TxId(tx),
                    at: Timestamp::ZERO,
                },
                LogRecord::Insert {
                    tx: TxId(tx),
                    table: instantdb::common::TableId(1),
                    tid,
                    row: Payload::Plain(image.clone()),
                    at: Timestamp::ZERO,
                },
                LogRecord::Commit {
                    tx: TxId(tx),
                    at: Timestamp::ZERO,
                },
            ]
        };
        // Tx 1's logged tid is elsewhere; its replay will land on
        // `first_tid`. Tx 2's logged tid IS `first_tid`.
        wal.append_batch(0, &batch(1, TupleId::new(9999, 99)))
            .unwrap();
        wal.append_batch(0, &batch(2, first_tid)).unwrap();
        wal.sync(0).unwrap();
    }
    let db = Db::recover_with_schemas(cfg, clock.shared(), vec![schema()]).unwrap();
    assert_eq!(
        db.catalog().get("person").unwrap().live_count().unwrap(),
        2,
        "both acknowledged twins must survive recovery"
    );
}

#[test]
fn recovery_round_trip_through_background_checkpoint_and_truncate() {
    let path = TempDbPath::new("ckpt");
    let clock = MockClock::new();
    let cfg = DbConfig {
        path: Some(path.0.clone()),
        ..DbConfig::default()
    };
    {
        let db = Arc::new(Db::open(cfg.clone(), clock.shared()).unwrap());
        db.create_table(schema()).unwrap();
        for i in 0..10 {
            db.insert("person", &row(i, "4 rue Jussieu")).unwrap();
        }
        // Background checkpoint: flush → Checkpoint record through the
        // pipeline → physical truncation of the dead prefix.
        let ckpt = Checkpointer::spawn(db.clone(), std::time::Duration::from_millis(1)).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while db.wal().unwrap().base_lsn() == 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let report = ckpt.stop().unwrap();
        assert!(report.checkpoints >= 1, "{report:?}");
        assert!(db.wal().unwrap().base_lsn() > 0, "prefix truncated");
        // Post-checkpoint work rides the log suffix only.
        for i in 10..20 {
            db.insert("person", &row(i, "Rue de la Paix")).unwrap();
        }
        drop(db); // crash
    }
    let db = Db::recover_with_schemas(cfg, clock.shared(), vec![schema()]).unwrap();
    let table = db.catalog().get("person").unwrap();
    assert_eq!(
        table.live_count().unwrap(),
        20,
        "checkpointed state + replayed suffix together restore all rows"
    );
    // Both halves really present (one from pages+meta, one from the log).
    for id in [0i64, 19] {
        assert_eq!(
            table
                .index_probe_stable(instantdb::common::ColumnId(0), &Value::Int(id))
                .unwrap()
                .len(),
            1,
            "row {id} missing after recovery"
        );
    }
    assert_eq!(db.scheduler().len(), 20, "transitions re-armed for all");
}
