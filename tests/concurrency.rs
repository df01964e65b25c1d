//! Concurrency integration: readers, writers and the degrader running
//! together — the paper's "potential conflicts between degradation steps
//! and reader transactions".

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, ThreadId};

use instantdb::prelude::*;
use parking_lot::Mutex;

fn person_schema() -> TableSchema {
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

fn setup() -> (MockClock, Arc<Db>) {
    let clock = MockClock::new();
    let db = Arc::new(Db::open(DbConfig::default(), clock.shared()).unwrap());
    db.create_table(person_schema()).unwrap();
    (clock, db)
}

#[test]
fn concurrent_inserts_from_many_threads() {
    let (_clock, db) = setup();
    let threads = 8;
    let per_thread = 50;
    let mut handles = Vec::new();
    for t in 0..threads {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..per_thread {
                let id = (t * per_thread + i) as i64;
                db.insert(
                    "person",
                    &[Value::Int(id), Value::Str("4 rue Jussieu".into())],
                )
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let table = db.catalog().get("person").unwrap();
    assert_eq!(table.live_count().unwrap(), threads * per_thread);
    // Every id indexed exactly once.
    for id in 0..(threads * per_thread) as i64 {
        assert_eq!(
            table
                .index_probe_stable(instantdb::common::ColumnId(0), &Value::Int(id))
                .unwrap()
                .len(),
            1,
            "id {id}"
        );
    }
}

#[test]
fn degrader_races_readers_without_corruption() {
    let (clock, db) = setup();
    for i in 0..200 {
        db.insert(
            "person",
            &[Value::Int(i), Value::Str("Drienerlolaan 5".into())],
        )
        .unwrap();
    }
    clock.advance(Duration::hours(2));

    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..4 {
        let db = db.clone();
        let stop = stop.clone();
        readers.push(std::thread::spawn(move || {
            let table = db.catalog().get("person").unwrap();
            let mut reads = 0usize;
            while !stop.load(Ordering::Relaxed) {
                for (tid, _) in table.scan().unwrap() {
                    // Tuple reads go through the lock manager; a read must
                    // always observe a *coherent* value: either the address
                    // or the city, never torn bytes.
                    if let Ok(t) = db.read_tuple(&table, tid) {
                        match &t.row[1] {
                            Value::Str(s) => assert!(
                                s == "Drienerlolaan 5" || s == "Enschede",
                                "torn value: {s}"
                            ),
                            other => panic!("unexpected {other:?}"),
                        }
                        reads += 1;
                    }
                }
            }
            reads
        }));
    }

    // Degrade everything while the readers hammer the table.
    let mut total = PumpReport::default();
    for _ in 0..200 {
        let r = db.pump_one_batch().unwrap();
        total.fired += r.fired;
        total.deferred += r.deferred;
        // Probe with the non-destructive peek: `due_batch` *pops*, so
        // using it here would silently discard a reader-deferred
        // transition that was just re-queued and lose it forever.
        let queue_idle = !matches!(db.scheduler().next_due(), Some(d) if d <= db.now());
        if queue_idle && r.fired == 0 && r.deferred == 0 {
            break;
        }
        std::thread::yield_now();
    }
    // Drain anything still deferred after the readers stop.
    stop.store(true, Ordering::Relaxed);
    let read_counts: Vec<usize> = readers.into_iter().map(|h| h.join().unwrap()).collect();
    let tail = db.pump_degradation().unwrap();
    total.fired += tail.fired;

    assert_eq!(total.fired, 200, "every transition eventually fires");
    assert!(
        read_counts.iter().sum::<usize>() > 0,
        "readers made progress"
    );
    let table = db.catalog().get("person").unwrap();
    for (_, t) in table.scan().unwrap() {
        assert_eq!(t.row[1], Value::Str("Enschede".into()));
    }
}

#[test]
fn wait_die_aborts_are_retryable_under_load() {
    let (_clock, db) = setup();
    let rows = 50;
    for i in 0..rows {
        db.insert(
            "person",
            &[Value::Int(i), Value::Str("4 rue Jussieu".into())],
        )
        .unwrap();
    }
    let table = db.catalog().get("person").unwrap();
    let tids: Arc<Vec<TupleId>> = Arc::new(table.scan().unwrap().iter().map(|(t, _)| *t).collect());
    let threads = 6;
    let mut handles = Vec::new();
    for _ in 0..threads {
        let (db, table, tids) = (db.clone(), table.clone(), tids.clone());
        handles.push(std::thread::spawn(move || {
            // Everyone deletes the same tuples in the same order; retries
            // must make global progress despite wait-die casualties, and
            // a tuple another thread deleted first is `NotFound`.
            let (mut deleted, mut unexpected) = (0, Vec::new());
            for &tid in tids.iter() {
                loop {
                    match db.delete_tuple(&table, tid) {
                        Ok(()) => deleted += 1,
                        Err(e) if e.is_retryable() => {
                            std::thread::yield_now();
                            continue;
                        }
                        Err(Error::NotFound(_)) => {}
                        Err(e) => unexpected.push(e),
                    }
                    break;
                }
            }
            (deleted, unexpected)
        }));
    }
    let mut deleted = 0;
    for h in handles {
        let (n, unexpected) = h.join().unwrap();
        assert!(unexpected.is_empty(), "{unexpected:?}");
        deleted += n;
    }
    // Each tuple was deleted exactly once.
    assert_eq!(deleted, rows as u64);
    assert_eq!(db.stats().user_deletes.load(Ordering::Relaxed), deleted);
    assert_eq!(table.live_count().unwrap(), 0);
}

#[test]
fn inserts_and_queries_interleave_with_degradation() {
    let (clock, db) = setup();
    let db2 = db.clone();
    let writer = std::thread::spawn(move || {
        for i in 0..100 {
            db2.insert(
                "person",
                &[Value::Int(1000 + i), Value::Str("Rue de la Paix".into())],
            )
            .unwrap();
        }
    });
    for i in 0..100 {
        db.insert(
            "person",
            &[Value::Int(i), Value::Str("4 rue Jussieu".into())],
        )
        .unwrap();
    }
    writer.join().unwrap();
    clock.advance(Duration::hours(2));
    db.pump_degradation().unwrap();
    let table = db.catalog().get("person").unwrap();
    // Everything degraded exactly one step.
    let occupancy = table
        .index_occupancy(instantdb::common::ColumnId(1))
        .unwrap();
    assert_eq!(occupancy, vec![0, 200, 0, 0]);
    assert_eq!(db.stats().degrade_steps.load(Ordering::Relaxed), 200);
}

#[test]
fn background_daemon_degrades_while_foreground_inserts_and_reads() {
    // The tentpole scenario: degradation batches run as background system
    // transactions *concurrently* with foreground inserts and queries —
    // no global buffer-pool lock serializes them.
    let (clock, db) = setup();
    for i in 0..100 {
        db.insert(
            "person",
            &[Value::Int(i), Value::Str("Drienerlolaan 5".into())],
        )
        .unwrap();
    }
    let daemon = DegradationDaemon::spawn(db.clone(), std::time::Duration::from_millis(1)).unwrap();

    // Make the first batch due while foreground work keeps running.
    clock.advance(Duration::hours(2));
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let db = db.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let table = db.catalog().get("person").unwrap();
            let mut reads = 0usize;
            while !stop.load(Ordering::Relaxed) {
                for (tid, _) in table.scan().unwrap() {
                    if let Ok(t) = db.read_tuple(&table, tid) {
                        match &t.row[1] {
                            Value::Str(s) => assert!(
                                s == "Drienerlolaan 5" || s == "Enschede",
                                "torn value: {s}"
                            ),
                            other => panic!("unexpected {other:?}"),
                        }
                        reads += 1;
                    }
                }
            }
            reads
        })
    };
    for i in 100..200 {
        db.insert(
            "person",
            &[Value::Int(i), Value::Str("Drienerlolaan 5".into())],
        )
        .unwrap();
    }
    // The daemon must drain the 100 due transitions on its own.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while db.scheduler().fired() < 100 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    let reads = reader.join().unwrap();
    let report = daemon.stop().unwrap();
    assert!(
        report.fired >= 100,
        "daemon fired the due batch: {report:?}"
    );
    assert!(
        reads > 0,
        "foreground reads progressed alongside the daemon"
    );
    let table = db.catalog().get("person").unwrap();
    for (_, t) in table.scan().unwrap() {
        match &t.row[1] {
            Value::Str(s) => assert!(s == "Drienerlolaan 5" || s == "Enschede"),
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(table.live_count().unwrap(), 200);
}

/// A checkpoint shreds every key window older than its own clock reading.
/// When it lands while a pump batch is running, the batch's `now` falls in
/// a shredded window: no step of it may fail for that, and no row may be
/// left behind at its accurate stage.
#[test]
fn checkpoint_shredding_beside_the_pump_fails_no_step_and_strands_no_row() {
    const ROUNDS: usize = 2;
    const ROWS: i64 = 1500;
    let (clock, db) = setup();
    let mut errors = Vec::new();
    for round in 0..ROUNDS {
        for i in 0..ROWS {
            db.insert(
                "person",
                &[Value::Int(i), Value::Str("4 rue Jussieu".into())],
            )
            .unwrap();
        }
        clock.advance(Duration::hours(1)); // the whole round is due
        let fired_before = db.scheduler().fired();
        let pumping = Arc::new(AtomicBool::new(true));
        let checkpointer = {
            let (clock, db, pumping) = (clock.clone(), db.clone(), pumping.clone());
            std::thread::spawn(move || {
                // Once a batch has read its `now`, move the clock past that
                // window and checkpoint: the shred lands mid-batch.
                while db.scheduler().fired() == fired_before && pumping.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
                clock.advance(Duration::hours(1));
                db.checkpoint().unwrap();
            })
        };
        loop {
            match db.pump_one_batch() {
                Ok(r) if r.fired == 0 && r.deferred == 0 => break,
                Ok(_) => {}
                Err(e) => errors.push(format!("round {round}: {e}")),
            }
        }
        pumping.store(false, Ordering::Relaxed);
        checkpointer.join().unwrap();
    }
    clock.advance(Duration::hours(1));
    db.pump_degradation().unwrap();

    let now = db.now();
    let deadline = |t: &instantdb::core::tuple::StoredTuple| t.insert_ts + Duration::hours(1);
    let table = db.catalog().get("person").unwrap();
    let stranded = table
        .scan()
        .unwrap()
        .iter()
        .filter(|(_, t)| t.stages[0] == Some(0) && now.since(deadline(t)) > Duration::hours(1))
        .count();
    assert!(
        errors.is_empty() && stranded == 0,
        "{} pump errors (first: {:?}); {stranded} rows still accurate over 1 h past their deadline",
        errors.len(),
        errors.first()
    );
}

/// A clock whose first reading on one armed thread races a checkpoint into
/// the gap after that reading: on another thread it moves time on an hour
/// and checkpoints — shredding the key window the reading falls in — and
/// waits up to 500 ms for that checkpoint, then returns the reading it took
/// before the jump.
#[derive(Debug)]
struct CheckpointOnFirstRead {
    clock: MockClock,
    armed: Mutex<Option<(ThreadId, Arc<Db>)>>,
    checkpointer: Mutex<Option<JoinHandle<()>>>,
}

impl CheckpointOnFirstRead {
    #[expect(
        clippy::disallowed_methods,
        reason = "the engine reads the clock under its own locks, so the clock's locks stay unranked"
    )]
    fn new() -> Arc<CheckpointOnFirstRead> {
        Arc::new(CheckpointOnFirstRead {
            clock: MockClock::new(),
            armed: Mutex::new(None),
            checkpointer: Mutex::new(None),
        })
    }

    /// Race a checkpoint into the calling thread's next clock reading.
    fn arm(&self, db: &Arc<Db>) {
        *self.armed.lock() = Some((std::thread::current().id(), db.clone()));
    }

    /// Wait for the raced checkpoint to finish.
    fn join(&self) {
        let handle = self.checkpointer.lock().take();
        handle.expect("the armed reading happened").join().unwrap();
    }
}

impl Clock for CheckpointOnFirstRead {
    fn now(&self) -> Timestamp {
        let now = self.clock.now();
        let fire = {
            let mut armed = self.armed.lock();
            match armed.as_ref() {
                Some((thread, _)) if *thread == std::thread::current().id() => armed.take(),
                _ => None,
            }
        };
        if let Some((_, db)) = fire {
            let clock = self.clock.clone();
            let (done, finished) = std::sync::mpsc::channel();
            let handle = std::thread::spawn(move || {
                clock.advance(Duration::hours(1));
                db.checkpoint().unwrap();
                let _ = done.send(());
            });
            let _ = finished.recv_timeout(std::time::Duration::from_millis(500));
            *self.checkpointer.lock() = Some(handle);
        }
        now
    }
}

struct TempDbPath(PathBuf);

impl TempDbPath {
    fn new(tag: &str) -> TempDbPath {
        let t = TempDbPath(std::env::temp_dir().join(format!(
            "instantdb-conc-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        )));
        t.cleanup();
        t
    }

    fn cfg(&self) -> DbConfig {
        DbConfig {
            path: Some(self.0.clone()),
            ..DbConfig::default()
        }
    }

    fn cleanup(&self) {
        for ext in [".idb", ".wal"] {
            let mut p = self.0.clone().into_os_string();
            p.push(ext);
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

/// `insert` reads the clock under the checkpoint gate's shared side, so a
/// checkpoint that advances past that reading and shreds its window can
/// only run after the insert has sealed its image: the insert succeeds
/// and its row survives a crash.
#[test]
fn insert_seals_with_a_clock_read_under_the_checkpoint_gate() {
    let path = TempDbPath::new("ins");
    let clock = CheckpointOnFirstRead::new();
    let db = Arc::new(Db::open(path.cfg(), clock.clone()).unwrap());
    db.create_table(person_schema()).unwrap();
    clock.arm(&db);
    let outcome = db.insert(
        "person",
        &[Value::Int(1), Value::Str("4 rue Jussieu".into())],
    );
    clock.join();
    assert!(outcome.is_ok(), "{outcome:?}");
    drop(db); // crash: no shutdown checkpoint
    let db =
        Db::recover_with_schemas(path.cfg(), clock.clock.shared(), vec![person_schema()]).unwrap();
    let table = db.catalog().get("person").unwrap();
    let ids: Vec<Value> = table
        .scan()
        .unwrap()
        .into_iter()
        .map(|(_, t)| t.row[0].clone())
        .collect();
    assert_eq!(ids, vec![Value::Int(1)]);
}

#[test]
fn system_and_user_transaction_counters() {
    let (clock, db) = setup();
    for i in 0..10 {
        db.insert(
            "person",
            &[Value::Int(i), Value::Str("4 rue Jussieu".into())],
        )
        .unwrap();
    }
    clock.advance(Duration::hours(2));
    db.pump_degradation().unwrap();
    let (user, system) = db.tx_manager().counters();
    assert!(user >= 10);
    assert!(system >= 1, "degradation batches run as system txs");
}
