//! The property `tests/recovery.rs`'s repros are instances of: over random
//! interleavings of insert / clock advance / one pump batch / checkpoint /
//! buffer-pool flush / crash + recovery on two tables,
//!
//! * recovery reproduces the pre-crash state **exactly** — every
//!   acknowledged row present once (none lost on a page the checkpoint
//!   never saw, none duplicated because its flushed copy had degraded
//!   past the logged image), at the stage it had reached (never a finer
//!   one), and every id probes to exactly one tuple;
//! * recovering twice equals recovering once;
//! * after the pump catches up, every degradable value is what
//!   `Degrader::value_at` says for its age, and rows past their life
//!   cycle are gone.
//!
//! One thread and a `MockClock`: the crash is a drop, so every page write
//! is logged before it can be flushed. Mutate-before-log races belong to
//! the fault simulator (ROADMAP).

use std::path::PathBuf;
use std::sync::Arc;

use instantdb::common::ColumnId;
use instantdb::prelude::*;
use proptest::prelude::*;

const TABLES: [&str; 2] = ["person", "visit"];

const LEAVES: [&str; 4] = [
    "4 rue Jussieu",
    "Domaine de Voluceau",
    "Drienerlolaan 5",
    "Science Park 123",
];

/// `person` lives the paper's Fig. 2 life cycle; `visit` a shorter one that
/// skips a level, so the two tables' pages interleave in the data file and
/// their tuples expire (and their slots are reused) at different times.
fn lcp(table: usize) -> AttributeLcp {
    match table {
        0 => AttributeLcp::fig2_location(),
        _ => AttributeLcp::from_pairs(&[(0, Duration::minutes(30)), (2, Duration::hours(6))])
            .unwrap(),
    }
}

fn schema(table: usize) -> TableSchema {
    let gt: Arc<dyn Hierarchy> = Arc::new(location_tree_fig1());
    TableSchema::new(
        TABLES[table],
        vec![
            Column::stable("id", DataType::Int).with_index(),
            Column::degradable("location", DataType::Str, gt, lcp(table))
                .unwrap()
                .with_index(),
        ],
    )
    .unwrap()
}

#[derive(Debug, Clone)]
enum Step {
    /// `n` rows into one table (enough, sometimes, to open a new page).
    Insert {
        table: usize,
        n: usize,
        leaf: usize,
    },
    Advance(Duration),
    PumpOneBatch,
    Checkpoint,
    FlushAll,
    CrashAndRecover,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (0usize..2, 1usize..60, 0usize..4)
            .prop_map(|(table, n, leaf)| Step::Insert { table, n, leaf }),
        3 => prop_oneof![
            (1u64..90).prop_map(Duration::minutes),
            (1u64..30).prop_map(Duration::hours),
            (1u64..45).prop_map(Duration::days),
        ]
        .prop_map(Step::Advance),
        3 => Just(Step::PumpOneBatch),
        1 => Just(Step::Checkpoint),
        2 => Just(Step::FlushAll),
        2 => Just(Step::CrashAndRecover),
    ]
}

struct DataDir(PathBuf);

impl DataDir {
    fn new(seed: u64) -> DataDir {
        let dir = DataDir(std::env::temp_dir().join(format!(
            "instantdb-recprop-{}-{seed:016x}",
            std::process::id()
        )));
        dir.remove();
        dir
    }
    fn remove(&self) {
        for ext in ["idb", "wal"] {
            let mut s = self.0.as_os_str().to_os_string();
            s.push(".");
            s.push(ext);
            let _ = std::fs::remove_file(&s);
            let _ = std::fs::remove_dir_all(&s);
        }
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        self.remove();
    }
}

/// Everything the engine holds, tuple ids aside: `(table, id, tuple)`.
type State = Vec<(usize, i64, instantdb::core::tuple::StoredTuple)>;

fn state(db: &Db) -> State {
    let mut out = State::new();
    for (t, name) in TABLES.iter().enumerate() {
        for (_, tuple) in db.catalog().get(name).unwrap().scan().unwrap() {
            let Value::Int(id) = tuple.row[0] else {
                panic!("id column holds {:?}", tuple.row[0]);
            };
            out.push((t, id, tuple));
        }
    }
    out.sort_by_key(|(t, id, _)| (*t, *id));
    out
}

proptest! {
    #[test]
    fn recovery_reproduces_the_crashed_state_and_the_model(
        steps in proptest::collection::vec(arb_step(), 4..40),
        seed in any::<u64>(),
    ) {
        let dir = DataDir::new(seed);
        let clock = MockClock::new();
        let cfg = DbConfig {
            path: Some(dir.0.clone()),
            // Small enough that evictions write pages back unprompted and
            // one pump call leaves work behind.
            buffer_frames: 4,
            batch_max: 16,
            ..DbConfig::default()
        };
        let schemas = || vec![schema(0), schema(1)];
        let degraders: Vec<Degrader> = (0..2)
            .map(|t| Degrader::new(Arc::new(location_tree_fig1()), lcp(t)).unwrap())
            .collect();
        let mut db = Db::open(cfg.clone(), clock.shared()).unwrap();
        for s in schemas() {
            db.create_table(s).unwrap();
        }
        // Acknowledged inserts: (table, id, insert time, accurate value).
        let mut acked: Vec<(usize, i64, Timestamp, Value)> = Vec::new();

        for step in steps.into_iter().chain([Step::CrashAndRecover]) {
            match step {
                Step::Insert { table, n, leaf } => {
                    for _ in 0..n {
                        let id = acked.len() as i64;
                        let v = Value::Str(LEAVES[leaf].into());
                        db.insert(TABLES[table], &[Value::Int(id), v.clone()]).unwrap();
                        acked.push((table, id, clock.now(), v));
                    }
                }
                Step::Advance(d) => {
                    clock.advance(d);
                }
                Step::PumpOneBatch => {
                    db.pump_one_batch().unwrap();
                }
                Step::Checkpoint => db.checkpoint().unwrap(),
                Step::FlushAll => db.buffer_pool().flush_all().unwrap(),
                Step::CrashAndRecover => {
                    let before = state(&db);
                    drop(db);
                    db = Db::recover_with_schemas(cfg.clone(), clock.shared(), schemas()).unwrap();
                    let once = state(&db);
                    prop_assert_eq!(&once, &before, "recovery changed the state");
                    for (t, id, _) in &once {
                        let tids = db
                            .catalog()
                            .get(TABLES[*t])
                            .unwrap()
                            .index_probe_stable(ColumnId(0), &Value::Int(*id))
                            .unwrap();
                        prop_assert_eq!(tids.len(), 1, "{}.id {} probes to {:?}", TABLES[*t], id, tids);
                    }
                    drop(db);
                    db = Db::recover_with_schemas(cfg.clone(), clock.shared(), schemas()).unwrap();
                    prop_assert_eq!(&state(&db), &once, "recovering twice differs from once");

                    // Caught up, the engine is the abstract model.
                    db.pump_degradation().unwrap();
                    let now = clock.now();
                    let mut expected: Vec<(usize, i64, Value)> = acked
                        .iter()
                        .map(|(t, id, at, v0)| {
                            (*t, *id, degraders[*t].value_at(v0, now.since(*at)).unwrap())
                        })
                        .filter(|(_, _, v)| *v != Value::Removed)
                        .collect();
                    expected.sort_by_key(|(t, id, _)| (*t, *id));
                    let got: Vec<(usize, i64, Value)> = state(&db)
                        .into_iter()
                        .map(|(t, id, tuple)| (t, id, tuple.row[1].clone()))
                        .collect();
                    prop_assert_eq!(got, expected, "engine != Degrader::value_at");
                }
            }
        }
    }
}
