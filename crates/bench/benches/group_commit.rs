//! Commit-throughput: group commit vs per-commit fsync (the PR-3
//! tentpole claim).
//!
//! `threads` committers each run a stream of single-row commits:
//!
//! * `per_commit_fsync/…` — the baseline harness: no engine, no
//!   pipeline; each committer appends its commit's records to a bare
//!   `WalSet` shard and pays its own fsync, so committers serialize on
//!   the durability point;
//! * `group_commit/…` — the engine (auto-commit inserts through the
//!   pipeline); concurrent committers pile up behind the writer thread's
//!   current fsync and share the next one.
//!
//! At 1 thread the pipeline must not lose (one thread handoff against one
//! fsync — the fsync dominates). From 4 threads up it should win, and the
//! fsyncs-per-commit ratio (printed by the stress tests, not here) drops
//! with concurrency. On a single-core CI host the absolute numbers
//! flatten; the structural claim is covered by
//! `tests/group_commit.rs` regardless.
//!
//! Two further groups cover the sharded-WAL claims of the parallel
//! commit backbone:
//!
//! * `wal_shard_scaling/shards/{n}` — an async-windowed commit burst
//!   (`Db::enqueue_records` + `CommitHandle`, the server's pipelined
//!   path) against n ∈ {1, 2, 4, 8} WAL shards (independent drain
//!   pipelines behind one LSN allocator). CI gates 4-shard throughput
//!   against 1-shard on multi-core runners; a single-core host
//!   serializes the drain threads and cannot exhibit the parallelism.
//! * `wal_recovery/shards/{n}` — crash + `recover_with_schemas` wall
//!   time over the same committed workload at 1 vs 4 shards. The k-way
//!   LSN merge must not make recovery pay for the parallelism; CI gates
//!   the ratio.

use std::path::PathBuf;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use instant_common::{DataType, MockClock, TableId, Timestamp, TupleId, TxId, Value};
use instant_core::schema::{Column, TableSchema};
use instant_core::{Db, DbConfig};
use instant_wal::{LogRecord, Payload, SegmentConfig, WalSet};

const PER_THREAD: i64 = 200;

fn schema() -> TableSchema {
    TableSchema::new(
        "events",
        vec![
            Column::stable("id", DataType::Int),
            Column::stable("note", DataType::Str),
        ],
    )
    .unwrap()
}

fn open_db() -> Arc<Db> {
    open_db_with(DbConfig::builder().build().unwrap())
}

/// Ephemeral engine with `shards` WAL shards.
fn open_db_sharded(shards: usize) -> Arc<Db> {
    open_db_with(DbConfig::builder().wal_shards(shards).build().unwrap())
}

fn open_db_with(cfg: DbConfig) -> Arc<Db> {
    let clock = MockClock::new();
    let db = Arc::new(Db::open(cfg, clock.shared()).unwrap());
    db.create_table(schema()).unwrap();
    db
}

/// Append the engine's stage-histogram percentiles (drain, fsync, ack)
/// next to the criterion shim's own lines when its NDJSON sink is armed
/// — the CI bench lane reads real latency percentiles out of
/// `BENCH_wal.json`, not just mean wall-clock.
fn append_stats(db: &Db, prefix: &str) {
    let Ok(path) = std::env::var("CRITERION_SHIM_JSON") else {
        return;
    };
    use std::io::Write as _;
    let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    else {
        return;
    };
    for line in db.obs().snapshot().ndjson_lines(prefix) {
        let _ = writeln!(f, "{line}");
    }
}

fn run_committers(db: &Arc<Db>, threads: i64) {
    run_committers_payload(db, threads, "payload".len());
}

fn run_committers_payload(db: &Arc<Db>, threads: i64, payload_bytes: usize) {
    std::thread::scope(|s| {
        for t in 0..threads {
            let db = db.clone();
            s.spawn(move || {
                let note = "p".repeat(payload_bytes);
                for i in 0..PER_THREAD {
                    db.insert(
                        "events",
                        &[Value::Int(t * PER_THREAD + i), Value::Str(note.clone())],
                    )
                    .unwrap();
                }
            });
        }
    });
}

/// The per-commit-fsync baseline: the same shard count the engine would
/// open and the same three records per commit, but every committer
/// appends and fsyncs its own batch directly — what each commit would
/// cost without the pipeline folding fsyncs.
fn run_fsync_per_commit(threads: i64) {
    let shards = DbConfig::default().effective_wal_shards();
    let set = WalSet::temp_with("bench-fsync", shards, SegmentConfig::default()).unwrap();
    let at = Timestamp::ZERO;
    std::thread::scope(|s| {
        for t in 0..threads {
            let set = &set;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let tx = TxId((t * PER_THREAD + i) as u64);
                    let batch = [
                        LogRecord::Begin { tx, at },
                        LogRecord::Insert {
                            tx,
                            table: TableId(1),
                            tid: TupleId::new(1, i as u16),
                            row: Payload::Plain(format!("{}-payload", tx.0).into_bytes()),
                            at,
                        },
                        LogRecord::Commit { tx, at },
                    ];
                    let shard = set.shard_for_batch(&batch);
                    set.append_batch(shard, &batch).unwrap();
                    set.sync(shard).unwrap();
                }
            });
        }
    });
}

fn bench_commit_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("commit_throughput");
    g.sample_size(10);
    for &threads in &[1i64, 2, 4, 8] {
        g.throughput(Throughput::Elements((threads * PER_THREAD) as u64));
        g.bench_with_input(
            BenchmarkId::new("per_commit_fsync", threads),
            &threads,
            |b, &t| {
                b.iter(|| run_fsync_per_commit(t));
            },
        );
        // Keep the last timed run's engine alive so its drain/fsync/ack
        // histograms can be dumped after the measurement.
        let last = std::cell::RefCell::new(None);
        g.bench_with_input(
            BenchmarkId::new("group_commit", threads),
            &threads,
            |b, &t| {
                b.iter(|| {
                    let db = open_db();
                    run_committers(&db, t);
                    *last.borrow_mut() = Some(db);
                });
            },
        );
        if let Some(db) = last.into_inner() {
            append_stats(&db, &format!("group_commit_stats/{threads}"));
        }
    }
    g.finish();
}

/// Async-epoch committers with a bounded in-flight window, driven
/// through [`Db::enqueue_records`]/[`CommitHandle`] — the server's
/// pipelined path. A blocking committer can only ever have one commit
/// in flight, so splitting it over K shards just dilutes every epoch by
/// K (the fsyncs multiply and nothing is gained); a windowed submitter
/// keeps every shard's epoch saturated, which is the workload the
/// parallel backbone exists for.
fn run_windowed_committers(db: &Arc<Db>, threads: u64, window: usize, commits: u64) {
    use std::collections::VecDeque;
    let at = db.now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let db = db.clone();
            s.spawn(move || {
                let mut inflight: VecDeque<instant_core::CommitHandle> = VecDeque::new();
                for i in 0..commits {
                    // Distinct tx ids stripe the commits over the shards.
                    let tx = instant_common::TxId(t * commits + i);
                    let records = vec![
                        instant_wal::LogRecord::Begin { tx, at },
                        instant_wal::LogRecord::Commit { tx, at },
                    ];
                    inflight.push_back(db.enqueue_records(records).unwrap());
                    if inflight.len() >= window {
                        inflight.pop_front().unwrap().wait().unwrap();
                    }
                }
                for h in inflight {
                    h.wait().unwrap();
                }
            });
        }
    });
}

/// Throughput of the same async-windowed commit burst against 1/2/4/8
/// WAL shards; only the number of independent drain pipelines (and so
/// the number of concurrently in-flight fsyncs) varies. The per-shard
/// drain/fsync histograms land in the NDJSON artifact under
/// `wal_shard_stats/{n}/…` for the CI percentile gate.
fn bench_shard_scaling(c: &mut Criterion) {
    const THREADS: u64 = 2;
    const WINDOW: usize = 128;
    const COMMITS: u64 = 2000;
    let mut g = c.benchmark_group("wal_shard_scaling");
    g.sample_size(10);
    for &shards in &[1usize, 2, 4, 8] {
        g.throughput(Throughput::Elements(THREADS * COMMITS));
        let last = std::cell::RefCell::new(None);
        g.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &n| {
            b.iter(|| {
                let db = open_db_sharded(n);
                run_windowed_committers(&db, THREADS, WINDOW, COMMITS);
                *last.borrow_mut() = Some(db);
            });
        });
        if let Some(db) = last.into_inner() {
            append_stats(&db, &format!("wal_shard_stats/{shards}"));
        }
    }
    g.finish();
}

/// Crash-recovery wall time over an identical committed workload at 1 vs
/// 4 WAL shards. Setup (untimed) populates a fresh on-disk engine with a
/// concurrent burst and crashes it; the timed routine is
/// `Db::recover_with_schemas` alone — open every shard, k-way merge by
/// LSN, replay. The merge is O(total records · log shards); CI gates
/// that the 4-shard recovery stays within a small ratio of 1-shard.
fn bench_recovery(c: &mut Criterion) {
    const THREADS: i64 = 4;
    const ROWS: i64 = THREADS * PER_THREAD;
    let mut g = c.benchmark_group("wal_recovery");
    g.sample_size(5);
    for &shards in &[1usize, 4] {
        let dir = std::env::temp_dir().join(format!(
            "instantdb-bench-recovery-{}-{shards}",
            std::process::id()
        ));
        g.throughput(Throughput::Elements(ROWS as u64));
        g.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &n| {
            b.iter_batched(
                || {
                    cleanup(&dir);
                    let cfg = DbConfig::builder()
                        .wal_shards(n)
                        .path(dir.clone())
                        .build()
                        .unwrap();
                    let clock = MockClock::new();
                    {
                        let db = Arc::new(Db::open(cfg.clone(), clock.shared()).unwrap());
                        db.create_table(schema()).unwrap();
                        run_committers(&db, THREADS);
                        // Drop without checkpoint: the entire workload
                        // replays from the sharded log.
                    }
                    (cfg, clock)
                },
                |(cfg, clock)| {
                    let db = Db::recover_with_schemas(cfg, clock.shared(), vec![schema()]).unwrap();
                    assert_eq!(
                        db.catalog().get("events").unwrap().live_count().unwrap(),
                        ROWS as usize
                    );
                    db
                },
                BatchSize::PerIteration,
            );
        });
        cleanup(&dir);
    }
    g.finish();
}

fn cleanup(prefix: &std::path::Path) {
    for ext in ["idb", "wal"] {
        let mut s = prefix.as_os_str().to_os_string();
        s.push(".");
        s.push(ext);
        let p = PathBuf::from(s);
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_dir_all(&p); // the WAL is a segment dir
    }
}

criterion_group!(
    benches,
    bench_commit_throughput,
    bench_shard_scaling,
    bench_recovery
);
criterion_main!(benches);
