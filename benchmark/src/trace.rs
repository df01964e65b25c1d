//! The traced pass: where a workload's time goes, layer by layer,
//! measured from outside.
//!
//! Nothing under `crates/` is instrumented for this. Every number comes
//! from the harness timing calls into a layer's public functions, in
//! three parts:
//!
//! * **A — the workload itself**, short, on one engine: the first half
//!   untraced, the second with the engine's spans on and the harness
//!   recording a span per request. Counters are read before and after;
//!   checkpoints are ticked by the harness so it knows when each ran.
//!   The two halves' medians give `obs.trace_overhead_pct`.
//! * **B — the depth replay**: one client, sequential; the workload's
//!   seeded statement stream replayed on identical fresh engines at
//!   successive depths — `Client::query` → `Session::execute` →
//!   `parser::parse` + `Session::run` → the engine operation. A layer's
//!   self time is its call's median minus the next depth's.
//! * **C — layer probes**, the same for every workload: a commit of an
//!   equal-sized record through a `GroupCommitSet`, `BufferPool` hit and
//!   fault, index insert and probe, `Degrader::value_at`, key shredding,
//!   the frame codec, and a pump and a recovery with and without
//!   `INDEXED`.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use instant_common::{ColumnId, LevelId, MockClock, Result, TableId, TupleId, TxId, Value};
use instant_core::query::{parser, HierarchyRegistry};
use instant_core::tuple::encode_stored_raw;
use instant_core::{Db, Session};
use instant_index::btree::BPlusTree;
use instant_index::multilevel::MultiLevelIndex;
use instant_index::SecondaryIndex;
use instant_server::protocol::{self, Frame};
use instant_server::{Client, Server, ServerConfig};
use instant_storage::{BufferPool, DiskManager};
use instant_tx::{LockMode, Resource};
use instant_wal::group::{GroupCommitConfig, GroupCommitSet};
use instant_wal::record::{LogRecord, Payload};
use instant_wal::segment::SegmentConfig;
use instant_wal::{KeyStore, WalSet};
use instant_workload::rng::Rng;

use crate::harness::{recover_copy, secs, us, Ctx, Spans, Tracing, Window};
use crate::report::Outcome;
use crate::stats::{median, Summary};
use crate::wire_read::{declare_sql, Read, ReadGen};
use crate::world::{self, user_bytes, RowSpec, World, TABLE};
use crate::{batch_recover, live_degrade, wire_insert, wire_read};

/// The per-layer metrics, in `BENCHMARK.json` order. Every workload's
/// traced pass reports every one; one it cannot produce reads 0 and says
/// why in `trace-<workload>.json`.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("server.self_ms", "ms"),
    ("server.codec_us", "us"),
    ("query.parse_us", "us"),
    ("query.exec_self_us", "us"),
    ("db.insert_self_us", "us"),
    ("index.insert_us", "us"),
    ("index.probe_us", "us"),
    ("index.move_us", "us"),
    ("storage.hit_rate", "share"),
    ("storage.evictions", "count"),
    ("storage.fault_us", "us"),
    ("storage.hit_us", "us"),
    ("wal.commit_us", "us"),
    ("wal.fsyncs_per_commit", "ratio"),
    ("wal.commits_per_batch", "ratio"),
    ("wal.ack_p50_ms", "ms"),
    ("wal.bytes_per_user_byte", "x"),
    ("pump.us_per_transition", "us"),
    ("pump.deferred_share", "share"),
    ("tx.lock_retries", "count"),
    ("lcp.generalize_us", "us"),
    ("keystore.shred_us", "us"),
    ("ckpt.ms", "ms"),
    ("ckpt.stall_ms", "ms"),
    ("recovery.index_share", "share"),
    ("obs.trace_overhead_pct", "%"),
];

/// Rows preloaded into each replay engine, a quarter at each level.
const REPLAY_ROWS: usize = 2_000;
/// Statements replayed in process at each depth; the wire depth replays
/// the first [`WIRE_STATEMENTS`] of them.
const STATEMENTS: usize = 400;
const WIRE_STATEMENTS: usize = 60;
/// Rows in the pump and recovery probes.
const PROBE_ROWS: usize = 3_000;
const PROBE_REPEATS: usize = 2_000;

pub fn run(workload: &str, ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let spans = Spans::new();
    part_a(workload, ctx, &spans, &mut out)?;
    let stream = statements(workload, ctx);
    part_b(ctx, &stream, &spans, &mut out)?;
    part_c(ctx, &mut out)?;
    out.check(
        "every_layer_reported",
        PER_LAYER.iter().all(|(name, _)| out.get(name).is_some()),
        format!("{} per-layer metrics", PER_LAYER.len()),
    );
    out.spans = spans.take();
    Ok(out)
}

// ---------------------------------------------------------------- part A

/// The workload, short, traced from half-way.
fn part_a(workload: &str, ctx: &Ctx, spans: &Spans, out: &mut Outcome) -> Result<()> {
    let half_s = (ctx.seconds / 4.0).max(2.0);
    let half = Duration::from_secs_f64(half_s);
    let (w, split_s) = match workload {
        wire_insert::NAME => {
            let mut env = wire_insert::setup(ctx, true, "trace")?;
            let tracing = Tracing {
                spans,
                on_at: Instant::now() + half,
            };
            let w = wire_insert::window(&mut env, ctx, 2.0 * half_s, Some(tracing))?;
            wire_insert::teardown(env)?;
            (w, half_s)
        }
        wire_read::NAME => {
            let mut env = wire_read::setup(ctx, "trace")?;
            let tracing = Tracing {
                spans,
                on_at: Instant::now() + half,
            };
            let (w, _) = wire_read::window(&mut env, ctx, 2.0 * half_s, Some(tracing))?;
            // No checkpoint runs inside this workload; price one after it.
            let start = Instant::now();
            env.db.checkpoint()?;
            spans.record("Db::checkpoint", None, 0, start, Instant::now());
            wire_read::teardown(env)?;
            (w, half_s)
        }
        live_degrade::NAME => {
            let warmup_s = secs(live_degrade::LIFETIME) + 0.5;
            let env = live_degrade::setup(ctx, warmup_s + 2.0 * half_s, true, "trace")?;
            let tracing = Tracing {
                spans,
                on_at: Instant::now() + Duration::from_secs_f64(warmup_s) + half,
            };
            let (w, _) = live_degrade::drive(&env, ctx, warmup_s, Some(tracing))?;
            live_degrade::teardown(env)?;
            (w, half_s)
        }
        batch_recover::NAME => {
            // Fixed work, so two identical engines: one loaded untraced,
            // one with spans on. Their inserts are laid end to end.
            let plain = batch_recover::setup(ctx, half_s, "trace-off")?;
            let off = batch_recover::phases(&plain, None)?;
            batch_recover::teardown(plain)?;
            let traced = batch_recover::setup(ctx, half_s, "trace-on")?;
            traced.db.obs().set_spans_enabled(true);
            let on = batch_recover::phases(&traced, Some(spans))?;
            let ack = instant_core::metrics::wal_stats(&traced.db).ack_latency;
            batch_recover::teardown(traced)?;
            let split_s = off.load_s;
            let mut ops = off.inserts;
            ops.extend(on.inserts.iter().map(|&(at, l)| (split_s + at, l)));
            let w = Window {
                origin: on.origin - Duration::from_secs_f64(split_s),
                ops,
                counters: on.counters,
                ack_p50_ms: ack.p50() as f64 / 1e3,
            };
            (w, split_s)
        }
        other => unreachable!("unknown workload {other}"),
    };

    // The operation *started* before the switch is untraced.
    let (off, on): (Vec<_>, Vec<_>) = w
        .ops
        .iter()
        .partition(|&&(done_s, l)| done_s - l / 1e3 < split_s);
    let lat = |ops: &[(f64, f64)]| -> Vec<f64> { ops.iter().map(|o| o.1).collect() };
    let (p50_off, p50_on) = (median(&lat(&off)), median(&lat(&on)));
    out.put_n("untraced_p50_ms", p50_off, "ms", off.len());
    out.put_n("traced_p50_ms", p50_on, "ms", on.len());
    out.put(
        "obs.trace_overhead_pct",
        (p50_on - p50_off) / p50_off * 100.0,
        "%",
    );

    let c = &w.counters;
    let touched = c.pool_hits + c.pool_misses;
    out.put_n(
        "storage.hit_rate",
        c.pool_hits as f64 / touched.max(1) as f64,
        "share",
        touched as usize,
    );
    out.put("storage.evictions", c.pool_evictions as f64, "count");
    if c.commits > 0 {
        out.put_n(
            "wal.fsyncs_per_commit",
            c.wal_fsyncs as f64 / c.commits as f64,
            "ratio",
            c.commits as usize,
        );
        out.put_n(
            "wal.commits_per_batch",
            c.commits as f64 / c.batches.max(1) as f64,
            "ratio",
            c.batches as usize,
        );
        out.put("wal.ack_p50_ms", w.ack_p50_ms, "ms");
    } else {
        for (name, unit) in [
            ("wal.fsyncs_per_commit", "ratio"),
            ("wal.commits_per_batch", "ratio"),
            ("wal.ack_p50_ms", "ms"),
        ] {
            out.unavailable(name, unit, "this workload commits nothing");
        }
    }
    if c.degrade_steps + c.lock_retries > 0 {
        out.put_n(
            "pump.deferred_share",
            c.lock_retries as f64 / (c.degrade_steps + c.lock_retries) as f64,
            "share",
            (c.degrade_steps + c.lock_retries) as usize,
        );
    } else {
        out.unavailable(
            "pump.deferred_share",
            "share",
            "nothing falls due in this workload",
        );
    }
    out.put("tx.lock_retries", c.lock_retries as f64, "count");

    // Checkpoints: how long each took, and what they did to the
    // operations in flight while they ran.
    let origin_s = spans.at(w.origin);
    let ckpts: Vec<(f64, f64)> = spans
        .named("Db::checkpoint")
        .iter()
        .map(|s| (s.start_us / 1e6 - origin_s, s.end_us / 1e6 - origin_s))
        .collect();
    if ckpts.is_empty() {
        out.unavailable(
            "ckpt.ms",
            "ms",
            "no checkpoint completed in the traced window",
        );
    } else {
        let took: Vec<f64> = ckpts.iter().map(|(a, b)| (b - a) * 1e3).collect();
        out.put_n("ckpt.ms", median(&took), "ms", took.len());
    }
    let (inside, outside): (Vec<_>, Vec<_>) = w.ops.iter().partition(|&&(done_s, l)| {
        let sent_s = done_s - l / 1e3;
        ckpts.iter().any(|&(a, b)| sent_s < b && done_s > a)
    });
    if inside.len() >= 10 && outside.len() >= 10 {
        let (i, o) = (Summary::of(&lat(&inside)), Summary::of(&lat(&outside)));
        out.put_noted(
            "ckpt.stall_ms",
            i.p95 - o.p95,
            "ms",
            Some(i.n),
            Some(format!(
                "p{} of operations overlapping a checkpoint minus p{} of the rest",
                i.p95_at * 100.0,
                o.p95_at * 100.0
            )),
        );
    } else {
        out.unavailable(
            "ckpt.stall_ms",
            "ms",
            "fewer than 10 operations overlapped a checkpoint",
        );
    }
    out.fact(
        "part_a",
        format!("{half_s} s untraced then {half_s} s traced, one engine"),
    );
    Ok(())
}

// ---------------------------------------------------------------- part B

/// One statement of a workload's stream, with what the engine-operation
/// depth needs to run it without SQL.
enum Stmt {
    Insert { sql: String, row: Vec<Value> },
    Read(Read),
}

/// The workload's seeded statement stream: its own mix, one client.
fn statements(workload: &str, ctx: &Ctx) -> Vec<Stmt> {
    let world = &ctx.world;
    let mut rng = Rng::new(ctx.seed);
    let mut reads = ReadGen::new(ctx.seed, REPLAY_ROWS, 0);
    let mut next_id = REPLAY_ROWS as i64;
    let mut insert = |rng: &mut Rng| {
        let spec = world.sample_row(rng);
        let id = next_id;
        next_id += 1;
        Stmt::Insert {
            sql: world.insert_sql(id, spec),
            row: world.values(id, spec),
        }
    };
    (0..STATEMENTS)
        .map(|i| match workload {
            wire_insert::NAME | batch_recover::NAME => insert(&mut rng),
            wire_read::NAME => Stmt::Read(reads.next(world)),
            // One insert per read; the reader's own 4:1 point-to-probe mix.
            _ if i % 2 == 0 => insert(&mut rng),
            _ => {
                let id = rng.below(REPLAY_ROWS as u64) as i64;
                if i % 10 == 9 {
                    Stmt::Read(Read::LocEq {
                        level: 2,
                        addr: world.sample_addr(&mut rng),
                    })
                } else {
                    Stmt::Read(Read::Point(id))
                }
            }
        })
        .collect()
}

/// A fresh engine holding [`REPLAY_ROWS`] rows, a quarter at each
/// level, spans on — identical at every depth.
struct Replay {
    dir: std::path::PathBuf,
    db: Arc<Db>,
}

impl Replay {
    fn new(ctx: &Ctx, depth: &str) -> Result<Replay> {
        let dir = world::fresh_dir(&ctx.data_root, &format!("replay-{depth}"))?;
        let clock = MockClock::new();
        let db = Arc::new(Db::open(world::db_config(&dir), clock.shared())?);
        db.create_table(ctx.world.schema(wire_read::LCP, true)?)?;
        let rows = ctx.world.rows(&mut Rng::new(ctx.seed ^ 0xB), REPLAY_ROWS);
        wire_read::preload(&db, &clock, &ctx.world, &rows)?;
        db.obs().set_spans_enabled(true);
        Ok(Replay { dir, db })
    }

    fn close(self) -> Result<()> {
        drop(self.db);
        std::fs::remove_dir_all(&self.dir)?;
        Ok(())
    }
}

/// Times of one depth, split by statement kind.
#[derive(Default)]
struct Depth {
    insert_us: Vec<f64>,
    read_us: Vec<f64>,
    failed: u64,
}

impl Depth {
    fn push(&mut self, stmt: &Stmt, took: Duration, ok: bool) {
        match stmt {
            Stmt::Insert { .. } => self.insert_us.push(us(took)),
            Stmt::Read(_) => self.read_us.push(us(took)),
        }
        self.failed += u64::from(!ok);
    }

    fn all(&self) -> Vec<f64> {
        self.insert_us
            .iter()
            .chain(&self.read_us)
            .copied()
            .collect()
    }
}

/// Run `stream` one statement at a time through `call`, declaring the
/// purpose a read needs (untimed) through `declare` first.
fn replay<'s>(
    stream: &'s [Stmt],
    world: &World,
    spans: &Spans,
    name: &'static str,
    parent: Option<&'static str>,
    mut declare: impl FnMut(&str) -> bool,
    mut call: impl FnMut(&'s Stmt, &str) -> bool,
) -> Depth {
    let mut depth = Depth::default();
    let mut declared = None;
    for (i, stmt) in stream.iter().enumerate() {
        let sql = match stmt {
            Stmt::Insert { sql, .. } => sql.clone(),
            Stmt::Read(read) => {
                if declared != Some(read.level()) {
                    declared = Some(read.level());
                    depth.failed += u64::from(!declare(&declare_sql(read.level())));
                }
                read.sql(world)
            }
        };
        let start = Instant::now();
        let ok = call(stmt, &sql);
        let end = Instant::now();
        spans.record(name, parent, i as u64, start, end);
        depth.push(stmt, end - start, ok);
    }
    depth
}

/// The engine operation behind a read, as `exec::select` performs it:
/// probe the index for candidates, then read each under a shared lock
/// in one transaction.
fn engine_read(db: &Db, world: &World, read: &Read) -> Result<usize> {
    let table = db.catalog().get(TABLE)?;
    let location = ColumnId(2);
    let candidates = match read {
        Read::Point(id) => table
            .index_probe_stable(ColumnId(0), &Value::Int(*id))
            .unwrap_or_default(),
        Read::LocEq { level, addr } => {
            let key = Value::Str(world.label(*addr, *level).to_string());
            let mut tids = table
                .index_probe_deg(location, LevelId(*level), &key)
                .unwrap_or_default();
            for finer in 0..*level {
                tids.extend(
                    table
                        .index_level_members(location, LevelId(finer))
                        .unwrap_or_default(),
                );
            }
            tids
        }
        Read::Scan(_) => return Ok(table.scan()?.len()),
    };
    let tx = db.tx_manager().begin();
    tx.lock(Resource::Table(table.id()), LockMode::IntentionShared)?;
    let mut read_rows = 0;
    for tid in candidates {
        tx.lock(Resource::Tuple(table.id(), tid), LockMode::Shared)?;
        read_rows += usize::from(table.get(tid).is_ok());
    }
    tx.commit()?;
    Ok(read_rows)
}

fn part_b(ctx: &Ctx, stream: &[Stmt], spans: &Spans, out: &mut Outcome) -> Result<()> {
    let world = &ctx.world;

    // Depth 0: over the wire.
    let wire = {
        let engine = Replay::new(ctx, "wire")?;
        let server = Server::start(
            engine.db.clone(),
            HierarchyRegistry::new(),
            ServerConfig::default(),
        )?;
        let client = std::cell::RefCell::new(Client::connect(server.local_addr().to_string())?);
        let depth = replay(
            &stream[..WIRE_STATEMENTS.min(stream.len())],
            world,
            spans,
            "Client::query",
            None,
            |sql| client.borrow_mut().query(sql).is_ok(),
            |_, sql| client.borrow_mut().query(sql).is_ok(),
        );
        client.into_inner().close()?;
        server.shutdown()?;
        engine.close()?;
        depth
    };

    // Depth 1: the session, no server.
    let (session_depth, sample_reply) = {
        let engine = Replay::new(ctx, "session")?;
        let session = std::cell::RefCell::new(Session::new(engine.db.clone()));
        let mut sample = None;
        let depth = replay(
            stream,
            world,
            spans,
            "Session::execute",
            Some("Client::query"),
            |sql| session.borrow_mut().execute(sql).is_ok(),
            |_, sql| {
                let reply = session.borrow_mut().execute(sql);
                let ok = reply.is_ok();
                if sample.is_none() {
                    sample = reply.ok().map(|r| (sql.to_string(), r));
                }
                ok
            },
        );
        drop(session);
        engine.close()?;
        (depth, sample)
    };

    // Depth 2: parse and run, timed apart.
    let (parse_us, run_depth) = {
        let engine = Replay::new(ctx, "run")?;
        let session = std::cell::RefCell::new(Session::new(engine.db.clone()));
        let mut parse_us = Vec::with_capacity(stream.len());
        let depth = replay(
            stream,
            world,
            spans,
            "parser::parse+Session::run",
            Some("Session::execute"),
            |sql| session.borrow_mut().execute(sql).is_ok(),
            |_, sql| {
                let start = Instant::now();
                let parsed = parser::parse(sql);
                parse_us.push(us(start.elapsed()));
                parsed.is_ok_and(|stmt| session.borrow_mut().run(stmt).is_ok())
            },
        );
        drop(session);
        engine.close()?;
        (parse_us, depth)
    };

    // Depth 3: the engine operation, no SQL.
    let op_depth = {
        let engine = Replay::new(ctx, "op")?;
        let db = &engine.db;
        let depth = replay(
            stream,
            world,
            spans,
            "Db::insert|probe+read",
            Some("parser::parse+Session::run"),
            |_| true,
            |stmt, _| match stmt {
                Stmt::Insert { row, .. } => db.insert(TABLE, row).is_ok(),
                Stmt::Read(read) => engine_read(db, world, read).is_ok(),
            },
        );
        engine.close()?;
        depth
    };

    out.attempted += (wire.all().len() + 3 * stream.len()) as u64;
    out.failed += wire.failed + session_depth.failed + run_depth.failed + op_depth.failed;

    // Self times: each call's median minus the next depth's, on the same
    // statements. `run` includes the parse here, so it is subtracted.
    let wire_n = wire.all().len();
    let query_ms = median(&wire.all()) / 1e3;
    let session_prefix_ms = median(&session_depth.all()[..wire_n.min(stream.len())]) / 1e3;
    let session_us = median(&session_depth.all());
    let parse = median(&parse_us);
    let op_us = median(&op_depth.all());
    out.put_n("depth.client_query_ms", query_ms, "ms", wire_n);
    out.put_n("depth.session_execute_us", session_us, "us", stream.len());
    out.put_n(
        "depth.parse_plus_run_us",
        median(&run_depth.all()),
        "us",
        stream.len(),
    );
    out.put_n("depth.engine_op_us", op_us, "us", stream.len());
    out.put_n("server.self_ms", query_ms - session_prefix_ms, "ms", wire_n);
    out.put_n("query.parse_us", parse, "us", parse_us.len());
    out.put_noted(
        "query.exec_self_us",
        session_us - parse - op_us,
        "us",
        Some(stream.len()),
        Some("Session::execute minus the parse and the engine operation".into()),
    );
    if op_depth.insert_us.is_empty() {
        out.unavailable(
            "db.insert_self_us",
            "us",
            "this workload's statement stream has no INSERT",
        );
    } else {
        out.put_n(
            "depth.db_insert_us",
            median(&op_depth.insert_us),
            "us",
            op_depth.insert_us.len(),
        );
    }
    if !op_depth.read_us.is_empty() {
        out.put_n(
            "depth.engine_read_us",
            median(&op_depth.read_us),
            "us",
            op_depth.read_us.len(),
        );
    }

    // The frame codec on a buffer, both directions of one exchange.
    if let Some((sql, reply)) = sample_reply {
        let frames = [Frame::Query { sql }, Frame::ResultSet(reply)];
        let mut times = Vec::with_capacity(PROBE_REPEATS);
        for _ in 0..PROBE_REPEATS {
            let start = Instant::now();
            for frame in &frames {
                let mut buf = Vec::new();
                protocol::write_frame(&mut buf, frame)?;
                let back =
                    protocol::read_frame(&mut buf.as_slice(), protocol::DEFAULT_MAX_FRAME_BYTES)?;
                std::hint::black_box(back);
            }
            times.push(us(start.elapsed()));
        }
        out.put_n("server.codec_us", median(&times), "us", times.len());
    } else {
        out.unavailable(
            "server.codec_us",
            "us",
            "no statement succeeded at the session depth",
        );
    }
    out.fact(
        "part_b",
        format!(
            "{} statements per depth ({} over the wire), replay engines hold {REPLAY_ROWS} rows",
            stream.len(),
            wire_n
        ),
    );
    Ok(())
}

// ---------------------------------------------------------------- part C

fn timed_us(repeats: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    (0..repeats)
        .map(|i| {
            let start = Instant::now();
            f(i);
            us(start.elapsed())
        })
        .collect()
}

fn part_c(ctx: &Ctx, out: &mut Outcome) -> Result<()> {
    let world = &ctx.world;
    let dir = world::fresh_dir(&ctx.data_root, "probes")?;
    let mut rng = Rng::new(ctx.seed ^ 0xC);
    let specs = world.rows(&mut rng, PROBE_REPEATS);
    let tid = |i: usize| TupleId::new((i / 100) as u32, (i % 100) as u16);

    // wal: durably commit one insert-sized transaction, alone.
    let commit_us = {
        let shards = world::db_config(&dir).effective_wal_shards();
        let set = WalSet::open_with(dir.join("probe.wal"), shards, SegmentConfig::default())?;
        let group = GroupCommitSet::spawn(&set, GroupCommitConfig::default())?;
        let keys = KeyStore::new(instant_common::Duration::hours(1), 7);
        let now = instant_common::Timestamp::ZERO;
        let mut times = Vec::new();
        for (i, spec) in specs.iter().take(STATEMENTS).enumerate() {
            let image = encode_stored_raw(now, &[Some(0)], &world.values(i as i64, *spec));
            let tx = TxId(i as u64 + 1);
            let records = vec![
                LogRecord::Begin { tx, at: now },
                LogRecord::Insert {
                    tx,
                    table: TableId(1),
                    tid: tid(i),
                    row: Payload::seal(&keys, now, &image)?,
                    at: now,
                },
                LogRecord::Commit { tx, at: now },
            ];
            let shard = set.shard_for_batch(&records);
            let start = Instant::now();
            group.commit(shard, records)?;
            times.push(us(start.elapsed()));
        }
        group.stop();
        median(&times)
    };
    out.put_n("wal.commit_us", commit_us, "us", STATEMENTS);

    // index: one row's two index entries, into trees of a table's size.
    let (index_insert_us, index_probe_us) = {
        let mut ids = BPlusTree::new();
        let mut places = MultiLevelIndex::new(4);
        let fill = world.rows(&mut rng, 8_000);
        for (i, spec) in fill.iter().enumerate() {
            ids.insert(&Value::Int(i as i64), tid(i));
            places.insert_at(
                LevelId(0),
                &Value::Str(world.label(spec.addr, 0).into()),
                tid(i),
            )?;
        }
        let keys: Vec<(Value, Value)> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                (
                    Value::Int((8_000 + i) as i64),
                    Value::Str(world.label(s.addr, 0).into()),
                )
            })
            .collect();
        let insert = timed_us(PROBE_REPEATS, |i| {
            ids.insert(&keys[i].0, tid(8_000 + i));
            places
                .insert_at(LevelId(0), &keys[i].1, tid(8_000 + i))
                .expect("level 0 exists");
        });
        let probe = timed_us(PROBE_REPEATS, |i| {
            std::hint::black_box(ids.get(&keys[i].0));
            std::hint::black_box(
                places
                    .get_at(LevelId(0), &keys[i].1)
                    .expect("level 0 exists"),
            );
        });
        (median(&insert), median(&probe))
    };
    out.put_n("index.insert_us", index_insert_us, "us", PROBE_REPEATS);
    out.put_n("index.probe_us", index_probe_us, "us", PROBE_REPEATS);

    // storage: a resident page against one that must be read in. Cycling
    // through four times the pool's frames faults on every access.
    let (hit_us, fault_us) = {
        let disk = Arc::new(DiskManager::open(dir.join("pool.idb"))?);
        let pool = BufferPool::new(disk, 16);
        let pages: Vec<_> = (0..64)
            .map(|_| pool.allocate_page())
            .collect::<Result<_>>()?;
        pool.flush_all()?;
        let (_, misses_before, _) = pool.stats();
        let fault = timed_us(PROBE_REPEATS, |i| {
            pool.with_page(pages[i % pages.len()], |p| std::hint::black_box(p.id()))
                .expect("allocated page");
        });
        let (_, misses_after, _) = pool.stats();
        out.fact(
            "storage_probe_fault_share",
            format!(
                "{:.2}",
                (misses_after - misses_before) as f64 / PROBE_REPEATS as f64
            ),
        );
        let hit = timed_us(PROBE_REPEATS, |_| {
            pool.with_page(pages[0], |p| std::hint::black_box(p.id()))
                .expect("allocated page");
        });
        (median(&hit), median(&fault))
    };
    out.put_n("storage.hit_us", hit_us, "us", PROBE_REPEATS);
    out.put_n("storage.fault_us", fault_us, "us", PROBE_REPEATS);

    // lcp: what a value becomes at an age, through the generalization tree.
    let schema = world.schema(wire_read::LCP, true)?;
    let degrader = schema
        .column(ColumnId(2))
        .degrader()
        .expect("location is degradable")
        .clone();
    let ages = [0u64, 2, 48, 288].map(instant_common::Duration::hours);
    let generalize = timed_us(PROBE_REPEATS, |i| {
        let v = Value::Str(world.label(specs[i].addr, 0).into());
        std::hint::black_box(
            degrader
                .value_at(&v, ages[i % ages.len()])
                .expect("in domain"),
        );
    });
    out.put_n(
        "lcp.generalize_us",
        median(&generalize),
        "us",
        PROBE_REPEATS,
    );

    // keystore: destroying one window's key.
    let shred_us = {
        let window = instant_common::Duration::secs(1);
        let keys = KeyStore::new(window, 7);
        let windows = 512u64;
        for w in 0..windows {
            keys.key_for(instant_common::Timestamp::micros(w * window.as_micros()))?;
        }
        let per_window = timed_us(windows as usize - 1, |w| {
            let horizon = instant_common::Timestamp::micros((w as u64 + 1) * window.as_micros());
            std::hint::black_box(keys.shred_before(horizon));
        });
        median(&per_window)
    };
    out.put_n("keystore.shred_us", shred_us, "us", 511);

    // pump and recovery, with and without INDEXED.
    let indexed = pump_probe(ctx, &dir, true)?;
    let bare = pump_probe(ctx, &dir, false)?;
    out.put_n("pump.us_per_transition", indexed.pump_us, "us", PROBE_ROWS);
    out.put_noted(
        "index.move_us",
        indexed.pump_us - bare.pump_us,
        "us",
        Some(PROBE_ROWS),
        Some("pump µs per transition with INDEXED minus without".into()),
    );
    out.put("wal.bytes_per_user_byte", indexed.wal_amp, "x");
    out.put_noted(
        "recovery.index_share",
        (indexed.recover_indexed_ms - indexed.recover_bare_ms) / indexed.recover_indexed_ms,
        "share",
        Some(PROBE_ROWS),
        Some(format!(
            "the same crashed files recovered with INDEXED schemas ({:.2} ms) and without ({:.2} ms)",
            indexed.recover_indexed_ms, indexed.recover_bare_ms
        )),
    );

    // db: what `Db::insert` does itself, beyond the layers under it.
    if let Some(insert_us) = out.get("depth.db_insert_us") {
        out.put_noted(
            "db.insert_self_us",
            insert_us - commit_us - index_insert_us - hit_us,
            "us",
            None,
            Some("Db::insert minus wal.commit_us, index.insert_us and storage.hit_us".into()),
        );
        // The wire-insert acceptance check: the self times along one
        // insert's blocking path add back up to the round trip.
        let names = [
            "server.self_ms",
            "query.parse_us",
            "query.exec_self_us",
            "db.insert_self_us",
            "index.insert_us",
            "wal.commit_us",
            "storage.hit_us",
        ];
        let sum_ms: f64 = names
            .iter()
            .map(|n| {
                let v = out.get(n).unwrap_or(0.0);
                if n.ends_with("_ms") {
                    v
                } else {
                    v / 1e3
                }
            })
            .sum();
        if let Some(query_ms) = out.get("depth.client_query_ms") {
            out.put_noted(
                "self_time_sum_share",
                sum_ms / query_ms,
                "share",
                None,
                Some("self times along the blocking path over the Client::query median".into()),
            );
        }
    }
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}

struct PumpProbe {
    pump_us: f64,
    wal_amp: f64,
    recover_indexed_ms: f64,
    recover_bare_ms: f64,
}

/// Load [`PROBE_ROWS`] rows, checkpoint, age them past the first
/// transition and time the pump; then crash and time recovery of the
/// same files under the indexed and the index-free schema.
fn pump_probe(ctx: &Ctx, root: &Path, indexed: bool) -> Result<PumpProbe> {
    let world = &ctx.world;
    let dir = world::fresh_dir(root, if indexed { "pump-indexed" } else { "pump-bare" })?;
    let clock = MockClock::new();
    let schema = world.schema(wire_read::LCP, indexed)?;
    let rows: Vec<RowSpec> = world.rows(&mut Rng::new(ctx.seed ^ 0xD), PROBE_ROWS);
    let db = Db::open(world::db_config(&dir), clock.shared())?;
    db.create_table(schema.clone())?;
    for (id, spec) in rows.iter().enumerate() {
        db.insert(TABLE, &world.values(id as i64, *spec))?;
    }
    db.checkpoint()?;
    clock.advance(instant_common::Duration::hours(2));
    let start = Instant::now();
    let fired = db.pump_degradation()?.fired;
    let pump_us = us(start.elapsed()) / fired.max(1) as f64;
    let wal = db.wal().expect("the sealed WAL is on");
    let logged = wal.log_size()? + wal.truncated_bytes();
    let user: u64 = rows.iter().map(|s| user_bytes(world, *s)).sum();
    drop(db);

    let mut recover_ms = [0.0; 2];
    for (slot, with_index) in [true, false].into_iter().enumerate() {
        if !indexed {
            break;
        }
        let scratch = root.join(format!("pump-recover-{slot}"));
        let (took, recovered) = recover_copy(
            &dir,
            world::db_config(&scratch),
            clock.shared(),
            &world.schema(wire_read::LCP, with_index)?,
        )?;
        recover_ms[slot] = took;
        drop(recovered);
        std::fs::remove_dir_all(&scratch)?;
    }
    std::fs::remove_dir_all(&dir)?;
    Ok(PumpProbe {
        pump_us,
        wal_amp: logged as f64 / user as f64,
        recover_indexed_ms: recover_ms[0],
        recover_bare_ms: recover_ms[1],
    })
}
