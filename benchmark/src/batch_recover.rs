//! `batch-recover`: the operator's costs — bulk load, pump drain rate,
//! checkpoint, restart time, space — with no concurrency noise.
//!
//! One thread, a `MockClock`, no daemons, so every count repeats
//! exactly: a timed bulk `Db::insert` of N rows, three clock-advance +
//! `Db::pump_degradation` cycles that move every row one level each, a
//! `Db::checkpoint`, a post-checkpoint tail of N/3 inserts spread over
//! two simulated hours so that half of it falls due and is pumped, a
//! drop without checkpoint, and `Db::recover_with_schemas` timed on five
//! fresh copies of the files. `server` and `core::query` do nothing.

use std::time::Instant;

use instant_common::{Clock, Duration, MockClock, Result, Timestamp, Value};
use instant_core::metrics::storage_footprint;
use instant_core::schema::TableSchema;
use instant_core::Db;
use instant_lcp::Hierarchy;
use instant_workload::rng::Rng;

use crate::harness::{gate, ms, recover_copy, repeat_setup, secs, Counters, Ctx, Spans};
use crate::report::Outcome;
use crate::stats::{median, Summary};
use crate::world::{self, user_bytes, RowSpec, World, TABLE};

pub const NAME: &str = "batch-recover";
pub const LCP: &str = "d0:1h -> d1:1d -> d2:10d -> d3:30d";
/// Rows loaded per second of `--seconds`: N is fixed work, sized so the
/// whole pass takes about `--seconds` on the builder's host.
pub const ROWS_PER_SECOND: usize = 3_000;
pub const RECOVERIES: usize = 5;

pub struct Env {
    dir: std::path::PathBuf,
    clock: MockClock,
    pub db: Db,
    schema: TableSchema,
    rows: Vec<RowSpec>,
    /// `rows` as engine values, built here so the timed loops time
    /// `Db::insert` and nothing else.
    values: Vec<Vec<Value>>,
}

pub fn rows_for(seconds: f64) -> usize {
    (seconds * ROWS_PER_SECOND as f64) as usize
}

pub fn setup(ctx: &Ctx, seconds: f64, tag: &str) -> Result<Env> {
    let dir = world::fresh_dir(&ctx.data_root, &format!("{NAME}-{tag}"))?;
    let clock = MockClock::new();
    let db = Db::open(world::db_config(&dir), clock.shared())?;
    let schema = ctx.world.schema(LCP, true)?;
    db.create_table(schema.clone())?;
    let n = rows_for(seconds);
    let rows = ctx.world.rows(&mut Rng::new(ctx.seed), n + n / 3);
    let values = rows
        .iter()
        .enumerate()
        .map(|(id, spec)| ctx.world.values(id as i64, *spec))
        .collect();
    Ok(Env {
        dir,
        clock,
        db,
        schema,
        rows,
        values,
    })
}

pub fn teardown(env: Env) -> Result<()> {
    drop(env.db);
    std::fs::remove_dir_all(&env.dir)?;
    Ok(())
}

/// What the phases before the crash measured.
pub struct Phases {
    /// The instant the load began: `inserts` count from it.
    pub origin: Instant,
    /// `(seconds into the load, latency ms)` per `Db::insert`.
    pub inserts: Vec<(f64, f64)>,
    pub load_s: f64,
    /// `(seconds of pumping so far, latency ms)` per `Db::pump_one_batch`
    /// of the three full cycles (up to 1 024 transitions and one commit
    /// each).
    pub pump_batches: Vec<(f64, f64)>,
    pub pump_s: f64,
    /// Transitions the three full cycles executed.
    pub transitions: usize,
    /// Transitions the pump after the tail executed.
    pub tail_transitions: usize,
    pub checkpoint_ms: f64,
    pub tail_s: f64,
    /// `(id, birth, address)` of every acknowledged row.
    pub born: Vec<(i64, Timestamp, RowSpec)>,
    pub counters: Counters,
}

/// Load, degrade, checkpoint, then the post-checkpoint tail. With
/// `spans`, every call into the engine is recorded.
pub fn phases(env: &Env, spans: Option<&Spans>) -> Result<Phases> {
    let Env {
        db,
        clock,
        rows,
        values,
        ..
    } = env;
    let span = |name: &'static str, request: usize, start: Instant| {
        if let Some(sp) = spans {
            sp.record(name, None, request as u64, start, Instant::now());
        }
    };
    let n = rows.len() * 3 / 4;
    let before = Counters::read(db);
    let mut born = Vec::with_capacity(rows.len());
    let mut inserts = Vec::with_capacity(n);

    let load = Instant::now();
    for (id, spec) in rows[..n].iter().enumerate() {
        let t = Instant::now();
        db.insert(TABLE, &values[id])?;
        inserts.push((secs(load.elapsed()), ms(t.elapsed())));
        span("Db::insert", id, t);
        born.push((id as i64, clock.now(), *spec));
    }
    let load_s = secs(load.elapsed());

    // Ages 2 h, 2 d, 14 d: each pump moves every row exactly one level.
    // Pumped batch by batch, as `Db::pump_degradation` does, so each
    // batch is a sample.
    let mut pump_s = 0.0;
    let mut transitions = 0;
    let mut pump_batches = Vec::new();
    for advance in [Duration::hours(2), Duration::hours(46), Duration::days(12)] {
        clock.advance(advance);
        loop {
            let t = Instant::now();
            let fired = db.pump_one_batch()?.fired;
            if fired == 0 {
                break;
            }
            pump_s += secs(t.elapsed());
            pump_batches.push((pump_s, ms(t.elapsed())));
            span("Db::pump_one_batch", pump_batches.len(), t);
            transitions += fired;
        }
    }

    let t = Instant::now();
    db.checkpoint()?;
    let checkpoint_ms = ms(t.elapsed());
    span("Db::checkpoint", 0, t);

    // The tail arrives over two simulated hours; its older half is past
    // the first transition when the pump runs, the newer half is not.
    let tail = Instant::now();
    let step = Duration::micros(Duration::hours(2).as_micros() / (rows.len() - n) as u64);
    for (i, spec) in rows[n..].iter().enumerate() {
        let id = (n + i) as i64;
        db.insert(TABLE, &values[n + i])?;
        born.push((id, clock.now(), *spec));
        clock.advance(step);
    }
    let tail_transitions = db.pump_degradation()?.fired;
    let tail_s = secs(tail.elapsed());

    Ok(Phases {
        origin: load,
        inserts,
        load_s,
        pump_batches,
        pump_s,
        transitions,
        tail_transitions,
        checkpoint_ms,
        tail_s,
        born,
        counters: Counters::read(db).since(&before),
    })
}

/// The `exp_recovery` check: every acknowledged row is back, its state
/// is exactly what `Degrader::value_at` predicts for its age, and none
/// came back finer than that.
fn verify(
    db: &Db,
    world: &World,
    now: Timestamp,
    born: &[(i64, Timestamp, RowSpec)],
) -> Result<(usize, usize, usize)> {
    let table = db.catalog().get(TABLE)?;
    let degrader = table
        .schema()
        .column(instant_common::ColumnId(2))
        .degrader()
        .expect("location is degradable")
        .clone();
    let live: std::collections::HashMap<i64, Value> = table
        .scan()?
        .into_iter()
        .filter_map(|(_, t)| Some((t.row[0].as_int().ok()?, t.row[2].clone())))
        .collect();
    let (mut missing, mut mismatched, mut resurrected) = (0, 0, 0);
    for (id, birth, spec) in born {
        let accurate = Value::Str(world.label(spec.addr, 0).to_string());
        let predicted = degrader.value_at(&accurate, now.since(*birth))?;
        match live.get(id) {
            None => missing += usize::from(predicted != Value::Removed),
            Some(stored) if *stored == predicted => {}
            Some(stored) => {
                mismatched += 1;
                let tree = world.domain.tree();
                if tree.level_of(stored) < tree.level_of(&predicted) {
                    resurrected += 1;
                }
            }
        }
    }
    Ok((missing, mismatched, resurrected))
}

pub fn run(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let world = &ctx.world;
    let (env, setups) = repeat_setup(|rep| setup(ctx, ctx.seconds, &rep.to_string()), teardown)?;
    let n = env.rows.len() * 3 / 4;

    let p = phases(&env, None)?;

    // Bytes ever logged, per byte the clients sent. (The on-disk
    // footprint is read after recovery: `storage_footprint` flushes the
    // pool, and a flush between checkpoint and crash is a different
    // crash from the one this workload times.)
    let user: u64 = env.rows.iter().map(|s| user_bytes(world, *s)).sum();
    let wal = env.db.wal().expect("the sealed WAL is on");
    let logged = wal.log_size()? + wal.truncated_bytes();
    let (hits, misses, evictions) = env.db.buffer_pool().stats();
    let frames = env.db.config().buffer_frames;

    // Crash: drop without a checkpoint, then restart five times, each
    // from its own copy of the files.
    let Env {
        dir,
        clock,
        db,
        schema,
        rows,
        ..
    } = env;
    drop(db);
    let now = clock.now();
    let mut recovery_ms = Vec::new();
    let (mut missing, mut mismatched, mut resurrected) = (0, 0, 0);
    let (mut heap_bytes, mut wal_bytes) = (0, 0);
    for i in 0..RECOVERIES {
        let scratch = ctx.data_root.join(format!("{NAME}-recover-{i}"));
        let (took, recovered) =
            recover_copy(&dir, world::db_config(&scratch), clock.shared(), &schema)?;
        recovery_ms.push(took);
        let (a, b, c) = verify(&recovered, world, now, &p.born)?;
        missing += a;
        mismatched += b;
        resurrected += c;
        (heap_bytes, wal_bytes) = storage_footprint(&recovered)?;
        drop(recovered);
        std::fs::remove_dir_all(&scratch)?;
    }
    std::fs::remove_dir_all(&dir)?;

    out.check(
        "acked_rows_present",
        missing == 0,
        format!(
            "{} acknowledged rows × {RECOVERIES} recoveries, {missing} missing",
            rows.len()
        ),
    );
    out.check(
        "state_equals_model",
        mismatched == 0,
        format!("{mismatched} rows differ from Degrader::value_at"),
    );
    out.check(
        "zero_resurrections",
        resurrected == 0,
        format!("{resurrected} rows came back finer than the schedule allows"),
    );
    out.attempted = (rows.len() + RECOVERIES) as u64;
    out.failed = 0;

    let insert_ms: Vec<f64> = p.inserts.iter().map(|i| i.1).collect();
    let insert = Summary::of(&insert_ms);
    out.put_n("setup_s", median(&setups), "s", setups.len());
    out.put_n("load_rows_s", n as f64 / p.load_s, "1/s", n);
    out.put_latency("insert", &insert);
    out.put_n(
        "pump_transitions_s",
        p.transitions as f64 / p.pump_s,
        "1/s",
        p.transitions,
    );
    let batch_ms: Vec<f64> = p.pump_batches.iter().map(|b| b.1).collect();
    out.put_latency("pump_batch", &Summary::of(&batch_ms));
    out.put_n("checkpoint_ms", p.checkpoint_ms, "ms", 1);
    out.put_n(
        "tail_rows_s",
        (rows.len() - n) as f64 / p.tail_s,
        "1/s",
        rows.len() - n,
    );
    out.put_n("recovery_ms", median(&recovery_ms), "ms", recovery_ms.len());
    out.put(
        "space_amp",
        (heap_bytes + wal_bytes) as f64 / user as f64,
        "x",
    );
    out.put("wal_amp", logged as f64 / user as f64, "x");
    // The gate is on the pump and on recovery, which hold still when
    // the host's fsync latency shifts (README, "What is gated"); the
    // load is one fsync per row and moves with it.
    gate(
        &mut out,
        p.transitions as f64 / p.pump_s,
        &p.pump_batches,
        p.pump_s,
        median(&recovery_ms),
    );

    out.fact("loop", "one thread, MockClock, no daemons");
    out.fact("lcp", LCP);
    out.fact("rows_loaded", n);
    out.fact("rows_tail", rows.len() - n);
    out.fact("transitions", p.transitions);
    out.fact("tail_transitions", p.tail_transitions);
    out.fact("recoveries", RECOVERIES);
    out.fact("buffer_frames", frames);
    out.fact("heap_bytes", heap_bytes);
    out.fact("wal_bytes_on_disk", wal_bytes);
    out.fact("wal_bytes_logged", logged);
    out.fact("user_bytes", user);
    out.fact(
        "pool_hits_misses_evictions",
        format!("{hits}/{misses}/{evictions}"),
    );
    out.fact("wal_fsyncs", p.counters.wal_fsyncs);
    Ok(out)
}
