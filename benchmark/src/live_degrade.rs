//! `live-degrade`: the paper's own regime — writes beside reads beside
//! the degradation pump, on the same heap pages, indexes, locks and
//! sealed WAL, with key shredding.
//!
//! No TCP. A `SystemClock` engine with a seconds-scale life cycle runs a
//! live `DegradationDaemon` and `Checkpointer`. Thread 1 is an
//! **open-loop** Poisson ingester at one fixed rate — location events
//! arrive whether or not the database keeps up — timed from each event's
//! due time. Thread 2 is a closed-loop reader. The table reaches steady
//! state (inserts balanced by expunges) during a warm-up of one full
//! life cycle before the window opens. `server` is bypassed, so a wire
//! fix must not move anything here; a pump or lock change that helps lag
//! but hurts readers shows here and nowhere else.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use instant_common::{Result, SystemClock, Value};
use instant_core::query::QueryOutput;
use instant_core::{Checkpointer, Db, DegradationDaemon, Session};
use instant_workload::attacker::{forensic_needles, forensic_scan};
use instant_workload::rng::Rng;
use instant_workload::zipf::Zipf;

use crate::harness::{
    checkpoint_ticker, gate, ms, recover_copy, repeat_setup, secs, Counters, Ctx, Tracing, Window,
};
use crate::report::Outcome;
use crate::stats::{median, within_limit_share, OpenLoop, Summary};
use crate::world::{self, thread_failed, RowSpec, World, TABLE};

pub const NAME: &str = "live-degrade";
/// The issue's `2s/4s/8s/16s` cycle at a quarter scale, so a warm-up of
/// one whole life cycle plus the window fits the run-time cap.
pub const LCP: &str = "d0:500ms -> d1:1s -> d2:2s -> d3:4s";
/// Insert-to-expunge time under [`LCP`].
pub const LIFETIME: Duration = Duration::from_millis(7_500);
pub const KEY_WINDOW: instant_common::Duration = instant_common::Duration::millis(500);
pub const PUMP_TICK: Duration = Duration::from_millis(100);
pub const CHECKPOINT_EVERY: Duration = Duration::from_secs(1);
/// Events per second, frozen: about 40 % of what one closed-loop
/// `Session::execute("INSERT …")` thread sustains on the builder's host
/// with the daemons live (see `benchmark/README.md`).
pub const INGEST_RATE: f64 = 1_500.0;
/// An ingest is on time if it completes within this long of its due time.
pub const INGEST_LIMIT_MS: f64 = 20.0;
/// How stale the reader's `point-id` targets may be: ids are drawn
/// Zipf-skewed towards the newest among the rows younger than this.
const READ_HORIZON: Duration = Duration::from_secs(5);
/// A read that keeps losing lock races backs off this long between
/// tries and gives up (a failed operation) after [`READ_GIVE_UP`].
const READ_BACKOFF: Duration = Duration::from_micros(100);
const READ_GIVE_UP: Duration = Duration::from_millis(500);
const LAG_SAMPLE_EVERY: Duration = Duration::from_millis(5);
/// Timed recoveries of the crashed engine, each from its own copy.
const RESTARTS: usize = 5;
/// The scheduler's lateness histogram is differenced this often; each
/// interval yields one exact mean of executed − due.
const LAG_INTERVAL_S: f64 = 0.25;

/// One pre-generated event: when it is due, and its row.
struct Event {
    due_s: f64,
    spec: RowSpec,
    sql: String,
}

pub struct Env {
    dir: std::path::PathBuf,
    pub db: Arc<Db>,
    events: Vec<Event>,
    pump: Option<DegradationDaemon>,
    checkpointer: Option<Checkpointer>,
}

fn config(dir: &std::path::Path) -> instant_core::DbConfig {
    let mut cfg = world::db_config(dir);
    cfg.key_window = KEY_WINDOW;
    cfg
}

/// Open the engine, start its daemons and generate the event schedule
/// for `run_s` seconds of Poisson arrivals. A `traced` set-up starts no
/// `Checkpointer`: the traced run ticks the checkpoints itself.
pub fn setup(ctx: &Ctx, run_s: f64, traced: bool, tag: &str) -> Result<Env> {
    let dir = world::fresh_dir(&ctx.data_root, &format!("{NAME}-{tag}"))?;
    let db = Arc::new(Db::open(config(&dir), Arc::new(SystemClock))?);
    db.create_table(ctx.world.schema(LCP, true)?)?;
    let mut rng = Rng::new(ctx.seed);
    let mut events = Vec::with_capacity((run_s * INGEST_RATE * 1.1) as usize);
    let mut due_s = 0.0;
    loop {
        due_s += rng.exponential(INGEST_RATE);
        if due_s >= run_s {
            break;
        }
        let spec = ctx.world.sample_row(&mut rng);
        let sql = ctx.world.insert_sql(events.len() as i64, spec);
        events.push(Event { due_s, spec, sql });
    }
    let pump = Some(DegradationDaemon::spawn(db.clone(), PUMP_TICK)?);
    let checkpointer = if traced {
        None
    } else {
        Some(Checkpointer::spawn(db.clone(), CHECKPOINT_EVERY)?)
    };
    Ok(Env {
        dir,
        db,
        events,
        pump,
        checkpointer,
    })
}

fn stop_daemons(env: &mut Env) -> Result<()> {
    if let Some(p) = env.pump.take() {
        p.stop()?;
    }
    if let Some(c) = env.checkpointer.take() {
        c.stop()?;
    }
    Ok(())
}

pub fn teardown(mut env: Env) -> Result<()> {
    stop_daemons(&mut env)?;
    drop(env.db);
    std::fs::remove_dir_all(&env.dir)?;
    Ok(())
}

/// What the ingester and the reader logged over warm-up plus window.
pub struct Logs {
    pub ingest: OpenLoop,
    pub ingest_failed: u64,
    /// `(kind, completion s, latency ms)` per read in the window.
    pub reads: Vec<(&'static str, f64, f64)>,
    pub read_retries: u64,
    pub read_failed: u64,
    /// `(seconds into the window, mean of executed − due over the
    /// transitions of the interval ending then, ms)`: one per
    /// [`LAG_INTERVAL_S`], from differences of the scheduler's lateness sum.
    pub lag_ms: Vec<(f64, f64)>,
    /// How far past due the oldest pending transition was, sampled every
    /// few milliseconds through the window, ms.
    pub overdue_ms: Vec<f64>,
    /// Exact mean of executed − due over the window's transitions, ms.
    pub lag_mean_ms: f64,
    pub lag_hist_p95_ms: f64,
    pub transitions: u64,
}

/// Run the schedule: the first `warmup_s` seconds fill the table, the
/// rest is the window. Everything before the window is discarded.
pub fn drive(
    env: &Env,
    ctx: &Ctx,
    warmup_s: f64,
    tracing: Option<Tracing>,
) -> Result<(Window, Logs)> {
    let world = &ctx.world;
    let db = &env.db;
    let events = &env.events;
    let run_s = events.last().map_or(0.0, |e| e.due_s);
    let ingested = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let origin = Instant::now();
    let at = |t: Instant| secs(t.duration_since(origin));

    let result = std::thread::scope(|s| {
        let ticker = tracing.map(|t| {
            let stop = &stop;
            s.spawn(move || checkpoint_ticker(db, CHECKPOINT_EVERY, stop, t.spans))
        });

        // Thread 1: open loop. Sleep until each event is due, send it,
        // time it from when it was due.
        let ingester = s.spawn(|| {
            let mut session = Session::new(db.clone());
            let mut log = OpenLoop::with_capacity(events.len());
            let mut failed = 0u64;
            for (i, e) in events.iter().enumerate() {
                let due = origin + Duration::from_secs_f64(e.due_s);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let ok = matches!(session.execute(&e.sql), Ok(QueryOutput::Inserted(1)));
                let done = Instant::now();
                ingested.store(i as u64 + 1, Ordering::Release);
                if e.due_s < warmup_s {
                    continue;
                }
                if let Some(t) = tracing.filter(Tracing::on) {
                    t.spans
                        .record("Session::execute", None, i as u64, sent, done);
                }
                if ok {
                    log.record(e.due_s, at(sent), at(done));
                } else {
                    failed += 1;
                }
            }
            (log, failed)
        });

        // Thread 2: closed loop, four `point-id` then one `loc-eq@d2`.
        let reader = s.spawn(|| {
            let mut point = Session::new(db.clone());
            point.declare_purpose("country", &[("location".into(), "d3".into())]);
            let mut probe = Session::new(db.clone());
            probe.declare_purpose("region", &[("location".into(), "d2".into())]);
            let mut rng = Rng::new(ctx.seed ^ 0x5EAD);
            let recent = Zipf::new((READ_HORIZON.as_secs_f64() * INGEST_RATE) as usize, 0.9);
            let mut reads = Vec::new();
            let (mut retries, mut failed, mut n) = (0u64, 0u64, 0u64);
            while !stop.load(Ordering::Acquire) {
                let newest = ingested.load(Ordering::Acquire);
                if newest == 0 {
                    std::thread::yield_now();
                    continue;
                }
                let back = (recent.sample(&mut rng) as u64).min(newest - 1);
                let id = newest - 1 - back;
                let spec = events[id as usize].spec;
                let is_probe = n % 5 == 4;
                n += 1;
                let (kind, session, sql) = if is_probe {
                    let sql = format!(
                        "SELECT * FROM {TABLE} WHERE location = '{}'",
                        world.label(spec.addr, 2)
                    );
                    ("loc-eq@d2", &mut probe, sql)
                } else {
                    let sql = format!("SELECT * FROM {TABLE} WHERE id = {id}");
                    ("point-id", &mut point, sql)
                };
                let sent = Instant::now();
                // A reader that loses a lock race to the pump is told to
                // retry; it backs off briefly and does, and the retries
                // are part of its latency.
                let mut reply = session.execute(&sql);
                let mut tries = 0;
                while matches!(&reply, Err(e) if e.is_retryable()) && sent.elapsed() < READ_GIVE_UP
                {
                    tries += 1;
                    std::thread::sleep(READ_BACKOFF);
                    reply = session.execute(&sql);
                }
                let done = Instant::now();
                retries += tries as u64;
                let good = match (&reply, is_probe) {
                    (Ok(QueryOutput::Rows(r)), false) => {
                        r.rows == vec![world.values_at(id as i64, spec, 3)]
                    }
                    (Ok(QueryOutput::Rows(r)), true) => {
                        let region = Value::Str(world.label(spec.addr, 2).to_string());
                        r.rows.iter().all(|row| row[2] == region)
                    }
                    _ => false,
                };
                if at(sent) < warmup_s {
                    continue;
                }
                if good {
                    reads.push((kind, at(done), ms(done - sent)));
                } else {
                    failed += 1;
                }
            }
            (reads, retries, failed)
        });

        // This thread watches the pump from outside: how far past due the
        // oldest pending transition is, every few milliseconds.
        std::thread::sleep(Duration::from_secs_f64(warmup_s));
        let before = Counters::read(db);
        let late_before = db.scheduler().lateness();
        let mut overdue_ms = Vec::new();
        let mut lag_ms = Vec::new();
        let (mut mark, mut marked) = (at(Instant::now()), late_before.clone());
        while at(Instant::now()) < run_s {
            if tracing.is_some_and(|t| t.on()) && !db.obs().spans_enabled() {
                db.obs().set_spans_enabled(true);
            }
            overdue_ms.push(db.scheduler().overdue_lag(db.clock().now()).as_micros() as f64 / 1e3);
            if at(Instant::now()) - mark >= LAG_INTERVAL_S {
                let late = db.scheduler().lateness();
                if late.count() > marked.count() {
                    lag_ms.push((
                        at(Instant::now()) - warmup_s,
                        mean_lateness_ms(&marked, &late),
                    ));
                }
                (mark, marked) = (at(Instant::now()), late);
            }
            std::thread::sleep(LAG_SAMPLE_EVERY);
        }
        let ingest = ingester.join();
        stop.store(true, Ordering::Release);
        let reads = reader.join();
        if let Some(t) = ticker {
            let _ = t.join();
        }
        let counters = Counters::read(db).since(&before);
        let late = db.scheduler().lateness();
        (
            ingest,
            reads,
            lag_ms,
            overdue_ms,
            counters,
            late_before,
            late,
        )
    });
    let (ingest, reads, lag_ms, overdue_ms, counters, late_before, late) = result;
    let (ingest, ingest_failed) = ingest.map_err(|_| thread_failed("ingester"))?;
    let (reads, read_retries, read_failed) = reads.map_err(|_| thread_failed("reader"))?;

    let transitions = late.count() - late_before.count();
    let lag_mean_ms = mean_lateness_ms(&late_before, &late);
    let ack = instant_core::metrics::wal_stats(db).ack_latency;
    let window = Window {
        origin: origin + Duration::from_secs_f64(warmup_s),
        ops: ingest
            .due_s
            .iter()
            .zip(&ingest.latency_ms)
            .map(|(&due, &l)| (due - warmup_s + l / 1e3, l))
            .collect(),
        counters,
        ack_p50_ms: ack.p50() as f64 / 1e3,
    };
    Ok((
        window,
        Logs {
            ingest,
            ingest_failed,
            reads,
            read_retries,
            read_failed,
            lag_ms,
            overdue_ms,
            lag_mean_ms,
            lag_hist_p95_ms: late.quantile(0.95).as_micros() as f64 / 1e3,
            transitions,
        },
    ))
}

/// Mean executed − due, ms, of the transitions between two snapshots of
/// the scheduler's lateness histogram. Its quantiles are log₂ buckets,
/// but `mean × count` recovers its running sum; the mean is truncated to
/// a microsecond, so an interval's mean is good to about (transitions so
/// far ÷ transitions in the interval) µs — well under 1 % here.
fn mean_lateness_ms(
    earlier: &instant_core::scheduler::LatenessHistogram,
    later: &instant_core::scheduler::LatenessHistogram,
) -> f64 {
    let sum_us = |h: &instant_core::scheduler::LatenessHistogram| {
        h.mean().as_micros() as f64 * h.count() as f64
    };
    (sum_us(later) - sum_us(earlier)) / (later.count() - earlier.count()).max(1) as f64 / 1e3
}

/// Count values finer than the schedule allows, two ways: by reading
/// every live tuple, and as the forensic attacker — scraping the raw heap
/// and WAL images for any accurate address. Called once nothing may
/// legitimately still be accurate.
fn leaks(db: &Db, events: &[Event], world: &World) -> Result<(u64, u64, String)> {
    let table = db.catalog().get(TABLE)?;
    let schema = table.schema();
    let degrader = schema
        .column(instant_common::ColumnId(2))
        .degrader()
        .expect("location is degradable");
    // A transition may run late by one pump tick; a sealed image may stay
    // readable for one key window and until the next checkpoint.
    let slack = instant_common::Duration::micros(
        (PUMP_TICK + CHECKPOINT_EVERY).as_micros() as u64 + KEY_WINDOW.as_micros(),
    );
    let now = db.now();
    let mut too_fine = 0u64;
    let mut live = 0u64;
    for (_tid, tuple) in table.scan()? {
        live += 1;
        let id = tuple.row[0].as_int()? as usize;
        let spec = events[id].spec;
        let age = now.since(tuple.insert_ts).saturating_sub(slack);
        let stored = tuple.stages[0].map(|s| degrader.lcp().stages()[s as usize].level);
        let ok = match (degrader.level_at(age), stored) {
            // Past its life even allowing the slack: must be gone.
            (None, _) => false,
            (Some(_), None) => true,
            (Some(owed), Some(level)) => {
                level >= owed
                    && tuple.row[2] == Value::Str(world.label(spec.addr, level.0).to_string())
            }
        };
        too_fine += u64::from(!ok);
    }
    let report = forensic_scan(db, &forensic_needles(["/Addr"]))?;
    let detail = format!(
        "{live} live tuples scanned, {too_fine} finer than owed; {} bytes of heap+WAL scraped, \
         {} accurate addresses found",
        report.bytes_scanned, report.occurrences
    );
    Ok((too_fine, report.occurrences as u64, detail))
}

pub fn run(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let warmup_s = secs(LIFETIME) + 0.5;
    let run_s = warmup_s + ctx.seconds;
    let (mut env, setups) =
        repeat_setup(|rep| setup(ctx, run_s, false, &rep.to_string()), teardown)?;

    let (w, logs) = drive(&env, ctx, warmup_s, None)?;
    let steady_rows = env.db.catalog().get(TABLE)?.live_count()?;

    // Crash it live. The checkpointer stops first (its last tick
    // checkpoints); the pump runs on while the last accurate values fall
    // due, so the log has a tail of transitions past that checkpoint;
    // then the engine is dropped with that tail unflushed.
    if let Some(c) = env.checkpointer.take() {
        c.stop()?;
    }
    std::thread::sleep(Duration::from_millis(500) + 2 * PUMP_TICK);
    stop_daemons(&mut env)?;
    let rows_at_crash = env.db.catalog().get(TABLE)?.live_count()?;
    let buffer_frames = env.db.config().buffer_frames;
    let checkpoints = env.db.stats().checkpoints.load(Ordering::Relaxed);
    let Env {
        dir, db, events, ..
    } = env;
    drop(db);

    // Restart from fresh copies of the files; look for leaks in the last.
    let schema = ctx.world.schema(LCP, true)?;
    let mut restart_ms = Vec::new();
    let mut restarted = None;
    for i in 0..RESTARTS {
        drop(restarted.take());
        let scratch = ctx.data_root.join(format!("{NAME}-restart-{i}"));
        let (took, db) = recover_copy(&dir, config(&scratch), Arc::new(SystemClock), &schema)?;
        restart_ms.push(took);
        restarted = Some(db);
    }
    let db = restarted.as_ref().expect("RESTARTS is at least one");
    let rows_after_restart = db.catalog().get(TABLE)?.live_count()?;
    out.check(
        "restart_keeps_rows",
        rows_after_restart == rows_at_crash,
        format!("{rows_at_crash} live rows at the crash, {rows_after_restart} after recovery"),
    );
    db.pump_degradation()?;
    db.checkpoint()?;
    let (too_fine, scraped, detail) = leaks(db, &events, &ctx.world)?;
    out.check("leaks_is_zero", too_fine + scraped == 0, detail);
    drop(restarted);
    for i in 0..RESTARTS {
        std::fs::remove_dir_all(ctx.data_root.join(format!("{NAME}-restart-{i}")))?;
    }
    std::fs::remove_dir_all(&dir)?;

    let ingest = Summary::of(&logs.ingest.latency_ms);
    let late = Summary::of(&logs.ingest.gen_late_ms);
    let read_ms: Vec<f64> = logs.reads.iter().map(|r| r.2).collect();
    let of = |kind: &str| -> Vec<f64> {
        logs.reads
            .iter()
            .filter(|r| r.0 == kind)
            .map(|r| r.2)
            .collect()
    };
    let reads = Summary::of(&read_ms);
    let lag_means: Vec<f64> = logs.lag_ms.iter().map(|l| l.1).collect();
    let lag = Summary::of(&lag_means);
    let on_time = logs
        .ingest
        .latency_ms
        .iter()
        .filter(|&&l| l <= INGEST_LIMIT_MS)
        .count();
    let overdue = Summary::of(&logs.overdue_ms);
    let read_elapsed = logs.reads.iter().map(|r| r.1).fold(warmup_s, f64::max) - warmup_s;

    out.attempted = (ingest.n + reads.n) as u64 + logs.ingest_failed + logs.read_failed;
    out.failed = logs.ingest_failed + logs.read_failed;
    out.check(
        "reads_are_coherent",
        logs.read_failed == 0,
        format!(
            "{} reads checked against the seed's rows, {} wrong or failed",
            reads.n, logs.read_failed
        ),
    );

    out.put_n("setup_s", median(&setups), "s", setups.len());
    out.put_latency("ingest", &ingest);
    out.put_noted(
        "ingest_top_ms",
        ingest.top,
        "ms",
        Some(ingest.n),
        Some(format!("p{}", ingest.top_at * 100.0)),
    );
    out.put_n(
        "ingest_within_limit_share",
        within_limit_share(&logs.ingest.latency_ms, INGEST_LIMIT_MS, logs.ingest_failed),
        "share",
        ingest.n,
    );
    out.put_n(
        "ingest_on_time_s",
        on_time as f64 / ctx.seconds,
        "1/s",
        on_time,
    );
    out.put_n("gen_late_p50_ms", late.p50, "ms", late.n);
    out.put_n("gen_late_p95_ms", late.p95, "ms", late.n);
    out.put_n("read_ops_s", reads.n as f64 / read_elapsed, "1/s", reads.n);
    out.put_latency("read", &reads);
    out.put_n(
        "read_point_p50_ms",
        median(&of("point-id")),
        "ms",
        of("point-id").len(),
    );
    out.put_n(
        "read_probe_d2_p50_ms",
        median(&of("loc-eq@d2")),
        "ms",
        of("loc-eq@d2").len(),
    );
    out.put(
        "read_retry_share",
        logs.read_retries as f64 / (reads.n as u64 + logs.read_retries).max(1) as f64,
        "share",
    );
    out.put_noted(
        "degrade_lag_p50_ms",
        lag.p50,
        "ms",
        Some(lag.n),
        Some(format!(
            "median of {LAG_INTERVAL_S} s interval means of executed − due"
        )),
    );
    out.put_noted(
        "degrade_lag_p95_ms",
        logs.lag_hist_p95_ms,
        "ms",
        Some(logs.transitions as usize),
        Some("log₂ bucket bound from Db::scheduler().lateness(); not gated".into()),
    );
    out.put_n(
        "degrade_lag_mean_ms",
        logs.lag_mean_ms,
        "ms",
        logs.transitions as usize,
    );
    out.put_n("overdue_p50_ms", overdue.p50, "ms", overdue.n);
    out.put_n("overdue_p95_ms", overdue.p95, "ms", overdue.n);
    out.put_n("restart_ms", median(&restart_ms), "ms", restart_ms.len());
    out.put("leaks", (too_fine + scraped) as f64, "count");
    out.put(
        "pump_deferred_share",
        w.counters.lock_retries as f64
            / (w.counters.degrade_steps + w.counters.lock_retries).max(1) as f64,
        "share",
    );
    // The gate is on what holds still when the host's fsync latency
    // shifts (README, "What is gated"): on-time ingest, lag, restart.
    // Ingest latency itself is fsync-bound.
    gate(
        &mut out,
        on_time as f64 / ctx.seconds,
        &logs.lag_ms,
        ctx.seconds,
        median(&restart_ms),
    );

    out.fact(
        "loop",
        "open (Poisson ingester) beside closed (one reader), no TCP",
    );
    out.fact("ingest_rate_per_s", INGEST_RATE);
    out.fact("ingest_limit_ms", INGEST_LIMIT_MS);
    out.fact("lcp", LCP);
    out.fact("key_window_ms", KEY_WINDOW.as_micros() / 1000);
    out.fact("pump_tick_ms", PUMP_TICK.as_millis());
    out.fact("checkpoint_every_s", CHECKPOINT_EVERY.as_secs());
    out.fact("warmup_s", warmup_s);
    out.fact("buffer_frames", buffer_frames);
    out.fact("steady_rows", steady_rows);
    out.fact("rows_at_crash", rows_at_crash);
    out.fact("transitions_in_window", logs.transitions);
    out.fact("checkpoints_in_run", checkpoints);
    Ok(out)
}
