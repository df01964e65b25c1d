//! `wire-insert`: the durable write path end to end.
//!
//! Two closed-loop clients over loopback TCP, each sending single-row
//! auto-commit `INSERT`s into `events` and waiting for every reply — SQL
//! callers block on the reply, so the loop is closed. `server`, the
//! `core::query` parser, `core::db` insert, `index` maintenance and the
//! `wal` commit are all on the blocking path; the degradation pump is
//! idle (the first transition is an hour away) and the tail pages being
//! written fit the buffer pool. A background `Checkpointer` runs every
//! two seconds so several cycles complete inside the window.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use instant_common::{Result, SystemClock};
use instant_core::query::QueryOutput;
use instant_core::Db;
use instant_server::{Client, Server};
use instant_workload::rng::Rng;

use crate::harness::{
    checkpoint_ticker, gate, ms, repeat_setup, secs, serve, Counters, Ctx, Tracing, Window,
};
use crate::report::Outcome;
use crate::stats::{median, Summary};
use crate::world::{self, thread_failed, RowSpec, World, TABLE};

pub const NAME: &str = "wire-insert";
pub const LCP: &str = "d0:1h -> d1:1d -> d3:30d";
pub const CLIENTS: usize = 2;
pub const CHECKPOINT_EVERY: Duration = Duration::from_secs(2);
const WARMUP_PER_CLIENT: usize = 20;
const READBACK_PER_CLIENT: usize = 40;

/// One connection and what it has had acknowledged.
struct Conn {
    client: Client,
    rng: Rng,
    lane: usize,
    sent: u64,
    acked: Vec<(i64, RowSpec)>,
    failed: u64,
}

impl Conn {
    /// Send the lane's next row; ids interleave across lanes so no two
    /// clients ever collide. Returns the round trip.
    fn insert(&mut self, world: &World) -> Duration {
        let id = (self.sent * CLIENTS as u64 + self.lane as u64) as i64;
        self.sent += 1;
        let spec = world.sample_row(&mut self.rng);
        let sql = world.insert_sql(id, spec);
        let start = Instant::now();
        match self.client.query(&sql) {
            Ok(QueryOutput::Inserted(1)) => self.acked.push((id, spec)),
            _ => self.failed += 1,
        }
        start.elapsed()
    }
}

pub struct Env {
    dir: std::path::PathBuf,
    pub db: Arc<Db>,
    server: Server,
    conns: Vec<Conn>,
}

/// Open a fresh engine behind a server, connect the clients and warm
/// each connection up. A `traced` set-up starts no `Checkpointer`: the
/// traced window ticks the checkpoints itself.
pub fn setup(ctx: &Ctx, traced: bool, tag: &str) -> Result<Env> {
    let dir = world::fresh_dir(&ctx.data_root, &format!("{NAME}-{tag}"))?;
    let mut cfg = world::db_config(&dir);
    if !traced {
        cfg.checkpoint_every = Some(CHECKPOINT_EVERY);
    }
    let db = Arc::new(Db::open(cfg, Arc::new(SystemClock))?);
    db.create_table(ctx.world.schema(LCP, true)?)?;
    let server = serve(&db)?;
    let addr = server.local_addr().to_string();
    let mut conns = Vec::with_capacity(CLIENTS);
    for lane in 0..CLIENTS {
        conns.push(Conn {
            client: Client::connect(addr.clone())?,
            rng: Rng::new(ctx.seed.wrapping_mul(CLIENTS as u64) + lane as u64),
            lane,
            sent: 0,
            acked: Vec::new(),
            failed: 0,
        });
    }
    std::thread::scope(|s| {
        for conn in &mut conns {
            s.spawn(|| {
                for _ in 0..WARMUP_PER_CLIENT {
                    conn.insert(&ctx.world);
                }
            });
        }
    });
    Ok(Env {
        dir,
        db,
        server,
        conns,
    })
}

pub fn teardown(env: Env) -> Result<()> {
    for conn in env.conns {
        conn.client.close()?;
    }
    env.server.shutdown()?;
    drop(env.db);
    std::fs::remove_dir_all(&env.dir)?;
    Ok(())
}

/// Drive both clients for `seconds`. When traced, the harness ticks the
/// checkpoints itself, and records every round trip once tracing is on.
pub fn window(env: &mut Env, ctx: &Ctx, seconds: f64, tracing: Option<Tracing>) -> Result<Window> {
    let before = Counters::read(&env.db);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let db = &env.db;
    let logs = std::thread::scope(|s| {
        let ticker = tracing.map(|t| {
            let stop = &stop;
            s.spawn(move || checkpoint_ticker(db, CHECKPOINT_EVERY, stop, t.spans))
        });
        let workers: Vec<_> = env
            .conns
            .iter_mut()
            .map(|conn| {
                s.spawn(move || {
                    let mut log = Vec::new();
                    while Instant::now() < deadline {
                        let request = conn.sent * CLIENTS as u64 + conn.lane as u64;
                        let sent = Instant::now();
                        let took = conn.insert(&ctx.world);
                        if let Some(t) = tracing.filter(Tracing::on) {
                            t.spans
                                .record("Client::query", None, request, sent, sent + took);
                        }
                        log.push((secs(sent.duration_since(start) + took), ms(took)));
                    }
                    log
                })
            })
            .collect();
        if let Some(t) = tracing {
            t.switch_on(db);
        }
        let logs: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
        stop.store(true, Ordering::Release);
        if let Some(t) = ticker {
            let _ = t.join();
        }
        logs
    });
    let mut ops = Vec::new();
    for log in logs {
        ops.extend(log.map_err(|_| thread_failed("insert client"))?);
    }
    let snap = instant_core::metrics::wal_stats(&env.db);
    Ok(Window {
        origin: start,
        ops,
        counters: Counters::read(&env.db).since(&before),
        ack_p50_ms: snap.ack_latency.p50() as f64 / 1e3,
    })
}

/// The timed pass.
pub fn run(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let (mut env, setups) = repeat_setup(|rep| setup(ctx, false, &rep.to_string()), teardown)?;

    let w = window(&mut env, ctx, ctx.seconds, None)?;
    let lat: Vec<f64> = w.ops.iter().map(|&(_, ms)| ms).collect();
    let summary = Summary::of(&lat);

    // Acknowledged inserts must all be live rows, and a sample of them
    // must read back over the wire exactly as sent.
    let acked: usize = env.conns.iter().map(|c| c.acked.len()).sum();
    let live = env.db.catalog().get(TABLE)?.live_count()?;
    out.check(
        "acked_equals_live",
        acked == live,
        format!("{acked} acknowledged, {live} live rows"),
    );
    let (readback_ms, mismatches) = read_back(&mut env, &ctx.world)?;
    out.check(
        "readback_matches",
        mismatches == 0,
        format!("{} rows read back, {mismatches} differ", readback_ms.len()),
    );

    out.attempted = env.conns.iter().map(|c| c.sent).sum::<u64>() + readback_ms.len() as u64;
    out.failed = env.conns.iter().map(|c| c.failed).sum::<u64>() + mismatches;
    let checkpoints = env.db.stats().checkpoints.load(Ordering::Relaxed);

    // Completed inserts over the time the last one completed at: a
    // closed loop overruns its deadline by up to one round trip.
    let elapsed = w.ops.iter().map(|o| o.0).fold(0.0, f64::max);
    let ops_s = lat.len() as f64 / elapsed;
    out.put_n("setup_s", median(&setups), "s", setups.len());
    out.put_n("insert_ops_s", ops_s, "1/s", lat.len());
    out.put_latency("insert", &summary);
    out.put_n(
        "readback_p50_ms",
        median(&readback_ms),
        "ms",
        readback_ms.len(),
    );
    gate(&mut out, ops_s, &w.ops, elapsed, median(&readback_ms));

    out.fact(
        "loop",
        format!("closed, {CLIENTS} clients over loopback TCP"),
    );
    out.fact("lcp", LCP);
    out.fact("buffer_frames", env.db.config().buffer_frames);
    out.fact("rows", live);
    out.fact("checkpoints_in_run", checkpoints);
    out.fact("checkpoint_every_s", CHECKPOINT_EVERY.as_secs());
    teardown(env)?;
    Ok(out)
}

/// Read a seeded sample of each connection's acknowledged rows back by
/// id. Nothing has degraded (the first transition is an hour out), so
/// every row must come back exactly as it was sent.
fn read_back(env: &mut Env, world: &World) -> Result<(Vec<f64>, u64)> {
    let results = std::thread::scope(|s| {
        let workers: Vec<_> = env
            .conns
            .iter_mut()
            .map(|conn| {
                s.spawn(move || {
                    let mut times = Vec::new();
                    let mut wrong = 0u64;
                    for _ in 0..READBACK_PER_CLIENT.min(conn.acked.len()) {
                        let (id, spec) = *conn.rng.pick(&conn.acked);
                        let sql = format!("SELECT * FROM {TABLE} WHERE id = {id}");
                        let start = Instant::now();
                        let reply = conn.client.query(&sql);
                        times.push(ms(start.elapsed()));
                        let expected = vec![world.values(id, spec)];
                        match reply {
                            Ok(QueryOutput::Rows(r)) if r.rows == expected => {}
                            _ => wrong += 1,
                        }
                    }
                    (times, wrong)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join()).collect::<Vec<_>>()
    });
    let mut times = Vec::new();
    let mut wrong = 0;
    for r in results {
        let (t, w) = r.map_err(|_| thread_failed("read-back client"))?;
        times.extend(t);
        wrong += w;
    }
    Ok((times, wrong))
}
