//! `wire-read`: the read path only, on a table four times the buffer
//! pool.
//!
//! Set-up preloads `events` under a `MockClock` that is advanced between
//! quarters and pumped, so a quarter of the rows sit at each of d0, d1,
//! d2 and d3; then the clock is frozen. Two closed-loop clients issue a
//! fixed mix: `point-id` (stable-index probe), `loc-eq@d0` and
//! `loc-eq@d2` (multi-level index probe under a declared purpose) and
//! `like-country@d3` (full scan). `wal` and the pump do nothing here;
//! `server`, the planner, `index` and `storage` fault-in do everything,
//! which makes this the workload any commit-path optimisation bypasses.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use instant_common::{MockClock, Result, Value};
use instant_core::query::QueryOutput;
use instant_core::Db;
use instant_server::{Client, Server};
use instant_workload::rng::Rng;

use crate::harness::{gate, ms, repeat_setup, secs, serve, Counters, Ctx, Tracing, Window};
use crate::report::Outcome;
use crate::stats::{median, Summary};
use crate::world::{self, thread_failed, RowSpec, World, TABLE};

pub const NAME: &str = "wire-read";
pub const LCP: &str = "d0:1h -> d1:1d -> d2:10d -> d3:30d";
pub const CLIENTS: usize = 2;
/// Rows preloaded, a quarter at each accuracy level.
pub const ROWS: usize = 8_000;
/// Buffer pool frames: about a quarter of the heap `ROWS` rows fill
/// (the run prints both sizes).
pub const BUFFER_FRAMES: usize = 20;

/// One read of the mix. Its `level` is the accuracy the session must
/// have declared before it is sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Read {
    /// `point-id`: one row by primary key, seen at country accuracy so
    /// rows at every level qualify.
    Point(i64),
    /// `loc-eq@dK`: rows whose location, at level K, equals the label
    /// of this address.
    LocEq { level: u8, addr: u16 },
    /// `like-country@d3`: ids of every row in this address's country.
    Scan(u16),
}

impl Read {
    pub fn level(&self) -> u8 {
        match self {
            Read::Point(_) | Read::Scan(_) => 3,
            Read::LocEq { level, .. } => *level,
        }
    }

    pub fn kind(&self) -> &'static str {
        match self {
            Read::Point(_) => "point-id",
            Read::LocEq { level: 0, .. } => "loc-eq@d0",
            Read::LocEq { .. } => "loc-eq@d2",
            Read::Scan(_) => "like-country@d3",
        }
    }

    pub fn sql(&self, world: &World) -> String {
        match self {
            Read::Point(id) => format!("SELECT * FROM {TABLE} WHERE id = {id}"),
            Read::LocEq { level, addr } => format!(
                "SELECT * FROM {TABLE} WHERE location = '{}'",
                world.label(*addr, *level)
            ),
            Read::Scan(addr) => format!(
                "SELECT id FROM {TABLE} WHERE location LIKE '{}%'",
                world.label(*addr, 3)
            ),
        }
    }
}

pub fn declare_sql(level: u8) -> String {
    format!("DECLARE PURPOSE P{level} SET ACCURACY LEVEL d{level} FOR location")
}

/// The mix as one fixed cycle of twenty reads: 12 `point-id`, 1 scan,
/// 4 `loc-eq@d2`, 3 `loc-eq@d0` — grouped by the purpose they need, so a
/// connection re-declares its purpose three times per cycle.
const CYCLE: [u8; 20] = [
    b'p', b'p', b'p', b'p', b'p', b'p', b's', b'p', b'p', b'p', b'p', b'p', b'p', b'2', b'2', b'2',
    b'2', b'0', b'0', b'0',
];

/// Draws the seeded read stream: ids Zipf-skewed over the table,
/// places by popularity.
pub struct ReadGen {
    rng: Rng,
    ids: instant_workload::zipf::Zipf,
    at: usize,
}

impl ReadGen {
    pub fn new(seed: u64, rows: usize, phase: usize) -> ReadGen {
        ReadGen {
            rng: Rng::new(seed),
            ids: instant_workload::zipf::Zipf::new(rows, 0.9),
            at: phase,
        }
    }

    pub fn next(&mut self, world: &World) -> Read {
        let slot = CYCLE[self.at % CYCLE.len()];
        self.at += 1;
        match slot {
            // Zipf rank r maps to a scattered id, so hot ids are spread
            // over all four quarters (levels) and over the heap.
            b'p' => {
                let rank = self.ids.sample(&mut self.rng) as u64;
                Read::Point((rank.wrapping_mul(7919) % self.ids.len() as u64) as i64)
            }
            b's' => Read::Scan(world.sample_addr(&mut self.rng)),
            b'2' => Read::LocEq {
                level: 2,
                addr: world.sample_addr(&mut self.rng),
            },
            _ => Read::LocEq {
                level: 0,
                addr: world.sample_addr(&mut self.rng),
            },
        }
    }
}

/// The accuracy level row `id` of `rows` sits at after [`preload`]: the
/// oldest quarter has reached d3, the newest is still d0.
pub fn level_of(id: i64, rows: usize) -> u8 {
    3 - (id as usize / (rows / 4)) as u8
}

/// What every read must return, built from the seed alone.
pub struct Model {
    rows: Vec<RowSpec>,
    /// `(level, label)` → `(count, sum of ids)` of the rows a `loc-eq`
    /// at that level and label returns.
    loc_eq: HashMap<(u8, String), (u64, i64)>,
    /// Country label → `(count, sum of ids)`.
    country: HashMap<String, (u64, i64)>,
}

impl Model {
    pub fn new(world: &World, rows: Vec<RowSpec>) -> Model {
        let mut loc_eq: HashMap<(u8, String), (u64, i64)> = HashMap::new();
        let mut country: HashMap<String, (u64, i64)> = HashMap::new();
        for (id, spec) in rows.iter().enumerate() {
            let id = id as i64;
            let stored = level_of(id, rows.len());
            // A row at level L answers `loc-eq@dK` for every K ≥ L.
            for k in [0u8, 2] {
                if stored <= k {
                    let e = loc_eq
                        .entry((k, world.label(spec.addr, k).to_string()))
                        .or_default();
                    e.0 += 1;
                    e.1 += id;
                }
            }
            let e = country
                .entry(world.label(spec.addr, 3).to_string())
                .or_default();
            e.0 += 1;
            e.1 += id;
        }
        Model {
            rows,
            loc_eq,
            country,
        }
    }

    /// Does `reply` equal what the model says `read` returns? Point
    /// reads are compared value by value; set reads by row count and id
    /// sum, with every returned location checked against the label.
    pub fn agrees(&self, world: &World, read: &Read, reply: &QueryOutput) -> bool {
        let QueryOutput::Rows(r) = reply else {
            return false;
        };
        match read {
            Read::Point(id) => {
                let spec = self.rows[*id as usize];
                r.rows == vec![world.values_at(*id, spec, 3)]
            }
            Read::LocEq { level, addr } => {
                let label = world.label(*addr, *level);
                let expected = self
                    .loc_eq
                    .get(&(*level, label.to_string()))
                    .copied()
                    .unwrap_or_default();
                digest(&r.rows) == expected
                    && r.rows
                        .iter()
                        .all(|row| row[2] == Value::Str(label.to_string()))
            }
            Read::Scan(addr) => {
                let expected = self
                    .country
                    .get(world.label(*addr, 3))
                    .copied()
                    .unwrap_or_default();
                digest(&r.rows) == expected
            }
        }
    }
}

fn digest(rows: &[Vec<Value>]) -> (u64, i64) {
    let sum = rows.iter().filter_map(|row| row[0].as_int().ok()).sum();
    (rows.len() as u64, sum)
}

struct Conn {
    client: Client,
    gen: ReadGen,
    declared: Option<u8>,
    attempted: u64,
    failed: u64,
}

impl Conn {
    /// Send the next read of the stream, declaring its purpose first if
    /// the connection's current one differs. Returns the read, the time
    /// it was sent and its round trip (the declaration is not part of it).
    fn next(&mut self, world: &World, model: &Model) -> (Read, Instant, Duration) {
        let read = self.gen.next(world);
        if self.declared != Some(read.level()) {
            self.attempted += 1;
            match self.client.query(&declare_sql(read.level())) {
                Ok(QueryOutput::PurposeDeclared(_)) => self.declared = Some(read.level()),
                _ => self.failed += 1,
            }
        }
        let sql = read.sql(world);
        self.attempted += 1;
        let sent = Instant::now();
        let reply = self.client.query(&sql);
        let took = sent.elapsed();
        if !reply.is_ok_and(|r| model.agrees(world, &read, &r)) {
            self.failed += 1;
        }
        (read, sent, took)
    }
}

pub struct Env {
    dir: std::path::PathBuf,
    pub db: Arc<Db>,
    server: Server,
    conns: Vec<Conn>,
    model: Model,
    heap_pages: usize,
}

/// Insert `rows` as ids `first..`, all at the clock's current time,
/// from two threads so the halves share group-commit fsyncs.
fn load(db: &Db, world: &World, first: usize, rows: &[RowSpec]) -> Result<()> {
    let (left, right) = rows.split_at(rows.len() / 2);
    let half = |first: usize, rows: &[RowSpec]| -> Result<()> {
        for (i, spec) in rows.iter().enumerate() {
            db.insert(TABLE, &world.values((first + i) as i64, *spec))?;
        }
        Ok(())
    };
    std::thread::scope(|s| {
        let other = s.spawn(|| half(first + left.len(), right));
        half(first, left)?;
        other.join().map_err(|_| thread_failed("preload"))?
    })
}

/// Load `rows` (ids `0..`) in four quarters under `clock`, advancing and
/// pumping between them, so that a quarter of the rows end at each of
/// d3, d2, d1 and d0 (ages 12 d, 2 d, 2 h and 0 under [`LCP`]); then
/// checkpoint. The clock is left where the last advance put it.
pub fn preload(db: &Db, clock: &MockClock, world: &World, rows: &[RowSpec]) -> Result<()> {
    let quarter = rows.len() / 4;
    let hours = instant_common::Duration::hours;
    for (q, advance) in [Some(hours(240)), Some(hours(46)), Some(hours(2)), None]
        .into_iter()
        .enumerate()
    {
        load(
            db,
            world,
            q * quarter,
            &rows[q * quarter..(q + 1) * quarter],
        )?;
        if let Some(d) = advance {
            clock.advance(d);
            db.pump_degradation()?;
        }
    }
    db.checkpoint()
}

pub fn setup(ctx: &Ctx, tag: &str) -> Result<Env> {
    let world = &ctx.world;
    let dir = world::fresh_dir(&ctx.data_root, &format!("{NAME}-{tag}"))?;
    let mut cfg = world::db_config(&dir);
    cfg.buffer_frames = BUFFER_FRAMES;
    let clock = MockClock::new();
    let db = Arc::new(Db::open(cfg, clock.shared())?);
    db.create_table(world.schema(LCP, true)?)?;

    let rows = world.rows(&mut Rng::new(ctx.seed), ROWS);
    preload(&db, &clock, world, &rows)?;
    let heap_pages = db.catalog().get(TABLE)?.heap().page_count();
    let model = Model::new(world, rows);

    let server = serve(&db)?;
    let addr = server.local_addr().to_string();
    let mut conns = Vec::with_capacity(CLIENTS);
    for lane in 0..CLIENTS {
        conns.push(Conn {
            client: Client::connect(addr.clone())?,
            // The second client starts half a cycle in, so the two are
            // never in lockstep on the same kind of read.
            gen: ReadGen::new(
                ctx.seed.wrapping_mul(CLIENTS as u64) + lane as u64,
                ROWS,
                lane * CYCLE.len() / 2,
            ),
            declared: None,
            attempted: 0,
            failed: 0,
        });
    }
    // One cycle per connection warms the pool's hot set and the sockets.
    std::thread::scope(|s| {
        for conn in &mut conns {
            let model = &model;
            s.spawn(move || {
                for _ in 0..CYCLE.len() {
                    conn.next(world, model);
                }
            });
        }
    });
    Ok(Env {
        dir,
        db,
        server,
        conns,
        model,
        heap_pages,
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

/// One read as the window logged it.
pub struct Logged {
    pub kind: &'static str,
    pub at_s: f64,
    pub ms: f64,
}

pub fn window(
    env: &mut Env,
    ctx: &Ctx,
    seconds: f64,
    tracing: Option<Tracing>,
) -> Result<(Window, Vec<Logged>)> {
    let before = Counters::read(&env.db);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let model = &env.model;
    let logs = std::thread::scope(|s| {
        let workers: Vec<_> = env
            .conns
            .iter_mut()
            .enumerate()
            .map(|(lane, conn)| {
                s.spawn(move || {
                    let mut log = Vec::new();
                    let mut n = 0u64;
                    while Instant::now() < deadline {
                        let (read, sent, took) = conn.next(&ctx.world, model);
                        if let Some(t) = tracing.filter(Tracing::on) {
                            let request = n * CLIENTS as u64 + lane as u64;
                            t.spans
                                .record("Client::query", None, request, sent, sent + took);
                        }
                        n += 1;
                        log.push(Logged {
                            kind: read.kind(),
                            at_s: secs(sent.duration_since(start) + took),
                            ms: ms(took),
                        });
                    }
                    log
                })
            })
            .collect();
        if let Some(t) = tracing {
            t.switch_on(&env.db);
        }
        workers.into_iter().map(|w| w.join()).collect::<Vec<_>>()
    });
    let mut all = Vec::new();
    for log in logs {
        all.extend(log.map_err(|_| thread_failed("read client"))?);
    }
    let w = Window {
        origin: start,
        ops: all
            .iter()
            .filter(|l| l.kind == "point-id")
            .map(|l| (l.at_s, l.ms))
            .collect(),
        counters: Counters::read(&env.db).since(&before),
        ack_p50_ms: 0.0,
    };
    Ok((w, all))
}

pub fn run(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    let (mut env, setups) = repeat_setup(|rep| setup(ctx, &rep.to_string()), teardown)?;

    let (w, log) = window(&mut env, ctx, ctx.seconds, None)?;
    let of = |kind: &str| -> Vec<f64> {
        log.iter()
            .filter(|l| l.kind == kind)
            .map(|l| l.ms)
            .collect()
    };
    let elapsed = log.iter().map(|l| l.at_s).fold(0.0, f64::max);
    let point = Summary::of(&of("point-id"));
    let (d0, d2, scan) = (of("loc-eq@d0"), of("loc-eq@d2"), of("like-country@d3"));

    out.attempted = env.conns.iter().map(|c| c.attempted).sum();
    out.failed = env.conns.iter().map(|c| c.failed).sum();
    out.check(
        "reads_equal_model",
        out.failed == 0,
        format!(
            "{} replies compared with the seed's model, {} differ or failed",
            out.attempted, out.failed
        ),
    );

    out.put_n("setup_s", median(&setups), "s", setups.len());
    out.put_n("read_ops_s", log.len() as f64 / elapsed, "1/s", log.len());
    out.put_latency("point", &point);
    out.put_n("probe_d0_p50_ms", median(&d0), "ms", d0.len());
    out.put_n("probe_d2_p50_ms", median(&d2), "ms", d2.len());
    out.put_n("scan_p50_ms", median(&scan), "ms", scan.len());
    gate(
        &mut out,
        log.len() as f64 / elapsed,
        &w.ops,
        elapsed,
        median(&d2),
    );

    let faults = w.counters.pool_misses;
    let touched = (w.counters.pool_hits + faults).max(1);
    out.put(
        "pool_hit_rate",
        w.counters.pool_hits as f64 / touched as f64,
        "share",
    );
    out.fact(
        "loop",
        format!("closed, {CLIENTS} clients over loopback TCP"),
    );
    out.fact(
        "mix",
        "point-id 60 %, loc-eq@d2 20 %, loc-eq@d0 15 %, like-country@d3 5 %",
    );
    out.fact("lcp", LCP);
    out.fact(
        "rows",
        format!("{ROWS}, a quarter at each of d0..d3, clock frozen"),
    );
    out.fact("buffer_frames", BUFFER_FRAMES);
    out.fact("heap_pages", env.heap_pages);
    out.fact(
        "heap_bytes",
        env.heap_pages * instant_storage::page::PAGE_SIZE,
    );
    out.fact(
        "pool_share_of_heap",
        format!("{:.2}", BUFFER_FRAMES as f64 / env.heap_pages as f64),
    );
    teardown(env)?;
    Ok(out)
}
