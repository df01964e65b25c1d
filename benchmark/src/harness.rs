//! What the passes share: the run context, spans recorded from outside
//! the engine, engine counters read before and after a window, and the
//! checkpoint ticker the traced pass drives itself so it knows exactly
//! when each checkpoint ran.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use instant_common::{Result, SharedClock};
use instant_core::metrics::stats_snapshot;
use instant_core::query::HierarchyRegistry;
use instant_core::schema::TableSchema;
use instant_core::{Db, DbConfig};
use instant_server::{Server, ServerConfig};

use crate::world::World;

/// How many times a run sets its engine up at least; `setup_s` is the
/// median.
const SETUP_REPEATS: usize = 3;

/// One invocation's inputs.
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Root under which each set-up makes its own fresh directory.
    pub data_root: PathBuf,
    pub world: World,
}

/// A span recorded by the harness around a call into the engine.
/// `parent` names the enclosing layer's span of the same `request`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<&'static str>,
    pub request: u64,
}

/// Spans kept in memory until the pass ends.
pub struct Spans {
    origin: Instant,
    list: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            list: Mutex::new(Vec::new()),
        }
    }

    pub fn record(
        &self,
        name: &'static str,
        parent: Option<&'static str>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            name,
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            end_us: end.duration_since(self.origin).as_secs_f64() * 1e6,
            parent,
            request,
        };
        self.list.lock().expect("span list poisoned").push(span);
    }

    /// Seconds from the sink's origin to `t`, the time base of the spans.
    pub fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64()
    }

    pub fn named(&self, name: &str) -> Vec<Span> {
        let list = self.list.lock().expect("span list poisoned");
        list.iter().filter(|s| s.name == name).cloned().collect()
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.list.lock().expect("span list poisoned"))
    }
}

/// How a traced window is traced. Checkpoints are ticked by the harness
/// and recorded from the start; the engine's own spans and the harness's
/// per-request spans turn on at `on_at`, part-way through, so the
/// requests before it are the untraced half of an A/B on one engine.
#[derive(Clone, Copy)]
pub struct Tracing<'a> {
    pub spans: &'a Spans,
    pub on_at: Instant,
}

impl Tracing<'_> {
    pub fn on(&self) -> bool {
        Instant::now() >= self.on_at
    }

    /// Sleep until `on_at`, then turn the engine's spans on.
    pub fn switch_on(&self, db: &Db) {
        if let Some(wait) = self.on_at.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        db.obs().set_spans_enabled(true);
    }
}

/// Run `db.checkpoint()` every `every` until `stop`, recording each as a
/// `Db::checkpoint` span. The traced pass uses this in place of the
/// engine's `Checkpointer` daemon: same work on the same interval, but
/// the harness learns when each one started and ended.
pub fn checkpoint_ticker(db: &Db, every: Duration, stop: &AtomicBool, spans: &Spans) {
    let mut n = 0;
    let mut next = Instant::now() + every;
    while !stop.load(Ordering::Acquire) {
        if Instant::now() < next {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        let start = Instant::now();
        if db.checkpoint().is_ok() {
            spans.record("Db::checkpoint", None, n, start, Instant::now());
            n += 1;
        }
        next = start + every;
    }
}

/// Engine counters the per-layer ratios are built from.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_evictions: u64,
    pub wal_fsyncs: u64,
    pub commits: u64,
    pub batches: u64,
    pub lock_retries: u64,
    pub degrade_steps: u64,
}

impl Counters {
    pub fn read(db: &Db) -> Counters {
        let snap = stats_snapshot(db);
        let c = |name: &str| snap.counter(name).unwrap_or(0);
        let (pool_hits, pool_misses, pool_evictions) = db.buffer_pool().stats();
        Counters {
            pool_hits,
            pool_misses,
            pool_evictions,
            wal_fsyncs: c("wal.fsyncs"),
            commits: c("wal.group_commits"),
            batches: c("wal.group_batches"),
            lock_retries: c("db.degrader_lock_retries"),
            degrade_steps: c("db.degrade_steps"),
        }
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            pool_hits: self.pool_hits - earlier.pool_hits,
            pool_misses: self.pool_misses - earlier.pool_misses,
            pool_evictions: self.pool_evictions - earlier.pool_evictions,
            wal_fsyncs: self.wal_fsyncs - earlier.wal_fsyncs,
            commits: self.commits - earlier.commits,
            batches: self.batches - earlier.batches,
            lock_retries: self.lock_retries - earlier.lock_retries,
            degrade_steps: self.degrade_steps - earlier.degrade_steps,
        }
    }
}

/// What one window over a workload produced, whichever pass asked.
#[derive(Debug)]
pub struct Window {
    /// The instant `ops` count their seconds from.
    pub origin: Instant,
    /// `(completion, seconds from origin; latency, ms)` of the workload's
    /// primary operation.
    pub ops: Vec<(f64, f64)>,
    pub counters: Counters,
    /// Median commit-acknowledge latency the engine recorded, ms
    /// (log₂-bucketed, so coarse).
    pub ack_p50_ms: f64,
}

/// Set a workload up several times and keep the last: `setup_s` is the
/// median of the returned times. Three repeats at least; a set-up that
/// takes milliseconds is repeated up to nine times (while the total stays
/// under half a second), because file-system noise is a larger share of a
/// short one.
pub fn repeat_setup<E>(
    mut setup: impl FnMut(usize) -> Result<E>,
    mut teardown: impl FnMut(E) -> Result<()>,
) -> Result<(E, Vec<f64>)> {
    let mut times = Vec::new();
    let mut env = None;
    while times.len() < SETUP_REPEATS
        || (times.len() < 3 * SETUP_REPEATS && times.iter().sum::<f64>() < 0.5)
    {
        if let Some(old) = env.take() {
            teardown(old)?;
        }
        let t = Instant::now();
        env = Some(setup(times.len())?);
        times.push(secs(t.elapsed()));
    }
    Ok((env.expect("SETUP_REPEATS is at least one"), times))
}

/// Copy a crashed engine's files from `from` into a fresh `scratch` and
/// time `Db::recover_with_schemas` on the copy, so one recovery never
/// sees another's writes. `cfg` is the crashed engine's configuration
/// re-pointed at `scratch`. Returns the recovery time, ms, and the engine.
pub fn recover_copy(
    from: &Path,
    cfg: DbConfig,
    clock: SharedClock,
    schema: &TableSchema,
) -> Result<(f64, Db)> {
    let scratch = cfg
        .path
        .as_deref()
        .and_then(Path::parent)
        .expect("an on-disk engine has a data directory");
    crate::world::copy_tree(from, scratch)?;
    let start = Instant::now();
    let db = Db::recover_with_schemas(cfg, clock, vec![schema.clone()])?;
    Ok((ms(start.elapsed()), db))
}

/// Start a server over `db` with default tuning and the engine's spans
/// off: `Server::start` turns them on, every pass starts measuring
/// without them (a traced pass switches them on part-way).
pub fn serve(db: &Arc<Db>) -> Result<Server> {
    let server = Server::start(
        db.clone(),
        HierarchyRegistry::new(),
        ServerConfig::default(),
    )?;
    db.obs().set_spans_enabled(false);
    Ok(server)
}

/// Fill the four gated slots every workload reports beside `setup_s`:
/// `ops_s`; `p50_ms` and `p95_ms` of the `(seconds in, ms)` samples in
/// `ops`; and `second_p50_ms`. The tail is the median of per-sub-window
/// p95s (see [`crate::stats::windowed_p95`]).
pub fn gate(
    out: &mut crate::report::Outcome,
    ops_s: f64,
    ops: &[(f64, f64)],
    seconds: f64,
    second_p50_ms: f64,
) {
    let values: Vec<f64> = ops.iter().map(|o| o.1).collect();
    let (p95, windows, read_at) = crate::stats::windowed_p95(ops, seconds);
    out.put("ops_s", ops_s, "1/s");
    out.put_n("p50_ms", crate::stats::median(&values), "ms", values.len());
    out.put_noted(
        "p95_ms",
        p95,
        "ms",
        Some(values.len()),
        Some(format!(
            "median of {windows} sub-window p{}s",
            read_at * 100.0
        )),
    );
    out.put("second_p50_ms", second_p50_ms, "ms");
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
