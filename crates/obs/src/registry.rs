//! The typed metrics registry and its point-in-time snapshot.
//!
//! One [`Obs`] instance lives on the engine (`Db::obs`) and is shared by
//! every layer: the WAL group-commit pipeline records drain/fsync/ack
//! latencies, the query path records per-statement timings and
//! per-purpose counts, checkpoints and recovery record whole-pass spans,
//! and the served front-end registers a *provider* that contributes its
//! connection/admission counters. [`Obs::snapshot`] folds everything
//! into one [`StatsSnapshot`] — the value behind `SHOW STATS` and the
//! `Stats` wire frame.
//!
//! Lock discipline: the three mutexes here (purpose counters 600,
//! slow-query ring 610, providers 620) form the observability band of
//! the global rank order — *above* every engine lock, because they are
//! leaves: recorded into after engine work completes, never held across
//! a call back into the engine. Provider closures must be lock-free
//! (atomic loads only); they run under the providers mutex.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use crate::hist::{HistogramSnapshot, LatencyHistogram};
use crate::span::{SpanGuard, Stage};

/// Bounded capacity of the slow-query ring: old entries fall off the
/// front. Sized so a snapshot stays a frame, not a log shipment.
pub const SLOW_LOG_CAP: usize = 128;

/// Per-purpose usage counters — the purpose hierarchy made observable,
/// not just enforceable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PurposeCounters {
    /// Statements executed while this purpose was declared.
    pub queries: u64,
    /// Rows returned or affected by those statements.
    pub rows: u64,
}

/// One over-threshold statement in the slow-query ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQuery {
    /// Statement kind (`select`, `insert`, …) — never the SQL text, so
    /// the ring cannot leak literals that degradation already shredded.
    pub kind: String,
    /// The session's declared purpose (`(none)` when undeclared).
    pub purpose: String,
    /// Wall-clock execution time, microseconds.
    pub elapsed_micros: u64,
}

type ProviderFn = Box<dyn Fn() -> Vec<(String, u64)> + Send + Sync>;

/// Per-shard lane of the sharded WAL pipeline: the same drain/fsync
/// latency pair the global `wal.drain`/`wal.fsync` histograms record,
/// but scoped to one shard so a slow disk or a hot shard shows up as
/// *which* pipeline is behind, not just a fatter global tail. Lanes are
/// created on demand by [`Obs::wal_shard_lane`] and recorded into
/// lock-free; snapshots surface them as `wal.drain.shard<k>` /
/// `wal.fsync.shard<k>`.
pub struct WalShardLane {
    /// One whole drain on this shard (append → fsync → ack).
    pub drain: LatencyHistogram,
    /// The fsyncs issued by this shard's log-writer thread, one per drain.
    pub fsync: LatencyHistogram,
}

impl WalShardLane {
    fn new() -> WalShardLane {
        WalShardLane {
            drain: LatencyHistogram::new(),
            fsync: LatencyHistogram::new(),
        }
    }
}

/// The engine-wide observability registry. Cheap to record into from
/// any thread; see the crate docs for the cost model.
pub struct Obs {
    /// Gates the tracing spans ([`Obs::span`]); histograms named in the
    /// commit/WAL/query hot paths record unconditionally.
    spans_enabled: AtomicBool,
    /// Slow-query threshold, microseconds; 0 disables the ring.
    slow_query_micros: AtomicU64,
    /// Commit pipeline: submit → durable-acknowledged, per commit.
    pub commit_ack: LatencyHistogram,
    /// Commit pipeline: enqueue cost alone (span-gated).
    pub commit_submit: LatencyHistogram,
    /// WAL writer: one whole drain (append batch + fsync + complete).
    pub wal_drain: LatencyHistogram,
    /// WAL writer: the fsync alone.
    pub wal_fsync: LatencyHistogram,
    /// Query path: whole statement, parse through result.
    pub query_total: LatencyHistogram,
    /// Query path: SQL → AST (span-gated).
    pub query_parse: LatencyHistogram,
    /// Query path: AST → output (span-gated).
    pub query_exec: LatencyHistogram,
    /// Served front-end: result frame onto the wire (span-gated).
    pub query_reply: LatencyHistogram,
    /// One whole checkpoint (always recorded — see [`Obs::timed`]).
    pub checkpoint: LatencyHistogram,
    /// One whole recovery (always recorded — see [`Obs::timed`]).
    pub recovery: LatencyHistogram,
    /// Purpose name → usage counters. BTreeMap for stable snapshot
    /// order.
    purposes: Mutex<BTreeMap<String, PurposeCounters>>,
    /// The bounded slow-query ring.
    slow: Mutex<VecDeque<SlowQuery>>,
    /// Named counter providers (the server registers one); replaced by
    /// name on re-registration so a restarted front-end over the same
    /// engine never double-reports.
    providers: Mutex<Vec<(String, ProviderFn)>>,
    /// Per-shard WAL pipeline lanes, indexed by shard. The mutex guards
    /// only lane *creation* (at pipeline spawn) and snapshot iteration;
    /// recording goes through the `Arc` each pipeline holds, lock-free.
    wal_shard_lanes: Mutex<Vec<std::sync::Arc<WalShardLane>>>,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl Obs {
    pub fn new() -> Obs {
        Obs {
            spans_enabled: AtomicBool::new(false),
            slow_query_micros: AtomicU64::new(0),
            commit_ack: LatencyHistogram::new(),
            commit_submit: LatencyHistogram::new(),
            wal_drain: LatencyHistogram::new(),
            wal_fsync: LatencyHistogram::new(),
            query_total: LatencyHistogram::new(),
            query_parse: LatencyHistogram::new(),
            query_exec: LatencyHistogram::new(),
            query_reply: LatencyHistogram::new(),
            checkpoint: LatencyHistogram::new(),
            recovery: LatencyHistogram::new(),
            purposes: Mutex::ranked(600, BTreeMap::new()),
            slow: Mutex::ranked(610, VecDeque::new()),
            providers: Mutex::ranked(620, Vec::new()),
            wal_shard_lanes: Mutex::ranked(630, Vec::new()),
        }
    }

    /// The drain/fsync lane for WAL shard `shard`, created on first use.
    /// Pipelines call this once at spawn and keep the `Arc`; every
    /// record afterwards is lock-free.
    pub fn wal_shard_lane(&self, shard: usize) -> std::sync::Arc<WalShardLane> {
        let mut lanes = self.wal_shard_lanes.lock();
        while lanes.len() <= shard {
            lanes.push(std::sync::Arc::new(WalShardLane::new()));
        }
        lanes[shard].clone()
    }

    /// Are tracing spans recording?
    pub fn spans_enabled(&self) -> bool {
        self.spans_enabled.load(Ordering::Relaxed)
    }

    /// Enable/disable tracing spans (the served engine enables them).
    pub fn set_spans_enabled(&self, on: bool) {
        self.spans_enabled.store(on, Ordering::Relaxed);
    }

    /// The histogram behind a stage.
    pub fn stage_hist(&self, stage: Stage) -> &LatencyHistogram {
        match stage {
            Stage::CommitSubmit => &self.commit_submit,
            Stage::QueryParse => &self.query_parse,
            Stage::QueryExec => &self.query_exec,
            Stage::QueryReply => &self.query_reply,
            Stage::Checkpoint => &self.checkpoint,
            Stage::Recovery => &self.recovery,
        }
    }

    /// Enter a tracing span for `stage`. When spans are disabled this
    /// returns an inert guard: no clock read.
    pub fn span(&self, stage: Stage) -> SpanGuard<'_> {
        if self.spans_enabled() {
            SpanGuard::enter(self.stage_hist(stage))
        } else {
            SpanGuard::disabled()
        }
    }

    /// Enter a span that *always* records into `stage`'s histogram —
    /// for cold stages (checkpoint, recovery) whose duration matters
    /// even in embedded engines that never enable spans.
    pub fn timed(&self, stage: Stage) -> SpanGuard<'_> {
        SpanGuard::enter(self.stage_hist(stage))
    }

    /// Slow-query threshold in microseconds (0 = ring disabled).
    pub fn slow_query_micros(&self) -> u64 {
        self.slow_query_micros.load(Ordering::Relaxed)
    }

    /// Set the slow-query threshold (`None` disables the ring).
    pub fn set_slow_query_threshold(&self, threshold: Option<Duration>) {
        let micros = threshold
            .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX).max(1))
            .unwrap_or(0);
        self.slow_query_micros.store(micros, Ordering::Relaxed);
    }

    /// Record one finished statement: always feeds `query_total` and the
    /// per-purpose counters; lands in the slow-query ring when the
    /// threshold is set and exceeded. Call with no engine lock held —
    /// the purpose map (rank 600) and ring (610) are above the engine
    /// bands, so this is safe even from a server thread holding the DDL
    /// journal lock, but must never run under catalog/WAL locks going the
    /// other way.
    pub fn record_query(
        &self,
        kind: &'static str,
        purpose: Option<&str>,
        rows: u64,
        elapsed: Duration,
    ) {
        let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.query_total.record(micros);
        let purpose = purpose.unwrap_or("(none)");
        {
            let mut purposes = self.purposes.lock();
            let c = purposes.entry(purpose.to_string()).or_default();
            c.queries += 1;
            c.rows += rows;
        }
        let threshold = self.slow_query_micros();
        if threshold != 0 && micros >= threshold {
            let mut slow = self.slow.lock();
            if slow.len() == SLOW_LOG_CAP {
                slow.pop_front();
            }
            slow.push_back(SlowQuery {
                kind: kind.to_string(),
                purpose: purpose.to_string(),
                elapsed_micros: micros,
            });
        }
    }

    /// Register (or replace, by name) a counter provider. Providers run
    /// at snapshot time under the providers mutex (rank 620) and must be
    /// lock-free — atomic loads only.
    pub fn register_provider<F>(&self, name: &str, f: F)
    where
        F: Fn() -> Vec<(String, u64)> + Send + Sync + 'static,
    {
        let mut providers = self.providers.lock();
        providers.retain(|(n, _)| n != name);
        providers.push((name.to_string(), Box::new(f)));
    }

    /// Snapshot this registry's own state: the named histograms, the
    /// per-purpose counters, the slow-query ring, and every provider's
    /// counters. Engine-side counters and gauges (WAL/db/scheduler) are
    /// appended by the engine's snapshot builder on top of this.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut hists = vec![
            ("commit.ack".to_string(), self.commit_ack.snapshot()),
            ("commit.submit".to_string(), self.commit_submit.snapshot()),
            ("wal.drain".to_string(), self.wal_drain.snapshot()),
            ("wal.fsync".to_string(), self.wal_fsync.snapshot()),
            ("query.total".to_string(), self.query_total.snapshot()),
            ("query.parse".to_string(), self.query_parse.snapshot()),
            ("query.exec".to_string(), self.query_exec.snapshot()),
            ("query.reply".to_string(), self.query_reply.snapshot()),
            ("checkpoint".to_string(), self.checkpoint.snapshot()),
            ("recovery".to_string(), self.recovery.snapshot()),
        ];
        for (k, lane) in self.wal_shard_lanes.lock().iter().enumerate() {
            hists.push((format!("wal.drain.shard{k}"), lane.drain.snapshot()));
            hists.push((format!("wal.fsync.shard{k}"), lane.fsync.snapshot()));
        }
        let purposes: Vec<(String, PurposeCounters)> = self
            .purposes
            .lock()
            .iter()
            .map(|(name, c)| (name.clone(), *c))
            .collect();
        let slow_queries: Vec<SlowQuery> = self.slow.lock().iter().cloned().collect();
        let mut counters = Vec::new();
        for (name, provider) in self.providers.lock().iter() {
            for (key, value) in provider() {
                counters.push((format!("{name}.{key}"), value));
            }
        }
        StatsSnapshot {
            counters,
            gauges: Vec::new(),
            hists,
            purposes,
            slow_queries,
        }
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("spans_enabled", &self.spans_enabled())
            .field("slow_query_micros", &self.slow_query_micros())
            .field("commit_ack", &self.commit_ack.snapshot())
            .finish_non_exhaustive()
    }
}

/// One named, point-in-time view of everything the engine knows about
/// itself: monotonic counters, instantaneous gauges, latency histograms,
/// per-purpose usage, and the slow-query ring. This is the payload of
/// `SHOW STATS` and the `Stats` wire frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Monotonic counters, `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Instantaneous gauges, `(name, value)` — e.g. the per-stage
    /// degradation-timeliness lag.
    pub gauges: Vec<(String, i64)>,
    /// Named latency histograms.
    pub hists: Vec<(String, HistogramSnapshot)>,
    /// Per-purpose query/row counters, sorted by purpose name.
    pub purposes: Vec<(String, PurposeCounters)>,
    /// The slow-query ring, oldest first.
    pub slow_queries: Vec<SlowQuery>,
}

impl StatsSnapshot {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Look up a histogram by name.
    pub fn hist(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_query_feeds_purposes_and_ring() {
        let obs = Obs::new();
        obs.set_slow_query_threshold(Some(Duration::from_micros(100)));
        obs.record_query("select", Some("billing"), 3, Duration::from_micros(50));
        obs.record_query("select", Some("billing"), 2, Duration::from_micros(500));
        obs.record_query("insert", None, 1, Duration::from_micros(1));
        let s = obs.snapshot();
        assert_eq!(s.hist("query.total").map(|h| h.count), Some(3));
        let billing = s
            .purposes
            .iter()
            .find(|(n, _)| n == "billing")
            .map(|(_, c)| *c)
            .expect("billing counters");
        assert_eq!(billing.queries, 2);
        assert_eq!(billing.rows, 5);
        assert_eq!(s.slow_queries.len(), 1);
        assert_eq!(s.slow_queries[0].kind, "select");
        assert_eq!(s.slow_queries[0].purpose, "billing");
        assert!(s.slow_queries[0].elapsed_micros >= 100);
    }

    #[test]
    fn slow_ring_is_bounded() {
        let obs = Obs::new();
        obs.set_slow_query_threshold(Some(Duration::from_micros(1)));
        for _ in 0..(SLOW_LOG_CAP + 10) {
            obs.record_query("select", None, 0, Duration::from_micros(10));
        }
        assert_eq!(obs.snapshot().slow_queries.len(), SLOW_LOG_CAP);
    }

    #[test]
    fn providers_replace_by_name() {
        let obs = Obs::new();
        obs.register_provider("server", || vec![("queries".into(), 1)]);
        obs.register_provider("server", || vec![("queries".into(), 7)]);
        let s = obs.snapshot();
        assert_eq!(s.counter("server.queries"), Some(7));
        assert_eq!(
            s.counters.len(),
            1,
            "re-registration replaced, not appended"
        );
    }

    #[test]
    fn wal_shard_lanes_surface_in_snapshots_by_shard_index() {
        let obs = Obs::new();
        assert!(obs.snapshot().hist("wal.drain.shard0").is_none());
        let lane0 = obs.wal_shard_lane(0);
        let lane2 = obs.wal_shard_lane(2);
        assert!(
            std::sync::Arc::ptr_eq(&lane0, &obs.wal_shard_lane(0)),
            "re-acquiring a lane returns the same histograms"
        );
        lane0.drain.record(100);
        lane2.fsync.record(50);
        let s = obs.snapshot();
        assert_eq!(s.hist("wal.drain.shard0").map(|h| h.count), Some(1));
        assert_eq!(s.hist("wal.fsync.shard0").map(|h| h.count), Some(0));
        assert_eq!(
            s.hist("wal.drain.shard1").map(|h| h.count),
            Some(0),
            "asking for shard 2 materialized the lanes below it"
        );
        assert_eq!(s.hist("wal.fsync.shard2").map(|h| h.count), Some(1));
    }

    #[test]
    fn spans_disabled_by_default_and_record_when_enabled() {
        let obs = Obs::new();
        {
            let g = obs.span(Stage::Checkpoint);
            assert!(!g.is_recording());
        }
        assert!(obs.checkpoint.snapshot().is_empty());
        obs.set_spans_enabled(true);
        {
            let _g = obs.span(Stage::Checkpoint);
        }
        assert_eq!(obs.checkpoint.snapshot().count, 1);
    }
}
