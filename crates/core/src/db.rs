//! The engine façade.
//!
//! [`Db`] owns the buffer pool, catalog, WAL + key store, transaction
//! manager, degradation scheduler and clock, and choreographs them:
//!
//! * **Insert** (Section II: only at the most accurate state): validates,
//!   stores with life-cycle capacity reservation, indexes at the initial
//!   level, WAL-logs (sealed in [`WalMode::Sealed`]), and arms the first
//!   LCP transition per degradable attribute.
//! * **Degradation pump**: pops due transitions, executes each batch as a
//!   **system transaction** under tuple X locks (readers delay the
//!   degrader, never see torn state), rewrites in place with secure
//!   overwrite, migrates index levels, logs each step as a fact — tuple,
//!   column, stage entered, no value — and re-arms. Reader/degrader lock
//!   casualties are counted, not fatal — the victim transition is
//!   re-queued; so is the rest of a batch a hard error cuts short.
//! * **Checkpoint**: flush pages → `Checkpoint` record (carrying the table
//!   directory) → fsync → **shred** key windows older than the checkpoint →
//!   physically truncate the old log. The data file and the log are the
//!   only durable artifacts. After a checkpoint, no pre-checkpoint image
//!   exists in readable form anywhere.
//! * **Recovery** ([`Db::recover_with_schemas`]): name the tables from the
//!   last `Checkpoint` record, give every heap back the pages whose
//!   headers name it (state as of each page's last write-back), rebuild
//!   indexes, logically redo committed WAL operations after the checkpoint
//!   (monotonely — see `Db::apply_recovery_op` — with tuple-id remapping),
//!   and re-arm the scheduler from stored stage bytes — a tuple can
//!   therefore never *regain* accuracy through a crash.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use instant_common::{
    ColumnId, Error, PageId, Result, SharedClock, TableId, Timestamp, TupleId, Value,
};
use instant_obs::{Obs, Stage};
use instant_storage::{BufferPool, DiskManager};
use instant_tx::{LockMode, Resource, TxHandle, TxManager};
use instant_wal::group::{CommitTicket, GroupCommitSet, GroupCommitStats};
use instant_wal::record::{LogRecord, Lsn, Payload};
use instant_wal::recovery::{self, Op};
use instant_wal::{KeyStore, WalSet};

use crate::catalog::{Catalog, Table};
use crate::scheduler::{DegradationScheduler, PendingTransition};
use crate::schema::TableSchema;
use crate::tuple::{decode_stored, encode_stored_raw, StoredTuple, STAGE_REMOVED};

// Configuration moved to its own module; the re-export keeps the
// historical `crate::db::DbConfig` paths (and downstream `instant_core::
// db::…` imports) compiling.
pub use crate::config::{DbConfig, DbConfigBuilder, WalMode};

/// Seed of the key store's window-key derivation.
const KEY_SEED: u64 = 0x1DB0_CAFE;

/// Engine statistics (monotonic counters).
#[derive(Debug, Default)]
pub struct DbStats {
    pub inserts: AtomicU64,
    pub degrade_steps: AtomicU64,
    pub expunges: AtomicU64,
    pub user_deletes: AtomicU64,
    pub degrader_lock_retries: AtomicU64,
    pub checkpoints: AtomicU64,
}

/// Result of one degradation pump.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PumpReport {
    /// Attribute transitions executed.
    pub fired: usize,
    /// Whole tuples expunged.
    pub expunged: usize,
    /// Transitions deferred due to lock conflicts with readers/writers.
    pub deferred: usize,
}

impl std::ops::AddAssign for PumpReport {
    fn add_assign(&mut self, r: PumpReport) {
        self.fired += r.fired;
        self.expunged += r.expunged;
        self.deferred += r.deferred;
    }
}

/// Redo's bookkeeping across the committed suffix: where each logged
/// tuple landed (tuple-id remapping) and which slots redo itself wrote.
#[derive(Debug, Default)]
struct RedoState {
    remap: HashMap<(TableId, TupleId), TupleId>,
    replay_written: HashSet<(TableId, TupleId)>,
    /// Redo placed some tuple at another tid than the log names.
    moved: bool,
}

impl RedoState {
    /// Redo stored the tuple the log calls `logged` as a new tuple at `at`.
    fn placed(&mut self, logged: (TableId, TupleId), at: TupleId) {
        self.replay_written.insert((logged.0, at));
        self.remap.insert(logged, at);
        self.moved |= at != logged.1;
    }

    /// Where the tuple the log calls `logged` lives now: where redo placed
    /// it, else at its logged tid — unless redo put some *other* logged
    /// tuple into that slot, in which case this one is not in the heap.
    fn resolve(&self, logged: (TableId, TupleId)) -> Option<TupleId> {
        match self.remap.get(&logged) {
            Some(at) => Some(*at),
            None => (!self.replay_written.contains(&logged)).then_some(logged.1),
        }
    }
}

/// The InstantDB engine.
pub struct Db {
    cfg: DbConfig,
    clock: SharedClock,
    pool: Arc<BufferPool>,
    catalog: Catalog,
    /// The durability path; `None` only in [`WalMode::Off`].
    log: Option<Durability>,
    keys: KeyStore,
    txs: TxManager,
    sched: DegradationScheduler,
    stats: DbStats,
    /// The observability plane (see `instant_obs`): latency histograms,
    /// tracing spans, per-purpose counters, the slow-query ring. Shared
    /// with the group-commit writer thread and the served front-end.
    obs: Arc<Obs>,
    /// Commit/checkpoint ordering gate. User ops hold the shared side
    /// across their page mutation *and* record enqueue; a checkpoint's
    /// flush→Checkpoint-record window holds the exclusive side. Together
    /// these give two invariants (see [`Db::checkpoint`]): truncation
    /// never destroys an unflushed acknowledged commit, and a flush never
    /// persists a user-op page mutation whose records are not enqueued.
    ckpt_gate: RwLock<()>,
    /// Serializes whole checkpoints against each other; commits never
    /// touch it. Truncation runs outside the `ckpt_gate` exclusive
    /// section so mutations and enqueues proceed during the rewrite —
    /// though drain *acknowledgments* still serialize against it on the
    /// Wal's own lock (see [`Db::checkpoint`]).
    ckpt_serial: Mutex<()>,
}

/// The sharded log plus its per-shard group-commit pipelines — the one
/// way a record batch becomes durable.
struct Durability {
    // Declared before `wal` so every pipeline's writer thread is joined
    // (and its last fsync completed) before the log drops.
    group: GroupCommitSet,
    wal: WalSet,
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db").field("cfg", &self.cfg).finish()
    }
}

impl Db {
    /// Open a fresh database.
    pub fn open(cfg: DbConfig, clock: SharedClock) -> Result<Db> {
        let disk = match &cfg.path {
            Some(p) => Arc::new(DiskManager::open(with_ext(p, "idb"))?),
            None => Arc::new(DiskManager::temp("db")?),
        };
        let pool = Arc::new(BufferPool::new(disk, cfg.buffer_frames));
        let seg_cfg = instant_wal::segment::SegmentConfig {
            segment_bytes: cfg.wal_segment_bytes,
        };
        // The shard count is resolved here (auto → parallelism-derived);
        // `WalSet::open_with` may still widen it to match a directory
        // that already holds more shards.
        let shards = cfg.effective_wal_shards();
        let obs = Arc::new(Obs::new());
        obs.set_slow_query_threshold(cfg.slow_query);
        let log = match cfg.wal_mode {
            WalMode::Off => None,
            _ => {
                let wal = match &cfg.path {
                    Some(p) => WalSet::open_with(with_ext(p, "wal"), shards, seg_cfg)?,
                    None => WalSet::temp_with("db", shards, seg_cfg)?,
                };
                let group = GroupCommitSet::spawn_obs(&wal, cfg.group_commit.clone(), obs.clone())?;
                Some(Durability { group, wal })
            }
        };
        let keys = KeyStore::new(cfg.key_window, KEY_SEED);
        Ok(Db {
            cfg,
            clock,
            pool,
            catalog: Catalog::new(),
            log,
            keys,
            txs: TxManager::new(),
            sched: DegradationScheduler::new(),
            stats: DbStats::default(),
            obs,
            ckpt_gate: RwLock::ranked(210, ()),
            ckpt_serial: Mutex::ranked(200, ()),
        })
    }

    pub fn config(&self) -> &DbConfig {
        &self.cfg
    }
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }
    pub fn stats(&self) -> &DbStats {
        &self.stats
    }
    /// The observability plane: histograms, spans, purpose counters,
    /// the slow-query ring. See [`crate::metrics::stats_snapshot`] for
    /// the full engine snapshot behind `SHOW STATS`.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }
    pub fn scheduler(&self) -> &DegradationScheduler {
        &self.sched
    }
    pub fn tx_manager(&self) -> &TxManager {
        &self.txs
    }
    /// The sharded log (all shards behind one LSN allocator); `None` in
    /// [`WalMode::Off`].
    pub fn wal(&self) -> Option<&WalSet> {
        self.log.as_ref().map(|l| &l.wal)
    }
    /// Group-commit pipeline counters aggregated across every shard
    /// pipeline (zeros in [`WalMode::Off`]).
    pub fn group_commit_stats(&self) -> GroupCommitStats {
        self.log
            .as_ref()
            .map(|l| l.group.stats())
            .unwrap_or_default()
    }
    pub fn keystore(&self) -> &KeyStore {
        &self.keys
    }
    pub fn buffer_pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Create a table.
    pub fn create_table(&self, schema: TableSchema) -> Result<Arc<Table>> {
        self.catalog
            .create_table(schema, self.pool.clone(), self.cfg.secure)
    }

    /// Hand a record batch to the durability path and return a
    /// [`CommitHandle`] — the commit entry point for callers not holding
    /// the checkpoint gate. [`CommitHandle::wait`] blocks to durability.
    ///
    /// Routing: one batch lands on one WAL shard (keyed by the batch's
    /// transaction id), so a transaction's records stay contiguous in
    /// its shard's byte stream while unrelated transactions drain and
    /// fsync on other shards in parallel.
    fn enqueue_records(&self, records: Vec<LogRecord>) -> Result<CommitHandle> {
        let _shared = self.ckpt_gate.read();
        self.enqueue_records_gated(records)
    }

    /// [`Db::enqueue_records`] for callers already holding `ckpt_gate`
    /// (either side). This only *enqueues* — the fsync is awaited via
    /// [`CommitHandle::wait`] outside the gate, keeping committers
    /// parallel.
    fn enqueue_records_gated(&self, records: Vec<LogRecord>) -> Result<CommitHandle> {
        let Some(log) = &self.log else {
            return Ok(CommitHandle(None));
        };
        if records.is_empty() {
            return Ok(CommitHandle(None));
        }
        // Span-gated: measures the enqueue alone.
        let _submit = self.obs.span(Stage::CommitSubmit);
        let shard = log.wal.shard_for_batch(&records);
        Ok(CommitHandle(Some(log.group.submit(shard, records)?)))
    }

    fn payload(&self, bytes: &[u8], now: Timestamp) -> Result<Payload> {
        match self.cfg.wal_mode {
            WalMode::Sealed => Payload::seal(&self.keys, now, bytes),
            _ => Ok(Payload::Plain(bytes.to_vec())),
        }
    }

    /// Insert a row (auto-commit). Degradable values must be at the most
    /// accurate domain state; they are stored at their LCP's first-stage
    /// level and their first transitions are armed.
    pub fn insert(&self, table_name: &str, row: &[Value]) -> Result<TupleId> {
        let table = self.catalog.get(table_name)?;
        table.schema().validate_insert(row)?;
        loop {
            let tx = self.txs.begin();
            tx.lock(Resource::Table(table.id()), LockMode::IntentionExclusive)?;
            // Gate held across mutation *and* enqueue: a checkpoint's
            // flush_all can then never persist this page write before its
            // log records exist in the pipeline (steal of an unlogged
            // mutation).
            let placed = {
                let _shared = self.ckpt_gate.read();
                // The clock is read under the gate: a checkpoint reads its
                // own `now` under the exclusive side, so the window this
                // image is sealed into can never already be shredded.
                let now = self.now();
                let tid = table.insert_physical(now, row)?;
                // Tuple ids are recycled, so the fresh slot may still be
                // locked: a pump batch that just expunged it and awaits
                // its fsync, or a reader. Waiting here would hold the gate
                // (and dying would strand an unlogged row), so the
                // placement is undone and the insert retries outside.
                let res = Resource::Tuple(table.id(), tid);
                if self.txs.locks().try_lock(tx.id(), res, LockMode::Exclusive) {
                    // WAL: the logged image is the *stored* tuple (already
                    // generalized to the first stage level), so a
                    // coarse-ingest table never logs the accurate form.
                    let stored = table.get(tid)?;
                    let bytes = encode_stored_raw(stored.insert_ts, &stored.stages, &stored.row);
                    let pending = self.enqueue_records_gated(vec![
                        LogRecord::Begin {
                            tx: tx.id(),
                            at: now,
                        },
                        LogRecord::Insert {
                            tx: tx.id(),
                            table: table.id(),
                            tid,
                            row: self.payload(&bytes, now)?,
                            at: now,
                        },
                        LogRecord::Commit {
                            tx: tx.id(),
                            at: now,
                        },
                    ])?;
                    Ok((tid, stored, pending))
                } else {
                    table.expunge_physical(tid)?;
                    Err(res)
                }
            };
            let (tid, stored, pending) = match placed {
                Ok(placed) => placed,
                Err(held) => {
                    tx.abort()?;
                    self.txs.locks().wait_until_free(held);
                    continue;
                }
            };
            pending.wait()?;
            tx.commit()?;
            self.arm_transitions(&table, tid, &stored);
            self.stats.inserts.fetch_add(1, Ordering::Relaxed);
            return Ok(tid);
        }
    }

    /// Arm the next pending transition for every degradable attribute of a
    /// tuple, from its stored stage bytes.
    fn arm_transitions(&self, table: &Table, tid: TupleId, stored: &StoredTuple) {
        for (slot, (_, d)) in table.schema().degraders().enumerate() {
            let Some(stage) = stored.stages.get(slot).copied().flatten() else {
                continue;
            };
            if let Some(due) = d.due_time(stored.insert_ts, stage as usize) {
                self.sched.schedule(PendingTransition {
                    due,
                    table: table.id(),
                    tid,
                    insert_ts: stored.insert_ts,
                    deg_slot: slot as u8,
                    from_stage: stage,
                });
            }
        }
    }

    /// Delete one tuple under a user transaction (executor path). Removes
    /// both stable and degradable attributes, physically.
    pub fn delete_tuple(&self, table: &Table, tid: TupleId) -> Result<()> {
        let now = self.now();
        let tx = self.txs.begin();
        tx.lock(Resource::Table(table.id()), LockMode::IntentionExclusive)?;
        tx.lock(Resource::Tuple(table.id(), tid), LockMode::Exclusive)?;
        if !table.exists(tid) {
            return Err(Error::NotFound(format!("tuple {tid}")));
        }
        // Locks are all held already; the gate covers mutation + enqueue
        // so a checkpoint flush can never persist an unlogged expunge.
        let pending = {
            let _shared = self.ckpt_gate.read();
            table.expunge_physical(tid)?;
            self.enqueue_records_gated(vec![
                LogRecord::Begin {
                    tx: tx.id(),
                    at: now,
                },
                LogRecord::Delete {
                    tx: tx.id(),
                    table: table.id(),
                    tid,
                    at: now,
                },
                LogRecord::Commit {
                    tx: tx.id(),
                    at: now,
                },
            ])?
        };
        pending.wait()?;
        tx.commit()?;
        self.stats.user_deletes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Read one tuple under a shared lock (reader path).
    pub fn read_tuple(&self, table: &Table, tid: TupleId) -> Result<StoredTuple> {
        let tx = self.txs.begin();
        tx.lock(Resource::Table(table.id()), LockMode::IntentionShared)?;
        tx.lock(Resource::Tuple(table.id(), tid), LockMode::Shared)?;
        let t = table.get(tid)?;
        tx.commit()?;
        Ok(t)
    }

    /// Execute every degradation transition due at the current clock time.
    /// Returns when the queue has no due work left.
    pub fn pump_degradation(&self) -> Result<PumpReport> {
        let mut total = PumpReport::default();
        loop {
            let r = self.pump_one_batch()?;
            total += r;
            if r.fired == 0 {
                return Ok(total);
            }
        }
    }

    /// Execute at most one batch of due transitions as a single system
    /// transaction.
    ///
    /// Unlike the user ops, the batch's page rewrites are *not* held
    /// under the checkpoint gate (the degrader takes tuple locks per
    /// transition and must never block while gating out a checkpoint).
    /// A checkpoint flush may therefore persist a degradation rewrite
    /// before its record is enqueued — which is safe *only* because
    /// degradation is monotone: recovering a further-degraded or
    /// expunged state than the log claims can never resurrect accuracy,
    /// and `rearm_all` re-arms from the stored stage bytes. The records
    /// carry no image, so nothing is sealed: a checkpoint shredding the
    /// window of `now` meanwhile cannot fail a step.
    ///
    /// A hard error stops the batch but drops no work: the failing
    /// transition and every one not yet applied go back to the scheduler,
    /// the steps already applied still commit, and then the error returns.
    pub fn pump_one_batch(&self) -> Result<PumpReport> {
        self.pump_batch().map(|(report, _)| report)
    }

    /// [`Db::pump_one_batch`], also saying whether the batch was full
    /// (`batch_max` transitions), i.e. more may already be due.
    pub(crate) fn pump_batch(&self) -> Result<(PumpReport, bool)> {
        let now = self.now();
        let batch = self.sched.due_batch(now, self.cfg.batch_max);
        if batch.is_empty() {
            return Ok((PumpReport::default(), false));
        }
        let full = batch.len() == self.cfg.batch_max;
        let mut report = PumpReport::default();
        let tx = self.txs.begin_system();
        // The batch's log records accumulate here and commit as one unit
        // through the pipeline (one ticket, one shared fsync).
        let mut recs: Vec<LogRecord> = Vec::new();
        let mut failed = None;
        let mut batch = batch.into_iter();
        for pt in batch.by_ref() {
            match self.apply_transition(&tx, &pt, now, &mut recs) {
                Ok(Applied::Stepped) => {
                    report.fired += 1;
                    self.sched.record_fired(pt.due, now);
                    self.stats.degrade_steps.fetch_add(1, Ordering::Relaxed);
                }
                Ok(Applied::Expunged) => {
                    report.fired += 1;
                    report.expunged += 1;
                    self.sched.record_fired(pt.due, now);
                    self.stats.degrade_steps.fetch_add(1, Ordering::Relaxed);
                    self.stats.expunges.fetch_add(1, Ordering::Relaxed);
                }
                Ok(Applied::Skipped) => {}
                Err(e) if e.is_retryable() => {
                    // A reader/writer holds the tuple: defer, retry next pump.
                    self.sched.schedule(pt);
                    report.deferred += 1;
                    self.stats
                        .degrader_lock_retries
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    self.sched.schedule(pt);
                    failed = Some(e);
                    break;
                }
            }
        }
        batch.for_each(|pt| self.sched.schedule(pt));
        if !recs.is_empty() {
            recs.push(LogRecord::Commit {
                tx: tx.id(),
                at: now,
            });
            self.enqueue_records(recs)?.wait()?;
        }
        tx.commit()?;
        failed.map_or(Ok((report, full)), Err)
    }

    fn apply_transition(
        &self,
        tx: &TxHandle,
        pt: &PendingTransition,
        now: Timestamp,
        recs: &mut Vec<LogRecord>,
    ) -> Result<Applied> {
        let table = self.catalog.get_by_id(pt.table)?;
        tx.lock(Resource::Table(table.id()), LockMode::IntentionExclusive)?;
        tx.lock(Resource::Tuple(table.id(), pt.tid), LockMode::Exclusive)?;
        if !table.exists(pt.tid) {
            return Ok(Applied::Skipped); // deleted meanwhile
        }
        let mut tuple = table.get(pt.tid)?;
        if tuple.insert_ts != pt.insert_ts {
            return Ok(Applied::Skipped); // the slot now holds a newer tuple
        }
        let slot = pt.deg_slot as usize;
        if tuple.stages.get(slot).copied().flatten() != Some(pt.from_stage) {
            return Ok(Applied::Skipped); // already advanced / removed
        }
        let Some((cid, d)) = table.schema().degraders().nth(slot) else {
            return Err(Error::Corrupt(format!(
                "transition names degradable slot {slot} of table {}",
                table.id()
            )));
        };
        let Some(index_move) = tuple.coarsen(slot, cid, d, Some(pt.from_stage + 1))? else {
            return Ok(Applied::Skipped);
        };
        let (applied, logged) = if tuple.fully_degraded() {
            // Whole tuple leaves the database (stable attributes too).
            table.expunge_physical(pt.tid)?;
            let rec = LogRecord::Expunge {
                tx: tx.id(),
                table: table.id(),
                tid: pt.tid,
                at: now,
            };
            (Applied::Expunged, rec)
        } else {
            table.rewrite_physical(pt.tid, &tuple, &[index_move])?;
            let rec = LogRecord::Degrade {
                tx: tx.id(),
                table: table.id(),
                tid: pt.tid,
                insert_ts: tuple.insert_ts,
                column: cid,
                to_stage: tuple.stages[slot],
                at: now,
            };
            (Applied::Stepped, rec)
        };
        if recs.is_empty() {
            recs.push(LogRecord::Begin {
                tx: tx.id(),
                at: now,
            });
        }
        recs.push(logged);
        // Arm the next transition of this attribute, if it has one left.
        if let Some(stage) = tuple.stages[slot] {
            if let Some(due) = d.due_time(tuple.insert_ts, stage as usize) {
                self.sched.schedule(PendingTransition {
                    due,
                    table: table.id(),
                    tid: pt.tid,
                    insert_ts: pt.insert_ts,
                    deg_slot: pt.deg_slot,
                    from_stage: stage,
                });
            }
        }
        Ok(applied)
    }

    /// Checkpoint: flush → rotate the WAL segment → log Checkpoint (with
    /// the table directory) → shred key windows before the checkpoint →
    /// delete the dead log segments.
    ///
    /// Holds the exclusive side of `ckpt_gate` so no commit can enqueue
    /// between `flush_all` and the `Checkpoint` record: every record the
    /// truncation below destroys is therefore covered by the flush, and
    /// every record it retains replays from the checkpoint. (Without the
    /// gate, a commit acknowledged between flush and the checkpoint
    /// record would be physically truncated while its pages were still
    /// memory-only — lost on the next crash.) Conversely, because user
    /// ops mutate pages only while holding the shared side, this flush
    /// can never persist a half-done unlogged user operation.
    pub fn checkpoint(&self) -> Result<()> {
        // ckpt_serial serializes whole checkpoints, flush and fsync included.
        let _serial = self.ckpt_serial.lock();
        let _t = self.obs.timed(Stage::Checkpoint);
        let ckpt_lsn = {
            let _excl = self.ckpt_gate.write();
            let now = self.now();
            // The flush runs under the gate's exclusive side so no user op
            // mutates pages mid-flush.
            self.pool.flush_all()?;
            // Rotate every shard so the Checkpoint record starts a fresh
            // segment on its shard and everything before it lives in
            // wholly-dead segments the truncation below can delete
            // outright. (Pipeline batches already enqueued may still
            // drain after the rotate and land ahead of the Checkpoint
            // record in a fresh segment — their page writes were covered
            // by this flush, and replay starts after the checkpoint LSN,
            // so retaining them briefly is harmless; they die with the
            // next checkpoint.)
            if let Some(wal) = self.wal() {
                wal.rotate_all()?;
            }
            // The Checkpoint record rides the same unified commit path
            // as every other batch (shard 0 — it carries no transaction
            // id), so it can never land in the middle of another
            // committer's unsynced batch. We already hold the gate's
            // exclusive side, so use the gated enqueue rather than
            // re-entering the shared side. The record is the whole
            // checkpoint: the table directory rides in it (same batch,
            // same covering fsync), and its `at` is the shred horizon
            // below, so recovery restores both from the log alone.
            let mut tables: Vec<(TableId, String)> = self
                .catalog
                .all_tables()
                .iter()
                .map(|t| (t.id(), t.schema().name.clone()))
                .collect();
            tables.sort();
            // The Checkpoint record is appended and made durable while the gate
            // is exclusively held, so it cannot interleave with a committer's
            // batch.
            let ckpt_lsn = self
                .enqueue_records_gated(vec![LogRecord::Checkpoint { at: now, tables }])?
                .wait()?;
            // Only once the record is durable: a crash before this line
            // recovers from the previous checkpoint, whose suffix still
            // needs these keys.
            self.keys.shred_before(now);
            ckpt_lsn
        };
        // Truncation deletes whole dead segments — O(segments freed)
        // unlinks, no retained byte rewritten — and runs after the gate
        // reopens: commits landing now get LSNs above `ckpt_lsn` and are
        // retained. The Wal lock is held only to splice the in-memory
        // segment list (the unlinks happen outside it), so appends,
        // fsyncs and therefore commit acknowledgments never stall behind
        // truncation I/O. `ckpt_serial` keeps a second checkpoint from
        // interleaving.
        if let (Some(wal), Some(lsn)) = (self.wal(), ckpt_lsn) {
            wal.truncate_before(lsn)?;
        }
        self.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Reopen a crashed database: name the tables from the last
    /// checkpoint, hand every heap its pages back, rebuild indexes, redo
    /// the committed WAL suffix, re-arm the scheduler. `schemas` must
    /// match the schemas at crash time, in creation order: the log holds
    /// no DDL, so the caller supplies them (the server replays its DDL
    /// journal, `instant_server::open_or_recover`).
    pub fn recover_with_schemas(
        cfg: DbConfig,
        clock: SharedClock,
        schemas: Vec<TableSchema>,
    ) -> Result<Db> {
        let path = cfg
            .path
            .clone()
            .ok_or_else(|| Error::Unsupported("recovery needs a persistent path".into()))?;
        let meta = with_ext(&path, "meta");
        if meta.exists() {
            return Err(Error::Unsupported(format!(
                "{}: data directory in the older layout that lists each table's pages in \
                 this side file; its pages name no owner, so this version cannot tell whose \
                 they are",
                meta.display()
            )));
        }
        let db = Db::open(cfg, clock)?;
        let recovery_timer = db.obs.timed(Stage::Recovery);
        // 1. The log: the last checkpoint (table directory, shred horizon)
        //    and the committed suffix after it. The k-way merge behind
        //    `WalSet::iterate` re-serializes the per-shard streams into
        //    global LSN order, so replay sees one log exactly as it would
        //    have with a single shard.
        let plan = match db.wal() {
            Some(wal) => recovery::recover_set(wal, &db.keys)?,
            None => recovery::RecoveryPlan::default(),
        };
        if let Some(at) = plan.checkpoint_at {
            // Keys the checkpoint destroyed stay destroyed.
            db.keys.shred_before(at);
        }
        // 2. Tables: checkpointed ones under their recorded ids, then the
        //    ones created since, whose ids were dense in creation order.
        let mut created_since = Vec::new();
        for schema in schemas {
            match plan
                .tables
                .iter()
                .find(|(_, name)| name.eq_ignore_ascii_case(&schema.name))
            {
                Some((id, _)) => {
                    db.catalog
                        .attach_table(*id, schema, db.pool.clone(), db.cfg.secure)?;
                }
                None => created_since.push(schema),
            }
        }
        for schema in created_since {
            db.create_table(schema)?;
        }
        // 3. Pages: each goes back to the heap its header names (one pass;
        //    a never-written page names nobody and stays free).
        let tables = db.catalog.all_tables();
        for id in 1..db.pool.disk().page_count() {
            for table in &tables {
                if table.heap().adopt(PageId(id))? {
                    break;
                }
            }
        }
        for table in &tables {
            table.rebuild_indexes()?;
        }
        // 4. Redo the committed suffix.
        let mut redo = RedoState::default();
        for op in &plan.ops {
            db.apply_recovery_op(op, &mut redo)?;
        }
        // 5. Re-arm the scheduler from stored stage bytes.
        db.rearm_all()?;
        // 6. Redo had to put some tuple at another tuple id than the log
        //    names (its page was lost while a later one survived). New
        //    records will name the new id, and pages redo wrote may reach
        //    disk: the old suffix must never replay over either, so
        //    retire it before any new work is logged.
        if redo.moved {
            db.checkpoint()?;
        }
        drop(recovery_timer);
        Ok(db)
    }

    /// Redo one logged operation. The rule is **monotone**: a logged
    /// image is never written over the tuple it describes as-is but
    /// merged with what is stored ([`merge_coarser`]), and a logged
    /// degrade step coarsens the stored value only if it sits at a finer
    /// stage ([`StoredTuple::coarsen`]), so a tuple whose page reached
    /// disk *after* the logged state (a write-back between checkpoint and
    /// crash, or a degradation step flushed before its record) is neither
    /// duplicated nor stepped back to a finer value.
    fn apply_recovery_op(&self, op: &Op, state: &mut RedoState) -> Result<()> {
        let table = self.catalog.get_by_id(op.table())?;
        let key = (table.id(), op.tid());
        // Write `image` over the `stored` state of the same tuple.
        let redo = |tid: TupleId, image: StoredTuple, stored: &StoredTuple| -> Result<()> {
            let merged = merge_coarser(image, stored, &table.schema().degradable_columns());
            if merged.fully_degraded() {
                table.expunge_physical(tid)?;
            } else if merged != *stored {
                table.replace_stored(tid, stored, &merged)?;
            }
            Ok(())
        };
        // Where the tuple the log names — born at `insert_ts` — lives now.
        let find = |insert_ts: Timestamp| {
            state
                .resolve(key)
                .and_then(|at| Some((at, table.get(at).ok()?)))
                .filter(|(_, stored)| stored.insert_ts == insert_ts)
        };
        match op {
            Op::Insert { tid, row, .. } => {
                // Identity, not equality: a live tuple at the logged tid
                // with the logged insert time *from the pre-crash heap* is
                // the same tuple at the same or a later life-cycle state —
                // its page write-back beat the crash. A tuple this replay
                // itself wrote is never taken for the flushed copy: with
                // concurrent committers the log order differs from
                // tid-allocation order, so an earlier replayed insert may
                // occupy this tid, and two acknowledged inserts of
                // identical rows at identical timestamps must stay two.
                if !state.replay_written.contains(&key) {
                    if let Ok(stored) = table.get(*tid) {
                        let image = decode_stored(row)?;
                        if stored.insert_ts == image.insert_ts {
                            // Later ops on this tid mean this tuple again,
                            // not an earlier occupant redo moved away.
                            state.remap.remove(&key);
                            return redo(*tid, image, &stored);
                        }
                    }
                }
                state.placed(key, table.insert_raw_stored(row)?);
            }
            Op::Degrade {
                insert_ts,
                column,
                to_stage,
                ..
            } => {
                // Not in the heap: it was expunged or deleted later and
                // its page written back after that — nothing to coarsen.
                if let Some((at, stored)) = find(*insert_ts) {
                    let schema = table.schema();
                    let (slot, d) = schema
                        .degradable_columns()
                        .iter()
                        .position(|c| c == column)
                        .zip(schema.column(*column).degrader())
                        .ok_or_else(|| {
                            Error::Corrupt(format!("degrade step on stable column {column}"))
                        })?;
                    let mut coarser = stored.clone();
                    if coarser.coarsen(slot, *column, d, *to_stage)?.is_some() {
                        redo(at, coarser, &stored)?;
                    }
                }
            }
            // Unrecoverable: the image is cryptographically erased. If a
            // stale tuple sits at that tid from the checkpoint, degradation
            // had already superseded it — drop it rather than resurrect.
            Op::Delete { .. } | Op::Expunge { .. } | Op::Unrecoverable { .. } => {
                if let Some(at) = state.resolve(key).filter(|at| table.exists(*at)) {
                    table.expunge_physical(at)?;
                }
            }
        }
        Ok(())
    }

    /// Re-arm pending transitions for every live tuple (post-recovery).
    pub fn rearm_all(&self) -> Result<()> {
        self.sched.clear();
        for table in self.catalog.all_tables() {
            for (tid, stored) in table.scan()? {
                self.arm_transitions(&table, tid, &stored);
            }
        }
        Ok(())
    }

    /// Vacuum every table; returns total bytes reclaimed.
    pub fn vacuum(&self) -> Result<usize> {
        let mut total = 0;
        for table in self.catalog.all_tables() {
            total += table.vacuum()?;
        }
        Ok(total)
    }

    /// Raw images of data file + WAL (the forensic attacker's view).
    pub fn forensic_images(&self) -> Result<Vec<(String, Vec<u8>)>> {
        let mut out = Vec::new();
        self.pool.flush_all()?;
        out.push(("heap".to_string(), self.pool.disk().raw_image()?));
        if let Some(wal) = self.wal() {
            out.push(("wal".to_string(), wal.raw_image()?));
        }
        Ok(out)
    }
}

enum Applied {
    Stepped,
    Expunged,
    Skipped,
}

/// A commit handed to the durability path but not yet awaited. The
/// engine redeems it with [`CommitHandle::wait`]. [`CommitHandle::try_poll`] checks
/// without blocking; nothing in the engine calls it today, and it stays
/// for a caller that overlaps other work with an in-flight commit.
/// Holds no ticket when logging is off or the batch was empty.
#[derive(Debug)]
pub struct CommitHandle(Option<CommitTicket>);

impl CommitHandle {
    /// Block until the batch is durable. Returns the LSN of its first
    /// record, or `None` when logging is off / the batch was empty.
    pub fn wait(self) -> Result<Option<Lsn>> {
        self.0.map(CommitTicket::wait).transpose()
    }

    /// Non-blocking durability check: `None` while the covering drain is
    /// still in flight, `Some(Ok(..))` once durable, `Some(Err(..))` if
    /// the drain failed. Does not consume the handle — poll until
    /// resolved, then discard (or [`CommitHandle::wait`] to finish
    /// blocking).
    pub fn try_poll(&self) -> Option<Result<Option<Lsn>>> {
        match &self.0 {
            None => Some(Ok(None)),
            Some(t) => t.try_poll().map(|r| r.map(Some)),
        }
    }
}

fn with_ext(p: &std::path::Path, ext: &str) -> PathBuf {
    let mut s = p.as_os_str().to_os_string();
    s.push(".");
    s.push(ext);
    PathBuf::from(s)
}

/// Redo's merge of a logged `image` over the `stored` state of the same
/// tuple: stable columns from the log, each degradable column from
/// whichever side is at the **coarser** stage. This is what makes
/// degradation's monotonicity hold across a crash — no replay can lower a
/// stage the heap already reached.
fn merge_coarser(
    mut image: StoredTuple,
    stored: &StoredTuple,
    deg_cols: &[ColumnId],
) -> StoredTuple {
    for ((cid, logged), kept) in deg_cols.iter().zip(&mut image.stages).zip(&stored.stages) {
        if kept.unwrap_or(STAGE_REMOVED) > logged.unwrap_or(STAGE_REMOVED) {
            *logged = *kept;
            image.row[cid.0 as usize] = stored.row[cid.0 as usize].clone();
        }
    }
    image
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use instant_common::{DataType, Duration, LevelId, MockClock};
    use instant_lcp::gtree::location_tree_fig1;
    use instant_lcp::hierarchy::Hierarchy;
    use instant_lcp::AttributeLcp;

    fn schema() -> TableSchema {
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

    fn fresh(clock: &MockClock) -> Db {
        let db = Db::open(DbConfig::default(), clock.shared()).unwrap();
        db.create_table(schema()).unwrap();
        db
    }

    fn row(id: i64, addr: &str) -> Vec<Value> {
        vec![Value::Int(id), Value::Str(addr.into())]
    }

    #[test]
    fn insert_arms_first_transition() {
        let clock = MockClock::new();
        let db = fresh(&clock);
        db.insert("person", &row(1, "4 rue Jussieu")).unwrap();
        assert_eq!(db.scheduler().len(), 1);
        assert_eq!(
            db.scheduler().next_due(),
            Some(Timestamp::ZERO + Duration::hours(1))
        );
        assert_eq!(db.stats().inserts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn insert_into_a_slot_an_older_batch_still_holds_waits_and_lands_once() {
        let clock = MockClock::new();
        let db = fresh(&clock);
        let table = db.catalog().get("person").unwrap();
        let old = db.insert("person", &row(1, "4 rue Jussieu")).unwrap();
        db.scheduler().clear();
        // A pump batch, older than the insert below, expunges the tuple
        // and keeps its lock while it waits on its fsync.
        let batch = db.txs.begin_system();
        batch
            .lock(Resource::Table(table.id()), LockMode::IntentionExclusive)
            .unwrap();
        batch
            .lock(Resource::Tuple(table.id(), old), LockMode::Exclusive)
            .unwrap();
        table.expunge_physical(old).unwrap();
        let committer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            batch.commit().unwrap();
        });
        clock.advance(Duration::minutes(1));
        let tid = db.insert("person", &row(2, "Rue de la Paix")).unwrap();
        committer.join().unwrap();
        assert_eq!(tid, old, "the freed slot is the one reused");
        assert_eq!(table.live_count().unwrap(), 1, "no phantom row");
        assert_eq!(table.get(tid).unwrap().row[0], Value::Int(2));
        assert_eq!(db.scheduler().len(), 1);
        assert_eq!(
            db.scheduler().next_due(),
            Some(Timestamp::ZERO + Duration::minutes(1) + Duration::hours(1)),
            "the row's first transition is armed"
        );
    }

    #[test]
    fn degradation_follows_fig2() {
        let clock = MockClock::new();
        let db = fresh(&clock);
        let table = db.catalog().get("person").unwrap();
        let tid = db.insert("person", &row(1, "4 rue Jussieu")).unwrap();

        clock.advance(Duration::hours(2));
        let r = db.pump_degradation().unwrap();
        assert_eq!(r.fired, 1);
        assert_eq!(table.get(tid).unwrap().row[1], Value::Str("Paris".into()));

        clock.advance(Duration::days(2));
        db.pump_degradation().unwrap();
        assert_eq!(
            table.get(tid).unwrap().row[1],
            Value::Str("Ile-de-France".into())
        );

        clock.advance(Duration::months(1));
        db.pump_degradation().unwrap();
        assert_eq!(table.get(tid).unwrap().row[1], Value::Str("France".into()));

        // Final month: the whole tuple (stable id included) is expunged.
        clock.advance(Duration::months(2));
        let r = db.pump_degradation().unwrap();
        assert_eq!(r.expunged, 1);
        assert!(!table.exists(tid));
        assert_eq!(table.live_count().unwrap(), 0);
        assert!(db.scheduler().is_empty());
    }

    /// The Fig. 1 tree, except that the `fail_in`-th `generalize` call
    /// from now fails (0 = never).
    #[derive(Debug)]
    struct FailingTree {
        tree: instant_lcp::gtree::GeneralizationTree,
        fail_in: std::sync::atomic::AtomicUsize,
    }

    impl Hierarchy for FailingTree {
        fn levels(&self) -> u8 {
            self.tree.levels()
        }
        fn level_of(&self, v: &Value) -> Option<LevelId> {
            self.tree.level_of(v)
        }
        fn generalize(&self, v: &Value, k: LevelId) -> Result<Value> {
            let left = self
                .fail_in
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
            if left == Ok(1) {
                return Err(Error::Corrupt("injected generalize failure".into()));
            }
            self.tree.generalize(v, k)
        }
        fn residual_info(&self, v: &Value, k: LevelId) -> f64 {
            self.tree.residual_info(v, k)
        }
        fn cardinality_at(&self, k: LevelId) -> u64 {
            self.tree.cardinality_at(k)
        }
    }

    #[test]
    fn failed_batch_drops_no_work() {
        let clock = MockClock::new();
        let flaky = Arc::new(FailingTree {
            tree: location_tree_fig1(),
            fail_in: 0.into(),
        });
        let db = Db::open(DbConfig::default(), clock.shared()).unwrap();
        let location = flaky.clone();
        db.create_table(
            TableSchema::new(
                "person",
                vec![
                    Column::stable("id", DataType::Int),
                    Column::degradable(
                        "location",
                        DataType::Str,
                        location,
                        AttributeLcp::fig2_location(),
                    )
                    .unwrap()
                    .with_index(),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        for i in 0..10 {
            db.insert("person", &row(i, "4 rue Jussieu")).unwrap();
        }
        clock.advance(Duration::hours(2));
        // The fourth step of the one batch fails.
        flaky.fail_in.store(4, Ordering::Relaxed);
        assert!(matches!(db.pump_one_batch(), Err(Error::Corrupt(_))));
        assert_eq!(db.stats().degrade_steps.load(Ordering::Relaxed), 3);
        // The failed step and the six after it were handed back.
        assert_eq!(db.pump_degradation().unwrap().fired, 7);
        let table = db.catalog().get("person").unwrap();
        for (_, t) in table.scan().unwrap() {
            assert_eq!(
                (t.stages[0], &t.row[1]),
                (Some(1), &Value::Str("Paris".into()))
            );
        }
        // The three steps applied before the failure were committed too.
        let steps = db.wal().unwrap().iterate().unwrap();
        let steps = steps
            .iter()
            .filter(|(_, r)| matches!(r, LogRecord::Degrade { .. }))
            .count();
        assert_eq!(steps, 10);
    }

    #[test]
    fn pump_without_due_work_is_noop() {
        let clock = MockClock::new();
        let db = fresh(&clock);
        db.insert("person", &row(1, "4 rue Jussieu")).unwrap();
        let r = db.pump_degradation().unwrap();
        assert_eq!(r, PumpReport::default());
    }

    #[test]
    fn reader_defers_degrader() {
        let clock = MockClock::new();
        let db = fresh(&clock);
        let table = db.catalog().get("person").unwrap();
        let tid = db.insert("person", &row(1, "4 rue Jussieu")).unwrap();
        clock.advance(Duration::hours(2));
        // An old reader holds a shared lock on the tuple.
        let reader = db.tx_manager().begin();
        reader
            .lock(Resource::Tuple(table.id(), tid), LockMode::Shared)
            .unwrap();
        let r = db.pump_one_batch().unwrap();
        assert_eq!(r.deferred, 1);
        assert_eq!(r.fired, 0);
        // Value unchanged while the reader is active.
        assert_eq!(
            table.get(tid).unwrap().row[1],
            Value::Str("4 rue Jussieu".into())
        );
        reader.commit().unwrap();
        let r2 = db.pump_degradation().unwrap();
        assert_eq!(r2.fired, 1);
        assert_eq!(db.stats().degrader_lock_retries.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn user_delete_cancels_pending_degradation() {
        let clock = MockClock::new();
        let db = fresh(&clock);
        let table = db.catalog().get("person").unwrap();
        let tid = db.insert("person", &row(1, "4 rue Jussieu")).unwrap();
        db.delete_tuple(&table, tid).unwrap();
        clock.advance(Duration::days(400));
        let r = db.pump_degradation().unwrap();
        assert_eq!(r.fired, 0, "transition on deleted tuple is skipped");
    }

    #[test]
    fn stale_transition_skips_the_tuple_that_reused_its_slot() {
        let clock = MockClock::new();
        let db = fresh(&clock);
        let table = db.catalog().get("person").unwrap();
        let old = db.insert("person", &row(1, "4 rue Jussieu")).unwrap();
        db.delete_tuple(&table, old).unwrap();
        clock.advance(Duration::minutes(30));
        let tid = db.insert("person", &row(2, "4 rue Jussieu")).unwrap();
        assert_eq!(tid, old, "the new row reuses the tombstoned slot");
        // Row 1's transition is due; row 2's is 29 minutes away.
        clock.advance(Duration::minutes(31));
        db.pump_degradation().unwrap();
        assert_eq!(
            table.get(tid).unwrap().row[1],
            Value::Str("4 rue Jussieu".into())
        );
    }

    #[test]
    fn wal_records_are_written_and_sealed() {
        let clock = MockClock::new();
        let db = fresh(&clock);
        db.insert("person", &row(1, "4 rue Jussieu")).unwrap();
        let records = db.wal().unwrap().iterate().unwrap();
        assert_eq!(records.len(), 3); // Begin, Insert, Commit
        match &records[1].1 {
            LogRecord::Insert { row, .. } => assert!(row.is_sealed()),
            other => panic!("expected Insert, got {other:?}"),
        }
    }

    #[test]
    fn plain_wal_leaks_sealed_wal_hides() {
        let clock = MockClock::new();
        let mk = |mode| {
            let db = Db::open(
                DbConfig {
                    wal_mode: mode,
                    ..DbConfig::default()
                },
                clock.shared(),
            )
            .unwrap();
            db.create_table(schema()).unwrap();
            db.insert("person", &row(1, "4 rue Jussieu")).unwrap();
            let img = db.wal().unwrap().raw_image().unwrap();
            img.windows(b"4 rue Jussieu".len())
                .any(|w| w == b"4 rue Jussieu")
        };
        assert!(mk(WalMode::Plain), "plain WAL must contain the address");
        assert!(!mk(WalMode::Sealed), "sealed WAL must not");
    }

    #[test]
    fn checkpoint_truncates_and_shreds() {
        let clock = MockClock::new();
        let db = fresh(&clock);
        db.insert("person", &row(1, "4 rue Jussieu")).unwrap();
        clock.advance(Duration::hours(3));
        db.checkpoint().unwrap();
        // Everything before the checkpoint is physically gone; the
        // checkpoint record itself is the new log head.
        let records = db.wal().unwrap().iterate().unwrap();
        assert_eq!(records.len(), 1);
        assert!(matches!(records[0].1, LogRecord::Checkpoint { .. }));
        // Keys for pre-checkpoint windows are gone.
        assert!(db.keystore().shredded_below() > instant_wal::keystore::WindowId(0));
        assert_eq!(db.stats().checkpoints.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn exact_level_index_follows_degradation() {
        let clock = MockClock::new();
        let db = fresh(&clock);
        let table = db.catalog().get("person").unwrap();
        for i in 0..10 {
            db.insert("person", &row(i, "4 rue Jussieu")).unwrap();
        }
        assert_eq!(
            table.index_occupancy(ColumnId(1)).unwrap(),
            vec![10, 0, 0, 0]
        );
        clock.advance(Duration::hours(2));
        db.pump_degradation().unwrap();
        assert_eq!(
            table.index_occupancy(ColumnId(1)).unwrap(),
            vec![0, 10, 0, 0]
        );
        assert_eq!(
            table
                .index_probe_deg(ColumnId(1), LevelId(1), &Value::Str("Paris".into()))
                .unwrap()
                .len(),
            10
        );
    }

    #[test]
    fn recovery_restores_committed_state() {
        let dir = std::env::temp_dir().join(format!("instantdb-rec-{}", std::process::id()));
        for f in ["idb", "wal"] {
            let _ = std::fs::remove_file(with_ext(&dir, f));
            let _ = std::fs::remove_dir_all(with_ext(&dir, f));
        }
        let clock = MockClock::new();
        let cfg = DbConfig {
            path: Some(dir.clone()),
            ..DbConfig::default()
        };
        {
            let db = Db::open(cfg.clone(), clock.shared()).unwrap();
            db.create_table(schema()).unwrap();
            db.insert("person", &row(1, "4 rue Jussieu")).unwrap();
            db.checkpoint().unwrap();
            db.insert("person", &row(2, "Drienerlolaan 5")).unwrap();
            // Crash: drop without checkpoint — dirty pages may be lost.
            drop(db);
        }
        clock.advance(Duration::minutes(1));
        let db = Db::recover_with_schemas(cfg, clock.shared(), vec![schema()]).unwrap();
        let table = db.catalog().get("person").unwrap();
        assert_eq!(
            table.live_count().unwrap(),
            2,
            "both committed inserts live"
        );
        // Scheduler re-armed for both tuples.
        assert_eq!(db.scheduler().len(), 2);
        for f in ["idb", "wal"] {
            let _ = std::fs::remove_file(with_ext(&dir, f));
            let _ = std::fs::remove_dir_all(with_ext(&dir, f));
        }
    }

    #[test]
    fn recovery_does_not_resurrect_degraded_state() {
        let dir = std::env::temp_dir().join(format!("instantdb-rec2-{}", std::process::id()));
        for f in ["idb", "wal"] {
            let _ = std::fs::remove_file(with_ext(&dir, f));
            let _ = std::fs::remove_dir_all(with_ext(&dir, f));
        }
        let clock = MockClock::new();
        let cfg = DbConfig {
            path: Some(dir.clone()),
            ..DbConfig::default()
        };
        let tid;
        {
            let db = Db::open(cfg.clone(), clock.shared()).unwrap();
            db.create_table(schema()).unwrap();
            tid = db.insert("person", &row(1, "4 rue Jussieu")).unwrap();
            clock.advance(Duration::hours(2));
            db.pump_degradation().unwrap(); // → Paris
            drop(db); // crash
        }
        let db = Db::recover_with_schemas(cfg, clock.shared(), vec![schema()]).unwrap();
        let table = db.catalog().get("person").unwrap();
        let tuples = table.scan().unwrap();
        assert_eq!(tuples.len(), 1);
        let (new_tid, t) = &tuples[0];
        assert_eq!(
            t.row[1],
            Value::Str("Paris".into()),
            "recovered at the degraded state, never the accurate one"
        );
        assert_eq!(t.stages[0], Some(1));
        let _ = (tid, new_tid);
        for f in ["idb", "wal"] {
            let _ = std::fs::remove_file(with_ext(&dir, f));
            let _ = std::fs::remove_dir_all(with_ext(&dir, f));
        }
    }

    #[test]
    fn forensic_secure_db_holds_no_preimage_after_degrade_and_checkpoint() {
        let clock = MockClock::new();
        let db = fresh(&clock);
        db.insert("person", &row(1, "Drienerlolaan 5")).unwrap();
        clock.advance(Duration::hours(2));
        db.pump_degradation().unwrap();
        db.checkpoint().unwrap(); // truncates WAL + shreds keys
        let needle = b"Drienerlolaan 5";
        for (name, img) in db.forensic_images().unwrap() {
            assert!(
                !img.windows(needle.len()).any(|w| w == needle),
                "accurate address recoverable from {name} image"
            );
        }
    }

    #[test]
    fn batched_pump_respects_batch_max() {
        let clock = MockClock::new();
        let db = Db::open(
            DbConfig {
                batch_max: 3,
                ..DbConfig::default()
            },
            clock.shared(),
        )
        .unwrap();
        db.create_table(schema()).unwrap();
        for i in 0..10 {
            db.insert("person", &row(i, "4 rue Jussieu")).unwrap();
        }
        clock.advance(Duration::hours(2));
        let r1 = db.pump_one_batch().unwrap();
        assert_eq!(r1.fired, 3);
        let total = db.pump_degradation().unwrap();
        assert_eq!(total.fired, 7);
    }

    #[test]
    fn lateness_recorded() {
        let clock = MockClock::new();
        let db = fresh(&clock);
        db.insert("person", &row(1, "4 rue Jussieu")).unwrap();
        // Pump 30 minutes late.
        clock.advance(Duration::hours(1) + Duration::minutes(30));
        db.pump_degradation().unwrap();
        let h = db.scheduler().lateness();
        assert_eq!(h.count(), 1);
        assert!(h.max() >= Duration::minutes(30));
    }
}
