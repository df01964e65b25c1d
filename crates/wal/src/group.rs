//! Group-commit pipeline: one fsync per drain, not per committer — one
//! pipeline per WAL shard, with epoch-acknowledged fsyncs.
//!
//! Committers enqueue their record batch plus a commit ticket and block;
//! a dedicated log-writer thread drains every waiting batch and appends
//! all records. Appended drains are sealed into **epochs** and handed to
//! a second per-pipeline thread, the fsyncer, which issues **one**
//! [`Wal::sync`] covering every epoch pending at that moment, then
//! completes the covered tickets. A committer is only acknowledged
//! *after* the fsync that covers its records, so the classical WAL
//! durability contract is unchanged — the pipeline just lets N
//! concurrent committers share one fsync instead of paying N, and lets
//! the writer keep appending epoch *n+1* while the fsyncer waits on
//! epoch *n*'s disk flush.
//!
//! Batching is natural twice over: while the writer appends drain *n*,
//! the committers arriving meanwhile pile up and become drain *n+1*;
//! and while the fsyncer flushes epoch *m*, the epochs sealed meanwhile
//! fold into one covering fsync. An optional
//! [`GroupCommitConfig::max_delay`] makes the writer linger once per
//! drain to deepen the batch further (throughput over latency).
//!
//! Failure semantics: if any append fails, every ticket in that drain is
//! failed with the same broadcast error and the pipeline poisons itself;
//! if an epoch fsync fails, every ticket in every epoch that fsync would
//! have covered is failed the same way. No committer in a failed drain
//! or epoch is ever acknowledged. (As with any WAL, a *failed* commit
//! may still surface after recovery if its bytes reached the disk; an
//! *acknowledged* commit is always durable.)
//!
//! The pipeline also serializes appends against checkpoint truncation:
//! because every record reaches the log through the single writer thread,
//! a checkpoint record routed through the pipeline can never interleave
//! into the middle of another committer's unsynced batch.
//!
//! Segmented-log interplay: a drain's batch may straddle a segment
//! rotation. That is safe — rotation fsyncs the outgoing segment before
//! switching, so the epoch's single [`Wal::sync`] (which covers the
//! active segment) still makes every appended record durable before any
//! ticket completes. And because truncation deletes whole dead segments
//! without touching the Wal append lock for the unlink I/O, a drain's
//! append + fsync never stalls behind a checkpoint truncation.
//!
//! Sharded operation ([`GroupCommitSet`]): one pipeline per
//! [`WalSet`] shard; every shard's [`Wal::append_batch`] draws LSNs from
//! the set's global allocator. Transactions routed to different shards
//! append and fsync fully in parallel; recovery's k-way merge puts the
//! shards back into one LSN-ordered stream.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};

use parking_lot::{Condvar, Mutex};

use instant_common::{Error, Result};
use instant_obs::{Obs, WalShardLane};

use crate::record::{LogRecord, Lsn};
use crate::walset::WalSet;
use crate::writer::Wal;

/// Tuning knobs for the pipeline.
#[derive(Debug, Clone)]
pub struct GroupCommitConfig {
    /// Maximum committers folded into one drain/fsync (clamped to ≥ 1).
    pub max_batch: usize,
    /// How long the writer lingers after picking up work, to let more
    /// committers join the drain. Zero = pure natural batching (no added
    /// latency; batches still form while the previous fsync runs).
    pub max_delay: StdDuration,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig {
            max_batch: 128,
            max_delay: StdDuration::ZERO,
        }
    }
}

/// Pipeline counters (monotonic since spawn).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Tickets acknowledged (commit calls that succeeded).
    pub commits: u64,
    /// Durability epochs completed — one fsync each.
    pub batches: u64,
    /// Log records appended through the pipeline.
    pub records: u64,
    /// Largest number of committers covered by a single fsync.
    pub max_batch: u64,
    /// Drains or epochs whose tickets were failed by an I/O error
    /// broadcast.
    pub failed_batches: u64,
}

impl GroupCommitStats {
    /// Fold `other` into `self`: counters add, the high-water batch
    /// depth takes the max. Used to aggregate per-shard pipelines.
    pub fn merge(&mut self, other: &GroupCommitStats) {
        self.commits += other.commits;
        self.batches += other.batches;
        self.records += other.records;
        self.max_batch = self.max_batch.max(other.max_batch);
        self.failed_batches += other.failed_batches;
    }
}

#[derive(Default)]
struct StatsCells {
    commits: AtomicU64,
    batches: AtomicU64,
    records: AtomicU64,
    max_batch: AtomicU64,
    failed_batches: AtomicU64,
}

enum TicketState {
    Pending,
    Done(Lsn),
    Failed(Arc<str>),
}

impl TicketState {
    /// The commit's outcome, once it has one.
    fn outcome(&self) -> Option<Result<Lsn>> {
        match self {
            TicketState::Pending => None,
            TicketState::Done(lsn) => Some(Ok(*lsn)),
            TicketState::Failed(msg) => {
                Some(Err(Error::Io(std::io::Error::other(msg.to_string()))))
            }
        }
    }
}

/// One committer's rendezvous with the writer thread.
struct Ticket {
    state: Mutex<TicketState>,
    cv: Condvar,
    /// When the committer submitted — the start of its ack latency.
    submitted: Instant,
}

impl Ticket {
    fn new() -> Ticket {
        Ticket {
            state: Mutex::ranked(510, TicketState::Pending),
            cv: Condvar::new(),
            submitted: Instant::now(),
        }
    }

    fn complete(&self, lsn: Lsn) {
        *self.state.lock() = TicketState::Done(lsn);
        self.cv.notify_all();
    }

    fn fail(&self, msg: Arc<str>) {
        *self.state.lock() = TicketState::Failed(msg);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Lsn> {
        let mut st = self.state.lock();
        loop {
            if let Some(outcome) = st.outcome() {
                return outcome;
            }
            self.cv.wait(&mut st);
        }
    }

    fn poll(&self) -> Option<Result<Lsn>> {
        self.state.lock().outcome()
    }
}

/// A commit enqueued by [`GroupCommit::submit`] but not yet awaited.
pub struct CommitTicket(Arc<Ticket>);

impl CommitTicket {
    /// Block until the epoch covering this commit has fsynced; returns
    /// the LSN of the batch's first record.
    pub fn wait(self) -> Result<Lsn> {
        self.0.wait()
    }

    /// Non-blocking durability check: `None` while the covering epoch
    /// is still in flight, `Some(Ok(first_lsn))` once it is durable,
    /// `Some(Err(..))` if its drain or fsync failed. The async-epoch
    /// server path polls this between wire turns instead of parking a
    /// thread per in-flight commit.
    pub fn try_poll(&self) -> Option<Result<Lsn>> {
        self.0.poll()
    }
}

impl std::fmt::Debug for CommitTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CommitTicket")
    }
}

struct Queue {
    pending: Vec<(Vec<LogRecord>, Arc<Ticket>)>,
    stopping: bool,
}

/// One appended-but-not-yet-durable drain, sealed by the writer and
/// awaiting its covering fsync.
struct Epoch {
    /// Each committer's ticket with the first LSN of its batch.
    entries: Vec<(Arc<Ticket>, Lsn)>,
    /// Records appended for this epoch.
    records: u64,
    /// When the writer picked the drain up — the start of the epoch's
    /// drain latency.
    drain_started: Instant,
}

struct EpochQueue {
    pending: Vec<Epoch>,
    /// The writer thread exited; the fsyncer flushes what is queued and
    /// follows.
    writer_done: bool,
    /// The fsyncer died on an fsync error; the writer fails further
    /// drains instead of queueing them into the void.
    fsync_dead: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signals the writer that work arrived or stop was requested.
    work: Condvar,
    /// Sealed epochs in flight between the writer and the fsyncer. The
    /// fsync itself always runs *outside* this lock, so a committer's
    /// submit never queues behind disk I/O.
    epochs: Mutex<EpochQueue>,
    /// Signals the fsyncer that an epoch was sealed or the writer left.
    epoch_ready: Condvar,
    stats: StatsCells,
    /// Latency sinks (drain/fsync/ack histograms); recording is
    /// lock-free, so both threads feed them mid-epoch at no risk.
    obs: Arc<Obs>,
    /// This pipeline's per-shard drain/fsync lane, recorded alongside
    /// the global histograms.
    lane: Arc<WalShardLane>,
}

/// Handle to the commit pipeline. Dropping (or [`GroupCommit::stop`])
/// drains every enqueued batch, flushes every sealed epoch, then joins
/// both threads — a clean shutdown never strands an acknowledged or
/// enqueued committer.
pub struct GroupCommit {
    wal: Arc<Wal>,
    shared: Arc<Shared>,
    writer: Option<JoinHandle<()>>,
    fsyncer: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for GroupCommit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupCommit")
            .field("running", &self.writer.is_some())
            .finish()
    }
}

impl GroupCommit {
    /// Spawn the log-writer and fsyncer threads over `wal`, serving
    /// shard `shard` of its set (0 for a lone log). Drain/fsync/ack
    /// latencies land in `obs`'s global histograms plus the
    /// `wal.drain.shard<k>` / `wal.fsync.shard<k>` lane. Fails only if
    /// the OS cannot spawn a thread — without them the pipeline could
    /// never acknowledge a commit, so that must surface as an error at
    /// startup, not a panic.
    pub fn spawn(
        wal: Arc<Wal>,
        shard: usize,
        cfg: GroupCommitConfig,
        obs: Arc<Obs>,
    ) -> Result<GroupCommit> {
        let lane = obs.wal_shard_lane(shard);
        let shared = Arc::new(Shared {
            queue: Mutex::ranked(
                500,
                Queue {
                    pending: Vec::new(),
                    stopping: false,
                },
            ),
            work: Condvar::new(),
            epochs: Mutex::ranked(
                505,
                EpochQueue {
                    pending: Vec::new(),
                    writer_done: false,
                    fsync_dead: false,
                },
            ),
            epoch_ready: Condvar::new(),
            stats: StatsCells::default(),
            obs,
            lane,
        });
        let thread_wal = wal.clone();
        let thread_shared = shared.clone();
        let writer = std::thread::Builder::new()
            .name(format!("wal-group-commit-{shard}"))
            .spawn(move || writer_loop(thread_wal, thread_shared, cfg))?;
        let thread_wal = wal.clone();
        let thread_shared = shared.clone();
        let fsyncer = std::thread::Builder::new()
            .name(format!("wal-group-fsync-{shard}"))
            .spawn(move || fsync_loop(thread_wal, thread_shared));
        let fsyncer = match fsyncer {
            Ok(handle) => handle,
            Err(e) => {
                // Half a pipeline acknowledges nothing: stop the writer
                // (its exit guard fails anything already queued) before
                // surfacing the spawn error.
                shared.queue.lock().stopping = true;
                shared.work.notify_all();
                let _ = writer.join();
                return Err(e.into());
            }
        };
        Ok(GroupCommit {
            wal,
            shared,
            writer: Some(writer),
            fsyncer: Some(fsyncer),
        })
    }

    /// Durably commit `records` as one atomic batch: blocks until the
    /// epoch covering them has fsynced, then returns the LSN of the
    /// batch's first record.
    pub fn commit(&self, records: Vec<LogRecord>) -> Result<Lsn> {
        self.submit(records)?.wait()
    }

    /// Enqueue `records` without waiting for durability. Callers that
    /// must order the *enqueue* against other work — e.g. the engine's
    /// checkpoint gate, which guarantees every record ahead of a
    /// `Checkpoint` record had its page writes flushed — take the ticket
    /// inside their critical section and wait outside it.
    pub fn submit(&self, records: Vec<LogRecord>) -> Result<CommitTicket> {
        let ticket = Arc::new(Ticket::new());
        if records.is_empty() {
            // Nothing to make durable: an empty append just reports the
            // allocator's next LSN.
            ticket.complete(self.wal.append_batch(&records)?);
            return Ok(CommitTicket(ticket));
        }
        {
            let mut q = self.shared.queue.lock();
            if q.stopping {
                return Err(Error::TxState("group-commit pipeline stopped".into()));
            }
            q.pending.push((records, ticket.clone()));
        }
        self.shared.work.notify_all();
        Ok(CommitTicket(ticket))
    }

    /// Snapshot of the pipeline counters.
    pub fn stats(&self) -> GroupCommitStats {
        let s = &self.shared.stats;
        GroupCommitStats {
            commits: s.commits.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            records: s.records.load(Ordering::Relaxed),
            max_batch: s.max_batch.load(Ordering::Relaxed),
            failed_batches: s.failed_batches.load(Ordering::Relaxed),
        }
    }

    /// Drain outstanding batches, stop both threads, and return the
    /// final counters. Subsequent [`GroupCommit::commit`] calls error.
    pub fn stop(mut self) -> GroupCommitStats {
        self.shutdown();
        self.stats()
    }

    fn shutdown(&mut self) {
        let Some(writer) = self.writer.take() else {
            return;
        };
        self.shared.queue.lock().stopping = true;
        self.shared.work.notify_all();
        // The writer drains the queue, seals the last epochs, and its
        // exit guard flags `writer_done`; the fsyncer flushes whatever
        // is sealed and follows. Join in that order.
        let _ = writer.join();
        if let Some(fsyncer) = self.fsyncer.take() {
            let _ = fsyncer.join();
        }
    }
}

impl Drop for GroupCommit {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn writer_loop(wal: Arc<Wal>, shared: Arc<Shared>, cfg: GroupCommitConfig) {
    let _poison = PoisonOnExit(shared.clone());
    let max_batch = cfg.max_batch.max(1);
    loop {
        let drain: Vec<(Vec<LogRecord>, Arc<Ticket>)> = {
            let mut q = shared.queue.lock();
            loop {
                if !q.pending.is_empty() {
                    break;
                }
                if q.stopping {
                    return;
                }
                shared.work.wait(&mut q);
            }
            if !cfg.max_delay.is_zero() && q.pending.len() < max_batch && !q.stopping {
                // Linger to deepen the batch, re-arming the wait across
                // arrivals (each submit notifies the condvar) until the
                // deadline passes, the batch fills, or stop is signalled.
                let deadline = std::time::Instant::now() + cfg.max_delay;
                while q.pending.len() < max_batch && !q.stopping {
                    let now = std::time::Instant::now();
                    if now >= deadline {
                        break;
                    }
                    if shared.work.wait_for(&mut q, deadline - now).timed_out() {
                        break;
                    }
                }
            }
            let take = q.pending.len().min(max_batch);
            q.pending.drain(..take).collect()
        };

        let drain_started = Instant::now();
        let mut entries = Vec::with_capacity(drain.len());
        let mut appended = 0u64;
        let mut failure: Option<String> = None;
        for (records, ticket) in &drain {
            match wal.append_batch(records) {
                Ok(first) => {
                    entries.push((ticket.clone(), first));
                    appended += records.len() as u64;
                }
                Err(e) => {
                    failure = Some(e.to_string());
                    break;
                }
            }
        }

        match failure {
            None => {
                let sealed = {
                    let mut eq = shared.epochs.lock();
                    if eq.fsync_dead {
                        false
                    } else {
                        eq.pending.push(Epoch {
                            entries,
                            records: appended,
                            drain_started,
                        });
                        true
                    }
                };
                if sealed {
                    shared.epoch_ready.notify_all();
                } else {
                    // The fsyncer died under us: nothing will ever flush
                    // this drain, so fail it and exit — the poison guard
                    // fails whatever is still queued behind it.
                    let msg: Arc<str> =
                        "group-commit fsyncer thread exited before this epoch".into();
                    for (_, ticket) in &drain {
                        ticket.fail(msg.clone());
                    }
                    return;
                }
            }
            Some(msg) => {
                // Error broadcast: every ticket in the failed drain gets
                // the same cause; none is acknowledged. Then poison the
                // pipeline and exit: a failed append leaves the log tail
                // (and kernel dirty-page state) indeterminate, so
                // acknowledging anything appended after it could violate
                // acknowledged-implies-durable. Epochs sealed *before*
                // the failure were fully appended and may still be
                // flushed and acknowledged by the fsyncer. The poison
                // guard fails whatever is still queued.
                let msg: Arc<str> = format!("group-commit drain failed: {msg}").into();
                shared.stats.failed_batches.fetch_add(1, Ordering::Relaxed);
                for (_, ticket) in &drain {
                    ticket.fail(msg.clone());
                }
                return;
            }
        }
    }
}

/// The fsyncer half of the pipeline: pops every epoch sealed since its
/// last flush, issues **one** [`Wal::sync`] covering all of them —
/// outside the epoch lock, so committers never queue behind disk I/O —
/// then acknowledges the covered tickets and accounts the epoch.
fn fsync_loop(wal: Arc<Wal>, shared: Arc<Shared>) {
    loop {
        let epochs: Vec<Epoch> = {
            let mut eq = shared.epochs.lock();
            loop {
                if !eq.pending.is_empty() {
                    break;
                }
                if eq.writer_done {
                    return;
                }
                shared.epoch_ready.wait(&mut eq);
            }
            std::mem::take(&mut eq.pending)
        };

        let fsync_started = Instant::now();
        match wal.sync() {
            Ok(()) => {
                let fsync_elapsed = fsync_started.elapsed();
                shared.obs.wal_fsync.record_duration(fsync_elapsed);
                shared.lane.fsync.record_duration(fsync_elapsed);
                let commits: u64 = epochs.iter().map(|e| e.entries.len() as u64).sum();
                let records: u64 = epochs.iter().map(|e| e.records).sum();
                let s = &shared.stats;
                s.commits.fetch_add(commits, Ordering::Relaxed);
                s.batches.fetch_add(1, Ordering::Relaxed);
                s.records.fetch_add(records, Ordering::Relaxed);
                s.max_batch.fetch_max(commits, Ordering::Relaxed);
                let earliest = epochs.iter().map(|e| e.drain_started).min();
                for epoch in &epochs {
                    for (ticket, lsn) in &epoch.entries {
                        // Ack latency is stamped by the completer: the
                        // committer's wake-up adds only its condvar
                        // signal.
                        shared
                            .obs
                            .commit_ack
                            .record_duration(ticket.submitted.elapsed());
                        ticket.complete(*lsn);
                    }
                }
                if let Some(start) = earliest {
                    let drain_elapsed = start.elapsed();
                    shared.obs.wal_drain.record_duration(drain_elapsed);
                    shared.lane.drain.record_duration(drain_elapsed);
                }
            }
            Err(e) => {
                // A failed fsync leaves the kernel dirty-page state
                // indeterminate: nothing appended but unflushed can ever
                // be acknowledged again. Fail everything this fsync
                // would have covered, everything sealed behind it, and
                // everything still queued at the writer; mark the
                // pipeline stopped so future submits error out.
                shared.stats.failed_batches.fetch_add(1, Ordering::Relaxed);
                let msg: Arc<str> = format!("group-commit epoch fsync failed: {e}").into();
                for epoch in &epochs {
                    for (ticket, _) in &epoch.entries {
                        ticket.fail(msg.clone());
                    }
                }
                let sealed: Vec<Epoch> = {
                    let mut eq = shared.epochs.lock();
                    eq.fsync_dead = true;
                    std::mem::take(&mut eq.pending)
                };
                for epoch in &sealed {
                    for (ticket, _) in &epoch.entries {
                        ticket.fail(msg.clone());
                    }
                }
                let queued: Vec<(Vec<LogRecord>, Arc<Ticket>)> = {
                    let mut q = shared.queue.lock();
                    q.stopping = true;
                    q.pending.drain(..).collect()
                };
                shared.work.notify_all();
                for (_, ticket) in &queued {
                    ticket.fail(msg.clone());
                }
                return;
            }
        }
    }
}

/// Runs when the writer thread exits — normally, after a drain failure,
/// or by panic. Marks the pipeline stopped (future submits error out
/// instead of enqueueing into the void), fails every ticket still
/// queued so no committer is stranded in [`CommitTicket::wait`], and
/// flags `writer_done` so the fsyncer flushes its last epochs and
/// exits.
struct PoisonOnExit(Arc<Shared>);

impl Drop for PoisonOnExit {
    fn drop(&mut self) {
        let leftovers: Vec<(Vec<LogRecord>, Arc<Ticket>)> = {
            let mut q = self.0.queue.lock();
            q.stopping = true;
            q.pending.drain(..).collect()
        };
        if !leftovers.is_empty() {
            let msg: Arc<str> = "group-commit writer thread exited before this drain".into();
            for (_, ticket) in &leftovers {
                ticket.fail(msg.clone());
            }
        }
        self.0.epochs.lock().writer_done = true;
        self.0.epoch_ready.notify_all();
    }
}

/// The parallel commit backbone: one [`GroupCommit`] pipeline per
/// [`WalSet`] shard. Commits routed to different shards append and fsync
/// fully in parallel; within a shard they share fsyncs. Stats aggregate
/// across every pipeline ([`GroupCommitSet::stats`]); the per-shard
/// breakdown stays available ([`GroupCommitSet::pipe_stats`]).
pub struct GroupCommitSet {
    pipes: Vec<GroupCommit>,
}

impl std::fmt::Debug for GroupCommitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupCommitSet")
            .field("pipes", &self.pipes.len())
            .finish()
    }
}

impl GroupCommitSet {
    /// Spawn one pipeline per shard of `set`.
    pub fn spawn(set: &WalSet, cfg: GroupCommitConfig) -> Result<GroupCommitSet> {
        Self::spawn_obs(set, cfg, Arc::new(Obs::new()))
    }

    /// [`GroupCommitSet::spawn`] recording into a caller-owned [`Obs`]:
    /// every pipeline feeds the global drain/fsync/ack histograms plus
    /// its own `wal.drain.shard<k>` / `wal.fsync.shard<k>` lane.
    pub fn spawn_obs(
        set: &WalSet,
        cfg: GroupCommitConfig,
        obs: Arc<Obs>,
    ) -> Result<GroupCommitSet> {
        let mut pipes = Vec::with_capacity(set.shard_count());
        for k in 0..set.shard_count() {
            pipes.push(GroupCommit::spawn(
                set.shard(k).clone(),
                k,
                cfg.clone(),
                obs.clone(),
            )?);
        }
        Ok(GroupCommitSet { pipes })
    }

    /// Enqueue `records` on shard `shard`'s pipeline without waiting.
    /// The caller picks the shard ([`WalSet::shard_for`] keeps one
    /// transaction's records on one shard).
    pub fn submit(&self, shard: usize, records: Vec<LogRecord>) -> Result<CommitTicket> {
        self.pipes[shard % self.pipes.len()].submit(records)
    }

    /// Durably commit `records` on shard `shard`'s pipeline.
    pub fn commit(&self, shard: usize, records: Vec<LogRecord>) -> Result<Lsn> {
        self.submit(shard, records)?.wait()
    }

    /// Counters aggregated across every pipeline — the cross-shard
    /// totals `metrics::wal_stats` reports.
    pub fn stats(&self) -> GroupCommitStats {
        let mut total = GroupCommitStats::default();
        for pipe in &self.pipes {
            total.merge(&pipe.stats());
        }
        total
    }

    /// One counter snapshot per shard pipeline, indexed by shard.
    pub fn pipe_stats(&self) -> Vec<GroupCommitStats> {
        self.pipes.iter().map(GroupCommit::stats).collect()
    }

    /// Stop every pipeline (draining each) and return the aggregated
    /// final counters.
    pub fn stop(self) -> GroupCommitStats {
        let mut total = GroupCommitStats::default();
        for pipe in self.pipes {
            total.merge(&pipe.stop());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Payload;
    use crate::segment::SegmentConfig;
    use instant_common::{TableId, Timestamp, TupleId, TxId};

    fn batch(tx: u64) -> Vec<LogRecord> {
        let at = Timestamp::micros(tx);
        vec![
            LogRecord::Begin { tx: TxId(tx), at },
            LogRecord::Insert {
                tx: TxId(tx),
                table: TableId(1),
                tid: TupleId::new(1, tx as u16),
                row: Payload::Plain(format!("row-{tx}").into_bytes()),
                at,
            },
            LogRecord::Commit { tx: TxId(tx), at },
        ]
    }

    /// A pipeline over a lone log: shard 0 of a set of one.
    fn spawn_lone(wal: Arc<Wal>, cfg: GroupCommitConfig) -> GroupCommit {
        GroupCommit::spawn(wal, 0, cfg, Arc::new(Obs::new())).unwrap()
    }

    #[test]
    fn single_commit_returns_first_lsn_and_is_durable() {
        let wal = Arc::new(Wal::temp("gc1").unwrap());
        let gc = spawn_lone(wal.clone(), GroupCommitConfig::default());
        assert_eq!(gc.commit(batch(0)).unwrap(), 0);
        assert_eq!(gc.commit(batch(1)).unwrap(), 3);
        let stats = gc.stop();
        assert_eq!(stats.commits, 2);
        assert_eq!(stats.records, 6);
        assert_eq!(wal.iterate().unwrap().len(), 6);
        // Both epochs synced before acknowledging.
        let (_, syncs) = wal.counters();
        assert_eq!(syncs, stats.batches);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let wal = Arc::new(Wal::temp("gc2").unwrap());
        let gc = spawn_lone(wal.clone(), GroupCommitConfig::default());
        assert_eq!(gc.commit(Vec::new()).unwrap(), 0);
        assert_eq!(gc.stop().commits, 0);
        assert!(wal.iterate().unwrap().is_empty());
    }

    #[test]
    fn commit_after_stop_errors() {
        let wal = Arc::new(Wal::temp("gc3").unwrap());
        let mut gc = spawn_lone(wal.clone(), GroupCommitConfig::default());
        gc.shutdown();
        assert!(gc.commit(batch(0)).is_err());
    }

    #[test]
    fn stop_signal_interrupts_linger_and_drains_pending() {
        // A huge max_delay must not stall shutdown or strand the pending
        // committer: stop notifies the same condvar the linger waits on,
        // and the writer drains everything enqueued before exiting.
        let wal = Arc::new(Wal::temp("gc4").unwrap());
        let gc = spawn_lone(
            wal.clone(),
            GroupCommitConfig {
                max_batch: 1024,
                max_delay: StdDuration::from_secs(30),
            },
        );
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            let gcr = &gc;
            let committer = s.spawn(move || gcr.commit(batch(7)));
            let deadline = start + StdDuration::from_secs(10);
            while gc.shared.queue.lock().pending.is_empty() && std::time::Instant::now() < deadline
            {
                std::thread::yield_now();
            }
            gc.shared.queue.lock().stopping = true;
            gc.shared.work.notify_all();
            committer.join().unwrap().unwrap();
        });
        assert!(
            start.elapsed() < StdDuration::from_secs(10),
            "stop must interrupt the linger wait"
        );
        assert_eq!(wal.iterate().unwrap().len(), 3);
    }

    #[test]
    fn drain_fsync_and_ack_latencies_are_recorded() {
        let wal = Arc::new(Wal::temp("gc6").unwrap());
        let obs = Arc::new(Obs::new());
        let gc = GroupCommit::spawn(wal, 0, GroupCommitConfig::default(), obs.clone()).unwrap();
        gc.commit(batch(0)).unwrap();
        gc.commit(batch(1)).unwrap();
        let stats = gc.stop();
        let drain = obs.wal_drain.snapshot();
        let fsync = obs.wal_fsync.snapshot();
        let ack = obs.commit_ack.snapshot();
        assert_eq!(drain.count, stats.batches, "one drain sample per epoch");
        assert_eq!(fsync.count, stats.batches, "one fsync sample per epoch");
        assert_eq!(ack.count, stats.commits, "one ack sample per commit");
        // A drain contains its fsync, an ack spans at least its epoch's
        // append+fsync work — the p100s must order accordingly.
        assert!(drain.max_micros >= fsync.max_micros);
        assert!(ack.sum_micros >= fsync.sum_micros / stats.batches.max(1));
    }

    #[test]
    fn concurrent_arrivals_fold_into_fewer_drains() {
        let wal = Arc::new(Wal::temp("gc5").unwrap());
        let gc = spawn_lone(
            wal.clone(),
            GroupCommitConfig {
                max_batch: 1024,
                max_delay: StdDuration::from_millis(500),
            },
        );
        std::thread::scope(|s| {
            for tx in 0..4u64 {
                let gcr = &gc;
                s.spawn(move || gcr.commit(batch(tx)).unwrap());
            }
        });
        let stats = gc.stop();
        assert_eq!(stats.commits, 4);
        assert!(
            stats.batches < stats.commits,
            "lingering drain must fold concurrent committers: {stats:?}"
        );
        assert_eq!(wal.iterate().unwrap().len(), 12);
    }

    #[test]
    fn try_poll_sees_durability_without_consuming_the_ticket() {
        let wal = Arc::new(Wal::temp("gc7").unwrap());
        let gc = spawn_lone(wal, GroupCommitConfig::default());
        let ticket = gc.submit(batch(0)).unwrap();
        // Poll until the epoch lands; a pipeline that never completes
        // would hang this loop, not pass it.
        let lsn = loop {
            match ticket.try_poll() {
                Some(res) => break res.unwrap(),
                None => std::thread::yield_now(),
            }
        };
        assert_eq!(lsn, 0);
        // Durable tickets stay pollable (and consistent) until consumed.
        assert_eq!(ticket.try_poll().unwrap().unwrap(), 0);
        assert_eq!(ticket.wait().unwrap(), 0);
    }

    #[test]
    fn sharded_pipelines_merge_back_in_global_lsn_order() {
        let set = WalSet::temp_with("gcs1", 4, SegmentConfig::default()).unwrap();
        let gcs = GroupCommitSet::spawn(&set, GroupCommitConfig::default()).unwrap();
        std::thread::scope(|s| {
            for tx in 0..32u64 {
                let gcs = &gcs;
                let set = &set;
                s.spawn(move || {
                    let shard = set.shard_for(Some(TxId(tx)));
                    gcs.commit(shard, batch(tx)).unwrap();
                });
            }
        });
        let stats = gcs.stop();
        assert_eq!(stats.commits, 32);
        assert_eq!(stats.records, 96);
        let merged = set.iterate().unwrap();
        assert_eq!(merged.len(), 96, "every record survives the k-way merge");
        for pair in merged.windows(2) {
            assert!(pair[0].0 < pair[1].0, "merge is strictly LSN-ordered");
        }
        // Each transaction's batch stayed contiguous on its shard: its
        // Begin/Insert/Commit carry consecutive LSNs.
        let mut by_tx = std::collections::BTreeMap::<u64, Vec<Lsn>>::new();
        for (lsn, rec) in &merged {
            if let Some(tx) = rec.tx() {
                by_tx.entry(tx.0).or_default().push(*lsn);
            }
        }
        assert_eq!(by_tx.len(), 32);
        for (tx, lsns) in by_tx {
            assert_eq!(lsns.len(), 3, "tx {tx} kept all three records");
            assert_eq!(lsns[2] - lsns[0], 2, "tx {tx} batch stayed contiguous");
        }
    }

    #[test]
    fn sharded_stats_aggregate_and_split_per_pipe() {
        let set = WalSet::temp_with("gcs2", 2, SegmentConfig::default()).unwrap();
        let obs = Arc::new(Obs::new());
        let gcs =
            GroupCommitSet::spawn_obs(&set, GroupCommitConfig::default(), obs.clone()).unwrap();
        // Route txs so both shards see work: tx 0, 2 → shard 0; tx 1 →
        // shard 1.
        for tx in 0..3u64 {
            let shard = set.shard_for(Some(TxId(tx)));
            gcs.commit(shard, batch(tx)).unwrap();
        }
        let per_pipe = gcs.pipe_stats();
        assert_eq!(per_pipe.len(), 2);
        assert_eq!(per_pipe[0].commits, 2);
        assert_eq!(per_pipe[1].commits, 1);
        let total = gcs.stats();
        assert_eq!(total.commits, 3);
        assert_eq!(total.records, 9);
        assert_eq!(
            total.batches,
            per_pipe[0].batches + per_pipe[1].batches,
            "aggregate sums every pipeline, not shard 0 only"
        );
        drop(gcs);
        // Both shards' obs lanes saw their epochs.
        let snap = obs.snapshot();
        assert_eq!(
            snap.hist("wal.fsync.shard0").map(|h| h.count),
            Some(per_pipe[0].batches)
        );
        assert_eq!(
            snap.hist("wal.fsync.shard1").map(|h| h.count),
            Some(per_pipe[1].batches)
        );
        assert_eq!(
            snap.hist("wal.fsync").map(|h| h.count),
            Some(total.batches),
            "global histogram is the union of the lanes"
        );
    }
}
