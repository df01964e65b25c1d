//! Follower side: receive sealed segments, fsync them into a local
//! `WalSet` layout, replay the stable prefix into a live read-only
//! engine.
//!
//! ## The stable barrier
//!
//! The follower may only apply ops from a prefix of the merged LSN
//! stream that can never change again. Two things could change it:
//!
//! * **a straggler record** — some shard's stream has a hole the leader
//!   hasn't shipped yet. Every record below the *raw barrier* (the
//!   minimum, over shards, of the first LSN not yet received — with a
//!   shard counted as `∞` once the leader's `Progress` heartbeat shows
//!   its copy is complete) is provably received: per-shard streams are
//!   LSN-monotone, so a shard holding an unseen record below LSN `b`
//!   would have its own frontier below `b`.
//! * **a transaction still open at the raw barrier** — its `Commit` (or
//!   the tail of its batch) is still in flight, and replaying around it
//!   now would diverge from replaying it later. A commit's records are
//!   appended as one contiguous batch on one shard, so an open
//!   transaction's records all sit at its shard's received tail; the
//!   barrier is *lowered* to the smallest begin-LSN among open
//!   transactions, excluding them wholly.
//!
//! Both bounds only ever move forward, so the sub-barrier record set is
//! grow-only and the op stream an uncut [`replay`] derives from it is
//! prefix-stable: a transaction that commits later can only contribute
//! ops at or above the barrier that once excluded it. That is exactly
//! the contract [`Db::replay_external_ops`]'s `applied_upto` frontier
//! needs.
//!
//! Replay passes no cut — not the last checkpoint a recovering leader
//! passes — because the leader's `Checkpoint` records describe *its*
//! heap, which the follower does not have; the follower's redo must
//! start from LSN 0 every round and rely on `applied_upto` to skip what
//! it already applied.
//!
//! ## Degraded replicas
//!
//! With [`DbConfig::replica_degrade_to`](instant_core::DbConfig) set,
//! the engine degrades every shipped image to at least that stage
//! before it touches the follower heap and re-verifies the floor
//! (`Error::Policy` otherwise). After each apply round the replica
//! shreds key windows older than the current one, so the sealed
//! payloads it re-reads on later rounds can never re-materialize
//! precise history: an already-applied op is skipped by its LSN, and a
//! late-committing straggler whose window key is gone surfaces as
//! `Op::Unrecoverable` — an expunge, erring toward *less* precision.
//!
//! [`replay`]: instant_wal::recovery::replay
//! [`Db::replay_external_ops`]: instant_core::Db::replay_external_ops

use std::collections::HashMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use instant_common::{Error, Result, TxId};
use instant_core::query::{schema_for_create, HierarchyRegistry};
use instant_core::{DaemonCore, Db, ReplicaApplyState};
use instant_server::protocol::{read_seg_frame, seg_hello, write_seg_frame, SegFrame};
use instant_wal::record::{LogRecord, Lsn};
use instant_wal::recovery;
use instant_wal::segment::{self, SegmentConfig};
use instant_wal::WalSet;
use parking_lot::Mutex;

/// Follower-side replication tuning.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// The leader's SEGS address.
    pub leader_addr: String,
    /// Where received segment files live — the replica's durability
    /// root. Restarting a replica on the same directory resumes from
    /// its per-shard durable frontiers instead of re-shipping the log.
    pub dir: PathBuf,
    /// Daemon tick: apply-round pacing while connected, reconnect
    /// backoff while not.
    pub tick: Duration,
    /// Largest SEGS frame accepted (must cover a whole segment file).
    pub max_frame_bytes: u32,
    /// Per-read socket timeout. The leader heartbeats every shipping
    /// tick, so a silent stretch this long means the leader is gone and
    /// the connection is re-dialed.
    pub io_timeout: Duration,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            leader_addr: "127.0.0.1:5434".into(),
            dir: PathBuf::from("replica-segments"),
            tick: Duration::from_millis(5),
            max_frame_bytes: 64 * 1024 * 1024,
            io_timeout: Duration::from_secs(1),
        }
    }
}

/// Point-in-time view of a replica's progress (tests, stats, CLIs).
#[derive(Debug, Clone, Default)]
pub struct ReplicaStatus {
    pub connected: bool,
    /// Per-shard first LSN not yet durable locally.
    pub durable: Vec<Lsn>,
    /// Merged LSN below which ops are applied to the serving engine.
    pub applied_upto: Lsn,
    /// Completed apply rounds (one per leader Progress barrier).
    pub rounds: u64,
    /// Re-dials after a lost/failed connection.
    pub reconnects: u64,
    pub last_error: Option<String>,
}

/// Lock-free scalars feed the obs provider; the variable-size detail
/// sits behind rank 710 and is only ever locked for a snapshot-copy —
/// never across I/O or WAL calls.
struct Progress {
    connected: AtomicU64,
    applied: AtomicU64,
    rounds: AtomicU64,
    reconnects: AtomicU64,
    detail: Mutex<ProgressDetail>, // lock-rank: 710
}

#[derive(Default)]
struct ProgressDetail {
    durable: Vec<Lsn>,
    last_error: Option<String>,
}

/// A running replication follower: one daemon dialing the leader,
/// landing segments, and replaying the stable prefix into `db`.
pub struct Replica {
    core: Option<DaemonCore<ReplicaState>>,
    progress: Arc<Progress>,
}

impl Replica {
    /// Start replicating into `db` (the caller's read-only serving
    /// engine; its `replica_degrade_to`, key seed and key window decide
    /// what the follower can materialize). `hierarchies` must register
    /// every domain hierarchy the leader's DDL references.
    pub fn start(
        db: Arc<Db>,
        hierarchies: HierarchyRegistry,
        cfg: ReplicaConfig,
    ) -> Result<Replica> {
        std::fs::create_dir_all(&cfg.dir)?;
        let progress = Arc::new(Progress {
            connected: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            detail: Mutex::ranked(710, ProgressDetail::default()),
        });
        let provider = Arc::clone(&progress);
        db.obs().register_provider("repl", move || {
            vec![
                (
                    "repl.applied_lsn".into(),
                    provider.applied.load(Ordering::Relaxed),
                ),
                (
                    "repl.rounds".into(),
                    provider.rounds.load(Ordering::Relaxed),
                ),
                (
                    "repl.connected".into(),
                    provider.connected.load(Ordering::Relaxed),
                ),
                (
                    "repl.reconnects".into(),
                    provider.reconnects.load(Ordering::Relaxed),
                ),
            ]
        });
        let state = ReplicaState {
            db,
            hierarchies,
            cfg: cfg.clone(),
            progress: Arc::clone(&progress),
            conn: None,
            apply: ReplicaApplyState::default(),
        };
        let tick = cfg.tick;
        let core = DaemonCore::spawn("replica-apply", state, move |s| {
            s.step();
            Ok(tick)
        })?;
        Ok(Replica {
            core: Some(core),
            progress,
        })
    }

    /// Current progress snapshot.
    pub fn status(&self) -> ReplicaStatus {
        let detail = self.progress.detail.lock();
        ReplicaStatus {
            connected: self.progress.connected.load(Ordering::Relaxed) != 0,
            durable: detail.durable.clone(),
            applied_upto: self.progress.applied.load(Ordering::Relaxed),
            rounds: self.progress.rounds.load(Ordering::Relaxed),
            reconnects: self.progress.reconnects.load(Ordering::Relaxed),
            last_error: detail.last_error.clone(),
        }
    }

    /// Stop the apply daemon and return the final status.
    pub fn stop(mut self) -> Result<ReplicaStatus> {
        if let Some(core) = self.core.take() {
            core.stop()?;
        }
        Ok(self.status())
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        if let Some(core) = self.core.take() {
            let _ = core.stop();
        }
    }
}

struct Conn {
    stream: TcpStream,
    shards: usize,
}

struct ReplicaState {
    db: Arc<Db>,
    hierarchies: HierarchyRegistry,
    cfg: ReplicaConfig,
    progress: Arc<Progress>,
    conn: Option<Conn>,
    apply: ReplicaApplyState,
}

impl ReplicaState {
    /// One daemon step: dial if disconnected, otherwise run one
    /// receive-replay-ack round. Errors are recorded and turn into a
    /// reconnect on the next tick — the daemon itself never dies to a
    /// flaky network.
    fn step(&mut self) {
        if self.conn.is_none() {
            match self.connect() {
                Ok(conn) => {
                    self.conn = Some(conn);
                    self.progress.connected.store(1, Ordering::Relaxed);
                }
                Err(e) => {
                    self.note_error(e);
                    return;
                }
            }
        }
        if let Err(e) = self.round() {
            self.note_error(e);
            self.conn = None;
            self.progress.connected.store(0, Ordering::Relaxed);
            self.progress.reconnects.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn note_error(&self, e: Error) {
        self.progress.detail.lock().last_error = Some(e.to_string());
    }

    /// Dial the leader, exchange Hello/Meta, lay out shard directories
    /// and replay the DDL snapshot into the local catalog.
    fn connect(&mut self) -> Result<Conn> {
        let (local_shards, durable) = scan_local_layout(&self.cfg.dir)?;
        let mut stream = TcpStream::connect(&self.cfg.leader_addr)?;
        stream.set_read_timeout(Some(self.cfg.io_timeout))?;
        stream.set_nodelay(true)?;
        write_seg_frame(&mut stream, &seg_hello(local_shards as u32, durable))?;
        let meta = read_seg_frame(&mut stream, self.cfg.max_frame_bytes)?
            .ok_or_else(|| Error::Corrupt("leader closed during handshake".into()))?;
        let SegFrame::Meta {
            shards,
            next_lsns: _,
            ddl,
        } = meta
        else {
            return Err(Error::Corrupt("expected Meta to answer Hello".into()));
        };
        let shards = shards as usize;
        if shards == 0 {
            return Err(Error::Corrupt("leader advertised zero shards".into()));
        }
        if local_shards != 0 && local_shards != shards {
            return Err(Error::Unsupported(format!(
                "local layout has {local_shards} shards, leader has {shards}: \
                 wipe the replica directory to resync"
            )));
        }
        for k in 0..shards {
            std::fs::create_dir_all(self.cfg.dir.join(shard_dir_name(k)))?;
        }
        // DDL replays in creation order so table ids line up with the
        // leader's; statements for tables we already have are skipped
        // (every reconnect re-sends the full snapshot).
        for stmt in &ddl {
            let schema = schema_for_create(&self.hierarchies, stmt)?;
            if self.db.catalog().get(&schema.name).is_err() {
                self.db.create_table(schema)?;
            }
        }
        Ok(Conn { stream, shards })
    }

    /// One lock-step round: land segments until the leader's Progress
    /// barrier, fsync them, replay the stable prefix, ack.
    fn round(&mut self) -> Result<()> {
        let conn = self.conn.as_mut().expect("round() only runs connected"); // step() establishes the connection first
        let leader_next = loop {
            let frame = read_seg_frame(&mut conn.stream, self.cfg.max_frame_bytes)?
                .ok_or_else(|| Error::Corrupt("leader disconnected mid-round".into()))?;
            match frame {
                SegFrame::Segment {
                    shard,
                    seqno,
                    first_lsn: _,
                    bytes,
                } => {
                    let shard = shard as usize;
                    if shard >= conn.shards {
                        return Err(Error::Corrupt(format!(
                            "segment for shard {shard} of {}",
                            conn.shards
                        )));
                    }
                    store_segment(&self.cfg.dir.join(shard_dir_name(shard)), seqno, &bytes)?;
                }
                SegFrame::Progress { next_lsns } => break next_lsns,
                other => {
                    return Err(Error::Corrupt(format!(
                        "unexpected frame mid-round: {other:?}"
                    )))
                }
            }
        };
        if leader_next.len() != conn.shards {
            return Err(Error::Corrupt("progress shard count mismatch".into()));
        }

        // Re-open the received layout (cheap scan; received files are
        // whole, fsynced sealed segments, so the open-time validation is
        // a no-op pass) and pull the merged record stream.
        let set = WalSet::open_with(&self.cfg.dir, conn.shards, SegmentConfig::default())?;
        let durable: Vec<Lsn> = (0..conn.shards).map(|k| set.shard(k).next_lsn()).collect();
        let merged = set.iterate()?;
        drop(set);

        let barrier = stable_barrier(&merged, &durable, &leader_next);
        let below: Vec<(Lsn, LogRecord)> = merged
            .into_iter()
            .filter(|(lsn, _)| *lsn < barrier)
            .collect();
        let plan = recovery::replay(&below, None, self.db.keystore());
        self.db.replay_external_ops(&plan.ops, &mut self.apply)?;
        if self.db.config().replica_degrade_to.is_some() {
            // Degraded replica: derived window keys served their one
            // purpose (decoding images that were immediately degraded);
            // shredding everything before the current window keeps the
            // precise history unmaterializable on this host.
            self.db.keystore().shred_before(self.db.now());
        }

        self.progress
            .applied
            .store(self.apply.applied_upto, Ordering::Relaxed);
        self.progress.rounds.fetch_add(1, Ordering::Relaxed);
        {
            let mut detail = self.progress.detail.lock();
            detail.durable = durable.clone();
            detail.last_error = None;
        }

        write_seg_frame(
            &mut conn.stream,
            &SegFrame::Ack {
                durable,
                applied: self.apply.applied_upto,
            },
        )?;
        conn.stream.flush()?;
        Ok(())
    }
}

/// Raw barrier (minimum un-received LSN over shards, `∞` for shards the
/// heartbeat proves complete), then lowered below any transaction still
/// open there — see the module docs for why the result is a stable,
/// monotone prefix bound. Public for the crate's property tests, which
/// drive it with arbitrary durable frontiers.
pub fn stable_barrier(merged: &[(Lsn, LogRecord)], durable: &[Lsn], leader_next: &[Lsn]) -> Lsn {
    let mut raw = Lsn::MAX;
    for (k, &d) in durable.iter().enumerate() {
        if d < leader_next[k] {
            raw = raw.min(d);
        }
    }
    let mut open: HashMap<TxId, Lsn> = HashMap::new();
    for (lsn, rec) in merged.iter().take_while(|(lsn, _)| *lsn < raw) {
        match rec {
            LogRecord::Commit { tx, .. } | LogRecord::Abort { tx, .. } => {
                open.remove(tx);
            }
            _ => {
                if let Some(tx) = rec.tx() {
                    open.entry(tx).or_insert(*lsn);
                }
            }
        }
    }
    // An open transaction only holds the barrier down while its shard
    // (`tx % n` — the leader appends a whole commit batch to one shard)
    // is still behind the leader: the missing Commit may be in flight.
    // On a shard the heartbeat proves complete, a dangling tx is one the
    // leader's own recovery rolled back after a torn tail — its Commit
    // can never arrive, and waiting for it would stall replay forever.
    let n = durable.len() as u64;
    open.retain(|tx, _| {
        let k = (tx.0 % n) as usize;
        durable[k] < leader_next[k]
    });
    open.values().copied().min().unwrap_or(raw).min(raw)
}

/// `shard-<k>` directory name, zero-padded like the leader's layout.
fn shard_dir_name(k: usize) -> String {
    format!("shard-{k:03}")
}

/// Count `shard-*` directories and compute each shard's durable
/// frontier (the contiguous received chain's end LSN) by opening the
/// layout read-style. A directory with no shard dirs is a fresh replica
/// (`(0, [])` — the leader's Meta dictates the layout).
fn scan_local_layout(dir: &Path) -> Result<(usize, Vec<Lsn>)> {
    let mut count = 0usize;
    if dir.is_dir() {
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(rest) = entry
                .file_name()
                .to_str()
                .and_then(|n| n.strip_prefix("shard-"))
            {
                if !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()) {
                    if let Ok(k) = rest.parse::<usize>() {
                        count = count.max(k + 1);
                    }
                }
            }
        }
    }
    if count == 0 {
        return Ok((0, Vec::new()));
    }
    let set = WalSet::open_with(dir, count, SegmentConfig::default())?;
    let durable = (0..count).map(|k| set.shard(k).next_lsn()).collect();
    Ok((count, durable))
}

/// Land one whole received segment file durably: temp file, fsync,
/// rename over, directory fsync. A shorter local copy of the same seqno
/// (the leader re-sealed it longer after a restart, or re-shipped after
/// our partial receive) is replaced; an equal-or-longer copy wins and
/// the incoming bytes are dropped — segment content is append-only, so
/// longest is always the superset.
fn store_segment(shard_dir: &Path, seqno: u64, bytes: &[u8]) -> Result<()> {
    let path = shard_dir.join(segment::file_name(seqno));
    if let Ok(meta) = std::fs::metadata(&path) {
        if meta.len() >= bytes.len() as u64 {
            return Ok(());
        }
    }
    let tmp = shard_dir.join(format!("{}.tmp", segment::file_name(seqno)));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &path)?;
    segment::sync_dir(shard_dir)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use instant_common::{TableId, Timestamp, TupleId};
    use instant_wal::record::Payload;

    fn rec(tx: u64, i: u64) -> LogRecord {
        LogRecord::Insert {
            tx: TxId(tx),
            table: TableId(1),
            tid: TupleId::new(1, i as u16),
            row: Payload::Plain(vec![7; 4]),
            at: Timestamp::micros(i),
        }
    }

    fn commit(tx: u64) -> LogRecord {
        LogRecord::Commit {
            tx: TxId(tx),
            at: Timestamp::ZERO,
        }
    }

    #[test]
    fn barrier_is_min_unreceived_with_idle_shards_infinite() {
        let merged = vec![(0, rec(1, 0)), (1, commit(1))];
        // Shard 0 received through 2, leader at 5: barrier 2. Shard 1
        // fully caught up (3 == 3): contributes nothing.
        assert_eq!(stable_barrier(&merged, &[2, 3], &[5, 3]), 2);
        // Both caught up: everything received is stable.
        assert_eq!(stable_barrier(&merged, &[5, 3], &[5, 3]), Lsn::MAX);
    }

    #[test]
    fn barrier_lowers_below_an_open_transaction() {
        // Tx 9 began at LSN 3 with no commit below the raw barrier (6):
        // the stable prefix must exclude it wholly.
        let merged = vec![
            (0, rec(1, 0)),
            (1, commit(1)),
            (3, rec(9, 1)),
            (4, rec(9, 2)),
        ];
        assert_eq!(stable_barrier(&merged, &[6], &[9]), 3);
        // Once its commit lands below the raw barrier the lowering ends.
        let merged = vec![
            (0, rec(1, 0)),
            (1, commit(1)),
            (3, rec(9, 1)),
            (4, rec(9, 2)),
            (5, commit(9)),
        ];
        assert_eq!(stable_barrier(&merged, &[6], &[9]), 6);
    }

    #[test]
    fn barrier_ignores_rolled_back_tx_on_a_complete_shard() {
        // Tx 9's commit was torn off the leader's log and trimmed by its
        // recovery; the shard's stream is complete (6 == 6), so the
        // dangling records must not pin the barrier forever.
        let merged = vec![
            (0, rec(1, 0)),
            (1, commit(1)),
            (3, rec(9, 1)),
            (4, rec(9, 2)),
        ];
        assert_eq!(stable_barrier(&merged, &[6], &[6]), Lsn::MAX);
        // Two shards, tx 9 (odd) lives on shard 1: complete shard 1 with
        // behind shard 0 still yields shard 0's frontier, not tx 9's.
        assert_eq!(stable_barrier(&merged, &[2, 6], &[5, 6]), 2);
    }

    #[test]
    fn stored_segments_keep_the_longest_copy() {
        let dir = std::env::temp_dir().join(format!(
            "instantdb-repl-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        store_segment(&dir, 3, b"WSEG-short").unwrap();
        store_segment(&dir, 3, b"WSEG-short-then-longer").unwrap();
        // A shorter re-ship (impossible from a correct leader, but the
        // property is what makes re-ships safe at all) is ignored.
        store_segment(&dir, 3, b"WSEG").unwrap();
        let on_disk = std::fs::read(dir.join(segment::file_name(3))).unwrap();
        assert_eq!(on_disk, b"WSEG-short-then-longer");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
