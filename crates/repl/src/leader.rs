//! Leader side: accept followers, ship sealed WAL segments, hold
//! retention.
//!
//! One [`ReplListener`] serves any number of followers. Each accepted
//! connection gets its own [`SegmentShipper`] daemon (on
//! [`DaemonCore`] scaffolding) running the lock-step SEGS tick:
//!
//! 1. rotate any shard whose active segment holds records — sealed
//!    files are the only shipping unit, so a low-traffic shard must not
//!    strand its tail in an active segment forever (rotation fsyncs the
//!    file before sealing it, which is what makes step 2 safe);
//! 2. for every shard, stream each sealed segment whose per-shard end
//!    LSN lies beyond the follower's durable frontier — whole file,
//!    verbatim, WSEG header included (a leader restart can re-activate
//!    and *extend* its last sealed file, so the same seqno may ship
//!    again longer; the follower keeps the longest copy);
//! 3. send one `Progress` barrier carrying the live per-shard end LSNs
//!    (doubling as the idle heartbeat that lets the follower prove a
//!    quiet shard is fully caught up);
//! 4. read exactly one `Ack` and advance this follower's **retention
//!    hold** to the minimum of its per-shard durable frontiers — from
//!    that moment on, checkpoint truncation may reclaim what this
//!    follower has fsynced, and nothing it hasn't.
//!
//! The hold is registered *before* the first sealed-segment listing
//! (see [`WalSet::truncate_before`]'s ordering note) and released by
//! the shipper's drop — follower disconnect, listener shutdown, or
//! daemon error all funnel through it, so a dead follower can never pin
//! the log. With [`ReplConfig::retain_from_start`] (the default) the
//! listener additionally pins everything from its own start, so a
//! follower that dials in later can still bootstrap from LSN 0.
//!
//! Lock rank 700 guards the follower registry; it is only ever taken in
//! the accept loop and shutdown (never inside a shipper tick, never
//! across I/O).

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use instant_common::{Error, Result};
use instant_core::{DaemonCore, Db};
use instant_server::protocol::{read_seg_frame, write_seg_frame, SegFrame, PROTOCOL_VERSION};
use instant_server::server::ddl_path;
use instant_wal::record::Lsn;
use instant_wal::segment;
use parking_lot::Mutex;

/// Leader-side replication tuning.
#[derive(Debug, Clone)]
pub struct ReplConfig {
    /// Bind address for followers; port 0 picks a free port.
    pub addr: String,
    /// Shipping tick: how often each follower's shipper wakes.
    pub tick: Duration,
    /// Largest SEGS frame accepted/emitted. Must exceed the engine's
    /// segment capacity or whole-file shipping cannot fit a frame.
    pub max_frame_bytes: u32,
    /// Pin the log from the listener's start so a follower dialing in
    /// later can bootstrap from the beginning. Without it only
    /// connected followers' acks gate truncation, and a fresh follower
    /// arriving after a checkpoint is refused nothing but sees a log
    /// whose prefix is gone (it would replay an incomplete state).
    pub retain_from_start: bool,
    /// Extra DDL statements prepended to the handshake's schema
    /// snapshot (before the on-disk DDL journal, if the engine has
    /// one). Library embedders use this; the binaries rely on the
    /// journal.
    pub ddl: Vec<String>,
    /// How long a freshly accepted follower gets to send its `Hello`,
    /// and how long the shipper waits for each tick's `Ack`.
    pub io_timeout: Duration,
}

impl Default for ReplConfig {
    fn default() -> Self {
        ReplConfig {
            addr: "127.0.0.1:0".into(),
            tick: Duration::from_millis(20),
            max_frame_bytes: 64 * 1024 * 1024,
            retain_from_start: true,
            ddl: Vec::new(),
            io_timeout: Duration::from_secs(10),
        }
    }
}

/// Lock-free counters behind the `repl` observability provider. Kept in
/// their own `Arc` so the provider closure captures no `Db` handle (a
/// provider living inside `Db::obs` must not own the `Db` it lives in).
#[derive(Default)]
struct ReplCounters {
    segments_shipped: AtomicU64,
    bytes_shipped: AtomicU64,
    acks: AtomicU64,
    followers: AtomicU64,
    handshakes: AtomicU64,
    rejected: AtomicU64,
}

struct Shared {
    db: Arc<Db>,
    cfg: ReplConfig,
    counters: Arc<ReplCounters>,
    followers: Mutex<Vec<FollowerSlot>>, // lock-rank: 700
}

/// One follower daemon slot: the `done` flag is raised by the shipper's
/// drop so the accept loop can reap exited daemons cheaply.
type FollowerSlot = (Arc<AtomicBool>, DaemonCore<SegmentShipper>);

/// The leader's replication listener. Dropping (or
/// [`shutdown`](ReplListener::shutdown)ing) it stops the accept loop,
/// joins every follower shipper, and releases all retention holds.
pub struct ReplListener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
    bootstrap_hold: Option<u64>,
}

impl ReplListener {
    /// Bind and start accepting followers of `db`.
    pub fn start(db: Arc<Db>, cfg: ReplConfig) -> Result<ReplListener> {
        let Some(wal) = db.wal() else {
            return Err(Error::Unsupported(
                "replication needs a WAL-backed engine (wal_mode off has nothing to ship)".into(),
            ));
        };
        let bootstrap_hold = cfg
            .retain_from_start
            .then(|| wal.register_retention_hold(wal.base_lsn()));
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let counters = Arc::new(ReplCounters::default());
        let provider_counters = Arc::clone(&counters);
        db.obs().register_provider("repl", move || {
            vec![
                (
                    "repl.segments_shipped".into(),
                    provider_counters.segments_shipped.load(Ordering::Relaxed),
                ),
                (
                    "repl.bytes_shipped".into(),
                    provider_counters.bytes_shipped.load(Ordering::Relaxed),
                ),
                (
                    "repl.acks".into(),
                    provider_counters.acks.load(Ordering::Relaxed),
                ),
                (
                    "repl.followers".into(),
                    provider_counters.followers.load(Ordering::Relaxed),
                ),
                (
                    "repl.handshakes".into(),
                    provider_counters.handshakes.load(Ordering::Relaxed),
                ),
                (
                    "repl.rejected".into(),
                    provider_counters.rejected.load(Ordering::Relaxed),
                ),
            ]
        });
        let shared = Arc::new(Shared {
            db,
            cfg,
            counters,
            followers: Mutex::ranked(700, Vec::new()),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("repl-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared, &stop))?
        };
        Ok(ReplListener {
            addr,
            stop,
            acceptor: Some(acceptor),
            shared,
            bootstrap_hold,
        })
    }

    /// The bound address followers dial.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Currently connected followers.
    pub fn followers(&self) -> u64 {
        self.shared.counters.followers.load(Ordering::Relaxed)
    }

    /// Total acks received across all followers.
    pub fn acks(&self) -> u64 {
        self.shared.counters.acks.load(Ordering::Relaxed)
    }

    /// Stop accepting, join every shipper, release every hold.
    pub fn shutdown(mut self) -> Result<()> {
        self.shutdown_inner();
        Ok(())
    }

    fn shutdown_inner(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.acceptor.take() {
            // Unblock accept() with a throwaway self-connection.
            let _ = TcpStream::connect(self.addr);
            let _ = h.join();
        }
        let drained: Vec<FollowerSlot> = {
            let mut followers = self.shared.followers.lock();
            followers.drain(..).collect()
        };
        for (_, core) in drained {
            // The shipper's socket read fails once its follower is gone;
            // a tick error here is the normal end of a connection, not a
            // shutdown failure.
            let _ = core.stop();
        }
        if let Some(id) = self.bootstrap_hold.take() {
            if let Some(wal) = self.shared.db.wal() {
                wal.release_retention_hold(id);
            }
        }
    }
}

impl Drop for ReplListener {
    fn drop(&mut self) {
        if self.acceptor.is_some() || self.bootstrap_hold.is_some() {
            self.shutdown_inner();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, stop: &AtomicBool) {
    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = stream else { continue };
        match handshake(shared, stream) {
            Ok(shipper) => {
                let done = Arc::clone(&shipper.done);
                let tick = shared.cfg.tick;
                match DaemonCore::spawn("segment-shipper", shipper, move |s| {
                    s.tick().map(|()| tick)
                }) {
                    Ok(core) => {
                        let mut slots = shared.followers.lock();
                        // Reap daemons whose connection already ended —
                        // joining a finished thread is immediate.
                        let mut live = Vec::with_capacity(slots.len() + 1);
                        for (flag, core) in slots.drain(..) {
                            if flag.load(Ordering::Acquire) {
                                let _ = core.stop();
                            } else {
                                live.push((flag, core));
                            }
                        }
                        live.push((done, core));
                        *slots = live;
                    }
                    Err(_) => {
                        shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Err(_) => {
                shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Validate a follower's `Hello`, register its retention hold (before
/// any segment listing — see `WalSet::truncate_before`), answer `Meta`
/// with the shard count, live end LSNs and the DDL snapshot.
fn handshake(shared: &Arc<Shared>, mut stream: TcpStream) -> Result<SegmentShipper> {
    stream.set_read_timeout(Some(shared.cfg.io_timeout))?;
    stream.set_nodelay(true)?;
    let hello = read_seg_frame(&mut stream, shared.cfg.max_frame_bytes)?
        .ok_or_else(|| Error::Corrupt("follower disconnected before Hello".into()))?;
    let SegFrame::Hello {
        version,
        shards,
        durable,
    } = hello
    else {
        return Err(Error::Corrupt(
            "expected Hello to open the SEGS stream".into(),
        ));
    };
    if version != PROTOCOL_VERSION {
        return Err(Error::Unsupported(format!(
            "replication protocol version {version} (leader speaks {PROTOCOL_VERSION})"
        )));
    }
    let wal = shared
        .db
        .wal()
        .ok_or_else(|| Error::Unsupported("engine lost its WAL".into()))?;
    let n = wal.shard_count();
    let shipped: Vec<Lsn> = if shards as usize == n && durable.len() == n {
        durable
    } else if shards == 0 {
        vec![0; n]
    } else {
        return Err(Error::Unsupported(format!(
            "follower has {shards} shards, leader has {n}: wipe the replica directory to resync"
        )));
    };
    let hold = wal.register_retention_hold(shipped.iter().copied().min().unwrap_or(0));
    let next_lsns: Vec<u64> = (0..n).map(|k| wal.shard(k).next_lsn()).collect();
    let mut ddl = shared.cfg.ddl.clone();
    if let Some(path) = &shared.db.config().path {
        if let Ok(journal) = std::fs::read_to_string(ddl_path(path)) {
            ddl.extend(
                journal
                    .lines()
                    .map(str::trim)
                    .filter(|l| !l.is_empty())
                    .map(String::from),
            );
        }
    }
    let meta = SegFrame::Meta {
        shards: n as u32,
        next_lsns,
        ddl,
    };
    if let Err(e) = write_seg_frame(&mut stream, &meta) {
        wal.release_retention_hold(hold);
        return Err(e);
    }
    shared.counters.handshakes.fetch_add(1, Ordering::Relaxed);
    shared.counters.followers.fetch_add(1, Ordering::Relaxed);
    Ok(SegmentShipper {
        shared: Arc::clone(shared),
        stream,
        shipped,
        hold,
        done: Arc::new(AtomicBool::new(false)),
    })
}

/// Per-follower shipping daemon state. One tick = rotate dirty actives,
/// stream unacked sealed segments, barrier, ack. Dropping the shipper
/// (graceful stop or tick error alike) releases its retention hold and
/// decrements the follower gauge.
pub struct SegmentShipper {
    shared: Arc<Shared>,
    stream: TcpStream,
    /// Per-shard durable frontier from the follower's last ack: the
    /// first LSN it has *not* fsynced yet on that shard.
    shipped: Vec<Lsn>,
    hold: u64,
    done: Arc<AtomicBool>,
}

impl SegmentShipper {
    /// One lock-step shipping tick. An `Err` ends the daemon (normal for
    /// a vanished follower); the drop impl cleans up either way.
    pub fn tick(&mut self) -> Result<()> {
        let db = Arc::clone(&self.shared.db);
        let wal = db
            .wal()
            .ok_or_else(|| Error::Unsupported("engine lost its WAL".into()))?;
        let n = wal.shard_count();
        if self.shipped.len() != n {
            return Err(Error::Corrupt(
                "shard count changed under a live follower".into(),
            ));
        }
        // Sealed files are the shipping unit: any shard whose active
        // segment holds records would otherwise strand its tail, so
        // rotate it into a sealed (fsynced) file first. Empty actives
        // no-op, so an idle leader creates no file churn.
        if (0..n).any(|k| wal.shard(k).next_lsn() > wal.sealed_end_lsn(k)) {
            wal.rotate_all()?;
        }
        let started = Instant::now();
        let mut sent_bytes = 0u64;
        for k in 0..n {
            let sealed = wal.sealed_segments(k);
            for (i, &(seqno, first_lsn, _len)) in sealed.iter().enumerate() {
                // A segment's records span [first_lsn, end) in this
                // shard's (jump-discontinuous) stream, where end is the
                // next sealed segment's first LSN — or the active
                // segment's first LSN for the newest sealed file.
                let end = match sealed.get(i + 1) {
                    Some(&(_, next_first, _)) => next_first,
                    None => wal.sealed_end_lsn(k),
                };
                if end <= self.shipped[k] {
                    continue; // follower already has all of it durable
                }
                let path = wal.shard(k).path().join(segment::file_name(seqno));
                let bytes = std::fs::read(&path)?;
                sent_bytes += bytes.len() as u64;
                self.shared
                    .counters
                    .segments_shipped
                    .fetch_add(1, Ordering::Relaxed);
                self.shared
                    .counters
                    .bytes_shipped
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                write_seg_frame(
                    &mut self.stream,
                    &SegFrame::Segment {
                        shard: k as u32,
                        seqno,
                        first_lsn,
                        bytes,
                    },
                )?;
            }
        }
        let next_lsns: Vec<u64> = (0..n).map(|k| wal.shard(k).next_lsn()).collect();
        write_seg_frame(&mut self.stream, &SegFrame::Progress { next_lsns })?;
        self.stream.flush()?;

        let ack = read_seg_frame(&mut self.stream, self.shared.cfg.max_frame_bytes)?
            .ok_or_else(|| Error::Corrupt("follower disconnected before Ack".into()))?;
        let SegFrame::Ack {
            durable,
            applied: _,
        } = ack
        else {
            return Err(Error::Corrupt("expected Ack to close the tick".into()));
        };
        if durable.len() != n {
            return Err(Error::Corrupt(format!(
                "ack covers {} shards, leader has {n}",
                durable.len()
            )));
        }
        self.shipped = durable;
        if let Some(floor) = self.shipped.iter().copied().min() {
            wal.update_retention_hold(self.hold, floor);
        }
        self.shared.counters.acks.fetch_add(1, Ordering::Relaxed);
        if sent_bytes > 0 {
            // Replication lag: how long this tick's shipped data took to
            // become durable-and-applied on the follower (ship → fsync →
            // replay → ack, measured leader-side).
            db.obs().repl_lag.record_duration(started.elapsed());
        }
        Ok(())
    }
}

impl Drop for SegmentShipper {
    fn drop(&mut self) {
        if let Some(wal) = self.shared.db.wal() {
            wal.release_retention_hold(self.hold);
        }
        self.shared
            .counters
            .followers
            .fetch_sub(1, Ordering::Relaxed);
        self.done.store(true, Ordering::Release);
    }
}

/// The leader binary's convenience bundle: where the engine's data
/// lives, if anywhere (the DDL journal next to it feeds handshakes).
pub fn data_ddl_journal(path: &std::path::Path) -> PathBuf {
    ddl_path(path)
}
