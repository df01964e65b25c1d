//! The server: acceptor, one thread per connection, admission control,
//! graceful shutdown.
//!
//! Thread shape:
//!
//! * **acceptor** — one thread on the listener. The admission gate: past
//!   `max_connections` live connections a new client gets one typed
//!   `ServerBusy` error frame and an immediate close; the accept loop
//!   itself never blocks on engine work.
//! * **one thread per connection** (bounded by `max_connections`) —
//!   performs the versioned handshake, then reads a frame, executes it on
//!   the connection's own [`Session`] (reused across frames, so `DECLARE
//!   PURPOSE` state persists between queries) and writes the reply before
//!   it reads the next. Queries carry no correlation id, so a pipelining
//!   client pairs replies by order — which this loop gives by
//!   construction. A client that pipelines faster than its queries run is
//!   slowed by TCP flow control on its own socket; no other connection
//!   notices. A client that vanished mid-query costs one failed write
//!   (`dropped_replies`).
//!
//! [`Server::shutdown`] tears down in dependency order: stop accepting,
//! close the read side of every connection and join their threads (a
//! query already read finishes and its commit is acknowledged), stop the
//! background daemons, and only then drop the [`Db`] — whose own drop
//! order drains the group-commit pipeline before the log handle closes,
//! so an acknowledged commit can never be lost to a graceful shutdown.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration as StdDuration;

use parking_lot::Mutex;

use instant_common::{Error, Result, SharedClock};
use instant_core::query::{schema_for_create, HierarchyRegistry, QueryOutput};
use instant_core::{Checkpointer, Db, DbConfig, DegradationDaemon, Session};
use instant_obs::Stage;

use crate::protocol::{self, Frame, PROTOCOL_VERSION};
use crate::stats::{ServerStats, StatsCells};

/// Network/admission tuning. The engine itself is configured by
/// [`DbConfig`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::local_addr`]).
    pub addr: String,
    /// The admission gate: connections past this are refused with
    /// `ServerBusy`.
    pub max_connections: usize,
    /// Largest accepted frame (`len` field), bytes.
    pub max_frame_bytes: u32,
    /// Spawn a [`DegradationDaemon`] — the served engine enforces timely
    /// degradation without any client's help. The interval is the longest
    /// the pump sleeps: it wakes at the next transition's due time, but no
    /// sooner than [`PUMP_FLOOR`](instant_core::PUMP_FLOOR) after its last
    /// batch.
    pub degrade_every: Option<StdDuration>,
    /// How long a freshly accepted connection gets to complete the
    /// `Hello` exchange before its slot is reclaimed. Without this, a
    /// client that connects and sends nothing would occupy a
    /// `max_connections` slot forever — the admission gate itself would
    /// be the denial-of-service vector.
    pub handshake_timeout: StdDuration,
    /// Per-syscall cap on reply writes. A client that stops reading
    /// (zero TCP window) fails its reply after this long instead of
    /// parking its connection thread forever; a slow-but-draining reader
    /// gets a fresh allowance per partial write and is unaffected.
    pub write_timeout: StdDuration,
    /// Slow-query threshold for the engine's slow-query log. Applied at
    /// start only when [`DbConfig::slow_query`] left the engine's own
    /// threshold unset; `None` here keeps whatever the engine has.
    pub slow_query: Option<StdDuration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: 64,
            max_frame_bytes: protocol::DEFAULT_MAX_FRAME_BYTES,
            degrade_every: None,
            handshake_timeout: StdDuration::from_secs(10),
            write_timeout: StdDuration::from_secs(30),
            slow_query: Some(StdDuration::from_millis(250)),
        }
    }
}

/// State shared by the acceptor and the connection threads.
struct Shared {
    db: Arc<Db>,
    hierarchies: HierarchyRegistry,
    cfg: ServerConfig,
    /// Shared with the obs "server" counter provider, which outlives any
    /// one `Server` over the same engine (re-registration replaces it).
    stats: Arc<StatsCells>,
    shutting_down: AtomicBool,
    next_conn_id: AtomicU64,
    /// In-flight courtesy-refusal threads (see [`refuse`]); bounded so a
    /// connection flood cannot turn the shed path itself into thread
    /// exhaustion.
    refusing: AtomicU64,
    /// Stream clones, for closing each connection's read side at shutdown.
    conns: Mutex<HashMap<u64, TcpStream>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// Append-only DDL journal (see [`open_or_recover`]); `None` for an
    /// ephemeral engine.
    ddl: Option<Mutex<std::fs::File>>,
}

/// A running InstantDB network front-end over an embedded [`Db`].
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    checkpointer: Option<Checkpointer>,
    degrader: Option<DegradationDaemon>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.local_addr)
            .field("stats", &self.shared.stats.snapshot())
            .finish()
    }
}

impl Server {
    /// Bind, spawn the acceptor (+ the background daemons the engine
    /// config arms), and return. `hierarchies` is shared by
    /// every connection's session — register domain trees here so remote
    /// `CREATE TABLE … DEGRADE USING <name>` can resolve them.
    pub fn start(db: Arc<Db>, hierarchies: HierarchyRegistry, cfg: ServerConfig) -> Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let ddl = match &db.config().path {
            Some(p) => Some(Mutex::ranked(
                100,
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(ddl_path(p))?,
            )),
            None => None,
        };
        let checkpointer = Checkpointer::spawn_from_config(&db)?;
        let degrader = cfg
            .degrade_every
            .map(|every| DegradationDaemon::spawn(db.clone(), every))
            .transpose()?;
        let shared = Arc::new(Shared {
            db,
            hierarchies,
            cfg,
            stats: Arc::new(StatsCells::default()),
            shutting_down: AtomicBool::new(false),
            next_conn_id: AtomicU64::new(1),
            refusing: AtomicU64::new(0),
            conns: Mutex::ranked(120, HashMap::new()),
            readers: Mutex::ranked(110, Vec::new()),
            ddl,
        });
        // Served engines run with tracing spans on: the query/commit
        // stage histograms behind `SHOW STATS` are the point of serving.
        // (Embedded engines leave them off — zero cost unless opted in.)
        shared.db.obs().set_spans_enabled(true);
        // Arm the slow-query log unless the engine config already chose.
        if shared.db.config().slow_query.is_none() {
            if let Some(threshold) = shared.cfg.slow_query {
                shared.db.obs().set_slow_query_threshold(Some(threshold));
            }
        }
        // Fold the network counters into the engine's stats snapshot so
        // `SHOW STATS` is the whole story (engine + serving layer).
        {
            let cells = shared.stats.clone();
            shared.db.obs().register_provider("server", move || {
                let s = cells.snapshot();
                vec![
                    ("connections_accepted".into(), s.connections_accepted),
                    ("connections_active".into(), s.connections_active),
                    ("connections_shed".into(), s.connections_shed),
                    ("frames".into(), s.frames),
                    ("queries".into(), s.queries),
                    ("query_errors".into(), s.query_errors),
                    ("pings".into(), s.pings),
                    ("protocol_errors".into(), s.protocol_errors),
                    ("dropped_replies".into(), s.dropped_replies),
                ]
            });
        }
        // Thread spawns can fail under resource pressure; a server that
        // cannot field its acceptor must report that, not panic half-built.
        let acceptor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("idb-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            checkpointer,
            degrader,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The engine behind the server.
    pub fn db(&self) -> &Arc<Db> {
        &self.shared.db
    }

    /// Snapshot the server counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot()
    }

    /// Graceful shutdown — see the module docs for the ordering. Errors
    /// from the background daemons' final ticks are returned (first one
    /// wins) after the teardown completes either way.
    pub fn shutdown(mut self) -> Result<()> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> Result<()> {
        // 1. Stop accepting: flag + a self-connection to unblock accept().
        self.shared.shutting_down.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // 2. Close every connection's read side and join its thread. A
        //    query already read runs to the end and its reply (the commit
        //    acknowledgment) is written; the next read sees end-of-stream.
        for stream in self.shared.conns.lock().values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for h in std::mem::take(&mut *self.shared.readers.lock()) {
            let _ = h.join();
        }
        // 3. Background daemons: final drain tick, then join.
        let mut first_err = None;
        if let Some(d) = self.degrader.take() {
            if let Err(e) = d.stop() {
                first_err.get_or_insert(e);
            }
        }
        if let Some(c) = self.checkpointer.take() {
            if let Err(e) = c.stop() {
                first_err.get_or_insert(e);
            }
        }
        // 4. The Db (and with it the group-commit pipeline, drained by
        //    its drop order) goes down with the last Arc — the caller may
        //    still hold one for post-shutdown inspection.
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            // Best-effort: a shutdown error has no caller left to report to.
            let _ = self.shutdown_inner();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let Ok((stream, _peer)) = listener.accept() else {
            // Listener failure: without accept there is no server; exit
            // (shutdown also lands here after its wake-up connect).
            return;
        };
        if shared.shutting_down.load(Ordering::Acquire) {
            return;
        }
        // Reap finished readers so the handle list tracks live
        // connections rather than growing for the server's lifetime.
        shared.readers.lock().retain(|h| !h.is_finished());
        let active = shared.stats.active.load(Ordering::Relaxed);
        if active as usize >= shared.cfg.max_connections {
            shared.stats.add(|s| &s.shed_connections);
            // Detached: the refusal reads the client's handshake first
            // (so the close is a clean FIN, not an RST racing the typed
            // error off the wire), and that read must never be allowed
            // to stall the accept loop. Courtesy threads are themselves
            // bounded — past the cap a flood gets a bare close, so the
            // shed path can never become the thread-exhaustion vector.
            const MAX_REFUSING: u64 = 32;
            if shared.refusing.fetch_add(1, Ordering::AcqRel) >= MAX_REFUSING {
                shared.refusing.fetch_sub(1, Ordering::AcqRel);
                drop(stream);
                continue;
            }
            let shared2 = shared.clone();
            let spawned = std::thread::Builder::new()
                .name("idb-refuse".into())
                .spawn(move || {
                    refuse(stream);
                    shared2.refusing.fetch_sub(1, Ordering::AcqRel);
                });
            if spawned.is_err() {
                shared.refusing.fetch_sub(1, Ordering::AcqRel);
            }
            continue;
        }
        shared.stats.add(|s| &s.accepted);
        shared.stats.active.fetch_add(1, Ordering::Relaxed);
        let id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().insert(id, clone);
        }
        let shared2 = shared.clone();
        let reader = std::thread::Builder::new()
            .name(format!("idb-conn-{id}"))
            .spawn(move || {
                reader_loop(stream, &shared2);
                shared2.conns.lock().remove(&id);
                shared2.stats.active.fetch_sub(1, Ordering::Relaxed);
            });
        match reader {
            Ok(h) => shared.readers.lock().push(h),
            Err(_) => {
                // Thread pressure: give the slot back and drop the
                // connection (the closure — and the stream it owns —
                // was returned and dropped). Panicking here would kill
                // the acceptor and leave a half-dead server.
                shared.conns.lock().remove(&id);
                shared.stats.active.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// Refuse a connection at the gate with one typed error frame. Runs on a
/// throwaway thread with bounded timeouts; the client's handshake frame
/// is consumed first so the refusal arrives as data + FIN rather than
/// being destroyed by an RST for unread input.
fn refuse(mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(StdDuration::from_secs(1)));
    let _ = stream.set_write_timeout(Some(StdDuration::from_secs(1)));
    // Best-effort: the socket is being dropped and the peer may already be
    // gone.
    let _ = protocol::read_frame(&mut stream, protocol::DEFAULT_MAX_FRAME_BYTES);
    let _ = protocol::write_frame(
        &mut stream,
        &Frame::error(&Error::ServerBusy("connection limit reached".into())),
    );
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

fn reader_loop(mut stream: TcpStream, shared: &Arc<Shared>) {
    // Replies to a client that stopped reading fail after `write_timeout`
    // per syscall instead of parking this thread forever.
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    // The handshake read is deadlined — a connect-and-say-nothing client
    // must not hold a max_connections slot indefinitely…
    let _ = stream.set_read_timeout(Some(shared.cfg.handshake_timeout));
    // Handshake first: magic + matching version, or one error and out.
    match protocol::read_frame(&mut stream, shared.cfg.max_frame_bytes) {
        Ok(Some(Frame::Hello { version, .. })) if version == PROTOCOL_VERSION => {
            let hello = Frame::Hello {
                version: PROTOCOL_VERSION,
                banner: format!("instantdb-server/{}", env!("CARGO_PKG_VERSION")),
            };
            if protocol::write_frame(&mut stream, &hello).is_err() {
                return;
            }
        }
        Ok(Some(Frame::Hello { version, .. })) => {
            shared.stats.add(|s| &s.protocol_errors);
            send_raw(
                &mut stream,
                &Frame::error(&Error::Unsupported(format!(
                    "protocol version {version} (server speaks {PROTOCOL_VERSION})"
                ))),
            );
            return;
        }
        Ok(_) => {
            shared.stats.add(|s| &s.protocol_errors);
            send_raw(
                &mut stream,
                &Frame::error(&Error::Corrupt("expected Hello handshake".into())),
            );
            return;
        }
        Err(e) => {
            shared.stats.add(|s| &s.protocol_errors);
            send_raw(&mut stream, &Frame::error(&e));
            return;
        }
    }
    // …but an *established* idle connection is legitimate: lift the
    // read deadline for the session loop.
    let _ = stream.set_read_timeout(None);
    let max_frame_bytes = shared.cfg.max_frame_bytes;
    let mut session = Session::with_registry(shared.db.clone(), shared.hierarchies.clone());
    loop {
        match protocol::read_frame(&mut stream, max_frame_bytes) {
            Ok(Some(Frame::Query { sql })) => {
                shared.stats.add(|s| &s.frames);
                let reply = execute(shared, &mut session, &sql);
                let _reply_span = shared.db.obs().span(Stage::QueryReply);
                if !send(&mut stream, &reply, max_frame_bytes) {
                    // Mid-query disconnect: the commit (if any) stands, the
                    // reply has no reader.
                    shared.stats.add(|s| &s.dropped_replies);
                    return;
                }
            }
            Ok(Some(Frame::Ping)) => {
                shared.stats.add(|s| &s.frames);
                shared.stats.add(|s| &s.pings);
                if !send(&mut stream, &Frame::Pong, max_frame_bytes) {
                    return;
                }
            }
            Ok(Some(Frame::Close)) => {
                // Graceful end of session: count it and close quietly.
                shared.stats.add(|s| &s.frames);
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            Ok(Some(other)) => {
                shared.stats.add(|s| &s.protocol_errors);
                send(
                    &mut stream,
                    &Frame::error(&Error::Corrupt(format!(
                        "unexpected frame {other:?} after handshake"
                    ))),
                    max_frame_bytes,
                );
                return;
            }
            Ok(None) => return, // client disconnected
            Err(e @ Error::Capacity(_)) | Err(e @ Error::Corrupt(_)) => {
                // Oversized or unparseable frame: the stream position is
                // no longer trustworthy — answer typed, then close.
                shared.stats.add(|s| &s.protocol_errors);
                send(&mut stream, &Frame::error(&e), max_frame_bytes);
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            Err(_) => return, // transport error
        }
    }
}

/// Best-effort reply (an oversized one becomes a typed capacity error,
/// keeping the connection alive instead of desynchronizing the client);
/// `false` when the client is gone.
fn send(stream: &mut TcpStream, frame: &Frame, max_frame_bytes: u32) -> bool {
    protocol::write_frame_capped(stream, frame, max_frame_bytes).is_ok()
}

/// Write a frame to a not-yet-registered connection (handshake errors).
fn send_raw(stream: &mut TcpStream, frame: &Frame) {
    let _ = stream.set_write_timeout(Some(StdDuration::from_secs(1)));
    // Best-effort: the connection closes either way.
    let _ = protocol::write_frame(stream, frame);
}

/// Execute one statement on the connection's session and build its reply.
fn execute(shared: &Shared, session: &mut Session, sql: &str) -> Frame {
    // DDL statements execute under the journal lock, so the journal
    // records CREATE TABLEs in exactly catalog-TableId order even when two
    // connections race — recovery replays the journal top to bottom and
    // must re-derive the same ids the WAL records carry. (Residual window,
    // documented on `journal_ddl`: a crash between the catalog insert and
    // the journal fsync can lose a table another connection already saw
    // by name.)
    let ddl_guard = if is_ddl(sql) {
        shared.ddl.as_ref().map(|m| m.lock())
    } else {
        None
    };
    let result = session.execute(sql);
    shared.stats.add(|s| &s.queries);
    // A created table must be journaled durably *before* the
    // acknowledgment: if the journal write fails, the client is told the
    // CREATE failed (the in-memory table exists but would be unrecoverable
    // after a restart — rows committed into it must not look durable).
    let result = match (result, ddl_guard) {
        (Ok(QueryOutput::TableCreated(name)), Some(mut file)) => {
            match journal_ddl(&mut file, sql) {
                Ok(()) => Ok(QueryOutput::TableCreated(name)),
                Err(e) => {
                    // Undo the catalog insert so the unjournaled table cannot
                    // accept acknowledged commits that recovery would have no
                    // schema for. Safe under the still-held DDL lock (no
                    // concurrent CREATE can have taken an id).
                    // The original error is reported; a detach failure leaves only a
                    // harmless orphan entry.
                    let _ = shared.db.catalog().detach_table(&name);
                    Err(e)
                }
            }
        }
        (result, _) => result,
    };
    match result {
        // A stats snapshot rides its own frame kind, so monitoring agents
        // can match on the kind byte.
        Ok(QueryOutput::Stats(snap)) => Frame::Stats(snap),
        Ok(other) => Frame::ResultSet(other),
        Err(e) => {
            shared.stats.add(|s| &s.query_errors);
            Frame::error(&e)
        }
    }
}

/// Does this statement need the DDL journal lock held across execution?
/// A conservative prefix test: false positives only serialize a
/// non-CREATE statement against DDL, never corrupt anything.
fn is_ddl(sql: &str) -> bool {
    sql.split_whitespace()
        .next()
        .is_some_and(|w| w.eq_ignore_ascii_case("create"))
}

/// Append a successful `CREATE TABLE` statement to the DDL journal and
/// fsync it, so a restarted server can rebuild the schemas for
/// [`Db::recover_with_schemas`]. Newlines are flattened — the journal is
/// one statement per line. The caller holds the journal lock *across the
/// statement's execution*, so journal order always matches catalog
/// TableId-allocation order. A write/fsync failure is returned so the
/// caller refuses to acknowledge the CREATE (an unjournaled table would
/// be silently unrecoverable after a restart). Known residual window: a
/// crash after the catalog insert but before this fsync loses the table
/// while a racing connection may already have seen it by name —
/// catalog-level DDL persistence (ROADMAP follow-up) closes it.
fn journal_ddl(file: &mut std::fs::File, sql: &str) -> Result<()> {
    let line: String = sql
        .chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .collect();
    writeln!(file, "{}", line.trim())?;
    file.sync_all()?;
    Ok(())
}

/// The DDL journal path for a data-directory prefix.
fn ddl_path(prefix: &Path) -> PathBuf {
    let mut s = prefix.as_os_str().to_os_string();
    s.push(".ddl");
    PathBuf::from(s)
}

/// Open a served engine at `cfg.path`, replaying the DDL journal through
/// [`Db::recover_with_schemas`] when one exists (the schemas resolve
/// their hierarchies against `hierarchies`). Without a journal — or
/// without a path at all — this is a plain [`Db::open`].
pub fn open_or_recover(
    cfg: DbConfig,
    clock: SharedClock,
    hierarchies: &HierarchyRegistry,
) -> Result<Arc<Db>> {
    let Some(path) = cfg.path.clone() else {
        return Ok(Arc::new(Db::open(cfg, clock)?));
    };
    let journal = ddl_path(&path);
    if !journal.is_file() {
        return Ok(Arc::new(Db::open(cfg, clock)?));
    }
    let mut schemas = Vec::new();
    for line in std::fs::read_to_string(&journal)?.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        schemas.push(schema_for_create(hierarchies, line)?);
    }
    Ok(Arc::new(Db::recover_with_schemas(cfg, clock, schemas)?))
}
