//! Graceful-shutdown ordering regression tests: `Server::shutdown` must
//! drain the group-commit pipeline (via the engine's drop order), stop
//! the background daemons, and close listeners — and no commit the
//! server *acknowledged* over the wire may be lost.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use instant_common::MockClock;
use instant_core::query::{HierarchyRegistry, QueryOutput};
use instant_core::{Db, DbConfig, GroupCommitConfig};
use instant_server::protocol::{self, Frame};
use instant_server::{open_or_recover, Client, Server, ServerConfig};

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "instantdb-srv-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn no_acknowledged_commit_lost_on_shutdown() {
    let dir = scratch("shutdown");
    let base = dir.join("db");
    let clock = MockClock::new();
    let reg = HierarchyRegistry::new();
    // Background checkpointer + degradation daemon armed: shutdown must
    // stop both *before* the engine drops, and their races with the
    // final commits must not lose any acknowledged insert.
    let cfg = DbConfig {
        path: Some(base.clone()),
        checkpoint_every: Some(Duration::from_millis(2)),
        ..DbConfig::default()
    };
    let db = open_or_recover(cfg, clock.shared(), &reg).unwrap();
    let server = Server::start(
        db,
        reg.clone(),
        ServerConfig {
            degrade_every: Some(Duration::from_millis(2)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    const N: usize = 40;
    let mut client = Client::connect(&addr).unwrap();
    client
        .query("CREATE TABLE kv (k INT INDEXED, v TEXT)")
        .unwrap();
    for i in 0..N {
        // Every one of these returned over the wire = acknowledged.
        client
            .query(&format!("INSERT INTO kv VALUES ({i}, 'payload-{i}')"))
            .unwrap();
    }
    // No Close frame, no checkpoint call: the connection is live and the
    // last commits may still sit in WAL segments only.
    server.shutdown().unwrap();

    // The client notices on its next use (and would reconnect if a
    // server came back; none does here).
    assert!(client.query("SELECT k FROM kv").is_err());

    // Reopen the data directory cold: every acknowledged commit must be
    // there, schemas rebuilt from the DDL journal.
    let recovered = open_or_recover(
        DbConfig {
            path: Some(base.clone()),
            ..DbConfig::default()
        },
        clock.shared(),
        &reg,
    )
    .unwrap();
    let table = recovered.catalog().get("kv").unwrap();
    assert_eq!(table.live_count().unwrap(), N, "acknowledged commits lost");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_finishes_and_acknowledges_a_query_already_read() {
    // A query the server has read when shutdown begins runs to the end and
    // its reply — the commit acknowledgment — reaches the client before
    // `shutdown` returns. A lingering group-commit drain keeps the INSERT
    // in flight while shutdown starts.
    let dir = scratch("shutdown-drain");
    let base = dir.join("db");
    let clock = MockClock::new();
    let reg = HierarchyRegistry::new();
    let db = open_or_recover(
        DbConfig {
            path: Some(base.clone()),
            group_commit: GroupCommitConfig {
                max_delay: Duration::from_millis(150),
                ..GroupCommitConfig::default()
            },
            ..DbConfig::default()
        },
        clock.shared(),
        &reg,
    )
    .unwrap();
    let server = Server::start(db.clone(), reg.clone(), ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr.to_string()).unwrap();
    client
        .query("CREATE TABLE kv (k INT INDEXED, v TEXT)")
        .unwrap();

    let mut raw = TcpStream::connect(addr).unwrap();
    protocol::write_frame(&mut raw, &protocol::client_hello("raw")).unwrap();
    assert!(matches!(
        protocol::read_frame(&mut raw, 1 << 20).unwrap().unwrap(),
        Frame::Hello { .. }
    ));
    protocol::write_frame(
        &mut raw,
        &Frame::Query {
            sql: "INSERT INTO kv VALUES (1, 'one')".into(),
        },
    )
    .unwrap();
    // Read by the server = counted as a frame (the CREATE was the first).
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().frames < 2 {
        assert!(Instant::now() < deadline, "{:?}", server.stats());
        std::thread::yield_now();
    }
    server.shutdown().unwrap();
    match protocol::read_frame(&mut raw, 1 << 20).unwrap() {
        Some(Frame::ResultSet(QueryOutput::Inserted(1))) => {}
        other => panic!("the INSERT read before shutdown must be acknowledged: {other:?}"),
    }
    assert_eq!(
        db.catalog().get("kv").unwrap().live_count().unwrap(),
        1,
        "inserted row present on the still-held engine handle"
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_with_idle_connections_and_drop_are_clean() {
    let clock = MockClock::new();
    let db = Arc::new(Db::open(DbConfig::default(), clock.shared()).unwrap());
    let server = Server::start(db, HierarchyRegistry::new(), ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let _idle1 = Client::connect(&addr).unwrap();
    let _idle2 = Client::connect(&addr).unwrap();
    server.shutdown().unwrap(); // must not hang on the idle readers

    // And plain Drop (no explicit shutdown) must tear down cleanly too.
    let clock = MockClock::new();
    let db = Arc::new(Db::open(DbConfig::default(), clock.shared()).unwrap());
    let server = Server::start(db, HierarchyRegistry::new(), ServerConfig::default()).unwrap();
    let _idle = Client::connect(server.local_addr().to_string()).unwrap();
    drop(server);
}
