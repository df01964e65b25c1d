//! End-to-end tests over real TCP: round trips, session state across
//! frames, admission control, pipelining, and client reconnect with
//! purpose replay.

use std::sync::Arc;
use std::time::{Duration, Instant};

use instant_common::{Error, MockClock, Value};
use instant_core::query::{HierarchyRegistry, QueryOutput};
use instant_core::{Db, DbConfig};
use instant_lcp::gtree::location_tree_fig1;
use instant_server::protocol::{self, Frame};
use instant_server::{open_or_recover, Client, Server, ServerConfig};

fn registry() -> HierarchyRegistry {
    let h = HierarchyRegistry::new();
    h.register("location_gt", Arc::new(location_tree_fig1()));
    h
}

fn ephemeral_server(cfg: ServerConfig) -> Server {
    let clock = MockClock::new();
    let db = Arc::new(Db::open(DbConfig::default(), clock.shared()).unwrap());
    Server::start(db, registry(), cfg).unwrap()
}

const CREATE_PERSON: &str = "CREATE TABLE person (id INT INDEXED, \
     location TEXT DEGRADE USING location_gt \
     LCP 'address:1h -> city:1d -> region:1mo -> country:1mo' INDEXED)";

#[test]
fn wire_round_trip_and_session_state() {
    let server = ephemeral_server(ServerConfig::default());
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    client.ping().unwrap();
    assert!(matches!(
        client.query(CREATE_PERSON).unwrap(),
        QueryOutput::TableCreated(n) if n == "person"
    ));
    assert_eq!(
        client
            .query("INSERT INTO person VALUES (1, '4 rue Jussieu')")
            .unwrap(),
        QueryOutput::Inserted(1)
    );
    assert_eq!(
        client
            .query("INSERT INTO person VALUES (2, 'Rue de la Paix')")
            .unwrap(),
        QueryOutput::Inserted(1)
    );
    let rows = client.query("SELECT id FROM person").unwrap().rows();
    assert_eq!(rows.rows.len(), 2);

    // Session state persists across frames: the purpose declared here
    // governs the SELECT on the *same connection* below.
    client
        .query("DECLARE PURPOSE STAT SET ACCURACY LEVEL CITY FOR LOCATION")
        .unwrap();
    let rows = client.query("SELECT location FROM person").unwrap().rows();
    let mut cities: Vec<Value> = rows.rows.into_iter().map(|mut r| r.remove(0)).collect();
    cities.sort_by(|a, b| format!("{a}").cmp(&format!("{b}")));
    assert_eq!(
        cities,
        vec![Value::Str("Lyon".into()), Value::Str("Paris".into())]
    );

    // A *different* connection has its own session: no purpose there, so
    // the fresh tuples come back at full accuracy.
    let mut other = Client::connect(&addr).unwrap();
    let rows = other
        .query("SELECT location FROM person WHERE id = 1")
        .unwrap()
        .rows();
    assert_eq!(rows.rows[0][0], Value::Str("4 rue Jussieu".into()));
    other.close().unwrap();

    let stats = server.stats();
    assert!(stats.connections_accepted >= 2, "{stats:?}");
    assert!(stats.queries >= 6, "{stats:?}");
    assert!(stats.frames > stats.queries, "pings/closes counted too");
    assert_eq!(stats.query_errors, 0, "{stats:?}");
    assert_eq!(stats.connections_shed, 0, "{stats:?}");
    client.close().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn show_stats_over_live_tcp_returns_full_snapshot() {
    // A 1ns threshold (clamped to 1us by the engine) makes every wire
    // query "slow", so the slow-query log is exercised end to end too.
    let server = ephemeral_server(ServerConfig {
        slow_query: Some(Duration::from_nanos(1)),
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    client.query(CREATE_PERSON).unwrap();
    client
        .query("INSERT INTO person VALUES (1, '4 rue Jussieu')")
        .unwrap();
    client
        .query("DECLARE PURPOSE STAT SET ACCURACY LEVEL CITY FOR LOCATION")
        .unwrap();
    client.query("SELECT location FROM person").unwrap();

    let QueryOutput::Stats(snap) = client.query("SHOW STATS").unwrap() else {
        panic!("SHOW STATS must answer with a stats snapshot");
    };
    // Commit-latency percentiles from the real durability path.
    let ack = snap.hist("commit.ack").expect("commit.ack histogram");
    assert!(ack.count >= 1, "the INSERT's commit was recorded: {ack:?}");
    assert!(ack.p99() >= ack.p50(), "{ack:?}");
    // Served engines run with spans on: the query stages are populated.
    assert!(snap.hist("query.total").is_some_and(|h| h.count >= 4));
    assert!(snap.hist("query.parse").is_some_and(|h| h.count >= 4));
    assert!(snap.hist("query.exec").is_some_and(|h| h.count >= 4));
    // Degradation-timeliness lag gauge (zero here — nothing is overdue).
    assert_eq!(snap.gauge("degradation.overdue_lag_us"), Some(0));
    // Engine counters and the server-side provider are folded in.
    assert_eq!(snap.counter("db.inserts"), Some(1));
    assert!(snap.counter("server.queries").is_some_and(|q| q >= 4));
    assert!(snap
        .counter("server.connections_accepted")
        .is_some_and(|c| c >= 1));
    // Per-purpose query/row counts: the SELECT ran under STAT, everything
    // before the DECLARE under the "(none)" bucket.
    let purpose = |name: &str| snap.purposes.iter().find(|(n, _)| n == name);
    assert!(purpose("stat").is_some_and(|(_, c)| c.queries >= 1 && c.rows >= 1));
    assert!(purpose("(none)").is_some_and(|(_, c)| c.queries >= 3));
    // Every wire query beat the 1us threshold into the slow-query log —
    // which records statement kinds, never SQL text.
    assert!(!snap.slow_queries.is_empty());
    assert!(snap.slow_queries.iter().any(|q| q.kind == "select"));
    assert!(snap
        .slow_queries
        .iter()
        .all(|q| !q.kind.contains("Jussieu")));

    client.close().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn connection_gate_sheds_with_typed_error() {
    let server = ephemeral_server(ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    let first = Client::connect(&addr).unwrap();
    let refused = Client::connect(&addr);
    assert!(matches!(refused, Err(Error::ServerBusy(_))), "{refused:?}");
    assert!(server.stats().connections_shed >= 1);

    // The gate reopens once the slot frees.
    first.close().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(&addr) {
            Ok(mut c) => {
                c.ping().unwrap();
                break;
            }
            Err(Error::ServerBusy(_)) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("unexpected connect failure: {e:?}"),
        }
    }
    server.shutdown().unwrap();
}

#[test]
fn deep_pipelining_is_flow_controlled_not_shed() {
    // A client that writes far more queries than the server has run is
    // slowed by TCP flow control on its own socket: every query runs, in
    // order, and none is answered `server_busy`.
    const PIPELINED: usize = 200;
    let server = ephemeral_server(ServerConfig::default());
    let addr = server.local_addr();
    let mut client = Client::connect(addr.to_string()).unwrap();
    client
        .query("CREATE TABLE kv (k INT INDEXED, v TEXT)")
        .unwrap();

    // Raw pipelining (the library client is strictly request/response).
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    protocol::write_frame(&mut raw, &protocol::client_hello("pipeliner")).unwrap();
    let hello = protocol::read_frame(&mut raw, 1 << 20).unwrap().unwrap();
    assert!(matches!(hello, Frame::Hello { .. }));
    for i in 0..PIPELINED {
        protocol::write_frame(
            &mut raw,
            &Frame::Query {
                sql: format!("INSERT INTO kv VALUES ({i}, 'x')"),
            },
        )
        .unwrap();
    }
    for i in 0..PIPELINED {
        match protocol::read_frame(&mut raw, 1 << 20).unwrap().unwrap() {
            Frame::ResultSet(QueryOutput::Inserted(1)) => {}
            other => panic!("reply {i} of {PIPELINED}: {other:?}"),
        }
    }
    protocol::write_frame(
        &mut raw,
        &Frame::Query {
            sql: "SELECT k FROM kv".into(),
        },
    )
    .unwrap();
    match protocol::read_frame(&mut raw, 1 << 20).unwrap().unwrap() {
        Frame::ResultSet(out) => assert_eq!(out.rows().rows.len(), PIPELINED),
        other => panic!("unexpected reply {other:?}"),
    }
    assert_eq!(server.stats().connections_shed, 0, "{:?}", server.stats());
    server.shutdown().unwrap();
}

#[test]
fn pipelined_queries_execute_and_reply_in_arrival_order() {
    // Queries carry no correlation id, so a pipelining client pairs
    // replies by order; same-connection queries must therefore run in
    // arrival order — including session-state dependencies (a pipelined
    // DECLARE must govern the SELECT sent right behind it).
    let server = ephemeral_server(ServerConfig::default());
    let addr = server.local_addr();
    let mut admin = Client::connect(addr.to_string()).unwrap();
    admin.query(CREATE_PERSON).unwrap();

    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    protocol::write_frame(&mut raw, &protocol::client_hello("pipeliner")).unwrap();
    assert!(matches!(
        protocol::read_frame(&mut raw, 1 << 20).unwrap().unwrap(),
        Frame::Hello { .. }
    ));
    // INSERT → SELECT(sees it) → DECLARE → SELECT(at CITY) — all written
    // before any reply is read. Out-of-order execution would break at
    // least one expectation below.
    for sql in [
        "INSERT INTO person VALUES (1, '4 rue Jussieu')",
        "SELECT location FROM person WHERE id = 1",
        "DECLARE PURPOSE STAT SET ACCURACY LEVEL CITY FOR LOCATION",
        "SELECT location FROM person WHERE id = 1",
    ] {
        protocol::write_frame(&mut raw, &Frame::Query { sql: sql.into() }).unwrap();
    }
    let mut replies = Vec::new();
    for _ in 0..4 {
        replies.push(protocol::read_frame(&mut raw, 1 << 20).unwrap().unwrap());
    }
    assert!(
        matches!(&replies[0], Frame::ResultSet(QueryOutput::Inserted(1))),
        "{replies:?}"
    );
    let Frame::ResultSet(QueryOutput::Rows(r1)) = &replies[1] else {
        panic!("{replies:?}")
    };
    assert_eq!(
        r1.rows[0][0],
        Value::Str("4 rue Jussieu".into()),
        "SELECT pipelined behind the INSERT must see it, at full accuracy"
    );
    assert!(
        matches!(
            &replies[2],
            Frame::ResultSet(QueryOutput::PurposeDeclared(_))
        ),
        "{replies:?}"
    );
    let Frame::ResultSet(QueryOutput::Rows(r2)) = &replies[3] else {
        panic!("{replies:?}")
    };
    assert_eq!(
        r2.rows[0][0],
        Value::Str("Paris".into()),
        "SELECT pipelined behind the DECLARE must run at CITY accuracy"
    );
    server.shutdown().unwrap();
}

#[test]
fn client_reconnects_and_replays_purposes_across_server_restart() {
    let dir = std::env::temp_dir().join(format!(
        "instantdb-srv-reconnect-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("db");
    let db_cfg = || DbConfig {
        path: Some(base.clone()),
        ..DbConfig::default()
    };
    let clock = MockClock::new();

    let reg = registry();
    let db = open_or_recover(db_cfg(), clock.shared(), &reg).unwrap();
    let server = Server::start(db, reg, ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();

    let mut client = Client::connect(&addr).unwrap();
    client.query(CREATE_PERSON).unwrap();
    client
        .query("INSERT INTO person VALUES (1, '4 rue Jussieu')")
        .unwrap();
    client
        .query("DECLARE PURPOSE STAT SET ACCURACY LEVEL CITY FOR LOCATION")
        .unwrap();
    let rows = client.query("SELECT location FROM person").unwrap().rows();
    assert_eq!(rows.rows[0][0], Value::Str("Paris".into()));

    // Server goes down (gracefully) and comes back on the same address,
    // recovering tables from the DDL journal + WAL.
    server.shutdown().unwrap();
    let reg = registry();
    let db = open_or_recover(db_cfg(), clock.shared(), &reg).unwrap();
    let server = {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Server::start(
                db.clone(),
                reg.clone(),
                ServerConfig {
                    addr: addr.clone(),
                    ..ServerConfig::default()
                },
            ) {
                Ok(s) => break s,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => panic!("rebind failed: {e}"),
            }
        }
    };

    // The same client object keeps working: the dead connection is
    // detected, re-dialed, and the purpose journal replayed — so the
    // SELECT still runs at CITY accuracy on the recovered data.
    let rows = client.query("SELECT location FROM person").unwrap().rows();
    assert_eq!(rows.rows.len(), 1, "committed insert survived restart");
    assert_eq!(rows.rows[0][0], Value::Str("Paris".into()));
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
