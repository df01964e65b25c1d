//! Error-path coverage over the wire: malformed SQL, oversized frames,
//! protocol garbage and mid-query disconnects must each produce a typed
//! `Error` frame (or a clean close) and leave the connection and the
//! server healthy.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use instant_common::{Error, MockClock};
use instant_core::query::{HierarchyRegistry, QueryOutput};
use instant_core::{Db, DbConfig};
use instant_server::protocol::{self, Frame};
use instant_server::{Client, Server, ServerConfig};

fn server_with(cfg: ServerConfig) -> Server {
    let clock = MockClock::new();
    let db = Arc::new(Db::open(DbConfig::default(), clock.shared()).unwrap());
    Server::start(db, HierarchyRegistry::new(), cfg).unwrap()
}

fn handshake(addr: std::net::SocketAddr) -> TcpStream {
    let mut raw = TcpStream::connect(addr).unwrap();
    protocol::write_frame(&mut raw, &protocol::client_hello("raw-test")).unwrap();
    match protocol::read_frame(&mut raw, 1 << 20).unwrap().unwrap() {
        Frame::Hello { .. } => raw,
        other => panic!("handshake failed: {other:?}"),
    }
}

#[test]
fn malformed_sql_returns_parse_error_and_connection_survives() {
    let server = server_with(ServerConfig::default());
    let mut client = Client::connect(server.local_addr().to_string()).unwrap();
    client
        .query("CREATE TABLE kv (k INT INDEXED, v TEXT)")
        .unwrap();

    for bad in [
        "SELEKT * FROM kv",
        "INSERT INTO kv VALUES (",
        "CREATE TABLE broken (k WIBBLE)",
        "",
    ] {
        let err = client.query(bad).unwrap_err();
        assert!(
            matches!(err, Error::Parse(_) | Error::Schema(_)),
            "{bad:?} → {err:?}"
        );
    }
    // Unknown table: typed NotFound, same connection.
    assert!(matches!(
        client.query("SELECT * FROM nope"),
        Err(Error::NotFound(_))
    ));

    // The connection that produced five errors still works.
    client.query("INSERT INTO kv VALUES (1, 'x')").unwrap();
    let rows = client.query("SELECT k FROM kv").unwrap().rows();
    assert_eq!(rows.rows.len(), 1);
    let stats = server.stats();
    assert!(stats.query_errors >= 5, "{stats:?}");
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");
    server.shutdown().unwrap();
}

#[test]
fn oversized_frame_gets_typed_error_then_clean_close() {
    let server = server_with(ServerConfig {
        max_frame_bytes: 1024,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let mut raw = handshake(addr);
    // A frame whose length prefix alone exceeds the server's limit; the
    // body never needs to exist.
    raw.write_all(&(64 * 1024 * 1024u32).to_le_bytes()).unwrap();
    raw.flush().unwrap();
    match protocol::read_frame(&mut raw, 1 << 20).unwrap().unwrap() {
        Frame::Error { class, message } => {
            assert_eq!(class, "capacity", "{message}");
        }
        other => panic!("expected typed error, got {other:?}"),
    }
    // After the typed error the server closes (framing is unrecoverable).
    assert!(
        protocol::read_frame(&mut raw, 1 << 20).unwrap().is_none(),
        "connection must be closed after an oversized frame"
    );

    // Garbage framing (a frame that lies about its length) likewise gets
    // a typed corrupt error and a close, not a hang.
    let mut raw = handshake(addr);
    raw.write_all(&5u32.to_le_bytes()).unwrap();
    raw.write_all(&[0xEE; 5]).unwrap(); // unknown kind
    raw.flush().unwrap();
    match protocol::read_frame(&mut raw, 1 << 20).unwrap().unwrap() {
        Frame::Error { class, .. } => assert_eq!(class, "corrupt"),
        other => panic!("expected typed error, got {other:?}"),
    }

    // And the server is untouched: a well-behaved client works.
    let mut client = Client::connect(addr.to_string()).unwrap();
    client
        .query("CREATE TABLE kv (k INT INDEXED, v TEXT)")
        .unwrap();
    client.query("INSERT INTO kv VALUES (1, 'x')").unwrap();
    let stats = server.stats();
    assert!(stats.protocol_errors >= 2, "{stats:?}");
    server.shutdown().unwrap();
}

#[test]
fn oversized_reply_becomes_typed_capacity_error_and_connection_survives() {
    // The outgoing cap mirrors the incoming one: a SELECT whose result
    // frame exceeds the limit gets a typed capacity error in its reply
    // slot (the raw frame would desynchronize the client), and the
    // connection keeps working for narrower queries.
    let server = server_with(ServerConfig {
        max_frame_bytes: 1024,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr().to_string()).unwrap();
    client
        .query("CREATE TABLE kv (k INT INDEXED, v TEXT)")
        .unwrap();
    let wide = "x".repeat(120);
    for i in 0..20 {
        client
            .query(&format!("INSERT INTO kv VALUES ({i}, '{wide}')"))
            .unwrap();
    }
    let err = client.query("SELECT v FROM kv").unwrap_err();
    assert!(matches!(err, Error::Capacity(_)), "{err:?}");
    // Same connection, narrower query: fine.
    let rows = client.query("SELECT v FROM kv WHERE k = 1").unwrap().rows();
    assert_eq!(rows.rows.len(), 1);
    server.shutdown().unwrap();
}

#[test]
fn mid_query_disconnects_leave_the_server_healthy_and_count_dropped_replies() {
    let server = server_with(ServerConfig::default());
    let addr = server.local_addr();
    let mut client = Client::connect(addr.to_string()).unwrap();
    client
        .query("CREATE TABLE kv (k INT INDEXED, v TEXT)")
        .unwrap();
    // Wide rows: a full SELECT's reply spans many TCP segments, so writing
    // it to a peer that has closed fails once the peer's reset arrives.
    const ROWS: usize = 100;
    let wide = "w".repeat(2000);
    for i in 0..ROWS {
        client
            .query(&format!("INSERT INTO kv VALUES ({i}, '{wide}')"))
            .unwrap();
    }

    // Vanishing clients: each sends one query and drops the socket
    // without reading the reply. If a connection thread leaked or wedged
    // per incident, the checks below would time out.
    const DOOMED_INSERTS: usize = 10;
    const DOOMED_SELECTS: u64 = 3;
    let doomed = (0..DOOMED_INSERTS)
        .map(|i| format!("INSERT INTO kv VALUES ({}, 'doomed')", 1000 + i))
        .chain((0..DOOMED_SELECTS).map(|_| "SELECT v FROM kv".to_string()));
    for sql in doomed {
        let mut raw = handshake(addr);
        protocol::write_frame(&mut raw, &Frame::Query { sql }).unwrap();
        drop(raw); // gone before the reply
    }

    // Every query the server read executed (commits stand even though
    // nobody read the acks), and every doomed connection's thread exited.
    let deadline = Instant::now() + Duration::from_secs(10);
    let expected = ROWS + DOOMED_INSERTS;
    loop {
        // Wait-die can victimize this reader while the doomed queries
        // run — a typed, retryable conflict, exactly as embedded.
        let rows = match client.query("SELECT k FROM kv") {
            Ok(out) => out.rows().rows.len(),
            Err(e) if e.is_retryable() && Instant::now() < deadline => continue,
            Err(e) => panic!("SELECT failed: {e:?}"),
        };
        if rows == expected && server.stats().connections_active == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{rows} of {expected} rows landed; {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = server.stats();
    assert!(
        stats.dropped_replies >= DOOMED_SELECTS,
        "each unread multi-segment reply is a dropped reply: {stats:?}"
    );
    client.query("INSERT INTO kv VALUES (1, 'alive')").unwrap();
    let rows = client.query("SELECT k FROM kv").unwrap().rows();
    assert_eq!(rows.rows.len(), expected + 1);
    server.shutdown().unwrap();
}

#[test]
fn silent_connection_is_reaped_after_handshake_timeout() {
    // A connect-and-say-nothing client must not hold a max_connections
    // slot forever — the gate itself would become the DoS vector.
    let server = server_with(ServerConfig {
        max_connections: 1,
        handshake_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let _silent = TcpStream::connect(addr).unwrap(); // never handshakes
                                                     // Slot occupied: a real client is refused right now…
    assert!(matches!(
        Client::connect(addr.to_string()),
        Err(Error::ServerBusy(_))
    ));
    // …but reclaimed once the handshake deadline passes.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(addr.to_string()) {
            Ok(mut c) => {
                c.ping().unwrap();
                break;
            }
            Err(Error::ServerBusy(_)) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("unexpected connect failure: {e:?}"),
        }
    }
    server.shutdown().unwrap();
}

#[test]
fn handshake_violations_are_refused_typed() {
    let server = server_with(ServerConfig::default());
    let addr = server.local_addr();

    // Wrong protocol version.
    let mut raw = TcpStream::connect(addr).unwrap();
    protocol::write_frame(
        &mut raw,
        &Frame::Hello {
            version: 99,
            banner: "future-client".into(),
        },
    )
    .unwrap();
    match protocol::read_frame(&mut raw, 1 << 20).unwrap().unwrap() {
        Frame::Error { class, message } => {
            assert_eq!(class, "unsupported");
            assert!(message.contains("version"), "{message}");
        }
        other => panic!("{other:?}"),
    }

    // Query before Hello.
    let mut raw = TcpStream::connect(addr).unwrap();
    protocol::write_frame(
        &mut raw,
        &Frame::Query {
            sql: "SELECT 1".into(),
        },
    )
    .unwrap();
    match protocol::read_frame(&mut raw, 1 << 20).unwrap().unwrap() {
        Frame::Error { class, .. } => assert_eq!(class, "corrupt"),
        other => panic!("{other:?}"),
    }

    // Normal clients unaffected.
    let mut client = Client::connect(addr.to_string()).unwrap();
    client.ping().unwrap();
    assert!(server.stats().protocol_errors >= 2);
    server.shutdown().unwrap();
}

#[test]
fn query_output_rows_unwrap_helper_is_reexported() {
    // Tiny sanity: the client surfaces core's QueryOutput directly, so
    // downstream code can pattern-match it without conversion glue.
    let server = server_with(ServerConfig::default());
    let mut client = Client::connect(server.local_addr().to_string()).unwrap();
    client.query("CREATE TABLE t (a INT)").unwrap();
    match client.query("SELECT a FROM t").unwrap() {
        QueryOutput::Rows(r) => assert!(r.rows.is_empty()),
        other => panic!("{other:?}"),
    }
    server.shutdown().unwrap();
}
