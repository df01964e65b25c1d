//! End-to-end replication over real sockets: convergence, resume from
//! local segments, checkpoint truncation gated by follower acks, torn
//! leader tails, degraded replicas, and a kill -9 of the leader binary
//! mid-burst.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use instant_common::{Error, MockClock, TupleId, Value};
use instant_core::query::HierarchyRegistry;
use instant_core::tuple::StoredTuple;
use instant_core::Session;
use instant_core::{Db, DbConfig, WalMode};
use instant_lcp::gtree::location_tree_fig1;
use instant_repl::{ReplConfig, ReplListener, Replica, ReplicaConfig};
use instant_server::{Client, Server, ServerConfig};

const CREATE_PERSON: &str = "CREATE TABLE person (id INT INDEXED, \
     location TEXT DEGRADE USING location_gt \
     LCP 'address:1h -> city:1d -> region:1mo -> country:1mo' INDEXED)";

fn registry() -> HierarchyRegistry {
    let h = HierarchyRegistry::new();
    h.register("location_gt", Arc::new(location_tree_fig1()));
    h
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "instantdb-repl-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn follower_db(clock: &MockClock, degrade_to: Option<u8>) -> Arc<Db> {
    // A replica's engine writes no WAL of its own: the received segment
    // directory is its durability root.
    let mut b = DbConfig::builder().wal_mode(WalMode::Off);
    if let Some(s) = degrade_to {
        b = b.replica_degrade_to(s);
    }
    Arc::new(Db::open(b.build().unwrap(), clock.shared()).unwrap())
}

fn scan_sorted(db: &Db, table: &str) -> Vec<(TupleId, StoredTuple)> {
    let mut rows = db.catalog().get(table).unwrap().scan().unwrap();
    rows.sort_by_key(|(tid, _)| *tid);
    rows
}

/// Poll until every leader table exists on the follower with identical
/// contents (tid-for-tid). Panics with a diff on timeout.
fn wait_converged(leader: &Db, follower: &Db, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let done = leader.catalog().table_names().iter().all(|name| {
            follower.catalog().get(name).is_ok()
                && scan_sorted(leader, name) == scan_sorted(follower, name)
        });
        if done {
            return;
        }
        if Instant::now() > deadline {
            for name in leader.catalog().table_names() {
                eprintln!("leader {name}: {:?}", scan_sorted(leader, &name));
                if follower.catalog().get(&name).is_ok() {
                    eprintln!("follower {name}: {:?}", scan_sorted(follower, &name));
                } else {
                    eprintln!("follower {name}: <missing>");
                }
            }
            panic!("follower did not converge within {timeout:?}");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn fast_repl_cfg(ddl: &[&str]) -> ReplConfig {
    ReplConfig {
        tick: Duration::from_millis(2),
        ddl: ddl.iter().map(|s| s.to_string()).collect(),
        ..ReplConfig::default()
    }
}

fn fast_replica_cfg(leader: &ReplListener, dir: PathBuf) -> ReplicaConfig {
    ReplicaConfig {
        leader_addr: leader.local_addr().to_string(),
        dir,
        tick: Duration::from_millis(2),
        ..ReplicaConfig::default()
    }
}

#[test]
fn follower_converges_incrementally_and_serves_read_only() {
    let clock = MockClock::new();
    let leader = Arc::new(Db::open(DbConfig::default(), clock.shared()).unwrap());
    let mut session = Session::with_registry(Arc::clone(&leader), registry());
    session.execute(CREATE_PERSON).unwrap();
    for i in 0..8 {
        session
            .execute(&format!("INSERT INTO person VALUES ({i}, '4 rue Jussieu')"))
            .unwrap();
    }

    let listener =
        ReplListener::start(Arc::clone(&leader), fast_repl_cfg(&[CREATE_PERSON])).unwrap();
    let fclock = MockClock::new();
    let fdb = follower_db(&fclock, None);
    let replica = Replica::start(
        Arc::clone(&fdb),
        registry(),
        fast_replica_cfg(&listener, tmp("conv")),
    )
    .unwrap();

    wait_converged(&leader, &fdb, Duration::from_secs(30));

    // Incremental: new commits (and a checkpoint, whose truncation must
    // be gated by this follower's retention hold) stream without a
    // reconnect.
    for i in 8..12 {
        session
            .execute(&format!(
                "INSERT INTO person VALUES ({i}, 'Rue de la Paix')"
            ))
            .unwrap();
    }
    session.execute("DELETE FROM person WHERE id = 3").unwrap();
    session.execute("CHECKPOINT").unwrap();
    for i in 12..15 {
        session
            .execute(&format!("INSERT INTO person VALUES ({i}, '4 rue Jussieu')"))
            .unwrap();
    }
    wait_converged(&leader, &fdb, Duration::from_secs(30));

    let status = replica.status();
    assert!(status.connected, "replica should still be connected");
    assert!(status.rounds > 0);
    assert!(status.applied_upto > 0);
    assert!(listener.acks() > 0);
    assert_eq!(listener.followers(), 1);

    // Shipping is lock-step (ship → ack → record), so the tick that
    // carried the second burst started only after the first burst's lag
    // landed in the leader's snapshot.
    let snap = instant_core::metrics::stats_snapshot(&leader);
    let lag = snap.hist("repl.lag").expect("leader exposes repl.lag");
    assert!(lag.count >= 1, "{lag:?}");
    assert!(lag.p50() <= lag.p95() && lag.p95() <= lag.p99(), "{lag:?}");

    // The follower serves SELECT / SHOW STATS and refuses mutations with
    // the typed read_only class.
    let server = Server::start(
        Arc::clone(&fdb),
        registry(),
        ServerConfig {
            read_only: true,
            degrade_every: None,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr().to_string()).unwrap();
    let rows = client.query("SELECT id FROM person").unwrap().rows();
    assert_eq!(rows.rows.len(), 14); // 15 inserts - 1 delete
    let err = client
        .query("INSERT INTO person VALUES (99, 'x')")
        .unwrap_err();
    assert!(matches!(err, Error::ReadOnly(_)), "{err:?}");
    assert_eq!(err.class(), "read_only");
    client.query("SHOW STATS").unwrap();
    server.shutdown().unwrap();

    replica.stop().unwrap();
    listener.shutdown().unwrap();
}

#[test]
fn replica_restart_resumes_from_local_segments() {
    let clock = MockClock::new();
    let leader = Arc::new(Db::open(DbConfig::default(), clock.shared()).unwrap());
    let mut session = Session::with_registry(Arc::clone(&leader), registry());
    session.execute(CREATE_PERSON).unwrap();
    for i in 0..6 {
        session
            .execute(&format!(
                "INSERT INTO person VALUES ({i}, 'Rue de la Paix')"
            ))
            .unwrap();
    }

    let listener =
        ReplListener::start(Arc::clone(&leader), fast_repl_cfg(&[CREATE_PERSON])).unwrap();
    let dir = tmp("resume");

    let fclock = MockClock::new();
    let fdb1 = follower_db(&fclock, None);
    let replica1 = Replica::start(
        Arc::clone(&fdb1),
        registry(),
        fast_replica_cfg(&listener, dir.clone()),
    )
    .unwrap();
    wait_converged(&leader, &fdb1, Duration::from_secs(30));
    let durable_at_stop = replica1.stop().unwrap().durable;
    assert!(durable_at_stop.iter().any(|&l| l > 0));
    drop(fdb1);

    // More commits while the follower is down.
    for i in 6..10 {
        session
            .execute(&format!("INSERT INTO person VALUES ({i}, '4 rue Jussieu')"))
            .unwrap();
    }

    // A "restarted follower process": fresh engine, same segment dir.
    // Its Hello advertises the on-disk durable frontier, so the leader
    // resumes instead of re-shipping from LSN 0 — and the full local log
    // re-replays into the fresh heap.
    let fdb2 = follower_db(&fclock, None);
    let replica2 = Replica::start(
        Arc::clone(&fdb2),
        registry(),
        fast_replica_cfg(&listener, dir),
    )
    .unwrap();
    wait_converged(&leader, &fdb2, Duration::from_secs(30));
    let status = replica2.status();
    assert!(status
        .durable
        .iter()
        .zip(&durable_at_stop)
        .all(|(now, then)| now >= then));

    replica2.stop().unwrap();
    listener.shutdown().unwrap();
}

#[test]
fn torn_leader_tail_on_one_shard_converges_to_recovered_state() {
    let clock = MockClock::new();
    let dir = tmp("torn-leader");
    // Engine files are path-with-extension siblings: db.idb, db.wal/.
    let cfg = DbConfig::builder()
        .path(dir.join("db"))
        .wal_shards(2)
        .build()
        .unwrap();
    {
        let db = Arc::new(Db::open(cfg.clone(), clock.shared()).unwrap());
        let mut session = Session::with_registry(Arc::clone(&db), registry());
        session.execute(CREATE_PERSON).unwrap();
        for i in 0..10 {
            session
                .execute(&format!(
                    "INSERT INTO person VALUES ({i}, 'Rue de la Paix')"
                ))
                .unwrap();
        }
        // Crash: drop without checkpoint, then tear a few bytes off one
        // shard's active segment tail (a mid-write power cut).
    }
    let shard0 = dir.join("db.wal").join("shard-000");
    let mut segs: Vec<_> = std::fs::read_dir(&shard0)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    segs.sort();
    let tail = segs.last().unwrap();
    let len = std::fs::metadata(tail).unwrap().len();
    assert!(len > 24, "active segment should hold records");
    let f = std::fs::OpenOptions::new().write(true).open(tail).unwrap();
    f.set_len(len - 5).unwrap();
    f.sync_all().unwrap();
    drop(f);

    // Leader recovers (the torn suffix — and any commit it straddled —
    // is gone), then starts shipping.
    let schemas = vec![instant_core::query::schema_for_create(&registry(), CREATE_PERSON).unwrap()];
    let leader = Arc::new(Db::recover_with_schemas(cfg, clock.shared(), schemas).unwrap());
    let survivors = scan_sorted(&leader, "person").len();
    assert!(survivors <= 10);

    let listener =
        ReplListener::start(Arc::clone(&leader), fast_repl_cfg(&[CREATE_PERSON])).unwrap();
    let fclock = MockClock::new();
    let fdb = follower_db(&fclock, None);
    let replica = Replica::start(
        Arc::clone(&fdb),
        registry(),
        fast_replica_cfg(&listener, tmp("torn-follower")),
    )
    .unwrap();
    wait_converged(&leader, &fdb, Duration::from_secs(30));

    // And the recovered leader keeps accepting writes that replicate.
    let mut session = Session::with_registry(Arc::clone(&leader), registry());
    session
        .execute("INSERT INTO person VALUES (777, '4 rue Jussieu')")
        .unwrap();
    wait_converged(&leader, &fdb, Duration::from_secs(30));

    replica.stop().unwrap();
    listener.shutdown().unwrap();
}

#[test]
fn degraded_replica_never_materializes_below_the_floor() {
    // Floor 2 on the location LCP 'address -> city -> region -> country'
    // means nothing more precise than a region may reach the follower
    // heap.
    const FLOOR: u8 = 2;
    let clock = MockClock::new();
    let leader = Arc::new(Db::open(DbConfig::default(), clock.shared()).unwrap());
    let mut session = Session::with_registry(Arc::clone(&leader), registry());
    session.execute(CREATE_PERSON).unwrap();
    for (i, addr) in ["4 rue Jussieu", "Rue de la Paix", "Drienerlolaan 5"]
        .iter()
        .enumerate()
    {
        session
            .execute(&format!("INSERT INTO person VALUES ({i}, '{addr}')"))
            .unwrap();
    }

    let listener =
        ReplListener::start(Arc::clone(&leader), fast_repl_cfg(&[CREATE_PERSON])).unwrap();
    let fclock = MockClock::new();
    let fdb = follower_db(&fclock, Some(FLOOR));
    let replica = Replica::start(
        Arc::clone(&fdb),
        registry(),
        fast_replica_cfg(&listener, tmp("degraded")),
    )
    .unwrap();

    // The follower's heap differs from the leader's by design, so
    // converge on row count instead of tuple equality.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if fdb.catalog().get("person").is_ok() && scan_sorted(&fdb, "person").len() == 3 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "degraded follower never caught up"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let leader_rows = scan_sorted(&leader, "person");
    for (tid, tuple) in scan_sorted(&fdb, "person") {
        match tuple.stages[0] {
            Some(stage) => assert!(stage >= FLOOR, "{tid:?} at stage {stage} < floor {FLOOR}"),
            None => continue, // removed outright — coarser than any floor
        }
        // The degraded image must actually have lost the precise value:
        // at floor 2 only regions (or coarser) may remain.
        let leader_tuple = &leader_rows.iter().find(|(t, _)| *t == tid).unwrap().1;
        assert_ne!(tuple.row[1], leader_tuple.row[1]);
        let coarse = [
            "Ile-de-France",
            "Auvergne-Rhone-Alpes",
            "Overijssel",
            "Noord-Holland",
            "France",
            "Netherlands",
        ];
        match &tuple.row[1] {
            Value::Str(s) => assert!(coarse.contains(&s.as_str()), "too precise: {s}"),
            Value::Removed => {}
            other => panic!("unexpected degraded value {other:?}"),
        }
    }

    // Shredding: once the follower's clock leaves the key window, every
    // earlier window's key is destroyed after the next apply round, so
    // precise history can never be re-materialized from the shipped log.
    fclock.advance(instant_common::Duration::hours(2));
    clock.advance(instant_common::Duration::hours(2));
    session
        .execute("INSERT INTO person VALUES (50, 'Science Park 123')")
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if scan_sorted(&fdb, "person").len() == 4 && fdb.keystore().live_keys() <= 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "old key windows were not shredded (live_keys = {})",
            fdb.keystore().live_keys()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    replica.stop().unwrap();
    listener.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// Kill the leader binary mid-burst: the follower reconnects to the
// restarted leader and converges on the recovered state.
// ---------------------------------------------------------------------

use std::io::{BufRead as _, BufReader};
use std::process::{Child, Command, Stdio};

struct Proc {
    child: Child,
    lines: BufReader<std::process::ChildStdout>,
}

impl Proc {
    fn spawn(bin: &str, args: &[&str]) -> Proc {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap();
        let lines = BufReader::new(child.stdout.take().unwrap());
        Proc { child, lines }
    }

    /// Read stdout lines until one contains `marker`; return the token
    /// after "listening on ".
    fn wait_listening(&mut self, marker: &str) -> String {
        let mut line = String::new();
        loop {
            line.clear();
            assert!(
                self.lines.read_line(&mut line).unwrap() > 0,
                "process exited before printing '{marker}'"
            );
            if line.contains(marker) {
                return line
                    .rsplit("listening on ")
                    .next()
                    .unwrap()
                    .trim()
                    .to_string();
            }
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn select_ids(client: &mut Client) -> Vec<i64> {
    let mut ids: Vec<i64> = client
        .query("SELECT id FROM person")
        .unwrap()
        .rows()
        .rows
        .into_iter()
        .map(|r| match r[0] {
            Value::Int(n) => n,
            ref other => panic!("unexpected id {other:?}"),
        })
        .collect();
    ids.sort_unstable();
    ids
}

#[test]
fn kill_leader_midburst_follower_reconnects_and_converges() {
    let data = tmp("kill-data");
    let rdir = tmp("kill-replica");
    // The replica keeps dialing this fixed address across the leader
    // restart, so both leader incarnations must bind it.
    let repl_addr = format!("127.0.0.1:{}", 20000 + std::process::id() % 20000);

    let leader_bin = env!("CARGO_BIN_EXE_instantdb-leader");
    let replica_bin = env!("CARGO_BIN_EXE_instantdb-replica");

    let mut leader = Proc::spawn(
        leader_bin,
        &[
            "--addr",
            "127.0.0.1:0",
            "--repl-addr",
            &repl_addr,
            "--data",
            data.to_str().unwrap(),
            "--repl-tick-ms",
            "2",
            "--no-degrade",
        ],
    );
    let sql_addr = leader.wait_listening("instantdb-leader listening on ");
    leader.wait_listening("repl listening on ");

    let mut replica = Proc::spawn(
        replica_bin,
        &[
            "--leader",
            &repl_addr,
            "--dir",
            rdir.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--tick-ms",
            "2",
        ],
    );
    let replica_addr = replica.wait_listening("instantdb-replica listening on ");

    let mut client = Client::connect(&sql_addr).unwrap();
    client.query(CREATE_PERSON).unwrap();
    let mut acked: Vec<i64> = Vec::new();
    for i in 0..15 {
        if client
            .query(&format!(
                "INSERT INTO person VALUES ({i}, 'Rue de la Paix')"
            ))
            .is_ok()
        {
            acked.push(i);
        }
        if i == 9 {
            // SIGKILL mid-burst: no shutdown path runs on the leader.
            leader.child.kill().unwrap();
            leader.child.wait().unwrap();
            break;
        }
    }
    drop(client);

    // Restart on the same data dir; recovery replays the DDL journal +
    // committed WAL suffix, and the follower's redial resumes shipping.
    let mut leader2 = Proc::spawn(
        leader_bin,
        &[
            "--addr",
            "127.0.0.1:0",
            "--repl-addr",
            &repl_addr,
            "--data",
            data.to_str().unwrap(),
            "--repl-tick-ms",
            "2",
            "--no-degrade",
        ],
    );
    let sql_addr2 = leader2.wait_listening("instantdb-leader listening on ");
    leader2.wait_listening("repl listening on ");

    let mut client = Client::connect(&sql_addr2).unwrap();
    for i in 100..105 {
        client
            .query(&format!("INSERT INTO person VALUES ({i}, '4 rue Jussieu')"))
            .unwrap();
        acked.push(i);
    }

    // Every acked commit was WAL-durable before its ack, so the
    // recovered leader must serve at least `acked` — and the follower
    // must converge to exactly the leader's surviving id set.
    let leader_ids = select_ids(&mut client);
    for id in &acked {
        assert!(leader_ids.contains(id), "acked id {id} lost by recovery");
    }

    let mut rclient = Client::connect(&replica_addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if select_ids(&mut rclient) == leader_ids {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "follower never converged: leader={leader_ids:?} follower={:?}",
            select_ids(&mut rclient)
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Still read-only after all that.
    let err = rclient
        .query("INSERT INTO person VALUES (999, 'x')")
        .unwrap_err();
    assert_eq!(err.class(), "read_only");

    // Graceful stop via the control pipe would be --stdin-control; the
    // Drop impls just kill both processes.
    let _ = leader2.child.stdin.take();
    let _ = replica.child.stdin.take();
}
