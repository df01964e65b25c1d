//! `instantdb-replica` — a read replica fed by an `instantdb-leader`.
//!
//! ```text
//! instantdb-replica --leader 127.0.0.1:5434 --dir /var/lib/idb/replica \
//!     [--addr 127.0.0.1:5435] [--degrade-to STAGE]
//!     [--key-seed N] [--key-window-ms N] [--stdin-control]
//! ```
//!
//! Dials the leader's replication port, fsyncs shipped WAL segments
//! under `--dir`, replays the stable prefix into a local engine, and
//! serves it read-only on `--addr`: SELECT and SHOW STATS work, every
//! mutation is refused with the typed `read_only` error class.
//! Restarting on the same `--dir` resumes from the local durable
//! frontier instead of re-shipping the whole log.
//!
//! `--degrade-to STAGE` makes this a **degraded replica**: every shipped
//! image is degraded through at least `STAGE` generalization steps
//! before it reaches the heap, and key windows behind the current one
//! are shredded after each apply round — data more precise than the
//! declared stage is never materializable on this host. `--key-seed` /
//! `--key-window-ms` must match the leader's engine configuration (the
//! defaults match the engine defaults) or sealed payloads will surface
//! as unrecoverable and be expunged.

use std::sync::Arc;

use instant_common::SystemClock;
use instant_core::query::HierarchyRegistry;
use instant_core::DbConfig;
use instant_lcp::gtree::location_tree_fig1;
use instant_repl::{Replica, ReplicaConfig};
use instant_server::{Server, ServerConfig};

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: instantdb-replica --leader A --dir PATH [--addr A] \
         [--degrade-to STAGE] [--key-seed N] [--key-window-ms N] \
         [--max-conns N] [--tick-ms N] [--stdin-control]"
    );
    std::process::exit(2);
}

struct Args {
    leader: String,
    dir: Option<std::path::PathBuf>,
    addr: String,
    degrade_to: Option<u8>,
    key_seed: Option<u64>,
    key_window_ms: Option<u64>,
    max_conns: usize,
    tick_ms: u64,
    stdin_control: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        leader: "127.0.0.1:5434".into(),
        dir: None,
        addr: "127.0.0.1:5435".into(),
        degrade_to: None,
        key_seed: None,
        key_window_ms: None,
        max_conns: 64,
        tick_ms: 5,
        stdin_control: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--leader" => args.leader = value("--leader"),
            "--dir" => args.dir = Some(value("--dir").into()),
            "--addr" => args.addr = value("--addr"),
            "--degrade-to" => args.degrade_to = Some(parse(&value("--degrade-to"), "--degrade-to")),
            "--key-seed" => args.key_seed = Some(parse(&value("--key-seed"), "--key-seed")),
            "--key-window-ms" => {
                args.key_window_ms = Some(parse(&value("--key-window-ms"), "--key-window-ms"))
            }
            "--max-conns" => args.max_conns = parse(&value("--max-conns"), "--max-conns"),
            "--tick-ms" => args.tick_ms = parse(&value("--tick-ms"), "--tick-ms"),
            "--stdin-control" => args.stdin_control = true,
            "--help" | "-h" => usage("help requested"),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    args
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| usage(&format!("bad value '{s}' for {flag}")))
}

fn main() {
    let args = parse_args();
    let Some(dir) = args.dir.clone() else {
        usage("--dir is required (where received segments live)");
    };
    let hierarchies = HierarchyRegistry::new();
    hierarchies.register("location_gt", Arc::new(location_tree_fig1()));

    // The serving engine writes no WAL of its own: the received segment
    // files under --dir *are* this replica's durability story, and the
    // apply daemon re-replays them from the stable barrier on restart.
    let mut builder = DbConfig::builder().wal_mode(instant_core::WalMode::Off);
    if let Some(stage) = args.degrade_to {
        builder = builder.replica_degrade_to(stage);
    }
    if let Some(seed) = args.key_seed {
        builder = builder.key_seed(seed);
    }
    if let Some(ms) = args.key_window_ms {
        builder = builder.key_window(instant_common::Duration::millis(ms));
    }
    let db_cfg = match builder.build() {
        Ok(cfg) => cfg,
        Err(e) => usage(&e.to_string()),
    };
    let db = match instant_core::Db::open(db_cfg, Arc::new(SystemClock)) {
        Ok(db) => Arc::new(db),
        Err(e) => {
            eprintln!("instantdb-replica: cannot open engine: {e}");
            std::process::exit(1);
        }
    };

    let replica = match Replica::start(
        Arc::clone(&db),
        hierarchies.clone(),
        ReplicaConfig {
            leader_addr: args.leader,
            dir,
            tick: std::time::Duration::from_millis(args.tick_ms),
            ..ReplicaConfig::default()
        },
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("instantdb-replica: cannot start replication: {e}");
            std::process::exit(1);
        }
    };

    let server_cfg = ServerConfig {
        addr: args.addr,
        max_connections: args.max_conns,
        read_only: true,
        // Local degradation daemons belong to the leader; a replica's
        // heap changes only through the apply path.
        degrade_every: None,
        ..ServerConfig::default()
    };
    let server = match Server::start(Arc::clone(&db), hierarchies, server_cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("instantdb-replica: cannot bind: {e}");
            std::process::exit(1);
        }
    };
    // Scripts (and the CI smoke lane) wait for this exact line.
    println!("instantdb-replica listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    if args.stdin_control {
        let stdin = std::io::stdin();
        let mut line = String::new();
        loop {
            line.clear();
            use std::io::BufRead as _;
            match stdin.lock().read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => match line.trim() {
                    "shutdown" | "quit" | "exit" => break,
                    "stats" => {
                        println!("{:?}", replica.status());
                        let _ = std::io::stdout().flush();
                    }
                    "" => {}
                    other => eprintln!("instantdb-replica: unknown control '{other}'"),
                },
                Err(_) => break,
            }
        }
        if let Err(e) = replica.stop() {
            eprintln!("instantdb-replica: replication stop error: {e}");
        }
        match server.shutdown() {
            Ok(()) => println!("instantdb-replica: clean shutdown"),
            Err(e) => {
                eprintln!("instantdb-replica: shutdown error: {e}");
                std::process::exit(1);
            }
        }
    } else {
        loop {
            std::thread::park();
        }
    }
}
