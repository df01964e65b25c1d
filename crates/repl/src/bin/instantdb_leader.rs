//! `instantdb-leader` — an `instantdb-server` that also ships its WAL.
//!
//! ```text
//! instantdb-leader --addr 127.0.0.1:5433 --repl-addr 127.0.0.1:5434 \
//!     --data /var/lib/idb/main [--wal-shards N] [--checkpoint-every-ms N]
//!     [--degrade-every-ms N] [--repl-tick-ms N] [--stdin-control]
//! ```
//!
//! `--degrade-every-ms` is the longest the degradation pump sleeps: it
//! wakes at the next transition's due time, but no sooner than
//! `PUMP_FLOOR` after its last batch.
//!
//! Runs the normal SQL server on `--addr` and a replication listener on
//! `--repl-addr`; any number of `instantdb-replica` processes may dial
//! the latter. `--data` is effectively required for replication to be
//! useful: the DDL journal next to it is what the handshake's schema
//! snapshot is built from. Connected (and, by default, prospective)
//! followers hold WAL retention, so checkpoint truncation never deletes
//! a segment a follower still needs.

use std::sync::Arc;

use instant_common::SystemClock;
use instant_core::query::HierarchyRegistry;
use instant_core::DbConfig;
use instant_lcp::gtree::location_tree_fig1;
use instant_repl::{ReplConfig, ReplListener};
use instant_server::{open_or_recover, Server, ServerConfig};

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: instantdb-leader [--addr A] [--repl-addr A] [--data PATH] \
         [--max-conns N] [--wal-shards N] \
         [--checkpoint-every-ms N] [--degrade-every-ms N] [--no-degrade] \
         [--wal-retention-segments N] [--repl-tick-ms N] [--stdin-control]"
    );
    eprintln!(
        "  --degrade-every-ms N  longest sleep of the degradation pump (default 250): \
         it wakes at the next transition's due time, but no sooner than {} ms \
         after its last batch",
        instant_core::PUMP_FLOOR.as_millis()
    );
    std::process::exit(2);
}

struct Args {
    addr: String,
    repl_addr: String,
    data: Option<std::path::PathBuf>,
    max_conns: usize,
    wal_shards: Option<usize>,
    checkpoint_every_ms: Option<u64>,
    degrade_every_ms: Option<u64>,
    wal_retention_segments: Option<u64>,
    repl_tick_ms: u64,
    stdin_control: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:5433".into(),
        repl_addr: "127.0.0.1:5434".into(),
        data: None,
        max_conns: 64,
        wal_shards: None,
        checkpoint_every_ms: None,
        degrade_every_ms: Some(250),
        wal_retention_segments: None,
        repl_tick_ms: 20,
        stdin_control: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr"),
            "--repl-addr" => args.repl_addr = value("--repl-addr"),
            "--data" => args.data = Some(value("--data").into()),
            "--max-conns" => args.max_conns = parse(&value("--max-conns"), "--max-conns"),
            "--wal-shards" => args.wal_shards = Some(parse(&value("--wal-shards"), "--wal-shards")),
            "--checkpoint-every-ms" => {
                args.checkpoint_every_ms = Some(parse(
                    &value("--checkpoint-every-ms"),
                    "--checkpoint-every-ms",
                ))
            }
            "--degrade-every-ms" => {
                args.degrade_every_ms =
                    Some(parse(&value("--degrade-every-ms"), "--degrade-every-ms"))
            }
            "--no-degrade" => args.degrade_every_ms = None,
            "--wal-retention-segments" => {
                args.wal_retention_segments = Some(parse(
                    &value("--wal-retention-segments"),
                    "--wal-retention-segments",
                ))
            }
            "--repl-tick-ms" => {
                args.repl_tick_ms = parse(&value("--repl-tick-ms"), "--repl-tick-ms")
            }
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
    let hierarchies = HierarchyRegistry::new();
    hierarchies.register("location_gt", Arc::new(location_tree_fig1()));

    let mut builder = DbConfig::builder();
    if let Some(p) = args.data.clone() {
        builder = builder.path(p);
    }
    if let Some(n) = args.wal_shards {
        builder = builder.wal_shards(n);
    }
    if let Some(ms) = args.checkpoint_every_ms {
        builder = builder.checkpoint_every(std::time::Duration::from_millis(ms));
    }
    if let Some(cap) = args.wal_retention_segments {
        builder = builder.wal_retention_segments(cap);
    }
    let db_cfg = match builder.build() {
        Ok(cfg) => cfg,
        Err(e) => usage(&e.to_string()),
    };
    let db = match open_or_recover(db_cfg, Arc::new(SystemClock), &hierarchies) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("instantdb-leader: cannot open engine: {e}");
            std::process::exit(1);
        }
    };

    let repl = match ReplListener::start(
        Arc::clone(&db),
        ReplConfig {
            addr: args.repl_addr,
            tick: std::time::Duration::from_millis(args.repl_tick_ms),
            ..ReplConfig::default()
        },
    ) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("instantdb-leader: cannot bind replication listener: {e}");
            std::process::exit(1);
        }
    };

    let server_cfg = ServerConfig {
        addr: args.addr,
        max_connections: args.max_conns,
        degrade_every: args.degrade_every_ms.map(std::time::Duration::from_millis),
        ..ServerConfig::default()
    };
    let server = match Server::start(db, hierarchies, server_cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("instantdb-leader: cannot bind: {e}");
            std::process::exit(1);
        }
    };
    // Scripts (and the CI smoke lane) wait for these exact lines.
    println!("instantdb-leader listening on {}", server.local_addr());
    println!("instantdb-leader repl listening on {}", repl.local_addr());
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
                        println!("{:?}", server.stats());
                        println!("followers={} acks={}", repl.followers(), repl.acks());
                        let _ = std::io::stdout().flush();
                    }
                    "" => {}
                    other => eprintln!("instantdb-leader: unknown control '{other}'"),
                },
                Err(_) => break,
            }
        }
        // Shippers go first so their retention holds are released before
        // the engine (and its checkpoint daemon) winds down.
        if let Err(e) = repl.shutdown() {
            eprintln!("instantdb-leader: replication shutdown error: {e}");
        }
        match server.shutdown() {
            Ok(()) => println!("instantdb-leader: clean shutdown"),
            Err(e) => {
                eprintln!("instantdb-leader: shutdown error: {e}");
                std::process::exit(1);
            }
        }
    } else {
        loop {
            std::thread::park();
        }
    }
}
