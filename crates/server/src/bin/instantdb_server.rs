//! `instantdb-server` — serve an InstantDB data directory over TCP.
//!
//! ```text
//! instantdb-server --addr 127.0.0.1:5433 --data /var/lib/idb/main \
//!     [--max-conns N] [--max-frame-bytes N]
//!     [--wal-shards N] [--checkpoint-every-ms N] [--degrade-every-ms N]
//!     [--slow-query-ms N] [--stdin-control]
//! ```
//!
//! The checkpointer runs every `--checkpoint-every-ms` (default 1000):
//! each checkpoint shreds the key windows and deletes the log segments
//! that predate it, so it is what bounds the log while the server runs.
//!
//! `--degrade-every-ms` is the longest the degradation pump sleeps: it
//! wakes at the next transition's due time, but no sooner than
//! `PUMP_FLOOR` after its last batch.
//!
//! Without `--data` the engine is ephemeral (temp files, gone on exit).
//! With it, the server journals DDL and recovers tables + committed WAL
//! suffix on restart. `--stdin-control` reads lines from stdin and shuts
//! down gracefully on `shutdown` or EOF — the hook CI's smoke lane (and
//! any supervisor with a control pipe) uses; otherwise the process serves
//! until killed (acknowledged commits are WAL-durable either way).

use std::sync::Arc;

use instant_common::SystemClock;
use instant_core::query::HierarchyRegistry;
use instant_core::DbConfig;
use instant_lcp::gtree::location_tree_fig1;
use instant_server::{open_or_recover, Server, ServerConfig};

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: instantdb-server [--addr A] [--data PATH] [--max-conns N] \
         [--max-frame-bytes N] \
         [--wal-shards N] [--checkpoint-every-ms N] [--degrade-every-ms N] \
         [--slow-query-ms N] [--stdin-control]"
    );
    eprintln!(
        "  --checkpoint-every-ms N  checkpoint interval (default 1000): each checkpoint \
         shreds old key windows and deletes dead log segments"
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
    data: Option<std::path::PathBuf>,
    max_conns: usize,
    max_frame_bytes: u32,
    wal_shards: Option<usize>,
    checkpoint_every_ms: u64,
    degrade_every_ms: Option<u64>,
    slow_query_ms: Option<u64>,
    stdin_control: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:5433".into(),
        data: None,
        max_conns: 64,
        max_frame_bytes: instant_server::protocol::DEFAULT_MAX_FRAME_BYTES,
        wal_shards: None,
        checkpoint_every_ms: 1000,
        degrade_every_ms: Some(250),
        slow_query_ms: None,
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
            "--data" => args.data = Some(value("--data").into()),
            "--max-conns" => args.max_conns = parse(&value("--max-conns"), "--max-conns"),
            "--max-frame-bytes" => {
                args.max_frame_bytes = parse(&value("--max-frame-bytes"), "--max-frame-bytes")
            }
            "--wal-shards" => args.wal_shards = Some(parse(&value("--wal-shards"), "--wal-shards")),
            "--checkpoint-every-ms" => {
                args.checkpoint_every_ms =
                    parse(&value("--checkpoint-every-ms"), "--checkpoint-every-ms")
            }
            "--degrade-every-ms" => {
                args.degrade_every_ms =
                    Some(parse(&value("--degrade-every-ms"), "--degrade-every-ms"))
            }
            "--no-degrade" => args.degrade_every_ms = None,
            "--slow-query-ms" => {
                args.slow_query_ms = Some(parse(&value("--slow-query-ms"), "--slow-query-ms"))
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
    // Built-in domain hierarchies remote DDL can reference by name.
    hierarchies.register("location_gt", Arc::new(location_tree_fig1()));

    // Assemble the engine config through the validating builder: a bad
    // combination (e.g. `--wal-shards 0`) is rejected here with a usage
    // error instead of reaching `Db::open` half-configured.
    let mut builder = DbConfig::builder()
        .checkpoint_every(std::time::Duration::from_millis(args.checkpoint_every_ms));
    if let Some(p) = args.data.clone() {
        builder = builder.path(p);
    }
    if let Some(n) = args.wal_shards {
        builder = builder.wal_shards(n);
    }
    if let Some(ms) = args.slow_query_ms {
        builder = builder.slow_query(std::time::Duration::from_millis(ms));
    }
    let db_cfg = match builder.build() {
        Ok(cfg) => cfg,
        Err(e) => usage(&e.to_string()),
    };
    let db = match open_or_recover(db_cfg, Arc::new(SystemClock), &hierarchies) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("instantdb-server: cannot open engine: {e}");
            std::process::exit(1);
        }
    };
    let server_cfg = ServerConfig {
        addr: args.addr,
        max_connections: args.max_conns,
        max_frame_bytes: args.max_frame_bytes,
        degrade_every: args.degrade_every_ms.map(std::time::Duration::from_millis),
        ..ServerConfig::default()
    };
    let server = match Server::start(db, hierarchies, server_cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("instantdb-server: cannot bind: {e}");
            std::process::exit(1);
        }
    };
    // Scripts (and the CI smoke lane) wait for this exact line.
    println!("instantdb-server listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    if args.stdin_control {
        // Control protocol: any `shutdown` line (or EOF) triggers a
        // graceful stop; `stats` prints a counter snapshot.
        let stdin = std::io::stdin();
        let mut line = String::new();
        loop {
            line.clear();
            use std::io::BufRead as _;
            match stdin.lock().read_line(&mut line) {
                Ok(0) => break, // EOF: controller went away
                Ok(_) => match line.trim() {
                    "shutdown" | "quit" | "exit" => break,
                    "stats" => {
                        println!("{:?}", server.stats());
                        let _ = std::io::stdout().flush();
                    }
                    "" => {}
                    other => eprintln!("instantdb-server: unknown control '{other}'"),
                },
                Err(_) => break,
            }
        }
        match server.shutdown() {
            Ok(()) => println!("instantdb-server: clean shutdown"),
            Err(e) => {
                eprintln!("instantdb-server: shutdown error: {e}");
                std::process::exit(1);
            }
        }
    } else {
        // Serve until the process is killed.
        loop {
            std::thread::park();
        }
    }
}
