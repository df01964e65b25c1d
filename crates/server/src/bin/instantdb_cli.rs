//! `instantdb-cli` — drive an `instantdb-server` from scripts or a REPL.
//!
//! ```text
//! instantdb-cli --addr 127.0.0.1:5433 -e "CREATE TABLE kv (k INT INDEXED, v TEXT)" \
//!                                     -e "INSERT INTO kv VALUES (1, 'hello')"
//! instantdb-cli --addr 127.0.0.1:5433 -e "SELECT v FROM kv WHERE k = 1"
//! instantdb-cli --addr 127.0.0.1:5433 --ping --wait-ms 5000
//! ```
//!
//! Each `-e` statement executes in order on one connection (so a
//! `DECLARE PURPOSE` applies to the following `SELECT`s). Without `-e`
//! the CLI reads statements line by line from stdin. `--wait-ms` retries
//! the initial connect until the deadline — handy right after spawning a
//! server. Rows print tab-separated with a header line; the process exits
//! non-zero on the first failed statement.

use std::time::{Duration, Instant};

use instant_core::query::QueryOutput;
use instant_server::Client;

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!("usage: instantdb-cli [--addr A] [-e SQL]... [--ping] [--wait-ms N] [--quiet]");
    std::process::exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:5433".to_string();
    let mut statements: Vec<String> = Vec::new();
    let mut ping = false;
    let mut wait_ms: u64 = 0;
    let mut quiet = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr"),
            "-e" | "--execute" => statements.push(value("-e")),
            "--ping" => ping = true,
            "--wait-ms" => {
                wait_ms = value("--wait-ms")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --wait-ms value"))
            }
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => usage("help requested"),
            other => usage(&format!("unknown flag {other}")),
        }
    }

    let mut client = match connect_or_wait(&addr, wait_ms) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("instantdb-cli: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };

    if ping {
        match client.ping() {
            Ok(()) => {
                if !quiet {
                    println!("pong");
                }
            }
            Err(e) => {
                eprintln!("instantdb-cli: ping failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let from_stdin = statements.is_empty() && !ping;
    if from_stdin {
        use std::io::BufRead as _;
        for line in std::io::stdin().lock().lines() {
            let Ok(line) = line else { break };
            let sql = line.trim();
            if sql.is_empty() || sql.starts_with("--") {
                continue;
            }
            if !run_one(&mut client, sql, quiet) {
                std::process::exit(1);
            }
        }
    } else {
        for sql in &statements {
            if !run_one(&mut client, sql, quiet) {
                std::process::exit(1);
            }
        }
    }
    let _ = client.close();
}

fn connect_or_wait(addr: &str, wait_ms: u64) -> Result<Client, instant_common::Error> {
    let deadline = Instant::now() + Duration::from_millis(wait_ms);
    loop {
        match Client::connect(addr) {
            Ok(c) => return Ok(c),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Execute + print one statement; `false` on failure.
fn run_one(client: &mut Client, sql: &str, quiet: bool) -> bool {
    match client.query(sql) {
        Ok(output) => {
            if !quiet {
                print_output(&output);
            }
            true
        }
        Err(e) => {
            eprintln!("instantdb-cli: [{}] {e}", e.class());
            false
        }
    }
}

fn print_output(output: &QueryOutput) {
    match output {
        QueryOutput::TableCreated(name) => println!("created table {name}"),
        QueryOutput::Inserted(n) => println!("inserted {n}"),
        QueryOutput::Deleted(n) => println!("deleted {n}"),
        QueryOutput::PurposeDeclared(name) => println!("purpose {name} declared"),
        QueryOutput::Checkpointed => println!("checkpointed"),
        QueryOutput::Rows(r) => {
            println!("{}", r.columns.join("\t"));
            for row in &r.rows {
                let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                println!("{}", cells.join("\t"));
            }
            println!("({} rows)", r.rows.len());
        }
        QueryOutput::Stats(snap) => print_stats(snap),
    }
}

fn print_stats(snap: &instant_obs::StatsSnapshot) {
    println!("histogram\tcount\tp50_us\tp95_us\tp99_us\tmax_us");
    for (name, h) in &snap.hists {
        if h.is_empty() {
            continue;
        }
        println!(
            "{name}\t{}\t{}\t{}\t{}\t{}",
            h.count,
            h.p50(),
            h.p95(),
            h.p99(),
            h.max_micros
        );
    }
    for (name, v) in &snap.counters {
        println!("counter\t{name}\t{v}");
    }
    for (name, v) in &snap.gauges {
        println!("gauge\t{name}\t{v}");
    }
    for (purpose, c) in &snap.purposes {
        println!("purpose\t{purpose}\tqueries={}\trows={}", c.queries, c.rows);
    }
    for q in &snap.slow_queries {
        println!(
            "slow_query\t{}\tpurpose={}\telapsed_us={}",
            q.kind, q.purpose, q.elapsed_micros
        );
    }
}
