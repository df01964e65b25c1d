//! Closed-loop multi-client commit throughput over the wire — the
//! traffic shape the group-commit pipeline was built for, finally
//! measured end to end (TCP framing + session dispatch + engine commit +
//! shared fsync).
//!
//! `server_throughput/clients/N` runs N blocking clients, each issuing a
//! stream of auto-commit `INSERT`s against one `instantdb-server`
//! in-process instance. Every insert pays a real durability point, so
//! the 1-client number is fsync-bound; with 4 and 8 clients the pipeline
//! folds concurrent committers into shared drains and throughput (in
//! elements/s) must rise well past the 1-client line — the CI bench lane
//! records the three lines in `BENCH_server.json` and asserts exactly
//! that shape.
//!
//! `server_shard_throughput/shards/{n}` reruns the 8-client burst with
//! the engine's WAL split over n shards — the must-not-regress
//! guardrail for the parallel commit backbone on the classic blocking
//! serving path (see `bench_shard_throughput`).
//!
//! The per-commit-fsync engine baseline (no network) lives in
//! `benches/group_commit.rs`; comparing the two artifacts bounds the
//! serving overhead.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use instant_common::MockClock;
use instant_core::query::HierarchyRegistry;
use instant_core::{Db, DbConfig};
use instant_server::{Client, Server, ServerConfig};

/// Inserts per client per timed iteration.
const PER_CLIENT: i64 = 50;

fn start_server() -> Server {
    start_server_with(DbConfig::default())
}

/// Serve an engine with `shards` WAL shards (independent drain
/// pipelines behind one LSN allocator).
fn start_server_sharded(shards: usize) -> Server {
    start_server_with(DbConfig::builder().wal_shards(shards).build().unwrap())
}

fn start_server_with(cfg: DbConfig) -> Server {
    let clock = MockClock::new();
    let db = Arc::new(Db::open(cfg, clock.shared()).unwrap());
    Server::start(
        db,
        HierarchyRegistry::new(),
        ServerConfig {
            max_connections: 32,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// Append the served engine's stats-snapshot histograms as NDJSON when
/// the criterion shim's sink is armed (CI writes `BENCH_server.json`).
fn append_stats(db: &Arc<Db>, prefix: &str) {
    let Ok(path) = std::env::var("CRITERION_SHIM_JSON") else {
        return;
    };
    use std::io::Write as _;
    let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    else {
        return;
    };
    for line in instant_core::metrics::stats_snapshot(db).ndjson_lines(prefix) {
        let _ = writeln!(f, "{line}");
    }
}

/// One closed-loop burst: each of the first `clients` connections fires
/// `PER_CLIENT` auto-commit inserts; every insert blocks on a real
/// durability point.
fn run_clients(pool: &[Mutex<Client>], clients: usize, next_id: &AtomicI64) {
    std::thread::scope(|s| {
        for client in pool.iter().take(clients) {
            s.spawn(move || {
                let mut client = client.lock().unwrap();
                for _ in 0..PER_CLIENT {
                    let id = next_id.fetch_add(1, Ordering::Relaxed);
                    client
                        .query(&format!("INSERT INTO events VALUES ({id}, 'payload')"))
                        .unwrap();
                }
            });
        }
    });
}

fn bench_server_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("server_throughput");
    g.sample_size(10);
    for &clients in &[1usize, 4, 8] {
        let server = start_server();
        let addr = server.local_addr().to_string();
        let mut admin = Client::connect(&addr).unwrap();
        admin
            .query("CREATE TABLE events (id INT, note TEXT)")
            .unwrap();
        // Connections are established once, outside the timed window —
        // the bench measures steady-state commit traffic, not dials.
        let pool: Vec<Mutex<Client>> = (0..clients)
            .map(|_| Mutex::new(Client::connect(&addr).unwrap()))
            .collect();
        let next_id = AtomicI64::new(0);
        g.throughput(Throughput::Elements((clients as i64 * PER_CLIENT) as u64));
        g.bench_with_input(
            BenchmarkId::new("clients", clients),
            &clients,
            |b, &clients| {
                b.iter(|| run_clients(&pool, clients, &next_id));
            },
        );
        drop(pool);
        admin.close().unwrap();
        // Dump the full observability snapshot (commit/query stage
        // percentiles, degradation lag, per-purpose counts) next to the
        // criterion lines — the CI bench lane extracts p50/p95/p99 from
        // these and gates on their shape.
        append_stats(server.db(), &format!("server_stats/clients/{clients}"));
        server.shutdown().unwrap();
    }
    g.finish();
}

/// The same 8-client closed-loop burst served from an engine with 1 vs
/// 4 WAL shards. Blocking auto-commit clients are the *hardest* shape
/// for sharding — each client has one commit in flight, so splitting C
/// committers over K shards thins every epoch to ~C/K — which is
/// exactly why it is the guardrail: multi-shard must not regress the
/// classic serving path, and on multi-core runners the parallel fsync
/// streams should still come out ahead. The pipelined win lives in
/// `group_commit.rs::wal_shard_scaling` (windowed `CommitHandle`
/// committers).
fn bench_shard_throughput(c: &mut Criterion) {
    const CLIENTS: usize = 8;
    let mut g = c.benchmark_group("server_shard_throughput");
    g.sample_size(10);
    for &shards in &[1usize, 4] {
        let server = start_server_sharded(shards);
        let addr = server.local_addr().to_string();
        let mut admin = Client::connect(&addr).unwrap();
        admin
            .query("CREATE TABLE events (id INT, note TEXT)")
            .unwrap();
        let pool: Vec<Mutex<Client>> = (0..CLIENTS)
            .map(|_| Mutex::new(Client::connect(&addr).unwrap()))
            .collect();
        let next_id = AtomicI64::new(0);
        g.throughput(Throughput::Elements((CLIENTS as i64 * PER_CLIENT) as u64));
        g.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, _| {
            b.iter(|| run_clients(&pool, CLIENTS, &next_id));
        });
        drop(pool);
        admin.close().unwrap();
        append_stats(server.db(), &format!("server_shard_stats/{shards}"));
        server.shutdown().unwrap();
    }
    g.finish();
}

criterion_group!(benches, bench_server_throughput, bench_shard_throughput);
criterion_main!(benches);
