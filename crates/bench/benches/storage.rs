//! E12 micro-benchmarks: the storage substrate.
//!
//! * heap insert/update/delete with secure overwrite vs naive (the price of
//!   physical erasure);
//! * vacuum throughput;
//! * WAL append+sync with plain vs sealed payloads (the cipher's cost).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use instant_common::{Timestamp, TupleId};
use instant_storage::{BufferPool, DiskManager, HeapFile, SecurePolicy};
use instant_wal::record::{LogRecord, Payload};
use instant_wal::{KeyStore, Wal};

fn heap(policy: SecurePolicy) -> HeapFile {
    let disk = Arc::new(DiskManager::temp("bench-heap").unwrap());
    HeapFile::create(
        Arc::new(BufferPool::new(disk, 4096)),
        instant_common::TableId(1),
        policy,
    )
}

fn bench_heap_ops(c: &mut Criterion) {
    let record = vec![0xABu8; 100];
    let mut group = c.benchmark_group("heap_ops_100B");
    group.throughput(Throughput::Elements(256));
    group.sample_size(20);
    for policy in [SecurePolicy::Naive, SecurePolicy::Overwrite] {
        let label = format!("{policy:?}");
        group.bench_function(BenchmarkId::new("insert", &label), |b| {
            // Fresh heap per batch so the file does not grow unboundedly
            // across criterion's sampling iterations.
            b.iter_batched(
                || heap(policy),
                |h| {
                    for _ in 0..256 {
                        h.insert(&record, 128).unwrap();
                    }
                },
                criterion::BatchSize::SmallInput,
            );
        });
        group.bench_function(BenchmarkId::new("update_in_place", &label), |b| {
            let h = heap(policy);
            let tid = h.insert(&record, 128).unwrap();
            b.iter(|| h.update(tid, &record[..60]).unwrap());
        });
        group.bench_function(BenchmarkId::new("delete+reinsert", &label), |b| {
            let h = heap(policy);
            let mut tid = h.insert(&record, 128).unwrap();
            b.iter(|| {
                h.delete(tid).unwrap();
                tid = h.insert(&record, 128).unwrap();
            });
        });
    }
    group.finish();
}

fn bench_vacuum(c: &mut Criterion) {
    let mut group = c.benchmark_group("vacuum");
    group.sample_size(10);
    group.bench_function("10k_records_half_deleted", |b| {
        b.iter_batched(
            || {
                let h = heap(SecurePolicy::Naive);
                let mut tids = Vec::new();
                for i in 0..10_000u32 {
                    tids.push(h.insert(format!("record-{i:06}").as_bytes(), 32).unwrap());
                }
                for (i, tid) in tids.iter().enumerate() {
                    if i % 2 == 0 {
                        h.delete(*tid).unwrap();
                    }
                }
                h
            },
            |h| h.vacuum().unwrap(),
            criterion::BatchSize::PerIteration,
        );
    });
    group.finish();
}

fn bench_wal_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_append_sync_128B");
    group.throughput(Throughput::Elements(1));
    group.sample_size(20);
    let body = vec![0x5Au8; 128];
    group.bench_function("plain", |b| {
        let wal = Wal::temp("bench-plain").unwrap();
        b.iter(|| {
            wal.append(&LogRecord::Insert {
                tx: instant_common::TxId(1),
                table: instant_common::TableId(1),
                tid: TupleId::new(1, 0),
                row: Payload::Plain(body.clone()),
                at: Timestamp::ZERO,
            })
            .unwrap();
            wal.sync().unwrap();
        });
    });
    group.bench_function("sealed", |b| {
        let wal = Wal::temp("bench-sealed").unwrap();
        let ks = KeyStore::new(instant_common::Duration::hours(1), 9);
        b.iter(|| {
            let sealed = Payload::seal(&ks, Timestamp::ZERO, &body).unwrap();
            wal.append(&LogRecord::Insert {
                tx: instant_common::TxId(1),
                table: instant_common::TableId(1),
                tid: TupleId::new(1, 0),
                row: sealed,
                at: Timestamp::ZERO,
            })
            .unwrap();
            wal.sync().unwrap();
        });
    });
    group.finish();
}

criterion_group!(benches, bench_heap_ops, bench_vacuum, bench_wal_append);
criterion_main!(benches);
