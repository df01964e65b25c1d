//! E9: index structures across accuracy regimes.
//!
//! The paper's indexing challenge: selective OLTP predicates at the
//! accurate level vs broad predicates over the collapsed-cardinality
//! degraded levels. Three parts:
//!
//! * raw structure probes at d0 cardinality (B+-tree vs bitmap vs linear
//!   scan) — B+-tree should win;
//! * raw structure probes at d3 cardinality (2 distinct values, huge
//!   postings) — bitmap should win;
//! * engine-level SELECT through the multi-level index vs forced seq scan.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use instant_common::{Duration, LevelId, MockClock, TupleId, Value};
use instant_core::db::{Db, DbConfig, WalMode};
use instant_core::query::session::Session;
use instant_index::bitmap::BitmapIndex;
use instant_index::btree::BPlusTree;
use instant_index::SecondaryIndex;
use instant_workload::location::{LocationDomain, LocationShape};
use instant_workload::rng::Rng;

const N: usize = 100_000;

fn raw_structures(c: &mut Criterion) {
    // d0 regime: N distinct int keys, point lookups.
    let mut btree = BPlusTree::new();
    let mut bitmap = BitmapIndex::new();
    let mut scan_table: Vec<(i64, TupleId)> = Vec::new();
    for i in 0..N as i64 {
        let tid = TupleId::unpack(i as u64);
        let v = Value::Int(i);
        btree.insert(&v, tid);
        bitmap.insert(&v, tid);
        scan_table.push((i, tid));
    }
    let mut group = c.benchmark_group("point_lookup_d0_100k_keys");
    let probe = Value::Int((N / 2) as i64);
    group.bench_function("btree", |b| b.iter(|| btree.get(&probe)));
    group.bench_function("bitmap", |b| b.iter(|| bitmap.get(&probe)));
    group.bench_function("seq_scan", |b| {
        b.iter(|| {
            scan_table
                .iter()
                .filter(|(k, _)| *k == (N / 2) as i64)
                .map(|(_, t)| *t)
                .collect::<Vec<_>>()
        })
    });
    group.finish();

    // d3 regime: 2 distinct keys (countries), equality selects half the store.
    let mut btree3 = BPlusTree::new();
    let mut bitmap3 = BitmapIndex::new();
    let fr = Value::Str("Country00".into());
    let nl = Value::Str("Country01".into());
    let mut scan3: Vec<(u8, TupleId)> = Vec::new();
    for i in 0..N as u64 {
        let tid = TupleId::unpack(i);
        let (v, tag) = if i % 2 == 0 { (&fr, 0u8) } else { (&nl, 1u8) };
        btree3.insert(v, tid);
        bitmap3.insert(v, tid);
        scan3.push((tag, tid));
    }
    let mut group = c.benchmark_group("broad_lookup_d3_2_keys");
    group.throughput(Throughput::Elements((N / 2) as u64));
    group.bench_function("btree", |b| b.iter(|| btree3.get(&fr).len()));
    group.bench_function("bitmap", |b| b.iter(|| bitmap3.get(&fr).len()));
    group.bench_function("bitmap_count_only", |b| {
        b.iter(|| bitmap3.bitmap(&fr).unwrap().count_ones())
    });
    group.bench_function("seq_scan", |b| {
        b.iter(|| scan3.iter().filter(|(t, _)| *t == 0).count())
    });
    group.finish();

    // Conjunctive selection at degraded levels — the regime bitmaps exist
    // for: country = X AND band = Y as a word-wise AND vs intersecting
    // B+-tree postings through a hash set.
    let mut band_bitmap = BitmapIndex::new();
    let mut band_btree = BPlusTree::new();
    let band_a = Value::Range { lo: 2000, hi: 3000 };
    let band_b = Value::Range { lo: 3000, hi: 4000 };
    for i in 0..N as u64 {
        let tid = TupleId::unpack(i);
        let v = if i % 4 == 0 { &band_a } else { &band_b };
        band_bitmap.insert(v, tid);
        band_btree.insert(v, tid);
    }
    let mut group = c.benchmark_group("conjunction_d3_country_and_band");
    group.throughput(Throughput::Elements((N / 8) as u64));
    group.bench_function("bitmap_and", |b| {
        b.iter(|| {
            let a = bitmap3.bitmap(&fr).unwrap();
            let bb = band_bitmap.bitmap(&band_a).unwrap();
            a.and(bb).count_ones()
        })
    });
    group.bench_function("btree_postings_intersect", |b| {
        b.iter(|| {
            let left: std::collections::HashSet<TupleId> = btree3.get(&fr).into_iter().collect();
            band_btree
                .get(&band_a)
                .into_iter()
                .filter(|t| left.contains(t))
                .count()
        })
    });
    group.finish();

    // Range scan at d0: B+-tree leaf walk vs full scan.
    let mut group = c.benchmark_group("range_scan_d0_1pct");
    let lo = Value::Int((N / 2) as i64);
    let hi = Value::Int((N / 2 + N / 100) as i64);
    group.bench_function("btree", |b| {
        b.iter(|| btree.range(Some(&lo), Some(&hi)).unwrap().len())
    });
    group.bench_function("seq_scan", |b| {
        b.iter(|| {
            scan_table
                .iter()
                .filter(|(k, _)| *k >= (N / 2) as i64 && *k < (N / 2 + N / 100) as i64)
                .count()
        })
    });
    group.finish();
}

fn engine_level(c: &mut Criterion) {
    let domain = LocationDomain::generate(LocationShape::default(), 0.9);
    let clock = MockClock::new();
    let db = Arc::new(
        Db::open(
            DbConfig {
                wal_mode: WalMode::Off,
                buffer_frames: 8192,
                ..DbConfig::default()
            },
            clock.shared(),
        )
        .unwrap(),
    );
    let mut session = Session::new(db.clone());
    session.register_hierarchy("geo", domain.hierarchy());
    session
        .execute(
            "CREATE TABLE events (id INT INDEXED, user TEXT, location TEXT \
             DEGRADE USING geo LCP 'd0:1h -> d2:30d -> d3:30d' INDEXED)",
        )
        .unwrap();
    let mut rng = Rng::new(3);
    for i in 0..20_000i64 {
        let addr = domain.sample_address(&mut rng).to_string();
        session
            .execute(&format!("INSERT INTO events VALUES ({i}, 'u', '{addr}')"))
            .unwrap();
    }
    // Degrade everything to d2 (regions).
    clock.advance(Duration::hours(2));
    db.pump_degradation().unwrap();
    session
        .execute("DECLARE PURPOSE P SET ACCURACY LEVEL d2 FOR LOCATION")
        .unwrap();

    let mut group = c.benchmark_group("engine_select_20k_rows_at_d2");
    group.sample_size(20);
    group.bench_function("multilevel_index_eq", |b| {
        b.iter(|| {
            session
                .execute("SELECT id FROM events WHERE location = 'Country00/Region03'")
                .unwrap()
        })
    });
    group.bench_function("seq_scan_like", |b| {
        b.iter(|| {
            // LIKE forces the scan path.
            session
                .execute("SELECT id FROM events WHERE location LIKE '%Region03%'")
                .unwrap()
        })
    });
    group.bench_function("stable_index_point", |b| {
        b.iter(|| {
            session
                .execute("SELECT id FROM events WHERE id = 12345")
                .unwrap()
        })
    });
    group.finish();
    let _ = LevelId(0);
}

criterion_group!(benches, raw_structures, engine_level);
criterion_main!(benches);
