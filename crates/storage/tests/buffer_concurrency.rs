//! Multi-threaded buffer-pool stress: concurrent readers and writers
//! across shards under eviction pressure. Verifies the sharded pool's
//! invariants end to end — no lost writes, no torn reads, stable counters,
//! capacity respected — while frames are continuously evicted and faulted
//! back in.
//!
//! Run with `--release` for meaningful stress (the CI release lane does).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use instant_common::PageId;
use instant_storage::{BufferPool, DiskManager, PAGE_SIZE};

const _: () = assert!(PAGE_SIZE >= 64, "payload layout below assumes room");

/// Payload layout: the counter at bytes [0,8) duplicated at [8,16).
/// A torn read (write latch not exclusive) would show a mismatch.
fn write_counter(payload: &mut [u8], v: u64) {
    payload[0..8].copy_from_slice(&v.to_le_bytes());
    payload[8..16].copy_from_slice(&v.to_le_bytes());
}

fn read_counter(payload: &[u8]) -> (u64, u64) {
    (
        u64::from_le_bytes(payload[0..8].try_into().unwrap()),
        u64::from_le_bytes(payload[8..16].try_into().unwrap()),
    )
}

#[test]
fn concurrent_readers_writers_under_eviction_pressure() {
    // One shard serializes every pin on a single map; eight spread them.
    for shards in [1, 8] {
        readers_writers_under_eviction_pressure(shards);
    }
}

fn readers_writers_under_eviction_pressure(shards: usize) {
    const PAGES: usize = 96;
    const FRAMES: usize = 24; // 4x over-subscribed: constant eviction
    const WRITERS: usize = 4;
    const READERS: usize = 4;
    const ROUNDS: u64 = if cfg!(debug_assertions) { 60 } else { 400 };

    let disk = Arc::new(DiskManager::temp("buf-stress").unwrap());
    let bp = Arc::new(BufferPool::with_shards(disk, FRAMES, shards));
    let pages: Vec<PageId> = (0..PAGES).map(|_| bp.allocate_page().unwrap()).collect();
    for &id in &pages {
        bp.with_page_mut(id, |p| write_counter(p.payload_mut(), 0))
            .unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    // Writers start only once every reader has made its first read, so
    // the readers cannot all miss the writers' run.
    let start = Arc::new(Barrier::new(READERS + WRITERS));
    let mut handles = Vec::new();

    // Writers: disjoint page ranges, each page incremented ROUNDS times.
    let per_writer = PAGES / WRITERS;
    for w in 0..WRITERS {
        let bp = bp.clone();
        let mine: Vec<PageId> = pages[w * per_writer..(w + 1) * per_writer].to_vec();
        let start = start.clone();
        handles.push(std::thread::spawn(move || {
            start.wait();
            for round in 1..=ROUNDS {
                for &id in &mine {
                    bp.with_page_mut(id, |p| {
                        let (a, b) = read_counter(p.payload());
                        assert_eq!(a, b, "torn frame under write latch");
                        assert_eq!(a, round - 1, "lost write on {id}");
                        write_counter(p.payload_mut(), round);
                    })
                    .unwrap();
                }
            }
        }));
    }

    // Readers: hammer random pages, checking coherence only (the counter
    // value races the writers, but the two copies must always agree).
    let mut reader_handles = Vec::new();
    for r in 0..READERS {
        let bp = bp.clone();
        let pages = pages.clone();
        let stop = stop.clone();
        let start = start.clone();
        reader_handles.push(std::thread::spawn(move || {
            let mut x = 0x9E37_79B9u64 + r as u64; // per-thread LCG
            let mut read_one = || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let id = pages[(x >> 33) as usize % pages.len()];
                let (a, b) = bp.with_page(id, |p| read_counter(p.payload())).unwrap();
                assert_eq!(a, b, "torn read on {id}");
                assert!(a <= ROUNDS, "counter beyond writer progress on {id}");
            };
            read_one();
            start.wait();
            let mut reads = 1usize;
            while !stop.load(Ordering::Relaxed) {
                read_one();
                reads += 1;
            }
            reads
        }));
    }

    // A flusher thread exercises checkpoint paths concurrently.
    let flusher = {
        let bp = bp.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                bp.flush_all().unwrap();
                std::thread::yield_now();
            }
        })
    };

    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let total_reads: usize = reader_handles.into_iter().map(|h| h.join().unwrap()).sum();
    flusher.join().unwrap();

    assert!(total_reads > 0, "readers made progress");
    // No lost writes: every page holds its writer's final count, even
    // after the frame cycled through eviction many times.
    for &id in &pages {
        let (a, b) = bp.with_page(id, |p| read_counter(p.payload())).unwrap();
        assert_eq!((a, b), (ROUNDS, ROUNDS), "final count on {id}");
    }
    assert!(bp.resident() <= FRAMES, "capacity bound violated");
    let (hits, misses, evictions) = bp.stats();
    assert!(evictions > 0, "over-subscription must evict");
    // Every access is exactly one hit or one miss; at minimum the setup
    // and verification touches are accounted for.
    assert!(hits + misses >= (PAGES as u64) * 2 + total_reads as u64);
}

#[test]
fn concurrent_allocations_yield_unique_resident_pages() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 50;

    let disk = Arc::new(DiskManager::temp("buf-alloc-race").unwrap());
    let bp = Arc::new(BufferPool::with_shards(disk, 64, 8));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let bp = bp.clone();
        handles.push(std::thread::spawn(move || {
            let mut ids = Vec::with_capacity(PER_THREAD);
            for i in 0..PER_THREAD {
                let id = bp.allocate_page().unwrap();
                bp.with_page_mut(id, |p| {
                    write_counter(p.payload_mut(), (t * PER_THREAD + i) as u64)
                })
                .unwrap();
                ids.push(id);
            }
            ids
        }));
    }
    let mut all: Vec<PageId> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), THREADS * PER_THREAD, "duplicate page ids");
    assert!(bp.resident() <= 64);
    // Everything written survives the eviction churn of the race.
    for (i, &id) in all.iter().enumerate() {
        let (a, b) = bp.with_page(id, |p| read_counter(p.payload())).unwrap();
        assert_eq!(a, b, "torn page {i}");
    }
}

#[test]
fn pinned_frames_block_eviction_but_not_other_shards() {
    // A long-running reader pins one page; writers on other pages keep
    // making progress (their shards and frames are independent).
    let disk = Arc::new(DiskManager::temp("buf-pin-progress").unwrap());
    let bp = Arc::new(BufferPool::with_shards(disk, 8, 4));
    let pinned_page = bp.allocate_page().unwrap();
    bp.with_page_mut(pinned_page, |p| write_counter(p.payload_mut(), 7))
        .unwrap();

    let entered = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let holder = {
        let bp = bp.clone();
        let entered = entered.clone();
        let release = release.clone();
        std::thread::spawn(move || {
            bp.with_page(pinned_page, |p| {
                entered.store(true, Ordering::Release);
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                read_counter(p.payload())
            })
            .unwrap()
        })
    };
    while !entered.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    // With the pin held, churn far more pages than the pool has frames.
    for i in 0..32u64 {
        let id = bp.allocate_page().unwrap();
        bp.with_page_mut(id, |p| write_counter(p.payload_mut(), i))
            .unwrap();
    }
    release.store(true, Ordering::Release);
    assert_eq!(holder.join().unwrap(), (7, 7));
    assert_eq!(
        bp.with_page(pinned_page, |p| read_counter(p.payload()))
            .unwrap(),
        (7, 7),
        "pinned page never evicted out from under its reader"
    );
}
