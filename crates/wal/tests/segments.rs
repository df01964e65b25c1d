//! Segmented-WAL contracts, end to end:
//!
//! * an acknowledged commit whose records live in segment N survives the
//!   deletion of every segment below N (the checkpoint-truncation path);
//! * a crash whose torn point lands **exactly on a segment boundary** —
//!   whether the tail segment is chopped back to its header or its file
//!   vanishes entirely — loses nothing before the boundary, and the
//!   reopened log accepts reachable appends;
//! * truncation never rewrites a retained byte (same files, same sizes,
//!   same mtimes), and a commit issued while a truncation runs is
//!   acknowledged without waiting on the unlink I/O.

use std::path::PathBuf;
use std::sync::Arc;

use instant_common::{Duration, TableId, Timestamp, TupleId, TxId};
use instant_wal::group::{GroupCommit, GroupCommitConfig};
use instant_wal::record::{LogRecord, Payload};
use instant_wal::segment;
use instant_wal::{recovery, KeyStore, Wal};
use proptest::prelude::*;

fn batch(tx: u64) -> Vec<LogRecord> {
    let at = Timestamp::micros(tx);
    vec![
        LogRecord::Begin { tx: TxId(tx), at },
        LogRecord::Insert {
            tx: TxId(tx),
            table: TableId(1),
            tid: TupleId::new(1, (tx % u16::MAX as u64) as u16),
            row: Payload::Plain(format!("row-{tx}").into_bytes()),
            at,
        },
        LogRecord::Commit { tx: TxId(tx), at },
    ]
}

fn rec(i: u64) -> LogRecord {
    LogRecord::Insert {
        tx: TxId(i),
        table: TableId(1),
        tid: TupleId::new(1, (i % u16::MAX as u64) as u16),
        row: Payload::Plain(format!("row-{i}").into_bytes()),
        at: Timestamp::micros(i),
    }
}

fn ks() -> KeyStore {
    KeyStore::new(Duration::hours(1), 7)
}

/// A pipeline over a lone log: shard 0 of a set of one.
fn pipeline(wal: &Arc<Wal>, cfg: GroupCommitConfig) -> GroupCommit {
    GroupCommit::spawn(wal.clone(), 0, cfg, Arc::new(instant_obs::Obs::new())).unwrap()
}

/// Unique non-ephemeral log dir (tests that reopen across a simulated
/// crash need the path to outlive the `Wal`).
fn scratch(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "instantdb-segtest-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

#[test]
fn acknowledged_commit_in_segment_n_survives_deletion_of_older_segments() {
    // Regression for the checkpoint-truncation path: commits land in
    // segment N, every segment below N is deleted, and the acknowledged
    // work still replays in full.
    let wal = Arc::new(Wal::temp("seg-ack").unwrap());
    let gc = pipeline(&wal, GroupCommitConfig::default());
    for tx in 0..20 {
        gc.commit(batch(tx)).unwrap();
        if tx % 5 == 4 {
            wal.rotate().unwrap(); // several sealed segments build up
        }
    }
    // The acknowledged commits under test live in the *last* segment.
    for tx in 20..23 {
        gc.commit(batch(tx)).unwrap();
    }
    gc.stop();

    let boundary = wal.next_lsn() - 9; // first LSN of the last segment
    let dropped = wal.truncate_before(boundary).unwrap();
    assert_eq!(dropped, 60, "all twenty 3-record batches below the cut die");
    assert!(wal.segment_stats().segments_deleted >= 4);

    let plan = recovery::replay(&wal.iterate().unwrap(), None, &ks());
    assert_eq!(plan.ops.len(), 3, "exactly the retained inserts replay");
    for tx in 20..23 {
        assert!(
            plan.committed.contains(&TxId(tx)),
            "acknowledged tx {tx} must survive deletion of older segments"
        );
    }
}

#[test]
fn truncation_never_touches_retained_segment_files() {
    // The no-rewrite guarantee, asserted structurally: after truncation,
    // every retained segment is the *same file* — same path, same size,
    // same mtime — and no temporary rewrite artifacts appear.
    let wal = Wal::temp("seg-norewrite").unwrap();
    for i in 0..40 {
        wal.append(&rec(i)).unwrap();
        if i % 10 == 9 {
            wal.rotate().unwrap();
        }
    }
    wal.sync().unwrap();
    let before: Vec<(PathBuf, u64, std::time::SystemTime)> = segment::list_segments(wal.path())
        .unwrap()
        .into_iter()
        .map(|(_, p)| {
            let m = std::fs::metadata(&p).unwrap();
            (p, m.len(), m.modified().unwrap())
        })
        .collect();
    assert_eq!(before.len(), 5, "four sealed segments + the active one");

    let dropped = wal.truncate_before(20).unwrap();
    assert_eq!(dropped, 20);

    let after: Vec<(PathBuf, u64, std::time::SystemTime)> = segment::list_segments(wal.path())
        .unwrap()
        .into_iter()
        .map(|(_, p)| {
            let m = std::fs::metadata(&p).unwrap();
            (p, m.len(), m.modified().unwrap())
        })
        .collect();
    assert_eq!(
        after,
        before[2..].to_vec(),
        "retained segments byte-for-byte untouched, dead ones gone"
    );
    // No rewrite droppings (tmp files) either.
    for entry in std::fs::read_dir(wal.path()).unwrap() {
        let name = entry.unwrap().file_name();
        assert!(
            segment::parse_file_name(name.to_str().unwrap()).is_some(),
            "unexpected non-segment file after truncation: {name:?}"
        );
    }
}

#[test]
fn commit_is_acknowledged_while_truncation_runs() {
    // Truncation holds the Wal lock only to splice its in-memory segment
    // list; the unlinks happen outside it. A committer racing the
    // truncation of hundreds of dead segments must therefore be
    // acknowledged promptly — not after an O(live log) rewrite, which on
    // the seed implementation stalled every commit ack.
    let wal = Arc::new(Wal::temp("seg-conc").unwrap());
    for i in 0..400u64 {
        wal.append(&rec(i)).unwrap();
        if i % 2 == 1 {
            wal.rotate().unwrap(); // ~200 dead segments
        }
    }
    wal.sync().unwrap();
    let boundary = wal.next_lsn();
    wal.rotate().unwrap();

    let gc = pipeline(&wal, GroupCommitConfig::default());
    let started = std::time::Instant::now();
    std::thread::scope(|s| {
        let wal_t = wal.clone();
        let truncator = s.spawn(move || wal_t.truncate_before(boundary).unwrap());
        // Commits issued while the truncation runs: each must come back
        // acknowledged and durable.
        for tx in 0..20 {
            gc.commit(batch(1000 + tx)).unwrap();
        }
        assert_eq!(truncator.join().unwrap(), 400);
    });
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "commits + segment-delete truncation must not serialize behind \
         log-sized work (took {elapsed:?})"
    );
    let plan = recovery::replay(&wal.iterate().unwrap(), None, &ks());
    for tx in 0..20 {
        assert!(plan.committed.contains(&TxId(1000 + tx)));
    }
    assert_eq!(wal.base_lsn(), 400);
}

#[test]
fn crash_that_loses_the_entire_tail_segment_file_recovers_to_the_boundary() {
    // Torn point exactly on a segment boundary, hardest flavor: the tail
    // segment's *file* is gone (crash before its directory entry or
    // header ever became durable). Everything in the sealed segments
    // stays; the reopened log appends reachably from the boundary.
    let path = scratch("lost-tail");
    {
        let wal = Wal::open(&path).unwrap();
        for i in 0..12 {
            wal.append(&rec(i)).unwrap();
        }
        wal.rotate().unwrap();
        for i in 12..15 {
            wal.append(&rec(i)).unwrap();
        }
        wal.sync().unwrap();
    }
    let last = segment::list_segments(&path).unwrap().pop().unwrap().1;
    std::fs::remove_file(last).unwrap();
    {
        let wal = Wal::open(&path).unwrap();
        assert_eq!(wal.next_lsn(), 12, "log ends exactly at the boundary");
        assert_eq!(wal.base_lsn(), 0);
        assert_eq!(wal.append(&rec(12)).unwrap(), 12);
        wal.sync().unwrap();
        let back = wal.iterate().unwrap();
        assert_eq!(back.len(), 13);
        assert_eq!(back[12].1, rec(12));
    }
    std::fs::remove_dir_all(&path).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Crash-recovery property: the torn point lands exactly on a segment
    /// boundary — the active segment is chopped back to precisely its
    /// header, leaving zero torn frame bytes. Recovery must keep every
    /// record of the sealed segments, lose only the tail segment's
    /// records, and leave the log appendable.
    #[test]
    fn torn_point_exactly_on_segment_boundary_loses_only_the_tail_segment(
        chunks in proptest::collection::vec(1usize..12, 2..6),
    ) {
        let path = scratch("boundary-prop");
        let total: usize = chunks.iter().sum();
        let kept: usize = total - chunks.last().unwrap();
        let tail_bytes;
        {
            let wal = Wal::open(&path).unwrap();
            let mut i = 0u64;
            for (ci, chunk) in chunks.iter().enumerate() {
                for _ in 0..*chunk {
                    wal.append(&rec(i)).unwrap();
                    i += 1;
                }
                if ci + 1 < chunks.len() {
                    wal.rotate().unwrap();
                }
            }
            wal.sync().unwrap();
            let last = segment::list_segments(&path).unwrap().pop().unwrap().1;
            tail_bytes = std::fs::metadata(&last).unwrap().len()
                - segment::SEGMENT_HEADER_LEN;
            // The crash chops off every frame byte of the active segment:
            // the usable log now ends exactly on the rotation boundary.
            wal.torn_tail(tail_bytes).unwrap();
        }
        prop_assert!(tail_bytes > 0);
        {
            let wal = Wal::open(&path).unwrap();
            prop_assert_eq!(wal.next_lsn(), kept as u64);
            let back = wal.iterate().unwrap();
            prop_assert_eq!(back.len(), kept);
            for (lsn, got) in &back {
                prop_assert_eq!(got, &rec(*lsn));
            }
            // Post-crash appends are reachable.
            prop_assert_eq!(wal.append(&rec(kept as u64)).unwrap(), kept as u64);
            wal.sync().unwrap();
            prop_assert_eq!(wal.iterate().unwrap().len(), kept + 1);
        }
        std::fs::remove_dir_all(&path).unwrap();
    }
}
