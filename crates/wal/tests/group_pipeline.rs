//! Crash consistency of batched appends (the group-commit contract):
//!
//! * a commit is acknowledged only after the fsync covering its records,
//!   so a tear anywhere in the *unsynced* suffix — including mid-way
//!   through a group batch the crash interrupted — loses no acknowledged
//!   commit;
//! * concurrent committers share fsyncs (batch counter < commit counter)
//!   without losing a single record;
//! * recovery replays every acknowledged transaction and no torn one;
//! * a drain whose append fails is never acknowledged, and the pipeline
//!   refuses every later commit.

use std::sync::Arc;
use std::time::Duration as StdDuration;

use instant_common::{Duration, TableId, Timestamp, TupleId, TxId};
use instant_wal::group::{GroupCommit, GroupCommitConfig};
use instant_wal::record::{LogRecord, Payload};
use instant_wal::recovery;
use instant_wal::writer::log_size;
use instant_wal::{KeyStore, SegmentConfig, Wal};

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

fn ks() -> KeyStore {
    KeyStore::new(Duration::hours(1), 7)
}

/// A pipeline over a lone log: shard 0 of a set of one.
fn pipeline(wal: &Arc<Wal>, cfg: GroupCommitConfig) -> GroupCommit {
    GroupCommit::spawn(wal.clone(), 0, cfg, Arc::new(instant_obs::Obs::new())).unwrap()
}

/// Flush buffered appends into the file without fsyncing them (what the
/// OS would have seen at a crash point mid-drain).
fn flush_unsynced(wal: &Wal) {
    wal.torn_tail(0).unwrap();
}

#[test]
fn tear_mid_group_batch_loses_no_acknowledged_commit() {
    let wal = Arc::new(Wal::temp("gp-tear").unwrap());
    let gc = pipeline(&wal, GroupCommitConfig::default());
    for tx in 0..5 {
        gc.commit(batch(tx)).unwrap(); // acknowledged ⇒ fsynced
    }
    gc.stop();

    // A sixth batch reaches the file but the crash hits before its fsync:
    // append directly (the pipeline's append step) and never sync.
    flush_unsynced(&wal);
    let synced = log_size(&wal).unwrap();
    for rec in batch(99) {
        wal.append(&rec).unwrap();
    }
    flush_unsynced(&wal);
    let full = log_size(&wal).unwrap();
    assert!(full > synced);

    // Tear mid-way through the un-acknowledged batch.
    wal.torn_tail((full - synced) / 2).unwrap();

    let plan = recovery::replay(&wal.iterate().unwrap(), None, &ks());
    assert_eq!(plan.ops.len(), 5, "all five acknowledged inserts replay");
    for tx in 0..5 {
        assert!(plan.committed.contains(&TxId(tx)));
    }
    assert!(
        !plan.committed.contains(&TxId(99)),
        "the torn batch must not be treated as committed"
    );
}

#[test]
fn concurrent_commits_all_durable_with_fewer_fsyncs() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 50;
    let wal = Arc::new(Wal::temp("gp-stress").unwrap());
    let gc = pipeline(
        &wal,
        GroupCommitConfig {
            max_batch: 64,
            max_delay: StdDuration::from_micros(200),
        },
    );
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let gc = &gc;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    gc.commit(batch(t * PER_THREAD + i)).unwrap();
                }
            });
        }
    });
    let stats = gc.stop();
    assert_eq!(stats.commits, THREADS * PER_THREAD);
    assert!(
        stats.batches < stats.commits,
        "concurrent committers must share fsyncs: {stats:?}"
    );
    let (appended, syncs) = wal.counters();
    assert_eq!(appended, THREADS * PER_THREAD * 3);
    assert_eq!(syncs, stats.batches, "exactly one fsync per drain");

    // Every acknowledged transaction replays, none duplicated.
    let plan = recovery::replay(&wal.iterate().unwrap(), None, &ks());
    assert_eq!(plan.ops.len(), (THREADS * PER_THREAD) as usize);
    for tx in 0..THREADS * PER_THREAD {
        assert!(plan.committed.contains(&TxId(tx)), "tx {tx} lost");
    }
}

#[test]
fn pipeline_commits_then_truncate_round_trip() {
    // Group-committed records + checkpoint-style truncation: the engine
    // rotates right before logging the Checkpoint record, so the record
    // starts a fresh segment, every prior record lives in wholly-dead
    // segments, and the retained suffix replays with correct LSNs through
    // the streaming scanner.
    let wal = Arc::new(Wal::temp("gp-trunc").unwrap());
    let gc = pipeline(&wal, GroupCommitConfig::default());
    for tx in 0..10 {
        gc.commit(batch(tx)).unwrap();
    }
    wal.rotate().unwrap();
    let ckpt_lsn = gc
        .commit(vec![LogRecord::Checkpoint {
            at: Timestamp::micros(1),
            tables: vec![],
        }])
        .unwrap();
    for tx in 10..13 {
        gc.commit(batch(tx)).unwrap();
    }
    gc.stop();

    assert_eq!(wal.truncated_bytes(), 0);
    let dropped = wal.truncate_before(ckpt_lsn).unwrap();
    assert_eq!(dropped, 30, "ten 3-record batches die with the prefix");
    assert!(wal.truncated_bytes() > 0);
    assert_eq!(wal.base_lsn(), ckpt_lsn);

    let records = wal.iterate().unwrap();
    assert_eq!(recovery::last_checkpoint(&records), Some(ckpt_lsn));
    let plan = recovery::replay(&records, Some(ckpt_lsn), &ks());
    assert_eq!(plan.checkpoint_at, Some(Timestamp::micros(1)));
    assert_eq!(plan.ops.len(), 3, "only the post-checkpoint suffix replays");
    for tx in 10..13 {
        assert!(plan.committed.contains(&TxId(tx)));
    }
}

#[test]
fn failed_append_fails_its_drain_and_poisons_the_pipeline() {
    // Minimal segments rotate every few batches; once the log directory
    // is gone, the next rotation cannot create its segment file.
    let wal = Arc::new(Wal::temp_with("gp-fail", SegmentConfig { segment_bytes: 1 }).unwrap());
    let gc = pipeline(&wal, GroupCommitConfig::default());
    gc.commit(batch(0)).unwrap();
    let mut acknowledged = 1u64;
    std::fs::remove_dir_all(wal.path()).unwrap();

    let failure = loop {
        assert!(
            acknowledged < 10_000,
            "no rotation failed after the log directory was removed"
        );
        match gc.commit(batch(acknowledged)) {
            Ok(_) => acknowledged += 1,
            Err(e) => break e,
        }
    };
    assert!(
        failure.to_string().contains("group-commit drain failed"),
        "the failing commit carries the drain's error: {failure}"
    );
    assert!(
        gc.submit(batch(u64::MAX)).is_err(),
        "a poisoned pipeline refuses later submits"
    );
    let stats = gc.stats();
    assert_eq!(stats.failed_batches, 1);
    assert_eq!(
        stats.commits, acknowledged,
        "only commits acknowledged before the failure count"
    );
}
