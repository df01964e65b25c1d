//! Property tests for the WAL: arbitrary record sequences survive the
//! encode → frame → file → parse pipeline; torn tails lose only a suffix;
//! sealing round-trips for live windows and never for shredded ones.

use instant_common::{ColumnId, Duration, TableId, Timestamp, TupleId, TxId};
use instant_wal::group::{GroupCommit, GroupCommitConfig, GroupCommitSet};
use instant_wal::keystore::KeyStore;
use instant_wal::record::{LogRecord, Payload};
use instant_wal::recovery;
use instant_wal::writer::log_size;
use instant_wal::{Wal, WalSet};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_payload() -> impl Strategy<Value = Payload> {
    proptest::collection::vec(any::<u8>(), 0..64).prop_map(Payload::Plain)
}

fn arb_record() -> impl Strategy<Value = LogRecord> {
    let t = 0u64..1_000_000;
    prop_oneof![
        (0u64..100, t.clone()).prop_map(|(tx, at)| LogRecord::Begin {
            tx: TxId(tx),
            at: Timestamp(at)
        }),
        (0u64..100, t.clone()).prop_map(|(tx, at)| LogRecord::Commit {
            tx: TxId(tx),
            at: Timestamp(at)
        }),
        (0u64..100, 0u32..10, 0u64..1000, arb_payload(), t.clone()).prop_map(
            |(tx, table, tid, row, at)| LogRecord::Insert {
                tx: TxId(tx),
                table: TableId(table),
                tid: TupleId::unpack(tid),
                row,
                at: Timestamp(at),
            }
        ),
        (
            0u64..100,
            0u32..10,
            0u64..1000,
            t.clone(),
            0u16..8,
            proptest::option::of(0u8..4),
            t.clone()
        )
            .prop_map(
                |(tx, table, tid, born, col, stage, at)| LogRecord::Degrade {
                    tx: TxId(tx),
                    table: TableId(table),
                    tid: TupleId::unpack(tid),
                    insert_ts: Timestamp(born),
                    column: ColumnId(col),
                    to_stage: stage,
                    at: Timestamp(at),
                }
            ),
        (0u64..100, 0u32..10, 0u64..1000, t.clone()).prop_map(|(tx, table, tid, at)| {
            LogRecord::Expunge {
                tx: TxId(tx),
                table: TableId(table),
                tid: TupleId::unpack(tid),
                at: Timestamp(at),
            }
        }),
        (t, proptest::collection::vec((0u32..10, 0u32..1000), 0..4)).prop_map(|(at, tables)| {
            LogRecord::Checkpoint {
                at: Timestamp(at),
                tables: tables
                    .into_iter()
                    .map(|(id, n)| (TableId(id), format!("t{n}")))
                    .collect(),
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn file_round_trip(records in proptest::collection::vec(arb_record(), 0..60)) {
        let wal = Wal::temp("prop-rt").unwrap();
        for r in &records {
            wal.append(r).unwrap();
        }
        wal.sync().unwrap();
        let back = wal.iterate().unwrap();
        prop_assert_eq!(back.len(), records.len());
        for ((lsn, got), (i, want)) in back.iter().zip(records.iter().enumerate()) {
            prop_assert_eq!(*lsn, i as u64);
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn torn_tail_is_prefix(records in proptest::collection::vec(arb_record(), 1..40), cut in 1u64..200) {
        let wal = Wal::temp("prop-torn").unwrap();
        for r in &records {
            wal.append(r).unwrap();
        }
        wal.sync().unwrap();
        wal.torn_tail(cut).unwrap();
        let back = wal.iterate().unwrap();
        prop_assert!(back.len() <= records.len());
        for ((_, got), want) in back.iter().zip(records.iter()) {
            prop_assert_eq!(got, want, "surviving prefix must be unmodified");
        }
    }

    #[test]
    fn acknowledged_group_commits_survive_any_unsynced_tear(
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_record(), 1..5), 1..8),
        junk in proptest::collection::vec(arb_record(), 1..5),
        cut_at in any::<prop::sample::Index>(),
    ) {
        // Everything committed through the pipeline was fsynced before its
        // ticket completed; a tear of any length within the later unsynced
        // suffix (a drain the crash interrupted) must leave the
        // acknowledged records intact, in order.
        let wal = Arc::new(Wal::temp("prop-group").unwrap());
        let gc = GroupCommit::spawn(
            wal.clone(),
            0,
            GroupCommitConfig::default(),
            Arc::new(instant_obs::Obs::new()),
        )
        .unwrap();
        let mut acknowledged = Vec::new();
        for b in &batches {
            acknowledged.extend(b.iter().cloned());
            gc.commit(b.clone()).unwrap();
        }
        gc.stop();
        let synced = log_size(&wal).unwrap();
        for r in &junk {
            wal.append(r).unwrap();
        }
        wal.torn_tail(0).unwrap(); // flush the unsynced suffix, no fsync
        let full = log_size(&wal).unwrap();
        let cut = cut_at.index((full - synced) as usize + 1) as u64;
        wal.torn_tail(cut).unwrap();
        let back = wal.iterate().unwrap();
        prop_assert!(back.len() >= acknowledged.len(),
            "tear inside the unsynced suffix can never reach synced frames");
        for ((lsn, got), (i, want)) in back.iter().zip(acknowledged.iter().enumerate()) {
            prop_assert_eq!(*lsn, i as u64);
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn truncation_at_segment_boundary_drops_exact_prefix(
        records in proptest::collection::vec(arb_record(), 1..40),
        keep_at in any::<prop::sample::Index>(),
    ) {
        // The engine rotates right before logging a checkpoint record, so
        // the truncation cut always lands on a segment boundary — and then
        // segment deletion drops *exactly* the dead prefix.
        let wal = Wal::temp("prop-trunc").unwrap();
        let keep_from = keep_at.index(records.len() + 1);
        for r in &records[..keep_from] {
            wal.append(r).unwrap();
        }
        wal.rotate().unwrap();
        for r in &records[keep_from..] {
            wal.append(r).unwrap();
        }
        wal.sync().unwrap();
        let dropped = wal.truncate_before(keep_from as u64).unwrap();
        prop_assert_eq!(dropped, keep_from as u64);
        let back = wal.iterate().unwrap();
        prop_assert_eq!(back.len(), records.len() - keep_from);
        for (lsn, got) in &back {
            prop_assert_eq!(got, &records[*lsn as usize]);
        }
    }

    #[test]
    fn truncation_deletes_only_whole_dead_segments(
        records in proptest::collection::vec(arb_record(), 1..40),
        chunk in 1usize..8,
        keep_at in any::<prop::sample::Index>(),
    ) {
        // For an arbitrary cut, truncation frees whole dead segments and
        // nothing more: no retained record is lost or rewritten, and the
        // new base is exactly the first retained segment's first LSN.
        let wal = Wal::temp("prop-trunc2").unwrap();
        for (i, r) in records.iter().enumerate() {
            if i > 0 && i % chunk == 0 {
                wal.rotate().unwrap();
            }
            wal.append(r).unwrap();
        }
        wal.sync().unwrap();
        let keep_from = keep_at.index(records.len() + 1) as u64;
        let dropped = wal.truncate_before(keep_from).unwrap();
        prop_assert!(dropped <= keep_from);
        prop_assert_eq!(wal.base_lsn(), dropped);
        let back = wal.iterate().unwrap();
        prop_assert_eq!(back.len() as u64, records.len() as u64 - dropped);
        for (lsn, got) in &back {
            prop_assert_eq!(got, &records[*lsn as usize]);
        }
    }

    #[test]
    fn sealing_round_trips_until_shredded(
        body in proptest::collection::vec(any::<u8>(), 0..256),
        at_hours in 0u64..48,
    ) {
        let ks = KeyStore::new(Duration::hours(1), 1234);
        let at = Timestamp::ZERO + Duration::hours(at_hours);
        let sealed = Payload::seal(&ks, at, &body).unwrap();
        prop_assert_eq!(sealed.open(&ks), Some(body.clone()));
        // Shred everything up to and including that window.
        ks.shred_before(at + Duration::hours(1));
        prop_assert_eq!(sealed.open(&ks), None);
    }

    /// The parallel-backbone crash contract: a mid-burst kill with K
    /// shards loses no acknowledged commit under the LSN merge — even
    /// when a phantom burst after the acknowledged prefix reached the
    /// shards unevenly (durable on some, torn mid-frame on another).
    #[test]
    fn sharded_mid_burst_kill_recovers_every_acknowledged_record(
        shards in 1usize..=4,
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_record(), 1..4), 1..10),
        junk in proptest::collection::vec(arb_record(), 1..6),
        torn_pick in any::<prop::sample::Index>(),
        cut_at in any::<prop::sample::Index>(),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "instantdb-prop-shardkill-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut acknowledged: Vec<(u64, LogRecord)> = Vec::new();
        {
            let set = WalSet::open(&dir, shards).unwrap();
            let gcs = GroupCommitSet::spawn(&set, GroupCommitConfig::default()).unwrap();
            for b in &batches {
                let shard = set.shard_for_batch(b);
                let first = gcs.commit(shard, b.clone()).unwrap();
                // Batch LSNs are consecutive: the shard draws the whole
                // range from the global allocator under its lock.
                for (i, r) in b.iter().enumerate() {
                    acknowledged.push((first + i as u64, r.clone()));
                }
            }
            // Every acknowledged batch is durable once the pipelines stop.
            gcs.stop();
            let synced: Vec<u64> = (0..set.shard_count())
                .map(|k| {
                    set.shard(k).torn_tail(0).unwrap(); // flush, no fsync
                    log_size(set.shard(k)).unwrap()
                })
                .collect();
            // The phantom burst the kill interrupts: unacknowledged
            // appends that reach the shards unevenly.
            for r in &junk {
                set.append(r).unwrap();
            }
            let torn = torn_pick.index(set.shard_count());
            for (k, &synced_len) in synced.iter().enumerate() {
                let shard = set.shard(k);
                shard.torn_tail(0).unwrap(); // flush the phantom bytes
                if k == torn {
                    // Tear mid-way through this shard's unsynced suffix.
                    let unsynced = log_size(shard).unwrap() - synced_len;
                    shard.torn_tail(cut_at.index(unsynced as usize + 1) as u64).unwrap();
                } else {
                    // Durable on this shard — but never acknowledged.
                    shard.sync().unwrap();
                }
            }
        }
        // "Reboot": reopen the set and k-way merge the shards by LSN.
        let set = WalSet::open(&dir, shards).unwrap();
        let back = set.iterate().unwrap();
        let by_lsn: std::collections::HashMap<u64, &LogRecord> =
            back.iter().map(|(l, r)| (*l, r)).collect();
        prop_assert_eq!(by_lsn.len(), back.len(), "merged LSNs must be unique");
        for (lsn, want) in &acknowledged {
            match by_lsn.get(lsn) {
                Some(got) => prop_assert_eq!(*got, want, "acknowledged record changed at lsn {}", lsn),
                None => prop_assert!(false, "acknowledged lsn {} lost by the merge", lsn),
            }
        }
        // The merge yields a strictly LSN-sorted stream.
        for w in back.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
        drop(set);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Recovery only ever replays committed transactions, for arbitrary
    /// interleavings.
    #[test]
    fn recovery_replays_only_committed(records in proptest::collection::vec(arb_record(), 0..80)) {
        let ks = KeyStore::new(Duration::hours(1), 1);
        let seq: Vec<(u64, LogRecord)> = records
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, r)| (i as u64, r))
            .collect();
        let plan = recovery::replay(&seq, recovery::last_checkpoint(&seq), &ks);
        // Find last checkpoint; compute committed txs of the suffix.
        let ckpt = seq
            .iter()
            .filter(|(_, r)| matches!(r, LogRecord::Checkpoint { .. }))
            .map(|(l, _)| *l)
            .next_back();
        let start = ckpt.map(|l| l + 1).unwrap_or(0);
        let committed: std::collections::HashSet<TxId> = seq
            .iter()
            .filter(|(l, _)| *l >= start)
            .filter_map(|(_, r)| match r {
                LogRecord::Commit { tx, .. } => Some(*tx),
                _ => None,
            })
            .collect();
        prop_assert_eq!(&plan.committed, &committed);
        // And every emitted op's record index count is bounded by the
        // committed data records in the suffix.
        let data_records = seq
            .iter()
            .filter(|(l, _)| *l >= start)
            .filter(|(_, r)| {
                r.tx().is_some_and(|tx| plan.committed.contains(&tx))
                    && !matches!(
                        r,
                        LogRecord::Begin { .. } | LogRecord::Commit { .. }
                    )
            })
            .count();
        prop_assert_eq!(plan.ops.len(), data_records);
    }
}
