//! Logical redo recovery.
//!
//! InstantDB checkpoints aggressively (flush-at-checkpoint), so recovery is
//! redo-only over the suffix after the last [`LogRecord::Checkpoint`]:
//!
//! 1. **Analysis** — find the last checkpoint and the set of committed
//!    transactions in the suffix.
//! 2. **Redo** — in LSN order, emit one [`Op`] per committed data record,
//!    opening the sealed row images of inserts through the [`KeyStore`].
//!
//! A sealed image whose window key was shredded yields
//! [`Op::Unrecoverable`]: recovery *cannot* resurrect it, by design. The
//! engine shreds only at a checkpoint, windows older than the checkpoint
//! itself, whose flush already put every earlier image's effect in the
//! heap — so redo, which starts after that checkpoint, never
//! needs a shredded key. A degradation step carries no image
//! ([`LogRecord::Degrade`]): it always replays, as the stage the stored
//! value moves to, and can never come back unrecoverable. The recovery
//! tests verify both halves: committed recent work is recovered, and
//! degraded states never reappear.

use std::collections::HashSet;

use instant_common::{ColumnId, TableId, Timestamp, TupleId, TxId};

use crate::keystore::KeyStore;
use crate::record::{LogRecord, Lsn};

/// One recovered (redo) operation, in commit order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Insert {
        table: TableId,
        tid: TupleId,
        row: Vec<u8>,
        at: Timestamp,
    },
    /// Move `column` of the tuple `(tid, insert_ts)` to LCP stage
    /// `to_stage` (`None` = removed) — see [`LogRecord::Degrade`].
    Degrade {
        table: TableId,
        tid: TupleId,
        insert_ts: Timestamp,
        column: ColumnId,
        to_stage: Option<u8>,
        at: Timestamp,
    },
    Delete {
        table: TableId,
        tid: TupleId,
        at: Timestamp,
    },
    Expunge {
        table: TableId,
        tid: TupleId,
        at: Timestamp,
    },
    /// A committed insert image whose key was shredded. Carries
    /// enough metadata for the engine to drop the stale tuple state
    /// instead of resurrecting it with wrong accuracy.
    Unrecoverable {
        table: TableId,
        tid: TupleId,
        at: Timestamp,
    },
}

impl Op {
    pub fn tid(&self) -> TupleId {
        match self {
            Op::Insert { tid, .. }
            | Op::Degrade { tid, .. }
            | Op::Delete { tid, .. }
            | Op::Expunge { tid, .. }
            | Op::Unrecoverable { tid, .. } => *tid,
        }
    }

    pub fn table(&self) -> TableId {
        match self {
            Op::Insert { table, .. }
            | Op::Degrade { table, .. }
            | Op::Delete { table, .. }
            | Op::Expunge { table, .. }
            | Op::Unrecoverable { table, .. } => *table,
        }
    }
}

/// Outcome of recovery analysis + redo.
#[derive(Debug, Default)]
pub struct RecoveryPlan {
    /// `at` of the checkpoint redo was cut at: the horizon the engine had
    /// shredded key windows before. `None` when nothing was cut.
    pub checkpoint_at: Option<Timestamp>,
    /// That checkpoint's `(id, name)` table directory.
    pub tables: Vec<(TableId, String)>,
    /// Committed transactions seen in the replayed suffix.
    pub committed: HashSet<TxId>,
    /// Transactions that began but never committed (their work is ignored).
    pub losers: HashSet<TxId>,
    /// Redo operations (committed transactions only) in LSN order.
    pub ops: Vec<Op>,
    /// Count of records skipped because their tx never committed.
    pub skipped_uncommitted: usize,
    /// Count of sealed row images that could not be opened (shredded keys).
    pub unrecoverable: usize,
}

/// LSN of the last [`LogRecord::Checkpoint`] in the stream: the cut
/// recovery over the flushed heap hands to [`replay`].
pub fn last_checkpoint(records: &[(Lsn, LogRecord)]) -> Option<Lsn> {
    records
        .iter()
        .rev()
        .find(|(_, rec)| matches!(rec, LogRecord::Checkpoint { .. }))
        .map(|(lsn, _)| *lsn)
}

/// Run analysis + redo over the sharded log from its last checkpoint,
/// opening sealed row images via `ks`: the set's k-way merge yields the
/// shards' records re-serialized into global LSN order, and [`replay`]
/// consumes that one stream.
pub fn recover_set(
    set: &crate::walset::WalSet,
    ks: &KeyStore,
) -> instant_common::Result<RecoveryPlan> {
    let records = set.iterate()?;
    Ok(replay(&records, last_checkpoint(&records), ks))
}

/// The one replay: redo every committed record after `cut`.
///
/// Recovery passes `Some(`[`last_checkpoint`]`)` — the heap is flushed up
/// to that record, whose table directory and `at` come back in the plan.
/// `None` replays everything; only tests use it.
pub fn replay(records: &[(Lsn, LogRecord)], cut: Option<Lsn>, ks: &KeyStore) -> RecoveryPlan {
    let mut plan = RecoveryPlan::default();
    // `records` is LSN-ordered; `None < Some(_)`, so no cut keeps it all.
    let (dead, suffix) = records.split_at(records.partition_point(|(lsn, _)| Some(*lsn) <= cut));
    if let Some((_, LogRecord::Checkpoint { at, tables })) = dead.last() {
        plan.checkpoint_at = Some(*at);
        plan.tables = tables.clone();
    }

    // Pass 1 (analysis): committed / loser transactions over the suffix.
    // Commits may land after the data records, so scan the whole suffix first.
    for (_, rec) in suffix {
        match rec {
            LogRecord::Commit { tx, .. } => {
                plan.committed.insert(*tx);
                plan.losers.remove(tx);
            }
            LogRecord::Begin { tx, .. } if !plan.committed.contains(tx) => {
                plan.losers.insert(*tx);
            }
            _ => {}
        }
    }

    // Pass 2 (redo): one op per committed data record, in order.
    for (_, rec) in suffix {
        let (tx, table, tid, at) = match rec {
            LogRecord::Insert {
                tx, table, tid, at, ..
            }
            | LogRecord::Degrade {
                tx, table, tid, at, ..
            }
            | LogRecord::Delete { tx, table, tid, at }
            | LogRecord::Expunge { tx, table, tid, at } => (tx, *table, *tid, *at),
            _ => continue,
        };
        if !plan.committed.contains(tx) {
            plan.skipped_uncommitted += 1;
            continue;
        }
        let op = match rec {
            LogRecord::Insert { row, .. } => row.open(ks).map(|row| Op::Insert {
                table,
                tid,
                row,
                at,
            }),
            LogRecord::Degrade {
                insert_ts,
                column,
                to_stage,
                ..
            } => Some(Op::Degrade {
                table,
                tid,
                insert_ts: *insert_ts,
                column: *column,
                to_stage: *to_stage,
                at,
            }),
            LogRecord::Delete { .. } => Some(Op::Delete { table, tid, at }),
            // Only `Expunge` is left of the four the match above admits.
            _ => Some(Op::Expunge { table, tid, at }),
        };
        let op = op.unwrap_or_else(|| {
            plan.unrecoverable += 1;
            Op::Unrecoverable { table, tid, at }
        });
        plan.ops.push(op);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Payload;
    use crate::writer::Wal;
    use instant_common::Duration;

    fn ks() -> KeyStore {
        KeyStore::new(Duration::hours(1), 7)
    }

    fn seq(records: Vec<LogRecord>) -> Vec<(Lsn, LogRecord)> {
        records
            .into_iter()
            .enumerate()
            .map(|(i, r)| (i as u64, r))
            .collect()
    }

    fn insert(tx: u64, slot: u16, body: &[u8]) -> LogRecord {
        LogRecord::Insert {
            tx: TxId(tx),
            table: TableId(1),
            tid: TupleId::new(1, slot),
            row: Payload::Plain(body.to_vec()),
            at: Timestamp::ZERO,
        }
    }

    fn begin(tx: u64) -> LogRecord {
        LogRecord::Begin {
            tx: TxId(tx),
            at: Timestamp::ZERO,
        }
    }

    /// Recovery: redo cut at the last checkpoint.
    fn recover(log: &[(Lsn, LogRecord)], ks: &KeyStore) -> RecoveryPlan {
        replay(log, last_checkpoint(log), ks)
    }

    fn commit(tx: u64) -> LogRecord {
        LogRecord::Commit {
            tx: TxId(tx),
            at: Timestamp::ZERO,
        }
    }

    #[test]
    fn committed_work_replays_uncommitted_skipped() {
        let ks = ks();
        let log = seq(vec![
            begin(1),
            insert(1, 0, b"a"),
            commit(1),
            begin(2),
            insert(2, 1, b"b"), // never commits
        ]);
        let plan = recover(&log, &ks);
        assert_eq!(plan.ops.len(), 1);
        assert!(matches!(&plan.ops[0], Op::Insert { row, .. } if row == b"a"));
        assert_eq!(plan.skipped_uncommitted, 1);
        assert!(plan.committed.contains(&TxId(1)));
        assert!(plan.losers.contains(&TxId(2)));
    }

    #[test]
    fn replay_starts_after_last_checkpoint() {
        let ks = ks();
        let log = seq(vec![
            begin(1),
            insert(1, 0, b"old"),
            commit(1),
            LogRecord::Checkpoint {
                at: Timestamp::micros(7),
                tables: vec![(TableId(1), "person".into())],
            },
            begin(2),
            insert(2, 1, b"new"),
            commit(2),
        ]);
        assert_eq!(last_checkpoint(&log), Some(3));
        let plan = recover(&log, &ks);
        assert_eq!(plan.checkpoint_at, Some(Timestamp::micros(7)));
        assert_eq!(plan.tables, vec![(TableId(1), "person".to_string())]);
        assert_eq!(plan.ops.len(), 1);
        assert!(matches!(&plan.ops[0], Op::Insert { row, .. } if row == b"new"));
    }

    #[test]
    fn commit_after_data_records_counts() {
        let ks = ks();
        let log = seq(vec![
            begin(1),
            insert(1, 0, b"later-committed"),
            insert(1, 1, b"also"),
            commit(1),
        ]);
        let plan = recover(&log, &ks);
        assert_eq!(plan.ops.len(), 2);
    }

    #[test]
    fn shredded_images_become_unrecoverable() {
        let ks = ks();
        let now = Timestamp::ZERO;
        let sealed = Payload::seal(&ks, now, b"accurate-address").unwrap();
        let log = seq(vec![
            begin(1),
            LogRecord::Insert {
                tx: TxId(1),
                table: TableId(1),
                tid: TupleId::new(1, 0),
                row: sealed,
                at: now,
            },
            commit(1),
        ]);
        // Before shredding: recoverable.
        let plan = recover(&log, &ks);
        assert!(matches!(&plan.ops[0], Op::Insert { row, .. } if row == b"accurate-address"));
        // Shred, replay again: unrecoverable, no plaintext anywhere.
        ks.shred_before(now + Duration::hours(5));
        let plan2 = recover(&log, &ks);
        assert_eq!(plan2.unrecoverable, 1);
        assert!(matches!(&plan2.ops[0], Op::Unrecoverable { .. }));
    }

    #[test]
    fn degrade_and_expunge_ops_flow_through() {
        let ks = ks();
        let log = seq(vec![
            begin(1),
            LogRecord::Degrade {
                tx: TxId(1),
                table: TableId(2),
                tid: TupleId::new(3, 4),
                insert_ts: Timestamp::micros(5),
                column: ColumnId(1),
                to_stage: Some(2),
                at: Timestamp::micros(50),
            },
            LogRecord::Expunge {
                tx: TxId(1),
                table: TableId(2),
                tid: TupleId::new(3, 5),
                at: Timestamp::micros(60),
            },
            commit(1),
        ]);
        let plan = recover(&log, &ks);
        assert_eq!(plan.ops.len(), 2);
        assert!(matches!(
            &plan.ops[0],
            Op::Degrade {
                insert_ts: Timestamp(5),
                to_stage: Some(2),
                ..
            }
        ));
        assert!(matches!(&plan.ops[1], Op::Expunge { .. }));
    }

    #[test]
    fn degrade_steps_replay_after_their_window_is_shredded() {
        let ks = ks();
        let step = LogRecord::Degrade {
            tx: TxId(1),
            table: TableId(1),
            tid: TupleId::new(1, 0),
            insert_ts: Timestamp::ZERO,
            column: ColumnId(1),
            to_stage: None,
            at: Timestamp::ZERO,
        };
        let log = seq(vec![begin(1), step, commit(1)]);
        ks.shred_before(Timestamp::ZERO + Duration::hours(5));
        let plan = recover(&log, &ks);
        assert_eq!(plan.unrecoverable, 0);
        assert!(matches!(&plan.ops[0], Op::Degrade { to_stage: None, .. }));
    }

    #[test]
    fn no_cut_ignores_checkpoints() {
        let ks = ks();
        let log = seq(vec![
            begin(1),
            insert(1, 0, b"old"),
            commit(1),
            LogRecord::Checkpoint {
                at: Timestamp::ZERO,
                tables: vec![],
            },
            begin(2),
            insert(2, 1, b"new"),
            commit(2),
        ]);
        // Recovery starts after the checkpoint…
        let plan = recover(&log, &ks);
        assert_eq!(plan.ops.len(), 1);
        // …and no cut redoes everything.
        let full = replay(&log, None, &ks);
        assert_eq!(full.checkpoint_at, None);
        assert_eq!(full.ops.len(), 2);
        assert!(matches!(&full.ops[0], Op::Insert { row, .. } if row == b"old"));
        assert!(matches!(&full.ops[1], Op::Insert { row, .. } if row == b"new"));
    }

    #[test]
    fn end_to_end_through_wal_file() {
        let ks = ks();
        let wal = Wal::temp("recovery").unwrap();
        wal.append(&begin(1)).unwrap();
        wal.append(&insert(1, 0, b"durable")).unwrap();
        wal.append(&commit(1)).unwrap();
        wal.sync().unwrap();
        let plan = recover(&wal.iterate().unwrap(), &ks);
        assert_eq!(plan.ops.len(), 1);
    }

    #[test]
    fn torn_tail_loses_only_unsynced_suffix() {
        let ks = ks();
        let wal = Wal::temp("recovery-torn").unwrap();
        wal.append(&begin(1)).unwrap();
        wal.append(&insert(1, 0, b"safe")).unwrap();
        wal.append(&commit(1)).unwrap();
        wal.sync().unwrap();
        wal.append(&begin(2)).unwrap();
        wal.append(&insert(2, 1, b"doomed")).unwrap();
        wal.append(&commit(2)).unwrap();
        // No sync; simulate torn write chopping into tx2's commit.
        wal.torn_tail(5).unwrap();
        let plan = recover(&wal.iterate().unwrap(), &ks);
        assert_eq!(plan.ops.len(), 1, "only tx1 survives");
        assert!(matches!(&plan.ops[0], Op::Insert { row, .. } if row == b"safe"));
    }
}
