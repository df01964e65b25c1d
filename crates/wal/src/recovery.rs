//! Logical redo recovery.
//!
//! InstantDB checkpoints aggressively (flush-at-checkpoint), so recovery is
//! redo-only over the suffix after the last [`LogRecord::Checkpoint`]:
//!
//! 1. **Analysis** — find the last checkpoint and the set of committed
//!    transactions in the suffix.
//! 2. **Redo** — in LSN order, emit one [`Op`] per committed data record,
//!    opening sealed payloads through the [`KeyStore`].
//!
//! A sealed payload whose window key was shredded yields
//! [`Op::Unrecoverable`]: recovery *cannot* resurrect it, by design. The
//! invariant that makes this safe is that key shredding only ever covers
//! windows whose images the degradation process has already superseded —
//! the core engine shreds a window only after every tuple state logged in
//! it has been degraded again (producing a newer image) or expunged.
//! Experiment E11 verifies both halves: committed recent work is recovered,
//! and degraded states never reappear.

use std::collections::HashSet;

use instant_common::{ColumnId, LevelId, TableId, Timestamp, TupleId, TxId};

use crate::keystore::KeyStore;
use crate::record::{LogRecord, Lsn, Payload};

/// One recovered (redo) operation, in commit order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Insert {
        table: TableId,
        tid: TupleId,
        row: Vec<u8>,
        at: Timestamp,
    },
    Update {
        table: TableId,
        tid: TupleId,
        row: Vec<u8>,
        at: Timestamp,
    },
    Degrade {
        table: TableId,
        tid: TupleId,
        column: ColumnId,
        to_level: Option<LevelId>,
        row: Vec<u8>,
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
    /// A committed image whose key was shredded. Carries enough metadata
    /// for the engine to drop the stale tuple state instead of resurrecting
    /// it with wrong accuracy.
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
            | Op::Update { tid, .. }
            | Op::Degrade { tid, .. }
            | Op::Delete { tid, .. }
            | Op::Expunge { tid, .. }
            | Op::Unrecoverable { tid, .. } => *tid,
        }
    }

    pub fn table(&self) -> TableId {
        match self {
            Op::Insert { table, .. }
            | Op::Update { table, .. }
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
    /// LSN of the last checkpoint (redo starts after it); `None` = replay all.
    pub checkpoint_lsn: Option<Lsn>,
    /// Committed transactions seen in the replayed suffix.
    pub committed: HashSet<TxId>,
    /// Transactions that began but never committed (their work is ignored).
    pub losers: HashSet<TxId>,
    /// Redo operations in LSN order (committed transactions only).
    pub ops: Vec<Op>,
    /// LSN of the log record each entry of `ops` was produced from
    /// (parallel to `ops`). Replication followers key incremental
    /// replay off this: "apply every op with LSN below the barrier".
    pub op_lsns: Vec<Lsn>,
    /// Count of records skipped because their tx never committed.
    pub skipped_uncommitted: usize,
    /// Count of sealed images that could not be opened (shredded keys).
    pub unrecoverable: usize,
}

/// Run analysis + redo over the sharded log, opening sealed payloads via
/// `ks`: the set's k-way merge yields the shards' records re-serialized
/// into global LSN order, and [`replay`] consumes that one stream.
pub fn recover_set(
    set: &crate::walset::WalSet,
    ks: &KeyStore,
) -> instant_common::Result<RecoveryPlan> {
    let records = set.iterate()?;
    Ok(replay(&records, ks))
}

/// Pure-function core of [`recover_set`] (also used by tests on lone and
/// synthetic logs).
pub fn replay(records: &[(Lsn, LogRecord)], ks: &KeyStore) -> RecoveryPlan {
    let mut plan = RecoveryPlan::default();
    // Pass 0: find last checkpoint.
    for (lsn, rec) in records {
        if matches!(rec, LogRecord::Checkpoint { .. }) {
            plan.checkpoint_lsn = Some(*lsn);
        }
    }
    replay_into(plan, records, ks)
}

/// [`replay`] without the checkpoint cut: redo **every** committed record
/// in the stream. A replication follower has no heap image of its own —
/// its state is built purely from the shipped log — so a leader-side
/// `Checkpoint` record (which on the leader means "the heap below this
/// LSN is flushed") must not truncate the follower's redo.
pub fn replay_all(records: &[(Lsn, LogRecord)], ks: &KeyStore) -> RecoveryPlan {
    replay_into(RecoveryPlan::default(), records, ks)
}

fn replay_into(
    mut plan: RecoveryPlan,
    records: &[(Lsn, LogRecord)],
    ks: &KeyStore,
) -> RecoveryPlan {
    let start = plan.checkpoint_lsn.map(|l| l + 1).unwrap_or(0);

    // Pass 1 (analysis): committed / loser transactions over the suffix.
    // Commits may land after the data records, so scan the whole suffix first.
    for (lsn, rec) in records {
        if *lsn < start {
            continue;
        }
        match rec {
            LogRecord::Commit { tx, .. } => {
                plan.committed.insert(*tx);
                plan.losers.remove(tx);
            }
            LogRecord::Abort { tx, .. } => {
                plan.losers.insert(*tx);
                plan.committed.remove(tx);
            }
            LogRecord::Begin { tx, .. } if !plan.committed.contains(tx) => {
                plan.losers.insert(*tx);
            }
            _ => {}
        }
    }

    // Pass 2 (redo): committed data records in order.
    for (lsn, rec) in records {
        if *lsn < start {
            continue;
        }
        let Some(tx) = rec.tx() else { continue };
        let committed = plan.committed.contains(&tx);
        let open = |p: &Payload| p.open(ks);
        match rec {
            LogRecord::Insert {
                table,
                tid,
                row,
                at,
                ..
            } => {
                if !committed {
                    plan.skipped_uncommitted += 1;
                    continue;
                }
                match open(row) {
                    Some(bytes) => plan.ops.push(Op::Insert {
                        table: *table,
                        tid: *tid,
                        row: bytes,
                        at: *at,
                    }),
                    None => {
                        plan.unrecoverable += 1;
                        plan.ops.push(Op::Unrecoverable {
                            table: *table,
                            tid: *tid,
                            at: *at,
                        });
                    }
                }
            }
            LogRecord::Update {
                table,
                tid,
                row,
                at,
                ..
            } => {
                if !committed {
                    plan.skipped_uncommitted += 1;
                    continue;
                }
                match open(row) {
                    Some(bytes) => plan.ops.push(Op::Update {
                        table: *table,
                        tid: *tid,
                        row: bytes,
                        at: *at,
                    }),
                    None => {
                        plan.unrecoverable += 1;
                        plan.ops.push(Op::Unrecoverable {
                            table: *table,
                            tid: *tid,
                            at: *at,
                        });
                    }
                }
            }
            LogRecord::Degrade {
                table,
                tid,
                column,
                to_level,
                row,
                at,
                ..
            } => {
                if !committed {
                    plan.skipped_uncommitted += 1;
                    continue;
                }
                match open(row) {
                    Some(bytes) => plan.ops.push(Op::Degrade {
                        table: *table,
                        tid: *tid,
                        column: *column,
                        to_level: *to_level,
                        row: bytes,
                        at: *at,
                    }),
                    None => {
                        plan.unrecoverable += 1;
                        plan.ops.push(Op::Unrecoverable {
                            table: *table,
                            tid: *tid,
                            at: *at,
                        });
                    }
                }
            }
            LogRecord::Delete { table, tid, at, .. } => {
                if !committed {
                    plan.skipped_uncommitted += 1;
                    continue;
                }
                plan.ops.push(Op::Delete {
                    table: *table,
                    tid: *tid,
                    at: *at,
                });
            }
            LogRecord::Expunge { table, tid, at, .. } => {
                if !committed {
                    plan.skipped_uncommitted += 1;
                    continue;
                }
                plan.ops.push(Op::Expunge {
                    table: *table,
                    tid: *tid,
                    at: *at,
                });
            }
            _ => {}
        }
        // Each record emits at most one op; tag it with the record's LSN.
        if plan.ops.len() > plan.op_lsns.len() {
            plan.op_lsns.push(*lsn);
        }
    }
    debug_assert_eq!(plan.ops.len(), plan.op_lsns.len());
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let plan = replay(&log, &ks);
        assert_eq!(plan.ops.len(), 1);
        assert!(matches!(&plan.ops[0], Op::Insert { row, .. } if row == b"a"));
        assert_eq!(plan.skipped_uncommitted, 1);
        assert!(plan.committed.contains(&TxId(1)));
        assert!(plan.losers.contains(&TxId(2)));
    }

    #[test]
    fn aborted_tx_is_loser() {
        let ks = ks();
        let log = seq(vec![
            begin(1),
            insert(1, 0, b"x"),
            LogRecord::Abort {
                tx: TxId(1),
                at: Timestamp::ZERO,
            },
        ]);
        let plan = replay(&log, &ks);
        assert!(plan.ops.is_empty());
        assert!(plan.losers.contains(&TxId(1)));
    }

    #[test]
    fn replay_starts_after_last_checkpoint() {
        let ks = ks();
        let log = seq(vec![
            begin(1),
            insert(1, 0, b"old"),
            commit(1),
            LogRecord::Checkpoint {
                at: Timestamp::ZERO,
            },
            begin(2),
            insert(2, 1, b"new"),
            commit(2),
        ]);
        let plan = replay(&log, &ks);
        assert_eq!(plan.checkpoint_lsn, Some(3));
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
        let plan = replay(&log, &ks);
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
        let plan = replay(&log, &ks);
        assert!(matches!(&plan.ops[0], Op::Insert { row, .. } if row == b"accurate-address"));
        // Shred, replay again: unrecoverable, no plaintext anywhere.
        ks.shred_before(now + Duration::hours(5));
        let plan2 = replay(&log, &ks);
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
                column: ColumnId(1),
                to_level: Some(LevelId(2)),
                row: Payload::Plain(b"degraded-row".to_vec()),
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
        let plan = replay(&log, &ks);
        assert_eq!(plan.ops.len(), 2);
        assert!(matches!(
            &plan.ops[0],
            Op::Degrade {
                to_level: Some(LevelId(2)),
                ..
            }
        ));
        assert!(matches!(&plan.ops[1], Op::Expunge { .. }));
    }

    #[test]
    fn op_lsns_parallel_the_ops() {
        let ks = ks();
        let log = seq(vec![
            begin(1),
            insert(1, 0, b"a"),
            insert(1, 1, b"b"),
            commit(1),
            begin(2),
            insert(2, 2, b"loser"),
        ]);
        let plan = replay(&log, &ks);
        assert_eq!(plan.ops.len(), 2);
        assert_eq!(plan.op_lsns, vec![1, 2], "data-record LSNs, in order");
    }

    #[test]
    fn replay_all_ignores_the_checkpoint_cut() {
        let ks = ks();
        let log = seq(vec![
            begin(1),
            insert(1, 0, b"old"),
            commit(1),
            LogRecord::Checkpoint {
                at: Timestamp::ZERO,
            },
            begin(2),
            insert(2, 1, b"new"),
            commit(2),
        ]);
        // A leader recovering itself starts after the checkpoint…
        let plan = replay(&log, &ks);
        assert_eq!(plan.ops.len(), 1);
        // …a follower with no heap of its own redoes everything.
        let full = replay_all(&log, &ks);
        assert_eq!(full.checkpoint_lsn, None);
        assert_eq!(full.ops.len(), 2);
        assert_eq!(full.op_lsns, vec![1, 5]);
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
        let plan = replay(&wal.iterate().unwrap(), &ks);
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
        let plan = replay(&wal.iterate().unwrap(), &ks);
        assert_eq!(plan.ops.len(), 1, "only tx1 survives");
        assert!(matches!(&plan.ops[0], Op::Insert { row, .. } if row == b"safe"));
    }
}
