//! Log record types and their binary format.
//!
//! Design points driven by the paper:
//!
//! * The log holds a row image only for inserts. A degradation step
//!   ([`LogRecord::Degrade`]) is logged as a fact — which tuple, which
//!   column, which LCP stage it now sits at — with no value in any form:
//!   generalization is a pure function of the stored value and the LCP,
//!   so redo recomputes the coarser value from the heap, and the log
//!   never holds one more copy of it to seal, shred and scrape.
//! * Row images ride in a [`Payload`], which is either `Plain` (classical
//!   WAL mode, the forensic baseline) or `Sealed`
//!   (ciphertext + window id + nonce). Once the window key is shredded a
//!   `Sealed` payload can never be opened again.
//! * Tag 6 was an older degradation step that carried a row image, tag 5
//!   a stable-column update, and tag 3 an abort record no version of the
//!   engine wrote. All three decode to [`Error::Unsupported`] — not to a
//!   corrupt frame, which open would trim the log at — so such a log is
//!   refused whole.
//! * Every record is framed by the writer with a length + FNV checksum so
//!   torn tails are detected and recovery stops cleanly.

use instant_common::codec::raw;
use instant_common::{ColumnId, Error, Result, TableId, Timestamp, TupleId, TxId};

use crate::cipher;
use crate::keystore::{KeyStore, WindowId};

/// Log sequence number (1-based; 0 = "none").
pub type Lsn = u64;

/// A row image, possibly sealed under a window key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Plaintext image — the classical-WAL baseline.
    Plain(Vec<u8>),
    /// Ciphertext under `window`'s key with a per-record nonce.
    Sealed {
        window: WindowId,
        nonce: u64,
        ct: Vec<u8>,
    },
}

impl Payload {
    /// Seal `bytes` under the key for `now`.
    pub fn seal(ks: &KeyStore, now: Timestamp, bytes: &[u8]) -> Result<Payload> {
        let (window, key) = ks.key_for(now)?;
        let nonce = ks.next_nonce();
        Ok(Payload::Sealed {
            window,
            nonce,
            ct: cipher::seal(&key, nonce, bytes),
        })
    }

    /// Open the payload. `None` when the window key has been shredded —
    /// the image is gone for good.
    pub fn open(&self, ks: &KeyStore) -> Option<Vec<u8>> {
        match self {
            Payload::Plain(b) => Some(b.clone()),
            Payload::Sealed { window, nonce, ct } => {
                let key = ks.key_of(*window)?;
                Some(cipher::open(&key, *nonce, ct))
            }
        }
    }

    /// Byte length of the carried image.
    pub fn len(&self) -> usize {
        match self {
            Payload::Plain(b) => b.len(),
            Payload::Sealed { ct, .. } => ct.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn is_sealed(&self) -> bool {
        matches!(self, Payload::Sealed { .. })
    }
}

/// One WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// Transaction start.
    Begin { tx: TxId, at: Timestamp },
    /// Transaction commit — the durability point.
    Commit { tx: TxId, at: Timestamp },
    /// Tuple insertion (always at the most accurate state, per Section II).
    Insert {
        tx: TxId,
        table: TableId,
        tid: TupleId,
        /// Full row image at insert (the *accurate* state — sealed in
        /// degradation-aware mode precisely because it is the most
        /// sensitive image in the whole log).
        row: Payload,
        at: Timestamp,
    },
    /// One degradation step of one attribute, logged as a fact: from now
    /// on the tuple stores `column` at LCP stage `to_stage`. No value
    /// rides along — redo recomputes it from the stored one.
    Degrade {
        tx: TxId,
        table: TableId,
        tid: TupleId,
        /// The tuple's insert time: with `tid`, the identity redo matches.
        /// Already plaintext in the tuple's `Insert` record (its `at`).
        insert_ts: Timestamp,
        /// Which degradable attribute moved.
        column: ColumnId,
        /// Stage index entered (`None` = attribute value removed). Stage
        /// 255 is not representable: it is the heap's own "removed" byte.
        to_stage: Option<u8>,
        at: Timestamp,
    },
    /// User deletion (predicate-selected); tuple fully removed.
    Delete {
        tx: TxId,
        table: TableId,
        tid: TupleId,
        at: Timestamp,
    },
    /// End-of-life-cycle removal of the entire tuple by the degrader.
    Expunge {
        tx: TxId,
        table: TableId,
        tid: TupleId,
        at: Timestamp,
    },
    /// Checkpoint: all dirty pages flushed; log before this is dead. The
    /// record is the whole checkpoint — no side file: `tables` is the
    /// catalog's `(id, name)` directory as of the flush, and `at` is the
    /// very horizon the engine shreds key windows before, so recovery
    /// restores both from the last one of these.
    Checkpoint {
        at: Timestamp,
        tables: Vec<(TableId, String)>,
    },
    /// Shard-log LSN discontinuity marker: the *next* record in this
    /// shard's byte stream carries global LSN `next`. Written when the
    /// allocator handed other shards the intervening LSNs; consumes no
    /// LSN itself and never reaches recovery's replay (the scanner
    /// applies it and strips it).
    LsnJump { next: Lsn },
}

impl LogRecord {
    pub fn tx(&self) -> Option<TxId> {
        match self {
            LogRecord::Begin { tx, .. }
            | LogRecord::Commit { tx, .. }
            | LogRecord::Insert { tx, .. }
            | LogRecord::Degrade { tx, .. }
            | LogRecord::Delete { tx, .. }
            | LogRecord::Expunge { tx, .. } => Some(*tx),
            LogRecord::Checkpoint { .. } | LogRecord::LsnJump { .. } => None,
        }
    }

    pub fn at(&self) -> Timestamp {
        match self {
            LogRecord::Begin { at, .. }
            | LogRecord::Commit { at, .. }
            | LogRecord::Insert { at, .. }
            | LogRecord::Degrade { at, .. }
            | LogRecord::Delete { at, .. }
            | LogRecord::Expunge { at, .. }
            | LogRecord::Checkpoint { at, .. } => *at,
            // A jump is pure log plumbing; it happens at no event time.
            LogRecord::LsnJump { .. } => Timestamp::ZERO,
        }
    }

    /// Serialize (without framing — the writer adds length + checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            LogRecord::Begin { tx, at } => {
                out.push(1);
                raw::put_u64(&mut out, tx.0);
                raw::put_u64(&mut out, at.0);
            }
            LogRecord::Commit { tx, at } => {
                out.push(2);
                raw::put_u64(&mut out, tx.0);
                raw::put_u64(&mut out, at.0);
            }
            LogRecord::Insert {
                tx,
                table,
                tid,
                row,
                at,
            } => {
                out.push(4);
                raw::put_u64(&mut out, tx.0);
                raw::put_u32(&mut out, table.0);
                raw::put_u64(&mut out, tid.pack());
                raw::put_u64(&mut out, at.0);
                encode_payload(&mut out, row);
            }
            LogRecord::Degrade {
                tx,
                table,
                tid,
                insert_ts,
                column,
                to_stage,
                at,
            } => {
                out.push(11);
                raw::put_u64(&mut out, tx.0);
                raw::put_u32(&mut out, table.0);
                raw::put_u64(&mut out, tid.pack());
                raw::put_u64(&mut out, insert_ts.0);
                raw::put_u16(&mut out, column.0);
                out.push(to_stage.unwrap_or(REMOVED));
                raw::put_u64(&mut out, at.0);
            }
            LogRecord::Delete { tx, table, tid, at } => {
                out.push(7);
                raw::put_u64(&mut out, tx.0);
                raw::put_u32(&mut out, table.0);
                raw::put_u64(&mut out, tid.pack());
                raw::put_u64(&mut out, at.0);
            }
            LogRecord::Expunge { tx, table, tid, at } => {
                out.push(8);
                raw::put_u64(&mut out, tx.0);
                raw::put_u32(&mut out, table.0);
                raw::put_u64(&mut out, tid.pack());
                raw::put_u64(&mut out, at.0);
            }
            LogRecord::Checkpoint { at, tables } => {
                out.push(9);
                raw::put_u64(&mut out, at.0);
                raw::put_u32(&mut out, tables.len() as u32);
                for (id, name) in tables {
                    raw::put_u32(&mut out, id.0);
                    raw::put_bytes(&mut out, name.as_bytes());
                }
            }
            LogRecord::LsnJump { next } => {
                out.push(10);
                raw::put_u64(&mut out, *next);
            }
        }
        out
    }

    /// Deserialize a record encoded by [`LogRecord::encode`].
    pub fn decode(mut buf: &[u8]) -> Result<LogRecord> {
        let buf = &mut buf;
        let tag = take_u8(buf)?;
        let rec = match tag {
            1 => LogRecord::Begin {
                tx: TxId(raw::get_u64(buf)?),
                at: Timestamp(raw::get_u64(buf)?),
            },
            2 => LogRecord::Commit {
                tx: TxId(raw::get_u64(buf)?),
                at: Timestamp(raw::get_u64(buf)?),
            },
            3 => {
                return Err(Error::Unsupported(
                    "log record tag 3: a transaction abort, which this version never \
                     writes and cannot replay"
                        .into(),
                ))
            }
            4 => LogRecord::Insert {
                tx: TxId(raw::get_u64(buf)?),
                table: TableId(raw::get_u32(buf)?),
                tid: TupleId::unpack(raw::get_u64(buf)?),
                at: Timestamp(raw::get_u64(buf)?),
                row: decode_payload(buf)?,
            },
            5 => {
                return Err(Error::Unsupported(
                    "log record tag 5: a stable-column update, written by an older version; \
                     this version has no update and cannot replay that log"
                        .into(),
                ))
            }
            6 => {
                return Err(Error::Unsupported(
                    "log record tag 6: a degradation step carrying a row image, written by an \
                     older version; this version logs steps without images and cannot replay \
                     that log"
                        .into(),
                ))
            }
            7 | 8 => {
                let tx = TxId(raw::get_u64(buf)?);
                let table = TableId(raw::get_u32(buf)?);
                let tid = TupleId::unpack(raw::get_u64(buf)?);
                let at = Timestamp(raw::get_u64(buf)?);
                if tag == 7 {
                    LogRecord::Delete { tx, table, tid, at }
                } else {
                    LogRecord::Expunge { tx, table, tid, at }
                }
            }
            9 => {
                let at = Timestamp(raw::get_u64(buf)?);
                let n = raw::get_u32(buf)? as usize;
                // An entry is at least 8 bytes, which bounds the
                // allocation by the record's own length.
                let mut tables = Vec::with_capacity(n.min(buf.len() / 8));
                for _ in 0..n {
                    let id = TableId(raw::get_u32(buf)?);
                    let name = String::from_utf8(raw::get_bytes(buf)?)
                        .map_err(|_| Error::Corrupt("checkpoint table name not UTF-8".into()))?;
                    tables.push((id, name));
                }
                LogRecord::Checkpoint { at, tables }
            }
            10 => LogRecord::LsnJump {
                next: raw::get_u64(buf)?,
            },
            11 => LogRecord::Degrade {
                tx: TxId(raw::get_u64(buf)?),
                table: TableId(raw::get_u32(buf)?),
                tid: TupleId::unpack(raw::get_u64(buf)?),
                insert_ts: Timestamp(raw::get_u64(buf)?),
                column: ColumnId(raw::get_u16(buf)?),
                to_stage: Some(take_u8(buf)?).filter(|s| *s != REMOVED),
                at: Timestamp(raw::get_u64(buf)?),
            },
            other => return Err(Error::Corrupt(format!("unknown log record tag {other}"))),
        };
        if !buf.is_empty() {
            return Err(Error::Corrupt(format!(
                "{} trailing bytes in log record",
                buf.len()
            )));
        }
        Ok(rec)
    }
}

/// `to_stage` byte of a [`LogRecord::Degrade`] whose value was removed.
const REMOVED: u8 = u8::MAX;

fn encode_payload(out: &mut Vec<u8>, p: &Payload) {
    match p {
        Payload::Plain(b) => {
            out.push(0);
            raw::put_bytes(out, b);
        }
        Payload::Sealed { window, nonce, ct } => {
            out.push(1);
            raw::put_u64(out, window.0);
            raw::put_u64(out, *nonce);
            raw::put_bytes(out, ct);
        }
    }
}

fn decode_payload(buf: &mut &[u8]) -> Result<Payload> {
    match take_u8(buf)? {
        0 => Ok(Payload::Plain(raw::get_bytes(buf)?)),
        1 => Ok(Payload::Sealed {
            window: WindowId(raw::get_u64(buf)?),
            nonce: raw::get_u64(buf)?,
            ct: raw::get_bytes(buf)?,
        }),
        other => Err(Error::Corrupt(format!("unknown payload tag {other}"))),
    }
}

fn take_u8(buf: &mut &[u8]) -> Result<u8> {
    if buf.is_empty() {
        return Err(Error::Corrupt("truncated log record".into()));
    }
    let b = buf[0];
    *buf = &buf[1..];
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use instant_common::Duration;

    fn samples() -> Vec<LogRecord> {
        let t = Timestamp::micros(99);
        vec![
            LogRecord::Begin { tx: TxId(1), at: t },
            LogRecord::Commit { tx: TxId(1), at: t },
            LogRecord::Insert {
                tx: TxId(3),
                table: TableId(7),
                tid: TupleId::new(4, 5),
                row: Payload::Plain(b"row-bytes".to_vec()),
                at: t,
            },
            LogRecord::Insert {
                tx: TxId(3),
                table: TableId(7),
                tid: TupleId::new(4, 5),
                row: Payload::Sealed {
                    window: WindowId(12),
                    nonce: 34,
                    ct: vec![1, 2, 3],
                },
                at: t,
            },
            LogRecord::Degrade {
                tx: TxId(0),
                table: TableId(7),
                tid: TupleId::new(4, 5),
                insert_ts: Timestamp::micros(12),
                column: ColumnId(2),
                to_stage: Some(1),
                at: t,
            },
            LogRecord::Degrade {
                tx: TxId(0),
                table: TableId(7),
                tid: TupleId::new(4, 5),
                insert_ts: Timestamp::micros(12),
                column: ColumnId(2),
                to_stage: None,
                at: t,
            },
            LogRecord::Delete {
                tx: TxId(9),
                table: TableId(7),
                tid: TupleId::new(1, 2),
                at: t,
            },
            LogRecord::Expunge {
                tx: TxId(0),
                table: TableId(7),
                tid: TupleId::new(1, 3),
                at: t,
            },
            LogRecord::Checkpoint {
                at: t,
                tables: vec![],
            },
            LogRecord::Checkpoint {
                at: t,
                tables: vec![
                    (TableId(1), "person".into()),
                    (TableId(2), "événement".into()),
                ],
            },
            LogRecord::LsnJump { next: 123_456 },
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        for rec in samples() {
            let bytes = rec.encode();
            let back = LogRecord::decode(&bytes).unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn truncated_records_rejected() {
        for rec in samples() {
            let bytes = rec.encode();
            for cut in 0..bytes.len() {
                assert!(
                    LogRecord::decode(&bytes[..cut]).is_err(),
                    "truncation at {cut} of {rec:?} must fail"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        for rec in samples() {
            let mut bytes = rec.encode();
            bytes.push(0);
            assert!(LogRecord::decode(&bytes).is_err(), "{rec:?} + 1 byte");
        }
    }

    #[test]
    fn degrade_step_is_small_and_holds_no_value() {
        let samples = samples();
        let step = samples
            .iter()
            .find(|r| matches!(r, LogRecord::Degrade { .. }))
            .unwrap();
        // tag + tx + table + tid + insert_ts + column + stage + at.
        assert_eq!(step.encode().len(), 1 + 8 + 4 + 8 + 8 + 2 + 1 + 8);
    }

    #[test]
    fn image_carrying_degrade_tag_is_unsupported_not_corrupt() {
        // The older layout: tag 6, then tx, table, tid, column, level + 1,
        // at, and a plain row image.
        let mut old = vec![6];
        raw::put_u64(&mut old, 1);
        raw::put_u32(&mut old, 7);
        raw::put_u64(&mut old, TupleId::new(4, 5).pack());
        raw::put_u16(&mut old, 2);
        old.push(2);
        raw::put_u64(&mut old, 99);
        old.push(0);
        raw::put_bytes(&mut old, b"Paris");
        let err = LogRecord::decode(&old).unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)), "{err:?}");
    }

    #[test]
    fn update_tag_is_unsupported_not_corrupt() {
        // The older layout: tag 5, then tx, table, tid, at, and a plain
        // row image.
        let mut update = vec![5];
        raw::put_u64(&mut update, 3);
        raw::put_u32(&mut update, 7);
        raw::put_u64(&mut update, TupleId::new(4, 5).pack());
        raw::put_u64(&mut update, 99);
        update.push(0);
        raw::put_bytes(&mut update, b"row-bytes");
        let err = LogRecord::decode(&update).unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)), "{err:?}");
    }

    #[test]
    fn abort_tag_is_unsupported_not_corrupt() {
        // Tag 3, then tx and at.
        let mut abort = vec![3];
        raw::put_u64(&mut abort, 2);
        raw::put_u64(&mut abort, 99);
        let err = LogRecord::decode(&abort).unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)), "{err:?}");
    }

    #[test]
    fn sealed_payload_round_trip_through_keystore() {
        let ks = KeyStore::new(Duration::hours(1), 42);
        let now = Timestamp::micros(1_000);
        let p = Payload::seal(&ks, now, b"accurate address").unwrap();
        assert!(p.is_sealed());
        assert_eq!(p.open(&ks).unwrap(), b"accurate address");
        // Shred → unrecoverable.
        ks.shred_before(now + Duration::hours(5));
        assert_eq!(p.open(&ks), None);
    }

    #[test]
    fn sealed_ciphertext_differs_from_plaintext() {
        let ks = KeyStore::new(Duration::hours(1), 42);
        let p = Payload::seal(&ks, Timestamp::ZERO, b"SENSITIVE").unwrap();
        match &p {
            Payload::Sealed { ct, .. } => assert_ne!(ct.as_slice(), b"SENSITIVE"),
            _ => panic!("expected sealed"),
        }
    }

    #[test]
    fn tx_and_at_accessors() {
        let t = Timestamp::micros(5);
        assert_eq!(LogRecord::Begin { tx: TxId(7), at: t }.tx(), Some(TxId(7)));
        let ckpt = LogRecord::Checkpoint {
            at: t,
            tables: vec![],
        };
        assert_eq!(ckpt.tx(), None);
        assert_eq!(ckpt.at(), t);
        assert_eq!(LogRecord::LsnJump { next: 9 }.tx(), None);
    }
}
