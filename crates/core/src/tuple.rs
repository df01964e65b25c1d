//! Stored-tuple format.
//!
//! Every record carries, ahead of its row values, the metadata the
//! degradation engine needs to survive restarts without consulting the log:
//!
//! ```text
//! [ insert_ts: u64 ]                      when the life cycle started
//! [ ndeg: u8 ]                            number of degradable columns
//! [ level[i]: u8 … ]                      current LCP *stage index* per
//!                                         degradable column (255 = removed)
//! [ row: codec::encode_row ]              current (possibly degraded) values
//! ```
//!
//! The stage bytes are authoritative: after a crash the engine re-arms the
//! scheduler from `(insert_ts, stage)` rather than trusting wall-clock
//! arithmetic alone, so a tuple can never *regain* accuracy through clock
//! skew.

use instant_common::codec::{decode_row, encode_row, raw};
use instant_common::{ColumnId, Error, LevelId, Result, Timestamp, Value};
use instant_lcp::Degrader;

/// Fixed metadata bytes before the per-column stage bytes: insert_ts (8) +
/// ndeg (1).
pub const META_BASE: usize = 9;

/// Sentinel stage byte for "value removed".
pub const STAGE_REMOVED: u8 = u8::MAX;

/// One degradable-index migration: the column, its old level and key,
/// and its new level and key (`None` = value removed).
pub type IndexMove = (ColumnId, LevelId, Value, Option<(LevelId, Value)>);

/// A decoded stored tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredTuple {
    pub insert_ts: Timestamp,
    /// Current stage index per degradable column (schema order);
    /// `None` = removed. NB: this is the index into the column's LCP
    /// stages, not the accuracy level — the level is
    /// `lcp.stages()[stage].level`.
    pub stages: Vec<Option<u8>>,
    pub row: Vec<Value>,
}

/// Encode a stored tuple. `stages` uses `Some(level)` semantics translated
/// by the caller to stage indices; here we take raw stage options.
pub fn encode_stored(insert_ts: Timestamp, stages: &[Option<LevelId>], row: &[Value]) -> Vec<u8> {
    // Accept LevelId for ergonomic tests; stored as raw bytes.
    let mut out = Vec::with_capacity(META_BASE + stages.len() + 16 * row.len());
    raw::put_u64(&mut out, insert_ts.0);
    out.push(stages.len() as u8);
    for s in stages {
        out.push(match s {
            Some(l) => l.0,
            None => STAGE_REMOVED,
        });
    }
    encode_row(row, &mut out);
    out
}

/// Encode from raw stage indices (the engine's native form).
pub fn encode_stored_raw(insert_ts: Timestamp, stages: &[Option<u8>], row: &[Value]) -> Vec<u8> {
    let as_levels: Vec<Option<LevelId>> = stages.iter().map(|s| s.map(LevelId)).collect();
    encode_stored(insert_ts, &as_levels, row)
}

/// Decode a stored tuple.
pub fn decode_stored(mut bytes: &[u8]) -> Result<StoredTuple> {
    let buf = &mut bytes;
    let insert_ts = Timestamp(raw::get_u64(buf)?);
    if buf.is_empty() {
        return Err(Error::Corrupt("tuple truncated at ndeg".into()));
    }
    let ndeg = buf[0] as usize;
    *buf = &buf[1..];
    if buf.len() < ndeg {
        return Err(Error::Corrupt("tuple truncated in stage bytes".into()));
    }
    let mut stages = Vec::with_capacity(ndeg);
    for i in 0..ndeg {
        let b = buf[i];
        stages.push(if b == STAGE_REMOVED { None } else { Some(b) });
    }
    *buf = &buf[ndeg..];
    let row = decode_row(buf)?;
    if !buf.is_empty() {
        return Err(Error::Corrupt(format!(
            "{} trailing bytes after stored tuple",
            buf.len()
        )));
    }
    Ok(StoredTuple {
        insert_ts,
        stages,
        row,
    })
}

impl StoredTuple {
    /// Age at `now`.
    pub fn age(&self, now: Timestamp) -> instant_common::Duration {
        now.since(self.insert_ts)
    }

    /// Have all degradable attributes been removed? (Then the tuple itself
    /// is due for expunge.)
    pub fn fully_degraded(&self) -> bool {
        !self.stages.is_empty() && self.stages.iter().all(|s| s.is_none())
    }

    /// The one coarsening step, shared by the pump and redo: move
    /// degradable column `cid` (schema slot `slot`, policy `d`) to LCP
    /// stage `to` — generalize its value to that stage's level, or remove
    /// it when `to` is `None` or past the last stage. Monotone by
    /// construction: unless the column is stored at a finer stage this is
    /// a no-op and returns `None`; otherwise it returns the index
    /// migration the step implies.
    pub fn coarsen(
        &mut self,
        slot: usize,
        cid: ColumnId,
        d: &Degrader,
        to: Option<u8>,
    ) -> Result<Option<IndexMove>> {
        let stages = d.lcp().stages();
        let to = to.filter(|s| (*s as usize) < stages.len());
        let Some(from) = self.stages.get(slot).copied().flatten() else {
            return Ok(None); // removed: nothing is coarser
        };
        if to.is_some_and(|to| to <= from) {
            return Ok(None);
        }
        let value = &mut self.row[cid.0 as usize];
        let new = match to {
            Some(s) => {
                let level = stages[s as usize].level;
                Some((level, d.hierarchy().generalize(value, level)?))
            }
            None => None,
        };
        let kept = new.as_ref().map_or(Value::Removed, |(_, v)| v.clone());
        let old = std::mem::replace(value, kept);
        self.stages[slot] = to;
        Ok(Some((cid, stages[from as usize].level, old, new)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Timestamp, Vec<Option<u8>>, Vec<Value>) {
        (
            Timestamp::micros(777),
            vec![Some(0), Some(2), None],
            vec![
                Value::Int(1),
                Value::Str("alice".into()),
                Value::Str("Paris".into()),
                Value::Range { lo: 2000, hi: 3000 },
                Value::Removed,
            ],
        )
    }

    #[test]
    fn round_trip() {
        let (ts, stages, row) = sample();
        let bytes = encode_stored_raw(ts, &stages, &row);
        let t = decode_stored(&bytes).unwrap();
        assert_eq!(t.insert_ts, ts);
        assert_eq!(t.stages, stages);
        assert_eq!(t.row, row);
    }

    #[test]
    fn truncation_detected_everywhere() {
        let (ts, stages, row) = sample();
        let bytes = encode_stored_raw(ts, &stages, &row);
        for cut in 0..bytes.len() {
            assert!(decode_stored(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_garbage_detected() {
        let (ts, stages, row) = sample();
        let mut bytes = encode_stored_raw(ts, &stages, &row);
        bytes.push(7);
        assert!(decode_stored(&bytes).is_err());
    }

    #[test]
    fn fully_degraded_detection() {
        let t = StoredTuple {
            insert_ts: Timestamp::ZERO,
            stages: vec![None, None],
            row: vec![Value::Removed, Value::Removed],
        };
        assert!(t.fully_degraded());
        let t2 = StoredTuple {
            insert_ts: Timestamp::ZERO,
            stages: vec![None, Some(1)],
            row: vec![],
        };
        assert!(!t2.fully_degraded());
        // No degradable columns → never "fully degraded" via this path.
        let t3 = StoredTuple {
            insert_ts: Timestamp::ZERO,
            stages: vec![],
            row: vec![],
        };
        assert!(!t3.fully_degraded());
    }

    #[test]
    fn coarsen_only_ever_moves_to_a_coarser_stage() {
        use instant_lcp::gtree::location_tree_fig1;
        use instant_lcp::AttributeLcp;
        let d = Degrader::new(
            std::sync::Arc::new(location_tree_fig1()),
            AttributeLcp::fig2_location(),
        )
        .unwrap();
        let cid = ColumnId(1);
        let addr = Value::Str("4 rue Jussieu".into());
        let mut t = StoredTuple {
            insert_ts: Timestamp::ZERO,
            stages: vec![Some(0)],
            row: vec![Value::Int(1), addr.clone()],
        };
        // Two stages in one step: address → region.
        let region = Value::Str("Ile-de-France".into());
        assert_eq!(
            t.coarsen(0, cid, &d, Some(2)).unwrap(),
            Some((cid, LevelId(0), addr, Some((LevelId(2), region.clone()))))
        );
        assert_eq!((t.stages[0], &t.row[1]), (Some(2), &region));
        // The same or a finer stage is a no-op.
        for to in [Some(0), Some(2)] {
            assert_eq!(t.coarsen(0, cid, &d, to).unwrap(), None);
        }
        // Past the last stage means removed.
        let (_, _, _, new) = t.coarsen(0, cid, &d, Some(9)).unwrap().unwrap();
        assert_eq!(new, None);
        assert_eq!((t.stages[0], &t.row[1]), (None, &Value::Removed));
        assert_eq!(t.coarsen(0, cid, &d, None).unwrap(), None);
    }

    #[test]
    fn age_computation() {
        let t = StoredTuple {
            insert_ts: Timestamp::micros(100),
            stages: vec![],
            row: vec![],
        };
        assert_eq!(
            t.age(Timestamp::micros(250)),
            instant_common::Duration::micros(150)
        );
        // Clock earlier than insert saturates to zero.
        assert_eq!(t.age(Timestamp::micros(50)), instant_common::Duration::ZERO);
    }

    #[test]
    fn empty_row_and_no_degradables() {
        let bytes = encode_stored_raw(Timestamp::ZERO, &[], &[Value::Int(9)]);
        let t = decode_stored(&bytes).unwrap();
        assert!(t.stages.is_empty());
        assert_eq!(t.row, vec![Value::Int(9)]);
    }
}
