//! The degradation-aware multi-level index.
//!
//! One ordered map **per accuracy level** of a degradable column. The
//! degradation step calls [`MultiLevelIndex::migrate`], which removes the
//! tuple from its old level and inserts the degraded value into the new
//! level — so at any instant, querying level `k` consults exactly the
//! tuples whose current accuracy *is* `k`, which is precisely the
//! subset-`ST_j` bookkeeping the σ/π semantics need.
//!
//! Removing a key's last posting removes the key itself, and no other copy
//! of a key is kept (no separators, no tombstones). So once migration has
//! moved every tuple off a fine-grained value, that value is gone from the
//! index — closing the "unintended retention in the indexes" channel (the
//! forensic experiment scans index memory too).

use std::ops::Bound;

use instant_common::{Error, LevelId, Result, TupleId, Value};

use crate::btree::BPlusTree;
use crate::SecondaryIndex;

/// Per-level index composite for one degradable column.
#[derive(Debug)]
pub struct MultiLevelIndex {
    levels: Vec<BPlusTree>,
}

impl MultiLevelIndex {
    /// One empty ordered map per level.
    pub fn new(num_levels: u8) -> MultiLevelIndex {
        assert!(num_levels >= 1);
        MultiLevelIndex {
            levels: (0..num_levels).map(|_| BPlusTree::new()).collect(),
        }
    }

    pub fn num_levels(&self) -> u8 {
        self.levels.len() as u8
    }

    fn level_mut(&mut self, k: LevelId) -> Result<&mut BPlusTree> {
        let n = self.levels.len();
        self.levels
            .get_mut(k.0 as usize)
            .ok_or_else(|| Error::Accuracy(format!("index has {n} levels, requested d{}", k.0)))
    }

    fn level(&self, k: LevelId) -> Result<&BPlusTree> {
        self.levels.get(k.0 as usize).ok_or_else(|| {
            Error::Accuracy(format!(
                "index has {} levels, requested d{}",
                self.levels.len(),
                k.0
            ))
        })
    }

    /// Register a fresh tuple at its insert level (normally `d0`).
    pub fn insert_at(&mut self, k: LevelId, key: &Value, tid: TupleId) -> Result<()> {
        self.level_mut(k)?.insert(key, tid);
        Ok(())
    }

    /// Degradation step: move `tid` from `(old_level, old_key)` to
    /// `(new_level, new_key)`. `new_level = None` removes it entirely
    /// (attribute reached ⊥ / tuple expunged).
    pub fn migrate(
        &mut self,
        old_level: LevelId,
        old_key: &Value,
        new_level: Option<LevelId>,
        new_key: Option<&Value>,
        tid: TupleId,
    ) -> Result<()> {
        let removed = self.level_mut(old_level)?.remove(old_key, tid);
        if !removed {
            return Err(Error::NotFound(format!(
                "tuple {tid} not indexed at level d{} under {old_key}",
                old_level.0
            )));
        }
        if let (Some(nl), Some(nk)) = (new_level, new_key) {
            self.level_mut(nl)?.insert(nk, tid);
        }
        Ok(())
    }

    /// Remove `tid` from `k` (user delete).
    pub fn remove_at(&mut self, k: LevelId, key: &Value, tid: TupleId) -> Result<bool> {
        Ok(self.level_mut(k)?.remove(key, tid))
    }

    /// Equality lookup at level `k` — exactly the tuples currently stored
    /// at `k` with that value.
    pub fn get_at(&self, k: LevelId, key: &Value) -> Result<Vec<TupleId>> {
        Ok(self.level(k)?.get(key))
    }

    /// Range lookup at level `k`; see [`SecondaryIndex::range`].
    pub fn range_at(
        &self,
        k: LevelId,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> Result<Vec<TupleId>> {
        Ok(self.level(k)?.range(lo, hi))
    }

    /// Number of tuples currently indexed at each level (the level
    /// occupancy histogram).
    pub fn occupancy(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.len()).collect()
    }

    /// Total entries across levels.
    pub fn len(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(n: u64) -> TupleId {
        TupleId::unpack(n)
    }

    #[test]
    fn insert_then_migrate_through_life_cycle() {
        let mut idx = MultiLevelIndex::new(4);
        let t = tid(7);
        let addr = Value::Str("Domaine de Voluceau".into());
        let city = Value::Str("Le Chesnay".into());
        let region = Value::Str("Ile-de-France".into());

        idx.insert_at(LevelId(0), &addr, t).unwrap();
        assert_eq!(idx.get_at(LevelId(0), &addr).unwrap(), vec![t]);
        assert_eq!(idx.occupancy(), vec![1, 0, 0, 0]);

        idx.migrate(LevelId(0), &addr, Some(LevelId(1)), Some(&city), t)
            .unwrap();
        assert!(idx.get_at(LevelId(0), &addr).unwrap().is_empty());
        assert_eq!(idx.get_at(LevelId(1), &city).unwrap(), vec![t]);
        assert_eq!(idx.occupancy(), vec![0, 1, 0, 0]);

        idx.migrate(LevelId(1), &city, Some(LevelId(2)), Some(&region), t)
            .unwrap();
        assert_eq!(idx.occupancy(), vec![0, 0, 1, 0]);

        // Final removal.
        idx.migrate(LevelId(2), &region, None, None, t).unwrap();
        assert!(idx.is_empty());
    }

    #[test]
    fn migrate_of_unindexed_tuple_errors() {
        let mut idx = MultiLevelIndex::new(2);
        let r = idx.migrate(
            LevelId(0),
            &Value::Int(1),
            Some(LevelId(1)),
            Some(&Value::Int(1)),
            tid(1),
        );
        assert!(matches!(r, Err(Error::NotFound(_))));
    }

    #[test]
    fn queries_at_level_see_only_that_level() {
        let mut idx = MultiLevelIndex::new(2);
        let fr = Value::Str("France".into());
        idx.insert_at(LevelId(0), &fr, tid(1)).unwrap();
        idx.insert_at(LevelId(1), &fr, tid(2)).unwrap();
        assert_eq!(idx.get_at(LevelId(0), &fr).unwrap(), vec![tid(1)]);
        assert_eq!(idx.get_at(LevelId(1), &fr).unwrap(), vec![tid(2)]);
    }

    #[test]
    fn range_at_int_and_interval_levels() {
        let mut idx = MultiLevelIndex::new(2);
        for i in 0..100 {
            idx.insert_at(LevelId(0), &Value::Int(i), tid(i as u64))
                .unwrap();
        }
        for i in 0..10 {
            idx.insert_at(
                LevelId(1),
                &Value::Range {
                    lo: i * 1000,
                    hi: (i + 1) * 1000,
                },
                tid(1000 + i as u64),
            )
            .unwrap();
        }
        let d0 = idx
            .range_at(
                LevelId(0),
                Bound::Included(&Value::Int(10)),
                Bound::Excluded(&Value::Int(20)),
            )
            .unwrap();
        assert_eq!(d0.len(), 10);
        let d1 = idx
            .range_at(
                LevelId(1),
                Bound::Included(&Value::Range { lo: 2000, hi: 3000 }),
                Bound::Excluded(&Value::Range { lo: 5000, hi: 6000 }),
            )
            .unwrap();
        assert_eq!(d1.len(), 3);
    }

    #[test]
    fn out_of_range_level_errors() {
        let idx = MultiLevelIndex::new(2);
        assert!(idx.get_at(LevelId(5), &Value::Int(1)).is_err());
    }

    #[test]
    fn occupancy_histogram_under_bulk_migration() {
        let mut idx = MultiLevelIndex::new(3);
        let v0 = Value::Int(42);
        let v1 = Value::Range { lo: 0, hi: 100 };
        for i in 0..1000u64 {
            idx.insert_at(LevelId(0), &v0, tid(i)).unwrap();
        }
        for i in 0..600u64 {
            idx.migrate(LevelId(0), &v0, Some(LevelId(1)), Some(&v1), tid(i))
                .unwrap();
        }
        assert_eq!(idx.occupancy(), vec![400, 600, 0]);
        assert_eq!(idx.len(), 1000);
    }

    #[test]
    fn migrated_keys_leave_no_trace() {
        let mut idx = MultiLevelIndex::new(2);
        let addrs: Vec<String> = (0..200).map(|i| format!("addr-needle-{i:04}")).collect();
        for (i, a) in addrs.iter().enumerate() {
            idx.insert_at(LevelId(0), &Value::Str(a.clone()), tid(i as u64))
                .unwrap();
        }
        let city = Value::Str("Paris".into());
        for (i, a) in addrs.iter().enumerate() {
            let addr = Value::Str(a.clone());
            idx.migrate(
                LevelId(0),
                &addr,
                Some(LevelId(1)),
                Some(&city),
                tid(i as u64),
            )
            .unwrap();
        }
        let image = format!("{idx:?}");
        for a in &addrs {
            assert!(!image.contains(a.as_str()), "{a} survives in the index");
        }
        assert_eq!(idx.occupancy(), vec![0, 200]);
    }
}
