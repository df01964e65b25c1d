//! The ordered secondary index: a std [`BTreeMap`] from key to postings.
//!
//! Keys are [`Value`]s ordered by [`Value::compare`]; each key holds a
//! postings list of tuple ids (secondary-index semantics: one key may name
//! many tuples, and the same tuple may be posted under a key more than
//! once). Removing a key's last posting removes the key from the map, so
//! the index keeps no copy of a value it no longer posts.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;

use instant_common::{TupleId, Value};

use crate::SecondaryIndex;

/// A stored key. The map orders it by [`Value::compare`].
#[derive(Debug)]
struct Key(Value);

/// The view the map compares: its own [`Key`]s and borrowed `&Value`
/// probes alike, so a lookup does not clone the probe.
trait AsValue {
    fn value(&self) -> &Value;
}

impl AsValue for Key {
    fn value(&self) -> &Value {
        &self.0
    }
}

impl AsValue for Value {
    fn value(&self) -> &Value {
        self
    }
}

impl<'a> Borrow<dyn AsValue + 'a> for Key {
    fn borrow(&self) -> &(dyn AsValue + 'a) {
        self
    }
}

impl Ord for dyn AsValue + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.value().compare(other.value())
    }
}

impl PartialOrd for dyn AsValue + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for dyn AsValue + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for dyn AsValue + '_ {}

// `Borrow` requires `Key` to order exactly as its borrowed form does.
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.compare(&other.0)
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Key {}

/// An ordered secondary index over one column.
///
/// The name is older than the implementation: `benchmark/src/trace.rs`
/// imports `BPlusTree`, so the rename waits for the next change to the
/// benchmark.
#[derive(Debug, Default)]
pub struct BPlusTree {
    map: BTreeMap<Key, Vec<TupleId>>,
    /// Total postings.
    len: usize,
}

impl BPlusTree {
    pub fn new() -> BPlusTree {
        BPlusTree::default()
    }

    /// All postings in key order (debug / verification).
    pub fn ordered_entries(&self) -> Vec<(Value, Vec<TupleId>)> {
        self.map
            .iter()
            .map(|(k, p)| (k.0.clone(), p.clone()))
            .collect()
    }
}

/// Whether no key can lie between the bounds. std's `range` panics on
/// such bounds instead of answering empty.
fn admits_nothing(lo: Bound<&Value>, hi: Bound<&Value>) -> bool {
    match (lo, hi) {
        (Bound::Included(lo), Bound::Included(hi)) => lo.compare(hi) == Ordering::Greater,
        (Bound::Included(lo) | Bound::Excluded(lo), Bound::Included(hi) | Bound::Excluded(hi)) => {
            lo.compare(hi) != Ordering::Less
        }
        _ => false,
    }
}

impl SecondaryIndex for BPlusTree {
    fn insert(&mut self, key: &Value, tid: TupleId) {
        match self.map.get_mut(key as &dyn AsValue) {
            Some(postings) => postings.push(tid),
            None => {
                self.map.insert(Key(key.clone()), vec![tid]);
            }
        }
        self.len += 1;
    }

    fn remove(&mut self, key: &Value, tid: TupleId) -> bool {
        let probe = key as &dyn AsValue;
        let Some(postings) = self.map.get_mut(probe) else {
            return false;
        };
        let Some(pos) = postings.iter().position(|t| *t == tid) else {
            return false;
        };
        postings.swap_remove(pos);
        if postings.is_empty() {
            self.map.remove(probe);
        }
        self.len -= 1;
        true
    }

    fn get(&self, key: &Value) -> Vec<TupleId> {
        self.map
            .get(key as &dyn AsValue)
            .cloned()
            .unwrap_or_default()
    }

    fn range(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<TupleId> {
        if admits_nothing(lo, hi) {
            return Vec::new();
        }
        let bounds = (lo.map(|v| v as &dyn AsValue), hi.map(|v| v as &dyn AsValue));
        self.map
            .range::<dyn AsValue, _>(bounds)
            .flat_map(|(_, p)| p.iter().copied())
            .collect()
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::ops::Bound::{Excluded, Included, Unbounded};

    fn tid(n: u64) -> TupleId {
        TupleId::unpack(n)
    }

    #[test]
    fn insert_get_basic() {
        let mut t = BPlusTree::new();
        t.insert(&Value::Int(5), tid(1));
        t.insert(&Value::Int(3), tid(2));
        t.insert(&Value::Int(5), tid(3));
        assert_eq!(t.get(&Value::Int(5)), vec![tid(1), tid(3)]);
        assert_eq!(t.get(&Value::Int(3)), vec![tid(2)]);
        assert!(t.get(&Value::Int(4)).is_empty());
        assert_eq!(t.len(), 3);
        assert_eq!(t.ordered_entries().len(), 2);
    }

    #[test]
    fn scrambled_inserts_come_back_ordered() {
        let mut t = BPlusTree::new();
        let n = 5000;
        // Insert in a scrambled order.
        for i in 0..n {
            let k = (i * 2654435761u64) % n;
            t.insert(&Value::Int(k as i64), tid(k));
        }
        let entries = t.ordered_entries();
        assert_eq!(entries.len(), n as usize);
        for (i, (k, _)) in entries.iter().enumerate() {
            assert_eq!(k, &Value::Int(i as i64), "keys must come back sorted");
        }
    }

    #[test]
    fn matches_model_btreemap() {
        let mut t = BPlusTree::new();
        let mut model: BTreeMap<i64, Vec<TupleId>> = BTreeMap::new();
        let mut x = 12345u64;
        for i in 0..3000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (x >> 33) as i64 % 500;
            t.insert(&Value::Int(k), tid(i));
            model.entry(k).or_default().push(tid(i));
        }
        for (k, v) in &model {
            let mut got = t.get(&Value::Int(*k));
            let mut want = v.clone();
            got.sort();
            want.sort();
            assert_eq!(got, want, "key {k}");
        }
        assert_eq!(t.len(), 3000);
    }

    #[test]
    fn range_scan_semantics() {
        let mut t = BPlusTree::new();
        for i in 0..200 {
            t.insert(&Value::Int(i), tid(i as u64));
        }
        let got = t.range(Included(&Value::Int(50)), Excluded(&Value::Int(60)));
        let want: Vec<TupleId> = (50..60).map(|i| tid(i as u64)).collect();
        assert_eq!(got, want, "lo inclusive, hi exclusive");
        assert_eq!(
            t.range(Excluded(&Value::Int(50)), Included(&Value::Int(60)))
                .len(),
            10
        );
        // Open bounds.
        assert_eq!(t.range(Unbounded, Excluded(&Value::Int(3))).len(), 3);
        assert_eq!(t.range(Included(&Value::Int(197)), Unbounded).len(), 3);
        assert_eq!(t.range(Unbounded, Unbounded).len(), 200);
        // Bounds that admit nothing answer empty instead of panicking.
        assert!(t
            .range(Included(&Value::Int(60)), Included(&Value::Int(50)))
            .is_empty());
        assert!(t
            .range(Excluded(&Value::Int(50)), Excluded(&Value::Int(50)))
            .is_empty());
        assert_eq!(
            t.range(Included(&Value::Int(50)), Included(&Value::Int(50))),
            vec![tid(50)]
        );
    }

    #[test]
    fn remove_postings_and_keys() {
        let mut t = BPlusTree::new();
        t.insert(&Value::Int(1), tid(10));
        t.insert(&Value::Int(1), tid(11));
        assert!(t.remove(&Value::Int(1), tid(10)));
        assert_eq!(t.get(&Value::Int(1)), vec![tid(11)]);
        assert!(!t.remove(&Value::Int(1), tid(10)), "double remove is false");
        assert!(t.remove(&Value::Int(1), tid(11)));
        assert!(t.get(&Value::Int(1)).is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.ordered_entries().is_empty());
        assert!(!t.remove(&Value::Int(99), tid(1)), "absent key");
    }

    #[test]
    fn string_keys_work() {
        let mut t = BPlusTree::new();
        for city in ["Paris", "Lyon", "Enschede", "Amsterdam", "Versailles"] {
            t.insert(&Value::Str(city.into()), tid(city.len() as u64));
        }
        assert_eq!(t.get(&Value::Str("Paris".into())), vec![tid(5)]);
        let range = t.range(
            Included(&Value::Str("Amsterdam".into())),
            Excluded(&Value::Str("Lyon".into())),
        );
        assert_eq!(range.len(), 2); // Amsterdam, Enschede
    }

    #[test]
    fn duplicate_heavy_workload() {
        // Degraded levels have few distinct keys and huge postings lists.
        let mut t = BPlusTree::new();
        for i in 0..10_000u64 {
            let country = if i % 3 == 0 { "France" } else { "Netherlands" };
            t.insert(&Value::Str(country.into()), tid(i));
        }
        assert_eq!(t.ordered_entries().len(), 2);
        assert_eq!(t.get(&Value::Str("France".into())).len(), 3334);
        assert_eq!(t.get(&Value::Str("Netherlands".into())).len(), 6666);
    }

    #[test]
    fn descending_insertion_order() {
        let mut t = BPlusTree::new();
        for i in (0..1000).rev() {
            t.insert(&Value::Int(i), tid(i as u64));
        }
        let entries = t.ordered_entries();
        assert_eq!(entries.len(), 1000);
        assert_eq!(entries[0].0, Value::Int(0));
        assert_eq!(entries[999].0, Value::Int(999));
    }
}
