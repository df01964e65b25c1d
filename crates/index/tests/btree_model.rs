//! Property tests: the ordered index against a `BTreeMap` reference model
//! under random interleavings of inserts, removes, lookups and range scans.

use std::collections::BTreeMap;
use std::ops::Bound;

use instant_common::{TupleId, Value};
use instant_index::btree::BPlusTree;
use instant_index::SecondaryIndex;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, u64),
    Remove(i64, u64),
    Get(i64),
    Range(Bound<i64>, Bound<i64>),
}

/// Either end of a range: any kind, any key, so reversed and empty bounds
/// are drawn as often as ordered ones.
fn arb_bound() -> impl Strategy<Value = Bound<i64>> {
    (0u8..3, 0i64..200).prop_map(|(kind, k)| match kind {
        0 => Bound::Included(k),
        1 => Bound::Excluded(k),
        _ => Bound::Unbounded,
    })
}

/// Whether `k` lies within the bounds (by definition, not through `range`).
fn within(k: i64, lo: Bound<i64>, hi: Bound<i64>) -> bool {
    let above = match lo {
        Bound::Included(lo) => k >= lo,
        Bound::Excluded(lo) => k > lo,
        Bound::Unbounded => true,
    };
    let below = match hi {
        Bound::Included(hi) => k <= hi,
        Bound::Excluded(hi) => k < hi,
        Bound::Unbounded => true,
    };
    above && below
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0i64..200, 0u64..50).prop_map(|(k, t)| Op::Insert(k, t)),
        2 => (0i64..200, 0u64..50).prop_map(|(k, t)| Op::Remove(k, t)),
        2 => (0i64..200).prop_map(Op::Get),
        1 => (arb_bound(), arb_bound()).prop_map(|(lo, hi)| Op::Range(lo, hi)),
    ]
}

proptest! {
    #[test]
    fn btree_matches_model(ops in proptest::collection::vec(arb_op(), 1..400)) {
        let mut tree = BPlusTree::new();
        let mut model: BTreeMap<i64, Vec<TupleId>> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, t) => {
                    let tid = TupleId::unpack(t);
                    tree.insert(&Value::Int(k), tid);
                    model.entry(k).or_default().push(tid);
                }
                Op::Remove(k, t) => {
                    let tid = TupleId::unpack(t);
                    let tree_removed = tree.remove(&Value::Int(k), tid);
                    let model_removed = match model.get_mut(&k) {
                        Some(v) => match v.iter().position(|x| *x == tid) {
                            Some(i) => {
                                v.swap_remove(i);
                                if v.is_empty() {
                                    model.remove(&k);
                                }
                                true
                            }
                            None => false,
                        },
                        None => false,
                    };
                    prop_assert_eq!(tree_removed, model_removed);
                }
                Op::Get(k) => {
                    let mut got = tree.get(&Value::Int(k));
                    let mut want = model.get(&k).cloned().unwrap_or_default();
                    got.sort();
                    want.sort();
                    prop_assert_eq!(got, want);
                }
                Op::Range(lo, hi) => {
                    let (vlo, vhi) = (lo.map(Value::Int), hi.map(Value::Int));
                    let mut got = tree.range(vlo.as_ref(), vhi.as_ref());
                    let mut want: Vec<TupleId> = model
                        .iter()
                        .filter(|(k, _)| within(**k, lo, hi))
                        .flat_map(|(_, v)| v.iter().copied())
                        .collect();
                    got.sort();
                    want.sort();
                    prop_assert_eq!(got, want);
                }
            }
            // Global invariants after every op.
            let total: usize = model.values().map(|v| v.len()).sum();
            prop_assert_eq!(tree.len(), total);
            prop_assert_eq!(tree.ordered_entries().len(), model.len());
        }
        // Ordered iteration equals the model.
        let entries = tree.ordered_entries();
        let keys: Vec<i64> = entries
            .iter()
            .map(|(k, _)| k.as_int().unwrap())
            .collect();
        let want_keys: Vec<i64> = model.keys().copied().collect();
        prop_assert_eq!(keys, want_keys);
    }
}
