//! Arena-based B+-tree with duplicate support and leaf links.
//!
//! Keys are [`Value`]s ordered by [`Value::compare`]; each key holds a
//! postings list of tuple ids (secondary-index semantics). Nodes live in a
//! `Vec` arena addressed by `u32`, which sidesteps ownership cycles for the
//! leaf chain and keeps the structure cache-friendly.
//!
//! Deletion removes postings and, when a key's postings empty, unlinks the
//! key from its leaf **without rebalancing** (lazy deletion). Degradation
//! workloads delete monotonically by age, so underfull leaves are transient
//! and the occasional `rebuild()` (vacuum) restores tightness — cheaper
//! than rebalancing on every delete of an age-ordered stream.

use std::cmp::Ordering;

use instant_common::{TupleId, Value};

use crate::SecondaryIndex;

/// Max keys per node. 64 keeps internal nodes within a cache line or two
/// of `Value` headers while exercising real splits in tests.
const ORDER: usize = 64;
const NIL: u32 = u32::MAX;

#[derive(Debug)]
enum Node {
    Internal {
        /// Separator keys; `children.len() == keys.len() + 1`.
        keys: Vec<Value>,
        children: Vec<u32>,
    },
    Leaf {
        keys: Vec<Value>,
        postings: Vec<Vec<TupleId>>,
        next: u32,
    },
}

/// A B+-tree secondary index.
#[derive(Debug)]
pub struct BPlusTree {
    arena: Vec<Node>,
    root: u32,
    len: usize,
    distinct: usize,
}

impl Default for BPlusTree {
    fn default() -> Self {
        Self::new()
    }
}

impl BPlusTree {
    pub fn new() -> BPlusTree {
        BPlusTree {
            arena: vec![Node::Leaf {
                keys: Vec::new(),
                postings: Vec::new(),
                next: NIL,
            }],
            root: 0,
            len: 0,
            distinct: 0,
        }
    }

    fn alloc(&mut self, node: Node) -> u32 {
        self.arena.push(node);
        (self.arena.len() - 1) as u32
    }

    /// Height of the tree (1 = root is a leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut cur = self.root;
        loop {
            match &self.arena[cur as usize] {
                Node::Internal { children, .. } => {
                    cur = children[0];
                    h += 1;
                }
                Node::Leaf { .. } => return h,
            }
        }
    }

    /// Walk to the leaf that should hold `key`, recording the path.
    fn find_leaf(&self, key: &Value) -> (u32, Vec<(u32, usize)>) {
        let mut path = Vec::new();
        let mut cur = self.root;
        loop {
            match &self.arena[cur as usize] {
                Node::Internal { keys, children } => {
                    // Child index = number of separators <= key. Separators
                    // equal to the key route right (leaf split convention:
                    // the separator is the first key of the right sibling).
                    let idx = match keys.binary_search_by(|k| {
                        match k.compare(key) {
                            Ordering::Greater => Ordering::Greater,
                            _ => Ordering::Less, // equal routes right
                        }
                    }) {
                        Ok(i) | Err(i) => i,
                    }
                    .min(children.len() - 1);
                    path.push((cur, idx));
                    cur = children[idx];
                }
                Node::Leaf { .. } => return (cur, path),
            }
        }
    }

    /// Insert, splitting up the path as needed.
    fn insert_impl(&mut self, key: &Value, tid: TupleId) {
        let (leaf_id, path) = self.find_leaf(key);
        // Insert into leaf.
        let need_split = {
            let Node::Leaf { keys, postings, .. } = &mut self.arena[leaf_id as usize] else {
                unreachable!()
            };
            match keys.binary_search_by(|k| k.compare(key)) {
                Ok(i) => {
                    postings[i].push(tid);
                }
                Err(i) => {
                    keys.insert(i, key.clone());
                    postings.insert(i, vec![tid]);
                    self.distinct += 1;
                }
            }
            keys.len() > ORDER
        };
        self.len += 1;
        if !need_split {
            return;
        }
        // Split leaf.
        let (sep, new_id) = {
            let Node::Leaf {
                keys,
                postings,
                next,
            } = &mut self.arena[leaf_id as usize]
            else {
                unreachable!()
            };
            let mid = keys.len() / 2;
            let right_keys = keys.split_off(mid);
            let right_postings = postings.split_off(mid);
            let sep = right_keys[0].clone();
            let right_next = *next;
            let new_node = Node::Leaf {
                keys: right_keys,
                postings: right_postings,
                next: right_next,
            };
            (sep, new_node)
        };
        let new_id = self.alloc(new_id);
        if let Node::Leaf { next, .. } = &mut self.arena[leaf_id as usize] {
            *next = new_id;
        }
        self.insert_into_parent(path, leaf_id, sep, new_id);
    }

    fn insert_into_parent(
        &mut self,
        mut path: Vec<(u32, usize)>,
        left: u32,
        sep: Value,
        right: u32,
    ) {
        match path.pop() {
            None => {
                // New root.
                let new_root = self.alloc(Node::Internal {
                    keys: vec![sep],
                    children: vec![left, right],
                });
                self.root = new_root;
            }
            Some((parent, child_idx)) => {
                let need_split = {
                    let Node::Internal { keys, children } = &mut self.arena[parent as usize] else {
                        unreachable!()
                    };
                    keys.insert(child_idx, sep);
                    children.insert(child_idx + 1, right);
                    keys.len() > ORDER
                };
                if !need_split {
                    return;
                }
                // Split internal node.
                let (up_sep, new_node) = {
                    let Node::Internal { keys, children } = &mut self.arena[parent as usize] else {
                        unreachable!()
                    };
                    let mid = keys.len() / 2;
                    let up_sep = keys[mid].clone();
                    let right_keys = keys.split_off(mid + 1);
                    keys.pop(); // the separator moves up
                    let right_children = children.split_off(mid + 1);
                    (
                        up_sep,
                        Node::Internal {
                            keys: right_keys,
                            children: right_children,
                        },
                    )
                };
                let new_id = self.alloc(new_node);
                self.insert_into_parent(path, parent, up_sep, new_id);
            }
        }
    }

    /// Leftmost leaf (for full scans).
    fn first_leaf(&self) -> u32 {
        let mut cur = self.root;
        loop {
            match &self.arena[cur as usize] {
                Node::Internal { children, .. } => cur = children[0],
                Node::Leaf { .. } => return cur,
            }
        }
    }

    /// All postings in key order (debug / verification).
    pub fn ordered_entries(&self) -> Vec<(Value, Vec<TupleId>)> {
        let mut out = Vec::new();
        let mut cur = self.first_leaf();
        while cur != NIL {
            let Node::Leaf {
                keys,
                postings,
                next,
            } = &self.arena[cur as usize]
            else {
                unreachable!()
            };
            for (k, p) in keys.iter().zip(postings) {
                if !p.is_empty() {
                    out.push((k.clone(), p.clone()));
                }
            }
            cur = *next;
        }
        out
    }

    /// Rebuild the tree (vacuum after heavy deletion).
    pub fn rebuild(&mut self) {
        let entries = self.ordered_entries();
        *self = BPlusTree::new();
        for (k, postings) in entries {
            for tid in postings {
                self.insert(&k, tid);
            }
        }
    }

    /// Memory-resident node count (for the ablation bench).
    pub fn node_count(&self) -> usize {
        self.arena.len()
    }
}

impl SecondaryIndex for BPlusTree {
    fn insert(&mut self, key: &Value, tid: TupleId) {
        self.insert_impl(key, tid);
    }

    fn remove(&mut self, key: &Value, tid: TupleId) -> bool {
        let (leaf_id, _) = self.find_leaf(key);
        let Node::Leaf { keys, postings, .. } = &mut self.arena[leaf_id as usize] else {
            unreachable!()
        };
        if let Ok(i) = keys.binary_search_by(|k| k.compare(key)) {
            if let Some(pos) = postings[i].iter().position(|t| *t == tid) {
                postings[i].swap_remove(pos);
                self.len -= 1;
                if postings[i].is_empty() {
                    keys.remove(i);
                    postings.remove(i);
                    self.distinct -= 1;
                }
                return true;
            }
        }
        false
    }

    fn get(&self, key: &Value) -> Vec<TupleId> {
        let (leaf_id, _) = self.find_leaf(key);
        let Node::Leaf { keys, postings, .. } = &self.arena[leaf_id as usize] else {
            unreachable!()
        };
        match keys.binary_search_by(|k| k.compare(key)) {
            Ok(i) => postings[i].clone(),
            Err(_) => Vec::new(),
        }
    }

    fn range(&self, lo: Option<&Value>, hi: Option<&Value>) -> Option<Vec<TupleId>> {
        let mut out = Vec::new();
        let mut cur = match lo {
            Some(lo) => self.find_leaf(lo).0,
            None => self.first_leaf(),
        };
        'walk: while cur != NIL {
            let Node::Leaf {
                keys,
                postings,
                next,
            } = &self.arena[cur as usize]
            else {
                unreachable!()
            };
            for (k, p) in keys.iter().zip(postings) {
                if let Some(lo) = lo {
                    if k.compare(lo) == Ordering::Less {
                        continue;
                    }
                }
                if let Some(hi) = hi {
                    if k.compare(hi) != Ordering::Less {
                        break 'walk;
                    }
                }
                out.extend_from_slice(p);
            }
            cur = *next;
        }
        Some(out)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn distinct_keys(&self) -> usize {
        self.distinct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

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
        assert_eq!(t.distinct_keys(), 2);
    }

    #[test]
    fn many_inserts_force_splits_and_stay_ordered() {
        let mut t = BPlusTree::new();
        let n = 5000;
        // Insert in a scrambled order.
        for i in 0..n {
            let k = (i * 2654435761u64) % n;
            t.insert(&Value::Int(k as i64), tid(k));
        }
        assert!(t.height() > 1, "5000 keys must split the root");
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
        let got = t
            .range(Some(&Value::Int(50)), Some(&Value::Int(60)))
            .unwrap();
        let want: Vec<TupleId> = (50..60).map(|i| tid(i as u64)).collect();
        assert_eq!(got, want, "lo inclusive, hi exclusive");
        // Open bounds.
        assert_eq!(t.range(None, Some(&Value::Int(3))).unwrap().len(), 3);
        assert_eq!(t.range(Some(&Value::Int(197)), None).unwrap().len(), 3);
        assert_eq!(t.range(None, None).unwrap().len(), 200);
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
        assert_eq!(t.distinct_keys(), 0);
        assert!(!t.remove(&Value::Int(99), tid(1)), "absent key");
    }

    #[test]
    fn string_keys_work() {
        let mut t = BPlusTree::new();
        for city in ["Paris", "Lyon", "Enschede", "Amsterdam", "Versailles"] {
            t.insert(&Value::Str(city.into()), tid(city.len() as u64));
        }
        assert_eq!(t.get(&Value::Str("Paris".into())), vec![tid(5)]);
        let range = t
            .range(
                Some(&Value::Str("Amsterdam".into())),
                Some(&Value::Str("Lyon".into())),
            )
            .unwrap();
        assert_eq!(range.len(), 2); // Amsterdam, Enschede
    }

    #[test]
    fn rebuild_preserves_content_and_shrinks() {
        let mut t = BPlusTree::new();
        for i in 0..2000 {
            t.insert(&Value::Int(i), tid(i as u64));
        }
        for i in 0..1900 {
            t.remove(&Value::Int(i), tid(i as u64));
        }
        let nodes_before = t.node_count();
        t.rebuild();
        assert!(t.node_count() < nodes_before, "rebuild must shrink arena");
        assert_eq!(t.len(), 100);
        for i in 1900..2000 {
            assert_eq!(t.get(&Value::Int(i)), vec![tid(i as u64)]);
        }
    }

    #[test]
    fn duplicate_heavy_workload() {
        // Degraded levels have few distinct keys and huge postings lists.
        let mut t = BPlusTree::new();
        for i in 0..10_000u64 {
            let country = if i % 3 == 0 { "France" } else { "Netherlands" };
            t.insert(&Value::Str(country.into()), tid(i));
        }
        assert_eq!(t.distinct_keys(), 2);
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
