//! # instant-index
//!
//! Indexing for degradable attributes — the paper's third challenge:
//! "data degradation changes the workload characteristics in the sense that
//! OLTP queries become less selective when applied to degradable attributes
//! and OLAP must take care of updates incurred by degradation. This
//! introduces the need for indexing techniques supporting efficiently
//! degradation."
//!
//! One structure, [`btree::BPlusTree`]: a std ordered map from key to
//! postings, serving equality and range probes at every accuracy level.
//!
//! [`multilevel::MultiLevelIndex`] is the degradation-aware composite: one
//! ordered map per accuracy level, kept consistent by the degradation
//! step's `migrate` call.

#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod btree;
pub mod multilevel;

use std::ops::Bound;

use instant_common::{TupleId, Value};

/// A secondary index mapping attribute values to tuple ids.
///
/// [`btree::BPlusTree`] is its one implementation; `benchmark/src/trace.rs`
/// imports the trait to call it, so folding it into inherent methods waits
/// for the next change to the benchmark.
pub trait SecondaryIndex {
    /// Register `tid` under `key`.
    fn insert(&mut self, key: &Value, tid: TupleId);

    /// Remove `tid` from `key`'s postings. Returns whether it was present.
    fn remove(&mut self, key: &Value, tid: TupleId) -> bool;

    /// Tuples whose key equals `key` (per [`Value::compare`] semantics).
    fn get(&self, key: &Value) -> Vec<TupleId>;

    /// Tuples whose key lies within the bounds, in key order. Bounds that
    /// admit no key (`lo > hi`, or `lo == hi` with either end excluded)
    /// give an empty result.
    fn range(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<TupleId>;

    /// Total postings (tuple references) stored.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
