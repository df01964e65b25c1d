//! # instant-index
//!
//! Indexing for degradable attributes — the paper's third challenge:
//! "data degradation changes the workload characteristics in the sense that
//! OLTP queries become less selective when applied to degradable attributes
//! and OLAP must take care of updates incurred by degradation. This
//! introduces the need for indexing techniques supporting efficiently
//! degradation."
//!
//! Two from-scratch structures behind one [`SecondaryIndex`] trait:
//!
//! * [`btree::BPlusTree`] — order-64 B+-tree with leaf links; the right
//!   tool for the *accurate* state `d0`, where the domain is wide and
//!   predicates are selective.
//! * [`bitmap::BitmapIndex`] — bitmap per distinct value; the right tool
//!   for *degraded* states, whose cardinality collapses (7 addresses → 2
//!   countries in Fig. 1) and whose queries touch large fractions of the
//!   store.
//!
//! [`multilevel::MultiLevelIndex`] is the degradation-aware composite: one
//! structure per accuracy level (B+-tree at `d0`, bitmaps above), kept
//! consistent by the degradation step's `migrate` call. Experiment E9
//! compares all of them against sequential scans across accuracy levels and
//! selectivities.

#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod bitmap;
pub mod btree;
pub mod multilevel;

use instant_common::{TupleId, Value};

/// A secondary index mapping attribute values to tuple ids.
pub trait SecondaryIndex: Send + Sync + std::fmt::Debug {
    /// Register `tid` under `key`.
    fn insert(&mut self, key: &Value, tid: TupleId);

    /// Remove `tid` from `key`'s postings. Returns whether it was present.
    fn remove(&mut self, key: &Value, tid: TupleId) -> bool;

    /// Tuples whose key equals `key` (per [`Value::compare`] semantics).
    fn get(&self, key: &Value) -> Vec<TupleId>;

    /// Tuples with `lo <= key < hi` (either bound optional). Implementations
    /// that cannot range-scan return `None` and the planner falls back.
    fn range(&self, lo: Option<&Value>, hi: Option<&Value>) -> Option<Vec<TupleId>>;

    /// Total postings (tuple references) stored.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct keys.
    fn distinct_keys(&self) -> usize;
}
