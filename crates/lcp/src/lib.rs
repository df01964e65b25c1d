//! # instant-lcp
//!
//! The Life Cycle Policy (LCP) degradation model of the paper, Section II:
//!
//! * [`gtree`] — **Generalization Trees** (Fig. 1): an explicit domain
//!   generalization hierarchy giving, per accuracy level, the value a datum
//!   takes during its lifetime.
//! * [`range`] — procedural numeric hierarchies (the paper's
//!   `RANGE1000 FOR P.SALARY`): integers generalize into aligned, widening
//!   intervals.
//! * [`hierarchy`] — the common [`hierarchy::Hierarchy`] trait plus the
//!   degradation function `f_k` shared by both forms.
//! * [`automaton`] — **attribute LCPs** (Fig. 2): a deterministic finite
//!   automaton `d0 → d1 → … → dn → ⊥` whose transitions fire after fixed
//!   retention delays.
//! * [`policy`] — a small text DSL for declaring LCPs
//!   (`"address:1h -> city:1d -> region:1mo -> country:1mo"`).
//! * [`degrade`] — the [`degrade::Degrader`]: hierarchy + automaton bound
//!   together, computing `value_at(v0, age)` and the **residual-information
//!   exposure metric** used by the privacy experiments (E4/E5).

#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod automaton;
pub mod degrade;
pub mod gtree;
pub mod hierarchy;
pub mod policy;
pub mod range;

pub use automaton::{AttributeLcp, LcpPosition, LcpStage};
pub use degrade::Degrader;
pub use gtree::GeneralizationTree;
pub use hierarchy::Hierarchy;
pub use range::RangeHierarchy;
