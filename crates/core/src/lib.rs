//! # instant-core
//!
//! The InstantDB engine: a single-node relational DBMS whose defining
//! feature is **enforced, timely, irreversible degradation** of sensitive
//! attributes according to Life Cycle Policies (ICDE 2008, Section II),
//! built on the substrates of the sibling crates:
//!
//! * [`schema`] / [`tuple`](crate::tuple) — tables mix *stable* and *degradable* columns;
//!   stored tuples carry their insert time and the current accuracy level
//!   of every degradable attribute.
//! * [`catalog`] — catalog and physical tables: a heap file (capacity-
//!   reserving slots, secure overwrite) plus a degradation-aware
//!   multi-level index per indexed column.
//! * [`scheduler`] — the degradation engine: a due-time priority queue of
//!   pending transitions, pumped by [`db::Db::pump_degradation`], each batch
//!   running as a system transaction (2PL, WAL-logged, secure rewrite).
//! * [`daemon`] — background threads on shared scaffolding: the
//!   degradation pump sleeps until the next transition is due (clamped
//!   to [`PUMP_FLOOR`]..=its tick) and fires the due batches, and the
//!   [`Checkpointer`] periodically flushes, truncates the dead log prefix
//!   and shreds old key windows — both concurrent with foreground queries
//!   (the sharded buffer pool keeps page access parallel, the group-commit
//!   pipeline keeps the log append path ordered).
//! * [`query`] — the SQL front end: `DECLARE PURPOSE … SET ACCURACY LEVEL`,
//!   `SELECT`/`INSERT`/`DELETE` with the paper's `σ_P,k` / `π_*,k`
//!   semantics (only subsets whose state can compute level `k` participate;
//!   values are degraded with `f_k` before predicate evaluation).
//! * [`db`] — the façade tying storage, WAL (plain / sealed / off), key
//!   shredding, checkpointing, recovery and the clock together.
//! * [`baseline`] — the paper's comparison points: no protection, limited
//!   retention (all-or-nothing TTL), static anonymization at ingest.
//! * [`metrics`] — the exposure metric (residual information summed over
//!   the store) behind the privacy/security experiments E4–E6.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod baseline;
pub mod catalog;
pub mod config;
pub mod daemon;
pub mod db;
pub mod metrics;
pub mod query;
pub mod scheduler;
pub mod schema;
pub mod tuple;

pub use config::{DbConfig, DbConfigBuilder, WalMode};
pub use daemon::{CheckpointReport, Checkpointer, DegradationDaemon, PUMP_FLOOR};
pub use db::{CommitHandle, Db};
pub use instant_wal::{GroupCommitConfig, GroupCommitStats};
pub use query::session::{HierarchyRegistry, Session};
pub use schema::{Column, ColumnKind, TableSchema};
