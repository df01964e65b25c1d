//! # instant-tx
//!
//! Transactions for a degrading store — the paper's first challenge: "User
//! transactions inserting tuples with degradable attributes generate
//! effects all along the lifetime of the degradation process … This
//! significantly impacts transaction atomicity and durability and even
//! isolation considering potential conflicts between degradation steps and
//! reader transactions."
//!
//! The model implemented here:
//!
//! * **User transactions** are strictly two-phase-locked ([`locks`]), with
//!   shared/exclusive modes at tuple and table granularity plus intention
//!   modes at the table level.
//! * **Degradation steps run as system transactions**: each scheduler batch
//!   acquires exclusive tuple locks like any writer, so readers never
//!   observe a half-degraded tuple, and a reader holding a shared lock
//!   delays the degrader rather than seeing torn state. The resulting
//!   reader/degrader conflict rate is the benchmark's `tx.lock_retries`.
//! * **Deadlock avoidance is wait-die** (older waits, younger aborts with
//!   [`instant_common::Error::TxConflict`], which is retryable). Timestamps
//!   are transaction ids, which increase monotonically.
//!
//! Atomicity of the *user* view follows the paper's semantics: the user
//! transaction commits normally; the degradation process then owns the
//! tuple's remaining lifetime (its steps are system-transactional and
//! redo-logged — see `instant-wal`).

#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod locks;
pub mod manager;

pub use locks::{LockManager, LockMode, Resource};
pub use manager::{TxHandle, TxManager};
