//! # instant-common
//!
//! Foundation types shared by every crate in the InstantDB reproduction:
//!
//! * [`Value`] / [`DataType`] — the dynamic value model, including the
//!   [`Value::Range`] variant produced when numeric attributes are degraded
//!   to interval granularity (the paper's `SALARY = '2000-3000'` example).
//! * [`Timestamp`] / [`Duration`] / [`clock`] — a deterministic time
//!   abstraction. Life Cycle Policies are *time triggered*; a mock clock lets
//!   tests and benchmarks compress the paper's minutes-to-months delays.
//! * [`Error`] / [`Result`] — the unified error type.
//! * [`ids`] — strongly typed identifiers (pages, tuples, transactions…).
//! * [`codec`] — length-prefixed binary encoding used by the storage engine
//!   and the write-ahead log.

#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod clock;
pub mod codec;
pub mod error;
pub mod ids;
pub mod time;
pub mod value;

pub use clock::{Clock, MockClock, SharedClock, SystemClock};
pub use error::{Error, Result};
pub use ids::{ColumnId, LevelId, PageId, SlotId, TableId, TupleId, TxId};
pub use time::{Duration, Timestamp};
pub use value::{DataType, Value};
