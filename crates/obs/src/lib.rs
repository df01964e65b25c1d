//! The observability plane: lock-free latency histograms, lightweight
//! tracing spans, and one named point-in-time stats snapshot.
//!
//! The paper's core promise is *timely* degradation — a tuple that is
//! due to degrade and has not yet is a privacy violation in flight — so
//! the engine must be able to report not just counters after the fact
//! but *how late* its background machinery runs and *where* commit
//! latency goes. This crate is the substrate: every layer (WAL pipeline,
//! query path, checkpoint, recovery, the served front-end) records into
//! one [`Obs`] registry, and `SHOW STATS` / the `Stats` wire frame
//! expose the resulting [`StatsSnapshot`].
//!
//! Design constraints, in order:
//!
//! * **Lock-free on the hot path.** [`LatencyHistogram`] is an array of
//!   atomic log-spaced buckets; recording a sample is a handful of
//!   relaxed atomic adds, safe under any engine lock. The only mutexes
//!   in this crate guard cold-path state (purpose counters, the
//!   slow-query ring, snapshot providers) and are ranked in their own
//!   600-band, above every engine lock — they are leaves, acquired only
//!   after engine work completes (see INVARIANTS.md).
//! * **Zero cost when disabled.** Tracing spans ([`Obs::span`]) are
//!   gated by one atomic flag; when it is off the returned guard holds
//!   nothing — no clock read. The always-on
//!   histograms (commit ack, WAL drain/fsync, query total) cost a
//!   `Instant` pair and a few atomics per *drain* or *query*, which is
//!   noise next to an fsync.
//! * **Dependency-free.** Only `std` and the workspace `parking_lot`
//!   shim (so the debug lock-rank checker sees every lock here too).

#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod hist;
pub mod registry;
pub mod span;

pub use hist::{HistogramSnapshot, LatencyHistogram};
pub use registry::{Obs, PurposeCounters, SlowQuery, StatsSnapshot, WalShardLane};
pub use span::{SpanGuard, Stage};
