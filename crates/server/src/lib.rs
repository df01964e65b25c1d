//! # instant-server
//!
//! The network front-end that turns the embedded InstantDB engine into a
//! served one: a TCP server speaking a length-prefixed, versioned frame
//! protocol ([`protocol`]), one thread and one
//! [`Session`](instant_core::Session) per connection (purpose
//! declarations persist across a connection's queries, which run in
//! arrival order on that thread), and an admission gate at accept that
//! sheds connections past `max_connections` with a typed
//! [`ServerBusy`](instant_common::Error::ServerBusy) error instead of
//! stalling the accept loop.
//!
//! The serving layer is deliberately thin: concurrency control (2PL),
//! durability (the group-commit pipeline — built precisely to amortize
//! many concurrent committers' fsyncs, which a multi-client server
//! finally supplies) and timely degradation all live in the engine
//! below. What this crate adds is the traffic shape: admission, one
//! session per connection, typed error transport, graceful shutdown in
//! dependency order, and a DDL journal so a restarted server recovers its
//! schemas ([`server::open_or_recover`]).
//!
//! * [`server`] — [`Server`]: acceptor, connection threads, stats,
//!   shutdown.
//! * [`client`] — [`Client`]: blocking, reconnect-aware, replays purpose
//!   declarations after re-dial.
//! * [`protocol`] — frame codec shared by both sides.
//! * [`stats`] — [`ServerStats`], the network sibling of
//!   [`wal_stats`](instant_core::metrics::wal_stats).
//!
//! Binaries: `instantdb-server` (serve a data directory) and
//! `instantdb-cli` (drive a server from scripts or a REPL).

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod stats;

pub use client::Client;
pub use server::{open_or_recover, Server, ServerConfig, DEFAULT_SLOW_QUERY};
pub use stats::ServerStats;

/// Snapshot a running server's counters — the serving-layer counterpart
/// of [`instant_core::metrics::wal_stats`].
pub fn server_stats(server: &Server) -> ServerStats {
    server.stats()
}
