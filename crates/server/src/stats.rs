//! Server observability counters — the network-layer sibling of
//! [`instant_core::metrics::wal_stats`]: one snapshot struct covering
//! connections, frames, queries, errors and admission-control sheds.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters updated by the acceptor and the connection threads.
#[derive(Debug, Default)]
pub(crate) struct StatsCells {
    pub accepted: AtomicU64,
    pub active: AtomicU64,
    pub shed_connections: AtomicU64,
    pub frames: AtomicU64,
    pub queries: AtomicU64,
    pub query_errors: AtomicU64,
    pub pings: AtomicU64,
    pub protocol_errors: AtomicU64,
    pub dropped_replies: AtomicU64,
}

impl StatsCells {
    pub fn add(&self, cell: impl Fn(&StatsCells) -> &AtomicU64) {
        cell(self).fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> ServerStats {
        let o = Ordering::Relaxed;
        ServerStats {
            connections_accepted: self.accepted.load(o),
            connections_active: self.active.load(o),
            connections_shed: self.shed_connections.load(o),
            frames: self.frames.load(o),
            queries: self.queries.load(o),
            query_errors: self.query_errors.load(o),
            pings: self.pings.load(o),
            protocol_errors: self.protocol_errors.load(o),
            dropped_replies: self.dropped_replies.load(o),
        }
    }
}

/// A point-in-time snapshot of the server's counters (monotonic since
/// start, except the `connections_active` gauge).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections admitted past the `max_connections` gate.
    pub connections_accepted: u64,
    /// Currently open connections (gauge).
    pub connections_active: u64,
    /// Connections refused at accept with a `ServerBusy` error frame.
    pub connections_shed: u64,
    /// Frames read from clients after the handshake (queries + pings +
    /// closes).
    pub frames: u64,
    /// Query frames executed to completion (success or engine error).
    pub queries: u64,
    /// Executed queries that returned an engine error frame.
    pub query_errors: u64,
    /// Ping frames answered.
    pub pings: u64,
    /// Connections torn down for protocol violations (oversized frame,
    /// corrupt framing, unexpected frame kind).
    pub protocol_errors: u64,
    /// Responses that could not be written because the client was gone
    /// (mid-query disconnects).
    pub dropped_replies: u64,
}
