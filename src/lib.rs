//! # InstantDB
//!
//! A from-scratch Rust reproduction of **"InstantDB: Enforcing Timely
//! Degradation of Sensitive Data"** (Anciaux, Bouganim, van Heerde,
//! Pucheral, Apers — ICDE 2008): a relational engine in which sensitive
//! attributes undergo "a progressive and irreversible degradation from an
//! accurate state at collection time, to intermediate but still informative
//! fuzzy states, to complete disappearance".
//!
//! ## Quick start
//!
//! ```
//! use instantdb::prelude::*;
//! use std::sync::Arc;
//!
//! // A deterministic clock lets the example compress hours into one call.
//! let clock = MockClock::new();
//! let db = Arc::new(Db::open(DbConfig::default(), clock.shared()).unwrap());
//! let mut session = Session::new(db.clone());
//!
//! // Register the paper's Fig. 1 location tree and create a table whose
//! // location column follows the Fig. 2 life cycle policy.
//! session.register_hierarchy("location_gt", Arc::new(location_tree_fig1()));
//! session.execute(
//!     "CREATE TABLE person (id INT INDEXED, \
//!      location TEXT DEGRADE USING location_gt \
//!        LCP 'address:1h -> city:1d -> region:1mo -> country:1mo' INDEXED)",
//! ).unwrap();
//! session.execute("INSERT INTO person VALUES (1, '4 rue Jussieu')").unwrap();
//!
//! // A few simulated hours later the address has degraded to its city…
//! clock.advance(Duration::hours(6));
//! db.pump_degradation().unwrap();
//!
//! // …and a query at city accuracy sees exactly that.
//! session.execute(
//!     "DECLARE PURPOSE DEMO SET ACCURACY LEVEL CITY FOR LOCATION",
//! ).unwrap();
//! let rows = session.execute("SELECT location FROM person").unwrap().rows();
//! assert_eq!(rows.rows[0][0], Value::Str("Paris".into()));
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`common`] | values, clock, ids, codec, errors |
//! | [`lcp`] | generalization trees, LCP automata |
//! | [`storage`] | pages, buffer pool, heap, secure delete |
//! | [`wal`] | sealed WAL, key shredding, recovery |
//! | [`index`] | ordered index, degradation-aware multi-level index |
//! | [`tx`] | 2PL locks, wait-die, transactions |
//! | [`core`] | catalog, scheduler, SQL, the [`prelude::Db`] engine |
//! | [`server`] | TCP front-end: wire protocol, a thread per connection, admission control |
//! | [`workload`] | generators and attacker models |

#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub use instant_common as common;
pub use instant_core as core;
pub use instant_index as index;
pub use instant_lcp as lcp;
pub use instant_server as server;
pub use instant_storage as storage;
pub use instant_tx as tx;
pub use instant_wal as wal;
pub use instant_workload as workload;

/// The one-stop import for applications.
pub mod prelude {
    pub use instant_common::{
        Clock, DataType, Duration, Error, LevelId, MockClock, Result, SharedClock, SystemClock,
        Timestamp, TupleId, Value,
    };
    pub use instant_core::baseline::{protected_location_schema, Protection, FOREVER};
    pub use instant_core::daemon::{CheckpointReport, Checkpointer, DegradationDaemon};
    pub use instant_core::db::{Db, DbConfig, PumpReport, WalMode};
    pub use instant_core::metrics::{
        exposure_of_db, exposure_of_table, total_exposure, wal_stats, WalStats,
    };
    pub use instant_core::query::exec::{QueryOutput, QueryResult};
    pub use instant_core::query::session::{HierarchyRegistry, QuerySemantics, Session};
    pub use instant_core::schema::{Column, ColumnKind, TableSchema};
    pub use instant_core::{GroupCommitConfig, GroupCommitStats};
    pub use instant_lcp::gtree::{location_tree_fig1, GeneralizationTree};
    pub use instant_lcp::{AttributeLcp, Degrader, Hierarchy, RangeHierarchy};
    pub use instant_server::{server_stats, Client, Server, ServerConfig, ServerStats};
    pub use instant_storage::SecurePolicy;
    pub use instant_wal::{SegmentConfig, SegmentStats};
    pub use instant_workload::attacker::SnapshotAttacker;
    pub use instant_workload::events::{EventStream, EventStreamConfig};
    pub use instant_workload::location::{LocationDomain, LocationShape};
}

#[cfg(test)]
mod facade_tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_links() {
        let clock = MockClock::new();
        let db = Db::open(DbConfig::default(), clock.shared()).unwrap();
        assert_eq!(db.now(), Timestamp::ZERO);
    }
}
