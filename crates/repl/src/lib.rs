//! # instant-repl
//!
//! Leader → follower replication for InstantDB: sealed WAL segments are
//! shipped whole-file over the SEGS sub-protocol
//! ([`instant_server::protocol::SegFrame`], kinds 9–13 on the same
//! length-prefixed framing as SQL) to read replicas that replay them
//! through the recovery path and serve SELECT / SHOW STATS while
//! refusing mutations with a typed
//! [`ReadOnly`](instant_common::Error::ReadOnly) error.
//!
//! Three layers:
//!
//! * [`leader`] — [`ReplListener`](leader::ReplListener): an accept loop
//!   plus one [`SegmentShipper`](leader::SegmentShipper) daemon per
//!   follower (on [`instant_core::DaemonCore`] scaffolding). Every tick
//!   the shipper rotates dirty actives, streams sealed segments the
//!   follower's durable frontier does not cover, sends a
//!   `Progress` barrier/heartbeat, and reads exactly one `Ack`. Each
//!   follower's ack drives a **retention hold** on the leader's
//!   [`WalSet`](instant_wal::WalSet): checkpoint truncation never
//!   deletes a sealed segment a connected follower has not fsynced yet
//!   (the hold is wired straight into
//!   [`truncate_before`](instant_wal::WalSet::truncate_before)).
//! * [`replica`] — [`Replica`](replica::Replica): dials the leader,
//!   fsyncs received segment files into its own `WalSet` layout,
//!   computes the **stable barrier** (the merged LSN below which no
//!   future record can land and no shipped transaction is still open),
//!   replays the sub-barrier stream with
//!   [`recovery::replay`](instant_wal::recovery::replay) and no cut,
//!   since a follower has no heap image for the leader's checkpoint to
//!   cut against — and applies the
//!   resulting ops through
//!   [`Db::replay_external_ops`](instant_core::Db::replay_external_ops).
//!   Reconnects with backoff; resume is per-shard by durable LSN.
//! * **Degraded views** — a replica whose engine sets
//!   [`DbConfig::replica_degrade_to`](instant_core::DbConfig) applies
//!   every shipped image **eagerly degraded** to at least that stage
//!   before it reaches the follower heap (the engine re-verifies the
//!   floor and fails `Policy` rather than store a too-precise tuple),
//!   and the replica shreds old key windows after each apply round so
//!   precise history never becomes re-materializable on the follower.
//!
//! Lock ranks: this crate owns the 700 band — follower registry 700,
//! replica progress detail 710. Both are leaf-ish: never held across
//! WAL, observability, or socket I/O calls (snapshot, release, then
//! call). The leader-side retention holds themselves live at rank 515
//! inside `instant_wal`.

pub mod leader;
pub mod replica;

pub use leader::{ReplConfig, ReplListener};
pub use replica::{Replica, ReplicaConfig, ReplicaStatus};
