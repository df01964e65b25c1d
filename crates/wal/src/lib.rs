//! # instant-wal
//!
//! Write-ahead logging "revisited" for data degradation (paper Section III):
//! a classical WAL durably retains *every* before/after image, so the log
//! itself becomes the forensic channel that resurrects degraded states —
//! the paper (citing Stahlberg et al.) calls out "unintended retention in …
//! the logs". This crate closes that channel with **cryptographic erasure**:
//!
//! * The log holds a row image only for inserts, sealed with a stream cipher under a **time-windowed key**
//!   ([`keystore::KeyStore`]). At each checkpoint the keys of windows older
//!   than it are **shredded** — the ciphertext remains on disk but is
//!   information-theoretically useless, making the degradation
//!   irreversible *in the log* without rewriting it.
//! * Degradation steps are **logical** ([`record::LogRecord::Degrade`]):
//!   tuple, column and the LCP stage entered, no value in any form. Redo
//!   recomputes the coarser value from the stored one, so a step adds no
//!   ciphertext to shred, and sealing can never fail one.
//! * The log is **segmented** ([`segment`]): a directory of fixed-capacity
//!   `wal.<seqno>.seg` files, rotated on capacity and right before each
//!   checkpoint. Periodic checkpoints flush the store and physically
//!   truncate the old log by **deleting whole dead segments**
//!   ([`writer::Wal::truncate_before`]) — O(segments freed), never a
//!   rewrite of retained data. The [`record::LogRecord::Checkpoint`]
//!   record is the whole checkpoint: it carries the table directory, and
//!   its timestamp is the key-shred horizon, so no side file exists to
//!   fall out of step with the log.
//! * The log is **sharded** ([`walset::WalSet`]): N per-shard segment
//!   directories (`shard-<k>/`) behind one global LSN allocator, so
//!   independent committers append and fsync in parallel; recovery k-way
//!   merges the shards back into one LSN-ordered stream.
//! * Commits ride a **group-commit pipeline** per shard
//!   ([`group::GroupCommitSet`]): a dedicated log-writer thread drains
//!   every waiting commit batch and one fsync covers the drain,
//!   preserving the acknowledged-implies-durable contract while N
//!   committers share a single fsync.
//!
//! Recovery ([`recovery`]) is logical redo: committed operations after the
//! last checkpoint are replayed; row images whose window key has been
//! shredded are surfaced as [`recovery::Op::Unrecoverable`] — by
//! construction these can only concern states a checkpoint had already
//! flushed.
//!
//! The cipher ([`cipher`]) is a from-scratch ChaCha20 core. **It exists to
//! model keyed erasure in a dependency-free build, not as audited
//! production cryptography**: the build has no crate registry, so no
//! vetted cipher crate can be linked; a deployment would swap one in.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod cipher;
pub mod group;
pub mod keystore;
pub mod record;
pub mod recovery;
pub mod segment;
pub mod walset;
pub mod writer;

pub use group::{CommitTicket, GroupCommit, GroupCommitConfig, GroupCommitSet, GroupCommitStats};
pub use keystore::KeyStore;
pub use record::{LogRecord, Lsn, Payload};
pub use segment::{SegmentConfig, SegmentStats};
pub use walset::WalSet;
pub use writer::Wal;
