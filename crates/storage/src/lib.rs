//! # instant-storage
//!
//! The page-based storage engine beneath InstantDB — Section III of the
//! paper: "the storage of degradable attributes ... has to be revisited in
//! this light". Two properties distinguish it from a classical heap store:
//!
//! 1. **Secure physical rewrite.** Degradation steps and final removal must
//!    leave *no recoverable trace* of the finer state (the paper cites
//!    Stahlberg et al.'s forensic attacks). Every delete/update can run in
//!    [`secure::SecurePolicy::Overwrite`] mode, which zeroes the previous
//!    bytes inside the page before releasing them; the forensic scanner in
//!    [`secure`] verifies absence of pre-images.
//! 2. **Capacity-reserving slots.** A degradable tuple's slot is allocated
//!    with the *maximum* encoded size the tuple will reach across its whole
//!    life cycle (computable at insert time from the generalization tree),
//!    so every degradation step rewrites in place and tuple ids stay stable.
//!
//! Layering: [`disk::DiskManager`] (page file I/O, checksums) →
//! [`buffer::BufferPool`] (sharded fixed-capacity LRU cache with per-frame
//! latches and pin-gated eviction, write-back) → [`heap::HeapFile`]
//! (slotted-page record store with a free-space map and vacuum).

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod buffer;
pub mod disk;
pub mod heap;
pub mod page;
pub mod secure;
pub mod slotted;

pub use buffer::BufferPool;
pub use disk::DiskManager;
pub use heap::HeapFile;
pub use page::{Page, PAGE_SIZE};
pub use secure::SecurePolicy;
