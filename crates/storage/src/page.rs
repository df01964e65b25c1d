//! Raw page representation.
//!
//! A page is a fixed 8 KiB byte array with a small header:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "IDBP"
//! 4       4     page id
//! 8       4     owner: id of the table whose heap formatted the page
//!               (0 = none — allocated, never formatted, i.e. free)
//! 12      4     reserved (zero)
//! 16      8     checksum (FNV-1a over bytes [24, PAGE_SIZE))
//! 24      …     payload (slotted layout, see `slotted`)
//! ```
//!
//! The owner field is the only durable record of which pages a table holds:
//! a heap touches only pages that name it, and recovery rebuilds every
//! heap's page list by reading these headers (see `heap`).
//!
//! The checksum is recomputed by the disk manager on write and verified on
//! read, so torn writes and bit rot surface as [`Error::Corrupt`] instead of
//! silent garbage — important here because a corrupted page could otherwise
//! resurrect bytes that degradation was supposed to have destroyed.

use instant_common::codec::fnv1a;
use instant_common::{Error, PageId, Result, TableId};

/// Page size in bytes. 8 KiB, a conventional DBMS default.
pub const PAGE_SIZE: usize = 8192;
/// First byte of the payload region.
pub const PAGE_HEADER_SIZE: usize = 24;
/// Usable payload bytes per page.
pub const PAGE_PAYLOAD: usize = PAGE_SIZE - PAGE_HEADER_SIZE;

const MAGIC: [u8; 4] = *b"IDBP";

/// An in-memory page image.
#[derive(Clone)]
pub struct Page {
    bytes: Box<[u8; PAGE_SIZE]>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("id", &self.id())
            .field("owner", &self.owner())
            .finish()
    }
}

impl Page {
    /// A zeroed page initialized with header for `id`.
    pub fn new(id: PageId) -> Page {
        let mut p = Page {
            bytes: Box::new([0u8; PAGE_SIZE]),
        };
        p.bytes[0..4].copy_from_slice(&MAGIC);
        p.bytes[4..8].copy_from_slice(&id.0.to_le_bytes());
        p
    }

    /// Wrap raw bytes read from disk, verifying magic, id and checksum.
    pub fn from_bytes(expect_id: PageId, bytes: Box<[u8; PAGE_SIZE]>) -> Result<Page> {
        let p = Page { bytes };
        if p.bytes[0..4] != MAGIC {
            return Err(Error::Corrupt(format!("page {expect_id}: bad magic")));
        }
        if p.id() != expect_id {
            return Err(Error::Corrupt(format!(
                "page {expect_id}: header claims {}",
                p.id()
            )));
        }
        #[expect(clippy::unwrap_used, reason = "fixed-width header slice")]
        let stored = u64::from_le_bytes(p.bytes[16..24].try_into().unwrap());
        let actual = fnv1a(&p.bytes[PAGE_HEADER_SIZE..]);
        if stored != actual {
            return Err(Error::Corrupt(format!(
                "page {expect_id}: checksum mismatch (stored {stored:#x}, computed {actual:#x})"
            )));
        }
        Ok(p)
    }

    /// Seal the checksum and return the raw bytes for writing to disk.
    pub fn to_bytes(&self) -> Box<[u8; PAGE_SIZE]> {
        let mut out = self.bytes.clone();
        let sum = fnv1a(&out[PAGE_HEADER_SIZE..]);
        out[16..24].copy_from_slice(&sum.to_le_bytes());
        out
    }

    #[expect(clippy::unwrap_used, reason = "fixed-width header slice")]
    pub fn id(&self) -> PageId {
        PageId(u32::from_le_bytes(self.bytes[4..8].try_into().unwrap()))
    }

    /// The table whose heap formatted this page; `TableId(0)` = none.
    #[expect(clippy::unwrap_used, reason = "fixed-width header slice")]
    pub fn owner(&self) -> TableId {
        TableId(u32::from_le_bytes(self.bytes[8..12].try_into().unwrap()))
    }

    pub fn set_owner(&mut self, owner: TableId) {
        self.bytes[8..12].copy_from_slice(&owner.0.to_le_bytes());
    }

    /// Immutable payload view (the slotted region).
    pub fn payload(&self) -> &[u8] {
        &self.bytes[PAGE_HEADER_SIZE..]
    }

    /// Mutable payload view.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.bytes[PAGE_HEADER_SIZE..]
    }

    /// Full raw image including header — used only by the forensic scanner,
    /// which inspects exactly what an attacker stealing the file would see.
    pub fn raw(&self) -> &[u8; PAGE_SIZE] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_page_has_header() {
        let p = Page::new(PageId(7));
        assert_eq!(p.id(), PageId(7));
        assert_eq!(p.owner(), TableId(0));
        assert!(p.payload().iter().all(|&b| b == 0));
        assert_eq!(p.payload().len(), PAGE_PAYLOAD);
    }

    #[test]
    fn round_trip_with_checksum() {
        let mut p = Page::new(PageId(3));
        p.set_owner(TableId(42));
        p.payload_mut()[0..5].copy_from_slice(b"hello");
        let bytes = p.to_bytes();
        let back = Page::from_bytes(PageId(3), bytes).unwrap();
        assert_eq!(back.owner(), TableId(42));
        assert_eq!(&back.payload()[0..5], b"hello");
    }

    #[test]
    fn checksum_detects_corruption() {
        let p = Page::new(PageId(1));
        let mut bytes = p.to_bytes();
        bytes[100] ^= 0xFF; // flip a payload bit
        assert!(matches!(
            Page::from_bytes(PageId(1), bytes),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn wrong_id_detected() {
        let p = Page::new(PageId(1));
        assert!(matches!(
            Page::from_bytes(PageId(2), p.to_bytes()),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn bad_magic_detected() {
        let p = Page::new(PageId(1));
        let mut bytes = p.to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Page::from_bytes(PageId(1), bytes),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn owner_not_covered_by_payload_mutation() {
        // The owner lives in the header; setting it then sealing must still verify.
        let mut p = Page::new(PageId(9));
        p.set_owner(TableId(u32::MAX));
        let back = Page::from_bytes(PageId(9), p.to_bytes()).unwrap();
        assert_eq!(back.owner(), TableId(u32::MAX));
    }
}
