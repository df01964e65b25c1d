//! Page-file I/O.
//!
//! A [`DiskManager`] owns one file of fixed-size pages. Page 0 is reserved
//! for the file header (page count); data pages start at 1. Reads verify
//! the per-page checksum; writes seal it. `raw_image()` exposes the raw
//! on-disk bytes for the forensic experiments — exactly what an attacker
//! copying the database file would obtain.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

use parking_lot::Mutex;

use instant_common::{Error, PageId, Result};

use crate::page::{Page, PAGE_SIZE};

/// File-backed page store.
#[derive(Debug)]
pub struct DiskManager {
    file: Mutex<File>,
    path: PathBuf,
    next_page: AtomicU32,
    /// Delete the file on drop (temp stores used by tests/benches).
    ephemeral: bool,
}

impl DiskManager {
    /// Open (or create) the page file at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<DiskManager> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let len = file.metadata()?.len();
        let next_page = if len == 0 {
            // Fresh file: write header page.
            let mut hdr = [0u8; PAGE_SIZE];
            hdr[0..4].copy_from_slice(b"IDBF");
            hdr[4..8].copy_from_slice(&1u32.to_le_bytes());
            file.write_all(&hdr)?;
            file.sync_all()?;
            1
        } else {
            if len % PAGE_SIZE as u64 != 0 {
                return Err(Error::Corrupt(format!(
                    "file length {len} not a multiple of page size"
                )));
            }
            let mut hdr = [0u8; 8];
            file.seek(SeekFrom::Start(0))?;
            file.read_exact(&mut hdr)?;
            if &hdr[0..4] != b"IDBF" {
                return Err(Error::Corrupt("bad file magic".into()));
            }
            (len / PAGE_SIZE as u64) as u32
        };
        Ok(DiskManager {
            file: Mutex::ranked(800, file),
            path,
            next_page: AtomicU32::new(next_page),
            ephemeral: false,
        })
    }

    /// A throwaway store in the system temp directory, removed on drop.
    pub fn temp(tag: &str) -> Result<DiskManager> {
        use std::time::{SystemTime, UNIX_EPOCH};
        #[expect(
            clippy::unwrap_used,
            reason = "a system clock before the Unix epoch is unsupported"
        )]
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let pid = std::process::id();
        let path = std::env::temp_dir().join(format!("instantdb-{tag}-{pid}-{nanos}.idb"));
        let mut dm = Self::open(path)?;
        dm.ephemeral = true;
        Ok(dm)
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Allocate a fresh page id (the page is materialized on first write).
    pub fn allocate(&self) -> PageId {
        PageId(self.next_page.fetch_add(1, Ordering::SeqCst))
    }

    /// Number of pages (including the header page).
    pub fn page_count(&self) -> u32 {
        self.next_page.load(Ordering::SeqCst)
    }

    /// Read and verify a page. Reading an allocated-but-never-written page
    /// yields a fresh zeroed page image.
    pub fn read_page(&self, id: PageId) -> Result<Page> {
        if id.0 == 0 || id.0 >= self.page_count() {
            return Err(Error::NotFound(format!("page {id} not allocated")));
        }
        let mut file = self.file.lock();
        let offset = id.0 as u64 * PAGE_SIZE as u64;
        let len = file.metadata()?.len();
        if offset >= len {
            return Ok(Page::new(id));
        }
        file.seek(SeekFrom::Start(offset))?;
        let mut arr = Box::new([0u8; PAGE_SIZE]);
        file.read_exact(&mut arr[..])?;
        // An all-zero region means the page was allocated but never flushed.
        if arr.iter().all(|&b| b == 0) {
            return Ok(Page::new(id));
        }
        Page::from_bytes(id, arr)
    }

    /// Seal and write a page.
    pub fn write_page(&self, page: &Page) -> Result<()> {
        let id = page.id();
        if id.0 == 0 || id.0 >= self.page_count() {
            return Err(Error::NotFound(format!("page {id} not allocated")));
        }
        let bytes = page.to_bytes();
        let mut file = self.file.lock();
        let offset = id.0 as u64 * PAGE_SIZE as u64;
        // Extend with zero pages if there is a gap (allocated, unwritten).
        let len = file.metadata()?.len();
        if offset > len {
            file.set_len(offset)?;
        }
        file.seek(SeekFrom::Start(offset))?;
        file.write_all(&bytes[..])?;
        Ok(())
    }

    /// Durably sync the file.
    pub fn sync(&self) -> Result<()> {
        self.file.lock().sync_all()?;
        Ok(())
    }

    /// The complete raw on-disk image (forensic attacker's view).
    pub fn raw_image(&self) -> Result<Vec<u8>> {
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(0))?;
        let mut out = Vec::new();
        file.read_to_end(&mut out)?;
        Ok(out)
    }
}

impl Drop for DiskManager {
    fn drop(&mut self) {
        if self.ephemeral {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_write_read() {
        let dm = DiskManager::temp("dm1").unwrap();
        let id = dm.allocate();
        let mut p = Page::new(id);
        p.payload_mut()[0..4].copy_from_slice(b"data");
        dm.write_page(&p).unwrap();
        let back = dm.read_page(id).unwrap();
        assert_eq!(&back.payload()[0..4], b"data");
    }

    #[test]
    fn unwritten_allocated_page_reads_fresh() {
        let dm = DiskManager::temp("dm2").unwrap();
        let id = dm.allocate();
        let p = dm.read_page(id).unwrap();
        assert!(p.payload().iter().all(|&b| b == 0));
    }

    #[test]
    fn unallocated_page_rejected() {
        let dm = DiskManager::temp("dm3").unwrap();
        assert!(dm.read_page(PageId(0)).is_err());
        assert!(dm.read_page(PageId(5)).is_err());
        assert!(dm.write_page(&Page::new(PageId(5))).is_err());
    }

    #[test]
    fn persists_across_reopen() {
        let path = std::env::temp_dir().join(format!(
            "instantdb-reopen-{}-{:?}.idb",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let id;
        {
            let dm = DiskManager::open(&path).unwrap();
            id = dm.allocate();
            let mut p = Page::new(id);
            p.payload_mut()[..7].copy_from_slice(b"persist");
            dm.write_page(&p).unwrap();
            dm.sync().unwrap();
        }
        {
            let dm = DiskManager::open(&path).unwrap();
            assert_eq!(dm.page_count(), 2);
            let p = dm.read_page(id).unwrap();
            assert_eq!(&p.payload()[..7], b"persist");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn raw_image_contains_written_bytes() {
        let dm = DiskManager::temp("dm4").unwrap();
        let id = dm.allocate();
        let mut p = Page::new(id);
        p.payload_mut()[..6].copy_from_slice(b"NEEDLE");
        dm.write_page(&p).unwrap();
        let img = dm.raw_image().unwrap();
        assert!(img.windows(6).any(|w| w == b"NEEDLE"));
    }

    #[test]
    fn temp_file_removed_on_drop() {
        let path;
        {
            let dm = DiskManager::temp("dm6").unwrap();
            path = dm.path().to_path_buf();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }

    #[test]
    fn out_of_order_page_writes_fill_gaps() {
        let dm = DiskManager::temp("dm7").unwrap();
        let a = dm.allocate();
        let b = dm.allocate();
        let c = dm.allocate();
        // Write the last page first — the file must zero-fill the gap.
        dm.write_page(&Page::new(c)).unwrap();
        dm.write_page(&Page::new(a)).unwrap();
        assert!(dm.read_page(b).is_ok());
    }
}
