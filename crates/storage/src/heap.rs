//! Heap file: the record store for one table.
//!
//! A heap file is a set of slotted pages reached through the buffer pool.
//! Every page it formats carries the owning table's id in its header, and
//! every tuple-id-addressed access checks it: a heap touches only pages
//! that name it, so a stale or foreign tuple id can never read, rewrite or
//! "find" a record on another table's (or nobody's) page. The in-memory
//! page list is a cache of that fact — recovery rebuilds it from the
//! headers with [`HeapFile::adopt`]. Its API is shaped by degradation:
//!
//! * `insert(bytes, reserve_cap)` reserves the life-cycle-maximum capacity so
//!   later `update`s (degradation rewrites) never relocate the tuple;
//! * `update` / `delete` take a [`SecurePolicy`] so degradation steps can
//!   guarantee physical erasure of the finer state;
//! * `vacuum` compacts pages and scrubs residue left by naive deletes;
//! * `raw_image` hands the forensic scanner the attacker's view.

use std::sync::Arc;

use parking_lot::Mutex;

use instant_common::{Error, PageId, Result, TableId, TupleId};

use crate::buffer::BufferPool;
use crate::page::{Page, PAGE_PAYLOAD};
use crate::secure::SecurePolicy;
use crate::slotted::SlottedPage;

/// A record store over slotted pages.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    /// The table this heap stores: stamped into every page it formats.
    owner: TableId,
    /// Pages owned by this heap, in allocation order.
    pages: Mutex<Vec<PageId>>,
    policy: SecurePolicy,
}

impl std::fmt::Debug for HeapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapFile")
            .field("pages", &self.pages.lock().len())
            .field("policy", &self.policy)
            .finish()
    }
}

impl HeapFile {
    /// Create an empty heap for table `owner` over `pool` with the given
    /// deletion policy.
    pub fn create(pool: Arc<BufferPool>, owner: TableId, policy: SecurePolicy) -> HeapFile {
        HeapFile {
            pool,
            owner,
            pages: Mutex::ranked(340, Vec::new()),
            policy,
        }
    }

    /// Recovery: take page `id` back if its header names this heap.
    /// Returns whether it did. Call once per page of the file, in page
    /// order, before the heap is used.
    pub fn adopt(&self, id: PageId) -> Result<bool> {
        let mine = self.pool.with_page(id, |page| page.owner() == self.owner)?;
        if mine {
            self.pages.lock().push(id);
        }
        Ok(mine)
    }

    pub fn policy(&self) -> SecurePolicy {
        self.policy
    }

    /// `Ok` iff `page` names this heap; every tuple-id-addressed access
    /// runs this inside the page latch it already holds.
    fn check_owner(&self, page: &Page, tid: TupleId) -> Result<()> {
        if page.owner() == self.owner {
            Ok(())
        } else {
            Err(Error::NotFound(format!(
                "tuple {tid}: page not owned by table {}",
                self.owner.0
            )))
        }
    }

    /// Largest record capacity a single page can hold.
    pub fn max_record_cap() -> usize {
        // payload minus slotted header (6) and one slot entry (6)
        PAGE_PAYLOAD - 12
    }

    /// Insert `bytes`, reserving `cap` bytes (`cap >= bytes.len()`).
    pub fn insert(&self, bytes: &[u8], cap: usize) -> Result<TupleId> {
        assert!(cap >= bytes.len());
        if cap > Self::max_record_cap() {
            return Err(Error::Capacity(format!(
                "record capacity {cap}B exceeds page maximum {}B",
                Self::max_record_cap()
            )));
        }
        // The page-table lock is held across the pool calls below; a fault
        // may evict and write back one dirty page, bounded by design.
        let mut pages = self.pages.lock();
        // First-fit over existing pages, newest first (most likely space).
        for &pid in pages.iter().rev() {
            let inserted = self.pool.with_page_mut(pid, |page| {
                let mut sp = SlottedPage::new(page.payload_mut());
                if sp.can_insert(cap) {
                    sp.insert(bytes, cap).ok()
                } else {
                    None
                }
            })?;
            if let Some(slot) = inserted {
                return Ok(TupleId { page: pid, slot });
            }
        }
        // Allocate a new page.
        let pid = self.pool.allocate_page()?;
        pages.push(pid);
        // The fresh page is initialized under the page-table lock so no scan
        // sees it half-formatted.
        let slot = self.pool.with_page_mut(pid, |page| {
            page.set_owner(self.owner);
            let mut sp = SlottedPage::init(page.payload_mut());
            sp.insert(bytes, cap)
        })??;
        Ok(TupleId { page: pid, slot })
    }

    /// Read a record.
    pub fn read(&self, tid: TupleId) -> Result<Vec<u8>> {
        self.pool.with_page(tid.page, |page| {
            self.check_owner(page, tid)?;
            read_slot_bytes(page.payload(), tid)
        })?
    }

    /// Rewrite a record in place (degradation step). Capacity must hold.
    pub fn update(&self, tid: TupleId, bytes: &[u8]) -> Result<()> {
        let policy = self.policy;
        self.pool.with_page_mut(tid.page, |page| {
            self.check_owner(page, tid)?;
            let mut sp = SlottedPage::new(page.payload_mut());
            sp.update(tid.slot, bytes, policy)
        })?
    }

    /// Delete a record under the heap's policy.
    pub fn delete(&self, tid: TupleId) -> Result<()> {
        let policy = self.policy;
        self.pool.with_page_mut(tid.page, |page| {
            self.check_owner(page, tid)?;
            let mut sp = SlottedPage::new(page.payload_mut());
            sp.delete(tid.slot, policy)
        })?
    }

    /// Is the tuple live (on a page this heap owns)?
    pub fn exists(&self, tid: TupleId) -> bool {
        self.pool
            .with_page(tid.page, |page| {
                page.owner() == self.owner && read_slot_bytes(page.payload(), tid).is_ok()
            })
            .unwrap_or(false)
    }

    /// All live tuple ids, in page order.
    pub fn scan_ids(&self) -> Result<Vec<TupleId>> {
        let pages = self.pages.lock().clone();
        let mut out = Vec::new();
        for pid in pages {
            let slots = self.pool.with_page_mut(pid, |page| {
                let sp = SlottedPage::new(page.payload_mut());
                sp.live_slots()
            })?;
            out.extend(slots.into_iter().map(|slot| TupleId { page: pid, slot }));
        }
        Ok(out)
    }

    /// Full scan: `(tuple id, record bytes)` pairs.
    pub fn scan(&self) -> Result<Vec<(TupleId, Vec<u8>)>> {
        let ids = self.scan_ids()?;
        let mut out = Vec::with_capacity(ids.len());
        for tid in ids {
            out.push((tid, self.read(tid)?));
        }
        Ok(out)
    }

    /// Vacuum every page: compact slots and scrub residue. Returns total
    /// bytes reclaimed (experiment E12).
    pub fn vacuum(&self) -> Result<usize> {
        let pages = self.pages.lock().clone();
        let mut reclaimed = 0usize;
        for pid in pages {
            reclaimed += self.pool.with_page_mut(pid, |page| {
                let mut sp = SlottedPage::new(page.payload_mut());
                sp.compact()
            })?;
        }
        Ok(reclaimed)
    }

    /// Number of live tuples.
    pub fn live_count(&self) -> Result<usize> {
        Ok(self.scan_ids()?.len())
    }

    /// Flush all pages and return the raw on-disk image (forensic view).
    pub fn raw_image(&self) -> Result<Vec<u8>> {
        self.pool.flush_all()?;
        self.pool.disk().raw_image()
    }

    /// Total pages owned.
    pub fn page_count(&self) -> usize {
        self.pages.lock().len()
    }
}

/// Decode the slotted directory from an immutable payload to read one slot.
#[expect(
    clippy::unwrap_used,
    reason = "fixed-width slices of a checked-length payload"
)]
fn read_slot_bytes(payload: &[u8], tid: TupleId) -> Result<Vec<u8>> {
    // Mirror of SlottedPage::read for the immutable path.
    let nslots = u16::from_le_bytes(payload[0..2].try_into().unwrap());
    if tid.slot.0 >= nslots {
        return Err(Error::NotFound(format!("slot {} out of range", tid.slot)));
    }
    let p = payload.len() - (tid.slot.0 as usize + 1) * 6;
    let offset = u16::from_le_bytes(payload[p..p + 2].try_into().unwrap()) as usize;
    let cap = u16::from_le_bytes(payload[p + 2..p + 4].try_into().unwrap()) as usize;
    let len = u16::from_le_bytes(payload[p + 4..p + 6].try_into().unwrap()) as usize;
    if cap == 0 {
        return Err(Error::NotFound(format!("tuple {tid} deleted")));
    }
    Ok(payload[offset..offset + len].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskManager;

    fn heap(policy: SecurePolicy) -> HeapFile {
        let disk = Arc::new(DiskManager::temp("heap").unwrap());
        let pool = Arc::new(BufferPool::new(disk, 16));
        HeapFile::create(pool, TableId(1), policy)
    }

    #[test]
    fn insert_read_update_delete() {
        let h = heap(SecurePolicy::Overwrite);
        let tid = h.insert(b"hello", 32).unwrap();
        assert_eq!(h.read(tid).unwrap(), b"hello");
        h.update(tid, b"hello, world").unwrap();
        assert_eq!(h.read(tid).unwrap(), b"hello, world");
        assert!(h.exists(tid));
        h.delete(tid).unwrap();
        assert!(!h.exists(tid));
        assert!(h.read(tid).is_err());
    }

    #[test]
    fn spills_to_multiple_pages() {
        let h = heap(SecurePolicy::Overwrite);
        let rec = vec![0xCD; 1000];
        let mut ids = Vec::new();
        for _ in 0..40 {
            ids.push(h.insert(&rec, 1000).unwrap());
        }
        assert!(h.page_count() >= 5, "40 KB must span pages");
        for tid in &ids {
            assert_eq!(h.read(*tid).unwrap(), rec);
        }
        assert_eq!(h.live_count().unwrap(), 40);
    }

    #[test]
    fn scan_returns_all_live() {
        let h = heap(SecurePolicy::Overwrite);
        let a = h.insert(b"a", 8).unwrap();
        let b = h.insert(b"b", 8).unwrap();
        let c = h.insert(b"c", 8).unwrap();
        h.delete(b).unwrap();
        let scanned = h.scan().unwrap();
        let ids: Vec<TupleId> = scanned.iter().map(|(t, _)| *t).collect();
        assert!(ids.contains(&a) && ids.contains(&c) && !ids.contains(&b));
        assert_eq!(scanned.len(), 2);
    }

    #[test]
    fn oversized_record_rejected() {
        let h = heap(SecurePolicy::Overwrite);
        let big = vec![0u8; HeapFile::max_record_cap() + 1];
        assert!(h.insert(&big, big.len()).is_err());
        // At exactly the max it works.
        let ok = vec![0u8; HeapFile::max_record_cap()];
        assert!(h.insert(&ok, ok.len()).is_ok());
    }

    #[test]
    fn secure_heap_has_no_residue_after_delete() {
        let h = heap(SecurePolicy::Overwrite);
        let tid = h.insert(b"FORENSIC-NEEDLE", 32).unwrap();
        h.delete(tid).unwrap();
        let img = h.raw_image().unwrap();
        assert!(
            !img.windows(15).any(|w| w == b"FORENSIC-NEEDLE"),
            "secure delete must scrub the page image"
        );
    }

    #[test]
    fn naive_heap_leaks_until_vacuum() {
        let h = heap(SecurePolicy::Naive);
        let tid = h.insert(b"FORENSIC-NEEDLE", 32).unwrap();
        h.delete(tid).unwrap();
        let img = h.raw_image().unwrap();
        assert!(
            img.windows(15).any(|w| w == b"FORENSIC-NEEDLE"),
            "naive delete leaves the bytes (classical DBMS behaviour)"
        );
        let reclaimed = h.vacuum().unwrap();
        assert!(reclaimed >= 32);
        let img2 = h.raw_image().unwrap();
        assert!(
            !img2.windows(15).any(|w| w == b"FORENSIC-NEEDLE"),
            "vacuum must scrub residue"
        );
    }

    #[test]
    fn update_in_place_preserves_tid_across_growth() {
        let h = heap(SecurePolicy::Overwrite);
        let tid = h.insert(b"Paris", 40).unwrap();
        h.update(tid, b"Ile-de-France").unwrap();
        h.update(tid, b"France").unwrap();
        assert_eq!(h.read(tid).unwrap(), b"France");
        assert_eq!(h.live_count().unwrap(), 1);
    }

    #[test]
    fn vacuum_keeps_survivors_readable() {
        let h = heap(SecurePolicy::Overwrite);
        let mut ids = Vec::new();
        for i in 0..100 {
            ids.push(h.insert(format!("rec{i}").as_bytes(), 24).unwrap());
        }
        for (i, id) in ids.iter().enumerate() {
            if i % 3 != 0 {
                h.delete(*id).unwrap();
            }
        }
        h.vacuum().unwrap();
        for (i, id) in ids.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(h.read(*id).unwrap(), format!("rec{i}").as_bytes());
            }
        }
    }

    #[test]
    fn adopt_rebuilds_the_page_list_from_headers() {
        let disk = Arc::new(DiskManager::temp("heap-adopt").unwrap());
        let pool = Arc::new(BufferPool::new(disk.clone(), 16));
        let a = HeapFile::create(pool.clone(), TableId(1), SecurePolicy::Overwrite);
        let b = HeapFile::create(pool.clone(), TableId(2), SecurePolicy::Overwrite);
        let ta = a.insert(b"persisted", 16).unwrap();
        let tb = b.insert(b"other table", 16).unwrap();
        pool.flush_all().unwrap();
        drop((a, b));
        let a2 = HeapFile::create(pool.clone(), TableId(1), SecurePolicy::Overwrite);
        for id in 1..disk.page_count() {
            assert_eq!(a2.adopt(PageId(id)).unwrap(), PageId(id) == ta.page);
        }
        assert_eq!(a2.scan().unwrap(), vec![(ta, b"persisted".to_vec())]);
        // The other table's page is not this heap's to touch.
        assert!(!a2.exists(tb));
        assert!(a2.read(tb).is_err());
        assert!(a2.update(tb, b"x").is_err());
        assert!(a2.delete(tb).is_err());
    }

    #[test]
    fn allocated_unformatted_page_belongs_to_nobody() {
        let h = heap(SecurePolicy::Overwrite);
        let free = h.pool.allocate_page().unwrap();
        assert!(!h.adopt(free).unwrap());
        assert!(!h.exists(TupleId {
            page: free,
            slot: instant_common::SlotId(0)
        }));
    }
}
