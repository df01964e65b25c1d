//! Buffer pool: a fixed number of in-memory frames over a [`DiskManager`],
//! with LRU eviction and write-back — **sharded** for concurrent access.
//!
//! # Concurrency model
//!
//! The pool is split into `shards` (a power of two); a page lives in the
//! shard selected by hashing its [`PageId`]. Each shard owns a mutex-guarded
//! frame map, and each resident frame (a `Slot`) carries its own `RwLock`
//! latch plus an atomic pin count. `with_page` / `with_page_mut` take the
//! shard lock only long enough to *pin* the frame; the caller's closure then
//! runs under the frame's read (resp. write) latch with the shard lock
//! released, so readers of different pages — and even of the same page —
//! proceed in parallel, and a degradation batch never serializes against
//! foreground queries on an unrelated page.
//!
//! Invariants:
//!
//! * **Pins gate eviction.** A pin is taken under the shard lock and
//!   released (via a drop guard, so panics cannot leak it) only after the
//!   frame latch is dropped. Eviction inspects pin counts under the same
//!   shard lock, so `pins == 0` guarantees no latch holder exists and none
//!   can appear while the victim is being detached.
//! * **Global capacity.** Frame residency is bounded by `capacity` across
//!   all shards (an atomic reservation counter); the eviction victim is the
//!   globally least-recently-used unpinned frame, so LRU quality matches
//!   the old single-mutex pool.
//! * **No lost writes across eviction.** A dirty victim is written back
//!   *before* it leaves its shard map (the shard lock is held across the
//!   write-back), and a miss maps a write-latched placeholder *before*
//!   reading the disk — so at most one fault-in per page is in flight and
//!   a stale pre-eviction image can never re-enter the pool over newer
//!   bytes. Flushers pin frames like any other accessor, so they can never
//!   write back a detached, superseded frame either.
//! * **Counters.** `hits` = accesses served from a resident frame;
//!   `misses` = accesses that had to fault a frame in — including
//!   `allocate_page`, which materializes a fresh frame and therefore counts
//!   as a miss. Every successful page touch increments exactly one of the
//!   two (a failed fault-in may additionally count the waiters it strands).
//!
//! Closures may re-enter the pool for *other* pages (e.g. allocate while a
//! page is latched); re-latching the *same* page from its own closure, or
//! latching pages from two closures in opposite orders, deadlocks — same
//! discipline as any latch hierarchy, and the heap/index layers always
//! latch one page at a time.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use instant_common::{Error, PageId, Result};

use crate::disk::DiskManager;
use crate::page::Page;

/// Default shard count for [`BufferPool::new`] (clamped to the capacity).
pub const DEFAULT_SHARDS: usize = 16;

/// Frame contents guarded by the per-frame latch.
struct Frame {
    page: Page,
    dirty: bool,
    /// Set (under the write latch) when a fault-in failed after other
    /// threads already pinned this placeholder: they must retry.
    broken: bool,
}

/// One resident frame: latch-guarded contents plus lock-free metadata.
struct Slot {
    /// Unranked: page latches are ordered by `PageId` discipline, not rank
    /// (`with_page` closures may fault sibling pages back through the pool,
    /// re-entering shard maps).
    latch: RwLock<Frame>,
    /// Active accessors; a frame with `pins > 0` is never evicted.
    pins: AtomicU32,
    /// LRU clock: larger = more recently used.
    last_used: AtomicU64,
}

struct Shard {
    /// Unranked: shard maps sit below every ranked lock but are re-entered
    /// when a page closure faults another page in; held only for map
    /// lookups, never across I/O.
    frames: Mutex<HashMap<PageId, Arc<Slot>>>,
}

/// Decrements the pin count when dropped, so a panicking closure cannot
/// leave a frame pinned forever.
struct Pinned {
    slot: Arc<Slot>,
}

impl Drop for Pinned {
    fn drop(&mut self) {
        self.slot.pins.fetch_sub(1, Ordering::Release);
    }
}

/// Shared, sharded buffer pool.
pub struct BufferPool {
    disk: Arc<DiskManager>,
    capacity: usize,
    shards: Box<[Shard]>,
    shard_mask: usize,
    /// Frames resident (or reserved for an in-flight fault-in).
    resident: AtomicUsize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl BufferPool {
    /// A pool of `capacity` frames over `disk`, with the default shard
    /// count (clamped so a tiny pool is not spread thinner than one frame
    /// per shard).
    pub fn new(disk: Arc<DiskManager>, capacity: usize) -> BufferPool {
        // Largest power of two ≤ min(DEFAULT_SHARDS, capacity), so shards
        // never outnumber frames.
        let bounded = DEFAULT_SHARDS.min(capacity).max(1);
        let shards = 1 << (usize::BITS - 1 - bounded.leading_zeros());
        Self::with_shards(disk, capacity, shards)
    }

    /// A pool with an explicit shard count (rounded up to a power of two).
    pub fn with_shards(disk: Arc<DiskManager>, capacity: usize, shards: usize) -> BufferPool {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let n = shards.max(1).next_power_of_two();
        #[expect(
            clippy::disallowed_methods,
            reason = "shard maps are unranked, see Shard::frames"
        )]
        let shards = (0..n)
            .map(|_| Shard {
                frames: Mutex::new(HashMap::new()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        BufferPool {
            disk,
            capacity,
            shards,
            shard_mask: n - 1,
            resident: AtomicUsize::new(0),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    pub fn disk(&self) -> &Arc<DiskManager> {
        &self.disk
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, id: PageId) -> &Shard {
        // Fibonacci hashing spreads the sequential page ids the disk
        // manager hands out across shards.
        let h = (id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[h as usize & self.shard_mask]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Allocate a fresh page (resident, dirty and latched into its shard).
    ///
    /// The frame is reserved *before* the disk hands out an id, so a
    /// `Capacity` failure (every frame pinned) cannot leak a page id.
    pub fn allocate_page(&self) -> Result<PageId> {
        self.reserve_frame()?;
        let id = self.disk.allocate();
        self.misses.fetch_add(1, Ordering::Relaxed);
        #[expect(
            clippy::disallowed_methods,
            reason = "page latches are unranked, see Slot::latch"
        )]
        let slot = Arc::new(Slot {
            latch: RwLock::new(Frame {
                page: Page::new(id),
                dirty: true,
                broken: false,
            }),
            pins: AtomicU32::new(0),
            last_used: AtomicU64::new(self.next_tick()),
        });
        let prev = self.shard_of(id).frames.lock().insert(id, slot);
        debug_assert!(prev.is_none(), "fresh page id already resident");
        Ok(id)
    }

    /// Run `f` with read access to page `id`. The frame is pinned for the
    /// duration of the closure; other readers of the same page run
    /// concurrently under the shared latch.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R> {
        loop {
            let pinned = self.pin(id)?;
            let frame = pinned.slot.latch.read();
            if frame.broken {
                continue; // the fault-in we piggybacked on failed; retry
            }
            return Ok(f(&frame.page));
        }
    }

    /// Run `f` with exclusive write access to page `id`; marks the frame
    /// dirty.
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut Page) -> R) -> Result<R> {
        loop {
            let pinned = self.pin(id)?;
            let mut frame = pinned.slot.latch.write();
            if frame.broken {
                continue; // the fault-in we piggybacked on failed; retry
            }
            frame.dirty = true;
            return Ok(f(&mut frame.page));
        }
    }

    /// Pin page `id`, faulting it in from disk on a miss.
    ///
    /// A miss maps a *write-latched placeholder* under the shard lock and
    /// only then reads the disk: concurrent accessors of the same page pin
    /// the placeholder and wait on its latch instead of issuing their own
    /// reads, so a pre-eviction image can never re-enter the pool over
    /// newer bytes (at most one fault-in per page is in flight).
    fn pin(&self, id: PageId) -> Result<Pinned> {
        let shard = self.shard_of(id);
        if let Some(p) = self.try_pin_resident(shard, id, true) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(p);
        }
        self.reserve_frame()?;
        let mut frames = shard.frames.lock();
        // Re-check under the lock: another fault-in may have won between
        // the optimistic probe and here — then this access is served
        // resident after all and counts as a hit.
        if let Some(existing) = frames.get(&id) {
            let p = self.pin_slot(existing, true);
            drop(frames);
            self.resident.fetch_sub(1, Ordering::Release); // surplus reservation
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(p);
        }
        // Committed to faulting the page in: this is the one miss.
        self.misses.fetch_add(1, Ordering::Relaxed);
        #[expect(
            clippy::disallowed_methods,
            reason = "page latches are unranked, see Slot::latch"
        )]
        let slot = Arc::new(Slot {
            latch: RwLock::new(Frame {
                page: Page::new(id),
                dirty: false,
                broken: false,
            }),
            pins: AtomicU32::new(1),
            last_used: AtomicU64::new(self.next_tick()),
        });
        frames.insert(id, slot.clone());
        let pinned = Pinned { slot };
        // Taking the write latch cannot block: the slot was created just
        // above and the shard lock is still held.
        let mut frame = pinned.slot.latch.write();
        drop(frames);
        match self.disk.read_page(id) {
            Ok(page) => {
                frame.page = page;
                drop(frame);
                Ok(pinned)
            }
            Err(e) => {
                // Waiters already pinned the placeholder; poison it so they
                // retry, then unmap it and give the reservation back.
                frame.broken = true;
                drop(frame);
                shard.frames.lock().remove(&id);
                self.resident.fetch_sub(1, Ordering::Release);
                Err(e)
            }
        }
    }

    /// Pin `id` if it is already resident in `shard`. `touch` stamps the
    /// LRU clock — true for real accesses; false for flush paths, which
    /// must not promote cold pages to most-recently-used.
    fn try_pin_resident(&self, shard: &Shard, id: PageId, touch: bool) -> Option<Pinned> {
        let frames = shard.frames.lock();
        frames.get(&id).map(|slot| self.pin_slot(slot, touch))
    }

    /// Pin a slot found in a (still locked) shard map. Callers must hold
    /// the owning shard's lock.
    fn pin_slot(&self, slot: &Arc<Slot>, touch: bool) -> Pinned {
        slot.pins.fetch_add(1, Ordering::Acquire);
        if touch {
            slot.last_used.store(self.next_tick(), Ordering::Relaxed);
        }
        Pinned { slot: slot.clone() }
    }

    /// Reserve one frame of global capacity, evicting if the pool is full.
    ///
    /// When every frame is pinned the reservation yields and retries for a
    /// bounded time before failing: pins held by *other* threads are
    /// transient — closures run for microseconds and the old whole-pool
    /// mutex simply queued such accessors — while a caller whose own
    /// closures pin everything can never be satisfied and must get the
    /// `Capacity` error rather than deadlock.
    fn reserve_frame(&self) -> Result<()> {
        let mut all_pinned_since: Option<std::time::Instant> = None;
        loop {
            let cur = self.resident.load(Ordering::Acquire);
            if cur < self.capacity {
                if self
                    .resident
                    .compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    return Ok(());
                }
                continue; // raced another reservation; retry
            }
            match self.evict_one() {
                Ok(()) => all_pinned_since = None, // progress: reset the clock
                Err(Error::Capacity(_))
                    if all_pinned_since
                        .get_or_insert_with(std::time::Instant::now)
                        .elapsed()
                        < std::time::Duration::from_millis(20) =>
                {
                    std::thread::yield_now();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Evict the globally least-recently-used unpinned frame.
    fn evict_one(&self) -> Result<()> {
        loop {
            // Pass 1: find the global LRU candidate, one shard lock at a
            // time (never nested, so shard order cannot deadlock).
            let mut victim: Option<(usize, PageId)> = None;
            let mut best = u64::MAX;
            for (si, shard) in self.shards.iter().enumerate() {
                let frames = shard.frames.lock();
                for (pid, slot) in frames.iter() {
                    if slot.pins.load(Ordering::Acquire) != 0 {
                        continue;
                    }
                    let lu = slot.last_used.load(Ordering::Relaxed);
                    if victim.is_none() || lu < best {
                        best = lu;
                        victim = Some((si, *pid));
                    }
                }
            }
            let Some((si, pid)) = victim else {
                return Err(Error::Capacity("all buffer frames pinned".into()));
            };
            // Pass 2: detach it, re-validating under the shard lock. The
            // dirty write-back happens while the lock is held so a
            // concurrent miss on `pid` cannot read a stale disk image.
            let mut frames = self.shards[si].frames.lock();
            let Some(slot) = frames.get(&pid) else {
                continue; // evicted by someone else; rescan
            };
            if slot.pins.load(Ordering::Acquire) != 0 {
                continue; // re-pinned meanwhile; rescan
            }
            let slot = slot.clone();
            {
                // pins == 0 under the shard lock ⇒ the latch is free. Write
                // back *before* unmapping: if the disk write fails, the
                // frame stays resident and its bytes are not lost.
                let frame = slot.latch.read();
                if frame.dirty {
                    self.disk.write_page(&frame.page)?;
                }
            }
            #[expect(
                clippy::expect_used,
                reason = "residency checked above under the same shard lock"
            )]
            frames.remove(&pid).expect("checked resident");
            self.resident.fetch_sub(1, Ordering::Release);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
    }

    /// Write back every dirty frame and sync (checkpoint support).
    ///
    /// Each frame is *pinned* for its write-back (re-looked-up by id, not
    /// through a stale slot handle): a pinned frame cannot be evicted, so
    /// the flusher can never overwrite newer on-disk bytes with the image
    /// of a frame that was detached and superseded mid-flush.
    pub fn flush_all(&self) -> Result<()> {
        for id in self.resident_ids() {
            self.flush_one(id)?;
        }
        self.disk.sync()?;
        Ok(())
    }

    fn flush_one(&self, id: PageId) -> Result<()> {
        let Some(pinned) = self.try_pin_resident(self.shard_of(id), id, false) else {
            return Ok(()); // evicted meanwhile — eviction wrote it back
        };
        // Probe under the shared latch first so flushing a clean page never
        // blocks its readers; only a dirty page pays for the write latch.
        if !pinned.slot.latch.read().dirty {
            return Ok(());
        }
        let mut frame = pinned.slot.latch.write();
        if frame.dirty {
            self.disk.write_page(&frame.page)?;
            frame.dirty = false;
        }
        Ok(())
    }

    /// Write back dirty frames and drop every *unpinned* frame — used by
    /// tests to force re-reads from disk. Frames pinned by an in-flight
    /// closure are flushed but stay resident (dropping them would orphan
    /// live writes).
    pub fn clear(&self) -> Result<()> {
        for shard in self.shards.iter() {
            // Detach + write back under the shard lock, exactly like
            // eviction, so concurrent faults cannot read a stale image.
            let mut frames = shard.frames.lock();
            let ids: Vec<PageId> = frames.keys().copied().collect();
            for id in ids {
                let slot = &frames[&id];
                if slot.pins.load(Ordering::Acquire) != 0 {
                    continue;
                }
                {
                    // pins == 0 under the shard lock ⇒ the latch is free.
                    let frame = slot.latch.read();
                    if frame.dirty {
                        self.disk.write_page(&frame.page)?;
                    }
                }
                frames.remove(&id);
                self.resident.fetch_sub(1, Ordering::Release);
            }
        }
        self.flush_all()
    }

    /// `(hits, misses, evictions)` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }

    /// Resident frame count across all shards.
    pub fn resident(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.frames.lock().len())
            .sum::<usize>()
    }

    /// Snapshot the resident page ids (for flush paths) without holding
    /// any shard lock while frame latches are taken — a closure that holds
    /// a latch may itself be waiting on a shard lock.
    fn resident_ids(&self) -> Vec<PageId> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let frames = shard.frames.lock();
            out.extend(frames.keys().copied());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(frames: usize) -> BufferPool {
        let disk = Arc::new(DiskManager::temp("buf").unwrap());
        BufferPool::new(disk, frames)
    }

    #[test]
    fn allocate_and_access() {
        let bp = pool(4);
        let id = bp.allocate_page().unwrap();
        bp.with_page_mut(id, |p| p.payload_mut()[0] = 0xAA).unwrap();
        let v = bp.with_page(id, |p| p.payload()[0]).unwrap();
        assert_eq!(v, 0xAA);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let bp = pool(2);
        let ids: Vec<PageId> = (0..5).map(|_| bp.allocate_page().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            bp.with_page_mut(*id, |p| p.payload_mut()[0] = i as u8)
                .unwrap();
        }
        // Only 2 frames; earlier pages must have been evicted + written.
        assert!(bp.resident() <= 2);
        for (i, id) in ids.iter().enumerate() {
            let v = bp.with_page(*id, |p| p.payload()[0]).unwrap();
            assert_eq!(v, i as u8, "page {id} must survive eviction");
        }
        let (_, _, evictions) = bp.stats();
        assert!(evictions >= 3);
    }

    #[test]
    fn lru_prefers_oldest() {
        let bp = pool(2);
        let a = bp.allocate_page().unwrap();
        let b = bp.allocate_page().unwrap();
        // Touch a so b is the LRU victim.
        bp.with_page(a, |_| ()).unwrap();
        let c = bp.allocate_page().unwrap();
        // a stays resident; b evicted.
        assert!(bp.resident() <= 2);
        let (h0, _, _) = bp.stats();
        bp.with_page(a, |_| ()).unwrap();
        let (h1, _, _) = bp.stats();
        assert_eq!(h1, h0 + 1, "a should still be a hit");
        let _ = (b, c);
    }

    #[test]
    fn flush_all_persists() {
        let disk = Arc::new(DiskManager::temp("buf-flush").unwrap());
        let bp = BufferPool::new(disk.clone(), 8);
        let id = bp.allocate_page().unwrap();
        bp.with_page_mut(id, |p| p.payload_mut()[..4].copy_from_slice(b"save"))
            .unwrap();
        bp.flush_all().unwrap();
        // Read through a second, independent pool.
        let bp2 = BufferPool::new(disk, 8);
        let bytes = bp2.with_page(id, |p| p.payload()[..4].to_vec()).unwrap();
        assert_eq!(&bytes, b"save");
    }

    #[test]
    fn clear_then_reread_from_disk() {
        let bp = pool(4);
        let id = bp.allocate_page().unwrap();
        bp.with_page_mut(id, |p| p.payload_mut()[0] = 7).unwrap();
        bp.clear().unwrap();
        assert_eq!(bp.resident(), 0);
        assert_eq!(bp.with_page(id, |p| p.payload()[0]).unwrap(), 7);
    }

    #[test]
    fn hit_miss_counters() {
        let bp = pool(4);
        // An allocation faults a fresh frame in: that is a miss, so the
        // counters account for every page touch (exp_storage relies on
        // hits + misses covering allocation traffic too).
        let id = bp.allocate_page().unwrap();
        assert_eq!(bp.stats(), (0, 1, 0));
        bp.clear().unwrap();
        bp.with_page(id, |_| ()).unwrap(); // miss
        bp.with_page(id, |_| ()).unwrap(); // hit
        let (hits, misses, _) = bp.stats();
        assert_eq!(hits, 1);
        assert_eq!(misses, 2);
    }

    #[test]
    fn missing_page_propagates_not_found() {
        let bp = pool(2);
        assert!(bp.with_page(PageId(99), |_| ()).is_err());
    }

    #[test]
    fn pinned_frame_survives_eviction_pressure() {
        let bp = pool(2);
        let a = bp.allocate_page().unwrap();
        bp.with_page_mut(a, |p| p.payload_mut()[0] = 0x5A).unwrap();
        // While `a` is pinned by this closure, churn enough fresh pages
        // through the second frame to evict everything unpinned many times
        // over. `a` must never be the victim.
        let churned = bp
            .with_page(a, |pa| {
                for i in 0..8u8 {
                    let id = bp.allocate_page().unwrap();
                    bp.with_page_mut(id, |p| p.payload_mut()[0] = i).unwrap();
                }
                pa.payload()[0]
            })
            .unwrap();
        assert_eq!(churned, 0x5A, "pinned frame bytes stable under churn");
        // The pin is released now; `a` was never written back as a victim
        // with stale contents.
        assert_eq!(bp.with_page(a, |p| p.payload()[0]).unwrap(), 0x5A);
        let (_, _, evictions) = bp.stats();
        assert!(evictions >= 7, "churn forced evictions around the pin");
    }

    #[test]
    fn allocate_page_does_not_leak_ids_when_pool_is_full_of_pins() {
        let bp = pool(1);
        let a = bp.allocate_page().unwrap();
        let before = bp.disk().page_count();
        // The only frame is pinned by the closure, so the inner allocation
        // must fail with Capacity — and must NOT have consumed a page id.
        let inner = bp.with_page(a, |_| bp.allocate_page()).unwrap();
        assert!(matches!(inner, Err(Error::Capacity(_))), "{inner:?}");
        assert_eq!(
            bp.disk().page_count(),
            before,
            "failed allocation must not leak a page id"
        );
        // Once the pin is gone the same allocation succeeds.
        let b = bp.allocate_page().unwrap();
        assert_eq!(b.0, before);
    }

    #[test]
    fn concurrent_readers_share_a_frame() {
        // Two simultaneous readers of one page: under the old global
        // mutex the second would block behind the first's closure; under
        // shared latches both hold the frame at the same time.
        let bp = Arc::new(pool(4));
        let id = bp.allocate_page().unwrap();
        bp.with_page_mut(id, |p| p.payload_mut()[0] = 9).unwrap();
        let v = bp
            .with_page(id, |outer| {
                // Reads the same page from another thread while this
                // closure still holds the read latch. The bounded wait
                // turns a latch-exclusivity regression (inner reader
                // blocking forever) into a diagnosable failure instead of
                // a test-runner hang.
                let bp2 = bp.clone();
                let (tx, rx) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    let _ = tx.send(bp2.with_page(id, |p| p.payload()[0]).unwrap());
                });
                let inner = rx
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .expect("inner reader blocked: read latch not shared");
                (outer.payload()[0], inner)
            })
            .unwrap();
        assert_eq!(v, (9, 9));
    }

    #[test]
    fn shard_count_is_power_of_two_and_bounded_by_capacity() {
        let bp = pool(2);
        assert_eq!(bp.shard_count(), 2);
        // Auto shard count never exceeds the frame count.
        let disk = Arc::new(DiskManager::temp("buf-shards-5").unwrap());
        assert_eq!(BufferPool::new(disk, 5).shard_count(), 4);
        // An explicit count is taken as-is (rounded up to a power of two).
        let disk = Arc::new(DiskManager::temp("buf-shards").unwrap());
        let bp = BufferPool::with_shards(disk, 1024, 5);
        assert_eq!(bp.shard_count(), 8);
    }
}
