//! Slotted-page record layout with **capacity-reserving slots**.
//!
//! Classical slotted pages store `(offset, length)` per slot. Degradation
//! rewrites a tuple every time a transition fires, and a degraded value can
//! be *longer* than its predecessor ("Ile-de-France" vs "Paris"), so a
//! classical layout would have to relocate tuples mid-life — invalidating
//! tuple ids held by indexes and the degradation scheduler. Instead each
//! slot records `(offset, capacity, length)`: the heap layer reserves at
//! insert time the maximum encoded size the tuple reaches over its entire
//! life cycle (computable from the generalization trees), and every
//! degradation step then rewrites in place.
//!
//! Layout inside a page payload (see `page` for the page header):
//!
//! ```text
//! [ hdr: nslots u16 | free_start u16 | free_end u16 ]
//! [ record space: grows upward from byte 6            ]
//! [ …free…                                            ]
//! [ slot directory: grows downward from payload end   ]   each slot 6 bytes
//! ```
//!
//! Deleting a slot leaves a tombstone (`cap == 0`); `compact` (vacuum)
//! squeezes out dead space. In [`SecurePolicy::Overwrite`] mode the record
//! bytes are zeroed *before* the slot is released, so no pre-image survives
//! in the page — the forensic guarantee.

use instant_common::{Error, Result, SlotId};

use crate::page::PAGE_PAYLOAD;
use crate::secure::SecurePolicy;

const HDR: usize = 6;
const SLOT_BYTES: usize = 6;

/// A view over a page payload implementing the slotted layout.
///
/// The view borrows the payload mutably; it is cheap to construct on demand.
pub struct SlottedPage<'a> {
    buf: &'a mut [u8],
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    offset: u16,
    cap: u16,
    len: u16,
}

impl<'a> SlottedPage<'a> {
    /// Interpret `buf` (a page payload) as a slotted page. Call
    /// [`SlottedPage::init`] first on fresh pages.
    pub fn new(buf: &'a mut [u8]) -> SlottedPage<'a> {
        debug_assert!(buf.len() <= PAGE_PAYLOAD);
        SlottedPage { buf }
    }

    /// Format an empty slotted page.
    pub fn init(buf: &'a mut [u8]) -> SlottedPage<'a> {
        let len = buf.len();
        let mut p = SlottedPage { buf };
        p.set_nslots(0);
        p.set_free_start(HDR as u16);
        p.set_free_end(len as u16);
        p
    }

    #[expect(clippy::unwrap_used, reason = "fixed-width header slice")]
    fn nslots(&self) -> u16 {
        u16::from_le_bytes(self.buf[0..2].try_into().unwrap())
    }
    fn set_nslots(&mut self, v: u16) {
        self.buf[0..2].copy_from_slice(&v.to_le_bytes());
    }
    #[expect(clippy::unwrap_used, reason = "fixed-width header slice")]
    fn free_start(&self) -> u16 {
        u16::from_le_bytes(self.buf[2..4].try_into().unwrap())
    }
    fn set_free_start(&mut self, v: u16) {
        self.buf[2..4].copy_from_slice(&v.to_le_bytes());
    }
    #[expect(clippy::unwrap_used, reason = "fixed-width header slice")]
    fn free_end(&self) -> u16 {
        u16::from_le_bytes(self.buf[4..6].try_into().unwrap())
    }
    fn set_free_end(&mut self, v: u16) {
        self.buf[4..6].copy_from_slice(&v.to_le_bytes());
    }

    fn slot_pos(&self, slot: SlotId) -> usize {
        self.buf.len() - (slot.0 as usize + 1) * SLOT_BYTES
    }

    #[expect(clippy::unwrap_used, reason = "fixed-width directory slices")]
    fn read_slot(&self, slot: SlotId) -> Result<Slot> {
        if slot.0 >= self.nslots() {
            return Err(Error::NotFound(format!("slot {slot} out of range")));
        }
        let p = self.slot_pos(slot);
        Ok(Slot {
            offset: u16::from_le_bytes(self.buf[p..p + 2].try_into().unwrap()),
            cap: u16::from_le_bytes(self.buf[p + 2..p + 4].try_into().unwrap()),
            len: u16::from_le_bytes(self.buf[p + 4..p + 6].try_into().unwrap()),
        })
    }

    fn write_slot(&mut self, slot: SlotId, s: Slot) {
        let p = self.slot_pos(slot);
        self.buf[p..p + 2].copy_from_slice(&s.offset.to_le_bytes());
        self.buf[p + 2..p + 4].copy_from_slice(&s.cap.to_le_bytes());
        self.buf[p + 4..p + 6].copy_from_slice(&s.len.to_le_bytes());
    }

    /// Contiguous free bytes between record space and slot directory.
    pub fn contiguous_free(&self) -> usize {
        (self.free_end() as usize).saturating_sub(self.free_start() as usize)
    }

    /// Can a record with capacity `cap` be inserted (counting a possibly new
    /// slot directory entry)?
    pub fn can_insert(&self, cap: usize) -> bool {
        // A tombstone slot may be reusable without directory growth, but we
        // answer conservatively for the common case (new slot entry).
        self.contiguous_free() >= cap + SLOT_BYTES
    }

    /// Insert `data`, reserving `cap >= data.len()` bytes. Returns the slot.
    /// Reuses tombstoned slot ids when their reserved space fits.
    pub fn insert(&mut self, data: &[u8], cap: usize) -> Result<SlotId> {
        if data.len() > cap {
            return Err(Error::Capacity(format!(
                "record {}B exceeds reserved capacity {cap}B",
                data.len()
            )));
        }
        if cap > u16::MAX as usize {
            return Err(Error::Capacity(format!(
                "capacity {cap}B exceeds page limit"
            )));
        }
        // Reuse a tombstone id (fresh space is still carved from the free
        // region; tombstone space is reclaimed by compact()).
        let mut reuse: Option<SlotId> = None;
        for i in 0..self.nslots() {
            let s = self.read_slot(SlotId(i))?;
            if s.cap == 0 {
                reuse = Some(SlotId(i));
                break;
            }
        }
        let need_dir = if reuse.is_some() { 0 } else { SLOT_BYTES };
        if self.contiguous_free() < cap + need_dir {
            return Err(Error::Capacity(format!(
                "page full: need {}B, have {}B",
                cap + need_dir,
                self.contiguous_free()
            )));
        }
        let offset = self.free_start();
        self.set_free_start(offset + cap as u16);
        let slot = match reuse {
            Some(s) => s,
            None => {
                let s = SlotId(self.nslots());
                self.set_nslots(s.0 + 1);
                self.set_free_end(self.free_end() - SLOT_BYTES as u16);
                s
            }
        };
        self.write_slot(
            slot,
            Slot {
                offset,
                cap: cap as u16,
                len: data.len() as u16,
            },
        );
        let off = offset as usize;
        self.buf[off..off + data.len()].copy_from_slice(data);
        // Zero the reserved tail so stale bytes never linger in the reserve.
        self.buf[off + data.len()..off + cap].fill(0);
        Ok(slot)
    }

    /// Read the live record in `slot`.
    pub fn read(&self, slot: SlotId) -> Result<&[u8]> {
        let s = self.read_slot(slot)?;
        if s.cap == 0 {
            return Err(Error::NotFound(format!("slot {slot} is deleted")));
        }
        let off = s.offset as usize;
        Ok(&self.buf[off..off + s.len as usize])
    }

    /// Rewrite the record in place. Fails with [`Error::Capacity`] if `data`
    /// exceeds the slot's reserved capacity (the heap layer sizes capacity
    /// so this cannot happen for degradation rewrites). Under
    /// `SecurePolicy::Overwrite` the previous bytes are zeroed first.
    pub fn update(&mut self, slot: SlotId, data: &[u8], policy: SecurePolicy) -> Result<()> {
        let s = self.read_slot(slot)?;
        if s.cap == 0 {
            return Err(Error::NotFound(format!("slot {slot} is deleted")));
        }
        if data.len() > s.cap as usize {
            return Err(Error::Capacity(format!(
                "update {}B exceeds reserved capacity {}B",
                data.len(),
                s.cap
            )));
        }
        let off = s.offset as usize;
        if policy.overwrites() {
            self.buf[off..off + s.cap as usize].fill(0);
        }
        self.buf[off..off + data.len()].copy_from_slice(data);
        if !policy.overwrites() {
            // Naive mode mimics a classical engine: the tail beyond the new
            // length keeps its stale bytes — exactly the forensic leak the
            // paper warns about. (Deliberate: the forensic baseline.)
        } else {
            self.buf[off + data.len()..off + s.cap as usize].fill(0);
        }
        self.write_slot(
            slot,
            Slot {
                len: data.len() as u16,
                ..s
            },
        );
        Ok(())
    }

    /// Delete the record. Under `SecurePolicy::Overwrite` the record bytes
    /// are zeroed; naive mode only drops the slot pointer (classical
    /// behaviour — recoverable by forensics until vacuum).
    pub fn delete(&mut self, slot: SlotId, policy: SecurePolicy) -> Result<()> {
        let s = self.read_slot(slot)?;
        if s.cap == 0 {
            return Err(Error::NotFound(format!("slot {slot} already deleted")));
        }
        if policy.overwrites() {
            let off = s.offset as usize;
            self.buf[off..off + s.cap as usize].fill(0);
        }
        self.write_slot(
            slot,
            Slot {
                offset: 0,
                cap: 0,
                len: 0,
            },
        );
        Ok(())
    }

    /// Is `slot` live?
    pub fn is_live(&self, slot: SlotId) -> bool {
        matches!(self.read_slot(slot), Ok(s) if s.cap > 0)
    }

    /// Number of directory entries (live + tombstoned).
    pub fn slot_count(&self) -> u16 {
        self.nslots()
    }

    /// Live slot ids.
    pub fn live_slots(&self) -> Vec<SlotId> {
        (0..self.nslots())
            .map(SlotId)
            .filter(|s| self.is_live(*s))
            .collect()
    }

    /// Bytes consumed by live record capacities.
    pub fn live_bytes(&self) -> usize {
        (0..self.nslots())
            .filter_map(|i| self.read_slot(SlotId(i)).ok())
            .map(|s| s.cap as usize)
            .sum()
    }

    /// Vacuum: rewrite all live records contiguously, reclaiming tombstone
    /// space. Slot ids are preserved (directory entries stay; only offsets
    /// move). Returns bytes reclaimed.
    pub fn compact(&mut self) -> usize {
        let before = self.contiguous_free();
        let n = self.nslots();
        // Collect live records (id, cap, bytes).
        let mut live: Vec<(SlotId, Slot, Vec<u8>)> = Vec::new();
        for i in 0..n {
            #[expect(clippy::expect_used, reason = "i < nslots() by the loop bound")]
            let s = self.read_slot(SlotId(i)).expect("in range");
            if s.cap > 0 {
                let off = s.offset as usize;
                // Copy only the live length: any stale tail bytes inside the
                // reserved capacity (naive-update residue) are scrubbed by
                // the vacuum rather than carried along.
                live.push((SlotId(i), s, self.buf[off..off + s.len as usize].to_vec()));
            }
        }
        // Order by current offset to rewrite front-to-back safely.
        live.sort_by_key(|(_, s, _)| s.offset);
        // Zero the whole record region first (no stale residue after vacuum).
        let end = self.free_start() as usize;
        self.buf[HDR..end].fill(0);
        let mut cursor = HDR as u16;
        for (id, s, bytes) in live {
            let off = cursor as usize;
            self.buf[off..off + bytes.len()].copy_from_slice(&bytes);
            self.write_slot(
                id,
                Slot {
                    offset: cursor,
                    ..s
                },
            );
            cursor += s.cap;
        }
        self.set_free_start(cursor);
        self.contiguous_free() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_buf() -> Vec<u8> {
        vec![0u8; PAGE_PAYLOAD]
    }

    #[test]
    fn insert_read_round_trip() {
        let mut buf = page_buf();
        let mut p = SlottedPage::init(&mut buf);
        let a = p.insert(b"alpha", 16).unwrap();
        let b = p.insert(b"beta", 4).unwrap();
        assert_eq!(p.read(a).unwrap(), b"alpha");
        assert_eq!(p.read(b).unwrap(), b"beta");
        assert_ne!(a, b);
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn capacity_reservation_allows_growth() {
        let mut buf = page_buf();
        let mut p = SlottedPage::init(&mut buf);
        let s = p.insert(b"Paris", 32).unwrap();
        // Degradation can grow the value; it fits within the reservation.
        p.update(s, b"Ile-de-France", SecurePolicy::Overwrite)
            .unwrap();
        assert_eq!(p.read(s).unwrap(), b"Ile-de-France");
        // But not beyond it.
        let too_big = vec![b'x'; 33];
        assert!(matches!(
            p.update(s, &too_big, SecurePolicy::Overwrite),
            Err(Error::Capacity(_))
        ));
    }

    #[test]
    fn insert_larger_than_cap_rejected() {
        let mut buf = page_buf();
        let mut p = SlottedPage::init(&mut buf);
        assert!(p.insert(b"hello", 3).is_err());
    }

    #[test]
    fn secure_update_zeroes_previous_bytes() {
        let mut buf = page_buf();
        {
            let mut p = SlottedPage::init(&mut buf);
            let s = p.insert(b"SENSITIVE-ADDRESS", 32).unwrap();
            p.update(s, b"city", SecurePolicy::Overwrite).unwrap();
            assert_eq!(p.read(s).unwrap(), b"city");
        }
        assert!(
            !contains(&buf, b"SENSITIVE-ADDRESS"),
            "pre-image must be gone after secure update"
        );
        assert!(!contains(&buf, b"ADDRESS"), "no partial residue either");
    }

    #[test]
    fn naive_update_leaks_tail_bytes() {
        let mut buf = page_buf();
        {
            let mut p = SlottedPage::init(&mut buf);
            let s = p.insert(b"SENSITIVE-ADDRESS", 32).unwrap();
            p.update(s, b"city", SecurePolicy::Naive).unwrap();
        }
        // The classical engine leaks the tail beyond the new record — this
        // is the Stahlberg et al. attack the paper cites.
        assert!(contains(&buf, b"TIVE-ADDRESS"));
    }

    #[test]
    fn secure_delete_zeroes_naive_leaks() {
        let mut buf = page_buf();
        {
            let mut p = SlottedPage::init(&mut buf);
            let s = p.insert(b"TOPSECRET", 16).unwrap();
            p.delete(s, SecurePolicy::Overwrite).unwrap();
            assert!(!p.is_live(s));
            assert!(p.read(s).is_err());
        }
        assert!(!contains(&buf, b"TOPSECRET"));

        let mut buf2 = page_buf();
        {
            let mut p = SlottedPage::init(&mut buf2);
            let s = p.insert(b"TOPSECRET", 16).unwrap();
            p.delete(s, SecurePolicy::Naive).unwrap();
        }
        assert!(contains(&buf2, b"TOPSECRET"), "naive delete leaves bytes");
    }

    #[test]
    fn tombstone_slot_id_reused() {
        let mut buf = page_buf();
        let mut p = SlottedPage::init(&mut buf);
        let a = p.insert(b"one", 8).unwrap();
        let _b = p.insert(b"two", 8).unwrap();
        p.delete(a, SecurePolicy::Overwrite).unwrap();
        let c = p.insert(b"three", 8).unwrap();
        assert_eq!(c, a, "tombstoned id is recycled");
        assert_eq!(p.slot_count(), 2);
        assert_eq!(p.read(c).unwrap(), b"three");
    }

    #[test]
    fn fills_up_then_rejects() {
        let mut buf = page_buf();
        let mut p = SlottedPage::init(&mut buf);
        let mut count = 0usize;
        loop {
            if p.insert(&[0xAB; 64], 64).is_err() {
                break;
            }
            count += 1;
        }
        // 8168 payload-ish / 70 per record ≈ 116.
        assert!(count > 100, "expected >100 64B records, got {count}");
        assert!(!p.can_insert(64));
        assert!(p.can_insert(0) || p.contiguous_free() < SLOT_BYTES);
    }

    #[test]
    fn compact_reclaims_tombstone_space() {
        let mut buf = page_buf();
        let mut p = SlottedPage::init(&mut buf);
        let mut ids = Vec::new();
        for i in 0..50 {
            ids.push(p.insert(format!("record-{i:03}").as_bytes(), 32).unwrap());
        }
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                p.delete(*id, SecurePolicy::Overwrite).unwrap();
            }
        }
        let free_before = p.contiguous_free();
        let reclaimed = p.compact();
        assert_eq!(reclaimed, 25 * 32);
        assert_eq!(p.contiguous_free(), free_before + 25 * 32);
        // Survivors intact, ids stable.
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 1 {
                assert_eq!(p.read(*id).unwrap(), format!("record-{i:03}").as_bytes());
            } else {
                assert!(!p.is_live(*id));
            }
        }
    }

    #[test]
    fn compact_leaves_no_residue() {
        let mut buf = page_buf();
        {
            let mut p = SlottedPage::init(&mut buf);
            let a = p.insert(b"GHOST-DATA", 16).unwrap();
            p.insert(b"keep", 8).unwrap();
            // Naive delete leaves bytes…
            p.delete(a, SecurePolicy::Naive).unwrap();
        }
        assert!(contains(&buf, b"GHOST-DATA"));
        {
            let mut p = SlottedPage::new(&mut buf);
            // …until vacuum scrubs the record region.
            p.compact();
        }
        assert!(!contains(&buf, b"GHOST-DATA"), "vacuum must scrub residue");
        let p = SlottedPage::new(&mut buf);
        assert_eq!(p.live_slots().len(), 1);
        let keep = p.live_slots()[0];
        assert_eq!(p.read(keep).unwrap(), b"keep");
    }

    #[test]
    fn read_of_bad_slot_errors() {
        let mut buf = page_buf();
        let p = SlottedPage::init(&mut buf);
        assert!(p.read(SlotId(0)).is_err());
        assert!(p.read(SlotId(99)).is_err());
    }

    #[test]
    fn live_bytes_tracks_capacity() {
        let mut buf = page_buf();
        let mut p = SlottedPage::init(&mut buf);
        p.insert(b"a", 10).unwrap();
        p.insert(b"b", 20).unwrap();
        assert_eq!(p.live_bytes(), 30);
    }

    fn contains(hay: &[u8], needle: &[u8]) -> bool {
        hay.windows(needle.len()).any(|w| w == needle)
    }
}
