//! The segmented log: append, rotate, iterate, truncate, forensic view.
//!
//! A [`Wal`] is a **directory** of fixed-capacity segment files
//! (`wal.<seqno>.seg`, see [`crate::segment`]) — one shard of a
//! [`crate::walset::WalSet`], or a set of one when opened on its own.
//! Appends go to the single *active* (highest-numbered) segment,
//! buffered; `sync()` flushes and fsyncs it (the group-commit writer
//! calls it once per drain). LSNs come from an allocator
//! handle — the `Wal`'s own by default, the set's when a `WalSet` opened
//! it — drawn under the log lock, so the byte stream is LSN-monotone and
//! LSNs other shards took show up as [`LogRecord::LsnJump`] markers.
//! When the active segment reaches capacity the writer
//! **rotates**: the outgoing segment is flushed + fsynced (sealing it —
//! a sealed segment never changes again), a fresh segment starting at the
//! next LSN is created, and the directory entry is fsynced before any
//! commit relies on the new file.
//!
//! `truncate_before(lsn)` physically drops records below an LSN (after a
//! checkpoint) by **deleting whole dead segments** — segments whose every
//! record is below the cut. No retained byte is rewritten and the Wal
//! lock is held only to splice the in-memory segment list, so the cost is
//! O(segments freed) unlinks and commit acknowledgments never stall
//! behind a log-sized copy. This is the *physical* counterpart to key
//! shredding: shredding makes old images unreadable immediately;
//! segment deletion reclaims and destroys the bytes themselves. The
//! engine rotates right before logging a `Checkpoint` record, so the
//! record starts a fresh segment and everything before it is deletable.
//!
//! Recovery streams frames across segments in LSN order; a torn or
//! corrupt tail is trimmed off the **last** segment at open (sealed
//! segments were fsynced at rotation, so only the active one can tear).

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use instant_common::{Error, Result};

use crate::record::{LogRecord, Lsn};
use crate::segment::{
    self, FrameScanner, SegmentConfig, SegmentHeader, SegmentStats, SEGMENT_HEADER_LEN,
};

/// The segment currently receiving appends.
struct ActiveSegment {
    seqno: u64,
    first_lsn: Lsn,
    records: u64,
    /// Bytes the file will hold once buffers flush (header + frames).
    written: u64,
    path: PathBuf,
    writer: BufWriter<File>,
}

/// A rotated segment: immutable on disk until truncation deletes it.
struct SealedSegment {
    seqno: u64,
    first_lsn: Lsn,
    /// The LSN just past the segment's last record (the log's running
    /// LSN when it was sealed): every record in it lies below this.
    end_lsn: Lsn,
    records: u64,
    bytes: u64,
    path: PathBuf,
}

struct WalInner {
    dir: PathBuf,
    capacity: u64,
    sealed: Vec<SealedSegment>,
    active: ActiveSegment,
    next_lsn: Lsn,
    syncs: u64,
    appended: u64,
    /// Bytes physically destroyed by segment deletion since open.
    truncated_bytes: u64,
    rotations: u64,
    segments_deleted: u64,
}

impl WalInner {
    /// Frame `rec` into the active segment, rotating first when it is
    /// full. LSN accounting is the caller's.
    fn write_record(&mut self, rec: &LogRecord) -> Result<()> {
        if self.active.written >= self.capacity && self.active.records > 0 {
            self.rotate()?;
        }
        let frame = segment::write_frame(&mut self.active.writer, &rec.encode())?;
        self.active.records += 1;
        self.active.written += frame;
        Ok(())
    }

    /// Write an [`LogRecord::LsnJump`] frame re-basing this log's
    /// running LSN to `next`. Consumes no LSN and does not count as an
    /// appended record — it is byte-stream plumbing for the LSNs a
    /// shared allocator handed to other shards.
    fn write_jump(&mut self, next: Lsn) -> Result<()> {
        self.write_record(&LogRecord::LsnJump { next })?;
        if self.active.records == 1 {
            // The segment holds nothing but this jump: its first *real*
            // record will carry `next`, so advance the in-memory base.
            // The on-disk header keeps the rotation-time watermark —
            // scans start there and the jump re-bases them — but
            // `base_lsn` must not report an LSN this shard never
            // retained.
            self.active.first_lsn = next;
        }
        self.next_lsn = next;
        Ok(())
    }

    /// Append `records` contiguously starting at the allocated LSN
    /// `base`, emitting a jump marker first when `base` is ahead of this
    /// log's local stream. `base` must never regress (the caller
    /// allocates it under this same lock).
    fn append_batch_at(&mut self, base: Lsn, records: &[LogRecord]) -> Result<()> {
        debug_assert!(
            base >= self.next_lsn,
            "LSN allocation regressed: base {base} < next {}",
            self.next_lsn
        );
        if base != self.next_lsn {
            self.write_jump(base)?;
        }
        for rec in records {
            self.write_record(rec)?;
            self.next_lsn += 1;
            self.appended += 1;
        }
        Ok(())
    }

    /// Seal the active segment and start a fresh one at the next LSN.
    /// No-op while the active segment is empty (so back-to-back rotations
    /// never litter the directory with zero-record files).
    ///
    /// Ordering is load-bearing: the outgoing file is flushed + fsynced
    /// *before* the switch (sealed segments are therefore always
    /// complete on disk — only the active segment can tear), and the
    /// directory entry of the new file is fsynced before any commit's
    /// `sync()` can acknowledge records inside it.
    fn rotate(&mut self) -> Result<()> {
        if self.active.records == 0 {
            return Ok(());
        }
        self.active.writer.flush()?;
        self.active.writer.get_ref().sync_all()?;
        let next = create_active(&self.dir, self.active.seqno + 1, self.next_lsn)?;
        segment::sync_dir(&self.dir)?;
        let old = std::mem::replace(&mut self.active, next);
        self.sealed.push(SealedSegment {
            seqno: old.seqno,
            first_lsn: old.first_lsn,
            end_lsn: self.next_lsn,
            records: old.records,
            bytes: old.written,
            path: old.path,
        });
        self.rotations += 1;
        Ok(())
    }

    fn flush_and_sync_active(&mut self) -> Result<()> {
        self.active.writer.flush()?;
        self.active.writer.get_ref().sync_all()?;
        Ok(())
    }

    /// `(path, first_lsn)` of every live segment in log order.
    fn segment_paths(&self) -> Vec<(PathBuf, Lsn)> {
        self.sealed
            .iter()
            .map(|s| (s.path.clone(), s.first_lsn))
            .chain(std::iter::once((
                self.active.path.clone(),
                self.active.first_lsn,
            )))
            .collect()
    }
}

/// Create segment `seqno` starting at `first_lsn` and buffer its header.
/// The caller fsyncs the directory when the new name must be durable.
fn create_active(dir: &Path, seqno: u64, first_lsn: Lsn) -> Result<ActiveSegment> {
    let path = dir.join(segment::file_name(seqno));
    let file = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .read(true)
        .open(&path)?;
    let mut writer = BufWriter::new(file);
    let header = SegmentHeader { seqno, first_lsn };
    writer.write_all(&header.encode())?;
    Ok(ActiveSegment {
        seqno,
        first_lsn,
        records: 0,
        written: SEGMENT_HEADER_LEN,
        path,
        writer,
    })
}

/// Reopen an existing segment for appending (its valid length and record
/// count were established by the open-time scan).
fn reopen_active(
    path: PathBuf,
    seqno: u64,
    first_lsn: Lsn,
    records: u64,
    written: u64,
) -> Result<ActiveSegment> {
    let file = OpenOptions::new().append(true).read(true).open(&path)?;
    Ok(ActiveSegment {
        seqno,
        first_lsn,
        records,
        written,
        path,
        writer: BufWriter::new(file),
    })
}

/// An append-only, segmented write-ahead log.
pub struct Wal {
    dir: PathBuf,
    inner: Mutex<WalInner>,
    /// Where batch LSNs come from: this log's own counter, or the one a
    /// [`crate::walset::WalSet`] shares across its shards. Always drawn
    /// from *under the `inner` lock*, which is the whole ordering story:
    /// two committers racing into the same log allocate in the order
    /// they enter it, so the byte stream and the LSN order agree.
    alloc: Arc<AtomicU64>,
    ephemeral: bool,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal").field("dir", &self.dir).finish()
    }
}

impl Wal {
    /// Open (or create) the log directory at `path` with the default
    /// segment capacity. Scans stream frame by frame — the log is never
    /// materialized in memory. A torn/corrupt tail is **trimmed off the
    /// last segment** before the log reopens for appending: without the
    /// trim, post-recovery commits would land after the garbage bytes
    /// and be unreachable by every future scan.
    pub fn open(path: impl AsRef<Path>) -> Result<Wal> {
        Self::open_with(path, SegmentConfig::default())
    }

    /// [`Wal::open`] with explicit segment tuning.
    pub fn open_with(path: impl AsRef<Path>, cfg: SegmentConfig) -> Result<Wal> {
        scan_dir(path.as_ref())?.open(cfg, Arc::new(AtomicU64::new(0)))
    }

    /// Throwaway log in the temp directory, removed on drop.
    pub fn temp(tag: &str) -> Result<Wal> {
        Self::temp_with(tag, SegmentConfig::default())
    }

    /// [`Wal::temp`] with explicit segment tuning.
    pub fn temp_with(tag: &str, cfg: SegmentConfig) -> Result<Wal> {
        let path = temp_path("wal", tag);
        let _ = std::fs::remove_dir_all(&path);
        let mut wal = Self::open_with(path, cfg)?;
        wal.ephemeral = true;
        Ok(wal)
    }

    /// The log directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Append a record, returning its LSN. Buffered — call [`Wal::sync`]
    /// at commit points.
    pub fn append(&self, rec: &LogRecord) -> Result<Lsn> {
        self.append_batch(std::slice::from_ref(rec))
    }

    /// Append a batch of records contiguously under one lock acquisition,
    /// returning the LSN of the first (or the allocator's next LSN for an
    /// empty batch). Buffered — call [`Wal::sync`] for durability. The
    /// batch's LSN range is drawn from the allocator *under the log
    /// lock*; when the allocated base is ahead of the local stream —
    /// other shards took the LSNs in between — an
    /// [`LogRecord::LsnJump`] marker re-bases the stream first. A batch
    /// may straddle a rotation; that is safe because rotation fsyncs the
    /// outgoing segment, so the following [`Wal::sync`] still makes the
    /// whole batch durable.
    pub fn append_batch(&self, records: &[LogRecord]) -> Result<Lsn> {
        let mut inner = self.inner.lock();
        let base = self
            .alloc
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        if !records.is_empty() {
            // Appends under the inner mutex, the log's serialization point;
            // rotation may fsync the outgoing segment.
            inner.append_batch_at(base, records)?;
        }
        Ok(base)
    }

    /// Flush buffers and fsync the active segment — the durability point.
    /// (Sealed segments were already fsynced when they rotated out.)
    pub fn sync(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        // The fsync must cover exactly the bytes appended under this lock.
        inner.flush_and_sync_active()?;
        inner.syncs += 1;
        Ok(())
    }

    /// Seal the active segment and start a fresh one; no-op when the
    /// active segment is empty. The engine calls this right before
    /// logging a `Checkpoint` record so the record starts its own
    /// segment — every prior record then lives in a wholly-dead segment
    /// that [`Wal::truncate_before`] can delete.
    pub fn rotate(&self) -> Result<()> {
        self.inner.lock().rotate()
    }

    /// `(appended records, fsync calls)` since open. Rotation fsyncs (the
    /// seal of an outgoing segment) are *not* counted: the counter tracks
    /// durability-point syncs, so "one fsync per drain" invariants stay
    /// exact under any segment capacity.
    pub fn counters(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.appended, inner.syncs)
    }

    /// Bytes physically destroyed by [`Wal::truncate_before`] since open.
    pub fn truncated_bytes(&self) -> u64 {
        self.inner.lock().truncated_bytes
    }

    /// Segment lifecycle counters.
    pub fn segment_stats(&self) -> SegmentStats {
        let inner = self.inner.lock();
        SegmentStats {
            segments: inner.sealed.len() as u64 + 1,
            rotations: inner.rotations,
            segments_deleted: inner.segments_deleted,
            deleted_bytes: inner.truncated_bytes,
        }
    }

    /// The LSN just past this log's last record — its *local* stream
    /// position, which trails the allocator's next LSN whenever other
    /// shards of the same set appended more recently.
    pub fn next_lsn(&self) -> Lsn {
        self.inner.lock().next_lsn
    }

    /// LSN of the first physically retained record.
    pub fn base_lsn(&self) -> Lsn {
        let inner = self.inner.lock();
        inner
            .sealed
            .first()
            .map_or(inner.active.first_lsn, |s| s.first_lsn)
    }

    /// Read every intact record: `(lsn, record)` pairs, streaming across
    /// segments in order. Stops at the first torn/corrupt frame. A
    /// snapshotted segment whose file has vanished was unlinked by a
    /// concurrent [`Wal::truncate_before`] — its records are below the
    /// new base, so it is skipped, not treated as end-of-log.
    pub fn iterate(&self) -> Result<Vec<(Lsn, LogRecord)>> {
        let paths = {
            let mut inner = self.inner.lock();
            // The flush lands buffered bytes before the segment paths are
            // snapshotted under the same lock.
            inner.active.writer.flush()?;
            inner.segment_paths()
        };
        let mut out = Vec::new();
        for (path, first_lsn) in paths {
            let (records, clean) = match scan_records(&path, first_lsn)? {
                Some(s) => s,
                None if !path.exists() => {
                    out.clear(); // racing truncation deleted the prefix
                    continue;
                }
                None => break, // unreadable header — end of usable log
            };
            out.extend(records);
            if !clean {
                break; // torn/corrupt frame — nothing after it is reachable
            }
        }
        Ok(out)
    }

    /// Physically drop all records with `lsn < keep_from` (post-checkpoint
    /// truncation) by deleting every sealed segment whose records are all
    /// below the cut. Never rewrites a retained byte; the Wal lock is held
    /// only to splice the in-memory segment list, and the unlinks happen
    /// outside it, so concurrent appends/fsyncs (commit acknowledgments)
    /// never wait on truncation I/O. Returns the number of records
    /// dropped — at most `keep_from - base_lsn`, less when the cut lands
    /// mid-segment (the remainder dies with the *next* truncation, after
    /// the following checkpoint rotates).
    pub fn truncate_before(&self, keep_from: Lsn) -> Result<u64> {
        let (dead, dir) = {
            let mut inner = self.inner.lock();
            // A sealed segment is dead iff its own end is at or below
            // the cut. (Not its successor's first LSN: on a sharded log
            // that moves up to a jump target when the successor opens
            // with a jump, which would keep a wholly dead segment.) Ends
            // ascend, so find the split point, then splice once —
            // O(sealed), not O(dead × sealed).
            let k = inner
                .sealed
                .iter()
                .take_while(|s| s.end_lsn <= keep_from)
                .count();
            let dead: Vec<SealedSegment> = inner.sealed.drain(..k).collect();
            for seg in &dead {
                inner.truncated_bytes += seg.bytes;
            }
            inner.segments_deleted += k as u64;
            (dead, inner.dir.clone())
        };
        let mut dropped = 0u64;
        // Ascending order: a crash mid-way leaves the surviving segments
        // contiguous from some new base.
        for seg in &dead {
            dropped += seg.records;
            std::fs::remove_file(&seg.path)?;
        }
        if !dead.is_empty() {
            segment::sync_dir(&dir)?;
        }
        Ok(dropped)
    }

    /// Raw on-disk log bytes (forensic attacker's view): every segment's
    /// bytes, concatenated in log order. A snapshotted segment whose file
    /// has vanished was unlinked by a concurrent truncation — exactly
    /// what the attacker would (not) find on disk — so it contributes
    /// nothing rather than failing the dump.
    pub fn raw_image(&self) -> Result<Vec<u8>> {
        let paths = {
            let mut inner = self.inner.lock();
            // The flush lands buffered bytes before the segment paths are
            // snapshotted under the same lock.
            inner.active.writer.flush()?;
            inner.segment_paths()
        };
        let mut out = Vec::new();
        for (path, _) in paths {
            match File::open(&path) {
                Ok(mut f) => {
                    f.read_to_end(&mut out)?;
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(out)
    }

    /// Simulate a crash that loses the last `n` *bytes* of the log (torn
    /// write on the active segment; a real crash cannot reach sealed
    /// segments, which were fsynced at rotation). `torn_tail(0)` flushes
    /// buffers to the OS without fsync — the file state a crash point
    /// mid-drain would leave. Test/experiment hook: the in-memory record
    /// count is deliberately not rescanned (real usage reopens the log).
    pub fn torn_tail(&self, n: u64) -> Result<()> {
        let mut inner = self.inner.lock();
        // The truncation must see every buffered byte, so the flush runs
        // under the log lock.
        inner.active.writer.flush()?;
        let f = OpenOptions::new().write(true).open(&inner.active.path)?;
        let len = f.metadata()?.len();
        let new_len = len.saturating_sub(n).max(SEGMENT_HEADER_LEN);
        f.set_len(new_len)?;
        drop(f);
        let file = OpenOptions::new()
            .append(true)
            .read(true)
            .open(&inner.active.path)?;
        inner.active.writer = BufWriter::new(file);
        inner.active.written = new_len;
        Ok(())
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        if self.ephemeral {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// The open-time scan of one log directory: the segments that chain into
/// the usable log, and the repair opening must make so that appends land
/// where every later scan reaches them. Scanning writes nothing, so a
/// [`crate::walset::WalSet`] scans every shard — and refuses them all
/// when one holds a record this version cannot read — before repairing
/// any.
pub(crate) struct DirScan {
    dir: PathBuf,
    /// Every segment file in order; those past `usable` are unreachable.
    on_disk: Vec<(u64, PathBuf)>,
    usable: Vec<SealedSegment>,
    /// Valid length of the last usable segment when its tail is torn.
    torn: Option<u64>,
    next_lsn: Lsn,
}

/// Scan the segments of the log at `dir` (absent = empty).
pub(crate) fn scan_dir(dir: &Path) -> Result<DirScan> {
    let on_disk = match dir.is_dir() {
        true => segment::list_segments(dir)?,
        false => Vec::new(),
    };
    let (mut usable, mut torn, mut next_lsn) = (Vec::new(), None, 0);
    for (seqno, seg_path) in &on_disk {
        let chains = |s: &segment::ScannedSegment| {
            s.header.seqno == *seqno && (usable.is_empty() || s.header.first_lsn == next_lsn)
        };
        // A headerless/corrupt-header segment or an LSN gap ends the
        // usable log: the file and everything after it is garbage (e.g. a
        // crash before a freshly rotated file's header was durable).
        let Some(s) = segment::scan_segment(seg_path)?.filter(chains) else {
            break;
        };
        // The scan tracks the running LSN frame by frame (jump markers
        // re-base it), so sharded logs with discontinuous per-shard LSNs
        // chain-validate exactly like dense ones.
        next_lsn = s.next_lsn;
        usable.push(SealedSegment {
            seqno: *seqno,
            first_lsn: s.header.first_lsn,
            end_lsn: s.next_lsn,
            records: s.records,
            bytes: s.valid_len,
            path: seg_path.clone(),
        });
        if s.valid_len < s.file_len {
            // Only the last segment of a clean shutdown can tear; files
            // after a mid-log tear are beyond the usable log.
            torn = Some(s.valid_len);
            break;
        }
    }
    Ok(DirScan {
        dir: dir.to_path_buf(),
        on_disk,
        usable,
        torn,
        next_lsn,
    })
}

impl DirScan {
    /// Repair what the scan found — trim the torn tail, delete the
    /// unreachable files — and reopen the log for appending, drawing LSNs
    /// from `alloc`. The allocator is raised to at least this log's next
    /// LSN, so once a `WalSet` has opened every shard it resumes past all
    /// of them.
    pub(crate) fn open(mut self, cfg: SegmentConfig, alloc: Arc<AtomicU64>) -> Result<Wal> {
        std::fs::create_dir_all(&self.dir)?;
        if let (Some(len), Some(last)) = (self.torn, self.usable.last()) {
            let f = OpenOptions::new().write(true).open(&last.path)?;
            f.set_len(len)?;
            f.sync_all()?;
        }
        let unreachable = &self.on_disk[self.usable.len()..];
        for (_, p) in unreachable {
            std::fs::remove_file(p)?;
        }
        if !unreachable.is_empty() {
            segment::sync_dir(&self.dir)?;
        }
        let active = match self.usable.pop() {
            Some(last) => reopen_active(
                last.path,
                last.seqno,
                last.first_lsn,
                last.records,
                last.bytes,
            )?,
            None => {
                // Fresh (or fully corrupt) log: start at segment 0, LSN 0.
                let active = create_active(&self.dir, 0, 0)?;
                segment::sync_dir(&self.dir)?;
                active
            }
        };

        alloc.fetch_max(self.next_lsn, Ordering::Relaxed);
        Ok(Wal {
            dir: self.dir.clone(),
            alloc,
            inner: Mutex::ranked(
                520,
                WalInner {
                    dir: self.dir,
                    capacity: cfg.capacity(),
                    sealed: self.usable,
                    active,
                    next_lsn: self.next_lsn,
                    syncs: 0,
                    appended: 0,
                    truncated_bytes: 0,
                    rotations: 0,
                    segments_deleted: 0,
                },
            ),
            ephemeral: false,
        })
    }
}

/// One segment's records tagged with their LSNs; the bool is `true`
/// when the scan consumed the file cleanly (no torn or corrupt tail).
type SegmentScan = (Vec<(Lsn, LogRecord)>, bool);

/// Scan one segment's records with their LSNs, starting the running LSN
/// at `first_lsn`; jump markers re-base it and are stripped from the
/// output. `Ok(None)` when the header is unreadable.
fn scan_records(path: &Path, first_lsn: Lsn) -> Result<Option<SegmentScan>> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let len = file.metadata()?.len();
    if len < SEGMENT_HEADER_LEN {
        return Ok(None);
    }
    let mut scan = FrameScanner::new(file)?;
    let mut records = Vec::new();
    let mut lsn = first_lsn;
    while let Some(rec) = scan.next_record()? {
        match rec {
            LogRecord::LsnJump { next } => lsn = next,
            rec => {
                records.push((lsn, rec));
                lsn += 1;
            }
        }
    }
    let clean = scan.pos() == scan.file_len();
    Ok(Some((records, clean)))
}

/// A fresh scratch path in the temp directory for throwaway logs: pid
/// plus a process-wide counter, so concurrent tests never collide.
pub(crate) fn temp_path(kind: &str, tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "instantdb-{kind}-{tag}-{}-{n}.log",
        std::process::id()
    ))
}

/// Helper for benches/tests: total on-disk size of the log in bytes
/// (every segment file summed).
pub fn log_size(wal: &Wal) -> Result<u64> {
    let mut total = 0u64;
    for (_, path) in segment::list_segments(wal.path())? {
        total += std::fs::metadata(&path)
            .map(|m| m.len())
            .map_err(Error::from)?;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Payload;
    use instant_common::{TableId, Timestamp, TupleId, TxId};

    fn rec(i: u64) -> LogRecord {
        LogRecord::Insert {
            tx: TxId(i),
            table: TableId(1),
            tid: TupleId::new(1, i as u16),
            row: Payload::Plain(format!("row-{i}").into_bytes()),
            at: Timestamp::micros(i),
        }
    }

    fn tiny_cfg() -> SegmentConfig {
        SegmentConfig {
            segment_bytes: 1, // clamps to MIN_SEGMENT_BYTES
        }
    }

    /// Unique non-ephemeral path for reopen tests (cleaned by the test).
    fn scratch(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "instantdb-waldir-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn append_iterate_round_trip() {
        let wal = Wal::temp("w1").unwrap();
        for i in 0..10 {
            let lsn = wal.append(&rec(i)).unwrap();
            assert_eq!(lsn, i);
        }
        wal.sync().unwrap();
        let records = wal.iterate().unwrap();
        assert_eq!(records.len(), 10);
        for (i, (lsn, r)) in records.iter().enumerate() {
            assert_eq!(*lsn, i as u64);
            assert_eq!(r, &rec(i as u64));
        }
    }

    #[test]
    fn reopen_continues_lsns() {
        let path = scratch("reopen");
        {
            let wal = Wal::open(&path).unwrap();
            wal.append(&rec(0)).unwrap();
            wal.append(&rec(1)).unwrap();
            wal.sync().unwrap();
        }
        {
            let wal = Wal::open(&path).unwrap();
            assert_eq!(wal.next_lsn(), 2);
            let lsn = wal.append(&rec(2)).unwrap();
            assert_eq!(lsn, 2);
            wal.sync().unwrap();
            assert_eq!(wal.iterate().unwrap().len(), 3);
        }
        std::fs::remove_dir_all(&path).unwrap();
    }

    #[test]
    fn rotation_on_capacity_creates_numbered_segments() {
        let wal = Wal::temp_with("rot", tiny_cfg()).unwrap();
        // Each record is ~60 framed bytes; MIN_SEGMENT_BYTES = 4096, so
        // ~70 records per segment. 300 records must rotate several times.
        for i in 0..300 {
            wal.append(&rec(i)).unwrap();
        }
        wal.sync().unwrap();
        let stats = wal.segment_stats();
        assert!(stats.rotations >= 2, "{stats:?}");
        assert_eq!(stats.segments, stats.rotations + 1);
        let names: Vec<u64> = segment::list_segments(wal.path())
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let want: Vec<u64> = (0..names.len() as u64).collect();
        assert_eq!(names, want, "segments numbered sequentially from 0");
        // The full stream reads back across the rotation boundaries.
        let records = wal.iterate().unwrap();
        assert_eq!(records.len(), 300);
        for (i, (lsn, r)) in records.iter().enumerate() {
            assert_eq!(*lsn, i as u64);
            assert_eq!(r, &rec(i as u64));
        }
    }

    #[test]
    fn reopen_multi_segment_log_continues_lsns() {
        let path = scratch("reopen-multi");
        {
            let wal = Wal::open_with(&path, tiny_cfg()).unwrap();
            for i in 0..200 {
                wal.append(&rec(i)).unwrap();
            }
            wal.sync().unwrap();
            assert!(wal.segment_stats().rotations >= 1);
        }
        {
            let wal = Wal::open_with(&path, tiny_cfg()).unwrap();
            assert_eq!(wal.next_lsn(), 200);
            assert_eq!(wal.base_lsn(), 0);
            assert_eq!(wal.append(&rec(200)).unwrap(), 200);
            wal.sync().unwrap();
            assert_eq!(wal.iterate().unwrap().len(), 201);
        }
        std::fs::remove_dir_all(&path).unwrap();
    }

    #[test]
    fn reopen_after_corrupt_tail_frame_trims_it_too() {
        // Corruption with an intact length field (bit rot, failed fsync
        // garbage) must also be trimmed at open — otherwise the scanner's
        // end-of-log would include it and post-reopen appends would land
        // after bytes no scan can ever cross.
        let path = scratch("corrupt-reopen");
        {
            let wal = Wal::open(&path).unwrap();
            for i in 0..5 {
                wal.append(&rec(i)).unwrap();
            }
            wal.sync().unwrap();
        }
        {
            use std::io::{Read, Seek, SeekFrom, Write};
            let seg = segment::list_segments(&path).unwrap().pop().unwrap().1;
            let mut f = OpenOptions::new().read(true).write(true).open(seg).unwrap();
            let len = f.metadata().unwrap().len();
            f.seek(SeekFrom::Start(len - 2)).unwrap();
            let mut b = [0u8; 1];
            f.read_exact(&mut b).unwrap();
            f.seek(SeekFrom::Start(len - 2)).unwrap();
            f.write_all(&[b[0] ^ 0xAA]).unwrap();
        }
        {
            let wal = Wal::open(&path).unwrap();
            assert_eq!(wal.next_lsn(), 4, "corrupt final record dropped");
            assert_eq!(wal.append(&rec(4)).unwrap(), 4);
            wal.sync().unwrap();
            let records = wal.iterate().unwrap();
            assert_eq!(records.len(), 5, "append after corrupt-tail trim reachable");
            assert_eq!(records[4].1, rec(4));
        }
        std::fs::remove_dir_all(&path).unwrap();
    }

    #[test]
    fn reopen_after_torn_tail_trims_garbage_so_new_appends_are_reachable() {
        let path = scratch("torn-reopen");
        {
            let wal = Wal::open(&path).unwrap();
            for i in 0..5 {
                wal.append(&rec(i)).unwrap();
            }
            wal.sync().unwrap();
            wal.torn_tail(3).unwrap(); // crash chops into the last frame
        }
        {
            let wal = Wal::open(&path).unwrap();
            assert_eq!(wal.next_lsn(), 4, "torn final record dropped");
            let lsn = wal.append(&rec(4)).unwrap();
            assert_eq!(lsn, 4);
            wal.sync().unwrap();
            let records = wal.iterate().unwrap();
            assert_eq!(
                records.len(),
                5,
                "open must trim the torn garbage or this append is unreachable"
            );
            assert_eq!(records[4].1, rec(4));
        }
        std::fs::remove_dir_all(&path).unwrap();
    }

    #[test]
    fn torn_tail_detected_and_dropped() {
        let wal = Wal::temp("w2").unwrap();
        for i in 0..5 {
            wal.append(&rec(i)).unwrap();
        }
        wal.sync().unwrap();
        // Chop 3 bytes off the last frame.
        wal.torn_tail(3).unwrap();
        let records = wal.iterate().unwrap();
        assert_eq!(records.len(), 4, "torn final record must be dropped");
    }

    #[test]
    fn corrupt_middle_frame_stops_iteration() {
        let wal = Wal::temp("w3").unwrap();
        for i in 0..5 {
            wal.append(&rec(i)).unwrap();
        }
        wal.sync().unwrap();
        // Flip a byte near the middle of the (single) segment file.
        let seg = segment::list_segments(wal.path()).unwrap().pop().unwrap().1;
        let mid = std::fs::metadata(&seg).unwrap().len() / 2;
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = OpenOptions::new().write(true).open(&seg).unwrap();
            f.seek(SeekFrom::Start(mid)).unwrap();
            f.write_all(&[0xFF]).unwrap();
        }
        let records = wal.iterate().unwrap();
        assert!(records.len() < 5, "corruption must truncate the usable log");
    }

    #[test]
    fn truncate_deletes_only_whole_dead_segments() {
        let wal = Wal::temp("w4").unwrap();
        for i in 0..6 {
            wal.append(&rec(i)).unwrap();
        }
        wal.rotate().unwrap(); // seal [0..6)
        for i in 6..10 {
            wal.append(&rec(i)).unwrap();
        }
        wal.sync().unwrap();
        // Cut at 6 = the segment boundary: the sealed segment dies whole.
        let dropped = wal.truncate_before(6).unwrap();
        assert_eq!(dropped, 6);
        assert_eq!(wal.base_lsn(), 6);
        assert!(
            wal.truncated_bytes() > 0,
            "physical destruction must be accounted"
        );
        assert_eq!(wal.segment_stats().segments_deleted, 1);
        let records = wal.iterate().unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].0, 6);
        assert_eq!(records[0].1, rec(6));
        // Appends continue with correct LSNs.
        let lsn = wal.append(&rec(10)).unwrap();
        assert_eq!(lsn, 10);
        wal.sync().unwrap();
        assert_eq!(wal.iterate().unwrap().len(), 5);
    }

    #[test]
    fn truncate_mid_segment_keeps_the_whole_segment() {
        // The cut lands inside the sealed segment: nothing is rewritten,
        // so the whole segment survives and `dropped` reports 0. The
        // remainder dies with the next checkpoint's truncation.
        let wal = Wal::temp("w4b").unwrap();
        for i in 0..6 {
            wal.append(&rec(i)).unwrap();
        }
        wal.rotate().unwrap();
        for i in 6..8 {
            wal.append(&rec(i)).unwrap();
        }
        wal.sync().unwrap();
        let dropped = wal.truncate_before(3).unwrap();
        assert_eq!(dropped, 0, "mid-segment cut deletes nothing");
        assert_eq!(wal.base_lsn(), 0);
        assert_eq!(wal.iterate().unwrap().len(), 8);
        // A later cut at/past the boundary frees it.
        assert_eq!(wal.truncate_before(7).unwrap(), 6);
        assert_eq!(wal.base_lsn(), 6);
    }

    #[test]
    fn truncation_physically_destroys_bytes() {
        let wal = Wal::temp("w5").unwrap();
        wal.append(&LogRecord::Insert {
            tx: TxId(1),
            table: TableId(1),
            tid: TupleId::new(1, 1),
            row: Payload::Plain(b"DESTROY-ME".to_vec()),
            at: Timestamp::ZERO,
        })
        .unwrap();
        // The engine rotates before a checkpoint record for exactly this
        // reason: the doomed record's segment becomes wholly dead.
        wal.rotate().unwrap();
        wal.append(&rec(99)).unwrap();
        wal.sync().unwrap();
        assert!(wal
            .raw_image()
            .unwrap()
            .windows(10)
            .any(|w| w == b"DESTROY-ME"));
        wal.truncate_before(1).unwrap();
        assert!(
            !wal.raw_image()
                .unwrap()
                .windows(10)
                .any(|w| w == b"DESTROY-ME"),
            "truncated bytes must be physically gone"
        );
    }

    #[test]
    fn counters_track_appends_and_syncs() {
        let wal = Wal::temp("w6").unwrap();
        wal.append(&rec(0)).unwrap();
        wal.append(&rec(1)).unwrap();
        wal.sync().unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.counters(), (2, 2));
    }

    #[test]
    fn rotation_fsync_not_counted_as_durability_sync() {
        let wal = Wal::temp("w6b").unwrap();
        wal.append(&rec(0)).unwrap();
        wal.rotate().unwrap();
        wal.append(&rec(1)).unwrap();
        wal.sync().unwrap();
        let (appended, syncs) = wal.counters();
        assert_eq!((appended, syncs), (2, 1));
        assert_eq!(wal.segment_stats().rotations, 1);
    }

    #[test]
    fn rotate_on_empty_active_segment_is_a_noop() {
        let wal = Wal::temp("w6c").unwrap();
        wal.rotate().unwrap();
        wal.rotate().unwrap();
        assert_eq!(wal.segment_stats().rotations, 0);
        assert_eq!(wal.segment_stats().segments, 1);
        wal.append(&rec(0)).unwrap();
        wal.rotate().unwrap();
        wal.rotate().unwrap();
        assert_eq!(wal.segment_stats().rotations, 1, "second rotate idles");
    }

    #[test]
    fn empty_log_iterates_empty() {
        let wal = Wal::temp("w7").unwrap();
        assert!(wal.iterate().unwrap().is_empty());
        assert_eq!(wal.next_lsn(), 0);
    }

    #[test]
    fn alloc_appends_with_gaps_round_trip_and_reopen() {
        let path = scratch("alloc-gaps");
        {
            let wal = Wal::open(&path).unwrap();
            assert_eq!(wal.append_batch(&[rec(0), rec(1)]).unwrap(), 0);
            // Other shards take LSNs 2..7 from the shared allocator.
            wal.alloc.fetch_add(5, Ordering::Relaxed);
            assert_eq!(wal.append_batch(&[rec(7), rec(8)]).unwrap(), 7);
            wal.sync().unwrap();
            let records = wal.iterate().unwrap();
            let lsns: Vec<Lsn> = records.iter().map(|(l, _)| *l).collect();
            assert_eq!(lsns, vec![0, 1, 7, 8], "jump applied and stripped");
            assert_eq!(records[2].1, rec(7));
            assert_eq!(wal.next_lsn(), 9);
        }
        {
            let wal = Wal::open(&path).unwrap();
            assert_eq!(wal.next_lsn(), 9, "reopen scans jump-aware");
            wal.alloc.fetch_add(3, Ordering::Relaxed);
            assert_eq!(wal.append_batch(&[rec(12)]).unwrap(), 12);
            wal.sync().unwrap();
            let lsns: Vec<Lsn> = wal.iterate().unwrap().iter().map(|(l, _)| *l).collect();
            assert_eq!(lsns, vec![0, 1, 7, 8, 12]);
        }
        std::fs::remove_dir_all(&path).unwrap();
    }

    #[test]
    fn gapped_log_rotates_and_truncates_like_a_dense_one() {
        let wal = Wal::temp_with("alloc-rot", tiny_cfg()).unwrap();
        // Every batch jumps (stride 3: this shard takes one LSN of each
        // allocation, "other shards" the rest), across several rotations.
        let mut lsns = Vec::new();
        for i in 0..200u64 {
            lsns.push(wal.append(&rec(i)).unwrap());
            wal.alloc.fetch_add(2, Ordering::Relaxed);
        }
        wal.sync().unwrap();
        assert!(wal.segment_stats().rotations >= 1);
        let read: Vec<Lsn> = wal.iterate().unwrap().iter().map(|(l, _)| *l).collect();
        assert_eq!(read, lsns, "sparse LSNs survive rotation boundaries");
        // Truncate below a mid-log LSN: whole dead segments go, the
        // retained suffix still scans with correct sparse LSNs.
        wal.rotate().unwrap();
        let cut = lsns[150];
        wal.truncate_before(cut).unwrap();
        let after: Vec<Lsn> = wal.iterate().unwrap().iter().map(|(l, _)| *l).collect();
        assert!(after.ends_with(&lsns[150..]), "retained suffix intact");
        assert!(after.len() < lsns.len(), "dead prefix segments deleted");
    }

    #[test]
    fn readers_skip_segments_a_racing_truncation_unlinked() {
        // iterate/raw_image snapshot the segment list under the lock but
        // read the files outside it, so a concurrent truncate_before can
        // unlink a snapshotted prefix segment mid-read. The reader must
        // skip it (those records are below the new base) — not return an
        // empty log, a truncated one, or an error.
        let wal = Wal::temp("w8").unwrap();
        for i in 0..4 {
            wal.append(&rec(i)).unwrap();
        }
        wal.rotate().unwrap();
        for i in 4..6 {
            wal.append(&rec(i)).unwrap();
        }
        wal.sync().unwrap();
        // Simulate the race window: the sealed segment's file vanishes
        // while still being tracked in memory.
        let first = segment::list_segments(wal.path()).unwrap().remove(0).1;
        std::fs::remove_file(first).unwrap();
        let records = wal.iterate().unwrap();
        assert_eq!(records.len(), 2, "retained segment still readable");
        assert_eq!(records[0], (4, rec(4)));
        assert_eq!(records[1], (5, rec(5)));
        let img = wal.raw_image().unwrap();
        assert!(!img.is_empty(), "forensic dump survives the race too");
    }
}
