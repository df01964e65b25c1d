//! Segment files: the on-disk unit of the segmented WAL.
//!
//! The log is a directory of fixed-capacity, sequentially numbered segment
//! files named `wal.<seqno>.seg`. The scheme is **manifest-free**: every
//! fact recovery needs is derivable from the file names plus a 20-byte
//! per-segment header (`WSEG` magic, the segment's sequence number, and
//! the LSN of its first record). Within a segment, every record is one
//! frame: `len: u32 | fnv1a(bytes): u64 | bytes`.
//!
//! Why segments: checkpoint truncation becomes *deletion of whole dead
//! segments* — O(segments freed) unlinks instead of an O(live log)
//! rewrite of the retained suffix, so the checkpointer's shred→truncate
//! cycle never stalls commit acknowledgments behind a log-sized copy.
//!
//! This module owns the format-level pieces: naming, the header codec,
//! the streaming [`FrameScanner`] shared by open/recovery/iteration, and
//! the directory helpers ([`list_segments`], [`sync_dir`]). The policy —
//! when to rotate, what to delete — lives in [`crate::writer::Wal`].

use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use instant_common::codec::fnv1a;
use instant_common::{Error, Result};

use crate::record::{LogRecord, Lsn};

/// Magic prefix of every segment file.
pub const SEGMENT_MAGIC: &[u8; 4] = b"WSEG";
/// Bytes of the segment header: magic + seqno + first LSN.
pub const SEGMENT_HEADER_LEN: u64 = 20;
/// Bytes of one frame header: length + checksum.
pub const FRAME_HEADER_LEN: u64 = 12;
/// Default rotation capacity (a segment may exceed it by one frame).
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;
/// Floor on the configured capacity — a segment always fits its header
/// plus at least one reasonable frame.
pub const MIN_SEGMENT_BYTES: u64 = 4096;

/// Tuning knobs for the segmented log.
#[derive(Debug, Clone)]
pub struct SegmentConfig {
    /// Rotate the active segment once it reaches this many bytes
    /// (clamped to [`MIN_SEGMENT_BYTES`]).
    pub segment_bytes: u64,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            segment_bytes: DEFAULT_SEGMENT_BYTES,
        }
    }
}

impl SegmentConfig {
    /// The effective rotation threshold.
    pub fn capacity(&self) -> u64 {
        self.segment_bytes.max(MIN_SEGMENT_BYTES)
    }
}

/// Segment lifecycle counters (snapshot; see `Wal::segment_stats`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SegmentStats {
    /// Segment files currently on disk (sealed + active).
    pub segments: u64,
    /// Rotations since open (capacity-triggered or explicit).
    pub rotations: u64,
    /// Whole segments deleted by truncation since open.
    pub segments_deleted: u64,
    /// Bytes physically destroyed by those deletions since open.
    pub deleted_bytes: u64,
}

/// The fixed header at the start of every segment file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Sequence number; must match the one in the file name.
    pub seqno: u64,
    /// LSN of the segment's first record.
    pub first_lsn: Lsn,
}

impl SegmentHeader {
    pub fn encode(&self) -> [u8; SEGMENT_HEADER_LEN as usize] {
        let mut out = [0u8; SEGMENT_HEADER_LEN as usize];
        out[0..4].copy_from_slice(SEGMENT_MAGIC);
        out[4..12].copy_from_slice(&self.seqno.to_le_bytes());
        out[12..20].copy_from_slice(&self.first_lsn.to_le_bytes());
        out
    }

    /// `None` when the bytes are not a complete, well-formed header.
    #[expect(
        clippy::unwrap_used,
        reason = "fixed-width slices behind the length check"
    )]
    pub fn decode(bytes: &[u8]) -> Option<SegmentHeader> {
        if bytes.len() < SEGMENT_HEADER_LEN as usize || &bytes[0..4] != SEGMENT_MAGIC {
            return None;
        }
        Some(SegmentHeader {
            seqno: u64::from_le_bytes(bytes[4..12].try_into().unwrap()),
            first_lsn: u64::from_le_bytes(bytes[12..20].try_into().unwrap()),
        })
    }
}

/// File name of segment `seqno` (zero-padded so a plain directory listing
/// sorts in log order).
pub fn file_name(seqno: u64) -> String {
    format!("wal.{seqno:012}.seg")
}

/// Parse a `wal.<seqno>.seg` file name; `None` for anything else.
pub fn parse_file_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("wal.")?;
    let digits = rest.strip_suffix(".seg")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Every segment in `dir`, sorted by sequence number.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seqno) = entry.file_name().to_str().and_then(parse_file_name) {
            out.push((seqno, entry.path()));
        }
    }
    out.sort_by_key(|(seqno, _)| *seqno);
    Ok(out)
}

/// fsync the directory itself, making created/unlinked segment names
/// durable. Segment creation syncs the directory *before* the first
/// commit fsync into the new file, so an acknowledged record can never
/// live in a file whose name a crash forgets; deletion syncs after the
/// unlinks so truncation is durable too.
pub fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)?.sync_all().map_err(Error::from)
}

/// Append one frame (`len | fnv1a | body`) to `w`; returns bytes written.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<u64> {
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(&fnv1a(body).to_le_bytes())?;
    w.write_all(body)?;
    Ok(FRAME_HEADER_LEN + body.len() as u64)
}

/// Streaming reader over the frames of one segment file (everything past
/// the [`SEGMENT_HEADER_LEN`]-byte header): validates and yields one
/// record at a time, never holding more than a frame in memory. Shared
/// by the open-time scan and iteration/recovery.
pub struct FrameScanner {
    reader: BufReader<File>,
    file_len: u64,
    pos: u64,
    body: Vec<u8>,
}

impl FrameScanner {
    /// Scan `file`'s frames, starting just past the segment header.
    pub fn new(file: File) -> Result<FrameScanner> {
        let file_len = file.metadata()?.len();
        let mut reader = BufReader::new(file);
        reader.seek(SeekFrom::Start(SEGMENT_HEADER_LEN))?;
        Ok(FrameScanner {
            reader,
            file_len,
            pos: SEGMENT_HEADER_LEN,
            body: Vec::new(),
        })
    }

    /// The next intact record; `None` at EOF, a torn tail, or the first
    /// corrupt frame. `pos()` advances only past frames that validate end
    /// to end, so after the scan it marks the exact end of the usable
    /// log — callers trim everything beyond it (torn *or* corrupt).
    ///
    /// A checksum-valid frame holding a record this version refuses
    /// ([`Error::Unsupported`]) is an error, not an end: it was written
    /// whole, and trimming from it would silently drop the log after it.
    pub fn next_record(&mut self) -> Result<Option<LogRecord>> {
        if self.pos + FRAME_HEADER_LEN > self.file_len {
            return Ok(None); // torn header / EOF
        }
        let mut head = [0u8; FRAME_HEADER_LEN as usize];
        self.reader.read_exact(&mut head)?;
        #[expect(clippy::unwrap_used, reason = "fixed-width frame-header slice")]
        let len = u32::from_le_bytes(head[0..4].try_into().unwrap()) as u64;
        #[expect(clippy::unwrap_used, reason = "fixed-width frame-header slice")]
        let sum = u64::from_le_bytes(head[4..12].try_into().unwrap());
        if self.pos + FRAME_HEADER_LEN + len > self.file_len {
            return Ok(None); // torn tail
        }
        self.body.resize(len as usize, 0);
        self.reader.read_exact(&mut self.body)?;
        if fnv1a(&self.body) != sum {
            return Ok(None); // corrupt frame — stop here, pos untouched
        }
        match LogRecord::decode(&self.body) {
            Ok(rec) => {
                self.pos += FRAME_HEADER_LEN + len;
                Ok(Some(rec))
            }
            Err(e @ Error::Unsupported(_)) => Err(e),
            Err(_) => Ok(None),
        }
    }

    /// Byte offset just past the last fully validated frame.
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// File length observed at open.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }
}

/// Everything a full validating scan of one segment learns.
pub struct ScannedSegment {
    pub header: SegmentHeader,
    /// Fully validated frames in the segment (jump markers included).
    pub records: u64,
    /// Byte offset just past the last valid frame (= end of usable data).
    pub valid_len: u64,
    /// On-disk file length (> `valid_len` means a torn/corrupt tail).
    pub file_len: u64,
    /// LSN the record *after* this segment's valid frames would carry.
    /// Tracked frame by frame rather than derived as `first_lsn +
    /// records`, because a sharded log's [`LogRecord::LsnJump`] markers
    /// make per-shard LSNs discontinuous (a jump re-bases the running
    /// LSN and consumes none itself).
    pub next_lsn: Lsn,
}

/// Scan one segment file end to end. `Ok(None)` means the header itself
/// is missing or malformed (e.g. a crash between creating the file and
/// making its header durable) — the caller treats the file as dead.
pub fn scan_segment(path: &Path) -> Result<Option<ScannedSegment>> {
    let mut file = File::open(path)?;
    let mut head = [0u8; SEGMENT_HEADER_LEN as usize];
    let mut read = 0usize;
    while read < head.len() {
        match file.read(&mut head[read..])? {
            0 => break,
            n => read += n,
        }
    }
    let Some(header) = SegmentHeader::decode(&head[..read]) else {
        return Ok(None);
    };
    let mut scan = FrameScanner::new(file)?;
    let mut records = 0u64;
    let mut next_lsn = header.first_lsn;
    while let Some(rec) = scan.next_record()? {
        records += 1;
        match rec {
            LogRecord::LsnJump { next } => next_lsn = next,
            _ => next_lsn += 1,
        }
    }
    Ok(Some(ScannedSegment {
        header,
        records,
        valid_len: scan.pos(),
        file_len: scan.file_len(),
        next_lsn,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_sort() {
        for seqno in [0u64, 7, 999, 1_000_000_000_000] {
            assert_eq!(parse_file_name(&file_name(seqno)), Some(seqno));
        }
        assert!(file_name(2) < file_name(10), "zero padding keeps ls order");
        assert_eq!(parse_file_name("wal.seg"), None);
        assert_eq!(parse_file_name("wal..seg"), None);
        assert_eq!(parse_file_name("wal.12x.seg"), None);
        assert_eq!(parse_file_name("db.idb"), None);
    }

    #[test]
    fn header_round_trip_rejects_garbage() {
        let h = SegmentHeader {
            seqno: 42,
            first_lsn: 12345,
        };
        assert_eq!(SegmentHeader::decode(&h.encode()), Some(h));
        assert_eq!(SegmentHeader::decode(b"GARBAGE-NOT-A-SEGMENT"), None);
        assert_eq!(SegmentHeader::decode(&h.encode()[..10]), None);
    }

    #[test]
    fn config_clamps_capacity() {
        assert_eq!(
            SegmentConfig { segment_bytes: 1 }.capacity(),
            MIN_SEGMENT_BYTES
        );
        assert_eq!(SegmentConfig::default().capacity(), DEFAULT_SEGMENT_BYTES);
    }
}
