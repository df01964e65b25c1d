//! The sharded log: N per-shard [`Wal`] directories behind one global
//! LSN space.
//!
//! A [`WalSet`] owns a directory of per-shard segment directories
//! (`<path>/shard-<k>/wal.<seqno>.seg`). Commits are routed to a shard by
//! transaction id, so independent committers append — and, with one
//! group-commit pipeline per shard, *fsync* — in parallel instead of
//! funnelling through a single drain thread. What keeps the shards one
//! log is the **global LSN allocator**: a shared atomic that every shard
//! draws batch ranges from *under its own shard lock*
//! ([`Wal::append_batch`]), so each shard's byte stream is LSN-monotone
//! while the union of all shards is a dense global order. Gaps a shard
//! sees (LSNs other shards took) are encoded in its stream as
//! [`LogRecord::LsnJump`] markers.
//!
//! Recovery reads every shard independently (each trims its own torn
//! tail) and **k-way merges by LSN** into one globally ordered stream —
//! [`crate::recovery::replay`] consumes it unchanged. A burst torn on
//! one shard but durable on another is handled for free: the torn
//! shard's unacknowledged suffix simply leaves holes in the merged LSN
//! sequence, and commit analysis never sees a Commit record for a torn
//! transaction.
//!
//! `shard-<k>/` is the only layout. A path holding anything older — a
//! single-file log, its `.legacy` migration marker, or segments directly
//! under the root — is **rejected** at open with a typed error: creating
//! `shard-000/` next to it would silently drop acknowledged records from
//! recovery. So is a log holding a record this version refuses to read
//! (an older image-carrying degradation step): every shard is scanned
//! before any is trimmed, so a refused log is left byte for byte.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use instant_common::{Error, Result, TxId};

use crate::record::{LogRecord, Lsn};
use crate::segment::{self, SegmentConfig, SegmentStats};
use crate::writer::{log_size, scan_dir, temp_path, Wal};

/// Directory name of shard `k` (zero-padded for stable listings).
fn shard_dir_name(k: usize) -> String {
    format!("shard-{k:03}")
}

/// Parse a `shard-<k>` directory name; `None` for anything else.
fn parse_shard_dir(name: &str) -> Option<usize> {
    let digits = name.strip_prefix("shard-")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// A set of per-shard logs sharing one global LSN space.
pub struct WalSet {
    dir: PathBuf,
    shards: Vec<Arc<Wal>>,
    /// The global LSN allocator every shard was opened with. Shards draw
    /// batch ranges from it under their own shard lock: unique LSNs
    /// globally, monotone LSNs per shard byte stream.
    alloc: Arc<AtomicU64>,
    ephemeral: bool,
}

impl std::fmt::Debug for WalSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalSet")
            .field("dir", &self.dir)
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl WalSet {
    /// Open (or create) a sharded log at `path` with `shards` shards and
    /// default segment tuning. The effective shard count is
    /// `max(shards, 1, shards found on disk)` — an existing log never
    /// loses a shard to a config shrink, because acknowledged records on
    /// a stranded shard would silently vanish from recovery.
    pub fn open(path: impl AsRef<Path>, shards: usize) -> Result<WalSet> {
        Self::open_with(path, shards, SegmentConfig::default())
    }

    /// [`WalSet::open`] with explicit segment tuning.
    pub fn open_with(path: impl AsRef<Path>, shards: usize, cfg: SegmentConfig) -> Result<WalSet> {
        let dir = path.as_ref().to_path_buf();
        reject_old_layout(&dir)?;

        let mut max_on_disk = 0usize;
        if dir.is_dir() {
            for entry in std::fs::read_dir(&dir)? {
                let entry = entry?;
                if let Some(k) = entry.file_name().to_str().and_then(parse_shard_dir) {
                    max_on_disk = max_on_disk.max(k + 1);
                }
            }
        }
        let count = shards.max(1).max(max_on_disk);

        // Scan every shard before repairing or creating anything, so a
        // log this version refuses is left exactly as it was found.
        let scans = (0..count)
            .map(|k| scan_dir(&dir.join(shard_dir_name(k))))
            .collect::<Result<Vec<_>>>()?;
        // Each shard raises the shared allocator to its own next LSN, so
        // once all are open it resumes past every shard.
        let alloc = Arc::new(AtomicU64::new(0));
        let mut shard_logs = Vec::with_capacity(count);
        for scan in scans {
            shard_logs.push(Arc::new(scan.open(cfg.clone(), alloc.clone())?));
        }
        Ok(WalSet {
            dir,
            shards: shard_logs,
            alloc,
            ephemeral: false,
        })
    }

    /// Throwaway sharded log in the temp directory, removed on drop.
    pub fn temp_with(tag: &str, shards: usize, cfg: SegmentConfig) -> Result<WalSet> {
        let path = temp_path("walset", tag);
        let _ = std::fs::remove_dir_all(&path);
        let mut set = Self::open_with(path, shards, cfg)?;
        set.ephemeral = true;
        Ok(set)
    }

    /// The set's root directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard `k`'s underlying log (k-targeted test hooks, pipelines).
    pub fn shard(&self, k: usize) -> &Arc<Wal> {
        &self.shards[k]
    }

    /// The shard a transaction's records are routed to. Records without
    /// a transaction (`Checkpoint`) go to shard 0.
    pub fn shard_for(&self, tx: Option<TxId>) -> usize {
        match tx {
            Some(tx) => (tx.0 % self.shards.len() as u64) as usize,
            None => 0,
        }
    }

    /// The shard a record batch is routed to (by its first record's
    /// transaction id — a commit's records all carry one transaction).
    pub fn shard_for_batch(&self, records: &[LogRecord]) -> usize {
        self.shard_for(records.first().and_then(|r| r.tx()))
    }

    /// Append a batch to shard `k` with globally allocated LSNs; returns
    /// the batch's first LSN. Buffered — call [`WalSet::sync`] on the
    /// same shard for durability.
    pub fn append_batch(&self, k: usize, records: &[LogRecord]) -> Result<Lsn> {
        self.shards[k].append_batch(records)
    }

    /// Append one record, routed by its transaction id.
    pub fn append(&self, rec: &LogRecord) -> Result<Lsn> {
        let k = self.shard_for(rec.tx());
        self.append_batch(k, std::slice::from_ref(rec))
    }

    /// Fsync shard `k` — the durability point for batches appended to it.
    pub fn sync(&self, k: usize) -> Result<()> {
        self.shards[k].sync()
    }

    /// Fsync every shard.
    pub fn sync_all(&self) -> Result<()> {
        for shard in &self.shards {
            shard.sync()?;
        }
        Ok(())
    }

    /// Seal every shard's active segment (checkpoint prologue): after
    /// this, everything the checkpoint covers lives in sealed segments
    /// that [`WalSet::truncate_before`] can delete whole. Empty actives
    /// no-op per shard.
    pub fn rotate_all(&self) -> Result<()> {
        for shard in &self.shards {
            shard.rotate()?;
        }
        Ok(())
    }

    /// Physically drop records below `keep_from` on every shard; returns
    /// the total frames dropped.
    pub fn truncate_before(&self, keep_from: Lsn) -> Result<u64> {
        let mut dropped = 0u64;
        for shard in &self.shards {
            dropped += shard.truncate_before(keep_from)?;
        }
        Ok(dropped)
    }

    /// Every intact record across all shards, **k-way merged by LSN**
    /// into one globally ordered stream (each shard's own scan is
    /// already LSN-sorted and torn-tail-trimmed). This is the recovery
    /// read path: [`crate::recovery::replay`] consumes it unchanged.
    pub fn iterate(&self) -> Result<Vec<(Lsn, LogRecord)>> {
        let mut streams = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            streams.push(shard.iterate()?);
        }
        let total = streams.iter().map(Vec::len).sum();
        let mut heads = vec![0usize; streams.len()];
        let mut out = Vec::with_capacity(total);
        loop {
            let mut min: Option<(Lsn, usize)> = None;
            for (s, stream) in streams.iter().enumerate() {
                if let Some((lsn, _)) = stream.get(heads[s]) {
                    if min.map_or(true, |(m, _)| *lsn < m) {
                        min = Some((*lsn, s));
                    }
                }
            }
            let Some((_, s)) = min else { break };
            out.push(streams[s][heads[s]].clone());
            heads[s] += 1;
        }
        Ok(out)
    }

    /// Next LSN the global allocator will hand out.
    pub fn next_lsn(&self) -> Lsn {
        self.alloc.load(Ordering::Relaxed)
    }

    /// Smallest first-LSN over shards that still retain records; the
    /// allocator's next LSN when the whole set is empty (shards whose
    /// log is empty — freshly created or fully truncated — don't drag
    /// the base down to their stale local watermark).
    pub fn base_lsn(&self) -> Lsn {
        let mut base: Option<Lsn> = None;
        for shard in &self.shards {
            let b = shard.base_lsn();
            if b == shard.next_lsn() {
                continue; // shard retains nothing
            }
            base = Some(base.map_or(b, |x: Lsn| x.min(b)));
        }
        base.unwrap_or_else(|| self.next_lsn())
    }

    /// `(appended records, durability fsyncs)` summed over shards.
    pub fn counters(&self) -> (u64, u64) {
        let mut appended = 0u64;
        let mut syncs = 0u64;
        for shard in &self.shards {
            let (a, s) = shard.counters();
            appended += a;
            syncs += s;
        }
        (appended, syncs)
    }

    /// Bytes physically destroyed by truncation, summed over shards.
    pub fn truncated_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.truncated_bytes()).sum()
    }

    /// Segment lifecycle counters, summed over shards.
    pub fn segment_stats(&self) -> SegmentStats {
        let mut out = SegmentStats::default();
        for shard in &self.shards {
            let s = shard.segment_stats();
            out.segments += s.segments;
            out.rotations += s.rotations;
            out.segments_deleted += s.segments_deleted;
            out.deleted_bytes += s.deleted_bytes;
        }
        out
    }

    /// Per-shard segment lifecycle counters (observability).
    pub fn segment_stats_per_shard(&self) -> Vec<SegmentStats> {
        self.shards.iter().map(|s| s.segment_stats()).collect()
    }

    /// Raw on-disk bytes of every shard, concatenated in shard order
    /// (forensic attacker's view).
    pub fn raw_image(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.raw_image()?);
        }
        Ok(out)
    }

    /// Crash simulation: lose the last `n` bytes of **every** shard's
    /// active segment (`n = 0` flushes buffers without fsync on every
    /// shard). For a tear on one specific shard, go through
    /// [`WalSet::shard`].
    pub fn torn_tail(&self, n: u64) -> Result<()> {
        for shard in &self.shards {
            shard.torn_tail(n)?;
        }
        Ok(())
    }

    /// Total on-disk size of the whole set in bytes.
    pub fn log_size(&self) -> Result<u64> {
        let mut total = 0u64;
        for shard in &self.shards {
            total += log_size(shard)?;
        }
        Ok(total)
    }
}

impl Drop for WalSet {
    fn drop(&mut self) {
        if self.ephemeral {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// Refuse a path that holds a log in a layout this crate no longer
/// reads. Runs before anything is created, so a rejected open leaves the
/// path exactly as it found it.
fn reject_old_layout(dir: &Path) -> Result<()> {
    let mut marker = dir.as_os_str().to_os_string();
    marker.push(".legacy");
    let found = if dir.is_file() {
        "a single-file log"
    } else if Path::new(&marker).exists() {
        "a `.legacy` single-file migration marker beside it"
    } else if dir.is_dir() && !segment::list_segments(dir)?.is_empty() {
        "segment files directly under the root (the flat pre-shard layout)"
    } else {
        return Ok(());
    };
    Err(Error::Unsupported(format!(
        "WAL layout at {}: found {found}; only shard-<k>/wal.<seqno>.seg \
         directories are read, and opening a fresh log beside the old one \
         would drop its acknowledged records from recovery",
        dir.display()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Payload;
    use instant_common::{TableId, Timestamp, TupleId};

    fn rec(tx: u64, i: u64) -> LogRecord {
        LogRecord::Insert {
            tx: TxId(tx),
            table: TableId(1),
            tid: TupleId::new(1, i as u16),
            row: Payload::Plain(format!("row-{tx}-{i}").into_bytes()),
            at: Timestamp::micros(i),
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "instantdb-walset-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn shard_names_round_trip() {
        assert_eq!(parse_shard_dir(&shard_dir_name(0)), Some(0));
        assert_eq!(parse_shard_dir(&shard_dir_name(17)), Some(17));
        assert_eq!(parse_shard_dir("shard-"), None);
        assert_eq!(parse_shard_dir("shard-x"), None);
        assert_eq!(parse_shard_dir("wal.000000000000.seg"), None);
    }

    #[test]
    fn routed_appends_merge_back_in_global_lsn_order() {
        let set = WalSet::temp_with("merge", 4, SegmentConfig::default()).unwrap();
        let mut appended = Vec::new();
        for tx in 0..40u64 {
            let batch = vec![rec(tx, 0), rec(tx, 1)];
            let k = set.shard_for_batch(&batch);
            assert_eq!(k, (tx % 4) as usize);
            let first = set.append_batch(k, &batch).unwrap();
            appended.push((first, batch));
        }
        set.sync_all().unwrap();
        let merged = set.iterate().unwrap();
        assert_eq!(merged.len(), 80);
        // Strictly ascending, dense global LSNs.
        for (i, (lsn, _)) in merged.iter().enumerate() {
            assert_eq!(*lsn, i as u64);
        }
        // Every batch is contiguous at its allocated base.
        for (first, batch) in appended {
            for (j, want) in batch.iter().enumerate() {
                assert_eq!(&merged[first as usize + j].1, want);
            }
        }
        assert_eq!(set.next_lsn(), 80);
    }

    #[test]
    fn reopen_resumes_global_lsn_at_max_over_shards() {
        let path = scratch("reopen");
        {
            let set = WalSet::open(&path, 3).unwrap();
            for tx in 0..10u64 {
                let k = set.shard_for(Some(TxId(tx)));
                set.append_batch(k, &[rec(tx, 0)]).unwrap();
            }
            set.sync_all().unwrap();
            assert_eq!(set.next_lsn(), 10);
        }
        {
            let set = WalSet::open(&path, 3).unwrap();
            assert_eq!(set.next_lsn(), 10, "allocator resumes past all shards");
            assert_eq!(set.iterate().unwrap().len(), 10);
            let lsn = set.append_batch(0, &[rec(30, 0)]).unwrap();
            assert_eq!(lsn, 10);
        }
        std::fs::remove_dir_all(&path).unwrap();
    }

    #[test]
    fn config_shrink_never_strands_a_shard() {
        let path = scratch("shrink");
        {
            let set = WalSet::open(&path, 4).unwrap();
            for tx in 0..8u64 {
                let k = set.shard_for(Some(TxId(tx)));
                set.append_batch(k, &[rec(tx, 0)]).unwrap();
            }
            set.sync_all().unwrap();
        }
        {
            let set = WalSet::open(&path, 1).unwrap();
            assert_eq!(set.shard_count(), 4, "on-disk shards win over config");
            assert_eq!(set.iterate().unwrap().len(), 8, "no shard stranded");
        }
        std::fs::remove_dir_all(&path).unwrap();
    }

    /// The open fails with the typed error naming the layout; each test
    /// then checks nothing was created under or beside `path`.
    fn assert_rejected(path: &Path, needle: &str) {
        let err = WalSet::open(path, 2).unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)), "{err:?}");
        assert!(err.to_string().contains(needle), "{err}");
    }

    #[test]
    fn single_file_log_is_rejected_not_shadowed() {
        let path = scratch("old-file");
        std::fs::write(&path, b"pre-segment log bytes").unwrap();
        assert_rejected(&path, "single-file log");
        assert!(path.is_file(), "the old log is still there");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn legacy_migration_marker_is_rejected_and_no_directory_appears() {
        let path = scratch("old-marker");
        let mut marker = path.as_os_str().to_os_string();
        marker.push(".legacy");
        let marker = PathBuf::from(marker);
        std::fs::write(&marker, b"half-migrated log bytes").unwrap();
        assert_rejected(&path, ".legacy");
        assert!(!path.exists(), "no log directory created beside the marker");
        std::fs::remove_file(&marker).unwrap();
    }

    #[test]
    fn flat_segment_directory_is_rejected_with_no_shard_beside_it() {
        let path = scratch("old-flat");
        {
            // A lone `Wal` at the root writes exactly the flat layout.
            let wal = Wal::open(&path).unwrap();
            wal.append(&rec(0, 0)).unwrap();
            wal.sync().unwrap();
        }
        assert_rejected(&path, "flat pre-shard layout");
        assert!(!path.join(shard_dir_name(0)).exists());
        std::fs::remove_dir_all(&path).unwrap();
    }

    /// Every file under `dir` with its bytes.
    fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let p = entry.unwrap().path();
            match p.is_dir() {
                true => out.extend(snapshot(&p)),
                false => out.push((p.clone(), std::fs::read(&p).unwrap())),
            }
        }
        out.sort();
        out
    }

    #[test]
    fn image_carrying_degrade_record_is_rejected_before_any_shard_is_trimmed() {
        use crate::segment::{write_frame, SegmentHeader};
        use instant_common::codec::raw;
        let path = scratch("old-degrade");
        {
            // Shard 0 ends in a torn frame that opening would trim.
            let set = WalSet::open(&path, 2).unwrap();
            set.append_batch(0, &[rec(0, 0), rec(0, 1)]).unwrap();
            set.shard(0).torn_tail(3).unwrap();
        }
        // Shard 1: a degradation step in the older layout (tag 6: tx,
        // table, tid, column, level + 1, at, plain row image), then a
        // committed insert after it.
        let mut old_step = vec![6];
        raw::put_u64(&mut old_step, 1);
        raw::put_u32(&mut old_step, 1);
        raw::put_u64(&mut old_step, TupleId::new(1, 0).pack());
        raw::put_u16(&mut old_step, 1);
        old_step.push(2);
        raw::put_u64(&mut old_step, 7);
        old_step.push(0);
        raw::put_bytes(&mut old_step, b"Paris");
        let mut seg = SegmentHeader {
            seqno: 0,
            first_lsn: 2,
        }
        .encode()
        .to_vec();
        write_frame(&mut seg, &old_step).unwrap();
        for r in [
            LogRecord::Begin {
                tx: TxId(3),
                at: Timestamp::ZERO,
            },
            rec(3, 0),
            LogRecord::Commit {
                tx: TxId(3),
                at: Timestamp::ZERO,
            },
        ] {
            write_frame(&mut seg, &r.encode()).unwrap();
        }
        std::fs::write(
            path.join(shard_dir_name(1)).join(segment::file_name(0)),
            &seg,
        )
        .unwrap();

        let before = snapshot(&path);
        let err = WalSet::open(&path, 2).unwrap_err();
        assert!(
            matches!(&err, Error::Unsupported(m) if m.contains("tag 6")),
            "{err:?}"
        );
        assert!(
            before == snapshot(&path),
            "a refused log is left byte for byte"
        );
        std::fs::remove_dir_all(&path).unwrap();
    }

    #[test]
    fn torn_shard_loses_only_its_own_tail_in_the_merge() {
        let path = scratch("torn");
        {
            let set = WalSet::open(&path, 2).unwrap();
            // Shard 0: txs 0,2; shard 1: txs 1,3.
            for tx in 0..4u64 {
                let k = set.shard_for(Some(TxId(tx)));
                set.append_batch(k, &[rec(tx, 0)]).unwrap();
            }
            // Shard 1 is durable; shard 0's last append tears.
            set.shard(1).sync().unwrap();
            set.shard(0).torn_tail(3).unwrap();
        }
        let set = WalSet::open(&path, 2).unwrap();
        let merged = set.iterate().unwrap();
        let lsns: Vec<Lsn> = merged.iter().map(|(l, _)| *l).collect();
        // Shard 0 lost tx 2 (LSN 2); shard 1's records survive around
        // the hole.
        assert_eq!(lsns, vec![0, 1, 3], "hole where the torn record was");
        drop(set);
        std::fs::remove_dir_all(&path).unwrap();
    }

    #[test]
    fn truncate_and_base_lsn_span_shards() {
        let set = WalSet::temp_with("trunc", 2, SegmentConfig::default()).unwrap();
        for tx in 0..10u64 {
            let k = set.shard_for(Some(TxId(tx)));
            set.append_batch(k, &[rec(tx, 0)]).unwrap();
        }
        set.sync_all().unwrap();
        assert_eq!(set.base_lsn(), 0);
        set.rotate_all().unwrap();
        // A checkpoint-style record lands on shard 0 after the rotation.
        let ckpt = set
            .append(&LogRecord::Checkpoint {
                at: Timestamp::ZERO,
                tables: vec![],
            })
            .unwrap();
        set.sync(0).unwrap();
        set.truncate_before(ckpt).unwrap();
        let merged = set.iterate().unwrap();
        assert_eq!(merged.len(), 1, "only the checkpoint record survives");
        assert_eq!(merged[0].0, ckpt);
        assert_eq!(set.base_lsn(), ckpt, "empty shards don't drag the base");
        assert!(set.segment_stats().segments_deleted >= 2);
    }

    #[test]
    fn truncate_drops_a_dead_segment_whose_successor_opened_with_a_jump() {
        let set = WalSet::temp_with("trunc-jump", 2, SegmentConfig::default()).unwrap();
        for tx in 0..10u64 {
            let k = set.shard_for(Some(TxId(tx)));
            set.append_batch(k, &[rec(tx, 0)]).unwrap();
        }
        set.sync_all().unwrap();
        set.rotate_all().unwrap();
        let ckpt = set
            .append(&LogRecord::Checkpoint {
                at: Timestamp::ZERO,
                tables: vec![],
            })
            .unwrap();
        // Shard 1 commits before the truncation runs: its fresh segment
        // opens with a jump past the checkpoint.
        let after = set.append_batch(1, &[rec(11, 0)]).unwrap();
        assert!(after > ckpt);
        set.sync_all().unwrap();
        set.truncate_before(ckpt).unwrap();
        assert_eq!(
            set.segment_stats().segments_deleted,
            2,
            "both shards' pre-checkpoint segments are deleted"
        );
        let lsns: Vec<Lsn> = set.iterate().unwrap().iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, vec![ckpt, after], "no record below the cut survives");
    }
}
