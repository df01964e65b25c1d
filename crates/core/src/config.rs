//! Engine configuration: [`DbConfig`] and its validating
//! [`DbConfigBuilder`].
//!
//! Three ways to obtain a config, in decreasing order of ceremony:
//!
//! * [`DbConfig::builder`] — the front door for programs. Fields are set
//!   through named methods and **validated at build time** (zero WAL
//!   shards, zero segment bytes and their friends are rejected before a
//!   `Db` ever opens half-configured).
//! * [`DbConfig::default`] — production defaults with the three
//!   `INSTANTDB_TEST_*` knobs applied (debug builds only), so every test
//!   constructed from defaults participates in the CI matrix. This is the
//!   one place in the workspace that reads those variables.
//! * [`DbConfig::base`] — the pure production defaults: no environment
//!   read, deterministic in every build.

use std::path::PathBuf;

use instant_common::{Duration, Error, Result};
use instant_storage::SecurePolicy;
use instant_wal::group::GroupCommitConfig;

/// How row images are logged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalMode {
    /// No logging (volatile store; fastest, used as a bench baseline).
    Off,
    /// Classical plaintext WAL — the forensic-leaky baseline (`tests/forensic.rs`).
    Plain,
    /// Degradation-aware WAL: images sealed under time-windowed keys.
    Sealed,
}

/// Engine configuration.
///
/// Prefer [`DbConfig::builder`] over struct literals: the builder
/// validates cross-field constraints at build time. The fields stay
/// public so tests can pin exactly one knob with
/// `DbConfig { field, ..DbConfig::default() }`.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Buffer pool frames. The pool's shard count follows from it: the
    /// largest power of two ≤ min(16, frames).
    pub buffer_frames: usize,
    /// Heap deletion policy (secure overwrite vs classical naive).
    pub secure: SecurePolicy,
    pub wal_mode: WalMode,
    /// WAL shard count: independent per-shard segment directories, each
    /// with its own group-commit drain pipeline, behind one global LSN
    /// allocator (see `instant_wal::WalSet`). `0` = automatic (derived
    /// from available parallelism, clamped to [1, 4]). Reopening a
    /// directory that already holds more shards than requested uses the
    /// on-disk count.
    pub wal_shards: usize,
    /// Key-shredding window length (Sealed mode).
    pub key_window: Duration,
    /// Max transitions per degradation batch (0 = unbounded).
    pub batch_max: usize,
    /// Group-commit pipeline tuning: every commit rides a per-shard
    /// log-writer thread that batches concurrent committers behind one
    /// fsync per drain. (No logging at all is
    /// [`WalMode::Off`], not a pipeline setting.)
    pub group_commit: GroupCommitConfig,
    /// Background checkpoint interval for
    /// [`Checkpointer::spawn_from_config`](crate::daemon::Checkpointer);
    /// `None` leaves checkpointing caller-driven.
    pub checkpoint_every: Option<std::time::Duration>,
    /// WAL segment capacity in bytes (clamped to the segment module's
    /// minimum). Smaller segments mean finer-grained truncation; the
    /// checkpointer frees whole dead segments, never rewriting retained
    /// data.
    pub wal_segment_bytes: u64,
    /// Data directory prefix; `None` = ephemeral temp files.
    pub path: Option<PathBuf>,
    /// Slow-query threshold: statements slower than this land in the
    /// observability plane's bounded slow-query ring (statement kind,
    /// declared purpose, elapsed — never the SQL text). `None` disables
    /// the ring; a served engine runs with the server's
    /// `DEFAULT_SLOW_QUERY` when this is unset.
    pub slow_query: Option<std::time::Duration>,
}

impl DbConfig {
    /// Pure production defaults — no environment read, deterministic in
    /// every build. [`DbConfig::default`] layers the test overlay on top.
    pub fn base() -> DbConfig {
        DbConfig {
            buffer_frames: 1024,
            secure: SecurePolicy::Overwrite,
            wal_mode: WalMode::Sealed,
            wal_shards: 0,
            key_window: Duration::hours(1),
            batch_max: 1024,
            group_commit: GroupCommitConfig::default(),
            checkpoint_every: None,
            wal_segment_bytes: instant_wal::segment::DEFAULT_SEGMENT_BYTES,
            path: None,
            slow_query: None,
        }
    }

    /// Start a validating builder from [`DbConfig::default`] (production
    /// defaults + test overlay, like every other construction path).
    pub fn builder() -> DbConfigBuilder {
        DbConfigBuilder {
            cfg: DbConfig::default(),
            wal_shards_explicit: false,
        }
    }

    /// The WAL shard count [`Db::open`](crate::db::Db::open) will
    /// actually use: an explicit `wal_shards`, or (when 0) the machine's
    /// available parallelism clamped to `[1, 4]`. The on-disk layout can
    /// still widen this on reopen (`WalSet` never drops existing shard
    /// directories).
    pub fn effective_wal_shards(&self) -> usize {
        if self.wal_shards != 0 {
            return self.wal_shards;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 4)
    }
}

impl Default for DbConfig {
    /// [`DbConfig::base`] with the `INSTANTDB_TEST_*` environment knobs
    /// applied — the test-harness overlay behind CI's config matrix,
    /// which runs the whole suite under non-default configurations so
    /// those paths stay exercised:
    ///
    /// * `INSTANTDB_TEST_WAL_SHARDS=<n>` — pin the WAL shard count;
    /// * `INSTANTDB_TEST_CHECKPOINT_EVERY_MS=<n>` — arm background
    ///   checkpointing wherever a config is spawned from defaults;
    /// * `INSTANTDB_TEST_WAL_SEGMENT_BYTES=<n>` — WAL segment capacity.
    ///
    /// The knobs are honored **only in debug builds**
    /// (`debug_assertions`): a release binary's defaults stay pure and
    /// deterministic, so a stray environment variable can never silently
    /// weaken production durability configuration. Tests that *assert* a
    /// specific configuration set the field explicitly instead of
    /// relying on this default.
    fn default() -> Self {
        fn knob<T: std::str::FromStr>(name: &str) -> Option<T> {
            std::env::var(name).ok()?.trim().parse().ok()
        }
        let mut cfg = DbConfig::base();
        if cfg!(debug_assertions) {
            if let Some(n) = knob("INSTANTDB_TEST_WAL_SHARDS") {
                cfg.wal_shards = n;
            }
            cfg.checkpoint_every =
                knob("INSTANTDB_TEST_CHECKPOINT_EVERY_MS").map(std::time::Duration::from_millis);
            if let Some(n) = knob("INSTANTDB_TEST_WAL_SEGMENT_BYTES") {
                cfg.wal_segment_bytes = n;
            }
        }
        cfg
    }
}

/// Validating builder for [`DbConfig`]. Obtained from
/// [`DbConfig::builder`]; finished with [`DbConfigBuilder::build`],
/// which rejects configurations the engine would misbehave under
/// (zero WAL shards, zero-byte segments, a zero-length key window)
/// instead of letting them reach `Db::open`.
#[derive(Debug, Clone)]
pub struct DbConfigBuilder {
    cfg: DbConfig,
    /// Whether [`wal_shards`](DbConfigBuilder::wal_shards) was called:
    /// an *explicit* `0` is a caller bug and rejected at build time,
    /// while the inherited default `0` still means auto-selection.
    wal_shards_explicit: bool,
}

impl DbConfigBuilder {
    /// WAL shard count. `n == 0` is rejected at [`build`](DbConfigBuilder::build)
    /// (auto-selection is the *default*, expressed by not calling this).
    pub fn wal_shards(mut self, n: usize) -> Self {
        self.cfg.wal_shards = n;
        self.wal_shards_explicit = true;
        self
    }

    /// Group-commit pipeline tuning (batch cap, linger).
    pub fn group_commit(mut self, cfg: GroupCommitConfig) -> Self {
        self.cfg.group_commit = cfg;
        self
    }

    /// Slow-query ring threshold.
    pub fn slow_query(mut self, threshold: std::time::Duration) -> Self {
        self.cfg.slow_query = Some(threshold);
        self
    }

    pub fn wal_mode(mut self, mode: WalMode) -> Self {
        self.cfg.wal_mode = mode;
        self
    }

    /// WAL segment capacity in bytes. `0` is rejected at [`build`](DbConfigBuilder::build).
    pub fn wal_segment_bytes(mut self, bytes: u64) -> Self {
        self.cfg.wal_segment_bytes = bytes;
        self
    }

    pub fn checkpoint_every(mut self, every: std::time::Duration) -> Self {
        self.cfg.checkpoint_every = Some(every);
        self
    }

    pub fn buffer_frames(mut self, frames: usize) -> Self {
        self.cfg.buffer_frames = frames;
        self
    }

    pub fn secure(mut self, policy: SecurePolicy) -> Self {
        self.cfg.secure = policy;
        self
    }

    pub fn key_window(mut self, window: Duration) -> Self {
        self.cfg.key_window = window;
        self
    }

    pub fn batch_max(mut self, max: usize) -> Self {
        self.cfg.batch_max = max;
        self
    }

    pub fn path(mut self, p: impl Into<PathBuf>) -> Self {
        self.cfg.path = Some(p.into());
        self
    }

    /// Validate and produce the config: an explicit zero WAL shard
    /// count, zero segment bytes and (in [`WalMode::Sealed`]) a zero key
    /// window are rejected with [`Error::Config`].
    pub fn build(self) -> Result<DbConfig> {
        let cfg = self.cfg;
        if self.wal_shards_explicit && cfg.wal_shards == 0 {
            return Err(Error::Config(
                "wal_shards(0) is invalid: omit the call for auto-selection, \
                 or pass 1 for a single shard"
                    .into(),
            ));
        }
        if cfg.wal_segment_bytes == 0 {
            return Err(Error::Config(
                "wal_segment_bytes(0) is invalid: segments need capacity for \
                 at least one record (the segment layer clamps small values \
                 to its minimum, but zero is always a bug)"
                    .into(),
            ));
        }
        if cfg.key_window.as_micros() == 0 && cfg.wal_mode == WalMode::Sealed {
            return Err(Error::Config(
                "key_window must be non-zero in Sealed mode: a zero-length \
                 shredding window would retire every sealing key immediately"
                    .into(),
            ));
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_applies_fields_and_validates() {
        let cfg = DbConfig::builder()
            .wal_shards(4)
            .group_commit(GroupCommitConfig {
                max_batch: 7,
                ..GroupCommitConfig::default()
            })
            .slow_query(std::time::Duration::from_millis(5))
            .wal_segment_bytes(1 << 16)
            .build()
            .unwrap();
        assert_eq!(cfg.wal_shards, 4);
        assert_eq!(cfg.effective_wal_shards(), 4);
        assert_eq!(cfg.group_commit.max_batch, 7);
        assert_eq!(cfg.slow_query, Some(std::time::Duration::from_millis(5)));
        assert_eq!(cfg.wal_segment_bytes, 1 << 16);
    }

    #[test]
    fn builder_without_explicit_shards_keeps_auto_selection() {
        let cfg = DbConfig::builder().build().unwrap();
        assert_eq!(cfg.wal_shards, DbConfig::default().wal_shards);
        assert!(cfg.effective_wal_shards() >= 1);
    }

    #[test]
    fn builder_rejects_zero_shards_and_zero_segment_bytes() {
        let err = DbConfig::builder().wal_shards(0).build().unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err:?}");
        let err = DbConfig::builder()
            .wal_segment_bytes(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err:?}");
    }

    #[test]
    fn auto_shards_resolve_to_a_positive_bounded_count() {
        let cfg = DbConfig::base();
        assert_eq!(cfg.wal_shards, 0, "base leaves selection automatic");
        let n = cfg.effective_wal_shards();
        assert!((1..=4).contains(&n), "auto clamps to [1,4], got {n}");
    }

    #[test]
    fn base_reads_no_environment() {
        // `base()` must be deterministic even in debug builds where the
        // overlay knobs are live.
        let cfg = DbConfig::base();
        assert_eq!(cfg.checkpoint_every, None);
        assert_eq!(
            cfg.wal_segment_bytes,
            instant_wal::segment::DEFAULT_SEGMENT_BYTES
        );
    }
}
