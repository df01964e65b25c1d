//! Background daemons: the degradation pump and the checkpointer.
//!
//! The paper's timely-degradation guarantee assumes degradation runs as
//! *system transactions alongside* foreground activity, not only when the
//! application remembers to call [`Db::pump_degradation`]; likewise the
//! log only stays bounded (and shredded windows only get physically
//! destroyed) if checkpoints fire on their own. Both daemons share one
//! scaffolding, `DaemonCore`: a thread that runs a step, sleeps for as
//! long as the step asks, accumulates a report, and joins cleanly on
//! stop — with a final step that starts after the stop signal, so
//! stop-after-advance tests never race the sleep.
//!
//! * [`DegradationDaemon`] fires due degradation batches on the
//!   schedule: after each batch it sleeps until the scheduler's next due
//!   time, but no less than [`PUMP_FLOOR`] and no more than its `tick`.
//!   Lock conflicts with readers/writers are absorbed inside
//!   [`Db::pump_one_batch`] (the victim transition is re-queued).
//! * [`Checkpointer`] runs on a fixed wall-clock interval. Each
//!   checkpoint flushes dirty pages through the sharded pool, rotates the
//!   WAL so its `Checkpoint` record (routed through the group-commit
//!   pipeline) starts a fresh segment, shreds key windows
//!   older than the checkpoint, and then physically truncates the dead
//!   log prefix by **deleting whole segments** — the rotate → checkpoint
//!   → shred → delete lifecycle that turns "unreadable" into "destroyed".
//!   Each cycle costs O(segments freed) unlinks, never a rewrite of
//!   retained log data, so it is cheap enough to run constantly. Idle
//!   ticks (no WAL growth since the last checkpoint) are skipped.
//!
//! Any non-retryable error stops the owning daemon and is handed back
//! from its `stop` method. The pump first hands the failed batch's
//! unfinished transitions back to the scheduler, so the next pump — a
//! restarted daemon or a direct call — still runs them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration as StdDuration;

use instant_common::Result;
use instant_wal::Lsn;

use crate::db::{Db, PumpReport};

/// The least the pump sleeps after a batch, however soon the next
/// transition falls due. Unless batches come back full (a backlog, which
/// drains back to back), the pump commits at most 1/`PUMP_FLOOR` batches
/// a second: each is one more fsync beside the foreground's and one more
/// Begin/Commit pair in the log a restart replays. On `live-degrade`,
/// 1 ms ran later ingests and slower restarts than 2 ms, and 5 ms put
/// the lag p50 near 5 ms.
pub const PUMP_FLOOR: StdDuration = StdDuration::from_millis(2);

/// Shared daemon scaffolding: spawn a thread over mutable state `R` that
/// runs `step` and then sleeps for the duration the step returns, and
/// return the final state on stop. The step always runs once more after
/// the stop signal is seen (drain). The degradation pump and the
/// checkpointer both run on it.
pub(crate) struct DaemonCore<R> {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Result<R>>>,
}

impl<R: Send + 'static> DaemonCore<R> {
    /// Fails only if the OS cannot spawn the thread (resource exhaustion);
    /// the caller surfaces that as a typed error instead of panicking.
    pub(crate) fn spawn<F>(name: &str, init: R, mut step: F) -> Result<DaemonCore<R>>
    where
        F: FnMut(&mut R) -> Result<StdDuration> + Send + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle =
            std::thread::Builder::new()
                .name(name.into())
                .spawn(move || -> Result<R> {
                    let mut state = init;
                    loop {
                        // Read before the step, so the last step starts
                        // after the signal and sees everything done
                        // before `stop` was called.
                        let last = flag.load(Ordering::Acquire);
                        let sleep = step(&mut state)?;
                        if last {
                            return Ok(state);
                        }
                        std::thread::park_timeout(sleep);
                    }
                })?;
        Ok(DaemonCore {
            stop,
            handle: Some(handle),
        })
    }

    /// Signal the thread, wait for a final drain step, and return the
    /// accumulated state. A panic on the daemon thread is re-raised here.
    pub(crate) fn stop(mut self) -> Result<R> {
        #[expect(
            clippy::expect_used,
            reason = "handle is Some until stop() consumes self"
        )]
        let joined = self
            .signal_and_join()
            .expect("stop called once on a live daemon");
        match joined {
            Ok(r) => r,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }

    /// Is the daemon thread still alive? `false` once a step error (or
    /// panic) has ended the thread, even before `stop` collects it.
    pub(crate) fn is_running(&self) -> bool {
        self.handle.as_ref().is_some_and(|h| !h.is_finished())
    }
}

impl<R> DaemonCore<R> {
    fn signal_and_join(&mut self) -> Option<std::thread::Result<Result<R>>> {
        let handle = self.handle.take()?;
        self.stop.store(true, Ordering::Release);
        handle.thread().unpark();
        Some(handle.join())
    }
}

impl<R> Drop for DaemonCore<R> {
    fn drop(&mut self) {
        // Unlike stop(), a drop must swallow a daemon-thread panic: this
        // drop may itself run during an unwind, and resuming a second
        // panic there would abort the process and mask both errors.
        let _ = self.signal_and_join();
    }
}

/// Handle to the background degradation pump. Stop it explicitly with
/// [`stop`](DegradationDaemon::stop); dropping without stopping detaches
/// nothing — the drop impl signals and joins too, discarding the report.
pub struct DegradationDaemon {
    core: DaemonCore<PumpReport>,
}

impl std::fmt::Debug for DegradationDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DegradationDaemon")
            .field("running", &self.core.is_running())
            .finish()
    }
}

impl DegradationDaemon {
    /// Spawn a pump thread over `db`. Each wake runs one batch of due
    /// transitions, and more at once while batches come back full. Then
    /// the pump sleeps until the next transition is due, but at least
    /// [`PUMP_FLOOR`] and at most `tick` — the longest sleep, which also
    /// bounds how late a transition armed during a sleep can run. The due
    /// times come from the db's own clock, so a mock clock still controls
    /// which transitions are due, and `tick` keeps a far mock deadline
    /// from being slept on as wall time. Fails only if the OS cannot
    /// spawn the thread.
    pub fn spawn(db: Arc<Db>, tick: StdDuration) -> Result<DegradationDaemon> {
        let core = DaemonCore::spawn("degradation-daemon", PumpReport::default(), move |total| {
            loop {
                let (r, full) = db.pump_batch()?;
                *total += r;
                if !full || r.fired == 0 {
                    break;
                }
            }
            Ok(match db.scheduler().next_due() {
                None => tick,
                Some(due) => StdDuration::from_micros(due.since(db.now()).as_micros())
                    .max(PUMP_FLOOR)
                    .min(tick),
            })
        })?;
        Ok(DegradationDaemon { core })
    }

    /// Signal the thread, wait for a final drain pump, and return the
    /// cumulative report. A panic on the pump thread is re-raised here.
    pub fn stop(self) -> Result<PumpReport> {
        self.core.stop()
    }
}

/// What a [`Checkpointer`] did over its lifetime.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Checkpoints executed (flush → log → truncate → shred).
    pub checkpoints: usize,
    /// Ticks skipped because the WAL had not grown since the last one.
    pub skipped_idle: usize,
}

/// Background checkpoint daemon — the sibling of [`DegradationDaemon`].
///
/// Every tick with WAL growth it runs [`Db::checkpoint`]: flushes dirty
/// pages, rotates the WAL segment, commits a `Checkpoint` record (which
/// carries the table directory) through the group-commit pipeline, shreds
/// key windows older than the checkpoint and deletes the wholly-dead log
/// segments.
/// See the module docs for why truncation must chase shredding.
pub struct Checkpointer {
    core: DaemonCore<CheckpointReport>,
}

impl std::fmt::Debug for Checkpointer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpointer")
            .field("running", &self.core.is_running())
            .finish()
    }
}

impl Checkpointer {
    /// Spawn a checkpoint thread over `db`, checkpointing every `every` of
    /// wall-clock time whenever the database has mutated since the last
    /// one (WAL head when logging is on; engine mutation counters when it
    /// is off, so a `WalMode::Off` store is not re-flushed every tick).
    /// Fails only if the OS cannot spawn the thread.
    pub fn spawn(db: Arc<Db>, every: StdDuration) -> Result<Checkpointer> {
        fn fingerprint(db: &Db) -> Lsn {
            match db.wal() {
                Some(w) => w.next_lsn(),
                None => {
                    let s = db.stats();
                    let o = Ordering::Relaxed;
                    s.inserts.load(o)
                        + s.user_deletes.load(o)
                        + s.degrade_steps.load(o)
                        + s.expunges.load(o)
                }
            }
        }
        // Sentinel start: the first tick always checkpoints, bounding any
        // log the database inherited from a previous run.
        let mut last_seen: Option<Lsn> = None;
        let core = DaemonCore::spawn("checkpointer", CheckpointReport::default(), move |report| {
            // Sample *before* checkpointing and credit only the
            // checkpoint's own record: a commit racing in after the
            // gate reopens must leave the fingerprints unequal so the
            // next tick checkpoints (and eventually truncates) it too,
            // even if the database then goes quiet.
            let pre = fingerprint(&db);
            if last_seen == Some(pre) {
                report.skipped_idle += 1;
                return Ok(every);
            }
            db.checkpoint()?;
            let own_record = u64::from(db.wal().is_some());
            last_seen = Some(pre + own_record);
            report.checkpoints += 1;
            Ok(every)
        })?;
        Ok(Checkpointer { core })
    }

    /// Spawn from [`DbConfig::checkpoint_every`](crate::db::DbConfig);
    /// `Ok(None)` when the config leaves background checkpointing off.
    pub fn spawn_from_config(db: &Arc<Db>) -> Result<Option<Checkpointer>> {
        db.config()
            .checkpoint_every
            .map(|every| Checkpointer::spawn(db.clone(), every))
            .transpose()
    }

    /// Signal the thread, wait for a final tick, and return the report.
    pub fn stop(self) -> Result<CheckpointReport> {
        self.core.stop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DbConfig;
    use crate::schema::{Column, TableSchema};
    use instant_common::{DataType, Duration, MockClock, SystemClock, Value};
    use instant_lcp::gtree::location_tree_fig1;
    use instant_lcp::hierarchy::Hierarchy;
    use instant_lcp::policy::parse_lcp;
    use instant_lcp::AttributeLcp;

    fn db_with_person(clock: &MockClock) -> Arc<Db> {
        let db = Arc::new(Db::open(DbConfig::default(), clock.shared()).unwrap());
        let gt: Arc<dyn Hierarchy> = Arc::new(location_tree_fig1());
        db.create_table(
            TableSchema::new(
                "person",
                vec![
                    Column::stable("id", DataType::Int),
                    Column::degradable(
                        "location",
                        DataType::Str,
                        gt,
                        AttributeLcp::fig2_location(),
                    )
                    .unwrap(),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn daemon_pumps_due_transitions_in_background() {
        let clock = MockClock::new();
        let db = db_with_person(&clock);
        for i in 0..20 {
            db.insert(
                "person",
                &[Value::Int(i), Value::Str("4 rue Jussieu".into())],
            )
            .unwrap();
        }
        let daemon =
            DegradationDaemon::spawn(db.clone(), std::time::Duration::from_millis(1)).unwrap();
        clock.advance(Duration::hours(2));
        // The background thread must drain the queue without any foreground
        // pump call.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while db.scheduler().fired() < 20 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let report = daemon.stop().unwrap();
        assert_eq!(report.fired, 20, "all first transitions fired: {report:?}");
        let table = db.catalog().get("person").unwrap();
        for (_, t) in table.scan().unwrap() {
            assert_eq!(t.row[1], Value::Str("Paris".into()));
        }
    }

    #[test]
    fn daemon_fires_transitions_near_their_due_time_not_on_its_tick() {
        // No log: an fsync stall must not arm a transition late.
        let cfg = DbConfig {
            wal_mode: crate::db::WalMode::Off,
            ..DbConfig::default()
        };
        let db = Arc::new(Db::open(cfg, Arc::new(SystemClock)).unwrap());
        let gt: Arc<dyn Hierarchy> = Arc::new(location_tree_fig1());
        let lcp = parse_lcp("d0:300ms -> d1:1h", Some(gt.as_ref())).unwrap();
        db.create_table(
            TableSchema::new(
                "person",
                vec![
                    Column::stable("id", DataType::Int),
                    Column::degradable("location", DataType::Str, gt, lcp).unwrap(),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        let tick = std::time::Duration::from_millis(200);
        let daemon = DegradationDaemon::spawn(db.clone(), tick).unwrap();
        let rows = 20;
        for i in 0..rows {
            db.insert(
                "person",
                &[Value::Int(i), Value::Str("4 rue Jussieu".into())],
            )
            .unwrap();
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while db.scheduler().fired() < rows as u64 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        daemon.stop().unwrap();
        let late = db.scheduler().lateness();
        assert_eq!(late.count(), rows as u64, "every row stepped once");
        // A fixed 200 ms tick makes the mean about half of it.
        assert!(late.mean() < Duration::millis(50), "mean {}", late.mean());
        assert!(late.max() < Duration::millis(200), "max {}", late.max());
    }

    #[test]
    fn daemon_that_died_on_a_step_error_reports_not_running() {
        let core = DaemonCore::spawn("failing-daemon", (), |_| {
            Err(instant_common::Error::Corrupt("step failed".into()))
        })
        .unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
        while core.is_running() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(
            !core.is_running(),
            "a daemon whose thread exited is not running"
        );
        match core.stop() {
            Err(instant_common::Error::Corrupt(msg)) => assert_eq!(msg, "step failed"),
            other => panic!("stop must hand back the step error, got {other:?}"),
        }
    }

    #[test]
    fn daemon_stop_is_idempotent_via_drop() {
        let clock = MockClock::new();
        let db = db_with_person(&clock);
        let daemon = DegradationDaemon::spawn(db, std::time::Duration::from_millis(1)).unwrap();
        drop(daemon); // must not hang or double-join
    }

    #[test]
    fn checkpointer_truncates_log_in_background() {
        let clock = MockClock::new();
        let db = db_with_person(&clock);
        for i in 0..10 {
            db.insert(
                "person",
                &[Value::Int(i), Value::Str("4 rue Jussieu".into())],
            )
            .unwrap();
        }
        let ckpt = Checkpointer::spawn(db.clone(), std::time::Duration::from_millis(1)).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while db.wal().unwrap().base_lsn() == 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let report = ckpt.stop().unwrap();
        assert!(report.checkpoints >= 1, "{report:?}");
        let wal = db.wal().unwrap();
        assert!(wal.base_lsn() > 0, "dead log prefix physically truncated");
        assert!(wal.truncated_bytes() > 0);
        // Everything still physically present replays from the checkpoint.
        let records = wal.iterate().unwrap();
        assert!(records
            .iter()
            .any(|(_, r)| matches!(r, instant_wal::LogRecord::Checkpoint { .. })));
    }

    #[test]
    fn checkpointer_skips_idle_ticks() {
        let clock = MockClock::new();
        let db = db_with_person(&clock);
        db.insert(
            "person",
            &[Value::Int(1), Value::Str("4 rue Jussieu".into())],
        )
        .unwrap();
        let ckpt = Checkpointer::spawn(db.clone(), std::time::Duration::from_millis(1)).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        // Wait for the first checkpoint plus a few idle ticks after it.
        while db
            .stats()
            .checkpoints
            .load(std::sync::atomic::Ordering::Relaxed)
            == 0
            && std::time::Instant::now() < deadline
        {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        let report = ckpt.stop().unwrap();
        assert_eq!(
            report.checkpoints, 1,
            "no WAL growth → exactly one checkpoint: {report:?}"
        );
        assert!(report.skipped_idle >= 1, "{report:?}");
    }

    #[test]
    fn checkpointer_idles_with_wal_off() {
        // WalMode::Off has no log to bound; after the first flush the
        // daemon must idle on the mutation counters, not re-flush every
        // tick forever.
        let clock = MockClock::new();
        let db = Arc::new(
            Db::open(
                DbConfig {
                    wal_mode: crate::db::WalMode::Off,
                    ..DbConfig::default()
                },
                clock.shared(),
            )
            .unwrap(),
        );
        let ckpt = Checkpointer::spawn(db.clone(), std::time::Duration::from_millis(1)).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while db
            .stats()
            .checkpoints
            .load(std::sync::atomic::Ordering::Relaxed)
            == 0
            && std::time::Instant::now() < deadline
        {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        let report = ckpt.stop().unwrap();
        assert_eq!(report.checkpoints, 1, "{report:?}");
        assert!(report.skipped_idle >= 1, "{report:?}");
    }

    #[test]
    fn checkpointer_spawn_from_config_respects_knob() {
        let clock = MockClock::new();
        // Explicit `None`: the production default, pinned here because the
        // CI config matrix overrides `DbConfig::default()` via env knobs.
        let db = Arc::new(
            Db::open(
                DbConfig {
                    checkpoint_every: None,
                    ..DbConfig::default()
                },
                clock.shared(),
            )
            .unwrap(),
        );
        assert!(
            Checkpointer::spawn_from_config(&db).unwrap().is_none(),
            "checkpoint_every: None leaves background checkpointing off"
        );
        let db2 = Arc::new(
            Db::open(
                DbConfig {
                    checkpoint_every: Some(std::time::Duration::from_millis(1)),
                    ..DbConfig::default()
                },
                clock.shared(),
            )
            .unwrap(),
        );
        let ckpt = Checkpointer::spawn_from_config(&db2)
            .unwrap()
            .expect("knob set → daemon");
        ckpt.stop().unwrap();
    }
}
