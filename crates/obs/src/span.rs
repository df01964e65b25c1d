//! Lightweight tracing spans.
//!
//! A span is a guard: entering stamps the clock; dropping the guard
//! records the elapsed time into the stage's histogram. Because exit
//! lives in `Drop`, a span records on early returns, `?`, and panics.
//!
//! Spans are gated by [`Obs`](crate::Obs)'s atomic flag. When disabled,
//! `SpanGuard::disabled` holds nothing: no clock read, nothing to drop —
//! the entire mechanism costs one relaxed atomic load at the call site.

use std::time::Instant;

use crate::hist::LatencyHistogram;

/// The instrumented pipeline stages. Each owns one histogram on
/// [`Obs`](crate::Obs), named in its [`snapshot`](crate::Obs::snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Commit pipeline: enqueue onto the group-commit queue.
    CommitSubmit,
    /// Query path: SQL text → AST.
    QueryParse,
    /// Query path: AST → result rows (including the commit wait).
    QueryExec,
    /// Query path: result frame onto the wire.
    QueryReply,
    /// One whole checkpoint (flush + rotate + shred + meta).
    Checkpoint,
    /// One whole recovery (meta + WAL replay + index rebuild).
    Recovery,
}

/// An entered span; records its elapsed time on drop. Obtain via
/// [`Obs::span`](crate::Obs::span) (gated) or
/// [`Obs::timed`](crate::Obs::timed) (always recording).
#[must_use = "a span measures nothing unless it is held to the end of the stage"]
pub struct SpanGuard<'a> {
    active: Option<(Instant, &'a LatencyHistogram)>,
}

impl<'a> SpanGuard<'a> {
    pub(crate) fn enter(hist: &'a LatencyHistogram) -> SpanGuard<'a> {
        SpanGuard {
            active: Some((Instant::now(), hist)),
        }
    }

    /// The no-op guard handed out while spans are disabled.
    pub(crate) const fn disabled() -> SpanGuard<'a> {
        SpanGuard { active: None }
    }

    /// Whether this guard is actually timing (spans were enabled).
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((start, hist)) = self.active.take() {
            hist.record_duration(start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_guard_records_nothing() {
        let g = SpanGuard::disabled();
        assert!(!g.is_recording());
    }

    #[test]
    fn nested_guards_each_record_once() {
        let h = LatencyHistogram::new();
        {
            let _outer = SpanGuard::enter(&h);
            let _inner = SpanGuard::enter(&h);
        }
        assert_eq!(h.snapshot().count, 2);
    }
}
