//! Lightweight tracing spans.
//!
//! A span is a guard: entering pushes the stage name onto a thread-local
//! stack and stamps the clock; dropping the guard records the elapsed
//! time into the stage's histogram and pops the stack. Because exit
//! lives in `Drop`, nesting survives early returns, `?`, and panics —
//! an unwinding thread leaves the stack exactly as it found it.
//!
//! Spans are gated by [`Obs`](crate::Obs)'s atomic flag. When disabled,
//! `SpanGuard::disabled` holds nothing: no clock read, no thread-local
//! access, nothing to drop — the entire mechanism costs one relaxed
//! atomic load at the call site.

use std::cell::RefCell;
use std::time::Instant;

use crate::hist::LatencyHistogram;

/// The instrumented pipeline stages. Each owns one histogram on
/// [`Obs`](crate::Obs); the wire names are in [`Stage::name`].
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

impl Stage {
    /// The snapshot/wire name of this stage's histogram.
    pub fn name(self) -> &'static str {
        match self {
            Stage::CommitSubmit => "commit.submit",
            Stage::QueryParse => "query.parse",
            Stage::QueryExec => "query.exec",
            Stage::QueryReply => "query.reply",
            Stage::Checkpoint => "checkpoint",
            Stage::Recovery => "recovery",
        }
    }
}

thread_local! {
    /// The active span names on this thread, innermost last.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Current span nesting depth on this thread (0 outside any span).
pub fn span_depth() -> usize {
    SPAN_STACK.with(|s| s.borrow().len())
}

/// The active span names on this thread, outermost first.
pub fn span_stack() -> Vec<&'static str> {
    SPAN_STACK.with(|s| s.borrow().clone())
}

/// An entered span; records its elapsed time on drop. Obtain via
/// [`Obs::span`](crate::Obs::span) (gated) or
/// [`Obs::timed`](crate::Obs::timed) (always recording).
#[must_use = "a span measures nothing unless it is held to the end of the stage"]
pub struct SpanGuard<'a> {
    active: Option<(Instant, &'a LatencyHistogram)>,
    /// Whether this guard pushed onto the thread-local name stack (a
    /// `timed` guard records without stack upkeep when spans are off).
    pushed: bool,
}

impl<'a> SpanGuard<'a> {
    pub(crate) fn enter(name: &'static str, hist: &'a LatencyHistogram) -> SpanGuard<'a> {
        SPAN_STACK.with(|s| s.borrow_mut().push(name));
        SpanGuard {
            active: Some((Instant::now(), hist)),
            pushed: true,
        }
    }

    /// Time into `hist` without touching the span stack — the always-on
    /// variant for cold stages (checkpoint, recovery).
    pub(crate) fn enter_untracked(hist: &'a LatencyHistogram) -> SpanGuard<'a> {
        SpanGuard {
            active: Some((Instant::now(), hist)),
            pushed: false,
        }
    }

    /// The no-op guard handed out while spans are disabled.
    pub(crate) const fn disabled() -> SpanGuard<'a> {
        SpanGuard {
            active: None,
            pushed: false,
        }
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
            if self.pushed {
                SPAN_STACK.with(|s| {
                    s.borrow_mut().pop();
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_guard_touches_nothing() {
        let g = SpanGuard::disabled();
        assert!(!g.is_recording());
        assert_eq!(span_depth(), 0);
        drop(g);
        assert_eq!(span_depth(), 0);
    }

    #[test]
    fn nesting_tracks_enter_and_exit() {
        let h = LatencyHistogram::new();
        assert_eq!(span_depth(), 0);
        {
            let _outer = SpanGuard::enter("outer", &h);
            assert_eq!(span_stack(), vec!["outer"]);
            {
                let _inner = SpanGuard::enter("inner", &h);
                assert_eq!(span_stack(), vec!["outer", "inner"]);
            }
            assert_eq!(span_stack(), vec!["outer"]);
        }
        assert_eq!(span_depth(), 0);
        assert_eq!(h.snapshot().count, 2);
    }
}
