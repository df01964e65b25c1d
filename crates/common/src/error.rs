//! Unified error type for the workspace.
//!
//! Hand-rolled (no `thiserror` in the offline crate set); the variants map
//! onto the layers of the engine so call sites can match on failure class.

use std::fmt;

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// All errors surfaced by InstantDB crates.
#[derive(Debug)]
pub enum Error {
    /// Underlying I/O failure (disk manager, WAL file).
    Io(std::io::Error),
    /// On-disk or in-log bytes failed validation (checksum, bounds, magic).
    Corrupt(String),
    /// A named entity (table, column, tuple, policy, level) does not exist.
    NotFound(String),
    /// Lock conflict / deadlock-avoidance abort (wait-die victim).
    TxConflict(String),
    /// Transaction used incorrectly (e.g. operating after commit).
    TxState(String),
    /// SQL / policy-DSL parse failure, with position information when known.
    Parse(String),
    /// Life Cycle Policy violation (e.g. insert below the accurate state,
    /// update of a degradable attribute after commit).
    Policy(String),
    /// Schema violation (arity, type mismatch, duplicate column).
    Schema(String),
    /// Query requested an accuracy level that is not computable or defined.
    Accuracy(String),
    /// Buffer pool exhausted or page capacity exceeded.
    Capacity(String),
    /// The server refused this connection under admission control (its
    /// connection limit is reached). Retry after backoff.
    ServerBusy(String),
    /// Invalid engine/server configuration, rejected before it takes
    /// effect (e.g. `DbConfig::builder().build()` validation).
    Config(String),
    /// Feature intentionally outside the reproduced model.
    Unsupported(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Corrupt(m) => write!(f, "corruption detected: {m}"),
            Error::NotFound(m) => write!(f, "not found: {m}"),
            Error::TxConflict(m) => write!(f, "transaction conflict: {m}"),
            Error::TxState(m) => write!(f, "transaction state error: {m}"),
            Error::Parse(m) => write!(f, "parse error: {m}"),
            Error::Policy(m) => write!(f, "life-cycle-policy violation: {m}"),
            Error::Schema(m) => write!(f, "schema error: {m}"),
            Error::Accuracy(m) => write!(f, "accuracy level error: {m}"),
            Error::Capacity(m) => write!(f, "capacity exceeded: {m}"),
            Error::ServerBusy(m) => write!(f, "server busy: {m}"),
            Error::Config(m) => write!(f, "invalid configuration: {m}"),
            Error::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl Error {
    /// True when retrying the operation may succeed (wait-die aborts,
    /// admission-control sheds).
    pub fn is_retryable(&self) -> bool {
        matches!(self, Error::TxConflict(_) | Error::ServerBusy(_))
    }

    /// Short machine-readable class name, used by the experiment harness.
    pub fn class(&self) -> &'static str {
        match self {
            Error::Io(_) => "io",
            Error::Corrupt(_) => "corrupt",
            Error::NotFound(_) => "not_found",
            Error::TxConflict(_) => "tx_conflict",
            Error::TxState(_) => "tx_state",
            Error::Parse(_) => "parse",
            Error::Policy(_) => "policy",
            Error::Schema(_) => "schema",
            Error::Accuracy(_) => "accuracy",
            Error::Capacity(_) => "capacity",
            Error::ServerBusy(_) => "server_busy",
            Error::Config(_) => "config",
            Error::Unsupported(_) => "unsupported",
        }
    }

    /// Reconstruct an error from its [`Error::class`] name plus a message
    /// — the inverse used by wire protocols that ship errors as
    /// `(class, message)` pairs. Unknown classes land in
    /// [`Error::Unsupported`] so a newer server never crashes an older
    /// client.
    pub fn from_class(class: &str, message: &str) -> Error {
        let m = message.to_string();
        match class {
            "io" => Error::Io(std::io::Error::other(m)),
            "corrupt" => Error::Corrupt(m),
            "not_found" => Error::NotFound(m),
            "tx_conflict" => Error::TxConflict(m),
            "tx_state" => Error::TxState(m),
            "parse" => Error::Parse(m),
            "policy" => Error::Policy(m),
            "schema" => Error::Schema(m),
            "accuracy" => Error::Accuracy(m),
            "capacity" => Error::Capacity(m),
            "server_busy" => Error::ServerBusy(m),
            "config" => Error::Config(m),
            _ => Error::Unsupported(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_message() {
        let e = Error::Policy("insert must target d0".into());
        assert!(e.to_string().contains("insert must target d0"));
        assert!(e.to_string().contains("life-cycle-policy"));
    }

    #[test]
    fn io_error_converts_and_sources() {
        let io = std::io::Error::other("boom");
        let e: Error = io.into();
        assert_eq!(e.class(), "io");
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn retryable_classification() {
        assert!(Error::TxConflict("wait-die".into()).is_retryable());
        assert!(!Error::Parse("x".into()).is_retryable());
    }

    #[test]
    fn class_names_are_stable() {
        assert_eq!(Error::Accuracy("k".into()).class(), "accuracy");
        assert_eq!(Error::Corrupt("c".into()).class(), "corrupt");
        assert_eq!(Error::Capacity("c".into()).class(), "capacity");
        assert_eq!(Error::ServerBusy("q".into()).class(), "server_busy");
    }

    #[test]
    fn from_class_round_trips_every_class() {
        let all = [
            Error::Io(std::io::Error::other("x")),
            Error::Corrupt("x".into()),
            Error::NotFound("x".into()),
            Error::TxConflict("x".into()),
            Error::TxState("x".into()),
            Error::Parse("x".into()),
            Error::Policy("x".into()),
            Error::Schema("x".into()),
            Error::Accuracy("x".into()),
            Error::Capacity("x".into()),
            Error::ServerBusy("x".into()),
            Error::Config("x".into()),
            Error::Unsupported("x".into()),
        ];
        for e in all {
            let back = Error::from_class(e.class(), "msg");
            assert_eq!(back.class(), e.class(), "{e:?}");
        }
        assert_eq!(Error::from_class("??", "m").class(), "unsupported");
    }

    #[test]
    fn server_busy_is_retryable() {
        assert!(Error::ServerBusy("shed".into()).is_retryable());
    }
}
