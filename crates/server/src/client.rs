//! Blocking, reconnect-aware client for the InstantDB wire protocol.
//!
//! [`Client`] speaks one request/response exchange at a time over a TCP
//! connection. It is *reconnect-aware*: a transport failure marks the
//! connection dead and the next call re-dials transparently. Because the
//! server keeps per-connection session state (`DECLARE PURPOSE`), the
//! client journals every successful purpose declaration and replays it
//! after a reconnect, so a re-established session sees the same accuracy
//! levels as the one that died.
//!
//! Retry semantics are deliberately asymmetric: when a transport error
//! interrupts an exchange, the client immediately retries **only
//! replay-safe statements** (`SELECT`, `DECLARE PURPOSE`) on a fresh
//! connection. A mutating statement (`INSERT`, `DELETE`, `CREATE TABLE`)
//! may have committed server-side before the connection died — retrying
//! it could apply it twice — so the transport error is surfaced to the
//! caller, who knows whether the operation is idempotent. The connection
//! is re-established lazily on the next call either way.

use std::net::TcpStream;

use instant_common::{Error, Result};
use instant_core::query::QueryOutput;

use crate::protocol::{self, Frame};

/// Banner sent in the handshake (shows up in server logs/tooling).
const BANNER: &str = concat!("instantdb-client/", env!("CARGO_PKG_VERSION"));

/// A blocking connection to an `instantdb-server`.
pub struct Client {
    addr: String,
    stream: Option<TcpStream>,
    /// Successful `DECLARE PURPOSE` statements as `(purpose, sql)`,
    /// replayed in order on reconnect. Re-declaring a purpose replaces
    /// its entry (last one wins, matching server-side session
    /// semantics), so the journal is bounded by the number of distinct
    /// purposes, not the number of declarations ever issued.
    purpose_journal: Vec<(String, String)>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("addr", &self.addr)
            .field("connected", &self.stream.is_some())
            .finish()
    }
}

impl Client {
    /// Connect and handshake.
    pub fn connect(addr: impl Into<String>) -> Result<Client> {
        let mut client = Client {
            addr: addr.into(),
            stream: None,
            purpose_journal: Vec::new(),
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// Execute one SQL statement and return its output. Engine errors
    /// arrive as typed [`Error`] values (the wire preserves the class);
    /// admission-control sheds surface as [`Error::ServerBusy`].
    pub fn query(&mut self, sql: &str) -> Result<QueryOutput> {
        let result = self.exchange(&Frame::Query { sql: sql.into() });
        let result = match result {
            Err(Error::Io(_)) if replay_safe(sql) => {
                // The connection died mid-exchange; safe to retry only
                // statements that cannot double-apply.
                self.exchange(&Frame::Query { sql: sql.into() })
            }
            other => other,
        };
        match result? {
            Frame::ResultSet(output) => {
                if let QueryOutput::PurposeDeclared(name) = &output {
                    let key = name.to_ascii_lowercase();
                    self.purpose_journal.retain(|(n, _)| *n != key);
                    self.purpose_journal.push((key, sql.to_string()));
                }
                Ok(output)
            }
            // `SHOW STATS` answers ride a dedicated frame kind.
            Frame::Stats(snap) => Ok(QueryOutput::Stats(snap)),
            Frame::Error { class, message } => Err(Frame::to_engine_error(&class, &message)),
            other => Err(Error::Corrupt(format!(
                "unexpected response frame {other:?}"
            ))),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        let result = match self.exchange(&Frame::Ping) {
            Err(Error::Io(_)) => self.exchange(&Frame::Ping),
            other => other,
        };
        match result? {
            Frame::Pong => Ok(()),
            Frame::Error { class, message } => Err(Frame::to_engine_error(&class, &message)),
            other => Err(Error::Corrupt(format!(
                "unexpected response frame {other:?}"
            ))),
        }
    }

    /// Graceful end of session: send `Close` and drop the connection.
    pub fn close(mut self) -> Result<()> {
        if let Some(mut stream) = self.stream.take() {
            protocol::write_frame(&mut stream, &Frame::Close)?;
        }
        Ok(())
    }

    /// One request/response over the (re-established if needed)
    /// connection. Any failure drops the connection so the next call
    /// starts from a clean dial.
    fn exchange(&mut self, frame: &Frame) -> Result<Frame> {
        let r = self.try_exchange(frame);
        if r.is_err() {
            self.stream = None;
        }
        r
    }

    fn try_exchange(&mut self, frame: &Frame) -> Result<Frame> {
        self.ensure_connected()?;
        #[expect(clippy::expect_used, reason = "ensure_connected() just set the stream")]
        let stream = self.stream.as_mut().expect("connected above");
        protocol::write_frame(stream, frame)?;
        match protocol::read_frame(stream, protocol::DEFAULT_MAX_FRAME_BYTES)? {
            Some(reply) => Ok(reply),
            None => Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
        }
    }

    /// Dial + handshake + purpose replay, if not already connected.
    fn ensure_connected(&mut self) -> Result<()> {
        if self.stream.is_some() {
            return Ok(());
        }
        let mut stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true).ok();
        protocol::write_frame(&mut stream, &protocol::client_hello(BANNER))?;
        match protocol::read_frame(&mut stream, protocol::DEFAULT_MAX_FRAME_BYTES)? {
            Some(Frame::Hello { .. }) => {}
            Some(Frame::Error { class, message }) => {
                return Err(Frame::to_engine_error(&class, &message));
            }
            Some(other) => {
                return Err(Error::Corrupt(format!(
                    "unexpected handshake reply {other:?}"
                )));
            }
            None => {
                return Err(Error::Io(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "server closed during handshake",
                )));
            }
        }
        // Replay session state (purposes) the previous connection held —
        // directly on the fresh stream, so a flapping server can never
        // recurse through `query`'s retry path.
        for (_, sql) in &self.purpose_journal {
            protocol::write_frame(&mut stream, &Frame::Query { sql: sql.clone() })?;
            match protocol::read_frame(&mut stream, protocol::DEFAULT_MAX_FRAME_BYTES)? {
                Some(Frame::ResultSet(QueryOutput::PurposeDeclared(_))) => {}
                Some(Frame::Error { class, message }) => {
                    return Err(Frame::to_engine_error(&class, &message));
                }
                other => {
                    return Err(Error::Corrupt(format!(
                        "unexpected purpose-replay reply {other:?}"
                    )));
                }
            }
        }
        self.stream = Some(stream);
        Ok(())
    }
}

/// Statements safe to auto-retry after a transport failure: they cannot
/// double-apply. Everything else might have committed before the
/// connection died.
fn replay_safe(sql: &str) -> bool {
    let first = sql.split_whitespace().next().unwrap_or("");
    first.eq_ignore_ascii_case("select")
        || first.eq_ignore_ascii_case("declare")
        || first.eq_ignore_ascii_case("show")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_safety_classification() {
        assert!(replay_safe("SELECT * FROM t"));
        assert!(replay_safe("  select 1"));
        assert!(replay_safe("DECLARE PURPOSE p SET ACCURACY LEVEL d1 FOR x"));
        assert!(replay_safe("SHOW STATS"));
        assert!(!replay_safe("INSERT INTO t VALUES (1)"));
        assert!(!replay_safe("DELETE FROM t"));
        assert!(!replay_safe("CREATE TABLE t (id INT)"));
        assert!(!replay_safe(""));
    }
}
