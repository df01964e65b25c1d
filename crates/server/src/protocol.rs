//! The wire protocol: length-prefixed frames with a versioned handshake.
//!
//! Every frame on the wire is
//!
//! ```text
//! ┌──────────────┬───────────┬──────────────────┐
//! │ len: u32 LE  │ kind: u8  │ body (len-1 B)   │
//! └──────────────┴───────────┴──────────────────┘
//! ```
//!
//! where `len` counts the kind byte plus the body. A connection starts
//! with a `Hello` exchange: the client's `Hello` carries the 4-byte magic
//! `IDBW` and the protocol version, the server answers with its own
//! `Hello` (version + banner) or an `Error` frame and closes. After the
//! handshake the client sends `Query`/`Ping`/`Close` frames and the
//! server answers each with `ResultSet`/`Error`/`Pong`.
//!
//! `Error` frames are *typed*: they carry the engine error's
//! [`class`](instant_common::Error::class) name plus the display message,
//! and the client rebuilds the matching [`Error`] variant with
//! [`Error::from_class`] — so `SELEKT …` surfaces as [`Error::Parse`] on
//! the client exactly as it would embedded, and an admission-control shed
//! surfaces as [`Error::ServerBusy`].
//!
//! Frames larger than the reader's limit are rejected without being read
//! (the length prefix alone condemns them); since the stream position is
//! then unknowable, the connection must close after the typed error.
//! Values inside a `ResultSet` reuse the storage codec
//! ([`instant_common::codec`]) — one value encoding for heap, WAL and
//! wire.

use std::io::{Read, Write};

use instant_common::codec::{decode_row, encode_row, raw};
use instant_common::{Error, Result};
use instant_core::query::{QueryOutput, QueryResult};
use instant_obs::{HistogramSnapshot, PurposeCounters, SlowQuery, StatsSnapshot};

/// Handshake magic: identifies the InstantDB wire protocol.
pub const MAGIC: [u8; 4] = *b"IDBW";
/// Protocol version spoken by this build.
pub const PROTOCOL_VERSION: u8 = 1;
/// Default cap on one frame's `len` field (kind + body).
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 4 * 1024 * 1024;

const KIND_HELLO: u8 = 1;
const KIND_QUERY: u8 = 2;
const KIND_RESULT: u8 = 3;
const KIND_ERROR: u8 = 4;
const KIND_PING: u8 = 5;
const KIND_PONG: u8 = 6;
const KIND_CLOSE: u8 = 7;
const KIND_STATS: u8 = 8;
// 9–13 are retired (a replication sub-protocol) and must not be reused.

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Handshake, both directions: magic + version + free-form banner.
    Hello { version: u8, banner: String },
    /// One SQL statement (client → server).
    Query { sql: String },
    /// A statement's output (server → client).
    ResultSet(QueryOutput),
    /// A typed error: [`Error::class`] name + display message.
    Error { class: String, message: String },
    /// Liveness probe (client → server).
    Ping,
    /// Probe answer (server → client).
    Pong,
    /// Graceful end of session (client → server); the server closes the
    /// connection without a reply.
    Close,
    /// The full observability snapshot (server → client): the server's
    /// answer to `SHOW STATS`, in a dedicated frame so monitoring agents
    /// can match on the kind byte without decoding result-set payloads.
    Stats(Box<StatsSnapshot>),
}

impl Frame {
    /// The typed-error frame for an engine error.
    pub fn error(e: &Error) -> Frame {
        Frame::Error {
            class: e.class().to_string(),
            message: e.to_string(),
        }
    }

    /// Rebuild the engine error a received [`Frame::Error`] carries.
    pub fn to_engine_error(class: &str, message: &str) -> Error {
        Error::from_class(class, message)
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            Frame::Hello { version, banner } => {
                out.push(KIND_HELLO);
                out.extend_from_slice(&MAGIC);
                out.push(*version);
                raw::put_bytes(&mut out, banner.as_bytes());
            }
            Frame::Query { sql } => {
                out.push(KIND_QUERY);
                raw::put_bytes(&mut out, sql.as_bytes());
            }
            Frame::ResultSet(output) => {
                out.push(KIND_RESULT);
                encode_output(output, &mut out);
            }
            Frame::Error { class, message } => {
                out.push(KIND_ERROR);
                raw::put_bytes(&mut out, class.as_bytes());
                raw::put_bytes(&mut out, message.as_bytes());
            }
            Frame::Ping => out.push(KIND_PING),
            Frame::Pong => out.push(KIND_PONG),
            Frame::Close => out.push(KIND_CLOSE),
            Frame::Stats(snap) => {
                out.push(KIND_STATS);
                encode_snapshot(snap, &mut out);
            }
        }
        out
    }

    fn decode(payload: &[u8]) -> Result<Frame> {
        let (&kind, mut body) = payload
            .split_first()
            .ok_or_else(|| Error::Corrupt("empty frame".into()))?;
        let frame = match kind {
            KIND_HELLO => {
                let magic: Vec<u8> = take(&mut body, 4)?.to_vec();
                if magic != MAGIC {
                    return Err(Error::Corrupt("bad handshake magic".into()));
                }
                let version = take(&mut body, 1)?[0];
                Frame::Hello {
                    version,
                    banner: get_string(&mut body)?,
                }
            }
            KIND_QUERY => Frame::Query {
                sql: get_string(&mut body)?,
            },
            KIND_RESULT => Frame::ResultSet(decode_output(&mut body)?),
            KIND_ERROR => Frame::Error {
                class: get_string(&mut body)?,
                message: get_string(&mut body)?,
            },
            KIND_PING => Frame::Ping,
            KIND_PONG => Frame::Pong,
            KIND_CLOSE => Frame::Close,
            KIND_STATS => Frame::Stats(Box::new(decode_snapshot(&mut body)?)),
            other => return Err(Error::Corrupt(format!("unknown frame kind {other}"))),
        };
        if !body.is_empty() {
            return Err(Error::Corrupt(format!(
                "{} trailing bytes after frame",
                body.len()
            )));
        }
        Ok(frame)
    }
}

const OUT_TABLE_CREATED: u8 = 0;
const OUT_INSERTED: u8 = 1;
const OUT_ROWS: u8 = 2;
const OUT_DELETED: u8 = 3;
const OUT_PURPOSE: u8 = 4;
const OUT_CHECKPOINTED: u8 = 5;
const OUT_STATS: u8 = 6;

fn encode_output(output: &QueryOutput, out: &mut Vec<u8>) {
    match output {
        QueryOutput::TableCreated(name) => {
            out.push(OUT_TABLE_CREATED);
            raw::put_bytes(out, name.as_bytes());
        }
        QueryOutput::Inserted(n) => {
            out.push(OUT_INSERTED);
            raw::put_u64(out, *n as u64);
        }
        QueryOutput::Rows(r) => {
            out.push(OUT_ROWS);
            raw::put_u32(out, r.columns.len() as u32);
            for c in &r.columns {
                raw::put_bytes(out, c.as_bytes());
            }
            raw::put_u32(out, r.rows.len() as u32);
            for row in &r.rows {
                encode_row(row, out);
            }
            raw::put_bytes(out, r.plan.as_bytes());
        }
        QueryOutput::Deleted(n) => {
            out.push(OUT_DELETED);
            raw::put_u64(out, *n as u64);
        }
        QueryOutput::PurposeDeclared(name) => {
            out.push(OUT_PURPOSE);
            raw::put_bytes(out, name.as_bytes());
        }
        QueryOutput::Checkpointed => out.push(OUT_CHECKPOINTED),
        QueryOutput::Stats(snap) => {
            out.push(OUT_STATS);
            encode_snapshot(snap, out);
        }
    }
}

fn decode_output(buf: &mut &[u8]) -> Result<QueryOutput> {
    let tag = take(buf, 1)?[0];
    Ok(match tag {
        OUT_TABLE_CREATED => QueryOutput::TableCreated(get_string(buf)?),
        OUT_INSERTED => QueryOutput::Inserted(raw::get_u64(buf)? as usize),
        OUT_ROWS => {
            let ncols = raw::get_u32(buf)? as usize;
            // Clamp pre-allocations to defend against a corrupt/hostile
            // count field demanding gigabytes; pushes still grow past it.
            let mut columns = Vec::with_capacity(ncols.min(1024));
            for _ in 0..ncols {
                columns.push(get_string(buf)?);
            }
            let nrows = raw::get_u32(buf)? as usize;
            let mut rows = Vec::with_capacity(nrows.min(1024));
            for _ in 0..nrows {
                rows.push(decode_row(buf)?);
            }
            QueryOutput::Rows(QueryResult {
                columns,
                rows,
                plan: get_string(buf)?,
            })
        }
        OUT_DELETED => QueryOutput::Deleted(raw::get_u64(buf)? as usize),
        OUT_PURPOSE => QueryOutput::PurposeDeclared(get_string(buf)?),
        OUT_CHECKPOINTED => QueryOutput::Checkpointed,
        OUT_STATS => QueryOutput::Stats(Box::new(decode_snapshot(buf)?)),
        other => return Err(Error::Corrupt(format!("unknown output tag {other}"))),
    })
}

/// Encode a [`StatsSnapshot`]. Histograms go sparse — `(bucket index,
/// count)` pairs for the non-zero buckets only — since a live snapshot
/// typically populates a handful of its 64 buckets.
fn encode_snapshot(s: &StatsSnapshot, out: &mut Vec<u8>) {
    raw::put_u32(out, s.counters.len() as u32);
    for (name, v) in &s.counters {
        raw::put_bytes(out, name.as_bytes());
        raw::put_u64(out, *v);
    }
    raw::put_u32(out, s.gauges.len() as u32);
    for (name, v) in &s.gauges {
        raw::put_bytes(out, name.as_bytes());
        raw::put_u64(out, *v as u64);
    }
    raw::put_u32(out, s.hists.len() as u32);
    for (name, h) in &s.hists {
        raw::put_bytes(out, name.as_bytes());
        encode_hist(h, out);
    }
    raw::put_u32(out, s.purposes.len() as u32);
    for (name, c) in &s.purposes {
        raw::put_bytes(out, name.as_bytes());
        raw::put_u64(out, c.queries);
        raw::put_u64(out, c.rows);
    }
    raw::put_u32(out, s.slow_queries.len() as u32);
    for q in &s.slow_queries {
        raw::put_bytes(out, q.kind.as_bytes());
        raw::put_bytes(out, q.purpose.as_bytes());
        raw::put_u64(out, q.elapsed_micros);
    }
}

fn decode_snapshot(buf: &mut &[u8]) -> Result<StatsSnapshot> {
    let mut s = StatsSnapshot::default();
    let n = raw::get_u32(buf)? as usize;
    s.counters.reserve(n.min(1024));
    for _ in 0..n {
        let name = get_string(buf)?;
        s.counters.push((name, raw::get_u64(buf)?));
    }
    let n = raw::get_u32(buf)? as usize;
    s.gauges.reserve(n.min(1024));
    for _ in 0..n {
        let name = get_string(buf)?;
        s.gauges.push((name, raw::get_u64(buf)? as i64));
    }
    let n = raw::get_u32(buf)? as usize;
    s.hists.reserve(n.min(1024));
    for _ in 0..n {
        let name = get_string(buf)?;
        s.hists.push((name, decode_hist(buf)?));
    }
    let n = raw::get_u32(buf)? as usize;
    s.purposes.reserve(n.min(1024));
    for _ in 0..n {
        let name = get_string(buf)?;
        let queries = raw::get_u64(buf)?;
        let rows = raw::get_u64(buf)?;
        s.purposes.push((name, PurposeCounters { queries, rows }));
    }
    let n = raw::get_u32(buf)? as usize;
    s.slow_queries.reserve(n.min(1024));
    for _ in 0..n {
        let kind = get_string(buf)?;
        let purpose = get_string(buf)?;
        let elapsed_micros = raw::get_u64(buf)?;
        s.slow_queries.push(SlowQuery {
            kind,
            purpose,
            elapsed_micros,
        });
    }
    Ok(s)
}

fn encode_hist(h: &HistogramSnapshot, out: &mut Vec<u8>) {
    raw::put_u64(out, h.sum_micros);
    raw::put_u64(out, h.max_micros);
    let nonzero = h.buckets.iter().filter(|b| **b != 0).count();
    raw::put_u32(out, nonzero as u32);
    for (i, b) in h.buckets.iter().enumerate() {
        if *b != 0 {
            out.push(i as u8);
            raw::put_u64(out, *b);
        }
    }
}

fn decode_hist(buf: &mut &[u8]) -> Result<HistogramSnapshot> {
    let mut h = HistogramSnapshot {
        sum_micros: raw::get_u64(buf)?,
        max_micros: raw::get_u64(buf)?,
        ..HistogramSnapshot::default()
    };
    let nonzero = raw::get_u32(buf)? as usize;
    for _ in 0..nonzero {
        let idx = take(buf, 1)?[0] as usize;
        let count = raw::get_u64(buf)?;
        let slot = h
            .buckets
            .get_mut(idx)
            .ok_or_else(|| Error::Corrupt(format!("histogram bucket index {idx} out of range")))?;
        *slot = count;
        h.count += count;
    }
    Ok(h)
}

/// Write one frame (length prefix + payload) and flush it. A payload
/// that cannot be described by the u32 length prefix is refused with
/// [`Error::Capacity`] — truncating the prefix would desynchronize the
/// peer's framing.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<()> {
    write_payload(w, &frame.encode())
}

/// Length-prefix + payload + flush — the one place framing is written.
fn write_payload(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| Error::Capacity(format!("frame of {} bytes overflows u32", payload.len())))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// [`write_frame`], but a frame larger than `max_frame_bytes` is
/// replaced on the wire by a typed `capacity` [`Frame::Error`] (the
/// peer's `read_frame` would refuse the oversized frame anyway and have
/// to drop the connection — a typed error keeps it alive and pairs with
/// the request). Returns whether the original frame fit.
pub fn write_frame_capped(w: &mut impl Write, frame: &Frame, max_frame_bytes: u32) -> Result<bool> {
    let payload = frame.encode();
    if payload.len() as u64 > u64::from(max_frame_bytes) {
        let e = Error::Capacity(format!(
            "response frame of {} bytes exceeds the {max_frame_bytes}-byte limit; \
             narrow the query",
            payload.len()
        ));
        write_frame(w, &Frame::error(&e))?;
        return Ok(false);
    }
    write_payload(w, &payload)?;
    Ok(true)
}

/// Read one frame. `Ok(None)` on a clean disconnect at a frame boundary.
/// A `len` above `max_frame_bytes` yields [`Error::Capacity`] *without
/// reading the body* — the caller should answer with a typed error and
/// close, since the stream position is no longer trustworthy.
pub fn read_frame(r: &mut impl Read, max_frame_bytes: u32) -> Result<Option<Frame>> {
    let Some(len) = read_len(r)? else {
        return Ok(None);
    };
    if len == 0 {
        return Err(Error::Corrupt("zero-length frame".into()));
    }
    if len > max_frame_bytes {
        return Err(Error::Capacity(format!(
            "frame of {len} bytes exceeds the {max_frame_bytes}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)
        .map_err(|e| truncated_as_corrupt(e, "frame body"))?;
    Frame::decode(&payload).map(Some)
}

/// Read the 4-byte length prefix; `Ok(None)` when the peer closed before
/// sending any of it (clean end of session).
fn read_len(r: &mut impl Read) -> Result<Option<u32>> {
    let mut buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        let n = r.read(&mut buf[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(Error::Corrupt("disconnect inside frame length".into()));
        }
        got += n;
    }
    Ok(Some(u32::from_le_bytes(buf)))
}

fn truncated_as_corrupt(e: std::io::Error, what: &str) -> Error {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        Error::Corrupt(format!("disconnect inside {what}"))
    } else {
        Error::Io(e)
    }
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if buf.len() < n {
        return Err(Error::Corrupt(format!(
            "truncated frame: need {n} bytes, have {}",
            buf.len()
        )));
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

fn get_string(buf: &mut &[u8]) -> Result<String> {
    let bytes = raw::get_bytes(buf)?;
    String::from_utf8(bytes).map_err(|_| Error::Corrupt("non-utf8 string in frame".into()))
}

/// The client's opening handshake frame.
pub fn client_hello(banner: &str) -> Frame {
    Frame::Hello {
        version: PROTOCOL_VERSION,
        banner: banner.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instant_common::Value;

    fn round_trip(frame: Frame) -> Frame {
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        let mut cursor = wire.as_slice();
        let back = read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
        assert!(cursor.is_empty(), "frame fully consumed");
        back
    }

    #[test]
    fn frames_round_trip() {
        let frames = vec![
            client_hello("test-client"),
            Frame::Query {
                sql: "SELECT * FROM person".into(),
            },
            Frame::ResultSet(QueryOutput::TableCreated("person".into())),
            Frame::ResultSet(QueryOutput::Inserted(3)),
            Frame::ResultSet(QueryOutput::Deleted(0)),
            Frame::ResultSet(QueryOutput::PurposeDeclared("STAT".into())),
            Frame::ResultSet(QueryOutput::Checkpointed),
            Frame::ResultSet(QueryOutput::Rows(QueryResult {
                columns: vec!["id".into(), "location".into()],
                rows: vec![
                    vec![Value::Int(1), Value::Str("Paris".into())],
                    vec![Value::Int(2), Value::Removed],
                ],
                plan: "scan(person)".into(),
            })),
            Frame::error(&Error::Parse("unexpected token".into())),
            Frame::Ping,
            Frame::Pong,
            Frame::Close,
            Frame::ResultSet(QueryOutput::Stats(Box::new(sample_snapshot()))),
            Frame::Stats(Box::new(sample_snapshot())),
            Frame::Stats(Box::default()),
        ];
        for f in frames {
            assert_eq!(round_trip(f.clone()), f, "{f:?}");
        }
    }

    fn sample_snapshot() -> StatsSnapshot {
        let mut h = HistogramSnapshot::default();
        h.buckets[0] = 1;
        h.buckets[7] = 3;
        h.buckets[63] = 2;
        h.count = 6;
        h.sum_micros = 5_000;
        h.max_micros = u64::MAX;
        let mut s = StatsSnapshot::default();
        s.counters.push(("wal.fsyncs".into(), 42));
        s.counters.push(("server.queries".into(), u64::MAX));
        s.gauges.push(("degradation.overdue_lag_us".into(), 12_345));
        s.gauges.push(("clock.skew_us".into(), -7)); // negative survives
        s.hists.push(("commit.ack".into(), h));
        s.purposes.push((
            "stat".into(),
            PurposeCounters {
                queries: 9,
                rows: 100,
            },
        ));
        s.slow_queries.push(SlowQuery {
            kind: "select".into(),
            purpose: "(none)".into(),
            elapsed_micros: 999,
        });
        s
    }

    #[test]
    fn stats_snapshot_codec_reconstructs_derived_count() {
        let snap = sample_snapshot();
        let Frame::Stats(back) = round_trip(Frame::Stats(Box::new(snap.clone()))) else {
            panic!("expected stats frame");
        };
        // The sparse codec does not ship `count`; decode re-derives it
        // from the buckets, so it must match the original exactly.
        let h = back.hist("commit.ack").expect("hist survived");
        assert_eq!(h.count, 6);
        assert_eq!(h.p50(), snap.hist("commit.ack").unwrap().p50());
        assert_eq!(back.gauge("clock.skew_us"), Some(-7));
        assert_eq!(back.counter("server.queries"), Some(u64::MAX));
    }

    #[test]
    fn corrupt_hist_bucket_index_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Stats(Box::new(sample_snapshot()))).unwrap();
        // The first bucket index byte lives right after the fixed-size
        // header fields; find and corrupt it via a targeted re-encode.
        let mut payload = vec![KIND_STATS];
        let mut s = StatsSnapshot::default();
        let mut h = HistogramSnapshot::default();
        h.buckets[1] = 5;
        h.count = 5;
        s.hists.push(("x".into(), h));
        encode_snapshot(&s, &mut payload);
        // From the end: two empty-section u32 counts (purposes, slow) =
        // 8 bytes, the bucket count u64 = 8 bytes, then the index byte.
        let idx_pos = payload.len() - 17;
        assert_eq!(payload[idx_pos], 1);
        payload[idx_pos] = 200; // out of range
        let mut wire = Vec::new();
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&payload);
        let err = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME_BYTES).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn error_frame_preserves_type() {
        let e = Error::ServerBusy("queue full".into());
        let Frame::Error { class, message } = round_trip(Frame::error(&e)) else {
            panic!("expected error frame")
        };
        let back = Frame::to_engine_error(&class, &message);
        assert!(matches!(back, Error::ServerBusy(_)), "{back:?}");
        assert!(back.to_string().contains("queue full"));
    }

    #[test]
    fn oversized_frame_rejected_before_body_read() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        // No body at all: the length alone must condemn the frame.
        let err = read_frame(&mut wire.as_slice(), 1024).unwrap_err();
        assert!(matches!(err, Error::Capacity(_)), "{err:?}");
    }

    #[test]
    fn clean_disconnect_is_none_and_partial_is_corrupt() {
        assert!(read_frame(&mut (&[] as &[u8]), 1024).unwrap().is_none());
        let err = read_frame(&mut (&[1u8, 2][..]), 1024).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Ping).unwrap();
        wire.truncate(wire.len() - 1);
        // An empty-body frame can't be truncated below its kind byte; use
        // a query instead for a mid-body cut.
        let mut wire = Vec::new();
        write_frame(
            &mut wire,
            &Frame::Query {
                sql: "SELECT 1".into(),
            },
        )
        .unwrap();
        wire.truncate(wire.len() - 3);
        let err = read_frame(&mut wire.as_slice(), 1024).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn bad_magic_and_unknown_kind_rejected() {
        let mut payload = vec![1u8]; // Hello kind
        payload.extend_from_slice(b"NOPE");
        payload.push(PROTOCOL_VERSION);
        raw::put_bytes(&mut payload, b"x");
        let mut wire = Vec::new();
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&payload);
        assert!(read_frame(&mut wire.as_slice(), 1024).is_err());

        // Unknown kinds, the retired 9..=13 among them, fail as corrupt.
        for kind in (9..=13).chain([0xEE]) {
            let mut wire = Vec::new();
            wire.extend_from_slice(&1u32.to_le_bytes());
            wire.push(kind);
            let err = read_frame(&mut wire.as_slice(), 1024).unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "kind {kind}: {err:?}");
        }
    }
}
