//! Length-prefixed binary codec for values and tuples.
//!
//! Used by the heap storage format and the WAL. The format is deliberately
//! simple and self-describing (1-byte tag per value) so the forensic tests
//! (`tests/forensic.rs`) can scan raw pages for recoverable plaintext — the
//! very attack surface the paper says secure degradation must close.

use crate::error::{Error, Result};
use crate::time::Timestamp;
use crate::value::Value;

const TAG_NULL: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_TIMESTAMP: u8 = 6;
const TAG_RANGE: u8 = 7;
const TAG_REMOVED: u8 = 8;

/// Append `v`'s encoding to `out`. The inverse of [`decode_value`].
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_BOOL_FALSE),
        Value::Bool(true) => out.push(TAG_BOOL_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            let bytes = s.as_bytes();
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        Value::Timestamp(t) => {
            out.push(TAG_TIMESTAMP);
            out.extend_from_slice(&t.0.to_le_bytes());
        }
        Value::Range { lo, hi } => {
            out.push(TAG_RANGE);
            out.extend_from_slice(&lo.to_le_bytes());
            out.extend_from_slice(&hi.to_le_bytes());
        }
        Value::Removed => out.push(TAG_REMOVED),
    }
}

/// Decode one value from the front of `buf`, advancing it.
pub fn decode_value(buf: &mut &[u8]) -> Result<Value> {
    let tag = take(buf, 1)?[0];
    let v = match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL_FALSE => Value::Bool(false),
        TAG_BOOL_TRUE => Value::Bool(true),
        TAG_INT => Value::Int(i64::from_le_bytes(take_arr(buf)?)),
        TAG_FLOAT => Value::Float(f64::from_le_bytes(take_arr(buf)?)),
        TAG_STR => {
            let len = u32::from_le_bytes(take_arr(buf)?) as usize;
            let bytes = take(buf, len)?;
            let s = std::str::from_utf8(bytes)
                .map_err(|_| Error::Corrupt("non-utf8 string payload".into()))?;
            Value::Str(s.to_string())
        }
        TAG_TIMESTAMP => Value::Timestamp(Timestamp(u64::from_le_bytes(take_arr(buf)?))),
        TAG_RANGE => {
            let lo = i64::from_le_bytes(take_arr(buf)?);
            let hi = i64::from_le_bytes(take_arr(buf)?);
            Value::Range { lo, hi }
        }
        TAG_REMOVED => Value::Removed,
        other => return Err(Error::Corrupt(format!("unknown value tag {other}"))),
    };
    Ok(v)
}

/// Encode a whole row (count-prefixed value sequence).
pub fn encode_row(values: &[Value], out: &mut Vec<u8>) {
    out.extend_from_slice(&(values.len() as u16).to_le_bytes());
    for v in values {
        encode_value(v, out);
    }
}

/// Decode a whole row produced by [`encode_row`].
pub fn decode_row(buf: &mut &[u8]) -> Result<Vec<Value>> {
    let n = u16::from_le_bytes(take_arr(buf)?) as usize;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(decode_value(buf)?);
    }
    Ok(values)
}

/// Convenience: encode a row into a fresh buffer.
pub fn row_bytes(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 * values.len() + 2);
    encode_row(values, &mut out);
    out
}

/// Convenience: decode a full buffer as one row, requiring full consumption.
pub fn row_from_bytes(mut buf: &[u8]) -> Result<Vec<Value>> {
    let row = decode_row(&mut buf)?;
    if !buf.is_empty() {
        return Err(Error::Corrupt(format!(
            "{} trailing bytes after row",
            buf.len()
        )));
    }
    Ok(row)
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if buf.len() < n {
        return Err(Error::Corrupt(format!(
            "truncated payload: need {n} bytes, have {}",
            buf.len()
        )));
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

fn take_arr<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N]> {
    let slice = take(buf, N)?;
    let mut arr = [0u8; N];
    arr.copy_from_slice(slice);
    Ok(arr)
}

/// Write a u32/u64 little-endian helper pair used by page headers and WAL.
pub mod raw {
    use super::*;

    pub fn put_u16(out: &mut Vec<u8>, v: u16) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    pub fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    pub fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
        put_u32(out, b.len() as u32);
        out.extend_from_slice(b);
    }
    pub fn get_u16(buf: &mut &[u8]) -> Result<u16> {
        Ok(u16::from_le_bytes(take_arr(buf)?))
    }
    pub fn get_u32(buf: &mut &[u8]) -> Result<u32> {
        Ok(u32::from_le_bytes(take_arr(buf)?))
    }
    pub fn get_u64(buf: &mut &[u8]) -> Result<u64> {
        Ok(u64::from_le_bytes(take_arr(buf)?))
    }
    pub fn get_bytes(buf: &mut &[u8]) -> Result<Vec<u8>> {
        let len = get_u32(buf)? as usize;
        Ok(take(buf, len)?.to_vec())
    }
}

/// FNV-1a 64-bit checksum, used by pages and WAL records.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(3.25),
            Value::Str("Le Chesnay".into()),
            Value::Str(String::new()),
            Value::Timestamp(Timestamp(123_456_789)),
            Value::Range { lo: 2000, hi: 3000 },
            Value::Removed,
        ]
    }

    #[test]
    fn value_round_trip() {
        for v in sample_values() {
            let mut out = Vec::new();
            encode_value(&v, &mut out);
            let mut slice = out.as_slice();
            let back = decode_value(&mut slice).unwrap();
            assert_eq!(back, v);
            assert!(slice.is_empty(), "fully consumed for {v:?}");
        }
    }

    #[test]
    fn row_round_trip() {
        let row = sample_values();
        let bytes = row_bytes(&row);
        assert_eq!(row_from_bytes(&bytes).unwrap(), row);
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = row_bytes(&[Value::Int(1)]);
        bytes.push(0xAB);
        assert!(matches!(row_from_bytes(&bytes), Err(Error::Corrupt(_))));
    }

    #[test]
    fn truncation_detected() {
        let bytes = row_bytes(&[Value::Str("sensitive".into())]);
        for cut in 0..bytes.len() {
            let res = row_from_bytes(&bytes[..cut]);
            assert!(res.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut buf: &[u8] = &[0xEE];
        assert!(matches!(decode_value(&mut buf), Err(Error::Corrupt(_))));
    }

    #[test]
    fn non_utf8_string_rejected() {
        let mut bytes = Vec::new();
        bytes.push(5u8); // TAG_STR
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        let mut slice = bytes.as_slice();
        assert!(matches!(decode_value(&mut slice), Err(Error::Corrupt(_))));
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        let a = fnv1a(b"hello");
        let b = fnv1a(b"hellp");
        assert_ne!(a, b);
        assert_eq!(fnv1a(b"hello"), a);
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
    }

    #[test]
    fn raw_helpers_round_trip() {
        let mut out = Vec::new();
        raw::put_u16(&mut out, 7);
        raw::put_u32(&mut out, 99);
        raw::put_u64(&mut out, u64::MAX);
        raw::put_bytes(&mut out, b"abc");
        let mut slice = out.as_slice();
        assert_eq!(raw::get_u16(&mut slice).unwrap(), 7);
        assert_eq!(raw::get_u32(&mut slice).unwrap(), 99);
        assert_eq!(raw::get_u64(&mut slice).unwrap(), u64::MAX);
        assert_eq!(raw::get_bytes(&mut slice).unwrap(), b"abc");
        assert!(slice.is_empty());
    }
}
