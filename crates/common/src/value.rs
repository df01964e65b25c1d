//! Dynamic value model.
//!
//! Degradation generalizes values: a tree-structured domain (Fig. 1 of the
//! paper — address → city → region → country) degrades a [`Value::Str`] leaf
//! into coarser string labels; a numeric domain degrades an [`Value::Int`]
//! into widening [`Value::Range`] intervals (the paper's
//! `SALARY = '2000-3000'`). `Removed` is the post-final-state value: the
//! datum has left the database and only a typed placeholder remains until
//! the tuple itself is expunged.

use std::cmp::Ordering;
use std::fmt;

use crate::error::{Error, Result};
use crate::time::Timestamp;

/// Column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Str,
    Timestamp,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "TEXT",
            DataType::Timestamp => "TIMESTAMP",
        };
        f.write_str(s)
    }
}

impl DataType {
    /// Parse a SQL type name (case-insensitive).
    pub fn parse(s: &str) -> Result<DataType> {
        match s.to_ascii_uppercase().as_str() {
            "BOOL" | "BOOLEAN" => Ok(DataType::Bool),
            "INT" | "INTEGER" | "BIGINT" => Ok(DataType::Int),
            "FLOAT" | "DOUBLE" | "REAL" => Ok(DataType::Float),
            "TEXT" | "VARCHAR" | "STRING" => Ok(DataType::Str),
            "TIMESTAMP" => Ok(DataType::Timestamp),
            other => Err(Error::Schema(format!("unknown type {other}"))),
        }
    }
}

/// A dynamically typed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Timestamp(Timestamp),
    /// Half-open integer interval `[lo, hi)` — the degraded form of `Int`.
    Range {
        lo: i64,
        hi: i64,
    },
    /// The value has reached the end of its life cycle and been expunged.
    Removed,
}

impl Value {
    /// The value's runtime type, if it has one. `Null`/`Removed` are untyped.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null | Value::Removed => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Timestamp(_) => Some(DataType::Timestamp),
            // A Range is the degraded representation of an Int column.
            Value::Range { .. } => Some(DataType::Int),
        }
    }

    /// Is this value assignable to a column of type `ty`?
    pub fn conforms_to(&self, ty: DataType) -> bool {
        match self {
            Value::Null | Value::Removed => true,
            v => v.data_type() == Some(ty),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn is_removed(&self) -> bool {
        matches!(self, Value::Removed)
    }

    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(Error::Schema(format!("expected INT, got {other}"))),
        }
    }

    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(Error::Schema(format!("expected TEXT, got {other}"))),
        }
    }

    /// SQL-style three-valued-logic-free comparison used by the executor.
    ///
    /// `Null` and `Removed` compare as smallest (and are normally filtered
    /// out before comparison by the accuracy semantics). A `Range` compares
    /// to an `Int` by containment ordering: equal if the int falls inside,
    /// otherwise by position. Two ranges compare by `lo`.
    pub fn compare(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) | (Removed, Removed) => Ordering::Equal,
            (Null, _) | (Removed, _) => Ordering::Less,
            (_, Null) | (_, Removed) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            (Str(a), Str(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            (Range { lo, hi }, Int(v)) => {
                if v < lo {
                    Ordering::Greater
                } else if v >= hi {
                    Ordering::Less
                } else {
                    Ordering::Equal
                }
            }
            (Int(v), Range { lo, hi }) => {
                if v < lo {
                    Ordering::Less
                } else if v >= hi {
                    Ordering::Greater
                } else {
                    Ordering::Equal
                }
            }
            (Range { lo: a, hi: ah }, Range { lo: b, hi: bh }) => a.cmp(b).then(ah.cmp(bh)),
            // Heterogeneous comparisons: order by type tag for determinism.
            (a, b) => a.type_tag().cmp(&b.type_tag()),
        }
    }

    /// SQL LIKE with `%` wildcards only (the paper's example uses
    /// `LIKE "%FRANCE%"`). Case-insensitive, as the paper's upper-cased SQL
    /// suggests value matching by name.
    pub fn like(&self, pattern: &str) -> bool {
        let hay = match self {
            Value::Str(s) => s.to_ascii_uppercase(),
            _ => return false,
        };
        like_match(&hay, &pattern.to_ascii_uppercase())
    }

    fn type_tag(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
            Value::Timestamp(_) => 5,
            Value::Range { .. } => 6,
            Value::Removed => 7,
        }
    }

    /// Approximate heap + inline footprint in bytes, used by exposure metrics.
    pub fn footprint(&self) -> usize {
        match self {
            Value::Str(s) => std::mem::size_of::<Value>() + s.len(),
            _ => std::mem::size_of::<Value>(),
        }
    }
}

/// `%`-wildcard matcher (no `_` support — outside the reproduced subset).
fn like_match(hay: &str, pattern: &str) -> bool {
    // Split on '%'; all fragments must appear in order, anchored at the ends
    // when the pattern does not start/end with '%'.
    let frags: Vec<&str> = pattern.split('%').collect();
    if frags.len() == 1 {
        return hay == pattern;
    }
    let mut pos = 0usize;
    for (i, frag) in frags.iter().enumerate() {
        if frag.is_empty() {
            continue;
        }
        match hay[pos..].find(frag) {
            Some(off) => {
                if i == 0 && off != 0 {
                    return false; // anchored prefix
                }
                pos += off + frag.len();
            }
            None => return false,
        }
    }
    if let Some(last) = frags.last() {
        if !last.is_empty() && !hay.ends_with(last) {
            return false; // anchored suffix
        }
    }
    true
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Timestamp(t) => write!(f, "{t}"),
            Value::Range { lo, hi } => write!(f, "{lo}-{hi}"),
            Value::Removed => write!(f, "<removed>"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<Timestamp> for Value {
    fn from(v: Timestamp) -> Self {
        Value::Timestamp(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conformance_rules() {
        assert!(Value::Int(3).conforms_to(DataType::Int));
        assert!(Value::Range { lo: 0, hi: 10 }.conforms_to(DataType::Int));
        assert!(Value::Null.conforms_to(DataType::Str));
        assert!(Value::Removed.conforms_to(DataType::Timestamp));
        assert!(!Value::Str("x".into()).conforms_to(DataType::Int));
    }

    #[test]
    fn range_int_containment_compares_equal() {
        let r = Value::Range { lo: 2000, hi: 3000 };
        assert_eq!(r.compare(&Value::Int(2500)), Ordering::Equal);
        assert_eq!(r.compare(&Value::Int(1999)), Ordering::Greater);
        assert_eq!(r.compare(&Value::Int(3000)), Ordering::Less);
        // symmetric view
        assert_eq!(Value::Int(2500).compare(&r), Ordering::Equal);
        assert_eq!(Value::Int(1000).compare(&r), Ordering::Less);
    }

    #[test]
    fn like_semantics_match_paper_example() {
        let v = Value::Str("Europe/France/Essonne".into());
        assert!(v.like("%FRANCE%"));
        assert!(v.like("EUROPE%"));
        assert!(v.like("%ESSONNE"));
        assert!(!v.like("%GERMANY%"));
        assert!(!v.like("FRANCE%")); // anchored prefix
        assert!(!v.like("%EUROPE")); // anchored suffix
        assert!(Value::Str("abc".into()).like("ABC"));
    }

    #[test]
    fn like_ordered_fragments() {
        let v = Value::Str("abxcd".into());
        assert!(v.like("%AB%CD%"));
        assert!(!v.like("%CD%AB%"));
        assert!(Value::Str("".into()).like("%"));
    }

    #[test]
    fn display_range_matches_sql_literal() {
        assert_eq!(Value::Range { lo: 2000, hi: 3000 }.to_string(), "2000-3000");
    }

    #[test]
    fn null_and_removed_sort_first() {
        let mut vals = [Value::Int(1), Value::Null, Value::Removed];
        vals.sort_by(|a, b| a.compare(b));
        assert!(vals[0].is_null() || vals[0].is_removed());
        assert_eq!(vals[2], Value::Int(1));
    }

    #[test]
    fn accessors_enforce_type() {
        assert_eq!(Value::Int(7).as_int().unwrap(), 7);
        assert!(Value::Str("s".into()).as_int().is_err());
        assert_eq!(Value::Str("s".into()).as_str().unwrap(), "s");
    }

    #[test]
    fn datatype_parse_and_display() {
        assert_eq!(DataType::parse("varchar").unwrap(), DataType::Str);
        assert_eq!(DataType::parse("INTEGER").unwrap(), DataType::Int);
        assert!(DataType::parse("BLOB").is_err());
        assert_eq!(DataType::Timestamp.to_string(), "TIMESTAMP");
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(Value::Int(2).compare(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Float(1.5).compare(&Value::Int(2)), Ordering::Less);
    }
}
