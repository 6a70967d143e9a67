//! Column values carried by value-log entries and stored in version chains.

use crate::ids::ColumnId;
use crate::text::Utf8Bytes;
use std::fmt;

/// A single column value.
///
/// The value-log format (Section III-A) ships pairs of column ids and their
/// *new* values; this enum is the in-memory representation of one such
/// value. Variants cover what the benchmark schemas need; `Bytes` doubles
/// as an opaque payload for synthetic wide columns.
///
/// `Text` and `Bytes` are backed by shared [`bytes::Bytes`] storage, so
/// cloning a value is a reference-count bump. The decoder copies each
/// payload into an allocation of its own, so a committed version keeps no
/// epoch frame or checkpoint manifest alive.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float (never NaN in generated workloads).
    Float(f64),
    /// UTF-8 string (shared-buffer view).
    Text(Utf8Bytes),
    /// Opaque byte payload (shared-buffer view).
    Bytes(bytes::Bytes),
}

impl Value {
    /// Approximate wire size in bytes, used by the log encoder to size
    /// buffers and by the allocation solver to weigh un-replayed volume.
    pub fn wire_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 9,
            Value::Float(_) => 9,
            Value::Text(s) => 5 + s.len(),
            Value::Bytes(b) => 5 + b.len(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v.into())
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v.into())
    }
}

/// The column payload of one DML log entry: the concatenation of
/// `(column id, new value)` pairs from the log format in Figure 2.
///
/// For an `insert` this is the full row; for an `update` only the modified
/// columns; for a `delete` it is empty.
pub type Row = Vec<(ColumnId, Value)>;

/// Sums the wire size of a row payload.
pub fn row_wire_size(row: &Row) -> usize {
    row.iter().map(|(_, v)| 2 + v.wire_size()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_track_payload() {
        assert_eq!(Value::Null.wire_size(), 1);
        assert_eq!(Value::Int(0).wire_size(), 9);
        assert_eq!(Value::Text("abc".into()).wire_size(), 8);
        assert_eq!(Value::from(vec![0u8; 10]).wire_size(), 15);
    }

    #[test]
    fn row_wire_size_sums_columns() {
        let row: Row =
            vec![(ColumnId::new(0), Value::Int(1)), (ColumnId::new(1), Value::Text("hi".into()))];
        assert_eq!(row_wire_size(&row), (2 + 9) + (2 + 7));
    }
}
