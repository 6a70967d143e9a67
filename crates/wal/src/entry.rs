//! The replicated value-log record format (Figure 2 of the paper).
//!
//! Every entry carries the common fields of Section III-A: log type, LSN,
//! transaction ID, creation timestamp, and — for DML entries — the table
//! ID, the row key, and the concatenation of (column id, new value) pairs.
//! Updates optionally carry the before-image of the modified columns; the
//! ATR baseline decodes it in full, while AETS and C5 ignore it. AETS's
//! phase-1 translate does not even build it: `decode_dml_at` validates its
//! bytes and returns `before: None`.

use aets_common::{value::row_wire_size, DmlOp, Lsn, Row, RowKey, TableId, Timestamp, TxnId};

/// A DML log entry (insert/update/delete of one row).
#[derive(Debug, Clone, PartialEq)]
pub struct DmlEntry {
    /// Unique, sequential identifier of the log entry.
    pub lsn: Lsn,
    /// Producing transaction (primary commit order).
    pub txn_id: TxnId,
    /// Creation time of the log entry on the primary.
    pub ts: Timestamp,
    /// Table the operation applies to.
    pub table: TableId,
    /// Row operation kind.
    pub op: DmlOp,
    /// Primary key of the modified row.
    pub key: RowKey,
    /// Row version (RVID) *after* this operation: the primary stamps each
    /// row with a counter incremented by every modification. An insert has
    /// `row_version == 1`; an update/delete of a row at version `v` ships
    /// `row_version == v + 1`. The ATR baseline's operation-sequence check
    /// (SAP HANA's "RVID-based dynamic detection") gates an apply on the
    /// backup having seen `row_version - 1`.
    pub row_version: u64,
    /// New values: pairs of column id and value (full row for inserts,
    /// modified columns for updates, empty for deletes).
    pub cols: Row,
    /// Before-image of the modified columns, when the primary ships one.
    pub before: Option<Row>,
}

impl DmlEntry {
    /// Approximate encoded size in bytes; used to weigh un-replayed log
    /// volume (`n_gi` in the thread-allocation equation) and to model the
    /// dispatch parsing cost.
    pub fn wire_size(&self) -> usize {
        // tag + lsn + txn + ts + table + op + key + row_version + payloads
        1 + 8
            + 8
            + 8
            + 4
            + 1
            + 8
            + 8
            + row_wire_size(&self.cols)
            + self.before.as_ref().map_or(0, row_wire_size)
    }
}

/// One replicated log record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// Transaction begin marker.
    Begin {
        /// LSN of the marker.
        lsn: Lsn,
        /// Transaction id.
        txn_id: TxnId,
        /// Begin time on the primary.
        ts: Timestamp,
    },
    /// Transaction commit marker. `ts` is the commit timestamp that
    /// determines visibility on the backup.
    Commit {
        /// LSN of the marker.
        lsn: Lsn,
        /// Transaction id.
        txn_id: TxnId,
        /// Commit timestamp.
        ts: Timestamp,
    },
    /// A row modification.
    Dml(DmlEntry),
}

impl LogRecord {
    /// The record's LSN.
    pub fn lsn(&self) -> Lsn {
        match self {
            LogRecord::Begin { lsn, .. } | LogRecord::Commit { lsn, .. } => *lsn,
            LogRecord::Dml(d) => d.lsn,
        }
    }

    /// The record's transaction id.
    pub fn txn_id(&self) -> TxnId {
        match self {
            LogRecord::Begin { txn_id, .. } | LogRecord::Commit { txn_id, .. } => *txn_id,
            LogRecord::Dml(d) => d.txn_id,
        }
    }
}

/// All log entries of one committed transaction, as assembled by the log
/// parser from its BEGIN/COMMIT bracket.
#[derive(Debug, Clone, PartialEq)]
pub struct TxnLog {
    /// Transaction id (primary commit order).
    pub txn_id: TxnId,
    /// Commit timestamp on the primary.
    pub commit_ts: Timestamp,
    /// The transaction's DML entries in LSN order.
    pub entries: Vec<DmlEntry>,
}

impl TxnLog {
    /// Sum of entry wire sizes.
    pub fn wire_size(&self) -> usize {
        self.entries.iter().map(DmlEntry::wire_size).sum()
    }

    /// Whether this is a heartbeat transaction (no DML): the dispatcher
    /// inserts these to keep `global_cmt_ts` advancing when the primary is
    /// idle (Section V-B).
    pub fn is_heartbeat(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aets_common::{ColumnId, Value};

    pub(crate) fn dml(lsn: u64, txn: u64, table: u32, key: u64) -> DmlEntry {
        DmlEntry {
            lsn: Lsn::new(lsn),
            txn_id: TxnId::new(txn),
            ts: Timestamp::from_micros(lsn),
            table: TableId::new(table),
            op: DmlOp::Update,
            key: RowKey::new(key),
            row_version: 2,
            cols: vec![(ColumnId::new(0), Value::Int(1))],
            before: None,
        }
    }

    #[test]
    fn lsn_and_txn_accessors() {
        let b = LogRecord::Begin { lsn: Lsn::new(1), txn_id: TxnId::new(9), ts: Timestamp::ZERO };
        assert_eq!(b.lsn(), Lsn::new(1));
        assert_eq!(b.txn_id(), TxnId::new(9));
        let d = LogRecord::Dml(dml(5, 9, 0, 1));
        assert_eq!(d.lsn(), Lsn::new(5));
    }

    #[test]
    fn wire_size_counts_before_image() {
        let mut e = dml(1, 1, 0, 1);
        let base = e.wire_size();
        e.before = Some(vec![(ColumnId::new(0), Value::Int(0))]);
        assert!(e.wire_size() > base);
    }

    #[test]
    fn heartbeat_detection() {
        let t = TxnLog { txn_id: TxnId::new(1), commit_ts: Timestamp::ZERO, entries: vec![] };
        assert!(t.is_heartbeat());
        assert_eq!(t.wire_size(), 0);
    }
}
