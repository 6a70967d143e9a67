//! Serializing a consistent Memtable snapshot for checkpoints.
//!
//! The checkpoint subsystem quiesces the AETS engine at an epoch barrier
//! — where the global watermark makes the Memtable consistent by
//! construction — and streams the whole database to disk through this
//! codec. Row payloads reuse the value log's wire format
//! ([`aets_wal::encode_row`]), so a checkpoint exercises exactly the same
//! battle-tested value encoding as the log itself.
//!
//! ## Wire format (little-endian)
//!
//! ```text
//! [num_tables u32]
//! per table:   [table_id u32] [num_keys u64]
//! per key:     [key u64] [num_versions u32]
//! per version: [txn_id u64] [commit_ts u64] [op u8] [row]
//! ```
//!
//! Versions are written in chain order, so decoding re-appends them in
//! commit order and every restored chain satisfies the same ordering
//! invariant as a live one. Integrity (CRC, atomic rename) is the
//! checkpoint store's job, not the codec's: the store checksums the whole
//! snapshot blob alongside its manifest.

use crate::record::{OpType, Version};
use crate::table::{MemDb, Table};
use aets_common::{Error, Result, RowKey, Timestamp, TxnId};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Serializes the versions of `db` with `commit_ts <= watermark`,
/// appending to `buf`. Pass [`Timestamp::MAX`] to snapshot everything;
/// checkpoints pass the epoch-barrier watermark, which at a barrier is
/// equivalent (no version beyond the barrier exists yet) but keeps the
/// on-disk state independent of any replay that races the serialization.
///
/// Nothing is copied on the way: each chain is encoded in place under its
/// shared lock while the index is walked.
pub fn encode_db(buf: &mut BytesMut, db: &MemDb, watermark: Timestamp) {
    buf.put_u32_le(db.num_tables() as u32);
    for table in db.tables() {
        encode_table(buf, table, watermark);
    }
}

fn encode_table(buf: &mut BytesMut, table: &Table, watermark: Timestamp) {
    buf.put_u32_le(table.id().raw());
    // The key count is known only after the walk: nodes without a covered
    // version (created by phase 1, never committed) are not persisted.
    let count_at = buf.len();
    buf.put_u64_le(0);
    let mut keys = 0u64;
    table.for_each_node(|key, node| {
        let chain = node.chain();
        // Chains are in commit order: the covered versions are a prefix.
        let covered = &chain[..chain.partition_point(|v| v.commit_ts <= watermark)];
        if covered.is_empty() {
            return;
        }
        keys += 1;
        buf.put_u64_le(key.raw());
        buf.put_u32_le(covered.len() as u32);
        for v in covered {
            buf.put_u64_le(v.txn_id.raw());
            buf.put_u64_le(v.commit_ts.as_micros());
            buf.put_u8(v.op.tag());
            aets_wal::encode_row(buf, &v.cols);
        }
    });
    buf[count_at..count_at + 8].copy_from_slice(&keys.to_le_bytes());
}

/// Rebuilds a [`MemDb`] from a snapshot produced by [`encode_db`],
/// consuming `buf`. Restored chains preserve serialization order, so the
/// commit-order invariant holds by construction.
pub fn decode_db(buf: &mut Bytes) -> Result<MemDb> {
    need(buf, 4)?;
    let num_tables = buf.get_u32_le() as usize;
    let db = MemDb::new(num_tables);
    for _ in 0..num_tables {
        need(buf, 12)?;
        let table_id = aets_common::TableId::new(buf.get_u32_le());
        if table_id.index() >= num_tables {
            return Err(Error::Codec(format!("snapshot table id {table_id:?} out of range")));
        }
        let table = db.table(table_id);
        let num_keys = buf.get_u64_le();
        for _ in 0..num_keys {
            need(buf, 12)?;
            let key = RowKey::new(buf.get_u64_le());
            let num_versions = buf.get_u32_le();
            let node = table.node_or_insert(key);
            for _ in 0..num_versions {
                need(buf, 17)?;
                let txn_id = TxnId::new(buf.get_u64_le());
                let commit_ts = Timestamp::from_micros(buf.get_u64_le());
                let op = OpType::from_tag(buf.get_u8()).ok_or(Error::CodecBadTag)?;
                let cols = aets_wal::decode_row(buf)?;
                node.append_version(Version { txn_id, commit_ts, op, cols });
            }
        }
    }
    if buf.has_remaining() {
        return Err(Error::Codec(format!("{} trailing bytes after snapshot", buf.remaining())));
    }
    Ok(db)
}

fn need(buf: &Bytes, n: usize) -> Result<()> {
    if buf.remaining() < n {
        Err(Error::CodecTruncated)
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aets_common::{ColumnId, TableId, Value};

    fn ver(txn: u64, ts: u64, op: OpType, cols: Vec<(u16, Value)>) -> Version {
        Version {
            txn_id: TxnId::new(txn),
            commit_ts: Timestamp::from_micros(ts),
            op,
            cols: cols.into_iter().map(|(c, v)| (ColumnId::new(c), v)).collect(),
        }
    }

    fn sample_db() -> MemDb {
        let db = MemDb::new(3);
        let t0 = db.table(TableId::new(0));
        t0.apply_version(
            RowKey::new(1),
            ver(1, 10, OpType::Insert, vec![(0, Value::Int(1)), (1, Value::Text("a".into()))]),
        );
        t0.apply_version(RowKey::new(1), ver(2, 20, OpType::Update, vec![(0, Value::Int(2))]));
        t0.apply_version(RowKey::new(2), ver(3, 30, OpType::Insert, vec![(0, Value::Null)]));
        t0.apply_version(RowKey::new(2), ver(4, 40, OpType::Delete, vec![]));
        let t2 = db.table(TableId::new(2));
        t2.apply_version(
            RowKey::new(9),
            ver(5, 50, OpType::Insert, vec![(3, Value::Float(2.5)), (4, Value::from(vec![7u8]))]),
        );
        // Table 1 stays empty; an invisible phase-1 node must not persist.
        let _ = db.table(TableId::new(1)).node_or_insert(RowKey::new(77));
        db
    }

    #[test]
    fn snapshot_round_trips_digest_and_chains() {
        let db = sample_db();
        let mut buf = BytesMut::new();
        encode_db(&mut buf, &db, Timestamp::MAX);
        let mut bytes = buf.freeze();
        let back = decode_db(&mut bytes).unwrap();

        assert_eq!(back.num_tables(), db.num_tables());
        assert_eq!(back.total_versions(), db.total_versions());
        assert!(back.all_chains_ordered());
        for ts in [0u64, 15, 25, 35, 45, 55, u64::MAX] {
            let ts = Timestamp::from_micros(ts);
            assert_eq!(back.digest_at(ts), db.digest_at(ts), "digest diverges at {ts:?}");
        }
        // The invisible node was dropped, not resurrected.
        assert!(back.table(TableId::new(1)).is_empty());
    }

    #[test]
    fn watermark_filters_newer_versions() {
        let db = sample_db();
        let mut buf = BytesMut::new();
        encode_db(&mut buf, &db, Timestamp::from_micros(30));
        let back = decode_db(&mut buf.freeze()).unwrap();
        // Versions at ts 40 and 50 excluded: 3 of 5 survive.
        assert_eq!(back.total_versions(), 3);
        let wm = Timestamp::from_micros(30);
        assert_eq!(back.digest_at(wm), db.digest_at(wm));
    }

    #[test]
    fn truncated_snapshot_errors_not_panics() {
        let db = sample_db();
        let mut buf = BytesMut::new();
        encode_db(&mut buf, &db, Timestamp::MAX);
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut b = full.slice(..cut);
            assert!(decode_db(&mut b).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let db = sample_db();
        let mut buf = BytesMut::new();
        encode_db(&mut buf, &db, Timestamp::MAX);
        buf.put_u8(0xFF);
        assert!(decode_db(&mut buf.freeze()).is_err());
    }

    #[test]
    fn empty_db_round_trips() {
        let db = MemDb::new(0);
        let mut buf = BytesMut::new();
        encode_db(&mut buf, &db, Timestamp::MAX);
        let back = decode_db(&mut buf.freeze()).unwrap();
        assert_eq!(back.num_tables(), 0);
    }
}
