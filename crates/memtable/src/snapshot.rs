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

use crate::gc::{prune, GcStats};
use crate::record::{OpType, Version};
use crate::table::{MemDb, Table};
use aets_common::sync::lock;
use aets_common::{Error, Result, RowKey, TableId, Timestamp, TxnId};
use aets_wal::{crc32, crc32_combine, crc32_update};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Serializes the versions of `db` with `commit_ts <= watermark`,
/// appending to `buf`. Pass [`Timestamp::MAX`] to snapshot everything;
/// checkpoints pass the epoch-barrier watermark, which at a barrier is
/// equivalent (no version beyond the barrier exists yet) but keeps the
/// on-disk state independent of any replay that races the serialization.
///
/// The checkpoint's [`SnapshotWalk`], with no GC, on the calling thread.
pub fn encode_db(buf: &mut BytesMut, db: &MemDb, watermark: Timestamp) {
    let walk = SnapshotWalk::plan(db, watermark, None, 1, 0);
    walk.work();
    for piece in walk.finish().pieces {
        buf.put_slice(&piece);
    }
}

/// One key range `[lo, hi]` of one table, and what walking it wrote.
#[derive(Debug)]
struct Part {
    table: TableId,
    lo: RowKey,
    hi: RowKey,
    buf: BytesMut,
    /// Keys written: a node phase 1 made and nothing committed to has no
    /// covered version and is not persisted.
    keys: u64,
    gc: GcStats,
    /// CRC32 of `buf`, taken by its walker while the bytes are hot.
    crc: u32,
}

/// The one snapshot encoder, which a checkpoint runs at an epoch barrier
/// on the idle replay crew: the database cut into key-range parts, each
/// encoded into a buffer of its own by whichever thread claims it in
/// [`SnapshotWalk::work`]. With a GC floor each chain is pruned by
/// [`crate::gc_node`]'s rule and encoded under one exclusive guard.
#[derive(Debug)]
pub struct SnapshotWalk<'a> {
    db: &'a MemDb,
    watermark: Timestamp,
    floor: Option<Timestamp>,
    /// In table order, then key order.
    parts: Vec<Mutex<Part>>,
    next: AtomicUsize,
    /// Record nodes of `db`, for [`Snapshot::bytes_per_node`].
    nodes: usize,
}

impl<'a> SnapshotWalk<'a> {
    /// Plans the walk of `db` at `watermark`, pruning first at `floor`
    /// (at most `watermark`) when given, for `walkers` threads: about four
    /// parts per walker. A table holding more than a part's share of the
    /// records is cut by [`Table::cut`], which leaves one below
    /// [`crate::MIN_CUT_LEN`] whole. The part buffers are allocated here,
    /// on the calling thread, at `bytes_per_node` (the previous snapshot's
    /// [`Snapshot::bytes_per_node`]; 0 lets them grow from empty).
    pub fn plan(
        db: &'a MemDb,
        watermark: Timestamp,
        floor: Option<Timestamp>,
        walkers: usize,
        bytes_per_node: usize,
    ) -> Self {
        let total: usize = db.tables().map(Table::len).sum();
        let part_len = total.div_ceil(4 * walkers.max(1)).max(1);
        let (lo, hi) = (RowKey::new(0), RowKey::new(u64::MAX));
        let cuts = db.tables().map(|t| t.cut(lo, hi, t.len().div_ceil(part_len))).collect();
        Self::with_cuts(db, watermark, floor, cuts, bytes_per_node)
    }

    /// The walk with the parts given: `cuts[t]`, ascending and positive,
    /// cuts table `t` as [`Table::cut`]'s keys do.
    pub(crate) fn with_cuts(
        db: &'a MemDb,
        watermark: Timestamp,
        floor: Option<Timestamp>,
        cuts: Vec<Vec<RowKey>>,
        bytes_per_node: usize,
    ) -> Self {
        assert_eq!(cuts.len(), db.num_tables(), "one cut list per table");
        let (mut parts, mut nodes) = (Vec::new(), 0);
        for (table, cuts) in db.tables().zip(cuts) {
            nodes += table.len();
            let size = table.len() / (cuts.len() + 1) * bytes_per_node * 5 / 4 + 64;
            let starts = std::iter::once(RowKey::new(0)).chain(cuts.iter().copied());
            let ends = cuts.iter().map(|c| RowKey::new(c.raw() - 1)).chain([RowKey::new(u64::MAX)]);
            parts.extend(starts.zip(ends).map(|(lo, hi)| {
                let (buf, gc) = (BytesMut::with_capacity(size), GcStats::default());
                Mutex::new(Part { table: table.id(), lo, hi, buf, keys: 0, gc, crc: 0 })
            }));
        }
        Self { db, watermark, floor, parts, next: AtomicUsize::new(0), nodes }
    }

    /// Walks parts until none is left to claim: every thread lent to the
    /// walk calls it, and the caller's call alone walks them all.
    pub fn work(&self) {
        while let Some(part) = self.parts.get(self.next.fetch_add(1, Ordering::Relaxed)) {
            let p = &mut *lock(part);
            let (buf, keys, wm) = (&mut p.buf, &mut p.keys, self.watermark);
            let mut encode = |key: RowKey, chain: &[Version]| {
                // Chains are in commit order: the covered versions are a
                // prefix.
                let covered = &chain[..chain.partition_point(|v| v.commit_ts <= wm)];
                if covered.is_empty() {
                    return;
                }
                *keys += 1;
                buf.put_u64_le(key.raw());
                buf.put_u32_le(covered.len() as u32);
                for v in covered {
                    buf.put_u64_le(v.txn_id.raw());
                    buf.put_u64_le(v.commit_ts.as_micros());
                    buf.put_u8(v.op.tag());
                    aets_wal::encode_row(buf, &v.cols);
                }
            };
            let gc = &mut p.gc;
            self.db.table(p.table).for_each_node_in(p.lo, p.hi, |key, node| match self.floor {
                Some(floor) => {
                    let mut chain = node.chain_mut();
                    gc.merge(prune(&mut chain, floor));
                    encode(key, &chain);
                }
                None => encode(key, &node.chain()),
            });
            p.crc = crc32(&p.buf);
        }
    }

    /// The walked snapshot. Panics if a part was never claimed: some
    /// thread must have called [`SnapshotWalk::work`] to the end.
    pub fn finish(self) -> Snapshot {
        let claimed = self.next.load(Ordering::Relaxed) >= self.parts.len();
        assert!(claimed, "a snapshot part was never walked");
        let parts = self.parts.into_iter();
        let mut parts =
            parts.map(|p| p.into_inner().unwrap_or_else(PoisonError::into_inner)).peekable();
        let mut snap = Snapshot::default();
        let mut count = BytesMut::with_capacity(4);
        count.put_u32_le(self.db.num_tables() as u32);
        snap.push(count, None);
        for table in self.db.tables() {
            let mine: Vec<Part> =
                std::iter::from_fn(|| parts.next_if(|p| p.table == table.id())).collect();
            let mut head = BytesMut::with_capacity(12);
            head.put_u32_le(table.id().raw());
            head.put_u64_le(mine.iter().map(|p| p.keys).sum());
            snap.push(head, None);
            for p in mine {
                snap.gc.merge(p.gc);
                snap.push(p.buf, Some(p.crc));
            }
        }
        snap.bytes_per_node = snap.len.div_ceil(self.nodes.max(1));
        snap
    }
}

/// A finished [`SnapshotWalk`].
#[derive(Debug, Default)]
pub struct Snapshot {
    /// The snapshot in order — `[num_tables]`, then per table
    /// `[table_id][num_keys]` and its parts — to be written back to back:
    /// joined, they are [`encode_db`]'s bytes.
    pub pieces: Vec<BytesMut>,
    /// Total length of the pieces.
    pub len: usize,
    /// CRC32 of the pieces joined: the walkers' part CRCs folded in order.
    pub crc: u32,
    /// What the walk pruned (nothing without a GC floor).
    pub gc: GcStats,
    /// Bytes per record node, rounded up: the next walk's buffer sizing.
    pub bytes_per_node: usize,
}

impl Snapshot {
    fn push(&mut self, piece: BytesMut, crc: Option<u32>) {
        self.crc = match crc {
            Some(crc) => crc32_combine(self.crc, crc, piece.len() as u64),
            None => crc32_update(self.crc, &piece),
        };
        self.len += piece.len();
        self.pieces.push(piece);
    }
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
pub(crate) mod tests {
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

    /// The snapshot's pieces joined.
    pub(crate) fn joined(snap: &Snapshot) -> Vec<u8> {
        snap.pieces.iter().flat_map(|p| p.iter().copied()).collect()
    }

    #[test]
    fn a_walk_cuts_only_big_tables_and_writes_encode_db_bytes() {
        use crate::MIN_CUT_LEN;
        let db = sample_db();
        let big = db.table(TableId::new(1));
        for k in 0..3 * MIN_CUT_LEN as u64 {
            big.apply_version(
                RowKey::new(k),
                ver(k + 1, k + 1, OpType::Insert, vec![(0, Value::Int(1))]),
            );
        }
        let mut want = BytesMut::new();
        encode_db(&mut want, &db, Timestamp::MAX);
        for walkers in [1, 2, 3] {
            let walk = SnapshotWalk::plan(&db, Timestamp::MAX, None, walkers, 40);
            let parts_of =
                |t: u32| walk.parts.iter().filter(|p| lock(p).table == TableId::new(t)).count();
            assert_eq!([parts_of(0), parts_of(2)], [1, 1], "small tables stay whole");
            assert!(parts_of(1) > walkers, "{walkers} walkers: {} parts", parts_of(1));
            walk.work();
            let snap = walk.finish();
            assert!(joined(&snap) == want[..], "{walkers} walkers");
            assert_eq!(snap.gc, GcStats::default(), "no floor, no GC");
        }
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
