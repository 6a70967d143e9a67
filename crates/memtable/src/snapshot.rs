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
use aets_wal::codec::{decode_row, encode_row, take, take_u32, take_u64};
use aets_wal::{crc32, crc32_combine, crc32_update};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Serializes the versions of `db` with `commit_ts <= watermark`,
/// appending to `buf`. Pass [`Timestamp::MAX`] to snapshot everything;
/// checkpoints pass the epoch-barrier watermark, which at a barrier is
/// equivalent (no version beyond the barrier exists yet) but keeps the
/// on-disk state independent of any replay that races the serialization.
///
/// The checkpoint's [`SnapshotWalk`], with no GC, on the calling thread.
pub fn encode_db(buf: &mut Vec<u8>, db: &MemDb, watermark: Timestamp) {
    let walk = SnapshotWalk::plan(db, watermark, None, 1, 0);
    walk.work();
    for piece in walk.finish().pieces {
        buf.extend_from_slice(&piece);
    }
}

/// One key range `[lo, hi]` of one table, and what walking it wrote.
#[derive(Debug)]
struct Part {
    table: TableId,
    lo: RowKey,
    hi: RowKey,
    buf: Vec<u8>,
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
                let (buf, gc) = (Vec::with_capacity(size), GcStats::default());
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
                buf.extend_from_slice(&key.raw().to_le_bytes());
                buf.extend_from_slice(&(covered.len() as u32).to_le_bytes());
                for v in covered {
                    buf.extend_from_slice(&v.txn_id.raw().to_le_bytes());
                    buf.extend_from_slice(&v.commit_ts.as_micros().to_le_bytes());
                    buf.push(v.op.tag());
                    encode_row(buf, &v.cols);
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
        snap.push((self.db.num_tables() as u32).to_le_bytes().to_vec(), None);
        for table in self.db.tables() {
            let mine: Vec<Part> =
                std::iter::from_fn(|| parts.next_if(|p| p.table == table.id())).collect();
            let mut head = table.id().raw().to_le_bytes().to_vec();
            head.extend_from_slice(&mine.iter().map(|p| p.keys).sum::<u64>().to_le_bytes());
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
    pub pieces: Vec<Vec<u8>>,
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
    fn push(&mut self, piece: Vec<u8>, crc: Option<u32>) {
        self.crc = match crc {
            Some(crc) => crc32_combine(self.crc, crc, piece.len() as u64),
            None => crc32_update(self.crc, &piece),
        };
        self.len += piece.len();
        self.pieces.push(piece);
    }
}

/// Rebuilds a [`MemDb`] from a snapshot produced by [`encode_db`], all
/// of `data` and nothing else. Restored chains preserve serialization
/// order; input that would break the commit-order invariant (a key
/// repeated, a chain out of order) is an error, so every database this
/// returns satisfies it.
pub fn decode_db(data: &[u8]) -> Result<MemDb> {
    let pos = &mut 0;
    let num_tables = take_u32(data, pos)? as usize;
    // Each table takes at least its 12-byte header: a count the input
    // cannot hold fails before a table is allocated.
    if num_tables.saturating_mul(12) > data.len() - *pos {
        return Err(Error::CodecTruncated);
    }
    let db = MemDb::new(num_tables);
    for _ in 0..num_tables {
        let table_id = TableId::new(take_u32(data, pos)?);
        if table_id.index() >= num_tables {
            return Err(Error::Codec(format!("snapshot table id {table_id:?} out of range")));
        }
        let table = db.table(table_id);
        let num_keys = take_u64(data, pos)?;
        for _ in 0..num_keys {
            let key = RowKey::new(take_u64(data, pos)?);
            let num_versions = take_u32(data, pos)?;
            let node = table.node_or_insert(key);
            if node.version_count() > 0 {
                return Err(Error::Codec(format!("snapshot key {key:?} of {table_id:?} repeats")));
            }
            let mut last = TxnId::new(0);
            for _ in 0..num_versions {
                let txn_id = TxnId::new(take_u64(data, pos)?);
                let commit_ts = Timestamp::from_micros(take_u64(data, pos)?);
                let op = OpType::from_tag(take(data, pos, 1)?[0]).ok_or(Error::CodecBadTag)?;
                let cols = decode_row(data, pos)?;
                if txn_id < last {
                    return Err(Error::Codec(format!("snapshot chain of {key:?} out of order")));
                }
                last = txn_id;
                node.append_version(Version { txn_id, commit_ts, op, cols });
            }
        }
    }
    if *pos < data.len() {
        return Err(Error::Codec(format!("{} trailing bytes after snapshot", data.len() - *pos)));
    }
    Ok(db)
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
        let mut buf = Vec::new();
        encode_db(&mut buf, &db, Timestamp::MAX);
        let back = decode_db(&buf).unwrap();

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
        let mut buf = Vec::new();
        encode_db(&mut buf, &db, Timestamp::from_micros(30));
        let back = decode_db(&buf).unwrap();
        // Versions at ts 40 and 50 excluded: 3 of 5 survive.
        assert_eq!(back.total_versions(), 3);
        let wm = Timestamp::from_micros(30);
        assert_eq!(back.digest_at(wm), db.digest_at(wm));
    }

    #[test]
    fn truncated_snapshot_errors_not_panics() {
        let db = sample_db();
        let mut full = Vec::new();
        encode_db(&mut full, &db, Timestamp::MAX);
        for cut in 0..full.len() {
            assert!(decode_db(&full[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let db = sample_db();
        let mut buf = Vec::new();
        encode_db(&mut buf, &db, Timestamp::MAX);
        buf.push(0xFF);
        assert!(decode_db(&buf).is_err());
    }

    #[test]
    fn a_table_count_the_input_cannot_hold_allocates_nothing() {
        let err = decode_db(&u32::MAX.to_le_bytes()).map(|db| db.num_tables());
        assert!(matches!(err, Err(Error::CodecTruncated)), "{err:?}");
    }

    /// The snapshot line of the byte-flip sweep: every strict prefix is
    /// rejected, and no single-byte flip panics or yields a database whose
    /// chains break the commit order.
    #[test]
    fn every_truncation_and_byte_flip_of_a_snapshot_is_safe() {
        let db = sample_db();
        let t1 = db.table(TableId::new(1));
        t1.apply_version(RowKey::new(4), ver(6, 60, OpType::Insert, vec![(0, "bé".into())]));
        t1.apply_version(RowKey::new(4), ver(8, 80, OpType::Update, vec![(2, vec![1u8].into())]));
        t1.apply_version(RowKey::new(5), ver(7, 70, OpType::Insert, vec![(1, Value::Int(-1))]));
        let mut clean = Vec::new();
        encode_db(&mut clean, &db, Timestamp::MAX);
        for cut in 0..clean.len() {
            assert!(decode_db(&clean[..cut]).is_err(), "cut at {cut}");
        }
        for at in 0..clean.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = clean.clone();
                bad[at] ^= flip;
                if let Ok(back) = decode_db(&bad) {
                    assert!(back.all_chains_ordered(), "byte {at} ^ {flip:#x}");
                }
            }
        }
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
        let mut want = Vec::new();
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
        let mut buf = Vec::new();
        encode_db(&mut buf, &db, Timestamp::MAX);
        let back = decode_db(&buf).unwrap();
        assert_eq!(back.num_tables(), 0);
    }
}
