//! Replay engines: AETS and the baselines it is evaluated against.
//!
//! All engines implement [`ReplayEngine`]: they consume the same encoded
//! epoch stream, install versions into the same [`MemDb`], and publish
//! visibility through a [`VisibilityBoard`]. They differ exactly where the
//! paper says they differ:
//!
//! * [`serial::SerialEngine`] — single-threaded oracle, used as ground
//!   truth in correctness tests.
//! * [`aets::AetsEngine`] — epoch-based two-stage replay with table
//!   grouping, adaptive thread allocation, TPLR phase-1/phase-2, and
//!   per-group parallel commit. With a single group and staging disabled
//!   it *is* the TPLR baseline.
//! * [`atr::AtrEngine`] — transaction-ID-based dispatch, RVID
//!   operation-sequence check at apply time, single visibility thread.
//! * [`c5::C5Engine`] — row-based dispatch with full data-image parsing in
//!   the dispatcher, per-row dedicated queues, periodic snapshot
//!   publication.

pub mod aets;
pub mod atr;
pub mod c5;
pub(crate) mod crew;
pub mod pool;
pub mod serial;

use crate::dispatch::MiniTxn;
use crate::metrics::ReplayMetrics;
use crate::visibility::VisibilityBoard;
use aets_common::{DmlOp, Error, GroupId, Result, Row, RowKey, TableId, TxnId};
use aets_memtable::{MemDb, RecordNode, Version};
use aets_wal::{decode_dml_at, DmlEntry, EncodedEpoch};
use bytes::Bytes;
use std::cell::RefCell;
use std::sync::Arc;

/// A log-replay engine for the backup node.
pub trait ReplayEngine: Send + Sync {
    /// Engine name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Number of visibility groups the engine publishes (1 for ungrouped
    /// engines).
    fn board_groups(&self) -> usize;

    /// Maps a query's table footprint to the board groups it must wait
    /// on, paired with the grouping generation the mapping was computed
    /// under (read atomically). Pass both to
    /// [`VisibilityBoard::wait_admission`], so a live regroup landing in
    /// between demotes the wait to the always-correct global-watermark
    /// path instead of trusting stale group indices. The default is every
    /// group at generation 0: right for any engine whose grouping never
    /// changes, and exact for the ungrouped ones.
    fn board_groups_for(&self, _tables: &[TableId]) -> (u64, Vec<GroupId>) {
        (0, (0..self.board_groups() as u32).map(GroupId::new).collect())
    }

    /// The engine's live reconfiguration channel, when it has one.
    /// Controllers use this to apply new thread splits and groupings at
    /// epoch boundaries; engines with a fixed datapath (the baselines)
    /// return `None`.
    fn reconfigure(&self) -> Option<aets::ReconfigureHandle> {
        None
    }

    /// The engine's current table grouping, when it has one. A live
    /// controller seeds itself from this (hot set, group count) before
    /// planning changes through [`ReplayEngine::reconfigure`]; ungrouped
    /// engines return `None`.
    fn current_grouping(&self) -> Option<Arc<crate::grouping::TableGrouping>> {
        None
    }

    /// Replays the epoch stream into `db`, publishing visibility on
    /// `board`. `board` must have [`ReplayEngine::board_groups`] groups.
    fn replay(
        &self,
        epochs: &[EncodedEpoch],
        db: &MemDb,
        board: &VisibilityBoard,
    ) -> Result<ReplayMetrics>;

    /// Convenience: replay with a throwaway board.
    fn replay_all(&self, epochs: &[EncodedEpoch], db: &MemDb) -> Result<ReplayMetrics> {
        let board = VisibilityBoard::builder(self.board_groups()).build();
        self.replay(epochs, db, &board)
    }

    /// The engine's live telemetry instance, when it carries one. The
    /// runner and the durable backup use this to share one registry with
    /// the visibility board and to render exposition snapshots; engines
    /// without instrumentation (the baselines) return `None`.
    fn telemetry_handle(&self) -> Option<Arc<aets_telemetry::Telemetry>> {
        None
    }
}

/// Converts a contained panic payload into a typed replay error, so a
/// panicking replay thread poisons its group like any other failure
/// instead of tearing the process down.
pub(crate) fn panic_error(who: &str, payload: Box<dyn std::any::Any + Send>) -> Error {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string());
    Error::Replay(format!("{who} panicked: {msg}"))
}

/// Runs `f` on its own thread and fails the test instead of hanging it
/// when a crew wake-up is lost.
#[cfg(test)]
pub(crate) fn with_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(std::time::Duration::from_secs(300))
        .expect("replay hung: lost wake-up or barrier deadlock")
}

/// An uncommitted cell produced by TPLR phase 1: the target Memtable node
/// plus what the commit phase links into it, held in the transaction
/// context until the commit phase appends it (Figure 6).
#[derive(Debug)]
pub struct Cell {
    /// Target record node (stable address).
    pub node: Arc<RecordNode>,
    /// Producing transaction.
    pub txn_id: TxnId,
    /// Row operation kind.
    pub op: DmlOp,
    /// Decoded new values.
    pub cols: Row,
}

/// Phase-1 scratch, reused across chunks by the thread translating them:
/// per kept entry, its cell parts, its `(table, key, index)` and its node.
type Scratch =
    (Vec<(TxnId, DmlOp, Row)>, Vec<(TableId, RowKey, usize)>, Vec<Option<Arc<RecordNode>>>);

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// TPLR phase 1 — *translate* — over a chunk: decodes each
/// mini-transaction's entries and appends their cells to `cells` in entry
/// order, stopping at the first mini-transaction with a bad record (its
/// entries are dropped; the count kept comes back with the error). Then
/// the kept entries' nodes are resolved a table at a time under one index
/// guard ([`aets_memtable::Table::nodes_or_insert`]). The before image is
/// validated but never built: AETS does not read it.
pub fn translate_mini_txns(
    db: &MemDb,
    buf: &Bytes,
    mini_txns: &[MiniTxn],
    cells: &mut Vec<Cell>,
) -> (usize, Option<Error>) {
    // Taken, not borrowed: a contained panic drops it, half-built chunk and all.
    let (mut decoded, mut keys, mut nodes) = SCRATCH.take();
    keys.clear();
    let (mut translated, mut err) = (0, None);
    'mini_txns: for mt in mini_txns {
        let start = decoded.len();
        for r in &mt.entry_ranges {
            match decode_dml_at(buf, r.clone()) {
                Ok(DmlEntry { txn_id, table, op, key, cols, .. }) => {
                    keys.push((table, key, decoded.len()));
                    decoded.push((txn_id, op, cols));
                }
                Err(e) => {
                    decoded.truncate(start);
                    keys.truncate(start);
                    err = Some(e);
                    break 'mini_txns;
                }
            }
        }
        translated += 1;
    }
    keys.sort_unstable();
    nodes.resize(decoded.len(), None);
    for run in keys.chunk_by(|a, b| a.0 == b.0) {
        db.table(run[0].0).nodes_or_insert(run.iter().map(|&(_, key, i)| (key, i)), &mut nodes);
    }
    let resolved = nodes.drain(..).map(|node| node.expect("every kept entry is resolved"));
    for ((txn_id, op, cols), node) in decoded.drain(..).zip(resolved) {
        cells.push(Cell { node, txn_id, op, cols });
    }
    SCRATCH.set((decoded, keys, nodes));
    (translated, err)
}

/// Appends a cell's version with the *commit* timestamp of its owning
/// transaction (the entry's create `ts` is superseded by the transaction's
/// commit timestamp, which defines visibility order).
///
/// Consumes the cell: the commit phase only *links* the materialized
/// payload into the version chain — no copying — which is why the paper's
/// Table II measures commit at well under 1 % of replay time.
pub fn commit_cell(cell: Cell, commit_ts: aets_common::Timestamp) {
    let Cell { node, txn_id, op, cols } = cell;
    node.append_version(Version { txn_id, commit_ts, op, cols });
}

/// Applies a fully-decoded entry directly (used by the serial oracle, ATR,
/// and C5, which do not stage cells).
pub fn apply_entry(db: &MemDb, entry: &DmlEntry, commit_ts: aets_common::Timestamp) {
    let node = db.table(entry.table).node_or_insert(entry.key);
    node.append_version(Version {
        txn_id: entry.txn_id,
        commit_ts,
        op: entry.op,
        cols: entry.cols.clone(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use aets_common::{ColumnId, Lsn, Timestamp, Value};
    use aets_wal::{crc32, decode_at, encode_record, LogRecord};
    use bytes::BytesMut;
    use std::ops::Range;

    /// The per-entry reference: decode one record, resolve its node alone.
    fn translate_entry(db: &MemDb, buf: &Bytes, range: Range<usize>) -> Result<Cell> {
        let DmlEntry { txn_id, table, op, key, cols, .. } = decode_dml_at(buf, range)?;
        Ok(Cell { node: db.table(table).node_or_insert(key), txn_id, op, cols })
    }

    /// An update whose before image is one text column, `"ok"`, the last
    /// bytes of the record body.
    fn update_bytes() -> Vec<u8> {
        let rec = LogRecord::Dml(DmlEntry {
            lsn: Lsn::new(9),
            txn_id: TxnId::new(4),
            ts: Timestamp::from_micros(77),
            table: TableId::new(1),
            op: DmlOp::Update,
            key: RowKey::new(31),
            row_version: 2,
            cols: vec![
                (ColumnId::new(0), Value::Int(-3)),
                (ColumnId::new(2), Value::from("naïve €")),
                (ColumnId::new(3), Value::from(vec![0u8, 255])),
            ],
            before: Some(vec![(ColumnId::new(2), Value::from("ok"))]),
        });
        let mut buf = BytesMut::new();
        encode_record(&mut buf, &rec);
        buf.to_vec()
    }

    #[test]
    fn translate_builds_decode_ats_cell_and_fails_with_its_error() {
        let db = MemDb::new(2);
        let clean = Bytes::from(update_bytes());
        let n = clean.len();
        let (mut cells, translated, err) =
            translate_all(&db, &clean, &[std::iter::once(0..n).collect()]);
        assert_eq!((cells.len(), translated, err.is_none()), (1, 1, true));
        let cell = cells.pop().unwrap();
        let Ok(LogRecord::Dml(e)) = decode_at(&clean, 0..n) else { panic!("clean update") };
        assert_eq!((cell.txn_id, cell.op, &cell.cols), (e.txn_id, e.op, &e.cols));
        assert!(Arc::ptr_eq(&cell.node, &db.table(e.table).node_or_insert(e.key)));

        // Malform the before image alone and restamp the record CRC, so
        // only the image's own validation can catch it. The image is
        // cid(2) + tag(1) + len(4) + "ok" right before the CRC trailer.
        let body_end = n - 4;
        // (what, bytes before the body end, patch)
        let malformations: [(&str, usize, &[u8]); 3] = [
            ("invalid utf-8", 2, &[0xFF]),
            ("unknown value tag", 7, &[9]),
            ("length past the record", 6, &1000u32.to_le_bytes()),
        ];
        for (what, back, patch) in malformations {
            let mut v = update_bytes();
            let at = body_end - back;
            v[at..at + patch.len()].copy_from_slice(patch);
            let crc = crc32(&v[..body_end]);
            v[body_end..].copy_from_slice(&crc.to_le_bytes());
            let bad = Bytes::from(v);
            let want = decode_at(&bad, 0..n).expect_err(what).to_string();
            let (cells, translated, err) =
                translate_all(&db, &bad, &[std::iter::once(0..n).collect()]);
            assert_eq!((cells.len(), translated), (0, 0), "{what}");
            assert_eq!(err.expect(what).to_string(), want, "{what}");
        }
    }

    /// Three mini-transactions over three tables, `(table, key, op)` per
    /// entry: key 5 of table 0 is inserted, then updated twice.
    const CHUNK_ENTRIES: [&[(u32, u64, DmlOp)]; 3] = [
        &[(0, 5, DmlOp::Insert), (2, 1, DmlOp::Insert), (1, 9, DmlOp::Insert)],
        &[(0, 3, DmlOp::Insert), (0, 5, DmlOp::Update)],
        &[(1, 9, DmlOp::Update), (2, 0, DmlOp::Insert), (0, 5, DmlOp::Update)],
    ];

    /// The encoded chunk and each mini-transaction's entry ranges.
    fn chunk_bytes() -> (BytesMut, Vec<Vec<Range<usize>>>) {
        let mut buf = BytesMut::new();
        let mut mini_txns = Vec::new();
        let mut lsn = 0;
        for (txn, entries) in (1u64..).zip(CHUNK_ENTRIES) {
            let mut ranges = Vec::new();
            for &(table, key, op) in entries {
                lsn += 1;
                let start = buf.len();
                encode_record(
                    &mut buf,
                    &LogRecord::Dml(DmlEntry {
                        lsn: Lsn::new(lsn),
                        txn_id: TxnId::new(txn),
                        ts: Timestamp::from_micros(lsn),
                        table: TableId::new(table),
                        op,
                        key: RowKey::new(key),
                        row_version: 1,
                        cols: vec![(ColumnId::new(0), Value::Int(lsn as i64))],
                        before: None,
                    }),
                );
                ranges.push(start..buf.len());
            }
            mini_txns.push(ranges);
        }
        (buf, mini_txns)
    }

    fn translate_all(
        db: &MemDb,
        buf: &Bytes,
        mts: &[Vec<Range<usize>>],
    ) -> (Vec<Cell>, usize, Option<Error>) {
        let mts: Vec<MiniTxn> = (1u64..)
            .zip(mts)
            .map(|(txn, ranges)| MiniTxn {
                txn_id: TxnId::new(txn),
                commit_ts: Timestamp::from_micros(txn),
                entry_ranges: ranges.clone(),
                bytes: 0,
            })
            .collect();
        let mut cells = Vec::new();
        let (translated, err) = translate_mini_txns(db, buf, &mts, &mut cells);
        (cells, translated, err)
    }

    #[test]
    fn translate_chunk_cells_equal_per_entry_translate_in_entry_order() {
        let (buf, mts) = chunk_bytes();
        let buf = buf.freeze();
        let db = MemDb::new(3);
        let (cells, translated, err) = translate_all(&db, &buf, &mts);
        assert_eq!((translated, err.is_none()), (3, true));
        let want: Vec<Cell> =
            mts.iter().flatten().map(|r| translate_entry(&db, &buf, r.clone()).unwrap()).collect();
        assert_eq!(cells.len(), want.len());
        for (i, (got, want)) in cells.iter().zip(&want).enumerate() {
            assert_eq!((got.txn_id, got.op, &got.cols), (want.txn_id, want.op, &want.cols), "{i}");
            assert!(Arc::ptr_eq(&got.node, &want.node), "entry {i}: another node");
        }
        // One node per distinct key, the twice-updated key included.
        assert_eq!(db.tables().map(|t| t.len()).collect::<Vec<_>>(), [2, 1, 2]);
    }

    #[test]
    fn translate_chunk_keeps_exactly_the_mini_txns_before_a_corrupt_record() {
        let (clean, mts) = chunk_bytes();
        for k in 0..mts.len() {
            // Damage the last entry of mini-transaction k: its record CRC
            // no longer matches.
            let mut buf = clean.clone();
            let r = mts[k].last().unwrap().clone();
            buf[r.start + 3] ^= 0x10;
            let buf = buf.freeze();
            let want = decode_dml_at(&buf, r).expect_err("damaged").to_string();
            let db = MemDb::new(3);
            let (cells, translated, err) = translate_all(&db, &buf, &mts);
            assert_eq!(translated, k);
            assert_eq!(err.map(|e| e.to_string()), Some(want), "k = {k}");
            assert_eq!(cells.len(), mts[..k].iter().map(Vec::len).sum::<usize>());
            // No node for any entry of the failing mini-transaction or
            // after it.
            let keys: std::collections::BTreeSet<(u32, u64)> = CHUNK_ENTRIES[..k]
                .iter()
                .flat_map(|mt| mt.iter().map(|&(t, key, _)| (t, key)))
                .collect();
            assert_eq!(db.tables().map(|t| t.len()).sum::<usize>(), keys.len(), "k = {k}");
        }
    }
}
