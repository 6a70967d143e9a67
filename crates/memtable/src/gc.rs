//! Version-chain garbage collection.
//!
//! The backup accumulates one version per replayed modification; long
//! runs need the HANA-style hybrid GC the paper's storage model assumes
//! (Lee et al., SIGMOD'16, the paper's storage reference). This module
//! implements watermark-based pruning: given the minimum snapshot
//! timestamp any active reader may still use (on the backup that is the
//! oldest admitted query's `qts`), every version chain can drop all
//! versions strictly older than the newest version at-or-below the
//! watermark — that newest one must survive, because it is exactly what a
//! reader at the watermark reconstructs.
//!
//! Subtlety: `update` versions are *partial* (they carry only modified
//! columns). Dropping older versions below a partial update would lose
//! the untouched columns, so the surviving boundary version is first
//! *consolidated* — rewritten as a full `insert` image of the row at the
//! watermark (or a `delete` tombstone).

use crate::record::{is_canonical, keep_first_per_column, Chain, OpType, RecordNode};
use crate::table::MemDb;
use aets_common::sync::lock;
use aets_common::{Row, Timestamp};
use std::sync::Mutex;

/// Statistics from one GC pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Record nodes visited.
    pub nodes: usize,
    /// Versions removed.
    pub pruned: usize,
    /// Versions kept.
    pub retained: usize,
    /// Boundary versions consolidated into full images.
    pub consolidated: usize,
}

impl GcStats {
    /// Accumulates `other` into `self` (a pass sums its nodes and tables
    /// with it).
    pub fn merge(&mut self, other: GcStats) {
        self.nodes += other.nodes;
        self.pruned += other.pruned;
        self.retained += other.retained;
        self.consolidated += other.consolidated;
    }
}

/// Prunes one record's chain against the watermark, in place under one
/// exclusive lock. Exposed for tests; engines call [`gc_db`], and a
/// checkpoint prunes inside its snapshot walk.
pub fn gc_node(node: &RecordNode, watermark: Timestamp) -> GcStats {
    prune(&mut node.chain_mut(), watermark)
}

/// [`gc_node`]'s rule on a chain the caller holds exclusively: the
/// snapshot walk prunes and encodes a chain under one guard.
pub(crate) fn prune(chain: &mut Chain, watermark: Timestamp) -> GcStats {
    let mut stats = GcStats { nodes: 1, retained: chain.len(), ..Default::default() };
    let end = chain.partition_point(|v| v.commit_ts <= watermark);
    if end == 0 {
        // Nothing visible at the watermark: every version is newer, and
        // each is still the boundary for some future reader.
        return stats;
    }
    stats.consolidated = 1;
    // Most chains most of the time: one version at or below the watermark
    // and it is a full image or an empty tombstone already. Its columns
    // are not read: an insert stays as the log wrote it, and readers put
    // columns in order themselves. A log that lists an insert's columns
    // in ascending order (every generator here: `reference::tests::apply`)
    // gets the chain a consolidation would have built; any other keeps
    // its lone inserts in log order, which only snapshot bytes can tell.
    let settled = end == 1
        && match chain[0].op {
            OpType::Insert => true,
            OpType::Delete => chain[0].cols.is_empty(),
            OpType::Update => false,
        };
    if settled {
        return stats;
    }
    // Fold the prefix into its newest version, in place: a tombstone when
    // the row is invisible at the watermark, otherwise the full row image.
    // The image starts from the anchor — the newest insert at or below the
    // watermark, or the oldest version of an update-only chain, which is
    // base data — and takes every later update's values by move.
    let boundary = end - 1;
    let anchor = chain[..end].iter().rposition(|v| v.op != OpType::Update).unwrap_or(0);
    if chain[anchor].op == OpType::Delete {
        chain[boundary].op = OpType::Delete;
        chain[boundary].cols = Row::new();
    } else {
        let mut image = std::mem::take(&mut chain[anchor].cols);
        if !is_canonical(&image) {
            keep_first_per_column(&mut image);
        }
        for update in &mut chain[anchor + 1..end] {
            // Back to front: of a column an update lists twice, the value
            // listed first must be the one that stays.
            for (cid, val) in update.cols.drain(..).rev() {
                match image.binary_search_by_key(&cid, |(c, _)| *c) {
                    Ok(i) => image[i].1 = val,
                    Err(i) => image.insert(i, (cid, val)),
                }
            }
        }
        chain[boundary].op = OpType::Insert;
        chain[boundary].cols = image;
    }
    if boundary > 0 {
        chain.drop_oldest(boundary);
    }
    stats.pruned = boundary;
    stats.retained = chain.len();
    stats
}

/// Runs GC over the whole database.
pub fn gc_db(db: &MemDb, watermark: Timestamp) -> GcStats {
    let mut stats = GcStats::default();
    for t in db.tables() {
        t.for_each_node(|_, node| stats.merge(gc_node(node, watermark)));
    }
    stats
}

/// A ticket returned by [`QueryFloor::pin`]; hand it back to
/// [`QueryFloor::release`] when the reader is done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloorTicket(usize);

/// Registry of active reader snapshot timestamps, shared between the
/// query-serving layer (which pins one entry per open session) and the GC
/// driver (which must never prune a version an active reader can still
/// reconstruct).
///
/// [`QueryFloor::floor`] is the minimum pinned `qts`, or `Timestamp::MAX`
/// when no reader is active — i.e. the value to pass as `query_floor`
/// into the visibility board's GC watermark.
#[derive(Debug, Default)]
pub struct QueryFloor {
    slots: Mutex<Vec<Option<Timestamp>>>,
}

impl QueryFloor {
    /// An empty registry (floor at `Timestamp::MAX`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins `qts` into the floor until the ticket is released.
    pub fn pin(&self, qts: Timestamp) -> FloorTicket {
        let mut slots = lock(&self.slots);
        if let Some(i) = slots.iter().position(Option::is_none) {
            slots[i] = Some(qts);
            FloorTicket(i)
        } else {
            slots.push(Some(qts));
            FloorTicket(slots.len() - 1)
        }
    }

    /// Releases a pin. Releasing a ticket twice is a no-op.
    pub fn release(&self, ticket: FloorTicket) {
        let mut slots = lock(&self.slots);
        if let Some(slot) = slots.get_mut(ticket.0) {
            *slot = None;
        }
    }

    /// The minimum pinned `qts` (`Timestamp::MAX` when none are active).
    pub fn floor(&self) -> Timestamp {
        lock(&self.slots).iter().flatten().min().copied().unwrap_or(Timestamp::MAX)
    }

    /// Number of currently pinned readers.
    pub fn active(&self) -> usize {
        lock(&self.slots).iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Version;
    use aets_common::{ColumnId, RowKey, TableId, TxnId, Value};

    fn ver(txn: u64, ts: u64, op: OpType, cols: Vec<(u16, i64)>) -> Version {
        Version {
            txn_id: TxnId::new(txn),
            commit_ts: Timestamp::from_micros(ts),
            op,
            cols: cols.into_iter().map(|(c, v)| (ColumnId::new(c), Value::Int(v))).collect(),
        }
    }

    fn node_with_history() -> RecordNode {
        let n = RecordNode::new();
        n.append_version(ver(1, 10, OpType::Insert, vec![(0, 1), (1, 100)]));
        n.append_version(ver(2, 20, OpType::Update, vec![(0, 2)]));
        n.append_version(ver(3, 30, OpType::Update, vec![(1, 300)]));
        n.append_version(ver(4, 40, OpType::Update, vec![(0, 4)]));
        n
    }

    #[test]
    fn gc_preserves_reads_at_and_after_watermark() {
        let n = node_with_history();
        let watermark = Timestamp::from_micros(30);
        let want_at_wm = n.read_at(watermark);
        let want_latest = n.read_at(Timestamp::MAX);

        let stats = gc_node(&n, watermark);
        assert_eq!(stats.consolidated, 1);
        assert!(n.is_ordered());
        // Versions 1 and 2 merged into the boundary at ts=30; version 4
        // survives untouched.
        assert_eq!(n.version_count(), 2);
        assert_eq!(n.read_at(watermark), want_at_wm);
        assert_eq!(n.read_at(Timestamp::MAX), want_latest);
        // Partial-update columns were consolidated: the boundary now
        // carries BOTH columns.
        let row = n.read_at(watermark).unwrap();
        assert_eq!(row.len(), 2);
    }

    #[test]
    fn gc_below_first_version_is_a_noop() {
        let n = node_with_history();
        let stats = gc_node(&n, Timestamp::from_micros(5));
        assert_eq!(stats.retained, 4);
        assert_eq!(n.version_count(), 4);
    }

    #[test]
    fn gc_consolidates_delete_boundary() {
        let n = RecordNode::new();
        n.append_version(ver(1, 10, OpType::Insert, vec![(0, 1)]));
        n.append_version(ver(2, 20, OpType::Delete, vec![]));
        n.append_version(ver(3, 30, OpType::Insert, vec![(0, 9)]));
        gc_node(&n, Timestamp::from_micros(25));
        assert_eq!(n.version_count(), 2);
        assert_eq!(n.read_at(Timestamp::from_micros(25)), None, "tombstone preserved");
        assert!(n.read_at(Timestamp::from_micros(35)).is_some());
    }

    #[test]
    fn gc_at_max_keeps_one_version_per_row() {
        let n = node_with_history();
        gc_node(&n, Timestamp::MAX);
        assert_eq!(n.version_count(), 1);
        let row = n.read_at(Timestamp::MAX).unwrap();
        // Full consolidated image: col0 = 4 (last update), col1 = 300.
        assert_eq!(
            row,
            vec![(ColumnId::new(0), Value::Int(4)), (ColumnId::new(1), Value::Int(300)),]
        );
    }

    #[test]
    fn gc_tombstone_exactly_at_watermark_survives_as_tombstone() {
        // The boundary version IS the delete: it must be kept (as a
        // tombstone), not dropped — a reader at the watermark must still
        // observe "row absent", distinct from "row never existed with
        // newer versions pending".
        let n = RecordNode::new();
        n.append_version(ver(1, 10, OpType::Insert, vec![(0, 1)]));
        n.append_version(ver(2, 20, OpType::Delete, vec![]));
        let stats = gc_node(&n, Timestamp::from_micros(20));
        assert_eq!(stats.consolidated, 1);
        assert_eq!(n.version_count(), 1, "insert below the tombstone is pruned");
        assert_eq!(n.read_at(Timestamp::from_micros(20)), None);
        assert_eq!(n.read_at(Timestamp::MAX), None);
        assert!(n.is_ordered());
    }

    #[test]
    fn gc_consolidates_partial_update_that_is_oldest_in_chain() {
        // After a prior GC pass (or a truncated history) the oldest
        // version can itself be a partial update. When it is the
        // boundary, consolidation must still produce a full image from
        // whatever is reconstructible — not drop the untouched columns.
        let n = RecordNode::new();
        n.append_version(ver(5, 50, OpType::Update, vec![(0, 7)]));
        n.append_version(ver(6, 60, OpType::Update, vec![(1, 8)]));
        let watermark = Timestamp::from_micros(50);
        let want_at_wm = n.read_at(watermark);
        let want_latest = n.read_at(Timestamp::MAX);

        let stats = gc_node(&n, watermark);
        assert_eq!(stats.consolidated, 1);
        assert_eq!(n.version_count(), 2, "nothing below the boundary to prune");
        assert_eq!(n.read_at(watermark), want_at_wm);
        assert_eq!(n.read_at(Timestamp::MAX), want_latest);
        assert!(n.is_ordered());
    }

    #[test]
    fn gc_empty_chain_is_a_noop() {
        let n = RecordNode::new();
        let stats = gc_node(&n, Timestamp::from_micros(100));
        assert_eq!(stats, GcStats { nodes: 1, ..Default::default() });
        assert_eq!(n.version_count(), 0);
    }

    #[test]
    fn gc_with_no_visible_version_prunes_nothing() {
        // Every version is newer than the watermark: a reader at the
        // watermark sees nothing, and nothing may be pruned — each newer
        // version is still the boundary for some future reader.
        let n = node_with_history();
        let stats = gc_node(&n, Timestamp::from_micros(9));
        assert_eq!(stats.retained, 4);
        assert_eq!(stats.consolidated, 0);
        assert_eq!(n.version_count(), 4);
        assert_eq!(n.read_at(Timestamp::from_micros(9)), None);
    }

    #[test]
    fn query_floor_tracks_minimum_pin_and_reuses_slots() {
        let f = QueryFloor::new();
        assert_eq!(f.floor(), Timestamp::MAX, "empty registry never clamps GC");
        assert_eq!(f.active(), 0);
        let a = f.pin(Timestamp::from_micros(50));
        let b = f.pin(Timestamp::from_micros(30));
        let c = f.pin(Timestamp::from_micros(70));
        assert_eq!(f.floor(), Timestamp::from_micros(30));
        assert_eq!(f.active(), 3);
        f.release(b);
        assert_eq!(f.floor(), Timestamp::from_micros(50));
        f.release(b); // double release is a no-op
        assert_eq!(f.active(), 2);
        // The freed slot is reused rather than growing the slab.
        let d = f.pin(Timestamp::from_micros(10));
        assert_eq!(d, FloorTicket(1));
        assert_eq!(f.floor(), Timestamp::from_micros(10));
        f.release(a);
        f.release(c);
        f.release(d);
        assert_eq!(f.floor(), Timestamp::MAX);
    }

    #[test]
    fn gc_db_prunes_across_tables() {
        let db = MemDb::new(2);
        for t in 0..2u32 {
            for k in 0..50u64 {
                for v in 0..4u64 {
                    db.table(TableId::new(t)).apply_version(
                        RowKey::new(k),
                        ver(
                            k * 4 + v + 1,
                            (k * 4 + v + 1) * 10,
                            if v == 0 { OpType::Insert } else { OpType::Update },
                            vec![(0, v as i64)],
                        ),
                    );
                }
            }
        }
        let before = db.total_versions();
        assert_eq!(before, 2 * 50 * 4);
        let stats = gc_db(&db, Timestamp::MAX);
        assert_eq!(stats.nodes, 100);
        assert_eq!(db.total_versions(), 100, "one version per row remains");
        assert_eq!(stats.pruned, before - 100);
        assert!(db.all_chains_ordered());
    }
}
