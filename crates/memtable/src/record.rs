//! Multi-version record nodes.
//!
//! Every record in the Memtable owns a *version chain* ordered by primary
//! commit: TPLR's phase 2 (Algorithm 1) appends a new version under a
//! short exclusive lock, and readers reconstruct the row visible at a
//! snapshot timestamp by walking the chain backwards.

use aets_common::sync::{read, write};
use aets_common::{ColumnId, Row, Timestamp, TxnId, Value};
use std::borrow::Cow;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The kind of DML a version carries. Alias of the shared log-level
/// operation enum: a version chain stores exactly what the value log said.
pub use aets_common::DmlOp as OpType;

/// One committed version of a record.
#[derive(Debug, Clone)]
pub struct Version {
    /// Transaction that produced this version (primary commit order).
    pub txn_id: TxnId,
    /// Commit timestamp on the primary.
    pub commit_ts: Timestamp,
    /// DML kind.
    pub op: OpType,
    /// Column payload (see [`OpType`]).
    pub cols: Row,
}

/// A version chain, oldest first. Most records are written once, and GC
/// folds most of the rest back to one version, so the lone version lives
/// in the chain itself: a whole-table walk reaches it without following a
/// pointer to a buffer of its own, and a new record costs no allocation
/// beyond its node. The chain spills to a `Vec` when a second version is
/// appended, and moves back in place when GC leaves one.
#[derive(Debug)]
pub(crate) enum Chain {
    /// Exactly one version.
    One(Version),
    /// No version (nothing allocated), or two and more.
    Many(Vec<Version>),
}

impl Default for Chain {
    fn default() -> Self {
        Chain::Many(Vec::new())
    }
}

impl std::ops::Deref for Chain {
    type Target = [Version];

    fn deref(&self) -> &[Version] {
        match self {
            Chain::One(v) => std::slice::from_ref(v),
            Chain::Many(vs) => vs,
        }
    }
}

impl std::ops::DerefMut for Chain {
    fn deref_mut(&mut self) -> &mut [Version] {
        match self {
            Chain::One(v) => std::slice::from_mut(v),
            Chain::Many(vs) => vs,
        }
    }
}

impl Chain {
    /// Appends `v` as the newest version.
    pub(crate) fn push(&mut self, v: Version) {
        match self {
            Chain::Many(vs) if !vs.is_empty() => vs.push(v),
            _ => {
                *self = match std::mem::take(self) {
                    Chain::One(first) => Chain::Many(vec![first, v]),
                    Chain::Many(_) => Chain::One(v),
                }
            }
        }
    }

    /// Drops the `n` oldest versions, `0 < n < len`, leaving no spare slot
    /// behind: a lone survivor moves back in place, a longer rest gives up
    /// the capacity the longer chain had.
    pub(crate) fn drop_oldest(&mut self, n: usize) {
        let Chain::Many(vs) = self else { unreachable!("a lone version has none older") };
        vs.drain(..n);
        if vs.len() == 1 {
            *self = Chain::One(vs.pop().expect("one version"));
        } else {
            vs.shrink_to_fit();
        }
    }

    /// Slots the chain holds room for: 1 in place, else the buffer's.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        match self {
            Chain::One(_) => 1,
            Chain::Many(vs) => vs.capacity(),
        }
    }
}

/// A record node in the Memtable.
///
/// The node address is stable for the record's lifetime: TPLR's phase 1
/// stores `Arc<RecordNode>` pointers in transaction contexts, and phase 2
/// appends to `versions` without touching the table index (Figure 6).
#[derive(Debug, Default)]
pub struct RecordNode {
    versions: RwLock<Chain>,
}

impl RecordNode {
    /// Creates an empty node (no visible versions).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a committed version (Algorithm 1 lines 9-13).
    ///
    /// The caller — the one committer of the record's table group —
    /// must append in primary commit order; this is checked in debug builds
    /// and verifiable after the fact via [`RecordNode::is_ordered`].
    pub fn append_version(&self, v: Version) {
        let mut chain = write(&self.versions);
        // Non-strict: one transaction may modify the same record twice; its
        // cells are appended in LSN order under the same txn id.
        debug_assert!(
            chain.last().is_none_or(|last| last.txn_id <= v.txn_id),
            "version appended out of commit order: {:?} after {:?}",
            v.txn_id,
            chain.last().map(|l| l.txn_id),
        );
        chain.push(v);
    }

    /// Number of versions in the chain.
    pub fn version_count(&self) -> usize {
        read(&self.versions).len()
    }

    /// Whether the version chain is in non-decreasing txn-id order — the
    /// core correctness invariant of the commit phase. (Equal adjacent ids
    /// are allowed: a single transaction touching the record twice.)
    pub fn is_ordered(&self) -> bool {
        let chain = read(&self.versions);
        chain.windows(2).all(|w| w[0].txn_id <= w[1].txn_id)
    }

    /// Reconstructs the row visible at snapshot `ts`: the merge of the
    /// latest insert at-or-before `ts` with every later update at-or-before
    /// `ts`. Returns `None` if the record does not exist at `ts` (never
    /// inserted yet, or deleted).
    pub fn read_at(&self, ts: Timestamp) -> Option<Row> {
        let chain = read(&self.versions);
        image_of(&chain[..chain.partition_point(|v| v.commit_ts <= ts)]).map(Cow::into_owned)
    }

    /// Calls `f` on the row [`RecordNode::read_at`] would return, under the
    /// chain's shared lock. The row is lent, not copied, when the newest
    /// visible version is a full insert image — a record written once, or
    /// consolidated by GC, which is most of a table: a scan that only looks
    /// at rows (filters, aggregates, digests) then allocates nothing.
    pub fn with_row_at<R>(&self, ts: Timestamp, f: impl FnOnce(&Row) -> R) -> Option<R> {
        let chain = read(&self.versions);
        image_of(&chain[..chain.partition_point(|v| v.commit_ts <= ts)]).map(|row| f(&row))
    }

    /// Whether [`RecordNode::read_at`] would return a row at `ts`, decided
    /// from the version kinds alone: nothing is allocated or cloned.
    pub fn visible_at(&self, ts: Timestamp) -> bool {
        let chain = read(&self.versions);
        let end = chain.partition_point(|v| v.commit_ts <= ts);
        // Walking back, the first insert or tombstone decides; a chain of
        // updates only is base data and visible.
        end > 0
            && chain[..end]
                .iter()
                .rfind(|v| v.op != OpType::Update)
                .is_none_or(|v| v.op == OpType::Insert)
    }

    /// Calls `f` on the value `column` has in the row visible at `ts`
    /// (`None` when that row lacks the column), read off the chain without
    /// building the row: nothing is allocated, and of each version only
    /// the columns listed before `column` are looked at. Returns `None`
    /// where [`RecordNode::read_at`] would.
    pub fn with_value_at<R>(
        &self,
        ts: Timestamp,
        column: ColumnId,
        f: impl FnOnce(Option<&Value>) -> R,
    ) -> Option<R> {
        let chain = read(&self.versions);
        let visible = &chain[..chain.partition_point(|v| v.commit_ts <= ts)];
        // Newest first, as `image_of` merges: the first listing of the
        // column is its value, but the walk goes on to the insert or the
        // tombstone that says whether there is a row at all.
        let mut found = None;
        for v in visible.iter().rev() {
            if v.op == OpType::Delete {
                return None;
            }
            if found.is_none() {
                found = v.cols.iter().find(|(cid, _)| *cid == column).map(|(_, val)| val);
            }
            if v.op == OpType::Insert {
                break;
            }
        }
        (!visible.is_empty()).then(|| f(found))
    }

    /// Shared-lock view of the whole chain, oldest version first: the
    /// snapshot codec encodes from it in place.
    pub(crate) fn chain(&self) -> RwLockReadGuard<'_, Chain> {
        read(&self.versions)
    }

    /// Exclusive-lock view of the chain: the garbage collector rewrites
    /// the prefix below its watermark in place. Callers keep the chain in
    /// commit order.
    pub(crate) fn chain_mut(&self) -> RwLockWriteGuard<'_, Chain> {
        write(&self.versions)
    }
}

/// Whether `cols` is already the row [`image_of`] would build from it
/// alone: strictly ascending column ids (sorted, no duplicates).
pub(crate) fn is_canonical(cols: &Row) -> bool {
    cols.windows(2).all(|w| w[0].0 < w[1].0)
}

/// Puts `cols` in column order, keeping of each column the value listed
/// first: the sort is stable, so that value leads its run and is the one
/// `dedup` keeps.
pub(crate) fn keep_first_per_column<V>(cols: &mut Vec<(ColumnId, V)>) {
    cols.sort_by_key(|(cid, _)| *cid);
    cols.dedup_by_key(|(cid, _)| *cid);
}

/// The row a reader reconstructs from `visible`, the versions at or below
/// its snapshot (oldest first): the newest value of every column back to
/// the anchoring insert, in column order. `None` when nothing is visible
/// or a tombstone is met first.
pub(crate) fn image_of(visible: &[Version]) -> Option<Cow<'_, Row>> {
    let newest = visible.last()?;
    // The common case: the newest visible version is itself a full insert
    // image, already in column order.
    if newest.op == OpType::Insert && is_canonical(&newest.cols) {
        return Some(Cow::Borrowed(&newest.cols));
    }
    // Walk backwards collecting column values, newest first, until the
    // anchoring insert (full image) or a tombstone.
    let mut merged: Vec<(ColumnId, &Value)> = Vec::new();
    for v in visible.iter().rev() {
        if v.op == OpType::Delete {
            return None;
        }
        merged.extend(v.cols.iter().map(|(cid, val)| (*cid, val)));
        if v.op == OpType::Insert {
            break;
        }
    }
    // Falling off the front means updates without a visible insert: the
    // record predates the replayed log (e.g. loaded base data), and the
    // merged updates are its visible image. Listed newest first, so the
    // value kept for each column is its newest.
    keep_first_per_column(&mut merged);
    Some(Cow::Owned(merged.into_iter().map(|(cid, val)| (cid, val.clone())).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ver(txn: u64, ts: u64, op: OpType, cols: Vec<(u16, i64)>) -> Version {
        Version {
            txn_id: TxnId::new(txn),
            commit_ts: Timestamp::from_micros(ts),
            op,
            cols: cols.into_iter().map(|(c, v)| (ColumnId::new(c), Value::Int(v))).collect(),
        }
    }

    #[test]
    fn read_before_any_version_is_none() {
        let n = RecordNode::new();
        assert_eq!(n.read_at(Timestamp::from_micros(100)), None);
        n.append_version(ver(1, 10, OpType::Insert, vec![(0, 1)]));
        assert_eq!(n.read_at(Timestamp::from_micros(5)), None);
    }

    #[test]
    fn insert_then_updates_merge() {
        let n = RecordNode::new();
        n.append_version(ver(1, 10, OpType::Insert, vec![(0, 1), (1, 2), (2, 3)]));
        n.append_version(ver(2, 20, OpType::Update, vec![(1, 20)]));
        n.append_version(ver(3, 30, OpType::Update, vec![(2, 30)]));

        let at = |ts| n.read_at(Timestamp::from_micros(ts)).unwrap();
        let get = |row: &Row, c: u16| {
            row.iter().find(|(cid, _)| *cid == ColumnId::new(c)).map(|(_, v)| v.clone())
        };

        let r10 = at(10);
        assert_eq!(get(&r10, 1), Some(Value::Int(2)));
        let r25 = at(25);
        assert_eq!(get(&r25, 1), Some(Value::Int(20)));
        assert_eq!(get(&r25, 2), Some(Value::Int(3)));
        let r35 = at(35);
        assert_eq!(get(&r35, 2), Some(Value::Int(30)));
        assert_eq!(get(&r35, 0), Some(Value::Int(1)));
    }

    #[test]
    fn delete_hides_record_then_reinsert_revives() {
        let n = RecordNode::new();
        n.append_version(ver(1, 10, OpType::Insert, vec![(0, 1)]));
        n.append_version(ver(2, 20, OpType::Delete, vec![]));
        n.append_version(ver(3, 30, OpType::Insert, vec![(0, 99)]));

        assert!(n.read_at(Timestamp::from_micros(15)).is_some());
        assert_eq!(n.read_at(Timestamp::from_micros(25)), None);
        let r = n.read_at(Timestamp::from_micros(35)).unwrap();
        assert_eq!(r, vec![(ColumnId::new(0), Value::Int(99))]);
    }

    #[test]
    fn updates_without_insert_are_visible() {
        // Records loaded as base data get update-only chains.
        let n = RecordNode::new();
        n.append_version(ver(5, 50, OpType::Update, vec![(0, 7)]));
        let r = n.read_at(Timestamp::from_micros(60)).unwrap();
        assert_eq!(r, vec![(ColumnId::new(0), Value::Int(7))]);
    }

    #[test]
    fn version_metadata_accessors() {
        let n = RecordNode::new();
        n.append_version(ver(1, 10, OpType::Insert, vec![(0, 1)]));
        n.append_version(ver(4, 40, OpType::Update, vec![(0, 2)]));
        assert_eq!(n.version_count(), 2);
        assert!(n.is_ordered());
    }

    #[test]
    fn a_lone_version_lives_in_its_node() {
        use std::mem::size_of;
        // The inline variant is no wider than the version it holds: the
        // spilled `Vec` fits beside the niche in `Version::op`.
        assert_eq!(size_of::<Chain>(), size_of::<Version>());
        // `Arc<RecordNode>` allocates the node behind two counts: 16 + 64
        // = 80 bytes, which glibc's malloc serves from its 96-byte chunk
        // class (request + 8-byte header, rounded up to 16). A record
        // written once costs that one chunk and its columns' buffer.
        assert!(size_of::<RecordNode>() <= 64, "{} bytes", size_of::<RecordNode>());
    }

    #[test]
    #[should_panic(expected = "out of commit order")]
    #[cfg(debug_assertions)]
    fn out_of_order_append_panics_in_debug() {
        let n = RecordNode::new();
        n.append_version(ver(5, 50, OpType::Insert, vec![]));
        n.append_version(ver(3, 30, OpType::Update, vec![]));
    }
}
