//! Per-table Memtable and the whole-database container.

use crate::bptree::BPlusTree;
use crate::record::{RecordNode, Version};
use aets_common::sync::{read, write};
use aets_common::{Row, RowKey, TableId, Timestamp};
use std::sync::{Arc, RwLock};

/// One table of the backup Memtable: a B+Tree from row key to a stable,
/// shareable [`RecordNode`].
///
/// Lock protocol: the index `RwLock` guards only the *structure* of the
/// B+Tree. Phase-1 lookups take the read lock, once per run of keys
/// ([`Table::nodes_or_insert`]); inserting brand-new record nodes (first
/// time a key is seen) takes the write lock, once per run. Version chains
/// are mutated through the node's own lock, never through the index lock.
///
/// No caller holds two tables' index guards at once. `std`'s `RwLock`
/// prefers writers: a reader queues behind a waiting writer even while
/// other readers — a query scan holds its guard for a whole walk — are
/// inside. Two threads that each held one table's guard while asking for
/// the other's would wait on each other through the queued writers.
#[derive(Debug)]
pub struct Table {
    id: TableId,
    index: RwLock<BPlusTree<RowKey, Arc<RecordNode>>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: TableId) -> Self {
        Self { id, index: RwLock::new(BPlusTree::new()) }
    }

    /// Table identifier.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// Number of record nodes (including not-yet-visible ones).
    pub fn len(&self) -> usize {
        read(&self.index).len()
    }

    /// Whether the table has no record nodes.
    pub fn is_empty(&self) -> bool {
        read(&self.index).is_empty()
    }

    /// Looks up the node for `key`, if present.
    pub fn node(&self, key: RowKey) -> Option<Arc<RecordNode>> {
        read(&self.index).get(&key).cloned()
    }

    /// Looks up or creates the node for `key`: the one-key case of
    /// [`Table::nodes_or_insert`]. A new node stays invisible until the
    /// commit phase appends its first version.
    pub fn node_or_insert(&self, key: RowKey) -> Arc<RecordNode> {
        let mut out = [None];
        self.nodes_or_insert([(key, 0)], &mut out);
        out[0].take().expect("nodes_or_insert resolves every slot")
    }

    /// Resolves every `(key, slot)` of `run` into `out[slot]`, creating
    /// the nodes of new keys: one read guard for the run, then one write
    /// guard for its misses. Each miss is re-checked under the write
    /// guard — another thread, or an earlier duplicate in `run`, may have
    /// inserted it in between — so a key only ever gets one node.
    pub fn nodes_or_insert<I>(&self, run: I, out: &mut [Option<Arc<RecordNode>>])
    where
        I: IntoIterator<Item = (RowKey, usize)> + Clone,
    {
        let index = read(&self.index);
        // A key past the table's last one is new without a lookup: most new
        // keys are appends. The last key is found at the first miss of a
        // run of several keys, so neither a run of hits nor a lone key
        // (which has nothing to share the walk with) pays for it.
        let several = run.clone().into_iter().nth(1).is_some();
        let mut last = None;
        let mut missed = false;
        for (key, slot) in run.clone() {
            out[slot] = match last {
                Some(last) if Some(key) > last => None,
                _ => index.get(&key).cloned(),
            };
            if out[slot].is_none() {
                missed = true;
                if several {
                    last.get_or_insert_with(|| index.last_key().copied());
                }
            }
        }
        drop(index);
        if !missed {
            return;
        }
        let mut index = write(&self.index);
        for (key, slot) in run {
            if out[slot].is_none() {
                // The insert is the re-check: a node it displaces is put
                // back, and is the key's node. So a miss costs one walk of
                // the tree under this guard, not a lookup and an insert.
                let node = Arc::new(RecordNode::new());
                out[slot] = Some(match index.insert(key, node.clone()) {
                    None => node,
                    Some(old) => {
                        index.insert(key, old.clone());
                        old
                    }
                });
            }
        }
    }

    /// Convenience: append a committed version directly (used by the serial
    /// oracle and by tests; the parallel engines go through phase-1 cells).
    pub fn apply_version(&self, key: RowKey, v: Version) {
        self.node_or_insert(key).append_version(v);
    }

    /// Snapshot point read at `ts`.
    pub fn read_row(&self, key: RowKey, ts: Timestamp) -> Option<Row> {
        self.node(key).and_then(|n| n.read_at(ts))
    }

    /// Counts rows visible at `ts`, without reconstructing any of them.
    pub fn count_at(&self, ts: Timestamp) -> usize {
        let mut n = 0;
        self.for_each_node(|_, node| n += usize::from(node.visible_at(ts)));
        n
    }

    /// Visits every record node in key order under the index's shared
    /// lock, without cloning the `Arc`s. Whole-table passes (GC, the
    /// snapshot codec) lock each chain in turn from here; `f` must not
    /// touch this table's index.
    pub(crate) fn for_each_node<F: FnMut(RowKey, &RecordNode)>(&self, mut f: F) {
        read(&self.index).scan(|k, n| f(*k, n));
    }

    /// [`Table::for_each_node`] over the inclusive key range `[lo, hi]`.
    pub(crate) fn for_each_node_in<F: FnMut(RowKey, &RecordNode)>(
        &self,
        lo: RowKey,
        hi: RowKey,
        mut f: F,
    ) {
        read(&self.index).range_scan(&lo, &hi, |k, n| f(*k, n));
    }

    /// Up to `parts - 1` keys that cut `[lo, hi]` into key ranges of
    /// about equal size, none for a range estimated at fewer than
    /// [`crate::MIN_CUT_LEN`] records ([`BPlusTree::cut`]). A cut `c`
    /// starts a range: the one before it ends at `c - 1`.
    pub fn cut(&self, lo: RowKey, hi: RowKey, parts: usize) -> Vec<RowKey> {
        read(&self.index).cut(&lo, &hi, parts)
    }

    /// Snapshot of every `(key, node)` pair in key order (clones the
    /// `Arc`s, so the index lock is released before the caller uses them).
    pub fn entries(&self) -> Vec<(RowKey, Arc<RecordNode>)> {
        let index = read(&self.index);
        let mut out = Vec::with_capacity(index.len());
        index.scan(|k, n| out.push((*k, n.clone())));
        out
    }

    /// Checks the commit-order invariant on every version chain.
    pub fn all_chains_ordered(&self) -> bool {
        let mut ok = true;
        self.for_each_node(|_, n| ok &= n.is_ordered());
        ok
    }

    /// Total number of versions across all chains.
    pub fn total_versions(&self) -> usize {
        let mut n = 0;
        self.for_each_node(|_, node| n += node.version_count());
        n
    }

    /// Order-sensitive digest of the table contents visible at `ts`.
    /// Two tables with identical visible snapshots produce equal digests;
    /// used to check that different replay engines converge to the same
    /// state.
    pub fn digest_at(&self, ts: Timestamp) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = aets_common::FxHasher::default();
        self.for_each_node(|k, node| {
            node.with_row_at(ts, |row| {
                k.raw().hash(&mut h);
                for (cid, v) in row {
                    cid.raw().hash(&mut h);
                    match v {
                        aets_common::Value::Null => 0u8.hash(&mut h),
                        aets_common::Value::Int(i) => i.hash(&mut h),
                        aets_common::Value::Float(f) => f.to_bits().hash(&mut h),
                        aets_common::Value::Text(s) => s.hash(&mut h),
                        aets_common::Value::Bytes(b) => b.hash(&mut h),
                    }
                }
            });
        });
        h.finish()
    }
}

/// The backup node's in-memory database: one [`Table`] per table id.
#[derive(Debug)]
pub struct MemDb {
    tables: Vec<Table>,
}

impl MemDb {
    /// Creates a database with tables `0..num_tables`.
    pub fn new(num_tables: usize) -> Self {
        Self { tables: (0..num_tables).map(|i| Table::new(TableId::new(i as u32))).collect() }
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Access a table by id. Panics on out-of-range ids (schema mismatch is
    /// a programming error, not a runtime condition).
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.index()]
    }

    /// Iterates over all tables.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.iter()
    }

    /// Checks the commit-order invariant database-wide.
    pub fn all_chains_ordered(&self) -> bool {
        self.tables.iter().all(|t| t.all_chains_ordered())
    }

    /// Total versions across the database.
    pub fn total_versions(&self) -> usize {
        self.tables.iter().map(|t| t.total_versions()).sum()
    }

    /// Database-wide snapshot digest at `ts` (see [`Table::digest_at`]).
    pub fn digest_at(&self, ts: Timestamp) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = aets_common::FxHasher::default();
        for t in &self.tables {
            t.digest_at(ts).hash(&mut h);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::OpType;
    use aets_common::{ColumnId, TxnId, Value};
    use std::thread;

    fn version(txn: u64, ts: u64, v: i64) -> Version {
        Version {
            txn_id: TxnId::new(txn),
            commit_ts: Timestamp::from_micros(ts),
            op: OpType::Insert,
            cols: vec![(ColumnId::new(0), Value::Int(v))],
        }
    }

    #[test]
    fn node_or_insert_is_idempotent() {
        let t = Table::new(TableId::new(0));
        let a = t.node_or_insert(RowKey::new(7));
        let b = t.node_or_insert(RowKey::new(7));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn invisible_until_version_appended() {
        let t = Table::new(TableId::new(0));
        let _node = t.node_or_insert(RowKey::new(1));
        assert_eq!(t.count_at(Timestamp::MAX), 0);
        t.apply_version(RowKey::new(1), version(1, 10, 5));
        assert_eq!(t.count_at(Timestamp::MAX), 1);
        assert_eq!(t.count_at(Timestamp::from_micros(9)), 0);
    }

    #[test]
    fn scan_at_sees_snapshot() {
        let t = Table::new(TableId::new(0));
        for i in 0..100u64 {
            t.apply_version(RowKey::new(i), version(i + 1, (i + 1) * 10, i as i64));
        }
        assert_eq!(t.count_at(Timestamp::from_micros(500)), 50);
        let keys: Vec<u64> = crate::query::Scan::at(Timestamp::from_micros(305))
            .collect(&t)
            .into_iter()
            .map(|(k, _)| k.raw())
            .collect();
        assert_eq!(keys, (0..30).collect::<Vec<_>>());
    }

    /// `(key, slot)` pairs for `keys`, in order.
    fn run(keys: &[u64]) -> Vec<(RowKey, usize)> {
        keys.iter().enumerate().map(|(slot, &k)| (RowKey::new(k), slot)).collect()
    }

    #[test]
    fn nodes_or_insert_resolves_hits_and_misses_like_node_or_insert() {
        let t = Table::new(TableId::new(0));
        let old = [2u64, 4, 6].map(|k| t.node_or_insert(RowKey::new(k)));
        let keys = [9u64, 2, 3, 6, 1, 4];
        let mut out = vec![None; keys.len()];
        t.nodes_or_insert(run(&keys), &mut out);
        assert_eq!(t.len(), 6);
        for (&k, node) in keys.iter().zip(&out) {
            let node = node.as_ref().expect("every slot resolved");
            assert!(Arc::ptr_eq(node, &t.node_or_insert(RowKey::new(k))), "key {k}");
        }
        // Slots 1, 5 and 3 hold keys 2, 4 and 6, which existed before.
        for (slot, node) in [1, 5, 3].into_iter().zip(&old) {
            assert!(Arc::ptr_eq(out[slot].as_ref().unwrap(), node), "a hit kept its node");
        }
    }

    #[test]
    fn nodes_or_insert_gives_a_repeated_key_one_node() {
        let t = Table::new(TableId::new(0));
        let keys = [5u64, 5, 8, 5];
        let mut out = vec![None; keys.len()];
        t.nodes_or_insert(run(&keys), &mut out);
        assert_eq!(t.len(), 2);
        let five = t.node(RowKey::new(5)).unwrap();
        for slot in [0, 1, 3] {
            assert!(Arc::ptr_eq(out[slot].as_ref().unwrap(), &five), "slot {slot}");
        }
    }

    #[test]
    fn concurrent_node_or_insert_races_safely() {
        let t = Arc::new(Table::new(TableId::new(0)));
        let mut handles = Vec::new();
        for tid in 0..8 {
            let t = t.clone();
            handles.push(thread::spawn(move || {
                for i in 0..500u64 {
                    let _ = t.node_or_insert(RowKey::new(i % 100));
                    let _ = t.node(RowKey::new((i + tid) % 100));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 100);

        // Batches: every round, 8 threads start together on overlapping
        // runs of fresh keys, so misses race between the read and the
        // write guard. Each key must end with one node, the one every
        // thread was handed.
        const ROUNDS: u64 = 200;
        let start = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8u64)
            .map(|tid| {
                let (t, start) = (t.clone(), start.clone());
                thread::spawn(move || {
                    let mut got = Vec::new();
                    for round in 0..ROUNDS {
                        let base = 1_000 + round * 64;
                        let keys: Vec<u64> = (0..32).map(|i| base + (i + tid * 4) % 64).collect();
                        let mut out = vec![None; keys.len()];
                        start.wait();
                        t.nodes_or_insert(run(&keys), &mut out);
                        got.extend(keys.into_iter().zip(out.into_iter().map(Option::unwrap)));
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            for (k, node) in h.join().unwrap() {
                assert!(Arc::ptr_eq(&node, &t.node(RowKey::new(k)).unwrap()), "key {k}");
            }
        }
        assert_eq!(t.len(), 100 + 60 * ROUNDS as usize);
    }

    #[test]
    fn memdb_indexes_tables() {
        let db = MemDb::new(3);
        assert_eq!(db.num_tables(), 3);
        db.table(TableId::new(2)).apply_version(RowKey::new(1), version(1, 1, 1));
        assert_eq!(db.total_versions(), 1);
        assert!(db.all_chains_ordered());
    }
}
