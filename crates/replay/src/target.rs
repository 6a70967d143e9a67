//! One generic query surface over every serving topology.
//!
//! Three near-duplicate query entry points grew alongside the serving
//! stack: the single-node [`BackupNode`] (session → submit → wait), the
//! sharded `Fleet` in `aets-fleet` (route → fan out → merge), and the
//! bare serial-oracle [`MemDb`] that chaos tests compare against (a
//! hand-rolled `Scan` per output kind, re-written in every test file).
//! [`QueryTarget`] folds them into one surface: `safe_ts()` names the
//! freshest timestamp the target admits without waiting, and
//! [`QueryTarget::query_at`] runs a batch of [`QuerySpec`]s as one
//! snapshot read. Benches, the trace replayer's sink, and the chaos
//! oracles all drive this trait instead of per-topology glue, so a
//! harness written against one target runs unchanged against the others.

use std::convert::Infallible;
use std::sync::Arc;

use aets_common::{Error, Result, Row, RowKey, TableId, Timestamp};
use aets_memtable::{AggState, MemDb, Scan};

use crate::service::{BackupNode, OutputKind, QueryHandle, QueryOutput, QuerySpec};

/// Something queries can be pointed at: a node, a fleet, or a plain
/// oracle database.
///
/// Implementations pin `qts` against GC for the duration of the read
/// (where GC exists) and surface admission failures — timeouts,
/// quarantined groups, dark shards — as errors rather than stale data.
pub trait QueryTarget {
    /// The freshest timestamp a query admits without waiting: `qts` at
    /// or below this is immediately visible everywhere the target serves
    /// from. Monotone.
    fn safe_ts(&self) -> Timestamp;

    /// Runs `specs` as one snapshot read at `qts`, returning outputs in
    /// spec order.
    fn query_at(&self, qts: Timestamp, specs: &[QuerySpec]) -> Result<Vec<QueryOutput>>;

    /// Single-spec convenience over [`QueryTarget::query_at`].
    fn query_one(&self, qts: Timestamp, spec: QuerySpec) -> Result<QueryOutput> {
        let mut outs = self.query_at(qts, std::slice::from_ref(&spec))?;
        outs.pop().ok_or_else(|| Error::Replay("query_at returned no output".into()))
    }
}

/// Evaluates `spec` directly against `db`'s MVCC snapshot at `qts` — the
/// shared oracle-answer path, and the one-part case of `try_eval_part`,
/// serial. No admission, no pinning: the caller guarantees the snapshot is
/// reachable (serial oracles never GC).
pub fn eval_spec(db: &MemDb, spec: &QuerySpec, qts: Timestamp) -> QueryOutput {
    let whole = try_eval_part(db, spec, qts, spec.key_range, || Ok::<(), Infallible>(()));
    whole.unwrap_or_else(|e| match e {}).finish()
}

/// `spec` over the key range `keys` (its own, or a part of it) at `qts`,
/// as a [`Partial`] that merges with the parts after it. A stop check is
/// asked before each scanned record; its first error ends the evaluation
/// ([`Scan::try_collect`]). Each output reads no more of a row than it
/// needs: a count no row at all, an aggregate its one column. This is the
/// one evaluator: the query workers run it with their cancel/deadline
/// check, everything else unchecked.
pub(crate) fn try_eval_part<E>(
    db: &MemDb,
    spec: &QuerySpec,
    qts: Timestamp,
    keys: Option<(RowKey, RowKey)>,
    check: impl FnMut() -> std::result::Result<(), E>,
) -> std::result::Result<Partial, E> {
    let scan = Scan { ts: qts, key_range: keys, filters: spec.filters.clone() };
    let table = db.table(spec.table);
    Ok(match &spec.output {
        OutputKind::Rows => Partial::Rows(scan.try_collect(table, check)?),
        OutputKind::Count => Partial::Count(scan.try_count(table, check)?),
        OutputKind::AggregateCol { column, agg } => {
            Partial::Aggregate(Box::new(scan.try_aggregate(table, *column, *agg, check)?))
        }
    })
}

/// One key range's answer to a spec, in the mergeable form of its
/// [`OutputKind`]. Merged in key order, the parts of a range answer what
/// the whole range does, exactly: rows concatenate, counts add, and an
/// [`AggState`] is independent of how its values were split.
pub(crate) enum Partial {
    Rows(Vec<(RowKey, Row)>),
    Count(usize),
    Aggregate(Box<AggState>),
}

impl Partial {
    /// Folds in the answer of the key range that follows this one.
    pub(crate) fn merge(mut self, next: Partial) -> Partial {
        match (&mut self, next) {
            (Partial::Rows(a), Partial::Rows(b)) => a.extend(b),
            (Partial::Count(a), Partial::Count(b)) => *a += b,
            (Partial::Aggregate(a), Partial::Aggregate(b)) => a.merge(&b),
            _ => unreachable!("the parts of one spec have one output kind"),
        }
        self
    }

    pub(crate) fn finish(self) -> QueryOutput {
        match self {
            Partial::Rows(rows) => QueryOutput::Rows(rows),
            Partial::Count(n) => QueryOutput::Count(n),
            Partial::Aggregate(state) => QueryOutput::Aggregate(state.finish()),
        }
    }
}

/// The serial oracle is a target too: every timestamp is safe (there is
/// no replay to wait on) and specs evaluate straight off version chains.
impl QueryTarget for MemDb {
    fn safe_ts(&self) -> Timestamp {
        Timestamp::MAX
    }

    fn query_at(&self, qts: Timestamp, specs: &[QuerySpec]) -> Result<Vec<QueryOutput>> {
        Ok(specs.iter().map(|s| eval_spec(self, s, qts)).collect())
    }
}

impl QueryTarget for BackupNode {
    fn safe_ts(&self) -> Timestamp {
        self.board().global_cmt_ts()
    }

    /// One session over the union footprint of `specs`: the pin holds
    /// GC below `qts` until every handle resolves, and each spec goes
    /// through the node's admission queue like any other query.
    fn query_at(&self, qts: Timestamp, specs: &[QuerySpec]) -> Result<Vec<QueryOutput>> {
        let mut tables: Vec<TableId> = specs.iter().map(|s| s.table).collect();
        tables.sort_unstable();
        tables.dedup();
        let session = self.open_session(qts, &tables);
        let handles: Vec<QueryHandle> =
            specs.iter().map(|s| session.submit(s.clone())).collect::<Result<_>>()?;
        handles.into_iter().map(|h| h.wait()).collect()
    }
}

/// `Arc`-wrapped targets forward, so shared ownership doesn't fall off
/// the generic surface.
impl<T: QueryTarget + ?Sized> QueryTarget for Arc<T> {
    fn safe_ts(&self) -> Timestamp {
        (**self).safe_ts()
    }

    fn query_at(&self, qts: Timestamp, specs: &[QuerySpec]) -> Result<Vec<QueryOutput>> {
        (**self).query_at(qts, specs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::serial::SerialEngine;
    use crate::engines::ReplayEngine;
    use crate::grouping::TableGrouping;
    use crate::service::NodeOptions;
    use aets_common::{ColumnId, DmlOp, FxHashSet, Lsn, RowKey, TxnId, Value};
    use aets_memtable::{Aggregate, CmpOp, Filter};
    use aets_wal::{batch_into_epochs, encode_epoch, DmlEntry, TxnLog};

    fn entry(table: u32, key: u64, ts: u64, txn: u64) -> DmlEntry {
        DmlEntry {
            lsn: Lsn::new(ts),
            txn_id: TxnId::new(txn),
            ts: Timestamp::from_micros(ts),
            table: TableId::new(table),
            op: DmlOp::Insert,
            key: RowKey::new(key),
            row_version: 1,
            cols: vec![(ColumnId::new(0), Value::Int(ts as i64))],
            before: None,
        }
    }

    fn two_epochs() -> Vec<aets_wal::EncodedEpoch> {
        let txns: Vec<TxnLog> = (1..=2u64)
            .map(|i| TxnLog {
                txn_id: TxnId::new(i),
                commit_ts: Timestamp::from_micros(i * 10),
                entries: vec![entry(0, i, i * 10, i), entry(1, i, i * 10, i)],
            })
            .collect();
        batch_into_epochs(txns, 1).unwrap().iter().map(encode_epoch).collect()
    }

    #[test]
    fn node_and_oracle_targets_agree() {
        let epochs = two_epochs();
        let oracle = MemDb::new(2);
        SerialEngine.replay_all(&epochs, &oracle).unwrap();

        let hot: FxHashSet<TableId> = [TableId::new(0)].into_iter().collect();
        let grouping =
            TableGrouping::new(2, vec![vec![TableId::new(0), TableId::new(1)]], vec![1.0], &hot)
                .unwrap();
        let engine = crate::engines::aets::AetsEngine::builder(grouping).build().unwrap();
        let node = BackupNode::builder()
            .engine(Arc::new(engine))
            .num_tables(2)
            .options(NodeOptions { query_workers: 1, ..Default::default() })
            .build()
            .unwrap();
        node.replay(&epochs).unwrap();

        let qts = node.safe_ts();
        assert_eq!(qts, Timestamp::from_micros(20));
        let (t0, t1, col) = (TableId::new(0), TableId::new(1), ColumnId::new(0));
        let late = Filter { column: col, op: CmpOp::Gt, value: Value::Int(10) };
        let specs = vec![
            QuerySpec::count(t0),
            QuerySpec::rows(t1),
            QuerySpec::aggregate(t0, col, Aggregate::Sum),
            QuerySpec::aggregate(t1, col, Aggregate::Avg),
            QuerySpec::rows(t1).filter(late.clone()),
            QuerySpec::count(t0).keys(RowKey::new(2), RowKey::new(9)),
            QuerySpec::aggregate(t0, col, Aggregate::Min).keys(RowKey::new(1), RowKey::new(2)),
            QuerySpec::aggregate(t1, col, Aggregate::Max).filter(late),
        ];
        let got = node.query_at(qts, &specs).unwrap();
        let want = oracle.query_at(qts, &specs).unwrap();
        assert_eq!(got, want, "node target must match the oracle target spec-for-spec");
        assert_eq!(got[0], QueryOutput::Count(2));
        assert_eq!(got[3], QueryOutput::Aggregate(Some(15.0)));
        assert!(
            matches!(&got[4], QueryOutput::Rows(r) if r.len() == 1 && r[0].0 == RowKey::new(2))
        );
        assert_eq!(got[5], QueryOutput::Count(1));
        assert_eq!(got[6], QueryOutput::Aggregate(Some(10.0)));
    }

    #[test]
    fn query_one_returns_the_single_output() {
        let epochs = two_epochs();
        let oracle = MemDb::new(2);
        SerialEngine.replay_all(&epochs, &oracle).unwrap();
        let out = oracle.query_one(Timestamp::from_micros(10), QuerySpec::count(TableId::new(0)));
        assert_eq!(out.unwrap(), QueryOutput::Count(1));
        assert_eq!(oracle.safe_ts(), Timestamp::MAX);
    }
}
