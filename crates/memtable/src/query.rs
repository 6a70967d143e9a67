//! Snapshot query processing over the Memtable.
//!
//! The backup node exists to answer analytical queries; this module gives
//! them an execution surface: predicate scans, projections, and
//! aggregates, all evaluated against the MVCC snapshot at a query's
//! `qts` — so a query admitted by Algorithm 3 computes over exactly the
//! primary's committed prefix at its arrival time.

use crate::exact::ExactSum;
use crate::record::RecordNode;
use crate::table::Table;
use aets_common::{ColumnId, Row, RowKey, Timestamp, Value};
use std::cmp::Ordering;
use std::convert::Infallible;

/// Comparison operator of a filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

/// A column filter (`col <op> literal`). Rows missing the column never
/// match.
#[derive(Debug, Clone)]
pub struct Filter {
    /// Filtered column.
    pub column: ColumnId,
    /// Comparison.
    pub op: CmpOp,
    /// Literal to compare against.
    pub value: Value,
}

impl Filter {
    /// Whether `row` satisfies the filter.
    pub fn matches(&self, row: &Row) -> bool {
        let Some((_, v)) = row.iter().find(|(c, _)| *c == self.column) else {
            return false;
        };
        let Some(ord) = compare_values(v, &self.value) else {
            return false;
        };
        match self.op {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// Compares two values: numerics compare numerically across `Int`/
/// `Float`; text and bytes compare lexicographically; mixed kinds (and
/// NULLs) are incomparable.
pub fn compare_values(a: &Value, b: &Value) -> Option<Ordering> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Some(x.cmp(y)),
        (Value::Float(x), Value::Float(y)) => x.partial_cmp(y),
        (Value::Int(x), Value::Float(y)) => (*x as f64).partial_cmp(y),
        (Value::Float(x), Value::Int(y)) => x.partial_cmp(&(*y as f64)),
        (Value::Text(x), Value::Text(y)) => Some(x.cmp(y)),
        (Value::Bytes(x), Value::Bytes(y)) => Some(x.cmp(y)),
        _ => None,
    }
}

/// A snapshot scan over one table.
#[derive(Debug, Clone)]
pub struct Scan {
    /// Snapshot timestamp (a query's `qts`).
    pub ts: Timestamp,
    /// Optional inclusive key range (uses the B+Tree's ordered scan).
    pub key_range: Option<(RowKey, RowKey)>,
    /// Conjunction of filters.
    pub filters: Vec<Filter>,
}

impl Scan {
    /// Full-table snapshot scan at `ts`.
    pub fn at(ts: Timestamp) -> Self {
        Self { ts, key_range: None, filters: Vec::new() }
    }

    /// Restricts to an inclusive key range.
    pub fn keys(mut self, lo: RowKey, hi: RowKey) -> Self {
        self.key_range = Some((lo, hi));
        self
    }

    /// Adds a filter.
    pub fn filter(mut self, column: ColumnId, op: CmpOp, value: Value) -> Self {
        self.filters.push(Filter { column, op, value });
        self
    }

    /// Visits the record nodes in the scan's key range, in key order,
    /// asking `check` before each. Its first error ends the visits — no
    /// chain is read after it — and is returned once the index walk,
    /// which has no early exit, is over.
    fn nodes<E>(
        &self,
        table: &Table,
        mut check: impl FnMut() -> Result<(), E>,
        mut f: impl FnMut(RowKey, &RecordNode),
    ) -> Result<(), E> {
        let mut stopped = None;
        let visit = |k, node: &RecordNode| {
            if stopped.is_none() {
                stopped = check().err();
            }
            if stopped.is_none() {
                f(k, node);
            }
        };
        match self.key_range {
            Some((lo, hi)) => table.for_each_node_in(lo, hi, visit),
            None => table.for_each_node(visit),
        }
        stopped.map_or(Ok(()), Err)
    }

    /// Invokes `f` with every matching row in key order, lending the row
    /// instead of copying it out ([`RecordNode::with_row_at`]). `f` runs
    /// under the row's shared lock.
    fn for_each_ref<E>(
        &self,
        table: &Table,
        check: impl FnMut() -> Result<(), E>,
        mut f: impl FnMut(RowKey, &Row),
    ) -> Result<(), E> {
        self.nodes(table, check, |k, node| {
            node.with_row_at(self.ts, |row| {
                if self.filters.iter().all(|p| p.matches(row)) {
                    f(k, row);
                }
            });
        })
    }

    /// Invokes `f` with the value of `column` in every matching row
    /// (`None` where the row lacks it), in key order. Without filters no
    /// row is built: the value is read off the chain
    /// ([`RecordNode::with_value_at`]).
    fn for_each_value<E>(
        &self,
        table: &Table,
        column: ColumnId,
        check: impl FnMut() -> Result<(), E>,
        mut f: impl FnMut(RowKey, Option<&Value>),
    ) -> Result<(), E> {
        if self.filters.is_empty() {
            self.nodes(table, check, |k, node| {
                node.with_value_at(self.ts, column, |v| f(k, v));
            })
        } else {
            self.for_each_ref(table, check, |k, row| {
                f(k, row.iter().find(|(c, _)| *c == column).map(|(_, v)| v));
            })
        }
    }

    /// Materializes matching rows.
    pub fn collect(&self, table: &Table) -> Vec<(RowKey, Row)> {
        self.try_collect(table, go_on).unwrap_or_else(|e| match e {})
    }

    /// Counts matching rows.
    pub fn count(&self, table: &Table) -> usize {
        self.try_count(table, go_on).unwrap_or_else(|e| match e {})
    }

    /// Numeric aggregate over a column of the matching rows. Non-numeric
    /// and missing column values are skipped; returns `None` when no row
    /// contributed. Sum and Avg are correctly rounded ([`AggState`]).
    pub fn aggregate(&self, table: &Table, column: ColumnId, agg: Aggregate) -> Option<f64> {
        self.try_aggregate(table, column, agg, go_on).unwrap_or_else(|e| match e {}).finish()
    }

    /// [`Scan::collect`] under a stop check: `check` is asked before each
    /// record in the key range is visited, and its first `Err` ends the
    /// scan and is returned in place of the rows.
    pub fn try_collect<E>(
        &self,
        table: &Table,
        check: impl FnMut() -> Result<(), E>,
    ) -> Result<Vec<(RowKey, Row)>, E> {
        let mut out = Vec::new();
        self.for_each_ref(table, check, |k, row| out.push((k, row.clone())))?;
        Ok(out)
    }

    /// [`Scan::count`] under a stop check (see [`Scan::try_collect`]).
    /// Without filters no row is read: the version kinds alone say which
    /// records are visible ([`RecordNode::visible_at`]).
    pub fn try_count<E>(
        &self,
        table: &Table,
        check: impl FnMut() -> Result<(), E>,
    ) -> Result<usize, E> {
        let mut n = 0;
        if self.filters.is_empty() {
            self.nodes(table, check, |_, node| n += usize::from(node.visible_at(self.ts)))?;
        } else {
            self.for_each_ref(table, check, |_, _| n += 1)?;
        }
        Ok(n)
    }

    /// [`Scan::aggregate`] under a stop check (see [`Scan::try_collect`]),
    /// before [`AggState::finish`]: a state to merge with other ranges'.
    pub fn try_aggregate<E>(
        &self,
        table: &Table,
        column: ColumnId,
        agg: Aggregate,
        check: impl FnMut() -> Result<(), E>,
    ) -> Result<AggState, E> {
        let mut acc = AggState::new(agg);
        self.for_each_value(table, column, check, |_, v| {
            if let Some(v) = v.and_then(numeric) {
                acc.push(v);
            }
        })?;
        Ok(acc)
    }
}

/// Aggregate kind for [`Scan::aggregate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Sum of values.
    Sum,
    /// Arithmetic mean.
    Avg,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// A mergeable partial [`Aggregate`]. Sum and Avg stay exact until
/// `finish` rounds them once ([`ExactSum`]); Min and Max pick by
/// `total_cmp`, NaN only when nothing else came. So the answer depends
/// neither on the order of the values nor on how they were split.
#[derive(Debug, Clone)]
pub struct AggState {
    agg: Aggregate,
    n: u64,
    sum: ExactSum,
    /// The Min or Max so far.
    best: Option<f64>,
}

impl AggState {
    /// The state of no values.
    pub fn new(agg: Aggregate) -> Self {
        Self { agg, n: 0, sum: ExactSum::default(), best: None }
    }

    /// Adds one value.
    #[inline]
    pub fn push(&mut self, v: f64) {
        self.n += 1;
        match self.agg {
            Aggregate::Sum | Aggregate::Avg => self.sum.push(v),
            Aggregate::Min | Aggregate::Max => self.best = Some(self.pick(v)),
        }
    }

    /// Adds every value `other` saw; `other` is of the same [`Aggregate`].
    pub fn merge(&mut self, other: &AggState) {
        self.n += other.n;
        self.sum.merge(&other.sum);
        self.best = other.best.map_or(self.best, |v| Some(self.pick(v)));
    }

    /// The aggregate; `None` when no value came.
    pub fn finish(&self) -> Option<f64> {
        match self.agg {
            Aggregate::Sum => (self.n > 0).then(|| self.sum.sum()),
            Aggregate::Avg => (self.n > 0).then(|| self.sum.mean(self.n)),
            Aggregate::Min | Aggregate::Max => self.best,
        }
    }

    /// Whichever of `v` and the best so far the Min (Max) keeps.
    fn pick(&self, v: f64) -> f64 {
        let Some(best) = self.best else { return v };
        let flip = |x: f64| if self.agg == Aggregate::Max { -x } else { x };
        let v_first = match (v.is_nan(), best.is_nan()) {
            (false, true) => true,
            (true, false) => false,
            _ => flip(v).total_cmp(&flip(best)).is_lt(),
        };
        if v_first {
            v
        } else {
            best
        }
    }
}

/// The check that never stops a scan; with it a `try_*` terminal is the
/// plain one (an `Option<Infallible>` is always `None`, so the stop test
/// compiles away).
fn go_on() -> Result<(), Infallible> {
    Ok(())
}

/// The number in `v`, if it is one.
fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{OpType, Version};
    use aets_common::{TableId, TxnId};

    fn table_with_rows() -> Table {
        let t = Table::new(TableId::new(0));
        for i in 0..100u64 {
            t.apply_version(
                RowKey::new(i),
                Version {
                    txn_id: TxnId::new(i + 1),
                    commit_ts: Timestamp::from_micros((i + 1) * 10),
                    op: OpType::Insert,
                    cols: vec![
                        (ColumnId::new(0), Value::Int(i as i64 % 10)), // group
                        (ColumnId::new(1), Value::Float(i as f64)),    // amount
                        (
                            ColumnId::new(2),
                            Value::Text(if i % 2 == 0 { "even" } else { "odd" }.into()),
                        ),
                    ],
                },
            );
        }
        t
    }

    #[test]
    fn filters_compare_across_numeric_kinds() {
        let row: Row = vec![(ColumnId::new(0), Value::Int(5))];
        let f = Filter { column: ColumnId::new(0), op: CmpOp::Gt, value: Value::Float(4.5) };
        assert!(f.matches(&row));
        let f2 = Filter { column: ColumnId::new(0), op: CmpOp::Lt, value: Value::Float(4.5) };
        assert!(!f2.matches(&row));
        // Missing column and incomparable kinds never match.
        let f3 = Filter { column: ColumnId::new(9), op: CmpOp::Eq, value: Value::Int(5) };
        assert!(!f3.matches(&row));
        let f4 = Filter { column: ColumnId::new(0), op: CmpOp::Eq, value: Value::Text("5".into()) };
        assert!(!f4.matches(&row));
    }

    #[test]
    fn scan_filters_and_counts() {
        let t = table_with_rows();
        let all = Scan::at(Timestamp::MAX).count(&t);
        assert_eq!(all, 100);
        let evens = Scan::at(Timestamp::MAX)
            .filter(ColumnId::new(2), CmpOp::Eq, Value::Text("even".into()))
            .count(&t);
        assert_eq!(evens, 50);
        let conj = Scan::at(Timestamp::MAX)
            .filter(ColumnId::new(2), CmpOp::Eq, Value::Text("even".into()))
            .filter(ColumnId::new(1), CmpOp::Ge, Value::Int(50))
            .count(&t);
        assert_eq!(conj, 25);
    }

    #[test]
    fn scan_respects_snapshot_and_key_range() {
        let t = table_with_rows();
        // Only the first 30 rows were committed by ts = 305.
        let early = Scan::at(Timestamp::from_micros(305)).count(&t);
        assert_eq!(early, 30);
        let ranged = Scan::at(Timestamp::MAX).keys(RowKey::new(10), RowKey::new(19)).collect(&t);
        assert_eq!(ranged.len(), 10);
        assert_eq!(ranged[0].0, RowKey::new(10));
        // Range + snapshot compose.
        let both =
            Scan::at(Timestamp::from_micros(155)).keys(RowKey::new(10), RowKey::new(19)).count(&t);
        assert_eq!(both, 5); // keys 10..=14 committed by ts 155
    }

    #[test]
    fn aggregates() {
        let t = table_with_rows();
        let scan = Scan::at(Timestamp::MAX);
        let sum = scan.aggregate(&t, ColumnId::new(1), Aggregate::Sum).unwrap();
        assert_eq!(sum, (0..100).sum::<i64>() as f64);
        let avg = scan.aggregate(&t, ColumnId::new(1), Aggregate::Avg).unwrap();
        assert!((avg - 49.5).abs() < 1e-9);
        assert_eq!(scan.aggregate(&t, ColumnId::new(1), Aggregate::Min), Some(0.0));
        assert_eq!(scan.aggregate(&t, ColumnId::new(1), Aggregate::Max), Some(99.0));
        // Aggregating a text column yields no numeric contributions.
        assert_eq!(scan.aggregate(&t, ColumnId::new(2), Aggregate::Sum), None);
    }

    /// Counts and aggregates that read chains instead of rows (no filter)
    /// or rows in place (filter) answer as a fold over the copied-out rows.
    #[test]
    fn shortcuts_agree_with_collected_rows() {
        let t = table_with_rows();
        let ver = |i: u64, ts: u64, op, cols| Version {
            txn_id: TxnId::new(1000 + i),
            commit_ts: Timestamp::from_micros(ts),
            op,
            cols,
        };
        for i in (0..100u64).step_by(3) {
            let amount = vec![(ColumnId::new(1), Value::Float(-(i as f64)))];
            t.apply_version(RowKey::new(i), ver(i, 2000 + i, OpType::Update, amount));
        }
        for i in (0..100u64).step_by(7) {
            t.apply_version(RowKey::new(i), ver(i, 3000 + i, OpType::Delete, vec![]));
        }
        // Base data: an update-only chain, which has no column 0.
        let base = vec![(ColumnId::new(1), Value::Int(5))];
        t.apply_version(RowKey::new(500), ver(500, 10, OpType::Update, base));

        let filter = |s: Scan| s.filter(ColumnId::new(2), CmpOp::Eq, Value::Text("odd".into()));
        for ts in [505, 2050, 3050, u64::MAX].map(Timestamp::from_micros) {
            for scan in [
                Scan::at(ts),
                Scan::at(ts).keys(RowKey::new(20), RowKey::new(600)),
                filter(Scan::at(ts)),
                filter(Scan::at(ts).keys(RowKey::new(20), RowKey::new(60))),
            ] {
                let rows = scan.collect(&t);
                assert_eq!(scan.count(&t), rows.len());
                let amounts: Vec<f64> = rows
                    .iter()
                    .filter_map(|(_, r)| r.iter().find(|(c, _)| *c == ColumnId::new(1)))
                    .filter_map(|(_, v)| numeric(v))
                    .collect();
                let sum = (!amounts.is_empty()).then(|| amounts.iter().sum::<f64>());
                assert_eq!(scan.aggregate(&t, ColumnId::new(1), Aggregate::Sum), sum);
            }
        }
    }

    /// A check that fails at its `k + 1`-th call is asked exactly `k + 1`
    /// times by each terminal, filtered or not — `k` records were visited,
    /// none after — and the terminal returns that first error, not rows.
    #[test]
    fn stop_check_after_k_rows_ends_accumulation() {
        let t = table_with_rows();
        let amount = ColumnId::new(1);
        for scan in [
            Scan::at(Timestamp::MAX),
            Scan::at(Timestamp::MAX).filter(ColumnId::new(2), CmpOp::Eq, Value::Text("odd".into())),
        ] {
            let matching = scan.count(&t);
            for k in [0, 1, 7, 99, 100] {
                for terminal in 0..3 {
                    let mut calls = 0;
                    let check = || {
                        calls += 1;
                        if calls > k {
                            Err(calls)
                        } else {
                            Ok(())
                        }
                    };
                    let ended = match terminal {
                        0 => scan.try_collect(&t, check).map(|rows| rows.len()),
                        1 => scan.try_count(&t, check),
                        _ => {
                            scan.try_aggregate(&t, amount, Aggregate::Sum, check).map(|_| matching)
                        }
                    };
                    if k < 100 {
                        assert_eq!(ended, Err(k + 1), "terminal {terminal}, k {k}");
                        assert_eq!(calls, k + 1, "terminal {terminal} asked again after the stop");
                    } else {
                        assert_eq!(ended, Ok(matching), "the check never fired");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_results() {
        let t = table_with_rows();
        let none = Scan::at(Timestamp::MAX)
            .filter(ColumnId::new(1), CmpOp::Gt, Value::Int(1_000_000))
            .collect(&t);
        assert!(none.is_empty());
        assert_eq!(Scan::at(Timestamp::ZERO).count(&t), 0);
    }
}
