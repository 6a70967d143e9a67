//! Common types for workload generation.
//!
//! A workload is two correlated streams on the primary's clock: the OLTP
//! *log stream* (committed transactions with value-log entries) and the
//! OLAP *query stream* (arrival-timestamped queries, each with the set of
//! tables it reads). The replay engines consume the first; the visibility
//! experiments consume both.

use aets_common::rng::Rng;
use aets_common::{ColumnId, DmlOp, FxHashSet, Lsn, Row, RowKey, TableId, Timestamp, TxnId, Value};
use aets_wal::{DmlEntry, TxnLog};

/// One analytical query instance.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryInstance {
    /// Unique id within the stream.
    pub id: u32,
    /// Query class (e.g. CH-benCHmark query number 1..=22, or a workload-
    /// specific template index).
    pub class: u32,
    /// Arrival timestamp `qts` on the primary's clock.
    pub arrival: Timestamp,
    /// Tables the query reads.
    pub tables: Vec<TableId>,
}

/// A generated HTAP workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name ("tpcc", "bustracker", ...).
    pub name: &'static str,
    /// Table names indexed by `TableId`.
    pub table_names: Vec<&'static str>,
    /// Committed OLTP transactions in primary commit order.
    pub txns: Vec<TxnLog>,
    /// Analytical query stream sorted by arrival time.
    pub queries: Vec<QueryInstance>,
    /// Tables accessed by at least one analytical query class — the *hot*
    /// tables in the paper's sense.
    pub analytic_tables: FxHashSet<TableId>,
}

impl Workload {
    /// Number of tables in the schema.
    pub fn num_tables(&self) -> usize {
        self.table_names.len()
    }

    /// Total DML entries in the log stream.
    pub fn total_entries(&self) -> usize {
        self.txns.iter().map(|t| t.entries.len()).sum()
    }

    /// Fraction of DML entries that touch hot (analytically read) tables —
    /// the `ratio` column of Table I.
    pub fn hot_entry_ratio(&self) -> f64 {
        let mut hot = 0usize;
        let mut total = 0usize;
        for t in &self.txns {
            for e in &t.entries {
                total += 1;
                if self.analytic_tables.contains(&e.table) {
                    hot += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            hot as f64 / total as f64
        }
    }

    /// The set of tables written by the OLTP stream.
    pub fn written_tables(&self) -> FxHashSet<TableId> {
        let mut s = FxHashSet::default();
        for t in &self.txns {
            for e in &t.entries {
                s.insert(e.table);
            }
        }
        s
    }
}

/// Assigns transaction ids, LSNs, and commit timestamps while building a
/// log stream. Commit timestamps advance by an exponential gap drawn from
/// the configured OLTP throughput, so the stream looks like a primary
/// committing at `tps` transactions per second.
#[derive(Debug)]
pub struct TxnFactory {
    next_txn: u64,
    next_lsn: u64,
    clock_us: u64,
    tps: f64,
    /// Per-row version counters (RVIDs), keyed by `(table, key)`. The
    /// primary stamps every DML with the row version *after* the operation;
    /// the ATR baseline's sequence check depends on these being exact.
    row_versions: aets_common::FxHashMap<(TableId, RowKey), u64>,
}

impl TxnFactory {
    /// Creates a factory starting at txn id 1, LSN 1, time 0.
    pub fn new(tps: f64) -> Self {
        assert!(tps > 0.0, "tps must be positive");
        Self {
            next_txn: 1,
            next_lsn: 1,
            clock_us: 0,
            tps,
            row_versions: aets_common::FxHashMap::default(),
        }
    }

    /// Current clock (commit time of the last built transaction).
    pub fn now(&self) -> Timestamp {
        Timestamp::from_micros(self.clock_us)
    }

    /// Next transaction id that will be assigned (for heartbeat ranges).
    pub fn next_txn_id(&self) -> TxnId {
        TxnId::new(self.next_txn)
    }

    /// Builds a committed transaction from `(table, op, key, cols)` rows.
    ///
    /// `before` images are attached to updates (zero-valued placeholders)
    /// so the ATR baseline has something to check; AETS ignores them.
    pub fn build(&mut self, rng: &mut Rng, rows: Vec<(TableId, DmlOp, RowKey, Row)>) -> TxnLog {
        let txn_id = TxnId::new(self.next_txn);
        self.next_txn += 1;
        // Exponential inter-commit gap targeting `tps`.
        let gap = aets_common::rng::exp_interarrival(rng, self.tps);
        self.clock_us += (gap * 1_000_000.0).max(1.0) as u64;
        let commit_ts = Timestamp::from_micros(self.clock_us);
        let entries = rows
            .into_iter()
            .map(|(table, op, key, cols)| {
                let lsn = Lsn::new(self.next_lsn);
                self.next_lsn += 1;
                let before = if op == DmlOp::Update {
                    Some(cols.iter().map(|(cid, _)| (*cid, Value::Int(0))).collect::<Row>())
                } else {
                    None
                };
                let rv = self.row_versions.entry((table, key)).or_insert(0);
                *rv += 1;
                DmlEntry {
                    lsn,
                    txn_id,
                    ts: commit_ts,
                    table,
                    op,
                    key,
                    row_version: *rv,
                    cols,
                    before,
                }
            })
            .collect();
        TxnLog { txn_id, commit_ts, entries }
    }
}

/// Builds a Poisson query arrival stream over `[0, horizon]`.
///
/// `classes` supplies `(class id, weight, footprint tables)`; each arrival
/// picks a class proportionally to weight.
pub fn poisson_query_stream(
    rng: &mut Rng,
    qps: f64,
    horizon: Timestamp,
    classes: &[(u32, f64, Vec<TableId>)],
) -> Vec<QueryInstance> {
    assert!(!classes.is_empty(), "need at least one query class");
    let total_w: f64 = classes.iter().map(|(_, w, _)| w).sum();
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let mut id = 0u32;
    loop {
        t += aets_common::rng::exp_interarrival(rng, qps);
        let ts = Timestamp::from_secs_f64(t);
        if ts > horizon {
            break;
        }
        let mut pick = rng.uniform(0.0, total_w);
        let mut chosen = &classes[0];
        for c in classes {
            if pick < c.1 {
                chosen = c;
                break;
            }
            pick -= c.1;
        }
        out.push(QueryInstance { id, class: chosen.0, arrival: ts, tables: chosen.2.clone() });
        id += 1;
    }
    out
}

/// Convenience: a small row of integer columns.
pub fn int_row(vals: &[(u16, i64)]) -> Row {
    vals.iter().map(|(c, v)| (ColumnId::new(*c), Value::Int(*v))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_assigns_monotone_ids_and_timestamps() {
        let mut f = TxnFactory::new(1000.0);
        let mut rng = Rng::new(1);
        let a = f.build(
            &mut rng,
            vec![(TableId::new(0), DmlOp::Insert, RowKey::new(1), int_row(&[(0, 1)]))],
        );
        let b = f.build(
            &mut rng,
            vec![(TableId::new(0), DmlOp::Update, RowKey::new(1), int_row(&[(0, 2)]))],
        );
        assert!(a.txn_id < b.txn_id);
        assert!(a.commit_ts < b.commit_ts);
        assert!(a.entries[0].lsn < b.entries[0].lsn);
        assert!(a.entries[0].before.is_none());
        assert!(b.entries[0].before.is_some(), "updates carry before-images");
    }

    #[test]
    fn factory_tracks_target_tps() {
        let mut f = TxnFactory::new(10_000.0);
        let mut rng = Rng::new(2);
        for _ in 0..5000 {
            f.build(&mut rng, vec![]);
        }
        let elapsed = f.now().as_secs_f64();
        let tps = 5000.0 / elapsed;
        assert!((tps - 10_000.0).abs() / 10_000.0 < 0.1, "tps {tps}");
    }

    #[test]
    fn poisson_stream_is_sorted_and_bounded() {
        let mut rng = Rng::new(3);
        let classes =
            vec![(1, 1.0, vec![TableId::new(0)]), (2, 3.0, vec![TableId::new(1), TableId::new(2)])];
        let horizon = Timestamp::from_secs_f64(10.0);
        let qs = poisson_query_stream(&mut rng, 100.0, horizon, &classes);
        assert!(!qs.is_empty());
        assert!(qs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(qs.iter().all(|q| q.arrival <= horizon));
        // Class 2 should dominate 3:1.
        let c2 = qs.iter().filter(|q| q.class == 2).count();
        assert!(c2 as f64 / qs.len() as f64 > 0.6);
    }
}
