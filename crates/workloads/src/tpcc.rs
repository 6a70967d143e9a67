//! TPC-C as an HTAP workload (Section VI-A3 of the paper).
//!
//! The primary runs the three read-write transactions — NewOrder, Payment,
//! Delivery — in the default mixed proportions (45/43/4, renormalized);
//! the two read-only transactions — StockLevel and OrderStatus — play the
//! analytical queries on the backup, per the paper's Table I footnote.
//!
//! Hot tables (accessed by the read-only transactions): `district`,
//! `customer`, `orders`, `order_line`, `stock`. The paper reports hot
//! tables producing 90.98 % of all log entries; this generator lands
//! within a point of that by construction of the per-transaction write
//! footprints.

use crate::spec::{int_row, poisson_query_stream, TxnFactory, Workload};
use aets_common::rng::{nurand, Rng, Zipf};
use aets_common::{ColumnId, DmlOp, FxHashSet, Row, RowKey, TableId, Value};

/// Table ids of the TPC-C schema.
pub mod tables {
    use aets_common::TableId;
    /// `warehouse`
    pub const WAREHOUSE: TableId = TableId::new(0);
    /// `district`
    pub const DISTRICT: TableId = TableId::new(1);
    /// `customer`
    pub const CUSTOMER: TableId = TableId::new(2);
    /// `history`
    pub const HISTORY: TableId = TableId::new(3);
    /// `new_order`
    pub const NEW_ORDER: TableId = TableId::new(4);
    /// `orders`
    pub const ORDERS: TableId = TableId::new(5);
    /// `order_line`
    pub const ORDER_LINE: TableId = TableId::new(6);
    /// `item` (read-only; never written by the mix)
    pub const ITEM: TableId = TableId::new(7);
    /// `stock`
    pub const STOCK: TableId = TableId::new(8);
}

/// Human-readable table names, indexed by table id.
pub const TABLE_NAMES: [&str; 9] = [
    "warehouse",
    "district",
    "customer",
    "history",
    "new_order",
    "orders",
    "order_line",
    "item",
    "stock",
];

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct TpccConfig {
    /// RNG seed.
    pub seed: u64,
    /// Scale factor: number of warehouses (paper uses 20).
    pub warehouses: u32,
    /// Number of read-write transactions to generate.
    pub num_txns: usize,
    /// Primary OLTP throughput (txn/s) driving commit timestamps.
    pub oltp_tps: f64,
    /// Analytical query arrival rate (queries/s).
    pub olap_qps: f64,
}

impl Default for TpccConfig {
    fn default() -> Self {
        Self { seed: 42, warehouses: 20, num_txns: 20_000, oltp_tps: 10_000.0, olap_qps: 200.0 }
    }
}

pub(crate) const DISTRICTS_PER_WH: u64 = 10;
const CUSTOMERS_PER_DISTRICT: u64 = 3000;
const ITEMS: u64 = 100_000;
const NURAND_C_CID: u64 = 259;

fn wh_key(w: u64) -> RowKey {
    RowKey::new(w)
}
fn district_key(w: u64, d: u64) -> RowKey {
    RowKey::new(w * DISTRICTS_PER_WH + d)
}
fn customer_key(w: u64, d: u64, c: u64) -> RowKey {
    RowKey::new((w * DISTRICTS_PER_WH + d) * CUSTOMERS_PER_DISTRICT + c)
}
fn order_key(w: u64, d: u64, o: u64) -> RowKey {
    RowKey::new(((w * DISTRICTS_PER_WH + d) << 32) | o)
}
fn order_line_key(w: u64, d: u64, o: u64, ol: u64) -> RowKey {
    RowKey::new((((w * DISTRICTS_PER_WH + d) << 32) | o) << 4 | ol)
}
fn stock_key(w: u64, i: u64) -> RowKey {
    RowKey::new(w * ITEMS + i)
}

pub(crate) struct TpccState {
    next_order: Vec<u64>, // per (w,d): next order id
    next_history: u64,
    undelivered: Vec<Vec<(u64, u64)>>, // per (w,d): (order id, ol count) FIFO
}

impl TpccState {
    pub(crate) fn new(warehouses: u32) -> Self {
        let slots = warehouses as usize * DISTRICTS_PER_WH as usize;
        Self { next_order: vec![1; slots], next_history: 0, undelivered: vec![Vec::new(); slots] }
    }

    fn slot(w: u64, d: u64) -> usize {
        (w * DISTRICTS_PER_WH + d) as usize
    }
}

fn text_value(rng: &mut Rng, len: usize) -> Value {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    let s: String =
        (0..len).map(|_| CHARS[rng.below(CHARS.len() as u64) as usize] as char).collect();
    Value::from(s)
}

fn new_order(
    rng: &mut Rng,
    st: &mut TpccState,
    warehouses: u32,
    item_zipf: &Zipf,
) -> Vec<(TableId, DmlOp, RowKey, Row)> {
    let w = rng.below(u64::from(warehouses));
    new_order_at(rng, st, w, item_zipf)
}

/// [`new_order`] against a caller-chosen warehouse (the drift generator
/// rotates its hot warehouse explicitly).
pub(crate) fn new_order_at(
    rng: &mut Rng,
    st: &mut TpccState,
    w: u64,
    item_zipf: &Zipf,
) -> Vec<(TableId, DmlOp, RowKey, Row)> {
    let d = rng.below(DISTRICTS_PER_WH);
    let slot = TpccState::slot(w, d);
    let o = st.next_order[slot];
    st.next_order[slot] += 1;
    let n_lines = 5 + rng.below(11);
    st.undelivered[slot].push((o, n_lines));

    let mut rows: Vec<(TableId, DmlOp, RowKey, Row)> = Vec::with_capacity(3 + 2 * n_lines as usize);
    rows.push((
        tables::DISTRICT,
        DmlOp::Update,
        district_key(w, d),
        int_row(&[(3, o as i64 + 1)]), // d_next_o_id
    ));
    rows.push((
        tables::ORDERS,
        DmlOp::Insert,
        order_key(w, d, o),
        vec![
            (ColumnId::new(0), Value::Int(o as i64)),
            (
                ColumnId::new(1),
                Value::Int(nurand(rng, 1023, 1, CUSTOMERS_PER_DISTRICT, NURAND_C_CID) as i64),
            ),
            (ColumnId::new(2), Value::Int(n_lines as i64)),
            (ColumnId::new(3), Value::Null), // o_carrier_id
        ],
    ));
    rows.push((tables::NEW_ORDER, DmlOp::Insert, order_key(w, d, o), int_row(&[(0, o as i64)])));
    for ol in 0..n_lines {
        let item = item_zipf.sample(rng) as u64 - 1;
        rows.push((
            tables::ORDER_LINE,
            DmlOp::Insert,
            order_line_key(w, d, o, ol),
            vec![
                (ColumnId::new(0), Value::Int(item as i64)),
                (ColumnId::new(1), Value::Int(1 + rng.below(10) as i64)),
                (ColumnId::new(2), Value::Float(rng.uniform(1.0, 100.0))),
                (ColumnId::new(3), Value::Null), // ol_delivery_d
            ],
        ));
        rows.push((
            tables::STOCK,
            DmlOp::Update,
            stock_key(w, item),
            int_row(&[(0, 10 + rng.below(90) as i64), (1, 1)]), // s_quantity, s_order_cnt
        ));
    }
    rows
}

fn payment(
    rng: &mut Rng,
    st: &mut TpccState,
    warehouses: u32,
) -> Vec<(TableId, DmlOp, RowKey, Row)> {
    let w = rng.below(u64::from(warehouses));
    payment_at(rng, st, w)
}

/// [`payment`] against a caller-chosen warehouse.
pub(crate) fn payment_at(
    rng: &mut Rng,
    st: &mut TpccState,
    w: u64,
) -> Vec<(TableId, DmlOp, RowKey, Row)> {
    let d = rng.below(DISTRICTS_PER_WH);
    let c = nurand(rng, 1023, 1, CUSTOMERS_PER_DISTRICT, NURAND_C_CID) - 1;
    let amount = rng.uniform(1.0, 5000.0);
    let h = st.next_history;
    st.next_history += 1;
    vec![
        (
            tables::WAREHOUSE,
            DmlOp::Update,
            wh_key(w),
            vec![(ColumnId::new(0), Value::Float(amount))], // w_ytd
        ),
        (
            tables::DISTRICT,
            DmlOp::Update,
            district_key(w, d),
            vec![(ColumnId::new(1), Value::Float(amount))], // d_ytd
        ),
        (
            tables::CUSTOMER,
            DmlOp::Update,
            customer_key(w, d, c),
            vec![
                (ColumnId::new(0), Value::Float(-amount)), // c_balance
                (ColumnId::new(1), Value::Int(1)),         // c_payment_cnt
            ],
        ),
        (
            tables::HISTORY,
            DmlOp::Insert,
            RowKey::new(h),
            vec![
                (ColumnId::new(0), Value::Int(c as i64)),
                (ColumnId::new(1), Value::Float(amount)),
                (ColumnId::new(2), text_value(rng, 12)),
            ],
        ),
    ]
}

fn delivery(
    rng: &mut Rng,
    st: &mut TpccState,
    warehouses: u32,
) -> Vec<(TableId, DmlOp, RowKey, Row)> {
    let w = rng.below(u64::from(warehouses));
    delivery_at(rng, st, w)
}

/// [`delivery`] against a caller-chosen warehouse.
pub(crate) fn delivery_at(
    rng: &mut Rng,
    st: &mut TpccState,
    w: u64,
) -> Vec<(TableId, DmlOp, RowKey, Row)> {
    let carrier = 1 + rng.below(10) as i64;
    let mut rows = Vec::new();
    for d in 0..DISTRICTS_PER_WH {
        let slot = TpccState::slot(w, d);
        let Some((o, n_lines)) = st.undelivered[slot].first().copied() else {
            continue;
        };
        st.undelivered[slot].remove(0);
        rows.push((tables::NEW_ORDER, DmlOp::Delete, order_key(w, d, o), Row::new()));
        rows.push((tables::ORDERS, DmlOp::Update, order_key(w, d, o), int_row(&[(3, carrier)])));
        for ol in 0..n_lines {
            rows.push((
                tables::ORDER_LINE,
                DmlOp::Update,
                order_line_key(w, d, o, ol),
                int_row(&[(3, 1)]), // ol_delivery_d set
            ));
        }
        rows.push((
            tables::CUSTOMER,
            DmlOp::Update,
            customer_key(w, d, rng.below(CUSTOMERS_PER_DISTRICT)),
            vec![(ColumnId::new(0), Value::Float(rng.uniform(1.0, 100.0)))],
        ));
    }
    rows
}

/// StockLevel reads `district`, `order_line`, `stock`; OrderStatus reads
/// `customer`, `orders`, `order_line`. Their union is the paper's 5 hot
/// tables.
fn query_classes() -> Vec<(u32, f64, Vec<TableId>)> {
    vec![
        // class 1 = StockLevel (weight matches the 4 % slot, same as
        // OrderStatus; relative rate between them is equal).
        (1, 1.0, vec![tables::DISTRICT, tables::ORDER_LINE, tables::STOCK]),
        // class 2 = OrderStatus.
        (2, 1.0, vec![tables::CUSTOMER, tables::ORDERS, tables::ORDER_LINE]),
    ]
}

/// Generates the TPC-C HTAP workload.
pub fn generate(cfg: &TpccConfig) -> Workload {
    let mut rng = Rng::new(cfg.seed);
    let mut factory = TxnFactory::new(cfg.oltp_tps);
    let mut st = TpccState::new(cfg.warehouses);
    let item_zipf = Zipf::new(ITEMS as usize, 0.5);

    let mut txns = Vec::with_capacity(cfg.num_txns);
    for _ in 0..cfg.num_txns {
        // Renormalized default mix over the three read-write transactions:
        // NewOrder 45, Payment 43, Delivery 4 (of 92).
        let pick = rng.below(92);
        let rows = if pick < 45 {
            new_order(&mut rng, &mut st, cfg.warehouses, &item_zipf)
        } else if pick < 88 {
            payment(&mut rng, &mut st, cfg.warehouses)
        } else {
            delivery(&mut rng, &mut st, cfg.warehouses)
        };
        txns.push(factory.build(&mut rng, rows));
    }

    let horizon = factory.now();
    let classes = query_classes();
    let queries = poisson_query_stream(&mut rng, cfg.olap_qps, horizon, &classes);
    let analytic_tables: FxHashSet<TableId> =
        classes.iter().flat_map(|(_, _, t)| t.iter().copied()).collect();

    Workload { name: "tpcc", table_names: TABLE_NAMES.to_vec(), txns, queries, analytic_tables }
}

/// The paper's hand-specified grouping for TPC-C (Section VI-A3): one hot
/// group with `district`, `stock`, `customer`, `orders`; one hot group with
/// `order_line` (accessed at twice the rate); every cold table in its own
/// group. Returned as `(groups, per-group access rate)`.
pub fn paper_grouping() -> (Vec<Vec<TableId>>, Vec<f64>) {
    let g0 = vec![tables::DISTRICT, tables::STOCK, tables::CUSTOMER, tables::ORDERS];
    let g1 = vec![tables::ORDER_LINE];
    let cold = [tables::WAREHOUSE, tables::HISTORY, tables::NEW_ORDER, tables::ITEM];
    let mut groups = vec![g0, g1];
    let mut rates = vec![100.0, 200.0];
    for t in cold {
        groups.push(vec![t]);
        rates.push(1.0);
    }
    (groups, rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Workload {
        generate(&TpccConfig { num_txns: 3000, warehouses: 4, ..Default::default() })
    }

    #[test]
    fn hot_ratio_matches_paper_ballpark() {
        let w = small();
        let r = w.hot_entry_ratio();
        assert!((0.85..=0.95).contains(&r), "hot ratio {r} should be ~0.91");
    }

    #[test]
    fn writes_cover_eight_tables_and_skip_item() {
        let w = small();
        let written = w.written_tables();
        assert_eq!(written.len(), 8, "TPC-C writes 8 tables");
        assert!(!written.contains(&tables::ITEM));
    }

    #[test]
    fn analytic_tables_are_the_five_hot_ones() {
        let w = small();
        assert_eq!(w.analytic_tables.len(), 5);
        for t in
            [tables::DISTRICT, tables::CUSTOMER, tables::ORDERS, tables::ORDER_LINE, tables::STOCK]
        {
            assert!(w.analytic_tables.contains(&t));
        }
    }

    #[test]
    fn txns_are_in_commit_order_with_unique_lsns() {
        let w = small();
        let mut last_txn = 0;
        let mut last_lsn = 0;
        for t in &w.txns {
            assert!(t.txn_id.raw() > last_txn);
            last_txn = t.txn_id.raw();
            for e in &t.entries {
                assert!(e.lsn.raw() > last_lsn, "LSNs must increase");
                last_lsn = e.lsn.raw();
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.txns.len(), b.txns.len());
        assert_eq!(a.txns[10], b.txns[10]);
        assert_eq!(a.queries.len(), b.queries.len());
    }

    #[test]
    fn deliveries_consume_new_orders() {
        let w = generate(&TpccConfig { num_txns: 5000, warehouses: 2, ..Default::default() });
        // Every delete on new_order must target a key previously inserted.
        let mut inserted = FxHashSet::default();
        for t in &w.txns {
            for e in &t.entries {
                if e.table == tables::NEW_ORDER {
                    match e.op {
                        DmlOp::Insert => {
                            inserted.insert(e.key);
                        }
                        DmlOp::Delete => {
                            assert!(inserted.contains(&e.key), "delete of unknown new_order");
                        }
                        DmlOp::Update => panic!("new_order is never updated"),
                    }
                }
            }
        }
    }

    #[test]
    fn paper_grouping_covers_all_tables() {
        let (groups, rates) = paper_grouping();
        assert_eq!(groups.len(), rates.len());
        let all: Vec<TableId> = groups.iter().flatten().copied().collect();
        assert_eq!(all.len(), 9);
    }
}
