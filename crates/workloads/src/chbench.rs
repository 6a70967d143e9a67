//! CH-benCHmark: TPC-C OLTP plus the 22 TPC-H-derived analytical queries.
//!
//! The OLTP side is exactly the TPC-C generator; the OLAP side issues
//! Q1..Q22 with their standard table footprints over the combined schema
//! (TPC-C's nine tables plus the read-only `supplier`, `nation`, `region`).
//! The footprints reproduce the paper's Table I rows: e.g. Q2 touches five
//! tables of which only `stock` is OLTP-written; Q5 touches seven of which
//! four are written.

use crate::spec::{poisson_query_stream, Workload};
use crate::tpcc::{self, tables, TpccConfig};
use aets_common::rng::Rng;
use aets_common::{FxHashSet, TableId};

/// Read-only reference tables appended to the TPC-C schema.
pub mod ref_tables {
    use aets_common::TableId;
    /// `supplier`
    pub const SUPPLIER: TableId = TableId::new(9);
    /// `nation`
    pub const NATION: TableId = TableId::new(10);
    /// `region`
    pub const REGION: TableId = TableId::new(11);
}

/// All 12 table names of the CH-benCHmark schema.
pub const TABLE_NAMES: [&str; 12] = [
    "warehouse",
    "district",
    "customer",
    "history",
    "new_order",
    "orders",
    "order_line",
    "item",
    "stock",
    "supplier",
    "nation",
    "region",
];

/// The table footprint of CH-benCHmark query `q` (1..=22).
pub fn query_footprint(q: u32) -> Vec<TableId> {
    use ref_tables::*;
    use tables::*;
    match q {
        1 => vec![ORDER_LINE],
        2 => vec![ITEM, STOCK, SUPPLIER, NATION, REGION],
        3 => vec![CUSTOMER, NEW_ORDER, ORDERS, ORDER_LINE],
        4 => vec![ORDERS, ORDER_LINE],
        5 => vec![CUSTOMER, ORDERS, ORDER_LINE, STOCK, SUPPLIER, NATION, REGION],
        6 => vec![ORDER_LINE],
        7 => vec![CUSTOMER, ORDERS, ORDER_LINE, STOCK, SUPPLIER, NATION],
        8 => vec![ITEM, CUSTOMER, ORDERS, ORDER_LINE, STOCK, SUPPLIER, NATION, REGION],
        9 => vec![ITEM, ORDERS, ORDER_LINE, STOCK, SUPPLIER, NATION],
        10 => vec![CUSTOMER, ORDERS, ORDER_LINE, NATION],
        11 => vec![STOCK, SUPPLIER, NATION],
        12 => vec![ORDERS, ORDER_LINE],
        13 => vec![CUSTOMER, ORDERS],
        14 => vec![ITEM, ORDER_LINE],
        15 => vec![ORDER_LINE, STOCK, SUPPLIER],
        16 => vec![ITEM, STOCK, SUPPLIER],
        17 => vec![ITEM, ORDER_LINE],
        18 => vec![CUSTOMER, ORDERS, ORDER_LINE],
        19 => vec![ITEM, ORDER_LINE],
        20 => vec![ITEM, ORDER_LINE, STOCK, SUPPLIER, NATION],
        21 => vec![ORDERS, ORDER_LINE, STOCK, SUPPLIER, NATION],
        22 => vec![CUSTOMER, ORDERS],
        _ => panic!("CH-benCHmark has queries 1..=22, got {q}"),
    }
}

/// Generates the CH-benCHmark HTAP workload. `cfg` parameterizes the
/// shared TPC-C OLTP side.
pub fn generate(cfg: &TpccConfig) -> Workload {
    let base = tpcc::generate(cfg);
    let mut rng = Rng::new(cfg.seed ^ 0xC4B3); // independent OLAP stream

    let horizon = base.txns.last().map(|t| t.commit_ts).unwrap_or_default();
    let classes: Vec<(u32, f64, Vec<TableId>)> =
        (1..=22).map(|q| (q, 1.0, query_footprint(q))).collect();
    let queries = poisson_query_stream(&mut rng, cfg.olap_qps, horizon, &classes);

    let analytic_tables: FxHashSet<TableId> =
        classes.iter().flat_map(|(_, _, t)| t.iter().copied()).collect();

    Workload {
        name: "chbench",
        table_names: TABLE_NAMES.to_vec(),
        txns: base.txns,
        queries,
        analytic_tables,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprints_match_table_one_counts() {
        // Paper Table I: num(A) per query and num(A ∩ T).
        let written: FxHashSet<TableId> = [
            tables::WAREHOUSE,
            tables::DISTRICT,
            tables::CUSTOMER,
            tables::HISTORY,
            tables::NEW_ORDER,
            tables::ORDERS,
            tables::ORDER_LINE,
            tables::STOCK,
        ]
        .into_iter()
        .collect();
        let expect = [(1, 1, 1), (2, 5, 1), (3, 4, 4), (4, 2, 2), (5, 7, 4), (6, 1, 1)];
        for (q, num_a, num_inter) in expect {
            let fp = query_footprint(q);
            assert_eq!(fp.len(), num_a, "Q{q} num(A)");
            let inter = fp.iter().filter(|t| written.contains(t)).count();
            assert_eq!(inter, num_inter, "Q{q} num(A ∩ T)");
        }
    }

    #[test]
    fn all_22_queries_have_footprints() {
        for q in 1..=22 {
            assert!(!query_footprint(q).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "1..=22")]
    fn query_zero_panics() {
        query_footprint(0);
    }

    #[test]
    fn generated_workload_has_high_hot_ratio() {
        let w = generate(&TpccConfig { num_txns: 3000, warehouses: 4, ..Default::default() });
        // Paper: 93.72 % of entries are on hot tables (the OLAP footprint
        // union covers everything TPC-C writes except history and
        // warehouse... in fact all but history/warehouse).
        let r = w.hot_entry_ratio();
        assert!(r > 0.88, "hot ratio {r}");
        assert_eq!(w.name, "chbench");
        assert_eq!(w.num_tables(), 12);
    }

    #[test]
    fn olap_queries_cover_all_classes() {
        // High qps so every class is drawn within the short horizon.
        let w = generate(&TpccConfig {
            num_txns: 3000,
            warehouses: 4,
            olap_qps: 5_000.0,
            ..Default::default()
        });
        let classes: FxHashSet<u32> = w.queries.iter().map(|q| q.class).collect();
        assert_eq!(classes.len(), 22, "expected all 22 query classes to appear");
    }
}
