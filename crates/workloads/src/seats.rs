//! SEATS (airline reservation) — used by the paper only for the Table I
//! workload-characteristic analysis: 4 OLTP-written tables, 8 tables read
//! by analytical queries, an intersection of 2, and a hot-entry ratio of
//! 38.08 %.

use crate::spec::{int_row, poisson_query_stream, TxnFactory, Workload};
use aets_common::rng::Rng;
use aets_common::{DmlOp, FxHashSet, Row, RowKey, TableId};

/// Table ids of the SEATS schema subset we model.
pub mod tables {
    use aets_common::TableId;
    /// `reservation` (written, analytically read)
    pub const RESERVATION: TableId = TableId::new(0);
    /// `customer` (written)
    pub const CUSTOMER: TableId = TableId::new(1);
    /// `frequent_flyer` (written)
    pub const FREQUENT_FLYER: TableId = TableId::new(2);
    /// `flight` (written, analytically read)
    pub const FLIGHT: TableId = TableId::new(3);
    /// `airport` (read-only)
    pub const AIRPORT: TableId = TableId::new(4);
    /// `airline` (read-only)
    pub const AIRLINE: TableId = TableId::new(5);
    /// `country` (read-only)
    pub const COUNTRY: TableId = TableId::new(6);
    /// `airport_distance` (read-only)
    pub const AIRPORT_DISTANCE: TableId = TableId::new(7);
    /// `config_profile` (read-only)
    pub const CONFIG_PROFILE: TableId = TableId::new(8);
    /// `config_histograms` (read-only)
    pub const CONFIG_HISTOGRAMS: TableId = TableId::new(9);
}

/// Table names indexed by table id.
pub const TABLE_NAMES: [&str; 10] = [
    "reservation",
    "customer",
    "frequent_flyer",
    "flight",
    "airport",
    "airline",
    "country",
    "airport_distance",
    "config_profile",
    "config_histograms",
];

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct SeatsConfig {
    /// RNG seed.
    pub seed: u64,
    /// Read-write transactions to generate.
    pub num_txns: usize,
    /// Primary OLTP throughput (txn/s).
    pub oltp_tps: f64,
    /// Analytical query rate (queries/s).
    pub olap_qps: f64,
}

impl Default for SeatsConfig {
    fn default() -> Self {
        Self { seed: 42, num_txns: 10_000, oltp_tps: 10_000.0, olap_qps: 100.0 }
    }
}

/// Generates the SEATS workload (sufficient fidelity for Table I).
pub fn generate(cfg: &SeatsConfig) -> Workload {
    use tables::*;
    let mut rng = Rng::new(cfg.seed);
    let mut factory = TxnFactory::new(cfg.oltp_tps);
    let mut next_res = 0u64;

    let mut txns = Vec::with_capacity(cfg.num_txns);
    for _ in 0..cfg.num_txns {
        // NewReservation 55 %, UpdateCustomer 25 %, UpdateReservation 20 %.
        // Write footprints tuned so hot (reservation + flight) entries are
        // ~38 % of the total.
        let pick = rng.below(100);
        let rows: Vec<(TableId, DmlOp, RowKey, Row)> = if pick < 55 {
            let r = next_res;
            next_res += 1;
            vec![
                (RESERVATION, DmlOp::Insert, RowKey::new(r), int_row(&[(0, r as i64)])),
                (FLIGHT, DmlOp::Update, RowKey::new(rng.below(2000)), int_row(&[(0, 1)])),
                (CUSTOMER, DmlOp::Update, RowKey::new(rng.below(50_000)), int_row(&[(0, 1)])),
                (FREQUENT_FLYER, DmlOp::Update, RowKey::new(rng.below(50_000)), int_row(&[(0, 1)])),
            ]
        } else if pick < 80 {
            vec![
                (CUSTOMER, DmlOp::Update, RowKey::new(rng.below(50_000)), int_row(&[(1, 1)])),
                (FREQUENT_FLYER, DmlOp::Update, RowKey::new(rng.below(50_000)), int_row(&[(1, 1)])),
            ]
        } else {
            let r = rng.below(next_res.max(1));
            vec![
                (RESERVATION, DmlOp::Update, RowKey::new(r), int_row(&[(1, 1)])),
                (CUSTOMER, DmlOp::Update, RowKey::new(rng.below(50_000)), int_row(&[(2, 1)])),
            ]
        };
        txns.push(factory.build(&mut rng, rows));
    }

    // Analytical queries read 8 tables; only flight and reservation are in
    // the written set.
    let classes = vec![
        (1, 1.0, vec![FLIGHT, AIRPORT, AIRLINE, AIRPORT_DISTANCE]),
        (2, 1.0, vec![RESERVATION, FLIGHT, COUNTRY, CONFIG_PROFILE, CONFIG_HISTOGRAMS]),
    ];
    let horizon = factory.now();
    let queries = poisson_query_stream(&mut rng, cfg.olap_qps, horizon, &classes);
    let analytic_tables: FxHashSet<TableId> =
        classes.iter().flat_map(|(_, _, t)| t.iter().copied()).collect();

    Workload { name: "seats", table_names: TABLE_NAMES.to_vec(), txns, queries, analytic_tables }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_characteristics() {
        let w = generate(&SeatsConfig::default());
        assert_eq!(w.written_tables().len(), 4, "SEATS writes 4 tables");
        assert_eq!(w.analytic_tables.len(), 8, "8 tables read by OLAP");
        let written = w.written_tables();
        let inter = w.analytic_tables.iter().filter(|t| written.contains(t)).count();
        assert_eq!(inter, 2, "intersection of 2");
        let r = w.hot_entry_ratio();
        assert!((r - 0.3808).abs() < 0.05, "hot ratio {r} should be ~0.3808");
    }

    #[test]
    fn deterministic() {
        let a = generate(&SeatsConfig::default());
        let b = generate(&SeatsConfig::default());
        assert_eq!(a.txns[3], b.txns[3]);
    }
}
