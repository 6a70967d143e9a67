//! Fraud detection: the motivating real-time HTAP scenario from the
//! paper's introduction.
//!
//! A payment platform's primary node commits a firehose of transactions;
//! only a fraction touch the tables a fraud-scoring service reads
//! (`accounts`, `payments`). Bulk audit-logging tables dominate log
//! volume. The example compares how quickly a fraud query's data becomes
//! visible under AETS's two-stage replay versus a FIFO baseline (the
//! ungrouped TPLR), using the deterministic virtual-clock simulator so
//! the comparison is exact and machine-independent.
//!
//! ```sh
//! cargo run --release --example fraud_detection
//! ```

use aets_suite::common::{ColumnId, DmlOp, FxHashSet, RowKey, TableId, Value};
use aets_suite::replay::TableGrouping;
use aets_suite::simulator::{
    evaluate_queries, profile_epochs, simulate, CostModel, SimAetsConfig, SimConfig, SimEngineKind,
};
use aets_suite::workloads::{poisson_query_stream, TxnFactory};

const ACCOUNTS: TableId = TableId::new(0);
const PAYMENTS: TableId = TableId::new(1);
const AUDIT_LOG: TableId = TableId::new(2);
const CLICKSTREAM: TableId = TableId::new(3);

fn main() {
    // ---- The primary: 80% of log volume is audit/clickstream noise. ----
    let mut rng = aets_suite::common::rng::Rng::new(7);
    let mut factory = TxnFactory::new(8_000.0);
    let mut txns = Vec::new();
    let mut next_payment = 0u64;
    for _ in 0..30_000 {
        let rows = if rng.chance(0.35) {
            // A real payment: update the account balance, insert the
            // payment row — the data fraud scoring needs *now*.
            let pid = next_payment;
            next_payment += 1;
            vec![
                (
                    ACCOUNTS,
                    DmlOp::Update,
                    RowKey::new(rng.below(50_000)),
                    vec![(ColumnId::new(0), Value::Float(rng.uniform(-500.0, 500.0)))],
                ),
                (
                    PAYMENTS,
                    DmlOp::Insert,
                    RowKey::new(pid),
                    vec![
                        (ColumnId::new(0), Value::Float(rng.uniform(1.0, 9_000.0))),
                        (ColumnId::new(1), Value::Int(rng.below(50_000) as i64)),
                    ],
                ),
            ]
        } else {
            // Telemetry burst: audit trail + clickstream events.
            (0..6)
                .map(|i| {
                    let table = if i % 2 == 0 { AUDIT_LOG } else { CLICKSTREAM };
                    (
                        table,
                        DmlOp::Insert,
                        RowKey::new(u64::from(rng.next_u64() as u32)),
                        vec![(ColumnId::new(0), Value::Int(rng.next_u64() as i64))],
                    )
                })
                .collect()
        };
        txns.push(factory.build(&mut rng, rows));
    }
    let horizon = factory.now();

    // ---- The fraud service: frequent small queries over fresh rows. ----
    let queries = {
        let classes = vec![(1u32, 1.0, vec![ACCOUNTS, PAYMENTS])];
        poisson_query_stream(&mut rng, 400.0, horizon, &classes)
    };
    println!(
        "workload: {} txns, {} fraud queries over {:.1}s of primary time",
        txns.len(),
        queries.len(),
        horizon.as_secs_f64()
    );

    // ---- Backup configurations. ----
    let hot: FxHashSet<TableId> = [ACCOUNTS, PAYMENTS].into_iter().collect();
    let aets_grouping = TableGrouping::new(
        4,
        vec![vec![ACCOUNTS, PAYMENTS], vec![AUDIT_LOG, CLICKSTREAM]],
        vec![400.0, 0.0],
        &hot,
    )
    .expect("valid grouping");
    let fifo_grouping = TableGrouping::single(4, &hot);

    // Position replay capacity realistically close to the offered load.
    let total_entries: usize = txns.iter().map(|t| t.entries.len()).sum();
    let offered = total_entries as f64 / horizon.as_micros() as f64;
    let threads = 8usize;
    let cost = CostModel::default().scaled(0.75 * threads as f64 / offered);

    for (label, grouping, two_stage) in
        [("AETS (two-stage)", &aets_grouping, true), ("FIFO (ungrouped)", &fifo_grouping, false)]
    {
        let profiles = profile_epochs(&txns, 1024, grouping, cost.replication_latency as u64, true);
        let outcome = simulate(
            &profiles,
            grouping,
            &SimConfig {
                kind: SimEngineKind::TwoPhase(SimAetsConfig {
                    two_stage,
                    adaptive: true,
                    ..Default::default()
                }),
                threads,
                cost: cost.clone(),
            },
            None,
        );
        let stats = evaluate_queries(&outcome, &queries, |tables| grouping.groups_of(tables));
        println!(
            "{label:<18} fraud-query visibility delay: mean {:6.2}ms, p95 {:6.2}ms",
            stats.mean() / 1000.0,
            stats.percentile(95.0) as f64 / 1000.0
        );
    }
    println!(
        "\nAETS hides the audit-log replay behind stage 2: the fraud service sees\n\
         fresh account/payment rows without waiting for the telemetry firehose."
    );
}
