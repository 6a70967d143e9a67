//! Quickstart: replay a small TPC-C log stream with AETS and query the
//! backup.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use aets_suite::common::{ColumnId, Timestamp, Value};
use aets_suite::memtable::{Aggregate, CmpOp, MemDb, Scan};
use aets_suite::replay::{AetsConfig, AetsEngine, ReplayEngine, TableGrouping, VisibilityBoard};
use aets_suite::wal::{batch_into_epochs, encode_epoch};
use aets_suite::workloads::tpcc::{self, TpccConfig};

fn main() {
    // 1. Play the primary node: run the TPC-C read-write mix and collect
    //    the committed value-log stream.
    let workload =
        tpcc::generate(&TpccConfig { num_txns: 5_000, warehouses: 4, ..Default::default() });
    println!(
        "primary committed {} transactions / {} log entries ({:.1}% on hot tables)",
        workload.txns.len(),
        workload.total_entries(),
        workload.hot_entry_ratio() * 100.0
    );

    // 2. Cut the stream into epochs (the paper's default: 2048
    //    transactions per epoch) and encode it as the replication wire
    //    format.
    let epochs: Vec<_> = batch_into_epochs(workload.txns.clone(), 2048)
        .expect("positive epoch size")
        .iter()
        .map(encode_epoch)
        .collect();
    println!("replicating {} epochs to the backup", epochs.len());

    // 3. Build the backup: an MVCC Memtable, the paper's TPC-C table
    //    grouping (two hot groups + per-table cold groups), and the AETS
    //    engine.
    let db = MemDb::new(workload.num_tables());
    let (groups, rates) = tpcc::paper_grouping();
    let grouping =
        TableGrouping::new(workload.num_tables(), groups, rates, &workload.analytic_tables)
            .expect("valid grouping");
    let engine = AetsEngine::builder(grouping)
        .config(AetsConfig { threads: 4, ..Default::default() })
        .build()
        .expect("valid config");

    // 4. Replay, publishing visibility per table group.
    let board = VisibilityBoard::builder(engine.board_groups()).build();
    let metrics = engine.replay(&epochs, &db, &board).expect("replay succeeds");
    println!(
        "replayed {} entries in {:?} ({:.0} entries/s)",
        metrics.entries,
        metrics.wall,
        metrics.entries_per_sec()
    );
    let (d, r, c) = metrics.breakdown();
    println!(
        "time breakdown: dispatch {:.1}% / replay {:.1}% / commit {:.1}%",
        d * 100.0,
        r * 100.0,
        c * 100.0
    );

    // 5. Ask an analytical question against a consistent snapshot: how
    //    many orders exist as of the final commit?
    let qts = workload.txns.last().expect("non-empty").commit_ts;
    let (_, gids) = engine.board_groups_for(&[tpcc::tables::ORDERS]);
    assert!(board.is_visible(&gids, qts), "data must be visible after replay");
    let orders = db.table(tpcc::tables::ORDERS).count_at(qts);
    let order_lines = db.table(tpcc::tables::ORDER_LINE).count_at(qts);
    println!("visible state at {qts}: {orders} orders, {order_lines} order lines");

    // An actual analytical query through the snapshot query layer:
    // SELECT COUNT(*), AVG(ol_amount) FROM order_line
    //  WHERE ol_quantity >= 5 AS OF qts
    let scan = Scan::at(qts).filter(ColumnId::new(1), CmpOp::Ge, Value::Int(5));
    let big_lines = scan.count(db.table(tpcc::tables::ORDER_LINE));
    let avg_amount = scan
        .aggregate(db.table(tpcc::tables::ORDER_LINE), ColumnId::new(2), Aggregate::Avg)
        .unwrap_or(0.0);
    println!(
        "analytical query: {big_lines} order lines with quantity >= 5, avg amount {avg_amount:.2}"
    );

    // 6. MVCC time travel: the same query halfway through history.
    let mid_ts = workload.txns[workload.txns.len() / 2].commit_ts;
    let orders_mid = db.table(tpcc::tables::ORDERS).count_at(mid_ts);
    println!(
        "time travel to {}: {} orders were visible then",
        Timestamp::from_micros(mid_ts.as_micros()),
        orders_mid
    );
    assert!(orders_mid <= orders);
}
