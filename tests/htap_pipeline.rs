//! End-to-end HTAP pipeline test: primary log generation → replication →
//! two-stage replay → Algorithm 3 visibility → consistent analytical
//! reads. Verifies the paper's consistency contract: once a query is
//! admitted at `qts`, it observes exactly the primary's committed prefix
//! at `qts` for every table it reads.

use aets_suite::common::{GroupId, Timestamp};
use aets_suite::memtable::MemDb;
use aets_suite::replay::{
    AetsConfig, AetsEngine, ReplayEngine, TableGrouping, VisibilityBoard, WaitOutcome,
};
use aets_suite::wal::{batch_into_epochs, encode_epoch};
use aets_suite::workloads::tpcc::{self, TpccConfig};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn queries_admitted_by_algorithm3_see_consistent_prefixes() {
    let w = tpcc::generate(&TpccConfig {
        num_txns: 3_000,
        warehouses: 2,
        olap_qps: 500.0,
        ..Default::default()
    });
    let epochs: Vec<_> =
        batch_into_epochs(w.txns.clone(), 512).unwrap().iter().map(encode_epoch).collect();

    // Oracle database: serial replay, for per-timestamp ground truth.
    let oracle = MemDb::new(w.num_tables());
    aets_suite::replay::SerialEngine.replay_all(&epochs, &oracle).unwrap();

    let (groups, rates) = tpcc::paper_grouping();
    let grouping = TableGrouping::new(w.num_tables(), groups, rates, &w.analytic_tables).unwrap();
    let engine = Arc::new(
        AetsEngine::builder(grouping)
            .config(AetsConfig { threads: 3, ..Default::default() })
            .build()
            .unwrap(),
    );
    let db = Arc::new(MemDb::new(w.num_tables()));
    let board = Arc::new(VisibilityBoard::builder(engine.board_groups()).build());

    // Replay concurrently with query threads waiting on the board.
    let queries: Vec<_> = w.queries.iter().take(40).cloned().collect();
    assert!(!queries.is_empty(), "workload must produce queries");
    std::thread::scope(|scope| {
        let replayer = {
            let engine = engine.clone();
            let db = db.clone();
            let board = board.clone();
            let epochs = &epochs;
            scope.spawn(move || engine.replay(epochs, &db, &board).unwrap())
        };
        for q in &queries {
            let engine = engine.clone();
            let db = db.clone();
            let board = board.clone();
            let oracle = &oracle;
            scope.spawn(move || {
                let (gen, gids) = engine.board_groups_for(&q.tables);
                let out = board.wait_admission(&gids, gen, q.arrival, Duration::from_secs(30));
                assert_eq!(out, WaitOutcome::Visible, "query {} not admitted", q.id);
                // Admitted: every accessed table must now show at least
                // the primary's committed prefix at qts. (The backup may
                // be ahead — MVCC reads at qts still return the exact
                // snapshot.)
                for t in &q.tables {
                    let got = db.table(*t).digest_at(q.arrival);
                    let want = oracle.table(*t).digest_at(q.arrival);
                    assert_eq!(got, want, "query {} table {t} snapshot mismatch", q.id);
                }
            });
        }
        let metrics = replayer.join().unwrap();
        assert_eq!(metrics.txns, w.txns.len());
    });

    // After replay completes everything is visible.
    let last = w.txns.last().unwrap().commit_ts;
    let all_groups: Vec<GroupId> = (0..engine.board_groups() as u32).map(GroupId::new).collect();
    assert!(board.is_visible(&all_groups, last));
    assert_eq!(board.global_cmt_ts(), last);
}

#[test]
fn heartbeats_unblock_queries_on_idle_groups() {
    use aets_suite::common::TxnId;
    use aets_suite::wal::insert_heartbeats;

    // A stream that only ever writes table 0; table 1 stays idle. A query
    // on table 1 must still be admitted via heartbeat-driven timestamps.
    let w = tpcc::generate(&TpccConfig {
        num_txns: 200,
        warehouses: 2,
        oltp_tps: 10.0, // slow primary: big idle gaps
        ..Default::default()
    });
    let next_id = TxnId::new(w.txns.last().unwrap().txn_id.raw() + 1);
    let with_hb = insert_heartbeats(&w.txns, 50_000, next_id);
    assert!(with_hb.len() > w.txns.len(), "idle gaps must create heartbeats");

    let epochs: Vec<_> = batch_into_epochs(with_hb, 64).unwrap().iter().map(encode_epoch).collect();
    let (groups, rates) = tpcc::paper_grouping();
    let grouping = TableGrouping::new(w.num_tables(), groups, rates, &w.analytic_tables).unwrap();
    let engine = AetsEngine::builder(grouping)
        .config(AetsConfig { threads: 2, ..Default::default() })
        .build()
        .unwrap();
    let db = MemDb::new(w.num_tables());
    let board = VisibilityBoard::builder(engine.board_groups()).build();
    engine.replay(&epochs, &db, &board).unwrap();

    // Every group's timestamp advanced to the stream's end even if the
    // group saw no DML (heartbeats land everywhere).
    let last = w.txns.last().unwrap().commit_ts;
    for g in 0..engine.board_groups() as u32 {
        assert!(board.tg_cmt_ts(GroupId::new(g)) >= last, "group {g} left behind");
    }
}

#[test]
fn replication_timeline_orders_epoch_arrivals() {
    use aets_suite::wal::ReplicationTimeline;
    let w = tpcc::generate(&TpccConfig { num_txns: 1_000, warehouses: 2, ..Default::default() });
    let epochs = batch_into_epochs(w.txns, 128).unwrap();
    let tl = ReplicationTimeline::default();
    let arrivals = tl.arrivals(&epochs);
    assert_eq!(arrivals.len(), epochs.len());
    assert!(arrivals.windows(2).all(|a| a[0] <= a[1]), "arrivals must be monotone");
    for (e, a) in epochs.iter().zip(&arrivals) {
        assert!(*a > e.max_commit_ts(), "epoch cannot arrive before it commits");
    }
    let _ = Timestamp::ZERO;
}
