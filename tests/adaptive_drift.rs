//! Adaptive-drift suite: the live control loop (telemetry → forecast →
//! regroup/resplit → epoch-boundary apply) must adapt when the access
//! distribution shifts and must never change the replayed state while
//! doing so.
//!
//! Three properties are pinned:
//!
//! 1. **Equivalence across reconfiguration.** Under the drift workloads
//!    (`rotating_tpcc`, `flash_crowd_bustracker`) the adaptive node's MVCC
//!    state stays byte-identical to the serial oracle at every probed
//!    snapshot, and live query answers match the oracle's, no matter when
//!    the controller's regroups/resplits land.
//! 2. **Adaptation actually happens.** The drifting hot set forces the
//!    controller to queue — and the engine to apply — at least one
//!    regroup, visible both in `ReplayMetrics` and the adapt counters.
//! 3. **No churn without drift.** A stationary access pattern plans once
//!    and then holds: after the initial plan no further regroup is
//!    applied, and the state still equals both the oracle and a
//!    static-split baseline.
//!
//! Regroup *timing* depends on wall-clock window sampling and is not
//! deterministic; every assertion here is timing-independent (equivalence
//! holds for any interleaving). Workload seeds are pinned; set
//! `AETS_SEED=<u64>` to replay a single seed.

use aets_suite::common::{FxHashSet, TableId, Timestamp};
use aets_suite::forecast::ForecastModel;
use aets_suite::memtable::MemDb;
use aets_suite::replay::{
    eval_spec, AetsConfig, AetsEngine, BackupNode, ControllerConfig, NodeOptions, QuerySpec,
    QueryTarget, ReplayEngine, ReplayMetrics, SerialEngine, ServiceOptions, TableGrouping,
};
use aets_suite::telemetry::{names, Telemetry};
use aets_suite::wal::{batch_into_epochs, encode_epoch, EncodedEpoch};
use aets_suite::workloads::drift::{
    flash_crowd_bustracker, rotating_tpcc, FlashCrowdConfig, RotatingTpccConfig,
};
use aets_suite::workloads::tpcc::{self, tables, TpccConfig};
use aets_suite::workloads::{bustracker, QueryInstance, Workload};
use std::sync::Arc;

const EPOCH_SIZE: usize = 64;
const THREADS: usize = 3;

fn seeds() -> Vec<u64> {
    aets_suite::seeds(&[7, 42])
}

fn encode(w: &Workload) -> Vec<EncodedEpoch> {
    batch_into_epochs(w.txns.clone(), EPOCH_SIZE)
        .expect("positive epoch size")
        .iter()
        .map(encode_epoch)
        .collect()
}

/// An adaptive serving node: AETS engine plus the forecast-driven
/// controller wired through `ServiceOptions`, all sharing one telemetry
/// instance so `aets_table_access_total` closes the loop.
fn adaptive_node(num_tables: usize, grouping: TableGrouping) -> (BackupNode, Arc<Telemetry>) {
    let tel = Arc::new(Telemetry::new());
    let engine = AetsEngine::builder(grouping)
        .config(AetsConfig { threads: THREADS, ..Default::default() })
        .telemetry(tel.clone())
        .build()
        .expect("engine config");
    let node = BackupNode::builder()
        .engine(Arc::new(engine))
        .num_tables(num_tables)
        .options(NodeOptions {
            query_workers: 2,
            service: ServiceOptions::builder()
                .controller(ControllerConfig {
                    epoch_window: 2,
                    min_history: 1,
                    model: ForecastModel::Naive,
                    hot_min_rate: 0.5,
                    ..Default::default()
                })
                .build(),
            ..Default::default()
        })
        .build()
        .expect("node config");
    (node, tel)
}

/// Replays the stream one epoch at a time through the node while feeding
/// it the workload's query arrivals: each query whose arrival is covered
/// by the new watermark opens (and drops) a read session over its
/// footprint, bumping the access counters the controller forecasts from.
/// Every `probe_every` epochs the probed tables are also *answered*
/// through the live query path and checked against the serial oracle.
fn drive(
    node: &BackupNode,
    epochs: &[EncodedEpoch],
    queries: &[QueryInstance],
    oracle: &MemDb,
    probe_tables: &[TableId],
    probe_every: usize,
) -> ReplayMetrics {
    let mut total = ReplayMetrics::default();
    let mut next_query = 0usize;
    for (i, epoch) in epochs.iter().enumerate() {
        let m = node.replay(std::slice::from_ref(epoch)).expect("replay");
        total.absorb(&m);
        let wm = node.safe_ts();
        while next_query < queries.len() && queries[next_query].arrival <= wm {
            drop(node.open_session(wm, &queries[next_query].tables));
            next_query += 1;
        }
        if (i + 1) % probe_every == 0 {
            for &t in probe_tables {
                let spec = QuerySpec::count(t);
                let got = node.query_one(wm, spec.clone()).expect("probe query");
                assert_eq!(
                    got,
                    eval_spec(oracle, &spec, wm),
                    "live answer diverged from oracle at {wm} on table {t} (epoch {i})"
                );
            }
        }
    }
    total
}

/// Interior + terminal snapshot probes, engine_equivalence-style.
fn assert_state_matches(db: &MemDb, oracle: &MemDb, w: &Workload, tag: &str) {
    assert!(db.all_chains_ordered(), "{tag}: version order");
    assert_eq!(db.total_versions(), oracle.total_versions(), "{tag}: version count");
    let mut probes = vec![Timestamp::ZERO, Timestamp::MAX];
    for frac in [1usize, 2, 3] {
        probes.push(w.txns[(w.txns.len() * frac / 4).min(w.txns.len() - 1)].commit_ts);
    }
    for ts in probes {
        assert_eq!(db.digest_at(ts), oracle.digest_at(ts), "{tag}: snapshot at {ts} diverged");
    }
}

#[test]
fn rotating_hotspot_adapts_and_matches_the_oracle() {
    for seed in seeds() {
        let w = rotating_tpcc(&RotatingTpccConfig {
            base: TpccConfig {
                seed,
                num_txns: 4_000,
                warehouses: 4,
                olap_qps: 400.0,
                ..Default::default()
            },
            phases: 4,
            focus_share: 0.8,
        });
        let epochs = encode(&w);
        let n = w.num_tables();
        let oracle = MemDb::new(n);
        SerialEngine.replay_all(&epochs, &oracle).expect("oracle replay");

        let (groups, rates) = tpcc::paper_grouping();
        let grouping =
            TableGrouping::new(n, groups, rates, &w.analytic_tables).expect("paper grouping");

        // Static-split baseline: same initial plan, no controller. Both
        // datapaths must land on the identical bytes — adaptation is
        // semantically free.
        let static_db = MemDb::new(n);
        let static_eng = AetsEngine::builder(grouping.clone())
            .config(AetsConfig { threads: THREADS, ..Default::default() })
            .build()
            .expect("engine config");
        static_eng.replay_all(&epochs, &static_db).expect("static replay");

        let (node, tel) = adaptive_node(n, grouping);
        let m =
            drive(&node, &epochs, &w.queries, &oracle, &[tables::ORDER_LINE, tables::WAREHOUSE], 8);

        let tag = format!("seed={seed}");
        assert_eq!(m.txns, w.txns.len(), "{tag}: txn count");
        assert_state_matches(node.db(), &oracle, &w, &tag);
        assert_state_matches(&static_db, &oracle, &w, &format!("{tag} static baseline"));

        // The rotating hot set must have forced live reconfiguration.
        assert!(m.regroups_applied >= 1, "{tag}: rotating hotspot applied no regroup ({m:?})");
        let windows = node.adaptive_windows().expect("controller attached");
        assert!(windows >= 2, "{tag}: only {windows} control windows observed");
        let snap = tel.snapshot();
        assert!(snap.counter_total(names::ADAPT_WINDOWS) >= windows as u64);
        assert_eq!(snap.counter_total(names::ADAPT_REGROUPS), m.regroups_applied, "{tag}");
        assert_eq!(snap.counter_total(names::ADAPT_RESPLITS), m.resplits_applied, "{tag}");
    }
}

#[test]
fn flash_crowd_adapts_and_matches_the_oracle() {
    for seed in seeds() {
        let cfg = FlashCrowdConfig {
            base: bustracker::BusTrackerConfig {
                seed,
                num_txns: 4_000,
                slots: 20,
                ..Default::default()
            },
            flash_start: 6,
            flash_len: 6,
            flash_rate: 150.0,
            ..Default::default()
        };
        let w = flash_crowd_bustracker(&cfg);
        let epochs = encode(&w);
        let n = w.num_tables();
        let oracle = MemDb::new(n);
        SerialEngine.replay_all(&epochs, &oracle).expect("oracle replay");

        // Initial plan from the *pre-flash* rate model: the crowd's log
        // tables start cold, so serving the flash forces a regroup.
        let hot: FxHashSet<TableId> = (0..bustracker::NUM_HOT as u32).map(TableId::new).collect();
        let grouping =
            TableGrouping::dbscan(n, &hot, |t| bustracker::access_rate(t.index(), 0), 0.3)
                .expect("dbscan grouping");

        let (node, tel) = adaptive_node(n, grouping);
        let probe = cfg.flash_tables[0];
        let m = drive(&node, &epochs, &w.queries, &oracle, &[probe, TableId::new(0)], 8);

        let tag = format!("seed={seed}");
        assert_eq!(m.txns, w.txns.len(), "{tag}: txn count");
        assert_state_matches(node.db(), &oracle, &w, &tag);
        assert!(m.regroups_applied >= 1, "{tag}: flash crowd applied no regroup ({m:?})");
        assert!(tel.snapshot().counter_total(names::ADAPT_WINDOWS) >= 2, "{tag}");
    }
}

#[test]
fn stationary_stream_holds_the_first_plan() {
    // A constant access pattern: every epoch touches the same footprint
    // with the same intensity, so after the initial plan the predicted
    // hot set never shifts and the controller must not churn the
    // grouping. (Re-splits are rate-magnitude sensitive and may still
    // fire under wall-clock jitter; they move no tables and are checked
    // for equivalence, not absence.)
    for seed in seeds() {
        let w = tpcc::generate(&TpccConfig {
            seed,
            num_txns: 3_000,
            warehouses: 2,
            ..Default::default()
        });
        let epochs = encode(&w);
        let n = w.num_tables();
        let oracle = MemDb::new(n);
        SerialEngine.replay_all(&epochs, &oracle).expect("oracle replay");

        let (groups, rates) = tpcc::paper_grouping();
        let grouping =
            TableGrouping::new(n, groups, rates, &w.analytic_tables).expect("paper grouping");
        let (node, tel) = adaptive_node(n, grouping);

        let footprint: Vec<TableId> =
            vec![tables::DISTRICT, tables::ORDER_LINE, tables::STOCK, tables::CUSTOMER];
        let mut total = ReplayMetrics::default();
        for epoch in &epochs {
            let m = node.replay(std::slice::from_ref(epoch)).expect("replay");
            total.absorb(&m);
            drop(node.open_session(node.safe_ts(), &footprint));
        }

        let tag = format!("seed={seed}");
        assert_eq!(total.txns, w.txns.len(), "{tag}: txn count");
        assert_state_matches(node.db(), &oracle, &w, &tag);
        assert!(
            total.regroups_applied <= 1,
            "{tag}: stationary stream regrouped {} times ({total:?})",
            total.regroups_applied
        );
        assert_eq!(total.reconf_rejected, 0, "{tag}: no command may be rejected");
        assert!(node.adaptive_windows().expect("controller attached") >= 2, "{tag}");
        assert!(tel.snapshot().counter_total(names::ADAPT_WINDOWS) >= 2, "{tag}");
    }
}
