//! Fault-tolerance integration tests: the checksummed WAL, the ingest
//! resync loop, and supervised replay with per-group quarantine, exercised
//! end to end through seeded deterministic fault injection.
//!
//! The contract under test: a fault-injected feed pulled through the
//! layer that owns the resync loop (`DurableBackup::ingest_from`) either
//! fully recovers to the fault-free serial oracle's state (transient
//! delivery faults, healed by re-requesting) or quarantines the affected
//! groups with frozen visibility watermarks (persistent in-record
//! corruption) — and no replay-thread failure ever escapes as a panic.
//! Delivery faults are counted in the registry's `aets_ingest_*`
//! counters, their only home.
//!
//! The `torn_tail` / `bit_flip` / `reorder` tests double as the CI
//! fault-matrix entries (see `.github/workflows/ci.yml`).

use aets_suite::common::{
    ColumnId, DmlOp, FxHashSet, GroupId, Lsn, RowKey, TableId, Timestamp, TxnId, Value,
};
use aets_suite::memtable::MemDb;
use aets_suite::replay::{
    run_realtime, AetsConfig, AetsEngine, DurableBackup, DurableOptions, ReplayEngine, RetryPolicy,
    RunnerConfig, RunnerQuery, SerialEngine, TableGrouping, Workload as RunnerWorkload,
};
use aets_suite::telemetry::{names, Telemetry};
use aets_suite::wal::faults::corrupt_record_of;
use aets_suite::wal::{
    batch_into_epochs, encode_epoch, DmlEntry, EncodedEpoch, FaultInjector, FaultKind, FaultPlan,
    TxnLog,
};
use aets_suite::workloads::tpcc::{self, TpccConfig};
use aets_suite::workloads::Workload;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn tpcc_setup(num_txns: usize, epoch_size: usize) -> (Workload, Vec<EncodedEpoch>, u64) {
    let w = tpcc::generate(&TpccConfig { num_txns, warehouses: 2, ..Default::default() });
    let epochs: Vec<EncodedEpoch> =
        batch_into_epochs(w.txns.clone(), epoch_size).unwrap().iter().map(encode_epoch).collect();
    let oracle = MemDb::new(w.table_names.len());
    SerialEngine.replay_all(&epochs, &oracle).unwrap();
    let digest = oracle.digest_at(Timestamp::MAX);
    (w, epochs, digest)
}

fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("aets-fault-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What a fault-injected feed left behind: the durable backup that pulled
/// it through `ingest_from`, that drain's outcome, and the registry.
struct Fed {
    backup: DurableBackup,
    outcome: aets_suite::common::Result<u64>,
    tel: Arc<Telemetry>,
    dir: PathBuf,
}

impl Fed {
    fn counter(&self, name: &str) -> u64 {
        self.tel.snapshot().counter_total(name)
    }
}

impl Drop for Fed {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Pulls `epochs`, perturbed by `plan`, into a fresh durable backup.
fn feed(w: &Workload, epochs: Vec<EncodedEpoch>, plan: FaultPlan) -> Fed {
    let (groups, rates) = tpcc::paper_grouping();
    let grouping =
        TableGrouping::new(w.table_names.len(), groups, rates, &w.analytic_tables).unwrap();
    let tel = Arc::new(Telemetry::new());
    let engine = AetsEngine::builder(grouping)
        .config(AetsConfig { threads: 2, ..Default::default() })
        .telemetry(tel.clone())
        .build()
        .unwrap();
    let dir = scratch(&format!("seed{}", plan.seed));
    let mut backup = DurableBackup::open(
        dir.join("wal"),
        dir.join("ckpt"),
        engine,
        w.table_names.len(),
        DurableOptions::default(),
        None,
    )
    .unwrap();
    let retry = RetryPolicy { max_retries: 5, base_backoff_us: 1, max_backoff_us: 50 };
    let outcome = backup.ingest_from(&mut FaultInjector::new(epochs, plan), &retry);
    Fed { backup, outcome, tel, dir }
}

/// Feeds a tpcc stream under a seeded transient fault schedule and
/// asserts full recovery to the oracle digest; returns the feed so
/// callers can check which resync counters moved.
fn assert_recovers(kinds: Vec<FaultKind>, seed: u64) -> Fed {
    let (w, epochs, want) = tpcc_setup(600, 64);
    let n = epochs.len() as u64;
    let fed = feed(&w, epochs, FaultPlan::new(seed, 0.5, kinds));
    assert_eq!(fed.outcome, Ok(n), "every epoch must be ingested");
    assert!(
        fed.backup.engine().quarantined_groups().is_empty(),
        "transient faults must heal, not quarantine"
    );
    assert!(fed.counter(names::INGEST_RETRIES) > 0, "seed {seed} faulted nothing; pick another");
    let db = fed.backup.db();
    assert_eq!(db.digest_at(Timestamp::MAX), want, "recovered state diverged from oracle");
    assert!(db.all_chains_ordered());
    fed
}

#[test]
fn recovers_from_torn_tail_faults() {
    let fed = assert_recovers(vec![FaultKind::TornTail], 1);
    assert!(fed.counter(names::CHECKSUM_FAILURES) > 0, "torn tails must trip the epoch frame CRC");
}

#[test]
fn recovers_from_bit_flip_faults() {
    let fed = assert_recovers(vec![FaultKind::BitFlip], 2);
    assert!(fed.counter(names::CHECKSUM_FAILURES) > 0, "bit flips must trip the epoch frame CRC");
}

#[test]
fn recovers_from_reorder_faults() {
    let fed = assert_recovers(vec![FaultKind::Reorder, FaultKind::Duplicate, FaultKind::Drop], 3);
    assert!(
        fed.counter(names::EPOCH_GAPS) > 0,
        "mis-sequenced deliveries must trip the sequence check"
    );
}

#[test]
fn recovers_from_stalled_deliveries() {
    let fed = assert_recovers(vec![FaultKind::Stall], 4);
    assert!(fed.counter(names::INGEST_STALLS) > 0, "stalls must be counted");
}

#[test]
fn persistent_corruption_quarantines_without_panic() {
    // Corruption stamped *inside* the frame (record CRC broken, frame CRC
    // valid) is invisible to ingest and cannot be healed by re-requesting:
    // replay must complete degraded — affected groups quarantined, healthy
    // groups at the stream head, global watermark frozen — not panic.
    let (w, epochs, _) = tpcc_setup(600, 64);
    let last = epochs.last().unwrap().max_commit_ts;
    let n = epochs.len() as u64;
    let plan = FaultPlan::new(21, 1.0, vec![FaultKind::RecordCorruption]).persistent();
    let fed = feed(&w, epochs, plan);
    assert_eq!(fed.outcome, Ok(n), "a quarantine does not stop ingest");
    let quarantined = fed.backup.engine().quarantined_groups();
    assert!(!quarantined.is_empty(), "persistent record corruption must quarantine");
    for name in
        [names::INGEST_RETRIES, names::CHECKSUM_FAILURES, names::EPOCH_GAPS, names::INGEST_STALLS]
    {
        assert_eq!(fed.counter(name), 0, "in-record corruption is invisible at ingest: {name}");
    }
    let board = fed.backup.board();
    for g in 0..board.num_groups() {
        let tg = board.tg_cmt_ts(GroupId::new(g as u32));
        if quarantined.contains(&g) {
            assert!(tg < last, "quarantined group {g} advanced to the stream head");
        } else {
            assert_eq!(tg, last, "healthy group {g} must keep replaying");
        }
    }
    assert!(board.global_cmt_ts() < last, "global watermark must freeze while degraded");
    assert!(fed.backup.db().all_chains_ordered());
}

#[test]
fn unhealable_delivery_faults_exhaust_retries_with_typed_errors() {
    let (w, epochs, _) = tpcc_setup(200, 64);

    // A channel that tears every delivery forever: resync exhausts its
    // retries on the frame CRC and surfaces a codec error.
    let plan = FaultPlan::new(7, 1.0, vec![FaultKind::TornTail]).persistent();
    let fed = feed(&w, epochs.clone(), plan);
    let err = fed.outcome.as_ref().unwrap_err();
    assert_eq!(err.kind(), "codec", "got {err}");
    assert_eq!(fed.backup.next_seq(), 0, "nothing got past the check");

    // A channel that drops the requested epoch forever: resync exhausts
    // its retries on the sequence check and surfaces a protocol error.
    let plan = FaultPlan::new(7, 1.0, vec![FaultKind::Drop]).persistent();
    let fed = feed(&w, epochs, plan);
    let err = fed.outcome.as_ref().unwrap_err();
    assert_eq!(err.kind(), "protocol", "got {err}");
    assert_eq!(fed.backup.next_seq(), 0, "nothing got past the check");
}

/// 12 transactions, each writing table 0 (group 0, hot) and table 2
/// (group 1, cold), batched into 3 epochs of 4.
fn two_group_stream() -> (Vec<EncodedEpoch>, TableGrouping) {
    let txns: Vec<TxnLog> = (1..=12u64)
        .map(|i| TxnLog {
            txn_id: TxnId::new(i),
            commit_ts: Timestamp::from_micros(i * 10),
            entries: [0u32, 2]
                .iter()
                .enumerate()
                .map(|(j, &table)| DmlEntry {
                    lsn: Lsn::new(i * 10 + j as u64),
                    txn_id: TxnId::new(i),
                    ts: Timestamp::from_micros(i * 10),
                    table: TableId::new(table),
                    op: DmlOp::Insert,
                    key: RowKey::new(i),
                    row_version: 1,
                    cols: vec![(ColumnId::new(0), Value::Int(i as i64))],
                    before: None,
                })
                .collect(),
        })
        .collect();
    let epochs = batch_into_epochs(txns, 4).unwrap().iter().map(encode_epoch).collect::<Vec<_>>();
    let hot: FxHashSet<TableId> = [TableId::new(0)].into_iter().collect();
    let grouping = TableGrouping::new(
        3,
        vec![vec![TableId::new(0), TableId::new(1)], vec![TableId::new(2)]],
        vec![10.0, 1.0],
        &hot,
    )
    .unwrap();
    (epochs, grouping)
}

#[test]
fn degraded_runner_times_out_quarantined_queries() {
    // Epoch 1 carries unrecoverable corruption in group 1's first
    // mini-txn. The realtime run must finish degraded: the analytical
    // query over the healthy group is served, the one over the
    // quarantined group blocks on Algorithm 3 until its timeout instead
    // of reading past the frozen watermark.
    let (mut epochs, grouping) = two_group_stream();
    epochs[1] = corrupt_record_of(&epochs[1], TableId::new(2)).expect("a DML of table 2");
    let arrivals: Vec<Timestamp> = epochs.iter().map(|e| e.max_commit_ts).collect();
    let engine = AetsEngine::builder(grouping)
        .config(AetsConfig { threads: 2, ..Default::default() })
        .build()
        .unwrap();
    let db = std::sync::Arc::new(MemDb::new(3));
    let queries = vec![
        RunnerQuery { arrival: epochs[0].max_commit_ts, tables: vec![TableId::new(0)] },
        RunnerQuery { arrival: epochs[2].max_commit_ts, tables: vec![TableId::new(2)] },
    ];
    let cfg = RunnerConfig {
        time_scale: 1000.0,
        query_timeout: Duration::from_millis(300),
        ..Default::default()
    };
    let outcome = run_realtime(
        std::sync::Arc::new(engine),
        db,
        &RunnerWorkload { epochs: &epochs, arrivals: &arrivals, queries: &queries },
        &cfg,
    )
    .unwrap();
    assert!(outcome.degraded(), "runner must surface the quarantine");
    assert_eq!(outcome.metrics.quarantined_groups, vec![1]);
    assert_eq!(outcome.delays.len(), 1, "the healthy-group query is served");
    assert_eq!(outcome.timed_out, 1, "the quarantined-group query must time out");
    assert_eq!(outcome.metrics.txns, 12, "healthy groups replay the whole stream");
}
