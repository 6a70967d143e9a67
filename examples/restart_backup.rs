//! Restarting the backup node: durable ingest, a hard kill, and
//! suffix-only recovery.
//!
//! ```sh
//! cargo run --release --example restart_backup
//! ```
//!
//! Runs a TPC-C stream through a [`DurableBackup`] (WAL append beside replay +
//! epoch-aligned checkpoints), "kills" the node by dropping it, restarts
//! it from disk, and verifies the recovered state equals a fault-free
//! serial-oracle replay. The demo prints and asserts; recovery time and
//! suffix length are measured by `benchmark/`'s `catchup_durable_chbench`
//! (`recovery_s`, `recovery.suffix_epochs`).

use aets_suite::common::Timestamp;
use aets_suite::memtable::MemDb;
use aets_suite::replay::{
    AetsConfig, AetsEngine, DurableBackup, DurableOptions, ReplayEngine, SerialEngine,
    TableGrouping,
};
use aets_suite::telemetry::{names, Telemetry};
use aets_suite::wal::{batch_into_epochs, encode_epoch, SegmentConfig, VerifiedEpoch};
use aets_suite::workloads::tpcc::{self, TpccConfig};
use std::sync::Arc;

fn engine(grouping: &TableGrouping) -> AetsEngine {
    AetsEngine::builder(grouping.clone())
        .config(AetsConfig { threads: 2, ..Default::default() })
        .build()
        .expect("positive thread count")
}

fn main() {
    // The primary's committed log stream.
    let workload =
        tpcc::generate(&TpccConfig { num_txns: 20_000, warehouses: 4, ..Default::default() });
    let epochs: Vec<_> = batch_into_epochs(workload.txns.clone(), 256)
        .expect("positive epoch size")
        .iter()
        .map(encode_epoch)
        .collect();
    let num_tables = workload.num_tables();
    let (groups, rates) = tpcc::paper_grouping();
    let grouping = TableGrouping::new(num_tables, groups, rates, &workload.analytic_tables)
        .expect("paper grouping is well-formed");

    // Fault-free oracle for the final equality check.
    let oracle = MemDb::new(num_tables);
    SerialEngine.replay_all(&epochs, &oracle).expect("oracle replay");
    let want = oracle.digest_at(Timestamp::MAX);

    let base = std::env::temp_dir().join(format!("aets-restart-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let wal_dir = base.join("wal");
    let ckpt_dir = base.join("ckpt");
    let opts = DurableOptions {
        checkpoint_every: 16,
        keep_checkpoints: 2,
        segment: SegmentConfig { epochs_per_segment: 8, ..Default::default() },
        gc_before_checkpoint: true,
        ..Default::default()
    };

    // ---- First life: ingest everything durably, then die. -------------
    let tel = Arc::new(Telemetry::new());
    let (ckpts, retired, ingest_wall) = {
        let live_engine = AetsEngine::builder(grouping.clone())
            .config(AetsConfig { threads: 2, ..Default::default() })
            .telemetry(tel.clone())
            .build()
            .expect("positive thread count");
        let mut node =
            DurableBackup::open(&wal_dir, &ckpt_dir, live_engine, num_tables, opts.clone(), None)
                .expect("cold start");
        let t0 = std::time::Instant::now();
        for e in &epochs {
            let e = VerifiedEpoch::new(e.clone()).expect("a freshly encoded epoch checks");
            node.ingest(&e).expect("durable ingest");
        }
        let ingest_wall = t0.elapsed();
        // The registry is the node's one ledger across calls.
        let snap = tel.snapshot();
        println!(
            "ingest resync: {} retries ({} checksum failures, {} epoch gaps, {} stalls)",
            snap.counter_total(names::INGEST_RETRIES),
            snap.counter_total(names::CHECKSUM_FAILURES),
            snap.counter_total(names::EPOCH_GAPS),
            snap.counter_total(names::INGEST_STALLS)
        );
        (
            snap.counter_total(names::CHECKPOINTS_WRITTEN),
            snap.counter_total(names::WAL_SEGMENTS_RETIRED),
            ingest_wall,
        )
        // `node` dropped here without any shutdown handshake: the "crash".
    };
    println!(
        "first life: {} epochs ingested in {:.2?}, {} checkpoints cut, {} WAL segments retired",
        epochs.len(),
        ingest_wall,
        ckpts,
        retired
    );
    if let Some(lag) = tel.snapshot().histogram_summary_all(names::VISIBILITY_LAG_US) {
        println!(
            "freshness: visibility lag p50 {}us / p95 {}us / p99 {}us / max {}us \
             over {} publishes (primary clock)",
            lag.p50_us, lag.p95_us, lag.p99_us, lag.max_us, lag.count
        );
    }

    // ---- Second life: restart from disk. ------------------------------
    let node = DurableBackup::open(&wal_dir, &ckpt_dir, engine(&grouping), num_tables, opts, None)
        .expect("restart recovery");
    let rec = node.recovery();
    println!(
        "restart: restored checkpoint at epoch {:?}, re-replayed a {}-epoch WAL suffix \
         in {:.2?} ({} manifest fallbacks)",
        rec.restored_seq, rec.suffix_epochs, rec.recovery_wall, rec.manifest_fallbacks
    );
    assert_eq!(node.db().digest_at(Timestamp::MAX), want, "recovered state == oracle");
    println!("recovered digest matches the fault-free serial oracle");

    let _ = std::fs::remove_dir_all(&base);
}
