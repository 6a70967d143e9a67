//! Fleet demo: three supervised backup shards replay a partitioned TPC-C
//! epoch stream, lose a shard mid-run, fail over from shipped checkpoints
//! plus the WAL suffix, and still answer exactly like a single-node
//! serial oracle.
//!
//! ```sh
//! cargo run --release --example fleet_demo
//! ```
//!
//! The final line is grep-able by CI:
//! `fleet verified against single-node oracle`.

use aets_suite::common::TableId;
use aets_suite::fleet::{DegradedPolicy, Fleet, FleetOptions, RoutedPart, ShardPlan};
use aets_suite::memtable::{MemDb, Scan};
use aets_suite::replay::{
    QueryOutput, QuerySpec, ReplayEngine, SerialEngine, ServiceOptions, TableGrouping,
};
use aets_suite::telemetry::{names, Telemetry};
use aets_suite::wal::{batch_into_epochs, encode_epoch, EncodedEpoch};
use aets_suite::workloads::tpcc::{self, TpccConfig};
use std::sync::Arc;

fn main() {
    // ---- Fixture: TPC-C stream + single-node serial oracle. -----------
    let w = tpcc::generate(&TpccConfig { num_txns: 900, warehouses: 2, ..Default::default() });
    let num_tables = w.num_tables();
    let (groups, rates) = tpcc::paper_grouping();
    let grouping = TableGrouping::new(num_tables, groups, rates, &w.analytic_tables)
        .expect("paper grouping over tpcc tables");
    let epochs = batch_into_epochs(w.txns.clone(), 16).expect("positive epoch size");
    let encoded: Vec<EncodedEpoch> = epochs.iter().map(encode_epoch).collect();
    let target = epochs.last().expect("nonempty stream").max_commit_ts();

    let oracle = MemDb::new(num_tables);
    SerialEngine.replay_all(&encoded, &oracle).expect("serial oracle replay");

    // ---- Fleet: 3 shards, LPT-balanced over the 6 paper groups. -------
    let plan = ShardPlan::balanced(grouping, 3).expect("balanced plan");
    for s in 0..plan.num_shards() {
        println!("shard {s}: groups {:?} ({} tables)", plan.groups_on(s), plan.tables_on(s).len());
    }
    let root = std::env::temp_dir().join(format!("aets-fleet-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // The supervisor counts failovers and missed heartbeats in the registry.
    let opts = FleetOptions {
        failover_after: 2,
        service: ServiceOptions::builder().telemetry(Arc::new(Telemetry::new())).build(),
        ..Default::default()
    };
    let mut fleet = Fleet::open(plan, &root, opts).expect("fleet open");

    // ---- Replay the first half, then kill a shard mid-stream. ---------
    let mid = epochs.len() / 2;
    for e in &epochs[..mid] {
        fleet.enqueue(e);
    }
    let mid_ts = epochs[mid - 1].max_commit_ts();
    fleet.run_until_fresh(mid_ts, 512).expect("first half replay");
    println!(
        "first half replayed: fleet global_cmt_ts = {} us across {} shards",
        fleet.global_cmt_ts().as_micros(),
        fleet.num_shards()
    );

    let victim = 1;
    fleet.kill_shard(victim);
    println!("killed shard {victim} (process death; WAL + checkpoint dirs survive)");

    for e in &epochs[mid..] {
        fleet.enqueue(e);
    }
    fleet.run_until_fresh(target, 512).expect("second half replay with failover");

    let snap = fleet.telemetry().snapshot();
    let failovers = snap.counter_total(names::FLEET_FAILOVERS);
    println!(
        "supervisor: {} ticks, {} missed heartbeats, {failovers} failover(s); \
         shard {victim} rebooted from shipped checkpoints + WAL suffix",
        fleet.now(),
        snap.counter_total(names::FLEET_HEARTBEATS_MISSED),
    );
    assert_eq!(failovers, 1, "exactly one induced failover");

    // ---- Route a fleet-wide query and check it against the oracle. ----
    let specs: Vec<QuerySpec> =
        (0..num_tables as u32).map(|t| QuerySpec::count(TableId::new(t))).collect();
    let ans = fleet.query(target, &specs, DegradedPolicy::Refuse).expect("routed query");
    assert!(ans.is_complete(), "all shards routable after failover");

    let mut total = 0usize;
    for (spec, part) in specs.iter().zip(&ans.parts) {
        let got = match part {
            RoutedPart::Output(QueryOutput::Count(n)) => *n,
            other => panic!("expected a count, got {other:?}"),
        };
        let want = {
            let scan = Scan::at(target);
            scan.count(oracle.table(spec.table))
        };
        assert_eq!(got, want, "table {:?} diverged from the oracle", spec.table);
        total += got;
    }
    println!(
        "routed {} per-table counts at qts={} us, {total} rows total",
        specs.len(),
        target.as_micros()
    );

    let _ = std::fs::remove_dir_all(&root);
    println!("fleet verified against single-node oracle");
}
