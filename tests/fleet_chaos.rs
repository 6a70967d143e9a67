//! Fleet chaos suite: N supervised shards under deterministic fault
//! schedules, proven against the single-node serial oracle.
//!
//! The contract under test, per seeded schedule:
//!
//! 1. **Oracle equivalence** — every routed-and-merged query result
//!    equals the serial oracle's answer at the same `qts`, both mid-run
//!    (while shards crash, hang, and lose heartbeats) and after drain.
//! 2. **Watermark safety** — the fleet-wide `global_cmt_ts` is monotone,
//!    and no query at or below it ever observes data past it: a dark
//!    shard freezes the watermark (consistent-but-stale), it never lets
//!    a stale read pass as fresh.
//! 3. **Bounded failover** — a shard that stops heartbeating is replaced
//!    within `failover_after` supervisor ticks, bootstrapped from its
//!    shipped checkpoints plus only the WAL suffix.
//!
//! Seeds are pinned for CI reproducibility (the `fleet-chaos` job runs
//! one per lane); set `AETS_SEED=<u64>` to replay a single seed.

use aets_suite::common::{TableId, Timestamp};
use aets_suite::fleet::{
    DegradedPolicy, Fleet, FleetFaultPlan, FleetOptions, RoutedPart, ShardHealth, ShardPlan,
};
use aets_suite::memtable::MemDb;
use aets_suite::replay::{
    eval_spec, QueryOutput, QuerySpec, QueryTarget, ReplayEngine, SerialEngine, ServiceOptions,
    TableGrouping,
};
use aets_suite::telemetry::{names, Telemetry};
use aets_suite::wal::{batch_into_epochs, encode_epoch, EncodedEpoch, Epoch};
use aets_suite::workloads::tpcc;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

const NUM_SHARDS: usize = 3;
const FAILOVER_AFTER: u32 = 2;
/// Liveness budget: a watermark that fails to reach the stream head
/// within this many ticks is a stuck fleet, not bad luck.
const MAX_TICKS: u64 = 5_000;

struct Fixture {
    epochs: Vec<Epoch>,
    grouping: TableGrouping,
    oracle: MemDb,
    target: Timestamp,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let w = tpcc::generate(&tpcc::TpccConfig {
            num_txns: 700,
            warehouses: 2,
            ..Default::default()
        });
        let num_tables = w.num_tables();
        let (groups, rates) = tpcc::paper_grouping();
        let grouping = TableGrouping::new(num_tables, groups, rates, &w.analytic_tables).unwrap();
        let epochs = batch_into_epochs(w.txns.clone(), 16).unwrap();
        let encoded: Vec<EncodedEpoch> = epochs.iter().map(encode_epoch).collect();
        let oracle = MemDb::new(num_tables);
        SerialEngine.replay_all(&encoded, &oracle).unwrap();
        let target = epochs.last().unwrap().max_commit_ts();
        Fixture { epochs, grouping, oracle, target }
    })
}

fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("aets-fleet-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The serial-oracle answer for `spec` at `qts` — the shared
/// [`eval_spec`] path, the same glue every other target routes through.
fn oracle_answer(oracle: &MemDb, spec: &QuerySpec, qts: Timestamp) -> QueryOutput {
    eval_spec(oracle, spec, qts)
}

/// Failovers and missed heartbeats are counted in the registry only, so
/// every chaos fleet reports into a live one.
fn chaos_opts() -> FleetOptions {
    let mut opts = FleetOptions {
        failover_after: FAILOVER_AFTER,
        service: ServiceOptions::builder().telemetry(Arc::new(Telemetry::new())).build(),
        ..Default::default()
    };
    // Frequent checkpoints so failovers genuinely exercise the
    // checkpoint-shipping bootstrap (not a cold full-WAL replay).
    opts.shard.durable.checkpoint_every = 8;
    opts
}

/// One full chaos run under `seed`. Returns the failover count so the
/// driver can confirm the schedule actually bit.
fn chaos_run(seed: u64) -> u64 {
    let fx = fixture();
    let num_tables = fx.oracle.num_tables();
    let plan = ShardPlan::balanced(fx.grouping.clone(), NUM_SHARDS).unwrap();
    let mut fleet = Fleet::open(plan, scratch(&format!("chaos-{seed:x}")), chaos_opts())
        .unwrap()
        .with_faults(FleetFaultPlan::new(seed, 0.12));

    // Held fleet session, opened at the first nonzero watermark: clamps
    // every shard's GC below its qts for the whole run, and must survive
    // every failover via the re-pin path.
    let mut early_session = None;
    let mut prev_wm = Timestamp::ZERO;
    let mut down_streak = [0u64; NUM_SHARDS];
    let mut fed = 0usize;

    while fleet.global_cmt_ts() < fx.target {
        assert!(fleet.now() < MAX_TICKS, "seed {seed:#x}: fleet stuck at {prev_wm:?}");
        if fed < fx.epochs.len() {
            fleet.enqueue(&fx.epochs[fed]);
            fed += 1;
        }
        fleet.tick().unwrap();

        // Invariant 2: the fleet watermark only moves forward.
        let wm = fleet.global_cmt_ts();
        assert!(wm >= prev_wm, "seed {seed:#x}: watermark moved backwards");
        prev_wm = wm;
        if early_session.is_none() && wm > Timestamp::ZERO {
            early_session = Some(fleet.open_session(wm));
        }

        // Invariant 3: a shard is never observed down for more than
        // `failover_after` consecutive ticks — the supervisor's bound.
        for (s, h) in fleet.health().iter().enumerate() {
            if *h == ShardHealth::Down {
                down_streak[s] += 1;
            } else {
                down_streak[s] = 0;
            }
            assert!(
                down_streak[s] <= u64::from(FAILOVER_AFTER),
                "seed {seed:#x}: shard {s} down past the failover bound"
            );
        }

        // Invariant 1+2, mid-run: routed counts at the *current* fleet
        // watermark match the oracle exactly. A part served by a shard
        // that replayed further ahead must still read the qts snapshot
        // (nothing past the fleet watermark), and a dark shard answers
        // Unavailable, never stale.
        if fleet.now().is_multiple_of(8) && wm > Timestamp::ZERO {
            let specs: Vec<QuerySpec> =
                (0..num_tables as u32).map(|t| QuerySpec::count(TableId::new(t))).collect();
            let ans = fleet.query(wm, &specs, DegradedPolicy::Partial).unwrap();
            for (spec, part) in specs.iter().zip(&ans.parts) {
                if let RoutedPart::Output(out) = part {
                    assert_eq!(
                        *out,
                        oracle_answer(&fx.oracle, spec, wm),
                        "seed {seed:#x}: mid-run divergence on table {:?} at {wm:?}",
                        spec.table
                    );
                }
            }
        }
    }

    // Settle: tick until every shard is routable again (faults keep
    // firing; the supervisor must win within the liveness budget).
    let mut settle = 0u64;
    while !fleet.health().iter().all(|h| h.routable()) {
        settle += 1;
        assert!(settle < MAX_TICKS, "seed {seed:#x}: fleet never settled");
        fleet.tick().unwrap();
    }
    assert_eq!(fleet.global_cmt_ts(), fx.target, "drained fleet must reach the stream head");

    // Final oracle equivalence: full row scans of every table through
    // the generic `QueryTarget` surface — the fleet (routed + merged,
    // strict policy) and the serial oracle answer the identical call.
    let specs: Vec<QuerySpec> =
        (0..num_tables as u32).map(|t| QuerySpec::rows(TableId::new(t))).collect();
    let got = fleet.query_at(fx.target, &specs).expect("settled fleet must answer strict reads");
    let want = fx.oracle.query_at(fx.target, &specs).unwrap();
    assert_eq!(got, want, "seed {seed:#x}: final state diverged from oracle");

    // The held early session survived every failover; its snapshot must
    // still be exact (its pins kept GC below its qts on every shard,
    // including replacements).
    if let Some(session) = early_session {
        let qts = session.qts();
        let got = fleet.query_at(qts, &specs).unwrap();
        let want = fx.oracle.query_at(qts, &specs).unwrap();
        assert_eq!(got, want, "seed {seed:#x}: pinned early snapshot diverged from oracle");
    }

    let snap = fleet.telemetry().snapshot();
    let failovers = snap.counter_total(names::FLEET_FAILOVERS);
    // Failovers bootstrap from shipped state: a replacement must restore
    // a checkpoint and/or replay a bounded WAL suffix — never re-replay
    // the whole history from scratch.
    if failovers > 0 {
        let restored = (0..NUM_SHARDS)
            .filter_map(|s| fleet.shard(s).recovery())
            .any(|r| r.restored_seq.is_some() || r.suffix_epochs > 0);
        assert!(restored, "seed {seed:#x}: failover left no recovery evidence");
        for s in 0..NUM_SHARDS {
            if let Some(r) = fleet.shard(s).recovery() {
                if r.restored_seq.is_some() {
                    assert!(
                        r.suffix_epochs < fx.epochs.len() as u64,
                        "seed {seed:#x}: shard {s} replayed the full history despite a checkpoint"
                    );
                }
            }
        }
    }
    eprintln!(
        "seed {seed:#x}: ticks={} failovers={} crashes={} hangs={} heartbeats_missed={} acked={}",
        fleet.now(),
        failovers,
        snap.counter_total(names::FLEET_CRASHES_INJECTED),
        snap.counter_total(names::FLEET_HANGS_INJECTED),
        snap.counter_total(names::FLEET_HEARTBEATS_MISSED),
        snap.counter_total(names::FLEET_EPOCHS_ACKED)
    );
    failovers
}

fn seeds() -> Vec<u64> {
    aets_suite::seeds(&[0x00F1_EE70, 0x00F1_EE71, 0x00F1_EE72])
}

#[test]
fn chaos_matches_oracle_across_pinned_seeds() {
    let mut failovers = 0;
    for seed in seeds() {
        failovers += chaos_run(seed);
    }
    // The pinned seeds are chosen so the schedule actually bites: at
    // least one failover must have been exercised across the suite.
    assert!(failovers > 0, "chaos seeds produced no failover — schedule too tame");
}

/// Crash-only schedule at a brutal rate: every shard dies repeatedly,
/// every death redelivers its un-acked backlog to the replacement, and
/// the final state still matches the oracle bit for bit.
#[test]
fn crash_storm_converges() {
    let fx = fixture();
    let num_tables = fx.oracle.num_tables();
    let plan = ShardPlan::balanced(fx.grouping.clone(), NUM_SHARDS).unwrap();
    let mut fleet = Fleet::open(plan, scratch("storm"), chaos_opts()).unwrap().with_faults(
        FleetFaultPlan::new(0x0D00D, 0.25)
            .kinds(vec![aets_suite::fleet::FleetFaultKind::ShardCrash]),
    );
    for e in &fx.epochs {
        fleet.enqueue(e);
    }
    let mut prev = Timestamp::ZERO;
    while fleet.global_cmt_ts() < fx.target {
        assert!(fleet.now() < MAX_TICKS, "storm: fleet stuck");
        fleet.tick().unwrap();
        assert!(fleet.global_cmt_ts() >= prev);
        prev = fleet.global_cmt_ts();
    }
    let snap = fleet.telemetry().snapshot();
    let failovers = snap.counter_total(names::FLEET_FAILOVERS);
    let crashes = snap.counter_total(names::FLEET_CRASHES_INJECTED);
    assert!(crashes > 0 && failovers > 0, "storm schedule must bite");

    let mut settle = 0u64;
    while !fleet.health().iter().all(|h| h.routable()) {
        settle += 1;
        assert!(settle < MAX_TICKS, "storm: fleet never settled");
        fleet.tick().unwrap();
    }
    let specs: Vec<QuerySpec> =
        (0..num_tables as u32).map(|t| QuerySpec::rows(TableId::new(t))).collect();
    let got = fleet.query_at(fx.target, &specs).unwrap();
    assert_eq!(got, fx.oracle.query_at(fx.target, &specs).unwrap());
}
