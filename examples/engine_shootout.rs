//! Engine shootout: run all four real threaded engines (AETS, TPLR, ATR,
//! C5) over the same CH-benCHmark log and verify they converge to exactly
//! the same MVCC state as a serial oracle.
//!
//! ```sh
//! cargo run --release --example engine_shootout
//! ```

use aets_suite::common::{FxHashSet, TableId, Timestamp};
use aets_suite::memtable::MemDb;
use aets_suite::replay::{
    run_realtime, AetsConfig, AetsEngine, AtrEngine, C5Engine, ReplayEngine, RunnerConfig,
    SerialEngine, TableGrouping, Workload,
};
use aets_suite::telemetry::{names, Telemetry};
use aets_suite::wal::{batch_into_epochs, encode_epoch, ReplicationTimeline};
use aets_suite::workloads::{chbench, tpcc::TpccConfig};
use std::sync::Arc;

fn main() {
    let workload =
        chbench::generate(&TpccConfig { num_txns: 8_000, warehouses: 4, ..Default::default() });
    let raw = batch_into_epochs(workload.txns.clone(), 2048).expect("positive epoch size");
    let epochs: Vec<_> = raw.iter().map(encode_epoch).collect();
    let n = workload.num_tables();
    println!(
        "CH-benCHmark: {} txns, {} entries, {} epochs, {} tables\n",
        workload.txns.len(),
        workload.total_entries(),
        epochs.len(),
        n
    );

    // Ground truth.
    let oracle = MemDb::new(n);
    SerialEngine.replay_all(&epochs, &oracle).expect("serial replay");
    let want = oracle.digest_at(Timestamp::MAX);
    println!("serial oracle state digest: {want:#018x}\n");

    // Per-table grouping for AETS (the paper's CH-benCHmark setup).
    let hot = workload.analytic_tables.clone();
    let written: FxHashSet<TableId> = workload.written_tables();
    let grouping =
        TableGrouping::per_table(n, &hot, |t| if written.contains(&t) { 100.0 } else { 1.0 });

    let engines: Vec<(&str, Box<dyn ReplayEngine>)> = vec![
        (
            "AETS",
            Box::new(
                AetsEngine::builder(grouping)
                    .config(AetsConfig { threads: 4, ..Default::default() })
                    .build()
                    .expect("valid config"),
            ),
        ),
        ("TPLR", Box::new(AetsEngine::tplr_baseline(4, n, &hot).expect("valid config"))),
        ("ATR", Box::new(AtrEngine::new(4).expect("valid config"))),
        ("C5", Box::new(C5Engine::new(4).expect("valid config"))),
    ];

    println!("engine  wall        entries/s   breakdown (dispatch/replay/commit)  state");
    for (name, engine) in engines {
        let db = MemDb::new(n);
        let m = engine.replay_all(&epochs, &db).expect("replay succeeds");
        let (d, r, c) = m.breakdown();
        let got = db.digest_at(Timestamp::MAX);
        let ok = if got == want { "match" } else { "DIVERGED" };
        println!(
            "{name:<7} {:<11?} {:<11.0} {:>5.1}% / {:>5.1}% / {:>5.1}%            {ok}",
            m.wall,
            m.entries_per_sec(),
            d * 100.0,
            r * 100.0,
            c * 100.0
        );
        assert_eq!(got, want, "{name} must converge to the oracle state");
    }
    // ---- Live telemetry: the same AETS setup on a paced timeline. ------
    // A real-time run with an instrumented engine records per-group
    // visibility lag (freshness) on the primary clock and renders a
    // Prometheus-style exposition snapshot on cadence. Smaller epochs and
    // a half-speed timeline keep the feed inside this machine's replay
    // capacity, so the lag readings reflect steady-state freshness rather
    // than an overloaded backup.
    let tel = Arc::new(Telemetry::new());
    let grouping =
        TableGrouping::per_table(n, &hot, |t| if written.contains(&t) { 100.0 } else { 1.0 });
    let live = AetsEngine::builder(grouping)
        .config(AetsConfig { threads: 4, ..Default::default() })
        .telemetry(tel.clone())
        .build()
        .expect("valid config");
    let raw_live = batch_into_epochs(workload.txns.clone(), 256).expect("positive epoch size");
    let arrivals_live = ReplicationTimeline::default().arrivals(&raw_live);
    let epochs_live: Vec<_> = raw_live.iter().map(encode_epoch).collect();
    let db = Arc::new(MemDb::new(n));
    let cfg = RunnerConfig { time_scale: 0.5, ..Default::default() };
    run_realtime(
        Arc::new(live),
        db,
        &Workload { epochs: &epochs_live, arrivals: &arrivals_live, queries: &[] },
        &cfg,
    )
    .expect("realtime run");
    let snap = tel.snapshot();
    println!("\nlive telemetry (paced 0.5x real-time AETS run, {}-epoch feed):", epochs_live.len());
    if let Some(lag) = snap.histogram_summary_all(names::VISIBILITY_LAG_US) {
        println!(
            "  freshness: visibility lag p50 {}us / p95 {}us / p99 {}us / max {}us \
             over {} publishes",
            lag.p50_us, lag.p95_us, lag.p99_us, lag.max_us, lag.count
        );
    }
    println!("  exposition snapshot excerpt:");
    let text = snap.render_prometheus();
    let excerpt = text.lines().filter(|l| {
        l.starts_with(names::EPOCHS)
            || l.starts_with(names::GLOBAL_CMT_TS_US)
            || l.starts_with("aets_visibility_lag_us_count")
    });
    for line in excerpt.take(6) {
        println!("    {line}");
    }

    println!(
        "\nAll engines installed {} versions and agree bit-for-bit on every snapshot.",
        oracle.total_versions()
    );
    println!(
        "(Wall times here measure correctness runs on this machine's cores; the\n\
         paper-shape performance comparison lives in the virtual-clock harness:\n\
         `cargo run --release -p aets-bench --bin repro -- fig8`.)"
    );
}
