//! The names and units of every metric the benchmark prints, in print
//! order. `BENCHMARK.json` at the repo root carries the same names with
//! their bounds and the workloads' rationale; `spread.py` fails when a
//! run's result object and that file disagree.

pub const WORKLOADS: [&str; 4] = [
    "catchup_durable_chbench",
    "catchup_engine_bustracker",
    "paced_htap_chbench",
    "scan_heavy_chbench",
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics: the result object of a `--trace 0` run. The
/// driver's schema has one list for all workloads, so each is measured
/// on every workload, by the one definition README.md gives it.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("replay_txn_per_s", "txn/s"),
    m("query_latency_p50_us", "us"),
    m("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (layer = crate/module name): the result object of a
/// `--trace 1` run. A metric a workload does not exercise reads 0 there —
/// that zero is the trace's proof that the layer did no work.
pub const PER_LAYER: &[Metric] = &[
    // transport
    m("transport.ship_mib_per_s", "MiB/s"),
    m("transport.wire_bytes_per_log_byte", "ratio"),
    m("transport.frames_per_epoch", "ratio"),
    m("transport.fetch_wait_share", "ratio"),
    m("transport.session_us_p50", "us"),
    // wal
    m("wal.verify_mib_per_s", "MiB/s"),
    m("wal.append_us_p50", "us"),
    m("wal.append_us_p95", "us"),
    m("wal.append_share", "ratio"),
    m("wal.fsyncs_per_epoch", "ratio"),
    m("wal.disk_bytes_per_log_byte", "ratio"),
    m("wal.read_suffix_mib_per_s", "MiB/s"),
    m("wal.decode_rec_per_s", "1/s"),
    // replay::dispatch
    m("dispatch.us_per_epoch_p50", "us"),
    m("dispatch.entries_per_s", "1/s"),
    m("dispatch.busy_share", "ratio"),
    // replay::engines
    m("engine.replay_us_per_epoch_p50", "us"),
    m("engine.replay_us_per_epoch_p95", "us"),
    m("engine.entries_per_s", "1/s"),
    m("engine.translate_busy_share", "ratio"),
    m("engine.commit_busy_share", "ratio"),
    m("engine.stage1_wall_share", "ratio"),
    m("engine.cell_recycle_ratio", "ratio"),
    m("engine.serial_txn_per_s", "txn/s"),
    m("engine.speedup_vs_serial", "ratio"),
    // replay::recovery
    m("freshness_p50_us", "us"),
    m("freshness_p95_us", "us"),
    m("durable.ingest_us_p50", "us"),
    m("durable.ingest_us_p95", "us"),
    m("durable.ingest_us_max", "us"),
    m("durable.unattributed_share", "ratio"),
    m("ingest.busy_share", "ratio"),
    m("recovery_s", "s"),
    m("recovery.suffix_epochs", "count"),
    // replay::checkpoint + memtable::snapshot
    m("checkpoint.stall_ms_p50", "ms"),
    m("checkpoint.stall_ms_max", "ms"),
    m("checkpoint.count", "count"),
    m("checkpoint.share", "ratio"),
    m("checkpoint.bytes_per_log_byte", "ratio"),
    m("memtable.snapshot_encode_mib_per_s", "MiB/s"),
    // replay::visibility
    m("vis_delay_p50_us", "us"),
    m("vis_delay_p95_us", "us"),
    m("visibility.admission_wait_us_p50", "us"),
    m("visibility.admission_wait_us_p95", "us"),
    m("visibility.admission_wait_us_p99", "us"),
    m("visibility.hot_lead_us_p50", "us"),
    // replay::service
    m("query_latency_p95_us", "us"),
    m("query_per_s", "1/s"),
    m("service.exec_us_p50", "us"),
    m("service.exec_us_p95", "us"),
    m("service.overhead_us_p50", "us"),
    m("service.busy_share", "ratio"),
    m("service.refused", "count"),
    m("service.timeouts", "count"),
    // memtable
    m("memtable.scan_rows_per_s", "1/s"),
    m("memtable.eval_us_p50", "us"),
    m("memtable.gc_pass_ms_p50", "ms"),
    m("memtable.gc_pruned_per_pass", "count"),
    m("memtable.versions_installed", "count"),
    // the benchmark itself (validity, not performance)
    m("gen.offered_txn_per_s", "txn/s"),
    m("gen.offered_q_per_s", "1/s"),
    m("gen.late_us_p95", "us"),
    m("gen.backlog_mid_epochs", "count"),
    m("gen.backlog_end_epochs", "count"),
    m("bench.trace_overhead_pct", "%"),
    m("bench.reps", "count"),
    m("bench.rep_spread_pct", "%"),
    m("failed_ops_share", "ratio"),
    m("bench.valid", "count"),
];
