//! Telemetry smoke test: a short paced TPC-C replay with live
//! instrumentation must produce parseable exposition snapshots, a
//! monotone gap-free event stream, and registry totals that agree with
//! the engine's own `ReplayMetrics`. This is the CI gate for the
//! observability layer (`.github/workflows/ci.yml`, `telemetry-smoke`).

use aets_suite::memtable::MemDb;
use aets_suite::replay::{
    run_realtime, AetsConfig, AetsEngine, ReplayEngine, RunnerConfig, TableGrouping, Workload,
};
use aets_suite::telemetry::{names, parse_exposition, EventKind, Telemetry};
use aets_suite::wal::{
    batch_into_epochs, encode_epoch, EncodedEpoch, ReplicationTimeline, VerifiedEpoch,
};
use aets_suite::workloads::tpcc::{self, TpccConfig};
use std::sync::Arc;

/// Metric families every live snapshot must expose (the dashboard
/// contract): throughput counters, stage walls, freshness, watermarks.
const REQUIRED_FAMILIES: &[&str] = &[
    names::EPOCHS,
    names::TXNS,
    names::ENTRIES,
    names::BYTES,
    names::DISPATCH_US,
    names::STAGE1_US,
    names::VISIBILITY_LAG_US,
    names::TG_CMT_TS_US,
    names::GLOBAL_CMT_TS_US,
    names::INGEST_BYTES_PER_SEC,
    names::STAGE_BARRIER_WAIT_US,
    names::REPLAY_CREW_PARKED,
];

/// `e` with its CRC proof, as the feed hands epochs to `ingest`.
fn checked(e: &EncodedEpoch) -> VerifiedEpoch {
    VerifiedEpoch::new(e.clone()).unwrap()
}

#[test]
fn short_paced_replay_emits_parseable_consistent_telemetry() {
    let w = tpcc::generate(&TpccConfig { num_txns: 2_000, warehouses: 2, ..Default::default() });
    let raw = batch_into_epochs(w.txns.clone(), 128).expect("positive epoch size");
    let arrivals = ReplicationTimeline::default().arrivals(&raw);
    let epochs: Vec<_> = raw.iter().map(encode_epoch).collect();
    assert!(epochs.len() >= 8, "smoke run needs a few epochs");

    let (groups, rates) = tpcc::paper_grouping();
    let grouping =
        TableGrouping::new(w.num_tables(), groups, rates, &w.analytic_tables).expect("grouping");
    let tel = Arc::new(Telemetry::new());
    let engine = AetsEngine::builder(grouping)
        .config(AetsConfig { threads: 2, ..Default::default() })
        .telemetry(tel.clone())
        .build()
        .expect("valid config");
    let db = Arc::new(MemDb::new(w.num_tables()));
    let cfg = RunnerConfig { time_scale: 50.0, ..Default::default() };
    let outcome = run_realtime(
        Arc::new(engine),
        db,
        &Workload { epochs: &epochs, arrivals: &arrivals, queries: &[] },
        &cfg,
    )
    .expect("realtime run");

    // ---- The exposition parses and carries the metric families. ------
    let snap = tel.snapshot();
    let text = snap.render_prometheus();
    let samples = parse_exposition(&text).expect("snapshot must parse");
    assert!(!samples.is_empty());
    for family in REQUIRED_FAMILIES {
        assert!(text.contains(family), "snapshot is missing metric family {family}");
    }
    assert!(!outcome.degraded(), "healthy run");

    // ---- Registry totals agree with the engine's ReplayMetrics. -------
    assert_eq!(snap.counter_total(names::EPOCHS), epochs.len() as u64);
    assert_eq!(snap.counter_total(names::TXNS), outcome.metrics.txns as u64);
    assert_eq!(snap.counter_total(names::ENTRIES), outcome.metrics.entries as u64);
    assert_eq!(snap.counter_total(names::BYTES), outcome.metrics.bytes);
    assert_eq!(snap.gauge(names::QUARANTINED_GROUPS, ""), Some(0));
    assert!(
        snap.gauge(names::INGEST_BYTES_PER_SEC, "").unwrap_or(0) > 0,
        "a replay that moved bytes must publish a nonzero ingest rate"
    );

    let m = &outcome.metrics;
    assert_eq!(m.epochs, epochs.len());
    assert_eq!(snap.counter_total(names::CELL_RECYCLED), m.cell_buffers_recycled);
    assert_eq!(snap.counter_total(names::CELL_ALLOCATED), m.cell_buffers_allocated);
    assert!(m.cell_buffers_recycled + m.cell_buffers_allocated > 0, "phase 1 takes cell buffers");
    // The runner replays in-memory epochs and runs no resync loop, so
    // the delivery-fault counters, fed only by one, stay at zero.
    for name in
        [names::INGEST_RETRIES, names::CHECKSUM_FAILURES, names::EPOCH_GAPS, names::INGEST_STALLS]
    {
        assert_eq!(snap.counter_total(name), 0, "{name}");
    }
    assert_eq!(snap.counter_total(names::ADAPT_REGROUPS), m.regroups_applied);
    assert_eq!(snap.counter_total(names::ADAPT_RESPLITS), m.resplits_applied);
    assert_eq!(snap.counter_total(names::ADAPT_REJECTED), m.reconf_rejected);
    // Busy times reach the registry in whole microseconds once per call
    // (one call per epoch here), so each total may trail the summed
    // `Duration`s by under a microsecond per epoch and never leads them.
    let hist_sum = |name: &str| snap.histogram_summary_all(name).map_or(0, |h| h.sum_us);
    for (what, registry_us, run) in [
        ("dispatch", hist_sum(names::DISPATCH_US), m.dispatch_busy),
        ("replay", snap.counter_total(names::REPLAY_BUSY_US), m.replay_busy),
        ("commit", snap.counter_total(names::COMMIT_BUSY_US), m.commit_busy),
        ("stage 1", hist_sum(names::STAGE1_US), m.stage1_wall),
        ("stage 2", hist_sum(names::STAGE2_US), m.stage2_wall),
    ] {
        let run_us = run.as_micros() as u64;
        assert!(
            registry_us <= run_us && run_us - registry_us <= epochs.len() as u64,
            "{what}: registry {registry_us} us vs run {run_us} us"
        );
    }
    assert!(m.replay_busy > std::time::Duration::ZERO, "replay must have been busy");

    // ---- Freshness was sampled on the primary clock. ------------------
    let lag = snap.histogram_summary_all(names::VISIBILITY_LAG_US).expect("lag histogram");
    assert!(lag.count > 0, "visibility lag must be sampled");
    assert!(lag.p50_us <= lag.p95_us && lag.p95_us <= lag.max_us);
    let last_ts = epochs.last().expect("nonempty").max_commit_ts.as_micros();
    assert_eq!(snap.gauge(names::GLOBAL_CMT_TS_US, ""), Some(last_ts));

    // ---- Event stream: monotone, gap-free, lifecycle-complete. --------
    let events = tel.drain_events();
    assert_eq!(tel.events_dropped(), 0, "short run must not overflow the ring");
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "event seqs must be strictly increasing");
        assert!(pair[0].at_us <= pair[1].at_us, "event stamps must be monotone");
    }
    let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, (0..events.len() as u64).collect::<Vec<_>>(), "gap-free without drops");
    let dispatched =
        events.iter().filter(|e| matches!(e.kind, EventKind::EpochDispatched { .. })).count();
    let committed =
        events.iter().filter(|e| matches!(e.kind, EventKind::EpochCommitted { .. })).count();
    assert_eq!(dispatched, epochs.len(), "one dispatch event per epoch");
    assert_eq!(committed, epochs.len(), "one commit event per epoch");
    // Commit timestamps inside the events replay the epoch watermarks.
    let mut last_cmt = 0;
    for e in &events {
        if let EventKind::EpochCommitted { max_commit_ts_us, .. } = e.kind {
            assert!(max_commit_ts_us >= last_cmt, "epoch watermarks are monotone");
            last_cmt = max_commit_ts_us;
        }
    }
    assert_eq!(last_cmt, last_ts);
}

#[test]
fn epoch_spans_form_a_closed_causal_chain() {
    // The tracing tentpole's engine-side contract: every replayed epoch
    // leaves a closed span tree — a dispatch root with translate,
    // commit-queue wait, apply, and both flip point spans hanging off it
    // — and no span's parent dangles outside the ring.
    use aets_suite::replay::VisibilityBoard;
    use aets_suite::telemetry::trace::{first_orphan, stages};

    let w = tpcc::generate(&TpccConfig { num_txns: 1_000, warehouses: 1, ..Default::default() });
    let raw = batch_into_epochs(w.txns.clone(), 64).expect("positive epoch size");
    let epochs: Vec<_> = raw.iter().map(encode_epoch).collect();
    assert!(epochs.len() >= 4, "needs a few epochs");
    let (groups, rates) = tpcc::paper_grouping();
    let grouping =
        TableGrouping::new(w.num_tables(), groups, rates, &w.analytic_tables).expect("grouping");
    let tel = Arc::new(Telemetry::new());
    let engine = AetsEngine::builder(grouping.clone())
        .config(AetsConfig { threads: 2, ..Default::default() })
        .telemetry(tel.clone())
        .build()
        .expect("valid config");
    let db = MemDb::new(w.num_tables());
    let board = VisibilityBoard::builder(grouping.num_groups()).build();
    engine.replay(&epochs, &db, &board).expect("replay");

    let ring = tel.spans();
    assert_eq!(
        ring.epoch_hint(),
        Some(epochs.len() as u64 - 1),
        "the hint tracks the last committed epoch"
    );
    for seq in 0..epochs.len() as u64 {
        let spans = ring.for_epoch(seq);
        assert!(
            first_orphan(&spans).is_none(),
            "epoch {seq}: a span's parent must resolve within the ring"
        );
        let have: Vec<&str> = spans.iter().map(|s| s.stage).collect();
        for want in [
            stages::DISPATCH,
            stages::TRANSLATE,
            stages::COMMIT_WAIT,
            stages::APPLY,
            stages::FLIP_GROUP,
            stages::FLIP_GLOBAL,
        ] {
            assert!(have.contains(&want), "epoch {seq} is missing a {want} span ({have:?})");
        }
        // One dispatch root per epoch; everything else chains to it.
        let roots: Vec<_> = spans.iter().filter(|s| s.stage == stages::DISPATCH).collect();
        assert_eq!(roots.len(), 1, "epoch {seq}: exactly one dispatch root");
        let root = roots[0];
        assert_eq!(root.parent, None);
        for s in &spans {
            if s.stage != stages::DISPATCH {
                assert_eq!(
                    s.parent,
                    Some(root.id),
                    "epoch {seq}: {} must parent to the dispatch root",
                    s.stage
                );
                assert!(s.start_us >= root.start_us, "children start after the root opens");
            }
            assert!(s.end_us >= s.start_us, "every recorded span is closed");
        }
        // The flips cover every group exactly once per epoch.
        let flips = spans.iter().filter(|s| s.stage == stages::FLIP_GROUP).count();
        assert_eq!(flips, grouping.num_groups(), "epoch {seq}: one group flip per group");
        assert_eq!(
            spans.iter().filter(|s| s.stage == stages::FLIP_GLOBAL).count(),
            1,
            "epoch {seq}: exactly one global flip"
        );
    }
}

#[test]
fn crew_saturation_signals_are_emitted() {
    // The two crew signals of the metric contract: one
    // `aets_stage_barrier_wait_us` sample per stage run, and
    // `aets_replay_crew_parked` reaching `threads - 1` once nobody is
    // calling the engine.
    use aets_suite::replay::VisibilityBoard;
    use std::time::{Duration, Instant};

    let w = tpcc::generate(&TpccConfig { num_txns: 1_000, warehouses: 1, ..Default::default() });
    let raw = batch_into_epochs(w.txns.clone(), 64).expect("positive epoch size");
    let epochs: Vec<_> = raw.iter().map(encode_epoch).collect();
    let (groups, rates) = tpcc::paper_grouping();
    let grouping =
        TableGrouping::new(w.num_tables(), groups, rates, &w.analytic_tables).expect("grouping");
    let tel = Arc::new(Telemetry::new());
    let engine = AetsEngine::builder(grouping.clone())
        .config(AetsConfig { threads: 3, ..Default::default() })
        .telemetry(tel.clone())
        .build()
        .expect("valid config");
    let db = MemDb::new(w.num_tables());
    let board = VisibilityBoard::builder(grouping.num_groups()).build();
    engine.replay(&epochs, &db, &board).expect("replay");

    let snap = tel.snapshot();
    let barrier =
        snap.histogram_summary_all(names::STAGE_BARRIER_WAIT_US).expect("barrier histogram");
    let stages = snap.histogram_summary_all(names::STAGE1_US).map_or(0, |h| h.count)
        + snap.histogram_summary_all(names::STAGE2_US).map_or(0, |h| h.count);
    assert_eq!(stages, 2 * epochs.len() as u64, "two stages per epoch");
    assert_eq!(barrier.count, stages, "one barrier-wait sample per stage run");

    let deadline = Instant::now() + Duration::from_secs(30);
    while tel.snapshot().gauge(names::REPLAY_CREW_PARKED, "") != Some(2) {
        assert!(Instant::now() < deadline, "the idle engine's helpers never parked");
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(engine);
    assert_eq!(tel.snapshot().gauge(names::REPLAY_CREW_PARKED, ""), Some(0), "helpers joined");
}

#[test]
fn span_sampling_knob_bounds_tracing_and_the_anomaly_latch_overrides_it() {
    use aets_suite::replay::VisibilityBoard;

    let w = tpcc::generate(&TpccConfig { num_txns: 800, warehouses: 1, ..Default::default() });
    let raw = batch_into_epochs(w.txns.clone(), 32).expect("positive epoch size");
    let epochs: Vec<_> = raw.iter().map(encode_epoch).collect();
    assert!(epochs.len() >= 8, "needs enough epochs to see the knob");
    let (groups, rates) = tpcc::paper_grouping();
    let grouping =
        TableGrouping::new(w.num_tables(), groups, rates, &w.analytic_tables).expect("grouping");

    let run = |sampling: u64, latch_anomaly: bool| {
        let tel = Arc::new(Telemetry::new());
        tel.spans().set_sampling(sampling);
        if latch_anomaly {
            // Any anomaly event latches always-sample (here: a synthetic
            // quarantine notice before the run).
            tel.event(EventKind::GroupQuarantined { group: 0, reason: "record crc".into() });
        }
        let engine = AetsEngine::builder(grouping.clone())
            .config(AetsConfig { threads: 2, ..Default::default() })
            .telemetry(tel.clone())
            .build()
            .expect("valid config");
        let db = MemDb::new(w.num_tables());
        let board = VisibilityBoard::builder(grouping.num_groups()).build();
        engine.replay(&epochs, &db, &board).expect("replay");
        tel
    };

    // every-4th sampling: only the divisible epochs leave spans.
    let tel = run(4, false);
    for seq in 0..epochs.len() as u64 {
        let n = tel.spans().for_epoch(seq).len();
        if seq % 4 == 0 {
            assert!(n > 0, "epoch {seq} is sampled under every=4");
        } else {
            assert_eq!(n, 0, "epoch {seq} must be skipped under every=4");
        }
    }

    // 0 disables tracing outright...
    let tel = run(0, false);
    assert_eq!(tel.spans().recorded(), 0, "sampling 0 records nothing");

    // ...unless an anomaly latched always-sample first.
    let tel = run(0, true);
    assert!(tel.spans().anomalous());
    for seq in 0..epochs.len() as u64 {
        assert!(
            !tel.spans().for_epoch(seq).is_empty(),
            "epoch {seq}: the anomaly latch must override sampling 0"
        );
    }
}

#[test]
fn coalesced_durable_ingest_records_fsync_batch_sizes() {
    // The durable path under a coalesced fsync policy must surface how
    // many frames each group-committed fsync covered: the segment store's
    // sync observer feeds `wal_fsync_coalesced_frames`, and the ingest
    // throughput gauge reflects the engine's replay of each epoch.
    use aets_suite::replay::{DurableBackup, DurableOptions};
    use aets_suite::wal::{FsyncPolicy, SegmentConfig};
    use std::path::PathBuf;
    use std::time::Duration;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aets-telsmoke-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    let w = tpcc::generate(&TpccConfig { num_txns: 600, warehouses: 1, ..Default::default() });
    let raw = batch_into_epochs(w.txns.clone(), 64).expect("positive epoch size");
    let epochs: Vec<_> = raw.iter().map(encode_epoch).collect();
    assert!(epochs.len() >= 9, "needs enough epochs to fill two fsync batches");

    let (groups, rates) = tpcc::paper_grouping();
    let grouping =
        TableGrouping::new(w.num_tables(), groups, rates, &w.analytic_tables).expect("grouping");
    let tel = Arc::new(Telemetry::new());
    let engine = AetsEngine::builder(grouping)
        .config(AetsConfig { threads: 2, ..Default::default() })
        .telemetry(tel.clone())
        .build()
        .expect("valid config");
    let opts = DurableOptions {
        checkpoint_every: 0,
        segment: SegmentConfig {
            fsync: FsyncPolicy::Coalesced { max_frames: 4, max_wait: Duration::from_secs(3600) },
            ..Default::default()
        },
        ..Default::default()
    };
    let mut node =
        DurableBackup::open(scratch("wal"), scratch("ckpt"), engine, w.num_tables(), opts, None)
            .expect("open durable backup");
    for e in &epochs {
        node.ingest(&checked(e)).expect("ingest");
    }

    let snap = tel.snapshot();
    let frames =
        snap.histogram_summary_all(names::WAL_FSYNC_COALESCED_FRAMES).expect("frames histogram");
    // max_frames = 4 ⇒ every recorded batch holds exactly 4 frames, and
    // with ≥ 9 epochs at least two batches must have group-committed.
    assert!(frames.count >= 2, "at least two coalesced fsyncs must have fired");
    assert_eq!(frames.max_us, 4, "no batch may exceed the max_frames bound");
    assert!(
        snap.gauge(names::INGEST_BYTES_PER_SEC, "").unwrap_or(0) > 0,
        "durable ingest must publish a nonzero ingest rate"
    );
}

#[test]
fn checkpoint_and_gc_costs_reach_the_live_surface() {
    // What a checkpoint costs the ingest path is on the endpoint, not only
    // in a benchmark: one `aets_checkpoint_us` sample per manifest, one
    // `aets_gc_pass_us` sample per GC pass whoever ran it, and the newest
    // manifest's size as a gauge.
    use aets_suite::replay::{DurableBackup, DurableOptions, NodeOptions};

    let w = tpcc::generate(&TpccConfig { num_txns: 600, warehouses: 1, ..Default::default() });
    let raw = batch_into_epochs(w.txns.clone(), 64).expect("positive epoch size");
    let epochs: Vec<_> = raw.iter().map(encode_epoch).collect();
    let (groups, rates) = tpcc::paper_grouping();
    let grouping =
        TableGrouping::new(w.num_tables(), groups, rates, &w.analytic_tables).expect("grouping");
    let tel = Arc::new(Telemetry::new());
    let engine = AetsEngine::builder(grouping)
        .config(AetsConfig { threads: 2, ..Default::default() })
        .telemetry(tel.clone())
        .build()
        .expect("valid config");
    let scratch = |tag: &str| {
        let dir =
            std::env::temp_dir().join(format!("aets-telsmoke-{}-cost-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let ckpt_dir = scratch("ckpt");
    let opts = DurableOptions { checkpoint_every: 3, ..Default::default() };
    let mut node =
        DurableBackup::open(scratch("wal"), &ckpt_dir, engine, w.num_tables(), opts, None)
            .expect("open durable backup");
    for e in &epochs {
        node.ingest(&checked(e)).expect("ingest");
    }
    // A pass outside any checkpoint, through the query node.
    node.serve(NodeOptions::default()).expect("serve").gc();

    let snap = tel.snapshot();
    let written = snap.counter_total(names::CHECKPOINTS_WRITTEN);
    assert_eq!(written, epochs.len() as u64 / 3);
    let stall = snap.histogram_summary_all(names::CHECKPOINT_US).expect("checkpoint histogram");
    assert_eq!(stall.count, written, "one stall sample per manifest");
    let passes = snap.histogram_summary_all(names::GC_PASS_US).expect("gc histogram");
    assert_eq!(passes.count, snap.counter_total(names::GC_PASSES));
    assert_eq!(passes.count, written + 1, "one pass per checkpoint plus the served one");
    let newest = std::fs::read_dir(&ckpt_dir)
        .expect("checkpoint dir")
        .map(|e| e.expect("entry").path())
        .max()
        .expect("a manifest on disk");
    let on_disk = std::fs::metadata(&newest).expect("manifest").len();
    assert_eq!(snap.gauge(names::CHECKPOINT_BYTES, ""), Some(on_disk));
    let text = snap.render_prometheus();
    for family in [names::CHECKPOINT_US, names::GC_PASS_US, names::CHECKPOINT_BYTES] {
        assert!(text.contains(family), "exposition is missing {family}");
    }
}

#[test]
fn obs_endpoint_serves_metrics_spans_and_a_flipping_healthz() {
    // A BackupNode with `obs_addr` mounts the zero-dependency HTTP
    // endpoint: /metrics parses as Prometheus exposition, /spans.json
    // filters by epoch, and /healthz flips 200 -> 503 when a group
    // quarantines.
    use aets_suite::replay::{BackupNode, NodeOptions, ServiceOptions};
    use aets_suite::telemetry::http_get;

    let w = tpcc::generate(&TpccConfig { num_txns: 600, warehouses: 1, ..Default::default() });
    let raw = batch_into_epochs(w.txns.clone(), 64).expect("positive epoch size");
    let epochs: Vec<_> = raw.iter().map(encode_epoch).collect();
    let (groups, rates) = tpcc::paper_grouping();
    let grouping =
        TableGrouping::new(w.num_tables(), groups, rates, &w.analytic_tables).expect("grouping");
    let tel = Arc::new(Telemetry::new());
    let engine = Arc::new(
        AetsEngine::builder(grouping)
            .config(AetsConfig { threads: 2, ..Default::default() })
            .telemetry(tel.clone())
            .build()
            .expect("valid config"),
    );
    let node = BackupNode::builder()
        .engine(engine)
        .num_tables(w.num_tables())
        .telemetry(tel.clone())
        .options(NodeOptions {
            service: ServiceOptions::builder().obs_addr("127.0.0.1:0").build(),
            ..Default::default()
        })
        .build()
        .expect("node with endpoint");
    let addr = node.obs_addr().expect("endpoint bound");
    node.replay(&epochs).expect("replay");

    // /metrics parses (including the histogram _sum/_count contract).
    let (status, body) = http_get(addr, "/metrics").expect("GET /metrics");
    assert!(status.contains("200"), "metrics status {status}");
    assert!(!parse_exposition(&body).expect("exposition parses").is_empty());

    // /spans.json?epoch=N returns exactly that epoch's chain.
    let probe = (epochs.len() / 2) as u64;
    let (status, body) =
        http_get(addr, &format!("/spans.json?epoch={probe}")).expect("GET /spans.json");
    assert!(status.contains("200"), "spans status {status}");
    assert!(body.contains(&format!("\"epoch\": {probe}")));
    assert!(body.contains("\"stage\": \"dispatch\""));
    assert!(body.contains("\"stage\": \"flip_global\""));
    let other = probe + 1;
    assert!(
        !body.contains(&format!("\"epoch\": {other}")),
        "the epoch filter must exclude other epochs"
    );

    // /events.json carries the epoch lifecycle events.
    let (status, body) = http_get(addr, "/events.json").expect("GET /events.json");
    assert!(status.contains("200"));
    assert!(body.contains("epoch_dispatched") && body.contains("epoch_committed"));

    // /healthz: healthy now, 503 naming the group once quarantined.
    let (status, body) = http_get(addr, "/healthz").expect("GET /healthz");
    assert!(status.contains("200"), "healthy node must report 200, got {status}");
    assert!(body.contains("\"ok\""));
    node.board().set_quarantined(&[1]);
    let (status, body) = http_get(addr, "/healthz").expect("GET /healthz degraded");
    assert!(status.contains("503"), "degraded node must report 503, got {status}");
    assert!(body.contains("\"degraded\"") && body.contains('1'));
}

#[test]
fn forced_quarantine_dumps_a_parseable_flight_bundle() {
    // Acceptance gate: a durable node with a flight directory must leave
    // a bounded JSON bundle on disk the moment a group quarantines — the
    // black box to pull after an incident.
    use aets_suite::common::TableId;
    use aets_suite::replay::{DurableBackup, DurableOptions, ServiceOptions};
    use aets_suite::telemetry::flight::list_bundles;
    use aets_suite::wal::faults::corrupt_record_of;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aets-flight-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    let w = tpcc::generate(&TpccConfig { num_txns: 600, warehouses: 1, ..Default::default() });
    let raw = batch_into_epochs(w.txns.clone(), 64).expect("positive epoch size");
    let mut epochs: Vec<_> = raw.iter().map(encode_epoch).collect();
    // Corrupt one record of the highest-numbered table so its group
    // quarantines mid-run (the epoch frame CRC is fixed up so only the
    // record itself is bad).
    let victim = TableId::new((w.num_tables() - 1) as u32);
    let (eidx, poisoned) = epochs
        .iter()
        .enumerate()
        .find_map(|(i, e)| Some((i, corrupt_record_of(e, victim)?)))
        .expect("some epoch touches the victim table");
    epochs[eidx] = poisoned;

    let (groups, rates) = tpcc::paper_grouping();
    let grouping =
        TableGrouping::new(w.num_tables(), groups, rates, &w.analytic_tables).expect("grouping");
    let tel = Arc::new(Telemetry::new());
    let engine = AetsEngine::builder(grouping)
        .config(AetsConfig { threads: 2, ..Default::default() })
        .telemetry(tel.clone())
        .build()
        .expect("valid config");
    let flight_dir = scratch("bundles");
    let opts = DurableOptions {
        checkpoint_every: 0,
        service: ServiceOptions::builder().flight_dir(flight_dir.clone()).build(),
        ..Default::default()
    };
    let mut node =
        DurableBackup::open(scratch("wal"), scratch("ckpt"), engine, w.num_tables(), opts, None)
            .expect("open durable backup");
    for e in &epochs {
        node.ingest(&checked(e)).expect("ingest");
    }
    assert!(!node.engine().quarantined_groups().is_empty(), "the poisoned group must quarantine");
    assert!(tel.spans().anomalous(), "the quarantine must latch always-sample");

    let bundles = list_bundles(&flight_dir).expect("flight dir listing");
    assert!(!bundles.is_empty(), "quarantine must leave at least one bundle on disk");
    let body = std::fs::read_to_string(&bundles[0]).expect("bundle readable");
    assert!(body.contains("\"reason\": \"group_quarantined\""));
    for key in ["\"seq\"", "\"spans\"", "\"events\"", "\"snapshot\""] {
        assert!(body.contains(key), "bundle missing {key}");
    }
    // Parseability smoke: balanced braces/brackets, one JSON object.
    let opens = body.matches('{').count();
    let closes = body.matches('}').count();
    assert_eq!(opens, closes, "bundle braces must balance");
    assert_eq!(body.matches('[').count(), body.matches(']').count());
    let _ = std::fs::remove_dir_all(&flight_dir);
}

#[test]
fn disabled_telemetry_keeps_the_runner_silent() {
    // The default engine carries a disabled instance: the run replays
    // every epoch and nothing is charged to the registry.
    let w = tpcc::generate(&TpccConfig { num_txns: 500, warehouses: 1, ..Default::default() });
    let raw = batch_into_epochs(w.txns.clone(), 128).expect("positive epoch size");
    let arrivals = ReplicationTimeline::default().arrivals(&raw);
    let epochs: Vec<_> = raw.iter().map(encode_epoch).collect();
    let (groups, rates) = tpcc::paper_grouping();
    let grouping =
        TableGrouping::new(w.num_tables(), groups, rates, &w.analytic_tables).expect("grouping");
    let engine = Arc::new(
        AetsEngine::builder(grouping)
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .expect("config"),
    );
    let db = Arc::new(MemDb::new(w.num_tables()));
    let cfg = RunnerConfig { time_scale: 50.0, ..Default::default() };
    let outcome = run_realtime(
        engine.clone(),
        db,
        &Workload { epochs: &epochs, arrivals: &arrivals, queries: &[] },
        &cfg,
    )
    .expect("realtime run");
    assert_eq!(outcome.metrics.epochs, epochs.len());
    let snap = engine.telemetry().snapshot();
    assert_eq!(snap.counter_total(names::EPOCHS), 0);
    assert_eq!(snap.events_emitted, 0);
}

#[test]
fn net_shipping_emits_transport_metrics_on_both_endpoints() {
    // The transport layer's observability contract over a healthy
    // loopback link: the shipper counts its session and every epoch
    // frame and byte it wrote (plus the in-flight window depth), the
    // receiver counts the handshake and inbound bytes, and none of the
    // failure-path counters (reconnects, resyncs, dedups, frame errors)
    // move.
    use aets_suite::replay::{ingest_epoch, IngestStats, RetryPolicy};
    use aets_suite::transport::{ship_epochs, ReceiverConfig, ShipReceiver, ShipperConfig};

    let w = tpcc::generate(&TpccConfig { num_txns: 300, warehouses: 1, ..Default::default() });
    let epochs: Vec<_> = batch_into_epochs(w.txns.clone(), 32)
        .expect("positive epoch size")
        .iter()
        .map(encode_epoch)
        .collect();
    let total = epochs.len() as u64;

    let tel_rx = Arc::new(Telemetry::new());
    let mut receiver =
        ShipReceiver::bind("127.0.0.1:0", ReceiverConfig::default(), tel_rx.clone()).expect("bind");
    let addr = receiver.addr();
    let tel_tx = Arc::new(Telemetry::new());
    let ship_tel = tel_tx.clone();
    let ship_stream = epochs.clone();
    let shipper = std::thread::spawn(move || {
        ship_epochs(addr, &ship_stream, &ShipperConfig::default(), &ship_tel)
    });

    let mut source = receiver.source();
    let retry = RetryPolicy { max_retries: 20, base_backoff_us: 100, max_backoff_us: 5_000 };
    for seq in 0..total {
        let mut stats = IngestStats::default();
        ingest_epoch(&mut source, seq, &retry, &mut stats).expect("clean delivery");
    }
    let report = shipper.join().expect("shipper").expect("shipping failed");
    receiver.shutdown();

    // ---- Sender side: session + volume counters match the report. -----
    let tx = tel_tx.snapshot();
    assert_eq!(tx.counter_total(names::NET_CONNECTS), 1);
    assert_eq!(tx.counter_total(names::NET_RECONNECTS), 0);
    assert_eq!(tx.counter_total(names::NET_RESYNCS), 0);
    assert_eq!(tx.counter_total(names::NET_EPOCHS_SHIPPED), total);
    assert_eq!(tx.counter_total(names::NET_BYTES_SENT), report.bytes_sent);
    assert!(tx.counter_total(names::NET_BYTES_RECV) > 0, "acks flowed back");
    assert_eq!(tx.counter_total(names::NET_FRAME_ERRORS), 0);
    let depth =
        tx.histogram_summary_all(names::NET_ACK_WINDOW_DEPTH).expect("window depth histogram");
    assert_eq!(depth.count, total, "one depth sample per shipped epoch");
    assert!(
        depth.max_us <= ShipperConfig::default().window as u64,
        "in-flight depth may never exceed the window"
    );

    // ---- Receiver side: handshake + inbound volume, no failures. ------
    let rx = tel_rx.snapshot();
    assert_eq!(rx.counter_total(names::NET_HANDSHAKES), 1);
    assert!(rx.counter_total(names::NET_BYTES_RECV) > 0);
    assert_eq!(rx.counter_total(names::NET_EPOCHS_DEDUPED), 0, "nothing travels twice");
    assert_eq!(rx.counter_total(names::NET_FRAME_ERRORS), 0);
}

#[test]
fn fleet_run_emits_shard_health_failover_and_latency_metrics() {
    // The fleet layer's observability contract: per-shard health gauges
    // (0=down 1=hung 2=lagging 3=healthy), a failover counter, a routed
    // query latency histogram, the fleet watermark gauge, and the shard
    // lifecycle events — all from one supervised run with one induced
    // failover.
    use aets_suite::common::TableId;
    use aets_suite::fleet::{DegradedPolicy, Fleet, FleetOptions, ShardPlan};
    use aets_suite::replay::{QuerySpec, ServiceOptions};
    use aets_suite::telemetry::shard_label;

    let w = tpcc::generate(&TpccConfig { num_txns: 400, warehouses: 1, ..Default::default() });
    let raw = batch_into_epochs(w.txns.clone(), 32).expect("positive epoch size");
    let (groups, rates) = tpcc::paper_grouping();
    let grouping =
        TableGrouping::new(w.num_tables(), groups, rates, &w.analytic_tables).expect("grouping");
    let plan = ShardPlan::balanced(grouping, 2).expect("plan");

    let tel = Arc::new(Telemetry::new());
    let opts = FleetOptions {
        failover_after: 2,
        service: ServiceOptions::builder().telemetry(tel.clone()).build(),
        ..Default::default()
    };
    let root = std::env::temp_dir().join(format!("aets-telsmoke-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut fleet = Fleet::open(plan, &root, opts).expect("fleet");

    let target = raw.last().expect("nonempty").max_commit_ts();
    let mid = raw.len() / 2;
    for e in &raw[..mid] {
        fleet.enqueue(e);
    }
    fleet.run_until_fresh(raw[mid - 1].max_commit_ts(), 256).expect("first half");

    // Kill shard 1, let the supervisor miss two heartbeats and fail over.
    fleet.kill_shard(1);
    for e in &raw[mid..] {
        fleet.enqueue(e);
    }
    fleet.run_until_fresh(target, 256).expect("second half with failover");

    // One routed query so the latency histogram has a sample.
    let specs: Vec<QuerySpec> =
        (0..w.num_tables() as u32).map(|t| QuerySpec::count(TableId::new(t))).collect();
    let ans = fleet.query(target, &specs, DegradedPolicy::Refuse).expect("routed query");
    assert!(ans.is_complete());

    // ---- Registry: the fleet_* family. --------------------------------
    let snap = tel.snapshot();
    for s in 0..2 {
        assert_eq!(
            snap.gauge(names::FLEET_SHARD_HEALTH, &shard_label(s)),
            Some(3),
            "settled shard {s} must report healthy (3)"
        );
    }
    assert_eq!(snap.counter_total(names::FLEET_FAILOVERS), 1);
    assert!(snap.counter_total(names::FLEET_HEARTBEATS_MISSED) >= 2, "two misses forced failover");
    assert!(
        snap.counter_total(names::FLEET_QUERIES_ROUTED) >= w.num_tables() as u64,
        "every spec routed must be counted"
    );
    assert_eq!(snap.counter_total(names::FLEET_QUERIES_PARTIAL), 0, "no partial answers");
    // A manual kill is not a fault-plan injection; every source epoch is
    // enqueued once and acked once on each of the two shards.
    assert_eq!(snap.counter_total(names::FLEET_CRASHES_INJECTED), 0);
    assert_eq!(snap.counter_total(names::FLEET_HANGS_INJECTED), 0);
    assert_eq!(snap.counter_total(names::FLEET_EPOCHS_ENQUEUED), raw.len() as u64);
    assert_eq!(snap.counter_total(names::FLEET_EPOCHS_ACKED), 2 * raw.len() as u64);
    let lat = snap
        .histogram_summary_all(names::FLEET_ROUTED_LATENCY_US)
        .expect("routed latency histogram");
    assert!(lat.count >= 1 && lat.p50_us <= lat.max_us);
    assert_eq!(
        snap.gauge(names::FLEET_GLOBAL_CMT_TS_US, ""),
        Some(target.as_micros()),
        "fleet watermark gauge must sit at the stream head"
    );

    // ---- Events: down -> missed heartbeats -> failover. ---------------
    let events = tel.drain_events();
    let down =
        events.iter().filter(|e| matches!(e.kind, EventKind::ShardDown { shard: 1 })).count();
    assert_eq!(down, 1, "exactly one shard death");
    let missed = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ShardHeartbeatMissed { shard: 1, .. }))
        .count();
    assert_eq!(missed, 2, "failover_after misses before the replacement");
    let failover = events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::ShardFailover { shard, intervals_down, suffix_epochs } => {
                Some((shard, intervals_down, suffix_epochs))
            }
            _ => None,
        })
        .expect("a failover event");
    assert_eq!(failover.0, 1);
    assert_eq!(failover.1, 2, "replacement came after exactly failover_after intervals");
    assert!(
        failover.2 <= raw.len() as u64,
        "bootstrap replays at most the WAL suffix, never more than the stream"
    );

    // The fleet session pinned at the watermark is visible to GC floors
    // (smoke only: correctness is proven in tests/fleet_chaos.rs).
    drop(fleet);
    let _ = std::fs::remove_dir_all(&root);
}
