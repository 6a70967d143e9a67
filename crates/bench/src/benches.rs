//! The bodies behind `repro bench <name>`: what each bench times, at what
//! full-scale size, against what target. Every number goes through
//! [`crate::harness`]; sizes are stated at full scale and shrunk by
//! [`Scale::of`] below it.
//!
//! | name            | what is timed                                                        |
//! |-----------------|----------------------------------------------------------------------|
//! | `ingest`        | CRC slice-by-8 vs the scalar oracle, batched vs per-record decode,   |
//! |                 | `FsyncPolicy::EveryEpoch` vs `Coalesced`                             |
//! | `query-service` | worker scaling, freshness under query load, admission wait           |
//! | `adaptive`      | static split vs live controller, with and without drift              |
//! | `telemetry`     | the same bulk replay with instrumentation off and on                 |
//! | `recovery`      | durable ingest, a hard kill, suffix-only restart                     |
//! | `micro`         | kernel rows: allocator, codec, memtable, neural, dispatch/replay     |

use crate::experiments::Scale;
use crate::harness::{median, paired, BenchResult, Target, PAIRED};
use crate::{tpcc_bench_with, Bench};
use aets_common::{
    splitmix64, ColumnId, DmlOp, EpochId, FxHashSet, RowKey, TableId, Timestamp, TxnId, Value,
};
use aets_forecast::ForecastModel;
use aets_memtable::{BPlusTree, MemDb, Scan, Table, Version};
use aets_neural::{Tape, Tensor};
use aets_replay::{
    allocate_threads, dbscan_1d, dispatch_epoch, translate_entry, AetsConfig, AetsEngine,
    BackupNode, ControllerConfig, DurableBackup, DurableOptions, NodeOptions, QuerySpec,
    QueryTarget, ReplayEngine, ReplayMetrics, SerialEngine, ServiceOptions, TableGrouping,
    UrgencyMode, VisibilityBoard,
};
use aets_telemetry::{names, Telemetry};
use aets_wal::{
    crc32, crc32_scalar, decode_batch, decode_record, encode_epoch, EncodedEpoch, FsyncPolicy,
    LogRecord, MetaScanner, SegmentConfig, SegmentStore,
};
use aets_workloads::drift::{rotating_tpcc, RotatingTpccConfig};
use aets_workloads::tpcc::{tables, TpccConfig};
use aets_workloads::QueryInstance;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One bench: its CLI name, its `results/BENCH_<file>.json` stem, its body.
pub type BenchFn = (&'static str, &'static str, fn(Scale) -> BenchResult);

/// Every bench `repro bench` knows, in `all` order.
pub const BENCHES: &[BenchFn] = &[
    ("ingest", "ingest", ingest),
    ("query-service", "query_service", query_service),
    ("adaptive", "adaptive", adaptive),
    ("telemetry", "observability", telemetry),
    ("recovery", "recovery", recovery),
    ("micro", "micro", micro),
];

fn tpcc(num_txns: usize, warehouses: u32) -> Bench {
    tpcc_bench_with(&TpccConfig { num_txns, warehouses, ..Default::default() })
}

fn aets(grouping: &TableGrouping, threads: usize) -> aets_replay::engines::aets::AetsEngineBuilder {
    AetsEngine::builder(grouping.clone()).config(AetsConfig { threads, ..Default::default() })
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aets-bench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

// ------------------------------------------------------------------ ingest

/// The surviving levers of the raw-speed ingest campaign, each a paired
/// before/after on the code that still ships both sides.
pub fn ingest(scale: Scale) -> BenchResult {
    let mut r = BenchResult::new("ingest", scale, 7, PAIRED);
    let reps = r.provenance.reps;
    let epochs = tpcc(scale.of(20_000), 4).encode(256);

    // 1. CRC kernel: bytewise oracle vs slice-by-8 over one 64 KiB buffer.
    let buf: Vec<u8> = (0..64 * 1024u64).map(|i| splitmix64(0xC12C + i) as u8).collect();
    let iters = scale.of(2_000);
    let mib = (buf.len() * iters) as f64 / (1024.0 * 1024.0);
    let crc_rate = |kernel: fn(&[u8]) -> u32| {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(kernel(black_box(&buf)));
        }
        mib / t.elapsed().as_secs_f64()
    };
    let (b, a) = paired(reps, || crc_rate(crc32_scalar), || crc_rate(crc32));
    r.value("crc_slice_by_8.buf_kib", "KiB", (buf.len() / 1024) as f64);
    let speedup = r.pair("crc_slice_by_8", "MiB/s", &b, &a).target(Target::AtLeast(4.0)).judged();
    // Holds at any size, on any machine, with or without `--gate` — for
    // the optimised kernels; an unoptimised build measures neither.
    assert!(
        speedup >= 1.0 || cfg!(debug_assertions),
        "slice-by-8 must not be slower than the bytewise kernel"
    );

    // 2. Decode: a per-record loop into a fresh Vec per epoch (each record
    // re-snapshots the cursor to verify its CRC) vs one batched pass into
    // a reused scratch Vec.
    let mut scratch: Vec<LogRecord> = Vec::new();
    let mut records = 0usize;
    for e in &epochs {
        e.decode_records_into(&mut scratch).expect("valid epoch");
        records += scratch.len();
    }
    let (b, a) = paired(
        reps,
        || {
            let t = Instant::now();
            for e in &epochs {
                let mut out: Vec<LogRecord> = Vec::new();
                let mut cursor = e.bytes.clone();
                while !cursor.is_empty() {
                    out.push(decode_record(&mut cursor).expect("valid record"));
                }
                black_box(&out);
            }
            records as f64 / t.elapsed().as_secs_f64()
        },
        || {
            let mut out: Vec<LogRecord> = Vec::new();
            let t = Instant::now();
            for e in &epochs {
                e.decode_records_into(&mut out).expect("valid epoch");
                black_box(&out);
            }
            records as f64 / t.elapsed().as_secs_f64()
        },
    );
    r.pair("batched_decode", "rec/s", &b, &a);

    // 3. WAL fsync policy over the same re-stamped stream: sync every
    // epoch vs group commit (32 frames / 2 ms; the ack is then no longer
    // durable, `synced_seq` bounds the loss window — DESIGN.md §11).
    let stream: Vec<EncodedEpoch> = (0..scale.of(512))
        .map(|i| EncodedEpoch { id: EpochId::new(i as u64), ..epochs[i % epochs.len()].clone() })
        .collect();
    let append_rate = |fsync: FsyncPolicy| {
        let dir = scratch_dir("wal");
        let cfg = SegmentConfig { fsync, ..Default::default() };
        let mut store = SegmentStore::open(&dir, cfg, None).expect("open store");
        let t = Instant::now();
        for e in &stream {
            store.append(e).expect("append");
        }
        store.sync().expect("final sync");
        let rate = stream.len() as f64 / t.elapsed().as_secs_f64();
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        rate
    };
    let coalesced = FsyncPolicy::Coalesced { max_frames: 32, max_wait: Duration::from_millis(2) };
    let (b, a) = paired(reps, || append_rate(FsyncPolicy::EveryEpoch), || append_rate(coalesced));
    r.value("wal_group_commit.epochs", "count", stream.len() as f64);
    r.pair("wal_group_commit", "epochs/s", &b, &a);
    r
}

// ----------------------------------------------------------- query-service

/// How a client picks the snapshot timestamp of its next query.
#[derive(Clone, Copy)]
enum QtsPolicy {
    /// `watermark + margin` (µs), capped at the stream head: a reader
    /// demanding data fresher than what has replayed.
    Margin(u64),
    /// The first epoch watermark strictly above the current global
    /// watermark: a reader synchronised to the next publish.
    NextPublish,
}

struct Served {
    served: usize,
    throughput_qps: f64,
    vis_delay_mean_us: f64,
    wait_mean_us: f64,
}

/// One paced run: a feeder thread replays one epoch per `gap` while
/// `clients` closed-loop readers count `table` at the policy's `qts`.
fn pace_and_serve(
    bench: &Bench,
    epochs: &[EncodedEpoch],
    gap: Duration,
    workers: usize,
    policy: QtsPolicy,
    table: TableId,
) -> Served {
    let tel = Arc::new(Telemetry::new());
    let engine = aets(&bench.grouping, 2).telemetry(tel.clone()).build().expect("valid config");
    let node = BackupNode::builder()
        .engine(Arc::new(engine))
        .num_tables(bench.workload.num_tables())
        .options(NodeOptions { query_workers: workers.max(1), ..Default::default() })
        .build()
        .expect("valid node");

    let last = epochs.last().expect("nonempty stream").max_commit_ts.as_micros();
    node.replay(&epochs[..1]).expect("seed epoch");

    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let (vis_delay_mean_us, window, served) = std::thread::scope(|scope| {
        let feeder = scope.spawn(|| {
            let mut staleness_us = 0u64;
            for i in 1..epochs.len() {
                // Ship epoch i at its arrival instant and charge the mean
                // staleness of its commits: publish lag behind arrival
                // plus half a gap of epoch-batching delay.
                let arrive = gap * i as u32;
                if let Some(sleep) = arrive.checked_sub(t0.elapsed()) {
                    std::thread::sleep(sleep);
                }
                node.replay(&epochs[i..=i]).expect("replay");
                let lag = t0.elapsed().saturating_sub(arrive);
                staleness_us += lag.as_micros() as u64 + gap.as_micros() as u64 / 2;
            }
            stop.store(true, Ordering::Release);
            (staleness_us as f64 / (epochs.len() - 1) as f64, t0.elapsed())
        });

        // One closed-loop client per worker (none for the no-query baseline).
        let readers: Vec<_> = (0..workers)
            .map(|_| {
                let (node, stop) = (&node, &stop);
                scope.spawn(move || {
                    let mut done: Vec<Duration> = Vec::new();
                    while !stop.load(Ordering::Acquire) {
                        let wm = node.safe_ts().as_micros();
                        let qts = match policy {
                            QtsPolicy::Margin(margin) => (wm + margin).min(last),
                            QtsPolicy::NextPublish => epochs
                                .iter()
                                .map(|e| e.max_commit_ts.as_micros())
                                .find(|w| *w > wm)
                                .unwrap_or(last),
                        };
                        node.query_one(Timestamp::from_micros(qts), QuerySpec::count(table))
                            .expect("query");
                        done.push(t0.elapsed());
                    }
                    done
                })
            })
            .collect();
        let completions: Vec<Vec<Duration>> =
            readers.into_iter().map(|r| r.join().expect("reader")).collect();
        let (vis, window) = feeder.join().expect("feeder");
        let served = completions.iter().flatten().filter(|d| **d <= window).count();
        (vis, window, served)
    });

    let snap = tel.snapshot();
    let mean = |name: &str| snap.histogram_summary_all(name).map_or(0.0, |h| h.mean_us);
    Served {
        served,
        throughput_qps: served as f64 / window.as_secs_f64(),
        vis_delay_mean_us,
        wait_mean_us: mean(names::QUERY_QUEUE_WAIT_US) + mean(names::QUERY_ADMISSION_WAIT_US),
    }
}

/// Largest table whose full snapshot count stays under ~900us — heavy
/// enough to be scan-bound, light enough that four concurrent scans leave
/// the replay path its CPU.
fn pick_scan_table(oracle: &MemDb) -> (TableId, Duration) {
    let timed: Vec<(TableId, usize, Duration)> = (0..oracle.num_tables() as u32)
        .map(|t| {
            let table = TableId::new(t);
            let mut cost = Duration::MAX;
            let mut rows = 0;
            for _ in 0..3 {
                let start = Instant::now();
                rows = Scan::at(Timestamp::MAX).count(oracle.table(table));
                cost = cost.min(start.elapsed());
            }
            (table, rows, cost)
        })
        .collect();
    let light = timed.iter().filter(|(_, _, c)| *c <= Duration::from_micros(900));
    // `rev`: on a tie `max_by_key` keeps the last, so this keeps the first.
    let (table, _, cost) = light
        .rev()
        .max_by_key(|(_, rows, _)| *rows)
        .or_else(|| timed.iter().min_by_key(|(_, _, c)| *c))
        .expect("at least one table");
    (*table, *cost)
}

/// The query-serving `BackupNode` under a paced TPC-C stream: closed-loop
/// clients run a scan whose snapshot sits *ahead* of the watermark, so
/// every query parks on Algorithm 3 until replay catches up. Scans on few
/// cores cannot parallelise; throughput scaling from extra workers is the
/// overlap of concurrent admission waits, which is what the pool is for.
pub fn query_service(scale: Scale) -> BenchResult {
    let mut r = BenchResult::new("query-service", scale, 1, "one paced run per configuration");
    let bench = tpcc(scale.of(12_800), 2);
    // Coarse epochs for the scaling / freshness phases, fine epochs for
    // the admission phase (more publishes = more parked waits).
    let (coarse, fine) = (bench.encode(128), bench.encode(64));
    let oracle = MemDb::new(bench.workload.num_tables());
    SerialEngine.replay_all(&coarse, &oracle).expect("oracle replay");
    let (table, scan_cost) = pick_scan_table(&oracle);
    r.value("txns", "count", bench.workload.txns.len() as f64);
    r.value("scan_table", "id", f64::from(table.raw()));
    r.value("scan_cost", "us", us(scan_cost));

    // Pacing with headroom over the replay cost, and a freshness margin
    // of 1.5 gaps so margin-policy queries always park.
    let (gap, fine_gap) = (Duration::from_millis(40), Duration::from_millis(20));
    let margin = QtsPolicy::Margin(gap.as_micros() as u64 * 3 / 2);
    let base = pace_and_serve(&bench, &coarse, gap, 0, margin, table);
    let one = pace_and_serve(&bench, &coarse, gap, 1, margin, table);
    let four = pace_and_serve(&bench, &coarse, gap, 4, margin, table);
    r.value("scaling.epochs", "count", coarse.len() as f64);
    r.value("scaling.epoch_gap", "ms", gap.as_millis() as f64);
    r.value("scaling.freshness_margin", "gaps", 1.5);
    r.pair(
        "scaling.throughput_1_to_4_workers",
        "q/s",
        &[one.throughput_qps],
        &[four.throughput_qps],
    )
    .target(Target::AtLeast(2.0));
    // Mean replay visibility delay (publish lag + half the epoch gap of
    // batching staleness): no-query baseline vs four clients.
    r.pair(
        "freshness.vis_delay_under_load",
        "us",
        &[base.vis_delay_mean_us],
        &[four.vis_delay_mean_us],
    )
    .target(Target::AtMost(1.10));

    // Every query targets the *next* unpublished watermark: pure wake-up
    // latency, parked waiters resume at the publish.
    let event = pace_and_serve(&bench, &fine, fine_gap, 4, QtsPolicy::NextPublish, table);
    r.value("admission.epochs", "count", fine.len() as f64);
    r.value("admission.epoch_gap", "ms", fine_gap.as_millis() as f64);
    r.value("admission.event_driven_mean_wait", "us", event.wait_mean_us);
    r.value("admission.event_driven_queries", "count", event.served as f64);
    r
}

// ---------------------------------------------------------------- adaptive

const ADAPTIVE_THREADS: usize = 3;

struct PacedRun {
    /// Wall-clock visibility lag per sampled query (µs), in sample order.
    lags: Vec<f64>,
    timed_out: usize,
    metrics: ReplayMetrics,
}

/// One paced run: epochs released one per `gap` while each sampled query
/// opens its read session at its own (scaled) arrival instant and blocks
/// on Algorithm 3 — sessions opened at arrival are also exactly the
/// access signal the controller forecasts from.
fn paced_run(
    bench: &Bench,
    epochs: &[EncodedEpoch],
    adaptive: bool,
    queries: &[QueryInstance],
    gap: Duration,
) -> PacedRun {
    // The engine's telemetry instance is what the node registers the
    // per-table access counters into — the controller's only signal.
    let engine = aets(&bench.grouping, ADAPTIVE_THREADS)
        .telemetry(Arc::new(Telemetry::new()))
        .build()
        .expect("engine config");
    let mut service = ServiceOptions::builder();
    if adaptive {
        // A longer window and an HA forecast smooth the sparse
        // sampled-query signal so the no-drift run does not thrash.
        service = service.controller(ControllerConfig {
            epoch_window: 8,
            min_history: 2,
            model: ForecastModel::Ha { window: 4 },
            hot_min_rate: 0.5,
            ..Default::default()
        });
    }
    let node = BackupNode::builder()
        .engine(Arc::new(engine))
        .num_tables(bench.workload.num_tables())
        .options(NodeOptions { query_workers: 2, service: service.build(), ..Default::default() })
        .build()
        .expect("node config");

    // Primary time maps onto the pacing schedule: the stream's horizon
    // takes `epochs.len() * gap` of wall time.
    let horizon = epochs.last().expect("nonempty stream").max_commit_ts.as_micros().max(1);
    let wall_span = gap * epochs.len() as u32;
    let to_wall = |ts: Timestamp| wall_span.mul_f64(ts.as_micros() as f64 / horizon as f64);
    let timeout = Duration::from_secs(30);

    let start = Instant::now();
    std::thread::scope(|scope| {
        let waiters: Vec<_> = queries
            .iter()
            .map(|q| {
                let (node, offset) = (&node, to_wall(q.arrival));
                scope.spawn(move || {
                    if let Some(sleep) = (start + offset).checked_duration_since(Instant::now()) {
                        std::thread::sleep(sleep);
                    }
                    node.open_session(q.arrival, &q.tables).wait_admitted(timeout)
                })
            })
            .collect();

        // Replication timeline: an epoch can only ship once its last
        // transaction has committed on the primary, so a query inside an
        // epoch's commit span always arrives *before* the epoch does and
        // its lag measures the real visibility wait.
        let mut metrics = ReplayMetrics::default();
        for epoch in epochs {
            let target = start + to_wall(epoch.max_commit_ts);
            if let Some(sleep) = target.checked_duration_since(Instant::now()) {
                std::thread::sleep(sleep);
            }
            metrics.absorb(&node.replay(std::slice::from_ref(epoch)).expect("replay"));
        }

        let results: Vec<_> =
            waiters.into_iter().map(|w| w.join().expect("query thread")).collect();
        PacedRun {
            timed_out: results.iter().filter(|r| r.is_err()).count(),
            lags: results.into_iter().map(|r| us(r.unwrap_or(timeout))).collect(),
            metrics,
        }
    })
}

/// A paced stream and its measured queries: the pacing gap is four times
/// the mean unpaced replay cost per epoch; at most 256 queries, evenly
/// sampled so every phase of the stream is measured.
fn paced_schedule(bench: &Bench) -> (Vec<EncodedEpoch>, Duration, Vec<QueryInstance>) {
    let epochs = bench.encode(128);
    let engine = aets(&bench.grouping, ADAPTIVE_THREADS).build().expect("engine config");
    let t0 = Instant::now();
    engine.replay_all(&epochs, &MemDb::new(bench.workload.num_tables())).expect("replay");
    let gap = (t0.elapsed() / epochs.len() as u32 * 4).max(Duration::from_micros(500));
    let queries = &bench.workload.queries;
    let step = queries.len().div_ceil(256).max(1);
    (epochs, gap, queries.iter().step_by(step).cloned().collect())
}

/// Static vs adaptive over the queries `keep` admits: pushes the pair of
/// median lags and returns the paired improvement — the median of the
/// per-query `static − adaptive` lag differences.
fn lag_rows(
    r: &mut BenchResult,
    prefix: &str,
    (stat, adap): (&[f64], &[f64]),
    keep: impl Fn(usize) -> bool,
) -> f64 {
    let pick = |lags: &[f64]| -> Vec<f64> {
        lags.iter().enumerate().filter(|(i, _)| keep(*i)).map(|(_, l)| *l).collect()
    };
    let (s, a) = (pick(stat), pick(adap));
    r.pair(&format!("{prefix}.median_lag_static_to_adaptive"), "us", &s, &a);
    let diffs: Vec<f64> = s.iter().zip(&a).map(|(s, a)| s - a).collect();
    median(&diffs)
}

/// The adaptive control loop, paired per query against the static split
/// over the identical epoch/query schedule. **Rotating hotspot**: the
/// analytical hot set rotates away from the split it was fitted to
/// (StockLevel → OrderStatus → an audit sweep over the normally-cold
/// `warehouse`/`history`); the controller promotes rotated-in tables into
/// stage-1 groups as the forecast shifts. **No drift**: the initial plan
/// is already right, so sampling and forecasting must be close to free.
pub fn adaptive(scale: Scale) -> BenchResult {
    let mut r = BenchResult::new("adaptive", scale, 2, PAIRED);

    let drift = rotating_tpcc(&RotatingTpccConfig {
        base: TpccConfig {
            num_txns: scale.of(24_000),
            warehouses: 4,
            olap_qps: 400.0,
            ..Default::default()
        },
        phases: 4,
        focus_share: 0.8,
    });
    // The static plan is fitted to the *initial* distribution: only the
    // phase-0 StockLevel tables are stage-1. Everything the later phases
    // rotate in starts cold — what a non-adaptive deployment would run.
    let n = drift.num_tables();
    let initial_hot: FxHashSet<TableId> =
        [tables::DISTRICT, tables::ORDER_LINE, tables::STOCK].into_iter().collect();
    let initial = TableGrouping::new(
        n,
        vec![
            vec![tables::DISTRICT, tables::STOCK],
            vec![tables::ORDER_LINE],
            (0..n as u32).map(TableId::new).filter(|t| !initial_hot.contains(t)).collect(),
        ],
        vec![100.0, 200.0, 1.0],
        &initial_hot,
    )
    .expect("initial grouping");
    let bench = Bench::new(drift, initial);
    let (epochs, gap, sampled) = paced_schedule(&bench);
    let (stat, adap) = paired(
        1,
        || paced_run(&bench, &epochs, false, &sampled, gap),
        || paced_run(&bench, &epochs, true, &sampled, gap),
    );
    let (stat, adap) = (&stat[0], &adap[0]);
    r.value("drift.txns", "count", bench.workload.txns.len() as f64);
    r.value("drift.epochs", "count", epochs.len() as f64);
    r.value("drift.epoch_gap", "us", us(gap));
    r.value("drift.repetitions", "count", 1.0);
    r.value("drift.queries_measured", "count", sampled.len() as f64);
    r.value("drift.timeouts_static", "count", stat.timed_out as f64);
    r.value("drift.timeouts_adaptive", "count", adap.timed_out as f64);
    let lags = (&stat.lags[..], &adap.lags[..]);
    let improvement = lag_rows(&mut r, "drift", lags, |_| true);
    r.value("drift.paired_median_improvement", "us", improvement).target(Target::Above(0.0));
    // Queries whose class the rotation carried away from the fitted plan.
    let rotated = lag_rows(&mut r, "drift.rotated_classes", lags, |i| sampled[i].class != 0);
    r.value("drift.rotated_classes.paired_median_improvement", "us", rotated);
    r.value("drift.regroups_applied", "count", adap.metrics.regroups_applied as f64);
    r.value("drift.resplits_applied", "count", adap.metrics.resplits_applied as f64);

    let bench = tpcc_bench_with(&TpccConfig {
        num_txns: scale.of(16_000),
        warehouses: 4,
        olap_qps: 400.0,
        ..Default::default()
    });
    let (epochs, gap, sampled) = paced_schedule(&bench);
    // The overhead is the paired per-query lag difference pooled across
    // reps, which cancels the query-schedule component that dominates a
    // difference of unpaired medians.
    let (stat, adap) = paired(
        r.provenance.reps,
        || paced_run(&bench, &epochs, false, &sampled, gap).lags,
        || paced_run(&bench, &epochs, true, &sampled, gap).lags,
    );
    let (stat, adap) = (stat.concat(), adap.concat());
    r.value("no_drift.txns", "count", bench.workload.txns.len() as f64);
    r.value("no_drift.epochs", "count", epochs.len() as f64);
    r.value("no_drift.epoch_gap", "us", us(gap));
    r.value("no_drift.repetitions", "count", r.provenance.reps as f64);
    r.value("no_drift.queries_measured", "count", sampled.len() as f64);
    let overhead = -lag_rows(&mut r, "no_drift", (&stat, &adap), |_| true);
    r.value("no_drift.paired_overhead", "us", overhead);
    r.value("no_drift.overhead_pct", "%", overhead / median(&stat) * 100.0)
        .target(Target::AtMost(3.0));
    r
}

// --------------------------------------------------------------- telemetry

/// Telemetry overhead: the same bulk AETS replay with instrumentation off
/// (the default engine: every record operation is one relaxed atomic
/// load) and on (sharded counters, histogram records on every publish,
/// the freshness clock, lifecycle events and the full causal span chain
/// at the default sample-everything rate). Run-to-run throughput drifts
/// by far more than the cost of a few hundred thousand relaxed atomics,
/// so the overhead is the median of the per-rep paired ratios.
pub fn telemetry(scale: Scale) -> BenchResult {
    let mut r = BenchResult::new("telemetry", scale, 15, PAIRED);
    let bench = tpcc(scale.of(30_000), 4);
    let epochs = bench.encode(256);
    let run = |on: bool| {
        let mut builder = aets(&bench.grouping, 4);
        let tel = on.then(|| Arc::new(Telemetry::new()));
        if let Some(tel) = &tel {
            builder = builder.telemetry(tel.clone());
        }
        let engine = builder.build().expect("valid config");
        let mut board = VisibilityBoard::builder(engine.board_groups());
        if let Some(tel) = &tel {
            let start = Instant::now();
            board = board.telemetry(tel, Arc::new(move || start.elapsed().as_micros() as u64));
        }
        let db = MemDb::new(bench.workload.num_tables());
        engine.replay(&epochs, &db, &board.build()).expect("replay succeeds").entries_per_sec()
    };
    let (off, on) = paired(r.provenance.reps, || run(false), || run(true));
    let overheads: Vec<f64> = off.iter().zip(&on).map(|(o, t)| (o - t) / o * 100.0).collect();
    r.value("txns", "count", bench.workload.txns.len() as f64);
    r.value("entries", "count", bench.workload.total_entries() as f64);
    r.value("epochs", "count", epochs.len() as f64);
    r.value("threads", "count", 4.0);
    r.pair("throughput_off_to_on", "entries/s", &off, &on);
    r.sampled("overhead_pct_paired_median", "%", &overheads).target(Target::AtMost(3.0));
    r
}

// ---------------------------------------------------------------- recovery

/// Restart recovery: a TPC-C stream through a `DurableBackup` (WAL-first
/// ingest + epoch-aligned checkpoints), a hard kill, a restart from disk
/// that replays only the WAL suffix — and must equal the serial oracle.
pub fn recovery(scale: Scale) -> BenchResult {
    let mut r =
        BenchResult::new("recovery", scale, 3, "median of independent ingest/kill/restart runs");
    let bench = tpcc(scale.of(20_000), 4);
    let epochs = bench.encode(256);
    let n = bench.workload.num_tables();
    let oracle = MemDb::new(n);
    SerialEngine.replay_all(&epochs, &oracle).expect("oracle replay");
    let want = oracle.digest_at(Timestamp::MAX);

    let opts = DurableOptions {
        checkpoint_every: 16,
        keep_checkpoints: 2,
        segment: SegmentConfig { epochs_per_segment: 8, ..Default::default() },
        gc_before_checkpoint: true,
        ..Default::default()
    };
    let open = |base: &PathBuf| {
        let engine = aets(&bench.grouping, 2).build().expect("positive thread count");
        DurableBackup::open(base.join("wal"), base.join("ckpt"), engine, n, opts.clone(), None)
    };
    let (mut ingest_s, mut recovery_s, mut suffix) = (Vec::new(), Vec::new(), 0);
    for _ in 0..r.provenance.reps {
        let base = scratch_dir("recovery");
        {
            let mut node = open(&base).expect("cold start");
            let t0 = Instant::now();
            for e in &epochs {
                node.ingest(e).expect("durable ingest");
            }
            ingest_s.push(t0.elapsed().as_secs_f64());
            // Dropped without any shutdown handshake: the "crash".
        }
        let node = open(&base).expect("restart recovery");
        assert_eq!(node.db().digest_at(Timestamp::MAX), want, "recovered state == oracle");
        recovery_s.push(node.recovery().recovery_wall.as_secs_f64());
        suffix = node.recovery().suffix_epochs;
        drop(node);
        let _ = std::fs::remove_dir_all(&base);
    }
    r.value("txns", "count", bench.workload.txns.len() as f64);
    r.value("epochs", "count", epochs.len() as f64);
    r.value("checkpoint_every", "epochs", opts.checkpoint_every as f64);
    r.sampled("ingest_wall", "s", &ingest_s);
    r.value("suffix_epochs_replayed", "count", suffix as f64);
    r.value("full_history_epochs", "count", epochs.len() as f64);
    r.sampled("recovery_wall", "s", &recovery_s);
    r.value("recovery_speedup_vs_full_replay", "ratio", epochs.len() as f64 / suffix.max(1) as f64);
    r.value("digest_matches_oracle", "bool", 1.0);
    r
}

// ------------------------------------------------------------------- micro

/// Kernel rows, each an absolute median: the control-plane solvers on the
/// per-epoch critical path, the value-log codec (full decode vs
/// metadata-only scan — the asymmetry behind the C5-vs-ATR/AETS dispatch
/// comparison), memtable point operations, one DTGM-scale forward and
/// backward pass, and dispatch / translate / full engine passes.
pub fn micro(scale: Scale) -> BenchResult {
    let mut r =
        BenchResult::new("micro", scale, 12, "median ns per call over time-budgeted samples");

    // -- alloc
    let pending: Vec<u64> = (0..64).map(|i| 1_000 + i * 37).collect();
    let rates: Vec<f64> = (0..64).map(|i| (i as f64 * 13.7) % 900.0).collect();
    r.timed("alloc/allocate_threads_64_groups", None, || {
        allocate_threads(black_box(32), &pending, &rates, UrgencyMode::Log).expect("valid input")
    });
    let mut points: Vec<f64> = (0..64u64).map(|i| (splitmix64(i) % 1000) as f64).collect();
    points.sort_by(f64::total_cmp);
    r.timed("alloc/dbscan_64_points", None, || dbscan_1d(black_box(&points), 10.0, 1));
    let hot: FxHashSet<TableId> = (0..14u32).map(TableId::new).collect();
    r.timed("alloc/dbscan_grouping_65_tables", None, || {
        TableGrouping::dbscan(65, &hot, |t| (f64::from(t.raw()) * 7.3) % 300.0, 0.3)
            .expect("finite")
    });

    // -- codec
    let small = tpcc(1_000, 2);
    let raw = aets_wal::batch_into_epochs(small.workload.txns.clone(), 1_000).expect("epoch size");
    let entries = Some(small.workload.total_entries() as u64);
    r.timed("codec/encode_epoch", entries, || encode_epoch(black_box(&raw[0])));
    let encoded = encode_epoch(&raw[0]);
    r.timed("codec/decode_full", entries, || {
        decode_batch(black_box(encoded.bytes.clone())).expect("valid batch")
    });
    r.timed("codec/scan_meta", entries, || {
        MetaScanner::new(black_box(encoded.bytes.clone())).fold(0usize, |n, rec| {
            rec.expect("valid record");
            n + 1
        })
    });

    // -- memtable
    const N: u64 = 100_000;
    r.timed("bptree/insert_100k_seq", Some(N), || {
        let mut t = BPlusTree::new();
        for i in 0..N {
            t.insert(black_box(i), i);
        }
        t
    });
    let mut tree = BPlusTree::new();
    for i in 0..N {
        tree.insert(i * 2, i);
    }
    let mut k = 0u64;
    r.timed("bptree/point_get", None, || {
        k = (k + 7919) % (N * 2);
        tree.get(black_box(&k)).copied()
    });
    let table = Table::new(TableId::new(0));
    for i in 0..1_000u64 {
        for v in 0..8u64 {
            table.apply_version(
                RowKey::new(i),
                Version {
                    txn_id: TxnId::new(i * 8 + v + 1),
                    commit_ts: Timestamp::from_micros((i * 8 + v + 1) * 10),
                    op: if v == 0 { DmlOp::Insert } else { DmlOp::Update },
                    cols: vec![(ColumnId::new((v % 3) as u16), Value::Int(v as i64))],
                },
            );
        }
    }
    r.timed("mvcc/read_row_latest", None, || {
        k = (k + 37) % 1_000;
        table.read_row(RowKey::new(black_box(k)), Timestamp::MAX)
    });
    r.timed("mvcc/read_row_time_travel", None, || {
        k = (k + 37) % 1_000;
        table.read_row(RowKey::new(black_box(k)), Timestamp::from_micros(k * 40 + 20))
    });

    // -- neural: 14 tables, window 12, hidden 48 (the paper's optimum)
    let mut rng = aets_common::rng::Rng::new(5);
    let (tables, window, hidden) = (14usize, 12usize, 48usize);
    let x = Tensor::rand_uniform(&mut rng, &[hidden, tables, window], 0.5);
    let w = Tensor::rand_uniform(&mut rng, &[hidden, hidden, 2], 0.2);
    r.timed("neural/conv1d_48x48x2_fwd", None, || {
        let mut tape = Tape::new();
        let (xv, wv) = (tape.leaf(x.clone()), tape.leaf(w.clone()));
        tape.conv1d(black_box(xv), wv, 2)
    });
    let mut ident = Tensor::zeros(&[tables, tables]);
    for i in 0..tables {
        ident.data_mut()[i * tables + i] = 1.0;
    }
    let adj = std::rc::Rc::new(vec![ident.clone(), ident]);
    let mix_w = Tensor::rand_uniform(&mut rng, &[2 * hidden, hidden], 0.2);
    let target = Tensor::zeros(&[hidden, tables, window]);
    r.timed("neural/gcn_block_fwd_bwd", None, || {
        let mut tape = Tape::new();
        let (xv, wv) = (tape.leaf(x.clone()), tape.leaf(mix_w.clone()));
        let y = tape.gcn_mix(xv, wv, adj.clone());
        let loss = tape.mae_loss(y, target.clone());
        tape.backward(black_box(loss))
    });

    // -- replay
    let bench = tpcc(2_000, 2);
    let n = bench.workload.num_tables();
    let one_epoch = bench.encode(2_048);
    r.timed("replay/dispatch_epoch", Some(one_epoch[0].txn_count as u64), || {
        dispatch_epoch(black_box(&one_epoch[0]), &bench.grouping).expect("dispatch")
    });
    let work = dispatch_epoch(&one_epoch[0], &bench.grouping).expect("dispatch");
    let db = MemDb::new(n);
    let sample: Vec<_> = work.groups[0]
        .mini_txns
        .iter()
        .flat_map(|mt| mt.entry_ranges.iter().cloned())
        .take(1_000)
        .collect();
    r.timed("replay/phase1_translate_1k", Some(sample.len() as u64), || {
        for range in &sample {
            black_box(translate_entry(&db, &work.bytes, range.clone()).expect("translate"));
        }
    });
    let entries = Some(bench.workload.total_entries() as u64);
    let engine = aets(&bench.grouping, 2).build().expect("valid config");
    r.timed("replay/aets_full_replay_2t", entries, || {
        engine.replay_all(black_box(&one_epoch), &MemDb::new(n)).expect("replay")
    });
    // A multi-epoch stream: the one shape that gets the dispatcher thread
    // (the single 2 048-txn epoch above dispatches inline).
    let small_epochs = bench.encode(256);
    r.timed("replay/aets_multi_epoch_2t_pipelined", entries, || {
        engine.replay_all(black_box(&small_epochs), &MemDb::new(n)).expect("replay")
    });
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{Json, ToJson};

    /// Every bench, at a tiny size: the result is in the one schema, with
    /// the whole provenance block and at least one row. No timing asserted.
    #[test]
    fn every_bench_result_carries_provenance_and_rows() {
        let tiny = Scale { txns: 2_000, ..Scale::fast() };
        for (name, _, bench) in BENCHES {
            let Json::Obj(result) = bench(tiny).to_json() else { panic!("{name}: not an object") };
            assert_eq!(result["benchmark"], Json::Str(name.to_string()));
            let Json::Obj(provenance) = &result["provenance"] else { panic!("{name}: provenance") };
            for key in ["nproc", "git_rev", "profile", "reps", "method"] {
                assert!(provenance.contains_key(key), "{name}: provenance lacks {key}");
            }
            let Json::Arr(rows) = &result["rows"] else { panic!("{name}: rows") };
            assert!(!rows.is_empty(), "{name}: no rows");
            for row in rows {
                let Json::Obj(row) = row else { panic!("{name}: row is not an object") };
                assert!(row.contains_key("name") && row.contains_key("unit"), "{name}: {row:?}");
                assert!(row.contains_key("value") || row.contains_key("ratio"), "{name}: {row:?}");
            }
            assert!(matches!(result["all_targets_met"], Json::Bool(_)));
        }
    }
}
