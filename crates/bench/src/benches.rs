//! The bodies behind `repro bench <name>`: what each bench times, at what
//! full-scale size, against what target. Every number goes through
//! [`crate::harness`]; sizes are stated at full scale and shrunk by
//! [`Scale::of`] below it. End-to-end numbers (ingest, WAL, recovery,
//! query service, freshness) come from `benchmark/`, not from here.
//!
//! | name        | what is timed                                                        |
//! |-------------|----------------------------------------------------------------------|
//! | `adaptive`  | static split vs live controller, with and without drift              |
//! | `telemetry` | the same bulk replay with instrumentation off and on                 |
//! | `micro`     | kernel rows: allocator, codec, memtable points and walks, neural,    |
//! |             | dispatch, translate, commit and whole replays                        |

use crate::experiments::Scale;
use crate::harness::{median, paired, BenchResult, Target, PAIRED};
use crate::{tpcc_bench_with, Bench};
use aets_common::{
    splitmix64, ColumnId, DmlOp, FxHashSet, GroupId, RowKey, TableId, Timestamp, TxnId, Value,
};
use aets_forecast::ForecastModel;
use aets_memtable::{
    decode_db, encode_db, gc_db, AggState, Aggregate, BPlusTree, MemDb, Scan, SnapshotWalk, Table,
    Version, MIN_CUT_LEN,
};
use aets_neural::{Tape, Tensor};
use aets_replay::engines::aets::CHUNK;
use aets_replay::{
    allocate_threads, commit_cell, dbscan_1d, dispatch_epoch, eval_spec, translate_mini_txns,
    AetsConfig, AetsEngine, BackupNode, Cell, ControllerConfig, MiniTxn, NodeOptions, QueryOutput,
    QuerySpec, QueryTarget, ReplayEngine, ReplayMetrics, SerialEngine, ServiceOptions,
    TableGrouping, UrgencyMode, VisibilityBoard,
};
use aets_telemetry::{names, Telemetry};
use aets_wal::{
    crc32, crc32_scalar, crc32_slice8, decode_at, decode_batch, encode_epoch, EncodedEpoch,
    LogRecord, MetaScanner,
};
use aets_workloads::drift::{rotating_tpcc, RotatingTpccConfig};
use aets_workloads::tpcc::{tables, TpccConfig};
use aets_workloads::QueryInstance;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One bench: its CLI name, its `results/BENCH_<file>.json` stem, its body.
pub type BenchFn = (&'static str, &'static str, fn(Scale) -> BenchResult);

/// Every bench `repro bench` knows, in `all` order.
pub const BENCHES: &[BenchFn] = &[
    ("adaptive", "adaptive", adaptive),
    ("telemetry", "observability", telemetry),
    ("micro", "micro", micro),
];

fn tpcc(num_txns: usize, warehouses: u32) -> Bench {
    tpcc_bench_with(&TpccConfig { num_txns, warehouses, ..Default::default() })
}

fn aets(grouping: &TableGrouping, threads: usize) -> aets_replay::engines::aets::AetsEngineBuilder {
    AetsEngine::builder(grouping.clone()).config(AetsConfig { threads, ..Default::default() })
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
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

// ------------------------------------------------------------------- micro

/// Kernel rows, each an absolute median: the control-plane solvers on the
/// per-epoch critical path, the CRC kernels, the value-log codec (full
/// decode vs metadata-only scan — the asymmetry behind the C5-vs-ATR/AETS
/// dispatch comparison), memtable point operations, the memtable's
/// whole-database walks (scan, aggregate, GC pass, snapshot encode), one
/// DTGM-scale forward and backward pass, and dispatch / translate / commit /
/// full engine passes.
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

    // -- codec: the CRC kernels over one 64 KiB buffer and one record-sized
    // input (`crc32` is whatever kernel this CPU dispatches to), then the
    // log codec.
    let buf: Vec<u8> = (0..64 * 1024u64).map(|i| splitmix64(0xC12C + i) as u8).collect();
    let bytes = Some(buf.len() as u64);
    let scalar =
        r.timed("codec/crc32_scalar_64k", bytes, || crc32_scalar(black_box(&buf))).judged();
    let slice8 =
        r.timed("codec/crc32_slice8_64k", bytes, || crc32_slice8(black_box(&buf))).judged();
    let dispatched = r.timed("codec/crc32_64k", bytes, || crc32(black_box(&buf))).judged();
    r.timed("codec/crc32_96b", Some(96), || crc32(black_box(&buf[..96])));
    // Holds at any size, on any machine, with or without `--gate` — for
    // the optimised kernels; an unoptimised build measures none of them.
    assert!(
        (dispatched >= slice8 && slice8 >= scalar) || cfg!(debug_assertions),
        "CRC kernels out of order (B/s): dispatched {dispatched:.0}, slice-by-8 {slice8:.0}, \
         bytewise {scalar:.0}"
    );
    let small = tpcc(1_000, 2);
    let raw = aets_wal::batch_into_epochs(small.workload.txns.clone(), 1_000).expect("epoch size");
    let entries = Some(small.workload.total_entries() as u64);
    r.timed("codec/encode_epoch", entries, || encode_epoch(black_box(&raw[0])));
    let encoded = encode_epoch(&raw[0]);
    r.timed("codec/decode_full", entries, || {
        decode_batch(black_box(&encoded.bytes)).expect("valid batch")
    });
    r.timed("codec/scan_meta", entries, || {
        MetaScanner::new(black_box(encoded.bytes.clone())).fold(0usize, |n, rec| {
            rec.expect("valid record");
            n + 1
        })
    });
    // Two threads decode disjoint halves of one frame's DML records, as
    // two crew members translating one epoch do; every column is counted.
    let dml: Vec<_> = MetaScanner::new(encoded.bytes.clone())
        .map(|rec| rec.expect("valid record"))
        .filter_map(|(meta, range)| meta.table.map(|_| range))
        .collect();
    let (lo, hi) = dml.split_at(dml.len() / 2);
    let cols = |part: &[std::ops::Range<usize>]| -> usize {
        part.iter()
            .map(|range| match decode_at(&encoded.bytes, range.clone()).expect("valid record") {
                LogRecord::Dml(d) => d.cols.len(),
                other => panic!("a DML range decoded as {other:?}"),
            })
            .sum()
    };
    let all_cols = cols(&dml);
    r.timed("codec/decode_at_2t", Some(dml.len() as u64), || {
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(|| cols(hi));
            (cols(lo), other.join().expect("decoder thread"))
        });
        assert_eq!(a + b, all_cols, "the halves decode every column once");
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

    // -- memtable walks: one seeded CH-benCHmark database, collected once
    // at its midpoint so that it holds lone versions and longer chains the
    // way a live backup does between passes. Each row first checks what
    // it computes against the rows `eval_spec` materialises.
    let ch = crate::chbench_bench(scale.of(30_000));
    let db = Arc::new(MemDb::new(ch.workload.num_tables()));
    SerialEngine.replay_all(&ch.encode(256), &db).expect("oracle replay");
    let mid = ch.workload.txns[ch.workload.txns.len() / 2].commit_ts;
    gc_db(&db, mid);
    let nodes = Some(db.tables().map(|t| t.len() as u64).sum());
    // The scan_heavy workload's tables and columns: ol_amount,
    // s_quantity, c_balance.
    let scanned = [(tables::ORDER_LINE, 2), (tables::STOCK, 0), (tables::CUSTOMER, 0)]
        .map(|(t, c)| (db.table(t), ColumnId::new(c)));
    let visited = Some(scanned.iter().map(|(t, _)| t.len() as u64).sum());
    let at = Scan::at(Timestamp::MAX);
    let rows =
        scanned.map(|(t, _)| match eval_spec(&db, &QuerySpec::rows(t.id()), Timestamp::MAX) {
            QueryOutput::Rows(rows) => rows,
            other => unreachable!("a row spec answered {other:?}"),
        });
    let count = || scanned.map(|(t, _)| at.count(t));
    assert_eq!(count(), rows.each_ref().map(Vec::len), "count disagrees with eval_spec");
    r.timed("memtable/scan_count", visited, count);
    let sum = || scanned.map(|(t, c)| at.aggregate(t, c, Aggregate::Sum));
    // The exact fold over the copied-out rows: independent of the chain
    // walk, and of the order the walk adds in.
    let want = std::array::from_fn(|i| {
        let mut exact = AggState::new(Aggregate::Sum);
        for (_, row) in &rows[i] {
            match row.iter().find(|(c, _)| *c == scanned[i].1).map(|(_, v)| v) {
                Some(Value::Int(v)) => exact.push(*v as f64),
                Some(Value::Float(v)) => exact.push(*v),
                _ => {}
            }
        }
        exact.finish()
    });
    assert_eq!(sum(), want, "sum disagrees with eval_spec");
    r.timed("memtable/aggregate_col", visited, sum);
    // The same Sums served through a node's session: each table large
    // enough splits over the idle query workers.
    let node = BackupNode::builder()
        .engine(Arc::new(aets(&ch.grouping, 1).build().expect("engine config")))
        .db(db.clone())
        .telemetry(Arc::new(Telemetry::new()))
        .build()
        .expect("node config");
    let qts = ch.workload.txns.last().expect("a nonempty stream").commit_ts;
    node.board().publish_global(qts);
    let specs = scanned.map(|(t, c)| QuerySpec::aggregate(t.id(), c, Aggregate::Sum));
    let served = || specs.each_ref().map(|s| node.query_one(qts, s.clone()).expect("served"));
    assert_eq!(served(), specs.each_ref().map(|s| eval_spec(&db, s, qts)), "served != eval_spec");
    let parts = node.telemetry().snapshot().counter_total(names::QUERY_SCAN_PARTS);
    let big = scanned.iter().any(|(t, _)| t.len() >= 2 * MIN_CUT_LEN);
    assert!(parts > 0 || !big, "no served scan was split");
    r.timed("service/split_scan", visited, served);
    r.value("service/split_scan_parts", "count", parts as f64);
    drop(node);
    let digest = [mid, Timestamp::MAX].map(|ts| db.digest_at(ts));
    // Every pass after the first finds each chain settled: the walk, one
    // exclusive lock per record and nothing pruned.
    r.timed("memtable/gc_pass", nodes, || gc_db(&db, mid));
    assert_eq!(gc_db(&db, mid).pruned, 0, "a repeated pass pruned");
    assert_eq!([mid, Timestamp::MAX].map(|ts| db.digest_at(ts)), digest, "GC moved a digest");
    let mut buf = Vec::new();
    encode_db(&mut buf, &db, Timestamp::MAX);
    let back = decode_db(&buf).expect("a snapshot decodes");
    assert_eq!([mid, Timestamp::MAX].map(|ts| back.digest_at(ts)), digest, "encode→decode");
    r.timed("memtable/encode_db", Some(db.total_versions() as u64), || {
        buf.clear();
        encode_db(&mut buf, &db, Timestamp::MAX);
        buf.len()
    });
    // A checkpoint's one walk: GC at `mid` and encode, fused per chain,
    // on two threads claiming key-range parts as the engine's two crew
    // members do; the parts' buffers sized from the walk before.
    let walk_2t = |bytes_per_node| {
        let walk = SnapshotWalk::plan(&db, Timestamp::MAX, Some(mid), 2, bytes_per_node);
        std::thread::scope(|s| {
            s.spawn(|| walk.work());
            walk.work();
        });
        walk.finish()
    };
    let first = walk_2t(0);
    assert!(
        first.pieces.iter().flat_map(|p| p.iter().copied()).collect::<Vec<u8>>() == buf[..],
        "the walk's bytes are encode_db's"
    );
    assert_eq!(first.gc.pruned, 0, "the chains were settled at `mid` already");
    let bytes_per_node = first.bytes_per_node;
    drop(first);
    r.timed("memtable/checkpoint_walk_2t", Some(db.total_versions() as u64), || {
        walk_2t(bytes_per_node).len
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
    // Phase 1 as a crew member runs it: `CHUNK` mini-transactions at a
    // time, each table's keys resolved under one index guard.
    let (group, ranges) = (&work.groups[0].mini_txns, &work.groups[0].entry_ranges);
    let translate = |db: &MemDb, mts: &[MiniTxn]| {
        // Sized up front, as the engine's pooled buffers are.
        let mut cells = Vec::with_capacity(mts.iter().map(|mt| mt.entries.len()).sum());
        for chunk in mts.chunks(CHUNK) {
            assert!(translate_mini_txns(db, &work.bytes, ranges, chunk, &mut cells).1.is_none());
        }
        cells
    };
    let mut seen = 0;
    let sample = &group[..group
        .iter()
        .take_while(|mt| {
            seen += mt.entries.len();
            seen <= 1_000
        })
        .count()];
    let items = Some(translate(&db, sample).len() as u64);
    r.timed("replay/phase1_translate_1k", items, || translate(&db, black_box(sample)));
    // Two threads translate disjoint halves of the group's chunks into one
    // `MemDb`, checked against one thread's cells: crew members share a
    // table's index only this way, and only when a group is split.
    let (lo, hi) = group.split_at((group.len().div_ceil(CHUNK) / 2 * CHUNK).min(group.len()));
    let two = |db: &MemDb| {
        std::thread::scope(|s| {
            let other = s.spawn(|| translate(db, hi));
            (translate(db, lo), other.join().expect("translator thread"))
        })
    };
    let (a, b) = two(&db);
    let one = translate(&db, group);
    assert_eq!(a.len() + b.len(), one.len(), "the halves translate every entry once");
    for (got, want) in a.iter().chain(&b).zip(&one) {
        assert!(got.txn_id == want.txn_id && Arc::ptr_eq(&got.node, &want.node), "another cell");
    }
    r.timed("replay/phase1_translate_2t", Some(one.len() as u64), || two(&db));
    // Phase 2 as one committer runs it over BusTracker chunks: each
    // chunk's cells, translated untimed into a fresh `MemDb`, appended with
    // `commit_cell`, `publish_group` after each mini-transaction.
    let bus = crate::bustracker_bench(2_048, 35);
    let bus_epoch = &bus.encode(2_048)[0];
    let bus_work = dispatch_epoch(bus_epoch, &bus.grouping).expect("dispatch");
    let board = VisibilityBoard::builder(bus.grouping.num_groups()).build();
    let translated = || {
        let db = MemDb::new(bus.workload.num_tables());
        let chunks =
            bus_work.groups.iter().flat_map(|g| g.mini_txns.chunks(CHUNK).map(move |c| (g, c)));
        let cells = chunks
            .map(|(g, chunk)| {
                let mut cells = Vec::new();
                let ranges = &g.entry_ranges;
                let (_, err) = translate_mini_txns(&db, &bus_work.bytes, ranges, chunk, &mut cells);
                assert!(err.is_none());
                cells
            })
            .collect();
        (db, cells)
    };
    let commit = |(db, cells): (MemDb, Vec<Vec<Cell>>)| {
        let mut cells = cells.into_iter();
        for (g, group) in (0..).map(GroupId::new).zip(&bus_work.groups) {
            for (chunk, chunk_cells) in group.mini_txns.chunks(CHUNK).zip(cells.by_ref()) {
                let mut chunk_cells = chunk_cells.into_iter();
                for mt in chunk {
                    for cell in chunk_cells.by_ref().take(mt.entries.len()) {
                        commit_cell(cell, mt.commit_ts);
                    }
                    board.publish_group(g, mt.commit_ts);
                }
            }
        }
        db
    };
    let oracle = MemDb::new(bus.workload.num_tables());
    SerialEngine.replay_all(std::slice::from_ref(bus_epoch), &oracle).expect("oracle replay");
    let digest = oracle.digest_at(Timestamp::MAX);
    assert_eq!(commit(translated()).digest_at(Timestamp::MAX), digest, "commit_chunk != oracle");
    let cells = Some(bus_work.groups.iter().map(|g| g.entries as u64).sum());
    r.timed_consuming("replay/commit_chunk", cells, 16, translated, commit);
    let entries = Some(bench.workload.total_entries() as u64);
    let engine = aets(&bench.grouping, 2).build().expect("valid config");
    r.timed("replay/aets_full_replay_2t", entries, || {
        engine.replay_all(black_box(&one_epoch), &MemDb::new(n)).expect("replay")
    });
    // A multi-epoch stream: the one shape in which a crew member idle in
    // an epoch's last stage dispatches the next epoch and translates its
    // first stage ahead (the single 2 048-txn epoch above dispatches
    // inline and has nothing to look ahead to).
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
