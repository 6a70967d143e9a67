//! Shipping the primary's log over a faulty network, end to end.
//!
//! ```sh
//! cargo run --release --example net_ship_demo [seed]
//! ```
//!
//! Boots a loopback [`ShipReceiver`], puts a seeded fault-injecting
//! [`FaultProxy`] in front of it (disconnects, partitions, corrupted and
//! truncated frames, delays, duplicates, half-open stalls), and ships a
//! TPC-C epoch stream through the chaos with [`ship_epochs`]. The far
//! side is a [`DurableBackup`] pulling from the receiver's
//! [`EpochSource`] bridge; when the stream drains, its state is checked
//! against a fault-free serial oracle. A JSONL trace of the delivered
//! stream is captured along the way and replayed to prove the run is
//! reproducible offline.

use aets_suite::common::{TableId, Timestamp};
use aets_suite::memtable::MemDb;
use aets_suite::replay::{
    ingest_epoch, AetsConfig, AetsEngine, DurableBackup, DurableOptions, IngestStats, QuerySpec,
    QueryTarget, ReplayEngine, RetryPolicy, SerialEngine, ServiceOptions, TableGrouping,
};
use aets_suite::telemetry::{http_get, names, parse_exposition, Telemetry};
use aets_suite::transport::{
    ship_epochs, EngineSink, FaultProxy, NetFaultPlan, ReceiverConfig, ReplayMode, ShipReceiver,
    ShipperConfig, TraceRecorder, TraceReplayer, TraceSink,
};
use aets_suite::wal::{batch_into_epochs, encode_epoch};
use aets_suite::workloads::tpcc::{self, TpccConfig};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0xA5EED1);

    // The primary's committed log stream and the fault-free oracle.
    let workload =
        tpcc::generate(&TpccConfig { num_txns: 4_000, warehouses: 2, ..Default::default() });
    let num_tables = workload.num_tables();
    let epochs: Vec<_> = batch_into_epochs(workload.txns.clone(), 64)
        .expect("positive epoch size")
        .iter()
        .map(encode_epoch)
        .collect();
    let (groups, rates) = tpcc::paper_grouping();
    let grouping = TableGrouping::new(num_tables, groups, rates, &workload.analytic_tables)
        .expect("paper grouping is well-formed");
    let oracle = MemDb::new(num_tables);
    SerialEngine.replay_all(&epochs, &oracle).expect("oracle replay");
    let total = epochs.len() as u64;
    println!("stream: {} txns in {} epochs, chaos seed {seed:#x}", workload.txns.len(), total);

    // Receiver, chaos proxy, and the shipper thread behind it.
    let tel_rx = Arc::new(Telemetry::new());
    let mut receiver = ShipReceiver::bind("127.0.0.1:0", ReceiverConfig::default(), tel_rx.clone())
        .expect("bind receiver");
    let mut proxy =
        FaultProxy::start(receiver.addr(), NetFaultPlan::new(seed, 0.03)).expect("start proxy");
    let proxy_addr = proxy.addr();
    let ship_stream = epochs.clone();
    let tel_tx = Arc::new(Telemetry::new());
    let ship_tel = tel_tx.clone();
    let shipper = std::thread::spawn(move || {
        ship_epochs(proxy_addr, &ship_stream, &ShipperConfig::default(), &ship_tel)
    });

    // The backup node pulls from the network source; a trace recorder
    // captures every delivered epoch plus periodic live query results.
    // The engine shares the receiver's telemetry so net, WAL, and replay
    // spans land in one ring — scrapeable live when `AETS_OBS_ADDR` asks
    // for the HTTP endpoint (e.g. `AETS_OBS_ADDR=127.0.0.1:0`).
    let engine = AetsEngine::builder(grouping)
        .config(AetsConfig { threads: 2, ..Default::default() })
        .telemetry(tel_rx.clone())
        .build()
        .expect("positive thread count");
    let base = std::env::temp_dir().join(format!("aets-net-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("scratch dir");
    let mut node = DurableBackup::open(
        base.join("wal"),
        base.join("ckpt"),
        engine,
        num_tables,
        DurableOptions {
            checkpoint_every: 16,
            service: ServiceOptions {
                obs_addr: std::env::var("AETS_OBS_ADDR").ok(),
                ..Default::default()
            },
            ..Default::default()
        },
        None,
    )
    .expect("cold start");
    let trace_path = base.join("shipped.trace.jsonl");
    let mut recorder = TraceRecorder::create(&trace_path).expect("create trace");
    let mut probe = EngineSink::new(num_tables);

    let mut source = receiver.source();
    let retry = RetryPolicy { max_retries: 20, base_backoff_us: 200, max_backoff_us: 10_000 };
    let t0 = Instant::now();
    let mut seq = 0u64;
    while seq < total {
        let mut stats = IngestStats::default();
        // A stalled feed is the link mid-reconnect; keep pulling.
        if let Ok(epoch) = ingest_epoch(&mut source, seq, &retry, &mut stats) {
            node.ingest(&epoch).expect("durable ingest");
            probe.ingest(&epoch).expect("probe ingest");
            recorder.record_epoch(seq, &epoch).expect("record epoch");
            if seq % 8 == 7 {
                let qts = probe.safe_ts();
                let spec = QuerySpec::count(TableId::new((seq % num_tables as u64) as u32));
                let out = probe.query_one(qts, spec.clone()).expect("probe");
                recorder.record_query(seq, qts, &spec, &out).expect("record query");
            }
            seq += 1;
        }
    }
    let drain_wall = t0.elapsed();
    let recorded_wm = recorder.finish().expect("finish trace");
    let report = shipper.join().expect("shipper thread").expect("shipping failed");
    receiver.shutdown();
    proxy.shutdown();

    println!(
        "drained {total} epochs in {drain_wall:.2?}: {} connects ({} reconnects, {} resyncs), \
         {} frames for {} epochs ({} re-shipped), {} bytes on the wire",
        report.connects,
        report.reconnects,
        report.resyncs,
        report.frames_sent,
        report.epochs,
        report.frames_sent - report.epochs,
        report.bytes_sent,
    );
    let snap = tel_rx.snapshot();
    println!(
        "receiver: {} handshakes, {} bytes in, {} duplicate epochs deduped, {} frame errors",
        snap.counter_total(names::NET_HANDSHAKES),
        snap.counter_total(names::NET_BYTES_RECV),
        snap.counter_total(names::NET_EPOCHS_DEDUPED),
        snap.counter_total(names::NET_FRAME_ERRORS),
    );

    // The drained backup equals the fault-free oracle.
    let want = oracle.digest_at(Timestamp::MAX);
    assert_eq!(node.db().digest_at(Timestamp::MAX), want, "backup == oracle");
    println!("backup digest matches the fault-free serial oracle");

    // Self-scrape the live endpoint when one was requested: the metrics
    // page must parse as Prometheus exposition, the span page must hold
    // the last epoch's lifecycle, and the health probe must say 200.
    if let Some(addr) = node.obs_addr() {
        let (status, body) = http_get(addr, "/metrics").expect("GET /metrics");
        assert!(status.contains("200"), "metrics status {status}");
        let families = parse_exposition(&body).expect("exposition parses");
        assert!(!families.is_empty(), "metrics page must not be empty");
        let probe_epoch = total - 1;
        let (status, spans) =
            http_get(addr, &format!("/spans.json?epoch={probe_epoch}")).expect("GET /spans.json");
        assert!(status.contains("200"), "spans status {status}");
        for stage in ["net_recv", "wal_append", "dispatch", "flip_global"] {
            assert!(
                spans.contains(&format!("\"stage\": \"{stage}\"")),
                "epoch {probe_epoch} timeline is missing its {stage} span"
            );
        }
        let (status, _) = http_get(addr, "/healthz").expect("GET /healthz");
        assert!(status.contains("200"), "healthy node must probe 200, got {status}");
        println!(
            "obs endpoint ok: {} families parsed, epoch {probe_epoch} timeline live, healthz 200",
            families.len()
        );
    }

    // Offline reproducibility: replay the captured trace as fast as
    // possible and compare watermark + every recorded query result.
    let replayer = TraceReplayer::open(&trace_path).expect("open trace");
    let mut sink = EngineSink::new(num_tables);
    let rep = replayer.run(ReplayMode::AsFastAsPossible, &mut sink).expect("replay trace");
    assert!(rep.reproduced(), "trace replay diverged: {:?}", rep.mismatches.first());
    assert_eq!(rep.final_global_cmt_ts_us, recorded_wm);
    assert_eq!(sink.db().digest_at(Timestamp::MAX), want, "replayed trace == oracle");
    println!(
        "trace: {} epochs + {} queries replayed afap, {} results matched byte-for-byte, \
         final watermark {}us reproduced",
        rep.epochs, rep.queries, rep.queries_matched, rep.final_global_cmt_ts_us
    );
    let _ = std::fs::remove_dir_all(&base);
}
