//! The layer drill of a `--trace 1` run: the workload's own epochs and
//! queries fed to each layer's public function alone, so a per-layer
//! number is that layer's work and nothing else.

use crate::inputs::{Query, Stream, ENGINE_THREADS};
use crate::report::Report;
use crate::stats::us;
use crate::tracer::Tracer;
use aets_common::{TableId, Timestamp};
use aets_memtable::{encode_db, gc_db, MemDb, Scan};
use aets_replay::{
    dispatch_epoch, eval_spec, ingest_epoch, BackupNode, IngestStats, ReplayEngine, ReplayMetrics,
    RetryPolicy,
};
use aets_telemetry::Telemetry;
use aets_transport::{ship_epochs, ReceiverConfig, ShipReceiver, ShipperConfig};
use aets_wal::{EncodedEpoch, LogRecord, SegmentConfig, SegmentStore};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

/// Total size of the files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| rd.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// `transport`: ship the stream into a receiver drained by a consumer
/// that does nothing with the epochs.
pub fn transport(s: &Stream, tr: &Tracer, r: &mut Report) {
    let tel = Arc::new(Telemetry::disabled());
    let mut receiver = ShipReceiver::bind("127.0.0.1:0", ReceiverConfig::default(), tel.clone())
        .expect("bind drill receiver");
    let addr = receiver.addr();
    let mut source = receiver.source();
    let n = s.epochs.len() as u64;
    let t0 = Instant::now();
    let report = std::thread::scope(|scope| {
        let consumer = scope.spawn(move || {
            let retry = RetryPolicy { max_retries: 50, ..Default::default() };
            let mut stats = IngestStats::default();
            for seq in 0..n {
                let e = ingest_epoch(&mut source, seq, &retry, &mut stats).expect("drill fetch");
                std::hint::black_box(e);
            }
        });
        let report = tr.span("drill.transport.ship_epochs", 0, 0, || {
            ship_epochs(addr, &s.epochs, &ShipperConfig::default(), &tel)
        });
        consumer.join().expect("drill consumer");
        report.expect("drill shipping")
    });
    let wall = t0.elapsed().as_secs_f64();
    receiver.shutdown();
    r.set("transport.ship_mib_per_s", s.log_mib() / wall, s.epochs.len());
    r.set(
        "transport.wire_bytes_per_log_byte",
        report.bytes_sent as f64 / s.log_bytes as f64,
        s.epochs.len(),
    );
    r.set("transport.frames_per_epoch", report.frames_sent as f64 / n as f64, s.epochs.len());
}

/// `wal`: verify, append (same `SegmentConfig` as the durable node),
/// read back, decode. Returns the per-epoch append times in µs.
pub fn wal(s: &Stream, dir: &Path, tr: &Tracer, r: &mut Report) -> Vec<f64> {
    let n = s.epochs.len();
    let t0 = Instant::now();
    for e in &s.epochs {
        e.verify().expect("generated epochs carry a valid crc");
    }
    r.set("wal.verify_mib_per_s", s.log_mib() / t0.elapsed().as_secs_f64(), n);

    let _ = std::fs::remove_dir_all(dir);
    let mut store =
        SegmentStore::open(dir, SegmentConfig::default(), None).expect("open drill wal");
    let mut append_us = Vec::with_capacity(n);
    let mut fsyncs = 0u64;
    for e in &s.epochs {
        let before = store.synced_seq();
        let t = Instant::now();
        tr.span("drill.wal.append", e.id.raw(), 0, || store.append(e)).expect("drill append");
        append_us.push(us(t.elapsed()));
        fsyncs += u64::from(store.synced_seq() != before);
    }
    r.set_pct("wal.append_us_p50", &append_us, 50.0);
    r.set_pct("wal.append_us_p95", &append_us, 95.0);
    r.set("wal.fsyncs_per_epoch", fsyncs as f64 / n as f64, n);
    r.set("wal.disk_bytes_per_log_byte", dir_bytes(dir) as f64 / s.log_bytes as f64, n);

    let t0 = Instant::now();
    let back = tr.span("drill.wal.read_suffix", 0, 0, || store.read_suffix(0)).expect("read back");
    r.set("wal.read_suffix_mib_per_s", s.log_mib() / t0.elapsed().as_secs_f64(), back.len());
    drop(store);
    let _ = std::fs::remove_dir_all(dir);

    let mut scratch: Vec<LogRecord> = Vec::new();
    let mut records = 0usize;
    let t0 = Instant::now();
    for e in &back {
        e.decode_records_into(&mut scratch).expect("decode");
        records += scratch.len();
    }
    r.set("wal.decode_rec_per_s", records as f64 / t0.elapsed().as_secs_f64(), records);
    append_us
}

/// `replay::dispatch`: the metadata scan and routing of each epoch.
pub fn dispatch(s: &Stream, epochs: &[EncodedEpoch], tr: &Tracer, r: &mut Report) {
    let mut per_epoch = Vec::with_capacity(epochs.len());
    let mut entries = 0usize;
    let t0 = Instant::now();
    for e in epochs {
        let t = Instant::now();
        let d = tr
            .span("drill.dispatch_epoch", e.id.raw(), 0, || dispatch_epoch(e, &s.grouping))
            .expect("dispatch");
        per_epoch.push(us(t.elapsed()));
        entries += d.groups.iter().map(|g| g.entries).sum::<usize>();
    }
    r.set_pct("dispatch.us_per_epoch_p50", &per_epoch, 50.0);
    r.set("dispatch.entries_per_s", entries as f64 / t0.elapsed().as_secs_f64(), entries);
}

/// What the engine drill leaves behind.
pub struct EngineDrill {
    /// Duration of each single-epoch `replay` call, µs.
    pub per_epoch_us: Vec<f64>,
    /// The database the drill built.
    pub db: MemDb,
    /// The calls' `ReplayMetrics`, absorbed, with `wall` = their sum.
    pub metrics: ReplayMetrics,
}

/// `replay::engines`: each epoch through `AetsEngine::replay` alone on a
/// fresh database.
pub fn engine(s: &Stream, epochs: &[EncodedEpoch], tr: &Tracer, r: &mut Report) -> EngineDrill {
    let eng = s.engine();
    let db = MemDb::new(s.num_tables);
    let board = aets_replay::VisibilityBoard::builder(eng.board_groups()).build();
    let mut per_epoch = Vec::with_capacity(epochs.len());
    let mut total = ReplayMetrics::default();
    for e in epochs {
        let t = Instant::now();
        let m = tr
            .span("drill.engine.replay", e.id.raw(), 0, || {
                eng.replay(std::slice::from_ref(e), &db, &board)
            })
            .expect("drill replay");
        let d = t.elapsed();
        per_epoch.push(us(d));
        total.absorb(&m);
        // `absorb` leaves `wall` alone; the drill's own clock fills it.
        total.wall += d;
    }
    r.set_pct("engine.replay_us_per_epoch_p50", &per_epoch, 50.0);
    r.set_pct("engine.replay_us_per_epoch_p95", &per_epoch, 95.0);
    r.set("engine.entries_per_s", total.entries_per_sec(), total.entries);
    r.set("engine.serial_txn_per_s", s.serial_txn_per_s, s.txns);
    r.set("engine.speedup_vs_serial", total.txns_per_sec() / s.serial_txn_per_s, total.txns);
    EngineDrill { per_epoch_us: per_epoch, db, metrics: total }
}

/// Busy shares of an engine run from the `ReplayMetrics` it returned.
pub fn engine_shares(m: &ReplayMetrics, r: &mut Report) {
    let wall = m.wall.as_secs_f64();
    if wall == 0.0 {
        return;
    }
    let n = m.epochs;
    r.set("dispatch.busy_share", m.dispatch_busy.as_secs_f64() / wall, n);
    let threads = ENGINE_THREADS as f64;
    r.set("engine.translate_busy_share", m.replay_busy.as_secs_f64() / (threads * wall), n);
    r.set("engine.commit_busy_share", m.commit_busy.as_secs_f64() / wall, n);
    let stages = (m.stage1_wall + m.stage2_wall).as_secs_f64();
    r.set("engine.stage1_wall_share", m.stage1_wall.as_secs_f64() / stages, n);
    let cells = m.cell_buffers_recycled + m.cell_buffers_allocated;
    r.set(
        "engine.cell_recycle_ratio",
        m.cell_buffers_recycled as f64 / cells as f64,
        cells as usize,
    );
}

/// `memtable`: full scans, snapshot encoding and — unless the workload
/// timed its own `gc()` passes (`drill_gc: false`) — one GC pass over the
/// database the engine drill built. GC runs last: it mutates.
pub fn memtable(db: &MemDb, drill_gc: bool, tr: &Tracer, r: &mut Report) {
    let versions = db.total_versions();
    r.set("memtable.versions_installed", versions as f64, versions);

    let biggest: TableId =
        db.tables().max_by_key(|t| t.len()).map(|t| t.id()).expect("at least one table");
    let table = db.table(biggest);
    let mut rows = 0usize;
    let t0 = Instant::now();
    for _ in 0..3 {
        rows += tr.span("drill.memtable.scan", 0, 0, || Scan::at(Timestamp::MAX).count(table));
    }
    r.set("memtable.scan_rows_per_s", rows as f64 / t0.elapsed().as_secs_f64(), rows);

    let mut buf = bytes::BytesMut::new();
    let t0 = Instant::now();
    tr.span("drill.memtable.encode_db", 0, 0, || encode_db(&mut buf, db, Timestamp::MAX));
    r.set(
        "memtable.snapshot_encode_mib_per_s",
        mib(buf.len() as u64) / t0.elapsed().as_secs_f64(),
        buf.len(),
    );

    if drill_gc {
        let t0 = Instant::now();
        let pass = tr.span("drill.memtable.gc", 0, 0, || gc_db(db, Timestamp::MAX));
        r.set("memtable.gc_pass_ms_p50", t0.elapsed().as_secs_f64() * 1e3, 1);
        r.set("memtable.gc_pruned_per_pass", pass.pruned as f64, 1);
    }
}

/// `replay::service` against `memtable`: each spec through a session's
/// `query` and through `eval_spec` on the node's own database, back to
/// back at the same snapshot, on a node nothing else is using. It runs
/// after the timed part, so no measured query pays for it.
#[derive(Default)]
pub struct ServiceDrill {
    eval_us: Vec<f64>,
    overhead_us: Vec<f64>,
}

impl ServiceDrill {
    pub fn run(&mut self, node: &BackupNode, queries: &[&Query], qts: Timestamp, tr: &Tracer) {
        for q in queries {
            let session = node.open_session(qts, &q.tables);
            for spec in &q.specs {
                let t0 = Instant::now();
                let served =
                    tr.span("drill.service.query", q.id as u64, 0, || session.query(spec.clone()));
                let exec = us(t0.elapsed());
                // A refusal is the measured window's to report, not the drill's.
                let Ok(served) = served else { continue };
                let t1 = Instant::now();
                let direct = tr.span("drill.memtable.eval_spec", q.id as u64, 0, || {
                    eval_spec(node.db(), spec, qts)
                });
                let eval = us(t1.elapsed());
                std::hint::black_box((served, direct));
                self.eval_us.push(eval);
                self.overhead_us.push(exec - eval);
            }
        }
    }

    pub fn report(&self, r: &mut Report) {
        r.set_pct("memtable.eval_us_p50", &self.eval_us, 50.0);
        r.set_pct("service.overhead_us_p50", &self.overhead_us, 50.0);
    }
}
