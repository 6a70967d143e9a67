//! Ingest hot-path benchmark: paired before/after medians for the four
//! surviving levers of the raw-speed ingest campaign.
//!
//! ```sh
//! cargo run --release --example ingest_bench            # full run
//! cargo run --release --example ingest_bench -- --smoke # CI smoke (seconds)
//! ```
//!
//! Every lever is measured as a *paired* comparison — each rep times the
//! "before" and "after" variant back to back, alternating which goes
//! first so machine drift cancels, and the report is the median across
//! reps (the methodology of `examples/telemetry_overhead.rs`):
//!
//! 1. **CRC kernel** — bytewise `crc32_scalar` vs slice-by-8 `crc32`
//!    (target: ≥ 4x on ≥ 1 KiB inputs).
//! 2. **Batched decode** — per-record `decode_record` loop with a fresh
//!    output vector per epoch vs one-pass `decode_batch_into` with a
//!    reused scratch vector.
//! 3. **Group-commit WAL** — `FsyncPolicy::EveryEpoch` vs
//!    `FsyncPolicy::Coalesced` over the same epoch stream.
//! 4. **Chunked recovery reads** — monolithic whole-file reads (one
//!    file-sized allocation per segment, the PR-3 shape) vs fixed
//!    128 KiB chunks into a reused buffer; plus the absolute wall time
//!    of a real `SegmentStore::open` + `read_suffix` recovery.
//!
//! (The campaign's fifth lever, the lock-free SPSC commit queue, left
//! with the per-mini-transaction hand-off it served: the replay crew
//! hands off chunks under a plain lock. Its last recorded pair stays in
//! `results/BENCH_ingest.json` as history.)
//!
//! An end-to-end section reports the current `dispatch_epoch` and full
//! AETS replay medians so the numbers can be compared against the PR-5
//! baseline recorded in `results/BENCH_pipeline.json`.
//!
//! A full run writes `results/BENCH_ingest.json` when invoked from the
//! repo root; `--smoke` shrinks every workload to finish in seconds and
//! skips the file write so CI cannot clobber calibrated results.

use aets_suite::common::EpochId;
use aets_suite::memtable::MemDb;
use aets_suite::replay::{
    dispatch_epoch, AetsConfig, AetsEngine, ReplayEngine, TableGrouping, VisibilityBoard,
};
use aets_suite::wal::{
    batch_into_epochs, crc32, crc32_scalar, decode_record, encode_epoch, EncodedEpoch, FsyncPolicy,
    LogRecord, SegmentConfig, SegmentStore,
};
use aets_suite::workloads::tpcc::{self, TpccConfig};
use std::hint::black_box;
use std::io::Read;
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Shape {
    reps: usize,
    crc_buf: usize,
    crc_iters: usize,
    decode_txns: usize,
    wal_epochs: usize,
    dispatch_txns: usize,
}

const FULL: Shape = Shape {
    reps: 7,
    crc_buf: 64 * 1024,
    crc_iters: 2_000,
    decode_txns: 20_000,
    wal_epochs: 512,
    dispatch_txns: 20_000,
};

const SMOKE: Shape = Shape {
    reps: 3,
    crc_buf: 4 * 1024,
    crc_iters: 200,
    decode_txns: 2_000,
    wal_epochs: 48,
    dispatch_txns: 2_000,
};

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Runs one paired lever: `reps` back-to-back measurements of both
/// variants with alternating order; returns `(before_med, after_med)`
/// in whatever unit the closures report (higher = faster).
fn paired(
    reps: usize,
    mut before: impl FnMut() -> f64,
    mut after: impl FnMut() -> f64,
) -> (f64, f64) {
    // Warm-up rep of each, discarded.
    before();
    after();
    let mut b = Vec::with_capacity(reps);
    let mut a = Vec::with_capacity(reps);
    for rep in 0..reps {
        if rep % 2 == 0 {
            b.push(before());
            a.push(after());
        } else {
            a.push(after());
            b.push(before());
        }
    }
    (median(&mut b), median(&mut a))
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aets-ingest-bench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------- lever 1

/// Returns (before, after) CRC throughput in MiB/s.
fn bench_crc(sh: &Shape) -> (f64, f64) {
    let mut rng = 0xC12Cu64;
    let buf: Vec<u8> = (0..sh.crc_buf).map(|_| splitmix(&mut rng) as u8).collect();
    let mib = (sh.crc_buf * sh.crc_iters) as f64 / (1024.0 * 1024.0);
    paired(
        sh.reps,
        || {
            let t = Instant::now();
            for _ in 0..sh.crc_iters {
                black_box(crc32_scalar(black_box(&buf)));
            }
            mib / t.elapsed().as_secs_f64()
        },
        || {
            let t = Instant::now();
            for _ in 0..sh.crc_iters {
                black_box(crc32(black_box(&buf)));
            }
            mib / t.elapsed().as_secs_f64()
        },
    )
}

// ---------------------------------------------------------------- lever 2

/// Returns (before, after) decode throughput in records/s.
fn bench_decode(epochs: &[EncodedEpoch], sh: &Shape) -> (f64, f64) {
    // Count once for the rate denominator.
    let mut scratch: Vec<LogRecord> = Vec::new();
    let mut total = 0usize;
    for e in epochs {
        e.decode_records_into(&mut scratch).expect("valid epoch");
        total += scratch.len();
    }
    let records = total as f64;
    paired(
        sh.reps,
        || {
            // Before: per-record decode, fresh Vec per epoch — each
            // record re-snapshots the cursor to verify its CRC and the
            // allocation is repaid every epoch.
            let t = Instant::now();
            for e in epochs {
                let mut out: Vec<LogRecord> = Vec::new();
                let mut cursor = e.bytes.clone();
                while !cursor.is_empty() {
                    out.push(decode_record(&mut cursor).expect("valid record"));
                }
                black_box(&out);
            }
            records / t.elapsed().as_secs_f64()
        },
        || {
            // After: one-pass batched decode into a reused scratch Vec.
            let mut out: Vec<LogRecord> = Vec::new();
            let t = Instant::now();
            for e in epochs {
                e.decode_records_into(&mut out).expect("valid epoch");
                black_box(&out);
            }
            records / t.elapsed().as_secs_f64()
        },
    )
}

// ---------------------------------------------------------------- lever 3

/// Re-stamps a workload's epochs with sequential ids from 0 so they can
/// be appended to a fresh store.
fn restamped(epochs: &[EncodedEpoch], count: usize) -> Vec<EncodedEpoch> {
    (0..count)
        .map(|i| {
            let e = &epochs[i % epochs.len()];
            EncodedEpoch { id: EpochId::new(i as u64), ..e.clone() }
        })
        .collect()
}

/// Returns (before, after) durable-append throughput in epochs/s:
/// before syncs every epoch, after group-commits 32 frames / 2 ms.
fn bench_wal(epochs: &[EncodedEpoch], sh: &Shape) -> (f64, f64) {
    let stream = restamped(epochs, sh.wal_epochs);
    let count = stream.len() as f64;
    let run = |fsync: FsyncPolicy, tag: &str| -> f64 {
        let dir = scratch_dir(tag);
        let cfg = SegmentConfig { fsync, ..Default::default() };
        let mut store = SegmentStore::open(&dir, cfg, None).expect("open store");
        let t = Instant::now();
        for e in &stream {
            store.append(e).expect("append");
        }
        store.sync().expect("final sync");
        let rate = count / t.elapsed().as_secs_f64();
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        rate
    };
    paired(
        sh.reps,
        || run(FsyncPolicy::EveryEpoch, "wal-every"),
        || {
            run(
                FsyncPolicy::Coalesced { max_frames: 32, max_wait: Duration::from_millis(2) },
                "wal-coalesced",
            )
        },
    )
}

// ---------------------------------------------------------------- lever 4

/// Returns ((before, after) raw read throughput in MiB/s, recovery wall
/// in ms). Before reads each segment with one file-sized allocation
/// (the PR-3 shape); after streams fixed 128 KiB chunks into a reused
/// buffer. Recovery wall is a real `open` + `read_suffix` pass over the
/// same store with the current (chunked) implementation.
fn bench_recovery(epochs: &[EncodedEpoch], sh: &Shape) -> ((f64, f64), f64) {
    // One WAL on disk, written once, read many times.
    let dir = scratch_dir("recovery");
    let stream = restamped(epochs, sh.wal_epochs);
    let cfg = SegmentConfig { fsync: FsyncPolicy::Manual, ..Default::default() };
    {
        let mut store = SegmentStore::open(&dir, cfg, None).expect("open store");
        for e in &stream {
            store.append(e).expect("append");
        }
        store.sync().expect("final sync");
    }
    let files: Vec<PathBuf> = {
        let mut v: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("read dir")
            .map(|e| e.expect("dir entry").path())
            .collect();
        v.sort();
        v
    };
    let total_bytes: u64 = files.iter().map(|f| std::fs::metadata(f).expect("meta").len()).sum();
    let mib = total_bytes as f64 / (1024.0 * 1024.0);

    let raw = paired(
        sh.reps,
        || {
            let t = Instant::now();
            for f in &files {
                black_box(std::fs::read(f).expect("read file"));
            }
            mib / t.elapsed().as_secs_f64()
        },
        || {
            let mut buf = vec![0u8; 128 * 1024];
            let t = Instant::now();
            for f in &files {
                let mut file = std::fs::File::open(f).expect("open file");
                loop {
                    let n = file.read(&mut buf).expect("read chunk");
                    if n == 0 {
                        break;
                    }
                    black_box(&buf[..n]);
                }
            }
            mib / t.elapsed().as_secs_f64()
        },
    );

    let mut walls = Vec::with_capacity(sh.reps);
    for _ in 0..sh.reps {
        let t = Instant::now();
        let store = SegmentStore::open(&dir, cfg, None).expect("reopen store");
        let suffix = store.read_suffix(0).expect("read suffix");
        assert_eq!(suffix.len(), stream.len(), "recovery must see every epoch");
        black_box(&suffix);
        walls.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let _ = std::fs::remove_dir_all(&dir);
    (raw, median(&mut walls))
}

// ------------------------------------------------------------ end to end

/// Returns (dispatch_epoch median ms over the stream, full AETS replay
/// entries/s) on the current code — compare against the PR-5 numbers in
/// `results/BENCH_pipeline.json`.
fn bench_end_to_end(sh: &Shape) -> (f64, f64) {
    let w = tpcc::generate(&TpccConfig {
        num_txns: sh.dispatch_txns,
        warehouses: 4,
        ..Default::default()
    });
    let epochs: Vec<_> = batch_into_epochs(w.txns.clone(), 256)
        .expect("positive epoch size")
        .iter()
        .map(encode_epoch)
        .collect();
    let (groups, rates) = tpcc::paper_grouping();
    let grouping =
        TableGrouping::new(w.num_tables(), groups, rates, &w.analytic_tables).expect("grouping");

    let mut dispatch_ms = Vec::with_capacity(sh.reps);
    for _ in 0..sh.reps {
        let t = Instant::now();
        for e in &epochs {
            black_box(dispatch_epoch(e, &grouping).expect("dispatch"));
        }
        dispatch_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    let mut entries_per_sec = Vec::with_capacity(sh.reps);
    for _ in 0..sh.reps {
        let engine = AetsEngine::builder(grouping.clone())
            .config(AetsConfig { threads: 4, ..Default::default() })
            .build()
            .expect("valid config");
        let db = MemDb::new(w.num_tables());
        let board = VisibilityBoard::builder(engine.board_groups()).build();
        let m = engine.replay(&epochs, &db, &board).expect("replay");
        entries_per_sec.push(m.entries_per_sec());
    }
    (median(&mut dispatch_ms), median(&mut entries_per_sec))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sh = if smoke { SMOKE } else { FULL };
    println!(
        "ingest bench ({} mode): {} paired reps per lever, order alternated\n",
        if smoke { "smoke" } else { "full" },
        sh.reps
    );

    let w = tpcc::generate(&TpccConfig {
        num_txns: sh.decode_txns,
        warehouses: 4,
        ..Default::default()
    });
    let epochs: Vec<_> = batch_into_epochs(w.txns.clone(), 256)
        .expect("positive epoch size")
        .iter()
        .map(encode_epoch)
        .collect();

    let (crc_b, crc_a) = bench_crc(&sh);
    let crc_x = crc_a / crc_b;
    println!(
        "1. crc ({} KiB buf):        scalar {crc_b:>9.0} MiB/s  slice8 {crc_a:>9.0} MiB/s  ({crc_x:.2}x, target >= 4x)",
        sh.crc_buf / 1024
    );

    let (dec_b, dec_a) = bench_decode(&epochs, &sh);
    println!(
        "2. decode:                  record {dec_b:>9.0} rec/s   batch  {dec_a:>9.0} rec/s   ({:.2}x)",
        dec_a / dec_b
    );

    let (wal_b, wal_a) = bench_wal(&epochs, &sh);
    println!(
        "3. wal fsync ({} epochs):  every {wal_b:>9.0} ep/s   coalesced {wal_a:>7.0} ep/s   ({:.2}x)",
        sh.wal_epochs,
        wal_a / wal_b
    );

    let ((read_b, read_a), recovery_ms) = bench_recovery(&epochs, &sh);
    println!(
        "4. recovery reads:          whole {read_b:>9.0} MiB/s  chunked {read_a:>7.0} MiB/s  ({:.2}x); open+read_suffix {recovery_ms:.1} ms",
        read_a / read_b
    );

    let (dispatch_ms, e2e) = bench_end_to_end(&sh);
    println!(
        "e2e: dispatch_epoch stream {dispatch_ms:.2} ms median; aets replay {e2e:.0} entries/s"
    );

    if smoke {
        println!("\nsmoke mode: skipping results/BENCH_ingest.json");
        assert!(crc_x >= 1.0, "slice-by-8 must not be slower than the bytewise kernel");
        return;
    }

    if std::path::Path::new("results").is_dir() {
        let json = format!(
            "{{\n  \"experiment\": \"raw-speed ingest campaign: crc slice-by-8 + batched decode + group-commit wal + chunked recovery reads\",\n  \
             \"method\": \"paired medians: each rep measures before and after back to back with alternating order so machine drift cancels; {} reps per lever (examples/ingest_bench.rs)\",\n  \
             \"crc_slice_by_8\": {{\n    \"buf_kib\": {}, \"before_scalar_mib_per_sec\": {crc_b:.0}, \"after_slice8_mib_per_sec\": {crc_a:.0},\n    \"speedup\": {crc_x:.2}, \"target_speedup\": 4.0\n  }},\n  \
             \"batched_decode\": {{\n    \"before_per_record_recs_per_sec\": {dec_b:.0}, \"after_batched_recs_per_sec\": {dec_a:.0},\n    \"speedup\": {:.2},\n    \"note\": \"before = fresh Vec per epoch + per-record cursor snapshot CRC; after = one-pass decode_batch_into with reused scratch\"\n  }},\n  \
             \"spsc_commit_queue\": {{\n    \"note\": \"history: the lock-free per-mini-txn CommitQueue was deleted with the hand-off it served (replay crew); last recorded pair, 4 producers x 200000 items\",\n    \"before_mutexed_items_per_sec\": 3885036, \"after_spsc_items_per_sec\": 4063684, \"speedup\": 1.05\n  }},\n  \
             \"wal_group_commit\": {{\n    \"epochs\": {}, \"before_every_epoch_eps\": {wal_b:.0}, \"after_coalesced_eps\": {wal_a:.0},\n    \"speedup\": {:.2},\n    \"note\": \"coalesced = max_frames 32 / max_wait 2ms; ack is no longer durable, synced_seq bounds the loss window (DESIGN.md s11)\"\n  }},\n  \
             \"chunked_recovery_reads\": {{\n    \"before_whole_file_mib_per_sec\": {read_b:.0}, \"after_chunked_mib_per_sec\": {read_a:.0},\n    \"speedup\": {:.2},\n    \"open_read_suffix_ms\": {recovery_ms:.1},\n    \"note\": \"raw read strategies isolated (page-cache hot); open_read_suffix_ms is the real recovery pass with the chunked reader, target: no worse than the PR-3 monolithic reader\"\n  }},\n  \
             \"end_to_end\": {{\n    \"dispatch_epoch_stream_ms\": {dispatch_ms:.2}, \"aets_replay_entries_per_sec\": {e2e:.0},\n    \"note\": \"current code only; PR-5 baseline for dispatch_epoch is results/BENCH_pipeline.json (criterion replay/dispatch_epoch)\"\n  }}\n}}\n",
            sh.reps,
            sh.crc_buf / 1024,
            dec_a / dec_b,
            sh.wal_epochs,
            wal_a / wal_b,
            read_a / read_b,
        );
        std::fs::write("results/BENCH_ingest.json", json).expect("write results");
        println!("\nwrote results/BENCH_ingest.json");
    }
}
