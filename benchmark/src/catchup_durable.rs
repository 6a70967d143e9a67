//! `catchup_durable_chbench`: as-fast-as-possible, write-only. One
//! `ship_epochs` call ships a CH-benCHmark stream over loopback TCP into
//! a `DurableBackup` on fresh directories, with one query waiting for the
//! stream's last commit; each rep ends with a probe of the caught-up
//! state and a clean drop-and-reopen.
//!
//! Transport, WAL fsync and checkpointing do most of the work here and
//! nothing on `catchup_engine_bustracker`.

use crate::durable::{open_node, IngestLog};
use crate::inputs::{self, Query, Stream};
use crate::query::{probe, waiting_query, QueryLog};
use crate::stats::spread_pct;
use crate::{drill, Args, Ctx, Reps, Workload};
use aets_common::Timestamp;
use aets_replay::NodeOptions;
use aets_telemetry::Telemetry;
use aets_transport::{ship_epochs, ReceiverConfig, ShipReceiver, ShipperConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stream length: 118 epochs, so every rep cuts three checkpoints (epochs
/// 32, 64, 96) and the reopen replays a 22-epoch suffix. A rep (catch-up,
/// digest, probe, reopen) takes three to four seconds, so six or seven fit
/// in a run: the issue's 60 000 (9 s a rep) would leave a median of two.
const TXNS: usize = 30_000;
/// Enough for the service layer's numbers; the time goes to the reps.
const PROBES_PER_REP: usize = 32;
/// One discarded rep and two kept ones.
const MIN_REPS: usize = 3;

pub struct CatchupDurable;

struct Rep {
    txn_per_s: f64,
    wall: Duration,
    log: IngestLog,
    /// The one query that waited out the catch-up.
    waiting: QueryLog,
    /// The closed-loop probes of the caught-up state.
    queries: QueryLog,
    query_per_s: f64,
    recovery_s: f64,
    suffix_epochs: u64,
    ckpt_bytes: u64,
}

impl Workload for CatchupDurable {
    type Setup = Stream;

    fn setup(args: &Args) -> Stream {
        inputs::chbench(args.seed, args.scaled(TXNS), 10_000.0, 100.0)
    }

    fn run(s: Stream, ctx: &mut Ctx) {
        let mut kept: Vec<Rep> = Vec::new();
        let mut service = drill::ServiceDrill::default();
        for rep in Reps::new(ctx.args.seconds, MIN_REPS) {
            let probes = s.probes_for(rep, PROBES_PER_REP);
            let r = one_rep(&s, ctx, rep, &probes, &mut service);
            // Rep 0 pays page faults and cold caches: its failures count,
            // its timings do not. Its fresh heap is where the memory
            // high-water mark is independent of how many reps follow.
            if rep == 0 {
                ctx.report.set("peak_rss_mib", crate::report::peak_rss_mib(), 1);
                r.log.ledger(&mut ctx.report);
                r.waiting.ledger(&mut ctx.report);
                r.queries.ledger(&mut ctx.report);
            } else {
                kept.push(r);
            }
        }

        let r = &mut ctx.report;
        r.reps_kept = kept.len();
        r.reps_discarded = 1;
        let tps: Vec<f64> = kept.iter().map(|k| k.txn_per_s).collect();
        r.set_median("replay_txn_per_s", &tps);
        r.set("bench.reps", kept.len() as f64, kept.len());
        r.set("bench.rep_spread_pct", spread_pct(&tps), kept.len());
        r.set("bench.valid", 1.0, 1);
        let recov: Vec<f64> = kept.iter().map(|k| k.recovery_s).collect();
        r.set_median("recovery_s", &recov);
        let qps: Vec<f64> = kept.iter().map(|k| k.query_per_s).collect();
        r.set_median("query_per_s", &qps);

        let mut pooled = IngestLog::default();
        let mut waiting = QueryLog::default();
        let mut queries = QueryLog::default();
        let mut wall = Duration::ZERO;
        let mut last = None;
        for k in kept {
            pooled.ingest_us.extend(&k.log.ingest_us);
            pooled.cut_checkpoint.extend(&k.log.cut_checkpoint);
            pooled.fetch_wait += k.log.fetch_wait;
            pooled.errors.extend(k.log.errors.iter().cloned());
            wall += k.wall;
            last = Some((k.log, k.suffix_epochs, k.ckpt_bytes));
            waiting.merge(k.waiting);
            queries.merge(k.queries);
        }
        // The whole stream was committed long before the run, so the clock
        // of an epoch starts when the backup has it in hand; the wait in
        // the backlog before that is what `replay_txn_per_s` measures.
        r.set_pct("freshness_p50_us", &pooled.ingest_us, 50.0);
        r.set_pct("freshness_p95_us", &pooled.ingest_us, 95.0);
        pooled.report(wall, r);
        // End to end, the analyst who asked when the stream was handed
        // over and waited out the catch-up; the probes of the caught-up
        // state are the service layer's numbers.
        waiting.report(r);
        queries.ledger(r);
        queries.report_service(r);

        let (last_log, suffix_epochs, ckpt_bytes) = last.expect("at least two kept reps");
        r.set("recovery.suffix_epochs", suffix_epochs as f64, 1);
        r.set("checkpoint.bytes_per_log_byte", ckpt_bytes as f64 / s.log_bytes as f64, 1);
        r.note(format!("rep txn/s: {tps:.0?}"));

        if ctx.args.trace {
            service.report(r);
            drill::transport(&s, &ctx.tracer, r);
            let append_us = drill::wal(&s, &ctx.scratch.join("drill_wal"), &ctx.tracer, r);
            drill::dispatch(&s, &s.epochs, &ctx.tracer, r);
            let eng = drill::engine(&s, &s.epochs, &ctx.tracer, r);
            drill::engine_shares(&eng.metrics, r);
            drill::memtable(&eng.db, true, &ctx.tracer, r);
            last_log.report_attribution(&append_us, &eng.per_epoch_us, r);
        }
    }
}

fn one_rep(
    s: &Stream,
    ctx: &mut Ctx,
    rep: usize,
    probes: &[&Query],
    service: &mut drill::ServiceDrill,
) -> Rep {
    let tr = &ctx.tracer;
    let dir = ctx.scratch.join(format!("rep{rep}"));
    std::fs::create_dir_all(&dir).expect("create rep dir");
    let tel = Arc::new(Telemetry::disabled());
    let mut receiver = ShipReceiver::bind("127.0.0.1:0", ReceiverConfig::default(), tel.clone())
        .expect("bind receiver");
    let addr = receiver.addr();
    let mut source = receiver.source();
    let mut node = open_node(s, &dir);
    let serving = node.serve(NodeOptions::default()).expect("serve");
    let mut log = IngestLog::default();

    let t0 = Instant::now();
    let (shipped, waiting, caught_up, wall) = std::thread::scope(|scope| {
        let shipper = scope.spawn(|| {
            tr.span("transport.ship_epochs", 0, 0, || {
                ship_epochs(addr, &s.epochs, &ShipperConfig::default(), &tel)
            })
        });
        let waiter =
            scope.spawn(|| waiting_query(&serving, probes[0], s.last_ts, t0, &s.oracle, tr));
        for seq in 0..s.epochs.len() as u64 {
            if !log.ingest_one(&mut node, &mut source, seq, tr) {
                break;
            }
        }
        let caught_up = node.board().global_cmt_ts() >= s.last_ts;
        let wall = t0.elapsed();
        let shipped = shipper.join().expect("shipper thread");
        (shipped, waiter.join().expect("waiter thread"), caught_up, wall)
    });
    receiver.shutdown();
    if let Err(e) = shipped {
        log.errors.push(format!("ship_epochs: {e}"));
    }
    if !caught_up {
        log.errors.push("global_cmt_ts never reached the last commit".into());
    }
    let r = &mut ctx.report;
    r.attempted += 2;
    if node.db().digest_at(Timestamp::MAX) != s.digest {
        r.mismatch(format!("rep {rep}: backup digest != serial oracle"));
    }

    // The caught-up state, queried the way an analyst would.
    let mut queries = QueryLog::default();
    let query_per_s = probe(&serving, probes, s.last_ts, &s.oracle, tr, &mut queries);
    // The drill needs a caught-up node, not a timed one: rep 0's.
    if ctx.args.trace && rep == 0 {
        service.run(&serving, probes, s.last_ts, tr);
    }
    drop(serving);
    let ckpt_bytes = drill::dir_bytes(&dir.join("ckpt"));

    // Clean restart: checkpoint load + WAL-suffix replay.
    drop(node);
    let t1 = Instant::now();
    let reopened = tr.span("durable.open", rep as u64, 0, || open_node(s, &dir));
    let recovery_s = t1.elapsed().as_secs_f64();
    if reopened.db().digest_at(Timestamp::MAX) != s.digest {
        r.mismatch(format!("rep {rep}: recovered digest != serial oracle"));
    }
    let suffix_epochs = reopened.recovery().suffix_epochs;
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);

    Rep {
        txn_per_s: s.txns as f64 / wall.as_secs_f64(),
        wall,
        log,
        waiting,
        queries,
        query_per_s,
        recovery_s,
        suffix_epochs,
        ckpt_bytes,
    }
}
