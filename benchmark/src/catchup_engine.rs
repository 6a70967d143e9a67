//! `catchup_engine_bustracker`: as-fast-as-possible, write-only,
//! in-memory. One `BackupNode::replay` call over a whole BusTracker
//! stream on a fresh `MemDb` per rep, with one query waiting for the
//! stream's last commit, then a probe of the caught-up state.
//!
//! Dispatch, translate and commit do all the work; transport and WAL do
//! none. BusTracker varies what CH-benCHmark holds fixed: 65 tables in 5
//! DBSCAN groups, 37 % hot entries, 5 000-row tables with long chains.

use crate::inputs::{self, Stream};
use crate::query::{probe, waiting_query, QueryLog};
use crate::stats::{median, spread_pct, us};
use crate::{drill, Args, Ctx, Reps, Workload};
use aets_common::Timestamp;
use aets_replay::{BackupNode, NodeOptions};
use std::sync::Arc;
use std::time::Instant;

/// Half the issue's 300 000: a rep (replay, digest, probe, drop) takes
/// a little over two seconds, so ten fit in a run.
const TXNS: usize = 150_000;
/// Enough for the service layer's numbers; the time goes to the reps.
const PROBES_PER_REP: usize = 4;
/// One discarded rep and two kept ones.
const MIN_REPS: usize = 3;

pub struct CatchupEngine;

fn fresh_node(s: &Stream) -> BackupNode {
    BackupNode::builder()
        .engine(Arc::new(s.engine()))
        .num_tables(s.num_tables)
        .options(NodeOptions::default())
        .build()
        .expect("node config")
}

impl Workload for CatchupEngine {
    type Setup = Stream;

    fn setup(args: &Args) -> Stream {
        inputs::bustracker(args.seed, args.scaled(TXNS))
    }

    fn run(s: Stream, ctx: &mut Ctx) {
        let mut tps = Vec::new();
        let mut replay_us = Vec::new();
        let mut qps = Vec::new();
        let mut waiting = QueryLog::default();
        let mut probed = QueryLog::default();
        let mut service = drill::ServiceDrill::default();
        let mut shares = None;
        for rep in Reps::new(ctx.args.seconds, MIN_REPS) {
            let tr = &ctx.tracer;
            let node = fresh_node(&s);
            let probes = s.probes_for(rep, PROBES_PER_REP);
            ctx.report.attempted += s.epochs.len() as u64 + 1;
            let t0 = Instant::now();
            let (wall, waited) = std::thread::scope(|scope| {
                let waiter =
                    scope.spawn(|| waiting_query(&node, probes[0], s.last_ts, t0, &s.oracle, tr));
                match tr.span("engine.replay", rep as u64, 0, || node.replay(&s.epochs)) {
                    Ok(m) => shares = Some(m),
                    Err(e) => ctx.report.fail(format!("rep {rep}: replay: {e}")),
                }
                if node.board().global_cmt_ts() < s.last_ts {
                    ctx.report.fail(format!("rep {rep}: global_cmt_ts short of the last commit"));
                }
                (t0.elapsed(), waiter.join().expect("waiter thread"))
            });
            if node.db().digest_at(Timestamp::MAX) != s.digest {
                ctx.report.mismatch(format!("rep {rep}: backup digest != serial oracle"));
            }
            let mut qlog = QueryLog::default();
            let per_s = probe(&node, &probes, s.last_ts, &s.oracle, tr, &mut qlog);
            // The drill needs a caught-up node, not a timed one: rep 0's.
            if ctx.args.trace && rep == 0 {
                service.run(&node, &probes, s.last_ts, tr);
            }
            // Rep 0 pays page faults and cold caches: its failures count,
            // its timings do not. Its fresh heap is where the memory
            // high-water mark is independent of how many reps follow.
            if rep == 0 {
                ctx.report.set("peak_rss_mib", crate::report::peak_rss_mib(), 1);
                waited.ledger(&mut ctx.report);
                qlog.ledger(&mut ctx.report);
            } else {
                tps.push(s.txns as f64 / wall.as_secs_f64());
                replay_us.push(us(wall));
                qps.push(per_s);
                waiting.merge(waited);
                probed.merge(qlog);
            }
        }

        let r = &mut ctx.report;
        r.reps_kept = tps.len();
        r.reps_discarded = 1;
        r.set_median("replay_txn_per_s", &tps);
        // The stream was committed on the primary before the call, and a
        // caller sees its epochs once the one `replay` call returns: every
        // epoch is as stale as that call is long.
        r.set_pct("freshness_p50_us", &replay_us, 50.0);
        r.set_pct("freshness_p95_us", &replay_us, 95.0);
        r.set_median("query_per_s", &qps);
        // End to end, the analyst who asked when the stream was handed
        // over and waited out the catch-up; the probes of the caught-up
        // state are the service layer's numbers.
        waiting.report(r);
        probed.ledger(r);
        probed.report_service(r);
        r.set("bench.reps", tps.len() as f64, tps.len());
        r.set("bench.rep_spread_pct", spread_pct(&tps), tps.len());
        r.set("bench.valid", 1.0, 1);
        r.note(format!("rep txn/s: {tps:.0?}"));

        if ctx.args.trace {
            service.report(r);
            drill::dispatch(&s, &s.epochs, &ctx.tracer, r);
            let eng = drill::engine(&s, &s.epochs, &ctx.tracer, r);
            // Shares come from the whole-stream run itself, not the drill.
            drill::engine_shares(shares.as_ref().unwrap_or(&eng.metrics), r);
            drill::memtable(&eng.db, true, &ctx.tracer, r);
        }
        // Set last: the whole-stream reps, not the drill's one call per
        // epoch, are this workload's engine throughput.
        r.set("engine.serial_txn_per_s", s.serial_txn_per_s, s.txns);
        r.set("engine.speedup_vs_serial", median(&tps) / s.serial_txn_per_s, tps.len());
    }
}
