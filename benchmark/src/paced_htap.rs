//! `paced_htap_chbench`: open loop on both sides over the full networked
//! durable path. Epochs are released on `ReplicationTimeline::arrivals`
//! at a fixed 2 500 txn/s — one `ship_epochs(&epochs[k..=k])` call per
//! epoch at its due time, the only public way to pace the shipper — while
//! the workload's Poisson CH query stream (22 classes, 50 q/s) is issued
//! from a pool of waiter threads that sleep until each query's due time.
//! Every sample is timed from its *due* time, never from when the
//! generator got round to it.
//!
//! The only workload where reads and writes share the node: freshness and
//! visibility delay under real pacing, the checkpoint stall in the tail,
//! and any ingest gain bought at the readers' expense (or the reverse).

use crate::durable::{open_node, IngestLog};
use crate::inputs::{self, Query, Stream};
use crate::query::{run_query, QueryLog};
use crate::stats::{percentile, us};
use crate::{drill, Args, Ctx, Workload};
use aets_common::Timestamp;
use aets_replay::NodeOptions;
use aets_telemetry::Telemetry;
use aets_transport::{ship_epochs, ReceiverConfig, ShipReceiver, ShipperConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fixed offered log rate: well under the durable path's capacity on a
/// two-core sandbox, so the backlog stays flat and no operation fails.
const TXN_PER_S: f64 = 2_500.0;
const QUERY_PER_S: f64 = 50.0;
/// Waiter threads: twice the parked admission waits of the longest
/// checkpoint stall measured (1.2 s x 50 q/s = 60), so a stall never makes
/// the next query start late. The issue's 16 would run dry 0.3 s into one.
/// Sleeping and parked threads are not runnable, so the generator stays
/// within `nproc` runnable threads.
const WAITERS: usize = 128;
/// Backlog growth (epochs due but not ingested: lowest level of the
/// window's last quarter vs its second) beyond this counts as a failed
/// op: the rate is not sustained.
const BACKLOG_SLACK: i64 = 4;

pub struct PacedHtap;

fn sleep_until(t: Instant) {
    if let Some(d) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(d);
    }
}

impl Workload for PacedHtap {
    type Setup = Stream;

    fn setup(args: &Args) -> Stream {
        let txns = (TXN_PER_S * args.seconds) as usize;
        inputs::chbench(args.seed, txns, TXN_PER_S, QUERY_PER_S)
    }

    fn run(s: Stream, ctx: &mut Ctx) {
        let tr = &ctx.tracer;
        let trace = ctx.args.trace;
        let dir = ctx.scratch.join("paced");
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let tel = Arc::new(Telemetry::disabled());
        let mut receiver =
            ShipReceiver::bind("127.0.0.1:0", ReceiverConfig::default(), tel.clone())
                .expect("bind receiver");
        let addr = receiver.addr();
        let mut source = receiver.source();
        let mut node = open_node(&s, &dir);
        let serving = node.serve(NodeOptions::default()).expect("serve");
        let n = s.epochs.len();

        // The pacing clock: primary time 0 is `start`; commit timestamps
        // were generated at the offered rate, so they map 1:1 onto it.
        let start = Instant::now() + Duration::from_millis(50);
        let at = |ts: Timestamp| start + Duration::from_micros(ts.as_micros());
        let horizon = Duration::from_micros(s.last_ts.as_micros());

        let mut log = IngestLog::default();
        // (ingest completion, epochs due by then − epochs ingested).
        let mut backlog: Vec<(Instant, i64)> = Vec::with_capacity(n);
        let next_query = AtomicUsize::new(0);
        let (ship_log, queries) = std::thread::scope(|scope| {
            let shipper = scope.spawn(|| {
                let mut session_us = Vec::with_capacity(n);
                let mut late_us = Vec::with_capacity(n);
                let mut errors = Vec::new();
                for k in 0..n {
                    let due = at(s.arrivals[k]);
                    sleep_until(due);
                    let t0 = Instant::now();
                    late_us.push(us(t0.saturating_duration_since(due)));
                    let out = tr.span("transport.ship_epochs", k as u64, 0, || {
                        ship_epochs(addr, &s.epochs[k..=k], &ShipperConfig::default(), &tel)
                    });
                    session_us.push(us(t0.elapsed()));
                    if let Err(e) = out {
                        errors.push(format!("ship epoch {k}: {e}"));
                    }
                }
                (session_us, late_us, errors)
            });
            let waiters: Vec<_> = (0..WAITERS.min(s.queries.len().max(1)))
                .map(|_| {
                    scope.spawn(|| {
                        let mut qlog = QueryLog::default();
                        loop {
                            let i = next_query.fetch_add(1, Ordering::Relaxed);
                            let Some(q) = s.queries.get(i) else { break };
                            let due = at(q.qts);
                            sleep_until(due);
                            run_query(&serving, q, q.qts, due, &s.oracle, tr, &mut qlog);
                        }
                        qlog
                    })
                })
                .collect();

            for seq in 0..n as u64 {
                if !log.ingest_one(&mut node, &mut source, seq, tr) {
                    break;
                }
                let now = Instant::now();
                let due = s.arrivals.partition_point(|a| at(*a) <= now) as i64;
                backlog.push((now, due - (seq as i64 + 1)));
            }

            let mut queries = QueryLog::default();
            for w in waiters {
                queries.merge(w.join().expect("waiter thread"));
            }
            (shipper.join().expect("shipper thread"), queries)
        });
        let wall = start.elapsed();
        let mut service = drill::ServiceDrill::default();
        if trace {
            let sample: Vec<&Query> = s.queries.iter().take(256).collect();
            service.run(&serving, &sample, s.last_ts, tr);
        }
        drop(serving);
        receiver.shutdown();
        let (session_us, ship_late_us, ship_errors) = ship_log;
        log.errors.extend(ship_errors);

        let r = &mut ctx.report;
        r.reps_kept = 1;
        r.attempted += 1;
        if node.db().digest_at(Timestamp::MAX) != s.digest {
            r.mismatch("backup digest != serial oracle".into());
        }

        // Sustained rate: the offered rate as long as the backup keeps up.
        if let Some(last) = log.visible_at.last() {
            r.set("replay_txn_per_s", s.txns as f64 / (*last - start).as_secs_f64(), n);
        }
        // Visible − the epoch's last commit on the primary (the schedule,
        // not when the shipper actually sent).
        let fresh: Vec<f64> = log
            .visible_at
            .iter()
            .zip(&s.epochs)
            .map(|(v, e)| us(v.saturating_duration_since(at(e.max_commit_ts))))
            .collect();
        r.set_pct("freshness_p50_us", &fresh, 50.0);
        r.set_pct("freshness_p95_us", &fresh, 95.0);
        log.report(wall, r);
        queries.report(r);
        r.set("query_per_s", queries.completed() as f64 / wall.as_secs_f64(), s.queries.len());
        // How long before its covering epoch was globally visible a query
        // was admitted: the two-stage / per-group commit benefit. Every
        // CH-benCHmark footprint is all-hot.
        let lead: Vec<f64> = queries
            .admitted
            .iter()
            .filter_map(|(qts, admitted)| {
                let visible = *log.visible_at.get(s.epoch_covering(*qts))?;
                Some(us(visible.saturating_duration_since(*admitted)))
            })
            .collect();
        r.set_pct("visibility.hot_lead_us_p50", &lead, 50.0);
        r.set_pct("transport.session_us_p50", &session_us, 50.0);
        r.set(
            "checkpoint.bytes_per_log_byte",
            drill::dir_bytes(&dir.join("ckpt")) as f64 / s.log_bytes as f64,
            1,
        );

        // Open-loop hygiene.
        let late_p95 = percentile(&queries.late_us, 95.0);
        r.set("gen.late_us_p95", late_p95, queries.late_us.len());
        // The shipper is one blocking session at a time: while the backup
        // stalls it cannot send, which freshness (timed from the schedule)
        // already pays for — reported, but not held against the generator.
        r.note(format!(
            "shipper sent p50 {:.0} / p95 {:.0} us after the epoch was due",
            percentile(&ship_late_us, 50.0),
            percentile(&ship_late_us, 95.0)
        ));
        r.set("gen.offered_txn_per_s", s.txns as f64 / horizon.as_secs_f64(), s.txns);
        r.set(
            "gen.offered_q_per_s",
            s.queries.len() as f64 / horizon.as_secs_f64(),
            s.queries.len(),
        );
        // A queue that keeps up drains between checkpoint stalls, so its
        // lowest level over a stretch of the window is what can grow.
        let backlog_low = |from: f64, to: f64| {
            let (a, b) = (start + horizon.mul_f64(from), start + horizon.mul_f64(to));
            backlog.iter().filter(|(when, _)| (a..b).contains(when)).map(|b| b.1).min().unwrap_or(0)
        };
        let (mid, end) = (backlog_low(0.25, 0.5), backlog_low(0.75, 1.0));
        r.set("gen.backlog_mid_epochs", mid as f64, 1);
        r.set("gen.backlog_end_epochs", end as f64, 1);
        if end - mid > BACKLOG_SLACK {
            r.fail(format!("backlog still growing at window end: {mid} -> {end} epochs"));
        }
        let vis_p50 = percentile(&queries.vis_delay_us, 50.0);
        let valid = late_p95 <= 0.05 * vis_p50;
        r.set("bench.valid", f64::from(u8::from(valid)), 1);
        if !valid {
            r.note(format!("generator ran late (p95 {late_p95:.0} us): samples are suspect"));
        }
        r.set("bench.reps", 1.0, 1);

        if trace {
            service.report(r);
            drill::transport(&s, tr, r);
            let append_us = drill::wal(&s, &ctx.scratch.join("drill_wal"), tr, r);
            drill::dispatch(&s, &s.epochs, tr, r);
            let eng = drill::engine(&s, &s.epochs, tr, r);
            drill::engine_shares(&eng.metrics, r);
            drill::memtable(&eng.db, true, tr, r);
            log.report_attribution(&append_us, &eng.per_epoch_us, r);
        }
        drop(node);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
