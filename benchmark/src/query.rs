//! Issuing one analytical query through the public session API
//! (`open_session` -> `wait_admitted` -> `query`) and logging what a
//! client would see.

use crate::inputs::Query;
use crate::report::Report;
use crate::stats::us;
use crate::tracer::Tracer;
use aets_common::{Error, Timestamp};
use aets_memtable::MemDb;
use aets_replay::{eval_spec, BackupNode};
use std::time::{Duration, Instant};

/// Admission deadline of a benchmark query; hitting it is a failed op.
const ADMIT_TIMEOUT: Duration = Duration::from_secs(10);
/// Every n-th query a thread issues has its outputs compared with the
/// oracle.
const VERIFY_EVERY: u64 = 10;

/// Per-thread log of issued queries; merged when the threads join.
#[derive(Default)]
pub struct QueryLog {
    pub attempted: u64,
    /// Result returned − due time (open loop) or − send time (closed).
    /// A failed query is logged at no less than [`ADMIT_TIMEOUT`]: it
    /// misses any latency limit.
    pub latency_us: Vec<f64>,
    /// `wait_admitted` return − due time: the paper's visibility delay.
    pub vis_delay_us: Vec<f64>,
    /// The `Duration` `wait_admitted` itself reports.
    pub admission_wait_us: Vec<f64>,
    /// How late the generator issued the query.
    pub late_us: Vec<f64>,
    /// One `ReadSession::query` call, after admission.
    pub exec_us: Vec<f64>,
    /// (query `qts`, instant it was admitted), for the hot-lead metric.
    pub admitted: Vec<(Timestamp, Instant)>,
    /// Queries (not specs) that ended in a refusal or a timeout.
    pub refused: u64,
    pub timeouts: u64,
    pub mismatches: Vec<String>,
}

impl QueryLog {
    pub fn merge(&mut self, o: QueryLog) {
        self.attempted += o.attempted;
        self.latency_us.extend(o.latency_us);
        self.vis_delay_us.extend(o.vis_delay_us);
        self.admission_wait_us.extend(o.admission_wait_us);
        self.late_us.extend(o.late_us);
        self.exec_us.extend(o.exec_us);
        self.admitted.extend(o.admitted);
        self.refused += o.refused;
        self.timeouts += o.timeouts;
        self.mismatches.extend(o.mismatches);
    }

    /// Queries that returned every result.
    pub fn completed(&self) -> u64 {
        self.attempted - self.refused - self.timeouts
    }

    /// The failure ledger alone: queries attempted, refusals, timeouts
    /// and results that differ from the oracle.
    pub fn ledger(&self, r: &mut Report) {
        r.attempted += self.attempted;
        for _ in 0..self.refused {
            r.fail("query refused".into());
        }
        for _ in 0..self.timeouts {
            r.fail("query timed out".into());
        }
        for m in &self.mismatches {
            r.mismatch(m.clone());
        }
    }

    /// Folds the log into the report: the ledger, the end-to-end query
    /// latency, and the visibility/service layer numbers.
    pub fn report(&self, r: &mut Report) {
        self.ledger(r);
        r.set_pct("query_latency_p50_us", &self.latency_us, 50.0);
        r.set_pct("query_latency_p95_us", &self.latency_us, 95.0);
        r.set_pct("vis_delay_p50_us", &self.vis_delay_us, 50.0);
        r.set_pct("vis_delay_p95_us", &self.vis_delay_us, 95.0);
        r.set_pct("visibility.admission_wait_us_p50", &self.admission_wait_us, 50.0);
        r.set_pct("visibility.admission_wait_us_p95", &self.admission_wait_us, 95.0);
        r.set_pct("visibility.admission_wait_us_p99", &self.admission_wait_us, 99.0);
        self.report_service(r);
    }

    /// The `replay::service` numbers alone, for a log whose latencies are
    /// not the workload's end-to-end ones (the caught-up probes).
    pub fn report_service(&self, r: &mut Report) {
        r.set_pct("service.exec_us_p50", &self.exec_us, 50.0);
        r.set_pct("service.exec_us_p95", &self.exec_us, 95.0);
        r.set("service.refused", self.refused as f64, self.attempted as usize);
        r.set("service.timeouts", self.timeouts as f64, self.attempted as usize);
    }
}

/// Issues `q` at snapshot `qts` and logs it, timed from `due`.
pub fn run_query(
    node: &BackupNode,
    q: &Query,
    qts: Timestamp,
    due: Instant,
    oracle: &MemDb,
    tr: &Tracer,
    log: &mut QueryLog,
) {
    let verify = log.attempted.is_multiple_of(VERIFY_EVERY);
    log.attempted += 1;
    let key = q.id as u64;
    log.late_us.push(us(Instant::now().saturating_duration_since(due)));
    let root = tr.begin("query", key, 0);
    let session =
        tr.span("service.open_session", key, root.id(), || node.open_session(qts, &q.tables));
    let waited = tr
        .span("visibility.wait_admitted", key, root.id(), || session.wait_admitted(ADMIT_TIMEOUT));
    let admitted_at = Instant::now();
    let mut outcome = waited.map(|w| {
        log.admission_wait_us.push(us(w));
        log.vis_delay_us.push(us(admitted_at.saturating_duration_since(due)));
        log.admitted.push((qts, admitted_at));
    });
    let mut outputs = Vec::new();
    for spec in &q.specs {
        if outcome.is_err() {
            break;
        }
        let t0 = Instant::now();
        let out = tr.span("service.query", key, root.id(), || session.query(spec.clone()));
        let exec = us(t0.elapsed());
        outcome = out.map(|out| {
            log.exec_us.push(exec);
            if verify {
                outputs.push((spec, out));
            }
        });
    }
    drop(session);
    tr.end(root);
    let elapsed = Instant::now().saturating_duration_since(due);
    // Checked after the clock stopped: the oracle's scan is not the query's.
    for (spec, out) in outputs {
        let want = eval_spec(oracle, spec, qts);
        if out != want {
            log.mismatches.push(format!(
                "query {} table {} at {qts}: got {out:?}, oracle {want:?}",
                q.id, spec.table
            ));
        }
    }
    match outcome {
        Ok(()) => log.latency_us.push(us(elapsed)),
        Err(e) => {
            match e {
                Error::QueryTimeout => log.timeouts += 1,
                _ => log.refused += 1,
            }
            log.latency_us.push(us(elapsed.max(ADMIT_TIMEOUT)));
        }
    }
}

/// The analyst who asked when the stream was handed to the backup (afap
/// workloads): `q` at `qts` = the stream's last commit, due at `due`. It
/// waits out the catch-up on its own thread, parked, then executes.
pub fn waiting_query(
    node: &BackupNode,
    q: &Query,
    qts: Timestamp,
    due: Instant,
    oracle: &MemDb,
    tr: &Tracer,
) -> QueryLog {
    let mut log = QueryLog::default();
    run_query(node, q, qts, due, oracle, tr, &mut log);
    log
}

/// Closed-loop probe: one client issues `queries` back to back at the
/// caught-up snapshot `qts` (afap workloads, after each rep). Returns the
/// queries completed per second of the loop.
pub fn probe(
    node: &BackupNode,
    queries: &[&Query],
    qts: Timestamp,
    oracle: &MemDb,
    tr: &Tracer,
    log: &mut QueryLog,
) -> f64 {
    let before = log.completed();
    let t0 = Instant::now();
    for q in queries {
        run_query(node, q, qts, Instant::now(), oracle, tr, log);
    }
    (log.completed() - before) as f64 / t0.elapsed().as_secs_f64()
}
