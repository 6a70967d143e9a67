//! The networked durable ingest path both CH-benCHmark write workloads
//! drive: `ShipReceiver::source()` -> `ingest_epoch` ->
//! `DurableBackup::ingest`, one span per call.

use crate::inputs::Stream;
use crate::report::Report;
use crate::stats::{median, us};
use crate::tracer::Tracer;
use aets_replay::{ingest_epoch, DurableBackup, DurableOptions, IngestStats, RetryPolicy};
use aets_transport::NetEpochSource;
use std::path::Path;
use std::time::{Duration, Instant};

/// Consecutive failed fetches of one epoch before the run gives up.
const MAX_FETCH_ROUNDS: u32 = 200;

pub fn open_node(s: &Stream, dir: &Path) -> DurableBackup {
    DurableBackup::open(
        dir.join("wal"),
        dir.join("ckpt"),
        s.engine(),
        s.num_tables,
        DurableOptions::default(),
        None,
    )
    .expect("open durable backup")
}

/// What the ingest loop saw, one entry per epoch.
#[derive(Default)]
pub struct IngestLog {
    /// Duration of each `DurableBackup::ingest` call.
    pub ingest_us: Vec<f64>,
    /// Whether `last_checkpoint_seq()` advanced during the call.
    pub cut_checkpoint: Vec<bool>,
    /// When each `ingest` call returned: the epoch is globally visible.
    pub visible_at: Vec<Instant>,
    /// Total time inside `ingest_epoch` (waiting for the network).
    pub fetch_wait: Duration,
    pub errors: Vec<String>,
}

impl IngestLog {
    /// Fetches epoch `seq` from the network source and ingests it.
    /// Returns `false` when the epoch could not be had (logged).
    pub fn ingest_one(
        &mut self,
        node: &mut DurableBackup,
        source: &mut NetEpochSource,
        seq: u64,
        tr: &Tracer,
    ) -> bool {
        let root = tr.begin("epoch", seq, 0);
        let retry = RetryPolicy::default();
        let mut stats = IngestStats::default();
        let t0 = Instant::now();
        let mut rounds = 0;
        // A stalled fetch is the shipper not having sent yet: keep pulling.
        let epoch = loop {
            match tr.span("transport.fetch", seq, root.id(), || {
                ingest_epoch(source, seq, &retry, &mut stats)
            }) {
                Ok(e) => break e,
                Err(e) => {
                    rounds += 1;
                    if rounds >= MAX_FETCH_ROUNDS {
                        self.errors.push(format!("epoch {seq} never arrived: {e}"));
                        return false;
                    }
                }
            }
        };
        self.fetch_wait += t0.elapsed();
        let before = node.last_checkpoint_seq();
        let t1 = Instant::now();
        let out = tr.span("durable.ingest", seq, root.id(), || node.ingest(&epoch));
        let now = Instant::now();
        tr.end(root);
        if let Err(e) = out {
            self.errors.push(format!("ingest of epoch {seq}: {e}"));
            return false;
        }
        self.ingest_us.push(us(now - t1));
        self.cut_checkpoint.push(node.last_checkpoint_seq() != before);
        self.visible_at.push(now);
        true
    }

    /// Checkpoint stalls: an `ingest` that cut a checkpoint, minus the
    /// median `ingest` that did not.
    pub fn stalls_us(&self) -> Vec<f64> {
        let plain: Vec<f64> = self
            .ingest_us
            .iter()
            .zip(&self.cut_checkpoint)
            .filter(|(_, c)| !**c)
            .map(|(d, _)| *d)
            .collect();
        let base = median(&plain);
        self.ingest_us
            .iter()
            .zip(&self.cut_checkpoint)
            .filter(|(_, c)| **c)
            .map(|(d, _)| (d - base).max(0.0))
            .collect()
    }

    pub fn total_ingest_us(&self) -> f64 {
        self.ingest_us.iter().sum()
    }

    /// Closes the accounting of this log's `ingest` wall against the WAL
    /// and engine drills (per-epoch µs over the same epochs) and the
    /// checkpoint stalls. What they do not explain is reported as its own
    /// line, never hidden.
    pub fn report_attribution(&self, append_us: &[f64], replay_us: &[f64], r: &mut Report) {
        let total = self.total_ingest_us();
        let append: f64 = append_us.iter().sum();
        let explained =
            append + replay_us.iter().sum::<f64>() + self.stalls_us().iter().sum::<f64>();
        r.set("wal.append_share", append / total, append_us.len());
        r.set("durable.unattributed_share", (total - explained) / total, self.ingest_us.len());
    }

    /// The failure ledger alone: epochs attempted, errors as failed ops.
    pub fn ledger(&self, r: &mut Report) {
        r.attempted += self.ingest_us.len() as u64;
        for e in &self.errors {
            r.attempted += 1;
            r.fail(e.clone());
        }
    }

    /// The ledger, then the `replay::recovery` and `replay::checkpoint`
    /// layer numbers over a window of `wall`.
    pub fn report(&self, wall: Duration, r: &mut Report) {
        self.ledger(r);
        let total = self.total_ingest_us();
        r.set_pct("durable.ingest_us_p50", &self.ingest_us, 50.0);
        r.set_pct("durable.ingest_us_p95", &self.ingest_us, 95.0);
        r.set_pct("durable.ingest_us_max", &self.ingest_us, 100.0);
        let stalls = self.stalls_us();
        let stalls_ms: Vec<f64> = stalls.iter().map(|s| s / 1e3).collect();
        r.set_pct("checkpoint.stall_ms_p50", &stalls_ms, 50.0);
        r.set_pct("checkpoint.stall_ms_max", &stalls_ms, 100.0);
        r.set("checkpoint.count", stalls.len() as f64, self.ingest_us.len());
        r.set("checkpoint.share", stalls.iter().sum::<f64>() / total, stalls.len());
        r.set("transport.fetch_wait_share", us(self.fetch_wait) / us(wall), self.ingest_us.len());
        r.set("ingest.busy_share", total / us(wall), self.ingest_us.len());
    }
}
