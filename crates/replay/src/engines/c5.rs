//! The C5 baseline (Helt et al., VLDB'22): row-based dispatch with full
//! data-image parsing, per-row dedicated queues, and a periodic snapshot
//! publisher.
//!
//! The dispatcher decodes *entire* records (the extra parsing cost the
//! paper measures against ATR/AETS) and routes every row's modifications,
//! in transaction order, to the worker that owns the row (hash
//! partition). A worker applies its queue sequentially, so per-row order
//! is free. A single commit thread periodically (5 ms in the paper)
//! publishes the snapshot timestamp up to which every queue has been
//! drained, which is what readers see.

use crate::engines::{apply_entry, ReplayEngine};
use crate::metrics::ReplayMetrics;
use crate::visibility::VisibilityBoard;
use aets_common::{Error, GroupId, Result, TableId, Timestamp};
use aets_memtable::MemDb;
use aets_wal::{decode_record, DmlEntry, EncodedEpoch, LogRecord};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One dispatched unit: a decoded entry plus the commit timestamp and
/// global sequence number of its owning transaction.
#[derive(Debug)]
struct RowTask {
    entry: DmlEntry,
    commit_ts: Timestamp,
    txn_seq: usize,
}

/// The C5 replay engine.
#[derive(Debug)]
pub struct C5Engine {
    threads: usize,
    /// Snapshot publication period (paper: 5 ms).
    pub snapshot_interval: Duration,
}

impl C5Engine {
    /// Creates a C5 engine with `threads` queue workers.
    pub fn new(threads: usize) -> Result<Self> {
        if threads == 0 {
            return Err(Error::Config("threads must be positive".into()));
        }
        Ok(Self { threads, snapshot_interval: Duration::from_millis(5) })
    }

    fn route(&self, table: TableId, key: aets_common::RowKey) -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = aets_common::FxHasher::default();
        (table, key).hash(&mut h);
        h.finish() as usize % self.threads
    }
}

impl ReplayEngine for C5Engine {
    fn name(&self) -> &'static str {
        "c5"
    }

    fn board_groups(&self) -> usize {
        1
    }

    fn replay(
        &self,
        epochs: &[EncodedEpoch],
        db: &MemDb,
        board: &VisibilityBoard,
    ) -> Result<ReplayMetrics> {
        let start = Instant::now();
        let mut m = ReplayMetrics { engine: self.name(), ..Default::default() };
        let replay_busy = AtomicU64::new(0);
        let commit_busy = AtomicU64::new(0);

        for epoch in epochs {
            // Row-based dispatch: full decode of every record (C5's higher
            // parsing cost lives here, on the single dispatcher thread).
            let t_dispatch = Instant::now();
            let mut queues: Vec<Vec<RowTask>> = (0..self.threads).map(|_| Vec::new()).collect();
            let mut commit_ts_by_seq: Vec<Timestamp> = Vec::new();
            let (buf, mut pos) = (&epoch.bytes, 0);
            let mut open: Vec<DmlEntry> = Vec::new();
            let mut txn_open = false;
            let mut entries = 0usize;
            while pos < buf.len() {
                match decode_record(buf, &mut pos)? {
                    LogRecord::Begin { .. } => {
                        if txn_open {
                            return Err(Error::Protocol("nested BEGIN".into()));
                        }
                        txn_open = true;
                        open.clear();
                    }
                    LogRecord::Dml(d) => {
                        if !txn_open {
                            return Err(Error::Protocol("DML outside txn".into()));
                        }
                        open.push(d);
                    }
                    LogRecord::Commit { ts, .. } => {
                        if !txn_open {
                            return Err(Error::Protocol("COMMIT without BEGIN".into()));
                        }
                        let seq = commit_ts_by_seq.len();
                        for d in open.drain(..) {
                            let w = self.route(d.table, d.key);
                            entries += 1;
                            queues[w].push(RowTask { entry: d, commit_ts: ts, txn_seq: seq });
                        }
                        commit_ts_by_seq.push(ts);
                        txn_open = false;
                    }
                }
            }
            if txn_open {
                return Err(Error::Protocol("transaction never committed".into()));
            }
            m.dispatch_busy += t_dispatch.elapsed();

            // Per-worker frontier: the txn seq of its next pending task
            // (usize::MAX when drained). All tasks of txns < min frontier
            // are applied.
            let frontiers: Vec<AtomicUsize> =
                (0..self.threads).map(|_| AtomicUsize::new(0)).collect();
            let total_txns = commit_ts_by_seq.len();

            std::thread::scope(|scope| {
                for (wid, queue) in queues.iter().enumerate() {
                    let frontiers = &frontiers;
                    let replay_busy = &replay_busy;
                    scope.spawn(move || {
                        let t0 = Instant::now();
                        for task in queue {
                            frontiers[wid].store(task.txn_seq, Ordering::Release);
                            apply_entry(db, &task.entry, task.commit_ts);
                        }
                        frontiers[wid].store(usize::MAX, Ordering::Release);
                        replay_busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    });
                }
                // Snapshot publisher: runs until every queue is drained.
                let frontiers = &frontiers;
                let commit_busy = &commit_busy;
                let commit_ts_by_seq = &commit_ts_by_seq;
                let interval = self.snapshot_interval;
                scope.spawn(move || {
                    let t0 = Instant::now();
                    loop {
                        let min_frontier = frontiers
                            .iter()
                            .map(|f| f.load(Ordering::Acquire))
                            .min()
                            .unwrap_or(usize::MAX);
                        if min_frontier > 0 {
                            let upto = min_frontier.min(total_txns);
                            if upto > 0 {
                                board.publish_group(GroupId::new(0), commit_ts_by_seq[upto - 1]);
                            }
                        }
                        if min_frontier == usize::MAX {
                            break;
                        }
                        std::thread::sleep(interval);
                    }
                    commit_busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                });
            });

            board.publish_group(GroupId::new(0), epoch.max_commit_ts);
            board.publish_global(epoch.max_commit_ts);
            m.txns += total_txns;
            m.entries += entries;
            m.bytes += epoch.bytes.len() as u64;
            m.epochs += 1;
        }

        m.replay_busy = std::time::Duration::from_nanos(replay_busy.load(Ordering::Relaxed));
        m.commit_busy = std::time::Duration::from_nanos(commit_busy.load(Ordering::Relaxed));
        m.wall = start.elapsed();
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::serial::SerialEngine;
    use aets_workloads::tpcc::{self, TpccConfig};

    fn encode(txns: Vec<aets_wal::TxnLog>, sz: usize) -> Vec<EncodedEpoch> {
        aets_wal::batch_into_epochs(txns, sz).unwrap().iter().map(aets_wal::encode_epoch).collect()
    }

    #[test]
    fn c5_matches_serial_oracle() {
        let w = tpcc::generate(&TpccConfig { num_txns: 800, warehouses: 2, ..Default::default() });
        let epochs = encode(w.txns.clone(), 128);
        let db_serial = MemDb::new(w.table_names.len());
        SerialEngine.replay_all(&epochs, &db_serial).unwrap();

        let db = MemDb::new(w.table_names.len());
        let m = C5Engine::new(4).unwrap().replay_all(&epochs, &db).unwrap();
        assert_eq!(m.txns, w.txns.len());
        assert!(db.all_chains_ordered(), "per-row queues must preserve order");
        assert_eq!(db.digest_at(Timestamp::MAX), db_serial.digest_at(Timestamp::MAX));
        let mid = w.txns[w.txns.len() / 2].commit_ts;
        assert_eq!(db.digest_at(mid), db_serial.digest_at(mid));
    }

    #[test]
    fn c5_final_visibility_reaches_last_commit() {
        let w = tpcc::generate(&TpccConfig { num_txns: 300, warehouses: 2, ..Default::default() });
        let last = w.txns.last().unwrap().commit_ts;
        let epochs = encode(w.txns.clone(), 100);
        let db = MemDb::new(w.table_names.len());
        let board = VisibilityBoard::builder(1).build();
        C5Engine::new(2).unwrap().replay(&epochs, &db, &board).unwrap();
        assert!(board.is_visible(&[GroupId::new(0)], last));
    }

    #[test]
    fn c5_single_thread_works() {
        let w = tpcc::generate(&TpccConfig { num_txns: 150, warehouses: 2, ..Default::default() });
        let epochs = encode(w.txns.clone(), 50);
        let db = MemDb::new(w.table_names.len());
        let m = C5Engine::new(1).unwrap().replay_all(&epochs, &db).unwrap();
        assert_eq!(m.txns, w.txns.len());
    }

    #[test]
    fn rejects_zero_threads() {
        assert!(C5Engine::new(0).is_err());
    }
}
