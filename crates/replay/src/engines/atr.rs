//! The ATR baseline (Lee et al., VLDB'17): transaction-ID-based dispatch
//! with an RVID operation-sequence check and a single visibility thread.
//!
//! Dispatch parses metadata only and assigns whole transactions to workers
//! round-robin by transaction id. A worker applies its transactions'
//! entries directly to the Memtable; before applying a modification with
//! row version `v > 1` it spins until the backup has applied `v - 1` for
//! that row — SAP HANA's "RVID-based dynamic detection of operation
//! sequence error", which is exactly the thread-synchronization cost the
//! paper attributes to ATR at high thread counts. A single commit thread
//! walks transactions in primary commit order and publishes visibility.

use crate::dispatch::{dispatch_epoch, MiniTxn};
use crate::engines::{apply_entry, ReplayEngine};
use crate::grouping::TableGrouping;
use crate::metrics::ReplayMetrics;
use crate::visibility::VisibilityBoard;
use aets_common::sync::lock;
use aets_common::{Error, FxHashMap, FxHashSet, GroupId, Result, RowKey, TableId};
use aets_memtable::MemDb;
use aets_wal::{decode_at, EncodedEpoch, LogRecord};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Sharded map of applied row versions (the backup-side RVID table).
///
/// Persists across epochs: a row updated in epoch 9 may have received its
/// previous version in epoch 2.
#[derive(Debug)]
struct RvidTable {
    shards: Vec<Mutex<FxHashMap<(TableId, RowKey), u64>>>,
}

impl RvidTable {
    fn new(shards: usize) -> Self {
        Self { shards: (0..shards).map(|_| Mutex::new(FxHashMap::default())).collect() }
    }

    fn shard(&self, t: TableId, k: RowKey) -> &Mutex<FxHashMap<(TableId, RowKey), u64>> {
        use std::hash::{Hash, Hasher};
        let mut h = aets_common::FxHasher::default();
        (t, k).hash(&mut h);
        &self.shards[h.finish() as usize % self.shards.len()]
    }

    fn applied(&self, t: TableId, k: RowKey) -> u64 {
        lock(self.shard(t, k)).get(&(t, k)).copied().unwrap_or(0)
    }

    fn set(&self, t: TableId, k: RowKey, v: u64) {
        lock(self.shard(t, k)).insert((t, k), v);
    }
}

/// The ATR replay engine.
#[derive(Debug)]
pub struct AtrEngine {
    threads: usize,
}

impl AtrEngine {
    /// Creates an ATR engine with `threads` replay workers.
    pub fn new(threads: usize) -> Result<Self> {
        if threads == 0 {
            return Err(Error::Config("threads must be positive".into()));
        }
        Ok(Self { threads })
    }
}

impl ReplayEngine for AtrEngine {
    fn name(&self) -> &'static str {
        "atr"
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
        let rvids = RvidTable::new(64);
        let replay_busy = AtomicU64::new(0);
        let commit_busy = AtomicU64::new(0);

        // ATR has no table groups: dispatch against a single group to
        // reuse the metadata-only scanner.
        let single = TableGrouping::single(db.num_tables(), &FxHashSet::default());

        for epoch in epochs {
            let t_dispatch = Instant::now();
            let work = dispatch_epoch(epoch, &single)?;
            m.dispatch_busy += t_dispatch.elapsed();
            let group = work.group(GroupId::new(0));
            let txns: &[MiniTxn] = &group.mini_txns;
            let done: Vec<AtomicBool> = (0..txns.len()).map(|_| AtomicBool::new(false)).collect();
            // The epoch's first decode error, doubling as the abort flag
            // every wait checks: without it a failed worker's rows and
            // `done` slots would be waited on forever.
            let failed: OnceLock<Error> = OnceLock::new();

            std::thread::scope(|scope| {
                for wid in 0..self.threads {
                    let bytes = work.bytes.clone();
                    let (done, failed) = (&done, &failed);
                    let rvids = &rvids;
                    let replay_busy = &replay_busy;
                    scope.spawn(move || {
                        let t0 = Instant::now();
                        // Transaction-ID-based dispatch: worker `wid` owns
                        // transactions with index ≡ wid (mod threads).
                        'txns: for (i, mt) in txns.iter().enumerate() {
                            if i % self.threads != wid {
                                continue;
                            }
                            for r in &group.entry_ranges[mt.entries.clone()] {
                                let entry = match decode_at(&bytes, r.clone()) {
                                    Ok(LogRecord::Dml(entry)) => entry,
                                    Ok(_) => unreachable!("dispatched ranges are DML"),
                                    Err(e) => {
                                        let _ = failed.set(e);
                                        break 'txns;
                                    }
                                };
                                // Operation-sequence check: wait until the
                                // row's previous version has been applied.
                                if entry.row_version > 1 {
                                    while rvids.applied(entry.table, entry.key)
                                        < entry.row_version - 1
                                    {
                                        if failed.get().is_some() {
                                            break 'txns;
                                        }
                                        std::thread::yield_now();
                                    }
                                }
                                apply_entry(db, &entry, mt.commit_ts);
                                rvids.set(entry.table, entry.key, entry.row_version);
                            }
                            done[i].store(true, Ordering::Release);
                        }
                        replay_busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    });
                }
                // Single visibility thread: publish in commit order.
                let (done, failed) = (&done, &failed);
                let commit_busy = &commit_busy;
                scope.spawn(move || {
                    let t0 = Instant::now();
                    'publish: for (i, mt) in txns.iter().enumerate() {
                        while !done[i].load(Ordering::Acquire) {
                            if failed.get().is_some() {
                                break 'publish;
                            }
                            std::thread::yield_now();
                        }
                        board.publish_group(GroupId::new(0), mt.commit_ts);
                    }
                    commit_busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                });
            });
            if let Some(e) = failed.into_inner() {
                return Err(e);
            }

            board.publish_group(GroupId::new(0), work.max_commit_ts);
            board.publish_global(work.max_commit_ts);
            m.txns += work.txn_count;
            m.entries += work.groups[0].entries;
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
    use aets_common::Timestamp;
    use aets_workloads::tpcc::{self, TpccConfig};

    fn encode(txns: Vec<aets_wal::TxnLog>, sz: usize) -> Vec<EncodedEpoch> {
        aets_wal::batch_into_epochs(txns, sz).unwrap().iter().map(aets_wal::encode_epoch).collect()
    }

    #[test]
    fn atr_matches_serial_oracle() {
        let w = tpcc::generate(&TpccConfig { num_txns: 800, warehouses: 2, ..Default::default() });
        let epochs = encode(w.txns.clone(), 128);
        let db_serial = MemDb::new(w.table_names.len());
        SerialEngine.replay_all(&epochs, &db_serial).unwrap();

        let db = MemDb::new(w.table_names.len());
        let m = AtrEngine::new(4).unwrap().replay_all(&epochs, &db).unwrap();
        assert_eq!(m.txns, w.txns.len());
        assert!(db.all_chains_ordered(), "RVID gating must order version chains");
        assert_eq!(db.digest_at(Timestamp::MAX), db_serial.digest_at(Timestamp::MAX));
        let mid = w.txns[w.txns.len() / 2].commit_ts;
        assert_eq!(db.digest_at(mid), db_serial.digest_at(mid));
    }

    #[test]
    fn atr_single_thread_works() {
        let w = tpcc::generate(&TpccConfig { num_txns: 200, warehouses: 2, ..Default::default() });
        let epochs = encode(w.txns.clone(), 64);
        let db = MemDb::new(w.table_names.len());
        let m = AtrEngine::new(1).unwrap().replay_all(&epochs, &db).unwrap();
        assert_eq!(m.txns, w.txns.len());
    }

    #[test]
    fn atr_publishes_final_visibility() {
        let w = tpcc::generate(&TpccConfig { num_txns: 200, warehouses: 2, ..Default::default() });
        let last = w.txns.last().unwrap().commit_ts;
        let epochs = encode(w.txns.clone(), 64);
        let db = MemDb::new(w.table_names.len());
        let board = VisibilityBoard::builder(1).build();
        AtrEngine::new(2).unwrap().replay(&epochs, &db, &board).unwrap();
        assert!(board.is_visible(&[GroupId::new(0)], last));
    }

    #[test]
    fn atr_returns_a_corrupt_record_error_instead_of_hanging() {
        use crate::engines::with_watchdog;
        use aets_common::TableId;
        use aets_wal::faults::corrupt_record_of;
        let w = tpcc::generate(&TpccConfig { num_txns: 400, warehouses: 2, ..Default::default() });
        let mut epochs = encode(w.txns, 64);
        let n = w.table_names.len();
        let (i, bad) = (0..epochs.len())
            .find_map(|i| Some((i, corrupt_record_of(&epochs[i], TableId::new(2))?)))
            .expect("a DML of table 2");
        epochs[i] = bad;
        let serial = SerialEngine.replay_all(&epochs, &MemDb::new(n));
        assert!(matches!(serial, Err(Error::CodecChecksum)), "{serial:?}");
        for threads in [1, 2, 4] {
            let epochs = epochs.clone();
            let got = with_watchdog(move || {
                AtrEngine::new(threads).unwrap().replay_all(&epochs, &MemDb::new(n))
            });
            assert!(matches!(got, Err(Error::CodecChecksum)), "{threads} threads: {got:?}");
        }
    }

    #[test]
    fn rejects_zero_threads() {
        assert!(AtrEngine::new(0).is_err());
    }
}
