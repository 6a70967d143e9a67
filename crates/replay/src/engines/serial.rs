//! Serial oracle engine: single-threaded, trivially correct replay used as
//! ground truth when testing the parallel engines.

use crate::engines::{apply_entry, ReplayEngine};
use crate::metrics::ReplayMetrics;
use crate::visibility::VisibilityBoard;
use aets_common::{GroupId, Result};
use aets_memtable::MemDb;
use aets_wal::{assemble_txns, EncodedEpoch, LogRecord};
use std::time::Instant;

/// Decodes and applies everything in primary commit order on the calling
/// thread.
#[derive(Debug, Default)]
pub struct SerialEngine;

impl ReplayEngine for SerialEngine {
    fn name(&self) -> &'static str {
        "serial"
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
        // One scratch record vector reused across every epoch frame.
        let mut records: Vec<LogRecord> = Vec::new();
        for epoch in epochs {
            epoch.decode_records_into(&mut records)?;
            let txns = assemble_txns(&records)?;
            for t in &txns {
                for e in &t.entries {
                    apply_entry(db, e, t.commit_ts);
                    m.entries += 1;
                }
                m.txns += 1;
                board.publish_group(GroupId::new(0), t.commit_ts);
            }
            m.epochs += 1;
            m.bytes += epoch.bytes.len() as u64;
            board.publish_global(epoch.max_commit_ts);
        }
        m.wall = start.elapsed();
        m.replay_busy = m.wall;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aets_common::Timestamp;
    use aets_workloads::tpcc::{self, TpccConfig};

    #[test]
    fn serial_replay_installs_every_entry() {
        let w = tpcc::generate(&TpccConfig { num_txns: 500, warehouses: 2, ..Default::default() });
        let txn_count = w.txns.len();
        let entry_count: usize = w.txns.iter().map(|t| t.entries.len()).sum();
        let epochs: Vec<EncodedEpoch> = aets_wal::batch_into_epochs(w.txns, 128)
            .unwrap()
            .iter()
            .map(aets_wal::encode_epoch)
            .collect();
        let db = MemDb::new(w.table_names.len());
        let m = SerialEngine.replay_all(&epochs, &db).unwrap();
        assert_eq!(m.txns, txn_count);
        assert_eq!(m.entries, entry_count);
        assert_eq!(db.total_versions(), entry_count);
        assert!(db.all_chains_ordered());
    }

    #[test]
    fn serial_publishes_visibility_in_order() {
        let w = tpcc::generate(&TpccConfig { num_txns: 200, warehouses: 2, ..Default::default() });
        let last_ts = w.txns.last().unwrap().commit_ts;
        let epochs: Vec<EncodedEpoch> = aets_wal::batch_into_epochs(w.txns, 64)
            .unwrap()
            .iter()
            .map(aets_wal::encode_epoch)
            .collect();
        let db = MemDb::new(w.table_names.len());
        let board = VisibilityBoard::builder(1).build();
        SerialEngine.replay(&epochs, &db, &board).unwrap();
        assert_eq!(board.global_cmt_ts(), last_ts);
        assert!(board.tg_cmt_ts(GroupId::new(0)) >= last_ts);
        assert!(board.is_visible(&[GroupId::new(0)], last_ts));
        assert!(!board.is_visible(&[GroupId::new(0)], Timestamp::MAX));
    }
}
