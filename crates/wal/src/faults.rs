//! Deterministic fault injection for the replicated epoch feed.
//!
//! The paper's testbed assumes a clean SiloR-style value-log stream; a
//! production backup must survive torn epochs, bit flips,
//! duplicated/reordered/dropped deliveries, and stalls without taking
//! analytical queries offline. This module provides the feed abstraction
//! ([`EpochSource`]) plus a seeded, fully deterministic feed
//! ([`FaultInjector`]) that perturbs deliveries according to a
//! [`FaultPlan`]. The same seed always yields the same fault schedule, so
//! every recovery test and CI matrix entry is exactly reproducible.
//!
//! The feed is *pull-based*, and only the resync loop pulls from it
//! (`aets_replay::ingest_epoch`, run by the durable backup's and the
//! fleet's ingest): it requests epoch `seq` and may re-request it
//! (`attempt > 0`) after a checksum failure, sequence gap, or stall. The
//! two sources are this injector and the network receiver's
//! `NetEpochSource`; the replay engines take checked epochs as a slice
//! and pull from no source.
//!
//! Transient faults heal after [`FaultPlan::heal_after`] failed attempts
//! — modelling a replication channel that redelivers correctly on retry
//! — while persistent plans never heal and exercise the
//! quarantine/degraded-mode paths downstream.

use crate::codec::MetaScanner;
use crate::crc::crc32;
use crate::epoch::EncodedEpoch;
use aets_common::{unit_f64, TableId};
use std::ops::Range;

/// A pull-based source of encoded epochs (the backup's view of the
/// replication channel).
pub trait EpochSource: Send {
    /// Total number of epochs this source will eventually deliver.
    fn num_epochs(&self) -> usize;

    /// Sequence number of the first epoch this source delivers; fetches
    /// use absolute sequence numbers in
    /// `first_seq()..first_seq() + num_epochs()`. Defaults to 0 (a source
    /// covering the stream from its start).
    fn first_seq(&self) -> u64 {
        0
    }

    /// Attempts delivery of epoch `seq` (0-based). `attempt` counts
    /// re-requests of the same epoch by the resync loop. `None` means the
    /// epoch is not available yet (a stall); the caller should back off
    /// and re-request.
    fn fetch(&mut self, seq: u64, attempt: u32) -> Option<EncodedEpoch>;
}

/// The classes of fault the injector can apply to one delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The epoch frame loses its tail (torn write / truncated ship).
    /// Caught by the epoch CRC at ingest.
    TornTail,
    /// One bit of the epoch frame flips in flight. Caught by the epoch
    /// CRC at ingest.
    BitFlip,
    /// The previous epoch is delivered again instead of the requested
    /// one. Caught by the sequence check at ingest.
    Duplicate,
    /// A later epoch is delivered in place of the requested one
    /// (reordered channel). Caught by the sequence check at ingest.
    Reorder,
    /// The requested epoch is dropped; in a pull-based feed the channel
    /// answers with the next epoch it has. Caught by the sequence check.
    Drop,
    /// The epoch is not available yet: delivery stalls and the backup
    /// must back off and re-request.
    Stall,
    /// One record's CRC trailer is corrupted *and the epoch frame CRC is
    /// recomputed* — modelling corruption introduced before framing (e.g.
    /// in the primary's log buffer). This passes the ingest frame check
    /// and only surfaces when a replay worker fully decodes the record,
    /// so it cannot be healed by re-requesting: it exercises the
    /// per-group quarantine path.
    RecordCorruption,
}

/// A seeded, deterministic fault schedule.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed of the schedule; the same seed always faults the same epochs
    /// in the same way.
    pub seed: u64,
    /// Probability that a given epoch's delivery is faulted.
    pub rate: f64,
    /// Fault kinds to draw from (uniformly) for a faulted epoch.
    pub kinds: Vec<FaultKind>,
    /// Number of failed delivery attempts before the channel heals and
    /// delivers the epoch cleanly. `u32::MAX` never heals (persistent
    /// fault). Note [`FaultKind::RecordCorruption`] is undetectable at
    /// ingest, so healing never gets a chance to apply to it.
    pub heal_after: u32,
}

impl FaultPlan {
    /// A transient plan (heals after one failed attempt).
    pub fn new(seed: u64, rate: f64, kinds: Vec<FaultKind>) -> Self {
        Self { seed, rate, kinds, heal_after: 1 }
    }

    /// Makes the plan persistent: faulted epochs never deliver cleanly.
    pub fn persistent(mut self) -> Self {
        self.heal_after = u32::MAX;
        self
    }
}

/// Deterministic 64-bit mixer (splitmix64 finalizer): the fault
/// harnesses' only source of "randomness", so schedules are reproducible
/// by construction. Re-exported from `aets_common` (where the fleet- and
/// network-level fault plans also key their schedules) so existing
/// `aets_wal::splitmix64` callers keep working.
pub use aets_common::splitmix64;

/// A fault-injecting wrapper around an in-memory epoch stream.
#[derive(Debug)]
pub struct FaultInjector {
    epochs: Vec<EncodedEpoch>,
    plan: FaultPlan,
}

impl FaultInjector {
    /// Wraps `epochs` under `plan`.
    pub fn new(epochs: Vec<EncodedEpoch>, plan: FaultPlan) -> Self {
        Self { epochs, plan }
    }

    fn draw(&self, seq: u64) -> u64 {
        splitmix64(self.plan.seed ^ splitmix64(seq.wrapping_mul(0xA24B_AED4_963E_E407)))
    }

    /// The fault (if any) scheduled for epoch `seq`, independent of the
    /// delivery attempt.
    pub fn fault_for(&self, seq: u64) -> Option<FaultKind> {
        if self.plan.kinds.is_empty() {
            return None;
        }
        let h = self.draw(seq);
        if unit_f64(h) >= self.plan.rate {
            return None;
        }
        Some(self.plan.kinds[(h % self.plan.kinds.len() as u64) as usize])
    }

    fn apply(&self, kind: FaultKind, seq: u64, clean: EncodedEpoch) -> Option<EncodedEpoch> {
        let h = self.draw(seq ^ 0x00FA_17ED);
        match kind {
            FaultKind::Stall => None,
            FaultKind::Duplicate => {
                let neighbor = seq.checked_sub(1).unwrap_or(seq + 1);
                self.epochs.get(neighbor as usize).cloned()
            }
            FaultKind::Reorder | FaultKind::Drop => self
                .epochs
                .get(seq as usize + 1)
                .or_else(|| self.epochs.get((seq as usize).checked_sub(1)?))
                .cloned(),
            FaultKind::TornTail => {
                let n = clean.bytes.len();
                if n <= 1 {
                    return Some(clean);
                }
                let cut = 1 + (h as usize % (n - 1).min(64));
                Some(EncodedEpoch { bytes: clean.bytes[..n - cut].into(), ..clean })
            }
            FaultKind::BitFlip => {
                if clean.bytes.is_empty() {
                    return Some(clean);
                }
                let mut v = clean.bytes.to_vec();
                let bit = h as usize % (v.len() * 8);
                v[bit / 8] ^= 1 << (bit % 8);
                Some(EncodedEpoch { bytes: v.into(), ..clean })
            }
            FaultKind::RecordCorruption => {
                // Falls back to the clean epoch when it holds no DML
                // record, or one the scanner cannot frame.
                let all = dml_ranges(&clean, |_| true);
                if all.is_empty() {
                    return Some(clean);
                }
                Some(corrupt_record_at(&clean, &all[(h % all.len() as u64) as usize]))
            }
        }
    }
}

/// Byte ranges of the DML records of `epoch` whose table `want` accepts,
/// in log order; none when the scanner cannot frame the epoch.
fn dml_ranges(epoch: &EncodedEpoch, want: impl Fn(TableId) -> bool) -> Vec<Range<usize>> {
    let scanned: Result<Vec<_>, _> = MetaScanner::new(epoch.bytes.clone()).collect();
    let dml = scanned.unwrap_or_default().into_iter().filter(|(m, _)| m.table.is_some_and(&want));
    dml.map(|(_, range)| range).collect()
}

/// Flips a bit in the CRC trailer of the record at `range` and restamps
/// the epoch frame CRC, so the corruption passes ingest and is only
/// caught when the record is fully decoded.
fn corrupt_record_at(clean: &EncodedEpoch, range: &Range<usize>) -> EncodedEpoch {
    let mut v = clean.bytes.to_vec();
    v[range.end - 1] ^= 0x01;
    EncodedEpoch { crc32: crc32(&v), bytes: v.into(), ..clean.clone() }
}

/// `epoch` with the record CRC of `table`'s first DML broken — the
/// [`FaultKind::RecordCorruption`] shape at a chosen position: invisible
/// at ingest, fatal when a replay worker decodes the record, so the
/// table's group quarantines there. `None` when `epoch` holds no DML of
/// `table`.
pub fn corrupt_record_of(epoch: &EncodedEpoch, table: TableId) -> Option<EncodedEpoch> {
    let first = dml_ranges(epoch, |t| t == table).into_iter().next()?;
    Some(corrupt_record_at(epoch, &first))
}

impl EpochSource for FaultInjector {
    fn num_epochs(&self) -> usize {
        self.epochs.len()
    }

    fn fetch(&mut self, seq: u64, attempt: u32) -> Option<EncodedEpoch> {
        let clean = self.epochs.get(seq as usize)?.clone();
        let Some(kind) = self.fault_for(seq) else {
            return Some(clean);
        };
        if attempt >= self.plan.heal_after {
            return Some(clean);
        }
        self.apply(kind, seq, clean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::TxnLog;
    use crate::epoch::{batch_into_epochs, encode_epoch};
    use aets_common::{Timestamp, TxnId};

    fn encoded(n_txns: u64, per_epoch: usize) -> Vec<EncodedEpoch> {
        let txns: Vec<TxnLog> = (1..=n_txns)
            .map(|i| TxnLog {
                txn_id: TxnId::new(i),
                commit_ts: Timestamp::from_micros(i * 10),
                entries: Vec::new(),
            })
            .collect();
        batch_into_epochs(txns, per_epoch).unwrap().iter().map(encode_epoch).collect()
    }

    fn all_kinds() -> Vec<FaultKind> {
        vec![
            FaultKind::TornTail,
            FaultKind::BitFlip,
            FaultKind::Duplicate,
            FaultKind::Reorder,
            FaultKind::Drop,
            FaultKind::Stall,
        ]
    }

    #[test]
    fn schedule_is_deterministic() {
        let epochs = encoded(64, 4);
        let a = FaultInjector::new(epochs.clone(), FaultPlan::new(7, 0.5, all_kinds()));
        let b = FaultInjector::new(epochs, FaultPlan::new(7, 0.5, all_kinds()));
        for seq in 0..16 {
            assert_eq!(a.fault_for(seq), b.fault_for(seq));
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let epochs = encoded(64, 4);
        let a = FaultInjector::new(epochs.clone(), FaultPlan::new(1, 0.5, all_kinds()));
        let b = FaultInjector::new(epochs, FaultPlan::new(2, 0.5, all_kinds()));
        let sa: Vec<_> = (0..16).map(|s| a.fault_for(s)).collect();
        let sb: Vec<_> = (0..16).map(|s| b.fault_for(s)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn faulted_deliveries_fail_verification_and_heal_on_retry() {
        let epochs = encoded(64, 4);
        let mut inj = FaultInjector::new(epochs.clone(), FaultPlan::new(3, 1.0, all_kinds()));
        let mut saw_fault = false;
        for seq in 0..epochs.len() as u64 {
            // Attempt 0 is faulted in some observable way...
            match inj.fetch(seq, 0) {
                None => saw_fault = true, // stall
                Some(e) => {
                    if e.verify().is_err() || e.id.raw() != seq {
                        saw_fault = true;
                    }
                }
            }
            // ...and attempt 1 (past heal_after) is always clean.
            let healed = inj.fetch(seq, 1).expect("healed delivery");
            healed.verify().unwrap();
            assert_eq!(healed.id.raw(), seq);
        }
        assert!(saw_fault, "rate 1.0 must fault at least one epoch");
    }

    #[test]
    fn persistent_plans_never_heal() {
        let epochs = encoded(16, 4);
        let plan = FaultPlan::new(9, 1.0, vec![FaultKind::TornTail]).persistent();
        let mut inj = FaultInjector::new(epochs, plan);
        for attempt in 0..8 {
            let e = inj.fetch(0, attempt).unwrap();
            assert!(e.verify().is_err(), "attempt {attempt} unexpectedly clean");
        }
    }

    #[test]
    fn record_corruption_passes_frame_check_but_fails_record_decode() {
        let txns: Vec<TxnLog> = {
            use crate::entry::DmlEntry;
            use aets_common::{ColumnId, DmlOp, Lsn, RowKey, TableId, Value};
            (1..=8u64)
                .map(|i| TxnLog {
                    txn_id: TxnId::new(i),
                    commit_ts: Timestamp::from_micros(i * 10),
                    entries: vec![DmlEntry {
                        lsn: Lsn::new(i),
                        txn_id: TxnId::new(i),
                        ts: Timestamp::from_micros(i * 10),
                        table: TableId::new(0),
                        op: DmlOp::Insert,
                        key: RowKey::new(i),
                        row_version: 1,
                        cols: vec![(ColumnId::new(0), Value::Int(i as i64))],
                        before: None,
                    }],
                })
                .collect()
        };
        let epochs: Vec<_> = batch_into_epochs(txns, 4).unwrap().iter().map(encode_epoch).collect();
        let plan = FaultPlan::new(5, 1.0, vec![FaultKind::RecordCorruption]).persistent();
        let mut inj = FaultInjector::new(epochs, plan);
        let e = inj.fetch(0, 0).unwrap();
        // Frame CRC restamped: ingest cannot tell.
        e.verify().unwrap();
        // Full decode of the batch hits the corrupted record CRC.
        let err = crate::codec::decode_batch(&e.bytes).unwrap_err();
        assert!(matches!(err, aets_common::Error::CodecChecksum));
    }
}
