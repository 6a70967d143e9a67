//! Log parser and dispatcher (component ① of the AETS architecture).
//!
//! The dispatcher scans an encoded epoch *metadata-only* (it never decodes
//! data images — that is the workers' job in phase 1), finds transaction
//! boundaries from BEGIN/COMMIT markers, and splits every transaction into
//! per-group *mini-transactions*: the subset of its entries that modify
//! tables of one group. Each group's mini-transactions, in primary commit
//! order, are simultaneously that group's `commit_order_queue`.
//!
//! Upstream of any engine sits the *ingest resync loop* ([`ingest_epoch`]),
//! run by the layers that pull a feed (`DurableBackup::ingest_from`,
//! `Fleet::ingest_source`): every delivery arrives proved against its
//! frame CRC by the source ([`VerifiedEpoch`]) and is checked against its
//! sequence number; a failed one (torn tail, bit flip, duplicate/
//! reordered/dropped epoch, stall) is re-requested with bounded
//! exponential backoff before it gets anywhere near a dispatcher.

use crate::grouping::TableGrouping;
use aets_common::{Error, GroupId, Result, Timestamp, TxnId};
use aets_telemetry::{names, Registry};
use aets_wal::{EncodedEpoch, EpochSource, MetaScanner, VerifiedEpoch};
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

/// The part of one transaction that lands in one table group.
#[derive(Debug, Clone, PartialEq)]
pub struct MiniTxn {
    /// Owning transaction.
    pub txn_id: TxnId,
    /// Commit timestamp of the owning transaction.
    pub commit_ts: Timestamp,
    /// This group's DML entries, in LSN order: a span of its
    /// [`GroupWork::entry_ranges`]. Empty for heartbeat placements.
    pub entries: Range<usize>,
    /// Total encoded bytes of those entries (the mini-txn's share of
    /// `n_gi`).
    pub bytes: u64,
}

/// All work routed to one group for one epoch.
#[derive(Debug, Clone, Default)]
pub struct GroupWork {
    /// Mini-transactions in primary commit order (the group's
    /// `commit_order_queue`).
    pub mini_txns: Vec<MiniTxn>,
    /// Byte ranges of the group's DML entries within the epoch buffer,
    /// mini-transaction after mini-transaction, in LSN order. One list
    /// per group, so dispatch allocates per group rather than per
    /// mini-transaction.
    pub entry_ranges: Vec<Range<usize>>,
    /// Sum of entry bytes (`n_gi` for the allocation solver).
    pub bytes: u64,
    /// Total entries.
    pub entries: usize,
}

/// A dispatched epoch: shared byte buffer plus per-group work lists.
#[derive(Debug, Clone)]
pub struct DispatchedEpoch {
    /// The epoch's encoded bytes (entries are decoded lazily from ranges).
    pub bytes: Arc<[u8]>,
    /// Work per group, indexed by `GroupId`.
    pub groups: Vec<GroupWork>,
    /// Commit timestamp of the epoch's last transaction.
    pub max_commit_ts: Timestamp,
    /// Number of transactions in the epoch.
    pub txn_count: usize,
}

impl DispatchedEpoch {
    /// Work of `group`.
    pub fn group(&self, g: GroupId) -> &GroupWork {
        &self.groups[g.index()]
    }

    /// Per-group pending byte volumes (input to the allocation solver).
    pub fn pending_bytes(&self) -> Vec<u64> {
        self.groups.iter().map(|g| g.bytes).collect()
    }
}

/// Bounded-retry policy of the ingest resync loop.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Re-requests allowed per epoch before the delivery error becomes
    /// fatal (0 disables resync entirely).
    pub max_retries: u32,
    /// Backoff before the first re-request; doubles per attempt
    /// (exponential), capped at [`RetryPolicy::max_backoff_us`].
    pub base_backoff_us: u64,
    /// Upper bound on a single backoff sleep.
    pub max_backoff_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_retries: 3, base_backoff_us: 100, max_backoff_us: 10_000 }
    }
}

impl RetryPolicy {
    /// Backoff before re-request number `attempt` (1-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let us = self
            .base_backoff_us
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
            .min(self.max_backoff_us);
        Duration::from_micros(us)
    }
}

/// Counters produced by the ingest resync loop; its owner adds them to
/// the registry with [`IngestStats::record`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Epoch re-requests issued.
    pub retries: u64,
    /// Deliveries rejected by the epoch frame CRC.
    pub checksum_failures: u64,
    /// Deliveries rejected as out-of-sequence (duplicate / reordered /
    /// dropped epochs).
    pub epoch_gaps: u64,
    /// Fetches that found the epoch not yet available.
    pub stalls: u64,
}

impl IngestStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &IngestStats) {
        self.retries += other.retries;
        self.checksum_failures += other.checksum_failures;
        self.epoch_gaps += other.epoch_gaps;
        self.stalls += other.stalls;
    }

    /// Adds the counts to the registry's four ingest-resync counters, their
    /// only home: what both owners of a resync loop do with the stats of
    /// one drain.
    pub fn record(&self, reg: &Registry) {
        reg.counter(names::INGEST_RETRIES).add(self.retries);
        reg.counter(names::CHECKSUM_FAILURES).add(self.checksum_failures);
        reg.counter(names::EPOCH_GAPS).add(self.epoch_gaps);
        reg.counter(names::INGEST_STALLS).add(self.stalls);
    }
}

/// Fetches epoch `seq` from `source` (which proves its CRC), checks the
/// sequence number, and re-requests with exponential backoff on failure.
///
/// Returns the verified epoch, or the last delivery error once
/// `policy.max_retries` re-requests are exhausted — at which point the
/// stream cannot make progress and the caller must surface the error.
pub fn ingest_epoch(
    source: &mut dyn EpochSource,
    seq: u64,
    policy: &RetryPolicy,
    stats: &mut IngestStats,
) -> Result<VerifiedEpoch> {
    let mut last_err = Error::Protocol(format!("epoch {seq} never delivered"));
    for attempt in 0..=policy.max_retries {
        if attempt > 0 {
            stats.retries += 1;
            std::thread::sleep(policy.backoff(attempt));
        }
        match source.fetch(seq, attempt) {
            None => {
                stats.stalls += 1;
                last_err = Error::Protocol(format!("epoch {seq} stalled in the feed"));
            }
            Some(Err(e)) => {
                stats.checksum_failures += 1;
                last_err = e;
            }
            Some(Ok(epoch)) => {
                if epoch.id.raw() != seq {
                    stats.epoch_gaps += 1;
                    last_err = Error::EpochGap { expected: seq, got: epoch.id.raw() };
                    continue;
                }
                return Ok(epoch);
            }
        }
    }
    Err(last_err)
}

/// Scans `epoch` and routes every DML entry to its table group.
///
/// Heartbeat transactions (BEGIN/COMMIT with no DML) are placed into
/// *every* group as empty mini-transactions, per Section V-B, so each
/// group's commit timestamp advances even when the group gets no writes.
pub fn dispatch_epoch(epoch: &EncodedEpoch, grouping: &TableGrouping) -> Result<DispatchedEpoch> {
    let mut groups: Vec<GroupWork> = vec![GroupWork::default(); grouping.num_groups()];
    // Per-group index of the open mini-txn, or usize::MAX.
    let mut open_slots: Vec<usize> = vec![usize::MAX; grouping.num_groups()];
    let mut open_txn: Option<TxnId> = None;
    let mut txn_count = 0usize;
    let mut txn_had_dml = false;

    for item in MetaScanner::new(epoch.bytes.clone()) {
        let (meta, range) = item?;
        match meta.table {
            None => {
                // BEGIN or COMMIT. The scanner cannot distinguish them, but
                // the protocol can: a marker for a txn we have not opened
                // is a BEGIN; for the open txn it is the COMMIT.
                match open_txn {
                    None => {
                        open_txn = Some(meta.txn_id);
                        txn_had_dml = false;
                        open_slots.fill(usize::MAX);
                    }
                    Some(t) if t == meta.txn_id => {
                        // COMMIT: stamp commit timestamps; place heartbeats.
                        let commit_ts = meta.ts;
                        if txn_had_dml {
                            for (gid, slot) in open_slots.iter().enumerate() {
                                if *slot != usize::MAX {
                                    let mt = &mut groups[gid].mini_txns[*slot];
                                    mt.commit_ts = commit_ts;
                                }
                            }
                        } else {
                            for g in groups.iter_mut() {
                                let at = g.entry_ranges.len();
                                g.mini_txns.push(MiniTxn {
                                    txn_id: meta.txn_id,
                                    commit_ts,
                                    entries: at..at,
                                    bytes: 0,
                                });
                            }
                        }
                        open_txn = None;
                        txn_count += 1;
                    }
                    Some(t) => {
                        return Err(Error::Protocol(format!(
                            "marker for {} inside transaction {}",
                            meta.txn_id, t
                        )));
                    }
                }
            }
            Some(table) => {
                let Some(t) = open_txn else {
                    return Err(Error::Protocol(format!(
                        "DML of {} outside BEGIN/COMMIT",
                        meta.txn_id
                    )));
                };
                if t != meta.txn_id {
                    return Err(Error::Protocol(format!(
                        "DML of {} inside transaction {t}",
                        meta.txn_id
                    )));
                }
                txn_had_dml = true;
                let gid = grouping.group_of(table).index();
                let len = (range.end - range.start) as u64;
                let g = &mut groups[gid];
                if open_slots[gid] == usize::MAX {
                    open_slots[gid] = g.mini_txns.len();
                    let at = g.entry_ranges.len();
                    g.mini_txns.push(MiniTxn {
                        txn_id: t,
                        commit_ts: Timestamp::ZERO,
                        entries: at..at,
                        bytes: 0,
                    });
                }
                // One transaction is open at a time, so its entries of
                // this group are contiguous in the group's list.
                g.entry_ranges.push(range);
                let mt = &mut g.mini_txns[open_slots[gid]];
                mt.entries.end += 1;
                mt.bytes += len;
                g.bytes += len;
                g.entries += 1;
            }
        }
    }
    if let Some(t) = open_txn {
        return Err(Error::Protocol(format!("transaction {t} never committed")));
    }

    Ok(DispatchedEpoch {
        bytes: epoch.bytes.clone(),
        groups,
        max_commit_ts: epoch.max_commit_ts,
        txn_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aets_common::{ColumnId, DmlOp, EpochId, FxHashSet, Lsn, RowKey, TableId, Value};
    use aets_wal::{encode_epoch, DmlEntry, Epoch, TxnLog};

    fn entry(lsn: u64, txn: u64, table: u32, key: u64) -> DmlEntry {
        DmlEntry {
            lsn: Lsn::new(lsn),
            txn_id: TxnId::new(txn),
            ts: Timestamp::from_micros(lsn),
            table: TableId::new(table),
            op: DmlOp::Insert,
            key: RowKey::new(key),
            row_version: 1,
            cols: vec![(ColumnId::new(0), Value::Int(7))],
            before: None,
        }
    }

    fn make_epoch(txns: Vec<TxnLog>) -> EncodedEpoch {
        encode_epoch(&Epoch { id: EpochId::new(0), txns })
    }

    fn grouping2() -> TableGrouping {
        // Tables 0,1 in group 0 (hot); table 2 in group 1 (cold).
        let hot: FxHashSet<TableId> = [TableId::new(0)].into_iter().collect();
        TableGrouping::new(
            3,
            vec![vec![TableId::new(0), TableId::new(1)], vec![TableId::new(2)]],
            vec![10.0, 0.0],
            &hot,
        )
        .unwrap()
    }

    #[test]
    fn splits_txn_across_groups() {
        let t1 = TxnLog {
            txn_id: TxnId::new(1),
            commit_ts: Timestamp::from_micros(100),
            entries: vec![entry(1, 1, 0, 5), entry(2, 1, 2, 6), entry(3, 1, 1, 7)],
        };
        let d = dispatch_epoch(&make_epoch(vec![t1]), &grouping2()).unwrap();
        assert_eq!(d.txn_count, 1);
        let g0 = d.group(GroupId::new(0));
        let g1 = d.group(GroupId::new(1));
        assert_eq!(g0.mini_txns.len(), 1);
        assert_eq!(g0.mini_txns[0].entries, 0..2);
        assert_eq!(g0.entries, 2);
        assert_eq!(g1.mini_txns[0].entries, 0..1);
        assert_eq!(g0.mini_txns[0].commit_ts, Timestamp::from_micros(100));
        assert!(g0.bytes > 0 && g1.bytes > 0);
    }

    #[test]
    fn txn_not_touching_group_is_absent_from_its_queue() {
        let t1 = TxnLog {
            txn_id: TxnId::new(1),
            commit_ts: Timestamp::from_micros(10),
            entries: vec![entry(1, 1, 0, 5)],
        };
        let t2 = TxnLog {
            txn_id: TxnId::new(2),
            commit_ts: Timestamp::from_micros(20),
            entries: vec![entry(2, 2, 2, 6)],
        };
        let d = dispatch_epoch(&make_epoch(vec![t1, t2]), &grouping2()).unwrap();
        assert_eq!(d.group(GroupId::new(0)).mini_txns.len(), 1);
        assert_eq!(d.group(GroupId::new(1)).mini_txns.len(), 1);
        assert_eq!(d.group(GroupId::new(1)).mini_txns[0].txn_id, TxnId::new(2));
    }

    #[test]
    fn heartbeats_land_in_every_group() {
        let hb = TxnLog {
            txn_id: TxnId::new(9),
            commit_ts: Timestamp::from_micros(99),
            entries: vec![],
        };
        let d = dispatch_epoch(&make_epoch(vec![hb]), &grouping2()).unwrap();
        for gid in 0..2 {
            let g = d.group(GroupId::new(gid));
            assert_eq!(g.mini_txns.len(), 1);
            assert!(g.mini_txns[0].entries.is_empty());
            assert_eq!(g.mini_txns[0].commit_ts, Timestamp::from_micros(99));
        }
    }

    #[test]
    fn commit_order_is_preserved_per_group() {
        let txns: Vec<TxnLog> = (1..=20)
            .map(|i| TxnLog {
                txn_id: TxnId::new(i),
                commit_ts: Timestamp::from_micros(i * 10),
                entries: vec![entry(i, i, (i % 3) as u32, i)],
            })
            .collect();
        let d = dispatch_epoch(&make_epoch(txns), &grouping2()).unwrap();
        for g in &d.groups {
            assert!(g.mini_txns.windows(2).all(|w| w[0].txn_id < w[1].txn_id));
        }
        assert_eq!(d.txn_count, 20);
    }

    /// A feed that fails the first `faults` deliveries of every epoch in
    /// a configurable way, then delivers cleanly.
    struct FlakySource {
        epochs: Vec<EncodedEpoch>,
        faults: u32,
        mode: FlakyMode,
    }

    enum FlakyMode {
        Stall,
        Corrupt,
        WrongSeq,
    }

    impl aets_wal::EpochSource for FlakySource {
        fn num_epochs(&self) -> usize {
            self.epochs.len()
        }

        fn fetch(&mut self, seq: u64, attempt: u32) -> Option<Result<VerifiedEpoch>> {
            let clean = self.epochs.get(seq as usize)?.clone();
            let delivered = match self.mode {
                _ if attempt >= self.faults => clean,
                FlakyMode::Stall => return None,
                FlakyMode::Corrupt => EncodedEpoch {
                    bytes: clean.bytes[..clean.bytes.len().saturating_sub(1)].into(),
                    ..clean
                },
                FlakyMode::WrongSeq => {
                    EncodedEpoch { id: aets_common::EpochId::new(seq + 1), ..clean }
                }
            };
            Some(VerifiedEpoch::new(delivered))
        }
    }

    fn one_epoch() -> Vec<EncodedEpoch> {
        vec![make_epoch(vec![TxnLog {
            txn_id: TxnId::new(1),
            commit_ts: Timestamp::from_micros(10),
            entries: vec![entry(1, 1, 0, 5)],
        }])]
    }

    fn tiny_policy(max_retries: u32) -> RetryPolicy {
        RetryPolicy { max_retries, base_backoff_us: 1, max_backoff_us: 10 }
    }

    #[test]
    fn ingest_recovers_from_transient_faults() {
        for (mode, check) in [
            (FlakyMode::Stall, "stalls"),
            (FlakyMode::Corrupt, "checksum_failures"),
            (FlakyMode::WrongSeq, "epoch_gaps"),
        ] {
            let mut src = FlakySource { epochs: one_epoch(), faults: 2, mode };
            let mut stats = IngestStats::default();
            let e = ingest_epoch(&mut src, 0, &tiny_policy(3), &mut stats).unwrap();
            assert_eq!(e.id.raw(), 0);
            assert_eq!(stats.retries, 2, "{check}: two re-requests before healing");
            let observed = match check {
                "stalls" => stats.stalls,
                "checksum_failures" => stats.checksum_failures,
                _ => stats.epoch_gaps,
            };
            assert_eq!(observed, 2, "{check} counter");
        }
    }

    #[test]
    fn ingest_exhausts_retries_with_typed_errors() {
        let mut src =
            FlakySource { epochs: one_epoch(), faults: u32::MAX, mode: FlakyMode::Corrupt };
        let mut stats = IngestStats::default();
        let err = ingest_epoch(&mut src, 0, &tiny_policy(2), &mut stats).unwrap_err();
        assert_eq!(err, Error::CodecChecksum);
        assert_eq!(stats.retries, 2);

        let mut src =
            FlakySource { epochs: one_epoch(), faults: u32::MAX, mode: FlakyMode::WrongSeq };
        let mut stats = IngestStats::default();
        let err = ingest_epoch(&mut src, 0, &tiny_policy(1), &mut stats).unwrap_err();
        assert_eq!(err, Error::EpochGap { expected: 0, got: 1 });
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy { max_retries: 8, base_backoff_us: 100, max_backoff_us: 1_000 };
        assert_eq!(p.backoff(1), Duration::from_micros(100));
        assert_eq!(p.backoff(2), Duration::from_micros(200));
        assert_eq!(p.backoff(3), Duration::from_micros(400));
        assert_eq!(p.backoff(8), Duration::from_micros(1_000), "capped");
    }

    #[test]
    fn pending_bytes_match_group_totals() {
        let t1 = TxnLog {
            txn_id: TxnId::new(1),
            commit_ts: Timestamp::from_micros(10),
            entries: vec![entry(1, 1, 0, 1), entry(2, 1, 2, 2)],
        };
        let d = dispatch_epoch(&make_epoch(vec![t1]), &grouping2()).unwrap();
        let pb = d.pending_bytes();
        assert_eq!(pb.len(), 2);
        assert_eq!(pb[0], d.group(GroupId::new(0)).bytes);
    }
}
