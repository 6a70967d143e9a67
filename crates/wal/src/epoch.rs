//! Assembling flat log records into transactions and epochs.
//!
//! The replicated stream is partitioned into fixed-size, non-overlapping
//! epochs measured in *transactions* (Section III-B). Epochs cut on
//! transaction boundaries: a committed transaction's entries never span two
//! epochs, and epochs replay strictly in order.

use crate::entry::{LogRecord, TxnLog};
use aets_common::{EpochId, Error, Result, Timestamp, TxnId};
use std::sync::Arc;

/// A batch of committed transactions replayed as one unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Epoch {
    /// Sequential epoch id (consecutive from 0).
    pub id: EpochId,
    /// Transactions in primary commit order.
    pub txns: Vec<TxnLog>,
}

impl Epoch {
    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// Whether the epoch holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Total wire bytes across transactions.
    pub fn wire_size(&self) -> usize {
        self.txns.iter().map(TxnLog::wire_size).sum()
    }

    /// Commit timestamp of the last transaction (the epoch's high-water
    /// mark), or `ZERO` when empty.
    pub fn max_commit_ts(&self) -> Timestamp {
        self.txns.last().map_or(Timestamp::ZERO, |t| t.commit_ts)
    }
}

/// Assembles a flat record stream into [`TxnLog`]s, validating the
/// BEGIN/DML*/COMMIT bracketing and primary commit order.
pub fn assemble_txns(records: &[LogRecord]) -> Result<Vec<TxnLog>> {
    let mut out: Vec<TxnLog> = Vec::new();
    let mut open: Option<TxnLog> = None;
    for rec in records {
        match rec {
            LogRecord::Begin { txn_id, .. } => {
                if open.is_some() {
                    return Err(Error::Protocol(format!(
                        "BEGIN {txn_id} while a transaction is open"
                    )));
                }
                open = Some(TxnLog {
                    txn_id: *txn_id,
                    commit_ts: Timestamp::ZERO,
                    entries: Vec::new(),
                });
            }
            LogRecord::Dml(d) => match &mut open {
                Some(t) if t.txn_id == d.txn_id => t.entries.push(d.clone()),
                Some(t) => {
                    return Err(Error::Protocol(format!(
                        "DML of {} inside transaction {}",
                        d.txn_id, t.txn_id
                    )))
                }
                None => {
                    return Err(Error::Protocol(format!(
                        "DML of {} outside BEGIN/COMMIT",
                        d.txn_id
                    )))
                }
            },
            LogRecord::Commit { txn_id, ts, .. } => {
                let mut t = open
                    .take()
                    .ok_or_else(|| Error::Protocol(format!("COMMIT {txn_id} without BEGIN")))?;
                if t.txn_id != *txn_id {
                    return Err(Error::Protocol(format!(
                        "COMMIT {} does not match open transaction {}",
                        txn_id, t.txn_id
                    )));
                }
                t.commit_ts = *ts;
                if let Some(prev) = out.last() {
                    if prev.txn_id >= t.txn_id {
                        return Err(Error::Protocol(format!(
                            "transaction {} committed after {} violates commit order",
                            t.txn_id, prev.txn_id
                        )));
                    }
                }
                out.push(t);
            }
        }
    }
    if let Some(t) = open {
        return Err(Error::Protocol(format!("transaction {} never committed", t.txn_id)));
    }
    Ok(out)
}

/// Splits committed transactions into fixed-size epochs.
///
/// `epoch_size` is the number of transactions per epoch (default 2048 in
/// the paper); the final epoch may be short.
pub fn batch_into_epochs(txns: Vec<TxnLog>, epoch_size: usize) -> Result<Vec<Epoch>> {
    if epoch_size == 0 {
        return Err(Error::Config("epoch_size must be positive".into()));
    }
    let mut epochs = Vec::with_capacity(txns.len() / epoch_size + 1);
    let mut current: Vec<TxnLog> = Vec::with_capacity(epoch_size.min(txns.len()));
    for t in txns {
        current.push(t);
        if current.len() == epoch_size {
            epochs.push(Epoch {
                id: EpochId::new(epochs.len() as u64),
                txns: std::mem::take(&mut current),
            });
        }
    }
    if !current.is_empty() {
        epochs.push(Epoch { id: EpochId::new(epochs.len() as u64), txns: current });
    }
    Ok(epochs)
}

/// An epoch in wire form: what the backup actually receives from the
/// replication channel before its log parser runs.
///
/// Equality is byte equality of the whole wire form (id, payload,
/// metadata, CRC) — what the transport's frame round-trip tests compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedEpoch {
    /// Epoch id.
    pub id: EpochId,
    /// Encoded BEGIN/DML*/COMMIT records of every transaction, in commit
    /// order.
    pub bytes: Arc<[u8]>,
    /// Number of transactions.
    pub txn_count: usize,
    /// Commit timestamp of the last transaction.
    pub max_commit_ts: Timestamp,
    /// CRC32 over `bytes` — the epoch frame checksum, stamped by the
    /// primary at encode time and verified by the backup at ingest.
    pub crc32: u32,
}

impl EncodedEpoch {
    /// Verifies the epoch frame checksum. Catches torn tails, bit flips,
    /// and any other in-flight corruption of the epoch buffer; a failure
    /// means the whole delivery must be re-requested.
    pub fn verify(&self) -> Result<()> {
        if crate::crc::crc32(&self.bytes) == self.crc32 {
            Ok(())
        } else {
            Err(Error::CodecChecksum)
        }
    }

    /// Decodes the frame's records in one pass into `scratch` (cleared
    /// first). A replay loop that calls this per epoch amortizes one
    /// record-vector allocation across the whole stream instead of
    /// growing a fresh `Vec` for every frame.
    pub fn decode_records_into(&self, scratch: &mut Vec<LogRecord>) -> Result<()> {
        scratch.clear();
        crate::codec::decode_batch_into(&self.bytes, scratch)
    }
}

/// An [`EncodedEpoch`] that passed its own CRC check, the proof that lets
/// later hops skip it: built by [`VerifiedEpoch::new`], which runs the
/// check, or by the segment reader right after checking a frame.
#[derive(Debug, Clone)]
pub struct VerifiedEpoch(pub(crate) EncodedEpoch);

impl VerifiedEpoch {
    /// Checks `epoch` against its frame CRC ([`EncodedEpoch::verify`]).
    pub fn new(epoch: EncodedEpoch) -> Result<Self> {
        epoch.verify()?;
        Ok(Self(epoch))
    }

    /// The epoch, giving up the proof.
    pub fn into_inner(self) -> EncodedEpoch {
        self.0
    }
}

impl std::ops::Deref for VerifiedEpoch {
    type Target = EncodedEpoch;

    fn deref(&self) -> &EncodedEpoch {
        &self.0
    }
}

/// Encodes an epoch into its wire form: each transaction becomes
/// `BEGIN, DML..., COMMIT` with LSNs taken from the entries (markers reuse
/// adjacent LSNs since the generators assign LSNs to DML entries only).
pub fn encode_epoch(epoch: &Epoch) -> EncodedEpoch {
    use crate::codec::encode_record;
    let mut buf = Vec::with_capacity(epoch.wire_size() + epoch.len() * 64);
    for t in &epoch.txns {
        let first_lsn = t.entries.first().map_or(aets_common::Lsn::new(0), |e| e.lsn);
        let last_lsn = t.entries.last().map_or(first_lsn, |e| e.lsn);
        encode_record(
            &mut buf,
            &LogRecord::Begin { lsn: first_lsn, txn_id: t.txn_id, ts: t.commit_ts },
        );
        for e in &t.entries {
            encode_record(&mut buf, &LogRecord::Dml(e.clone()));
        }
        encode_record(
            &mut buf,
            &LogRecord::Commit { lsn: last_lsn, txn_id: t.txn_id, ts: t.commit_ts },
        );
    }
    // One copy into a frame of exactly the encoded length.
    let bytes = Arc::<[u8]>::from(buf);
    EncodedEpoch {
        id: epoch.id,
        crc32: crate::crc::crc32(&bytes),
        bytes,
        txn_count: epoch.len(),
        max_commit_ts: epoch.max_commit_ts(),
    }
}

/// Builds a synthetic heartbeat transaction with a dummy transaction id,
/// carrying no DML (Section V-B): replaying it only bumps commit
/// timestamps so `global_cmt_ts` keeps advancing while the primary idles.
pub fn heartbeat_txn(txn_id: TxnId, commit_ts: Timestamp) -> TxnLog {
    TxnLog { txn_id, commit_ts, entries: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::DmlEntry;
    use aets_common::{ColumnId, DmlOp, Lsn, RowKey, TableId, Value};

    fn txn_records(txn: u64, base_lsn: u64, n_dml: usize) -> Vec<LogRecord> {
        let mut recs = vec![LogRecord::Begin {
            lsn: Lsn::new(base_lsn),
            txn_id: TxnId::new(txn),
            ts: Timestamp::from_micros(base_lsn),
        }];
        for i in 0..n_dml {
            recs.push(LogRecord::Dml(DmlEntry {
                lsn: Lsn::new(base_lsn + 1 + i as u64),
                txn_id: TxnId::new(txn),
                ts: Timestamp::from_micros(base_lsn + 1 + i as u64),
                table: TableId::new(0),
                op: DmlOp::Insert,
                key: RowKey::new(i as u64),
                row_version: 1,
                cols: vec![(ColumnId::new(0), Value::Int(i as i64))],
                before: None,
            }));
        }
        recs.push(LogRecord::Commit {
            lsn: Lsn::new(base_lsn + 1 + n_dml as u64),
            txn_id: TxnId::new(txn),
            ts: Timestamp::from_micros(base_lsn + 1 + n_dml as u64),
        });
        recs
    }

    #[test]
    fn assembles_bracketed_txns() {
        let mut recs = txn_records(1, 0, 3);
        recs.extend(txn_records(2, 10, 2));
        let txns = assemble_txns(&recs).unwrap();
        assert_eq!(txns.len(), 2);
        assert_eq!(txns[0].entries.len(), 3);
        assert_eq!(txns[1].txn_id, TxnId::new(2));
        assert_eq!(txns[1].commit_ts, Timestamp::from_micros(13));
    }

    #[test]
    fn rejects_dml_outside_txn() {
        let recs = txn_records(1, 0, 1);
        let dml_only = vec![recs[1].clone()];
        assert!(assemble_txns(&dml_only).is_err());
    }

    #[test]
    fn rejects_unterminated_txn() {
        let mut recs = txn_records(1, 0, 1);
        recs.pop(); // drop COMMIT
        assert!(assemble_txns(&recs).is_err());
    }

    #[test]
    fn rejects_nested_begin_and_mismatched_commit() {
        let a = txn_records(1, 0, 0);
        let b = txn_records(2, 10, 0);
        // BEGIN 1, BEGIN 2 ...
        let nested = vec![a[0].clone(), b[0].clone()];
        assert!(assemble_txns(&nested).is_err());
        // BEGIN 1, COMMIT 2
        let mismatch = vec![a[0].clone(), b[1].clone()];
        assert!(assemble_txns(&mismatch).is_err());
    }

    #[test]
    fn rejects_commit_order_violation() {
        let mut recs = txn_records(5, 0, 0);
        recs.extend(txn_records(4, 10, 0));
        assert!(assemble_txns(&recs).is_err());
    }

    #[test]
    fn epochs_cut_on_txn_boundaries() {
        let txns: Vec<TxnLog> = (1..=10)
            .map(|i| TxnLog {
                txn_id: TxnId::new(i),
                commit_ts: Timestamp::from_micros(i * 10),
                entries: Vec::new(),
            })
            .collect();
        let epochs = batch_into_epochs(txns, 4).unwrap();
        assert_eq!(epochs.len(), 3);
        assert_eq!(epochs[0].len(), 4);
        assert_eq!(epochs[2].len(), 2);
        assert_eq!(epochs[1].id, EpochId::new(1));
        assert_eq!(epochs[2].max_commit_ts(), Timestamp::from_micros(100));
    }

    #[test]
    fn zero_epoch_size_is_config_error() {
        assert!(batch_into_epochs(Vec::new(), 0).is_err());
    }

    #[test]
    fn epoch_frame_checksum_round_trips_and_catches_corruption() {
        let recs = txn_records(1, 0, 3);
        let txns = assemble_txns(&recs).unwrap();
        let encoded = encode_epoch(&Epoch { id: EpochId::new(0), txns });
        encoded.verify().unwrap();

        // Torn tail: missing bytes at the end of the frame.
        let torn = EncodedEpoch {
            bytes: encoded.bytes[..encoded.bytes.len() - 2].into(),
            ..encoded.clone()
        };
        assert!(matches!(torn.verify(), Err(aets_common::Error::CodecChecksum)));

        // Bit flip anywhere in the frame.
        let mut flipped = encoded.bytes.to_vec();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        let flipped = EncodedEpoch { bytes: flipped.into(), ..encoded.clone() };
        assert!(matches!(flipped.verify(), Err(aets_common::Error::CodecChecksum)));

        // The proof is built by the same check, and only on a pass.
        assert_eq!(*VerifiedEpoch::new(encoded.clone()).unwrap(), encoded);
        assert!(matches!(VerifiedEpoch::new(torn), Err(aets_common::Error::CodecChecksum)));
        assert!(matches!(VerifiedEpoch::new(flipped), Err(aets_common::Error::CodecChecksum)));
    }

    #[test]
    fn heartbeat_is_empty() {
        let hb = heartbeat_txn(TxnId::new(9), Timestamp::from_micros(1));
        assert!(hb.is_heartbeat());
    }
}
