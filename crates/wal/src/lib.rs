//! The replicated value log of the AETS pipeline.
//!
//! Implements the SiloR-style value-log of Section III-A: the record format
//! ([`entry`]), a binary codec with both full-record and metadata-only
//! decoding ([`codec`]), transaction assembly and epoch batching
//! ([`epoch`]), and the primary replication timeline with heartbeat
//! insertion ([`stream`]). Integrity is end-to-end checksummed ([`crc`]):
//! every record carries a CRC32 trailer and every encoded epoch a frame
//! CRC32, and [`faults`] provides the deterministic fault-injection
//! harness that exercises the recovery paths built on them.

pub mod codec;
#[cfg_attr(not(test), deny(clippy::unwrap_used))]
pub mod crash;
pub mod crc;
pub mod entry;
pub mod epoch;
pub mod faults;
#[cfg_attr(not(test), deny(clippy::unwrap_used))]
pub mod segment;
pub mod stream;

pub use codec::{
    decode_at, decode_batch, decode_batch_into, decode_dml_at, decode_meta, decode_record,
    decode_row, encode_record, encode_row, MetaScanner, RecordMeta,
};
pub use crash::CrashClock;
pub use crc::{crc32, crc32_combine, crc32_scalar, crc32_slice8, crc32_update};
pub use entry::{DmlEntry, LogRecord, TxnLog};
pub use epoch::{
    assemble_txns, batch_into_epochs, encode_epoch, heartbeat_txn, EncodedEpoch, Epoch,
    VerifiedEpoch,
};
pub use faults::{EpochSource, FaultInjector, FaultKind, FaultPlan};
pub use segment::{FsyncPolicy, SegmentConfig, SegmentStore};
pub use stream::{insert_heartbeats, ReplicationTimeline};
