//! MVCC main-memory storage engine for the AETS backup node.
//!
//! Mirrors the prototype of Section VI-A of the paper: each table is a
//! from-scratch [`BPlusTree`] index whose leaves hold stable, shareable
//! [`RecordNode`]s; each record keeps a transaction-ID-ordered version
//! chain. Readers reconstruct the row visible at a snapshot timestamp;
//! the commit phase of TPLR appends versions under a short per-record
//! exclusive lock.

pub mod bptree;
pub mod exact;
pub mod gc;
pub mod query;
pub mod record;
#[cfg(test)]
mod reference;
#[cfg_attr(not(test), deny(clippy::unwrap_used))]
pub mod snapshot;
pub mod table;

pub use bptree::{BPlusTree, MIN_CUT_LEN};
pub use exact::ExactSum;
pub use gc::{gc_db, gc_node, FloorTicket, GcStats, QueryFloor};
pub use query::{compare_values, AggState, Aggregate, CmpOp, Filter, Scan};
pub use record::{OpType, RecordNode, Version};
pub use snapshot::{decode_db, encode_db, Snapshot, SnapshotWalk};
pub use table::{MemDb, Table};
