//! Shared building blocks for the AETS workspace.
//!
//! This crate defines the strongly-typed identifiers used throughout the
//! replication pipeline (tables, transactions, log sequence numbers,
//! timestamps, groups), the column [`Value`] model carried by value-log
//! entries, a fast non-cryptographic hash map, and the one seeded
//! generator every workload, weight and property case draws from
//! ([`rng::Rng`]).

pub mod error;
pub mod fxhash;
pub mod ids;
pub mod json;
pub mod mix;
pub mod ops;
pub mod rng;
pub mod sync;
pub mod value;

pub use error::{Error, Result};
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use ids::{ColumnId, EpochId, GroupId, Lsn, RowKey, TableId, Timestamp, TxnId};
pub use json::{hex_decode, hex_encode, json_escape};
pub use mix::{splitmix64, unit_f64};
pub use ops::DmlOp;
pub use value::{Row, Value};
