//! Replicated backup fleet for the AETS log-replay pipeline.
//!
//! A single [`aets_replay::BackupNode`] replays the whole epoch stream.
//! This crate scales that out and makes it survive process death: `N`
//! supervised shards each own a subset of the table groups, a stateless
//! router fans queries out by their table footprint and merges results,
//! and a coordinator heartbeat maintains the fleet-wide `global_cmt_ts`
//! that keeps Algorithm 3 pinned reads correct across shards.
//!
//! ```text
//!   primary epochs ──► partition by table group ──► shard 0 (groups A,C)
//!                       (every txn everywhere,  ──► shard 1 (groups B)
//!                        unowned ones as           ...
//!                        heartbeats)            ──► shard N-1
//!                                                      │ heartbeat: wm
//!   supervisor tick: faults → ingest → heartbeats → failover → min(wm)
//!                                                      │
//!   router: (qts, tables) ──► owning shards ──► merge, Algorithm 3 safe
//! ```
//!
//! Robustness model, in one paragraph: a shard that misses
//! [`FleetOptions::failover_after`] consecutive heartbeats is replaced
//! by re-opening its surviving WAL + checkpoint directories — newest
//! shipped checkpoint first, then only the WAL suffix through the
//! normal two-stage replay — after which it re-joins routing with every
//! registered [`FleetSession`] re-pinned on its fresh GC floor. While a
//! shard is dark the fleet watermark freezes, so reads stay
//! *consistent-but-stale*; [`DegradedPolicy`] decides whether a query
//! touching an unroutable shard fails loudly or returns an explicitly
//! partial answer. Silent staleness is structurally impossible.
//!
//! Chaos is first-class: [`FleetFaultPlan`] draws shard crashes, hangs,
//! lost heartbeats, and delayed watermark reports from a seed, so every
//! failover in a test run is reproducible from one integer.

// The fleet is the supervision layer; a panic here would be the outage
// it exists to prevent.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod faults;
pub mod fleet;
pub mod partition;
pub mod plan;
pub mod shard;

pub use faults::{FleetFaultKind, FleetFaultPlan};
pub use fleet::{DegradedPolicy, Fleet, FleetAnswer, FleetOptions, FleetSession, RoutedPart};
pub use partition::{partition_epoch, partition_stream};
pub use plan::ShardPlan;
pub use shard::{Shard, ShardConfig, ShardHealth};
