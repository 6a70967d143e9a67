//! The AETS log-replay framework (the paper's primary contribution).
//!
//! Pipeline overview, mirroring Figure 3 of the paper:
//!
//! ```text
//!   encoded epochs ──► dispatcher ──► per-group mini-txns (commit_order_queue)
//!                        (meta parse)        │
//!        access-rate predictor ──► adaptive thread allocation (λ·n weights)
//!                                            │
//!    stage 1: hot groups ─► persistent crew, one claimant per group:
//!                           TPLR phase 1 (translate, lock-free)
//!                           TPLR phase 2 (ordered commit, Alg. 1/2)
//!    stage 2: cold groups ─► same
//!                                            │
//!                              VisibilityBoard (tg_cmt_ts, global_cmt_ts,
//!                              Algorithm 3 admission for queries)
//! ```
//!
//! The baselines the paper compares against (ATR, C5, ungrouped TPLR, a
//! serial oracle) live in [`engines`] behind the same [`ReplayEngine`]
//! trait, so correctness tests can assert state equivalence across all of
//! them and benchmarks can sweep them uniformly.
//!
//! Every engine replays epochs that arrive already checked. The code that
//! takes epochs in from outside the process does the checking: a feed's
//! resync loop ([`ingest_epoch`], run by [`DurableBackup::ingest_from`]
//! and the fleet) checks the frame CRC and the sequence and re-requests a
//! bad delivery with bounded backoff; the WAL checks both on `append` and
//! again when [`DurableBackup::open`] reads the suffix back. AETS replay
//! is supervised — an unrecoverable group is quarantined with its
//! visibility watermark frozen while healthy groups keep replaying.

// Replay sits on the recovery path: every fallible operation outside
// tests must surface a typed error (or quarantine a group), never panic.
// Crate-wide deny (started as deny-on-durability-modules only, then
// warn-everywhere; the whole crate is clean now, so hold the line).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod alloc;
pub mod checkpoint;
pub mod control;
pub mod dispatch;
pub mod engines;
pub mod grouping;
pub mod metrics;
pub mod options;
pub mod recovery;
pub mod runner;
pub mod service;
pub mod target;
pub mod visibility;

pub use alloc::{allocate_threads, UrgencyMode};
pub use checkpoint::{Checkpoint, CheckpointMeta, CheckpointStore};
pub use control::{plan_grouping, AdaptiveController, ControllerConfig};
pub use dispatch::{
    dispatch_epoch, ingest_epoch, DispatchedEpoch, GroupWork, IngestStats, MiniTxn, RetryPolicy,
};
pub use engines::aets::{AetsConfig, AetsEngine, Reconfigure, ReconfigureHandle};
pub use engines::atr::AtrEngine;
pub use engines::c5::C5Engine;
pub use engines::pool::CellPool;
pub use engines::serial::SerialEngine;
pub use engines::{apply_entry, commit_cell, translate_mini_txns, Cell, ReplayEngine};
pub use grouping::{dbscan_1d, TableGrouping};
pub use metrics::ReplayMetrics;
pub use options::{ServiceOptions, ServiceOptionsBuilder};
pub use recovery::{DurableBackup, DurableOptions, RecoveryReport};
pub use runner::{run_realtime, RunnerConfig, RunnerOutcome, RunnerQuery, Workload};
pub use service::{
    BackupNode, BackupNodeBuilder, NodeOptions, OutputKind, QueryHandle, QueryOutput, QuerySpec,
    ReadSession,
};
pub use target::{eval_spec, QueryTarget};
pub use visibility::{VisibilityBoard, VisibilityBoardBuilder, WaitOutcome};
