//! One supervised backup shard: a [`DurableBackup`] plus its serving
//! [`BackupNode`], the pending sub-stream it has not yet acked, and the
//! liveness state the fleet supervisor tracks.
//!
//! A *crash* drops the in-memory objects only — the WAL and checkpoint
//! directories survive, exactly like a process death on a real node.
//! Failover re-runs [`DurableBackup::open`] on the same directories:
//! newest shipped checkpoint first, then the WAL suffix through the
//! normal two-stage replay path. Epochs stay queued in `pending` until
//! their ingest returns `Ok`, so anything un-acked at death is simply
//! redelivered to the replacement (ingest is idempotent at the epoch
//! boundary: the WAL append is the ack, and the default
//! `FsyncPolicy::EveryEpoch` makes acked epochs durable).

use std::collections::VecDeque;
use std::path::{Path, PathBuf};

use aets_common::{Result, Timestamp};
use aets_replay::{
    AetsConfig, AetsEngine, BackupNode, DurableBackup, DurableOptions, NodeOptions, RecoveryReport,
    TableGrouping,
};
use aets_wal::{EncodedEpoch, VerifiedEpoch};

/// Per-shard tunables.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Durability options for the shard's [`DurableBackup`].
    pub durable: DurableOptions,
    /// Query-service options for the shard's [`BackupNode`].
    pub node: NodeOptions,
    /// Replay threads per shard engine.
    pub threads: usize,
}

/// Epochs a shard ingests per supervisor tick (the ingest "cycle budget").
const INGEST_BATCH: usize = 4;

/// Pending epochs beyond which a shard reports [`ShardHealth::Lagging`].
const LAG_THRESHOLD: usize = 16;

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            durable: DurableOptions::default(),
            node: NodeOptions { query_workers: 2, ..Default::default() },
            threads: 2,
        }
    }
}

/// Supervisor-visible health of a shard, ordered worst-first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Process dead; directories awaiting failover.
    Down,
    /// Alive but wedged: not ingesting, not heartbeating.
    Hung,
    /// Serving, but its pending backlog exceeds the lag threshold.
    Lagging,
    /// Serving and keeping up.
    Healthy,
}

impl ShardHealth {
    /// Gauge encoding: 0 = down, 1 = hung, 2 = lagging, 3 = healthy.
    pub fn level(self) -> u64 {
        match self {
            ShardHealth::Down => 0,
            ShardHealth::Hung => 1,
            ShardHealth::Lagging => 2,
            ShardHealth::Healthy => 3,
        }
    }

    /// Whether the router may send queries here.
    pub fn routable(self) -> bool {
        matches!(self, ShardHealth::Healthy | ShardHealth::Lagging)
    }
}

/// One supervised backup shard.
pub struct Shard {
    id: usize,
    wal_dir: PathBuf,
    ckpt_dir: PathBuf,
    grouping: TableGrouping,
    num_tables: usize,
    cfg: ShardConfig,
    /// `None` while crashed (between death and failover).
    backup: Option<DurableBackup>,
    node: Option<BackupNode>,
    /// Sub-stream epochs delivered but not yet acked by `ingest`.
    pending: VecDeque<EncodedEpoch>,
    /// Tick until which the shard is wedged (exclusive).
    pub(crate) hung_until: Option<u64>,
    /// Watermark from the last heartbeat that arrived (monotone).
    pub(crate) reported: Timestamp,
    /// Consecutive missed heartbeats.
    pub(crate) missed: u32,
}

impl Shard {
    /// Boots a shard under `root` (WAL in `root/wal`, checkpoints in
    /// `root/ckpt` — both created on demand, both reused on failover).
    pub fn open(
        id: usize,
        root: &Path,
        grouping: TableGrouping,
        num_tables: usize,
        cfg: ShardConfig,
    ) -> Result<Self> {
        let mut shard = Self {
            id,
            wal_dir: root.join("wal"),
            ckpt_dir: root.join("ckpt"),
            grouping,
            num_tables,
            cfg,
            backup: None,
            node: None,
            pending: VecDeque::new(),
            hung_until: None,
            reported: Timestamp::ZERO,
            missed: 0,
        };
        shard.boot()?;
        Ok(shard)
    }

    /// (Re)opens the durable backup on the shard's directories and starts
    /// serving. Used both at fleet start and for failover bootstrap.
    pub fn boot(&mut self) -> Result<()> {
        let engine = AetsEngine::builder(self.grouping.clone())
            .config(AetsConfig { threads: self.cfg.threads, ..Default::default() })
            .build()?;
        let backup = DurableBackup::open(
            &self.wal_dir,
            &self.ckpt_dir,
            engine,
            self.num_tables,
            self.cfg.durable.clone(),
            None,
        )?;
        let node = backup.serve(self.cfg.node.clone())?;
        self.backup = Some(backup);
        self.node = Some(node);
        self.hung_until = None;
        Ok(())
    }

    /// Simulated process death: in-memory state dropped, disk retained.
    pub fn kill(&mut self) {
        // Node first: its worker threads hold Arcs into the backup's db.
        self.node = None;
        self.backup = None;
        self.hung_until = None;
    }

    /// Shard id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Whether the process is alive (possibly hung).
    pub fn is_up(&self) -> bool {
        self.backup.is_some()
    }

    /// Whether the shard is wedged at `tick`.
    pub fn is_hung(&self, tick: u64) -> bool {
        self.hung_until.is_some_and(|until| tick < until)
    }

    /// The serving node, if the shard is up and not wedged at `tick`.
    pub fn serving(&self, tick: u64) -> Option<&BackupNode> {
        if self.is_hung(tick) {
            return None;
        }
        self.node.as_ref()
    }

    /// The durable backup, regardless of hang state.
    pub fn backup(&self) -> Option<&DurableBackup> {
        self.backup.as_ref()
    }

    /// Health at `tick`.
    pub fn health(&self, tick: u64) -> ShardHealth {
        if !self.is_up() {
            ShardHealth::Down
        } else if self.is_hung(tick) {
            ShardHealth::Hung
        } else if self.pending.len() > LAG_THRESHOLD {
            ShardHealth::Lagging
        } else {
            ShardHealth::Healthy
        }
    }

    /// Queues one sub-epoch for ingest.
    pub fn enqueue(&mut self, epoch: EncodedEpoch) {
        self.pending.push_back(epoch);
    }

    /// Delivered-but-unacked backlog.
    pub fn backlog(&self) -> usize {
        self.pending.len()
    }

    /// Ingests up to `INGEST_BATCH` pending epochs; an epoch is popped
    /// only after its ingest acked. Returns epochs acked. Skips
    /// silently when down or wedged (the supervisor decides what to do
    /// about that).
    pub fn ingest_some(&mut self, tick: u64) -> Result<usize> {
        if self.is_hung(tick) {
            return Ok(0);
        }
        let Some(backup) = self.backup.as_mut() else {
            return Ok(0);
        };
        let mut acked = 0;
        while acked < INGEST_BATCH {
            let Some(front) = self.pending.front() else { break };
            // The fleet encoded the sub-epoch itself; the check that
            // proves it is the one the WAL append used to run.
            backup.ingest(&VerifiedEpoch::new(front.clone())?)?;
            self.pending.pop_front();
            acked += 1;
        }
        Ok(acked)
    }

    /// The shard's own replayed watermark (what a heartbeat would report
    /// right now), or the last reported one if the process is dead.
    pub fn local_watermark(&self) -> Timestamp {
        self.backup.as_ref().map_or(self.reported, |b| b.board().global_cmt_ts())
    }

    /// Recovery report of the current incarnation.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.backup.as_ref().map(|b| b.recovery())
    }
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("id", &self.id)
            .field("up", &self.is_up())
            .field("backlog", &self.pending.len())
            .field("reported", &self.reported)
            .field("missed", &self.missed)
            .finish()
    }
}
