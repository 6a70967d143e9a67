//! Restart recovery and the durable backup node.
//!
//! [`DurableBackup`] is a WAL and a checkpoint store around a
//! [`BackupNode`]: every ingested epoch is appended to the WAL segment
//! store *before* the node replays it, checkpoints of the node's
//! Memtable are cut at epoch barriers at a configurable cadence, and
//! [`DurableBackup::open`] is the recovery bootstrap — it loads the
//! newest valid checkpoint manifest (falling back across corrupt ones),
//! builds the node over the restored Memtable, seeds its visibility
//! board from the stored replay positions, and re-replays only the WAL
//! *suffix* from the checkpoint's `next_epoch_seq` through the normal
//! two-stage path. Recovery cost is therefore bounded by the checkpoint
//! cadence, not by the length of history. Board, GC floor, telemetry,
//! flight recorder, live endpoint and adaptive controller are the
//! node's; this module owns only what makes it durable.
//!
//! Degraded-mode interaction (the quarantine clamp): while any group is
//! quarantined its `tg_cmt_ts` is frozen but the *log suffix it has not
//! replayed is still in the WAL*. Cutting a checkpoint there — and
//! truncating the WAL behind it — would discard that suffix forever, so
//! checkpoints are skipped while degraded and the skip is counted in
//! the registry's `aets_checkpoints_skipped_degraded_total`. GC is
//! clamped the same way through [`VisibilityBoard::gc_watermark`].

use crate::checkpoint::{CheckpointMeta, CheckpointStore};
use crate::dispatch::{ingest_epoch, IngestStats, RetryPolicy};
use crate::engines::aets::AetsEngine;
use crate::engines::ReplayEngine;
use crate::options::ServiceOptions;
use crate::service::{BackupNode, NodeOptions};
use crate::visibility::VisibilityBoard;
use aets_common::{Error, GroupId, Result, Timestamp};
use aets_memtable::{MemDb, QueryFloor, SnapshotWalk};
use aets_telemetry::trace::stages;
use aets_telemetry::{names, EventKind, Telemetry};
use aets_wal::crash::CrashClock;
use aets_wal::{EncodedEpoch, EpochSource, SegmentConfig, SegmentStore};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Durability policy of a [`DurableBackup`].
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Cut a checkpoint every `checkpoint_every` ingested epochs
    /// (`0` = only on explicit [`DurableBackup::checkpoint_now`]).
    pub checkpoint_every: u64,
    /// Manifests to keep on disk (older ones are pruned after each
    /// successful checkpoint; at least one is always kept).
    pub keep_checkpoints: usize,
    /// WAL segment-store layout and fsync policy.
    pub segment: SegmentConfig,
    /// Run a version-chain GC pass right before cutting each checkpoint,
    /// pruning at [`VisibilityBoard::gc_watermark`] so the snapshot ships
    /// consolidated chains.
    pub gc_before_checkpoint: bool,
    /// Consolidated service-layer knobs, handed as they are to the node
    /// the backup wraps: telemetry handle, observability endpoint, flight
    /// recorder, and the adaptive control loop.
    pub service: ServiceOptions,
}

impl Default for DurableOptions {
    fn default() -> Self {
        Self {
            checkpoint_every: 32,
            keep_checkpoints: 2,
            segment: SegmentConfig::default(),
            gc_before_checkpoint: true,
            service: ServiceOptions::default(),
        }
    }
}

/// What restart recovery actually did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// `next_epoch_seq` of the checkpoint the state was restored from;
    /// `None` for a cold start (no valid checkpoint on disk).
    pub restored_seq: Option<u64>,
    /// Corrupt manifests skipped before a valid one was found.
    pub manifest_fallbacks: u64,
    /// Epochs re-replayed from the WAL suffix.
    pub suffix_epochs: u64,
    /// Wall time of the whole bootstrap (load + suffix replay).
    pub recovery_wall: Duration,
}

/// A backup node with crash-consistent durability: WAL-first ingest,
/// epoch-aligned checkpoints, suffix-only restart recovery.
#[derive(Debug)]
pub struct DurableBackup {
    /// Kept beside the node's type-erased handle for what only the AETS
    /// engine has: the quarantine ledger the checkpoint policy reads.
    engine: Arc<AetsEngine>,
    /// Headless (no query workers): replays every ingested epoch, owns
    /// the Memtable, the board, the read sessions' GC floor, telemetry,
    /// the live endpoint and the controller. [`DurableBackup::serve`]
    /// starts serving nodes over the same state.
    node: BackupNode,
    wal: SegmentStore,
    ckpt: CheckpointStore,
    opts: DurableOptions,
    report: RecoveryReport,
    /// Sequence the next ingested epoch must carry.
    next_seq: u64,
    /// `next_epoch_seq` of the last durable checkpoint (0 = none).
    last_ckpt_seq: u64,
    /// Manually published replica floor ([`DurableBackup::set_query_floor`]);
    /// clamps GC together with the pinned read sessions' floor.
    query_floor: Timestamp,
    /// Latest ingested epoch's `max_commit_ts` in micros — the "primary
    /// now" the visibility-lag clock reads. An un-paced ingest loop has no
    /// wall-clock relation to the primary, so within-epoch commit lag
    /// (publish ts vs the epoch's high-water mark) is the freshness
    /// measure.
    primary_watermark: Arc<AtomicU64>,
}

impl DurableBackup {
    /// Recovery bootstrap: restores the newest valid checkpoint, seeds
    /// the visibility board from its replay positions, and re-replays
    /// the WAL suffix through the engine's normal two-stage path.
    ///
    /// `engine` must be fresh (nothing replayed, nothing quarantined) and
    /// grouped identically to the run that produced the on-disk state.
    /// `clock` meters every filesystem operation for crash injection;
    /// pass `None` in production.
    pub fn open(
        wal_dir: impl Into<PathBuf>,
        ckpt_dir: impl Into<PathBuf>,
        engine: AetsEngine,
        num_tables: usize,
        opts: DurableOptions,
        clock: Option<Arc<CrashClock>>,
    ) -> Result<Self> {
        let t0 = Instant::now();
        let num_groups = engine.grouping().num_groups();
        let ckpt = CheckpointStore::open(ckpt_dir, clock.clone())?;
        let (loaded, fallbacks) = ckpt.load_latest()?;
        let (db, meta) = match loaded {
            Some(c) => {
                if c.meta.tg_cmt_ts.len() != num_groups {
                    return Err(Error::Config(format!(
                        "checkpoint has {} groups, engine has {num_groups}: \
                         grouping changed between runs",
                        c.meta.tg_cmt_ts.len()
                    )));
                }
                (c.db, Some(c.meta))
            }
            None => (MemDb::new(num_tables), None),
        };
        // Seed the freshness clock at the restored high-water mark so the
        // board-seeding publishes below record zero lag instead of a
        // bogus warm-up sample.
        let primary_watermark =
            Arc::new(AtomicU64::new(meta.as_ref().map_or(0, |m| m.global_cmt_ts.as_micros())));
        let wm = primary_watermark.clone();
        let engine = Arc::new(engine);
        // The node comes first: its flight recorder is armed before
        // anything replays, so an anomaly during the recovery suffix
        // itself already dumps a bundle, and `/healthz` answers while the
        // suffix replays.
        let node = BackupNode::builder()
            .engine(engine.clone())
            .db(Arc::new(db))
            .clock(Arc::new(move || wm.load(Ordering::Relaxed)))
            .options(NodeOptions { service: opts.service.clone(), ..Default::default() })
            .headless()
            .build()?;
        let telemetry = node.telemetry();
        let board = node.board();
        if fallbacks > 0 {
            telemetry.registry().counter(names::MANIFEST_FALLBACKS).add(fallbacks);
            telemetry.event(EventKind::RecoveryFallback { manifests_skipped: fallbacks });
        }
        if let Some(meta) = &meta {
            for (g, ts) in meta.tg_cmt_ts.iter().enumerate() {
                board.publish_group(GroupId::new(g as u32), *ts);
            }
            board.publish_global(meta.global_cmt_ts);
            // Recovery replays the suffix through a fresh engine, so a
            // group the manifest recorded as quarantined is healthy again
            // (the policy today never writes one, but the format carries
            // the field).
            for &g in &meta.quarantined {
                telemetry.event(EventKind::GroupUnquarantined { group: g as usize });
            }
        }
        let restored_seq = meta.map(|m| m.next_epoch_seq);
        let start_seq = restored_seq.unwrap_or(0);

        let mut wal = SegmentStore::open(wal_dir, opts.segment, clock)?;
        // Group-commit observability: every fsync point reports how many
        // frames it made durable (always 1 under `FsyncPolicy::EveryEpoch`).
        let fsync_hist = telemetry.registry().histogram(names::WAL_FSYNC_COALESCED_FRAMES);
        wal.set_sync_observer(Box::new(move |frames| fsync_hist.record_micros(frames)));
        // The WAL must cover everything past the checkpoint: a retained
        // prefix starting *after* `start_seq` means log was truncated
        // beyond the newest restorable checkpoint and recovery cannot be
        // gap-free.
        if let Some(first) = wal.first_retained_seq() {
            if first > start_seq {
                return Err(Error::Replay(format!(
                    "WAL starts at epoch {first} but checkpoint covers only \
                     up to {start_seq}: suffix has a gap"
                )));
            }
        }

        // `read_suffix` re-validates every frame's CRC and sequence, so
        // the suffix goes straight to the engine. Like any replay outside
        // `node.replay`, it does not tick the controller.
        let suffix = wal.read_suffix(start_seq)?;
        let suffix_epochs = suffix.len() as u64;
        if suffix_epochs > 0 {
            engine.replay(&suffix, node.db(), board)?;
        }
        telemetry.registry().counter(names::RECOVERY_SUFFIX_EPOCHS).add(suffix_epochs);

        let next_seq = start_seq + suffix_epochs;
        let report = RecoveryReport {
            restored_seq,
            manifest_fallbacks: fallbacks,
            suffix_epochs,
            recovery_wall: t0.elapsed(),
        };
        let mut backup = Self {
            engine,
            node,
            wal,
            ckpt,
            opts,
            report,
            next_seq,
            last_ckpt_seq: start_seq,
            query_floor: Timestamp::MAX,
            primary_watermark,
        };
        // If the replayed suffix already spans a full cadence the
        // checkpoint is overdue: cut it now, before any new ingest, so a
        // repeated crash-during-checkpoint can never grow the suffix past
        // `checkpoint_every` across restarts.
        if backup.opts.checkpoint_every > 0
            && backup.next_seq - backup.last_ckpt_seq >= backup.opts.checkpoint_every
        {
            backup.checkpoint_now()?;
        }
        Ok(backup)
    }

    /// Ingests one epoch: durable WAL append first, then replay through
    /// the node (which ticks the controller, when one runs), then (at the
    /// configured cadence) a checkpoint.
    ///
    /// A [crash](aets_common::Error::Crash) error means the metered
    /// process died; on a real node the supervisor restarts via
    /// [`DurableBackup::open`], which recovers everything that was acked.
    pub fn ingest(&mut self, epoch: &EncodedEpoch) -> Result<()> {
        let seq = epoch.id.raw();
        let telemetry = self.node.telemetry();
        let ring = telemetry.spans();
        // The append span includes any embedded fsync the policy takes;
        // when the durable watermark advanced, a child fsync point marks
        // the epoch as the one that paid for it.
        let synced_before = self.wal.synced_seq();
        let aspan = ring.begin(seq, stages::WAL_APPEND, None, None);
        self.wal.append(epoch)?;
        let append_id = aspan.map(|s| {
            let id = s.id();
            s.finish(ring);
            id
        });
        if self.wal.synced_seq() != synced_before {
            ring.point(seq, stages::WAL_FSYNC, None, append_id);
        }
        telemetry.registry().counter(names::WAL_EPOCHS_APPENDED).inc();
        // Advance "primary now" to this epoch's high-water mark before
        // replaying it, so each group publish records its within-epoch
        // commit lag against the freshest known primary timestamp.
        self.primary_watermark.fetch_max(epoch.max_commit_ts.as_micros(), Ordering::Relaxed);
        self.node.replay(std::slice::from_ref(epoch))?;
        self.next_seq = epoch.id.raw() + 1;

        if self.opts.checkpoint_every > 0
            && self.next_seq - self.last_ckpt_seq >= self.opts.checkpoint_every
        {
            self.checkpoint_now()?;
        }
        Ok(())
    }

    /// Pulls every epoch the source currently advertises through the
    /// resync loop ([`ingest_epoch`]) and ingests each one durably via
    /// [`DurableBackup::ingest`]. Epochs the node has already ingested
    /// (below [`DurableBackup::next_seq`]) are skipped, so a resumed
    /// network stream that re-ships its in-flight window is absorbed
    /// idempotently. Returns the number of epochs ingested by this call.
    ///
    /// Delivery faults (stalls, checksum failures, gaps) are retried per
    /// `retry`; exhausted retries surface as an error after everything
    /// ingested so far has been made durable. The resync loop's counts
    /// land in the registry's `aets_ingest_*` counters, their only home.
    pub fn ingest_from(
        &mut self,
        source: &mut dyn EpochSource,
        retry: &RetryPolicy,
    ) -> Result<u64> {
        let end = source.first_seq() + source.num_epochs() as u64;
        let mut stats = IngestStats::default();
        let mut ingested = 0u64;
        let mut outcome = Ok(());
        while self.next_seq < end {
            match ingest_epoch(source, self.next_seq, retry, &mut stats) {
                Ok(epoch) => {
                    if let Err(e) = self.ingest(&epoch) {
                        outcome = Err(e);
                        break;
                    }
                    ingested += 1;
                }
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        stats.record(self.node.telemetry().registry());
        outcome.map(|()| ingested)
    }

    /// Cuts a checkpoint at the current epoch barrier, prunes old
    /// manifests, and retires WAL segments behind the new watermark.
    /// Returns `false` (and counts the skip) while any group is
    /// quarantined: truncating the WAL past a frozen group's watermark
    /// would lose the suffix it has not replayed.
    pub fn checkpoint_now(&mut self) -> Result<bool> {
        let telemetry = self.node.telemetry();
        let reg = telemetry.registry();
        if !self.engine.quarantined_groups().is_empty() {
            reg.counter(names::CHECKPOINTS_SKIPPED).inc();
            telemetry.event(EventKind::CheckpointSkippedDegraded);
            return Ok(false);
        }
        let t0 = Instant::now();
        let board = self.node.board();
        let meta = CheckpointMeta {
            next_epoch_seq: self.next_seq,
            global_cmt_ts: board.global_cmt_ts(),
            tg_cmt_ts: (0..board.num_groups())
                .map(|g| board.tg_cmt_ts(GroupId::new(g as u32)))
                .collect(),
            quarantined: vec![],
        };
        // One walk on the idle crew prunes and encodes. Both floors clamp
        // the GC: the manual replica floor and the oldest pinned session.
        // The barrier's own watermark, not `Timestamp::MAX`, bounds the
        // snapshot: a version appended after the cut must never reach it.
        let floor =
            self.opts.gc_before_checkpoint.then(|| self.node.gc_watermark(self.query_floor));
        let (db, walkers) = (self.node.db(), self.engine.threads());
        let walk =
            SnapshotWalk::plan(db, meta.global_cmt_ts, floor, walkers, self.ckpt.bytes_per_node());
        self.engine.lend_crew(&|| walk.work())?;
        let snapshot = walk.finish();
        if floor.is_some() {
            self.node.record_gc(snapshot.gc, t0.elapsed());
        }
        // Group-commit invariant: the WAL prefix below the checkpoint
        // barrier must be durable before the manifest is — otherwise a
        // crash could leave a checkpoint that outruns the durable log,
        // and the resumed stream would hit an epoch gap.
        self.wal.sync()?;
        let manifest = self.ckpt.write_snapshot(&meta, &snapshot)?;
        reg.counter(names::CHECKPOINTS_WRITTEN).inc();
        if let Ok(on_disk) = std::fs::metadata(&manifest) {
            reg.gauge(names::CHECKPOINT_BYTES).set(on_disk.len());
        }
        telemetry.event(EventKind::CheckpointWritten { next_epoch_seq: self.next_seq });
        self.last_ckpt_seq = self.next_seq;
        self.ckpt.retain(self.opts.keep_checkpoints)?;
        // Retire WAL only behind the OLDEST retained manifest: if the
        // newest one is later found corrupt, recovery falls back to an
        // older checkpoint and still needs the log from that point on.
        let oldest = self.ckpt.list()?.first().map_or(self.next_seq, |(s, _)| *s);
        let retired = self.wal.truncate_before(oldest)? as u64;
        if retired > 0 {
            reg.counter(names::WAL_SEGMENTS_RETIRED).add(retired);
            telemetry.event(EventKind::WalSegmentRetired { segments: retired });
        }
        reg.histogram(names::CHECKPOINT_US).record_micros(t0.elapsed().as_micros() as u64);
        Ok(true)
    }

    /// Publishes the oldest still-active analytical query's `qts` so GC
    /// never prunes a version an admitted query may read. Pass
    /// [`Timestamp::MAX`] when no query is active. Sessions opened
    /// through [`DurableBackup::serve`] pin the floor automatically; this
    /// manual override exists for externally coordinated readers.
    pub fn set_query_floor(&mut self, qts: Timestamp) {
        self.query_floor = qts;
    }

    /// Starts a query-serving [`BackupNode`] over this durable backup's
    /// live state: the node shares the engine, database, visibility
    /// board, telemetry, and GC floor, so sessions opened on it read the
    /// epochs ingested here — including everything recovered from the
    /// checkpoint + WAL suffix after a restart — and their pinned `qts`
    /// clamps the pre-checkpoint GC pass.
    ///
    /// `opts.service` may mount an endpoint and a flight recorder of its
    /// own, but not a second controller: with one already running on the
    /// backup that is an [`Error::Config`], since two would fight over
    /// the engine's plan.
    pub fn serve(&self, opts: NodeOptions) -> Result<BackupNode> {
        if self.opts.service.controller.is_some() && opts.service.controller.is_some() {
            return Err(Error::Config(
                "the durable backup already runs this engine's adaptive controller".into(),
            ));
        }
        BackupNode::builder()
            .engine(self.engine.clone())
            .db(self.node.db().clone())
            .board(self.node.board().clone())
            .floor(self.node.floor().clone())
            .telemetry(self.node.telemetry().clone())
            .options(opts)
            .build()
    }

    /// The Memtable.
    pub fn db(&self) -> &MemDb {
        self.node.db()
    }

    /// The visibility board queries wait on.
    pub fn board(&self) -> &Arc<VisibilityBoard> {
        self.node.board()
    }

    /// The replay engine.
    pub fn engine(&self) -> &AetsEngine {
        &self.engine
    }

    /// The backup's telemetry instance: [`ServiceOptions::telemetry`],
    /// else the engine's (disabled unless the engine was built with
    /// `AetsEngine::builder(..).telemetry(..)`).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        self.node.telemetry()
    }

    /// What the bootstrap recovery did.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.report
    }

    /// Sequence the next ingested epoch must carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// `next_epoch_seq` of the last durable checkpoint.
    pub fn last_checkpoint_seq(&self) -> u64 {
        self.last_ckpt_seq
    }

    /// Complete control windows the adaptive controller has observed;
    /// `None` when [`ServiceOptions::controller`] was unset.
    pub fn adaptive_windows(&self) -> Option<usize> {
        self.node.adaptive_windows()
    }

    /// Bound address of the live observability endpoint, when
    /// [`ServiceOptions::obs_addr`] asked for one.
    pub fn obs_addr(&self) -> Option<std::net::SocketAddr> {
        self.node.obs_addr()
    }

    /// Highest epoch sequence the WAL knows durable (covered by an fsync
    /// point). Under [`aets_wal::FsyncPolicy::Coalesced`] this is the
    /// crash-loss bound: acknowledged epochs past it may be re-requested
    /// from the primary after a crash, but never epochs at or below it.
    pub fn wal_synced_seq(&self) -> Option<u64> {
        self.wal.synced_seq()
    }

    /// The read sessions' GC floor registry, shared with every
    /// [`BackupNode`] started via [`DurableBackup::serve`]. A fleet
    /// coordinator pins cross-shard session `qts` values here directly so
    /// the pins survive the serving node being torn down and rebuilt.
    pub fn floor(&self) -> &Arc<QueryFloor> {
        self.node.floor()
    }

    /// First epoch sequence the WAL still retains, or `None` for an empty
    /// store. Pair with [`DurableBackup::oldest_checkpoint_seq`] to check
    /// the retention invariant: the log always covers every retained
    /// manifest's suffix.
    pub fn wal_first_retained_seq(&self) -> Option<u64> {
        self.wal.first_retained_seq()
    }

    /// `next_epoch_seq` of the oldest checkpoint manifest still on disk,
    /// or `None` when no manifest exists. WAL segments are only ever
    /// retired behind this barrier — never behind just the newest one —
    /// so a corrupt newest manifest can still fall back and re-replay.
    pub fn oldest_checkpoint_seq(&self) -> Result<Option<u64>> {
        Ok(self.ckpt.list()?.first().map(|(s, _)| *s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::aets::AetsConfig;
    use crate::engines::ReplayEngine;
    use crate::grouping::TableGrouping;
    use aets_common::TableId;
    use aets_wal::{batch_into_epochs, encode_epoch};
    use aets_workloads::tpcc::{self, TpccConfig};

    fn scratch(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("aets-rec-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tpcc_stream(num_txns: usize) -> (Vec<EncodedEpoch>, usize, TableGrouping) {
        let w = tpcc::generate(&TpccConfig {
            num_txns,
            warehouses: 2,
            oltp_tps: 20_000.0,
            ..Default::default()
        });
        let raw = batch_into_epochs(w.txns.clone(), 64).unwrap();
        let epochs: Vec<_> = raw.iter().map(encode_epoch).collect();
        let (groups, rates) = tpcc::paper_grouping();
        let grouping =
            TableGrouping::new(w.num_tables(), groups, rates, &w.analytic_tables).unwrap();
        (epochs, w.num_tables(), grouping)
    }

    fn fresh_engine(grouping: &TableGrouping) -> AetsEngine {
        AetsEngine::builder(grouping.clone())
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap()
    }

    /// A fresh engine reporting into `tel`: durability counters live only
    /// in the registry, so tests that assert them build with one.
    fn instrumented_engine(grouping: &TableGrouping, tel: &Arc<Telemetry>) -> AetsEngine {
        AetsEngine::builder(grouping.clone())
            .config(AetsConfig { threads: 2, ..Default::default() })
            .telemetry(tel.clone())
            .build()
            .unwrap()
    }

    /// A 600-txn stream with one record of a cold table corrupted
    /// mid-stream (frame CRC restamped, so only replay notices), and the
    /// index of the epoch holding it: that table's group quarantines
    /// there.
    fn poisoned_stream() -> (Vec<EncodedEpoch>, usize, usize, TableGrouping) {
        let (mut epochs, num_tables, grouping) = tpcc_stream(600);
        // The first DML of the highest-numbered table.
        let victim = TableId::new((num_tables - 1) as u32);
        let (eidx, poisoned) = epochs
            .iter()
            .enumerate()
            .find_map(|(i, e)| Some((i, aets_wal::faults::corrupt_record_of(e, victim)?)))
            .expect("some epoch touches the victim table");
        epochs[eidx] = poisoned;
        (epochs, eidx, num_tables, grouping)
    }

    fn oracle_digest(epochs: &[EncodedEpoch], num_tables: usize, grouping: &TableGrouping) -> u64 {
        let engine = fresh_engine(grouping);
        let db = MemDb::new(num_tables);
        let board = VisibilityBoard::builder(grouping.num_groups()).build();
        engine.replay(epochs, &db, &board).unwrap();
        db.digest_at(Timestamp::MAX)
    }

    #[test]
    fn restart_resumes_from_checkpoint_and_replays_only_the_suffix() {
        // 36 epochs: a multiple of neither cadence, so the restart has a
        // suffix to replay past the last checkpoint.
        let (epochs, num_tables, grouping) = tpcc_stream(2_300);
        let want = oracle_digest(&epochs, num_tables, &grouping);
        // Two shapes, each keeping 2 manifests and collecting before every
        // checkpoint (the defaults): a checkpoint every 8 epochs over
        // 4-epoch segments, and every 16 over 8-epoch segments.
        for (every, per_segment) in [(8, 4), (16, 8)] {
            let wal_dir = scratch("resume-wal");
            let ckpt_dir = scratch("resume-ckpt");
            let opts = DurableOptions {
                checkpoint_every: every,
                segment: SegmentConfig { epochs_per_segment: per_segment, ..Default::default() },
                ..Default::default()
            };
            let open = |tel: &Arc<Telemetry>| {
                let engine = instrumented_engine(&grouping, tel);
                DurableBackup::open(&wal_dir, &ckpt_dir, engine, num_tables, opts.clone(), None)
                    .unwrap()
            };

            // First life: ingest the whole stream, checkpointing as we go.
            {
                let tel = Arc::new(Telemetry::new());
                let mut node = open(&tel);
                assert!(node.recovery().restored_seq.is_none(), "cold start");
                for e in &epochs {
                    node.ingest(e).unwrap();
                }
                let snap = tel.snapshot();
                assert_eq!(
                    snap.counter_total(names::CHECKPOINTS_WRITTEN),
                    epochs.len() as u64 / every,
                    "one checkpoint per full cadence"
                );
                assert!(snap.counter_total(names::WAL_SEGMENTS_RETIRED) > 0, "WAL must shrink");
                assert_eq!(snap.counter_total(names::RECOVERY_SUFFIX_EPOCHS), 0, "cold start");
                assert_eq!(node.db().digest_at(Timestamp::MAX), want);
                // Dropped without any shutdown handshake: the crash.
            }

            // Second life: restart. Only the post-checkpoint suffix replays.
            let tel = Arc::new(Telemetry::new());
            let node = open(&tel);
            let rec = node.recovery();
            let restored = rec.restored_seq.expect("must restore from a checkpoint");
            assert_eq!(
                tel.snapshot().counter_total(names::RECOVERY_SUFFIX_EPOCHS),
                epochs.len() as u64 - restored,
                "the registry counts the replayed suffix"
            );
            assert_eq!(
                rec.suffix_epochs,
                epochs.len() as u64 - restored,
                "recovery must replay exactly the epochs after the checkpoint"
            );
            assert!(rec.suffix_epochs > 0, "every {every}: the restart replays a suffix");
            assert_eq!(node.db().digest_at(Timestamp::MAX), want, "restored digest matches oracle");
            assert_eq!(node.next_seq(), epochs.len() as u64);
            drop(node);
            let _ = std::fs::remove_dir_all(&wal_dir);
            let _ = std::fs::remove_dir_all(&ckpt_dir);
        }
    }

    #[test]
    fn a_torn_or_bit_flipped_epoch_is_refused_before_anything_changes() {
        // A direct `ingest` is a path into the process of its own: the
        // WAL append is the check the engine no longer repeats.
        let (epochs, num_tables, grouping) = tpcc_stream(300);
        let wal_dir = scratch("corrupt-wal");
        let ckpt_dir = scratch("corrupt-ckpt");
        let mut node = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            fresh_engine(&grouping),
            num_tables,
            DurableOptions::default(),
            None,
        )
        .unwrap();
        let half = epochs.len() / 2;
        for e in &epochs[..half] {
            node.ingest(e).unwrap();
        }
        let next = &epochs[half];
        let torn =
            EncodedEpoch { bytes: next.bytes[..next.bytes.len() - 1].into(), ..next.clone() };
        let mut flipped = next.bytes.to_vec();
        flipped[next.bytes.len() / 2] ^= 0x10;
        let flipped = EncodedEpoch { bytes: flipped.into(), ..next.clone() };
        let state = |n: &DurableBackup| {
            let b = n.board();
            let watermarks: Vec<Timestamp> = (0..b.num_groups())
                .map(|g| b.tg_cmt_ts(GroupId::new(g as u32)))
                .chain([b.global_cmt_ts()])
                .collect();
            (n.next_seq(), n.wal.epoch_count(), n.db().digest_at(Timestamp::MAX), watermarks)
        };
        let before = state(&node);
        for (what, bad) in [("torn", torn), ("bit-flipped", flipped)] {
            assert_eq!(node.ingest(&bad).unwrap_err(), Error::CodecChecksum, "{what}");
            assert_eq!(state(&node), before, "{what} epoch changed the backup");
        }
        // The clean delivery of the same epoch still goes in.
        node.ingest(next).unwrap();
        assert_eq!(node.next_seq(), half as u64 + 1);
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn a_version_appended_after_the_barrier_never_reaches_the_manifest() {
        use aets_memtable::{OpType, Version};
        let (epochs, num_tables, grouping) = tpcc_stream(600);
        let want = oracle_digest(&epochs, num_tables, &grouping);
        let wal_dir = scratch("cut-wal");
        let ckpt_dir = scratch("cut-ckpt");
        // No cadence and no GC: the one manifest below is exactly the cut.
        let opts = DurableOptions {
            checkpoint_every: 0,
            gc_before_checkpoint: false,
            ..Default::default()
        };
        let mut node = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            fresh_engine(&grouping),
            num_tables,
            opts.clone(),
            None,
        )
        .unwrap();
        for e in &epochs {
            node.ingest(e).unwrap();
        }
        let barrier = node.board().global_cmt_ts();
        let versions_at_barrier = node.db().total_versions();
        // What a replay racing the serialization would do: one more
        // version on an existing chain and one on a new key, both past the
        // barrier.
        let stray = |key| {
            let v = Version {
                txn_id: aets_common::TxnId::new(u64::MAX),
                commit_ts: Timestamp::from_micros(barrier.as_micros() + 1),
                op: OpType::Insert,
                cols: vec![],
            };
            node.db().table(TableId::new(0)).apply_version(key, v);
        };
        let existing = node.db().table(TableId::new(0)).entries()[0].0;
        stray(existing);
        stray(aets_common::RowKey::new(u64::MAX));
        assert!(node.checkpoint_now().unwrap());
        drop(node);

        let (ckpt, _) = CheckpointStore::open(&ckpt_dir, None).unwrap().load_latest().unwrap();
        let ckpt = ckpt.expect("the manifest loads");
        assert_eq!(ckpt.meta.global_cmt_ts, barrier);
        assert_eq!(ckpt.db.total_versions(), versions_at_barrier, "the cut is at the barrier");
        assert_eq!(ckpt.db.digest_at(Timestamp::MAX), want);
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn restart_after_restart_keeps_ingesting() {
        let (epochs, num_tables, grouping) = tpcc_stream(1_200);
        let want = oracle_digest(&epochs, num_tables, &grouping);
        let wal_dir = scratch("twice-wal");
        let ckpt_dir = scratch("twice-ckpt");
        let opts = DurableOptions {
            checkpoint_every: 5,
            segment: SegmentConfig { epochs_per_segment: 3, ..Default::default() },
            ..Default::default()
        };
        let mid = epochs.len() / 3;
        let later = 2 * epochs.len() / 3;
        {
            let mut node = DurableBackup::open(
                &wal_dir,
                &ckpt_dir,
                fresh_engine(&grouping),
                num_tables,
                opts.clone(),
                None,
            )
            .unwrap();
            for e in &epochs[..mid] {
                node.ingest(e).unwrap();
            }
        }
        {
            let mut node = DurableBackup::open(
                &wal_dir,
                &ckpt_dir,
                fresh_engine(&grouping),
                num_tables,
                opts.clone(),
                None,
            )
            .unwrap();
            assert_eq!(node.next_seq(), mid as u64);
            for e in &epochs[mid..later] {
                node.ingest(e).unwrap();
            }
        }
        let mut node = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            fresh_engine(&grouping),
            num_tables,
            opts,
            None,
        )
        .unwrap();
        assert_eq!(node.next_seq(), later as u64);
        for e in &epochs[later..] {
            node.ingest(e).unwrap();
        }
        assert_eq!(node.db().digest_at(Timestamp::MAX), want);
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn quarantine_skips_checkpoints_and_preserves_the_frozen_suffix() {
        let (epochs, eidx, num_tables, grouping) = poisoned_stream();

        let wal_dir = scratch("quar-wal");
        let ckpt_dir = scratch("quar-ckpt");
        let opts = DurableOptions { checkpoint_every: 3, ..Default::default() };
        let tel = Arc::new(Telemetry::new());
        let mut node = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            instrumented_engine(&grouping, &tel),
            num_tables,
            opts,
            None,
        )
        .unwrap();
        for e in &epochs {
            node.ingest(e).unwrap();
        }
        assert!(
            !node.engine().quarantined_groups().is_empty(),
            "the poisoned group must quarantine"
        );
        // No checkpoint may cover epochs past the quarantine instant, and
        // the WAL must still hold the frozen group's unreplayed suffix.
        let last = node.last_checkpoint_seq();
        assert!(last <= eidx as u64);
        // A skip does not advance `last`, so every ingest that ends both
        // past the poisoned epoch and a full cadence past `last` is one
        // skipped opportunity.
        let first_skip = (eidx as u64 + 1).max(last + 3);
        let skipped = epochs.len() as u64 + 1 - first_skip;
        assert!(skipped > 0, "cadence hits while degraded must be skipped, not taken");
        assert_eq!(tel.snapshot().counter_total(names::CHECKPOINTS_SKIPPED), skipped);
        let first_retained = node.wal.first_retained_seq().expect("WAL must not be empty");
        assert!(
            first_retained <= eidx as u64,
            "WAL retains the suffix from the poisoned epoch on \
             (first retained {first_retained}, poisoned {eidx})"
        );
        // An explicit checkpoint request is also refused, and counted.
        assert!(!node.checkpoint_now().unwrap());
        assert_eq!(tel.snapshot().counter_total(names::CHECKPOINTS_SKIPPED), skipped + 1);
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn a_quarantine_during_the_recovery_suffix_dumps_a_flight_bundle() {
        use aets_telemetry::flight::list_bundles;

        let (epochs, _, num_tables, grouping) = poisoned_stream();
        let wal_dir = scratch("suffix-flight-wal");
        let ckpt_dir = scratch("suffix-flight-ckpt");
        let flight_dir = scratch("suffix-flight-bundles");
        // First life: no checkpoint and no recorder, so the whole stream,
        // poisoned epoch included, is the next life's recovery suffix.
        let opts = DurableOptions { checkpoint_every: 0, ..Default::default() };
        {
            let mut node = DurableBackup::open(
                &wal_dir,
                &ckpt_dir,
                fresh_engine(&grouping),
                num_tables,
                opts.clone(),
                None,
            )
            .unwrap();
            for e in &epochs {
                node.ingest(e).unwrap();
            }
        }
        assert!(!flight_dir.exists());
        // Second life: the recorder must already be armed when the suffix
        // replays, because that is where the group quarantines this time.
        let tel = Arc::new(Telemetry::new());
        let opts = DurableOptions {
            service: ServiceOptions::builder().flight_dir(&flight_dir).build(),
            ..opts
        };
        let node = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            instrumented_engine(&grouping, &tel),
            num_tables,
            opts,
            None,
        )
        .unwrap();
        assert_eq!(node.recovery().suffix_epochs, epochs.len() as u64);
        assert!(!node.engine().quarantined_groups().is_empty());
        let bundles = list_bundles(&flight_dir).unwrap();
        assert!(!bundles.is_empty(), "the suffix's quarantine must leave a bundle");
        let body = std::fs::read_to_string(&bundles[0]).unwrap();
        assert!(body.contains("\"reason\": \"group_quarantined\""), "{body}");
        // The quarantine event in the bundle carries the root cause.
        let why = format!("\"reason\": \"{}\"", Error::CodecChecksum);
        assert!(body.contains(&why), "{body}");
        for dir in [&wal_dir, &ckpt_dir, &flight_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn serve_refuses_a_second_controller() {
        use crate::control::ControllerConfig;

        let (_, num_tables, grouping) = tpcc_stream(64);
        let wal_dir = scratch("two-ctl-wal");
        let ckpt_dir = scratch("two-ctl-ckpt");
        let controlled =
            || ServiceOptions::builder().controller(ControllerConfig::default()).build();
        let backup = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            fresh_engine(&grouping),
            num_tables,
            DurableOptions { service: controlled(), ..Default::default() },
            None,
        )
        .unwrap();
        assert_eq!(backup.adaptive_windows(), Some(0), "the backup runs the controller");
        let err =
            backup.serve(NodeOptions { service: controlled(), ..Default::default() }).unwrap_err();
        assert_eq!(err.kind(), "config");
        // Without one of its own the served node is fine, and runs none.
        let node = backup.serve(NodeOptions::default()).unwrap();
        assert_eq!(node.adaptive_windows(), None);
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn durable_node_emits_checkpoint_and_freshness_telemetry() {
        let (epochs, num_tables, grouping) = tpcc_stream(800);
        assert_eq!(epochs.len(), 13, "the exact counts below assume 13 epochs");
        let wal_dir = scratch("tel-wal");
        let ckpt_dir = scratch("tel-ckpt");
        let tel = Arc::new(Telemetry::new());
        let engine = instrumented_engine(&grouping, &tel);
        let opts = DurableOptions {
            checkpoint_every: 4,
            segment: SegmentConfig { epochs_per_segment: 2, ..Default::default() },
            ..Default::default()
        };
        let mut node =
            DurableBackup::open(&wal_dir, &ckpt_dir, engine, num_tables, opts, None).unwrap();
        for e in &epochs {
            node.ingest(e).unwrap();
        }
        let snap = tel.snapshot();
        // Cadence 4 over 13 epochs cuts at 4, 8 and 12, each behind one
        // GC pass. Two manifests are kept, so the WAL is retired behind
        // the older one (epoch 8): four two-epoch segments.
        assert_eq!(snap.counter_total(names::WAL_EPOCHS_APPENDED), 13);
        assert_eq!(snap.counter_total(names::CHECKPOINTS_WRITTEN), 3);
        assert_eq!(snap.counter_total(names::GC_PASSES), 3);
        assert_eq!(snap.counter_total(names::CHECKPOINTS_SKIPPED), 0);
        assert_eq!(node.oldest_checkpoint_seq().unwrap(), Some(8));
        assert_eq!(snap.counter_total(names::WAL_SEGMENTS_RETIRED), 4);
        // Freshness on the primary-watermark clock: lag samples exist and
        // every one is bounded by the epoch span (no wall-clock bleed).
        let lag = snap.histogram_summary_all(names::VISIBILITY_LAG_US).expect("lag histogram");
        assert!(lag.count > 0);
        let span = epochs.last().unwrap().max_commit_ts.as_micros();
        assert!(lag.max_us <= span, "lag {} exceeds primary span {span}", lag.max_us);
        // Lifecycle events: checkpoints and WAL retirement showed up.
        let evs = tel.drain_events();
        assert!(evs.iter().any(|e| e.kind.name() == "checkpoint_written"));
        assert!(evs.iter().any(|e| e.kind.name() == "wal_segment_retired"));
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    /// The checkpoint's walk prunes what a GC pass of its own would,
    /// accounts for it the same way (`aets_gc_*`, the `GcPass` event), and
    /// writes the manifest that pass followed by a checkpoint without GC
    /// writes.
    #[test]
    fn a_checkpoint_walk_prunes_and_counts_like_a_separate_gc_pass() {
        let (epochs, num_tables, grouping) = tpcc_stream(800);
        let mut runs = Vec::new();
        for fused in [true, false] {
            let (wal_dir, ckpt_dir) = (scratch("fused-wal"), scratch("fused-ckpt"));
            let tel = Arc::new(Telemetry::new());
            let opts = DurableOptions {
                checkpoint_every: 0,
                gc_before_checkpoint: fused,
                ..Default::default()
            };
            let engine = instrumented_engine(&grouping, &tel);
            let mut node =
                DurableBackup::open(&wal_dir, &ckpt_dir, engine, num_tables, opts, None).unwrap();
            for e in &epochs {
                node.ingest(e).unwrap();
            }
            assert_eq!(tel.snapshot().counter_total(names::GC_PASSES), 0);
            if !fused {
                node.node.gc_clamped(node.query_floor);
            }
            assert!(node.checkpoint_now().unwrap());
            let snap = tel.snapshot();
            let pass_us = snap.histogram_summary_all(names::GC_PASS_US).expect("gc histogram");
            let events: Vec<(usize, usize)> = tel
                .drain_events()
                .into_iter()
                .filter_map(|e| match e.kind {
                    EventKind::GcPass { nodes, pruned } => Some((nodes, pruned)),
                    _ => None,
                })
                .collect();
            let (_, path) = node.ckpt.list().unwrap().pop().expect("a manifest");
            let counts = (snap.counter_total(names::GC_PASSES), pass_us.count, events.len() as u64);
            assert_eq!(counts, (1, 1, 1), "fused {fused}: one pass, timed once, one event");
            runs.push((snap.counter_total(names::GC_PRUNED), events, std::fs::read(path).unwrap()));
            let _ = std::fs::remove_dir_all(&wal_dir);
            let _ = std::fs::remove_dir_all(&ckpt_dir);
        }
        assert!(runs[0].0 > 0, "hot TPC-C rows must shed versions");
        assert_eq!(runs[0].0, runs[1].0, "pruned");
        assert_eq!(runs[0].1, runs[1].1, "GcPass events");
        assert!(runs[0].2 == runs[1].2, "the fused walk wrote another manifest");
    }

    /// Read sessions served while checkpoints walk the database on both
    /// crew members — pruning chains under their exclusive guards — get
    /// the serial oracle's answers. The session's pin keeps every walk's
    /// GC floor at or below its snapshot.
    #[test]
    fn a_served_query_during_a_crew_parallel_checkpoint_reads_the_oracle_answer() {
        use crate::engines::serial::SerialEngine;
        use crate::service::QuerySpec;
        use crate::target::eval_spec;
        use aets_common::ColumnId;
        use aets_memtable::Aggregate;
        use std::sync::atomic::AtomicBool;

        let (epochs, num_tables, grouping) = tpcc_stream(2_000);
        let oracle = MemDb::new(num_tables);
        let oracle_board = VisibilityBoard::builder(grouping.num_groups()).build();
        SerialEngine.replay(&epochs, &oracle, &oracle_board).unwrap();
        let (wal_dir, ckpt_dir) = (scratch("ckpt-read-wal"), scratch("ckpt-read-ckpt"));
        let tel = Arc::new(Telemetry::new());
        let opts = DurableOptions { checkpoint_every: 2, ..Default::default() };
        let engine = instrumented_engine(&grouping, &tel);
        let mut backup =
            DurableBackup::open(&wal_dir, &ckpt_dir, engine, num_tables, opts, None).unwrap();
        let half = epochs.len() / 2;
        for e in &epochs[..half] {
            backup.ingest(e).unwrap();
        }
        // The head as the session pins it: without the pin, the next
        // checkpoints' GC would fold the versions it reads into newer ones.
        let qts = epochs[half - 1].max_commit_ts;
        let tables: Vec<TableId> = (0..num_tables as u32).map(TableId::new).collect();
        let specs: Vec<QuerySpec> = tables
            .iter()
            .flat_map(|&t| {
                [QuerySpec::count(t), QuerySpec::aggregate(t, ColumnId::new(0), Aggregate::Sum)]
            })
            .collect();
        let want: Vec<_> = specs.iter().map(|s| eval_spec(&oracle, s, qts)).collect();
        let node = backup.serve(NodeOptions::default()).unwrap();
        let written = || tel.snapshot().counter_total(names::CHECKPOINTS_WRITTEN);
        let before = written();
        let (pinned, wait_pinned) = std::sync::mpsc::channel();
        let stop = AtomicBool::new(false);
        let rounds = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let session = node.open_session(qts, &tables);
                pinned.send(()).expect("the ingest side waits");
                let mut rounds = 0u64;
                while rounds == 0 || !stop.load(Ordering::SeqCst) {
                    for (spec, want) in specs.iter().zip(&want) {
                        assert_eq!(&session.query(spec.clone()).unwrap(), want, "{spec:?}");
                    }
                    rounds += 1;
                }
                rounds
            });
            wait_pinned.recv().expect("the reader pins its session");
            for e in &epochs[half..] {
                backup.ingest(e).unwrap();
            }
            stop.store(true, Ordering::SeqCst);
            reader.join().expect("every answer matched the oracle")
        });
        assert!(rounds > 0);
        assert!(written() - before >= 5, "checkpoints ran while the session read");
        // Every checkpoint has run now, each while the reader's pin held.
        let session = node.open_session(qts, &tables);
        for (spec, want) in specs.iter().zip(&want) {
            assert_eq!(&session.query(spec.clone()).unwrap(), want, "after: {spec:?}");
        }
        drop(session);
        drop(node);
        assert_eq!(backup.db().digest_at(Timestamp::MAX), oracle.digest_at(Timestamp::MAX));
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn restarted_backup_serves_pinned_read_sessions() {
        use crate::service::{QueryOutput, QuerySpec};
        use aets_memtable::Scan;

        let (epochs, num_tables, grouping) = tpcc_stream(1_000);
        let wal_dir = scratch("serve-wal");
        let ckpt_dir = scratch("serve-ckpt");
        let opts = DurableOptions { checkpoint_every: 6, ..Default::default() };
        {
            let mut node = DurableBackup::open(
                &wal_dir,
                &ckpt_dir,
                fresh_engine(&grouping),
                num_tables,
                opts.clone(),
                None,
            )
            .unwrap();
            for e in &epochs {
                node.ingest(e).unwrap();
            }
        }
        // Second life: recover, then serve queries from the recovered
        // state. The board was seeded from the checkpoint and advanced by
        // the suffix replay, so a session at the stream's high-water mark
        // admits without any further ingest.
        let backup = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            fresh_engine(&grouping),
            num_tables,
            opts,
            None,
        )
        .unwrap();
        assert!(backup.recovery().restored_seq.is_some());
        let node = backup.serve(crate::service::NodeOptions::default()).unwrap();
        let qts = epochs.last().unwrap().max_commit_ts;
        let table = TableId::new(0);
        let session = node.open_session(qts, &[table]);
        // A pinned session clamps the durable backup's GC floor too.
        assert!(backup.floor().floor() <= qts);
        let served = session.query(QuerySpec::count(table)).unwrap();
        let oracle = Scan::at(qts).count(backup.db().table(table));
        assert_eq!(served, QueryOutput::Count(oracle));
        assert!(oracle > 0, "recovered warehouse table must have rows");
        drop(session);
        assert_eq!(backup.floor().floor(), Timestamp::MAX);
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn grouping_mismatch_is_rejected_at_recovery() {
        let (epochs, num_tables, grouping) = tpcc_stream(300);
        let wal_dir = scratch("mismatch-wal");
        let ckpt_dir = scratch("mismatch-ckpt");
        {
            let mut node = DurableBackup::open(
                &wal_dir,
                &ckpt_dir,
                fresh_engine(&grouping),
                num_tables,
                DurableOptions { checkpoint_every: 2, ..Default::default() },
                None,
            )
            .unwrap();
            for e in &epochs {
                node.ingest(e).unwrap();
            }
            assert!(node.last_checkpoint_seq() > 0);
        }
        // An engine with a different group count must not silently adopt
        // the old board positions.
        let single = AetsEngine::tplr_baseline(2, num_tables, &Default::default()).unwrap();
        let err = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            single,
            num_tables,
            DurableOptions::default(),
            None,
        )
        .unwrap_err();
        assert_eq!(err.kind(), "config");
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn wal_gap_after_checkpoint_is_fatal() {
        let (epochs, num_tables, grouping) = tpcc_stream(600);
        let wal_dir = scratch("gap-wal");
        let ckpt_dir = scratch("gap-ckpt");
        let opts = DurableOptions {
            checkpoint_every: 4,
            segment: SegmentConfig { epochs_per_segment: 2, ..Default::default() },
            ..Default::default()
        };
        {
            let mut node = DurableBackup::open(
                &wal_dir,
                &ckpt_dir,
                fresh_engine(&grouping),
                num_tables,
                opts.clone(),
                None,
            )
            .unwrap();
            for e in &epochs {
                node.ingest(e).unwrap();
            }
        }
        // Delete every checkpoint: the WAL has been truncated past epoch
        // 0, so a cold-start recovery would have a gap and must refuse.
        for f in std::fs::read_dir(&ckpt_dir).unwrap() {
            std::fs::remove_file(f.unwrap().path()).unwrap();
        }
        let err = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            fresh_engine(&grouping),
            num_tables,
            opts,
            None,
        )
        .unwrap_err();
        assert_eq!(err.kind(), "replay");
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }
}
