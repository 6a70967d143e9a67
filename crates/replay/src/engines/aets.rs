//! The AETS engine: adaptive epoch-based two-stage log replay with TPLR.
//!
//! The engine replays epochs the layer that brought them into the process
//! has already checked (frame CRC and sequence — see DESIGN.md §7): its
//! input contract is the baselines', [`ReplayEngine::replay`] over a
//! slice. Per epoch (Section III-D):
//!
//! 1. the dispatcher routes entries into per-group mini-transactions
//!    (metadata-only parse). A call that replays several epochs runs it on
//!    a scoped thread, feeding the replay loop through a bounded channel
//!    so the metadata scan of epoch `e+1` overlaps the replay of epoch
//!    `e`; a single-epoch call has nothing to overlap and dispatches
//!    inline into the same loop (see DESIGN.md, "Replay datapath");
//! 2. threads are allocated to groups by `λ·n` weights (Section IV-B)
//!    over the grouping's rates, which the adaptive controller refreshes
//!    through `Regroup` and overrides through `SetThreadSplit`;
//! 3. **stage 1** replays all hot groups on the engine's persistent
//!    crew (`engines/crew.rs`): the calling thread and `threads − 1`
//!    helpers claim whole groups, largest first. A group's claimant is
//!    its only committer: it runs TPLR phase 1 (translate entries to
//!    uncommitted cells, no locks, no dependency tracking) and phase 2
//!    (append cells in `commit_order_queue` order, publish `tg_cmt_ts`
//!    per mini-transaction) chunk by chunk. A group allotted two or more
//!    threads is *split*: idle crew members translate its chunks ahead
//!    of the committer;
//! 4. **stage 2** replays the cold groups the same way;
//! 5. `global_cmt_ts` advances to the epoch's last commit.
//!
//! With `two_stage = false` and a single group this is exactly the
//! ungrouped TPLR baseline of Section VI-A5.
//!
//! # Supervision and quarantine
//!
//! Replay is *supervised*: translation and commit propagate [`Result`]s
//! instead of panicking, and any panic that does occur inside a group
//! task or a chunk translation is contained with `catch_unwind`. A
//! group whose replay hits an unrecoverable fault (e.g. a record that
//! passes the epoch frame CRC but fails its own record CRC) is
//! *quarantined*: its `tg_cmt_ts` freezes at the last consistent commit,
//! `global_cmt_ts` stops advancing (so Algorithm 3's global shortcut can
//! never admit a query past the frozen group), and every healthy group
//! keeps replaying. The degraded state is surfaced through
//! `ReplayMetrics::quarantined_groups`; no thread panic ever escapes
//! [`ReplayEngine::replay`].

use crate::alloc::{allocate_threads, UrgencyMode};
use crate::dispatch::{dispatch_epoch, DispatchedEpoch, GroupWork, MiniTxn};
use crate::engines::crew::{Backoff, Crew};
use crate::engines::pool::CellPool;
use crate::engines::{commit_cell, panic_error, translate_mini_txns, Cell, ReplayEngine};
use crate::grouping::TableGrouping;
use crate::metrics::ReplayMetrics;
use crate::visibility::VisibilityBoard;
use aets_common::sync::{lock, read, write};
use aets_common::{Error, GroupId, Result, TableId};
use aets_memtable::MemDb;
use aets_telemetry::trace::stages;
use aets_telemetry::{names, Counter, EventKind, Gauge, Histogram, SpanId, Telemetry};
use aets_wal::EncodedEpoch;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Configuration of the AETS engine.
#[derive(Debug, Clone)]
pub struct AetsConfig {
    /// Replay threads `T`: the size of the engine's crew, counting the
    /// thread that calls `replay` (so `threads − 1` helper threads).
    pub threads: usize,
    /// Urgency factor mode (Log = paper, Ignore = AETS-NOAC ablation).
    pub urgency: UrgencyMode,
    /// Replay hot groups in stage 1 before cold groups (the paper's
    /// two-stage design). `false` collapses to a single stage.
    pub two_stage: bool,
    /// Recompute the thread allocation each epoch from pending bytes and
    /// rates. `false` splits threads evenly across groups with work.
    pub adaptive: bool,
}

impl Default for AetsConfig {
    fn default() -> Self {
        Self { threads: 4, urgency: UrgencyMode::Log, two_stage: true, adaptive: true }
    }
}

/// A live reconfiguration command for a running [`AetsEngine`], sent
/// through a [`ReconfigureHandle`] and applied at the next epoch
/// boundary (see DESIGN.md §15 "Adaptive control loop").
#[derive(Debug, Clone)]
pub enum Reconfigure {
    /// Pin the per-group worker allocation, bypassing the per-epoch
    /// `λ·n` solver until the next `SetThreadSplit`. One slot per group;
    /// a group with two or more threads is split (idle crew members
    /// translate its chunks ahead of its committer), below that its
    /// claimant replays it alone.
    SetThreadSplit(Vec<usize>),
    /// Replace the table grouping. Must preserve the group count (the
    /// visibility board, quarantine ledger and cell pools are sized to
    /// it) and the table count. Rejected — dropped and counted in
    /// `aets_adapt_rejected_total` — while any group is quarantined: a
    /// frozen group's watermark describes its *old* table set, and
    /// moving tables would silently change what the freeze protects.
    Regroup(TableGrouping),
}

/// Clonable sender half of an engine's reconfiguration channel.
///
/// Commands are validated at send time against the engine's immutable
/// group/table counts, queued, and drained by the *dispatching* side of
/// the replay datapath at the next epoch boundary. Epoch boundaries are
/// exactly the paper's "drain, move, resume" migration points: group
/// tasks are per-stage objects fully drained at the stage barriers, and
/// every healthy group's watermark equals the epoch's `max_commit_ts`,
/// so a regroup never moves a table with in-flight work and is
/// watermark-neutral.
#[derive(Clone, Debug)]
pub struct ReconfigureHandle {
    inner: Arc<ReconfShared>,
}

#[derive(Debug)]
struct ReconfShared {
    queue: Mutex<VecDeque<Reconfigure>>,
    /// Commands applied so far (monotone; rejected commands excluded).
    applied: AtomicU64,
    num_groups: usize,
    num_tables: usize,
    threads: usize,
    urgency: UrgencyMode,
}

impl ReconfigureHandle {
    fn new(grouping: &TableGrouping, cfg: &AetsConfig) -> Self {
        Self {
            inner: Arc::new(ReconfShared {
                queue: Mutex::new(VecDeque::new()),
                applied: AtomicU64::new(0),
                num_groups: grouping.num_groups(),
                num_tables: grouping.num_tables(),
                threads: cfg.threads,
                urgency: cfg.urgency,
            }),
        }
    }

    /// The engine's crew size and urgency mode: what a controller solves
    /// a [`Reconfigure::SetThreadSplit`] over.
    pub(crate) fn split_basis(&self) -> (usize, UrgencyMode) {
        (self.inner.threads, self.inner.urgency)
    }

    /// Queues `cmd` for the next epoch boundary. Fails fast on a command
    /// that can never be applied (wrong split length, wrong group or
    /// table count) so the caller's bug surfaces at the send site.
    pub fn send(&self, cmd: Reconfigure) -> Result<()> {
        match &cmd {
            Reconfigure::SetThreadSplit(split) => {
                if split.len() != self.inner.num_groups {
                    return Err(Error::Config(format!(
                        "thread split has {} slots for {} groups",
                        split.len(),
                        self.inner.num_groups
                    )));
                }
            }
            Reconfigure::Regroup(g) => {
                if g.num_groups() != self.inner.num_groups {
                    return Err(Error::Config(format!(
                        "regroup has {} groups, engine is sized for {}",
                        g.num_groups(),
                        self.inner.num_groups
                    )));
                }
                if g.num_tables() != self.inner.num_tables {
                    return Err(Error::Config(format!(
                        "regroup covers {} tables, engine replays {}",
                        g.num_tables(),
                        self.inner.num_tables
                    )));
                }
            }
        }
        lock(&self.inner.queue).push_back(cmd);
        Ok(())
    }

    /// Commands applied so far (rejected commands excluded). Lets a
    /// controller confirm a command took effect before planning atop it.
    pub fn applied(&self) -> u64 {
        self.inner.applied.load(Ordering::Acquire)
    }

    /// Commands queued but not yet drained by an epoch boundary.
    pub fn pending(&self) -> usize {
        lock(&self.inner.queue).len()
    }
}

/// The grouping (and pinned split) an epoch is dispatched *and* replayed
/// under. Captured once per epoch when the dispatching side drains the
/// reconfiguration queue, and shipped through the pipeline channel with
/// the dispatched work so both halves of the datapath always agree —
/// epoch `e+1` may be dispatched under a newer grouping while epoch `e`
/// is still replaying under the old one.
#[derive(Clone)]
struct EpochPlan {
    /// Grouping generation; the consumer side publishes it to the
    /// visibility board before replaying the first epoch planned under
    /// it (at that point the previous epoch is fully replayed, so every
    /// healthy watermark covers the whole database).
    gen: u64,
    grouping: Arc<TableGrouping>,
    split: Option<Vec<usize>>,
    regroups: u64,
    resplits: u64,
    rejected: u64,
}

/// Per-group quarantine ledger. Lives on the engine (not one `replay`
/// call) because the realtime runner replays one epoch per call through
/// the same engine: once a group is poisoned, every later epoch skips it
/// and its `tg_cmt_ts` stays frozen at the last consistent commit.
#[derive(Debug)]
struct Quarantine {
    groups: Mutex<Vec<Option<Error>>>,
}

impl Quarantine {
    fn new(n: usize) -> Self {
        Self { groups: Mutex::new((0..n).map(|_| None).collect()) }
    }

    /// Records the first failure of `gid`; later failures keep the
    /// original root cause.
    fn poison(&self, gid: GroupId, err: Error) {
        let mut g = lock(&self.groups);
        let slot = &mut g[gid.index()];
        if slot.is_none() {
            *slot = Some(err);
        }
    }

    fn is_poisoned(&self, gid: GroupId) -> bool {
        lock(&self.groups)[gid.index()].is_some()
    }

    fn any(&self) -> bool {
        lock(&self.groups).iter().any(Option::is_some)
    }

    /// The failure that froze group `g` (board index), rendered.
    fn reason(&self, g: usize) -> String {
        lock(&self.groups)[g].as_ref().map(Error::to_string).unwrap_or_default()
    }

    fn poisoned(&self) -> Vec<usize> {
        lock(&self.groups).iter().enumerate().filter_map(|(i, e)| e.as_ref().map(|_| i)).collect()
    }
}

/// Telemetry handles cached at engine construction so the replay hot path
/// never touches the registry map: each record is an atomic op (or a
/// single relaxed load when telemetry is disabled).
#[derive(Debug)]
struct EngineStats {
    epochs: Counter,
    txns: Counter,
    entries: Counter,
    bytes: Counter,
    dispatch_us: Histogram,
    stage1_us: Histogram,
    stage2_us: Histogram,
    replay_busy_us: Counter,
    commit_busy_us: Counter,
    quarantined: Gauge,
    ingest_bps: Gauge,
    cell_recycled: Counter,
    cell_allocated: Counter,
    regroups: Counter,
    resplits: Counter,
    reconf_rejected: Counter,
    barrier_wait_us: Histogram,
    crew_parked: Gauge,
}

impl EngineStats {
    fn new(tel: &Telemetry) -> Self {
        let reg = tel.registry();
        Self {
            epochs: reg.counter(names::EPOCHS),
            txns: reg.counter(names::TXNS),
            entries: reg.counter(names::ENTRIES),
            bytes: reg.counter(names::BYTES),
            dispatch_us: reg.histogram(names::DISPATCH_US),
            stage1_us: reg.histogram(names::STAGE1_US),
            stage2_us: reg.histogram(names::STAGE2_US),
            replay_busy_us: reg.counter(names::REPLAY_BUSY_US),
            commit_busy_us: reg.counter(names::COMMIT_BUSY_US),
            quarantined: reg.gauge(names::QUARANTINED_GROUPS),
            ingest_bps: reg.gauge(names::INGEST_BYTES_PER_SEC),
            cell_recycled: reg.counter(names::CELL_RECYCLED),
            cell_allocated: reg.counter(names::CELL_ALLOCATED),
            regroups: reg.counter(names::ADAPT_REGROUPS),
            resplits: reg.counter(names::ADAPT_RESPLITS),
            reconf_rejected: reg.counter(names::ADAPT_REJECTED),
            barrier_wait_us: reg.histogram(names::STAGE_BARRIER_WAIT_US),
            crew_parked: reg.gauge(names::REPLAY_CREW_PARKED),
        }
    }
}

/// The engine's current grouping, paired with the generation it was
/// installed under so admission gids can carry their provenance.
#[derive(Debug)]
struct VersionedGrouping {
    gen: u64,
    grouping: Arc<TableGrouping>,
}

/// The AETS replay engine.
#[derive(Debug)]
pub struct AetsEngine {
    cfg: AetsConfig,
    grouping: RwLock<VersionedGrouping>,
    /// A `SetThreadSplit` pin; `None` restores the per-epoch solver.
    pinned_split: Mutex<Option<Vec<usize>>>,
    reconf: ReconfigureHandle,
    quarantine: Quarantine,
    /// The persistent replay threads. Locked for a whole `replay` call:
    /// concurrent calls on one engine take turns.
    crew: Mutex<Crew>,
    /// Per-group free lists of cell buffers, recycled across epochs and
    /// across calls.
    pools: Vec<CellPool>,
    telemetry: Arc<Telemetry>,
    stats: EngineStats,
}

/// Builds an [`AetsEngine`]: the single construction path —
/// `AetsEngine::builder(grouping).config(cfg).build()`, with
/// `.telemetry(..)` chained for an instrumented engine.
pub struct AetsEngineBuilder {
    cfg: AetsConfig,
    grouping: TableGrouping,
    telemetry: Option<Arc<Telemetry>>,
}

impl AetsEngineBuilder {
    /// Replaces the default [`AetsConfig`].
    pub fn config(mut self, cfg: AetsConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Attaches a telemetry instance the replay path feeds: epoch / txn /
    /// entry / byte counters, per-epoch dispatch and stage-wall
    /// histograms, quarantine gauge and events.
    /// Share the same instance with the visibility board (via
    /// [`crate::VisibilityBoard::builder`]) so freshness lands in the
    /// same registry.
    pub fn telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Finishes the engine and starts its `threads − 1` crew helpers
    /// (parked until the first replay, joined when the engine drops).
    /// Fails on an invalid config (zero threads) or a failed thread start.
    pub fn build(self) -> Result<AetsEngine> {
        if self.cfg.threads == 0 {
            return Err(Error::Config("threads must be positive".into()));
        }
        let telemetry = self.telemetry.unwrap_or_else(|| Arc::new(Telemetry::disabled()));
        let quarantine = Quarantine::new(self.grouping.num_groups());
        let stats = EngineStats::new(&telemetry);
        let reconf = ReconfigureHandle::new(&self.grouping, &self.cfg);
        let crew = Crew::start(self.cfg.threads - 1, stats.crew_parked.clone())?;
        let pools = (0..self.grouping.num_groups()).map(|_| CellPool::new()).collect();
        Ok(AetsEngine {
            cfg: self.cfg,
            grouping: RwLock::new(VersionedGrouping { gen: 0, grouping: Arc::new(self.grouping) }),
            pinned_split: Mutex::new(None),
            reconf,
            quarantine,
            crew: Mutex::new(crew),
            pools,
            telemetry,
            stats,
        })
    }
}

impl AetsEngine {
    /// Starts building an engine over `grouping` (default config,
    /// telemetry disabled).
    pub fn builder(grouping: TableGrouping) -> AetsEngineBuilder {
        AetsEngineBuilder { cfg: AetsConfig::default(), grouping, telemetry: None }
    }

    /// The engine's telemetry instance (disabled unless one was attached
    /// via [`AetsEngineBuilder::telemetry`]).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Board indices of the groups quarantined so far (ascending); empty
    /// while the engine is healthy.
    pub fn quarantined_groups(&self) -> Vec<usize> {
        self.quarantine.poisoned()
    }

    /// Replay threads `T`, the caller of `replay` included.
    pub(crate) fn threads(&self) -> usize {
        self.cfg.threads
    }

    /// Lends the idle crew to one job between replay calls (the
    /// checkpoint's snapshot walk): `job` runs on the caller and on each
    /// helper through the gate of [`Crew::run`]; with `threads: 1` the
    /// caller runs it alone.
    pub(crate) fn lend_crew(&self, job: &(dyn Fn() + Sync)) -> Result<()> {
        lock(&self.crew).run(self.cfg.threads - 1, job).map(drop)
    }

    /// The ungrouped TPLR baseline: one group, no staging.
    pub fn tplr_baseline(
        threads: usize,
        num_tables: usize,
        hot_tables: &aets_common::FxHashSet<TableId>,
    ) -> Result<Self> {
        let grouping = TableGrouping::single(num_tables, hot_tables);
        let mut eng = Self::builder(grouping)
            .config(AetsConfig { threads, two_stage: false, ..Default::default() })
            .build()?;
        eng.cfg.adaptive = false;
        Ok(eng)
    }

    /// A snapshot of the engine's current table grouping. Live
    /// reconfiguration means the grouping can change between calls; a
    /// caller that maps tables to groups for admission takes the mapping
    /// and its generation together from
    /// [`ReplayEngine::board_groups_for`].
    pub fn grouping(&self) -> Arc<TableGrouping> {
        read(&self.grouping).grouping.clone()
    }

    /// The generation of the currently installed grouping (0 until the
    /// first live regroup).
    pub fn grouping_gen(&self) -> u64 {
        read(&self.grouping).gen
    }

    /// The sender half of the engine's live reconfiguration channel.
    pub fn reconfigure_handle(&self) -> ReconfigureHandle {
        self.reconf.clone()
    }

    /// Drains the reconfiguration queue at an epoch boundary and returns
    /// the plan — grouping, generation, pinned split — the next epoch is
    /// dispatched and replayed under. Runs on the dispatching side of
    /// the datapath, which is the only place a grouping swap is safe:
    /// between epochs no group task holds work and every healthy
    /// watermark sits at the previous epoch's `max_commit_ts`.
    fn apply_pending(&self, at_seq: u64) -> EpochPlan {
        let drained: Vec<Reconfigure> = {
            let mut q = lock(&self.reconf.inner.queue);
            if q.is_empty() {
                Vec::new()
            } else {
                q.drain(..).collect()
            }
        };
        let (mut regroups, mut resplits, mut rejected) = (0u64, 0u64, 0u64);
        for cmd in drained {
            match cmd {
                Reconfigure::SetThreadSplit(split) => {
                    self.telemetry.event(EventKind::ThreadSplit { at_seq, split: split.clone() });
                    *lock(&self.pinned_split) = Some(split);
                    resplits += 1;
                }
                Reconfigure::Regroup(g) => {
                    if self.quarantine.any() {
                        // Dropped, not deferred: the controller re-plans
                        // from fresh telemetry every window, so a stale
                        // plan must not fire when quarantine lifts.
                        rejected += 1;
                        continue;
                    }
                    let mut cur = write(&self.grouping);
                    let moved = (0..g.num_tables())
                        .map(|t| TableId::new(t as u32))
                        .filter(|&t| g.group_of(t) != cur.grouping.group_of(t))
                        .count();
                    cur.gen += 1;
                    cur.grouping = Arc::new(g);
                    let groups = cur.grouping.num_groups();
                    drop(cur);
                    self.telemetry.event(EventKind::Regroup {
                        at_seq,
                        groups,
                        moved_tables: moved,
                    });
                    regroups += 1;
                }
            }
        }
        if regroups + resplits + rejected > 0 {
            self.telemetry.spans().point(at_seq, stages::RECONFIGURE, None, None);
            self.reconf.inner.applied.fetch_add(regroups + resplits, Ordering::Release);
            self.stats.regroups.add(regroups);
            self.stats.resplits.add(resplits);
            self.stats.reconf_rejected.add(rejected);
        }
        let cur = read(&self.grouping);
        EpochPlan {
            gen: cur.gen,
            grouping: cur.grouping.clone(),
            split: lock(&self.pinned_split).clone(),
            regroups,
            resplits,
            rejected,
        }
    }

    /// Replays `stage_groups` of one dispatched epoch on the crew and
    /// flips their watermarks at the stage barrier.
    ///
    /// Every group with work becomes one task, claimed whole — largest
    /// first — from one cursor by the caller and the helpers alike; crew
    /// members left without a group translate chunks of the split groups.
    /// The gate of [`Crew::run`] is the stage barrier: when it returns no
    /// helper is inside the stage any more.
    fn run_stage(
        &self,
        crew: &mut Crew,
        epoch: &EpochRun<'_>,
        stage_groups: &[GroupId],
        alloc: &[usize],
    ) -> Result<()> {
        let mut tasks: Vec<GroupTask<'_>> = stage_groups
            .iter()
            // A quarantined group gets no further work: its watermark
            // stays frozen at the last consistent commit.
            .filter(|&&gid| !self.quarantine.is_poisoned(gid))
            .map(|&gid| GroupTask::new(gid, epoch.work.group(gid), alloc[gid.index()]))
            .filter(|t| !t.work.mini_txns.is_empty())
            .collect();
        tasks.sort_by_key(|t| Reverse(t.work.bytes));
        // One thread per group, plus the extra translators of each split
        // group: helpers beyond that would find nothing to claim.
        let parallelism: usize = tasks.iter().map(GroupTask::threads_wanted).sum();
        let cursor = AtomicUsize::new(0);
        let job = || {
            while let Some(task) = tasks.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                // An error or contained panic quarantines this group; no
                // watermark it already published is retracted (the
                // committed prefix is fully installed and consistent), it
                // just never advances again. The crew member moves on.
                let outcome = catch_unwind(AssertUnwindSafe(|| self.replay_group(epoch, task)))
                    .unwrap_or_else(|p| Err(panic_error("group task", p)));
                if let Err(e) = outcome {
                    task.abandon();
                    self.quarantine.poison(task.gid, e);
                }
            }
            for task in tasks.iter().filter(|t| t.handoff.is_some()) {
                self.translate_ahead(epoch, task);
            }
        };
        let waited = crew.run(parallelism.saturating_sub(1), &job)?;
        self.stats.barrier_wait_us.record_micros(waited.as_micros() as u64);
        // Stage barrier passed: every write this epoch routed to a healthy
        // group is installed, so each healthy group is complete up to the
        // epoch's high-water mark. Groups poisoned during the stage stay
        // at their last consistent commit.
        let ring = self.telemetry.spans();
        for &gid in stage_groups {
            if !self.quarantine.is_poisoned(gid) {
                epoch.board.publish_group(gid, epoch.work.max_commit_ts);
                // Point span at the barrier publish (not the hot
                // per-mini-txn watermark bumps): the timeline shows when
                // the group's epoch-final `tg_cmt_ts` became visible.
                ring.point(epoch.seq, stages::FLIP_GROUP, Some(gid.index()), epoch.parent);
            }
        }
        Ok(())
    }

    /// The committer's side of one group task: commits the group's chunks
    /// strictly in order, translating each chunk itself unless a helper
    /// got there first. There is one committer per group at a time — the
    /// member that claimed the task — which is what keeps every version
    /// chain in primary commit order.
    fn replay_group(&self, epoch: &EpochRun<'_>, task: &GroupTask<'_>) -> Result<()> {
        let ring = self.telemetry.spans();
        let group = Some(task.gid.index());
        // Head-of-line wait, then the ordered apply: the wait span closes
        // when the first chunk's cells are in hand and the apply span
        // covers the rest of the commit loop. A failure mid-loop drops the
        // open span — only completed steps are recorded.
        let mut wait_span = ring.begin(epoch.seq, stages::COMMIT_WAIT, group, epoch.parent);
        let mut apply_span = None;
        for head in 0..task.chunks() {
            let chunk = match &task.handoff {
                None => self.translate_chunk(epoch, task, head),
                Some(handoff) => {
                    let mut backoff = Backoff::default();
                    loop {
                        if let Some(chunk) = lock(&handoff.slots[head]).take() {
                            break chunk;
                        }
                        // The head is not ready: translate the next
                        // unclaimed chunk instead of sleeping on it.
                        match handoff.claim() {
                            Some(c) if c == head => break self.translate_chunk(epoch, task, c),
                            Some(c) => {
                                let chunk = self.translate_chunk(epoch, task, c);
                                *lock(&handoff.slots[c]) = Some(chunk);
                            }
                            // Every chunk is claimed and the head is in a
                            // helper's hands: it is running, not blocked,
                            // so give it the core rather than park.
                            None if backoff.snooze() => {}
                            None => std::thread::yield_now(),
                        }
                    }
                }
            };
            if let Some(w) = wait_span.take() {
                w.finish(ring);
                apply_span = ring.begin(epoch.seq, stages::APPLY, group, epoch.parent);
            }
            self.commit_chunk(epoch, task, head, chunk)?;
        }
        if let Some(a) = apply_span {
            a.finish(ring);
        }
        Ok(())
    }

    /// A crew member without a group of its own translates chunks of a
    /// split group into the hand-off slots its committer drains.
    fn translate_ahead(&self, epoch: &EpochRun<'_>, task: &GroupTask<'_>) {
        let Some(handoff) = &task.handoff else { return };
        while let Some(c) = handoff.claim() {
            // Contained so the slot is always filled: the committer must
            // never wait on a chunk nobody will finish.
            let chunk = catch_unwind(AssertUnwindSafe(|| self.translate_chunk(epoch, task, c)))
                .unwrap_or_else(|p| Chunk {
                    cells: Vec::new(),
                    translated: 0,
                    err: Some(panic_error("chunk translator", p)),
                });
            *lock(&handoff.slots[c]) = Some(chunk);
        }
    }

    /// TPLR phase 1 for chunk `c` of a group: [`translate_mini_txns`] into
    /// one pooled buffer. It stops at the first mini-transaction that
    /// fails to translate, keeping the ones before it, so the committer
    /// freezes the group at exactly the last consistent commit.
    fn translate_chunk(&self, epoch: &EpochRun<'_>, task: &GroupTask<'_>, c: usize) -> Chunk {
        let t0 = Instant::now();
        let ring = self.telemetry.spans();
        // One translate span per chunk: who translated what, and when,
        // relative to the group's commit loop.
        let span = ring.begin(epoch.seq, stages::TRANSLATE, Some(task.gid.index()), epoch.parent);
        let mini_txns = task.chunk(c);
        let entries: usize = mini_txns.iter().map(|mt| mt.entry_ranges.len()).sum();
        let mut chunk =
            Chunk { cells: self.pools[task.gid.index()].take(entries), translated: 0, err: None };
        (chunk.translated, chunk.err) =
            translate_mini_txns(epoch.db, &epoch.work.bytes, mini_txns, &mut chunk.cells);
        if let Some(s) = span {
            s.finish(ring);
        }
        epoch.busy.translate_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        chunk
    }

    /// TPLR phase 2 for chunk `c`: appends its cells in commit order and
    /// publishes `tg_cmt_ts` after every mini-transaction.
    fn commit_chunk(
        &self,
        epoch: &EpochRun<'_>,
        task: &GroupTask<'_>,
        c: usize,
        mut chunk: Chunk,
    ) -> Result<()> {
        // Busy time is the appends and publishes alone: the Table II
        // breakdown measures work, not waiting for a translator.
        let t0 = Instant::now();
        let mut cells = chunk.cells.drain(..);
        for mt in &task.chunk(c)[..chunk.translated] {
            for cell in cells.by_ref().take(mt.entry_ranges.len()) {
                commit_cell(cell, mt.commit_ts);
            }
            epoch.board.publish_group(task.gid, mt.commit_ts);
        }
        drop(cells);
        epoch.busy.commit_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        // The drained buffer goes back to the group's free list.
        self.pools[task.gid.index()].put(chunk.cells);
        chunk.err.map_or(Ok(()), Err)
    }

    /// Replays one dispatched epoch: thread allocation, the two replay
    /// stages, and the global visibility publish. Calling it strictly in
    /// epoch order is what upholds the epoch-barrier invariant.
    fn replay_epoch(
        &self,
        crew: &mut Crew,
        epoch: &EpochRun<'_>,
        plan: &EpochPlan,
        m: &mut ReplayMetrics,
    ) -> Result<()> {
        let grouping = &plan.grouping;
        let work = epoch.work;
        // The previous epoch is fully replayed (this loop is strictly
        // in-order), so every healthy watermark covers the whole
        // database: now is the safe moment to tell the board that gids
        // computed under older groupings are stale. `fetch_max` makes
        // replays of old plans harmless.
        epoch.board.advance_grouping_gen(plan.gen);
        m.regroups_applied += plan.regroups;
        m.resplits_applied += plan.resplits;
        m.reconf_rejected += plan.rejected;

        let rates: Vec<f64> =
            (0..grouping.num_groups() as u32).map(|g| grouping.rate(GroupId::new(g))).collect();
        let pending = work.pending_bytes();
        let alloc = if let Some(split) = &plan.split {
            // A live `SetThreadSplit` pins the allocation; the λ·n
            // solver resumes when the pin is replaced or the controller
            // clears it.
            split.clone()
        } else if self.cfg.adaptive {
            allocate_threads(self.cfg.threads, &pending, &rates, self.cfg.urgency)?
        } else {
            even_allocation(self.cfg.threads, &pending)
        };

        let stages: Vec<Vec<GroupId>> = if self.cfg.two_stage {
            vec![grouping.hot_groups(), grouping.cold_groups()]
        } else {
            vec![(0..grouping.num_groups() as u32).map(GroupId::new).collect()]
        };

        // Quarantine set before the stages run, so newly poisoned groups
        // can be diffed into events afterwards. Skipped entirely when
        // telemetry is off — this is the only per-epoch lock it adds.
        let pre_quarantine =
            if self.telemetry.is_enabled() { Some(self.quarantine.poisoned()) } else { None };

        for (sidx, stage_groups) in stages.iter().enumerate() {
            if stage_groups.is_empty() {
                continue;
            }
            let t_stage = Instant::now();
            self.run_stage(crew, epoch, stage_groups, &alloc)?;
            let elapsed = t_stage.elapsed();
            if self.cfg.two_stage && sidx == 0 {
                m.stage1_wall += elapsed;
                self.stats.stage1_us.record_micros(elapsed.as_micros() as u64);
            } else {
                m.stage2_wall += elapsed;
                self.stats.stage2_us.record_micros(elapsed.as_micros() as u64);
            }
        }

        if let Some(before) = pre_quarantine {
            let after = self.quarantine.poisoned();
            if after.len() > before.len() {
                for &g in after.iter().filter(|g| !before.contains(g)) {
                    let reason = self.quarantine.reason(g);
                    self.telemetry.event(EventKind::GroupQuarantined { group: g, reason });
                }
                if before.is_empty() {
                    self.telemetry.event(EventKind::DegradedEntered { groups: after.clone() });
                }
            }
            self.stats.quarantined.set(after.len() as u64);
        }

        // Mirror the quarantine ledger onto the board so admission waiters
        // over a frozen group fail fast instead of sleeping out their
        // timeout (the board wakes exactly the waiters this decides).
        if self.quarantine.any() {
            epoch.board.set_quarantined(&self.quarantine.poisoned());
        }

        // Algorithm 3 admits a query when `global_cmt_ts >= qts` *without*
        // consulting per-group watermarks, so the global may only advance
        // while every group is healthy: with any group quarantined it
        // freezes at the last fully-consistent epoch, and queries over the
        // frozen group block (or time out) instead of reading past it.
        if !self.quarantine.any() {
            epoch.board.publish_global(work.max_commit_ts);
            self.telemetry.spans().point(epoch.seq, stages::FLIP_GLOBAL, None, epoch.parent);
        }
        let entries = work.groups.iter().map(|g| g.entries).sum::<usize>();
        m.txns += work.txn_count;
        m.entries += entries;
        m.bytes += work.bytes.len() as u64;
        m.epochs += 1;
        self.stats.txns.add(work.txn_count as u64);
        self.stats.entries.add(entries as u64);
        self.stats.bytes.add(work.bytes.len() as u64);
        self.stats.epochs.inc();
        Ok(())
    }

    /// Dispatches `epoch`: the producing half of the datapath, run inline
    /// by the replay loop or ahead of it on the dispatcher thread.
    fn dispatch_next(&self, epoch: &EncodedEpoch) -> Dispatched {
        let seq = epoch.id.raw();
        // Epoch boundary: drain pending reconfigurations before this
        // epoch is dispatched. The plan travels with the work, so epoch
        // e+1 can be dispatched under a newer grouping while epoch e
        // still replays under the old one.
        let plan = self.apply_pending(seq);
        let t0 = Instant::now();
        let ring = self.telemetry.spans();
        // The dispatch span roots the epoch's engine-side trace tree:
        // every translate/commit/flip span below parents to it, so one
        // epoch id pulls out the whole causal chain.
        let mut parent = None;
        // Contained so a dispatcher panic surfaces to the replay loop as
        // an error instead of escaping through the scope join.
        let work = catch_unwind(AssertUnwindSafe(|| {
            let dspan = ring.begin(seq, stages::DISPATCH, None, None);
            let work = dispatch_epoch(epoch, &plan.grouping)?;
            parent = dspan.map(|s| {
                let id = s.id();
                s.finish(ring);
                id
            });
            Ok(work)
        }))
        .unwrap_or_else(|p| Err(panic_error("dispatcher", p)));
        Dispatched { seq, work, busy: t0.elapsed(), parent, plan }
    }

    /// Cumulative `(recycled, allocated)` takes over every group's pool.
    fn pool_counts(&self) -> (u64, u64) {
        self.pools.iter().fold((0, 0), |(r, a), p| (r + p.recycled(), a + p.allocated()))
    }
}

/// Dispatched epochs that may sit between the dispatcher thread of a
/// multi-epoch call and the replay loop: enough for the metadata scan of
/// epoch `e+1` to overlap the replay of epoch `e`. The epoch barrier is
/// unaffected: the loop consumes epochs strictly in order and only ever
/// commits the epoch at hand.
const DISPATCH_AHEAD: usize = 2;

/// Mini-transactions per chunk: the unit of translate-then-commit inside
/// a group and of the hand-off between a split group's translators and
/// its committer. Tens, not one: a chunk amortises its clock reads, its
/// pool round trip and (split groups) its slot lock over enough work to
/// take all three off the hot path, and is still small next to an epoch,
/// so a split group has several chunks to share out.
pub const CHUNK: usize = 32;

/// Busy time of every crew member over one `replay` call, in
/// nanoseconds, added chunk by chunk: translate (phase 1) and commit
/// (phase 2) apart, as the Table II breakdown wants them.
#[derive(Default)]
struct BusyTotals {
    translate_ns: AtomicU64,
    commit_ns: AtomicU64,
}

/// One dispatched epoch on its way through the stages, with what the
/// call lends the crew to replay it.
struct EpochRun<'a> {
    db: &'a MemDb,
    board: &'a VisibilityBoard,
    busy: &'a BusyTotals,
    seq: u64,
    /// The epoch's dispatch span; every replay span parents to it.
    parent: Option<SpanId>,
    work: &'a DispatchedEpoch,
}

/// What the dispatching side hands the replay loop for one epoch.
struct Dispatched {
    seq: u64,
    work: Result<DispatchedEpoch>,
    /// Dispatch time of this epoch.
    busy: Duration,
    parent: Option<SpanId>,
    plan: EpochPlan,
}

/// One group's work in one stage, claimed whole by one crew member.
struct GroupTask<'a> {
    gid: GroupId,
    work: &'a GroupWork,
    /// Present when the group is split (`t_g ≥ 2`).
    handoff: Option<Handoff>,
}

/// The chunk hand-off of a split group: translators claim chunk indices
/// from `next` and leave each outcome in its slot; the committer takes
/// the slots in order.
struct Handoff {
    next: AtomicUsize,
    slots: Vec<Mutex<Option<Chunk>>>,
    /// Threads the allocation gave the group, committer included.
    threads: usize,
}

/// One translated chunk: the cells of its first `translated`
/// mini-transactions back to back, and why translation stopped early.
struct Chunk {
    cells: Vec<Cell>,
    translated: usize,
    err: Option<Error>,
}

impl<'a> GroupTask<'a> {
    fn new(gid: GroupId, work: &'a GroupWork, threads: usize) -> Self {
        let chunks = work.mini_txns.len().div_ceil(CHUNK);
        let handoff = (threads >= 2 && chunks >= 2).then(|| Handoff {
            next: AtomicUsize::new(0),
            slots: (0..chunks).map(|_| Mutex::new(None)).collect(),
            threads,
        });
        Self { gid, work, handoff }
    }

    fn chunks(&self) -> usize {
        self.work.mini_txns.len().div_ceil(CHUNK)
    }

    fn chunk(&self, c: usize) -> &'a [MiniTxn] {
        let mts = &self.work.mini_txns;
        &mts[c * CHUNK..mts.len().min((c + 1) * CHUNK)]
    }

    /// Crew members this task can keep busy at once.
    fn threads_wanted(&self) -> usize {
        self.handoff.as_ref().map_or(1, |h| h.threads.min(h.slots.len()))
    }

    /// Stops translators from claiming further chunks of a group whose
    /// committer gave up.
    fn abandon(&self) {
        if let Some(h) = &self.handoff {
            h.next.store(h.slots.len(), Ordering::Relaxed);
        }
    }
}

impl Handoff {
    /// Claims the next untranslated chunk, if any is left.
    fn claim(&self) -> Option<usize> {
        // Checked first so a finished group's cursor stops moving.
        if self.next.load(Ordering::Relaxed) >= self.slots.len() {
            return None;
        }
        let c = self.next.fetch_add(1, Ordering::Relaxed);
        (c < self.slots.len()).then_some(c)
    }
}

impl ReplayEngine for AetsEngine {
    fn name(&self) -> &'static str {
        if read(&self.grouping).grouping.num_groups() == 1 && !self.cfg.two_stage {
            "tplr"
        } else {
            "aets"
        }
    }

    fn board_groups(&self) -> usize {
        read(&self.grouping).grouping.num_groups()
    }

    fn board_groups_for(&self, tables: &[TableId]) -> (u64, Vec<GroupId>) {
        let g = read(&self.grouping);
        (g.gen, g.grouping.groups_of(tables))
    }

    fn reconfigure(&self) -> Option<ReconfigureHandle> {
        Some(self.reconf.clone())
    }

    fn current_grouping(&self) -> Option<Arc<TableGrouping>> {
        Some(self.grouping())
    }

    /// Replays `epochs` in order. They arrive checked: a feed's resync
    /// loop, a WAL's `read_suffix` or its `append` verified the frame CRC
    /// and the sequence before handing them over, so the engine only
    /// parses (a malformed epoch is a dispatch error).
    ///
    /// Returns an error when dispatch cannot make progress. Group-level
    /// replay failures do *not* error: the group is quarantined, the run
    /// completes degraded, and `ReplayMetrics::quarantined_groups` /
    /// [`AetsEngine::quarantined_groups`] report it.
    ///
    /// Concurrent calls on one engine take turns: the crew runs one
    /// call's stages at a time.
    fn replay(
        &self,
        epochs: &[EncodedEpoch],
        db: &MemDb,
        board: &VisibilityBoard,
    ) -> Result<ReplayMetrics> {
        // The group count is a construction-time invariant: live regroups
        // move tables between groups but never change how many there are.
        if board.num_groups() != self.pools.len() {
            return Err(Error::Config("board group count mismatch".into()));
        }
        let mut crew = lock(&self.crew);
        let start = Instant::now();
        let mut m = ReplayMetrics { engine: self.name(), ..Default::default() };
        let busy = BusyTotals::default();
        let pooled_before = self.pool_counts();

        // The one replay loop: finishes epoch e (both stages + global
        // publish) before it looks at e+1's work, so no entry of epoch
        // e+1 can commit before epoch e is fully replayed — a dispatcher
        // running ahead never weakens the epoch barrier.
        let mut replay_next = |d: Dispatched| -> Result<()> {
            let seq = d.seq;
            // Dispatch busy time counts as busy time in the Table II
            // breakdown even when it overlapped replay: the breakdown
            // measures work, not the critical path.
            m.dispatch_busy += d.busy;
            self.stats.dispatch_us.record_micros(d.busy.as_micros() as u64);
            let work = d.work?;
            self.telemetry.event(EventKind::EpochDispatched { seq });
            let epoch = EpochRun { db, board, busy: &busy, seq, parent: d.parent, work: &work };
            self.replay_epoch(&mut crew, &epoch, &d.plan, &mut m)?;
            self.telemetry.event(EventKind::EpochCommitted {
                seq,
                max_commit_ts_us: work.max_commit_ts.as_micros(),
            });
            self.telemetry.spans().set_epoch_hint(seq);
            Ok(())
        };
        if epochs.len() > 1 {
            // A scoped dispatcher scans epochs ahead of the loop, bounded
            // by `DISPATCH_AHEAD` dispatched epochs in flight. The one
            // thread start of the replay path; a single-epoch call has
            // nothing to overlap and skips it.
            std::thread::scope(|scope| {
                let (tx, rx) = std::sync::mpsc::sync_channel(DISPATCH_AHEAD);
                scope.spawn(move || {
                    for epoch in epochs {
                        let d = self.dispatch_next(epoch);
                        // A dispatch error is forwarded, then the
                        // dispatcher stops; a send error means the replay
                        // loop bailed out and dropped the receiver.
                        let stop = d.work.is_err();
                        if tx.send(d).is_err() || stop {
                            break;
                        }
                    }
                });
                // Returning drops the receiver, which unblocks a
                // dispatcher stuck in `send` after an early exit.
                rx.iter().try_for_each(&mut replay_next)
            })?;
        } else {
            for epoch in epochs {
                replay_next(self.dispatch_next(epoch))?;
            }
        }
        m.quarantined_groups = self.quarantine.poisoned();
        let pooled = self.pool_counts();
        m.cell_buffers_recycled = pooled.0 - pooled_before.0;
        m.cell_buffers_allocated = pooled.1 - pooled_before.1;
        m.replay_busy = Duration::from_nanos(busy.translate_ns.load(Ordering::Relaxed));
        m.commit_busy = Duration::from_nanos(busy.commit_ns.load(Ordering::Relaxed));
        m.wall = start.elapsed();
        // Wall-normalised throughput of this call; single-epoch calls from
        // the realtime runner overwrite it each tick, so the gauge always
        // reads the most recent ingest rate.
        let wall_us = m.wall.as_micros() as u64;
        if let Some(bps) = m.bytes.saturating_mul(1_000_000).checked_div(wall_us) {
            self.stats.ingest_bps.set(bps);
        }
        // Per-call deltas feed the cumulative registry counters: the
        // realtime runner calls `replay` once per epoch through the same
        // engine, so the registry integrates what ReplayMetrics reports
        // per call.
        self.stats.cell_recycled.add(m.cell_buffers_recycled);
        self.stats.cell_allocated.add(m.cell_buffers_allocated);
        self.stats.replay_busy_us.add(m.replay_busy.as_micros() as u64);
        self.stats.commit_busy_us.add(m.commit_busy.as_micros() as u64);
        Ok(m)
    }

    fn telemetry_handle(&self) -> Option<Arc<Telemetry>> {
        Some(self.telemetry.clone())
    }
}

/// Even split of threads across groups with pending work (the
/// non-adaptive baseline allocation).
fn even_allocation(total: usize, pending: &[u64]) -> Vec<usize> {
    let working: Vec<usize> = (0..pending.len()).filter(|i| pending[*i] > 0).collect();
    let mut out = vec![0usize; pending.len()];
    if working.is_empty() {
        return out;
    }
    let per = (total / working.len()).max(1);
    let mut left = total;
    for &i in &working {
        let n = per.min(left);
        out[i] = n;
        left -= n;
        if left == 0 {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::serial::SerialEngine;
    use crate::engines::with_watchdog;
    use aets_common::{FxHashSet, Timestamp};
    use aets_wal::faults::corrupt_record_of;
    use aets_workloads::tpcc::{self, TpccConfig};
    use aets_workloads::Workload;

    fn encode(w: &Workload, epoch_size: usize) -> Vec<EncodedEpoch> {
        aets_wal::batch_into_epochs(w.txns.clone(), epoch_size)
            .unwrap()
            .iter()
            .map(aets_wal::encode_epoch)
            .collect()
    }

    fn tpcc_grouping(w: &Workload) -> TableGrouping {
        let (groups, rates) = tpcc::paper_grouping();
        TableGrouping::new(w.table_names.len(), groups, rates, &w.analytic_tables).unwrap()
    }

    #[test]
    fn aets_matches_serial_oracle() {
        let w = tpcc::generate(&TpccConfig { num_txns: 800, warehouses: 2, ..Default::default() });
        let epochs = encode(&w, 128);

        let db_serial = MemDb::new(w.table_names.len());
        SerialEngine.replay_all(&epochs, &db_serial).unwrap();

        let eng = AetsEngine::builder(tpcc_grouping(&w))
            .config(AetsConfig { threads: 4, ..Default::default() })
            .build()
            .unwrap();
        let db = MemDb::new(w.table_names.len());
        let m = eng.replay_all(&epochs, &db).unwrap();

        assert_eq!(m.txns, w.txns.len());
        assert!(db.all_chains_ordered());
        assert_eq!(db.digest_at(Timestamp::MAX), db_serial.digest_at(Timestamp::MAX));
        // Snapshot equality must hold at intermediate timestamps too.
        let mid = w.txns[w.txns.len() / 2].commit_ts;
        assert_eq!(db.digest_at(mid), db_serial.digest_at(mid));
    }

    #[test]
    fn committed_text_values_keep_no_frame_alive() {
        let w = tpcc::generate(&TpccConfig { num_txns: 600, warehouses: 2, ..Default::default() });
        let epochs = encode(&w, 200);
        let eng = AetsEngine::builder(tpcc_grouping(&w))
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap();
        let db = MemDb::new(w.table_names.len());
        let board = VisibilityBoard::builder(eng.board_groups()).build();
        eng.replay(&epochs, &db, &board).unwrap();

        let frames: Vec<_> = epochs
            .iter()
            .map(|e| e.bytes.as_ptr() as usize..e.bytes.as_ptr() as usize + e.bytes.len())
            .collect();
        let history = db.table(tpcc::tables::HISTORY);
        let mut texts = 0;
        for (key, _) in history.entries() {
            for (_, v) in history.read_row(key, Timestamp::MAX).unwrap() {
                let aets_common::Value::Text(s) = v else { continue };
                let p = s.as_bytes().as_ptr() as usize..s.as_bytes().as_ptr() as usize + s.len();
                for f in &frames {
                    assert!(p.end <= f.start || p.start >= f.end, "{key:?}: {p:?} in {f:?}");
                }
                texts += 1;
            }
        }
        assert!(texts > 100, "only {texts} history text values read back");
    }

    #[test]
    fn tplr_baseline_matches_serial() {
        let w = tpcc::generate(&TpccConfig { num_txns: 600, warehouses: 2, ..Default::default() });
        let epochs = encode(&w, 200);
        let db_serial = MemDb::new(w.table_names.len());
        SerialEngine.replay_all(&epochs, &db_serial).unwrap();

        let eng = AetsEngine::tplr_baseline(4, w.table_names.len(), &w.analytic_tables).unwrap();
        assert_eq!(eng.name(), "tplr");
        let db = MemDb::new(w.table_names.len());
        eng.replay_all(&epochs, &db).unwrap();
        assert_eq!(db.digest_at(Timestamp::MAX), db_serial.digest_at(Timestamp::MAX));
    }

    #[test]
    fn hot_groups_become_visible_before_epoch_ends() {
        // With two-stage replay, after replay the hot groups' tg_cmt_ts
        // must equal the last epoch's max commit ts.
        let w = tpcc::generate(&TpccConfig { num_txns: 400, warehouses: 2, ..Default::default() });
        let epochs = encode(&w, 100);
        let eng = AetsEngine::builder(tpcc_grouping(&w))
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap();
        let db = MemDb::new(w.table_names.len());
        let board = VisibilityBoard::builder(eng.board_groups()).build();
        eng.replay(&epochs, &db, &board).unwrap();
        let last = epochs.last().unwrap().max_commit_ts;
        for g in 0..eng.board_groups() as u32 {
            assert!(board.tg_cmt_ts(GroupId::new(g)) >= last, "group {g} lagging");
        }
        assert_eq!(board.global_cmt_ts(), last);
    }

    #[test]
    fn single_thread_still_completes() {
        let w = tpcc::generate(&TpccConfig { num_txns: 300, warehouses: 2, ..Default::default() });
        let epochs = encode(&w, 64);
        let eng = AetsEngine::builder(tpcc_grouping(&w))
            .config(AetsConfig { threads: 1, ..Default::default() })
            .build()
            .unwrap();
        let db = MemDb::new(w.table_names.len());
        let m = eng.replay_all(&epochs, &db).unwrap();
        assert_eq!(m.txns, w.txns.len());
        assert!(db.all_chains_ordered());
    }

    #[test]
    fn non_adaptive_and_single_stage_paths_work() {
        let w = tpcc::generate(&TpccConfig { num_txns: 300, warehouses: 2, ..Default::default() });
        let epochs = encode(&w, 64);
        let db_serial = MemDb::new(w.table_names.len());
        SerialEngine.replay_all(&epochs, &db_serial).unwrap();
        for (two_stage, adaptive) in [(false, true), (true, false), (false, false)] {
            let eng = AetsEngine::builder(tpcc_grouping(&w))
                .config(AetsConfig { threads: 3, two_stage, adaptive, ..Default::default() })
                .build()
                .unwrap();
            let db = MemDb::new(w.table_names.len());
            eng.replay_all(&epochs, &db).unwrap();
            assert_eq!(
                db.digest_at(Timestamp::MAX),
                db_serial.digest_at(Timestamp::MAX),
                "two_stage={two_stage} adaptive={adaptive}"
            );
        }
    }

    #[test]
    fn rejects_bad_configs() {
        let hot: FxHashSet<TableId> = FxHashSet::default();
        let g = TableGrouping::single(2, &hot);
        assert!(AetsEngine::builder(g)
            .config(AetsConfig { threads: 0, ..Default::default() })
            .build()
            .is_err());
    }

    #[test]
    fn pipelined_and_serial_datapaths_match() {
        // The replay loop fed by the dispatcher thread (one whole-stream
        // call) must produce state identical to the same loop dispatching
        // inline (one call per epoch) and to the serial oracle.
        let w = tpcc::generate(&TpccConfig { num_txns: 600, warehouses: 2, ..Default::default() });
        let epochs = encode(&w, 96);
        let db_oracle = MemDb::new(w.table_names.len());
        SerialEngine.replay_all(&epochs, &db_oracle).unwrap();
        let oracle = db_oracle.digest_at(Timestamp::MAX);

        for call_len in [epochs.len(), 1] {
            let eng = AetsEngine::builder(tpcc_grouping(&w))
                .config(AetsConfig { threads: 3, ..Default::default() })
                .build()
                .unwrap();
            let db = MemDb::new(w.table_names.len());
            let board = VisibilityBoard::builder(eng.board_groups()).build();
            let mut txns = 0;
            for call in epochs.chunks(call_len) {
                txns += eng.replay(call, &db, &board).unwrap().txns;
            }
            assert_eq!(txns, w.txns.len(), "call_len={call_len}");
            assert!(db.all_chains_ordered(), "call_len={call_len}");
            assert_eq!(db.digest_at(Timestamp::MAX), oracle, "call_len={call_len}");
        }
    }

    #[test]
    fn cell_pool_recycles_buffers_across_epochs() {
        // With many epochs, steady-state phase 1 must be served from the
        // engine's free lists: recycled takes dominate fresh allocations,
        // within one call and — the durable path's shape — across calls
        // that replay one epoch each.
        let w = tpcc::generate(&TpccConfig { num_txns: 1200, warehouses: 2, ..Default::default() });
        let epochs = encode(&w, 64);
        assert!(epochs.len() > 10);
        let eng = AetsEngine::builder(tpcc_grouping(&w))
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap();
        let db = MemDb::new(w.table_names.len());
        let m = eng.replay_all(&epochs, &db).unwrap();
        assert!(m.cell_buffers_allocated > 0);
        assert!(
            m.cell_buffers_recycled > m.cell_buffers_allocated,
            "recycled {} should exceed allocated {}",
            m.cell_buffers_recycled,
            m.cell_buffers_allocated
        );
        let db = MemDb::new(w.table_names.len());
        let board = VisibilityBoard::builder(eng.board_groups()).build();
        let mut allocated = 0;
        for e in &epochs {
            allocated +=
                eng.replay(std::slice::from_ref(e), &db, &board).unwrap().cell_buffers_allocated;
        }
        assert_eq!(allocated, 0, "a warm engine's pools serve every single-epoch call");
    }

    #[test]
    fn pipelined_dispatch_surfaces_decode_errors() {
        let w = tpcc::generate(&TpccConfig { num_txns: 200, warehouses: 2, ..Default::default() });
        let mut epochs = encode(&w, 64);
        // Truncate the last epoch mid-record: the dispatcher must forward
        // the decode error through the pipeline instead of hanging.
        let last = epochs.last().unwrap();
        let mut b = last.bytes.clone();
        let cut = b.split_to(b.len() - 3);
        let corrupt = aets_wal::EncodedEpoch { bytes: cut, ..last.clone() };
        *epochs.last_mut().unwrap() = corrupt;
        let eng = AetsEngine::builder(tpcc_grouping(&w))
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap();
        let db = MemDb::new(w.table_names.len());
        let err = eng.replay_all(&epochs, &db).unwrap_err();
        assert!(matches!(err.kind(), "codec" | "protocol"), "got {err}");
    }

    fn two_group_grouping() -> TableGrouping {
        let hot: FxHashSet<TableId> = [TableId::new(0)].into_iter().collect();
        TableGrouping::new(
            3,
            vec![vec![TableId::new(0), TableId::new(1)], vec![TableId::new(2)]],
            vec![10.0, 1.0],
            &hot,
        )
        .unwrap()
    }

    /// 12 transactions, each writing table 0 (group 0, hot) and table 2
    /// (group 1, cold), batched into 3 epochs of 4.
    fn two_group_epochs() -> Vec<EncodedEpoch> {
        use aets_common::{ColumnId, DmlOp, Lsn, RowKey, TxnId, Value};
        use aets_wal::{DmlEntry, TxnLog};
        let txns: Vec<TxnLog> = (1..=12u64)
            .map(|i| TxnLog {
                txn_id: TxnId::new(i),
                commit_ts: Timestamp::from_micros(i * 10),
                entries: [0u32, 2]
                    .iter()
                    .enumerate()
                    .map(|(j, &table)| DmlEntry {
                        lsn: Lsn::new(i * 10 + j as u64),
                        txn_id: TxnId::new(i),
                        ts: Timestamp::from_micros(i * 10),
                        table: TableId::new(table),
                        op: DmlOp::Insert,
                        key: RowKey::new(i),
                        row_version: 1,
                        cols: vec![(ColumnId::new(0), Value::Int(i as i64))],
                        before: None,
                    })
                    .collect(),
            })
            .collect();
        aets_wal::batch_into_epochs(txns, 4).unwrap().iter().map(aets_wal::encode_epoch).collect()
    }

    #[test]
    fn persistent_corruption_quarantines_group_and_freezes_watermarks() {
        let mut epochs = two_group_epochs();
        epochs[1] = corrupt_record_of(&epochs[1], TableId::new(2)).expect("a DML of table 2");
        let tel = Arc::new(Telemetry::new());
        let eng = AetsEngine::builder(two_group_grouping())
            .config(AetsConfig { threads: 2, ..Default::default() })
            .telemetry(tel.clone())
            .build()
            .unwrap();
        let db = MemDb::new(3);
        let board = VisibilityBoard::builder(2).build();
        let last_consistent = epochs[0].max_commit_ts;

        let m = eng.replay(&epochs[..2], &db, &board).unwrap();
        assert!(m.degraded());
        assert_eq!(m.quarantined_groups, vec![1]);
        assert_eq!(eng.quarantined_groups(), vec![1]);
        // The event says why the group froze, not only that it did.
        let why: Vec<String> = tel
            .drain_events()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::GroupQuarantined { group: 1, reason } => Some(reason),
                _ => None,
            })
            .collect();
        assert_eq!(why, [Error::CodecChecksum.to_string()]);
        // The corrupt record sits in group 1's first mini-txn of epoch
        // 1, so nothing of that epoch commits there: tg freezes at the
        // last consistent epoch, and so does the global (else
        // Algorithm 3's global shortcut would admit queries over the
        // quarantined group).
        assert_eq!(board.tg_cmt_ts(GroupId::new(1)), last_consistent);
        assert_eq!(board.global_cmt_ts(), last_consistent);
        // The healthy group replayed the corrupt epoch in full.
        assert_eq!(board.tg_cmt_ts(GroupId::new(0)), epochs[1].max_commit_ts);

        // Quarantine persists across replay calls on the same engine
        // (the realtime runner replays one epoch per call): the frozen
        // group never advances, healthy groups keep going.
        let m = eng.replay(&epochs[2..], &db, &board).unwrap();
        assert!(m.degraded());
        assert_eq!(
            board.tg_cmt_ts(GroupId::new(1)),
            last_consistent,
            "quarantined group advanced past its last consistent epoch"
        );
        assert_eq!(board.global_cmt_ts(), last_consistent);
        assert_eq!(board.tg_cmt_ts(GroupId::new(0)), epochs[2].max_commit_ts);
        assert!(db.all_chains_ordered());
    }

    /// The two-group layout after a live regroup: table 1 moves from the
    /// hot group 0 to the cold group 1. Same group and table counts.
    fn regrouped_two_groups() -> TableGrouping {
        let hot: FxHashSet<TableId> = [TableId::new(0)].into_iter().collect();
        TableGrouping::new(
            3,
            vec![vec![TableId::new(0)], vec![TableId::new(1), TableId::new(2)]],
            vec![10.0, 1.0],
            &hot,
        )
        .unwrap()
    }

    #[test]
    fn live_regroup_matches_serial_oracle_and_bumps_generation() {
        // Drive the engine one epoch per replay call (the realtime
        // runner's shape) and regroup between epochs: the end state must
        // stay byte-equivalent to the serial oracle, the board must learn
        // the new generation, and the metrics must count the regroup.
        let epochs = two_group_epochs();
        let db_oracle = MemDb::new(3);
        SerialEngine.replay_all(&epochs, &db_oracle).unwrap();

        let eng = AetsEngine::builder(two_group_grouping())
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap();
        let db = MemDb::new(3);
        let board = VisibilityBoard::builder(2).build();

        eng.replay(&epochs[..1], &db, &board).unwrap();
        assert_eq!(board.grouping_gen(), 0);

        let handle = eng.reconfigure_handle();
        handle.send(Reconfigure::Regroup(regrouped_two_groups())).unwrap();
        assert_eq!(handle.pending(), 1);
        let m = eng.replay(&epochs[1..], &db, &board).unwrap();
        assert_eq!(m.regroups_applied, 1);
        assert_eq!(handle.applied(), 1);
        assert_eq!(handle.pending(), 0);
        assert_eq!(eng.grouping_gen(), 1);
        assert_eq!(board.grouping_gen(), 1);
        // Table 1 now maps to group 1 under the installed grouping.
        assert_eq!(eng.grouping().group_of(TableId::new(1)), GroupId::new(1));

        assert!(db.all_chains_ordered());
        assert_eq!(db.digest_at(Timestamp::MAX), db_oracle.digest_at(Timestamp::MAX));
        // All groups replayed everything: watermarks at the tail.
        let last = epochs.last().unwrap().max_commit_ts;
        assert_eq!(board.global_cmt_ts(), last);
    }

    #[test]
    fn thread_split_pin_overrides_solver() {
        let epochs = two_group_epochs();
        let db_oracle = MemDb::new(3);
        SerialEngine.replay_all(&epochs, &db_oracle).unwrap();

        let eng = AetsEngine::builder(two_group_grouping())
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap();
        eng.reconfigure_handle().send(Reconfigure::SetThreadSplit(vec![1, 1])).unwrap();
        let db = MemDb::new(3);
        let m = eng.replay_all(&epochs, &db).unwrap();
        assert_eq!(m.resplits_applied, 1);
        assert_eq!(db.digest_at(Timestamp::MAX), db_oracle.digest_at(Timestamp::MAX));
    }

    #[test]
    fn regroup_rejected_while_quarantined() {
        let mut epochs = two_group_epochs();
        epochs[1] = corrupt_record_of(&epochs[1], TableId::new(2)).expect("a DML of table 2");
        let eng = AetsEngine::builder(two_group_grouping())
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap();
        let db = MemDb::new(3);
        let board = VisibilityBoard::builder(2).build();
        let m = eng.replay(&epochs[..2], &db, &board).unwrap();
        assert_eq!(m.quarantined_groups, vec![1]);

        // A regroup while group 1's watermark is frozen must be dropped:
        // moving tables would change what the freeze protects.
        let handle = eng.reconfigure_handle();
        handle.send(Reconfigure::Regroup(regrouped_two_groups())).unwrap();
        let m = eng.replay(&epochs[2..], &db, &board).unwrap();
        assert_eq!(m.reconf_rejected, 1);
        assert_eq!(m.regroups_applied, 0);
        assert_eq!(handle.applied(), 0);
        assert_eq!(eng.grouping_gen(), 0);
        assert_eq!(board.grouping_gen(), 0);
        assert_eq!(eng.grouping().group_of(TableId::new(1)), GroupId::new(0));
    }

    #[test]
    fn reconfigure_handle_validates_commands() {
        let eng = AetsEngine::builder(two_group_grouping())
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap();
        let handle = eng.reconfigure_handle();
        // Wrong split arity.
        assert!(handle.send(Reconfigure::SetThreadSplit(vec![1, 1, 1])).is_err());
        // Wrong group count (engine is sized for 2 groups).
        let hot: FxHashSet<TableId> = FxHashSet::default();
        assert!(handle
            .send(Reconfigure::Regroup(TableGrouping::per_table(3, &hot, |_| 1.0)))
            .is_err());
        // Wrong table count.
        assert!(handle
            .send(Reconfigure::Regroup(
                TableGrouping::new(
                    2,
                    vec![vec![TableId::new(0)], vec![TableId::new(1)]],
                    vec![1.0, 1.0],
                    &hot,
                )
                .unwrap()
            ))
            .is_err());
        assert_eq!(handle.pending(), 0);
    }

    #[test]
    fn one_engine_reused_per_epoch_equals_one_whole_stream_call() {
        // The durable path's shape: one `replay` call per epoch through
        // one engine (inline dispatch, warm crew) must leave the state a
        // single whole-stream call (dispatcher thread) leaves.
        with_watchdog(|| {
            let w =
                tpcc::generate(&TpccConfig { num_txns: 1500, warehouses: 2, ..Default::default() });
            let epochs = encode(&w, 24);
            let oracle = MemDb::new(w.table_names.len());
            SerialEngine.replay_all(&epochs, &oracle).unwrap();
            for threads in [1usize, 2, 4] {
                let build = || {
                    AetsEngine::builder(tpcc_grouping(&w))
                        .config(AetsConfig { threads, ..Default::default() })
                        .build()
                        .unwrap()
                };
                let whole = MemDb::new(w.table_names.len());
                let m_whole = build().replay_all(&epochs, &whole).unwrap();

                let eng = build();
                let db = MemDb::new(w.table_names.len());
                let board = VisibilityBoard::builder(eng.board_groups()).build();
                let mut txns = 0;
                for e in &epochs {
                    txns += eng.replay(std::slice::from_ref(e), &db, &board).unwrap().txns;
                    assert_eq!(board.global_cmt_ts(), e.max_commit_ts);
                }
                assert_eq!(txns, m_whole.txns);
                assert!(db.all_chains_ordered());
                for ts in [Timestamp::MAX, w.txns[w.txns.len() / 2].commit_ts] {
                    assert_eq!(db.digest_at(ts), whole.digest_at(ts), "threads={threads}");
                    assert_eq!(db.digest_at(ts), oracle.digest_at(ts), "threads={threads}");
                }
            }
        });
    }

    #[test]
    fn concurrent_replay_calls_on_one_engine_take_turns() {
        with_watchdog(|| {
            let w =
                tpcc::generate(&TpccConfig { num_txns: 600, warehouses: 2, ..Default::default() });
            let epochs = encode(&w, 16);
            let oracle = MemDb::new(w.table_names.len());
            SerialEngine.replay_all(&epochs, &oracle).unwrap();
            let eng = AetsEngine::builder(tpcc_grouping(&w))
                .config(AetsConfig { threads: 3, ..Default::default() })
                .build()
                .unwrap();
            // Two callers, each with its own database, through one crew:
            // one whole-stream call against a string of single-epoch ones.
            let dbs = [MemDb::new(w.table_names.len()), MemDb::new(w.table_names.len())];
            std::thread::scope(|scope| {
                scope.spawn(|| eng.replay_all(&epochs, &dbs[0]).unwrap());
                scope.spawn(|| {
                    let board = VisibilityBoard::builder(eng.board_groups()).build();
                    for e in &epochs {
                        eng.replay(std::slice::from_ref(e), &dbs[1], &board).unwrap();
                    }
                });
            });
            for db in &dbs {
                assert!(db.all_chains_ordered());
                assert_eq!(db.digest_at(Timestamp::MAX), oracle.digest_at(Timestamp::MAX));
            }
        });
    }

    #[test]
    fn helpers_park_after_replay_and_join_on_drop() {
        with_watchdog(|| {
            let epochs = two_group_epochs();
            let eng = AetsEngine::builder(two_group_grouping())
                .config(AetsConfig { threads: 4, ..Default::default() })
                .build()
                .unwrap();
            eng.replay_all(&epochs, &MemDb::new(3)).unwrap();
            let deadline = Instant::now() + Duration::from_secs(30);
            while lock(&eng.crew).parked() < 3 {
                assert!(Instant::now() < deadline, "helpers still awake after replay returned");
                std::thread::sleep(Duration::from_millis(1));
            }
            // Joins all three; the watchdog catches one that never leaves.
            drop(eng);
        });
    }

    /// 80 transactions in one epoch, every one writing table 0 (group 0)
    /// and a group-1 table: table 2 for the first 40, table 3 after. On a
    /// three-table database the table-3 writes panic in translate, in
    /// group 1's second chunk.
    fn late_panic_epochs() -> (TableGrouping, Vec<EncodedEpoch>) {
        use aets_common::{ColumnId, DmlOp, Lsn, RowKey, TxnId, Value};
        use aets_wal::{DmlEntry, TxnLog};
        let hot: FxHashSet<TableId> = [TableId::new(0)].into_iter().collect();
        let grouping = TableGrouping::new(
            4,
            vec![vec![TableId::new(0), TableId::new(1)], vec![TableId::new(2), TableId::new(3)]],
            vec![10.0, 1.0],
            &hot,
        )
        .unwrap();
        let txns: Vec<TxnLog> = (1..=160u64)
            .map(|i| TxnLog {
                txn_id: TxnId::new(i),
                commit_ts: Timestamp::from_micros(i * 10),
                entries: [0u32, if (i - 1) % 80 < 40 { 2 } else { 3 }]
                    .iter()
                    .enumerate()
                    .map(|(j, &table)| DmlEntry {
                        lsn: Lsn::new(i * 10 + j as u64),
                        txn_id: TxnId::new(i),
                        ts: Timestamp::from_micros(i * 10),
                        table: TableId::new(table),
                        op: DmlOp::Insert,
                        key: RowKey::new(i),
                        row_version: 1,
                        cols: vec![(ColumnId::new(0), Value::Int(i as i64))],
                        before: None,
                    })
                    .collect(),
            })
            .collect();
        let epochs = aets_wal::batch_into_epochs(txns, 80)
            .unwrap()
            .iter()
            .map(aets_wal::encode_epoch)
            .collect();
        (grouping, epochs)
    }

    /// The crew lent to a snapshot walk: with `threads: 1` the caller is
    /// the only walker and walks every part itself (`finish` panics on a
    /// part nobody walked); with helpers the caller walks too, and the
    /// bytes are the one-thread encoder's either way.
    #[test]
    fn a_lent_crew_walks_every_snapshot_part() {
        use aets_common::{ColumnId, RowKey, TxnId, Value};
        use aets_memtable::{encode_db, OpType, SnapshotWalk, Version, MIN_CUT_LEN};
        use bytes::BytesMut;
        with_watchdog(|| {
            let db = MemDb::new(2);
            for k in 0..3 * MIN_CUT_LEN as u64 {
                db.table(TableId::new((k % 7 == 0) as u32)).apply_version(
                    RowKey::new(k),
                    Version {
                        txn_id: TxnId::new(k + 1),
                        commit_ts: Timestamp::from_micros(k + 1),
                        op: OpType::Insert,
                        cols: vec![(ColumnId::new(0), Value::Int(k as i64))],
                    },
                );
            }
            let mut want = BytesMut::new();
            encode_db(&mut want, &db, Timestamp::MAX);
            let me = std::thread::current().id();
            for threads in [1usize, 2] {
                let eng = AetsEngine::builder(TableGrouping::single(2, &FxHashSet::default()))
                    .config(AetsConfig { threads, ..Default::default() })
                    .build()
                    .unwrap();
                // Planned for more walkers than the engine has: many parts.
                let walk = SnapshotWalk::plan(&db, Timestamp::MAX, None, 4, 0);
                let walkers = Mutex::new(Vec::new());
                eng.lend_crew(&|| {
                    lock(&walkers).push(std::thread::current().id());
                    walk.work();
                })
                .unwrap();
                let walkers = walkers.into_inner().unwrap();
                assert!(walkers.contains(&me), "threads {threads}: the caller walks");
                if threads == 1 {
                    assert_eq!(walkers, [me], "a one-thread engine lends only its caller");
                }
                assert!(
                    walk.finish()
                        .pieces
                        .iter()
                        .flat_map(|p| p.iter().copied())
                        .collect::<Vec<u8>>()
                        == want[..],
                    "threads {threads}"
                );
            }
        });
    }

    #[test]
    fn chunk_translator_panic_reaches_the_committer_in_order() {
        // The hand-off in isolation: a translator that panics leaves its
        // failure in the chunk's slot, chunks before it stay good, and
        // the committer commits exactly the good prefix before it fails.
        let (grouping, epochs) = late_panic_epochs();
        let eng = AetsEngine::builder(grouping.clone())
            .config(AetsConfig { threads: 1, ..Default::default() })
            .build()
            .unwrap();
        let db = MemDb::new(3);
        let board = VisibilityBoard::builder(2).build();
        let work = dispatch_epoch(&epochs[0], &grouping).unwrap();
        let totals = BusyTotals::default();
        let epoch =
            EpochRun { db: &db, board: &board, busy: &totals, seq: 0, parent: None, work: &work };
        let task = GroupTask::new(GroupId::new(1), work.group(GroupId::new(1)), 2);
        assert_eq!(task.chunks(), 3, "80 mini-txns in chunks of {CHUNK}");
        eng.translate_ahead(&epoch, &task);
        let slots = &task.handoff.as_ref().unwrap().slots;
        assert!(lock(&slots[0]).as_ref().unwrap().err.is_none());
        let failed = lock(&slots[1]).as_ref().unwrap().err.clone().unwrap();
        assert!(failed.to_string().contains("chunk translator panicked"), "{failed}");
        let err = eng.replay_group(&epoch, &task).unwrap_err();
        assert_eq!(err, failed);
        // Chunk 0 (mini-txns 1..=32) committed, nothing of chunk 1.
        assert_eq!(board.tg_cmt_ts(GroupId::new(1)), Timestamp::from_micros(320));
    }

    #[test]
    fn panics_in_group_tasks_and_chunk_translators_quarantine_only_their_group() {
        with_watchdog(|| {
            let (grouping, epochs) = late_panic_epochs();
            // Unsplit: the panic unwinds out of the claimant's group task.
            // Split: it hits the committer or a helper translating ahead,
            // whichever claims the chunk — both must end the same way.
            for split in [None, Some(vec![2usize, 3])] {
                for _ in 0..20 {
                    let eng = AetsEngine::builder(grouping.clone())
                        .config(AetsConfig { threads: 3, ..Default::default() })
                        .build()
                        .unwrap();
                    if let Some(split) = &split {
                        eng.reconfigure_handle()
                            .send(Reconfigure::SetThreadSplit(split.clone()))
                            .unwrap();
                    }
                    let db = MemDb::new(3);
                    let board = VisibilityBoard::builder(2).build();
                    let m = eng.replay(&epochs[..1], &db, &board).unwrap();
                    assert_eq!(m.quarantined_groups, vec![1], "split={split:?}");
                    assert_eq!(board.tg_cmt_ts(GroupId::new(0)), epochs[0].max_commit_ts);
                    // Frozen inside the epoch, at the end of the last
                    // chunk before the panicking one (a contained panic
                    // takes its whole chunk with it, whoever translated).
                    let frozen = board.tg_cmt_ts(GroupId::new(1)).as_micros();
                    assert_eq!(frozen, 320, "split={split:?}");
                    assert_eq!(board.global_cmt_ts(), Timestamp::ZERO);
                    // The same crew replays the next epoch: the healthy
                    // group advances, the quarantined one stays frozen.
                    let m = eng.replay(&epochs[1..], &db, &board).unwrap();
                    assert_eq!(m.quarantined_groups, vec![1]);
                    assert_eq!(board.tg_cmt_ts(GroupId::new(0)), epochs[1].max_commit_ts);
                    assert_eq!(board.tg_cmt_ts(GroupId::new(1)).as_micros(), frozen);
                    assert!(db.all_chains_ordered());
                }
            }
        });
    }

    #[test]
    fn worker_panic_is_contained_and_quarantines_the_group() {
        let epochs = two_group_epochs();
        let eng = AetsEngine::builder(two_group_grouping())
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap();
        // A db sized below the workload's table span makes the replay
        // workers panic when they touch table 2. The panic must be
        // contained (no propagation out of replay), poison group 1 from
        // the first epoch on, and leave group 0 fully replayed.
        let db = MemDb::new(2);
        let board = VisibilityBoard::builder(2).build();
        let m = eng.replay(&epochs, &db, &board).unwrap();
        assert_eq!(m.quarantined_groups, vec![1]);
        assert_eq!(board.tg_cmt_ts(GroupId::new(0)), epochs.last().unwrap().max_commit_ts);
        assert_eq!(board.tg_cmt_ts(GroupId::new(1)), Timestamp::ZERO);
        assert_eq!(board.global_cmt_ts(), Timestamp::ZERO);
    }

    #[test]
    fn metrics_breakdown_is_replay_dominated() {
        let w = tpcc::generate(&TpccConfig { num_txns: 2000, warehouses: 2, ..Default::default() });
        let epochs = encode(&w, 512);
        let eng = AetsEngine::builder(tpcc_grouping(&w))
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap();
        let db = MemDb::new(w.table_names.len());
        let m = eng.replay_all(&epochs, &db).unwrap();
        let (d, r, _c) = m.breakdown();
        assert!(r > 0.5, "replay phase should dominate, got {r}");
        assert!(d < 0.4, "dispatch should be a small share, got {d}");
    }
}
