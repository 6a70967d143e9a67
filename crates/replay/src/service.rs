//! The query-serving backup node (the paper's reason to exist).
//!
//! [`BackupNode`] is the facade tying the replay side to a real read
//! side: it owns the engine, the [`VisibilityBoard`], the [`MemDb`], the
//! GC floor, and telemetry, and serves concurrent snapshot reads while
//! epochs stream in. Independent clients call
//! [`BackupNode::open_session`] with a snapshot timestamp `qts`; the
//! returned [`ReadSession`] pins `qts` into the GC floor for its
//! lifetime (RAII — dropping the session releases the pin), admits via
//! Algorithm 3 with event-driven parking, and executes [`QuerySpec`]s on
//! a bounded worker pool:
//!
//! * **Backpressure** — submissions land in a bounded admission queue;
//!   a full queue rejects with [`Error::Overloaded`] instead of queueing
//!   unboundedly.
//! * **Deadlines** — every query carries a timeout covering admission
//!   *and* execution; expiry yields [`Error::QueryTimeout`]. A
//!   [`QueryHandle`] can also cancel cooperatively.
//! * **Degraded mode** — a query needing a quarantined group whose
//!   frozen watermark is below its `qts` is refused with
//!   [`Error::Degraded`] as soon as the quarantine is known, rather than
//!   sleeping out its timeout.
//!
//! Telemetry is wired throughout: latency / queue-wait / admission-wait
//! histograms, in-flight and queue-depth gauges, served / timed-out /
//! overloaded / refused / cancelled counters, and session open/close
//! events.

use crate::control::AdaptiveController;
use crate::engines::ReplayEngine;
use crate::metrics::ReplayMetrics;
use crate::options::ServiceOptions;
use crate::target::{try_eval_part, Partial};
use crate::visibility::{VisibilityBoard, WaitOutcome};
use aets_common::sync::{lock, wait};
use aets_common::{Error, Result, Row, RowKey, TableId, Timestamp};
use aets_memtable::{gc_db, Aggregate, Filter, FloorTicket, GcStats, MemDb, QueryFloor};
use aets_telemetry::trace::stages;
use aets_telemetry::trace::SpanId;
use aets_telemetry::{
    names, table_label, ClockFn, Counter, EventKind, Gauge, HealthFn, HealthReport, Histogram,
    ObsServer, Telemetry,
};
use aets_wal::EncodedEpoch;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of the query-serving layer.
#[derive(Debug, Clone)]
pub struct NodeOptions {
    /// Query worker threads.
    pub query_workers: usize,
    /// Bounded admission-queue capacity; submissions beyond it are
    /// rejected with [`Error::Overloaded`].
    pub queue_depth: usize,
    /// Per-query deadline (admission + execution) when the
    /// [`QuerySpec`] carries none.
    pub default_timeout: Duration,
    /// Consolidated service-layer knobs shared with the durable backup
    /// and the fleet: telemetry handle, observability endpoint, flight
    /// recorder, and the adaptive control loop.
    pub service: ServiceOptions,
}

impl Default for NodeOptions {
    fn default() -> Self {
        Self {
            query_workers: 4,
            queue_depth: 64,
            default_timeout: Duration::from_secs(30),
            service: ServiceOptions::default(),
        }
    }
}

/// What a query computes over its table's snapshot at the session `qts`.
#[derive(Debug, Clone)]
pub enum OutputKind {
    /// Materialize every matching `(key, row)` in key order.
    Rows,
    /// Count matching rows.
    Count,
    /// Numeric aggregate over a column of the matching rows.
    AggregateCol {
        /// Aggregated column.
        column: aets_common::ColumnId,
        /// Aggregate kind.
        agg: Aggregate,
    },
}

/// One analytical query against a [`ReadSession`]'s snapshot.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Table to scan.
    pub table: TableId,
    /// Optional inclusive key range (ordered B+Tree scan).
    pub key_range: Option<(RowKey, RowKey)>,
    /// Conjunction of column filters.
    pub filters: Vec<Filter>,
    /// What to compute.
    pub output: OutputKind,
    /// Per-query deadline override
    /// ([`NodeOptions::default_timeout`] when `None`).
    pub timeout: Option<Duration>,
}

impl QuerySpec {
    /// An unrestricted full-table query computing `output`.
    fn over(table: TableId, output: OutputKind) -> Self {
        Self { table, key_range: None, filters: Vec::new(), output, timeout: None }
    }

    /// A full-table row scan.
    pub fn rows(table: TableId) -> Self {
        Self::over(table, OutputKind::Rows)
    }

    /// A row count.
    pub fn count(table: TableId) -> Self {
        Self::over(table, OutputKind::Count)
    }

    /// A numeric aggregate over `column`.
    pub fn aggregate(table: TableId, column: aets_common::ColumnId, agg: Aggregate) -> Self {
        Self::over(table, OutputKind::AggregateCol { column, agg })
    }

    /// Restricts to an inclusive key range.
    pub fn keys(mut self, lo: RowKey, hi: RowKey) -> Self {
        self.key_range = Some((lo, hi));
        self
    }

    /// Adds a filter.
    pub fn filter(mut self, f: Filter) -> Self {
        self.filters.push(f);
        self
    }

    /// Overrides the node's default deadline for this query.
    pub fn timeout(mut self, t: Duration) -> Self {
        self.timeout = Some(t);
        self
    }
}

/// A completed query's result.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// Matching rows in key order.
    Rows(Vec<(RowKey, Row)>),
    /// Matching row count.
    Count(usize),
    /// Aggregate value (`None` when no row contributed).
    Aggregate(Option<f64>),
}

/// Handle to an in-flight query submitted with [`ReadSession::submit`].
#[derive(Debug)]
pub struct QueryHandle {
    rx: mpsc::Receiver<Result<QueryOutput>>,
    cancel: Arc<AtomicBool>,
}

impl QueryHandle {
    /// Requests cooperative cancellation: the query fails with
    /// [`Error::Cancelled`] at its next check point (before admission,
    /// or every few hundred scanned rows).
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }

    /// Blocks until the query completes.
    pub fn wait(self) -> Result<QueryOutput> {
        self.rx.recv().unwrap_or_else(|_| Err(Error::Replay("query worker disappeared".into())))
    }
}

/// One submission travelling through the admission queue to a worker.
struct Job {
    /// The session's footprint; the worker resolves it to board groups
    /// when it starts the admission wait.
    tables: Vec<TableId>,
    qts: Timestamp,
    spec: QuerySpec,
    enqueued: Instant,
    deadline: Instant,
    cancel: Arc<AtomicBool>,
    reply: mpsc::Sender<Result<QueryOutput>>,
}

/// What the admission queue hands a worker.
enum Task {
    /// A submitted query.
    Query(Job),
    /// A part of a split scan, for whichever worker is idle.
    Part(Arc<Split>),
}

#[derive(Default)]
struct QueueState {
    tasks: VecDeque<Task>,
    /// `Task::Query`s in `tasks`: the count the capacity bounds.
    queries: usize,
    closed: bool,
}

/// Bounded MPMC admission queue: sessions push (rejecting when full),
/// workers pop (blocking), `close` drains the pool at node drop. Parts of
/// a split scan go to the front, outside the bound.
struct AdmissionQueue {
    cap: usize,
    state: Mutex<QueueState>,
    cv: Condvar,
}

impl AdmissionQueue {
    fn new(cap: usize) -> Self {
        Self { cap, state: Mutex::new(QueueState::default()), cv: Condvar::new() }
    }

    /// Enqueues unless full or closed; returns the job back on rejection.
    // The large `Err` is the point: rejection hands the job back so the
    // caller can fail it with `Overloaded` without boxing the hot path.
    #[allow(clippy::result_large_err)]
    fn try_push(&self, job: Job) -> std::result::Result<(), Job> {
        let mut s = lock(&self.state);
        if s.closed || s.queries >= self.cap {
            return Err(job);
        }
        s.tasks.push_back(Task::Query(job));
        s.queries += 1;
        drop(s);
        self.cv.notify_one();
        Ok(())
    }

    /// Offers parts `1..` of `split` ahead of every queued query. Never
    /// refused: its owner claims whatever no worker takes.
    fn push_parts(&self, split: &Arc<Split>) {
        let mut s = lock(&self.state);
        for _ in 1..split.ranges.len() {
            s.tasks.push_front(Task::Part(split.clone()));
            self.cv.notify_one();
        }
    }

    /// Blocks for the next task; `None` once closed and drained.
    fn pop(&self) -> Option<Task> {
        let mut s = lock(&self.state);
        loop {
            if let Some(task) = s.tasks.pop_front() {
                s.queries -= usize::from(matches!(task, Task::Query(_)));
                return Some(task);
            }
            if s.closed {
                return None;
            }
            s = wait(&self.cv, s);
        }
    }

    fn close(&self) {
        lock(&self.state).closed = true;
        self.cv.notify_all();
    }

    fn is_closed(&self) -> bool {
        lock(&self.state).closed
    }
}

/// Telemetry handles cached at node construction so the per-query path
/// never touches the registry map.
struct ServiceStats {
    latency: Histogram,
    queue_wait: Histogram,
    admission_wait: Histogram,
    served: Counter,
    timed_out: Counter,
    overloaded: Counter,
    refused_degraded: Counter,
    cancelled: Counter,
    inflight: Gauge,
    queue_depth: Gauge,
    sessions_opened: Counter,
    sessions_closed: Counter,
    sessions_active: Gauge,
    gc_passes: Counter,
    gc_pruned: Counter,
    gc_pass_us: Histogram,
    /// Parts of split scans run by an idle worker, or by their owner.
    parts_by_helper: Counter,
    parts_by_owner: Counter,
    /// Per-table `aets_table_access_total` counters, indexed by table id;
    /// bumped once per footprint table at session open. This is the
    /// signal the adaptive controller samples into its rate tracker.
    table_access: Vec<Counter>,
}

impl ServiceStats {
    fn new(tel: &Telemetry, num_tables: usize) -> Self {
        let reg = tel.registry();
        Self {
            table_access: (0..num_tables)
                .map(|t| reg.counter_with(names::TABLE_ACCESS, table_label(t)))
                .collect(),
            latency: reg.histogram(names::QUERY_LATENCY_US),
            queue_wait: reg.histogram(names::QUERY_QUEUE_WAIT_US),
            admission_wait: reg.histogram(names::QUERY_ADMISSION_WAIT_US),
            served: reg.counter(names::QUERIES_SERVED),
            timed_out: reg.counter(names::QUERIES_TIMED_OUT),
            overloaded: reg.counter(names::QUERIES_OVERLOADED),
            refused_degraded: reg.counter(names::QUERIES_REFUSED_DEGRADED),
            cancelled: reg.counter(names::QUERIES_CANCELLED),
            inflight: reg.gauge(names::QUERIES_INFLIGHT),
            queue_depth: reg.gauge(names::QUERY_QUEUE_DEPTH),
            sessions_opened: reg.counter(names::SESSIONS_OPENED),
            sessions_closed: reg.counter(names::SESSIONS_CLOSED),
            sessions_active: reg.gauge(names::SESSIONS_ACTIVE),
            gc_passes: reg.counter(names::GC_PASSES),
            gc_pruned: reg.counter(names::GC_PRUNED),
            gc_pass_us: reg.histogram(names::GC_PASS_US),
            parts_by_helper: reg.counter_with(names::QUERY_SCAN_PARTS, "ran_by=\"helper\"".into()),
            parts_by_owner: reg.counter_with(names::QUERY_SCAN_PARTS, "ran_by=\"owner\"".into()),
        }
    }

    /// Counts a failed query under the reason it failed for.
    fn count_failure(&self, e: &Error) {
        match e {
            Error::QueryTimeout => self.timed_out.inc(),
            Error::Degraded => self.refused_degraded.inc(),
            Error::Cancelled => self.cancelled.inc(),
            _ => {}
        }
    }
}

/// What serving a query needs, shared by the node and its workers.
struct NodeCore {
    engine: Arc<dyn ReplayEngine>,
    queue: AdmissionQueue,
    db: Arc<MemDb>,
    board: Arc<VisibilityBoard>,
    stats: ServiceStats,
    telemetry: Arc<Telemetry>,
    /// Parts a large scan is cut into.
    degree: usize,
}

impl NodeCore {
    /// The key ranges `spec` scans as: its own range whole, or cut into
    /// up to `degree` parts when it is large enough to share.
    fn parts(&self, spec: &QuerySpec) -> Vec<Option<(RowKey, RowKey)>> {
        let (lo, hi) = spec.key_range.unwrap_or((RowKey::new(0), RowKey::new(u64::MAX)));
        let cuts = self.db.table(spec.table).cut(lo, hi, self.degree);
        if cuts.is_empty() {
            return vec![spec.key_range];
        }
        let starts = std::iter::once(lo).chain(cuts.iter().copied());
        let ends = cuts.iter().map(|c| RowKey::new(c.raw() - 1)).chain(std::iter::once(hi));
        starts.zip(ends).map(Some).collect()
    }

    /// Algorithm 3 for one query, on the calling thread: resolves
    /// `tables` to board groups under the engine's *live* grouping,
    /// generation-tagged for the board, and parks until the snapshot at
    /// `qts` is admitted or `deadline` passes. A parked wait comes up at
    /// least every [`SHUTDOWN_SLICE`] to ask `keep_waiting`, whose error
    /// ends it (publish wakeups are still immediate). Returns the wait
    /// and the admission span's id; [`Error::QueryTimeout`] on expiry,
    /// [`Error::Degraded`] when a needed group is frozen below `qts`.
    fn admit(
        &self,
        tables: &[TableId],
        qts: Timestamp,
        deadline: Instant,
        mut keep_waiting: impl FnMut() -> Result<()>,
    ) -> Result<(Duration, Option<SpanId>)> {
        let t0 = Instant::now();
        // The admission span pins the query onto the latest committed
        // epoch's timeline: merged with the engine's spans, it shows the gap
        // between that epoch's visibility flip and its first admitted read.
        let ring = self.telemetry.spans();
        let span = ring.begin(ring.epoch_hint().unwrap_or(0), stages::QUERY_ADMISSION, None, None);
        let (gen, gids) = self.engine.board_groups_for(tables);
        let outcome = loop {
            let now = Instant::now();
            if now >= deadline {
                break WaitOutcome::TimedOut;
            }
            let slice = (deadline - now).min(SHUTDOWN_SLICE);
            match self.board.wait_admission(&gids, gen, qts, slice) {
                WaitOutcome::TimedOut => keep_waiting()?,
                decided => break decided,
            }
        };
        let waited = t0.elapsed();
        self.stats.admission_wait.record(waited);
        let span = span.map(|s| {
            let id = s.id();
            s.finish(ring);
            id
        });
        match outcome {
            WaitOutcome::Visible => Ok((waited, span)),
            WaitOutcome::TimedOut => Err(Error::QueryTimeout),
            WaitOutcome::Quarantined => Err(Error::Degraded),
        }
    }
}

/// Health view of a visibility board for the `/healthz` endpoint: OK
/// while no group is quarantined, 503 naming the frozen groups after.
fn board_health(board: &Arc<VisibilityBoard>) -> HealthFn {
    let board = board.clone();
    Arc::new(move || {
        let quarantined = board.quarantined();
        if quarantined.is_empty() {
            HealthReport::ok()
        } else {
            HealthReport::degraded(quarantined, "group(s) quarantined, watermark frozen")
        }
    })
}

/// Builds a [`BackupNode`]. Obtained from [`BackupNode::builder`].
#[derive(Default)]
pub struct BackupNodeBuilder {
    engine: Option<Arc<dyn ReplayEngine>>,
    db: Option<Arc<MemDb>>,
    num_tables: Option<usize>,
    board: Option<Arc<VisibilityBoard>>,
    floor: Option<Arc<QueryFloor>>,
    telemetry: Option<Arc<Telemetry>>,
    clock: Option<ClockFn>,
    headless: bool,
    degree: Option<usize>,
    opts: NodeOptions,
}

impl BackupNodeBuilder {
    /// The replay engine the node serves from. Required.
    pub fn engine(mut self, engine: Arc<dyn ReplayEngine>) -> Self {
        self.engine = Some(engine);
        self
    }

    /// An existing database to serve (e.g. one recovered from a
    /// checkpoint). Mutually exclusive with
    /// [`BackupNodeBuilder::num_tables`]; the latter wins if both are
    /// set.
    pub fn db(mut self, db: Arc<MemDb>) -> Self {
        self.db = Some(db);
        self
    }

    /// Creates a fresh empty database with `n` tables.
    pub fn num_tables(mut self, n: usize) -> Self {
        self.num_tables = Some(n);
        self
    }

    /// An existing visibility board to serve from (e.g. the durable
    /// backup's). Must have the engine's group count. Built fresh —
    /// instrumented when telemetry is enabled — when not provided.
    pub fn board(mut self, board: Arc<VisibilityBoard>) -> Self {
        self.board = Some(board);
        self
    }

    /// An existing GC floor registry to pin sessions into (shared with
    /// the durable backup's checkpoint clamp). Fresh when not provided.
    pub fn floor(mut self, floor: Arc<QueryFloor>) -> Self {
        self.floor = Some(floor);
        self
    }

    /// Telemetry instance for the query-service metrics. Defaults to the
    /// engine's handle, or a disabled instance.
    pub fn telemetry(mut self, tel: Arc<Telemetry>) -> Self {
        self.telemetry = Some(tel);
        self
    }

    /// Primary clock for the board's freshness instrumentation (micros).
    /// Defaults to the telemetry instance's own clock. Ignored when an
    /// existing board is supplied.
    pub fn clock(mut self, clock: ClockFn) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Query-service tunables.
    pub fn options(mut self, opts: NodeOptions) -> Self {
        self.opts = opts;
        self
    }

    /// A node that replays, GCs and reports but serves no queries: no
    /// worker pool is started and `query_workers` is not read. This is
    /// the node inside a [`DurableBackup`](crate::DurableBackup), whose
    /// queries go through the nodes its `serve` starts.
    pub(crate) fn headless(mut self) -> Self {
        self.headless = true;
        self
    }

    /// Cuts large scans into `k` parts on any host.
    #[cfg(test)]
    pub(crate) fn split_degree(mut self, k: usize) -> Self {
        self.degree = Some(k);
        self
    }

    /// Finishes the node and spawns its query worker pool.
    pub fn build(self) -> Result<BackupNode> {
        let engine =
            self.engine.ok_or_else(|| Error::Config("BackupNode needs an engine".into()))?;
        let pool = match (self.headless, self.opts.query_workers) {
            (true, _) => 0,
            (false, 0) => return Err(Error::Config("query_workers must be positive".into())),
            (false, n) => n,
        };
        if self.opts.queue_depth == 0 {
            return Err(Error::Config("queue_depth must be positive".into()));
        }
        let db = match (self.num_tables, self.db) {
            (Some(n), _) => Arc::new(MemDb::new(n)),
            (None, Some(db)) => db,
            (None, None) => {
                return Err(Error::Config("BackupNode needs a db or num_tables".into()))
            }
        };
        let telemetry = self
            .telemetry
            .or_else(|| self.opts.service.telemetry.clone())
            .or_else(|| engine.telemetry_handle())
            .unwrap_or_else(|| Arc::new(Telemetry::disabled()));
        let board = match self.board {
            Some(b) => {
                if b.num_groups() != engine.board_groups() {
                    return Err(Error::Config("board group count mismatch".into()));
                }
                b
            }
            None => {
                let clock = self.clock.unwrap_or_else(|| telemetry.clock());
                Arc::new(
                    VisibilityBoard::builder(engine.board_groups())
                        .telemetry(&telemetry, clock)
                        .build(),
                )
            }
        };
        // Before the pool starts, so a failed bind has no workers to
        // drain; the recorder is armed from here on.
        let obs = self.opts.service.mount(&telemetry, board_health(&board))?;
        let floor = self.floor.unwrap_or_else(|| Arc::new(QueryFloor::new()));
        let stats = ServiceStats::new(&telemetry, db.num_tables());
        // The adaptive loop needs both a reconfiguration channel and a
        // live grouping to plan against; engines with a fixed datapath
        // (the baselines) simply run without one.
        let controller = match &self.opts.service.controller {
            Some(cfg) => match (engine.reconfigure(), engine.current_grouping()) {
                (Some(handle), Some(grouping)) => Some(Mutex::new(AdaptiveController::new(
                    cfg.clone(),
                    handle,
                    grouping,
                    telemetry.clone(),
                )?)),
                _ => None,
            },
            None => None,
        };
        let queue = AdmissionQueue::new(self.opts.queue_depth);
        if self.headless {
            // Nobody would pop: shed a submission instead of parking it.
            queue.close();
        }
        let degree = self.degree.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, |n| n.get()).min(pool)
        });
        let core = Arc::new(NodeCore { engine, queue, db, board, stats, telemetry, degree });
        let workers = (0..pool)
            .map(|i| {
                let core = core.clone();
                std::thread::Builder::new()
                    .name(format!("aets-query-{i}"))
                    .spawn(move || worker_loop(&core))
                    .map_err(|e| Error::Io(format!("spawn query worker: {e}")))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(BackupNode { core, floor, opts: self.opts, workers, obs, controller })
    }
}

/// The query-serving backup node: replay in, snapshot reads out.
///
/// See the [module docs](self) for the full protocol. Dropping the node
/// closes the admission queue and joins the worker pool; open
/// [`ReadSession`]s borrow the node, so all sessions end first.
pub struct BackupNode {
    core: Arc<NodeCore>,
    floor: Arc<QueryFloor>,
    opts: NodeOptions,
    workers: Vec<JoinHandle<()>>,
    obs: Option<ObsServer>,
    /// Live forecast-driven controller, when [`ServiceOptions::controller`]
    /// asked for one and the engine is reconfigurable; ticked once per
    /// replayed epoch.
    controller: Option<Mutex<AdaptiveController>>,
}

impl std::fmt::Debug for BackupNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackupNode")
            .field("engine", &self.core.engine.name())
            .field("groups", &self.core.board.num_groups())
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl BackupNode {
    /// Starts building a node.
    pub fn builder() -> BackupNodeBuilder {
        BackupNodeBuilder::default()
    }

    /// Opens a snapshot read session at `qts` over `tables`, pinning
    /// `qts` into the GC floor until the session drops. Each footprint
    /// table bumps its `aets_table_access_total` counter — the signal the
    /// adaptive controller forecasts from.
    pub fn open_session(&self, qts: Timestamp, tables: &[TableId]) -> ReadSession<'_> {
        let core = &self.core;
        for t in tables {
            if let Some(c) = core.stats.table_access.get(t.index()) {
                c.inc();
            }
        }
        let ticket = self.floor.pin(qts);
        core.stats.sessions_opened.inc();
        core.stats.sessions_active.add(1);
        core.telemetry.event(EventKind::SessionOpened { qts_us: qts.as_micros() });
        ReadSession { node: self, qts, tables: tables.to_vec(), ticket }
    }

    /// Feeds epochs to the replay engine, publishing visibility on the
    /// node's board (and waking admission waiters as watermarks advance).
    /// With an adaptive controller configured, the control loop ticks
    /// once per epoch after the batch replays.
    pub fn replay(&self, epochs: &[EncodedEpoch]) -> Result<ReplayMetrics> {
        let m = self.core.engine.replay(epochs, &self.core.db, &self.core.board)?;
        if let Some(ctl) = &self.controller {
            let mut ctl = lock(ctl);
            for _ in 0..epochs.len() {
                // A planning error (e.g. a degenerate clustering) keeps
                // the current plan; the replay itself already succeeded.
                let _ = ctl.on_epoch();
            }
        }
        Ok(m)
    }

    /// Complete control windows the node's adaptive controller has
    /// observed; `None` when no controller runs.
    pub fn adaptive_windows(&self) -> Option<usize> {
        self.controller.as_ref().map(|c| lock(c).windows_observed())
    }

    /// Runs one version-chain GC pass at the safe watermark: the oldest
    /// open session's `qts`, the global commit mark, and every
    /// quarantined group's frozen watermark all clamp it.
    pub fn gc(&self) -> GcStats {
        self.gc_clamped(Timestamp::MAX)
    }

    /// [`BackupNode::gc`] with an additional external floor (e.g. the
    /// durable backup's manually-set replica floor).
    pub fn gc_clamped(&self, extra_floor: Timestamp) -> GcStats {
        let wm = self.gc_watermark(extra_floor);
        let t0 = Instant::now();
        let pass = gc_db(&self.core.db, wm);
        self.record_gc(pass, t0.elapsed());
        pass
    }

    /// Accounts for one GC pass that took `wall`: `aets_gc_*` and the
    /// `GcPass` event, for a pass of its own and for the one a
    /// checkpoint's snapshot walk makes on the way.
    pub(crate) fn record_gc(&self, pass: GcStats, wall: Duration) {
        let stats = &self.core.stats;
        stats.gc_pass_us.record_micros(wall.as_micros() as u64);
        stats.gc_passes.inc();
        stats.gc_pruned.add(pass.pruned as u64);
        self.core.telemetry.event(EventKind::GcPass { nodes: pass.nodes, pruned: pass.pruned });
    }

    /// The watermark [`BackupNode::gc_clamped`] would prune at.
    pub fn gc_watermark(&self, extra_floor: Timestamp) -> Timestamp {
        self.core.board.gc_watermark(self.floor.floor().min(extra_floor))
    }

    /// Whether any group is quarantined (the node is degraded: reads
    /// needing a frozen group past its watermark are refused).
    pub fn is_degraded(&self) -> bool {
        self.core.board.any_quarantined()
    }

    /// The node's database.
    pub fn db(&self) -> &Arc<MemDb> {
        &self.core.db
    }

    /// The node's visibility board.
    pub fn board(&self) -> &Arc<VisibilityBoard> {
        &self.core.board
    }

    /// The node's telemetry instance.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.core.telemetry
    }

    /// The node's GC floor registry.
    pub fn floor(&self) -> &Arc<QueryFloor> {
        &self.floor
    }

    /// Bound address of the live observability endpoint, when
    /// [`ServiceOptions::obs_addr`] asked for one. With a `:0` bind this is
    /// where the ephemeral port landed.
    pub fn obs_addr(&self) -> Option<std::net::SocketAddr> {
        self.obs.as_ref().map(ObsServer::addr)
    }
}

impl Drop for BackupNode {
    fn drop(&mut self) {
        self.core.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// A pinned snapshot read session (see [`BackupNode::open_session`]).
///
/// Holds the GC floor at its `qts` for its lifetime; drop releases the
/// pin. Queries submitted through the session read the MVCC snapshot at
/// exactly `qts` once Algorithm 3 admits it.
///
/// The session's table footprint is resolved to board groups under the
/// engine's *live* grouping at every wait — the caller's own or a
/// worker's — and never stored, tagged with the grouping generation it
/// was resolved under. A live regroup
/// racing the wait can therefore only make the resolution stale — which
/// demotes admission to the always-correct global-watermark path — never
/// wrongly fresh.
#[derive(Debug)]
pub struct ReadSession<'a> {
    node: &'a BackupNode,
    qts: Timestamp,
    tables: Vec<TableId>,
    ticket: FloorTicket,
}

impl ReadSession<'_> {
    /// The session's snapshot timestamp.
    pub fn qts(&self) -> Timestamp {
        self.qts
    }

    /// Blocks the *calling* thread until Algorithm 3 admits the session
    /// or `timeout` elapses. Returns the admission wait on success;
    /// [`Error::QueryTimeout`] on expiry, [`Error::Degraded`] when the
    /// wait is hopeless (quarantined group frozen below `qts`).
    ///
    /// Optional: [`ReadSession::submit`] admits on the worker pool
    /// anyway; this exists for callers that want the pure visibility
    /// delay on their own thread (the realtime runner's measurement).
    pub fn wait_admitted(&self, timeout: Duration) -> Result<Duration> {
        let core = &self.node.core;
        core.admit(&self.tables, self.qts, Instant::now() + timeout, || Ok(()))
            .map(|(waited, _)| waited)
            .inspect_err(|e| core.stats.count_failure(e))
    }

    /// Submits a query to the worker pool. Fails immediately with
    /// [`Error::Overloaded`] when the admission queue is full.
    pub fn submit(&self, spec: QuerySpec) -> Result<QueryHandle> {
        let timeout = spec.timeout.unwrap_or(self.node.opts.default_timeout);
        let (tx, rx) = mpsc::channel();
        let cancel = Arc::new(AtomicBool::new(false));
        let now = Instant::now();
        let job = Job {
            tables: self.tables.clone(),
            qts: self.qts,
            spec,
            enqueued: now,
            deadline: now + timeout,
            cancel: cancel.clone(),
            reply: tx,
        };
        let stats = &self.node.core.stats;
        // Counted before the push: a worker may pop (and uncount) it at once.
        stats.queue_depth.add(1);
        match self.node.core.queue.try_push(job) {
            Ok(()) => Ok(QueryHandle { rx, cancel }),
            Err(_) => {
                stats.queue_depth.sub(1);
                stats.overloaded.inc();
                Err(Error::Overloaded)
            }
        }
    }

    /// Submits and waits: the blocking convenience path.
    pub fn query(&self, spec: QuerySpec) -> Result<QueryOutput> {
        self.submit(spec)?.wait()
    }
}

impl Drop for ReadSession<'_> {
    fn drop(&mut self) {
        self.node.floor.release(self.ticket);
        self.node.core.stats.sessions_closed.inc();
        self.node.core.stats.sessions_active.sub(1);
        self.node.core.telemetry.event(EventKind::SessionClosed { qts_us: self.qts.as_micros() });
    }
}

/// Decrements a level gauge on drop, so worker panics cannot leak an
/// in-flight count.
struct GaugeGuard<'a>(&'a Gauge);

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

/// Shutdown responsiveness: a parked admission wait re-checks for queue
/// closure at most this often (publish wakeups are still immediate).
const SHUTDOWN_SLICE: Duration = Duration::from_millis(100);

fn worker_loop(core: &NodeCore) {
    while let Some(task) = core.queue.pop() {
        let job = match task {
            Task::Query(job) => job,
            Task::Part(split) => {
                split.run_next(core, &core.stats.parts_by_helper);
                continue;
            }
        };
        core.stats.queue_depth.sub(1);
        core.stats.queue_wait.record(job.enqueued.elapsed());
        let res = catch_unwind(AssertUnwindSafe(|| serve_one(core, &job)))
            .unwrap_or_else(|_| Err(Error::Replay("query worker panicked".into())));
        match &res {
            Ok(_) => {
                core.stats.served.inc();
                core.stats.latency.record(job.enqueued.elapsed());
            }
            Err(e) => core.stats.count_failure(e),
        }
        // A dropped handle just discards the result.
        let _ = job.reply.send(res);
    }
}

/// Admission + execution of one job on a worker thread. The job's
/// deadline covers both; cancellation is honoured before admission, at
/// every admission slice (as is node shutdown) and every 256 scanned
/// records. The scan runs as a [`Split`], of one part unless it is large.
fn serve_one(core: &NodeCore, job: &Job) -> Result<QueryOutput> {
    let cancel_if = |stop: bool| if stop { Err(Error::Cancelled) } else { Ok(()) };
    let cancelled = || cancel_if(job.cancel.load(Ordering::Acquire));
    cancelled()?;
    let (_, adm_span) = core.admit(&job.tables, job.qts, job.deadline, || {
        cancelled()?;
        cancel_if(core.queue.is_closed())
    })?;
    core.stats.inflight.add(1);
    let _guard = GaugeGuard(&core.stats.inflight);
    let ring = core.telemetry.spans();
    let exec_span = ring.begin(ring.epoch_hint().unwrap_or(0), stages::QUERY_EXEC, None, adm_span);
    let res = Split::serve(core, job);
    if let Some(s) = exec_span {
        s.finish(ring);
    }
    res
}

/// A query's scan as key-range parts ([`NodeCore::parts`]), each run by
/// whoever claims it: an idle worker popping a `Task::Part`, or the
/// query's own worker (the owner), which runs part 0, claims whatever is
/// left, and then waits only for parts already running. A part never
/// splits again and never waits, so nothing deadlocks; on a busy pool the
/// owner runs every part. The first failing part stops its siblings.
struct Split {
    spec: QuerySpec,
    qts: Timestamp,
    deadline: Instant,
    cancel: Arc<AtomicBool>,
    /// The parts' key ranges, in key order.
    ranges: Vec<Option<(RowKey, RowKey)>>,
    /// Parts claimed so far (part 0 by the owner, from the start).
    claimed: AtomicUsize,
    failed: AtomicBool,
    /// Each claimed part's outcome, to the owner.
    done: mpsc::Sender<(usize, Result<Partial>)>,
}

impl Split {
    /// The owner's side: offers parts `1..` to the pool, runs part 0 and
    /// every part nobody took, and merges the outcomes in key order.
    fn serve(core: &NodeCore, job: &Job) -> Result<QueryOutput> {
        let (done, outcomes) = mpsc::channel();
        let split = Arc::new(Split {
            spec: job.spec.clone(),
            qts: job.qts,
            deadline: job.deadline,
            cancel: job.cancel.clone(),
            ranges: core.parts(&job.spec),
            claimed: AtomicUsize::new(1),
            failed: AtomicBool::new(false),
            done,
        });
        core.queue.push_parts(&split);
        split.run(core, 0, &core.stats.parts_by_owner);
        while split.run_next(core, &core.stats.parts_by_owner) {}
        let mut outs: Vec<_> = outcomes.iter().take(split.ranges.len()).collect();
        // The first error to arrive is the query's: its siblings stopped on it.
        if let Some(at) = outs.iter().position(|(_, out)| out.is_err()) {
            return outs.swap_remove(at).1.map(Partial::finish);
        }
        outs.sort_unstable_by_key(|(i, _)| *i);
        let parts = outs.into_iter().filter_map(|(_, out)| out.ok());
        Ok(parts.reduce(Partial::merge).expect("a split has parts").finish())
    }

    /// Claims and runs the next unclaimed part; false once every part is
    /// claimed.
    fn run_next(&self, core: &NodeCore, ran_by: &Counter) -> bool {
        let i = self.claimed.fetch_add(1, Ordering::AcqRel);
        let claimed = i < self.ranges.len();
        if claimed {
            self.run(core, i, ran_by);
        }
        claimed
    }

    /// Runs claimed part `i`, counting it under `ran_by` if the scan is
    /// split, and reports its outcome; a panic is its error. Every 256
    /// records the part looks for cancellation, the deadline and a failed
    /// sibling.
    fn run(&self, core: &NodeCore, i: usize, ran_by: &Counter) {
        if self.ranges.len() > 1 {
            ran_by.inc();
        }
        let mut seen = 0usize;
        let check = || {
            seen += 1;
            if seen & 0xFF != 0 {
                return Ok(());
            }
            if self.cancel.load(Ordering::Acquire) || self.failed.load(Ordering::Acquire) {
                return Err(Error::Cancelled);
            }
            if Instant::now() >= self.deadline {
                return Err(Error::QueryTimeout);
            }
            Ok(())
        };
        let out = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            assert!(i != 1 || self.qts != split_tests::PANIC_AT, "a part panics");
            try_eval_part(&core.db, &self.spec, self.qts, self.ranges[i], check)
        }))
        .unwrap_or_else(|_| Err(Error::Replay("query part panicked".into())));
        // Sent before the siblings are stopped, so the error that stops
        // them reaches the owner ahead of theirs.
        let failed = out.is_err();
        let _ = self.done.send((i, out));
        if failed {
            self.failed.store(true, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod split_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::aets::{AetsConfig, AetsEngine};
    use crate::grouping::TableGrouping;
    use aets_common::{ColumnId, FxHashSet, GroupId, TxnId, Value};
    use aets_memtable::{OpType, Version};

    /// A 1-group node over `n` empty tables; visibility is driven by
    /// publishing on `node.board()` directly.
    fn tiny_node(opts: NodeOptions) -> BackupNode {
        let hot: FxHashSet<TableId> = FxHashSet::default();
        let engine = Arc::new(
            AetsEngine::builder(TableGrouping::single(2, &hot))
                .config(AetsConfig { threads: 1, ..Default::default() })
                .telemetry(Arc::new(Telemetry::new()))
                .build()
                .unwrap(),
        );
        BackupNode::builder().engine(engine).num_tables(2).options(opts).build().unwrap()
    }

    fn insert_rows(node: &BackupNode, table: u32, n: u64, ts: u64) {
        for k in 0..n {
            node.db().table(TableId::new(table)).apply_version(
                RowKey::new(k),
                Version {
                    txn_id: TxnId::new(k + 1),
                    commit_ts: Timestamp::from_micros(ts),
                    op: OpType::Insert,
                    cols: vec![(ColumnId::new(0), Value::Int(k as i64))],
                },
            );
        }
    }

    #[test]
    fn builder_validates_inputs() {
        assert!(BackupNode::builder().build().is_err(), "engine required");
        let hot: FxHashSet<TableId> = FxHashSet::default();
        let engine: Arc<dyn ReplayEngine> =
            Arc::new(AetsEngine::builder(TableGrouping::single(1, &hot)).build().unwrap());
        assert!(
            BackupNode::builder().engine(engine.clone()).build().is_err(),
            "db or num_tables required"
        );
        assert!(BackupNode::builder()
            .engine(engine.clone())
            .num_tables(1)
            .options(NodeOptions { query_workers: 0, ..Default::default() })
            .build()
            .is_err());
        // The crate-private headless switch is the one way around that
        // check, and such a node sheds a submission instead of parking it.
        let headless = BackupNode::builder()
            .engine(engine.clone())
            .num_tables(1)
            .options(NodeOptions { query_workers: 0, ..Default::default() })
            .headless()
            .build()
            .unwrap();
        let session = headless.open_session(Timestamp::ZERO, &[TableId::new(0)]);
        assert_eq!(
            session.submit(QuerySpec::count(TableId::new(0))).unwrap_err(),
            Error::Overloaded
        );
        drop(session);
        let wrong_board = Arc::new(VisibilityBoard::builder(5).build());
        assert!(BackupNode::builder()
            .engine(engine)
            .num_tables(1)
            .board(wrong_board)
            .build()
            .is_err());
    }

    #[test]
    fn query_serves_snapshot_after_admission() {
        let node = tiny_node(NodeOptions { query_workers: 2, ..Default::default() });
        insert_rows(&node, 0, 100, 50);
        let qts = Timestamp::from_micros(60);
        let session = node.open_session(qts, &[TableId::new(0)]);
        // Not yet visible: submit, then publish, and the parked worker
        // must be woken to serve it.
        let handle = session.submit(QuerySpec::count(TableId::new(0))).unwrap();
        node.board().publish_global(Timestamp::from_micros(60));
        assert_eq!(handle.wait().unwrap(), QueryOutput::Count(100));
        // Rows and aggregate paths over the now-visible snapshot.
        let rows =
            session.query(QuerySpec::rows(TableId::new(0)).keys(RowKey::new(10), RowKey::new(19)));
        match rows.unwrap() {
            QueryOutput::Rows(r) => assert_eq!(r.len(), 10),
            other => panic!("expected rows, got {other:?}"),
        }
        let agg = session
            .query(QuerySpec::aggregate(TableId::new(0), ColumnId::new(0), Aggregate::Sum))
            .unwrap();
        assert_eq!(agg, QueryOutput::Aggregate(Some((0..100).sum::<i64>() as f64)));
        drop(session);
        let snap = node.telemetry().snapshot();
        assert_eq!(snap.counter_total(names::QUERIES_SERVED), 3);
        assert_eq!(snap.counter_total(names::SESSIONS_OPENED), 1);
        assert_eq!(snap.counter_total(names::SESSIONS_CLOSED), 1);
        assert_eq!(snap.gauge(names::SESSIONS_ACTIVE, ""), Some(0));
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        // One worker, queue of one: the worker parks on an inadmissible
        // query, a second fills the queue, the third must be shed.
        let node = tiny_node(NodeOptions {
            query_workers: 1,
            queue_depth: 1,
            default_timeout: Duration::from_secs(10),
            ..Default::default()
        });
        let qts = Timestamp::from_micros(100);
        let session = node.open_session(qts, &[TableId::new(0)]);
        let h1 = session.submit(QuerySpec::count(TableId::new(0))).unwrap();
        // Wait for the worker to take job 1 off the queue (park on
        // admission), freeing the single slot for job 2.
        let t0 = Instant::now();
        let h2 = loop {
            match session.submit(QuerySpec::count(TableId::new(0))) {
                Ok(h) => break h,
                Err(Error::Overloaded) if t0.elapsed() < Duration::from_secs(5) => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("unexpected {e}"),
            }
        };
        let err = session.submit(QuerySpec::count(TableId::new(0))).unwrap_err();
        assert_eq!(err, Error::Overloaded);
        node.board().publish_global(qts);
        assert_eq!(h1.wait().unwrap(), QueryOutput::Count(0));
        assert_eq!(h2.wait().unwrap(), QueryOutput::Count(0));
        drop(session);
        let snap = node.telemetry().snapshot();
        assert!(snap.counter_total(names::QUERIES_OVERLOADED) >= 1);
        assert_eq!(snap.counter_total(names::QUERIES_SERVED), 2);
    }

    #[test]
    fn deadline_expires_as_query_timeout() {
        let node = tiny_node(NodeOptions::default());
        let session = node.open_session(Timestamp::from_micros(1_000), &[TableId::new(0)]);
        let err = session
            .query(QuerySpec::count(TableId::new(0)).timeout(Duration::from_millis(20)))
            .unwrap_err();
        assert_eq!(err, Error::QueryTimeout);
        assert_eq!(node.telemetry().snapshot().counter_total(names::QUERIES_TIMED_OUT), 1);
    }

    #[test]
    fn quarantined_group_refuses_with_degraded() {
        let node = tiny_node(NodeOptions::default());
        node.board().publish_group(GroupId::new(0), Timestamp::from_micros(10));
        node.board().set_quarantined(&[0]);
        assert!(node.is_degraded());
        let session = node.open_session(Timestamp::from_micros(100), &[TableId::new(0)]);
        let t0 = Instant::now();
        let err = session.query(QuerySpec::count(TableId::new(0))).unwrap_err();
        assert_eq!(err, Error::Degraded);
        assert!(t0.elapsed() < Duration::from_secs(5), "refusal must not sleep out the timeout");
        // A session at a qts the frozen watermark covers still reads.
        let old = node.open_session(Timestamp::from_micros(5), &[TableId::new(0)]);
        assert_eq!(old.query(QuerySpec::count(TableId::new(0))).unwrap(), QueryOutput::Count(0));
        let snap = node.telemetry().snapshot();
        assert_eq!(snap.counter_total(names::QUERIES_REFUSED_DEGRADED), 1);
    }

    #[test]
    fn cancellation_before_admission() {
        let node = tiny_node(NodeOptions::default());
        let session = node.open_session(Timestamp::from_micros(1_000), &[TableId::new(0)]);
        let handle = session.submit(QuerySpec::count(TableId::new(0))).unwrap();
        handle.cancel();
        // The worker observes the flag at its next admission slice.
        let err = handle.wait().unwrap_err();
        assert_eq!(err, Error::Cancelled);
        assert_eq!(node.telemetry().snapshot().counter_total(names::QUERIES_CANCELLED), 1);
    }

    #[test]
    fn sessions_pin_the_gc_floor_raii() {
        let node = tiny_node(NodeOptions::default());
        insert_rows(&node, 0, 10, 50);
        node.board().publish_global(Timestamp::from_micros(500));
        assert_eq!(node.floor().floor(), Timestamp::MAX);
        {
            let _s1 = node.open_session(Timestamp::from_micros(80), &[TableId::new(0)]);
            let _s2 = node.open_session(Timestamp::from_micros(200), &[TableId::new(0)]);
            assert_eq!(node.floor().floor(), Timestamp::from_micros(80));
            assert_eq!(node.gc_watermark(Timestamp::MAX), Timestamp::from_micros(80));
        }
        // RAII: both pins released.
        assert_eq!(node.floor().floor(), Timestamp::MAX);
        assert_eq!(node.gc_watermark(Timestamp::MAX), Timestamp::from_micros(500));
        let pass = node.gc();
        assert_eq!(pass.nodes, 10);
        let snap = node.telemetry().snapshot();
        assert_eq!(snap.counter_total(names::GC_PASSES), 1);
    }

    #[test]
    fn wait_admitted_measures_visibility_delay_on_caller_thread() {
        let node = Arc::new(tiny_node(NodeOptions::default()));
        let qts = Timestamp::from_micros(100);
        let n2 = node.clone();
        let publisher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            n2.board().publish_global(Timestamp::from_micros(100));
        });
        let session = node.open_session(qts, &[TableId::new(0)]);
        let waited = session.wait_admitted(Duration::from_secs(5)).unwrap();
        assert!(waited >= Duration::from_millis(20), "waited {waited:?}");
        publisher.join().unwrap();
        drop(session);
        let short = node.open_session(Timestamp::from_micros(9_999), &[TableId::new(0)]);
        assert_eq!(
            short.wait_admitted(Duration::from_millis(15)).unwrap_err(),
            Error::QueryTimeout
        );
    }
}
