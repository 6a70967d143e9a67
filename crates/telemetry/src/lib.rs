//! Live observability for the AETS backup node.
//!
//! The paper's promise is *real-time* visibility, so the replayer must be
//! observable in real time too: this crate provides the allocation-light
//! in-process layer the replay path is instrumented with —
//!
//! * a [`Registry`] of named counter/gauge/histogram families with
//!   per-thread sharded counters and fixed-bucket log-scale histograms
//!   ([`Histogram::record_micros`], p50/p95/p99/max summaries);
//! * a bounded structured [`EventRing`] with monotonic sequence numbers
//!   and a drain API, for state transitions (epoch committed, group
//!   quarantined, checkpoint written, ...);
//! * [`TelemetrySnapshot`]: a point-in-time copy renderable as Prometheus
//!   text exposition or JSON, plus [`parse_exposition`] to validate it.
//!
//! Everything hangs off one [`Telemetry`] instance, shared via `Arc`
//! between the engine, the visibility board, the realtime runner, and the
//! durable backup. A [`Telemetry::disabled`] instance turns every record
//! operation into a single relaxed atomic load, which is what
//! `repro bench telemetry` compares against
//! (`results/BENCH_observability.json`).
//!
//! No external dependencies, matching the workspace's offline-build
//! policy.

// Telemetry runs inside replay and recovery threads: a panic here would
// quarantine a healthy group, so fallible paths must not unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod events;
pub mod flight;
pub mod metrics;
pub mod registry;
pub mod serve;
pub mod snapshot;
pub mod trace;

pub use events::{events_json, Event, EventKind, EventRing};
pub use flight::FlightRecorder;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, HistogramSummary};
pub use registry::{group_label, Registry};
pub use serve::{http_get, HealthFn, HealthReport, ObsServer};
pub use snapshot::{parse_exposition, Sample, TelemetrySnapshot};
pub use trace::{first_orphan, spans_json, OpenSpan, Span, SpanId, SpanRing};

use aets_common::sync::lock;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A clock returning "now" in microseconds on whatever timeline the
/// instrumentation point cares about (wall micros since start for event
/// stamps, primary-clock micros for freshness lag).
pub type ClockFn = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Default event-ring capacity.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// Event kinds that mean "something went wrong enough to keep forensic
/// state": they latch the span ring's always-sample override and, when a
/// [`FlightRecorder`] is attached, dump a post-mortem bundle to disk.
fn is_anomaly(kind: &EventKind) -> bool {
    matches!(
        kind,
        EventKind::GroupQuarantined { .. }
            | EventKind::DegradedEntered { .. }
            | EventKind::ShardDown { .. }
            | EventKind::ShardFailover { .. }
            | EventKind::NetResync { .. }
    )
}

/// Metric family names used by the replay stack, so producers and
/// consumers (snapshot tests, dashboards, `ReplayMetrics::project`)
/// agree on spelling.
pub mod names {
    /// Epochs fully replayed (both stages + global publish).
    pub const EPOCHS: &str = "aets_epochs_total";
    /// Transactions replayed.
    pub const TXNS: &str = "aets_txns_total";
    /// DML entries replayed.
    pub const ENTRIES: &str = "aets_entries_total";
    /// Encoded log bytes processed.
    pub const BYTES: &str = "aets_bytes_total";
    /// Per-epoch dispatcher (metadata scan + route) time histogram.
    pub const DISPATCH_US: &str = "aets_dispatch_us";
    /// Per-epoch stage-1 (hot groups) wall-time histogram.
    pub const STAGE1_US: &str = "aets_stage1_us";
    /// Per-epoch stage-2 (cold groups) wall-time histogram.
    pub const STAGE2_US: &str = "aets_stage2_us";
    /// Aggregate phase-1 (translate) busy time of the replay crew
    /// (micros counter).
    pub const REPLAY_BUSY_US: &str = "aets_replay_busy_us_total";
    /// Aggregate phase-2 (commit) busy time of the groups' committers
    /// (micros counter).
    pub const COMMIT_BUSY_US: &str = "aets_commit_busy_us_total";
    /// Freshness: visibility lag (`now − primary_commit_ts`) per group.
    pub const VISIBILITY_LAG_US: &str = "aets_visibility_lag_us";
    /// Live per-group `tg_cmt_ts` watermark gauge (micros).
    pub const TG_CMT_TS_US: &str = "aets_tg_cmt_ts_us";
    /// Live `global_cmt_ts` watermark gauge (micros).
    pub const GLOBAL_CMT_TS_US: &str = "aets_global_cmt_ts_us";
    /// Ingest resync: epoch re-requests issued.
    pub const INGEST_RETRIES: &str = "aets_ingest_retries_total";
    /// Ingest resync: deliveries rejected by the epoch frame CRC.
    pub const CHECKSUM_FAILURES: &str = "aets_ingest_checksum_failures_total";
    /// Ingest resync: out-of-sequence deliveries.
    pub const EPOCH_GAPS: &str = "aets_ingest_epoch_gaps_total";
    /// Ingest resync: fetches that found the epoch unavailable.
    pub const INGEST_STALLS: &str = "aets_ingest_stalls_total";
    /// Groups currently quarantined.
    pub const QUARANTINED_GROUPS: &str = "aets_quarantined_groups";
    /// Time crew member 0 (the thread that called `replay`) waited at a
    /// stage barrier for helpers still inside the stage — the stage's
    /// imbalance. One sample per stage run; zero when the caller ran the
    /// stage alone (micros histogram).
    pub const STAGE_BARRIER_WAIT_US: &str = "aets_stage_barrier_wait_us";
    /// Replay crew helper threads currently asleep (level): equals
    /// `threads − 1` on an idle engine, and a value that stays below it
    /// between epochs means helpers are kept spinning.
    pub const REPLAY_CREW_PARKED: &str = "aets_replay_crew_parked";
    /// Phase-1 cell buffers served from the free-list pools.
    pub const CELL_RECYCLED: &str = "aets_cell_buffers_recycled_total";
    /// Phase-1 cell buffers freshly allocated.
    pub const CELL_ALLOCATED: &str = "aets_cell_buffers_allocated_total";
    /// Version-chain GC passes run.
    pub const GC_PASSES: &str = "aets_gc_passes_total";
    /// Versions pruned by GC.
    pub const GC_PRUNED: &str = "aets_gc_pruned_total";
    /// Wall time of one version-chain GC pass (micros).
    pub const GC_PASS_US: &str = "aets_gc_pass_us";
    /// Checkpoints written durably.
    pub const CHECKPOINTS_WRITTEN: &str = "aets_checkpoints_written_total";
    /// Wall time the ingest path stalls for one checkpoint: pre-checkpoint
    /// GC, snapshot encode, manifest write + fsyncs, WAL retirement
    /// (micros).
    pub const CHECKPOINT_US: &str = "aets_checkpoint_us";
    /// Size of the newest checkpoint manifest (bytes, level gauge).
    pub const CHECKPOINT_BYTES: &str = "aets_checkpoint_bytes";
    /// Checkpoint opportunities skipped while degraded.
    pub const CHECKPOINTS_SKIPPED: &str = "aets_checkpoints_skipped_degraded_total";
    /// Epochs appended durably to the WAL segment store.
    pub const WAL_EPOCHS_APPENDED: &str = "aets_wal_epochs_appended_total";
    /// WAL segments retired past the checkpoint watermark.
    pub const WAL_SEGMENTS_RETIRED: &str = "aets_wal_segments_retired_total";
    /// Corrupt checkpoint manifests skipped at recovery.
    pub const MANIFEST_FALLBACKS: &str = "aets_manifest_fallbacks_total";
    /// Epochs re-replayed from the WAL suffix during recovery.
    pub const RECOVERY_SUFFIX_EPOCHS: &str = "aets_recovery_suffix_epochs_total";
    /// Query service: end-to-end query latency (submit → reply, micros).
    pub const QUERY_LATENCY_US: &str = "aets_query_latency_us";
    /// Query service: time a query spent in the admission queue before a
    /// worker picked it up (micros).
    pub const QUERY_QUEUE_WAIT_US: &str = "aets_query_queue_wait_us";
    /// Query service: time a worker spent parked on Algorithm 3
    /// visibility before the snapshot became readable (micros).
    pub const QUERY_ADMISSION_WAIT_US: &str = "aets_query_admission_wait_us";
    /// Query service: queries completed successfully.
    pub const QUERIES_SERVED: &str = "aets_queries_served_total";
    /// Query service: queries that missed their deadline.
    pub const QUERIES_TIMED_OUT: &str = "aets_queries_timed_out_total";
    /// Query service: submissions rejected by the full admission queue.
    pub const QUERIES_OVERLOADED: &str = "aets_queries_overloaded_total";
    /// Query service: queries refused because a quarantined group's
    /// frozen watermark can never reach their `qts`.
    pub const QUERIES_REFUSED_DEGRADED: &str = "aets_queries_refused_degraded_total";
    /// Query service: queries cancelled by their client.
    pub const QUERIES_CANCELLED: &str = "aets_queries_cancelled_total";
    /// Query service: queries currently executing on workers (level).
    pub const QUERIES_INFLIGHT: &str = "aets_queries_inflight";
    /// Query service: submissions currently waiting in the admission
    /// queue (level).
    pub const QUERY_QUEUE_DEPTH: &str = "aets_query_queue_depth";
    /// Query service: parts of split scans run, labeled `ran_by="helper"`
    /// (an idle query worker took the part) or `ran_by="owner"` (the
    /// query's own worker ran it, because no worker was idle). A high
    /// owner share says the pool had no cores to lend.
    pub const QUERY_SCAN_PARTS: &str = "aets_query_scan_parts_total";
    /// Query service: read sessions opened.
    pub const SESSIONS_OPENED: &str = "aets_sessions_opened_total";
    /// Query service: read sessions closed (floor pin released).
    pub const SESSIONS_CLOSED: &str = "aets_sessions_closed_total";
    /// Query service: read sessions currently pinning the GC floor
    /// (level).
    pub const SESSIONS_ACTIVE: &str = "aets_sessions_active";
    /// Ingest hot path: encoded log bytes replayed per wall second,
    /// sampled per epoch (level gauge).
    pub const INGEST_BYTES_PER_SEC: &str = "aets_ingest_bytes_per_sec";
    /// WAL group commit: frames made durable per fsync point (batch-size
    /// histogram; always 1 under `FsyncPolicy::EveryEpoch`).
    pub const WAL_FSYNC_COALESCED_FRAMES: &str = "wal_fsync_coalesced_frames";
    /// Fleet: per-shard health gauge, labeled `shard="N"` (see
    /// [`super::shard_label`]). Levels: 0 = down, 1 = hung, 2 = lagging,
    /// 3 = healthy.
    pub const FLEET_SHARD_HEALTH: &str = "fleet_shard_health";
    /// Fleet: failovers completed (replacement shard bootstrapped from
    /// checkpoint shipping and rejoined the routing table).
    pub const FLEET_FAILOVERS: &str = "fleet_failovers_total";
    /// Fleet: end-to-end routed query latency (route + fan-out + merge,
    /// micros).
    pub const FLEET_ROUTED_LATENCY_US: &str = "fleet_routed_query_latency_us";
    /// Fleet: the fleet-wide `global_cmt_ts` watermark gauge (micros) —
    /// the minimum over every shard's last heartbeat-reported watermark.
    pub const FLEET_GLOBAL_CMT_TS_US: &str = "fleet_global_cmt_ts_us";
    /// Fleet: coordinator heartbeat intervals a shard failed to report in.
    pub const FLEET_HEARTBEATS_MISSED: &str = "fleet_heartbeats_missed_total";
    /// Fleet: queries routed to shards (one per fanned-out sub-query).
    pub const FLEET_QUERIES_ROUTED: &str = "fleet_queries_routed_total";
    /// Fleet: routed queries answered partially because a shard was
    /// unavailable (`DegradedPolicy::Partial`).
    pub const FLEET_QUERIES_PARTIAL: &str = "fleet_queries_partial_total";
    /// Fleet: shard crashes the fault plan injected.
    pub const FLEET_CRASHES_INJECTED: &str = "fleet_crashes_injected_total";
    /// Fleet: shard hangs the fault plan injected.
    pub const FLEET_HANGS_INJECTED: &str = "fleet_hangs_injected_total";
    /// Fleet: source epochs partitioned onto the shard queues (one per
    /// source epoch, however many shards it reaches).
    pub const FLEET_EPOCHS_ENQUEUED: &str = "fleet_epochs_enqueued_total";
    /// Fleet: sub-epochs the shards' ingests acked.
    pub const FLEET_EPOCHS_ACKED: &str = "fleet_epochs_acked_total";
    /// Transport: sender sessions (re-)established over TCP — the first
    /// connection counts too, so `value - 1` is the reconnect count of a
    /// single-stream run.
    pub const NET_CONNECTS: &str = "net_connects_total";
    /// Transport: reconnects after a broken session (excludes the first
    /// connection).
    pub const NET_RECONNECTS: &str = "net_reconnects_total";
    /// Transport: handshakes whose RESUME point rewound the send cursor —
    /// epochs in flight when the session broke are shipped again.
    pub const NET_RESYNCS: &str = "net_resyncs_total";
    /// Transport: HELLO/RESUME handshakes completed on the receiver.
    pub const NET_HANDSHAKES: &str = "net_handshakes_total";
    /// Transport: bytes the sender wrote to the wire (frames + payloads,
    /// including re-shipped epochs).
    pub const NET_BYTES_SENT: &str = "net_bytes_sent_total";
    /// Transport: bytes the receiver read off the wire.
    pub const NET_BYTES_RECV: &str = "net_bytes_recv_total";
    /// Transport: epoch frames shipped (including re-ships after resync).
    pub const NET_EPOCHS_SHIPPED: &str = "net_epochs_shipped_total";
    /// Transport: duplicate epoch deliveries discarded by the receiver's
    /// epoch-id dedup (exactly-once guarantee at work).
    pub const NET_EPOCHS_DEDUPED: &str = "net_epochs_deduped_total";
    /// Transport: frames rejected at decode (bad magic, header/payload
    /// CRC mismatch, oversized length, protocol violations). Every
    /// rejection tears the session down: a byte-corrupted TCP stream
    /// cannot be trusted to re-frame.
    pub const NET_FRAME_ERRORS: &str = "net_frame_errors_total";
    /// Transport: in-flight (sent, not yet acked) epochs sampled at each
    /// epoch send — the histogram of ack-window depth.
    pub const NET_ACK_WINDOW_DEPTH: &str = "net_ack_window_depth";
    /// Query service: analytical accesses per table, labeled
    /// `table="N"` (see [`super::table_label`]). One increment per table
    /// in a read session's footprint at open — the raw signal the
    /// adaptive controller differentiates into per-table access rates.
    pub const TABLE_ACCESS: &str = "aets_table_access_total";
    /// Adaptive control: rate windows closed (one forecast per window).
    pub const ADAPT_WINDOWS: &str = "aets_adapt_windows_total";
    /// Adaptive control: `Regroup` commands applied at an epoch boundary.
    pub const ADAPT_REGROUPS: &str = "aets_adapt_regroups_total";
    /// Adaptive control: `SetThreadSplit` commands applied at an epoch
    /// boundary.
    pub const ADAPT_RESPLITS: &str = "aets_adapt_resplits_total";
    /// Adaptive control: reconfigure commands dropped at the boundary
    /// (regroup while degraded, stale shape).
    pub const ADAPT_REJECTED: &str = "aets_adapt_rejected_total";
    /// Adaptive control: forecast + planning time per window (micros).
    pub const ADAPT_PLAN_US: &str = "aets_adapt_plan_us";
    /// Adaptive control: tables in the currently predicted hot set
    /// (level gauge).
    pub const ADAPT_HOT_TABLES: &str = "aets_adapt_hot_tables";
    /// Structured events emitted (== the ring's next sequence number).
    pub const EVENTS_EMITTED: &str = "aets_events_emitted_total";
    /// Structured events evicted from the ring before being drained.
    pub const EVENTS_DROPPED: &str = "aets_events_dropped_total";
}

/// Renders the canonical `shard="N"` label for fleet shard `idx`.
pub fn shard_label(idx: usize) -> String {
    format!("shard=\"{idx}\"")
}

/// Renders the canonical `table="N"` label for table `idx` (the
/// [`names::TABLE_ACCESS`] counter family).
pub fn table_label(idx: usize) -> String {
    format!("table=\"{idx}\"")
}

/// The shared telemetry instance: registry + event ring + span ring +
/// clock, with an optional flight recorder for anomaly post-mortems.
pub struct Telemetry {
    enabled: Arc<AtomicBool>,
    registry: Registry,
    events: EventRing,
    spans: SpanRing,
    flight: Mutex<Option<FlightRecorder>>,
    clock: ClockFn,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .field("events_emitted", &self.events.next_seq())
            .finish()
    }
}

impl Telemetry {
    /// An enabled instance with the default event capacity and a clock
    /// counting microseconds since creation.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_EVENT_CAPACITY, true)
    }

    /// An instance whose record operations are all no-ops (one relaxed
    /// load each). Snapshots still render — empty.
    pub fn disabled() -> Self {
        Self::with_capacity(DEFAULT_EVENT_CAPACITY, false)
    }

    /// An instance with an explicit event-ring capacity.
    pub fn with_capacity(event_capacity: usize, enabled: bool) -> Self {
        let start = Instant::now();
        let enabled = Arc::new(AtomicBool::new(enabled));
        let clock: ClockFn = Arc::new(move || start.elapsed().as_micros() as u64);
        Self {
            registry: Registry::new(enabled.clone()),
            events: EventRing::new(event_capacity),
            spans: SpanRing::new(trace::DEFAULT_SPAN_CAPACITY, enabled.clone(), clock.clone()),
            flight: Mutex::new(None),
            clock,
            enabled,
        }
    }

    /// Whether record operations currently do anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The telemetry clock (micros since creation by default).
    pub fn clock(&self) -> ClockFn {
        self.clock.clone()
    }

    /// The lifecycle span ring.
    pub fn spans(&self) -> &SpanRing {
        &self.spans
    }

    /// Attaches (or detaches, with `None`) a flight recorder: anomaly
    /// events from now on dump post-mortem bundles to its directory.
    pub fn set_flight_recorder(&self, recorder: Option<FlightRecorder>) {
        *lock(&self.flight) = recorder;
    }

    /// Emits a structured event (no-op when disabled). Returns the
    /// assigned sequence number, or `None` when disabled.
    ///
    /// Anomaly events (quarantine, degraded entry, shard down/failover,
    /// net resync) additionally latch the span ring's always-sample
    /// override and, when a flight recorder is attached, dump a bundle —
    /// best-effort: a failed dump is counted on the recorder, never
    /// propagated into the replay thread that emitted the event.
    pub fn event(&self, kind: EventKind) -> Option<u64> {
        if !self.is_enabled() {
            return None;
        }
        let anomaly = is_anomaly(&kind);
        if anomaly {
            self.spans.note_anomaly();
        }
        let name = kind.name();
        let seq = self.events.push((self.clock)(), kind);
        if anomaly {
            if let Some(recorder) = lock(&self.flight).as_ref() {
                let _ = recorder.dump(name, self);
            }
        }
        Some(seq)
    }

    /// Takes every undelivered event, oldest first.
    pub fn drain_events(&self) -> Vec<Event> {
        self.events.drain()
    }

    /// Copies every undelivered event without consuming them (for
    /// exposition and flight bundles).
    pub fn peek_events(&self) -> Vec<Event> {
        self.events.peek()
    }

    /// Events emitted so far (== next sequence number).
    pub fn events_emitted(&self) -> u64 {
        self.events.next_seq()
    }

    /// Events evicted before being drained.
    pub fn events_dropped(&self) -> u64 {
        self.events.dropped()
    }

    /// Point-in-time copy of every registered series plus event
    /// accounting. Event accounting is surfaced both as snapshot fields
    /// and as `aets_events_emitted_total` / `aets_events_dropped_total`
    /// counter series, so exposition and cross-checks see them like any
    /// other counter.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot { at_us: (self.clock)(), ..Default::default() };
        self.registry.snapshot_into(&mut snap);
        snap.events_emitted = self.events.next_seq();
        snap.events_dropped = self.events.dropped();
        snap.counters.push((names::EVENTS_EMITTED, String::new(), snap.events_emitted));
        snap.counters.push((names::EVENTS_DROPPED, String::new(), snap.events_dropped));
        snap.counters.sort();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_instance_records_nothing() {
        let tel = Telemetry::disabled();
        tel.registry().counter(names::EPOCHS).inc();
        tel.registry().histogram(names::DISPATCH_US).record_micros(10);
        assert_eq!(tel.event(EventKind::CheckpointSkippedDegraded), None);
        let snap = tel.snapshot();
        assert_eq!(snap.counter_total(names::EPOCHS), 0);
        assert_eq!(snap.events_emitted, 0);
    }

    #[test]
    fn events_carry_monotone_clock_stamps() {
        let tel = Telemetry::new();
        tel.event(EventKind::EpochDispatched { seq: 0 });
        tel.event(EventKind::EpochCommitted { seq: 0, max_commit_ts_us: 5 });
        let evs = tel.drain_events();
        assert_eq!(evs.len(), 2);
        assert!(evs[0].seq < evs[1].seq);
        assert!(evs[0].at_us <= evs[1].at_us);
        assert_eq!(evs[0].kind.name(), "epoch_dispatched");
    }

    #[test]
    fn snapshot_reflects_live_state() {
        let tel = Telemetry::new();
        tel.registry().counter(names::TXNS).add(7);
        tel.registry().gauge(names::GLOBAL_CMT_TS_US).set_max(123);
        let snap = tel.snapshot();
        assert_eq!(snap.counter_total(names::TXNS), 7);
        assert_eq!(snap.gauge(names::GLOBAL_CMT_TS_US, ""), Some(123));
    }

    #[test]
    fn event_accounting_surfaces_as_counter_series() {
        let tel = Telemetry::new();
        tel.event(EventKind::CheckpointSkippedDegraded);
        let snap = tel.snapshot();
        assert_eq!(snap.counter(names::EVENTS_EMITTED, ""), Some(1));
        assert_eq!(snap.counter(names::EVENTS_DROPPED, ""), Some(0));
        assert!(snap.counters.windows(2).all(|w| w[0] <= w[1]), "counters stay sorted");
        let text = snap.render_prometheus();
        assert!(text.contains("aets_events_emitted_total 1"));
        assert!(text.contains("aets_events_dropped_total 0"));
    }

    #[test]
    fn anomaly_events_latch_always_sample() {
        let tel = Telemetry::new();
        tel.spans().set_sampling(0);
        assert!(!tel.spans().should_sample(9));
        tel.event(EventKind::EpochDispatched { seq: 1 });
        assert!(!tel.spans().anomalous(), "routine events are not anomalies");
        tel.event(EventKind::GroupQuarantined { group: 2, reason: "record crc".into() });
        assert!(tel.spans().should_sample(9), "quarantine latches always-sample");
    }

    #[test]
    fn kind_mismatch_yields_detached_handle_not_panic() {
        let tel = Telemetry::new();
        tel.registry().counter("aets_epochs_total").inc();
        // Same name requested as a gauge: detached, snapshot unaffected.
        let g = tel.registry().gauge("aets_epochs_total");
        g.set(999);
        let snap = tel.snapshot();
        assert_eq!(snap.counter_total("aets_epochs_total"), 1);
        assert_eq!(snap.gauge("aets_epochs_total", ""), None);
    }
}
