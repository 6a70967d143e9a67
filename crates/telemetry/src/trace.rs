//! Causal epoch-lifecycle spans.
//!
//! A [`Span`] is one timed step of an epoch's life — shipped, appended,
//! fsynced, dispatched, translated, committed, flipped, queried — keyed
//! by the epoch sequence number so one id reconstructs the full
//! cross-thread (and, joined over both endpoints' rings, cross-node)
//! timeline. Spans form a tree per epoch through `parent` links; links
//! across the wire reuse the sender's span id carried in the transport
//! trace extension, so the two rings join on id as well as on epoch.
//!
//! The [`SpanRing`] is bounded and lock-light: an id allocation is one
//! relaxed `fetch_add`, the sampling decision is two relaxed loads, and
//! only a *completed* span takes the ring mutex for one `VecDeque` push.
//! Nothing is recorded for unsampled epochs, so the sampling knob
//! ([`SpanRing::set_sampling`]) bounds tracing cost under load — except
//! after an anomaly (quarantine, failover, net resync), when the
//! always-sample latch ([`SpanRing::note_anomaly`]) overrides the knob:
//! the epochs around an incident are exactly the ones worth keeping.

use crate::ClockFn;
use aets_common::sync::lock;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default bounded capacity of a [`SpanRing`].
pub const DEFAULT_SPAN_CAPACITY: usize = 8192;

/// Stable stage names, so producers (instrumentation points) and
/// consumers (`/spans.json`, tests, flight-recorder bundles) agree on
/// spelling. One epoch's healthy life visits them in roughly this order.
pub mod stages {
    /// Sender: epoch frame written to the wire until cumulatively acked.
    pub const NET_SHIP: &str = "net_ship";
    /// Receiver: epoch verified and admitted into the delivery queue.
    pub const NET_RECV: &str = "net_recv";
    /// Durable backup: epoch appended to the WAL segment store.
    pub const WAL_APPEND: &str = "wal_append";
    /// Durable backup: the fsync making the append durable.
    pub const WAL_FSYNC: &str = "wal_fsync";
    /// Engine: dispatcher metadata scan + routing of the epoch.
    pub const DISPATCH: &str = "dispatch";
    /// Engine: log-to-operation translation of one chunk of a group's
    /// mini-txns, on whichever crew member translated it.
    pub const TRANSLATE: &str = "translate";
    /// Engine: a group's committer waiting for its first chunk of cells.
    pub const COMMIT_WAIT: &str = "commit_wait";
    /// Engine: a group's committer applying ordered mini-txns.
    pub const APPLY: &str = "apply";
    /// Board: a group's `tg_cmt_ts` publication (point span).
    pub const FLIP_GROUP: &str = "flip_group";
    /// Board: the `global_cmt_ts` publication (point span).
    pub const FLIP_GLOBAL: &str = "flip_global";
    /// Service: a query waiting on Algorithm 3 admission.
    pub const QUERY_ADMISSION: &str = "query_admission";
    /// Service: a query executing on a worker.
    pub const QUERY_EXEC: &str = "query_exec";
    /// Fleet: routing fan-out + merge of one fleet query.
    pub const FLEET_ROUTE: &str = "fleet_route";
    /// Engine: a reconfigure command (regroup / thread resplit) applied
    /// at an epoch boundary (point span at the boundary's seq).
    pub const RECONFIGURE: &str = "reconfigure";
}

/// Unique (per ring) span identity. Ids are nonzero; spans recorded from
/// a remote peer's trace extension reuse the *remote* id so the two
/// endpoints' rings join on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// One completed lifecycle step of an epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Ring-unique id (or the remote peer's id for wire-linked spans).
    pub id: SpanId,
    /// Epoch sequence number the step belongs to.
    pub epoch: u64,
    /// Stage name (see [`stages`]).
    pub stage: &'static str,
    /// Board group index, for per-group stages.
    pub group: Option<usize>,
    /// Start stamp on the telemetry clock (micros).
    pub start_us: u64,
    /// End stamp on the telemetry clock (micros); `== start_us` for
    /// point spans like visibility flips.
    pub end_us: u64,
    /// Causal parent within the same ring, if any.
    pub parent: Option<SpanId>,
}

/// A started-but-unfinished span: holds the id and start stamp, pushed
/// into the ring only on [`OpenSpan::finish`]. `Copy`-cheap to thread
/// through worker closures.
#[derive(Debug, Clone, Copy)]
pub struct OpenSpan {
    id: SpanId,
    epoch: u64,
    stage: &'static str,
    group: Option<usize>,
    start_us: u64,
    parent: Option<SpanId>,
}

impl OpenSpan {
    /// The span's id, for use as a child's parent before finishing.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// The span's start stamp (e.g. to carry in a wire trace extension).
    pub fn start_us(&self) -> u64 {
        self.start_us
    }

    /// Completes the span now (on the ring's clock) and records it.
    pub fn finish(self, ring: &SpanRing) {
        let end = (ring.clock)();
        self.finish_at(ring, end);
    }

    /// Completes the span at an explicit end stamp and records it.
    pub fn finish_at(self, ring: &SpanRing, end_us: u64) {
        ring.record(Span {
            id: self.id,
            epoch: self.epoch,
            stage: self.stage,
            group: self.group,
            start_us: self.start_us,
            end_us: end_us.max(self.start_us),
            parent: self.parent,
        });
    }
}

#[derive(Debug, Default)]
struct TraceState {
    buf: VecDeque<Span>,
    dropped: u64,
}

/// Bounded ring of completed spans with an epoch-sampling knob and an
/// always-sample-on-anomaly latch.
pub struct SpanRing {
    capacity: usize,
    enabled: Arc<AtomicBool>,
    /// Sample epochs whose sequence is divisible by this; `1` = all
    /// (default), `0` = tracing off.
    sample_every: AtomicU64,
    /// Latched by [`SpanRing::note_anomaly`]: from then on every epoch
    /// samples regardless of the knob.
    anomaly: AtomicBool,
    next_id: AtomicU64,
    recorded: AtomicU64,
    /// Advisory "most recently committed epoch" used by instrumentation
    /// points that have no epoch of their own (query spans).
    epoch_hint: AtomicU64,
    clock: ClockFn,
    state: Mutex<TraceState>,
}

impl std::fmt::Debug for SpanRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRing")
            .field("capacity", &self.capacity)
            .field("sample_every", &self.sample_every.load(Ordering::Relaxed))
            .field("recorded", &self.recorded.load(Ordering::Relaxed))
            .finish()
    }
}

impl SpanRing {
    /// Creates a ring holding at most `capacity` spans (minimum 1),
    /// sharing the owning `Telemetry`'s enabled flag and clock.
    pub(crate) fn new(capacity: usize, enabled: Arc<AtomicBool>, clock: ClockFn) -> Self {
        Self {
            capacity: capacity.max(1),
            enabled,
            sample_every: AtomicU64::new(1),
            anomaly: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            recorded: AtomicU64::new(0),
            epoch_hint: AtomicU64::new(0),
            clock,
            state: Mutex::new(TraceState::default()),
        }
    }

    /// Sets the sampling knob: record spans for epochs whose sequence is
    /// divisible by `every`. `1` samples everything, `0` disables
    /// tracing (the anomaly latch still overrides either).
    pub fn set_sampling(&self, every: u64) {
        self.sample_every.store(every, Ordering::Relaxed);
    }

    /// Current sampling knob value.
    pub fn sampling(&self) -> u64 {
        self.sample_every.load(Ordering::Relaxed)
    }

    /// Latches the always-sample override: an anomaly (quarantine,
    /// failover, net resync) makes every subsequent epoch worth tracing.
    pub fn note_anomaly(&self) {
        self.anomaly.store(true, Ordering::Relaxed);
    }

    /// Whether the anomaly latch is set.
    pub fn anomalous(&self) -> bool {
        self.anomaly.load(Ordering::Relaxed)
    }

    /// Whether spans of `epoch` should be recorded right now.
    pub fn should_sample(&self, epoch: u64) -> bool {
        if !self.enabled.load(Ordering::Relaxed) {
            return false;
        }
        if self.anomaly.load(Ordering::Relaxed) {
            return true;
        }
        match self.sample_every.load(Ordering::Relaxed) {
            0 => false,
            every => epoch.is_multiple_of(every),
        }
    }

    /// Allocates a fresh span id (for wire-carried trace extensions).
    pub fn alloc_id(&self) -> SpanId {
        SpanId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Starts a span of `epoch` now, or `None` when the epoch is not
    /// sampled — callers thread the `Option` through and `finish` it.
    pub fn begin(
        &self,
        epoch: u64,
        stage: &'static str,
        group: Option<usize>,
        parent: Option<SpanId>,
    ) -> Option<OpenSpan> {
        let start = (self.clock)();
        self.begin_at(epoch, stage, group, parent, start)
    }

    /// Starts a span at an explicit start stamp.
    pub fn begin_at(
        &self,
        epoch: u64,
        stage: &'static str,
        group: Option<usize>,
        parent: Option<SpanId>,
        start_us: u64,
    ) -> Option<OpenSpan> {
        if !self.should_sample(epoch) {
            return None;
        }
        Some(OpenSpan { id: self.alloc_id(), epoch, stage, group, start_us, parent })
    }

    /// Records a point span (start == end == now): visibility flips and
    /// other instantaneous transitions. Returns the id for child links.
    pub fn point(
        &self,
        epoch: u64,
        stage: &'static str,
        group: Option<usize>,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.should_sample(epoch) {
            return None;
        }
        let now = (self.clock)();
        let id = self.alloc_id();
        self.record(Span { id, epoch, stage, group, start_us: now, end_us: now, parent });
        Some(id)
    }

    /// Appends a completed span, evicting (and counting) the oldest when
    /// full. Accepts spans with foreign ids (wire-linked).
    pub fn record(&self, span: Span) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut s = lock(&self.state);
        if s.buf.len() >= self.capacity {
            s.buf.pop_front();
            s.dropped += 1;
        }
        s.buf.push_back(span);
    }

    /// Every retained span of `epoch`, oldest first (non-destructive).
    pub fn for_epoch(&self, epoch: u64) -> Vec<Span> {
        lock(&self.state).buf.iter().filter(|s| s.epoch == epoch).cloned().collect()
    }

    /// The newest `n` retained spans, oldest first (non-destructive).
    pub fn recent(&self, n: usize) -> Vec<Span> {
        let s = lock(&self.state);
        let skip = s.buf.len().saturating_sub(n);
        s.buf.iter().skip(skip).cloned().collect()
    }

    /// Spans evicted from the ring.
    pub fn dropped(&self) -> u64 {
        lock(&self.state).dropped
    }

    /// Total spans ever recorded (evicted ones included).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Retained spans right now.
    pub fn len(&self) -> usize {
        lock(&self.state).buf.len()
    }

    /// Whether the ring holds no spans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Publishes the most recently committed epoch sequence, as a hint
    /// for instrumentation points without an epoch of their own.
    pub fn set_epoch_hint(&self, seq: u64) {
        self.epoch_hint.fetch_max(seq + 1, Ordering::Relaxed);
    }

    /// Latest committed epoch sequence, or `None` before the first.
    pub fn epoch_hint(&self) -> Option<u64> {
        match self.epoch_hint.load(Ordering::Relaxed) {
            0 => None,
            n => Some(n - 1),
        }
    }
}

/// Renders spans as a JSON array (the `/spans.json` payload body and the
/// flight-recorder bundle format).
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"id\": {}, \"epoch\": {}, \"stage\": \"{}\", \"group\": {}, \
             \"start_us\": {}, \"end_us\": {}, \"parent\": {}}}",
            s.id.0,
            s.epoch,
            s.stage,
            s.group.map_or("null".to_string(), |g| g.to_string()),
            s.start_us,
            s.end_us,
            s.parent.map_or("null".to_string(), |p| p.0.to_string()),
        );
    }
    if !spans.is_empty() {
        out.push_str("\n  ");
    }
    out.push(']');
    out
}

/// Checks that every span's `parent` resolves to another span in the
/// same slice — the no-orphan invariant trace reconstruction relies on.
/// Returns the first orphaned span, or `None` when the tree is closed.
pub fn first_orphan(spans: &[Span]) -> Option<&Span> {
    use std::collections::HashSet;
    let ids: HashSet<u64> = spans.iter().map(|s| s.id.0).collect();
    spans.iter().find(|s| s.parent.is_some_and(|p| !ids.contains(&p.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(capacity: usize) -> SpanRing {
        SpanRing::new(capacity, Arc::new(AtomicBool::new(true)), Arc::new(|| 42))
    }

    #[test]
    fn begin_finish_records_a_closed_span() {
        let r = ring(16);
        let open = r.begin(3, stages::DISPATCH, None, None).expect("sampled");
        open.finish_at(&r, 100);
        let spans = r.for_epoch(3);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].stage, stages::DISPATCH);
        assert_eq!(spans[0].start_us, 42);
        assert_eq!(spans[0].end_us, 100);
        assert_eq!(spans[0].parent, None);
        assert!(r.for_epoch(4).is_empty());
    }

    #[test]
    fn sampling_knob_gates_epochs() {
        let r = ring(64);
        r.set_sampling(4);
        for epoch in 0..16u64 {
            if let Some(s) = r.begin(epoch, stages::DISPATCH, None, None) {
                s.finish(&r);
            }
        }
        assert_eq!(r.len(), 4, "only every 4th epoch sampled");
        r.set_sampling(0);
        assert!(r.begin(0, stages::DISPATCH, None, None).is_none(), "0 disables");
    }

    #[test]
    fn anomaly_latch_overrides_the_knob() {
        let r = ring(64);
        r.set_sampling(0);
        assert!(!r.should_sample(7));
        r.note_anomaly();
        assert!(r.should_sample(7), "anomaly samples everything");
        assert!(r.anomalous());
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let r = ring(3);
        for epoch in 0..8u64 {
            r.point(epoch, stages::FLIP_GLOBAL, None, None);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 5);
        assert_eq!(r.recorded(), 8);
        let recent = r.recent(2);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[1].epoch, 7, "recent returns the newest tail");
    }

    #[test]
    fn parent_links_and_orphan_detection() {
        let r = ring(16);
        let root = r.begin(1, stages::DISPATCH, None, None).expect("sampled");
        let root_id = root.id();
        let child = r.begin(1, stages::APPLY, Some(0), Some(root_id)).expect("sampled");
        child.finish(&r);
        root.finish(&r);
        let spans = r.for_epoch(1);
        assert_eq!(spans.len(), 2);
        assert!(first_orphan(&spans).is_none(), "closed tree");
        let orphaned = vec![Span {
            id: SpanId(99),
            epoch: 1,
            stage: stages::APPLY,
            group: None,
            start_us: 0,
            end_us: 1,
            parent: Some(SpanId(12345)),
        }];
        assert!(first_orphan(&orphaned).is_some());
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let r = SpanRing::new(16, Arc::new(AtomicBool::new(false)), Arc::new(|| 0));
        assert!(r.begin(0, stages::DISPATCH, None, None).is_none());
        assert!(r.point(0, stages::FLIP_GLOBAL, None, None).is_none());
        r.record(Span {
            id: SpanId(1),
            epoch: 0,
            stage: stages::DISPATCH,
            group: None,
            start_us: 0,
            end_us: 0,
            parent: None,
        });
        assert!(r.is_empty());
        assert_eq!(r.recorded(), 0);
    }

    #[test]
    fn spans_render_as_json() {
        let r = ring(8);
        let s = r.begin(5, stages::WAL_APPEND, Some(2), None).expect("sampled");
        s.finish_at(&r, 50);
        let json = spans_json(&r.for_epoch(5));
        assert!(json.contains("\"epoch\": 5"));
        assert!(json.contains("\"stage\": \"wal_append\""));
        assert!(json.contains("\"group\": 2"));
        assert!(json.contains("\"parent\": null"));
        assert_eq!(spans_json(&[]), "[]");
    }

    #[test]
    fn epoch_hint_is_monotone() {
        let r = ring(8);
        assert_eq!(r.epoch_hint(), None);
        r.set_epoch_hint(4);
        r.set_epoch_hint(2);
        assert_eq!(r.epoch_hint(), Some(4), "hint never regresses");
    }
}
