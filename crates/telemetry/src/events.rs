//! Bounded structured event ring.
//!
//! Replay emits one [`Event`] per interesting state transition (epoch
//! dispatched/committed, group quarantined, checkpoint written/skipped,
//! WAL segment retired, GC pass, recovery fallback). Events carry a
//! monotonic sequence number assigned at emission, so a consumer that
//! drains the ring can detect loss: a gap in sequence numbers means the
//! ring overflowed and `dropped()` counts exactly how many fell out.

use aets_common::json_escape;
use aets_common::sync::lock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What happened. Timestamps inside payloads are primary-clock
/// microseconds; `group` fields are visibility-board indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// The dispatcher finished the metadata scan of an epoch.
    EpochDispatched {
        /// Epoch sequence number in the stream.
        seq: u64,
    },
    /// Both replay stages of an epoch completed and visibility advanced.
    EpochCommitted {
        /// Epoch sequence number in the stream.
        seq: u64,
        /// The epoch's last primary commit timestamp (micros).
        max_commit_ts_us: u64,
    },
    /// A group hit an unrecoverable fault; its watermark is frozen.
    GroupQuarantined {
        /// Board index of the group.
        group: usize,
        /// The error that froze it, as the engine reported it.
        reason: String,
    },
    /// A previously quarantined group was restored to health (restart
    /// recovery re-replays its suffix through a fresh engine).
    GroupUnquarantined {
        /// Board index of the group.
        group: usize,
    },
    /// First quarantine of the run: the node entered degraded mode.
    DegradedEntered {
        /// All groups quarantined at entry (ascending board indices).
        groups: Vec<usize>,
    },
    /// A checkpoint manifest became durable.
    CheckpointWritten {
        /// `next_epoch_seq` the checkpoint covers up to.
        next_epoch_seq: u64,
    },
    /// A checkpoint opportunity was refused because a group is
    /// quarantined (truncating the WAL would lose its frozen suffix).
    CheckpointSkippedDegraded,
    /// WAL segments behind the checkpoint watermark were deleted.
    WalSegmentRetired {
        /// Segments removed in this retirement pass.
        segments: u64,
    },
    /// A version-chain GC pass completed.
    GcPass {
        /// Record nodes visited.
        nodes: usize,
        /// Versions pruned.
        pruned: usize,
    },
    /// Restart recovery skipped corrupt checkpoint manifests before
    /// finding a valid one.
    RecoveryFallback {
        /// Manifests that failed validation.
        manifests_skipped: u64,
    },
    /// A read session opened and pinned the GC floor at its `qts`.
    SessionOpened {
        /// The session's snapshot timestamp (micros).
        qts_us: u64,
    },
    /// A read session closed and released its GC floor pin.
    SessionClosed {
        /// The session's snapshot timestamp (micros).
        qts_us: u64,
    },
    /// The fleet supervisor declared a shard dead (crash observed, or
    /// heartbeat liveness exhausted on a hung shard) and removed it from
    /// the routing table.
    ShardDown {
        /// Fleet index of the shard.
        shard: usize,
    },
    /// A replacement shard finished bootstrapping from checkpoint
    /// shipping + WAL-suffix replay and rejoined the routing table.
    ShardFailover {
        /// Fleet index of the shard.
        shard: usize,
        /// Heartbeat intervals between the shard leaving and rejoining
        /// the routing table.
        intervals_down: u64,
        /// Epochs the replacement re-replayed from the shipped WAL suffix
        /// (everything else came from the checkpoint manifest).
        suffix_epochs: u64,
    },
    /// A shard missed a coordinator heartbeat interval.
    ShardHeartbeatMissed {
        /// Fleet index of the shard.
        shard: usize,
        /// Consecutive intervals missed so far.
        missed: u32,
    },
    /// The adaptive controller's table grouping was applied at an epoch
    /// boundary: stages drained, tables migrated, replay resumed.
    Regroup {
        /// Epoch sequence the new grouping takes effect at.
        at_seq: u64,
        /// Groups in the new grouping (unchanged by construction).
        groups: usize,
        /// Tables whose group assignment changed.
        moved_tables: usize,
    },
    /// A pinned per-group worker split took effect at an epoch boundary.
    ThreadSplit {
        /// Epoch sequence the split takes effect at.
        at_seq: u64,
        /// Worker counts per group, board order.
        split: Vec<usize>,
    },
    /// The log-shipping sender lost its session and re-established it.
    NetReconnect {
        /// Consecutive failed connection attempts before this one stuck.
        attempts: u32,
    },
    /// A reconnect handshake rewound the send cursor: the epochs that
    /// were in flight when the session broke are shipped again (and
    /// deduplicated at the receiver).
    NetResync {
        /// First epoch sequence shipped again.
        resume_seq: u64,
        /// Epochs rewound (send cursor minus resume point).
        rewound: u64,
    },
}

/// One emitted event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number (gap-free unless the ring overflowed).
    pub seq: u64,
    /// Emission time on the telemetry clock (micros).
    pub at_us: u64,
    /// Payload.
    pub kind: EventKind,
}

#[derive(Debug, Default)]
struct RingState {
    buf: VecDeque<Event>,
    dropped: u64,
}

/// Bounded MPSC-ish ring: any thread pushes, one consumer drains.
#[derive(Debug)]
pub struct EventRing {
    capacity: usize,
    next_seq: AtomicU64,
    state: Mutex<RingState>,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` undelivered events
    /// (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            next_seq: AtomicU64::new(0),
            state: Mutex::new(RingState::default()),
        }
    }

    /// Appends an event, assigning the next sequence number. The oldest
    /// undelivered event is evicted (and counted dropped) when full.
    pub fn push(&self, at_us: u64, kind: EventKind) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let mut s = lock(&self.state);
        if s.buf.len() >= self.capacity {
            s.buf.pop_front();
            s.dropped += 1;
        }
        s.buf.push_back(Event { seq, at_us, kind });
        seq
    }

    /// Takes every undelivered event, oldest first.
    pub fn drain(&self) -> Vec<Event> {
        lock(&self.state).buf.drain(..).collect()
    }

    /// Copies every undelivered event, oldest first, without consuming
    /// them — observers (`/events.json`, flight-recorder bundles) must
    /// not steal events from the run's real consumer.
    pub fn peek(&self) -> Vec<Event> {
        lock(&self.state).buf.iter().cloned().collect()
    }

    /// Sequence number the next event will get (== total emitted so far).
    pub fn next_seq(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Events evicted before being drained.
    pub fn dropped(&self) -> u64 {
        lock(&self.state).dropped
    }
}

impl EventKind {
    /// Stable snake_case name used in exposition output.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::EpochDispatched { .. } => "epoch_dispatched",
            EventKind::EpochCommitted { .. } => "epoch_committed",
            EventKind::GroupQuarantined { .. } => "group_quarantined",
            EventKind::GroupUnquarantined { .. } => "group_unquarantined",
            EventKind::DegradedEntered { .. } => "degraded_entered",
            EventKind::CheckpointWritten { .. } => "checkpoint_written",
            EventKind::CheckpointSkippedDegraded => "checkpoint_skipped_degraded",
            EventKind::WalSegmentRetired { .. } => "wal_segment_retired",
            EventKind::GcPass { .. } => "gc_pass",
            EventKind::RecoveryFallback { .. } => "recovery_fallback",
            EventKind::SessionOpened { .. } => "session_opened",
            EventKind::SessionClosed { .. } => "session_closed",
            EventKind::ShardDown { .. } => "shard_down",
            EventKind::ShardFailover { .. } => "shard_failover",
            EventKind::ShardHeartbeatMissed { .. } => "shard_heartbeat_missed",
            EventKind::Regroup { .. } => "regroup",
            EventKind::ThreadSplit { .. } => "thread_split",
            EventKind::NetReconnect { .. } => "net_reconnect",
            EventKind::NetResync { .. } => "net_resync",
        }
    }

    /// Renders the payload fields as a JSON object.
    pub fn detail_json(&self) -> String {
        match self {
            EventKind::EpochDispatched { seq } => format!("{{\"seq\": {seq}}}"),
            EventKind::EpochCommitted { seq, max_commit_ts_us } => {
                format!("{{\"seq\": {seq}, \"max_commit_ts_us\": {max_commit_ts_us}}}")
            }
            EventKind::GroupQuarantined { group, reason } => {
                format!("{{\"group\": {group}, \"reason\": \"{}\"}}", json_escape(reason))
            }
            EventKind::GroupUnquarantined { group } => format!("{{\"group\": {group}}}"),
            EventKind::DegradedEntered { groups } => {
                let list: Vec<String> = groups.iter().map(|g| g.to_string()).collect();
                format!("{{\"groups\": [{}]}}", list.join(", "))
            }
            EventKind::CheckpointWritten { next_epoch_seq } => {
                format!("{{\"next_epoch_seq\": {next_epoch_seq}}}")
            }
            EventKind::CheckpointSkippedDegraded => "{}".to_string(),
            EventKind::WalSegmentRetired { segments } => format!("{{\"segments\": {segments}}}"),
            EventKind::GcPass { nodes, pruned } => {
                format!("{{\"nodes\": {nodes}, \"pruned\": {pruned}}}")
            }
            EventKind::RecoveryFallback { manifests_skipped } => {
                format!("{{\"manifests_skipped\": {manifests_skipped}}}")
            }
            EventKind::SessionOpened { qts_us } | EventKind::SessionClosed { qts_us } => {
                format!("{{\"qts_us\": {qts_us}}}")
            }
            EventKind::ShardDown { shard } => format!("{{\"shard\": {shard}}}"),
            EventKind::ShardFailover { shard, intervals_down, suffix_epochs } => format!(
                "{{\"shard\": {shard}, \"intervals_down\": {intervals_down}, \
                 \"suffix_epochs\": {suffix_epochs}}}"
            ),
            EventKind::ShardHeartbeatMissed { shard, missed } => {
                format!("{{\"shard\": {shard}, \"missed\": {missed}}}")
            }
            EventKind::Regroup { at_seq, groups, moved_tables } => format!(
                "{{\"at_seq\": {at_seq}, \"groups\": {groups}, \
                 \"moved_tables\": {moved_tables}}}"
            ),
            EventKind::ThreadSplit { at_seq, split } => {
                let list: Vec<String> = split.iter().map(|w| w.to_string()).collect();
                format!("{{\"at_seq\": {at_seq}, \"split\": [{}]}}", list.join(", "))
            }
            EventKind::NetReconnect { attempts } => format!("{{\"attempts\": {attempts}}}"),
            EventKind::NetResync { resume_seq, rewound } => {
                format!("{{\"resume_seq\": {resume_seq}, \"rewound\": {rewound}}}")
            }
        }
    }
}

/// Renders events as a JSON array (the `/events.json` payload body and
/// the flight-recorder bundle format).
pub fn events_json(events: &[Event]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push('[');
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"seq\": {}, \"at_us\": {}, \"kind\": \"{}\", \"detail\": {}}}",
            e.seq,
            e.at_us,
            e.kind.name(),
            e.kind.detail_json(),
        );
    }
    if !events.is_empty() {
        out.push_str("\n  ");
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_numbers_are_monotone_and_gap_free() {
        let r = EventRing::new(8);
        for i in 0..5 {
            r.push(i, EventKind::EpochDispatched { seq: i });
        }
        let drained = r.drain();
        assert_eq!(drained.len(), 5);
        for (i, e) in drained.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.next_seq(), 5);
        // Draining resets the buffer but not the sequence.
        r.push(9, EventKind::CheckpointSkippedDegraded);
        assert_eq!(r.drain()[0].seq, 5);
    }

    #[test]
    fn overflow_evicts_oldest_and_counts_drops() {
        let r = EventRing::new(3);
        for i in 0..7 {
            r.push(i, EventKind::EpochCommitted { seq: i, max_commit_ts_us: i * 10 });
        }
        assert_eq!(r.dropped(), 4);
        let drained = r.drain();
        assert_eq!(drained.len(), 3);
        assert_eq!(drained[0].seq, 4, "oldest surviving event");
        assert_eq!(drained[2].seq, 6);
    }

    #[test]
    fn peek_is_non_destructive_and_renders_json() {
        let r = EventRing::new(8);
        r.push(10, EventKind::NetResync { resume_seq: 3, rewound: 2 });
        r.push(11, EventKind::ShardFailover { shard: 1, intervals_down: 4, suffix_epochs: 9 });
        let peeked = r.peek();
        assert_eq!(peeked.len(), 2);
        assert_eq!(r.peek().len(), 2, "peek leaves events in place");
        let json = events_json(&peeked);
        assert!(json.contains("\"kind\": \"net_resync\""));
        assert!(json.contains("\"resume_seq\": 3"));
        assert!(json.contains("\"suffix_epochs\": 9"));
        assert_eq!(events_json(&[]), "[]");
        assert_eq!(r.drain().len(), 2, "real consumer still sees everything");
    }

    #[test]
    fn concurrent_pushes_never_reuse_a_sequence() {
        let r = EventRing::new(1024);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        r.push(0, EventKind::GcPass { nodes: 1, pruned: 0 });
                    }
                });
            }
        });
        let mut seqs: Vec<u64> = r.drain().iter().map(|e| e.seq).collect();
        assert_eq!(seqs.len(), 400);
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 400, "no duplicate sequence numbers");
        assert_eq!(r.next_seq(), 400);
    }
}
