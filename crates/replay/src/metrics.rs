//! Replay metrics: throughput, phase time breakdown (Table II), and
//! stage-level replay times (Figures 8b/9b).

use std::time::Duration;

/// What one engine call did. Anything accumulated across calls or owned
/// by another layer (GC, checkpoints, WAL, recovery, fleet, transport)
/// lives only in the telemetry registry.
#[derive(Debug, Clone, Default)]
pub struct ReplayMetrics {
    /// Engine name ("aets", "atr", "c5", "tplr", "serial").
    pub engine: &'static str,
    /// Transactions replayed.
    pub txns: usize,
    /// DML entries replayed.
    pub entries: usize,
    /// Encoded log bytes processed.
    pub bytes: u64,
    /// Epochs processed.
    pub epochs: usize,
    /// End-to-end wall time of the replay.
    pub wall: Duration,
    /// Serial dispatcher busy time (metadata or full-image parse + route).
    pub dispatch_busy: Duration,
    /// Aggregate replay-worker busy time (phase 1 / apply).
    pub replay_busy: Duration,
    /// Aggregate commit-thread busy time (phase 2 / visibility publish).
    pub commit_busy: Duration,
    /// Wall time spent in stage 1 (hot groups). Zero for engines without
    /// stages.
    pub stage1_wall: Duration,
    /// Wall time spent in stage 2 (cold groups).
    pub stage2_wall: Duration,
    /// Phase-1 cell buffers served from the per-group free-list pools
    /// (zero for engines without cell pooling).
    pub cell_buffers_recycled: u64,
    /// Phase-1 cell buffers that had to be freshly allocated.
    pub cell_buffers_allocated: u64,
    /// Groups quarantined during replay (board indices, ascending). A
    /// quarantined group's `tg_cmt_ts` is frozen at its last consistent
    /// commit and `global_cmt_ts` stops advancing, while healthy groups
    /// keep replaying. Empty in a healthy run.
    pub quarantined_groups: Vec<usize>,
    /// Adaptive control: `Regroup` commands applied at epoch boundaries.
    pub regroups_applied: u64,
    /// Adaptive control: `SetThreadSplit` commands applied at epoch
    /// boundaries.
    pub resplits_applied: u64,
    /// Adaptive control: reconfigure commands dropped at the boundary
    /// (e.g. a regroup refused while a group is quarantined).
    pub reconf_rejected: u64,
}

impl ReplayMetrics {
    /// Replayed entries per second of wall time.
    pub fn entries_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.entries as f64 / s
        }
    }

    /// Replayed transactions per second of wall time.
    pub fn txns_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.txns as f64 / s
        }
    }

    /// Whether replay is in degraded mode: at least one group has been
    /// quarantined and its watermark frozen.
    pub fn degraded(&self) -> bool {
        !self.quarantined_groups.is_empty()
    }

    /// Accumulates another run's counters into this one: sums every
    /// additive counter and duration except `wall` (the caller owns
    /// end-to-end wall time) and `engine` (identity, not a counter), and
    /// unions the quarantine sets (sorted, deduped). The union matters
    /// when runs from *different* engine instances are absorbed — e.g. a
    /// restart-recovery run absorbed into the pre-crash run: each engine
    /// only reports its own ledger, so replacing would silently drop
    /// groups quarantined before the restart.
    pub fn absorb(&mut self, other: &ReplayMetrics) {
        // Exhaustive on purpose: a new field that is not summed here
        // fails to compile.
        let ReplayMetrics {
            engine: _,
            txns,
            entries,
            bytes,
            epochs,
            wall: _,
            dispatch_busy,
            replay_busy,
            commit_busy,
            stage1_wall,
            stage2_wall,
            cell_buffers_recycled,
            cell_buffers_allocated,
            quarantined_groups,
            regroups_applied,
            resplits_applied,
            reconf_rejected,
        } = other;
        self.txns += txns;
        self.entries += entries;
        self.bytes += bytes;
        self.epochs += epochs;
        self.dispatch_busy += *dispatch_busy;
        self.replay_busy += *replay_busy;
        self.commit_busy += *commit_busy;
        self.stage1_wall += *stage1_wall;
        self.stage2_wall += *stage2_wall;
        self.cell_buffers_recycled += cell_buffers_recycled;
        self.cell_buffers_allocated += cell_buffers_allocated;
        self.quarantined_groups.extend_from_slice(quarantined_groups);
        self.quarantined_groups.sort_unstable();
        self.quarantined_groups.dedup();
        self.regroups_applied += regroups_applied;
        self.resplits_applied += resplits_applied;
        self.reconf_rejected += reconf_rejected;
    }

    /// The Table II breakdown: fractions of busy time spent in
    /// (dispatch, replay, commit). Sums to 1 when any work was done.
    pub fn breakdown(&self) -> (f64, f64, f64) {
        let d = self.dispatch_busy.as_secs_f64();
        let r = self.replay_busy.as_secs_f64();
        let c = self.commit_busy.as_secs_f64();
        let total = d + r + c;
        if total <= 0.0 {
            (0.0, 0.0, 0.0)
        } else {
            (d / total, r / total, c / total)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_wall() {
        let m = ReplayMetrics::default();
        assert_eq!(m.entries_per_sec(), 0.0);
        assert_eq!(m.txns_per_sec(), 0.0);
        assert_eq!(m.breakdown(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn breakdown_normalizes() {
        let m = ReplayMetrics {
            dispatch_busy: Duration::from_millis(10),
            replay_busy: Duration::from_millis(80),
            commit_busy: Duration::from_millis(10),
            ..Default::default()
        };
        let (d, r, c) = m.breakdown();
        assert!((d - 0.1).abs() < 1e-9);
        assert!((r - 0.8).abs() < 1e-9);
        assert!((c - 0.1).abs() < 1e-9);
    }

    #[test]
    fn degraded_mode_and_fault_counters() {
        // Delivery faults are counted where the resync loop runs, in the
        // registry's `aets_ingest_*` counters; the faults a replay call
        // reports are the groups it quarantined.
        let mut m = ReplayMetrics::default();
        assert!(!m.degraded());
        m.quarantined_groups.push(2);
        assert!(m.degraded());
        let mut total = ReplayMetrics::default();
        total.absorb(&m);
        assert!(total.degraded(), "absorbing a degraded call keeps its quarantine");
    }

    #[test]
    fn absorb_unions_quarantine_sets() {
        // Absorbing runs that each saw a different quarantined group must
        // keep both; a replace would drop the pre-restart set.
        let mut total =
            ReplayMetrics { quarantined_groups: vec![3, 1], txns: 10, ..Default::default() };
        let run = ReplayMetrics { quarantined_groups: vec![2, 1], txns: 5, ..Default::default() };
        total.absorb(&run);
        assert_eq!(total.quarantined_groups, vec![1, 2, 3], "sorted deduped union");
        assert_eq!(total.txns, 15);
        // Absorbing a healthy run must not clear degraded state.
        total.absorb(&ReplayMetrics::default());
        assert_eq!(total.quarantined_groups, vec![1, 2, 3]);
        assert!(total.degraded());
    }

    #[test]
    fn throughput_is_entries_over_wall() {
        let m = ReplayMetrics {
            entries: 1000,
            txns: 100,
            wall: Duration::from_secs(2),
            ..Default::default()
        };
        assert_eq!(m.entries_per_sec(), 500.0);
        assert_eq!(m.txns_per_sec(), 50.0);
    }
}
