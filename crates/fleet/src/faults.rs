//! Deterministic fleet-level fault injection.
//!
//! The WAL-level [`aets_wal::FaultInjector`] corrupts *deliveries*; this
//! plan breaks *shards*: whole-process crashes, wedged (hung) nodes,
//! lost heartbeats, and stale watermark reports. Faults are drawn from
//! the same `splitmix64` generator, keyed by `(seed, shard, tick)`, so a
//! chaos run is a pure function of its seed — every crash, every missed
//! heartbeat, every failover lands on the same tick on every machine.

use aets_common::{splitmix64, unit_f64};

/// A fleet-level fault kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetFaultKind {
    /// The shard process dies: in-memory state is dropped; the WAL and
    /// checkpoint directories survive for the failover bootstrap.
    ShardCrash,
    /// The shard wedges for a few ticks: it stops ingesting and
    /// heartbeating but its memory survives. If it stays wedged past the
    /// failover threshold the supervisor replaces it anyway.
    ShardHang,
    /// The heartbeat is lost in transit this tick: the shard is healthy
    /// but the coordinator counts a miss.
    HeartbeatLoss,
    /// The heartbeat arrives but reports the *previous* watermark — the
    /// report is stale, never wrong. Tests that the fleet watermark only
    /// lags, never overshoots.
    DelayedWatermark,
}

/// A deterministic schedule of fleet faults.
#[derive(Debug, Clone)]
pub struct FleetFaultPlan {
    /// Seed for the per-(shard, tick) draw.
    pub seed: u64,
    /// Probability that a given (shard, tick) draws a fault.
    pub rate: f64,
    /// Kinds to draw from (uniformly). Empty disables all faults.
    pub kinds: Vec<FleetFaultKind>,
    /// Hang durations are drawn from `1..=max_hang_ticks`.
    pub max_hang_ticks: u64,
}

impl FleetFaultPlan {
    /// A plan over all four kinds.
    pub fn new(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            rate,
            kinds: vec![
                FleetFaultKind::ShardCrash,
                FleetFaultKind::ShardHang,
                FleetFaultKind::HeartbeatLoss,
                FleetFaultKind::DelayedWatermark,
            ],
            max_hang_ticks: 3,
        }
    }

    /// Restricts the plan to `kinds`.
    pub fn kinds(mut self, kinds: Vec<FleetFaultKind>) -> Self {
        self.kinds = kinds;
        self
    }

    fn draw(&self, shard: usize, tick: u64, salt: u64) -> u64 {
        // Two rounds decorrelate the low bits of neighbouring
        // (shard, tick) pairs; the salt separates the fault/duration
        // draws at the same coordinate.
        splitmix64(
            self.seed
                ^ splitmix64(
                    tick.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((shard as u64) << 32) ^ salt,
                ),
        )
    }

    /// The fault (if any) injected at `(shard, tick)`.
    pub fn fault_at(&self, shard: usize, tick: u64) -> Option<FleetFaultKind> {
        if self.kinds.is_empty() || self.rate <= 0.0 {
            return None;
        }
        if unit_f64(self.draw(shard, tick, 0)) >= self.rate {
            return None;
        }
        let pick = self.draw(shard, tick, 1) as usize % self.kinds.len();
        Some(self.kinds[pick])
    }

    /// Hang duration for a [`FleetFaultKind::ShardHang`] at `(shard, tick)`.
    pub fn hang_ticks(&self, shard: usize, tick: u64) -> u64 {
        1 + self.draw(shard, tick, 2) % self.max_hang_ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let a = FleetFaultPlan::new(42, 0.3);
        let b = FleetFaultPlan::new(42, 0.3);
        let c = FleetFaultPlan::new(43, 0.3);
        let sched = |p: &FleetFaultPlan| {
            (0..4)
                .flat_map(|s| (0..200u64).map(move |t| (s, t)))
                .map(|(s, t)| p.fault_at(s, t))
                .collect::<Vec<_>>()
        };
        assert_eq!(sched(&a), sched(&b));
        assert_ne!(sched(&a), sched(&c), "different seed, different schedule");
    }

    #[test]
    fn rate_bounds_fault_frequency() {
        let p = FleetFaultPlan::new(7, 0.2);
        let hits = (0..10_000u64).filter(|&t| p.fault_at(0, t).is_some()).count();
        assert!((1_500..2_500).contains(&hits), "~20% expected, got {hits}");
        assert!(FleetFaultPlan::new(7, 0.0).fault_at(0, 3).is_none());
        let none = FleetFaultPlan::new(7, 1.0).kinds(vec![]);
        assert!(none.fault_at(0, 3).is_none(), "no kinds, no faults");
    }

    #[test]
    fn hang_ticks_respects_bound() {
        let p = FleetFaultPlan { max_hang_ticks: 4, ..FleetFaultPlan::new(9, 1.0) };
        for t in 0..500 {
            let h = p.hang_ticks(1, t);
            assert!((1..=4).contains(&h));
        }
    }
}
