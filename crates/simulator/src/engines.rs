//! Analytic simulation of each replay engine on a virtual clock.
//!
//! For every epoch the simulator computes dispatch, replay, and commit
//! times from the [`CostModel`] and the epoch's per-group profile, then
//! emits visibility curves: per-group `tg_cmt_ts` publications (linear in
//! committed-transaction order within the epoch) and the `global_cmt_ts`
//! high-water mark at epoch completion. The same grouping and
//! thread-allocation code as the real engine drives the AETS variant, so
//! the simulation cannot diverge structurally from the implementation.

use crate::cost::CostModel;
use crate::curve::VisibilityCurve;
use crate::profile::EpochProfile;
use aets_common::GroupId;
use aets_replay::{allocate_threads, TableGrouping, UrgencyMode};

/// AETS-variant knobs (also covers the TPLR baseline: single group, one
/// stage).
#[derive(Debug, Clone)]
pub struct SimAetsConfig {
    /// Two-stage (hot-first) replay.
    pub two_stage: bool,
    /// Urgency mode for thread allocation.
    pub urgency: UrgencyMode,
    /// Adaptive allocation (λ·n weights) vs even split.
    pub adaptive: bool,
}

impl Default for SimAetsConfig {
    fn default() -> Self {
        Self { two_stage: true, urgency: UrgencyMode::Log, adaptive: true }
    }
}

/// Which engine to simulate.
#[derive(Debug, Clone)]
pub enum SimEngineKind {
    /// AETS / TPLR (two-phase replay over a grouping).
    TwoPhase(SimAetsConfig),
    /// ATR baseline.
    Atr,
    /// C5 baseline with its snapshot publication period (µs).
    C5 {
        /// Snapshot publication period in microseconds (paper: 5 ms).
        snapshot_interval_us: u64,
    },
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Engine variant.
    pub kind: SimEngineKind,
    /// Replay worker threads `T`.
    pub threads: usize,
    /// Cost model.
    pub cost: CostModel,
}

/// Result of one simulated replay run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Engine label.
    pub name: &'static str,
    /// Per-group visibility curves (one per grouping group; a single
    /// curve for ATR/C5).
    pub group_curves: Vec<VisibilityCurve>,
    /// Global commit high-water curve.
    pub global_curve: VisibilityCurve,
    /// Virtual wall time at which the last epoch finished (µs).
    pub wall_us: u64,
    /// Total entries replayed.
    pub entries: u64,
    /// Total transactions replayed.
    pub txns: usize,
    /// Busy-time totals (µs) for the Table II breakdown.
    pub dispatch_busy: f64,
    /// Aggregate replay (phase-1/apply) busy time, µs.
    pub replay_busy: f64,
    /// Aggregate commit busy time, µs.
    pub commit_busy: f64,
    /// Total virtual wall time spent in stage 1 (hot groups).
    pub stage1_wall: f64,
    /// Total virtual wall time spent in stage 2 (cold groups).
    pub stage2_wall: f64,
}

impl SimOutcome {
    /// Replay throughput in entries per virtual second.
    pub fn entries_per_sec(&self) -> f64 {
        if self.wall_us == 0 {
            0.0
        } else {
            self.entries as f64 / (self.wall_us as f64 / 1e6)
        }
    }

    /// Table II breakdown fractions (dispatch, replay, commit).
    pub fn breakdown(&self) -> (f64, f64, f64) {
        let total = self.dispatch_busy + self.replay_busy + self.commit_busy;
        if total <= 0.0 {
            (0.0, 0.0, 0.0)
        } else {
            (self.dispatch_busy / total, self.replay_busy / total, self.commit_busy / total)
        }
    }
}

/// Per-epoch group access rates (e.g. predicted by DTGM). Receives the
/// epoch index; returns one rate per group.
pub type SimRateFn<'a> = &'a dyn Fn(usize) -> Vec<f64>;

/// Simulates `cfg.kind` over `profiles`. `grouping` must be the grouping
/// the profiles were built with; `rates_fn` optionally overrides the
/// grouping's static rates per epoch.
pub fn simulate(
    profiles: &[EpochProfile],
    grouping: &TableGrouping,
    cfg: &SimConfig,
    rates_fn: Option<SimRateFn<'_>>,
) -> SimOutcome {
    match &cfg.kind {
        SimEngineKind::TwoPhase(ac) => simulate_two_phase(profiles, grouping, cfg, ac, rates_fn),
        SimEngineKind::Atr => simulate_atr(profiles, cfg),
        SimEngineKind::C5 { snapshot_interval_us } => {
            simulate_c5(profiles, cfg, *snapshot_interval_us)
        }
    }
}

fn simulate_two_phase(
    profiles: &[EpochProfile],
    grouping: &TableGrouping,
    cfg: &SimConfig,
    ac: &SimAetsConfig,
    rates_fn: Option<SimRateFn<'_>>,
) -> SimOutcome {
    assert!(cfg.threads > 0);
    let ng = grouping.num_groups();
    let name = if ng == 1 && !ac.two_stage { "tplr" } else { "aets" };
    let c = &cfg.cost;
    let mut out = SimOutcome {
        name,
        group_curves: vec![VisibilityCurve::new(); ng],
        global_curve: VisibilityCurve::new(),
        wall_us: 0,
        entries: 0,
        txns: 0,
        dispatch_busy: 0.0,
        replay_busy: 0.0,
        commit_busy: 0.0,
        stage1_wall: 0.0,
        stage2_wall: 0.0,
    };
    let mut clock = 0f64;
    // Virtual clock of a dispatcher that scans epochs serially, ahead of
    // the replay loop, so dispatch only sits on the critical path when
    // replay catches up with it. The real engine's multi-epoch call
    // dispatches epoch e+1 on the crew member that e's last stage leaves
    // idle and translates e+1's first stage there too; the model keeps
    // a free dispatcher and no translation ahead.
    let mut dispatch_clock = 0f64;

    for (eidx, p) in profiles.iter().enumerate() {
        assert_eq!(p.groups.len(), ng, "profile grouping mismatch");
        let dispatch = p.entries as f64 * c.meta_parse;
        out.dispatch_busy += dispatch;
        // Dispatch of this epoch started as soon as it arrived and the
        // dispatcher was free; replay starts once both the previous
        // epoch's replay and this epoch's dispatch are done. In steady
        // state the scan of e+1 hides behind the replay of e.
        dispatch_clock = dispatch_clock.max(p.arrival.as_micros() as f64) + dispatch;
        let mut t = clock.max(dispatch_clock);

        let rates: Vec<f64> = match rates_fn {
            Some(f) => f(eidx),
            None => (0..ng as u32).map(|g| grouping.rate(GroupId::new(g))).collect(),
        };

        let stages: Vec<Vec<GroupId>> = if ac.two_stage {
            vec![grouping.hot_groups(), grouping.cold_groups()]
        } else {
            vec![(0..ng as u32).map(GroupId::new).collect()]
        };

        for (sidx, stage) in stages.iter().enumerate() {
            let work: Vec<GroupId> =
                stage.iter().copied().filter(|g| !p.group(*g).txns.is_empty()).collect();
            if work.is_empty() {
                continue;
            }
            // Allocate the full thread budget across this stage's groups.
            let mut pending = vec![0u64; ng];
            for g in &work {
                // +1 so heartbeat-only groups still register as working.
                pending[g.index()] = p.group(*g).bytes + 1;
            }
            let alloc = if ac.adaptive {
                allocate_threads(cfg.threads, &pending, &rates, ac.urgency)
                    .expect("allocation inputs are valid")
            } else {
                let share = (cfg.threads / work.len()).max(1);
                let mut a = vec![0usize; ng];
                for g in &work {
                    a[g.index()] = share;
                }
                a
            };
            let queues = work.len() as f64;
            let contention = c.queue_contention_per_thread * cfg.threads as f64 / queues;

            let stage_start = t;
            // A group whose queue is empty this epoch is trivially
            // current the moment dispatch finishes (the dispatcher's
            // dummy-log mechanism, Section V-B).
            for g in stage {
                if p.group(*g).txns.is_empty() {
                    out.group_curves[g.index()].push(stage_start as u64, p.max_commit_ts);
                }
            }
            // Total-capacity bound: with fewer threads than groups the
            // stage cannot beat its aggregate phase-1 work over T threads.
            let total_phase1: f64 =
                work.iter().map(|g| p.group(*g).entries as f64 * (c.translate + contention)).sum();
            let capacity_floor = total_phase1 / cfg.threads as f64;
            let mut stage_time = capacity_floor;
            for g in &work {
                let gp = p.group(*g);
                let t_g = alloc[g.index()].max(1) as f64;
                let phase1 = gp.entries as f64 * (c.translate + contention) / t_g;
                let commit = gp.entries as f64 * c.append + gp.txns.len() as f64 * c.commit_txn;
                let gtime = phase1.max(commit);
                out.replay_busy += gp.entries as f64 * (c.translate + contention);
                out.commit_busy += commit;
                // Commits progress linearly through the group's queue on
                // its dedicated threads.
                let n = gp.txns.len() as f64;
                for (k, slice) in gp.txns.iter().enumerate() {
                    let wall = stage_start + gtime * (k as f64 + 1.0) / n;
                    out.group_curves[g.index()].push(wall as u64, slice.commit_ts);
                }
                stage_time = stage_time.max(gtime);
            }
            // One coordination cost per stage (thread handoff, barriers).
            let stage_end = stage_start + stage_time + c.stage_setup;
            // Stage barrier: every group of the stage is now complete up
            // to the epoch high-water mark.
            for g in stage {
                out.group_curves[g.index()].push(stage_end as u64, p.max_commit_ts);
            }
            if ac.two_stage && sidx == 0 {
                out.stage1_wall += stage_time;
            } else {
                out.stage2_wall += stage_time;
            }
            t = stage_end;
        }

        out.global_curve.push(t as u64, p.max_commit_ts);
        clock = t;
        out.entries += p.entries;
        out.txns += p.txn_count;
    }
    out.wall_us = clock as u64;
    out
}

fn simulate_atr(profiles: &[EpochProfile], cfg: &SimConfig) -> SimOutcome {
    let c = &cfg.cost;
    let t_threads = cfg.threads as f64;
    let mut out = SimOutcome {
        name: "atr",
        group_curves: vec![VisibilityCurve::new()],
        global_curve: VisibilityCurve::new(),
        wall_us: 0,
        entries: 0,
        txns: 0,
        dispatch_busy: 0.0,
        replay_busy: 0.0,
        commit_busy: 0.0,
        stage1_wall: 0.0,
        stage2_wall: 0.0,
    };
    let mut clock = 0f64;
    for p in profiles {
        assert_eq!(p.groups.len(), 1, "ATR profiles must use the single grouping");
        let start = clock.max(p.arrival.as_micros() as f64);
        let entries = p.entries as f64;
        let dispatch = entries * c.meta_parse;
        // Replay: per-entry work divided over threads, plus the
        // operation-sequence synchronization penalty that grows with the
        // thread count.
        let replay =
            entries * c.atr_entry / t_threads + entries * c.atr_sync_per_thread * t_threads;
        let commit = p.txn_count as f64 * c.commit_txn;
        // Dispatch precedes replay (the real engine meta-scans the epoch
        // before spawning workers); replay and the publisher overlap.
        let body = dispatch + replay.max(commit) + c.stage_setup;
        out.dispatch_busy += dispatch;
        out.replay_busy += entries * (c.atr_entry + c.atr_sync_per_thread * t_threads * t_threads);
        out.commit_busy += commit;

        let gp = &p.groups[0];
        let n = gp.txns.len() as f64;
        for (k, slice) in gp.txns.iter().enumerate() {
            let wall = start + dispatch + (body - dispatch) * (k as f64 + 1.0) / n;
            out.group_curves[0].push(wall as u64, slice.commit_ts);
        }
        let end = start + body;
        out.group_curves[0].push(end as u64, p.max_commit_ts);
        out.global_curve.push(end as u64, p.max_commit_ts);
        clock = end;
        out.entries += p.entries;
        out.txns += p.txn_count;
    }
    out.wall_us = clock as u64;
    out
}

fn simulate_c5(
    profiles: &[EpochProfile],
    cfg: &SimConfig,
    snapshot_interval_us: u64,
) -> SimOutcome {
    let c = &cfg.cost;
    let t_threads = cfg.threads as f64;
    let mut out = SimOutcome {
        name: "c5",
        group_curves: vec![VisibilityCurve::new()],
        global_curve: VisibilityCurve::new(),
        wall_us: 0,
        entries: 0,
        txns: 0,
        dispatch_busy: 0.0,
        replay_busy: 0.0,
        commit_busy: 0.0,
        stage1_wall: 0.0,
        stage2_wall: 0.0,
    };
    let mut clock = 0f64;
    for p in profiles {
        assert_eq!(p.groups.len(), 1, "C5 profiles must use the single grouping");
        let start = clock.max(p.arrival.as_micros() as f64);
        let entries = p.entries as f64;
        // Routing is the serial floor; full-image parsing + apply is
        // worker work.
        let dispatch = entries * c.c5_route;
        let replay = entries * c.c5_entry / t_threads;
        let body = replay.max(dispatch) + c.stage_setup;
        out.dispatch_busy += dispatch;
        out.replay_busy += entries * c.c5_entry;
        out.commit_busy += (body / snapshot_interval_us.max(1) as f64).ceil() * 1.0;

        // Snapshot publications every `snapshot_interval_us` of progress.
        let gp = &p.groups[0];
        let n = gp.txns.len();
        let mut tick = snapshot_interval_us as f64;
        while tick < body && n > 0 {
            let frac = tick / body;
            let idx = ((frac * n as f64) as usize).min(n - 1);
            out.group_curves[0].push((start + tick) as u64, gp.txns[idx].commit_ts);
            tick += snapshot_interval_us as f64;
        }
        let end = start + body;
        out.group_curves[0].push(end as u64, p.max_commit_ts);
        out.global_curve.push(end as u64, p.max_commit_ts);
        clock = end;
        out.entries += p.entries;
        out.txns += p.txn_count;
    }
    out.wall_us = clock as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_epochs;
    use aets_common::FxHashSet;
    use aets_workloads::tpcc::{self, TpccConfig};

    fn workload() -> aets_workloads::Workload {
        tpcc::generate(&TpccConfig { num_txns: 4000, warehouses: 2, ..Default::default() })
    }

    fn paper_grouping(w: &aets_workloads::Workload) -> TableGrouping {
        let (groups, rates) = tpcc::paper_grouping();
        TableGrouping::new(w.table_names.len(), groups, rates, &w.analytic_tables).unwrap()
    }

    fn sim(
        w: &aets_workloads::Workload,
        kind: SimEngineKind,
        grouped: bool,
        threads: usize,
    ) -> SimOutcome {
        let grouping = if grouped {
            paper_grouping(w)
        } else {
            TableGrouping::single(w.table_names.len(), &w.analytic_tables)
        };
        let profiles = profile_epochs(&w.txns, 2048, &grouping, 500, false);
        simulate(
            &profiles,
            &grouping,
            &SimConfig { kind, threads, cost: CostModel::default() },
            None,
        )
    }

    fn aets_kind() -> SimEngineKind {
        SimEngineKind::TwoPhase(SimAetsConfig::default())
    }

    fn tplr_kind() -> SimEngineKind {
        SimEngineKind::TwoPhase(SimAetsConfig {
            two_stage: false,
            adaptive: false,
            ..Default::default()
        })
    }

    #[test]
    fn engines_preserve_totals() {
        let w = workload();
        let total: usize = w.txns.iter().map(|t| t.entries.len()).sum();
        for (kind, grouped) in [
            (aets_kind(), true),
            (tplr_kind(), false),
            (SimEngineKind::Atr, false),
            (SimEngineKind::C5 { snapshot_interval_us: 5000 }, false),
        ] {
            let o = sim(&w, kind, grouped, 32);
            assert_eq!(o.entries as usize, total);
            assert_eq!(o.txns, w.txns.len());
            assert!(o.wall_us > 0);
            assert_eq!(o.global_curve.final_ts(), w.txns.last().unwrap().commit_ts);
        }
    }

    #[test]
    fn paper_ordering_at_32_threads() {
        // Figure 8a: AETS > TPLR > {ATR ~ C5} in replay throughput.
        let w = workload();
        let aets = sim(&w, aets_kind(), true, 32).entries_per_sec();
        let tplr = sim(&w, tplr_kind(), false, 32).entries_per_sec();
        let atr = sim(&w, SimEngineKind::Atr, false, 32).entries_per_sec();
        let c5 =
            sim(&w, SimEngineKind::C5 { snapshot_interval_us: 5000 }, false, 32).entries_per_sec();
        assert!(aets > tplr, "AETS {aets} should beat TPLR {tplr}");
        assert!(tplr > atr, "TPLR {tplr} should beat ATR {atr}");
        let ratio = aets / atr;
        assert!((1.05..=1.6).contains(&ratio), "AETS/ATR ratio {ratio} should be ~1.2x");
        let c5_atr = c5 / atr;
        assert!(
            (0.7..=1.3).contains(&c5_atr),
            "C5 and ATR should be comparable at 32 threads, got {c5_atr}"
        );
    }

    #[test]
    fn atr_scalability_flattens_c5_overtakes() {
        // Figure 11 shape: ATR's gain shrinks past 16 threads; C5 passes
        // ATR somewhere beyond 32 threads.
        let w = workload();
        let atr = |t| sim(&w, SimEngineKind::Atr, false, t).entries_per_sec();
        let c5 = |t| {
            sim(&w, SimEngineKind::C5 { snapshot_interval_us: 5000 }, false, t).entries_per_sec()
        };
        let gain_8_16 = atr(16) / atr(8);
        let gain_32_64 = atr(64) / atr(32);
        assert!(gain_8_16 > gain_32_64, "ATR gains must diminish: {gain_8_16} vs {gain_32_64}");
        assert!(c5(16) < atr(16), "C5 below ATR at 16 threads");
        assert!(c5(64) > atr(64), "C5 above ATR at 64 threads");
    }

    #[test]
    fn aets_scales_through_64_threads() {
        let w = workload();
        let t32 = sim(&w, aets_kind(), true, 32).entries_per_sec();
        let t64 = sim(&w, aets_kind(), true, 64).entries_per_sec();
        assert!(t64 > t32 * 1.2, "AETS should keep scaling: {t32} -> {t64}");
    }

    #[test]
    fn breakdown_is_replay_dominated() {
        // Table II: dispatch ~1 %, replay >= 98 %, commit < 1 %.
        let w = workload();
        let o = sim(&w, aets_kind(), true, 32);
        let (d, r, c) = o.breakdown();
        assert!(d < 0.05, "dispatch share {d}");
        assert!(r > 0.90, "replay share {r}");
        assert!(c < 0.05, "commit share {c}");
    }

    #[test]
    fn two_stage_publishes_hot_groups_early() {
        let w = workload();
        let grouping = paper_grouping(&w);
        let profiles = profile_epochs(&w.txns, 2048, &grouping, 500, false);
        let o = simulate(
            &profiles,
            &grouping,
            &SimConfig { kind: aets_kind(), threads: 32, cost: CostModel::default() },
            None,
        );
        // The hot groups must reach the first epoch's high-water mark
        // strictly earlier than the cold groups.
        let first_epoch_ts = profiles[0].max_commit_ts;
        let hot_wall: u64 = grouping
            .hot_groups()
            .iter()
            .map(|g| o.group_curves[g.index()].first_time_reaching(first_epoch_ts).unwrap())
            .max()
            .unwrap();
        let cold_wall: u64 = grouping
            .cold_groups()
            .iter()
            .map(|g| o.group_curves[g.index()].first_time_reaching(first_epoch_ts).unwrap())
            .max()
            .unwrap();
        assert!(
            hot_wall < cold_wall,
            "hot groups ({hot_wall}) must be visible before cold ({cold_wall})"
        );
    }

    #[test]
    fn c5_visibility_is_quantized() {
        let w = workload();
        let grouping = TableGrouping::single(w.table_names.len(), &FxHashSet::default());
        let profiles = profile_epochs(&w.txns, 4000, &grouping, 500, false);
        let o = simulate(
            &profiles,
            &grouping,
            &SimConfig {
                kind: SimEngineKind::C5 { snapshot_interval_us: 5000 },
                threads: 4,
                cost: CostModel::default(),
            },
            None,
        );
        // Far fewer publication points than transactions.
        assert!(o.group_curves[0].len() < w.txns.len() / 2);
    }
}
