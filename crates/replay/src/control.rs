//! The adaptive control loop (Sections IV-A/IV-B, closed live).
//!
//! Offline, the paper's pipeline is: observe table access rates →
//! forecast the next interval → DBSCAN-group tables by predicted rate →
//! solve `λ_gi · n_gi / t_gi = const` for the thread split. This module
//! runs that pipeline *online* against a replaying engine:
//!
//! 1. every `epoch_window` epochs, [`AdaptiveController::on_epoch`]
//!    samples the cumulative `aets_table_access_total` counters out of
//!    the shared telemetry registry and diffs them into per-window
//!    access rates ([`aets_forecast::RateTracker`]);
//! 2. the configured [`ForecastModel`] predicts the next window's rates;
//! 3. tables above `hot_min_rate` form the predicted hot set — when it
//!    shifts, [`plan_grouping`] re-clusters the tables (count-preserving
//!    DBSCAN) and the controller queues a [`Reconfigure::Regroup`];
//! 4. otherwise, if predicted rates drifted past `resplit_threshold`,
//!    the controller re-solves the thread split with the paper's
//!    allocator and queues a [`Reconfigure::SetThreadSplit`] pin.
//!
//! Commands land through the engine's [`ReconfigureHandle`] and take
//! effect at the next epoch boundary (the drain-move-resume point — see
//! the handle's docs). The controller is deliberately passive: it owns
//! no thread; the serving loop (`BackupNode::replay`,
//! `DurableBackup::ingest`) ticks it once per replayed epoch.

use crate::allocate_threads;
use crate::engines::aets::{Reconfigure, ReconfigureHandle};
use crate::grouping::TableGrouping;
use aets_common::{Error, FxHashSet, Result, TableId};
use aets_forecast::{ForecastModel, RateTracker};
use aets_telemetry::{names, table_label, Counter, Gauge, Histogram, Telemetry};
use std::sync::Arc;
use std::time::Instant;

/// Tuning knobs of the adaptive control loop.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Epochs per control window: how often the registry is sampled and
    /// a new plan considered.
    pub epoch_window: usize,
    /// Complete rate windows observed before the first plan (the
    /// forecaster needs history; planning off one noisy window thrashes).
    pub min_history: usize,
    /// The online forecasting model.
    pub model: ForecastModel,
    /// Predicted accesses/sec above which a table is considered hot
    /// (enters a stage-1 group).
    pub hot_min_rate: f64,
    /// Relative per-group rate drift (vs the last planned rates) that
    /// triggers a re-split without a regroup.
    pub resplit_threshold: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            epoch_window: 4,
            min_history: 2,
            model: ForecastModel::default(),
            hot_min_rate: 1.0,
            resplit_threshold: 0.25,
        }
    }
}

/// Relative rate distance of the DBSCAN re-clustering a regroup plans
/// with.
const REGROUP_EPS: f64 = 0.3;

/// Telemetry handles of the control loop, cached at construction like
/// the engine's.
#[derive(Debug)]
struct ControllerStats {
    windows: Counter,
    plan_us: Histogram,
    hot_tables: Gauge,
}

/// The live forecast-driven controller. See the module docs for the
/// loop it closes; one instance drives one engine.
#[derive(Debug)]
pub struct AdaptiveController {
    cfg: ControllerConfig,
    handle: ReconfigureHandle,
    telemetry: Arc<Telemetry>,
    grouping: Arc<TableGrouping>,
    tracker: RateTracker,
    stats: ControllerStats,
    epochs_seen: usize,
    /// Monotone count of complete rate windows (the tracker's history is
    /// bounded, so its length alone undercounts long runs).
    windows_seen: usize,
    last_sample: Instant,
    /// Hot set of the last plan (None until the first plan).
    planned_hot: Option<FxHashSet<TableId>>,
    /// Per-group predicted rates the last split was solved against.
    planned_group_rates: Option<Vec<f64>>,
}

impl AdaptiveController {
    /// Builds a controller for an engine: `handle` from
    /// [`crate::ReplayEngine::reconfigure`] (it carries the engine's
    /// thread count and urgency mode, which every split is solved over),
    /// `grouping` the engine's current grouping, `telemetry` the instance
    /// whose registry the serving layer records `aets_table_access_total`
    /// into (it must be the engine's, or the counters never move).
    pub fn new(
        cfg: ControllerConfig,
        handle: ReconfigureHandle,
        grouping: Arc<TableGrouping>,
        telemetry: Arc<Telemetry>,
    ) -> Result<Self> {
        if cfg.epoch_window == 0 {
            return Err(Error::Config("epoch_window must be positive".into()));
        }
        let history = match &cfg.model {
            ForecastModel::Ha { window } => (*window).max(cfg.min_history).max(1),
            ForecastModel::Naive => cfg.min_history.max(1),
        };
        let tracker = RateTracker::new(grouping.num_tables(), history);
        let reg = telemetry.registry();
        let stats = ControllerStats {
            windows: reg.counter(names::ADAPT_WINDOWS),
            plan_us: reg.histogram(names::ADAPT_PLAN_US),
            hot_tables: reg.gauge(names::ADAPT_HOT_TABLES),
        };
        Ok(Self {
            cfg,
            handle,
            grouping,
            telemetry,
            tracker,
            stats,
            epochs_seen: 0,
            windows_seen: 0,
            last_sample: Instant::now(),
            planned_hot: None,
            planned_group_rates: None,
        })
    }

    /// Complete control windows observed so far.
    pub fn windows_observed(&self) -> usize {
        self.windows_seen
    }

    /// Ticks the loop after one replayed epoch. Cheap off-window (one
    /// increment); on-window it samples the registry, forecasts, and may
    /// queue reconfiguration commands. Errors are planning errors (e.g.
    /// a degenerate clustering) — the engine keeps replaying under its
    /// current plan regardless.
    pub fn on_epoch(&mut self) -> Result<()> {
        self.epochs_seen += 1;
        if !self.epochs_seen.is_multiple_of(self.cfg.epoch_window) {
            return Ok(());
        }
        let elapsed = self.last_sample.elapsed();
        self.last_sample = Instant::now();
        let snap = self.telemetry.snapshot();
        let counts: Vec<u64> = (0..self.grouping.num_tables())
            .map(|t| snap.counter(names::TABLE_ACCESS, &table_label(t)).unwrap_or(0))
            .collect();
        self.stats.windows.inc();
        if self.tracker.observe(&counts, elapsed)?.is_none() {
            return Ok(());
        }
        self.windows_seen += 1;
        if self.tracker.len() < self.cfg.min_history {
            return Ok(());
        }
        let Some(predicted) = self.tracker.forecast(&self.cfg.model)? else {
            return Ok(());
        };
        let t_plan = Instant::now();
        let out = self.plan(&predicted);
        self.stats.plan_us.record_micros(t_plan.elapsed().as_micros() as u64);
        out
    }

    /// Considers one plan against the predicted per-table rates.
    fn plan(&mut self, predicted: &[f64]) -> Result<()> {
        let hot: FxHashSet<TableId> = (0..predicted.len())
            .filter(|&t| predicted[t] >= self.cfg.hot_min_rate)
            .map(|t| TableId::new(t as u32))
            .collect();
        self.stats.hot_tables.set(hot.len() as u64);
        if predicted.iter().all(|r| *r <= 0.0) {
            // Nothing observed this window (idle stream): keep the plan.
            return Ok(());
        }

        let hot_shifted = self.planned_hot.as_ref() != Some(&hot);
        if hot_shifted {
            let next = plan_grouping(
                self.grouping.num_tables(),
                self.grouping.num_groups(),
                &hot,
                predicted,
                REGROUP_EPS,
            )?;
            let next = Arc::new(next);
            let group_rates = group_rates(&next, predicted);
            self.handle.send(Reconfigure::Regroup((*next).clone()))?;
            let split = self.solve_split(&group_rates)?;
            self.handle.send(Reconfigure::SetThreadSplit(split))?;
            self.grouping = next;
            self.planned_hot = Some(hot);
            self.planned_group_rates = Some(group_rates);
            return Ok(());
        }

        let rates = group_rates(&self.grouping, predicted);
        let drifted = match &self.planned_group_rates {
            None => true,
            Some(prev) => rates.iter().zip(prev).any(|(now, before)| {
                (now - before).abs() / before.max(1e-9) > self.cfg.resplit_threshold
            }),
        };
        if drifted {
            let split = self.solve_split(&rates)?;
            self.handle.send(Reconfigure::SetThreadSplit(split))?;
            self.planned_hot = Some(hot);
            self.planned_group_rates = Some(rates);
        }
        Ok(())
    }

    /// Solves the paper's `λ·n` split over predicted group rates. Volume
    /// is not yet known for the *next* window, so unit volumes make the
    /// weights pure `λ` (rate × urgency) — exactly the term the pin is
    /// meant to fix between windows. Solved over the engine's own crew
    /// size and urgency mode, so the pin always adds up to its threads.
    fn solve_split(&self, rates: &[f64]) -> Result<Vec<usize>> {
        let (threads, urgency) = self.handle.split_basis();
        allocate_threads(threads, &vec![1u64; rates.len()], rates, urgency)
    }
}

/// Sums predicted per-table rates into per-group rates under `grouping`.
fn group_rates(grouping: &TableGrouping, predicted: &[f64]) -> Vec<f64> {
    let mut rates = vec![0.0f64; grouping.num_groups()];
    for (t, r) in predicted.iter().enumerate() {
        rates[grouping.group_of(TableId::new(t as u32)).index()] += *r;
    }
    rates
}

/// Count-preserving DBSCAN regrouping: clusters `hot` tables by
/// predicted rate into exactly `num_groups - 1` stage-1 groups plus one
/// cold catch-all (or all `num_groups` among hot tables when nothing is
/// cold). The engine's board, quarantine ledger and cell pools are sized
/// to `num_groups` at construction, so unlike the offline
/// [`TableGrouping::dbscan`] the group count is a hard constraint:
/// natural clusters are merged (nearest means first) or split (at the
/// widest internal rate gap) until the count fits. When fewer hot tables
/// exist than hot slots, the highest-rate cold tables are promoted so no
/// group is empty.
pub fn plan_grouping(
    num_tables: usize,
    num_groups: usize,
    hot_tables: &FxHashSet<TableId>,
    predicted: &[f64],
    eps: f64,
) -> Result<TableGrouping> {
    if predicted.len() != num_tables {
        return Err(Error::Config(format!(
            "{} predicted rates for {num_tables} tables",
            predicted.len()
        )));
    }
    if num_tables < num_groups {
        return Err(Error::Config(format!(
            "cannot split {num_tables} tables into {num_groups} non-empty groups"
        )));
    }
    if let Some(t) = (0..num_tables).find(|&t| predicted[t].is_nan()) {
        return Err(Error::Config(format!("NaN predicted rate for table {t}")));
    }
    let rate_of = |t: TableId| predicted[t.index()];
    if num_groups == 1 {
        return Ok(TableGrouping::single(num_tables, hot_tables));
    }

    // Hot tables sorted descending by predicted rate, cold ascending so
    // promotions pop the hottest cold table.
    let mut hot: Vec<TableId> =
        (0..num_tables as u32).map(TableId::new).filter(|t| hot_tables.contains(t)).collect();
    let mut cold: Vec<TableId> =
        (0..num_tables as u32).map(TableId::new).filter(|t| !hot_tables.contains(t)).collect();
    hot.sort_by(|a, b| rate_of(*b).total_cmp(&rate_of(*a)));
    cold.sort_by(|a, b| rate_of(*a).total_cmp(&rate_of(*b)));

    // Promote the hottest cold tables until every hot slot can be filled
    // (each hot group needs at least one table; one group stays cold
    // while any cold table remains).
    let mut hot_set: FxHashSet<TableId> = hot_tables.clone();
    loop {
        let hot_slots = if cold.is_empty() { num_groups } else { num_groups - 1 };
        if hot.len() >= hot_slots {
            break;
        }
        let t = cold
            .pop()
            .ok_or_else(|| Error::Config("not enough tables to fill every group".into()))?;
        hot_set.insert(t);
        hot.push(t);
        hot.sort_by(|a, b| rate_of(*b).total_cmp(&rate_of(*a)));
    }
    let hot_slots = if cold.is_empty() { num_groups } else { num_groups - 1 };

    // Natural clusters over ascending log rates, then merge/split to the
    // exact slot count.
    hot.sort_by(|a, b| rate_of(*a).total_cmp(&rate_of(*b)));
    let logs: Vec<f64> = hot.iter().map(|t| rate_of(*t).max(0.0).ln_1p()).collect();
    let labels = crate::grouping::dbscan_1d(&logs, eps, 1);
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    for (i, l) in labels.iter().enumerate() {
        match l {
            Some(l) => {
                while clusters.len() <= *l {
                    clusters.push(Vec::new());
                }
                clusters[*l].push(i);
            }
            None => clusters.push(vec![i]),
        }
    }
    clusters.retain(|c| !c.is_empty());
    // The input is sorted, so each cluster is a contiguous ascending run;
    // order clusters by their first member to keep adjacency meaningful.
    clusters.sort_by_key(|c| c[0]);

    // Merge nearest-mean adjacent clusters down to the slot count.
    while clusters.len() > hot_slots {
        let mean = |c: &[usize]| c.iter().map(|&i| logs[i]).sum::<f64>() / c.len() as f64;
        let (at, _) = clusters
            .windows(2)
            .enumerate()
            .map(|(i, w)| (i, mean(&w[1]) - mean(&w[0])))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .ok_or_else(|| Error::Replay("merge step on a single cluster".into()))?;
        let tail = clusters.remove(at + 1);
        clusters[at].extend(tail);
    }
    // Split at the widest internal gap up to the slot count.
    while clusters.len() < hot_slots {
        let mut best: Option<(usize, usize, f64)> = None; // (cluster, cut, gap)
        for (ci, c) in clusters.iter().enumerate() {
            for cut in 1..c.len() {
                let gap = logs[c[cut]] - logs[c[cut - 1]];
                if best.is_none_or(|(_, _, g)| gap > g) {
                    best = Some((ci, cut, gap));
                }
            }
        }
        let (ci, cut, _) =
            best.ok_or_else(|| Error::Replay("no splittable cluster left".into()))?;
        let tail = clusters[ci].split_off(cut);
        clusters.insert(ci + 1, tail);
    }

    let mut groups: Vec<Vec<TableId>> =
        clusters.iter().map(|c| c.iter().map(|&i| hot[i]).collect::<Vec<_>>()).collect();
    let mut rates: Vec<f64> = groups
        .iter()
        .map(|g| g.iter().map(|t| rate_of(*t)).sum::<f64>() / g.len() as f64)
        .collect();
    if !cold.is_empty() {
        rates.push(cold.iter().map(|t| rate_of(*t)).sum::<f64>() / cold.len() as f64);
        groups.push(cold);
    }
    TableGrouping::new(num_tables, groups, rates, &hot_set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::aets::{AetsConfig, AetsEngine};
    use crate::engines::ReplayEngine;
    use aets_telemetry::Telemetry;
    use std::time::Duration;

    fn hs(tables: &[u32]) -> FxHashSet<TableId> {
        tables.iter().copied().map(TableId::new).collect()
    }

    fn check_partition(g: &TableGrouping, num_tables: usize, num_groups: usize) {
        assert_eq!(g.num_groups(), num_groups);
        assert_eq!(g.num_tables(), num_tables);
        for t in 0..num_tables as u32 {
            let gid = g.group_of(TableId::new(t));
            assert!(g.members(gid).contains(&TableId::new(t)));
        }
    }

    #[test]
    fn plan_grouping_preserves_group_count() {
        let rates: Vec<f64> = (0..10).map(|t| if t < 3 { 100.0 + t as f64 } else { 0.1 }).collect();
        for k in 1..=5usize {
            let g = plan_grouping(10, k, &hs(&[0, 1, 2]), &rates, 0.3).unwrap();
            check_partition(&g, 10, k);
        }
    }

    #[test]
    fn hot_tables_land_in_stage1_groups() {
        let mut rates = vec![0.1f64; 8];
        rates[2] = 500.0;
        rates[5] = 40.0;
        let g = plan_grouping(8, 3, &hs(&[2, 5]), &rates, 0.3).unwrap();
        check_partition(&g, 8, 3);
        assert!(g.is_hot(g.group_of(TableId::new(2))));
        assert!(g.is_hot(g.group_of(TableId::new(5))));
        // Widely separated rates must not share a group.
        assert_ne!(g.group_of(TableId::new(2)), g.group_of(TableId::new(5)));
        // The cold catch-all exists and is cold.
        assert_eq!(g.hot_groups().len(), 2);
    }

    #[test]
    fn too_few_hot_tables_promotes_the_hottest_cold_ones() {
        let mut rates = vec![1.0f64; 6];
        rates[0] = 100.0; // the only declared-hot table
        rates[3] = 50.0; // hottest cold table: must be promoted
        let g = plan_grouping(6, 3, &hs(&[0]), &rates, 0.3).unwrap();
        check_partition(&g, 6, 3);
        assert!(g.is_hot(g.group_of(TableId::new(0))));
        assert!(g.is_hot(g.group_of(TableId::new(3))), "promoted table must be stage-1");
    }

    #[test]
    fn empty_hot_set_still_fills_every_group() {
        let rates = vec![2.0f64; 5];
        let g = plan_grouping(5, 3, &FxHashSet::default(), &rates, 0.3).unwrap();
        check_partition(&g, 5, 3);
    }

    #[test]
    fn plan_grouping_rejects_degenerate_inputs() {
        assert!(plan_grouping(2, 3, &FxHashSet::default(), &[1.0, 1.0], 0.3).is_err());
        assert!(plan_grouping(3, 2, &FxHashSet::default(), &[1.0, 1.0], 0.3).is_err());
        assert!(plan_grouping(2, 2, &FxHashSet::default(), &[f64::NAN, 1.0], 0.3).is_err());
    }

    #[test]
    fn controller_regroups_when_the_hot_set_shifts() {
        // 4 tables, 2 groups; the serving layer "records" accesses by
        // bumping the registry counters directly. First the hot mass
        // sits on table 0; then it rotates to table 3 — the controller
        // must queue a regroup moving table 3 into a stage-1 group.
        let telemetry = Arc::new(Telemetry::new());
        let grouping = Arc::new(
            TableGrouping::new(
                4,
                vec![
                    vec![TableId::new(0), TableId::new(1)],
                    vec![TableId::new(2), TableId::new(3)],
                ],
                vec![10.0, 0.1],
                &hs(&[0]),
            )
            .unwrap(),
        );
        let eng = AetsEngine::builder((*grouping).clone())
            .config(AetsConfig { threads: 2, ..Default::default() })
            .telemetry(telemetry.clone())
            .build()
            .unwrap();
        let cfg = ControllerConfig {
            epoch_window: 1,
            min_history: 1,
            model: aets_forecast::ForecastModel::Naive,
            hot_min_rate: 0.5,
            ..Default::default()
        };
        let mut ctl =
            AdaptiveController::new(cfg, eng.reconfigure_handle(), grouping, telemetry.clone())
                .unwrap();
        let reg = telemetry.registry();
        let touch = |t: usize, n: u64| reg.counter_with(names::TABLE_ACCESS, table_label(t)).add(n);

        touch(0, 1000);
        ctl.on_epoch().unwrap(); // baseline sample
        std::thread::sleep(Duration::from_millis(5));
        touch(0, 1000);
        ctl.on_epoch().unwrap(); // first window: hot = {0}
        let after_first = eng.reconfigure_handle().pending();
        std::thread::sleep(Duration::from_millis(5));
        touch(3, 5000);
        ctl.on_epoch().unwrap(); // hot set shifts to include table 3
        assert!(
            eng.reconfigure_handle().pending() > after_first,
            "hot-set shift must queue commands"
        );
        assert!(ctl.windows_observed() >= 2);
    }

    #[test]
    fn controller_resplits_on_rate_drift_without_hot_shift() {
        let telemetry = Arc::new(Telemetry::new());
        let grouping = Arc::new(
            TableGrouping::new(
                2,
                vec![vec![TableId::new(0)], vec![TableId::new(1)]],
                vec![5.0, 5.0],
                &hs(&[0, 1]),
            )
            .unwrap(),
        );
        let eng = AetsEngine::builder((*grouping).clone())
            .config(AetsConfig { threads: 4, ..Default::default() })
            .telemetry(telemetry.clone())
            .build()
            .unwrap();
        let cfg = ControllerConfig {
            epoch_window: 1,
            min_history: 1,
            model: aets_forecast::ForecastModel::Naive,
            hot_min_rate: 0.5,
            resplit_threshold: 0.2,
        };
        let handle = eng.reconfigure_handle();
        let mut ctl =
            AdaptiveController::new(cfg, handle.clone(), grouping, telemetry.clone()).unwrap();
        let reg = telemetry.registry();
        let touch = |t: usize, n: u64| reg.counter_with(names::TABLE_ACCESS, table_label(t)).add(n);

        touch(0, 100);
        touch(1, 100);
        ctl.on_epoch().unwrap(); // baseline
        std::thread::sleep(Duration::from_millis(5));
        touch(0, 100);
        touch(1, 100);
        ctl.on_epoch().unwrap(); // first plan (hot set {0,1}, balanced)
        let before = handle.pending();
        std::thread::sleep(Duration::from_millis(5));
        // Same hot set, but table 0 now dominates: drift > threshold.
        touch(0, 100_000);
        touch(1, 100);
        ctl.on_epoch().unwrap();
        assert!(handle.pending() > before, "rate drift must queue a re-split");
    }

    #[test]
    fn splits_are_solved_over_the_engines_own_thread_count() {
        // Three threads is nobody's default: every split the controller
        // sends must still add up to the crew the engine really has.
        use aets_telemetry::EventKind;
        let telemetry = Arc::new(Telemetry::new());
        let grouping = Arc::new(
            TableGrouping::new(
                2,
                vec![vec![TableId::new(0)], vec![TableId::new(1)]],
                vec![5.0, 5.0],
                &hs(&[0, 1]),
            )
            .unwrap(),
        );
        let eng = AetsEngine::builder((*grouping).clone())
            .config(AetsConfig { threads: 3, ..Default::default() })
            .telemetry(telemetry.clone())
            .build()
            .unwrap();
        let cfg = ControllerConfig {
            epoch_window: 1,
            min_history: 1,
            model: aets_forecast::ForecastModel::Naive,
            hot_min_rate: 0.5,
            ..Default::default()
        };
        let mut ctl =
            AdaptiveController::new(cfg, eng.reconfigure_handle(), grouping, telemetry.clone())
                .unwrap();
        let reg = telemetry.registry();
        let touch = |t: usize, n: u64| reg.counter_with(names::TABLE_ACCESS, table_label(t)).add(n);
        // Balanced, then skewed one way, then the other: a first plan and
        // two re-splits.
        for (a, b) in [(100, 100), (100, 100), (100_000, 100), (100, 100_000)] {
            touch(0, a);
            touch(1, b);
            ctl.on_epoch().unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(eng.reconfigure_handle().pending() >= 2);
        // An epoch boundary applies them; each lands as a `ThreadSplit` event.
        let db = aets_memtable::MemDb::new(2);
        let heartbeat = aets_wal::TxnLog {
            txn_id: aets_common::TxnId::new(1),
            commit_ts: aets_common::Timestamp::from_micros(10),
            entries: vec![],
        };
        let epochs = aets_wal::batch_into_epochs(vec![heartbeat], 4).unwrap();
        eng.replay_all(&[aets_wal::encode_epoch(&epochs[0])], &db).unwrap();
        let splits: Vec<Vec<usize>> = telemetry
            .drain_events()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::ThreadSplit { split, .. } => Some(split),
                _ => None,
            })
            .collect();
        assert!(splits.len() >= 2, "{splits:?}");
        for split in &splits {
            assert_eq!(split.iter().sum::<usize>(), 3, "{splits:?}");
        }
    }

    #[test]
    fn controller_rejects_degenerate_configs() {
        let telemetry = Arc::new(Telemetry::disabled());
        let grouping = Arc::new(TableGrouping::single(2, &FxHashSet::default()));
        let eng = AetsEngine::builder((*grouping).clone()).build().unwrap();
        let cfg = ControllerConfig { epoch_window: 0, ..Default::default() };
        assert!(
            AdaptiveController::new(cfg, eng.reconfigure_handle(), grouping, telemetry).is_err()
        );
    }

    #[test]
    fn planned_regroup_drains_through_a_live_engine() {
        // End-to-end: controller plans off registry counters, engine
        // applies at the epoch boundary, and the new grouping routes the
        // rotated-hot table into stage 1.
        use aets_common::Timestamp;
        let telemetry = Arc::new(Telemetry::new());
        let grouping = Arc::new(
            TableGrouping::new(
                3,
                vec![vec![TableId::new(0), TableId::new(1)], vec![TableId::new(2)]],
                vec![10.0, 0.1],
                &hs(&[0]),
            )
            .unwrap(),
        );
        let eng = AetsEngine::builder((*grouping).clone())
            .config(AetsConfig { threads: 2, ..Default::default() })
            .telemetry(telemetry.clone())
            .build()
            .unwrap();
        let cfg = ControllerConfig {
            epoch_window: 1,
            min_history: 1,
            model: aets_forecast::ForecastModel::Naive,
            hot_min_rate: 0.5,
            ..Default::default()
        };
        let mut ctl =
            AdaptiveController::new(cfg, eng.reconfigure_handle(), grouping, telemetry.clone())
                .unwrap();
        let reg = telemetry.registry();
        let touch = |t: usize, n: u64| reg.counter_with(names::TABLE_ACCESS, table_label(t)).add(n);

        touch(0, 100);
        ctl.on_epoch().unwrap();
        std::thread::sleep(Duration::from_millis(5));
        touch(2, 10_000); // the hot mass rotates to table 2
        ctl.on_epoch().unwrap();
        assert!(eng.reconfigure_handle().pending() > 0);

        // One epoch through the engine applies the plan.
        use aets_common::{ColumnId, DmlOp, Lsn, RowKey, TxnId, Value};
        use aets_wal::{DmlEntry, TxnLog};
        let txns = vec![TxnLog {
            txn_id: TxnId::new(1),
            commit_ts: Timestamp::from_micros(10),
            entries: vec![DmlEntry {
                lsn: Lsn::new(1),
                txn_id: TxnId::new(1),
                ts: Timestamp::from_micros(10),
                table: TableId::new(0),
                op: DmlOp::Insert,
                key: RowKey::new(1),
                row_version: 1,
                cols: vec![(ColumnId::new(0), Value::Int(1))],
                before: None,
            }],
        }];
        let epochs: Vec<_> = aets_wal::batch_into_epochs(txns, 4)
            .unwrap()
            .iter()
            .map(aets_wal::encode_epoch)
            .collect();
        let db = aets_memtable::MemDb::new(3);
        let m = eng.replay_all(&epochs, &db).unwrap();
        assert!(m.regroups_applied >= 1);
        assert!(eng.grouping_gen() >= 1);
        let g = eng.grouping();
        assert!(g.is_hot(g.group_of(TableId::new(2))), "rotated-hot table must be stage-1");
        assert_eq!(g.num_groups(), 2);
    }
}
