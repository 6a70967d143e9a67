//! Drift workloads: deterministic streams whose hot set *moves*.
//!
//! The static generators in [`tpcc`] and [`bustracker`] hold their access
//! distribution fixed for the whole run, which is exactly the regime
//! where a static thread split and a one-shot grouping are optimal. The
//! adaptive control loop only earns its keep when the distribution shifts
//! mid-run, so this module provides two seeded drift patterns from the
//! paper's motivation:
//!
//! * [`rotating_tpcc`] — the classic rotating-hot-warehouse TPC-C: the
//!   run is cut into phases, each phase concentrates `focus_share` of the
//!   OLTP traffic on one rotating warehouse, and the analytical query mix
//!   rotates with it (StockLevel-heavy → OrderStatus-heavy → an audit
//!   phase that reads the normally-cold `warehouse`/`history` tables).
//!   The queried hot set therefore genuinely changes membership, not just
//!   intensity — the case that forces a regroup, not merely a resplit.
//! * [`flash_crowd_bustracker`] — BusTracker with a flash crowd: inside a
//!   configured slot window, a set of flash tables (cold log tables by
//!   default — an incident investigation) receives a large query
//!   multiplier, then the crowd disperses.
//!
//! Both generators are pure functions of their seed: the same config
//! yields byte-identical transaction and query streams (asserted below),
//! which is what lets the adaptive-drift suite pin seeds in CI.

use crate::bustracker::{self, BusTrackerConfig};
use crate::spec::{int_row, poisson_query_stream, QueryInstance, TxnFactory, Workload};
use crate::tpcc::{self, tables, TpccConfig};
use aets_common::rng::{seeded_rng, Zipf};
use aets_common::{ColumnId, DmlOp, FxHashSet, Row, RowKey, TableId, Timestamp, Value};
use rand::Rng;

/// Parameters of the rotating-hot-warehouse TPC-C stream.
#[derive(Debug, Clone)]
pub struct RotatingTpccConfig {
    /// Base TPC-C parameters (seed, scale, volume, rates).
    pub base: TpccConfig,
    /// Number of drift phases the run is cut into.
    pub phases: usize,
    /// Fraction of each phase's OLTP traffic (and query weight) pinned to
    /// the phase's focus; the rest stays uniform.
    pub focus_share: f64,
}

impl Default for RotatingTpccConfig {
    fn default() -> Self {
        Self {
            base: TpccConfig { warehouses: 4, ..Default::default() },
            phases: 4,
            focus_share: 0.8,
        }
    }
}

/// The rotating query classes: phase `p` concentrates weight on class
/// `p % 3`. Class 2 is the audit phase — it queries `warehouse` and
/// `history`, tables no static TPC-C query ever touches, so the hot set
/// changes membership when it arrives.
pub fn rotating_query_classes() -> Vec<(u32, Vec<TableId>)> {
    vec![
        (0, vec![tables::DISTRICT, tables::ORDER_LINE, tables::STOCK]), // StockLevel
        (1, vec![tables::CUSTOMER, tables::ORDERS, tables::ORDER_LINE]), // OrderStatus
        (2, vec![tables::WAREHOUSE, tables::HISTORY]),                  // audit sweep
    ]
}

/// The warehouse phase `p` focuses on.
pub fn focus_warehouse(p: usize, warehouses: u32) -> u64 {
    (p as u64) % u64::from(warehouses)
}

/// Generates the rotating-hot-warehouse TPC-C workload.
///
/// Transactions keep the standard NewOrder/Payment/Delivery mix and the
/// full TPC-C state machine (deliveries still consume previously inserted
/// new-orders), but each phase routes `focus_share` of them to its focus
/// warehouse. Queries are Poisson within each phase's time span with the
/// phase's class taking `focus_share` of the class weight.
pub fn rotating_tpcc(cfg: &RotatingTpccConfig) -> Workload {
    assert!(cfg.phases >= 2, "drift needs at least two phases");
    assert!(
        (0.0..=1.0).contains(&cfg.focus_share),
        "focus_share must be a fraction, got {}",
        cfg.focus_share
    );
    let base = &cfg.base;
    let mut rng = seeded_rng(base.seed);
    let mut factory = TxnFactory::new(base.oltp_tps);
    let mut st = tpcc::TpccState::new(base.warehouses);
    let item_zipf = Zipf::new(100_000, 0.5);

    let per_phase = base.num_txns.div_ceil(cfg.phases);
    let mut txns = Vec::with_capacity(base.num_txns);
    let mut phase_ends = Vec::with_capacity(cfg.phases);
    for p in 0..cfg.phases {
        let focus = focus_warehouse(p, base.warehouses);
        let n = per_phase.min(base.num_txns - txns.len());
        for _ in 0..n {
            let w = if rng.gen_bool(cfg.focus_share) {
                focus
            } else {
                rng.gen_range(0..u64::from(base.warehouses))
            };
            let pick = rng.gen_range(0..92u32);
            let rows = if pick < 45 {
                tpcc::new_order_at(&mut rng, &mut st, w, &item_zipf)
            } else if pick < 88 {
                tpcc::payment_at(&mut rng, &mut st, w)
            } else {
                tpcc::delivery_at(&mut rng, &mut st, w)
            };
            txns.push(factory.build(&mut rng, rows));
        }
        phase_ends.push(factory.now());
    }

    // Per-phase Poisson query stream with rotating class weights; the
    // off-focus classes split the remaining weight evenly.
    let classes = rotating_query_classes();
    let mut queries = Vec::new();
    let mut start = Timestamp::ZERO;
    for (p, end) in phase_ends.iter().enumerate() {
        let span = Timestamp::from_micros(end.as_micros().saturating_sub(start.as_micros()));
        let hot_class = (p % classes.len()) as u32;
        let rest = (1.0 - cfg.focus_share) / (classes.len() - 1) as f64;
        let weighted: Vec<(u32, f64, Vec<TableId>)> = classes
            .iter()
            .map(|(c, tabs)| {
                let w = if *c == hot_class { cfg.focus_share } else { rest };
                (*c, w, tabs.clone())
            })
            .collect();
        let mut phase_qs = poisson_query_stream(&mut rng, base.olap_qps, span, &weighted);
        for q in &mut phase_qs {
            q.arrival = Timestamp::from_micros(q.arrival.as_micros() + start.as_micros());
        }
        queries.extend(phase_qs);
        start = *end;
    }
    queries.sort_by_key(|q| q.arrival);
    for (i, q) in queries.iter_mut().enumerate() {
        q.id = i as u32;
    }

    let analytic_tables: FxHashSet<TableId> =
        classes.iter().flat_map(|(_, t)| t.iter().copied()).collect();

    Workload {
        name: "tpcc-rotating",
        table_names: tpcc::TABLE_NAMES.to_vec(),
        txns,
        queries,
        analytic_tables,
    }
}

/// Parameters of the flash-crowd BusTracker stream.
#[derive(Debug, Clone)]
pub struct FlashCrowdConfig {
    /// Base BusTracker parameters (seed, volume, slots, shares).
    pub base: BusTrackerConfig,
    /// Tables the crowd lands on. The defaults are *cold* logging tables,
    /// so the flash changes hot-set membership.
    pub flash_tables: Vec<TableId>,
    /// First slot of the crowd window.
    pub flash_start: usize,
    /// Crowd duration in slots.
    pub flash_len: usize,
    /// Queries per slot on each flash table while the crowd lasts.
    pub flash_rate: f64,
}

impl Default for FlashCrowdConfig {
    fn default() -> Self {
        Self {
            base: BusTrackerConfig::default(),
            // m.api_request_log (id 17) and m.error_log (id 19): cold log
            // tables an incident response suddenly starts querying.
            flash_tables: vec![TableId::new(17), TableId::new(19)],
            flash_start: 12,
            flash_len: 8,
            flash_rate: 400.0,
        }
    }
}

impl FlashCrowdConfig {
    /// Whether `slot` falls inside the crowd window.
    pub fn in_flash(&self, slot: usize) -> bool {
        (self.flash_start..self.flash_start + self.flash_len).contains(&slot)
    }

    /// Ground-truth query rate of `table` in `slot`: the base BusTracker
    /// rate plus the crowd on flash tables inside the window.
    pub fn rate(&self, table: usize, slot: usize) -> f64 {
        let base = bustracker::access_rate(table, slot);
        let flashed = self.in_flash(slot) && self.flash_tables.iter().any(|t| t.index() == table);
        if flashed {
            base + self.flash_rate
        } else {
            base
        }
    }
}

/// Generates the flash-crowd BusTracker workload: the base write mix
/// (hot operational updates + cold telemetry appends) with a query
/// stream whose per-slot rates follow [`FlashCrowdConfig::rate`].
pub fn flash_crowd_bustracker(cfg: &FlashCrowdConfig) -> Workload {
    let base = &cfg.base;
    assert!(base.slots >= 2, "need at least two slots");
    assert!(
        cfg.flash_start + cfg.flash_len <= base.slots,
        "flash window [{}, {}) exceeds {} slots",
        cfg.flash_start,
        cfg.flash_start + cfg.flash_len,
        base.slots
    );
    let mut rng = seeded_rng(base.seed);
    let mut factory = TxnFactory::new(base.oltp_tps);

    // Same write mix as the static generator: hot txns write 3 hot
    // entries, cold txns 5 cold entries, fraction solved for hot_share.
    let h = base.hot_share;
    let f = 5.0 * h / (3.0 + 2.0 * h);
    let mut txns = Vec::with_capacity(base.num_txns);
    let mut next_key = vec![0u64; bustracker::NUM_TABLES];
    for _ in 0..base.num_txns {
        let rows: Vec<(TableId, DmlOp, RowKey, Row)> = if rng.gen_bool(f) {
            (0..3)
                .map(|_| {
                    let t = bustracker::hot_write_table(&mut rng);
                    let k = rng.gen_range(0..5000u64);
                    (
                        TableId::new(t as u32),
                        DmlOp::Update,
                        RowKey::new(k),
                        vec![
                            (ColumnId::new(0), Value::Float(rng.gen_range(-90.0..90.0))),
                            (ColumnId::new(1), Value::Int(rng.gen_range(0..10_000))),
                        ],
                    )
                })
                .collect()
        } else {
            (0..5)
                .map(|_| {
                    let t = bustracker::NUM_HOT
                        + rng.gen_range(0..bustracker::NUM_TABLES - bustracker::NUM_HOT);
                    let k = next_key[t];
                    next_key[t] += 1;
                    (
                        TableId::new(t as u32),
                        DmlOp::Insert,
                        RowKey::new(k),
                        int_row(&[(0, rng.gen_range(0..1_000_000)), (1, k as i64)]),
                    )
                })
                .collect()
        };
        txns.push(factory.build(&mut rng, rows));
    }

    // Query stream: Poisson per slot per table at the flash-aware rate.
    // Flash-table queries read just that table (a log investigation);
    // hot-table queries keep their join footprints.
    let horizon = factory.now();
    let slot_len_us = (horizon.as_micros() / base.slots as u64).max(1);
    let mut queries = Vec::new();
    for slot in 0..base.slots {
        for table in 0..bustracker::NUM_TABLES {
            let lambda = cfg.rate(table, slot) * base.olap_scale;
            if lambda <= 0.0 {
                continue;
            }
            let mut t = 0.0f64;
            loop {
                t += aets_common::rng::exp_interarrival(&mut rng, lambda);
                if t >= 1.0 {
                    break;
                }
                let arrival = Timestamp::from_micros(
                    slot as u64 * slot_len_us + (t * slot_len_us as f64) as u64,
                );
                let tables = if table < bustracker::NUM_HOT {
                    bustracker::class_footprint(table)
                } else {
                    vec![TableId::new(table as u32)]
                };
                queries.push(QueryInstance { id: 0, class: table as u32, arrival, tables });
            }
        }
    }
    queries.sort_by_key(|q| q.arrival);
    for (i, q) in queries.iter_mut().enumerate() {
        q.id = i as u32;
    }

    let mut analytic_tables: FxHashSet<TableId> =
        (0..bustracker::NUM_HOT as u32).map(TableId::new).collect();
    analytic_tables.extend(cfg.flash_tables.iter().copied());

    Workload {
        name: "bustracker-flash",
        table_names: bustracker::table_names(),
        txns,
        queries,
        analytic_tables,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_rot() -> Workload {
        rotating_tpcc(&RotatingTpccConfig {
            base: TpccConfig { num_txns: 4000, warehouses: 4, ..Default::default() },
            phases: 4,
            focus_share: 0.8,
        })
    }

    fn small_flash() -> (FlashCrowdConfig, Workload) {
        let cfg = FlashCrowdConfig {
            base: BusTrackerConfig { num_txns: 4000, ..Default::default() },
            ..Default::default()
        };
        let w = flash_crowd_bustracker(&cfg);
        (cfg, w)
    }

    /// Phase index of a commit/arrival timestamp given phase boundaries
    /// derived by splitting the txn stream into equal chunks.
    fn phase_of(w: &Workload, phases: usize, ts: Timestamp) -> usize {
        let per = w.txns.len().div_ceil(phases);
        for p in 0..phases {
            let end = w.txns[(per * (p + 1)).min(w.txns.len()) - 1].commit_ts;
            if ts <= end {
                return p;
            }
        }
        phases - 1
    }

    #[test]
    fn rotating_tpcc_is_deterministic() {
        let a = small_rot();
        let b = small_rot();
        assert_eq!(a.txns.len(), b.txns.len());
        assert_eq!(a.txns[17], b.txns[17]);
        assert_eq!(a.queries.len(), b.queries.len());
        assert_eq!(a.queries[17], b.queries[17]);
    }

    #[test]
    fn rotating_tpcc_focus_warehouse_rotates_in_the_writes() {
        let w = small_rot();
        let phases = 4;
        let per = w.txns.len().div_ceil(phases);
        // District keys encode the warehouse (key / DISTRICTS_PER_WH):
        // each phase's district writes must concentrate on its focus
        // warehouse, and the focus must differ between phases.
        let mut dominant = Vec::new();
        for p in 0..phases {
            let mut by_wh = [0usize; 4];
            for t in &w.txns[per * p..(per * (p + 1)).min(w.txns.len())] {
                for e in &t.entries {
                    if e.table == tables::DISTRICT {
                        by_wh[(e.key.raw() / tpcc::DISTRICTS_PER_WH) as usize] += 1;
                    }
                }
            }
            let total: usize = by_wh.iter().sum();
            let (top, top_n) =
                by_wh.iter().enumerate().max_by_key(|(_, n)| **n).expect("4 warehouses");
            assert_eq!(top as u64, focus_warehouse(p, 4), "phase {p} focus");
            assert!(
                *top_n as f64 / total as f64 > 0.6,
                "phase {p}: focus got {top_n}/{total} district writes"
            );
            dominant.push(top);
        }
        assert_eq!(dominant, vec![0, 1, 2, 3], "focus must rotate");
    }

    #[test]
    fn rotating_tpcc_query_mix_rotates_and_reaches_cold_tables() {
        let w = small_rot();
        let phases = 4;
        // Per phase, the focus class must dominate the query stream.
        for p in 0..phases {
            let hot_class = (p % 3) as u32;
            let in_phase: Vec<_> =
                w.queries.iter().filter(|q| phase_of(&w, phases, q.arrival) == p).collect();
            assert!(!in_phase.is_empty(), "phase {p} has queries");
            let hot = in_phase.iter().filter(|q| q.class == hot_class).count();
            assert!(
                hot as f64 / in_phase.len() as f64 > 0.6,
                "phase {p}: class {hot_class} got {hot}/{}",
                in_phase.len()
            );
        }
        // The audit phase pulls warehouse/history into the analytic set.
        assert!(w.analytic_tables.contains(&tables::WAREHOUSE));
        assert!(w.analytic_tables.contains(&tables::HISTORY));
        assert_eq!(w.analytic_tables.len(), 7);
    }

    #[test]
    fn rotating_tpcc_keeps_the_state_machine_valid() {
        let w = small_rot();
        let mut inserted = FxHashSet::default();
        let mut last_lsn = 0;
        for t in &w.txns {
            for e in &t.entries {
                assert!(e.lsn.raw() > last_lsn, "LSNs must increase");
                last_lsn = e.lsn.raw();
                if e.table == tables::NEW_ORDER {
                    match e.op {
                        DmlOp::Insert => {
                            inserted.insert(e.key);
                        }
                        DmlOp::Delete => {
                            assert!(inserted.contains(&e.key), "delete of unknown new_order")
                        }
                        DmlOp::Update => panic!("new_order is never updated"),
                    }
                }
            }
        }
    }

    #[test]
    fn flash_crowd_is_deterministic() {
        let (_, a) = small_flash();
        let (_, b) = small_flash();
        assert_eq!(a.txns[11], b.txns[11]);
        assert_eq!(a.queries.len(), b.queries.len());
        assert_eq!(a.queries[11], b.queries[11]);
    }

    #[test]
    fn flash_crowd_spikes_inside_the_window_only() {
        let (cfg, w) = small_flash();
        let horizon = w.txns.last().expect("txns").commit_ts;
        let slot_len = (horizon.as_micros() / cfg.base.slots as u64).max(1);
        let flash: FxHashSet<TableId> = cfg.flash_tables.iter().copied().collect();
        let mut inside = 0usize;
        let mut outside = 0usize;
        for q in &w.queries {
            if !q.tables.iter().any(|t| flash.contains(t)) {
                continue;
            }
            let slot = (q.arrival.as_micros() / slot_len) as usize;
            if cfg.in_flash(slot.min(cfg.base.slots - 1)) {
                inside += 1;
            } else {
                outside += 1;
            }
        }
        assert!(inside > 0, "the crowd must produce queries");
        // Base rate on cold flash tables is zero, so the only out-of-window
        // hits come from slot-boundary rounding.
        assert!(
            outside as f64 <= inside as f64 * 0.05,
            "flash queries must concentrate in the window: {inside} in, {outside} out"
        );
        // Flash tables join the analytic (hot) set.
        for t in &cfg.flash_tables {
            assert!(w.analytic_tables.contains(t));
        }
        assert_eq!(w.analytic_tables.len(), bustracker::NUM_HOT + cfg.flash_tables.len());
    }

    #[test]
    fn flash_rate_model_is_the_base_plus_crowd() {
        let cfg = FlashCrowdConfig::default();
        let flash_table = cfg.flash_tables[0].index();
        let in_slot = cfg.flash_start;
        let out_slot = cfg.flash_start + cfg.flash_len;
        assert_eq!(cfg.rate(flash_table, in_slot), cfg.flash_rate, "cold base + crowd");
        assert_eq!(cfg.rate(flash_table, out_slot), 0.0, "crowd dispersed");
        // Non-flash hot tables are untouched by the window.
        assert_eq!(cfg.rate(0, in_slot), bustracker::access_rate(0, in_slot));
    }
}
