//! Per-operation cost model of the replay pipeline.
//!
//! The paper's performance experiments ran on three 64-core Xeon servers;
//! this reproduction runs on whatever container it lands in (often a
//! single core), so thread-count sweeps and visibility-delay measurements
//! use a *virtual* clock driven by this cost model instead of wall time.
//! The absolute values are nominal microseconds chosen so that the ratios
//! the paper describes hold:
//!
//! * metadata parsing (ATR/AETS dispatch) is far cheaper than full
//!   data-image parsing (C5 dispatch) — Section VI-B;
//! * ATR's operation-sequence check adds per-entry work *plus* a
//!   synchronization penalty that grows with thread count — the paper's
//!   explanation for ATR's scalability knee after 16 threads (RQ2);
//! * C5's total per-entry work slightly exceeds ATR's, but it carries no
//!   synchronization penalty, so it overtakes ATR beyond ~32 threads;
//! * TPLR/AETS phase-1 translate dominates; the commit phase only links
//!   pre-materialized cells (Table II: replay >= 98 %, commit < 1 %).
//!
//! The per-entry decode costs (`translate`, `atr_entry`, `c5_entry`) were
//! lowered by hand for the zero-copy codec: `Text`/`Bytes` values are
//! shared slices of the epoch buffer, so decoding no longer pays a heap
//! copy per value and all three dropped by the same ~15 % relative to
//! the original owned-`String` codec. One-pass batched decode with a
//! reused scratch vector cut per-record decode by ~10 % more, and
//! `translate` dropped in step. The `codec/*` rows of `repro bench
//! micro` time the same kernels today. The metadata scan was already
//! copy-free, so `meta_parse` is unchanged.
//!
//! `commit_txn` and `queue_contention_per_thread` are hand-set: no
//! measured row derives them yet, and they stay as typed until the model
//! is derived from the `repro bench micro` rows. The CRC kernel's 4x is
//! invisible here — frame checksums are verified at ingest, which the
//! model charges as replication latency, not replay.
//!
//! Every figure regenerated from this model is labelled as model-derived
//! in EXPERIMENTS.md; the ratios, not the absolute microseconds, are the
//! reproduction target.

/// Nominal per-operation costs in microseconds.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Dispatcher metadata parse + route, per entry (ATR, AETS, TPLR).
    pub meta_parse: f64,
    /// Dispatcher routing floor for C5 (key already parsed by workers).
    pub c5_route: f64,
    /// TPLR phase-1 translate (full decode + index lookup), per entry.
    pub translate: f64,
    /// Commit-phase cell link, per entry (AETS/TPLR phase 2).
    pub append: f64,
    /// Commit-phase bookkeeping per transaction (waiting_commit_list,
    /// commit_order_queue validation, publish).
    pub commit_txn: f64,
    /// ATR per-entry work: decode + apply + RVID sequence check.
    pub atr_entry: f64,
    /// ATR synchronization penalty per entry, multiplied by the thread
    /// count (operation-sequence collisions force inter-thread waits).
    pub atr_sync_per_thread: f64,
    /// C5 per-entry work: full data-image parse + apply.
    pub c5_entry: f64,
    /// Shared-task-queue contention per entry, multiplied by threads and
    /// divided by the number of active queues (one per group).
    pub queue_contention_per_thread: f64,
    /// Fixed coordination cost per replay stage per epoch (thread wakeup,
    /// allocation, barriers).
    pub stage_setup: f64,
    /// One-way replication latency applied to epoch arrival.
    pub replication_latency: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            meta_parse: 0.008,
            c5_route: 0.020,
            translate: 0.78,
            append: 0.008,
            commit_txn: 0.035,
            atr_entry: 0.97,
            atr_sync_per_thread: 0.00025,
            c5_entry: 1.55,
            queue_contention_per_thread: 0.004,
            stage_setup: 30.0,
            replication_latency: 500.0,
        }
    }
}

impl CostModel {
    /// Scales every per-entry/per-txn cost by `k` (used to position the
    /// offered load relative to replay capacity, e.g. for the epoch-size
    /// experiment where the backup runs near saturation).
    pub fn scaled(&self, k: f64) -> CostModel {
        CostModel {
            meta_parse: self.meta_parse * k,
            c5_route: self.c5_route * k,
            translate: self.translate * k,
            append: self.append * k,
            commit_txn: self.commit_txn * k,
            atr_entry: self.atr_entry * k,
            atr_sync_per_thread: self.atr_sync_per_thread * k,
            c5_entry: self.c5_entry * k,
            queue_contention_per_thread: self.queue_contention_per_thread * k,
            stage_setup: self.stage_setup,
            replication_latency: self.replication_latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_respect_paper_ratios() {
        let c = CostModel::default();
        assert!(c.meta_parse * 10.0 < c.c5_route * 10.0 + c.c5_entry, "meta << full parse");
        assert!(c.append < c.translate / 10.0, "commit link is cheap vs translate");
        assert!(c.atr_entry > c.translate, "ATR adds sequence-check work");
        assert!(c.c5_entry > c.atr_entry, "C5 per-entry work slightly exceeds ATR");
    }

    #[test]
    fn scaling_preserves_ratios() {
        let c = CostModel::default().scaled(3.0);
        let d = CostModel::default();
        assert!((c.translate / c.atr_entry - d.translate / d.atr_entry).abs() < 1e-12);
        assert_eq!(c.stage_setup, d.stage_setup);
    }
}
