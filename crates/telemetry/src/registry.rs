//! The metrics registry: named families of counters, gauges, and
//! histograms, each optionally split by a label (in practice the
//! visibility-board group index).
//!
//! Handle acquisition takes a mutex and is meant for setup paths; the
//! returned handles are `Arc`-shared and lock-free, so hot paths cache
//! them (see `EngineStats` in `aets-replay`) and never touch the map.

use crate::metrics::{Counter, CounterCore, Gauge, Histogram, HistogramCore, HistogramSnapshot};
use crate::snapshot::TelemetrySnapshot;
use aets_common::sync::lock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Arc, Mutex};

#[derive(Debug)]
enum Slot {
    Counter(Arc<CounterCore>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

/// Named metric families. Keys are `(family, label)`; the empty label is
/// the unlabeled series.
#[derive(Debug)]
pub struct Registry {
    enabled: Arc<AtomicBool>,
    slots: Mutex<BTreeMap<(&'static str, String), Slot>>,
}

/// Renders the canonical `group="N"` label for board group `idx`.
pub fn group_label(idx: usize) -> String {
    format!("group=\"{idx}\"")
}

impl Registry {
    pub(crate) fn new(enabled: Arc<AtomicBool>) -> Self {
        Self { enabled, slots: Mutex::new(BTreeMap::new()) }
    }

    /// Counter handle for the unlabeled series of `name`.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.counter_with(name, String::new())
    }

    /// Counter handle for the `label` series of `name` (label is a fully
    /// rendered `key="value"` pair, e.g. from [`group_label`]).
    ///
    /// If `name` is already registered as a different metric kind, a
    /// detached (unregistered) handle is returned instead of panicking:
    /// it counts, but never appears in snapshots. That is a programming
    /// error surfaced by the missing family, not a crash.
    pub fn counter_with(&self, name: &'static str, label: String) -> Counter {
        let mut slots = lock(&self.slots);
        let slot = slots
            .entry((name, label))
            .or_insert_with(|| Slot::Counter(Arc::new(CounterCore::default())));
        let core = match slot {
            Slot::Counter(c) => c.clone(),
            _ => Arc::new(CounterCore::default()),
        };
        Counter { enabled: self.enabled.clone(), core }
    }

    /// Gauge handle for the unlabeled series of `name`.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.gauge_with(name, String::new())
    }

    /// Gauge handle for the `label` series of `name`.
    pub fn gauge_with(&self, name: &'static str, label: String) -> Gauge {
        let mut slots = lock(&self.slots);
        let slot =
            slots.entry((name, label)).or_insert_with(|| Slot::Gauge(Arc::new(AtomicU64::new(0))));
        let core = match slot {
            Slot::Gauge(g) => g.clone(),
            _ => Arc::new(AtomicU64::new(0)),
        };
        Gauge { enabled: self.enabled.clone(), core }
    }

    /// Histogram handle for the unlabeled series of `name`.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.histogram_with(name, String::new())
    }

    /// Histogram handle for the `label` series of `name`.
    pub fn histogram_with(&self, name: &'static str, label: String) -> Histogram {
        let mut slots = lock(&self.slots);
        let slot = slots
            .entry((name, label))
            .or_insert_with(|| Slot::Histogram(Arc::new(HistogramCore::default())));
        let core = match slot {
            Slot::Histogram(h) => h.clone(),
            _ => Arc::new(HistogramCore::default()),
        };
        Histogram { enabled: self.enabled.clone(), core }
    }

    /// Point-in-time copy of every registered series.
    pub(crate) fn snapshot_into(&self, snap: &mut TelemetrySnapshot) {
        let slots = lock(&self.slots);
        for ((name, label), slot) in slots.iter() {
            match slot {
                Slot::Counter(c) => {
                    snap.counters.push((name, label.clone(), c.get()));
                }
                Slot::Gauge(g) => {
                    snap.gauges.push((
                        name,
                        label.clone(),
                        g.load(std::sync::atomic::Ordering::Relaxed),
                    ));
                }
                Slot::Histogram(h) => {
                    snap.histograms.push((name, label.clone(), h.snapshot()));
                }
            }
        }
    }
}

/// Merges every labeled series of histogram family `name` in `snap`.
pub(crate) fn merged_histogram(snap: &TelemetrySnapshot, name: &str) -> Option<HistogramSnapshot> {
    let mut out: Option<HistogramSnapshot> = None;
    for (n, _, h) in &snap.histograms {
        if *n == name {
            match &mut out {
                Some(acc) => acc.merge(h),
                None => out = Some(h.clone()),
            }
        }
    }
    out
}
