//! Point-in-time exposition snapshots.
//!
//! [`TelemetrySnapshot`] is a plain-data copy of every registered series
//! plus event-ring accounting, renderable as Prometheus text exposition
//! ([`TelemetrySnapshot::render_prometheus`]) or a JSON document
//! ([`TelemetrySnapshot::render_json`]). [`parse_exposition`] is the
//! dependency-free counterpart used by smoke tests and scrapers to
//! validate a rendered snapshot without a Prometheus client.

use crate::metrics::{bucket_upper_bound, HistogramSnapshot, HistogramSummary};
use crate::registry::merged_histogram;
use aets_common::json_escape;
use std::fmt::Write as _;

/// A point-in-time copy of the whole registry. Series are sorted by
/// `(family, label)`.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Capture time on the telemetry clock (micros).
    pub at_us: u64,
    /// Counter series: `(family, label, value)`.
    pub counters: Vec<(&'static str, String, u64)>,
    /// Gauge series: `(family, label, value)`.
    pub gauges: Vec<(&'static str, String, u64)>,
    /// Histogram series: `(family, label, state)`.
    pub histograms: Vec<(&'static str, String, HistogramSnapshot)>,
    /// Events emitted so far (== next sequence number).
    pub events_emitted: u64,
    /// Events evicted from the ring before being drained.
    pub events_dropped: u64,
}

impl TelemetrySnapshot {
    /// Value of counter `name` summed across labels (`0` if absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters.iter().filter(|(n, _, _)| *n == name).map(|(_, _, v)| *v).sum()
    }

    /// Value of the exact `(name, label)` counter series.
    pub fn counter(&self, name: &str, label: &str) -> Option<u64> {
        self.counters.iter().find(|(n, l, _)| *n == name && l == label).map(|(_, _, v)| *v)
    }

    /// Value of the exact `(name, label)` gauge series.
    pub fn gauge(&self, name: &str, label: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, l, _)| *n == name && l == label).map(|(_, _, v)| *v)
    }

    /// The exact `(name, label)` histogram series.
    pub fn histogram(&self, name: &str, label: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, l, _)| *n == name && l == label).map(|(_, _, h)| h)
    }

    /// Summary of the `(name, label)` histogram series.
    pub fn histogram_summary(&self, name: &str, label: &str) -> Option<HistogramSummary> {
        self.histogram(name, label).map(HistogramSnapshot::summary)
    }

    /// Summary of histogram family `name` merged across every label
    /// (e.g. overall visibility lag across all groups).
    pub fn histogram_summary_all(&self, name: &str) -> Option<HistogramSummary> {
        merged_histogram(self, name).map(|h| h.summary())
    }

    /// Renders Prometheus text exposition format.
    ///
    /// Histograms render cumulative `_bucket{le="..."}` series (inclusive
    /// upper bounds, powers of two) up to the highest non-empty bucket,
    /// then `+Inf`, `_sum`, and `_count`. The `+Inf` bucket and `_count`
    /// are both derived from the same bucket copy (not the histogram's
    /// separately-updated count atomic), so a scrape taken mid-run is
    /// always self-consistent: `+Inf == _count` and buckets never
    /// decrease — the invariants [`parse_exposition`] enforces.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = writeln!(out, "# AETS telemetry snapshot at {}us", self.at_us);

        let mut last = "";
        for (name, label, v) in &self.counters {
            if *name != last {
                let _ = writeln!(out, "# TYPE {name} counter");
                last = name;
            }
            let _ = writeln!(out, "{name}{} {v}", braced(label, None));
        }
        last = "";
        for (name, label, v) in &self.gauges {
            if *name != last {
                let _ = writeln!(out, "# TYPE {name} gauge");
                last = name;
            }
            let _ = writeln!(out, "{name}{} {v}", braced(label, None));
        }
        last = "";
        for (name, label, h) in &self.histograms {
            if *name != last {
                let _ = writeln!(out, "# TYPE {name} histogram");
                last = name;
            }
            let total: u64 = h.buckets.iter().sum();
            let top = h.buckets.iter().rposition(|&n| n > 0).unwrap_or(0);
            let mut cum = 0u64;
            for (i, &n) in h.buckets.iter().enumerate().take(top + 1) {
                cum += n;
                let le = match bucket_upper_bound(i) {
                    Some(ub) => ub.to_string(),
                    None => "+Inf".to_string(),
                };
                let _ = writeln!(out, "{name}_bucket{} {cum}", braced(label, Some(&le)));
            }
            if bucket_upper_bound(top).is_some() {
                let _ = writeln!(out, "{name}_bucket{} {total}", braced(label, Some("+Inf")));
            }
            let _ = writeln!(out, "{name}_sum{} {}", braced(label, None), h.sum);
            let _ = writeln!(out, "{name}_count{} {total}", braced(label, None));
        }
        out
    }

    /// Renders a JSON document: counters and gauges verbatim, histograms
    /// as quantile summaries (p50/p95/p99/max), plus event accounting.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"at_us\": {},", self.at_us);
        out.push_str("  \"counters\": [");
        for (i, (name, label, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\": \"{name}\", \"label\": \"{}\", \"value\": {v}}}",
                json_escape(label)
            );
        }
        out.push_str("\n  ],\n  \"gauges\": [");
        for (i, (name, label, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\": \"{name}\", \"label\": \"{}\", \"value\": {v}}}",
                json_escape(label)
            );
        }
        out.push_str("\n  ],\n  \"histograms\": [");
        for (i, (name, label, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = h.summary();
            let _ = write!(
                out,
                "\n    {{\"name\": \"{name}\", \"label\": \"{}\", \"count\": {}, \
                 \"sum_us\": {}, \"mean_us\": {:.3}, \"p50_us\": {}, \"p95_us\": {}, \
                 \"p99_us\": {}, \"max_us\": {}}}",
                json_escape(label),
                s.count,
                s.sum_us,
                s.mean_us,
                s.p50_us,
                s.p95_us,
                s.p99_us,
                s.max_us
            );
        }
        let _ = write!(
            out,
            "\n  ],\n  \"events\": {{\"emitted\": {}, \"dropped\": {}}}\n}}\n",
            self.events_emitted, self.events_dropped
        );
        out
    }
}

/// Renders `{label}`, `{label,le="x"}`, `{le="x"}`, or `` from an
/// optional pre-rendered label pair and an optional `le` bound.
fn braced(label: &str, le: Option<&str>) -> String {
    match (label.is_empty(), le) {
        (true, None) => String::new(),
        (true, Some(le)) => format!("{{le=\"{le}\"}}"),
        (false, None) => format!("{{{label}}}"),
        (false, Some(le)) => format!("{{{label},le=\"{le}\"}}"),
    }
}

/// One sample line of a text exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (family plus any `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Raw label block without braces (empty when unlabeled).
    pub labels: String,
    /// Parsed value.
    pub value: f64,
}

/// Parses Prometheus text exposition produced by
/// [`TelemetrySnapshot::render_prometheus`], validating every sample
/// line. Comment (`#`) and blank lines are skipped. Histogram families
/// are checked for self-consistency: cumulative `_bucket` values must be
/// non-decreasing in ascending `le` order and end at `le="+Inf"`, the
/// `+Inf` bucket must equal the family's `_count` sample, and a `_sum`
/// sample must be present. Returns the parsed samples or a description
/// of the first malformed line or inconsistent family.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value separator: {line:?}", lineno + 1))?;
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|_| format!("line {}: bad value in {line:?}", lineno + 1))?;
        let (name, labels) = match series.split_once('{') {
            None => (series.to_string(), String::new()),
            Some((n, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {}: unterminated labels: {line:?}", lineno + 1))?;
                (n.to_string(), labels.to_string())
            }
        };
        if name.is_empty()
            || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: bad metric name {name:?}", lineno + 1));
        }
        if value < 0.0 {
            return Err(format!("line {}: negative sample {value}", lineno + 1));
        }
        out.push(Sample { name, labels, value });
    }
    if out.is_empty() {
        return Err("exposition holds no samples".to_string());
    }
    validate_histograms(&out)?;
    Ok(out)
}

/// Splits a `_bucket` sample's label block into (labels without `le`,
/// parsed `le` bound). `None` when no well-formed `le` label exists.
fn split_le(labels: &str) -> Option<(String, f64)> {
    let mut rest = Vec::new();
    let mut le = None;
    for part in labels.split(',') {
        if let Some(v) = part.strip_prefix("le=\"").and_then(|p| p.strip_suffix('"')) {
            le = Some(if v == "+Inf" { f64::INFINITY } else { v.parse().ok()? });
        } else if !part.is_empty() {
            rest.push(part);
        }
    }
    Some((rest.join(","), le?))
}

/// Cross-sample histogram consistency: for every `(family, labels)` with
/// `_bucket` samples, buckets must be cumulative (non-decreasing in
/// ascending `le`), terminated by `+Inf`, `_count` must equal the `+Inf`
/// bucket, and `_sum` must be present.
fn validate_histograms(samples: &[Sample]) -> Result<(), String> {
    use std::collections::BTreeMap;
    let mut families: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    for s in samples {
        if let Some(base) = s.name.strip_suffix("_bucket") {
            let (labels, le) = split_le(&s.labels)
                .ok_or_else(|| format!("{}{{{}}}: bucket without le label", s.name, s.labels))?;
            families.entry((base.to_string(), labels)).or_default().push((le, s.value));
        }
    }
    for ((family, labels), buckets) in &families {
        let series =
            if labels.is_empty() { family.clone() } else { format!("{family}{{{labels}}}") };
        let ascending = buckets.windows(2).all(|w| w[0].0 < w[1].0);
        if !ascending {
            return Err(format!("{series}: bucket le bounds not ascending"));
        }
        let cumulative = buckets.windows(2).all(|w| w[0].1 <= w[1].1);
        if !cumulative {
            return Err(format!("{series}: cumulative bucket values decrease"));
        }
        let &(last_le, last_value) =
            buckets.last().ok_or_else(|| format!("{series}: empty bucket series"))?;
        if last_le != f64::INFINITY {
            return Err(format!("{series}: bucket series does not end at le=\"+Inf\""));
        }
        let count = samples
            .iter()
            .find(|s| s.name == format!("{family}_count") && s.labels == *labels)
            .ok_or_else(|| format!("{series}: missing _count sample"))?;
        if count.value != last_value {
            return Err(format!("{series}: _count {} != +Inf bucket {last_value}", count.value));
        }
        if !samples.iter().any(|s| s.name == format!("{family}_sum") && s.labels == *labels) {
            return Err(format!("{series}: missing _sum sample"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn prometheus_roundtrip_parses_and_buckets_are_cumulative() {
        let tel = Telemetry::new();
        tel.registry().counter("aets_epochs_total").add(3);
        tel.registry().gauge("aets_global_cmt_ts_us").set(99);
        let h = tel
            .registry()
            .histogram_with("aets_visibility_lag_us", crate::registry::group_label(0));
        h.record_micros(1);
        h.record_micros(5);
        h.record_micros(5_000);

        let text = tel.snapshot().render_prometheus();
        let samples = parse_exposition(&text).expect("rendered exposition must parse");
        assert!(samples.iter().any(|s| s.name == "aets_epochs_total" && s.value == 3.0));
        assert!(samples.iter().any(|s| s.name == "aets_global_cmt_ts_us" && s.value == 99.0));
        let count = samples
            .iter()
            .find(|s| s.name == "aets_visibility_lag_us_count")
            .expect("histogram count sample");
        assert_eq!(count.value, 3.0);
        assert_eq!(count.labels, "group=\"0\"");
        // Cumulative bucket values must be non-decreasing and end at the
        // total count.
        let buckets: Vec<f64> = samples
            .iter()
            .filter(|s| s.name == "aets_visibility_lag_us_bucket")
            .map(|s| s.value)
            .collect();
        assert!(!buckets.is_empty());
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "buckets cumulative: {buckets:?}");
        assert_eq!(*buckets.last().expect("nonempty"), 3.0);
        // `_sum` is exposed so a scraper can compute averages.
        let sum = samples
            .iter()
            .find(|s| s.name == "aets_visibility_lag_us_sum")
            .expect("histogram sum sample");
        assert_eq!(sum.value, 5_006.0);
        assert_eq!(sum.labels, "group=\"0\"");
    }

    #[test]
    fn parse_validates_histogram_consistency() {
        let good = "h_bucket{group=\"0\",le=\"1\"} 1\nh_bucket{group=\"0\",le=\"+Inf\"} 2\n\
                    h_sum{group=\"0\"} 9\nh_count{group=\"0\"} 2\n";
        assert!(parse_exposition(good).is_ok());

        let missing_sum = "h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n";
        assert!(parse_exposition(missing_sum).expect_err("no _sum").contains("_sum"));

        let count_mismatch = "h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 5\n";
        assert!(parse_exposition(count_mismatch).expect_err("bad _count").contains("_count"));

        let decreasing = "h_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n";
        assert!(parse_exposition(decreasing).expect_err("decreasing").contains("decrease"));

        let unterminated = "h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
        assert!(parse_exposition(unterminated).expect_err("no +Inf").contains("+Inf"));
    }

    #[test]
    fn json_rendering_contains_summaries() {
        let tel = Telemetry::new();
        let h = tel.registry().histogram("aets_dispatch_us");
        for v in [10u64, 20, 30] {
            h.record_micros(v);
        }
        let json = tel.snapshot().render_json();
        assert!(json.contains("\"name\": \"aets_dispatch_us\""));
        assert!(json.contains("\"count\": 3"));
        assert!(json.contains("\"p95_us\""));
        assert!(json.contains("\"events\""));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_exposition("").is_err());
        assert!(parse_exposition("novalue").is_err());
        assert!(parse_exposition("bad-name{} 1").is_err());
        assert!(parse_exposition("x{unterminated 1").is_err());
        assert!(parse_exposition("x 1\ny nan_nope").is_err());
    }

    #[test]
    fn snapshot_accessors() {
        let tel = Telemetry::new();
        tel.registry().counter_with("c", "group=\"1\"".into()).add(2);
        tel.registry().counter_with("c", "group=\"2\"".into()).add(3);
        let h0 = tel.registry().histogram_with("h", "group=\"0\"".into());
        let h1 = tel.registry().histogram_with("h", "group=\"1\"".into());
        h0.record_micros(10);
        h1.record_micros(1_000);
        let snap = tel.snapshot();
        assert_eq!(snap.counter_total("c"), 5);
        assert_eq!(snap.counter("c", "group=\"1\""), Some(2));
        assert_eq!(snap.counter("c", "group=\"9\""), None);
        let all = snap.histogram_summary_all("h").expect("merged histogram");
        assert_eq!(all.count, 2);
        assert_eq!(all.max_us, 1_000);
        assert_eq!(snap.histogram_summary("h", "group=\"0\"").expect("series").count, 1);
    }
}
