//! The one first-party measurement method behind `repro bench`.
//!
//! Every timing the repo reports outside `benchmark/` goes through this
//! module: one [`median`]/[`quartiles`], one alternating-pair loop
//! ([`paired`]), one absolute-row timer ([`BenchResult::timed`], with
//! [`BenchResult::timed_consuming`] for a body that consumes its input),
//! one provenance block and one result schema:
//!
//! ```text
//! { "benchmark": …, "provenance": { nproc, git_rev, profile, reps, method },
//!   "rows": [ { name, unit, value, target?, met? }
//!           | { name, unit, before, after, ratio, target?, met? } ],
//!   "all_targets_met": … }
//! ```
//!
//! A target applies to a row's `value`, or to its `ratio`
//! (`after / before`) when the row is a pair.

use crate::experiments::Scale;
use crate::json::{Json, ToJson};
use crate::{json, TextTable};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The method string every paired bench records in its provenance.
pub const PAIRED: &str = "paired medians: one warm-up pair discarded, then each rep measures \
                          before and after back to back, alternating which goes first";

/// `[q1, median, q3]` by linear interpolation between order statistics.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|p| {
        let pos = p * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    })
}

/// The true median: the middle sample, or the mean of the two middles.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs)[1]
}

/// Measures two variants `reps` times each, back to back, alternating
/// which goes first so machine drift cancels instead of biasing one side.
/// One warm-up pair (allocator, page cache, frequency ramp) runs first and
/// is discarded. Returns `(before samples, after samples)` in rep order.
pub fn paired<T>(
    reps: usize,
    mut before: impl FnMut() -> T,
    mut after: impl FnMut() -> T,
) -> (Vec<T>, Vec<T>) {
    before();
    after();
    let mut b = Vec::with_capacity(reps);
    let mut a = Vec::with_capacity(reps);
    for rep in 0..reps {
        if rep % 2 == 0 {
            b.push(before());
            a.push(after());
        } else {
            a.push(after());
            b.push(before());
        }
    }
    (b, a)
}

/// Where and how a result was measured.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Cores the process may use.
    pub nproc: usize,
    /// `git describe --always --dirty` of the working tree.
    pub git_rev: String,
    /// Build profile of the measuring binary.
    pub profile: &'static str,
    /// Samples behind every sampled row.
    pub reps: usize,
    /// How the samples were taken.
    pub method: &'static str,
}

/// The bound a row states for itself; `--gate` fails on any miss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Target {
    /// `<= bound`.
    AtMost(f64),
    /// `> bound`.
    Above(f64),
}

impl std::fmt::Display for Target {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Target::AtMost(b) => write!(f, "<= {b}"),
            Target::Above(b) => write!(f, "> {b}"),
        }
    }
}

/// What a row measured, as `[q1, median, q3]` of its samples.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Measured {
    Value([f64; 3]),
    Pair { before: [f64; 3], after: [f64; 3] },
}

/// One named measurement of a [`BenchResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    name: String,
    unit: &'static str,
    measured: Measured,
    target: Option<Target>,
}

impl Row {
    /// States the row's target.
    pub fn target(&mut self, target: Target) -> &mut Row {
        self.target = Some(target);
        self
    }

    /// The number a target applies to: the value, or `after / before`.
    pub(crate) fn judged(&self) -> f64 {
        match self.measured {
            Measured::Value(q) => q[1],
            Measured::Pair { before, after } => after[1] / before[1],
        }
    }

    /// Whether the stated target holds (`None` without one).
    pub fn met(&self) -> Option<bool> {
        let v = self.judged();
        self.target.map(|t| match t {
            Target::AtMost(b) => v <= b,
            Target::Above(b) => v > b,
        })
    }
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        // Three decimals: below every row's run-to-run spread.
        let r3 = |v: f64| (v * 1e3).round() / 1e3;
        let mut j = match self.measured {
            Measured::Value(q) => {
                json!({ "name": self.name, "unit": self.unit, "value": r3(q[1]) })
            }
            Measured::Pair { before, after } => json!({
                "name": self.name, "unit": self.unit,
                "before": r3(before[1]), "after": r3(after[1]), "ratio": r3(self.judged()),
            }),
        };
        if let (Json::Obj(map), Some(target)) = (&mut j, self.target) {
            map.insert("target".into(), Json::Str(target.to_string()));
            map.insert("met".into(), Json::Bool(self.met() == Some(true)));
        }
        j
    }
}

/// One bench's rows plus where they came from.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// The bench's `repro bench` name.
    pub benchmark: &'static str,
    /// Where and how it was measured.
    pub provenance: Provenance,
    /// The measurements, in the order taken.
    pub rows: Vec<Row>,
    sample_budget: Duration,
}

impl BenchResult {
    /// Starts a result: `full_reps` samples per sampled row at full scale,
    /// at most three below it.
    pub fn new(
        benchmark: &'static str,
        scale: Scale,
        full_reps: usize,
        method: &'static str,
    ) -> Self {
        let git_rev = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            );
        let provenance = Provenance {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            git_rev,
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            reps: if scale.full { full_reps } else { full_reps.min(3) },
            method,
        };
        let sample_budget = Duration::from_millis(if scale.full { 75 } else { 2 });
        Self { benchmark, provenance, rows: Vec::new(), sample_budget }
    }

    fn push(&mut self, name: &str, unit: &'static str, measured: Measured) -> &mut Row {
        self.rows.push(Row { name: name.to_string(), unit, measured, target: None });
        self.rows.last_mut().expect("just pushed")
    }

    /// An absolute row holding one number (a count, a parameter, a single
    /// run's reading).
    pub fn value(&mut self, name: &str, unit: &'static str, v: f64) -> &mut Row {
        self.push(name, unit, Measured::Value([v; 3]))
    }

    /// An absolute row holding the median of `samples`.
    pub fn sampled(&mut self, name: &str, unit: &'static str, samples: &[f64]) -> &mut Row {
        self.push(name, unit, Measured::Value(quartiles(samples)))
    }

    /// A before/after row holding the median of each side's samples and
    /// their ratio `after / before`.
    pub fn pair(
        &mut self,
        name: &str,
        unit: &'static str,
        before: &[f64],
        after: &[f64],
    ) -> &mut Row {
        self.push(name, unit, Measured::Pair { before: quartiles(before), after: quartiles(after) })
    }

    /// Times `body` into an absolute row: after a warm-up that also sizes
    /// the loop, each of `reps` samples runs enough calls to fill the
    /// per-sample budget. The row is the median in `ns/iter`, or — when
    /// one call processes `throughput` elements — in `elem/s`.
    pub fn timed<O>(
        &mut self,
        name: &str,
        throughput: Option<u64>,
        mut body: impl FnMut() -> O,
    ) -> &mut Row {
        let mut run = |iters: u64| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(body());
            }
            t.elapsed().as_nanos().max(1) as f64 / iters as f64
        };
        let mut warm_iters = 1u64;
        let per_call = loop {
            let ns = run(warm_iters);
            if ns * warm_iters as f64 >= 1e6 || warm_iters >= 1 << 20 {
                break ns;
            }
            warm_iters *= 2;
        };
        let iters = ((self.sample_budget.as_nanos() as f64 / per_call) as u64).clamp(1, 1 << 24);
        let ns: Vec<f64> = (0..self.provenance.reps).map(|_| run(iters)).collect();
        self.rate_row(name, throughput, &ns)
    }

    /// [`BenchResult::timed`] for a `body` that consumes its input, as a
    /// commit consumes its cells: each sample first makes its inputs with
    /// `setup` and afterwards drops the outputs, neither timed. A sample
    /// holds at most `max_batch` inputs, which bounds its memory.
    pub fn timed_consuming<I, O>(
        &mut self,
        name: &str,
        throughput: Option<u64>,
        max_batch: u64,
        mut setup: impl FnMut() -> I,
        mut body: impl FnMut(I) -> O,
    ) -> &mut Row {
        let mut run = |iters: u64| {
            let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
            let t = Instant::now();
            let outputs: Vec<O> = inputs.into_iter().map(&mut body).collect();
            let ns = t.elapsed().as_nanos().max(1) as f64 / iters as f64;
            drop(black_box(outputs));
            ns
        };
        let per_call = run(1).min(run(1));
        let budget = self.sample_budget.as_nanos() as f64;
        let iters = ((budget / per_call) as u64).clamp(1, max_batch);
        let ns: Vec<f64> = (0..self.provenance.reps).map(|_| run(iters)).collect();
        self.rate_row(name, throughput, &ns)
    }

    /// The row of per-call times `ns`: in `ns/iter`, or — when one call
    /// processes `throughput` elements — in `elem/s`.
    fn rate_row(&mut self, name: &str, throughput: Option<u64>, ns: &[f64]) -> &mut Row {
        match throughput {
            None => self.sampled(name, "ns/iter", ns),
            Some(n) => {
                let rates: Vec<f64> = ns.iter().map(|t| n as f64 * 1e9 / t).collect();
                self.sampled(name, "elem/s", &rates)
            }
        }
    }

    /// Whether every stated target holds.
    pub fn all_targets_met(&self) -> bool {
        self.rows.iter().all(|r| r.met() != Some(false))
    }

    /// Prints the rows with their run-to-run spread (`[q1 .. q3]`).
    pub fn print(&self) {
        let p = &self.provenance;
        println!(
            "== bench {}: {} reps, {} build, {} cores, rev {} ==",
            self.benchmark, p.reps, p.profile, p.nproc, p.git_rev
        );
        let num = |v: f64| {
            if v == v.trunc() || v.abs() >= 100.0 {
                format!("{v:.0}")
            } else {
                format!("{v:.3}")
            }
        };
        let stat = |q: [f64; 3]| {
            if q[0] == q[2] {
                num(q[1])
            } else {
                format!("{} [{} .. {}]", num(q[1]), num(q[0]), num(q[2]))
            }
        };
        let mut t = TextTable::new(&["row", "unit", "value / before", "after", "ratio", "target"]);
        for r in &self.rows {
            let (first, after, ratio) = match r.measured {
                Measured::Value(q) => (stat(q), String::new(), String::new()),
                Measured::Pair { before, after } => {
                    (stat(before), stat(after), format!("{:.3}x", r.judged()))
                }
            };
            let target = r.target.map_or(String::new(), |t| {
                format!("{t}: {}", if r.met() == Some(true) { "met" } else { "MISSED" })
            });
            t.row(vec![r.name.clone(), r.unit.to_string(), first, after, ratio, target]);
        }
        println!("{}", t.render());
    }
}

impl ToJson for BenchResult {
    fn to_json(&self) -> Json {
        let p = &self.provenance;
        json!({
            "benchmark": self.benchmark,
            "provenance": json!({
                "nproc": p.nproc, "git_rev": p.git_rev, "profile": p.profile,
                "reps": p.reps, "method": p.method,
            }),
            "rows": self.rows,
            "all_targets_met": self.all_targets_met(),
        })
    }
}

/// Prints a finished bench and, at full scale, writes
/// `results/BENCH_<file>.json` in the one schema.
pub fn write_result(scale: Scale, file: &str, result: &BenchResult) {
    result.print();
    crate::write_json(scale, &format!("BENCH_{file}"), result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn median_is_the_true_median_on_odd_and_even_lengths() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_interpolate_on_a_known_vector() {
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.75, 2.5, 3.25]);
    }

    #[test]
    fn paired_discards_the_warm_up_and_alternates_the_order() {
        let calls = RefCell::new(String::new());
        let n = RefCell::new(0);
        let side = |tag: char| {
            calls.borrow_mut().push(tag);
            *n.borrow_mut() += 1;
            *n.borrow()
        };
        let (b, a) = paired(3, || side('b'), || side('a'));
        // Warm-up pair, then before-first, after-first, before-first.
        assert_eq!(*calls.borrow(), "ba".to_string() + "ba" + "ab" + "ba");
        // Calls 1 and 2 were the warm-up: neither appears in the samples.
        assert_eq!(b, vec![3, 6, 7]);
        assert_eq!(a, vec![4, 5, 8]);
    }

    #[test]
    fn targets_judge_the_value_or_the_ratio() {
        let mut r = BenchResult::new("t", Scale::fast(), 5, PAIRED);
        assert_eq!(r.provenance.reps, 3, "below full scale reps are capped");
        assert_eq!(r.value("plain", "count", 9.0).met(), None);
        assert_eq!(r.value("v", "%", 2.0).target(Target::AtMost(3.0)).met(), Some(true));
        assert_eq!(r.value("z", "us", 0.0).target(Target::Above(0.0)).met(), Some(false));
        assert!(!r.all_targets_met());
        r.rows.pop();
        let speedup = r.pair("p", "MiB/s", &[100.0, 90.0, 110.0], &[400.0, 500.0, 450.0]);
        assert_eq!(speedup.judged(), 4.5);
        assert_eq!(speedup.target(Target::Above(4.0)).met(), Some(true));
        assert!(r.all_targets_met());

        let Json::Obj(row) = r.rows[2].to_json() else { panic!("row is an object") };
        assert_eq!(row["before"], Json::Num(100.0));
        assert_eq!(row["after"], Json::Num(450.0));
        assert_eq!(row["ratio"], Json::Num(4.5));
        assert_eq!(row["target"], Json::Str("> 4".into()));
        assert_eq!(row["met"], Json::Bool(true));
        let Json::Obj(plain) = r.rows[0].to_json() else { panic!("row is an object") };
        assert_eq!(plain.keys().collect::<Vec<_>>(), ["name", "unit", "value"]);
    }

    #[test]
    fn timed_reports_time_or_element_rate() {
        let mut r = BenchResult::new("t", Scale::fast(), 3, "timed");
        let mut calls = 0u64;
        r.timed("spin", None, || calls += 1);
        assert!(calls > 3, "warm-up plus three samples");
        r.timed("rate", Some(10), || std::hint::black_box(1 + 1));
        assert_eq!((r.rows[0].unit, r.rows[1].unit), ("ns/iter", "elem/s"));
        assert!(r.rows.iter().all(|row| row.judged() > 0.0));
    }
}
