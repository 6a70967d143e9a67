//! Access-rate time series: generation, windowing, and MAPE evaluation.

use aets_common::rng::Rng;

/// A multivariate time series: `values[t][n]` is the access rate of table
/// `n` in slot `t`.
#[derive(Debug, Clone)]
pub struct RateSeries {
    /// Row-per-slot rate matrix.
    pub values: Vec<Vec<f64>>,
}

impl RateSeries {
    /// Wraps a rate matrix. All rows must have equal length.
    pub fn new(values: Vec<Vec<f64>>) -> Self {
        if let Some(first) = values.first() {
            assert!(values.iter().all(|r| r.len() == first.len()), "ragged rate matrix");
        }
        Self { values }
    }

    /// Number of time slots.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of tables (series dimensionality).
    pub fn width(&self) -> usize {
        self.values.first().map_or(0, Vec::len)
    }

    /// The noisy BusTracker hot-table series used throughout the
    /// forecasting experiments: ground-truth rate model plus
    /// multiplicative noise.
    pub fn bustracker_hot(slots: usize, noise: f64, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let values = (0..slots)
            .map(|s| {
                (0..aets_workloads::bustracker::NUM_HOT)
                    .map(|t| {
                        let base = aets_workloads::bustracker::access_rate(t, s);
                        let eps = rng.uniform(-1.0, 1.0);
                        (base * (1.0 + noise * eps)).max(0.1)
                    })
                    .collect()
            })
            .collect();
        Self::new(values)
    }

    /// Splits into `(train, test)` at `at`.
    pub fn split(&self, at: usize) -> (RateSeries, RateSeries) {
        assert!(at <= self.len(), "split point out of range");
        (RateSeries::new(self.values[..at].to_vec()), RateSeries::new(self.values[at..].to_vec()))
    }

    /// Sliding windows `(input, target)` where the input covers
    /// `t_in` slots and the target the following `t_f` slots.
    #[allow(clippy::type_complexity)]
    pub fn windows(&self, t_in: usize, t_f: usize) -> Vec<(Window, Window)> {
        let mut out = Vec::new();
        if self.len() < t_in + t_f {
            return out;
        }
        for start in 0..=(self.len() - t_in - t_f) {
            let input = self.values[start..start + t_in].to_vec();
            let target = self.values[start + t_in..start + t_in + t_f].to_vec();
            out.push((input, target));
        }
        out
    }
}

/// A block of rate rows (`[t][n]`), used for window inputs/targets.
pub type Window = Vec<Vec<f64>>;

/// Mean absolute percentage error between prediction and truth
/// (`[t_f][n]` each), skipping near-zero truths.
pub fn mape(pred: &[Vec<f64>], truth: &[Vec<f64>]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "horizon mismatch");
    let mut sum = 0.0;
    let mut count = 0usize;
    for (p_row, t_row) in pred.iter().zip(truth) {
        assert_eq!(p_row.len(), t_row.len(), "width mismatch");
        for (p, t) in p_row.iter().zip(t_row) {
            if t.abs() > 1e-9 {
                sum += ((p - t) / t).abs();
                count += 1;
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// A forecaster of table access rates.
pub trait Forecaster {
    /// Name used in Table III.
    fn name(&self) -> &'static str;

    /// Predicts the next `t_f` slots from the trailing history
    /// (`history[t][n]`, most recent last).
    fn forecast(&self, history: &[Vec<f64>], t_f: usize) -> Vec<Vec<f64>>;
}

/// Evaluates a forecaster over a test series with rolling-origin
/// evaluation: at every origin `t >= min_history`, the forecaster sees
/// the full history `series[..t]` (each model slices the lookback it
/// needs — HA its 60-slot window, ARIMA its lag order, DTGM its input
/// window) and is scored on the next `t_f` slots. Returns mean MAPE.
pub fn evaluate(f: &dyn Forecaster, series: &RateSeries, min_history: usize, t_f: usize) -> f64 {
    assert!(series.len() > min_history + t_f, "series too short for evaluation");
    let mut total = 0.0;
    let mut count = 0usize;
    for t in min_history..=series.len() - t_f {
        let history = series.values[..t].to_vec();
        let target = series.values[t..t + t_f].to_vec();
        let pred = f.forecast(&history, t_f);
        total += mape(&pred, &target);
        count += 1;
    }
    total / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_shape_and_split() {
        let s = RateSeries::bustracker_hot(50, 0.1, 1);
        assert_eq!(s.len(), 50);
        assert_eq!(s.width(), 14);
        let (a, b) = s.split(30);
        assert_eq!(a.len(), 30);
        assert_eq!(b.len(), 20);
    }

    #[test]
    fn windows_cover_series() {
        let s = RateSeries::new((0..10).map(|t| vec![t as f64]).collect());
        let w = s.windows(3, 2);
        assert_eq!(w.len(), 6);
        assert_eq!(w[0].0, vec![vec![0.0], vec![1.0], vec![2.0]]);
        assert_eq!(w[0].1, vec![vec![3.0], vec![4.0]]);
        assert!(s.windows(8, 3).is_empty());
    }

    #[test]
    fn mape_basics() {
        let truth = vec![vec![10.0, 20.0]];
        let exact = mape(&truth.clone(), &truth);
        assert_eq!(exact, 0.0);
        let pred = vec![vec![11.0, 18.0]];
        let e = mape(&pred, &truth);
        assert!((e - 0.1).abs() < 1e-12); // (0.1 + 0.1)/2
    }

    #[test]
    fn mape_skips_zero_truth() {
        let pred = vec![vec![5.0, 5.0]];
        let truth = vec![vec![0.0, 10.0]];
        assert!((mape(&pred, &truth) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn noise_is_seeded() {
        let a = RateSeries::bustracker_hot(20, 0.2, 7);
        let b = RateSeries::bustracker_hot(20, 0.2, 7);
        assert_eq!(a.values, b.values);
        let c = RateSeries::bustracker_hot(20, 0.2, 8);
        assert_ne!(a.values, c.values);
    }
}
