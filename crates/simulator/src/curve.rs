//! Visibility curves: when does a commit timestamp become visible?
//!
//! A curve is a monotone step function from virtual wall time to the
//! highest published commit timestamp (`tg_cmt_ts` of one group, or
//! `global_cmt_ts`). Queries invert it: "at what wall time did this group
//! first cover my `qts`?"

use aets_common::Timestamp;

/// Monotone `(wall time, published commit ts)` breakpoints.
#[derive(Debug, Clone, Default)]
pub struct VisibilityCurve {
    points: Vec<(u64, u64)>, // (wall us, commit ts us), both non-decreasing
}

impl VisibilityCurve {
    /// Creates an empty curve (nothing ever published).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a publication event. Out-of-order or stale points are
    /// clamped to keep the curve monotone (mirroring the board's
    /// `fetch_max`).
    pub fn push(&mut self, wall_us: u64, commit_ts: Timestamp) {
        let ts = commit_ts.as_micros();
        if let Some(&(lw, lt)) = self.points.last() {
            let w = wall_us.max(lw);
            let t = ts.max(lt);
            if t == lt {
                return; // no new information
            }
            self.points.push((w, t));
        } else {
            self.points.push((wall_us, ts));
        }
    }

    /// Number of breakpoints.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the curve has no breakpoints.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Earliest wall time at which the published timestamp reaches `qts`,
    /// or `None` if it never does.
    pub fn first_time_reaching(&self, qts: Timestamp) -> Option<u64> {
        let t = qts.as_micros();
        let i = self.points.partition_point(|(_, ts)| *ts < t);
        self.points.get(i).map(|(w, _)| *w)
    }

    /// Final published timestamp.
    pub fn final_ts(&self) -> Timestamp {
        self.points.last().map_or(Timestamp::ZERO, |(_, t)| Timestamp::from_micros(*t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(us: u64) -> Timestamp {
        Timestamp::from_micros(us)
    }

    #[test]
    fn value_and_inverse_agree() {
        let mut c = VisibilityCurve::new();
        c.push(10, ts(100));
        c.push(20, ts(250));
        c.push(30, ts(400));
        assert_eq!(c.first_time_reaching(ts(100)), Some(10));
        assert_eq!(c.first_time_reaching(ts(101)), Some(20));
        assert_eq!(c.first_time_reaching(ts(250)), Some(20));
        assert_eq!(c.first_time_reaching(ts(401)), None);
    }

    #[test]
    fn stale_points_are_clamped() {
        let mut c = VisibilityCurve::new();
        c.push(10, ts(100));
        c.push(5, ts(50)); // stale both ways: dropped
        assert_eq!(c.len(), 1);
        c.push(8, ts(200)); // wall goes backwards: clamped to 10
        assert_eq!(c.first_time_reaching(ts(200)), Some(10));
    }

    #[test]
    fn empty_curve_behaviour() {
        let c = VisibilityCurve::new();
        assert_eq!(c.first_time_reaching(ts(1)), None);
        assert_eq!(c.final_ts(), Timestamp::ZERO);
        assert!(c.is_empty());
    }

    #[test]
    fn monotone_invariant_holds_under_many_pushes() {
        let mut c = VisibilityCurve::new();
        for i in 0..1000u64 {
            c.push(i * 7 % 501, ts(i * 13 % 997));
        }
        let pts: Vec<(u64, u64)> = (0..c.len()).map(|i| c.points[i]).collect();
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
    }
}
