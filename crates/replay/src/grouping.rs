//! Fine-grained table grouping (component ③ of the AETS architecture).
//!
//! Tables are split into *groups*; each group gets its own task queue,
//! commit-order queue, one committer at a time, and group commit timestamp.
//! Hot groups (tables read by analytical queries) replay in stage 1 of
//! each epoch, cold groups in stage 2.
//!
//! Grouping policies mirror Section IV-A: one group per table, a
//! DBSCAN-style clustering of tables by (predicted) access rate, or the
//! paper's hand-specified groups for TPC-C.

use aets_common::{Error, FxHashSet, GroupId, Result, TableId};

/// A materialized grouping of tables.
#[derive(Debug, Clone, PartialEq)]
pub struct TableGrouping {
    /// Member tables of each group.
    groups: Vec<Vec<TableId>>,
    /// Whether each group is hot (stage 1) or cold (stage 2).
    hot: Vec<bool>,
    /// Access rate of each group (queries per time unit over its tables).
    rates: Vec<f64>,
    /// Table id -> group id.
    table_to_group: Vec<GroupId>,
}

impl TableGrouping {
    /// Builds a grouping from explicit groups.
    ///
    /// * `groups[i]` — tables of group `i`; every table in `0..num_tables`
    ///   must appear exactly once.
    /// * `rates[i]` — the group's table access rate `r` (used for the
    ///   urgency factor and for hot/cold classification).
    /// * `hot_tables` — tables read by analytical queries; a group is hot
    ///   iff it contains at least one.
    pub fn new(
        num_tables: usize,
        groups: Vec<Vec<TableId>>,
        rates: Vec<f64>,
        hot_tables: &FxHashSet<TableId>,
    ) -> Result<Self> {
        if groups.len() != rates.len() {
            return Err(Error::Config(format!(
                "{} groups but {} rates",
                groups.len(),
                rates.len()
            )));
        }
        let mut table_to_group = vec![None; num_tables];
        for (gid, members) in groups.iter().enumerate() {
            if members.is_empty() {
                return Err(Error::Config(format!("group {gid} is empty")));
            }
            for t in members {
                let slot = table_to_group
                    .get_mut(t.index())
                    .ok_or_else(|| Error::Config(format!("{t} out of range")))?;
                if slot.is_some() {
                    return Err(Error::Config(format!("{t} assigned to two groups")));
                }
                *slot = Some(GroupId::new(gid as u32));
            }
        }
        let table_to_group: Vec<GroupId> = table_to_group
            .into_iter()
            .enumerate()
            .map(|(t, g)| g.ok_or_else(|| Error::Config(format!("table {t} unassigned"))))
            .collect::<Result<_>>()?;
        let hot =
            groups.iter().map(|members| members.iter().any(|t| hot_tables.contains(t))).collect();
        Ok(Self { groups, hot, rates, table_to_group })
    }

    /// Single group holding every table (the ungrouped TPLR baseline).
    pub fn single(num_tables: usize, hot_tables: &FxHashSet<TableId>) -> Self {
        let all: Vec<TableId> = (0..num_tables as u32).map(TableId::new).collect();
        Self::new(num_tables, vec![all], vec![1.0], hot_tables)
            .expect("single grouping is always valid")
    }

    /// One group per table; rate per table supplied by `rate_of`.
    pub fn per_table(
        num_tables: usize,
        hot_tables: &FxHashSet<TableId>,
        mut rate_of: impl FnMut(TableId) -> f64,
    ) -> Self {
        let groups: Vec<Vec<TableId>> =
            (0..num_tables as u32).map(|t| vec![TableId::new(t)]).collect();
        let rates = (0..num_tables as u32).map(|t| rate_of(TableId::new(t))).collect();
        Self::new(num_tables, groups, rates, hot_tables)
            .expect("per-table grouping is always valid")
    }

    /// Clusters tables by access rate with [`dbscan_1d`]; hot tables are
    /// clustered, cold tables merged into one catch-all cold group.
    ///
    /// `eps` is the relative rate distance for DBSCAN (e.g. 0.25 groups
    /// tables within 25 % of each other).
    ///
    /// Errors on a NaN rate (the predictor handed back garbage) — the
    /// caller decides whether to keep the previous grouping or abort,
    /// rather than this panicking inside a replay thread.
    pub fn dbscan(
        num_tables: usize,
        hot_tables: &FxHashSet<TableId>,
        rate_of: impl Fn(TableId) -> f64,
        eps: f64,
    ) -> Result<Self> {
        let mut hot: Vec<(TableId, f64)> = (0..num_tables as u32)
            .map(TableId::new)
            .filter(|t| hot_tables.contains(t))
            .map(|t| (t, rate_of(t)))
            .collect();
        if let Some((t, _)) = hot.iter().find(|(_, r)| r.is_nan()) {
            return Err(Error::Config(format!("NaN access rate for {t}")));
        }
        hot.sort_by(|a, b| a.1.total_cmp(&b.1));
        let labels = dbscan_1d(&hot.iter().map(|(_, r)| r.ln_1p()).collect::<Vec<_>>(), eps, 1);
        let num_clusters = labels.iter().flatten().copied().max().map_or(0, |m| m + 1);
        let mut groups: Vec<Vec<TableId>> = vec![Vec::new(); num_clusters];
        let mut sums = vec![0.0f64; num_clusters];
        for ((t, r), l) in hot.iter().zip(&labels) {
            match l {
                Some(l) => {
                    groups[*l].push(*t);
                    sums[*l] += *r;
                }
                // Noise under a stricter min_pts: every table still needs
                // a group, so an outlier becomes a singleton group.
                None => {
                    groups.push(vec![*t]);
                    sums.push(*r);
                }
            }
        }
        let mut rates: Vec<f64> =
            sums.iter().zip(&groups).map(|(s, g)| s / g.len() as f64).collect();
        let cold: Vec<TableId> =
            (0..num_tables as u32).map(TableId::new).filter(|t| !hot_tables.contains(t)).collect();
        if !cold.is_empty() {
            groups.push(cold);
            rates.push(0.0);
        }
        Self::new(num_tables, groups, rates, hot_tables)
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of tables this grouping partitions.
    pub fn num_tables(&self) -> usize {
        self.table_to_group.len()
    }

    /// Group of `table`.
    pub fn group_of(&self, table: TableId) -> GroupId {
        self.table_to_group[table.index()]
    }

    /// Member tables of `group`.
    pub fn members(&self, group: GroupId) -> &[TableId] {
        &self.groups[group.index()]
    }

    /// Whether `group` is hot (replayed in stage 1).
    pub fn is_hot(&self, group: GroupId) -> bool {
        self.hot[group.index()]
    }

    /// Access rate of `group`.
    pub fn rate(&self, group: GroupId) -> f64 {
        self.rates[group.index()]
    }

    /// Group ids of all hot groups.
    pub fn hot_groups(&self) -> Vec<GroupId> {
        (0..self.groups.len() as u32).map(GroupId::new).filter(|g| self.is_hot(*g)).collect()
    }

    /// Group ids of all cold groups.
    pub fn cold_groups(&self) -> Vec<GroupId> {
        (0..self.groups.len() as u32).map(GroupId::new).filter(|g| !self.is_hot(*g)).collect()
    }

    /// Groups accessed by a query footprint.
    pub fn groups_of(&self, tables: &[TableId]) -> Vec<GroupId> {
        let mut gids: Vec<GroupId> = tables.iter().map(|t| self.group_of(*t)).collect();
        gids.sort();
        gids.dedup();
        gids
    }
}

/// 1-D DBSCAN over sorted points: returns a cluster label per point,
/// `None` for noise.
///
/// The real density rule, not just gap splitting: a point is a *core*
/// when at least `min_pts` points (itself included) lie within `eps` of
/// it. Cores within `eps` of each other chain into one cluster; a
/// non-core point joins its nearest core's cluster when one is within
/// `eps` (a *border* point) and is labelled `None` (noise) otherwise.
/// With `min_pts <= 1` every point is core and the rule degenerates to
/// splitting on gaps wider than `eps` — the previous behaviour, which
/// silently ignored `min_pts` and glued sparse outliers into clusters.
pub fn dbscan_1d(sorted_points: &[f64], eps: f64, min_pts: usize) -> Vec<Option<usize>> {
    let n = sorted_points.len();
    let mut labels: Vec<Option<usize>> = vec![None; n];
    // Two-pointer eps-neighbourhood counts over the sorted input.
    let mut core = vec![false; n];
    let (mut lo, mut hi) = (0usize, 0usize);
    for i in 0..n {
        while sorted_points[i] - sorted_points[lo] > eps {
            lo += 1;
        }
        while hi + 1 < n && sorted_points[hi + 1] - sorted_points[i] <= eps {
            hi += 1;
        }
        core[i] = hi - lo + 1 >= min_pts.max(1);
    }
    // Chain density-connected cores: consecutive cores at most eps apart
    // share a cluster.
    let mut next = 0usize;
    let mut prev_core: Option<usize> = None;
    for i in 0..n {
        if !core[i] {
            continue;
        }
        match prev_core {
            Some(p) if sorted_points[i] - sorted_points[p] <= eps => labels[i] = labels[p],
            _ => {
                labels[i] = Some(next);
                next += 1;
            }
        }
        prev_core = Some(i);
    }
    // Border points adopt the nearest in-range core's label; the rest
    // stay noise.
    for i in 0..n {
        if core[i] {
            continue;
        }
        let left = (0..i)
            .rev()
            .take_while(|&j| sorted_points[i] - sorted_points[j] <= eps)
            .find(|&j| core[j]);
        let right = (i + 1..n)
            .take_while(|&j| sorted_points[j] - sorted_points[i] <= eps)
            .find(|&j| core[j]);
        labels[i] = match (left, right) {
            (Some(l), Some(r)) => {
                if sorted_points[i] - sorted_points[l] <= sorted_points[r] - sorted_points[i] {
                    labels[l]
                } else {
                    labels[r]
                }
            }
            (Some(l), None) => labels[l],
            (None, Some(r)) => labels[r],
            (None, None) => None,
        };
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hotset(ids: &[u32]) -> FxHashSet<TableId> {
        ids.iter().map(|i| TableId::new(*i)).collect()
    }

    #[test]
    fn explicit_grouping_maps_tables() {
        let g = TableGrouping::new(
            4,
            vec![
                vec![TableId::new(0), TableId::new(2)],
                vec![TableId::new(1)],
                vec![TableId::new(3)],
            ],
            vec![10.0, 5.0, 0.0],
            &hotset(&[0, 1]),
        )
        .unwrap();
        assert_eq!(g.num_groups(), 3);
        assert_eq!(g.group_of(TableId::new(2)), GroupId::new(0));
        assert!(g.is_hot(GroupId::new(0)));
        assert!(g.is_hot(GroupId::new(1)));
        assert!(!g.is_hot(GroupId::new(2)));
        assert_eq!(g.hot_groups().len(), 2);
        assert_eq!(g.cold_groups(), vec![GroupId::new(2)]);
    }

    #[test]
    fn rejects_missing_and_duplicate_tables() {
        // Table 1 unassigned.
        assert!(
            TableGrouping::new(2, vec![vec![TableId::new(0)]], vec![1.0], &hotset(&[]),).is_err()
        );
        // Table 0 twice.
        assert!(TableGrouping::new(
            2,
            vec![vec![TableId::new(0)], vec![TableId::new(0), TableId::new(1)]],
            vec![1.0, 1.0],
            &hotset(&[]),
        )
        .is_err());
        // Out-of-range table.
        assert!(TableGrouping::new(
            1,
            vec![vec![TableId::new(0), TableId::new(5)]],
            vec![1.0],
            &hotset(&[]),
        )
        .is_err());
    }

    #[test]
    fn single_and_per_table_groupings() {
        let s = TableGrouping::single(5, &hotset(&[1]));
        assert_eq!(s.num_groups(), 1);
        assert!(s.is_hot(GroupId::new(0)));

        let p = TableGrouping::per_table(3, &hotset(&[2]), |t| t.raw() as f64);
        assert_eq!(p.num_groups(), 3);
        assert_eq!(p.rate(GroupId::new(2)), 2.0);
        assert_eq!(p.hot_groups(), vec![GroupId::new(2)]);
    }

    #[test]
    fn dbscan_splits_on_gaps() {
        let labels = dbscan_1d(&[1.0, 1.1, 1.2, 5.0, 5.1, 20.0], 0.5, 1);
        assert_eq!(
            labels,
            vec![Some(0), Some(0), Some(0), Some(1), Some(1), Some(2)],
            "min_pts=1 keeps the pure gap-splitting behaviour"
        );
    }

    #[test]
    fn dbscan_min_pts_marks_sparse_points_as_noise() {
        // Regression: min_pts used to be silently ignored, so the lone
        // point at 20.0 was emitted as its own "cluster" and a straggler
        // at 5.8 glued onto the {5.0, 5.1, 5.2} cluster even under a
        // density requirement it cannot meet.
        let pts = [1.0, 1.1, 1.2, 5.0, 5.1, 5.2, 5.8, 20.0];
        let labels = dbscan_1d(&pts, 0.5, 3);
        // Dense triplets survive as clusters.
        assert_eq!(&labels[..3], &[Some(0), Some(0), Some(0)]);
        assert_eq!(&labels[3..6], &[Some(1), Some(1), Some(1)]);
        // 5.8 is no core (only {5.8} within 0.5... plus 5.3? no: [5.3,6.3]
        // holds just itself) but sits within eps of nothing core-like
        // either: nearest core 5.2 is 0.6 away -> noise.
        assert_eq!(labels[6], None, "straggler must not join the cluster");
        // The isolated point has a 1-point neighbourhood -> noise.
        assert_eq!(labels[7], None, "lone outlier must be noise, not a cluster");

        // A border point (non-core, but within eps of a core) still joins:
        // 1.55 sees only {1.1, 1.55} in its eps-ball (not core), yet the
        // core 1.1 reaches it.
        let pts = [1.0, 1.05, 1.1, 1.55];
        let labels = dbscan_1d(&pts, 0.5, 3);
        assert_eq!(labels, vec![Some(0), Some(0), Some(0), Some(0)], "border point joins");

        // Two dense runs bridged only by a non-core point stay separate
        // clusters; the bridge becomes a border of the nearer one. (2.0
        // sees just {1.3, 2.0, 2.7} — three points, below min_pts=4 — so
        // it cannot density-connect the runs.)
        let pts = [1.0, 1.1, 1.2, 1.3, 2.0, 2.7, 2.8, 2.9, 3.0];
        let labels = dbscan_1d(&pts, 0.7, 4);
        assert_eq!(&labels[..4], &[Some(0), Some(0), Some(0), Some(0)]);
        assert_eq!(&labels[5..], &[Some(1), Some(1), Some(1), Some(1)]);
        assert_eq!(labels[4], Some(0), "bridge adopts its nearest core's cluster");
    }

    #[test]
    fn dbscan_grouping_clusters_similar_rates() {
        // Tables 0-2 hot with similar rates, 3 hot with a very different
        // rate, 4-5 cold.
        let rates = [10.0, 11.0, 10.5, 500.0, 0.0, 0.0];
        let g =
            TableGrouping::dbscan(6, &hotset(&[0, 1, 2, 3]), |t| rates[t.index()], 0.3).unwrap();
        // Expect: one cluster {0,1,2}, one {3}, one cold {4,5}.
        assert_eq!(g.num_groups(), 3);
        assert_eq!(g.group_of(TableId::new(0)), g.group_of(TableId::new(2)));
        assert_ne!(g.group_of(TableId::new(0)), g.group_of(TableId::new(3)));
        let cold_gid = g.group_of(TableId::new(4));
        assert!(!g.is_hot(cold_gid));
        assert_eq!(g.members(cold_gid).len(), 2);
    }

    #[test]
    fn groups_of_dedups() {
        let g = TableGrouping::single(4, &hotset(&[0]));
        let gids = g.groups_of(&[TableId::new(0), TableId::new(3), TableId::new(1)]);
        assert_eq!(gids.len(), 1);
    }
}
