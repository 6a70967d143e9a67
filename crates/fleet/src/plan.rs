//! Shard placement: which table group lives on which backup shard.
//!
//! The fleet partitions the epoch stream *by table group*, never by
//! table: a group's committer, commit-order queue, and `tg_cmt_ts`
//! watermark are indivisible, so a group must land on exactly one shard
//! for Algorithm 3 to stay meaningful. Every shard still carries the
//! *full* global [`TableGrouping`] — groups it does not own simply never
//! receive DML and are advanced purely by heartbeats — which keeps the
//! per-shard visibility boards congruent (same group ids, same
//! `global_cmt_ts` trajectory) and lets a replacement shard be
//! bootstrapped from any checkpoint without a grouping translation step.

use aets_common::{Error, GroupId, Result, TableId};
use aets_replay::TableGrouping;

/// A placement of table groups onto `num_shards` backup shards.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    grouping: TableGrouping,
    /// Group index -> owning shard.
    assign: Vec<usize>,
    num_shards: usize,
}

impl ShardPlan {
    /// Builds a plan from an explicit `group -> shard` assignment.
    ///
    /// Every group must be assigned a shard `< num_shards`, and every
    /// shard must own at least one group (an idle shard would pin the
    /// fleet watermark at its last heartbeat forever for no benefit).
    pub fn new(grouping: TableGrouping, assign: Vec<usize>, num_shards: usize) -> Result<Self> {
        if num_shards == 0 {
            return Err(Error::Config("fleet needs at least one shard".into()));
        }
        if assign.len() != grouping.num_groups() {
            return Err(Error::Config(format!(
                "{} groups but {} shard assignments",
                grouping.num_groups(),
                assign.len()
            )));
        }
        let mut owned = vec![false; num_shards];
        for (g, &s) in assign.iter().enumerate() {
            let slot = owned.get_mut(s).ok_or_else(|| {
                Error::Config(format!(
                    "group {g} assigned to shard {s}, but the fleet has {num_shards}"
                ))
            })?;
            *slot = true;
        }
        if let Some(idle) = owned.iter().position(|o| !o) {
            return Err(Error::Config(format!("shard {idle} owns no group")));
        }
        Ok(Self { grouping, assign, num_shards })
    }

    /// Greedy balanced placement: groups sorted by access rate
    /// (descending) are assigned to the least-loaded shard — the classic
    /// LPT heuristic, so the hottest groups spread across shards first.
    pub fn balanced(grouping: TableGrouping, num_shards: usize) -> Result<Self> {
        if num_shards == 0 {
            return Err(Error::Config("fleet needs at least one shard".into()));
        }
        if grouping.num_groups() < num_shards {
            return Err(Error::Config(format!(
                "{} groups cannot cover {num_shards} shards",
                grouping.num_groups()
            )));
        }
        let mut order: Vec<usize> = (0..grouping.num_groups()).collect();
        order.sort_by(|&a, &b| {
            let (ra, rb) =
                (grouping.rate(GroupId::new(a as u32)), grouping.rate(GroupId::new(b as u32)));
            rb.partial_cmp(&ra).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
        });
        let mut load = vec![0.0f64; num_shards];
        let mut count = vec![0usize; num_shards];
        let mut assign = vec![0usize; grouping.num_groups()];
        for g in order {
            // Least-loaded shard; break rate ties by group count, then id,
            // so placement is fully deterministic.
            let s = (0..num_shards)
                .min_by(|&a, &b| {
                    load[a]
                        .partial_cmp(&load[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(count[a].cmp(&count[b]))
                        .then(a.cmp(&b))
                })
                .unwrap_or(0);
            assign[g] = s;
            load[s] += grouping.rate(GroupId::new(g as u32));
            count[s] += 1;
        }
        Self::new(grouping, assign, num_shards)
    }

    /// Number of shards in the fleet.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The fleet-wide grouping every shard runs.
    pub fn grouping(&self) -> &TableGrouping {
        &self.grouping
    }

    /// Total tables across all groups (every table appears exactly once).
    pub fn num_tables(&self) -> usize {
        (0..self.grouping.num_groups())
            .map(|g| self.grouping.members(GroupId::new(g as u32)).len())
            .sum()
    }

    /// Owning shard of `group`.
    pub fn shard_of_group(&self, group: GroupId) -> usize {
        self.assign[group.index()]
    }

    /// Owning shard of `table`.
    pub fn shard_of_table(&self, table: TableId) -> usize {
        self.shard_of_group(self.grouping.group_of(table))
    }

    /// Groups owned by `shard` (ascending).
    pub fn groups_on(&self, shard: usize) -> Vec<GroupId> {
        self.assign
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == shard)
            .map(|(g, _)| GroupId::new(g as u32))
            .collect()
    }

    /// Tables owned by `shard` (ascending).
    pub fn tables_on(&self, shard: usize) -> Vec<TableId> {
        let mut out: Vec<TableId> = self
            .groups_on(shard)
            .into_iter()
            .flat_map(|g| self.grouping.members(g).iter().copied())
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aets_common::FxHashSet;

    fn grouping() -> TableGrouping {
        // 4 groups over 6 tables with distinct rates.
        TableGrouping::new(
            6,
            vec![
                vec![TableId::new(0), TableId::new(1)],
                vec![TableId::new(2)],
                vec![TableId::new(3), TableId::new(4)],
                vec![TableId::new(5)],
            ],
            vec![100.0, 50.0, 10.0, 1.0],
            &[TableId::new(0)].into_iter().collect::<FxHashSet<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn explicit_plan_routes_groups_and_tables() {
        let p = ShardPlan::new(grouping(), vec![0, 1, 0, 1], 2).unwrap();
        assert_eq!(p.num_shards(), 2);
        assert_eq!(p.num_tables(), 6);
        assert_eq!(p.shard_of_group(GroupId::new(2)), 0);
        assert_eq!(p.shard_of_table(TableId::new(2)), 1);
        assert_eq!(p.groups_on(1), vec![GroupId::new(1), GroupId::new(3)]);
        assert_eq!(p.tables_on(1), vec![TableId::new(2), TableId::new(5)]);
    }

    #[test]
    fn rejects_idle_and_out_of_range_shards() {
        assert!(ShardPlan::new(grouping(), vec![0, 0, 0, 0], 2).is_err(), "shard 1 idle");
        assert!(ShardPlan::new(grouping(), vec![0, 1, 2, 1], 2).is_err(), "shard 2 out of range");
        assert!(ShardPlan::new(grouping(), vec![0, 1], 2).is_err(), "length mismatch");
        assert!(ShardPlan::new(grouping(), vec![], 0).is_err(), "zero shards");
    }

    #[test]
    fn balanced_spreads_hot_groups_first() {
        let p = ShardPlan::balanced(grouping(), 2).unwrap();
        // Hottest two groups (rates 100, 50) must land on different shards.
        assert_ne!(p.shard_of_group(GroupId::new(0)), p.shard_of_group(GroupId::new(1)));
        // Deterministic: same inputs, same plan.
        let q = ShardPlan::balanced(grouping(), 2).unwrap();
        assert_eq!(
            (0..4).map(|g| p.shard_of_group(GroupId::new(g))).collect::<Vec<_>>(),
            (0..4).map(|g| q.shard_of_group(GroupId::new(g))).collect::<Vec<_>>()
        );
    }

    #[test]
    fn balanced_rejects_more_shards_than_groups() {
        assert!(ShardPlan::balanced(grouping(), 5).is_err());
    }
}
