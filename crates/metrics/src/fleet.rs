//! Fleet-level health aggregation for the sharded measurement pipeline.
//!
//! A sharded deployment runs one supervised daemon per core; each reports
//! its own [`DaemonHealth`]. The fleet view sums them: because every shard
//! maintains `offered == processed + dropped + lost_in_crash` over its own
//! slice of the dispatched traffic, the same identity holds for the sums —
//! a non-zero [`FleetHealth::unaccounted`] pinpoints real silent loss, not
//! an artifact of aggregation.

use crate::health::DaemonHealth;
use crate::table::Table;

/// Per-shard health records plus their field-wise total.
///
/// Live shards are indexed by shard id; *retired* records preserve the
/// counters of daemons that no longer run — failed primaries replaced by a
/// promoted successor, or old shards drained away by an online rescale. Their
/// observations already happened, so dropping them would break the fleet
/// identity; [`FleetHealth::total`] sums live and retired alike.
#[derive(Clone, Debug, Default)]
pub struct FleetHealth {
    shards: Vec<DaemonHealth>,
    retired: Vec<DaemonHealth>,
}

impl FleetHealth {
    /// An empty fleet (no shards reported yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from per-shard records, indexed by shard id.
    pub fn from_shards(shards: Vec<DaemonHealth>) -> Self {
        Self {
            shards,
            retired: Vec::new(),
        }
    }

    /// Append one shard's record (shard id = position).
    pub fn push(&mut self, health: DaemonHealth) {
        self.shards.push(health);
    }

    /// Append the final record of a daemon that no longer runs (a replaced
    /// primary or a rescaled-away shard) — keeps its slice of the traffic
    /// in the fleet totals without occupying a live shard id.
    pub fn push_retired(&mut self, health: DaemonHealth) {
        self.retired.push(health);
    }

    /// Per-shard records, indexed by shard id.
    pub fn shards(&self) -> &[DaemonHealth] {
        &self.shards
    }

    /// Records of retired daemons (replaced primaries, drained shards).
    pub fn retired(&self) -> &[DaemonHealth] {
        &self.retired
    }

    /// Shards reported.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when no shard has reported.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Field-wise sum over every shard, live and retired.
    pub fn total(&self) -> DaemonHealth {
        let mut t = DaemonHealth::new();
        for s in self.shards.iter().chain(&self.retired) {
            t.absorb(s);
        }
        t
    }

    /// Fleet-wide observations with no recorded fate — zero iff every
    /// shard's accounting identity holds.
    pub fn unaccounted(&self) -> u64 {
        self.total().unaccounted()
    }

    /// Fleet-wide delivery ratio (processed / offered over all shards).
    pub fn delivery_ratio(&self) -> f64 {
        self.total().delivery_ratio()
    }

    /// True when no shard needed any recovery action.
    pub fn is_clean(&self) -> bool {
        self.shards.iter().all(DaemonHealth::is_clean)
    }

    /// Shard ids that needed recovery (restart, stall, drop, or crash
    /// loss) — the coordinator's short list for operator attention.
    pub fn degraded_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_clean())
            .map(|(i, _)| i)
            .collect()
    }

    /// Render one row per shard plus a `total` row.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "fleet health",
            &[
                "shard",
                "offered",
                "processed",
                "dropped",
                "lost",
                "unacct",
                "restarts",
                "stalls",
                "ckpts",
                "persisted",
                "restores",
                "downshifts",
            ],
        );
        let mut row = |label: String, h: &DaemonHealth| {
            t.row(&[
                label,
                h.offered.to_string(),
                h.processed.to_string(),
                h.dropped.to_string(),
                h.lost_in_crash.to_string(),
                h.unaccounted().to_string(),
                h.restarts.to_string(),
                h.stalls.to_string(),
                h.checkpoints.to_string(),
                h.persisted.to_string(),
                h.restores.to_string(),
                h.downshifts.to_string(),
            ]);
        };
        for (i, s) in self.shards.iter().enumerate() {
            row(i.to_string(), s);
        }
        for (i, s) in self.retired.iter().enumerate() {
            row(format!("retired-{i}"), s);
        }
        row("total".to_string(), &self.total());
        t
    }
}

impl std::fmt::Display for FleetHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_table().render())
    }
}

impl FromIterator<DaemonHealth> for FleetHealth {
    fn from_iter<I: IntoIterator<Item = DaemonHealth>>(iter: I) -> Self {
        Self::from_shards(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(offered: u64, processed: u64, dropped: u64, lost: u64) -> DaemonHealth {
        DaemonHealth {
            offered,
            processed,
            dropped,
            lost_in_crash: lost,
            ..Default::default()
        }
    }

    #[test]
    fn total_is_field_wise_sum_and_identity_holds() {
        let fleet = FleetHealth::from_shards(vec![
            shard(100, 90, 10, 0),
            shard(200, 150, 20, 30),
            shard(50, 50, 0, 0),
        ]);
        let t = fleet.total();
        assert_eq!(t.offered, 350);
        assert_eq!(t.processed, 290);
        assert_eq!(t.dropped, 30);
        assert_eq!(t.lost_in_crash, 30);
        assert_eq!(fleet.unaccounted(), 0);
        assert!((fleet.delivery_ratio() - 290.0 / 350.0).abs() < 1e-12);
    }

    #[test]
    fn one_leaky_shard_surfaces_in_the_fleet_total() {
        let fleet = FleetHealth::from_shards(vec![
            shard(100, 100, 0, 0),
            shard(100, 93, 0, 0), // 7 silently vanished on this shard
        ]);
        assert_eq!(fleet.unaccounted(), 7);
    }

    #[test]
    fn degraded_shards_lists_only_unclean_ones() {
        let mut restarted = shard(10, 10, 0, 0);
        restarted.restarts = 2;
        let fleet = FleetHealth::from_shards(vec![
            shard(10, 10, 0, 0),
            restarted,
            shard(10, 8, 2, 0), // drops
            shard(10, 10, 0, 0),
        ]);
        assert!(!fleet.is_clean());
        assert_eq!(fleet.degraded_shards(), vec![1, 2]);
    }

    #[test]
    fn empty_fleet_is_clean_with_zero_total() {
        let fleet = FleetHealth::new();
        assert!(fleet.is_empty());
        assert!(fleet.is_clean());
        assert_eq!(fleet.total(), DaemonHealth::new());
        assert_eq!(fleet.delivery_ratio(), 1.0);
    }

    #[test]
    fn table_has_one_row_per_shard_plus_total() {
        let fleet = FleetHealth::from_shards(vec![shard(1, 1, 0, 0); 3]);
        assert_eq!(fleet.to_table().len(), 4);
        let rendered = fleet.to_table().render();
        assert!(rendered.contains("total"));
    }

    #[test]
    fn retired_records_count_toward_the_total_but_not_shard_ids() {
        let mut fleet = FleetHealth::from_shards(vec![shard(100, 100, 0, 0)]);
        fleet.push_retired(shard(50, 30, 0, 20)); // a replaced primary
        assert_eq!(fleet.len(), 1, "retired records hold no live shard id");
        assert_eq!(fleet.retired().len(), 1);
        assert_eq!(fleet.total().offered, 150);
        assert_eq!(fleet.total().lost_in_crash, 20);
        assert_eq!(fleet.unaccounted(), 0, "retired traffic stays accounted");
        let rendered = fleet.to_table().render();
        assert!(
            rendered.contains("retired-0"),
            "retired row rendered:\n{rendered}"
        );
    }

    #[test]
    fn collectable_from_iterator() {
        let fleet: FleetHealth = (0..4).map(|i| shard(i, i, 0, 0)).collect();
        assert_eq!(fleet.len(), 4);
        assert_eq!(fleet.total().offered, 6);
    }
}
