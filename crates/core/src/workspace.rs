//! Reusable scheduling workspace.
//!
//! Every scheduler in this crate needs the same small set of scratch
//! buffers: axis projections and sweep rows for cost tables
//! ([`crate::cost::AxisScratch`]), a cost-table output row, and the GOMCDS
//! layered-DP rows (`dp`, the current window's node costs, and the
//! distance-transform relaxation row). A [`Workspace`] bundles all of them
//! so a caller — or a long-lived worker thread in `pim-par`'s pool — can
//! allocate once and schedule many data with zero per-datum allocation.
//!
//! All buffers are plain `Vec`s that grow to the grid/trace size on first
//! use and are cleared (never shrunk) between uses, so contents never leak
//! between data: every fill path writes the full live region first.

use crate::cost::AxisScratch;
use pim_array::grid::ProcId;
use pim_metrics::Metrics;

/// Bundled scratch buffers for the hot scheduling path. Construct once per
/// thread and pass to the scheduling drivers.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Metrics sink the capacity replays record placements into.
    /// Disabled (a no-op) by default; [`crate::SchedContext::with_metrics`]
    /// installs an enabled handle.
    pub(crate) metrics: Metrics,
    /// Axis-projection and sweep buffers for separable cost tables.
    pub(crate) axes: AxisScratch,
    /// General cost-table output row (`m` entries).
    pub(crate) table: Vec<u64>,
    /// GOMCDS layered-DP rows, flattened `[w * m + k]`.
    pub(crate) dp: Vec<u64>,
    /// Node costs of the window currently being expanded.
    pub(crate) node: Vec<u64>,
    /// Distance-transform relaxation of the previous DP row.
    pub(crate) relaxed: Vec<u64>,
    /// Memoized node-cost rows of every layer, flattened `[w * m + k]`,
    /// filled during the GOMCDS forward pass so the backtrack never
    /// re-derives them.
    pub(crate) nodes_all: Vec<u64>,
    /// Incremental greedy grouping: per-window singleton optimal centers.
    pub(crate) win_centers: Vec<ProcId>,
    /// Incremental greedy grouping: per-window singleton optimal costs.
    pub(crate) win_costs: Vec<u64>,
    /// Incremental greedy grouping: `next_ref[j]` = first referenced
    /// window `≥ j` (`n` when none); `n + 1` entries.
    pub(crate) next_ref: Vec<usize>,
    /// Incremental greedy grouping: `tail[j]` = cost of scheduling windows
    /// `j..n` as singleton groups; `n + 1` entries.
    pub(crate) tail: Vec<u64>,
    /// Incremental GOMCDS-centre grouping: backward suffix DP, flattened
    /// `[(n + 1) layers × m]`.
    pub(crate) suffix_dp: Vec<u64>,
    /// Incremental GOMCDS-centre grouping: forward DP row of the group
    /// currently being grown.
    pub(crate) fwd: Vec<u64>,
    /// Incremental GOMCDS-centre grouping: forward DP row of the candidate
    /// extension (also reused as a sum scratch by the suffix pass).
    pub(crate) fwd_ext: Vec<u64>,
    /// Incremental GOMCDS-centre grouping: relaxation of the DP row after
    /// the last confirmed group.
    pub(crate) relaxed_prefix: Vec<u64>,
}

impl Workspace {
    /// A fresh workspace. Buffers grow lazily to the sizes the first
    /// scheduled trace needs.
    pub fn new() -> Self {
        Workspace::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_starts_empty() {
        let ws = Workspace::new();
        assert!(ws.table.is_empty());
        assert!(ws.dp.is_empty());
    }
}
