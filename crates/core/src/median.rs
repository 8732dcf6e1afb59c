//! Weighted-median center computation.
//!
//! Under the L1 metric the optimal center's x and y coordinates decouple:
//! each is a weighted median of the axis-projected reference positions.
//! This solver runs in `O(r log r)` for `r` distinct referencing
//! processors, *independent of grid size* — the right tool when the
//! processor array is large and references are sparse (the PetaFlop design
//! point contemplated thousands of PIM nodes).
//!
//! Note the subtlety: the weighted median is an *interval* when total
//! weight splits evenly. [`optimal_center`](crate::cost::optimal_center)
//! breaks ties by lowest processor id; to stay bit-identical this solver
//! picks the lowest median coordinate on each axis, which corresponds to
//! the same rule (property-tested in `tests/`).

use pim_array::grid::{Grid, ProcId};
use pim_trace::window::WindowRefs;

/// Lowest position minimizing `Σ w_i · |pos − x_i|`, i.e. the smallest
/// weighted median of `(position, weight)` pairs. Returns 0 for an empty
/// (or zero-weight) input, matching the cost-table tie-break for empty
/// reference strings.
pub fn weighted_median(pairs: &mut [(u32, u64)]) -> u32 {
    if pairs.is_empty() {
        return 0;
    }
    pairs.sort_unstable_by_key(|&(pos, _)| pos);
    let total: u64 = pairs.iter().map(|&(_, w)| w).sum();
    if total == 0 {
        return 0;
    }
    // The smallest position where cumulative weight reaches half the total
    // weight is the left end of the median interval. With an even split
    // (2·cum == total exactly) every position between this one and the next
    // weighted point is optimal; the smallest is this one.
    let mut cum = 0u64;
    for &(pos, w) in pairs.iter() {
        cum += w;
        if 2 * cum >= total {
            return pos;
        }
    }
    pairs.last().expect("non-empty").0
}

/// [`weighted_median`] over a dense weight array: `weights[p]` is the
/// weight at position `p`. Same tie-break (smallest median position) and
/// empty-input rule; `O(len)` with no sort.
pub fn dense_weighted_median(weights: &[u64]) -> u32 {
    let total: u64 = weights.iter().sum();
    if total == 0 {
        return 0;
    }
    let mut cum = 0u64;
    for (pos, &w) in weights.iter().enumerate() {
        cum += w;
        if 2 * cum >= total {
            return pos as u32;
        }
    }
    weights.len().saturating_sub(1) as u32
}

/// Incrementally maintained weighted median along one axis.
///
/// Holds a weight histogram over positions `0..len` plus a cursor `at`
/// with the weight mass strictly below it, so the current smallest
/// weighted median is readable without re-scanning: after each
/// [`add`](AxisMedianState::add)/[`remove`](AxisMedianState::remove) the
/// cursor walks only as far as the median actually moved. A full window
/// sweep (add a window's references, read, remove them) therefore costs
/// `O(refs + moved positions)` amortized instead of re-sorting per window
/// — the `O(w²·span) → O(w·span)` step of the scale-out path.
///
/// The median definition matches [`weighted_median`] exactly: the smallest
/// position `p` with `2·(weight ≤ p) ≥ total`, and 0 when the total weight
/// is zero (property-tested against the scan solver in
/// `tests/cache_equivalence.rs`).
#[derive(Debug, Clone, Default)]
pub struct AxisMedianState {
    hist: Vec<u64>,
    total: u64,
    /// Weight mass at positions `< at`.
    below: u64,
    at: usize,
}

impl AxisMedianState {
    /// Reset for an axis of `len` positions, clearing all weight.
    pub fn reset(&mut self, len: usize) {
        self.hist.clear();
        self.hist.resize(len, 0);
        self.total = 0;
        self.below = 0;
        self.at = 0;
    }

    /// Add `w` weight at `pos`.
    #[inline]
    pub fn add(&mut self, pos: u32, w: u64) {
        let pos = pos as usize;
        self.hist[pos] += w;
        self.total += w;
        if pos < self.at {
            self.below += w;
        }
    }

    /// Remove `w` weight at `pos` (must have been added before).
    #[inline]
    pub fn remove(&mut self, pos: u32, w: u64) {
        let pos = pos as usize;
        self.hist[pos] -= w;
        self.total -= w;
        if pos < self.at {
            self.below -= w;
        }
    }

    /// Total weight currently held.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The smallest weighted median of the current weights (0 when empty),
    /// walking the cursor from its previous resting point.
    pub fn median(&mut self) -> u32 {
        if self.total == 0 {
            return 0;
        }
        // Down: while `at` itself already satisfies the half-weight rule
        // without hist[at..], the median is at or below `at - 1`.
        while self.at > 0 && 2 * self.below >= self.total {
            self.at -= 1;
            self.below -= self.hist[self.at];
        }
        // Up: advance until cumulative weight through `at` reaches half.
        while 2 * (self.below + self.hist[self.at]) < self.total {
            self.below += self.hist[self.at];
            self.at += 1;
        }
        self.at as u32
    }
}

/// Two-axis incremental median: the L1-optimal center decouples per axis,
/// so one [`AxisMedianState`] per grid axis tracks the current optimal
/// center of whatever reference set has been [`add`](MedianState::add)ed.
/// Tie-breaks match [`crate::cost::optimal_center`] (lowest processor id).
#[derive(Debug, Clone, Default)]
pub struct MedianState {
    /// Column-axis weights.
    pub x: AxisMedianState,
    /// Row-axis weights.
    pub y: AxisMedianState,
}

impl MedianState {
    /// Reset both axes for `grid`, clearing all weight.
    pub fn reset(&mut self, grid: &Grid) {
        self.x.reset(grid.width() as usize);
        self.y.reset(grid.height() as usize);
    }

    /// Add a reference of weight `count` at grid position `(x, y)`.
    #[inline]
    pub fn add(&mut self, x: u32, y: u32, count: u64) {
        self.x.add(x, count);
        self.y.add(y, count);
    }

    /// Remove a previously added reference.
    #[inline]
    pub fn remove(&mut self, x: u32, y: u32, count: u64) {
        self.x.remove(x, count);
        self.y.remove(y, count);
    }

    /// True when no weight is currently held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.x.total() == 0
    }

    /// The optimal center of the current reference set (`P0` when empty).
    #[inline]
    pub fn center(&mut self, grid: &Grid) -> ProcId {
        let x = self.x.median();
        let y = self.y.median();
        grid.proc_xy(x, y)
    }
}

/// Optimal center via per-axis weighted medians, with the same tie-break as
/// [`crate::cost::optimal_center`] (lowest processor id).
pub fn median_center(grid: &Grid, refs: &WindowRefs) -> ProcId {
    let mut xs: Vec<(u32, u64)> = Vec::with_capacity(refs.num_procs());
    let mut ys: Vec<(u32, u64)> = Vec::with_capacity(refs.num_procs());
    for r in refs.iter() {
        let p = grid.point_of(r.proc);
        xs.push((p.x, r.count as u64));
        ys.push((p.y, r.count as u64));
    }
    let x = weighted_median(&mut xs);
    let y = weighted_median(&mut ys);
    grid.proc_xy(x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{cost_at, optimal_center};

    #[test]
    fn median_simple() {
        assert_eq!(weighted_median(&mut [(5, 1)]), 5);
        assert_eq!(weighted_median(&mut [(0, 1), (10, 1)]), 0); // interval [0,10], pick lowest
        assert_eq!(weighted_median(&mut [(0, 1), (10, 3)]), 10);
        assert_eq!(weighted_median(&mut [(0, 3), (10, 1)]), 0);
        assert_eq!(weighted_median(&mut []), 0);
        assert_eq!(weighted_median(&mut [(4, 0)]), 0);
    }

    #[test]
    fn median_unsorted_input() {
        assert_eq!(weighted_median(&mut [(9, 1), (2, 1), (5, 1)]), 5);
    }

    #[test]
    fn median_center_matches_table_solver() {
        let grid = Grid::new(6, 5);
        let cases: Vec<WindowRefs> = vec![
            WindowRefs::from_pairs([(grid.proc_xy(0, 0), 1)]),
            WindowRefs::from_pairs([(grid.proc_xy(0, 0), 1), (grid.proc_xy(5, 4), 1)]),
            WindowRefs::from_pairs([
                (grid.proc_xy(1, 2), 3),
                (grid.proc_xy(4, 0), 2),
                (grid.proc_xy(2, 4), 5),
            ]),
            WindowRefs::new(),
        ];
        for refs in &cases {
            let fast = median_center(&grid, refs);
            let (table, best_cost) = optimal_center(&grid, refs);
            assert_eq!(
                cost_at(&grid, refs, fast),
                best_cost,
                "median center must achieve optimal cost"
            );
            assert_eq!(fast, table, "tie-break must agree");
        }
    }

    #[test]
    fn median_center_empty_refs_origin() {
        let grid = Grid::new(4, 4);
        assert_eq!(median_center(&grid, &WindowRefs::new()), grid.proc_xy(0, 0));
    }

    #[test]
    fn incremental_axis_median_matches_scan() {
        // Drive the state through an add/remove sequence and check every
        // intermediate median against the scan solver over the live set.
        let ops: Vec<(bool, u32, u64)> = vec![
            (true, 5, 1),
            (true, 0, 1),
            (true, 9, 3),
            (false, 5, 1),
            (true, 2, 2),
            (true, 2, 4),
            (false, 9, 3),
            (false, 0, 1),
            (false, 2, 2),
            (false, 2, 4),
        ];
        let mut st = AxisMedianState::default();
        st.reset(12);
        let mut live: Vec<(u32, u64)> = Vec::new();
        for (add, pos, w) in ops {
            if add {
                st.add(pos, w);
                live.push((pos, w));
            } else {
                st.remove(pos, w);
                let i = live.iter().position(|&e| e == (pos, w)).unwrap();
                live.remove(i);
            }
            let mut pairs = live.clone();
            assert_eq!(
                st.median(),
                weighted_median(&mut pairs),
                "after ops ending ({add}, {pos}, {w})"
            );
        }
        assert_eq!(st.total(), 0);
    }

    #[test]
    fn median_state_sliding_window_sweep() {
        // The flat-path usage shape: per window, add the window's refs,
        // read the center, remove them — must equal the per-window scan.
        let grid = Grid::new(6, 5);
        let windows: Vec<WindowRefs> = vec![
            WindowRefs::from_pairs([(grid.proc_xy(1, 2), 3), (grid.proc_xy(4, 0), 2)]),
            WindowRefs::new(),
            WindowRefs::from_pairs([(grid.proc_xy(2, 4), 5)]),
            WindowRefs::from_pairs([(grid.proc_xy(0, 0), 1), (grid.proc_xy(5, 4), 1)]),
        ];
        let mut st = MedianState::default();
        st.reset(&grid);
        for refs in &windows {
            for r in refs.iter() {
                let p = grid.point_of(r.proc);
                st.add(p.x, p.y, r.count as u64);
            }
            if refs.is_empty() {
                assert!(st.is_empty());
            } else {
                assert_eq!(st.center(&grid), median_center(&grid, refs));
            }
            for r in refs.iter() {
                let p = grid.point_of(r.proc);
                st.remove(p.x, p.y, r.count as u64);
            }
        }
    }

    #[test]
    fn median_state_extending_range_matches_merged() {
        // SCDS shape: keep adding windows and read the running center of
        // the merged prefix.
        let grid = Grid::new(6, 5);
        let windows: Vec<WindowRefs> = vec![
            WindowRefs::from_pairs([(grid.proc_xy(5, 4), 2)]),
            WindowRefs::from_pairs([(grid.proc_xy(0, 1), 2)]),
            WindowRefs::from_pairs([(grid.proc_xy(3, 3), 1)]),
        ];
        let mut st = MedianState::default();
        st.reset(&grid);
        let mut merged = WindowRefs::new();
        for refs in &windows {
            for r in refs.iter() {
                let p = grid.point_of(r.proc);
                st.add(p.x, p.y, r.count as u64);
            }
            merged.merge(refs);
            assert_eq!(st.center(&grid), median_center(&grid, &merged));
        }
    }
}
