//! The communication cost model.
//!
//! `cost(D, T, p)` — the paper's *total communication cost of datum `D` in
//! execution window `T` when stored at processor `p`* — is the
//! volume-weighted Manhattan distance of every reference in the window:
//!
//! ```text
//! cost(D, T, p) = Σ_{(q, n) ∈ refs(D, T)}  n · dist(p, q)
//! ```
//!
//! Every scheduler needs this quantity *for every candidate processor*
//! (the paper's Algorithm 1 lines 2–4). Two implementations are provided:
//!
//! * [`cost_table_naive`] — the literal `O(m · r)` double loop (m
//!   processors, r distinct referencing processors).
//! * [`cost_table`] — `O(m + r + width + height)` via separability: under
//!   L1 the cost splits into independent x and y terms, each computable
//!   with prefix sums over the axis-projected reference weights.
//!
//! Both produce identical tables (property-tested), and the benches in
//! `pim-bench` quantify the gap (ablation A is about GOMCDS's analogous
//! trick; this one feeds SCDS/LOMCDS).

use pim_array::grid::{Grid, ProcId};
use pim_trace::window::{DataRefString, WindowRefs};

/// Sentinel "infinite" cost used to mask full processors in capacity-
/// constrained DPs. Chosen far below `u64::MAX` so sums never overflow.
pub const INF: u64 = u64::MAX / 8;

/// Cost of serving `refs` from a datum stored at `center`.
pub fn cost_at(grid: &Grid, refs: &WindowRefs, center: ProcId) -> u64 {
    let c = grid.point_of(center);
    refs.iter()
        .map(|r| r.count as u64 * grid.point_of(r.proc).l1_dist(c))
        .sum()
}

/// Literal per-candidate scan: `out[p] = cost_at(p)` for every processor.
/// Kept as the reference implementation and for the solver ablation.
pub fn cost_table_naive(grid: &Grid, refs: &WindowRefs, out: &mut Vec<u64>) {
    out.clear();
    out.extend(grid.procs().map(|p| cost_at(grid, refs, p)));
}

/// Reusable buffers for the separable cost-table computation: the axis
/// weight projections and the per-axis cost rows. Holding one of these
/// across calls removes all per-call allocation from the hot path (the
/// [`crate::workspace::Workspace`] bundles one for the schedulers).
#[derive(Debug, Default, Clone)]
pub struct AxisScratch {
    /// x-projected weights, one slot per grid column.
    pub(crate) wx: Vec<u64>,
    /// y-projected weights, one slot per grid row.
    pub(crate) wy: Vec<u64>,
    cx: Vec<u64>,
    cy: Vec<u64>,
}

impl AxisScratch {
    /// Resize the weight rows for `grid` and zero them.
    pub(crate) fn reset_weights(&mut self, grid: &Grid) {
        self.wx.clear();
        self.wx.resize(grid.width() as usize, 0);
        self.wy.clear();
        self.wy.resize(grid.height() as usize, 0);
    }

    /// Combine the already-filled weight rows into the full `m`-entry cost
    /// table (the shared tail of [`cost_table_with`] and the cache's range
    /// queries).
    pub(crate) fn sweep_into(&mut self, grid: &Grid, out: &mut Vec<u64>) {
        axis_costs(&self.wx, &mut self.cx);
        axis_costs(&self.wy, &mut self.cy);
        out.clear();
        out.reserve(grid.num_procs());
        for &cy in &self.cy {
            for &cx in &self.cx {
                out.push(cx + cy);
            }
        }
    }
}

/// Separable cost-table computation.
///
/// Writes `out[p] = cost_at(p)` for every processor in
/// `O(m + r + width + height)` time using the L1 split
/// `Σ n·(|x−xq| + |y−yq|) = costX(x) + costY(y)`.
pub fn cost_table(grid: &Grid, refs: &WindowRefs, out: &mut Vec<u64>) {
    let mut scratch = AxisScratch::default();
    cost_table_with(grid, refs, &mut scratch, out);
}

/// [`cost_table`] with caller-owned scratch — no allocation when `scratch`
/// and `out` have warmed up to the grid's size.
pub fn cost_table_with(
    grid: &Grid,
    refs: &WindowRefs,
    scratch: &mut AxisScratch,
    out: &mut Vec<u64>,
) {
    scratch.reset_weights(grid);
    for r in refs.iter() {
        let p = grid.point_of(r.proc);
        scratch.wx[p.x as usize] += r.count as u64;
        scratch.wy[p.y as usize] += r.count as u64;
    }
    scratch.sweep_into(grid, out);
}

/// For weights `w[i]` at integer positions `i`, compute
/// `c[j] = Σ_i w[i] · |i − j|` for every `j` in `O(len)` using two sweeps,
/// written into `out` (resized, no allocation once warm).
pub(crate) fn axis_costs(weights: &[u64], out: &mut Vec<u64>) {
    let n = weights.len();
    out.clear();
    out.resize(n, 0);
    // left-to-right: contribution of weights at positions < j
    let mut mass = 0u64;
    let mut acc = 0u64;
    for j in 0..n {
        out[j] += acc;
        mass += weights[j];
        acc += mass;
    }
    // right-to-left: contribution of weights at positions > j
    mass = 0;
    acc = 0;
    for j in (0..n).rev() {
        out[j] += acc;
        mass += weights[j];
        acc += mass;
    }
}

/// Lowest-id argmin of a cost table with its cost — the shared tie-break
/// rule every scheduler uses.
pub(crate) fn argmin_table(table: &[u64]) -> (ProcId, u64) {
    let (idx, &cost) = table
        .iter()
        .enumerate()
        .min_by_key(|&(i, &c)| (c, i))
        .expect("grid has at least one processor");
    (ProcId(idx as u32), cost)
}

/// The minimum-cost processor for `refs` with deterministic tie-break
/// (lowest processor id), together with its cost. This is the paper's
/// *local optimal center* for the window.
pub fn optimal_center(grid: &Grid, refs: &WindowRefs) -> (ProcId, u64) {
    let mut table = Vec::new();
    cost_table(grid, refs, &mut table);
    argmin_table(&table)
}

/// Every processor achieving the minimum cost, ascending by id. Used by the
/// theory module (Lemma 1 and Theorem 2 quantify over *sets* of local
/// optimal centers).
pub fn optimal_centers(grid: &Grid, refs: &WindowRefs) -> Vec<ProcId> {
    let mut table = Vec::new();
    cost_table(grid, refs, &mut table);
    let best = *table.iter().min().expect("non-empty table");
    table
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c == best)
        .map(|(i, _)| ProcId(i as u32))
        .collect()
}

/// Total cost of one datum held along the center sequence `path` (one
/// center per window): reference cost in every window plus one hop per
/// unit of movement between consecutive windows.
///
/// # Panics
/// Panics when `path` does not have one center per window of `rs`.
pub fn path_cost(grid: &Grid, rs: &DataRefString, path: &[ProcId]) -> u64 {
    assert_eq!(path.len(), rs.num_windows());
    let mut cost = 0u64;
    for (w, refs) in rs.windows().enumerate() {
        cost += cost_at(grid, refs, path[w]);
    }
    for pair in path.windows(2) {
        cost += grid.dist(pair[0], pair[1]);
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_array::grid::Grid;

    fn g() -> Grid {
        Grid::new(4, 4)
    }

    #[test]
    fn cost_at_examples() {
        let grid = g();
        let refs = WindowRefs::from_pairs([(grid.proc_xy(0, 0), 2), (grid.proc_xy(3, 3), 1)]);
        // stored at (0,0): 0 + 6
        assert_eq!(cost_at(&grid, &refs, grid.proc_xy(0, 0)), 6);
        // stored at (3,3): 12 + 0
        assert_eq!(cost_at(&grid, &refs, grid.proc_xy(3, 3)), 12);
        // stored at (1,1): 2*2 + 4
        assert_eq!(cost_at(&grid, &refs, grid.proc_xy(1, 1)), 8);
    }

    #[test]
    fn empty_refs_cost_zero_everywhere() {
        let grid = g();
        let mut t = Vec::new();
        cost_table(&grid, &WindowRefs::new(), &mut t);
        assert!(t.iter().all(|&c| c == 0));
        assert_eq!(t.len(), 16);
    }

    #[test]
    fn fast_table_matches_naive() {
        let grid = Grid::new(5, 3);
        let refs = WindowRefs::from_pairs([
            (grid.proc_xy(0, 0), 3),
            (grid.proc_xy(4, 2), 1),
            (grid.proc_xy(2, 1), 7),
            (grid.proc_xy(4, 0), 2),
        ]);
        let mut naive = Vec::new();
        let mut fast = Vec::new();
        cost_table_naive(&grid, &refs, &mut naive);
        cost_table(&grid, &refs, &mut fast);
        assert_eq!(naive, fast);
    }

    #[test]
    fn optimal_center_single_ref() {
        let grid = g();
        let refs = WindowRefs::from_pairs([(grid.proc_xy(2, 3), 5)]);
        let (c, cost) = optimal_center(&grid, &refs);
        assert_eq!(c, grid.proc_xy(2, 3));
        assert_eq!(cost, 0);
    }

    #[test]
    fn optimal_center_weighted_median() {
        let grid = g();
        // weight 3 at (0,0), weight 1 at (3,0) → median at x=0
        let refs = WindowRefs::from_pairs([(grid.proc_xy(0, 0), 3), (grid.proc_xy(3, 0), 1)]);
        let (c, cost) = optimal_center(&grid, &refs);
        assert_eq!(c, grid.proc_xy(0, 0));
        assert_eq!(cost, 3);
    }

    #[test]
    fn optimal_centers_tie_set() {
        let grid = g();
        // equal weights at (0,0) and (3,0): every x in 0..=3, y=0 is optimal
        let refs = WindowRefs::from_pairs([(grid.proc_xy(0, 0), 1), (grid.proc_xy(3, 0), 1)]);
        let centers = optimal_centers(&grid, &refs);
        assert_eq!(
            centers,
            vec![
                grid.proc_xy(0, 0),
                grid.proc_xy(1, 0),
                grid.proc_xy(2, 0),
                grid.proc_xy(3, 0)
            ]
        );
        // tie-break picks the lowest id
        assert_eq!(optimal_center(&grid, &refs).0, grid.proc_xy(0, 0));
    }

    #[test]
    fn axis_costs_small() {
        let run = |w: &[u64]| {
            let mut out = vec![99; 7]; // stale contents must not leak through
            axis_costs(w, &mut out);
            out
        };
        // weights [1,0,2] → c[0] = 0 + 2*2 = 4, c[1] = 1 + 2 = 3, c[2] = 2
        assert_eq!(run(&[1, 0, 2]), vec![4, 3, 2]);
        assert_eq!(run(&[0]), vec![0]);
        assert_eq!(run(&[]), Vec::<u64>::new());
    }

    #[test]
    fn scratch_table_matches_allocating_table() {
        let grid = Grid::new(5, 3);
        let refs = WindowRefs::from_pairs([
            (grid.proc_xy(1, 0), 4),
            (grid.proc_xy(4, 2), 2),
            (grid.proc_xy(2, 1), 1),
        ]);
        let mut plain = Vec::new();
        cost_table(&grid, &refs, &mut plain);
        let mut scratch = AxisScratch::default();
        let mut reused = Vec::new();
        for _ in 0..3 {
            cost_table_with(&grid, &refs, &mut scratch, &mut reused);
            assert_eq!(plain, reused);
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // documents the INF headroom invariant
    fn inf_is_safe_to_sum() {
        assert!(INF.checked_add(INF).is_some());
        assert!(INF + INF < u64::MAX / 2);
    }
}
