//! Global-Optimal Multiple-Center Data Scheduling (paper Algorithm 2).
//!
//! For each datum the paper builds an edge-weighted DAG — the *cost
//! graph* — with one node per (window, processor) pair, a pseudo source and
//! sink, and edge weights combining the reference cost of storing the datum
//! at a processor during a window with the movement cost between
//! consecutive windows' processors. The shortest s→d path is the globally
//! optimal center sequence.
//!
//! The graph is layered, so the shortest path is a dynamic program:
//!
//! ```text
//! dp[0][k]   = refcost(0, k)
//! dp[w][k]   = refcost(w, k) + min_j ( dp[w−1][j] + dist(j, k) )
//! answer     = min_k dp[n−1][k]
//! ```
//!
//! Two solvers compute the inner minimum:
//!
//! * [`Solver::Naive`] — the literal `O(m²)` scan per window (the paper's
//!   formulation; `m` = processors).
//! * [`Solver::DistanceTransform`] — the L1 distance transform. On the
//!   mesh both node and hop costs split into an x and a y term, so an
//!   unmasked solve is two independent 1-D DPs, one per grid axis:
//!   `O(n·(width + height))` per datum. A capacity-masked re-solve breaks
//!   that split and runs the two-pass 2-D transform from [`crate::dt`]
//!   instead, `O(n·m)` per datum.
//!
//! The module owns GOMCDS's two decisions. The per-datum kernel is one
//! layered DP (`solve_layered`): node costs come from the datum's
//! [`DatumCostCache`] (single windows, grouped ranges, or
//! precedence-weighted windows) as one x and one y row per layer; full
//! (window, processor) slots are masked to [`INF`]. The capacity
//! replay (`GomcdsReplay`) places data in ascending id order, each
//! claiming its path's slots before the next datum is placed: a datum
//! takes its unconstrained ("pure") path when every slot of it is free,
//! and solves the masked DP — from the node rows its pure solve recorded
//! — only when it is not. The registry strategy, the flat fast path, the
//! chunked stream walk, the incremental engine and the precedence layer
//! are drivers around these two. The pre-cache implementation lives in
//! the `pim-reference` crate; the conformance tests pin these drivers
//! bit-identical to it.
//!
//! Every solver produces bit-identical schedules (shared tie-breaking,
//! verified by tests and the `ablation_solver` bench).

use crate::cache::{CostCache, DatumCostCache};
use crate::cost::{AxisScratch, INF};
use crate::dt::l1_relax_line;
use crate::error::{exhausted, SchedError};
use crate::schedule::Schedule;
use crate::workspace::Workspace;
use core::borrow::Borrow;
use core::ops::Range;
use pim_array::grid::{Grid, ProcId};
use pim_array::memory::{MemoryMap, MemorySpec};
use pim_par::Pool;
use pim_trace::flat::FlatView;
use pim_trace::ids::DataId;

/// Inner-minimum strategy for the layered shortest path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    /// `O(m²)` per window — the paper's literal cost-graph relaxation; the
    /// ablation and test reference.
    Naive,
    /// The L1 distance transform: one 1-D DP per grid axis,
    /// `O(width + height)` per window, for unmasked solves; the two-pass
    /// 2-D transform, `O(m)` per window, for capacity-masked re-solves.
    DistanceTransform,
}

/// Where the DP gets its per-layer node costs from: the datum's cost
/// cache, or the rows an earlier solve of the datum read from it.
pub(crate) enum NodeSource<'a> {
    /// Serve each window from the datum's prefix-sum cache.
    Cached(&'a DatumCostCache<'a>),
    /// Cached windows with layer `w`'s reference costs scaled by
    /// `weights[w]` (the precedence layer's task-priority weights).
    Weighted(&'a DatumCostCache<'a>, &'a [u64]),
    /// Serve grouped window ranges from the cache — layer `g` of the DP is
    /// the merged range `ranges[g]` (grouping's regrouped string, without
    /// materializing it).
    CachedRanges(&'a DatumCostCache<'a>, &'a [Range<usize>]),
    /// The per-axis node rows an earlier solve of the same datum recorded
    /// (`Workspace::axis_nodes`): layer `w` is `rows[w·(width + height)..]`,
    /// its x row then its y row. A masked re-solve reads them instead of
    /// querying the cache a second time.
    Rows {
        rows: &'a [u64],
        width: usize,
        height: usize,
    },
}

impl NodeSource<'_> {
    fn num_layers(&self) -> usize {
        match self {
            NodeSource::Cached(c) | NodeSource::Weighted(c, _) => c.num_windows(),
            NodeSource::CachedRanges(_, ranges) => ranges.len(),
            NodeSource::Rows {
                rows,
                width,
                height,
            } => rows.len() / (width + height),
        }
    }

    /// Node costs of layer `w` as two axis rows, left in `axes.cx` and
    /// `axes.cy`: the node cost at `(x, y)` is `cx[x] + cy[y]`. Every
    /// source splits this way — a window or range cost table is a sum of
    /// an x and a y term, and a priority weight scales both.
    fn axis_costs(&self, w: usize, axes: &mut AxisScratch) {
        match self {
            NodeSource::Cached(c) => c.range_axes(w, w + 1, axes),
            NodeSource::Weighted(c, weights) => {
                c.range_axes(w, w + 1, axes);
                for slot in axes.cx.iter_mut().chain(axes.cy.iter_mut()) {
                    *slot = slot.saturating_mul(weights[w]);
                }
            }
            NodeSource::CachedRanges(c, ranges) => {
                c.range_axes(ranges[w].start, ranges[w].end, axes)
            }
            NodeSource::Rows {
                rows,
                width,
                height,
            } => {
                let layer = &rows[w * (width + height)..(w + 1) * (width + height)];
                let (x_row, y_row) = layer.split_at(*width);
                axes.cx.clear();
                axes.cx.extend_from_slice(x_row);
                axes.cy.clear();
                axes.cy.extend_from_slice(y_row);
            }
        }
    }
}

/// The unconstrained optimal center sequence and its cost for one datum,
/// with node costs served from its cost cache.
///
/// ```
/// use pim_array::grid::Grid;
/// use pim_sched::gomcds::{gomcds_path, Solver};
/// use pim_sched::{CostCache, Workspace};
/// use pim_trace::flat::FlatTrace;
/// use pim_trace::ids::DataId;
/// use pim_trace::window::WindowRefs;
///
/// let grid = Grid::new(4, 4);
/// let trace = FlatTrace::from_windows(
///     grid,
///     vec![vec![
///         WindowRefs::from_pairs([(grid.proc_xy(0, 0), 1)]),
///         WindowRefs::from_pairs([(grid.proc_xy(3, 3), 10)]),
///     ]],
/// )
/// .unwrap();
/// let cache = CostCache::build_flat(&trace);
/// let mut ws = Workspace::new();
/// let (path, cost) = gomcds_path(&grid, cache.datum(DataId(0)), Solver::DistanceTransform, &mut ws);
/// // moving once (6 hops) beats serving 10 remote references
/// assert_eq!(path, vec![grid.proc_xy(0, 0), grid.proc_xy(3, 3)]);
/// assert_eq!(cost, 6);
/// ```
pub fn gomcds_path(
    grid: &Grid,
    cache: &DatumCostCache,
    solver: Solver,
    ws: &mut Workspace,
) -> (Vec<ProcId>, u64) {
    gomcds_path_weighted(grid, cache, solver, 1, ws)
}

/// Optimal center sequence over *grouped* windows: layer `g` of the DP is
/// the merged range `groups[g]`, without materializing a regrouped trace.
pub fn gomcds_path_ranges(
    grid: &Grid,
    cache: &DatumCostCache,
    groups: &[Range<usize>],
    ws: &mut Workspace,
) -> (Vec<ProcId>, u64) {
    let src = NodeSource::CachedRanges(cache, groups);
    solve_layered(grid, &src, None, Solver::DistanceTransform, 1, ws)
        .expect("unconstrained path always feasible")
}

/// Like [`gomcds_path`] but charging `move_weight` per hop of data
/// movement — the datum's transfer volume. The paper's model is
/// `move_weight = 1`; the `sweep_movement` ablation studies how the
/// optimal policy collapses toward SCDS as data get heavier.
pub fn gomcds_path_weighted(
    grid: &Grid,
    cache: &DatumCostCache,
    solver: Solver,
    move_weight: u64,
    ws: &mut Workspace,
) -> (Vec<ProcId>, u64) {
    let src = NodeSource::Cached(cache);
    solve_layered(grid, &src, None, solver, move_weight, ws)
        .expect("unconstrained path always feasible")
}

/// GOMCDS with per-datum movement volumes (unconstrained memory): datum
/// `d`'s moves cost `volumes[d]` per hop. Each datum's path is exactly
/// optimal for its own volume.
///
/// # Panics
/// Panics when `volumes.len() != trace.num_data()`.
pub fn gomcds_schedule_volumes<V: FlatView + ?Sized>(trace: &V, volumes: &[u64]) -> Schedule {
    assert_eq!(volumes.len(), trace.num_data(), "volumes length mismatch");
    let grid = trace.grid();
    let cache = CostCache::build_flat(trace);
    let mut ws = Workspace::new();
    let centers = volumes
        .iter()
        .enumerate()
        .map(|(d, &volume)| {
            let datum = cache.datum(DataId(d as u32));
            gomcds_path_weighted(
                &grid,
                datum,
                Solver::DistanceTransform,
                volume.max(1),
                &mut ws,
            )
            .0
        })
        .collect();
    Schedule::new(grid, centers)
}

/// Capacity-masked optimal center sequence of one datum (one
/// [`MemoryMap`] per window: a full processor is masked out of that
/// window); `None` when some window has no free processor. The capacity
/// replays and the replication extensions place data with it.
pub fn solve_masked_path(
    grid: &Grid,
    cache: &DatumCostCache,
    masks: &[MemoryMap],
    solver: Solver,
    ws: &mut Workspace,
) -> Option<Vec<ProcId>> {
    let src = NodeSource::Cached(cache);
    solve_layered(grid, &src, Some(masks), solver, 1, ws).map(|(path, _)| path)
}

/// Cache-served masked path over grouped window ranges (`masks[g]` masks
/// group `g`).
pub(crate) fn solve_masked_ranges(
    grid: &Grid,
    cache: &DatumCostCache,
    groups: &[Range<usize>],
    masks: &[MemoryMap],
    ws: &mut Workspace,
) -> Option<Vec<ProcId>> {
    let src = NodeSource::CachedRanges(cache, groups);
    solve_layered(grid, &src, Some(masks), Solver::DistanceTransform, 1, ws).map(|(path, _)| path)
}

/// The GOMCDS kernel: solve one datum's layered shortest path. `masks`
/// (one map per layer) marks full processors; `move_weight` is the
/// per-hop movement charge. Returns `None` when no feasible path exists.
/// Ties go to the lowest-id sink and the lowest-id predecessor.
///
/// An unmasked [`Solver::DistanceTransform`] solve runs one 1-D DP per
/// grid axis; a masked one, and every [`Solver::Naive`] solve, runs the
/// DP over the whole grid. All of them return the same path.
pub(crate) fn solve_layered(
    grid: &Grid,
    src: &NodeSource<'_>,
    masks: Option<&[MemoryMap]>,
    solver: Solver,
    move_weight: u64,
    ws: &mut Workspace,
) -> Option<(Vec<ProcId>, u64)> {
    match (masks, solver) {
        (None, Solver::DistanceTransform) => Some(solve_separable(grid, src, move_weight, ws)),
        _ => solve_grid(grid, src, masks, solver, move_weight, ws),
    }
}

/// The unmasked distance-transform solve, one 1-D DP per grid axis. Node
/// costs split as `cx_w[x] + cy_w[y]` and a hop costs
/// `move_weight·|Δx| + move_weight·|Δy|`, so `dp_w(x, y) = X_w(x) +
/// Y_w(y)` with `X_0 = cx_0` and `X_w = cx_w + relax(X_{w−1})` along the
/// x axis (`Y_w` likewise along y). The argmin set of a sum of an x and a
/// y term is the product of the per-axis argmin sets, so the lowest-id
/// sink and every lowest-id predecessor are the lowest y, then the lowest
/// x, of the per-axis argmins — what [`solve_grid`] picks (DESIGN.md §5).
fn solve_separable(
    grid: &Grid,
    src: &NodeSource<'_>,
    move_weight: u64,
    ws: &mut Workspace,
) -> (Vec<ProcId>, u64) {
    let (width, height) = (grid.width() as usize, grid.height() as usize);
    let row = width + height;
    let nw = src.num_layers();
    let Workspace {
        axes,
        dp,
        relaxed,
        axis_nodes,
        ..
    } = ws;
    dp.clear();
    dp.reserve(nw * row);
    axis_nodes.clear();
    axis_nodes.reserve(nw * row);
    for w in 0..nw {
        src.axis_costs(w, axes);
        axis_nodes.extend_from_slice(&axes.cx);
        axis_nodes.extend_from_slice(&axes.cy);
        if w == 0 {
            dp.extend_from_slice(&axes.cx);
            dp.extend_from_slice(&axes.cy);
        } else {
            let prev = (w - 1) * row;
            for (lo, costs) in [(prev, &axes.cx), (prev + width, &axes.cy)] {
                l1_relax_line(&dp[lo..lo + costs.len()], move_weight, relaxed);
                dp.extend(
                    relaxed
                        .iter()
                        .zip(costs)
                        .map(|(&r, &c)| r.saturating_add(c)),
                );
            }
        }
    }
    let last = &dp[(nw - 1) * row..];
    let (mut kx, best_x) = lowest_argmin(&last[..width]);
    let (mut ky, best_y) = lowest_argmin(&last[width..]);
    let at = |x: usize, y: usize| ProcId((y * width + x) as u32);
    let mut path = vec![ProcId(0); nw];
    path[nw - 1] = at(kx, ky);
    for w in (1..nw).rev() {
        let prev = &dp[(w - 1) * row..w * row];
        kx = axis_predecessor(&prev[..width], kx, move_weight);
        ky = axis_predecessor(&prev[width..], ky, move_weight);
        path[w - 1] = at(kx, ky);
    }
    (path, best_x + best_y)
}

/// Lowest index achieving the minimum of `row`, with that minimum.
fn lowest_argmin(row: &[u64]) -> (usize, u64) {
    let (i, &best) = row
        .iter()
        .enumerate()
        .min_by_key(|&(i, &c)| (c, i))
        .expect("non-empty DP row");
    (i, best)
}

/// The lowest `j` minimizing `prev[j] + step·|j − k|`: the lowest-index
/// predecessor of position `k` along one axis.
fn axis_predecessor(prev: &[u64], k: usize, step: u64) -> usize {
    (0..prev.len())
        .min_by_key(|&j| {
            let hop = step.saturating_mul(j.abs_diff(k) as u64);
            (prev[j].saturating_add(hop), j)
        })
        .expect("non-empty grid axis")
}

/// The DP over the whole grid — the literal `O(m²)` relaxation
/// ([`Solver::Naive`]) or the two-pass 2-D transform — with full slots
/// masked to [`INF`]: the masked re-solves of the capacity replays and
/// the naive ablation.
fn solve_grid(
    grid: &Grid,
    src: &NodeSource<'_>,
    masks: Option<&[MemoryMap]>,
    solver: Solver,
    move_weight: u64,
    ws: &mut Workspace,
) -> Option<(Vec<ProcId>, u64)> {
    let m = grid.num_procs();
    let (width, height) = (grid.width() as usize, grid.height() as usize);
    let row = width + height;
    let nw = src.num_layers();
    let Workspace {
        axes,
        dp,
        node,
        relaxed,
        axis_nodes,
        ..
    } = ws;
    dp.clear();
    dp.reserve(nw * m);
    // The per-axis node rows are recorded during the forward pass so the
    // backtrack reads them instead of re-deriving each layer.
    axis_nodes.clear();
    axis_nodes.reserve(nw * row);
    for w in 0..nw {
        src.axis_costs(w, axes);
        axis_nodes.extend_from_slice(&axes.cx);
        axis_nodes.extend_from_slice(&axes.cy);
        let room = masks.map(|maps| &maps[w]);
        node.clear();
        for (y, &cy) in axes.cy.iter().enumerate() {
            for (x, &cx) in axes.cx.iter().enumerate() {
                let full = room.is_some_and(|map| !map.has_room(ProcId((y * width + x) as u32)));
                node.push(if full { INF } else { cx.saturating_add(cy) });
            }
        }
        if w == 0 {
            dp.extend_from_slice(node);
        } else {
            let prev = &dp[(w - 1) * m..w * m];
            match solver {
                Solver::Naive => {
                    crate::dt::l1_relax_naive_weighted(grid, prev, move_weight, relaxed)
                }
                Solver::DistanceTransform => {
                    crate::dt::l1_relax_weighted(grid, prev, move_weight, relaxed)
                }
            }
            dp.extend(
                relaxed
                    .iter()
                    .zip(node.iter())
                    .map(|(&r, &n)| r.saturating_add(n)),
            );
        }
    }

    // Select the sink predecessor: lowest-id argmin of the last row.
    let (mut k, best) = lowest_argmin(&dp[(nw - 1) * m..]);
    if best >= INF {
        return None;
    }

    // Backtrack: find the lowest-id predecessor achieving each dp value,
    // walking candidates in id order, `(y, x)`.
    let mut path = vec![ProcId(0); nw];
    path[nw - 1] = ProcId(k as u32);
    for w in (1..nw).rev() {
        let (kx, ky) = (k % width, k / width);
        let nodes = &axis_nodes[w * row..(w + 1) * row];
        let need = dp[w * m + k] - nodes[kx].saturating_add(nodes[width + ky]);
        let prev = &dp[(w - 1) * m..w * m];
        let mut found = None;
        'scan: for y in 0..height {
            let dy = y.abs_diff(ky) as u64;
            for x in 0..width {
                let hop = move_weight.saturating_mul(x.abs_diff(kx) as u64 + dy);
                if prev[y * width + x].saturating_add(hop) == need {
                    found = Some(y * width + x);
                    break 'scan;
                }
            }
        }
        k = found.expect("dp backtrack must find a predecessor");
        path[w - 1] = ProcId(k as u32);
    }
    Some((path, best))
}

/// GOMCDS's sequential capacity replay: data are placed one at a time
/// (ascending id in every driver except the precedence layer's priority
/// order), each claiming its path's processor in every window before the
/// next datum is placed against the updated per-window masks.
pub(crate) struct GomcdsReplay {
    grid: Grid,
    solver: Solver,
    /// One occupancy map per window; empty when memory is unbounded.
    masks: Vec<MemoryMap>,
    /// Data whose unconstrained path hit a full slot, so the replay
    /// solved the masked DP instead.
    pub(crate) spilled: usize,
}

impl GomcdsReplay {
    pub(crate) fn new(grid: &Grid, num_windows: usize, spec: MemorySpec, solver: Solver) -> Self {
        let masks = if spec.capacity_per_proc == u32::MAX {
            Vec::new()
        } else {
            (0..num_windows)
                .map(|_| MemoryMap::new(grid, spec))
                .collect()
        };
        GomcdsReplay {
            grid: *grid,
            solver,
            masks,
            spilled: 0,
        }
    }

    /// Place datum `d` given its unconstrained path `pure`. A path still
    /// free in every window is what the masked DP would return (masking
    /// raises no node cost along it, so the DP values, the lowest-id sink
    /// and every lowest-id backtrack step are unchanged) and is taken as
    /// is — always so under unbounded memory. Otherwise `solve` runs the
    /// DP against the current masks.
    pub(crate) fn place(
        &mut self,
        d: DataId,
        pure: Vec<ProcId>,
        solve: impl FnOnce(&[MemoryMap]) -> Option<Vec<ProcId>>,
    ) -> Result<Vec<ProcId>, SchedError> {
        let free = pure.iter().zip(&self.masks).all(|(&c, m)| m.has_room(c));
        let path = if free {
            pure
        } else {
            self.spilled += 1;
            solve(&self.masks).ok_or_else(|| exhausted(d, None))?
        };
        for (w, (mem, &p)) in self.masks.iter_mut().zip(&path).enumerate() {
            mem.allocate(p).map_err(|_| exhausted(d, Some(w)))?;
        }
        Ok(path)
    }

    /// [`place`](Self::place) with the masked DP served from `axis_nodes`,
    /// the per-axis node rows the pure solve recorded, so a colliding
    /// datum never queries its cost cache twice.
    pub(crate) fn place_rows(
        &mut self,
        d: DataId,
        pure: Vec<ProcId>,
        axis_nodes: &[u64],
        ws: &mut Workspace,
    ) -> Result<Vec<ProcId>, SchedError> {
        let (grid, solver) = (self.grid, self.solver);
        let src = NodeSource::Rows {
            rows: axis_nodes,
            width: grid.width() as usize,
            height: grid.height() as usize,
        };
        self.place(d, pure, |masks| {
            solve_layered(&grid, &src, Some(masks), solver, 1, ws).map(|(path, _)| path)
        })
    }

    /// Place data `ids` (ascending) whose cost caches `datum` serves, in
    /// blocks of [`PLACE_BLOCK`]: a block's unconstrained paths, with their
    /// per-axis node rows, are solved across `pool`; then its data are
    /// placed in order and only those whose path collides re-solve.
    pub(crate) fn place_all<'r, C: Borrow<DatumCostCache<'r>>>(
        &mut self,
        ids: &[DataId],
        datum: impl Fn(DataId) -> C + Sync,
        pool: Pool,
        ws: &mut Workspace,
    ) -> Result<Vec<Vec<ProcId>>, SchedError> {
        let (grid, solver) = (self.grid, self.solver);
        let mut placed = Vec::with_capacity(ids.len());
        for block in ids.chunks(PLACE_BLOCK) {
            let solved = crate::flat::fan_out(pool, block, Workspace::new, |w, d| {
                let (pure, _) = gomcds_path(&grid, datum(d).borrow(), solver, w);
                (pure, core::mem::take(&mut w.axis_nodes))
            });
            for (&d, (pure, rows)) in block.iter().zip(solved) {
                placed.push(self.place_rows(d, pure, &rows, ws)?);
            }
        }
        Ok(placed)
    }
}

/// Data per [`GomcdsReplay::place_all`] block: bounds the per-axis node
/// rows held between a block's pure solves and its placements to
/// `PLACE_BLOCK × layers × (width + height)` entries.
const PLACE_BLOCK: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{schedule, MemoryPolicy, Method};
    use pim_trace::flat::FlatTrace;
    use pim_trace::window::WindowRefs;

    /// A one-datum trace over `windows`.
    fn one_datum(grid: Grid, windows: Vec<WindowRefs>) -> FlatTrace {
        FlatTrace::from_windows(grid, vec![windows]).unwrap()
    }

    fn g() -> Grid {
        Grid::new(4, 4)
    }

    #[test]
    fn stays_put_when_movement_too_expensive() {
        let grid = g();
        // A brief, light excursion of references: moving out and back would
        // cost more than serving remotely.
        let trace = FlatTrace::from_windows(
            grid,
            vec![vec![
                WindowRefs::from_pairs([(grid.proc_xy(0, 0), 5)]),
                WindowRefs::from_pairs([(grid.proc_xy(3, 0), 1)]),
                WindowRefs::from_pairs([(grid.proc_xy(0, 0), 5)]),
            ]],
        )
        .unwrap();
        let s = schedule(Method::Gomcds, &trace, MemoryPolicy::Unbounded);
        let cs = s.centers_of(DataId(0));
        assert_eq!(cs, &[grid.proc_xy(0, 0); 3]);
        assert_eq!(s.evaluate(&trace).total(), 3);
    }

    #[test]
    fn moves_when_references_shift_for_good() {
        let grid = g();
        let trace = FlatTrace::from_windows(
            grid,
            vec![vec![
                WindowRefs::from_pairs([(grid.proc_xy(0, 0), 1)]),
                WindowRefs::from_pairs([(grid.proc_xy(3, 3), 10)]),
                WindowRefs::from_pairs([(grid.proc_xy(3, 3), 10)]),
            ]],
        )
        .unwrap();
        let s = schedule(Method::Gomcds, &trace, MemoryPolicy::Unbounded);
        let cs = s.centers_of(DataId(0));
        assert_eq!(cs[0], grid.proc_xy(0, 0));
        assert_eq!(cs[1], grid.proc_xy(3, 3));
        assert_eq!(cs[2], grid.proc_xy(3, 3));
        // move cost 6, ref cost 0
        assert_eq!(s.evaluate(&trace).total(), 6);
    }

    #[test]
    fn naive_and_dt_agree_exactly() {
        let grid = Grid::new(5, 4);
        let trace = FlatTrace::from_windows(
            grid,
            vec![
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(0, 0), 2), (grid.proc_xy(4, 3), 1)]),
                    WindowRefs::from_pairs([(grid.proc_xy(2, 2), 3)]),
                    WindowRefs::new(),
                    WindowRefs::from_pairs([(grid.proc_xy(4, 0), 1), (grid.proc_xy(0, 3), 1)]),
                ],
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(1, 1), 1)]),
                    WindowRefs::from_pairs([(grid.proc_xy(3, 2), 2)]),
                    WindowRefs::from_pairs([(grid.proc_xy(1, 3), 4)]),
                    WindowRefs::new(),
                ],
            ],
        )
        .unwrap();
        for policy in [MemoryPolicy::Unbounded, MemoryPolicy::Capacity(1)] {
            let a = schedule(Method::GomcdsNaive, &trace, policy);
            let b = schedule(Method::Gomcds, &trace, policy);
            assert_eq!(a, b, "policy {policy:?}");
        }
    }

    #[test]
    fn path_ranges_matches_regrouped_path() {
        let grid = g();
        let windows = vec![
            WindowRefs::from_pairs([(grid.proc_xy(0, 0), 2)]),
            WindowRefs::from_pairs([(grid.proc_xy(1, 0), 1)]),
            WindowRefs::from_pairs([(grid.proc_xy(3, 3), 6)]),
            WindowRefs::new(),
        ];
        let groups = vec![0..2, 2..4];
        let regrouped = one_datum(
            grid,
            groups
                .iter()
                .map(|g| WindowRefs::merged(&windows[g.clone()]))
                .collect(),
        );
        let trace = one_datum(grid, windows);
        let cache = CostCache::build_flat(&trace);
        let regrouped_cache = CostCache::build_flat(&regrouped);
        let mut ws = Workspace::new();
        let via_ranges = gomcds_path_ranges(&grid, cache.datum(DataId(0)), &groups, &mut ws);
        let via_regroup = gomcds_path(
            &grid,
            regrouped_cache.datum(DataId(0)),
            Solver::DistanceTransform,
            &mut ws,
        );
        assert_eq!(via_ranges, via_regroup);
    }

    #[test]
    fn never_beaten_by_scds_or_lomcds_unconstrained() {
        let grid = g();
        let trace = FlatTrace::from_windows(
            grid,
            vec![vec![
                WindowRefs::from_pairs([(grid.proc_xy(1, 0), 2), (grid.proc_xy(2, 1), 1)]),
                WindowRefs::from_pairs([(grid.proc_xy(1, 3), 3)]),
                WindowRefs::from_pairs([(grid.proc_xy(1, 0), 2)]),
                WindowRefs::from_pairs([(grid.proc_xy(2, 1), 2)]),
            ]],
        )
        .unwrap();
        let unb = MemoryPolicy::Unbounded;
        let total = |m| schedule(m, &trace, unb).evaluate(&trace).total();
        let go = total(Method::Gomcds);
        let lo = total(Method::Lomcds);
        let sc = total(Method::Scds);
        assert!(go <= lo, "GOMCDS {go} must be ≤ LOMCDS {lo}");
        assert!(go <= sc, "GOMCDS {go} must be ≤ SCDS {sc}");
    }

    #[test]
    fn path_cost_matches_schedule_evaluation() {
        let grid = g();
        let rs_windows = vec![
            WindowRefs::from_pairs([(grid.proc_xy(0, 0), 1)]),
            WindowRefs::from_pairs([(grid.proc_xy(3, 3), 2)]),
        ];
        let trace = one_datum(grid, rs_windows);
        let cache = CostCache::build_flat(&trace);
        let mut ws = Workspace::new();
        let datum = cache.datum(DataId(0));
        let (path, cost) = gomcds_path(&grid, datum, Solver::DistanceTransform, &mut ws);
        let s = Schedule::new(grid, vec![path]);
        assert_eq!(s.evaluate(&trace).total(), cost);
    }

    #[test]
    fn capacity_masking_respected() {
        let grid = g();
        let want = |p| {
            vec![
                WindowRefs::from_pairs([(p, 3)]),
                WindowRefs::from_pairs([(p, 3)]),
            ]
        };
        let trace = FlatTrace::from_windows(
            grid,
            vec![want(grid.proc_xy(2, 2)), want(grid.proc_xy(2, 2))],
        )
        .unwrap();
        let s = schedule(Method::Gomcds, &trace, MemoryPolicy::Capacity(1));
        assert_eq!(s.max_occupancy(), 1);
        assert_eq!(s.center(DataId(0), 0), grid.proc_xy(2, 2));
        assert_ne!(s.center(DataId(1), 0), grid.proc_xy(2, 2));
    }

    #[test]
    fn single_window_gomcds_equals_scds_placement() {
        let grid = g();
        let trace = FlatTrace::from_windows(
            grid,
            vec![vec![WindowRefs::from_pairs([
                (grid.proc_xy(3, 1), 2),
                (grid.proc_xy(0, 2), 1),
            ])]],
        )
        .unwrap();
        let unb = MemoryPolicy::Unbounded;
        assert_eq!(
            schedule(Method::Gomcds, &trace, unb),
            schedule(Method::Scds, &trace, unb)
        );
    }
}
