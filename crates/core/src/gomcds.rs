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
//! * [`Solver::DistanceTransform`] — the `O(m)` two-pass L1 distance
//!   transform from [`crate::dt`], giving `O(n·m)` per datum.
//!
//! The module owns GOMCDS's two decisions. The per-datum kernel is one
//! layered DP (`solve_layered`): node costs come from the raw reference
//! string, a [`DatumCostCache`] (single windows or grouped ranges), or
//! precedence-weighted raw windows; full (window, processor) slots are
//! masked to [`INF`]; an optional checkpoint resumes the forward pass from
//! the first edited window. The capacity replay (`GomcdsReplay`) places
//! data in ascending id order, each claiming its path's slots before the
//! next datum solves. The registry strategy, the flat fast path, the
//! chunked stream walk, the incremental engine and the precedence layer
//! are drivers around these two. The pre-cache implementation lives in
//! the `pim-reference` crate; the conformance tests pin these drivers
//! bit-identical to it.
//!
//! Both solvers produce bit-identical schedules (shared tie-breaking,
//! verified by tests and the `ablation_solver` bench).

use crate::cache::DatumCostCache;
use crate::cost::{cost_table_with, AxisScratch, INF};
use crate::error::{exhausted, SchedError};
use crate::schedule::Schedule;
use crate::workspace::Workspace;
use core::borrow::Borrow;
use core::ops::Range;
use pim_array::grid::{Grid, ProcId};
use pim_array::memory::{MemoryMap, MemorySpec};
use pim_par::Pool;
use pim_trace::ids::DataId;
use pim_trace::window::{DataRefString, WindowedTrace};

/// Inner-minimum strategy for the layered shortest path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    /// `O(m²)` per window — the paper's literal cost-graph relaxation.
    Naive,
    /// `O(m)` per window via the L1 distance transform.
    DistanceTransform,
}

/// Where the DP gets its per-layer node costs from.
pub(crate) enum NodeSource<'a> {
    /// Walk the raw reference string each time (no cache is built: the
    /// one-datum [`gomcds_path`] family and [`solve_masked_path`]).
    Raw(&'a DataRefString),
    /// Raw windows with layer `w`'s reference costs scaled by `weights[w]`
    /// (the precedence layer's task-priority weights).
    Weighted(&'a DataRefString, &'a [u64]),
    /// Serve each window from the datum's prefix-sum cache.
    Cached(&'a DatumCostCache<'a>),
    /// Serve grouped window ranges from the cache — layer `g` of the DP is
    /// the merged range `ranges[g]` (grouping's regrouped string, without
    /// materializing it).
    CachedRanges(&'a DatumCostCache<'a>, &'a [Range<usize>]),
}

impl NodeSource<'_> {
    fn num_layers(&self) -> usize {
        match self {
            NodeSource::Raw(rs) | NodeSource::Weighted(rs, _) => rs.num_windows(),
            NodeSource::Cached(c) => c.num_windows(),
            NodeSource::CachedRanges(_, ranges) => ranges.len(),
        }
    }

    /// Node costs of layer `w`: the (weighted) reference cost table with
    /// full processors masked to [`INF`].
    fn node_costs(
        &self,
        grid: &Grid,
        masks: Option<&[MemoryMap]>,
        w: usize,
        axes: &mut AxisScratch,
        out: &mut Vec<u64>,
    ) {
        match self {
            NodeSource::Raw(rs) => cost_table_with(grid, rs.window(w), axes, out),
            NodeSource::Weighted(rs, weights) => {
                cost_table_with(grid, rs.window(w), axes, out);
                for slot in out.iter_mut() {
                    *slot = slot.saturating_mul(weights[w]);
                }
            }
            NodeSource::Cached(c) => c.window_table(w, axes, out),
            NodeSource::CachedRanges(c, ranges) => {
                c.range_table(ranges[w].start, ranges[w].end, axes, out)
            }
        }
        if let Some(maps) = masks {
            for (k, slot) in out.iter_mut().enumerate() {
                if !maps[w].has_room(ProcId(k as u32)) {
                    *slot = INF;
                }
            }
        }
    }
}

/// The unconstrained optimal center sequence and its cost for one datum.
///
/// ```
/// use pim_array::grid::Grid;
/// use pim_trace::window::{DataRefString, WindowRefs};
/// use pim_sched::gomcds::{gomcds_path, Solver};
///
/// let grid = Grid::new(4, 4);
/// let rs = DataRefString::new(vec![
///     WindowRefs::from_pairs([(grid.proc_xy(0, 0), 1)]),
///     WindowRefs::from_pairs([(grid.proc_xy(3, 3), 10)]),
/// ]);
/// let (path, cost) = gomcds_path(&grid, &rs, Solver::DistanceTransform);
/// // moving once (6 hops) beats serving 10 remote references
/// assert_eq!(path, vec![grid.proc_xy(0, 0), grid.proc_xy(3, 3)]);
/// assert_eq!(cost, 6);
/// ```
pub fn gomcds_path(grid: &Grid, rs: &DataRefString, solver: Solver) -> (Vec<ProcId>, u64) {
    gomcds_path_weighted(grid, rs, solver, 1)
}

/// [`gomcds_path`] served from a prebuilt per-datum cache and a reusable
/// workspace — the hot-path form used by the pipeline.
pub fn gomcds_path_cached(
    grid: &Grid,
    cache: &DatumCostCache,
    solver: Solver,
    ws: &mut Workspace,
) -> (Vec<ProcId>, u64) {
    solve_layered(grid, &NodeSource::Cached(cache), None, solver, 1, None, ws)
        .expect("unconstrained path always feasible")
}

/// Optimal center sequence over *grouped* windows: layer `g` of the DP is
/// the merged range `groups[g]`. Equivalent to
/// `gomcds_path(grid, &rs.regrouped(groups), solver)` without building the
/// regrouped string.
pub fn gomcds_path_ranges(
    grid: &Grid,
    cache: &DatumCostCache,
    groups: &[Range<usize>],
    ws: &mut Workspace,
) -> (Vec<ProcId>, u64) {
    let src = NodeSource::CachedRanges(cache, groups);
    solve_layered(grid, &src, None, Solver::DistanceTransform, 1, None, ws)
        .expect("unconstrained path always feasible")
}

/// Like [`gomcds_path`] but charging `move_weight` per hop of data
/// movement — the datum's transfer volume. The paper's model is
/// `move_weight = 1`; the `sweep_movement` ablation studies how the
/// optimal policy collapses toward SCDS as data get heavier.
pub fn gomcds_path_weighted(
    grid: &Grid,
    rs: &DataRefString,
    solver: Solver,
    move_weight: u64,
) -> (Vec<ProcId>, u64) {
    let mut ws = Workspace::new();
    let src = NodeSource::Raw(rs);
    solve_layered(grid, &src, None, solver, move_weight, None, &mut ws)
        .expect("unconstrained path always feasible")
}

/// GOMCDS with per-datum movement volumes (unconstrained memory): datum
/// `d`'s moves cost `volumes[d]` per hop. Each datum's path is exactly
/// optimal for its own volume.
///
/// # Panics
/// Panics when `volumes.len() != trace.num_data()`.
pub fn gomcds_schedule_volumes(trace: &WindowedTrace, volumes: &[u64]) -> Schedule {
    assert_eq!(volumes.len(), trace.num_data(), "volumes length mismatch");
    let grid = trace.grid();
    let centers = trace
        .iter_data()
        .map(|(d, rs)| {
            gomcds_path_weighted(
                &grid,
                rs,
                Solver::DistanceTransform,
                volumes[d.index()].max(1),
            )
            .0
        })
        .collect();
    Schedule::new(grid, centers)
}

/// Capacity-masked optimal center sequence over a raw reference string
/// (one [`MemoryMap`] per window: a full processor is masked out of that
/// window); `None` when some window has no free processor. The
/// replication extensions place their primaries with it.
pub fn solve_masked_path(
    grid: &Grid,
    rs: &DataRefString,
    masks: &[MemoryMap],
    solver: Solver,
) -> Option<Vec<ProcId>> {
    let mut ws = Workspace::new();
    let src = NodeSource::Raw(rs);
    solve_layered(grid, &src, Some(masks), solver, 1, None, &mut ws).map(|(path, _)| path)
}

/// Cache-served masked path over single windows.
pub(crate) fn solve_masked_path_cached(
    grid: &Grid,
    cache: &DatumCostCache,
    masks: &[MemoryMap],
    ws: &mut Workspace,
) -> Option<Vec<ProcId>> {
    let src = NodeSource::Cached(cache);
    solve_layered(
        grid,
        &src,
        Some(masks),
        Solver::DistanceTransform,
        1,
        None,
        ws,
    )
    .map(|(path, _)| path)
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
    solve_layered(
        grid,
        &src,
        Some(masks),
        Solver::DistanceTransform,
        1,
        None,
        ws,
    )
    .map(|(path, _)| path)
}

/// A saved DP prefix of one datum's unconstrained cache-served solve:
/// forward rows `0..layers` of `dp` and the memoized node rows, each
/// `layers × m`. Because row `w` is a pure function of the node rows
/// `0..=w`, a checkpoint whose prefix windows are unedited resumes
/// bit-identically — the incremental engine truncates `layers` to the
/// first dirty window on every edit and the DP recomputes only from there
/// ("first dirty layer" resume).
#[derive(Debug, Default, Clone)]
pub(crate) struct DpCheckpoint {
    /// Number of valid leading DP layers (windows).
    pub layers: usize,
    /// Row-major `layers × m` forward DP values.
    pub dp: Vec<u64>,
    /// Row-major `layers × m` node-cost rows.
    pub nodes: Vec<u64>,
}

impl DpCheckpoint {
    /// Invalidate every layer from `first_dirty` on.
    pub fn truncate(&mut self, first_dirty: usize, m: usize) {
        if self.layers > first_dirty {
            self.layers = first_dirty;
            self.dp.truncate(first_dirty * m);
            self.nodes.truncate(first_dirty * m);
        }
    }
}

/// The GOMCDS kernel: solve one datum's layered shortest path. `masks`
/// (one map per layer) marks full processors; `move_weight` is the
/// per-hop movement charge; `ckpt` (unconstrained cache-served solves
/// only) supplies the valid prefix layers to resume from and receives
/// every layer of this solve. Returns `None` when no feasible path exists.
/// Ties go to the lowest-id sink and the lowest-id predecessor.
pub(crate) fn solve_layered(
    grid: &Grid,
    src: &NodeSource<'_>,
    masks: Option<&[MemoryMap]>,
    solver: Solver,
    move_weight: u64,
    ckpt: Option<&mut DpCheckpoint>,
    ws: &mut Workspace,
) -> Option<(Vec<ProcId>, u64)> {
    let m = grid.num_procs();
    let nw = src.num_layers();
    let Workspace {
        axes,
        dp,
        node,
        relaxed,
        nodes_all,
        ..
    } = ws;
    dp.clear();
    dp.reserve(nw * m);
    // Node rows are memoized during the forward pass so the backtrack
    // reads them instead of re-deriving each layer. The raw source skips
    // this: it keeps the pre-cache two-walk behaviour that the
    // `pim-reference` oracles are timed with.
    let memoize = !matches!(src, NodeSource::Raw(_));
    debug_assert!(memoize || ckpt.is_none(), "checkpoints need memoized rows");
    nodes_all.clear();
    if memoize {
        nodes_all.reserve(nw * m);
    }
    let start = ckpt.as_ref().map_or(0, |c| c.layers.min(nw));
    if let Some(c) = &ckpt {
        dp.extend_from_slice(&c.dp[..start * m]);
        nodes_all.extend_from_slice(&c.nodes[..start * m]);
    }

    for w in start..nw {
        src.node_costs(grid, masks, w, axes, node);
        if memoize {
            nodes_all.extend_from_slice(node);
        }
        if w == 0 {
            dp.extend_from_slice(node);
        } else {
            {
                let prev = &dp[(w - 1) * m..w * m];
                match solver {
                    Solver::Naive => {
                        crate::dt::l1_relax_naive_weighted(grid, prev, move_weight, relaxed)
                    }
                    Solver::DistanceTransform => {
                        crate::dt::l1_relax_weighted(grid, prev, move_weight, relaxed)
                    }
                }
            }
            for k in 0..m {
                let v = relaxed[k].saturating_add(node[k]);
                dp.push(v);
            }
        }
    }
    if let Some(c) = ckpt {
        c.layers = nw;
        c.dp.clone_from(dp);
        c.nodes.clone_from(nodes_all);
    }

    // Select the sink predecessor: lowest-id argmin of the last row.
    let last = &dp[(nw - 1) * m..nw * m];
    let (mut k, &best) = last
        .iter()
        .enumerate()
        .min_by_key(|&(i, &c)| (c, i))
        .expect("non-empty grid");
    if best >= INF {
        return None;
    }

    // Backtrack: find the lowest-id predecessor achieving each dp value.
    let mut path = vec![ProcId(0); nw];
    path[nw - 1] = ProcId(k as u32);
    for w in (1..nw).rev() {
        let noderow: &[u64] = if memoize {
            &nodes_all[w * m..(w + 1) * m]
        } else {
            src.node_costs(grid, masks, w, axes, node);
            node
        };
        let need = dp[w * m + k] - noderow[k];
        let prev_row = &dp[(w - 1) * m..w * m];
        let kp = grid.point_of(ProcId(k as u32));
        let mut found = None;
        for j in 0..m {
            let hop = move_weight.saturating_mul(grid.point_of(ProcId(j as u32)).l1_dist(kp));
            if prev_row[j].saturating_add(hop) == need {
                found = Some(j);
                break;
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
/// next datum solves against the updated per-window masks.
pub(crate) struct GomcdsReplay {
    grid: Grid,
    solver: Solver,
    /// One occupancy map per window; empty when memory is unbounded.
    masks: Vec<MemoryMap>,
    /// Whether some processor is full in some window. Until one is,
    /// masking raises no node cost, so solves run unmasked.
    saturated: bool,
    /// Data whose offered unconstrained path hit a full slot, so the
    /// replay solved the masked DP instead.
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
            saturated: false,
            spilled: 0,
        }
    }

    /// Place datum `d`. `pure` is its unconstrained path when one was
    /// already solved (a parallel phase, or the incremental engine's
    /// carried state): a path still free in every window is what the
    /// masked DP would return (masking raises no node cost along it, so
    /// the DP values, the lowest-id sink and every lowest-id backtrack
    /// step are unchanged) and is taken as is. Otherwise `solve` runs the
    /// DP against the current masks — `None` while no processor is full
    /// (always, under unbounded memory), when masking would change no
    /// node cost.
    pub(crate) fn place(
        &mut self,
        d: DataId,
        pure: Option<Vec<ProcId>>,
        solve: impl FnOnce(Option<&[MemoryMap]>) -> Option<Vec<ProcId>>,
    ) -> Result<Vec<ProcId>, SchedError> {
        let masks = self.saturated.then_some(self.masks.as_slice());
        let path = match pure {
            Some(p) if masks.is_none_or(|ms| p.iter().zip(ms).all(|(&c, m)| m.has_room(c))) => p,
            pure => {
                self.spilled += usize::from(pure.is_some());
                solve(masks).ok_or_else(|| exhausted(d, None))?
            }
        };
        for (w, (mem, &p)) in self.masks.iter_mut().zip(&path).enumerate() {
            mem.allocate(p).map_err(|_| exhausted(d, Some(w)))?;
            self.saturated |= !mem.has_room(p);
        }
        Ok(path)
    }

    /// [`place`](Self::place) with the masked DP served from the datum's
    /// cost cache.
    pub(crate) fn place_cached(
        &mut self,
        d: DataId,
        pure: Option<Vec<ProcId>>,
        cache: &DatumCostCache,
        ws: &mut Workspace,
    ) -> Result<Vec<ProcId>, SchedError> {
        let (grid, solver) = (self.grid, self.solver);
        self.place(d, pure, |masks| {
            solve_layered(
                &grid,
                &NodeSource::Cached(cache),
                masks,
                solver,
                1,
                None,
                ws,
            )
            .map(|(path, _)| path)
        })
    }

    /// Place data `ids` (ascending) whose cost caches `datum` serves. On a
    /// multi-thread `pool` every unconstrained path is solved in parallel
    /// first and only data whose path collides re-solve; on one thread
    /// each datum is solved exactly once, against the masks (unmasked
    /// while no processor is full).
    pub(crate) fn place_all<'r, C: Borrow<DatumCostCache<'r>>>(
        &mut self,
        ids: &[DataId],
        datum: impl Fn(DataId) -> C + Sync,
        pool: Pool,
        ws: &mut Workspace,
    ) -> Result<Vec<Vec<ProcId>>, SchedError> {
        let (grid, solver) = (self.grid, self.solver);
        let pure = if pool.threads() > 1 {
            crate::flat::fan_out(pool, ids, Workspace::new, |w, d| {
                Some(gomcds_path_cached(&grid, datum(d).borrow(), solver, w).0)
            })
        } else {
            vec![None; ids.len()]
        };
        ids.iter()
            .zip(pure)
            .map(|(&d, pure)| self.place_cached(d, pure, datum(d).borrow(), ws))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{schedule, MemoryPolicy, Method};
    use pim_trace::window::WindowRefs;

    fn g() -> Grid {
        Grid::new(4, 4)
    }

    #[test]
    fn stays_put_when_movement_too_expensive() {
        let grid = g();
        // A brief, light excursion of references: moving out and back would
        // cost more than serving remotely.
        let trace = WindowedTrace::from_parts(
            grid,
            vec![vec![
                WindowRefs::from_pairs([(grid.proc_xy(0, 0), 5)]),
                WindowRefs::from_pairs([(grid.proc_xy(3, 0), 1)]),
                WindowRefs::from_pairs([(grid.proc_xy(0, 0), 5)]),
            ]],
        );
        let s = schedule(Method::Gomcds, &trace, MemoryPolicy::Unbounded);
        let cs = s.centers_of(DataId(0));
        assert_eq!(cs, &[grid.proc_xy(0, 0); 3]);
        assert_eq!(s.evaluate(&trace).total(), 3);
    }

    #[test]
    fn moves_when_references_shift_for_good() {
        let grid = g();
        let trace = WindowedTrace::from_parts(
            grid,
            vec![vec![
                WindowRefs::from_pairs([(grid.proc_xy(0, 0), 1)]),
                WindowRefs::from_pairs([(grid.proc_xy(3, 3), 10)]),
                WindowRefs::from_pairs([(grid.proc_xy(3, 3), 10)]),
            ]],
        );
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
        let trace = WindowedTrace::from_parts(
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
        );
        for policy in [MemoryPolicy::Unbounded, MemoryPolicy::Capacity(1)] {
            let a = schedule(Method::GomcdsNaive, &trace, policy);
            let b = schedule(Method::Gomcds, &trace, policy);
            assert_eq!(a, b, "policy {policy:?}");
        }
    }

    #[test]
    fn path_ranges_matches_regrouped_path() {
        let grid = g();
        let rs = DataRefString::new(vec![
            WindowRefs::from_pairs([(grid.proc_xy(0, 0), 2)]),
            WindowRefs::from_pairs([(grid.proc_xy(1, 0), 1)]),
            WindowRefs::from_pairs([(grid.proc_xy(3, 3), 6)]),
            WindowRefs::new(),
        ]);
        let groups = vec![0..2, 2..4];
        let cache = DatumCostCache::build(&grid, &rs);
        let mut ws = Workspace::new();
        let via_ranges = gomcds_path_ranges(&grid, &cache, &groups, &mut ws);
        let via_regroup = gomcds_path(&grid, &rs.regrouped(&groups), Solver::DistanceTransform);
        assert_eq!(via_ranges, via_regroup);
    }

    #[test]
    fn never_beaten_by_scds_or_lomcds_unconstrained() {
        let grid = g();
        let trace = WindowedTrace::from_parts(
            grid,
            vec![vec![
                WindowRefs::from_pairs([(grid.proc_xy(1, 0), 2), (grid.proc_xy(2, 1), 1)]),
                WindowRefs::from_pairs([(grid.proc_xy(1, 3), 3)]),
                WindowRefs::from_pairs([(grid.proc_xy(1, 0), 2)]),
                WindowRefs::from_pairs([(grid.proc_xy(2, 1), 2)]),
            ]],
        );
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
        let trace = WindowedTrace::from_parts(grid, vec![rs_windows]);
        let (path, cost) = gomcds_path(&grid, trace.refs(DataId(0)), Solver::DistanceTransform);
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
        let trace = WindowedTrace::from_parts(
            grid,
            vec![want(grid.proc_xy(2, 2)), want(grid.proc_xy(2, 2))],
        );
        let s = schedule(Method::Gomcds, &trace, MemoryPolicy::Capacity(1));
        assert_eq!(s.max_occupancy(), 1);
        assert_eq!(s.center(DataId(0), 0), grid.proc_xy(2, 2));
        assert_ne!(s.center(DataId(1), 0), grid.proc_xy(2, 2));
    }

    #[test]
    fn resumable_solve_matches_cached_from_every_layer() {
        let grid = Grid::new(5, 4);
        let rs = DataRefString::new(vec![
            WindowRefs::from_pairs([(grid.proc_xy(0, 0), 2), (grid.proc_xy(4, 3), 1)]),
            WindowRefs::new(),
            WindowRefs::from_pairs([(grid.proc_xy(2, 2), 3)]),
            WindowRefs::from_pairs([(grid.proc_xy(4, 0), 1), (grid.proc_xy(0, 3), 1)]),
            WindowRefs::from_pairs([(grid.proc_xy(1, 3), 4)]),
        ]);
        let cache = DatumCostCache::build(&grid, &rs);
        let mut ws = Workspace::new();
        let expect = gomcds_path_cached(&grid, &cache, Solver::DistanceTransform, &mut ws);
        let src = NodeSource::Cached(&cache);
        let mut solve = |ckpt: &mut DpCheckpoint| {
            solve_layered(
                &grid,
                &src,
                None,
                Solver::DistanceTransform,
                1,
                Some(ckpt),
                &mut ws,
            )
            .unwrap()
        };

        // Save a full checkpoint, then resume from every truncation point
        // (0 = cold, nw = fully warm): all must be bit-identical.
        let mut ckpt = DpCheckpoint::default();
        assert_eq!(solve(&mut ckpt), expect);
        assert_eq!(ckpt.layers, rs.num_windows());
        let m = grid.num_procs();
        for cut in 0..=rs.num_windows() {
            let mut c = ckpt.clone();
            c.truncate(cut, m);
            assert_eq!(c.layers, cut);
            assert_eq!(solve(&mut c), expect, "resume from layer {cut}");
            assert_eq!(c.dp, ckpt.dp, "resumed save from layer {cut}");
        }
    }

    #[test]
    fn single_window_gomcds_equals_scds_placement() {
        let grid = g();
        let trace = WindowedTrace::from_parts(
            grid,
            vec![vec![WindowRefs::from_pairs([
                (grid.proc_xy(3, 1), 2),
                (grid.proc_xy(0, 2), 1),
            ])]],
        );
        let unb = MemoryPolicy::Unbounded;
        assert_eq!(
            schedule(Method::Gomcds, &trace, unb),
            schedule(Method::Scds, &trace, unb)
        );
    }
}
