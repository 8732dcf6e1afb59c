//! Local-Optimal Multiple-Center Data Scheduling.
//!
//! Each execution window is optimized in isolation: the datum sits at the
//! window's local optimal center (Algorithm 1 applied per window), moving
//! between windows at run time. Movement cost is *not* considered when
//! choosing centers — that is exactly the weakness GOMCDS fixes.
//!
//! The paper does not specify where a datum lives during windows that never
//! reference it; this implementation keeps it where it already is (zero
//! movement, zero reference cost — no other choice does better), and for
//! empty *leading* windows places it at the first referenced window's
//! center so no pre-use move is needed.
//!
//! The module owns LOMCDS's decisions: two per-datum kernels over a flat
//! span (`span_window_medians`, the unconstrained center row, and
//! `span_first_anchor`, the window-0 anchor a bounded run starts from)
//! and the window-major capacity `replay`. With unbounded memory the
//! replay's `nearest_free(anchor)` returns the anchor and its
//! processor-list head is the window median, so the whole replay
//! degenerates to exactly the kernel's row; drivers (the registry
//! strategy, [`crate::flat::flat_lomcds`], the stream walk and the
//! incremental engine) therefore run the replay only under a bounded
//! policy.

use crate::cache::CostCache;
use crate::capacity::ProcessorList;
use crate::error::{ensure_feasible, exhausted, SchedError};
use crate::median::MedianState;
use crate::schedule::Schedule;
use crate::workspace::Workspace;
use pim_array::grid::{Grid, ProcId};
use pim_array::memory::{MemoryMap, MemorySpec};
use pim_trace::flat::{span_window_runs, FlatRef};
use pim_trace::ids::DataId;

/// Fill `None` slots: carry the previous center forward; leading `None`s
/// take the first known center; an all-`None` sequence defaults to `P0`.
pub(crate) fn resolve_gaps(mut centers: Vec<Option<ProcId>>) -> Vec<ProcId> {
    let first_known = centers.iter().flatten().next().copied();
    let mut prev = first_known;
    for slot in centers.iter_mut() {
        match slot {
            Some(c) => prev = Some(*c),
            None => *slot = prev,
        }
    }
    centers
        .into_iter()
        .map(|c| c.unwrap_or(ProcId(0)))
        .collect()
}

/// The LOMCDS row kernel: the unconstrained center sequence of one datum
/// — every referenced window's local optimal center, computed as an
/// incremental median of its flat span without a cost table (the weighted
/// median with smallest-coordinate tie-break is the table's lowest-id
/// argmin, see [`crate::median`]) — with empty windows resolved by
/// carry-forward and leading empties backfilled.
pub(crate) fn span_window_medians(
    grid: &Grid,
    span: &[FlatRef],
    nw: usize,
    med: &mut MedianState,
) -> Vec<ProcId> {
    let mut centers: Vec<Option<ProcId>> = vec![None; nw];
    med.reset(grid);
    for (w, run) in span_window_runs(span) {
        for r in run {
            med.add(r.x, r.y, r.count as u64);
        }
        centers[w as usize] = Some(med.center(grid));
        for r in run {
            med.remove(r.x, r.y, r.count as u64);
        }
    }
    resolve_gaps(centers)
}

/// The LOMCDS anchor kernel: the anchor a datum uses at window 0 — the
/// median of its first referenced window (`P0` when it is never
/// referenced), exactly `span_window_medians(..)[0]`, since gap
/// resolution backfills leading empties with the first known center.
pub(crate) fn span_first_anchor(grid: &Grid, span: &[FlatRef], med: &mut MedianState) -> ProcId {
    match span_window_runs(span).next() {
        Some((_, run)) => {
            med.reset(grid);
            for r in run {
                med.add(r.x, r.y, r.count as u64);
            }
            med.center(grid)
        }
        None => ProcId(0),
    }
}

/// LOMCDS's window-major capacity replay over any trace representation
/// backing `cache`: window by window, data in ascending id order, a
/// referenced window offers its median first and falls back through its
/// processor list; an empty window stays nearest its anchor (`anchors[d]`
/// at window 0, the previous actual center after). Each referenced
/// placement's list rank is recorded as its capacity displacement.
///
/// Returns the schedule and the number of placements that landed off
/// their unconstrained desired processor (window median when referenced,
/// anchor when not) — zero is the incremental engine's patch
/// precondition.
pub(crate) fn replay(
    grid: Grid,
    nw: usize,
    spec: MemorySpec,
    cache: &CostCache,
    anchors: &[ProcId],
    ws: &mut Workspace,
) -> Result<(Schedule, usize), SchedError> {
    let nd = cache.num_data();
    ensure_feasible(&grid, spec, nd)?;
    let metrics = ws.metrics.clone();

    let mut spilled = 0usize;
    let mut centers = vec![vec![ProcId(0); nw]; nd];
    for w in 0..nw {
        let mut mem = MemoryMap::new(&grid, spec);
        for d in 0..nd {
            let dc = cache.datum(DataId(d as u32));
            let anchor = if w == 0 {
                anchors[d]
            } else {
                centers[d][w - 1]
            };
            let p = if dc.range_is_empty(w, w + 1) {
                let p = nearest_free(&grid, anchor, &mut mem)
                    .ok_or_else(|| exhausted(DataId(d as u32), Some(w)))?;
                spilled += usize::from(p != anchor);
                p
            } else {
                // Median-first: the window's weighted-median center is the
                // head of its processor list (lowest-id argmin), so when it
                // still has room `assign_ranked` would return it at rank 0
                // — skip building and sorting the full table. Only a full
                // median (capacity conflict) pays for the list.
                let m = dc.range_median(w, w + 1, &mut ws.axes);
                let (p, rank) = if mem.has_room(m) {
                    mem.allocate(m)
                        .map_err(|_| exhausted(DataId(d as u32), Some(w)))?;
                    (m, 0)
                } else {
                    dc.window_table(w, &mut ws.axes, &mut ws.table);
                    ProcessorList::from_cost_table(&ws.table)
                        .assign_ranked(&mut mem)
                        .ok_or_else(|| exhausted(DataId(d as u32), Some(w)))?
                };
                metrics.record_placement(rank);
                spilled += usize::from(rank > 0);
                p
            };
            centers[d][w] = p;
        }
    }
    Ok((Schedule::new(grid, centers), spilled))
}

/// Claim the free processor nearest to `anchor` (ties by ascending id);
/// `None` when every processor is full.
pub(crate) fn nearest_free(grid: &Grid, anchor: ProcId, mem: &mut MemoryMap) -> Option<ProcId> {
    // The anchor is the unique distance-0 candidate, so when it has room
    // the full (distance, id)-minimum scan below could only return it —
    // answer in O(1). Carry-forward keeps most anchors stable, making this
    // the common case on big instances.
    if mem.has_room(anchor) {
        mem.allocate(anchor).ok()?;
        return Some(anchor);
    }
    let a = grid.point_of(anchor);
    let p = grid
        .procs()
        .filter(|&p| mem.has_room(p))
        .min_by_key(|&p| (grid.point_of(p).l1_dist(a), p.0))?;
    mem.allocate(p).ok()?;
    Some(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{schedule, MemoryPolicy, Method};
    use pim_trace::window::{WindowRefs, WindowedTrace};

    fn g() -> Grid {
        Grid::new(4, 4)
    }

    #[test]
    fn centers_follow_each_window() {
        let grid = g();
        let trace = WindowedTrace::from_parts(
            grid,
            vec![vec![
                WindowRefs::from_pairs([(grid.proc_xy(0, 0), 3)]),
                WindowRefs::from_pairs([(grid.proc_xy(3, 3), 1)]),
            ]],
        );
        let s = schedule(Method::Lomcds, &trace, MemoryPolicy::Unbounded);
        assert_eq!(s.center(DataId(0), 0), grid.proc_xy(0, 0));
        assert_eq!(s.center(DataId(0), 1), grid.proc_xy(3, 3));
        // ref cost 0, movement 6
        let cost = s.evaluate(&trace);
        assert_eq!(cost.reference, 0);
        assert_eq!(cost.movement, 6);
    }

    #[test]
    fn empty_windows_carry_forward() {
        let grid = g();
        let trace = WindowedTrace::from_parts(
            grid,
            vec![vec![
                WindowRefs::new(),
                WindowRefs::from_pairs([(grid.proc_xy(2, 2), 1)]),
                WindowRefs::new(),
                WindowRefs::from_pairs([(grid.proc_xy(3, 0), 1)]),
            ]],
        );
        let s = schedule(Method::Lomcds, &trace, MemoryPolicy::Unbounded);
        let cs = s.centers_of(DataId(0));
        // leading empty anchors on first referenced center → no pre-move
        assert_eq!(cs[0], grid.proc_xy(2, 2));
        assert_eq!(cs[1], grid.proc_xy(2, 2));
        // trailing empty between refs stays put
        assert_eq!(cs[2], grid.proc_xy(2, 2));
        assert_eq!(cs[3], grid.proc_xy(3, 0));
        assert_eq!(s.evaluate(&trace).movement, 3);
    }

    #[test]
    fn capacity_conflict_in_window_spills() {
        let grid = g();
        let want = |p| vec![WindowRefs::from_pairs([(p, 1)])];
        let trace = WindowedTrace::from_parts(
            grid,
            vec![want(grid.proc_xy(2, 2)), want(grid.proc_xy(2, 2))],
        );
        let s = schedule(Method::Lomcds, &trace, MemoryPolicy::Capacity(1));
        assert_eq!(s.center(DataId(0), 0), grid.proc_xy(2, 2));
        assert_ne!(s.center(DataId(1), 0), grid.proc_xy(2, 2));
        // spill lands at distance 1
        assert_eq!(grid.dist(s.center(DataId(1), 0), grid.proc_xy(2, 2)), 1);
        assert_eq!(s.max_occupancy(), 1);
    }

    #[test]
    fn resolve_gaps_behaviour() {
        let v = vec![None, Some(ProcId(3)), None, Some(ProcId(5)), None];
        assert_eq!(
            resolve_gaps(v),
            vec![ProcId(3), ProcId(3), ProcId(3), ProcId(5), ProcId(5)]
        );
        assert_eq!(resolve_gaps(vec![None, None]), vec![ProcId(0), ProcId(0)]);
    }

    #[test]
    fn never_referenced_datum_costs_nothing() {
        let grid = g();
        let trace =
            WindowedTrace::from_parts(grid, vec![vec![WindowRefs::new(), WindowRefs::new()]]);
        let s = schedule(Method::Lomcds, &trace, MemoryPolicy::Unbounded);
        assert_eq!(s.evaluate(&trace).total(), 0);
        assert!(!s.has_movement());
    }
}
