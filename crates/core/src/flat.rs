//! Scheduling straight off a flat CSR trace — the big-instance fast path —
//! and the pool fan-out every driver shares.
//!
//! The entry points here drive SCDS, LOMCDS and GOMCDS directly from the
//! flat CSR layout. They are generic over [`FlatView`], so the same code
//! runs against an owned in-memory [`pim_trace::flat::FlatTrace`] or a
//! zero-copy memory-mapped [`pim_trace::binfmt::BinTrace`] — scheduling
//! straight off file bytes.
//!
//! They are drivers: each fetches datum spans, fans the algorithm's
//! per-datum kernel out over the [`pim_par`] pool in contiguous chunks
//! ([`pim_par::auto_chunk`], so workers stream adjacent spans of the
//! shared `refs` array), and runs its sequential capacity replay. The
//! kernels and replays live in [`crate::scds`], [`crate::lomcds`] and
//! [`crate::gomcds`]; the registry strategies call the same drivers on a
//! flat copy of their nested trace, made once per
//! [`crate::SchedContext`].
//!
//! Every entry point is **bit-identical** to `pim-reference`'s pre-cache
//! scheduler on the equivalent nested trace (property-tested in
//! `tests/cache_equivalence.rs`): the weighted median with
//! smallest-coordinate tie-break equals the cost table's lowest-id argmin
//! (see [`crate::median`]), and capacity resolution replays the same
//! decisions in the same order.

use crate::cache::CostCache;
use crate::error::{ensure_feasible, SchedError};
use crate::gomcds::{GomcdsReplay, Solver};
use crate::median::MedianState;
use crate::pipeline::MemoryPolicy;
use crate::scds::ScdsReplay;
use crate::schedule::{CostBreakdown, Schedule};
use crate::workspace::Workspace;
use pim_array::grid::{Grid, ProcId};
use pim_array::memory::MemorySpec;
use pim_metrics::Metrics;
use pim_par::Pool;
use pim_trace::flat::{FlatRef, FlatView};
use pim_trace::ids::DataId;

/// Run `kernel` for every datum of `ids` with per-worker state from
/// `init`, sharded over `pool` in contiguous chunks; outputs in `ids`
/// order. A one-thread pool runs inline with a single state.
pub(crate) fn fan_out<T: Send, S>(
    pool: Pool,
    ids: &[DataId],
    init: impl Fn() -> S + Sync,
    kernel: impl Fn(&mut S, DataId) -> T + Sync,
) -> Vec<T> {
    let chunk = pim_par::auto_chunk(ids.len(), pool.threads());
    pim_par::parallel_map_with_chunked(pool, ids, chunk, init, |s, _, &d| kernel(s, d))
}

/// The datum ids `0..nd`.
pub(crate) fn datum_ids(nd: usize) -> Vec<DataId> {
    (0..nd as u32).map(DataId).collect()
}

/// SCDS on a flat trace: one merged-window median per datum, capacity
/// resolved in ascending datum order. Bit-identical to `pim-reference`'s
/// SCDS on the equivalent nested trace — the merged median *is* the head
/// of the merged processor list, and a datum only needs the rest of that
/// list when its median is full.
pub fn flat_scds<V: FlatView + ?Sized>(
    flat: &V,
    policy: MemoryPolicy,
    pool: Pool,
) -> Result<Schedule, SchedError> {
    let spec = policy.resolve_parts(&flat.grid(), flat.num_data());
    scds_on(flat, spec, pool, &Metrics::disabled())
}

/// The SCDS driver behind [`flat_scds`] and the registry strategy.
pub(crate) fn scds_on<V: FlatView + ?Sized>(
    flat: &V,
    spec: MemorySpec,
    pool: Pool,
    metrics: &Metrics,
) -> Result<Schedule, SchedError> {
    let grid = flat.grid();
    let nd = flat.num_data();
    ensure_feasible(&grid, spec, nd)?;
    let ids = datum_ids(nd);
    let medians = fan_out(pool, &ids, MedianState::default, |med, d| {
        crate::scds::span_median(&grid, flat.span(d), med)
    });
    let mut replay = ScdsReplay::new(&grid, spec, metrics);
    let mut placement = Vec::with_capacity(nd);
    for (&d, c) in ids.iter().zip(medians) {
        placement.push(replay.place(&grid, d, flat.span(d), c)?);
    }
    Ok(Schedule::static_placement(
        grid,
        placement,
        flat.num_windows(),
    ))
}

/// LOMCDS on a flat trace. Unbounded runs are pure per-datum median
/// sweeps (fully parallel, no capacity state); bounded runs compute the
/// per-datum anchors in parallel and replay the window-major capacity
/// loop over a flat-backed cost cache. Bit-identical to `pim-reference`'s
/// LOMCDS on the equivalent nested trace.
pub fn flat_lomcds<V: FlatView + ?Sized>(
    flat: &V,
    policy: MemoryPolicy,
    pool: Pool,
) -> Result<Schedule, SchedError> {
    let spec = policy.resolve_parts(&flat.grid(), flat.num_data());
    lomcds_on(flat, spec, pool, None, &mut Workspace::new())
}

/// The LOMCDS driver behind [`flat_lomcds`] and the registry strategy. A
/// bounded replay reads `cache` — any backing serves identical tables —
/// or, when `None`, a flat-backed cache built here.
pub(crate) fn lomcds_on<V: FlatView + ?Sized>(
    flat: &V,
    spec: MemorySpec,
    pool: Pool,
    cache: Option<&CostCache>,
    ws: &mut Workspace,
) -> Result<Schedule, SchedError> {
    let grid = flat.grid();
    let nd = flat.num_data();
    let nw = flat.num_windows();
    ensure_feasible(&grid, spec, nd)?;
    let ids = datum_ids(nd);
    if spec.capacity_per_proc == u32::MAX {
        let rows = fan_out(pool, &ids, MedianState::default, |med, d| {
            crate::lomcds::span_window_medians(&grid, flat.span(d), nw, med)
        });
        return Ok(Schedule::new(grid, rows));
    }
    let anchors = fan_out(pool, &ids, MedianState::default, |med, d| {
        crate::lomcds::span_first_anchor(&grid, flat.span(d), med)
    });
    let owned;
    let cache = match cache {
        Some(cache) => cache,
        None => {
            owned = CostCache::build_flat(flat);
            &owned
        }
    };
    Ok(crate::lomcds::replay(grid, nw, spec, cache, &anchors, ws)?.0)
}

/// GOMCDS (distance-transform solver) on a flat trace: per-datum layered
/// shortest paths served from a flat-backed cost cache, capacity replayed
/// in datum order. Bit-identical to `pim-reference`'s GOMCDS on the
/// equivalent nested trace — the cache serves identical tables from
/// either backing.
pub fn flat_gomcds<V: FlatView + ?Sized>(
    flat: &V,
    policy: MemoryPolicy,
    pool: Pool,
) -> Result<Schedule, SchedError> {
    let grid = flat.grid();
    let spec = policy.resolve_parts(&grid, flat.num_data());
    let cache = CostCache::build_flat(flat);
    let nw = flat.num_windows();
    let solver = Solver::DistanceTransform;
    gomcds_on(&cache, grid, nw, spec, solver, pool, &mut Workspace::new())
}

/// The GOMCDS driver behind [`flat_gomcds`] and the registry strategy:
/// every datum of `cache` through [`GomcdsReplay::place_all`].
pub(crate) fn gomcds_on(
    cache: &CostCache,
    grid: Grid,
    nw: usize,
    spec: MemorySpec,
    solver: Solver,
    pool: Pool,
    ws: &mut Workspace,
) -> Result<Schedule, SchedError> {
    let nd = cache.num_data();
    ensure_feasible(&grid, spec, nd)?;
    let mut replay = GomcdsReplay::new(&grid, nw, spec, solver);
    let centers = replay.place_all(&datum_ids(nd), |d| cache.datum(d), pool, ws)?;
    Ok(Schedule::new(grid, centers))
}

/// Evaluate a schedule against a flat trace: volume-weighted reference
/// distances plus inter-window movement, exactly as
/// [`Schedule::evaluate`] charges them on the nested representation.
///
/// # Panics
/// Panics when the schedule shape (grid, data count, window count) does
/// not match the trace.
pub fn flat_total_cost<V: FlatView + ?Sized>(flat: &V, schedule: &Schedule) -> CostBreakdown {
    let grid = flat.grid();
    assert_eq!(grid, schedule.grid(), "schedule/trace grid mismatch");
    assert_eq!(flat.num_data(), schedule.num_data(), "data count mismatch");
    assert_eq!(
        flat.num_windows(),
        schedule.num_windows(),
        "window count mismatch"
    );
    let mut cost = CostBreakdown::default();
    for d in 0..flat.num_data() {
        let d = DataId(d as u32);
        fold_datum(&grid, flat.span(d), schedule.centers_of(d), &mut cost);
    }
    cost
}

/// Fold one datum's center row into `cost` — the per-datum step of
/// [`flat_total_cost`], shared with the stream walk.
pub(crate) fn fold_datum(
    grid: &Grid,
    span: &[FlatRef],
    centers: &[ProcId],
    cost: &mut CostBreakdown,
) {
    for r in span {
        let c = grid.point_of(centers[r.window as usize]);
        let dist =
            (r.x as i64 - c.x as i64).unsigned_abs() + (r.y as i64 - c.y as i64).unsigned_abs();
        cost.reference += r.count as u64 * dist;
    }
    for pair in centers.windows(2) {
        cost.movement += grid.dist(pair[0], pair[1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_array::grid::Grid;
    use pim_trace::flat::FlatTrace;
    use pim_trace::window::{WindowRefs, WindowedTrace};

    fn sample_trace() -> WindowedTrace {
        let grid = Grid::new(4, 4);
        WindowedTrace::from_parts(
            grid,
            vec![
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(0, 0), 2), (grid.proc_xy(1, 0), 1)]),
                    WindowRefs::from_pairs([(grid.proc_xy(3, 3), 4)]),
                    WindowRefs::from_pairs([(grid.proc_xy(3, 2), 2)]),
                ],
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(2, 2), 1)]),
                    WindowRefs::new(),
                    WindowRefs::from_pairs([(grid.proc_xy(2, 2), 3)]),
                ],
                vec![WindowRefs::new(), WindowRefs::new(), WindowRefs::new()],
            ],
        )
    }

    #[test]
    fn flat_cost_matches_schedule_evaluate() {
        let trace = sample_trace();
        let flat = FlatTrace::from_trace(&trace);
        for m in [
            crate::pipeline::Method::Scds,
            crate::pipeline::Method::Lomcds,
            crate::pipeline::Method::Gomcds,
        ] {
            let s = crate::pipeline::schedule(m, &trace, MemoryPolicy::Unbounded);
            assert_eq!(flat_total_cost(&flat, &s), s.evaluate(&trace), "{m}");
        }
    }

    #[test]
    fn flat_infeasible_errors() {
        let grid = Grid::new(2, 1);
        let trace = WindowedTrace::from_parts(grid, vec![vec![WindowRefs::new()]; 3]);
        let flat = FlatTrace::from_trace(&trace);
        let pool = Pool::serial();
        type FlatFn = fn(&FlatTrace, MemoryPolicy, Pool) -> Result<Schedule, SchedError>;
        let fns: [FlatFn; 3] = [flat_scds, flat_lomcds, flat_gomcds];
        for f in fns {
            let err = f(&flat, MemoryPolicy::Capacity(1), pool).unwrap_err();
            assert!(matches!(err, SchedError::CapacityExhausted { .. }));
        }
    }
}
