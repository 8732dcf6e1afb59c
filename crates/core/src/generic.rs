//! Topology-generic scheduling.
//!
//! The main schedulers exploit the 2-D mesh's L1 separability (prefix-sum
//! cost tables, two-pass distance transform). This module provides
//! reference implementations over *any* [`Topology`] — notably the torus
//! ([`pim_array::torus::Torus`]), whose wrap-around links break the open
//! mesh's separability tricks but not the problem structure:
//!
//! * [`cost_table_generic`] — `O(m · r)` per window;
//! * [`optimal_center_generic`] — argmin with the usual lowest-id tie-break;
//! * [`gomcds_path_generic`] — layered DP with `O(m²)` relaxation;
//! * [`scds_generic`] / [`lomcds_generic`] / [`gomcds_generic`] —
//!   unconstrained whole-trace schedulers returning plain center matrices;
//! * [`evaluate_generic`] — cost of a center matrix under the topology.
//!
//! On a `Grid` these produce exactly the same results as the optimized
//! paths (property-tested), which certifies both sides; on a torus they
//! power the `sweep_topology` ablation quantifying what wrap-around links
//! buy the data scheduler.

use pim_array::grid::{Grid, ProcId};
use pim_array::topology::Topology;
use pim_trace::flat::{span_window, FlatRef, FlatView};
use pim_trace::ids::DataId;

/// Literal cost table of one window's references (a run of a span on
/// `grid`) under an arbitrary topology: `out[k] = Σ count · dist(k, ref)`.
pub fn cost_table_generic<T: Topology + ?Sized>(
    topo: &T,
    grid: &Grid,
    refs: &[FlatRef],
    out: &mut Vec<u64>,
) {
    out.clear();
    out.extend((0..topo.num_procs() as u32).map(|k| {
        refs.iter()
            .map(|r| r.count as u64 * topo.dist(ProcId(k), r.proc(grid)))
            .sum::<u64>()
    }));
}

/// Lowest-id argmin of [`cost_table_generic`] and its cost.
pub fn optimal_center_generic<T: Topology + ?Sized>(
    topo: &T,
    grid: &Grid,
    refs: &[FlatRef],
) -> (ProcId, u64) {
    let mut table = Vec::new();
    cost_table_generic(topo, grid, refs, &mut table);
    let (idx, &cost) = table
        .iter()
        .enumerate()
        .min_by_key(|&(i, &c)| (c, i))
        .expect("topology has processors");
    (ProcId(idx as u32), cost)
}

/// GOMCDS over an arbitrary topology for one datum's span over `nw`
/// windows: the layered DP with the literal `O(m²)` relaxation, same
/// tie-breaks as [`crate::gomcds`] (lowest-id sink, lowest-id
/// predecessor).
pub fn gomcds_path_generic<T: Topology + ?Sized>(
    topo: &T,
    grid: &Grid,
    span: &[FlatRef],
    nw: usize,
) -> (Vec<ProcId>, u64) {
    let m = topo.num_procs();
    let mut dp = vec![vec![0u64; m]; nw];
    let mut node = Vec::new();
    for w in 0..nw {
        cost_table_generic(topo, grid, span_window(span, w), &mut node);
        if w == 0 {
            dp[0].copy_from_slice(&node);
        } else {
            for k in 0..m {
                let best = (0..m)
                    .map(|j| dp[w - 1][j] + topo.dist(ProcId(j as u32), ProcId(k as u32)))
                    .min()
                    .expect("non-empty");
                dp[w][k] = best + node[k];
            }
        }
    }
    let (mut k, &best) = dp[nw - 1]
        .iter()
        .enumerate()
        .min_by_key(|&(i, &c)| (c, i))
        .expect("non-empty");
    let mut path = vec![ProcId(0); nw];
    path[nw - 1] = ProcId(k as u32);
    for w in (1..nw).rev() {
        cost_table_generic(topo, grid, span_window(span, w), &mut node);
        let need = dp[w][k] - node[k];
        let kk = ProcId(k as u32);
        k = (0..m)
            .find(|&j| dp[w - 1][j] + topo.dist(ProcId(j as u32), kk) == need)
            .expect("backtrack predecessor exists");
        path[w - 1] = ProcId(k as u32);
    }
    (path, best)
}

/// Every datum's span, in id order.
fn spans<V: FlatView + ?Sized>(trace: &V) -> impl Iterator<Item = &[FlatRef]> {
    (0..trace.num_data()).map(|d| trace.span(DataId(d as u32)))
}

/// Unconstrained SCDS under a topology: each datum at its merged optimum.
pub fn scds_generic<T: Topology + ?Sized>(
    topo: &T,
    trace: &(impl FlatView + ?Sized),
) -> Vec<Vec<ProcId>> {
    let grid = trace.grid();
    spans(trace)
        .map(|span| {
            let c = optimal_center_generic(topo, &grid, span).0;
            vec![c; trace.num_windows()]
        })
        .collect()
}

/// Unconstrained LOMCDS under a topology: per-window optima, gaps carried.
pub fn lomcds_generic<T: Topology + ?Sized>(
    topo: &T,
    trace: &(impl FlatView + ?Sized),
) -> Vec<Vec<ProcId>> {
    let grid = trace.grid();
    spans(trace)
        .map(|span| {
            let centers: Vec<Option<ProcId>> = (0..trace.num_windows())
                .map(|w| {
                    let run = span_window(span, w);
                    crate::lomcds::is_referenced(run)
                        .then(|| optimal_center_generic(topo, &grid, run).0)
                })
                .collect();
            crate::lomcds::resolve_gaps(centers)
        })
        .collect()
}

/// Unconstrained GOMCDS under a topology.
pub fn gomcds_generic<T: Topology + ?Sized>(
    topo: &T,
    trace: &(impl FlatView + ?Sized),
) -> Vec<Vec<ProcId>> {
    let grid = trace.grid();
    spans(trace)
        .map(|span| gomcds_path_generic(topo, &grid, span, trace.num_windows()).0)
        .collect()
}

/// Total cost (reference + unit movement) of a center matrix under a
/// topology.
///
/// # Panics
/// Panics when the matrix shape does not match the trace.
pub fn evaluate_generic<T: Topology + ?Sized>(
    topo: &T,
    trace: &(impl FlatView + ?Sized),
    centers: &[Vec<ProcId>],
) -> u64 {
    assert_eq!(centers.len(), trace.num_data(), "data count mismatch");
    let grid = trace.grid();
    let mut total = 0u64;
    for (span, cs) in spans(trace).zip(centers) {
        assert_eq!(cs.len(), trace.num_windows(), "window count mismatch");
        total += span
            .iter()
            .map(|r| r.count as u64 * topo.dist(cs[r.window as usize], r.proc(&grid)))
            .sum::<u64>();
        for pair in cs.windows(2) {
            total += topo.dist(pair[0], pair[1]);
        }
    }
    total
}

/// The static striped baseline under a topology: datum `d` on `d mod m`.
pub fn striped_generic<T: Topology + ?Sized>(
    topo: &T,
    trace: &(impl FlatView + ?Sized),
) -> Vec<Vec<ProcId>> {
    let m = topo.num_procs() as u32;
    (0..trace.num_data() as u32)
        .map(|d| vec![ProcId(d % m); trace.num_windows()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gomcds::{gomcds_path, Solver};
    use pim_array::torus::Torus;
    use pim_trace::flat::{span_window_runs, FlatRecord, FlatTrace};
    use pim_trace::window::WindowRefs;

    /// Two data over four windows. Datum 0's window 2 and datum 1's
    /// window 3 hold only a zero-count record: empty windows.
    fn sample_trace(grid: Grid) -> FlatTrace {
        let records = [
            (0, 0, 0, 0, 2),
            (0, 0, 3, 1, 1),
            (0, 1, 3, 3, 4),
            (0, 2, 2, 2, 0),
            (0, 3, 1, 2, 2),
            (1, 0, 2, 0, 1),
            (1, 1, 2, 3, 3),
            (1, 2, 2, 0, 1),
            (1, 3, 0, 3, 0),
        ];
        FlatTrace::from_records(
            grid,
            4,
            2,
            records.map(|(d, w, x, y, count)| FlatRecord {
                datum: DataId(d),
                window: w,
                proc: grid.proc_xy(x, y),
                count,
            }),
        )
        .unwrap()
    }

    #[test]
    fn generic_matches_optimized_on_grid() {
        let grid = Grid::new(4, 4);
        let trace = sample_trace(grid);
        // cost tables
        let cache = crate::CostCache::build_flat(&trace);
        let mut ws = crate::Workspace::new();
        for d in 0..trace.num_data() {
            let d = DataId(d as u32);
            for (_, run) in span_window_runs(trace.span(d)) {
                let mut generic = Vec::new();
                let mut fast = Vec::new();
                cost_table_generic(&grid, &grid, run, &mut generic);
                let refs = WindowRefs::from_pairs(run.iter().map(|r| (r.proc(&grid), r.count)));
                crate::cost::cost_table(&grid, &refs, &mut fast);
                assert_eq!(generic, fast);
            }
            // paths
            let (gp, gc) = gomcds_path_generic(&grid, &grid, trace.span(d), trace.num_windows());
            let (fp, fc) = gomcds_path(&grid, cache.datum(d), Solver::DistanceTransform, &mut ws);
            assert_eq!(gc, fc);
            assert_eq!(gp, fp);
        }
        // whole-trace schedulers
        let schedule = |m| crate::schedule(m, &trace, crate::MemoryPolicy::Unbounded);
        let go = schedule(crate::Method::Gomcds);
        let centers = gomcds_generic(&grid, &trace);
        assert_eq!(
            evaluate_generic(&grid, &trace, &centers),
            go.evaluate(&trace).total()
        );
        let sc = schedule(crate::Method::Scds);
        assert_eq!(
            evaluate_generic(&grid, &trace, &scds_generic(&grid, &trace)),
            sc.evaluate(&trace).total()
        );
        let lo = schedule(crate::Method::Lomcds);
        assert_eq!(
            evaluate_generic(&grid, &trace, &lomcds_generic(&grid, &trace)),
            lo.evaluate(&trace).total()
        );
    }

    #[test]
    fn torus_never_worse_than_mesh() {
        let grid = Grid::new(4, 4);
        let torus = Torus::new(4, 4);
        let trace = sample_trace(grid);
        // torus distances ≤ mesh distances pointwise, so the torus optimum
        // can't be worse
        let mesh = evaluate_generic(&grid, &trace, &gomcds_generic(&grid, &trace));
        let tor = evaluate_generic(&torus, &trace, &gomcds_generic(&torus, &trace));
        assert!(tor <= mesh, "torus {tor} > mesh {mesh}");
    }

    #[test]
    fn generic_ordering_holds_on_torus() {
        let torus = Torus::new(4, 4);
        let grid = Grid::new(4, 4); // only used to build the trace
        let trace = sample_trace(grid);
        let go = evaluate_generic(&torus, &trace, &gomcds_generic(&torus, &trace));
        let lo = evaluate_generic(&torus, &trace, &lomcds_generic(&torus, &trace));
        let sc = evaluate_generic(&torus, &trace, &scds_generic(&torus, &trace));
        let st = evaluate_generic(&torus, &trace, &striped_generic(&torus, &trace));
        assert!(go <= lo && go <= sc && go <= st);
    }

    #[test]
    fn striped_baseline_shape() {
        let grid = Grid::new(2, 2);
        let trace = sample_trace(Grid::new(4, 4));
        let centers = striped_generic(&grid, &trace);
        assert_eq!(centers.len(), 2);
        assert_eq!(centers[1][0], ProcId(1));
        assert!(centers.iter().all(|cs| cs.len() == trace.num_windows()));
    }
}
