//! Lower-bound certificates.
//!
//! GOMCDS is provably optimal per datum, but "provably" lives in the code
//! of one DP. These bounds are computed by *different, simpler* reasoning
//! and sandwich every schedule from below, giving the test suite an
//! independent certificate:
//!
//! * [`reference_lower_bound`] — movement is free, every window served
//!   from its own local optimum: no schedule (with any number of moves)
//!   can have lower *reference* cost, and since movement cost ≥ 0, no
//!   schedule can have lower total cost either.
//! * [`single_center_lower_bound`] — the SCDS optimum, which lower-bounds
//!   every *static* schedule.
//!
//! Tests assert `reference_lower_bound ≤ GOMCDS ≤ everything else`, and
//! that the bound is tight exactly when GOMCDS never pays for movement it
//! can't amortize.

use crate::cost::span_optimal_center;
use pim_trace::flat::{span_window_runs, FlatView};
use pim_trace::ids::DataId;

/// Σ over data and windows of the window's minimum possible reference
/// cost. A valid lower bound on the total cost of **any single-copy**
/// schedule, movement included (movement only adds cost, and no center
/// can serve a window cheaper than the window's own optimum). Replicated
/// schedules can go below it — nearest-replica serving beats any single
/// center — which is exactly how `tests/extensions.rs` separates the two
/// regimes.
pub fn reference_lower_bound(trace: &(impl FlatView + ?Sized)) -> u64 {
    let grid = trace.grid();
    let mut total = 0u64;
    for d in 0..trace.num_data() {
        for (_, run) in span_window_runs(trace.span(DataId(d as u32))) {
            total += span_optimal_center(&grid, run).1;
        }
    }
    total
}

/// Σ over data of the merged-window optimum — the unconstrained SCDS
/// cost, which lower-bounds every static (never-moving) schedule.
pub fn single_center_lower_bound(trace: &(impl FlatView + ?Sized)) -> u64 {
    let grid = trace.grid();
    (0..trace.num_data())
        .map(|d| span_optimal_center(&grid, trace.span(DataId(d as u32))).1)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::random_schedule;
    use crate::{schedule, MemoryPolicy, Method};
    use pim_array::grid::Grid;
    use pim_trace::flat::FlatTrace;
    use pim_trace::window::WindowRefs;

    fn sample() -> FlatTrace {
        let grid = Grid::new(4, 4);
        FlatTrace::from_windows(
            grid,
            vec![
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(0, 0), 3)]),
                    WindowRefs::from_pairs([(grid.proc_xy(3, 3), 2), (grid.proc_xy(2, 3), 1)]),
                ],
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(1, 2), 1)]),
                    WindowRefs::new(),
                ],
            ],
        )
        .unwrap()
    }

    #[test]
    fn sandwich_holds() {
        let trace = sample();
        let lb = reference_lower_bound(&trace);
        let go = schedule(Method::Gomcds, &trace, MemoryPolicy::Unbounded)
            .evaluate(&trace)
            .total();
        assert!(lb <= go, "lower bound {lb} exceeds optimum {go}");
        for m in [Method::Scds, Method::Lomcds, Method::GroupedLocal] {
            let cost = schedule(m, &trace, MemoryPolicy::Unbounded)
                .evaluate(&trace)
                .total();
            assert!(go <= cost);
        }
        // a random schedule sits far above the bound
        let rnd = random_schedule(&trace, 7).evaluate(&trace).total();
        assert!(rnd >= lb);
    }

    #[test]
    fn static_bound_is_scds() {
        let trace = sample();
        let scds = schedule(Method::Scds, &trace, MemoryPolicy::Unbounded)
            .evaluate(&trace)
            .total();
        assert_eq!(single_center_lower_bound(&trace), scds);
    }

    #[test]
    fn bound_is_tight_when_movement_is_free_to_avoid() {
        let grid = Grid::new(4, 4);
        // references never change location → zero movement needed, bound
        // achieved exactly
        let win = || WindowRefs::from_pairs([(grid.proc_xy(1, 1), 2), (grid.proc_xy(2, 1), 1)]);
        let trace = FlatTrace::from_windows(grid, vec![vec![win(), win(), win()]]).unwrap();
        let go = schedule(Method::Gomcds, &trace, MemoryPolicy::Unbounded)
            .evaluate(&trace)
            .total();
        assert_eq!(go, reference_lower_bound(&trace));
    }

    #[test]
    fn empty_trace_bounds_zero() {
        let grid = Grid::new(2, 2);
        let trace = FlatTrace::from_windows(grid, vec![vec![WindowRefs::new()]]).unwrap();
        assert_eq!(reference_lower_bound(&trace), 0);
        assert_eq!(single_center_lower_bound(&trace), 0);
    }
}
