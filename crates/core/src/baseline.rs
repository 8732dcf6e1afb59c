//! Straight-forward static data distributions — the paper's baseline.
//!
//! The experiments compare every scheduler against "the straight-forward
//! method which assigns each data element to the corresponding processor in
//! a row-wise fashion". These baselines know the *shape* of the data array
//! (`rows × cols`) and place element `(i, j)` by a static [`Layout`],
//! never moving it.

use crate::schedule::Schedule;
use pim_array::layout::Layout;
use pim_trace::flat::FlatView;

/// Static schedule distributing a `rows × cols` data array by `layout`.
///
/// Datum ids must follow the row-major convention of
/// [`pim_trace::ids::matrix_elem`]; data beyond `rows*cols` (if any) are
/// placed cyclically.
///
/// # Panics
/// Panics if the trace has fewer data items than the array has elements.
pub fn layout_schedule(
    trace: &(impl FlatView + ?Sized),
    rows: u32,
    cols: u32,
    layout: Layout,
) -> Schedule {
    let grid = trace.grid();
    let n = (rows * cols) as usize;
    assert!(
        trace.num_data() >= n,
        "trace has {} data but array is {rows}x{cols}",
        trace.num_data()
    );
    let placement = (0..trace.num_data() as u32)
        .map(|e| {
            if (e as usize) < n {
                layout.owner_of_elem(&grid, rows, cols, e)
            } else {
                pim_array::grid::ProcId(e % grid.num_procs() as u32)
            }
        })
        .collect();
    Schedule::static_placement(grid, placement, trace.num_windows())
}

/// The paper's straight-forward (S.F.) baseline: row-wise distribution.
pub fn straightforward_schedule(
    trace: &(impl FlatView + ?Sized),
    rows: u32,
    cols: u32,
) -> Schedule {
    layout_schedule(trace, rows, cols, Layout::RowWise)
}

/// A uniformly random static placement (seeded), the sanity-check floor
/// used by the ablation benches.
pub fn random_schedule(trace: &(impl FlatView + ?Sized), seed: u64) -> Schedule {
    let grid = trace.grid();
    // xorshift64* — deterministic, dependency-free
    let mut state = seed.wrapping_mul(2685821657736338717).max(1);
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(2685821657736338717)
    };
    let m = grid.num_procs() as u64;
    let placement = (0..trace.num_data())
        .map(|_| pim_array::grid::ProcId((next() % m) as u32))
        .collect();
    Schedule::static_placement(grid, placement, trace.num_windows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_array::grid::{Grid, ProcId};
    use pim_trace::flat::FlatTrace;
    use pim_trace::ids::DataId;
    use pim_trace::window::WindowRefs;

    fn trace_of(grid: Grid, n: usize) -> FlatTrace {
        FlatTrace::from_windows(grid, vec![vec![WindowRefs::new()]; n]).unwrap()
    }

    #[test]
    fn row_wise_matches_layout() {
        let grid = Grid::new(4, 4);
        let t = trace_of(grid, 64);
        let s = straightforward_schedule(&t, 8, 8);
        for e in 0..64u32 {
            assert_eq!(
                s.center(DataId(e), 0),
                Layout::RowWise.owner_of_elem(&grid, 8, 8, e)
            );
        }
        assert!(!s.has_movement());
    }

    #[test]
    fn extra_data_placed_cyclically() {
        let grid = Grid::new(2, 2);
        let t = trace_of(grid, 6);
        let s = layout_schedule(&t, 2, 2, Layout::RowWise);
        assert_eq!(s.center(DataId(4), 0), ProcId(0));
        assert_eq!(s.center(DataId(5), 0), ProcId(1));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let grid = Grid::new(4, 4);
        let t = trace_of(grid, 32);
        let a = random_schedule(&t, 42);
        let b = random_schedule(&t, 42);
        let c = random_schedule(&t, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.centers_of(DataId(0)).iter().all(|p| p.index() < 16));
    }

    #[test]
    #[should_panic(expected = "trace has")]
    fn too_few_data_panics() {
        let grid = Grid::new(2, 2);
        let t = trace_of(grid, 3);
        layout_schedule(&t, 2, 2, Layout::RowWise);
    }
}
