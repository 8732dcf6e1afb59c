//! Data-granularity conversion.
//!
//! The paper schedules individual array *elements*, each costing one unit
//! to move per hop ("weighted by the data volume transferred" with unit
//! volumes). Real systems often place whole **rows** as the unit of
//! distribution. This module re-expresses an element-level trace at row
//! granularity: datum = (array, row), reference counts aggregated, and a
//! per-datum *volume* (the row length) that movement must be weighted by.
//!
//! Together with `pim-sched`'s volume-aware evaluation and the
//! volume-weighted GOMCDS, this powers the `sweep_granularity` ablation:
//! does movement-aware scheduling survive when moving a datum costs a
//! whole row per hop?

use crate::space::DataSpace;
use pim_array::grid::Grid;
use pim_trace::builder::TraceBuilder;
use pim_trace::ids::DataId;
use pim_trace::step::StepTrace;

/// A trace re-expressed at row granularity.
#[derive(Debug, Clone)]
pub struct RowTrace {
    /// The row-level step trace (datum = one array row).
    pub steps: StepTrace,
    /// The row-level data space (each array becomes `rows × 1`).
    pub space: DataSpace,
    /// Per-datum transfer volume: the row length of its array.
    pub volumes: Vec<u64>,
}

/// Convert an element-level trace to row granularity.
///
/// # Panics
/// Panics if any referenced datum lies outside `space`.
pub fn rows_of(steps: &StepTrace, space: &DataSpace) -> RowTrace {
    let grid: Grid = steps.grid;
    let mut row_space = DataSpace::new();
    let mut handles = Vec::with_capacity(space.arrays().len());
    let mut volumes = Vec::new();
    for a in space.arrays() {
        let h = row_space.add_array(&format!("{}_rows", a.name), a.rows, 1);
        handles.push(h);
        volumes.extend(std::iter::repeat_n(a.cols as u64, a.rows as usize));
    }

    let mut b = TraceBuilder::new(grid, row_space.total_data());
    for step in &steps.steps {
        let mut sh = b.step();
        for acc in &step.accesses {
            let (array, row, _col) = space
                .locate(acc.data)
                .expect("trace datum outside its data space");
            sh.access_n(
                acc.proc,
                row_space.elem(handles[array_index(&handles, array)], row, 0),
                acc.count,
            );
        }
    }
    RowTrace {
        steps: b.finish(),
        space: row_space,
        volumes,
    }
}

/// Index of a handle within the ordered handle list (handles are opaque;
/// arrays were registered in order, so compare by registration order).
fn array_index(handles: &[crate::space::ArrayHandle], h: crate::space::ArrayHandle) -> usize {
    handles
        .iter()
        .position(|&x| x == h)
        .expect("handle from the same space")
}

/// Convenience: row-level datum id of `(array index, row)` for tests.
pub fn row_id(space_rows: &DataSpace, array: usize, row: u32) -> DataId {
    DataId(space_rows.arrays()[array].base + row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::{lu_trace, LuParams};
    use crate::matmul::{matmul_trace, MatMulParams};
    use pim_trace::stats::volume_per_data;
    use pim_trace::validate::validate_steps;

    #[test]
    fn volumes_are_row_lengths() {
        let grid = Grid::new(4, 4);
        let (steps, space) = matmul_trace(grid, MatMulParams::new(8));
        let rt = rows_of(&steps, &space);
        // A and C: 8 rows each, each of length 8
        assert_eq!(rt.space.total_data(), 16);
        assert_eq!(rt.volumes, vec![8u64; 16]);
        assert_eq!(validate_steps(&rt.steps), Ok(()));
    }

    #[test]
    fn reference_volume_is_preserved() {
        let grid = Grid::new(4, 4);
        let (steps, space) = lu_trace(grid, LuParams::new(8));
        let rt = rows_of(&steps, &space);
        assert_eq!(rt.steps.total_refs(), steps.total_refs());
        assert_eq!(rt.steps.num_steps(), steps.num_steps());
    }

    #[test]
    fn rows_aggregate_their_elements() {
        let grid = Grid::new(4, 4);
        let (steps, space) = lu_trace(grid, LuParams::new(8));
        let rt = rows_of(&steps, &space);
        // the pivot row (row 0) is hot in the first update step; its
        // row-level refs must equal the sum of its elements' refs
        let w_elem = steps.window_fixed(usize::MAX >> 1);
        let w_rows = rt.steps.window_fixed(usize::MAX >> 1);
        let elem_total: u64 = (0..8u32)
            .map(|c| {
                let mut sp = DataSpace::new();
                let a = sp.add_array("A", 8, 8);
                volume_per_data(&w_elem)[sp.elem(a, 0, c).index()]
            })
            .sum();
        let row_total = volume_per_data(&w_rows)[row_id(&rt.space, 0, 0).index()];
        assert_eq!(row_total, elem_total);
    }
}
