//! Static data-to-processor distributions.
//!
//! These are the "straight-forward" distributions the paper compares
//! against (row-wise and column-wise), plus the other classic HPF-style
//! layouts (2-D block, cyclic, block-cyclic) used by the ablation studies
//! and by the workload generators' iteration partitioning.
//!
//! A layout maps an element `(row, col)` of a `rows × cols` data array to a
//! processor of the grid. All layouts except [`Layout::Diagonal`] are
//! *balanced* (every processor receives `⌊N/m⌋` or `⌈N/m⌉` elements of an
//! `N`-element array); the diagonal layout is balanced exactly when the
//! column count is a multiple of the processor count.

use crate::grid::{Grid, ProcId};

/// A static distribution of a 2-D data array over the processor grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Elements in row-major order, split into contiguous equal chunks,
    /// chunk `k` on processor `k`. The paper's straight-forward baseline.
    RowWise,
    /// Same but column-major order — the paper's other default.
    ColumnWise,
    /// 2-D block decomposition: the data array is cut into a
    /// `grid.width() × grid.height()` array of rectangular tiles.
    Block2D,
    /// Element `e` (row-major index) on processor `e mod m`.
    Cyclic,
    /// Block-cyclic with `block` consecutive row-major elements per unit.
    BlockCyclic {
        /// Elements per cyclic unit; must be positive.
        block: u32,
    },
    /// Boustrophedon: like [`Layout::RowWise`] but alternate data rows run
    /// right-to-left, so consecutive elements stay on neighbouring
    /// processors across row boundaries.
    Snake,
    /// Anti-diagonal striping: element `(r, c)` on processor
    /// `(r + c) mod m`. Spreads each data row *and* each data column over
    /// many processors — the classic wavefront-friendly distribution.
    Diagonal,
}

impl Layout {
    /// The processor holding element `(row, col)` of a `rows × cols` array.
    ///
    /// # Panics
    /// Panics if the element is out of range or (for `BlockCyclic`) the
    /// block size is zero.
    pub fn owner(&self, grid: &Grid, rows: u32, cols: u32, row: u32, col: u32) -> ProcId {
        assert!(
            row < rows && col < cols,
            "element ({row},{col}) out of {rows}x{cols}"
        );
        let m = grid.num_procs() as u64;
        match *self {
            Layout::RowWise => {
                let e = (row as u64) * cols as u64 + col as u64;
                let n = rows as u64 * cols as u64;
                ProcId((e * m / n) as u32)
            }
            Layout::ColumnWise => {
                let e = (col as u64) * rows as u64 + row as u64;
                let n = rows as u64 * cols as u64;
                ProcId((e * m / n) as u32)
            }
            Layout::Block2D => {
                let px = (col as u64 * grid.width() as u64 / cols as u64) as u32;
                let py = (row as u64 * grid.height() as u64 / rows as u64) as u32;
                grid.proc_xy(px, py)
            }
            Layout::Cyclic => {
                let e = (row as u64) * cols as u64 + col as u64;
                ProcId((e % m) as u32)
            }
            Layout::BlockCyclic { block } => {
                assert!(block > 0, "block size must be positive");
                let e = (row as u64) * cols as u64 + col as u64;
                ProcId(((e / block as u64) % m) as u32)
            }
            Layout::Snake => {
                let c = if row.is_multiple_of(2) {
                    col
                } else {
                    cols - 1 - col
                };
                let e = (row as u64) * cols as u64 + c as u64;
                let n = rows as u64 * cols as u64;
                ProcId((e * m / n) as u32)
            }
            Layout::Diagonal => ProcId(((row as u64 + col as u64) % m) as u32),
        }
    }

    /// Owner by dense row-major element id (`0..rows*cols`).
    pub fn owner_of_elem(&self, grid: &Grid, rows: u32, cols: u32, elem: u32) -> ProcId {
        self.owner(grid, rows, cols, elem / cols, elem % cols)
    }

    /// Human-readable name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Layout::RowWise => "row-wise",
            Layout::ColumnWise => "column-wise",
            Layout::Block2D => "block-2d",
            Layout::Cyclic => "cyclic",
            Layout::BlockCyclic { .. } => "block-cyclic",
            Layout::Snake => "snake",
            Layout::Diagonal => "diagonal",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(layout: Layout, grid: &Grid, rows: u32, cols: u32) -> Vec<u32> {
        let mut c = vec![0u32; grid.num_procs()];
        for r in 0..rows {
            for j in 0..cols {
                c[layout.owner(grid, rows, cols, r, j).index()] += 1;
            }
        }
        c
    }

    #[test]
    fn row_wise_contiguous_chunks() {
        let g = Grid::new(4, 4);
        // 8x8 data = 64 elements over 16 procs → 4 consecutive elements each
        let l = Layout::RowWise;
        assert_eq!(l.owner(&g, 8, 8, 0, 0), ProcId(0));
        assert_eq!(l.owner(&g, 8, 8, 0, 3), ProcId(0));
        assert_eq!(l.owner(&g, 8, 8, 0, 4), ProcId(1));
        assert_eq!(l.owner(&g, 8, 8, 7, 7), ProcId(15));
    }

    #[test]
    fn column_wise_transposes_row_wise() {
        let g = Grid::new(4, 4);
        for r in 0..8 {
            for c in 0..8 {
                assert_eq!(
                    Layout::ColumnWise.owner(&g, 8, 8, r, c),
                    Layout::RowWise.owner(&g, 8, 8, c, r)
                );
            }
        }
    }

    #[test]
    fn all_layouts_balanced() {
        let g = Grid::new(4, 4);
        for layout in [
            Layout::RowWise,
            Layout::ColumnWise,
            Layout::Block2D,
            Layout::Cyclic,
            Layout::BlockCyclic { block: 3 },
        ] {
            for (rows, cols) in [(8, 8), (16, 16), (12, 20)] {
                let c = counts(layout, &g, rows, cols);
                let total: u32 = c.iter().sum();
                assert_eq!(total, rows * cols);
                let lo = *c.iter().min().unwrap();
                let hi = *c.iter().max().unwrap();
                assert!(
                    hi - lo <= (rows * cols).div_ceil(16), // generous balance bound
                    "{} unbalanced: {lo}..{hi}",
                    layout.name()
                );
            }
        }
    }

    #[test]
    fn row_and_column_wise_perfectly_balanced() {
        let g = Grid::new(4, 4);
        for layout in [Layout::RowWise, Layout::ColumnWise, Layout::Cyclic] {
            let c = counts(layout, &g, 8, 8);
            assert!(c.iter().all(|&n| n == 4), "{}: {c:?}", layout.name());
        }
    }

    #[test]
    fn block2d_tiles() {
        let g = Grid::new(4, 4);
        // 8x8 over 4x4 → 2x2 tiles
        let l = Layout::Block2D;
        assert_eq!(l.owner(&g, 8, 8, 0, 0), g.proc_xy(0, 0));
        assert_eq!(l.owner(&g, 8, 8, 1, 1), g.proc_xy(0, 0));
        assert_eq!(l.owner(&g, 8, 8, 0, 2), g.proc_xy(1, 0));
        assert_eq!(l.owner(&g, 8, 8, 7, 7), g.proc_xy(3, 3));
    }

    #[test]
    fn owner_of_elem_matches_owner() {
        let g = Grid::new(4, 4);
        for layout in [Layout::RowWise, Layout::Cyclic, Layout::Block2D] {
            for e in 0..64u32 {
                assert_eq!(
                    layout.owner_of_elem(&g, 8, 8, e),
                    layout.owner(&g, 8, 8, e / 8, e % 8)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn rejects_out_of_range_element() {
        Layout::RowWise.owner(&Grid::new(2, 2), 4, 4, 4, 0);
    }

    #[test]
    fn names() {
        assert_eq!(Layout::RowWise.name(), "row-wise");
        assert_eq!(Layout::BlockCyclic { block: 2 }.name(), "block-cyclic");
        assert_eq!(Layout::Snake.name(), "snake");
        assert_eq!(Layout::Diagonal.name(), "diagonal");
    }

    #[test]
    fn snake_alternates_direction() {
        let g = Grid::new(4, 4);
        // 8x8 over 16 procs, 4 elements per proc; even row left-to-right
        assert_eq!(Layout::Snake.owner(&g, 8, 8, 0, 0), ProcId(0));
        assert_eq!(Layout::Snake.owner(&g, 8, 8, 0, 7), ProcId(1));
        // odd rows reversed: (1, 7) is the first element of row 1's walk
        assert_eq!(Layout::Snake.owner(&g, 8, 8, 1, 7), ProcId(2));
        assert_eq!(Layout::Snake.owner(&g, 8, 8, 1, 0), ProcId(3));
        // balanced
        let c = counts(Layout::Snake, &g, 8, 8);
        assert!(c.iter().all(|&n| n == 4), "{c:?}");
    }

    #[test]
    fn diagonal_spreads_rows_and_columns() {
        let g = Grid::new(4, 4);
        let l = Layout::Diagonal;
        assert_eq!(l.owner(&g, 8, 8, 0, 0), ProcId(0));
        assert_eq!(l.owner(&g, 8, 8, 0, 5), ProcId(5));
        assert_eq!(l.owner(&g, 8, 8, 3, 2), ProcId(5));
        assert_eq!(l.owner(&g, 8, 8, 7, 7), ProcId(14));
        // every data row touches 8 distinct processors
        for r in 0..8 {
            let mut procs: Vec<u32> = (0..8).map(|c| l.owner(&g, 8, 8, r, c).0).collect();
            procs.sort_unstable();
            procs.dedup();
            assert_eq!(procs.len(), 8, "row {r}");
        }
        // balanced when cols is a multiple of the processor count
        let g2 = Grid::new(2, 4); // 8 procs, 32 cols below
        let c = counts(l, &g2, 8, 32);
        assert!(c.iter().all(|&n| n == 32), "{c:?}");
    }
}
