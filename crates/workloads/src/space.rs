//! Multi-array data spaces.
//!
//! A benchmark may operate on several named 2-D arrays (matrix multiply
//! reads `A` and accumulates into `C`). All of them share the dense
//! [`DataId`] space of one trace; [`DataSpace`] owns the id arithmetic and
//! produces the straight-forward baseline placement in which *each array
//! independently* is distributed by a static layout — exactly what a
//! compiler's default row-wise distribution would do.

use pim_array::grid::{Grid, ProcId};
use pim_array::layout::Layout;
use pim_sched::schedule::Schedule;
use pim_trace::flat::FlatView;
use pim_trace::ids::DataId;

/// Handle to one array registered in a [`DataSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayHandle(usize);

/// One named 2-D array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArraySpec {
    /// Human-readable array name ("A", "C", …).
    pub name: String,
    /// Number of rows.
    pub rows: u32,
    /// Number of columns.
    pub cols: u32,
    /// First datum id of this array.
    pub base: u32,
}

impl ArraySpec {
    /// Number of elements.
    pub fn len(&self) -> u32 {
        self.rows * self.cols
    }

    /// Whether the array has no elements (never true for registered
    /// arrays).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The set of arrays a benchmark operates on, packed into one dense datum
/// id space.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataSpace {
    arrays: Vec<ArraySpec>,
}

impl DataSpace {
    /// An empty data space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a `rows × cols` array; ids are assigned contiguously after
    /// previously registered arrays.
    ///
    /// # Panics
    /// Panics on zero-sized arrays.
    pub fn add_array(&mut self, name: &str, rows: u32, cols: u32) -> ArrayHandle {
        assert!(rows > 0 && cols > 0, "arrays must be non-empty");
        let base = self.total_data();
        self.arrays.push(ArraySpec {
            name: name.to_string(),
            rows,
            cols,
            base,
        });
        ArrayHandle(self.arrays.len() - 1)
    }

    /// Total number of data items across all arrays.
    pub fn total_data(&self) -> u32 {
        self.arrays.last().map_or(0, |a| a.base + a.len())
    }

    /// The datum id of element `(row, col)` of an array.
    ///
    /// # Panics
    /// Panics if the element is out of range.
    #[inline]
    pub fn elem(&self, array: ArrayHandle, row: u32, col: u32) -> DataId {
        let a = &self.arrays[array.0];
        assert!(
            row < a.rows && col < a.cols,
            "({row},{col}) out of {}x{} array {}",
            a.rows,
            a.cols,
            a.name
        );
        DataId(a.base + row * a.cols + col)
    }

    /// The registered arrays.
    pub fn arrays(&self) -> &[ArraySpec] {
        &self.arrays
    }

    /// Spec of one array.
    pub fn spec(&self, array: ArrayHandle) -> &ArraySpec {
        &self.arrays[array.0]
    }

    /// Which array (and element coordinates) a datum id belongs to.
    pub fn locate(&self, d: DataId) -> Option<(ArrayHandle, u32, u32)> {
        let idx = self
            .arrays
            .iter()
            .rposition(|a| a.base <= d.0 && d.0 < a.base + a.len())?;
        let a = &self.arrays[idx];
        let off = d.0 - a.base;
        Some((ArrayHandle(idx), off / a.cols, off % a.cols))
    }

    /// Per-datum static placement distributing every array by `layout`.
    pub fn placement(&self, grid: &Grid, layout: Layout) -> Vec<ProcId> {
        let mut out = Vec::with_capacity(self.total_data() as usize);
        for a in &self.arrays {
            for e in 0..a.len() {
                out.push(layout.owner_of_elem(grid, a.rows, a.cols, e));
            }
        }
        out
    }

    /// The straight-forward baseline schedule for a trace over this space
    /// (the paper's S.F. column uses [`Layout::RowWise`]).
    ///
    /// # Panics
    /// Panics if the trace's datum count does not match the space.
    pub fn straightforward<V: FlatView + ?Sized>(&self, trace: &V, layout: Layout) -> Schedule {
        assert_eq!(
            trace.num_data(),
            self.total_data() as usize,
            "trace/data-space size mismatch"
        );
        Schedule::static_placement(
            trace.grid(),
            self.placement(&trace.grid(), layout),
            trace.num_windows(),
        )
    }

    /// A data space holding a single `n × n` array named "A".
    pub fn single(n: u32) -> (Self, ArrayHandle) {
        let mut s = Self::new();
        let h = s.add_array("A", n, n);
        (s, h)
    }

    /// Grow this space so it covers at least the arrays of `other`
    /// (used when concatenating benchmarks over a shared id space).
    /// Returns `self` when it is already the larger space.
    ///
    /// # Panics
    /// Panics if neither space is a prefix of the other.
    pub fn union(self, other: DataSpace) -> DataSpace {
        let (small, large) = if self.arrays.len() <= other.arrays.len() {
            (&self, &other)
        } else {
            (&other, &self)
        };
        assert!(
            small.arrays == large.arrays[..small.arrays.len()],
            "data spaces are not prefix-compatible"
        );
        large.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_assignment_contiguous() {
        let mut s = DataSpace::new();
        let a = s.add_array("A", 4, 4);
        let c = s.add_array("C", 4, 4);
        assert_eq!(s.total_data(), 32);
        assert_eq!(s.elem(a, 0, 0), DataId(0));
        assert_eq!(s.elem(a, 3, 3), DataId(15));
        assert_eq!(s.elem(c, 0, 0), DataId(16));
        assert_eq!(s.elem(c, 3, 3), DataId(31));
    }

    #[test]
    fn locate_roundtrip() {
        let mut s = DataSpace::new();
        let a = s.add_array("A", 3, 5);
        let b = s.add_array("B", 2, 2);
        for (h, rows, cols) in [(a, 3, 5), (b, 2, 2)] {
            for r in 0..rows {
                for c in 0..cols {
                    let d = s.elem(h, r, c);
                    assert_eq!(s.locate(d), Some((h, r, c)));
                }
            }
        }
        assert_eq!(s.locate(DataId(100)), None);
    }

    #[test]
    fn placement_per_array() {
        let grid = Grid::new(4, 4);
        let mut s = DataSpace::new();
        s.add_array("A", 8, 8);
        s.add_array("C", 8, 8);
        let p = s.placement(&grid, Layout::RowWise);
        assert_eq!(p.len(), 128);
        // both arrays distributed identically (each row-wise over the grid)
        assert_eq!(&p[..64], &p[64..]);
        assert_eq!(p[0], ProcId(0));
        assert_eq!(p[63], ProcId(15));
    }

    #[test]
    fn union_prefix() {
        let (a, _) = DataSpace::single(4);
        let mut b = DataSpace::new();
        b.add_array("A", 4, 4);
        b.add_array("C", 4, 4);
        let u = a.clone().union(b.clone());
        assert_eq!(u, b);
        let u2 = b.clone().union(a);
        assert_eq!(u2, b);
    }

    #[test]
    #[should_panic(expected = "prefix-compatible")]
    fn union_incompatible_panics() {
        let (a, _) = DataSpace::single(4);
        let (b, _) = DataSpace::single(5);
        let _ = a.union(b);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn elem_bounds_checked() {
        let (s, h) = DataSpace::single(4);
        s.elem(h, 4, 0);
    }
}
