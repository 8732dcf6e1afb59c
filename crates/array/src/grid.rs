//! The 2-D processor grid.
//!
//! Processors are identified by a dense [`ProcId`] so scheduling algorithms
//! can use flat `Vec`s indexed by processor instead of hash maps (the hot
//! loops in `pim-sched` iterate over every processor for every datum).

use crate::geom::Point;

/// Dense processor identifier: `id = y * width + x` (row-major).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u32);

impl ProcId {
    /// The raw index, usable directly into per-processor `Vec`s.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl core::fmt::Display for ProcId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A `width × height` grid of PIM processors.
///
/// The paper's experiments all use a 4×4 grid; the model is general.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    width: u32,
    height: u32,
}

impl Grid {
    /// Create a grid with `width` columns and `height` rows.
    ///
    /// # Panics
    /// Panics if either dimension is zero or the processor count overflows
    /// `u32`.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be positive");
        assert!(
            width.checked_mul(height).is_some(),
            "grid processor count overflows u32"
        );
        Grid { width, height }
    }

    /// A square `n × n` grid.
    pub fn square(n: u32) -> Self {
        Grid::new(n, n)
    }

    /// Number of columns.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of rows.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total number of processors.
    #[inline]
    pub fn num_procs(&self) -> usize {
        (self.width * self.height) as usize
    }

    /// The processor at a coordinate.
    ///
    /// # Panics
    /// Panics if the point lies outside the grid.
    #[inline]
    pub fn proc_at(&self, p: Point) -> ProcId {
        assert!(
            self.contains(p),
            "point {p} outside {}x{} grid",
            self.width,
            self.height
        );
        ProcId(p.y * self.width + p.x)
    }

    /// The processor at `(x, y)`; convenience for tests and examples.
    #[inline]
    pub fn proc_xy(&self, x: u32, y: u32) -> ProcId {
        self.proc_at(Point::new(x, y))
    }

    /// The coordinate of a processor.
    ///
    /// # Panics
    /// Panics if the id is out of range for this grid.
    #[inline]
    pub fn point_of(&self, p: ProcId) -> Point {
        assert!(
            p.index() < self.num_procs(),
            "{p} out of range for {}x{} grid",
            self.width,
            self.height
        );
        Point::new(p.0 % self.width, p.0 / self.width)
    }

    /// Whether a coordinate lies inside the grid.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x < self.width && p.y < self.height
    }

    /// Manhattan distance between two processors — the paper's
    /// unit-volume communication cost.
    #[inline]
    pub fn dist(&self, a: ProcId, b: ProcId) -> u64 {
        self.point_of(a).l1_dist(self.point_of(b))
    }

    /// Iterate over every processor id in row-major order.
    pub fn procs(&self) -> impl Iterator<Item = ProcId> {
        (0..self.num_procs() as u32).map(ProcId)
    }

    /// Iterate over every coordinate in row-major order.
    pub fn points(&self) -> impl Iterator<Item = Point> + '_ {
        let w = self.width;
        let h = self.height;
        (0..h).flat_map(move |y| (0..w).map(move |x| Point::new(x, y)))
    }

    /// The (up to four) grid neighbours of a processor, in
    /// east/west/south/north order.
    pub fn neighbors(&self, p: ProcId) -> impl Iterator<Item = ProcId> + '_ {
        let pt = self.point_of(p);
        let candidates = [
            (pt.x.checked_add(1), Some(pt.y)),
            (pt.x.checked_sub(1), Some(pt.y)),
            (Some(pt.x), pt.y.checked_add(1)),
            (Some(pt.x), pt.y.checked_sub(1)),
        ];
        candidates.into_iter().filter_map(move |(x, y)| {
            let (x, y) = (x?, y?);
            let q = Point::new(x, y);
            self.contains(q).then(|| self.proc_at(q))
        })
    }

    /// Maximum possible distance on this grid (between opposite corners).
    #[inline]
    pub fn diameter(&self) -> u64 {
        (self.width as u64 - 1) + (self.height as u64 - 1)
    }
}

impl core::fmt::Display for Grid {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}x{} grid", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_point_roundtrip() {
        let g = Grid::new(4, 3);
        for p in g.procs() {
            assert_eq!(g.proc_at(g.point_of(p)), p);
        }
        for pt in g.points() {
            assert_eq!(g.point_of(g.proc_at(pt)), pt);
        }
    }

    #[test]
    fn row_major_layout() {
        let g = Grid::new(4, 4);
        assert_eq!(g.proc_xy(0, 0), ProcId(0));
        assert_eq!(g.proc_xy(3, 0), ProcId(3));
        assert_eq!(g.proc_xy(0, 1), ProcId(4));
        assert_eq!(g.proc_xy(3, 3), ProcId(15));
    }

    #[test]
    fn dist_matches_points() {
        let g = Grid::new(5, 7);
        let a = g.proc_xy(0, 6);
        let b = g.proc_xy(4, 0);
        assert_eq!(g.dist(a, b), 10);
        assert_eq!(g.dist(a, a), 0);
    }

    #[test]
    fn neighbors_corner_edge_center() {
        let g = Grid::new(4, 4);
        assert_eq!(g.neighbors(g.proc_xy(0, 0)).count(), 2);
        assert_eq!(g.neighbors(g.proc_xy(1, 0)).count(), 3);
        assert_eq!(g.neighbors(g.proc_xy(1, 1)).count(), 4);
        for n in g.neighbors(g.proc_xy(2, 2)) {
            assert_eq!(g.dist(g.proc_xy(2, 2), n), 1);
        }
    }

    #[test]
    fn counts_and_diameter() {
        let g = Grid::new(4, 4);
        assert_eq!(g.num_procs(), 16);
        assert_eq!(g.procs().count(), 16);
        assert_eq!(g.points().count(), 16);
        assert_eq!(g.diameter(), 6);
        assert_eq!(Grid::new(1, 1).diameter(), 0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_point_panics() {
        Grid::new(2, 2).proc_at(Point::new(2, 0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_grid_panics() {
        Grid::new(0, 4);
    }

    #[test]
    fn square_helper() {
        let g = Grid::square(4);
        assert_eq!((g.width(), g.height()), (4, 4));
        assert_eq!(g.to_string(), "4x4 grid");
    }
}
