//! Wrap-around (torus) grid — an extension beyond the paper.
//!
//! PIM array proposals in the PetaFlop study vary in whether the mesh edges
//! wrap. The paper evaluates an open mesh; the torus variant is provided so
//! the ablation benches can quantify how much of the scheduling gain
//! survives when wrap-around links shrink distances.

use crate::geom::Point;
use crate::grid::ProcId;

/// A `width × height` torus of processors: like [`crate::grid::Grid`] but
/// with wrap-around distance in both axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Torus {
    width: u32,
    height: u32,
}

impl Torus {
    /// Create a torus with `width` columns and `height` rows.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "torus dimensions must be positive");
        Torus { width, height }
    }

    /// Number of columns.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of rows.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total number of processors.
    pub fn num_procs(&self) -> usize {
        (self.width * self.height) as usize
    }

    /// Coordinate of a processor (same row-major layout as `Grid`).
    pub fn point_of(&self, p: ProcId) -> Point {
        assert!(p.index() < self.num_procs());
        Point::new(p.0 % self.width, p.0 / self.width)
    }

    /// Processor at a coordinate.
    pub fn proc_at(&self, p: Point) -> ProcId {
        assert!(p.x < self.width && p.y < self.height);
        ProcId(p.y * self.width + p.x)
    }

    /// Wrap-around Manhattan distance.
    pub fn dist(&self, a: ProcId, b: ProcId) -> u64 {
        let pa = self.point_of(a);
        let pb = self.point_of(b);
        let dx = pa.x.abs_diff(pb.x);
        let dy = pa.y.abs_diff(pb.y);
        let dx = dx.min(self.width - dx) as u64;
        let dy = dy.min(self.height - dy) as u64;
        dx + dy
    }

    /// Maximum distance between any two processors.
    pub fn diameter(&self) -> u64 {
        (self.width as u64 / 2) + (self.height as u64 / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraparound_shrinks_distance() {
        let t = Torus::new(4, 4);
        let a = t.proc_at(Point::new(0, 0));
        let b = t.proc_at(Point::new(3, 0));
        // open mesh distance would be 3; torus wraps to 1
        assert_eq!(t.dist(a, b), 1);
        let c = t.proc_at(Point::new(3, 3));
        assert_eq!(t.dist(a, c), 2);
    }

    #[test]
    fn interior_distances_match_mesh() {
        let t = Torus::new(8, 8);
        let a = t.proc_at(Point::new(2, 2));
        let b = t.proc_at(Point::new(4, 5));
        assert_eq!(t.dist(a, b), 5);
    }

    #[test]
    fn diameter_is_half_each_axis() {
        assert_eq!(Torus::new(4, 4).diameter(), 4);
        assert_eq!(Torus::new(5, 5).diameter(), 4);
        assert_eq!(Torus::new(1, 1).diameter(), 0);
    }

    #[test]
    fn torus_diameter_bounds_all_pairs() {
        let t = Torus::new(5, 3);
        for a in 0..t.num_procs() as u32 {
            for b in 0..t.num_procs() as u32 {
                assert!(t.dist(ProcId(a), ProcId(b)) <= t.diameter());
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_torus_panics() {
        Torus::new(4, 0);
    }
}
