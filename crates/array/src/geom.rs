//! Points on the processor grid and the L1 (Manhattan) metric.
//!
//! The paper defines the communication cost between two processors as the
//! distance along the x-axis plus the distance along the y-axis of the 2-D
//! grid, with unit distance between adjacent processors. That is exactly the
//! L1 metric implemented here.

/// A processor coordinate on the 2-D grid. `x` is the column, `y` the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Point {
    /// Column index (x-axis position).
    pub x: u32,
    /// Row index (y-axis position).
    pub y: u32,
}

impl Point {
    /// Create a point at column `x`, row `y`.
    #[inline]
    pub const fn new(x: u32, y: u32) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point::new(0, 0);

    /// Manhattan (L1) distance to another point.
    ///
    /// This is the paper's inter-processor communication distance for a
    /// single unit of data under x-y routing.
    #[inline]
    pub fn l1_dist(self, other: Point) -> u64 {
        let dx = self.x.abs_diff(other.x) as u64;
        let dy = self.y.abs_diff(other.y) as u64;
        dx + dy
    }

    /// Chebyshev (L∞) distance; used only by diagnostics and tests.
    #[inline]
    pub fn linf_dist(self, other: Point) -> u64 {
        let dx = self.x.abs_diff(other.x) as u64;
        let dy = self.y.abs_diff(other.y) as u64;
        dx.max(dy)
    }

    /// True if the two points are adjacent in the grid (distance one along a
    /// single axis). Diagonal neighbours are *not* adjacent under x-y
    /// routing.
    #[inline]
    pub fn is_adjacent(self, other: Point) -> bool {
        self.l1_dist(other) == 1
    }
}

impl core::fmt::Display for Point {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// All lattice points on *some* shortest x-y path from `a` to `b` form the
/// axis-aligned bounding rectangle of the two points. Returns `true` when
/// `p` lies on at least one monotone (shortest) path between `a` and `b`.
///
/// This predicate backs the paper's Theorem 2, which quantifies over "any
/// path which gives the shortest distance" between two centers.
#[inline]
pub fn on_some_shortest_path(a: Point, b: Point, p: Point) -> bool {
    let xlo = a.x.min(b.x);
    let xhi = a.x.max(b.x);
    let ylo = a.y.min(b.y);
    let yhi = a.y.max(b.y);
    (xlo..=xhi).contains(&p.x) && (ylo..=yhi).contains(&p.y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_dist_basic() {
        assert_eq!(Point::new(0, 0).l1_dist(Point::new(0, 0)), 0);
        assert_eq!(Point::new(0, 0).l1_dist(Point::new(3, 2)), 5);
        assert_eq!(Point::new(3, 2).l1_dist(Point::new(0, 0)), 5);
        assert_eq!(Point::new(1, 1).l1_dist(Point::new(1, 4)), 3);
    }

    #[test]
    fn l1_dist_is_symmetric_and_triangle() {
        let pts = [
            Point::new(0, 0),
            Point::new(5, 1),
            Point::new(2, 7),
            Point::new(9, 9),
        ];
        for &a in &pts {
            for &b in &pts {
                assert_eq!(a.l1_dist(b), b.l1_dist(a));
                for &c in &pts {
                    assert!(a.l1_dist(c) <= a.l1_dist(b) + b.l1_dist(c));
                }
            }
        }
    }

    #[test]
    fn linf_leq_l1() {
        let a = Point::new(2, 3);
        let b = Point::new(7, 1);
        assert!(a.linf_dist(b) <= a.l1_dist(b));
        assert_eq!(a.linf_dist(b), 5);
    }

    #[test]
    fn adjacency() {
        let p = Point::new(2, 2);
        assert!(p.is_adjacent(Point::new(3, 2)));
        assert!(p.is_adjacent(Point::new(2, 1)));
        assert!(!p.is_adjacent(Point::new(3, 3))); // diagonal
        assert!(!p.is_adjacent(p));
    }

    #[test]
    fn shortest_path_membership() {
        let a = Point::new(1, 1);
        let b = Point::new(4, 3);
        assert!(on_some_shortest_path(a, b, Point::new(2, 2)));
        assert!(on_some_shortest_path(a, b, a));
        assert!(on_some_shortest_path(a, b, b));
        assert!(!on_some_shortest_path(a, b, Point::new(0, 2)));
        assert!(!on_some_shortest_path(a, b, Point::new(2, 4)));
    }

    #[test]
    fn display_format() {
        assert_eq!(Point::new(1, 3).to_string(), "(1, 3)");
    }
}
