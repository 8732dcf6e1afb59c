//! Dimension-ordered (x-y) routing.
//!
//! The paper assumes x-y routing: a message first travels along the x-axis
//! to the destination column, then along the y-axis to the destination row.
//! The number of links crossed equals the Manhattan distance, which is why
//! the analytic cost model in `pim-sched` and the hop-by-hop simulator in
//! `pim-sim` must always agree — a fact the integration tests assert.

use crate::geom::Point;
use crate::grid::{Grid, ProcId};

/// A directed link between two adjacent processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Link {
    /// Source processor of the link.
    pub from: ProcId,
    /// Destination processor of the link.
    pub to: ProcId,
}

impl core::fmt::Display for Link {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}->{}", self.from, self.to)
    }
}

/// The full x-y route from `src` to `dst`, as the sequence of processors
/// visited (inclusive of both endpoints). A zero-length transfer yields a
/// single-element route.
pub fn xy_route(grid: &Grid, src: ProcId, dst: ProcId) -> Vec<ProcId> {
    let mut route = Vec::with_capacity(grid.dist(src, dst) as usize + 1);
    visit_xy_route(grid, src, dst, |p| route.push(p));
    route
}

/// Walk the x-y route calling `visit` for every processor on it, without
/// allocating. Endpoint-inclusive, x first then y.
pub fn visit_xy_route(grid: &Grid, src: ProcId, dst: ProcId, mut visit: impl FnMut(ProcId)) {
    let s = grid.point_of(src);
    let d = grid.point_of(dst);
    let mut cur = s;
    visit(grid.proc_at(cur));
    while cur.x != d.x {
        cur.x = if d.x > cur.x { cur.x + 1 } else { cur.x - 1 };
        visit(grid.proc_at(cur));
    }
    while cur.y != d.y {
        cur.y = if d.y > cur.y { cur.y + 1 } else { cur.y - 1 };
        visit(grid.proc_at(cur));
    }
}

/// Enumerate the directed links crossed by the x-y route from `src` to
/// `dst`, calling `visit` once per link in travel order.
pub fn visit_xy_links(grid: &Grid, src: ProcId, dst: ProcId, mut visit: impl FnMut(Link)) {
    let mut prev: Option<ProcId> = None;
    visit_xy_route(grid, src, dst, |p| {
        if let Some(q) = prev {
            visit(Link { from: q, to: p });
        }
        prev = Some(p);
    });
}

/// Number of hops (links) on the x-y route — by construction equal to the
/// Manhattan distance.
#[inline]
pub fn hop_count(grid: &Grid, src: ProcId, dst: ProcId) -> u64 {
    grid.dist(src, dst)
}

/// Identify every directed link of the grid with a dense index, so that the
/// simulator can keep per-link counters in a flat `Vec`.
///
/// Links are numbered `proc_index * 4 + direction` with direction
/// 0 = east (+x), 1 = west (−x), 2 = south (+y), 3 = north (−y). Slots for
/// links that would leave the grid exist but are never used; the waste is
/// tiny and the indexing branch-free.
#[derive(Debug, Clone, Copy)]
pub struct LinkIndex {
    grid: Grid,
}

impl LinkIndex {
    /// Build the link indexer for a grid.
    pub fn new(grid: Grid) -> Self {
        LinkIndex { grid }
    }

    /// Total number of link slots (including unused border slots).
    pub fn num_slots(&self) -> usize {
        self.grid.num_procs() * 4
    }

    /// Dense index of a directed link between adjacent processors.
    ///
    /// # Panics
    /// Panics if `link` does not connect two adjacent processors.
    pub fn index_of(&self, link: Link) -> usize {
        let a = self.grid.point_of(link.from);
        let b = self.grid.point_of(link.to);
        assert!(a.is_adjacent(b), "link {link} endpoints not adjacent");
        let dir = if b.x == a.x + 1 {
            0
        } else if a.x == b.x + 1 {
            1
        } else if b.y == a.y + 1 {
            2
        } else {
            3
        };
        link.from.index() * 4 + dir
    }

    /// Reverse mapping from a dense slot back to the link, or `None` for an
    /// unused border slot.
    pub fn link_of(&self, slot: usize) -> Option<Link> {
        let from = ProcId((slot / 4) as u32);
        if from.index() >= self.grid.num_procs() {
            return None;
        }
        let p = self.grid.point_of(from);
        let q = match slot % 4 {
            0 => Point::new(p.x.checked_add(1)?, p.y),
            1 => Point::new(p.x.checked_sub(1)?, p.y),
            2 => Point::new(p.x, p.y.checked_add(1)?),
            _ => Point::new(p.x, p.y.checked_sub(1)?),
        };
        self.grid.contains(q).then(|| Link {
            from,
            to: self.grid.proc_at(q),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid {
        Grid::new(4, 4)
    }

    #[test]
    fn route_goes_x_then_y() {
        let g = grid();
        let route = xy_route(&g, g.proc_xy(0, 0), g.proc_xy(2, 2));
        let pts: Vec<_> = route.iter().map(|&p| g.point_of(p)).collect();
        assert_eq!(
            pts,
            vec![
                Point::new(0, 0),
                Point::new(1, 0),
                Point::new(2, 0),
                Point::new(2, 1),
                Point::new(2, 2),
            ]
        );
    }

    #[test]
    fn route_handles_negative_directions() {
        let g = grid();
        let route = xy_route(&g, g.proc_xy(3, 3), g.proc_xy(1, 2));
        let pts: Vec<_> = route.iter().map(|&p| g.point_of(p)).collect();
        assert_eq!(
            pts,
            vec![
                Point::new(3, 3),
                Point::new(2, 3),
                Point::new(1, 3),
                Point::new(1, 2),
            ]
        );
    }

    #[test]
    fn route_length_equals_distance_plus_one() {
        let g = Grid::new(6, 5);
        for a in g.procs() {
            for b in g.procs() {
                let route = xy_route(&g, a, b);
                assert_eq!(route.len() as u64, g.dist(a, b) + 1);
                assert_eq!(route.first(), Some(&a));
                assert_eq!(route.last(), Some(&b));
                // consecutive processors adjacent
                for w in route.windows(2) {
                    assert_eq!(g.dist(w[0], w[1]), 1);
                }
            }
        }
    }

    #[test]
    fn self_route_is_single_node() {
        let g = grid();
        let p = g.proc_xy(2, 1);
        assert_eq!(xy_route(&g, p, p), vec![p]);
        let mut links = 0;
        visit_xy_links(&g, p, p, |_| links += 1);
        assert_eq!(links, 0);
    }

    #[test]
    fn hop_count_equals_manhattan() {
        let g = Grid::new(7, 3);
        for a in g.procs() {
            for b in g.procs() {
                assert_eq!(hop_count(&g, a, b), g.dist(a, b));
            }
        }
    }

    #[test]
    fn link_index_roundtrip() {
        let g = grid();
        let idx = LinkIndex::new(g);
        let mut seen = std::collections::HashSet::new();
        for a in g.procs() {
            for b in g.neighbors(a) {
                let link = Link { from: a, to: b };
                let slot = idx.index_of(link);
                assert!(slot < idx.num_slots());
                assert!(seen.insert(slot), "slot collision for {link}");
                assert_eq!(idx.link_of(slot), Some(link));
            }
        }
        // 4x4 grid: 2*4*3*2 = 48 directed links
        assert_eq!(seen.len(), 48);
    }

    #[test]
    fn link_index_border_slots_are_none() {
        let g = grid();
        let idx = LinkIndex::new(g);
        // west link of processor (0,0) does not exist: slot = 0*4 + 1
        assert_eq!(idx.link_of(1), None);
        // beyond range
        assert_eq!(idx.link_of(idx.num_slots() + 5), None);
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn link_index_rejects_non_adjacent() {
        let g = grid();
        LinkIndex::new(g).index_of(Link {
            from: g.proc_xy(0, 0),
            to: g.proc_xy(2, 0),
        });
    }
}
