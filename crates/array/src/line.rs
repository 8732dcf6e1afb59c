//! One-dimensional processor array.
//!
//! The paper proves its grouping properties first on a 1-D array (Lemma 1:
//! the cost of a window's reference string increases strictly monotonically
//! along the direction between the closest pair of local optimal centers)
//! and then lifts them to the 2-D grid (Theorem 2). This small model exists
//! so that `pim-sched::theory` can state and property-test Lemma 1 in its
//! native setting.

/// A 1-D array of `len` processors with unit spacing; processor `i` sits at
/// coordinate `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line {
    len: u32,
}

impl Line {
    /// Create an array of `len` processors.
    ///
    /// # Panics
    /// Panics when `len == 0`.
    pub fn new(len: u32) -> Self {
        assert!(len > 0, "line length must be positive");
        Line { len }
    }

    /// Number of processors.
    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Always false — a `Line` has at least one processor.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Distance between processors `a` and `b`.
    #[inline]
    pub fn dist(&self, a: u32, b: u32) -> u64 {
        debug_assert!(a < self.len && b < self.len);
        a.abs_diff(b) as u64
    }

    /// Total weighted cost of serving the reference multiset
    /// `refs = [(proc, count)]` from a datum stored at `center`.
    pub fn cost_at(&self, refs: &[(u32, u32)], center: u32) -> u64 {
        refs.iter()
            .map(|&(p, n)| n as u64 * self.dist(center, p))
            .sum()
    }

    /// The local optimal center(s) for a reference multiset: every position
    /// achieving the minimum total cost. For L1 on a line this is the
    /// weighted median interval.
    pub fn optimal_centers(&self, refs: &[(u32, u32)]) -> Vec<u32> {
        let mut best = u64::MAX;
        let mut centers = Vec::new();
        for c in 0..self.len {
            let cost = self.cost_at(refs, c);
            match cost.cmp(&best) {
                core::cmp::Ordering::Less => {
                    best = cost;
                    centers.clear();
                    centers.push(c);
                }
                core::cmp::Ordering::Equal => centers.push(c),
                core::cmp::Ordering::Greater => {}
            }
        }
        centers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_and_cost() {
        let l = Line::new(8);
        assert_eq!(l.dist(2, 5), 3);
        assert_eq!(l.cost_at(&[(0, 1), (4, 2)], 2), 2 + 2 * 2);
    }

    #[test]
    fn optimal_center_is_weighted_median() {
        let l = Line::new(8);
        // refs at 0 (w=1) and 7 (w=3): median pulled to 7.
        assert_eq!(l.optimal_centers(&[(0, 1), (7, 3)]), vec![7]);
        // symmetric weights: every point between is optimal.
        assert_eq!(l.optimal_centers(&[(2, 1), (5, 1)]), vec![2, 3, 4, 5]);
    }

    #[test]
    fn empty_refs_all_optimal() {
        let l = Line::new(3);
        assert_eq!(l.optimal_centers(&[]), vec![0, 1, 2]);
    }

    #[test]
    fn lemma1_monotonicity_example() {
        // Lemma 1 setting: two windows, closest pair of local optimal
        // centers; cost of window 0 strictly increases walking toward the
        // other center.
        let l = Line::new(10);
        let w0 = [(1u32, 3u32), (2, 1)];
        let w1 = [(8u32, 2u32)];
        let c0 = *l.optimal_centers(&w0).last().unwrap();
        let c1 = *l.optimal_centers(&w1).first().unwrap();
        assert!(c0 < c1);
        let mut prev = l.cost_at(&w0, c0);
        for p in (c0 + 1)..=c1 {
            let cur = l.cost_at(&w0, p);
            assert!(cur > prev, "cost must strictly increase at {p}");
            prev = cur;
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_panics() {
        Line::new(0);
    }
}
