//! L1 distance transform on the processor grid.
//!
//! The GOMCDS dynamic program repeatedly needs, for a function `f` over
//! processors, the relaxed function
//!
//! ```text
//! g(k) = min_j ( f(j) + dist_L1(j, k) )
//! ```
//!
//! — "the cheapest way to be at `k` if you were allowed to start anywhere
//! and pay Manhattan distance to get there". Computing it naively is
//! `O(m²)` per window. Because the metric is L1 on a grid, the classic
//! two-pass chamfer sweep computes it exactly in `O(m)`:
//!
//! * forward pass (row-major) relaxes from the west and north neighbours;
//! * backward pass (reverse row-major) relaxes from the east and south.
//!
//! Correctness: any shortest L1 path from `j` to `k` can be decomposed into
//! a monotone prefix handled by one sweep direction and a monotone suffix
//! handled by the other; two sweeps therefore reach every processor with
//! its exact minimum. The property tests compare against the naive `O(m²)`
//! form on random inputs.
//!
//! Because the L1 metric splits into an x and a y term, a function of the
//! form `f(x, y) = fx(x) + fy(y)` relaxes axis by axis: `g = relax(fx) +
//! relax(fy)`, each a two-pass sweep along one line ([`l1_relax_line`]).
//! The separable GOMCDS solve relies on this to stay in `O(width +
//! height)` per layer.

use pim_array::grid::Grid;

/// Naive `O(m²)` reference implementation of the relaxation.
pub fn l1_relax_naive(grid: &Grid, input: &[u64], out: &mut Vec<u64>) {
    l1_relax_naive_weighted(grid, input, 1, out)
}

/// Naive relaxation with per-hop cost `step`:
/// `out[k] = min_j input[j] + step · dist(j, k)`.
///
/// `step` models the volume of the datum being moved (the paper's unit
/// model is `step = 1`); the `sweep_movement` ablation uses larger values.
pub fn l1_relax_naive_weighted(grid: &Grid, input: &[u64], step: u64, out: &mut Vec<u64>) {
    assert_eq!(input.len(), grid.num_procs());
    out.clear();
    out.extend(grid.procs().map(|k| {
        grid.procs()
            .map(|j| input[j.index()].saturating_add(step.saturating_mul(grid.dist(j, k))))
            .min()
            .expect("non-empty grid")
    }));
}

/// Two-pass `O(m)` L1 distance transform: `out[k] = min_j input[j] + dist(j,k)`.
pub fn l1_relax(grid: &Grid, input: &[u64], out: &mut Vec<u64>) {
    l1_relax_weighted(grid, input, 1, out)
}

/// Two-pass transform with per-hop cost `step` (exact for any positive
/// weight, since the weighted metric is still `step × L1`).
pub fn l1_relax_weighted(grid: &Grid, input: &[u64], step: u64, out: &mut Vec<u64>) {
    assert_eq!(input.len(), grid.num_procs());
    let w = grid.width() as usize;
    let h = grid.height() as usize;
    out.clear();
    out.extend_from_slice(input);

    // Forward: west and north neighbours already finalized for this pass.
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            if x > 0 {
                let c = out[i - 1].saturating_add(step);
                if c < out[i] {
                    out[i] = c;
                }
            }
            if y > 0 {
                let c = out[i - w].saturating_add(step);
                if c < out[i] {
                    out[i] = c;
                }
            }
        }
    }
    // Backward: east and south.
    for y in (0..h).rev() {
        for x in (0..w).rev() {
            let i = y * w + x;
            if x + 1 < w {
                let c = out[i + 1].saturating_add(step);
                if c < out[i] {
                    out[i] = c;
                }
            }
            if y + 1 < h {
                let c = out[i + w].saturating_add(step);
                if c < out[i] {
                    out[i] = c;
                }
            }
        }
    }
}

/// One-dimensional transform with per-hop cost `step` along a line of
/// points `0..input.len()`: `out[k] = min_j input[j] + step · |j − k|`, in
/// two passes (`O(len)`).
pub fn l1_relax_line(input: &[u64], step: u64, out: &mut Vec<u64>) {
    out.clear();
    out.extend_from_slice(input);
    for i in 1..out.len() {
        let c = out[i - 1].saturating_add(step);
        if c < out[i] {
            out[i] = c;
        }
    }
    for i in (1..out.len()).rev() {
        let c = out[i].saturating_add(step);
        if c < out[i - 1] {
            out[i - 1] = c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::INF;

    #[test]
    fn relax_single_source() {
        let g = Grid::new(4, 4);
        let mut input = vec![INF; 16];
        input[g.proc_xy(1, 1).index()] = 0;
        let mut fast = Vec::new();
        l1_relax(&g, &input, &mut fast);
        for p in g.procs() {
            assert_eq!(fast[p.index()], g.dist(g.proc_xy(1, 1), p));
        }
    }

    #[test]
    fn relax_matches_naive_on_patterns() {
        let g = Grid::new(5, 3);
        let patterns: Vec<Vec<u64>> = vec![
            vec![0; 15],
            (0..15u64).collect(),
            (0..15u64).rev().collect(),
            vec![7, INF, 3, INF, INF, 0, 2, INF, 9, 1, INF, INF, 4, 4, 4],
        ];
        for input in patterns {
            let mut fast = Vec::new();
            let mut naive = Vec::new();
            l1_relax(&g, &input, &mut fast);
            l1_relax_naive(&g, &input, &mut naive);
            assert_eq!(fast, naive, "input {input:?}");
        }
    }

    #[test]
    fn relax_is_idempotent_on_metric_functions() {
        // Relaxing an already-relaxed function changes nothing
        // (1-Lipschitz fixed point).
        let g = Grid::new(4, 4);
        let input: Vec<u64> = (0..16).map(|i| (i * 37 % 11) as u64).collect();
        let mut once = Vec::new();
        let mut twice = Vec::new();
        l1_relax(&g, &input, &mut once);
        l1_relax(&g, &once, &mut twice);
        assert_eq!(once, twice);
    }

    #[test]
    fn relax_never_increases() {
        let g = Grid::new(3, 3);
        let input: Vec<u64> = vec![5, 1, 9, 2, 8, 3, 7, 4, 6];
        let mut out = Vec::new();
        l1_relax(&g, &input, &mut out);
        for i in 0..9 {
            assert!(out[i] <= input[i]);
        }
    }

    #[test]
    fn one_by_one_grid() {
        let g = Grid::new(1, 1);
        let mut out = Vec::new();
        l1_relax(&g, &[42], &mut out);
        assert_eq!(out, vec![42]);
    }

    #[test]
    #[should_panic]
    fn wrong_input_length_panics() {
        let g = Grid::new(2, 2);
        let mut out = Vec::new();
        l1_relax(&g, &[0, 1], &mut out);
    }

    #[test]
    fn weighted_relax_matches_naive_weighted() {
        let g = Grid::new(4, 3);
        let input: Vec<u64> = (0..12u64).map(|i| i * 13 % 19).collect();
        for step in [1u64, 2, 5, 100] {
            let mut fast = Vec::new();
            let mut naive = Vec::new();
            l1_relax_weighted(&g, &input, step, &mut fast);
            l1_relax_naive_weighted(&g, &input, step, &mut naive);
            assert_eq!(fast, naive, "step {step}");
        }
    }

    #[test]
    fn line_relax_matches_naive_on_a_one_row_grid() {
        let input: Vec<u64> = vec![9, INF, 3, 40, 0, 17, INF, 5];
        let row = Grid::new(input.len() as u32, 1);
        for step in [1u64, 3, 20] {
            let mut line = Vec::new();
            let mut naive = Vec::new();
            l1_relax_line(&input, step, &mut line);
            l1_relax_naive_weighted(&row, &input, step, &mut naive);
            assert_eq!(line, naive, "step {step}");
        }
        let mut out = vec![7; 3];
        l1_relax_line(&[], 1, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn separable_input_relaxes_axis_by_axis() {
        let g = Grid::new(5, 3);
        let (fx, fy) = ([4u64, 0, 9, 2, 7], [3u64, 11, 0]);
        let input: Vec<u64> = g
            .procs()
            .map(|p| {
                let q = g.point_of(p);
                fx[q.x as usize] + fy[q.y as usize]
            })
            .collect();
        let (mut rx, mut ry, mut grid_out) = (Vec::new(), Vec::new(), Vec::new());
        l1_relax_line(&fx, 2, &mut rx);
        l1_relax_line(&fy, 2, &mut ry);
        l1_relax_weighted(&g, &input, 2, &mut grid_out);
        for p in g.procs() {
            let q = g.point_of(p);
            assert_eq!(grid_out[p.index()], rx[q.x as usize] + ry[q.y as usize]);
        }
    }

    #[test]
    fn weighted_relax_scales_distances() {
        let g = Grid::new(3, 3);
        let mut input = vec![INF; 9];
        input[0] = 0;
        let mut out = Vec::new();
        l1_relax_weighted(&g, &input, 7, &mut out);
        for p in g.procs() {
            assert_eq!(out[p.index()], 7 * g.dist(pim_array::grid::ProcId(0), p));
        }
    }
}
