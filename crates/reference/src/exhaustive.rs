//! Brute-force optimal scheduling for tiny instances.
//!
//! Enumerates *every* center sequence for each datum and keeps the
//! cheapest. Exponential (`m^n` per datum), usable only for tests — which
//! is exactly its job: certifying that GOMCDS's layered shortest path
//! really is the per-datum optimum, independent of the DP's correctness
//! arguments.

use pim_array::grid::{Grid, ProcId};
use pim_sched::Schedule;
use pim_trace::window::{DataRefString, WindowedTrace};

/// The minimum achievable cost (reference plus movement, unconstrained
/// memory) of one datum and one sequence achieving it — the
/// lexicographically smallest among minimizers, for determinism.
///
/// # Panics
/// Panics when the search space exceeds `5·10⁷` sequences.
pub fn optimal_path_exhaustive(grid: &Grid, rs: &DataRefString) -> (Vec<ProcId>, u64) {
    let m = grid.num_procs();
    let nw = rs.num_windows();
    assert!(
        (m as f64).powi(nw as i32) <= 5e7,
        "exhaustive search infeasible: {m}^{nw} sequences"
    );
    // Precompute per-window cost tables.
    let tables: Vec<Vec<u64>> = (0..nw)
        .map(|w| {
            let mut t = Vec::new();
            pim_sched::cost::cost_table(grid, rs.window(w), &mut t);
            t
        })
        .collect();

    let mut best_cost = u64::MAX;
    let mut best_seq: Vec<usize> = vec![0; nw];
    let mut seq = vec![0usize; nw];
    loop {
        // evaluate
        let mut cost = 0u64;
        for w in 0..nw {
            cost += tables[w][seq[w]];
            if w > 0 {
                cost += grid.dist(ProcId(seq[w - 1] as u32), ProcId(seq[w] as u32));
            }
        }
        if cost < best_cost {
            best_cost = cost;
            best_seq.copy_from_slice(&seq);
        }
        // next sequence (counting with most-significant digit first so the
        // first minimum found is lexicographically smallest)
        let mut i = nw;
        loop {
            if i == 0 {
                return (
                    best_seq.into_iter().map(|k| ProcId(k as u32)).collect(),
                    best_cost,
                );
            }
            i -= 1;
            seq[i] += 1;
            if seq[i] < m {
                break;
            }
            seq[i] = 0;
        }
    }
}

/// Brute-force optimal schedule for a whole (tiny) trace, unconstrained
/// memory: [`optimal_path_exhaustive`] per datum.
pub fn exhaustive_schedule(trace: &WindowedTrace) -> Schedule {
    let grid = trace.grid();
    let centers = trace
        .iter_data()
        .map(|(_, rs)| optimal_path_exhaustive(&grid, rs).0)
        .collect();
    Schedule::new(grid, centers)
}
