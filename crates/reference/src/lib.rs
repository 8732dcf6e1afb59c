#![warn(missing_docs)]
//! # pim-reference
//!
//! Frozen reference implementations: the straightforward forms of the
//! `pim-sched` algorithms and of the `pim-sim` cycle loop that the
//! optimized production paths replaced. The conformance tests pin every
//! production path bit-identical to them.
//!
//! * [`schedule`] — every [`pim_sched::Method`], re-walking per-window
//!   reference lists instead of serving cost tables from a cache;
//! * [`greedy_grouping`] and [`optimal_grouping`] — the literal Algorithm 3
//!   loop and the `O(t³)` grouping DP;
//! * [`optimal_path_exhaustive`] and [`exhaustive_schedule`] — brute-force
//!   enumeration certifying GOMCDS on tiny instances;
//! * [`run_window`] — the clock-every-flit cycle loop.
//!
//! Only tests and `pim-bench` link this crate; no production library does.
//! The oracles read the same flat traces production schedules
//! ([`pim_trace::flat::FlatView`]) and privately rebuild each datum's
//! per-window [`WindowRefs`] lists from the spans. They keep private copies
//! of the small helpers production code also has (gap resolution,
//! nearest-free placement, empty-window attachment, the layered
//! shortest path, the grouping cost), so changing those cannot move an
//! oracle along with the code it checks.

// The DP loops index tables by window exactly as the recurrences are
// written in the paper.
#![allow(clippy::needless_range_loop)]

mod cycle;
mod exhaustive;
mod grouping;
mod schedulers;

use pim_array::grid::{Grid, ProcId};
use pim_array::memory::MemoryMap;
use pim_sched::cost::{cost_table, INF};
use pim_trace::flat::FlatView;
use pim_trace::ids::DataId;
use pim_trace::window::WindowRefs;

pub use cycle::run_window;
pub use exhaustive::{exhaustive_schedule, optimal_path_exhaustive};
pub use grouping::{greedy_grouping, optimal_grouping};
pub use schedulers::schedule;

/// Datum `d`'s reference string rebuilt as one [`WindowRefs`] per window.
fn windows_of<V: FlatView + ?Sized>(trace: &V, d: DataId) -> Vec<WindowRefs> {
    let grid = trace.grid();
    (0..trace.num_windows())
        .map(|w| {
            let run = trace.window_run(d, w);
            WindowRefs::from_pairs(run.iter().map(|r| (r.proc(&grid), r.count)))
        })
        .collect()
}

/// The layered cost-graph shortest path over per-window reference lists,
/// literally: node costs from each window's cost table (a full slot of
/// `masks[w]` costs [`INF`]), the `O(m²)` relaxation, the lowest-id sink
/// and the lowest-id predecessor on backtrack. `None` when every path
/// crosses a full slot.
fn layered_path(
    grid: &Grid,
    windows: &[WindowRefs],
    masks: Option<&[MemoryMap]>,
) -> Option<(Vec<ProcId>, u64)> {
    let m = grid.num_procs();
    let nw = windows.len();
    let tables: Vec<Vec<u64>> = windows
        .iter()
        .enumerate()
        .map(|(w, refs)| {
            let mut table = Vec::new();
            cost_table(grid, refs, &mut table);
            if let Some(masks) = masks {
                for (k, slot) in table.iter_mut().enumerate() {
                    if !masks[w].has_room(ProcId(k as u32)) {
                        *slot = INF;
                    }
                }
            }
            table
        })
        .collect();
    let mut dp = vec![tables[0].clone()];
    let mut relaxed = Vec::new();
    for w in 1..nw {
        pim_sched::dt::l1_relax_naive(grid, &dp[w - 1], &mut relaxed);
        dp.push(
            (0..m)
                .map(|k| relaxed[k].saturating_add(tables[w][k]))
                .collect(),
        );
    }
    let (mut k, &best) = dp[nw - 1]
        .iter()
        .enumerate()
        .min_by_key(|&(i, &c)| (c, i))
        .expect("non-empty grid");
    if best >= INF {
        return None;
    }
    let mut path = vec![ProcId(0); nw];
    path[nw - 1] = ProcId(k as u32);
    for w in (1..nw).rev() {
        let need = dp[w][k] - tables[w][k];
        let kp = ProcId(k as u32);
        k = (0..m)
            .find(|&j| dp[w - 1][j].saturating_add(grid.dist(ProcId(j as u32), kp)) == need)
            .expect("dp backtrack must find a predecessor");
        path[w - 1] = ProcId(k as u32);
    }
    Some((path, best))
}
