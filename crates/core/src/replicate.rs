//! Read-replication extension (beyond the paper).
//!
//! The paper fixes "one copy of data is allowed in a system". For
//! read-mostly data that leaves traffic on the table: when two distant
//! processor clusters reference the same datum in the same window, a single
//! center must be far from at least one of them every window. This module
//! lifts the restriction to **two** copies per datum (the first
//! diminishing-returns step, and the one that fits the PIM memory budget
//! story):
//!
//! * each window serves every reference from its *nearest* replica;
//! * a replica appearing in window `w+1` at a location not already holding
//!   one is materialized by a copy from the nearest replica of window `w`
//!   (charged at Manhattan distance); dropping a replica is free;
//! * coherence is out of scope — the model is read replication, the same
//!   assumption block-cyclic redistribution work makes for broadcast
//!   operands.
//!
//! The optimizer keeps the GOMCDS path as the primary copy and solves an
//! exact DP for the optional secondary copy *given* the primary: state =
//! secondary location or `None` per window, transitions pay secondary
//! movement (or creation from the primary), rewards are the reference-cost
//! reductions. The datum keeps the secondary only where it pays for
//! itself, so the result is never worse than single-copy GOMCDS (tested).

use crate::cost::{cost_at, path_cost};
use crate::gomcds::{gomcds_path, Solver};
use crate::schedule::CostBreakdown;
use pim_array::grid::{Grid, ProcId};
use pim_array::memory::{MemoryMap, MemorySpec};
use pim_trace::ids::DataId;
use pim_trace::window::{DataRefString, WindowRefs, WindowedTrace};

/// A replicated schedule: per datum, per window, one or two replica
/// locations (first entry is the primary copy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicatedSchedule {
    grid: Grid,
    /// `replicas[d][w]` — primary, plus optional secondary.
    replicas: Vec<Vec<(ProcId, Option<ProcId>)>>,
}

impl ReplicatedSchedule {
    /// The grid this schedule targets.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Number of data items.
    pub fn num_data(&self) -> usize {
        self.replicas.len()
    }

    /// Number of windows.
    pub fn num_windows(&self) -> usize {
        self.replicas.first().map_or(0, Vec::len)
    }

    /// Replicas of datum `d` in window `w`.
    pub fn replicas_of(&self, d: DataId, w: usize) -> (ProcId, Option<ProcId>) {
        self.replicas[d.index()][w]
    }

    /// Total number of (datum, window) slots holding a secondary copy.
    pub fn secondary_slots(&self) -> u64 {
        self.replicas
            .iter()
            .flatten()
            .filter(|(_, s)| s.is_some())
            .count() as u64
    }

    /// Reference cost of serving `refs` from the replica set.
    fn serve_cost(
        grid: &Grid,
        refs: &WindowRefs,
        primary: ProcId,
        secondary: Option<ProcId>,
    ) -> u64 {
        match secondary {
            None => cost_at(grid, refs, primary),
            Some(s) => refs
                .iter()
                .map(|r| {
                    let p = grid.point_of(r.proc);
                    let d = grid
                        .point_of(primary)
                        .l1_dist(p)
                        .min(grid.point_of(s).l1_dist(p));
                    r.count as u64 * d
                })
                .sum(),
        }
    }

    /// Evaluate against a trace: nearest-replica reference cost plus
    /// movement/materialization cost between windows.
    pub fn evaluate(&self, trace: &WindowedTrace) -> CostBreakdown {
        assert_eq!(trace.grid(), self.grid, "grid mismatch");
        assert_eq!(trace.num_data(), self.num_data(), "data count mismatch");
        let grid = &self.grid;
        let mut out = CostBreakdown::default();
        for (d, rs) in trace.iter_data() {
            let seq = &self.replicas[d.index()];
            assert_eq!(seq.len(), rs.num_windows(), "window mismatch for {d}");
            for (w, refs) in rs.windows().enumerate() {
                let (p, s) = seq[w];
                out.reference += Self::serve_cost(grid, refs, p, s);
                if w > 0 {
                    let (pp, ps) = seq[w - 1];
                    // every current replica is materialized from the
                    // nearest previous replica (free if co-located)
                    let from_prev = |loc: ProcId| {
                        let d1 = grid.dist(pp, loc);
                        match ps {
                            Some(q) => d1.min(grid.dist(q, loc)),
                            None => d1,
                        }
                    };
                    out.movement += from_prev(p);
                    if let Some(s) = s {
                        out.movement += from_prev(s);
                    }
                }
            }
        }
        out
    }
}

/// Solve the optimal secondary-copy trajectory for one datum given its
/// fixed primary path. Returns the per-window secondary (or `None`) and
/// the total cost of the two-copy plan.
fn secondary_dp(
    grid: &Grid,
    rs: &DataRefString,
    primary: &[ProcId],
    masks: Option<&[MemoryMap]>,
) -> (Vec<Option<ProcId>>, u64) {
    let m = grid.num_procs();
    let nw = rs.num_windows();
    const NONE: usize = usize::MAX;

    // dp[w][state]: state in 0..m = secondary at proc, state m = none.
    // cost includes primary ref+move costs so the result is the full plan.
    let prim_move = |w: usize| -> u64 {
        if w == 0 {
            0
        } else {
            grid.dist(primary[w - 1], primary[w])
        }
    };
    let available = |w: usize, p: ProcId| -> bool {
        p != primary[w] && masks.is_none_or(|ms| ms[w].has_room(p))
    };

    let node = |w: usize, state: usize| -> u64 {
        let refs = rs.window(w);
        if state == m {
            cost_at(grid, refs, primary[w])
        } else {
            ReplicatedSchedule::serve_cost(grid, refs, primary[w], Some(ProcId(state as u32)))
        }
    };

    let mut dp = vec![vec![u64::MAX; m + 1]; nw];
    let mut parent = vec![vec![NONE; m + 1]; nw];
    for state in 0..=m {
        if state < m && !available(0, ProcId(state as u32)) {
            continue;
        }
        // creating a secondary in window 0 is part of initial distribution
        // (free, like the primary's initial placement)
        dp[0][state] = node(0, state) + prim_move(0);
    }
    for w in 1..nw {
        for state in 0..=m {
            if state < m && !available(w, ProcId(state as u32)) {
                continue;
            }
            let mut best = u64::MAX;
            let mut best_prev = NONE;
            for prev in 0..=m {
                if dp[w - 1][prev] == u64::MAX {
                    continue;
                }
                // cost to have the secondary at `state` this window
                let trans = if state == m {
                    0 // dropping is free
                } else {
                    let loc = ProcId(state as u32);
                    let from_primary = grid.dist(primary[w - 1], loc);
                    if prev == m {
                        from_primary // create from primary copy
                    } else {
                        from_primary.min(grid.dist(ProcId(prev as u32), loc))
                    }
                };
                let cand = dp[w - 1][prev] + trans;
                if cand < best {
                    best = cand;
                    best_prev = prev;
                }
            }
            if best < u64::MAX {
                dp[w][state] = best + node(w, state) + prim_move(w);
                parent[w][state] = best_prev;
            }
        }
    }

    let (mut state, &total) = dp[nw - 1]
        .iter()
        .enumerate()
        .min_by_key(|&(i, &c)| (c, i))
        .expect("dp non-empty");
    let mut out = vec![None; nw];
    for w in (0..nw).rev() {
        out[w] = (state != m).then_some(ProcId(state as u32));
        if w > 0 {
            state = parent[w][state];
        }
    }
    (out, total)
}

/// Two-copy scheduling: GOMCDS primary path plus the exact optimal
/// secondary trajectory per datum (kept only when it reduces the datum's
/// cost). Capacity is honoured for both copies.
///
/// ```
/// use pim_array::grid::Grid;
/// use pim_array::memory::MemorySpec;
/// use pim_trace::window::{WindowRefs, WindowedTrace};
/// use pim_sched::replicate::replicated_schedule;
///
/// let grid = Grid::new(4, 4);
/// // opposite corners both hammer the same datum every window
/// let win = || WindowRefs::from_pairs([(grid.proc_xy(0, 0), 4), (grid.proc_xy(3, 3), 4)]);
/// let trace = WindowedTrace::from_parts(grid, vec![vec![win(), win()]]);
/// let repl = replicated_schedule(&trace, MemorySpec::unbounded());
/// assert_eq!(repl.evaluate(&trace).total(), 0); // one copy per corner
/// ```
///
/// # Panics
/// Panics if the array cannot hold one copy of every datum.
pub fn replicated_schedule(trace: &WindowedTrace, spec: MemorySpec) -> ReplicatedSchedule {
    let grid = trace.grid();
    let nd = trace.num_data();
    let nw = trace.num_windows();
    assert!(
        spec.feasible(&grid, nd),
        "memory spec cannot hold {nd} data items on {grid}"
    );
    let bounded = spec.capacity_per_proc != u32::MAX;
    let mut mems: Vec<MemoryMap> = (0..nw).map(|_| MemoryMap::new(&grid, spec)).collect();

    // First pass: primaries for everyone (they must all fit). Identical to
    // plain GOMCDS: data in ascending id order, masked shortest paths.
    let mut primaries: Vec<Vec<ProcId>> = Vec::with_capacity(nd);
    for (_, rs) in trace.iter_data() {
        let path = if bounded {
            resolve_masked(&grid, rs, &mems)
        } else {
            gomcds_path(&grid, rs, Solver::DistanceTransform).0
        };
        if bounded {
            for (w, &p) in path.iter().enumerate() {
                mems[w].allocate(p).expect("masked path avoids full slots");
            }
        }
        primaries.push(path);
    }

    // Second pass: optional secondaries into the remaining slack.
    let mut replicas = Vec::with_capacity(nd);
    for (d, rs) in trace.iter_data() {
        let primary = &primaries[d.index()];
        let single_cost = path_cost(&grid, rs, primary);
        let (secondary, dual_cost) =
            secondary_dp(&grid, rs, primary, bounded.then_some(mems.as_slice()));
        let seq: Vec<(ProcId, Option<ProcId>)> = if dual_cost < single_cost {
            if bounded {
                for (w, s) in secondary.iter().enumerate() {
                    if let Some(s) = s {
                        mems[w]
                            .allocate(*s)
                            .expect("secondary DP masked full slots");
                    }
                }
            }
            primary
                .iter()
                .zip(secondary)
                .map(|(&p, s)| (p, s))
                .collect()
        } else {
            primary.iter().map(|&p| (p, None)).collect()
        };
        replicas.push(seq);
    }
    ReplicatedSchedule { grid, replicas }
}

/// Masked single-copy fallback used when the unconstrained primary path
/// collides with occupancy.
fn resolve_masked(grid: &Grid, rs: &DataRefString, mems: &[MemoryMap]) -> Vec<ProcId> {
    crate::gomcds::solve_masked_path(grid, rs, mems, Solver::DistanceTransform)
        .expect("every window retains a free slot for the primary")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_trace::window::WindowedTrace;

    fn grid() -> Grid {
        Grid::new(4, 4)
    }

    /// Total cost of the single-copy GOMCDS schedule, unbounded memory.
    fn gomcds_total(trace: &WindowedTrace) -> u64 {
        let gomcds = crate::schedule(crate::Method::Gomcds, trace, crate::MemoryPolicy::Unbounded);
        gomcds.evaluate(trace).total()
    }

    /// Two distant clusters hammer the same datum every window — the case
    /// replication exists for.
    fn twin_hotspot_trace() -> WindowedTrace {
        let g = grid();
        let win = || WindowRefs::from_pairs([(g.proc_xy(0, 0), 4), (g.proc_xy(3, 3), 4)]);
        WindowedTrace::from_parts(g, vec![vec![win(), win(), win()]])
    }

    #[test]
    fn replication_wins_on_twin_hotspots() {
        let trace = twin_hotspot_trace();
        let single = gomcds_total(&trace);
        let repl = replicated_schedule(&trace, MemorySpec::unbounded());
        let dual = repl.evaluate(&trace).total();
        assert!(
            dual < single,
            "replication {dual} should beat single copy {single}"
        );
        // both corners hold a copy in every window → zero reference cost
        assert_eq!(dual, 0);
        assert_eq!(repl.secondary_slots(), 3);
    }

    #[test]
    fn never_worse_than_single_copy() {
        let g = grid();
        let traces = vec![
            twin_hotspot_trace(),
            WindowedTrace::from_parts(
                g,
                vec![vec![
                    WindowRefs::from_pairs([(g.proc_xy(1, 1), 2)]),
                    WindowRefs::from_pairs([(g.proc_xy(2, 2), 1)]),
                ]],
            ),
            WindowedTrace::from_parts(g, vec![vec![WindowRefs::new(), WindowRefs::new()]]),
        ];
        for trace in traces {
            let single = gomcds_total(&trace);
            let dual = replicated_schedule(&trace, MemorySpec::unbounded())
                .evaluate(&trace)
                .total();
            assert!(dual <= single, "{dual} > {single}");
        }
    }

    #[test]
    fn single_ref_pattern_gets_no_secondary() {
        let g = grid();
        let trace = WindowedTrace::from_parts(
            g,
            vec![vec![
                WindowRefs::from_pairs([(g.proc_xy(1, 1), 3)]),
                WindowRefs::from_pairs([(g.proc_xy(1, 1), 3)]),
            ]],
        );
        let repl = replicated_schedule(&trace, MemorySpec::unbounded());
        assert_eq!(repl.secondary_slots(), 0);
        assert_eq!(repl.evaluate(&trace).total(), 0);
    }

    #[test]
    fn capacity_limits_replication() {
        let g = Grid::new(2, 1);
        // two data, capacity 1: no slack for secondaries at all
        let win = || WindowRefs::from_pairs([(g.proc_xy(0, 0), 1), (g.proc_xy(1, 0), 1)]);
        let trace = WindowedTrace::from_parts(g, vec![vec![win()], vec![win()]]);
        let repl = replicated_schedule(&trace, MemorySpec::uniform(1));
        assert_eq!(repl.secondary_slots(), 0);
        // occupancy: each proc holds exactly one datum
        let (p0, s0) = repl.replicas_of(DataId(0), 0);
        let (p1, s1) = repl.replicas_of(DataId(1), 0);
        assert_ne!(p0, p1);
        assert!(s0.is_none() && s1.is_none());
    }

    #[test]
    fn evaluate_movement_accounts_materialization() {
        let g = grid();
        // hand-built schedule: secondary appears in window 1 at (3,3)
        let sched = ReplicatedSchedule {
            grid: g,
            replicas: vec![vec![
                (g.proc_xy(0, 0), None),
                (g.proc_xy(0, 0), Some(g.proc_xy(3, 3))),
            ]],
        };
        let trace = WindowedTrace::from_parts(g, vec![vec![WindowRefs::new(), WindowRefs::new()]]);
        let cost = sched.evaluate(&trace);
        assert_eq!(cost.movement, 6); // copy from (0,0) to (3,3)
        assert_eq!(cost.reference, 0);
    }
}
