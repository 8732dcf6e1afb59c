//! K-copy replication (generalizing [`crate::replicate`]).
//!
//! The two-copy extension adds one exactly-optimal secondary trajectory on
//! top of the GOMCDS primary. This module iterates that construction:
//! copies are added one at a time, each solved by the same DP *given* the
//! already-fixed replica trajectories (serve-from-nearest, materialize-
//! from-nearest), and kept only if it reduces the datum's total cost.
//! Greedy-by-copy is not globally optimal over all K-replica plans — the
//! joint problem is a facility-location variant — but each added copy is
//! individually optimal, the sequence of costs is non-increasing by
//! construction, and `k = 2` reproduces [`crate::replicate`] exactly
//! (tested).

use crate::gomcds::{gomcds_path, Solver};
use crate::schedule::CostBreakdown;
use pim_array::grid::{Grid, ProcId};
use pim_array::memory::{MemoryMap, MemorySpec};
use pim_trace::ids::DataId;
use pim_trace::window::{DataRefString, WindowRefs, WindowedTrace};

/// A schedule with up to `k` replicas per datum per window. The first
/// replica of every window is the primary copy; all windows of a datum
/// hold at least one replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KCopySchedule {
    grid: Grid,
    /// `replicas[d][w]` — non-empty, first entry is the primary.
    replicas: Vec<Vec<Vec<ProcId>>>,
}

impl KCopySchedule {
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

    /// All replicas of datum `d` in window `w` (primary first).
    pub fn replicas_of(&self, d: DataId, w: usize) -> &[ProcId] {
        &self.replicas[d.index()][w]
    }

    /// Largest replica count any (datum, window) reaches.
    pub fn max_copies(&self) -> usize {
        self.replicas
            .iter()
            .flatten()
            .map(Vec::len)
            .max()
            .unwrap_or(0)
    }

    /// Total replica slots beyond the primaries.
    pub fn extra_slots(&self) -> u64 {
        self.replicas
            .iter()
            .flatten()
            .map(|set| set.len() as u64 - 1)
            .sum()
    }

    /// Serve cost of one window from a replica set.
    fn serve(grid: &Grid, refs: &WindowRefs, set: &[ProcId]) -> u64 {
        refs.iter()
            .map(|r| {
                let p = grid.point_of(r.proc);
                let d = set
                    .iter()
                    .map(|&s| grid.point_of(s).l1_dist(p))
                    .min()
                    .expect("non-empty replica set");
                r.count as u64 * d
            })
            .sum()
    }

    /// Evaluate against a trace (nearest-replica reference cost, plus each
    /// replica materialized from the nearest previous-window replica).
    pub fn evaluate(&self, trace: &WindowedTrace) -> CostBreakdown {
        assert_eq!(trace.grid(), self.grid, "grid mismatch");
        assert_eq!(trace.num_data(), self.num_data(), "data count mismatch");
        let grid = &self.grid;
        let mut out = CostBreakdown::default();
        for (d, rs) in trace.iter_data() {
            let seq = &self.replicas[d.index()];
            assert_eq!(seq.len(), rs.num_windows(), "window mismatch for {d}");
            for (w, refs) in rs.windows().enumerate() {
                out.reference += Self::serve(grid, refs, &seq[w]);
                if w > 0 {
                    for &loc in &seq[w] {
                        out.movement += seq[w - 1]
                            .iter()
                            .map(|&q| grid.dist(q, loc))
                            .min()
                            .expect("non-empty previous set");
                    }
                }
            }
        }
        out
    }
}

/// Cost of a fixed replica-trajectory set for one datum (reference plus
/// materialization movement), matching [`KCopySchedule::evaluate`].
fn plan_cost(grid: &Grid, rs: &DataRefString, seq: &[Vec<ProcId>]) -> u64 {
    let mut total = 0u64;
    for (w, refs) in rs.windows().enumerate() {
        total += KCopySchedule::serve(grid, refs, &seq[w]);
        if w > 0 {
            for &loc in &seq[w] {
                total += seq[w - 1]
                    .iter()
                    .map(|&q| grid.dist(q, loc))
                    .min()
                    .expect("non-empty");
            }
        }
    }
    total
}

/// DP for one additional copy given the fixed replica set per window.
/// State per window: the new copy's location, or none. Returns the
/// per-window placement (None = no extra copy that window) and the plan's
/// total cost including the fixed replicas' costs.
fn extra_copy_dp(
    grid: &Grid,
    rs: &DataRefString,
    fixed: &[Vec<ProcId>],
    masks: Option<&[MemoryMap]>,
) -> (Vec<Option<ProcId>>, u64) {
    let m = grid.num_procs();
    let nw = rs.num_windows();

    // Movement the fixed replicas pay regardless of the new copy.
    let fixed_move = |w: usize| -> u64 {
        if w == 0 {
            return 0;
        }
        fixed[w]
            .iter()
            .map(|&loc| {
                fixed[w - 1]
                    .iter()
                    .map(|&q| grid.dist(q, loc))
                    .min()
                    .expect("non-empty")
            })
            .sum()
    };
    let available = |w: usize, p: ProcId| -> bool {
        !fixed[w].contains(&p) && masks.is_none_or(|ms| ms[w].has_room(p))
    };
    let node = |w: usize, state: usize| -> u64 {
        let refs = rs.window(w);
        if state == m {
            KCopySchedule::serve(grid, refs, &fixed[w])
        } else {
            let mut set: Vec<ProcId> = fixed[w].clone();
            set.push(ProcId(state as u32));
            KCopySchedule::serve(grid, refs, &set)
        }
    };

    let mut dp = vec![vec![u64::MAX; m + 1]; nw];
    let mut parent = vec![vec![usize::MAX; m + 1]; nw];
    for state in 0..=m {
        if state < m && !available(0, ProcId(state as u32)) {
            continue;
        }
        dp[0][state] = node(0, state); // initial distribution is free
    }
    for w in 1..nw {
        let fm = fixed_move(w);
        for state in 0..=m {
            if state < m && !available(w, ProcId(state as u32)) {
                continue;
            }
            let mut best = u64::MAX;
            let mut best_prev = usize::MAX;
            for prev in 0..=m {
                if dp[w - 1][prev] == u64::MAX {
                    continue;
                }
                let trans = if state == m {
                    0
                } else {
                    let loc = ProcId(state as u32);
                    // materialize from the nearest of: previous fixed
                    // replicas, or the previous extra copy
                    let mut src = fixed[w - 1]
                        .iter()
                        .map(|&q| grid.dist(q, loc))
                        .min()
                        .expect("non-empty");
                    if prev < m {
                        src = src.min(grid.dist(ProcId(prev as u32), loc));
                    }
                    src
                };
                let cand = dp[w - 1][prev].saturating_add(trans);
                if cand < best {
                    best = cand;
                    best_prev = prev;
                }
            }
            if best < u64::MAX {
                dp[w][state] = best + node(w, state) + fm;
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

/// Build a K-copy schedule: GOMCDS primaries, then up to `k − 1` extra
/// copies per datum added greedily (each exactly optimal given the copies
/// before it, kept only when it strictly reduces the datum's cost).
///
/// # Panics
/// Panics when `k == 0` or the array cannot hold one copy of every datum.
pub fn kcopy_schedule(trace: &WindowedTrace, spec: MemorySpec, k: usize) -> KCopySchedule {
    assert!(k >= 1, "need at least one copy");
    let grid = trace.grid();
    let nd = trace.num_data();
    let nw = trace.num_windows();
    assert!(
        spec.feasible(&grid, nd),
        "memory spec cannot hold {nd} data items on {grid}"
    );
    let bounded = spec.capacity_per_proc != u32::MAX;
    let mut mems: Vec<MemoryMap> = (0..nw).map(|_| MemoryMap::new(&grid, spec)).collect();

    // Primaries, identical to plain GOMCDS ordering.
    let mut replicas: Vec<Vec<Vec<ProcId>>> = Vec::with_capacity(nd);
    for (_, rs) in trace.iter_data() {
        let path = if bounded {
            crate::gomcds::solve_masked_path(&grid, rs, &mems, Solver::DistanceTransform)
                .expect("every window retains a free slot")
        } else {
            gomcds_path(&grid, rs, Solver::DistanceTransform).0
        };
        if bounded {
            for (w, &p) in path.iter().enumerate() {
                mems[w].allocate(p).expect("masked path avoids full slots");
            }
        }
        replicas.push(path.into_iter().map(|p| vec![p]).collect());
    }

    // Extra copies, one round at a time.
    for _round in 1..k {
        for (d, rs) in trace.iter_data() {
            let seq = &replicas[d.index()];
            let current = plan_cost(&grid, rs, seq);
            let (extra, with_extra) =
                extra_copy_dp(&grid, rs, seq, bounded.then_some(mems.as_slice()));
            if with_extra < current {
                let seq = &mut replicas[d.index()];
                for (w, slot) in extra.iter().enumerate() {
                    if let Some(p) = slot {
                        if bounded {
                            mems[w].allocate(*p).expect("DP masked full slots");
                        }
                        seq[w].push(*p);
                    }
                }
            }
        }
    }
    KCopySchedule { grid, replicas }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{schedule, MemoryPolicy, Method};
    use crate::replicate::replicated_schedule;

    fn grid() -> Grid {
        Grid::new(4, 4)
    }

    /// Three distant clusters referencing the same datum every window.
    fn triple_hotspot() -> WindowedTrace {
        let g = grid();
        let win = || {
            WindowRefs::from_pairs([
                (g.proc_xy(0, 0), 4),
                (g.proc_xy(3, 0), 4),
                (g.proc_xy(0, 3), 4),
            ])
        };
        WindowedTrace::from_parts(g, vec![vec![win(), win(), win()]])
    }

    #[test]
    fn k1_equals_gomcds() {
        let t = triple_hotspot();
        let spec = MemorySpec::unbounded();
        let k1 = kcopy_schedule(&t, spec, 1);
        assert_eq!(k1.max_copies(), 1);
        assert_eq!(
            k1.evaluate(&t).total(),
            schedule(Method::Gomcds, &t, MemoryPolicy::Unbounded)
                .evaluate(&t)
                .total()
        );
    }

    #[test]
    fn k2_matches_replicate_module() {
        let t = triple_hotspot();
        let spec = MemorySpec::unbounded();
        let k2 = kcopy_schedule(&t, spec, 2);
        let r2 = replicated_schedule(&t, spec);
        assert_eq!(k2.evaluate(&t).total(), r2.evaluate(&t).total());
    }

    #[test]
    fn more_copies_never_hurt_and_three_zeroes_triple_hotspots() {
        let t = triple_hotspot();
        let spec = MemorySpec::unbounded();
        let costs: Vec<u64> = (1..=4)
            .map(|k| kcopy_schedule(&t, spec, k).evaluate(&t).total())
            .collect();
        for w in costs.windows(2) {
            assert!(w[1] <= w[0], "costs must be non-increasing: {costs:?}");
        }
        // three clusters, three copies → zero reference and movement cost
        assert_eq!(costs[2], 0, "{costs:?}");
        let k3 = kcopy_schedule(&t, spec, 3);
        assert_eq!(k3.max_copies(), 3);
    }

    #[test]
    fn capacity_respected_per_window() {
        let g = grid();
        let win = |p: ProcId| WindowRefs::from_pairs([(p, 2)]);
        let t = WindowedTrace::from_parts(
            g,
            vec![
                vec![win(g.proc_xy(0, 0)), win(g.proc_xy(0, 0))],
                vec![win(g.proc_xy(3, 3)), win(g.proc_xy(3, 3))],
            ],
        );
        let spec = MemorySpec::uniform(1);
        let s = kcopy_schedule(&t, spec, 3);
        for w in 0..t.num_windows() {
            let mut occ = vec![0u32; g.num_procs()];
            for d in 0..t.num_data() {
                for &p in s.replicas_of(DataId(d as u32), w) {
                    occ[p.index()] += 1;
                }
            }
            assert!(occ.iter().all(|&n| n <= 1), "window {w}: {occ:?}");
        }
    }

    #[test]
    fn unreferenced_data_stay_single_copy() {
        let g = grid();
        let t = WindowedTrace::from_parts(g, vec![vec![WindowRefs::new(); 3]]);
        let s = kcopy_schedule(&t, MemorySpec::unbounded(), 4);
        assert_eq!(s.max_copies(), 1);
        assert_eq!(s.extra_slots(), 0);
        assert_eq!(s.evaluate(&t).total(), 0);
    }
}
