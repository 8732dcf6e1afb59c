//! Local-search schedule refinement.
//!
//! A generic post-pass usable on *any* schedule: repeatedly move one
//! datum's center in one window to a better processor (considering both
//! reference and adjacent-movement cost) until no single move helps. This
//! is the obvious practical alternative to GOMCDS's exact DP, so it serves
//! two purposes:
//!
//! * as a **certification witness** — hill-climbing started from a GOMCDS
//!   schedule can never improve it (tested), corroborating optimality;
//! * as an **upgrade path for the cheap schedulers** — refined SCDS closes
//!   part of the gap to GOMCDS at a fraction of the conceptual machinery,
//!   quantified by the `ablation_refine` experiment.
//!
//! Capacity is honoured: a move is only considered when the target
//! processor has a free slot in that window.

use crate::cost::cost_at;
use crate::schedule::Schedule;
use pim_array::memory::{MemoryMap, MemorySpec};
use pim_trace::ids::DataId;
use pim_trace::window::WindowedTrace;

/// Outcome of a refinement pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefineStats {
    /// Number of single-center moves applied.
    pub moves_applied: u64,
    /// Total cost reduction achieved.
    pub cost_reduction: u64,
    /// Number of full sweeps until a fixed point (or the sweep limit).
    pub sweeps: u32,
}

/// Hill-climb `schedule` to a local optimum under single-center moves.
///
/// Deterministic: data and windows are scanned in ascending order and the
/// best (then lowest-id) improving processor is taken. `max_sweeps` bounds
/// the work; a fixed point is usually reached in a handful of sweeps.
pub fn refine(
    trace: &WindowedTrace,
    schedule: &mut Schedule,
    spec: MemorySpec,
    max_sweeps: u32,
) -> RefineStats {
    let grid = trace.grid();
    let nw = trace.num_windows();
    let nd = trace.num_data();
    let mut stats = RefineStats {
        moves_applied: 0,
        cost_reduction: 0,
        sweeps: 0,
    };

    // Work on a mutable centers matrix; `Schedule` itself stays immutable.
    let mut centers: Vec<Vec<pim_array::grid::ProcId>> = (0..nd)
        .map(|d| schedule.centers_of(DataId(d as u32)).to_vec())
        .collect();

    // Occupancy per window, derived from the current schedule.
    let mut mems: Vec<MemoryMap> = (0..nw).map(|_| MemoryMap::new(&grid, spec)).collect();
    for cs in &centers {
        for (w, &p) in cs.iter().enumerate() {
            mems[w]
                .allocate(p)
                .expect("input schedule must satisfy the capacity spec");
        }
    }

    for _ in 0..max_sweeps {
        stats.sweeps += 1;
        let mut improved = false;
        for d in 0..nd {
            let refs = trace.refs(DataId(d as u32));
            for w in 0..nw {
                let cur = centers[d][w];
                let prev = (w > 0).then(|| centers[d][w - 1]);
                let next = (w + 1 < nw).then(|| centers[d][w + 1]);
                let local = |p| {
                    let mut c = cost_at(&grid, refs.window(w), p);
                    if let Some(q) = prev {
                        c += grid.dist(q, p);
                    }
                    if let Some(q) = next {
                        c += grid.dist(p, q);
                    }
                    c
                };
                let cur_cost = local(cur);
                let best = grid
                    .procs()
                    .filter(|&p| p == cur || mems[w].has_room(p))
                    .map(|p| (local(p), p.0))
                    .min()
                    .expect("non-empty grid");
                if best.0 < cur_cost {
                    let target = pim_array::grid::ProcId(best.1);
                    mems[w].release(cur);
                    mems[w].allocate(target).expect("has_room checked");
                    centers[d][w] = target;
                    stats.moves_applied += 1;
                    stats.cost_reduction += cur_cost - best.0;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    *schedule = Schedule::new(grid, centers);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::random_schedule;
    use crate::pipeline::{schedule, MemoryPolicy, Method};
    use pim_array::grid::Grid;
    use pim_trace::window::{WindowRefs, WindowedTrace};

    fn trace() -> WindowedTrace {
        let grid = Grid::new(4, 4);
        WindowedTrace::from_parts(
            grid,
            vec![
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(0, 0), 3)]),
                    WindowRefs::from_pairs([(grid.proc_xy(3, 3), 2)]),
                    WindowRefs::from_pairs([(grid.proc_xy(3, 0), 1)]),
                ],
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(1, 2), 2)]),
                    WindowRefs::new(),
                    WindowRefs::from_pairs([(grid.proc_xy(1, 2), 2)]),
                ],
            ],
        )
    }

    #[test]
    fn cannot_improve_gomcds_unbounded() {
        let t = trace();
        let spec = MemorySpec::unbounded();
        let mut s = schedule(Method::Gomcds, &t, MemoryPolicy::Unbounded);
        let before = s.evaluate(&t).total();
        let stats = refine(&t, &mut s, spec, 10);
        assert_eq!(stats.moves_applied, 0, "GOMCDS must be a local optimum");
        assert_eq!(s.evaluate(&t).total(), before);
    }

    #[test]
    fn improves_random_schedules() {
        let t = trace();
        let spec = MemorySpec::unbounded();
        let mut s = random_schedule(&t, 99);
        let before = s.evaluate(&t).total();
        let stats = refine(&t, &mut s, spec, 50);
        let after = s.evaluate(&t).total();
        assert_eq!(before - after, stats.cost_reduction);
        assert!(after < before, "random schedule should be improvable");
        // refined result can't beat the global optimum
        let opt = schedule(Method::Gomcds, &t, MemoryPolicy::Unbounded)
            .evaluate(&t)
            .total();
        assert!(after >= opt);
    }

    #[test]
    fn respects_capacity() {
        let t = trace();
        let spec = MemorySpec::uniform(1);
        let mut s = schedule(Method::Scds, &t, MemoryPolicy::Capacity(1));
        refine(&t, &mut s, spec, 20);
        assert!(s.max_occupancy() <= 1);
    }

    #[test]
    fn sweep_limit_bounds_work() {
        let t = trace();
        let spec = MemorySpec::unbounded();
        let mut s = random_schedule(&t, 5);
        let stats = refine(&t, &mut s, spec, 1);
        assert_eq!(stats.sweeps, 1);
    }

    #[test]
    fn reduction_accounting_is_exact() {
        let t = trace();
        let spec = MemorySpec::unbounded();
        let mut s = random_schedule(&t, 1234);
        let before = s.evaluate(&t).total();
        let stats = refine(&t, &mut s, spec, 100);
        assert_eq!(before - stats.cost_reduction, s.evaluate(&t).total());
    }
}
