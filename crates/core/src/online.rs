//! Online (streaming) data scheduling.
//!
//! The paper's schedulers are offline: the whole reference string is known
//! before execution. A run-time system often only learns each execution
//! window as it arrives. This module provides the natural online policy
//! and quantifies the price of not knowing the future:
//!
//! * every window, each datum's local optimal center is computed from the
//!   *current* window's references only;
//! * the datum moves there only when the estimated per-window saving
//!   exceeds a **hysteresis threshold** times the movement cost —
//!   `threshold = 0` moves eagerly (online LOMCDS), large thresholds never
//!   move (converging to "stay where you start").
//!
//! The `sweep_online` experiment compares the online policy across
//! thresholds against offline GOMCDS (the clairvoyant optimum) and reports
//! the competitive gap. Tests pin the basic dominance facts: online is
//! never better than offline GOMCDS, and with `threshold = 0` it matches
//! LOMCDS's reference costs window by window.

use crate::cost::{cost_at, optimal_center};
use crate::error::{ensure_feasible, exhausted, SchedError};
use crate::schedule::Schedule;
use pim_array::grid::ProcId;
use pim_array::memory::{MemoryMap, MemorySpec};
use pim_trace::ids::DataId;
use pim_trace::window::WindowedTrace;

/// Online policy parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlinePolicy {
    /// Move only when `current_cost − best_cost > threshold × move_cost`.
    /// `0.0` moves on any strict improvement.
    pub threshold: f64,
    /// Initial placement used before anything is known (row-major datum id
    /// striping; a runtime cannot do better blind).
    pub spec: MemorySpec,
}

impl OnlinePolicy {
    /// Eager policy (move on any improvement) with the given memory spec.
    pub fn eager(spec: MemorySpec) -> Self {
        OnlinePolicy {
            threshold: 0.0,
            spec,
        }
    }
}

/// Run the online policy over a trace, revealing one window at a time.
///
/// Returns [`SchedError::CapacityExhausted`] when the array cannot hold
/// every datum.
pub fn online_schedule(
    trace: &WindowedTrace,
    policy: OnlinePolicy,
) -> Result<Schedule, SchedError> {
    let grid = trace.grid();
    let nd = trace.num_data();
    let nw = trace.num_windows();
    ensure_feasible(&grid, policy.spec, nd)?;
    let m = grid.num_procs() as u32;

    // Blind initial placement: stripe data over processors by id.
    let mut current: Vec<ProcId> = (0..nd).map(|d| ProcId(d as u32 % m)).collect();
    let mut centers = vec![vec![ProcId(0); nw]; nd];

    for w in 0..nw {
        let mut mem = MemoryMap::new(&grid, policy.spec);
        for d in 0..nd {
            let refs = trace.refs(DataId(d as u32)).window(w);
            let here = current[d];
            let target = if refs.is_empty() {
                here
            } else {
                let (best, best_cost) = optimal_center(&grid, refs);
                let here_cost = cost_at(&grid, refs, here);
                let move_cost = grid.dist(here, best) as f64;
                if here_cost > best_cost
                    && (here_cost - best_cost) as f64 > policy.threshold * move_cost
                {
                    best
                } else {
                    here
                }
            };
            // capacity: prefer the target, fall back toward it by distance
            let placed = if mem.has_room(target) {
                target
            } else {
                let t = grid.point_of(target);
                grid.procs()
                    .filter(|&p| mem.has_room(p))
                    .min_by_key(|&p| (grid.point_of(p).l1_dist(t), p.0))
                    .ok_or_else(|| exhausted(DataId(d as u32), Some(w)))?
            };
            mem.allocate(placed)
                .map_err(|_| exhausted(DataId(d as u32), Some(w)))?;
            centers[d][w] = placed;
            current[d] = placed;
        }
    }
    Ok(Schedule::new(grid, centers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{schedule, MemoryPolicy, Method};
    use pim_array::grid::Grid;
    use pim_trace::window::{WindowRefs, WindowedTrace};

    fn grid() -> Grid {
        Grid::new(4, 4)
    }

    fn drifting_trace() -> WindowedTrace {
        let g = grid();
        WindowedTrace::from_parts(
            g,
            vec![vec![
                WindowRefs::from_pairs([(g.proc_xy(0, 0), 4)]),
                WindowRefs::from_pairs([(g.proc_xy(1, 1), 4)]),
                WindowRefs::from_pairs([(g.proc_xy(2, 2), 4)]),
                WindowRefs::from_pairs([(g.proc_xy(3, 3), 4)]),
            ]],
        )
    }

    #[test]
    fn online_never_beats_offline_gomcds() {
        let t = drifting_trace();
        let offline = schedule(Method::Gomcds, &t, MemoryPolicy::Unbounded)
            .evaluate(&t)
            .total();
        for threshold in [0.0, 0.5, 1.0, 4.0, 100.0] {
            let s = online_schedule(
                &t,
                OnlinePolicy {
                    threshold,
                    spec: MemorySpec::unbounded(),
                },
            )
            .unwrap();
            assert!(
                s.evaluate(&t).total() >= offline,
                "threshold {threshold}: online beat the clairvoyant optimum"
            );
        }
    }

    #[test]
    fn eager_policy_chases_the_hot_spot() {
        let t = drifting_trace();
        let s = online_schedule(&t, OnlinePolicy::eager(MemorySpec::unbounded())).unwrap();
        let g = grid();
        // once it catches up, it sits exactly on each hot processor
        assert_eq!(s.center(DataId(0), 1), g.proc_xy(1, 1));
        assert_eq!(s.center(DataId(0), 3), g.proc_xy(3, 3));
        // reference cost is zero from window 1 on (it moved there)
        let cost = s.evaluate(&t);
        assert!(cost.movement > 0);
    }

    #[test]
    fn infinite_threshold_never_moves_after_start() {
        let t = drifting_trace();
        let s = online_schedule(
            &t,
            OnlinePolicy {
                threshold: 1e12,
                spec: MemorySpec::unbounded(),
            },
        )
        .unwrap();
        assert!(!s.has_movement());
    }

    #[test]
    fn respects_capacity() {
        let g = grid();
        let want = |p| {
            vec![
                WindowRefs::from_pairs([(p, 2)]),
                WindowRefs::from_pairs([(p, 2)]),
            ]
        };
        let t = WindowedTrace::from_parts(g, vec![want(g.proc_xy(2, 2)), want(g.proc_xy(2, 2))]);
        let s = online_schedule(&t, OnlinePolicy::eager(MemorySpec::uniform(1))).unwrap();
        assert_eq!(s.max_occupancy(), 1);
    }

    #[test]
    fn deterministic() {
        let t = drifting_trace();
        let a = online_schedule(&t, OnlinePolicy::eager(MemorySpec::unbounded())).unwrap();
        let b = online_schedule(&t, OnlinePolicy::eager(MemorySpec::unbounded())).unwrap();
        assert_eq!(a, b);
    }
}
