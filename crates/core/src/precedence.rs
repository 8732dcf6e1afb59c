//! Precedence-aware scheduling: list-scheduling priorities over a task
//! DAG, feeding the paper's center-selection machinery.
//!
//! The paper's model releases every reference at window start, so center
//! selection only minimizes *communication volume*. Once a
//! [`TaskDag`] gates message release (see `pim_sim`'s completion-triggered
//! simulation), the *critical path* through the task graph matters too: a
//! task on the critical path should have its references served from
//! nearby centers so it finishes — and releases its successors — sooner.
//!
//! Two registry strategies implement this, following the two classic
//! priority families of the DAG-scheduling literature (and of the related
//! `sched_sim` repos' global-EDF / decomposition schedulers):
//!
//! * `list-scds` ([`ListScdsScheduler`]) — **critical-path list
//!   scheduling**: task priority is the *upward rank* (longest
//!   WCET-weighted path from the task to any sink).
//! * `edf-scds` ([`EdfScdsScheduler`]) — **deadline ordering**: each
//!   task's latest-start deadline is derived from the DAG span; priority
//!   is deadline urgency (earliest deadline first).
//!
//! Both turn task priorities into per-`(datum, window)` **reference
//! weights** `ω ∈ 1..=4` and solve each datum's layered shortest path with
//! its window node costs scaled by `ω` — pulling the centers of
//! critical-task data toward their referencing processors — and replay
//! bounded-capacity allocation in priority order, so the most urgent
//! tasks' data claim contested slots first. Placement and execution order
//! are co-decided.
//!
//! The result is **guarded**: both strategies also compute the plain
//! GOMCDS schedule and return whichever the analytic completion estimator
//! ([`estimate_completion`]) scores better, so attaching a DAG never
//! trades away an estimated-completion win for nothing. Without a DAG
//! (`SchedContext::dag() == None`) both strategies *are* GOMCDS —
//! bit-identical, by delegation — so the precedence-free path is pinned by
//! the same conformance proptests as every other scheduler.

use crate::context::SchedContext;
use crate::error::{ensure_feasible, SchedError};
use crate::gomcds::{solve_layered, GomcdsReplay, NodeSource, Solver};
use crate::registry::{GomcdsScheduler, Scheduler};
use crate::schedule::Schedule;
use pim_array::grid::ProcId;
use pim_trace::dag::TaskDag;
use pim_trace::ids::DataId;
use pim_trace::window::WindowedTrace;

/// How task priorities are derived from the DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriorityMode {
    /// Upward rank: the longest WCET-weighted path from the task to any
    /// sink (classic HEFT/list-scheduling rank). Higher = more critical.
    CriticalPath,
    /// Deadline urgency: the task's latest-start deadline against the DAG
    /// span, earliest deadline first. Equals the upward rank minus the
    /// task's own WCET (its successor chain length).
    Deadline,
}

/// Per-task priorities under `mode`; higher means scheduled (and
/// weighted) more urgently. Deterministic: derived from the DAG's
/// precomputed topological order.
pub fn task_priorities(dag: &TaskDag, mode: PriorityMode) -> Vec<u64> {
    let n = dag.num_tasks();
    let mut up = vec![0u64; n];
    for &t in dag.topo_order().iter().rev() {
        let tail = dag
            .succs(t)
            .iter()
            .map(|&s| up[s as usize])
            .max()
            .unwrap_or(0);
        up[t as usize] = dag.task(t).wcet.max(1).saturating_add(tail);
    }
    match mode {
        PriorityMode::CriticalPath => up,
        // deadline = span − (up − wcet); urgency = span − deadline =
        // up − wcet: a task's priority is the length of what still runs
        // after it. (A long task with no successors is top-rank under
        // CriticalPath but least urgent here.)
        PriorityMode::Deadline => (0..n)
            .map(|t| up[t] - dag.task(t as u32).wcet.max(1))
            .collect(),
    }
}

/// Scale factor applied to a window's reference costs: `1 + 3·pri/pri_max`
/// in integers, so ω ∈ `1..=4` and a DAG whose tasks are all equally
/// critical degenerates to uniform weights.
fn weight(pri: u64, pri_max: u64) -> u64 {
    1 + (3u64.saturating_mul(pri)) / pri_max.max(1)
}

/// Analytic estimate of the completion cycles `schedule` achieves under
/// `dag`-gated release (the model `pim_sim`'s completion-triggered
/// simulator implements): within a window, a task becomes ready when its
/// intra-window predecessors finish and takes as long as its slowest
/// message (L1 distance + volume − 1, contention ignored); a window
/// completes when its last task finishes, and windows — separated by the
/// barrier — sum. Cheap enough to score candidate schedules inside a
/// scheduler; the simulator stays the ground truth.
pub fn estimate_completion(trace: &WindowedTrace, schedule: &Schedule, dag: &TaskDag) -> u64 {
    let grid = trace.grid();
    let nw = trace.num_windows();
    let mut finish = vec![0u64; dag.num_tasks()];
    let mut total = 0u64;
    for w in 0..nw {
        let mut window_end = 0u64;
        for &t in dag.topo_order() {
            let task = dag.task(t);
            if task.window as usize != w {
                continue;
            }
            let ready = dag
                .preds(t)
                .iter()
                .filter(|&&p| dag.task(p).window as usize == w)
                .map(|&p| finish[p as usize])
                .max()
                .unwrap_or(0);
            let mut span = 0u64;
            for &d in &task.data {
                let center = schedule.center(d, w);
                let cp = grid.point_of(center);
                for r in trace.refs(d).window(w).iter() {
                    if r.proc != center {
                        let dist = grid.point_of(r.proc).l1_dist(cp);
                        span = span.max(dist + r.count as u64 - 1);
                    }
                }
                if w + 1 < nw {
                    let next = schedule.center(d, w + 1);
                    if next != center {
                        span = span.max(cp.l1_dist(grid.point_of(next)));
                    }
                }
            }
            finish[t as usize] = ready + span;
            window_end = window_end.max(finish[t as usize]);
        }
        total += window_end;
    }
    total
}

/// The precedence-aware placement itself: weighted per-datum paths (the
/// GOMCDS kernel over priority-weighted node costs), capacity replayed by
/// the GOMCDS replay in task-priority order. Deliberately one sequential,
/// raw-reference-string code path — sequential and parallel contexts both
/// land here, so the with-DAG output is bit-identical across execution
/// modes by construction.
fn precedence_schedule(
    ctx: &mut SchedContext,
    trace: &WindowedTrace,
    dag: &TaskDag,
    mode: PriorityMode,
) -> Result<Schedule, SchedError> {
    let grid = ctx.grid();
    let spec = ctx.spec();
    let nd = trace.num_data();
    let nw = trace.num_windows();
    ensure_feasible(&grid, spec, nd)?;

    let pri = task_priorities(dag, mode);
    let pri_max = pri.iter().copied().max().unwrap_or(0);

    // Replay order: most critical owning task first, then datum id.
    let mut order: Vec<(core::cmp::Reverse<u64>, DataId)> = trace
        .iter_data()
        .map(|(d, _)| {
            let key = (0..nw as u32)
                .filter_map(|w| dag.owner(w, d))
                .map(|t| pri[t as usize])
                .max()
                .unwrap_or(0);
            (core::cmp::Reverse(key), d)
        })
        .collect();
    order.sort_unstable();

    let mut replay = GomcdsReplay::new(&grid, nw, spec, Solver::DistanceTransform);
    let ws = ctx.workspace();
    let mut weights = vec![1u64; nw];
    let mut centers: Vec<Vec<ProcId>> = vec![Vec::new(); nd];
    for (_, d) in order {
        for (w, slot) in weights.iter_mut().enumerate() {
            *slot = match dag.owner(w as u32, d) {
                Some(t) => weight(pri[t as usize], pri_max),
                None => 1,
            };
        }
        let src = NodeSource::Weighted(trace.refs(d), &weights);
        centers[d.index()] = replay.place(d, None, |masks| {
            solve_layered(&grid, &src, masks, Solver::DistanceTransform, 1, None, ws)
                .map(|(path, _)| path)
        })?;
    }
    Ok(Schedule::new(grid, centers))
}

/// Shared driver for both precedence-aware strategies: delegate to GOMCDS
/// without a DAG; with one, validate it, compute both the aware and the
/// plain schedule, and return the better under [`estimate_completion`]
/// (ties go to plain GOMCDS, which also minimizes communication volume).
fn guarded_schedule(
    ctx: &mut SchedContext,
    trace: &WindowedTrace,
    mode: PriorityMode,
) -> Result<Schedule, SchedError> {
    let Some(dag) = ctx.dag() else {
        return GomcdsScheduler::fast().schedule(ctx, trace);
    };
    dag.validate_cover(trace)
        .map_err(|e| SchedError::DagMismatch(e.to_string()))?;
    let aware = precedence_schedule(ctx, trace, dag, mode)?;
    let plain = match GomcdsScheduler::fast().schedule(ctx, trace) {
        Ok(s) => s,
        // The weighted replay can survive capacity pressure the plain
        // datum-order replay dies on; keep the feasible schedule.
        Err(SchedError::CapacityExhausted { .. }) => return Ok(aware),
        Err(e) => return Err(e),
    };
    if estimate_completion(trace, &aware, dag) < estimate_completion(trace, &plain, dag) {
        Ok(aware)
    } else {
        Ok(plain)
    }
}

/// Critical-path list scheduling (`list-scds`): upward-rank priorities
/// over the attached DAG steer center selection and capacity order.
/// Without a DAG this *is* GOMCDS (bit-identical, by delegation).
#[derive(Debug, Clone, Copy, Default)]
pub struct ListScdsScheduler;

impl Scheduler for ListScdsScheduler {
    fn name(&self) -> &'static str {
        "list-scds"
    }

    fn description(&self) -> &'static str {
        "critical-path list scheduling over the task DAG (GOMCDS without one)"
    }

    fn in_comparison(&self) -> bool {
        // Cost tables compare communication volume; this trades volume for
        // completion cycles and is evaluated by the BENCH_dag sweep.
        false
    }

    fn precedence_aware(&self) -> bool {
        true
    }

    fn schedule(
        &self,
        ctx: &mut SchedContext,
        trace: &WindowedTrace,
    ) -> Result<Schedule, SchedError> {
        guarded_schedule(ctx, trace, PriorityMode::CriticalPath)
    }
}

/// Deadline-ordered scheduling (`edf-scds`): latest-start deadlines from
/// the DAG span; earliest deadline claims placement first. Without a DAG
/// this *is* GOMCDS (bit-identical, by delegation).
#[derive(Debug, Clone, Copy, Default)]
pub struct EdfScdsScheduler;

impl Scheduler for EdfScdsScheduler {
    fn name(&self) -> &'static str {
        "edf-scds"
    }

    fn description(&self) -> &'static str {
        "deadline-ordered (EDF) scheduling over the task DAG (GOMCDS without one)"
    }

    fn in_comparison(&self) -> bool {
        false
    }

    fn precedence_aware(&self) -> bool {
        true
    }

    fn schedule(
        &self,
        ctx: &mut SchedContext,
        trace: &WindowedTrace,
    ) -> Result<Schedule, SchedError> {
        guarded_schedule(ctx, trace, PriorityMode::Deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{MemoryPolicy, Run};
    use pim_array::grid::Grid;
    use pim_trace::dag::Task;
    use pim_trace::window::{DataRefString, WindowRefs};

    fn g() -> Grid {
        Grid::new(4, 4)
    }

    fn task(window: u32, data: &[u32], wcet: u64) -> Task {
        Task {
            window,
            data: data.iter().map(|&d| DataId(d)).collect(),
            wcet,
        }
    }

    #[test]
    fn priorities_rank_the_critical_chain() {
        // chain t0 -> t1 -> t2 plus an isolated heavy t3
        let dag = TaskDag::new(
            1,
            vec![
                task(0, &[0], 2),
                task(0, &[1], 2),
                task(0, &[2], 2),
                task(0, &[3], 5),
            ],
            vec![(0, 1), (1, 2)],
        )
        .unwrap();
        let cp = task_priorities(&dag, PriorityMode::CriticalPath);
        assert_eq!(cp, vec![6, 4, 2, 5]);
        // Deadline urgency = remaining chain after the task: the heavy
        // sink t3 is least urgent despite its rank.
        let edf = task_priorities(&dag, PriorityMode::Deadline);
        assert_eq!(edf, vec![4, 2, 0, 0]);
    }

    #[test]
    fn without_dag_both_are_gomcds_bit_identical() {
        let grid = g();
        let trace = WindowedTrace::from_parts(
            grid,
            vec![
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(0, 0), 2), (grid.proc_xy(3, 1), 1)]),
                    WindowRefs::from_pairs([(grid.proc_xy(3, 3), 4)]),
                ],
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(2, 2), 1)]),
                    WindowRefs::from_pairs([(grid.proc_xy(1, 0), 3)]),
                ],
            ],
        );
        for policy in [MemoryPolicy::Unbounded, MemoryPolicy::Capacity(1)] {
            let gomcds = Run::new(&trace).policy(policy).run_named("GOMCDS").unwrap();
            for name in ["list-scds", "edf-scds"] {
                let s = Run::new(&trace).policy(policy).run_named(name).unwrap();
                assert_eq!(s, gomcds, "{name} under {policy:?}");
            }
        }
    }

    #[test]
    fn weighted_solver_with_unit_weights_matches_gomcds_path() {
        let grid = g();
        let rs = DataRefString::new(vec![
            WindowRefs::from_pairs([(grid.proc_xy(0, 0), 1)]),
            WindowRefs::from_pairs([(grid.proc_xy(3, 3), 10)]),
            WindowRefs::new(),
        ]);
        let mut ws = crate::workspace::Workspace::new();
        let src = NodeSource::Weighted(&rs, &[1, 1, 1]);
        let weighted = solve_layered(
            &grid,
            &src,
            None,
            Solver::DistanceTransform,
            1,
            None,
            &mut ws,
        )
        .unwrap();
        // Unit weights leave every node cost unchanged, so the weighted
        // solve is plain GOMCDS (itself pinned to brute-force enumeration
        // in tests/theory_exhaustive.rs).
        let plain = crate::gomcds::gomcds_path(&grid, &rs, Solver::DistanceTransform);
        assert_eq!(weighted, plain);
    }

    #[test]
    fn priority_replay_gives_critical_chain_the_contested_slot() {
        let grid = g();
        // Three data all want the same processor under capacity 1. Datum 1
        // heads the chain t1 → t2; datum 0's task is independent. Plain
        // GOMCDS replays in id order, so datum 0 claims the hot slot and
        // the displacement penalty lands on the chain head — compounding
        // into t2's start. Priority replay gives the chain head the slot,
        // so only leaf tasks pay the displacement.
        let hot = grid.proc_xy(1, 1);
        let refs = || vec![WindowRefs::from_pairs([(hot, 3)])];
        let trace = WindowedTrace::from_parts(grid, vec![refs(), refs(), refs()]);
        let dag = TaskDag::new(
            1,
            vec![task(0, &[0], 1), task(0, &[1], 1), task(0, &[2], 1)],
            vec![(1, 2)],
        )
        .unwrap();
        let plain = Run::new(&trace)
            .policy(MemoryPolicy::Capacity(1))
            .run_named("GOMCDS")
            .unwrap();
        assert_eq!(plain.center(DataId(0), 0), hot, "id-order replay");
        let mut run = Run::new(&trace).policy(MemoryPolicy::Capacity(1)).dag(&dag);
        let s = run.run_named("list-scds").unwrap();
        assert_eq!(s.center(DataId(1), 0), hot, "critical chain head wins");
        assert_ne!(s.center(DataId(0), 0), hot);
        assert_ne!(s.center(DataId(2), 0), hot);
        assert!(
            estimate_completion(&trace, &s, &dag) < estimate_completion(&trace, &plain, &dag),
            "priority placement shortens the estimated critical path"
        );
    }

    #[test]
    fn dag_mismatch_is_a_typed_error() {
        let grid = g();
        let trace = WindowedTrace::from_parts(
            grid,
            vec![vec![WindowRefs::from_pairs([(grid.proc_xy(0, 0), 1)])]],
        );
        // DAG owns nothing → the referenced (window 0, datum 0) is unowned.
        let dag = TaskDag::new(1, vec![], vec![]).unwrap();
        let mut run = Run::new(&trace).dag(&dag);
        assert!(matches!(
            run.run_named("list-scds"),
            Err(SchedError::DagMismatch(_))
        ));
    }

    #[test]
    fn estimator_rewards_closer_critical_centers() {
        let grid = g();
        let far = grid.proc_xy(3, 3);
        let near = grid.proc_xy(0, 0);
        let trace =
            WindowedTrace::from_parts(grid, vec![vec![WindowRefs::from_pairs([(near, 2)])]]);
        let dag = TaskDag::new(1, vec![task(0, &[0], 1)], vec![]).unwrap();
        let local = Schedule::new(grid, vec![vec![near]]);
        let remote = Schedule::new(grid, vec![vec![far]]);
        assert_eq!(estimate_completion(&trace, &local, &dag), 0);
        assert_eq!(estimate_completion(&trace, &remote, &dag), 7); // dist 6 + vol 2 − 1
                                                                   // Chained tasks serialize within the window.
        let trace2 = WindowedTrace::from_parts(
            grid,
            vec![
                vec![WindowRefs::from_pairs([(near, 2)])],
                vec![WindowRefs::from_pairs([(near, 2)])],
            ],
        );
        let chain =
            TaskDag::new(1, vec![task(0, &[0], 1), task(0, &[1], 1)], vec![(0, 1)]).unwrap();
        let both_remote = Schedule::new(grid, vec![vec![far], vec![far]]);
        assert_eq!(estimate_completion(&trace2, &both_remote, &chain), 14);
    }
}
