//! The simulation engine.
//!
//! [`simulate`] expands a (trace, schedule) pair into messages, routes each
//! with x-y routing, and accumulates hop and link statistics. Windows are
//! independent, so the engine processes them in parallel with `pim-par`
//! and merges the per-window partial results — the output is deterministic
//! regardless of thread count.

use crate::contention::window_completion_time;
use crate::message::{Message, MessageKind};
use crate::report::{SimReport, WindowStats};
use pim_array::grid::Grid;
use pim_array::routing::{visit_xy_links, LinkIndex};
use pim_par::Pool;
use pim_sched::schedule::Schedule;
use pim_trace::flat::FlatView;
use pim_trace::ids::DataId;

/// Expand the messages of one window: fetches of every remote reference,
/// plus the moves *leaving* this window (for `w < nw − 1`).
pub fn window_messages(trace: &dyn FlatView, schedule: &Schedule, w: usize) -> Vec<Message> {
    let grid = trace.grid();
    let last = trace.num_windows() - 1;
    // Exact fetch count, plus one potential move per datum when a next
    // window exists: one allocation instead of a realloc-per-doubling in
    // the per-window hot loop.
    let fetches: usize = (0..trace.num_data())
        .map(|d| trace.window_run(DataId(d as u32), w).len())
        .sum();
    let moves = if w < last { trace.num_data() } else { 0 };
    let mut msgs = Vec::with_capacity(fetches + moves);
    for d in 0..trace.num_data() {
        let data = DataId(d as u32);
        let center = schedule.center(data, w);
        for r in trace.window_run(data, w).iter().filter(|r| r.count > 0) {
            msgs.push(Message {
                src: center,
                dst: r.proc(&grid),
                volume: r.count,
                data,
                window: w as u32,
                kind: MessageKind::Fetch,
            });
        }
        if w < last {
            let next = schedule.center(data, w + 1);
            if next != center {
                msgs.push(Message {
                    src: center,
                    dst: next,
                    volume: 1,
                    data,
                    window: w as u32,
                    kind: MessageKind::Move,
                });
            }
        }
    }
    msgs
}

/// Partial result of simulating one window.
struct WindowPartial {
    stats: WindowStats,
    link_volume: Vec<u64>,
}

fn simulate_window(
    grid: &Grid,
    links: &LinkIndex,
    trace: &dyn FlatView,
    schedule: &Schedule,
    w: usize,
) -> WindowPartial {
    let msgs = window_messages(trace, schedule, w);
    let mut link_volume = vec![0u64; links.num_slots()];
    let mut fetch_hops = 0u64;
    let mut move_hops = 0u64;
    let mut num_messages = 0u64;
    for m in &msgs {
        if m.is_local() {
            continue;
        }
        num_messages += 1;
        let mut hops = 0u64;
        visit_xy_links(grid, m.src, m.dst, |l| {
            link_volume[links.index_of(l)] += m.volume as u64;
            hops += 1;
        });
        let hop_volume = hops * m.volume as u64;
        match m.kind {
            MessageKind::Fetch => fetch_hops += hop_volume,
            MessageKind::Move => move_hops += hop_volume,
        }
    }
    let completion = window_completion_time(grid, &msgs);
    WindowPartial {
        stats: WindowStats {
            window: w,
            fetch_hop_volume: fetch_hops,
            move_hop_volume: move_hops,
            num_messages,
            completion_time: completion,
        },
        link_volume,
    }
}

/// Simulate a schedule against its trace.
///
/// ```
/// use pim_array::grid::Grid;
/// use pim_par::Pool;
/// use pim_sched::schedule::Schedule;
/// use pim_trace::flat::FlatTrace;
/// use pim_trace::window::WindowRefs;
///
/// let grid = Grid::new(4, 4);
/// let trace = FlatTrace::from_windows(
///     grid,
///     vec![vec![WindowRefs::from_pairs([(grid.proc_xy(3, 0), 2)])]],
/// ).unwrap();
/// let sched = Schedule::static_placement(grid, vec![grid.proc_xy(0, 0)], 1);
/// let report = pim_sim::simulate(&trace, &sched, Pool::serial());
/// // 2 units over 3 hops — and it must equal the analytic model
/// assert_eq!(report.total_hop_volume(), 6);
/// assert_eq!(report.total_hop_volume(), sched.evaluate(&trace).total());
/// ```
///
/// # Panics
/// Panics if trace and schedule shapes disagree (same conditions as
/// [`Schedule::evaluate`]).
pub fn simulate(trace: &dyn FlatView, schedule: &Schedule, pool: Pool) -> SimReport {
    assert_eq!(trace.grid(), schedule.grid(), "grid mismatch");
    assert_eq!(trace.num_data(), schedule.num_data(), "data count mismatch");
    assert_eq!(
        trace.num_windows(),
        schedule.num_windows(),
        "window count mismatch"
    );
    let grid = trace.grid();
    let links = LinkIndex::new(grid);
    let windows: Vec<usize> = (0..trace.num_windows()).collect();

    let partials = pim_par::parallel_map(pool, &windows, |_, &w| {
        simulate_window(&grid, &links, trace, schedule, w)
    });

    let mut link_volume = vec![0u64; links.num_slots()];
    let mut per_window = Vec::with_capacity(partials.len());
    for p in partials {
        for (slot, v) in p.link_volume.iter().enumerate() {
            link_volume[slot] += v;
        }
        per_window.push(p.stats);
    }
    SimReport::new(grid, per_window, link_volume)
}

/// Schedule `trace` with any [`Scheduler`](pim_sched::Scheduler) and
/// simulate the result — the registry-driven front end: the engine drives
/// whatever strategy the registry hands it, with no per-method code here.
///
/// The same `pool` parallelizes both the scheduling pass (per-datum, when
/// the policy is unbounded) and the routing pass (per-window). Scheduling
/// failures (e.g. [`pim_sched::SchedError::CapacityExhausted`]) propagate
/// as the typed error — nothing panics on an infeasible policy.
pub fn simulate_scheduler(
    scheduler: &dyn pim_sched::Scheduler,
    trace: &dyn FlatView,
    policy: pim_sched::MemoryPolicy,
    pool: Pool,
) -> Result<(Schedule, SimReport), pim_sched::SchedError> {
    let schedule = pim_sched::Run::new(trace)
        .policy(policy)
        .parallel(pool)
        .run(scheduler)?;
    let report = simulate(trace, &schedule, pool);
    Ok((schedule, report))
}

/// [`simulate_scheduler`] by registry name (case-insensitive, aliases
/// accepted); [`pim_sched::SchedError::UnknownScheduler`] when no
/// scheduler is registered under `name`.
pub fn simulate_named(
    name: &str,
    trace: &dyn FlatView,
    policy: pim_sched::MemoryPolicy,
    pool: Pool,
) -> Result<(Schedule, SimReport), pim_sched::SchedError> {
    let scheduler = pim_sched::registry()
        .get(name)
        .ok_or_else(|| pim_sched::SchedError::UnknownScheduler(name.to_string()))?;
    simulate_scheduler(scheduler, trace, policy, pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_array::grid::ProcId;
    use pim_trace::flat::FlatTrace;
    use pim_trace::window::WindowRefs;

    fn g() -> Grid {
        Grid::new(4, 4)
    }

    fn simple_case() -> (FlatTrace, Schedule) {
        let grid = g();
        let trace = FlatTrace::from_windows(
            grid,
            vec![vec![
                WindowRefs::from_pairs([(grid.proc_xy(2, 0), 3)]),
                WindowRefs::from_pairs([(grid.proc_xy(0, 2), 1)]),
            ]],
        )
        .unwrap();
        let schedule = Schedule::new(grid, vec![vec![grid.proc_xy(0, 0), grid.proc_xy(0, 2)]]);
        (trace, schedule)
    }

    #[test]
    fn hop_volume_matches_analytic_cost() {
        let (trace, schedule) = simple_case();
        let report = simulate(&trace, &schedule, Pool::serial());
        let analytic = schedule.evaluate(&trace);
        assert_eq!(report.total_fetch_hop_volume(), analytic.reference);
        assert_eq!(report.total_move_hop_volume(), analytic.movement);
        assert_eq!(report.total_hop_volume(), analytic.total());
    }

    #[test]
    fn window_messages_content() {
        let (trace, schedule) = simple_case();
        let m0 = window_messages(&trace, &schedule, 0);
        // one fetch + one move out of window 0
        assert_eq!(m0.len(), 2);
        assert!(matches!(m0[0].kind, MessageKind::Fetch));
        assert_eq!(m0[0].volume, 3);
        assert!(matches!(m0[1].kind, MessageKind::Move));
        let m1 = window_messages(&trace, &schedule, 1);
        // final window: local fetch only (center == referencing proc)
        assert_eq!(m1.len(), 1);
        assert!(m1[0].is_local());
    }

    #[test]
    fn parallel_simulation_is_deterministic() {
        let (trace, schedule) = simple_case();
        let a = simulate(&trace, &schedule, Pool::serial());
        let b = simulate(&trace, &schedule, Pool::with_threads(4));
        assert_eq!(a, b);
    }

    #[test]
    fn link_volumes_route_xy() {
        let grid = g();
        let trace = FlatTrace::from_windows(
            grid,
            vec![vec![WindowRefs::from_pairs([(grid.proc_xy(1, 1), 2)])]],
        )
        .unwrap();
        let schedule = Schedule::static_placement(grid, vec![grid.proc_xy(0, 0)], 1);
        let report = simulate(&trace, &schedule, Pool::serial());
        let links = LinkIndex::new(grid);
        // x first: (0,0)->(1,0), then y: (1,0)->(1,1); each carries volume 2
        let l1 = links.index_of(pim_array::routing::Link {
            from: grid.proc_xy(0, 0),
            to: grid.proc_xy(1, 0),
        });
        let l2 = links.index_of(pim_array::routing::Link {
            from: grid.proc_xy(1, 0),
            to: grid.proc_xy(1, 1),
        });
        assert_eq!(report.link_volume()[l1], 2);
        assert_eq!(report.link_volume()[l2], 2);
        assert_eq!(report.total_hop_volume(), 4);
        // no traffic on the y-first route
        let wrong = links.index_of(pim_array::routing::Link {
            from: grid.proc_xy(0, 0),
            to: grid.proc_xy(0, 1),
        });
        assert_eq!(report.link_volume()[wrong], 0);
    }

    #[test]
    #[should_panic(expected = "window count mismatch")]
    fn shape_mismatch_panics() {
        let (trace, _) = simple_case();
        let bad = Schedule::static_placement(g(), vec![ProcId(0)], 3);
        simulate(&trace, &bad, Pool::serial());
    }

    #[test]
    fn simulate_named_drives_any_registered_scheduler() {
        let (trace, _) = simple_case();
        for scheduler in pim_sched::registry().iter() {
            let (schedule, report) = simulate_scheduler(
                scheduler,
                &trace,
                pim_sched::MemoryPolicy::Unbounded,
                Pool::serial(),
            )
            .unwrap();
            assert_eq!(
                report.total_hop_volume(),
                schedule.evaluate(&trace).total(),
                "{}: routed hop-volume must match the analytic model",
                scheduler.name()
            );
        }
        assert!(simulate_named(
            "gomcds",
            &trace,
            pim_sched::MemoryPolicy::Unbounded,
            Pool::serial()
        )
        .is_ok());
        assert!(matches!(
            simulate_named(
                "no-such",
                &trace,
                pim_sched::MemoryPolicy::Unbounded,
                Pool::serial()
            ),
            Err(pim_sched::SchedError::UnknownScheduler(_))
        ));
    }
}
