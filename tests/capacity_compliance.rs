//! Memory-capacity compliance: every scheduler must respect the per-
//! processor, per-window slot limit in every window, for every policy —
//! and when a policy cannot hold the working set at all, every registered
//! scheduler must report the typed [`SchedError::CapacityExhausted`]
//! through the `Scheduler` trait instead of panicking.

use pim_array::grid::Grid;
use pim_par::Pool;
use pim_sched::{schedule, MemoryPolicy, Method, Run, SchedError};
use pim_trace::window::WindowedTrace;
use pim_workloads::{windowed, Benchmark};

#[test]
fn occupancy_never_exceeds_capacity() {
    let grid = Grid::new(4, 4);
    for bench in [Benchmark::Lu, Benchmark::MatMulCode, Benchmark::CodeReverse] {
        let (trace, _) = windowed(bench, grid, 8, 2, 1998);
        for factor in [1u32, 2, 3] {
            let policy = MemoryPolicy::ScaledMinimum { factor };
            let cap = policy.resolve(&trace).capacity_per_proc;
            for method in Method::ALL {
                let s = schedule(method, &trace, policy);
                assert!(
                    s.max_occupancy() <= cap,
                    "{bench}/{method} factor {factor}: occupancy {} > cap {cap}",
                    s.max_occupancy()
                );
            }
        }
    }
}

#[test]
fn tightest_memory_forces_perfect_balance() {
    // factor 1 and data divisible by processors: every processor must hold
    // exactly data/procs items in every window.
    let grid = Grid::new(4, 4);
    let (trace, _) = windowed(Benchmark::Lu, grid, 8, 2, 0); // 64 data, 16 procs
    let policy = MemoryPolicy::ScaledMinimum { factor: 1 };
    assert_eq!(policy.resolve(&trace).capacity_per_proc, 4);
    for method in [Method::Scds, Method::Lomcds, Method::Gomcds] {
        let s = schedule(method, &trace, policy);
        for (w, occ) in s.occupancy().iter().enumerate() {
            assert!(
                occ.iter().all(|&n| n == 4),
                "{method} window {w}: occupancy {occ:?} not perfectly balanced"
            );
        }
    }
}

#[test]
fn looser_memory_never_hurts() {
    let grid = Grid::new(4, 4);
    let (trace, _) = windowed(Benchmark::MatMulCode, grid, 8, 2, 1998);
    for method in [Method::Scds, Method::Lomcds, Method::Gomcds] {
        let mut prev = u64::MAX;
        for factor in [1u32, 2, 4] {
            let cost = schedule(method, &trace, MemoryPolicy::ScaledMinimum { factor })
                .evaluate(&trace)
                .total();
            assert!(
                cost <= prev,
                "{method}: cost rose from {prev} to {cost} when memory loosened to {factor}x"
            );
            prev = cost;
        }
        let unbounded = schedule(method, &trace, MemoryPolicy::Unbounded)
            .evaluate(&trace)
            .total();
        assert!(
            unbounded <= prev,
            "{method}: unbounded {unbounded} > 4x {prev}"
        );
    }
}

#[test]
#[should_panic(expected = "cannot hold")]
fn infeasible_policy_panics_with_clear_message() {
    // The legacy `schedule` shim keeps the seed's panicking contract; the
    // typed-error path is pinned by the exhaustion matrix below.
    let grid = Grid::new(2, 2);
    let (trace, _) = windowed(Benchmark::Lu, grid, 8, 2, 0); // 64 data, 4 procs
    let _ = schedule(Method::Gomcds, &trace, MemoryPolicy::Capacity(2)); // 8 slots < 64
}

/// Capacity exhaustion is a *typed error*, never a panic: on a grid whose
/// total memory cannot hold the working set, every registered scheduler ×
/// every bounded policy × every execution wrapper (sequential, two-phase
/// parallel) returns [`SchedError::CapacityExhausted`], and its message
/// names the failure. So does the pre-cache reference
/// ([`pim_reference::schedule`]) of every scheduler that is a [`Method`].
#[test]
fn capacity_exhaustion_is_a_typed_error_for_every_scheduler() {
    let grid = Grid::new(2, 2);
    let (trace, _) = windowed(Benchmark::Lu, grid, 8, 2, 0); // 64 data, 4 procs
    assert!(
        trace.num_data() > 4 * 15,
        "trace must overflow every policy"
    );
    // 4, 8 and 60 slots — all short of the 64 data items.
    for policy in [
        MemoryPolicy::Capacity(1),
        MemoryPolicy::Capacity(2),
        MemoryPolicy::Capacity(15),
    ] {
        for scheduler in pim_sched::registry().iter() {
            let name = scheduler.name();
            let reference = Method::parse(name)
                .map(|m| ("reference", pim_reference::schedule(m, &trace, policy)));
            let wrappers = [
                ("cached", Run::new(&trace).policy(policy).run(scheduler)),
                (
                    "parallel",
                    Run::new(&trace)
                        .policy(policy)
                        .parallel(Pool::with_threads(3))
                        .run(scheduler),
                ),
            ];
            for (mode, result) in wrappers.into_iter().chain(reference) {
                match result {
                    Err(e @ SchedError::CapacityExhausted { .. }) => assert!(
                        e.to_string().contains("cannot hold"),
                        "{name}/{mode}: error must name the failure, got {e}"
                    ),
                    Err(other) => panic!("{name}/{mode}: wrong error kind {other}"),
                    Ok(_) => {
                        panic!("{name}/{mode} under {policy:?} must fail, not schedule")
                    }
                }
            }
        }
    }
}

/// A trace with no data (the `.pimb` format allows one) schedules to an
/// empty schedule under every registered scheduler and every reference
/// implementation — never a panic.
#[test]
fn zero_data_trace_schedules_empty_for_every_scheduler() {
    let trace = WindowedTrace::from_parts(Grid::new(4, 4), Vec::new());
    assert_eq!(trace.num_data(), 0);
    for policy in [
        MemoryPolicy::Unbounded,
        MemoryPolicy::Capacity(1),
        MemoryPolicy::ScaledMinimum { factor: 2 },
    ] {
        for scheduler in pim_sched::registry().iter() {
            let s = Run::new(&trace)
                .policy(policy)
                .run(scheduler)
                .unwrap_or_else(|e| panic!("{} under {policy:?}: {e}", scheduler.name()));
            assert_eq!(s.num_data(), 0, "{} under {policy:?}", scheduler.name());
        }
        for method in Method::ALL {
            let s = pim_reference::schedule(method, &trace, policy)
                .unwrap_or_else(|e| panic!("reference {method} under {policy:?}: {e}"));
            assert_eq!(s.num_data(), 0, "reference {method} under {policy:?}");
        }
    }
}
