//! End-to-end pipeline: generate every paper benchmark, schedule it with
//! every method, and verify the structural invariants a downstream user
//! relies on.

use pim_array::grid::Grid;
use pim_array::layout::Layout;
use pim_sched::{schedule, MemoryPolicy, Method};
use pim_workloads::{windowed, Benchmark};

const MEMORY: MemoryPolicy = MemoryPolicy::ScaledMinimum { factor: 2 };

#[test]
fn every_benchmark_schedules_under_every_method() {
    let grid = Grid::new(4, 4);
    for bench in Benchmark::paper_set() {
        let (trace, space) = windowed(bench, grid, 8, 2, 1998);
        let sf = space
            .straightforward(&trace, Layout::RowWise)
            .evaluate(&trace)
            .total();
        for method in Method::ALL {
            let s = schedule(method, &trace, MEMORY);
            assert_eq!(s.num_data(), trace.num_data(), "{bench} {method}");
            assert_eq!(s.num_windows(), trace.num_windows(), "{bench} {method}");
            let cost = s.evaluate(&trace);
            assert!(
                cost.total() <= sf,
                "{bench}/{method}: cost {} exceeds straightforward {sf}",
                cost.total()
            );
        }
    }
}

#[test]
fn multiple_center_methods_actually_move_data() {
    let grid = Grid::new(4, 4);
    let (trace, _) = windowed(Benchmark::CodeReverse, grid, 16, 2, 1998);
    let scds = schedule(Method::Scds, &trace, MEMORY);
    assert!(!scds.has_movement(), "SCDS never moves");
    let gomcds = schedule(Method::Gomcds, &trace, MEMORY);
    assert!(
        gomcds.has_movement(),
        "GOMCDS should exploit movement on the drifting CODE benchmark"
    );
}

#[test]
fn costs_are_deterministic_across_runs() {
    let grid = Grid::new(4, 4);
    for _ in 0..2 {
        let (t1, _) = windowed(Benchmark::MatMulCode, grid, 8, 2, 7);
        let (t2, _) = windowed(Benchmark::MatMulCode, grid, 8, 2, 7);
        assert_eq!(t1, t2);
        let s1 = schedule(Method::Gomcds, &t1, MEMORY);
        let s2 = schedule(Method::Gomcds, &t2, MEMORY);
        assert_eq!(s1, s2);
    }
}

#[test]
fn larger_windows_never_break_scheduling() {
    let grid = Grid::new(4, 4);
    for steps in [1usize, 3, 10, 1000] {
        let (trace, _) = windowed(Benchmark::Lu, grid, 8, steps, 0);
        let s = schedule(Method::Gomcds, &trace, MEMORY);
        let cost = s.evaluate(&trace).total();
        assert!(cost > 0, "steps={steps}");
    }
    // one giant window: GOMCDS degenerates to SCDS
    let (trace, _) = windowed(Benchmark::Lu, grid, 8, 1000, 0);
    assert_eq!(trace.num_windows(), 1);
    assert_eq!(
        schedule(Method::Gomcds, &trace, MEMORY),
        schedule(Method::Scds, &trace, MEMORY)
    );
}

#[test]
fn non_square_grids_work() {
    for (w, h) in [(8, 2), (2, 8), (1, 16), (5, 3)] {
        let grid = Grid::new(w, h);
        let (trace, space) = windowed(Benchmark::Lu, grid, 8, 2, 0);
        let sf = space
            .straightforward(&trace, Layout::RowWise)
            .evaluate(&trace)
            .total();
        let go = schedule(Method::Gomcds, &trace, MEMORY)
            .evaluate(&trace)
            .total();
        assert!(go <= sf, "{w}x{h}: {go} > {sf}");
    }
}

#[test]
fn extra_benchmarks_round_trip() {
    let grid = Grid::new(4, 4);
    for bench in [Benchmark::Jacobi, Benchmark::Transpose, Benchmark::Sor] {
        let (trace, space) = windowed(bench, grid, 8, 2, 3);
        let sf = space
            .straightforward(&trace, Layout::RowWise)
            .evaluate(&trace)
            .total();
        let go = schedule(Method::Gomcds, &trace, MEMORY)
            .evaluate(&trace)
            .total();
        assert!(go <= sf, "{bench}");
    }
}
