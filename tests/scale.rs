//! Larger-scale smoke tests: the full pipeline on an 8×8 array with
//! 32×32 data (1024–2048 data items, ~60 windows), exercising the paths
//! whose complexity actually matters (distance-transform GOMCDS, parallel
//! scheduling, simulator) at a size where the naive formulations would
//! crawl.

use pim_array::grid::Grid;
use pim_array::layout::Layout;
use pim_par::Pool;
use pim_sched::{schedule, MemoryPolicy, Method, Run};
use pim_workloads::{windowed, Benchmark};

#[test]
fn big_lu_end_to_end() {
    let grid = Grid::new(8, 8);
    let (trace, space) = windowed(Benchmark::Lu, grid, 32, 2, 0);
    assert_eq!(trace.num_data(), 1024);
    assert!(trace.num_windows() >= 30);

    let sf = space
        .straightforward(&trace, Layout::RowWise)
        .evaluate(&trace)
        .total();
    let policy = MemoryPolicy::ScaledMinimum { factor: 2 };
    let go = schedule(Method::Gomcds, &trace, policy);
    let cost = go.evaluate(&trace).total();
    assert!(cost < sf, "GOMCDS {cost} must beat S.F. {sf} at scale");
    assert!(go.max_occupancy() <= policy.resolve(&trace).capacity_per_proc);

    // lower-bound sandwich also holds at scale
    let lb = pim_sched::bounds::reference_lower_bound(&trace);
    assert!(lb <= cost);
}

#[test]
fn big_parallel_matches_sequential() {
    let grid = Grid::new(8, 8);
    let (trace, _) = windowed(Benchmark::MatMul, grid, 24, 2, 0);
    let seq = schedule(Method::Gomcds, &trace, MemoryPolicy::Unbounded);
    let par = Run::new(&trace)
        .policy(MemoryPolicy::Unbounded)
        .parallel(Pool::auto())
        .run_method(Method::Gomcds)
        .unwrap();
    assert_eq!(seq, par);
}

#[test]
fn big_simulation_agrees_with_analytic() {
    let grid = Grid::new(8, 8);
    let (trace, _) = windowed(Benchmark::MatMulCode, grid, 24, 2, 1998);
    let s = schedule(
        Method::Lomcds,
        &trace,
        MemoryPolicy::ScaledMinimum { factor: 2 },
    );
    let report = pim_sim::simulate(&trace, &s, Pool::auto());
    assert_eq!(report.total_hop_volume(), s.evaluate(&trace).total());
}

/// Million-scale id audit: datum indices beyond the 16-bit boundary round
/// trip through the flat pipeline — build, schedule, evaluate — with no
/// truncation. 70k data exceeds `u16::MAX`; the typed conversion guards
/// the 32-bit boundary.
#[test]
fn datum_ids_survive_past_65k() {
    use pim_trace::ids::DataId;

    // The checked conversion accepts the 32-bit range and rejects overflow.
    assert_eq!(DataId::try_from_index(70_000).unwrap(), DataId(70_000));
    assert_eq!(
        DataId::try_from_index(u32::MAX as usize).unwrap(),
        DataId(u32::MAX)
    );
    assert!(DataId::try_from_index(u32::MAX as usize + 1).is_err());

    let grid = Grid::new(16, 16);
    const ND: usize = 70_000;
    let flat = pim_bench::scale::synthetic_flat(grid, 8, ND, 7);
    assert_eq!(flat.num_data(), ND);
    // The last datum (index > 65535) kept its own references.
    assert!(!flat.span(DataId(ND as u32 - 1)).is_empty());

    let s = pim_sched::flat_lomcds(&flat, MemoryPolicy::Unbounded, Pool::auto())
        .expect("unbounded cannot exhaust");
    assert_eq!(s.num_data(), ND);
    let cost = pim_sched::flat_total_cost(&flat, &s);
    assert!(cost.total() > 0);
}

#[test]
fn big_grouping_pipeline_is_sound() {
    let grid = Grid::new(8, 8);
    let (trace, _) = windowed(Benchmark::CodeReverse, grid, 24, 1, 1998);
    let policy = MemoryPolicy::ScaledMinimum { factor: 2 };
    let plain = schedule(Method::Lomcds, &trace, policy)
        .evaluate(&trace)
        .total();
    let grouped = schedule(Method::GroupedLocal, &trace, policy)
        .evaluate(&trace)
        .total();
    // the finest windows make per-window movement expensive; grouping
    // should recover a meaningful share
    assert!(
        grouped <= plain,
        "grouped {grouped} must not exceed plain LOMCDS {plain}"
    );
}
