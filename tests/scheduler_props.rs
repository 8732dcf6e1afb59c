//! Property tests over randomly generated traces: optimality orderings,
//! solver agreement, parallel determinism, and cost-model self-consistency.

use pim_array::grid::{Grid, ProcId};
use pim_par::Pool;
use pim_sched::cost::{cost_at, cost_table, cost_table_naive, optimal_center};
use pim_sched::median::median_center;
use pim_sched::{schedule, MemoryPolicy, Method, Run};
use pim_trace::flat::FlatTrace;
use pim_trace::window::WindowRefs;
use proptest::prelude::*;

/// Random grid up to 6×6.
fn arb_grid() -> impl Strategy<Value = Grid> {
    (1u32..=6, 1u32..=6).prop_map(|(w, h)| Grid::new(w, h))
}

/// Random reference string over a grid (possibly empty).
fn arb_refs(grid: Grid) -> impl Strategy<Value = WindowRefs> {
    let m = grid.num_procs() as u32;
    proptest::collection::vec((0..m, 1u32..6), 0..6).prop_map(move |pairs| {
        WindowRefs::from_pairs(pairs.into_iter().map(|(p, n)| (ProcId(p), n)))
    })
}

/// Random windowed trace: up to 4 data × up to 6 windows.
fn arb_trace() -> impl Strategy<Value = FlatTrace> {
    arb_grid().prop_flat_map(|grid| {
        (1usize..=4, 1usize..=6).prop_flat_map(move |(nd, nw)| {
            proptest::collection::vec(proptest::collection::vec(arb_refs(grid), nw..=nw), nd..=nd)
                .prop_map(move |per_data| FlatTrace::from_windows(grid, per_data).unwrap())
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gomcds_never_worse_unbounded(trace in arb_trace()) {
        let go = schedule(Method::Gomcds, &trace, MemoryPolicy::Unbounded)
            .evaluate(&trace).total();
        for other in [Method::Scds, Method::Lomcds, Method::GroupedLocal, Method::GroupedGomcds] {
            let cost = schedule(other, &trace, MemoryPolicy::Unbounded)
                .evaluate(&trace).total();
            prop_assert!(go <= cost, "GOMCDS {go} > {other} {cost}");
        }
    }

    #[test]
    fn naive_and_dt_gomcds_agree(trace in arb_trace()) {
        let a = schedule(Method::Gomcds, &trace, MemoryPolicy::Unbounded);
        let b = schedule(Method::GomcdsNaive, &trace, MemoryPolicy::Unbounded);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn naive_and_dt_agree_under_capacity(trace in arb_trace()) {
        // capacity: enough room overall, tight per processor
        let cap = (trace.num_data() as u32).div_ceil(trace.grid().num_procs() as u32) + 1;
        let a = schedule(Method::Gomcds, &trace, MemoryPolicy::Capacity(cap));
        let b = schedule(Method::GomcdsNaive, &trace, MemoryPolicy::Capacity(cap));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn parallel_equals_sequential(trace in arb_trace()) {
        for method in [Method::Scds, Method::Lomcds, Method::Gomcds, Method::GroupedLocal] {
            let seq = schedule(method, &trace, MemoryPolicy::Unbounded);
            let par = Run::new(&trace)
                .policy(MemoryPolicy::Unbounded)
                .parallel(Pool::with_threads(4))
                .run_method(method)
                .unwrap();
            prop_assert_eq!(seq, par, "method {}", method);
        }
    }

    #[test]
    fn scds_is_single_window_optimal(trace in arb_trace()) {
        // SCDS cost equals the optimum of the collapsed (single-window)
        // problem, which is GOMCDS on the collapsed trace.
        let grid = trace.grid();
        let mut records = Vec::new();
        for d in 0..trace.num_data() {
            let datum = pim_trace::ids::DataId(d as u32);
            records.extend(trace.span(datum).iter().map(|r| pim_trace::flat::FlatRecord {
                datum,
                window: 0,
                proc: r.proc(&grid),
                count: r.count,
            }));
        }
        let collapsed = FlatTrace::from_records(trace.grid(), 1, trace.num_data(), records)
            .expect("records come from a valid trace");
        let scds = schedule(Method::Scds, &trace, MemoryPolicy::Unbounded)
            .evaluate(&trace).total();
        let collapsed_opt = schedule(Method::Gomcds, &collapsed, MemoryPolicy::Unbounded)
            .evaluate(&collapsed).total();
        prop_assert_eq!(scds, collapsed_opt);
    }

    #[test]
    fn cost_tables_agree(grid in arb_grid(), seed in 0u64..500) {
        let m = grid.num_procs() as u32;
        let refs = WindowRefs::from_pairs(
            (0..seed % 7).map(|i| (ProcId((seed.wrapping_mul(i + 3) % m as u64) as u32), (i % 4 + 1) as u32)),
        );
        let mut a = Vec::new();
        let mut b = Vec::new();
        cost_table_naive(&grid, &refs, &mut a);
        cost_table(&grid, &refs, &mut b);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn median_solver_matches_table_solver(grid in arb_grid(), seed in 0u64..500) {
        let m = grid.num_procs() as u32;
        let refs = WindowRefs::from_pairs(
            (0..seed % 8).map(|i| (ProcId((seed.wrapping_mul(i + 11) % m as u64) as u32), (i % 3 + 1) as u32)),
        );
        let (c_table, best) = optimal_center(&grid, &refs);
        let c_median = median_center(&grid, &refs);
        prop_assert_eq!(cost_at(&grid, &refs, c_median), best);
        prop_assert_eq!(c_median, c_table);
    }

    #[test]
    fn evaluate_is_additive_over_data(trace in arb_trace()) {
        let s = schedule(Method::Lomcds, &trace, MemoryPolicy::Unbounded);
        let total = s.evaluate(&trace);
        let mut sum = pim_sched::CostBreakdown::default();
        for d in 0..trace.num_data() {
            let d = pim_trace::ids::DataId(d as u32);
            sum.add(pim_sched::flat::datum_cost(&trace.grid(), trace.span(d), s.centers_of(d), 1));
        }
        prop_assert_eq!(total, sum);
    }

    #[test]
    fn simulator_always_matches_analytic(trace in arb_trace()) {
        let s = schedule(Method::Gomcds, &trace, MemoryPolicy::Unbounded);
        let report = pim_sim::simulate(&trace, &s, Pool::serial());
        prop_assert_eq!(report.total_hop_volume(), s.evaluate(&trace).total());
    }
}
