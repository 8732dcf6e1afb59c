//! Property tests for the volume-weighted cost model: weighted GOMCDS
//! optimality, weight monotonicity, per-datum volumes, and K-copy
//! dominance — on random traces.

#![allow(clippy::needless_range_loop)]

use pim_array::grid::{Grid, ProcId};
use pim_array::memory::MemorySpec;
use pim_sched::flat::datum_cost;
use pim_sched::gomcds::{gomcds_path_weighted, gomcds_schedule_volumes, Solver};
use pim_sched::kcopy::kcopy_schedule;
use pim_sched::{schedule, CostBreakdown, CostCache, MemoryPolicy, Method, Schedule, Workspace};
use pim_trace::flat::FlatTrace;
use pim_trace::ids::DataId;
use pim_trace::window::WindowRefs;
use proptest::prelude::*;

fn arb_trace() -> impl Strategy<Value = FlatTrace> {
    (2u32..=5, 2u32..=5).prop_flat_map(|(w, h)| {
        let grid = Grid::new(w, h);
        let m = grid.num_procs() as u32;
        (1usize..=3, 1usize..=5).prop_flat_map(move |(nd, nw)| {
            proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec((0..m, 1u32..6), 0..4),
                    nw..=nw,
                ),
                nd..=nd,
            )
            .prop_map(move |data| {
                FlatTrace::from_windows(
                    grid,
                    data.into_iter()
                        .map(|ws| {
                            ws.into_iter()
                                .map(|pairs| {
                                    WindowRefs::from_pairs(
                                        pairs.into_iter().map(|(p, n)| (ProcId(p), n)),
                                    )
                                })
                                .collect()
                        })
                        .collect(),
                )
                .unwrap()
            })
        })
    })
}

/// Every datum's weighted GOMCDS path and its cost. The literal `O(m²)`
/// DP must pick the same optimal path at the same cost.
fn weighted_paths(trace: &FlatTrace, weight: u64) -> Vec<(Vec<ProcId>, u64)> {
    let grid = trace.grid();
    let cache = CostCache::build_flat(trace);
    let mut ws = Workspace::new();
    (0..trace.num_data())
        .map(|d| {
            let datum = cache.datum(DataId(d as u32));
            let fast =
                gomcds_path_weighted(&grid, datum, Solver::DistanceTransform, weight, &mut ws);
            let naive = gomcds_path_weighted(&grid, datum, Solver::Naive, weight, &mut ws);
            assert_eq!(fast, naive, "datum {d}, move weight {weight}");
            fast
        })
        .collect()
}

fn weighted_gomcds(trace: &FlatTrace, weight: u64) -> Schedule {
    let centers = weighted_paths(trace, weight)
        .into_iter()
        .map(|p| p.0)
        .collect();
    Schedule::new(trace.grid(), centers)
}

/// The whole schedule charged `weight` per movement hop.
fn weighted_cost(s: &Schedule, trace: &FlatTrace, weight: u64) -> CostBreakdown {
    s.evaluate_volumes(trace, &vec![weight; trace.num_data()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn weighted_gomcds_is_optimal_under_its_weight(
        trace in arb_trace(),
        weight in 1u64..20,
    ) {
        let go = weighted_gomcds(&trace, weight);
        let go_cost = weighted_cost(&go, &trace, weight).total();
        for other in [Method::Scds, Method::Lomcds, Method::Gomcds] {
            let s = schedule(other, &trace, MemoryPolicy::Unbounded);
            let cost = weighted_cost(&s, &trace, weight).total();
            prop_assert!(go_cost <= cost, "weight {weight}: {go_cost} > {other} {cost}");
        }
    }

    #[test]
    fn weighted_path_cost_matches_schedule_eval(
        trace in arb_trace(),
        weight in 1u64..20,
    ) {
        let total: u64 = weighted_paths(&trace, weight).iter().map(|p| p.1).sum();
        let s = weighted_gomcds(&trace, weight);
        prop_assert_eq!(weighted_cost(&s, &trace, weight).total(), total);
    }

    #[test]
    fn optimal_cost_is_monotone_in_weight(trace in arb_trace()) {
        let mut prev = 0u64;
        for weight in [1u64, 2, 4, 5, 8, 64] {
            let cost = weighted_cost(&weighted_gomcds(&trace, weight), &trace, weight).total();
            prop_assert!(cost >= prev, "weight {weight}: {cost} < {prev}");
            prev = cost;
        }
    }

    #[test]
    fn huge_weight_freezes_movement(trace in arb_trace()) {
        let big = 1_000_000u64;
        let s = weighted_gomcds(&trace, big);
        // total volume bounds any possible reference saving, so no move
        // can ever pay for itself at this weight
        prop_assert_eq!(s.num_moves(), 0);
    }

    #[test]
    fn volumes_eval_decomposes(trace in arb_trace(), seed in 0u64..1000) {
        let nd = trace.num_data();
        let volumes: Vec<u64> = (0..nd as u64).map(|d| (seed + d) % 7 + 1).collect();
        let s = schedule(Method::Lomcds, &trace, MemoryPolicy::Unbounded);
        let whole = s.evaluate_volumes(&trace, &volumes);
        let mut acc = CostBreakdown::default();
        for d in 0..nd {
            let id = DataId(d as u32);
            acc.add(datum_cost(&trace.grid(), trace.span(id), s.centers_of(id), volumes[d]));
        }
        prop_assert_eq!(whole, acc);
    }

    #[test]
    fn volume_gomcds_beats_unit_gomcds_under_volumes(
        trace in arb_trace(),
        seed in 0u64..1000,
    ) {
        let nd = trace.num_data();
        let volumes: Vec<u64> = (0..nd as u64).map(|d| (seed + 3 * d) % 9 + 1).collect();
        let tuned = gomcds_schedule_volumes(&trace, &volumes)
            .evaluate_volumes(&trace, &volumes)
            .total();
        let unit = schedule(Method::Gomcds, &trace, MemoryPolicy::Unbounded)
            .evaluate_volumes(&trace, &volumes)
            .total();
        prop_assert!(tuned <= unit, "{tuned} > {unit}");
    }

    #[test]
    fn kcopy_costs_non_increasing(trace in arb_trace()) {
        let spec = MemorySpec::unbounded();
        let mut prev = u64::MAX;
        for k in 1..=3 {
            let cost = kcopy_schedule(&trace, spec, k).evaluate(&trace).total();
            prop_assert!(cost <= prev, "k={k}: {cost} > {prev}");
            prev = cost;
        }
        // k = 1 must equal plain GOMCDS
        let k1 = kcopy_schedule(&trace, spec, 1).evaluate(&trace).total();
        let go = schedule(Method::Gomcds, &trace, MemoryPolicy::Unbounded)
            .evaluate(&trace)
            .total();
        prop_assert_eq!(k1, go);
    }
}
