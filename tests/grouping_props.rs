//! Property tests for the grouping machinery and the paper's theory
//! (Lemma 1, Theorems 2 and 3).

use pim_array::grid::{Grid, ProcId};
use pim_array::line::Line;
use pim_sched::grouping::{
    cost_of_grouping, greedy_grouping, greedy_grouping_cached, optimal_grouping,
    optimal_grouping_cached, GroupMethod,
};
use pim_sched::theory::{closest_optimal_pair, lemma1_holds, theorem2_holds, theorem3_holds};
use pim_sched::{DatumCostCache, Workspace};
use pim_trace::window::{DataRefString, WindowRefs};
use proptest::prelude::*;

fn arb_grid() -> impl Strategy<Value = Grid> {
    (2u32..=5, 2u32..=5).prop_map(|(w, h)| Grid::new(w, h))
}

fn arb_refs(grid: Grid, allow_empty: bool) -> impl Strategy<Value = WindowRefs> {
    let m = grid.num_procs() as u32;
    let lo = if allow_empty { 0 } else { 1 };
    proptest::collection::vec((0..m, 1u32..5), lo..5).prop_map(move |pairs| {
        WindowRefs::from_pairs(pairs.into_iter().map(|(p, n)| (ProcId(p), n)))
    })
}

fn arb_ref_string() -> impl Strategy<Value = (Grid, DataRefString)> {
    arb_grid().prop_flat_map(|grid| {
        proptest::collection::vec(arb_refs(grid, true), 1..8)
            .prop_map(move |ws| (grid, DataRefString::new(ws)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn greedy_groups_partition_and_never_regress((grid, rs) in arb_ref_string()) {
        for method in [GroupMethod::LocalCenters, GroupMethod::GomcdsCenters] {
            let groups = greedy_grouping(&grid, &rs, method);
            // partition structure
            let mut expect = 0usize;
            for g in &groups {
                prop_assert_eq!(g.start, expect);
                prop_assert!(g.end > g.start);
                expect = g.end;
            }
            prop_assert_eq!(expect, rs.num_windows());
            // never worse than no grouping
            let singles: Vec<_> = (0..rs.num_windows()).map(|i| i..i + 1).collect();
            prop_assert!(
                cost_of_grouping(&grid, &rs, &groups, method)
                    <= cost_of_grouping(&grid, &rs, &singles, method)
            );
        }
    }

    #[test]
    fn optimal_grouping_is_a_lower_bound((grid, rs) in arb_ref_string()) {
        let greedy = greedy_grouping(&grid, &rs, GroupMethod::LocalCenters);
        let greedy_cost = cost_of_grouping(&grid, &rs, &greedy, GroupMethod::LocalCenters);
        let (opt_groups, opt_cost) = optimal_grouping(&grid, &rs);
        prop_assert!(opt_cost <= greedy_cost, "optimal {opt_cost} > greedy {greedy_cost}");
        prop_assert_eq!(
            cost_of_grouping(&grid, &rs, &opt_groups, GroupMethod::LocalCenters),
            opt_cost
        );
        // exhaustively verify optimality on short strings
        if rs.num_windows() <= 5 {
            let n = rs.num_windows();
            for mask in 0u32..(1 << (n - 1)) {
                let mut groups = Vec::new();
                let mut start = 0;
                for i in 0..n - 1 {
                    if mask & (1 << i) != 0 {
                        groups.push(start..i + 1);
                        start = i + 1;
                    }
                }
                groups.push(start..n);
                let c = cost_of_grouping(&grid, &rs, &groups, GroupMethod::LocalCenters);
                prop_assert!(
                    opt_cost <= c,
                    "optimal {opt_cost} beaten by {groups:?} at {c}"
                );
            }
        }
    }

    /// The incremental O(n)-evaluation greedy is pinned bit-identical to
    /// the literal O(n²) re-evaluation oracle for both placement methods:
    /// same cut positions, not merely the same cost.
    #[test]
    fn incremental_greedy_matches_oracle((grid, rs) in arb_ref_string()) {
        let cache = DatumCostCache::build(&grid, &rs);
        let mut ws = Workspace::new();
        for method in [GroupMethod::LocalCenters, GroupMethod::GomcdsCenters] {
            let oracle = pim_reference::greedy_grouping(&grid, &rs, method);
            let incremental = greedy_grouping_cached(&grid, &cache, method, &mut ws);
            prop_assert_eq!(
                &incremental, &oracle,
                "incremental greedy diverged from oracle under {:?}", method
            );
        }
    }

    /// The O(t²) grouping DP is pinned bit-identical to the O(t³) oracle:
    /// same partition (lowest-index tie-breaking preserved) and same cost.
    #[test]
    fn quadratic_grouping_dp_matches_oracle((grid, rs) in arb_ref_string()) {
        let cache = DatumCostCache::build(&grid, &rs);
        let mut ws = Workspace::new();
        let (oracle_groups, oracle_cost) = pim_reference::optimal_grouping(&grid, &rs);
        let (fast_groups, fast_cost) = optimal_grouping_cached(&grid, &cache, &mut ws);
        prop_assert_eq!(fast_cost, oracle_cost);
        prop_assert_eq!(&fast_groups, &oracle_groups, "O(t^2) DP picked a different partition");
    }

    #[test]
    fn theorem3_pair_grouping_never_gains(
        grid in arb_grid(),
        seed in 0u64..10_000,
    ) {
        // two non-empty windows from a seeded generator
        let m = grid.num_procs() as u64;
        let mk = |s: u64| {
            let k = s % 3 + 1;
            WindowRefs::from_pairs((0..k).map(|i| {
                (ProcId(((s.wrapping_mul(31).wrapping_add(i * 7)) % m) as u32),
                 ((s >> (i + 1)) % 4 + 1) as u32)
            }))
        };
        let r0 = mk(seed);
        let r1 = mk(seed.wrapping_mul(97).wrapping_add(13));
        prop_assert!(theorem3_holds(&grid, &r0, &r1));
    }

    #[test]
    fn theorem2_monotone_from_closest_pair(
        grid in arb_grid(),
        seed in 0u64..10_000,
    ) {
        let m = grid.num_procs() as u64;
        let mk = |s: u64| {
            let k = s % 3 + 1;
            WindowRefs::from_pairs((0..k).map(|i| {
                (ProcId(((s.wrapping_mul(17).wrapping_add(i * 11)) % m) as u32),
                 ((s >> i) % 3 + 1) as u32)
            }))
        };
        let r0 = mk(seed);
        let r1 = mk(seed.wrapping_mul(131).wrapping_add(7));
        let (c0, c1) = closest_optimal_pair(&grid, &r0, &r1);
        prop_assert!(
            theorem2_holds(&grid, &r0, c0, c1),
            "not monotone from {c0} to {c1}"
        );
    }

    #[test]
    fn lemma1_on_random_lines(
        len in 2u32..20,
        seed in 0u64..10_000,
    ) {
        let line = Line::new(len);
        let k = seed % 4 + 1;
        let refs: Vec<(u32, u32)> = (0..k)
            .map(|i| {
                ((seed.wrapping_mul(13).wrapping_add(i * 5) % len as u64) as u32,
                 ((seed >> i) % 4 + 1) as u32)
            })
            .collect();
        let target = (seed.wrapping_mul(29) % len as u64) as u32;
        let centers = line.optimal_centers(&refs);
        // pick the optimal center closest to the target
        let c0 = *centers
            .iter()
            .min_by_key(|&&c| (c.abs_diff(target), c))
            .unwrap();
        prop_assert!(
            lemma1_holds(&line, &refs, c0, target),
            "cost not strictly monotone from {c0} toward {target} (refs {refs:?})"
        );
    }
}
