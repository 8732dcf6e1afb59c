//! Exhaustive (not sampled) verification of the paper's theory on small
//! machines: every reference-string pair with bounded support is checked,
//! so within these bounds the theorems are *proved by enumeration*, not
//! just spot-checked. GOMCDS is certified against brute-force enumeration
//! of every center sequence ([`pim_reference::optimal_path_exhaustive`]).

use pim_array::grid::{Grid, ProcId};
use pim_reference::{exhaustive_schedule, optimal_path_exhaustive};
use pim_sched::cost::path_cost;
use pim_sched::gomcds::{gomcds_path, Solver};
use pim_sched::theory::{closest_optimal_pair, theorem2_holds, theorem3_holds};
use pim_sched::{schedule, MemoryPolicy, Method};
use pim_trace::window::{DataRefString, WindowRefs, WindowedTrace};

/// Every reference string on `grid` with at most `max_procs` distinct
/// referencing processors and counts in `1..=max_count`, including the
/// empty string.
fn all_ref_strings(grid: &Grid, max_procs: usize, max_count: u32) -> Vec<WindowRefs> {
    let m = grid.num_procs() as u32;
    let mut out = vec![WindowRefs::new()];
    // single-proc strings
    let mut singles = Vec::new();
    for p in 0..m {
        for c in 1..=max_count {
            singles.push((p, c));
        }
    }
    for &(p, c) in &singles {
        out.push(WindowRefs::from_pairs([(ProcId(p), c)]));
    }
    if max_procs >= 2 {
        for (i, &(p1, c1)) in singles.iter().enumerate() {
            for &(p2, c2) in &singles[i + 1..] {
                if p1 == p2 {
                    continue;
                }
                out.push(WindowRefs::from_pairs([(ProcId(p1), c1), (ProcId(p2), c2)]));
            }
        }
    }
    out
}

#[test]
fn theorem3_exhaustive_on_3x3() {
    // Pair-grouping cannot reduce cost, for every non-empty pair of
    // reference strings with ≤2 referencing processors and counts ≤2 on a
    // 3×3 array.
    let grid = Grid::new(3, 3);
    let strings = all_ref_strings(&grid, 2, 2);
    let non_empty: Vec<&WindowRefs> = strings.iter().filter(|r| !r.is_empty()).collect();
    let mut checked = 0u64;
    for &r0 in &non_empty {
        for &r1 in &non_empty {
            assert!(
                theorem3_holds(&grid, r0, r1),
                "Theorem 3 violated for {r0:?} / {r1:?}"
            );
            checked += 1;
        }
    }
    // 162 non-empty strings → 162² ordered pairs
    assert_eq!(checked, 26_244);
}

#[test]
fn theorem2_exhaustive_on_3x3() {
    // Strict monotonicity along every shortest path between the closest
    // pair of local optimal centers, for every pair with ≤2 referencing
    // processors on a 3×3 array.
    let grid = Grid::new(3, 3);
    let strings = all_ref_strings(&grid, 2, 2);
    let non_empty: Vec<&WindowRefs> = strings.iter().filter(|r| !r.is_empty()).collect();
    for &r0 in &non_empty {
        for &r1 in &non_empty {
            let (c0, c1) = closest_optimal_pair(&grid, r0, r1);
            assert!(
                theorem2_holds(&grid, r0, c0, c1),
                "Theorem 2 violated for {r0:?} toward {r1:?} ({c0} → {c1})"
            );
        }
    }
}

#[test]
fn gomcds_exhaustively_optimal_on_2x2() {
    // Every single-datum trace on a 2×2 array with 3 windows, each window
    // empty or a single reference with count ≤ 2: the DP must match brute
    // force on all of them.
    let grid = Grid::new(2, 2);
    let options = all_ref_strings(&grid, 1, 2); // 1 + 4·2 = 9 options
    assert_eq!(options.len(), 9);
    let mut checked = 0u64;
    for a in &options {
        for b in &options {
            for c in &options {
                let rs = DataRefString::new(vec![a.clone(), b.clone(), c.clone()]);
                let (_, ex) = optimal_path_exhaustive(&grid, &rs);
                let (_, go) = gomcds_path(&grid, &rs, Solver::DistanceTransform);
                assert_eq!(go, ex, "DP suboptimal on {a:?}/{b:?}/{c:?}");
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 729);
}

#[test]
fn scds_center_is_exhaustively_the_1_median_on_3x3() {
    // The separable cost-table center equals the argmin of a brute-force
    // scan for every reference string with ≤2 procs on a 3×3 array.
    let grid = Grid::new(3, 3);
    for refs in all_ref_strings(&grid, 2, 2) {
        let (fast, fast_cost) = pim_sched::cost::optimal_center(&grid, &refs);
        let mut best = (u64::MAX, ProcId(0));
        for p in grid.procs() {
            let c = pim_sched::cost::cost_at(&grid, &refs, p);
            if c < best.0 {
                best = (c, p);
            }
        }
        assert_eq!(fast_cost, best.0, "{refs:?}");
        assert_eq!(
            pim_sched::cost::cost_at(&grid, &refs, fast),
            best.0,
            "{refs:?}"
        );
    }
}

#[test]
fn gomcds_matches_exhaustive_on_small_grids() {
    let grid = Grid::new(3, 2);
    let cases: Vec<Vec<WindowRefs>> = vec![
        vec![
            WindowRefs::from_pairs([(grid.proc_xy(0, 0), 2)]),
            WindowRefs::from_pairs([(grid.proc_xy(2, 1), 1)]),
            WindowRefs::from_pairs([(grid.proc_xy(0, 1), 3)]),
        ],
        vec![
            WindowRefs::from_pairs([(grid.proc_xy(1, 0), 1), (grid.proc_xy(2, 0), 2)]),
            WindowRefs::new(),
            WindowRefs::from_pairs([(grid.proc_xy(0, 0), 1)]),
            WindowRefs::from_pairs([(grid.proc_xy(2, 1), 4)]),
        ],
        vec![WindowRefs::new(), WindowRefs::new()],
    ];
    for windows in cases {
        let rs = DataRefString::new(windows);
        let (ex_path, ex_cost) = optimal_path_exhaustive(&grid, &rs);
        let (go_path, go_cost) = gomcds_path(&grid, &rs, Solver::DistanceTransform);
        assert_eq!(go_cost, ex_cost, "cost mismatch");
        assert_eq!(path_cost(&grid, &rs, &go_path), go_cost);
        assert_eq!(path_cost(&grid, &rs, &ex_path), ex_cost);
    }
}

#[test]
fn exhaustive_schedule_matches_gomcds_totals() {
    let grid = Grid::new(2, 2);
    let trace = WindowedTrace::from_parts(
        grid,
        vec![
            vec![
                WindowRefs::from_pairs([(grid.proc_xy(0, 0), 1)]),
                WindowRefs::from_pairs([(grid.proc_xy(1, 1), 2)]),
            ],
            vec![
                WindowRefs::from_pairs([(grid.proc_xy(1, 0), 3)]),
                WindowRefs::from_pairs([(grid.proc_xy(0, 1), 1)]),
            ],
        ],
    );
    let ex = exhaustive_schedule(&trace).evaluate(&trace).total();
    let go = schedule(Method::Gomcds, &trace, MemoryPolicy::Unbounded)
        .evaluate(&trace)
        .total();
    assert_eq!(ex, go);
}

#[test]
#[should_panic(expected = "infeasible")]
fn refuses_explosive_instances() {
    let grid = Grid::new(8, 8);
    let rs = DataRefString::new(vec![WindowRefs::new(); 12]);
    optimal_path_exhaustive(&grid, &rs);
}
