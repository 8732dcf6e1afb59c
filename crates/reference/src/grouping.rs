//! The literal forms of Algorithm 3 grouping and of the optimal grouping
//! DP, which `pim_sched::grouping`'s cached, incremental versions are
//! pinned bit-identical against.

use crate::schedulers::resolve_gaps;
use crate::{layered_path, windows_of};
use core::ops::Range;
use pim_array::grid::{Grid, ProcId};
use pim_sched::cost::{cost_at, optimal_center};
use pim_sched::grouping::GroupMethod;
use pim_trace::flat::FlatView;
use pim_trace::ids::DataId;
use pim_trace::window::WindowRefs;

/// The literal Algorithm 3 loop over datum `d` of `trace`: re-assemble and
/// fully re-cost both candidate partitions at every step — `O(n)` group
/// evaluations per extension decision, `O(n²)` overall. Returns the
/// grouping as consecutive half-open ranges partitioning
/// `0..num_windows`.
pub fn greedy_grouping<V: FlatView + ?Sized>(
    trace: &V,
    d: DataId,
    method: GroupMethod,
) -> Vec<Range<usize>> {
    greedy_windows(&trace.grid(), &windows_of(trace, d), method)
}

/// [`greedy_grouping`] over one datum's per-window lists.
pub(crate) fn greedy_windows(
    grid: &Grid,
    rs: &[WindowRefs],
    method: GroupMethod,
) -> Vec<Range<usize>> {
    let n = rs.len();
    let mut confirmed: Vec<Range<usize>> = Vec::new();
    let mut start = 0usize;
    for j in 1..n {
        // T: current group start..j plus remaining singletons.
        // TNEW: current group extended to start..j+1 plus remaining
        // singletons. Keep the extension when not worse.
        let current = assemble(&confirmed, start..j, j, n);
        let extended = assemble(&confirmed, start..j + 1, j + 1, n);
        let keep = cost_of_grouping(grid, rs, &extended, method)
            <= cost_of_grouping(grid, rs, &current, method);
        if !keep {
            confirmed.push(start..j);
            start = j;
        }
    }
    confirmed.push(start..n);
    confirmed
}

/// `confirmed ++ [current] ++ singletons rest..n`.
fn assemble(
    confirmed: &[Range<usize>],
    current: Range<usize>,
    rest: usize,
    n: usize,
) -> Vec<Range<usize>> {
    let mut v = Vec::with_capacity(confirmed.len() + 1 + (n - rest));
    v.extend(confirmed.iter().cloned());
    v.push(current);
    v.extend((rest..n).map(|i| i..i + 1));
    v
}

/// The exact minimum-cost grouping of datum `d` of `trace` for the
/// [`GroupMethod::LocalCenters`] model and its cost: the original
/// `O(t³)` DP over group boundaries of the `t` referenced windows, with
/// incremental reference-list merging. Empty windows attach to the
/// preceding group.
pub fn optimal_grouping<V: FlatView + ?Sized>(trace: &V, d: DataId) -> (Vec<Range<usize>>, u64) {
    let grid = &trace.grid();
    let rs = windows_of(trace, d);
    let n = rs.len();
    let refd: Vec<usize> = (0..n).filter(|&w| !rs[w].is_empty()).collect();
    let t = refd.len();
    if t == 0 {
        #[allow(clippy::single_range_in_vec_init)] // one group covering 0..n is the intent
        return (vec![0..n], 0);
    }

    // Merged cost and center for every run refd[a]..=refd[b].
    let mut centers = vec![vec![ProcId(0); t]; t];
    let mut costs = vec![vec![0u64; t]; t];
    for a in 0..t {
        let mut merged = WindowRefs::new();
        for b in a..t {
            merged.merge(&rs[refd[b]]);
            let (c, cost) = optimal_center(grid, &merged);
            centers[a][b] = c;
            costs[a][b] = cost;
        }
    }

    const UNSET: u64 = u64::MAX;
    // dp[a][b]: best cost covering referenced windows 0..=b, last run a..=b.
    let mut dp = vec![vec![UNSET; t]; t];
    let mut parent: Vec<Vec<Option<usize>>> = vec![vec![None; t]; t];
    for b in 0..t {
        for a in 0..=b {
            if a == 0 {
                dp[a][b] = costs[a][b];
                continue;
            }
            let mut best = UNSET;
            let mut best_k = None;
            for k in 0..a {
                if dp[k][a - 1] == UNSET {
                    continue;
                }
                let mv = grid.dist(centers[k][a - 1], centers[a][b]);
                let cand = dp[k][a - 1] + costs[a][b] + mv;
                if cand < best {
                    best = cand;
                    best_k = Some(k);
                }
            }
            dp[a][b] = best;
            parent[a][b] = best_k;
        }
    }

    let (mut a, mut best) = (0usize, UNSET);
    for cand in 0..t {
        if dp[cand][t - 1] < best {
            best = dp[cand][t - 1];
            a = cand;
        }
    }

    // Reconstruct runs in referenced-index space.
    let mut runs: Vec<(usize, usize)> = Vec::new(); // inclusive (a, b)
    let mut b = t - 1;
    loop {
        runs.push((a, b));
        match parent[a][b] {
            Some(k) => {
                b = a - 1;
                a = k;
            }
            None => break,
        }
    }
    runs.reverse();

    (attach_empty_windows(&runs, &refd, n), best)
}

/// Map runs in referenced-index space back to full-window ranges: each
/// group starts at the previous group's end; empty windows attach to the
/// preceding group (leading empties to the first group), adding no cost.
fn attach_empty_windows(runs: &[(usize, usize)], refd: &[usize], n: usize) -> Vec<Range<usize>> {
    let mut groups = Vec::with_capacity(runs.len());
    let mut start = 0usize;
    for (i, &(_, rb)) in runs.iter().enumerate() {
        let end = if i + 1 < runs.len() {
            refd[runs[i + 1].0]
        } else {
            n
        };
        debug_assert!(refd[rb] < end);
        groups.push(start..end);
        start = end;
    }
    groups
}

/// The local-center sequence for a grouping: each group's optimal center
/// of merged refs; empty groups keep the previous group's center.
pub(crate) fn local_group_centers(
    grid: &Grid,
    rs: &[WindowRefs],
    groups: &[Range<usize>],
) -> Vec<ProcId> {
    let centers: Vec<Option<ProcId>> = groups
        .iter()
        .map(|g| {
            let merged = WindowRefs::merged(&rs[g.clone()]);
            (!merged.is_empty()).then(|| optimal_center(grid, &merged).0)
        })
        .collect();
    resolve_gaps(centers)
}

/// The paper's `COST(T)` of a grouping, re-merging every group's
/// reference lists.
fn cost_of_grouping(
    grid: &Grid,
    rs: &[WindowRefs],
    groups: &[Range<usize>],
    method: GroupMethod,
) -> u64 {
    match method {
        GroupMethod::LocalCenters => {
            let centers = local_group_centers(grid, rs, groups);
            let mut total = 0u64;
            for (g, &c) in groups.iter().zip(&centers) {
                total += cost_at(grid, &WindowRefs::merged(&rs[g.clone()]), c);
            }
            for pair in centers.windows(2) {
                total += grid.dist(pair[0], pair[1]);
            }
            total
        }
        GroupMethod::GomcdsCenters => {
            let regrouped: Vec<WindowRefs> = groups
                .iter()
                .map(|g| WindowRefs::merged(&rs[g.clone()]))
                .collect();
            layered_path(grid, &regrouped, None)
                .expect("unconstrained path always feasible")
                .1
        }
    }
}
