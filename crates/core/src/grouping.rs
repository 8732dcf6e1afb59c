//! Execution-window grouping (paper Section 4, Algorithm 3).
//!
//! If a datum's references barely change across consecutive windows, moving
//! it per window wastes traffic; merging those windows and re-centering
//! once can reduce total cost. Algorithm 3 is a greedy scan: keep extending
//! the current group with the next window as long as the total cost of the
//! resulting window set (reference traffic at each group's center plus
//! movement between group centers) does not increase; otherwise cut and
//! start a new group.
//!
//! The paper's Theorem 3 bounds what grouping can do — merging *two*
//! windows whose local optimal centers are the closest pair cannot reduce
//! cost — so the wins come from longer runs and from interaction with
//! movement cost; see [`crate::theory`].
//!
//! The greedy's extension decisions are evaluated **incrementally**: both
//! candidate partitions at a step share their confirmed prefix and their
//! singleton suffix, so [`greedy_grouping_cached`] precomputes the suffix
//! once, carries the prefix forward, and pays one cache range query per
//! step — `O(n)` group evaluations total instead of the literal
//! re-costing's `O(n²)` (`pim-reference`'s `greedy_grouping`).
//!
//! Besides the greedy (the paper's algorithm), [`optimal_grouping`] solves
//! the same problem exactly by dynamic programming over group boundaries —
//! `O(t²)` transitions via a per-boundary distance transform
//! ([`optimal_grouping_cached`]; the literal `O(t³)` scan is
//! `pim-reference`'s `optimal_grouping`) — used by ablation E to measure
//! the greedy's optimality gap.

use crate::cache::{CostCache, DatumCostCache};
use crate::cost::{cost_at, optimal_center, INF};
use crate::error::{ensure_feasible, exhausted, SchedError};
use crate::gomcds::{gomcds_path, Solver};
use crate::schedule::Schedule;
use crate::workspace::Workspace;
use core::ops::Range;
use pim_array::grid::{Grid, ProcId};
use pim_array::memory::{MemoryMap, MemorySpec};
use pim_par::Pool;
use pim_trace::ids::DataId;
use pim_trace::window::{DataRefString, WindowRefs, WindowedTrace};

/// How centers are computed for a grouped window set when costing a
/// grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupMethod {
    /// Each group's center is the local optimal center of its merged
    /// references (what Table 2 of the paper uses: "Algorithm 3 assuming
    /// using LOMCDS to compute centers").
    LocalCenters,
    /// Centers across groups chosen by the GOMCDS shortest path over the
    /// grouped windows.
    GomcdsCenters,
}

/// The local-center sequence for a grouping: each group's optimal center of
/// merged refs; empty groups keep the previous group's center (leading
/// empties take the first known center; all-empty defaults to `P0`).
pub fn local_group_centers(
    grid: &Grid,
    rs: &DataRefString,
    groups: &[Range<usize>],
) -> Vec<ProcId> {
    let centers: Vec<Option<ProcId>> = groups
        .iter()
        .map(|g| {
            let merged = rs.merged_range(g.start, g.end);
            (!merged.is_empty()).then(|| optimal_center(grid, &merged).0)
        })
        .collect();
    crate::lomcds::resolve_gaps(centers)
}

/// [`local_group_centers`] served from the datum's cost cache: each group's
/// merged table comes from prefix-sum range queries instead of re-merging
/// reference lists.
pub fn local_group_centers_cached(
    cache: &DatumCostCache,
    groups: &[Range<usize>],
    ws: &mut Workspace,
) -> Vec<ProcId> {
    let centers: Vec<Option<ProcId>> = groups
        .iter()
        .map(|g| {
            (!cache.range_is_empty(g.start, g.end)).then(|| {
                cache
                    .optimal_center_range(g.start, g.end, &mut ws.axes, &mut ws.table)
                    .0
            })
        })
        .collect();
    crate::lomcds::resolve_gaps(centers)
}

/// Total cost (reference + movement) of a grouping under a method,
/// unconstrained by memory. This is the paper's `COST(T)`.
pub fn cost_of_grouping(
    grid: &Grid,
    rs: &DataRefString,
    groups: &[Range<usize>],
    group_method: GroupMethod,
) -> u64 {
    match group_method {
        GroupMethod::LocalCenters => {
            let centers = local_group_centers(grid, rs, groups);
            let mut total = 0u64;
            for (g, &c) in groups.iter().zip(&centers) {
                let merged = rs.merged_range(g.start, g.end);
                total += cost_at(grid, &merged, c);
            }
            for pair in centers.windows(2) {
                total += grid.dist(pair[0], pair[1]);
            }
            total
        }
        GroupMethod::GomcdsCenters => {
            let regrouped = rs.regrouped(groups);
            gomcds_path(grid, &regrouped, Solver::DistanceTransform).1
        }
    }
}

/// Paper Algorithm 3: greedy grouping of one datum's windows.
///
/// Returns the grouping as consecutive half-open ranges partitioning
/// `0..num_windows`.
///
/// ```
/// use pim_array::grid::Grid;
/// use pim_trace::window::{DataRefString, WindowRefs};
/// use pim_sched::grouping::{greedy_grouping, GroupMethod};
///
/// let grid = Grid::new(4, 4);
/// // two identical windows near (1,1), then a far hotspot
/// let near = || WindowRefs::from_pairs([(grid.proc_xy(1, 1), 2)]);
/// let rs = DataRefString::new(vec![
///     near(), near(),
///     WindowRefs::from_pairs([(grid.proc_xy(3, 3), 9)]),
/// ]);
/// let groups = greedy_grouping(&grid, &rs, GroupMethod::LocalCenters);
/// assert_eq!(groups, vec![0..2, 2..3]); // merges the twins, keeps the hotspot apart
/// ```
pub fn greedy_grouping(grid: &Grid, rs: &DataRefString, method: GroupMethod) -> Vec<Range<usize>> {
    let cache = DatumCostCache::build(grid, rs);
    let mut ws = Workspace::new();
    greedy_grouping_cached(grid, &cache, method, &mut ws)
}

/// [`greedy_grouping`] with each extension decision evaluated
/// incrementally from the datum's cost cache — `O(1)` group evaluations
/// (one cache range query) per step instead of the literal loop's `O(n)`
/// full re-costings, and no per-step partition `Vec`s.
///
/// Both candidate partitions at step `j` share all three parts of their
/// cost: the *confirmed prefix* (carried forward as a running sum — under
/// [`GroupMethod::GomcdsCenters`], as the relaxed DP row after the last
/// confirmed group), the *current group* (carried from the previous step;
/// the extension needs exactly one new range query), and the *singleton
/// tail* `j..n`, precomputed once as a backward suffix array (`tail[j]` for
/// local centers, a suffix DP row per window for GOMCDS centers). Summing
/// the three parts reproduces the literal loop's full-partition cost
/// exactly — same `u64` arithmetic, no approximation — so every `≤`
/// comparison, and therefore the grouping, is bit-identical to
/// `pim-reference`'s `greedy_grouping` (property-tested in
/// `tests/grouping_props.rs`).
pub fn greedy_grouping_cached(
    grid: &Grid,
    cache: &DatumCostCache,
    method: GroupMethod,
    ws: &mut Workspace,
) -> Vec<Range<usize>> {
    match method {
        GroupMethod::LocalCenters => greedy_local_incremental(grid, cache, ws),
        GroupMethod::GomcdsCenters => greedy_gomcds_incremental(grid, cache, ws),
    }
}

/// Movement link from the last confirmed non-empty center (if any) into a
/// group centered at `c`.
fn link(grid: &Grid, last: Option<ProcId>, c: ProcId) -> u64 {
    last.map_or(0, |l| grid.dist(l, c))
}

/// [`GroupMethod::LocalCenters`] cost of "group (center `c`, refcost `o`,
/// possibly empty) followed by singleton windows `t..n`", given the last
/// confirmed non-empty center. Empty windows and groups contribute nothing
/// under the carry-forward center rule, so the cost decomposes into
/// non-empty groups' optima plus links between consecutive non-empty
/// centers — which is what `tail`/`next_ref`/`win_centers` precompute for
/// the singleton suffix.
fn local_group_and_tail(
    grid: &Grid,
    ws: &Workspace,
    last: Option<ProcId>,
    nonempty: bool,
    c: ProcId,
    o: u64,
    t: usize,
) -> u64 {
    let n = ws.tail.len() - 1;
    let nn = ws.next_ref[t]; // first referenced singleton in the tail
    if nonempty {
        let bridge = if nn < n {
            grid.dist(c, ws.win_centers[nn])
        } else {
            0
        };
        link(grid, last, c) + o + bridge + ws.tail[t]
    } else {
        let bridge = match (last, nn < n) {
            (Some(l), true) => grid.dist(l, ws.win_centers[nn]),
            _ => 0,
        };
        bridge + ws.tail[t]
    }
}

fn greedy_local_incremental(
    grid: &Grid,
    cache: &DatumCostCache,
    ws: &mut Workspace,
) -> Vec<Range<usize>> {
    let n = cache.num_windows();
    // Per-window singleton centers/costs and the referenced-window index.
    ws.win_centers.clear();
    ws.win_centers.resize(n, ProcId(0));
    ws.win_costs.clear();
    ws.win_costs.resize(n, 0);
    ws.next_ref.clear();
    ws.next_ref.resize(n + 1, n);
    for w in (0..n).rev() {
        if cache.range_is_empty(w, w + 1) {
            ws.next_ref[w] = ws.next_ref[w + 1];
        } else {
            let (c, cost) = cache.optimal_center_range(w, w + 1, &mut ws.axes, &mut ws.table);
            ws.win_centers[w] = c;
            ws.win_costs[w] = cost;
            ws.next_ref[w] = w;
        }
    }
    // tail[j] = cost of windows j..n as singleton groups.
    ws.tail.clear();
    ws.tail.resize(n + 1, 0);
    for j in (0..n).rev() {
        ws.tail[j] = if ws.next_ref[j] != j {
            ws.tail[j + 1]
        } else {
            let nn = ws.next_ref[j + 1];
            let hop = if nn < n {
                grid.dist(ws.win_centers[j], ws.win_centers[nn])
            } else {
                0
            };
            ws.win_costs[j] + hop + ws.tail[j + 1]
        };
    }

    let mut confirmed: Vec<Range<usize>> = Vec::new();
    let mut start = 0usize;
    let mut prefix_cost = 0u64; // confirmed groups incl. links between them
    let mut last: Option<ProcId> = None; // last confirmed non-empty center
    let mut cur_nonempty = ws.next_ref[0] == 0;
    let mut cur_c = ws.win_centers.first().copied().unwrap_or(ProcId(0));
    let mut cur_o = ws.win_costs.first().copied().unwrap_or(0);
    for j in 1..n {
        let cur_total =
            prefix_cost + local_group_and_tail(grid, ws, last, cur_nonempty, cur_c, cur_o, j);
        let (ext_nonempty, ext_c, ext_o) = if cache.range_is_empty(start, j + 1) {
            (false, ProcId(0), 0)
        } else {
            let (c, o) = cache.optimal_center_range(start, j + 1, &mut ws.axes, &mut ws.table);
            (true, c, o)
        };
        let ext_total =
            prefix_cost + local_group_and_tail(grid, ws, last, ext_nonempty, ext_c, ext_o, j + 1);
        if ext_total <= cur_total {
            cur_nonempty = ext_nonempty;
            cur_c = ext_c;
            cur_o = ext_o;
        } else {
            confirmed.push(start..j);
            if cur_nonempty {
                prefix_cost += link(grid, last, cur_c) + cur_o;
                last = Some(cur_c);
            }
            start = j;
            cur_nonempty = ws.next_ref[j] == j;
            cur_c = ws.win_centers[j];
            cur_o = ws.win_costs[j];
        }
    }
    confirmed.push(start..n);
    confirmed
}

/// `min_k (fwd[k] + suffix[k])` — joining the forward DP frontier to the
/// precomputed suffix DP gives the exact full-partition GOMCDS cost.
fn join_min(fwd: &[u64], suffix: &[u64]) -> u64 {
    fwd.iter()
        .zip(suffix)
        .map(|(&a, &b)| a + b)
        .min()
        .expect("non-empty grid")
}

fn greedy_gomcds_incremental(
    grid: &Grid,
    cache: &DatumCostCache,
    ws: &mut Workspace,
) -> Vec<Range<usize>> {
    let n = cache.num_windows();
    let m = grid.num_procs();
    // Backward suffix DP over singleton windows: suffix_dp[j][k] = cheapest
    // way to serve windows j..n given the datum sits at k entering window
    // j, i.e. relax(node_j + suffix_{j+1}) — the mirror image of the
    // forward layered DP in crate::gomcds (the L1 metric is symmetric).
    ws.suffix_dp.clear();
    ws.suffix_dp.resize((n + 1) * m, 0);
    for j in (0..n).rev() {
        cache.window_table(j, &mut ws.axes, &mut ws.table);
        ws.fwd_ext.clear();
        ws.fwd_ext
            .extend((0..m).map(|k| ws.table[k] + ws.suffix_dp[(j + 1) * m + k]));
        crate::dt::l1_relax(grid, &ws.fwd_ext, &mut ws.relaxed);
        ws.suffix_dp[j * m..(j + 1) * m].copy_from_slice(&ws.relaxed);
    }

    // Forward frontier: fwd = DP row of the current group (node costs of
    // start..j, plus the relaxed row after the confirmed groups once any
    // exist). Splitting the layered DP at the current group's layer —
    // min_k (fwd[k] + suffix[j][k]) — reproduces the full shortest-path
    // cost of "confirmed ++ current ++ singletons" exactly.
    let mut confirmed: Vec<Range<usize>> = Vec::new();
    let mut start = 0usize;
    let mut have_prefix = false;
    cache.range_table(0, 1, &mut ws.axes, &mut ws.fwd);
    for j in 1..n {
        let cur_total = join_min(&ws.fwd, &ws.suffix_dp[j * m..(j + 1) * m]);
        cache.range_table(start, j + 1, &mut ws.axes, &mut ws.table);
        ws.fwd_ext.clear();
        if have_prefix {
            ws.fwd_ext
                .extend((0..m).map(|k| ws.table[k] + ws.relaxed_prefix[k]));
        } else {
            ws.fwd_ext.extend_from_slice(&ws.table);
        }
        let ext_total = join_min(&ws.fwd_ext, &ws.suffix_dp[(j + 1) * m..(j + 2) * m]);
        if ext_total <= cur_total {
            core::mem::swap(&mut ws.fwd, &mut ws.fwd_ext);
        } else {
            confirmed.push(start..j);
            crate::dt::l1_relax(grid, &ws.fwd, &mut ws.relaxed_prefix);
            have_prefix = true;
            start = j;
            cache.window_table(j, &mut ws.axes, &mut ws.table);
            ws.fwd.clear();
            ws.fwd
                .extend((0..m).map(|k| ws.table[k] + ws.relaxed_prefix[k]));
        }
    }
    confirmed.push(start..n);
    confirmed
}

/// Exact minimum-cost grouping for the [`GroupMethod::LocalCenters`] model
/// via DP over group boundaries.
///
/// Key observation: a window with no references contributes nothing to any
/// group's merged reference string, and under the carry-forward center rule
/// it never induces movement on its own. The cost of a grouping therefore
/// depends only on how the *referenced* windows are partitioned into
/// consecutive runs. The DP runs over referenced windows (`t` of them);
/// empty windows are attached to the preceding group afterwards.
pub fn optimal_grouping(grid: &Grid, rs: &DataRefString) -> (Vec<Range<usize>>, u64) {
    let cache = DatumCostCache::build(grid, rs);
    let mut ws = Workspace::new();
    optimal_grouping_cached(grid, &cache, &mut ws)
}

/// [`optimal_grouping`] in `O(t²)` DP transitions instead of the literal
/// `O(t³)` triple loop (`pim-reference`'s `optimal_grouping`).
///
/// The literal inner minimum `min_k dp[k][a−1] + dist(centers[k][a−1], ·)`
/// depends on `k` only through the *center* of run `k..=a−1` — so for each
/// boundary `a` all `k` are projected onto the grid once
/// (`g_a[p] = min dp[k][a−1]` over runs centered at `p`) and one L1
/// distance transform of `g_a` answers the minimum for *every* `(a, b)`
/// cell at once: `dp[a][b] = costs[a][b] + relax(g_a)[centers[a][b]]`.
/// That is `O(t·m)` relax work plus `O(t²)` fills; group costs come from
/// the cache's prefix-served range queries instead of incremental
/// re-merging. The relax computes the same exact `u64` minima the scan
/// did, and parents are re-derived by the scan's own lowest-`k` rule, so
/// grouping and cost are bit-identical to the triple loop (property-tested
/// in `tests/grouping_props.rs`).
pub fn optimal_grouping_cached(
    grid: &Grid,
    cache: &DatumCostCache,
    ws: &mut Workspace,
) -> (Vec<Range<usize>>, u64) {
    let n = cache.num_windows();
    let refd: Vec<usize> = (0..n)
        .filter(|&w| !cache.range_is_empty(w, w + 1))
        .collect();
    let t = refd.len();
    if t == 0 {
        #[allow(clippy::single_range_in_vec_init)] // one group covering 0..n is the intent
        return (vec![0..n], 0);
    }
    let m = grid.num_procs();

    // Merged cost and center for every run refd[a]..=refd[b] (flattened
    // a·t+b). Interior empty windows contribute nothing to the merge, so
    // querying refd[a]..refd[b]+1 is exact.
    let mut centers = vec![ProcId(0); t * t];
    let mut costs = vec![0u64; t * t];
    for a in 0..t {
        for b in a..t {
            let (c, cost) =
                cache.optimal_center_range(refd[a], refd[b] + 1, &mut ws.axes, &mut ws.table);
            centers[a * t + b] = c;
            costs[a * t + b] = cost;
        }
    }

    // dp[a][b]: best cost covering referenced windows 0..=b, last run a..=b.
    let mut dp = vec![0u64; t * t];
    dp[..t].copy_from_slice(&costs[..t]); // a = 0: no predecessor
    let mut proj = vec![INF; m];
    let mut relaxed = Vec::new();
    for a in 1..t {
        // Project every predecessor run k..=a−1 onto its center.
        proj.iter_mut().for_each(|v| *v = INF);
        for k in 0..a {
            let p = centers[k * t + a - 1].index();
            let v = dp[k * t + a - 1];
            if v < proj[p] {
                proj[p] = v;
            }
        }
        crate::dt::l1_relax(grid, &proj, &mut relaxed);
        for b in a..t {
            dp[a * t + b] = costs[a * t + b] + relaxed[centers[a * t + b].index()];
        }
    }

    // Lowest-index argmin over the last column, as the triple loop scans.
    let (mut a, mut best) = (0usize, dp[t - 1]);
    for cand in 1..t {
        if dp[cand * t + t - 1] < best {
            best = dp[cand * t + t - 1];
            a = cand;
        }
    }

    // Reconstruct runs along the optimal path only: the triple loop's parent of
    // cell (a, b) is the lowest k whose transition achieves dp[a][b], i.e.
    // the first k with dp[k][a−1] + dist == dp[a][b] − costs[a][b].
    let mut runs: Vec<(usize, usize)> = Vec::new(); // inclusive (a, b)
    let mut b = t - 1;
    loop {
        runs.push((a, b));
        if a == 0 {
            break;
        }
        let need = dp[a * t + b] - costs[a * t + b];
        let cab = centers[a * t + b];
        let k = (0..a)
            .find(|&k| dp[k * t + a - 1] + grid.dist(centers[k * t + a - 1], cab) == need)
            .expect("dp backtrack must find a predecessor");
        b = a - 1;
        a = k;
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

/// Schedule the whole trace with greedy grouping (the paper's Table 2
/// pipeline): per datum, group windows with Algorithm 3 costed by the
/// `decide` method, then place each group's center with the `place` method
/// under the memory constraint. The paper's Table 2 runs Algorithm 3
/// "assuming using LOMCDS to compute centers" (`decide = LocalCenters`) and
/// then reports each scheduler on the grouped windows.
///
/// With [`GroupMethod::LocalCenters`] placement, capacity is resolved
/// window-major in ascending datum order like LOMCDS; a datum entering a
/// group claims a slot in *every* window of the group (it stays put
/// throughout). With [`GroupMethod::GomcdsCenters`] placement, data are
/// processed heaviest first and each solves a masked shortest path over
/// its grouped windows like GOMCDS.
///
/// Grouping decisions, group tables and masked GOMCDS placement all use
/// the shared cost cache's prefix-sum range queries. The per-datum greedy
/// decisions — pure functions of one datum's references and the dominant
/// cost of the pipeline — fan out over `pool`; the placement replay is
/// sequential in a fixed datum/window order, so the result is the same
/// for any thread count.
pub fn grouped_schedule_with_cached(
    trace: &WindowedTrace,
    spec: MemorySpec,
    decide: GroupMethod,
    place: GroupMethod,
    cache: &CostCache,
    pool: Pool,
    ws: &mut Workspace,
) -> Result<Schedule, SchedError> {
    let grid = trace.grid();
    let ids: Vec<DataId> = trace.iter_data().map(|(d, _)| d).collect();
    let groupings = crate::flat::fan_out(pool, &ids, Workspace::new, |w, d| {
        greedy_grouping_cached(&grid, cache.datum(d), decide, w)
    });
    grouped_place_cached(trace, spec, place, cache, ws, &groupings)
}

/// Grouping's capacity replay: resolve capacity for precomputed per-datum
/// groupings, sequentially in the fixed datum/window order.
fn grouped_place_cached(
    trace: &WindowedTrace,
    spec: MemorySpec,
    place: GroupMethod,
    cache: &CostCache,
    ws: &mut Workspace,
    groupings: &[Vec<Range<usize>>],
) -> Result<Schedule, SchedError> {
    let grid = trace.grid();
    let nd = trace.num_data();
    let nw = trace.num_windows();
    ensure_feasible(&grid, spec, nd)?;
    let metrics = ws.metrics.clone();
    let mut mems: Vec<MemoryMap> = (0..nw).map(|_| MemoryMap::new(&grid, spec)).collect();
    let mut centers = vec![vec![ProcId(0); nw]; nd];

    match place {
        GroupMethod::LocalCenters => {
            // Per-datum unconstrained group centers, used as anchors.
            let desired: Vec<Vec<ProcId>> = (0..nd)
                .map(|d| {
                    local_group_centers_cached(cache.datum(DataId(d as u32)), &groupings[d], ws)
                })
                .collect();
            // Map window → group index per datum.
            let group_of: Vec<Vec<usize>> = groupings
                .iter()
                .map(|gs| {
                    let mut v = vec![0usize; nw];
                    for (gi, g) in gs.iter().enumerate() {
                        for w in g.clone() {
                            v[w] = gi;
                        }
                    }
                    v
                })
                .collect();
            for w in 0..nw {
                for d in 0..nd {
                    let gi = group_of[d][w];
                    let g = &groupings[d][gi];
                    if g.start != w {
                        continue; // group already placed at its first window
                    }
                    let dc = cache.datum(DataId(d as u32));
                    let anchor = if w == 0 {
                        desired[d][gi]
                    } else {
                        centers[d][w - 1]
                    };
                    if dc.range_is_empty(g.start, g.end) {
                        // preference order: nearest to the anchor
                        let anchor_refs = WindowRefs::from_pairs([(anchor, 1)]);
                        crate::cost::cost_table_with(
                            &grid,
                            &anchor_refs,
                            &mut ws.axes,
                            &mut ws.table,
                        );
                    } else {
                        dc.range_table(g.start, g.end, &mut ws.axes, &mut ws.table);
                    }
                    let list = crate::capacity::ProcessorList::from_cost_table(&ws.table);
                    let chosen = list
                        .iter()
                        .enumerate()
                        .map(|(rank, (p, _))| (rank, p))
                        .find(|&(_, p)| g.clone().all(|wi| mems[wi].has_room(p)));
                    match chosen {
                        Some((rank, p)) => {
                            metrics.record_placement(rank);
                            for wi in g.clone() {
                                mems[wi]
                                    .allocate(p)
                                    .map_err(|_| exhausted(DataId(d as u32), Some(wi)))?;
                                centers[d][wi] = p;
                            }
                        }
                        None => {
                            // Memory too fragmented for the whole group to
                            // share one processor (only possible with zero
                            // slack): degrade to per-window placement along
                            // the group's preference order. The group's
                            // cost benefit is lost for this datum but the
                            // schedule stays feasible.
                            for wi in g.clone() {
                                let (rank, p) = list
                                    .iter()
                                    .enumerate()
                                    .map(|(rank, (p, _))| (rank, p))
                                    .find(|&(_, p)| mems[wi].has_room(p))
                                    .ok_or_else(|| exhausted(DataId(d as u32), Some(wi)))?;
                                metrics.record_placement(rank);
                                mems[wi]
                                    .allocate(p)
                                    .map_err(|_| exhausted(DataId(d as u32), Some(wi)))?;
                                centers[d][wi] = p;
                            }
                        }
                    }
                }
            }
        }
        GroupMethod::GomcdsCenters => {
            // Whole-path allocation is greedy across every window at once,
            // so processing order matters more than for the window-major
            // schedulers; heaviest data first keeps the big reference
            // volumes at their optimal centers and lets light data adapt
            // (deterministic: ties broken by ascending id).
            let mut order: Vec<usize> = (0..nd).collect();
            order.sort_by_key(|&d| (u64::MAX - trace.refs(DataId(d as u32)).total_volume(), d));
            for d in order {
                let dc = cache.datum(DataId(d as u32));
                let groups = &groupings[d];
                // Build group-level masks: a group slot is full when any of
                // its windows lacks room.
                let group_mems: Vec<MemoryMap> = groups
                    .iter()
                    .map(|g| {
                        let mut m = MemoryMap::new(&grid, spec);
                        for p in grid.procs() {
                            if !g.clone().all(|wi| mems[wi].has_room(p)) {
                                // mark full by exhausting its capacity
                                while m.allocate(p).is_ok() {}
                            }
                        }
                        m
                    })
                    .collect();
                match crate::gomcds::solve_masked_ranges(&grid, dc, groups, &group_mems, ws) {
                    Some(path) => {
                        for (gi, g) in groups.iter().enumerate() {
                            for wi in g.clone() {
                                mems[wi]
                                    .allocate(path[gi])
                                    .map_err(|_| exhausted(DataId(d as u32), Some(wi)))?;
                                centers[d][wi] = path[gi];
                            }
                        }
                    }
                    None => {
                        // No processor is free across every window of some
                        // group (zero-slack fragmentation): fall back to an
                        // ungrouped masked path for this datum, which only
                        // needs one free slot per individual window.
                        let path = crate::gomcds::solve_masked_path_cached(&grid, dc, &mems, ws)
                            .ok_or_else(|| exhausted(DataId(d as u32), None))?;
                        for (wi, &p) in path.iter().enumerate() {
                            mems[wi]
                                .allocate(p)
                                .map_err(|_| exhausted(DataId(d as u32), Some(wi)))?;
                            centers[d][wi] = p;
                        }
                    }
                }
            }
        }
    }
    Ok(Schedule::new(grid, centers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_trace::window::WindowRefs;

    fn g() -> Grid {
        Grid::new(4, 4)
    }

    fn rs_of(windows: Vec<WindowRefs>) -> DataRefString {
        DataRefString::new(windows)
    }

    #[test]
    fn identical_windows_group_into_one() {
        let grid = g();
        let w = || WindowRefs::from_pairs([(grid.proc_xy(2, 2), 1), (grid.proc_xy(3, 2), 1)]);
        let rs = rs_of(vec![w(), w(), w(), w()]);
        let groups = greedy_grouping(&grid, &rs, GroupMethod::LocalCenters);
        assert_eq!(groups, vec![0..4]);
    }

    #[test]
    fn far_apart_hotspots_stay_separate() {
        let grid = g();
        let rs = rs_of(vec![
            WindowRefs::from_pairs([(grid.proc_xy(0, 0), 10)]),
            WindowRefs::from_pairs([(grid.proc_xy(3, 3), 10)]),
        ]);
        let groups = greedy_grouping(&grid, &rs, GroupMethod::LocalCenters);
        // Grouping would cost 10·min-dist ≥ 30; separate costs movement 6.
        assert_eq!(groups, vec![0..1, 1..2]);
    }

    #[test]
    fn grouping_never_increases_cost() {
        let grid = g();
        let rs = rs_of(vec![
            WindowRefs::from_pairs([(grid.proc_xy(1, 1), 2)]),
            WindowRefs::from_pairs([(grid.proc_xy(2, 1), 1)]),
            WindowRefs::from_pairs([(grid.proc_xy(1, 2), 1)]),
            WindowRefs::from_pairs([(grid.proc_xy(3, 3), 5)]),
        ]);
        for method in [GroupMethod::LocalCenters, GroupMethod::GomcdsCenters] {
            let singletons: Vec<Range<usize>> = (0..4).map(|i| i..i + 1).collect();
            let before = cost_of_grouping(&grid, &rs, &singletons, method);
            let groups = greedy_grouping(&grid, &rs, method);
            let after = cost_of_grouping(&grid, &rs, &groups, method);
            assert!(after <= before, "{method:?}: {after} > {before}");
        }
    }

    #[test]
    fn optimal_grouping_never_worse_than_greedy() {
        let grid = g();
        let rs = rs_of(vec![
            WindowRefs::from_pairs([(grid.proc_xy(0, 0), 3)]),
            WindowRefs::from_pairs([(grid.proc_xy(1, 0), 1)]),
            WindowRefs::from_pairs([(grid.proc_xy(0, 1), 1)]),
            WindowRefs::from_pairs([(grid.proc_xy(3, 3), 4)]),
            WindowRefs::from_pairs([(grid.proc_xy(3, 2), 1)]),
        ]);
        let greedy = greedy_grouping(&grid, &rs, GroupMethod::LocalCenters);
        let greedy_cost = cost_of_grouping(&grid, &rs, &greedy, GroupMethod::LocalCenters);
        let (opt_groups, opt_cost) = optimal_grouping(&grid, &rs);
        assert!(opt_cost <= greedy_cost);
        assert_eq!(
            cost_of_grouping(&grid, &rs, &opt_groups, GroupMethod::LocalCenters),
            opt_cost,
            "reported optimum must match its own grouping's cost"
        );
    }

    #[test]
    fn groups_partition_windows() {
        let grid = g();
        let rs = rs_of(
            (0..7)
                .map(|i| WindowRefs::from_pairs([(ProcId(i % 16), 1 + i % 3)]))
                .collect(),
        );
        for method in [GroupMethod::LocalCenters, GroupMethod::GomcdsCenters] {
            let groups = greedy_grouping(&grid, &rs, method);
            let mut expect = 0;
            for r in &groups {
                assert_eq!(r.start, expect);
                assert!(r.end > r.start);
                expect = r.end;
            }
            assert_eq!(expect, 7);
        }
    }

    #[test]
    fn grouped_schedule_no_worse_than_lomcds_on_oscillation() {
        let grid = g();
        // references ping-pong between close processors: per-window moves
        // are pure waste; grouping should collapse them.
        let a = grid.proc_xy(1, 1);
        let b = grid.proc_xy(2, 1);
        let windows: Vec<WindowRefs> = (0..8)
            .map(|i| WindowRefs::from_pairs([(if i % 2 == 0 { a } else { b }, 1)]))
            .collect();
        let trace = WindowedTrace::from_parts(grid, vec![windows]);
        let total = |m| {
            crate::pipeline::schedule(m, &trace, crate::MemoryPolicy::Unbounded)
                .evaluate(&trace)
                .total()
        };
        let lom = total(crate::Method::Lomcds);
        let grouped = total(crate::Method::GroupedLocal);
        assert!(grouped <= lom, "grouped {grouped} vs lomcds {lom}");
        // LOMCDS moves every window (7 moves); grouping should cut that.
        assert!(grouped < lom);
    }

    #[test]
    fn grouped_schedule_respects_capacity() {
        let grid = g();
        let want = |p: ProcId| {
            (0..4)
                .map(|_| WindowRefs::from_pairs([(p, 2)]))
                .collect::<Vec<_>>()
        };
        let trace = WindowedTrace::from_parts(
            grid,
            vec![want(grid.proc_xy(1, 1)), want(grid.proc_xy(1, 1))],
        );
        let cache = CostCache::build(&trace);
        for method in [GroupMethod::LocalCenters, GroupMethod::GomcdsCenters] {
            let s = grouped_schedule_with_cached(
                &trace,
                MemorySpec::uniform(1),
                method,
                method,
                &cache,
                Pool::serial(),
                &mut Workspace::new(),
            )
            .unwrap();
            assert_eq!(s.max_occupancy(), 1, "{method:?}");
        }
    }

    #[test]
    fn local_group_centers_carry_through_empty_groups() {
        let grid = g();
        let rs = rs_of(vec![
            WindowRefs::from_pairs([(grid.proc_xy(2, 2), 1)]),
            WindowRefs::new(),
            WindowRefs::from_pairs([(grid.proc_xy(3, 3), 1)]),
        ]);
        let groups: Vec<Range<usize>> = vec![0..1, 1..2, 2..3];
        let centers = local_group_centers(&grid, &rs, &groups);
        assert_eq!(
            centers,
            vec![grid.proc_xy(2, 2), grid.proc_xy(2, 2), grid.proc_xy(3, 3)]
        );
    }
}
