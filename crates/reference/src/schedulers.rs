//! The pre-cache schedulers: every method re-walks the raw reference
//! strings, as the first implementation of each algorithm did.

use crate::grouping::greedy_grouping;
use pim_array::grid::{Grid, ProcId};
use pim_array::memory::{MemoryMap, MemorySpec};
use pim_sched::capacity::ProcessorList;
use pim_sched::cost::{cost_table, optimal_center};
use pim_sched::gomcds::{gomcds_path, solve_masked_path, Solver};
use pim_sched::grouping::local_group_centers;
use pim_sched::grouping::GroupMethod::{self, GomcdsCenters, LocalCenters};
use pim_sched::{MemoryPolicy, Method, SchedError, Schedule};
use pim_trace::ids::DataId;
use pim_trace::window::{DataRefString, WindowRefs, WindowedTrace};

/// Schedule `trace` under `policy` with the reference implementation of
/// `method`. Bit-identical to `pim_sched::Run` with the method's
/// registered scheduler, and to the `pim_sched::flat_*` drivers for the
/// methods they cover; returns [`SchedError::CapacityExhausted`] when the
/// policy cannot hold the working set.
pub fn schedule(
    method: Method,
    trace: &WindowedTrace,
    policy: MemoryPolicy,
) -> Result<Schedule, SchedError> {
    let spec = policy.resolve(trace);
    // Upfront feasibility gate: total slots must hold every datum at once.
    if !spec.feasible(&trace.grid(), trace.num_data()) {
        return Err(SchedError::CapacityExhausted {
            datum: None,
            window: None,
        });
    }
    match method {
        Method::Scds => scds(trace, spec),
        Method::Lomcds => lomcds(trace, spec),
        Method::Gomcds => gomcds(trace, spec, Solver::DistanceTransform),
        Method::GomcdsNaive => gomcds(trace, spec, Solver::Naive),
        // Group decisions always use LOMCDS costs, as in the paper's
        // Table 2; the variant chooses the placement across groups.
        Method::GroupedLocal => grouped(trace, spec, LocalCenters, LocalCenters),
        Method::GroupedGomcds => grouped(trace, spec, LocalCenters, GomcdsCenters),
    }
}

/// A placement-time exhaustion error.
fn exhausted(datum: DataId, window: Option<usize>) -> SchedError {
    SchedError::CapacityExhausted {
        datum: Some(datum),
        window,
    }
}

/// SCDS: merge each reference string and run [`cost_table`] directly.
fn scds(trace: &WindowedTrace, spec: MemorySpec) -> Result<Schedule, SchedError> {
    let grid = trace.grid();
    let mut mem = MemoryMap::new(&grid, spec);
    let mut table = Vec::new();
    let mut placement = Vec::with_capacity(trace.num_data());
    for (d, rs) in trace.iter_data() {
        let merged = rs.merged_all();
        cost_table(&grid, &merged, &mut table);
        let list = ProcessorList::from_cost_table(&table);
        let p = list.assign(&mut mem).ok_or_else(|| exhausted(d, None))?;
        placement.push(p);
    }
    Ok(Schedule::static_placement(
        grid,
        placement,
        trace.num_windows(),
    ))
}

/// The unconstrained LOMCDS center sequence for one datum: the local
/// optimal center of every window, with empty windows resolved by
/// carry-forward (and backward fill for leading empties).
fn lomcds_centers_unconstrained(grid: &Grid, rs: &DataRefString) -> Vec<ProcId> {
    let nw = rs.num_windows();
    let mut centers: Vec<Option<ProcId>> = vec![None; nw];
    for (w, refs) in rs.windows().enumerate() {
        if !refs.is_empty() {
            centers[w] = Some(optimal_center(grid, refs).0);
        }
    }
    resolve_gaps(centers)
}

/// Fill `None` slots: carry the previous center forward; leading `None`s
/// take the first known center; an all-`None` sequence defaults to `P0`.
fn resolve_gaps(mut centers: Vec<Option<ProcId>>) -> Vec<ProcId> {
    let first_known = centers.iter().flatten().next().copied();
    let mut prev = first_known;
    for slot in centers.iter_mut() {
        match slot {
            Some(c) => prev = Some(*c),
            None => *slot = prev,
        }
    }
    centers
        .into_iter()
        .map(|c| c.unwrap_or(ProcId(0)))
        .collect()
}

/// LOMCDS: walk every window's reference list directly, window-major, data
/// in ascending id order.
fn lomcds(trace: &WindowedTrace, spec: MemorySpec) -> Result<Schedule, SchedError> {
    let grid = trace.grid();
    let nd = trace.num_data();
    let nw = trace.num_windows();

    let desired: Vec<Vec<ProcId>> = (0..nd)
        .map(|d| lomcds_centers_unconstrained(&grid, trace.refs(DataId(d as u32))))
        .collect();

    let mut centers = vec![vec![ProcId(0); nw]; nd];
    let mut table = Vec::new();
    for w in 0..nw {
        let mut mem = MemoryMap::new(&grid, spec);
        for d in 0..nd {
            let refs = trace.refs(DataId(d as u32)).window(w);
            let anchor = if w == 0 {
                desired[d][0]
            } else {
                centers[d][w - 1]
            };
            let p = if refs.is_empty() {
                nearest_free(&grid, anchor, &mut mem)
                    .ok_or_else(|| exhausted(DataId(d as u32), Some(w)))?
            } else {
                cost_table(&grid, refs, &mut table);
                ProcessorList::from_cost_table(&table)
                    .assign(&mut mem)
                    .ok_or_else(|| exhausted(DataId(d as u32), Some(w)))?
            };
            centers[d][w] = p;
        }
    }
    Ok(Schedule::new(grid, centers))
}

/// Claim the free processor nearest to `anchor` (ties by ascending id);
/// `None` when every processor is full.
fn nearest_free(grid: &Grid, anchor: ProcId, mem: &mut MemoryMap) -> Option<ProcId> {
    if mem.has_room(anchor) {
        mem.allocate(anchor).ok()?;
        return Some(anchor);
    }
    let a = grid.point_of(anchor);
    let p = grid
        .procs()
        .filter(|&p| mem.has_room(p))
        .min_by_key(|&p| (grid.point_of(p).l1_dist(a), p.0))?;
    mem.allocate(p).ok()?;
    Some(p)
}

/// GOMCDS: each datum's layered shortest path with node costs walked from
/// its raw reference string, masked by the slots earlier data claimed.
fn gomcds(trace: &WindowedTrace, spec: MemorySpec, solver: Solver) -> Result<Schedule, SchedError> {
    let grid = trace.grid();
    let nd = trace.num_data();
    let nw = trace.num_windows();

    let bounded = spec.capacity_per_proc != u32::MAX;
    let mut masks: Vec<MemoryMap> = if bounded {
        (0..nw).map(|_| MemoryMap::new(&grid, spec)).collect()
    } else {
        Vec::new()
    };

    let mut centers = Vec::with_capacity(nd);
    for (d, rs) in trace.iter_data() {
        let path = if bounded {
            solve_masked_path(&grid, rs, &masks, solver).ok_or_else(|| exhausted(d, None))?
        } else {
            gomcds_path(&grid, rs, solver).0
        };
        if bounded {
            for (w, &p) in path.iter().enumerate() {
                masks[w].allocate(p).map_err(|_| exhausted(d, Some(w)))?;
            }
        }
        centers.push(path);
    }
    Ok(Schedule::new(grid, centers))
}

/// Grouped scheduling (the paper's Table 2 pipeline): literal Algorithm 3
/// decisions costed by `decide`, then every merged range re-walks the
/// reference lists while `place` resolves capacity.
fn grouped(
    trace: &WindowedTrace,
    spec: MemorySpec,
    decide: GroupMethod,
    place: GroupMethod,
) -> Result<Schedule, SchedError> {
    let grid = trace.grid();
    let nd = trace.num_data();
    let nw = trace.num_windows();

    let groupings: Vec<Vec<core::ops::Range<usize>>> = (0..nd)
        .map(|d| greedy_grouping(&grid, trace.refs(DataId(d as u32)), decide))
        .collect();
    let mut mems: Vec<MemoryMap> = (0..nw).map(|_| MemoryMap::new(&grid, spec)).collect();
    let mut centers = vec![vec![ProcId(0); nw]; nd];

    match place {
        LocalCenters => {
            // Per-datum unconstrained group centers, used as anchors.
            let desired: Vec<Vec<ProcId>> = (0..nd)
                .map(|d| local_group_centers(&grid, trace.refs(DataId(d as u32)), &groupings[d]))
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
                    let rs = trace.refs(DataId(d as u32));
                    let merged = rs.merged_range(g.start, g.end);
                    let anchor = if w == 0 {
                        desired[d][gi]
                    } else {
                        centers[d][w - 1]
                    };
                    let mut table = Vec::new();
                    let list = if merged.is_empty() {
                        // preference order: nearest to the anchor
                        let anchor_refs = WindowRefs::from_pairs([(anchor, 1)]);
                        cost_table(&grid, &anchor_refs, &mut table);
                        ProcessorList::from_cost_table(&table)
                    } else {
                        cost_table(&grid, &merged, &mut table);
                        ProcessorList::from_cost_table(&table)
                    };
                    let chosen = list
                        .iter()
                        .map(|(p, _)| p)
                        .find(|&p| g.clone().all(|wi| mems[wi].has_room(p)));
                    match chosen {
                        Some(p) => {
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
                            // the group's preference order.
                            for wi in g.clone() {
                                let p = list
                                    .iter()
                                    .map(|(p, _)| p)
                                    .find(|&p| mems[wi].has_room(p))
                                    .ok_or_else(|| exhausted(DataId(d as u32), Some(wi)))?;
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
        GomcdsCenters => {
            // Heaviest data first (ties by ascending id): whole-path
            // allocation is greedy across every window at once.
            let mut order: Vec<usize> = (0..nd).collect();
            order.sort_by_key(|&d| (u64::MAX - trace.refs(DataId(d as u32)).total_volume(), d));
            for d in order {
                let rs = trace.refs(DataId(d as u32));
                let groups = &groupings[d];
                let regrouped = rs.regrouped(groups);
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
                let solver = Solver::DistanceTransform;
                match solve_masked_path(&grid, &regrouped, &group_mems, solver) {
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
                        // ungrouped masked path for this datum.
                        let path = solve_masked_path(&grid, rs, &mems, solver)
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
