//! Single-Center Data Scheduling (paper Algorithm 1).
//!
//! All execution windows are merged into one; each datum gets the single
//! center minimizing its total reference cost, and never moves. Memory
//! conflicts are resolved with the processor list (first available
//! processor in ascending cost order), processing data in ascending id
//! order — the paper's "foreach data i do".
//!
//! The module owns SCDS's two decisions: the per-datum kernel
//! (`span_median`, the merged-window weighted median of one datum's flat
//! span — the head of its processor list, see [`crate::median`]) and the
//! sequential capacity replay (`ScdsReplay`). The registry strategy,
//! [`crate::flat::flat_scds`], the chunked [`crate::stream`] walk and
//! [`crate::incremental::IncrementalRun`] are drivers around these two.

use crate::capacity::ProcessorList;
use crate::cost::AxisScratch;
use crate::error::{exhausted, SchedError};
use crate::median::MedianState;
use pim_array::grid::{Grid, ProcId};
use pim_array::memory::{MemoryMap, MemorySpec};
use pim_metrics::Metrics;
use pim_trace::flat::FlatRef;
use pim_trace::ids::DataId;

/// The SCDS kernel: the merged-window weighted median of one datum's
/// span — the lowest-id argmin of its merged cost table, so the head of
/// its processor list.
pub(crate) fn span_median(grid: &Grid, span: &[FlatRef], med: &mut MedianState) -> ProcId {
    med.reset(grid);
    for r in span {
        med.add(r.x, r.y, r.count as u64);
    }
    med.center(grid)
}

/// SCDS's sequential capacity replay: medians are offered in ascending
/// datum order, and a datum whose median is full falls back to its full
/// (cost, id)-ordered processor list — exactly the paper's first
/// available processor. Each placement's list rank is recorded as its
/// capacity displacement.
pub(crate) struct ScdsReplay {
    mem: MemoryMap,
    axes: AxisScratch,
    table: Vec<u64>,
    metrics: Metrics,
    /// Data whose median was full, so they took a later list entry.
    pub(crate) spilled: usize,
}

impl ScdsReplay {
    pub(crate) fn new(grid: &Grid, spec: MemorySpec, metrics: &Metrics) -> ScdsReplay {
        ScdsReplay {
            mem: MemoryMap::new(grid, spec),
            axes: AxisScratch::default(),
            table: Vec::new(),
            metrics: metrics.clone(),
            spilled: 0,
        }
    }

    /// Place datum `d` (span `span`, merged median `median`), mutating the
    /// shared capacity state. Must be called in ascending datum order.
    pub(crate) fn place(
        &mut self,
        grid: &Grid,
        d: DataId,
        span: &[FlatRef],
        median: ProcId,
    ) -> Result<ProcId, SchedError> {
        let (p, rank) = if self.mem.has_room(median) {
            self.mem.allocate(median).map_err(|_| exhausted(d, None))?;
            (median, 0)
        } else {
            // The median (= list head) is full: build the merged cost
            // table from the span and take the first available entry.
            self.axes.reset_weights(grid);
            for r in span {
                self.axes.wx[r.x as usize] += r.count as u64;
                self.axes.wy[r.y as usize] += r.count as u64;
            }
            self.axes.sweep_into(grid, &mut self.table);
            ProcessorList::from_cost_table(&self.table)
                .assign_ranked(&mut self.mem)
                .ok_or_else(|| exhausted(d, None))?
        };
        self.spilled += usize::from(rank > 0);
        self.metrics.record_placement(rank);
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{schedule, MemoryPolicy, Method};
    use pim_array::grid::Grid;
    use pim_trace::ids::DataId;
    use pim_trace::window::{WindowRefs, WindowedTrace};

    fn g() -> Grid {
        Grid::new(4, 4)
    }

    #[test]
    fn single_datum_goes_to_merged_median() {
        let grid = g();
        // window 0: heavy at (0,0); window 1: light at (3,3)
        let trace = WindowedTrace::from_parts(
            grid,
            vec![vec![
                WindowRefs::from_pairs([(grid.proc_xy(0, 0), 3)]),
                WindowRefs::from_pairs([(grid.proc_xy(3, 3), 1)]),
            ]],
        );
        let s = schedule(Method::Scds, &trace, MemoryPolicy::Unbounded);
        assert_eq!(s.center(DataId(0), 0), grid.proc_xy(0, 0));
        assert_eq!(s.center(DataId(0), 1), grid.proc_xy(0, 0));
        assert!(!s.has_movement());
        assert_eq!(s.evaluate(&trace).total(), 6);
    }

    #[test]
    fn capacity_spills_to_next_cheapest() {
        let grid = g();
        // two data both want (1,1)
        let refs = || vec![WindowRefs::from_pairs([(grid.proc_xy(1, 1), 2)])];
        let trace = WindowedTrace::from_parts(grid, vec![refs(), refs()]);
        let s = schedule(Method::Scds, &trace, MemoryPolicy::Capacity(1));
        assert_eq!(s.center(DataId(0), 0), grid.proc_xy(1, 1));
        // datum 1 spills to the distance-1 neighbour with lowest id: (1,0)
        assert_eq!(s.center(DataId(1), 0), grid.proc_xy(1, 0));
        assert_eq!(s.max_occupancy(), 1);
    }

    #[test]
    fn unreferenced_data_parks_deterministically() {
        let grid = g();
        let trace =
            WindowedTrace::from_parts(grid, vec![vec![WindowRefs::new()], vec![WindowRefs::new()]]);
        let s = schedule(Method::Scds, &trace, MemoryPolicy::Capacity(1));
        // zero cost everywhere → list sorted by id → data scatter over
        // lowest-id processors
        assert_eq!(s.center(DataId(0), 0), grid.proc_xy(0, 0));
        assert_eq!(s.center(DataId(1), 0), grid.proc_xy(1, 0));
        assert_eq!(s.evaluate(&trace).total(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn infeasible_capacity_panics() {
        let grid = Grid::new(2, 1);
        let trace = WindowedTrace::from_parts(grid, vec![vec![WindowRefs::new()]; 3]);
        schedule(Method::Scds, &trace, MemoryPolicy::Capacity(1));
    }

    #[test]
    fn infeasible_capacity_errors_through_cached_entry() {
        let grid = Grid::new(2, 1);
        let trace = WindowedTrace::from_parts(grid, vec![vec![WindowRefs::new()]; 3]);
        let err = crate::Run::new(&trace)
            .policy(MemoryPolicy::Capacity(1))
            .run_method(Method::Scds)
            .expect_err("3 data cannot fit 2 slots");
        assert!(matches!(err, SchedError::CapacityExhausted { .. }));
    }
}
