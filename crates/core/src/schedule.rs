//! Schedules and their evaluation.
//!
//! A [`Schedule`] records, for every datum, its center (storage processor)
//! in every execution window. Evaluation charges:
//!
//! * **reference cost** — for each window, each reference's volume times
//!   the distance from the window's center to the referencing processor;
//! * **movement cost** — the distance between centers of consecutive
//!   windows (one unit volume per datum per move, per the paper's model of
//!   one copy of each datum).
//!
//! Initial placement (the center of window 0) is free: it happens during
//! the pre-execution distribution phase.

use crate::flat::{datum_cost, flat_total_cost};
use pim_array::grid::{Grid, ProcId};
use pim_trace::flat::FlatView;
use pim_trace::ids::DataId;

/// Total communication cost split into its two components.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostBreakdown {
    /// Volume-weighted reference traffic.
    pub reference: u64,
    /// Inter-window data movement traffic.
    pub movement: u64,
}

impl CostBreakdown {
    /// Reference plus movement.
    pub fn total(&self) -> u64 {
        self.reference + self.movement
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: CostBreakdown) {
        self.reference += other.reference;
        self.movement += other.movement;
    }
}

impl core::fmt::Display for CostBreakdown {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} (ref {}, move {})",
            self.total(),
            self.reference,
            self.movement
        )
    }
}

/// A complete data schedule: `centers[d][w]` is the storage processor of
/// datum `d` during window `w`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    grid: Grid,
    centers: Vec<Vec<ProcId>>,
}

impl Schedule {
    /// Build from per-datum center sequences. Every datum must have the
    /// same (positive) number of windows.
    pub fn new(grid: Grid, centers: Vec<Vec<ProcId>>) -> Self {
        let nw = centers.first().map_or(0, Vec::len);
        assert!(nw > 0 || centers.is_empty(), "schedules need ≥1 window");
        assert!(
            centers.iter().all(|c| c.len() == nw),
            "ragged center sequences"
        );
        Schedule { grid, centers }
    }

    /// A static schedule: datum `d` stays at `placement[d]` in all
    /// `num_windows` windows (baselines, SCDS).
    pub fn static_placement(grid: Grid, placement: Vec<ProcId>, num_windows: usize) -> Self {
        assert!(num_windows > 0, "schedules need ≥1 window");
        let centers = placement
            .into_iter()
            .map(|p| vec![p; num_windows])
            .collect();
        Schedule { grid, centers }
    }

    /// The grid this schedule targets.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Number of data items.
    pub fn num_data(&self) -> usize {
        self.centers.len()
    }

    /// Number of execution windows.
    pub fn num_windows(&self) -> usize {
        self.centers.first().map_or(0, Vec::len)
    }

    /// Center of datum `d` in window `w`.
    pub fn center(&self, d: DataId, w: usize) -> ProcId {
        self.centers[d.index()][w]
    }

    /// Full center sequence of one datum.
    pub fn centers_of(&self, d: DataId) -> &[ProcId] {
        &self.centers[d.index()]
    }

    /// Replace datum `d`'s full center sequence (incremental re-solves).
    ///
    /// # Panics
    /// Panics when `row.len()` differs from the schedule's window count.
    pub fn set_row(&mut self, d: DataId, row: Vec<ProcId>) {
        assert_eq!(row.len(), self.num_windows(), "row length mismatch");
        self.centers[d.index()] = row;
    }

    /// Overwrite datum `d`'s whole row with one center, in place — the
    /// static-placement shape, without [`set_row`](Self::set_row)'s
    /// per-call allocation (churn rewrites thousands of rows per tick).
    pub fn fill_row(&mut self, d: DataId, center: ProcId) {
        self.centers[d.index()].fill(center);
    }

    /// Grow every datum by one window that repeats its last center — the
    /// unconstrained optimum for a window with no references (staying put
    /// adds zero cost; see the append-extension argument in DESIGN.md §12).
    pub fn append_window_repeat_last(&mut self) {
        for cs in &mut self.centers {
            let last = *cs.last().expect("schedules have ≥1 window");
            cs.push(last);
        }
    }

    /// Whether the schedule ever moves a datum between windows.
    pub fn has_movement(&self) -> bool {
        self.centers
            .iter()
            .any(|cs| cs.windows(2).any(|w| w[0] != w[1]))
    }

    /// Number of individual data moves across the whole execution.
    pub fn num_moves(&self) -> u64 {
        self.centers
            .iter()
            .map(|cs| cs.windows(2).filter(|w| w[0] != w[1]).count() as u64)
            .sum()
    }

    /// Evaluate the whole schedule against a trace: [`flat_total_cost`].
    ///
    /// # Panics
    /// Panics if the trace shape (data count, window count, grid) does not
    /// match the schedule.
    pub fn evaluate<V: FlatView + ?Sized>(&self, trace: &V) -> CostBreakdown {
        flat_total_cost(trace, self)
    }

    /// Evaluate with a per-datum movement volume (`volumes[d]` = units
    /// moved per hop when datum `d` migrates) — the paper's "weighted by
    /// the data volume transferred" with heterogeneous data sizes; a
    /// uniform `volumes` charges one movement weight for every datum.
    ///
    /// # Panics
    /// Panics when `volumes.len() != num_data` or shapes mismatch.
    pub fn evaluate_volumes<V: FlatView + ?Sized>(
        &self,
        trace: &V,
        volumes: &[u64],
    ) -> CostBreakdown {
        assert_eq!(trace.grid(), self.grid, "schedule/trace grid mismatch");
        assert_eq!(trace.num_data(), self.num_data(), "data count mismatch");
        assert_eq!(volumes.len(), self.num_data(), "volumes length mismatch");
        let mut total = CostBreakdown::default();
        for (d, &volume) in volumes.iter().enumerate() {
            let d = DataId(d as u32);
            total.add(datum_cost(
                &self.grid,
                trace.span(d),
                self.centers_of(d),
                volume,
            ));
        }
        total
    }

    /// Per-window occupancy: `out[w][p]` = number of data stored on `p`
    /// during window `w`. Used to verify capacity compliance.
    pub fn occupancy(&self) -> Vec<Vec<u32>> {
        let nw = self.num_windows();
        let mut occ = vec![vec![0u32; self.grid.num_procs()]; nw];
        for cs in &self.centers {
            for (w, p) in cs.iter().enumerate() {
                occ[w][p.index()] += 1;
            }
        }
        occ
    }

    /// The highest per-processor occupancy over all windows.
    pub fn max_occupancy(&self) -> u32 {
        self.occupancy()
            .iter()
            .flat_map(|w| w.iter().copied())
            .max()
            .unwrap_or(0)
    }
}

/// Percentage improvement of `ours` over `baseline` (the paper's `%`
/// columns): `(baseline − ours) / baseline × 100`, or 0 when the baseline
/// is free.
pub fn improvement_pct(baseline: u64, ours: u64) -> f64 {
    if baseline == 0 {
        0.0
    } else {
        (baseline as f64 - ours as f64) / baseline as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_trace::flat::FlatTrace;
    use pim_trace::window::WindowRefs;

    fn g() -> Grid {
        Grid::new(4, 4)
    }

    fn two_window_trace(grid: Grid) -> FlatTrace {
        FlatTrace::from_windows(
            grid,
            vec![vec![
                WindowRefs::from_pairs([(grid.proc_xy(0, 0), 2)]),
                WindowRefs::from_pairs([(grid.proc_xy(3, 3), 1)]),
            ]],
        )
        .unwrap()
    }

    #[test]
    fn static_schedule_costs() {
        let grid = g();
        let trace = two_window_trace(grid);
        let s = Schedule::static_placement(grid, vec![grid.proc_xy(0, 0)], 2);
        let cost = s.evaluate(&trace);
        assert_eq!(cost.reference, 6);
        assert_eq!(cost.movement, 0);
        assert_eq!(cost.total(), 6);
        assert!(!s.has_movement());
        assert_eq!(s.num_moves(), 0);
    }

    #[test]
    fn moving_schedule_costs() {
        let grid = g();
        let trace = two_window_trace(grid);
        let s = Schedule::new(grid, vec![vec![grid.proc_xy(0, 0), grid.proc_xy(3, 3)]]);
        let cost = s.evaluate(&trace);
        assert_eq!(cost.reference, 0);
        assert_eq!(cost.movement, 6);
        assert!(s.has_movement());
        assert_eq!(s.num_moves(), 1);
    }

    #[test]
    fn occupancy_counts() {
        let grid = g();
        let s = Schedule::new(
            grid,
            vec![
                vec![ProcId(0), ProcId(1)],
                vec![ProcId(0), ProcId(1)],
                vec![ProcId(5), ProcId(1)],
            ],
        );
        let occ = s.occupancy();
        assert_eq!(occ[0][0], 2);
        assert_eq!(occ[0][5], 1);
        assert_eq!(occ[1][1], 3);
        assert_eq!(s.max_occupancy(), 3);
    }

    #[test]
    fn improvement_math() {
        assert_eq!(improvement_pct(100, 70), 30.0);
        assert_eq!(improvement_pct(0, 5), 0.0);
        assert!(improvement_pct(50, 60) < 0.0);
    }

    #[test]
    fn breakdown_display_and_add() {
        let mut a = CostBreakdown {
            reference: 10,
            movement: 2,
        };
        a.add(CostBreakdown {
            reference: 5,
            movement: 1,
        });
        assert_eq!(a.total(), 18);
        assert_eq!(a.to_string(), "18 (ref 15, move 3)");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_schedule_panics() {
        Schedule::new(g(), vec![vec![ProcId(0)], vec![ProcId(0), ProcId(1)]]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn trace_shape_mismatch_panics() {
        let grid = g();
        let trace = two_window_trace(grid);
        let s = Schedule::static_placement(grid, vec![ProcId(0)], 3);
        let _ = s.evaluate(&trace);
    }
}
