//! Raw per-step access traces.
//!
//! Workload kernels emit a sequence of *execution steps*; each step records
//! which processor touched which datum, and how many times. Steps are later
//! bucketed into execution windows (a [`FlatTrace`]), which is the
//! granularity the paper's schedulers operate at.

use crate::flat::{FlatRecord, FlatTrace};
use crate::ids::DataId;
use pim_array::grid::{Grid, ProcId};

/// One access: processor `proc` references datum `data` `count` times
/// during a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The referencing processor.
    pub proc: ProcId,
    /// The referenced datum.
    pub data: DataId,
    /// Number of references (data volume in the paper's cost model).
    pub count: u32,
}

/// One parallel execution step: the accesses all processors perform during
/// it. Order within a step carries no meaning (the paper's model charges
/// per-reference distance, not latency).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStep {
    /// Accesses performed in this step.
    pub accesses: Vec<Access>,
}

impl ExecStep {
    /// Total reference volume in this step.
    pub fn total_refs(&self) -> u64 {
        self.accesses.iter().map(|a| a.count as u64).sum()
    }
}

/// A complete raw trace: the machine it ran on, the number of distinct data
/// items, and the step sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepTrace {
    /// The processor array the trace was collected on.
    pub grid: Grid,
    /// Number of distinct data items; all `DataId`s are `< num_data`.
    pub num_data: u32,
    /// The execution steps in program order.
    pub steps: Vec<ExecStep>,
}

impl StepTrace {
    /// An empty trace for `grid` over `num_data` data items.
    pub fn empty(grid: Grid, num_data: u32) -> Self {
        StepTrace {
            grid,
            num_data,
            steps: Vec::new(),
        }
    }

    /// Number of execution steps.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Total reference volume across all steps.
    pub fn total_refs(&self) -> u64 {
        self.steps.iter().map(ExecStep::total_refs).sum()
    }

    /// Bucket steps into execution windows of `steps_per_window` consecutive
    /// steps each (the last window may be shorter). This is the windowing
    /// used throughout the paper's experiments; `steps_per_window` is the
    /// window-size knob studied in Section 4.
    ///
    /// # Panics
    /// Panics if `steps_per_window == 0`.
    pub fn window_fixed(&self, steps_per_window: usize) -> FlatTrace {
        assert!(steps_per_window > 0, "window size must be positive");
        let num_windows = self.steps.len().div_ceil(steps_per_window).max(1);
        self.window_by(
            |step_idx| (step_idx / steps_per_window).min(num_windows - 1),
            num_windows,
        )
    }

    /// Bucket steps into windows with an arbitrary assignment
    /// `step index → window index`. Window indices must cover
    /// `0..num_windows` monotonically (non-decreasing), matching the
    /// paper's definition of windows as *consecutive* step groups. Repeated
    /// references of one processor in one window aggregate through
    /// [`FlatTrace::from_records`], saturating at `u32::MAX`.
    ///
    /// # Panics
    /// Panics if the assignment is non-monotone or out of range, or an
    /// access names a datum or processor outside the trace.
    pub fn window_by(&self, assign: impl Fn(usize) -> usize, num_windows: usize) -> FlatTrace {
        assert!(num_windows > 0, "need at least one window");
        let mut records = Vec::new();
        let mut prev_w = 0usize;
        for (i, step) in self.steps.iter().enumerate() {
            let w = assign(i);
            assert!(w < num_windows, "window index {w} out of range");
            assert!(w >= prev_w, "window assignment must be monotone");
            prev_w = w;
            records.extend(step.accesses.iter().map(|a| FlatRecord {
                datum: a.data,
                window: w as u32,
                proc: a.proc,
                count: a.count,
            }));
        }
        FlatTrace::from_records(self.grid, num_windows, self.num_data as usize, records)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Concatenate another trace after this one (the paper's combined
    /// benchmarks, e.g. "benchmark 1 and CODE"). Both traces must target
    /// the same grid; the datum id spaces are assumed shared (the combined
    /// program operates on the same arrays).
    ///
    /// # Panics
    /// Panics if the grids differ.
    pub fn concat(mut self, other: &StepTrace) -> StepTrace {
        assert_eq!(
            self.grid, other.grid,
            "cannot concat traces from different grids"
        );
        self.num_data = self.num_data.max(other.num_data);
        self.steps.extend(other.steps.iter().cloned());
        self
    }

    /// The same trace with steps in reverse program order (used by the
    /// paper's benchmark 5: "CODE and the code in the reverse execution
    /// order of the CODE").
    pub fn reversed(&self) -> StepTrace {
        StepTrace {
            grid: self.grid,
            num_data: self.num_data,
            steps: self.steps.iter().rev().cloned().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> Grid {
        Grid::new(4, 4)
    }

    fn mk(accs: &[(u32, u32, u32)]) -> ExecStep {
        ExecStep {
            accesses: accs
                .iter()
                .map(|&(p, d, n)| Access {
                    proc: ProcId(p),
                    data: DataId(d),
                    count: n,
                })
                .collect(),
        }
    }

    #[test]
    fn totals() {
        let t = StepTrace {
            grid: g(),
            num_data: 2,
            steps: vec![mk(&[(0, 0, 2), (1, 1, 3)]), mk(&[(2, 0, 1)])],
        };
        assert_eq!(t.num_steps(), 2);
        assert_eq!(t.total_refs(), 6);
        assert_eq!(t.steps[0].total_refs(), 5);
    }

    #[test]
    fn fixed_windowing_buckets_steps() {
        let t = StepTrace {
            grid: g(),
            num_data: 1,
            steps: vec![
                mk(&[(0, 0, 1)]),
                mk(&[(1, 0, 1)]),
                mk(&[(2, 0, 1)]),
                mk(&[(3, 0, 1)]),
                mk(&[(4, 0, 1)]),
            ],
        };
        let w = t.window_fixed(2);
        assert_eq!(w.num_windows(), 3);
        let volumes: Vec<u32> = (0..3)
            .map(|i| w.window_run(DataId(0), i).iter().map(|r| r.count).sum())
            .collect();
        assert_eq!(volumes, vec![2, 2, 1]);
    }

    #[test]
    fn windowing_aggregates_duplicate_procs() {
        let t = StepTrace {
            grid: g(),
            num_data: 1,
            steps: vec![mk(&[(5, 0, 2)]), mk(&[(5, 0, 3)])],
        };
        let w = t.window_fixed(2);
        let refs = w.window_run(DataId(0), 0);
        assert_eq!(refs.len(), 1);
        assert_eq!((refs[0].proc(&g()), refs[0].count), (ProcId(5), 5));
        // The aggregate saturates at `u32::MAX`, the rule every trace
        // constructor shares, instead of overflowing.
        let t = StepTrace {
            grid: g(),
            num_data: 1,
            steps: vec![mk(&[(5, 0, u32::MAX - 1)]), mk(&[(5, 0, 5)])],
        };
        assert_eq!(
            t.window_fixed(2).window_run(DataId(0), 0)[0].count,
            u32::MAX
        );
    }

    #[test]
    fn empty_trace_yields_one_empty_window() {
        let t = StepTrace::empty(g(), 3);
        let w = t.window_fixed(4);
        assert_eq!(w.num_windows(), 1);
        assert_eq!(w.num_data(), 3);
        assert!(w.span(DataId(1)).is_empty());
    }

    #[test]
    fn concat_and_reverse() {
        let a = StepTrace {
            grid: g(),
            num_data: 1,
            steps: vec![mk(&[(0, 0, 1)])],
        };
        let b = StepTrace {
            grid: g(),
            num_data: 2,
            steps: vec![mk(&[(1, 1, 1)]), mk(&[(2, 0, 1)])],
        };
        let c = a.clone().concat(&b);
        assert_eq!(c.num_steps(), 3);
        assert_eq!(c.num_data, 2);
        let r = c.reversed();
        assert_eq!(r.steps[0], mk(&[(2, 0, 1)]));
        assert_eq!(r.steps[2], mk(&[(0, 0, 1)]));
    }

    #[test]
    #[should_panic(expected = "window size must be positive")]
    fn zero_window_size_panics() {
        StepTrace::empty(g(), 1).window_fixed(0);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn non_monotone_assignment_panics() {
        let t = StepTrace {
            grid: g(),
            num_data: 1,
            steps: vec![mk(&[(0, 0, 1)]), mk(&[(1, 0, 1)])],
        };
        t.window_by(|i| 1 - i, 2);
    }

    #[test]
    #[should_panic(expected = "different grids")]
    fn concat_grid_mismatch_panics() {
        let a = StepTrace::empty(Grid::new(4, 4), 1);
        let b = StepTrace::empty(Grid::new(2, 2), 1);
        let _ = a.concat(&b);
    }
}
