//! Shared experiment configuration and runners.

use pim_array::grid::Grid;
use pim_array::layout::Layout;
use pim_sched::{MemoryPolicy, Run, Scheduler};
use pim_trace::flat::FlatTrace;
use pim_workloads::{windowed, Benchmark, DataSpace};

/// The paper's experimental setup.
#[derive(Debug, Clone, Copy)]
pub struct PaperConfig {
    /// Processor array (the paper uses 4×4 everywhere).
    pub grid: Grid,
    /// Data matrix sizes tested per benchmark.
    pub sizes: [u32; 3],
    /// Steps bucketed per execution window.
    pub steps_per_window: usize,
    /// Memory rule ("twice more than the minimum memory size").
    pub memory: MemoryPolicy,
    /// Workload seed (CODE kernel).
    pub seed: u64,
}

/// The configuration matching the paper's tables: 4×4 array, sizes
/// 8/16/32, two steps per window, memory = 2× minimum.
pub fn paper_config() -> PaperConfig {
    PaperConfig {
        grid: Grid::new(4, 4),
        sizes: [8, 16, 32],
        steps_per_window: 2,
        memory: MemoryPolicy::ScaledMinimum { factor: 2 },
        seed: 1998,
    }
}

/// One row of a paper-style table.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Benchmark label ("1".."5").
    pub bench: &'static str,
    /// Data size (`n × n`).
    pub size: u32,
    /// Straight-forward baseline cost.
    pub sf: u64,
    /// `(scheduler name, cost, % improvement)` per reported column.
    pub entries: Vec<(&'static str, u64, f64)>,
}

/// Generate the trace for one (benchmark, size) cell of the tables.
pub fn paper_trace(cfg: &PaperConfig, bench: Benchmark, size: u32) -> (FlatTrace, DataSpace) {
    windowed(bench, cfg.grid, size, cfg.steps_per_window, cfg.seed)
}

/// Run one table row: the baseline plus each registered scheduler. One
/// [`Run`] (and therefore one cost cache) serves the whole row.
pub fn run_comparison(
    cfg: &PaperConfig,
    bench: Benchmark,
    size: u32,
    schedulers: &[&dyn Scheduler],
) -> ComparisonRow {
    let (trace, space) = paper_trace(cfg, bench, size);
    let sf = space
        .straightforward(&trace, Layout::RowWise)
        .evaluate(&trace)
        .total();
    let mut run = Run::new(&trace).policy(cfg.memory);
    let entries = schedulers
        .iter()
        .map(|&s| {
            let sched = run
                .run(s)
                .unwrap_or_else(|e| panic!("table configuration infeasible: {e}"));
            let cost = sched.evaluate(&trace).total();
            (
                s.name(),
                cost,
                pim_sched::schedule::improvement_pct(sf, cost),
            )
        })
        .collect();
    ComparisonRow {
        bench: bench.label(),
        size,
        sf,
        entries,
    }
}

/// Run a full table (every paper benchmark × every size).
pub fn run_table(cfg: &PaperConfig, schedulers: &[&dyn Scheduler]) -> Vec<ComparisonRow> {
    let mut rows = Vec::new();
    for bench in Benchmark::paper_set() {
        for &size in &cfg.sizes {
            rows.push(run_comparison(cfg, bench, size, schedulers));
        }
    }
    rows
}

/// Mean percentage improvement of column `idx` across rows.
pub fn mean_improvement(rows: &[ComparisonRow], idx: usize) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(|r| r.entries[idx].2).sum::<f64>() / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_row_has_sane_shape() {
        let cfg = PaperConfig {
            sizes: [8, 8, 8],
            ..paper_config()
        };
        let row = run_comparison(
            &cfg,
            Benchmark::Lu,
            8,
            &pim_sched::registry::schedulers(&["scds", "gomcds"]),
        );
        assert_eq!(row.bench, "1");
        assert!(row.sf > 0);
        assert_eq!(row.entries.len(), 2);
        // GOMCDS beats SCDS and the baseline on LU
        assert!(row.entries[1].1 <= row.entries[0].1);
        assert!(row.entries[1].1 <= row.sf);
    }

    #[test]
    fn mean_improvement_math() {
        let rows = vec![
            ComparisonRow {
                bench: "1",
                size: 8,
                sf: 100,
                entries: vec![("SCDS", 80, 20.0)],
            },
            ComparisonRow {
                bench: "2",
                size: 8,
                sf: 100,
                entries: vec![("SCDS", 60, 40.0)],
            },
        ];
        assert_eq!(mean_improvement(&rows, 0), 30.0);
        assert_eq!(mean_improvement(&[], 0), 0.0);
    }
}
