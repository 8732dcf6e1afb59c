//! Ablation E: greedy window grouping (the paper's Algorithm 3) vs the
//! exact DP-optimal grouping, per datum, on every paper benchmark.
//!
//! Reports how often the greedy matches the optimum and the worst-case and
//! aggregate optimality gap — evidence for (or against) the paper's choice
//! of "our greedy heuristic that efficiently finds the number of execution
//! windows in a group".

use pim_array::grid::Grid;
use pim_sched::grouping::{cost_of_grouping, greedy_grouping, optimal_grouping, GroupMethod};
use pim_sched::{CostCache, Workspace};
use pim_trace::ids::DataId;
use pim_workloads::{windowed, Benchmark};

fn main() {
    let grid = Grid::new(4, 4);
    println!("Grouping ablation: greedy (Algorithm 3) vs DP-optimal, per datum\n");
    println!(
        "{:<6} {:>6} {:>12} {:>12} {:>9} {:>10}",
        "bench", "data", "greedy", "optimal", "matched", "gap"
    );

    for bench in Benchmark::paper_set() {
        let (trace, _) = windowed(bench, grid, 16, 2, 1998);
        let mut greedy_total = 0u64;
        let mut optimal_total = 0u64;
        let mut matched = 0usize;
        let cache = CostCache::build_flat(&trace);
        let mut ws = Workspace::new();
        let local = GroupMethod::LocalCenters;
        for d in 0..trace.num_data() {
            let datum = cache.datum(DataId(d as u32));
            let groups = greedy_grouping(&grid, datum, local, &mut ws);
            let g_cost = cost_of_grouping(&grid, datum, &groups, local, &mut ws);
            let (_, o_cost) = optimal_grouping(&grid, datum, &mut ws);
            assert!(
                o_cost <= g_cost,
                "optimal exceeded greedy on datum {d} of benchmark {}",
                bench.label()
            );
            greedy_total += g_cost;
            optimal_total += o_cost;
            if g_cost == o_cost {
                matched += 1;
            }
        }
        let gap = if optimal_total > 0 {
            (greedy_total - optimal_total) as f64 / optimal_total as f64 * 100.0
        } else {
            0.0
        };
        println!(
            "{:<6} {:>6} {:>12} {:>12} {:>8.1}% {:>9.2}%",
            bench.label(),
            trace.num_data(),
            greedy_total,
            optimal_total,
            matched as f64 / trace.num_data() as f64 * 100.0,
            gap
        );
    }
}
