//! Execution-window tuning and Algorithm 3 grouping.
//!
//! Section 4 of the paper: window size trades reference locality against
//! movement overhead, and the greedy grouping algorithm adapts the window
//! structure per datum. This example sweeps the raw window size on one
//! benchmark and then shows what grouping recovers at the finest setting.
//!
//! ```text
//! cargo run --release -p pim-cli --example window_tuning
//! ```

use pim_array::grid::Grid;
use pim_sched::grouping::{greedy_grouping, GroupMethod};
use pim_sched::{schedule, CostCache, MemoryPolicy, Method, Workspace};
use pim_trace::ids::DataId;
use pim_workloads::{windowed, Benchmark};

fn main() {
    let grid = Grid::new(4, 4);
    let n = 16;
    let memory = MemoryPolicy::ScaledMinimum { factor: 2 };

    println!("CODE+reverse (benchmark 5), {n}x{n} data on {grid}\n");
    println!(
        "{:>10} {:>8} {:>10} {:>10} {:>10}",
        "steps/win", "windows", "LOMCDS", "GOMCDS", "Grouped"
    );
    for steps in [1usize, 2, 4, 8, 16] {
        let (trace, _) = windowed(Benchmark::CodeReverse, grid, n, steps, 1998);
        let cost = |m| schedule(m, &trace, memory).evaluate(&trace).total();
        println!(
            "{:>10} {:>8} {:>10} {:>10} {:>10}",
            steps,
            trace.num_windows(),
            cost(Method::Lomcds),
            cost(Method::Gomcds),
            cost(Method::GroupedLocal),
        );
    }

    // Peek at the grouping decisions for a few data at the finest windows.
    let (trace, _) = windowed(Benchmark::CodeReverse, grid, n, 1, 1998);
    println!(
        "\nAlgorithm 3 group boundaries at 1 step/window ({} windows):",
        trace.num_windows()
    );
    let mut shown = 0;
    let cache = CostCache::build_flat(&trace);
    let mut ws = Workspace::new();
    for d in 0..trace.num_data() {
        let datum = cache.datum(DataId(d as u32));
        if datum.range_is_empty(0, trace.num_windows()) {
            continue;
        }
        let groups = greedy_grouping(&grid, datum, GroupMethod::LocalCenters, &mut ws);
        if groups.len() > 1 && groups.len() < trace.num_windows() {
            let pretty: Vec<String> = groups
                .iter()
                .map(|g| format!("{}..{}", g.start, g.end))
                .collect();
            println!("  D{d}: {} groups: {}", groups.len(), pretty.join(" "));
            shown += 1;
            if shown == 5 {
                break;
            }
        }
    }
    println!(
        "\nGrouping merges windows whose hot sets coincide, eliminating\n\
         ping-pong moves without giving up adaptivity."
    );
}
