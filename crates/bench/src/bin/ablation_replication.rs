//! Ablation H: the read-replication extension (two copies per datum) vs
//! single-copy GOMCDS, per benchmark and memory budget.
//!
//! The paper restricts the system to one copy per datum; this experiment
//! quantifies what the second copy buys and how the gain depends on memory
//! slack (secondaries only materialize into free slots).

use pim_array::grid::Grid;
use pim_sched::kcopy::kcopy_schedule;
use pim_sched::replicate::replicated_schedule;
use pim_sched::{schedule, MemoryPolicy, Method};
use pim_workloads::{windowed, Benchmark};

fn main() {
    let grid = Grid::new(4, 4);
    let n = 16;
    println!("Replication ablation ({n}x{n} data, 4x4 array)\n");
    println!(
        "{:<6} {:>10} {:>12} {:>12} {:>12} {:>8} {:>12}",
        "bench", "memory", "1-copy", "2-copy", "3-copy", "gain", "secondaries"
    );

    for bench in Benchmark::paper_set() {
        for (label, policy) in [
            ("2x", MemoryPolicy::ScaledMinimum { factor: 2 }),
            ("4x", MemoryPolicy::ScaledMinimum { factor: 4 }),
            ("unbounded", MemoryPolicy::Unbounded),
        ] {
            let (trace, _) = windowed(bench, grid, n, 2, 1998);
            let spec = policy.resolve(&trace.grid(), trace.num_data());
            let single = schedule(Method::Gomcds, &trace, policy)
                .evaluate(&trace)
                .total();
            let repl = replicated_schedule(&trace, spec);
            let dual = repl.evaluate(&trace).total();
            let triple = kcopy_schedule(&trace, spec, 3).evaluate(&trace).total();
            println!(
                "{:<6} {:>10} {:>12} {:>12} {:>12} {:>7.1}% {:>12}",
                bench.label(),
                label,
                single,
                dual,
                triple,
                (single as f64 - dual as f64) / single as f64 * 100.0,
                repl.secondary_slots()
            );
        }
        println!();
    }
}
