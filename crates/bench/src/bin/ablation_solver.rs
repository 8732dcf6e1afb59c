//! Ablation A: naive `O(m²)` cost-graph relaxation vs the `O(m)` distance-
//! transform solver inside GOMCDS. Verifies the two produce identical
//! schedules on every paper benchmark, then times both on growing arrays
//! (wall-clock; see `benches/gomcds_solvers.rs` for the Criterion version).

use pim_array::grid::Grid;
use pim_sched::{schedule, MemoryPolicy, Method};
use pim_workloads::{windowed, Benchmark};
use std::time::Instant;

fn main() {
    let memory = MemoryPolicy::ScaledMinimum { factor: 2 };

    println!("GOMCDS solver ablation: naive O(m^2) vs distance-transform O(m)\n");

    // 1. bit-identical results on the paper set
    let grid = Grid::new(4, 4);
    for bench in Benchmark::paper_set() {
        let (trace, _) = windowed(bench, grid, 16, 2, 1998);
        let a = schedule(Method::GomcdsNaive, &trace, memory);
        let b = schedule(Method::Gomcds, &trace, memory);
        assert_eq!(a, b, "solver divergence on benchmark {}", bench.label());
        println!(
            "benchmark {}: schedules identical (cost {})",
            bench.label(),
            a.evaluate(&trace).total()
        );
    }

    // 2. scaling with array size
    println!(
        "\n{:>7} {:>12} {:>12} {:>8}",
        "grid", "naive", "dt", "speedup"
    );
    for dim in [4u32, 8, 16, 24] {
        let grid = Grid::new(dim, dim);
        let (trace, _) = windowed(Benchmark::MatMul, grid, 16, 2, 1998);
        let unbounded = MemoryPolicy::Unbounded;

        let t0 = Instant::now();
        let a = schedule(Method::GomcdsNaive, &trace, unbounded);
        let naive = t0.elapsed();

        let t0 = Instant::now();
        let b = schedule(Method::Gomcds, &trace, unbounded);
        let dt = t0.elapsed();

        assert_eq!(a, b);
        println!(
            "{:>4}x{:<2} {:>10.2?} {:>10.2?} {:>7.1}x",
            dim,
            dim,
            naive,
            dt,
            naive.as_secs_f64() / dt.as_secs_f64().max(1e-9)
        );
    }
}
