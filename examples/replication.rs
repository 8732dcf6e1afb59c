//! Read replication: lifting the paper's one-copy restriction.
//!
//! Shows where a second copy pays: data referenced simultaneously from
//! distant parts of the array. Compares single-copy GOMCDS against the
//! two-copy extension on the CODE combination benchmarks and prints which
//! data earned a secondary copy.
//!
//! ```text
//! cargo run --release -p pim-cli --example replication
//! ```

use pim_array::grid::Grid;
use pim_sched::replicate::replicated_schedule;
use pim_sched::{schedule, MemoryPolicy, Method};
use pim_trace::ids::DataId;
use pim_workloads::{windowed, Benchmark};

fn main() {
    let grid = Grid::new(4, 4);
    let n = 16;

    println!("Two-copy replication vs single-copy GOMCDS ({n}x{n} data, {grid})\n");
    println!(
        "{:<22} {:>10} {:>10} {:>8} {:>13}",
        "benchmark", "1-copy", "2-copy", "gain", "secondaries"
    );

    for bench in [
        Benchmark::MatMul,
        Benchmark::LuCode,
        Benchmark::MatMulCode,
        Benchmark::CodeReverse,
    ] {
        let (trace, _) = windowed(bench, grid, n, 2, 1998);
        let policy = MemoryPolicy::ScaledMinimum { factor: 2 };
        let spec = policy.resolve(&trace.grid(), trace.num_data());
        let single = schedule(Method::Gomcds, &trace, policy)
            .evaluate(&trace)
            .total();
        let repl = replicated_schedule(&trace, spec);
        let dual = repl.evaluate(&trace).total();
        println!(
            "{:<22} {:>10} {:>10} {:>7.1}% {:>13}",
            bench.name(),
            single,
            dual,
            (single as f64 - dual as f64) / single as f64 * 100.0,
            repl.secondary_slots()
        );
    }

    // Inspect a single datum with a genuinely split audience.
    let (trace, _) = windowed(Benchmark::MatMul, grid, n, 2, 1998);
    let spec = MemoryPolicy::ScaledMinimum { factor: 2 }.resolve(&trace.grid(), trace.num_data());
    let repl = replicated_schedule(&trace, spec);
    println!("\nexample replica placements (first window, first data with a secondary):");
    let mut shown = 0;
    for d in 0..trace.num_data() {
        let (p, s) = repl.replicas_of(DataId(d as u32), 0);
        if let Some(s) = s {
            let pp = grid.point_of(p);
            let sp = grid.point_of(s);
            println!(
                "  D{d}: primary ({},{}) secondary ({},{})",
                pp.x, pp.y, sp.x, sp.y
            );
            shown += 1;
            if shown == 5 {
                break;
            }
        }
    }
    println!(
        "\nMatrix rows and columns are read by whole processor rows/columns\n\
         at once — exactly the split audience a second copy serves."
    );
}
