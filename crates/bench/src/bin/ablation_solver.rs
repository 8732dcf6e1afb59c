//! Ablation A: the three GOMCDS solvers — the literal `O(m²)` cost-graph
//! relaxation, the two-pass 2-D distance transform (the form masked
//! re-solves use, run here over all-free memory maps) and the separable
//! kernel (one 1-D DP per grid axis). Verifies the three produce identical
//! schedules on every paper benchmark, on a square and a non-square grid,
//! then times them on growing arrays (wall-clock; see
//! `benches/gomcds_solvers.rs` for the Criterion version). Exits non-zero
//! on any divergence.

use pim_array::grid::Grid;
use pim_array::memory::{MemoryMap, MemorySpec};
use pim_sched::gomcds::{solve_masked_path, Solver};
use pim_sched::{schedule, CostCache, MemoryPolicy, Method, Schedule, Workspace};
use pim_trace::flat::FlatTrace;
use pim_trace::ids::DataId;
use pim_workloads::{windowed, Benchmark};
use std::time::{Duration, Instant};

/// GOMCDS with every datum solved by the 2-D transform over all-free
/// memory maps: the masked solver with nothing masked.
fn transform_2d(trace: &FlatTrace) -> Schedule {
    let grid = trace.grid();
    let cache = CostCache::build_flat(trace);
    let free: Vec<MemoryMap> = (0..trace.num_windows())
        .map(|_| MemoryMap::new(&grid, MemorySpec::unbounded()))
        .collect();
    let mut ws = Workspace::new();
    let centers = (0..trace.num_data() as u32)
        .map(|d| {
            let datum = cache.datum(DataId(d));
            solve_masked_path(&grid, datum, &free, Solver::DistanceTransform, &mut ws)
                .expect("all-free maps admit every path")
        })
        .collect();
    Schedule::new(grid, centers)
}

/// Run `f` once, returning its result and wall-clock time.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

fn main() {
    println!("GOMCDS solver ablation: naive O(m^2) vs 2-D transform O(m) vs separable O(w+h)\n");

    // 1. identical schedules on the paper set: the three solvers under
    // unbounded memory, and the naive and fast replays (whose colliding
    // data re-solve masked) under the paper's 2x memory.
    let memory = MemoryPolicy::ScaledMinimum { factor: 2 };
    for grid in [Grid::new(4, 4), Grid::new(32, 8)] {
        for bench in Benchmark::paper_set() {
            let (trace, _) = windowed(bench, grid, 16, 2, 1998);
            let label = format!(
                "{}x{} benchmark {}",
                grid.width(),
                grid.height(),
                bench.label()
            );
            let naive = schedule(Method::GomcdsNaive, &trace, MemoryPolicy::Unbounded);
            let fast = schedule(Method::Gomcds, &trace, MemoryPolicy::Unbounded);
            assert_eq!(
                naive,
                transform_2d(&trace),
                "2-D transform diverged on {label}"
            );
            assert_eq!(naive, fast, "separable solver diverged on {label}");
            let a = schedule(Method::GomcdsNaive, &trace, memory);
            let b = schedule(Method::Gomcds, &trace, memory);
            assert_eq!(a, b, "solver divergence under 2x memory on {label}");
            println!(
                "{label}: schedules identical (cost {} unbounded, {} at 2x)",
                fast.evaluate(&trace).total(),
                b.evaluate(&trace).total()
            );
        }
    }

    // 2. scaling with array size
    println!(
        "\n{:>7} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "grid", "naive", "2-D dt", "separable", "vs naive", "vs 2-D"
    );
    let grids = [(4, 4), (8, 8), (16, 16), (24, 24), (32, 8)];
    for (w, h) in grids {
        let grid = Grid::new(w, h);
        let (trace, _) = windowed(Benchmark::MatMul, grid, 16, 2, 1998);
        let unbounded = MemoryPolicy::Unbounded;
        let (a, naive) = timed(|| schedule(Method::GomcdsNaive, &trace, unbounded));
        let (b, dt) = timed(|| transform_2d(&trace));
        let (c, sep) = timed(|| schedule(Method::Gomcds, &trace, unbounded));
        assert_eq!(a, b, "2-D transform diverged on {w}x{h}");
        assert_eq!(a, c, "separable solver diverged on {w}x{h}");
        let ratio = |slow: Duration| slow.as_secs_f64() / sep.as_secs_f64().max(1e-9);
        println!(
            "{:>4}x{:<2} {:>10.2?} {:>10.2?} {:>10.2?} {:>9.1}x {:>9.1}x",
            w,
            h,
            naive,
            dt,
            sep,
            ratio(naive),
            ratio(dt)
        );
    }
}
