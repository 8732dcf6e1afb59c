//! Real benchmark traces round-trip bit-identically through the `.pimb`
//! binary container, the path `pim-cli export` and `run --trace` take.

use pim_array::grid::Grid;
use pim_trace::binfmt::{encode_flat, read_flat};
use pim_trace::flat::FlatTrace;
use pim_workloads::{windowed, Benchmark};

fn roundtrip(trace: &FlatTrace) -> FlatTrace {
    let bytes = encode_flat(trace);
    read_flat(&bytes).unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn every_benchmark_roundtrips() {
    let grid = Grid::new(4, 4);
    for bench in Benchmark::paper_set() {
        let (trace, _) = windowed(bench, grid, 8, 2, 1998);
        assert_eq!(roundtrip(&trace), trace, "{bench}");
    }
}

#[test]
fn schedules_survive_trace_roundtrip() {
    use pim_sched::{schedule, MemoryPolicy, Method};
    let grid = Grid::new(4, 4);
    let (trace, _) = windowed(Benchmark::CodeReverse, grid, 8, 2, 5);
    let restored = roundtrip(&trace);
    // scheduling the restored trace gives bit-identical results
    let a = schedule(Method::Gomcds, &trace, MemoryPolicy::Unbounded);
    let b = schedule(Method::Gomcds, &restored, MemoryPolicy::Unbounded);
    assert_eq!(a, b);
}
