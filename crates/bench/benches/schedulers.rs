//! Criterion bench: end-to-end scheduling throughput of every method on
//! the paper benchmarks (4×4 array, 16×16 data, memory = 2× minimum).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pim_array::grid::{Grid, ProcId};
use pim_sched::grouping::{greedy_grouping_cached, optimal_grouping_cached, GroupMethod};
use pim_sched::{compare_methods, schedule, DatumCostCache, MemoryPolicy, Method, Workspace};
use pim_trace::window::{DataRefString, WindowRefs};
use pim_workloads::{windowed, Benchmark};
use std::hint::black_box;

fn bench_schedulers(c: &mut Criterion) {
    let grid = Grid::new(4, 4);
    let memory = MemoryPolicy::ScaledMinimum { factor: 2 };
    let mut group = c.benchmark_group("schedulers");
    for bench in [Benchmark::Lu, Benchmark::MatMulCode] {
        let (trace, _) = windowed(bench, grid, 16, 2, 1998);
        for method in [
            Method::Scds,
            Method::Lomcds,
            Method::Gomcds,
            Method::GroupedLocal,
        ] {
            group.bench_with_input(
                BenchmarkId::new(method.name(), bench.label()),
                &trace,
                |b, trace| {
                    b.iter(|| {
                        let s = schedule(method, black_box(trace), memory);
                        black_box(s.evaluate(trace).total())
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_parallel_speedup(c: &mut Criterion) {
    let grid = Grid::new(8, 8);
    let (trace, _) = windowed(Benchmark::MatMul, grid, 32, 2, 1998);
    let mut group = c.benchmark_group("gomcds_parallel");
    group.sample_size(20);
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let pool = pim_par::Pool::with_threads(threads);
                b.iter(|| {
                    black_box(
                        pim_sched::Run::new(black_box(&trace))
                            .policy(MemoryPolicy::Unbounded)
                            .parallel(pool)
                            .run_method(Method::Gomcds),
                    )
                })
            },
        );
    }
    group.finish();
}

/// The tentpole measurement: every method through the shared cost-table
/// cache (`schedule`) against the pre-cache reference
/// (`pim_reference::schedule`), plus the whole `compare_methods` sweep where
/// one cache serves all five methods.
fn bench_cached_vs_uncached(c: &mut Criterion) {
    let grid = Grid::new(4, 4);
    let memory = MemoryPolicy::ScaledMinimum { factor: 2 };
    let (trace, _) = windowed(Benchmark::LuCode, grid, 16, 2, 1998);
    let mut group = c.benchmark_group("cached_vs_uncached");
    group.sample_size(10);
    for method in [
        Method::Scds,
        Method::Lomcds,
        Method::Gomcds,
        Method::GroupedLocal,
        Method::GroupedGomcds,
    ] {
        group.bench_with_input(
            BenchmarkId::new("cached", method.name()),
            &trace,
            |b, trace| b.iter(|| black_box(schedule(method, black_box(trace), memory))),
        );
        group.bench_with_input(
            BenchmarkId::new("uncached", method.name()),
            &trace,
            |b, trace| {
                b.iter(|| black_box(pim_reference::schedule(method, black_box(trace), memory)))
            },
        );
    }
    group.bench_with_input(
        BenchmarkId::new("compare_methods", "cached"),
        &trace,
        |b, trace| b.iter(|| black_box(compare_methods(black_box(trace), memory))),
    );
    group.bench_with_input(
        BenchmarkId::new("compare_methods", "uncached"),
        &trace,
        |b, trace| {
            b.iter(|| {
                let costs: Vec<u64> = [
                    Method::Scds,
                    Method::Lomcds,
                    Method::Gomcds,
                    Method::GroupedLocal,
                    Method::GroupedGomcds,
                ]
                .into_iter()
                .map(|m| {
                    pim_reference::schedule(m, black_box(trace), memory)
                        .unwrap()
                        .evaluate(trace)
                        .total()
                })
                .collect();
                black_box(costs)
            })
        },
    );
    group.finish();
}

/// Grouping-decision scaling: the incremental greedy (Algorithm 3) and the
/// `O(t²)` optimal DP over a synthetic reference string as the window count
/// grows 8 → 128. The greedy should scale linearly in evaluations; the DP
/// quadratically in the referenced-window count.
fn bench_grouping_scaling(c: &mut Criterion) {
    let grid = Grid::new(4, 4);
    let m = grid.num_procs() as u64;
    // Deterministic synthetic drift: a hotspot that wanders across the
    // array with a little multiplicative noise — windows near each other
    // reference near-by processors, so grouping decisions are non-trivial.
    let make_refs = |windows: usize| {
        let per_window = (0..windows)
            .map(|w| {
                let s = (w as u64).wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17);
                let pairs = (0..(s % 3 + 1)).map(move |i| {
                    let p = (s.wrapping_add(i.wrapping_mul(29)) ^ (w as u64 / 8)) % m;
                    (ProcId(p as u32), (s >> (8 + i)) as u32 % 5 + 1)
                });
                WindowRefs::from_pairs(pairs)
            })
            .collect();
        DataRefString::new(per_window)
    };
    let mut group = c.benchmark_group("grouping_scaling");
    for windows in [8usize, 16, 32, 64, 128] {
        let rs = make_refs(windows);
        let cache = DatumCostCache::build(&grid, &rs);
        cache.ensure_tables();
        group.bench_with_input(BenchmarkId::new("greedy", windows), &cache, |b, cache| {
            let mut ws = Workspace::new();
            b.iter(|| {
                black_box(greedy_grouping_cached(
                    &grid,
                    black_box(cache),
                    GroupMethod::LocalCenters,
                    &mut ws,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("dp", windows), &cache, |b, cache| {
            let mut ws = Workspace::new();
            b.iter(|| black_box(optimal_grouping_cached(&grid, black_box(cache), &mut ws)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_schedulers,
    bench_parallel_speedup,
    bench_cached_vs_uncached,
    bench_grouping_scaling
);
criterion_main!(benches);
