//! Criterion bench: the extension algorithms — Algorithm 3 grouping
//! (greedy vs DP-optimal), local-search refinement, replication, and the
//! online policy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pim_array::grid::Grid;
use pim_array::memory::MemorySpec;
use pim_sched::grouping::{greedy_grouping, optimal_grouping, GroupMethod};
use pim_sched::online::{online_schedule, OnlinePolicy};
use pim_sched::refine::refine;
use pim_sched::replicate::replicated_schedule;
use pim_sched::{schedule, CostCache, MemoryPolicy, Method, Workspace};
use pim_trace::ids::DataId;
use pim_workloads::{windowed, Benchmark};
use std::hint::black_box;

fn bench_grouping(c: &mut Criterion) {
    let grid = Grid::new(4, 4);
    let (trace, _) = windowed(Benchmark::CodeReverse, grid, 16, 1, 1998);
    let cache = CostCache::build_flat(&trace);
    let data: Vec<_> = (0..trace.num_data())
        .map(|d| cache.datum(DataId(d as u32)))
        .collect();
    let mut ws = Workspace::new();
    let mut group = c.benchmark_group("grouping");
    group.sample_size(15);
    group.bench_function("greedy_all_data", |b| {
        b.iter(|| {
            data.iter()
                .map(|dc| greedy_grouping(&grid, black_box(dc), GroupMethod::LocalCenters, &mut ws))
                .map(|groups| groups.len())
                .sum::<usize>()
        })
    });
    group.bench_function("optimal_all_data", |b| {
        b.iter(|| {
            data.iter()
                .map(|dc| optimal_grouping(&grid, black_box(dc), &mut ws).1)
                .sum::<u64>()
        })
    });
    group.finish();
}

fn bench_extensions(c: &mut Criterion) {
    let grid = Grid::new(4, 4);
    let (trace, _) = windowed(Benchmark::MatMulCode, grid, 16, 2, 1998);
    let spec = MemorySpec::unbounded();
    let mut group = c.benchmark_group("extensions");
    group.sample_size(15);
    group.bench_function("replicate_2copy", |b| {
        b.iter(|| black_box(replicated_schedule(black_box(&trace), spec)))
    });
    group.bench_function("online_eager", |b| {
        b.iter(|| {
            black_box(online_schedule(
                black_box(&trace),
                OnlinePolicy::eager(spec),
            ))
        })
    });
    group.bench_with_input(
        BenchmarkId::new("refine_from", "rowwise-baseline"),
        &trace,
        |b, trace| {
            let base = schedule(Method::Scds, trace, MemoryPolicy::Unbounded);
            b.iter(|| {
                let mut s = base.clone();
                black_box(refine(trace, &mut s, spec, 100))
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_grouping, bench_extensions);
criterion_main!(benches);
