//! Criterion bench: event-driven cycle simulator vs the brute-force
//! oracle on high-contention windows, across grid sizes.
//!
//! The acceptance bar for the rewrite is ≥ 10× over the oracle on the
//! 16×16 high-volume window; `report_all` records the same comparison as
//! `BENCH_cycle.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pim_array::grid::Grid;
use pim_bench::cycle_workload::reversal_window;
use pim_sim::cycle::CycleSim;
use std::hint::black_box;

const VOLUME: u32 = 256;

fn bench_cycle_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("cycle_scaling");
    group.sample_size(10);
    for side in [4u32, 8, 16] {
        let grid = Grid::new(side, side);
        let msgs = reversal_window(&grid, VOLUME);
        let label = format!("{side}x{side}");
        group.bench_with_input(BenchmarkId::new("event", &label), &msgs, |b, msgs| {
            let mut sim = CycleSim::new(grid);
            b.iter(|| black_box(sim.run_window(black_box(msgs)).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("oracle", &label), &msgs, |b, msgs| {
            b.iter(|| {
                black_box(pim_reference::run_window(black_box(&grid), black_box(msgs)).unwrap())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cycle_scaling);
criterion_main!(benches);
