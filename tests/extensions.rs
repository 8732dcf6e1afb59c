//! Integration tests for the beyond-the-paper extensions: exhaustive
//! certification, local-search refinement, read replication, the online
//! policy, and the cycle-level network simulation — all on real benchmark
//! traces.

use pim_array::grid::Grid;
use pim_array::memory::MemorySpec;
use pim_reference::optimal_path_exhaustive;
use pim_sched::gomcds::{gomcds_path, Solver};
use pim_sched::online::{online_schedule, OnlinePolicy};
use pim_sched::refine::refine;
use pim_sched::replicate::replicated_schedule;
use pim_sched::{schedule, CostCache, MemoryPolicy, Method, Workspace};
use pim_trace::ids::DataId;
use pim_workloads::{windowed, Benchmark};
use proptest::prelude::*;

#[test]
fn gomcds_certified_optimal_on_tiny_machines() {
    // Exhaustive enumeration over every center sequence on a 2x2 and a
    // 3x2 array must agree with the DP on real workload reference strings.
    for (w, h, n) in [(2u32, 2u32, 4u32), (3, 2, 4)] {
        let grid = Grid::new(w, h);
        let (trace, _) = windowed(Benchmark::Lu, grid, n, 2, 0);
        assert!(trace.num_windows() <= 7, "keep exhaustive search feasible");
        let cache = CostCache::build_flat(&trace);
        let mut ws = Workspace::new();
        for d in 0..trace.num_data() {
            let d = DataId(d as u32);
            let (_, ex) = optimal_path_exhaustive(&trace, d);
            let (_, go) = gomcds_path(&grid, cache.datum(d), Solver::DistanceTransform, &mut ws);
            assert_eq!(go, ex, "datum {d} on {w}x{h}");
        }
    }
}

#[test]
fn refinement_cannot_improve_gomcds_on_benchmarks() {
    let grid = Grid::new(4, 4);
    for bench in [Benchmark::Lu, Benchmark::CodeReverse] {
        let (trace, _) = windowed(bench, grid, 8, 2, 1998);
        let spec = MemorySpec::unbounded();
        let mut s = schedule(Method::Gomcds, &trace, MemoryPolicy::Unbounded);
        let stats = refine(&trace, &mut s, spec, 50);
        assert_eq!(stats.moves_applied, 0, "{bench}");
    }
}

#[test]
fn refinement_improves_the_baseline_substantially() {
    let grid = Grid::new(4, 4);
    let (trace, space) = windowed(Benchmark::Lu, grid, 16, 2, 0);
    let mut s = space.straightforward(&trace, pim_array::layout::Layout::RowWise);
    let before = s.evaluate(&trace).total();
    refine(&trace, &mut s, MemorySpec::unbounded(), 100);
    let after = s.evaluate(&trace).total();
    assert!(
        after * 2 < before,
        "refined baseline {after} should at least halve {before}"
    );
}

#[test]
fn replication_gains_are_real_and_bounded() {
    let grid = Grid::new(4, 4);
    for bench in Benchmark::paper_set() {
        let (trace, _) = windowed(bench, grid, 8, 2, 1998);
        let spec = MemorySpec::unbounded();
        let single = schedule(Method::Gomcds, &trace, MemoryPolicy::Unbounded)
            .evaluate(&trace)
            .total();
        let repl = replicated_schedule(&trace, spec);
        let dual = repl.evaluate(&trace).total();
        assert!(dual <= single, "{bench}: 2-copy worse than 1-copy");
        assert!(
            dual > 0,
            "{bench}: zero cost is implausible for real traces"
        );
    }
}

#[test]
fn replication_respects_memory() {
    let grid = Grid::new(4, 4);
    let (trace, _) = windowed(Benchmark::MatMul, grid, 8, 2, 0);
    let policy = MemoryPolicy::ScaledMinimum { factor: 2 };
    let spec = policy.resolve(&trace.grid(), trace.num_data());
    let repl = replicated_schedule(&trace, spec);
    // count per-window occupancy including secondaries
    for w in 0..trace.num_windows() {
        let mut occ = vec![0u32; grid.num_procs()];
        for d in 0..trace.num_data() {
            let (p, s) = repl.replicas_of(DataId(d as u32), w);
            occ[p.index()] += 1;
            if let Some(s) = s {
                occ[s.index()] += 1;
            }
        }
        assert!(
            occ.iter().all(|&n| n <= spec.capacity_per_proc),
            "window {w} exceeds capacity: {occ:?}"
        );
    }
}

#[test]
fn online_is_sandwiched_between_offline_and_static() {
    let grid = Grid::new(4, 4);
    for bench in Benchmark::paper_set() {
        let (trace, _) = windowed(bench, grid, 8, 2, 1998);
        let offline = schedule(Method::Gomcds, &trace, MemoryPolicy::Unbounded)
            .evaluate(&trace)
            .total();
        let online = online_schedule(&trace, OnlinePolicy::eager(MemorySpec::unbounded()))
            .unwrap()
            .evaluate(&trace)
            .total();
        assert!(online >= offline, "{bench}: online beat clairvoyance");
    }
}

#[test]
fn cycle_sim_consistent_with_bounds_on_benchmarks() {
    use pim_sim::cycle::run_window;
    use pim_sim::engine::window_messages;
    let grid = Grid::new(4, 4);
    let (trace, _) = windowed(Benchmark::Lu, grid, 8, 2, 0);
    let s = schedule(Method::Gomcds, &trace, MemoryPolicy::Unbounded);
    for w in 0..trace.num_windows() {
        let msgs = window_messages(&trace, &s, w);
        let bound = pim_sim::contention::window_completion_time(&grid, &msgs);
        let r = run_window(&grid, &msgs).expect("benchmark window fits the safety valve");
        assert!(
            r.completion_cycle >= bound,
            "window {w}: simulated {} < bound {bound}",
            r.completion_cycle
        );
        let hop_volume: u64 = msgs
            .iter()
            .filter(|m| !m.is_local())
            .map(|m| grid.dist(m.src, m.dst) * m.volume as u64)
            .sum();
        assert_eq!(r.flit_hops, hop_volume, "window {w}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random tiny traces: exhaustive vs GOMCDS, end to end.
    #[test]
    fn random_tiny_traces_certify_gomcds(
        seed in 0u64..5000,
        nw in 1usize..5,
    ) {
        let grid = Grid::new(2, 2);
        let mut windows = Vec::new();
        let mut s = seed;
        for _ in 0..nw {
            let mut refs = Vec::new();
            for i in 0..(s % 3) {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                refs.push((
                    pim_array::grid::ProcId((s % 4) as u32),
                    (s % 5 + 1) as u32 + i as u32,
                ));
            }
            windows.push(pim_trace::window::WindowRefs::from_pairs(refs));
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        }
        let rs = pim_trace::flat::FlatTrace::from_windows(grid, vec![windows]).unwrap();
        let (_, ex) = optimal_path_exhaustive(&rs, DataId(0));
        let cache = CostCache::build_flat(&rs);
        let datum = cache.datum(DataId(0));
        let (_, go) = gomcds_path(&grid, datum, Solver::DistanceTransform, &mut Workspace::new());
        prop_assert_eq!(go, ex);
    }
}
