//! One-shot experiment report: runs every reproduction target and ablation
//! at reduced sizes and prints a combined summary — the quick way to sanity
//! check a checkout (`cargo run --release -p pim-bench --bin report_all`).
//! For the full paper-sized tables use the individual binaries.
//!
//! Also emits `BENCH_sched.json` (in the working directory): machine-readable
//! wall times and total costs of the cached scheduling path against the
//! pre-cache reference, per method × benchmark × size — each row carrying a
//! `"metrics"` object (cache/phase/placement/pool counters from one observed
//! run) — plus the `compare_methods` headline on the paper's benchmark 3 at
//! 32×32 data.

use pim_array::grid::Grid;
use pim_array::layout::Layout;
use pim_bench::cycle_workload::reversal_window;
use pim_bench::experiments::{paper_config, run_table, PaperConfig};
use pim_bench::table;
use pim_bench::timing::{bench_ns, warn_if_slower};
use pim_sched::registry::schedulers;
use pim_sched::schedule::improvement_pct;
use pim_sched::{compare_methods, registry, schedule, MemoryPolicy, Method, Run};
use pim_workloads::{windowed, Benchmark};
use std::fmt::Write as _;
use std::hint::black_box;

fn main() {
    let cfg = PaperConfig {
        sizes: [8, 16, 16],
        ..paper_config()
    };

    println!("=== pim-sched experiment summary (reduced sizes; see individual bins) ===\n");

    let rows = run_table(&cfg, &schedulers(&["scds", "lomcds", "gomcds"]));
    print!("{}", table::render("Table 1 (reduced)", &rows));
    println!();

    let rows = run_table(
        &cfg,
        &schedulers(&["scds", "grouped-lomcds", "grouped-gomcds"]),
    );
    print!("{}", table::render("Table 2 (reduced)", &rows));
    println!();

    // Figure 1 cross-check.
    {
        use pim_workloads::paper_example::{expectation, figure1_trace};
        let (trace, _) = figure1_trace();
        let exp = expectation();
        let ok = [
            (Method::Scds, exp.scds_cost),
            (Method::Lomcds, exp.lomcds_cost),
            (Method::Gomcds, exp.gomcds_cost),
        ]
        .into_iter()
        .all(|(m, want)| {
            schedule(m, &trace, MemoryPolicy::Unbounded)
                .evaluate(&trace)
                .total()
                == want
        });
        println!(
            "Figure 1 example: centers and costs match the paper's prose: {}",
            if ok { "yes" } else { "NO" }
        );
    }

    // Headline cross-cutting numbers.
    let grid = Grid::new(4, 4);
    let (trace, space) = windowed(Benchmark::LuCode, grid, 16, 2, 1998);
    let sf = space
        .straightforward(&trace, Layout::RowWise)
        .evaluate(&trace)
        .total();
    let memory = MemoryPolicy::ScaledMinimum { factor: 2 };
    let go = schedule(Method::Gomcds, &trace, memory)
        .evaluate(&trace)
        .total();
    println!(
        "benchmark 3 spotlight: S.F. {sf}, GOMCDS {go} ({:.1}% better)",
        improvement_pct(sf, go)
    );

    let spec = memory.resolve(&trace.grid(), trace.num_data());
    let repl = pim_sched::replicate::replicated_schedule(&trace, spec);
    println!(
        "  + 2-copy replication: {} ({:.1}% further)",
        repl.evaluate(&trace).total(),
        improvement_pct(go, repl.evaluate(&trace).total())
    );

    let lb = pim_sched::bounds::reference_lower_bound(&trace);
    println!("  single-copy lower bound: {lb} (gap to optimum {:.1}%)", {
        (go as f64 - lb as f64) / lb as f64 * 100.0
    });

    // Machine-readable scheduling benchmark: cached vs pre-cache wall
    // times. Written last so a crash above leaves no stale file behind.
    let json = bench_sched_json();
    std::fs::write("BENCH_sched.json", &json).expect("write BENCH_sched.json");
    println!("\nwrote BENCH_sched.json");

    // Machine-readable cycle-simulator benchmark: the event-driven rewrite
    // against the brute-force oracle on high-contention windows.
    let json = bench_cycle_json();
    std::fs::write("BENCH_cycle.json", &json).expect("write BENCH_cycle.json");
    println!("wrote BENCH_cycle.json");

    println!("\nall consistency assertions passed");
}

/// The paper method a comparison-set scheduler implements; its reference
/// implementation is `pim_reference::schedule` of that method.
fn paper_method(scheduler: &dyn pim_sched::Scheduler) -> Method {
    Method::parse(scheduler.name()).expect("comparison-set schedulers are paper methods")
}

/// Time the registry's comparison set against its pre-cache reference
/// (`pim_reference::schedule`, the `uncached_ns` column) over benchmark ×
/// size, plus the `compare_methods` headline (benchmark 3, 32×32 data, 4×4
/// array), and render the results as JSON (hand-rolled; the offline build
/// has no JSON crate and the schema is flat). Grouped rows also
/// isolate the Algorithm 3 grouping-decision phase (`grouping_ns`), and
/// any row whose cached path loses to the reference is warned about on
/// stderr. Any newly registered scheduler with `in_comparison()` shows up
/// here automatically.
fn bench_sched_json() -> String {
    let compare_set: Vec<&dyn pim_sched::Scheduler> = registry().comparison_set().collect();
    let grid = Grid::new(4, 4);
    let memory = MemoryPolicy::ScaledMinimum { factor: 2 };

    let mut json = String::from("{\n");
    json.push_str("  \"config\": {\"grid\": \"4x4\", \"memory\": \"scaled_minimum_x2\", \"steps_per_window\": 2, \"seed\": 1998},\n");
    json.push_str("  \"rows\": [\n");
    let mut first = true;
    for bench in [Benchmark::Lu, Benchmark::LuCode] {
        for size in [8u32, 16] {
            let (trace, _) = windowed(bench, grid, size, 2, 1998);
            for &scheduler in &compare_set {
                let (cached_ns, sched) = bench_ns(10, || {
                    Run::new(&trace)
                        .policy(memory)
                        .run(scheduler)
                        .unwrap_or_else(|e| panic!("{e}"))
                });
                let method = paper_method(scheduler);
                let (uncached_ns, _) = bench_ns(10, || {
                    pim_reference::schedule(method, &trace, memory)
                        .unwrap_or_else(|e| panic!("{e}"))
                });
                // One extra observed run per row (outside the timing loop,
                // so collection can't skew the wall times): cache, phase,
                // placement and pool counters for this scheduler alone.
                let metrics = pim_sched::Metrics::enabled();
                Run::new(&trace)
                    .policy(memory)
                    .metrics(metrics.clone())
                    .run(scheduler)
                    .unwrap_or_else(|e| panic!("{e}"));
                let metrics_json = metrics.report().to_json();
                // Isolate the Algorithm 3 grouping-decision phase for the
                // grouped methods (greedy over every datum, cached); other
                // methods have no grouping phase and report 0.
                let grouping_ns = if scheduler.name().starts_with("Grouped") {
                    let cache = pim_sched::CostCache::build_flat(&trace);
                    let mut ws = pim_sched::Workspace::new();
                    let tgrid = trace.grid();
                    bench_ns(10, || {
                        for d in 0..trace.num_data() as u32 {
                            black_box(pim_sched::grouping::greedy_grouping(
                                &tgrid,
                                cache.datum(pim_trace::ids::DataId(d)),
                                pim_sched::grouping::GroupMethod::LocalCenters,
                                &mut ws,
                            ));
                        }
                    })
                    .0
                } else {
                    0
                };
                let cost = sched.evaluate(&trace).total();
                let speedup = uncached_ns as f64 / cached_ns.max(1) as f64;
                warn_if_slower(
                    &format!(
                        "{} on benchmark {} size {size}: cached path",
                        scheduler.name(),
                        bench.label(),
                    ),
                    speedup,
                );
                if !first {
                    json.push_str(",\n");
                }
                first = false;
                write!(
                    json,
                    "    {{\"benchmark\": \"{}\", \"size\": {size}, \"method\": \"{}\", \
                     \"total_cost\": {cost}, \"cached_ns\": {cached_ns}, \
                     \"uncached_ns\": {uncached_ns}, \"grouping_ns\": {grouping_ns}, \
                     \"speedup\": {speedup:.3}, \"metrics\": {metrics_json}}}",
                    bench.label(),
                    scheduler.name(),
                )
                .expect("write to String cannot fail");
            }
        }
    }
    json.push_str("\n  ],\n");

    // Headline: the full compare_methods sweep, where one shared cost cache
    // serves all five methods, on the paper's benchmark 3 at 32×32 data.
    let (trace, _) = windowed(Benchmark::LuCode, grid, 32, 2, 1998);
    let (cached_ns, costs) = bench_ns(5, || compare_methods(&trace, memory));
    let (uncached_ns, uncached_costs) = bench_ns(5, || {
        compare_set
            .iter()
            .map(|&s| {
                let sched = pim_reference::schedule(paper_method(s), &trace, memory)
                    .unwrap_or_else(|e| panic!("{e}"));
                (s.name(), sched.evaluate(&trace).total())
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(costs, uncached_costs, "cached diverged from reference");
    let speedup = uncached_ns as f64 / cached_ns.max(1) as f64;
    warn_if_slower("compare_methods headline: cached path", speedup);
    write!(
        json,
        "  \"compare_methods\": {{\"benchmark\": \"3\", \"size\": 32, \"grid\": \"4x4\", \
         \"cached_ns\": {cached_ns}, \"uncached_ns\": {uncached_ns}, \
         \"speedup\": {speedup:.3}, \"costs\": {{"
    )
    .expect("write to String cannot fail");
    for (i, (name, c)) in costs.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        write!(json, "\"{name}\": {c}").expect("write to String cannot fail");
    }
    json.push_str("}}\n}\n");

    println!(
        "\ncached-vs-uncached headline (benchmark 3, 32x32 data, 4x4 array): \
         compare_methods {:.2}x faster ({:.1} ms vs {:.1} ms)",
        speedup,
        cached_ns as f64 / 1e6,
        uncached_ns as f64 / 1e6,
    );
    json
}

/// Time the event-driven cycle simulator and the brute-force oracle on the
/// same high-contention reversal window per grid size, assert they still
/// agree bit for bit, and render the rows as JSON (`oracle_ns` is the old
/// implementation, `pim_reference::run_window`; `event_ns` the rewrite).
/// Mirrors `bench_sched_json`'s convention: any row where the rewrite loses
/// is warned about on stderr.
fn bench_cycle_json() -> String {
    use pim_sim::cycle::CycleSim;

    const VOLUME: u32 = 256;
    let mut json = String::from("{\n");
    json.push_str("  \"config\": {\"pattern\": \"reversal\", \"volume_per_message\": 256},\n");
    json.push_str("  \"rows\": [\n");
    println!();
    for (i, side) in [4u32, 8, 16].into_iter().enumerate() {
        let grid = Grid::new(side, side);
        let msgs = reversal_window(&grid, VOLUME);
        let mut sim = CycleSim::new(grid);
        // The oracle is O(cycles × flits in flight); keep its rep count low
        // on the big grid so the report stays quick.
        let reps = if side >= 16 { 3 } else { 10 };
        let (event_ns, event) = bench_ns(reps, || sim.run_window(&msgs).expect("event sim"));
        let (oracle_ns, oracle) = bench_ns(reps, || {
            pim_reference::run_window(&grid, &msgs).expect("oracle sim")
        });
        assert_eq!(event, oracle, "event-driven diverged from the oracle");
        let speedup = oracle_ns as f64 / event_ns.max(1) as f64;
        warn_if_slower(
            &format!("cycle sim on {side}x{side}: event-driven path"),
            speedup,
        );
        if i > 0 {
            json.push_str(",\n");
        }
        write!(
            json,
            "    {{\"grid\": \"{side}x{side}\", \"messages\": {}, \
             \"volume_per_message\": {VOLUME}, \"completion_cycles\": {}, \
             \"flit_hops\": {}, \"peak_in_flight\": {}, \
             \"oracle_ns\": {oracle_ns}, \"event_ns\": {event_ns}, \
             \"speedup\": {speedup:.3}}}",
            msgs.len(),
            event.completion_cycle,
            event.flit_hops,
            event.peak_in_flight,
        )
        .expect("write to String cannot fail");
        println!(
            "cycle sim {side}x{side} reversal window: event {:.3} ms vs oracle {:.3} ms \
             ({speedup:.1}x)",
            event_ns as f64 / 1e6,
            oracle_ns as f64 / 1e6,
        );
    }
    json.push_str("\n  ]\n}\n");
    json
}
