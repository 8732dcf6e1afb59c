//! `pim-cli` — run PIM data-scheduling experiments from the command line.

use pim_cli::args::{self, Command};
use pim_cli::render;
use pim_par::Pool;
use pim_sched::{Metrics, Run};
use pim_trace::stats::trace_stats;
use pim_workloads::windowed;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args::parse(&argv) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    if parsed.command == Command::Scale {
        return run_scale(&parsed);
    }
    if parsed.command == Command::Serve {
        return run_serve(&parsed);
    }
    if parsed.command == Command::Pack {
        return run_pack(&parsed);
    }
    if parsed.command == Command::Unpack {
        return run_unpack(&parsed);
    }
    if parsed.command == Command::Run && parsed.bin {
        return run_bin(&parsed);
    }
    if parsed.command == Command::ListMethods {
        println!("registered scheduling methods:");
        for s in pim_sched::registry().iter() {
            let par = if s.parallelizable() {
                "  [parallel]"
            } else {
                ""
            };
            let dag = if s.precedence_aware() { "  [dag]" } else { "" };
            let incr = if s.incremental() {
                "  [incremental]"
            } else {
                ""
            };
            let cmp = if s.in_comparison() {
                ""
            } else {
                "  [not in compare]"
            };
            println!(
                "  {:<16} {}{par}{dag}{incr}{cmp}",
                s.name(),
                s.description()
            );
        }
        return ExitCode::SUCCESS;
    }

    let (trace, space) = if let Some(path) = &parsed.trace_file {
        if parsed.command == Command::Compare {
            eprintln!("`compare` needs the data-array shape; it cannot run from --trace");
            return ExitCode::FAILURE;
        }
        match pim_trace::binfmt::load_flat(path) {
            Ok(flat) => {
                println!("loaded trace from {path}");
                let n = (flat.num_data() as f64).sqrt().ceil() as u32;
                (flat, pim_workloads::DataSpace::single(n.max(1)).0)
            }
            Err(e) => {
                let verb = match e {
                    pim_trace::BinError::Io(_) => "read",
                    _ => "decode",
                };
                eprintln!("cannot {verb} {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        windowed(
            parsed.bench,
            parsed.grid,
            parsed.size,
            parsed.window,
            parsed.seed,
        )
    };
    if parsed.trace_file.is_none() {
        println!(
            "benchmark {} ({}), {}x{} data on {}, {} windows, memory {:?}",
            parsed.bench.label(),
            parsed.bench.name(),
            parsed.size,
            parsed.size,
            parsed.grid,
            trace.num_windows(),
            parsed.memory,
        );
    } else {
        println!(
            "{} data, {} windows on {}, memory {:?}",
            trace.num_data(),
            trace.num_windows(),
            trace.grid(),
            parsed.memory,
        );
    }

    // `--dag` resolves before the Run is built: the borrow has to outlive
    // the scheduling context.
    let dag = match load_dag(&parsed, &trace) {
        Ok(d) => d,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    // Observability is opt-in: a disabled handle records nothing and the
    // schedule is bit-identical either way.
    let metrics = if parsed.metrics_out.is_some() {
        Metrics::enabled()
    } else {
        Metrics::disabled()
    };
    let sim_pool = if parsed.threads > 0 {
        Pool::with_threads(parsed.threads)
    } else {
        Pool::serial()
    };
    let mut run = Run::new(&trace)
        .policy(parsed.memory)
        .metrics(metrics.clone());
    if parsed.threads > 0 {
        run = run.parallel(Pool::with_threads(parsed.threads));
    }
    if let Some(d) = &dag {
        run = run.dag(d);
    }

    match parsed.command {
        Command::Run => {
            let s = match run.run_named(&parsed.method) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("{}", render::breakdown(&parsed.method, s.evaluate(&trace)));
            println!(
                "moves: {}, max occupancy: {}",
                s.num_moves(),
                s.max_occupancy()
            );
            let dag_cycles = if let Some(d) = &dag {
                match pim_sim::simulate_cycles_dag(&trace, &s, d, sim_pool) {
                    Ok(c) => {
                        let total: u64 = c.iter().map(|w| w.completion_cycle).sum();
                        println!(
                            "dag-gated completion: {total} cycles ({} tasks, {} edges)",
                            d.num_tasks(),
                            d.edges().len()
                        );
                        Some(c)
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                None
            };
            if let Some(path) = &parsed.metrics_out {
                let sim = pim_sim::simulate(&trace, &s, sim_pool);
                let cycles = match pim_sim::simulate_cycles_observed(&trace, &s, sim_pool, &metrics)
                {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let mut report = pim_sim::RunReport::from_parts(
                    &parsed.method,
                    parsed.memory,
                    s.evaluate(&trace),
                    &sim,
                    &cycles,
                    metrics.report(),
                );
                if let Some(c) = &dag_cycles {
                    report = report.with_dag_cycles(c);
                }
                println!(
                    "simulated completion: {} cycles over {} windows (peak {} flits in flight)",
                    report.simulated_completion_cycles,
                    report.window_completion_cycles.len(),
                    report.peak_in_flight
                );
                if let Err(e) = std::fs::write(path, report.to_json()) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("wrote run metrics to {path}");
            }
        }
        Command::Compare => {
            let sf = space
                .straightforward(&trace, pim_array::layout::Layout::RowWise)
                .evaluate(&trace)
                .total();
            let mut rows = Vec::new();
            for s in pim_sched::registry().comparison_set() {
                let sched = match run.run(s) {
                    Ok(sched) => sched,
                    Err(e) => {
                        eprintln!("error: {}: {e}", s.name());
                        return ExitCode::FAILURE;
                    }
                };
                let cost = sched.evaluate(&trace).total();
                rows.push((
                    s.name().to_string(),
                    cost,
                    pim_sched::schedule::improvement_pct(sf, cost),
                ));
            }
            print!("{}", render::comparison_table(sf, &rows));
            if let Some(path) = &parsed.metrics_out {
                // One isolated report per method: each gets its own sink so
                // cache/placement counters don't mix across schedulers.
                let mut reports = Vec::new();
                for s in pim_sched::registry().comparison_set() {
                    match pim_sim::collect_run_report(
                        s.name(),
                        &trace,
                        parsed.memory,
                        sim_pool,
                        Metrics::enabled(),
                    ) {
                        Ok((_, r)) => reports.push(r.to_json()),
                        Err(e) => {
                            eprintln!("error: {}: {e}", s.name());
                            return ExitCode::FAILURE;
                        }
                    }
                }
                let json = format!("[{}]", reports.join(","));
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("wrote per-method metrics to {path}");
            }
        }
        Command::Stats => {
            let st = trace_stats(&trace);
            println!("data items:            {}", st.num_data);
            println!("windows:               {}", st.num_windows);
            println!("total reference volume {}", st.total_volume);
            println!("never referenced:      {}", st.never_referenced);
            println!("procs per window:      {:.2}", st.mean_procs_per_window);
            println!("spatial spread:        {:.2}", st.mean_spread);
            println!("inter-window drift:    {:.2}", st.mean_drift);
        }
        Command::Simulate => {
            let (s, report) = match pim_sim::simulate_named(
                &parsed.method,
                &trace,
                parsed.memory,
                Pool::auto(),
            ) {
                Ok(pair) => pair,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            print!("{report}");
            let analytic = s.evaluate(&trace).total();
            assert_eq!(
                report.total_hop_volume(),
                analytic,
                "simulator/cost-model divergence — this is a bug"
            );
            println!("(simulated hop-volume matches analytic cost: {analytic})");
            let traffic = pim_sim::traffic::traffic_map(&trace, &s);
            println!(
                "forwarded volume {} ; busiest node {} ({} units)",
                traffic.total_forwarded(),
                traffic.busiest().0,
                traffic.busiest().1.total()
            );
            println!("\nnode traffic and link utilization:");
            print!(
                "{}",
                pim_sim::heatmap::render(&trace.grid(), &report, &traffic)
            );
        }
        Command::Refine => {
            let spec = parsed.memory.resolve(&trace.grid(), trace.num_data());
            let mut s = match run.run_named(&parsed.method) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let before = s.evaluate(&trace).total();
            let stats = pim_sched::refine::refine(&trace, &mut s, spec, 100);
            println!(
                "{}: {} -> {} ({} moves over {} sweeps)",
                parsed.method,
                before,
                s.evaluate(&trace).total(),
                stats.moves_applied,
                stats.sweeps
            );
        }
        Command::Replicate => {
            let spec = parsed.memory.resolve(&trace.grid(), trace.num_data());
            let single = match run.run_named("gomcds") {
                Ok(s) => s.evaluate(&trace).total(),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let repl = pim_sched::replicate::replicated_schedule(&trace, spec);
            let dual = repl.evaluate(&trace).total();
            println!(
                "1-copy GOMCDS: {single}; 2-copy: {dual} ({} secondary slots, {:.1}% gain)",
                repl.secondary_slots(),
                (single as f64 - dual as f64) / single as f64 * 100.0
            );
        }
        Command::Export => {
            let Some(path) = &parsed.out else {
                eprintln!("export needs --out FILE");
                return ExitCode::FAILURE;
            };
            if let Some(d) = &dag {
                // `export --dag` writes the (validated) DAG, not the trace:
                // the natural chain of a kernel becomes a reusable JSON file.
                if let Err(e) = std::fs::write(path, d.to_json()) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!(
                    "wrote task dag ({} tasks, {} edges over {} windows) to {path}",
                    d.num_tasks(),
                    d.edges().len(),
                    d.num_windows()
                );
            } else {
                // The trace goes out as the flat binary container, which
                // `run --trace` (and `run --bin`, `serve` `path`) loads back.
                match pim_trace::binfmt::pack_file(&trace, path) {
                    Ok(bytes) => println!(
                        "wrote {bytes} bytes (binary flat trace, {} data x {} windows) to {path}",
                        trace.num_data(),
                        trace.num_windows()
                    ),
                    Err(e) => {
                        eprintln!("cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        Command::Explain => {
            use pim_sched::explain::{render_data, summarize};
            let s = match run.run_named(&parsed.method) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let sum = summarize(&trace, &s);
            println!(
                "{}: total {} (movement {}, {} moves, total regret {})",
                parsed.method, sum.total, sum.movement, sum.moves, sum.total_regret
            );
            // narrate the five costliest data
            let mut by_cost: Vec<(u64, u32)> = (0..trace.num_data() as u32)
                .map(|d| {
                    let d = pim_trace::ids::DataId(d);
                    let cost = pim_sched::flat::datum_cost(
                        &trace.grid(),
                        trace.span(d),
                        s.centers_of(d),
                        1,
                    );
                    (cost.total(), d.0)
                })
                .collect();
            by_cost.sort_unstable_by(|a, b| b.cmp(a));
            println!("\ncostliest data:");
            for &(cost, d) in by_cost.iter().take(5) {
                if cost == 0 {
                    break;
                }
                print!("{}", render_data(&trace, &s, pim_trace::ids::DataId(d)));
            }
        }
        Command::Windows => {
            use pim_sched::grouping::{greedy_grouping, GroupMethod};
            let grid = trace.grid();
            let cache = pim_sched::CostCache::build_flat(&trace);
            let mut ws = pim_sched::Workspace::new();
            let mut sizes = vec![0u64; trace.num_windows() + 1];
            let mut grouped_data = 0usize;
            for d in 0..trace.num_data() {
                let datum = cache.datum(pim_trace::ids::DataId(d as u32));
                let groups = greedy_grouping(&grid, datum, GroupMethod::LocalCenters, &mut ws);
                if groups.len() < trace.num_windows() {
                    grouped_data += 1;
                }
                for g in &groups {
                    sizes[g.len()] += 1;
                }
            }
            println!(
                "Algorithm 3 grouped {} of {} data into fewer windows",
                grouped_data,
                trace.num_data()
            );
            println!("group-size histogram (windows per group -> count):");
            for (len, count) in sizes.iter().enumerate().filter(|&(_, &c)| c > 0) {
                println!("  {len:>3} -> {count}");
            }
        }
        Command::ListMethods
        | Command::Scale
        | Command::Serve
        | Command::Pack
        | Command::Unpack => {
            unreachable!("handled before trace construction")
        }
    }
    ExitCode::SUCCESS
}

/// Resolve `--dag`: `natural` derives the benchmark's step-chain DAG,
/// anything else loads a JSON file. Either way the DAG is validated
/// against the trace before use.
fn load_dag(
    parsed: &pim_cli::args::ParsedArgs,
    trace: &pim_trace::flat::FlatTrace,
) -> Result<Option<pim_trace::dag::TaskDag>, String> {
    let Some(spec) = &parsed.dag else {
        return Ok(None);
    };
    let dag = if spec == "natural" {
        pim_workloads::natural_dag(
            parsed.bench,
            parsed.grid,
            parsed.size,
            parsed.window,
            parsed.seed,
        )
        .ok_or_else(|| {
            format!(
                "benchmark {} has no natural dag (chain kernels: 1 (LU), cholesky, trisolve)",
                parsed.bench.name()
            )
        })?
    } else {
        let text = std::fs::read_to_string(spec).map_err(|e| format!("cannot read {spec}: {e}"))?;
        pim_trace::dag::TaskDag::from_json(&text).map_err(|e| format!("bad dag in {spec}: {e}"))?
    };
    dag.validate_cover(trace)
        .map_err(|e| format!("dag does not match the trace: {e}"))?;
    Ok(Some(dag))
}

/// Run the registered method `method` over any trace view — the owned
/// synthetic instance of `scale` or the memory-mapped `.pimb` of
/// `run --bin` — through the registry's [`Run`] pipeline.
fn registry_schedule(
    method: &str,
    trace: &dyn pim_trace::flat::FlatView,
    memory: pim_sched::MemoryPolicy,
    pool: Pool,
) -> Result<pim_sched::Schedule, String> {
    Run::new(trace)
        .policy(memory)
        .parallel(pool)
        .run_named(method)
        .map_err(|e| e.to_string())
}

/// The `run --bin` path: memory-map a `.pimb` binary trace and schedule
/// it zero-copy off the mapped view.
fn run_bin(parsed: &pim_cli::args::ParsedArgs) -> ExitCode {
    use std::time::Instant;
    let path = parsed.trace_file.as_deref().expect("validated by args");
    let start = Instant::now();
    let bt = match pim_trace::BinTrace::open(path) {
        Ok(bt) => bt,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let load = start.elapsed();
    use pim_trace::flat::FlatView as _;
    println!(
        "{}: {} data x {} windows on {}, {} reference runs{}, opened in {:.1} ms",
        path,
        bt.num_data(),
        bt.num_windows(),
        bt.grid(),
        bt.num_refs(),
        if bt.is_mapped() {
            " (memory-mapped)"
        } else {
            " (decoded)"
        },
        load.as_secs_f64() * 1e3
    );
    let pool = if parsed.threads > 0 {
        Pool::with_threads(parsed.threads)
    } else {
        Pool::serial()
    };
    let start = Instant::now();
    let s = match registry_schedule(&parsed.method, &bt, parsed.memory, pool) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sched = start.elapsed();
    let cost = pim_sched::flat_total_cost(&bt, &s);
    println!("schedule {:.1} ms", sched.as_secs_f64() * 1e3);
    println!("{}", render::breakdown(&parsed.method, cost));
    println!(
        "moves: {}, max occupancy: {}",
        s.num_moves(),
        s.max_occupancy()
    );
    ExitCode::SUCCESS
}

/// The `pack` subcommand: encode a flat trace (a text file via `--trace`,
/// or a synthetic instance) into the `.pimb` binary container.
fn run_pack(parsed: &pim_cli::args::ParsedArgs) -> ExitCode {
    let out = parsed.out.as_deref().expect("validated by args");
    let flat = if let Some(path) = &parsed.trace_file {
        let file = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match pim_trace::flat::FlatTrace::from_reader(std::io::BufReader::new(file)) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot parse {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        println!(
            "packing synthetic instance: {} data x {} windows on {}, seed {}",
            parsed.data, parsed.windows, parsed.grid, parsed.seed
        );
        pim_bench::scale::synthetic_flat(parsed.grid, parsed.windows, parsed.data, parsed.seed)
    };
    match pim_trace::binfmt::pack_file(&flat, out) {
        Ok(bytes) => {
            println!(
                "wrote {bytes} bytes ({} data x {} windows, {} reference runs) to {out}",
                flat.num_data(),
                flat.num_windows(),
                flat.num_refs()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {out}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `unpack` subcommand: decode a `.pimb` back to the flat text format.
fn run_unpack(parsed: &pim_cli::args::ParsedArgs) -> ExitCode {
    let path = parsed.trace_file.as_deref().expect("validated by args");
    let out = parsed.out.as_deref().expect("validated by args");
    let flat = match pim_trace::binfmt::load_flat(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot decode {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(out, flat.to_text()) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {} data x {} windows ({} reference runs) to {out}",
        flat.num_data(),
        flat.num_windows(),
        flat.num_refs()
    );
    ExitCode::SUCCESS
}

/// The `scale` subcommand: synthesize a flat big instance and time the
/// SoA pipeline (CSR build, schedule, cost evaluation) on it.
fn run_scale(parsed: &pim_cli::args::ParsedArgs) -> ExitCode {
    use std::time::Instant;
    let grid = parsed.grid;
    println!(
        "synthetic flat instance: {} data x {} windows on {}, memory {:?}, method {}",
        parsed.data, parsed.windows, grid, parsed.memory, parsed.method
    );
    let records =
        pim_bench::scale::synthetic_records(grid, parsed.windows, parsed.data, parsed.seed);
    let start = Instant::now();
    let flat = match pim_trace::flat::FlatTrace::from_records(
        grid,
        parsed.windows,
        parsed.data,
        records,
    ) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let build = start.elapsed();
    // `--out` persists the instance: the `.pimb` binary container when the
    // path says so, the flat text format otherwise.
    if let Some(out) = &parsed.out {
        let res = if out.ends_with(".pimb") {
            pim_trace::binfmt::pack_file(&flat, out)
                .map(|bytes| format!("{bytes} bytes, binary"))
                .map_err(|e| e.to_string())
        } else {
            let text = flat.to_text();
            std::fs::write(out, &text)
                .map(|()| format!("{} bytes, text", text.len()))
                .map_err(|e| e.to_string())
        };
        match res {
            Ok(what) => println!("wrote instance ({what}) to {out}"),
            Err(e) => {
                eprintln!("cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let pool = if parsed.threads > 0 {
        Pool::with_threads(parsed.threads)
    } else {
        Pool::serial()
    };
    if parsed.bin {
        return scale_stream(parsed, &flat, build, pool);
    }
    let start = Instant::now();
    let s = match registry_schedule(&parsed.method, &flat, parsed.memory, pool) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sched = start.elapsed();
    let cost = pim_sched::flat_total_cost(&flat, &s);
    println!(
        "{} reference runs; build {:.1} ms, schedule {:.1} ms",
        flat.num_refs(),
        build.as_secs_f64() * 1e3,
        sched.as_secs_f64() * 1e3
    );
    println!("{}", render::breakdown(&parsed.method, cost));
    println!(
        "moves: {}, max occupancy: {}, peak RSS {} MB",
        s.num_moves(),
        s.max_occupancy(),
        pim_bench::timing::peak_rss_kb().unwrap_or(0) / 1024
    );
    ExitCode::SUCCESS
}

/// The `scale --bin` path: pack the synthetic instance to a `.pimb` file
/// (reusing `--out` when it already names one, else a temporary) and
/// schedule it through the out-of-core streaming pipeline.
fn scale_stream(
    parsed: &pim_cli::args::ParsedArgs,
    flat: &pim_trace::flat::FlatTrace,
    build: std::time::Duration,
    pool: Pool,
) -> ExitCode {
    use std::time::Instant;
    let method = match parsed.method.as_str() {
        "SCDS" => pim_sched::Method::Scds,
        "LOMCDS" => pim_sched::Method::Lomcds,
        "GOMCDS" => pim_sched::Method::Gomcds,
        other => {
            eprintln!("--bin supports SCDS, LOMCDS and GOMCDS (got '{other}')");
            return ExitCode::FAILURE;
        }
    };
    let (path, temp) = match &parsed.out {
        Some(out) if out.ends_with(".pimb") => (std::path::PathBuf::from(out), false),
        _ => {
            let p = std::env::temp_dir().join(format!("pim_scale_{}.pimb", std::process::id()));
            if let Err(e) = pim_trace::binfmt::pack_file(flat, &p) {
                eprintln!("cannot write {}: {e}", p.display());
                return ExitCode::FAILURE;
            }
            (p, true)
        }
    };
    let start = Instant::now();
    let outcome = pim_sched::stream_schedule(
        &path,
        method,
        parsed.memory,
        pool,
        pim_sched::StreamConfig::default(),
    );
    let sched = start.elapsed();
    if temp {
        let _ = std::fs::remove_file(&path);
    }
    match outcome {
        Ok(o) => {
            println!(
                "{} reference runs streamed in {} chunks; build {:.1} ms, schedule {:.1} ms",
                o.num_refs,
                o.num_chunks,
                build.as_secs_f64() * 1e3,
                sched.as_secs_f64() * 1e3
            );
            println!("{}", render::breakdown(&parsed.method, o.cost));
            println!(
                "peak RSS {} MB",
                pim_bench::timing::peak_rss_kb().unwrap_or(0) / 1024
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `serve` subcommand: run the scheduling daemon on the selected
/// transport until EOF (stdin) or a `shutdown` request (sockets).
fn run_serve(parsed: &pim_cli::args::ParsedArgs) -> ExitCode {
    let config = pim_serve::ServeConfig {
        workers: parsed.serve_workers,
        queue_capacity: parsed.queue,
        cache_bytes: parsed.cache_mb << 20,
        pool_threads: parsed.threads,
    };
    if let Some(path) = &parsed.serve_socket {
        eprintln!(
            "pim-serve listening on unix socket {path} ({} workers, queue {}, cache {} MiB)",
            config.workers, config.queue_capacity, parsed.cache_mb
        );
        match pim_serve::Server::start_unix(&config, std::path::Path::new(path)) {
            Ok(server) => server.wait(),
            Err(e) => {
                eprintln!("cannot bind {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }
    if let Some(addr) = &parsed.serve_tcp {
        match pim_serve::Server::start_tcp(&config, addr) {
            Ok(server) => {
                eprintln!(
                    "pim-serve listening on tcp {} ({} workers, queue {}, cache {} MiB)",
                    server.tcp_addr().expect("tcp server"),
                    config.workers,
                    config.queue_capacity,
                    parsed.cache_mb
                );
                server.wait();
            }
            Err(e) => {
                eprintln!("cannot bind {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }
    // Default: newline-delimited JSON over stdin/stdout until EOF.
    pim_serve::serve_stdio(&config);
    ExitCode::SUCCESS
}
