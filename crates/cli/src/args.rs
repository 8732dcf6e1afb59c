//! Hand-rolled argument parsing (no external CLI crates, per the
//! dependency policy).

use pim_array::grid::Grid;
use pim_sched::MemoryPolicy;
use pim_workloads::Benchmark;

/// The CLI subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Run one method and print its cost breakdown.
    Run,
    /// Run every method and the baseline, print a comparison table.
    Compare,
    /// Print trace statistics.
    Stats,
    /// Run the message simulator and print the network report.
    Simulate,
    /// Hill-climb refinement on top of a method's schedule.
    Refine,
    /// Two-copy replication on top of GOMCDS primaries.
    Replicate,
    /// Report Algorithm 3 grouping decisions per datum.
    Windows,
    /// Write the generated trace to `--out` as a `.pimb` binary file
    /// (or, with `--dag`, the task DAG as JSON).
    Export,
    /// Narrate the costliest data items' schedules window by window.
    Explain,
    /// List every registered scheduling method with its description.
    ListMethods,
    /// Big-instance pipeline: synthesize a flat trace (`--data`,
    /// `--windows`) and run a scheduler's SoA fast path, printing build
    /// and schedule wall times.
    Scale,
    /// Long-running scheduling daemon speaking newline-delimited JSON
    /// over stdin (`--stdin`, the default), a Unix socket (`--socket`)
    /// or TCP (`--tcp`).
    Serve,
    /// Pack a flat trace (`--trace` text file, or synthetic via
    /// `--grid`/`--data`/`--windows`/`--seed`) into the `.pimb` binary
    /// container at `--out`.
    Pack,
    /// Decode a `.pimb` binary trace (`--trace`) back to the flat text
    /// format at `--out`.
    Unpack,
}

/// Fully parsed CLI invocation.
#[derive(Debug, Clone)]
pub struct ParsedArgs {
    /// Selected subcommand.
    pub command: Command,
    /// Workload.
    pub bench: Benchmark,
    /// Data matrix dimension (`n × n`).
    pub size: u32,
    /// Processor grid.
    pub grid: Grid,
    /// Steps per execution window.
    pub window: usize,
    /// Scheduling method (for `run`/`simulate`): the canonical name of any
    /// scheduler registered in `pim_sched::registry()`.
    pub method: String,
    /// Memory policy.
    pub memory: MemoryPolicy,
    /// Workload RNG seed.
    pub seed: u64,
    /// Output path for `export`.
    pub out: Option<String>,
    /// Load the trace from this `.pimb` file instead of generating it
    /// (`run`/`stats`/`simulate`/`windows` only — the baseline comparison
    /// needs the data-array shape, which the binary format does not carry).
    pub trace_file: Option<String>,
    /// Worker threads for per-datum scheduling parallelism (`0` =
    /// sequential, the default). Schedulers that cannot parallelize
    /// ignore the pool; see `pim-cli list-methods`.
    pub threads: usize,
    /// Write a JSON run report (analytic cost + routed traffic +
    /// scheduler metrics) to this path (`run`/`compare` only).
    pub metrics_out: Option<String>,
    /// `run`: `--trace` is a `.pimb` binary file, memory-mapped and
    /// scheduled zero-copy through the flat fast path. `scale`: pack the
    /// synthetic instance to a temporary `.pimb` and schedule it through
    /// the out-of-core streaming pipeline.
    pub bin: bool,
    /// Task DAG source: a JSON file path, or the literal `natural` for
    /// the benchmark's analytically known dependence chain (`run`: gate
    /// the cycle simulation and inform precedence-aware schedulers;
    /// `export`: write the natural DAG as JSON to `--out`).
    pub dag: Option<String>,
    /// `scale` only: number of synthetic data.
    pub data: usize,
    /// `scale` only: number of execution windows.
    pub windows: usize,
    /// `serve` only: Unix socket path to listen on.
    pub serve_socket: Option<String>,
    /// `serve` only: TCP address to listen on (e.g. `127.0.0.1:7070`;
    /// port 0 picks a free port and prints it).
    pub serve_tcp: Option<String>,
    /// `serve` only: service worker threads.
    pub serve_workers: usize,
    /// `serve` only: admission queue capacity (a full queue rejects
    /// requests with a typed `overloaded` error).
    pub queue: usize,
    /// `serve` only: resident-trace store budget, MiB.
    pub cache_mb: u64,
}

impl Default for ParsedArgs {
    fn default() -> Self {
        ParsedArgs {
            command: Command::Compare,
            bench: Benchmark::Lu,
            size: 8,
            grid: Grid::new(4, 4),
            window: 2,
            method: "GOMCDS".to_string(),
            memory: MemoryPolicy::ScaledMinimum { factor: 2 },
            seed: 1998,
            out: None,
            trace_file: None,
            threads: 0,
            metrics_out: None,
            bin: false,
            dag: None,
            data: 100_000,
            windows: 32,
            serve_socket: None,
            serve_tcp: None,
            serve_workers: 2,
            queue: 64,
            cache_mb: 256,
        }
    }
}

/// Error message for a bad invocation.
pub type ParseError = String;

/// Parse `WxH` grid syntax.
pub fn parse_grid(s: &str) -> Result<Grid, ParseError> {
    let (w, h) = s
        .split_once(['x', 'X'])
        .ok_or_else(|| format!("bad grid '{s}', expected WxH"))?;
    let w: u32 = w.parse().map_err(|_| format!("bad grid width '{w}'"))?;
    let h: u32 = h.parse().map_err(|_| format!("bad grid height '{h}'"))?;
    if w == 0 || h == 0 {
        return Err(format!("grid dimensions must be positive, got {s}"));
    }
    Ok(Grid::new(w, h))
}

/// Resolve a method name against the scheduler registry
/// (case-insensitive, aliases accepted), returning the canonical name.
pub fn parse_method(s: &str) -> Result<String, ParseError> {
    match pim_sched::registry().get(s) {
        Some(m) => Ok(m.name().to_string()),
        None => Err(format!(
            "unknown method '{s}' for --method (known: {}; see `pim-cli list-methods`)",
            pim_sched::registry().names().join(", ")
        )),
    }
}

/// Parse a memory policy: `unbounded`, `Nx` (scaled minimum) or a plain
/// integer capacity.
pub fn parse_memory(s: &str) -> Result<MemoryPolicy, ParseError> {
    if s.eq_ignore_ascii_case("unbounded") {
        return Ok(MemoryPolicy::Unbounded);
    }
    if let Some(f) = s.strip_suffix(['x', 'X']) {
        let factor: u32 = f.parse().map_err(|_| format!("bad memory factor '{s}'"))?;
        if factor == 0 {
            return Err("memory factor must be positive".to_string());
        }
        return Ok(MemoryPolicy::ScaledMinimum { factor });
    }
    let cap: u32 = s
        .parse()
        .map_err(|_| format!("bad memory capacity '{s}'"))?;
    Ok(MemoryPolicy::Capacity(cap))
}

/// Parse a full argument vector (without the program name).
pub fn parse(argv: &[String]) -> Result<ParsedArgs, ParseError> {
    let mut out = ParsedArgs::default();
    let mut it = argv.iter();
    let cmd = it.next().ok_or_else(usage)?;
    out.command = match cmd.as_str() {
        "run" => Command::Run,
        "compare" => Command::Compare,
        "stats" => Command::Stats,
        "simulate" => Command::Simulate,
        "refine" => Command::Refine,
        "replicate" => Command::Replicate,
        "windows" => Command::Windows,
        "export" => Command::Export,
        "explain" => Command::Explain,
        "list-methods" => Command::ListMethods,
        "scale" => Command::Scale,
        "serve" => Command::Serve,
        "pack" => Command::Pack,
        "unpack" => Command::Unpack,
        "-h" | "--help" | "help" => return Err(usage()),
        other => return Err(format!("unknown command '{other}'\n{}", usage())),
    };
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--bench" => {
                let v = value()?;
                out.bench = Benchmark::parse(&v).ok_or_else(|| {
                    format!("unknown benchmark '{v}' (1-5, code, jacobi, transpose, sor)")
                })?;
            }
            "--size" => {
                let v = value()?;
                out.size = v
                    .parse()
                    .map_err(|_| format!("bad value '{v}' for --size, expected an integer"))?;
                if out.size == 0 {
                    return Err("--size must be positive".to_string());
                }
            }
            "--grid" => out.grid = parse_grid(&value()?)?,
            "--window" => {
                let v = value()?;
                out.window = v
                    .parse()
                    .map_err(|_| format!("bad value '{v}' for --window, expected an integer"))?;
                if out.window == 0 {
                    return Err("--window must be positive".to_string());
                }
            }
            "--method" => out.method = parse_method(&value()?)?,
            "--memory" => out.memory = parse_memory(&value()?)?,
            "--seed" => {
                let v = value()?;
                out.seed = v
                    .parse()
                    .map_err(|_| format!("bad value '{v}' for --seed, expected an integer"))?;
            }
            "--bin" => out.bin = true,
            "--dag" => out.dag = Some(value()?),
            "--data" => {
                let v = value()?;
                out.data = v
                    .parse()
                    .map_err(|_| format!("bad value '{v}' for --data, expected an integer"))?;
                if out.data == 0 {
                    return Err("--data must be positive".to_string());
                }
            }
            "--windows" => {
                let v = value()?;
                out.windows = v
                    .parse()
                    .map_err(|_| format!("bad value '{v}' for --windows, expected an integer"))?;
                if out.windows == 0 {
                    return Err("--windows must be positive".to_string());
                }
            }
            "--stdin" => {} // serve's default transport; accepted for symmetry
            "--socket" => out.serve_socket = Some(value()?),
            "--tcp" => out.serve_tcp = Some(value()?),
            "--serve-workers" => {
                let v = value()?;
                out.serve_workers = v.parse().map_err(|_| {
                    format!("bad value '{v}' for --serve-workers, expected an integer")
                })?;
                if out.serve_workers == 0 {
                    return Err("--serve-workers must be positive".to_string());
                }
            }
            "--queue" => {
                let v = value()?;
                out.queue = v
                    .parse()
                    .map_err(|_| format!("bad value '{v}' for --queue, expected an integer"))?;
                if out.queue == 0 {
                    return Err("--queue must be positive".to_string());
                }
            }
            "--cache-mb" => {
                let v = value()?;
                out.cache_mb = v
                    .parse()
                    .map_err(|_| format!("bad value '{v}' for --cache-mb, expected an integer"))?;
                if out.cache_mb == 0 {
                    return Err("--cache-mb must be positive".to_string());
                }
            }
            "--out" => out.out = Some(value()?),
            "--metrics" => out.metrics_out = Some(value()?),
            "--trace" => out.trace_file = Some(value()?),
            "--threads" => {
                let v = value()?;
                out.threads = v
                    .parse()
                    .map_err(|_| format!("bad value '{v}' for --threads, expected an integer"))?;
            }
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    if out.command == Command::Serve {
        if out.serve_socket.is_some() && out.serve_tcp.is_some() {
            return Err("--socket and --tcp are mutually exclusive".to_string());
        }
    } else if out.serve_socket.is_some()
        || out.serve_tcp.is_some()
        || argv.iter().any(|a| {
            matches!(
                a.as_str(),
                "--stdin" | "--serve-workers" | "--queue" | "--cache-mb"
            )
        })
    {
        return Err(
            "--stdin/--socket/--tcp/--serve-workers/--queue/--cache-mb are only \
             supported by `serve`"
                .to_string(),
        );
    }
    if out.metrics_out.is_some() && !matches!(out.command, Command::Run | Command::Compare) {
        return Err("--metrics is only supported by `run` and `compare`".to_string());
    }
    if out.bin {
        if !matches!(out.command, Command::Run | Command::Scale) {
            return Err("--bin is only supported by `run` and `scale`".to_string());
        }
        if out.command == Command::Run && out.trace_file.is_none() {
            return Err("run --bin needs --trace FILE.pimb".to_string());
        }
    }
    if out.command == Command::Pack && out.out.is_none() {
        return Err("pack needs --out FILE.pimb".to_string());
    }
    if out.command == Command::Unpack && (out.trace_file.is_none() || out.out.is_none()) {
        return Err("unpack needs --trace FILE.pimb and --out FILE".to_string());
    }
    if out.dag.is_some() {
        if !matches!(out.command, Command::Run | Command::Export) {
            return Err("--dag is only supported by `run` and `export`".to_string());
        }
        if out.dag.as_deref() == Some("natural") && out.trace_file.is_some() {
            return Err(
                "--dag natural regenerates the benchmark; it cannot be combined \
                        with --trace"
                    .to_string(),
            );
        }
    }
    Ok(out)
}

/// The usage text.
pub fn usage() -> String {
    "usage: pim-cli <run|compare|stats|simulate|refine|replicate|windows|export|explain|list-methods|scale|serve|pack|unpack> \
     [--bench 1-5|code|jacobi|transpose|sor] [--size N] [--grid WxH] \
     [--window STEPS] [--method NAME (see `pim-cli list-methods`)] \
     [--memory unbounded|Nx|CAP] [--seed S] [--out FILE] [--trace FILE] \
     [--threads N (0 = sequential)] \
     [--metrics FILE (run/compare: write a JSON run report)] \
     [--bin (run: --trace is a memory-mapped .pimb; scale: stream out-of-core)] \
     [--dag FILE|natural (run: precedence-gated simulation; export: write the DAG)] \
     [--data N] [--windows N (scale/pack: synthetic instance shape)] \
     [--stdin|--socket PATH|--tcp ADDR (serve: transport, default stdin)] \
     [--serve-workers N] [--queue N] [--cache-mb MB (serve: sizing)]\n\
     pack writes a flat trace (--trace text, or synthetic --grid/--data/--windows/--seed) \
     to the .pimb binary container at --out; unpack decodes a .pimb back to text; \
     export writes the trace as .pimb to --out, which --trace reads back; \
     scale writes .pimb when --out ends in .pimb"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_full_invocation() {
        let a = parse(&v(&[
            "run",
            "--bench",
            "3",
            "--size",
            "16",
            "--grid",
            "8x4",
            "--window",
            "4",
            "--method",
            "lomcds",
            "--memory",
            "unbounded",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(a.command, Command::Run);
        assert_eq!(a.bench, Benchmark::LuCode);
        assert_eq!(a.size, 16);
        assert_eq!((a.grid.width(), a.grid.height()), (8, 4));
        assert_eq!(a.window, 4);
        assert_eq!(a.method, "LOMCDS");
        assert_eq!(a.memory, MemoryPolicy::Unbounded);
        assert_eq!(a.seed, 7);
    }

    #[test]
    fn defaults_applied() {
        let a = parse(&v(&["compare"])).unwrap();
        assert_eq!(a.command, Command::Compare);
        assert_eq!(a.size, 8);
        assert_eq!(a.memory, MemoryPolicy::ScaledMinimum { factor: 2 });
    }

    #[test]
    fn grid_syntax() {
        assert!(parse_grid("4x4").is_ok());
        assert!(parse_grid("16X2").is_ok());
        assert!(parse_grid("4").is_err());
        assert!(parse_grid("0x4").is_err());
        assert!(parse_grid("axb").is_err());
    }

    #[test]
    fn memory_syntax() {
        assert_eq!(parse_memory("unbounded"), Ok(MemoryPolicy::Unbounded));
        assert_eq!(
            parse_memory("2x"),
            Ok(MemoryPolicy::ScaledMinimum { factor: 2 })
        );
        assert_eq!(parse_memory("8"), Ok(MemoryPolicy::Capacity(8)));
        assert!(parse_memory("0x").is_err());
        assert!(parse_memory("zz").is_err());
    }

    #[test]
    fn method_names_resolve_via_registry() {
        assert_eq!(parse_method("gomcds").as_deref(), Ok("GOMCDS"));
        assert_eq!(parse_method("grouped").as_deref(), Ok("Grouped-LOMCDS"));
        // extensions outside the Method enum are first-class here
        assert_eq!(parse_method("online").as_deref(), Ok("online"));
        assert_eq!(parse_method("BASELINE").as_deref(), Ok("baseline"));
        let err = parse_method("magic").unwrap_err();
        assert!(err.contains("unknown method 'magic'"), "{err}");
        assert!(err.contains("GOMCDS"), "lists the known names: {err}");
    }

    #[test]
    fn list_methods_command() {
        let a = parse(&v(&["list-methods"])).unwrap();
        assert_eq!(a.command, Command::ListMethods);
    }

    #[test]
    fn threads_flag() {
        let a = parse(&v(&["run", "--threads", "4"])).unwrap();
        assert_eq!(a.threads, 4);
        // default is sequential
        assert_eq!(parse(&v(&["run"])).unwrap().threads, 0);
        let err = parse(&v(&["run", "--threads", "many"])).unwrap_err();
        assert!(err.contains("'many'") && err.contains("--threads"), "{err}");
    }

    #[test]
    fn metrics_flag() {
        let a = parse(&v(&["run", "--metrics", "m.json"])).unwrap();
        assert_eq!(a.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(parse(&v(&["run"])).unwrap().metrics_out, None);
        let a = parse(&v(&["compare", "--metrics", "rows.json"])).unwrap();
        assert_eq!(a.metrics_out.as_deref(), Some("rows.json"));
        // only run/compare produce a run report
        let err = parse(&v(&["stats", "--metrics", "m.json"])).unwrap_err();
        assert!(err.contains("--metrics"), "{err}");
        let err = parse(&v(&["simulate", "--metrics", "m.json"])).unwrap_err();
        assert!(err.contains("run"), "{err}");
    }

    #[test]
    fn scale_and_flat_flags() {
        let a = parse(&v(&[
            "scale",
            "--grid",
            "64x64",
            "--data",
            "1000000",
            "--windows",
            "16",
        ]))
        .unwrap();
        assert_eq!(a.command, Command::Scale);
        assert_eq!(a.data, 1_000_000);
        assert_eq!(a.windows, 16);

        // No `--flat`: the registry strategies `run` drives already run the
        // flat drivers, and `run --bin` / `scale` reach them directly.
        for cmd in ["run", "compare"] {
            let err = parse(&v(&[cmd, "--flat", "--method", "scds"])).unwrap_err();
            assert!(err.contains("--flat"), "{err}");
        }
        let err = parse(&v(&["scale", "--data", "0"])).unwrap_err();
        assert!(err.contains("--data must be positive"), "{err}");
        let err = parse(&v(&["scale", "--windows", "none"])).unwrap_err();
        assert!(err.contains("'none'") && err.contains("--windows"), "{err}");
    }

    #[test]
    fn dag_flag() {
        let a = parse(&v(&["run", "--dag", "natural", "--bench", "1"])).unwrap();
        assert_eq!(a.dag.as_deref(), Some("natural"));
        let a = parse(&v(&["run", "--dag", "chain.json"])).unwrap();
        assert_eq!(a.dag.as_deref(), Some("chain.json"));
        let a = parse(&v(&["export", "--dag", "natural", "--out", "d.json"])).unwrap();
        assert_eq!(a.dag.as_deref(), Some("natural"));
        assert_eq!(parse(&v(&["run"])).unwrap().dag, None);
        let err = parse(&v(&["compare", "--dag", "natural"])).unwrap_err();
        assert!(err.contains("--dag"), "{err}");
        let err = parse(&v(&["run", "--dag", "natural", "--trace", "t.bin"])).unwrap_err();
        assert!(err.contains("--trace"), "{err}");
    }

    #[test]
    fn serve_flags() {
        let a = parse(&v(&["serve"])).unwrap();
        assert_eq!(a.command, Command::Serve);
        assert_eq!(a.serve_socket, None);
        assert_eq!(a.serve_tcp, None);
        assert_eq!((a.serve_workers, a.queue, a.cache_mb), (2, 64, 256));

        let a = parse(&v(&[
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--serve-workers",
            "4",
            "--queue",
            "128",
            "--cache-mb",
            "64",
        ]))
        .unwrap();
        assert_eq!(a.serve_tcp.as_deref(), Some("127.0.0.1:0"));
        assert_eq!((a.serve_workers, a.queue, a.cache_mb), (4, 128, 64));

        let a = parse(&v(&["serve", "--socket", "/tmp/pim.sock"])).unwrap();
        assert_eq!(a.serve_socket.as_deref(), Some("/tmp/pim.sock"));

        let err = parse(&v(&["serve", "--socket", "s", "--tcp", "t"])).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = parse(&v(&["run", "--queue", "8"])).unwrap_err();
        assert!(err.contains("serve"), "{err}");
        let err = parse(&v(&["serve", "--queue", "0"])).unwrap_err();
        assert!(err.contains("--queue must be positive"), "{err}");
        let err = parse(&v(&["serve", "--serve-workers", "0"])).unwrap_err();
        assert!(err.contains("--serve-workers must be positive"), "{err}");
    }

    #[test]
    fn pack_unpack_and_bin_flags() {
        let a = parse(&v(&[
            "pack", "--grid", "16x16", "--data", "1000", "--out", "t.pimb",
        ]))
        .unwrap();
        assert_eq!(a.command, Command::Pack);
        assert_eq!(a.out.as_deref(), Some("t.pimb"));

        let a = parse(&v(&["pack", "--trace", "t.txt", "--out", "t.pimb"])).unwrap();
        assert_eq!(a.trace_file.as_deref(), Some("t.txt"));

        let a = parse(&v(&["unpack", "--trace", "t.pimb", "--out", "t.txt"])).unwrap();
        assert_eq!(a.command, Command::Unpack);

        let a = parse(&v(&[
            "run", "--bin", "--trace", "t.pimb", "--method", "scds",
        ]))
        .unwrap();
        assert!(a.bin);
        let a = parse(&v(&["scale", "--bin", "--data", "5000"])).unwrap();
        assert!(a.bin);

        let err = parse(&v(&["pack", "--grid", "4x4"])).unwrap_err();
        assert!(err.contains("--out"), "{err}");
        let err = parse(&v(&["unpack", "--trace", "t.pimb"])).unwrap_err();
        assert!(err.contains("--out"), "{err}");
        let err = parse(&v(&["compare", "--bin"])).unwrap_err();
        assert!(err.contains("--bin"), "{err}");
        let err = parse(&v(&["run", "--bin"])).unwrap_err();
        assert!(err.contains("--trace"), "{err}");
    }

    #[test]
    fn errors_reported() {
        assert!(parse(&v(&[])).is_err());
        assert!(parse(&v(&["frobnicate"])).is_err());
        assert!(parse(&v(&["run", "--bench"])).is_err());
        assert!(parse(&v(&["run", "--window", "0"])).is_err());
        assert!(parse(&v(&["run", "--wat", "1"])).is_err());
    }

    #[test]
    fn errors_name_the_flag_and_value() {
        let err = parse(&v(&["run", "--size", "huge"])).unwrap_err();
        assert!(err.contains("'huge'") && err.contains("--size"), "{err}");
        let err = parse(&v(&["run", "--size", "0"])).unwrap_err();
        assert!(err.contains("--size must be positive"), "{err}");
        let err = parse(&v(&["run", "--window", "x"])).unwrap_err();
        assert!(err.contains("'x'") && err.contains("--window"), "{err}");
        let err = parse(&v(&["run", "--seed", "soon"])).unwrap_err();
        assert!(err.contains("'soon'") && err.contains("--seed"), "{err}");
        let err = parse(&v(&["run", "--method"])).unwrap_err();
        assert!(
            err.contains("--method") && err.contains("needs a value"),
            "{err}"
        );
    }
}
