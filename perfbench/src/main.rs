//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the checkout root, prints report lines prefixed
//! `# `, then one JSON result line; exits non-zero when any output was
//! wrong. Generated inputs live under `.perfbench_work/` and are removed
//! when the run ends.

use std::process::ExitCode;

use perfbench::report::{result_line, Environment};
use perfbench::{run, RunConfig, Workload};

const USAGE: &str = "usage: perfbench --workload <text-batch|stream-pimb|gomcds-dp|serve-mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("current directory");
    let env = Environment::probe(&root);
    let w = args.workload;
    let dir = root
        .join(".perfbench_work")
        .join(format!("{}-{}", w.name(), std::process::id()));
    let cfg = RunConfig::full(w, args.seed, args.seconds, args.traced, dir);
    let shape = cfg.shape;

    println!("# {}", env.line());
    println!("# workload {}: {}", w.name(), w.why());
    println!(
        "# instance: {0}x{0} grid, {1} windows, {2} data; seed {3}; {4} s measured; traced {5}; \
         check: {6}",
        shape.side,
        shape.windows,
        shape.data,
        args.seed,
        args.seconds,
        args.traced,
        if cfg.pinned.is_empty() {
            "second library path"
        } else {
            "pinned costs"
        }
    );
    let out = run(&cfg);
    println!(
        "# working set: {:.1} MB = {:.2} x LLC",
        out.working_set as f64 / perfbench::MB,
        out.working_set as f64 / env.llc_bytes.max(1) as f64
    );
    for m in &out.detail {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    for note in &out.notes {
        println!("# {note}");
    }
    println!("# costs: {:?}", out.costs);
    let correct = out.correct();
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, &out.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
