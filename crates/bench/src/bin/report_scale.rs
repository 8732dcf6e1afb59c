//! Big-instance scaling report: times the flat SoA scheduling pipeline
//! (`FlatTrace` build + SCDS + LOMCDS fast paths) from 16×16 grids with
//! 10k data up to 64×64 grids with 1M data, and writes the results to
//! `BENCH_scale.json`.
//!
//! Small instances also schedule the equivalent nested trace with the
//! reference oracles (`pim_reference::schedule`, the pre-cache
//! implementations) for a cost-parity assertion and a speedup column; at
//! the large sizes only the flat path runs.
//!
//! Flags:
//!
//! * `--smoke` — single 16×16 × 50k row with parity (the CI gate);
//! * `--out PATH` — write the JSON somewhere other than
//!   `./BENCH_scale.json`.

use pim_bench::scale::{render_json, scale_row, ScaleRow};
use pim_bench::timing::warn_if_slower;

fn main() {
    let mut out = String::from("BENCH_scale.json");
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = args.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown flag {other}; flags: --smoke, --out PATH");
                std::process::exit(2);
            }
        }
    }

    let mut rows: Vec<ScaleRow> = Vec::new();
    if smoke {
        rows.push(report(16, 50_000, true, 1));
    } else {
        for side in [16u32, 32, 64] {
            for num_data in [10_000usize, 100_000, 1_000_000] {
                // Parity (reference oracle) only where the nested
                // representation is affordable: every 10k instance, plus
                // 100k on 16×16.
                let parity = num_data == 10_000 || (num_data == 100_000 && side == 16);
                let reps = if num_data <= 100_000 { 3 } else { 1 };
                rows.push(report(side, num_data, parity, reps));
            }
        }
    }

    let json = render_json(&rows);
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");
}

fn report(side: u32, num_data: usize, parity: bool, reps: u32) -> ScaleRow {
    let row = scale_row(side, num_data, parity, reps);
    let ms = |ns: u128| ns as f64 / 1e6;
    print!(
        "{0}x{0} n={1}: build {2:.1} ms",
        row.side,
        row.num_data,
        ms(row.build_ns)
    );
    for m in &row.methods {
        print!(", {} {:.1} ms", m.method, ms(m.flat_ns));
        if let Some(s) = m.speedup() {
            print!(" ({s:.1}x vs exact, cost parity ok)");
        }
        // Mirror report_all's convention: losing rows are loud on stderr,
        // not buried in the JSON.
        if m.exact_cost.is_some_and(|c| c != m.total_cost) {
            eprintln!(
                "warning: {} at {side}x{side} n={num_data}: flat cost {} differs \
                 from the exact cost {}",
                m.method,
                m.total_cost,
                m.exact_cost.unwrap_or(0),
            );
        }
        if let Some(s) = m.speedup() {
            warn_if_slower(
                &format!("{} at {side}x{side} n={num_data}: flat path", m.method),
                s,
            );
        }
    }
    println!(", peak RSS {} MB", row.peak_rss_kb / 1024);
    row
}
