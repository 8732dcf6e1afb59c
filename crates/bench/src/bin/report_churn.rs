//! Steady-state churn report: drives the incremental engine through edit
//! ticks that each perturb ~1% of the data, times every delta re-solve
//! against a from-scratch re-schedule of the same edited trace, and writes
//! `BENCH_churn.json`. Every tick asserts the incremental schedule is
//! bit-identical to the scratch one, so the speedup column never trades
//! exactness.
//!
//! Rows cover the method × policy matrix at 16×16 × 100k (the ≥10×
//! acceptance point), the 64×64 × 1M scale point, and a deliberately
//! tight-capacity instance (capacity 1 with exactly one datum per
//! processor) where every tick displaces a clean datum and forces the
//! engine's full-replay fallback — keeping the fallback path honest in
//! the same report that shows the fast path winning.
//!
//! Flags:
//!
//! * `--smoke` — small rows only (SCDS and LOMCDS at 16×16 × 50k,
//!   GOMCDS unbounded and scaled-min ×2 at 16×16 × 20k, 5 ticks each)
//!   plus the tight fallback row (the CI gate);
//! * `--out PATH` — write the JSON somewhere other than
//!   `./BENCH_churn.json`.

use pim_bench::churn::{churn_row, ChurnRow};
use pim_bench::timing::warn_if_slower;
use pim_sched::MemoryPolicy;

fn main() {
    let mut out = String::from("BENCH_churn.json");
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

    let unbounded = MemoryPolicy::Unbounded;
    let scaled = MemoryPolicy::ScaledMinimum { factor: 2 };
    let mut rows: Vec<ChurnRow> = Vec::new();
    if smoke {
        for method in ["scds", "lomcds"] {
            rows.push(report(16, 50_000, method, unbounded, "unbounded", 5));
        }
        // 200 dirty data per tick: the GOMCDS resolve's pooled branch.
        rows.push(report(16, 20_000, "gomcds", unbounded, "unbounded", 5));
        rows.push(report(16, 20_000, "gomcds", scaled, "scaled_min_x2", 5));
    } else {
        for method in ["scds", "lomcds", "gomcds"] {
            rows.push(report(16, 100_000, method, unbounded, "unbounded", 10));
            rows.push(report(16, 100_000, method, scaled, "scaled_min_x2", 10));
        }
        for method in ["scds", "lomcds"] {
            rows.push(report(64, 1_000_000, method, unbounded, "unbounded", 3));
        }
    }
    // Tight-capacity fallback row: 16×16 with one datum per processor at
    // capacity 1 — churn that moves any placement must displace a clean
    // datum, so every tick exercises the full-replay fallback.
    rows.push(report(
        16,
        256,
        "scds",
        MemoryPolicy::Capacity(1),
        "cap1",
        5,
    ));

    let json = pim_bench::churn::render_json(&rows);
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");
}

fn report(
    side: u32,
    num_data: usize,
    method: &'static str,
    policy: MemoryPolicy,
    policy_label: &'static str,
    ticks: usize,
) -> ChurnRow {
    let row = churn_row(side, num_data, method, policy, policy_label, ticks);
    let ms = |ns: u128| ns as f64 / 1e6;
    println!(
        "{0}x{0} n={1} {2}/{3}: tick {4:.2} ms, scratch {5:.2} ms, {6:.1}x, \
         {7} fallback(s), parity ok",
        row.side,
        row.num_data,
        row.method,
        row.policy,
        ms(row.mean_tick_ns()),
        ms(row.mean_scratch_ns()),
        row.speedup(),
        row.fallbacks,
    );
    // The fallback row replays from scratch every tick, so only warn where
    // the incremental path is actually expected to win.
    if row.fallbacks == 0 {
        warn_if_slower(
            &format!(
                "churn {0}x{0} n={1} {2}/{3}: incremental path",
                row.side, row.num_data, row.method, row.policy
            ),
            row.speedup(),
        );
    }
    row
}
