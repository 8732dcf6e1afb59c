//! Steady-state churn harness: the measurement rows behind
//! `BENCH_churn.json`.
//!
//! Each row builds a synthetic flat instance (the [`crate::scale`]
//! generator), stands up an [`IncrementalRun`], then drives `ticks`
//! steady-state edit ticks. Every tick perturbs ~1% of the data (each
//! picked datum gets one reference run rewritten in a random window),
//! times the engine's delta re-solve, then times a from-scratch
//! re-schedule of the same edited trace (materialize + flat scheduler)
//! and asserts the two schedules are **bit-identical** — the speedup
//! column never trades exactness.

use crate::scale::{synthetic_flat, Rng64, SCALE_SEED, SCALE_WINDOWS};
use pim_array::grid::Grid;
use pim_sched::incremental::IncrementalRun;
use pim_sched::{flat_gomcds, flat_lomcds, flat_scds, MemoryPolicy, Method, Schedule};
use pim_trace::edit::TraceDelta;
use pim_trace::flat::FlatTrace;
use pim_trace::ids::DataId;
use std::time::Instant;

/// Fraction of the data perturbed per tick, in percent.
pub const CHURN_PCT: usize = 1;

/// One `BENCH_churn.json` row: a (grid, data count, method, policy)
/// instance driven through steady-state churn ticks.
#[derive(Debug, Clone)]
pub struct ChurnRow {
    /// Square grid side length.
    pub side: u32,
    /// Number of data in the instance.
    pub num_data: usize,
    /// Registry name of the method (lowercase).
    pub method: &'static str,
    /// Memory-policy label (`unbounded`, `scaled_min_x2`, `cap1`).
    pub policy: &'static str,
    /// Data perturbed per tick (`max(1, num_data / 100)`).
    pub dirty_per_tick: usize,
    /// Per-tick incremental re-solve wall times, nanoseconds.
    pub tick_ns: Vec<u128>,
    /// Per-tick from-scratch wall times (materialize + flat scheduler).
    pub scratch_ns: Vec<u128>,
    /// Full capacity replays the engine fell back to across all ticks.
    pub fallbacks: u64,
    /// Whether every tick's incremental schedule matched the scratch one
    /// bit for bit (always true — divergence panics — recorded so the CI
    /// validator can check the field exists and holds).
    pub parity: bool,
    /// Peak RSS of this row, kilobytes: the `VmHWM` high-water mark,
    /// reset when the row starts and sampled when it ends (0 when
    /// unavailable).
    pub peak_rss_kb: u64,
}

impl ChurnRow {
    /// Mean per-tick incremental latency, nanoseconds.
    pub fn mean_tick_ns(&self) -> u128 {
        mean(&self.tick_ns)
    }

    /// Mean per-tick from-scratch latency, nanoseconds.
    pub fn mean_scratch_ns(&self) -> u128 {
        mean(&self.scratch_ns)
    }

    /// `mean_scratch_ns / mean_tick_ns`.
    pub fn speedup(&self) -> f64 {
        self.mean_scratch_ns() as f64 / self.mean_tick_ns().max(1) as f64
    }
}

fn mean(xs: &[u128]) -> u128 {
    if xs.is_empty() {
        0
    } else {
        xs.iter().sum::<u128>() / xs.len() as u128
    }
}

/// Parse a lowercase method label into the [`Method`] the engine drives.
fn method_of(label: &str) -> Method {
    match label {
        "scds" => Method::Scds,
        "lomcds" => Method::Lomcds,
        "gomcds" => Method::Gomcds,
        other => panic!("no churn harness for method {other}"),
    }
}

/// From-scratch schedule of `flat` under the row's method — the reference
/// the incremental engine must match bit for bit.
fn scratch_schedule(
    flat: &FlatTrace,
    method: Method,
    policy: MemoryPolicy,
    pool: pim_par::Pool,
) -> Schedule {
    match method {
        Method::Scds => flat_scds(flat, policy, pool),
        Method::Lomcds => flat_lomcds(flat, policy, pool),
        _ => flat_gomcds(flat, policy, pool),
    }
    .unwrap_or_else(|e| panic!("scratch {method} failed: {e}"))
}

/// One tick's delta: `dirty` distinct data each get the reference run of
/// one random window rewritten to 1–3 references near a fresh random home
/// (counts 1–4) — the same shapes the instance generator emits.
fn churn_delta(
    grid: Grid,
    num_data: usize,
    num_windows: usize,
    dirty: usize,
    rng: &mut Rng64,
    picked: &mut [bool],
) -> TraceDelta {
    let (w, h) = (grid.width() as i64, grid.height() as i64);
    let mut delta = TraceDelta::new();
    let mut chosen = Vec::with_capacity(dirty);
    while chosen.len() < dirty {
        let d = rng.below(num_data as u64) as usize;
        if !picked[d] {
            picked[d] = true;
            chosen.push(d);
        }
    }
    for &d in &chosen {
        picked[d] = false;
        let window = rng.below(num_windows as u64) as u32;
        let hx = rng.below(w as u64) as i64;
        let hy = rng.below(h as u64) as i64;
        let nrefs = 1 + rng.below(3);
        let refs: Vec<_> = (0..nrefs)
            .map(|_| {
                let x = (hx + rng.below(3) as i64 - 1).clamp(0, w - 1) as u32;
                let y = (hy + rng.below(3) as i64 - 1).clamp(0, h - 1) as u32;
                (grid.proc_xy(x, y), 1 + rng.below(4) as u32)
            })
            .collect();
        delta.set_run(DataId(d as u32), window, refs);
    }
    delta
}

/// Build and measure one churn row: `ticks` steady-state ticks on a
/// `side`×`side` grid with `num_data` data. Panics if any tick's
/// incremental schedule diverges from the from-scratch one.
pub fn churn_row(
    side: u32,
    num_data: usize,
    method_label: &'static str,
    policy: MemoryPolicy,
    policy_label: &'static str,
    ticks: usize,
) -> ChurnRow {
    crate::timing::reset_peak_rss();
    let grid = Grid::new(side, side);
    let method = method_of(method_label);
    let pool = pim_par::Pool::auto();
    let flat = synthetic_flat(grid, SCALE_WINDOWS, num_data, SCALE_SEED);
    let mut engine = IncrementalRun::new(flat, method, policy, pool)
        .unwrap_or_else(|e| panic!("engine {method_label} {policy_label}: {e}"));

    let dirty_per_tick = (num_data * CHURN_PCT / 100).max(1);
    let mut rng = Rng64::new(SCALE_SEED ^ 0xC4A4);
    let mut picked = vec![false; num_data];
    let mut tick_ns = Vec::with_capacity(ticks);
    let mut scratch_ns = Vec::with_capacity(ticks);

    // One untimed warmup tick: the first delta and the first materialize
    // + schedule in a process pay one-off page-fault and allocator costs
    // that would skew both columns (ticks are measured single-shot, so
    // decolding here is the only rep discipline available). The warmup
    // still asserts parity.
    {
        let delta = churn_delta(
            grid,
            num_data,
            SCALE_WINDOWS,
            dirty_per_tick,
            &mut rng,
            &mut picked,
        );
        engine
            .incremental(&delta)
            .unwrap_or_else(|e| panic!("warmup tick: {e}"));
        let scratch = scratch_schedule(&engine.trace().materialize(), method, policy, pool);
        assert_eq!(
            engine.schedule(),
            &scratch,
            "{method_label}/{policy_label} diverged from scratch at warmup"
        );
    }
    let warmup_fallbacks = engine.fallbacks();

    for tick in 0..ticks {
        let delta = churn_delta(
            grid,
            num_data,
            SCALE_WINDOWS,
            dirty_per_tick,
            &mut rng,
            &mut picked,
        );

        let start = Instant::now();
        engine
            .incremental(&delta)
            .unwrap_or_else(|e| panic!("tick {tick}: {e}"));
        tick_ns.push(start.elapsed().as_nanos());

        let start = Instant::now();
        let edited = engine.trace().materialize();
        let scratch = scratch_schedule(&edited, method, policy, pool);
        scratch_ns.push(start.elapsed().as_nanos());

        assert_eq!(
            engine.schedule(),
            &scratch,
            "{method_label}/{policy_label} diverged from scratch at tick {tick}"
        );
    }

    ChurnRow {
        side,
        num_data,
        method: method_label,
        policy: policy_label,
        dirty_per_tick,
        tick_ns,
        scratch_ns,
        fallbacks: engine.fallbacks() - warmup_fallbacks,
        parity: true,
        peak_rss_kb: crate::timing::peak_rss_kb().unwrap_or(0),
    }
}

/// Render rows as the `BENCH_churn.json` document (hand-rolled JSON; the
/// offline build has no JSON crate and the schema is flat).
pub fn render_json(rows: &[ChurnRow]) -> String {
    use std::fmt::Write as _;
    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"config\": {{\"windows\": {SCALE_WINDOWS}, \"seed\": {SCALE_SEED}, \
         \"churn_pct\": {CHURN_PCT}}},\n  \"rows\": [\n"
    );
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    {{\"grid\": \"{0}x{0}\", \"num_data\": {1}, \"method\": \"{2}\", \
             \"policy\": \"{3}\", \"ticks\": {4}, \"dirty_per_tick\": {5}, \
             \"mean_tick_ns\": {6}, \"mean_scratch_ns\": {7}, \"speedup\": {8:.3}, \
             \"fallbacks\": {9}, \"parity\": {10}, \"peak_rss_kb\": {11}, \"tick_ns\": [",
            row.side,
            row.num_data,
            row.method,
            row.policy,
            row.tick_ns.len(),
            row.dirty_per_tick,
            row.mean_tick_ns(),
            row.mean_scratch_ns(),
            row.speedup(),
            row.fallbacks,
            row.parity,
            row.peak_rss_kb,
        );
        for (j, ns) in row.tick_ns.iter().enumerate() {
            if j > 0 {
                json.push_str(", ");
            }
            let _ = write!(json, "{ns}");
        }
        json.push_str("]}");
    }
    json.push_str("\n  ]\n}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_row_holds_parity_and_counts() {
        let row = churn_row(8, 400, "lomcds", MemoryPolicy::Unbounded, "unbounded", 3);
        assert_eq!(row.tick_ns.len(), 3);
        assert_eq!(row.scratch_ns.len(), 3);
        assert_eq!(row.dirty_per_tick, 4);
        assert!(row.parity);
        let json = render_json(&[row]);
        assert!(json.contains("\"grid\": \"8x8\""));
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"fallbacks\""));
        assert!(json.contains("\"peak_rss_kb\""));
    }

    #[test]
    fn tight_capacity_row_exercises_fallbacks() {
        // 8×8 grid with 64 data at capacity 1: every processor is full,
        // so churn that moves a median must displace and fall back.
        let row = churn_row(8, 64, "scds", MemoryPolicy::Capacity(1), "cap1", 5);
        assert!(row.parity);
        assert!(
            row.fallbacks > 0,
            "expected displacement fallbacks at capacity 1"
        );
    }
}
