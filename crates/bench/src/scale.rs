//! Big-instance scaling harness: synthetic flat traces (millions of data)
//! plus the measurement rows behind `BENCH_scale.json`.
//!
//! The generator emits records datum-major with spatial locality (each
//! datum's references cluster around a home processor), so instances look
//! like the paper's workloads rather than uniform noise, and the
//! `FlatTrace::from_records` sort sees nearly-sorted input.

use pim_array::grid::Grid;
use pim_sched::{flat_lomcds, flat_scds, flat_total_cost, MemoryPolicy, Method};
use pim_trace::flat::{FlatRecord, FlatTrace};
use pim_trace::ids::DataId;
use std::time::Instant;

/// Deterministic xorshift64* stream — the same generator everywhere keeps
/// `BENCH_scale.json` reproducible across runs and machines.
#[derive(Debug, Clone)]
pub struct Rng64(u64);

impl Rng64 {
    /// Seeded stream; `seed` 0 is remapped to a fixed odd constant.
    pub fn new(seed: u64) -> Rng64 {
        Rng64(if seed == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            seed
        })
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `0..bound` (`bound` 0 yields 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// Synthetic big-trace instance: `num_data` data over `num_windows`
/// windows on `grid`, ~8 references per datum clustered around a per-datum
/// home processor (offsets decay within a radius-2 box; counts 1–4).
pub fn synthetic_flat(grid: Grid, num_windows: usize, num_data: usize, seed: u64) -> FlatTrace {
    let records = synthetic_records(grid, num_windows, num_data, seed);
    FlatTrace::from_records(grid, num_windows, num_data, records)
        .expect("generator emits only in-range records")
}

/// The raw record stream behind [`synthetic_flat`]; exposed so callers can
/// time [`FlatTrace::from_records`] separately from generation.
pub fn synthetic_records(
    grid: Grid,
    num_windows: usize,
    num_data: usize,
    seed: u64,
) -> Vec<FlatRecord> {
    let mut rng = Rng64::new(seed);
    let (w, h) = (grid.width() as i64, grid.height() as i64);
    let mut records = Vec::with_capacity(num_data * 8);
    for d in 0..num_data {
        let datum = DataId(d as u32);
        let hx = rng.below(w as u64) as i64;
        let hy = rng.below(h as u64) as i64;
        // 4..12 refs per datum, mean 8.
        let nrefs = 4 + rng.below(9);
        for _ in 0..nrefs {
            // Offsets in [-2, 2] with mass concentrated near 0.
            let dx =
                (rng.below(5) as i64 - 2) * (rng.below(3) == 0) as i64 + (rng.below(3) as i64 - 1);
            let dy =
                (rng.below(5) as i64 - 2) * (rng.below(3) == 0) as i64 + (rng.below(3) as i64 - 1);
            let x = (hx + dx).clamp(0, w - 1) as u32;
            let y = (hy + dy).clamp(0, h - 1) as u32;
            records.push(FlatRecord {
                datum,
                window: rng.below(num_windows as u64) as u32,
                proc: grid.proc_xy(x, y),
                count: 1 + rng.below(4) as u32,
            });
        }
    }
    records
}

/// One method's timings within a [`ScaleRow`].
#[derive(Debug, Clone)]
pub struct MethodScale {
    /// Registry name of the method (`scds`, `lomcds`).
    pub method: &'static str,
    /// Best (min-of-reps) wall time of the flat fast path, nanoseconds.
    pub flat_ns: u128,
    /// Total cost of the flat schedule (reference + movement).
    pub total_cost: u64,
    /// Wall time of the reference oracle (`pim_reference::schedule`, the
    /// pre-cache implementation) on the nested trace, when measured.
    pub exact_ns: Option<u128>,
    /// Total cost of the reference oracle's schedule, when measured (must
    /// equal `total_cost` — asserted by [`scale_row`]).
    pub exact_cost: Option<u64>,
}

impl MethodScale {
    /// `exact_ns / flat_ns` (speedup over the reference oracle) when the
    /// oracle was measured.
    pub fn speedup(&self) -> Option<f64> {
        self.exact_ns.map(|e| e as f64 / self.flat_ns.max(1) as f64)
    }
}

/// One `BENCH_scale.json` row: a (grid, data count) instance.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Square grid side length.
    pub side: u32,
    /// Number of data in the instance.
    pub num_data: usize,
    /// Number of execution windows.
    pub num_windows: usize,
    /// Aggregated reference runs in the flat trace.
    pub num_refs: usize,
    /// Wall time of `FlatTrace::from_records` (CSR build), nanoseconds.
    pub build_ns: u128,
    /// Per-method timings.
    pub methods: Vec<MethodScale>,
    /// Peak RSS of this row, kilobytes: the `VmHWM` high-water mark,
    /// reset when the row starts and sampled when it ends (0 when
    /// unavailable).
    pub peak_rss_kb: u64,
}

/// Number of execution windows used by every scale instance.
pub const SCALE_WINDOWS: usize = 32;

/// Generator seed used by every scale instance.
pub const SCALE_SEED: u64 = 1998;

/// Build and measure one scale instance. `parity` additionally runs the
/// reference oracles (`pim_reference::schedule`) on the equivalent nested trace
/// and asserts the total costs are identical — the registry drives the
/// same flat code, so it would compare the flat path with itself; `reps`
/// is the timed-repetition count for the flat path, reported min-of-reps
/// (the oracle always runs once — it is the slow side).
pub fn scale_row(side: u32, num_data: usize, parity: bool, reps: u32) -> ScaleRow {
    crate::timing::reset_peak_rss();
    let grid = Grid::new(side, side);
    let pool = pim_par::Pool::auto();
    let records = synthetic_records(grid, SCALE_WINDOWS, num_data, SCALE_SEED);

    let start = Instant::now();
    let flat = FlatTrace::from_records(grid, SCALE_WINDOWS, num_data, records)
        .expect("generator emits only in-range records");
    let build_ns = start.elapsed().as_nanos();

    let windowed = parity.then(|| flat.to_windowed());
    let policy = MemoryPolicy::Unbounded;
    let mut methods = Vec::new();
    for (method, paper) in [("scds", Method::Scds), ("lomcds", Method::Lomcds)] {
        let run_flat = || match method {
            "scds" => flat_scds(&flat, policy, pool).expect("unbounded cannot exhaust"),
            _ => flat_lomcds(&flat, policy, pool).expect("unbounded cannot exhaust"),
        };
        // Min-of-reps (not mean): see `crate::timing` for the rationale.
        let (flat_ns, sched) = crate::timing::bench_ns(reps.max(1), run_flat);
        let total_cost = flat_total_cost(&flat, &sched).total();

        let (exact_ns, exact_cost) = match &windowed {
            Some(trace) => {
                let start = Instant::now();
                let exact = pim_reference::schedule(paper, trace, policy)
                    .expect("unbounded cannot exhaust");
                let exact_ns = start.elapsed().as_nanos();
                let exact_cost = exact.evaluate(trace).total();
                assert_eq!(
                    exact_cost, total_cost,
                    "flat/{method} diverged from the reference oracle at {side}x{side} n={num_data}"
                );
                (Some(exact_ns), Some(exact_cost))
            }
            None => (None, None),
        };
        methods.push(MethodScale {
            method,
            flat_ns,
            total_cost,
            exact_ns,
            exact_cost,
        });
    }

    ScaleRow {
        side,
        num_data,
        num_windows: SCALE_WINDOWS,
        num_refs: flat.num_refs(),
        build_ns,
        methods,
        peak_rss_kb: crate::timing::peak_rss_kb().unwrap_or(0),
    }
}

/// Render rows as the `BENCH_scale.json` document (hand-rolled JSON; the
/// offline build has no JSON crate and the schema is flat).
pub fn render_json(rows: &[ScaleRow]) -> String {
    use std::fmt::Write as _;
    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"config\": {{\"windows\": {SCALE_WINDOWS}, \"seed\": {SCALE_SEED}, \
         \"memory\": \"unbounded\", \"refs_per_datum_mean\": 8}},\n  \"rows\": [\n"
    );
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    {{\"grid\": \"{0}x{0}\", \"num_data\": {1}, \"num_windows\": {2}, \
             \"num_refs\": {3}, \"build_ns\": {4}, \"peak_rss_kb\": {5}, \"methods\": [",
            row.side, row.num_data, row.num_windows, row.num_refs, row.build_ns, row.peak_rss_kb
        );
        for (j, m) in row.methods.iter().enumerate() {
            if j > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "{{\"method\": \"{}\", \"flat_ns\": {}, \"total_cost\": {}",
                m.method, m.flat_ns, m.total_cost
            );
            if let (Some(e), Some(c), Some(s)) = (m.exact_ns, m.exact_cost, m.speedup()) {
                let _ = write!(
                    json,
                    ", \"exact_ns\": {e}, \"exact_cost\": {c}, \"speedup\": {s:.3}"
                );
            }
            json.push('}');
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
    fn generator_is_deterministic_and_local() {
        let grid = Grid::new(8, 8);
        let a = synthetic_flat(grid, 4, 100, 7);
        let b = synthetic_flat(grid, 4, 100, 7);
        assert_eq!(a.num_refs(), b.num_refs());
        assert_eq!(a.total_volume(), b.total_volume());
        assert!(a.num_refs() >= 100 * 3, "every datum references something");
        // Locality: each datum's refs stay within an L1 radius of ~6 of
        // each other (home box ±3 per axis).
        for d in 0..100 {
            let span = a.span(DataId(d));
            let (x0, y0) = (span[0].x as i64, span[0].y as i64);
            for r in span {
                assert!((r.x as i64 - x0).abs() + (r.y as i64 - y0).abs() <= 12);
            }
        }
    }

    #[test]
    fn scale_row_parity_holds_on_small_instance() {
        let row = scale_row(8, 500, true, 1);
        assert_eq!(row.methods.len(), 2);
        for m in &row.methods {
            assert_eq!(m.exact_cost, Some(m.total_cost));
            assert!(m.speedup().is_some());
        }
        let json = render_json(&[row]);
        assert!(json.contains("\"grid\": \"8x8\""));
        assert!(json.contains("\"speedup\""));
    }
}
