#![warn(missing_docs)]
//! # pim-bench
//!
//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation plus the ablation sweeps listed in `DESIGN.md` §4.
//!
//! Binaries (run with `cargo run --release -p pim-bench --bin <name>`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table 1 — total communication cost before grouping |
//! | `table2` | Table 2 — after Algorithm 3 grouping |
//! | `figure1` | Figure 1 — the worked single-datum example |
//! | `sweep_window` | ablation B — window size vs cost |
//! | `sweep_memory` | ablation C — memory pressure vs cost |
//! | `sweep_array` | ablation D — array size vs cost |
//! | `ablation_solver` | ablation A — naive vs 2-D transform vs separable GOMCDS |
//! | `ablation_grouping` | ablation E — greedy vs DP-optimal grouping |
//!
//! Criterion micro-benches live under `benches/`. All binaries accept
//! `--csv` to emit machine-readable output alongside the pretty table.
//!
//! `report_scale` (module [`scale`]) is the big-instance harness: synthetic
//! flat traces up to 64×64 grids × 1M data, timing the SoA fast paths
//! against the classic schedulers and writing `BENCH_scale.json`.
//!
//! `report_churn` (module [`churn`]) is the steady-state churn harness:
//! per-tick trace edits driven through the incremental engine vs a
//! from-scratch re-schedule, writing `BENCH_churn.json`. Shared timing
//! conventions (min-of-reps, slower-than-reference warnings) live in
//! [`timing`].
//!
//! `report_serve` (module [`serve_load`]) is the daemon load harness:
//! closed-loop clients against an in-process `pim-serve` TCP daemon
//! (warm / churn / cold request mixes plus an overload burst), writing
//! `BENCH_serve.json` with throughput and latency percentiles.
//!
//! `report_stream` (module [`stream`]) is the out-of-core harness: a big
//! instance packed to the `.pimb` binary format, scheduled end-to-end by
//! the streaming pipeline and by the resident in-memory pipeline in
//! separate child processes (peak RSS is process-wide), writing
//! `BENCH_stream.json` with cost parity, RSS ratios and binary-vs-text
//! load speed.

pub mod churn;
pub mod cycle_workload;
pub mod experiments;
pub mod scale;
pub mod serve_load;
pub mod stream;
pub mod table;
pub mod timing;

pub use experiments::{paper_config, run_comparison, ComparisonRow, PaperConfig};
