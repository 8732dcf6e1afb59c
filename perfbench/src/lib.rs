//! # pim-perfbench
//!
//! The repository's benchmark: four workloads that each stress different
//! layers of the scheduling stack, measured end to end with tracing off,
//! and split layer by layer in a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload text-batch --seed 1998 --seconds 10 --trace 0
//! ```
//!
//! Every run prints human-readable report lines (prefixed `# `) and ends
//! with one JSON line: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics of [`E2E_METRICS`] untraced, the per-layer
//! metrics of [`LAYER_METRICS`] traced. Inputs come from the repository's
//! own synthetic generator ([`pim_bench::scale`]) seeded by `--seed`; the
//! library only ever sees the generated inputs. Timings are taken by
//! wrapping calls into the library's public functions (see [`spans`]);
//! nothing inside the library is instrumented.

mod offline;
pub mod report;
pub mod rss;
mod serve;
pub mod spans;
pub mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use pim_array::grid::Grid;
use pim_sched::MemoryPolicy;

use report::Metric;
use spans::Spans;

/// Seed whose costs are pinned in [`pinned_costs`].
pub const DEFAULT_SEED: u64 = 1998;

/// The bounded memory policy every bounded schedule uses: twice the
/// minimum per-processor capacity.
pub const BOUNDED: MemoryPolicy = MemoryPolicy::ScaledMinimum { factor: 2 };

/// End-to-end metrics every untraced run reports, with their units.
///
/// A "job" is one unit of the workload's work as its user sees it:
/// text-batch parses the text trace and runs bounded SCDS and LOMCDS,
/// each folded to a cost; stream-pimb streams the `.pimb` file through
/// SCDS and LOMCDS; gomcds-dp opens the `.pimb` file and runs bounded
/// GOMCDS; serve-mixed is one client's run of twenty cycles of four
/// schedule requests and one edit, timed from the client.
///
/// `job_p10_ms` is the [`JOB_QUANTILE`] of a run's job times, not their
/// median: on a host that shares its CPUs and memory with others, the
/// median job of a run moved by up to 20% from one run to the next while
/// the 10th percentile stayed within about 5%, because nearly every run
/// has some jobs that no neighbour slowed down. The median and the
/// workload's own figures are in the report lines. `setup_s` is the
/// median of the run's setups; `peak_rss_mb` is the peak RSS
/// of the measured jobs or sessions alone.
pub const E2E_METRICS: &[(&str, &str)] =
    &[("setup_s", "s"), ("job_p10_ms", "ms"), ("peak_rss_mb", "MB")];

/// The quantile of a run's job times that `job_p10_ms` reports.
pub const JOB_QUANTILE: f64 = 0.10;

/// Per-layer metrics every traced run reports, with their units. A layer
/// the workload never calls reports 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("trace.flat.from_reader_s", "s"),
    ("trace.flat.from_records_s", "s"),
    ("trace.flat.parse_self_s", "s"),
    ("trace.flat.input_mb", "MB"),
    ("trace.flat.refs", "count"),
    ("trace.binfmt.open_s", "s"),
    ("trace.binfmt.file_mb", "MB"),
    ("sched.flat.scds_unbounded_s", "s"),
    ("sched.flat.lomcds_unbounded_s", "s"),
    ("sched.flat.gomcds_unbounded_s", "s"),
    ("sched.gomcds.cells_per_s", "1/s"),
    ("sched.replay.scds_s", "s"),
    ("sched.replay.lomcds_s", "s"),
    ("sched.replay.gomcds_s", "s"),
    ("sched.cache.build_s", "s"),
    ("sched.cache.warm_s", "s"),
    ("sched.fold.scds_s", "s"),
    ("sched.fold.lomcds_s", "s"),
    ("sched.fold.gomcds_s", "s"),
    ("sched.stream.scds_s", "s"),
    ("sched.stream.lomcds_s", "s"),
    ("sched.stream.chunks", "count"),
    ("sched.stream.mb_per_s", "MB/s"),
    ("sched.stream.overhead_s", "s"),
    ("par.gomcds_serial_s", "s"),
    ("par.gomcds_speedup", "ratio"),
    ("sched.incremental.apply_us", "us"),
    ("sched.incremental.resolve_us", "us"),
    ("sched.incremental.fallbacks", "count"),
    ("trace.edit.materialize_ms", "ms"),
    ("serve.proto.decode_us", "us"),
    ("serve.core.schedule_us", "us"),
    ("serve.core.edit_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.engine_reuse_ratio", "ratio"),
    ("serve.service_p50_us", "us"),
    ("bench.job_untraced_ms", "ms"),
    ("bench.job_traced_ms", "ms"),
    ("bench.trace_overhead_ms", "ms"),
    ("bench.pool_threads", "count"),
    ("bench.client_connections", "count"),
    ("bench.working_set_mb", "MB"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Text parse, CSR build, bounded SCDS and LOMCDS, cost folds.
    TextBatch,
    /// Out-of-core SCDS and LOMCDS over a `.pimb` file.
    StreamPimb,
    /// Memory-mapped open and bounded GOMCDS.
    GomcdsDp,
    /// A TCP daemon under a closed-loop schedule/edit mix.
    ServeMixed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::TextBatch,
        Workload::StreamPimb,
        Workload::GomcdsDp,
        Workload::ServeMixed,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TextBatch => "text-batch",
            Workload::StreamPimb => "stream-pimb",
            Workload::GomcdsDp => "gomcds-dp",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layers it stresses and which it
    /// bypasses (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::TextBatch => {
                "offline text path: parse + CSR build and bounded LOMCDS capacity \
                 replay dominate; no DP, mmap or serve work runs"
            }
            Workload::StreamPimb => {
                "same median kernels out of core: stream loop and chunk reader in \
                 bounded memory, no parse, build or LOMCDS replay"
            }
            Workload::GomcdsDp => {
                "CostCache and distance-transform DP are nearly all of the run; \
                 load is an mmap open, so a DP change moves it and a parse change \
                 does not"
            }
            Workload::ServeMixed => {
                "TCP daemon, 2 closed-loop clients: edits (incremental resolve) \
                 beside schedules (materialize after an edit, else warm hits)"
            }
        }
    }

    /// The instance size the benchmark measures.
    pub fn shape(self) -> Shape {
        match self {
            Workload::TextBatch => Shape::new(16, 32, 200_000),
            Workload::StreamPimb => Shape::new(64, 32, 1_000_000),
            Workload::GomcdsDp => Shape::new(16, 32, 10_000),
            Workload::ServeMixed => Shape::new(16, 32, 20_000),
        }
    }

    /// A tiny instance of the same shape family, for the benchmark's own
    /// tests.
    pub fn tiny_shape(self) -> Shape {
        match self {
            Workload::TextBatch => Shape::new(8, 8, 3_000),
            Workload::StreamPimb => Shape::new(8, 8, 3_000),
            Workload::GomcdsDp => Shape::new(8, 8, 300),
            Workload::ServeMixed => Shape::new(8, 8, 1_000),
        }
    }
}

/// One synthetic instance: a `side`×`side` grid, `windows` windows and
/// `data` data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Grid side length.
    pub side: u32,
    /// Execution windows.
    pub windows: usize,
    /// Data items.
    pub data: usize,
}

impl Shape {
    /// Shorthand constructor.
    pub const fn new(side: u32, windows: usize, data: usize) -> Shape {
        Shape {
            side,
            windows,
            data,
        }
    }

    /// The processor grid.
    pub fn grid(&self) -> Grid {
        Grid::new(self.side, self.side)
    }
}

/// Costs pinned for [`DEFAULT_SEED`] at each workload's full
/// [`Workload::shape`], in the order the workload reports them.
pub fn pinned_costs(workload: Workload) -> &'static [u64] {
    match workload {
        // Bounded SCDS, bounded LOMCDS.
        Workload::TextBatch => &[5_820_248, 3_571_538],
        // Bounded SCDS, unbounded LOMCDS.
        Workload::StreamPimb => &[30_979_773, 19_060_474],
        // Bounded GOMCDS.
        Workload::GomcdsDp => &[163_921],
        // Per client: bounded LOMCDS before and after its first edit.
        Workload::ServeMixed => &[354_180, 354_160, 358_042, 357_979],
    }
}

/// Everything one run needs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (a traced run splits them in three: untraced
    /// jobs, traced jobs, layer calls).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Instance size.
    pub shape: Shape,
    /// Scratch directory for generated files (created and removed by the
    /// run).
    pub dir: PathBuf,
    /// Fewest times setup is repeated (the median is `setup_s`).
    pub setup_reps: usize,
    /// Setup is also repeated enough times to take about this long at
    /// the first setup's pace.
    pub setup_seconds: f64,
    /// Costs to check against; empty means "check against a second
    /// library path instead".
    pub pinned: Vec<u64>,
}

impl RunConfig {
    /// The benchmark's configuration for `workload`: full size, costs
    /// pinned when `seed` is the default seed.
    pub fn full(workload: Workload, seed: u64, seconds: f64, traced: bool, dir: PathBuf) -> Self {
        RunConfig {
            workload,
            seed,
            seconds,
            traced,
            shape: workload.shape(),
            dir,
            setup_reps: 3,
            setup_seconds: 2.0,
            pinned: if seed == DEFAULT_SEED {
                pinned_costs(workload).to_vec()
            } else {
                Vec::new()
            },
        }
    }
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured region.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong cost.
    pub failed: u64,
    /// Whether the reference check (pins or second path) passed.
    pub reference_ok: bool,
    /// The JSON metrics: [`E2E_METRICS`] untraced, [`LAYER_METRICS`]
    /// traced.
    pub metrics: Vec<Metric>,
    /// The workload's own end-to-end figures by their names (`load_s`,
    /// `scds_s`, `schedule_p99_us`, ...), for the human report.
    pub detail: Vec<Metric>,
    /// Extra human-readable report lines.
    pub notes: Vec<String>,
    /// Bytes of the data the measured jobs work on.
    pub working_set: u64,
    /// The verified costs of the run, in the workload's order.
    pub costs: Vec<u64>,
    /// The span log (stage spans always; layer spans when traced).
    pub spans: Spans,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.reference_ok && self.failed == 0
    }
}

/// Run one workload end to end.
pub fn run(cfg: &RunConfig) -> Outcome {
    std::fs::create_dir_all(&cfg.dir).expect("create the benchmark work directory");
    let out = match cfg.workload {
        Workload::TextBatch => offline::run::<offline::TextBatch>(cfg),
        Workload::StreamPimb => offline::run::<offline::StreamPimb>(cfg),
        Workload::GomcdsDp => offline::run::<offline::GomcdsDp>(cfg),
        Workload::ServeMixed => serve::run(cfg),
    };
    let _ = std::fs::remove_dir_all(&cfg.dir);
    // The shared parent goes too once no other run is using it.
    if let Some(parent) = cfg.dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    out
}

/// Most setups one run makes.
const MAX_SETUPS: usize = 100;

/// The timed setups of one run. The run makes at least `cfg.setup_reps`
/// of them, and enough to take about `cfg.setup_seconds` at the first
/// one's pace (cheap setups are repeated more, so that their median is as
/// steady as that of costly ones), at most [`MAX_SETUPS`].
pub(crate) struct Setups {
    /// Seconds each setup took, in order.
    pub(crate) times: Vec<f64>,
    planned: usize,
}

impl Setups {
    /// Time the first setup and plan the rest.
    pub(crate) fn first<T>(cfg: &RunConfig, setup: impl FnOnce() -> T) -> (T, Setups) {
        let start = Instant::now();
        let first = setup();
        let secs = start.elapsed().as_secs_f64();
        let by_time = (cfg.setup_seconds / secs.max(1e-9)).ceil() as usize;
        let planned = by_time.max(cfg.setup_reps).clamp(1, MAX_SETUPS);
        let setups = Setups {
            times: vec![secs],
            planned,
        };
        (first, setups)
    }

    /// Whether another setup is due once `share` of the measured time has
    /// passed, the planned setups being spread evenly over it.
    pub(crate) fn due(&self, share: f64) -> bool {
        let done = self.times.len();
        done < self.planned && share * self.planned as f64 >= done as f64
    }

    /// Time one more setup.
    pub(crate) fn again<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = setup();
        self.times.push(start.elapsed().as_secs_f64());
        out
    }
}

/// Make every planned setup back to back. Returns the last result and the
/// setup times in seconds; `teardown` runs untimed on each earlier result
/// before the next setup.
pub(crate) fn repeat_setup<T>(
    cfg: &RunConfig,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, Vec<f64>) {
    let (mut last, mut setups) = Setups::first(cfg, &mut setup);
    while setups.due(1.0) {
        teardown(last);
        last = setups.again(&mut setup);
    }
    (last, setups.times)
}

/// Fill the per-layer metric list from the values a workload measured;
/// layers it never called report 0.
pub(crate) fn layer_metrics(values: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    for name in values.keys() {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| n == name),
            "unlisted layer metric {name}"
        );
    }
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| Metric::new(name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// The end-to-end metric list.
pub(crate) fn e2e_metrics(setup_s: &[f64], job_s: &[f64], peak_rss_kb: f64) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", stats::median(setup_s), "s"),
        Metric::new(
            "job_p10_ms",
            stats::percentile(job_s, JOB_QUANTILE) * 1e3,
            "ms",
        ),
        Metric::new("peak_rss_mb", peak_rss_kb / 1024.0, "MB"),
    ]
}

/// Bytes per MB in every figure the benchmark reports.
pub const MB: f64 = (1u64 << 20) as f64;

/// Bytes of a flat trace's CSR arrays (16-byte refs, 8-byte offsets).
pub(crate) fn csr_bytes(num_data: usize, num_refs: usize) -> u64 {
    (num_refs * 16 + (num_data + 1) * 8) as u64
}

/// Derive an independent generator seed from the run seed and a stream
/// tag (so two traces of one run never share a stream).
pub(crate) fn sub_seed(seed: u64, tag: u64) -> u64 {
    pim_bench::scale::Rng64::new(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}
