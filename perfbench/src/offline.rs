//! The three offline workloads and the harness they share.
//!
//! A run sets up its inputs (timed), flushes them to disk, runs one
//! untimed warm-up job (first touch of the input file, page faults), and
//! then repeats the job until the measured time is spent, setting the
//! inputs up again (timed, into an emptied work directory) at even
//! intervals in between; every job's costs must equal the warm-up's.
//! Afterwards the warm-up costs are checked against the pinned costs or a
//! second library path. A traced run spends a third of its time on
//! untraced jobs, a third on traced jobs and a third on the extra calls
//! that split the job into layers.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

use pim_bench::scale::{synthetic_flat, synthetic_records};
use pim_par::Pool;
use pim_sched::{
    flat_gomcds, flat_lomcds, flat_scds, flat_total_cost, stream_schedule, CostCache, MemoryPolicy,
    Method, SchedError, Schedule, StreamConfig,
};
use pim_trace::binfmt::{self, BinTrace};
use pim_trace::flat::{FlatTrace, FlatView};

use crate::report::Metric;
use crate::spans::Spans;
use crate::{
    csr_bytes, e2e_metrics, layer_metrics, rss, stats, Outcome, RunConfig, Setups, BOUNDED, MB,
};

/// One offline workload.
pub(crate) trait Offline: Sized {
    /// Generate the inputs from the run's seed and write them to disk.
    fn setup(cfg: &RunConfig) -> Self;
    /// One job: stage spans always, layer spans when traced. Returns the
    /// job's costs.
    fn job(&self, pool: Pool, s: &mut Spans) -> Result<Vec<u64>, String>;
    /// The same costs through a second library path on the same input.
    fn second_path(&self, pool: Pool) -> Result<Vec<u64>, String>;
    /// Traced runs only: calls that split the job into its layers.
    fn layer_calls(&self, pool: Pool, s: &mut Spans) -> Result<(), String>;
    /// Per-layer values from a traced span log.
    fn layers(&self, s: &Spans, v: &mut BTreeMap<&'static str, f64>);
    /// The workload's own end-to-end figures from an untraced span log.
    fn detail(&self, s: &Spans) -> Vec<Metric>;
    /// Bytes of the data the job works on.
    fn working_set(&self) -> u64;
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The total cost of a schedule result.
fn cost_of<V: FlatView + ?Sized>(
    flat: &V,
    schedule: Result<Schedule, SchedError>,
) -> Result<u64, String> {
    Ok(flat_total_cost(flat, &schedule.map_err(err)?).total())
}

/// Schedule, fold the schedule to its total cost, and free it, each in
/// its own layer span.
fn solve_and_fold<V: FlatView + ?Sized>(
    s: &mut Spans,
    spans: (&'static str, &'static str),
    flat: &V,
    solve: impl FnOnce() -> Result<Schedule, SchedError>,
) -> Result<u64, String> {
    let schedule = s.layer(spans.0, |_| solve()).map_err(err)?;
    let cost = s.layer(spans.1, |_| flat_total_cost(flat, &schedule).total());
    s.layer("free", |_| drop(schedule));
    Ok(cost)
}

/// Run `step` until `seconds` have passed (at least once), counting its
/// attempts and failures.
fn timed_loop(seconds: f64, out: &mut Outcome, mut step: impl FnMut(&mut Outcome) -> bool) {
    let start = Instant::now();
    let mut steps = 0;
    while steps == 0 || start.elapsed().as_secs_f64() < seconds {
        steps += 1;
        out.attempted += 1;
        if !step(out) {
            out.failed += 1;
        }
    }
}

/// One job whose costs must equal `expected`.
fn checked_job<B: Offline>(
    bench: &B,
    pool: Pool,
    expected: &[u64],
    s: &mut Spans,
    out: &mut Outcome,
) -> bool {
    match bench.job(pool, s) {
        Ok(costs) => costs == expected,
        Err(e) => {
            if out.failed == 0 {
                out.notes.push(format!("job failed: {e}"));
            }
            false
        }
    }
}

/// Flush the generated files to disk, so that write-back does not run
/// during the measured jobs.
fn settle(dir: &Path) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if let Ok(file) = File::open(entry.path()) {
            let _ = file.sync_all();
        }
    }
}

/// Drop an earlier setup's result and delete its files, so that the next
/// setup writes into an empty directory as the first one did, and no
/// write-back of the earlier files runs while it is timed.
fn discard<B>(dir: &Path, bench: B) {
    drop(bench);
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let _ = std::fs::remove_file(entry.path());
    }
}

/// Replace the inputs with those of one more timed setup (the same files,
/// since the seed is the same), flushed to disk untimed.
fn setup_again<B: Offline>(cfg: &RunConfig, setups: &mut Setups, bench: B) -> B {
    discard(&cfg.dir, bench);
    let bench = setups.again(|| B::setup(cfg));
    settle(&cfg.dir);
    bench
}

/// The offline harness (see the module docs).
///
/// Jobs run on a serial pool. On a host that shares its CPUs with others,
/// a pooled job's time depends on whether the other CPUs happen to be
/// free: with two threads, gomcds-dp's median moved by 30% between two
/// sets of runs of the same code, against 7% serial. The pool itself is
/// measured in the traced run (`par.gomcds_*`).
pub(crate) fn run<B: Offline>(cfg: &RunConfig) -> Outcome {
    let pool = Pool::serial();
    let (mut bench, mut setups) = Setups::first(cfg, || B::setup(cfg));
    let mut out = Outcome::default();

    settle(&cfg.dir);
    let warm = bench.job(pool, &mut Spans::new(false));
    let expected = warm.clone().unwrap_or_default();

    // A traced run splits its time in three: untraced jobs, traced jobs,
    // and the extra layer calls, so that the two kinds of job run under
    // the same conditions and their difference is the tracing overhead.
    let share = if cfg.traced {
        cfg.seconds / 3.0
    } else {
        cfg.seconds
    };

    // The untraced jobs. The remaining setups are spread evenly between
    // them: a shared host can run a few seconds slow or fast, and setups
    // made back to back before the jobs saw only those first seconds
    // (gomcds-dp's median setup read 6 ms in one run and 11 ms in the
    // next). The peak-RSS mark is reset before each job, so the peak is
    // the largest job's and never a setup's.
    let mut plain = Spans::new(false);
    let mut peak_kb = 0;
    let mut measured = 0.0;
    while out.attempted == 0 || measured < share {
        while setups.due(measured / share) {
            bench = setup_again(cfg, &mut setups, bench);
        }
        let _ = rss::reset_peak();
        let start = Instant::now();
        out.attempted += 1;
        if !checked_job(&bench, pool, &expected, &mut plain, &mut out) {
            out.failed += 1;
        }
        measured += start.elapsed().as_secs_f64();
        peak_kb = peak_kb.max(rss::peak_rss_kb().unwrap_or(0));
    }
    while setups.due(1.0) {
        bench = setup_again(cfg, &mut setups, bench);
    }
    let setup_s = setups.times;
    let peak_kb = peak_kb as f64;
    let job_s = plain.samples("job");

    // The reference check runs after the measured jobs so that its memory
    // never counts in their peak.
    let reference = if cfg.pinned.is_empty() {
        bench.second_path(pool)
    } else {
        Ok(cfg.pinned.clone())
    };
    match (&warm, &reference) {
        (Ok(w), Ok(r)) if w == r => out.reference_ok = true,
        (w, r) => out.notes.push(format!(
            "reference check failed: job {w:?}, reference {r:?}"
        )),
    }

    out.detail = bench.detail(&plain);
    out.detail
        .push(Metric::new("job_p50_ms", stats::median(&job_s) * 1e3, "ms"));
    out.detail
        .push(Metric::new("setup_s", stats::median(&setup_s), "s"));
    out.detail
        .push(Metric::new("peak_rss_mb", peak_kb / 1024.0, "MB"));
    out.working_set = bench.working_set();
    out.notes.push(format!(
        "pool threads: {} (nproc {}); untraced jobs: {}",
        pool.threads(),
        crate::report::nproc(),
        job_s.len()
    ));

    if cfg.traced {
        let mut traced = Spans::new(true);
        timed_loop(share, &mut out, |out| {
            checked_job(&bench, pool, &expected, &mut traced, out)
        });
        timed_loop(share, &mut out, |out| {
            match bench.layer_calls(pool, &mut traced) {
                Ok(()) => true,
                Err(e) => {
                    if out.failed == 0 {
                        out.notes.push(format!("layer calls failed: {e}"));
                    }
                    false
                }
            }
        });
        let mut v = BTreeMap::new();
        bench.layers(&traced, &mut v);
        let untraced_ms = stats::median(&job_s) * 1e3;
        let traced_ms = traced.median_s("job") * 1e3;
        v.insert("bench.job_untraced_ms", untraced_ms);
        v.insert("bench.job_traced_ms", traced_ms);
        v.insert("bench.trace_overhead_ms", traced_ms - untraced_ms);
        v.insert("bench.pool_threads", pool.threads() as f64);
        v.insert("bench.working_set_mb", bench.working_set() as f64 / MB);
        out.metrics = layer_metrics(&v);
        out.spans = traced;
    } else {
        out.metrics = e2e_metrics(&setup_s, &job_s, peak_kb);
        out.spans = plain;
    }
    if !out.reference_ok {
        // Every job reproduced the warm-up's costs, so every job was wrong.
        out.failed = out.attempted;
    }
    let ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.detail.push(Metric::new("failed_ratio", ratio, "ratio"));
    out.costs = expected;
    out
}

/// text-batch: the 16×16 synthetic trace as a text file, parsed with
/// `FlatTrace::from_reader`, then bounded SCDS and LOMCDS, each folded
/// with `flat_total_cost` — the offline `pim-cli run` path.
pub(crate) struct TextBatch {
    cfg: RunConfig,
    path: PathBuf,
    text_bytes: u64,
    num_refs: usize,
}

impl Offline for TextBatch {
    fn setup(cfg: &RunConfig) -> Self {
        let flat = synthetic_flat(
            cfg.shape.grid(),
            cfg.shape.windows,
            cfg.shape.data,
            cfg.seed,
        );
        let text = flat.to_text();
        let path = cfg.dir.join("text-batch.txt");
        std::fs::write(&path, &text).expect("write the text trace");
        TextBatch {
            cfg: cfg.clone(),
            path,
            text_bytes: text.len() as u64,
            num_refs: flat.num_refs(),
        }
    }

    fn job(&self, pool: Pool, s: &mut Spans) -> Result<Vec<u64>, String> {
        s.stage("job", |s| {
            let flat = s.stage("load", |s| {
                s.layer("trace.flat.from_reader", |_| {
                    let file = File::open(&self.path).map_err(err)?;
                    FlatTrace::from_reader(BufReader::new(file)).map_err(err)
                })
            })?;
            let scds = s.stage("scds", |s| {
                solve_and_fold(s, ("sched.scds.bounded", "sched.fold.scds"), &flat, || {
                    flat_scds(&flat, BOUNDED, pool)
                })
            })?;
            let lomcds = s.stage("lomcds", |s| {
                solve_and_fold(
                    s,
                    ("sched.lomcds.bounded", "sched.fold.lomcds"),
                    &flat,
                    || flat_lomcds(&flat, BOUNDED, pool),
                )
            })?;
            s.layer("free", |_| drop(flat));
            Ok(vec![scds, lomcds])
        })
    }

    fn second_path(&self, pool: Pool) -> Result<Vec<u64>, String> {
        let shape = self.cfg.shape;
        let flat = synthetic_flat(shape.grid(), shape.windows, shape.data, self.cfg.seed);
        let path = self.cfg.dir.join("text-batch-check.pimb");
        binfmt::pack_file(&flat, &path).map_err(err)?;
        drop(flat);
        let bin = BinTrace::open(&path).map_err(err)?;
        let scds = cost_of(&bin, flat_scds(&bin, BOUNDED, pool))?;
        let lomcds = cost_of(&bin, flat_lomcds(&bin, BOUNDED, pool))?;
        drop(bin);
        std::fs::remove_file(&path).map_err(err)?;
        Ok(vec![scds, lomcds])
    }

    fn layer_calls(&self, pool: Pool, s: &mut Spans) -> Result<(), String> {
        let shape = self.cfg.shape;
        let (grid, windows, data) = (shape.grid(), shape.windows, shape.data);
        let records = synthetic_records(grid, windows, data, self.cfg.seed);
        let flat = s
            .layer("trace.flat.from_records", |_| {
                FlatTrace::from_records(grid, windows, data, records)
            })
            .map_err(err)?;
        s.layer("sched.scds.unbounded", |_| {
            flat_scds(&flat, MemoryPolicy::Unbounded, pool)
        })
        .map_err(err)?;
        s.layer("sched.lomcds.unbounded", |_| {
            flat_lomcds(&flat, MemoryPolicy::Unbounded, pool)
        })
        .map_err(err)?;
        Ok(())
    }

    fn layers(&self, s: &Spans, v: &mut BTreeMap<&'static str, f64>) {
        let m = |name: &str| s.median_s(name);
        let from_reader = m("trace.flat.from_reader");
        let from_records = m("trace.flat.from_records");
        v.insert("trace.flat.from_reader_s", from_reader);
        v.insert("trace.flat.from_records_s", from_records);
        v.insert("trace.flat.parse_self_s", from_reader - from_records);
        v.insert("trace.flat.input_mb", self.text_bytes as f64 / MB);
        v.insert("trace.flat.refs", self.num_refs as f64);
        v.insert("sched.flat.scds_unbounded_s", m("sched.scds.unbounded"));
        v.insert("sched.flat.lomcds_unbounded_s", m("sched.lomcds.unbounded"));
        v.insert(
            "sched.replay.scds_s",
            m("sched.scds.bounded") - m("sched.scds.unbounded"),
        );
        v.insert(
            "sched.replay.lomcds_s",
            m("sched.lomcds.bounded") - m("sched.lomcds.unbounded"),
        );
        v.insert("sched.fold.scds_s", m("sched.fold.scds"));
        v.insert("sched.fold.lomcds_s", m("sched.fold.lomcds"));
    }

    fn detail(&self, s: &Spans) -> Vec<Metric> {
        vec![
            Metric::new("load_s", s.median_s("load"), "s"),
            Metric::new("scds_s", s.median_s("scds"), "s"),
            Metric::new("lomcds_s", s.median_s("lomcds"), "s"),
        ]
    }

    fn working_set(&self) -> u64 {
        self.text_bytes + csr_bytes(self.cfg.shape.data, self.num_refs)
    }
}

/// Data per chunk of the stream-pimb walk. The library's default chunk
/// (256k data) decodes into buffers of about 32 MB, right at the cap of
/// glibc's dynamic mmap threshold, so whether freed buffers stay resident
/// depends on the input: peak RSS read 181 MB on some seeds and 244 MB on
/// others. Even below the cap, whether a freed buffer stays resident
/// varies from run to run, so peak RSS moves in steps of one buffer:
/// with 32k-data chunks (4 MB buffers) it read 36, 40 or 44 MB. Chunks of
/// 8k data make the step 1 MB, with the allocator left as it is.
pub(crate) const STREAM_CHUNK_DATA: usize = 8 * 1024;

/// stream-pimb: a 64×64 `.pimb` file scheduled out of core by
/// `stream_schedule` in [`STREAM_CHUNK_DATA`] chunks — bounded SCDS and
/// unbounded LOMCDS, never holding the trace or a schedule in memory.
pub(crate) struct StreamPimb {
    path: PathBuf,
    file_bytes: u64,
    chunks: std::cell::Cell<usize>,
}

impl StreamPimb {
    fn stream(&self, pool: Pool, method: Method, policy: MemoryPolicy) -> Result<u64, String> {
        let config = StreamConfig {
            chunk_data: STREAM_CHUNK_DATA,
        };
        let out = stream_schedule(&self.path, method, policy, pool, config).map_err(err)?;
        self.chunks.set(out.num_chunks);
        Ok(out.cost.total())
    }
}

impl Offline for StreamPimb {
    fn setup(cfg: &RunConfig) -> Self {
        let flat = synthetic_flat(
            cfg.shape.grid(),
            cfg.shape.windows,
            cfg.shape.data,
            cfg.seed,
        );
        let path = cfg.dir.join("stream-pimb.pimb");
        let file_bytes = binfmt::pack_file(&flat, &path).expect("pack the stream trace");
        StreamPimb {
            path,
            file_bytes,
            chunks: std::cell::Cell::new(0),
        }
    }

    fn job(&self, pool: Pool, s: &mut Spans) -> Result<Vec<u64>, String> {
        s.stage("job", |s| {
            let scds = s.stage("scds", |s| {
                s.layer("sched.stream.scds", |_| {
                    self.stream(pool, Method::Scds, BOUNDED)
                })
            })?;
            let lomcds = s.stage("lomcds", |s| {
                s.layer("sched.stream.lomcds", |_| {
                    self.stream(pool, Method::Lomcds, MemoryPolicy::Unbounded)
                })
            })?;
            Ok(vec![scds, lomcds])
        })
    }

    fn second_path(&self, pool: Pool) -> Result<Vec<u64>, String> {
        let bin = BinTrace::open(&self.path).map_err(err)?;
        let scds = cost_of(&bin, flat_scds(&bin, BOUNDED, pool))?;
        let lomcds = cost_of(&bin, flat_lomcds(&bin, MemoryPolicy::Unbounded, pool))?;
        Ok(vec![scds, lomcds])
    }

    fn layer_calls(&self, pool: Pool, s: &mut Spans) -> Result<(), String> {
        let bin = s
            .layer("trace.binfmt.open", |_| BinTrace::open(&self.path))
            .map_err(err)?;
        solve_and_fold(s, ("sched.scds.bounded", "sched.fold.scds"), &bin, || {
            flat_scds(&bin, BOUNDED, pool)
        })?;
        s.layer("sched.scds.unbounded", |_| {
            flat_scds(&bin, MemoryPolicy::Unbounded, pool)
        })
        .map_err(err)?;
        solve_and_fold(
            s,
            ("sched.lomcds.unbounded", "sched.fold.lomcds"),
            &bin,
            || flat_lomcds(&bin, MemoryPolicy::Unbounded, pool),
        )?;
        Ok(())
    }

    fn layers(&self, s: &Spans, v: &mut BTreeMap<&'static str, f64>) {
        let m = |name: &str| s.median_s(name);
        let open = m("trace.binfmt.open");
        let (stream_scds, stream_lomcds) = (m("sched.stream.scds"), m("sched.stream.lomcds"));
        let (scds, lomcds) = (m("sched.scds.bounded"), m("sched.lomcds.unbounded"));
        let (fold_scds, fold_lomcds) = (m("sched.fold.scds"), m("sched.fold.lomcds"));
        let file_mb = self.file_bytes as f64 / MB;
        v.insert("trace.binfmt.open_s", open);
        v.insert("trace.binfmt.file_mb", file_mb);
        v.insert("sched.flat.scds_unbounded_s", m("sched.scds.unbounded"));
        v.insert("sched.flat.lomcds_unbounded_s", lomcds);
        v.insert("sched.replay.scds_s", scds - m("sched.scds.unbounded"));
        v.insert("sched.fold.scds_s", fold_scds);
        v.insert("sched.fold.lomcds_s", fold_lomcds);
        v.insert("sched.stream.scds_s", stream_scds);
        v.insert("sched.stream.lomcds_s", stream_lomcds);
        v.insert("sched.stream.chunks", self.chunks.get() as f64);
        v.insert(
            "sched.stream.mb_per_s",
            2.0 * file_mb / (stream_scds + stream_lomcds),
        );
        v.insert(
            "sched.stream.overhead_s",
            (stream_scds - open - scds - fold_scds) + (stream_lomcds - open - lomcds - fold_lomcds),
        );
    }

    fn detail(&self, s: &Spans) -> Vec<Metric> {
        vec![
            Metric::new("scds_s", s.median_s("scds"), "s"),
            Metric::new("lomcds_s", s.median_s("lomcds"), "s"),
        ]
    }

    fn working_set(&self) -> u64 {
        self.file_bytes
    }
}

/// gomcds-dp: a 16×16 `.pimb` file opened with `BinTrace::open`, then
/// bounded GOMCDS (cost cache + distance-transform DP + masked replay)
/// folded with `flat_total_cost`. The traced run adds the same schedule on
/// a pool of `nproc` threads, for `par.gomcds_speedup`.
pub(crate) struct GomcdsDp {
    cfg: RunConfig,
    path: PathBuf,
    file_bytes: u64,
}

impl Offline for GomcdsDp {
    fn setup(cfg: &RunConfig) -> Self {
        let flat = synthetic_flat(
            cfg.shape.grid(),
            cfg.shape.windows,
            cfg.shape.data,
            cfg.seed,
        );
        let path = cfg.dir.join("gomcds-dp.pimb");
        let file_bytes = binfmt::pack_file(&flat, &path).expect("pack the gomcds trace");
        GomcdsDp {
            cfg: cfg.clone(),
            path,
            file_bytes,
        }
    }

    fn job(&self, pool: Pool, s: &mut Spans) -> Result<Vec<u64>, String> {
        s.stage("job", |s| {
            let bin = s
                .stage("load", |s| {
                    s.layer("trace.binfmt.open", |_| BinTrace::open(&self.path))
                })
                .map_err(err)?;
            let gomcds = s.stage("gomcds", |s| {
                solve_and_fold(
                    s,
                    ("sched.gomcds.bounded", "sched.fold.gomcds"),
                    &bin,
                    || flat_gomcds(&bin, BOUNDED, pool),
                )
            })?;
            s.layer("free", |_| drop(bin));
            Ok(vec![gomcds])
        })
    }

    fn second_path(&self, pool: Pool) -> Result<Vec<u64>, String> {
        let shape = self.cfg.shape;
        let flat = synthetic_flat(shape.grid(), shape.windows, shape.data, self.cfg.seed);
        Ok(vec![cost_of(&flat, flat_gomcds(&flat, BOUNDED, pool))?])
    }

    fn layer_calls(&self, pool: Pool, s: &mut Spans) -> Result<(), String> {
        let bin = BinTrace::open(&self.path).map_err(err)?;
        s.layer("sched.gomcds.unbounded", |_| {
            flat_gomcds(&bin, MemoryPolicy::Unbounded, pool)
        })
        .map_err(err)?;
        let cache = s.layer("sched.cache.build", |_| CostCache::build_flat(&bin));
        s.layer("sched.cache.warm", |_| cache.warm(pool));
        drop(cache);
        // Serial and pooled back to back on the same open file, so that
        // their ratio compares the pool and nothing else.
        s.layer("par.gomcds.serial", |_| flat_gomcds(&bin, BOUNDED, pool))
            .map_err(err)?;
        s.layer("par.gomcds.pooled", |_| {
            flat_gomcds(&bin, BOUNDED, Pool::auto())
        })
        .map_err(err)?;
        Ok(())
    }

    fn layers(&self, s: &Spans, v: &mut BTreeMap<&'static str, f64>) {
        let m = |name: &str| s.median_s(name);
        let shape = self.cfg.shape;
        let unbounded = m("sched.gomcds.unbounded");
        let bounded = m("sched.gomcds.bounded");
        let (serial, pooled) = (m("par.gomcds.serial"), m("par.gomcds.pooled"));
        let cells = (shape.data * shape.windows * shape.grid().num_procs()) as f64;
        v.insert("trace.binfmt.open_s", m("trace.binfmt.open"));
        v.insert("trace.binfmt.file_mb", self.file_bytes as f64 / MB);
        v.insert("sched.flat.gomcds_unbounded_s", unbounded);
        v.insert("sched.gomcds.cells_per_s", cells / unbounded);
        v.insert("sched.replay.gomcds_s", bounded - unbounded);
        v.insert("sched.cache.build_s", m("sched.cache.build"));
        v.insert("sched.cache.warm_s", m("sched.cache.warm"));
        v.insert("sched.fold.gomcds_s", m("sched.fold.gomcds"));
        v.insert("par.gomcds_serial_s", serial);
        v.insert("par.gomcds_speedup", serial / pooled);
    }

    fn detail(&self, s: &Spans) -> Vec<Metric> {
        vec![
            Metric::new("load_s", s.median_s("load"), "s"),
            Metric::new("gomcds_s", s.median_s("gomcds"), "s"),
        ]
    }

    fn working_set(&self) -> u64 {
        self.file_bytes
    }
}
