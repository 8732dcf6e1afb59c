//! Run-metrics observability layer for the PIM scheduling pipeline.
//!
//! A [`Metrics`] handle is a cheap, clonable sink that the scheduling stack
//! threads through its hot paths. It is **zero-cost when disabled**: the
//! disabled handle holds no allocation, every recording method is a single
//! `Option` check that returns immediately, and no clock is ever read. When
//! enabled (one `Arc` allocation), recorders are lock-free atomic adds —
//! phase timers take a short mutex only on scope exit.
//!
//! What the stack records:
//!
//! * **cache behavior** — lazy prefix-table builds, queries served from
//!   prefix tables, and queries served from the raw projections
//!   ([`CacheStats`], installed into the cost cache by the scheduling
//!   context);
//! * **capacity displacement** — for every datum placed under a bounded
//!   memory policy, how far below the optimal center (rank 0 in the
//!   scheduler's candidate list) it actually landed;
//! * **phase timings** — wall time per named phase (whole scheduler runs,
//!   and the phase-1 parallel / phase-2 capacity-replay split inside the
//!   two-phase bounded schedulers);
//! * **pool utilization** — jobs, per-worker task counts, and condvar
//!   parks from the `pim-par` worker pool, recorded as a per-run delta
//!   ([`PoolUsage`]).
//!
//! Recording **never** influences scheduling decisions; the registry-wide
//! conformance property in `tests/cache_equivalence.rs` proves every
//! schedule is bit-identical with metrics enabled vs. disabled.
//!
//! [`MetricsReport`] is the frozen snapshot; [`MetricsReport::to_json`]
//! renders it as a JSON object (hand-rolled with the shared
//! [`pim_trace::json`] escaper — the offline build has no JSON crate) for
//! embedding into a `RunReport` or a bench row.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Counters for cost-cache behavior. Shared (via `Arc`) between the
/// [`Metrics`] sink and the per-datum cost caches it is installed into.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Lazy prefix-table builds (at most one per datum per cache).
    pub prefix_builds: AtomicU64,
    /// Range queries served from the prefix tables.
    pub prefix_hits: AtomicU64,
    /// Range queries served directly from the raw per-axis projections
    /// (single-window or full-range, where no tables are needed).
    pub raw_serves: AtomicU64,
}

#[derive(Debug, Default)]
struct IncrementalStats {
    resolves: AtomicU64,
    dirty_data: AtomicU64,
    fallbacks: AtomicU64,
}

#[derive(Debug, Default)]
struct PlacementStats {
    placements: AtomicU64,
    displaced: AtomicU64,
    total_displacement: AtomicU64,
    max_displacement: AtomicU64,
}

/// Pool-utilization delta over one run of the `pim-par` worker pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolUsage {
    /// Parallel jobs submitted to the pool.
    pub jobs: u64,
    /// Items executed on pool worker threads.
    pub worker_tasks: u64,
    /// Items executed on the submitting thread (it always participates).
    pub submitter_tasks: u64,
    /// Items executed by the busiest single worker thread.
    pub max_worker_tasks: u64,
    /// Times a worker parked on the condvar waiting for work.
    pub parks: u64,
}

impl PoolUsage {
    fn accumulate(&mut self, other: PoolUsage) {
        self.jobs += other.jobs;
        self.worker_tasks += other.worker_tasks;
        self.submitter_tasks += other.submitter_tasks;
        self.max_worker_tasks = self.max_worker_tasks.max(other.max_worker_tasks);
        self.parks += other.parks;
    }
}

#[derive(Debug)]
struct PhaseAgg {
    name: &'static str,
    calls: u64,
    total_ns: u64,
}

#[derive(Debug, Default)]
struct Sink {
    cache: Arc<CacheStats>,
    placement: PlacementStats,
    incremental: IncrementalStats,
    phases: Mutex<Vec<PhaseAgg>>,
    pool: Mutex<PoolUsage>,
}

/// Cheap, clonable metrics handle. Clones share one sink, so a handle can
/// be passed by value into workspaces and contexts while the caller keeps
/// one to [`report`](Metrics::report) from.
///
/// The default handle is [disabled](Metrics::disabled): recording methods
/// return immediately without touching a clock or an atomic.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    sink: Option<Arc<Sink>>,
}

impl Metrics {
    /// A disabled handle: all recording is a no-op, nothing is allocated.
    pub fn disabled() -> Self {
        Metrics { sink: None }
    }

    /// An enabled handle backed by a fresh sink.
    pub fn enabled() -> Self {
        Metrics {
            sink: Some(Arc::new(Sink::default())),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The shared cache-counter block, for installing into a cost cache.
    /// `None` when disabled — the cache then skips counting entirely.
    pub fn cache_stats(&self) -> Option<Arc<CacheStats>> {
        self.sink.as_ref().map(|s| Arc::clone(&s.cache))
    }

    /// Start timing a named phase; the elapsed wall time is recorded when
    /// the returned guard drops. Disabled handles never read the clock.
    #[must_use = "the timer records on drop; binding it to _ discards it immediately"]
    pub fn phase(&self, name: &'static str) -> PhaseTimer<'_> {
        PhaseTimer {
            active: self
                .sink
                .as_deref()
                .map(|sink| (Instant::now(), name, sink)),
        }
    }

    /// Record one datum placement under a bounded policy. `displacement`
    /// is the datum's rank in the scheduler's candidate processor list:
    /// 0 means it landed on the optimal center, k means k better-ranked
    /// processors were already full.
    pub fn record_placement(&self, displacement: usize) {
        let Some(sink) = self.sink.as_deref() else {
            return;
        };
        let d = displacement as u64;
        sink.placement.placements.fetch_add(1, Ordering::Relaxed);
        if d > 0 {
            sink.placement.displaced.fetch_add(1, Ordering::Relaxed);
            sink.placement
                .total_displacement
                .fetch_add(d, Ordering::Relaxed);
            sink.placement
                .max_displacement
                .fetch_max(d, Ordering::Relaxed);
        }
    }

    /// Record one incremental resolve: how many data were dirty, and
    /// whether the bounded-policy patch had to fall back to a full
    /// capacity replay because a dirty datum displaced a clean one.
    pub fn record_incremental(&self, dirty_data: u64, fallback: bool) {
        let Some(sink) = self.sink.as_deref() else {
            return;
        };
        sink.incremental.resolves.fetch_add(1, Ordering::Relaxed);
        sink.incremental
            .dirty_data
            .fetch_add(dirty_data, Ordering::Relaxed);
        if fallback {
            sink.incremental.fallbacks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Accumulate a pool-utilization delta (one per scheduled run).
    pub fn record_pool(&self, usage: PoolUsage) {
        let Some(sink) = self.sink.as_deref() else {
            return;
        };
        sink.pool
            .lock()
            .expect("metrics pool lock")
            .accumulate(usage);
    }

    /// Freeze the counters into a report. Disabled handles report
    /// `enabled: false` with all-zero counters.
    pub fn report(&self) -> MetricsReport {
        let Some(sink) = self.sink.as_deref() else {
            return MetricsReport::default();
        };
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let placements = load(&sink.placement.placements);
        let total_displacement = load(&sink.placement.total_displacement);
        MetricsReport {
            enabled: true,
            cache: CacheReport {
                prefix_builds: load(&sink.cache.prefix_builds),
                prefix_hits: load(&sink.cache.prefix_hits),
                raw_serves: load(&sink.cache.raw_serves),
            },
            incremental: IncrementalReport {
                resolves: load(&sink.incremental.resolves),
                dirty_data: load(&sink.incremental.dirty_data),
                fallbacks: load(&sink.incremental.fallbacks),
            },
            placement: PlacementReport {
                placements,
                displaced: load(&sink.placement.displaced),
                total_displacement,
                max_displacement: load(&sink.placement.max_displacement),
                mean_displacement: if placements == 0 {
                    0.0
                } else {
                    total_displacement as f64 / placements as f64
                },
            },
            phases: sink
                .phases
                .lock()
                .expect("metrics phase lock")
                .iter()
                .map(|p| PhaseReport {
                    name: p.name.to_string(),
                    calls: p.calls,
                    total_ns: p.total_ns,
                })
                .collect(),
            pool: *sink.pool.lock().expect("metrics pool lock"),
        }
    }
}

/// Drop guard returned by [`Metrics::phase`]; records the elapsed wall
/// time under its phase name when it goes out of scope.
#[derive(Debug)]
pub struct PhaseTimer<'m> {
    active: Option<(Instant, &'static str, &'m Sink)>,
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        let Some((start, name, sink)) = self.active.take() else {
            return;
        };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut phases = sink.phases.lock().expect("metrics phase lock");
        match phases.iter_mut().find(|p| p.name == name) {
            Some(p) => {
                p.calls += 1;
                p.total_ns += ns;
            }
            None => phases.push(PhaseAgg {
                name,
                calls: 1,
                total_ns: ns,
            }),
        }
    }
}

/// Frozen cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheReport {
    /// Lazy prefix-table builds.
    pub prefix_builds: u64,
    /// Queries served from prefix tables.
    pub prefix_hits: u64,
    /// Queries served from raw projections.
    pub raw_serves: u64,
}

/// Frozen incremental-rescheduling counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalReport {
    /// Delta resolves performed by an incremental engine.
    pub resolves: u64,
    /// Total dirty data re-solved across all resolves.
    pub dirty_data: u64,
    /// Resolves that fell back to a full capacity replay.
    pub fallbacks: u64,
}

/// Frozen capacity-displacement counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlacementReport {
    /// Bounded-policy placements recorded.
    pub placements: u64,
    /// Placements that missed the optimal center (rank > 0).
    pub displaced: u64,
    /// Sum of displacement ranks over all placements.
    pub total_displacement: u64,
    /// Worst single displacement rank.
    pub max_displacement: u64,
    /// `total_displacement / placements` (0 when nothing was placed).
    pub mean_displacement: f64,
}

/// Frozen wall time of one named phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseReport {
    /// Phase name (a scheduler name, or a sub-phase such as
    /// `incremental/dirty-solve` or `cycle-sim/window`).
    pub name: String,
    /// Times the phase ran.
    pub calls: u64,
    /// Total wall time across all calls, nanoseconds.
    pub total_ns: u64,
}

/// Full frozen snapshot of a [`Metrics`] sink.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// False when the run recorded nothing (disabled handle).
    pub enabled: bool,
    /// Cost-cache behavior.
    pub cache: CacheReport,
    /// Capacity-displacement summary.
    pub placement: PlacementReport,
    /// Incremental-rescheduling summary (all zero outside delta runs).
    pub incremental: IncrementalReport,
    /// Per-phase wall times, in first-recorded order.
    pub phases: Vec<PhaseReport>,
    /// Worker-pool utilization.
    pub pool: PoolUsage,
}

/// Format a mean/ratio field for JSON: `NaN`/`inf` (a zero denominator,
/// or a report assembled by hand) must never reach the output — bare
/// `NaN` is not valid JSON and would break every consumer of the serve
/// `stats` endpoint downstream.
fn json_f64(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

impl MetricsReport {
    /// Render as a JSON object, suitable for embedding as a value inside a
    /// larger hand-rolled JSON document. Non-finite float fields are
    /// clamped to `0.0` so the output always parses.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(512);
        write!(
            s,
            "{{\"enabled\": {}, \"cache\": {{\"prefix_builds\": {}, \"prefix_hits\": {}, \
             \"raw_serves\": {}}}, \
             \"incremental\": {{\"resolves\": {}, \"dirty_data\": {}, \"fallbacks\": {}}}, \
             \"placement\": {{\"placements\": {}, \"displaced\": {}, \
             \"total_displacement\": {}, \"max_displacement\": {}, \"mean_displacement\": {:.3}}}, \
             \"phases\": [",
            self.enabled,
            self.cache.prefix_builds,
            self.cache.prefix_hits,
            self.cache.raw_serves,
            self.incremental.resolves,
            self.incremental.dirty_data,
            self.incremental.fallbacks,
            self.placement.placements,
            self.placement.displaced,
            self.placement.total_displacement,
            self.placement.max_displacement,
            json_f64(self.placement.mean_displacement),
        )
        .expect("write to String cannot fail");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str("{\"name\": \"");
            pim_trace::json::escape_into(&mut s, &p.name);
            write!(
                s,
                "\", \"calls\": {}, \"total_ns\": {}}}",
                p.calls, p.total_ns
            )
            .expect("write to String cannot fail");
        }
        write!(
            s,
            "], \"pool\": {{\"jobs\": {}, \"worker_tasks\": {}, \"submitter_tasks\": {}, \
             \"max_worker_tasks\": {}, \"parks\": {}}}}}",
            self.pool.jobs,
            self.pool.worker_tasks,
            self.pool.submitter_tasks,
            self.pool.max_worker_tasks,
            self.pool.parks,
        )
        .expect("write to String cannot fail");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let m = Metrics::disabled();
        assert!(!m.is_enabled());
        assert!(m.cache_stats().is_none());
        m.record_placement(3);
        m.record_pool(PoolUsage {
            jobs: 1,
            ..PoolUsage::default()
        });
        drop(m.phase("noop"));
        let report = m.report();
        assert_eq!(report, MetricsReport::default());
        assert!(!report.enabled);
    }

    #[test]
    fn clones_share_one_sink() {
        let m = Metrics::enabled();
        let clone = m.clone();
        clone.record_placement(0);
        clone.record_placement(2);
        let report = m.report();
        assert_eq!(report.placement.placements, 2);
        assert_eq!(report.placement.displaced, 1);
        assert_eq!(report.placement.total_displacement, 2);
        assert_eq!(report.placement.max_displacement, 2);
        assert!((report.placement.mean_displacement - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cache_stats_feed_the_report() {
        let m = Metrics::enabled();
        let stats = m.cache_stats().expect("enabled");
        stats.prefix_builds.fetch_add(1, Ordering::Relaxed);
        stats.prefix_hits.fetch_add(5, Ordering::Relaxed);
        stats.raw_serves.fetch_add(7, Ordering::Relaxed);
        let report = m.report();
        assert_eq!(report.cache.prefix_builds, 1);
        assert_eq!(report.cache.prefix_hits, 5);
        assert_eq!(report.cache.raw_serves, 7);
    }

    #[test]
    fn incremental_counters_feed_the_report() {
        let m = Metrics::enabled();
        m.record_incremental(10, false);
        m.record_incremental(3, true);
        let report = m.report();
        assert_eq!(report.incremental.resolves, 2);
        assert_eq!(report.incremental.dirty_data, 13);
        assert_eq!(report.incremental.fallbacks, 1);
    }

    #[test]
    fn phase_timer_aggregates_by_name() {
        let m = Metrics::enabled();
        drop(m.phase("alpha"));
        drop(m.phase("alpha"));
        drop(m.phase("beta"));
        let report = m.report();
        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.phases[0].name, "alpha");
        assert_eq!(report.phases[0].calls, 2);
        assert_eq!(report.phases[1].name, "beta");
        assert_eq!(report.phases[1].calls, 1);
    }

    #[test]
    fn pool_usage_accumulates_across_runs() {
        let m = Metrics::enabled();
        m.record_pool(PoolUsage {
            jobs: 2,
            worker_tasks: 10,
            submitter_tasks: 4,
            max_worker_tasks: 6,
            parks: 1,
        });
        m.record_pool(PoolUsage {
            jobs: 1,
            worker_tasks: 5,
            submitter_tasks: 2,
            max_worker_tasks: 4,
            parks: 0,
        });
        let pool = m.report().pool;
        assert_eq!(pool.jobs, 3);
        assert_eq!(pool.worker_tasks, 15);
        assert_eq!(pool.submitter_tasks, 6);
        assert_eq!(pool.max_worker_tasks, 6);
        assert_eq!(pool.parks, 1);
    }

    #[test]
    fn json_snapshot_has_every_key() {
        let m = Metrics::enabled();
        m.record_placement(1);
        drop(m.phase("run"));
        drop(m.phase("a\"b\\c"));
        let json = m.report().to_json();
        for key in [
            "\"enabled\"",
            "\"cache\"",
            "\"prefix_builds\"",
            "\"prefix_hits\"",
            "\"raw_serves\"",
            "\"incremental\"",
            "\"resolves\"",
            "\"dirty_data\"",
            "\"fallbacks\"",
            "\"placement\"",
            "\"placements\"",
            "\"mean_displacement\"",
            "\"phases\"",
            "\"name\"",
            "\"total_ns\"",
            "\"pool\"",
            "\"jobs\"",
            "\"parks\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
        // Phase names are escaped: a quote or backslash cannot break the
        // document, and both names parse back unchanged.
        let doc = pim_trace::json::parse(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        let names: Vec<_> = doc
            .get("phases")
            .and_then(pim_trace::json::Value::as_arr)
            .expect("phases array")
            .iter()
            .map(|p| p.get("name").and_then(pim_trace::json::Value::as_str))
            .collect();
        assert_eq!(names, [Some("run"), Some("a\"b\\c")]);
    }

    #[test]
    fn empty_report_renders_valid_json() {
        // Regression: an empty (zero-placement) report must parse as JSON.
        // `pim-serve` embeds this output verbatim in its `stats` response,
        // so a bare NaN here would take the whole endpoint down.
        for report in [Metrics::disabled().report(), Metrics::enabled().report()] {
            let json = report.to_json();
            assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
            pim_trace::json::parse(&json)
                .unwrap_or_else(|e| panic!("empty report JSON does not parse: {e}\n{json}"));
        }
    }

    #[test]
    fn non_finite_means_are_clamped_in_json() {
        // The struct's fields are public; a hand-assembled report (or a
        // future unguarded division) must still render parseable JSON.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let report = MetricsReport {
                enabled: true,
                placement: PlacementReport {
                    placements: 0,
                    mean_displacement: bad,
                    ..PlacementReport::default()
                },
                ..MetricsReport::default()
            };
            let json = report.to_json();
            assert!(json.contains("\"mean_displacement\": 0.000"), "{json}");
            pim_trace::json::parse(&json)
                .unwrap_or_else(|e| panic!("clamped report JSON does not parse: {e}\n{json}"));
        }
    }
}
