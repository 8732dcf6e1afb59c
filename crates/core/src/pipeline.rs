//! One-call scheduling front end: the [`Run`] builder over the
//! [`mod@crate::registry`] engine, plus one panicking one-liner
//! ([`schedule`]) for tests and table code.
//!
//! All dispatch lives in the
//! [`SchedulerRegistry`](crate::registry::SchedulerRegistry); the one
//! canonical path is:
//!
//! ```
//! use pim_array::grid::Grid;
//! use pim_trace::builder::TraceBuilder;
//! use pim_trace::ids::DataId;
//! use pim_sched::{MemoryPolicy, Run};
//!
//! let grid = Grid::new(4, 4);
//! let mut b = TraceBuilder::new(grid, 1);
//! b.step().access(grid.proc_xy(0, 0), DataId(0));
//! b.step().access(grid.proc_xy(3, 3), DataId(0));
//! let trace = b.finish().window_fixed(1);
//!
//! let mut run = Run::new(&trace).policy(MemoryPolicy::Unbounded);
//! let sched = run.run_named("gomcds").unwrap();
//! assert_eq!(sched.evaluate(&trace).total(), 6);
//! ```
//!
//! One [`Run`] amortizes its [`crate::CostCache`] and workspace across every
//! scheduler it drives — `compare_methods` is just a `Run` looped over the
//! registry's comparison set.

use crate::context::{PrecedencePolicy, SchedContext};
use crate::error::SchedError;
use crate::registry::{registry, Scheduler};
use crate::schedule::Schedule;
use pim_array::memory::MemorySpec;
use pim_metrics::{Metrics, PoolUsage};
use pim_par::Pool;
use pim_trace::window::WindowedTrace;

/// Which scheduling algorithm to run — the closed enum form of the paper's
/// method set, kept for exhaustive sweeps ([`Method::ALL`]) and pattern
/// matching in downstream code. Every variant maps 1:1 onto a registered
/// [`Scheduler`] ([`Method::scheduler`]); the registry also carries
/// strategies that have no `Method` variant (`baseline`, `online`,
/// `kcopy`, `replicate`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Single-Center Data Scheduling (Algorithm 1).
    Scds,
    /// Local-Optimal Multiple-Center Data Scheduling.
    Lomcds,
    /// Global-Optimal Multiple-Center Data Scheduling (Algorithm 2), using
    /// the distance-transform solver.
    Gomcds,
    /// GOMCDS with the literal `O(m²)` cost-graph relaxation (ablation).
    GomcdsNaive,
    /// Algorithm 3 grouping with per-group local centers (Table 2).
    GroupedLocal,
    /// Algorithm 3 grouping with GOMCDS centers across groups (extension).
    GroupedGomcds,
}

impl Method {
    /// All methods, in the order the paper's tables report them.
    pub const ALL: [Method; 6] = [
        Method::Scds,
        Method::Lomcds,
        Method::Gomcds,
        Method::GomcdsNaive,
        Method::GroupedLocal,
        Method::GroupedGomcds,
    ];

    /// The canonical label — defined here exactly once, used verbatim as
    /// the registry name, the `Display` form, and the table label.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Scds => "SCDS",
            Method::Lomcds => "LOMCDS",
            Method::Gomcds => "GOMCDS",
            Method::GomcdsNaive => "GOMCDS-naive",
            Method::GroupedLocal => "Grouped-LOMCDS",
            Method::GroupedGomcds => "Grouped-GOMCDS",
        }
    }

    /// Parse a method label via the registry (case-insensitive, aliases
    /// accepted). Returns `None` for names that are registered but have no
    /// `Method` variant (e.g. `"online"`), or are unknown entirely.
    pub fn parse(name: &str) -> Option<Method> {
        let canonical = registry().get(name)?.name();
        Method::ALL.into_iter().find(|m| m.name() == canonical)
    }

    /// The registered scheduler implementing this method.
    pub fn scheduler(&self) -> &'static dyn Scheduler {
        registry()
            .get(self.name())
            .expect("every Method variant is registered")
    }
}

impl core::fmt::Display for Method {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Memory model under which to schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryPolicy {
    /// No capacity constraint (the pure scheduling question).
    Unbounded,
    /// Explicit uniform per-processor capacity.
    Capacity(u32),
    /// The paper's experimental rule: `factor ×` the minimum capacity a
    /// balanced distribution needs (the tables use `factor = 2`).
    ScaledMinimum {
        /// Multiplier over the balanced minimum.
        factor: u32,
    },
}

impl MemoryPolicy {
    /// Resolve to a concrete [`MemorySpec`] for a trace.
    pub fn resolve(&self, trace: &WindowedTrace) -> MemorySpec {
        self.resolve_parts(&trace.grid(), trace.num_data())
    }

    /// Resolve from the quantities the policy actually depends on — the
    /// grid and the datum population — so trace representations other than
    /// [`WindowedTrace`] (e.g. [`pim_trace::flat::FlatTrace`]) resolve
    /// identically.
    pub fn resolve_parts(&self, grid: &pim_array::grid::Grid, num_data: usize) -> MemorySpec {
        match *self {
            MemoryPolicy::Unbounded => MemorySpec::unbounded(),
            MemoryPolicy::Capacity(c) => MemorySpec::uniform(c),
            MemoryPolicy::ScaledMinimum { factor } => {
                MemorySpec::scaled_minimum(grid, num_data, factor)
            }
        }
    }
}

/// Builder for scheduling runs: one trace, one execution configuration,
/// any number of schedulers sharing the cache and workspace.
///
/// Configuration happens by value (`policy` / `parallel` / `dag` /
/// `metrics`); the [`SchedContext`] is built lazily on the first
/// [`Run::run`] and reused — reconfiguring after that point rebuilds it on
/// the next run.
pub struct Run<'t> {
    trace: &'t WindowedTrace,
    policy: MemoryPolicy,
    pool: Option<Pool>,
    metrics: Metrics,
    precedence: PrecedencePolicy<'t>,
    ctx: Option<SchedContext<'t>>,
}

impl<'t> Run<'t> {
    /// A sequential, unbounded run over `trace`.
    pub fn new(trace: &'t WindowedTrace) -> Self {
        Run {
            trace,
            policy: MemoryPolicy::Unbounded,
            pool: None,
            metrics: Metrics::disabled(),
            precedence: PrecedencePolicy::None,
            ctx: None,
        }
    }

    /// Schedule under `policy` (default [`MemoryPolicy::Unbounded`]).
    pub fn policy(mut self, policy: MemoryPolicy) -> Self {
        self.policy = policy;
        self.ctx = None;
        self
    }

    /// Attach a worker pool for per-datum parallelism. Takes effect under
    /// any memory policy (see [`SchedContext::pool`]): unconstrained runs
    /// parallelize outright, bounded runs use the deterministic two-phase
    /// scheme. Output is bit-identical to the sequential run either way.
    pub fn parallel(mut self, pool: Pool) -> Self {
        self.pool = Some(pool);
        self.ctx = None;
        self
    }

    /// Attach a task precedence DAG. Only the precedence-aware schedulers
    /// (`list-scds`, `edf-scds`) read it; every other scheduler is
    /// unaffected, and without this call they all behave exactly as the
    /// precedence-free model.
    pub fn dag(mut self, dag: &'t pim_trace::dag::TaskDag) -> Self {
        self.precedence = PrecedencePolicy::Dag(dag);
        self.ctx = None;
        self
    }

    /// Record run observability into `metrics` (default: a disabled handle
    /// that records nothing). An enabled handle collects cache behavior,
    /// per-scheduler phase timings, capacity-displacement counts and — for
    /// parallel runs — worker-pool usage; read the totals back with
    /// [`Metrics::report`]. Collection never changes a schedule bit
    /// (property-tested in `tests/cache_equivalence.rs`).
    pub fn metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self.ctx = None;
        self
    }

    /// The context this run drives schedulers with (built on first use).
    pub fn context(&mut self) -> &mut SchedContext<'t> {
        if self.ctx.is_none() {
            let base = SchedContext::new(self.trace, self.policy)
                .with_metrics(self.metrics.clone())
                .with_precedence(self.precedence);
            self.ctx = Some(match self.pool {
                Some(pool) => base.with_pool(pool),
                None => base,
            });
        }
        self.ctx.as_mut().expect("context just built")
    }

    /// Run one scheduler. Returns [`SchedError::CapacityExhausted`] when
    /// the memory policy cannot hold the working set.
    pub fn run(&mut self, scheduler: &dyn Scheduler) -> Result<Schedule, SchedError> {
        let trace = self.trace;
        let metrics = self.metrics.clone();
        let pool_before = if metrics.is_enabled() && self.pool.is_some() {
            Some(pim_par::stats::snapshot())
        } else {
            None
        };
        let result = {
            let _t = metrics.phase(scheduler.name());
            scheduler.schedule(self.context(), trace)
        };
        if let Some(before) = pool_before {
            let delta = pim_par::stats::snapshot().since(&before);
            metrics.record_pool(PoolUsage {
                jobs: delta.jobs,
                worker_tasks: delta.total_worker_tasks(),
                submitter_tasks: delta.submitter_tasks,
                max_worker_tasks: delta.max_worker_tasks(),
                parks: delta.parks,
            });
        }
        result
    }

    /// Run the scheduler registered under `name` (case-insensitive,
    /// aliases accepted); [`SchedError::UnknownScheduler`] if no such
    /// registration exists.
    pub fn run_named(&mut self, name: &str) -> Result<Schedule, SchedError> {
        let scheduler = registry()
            .get(name)
            .ok_or_else(|| SchedError::UnknownScheduler(name.to_string()))?;
        self.run(scheduler)
    }

    /// Run a [`Method`]'s registered scheduler.
    pub fn run_method(&mut self, method: Method) -> Result<Schedule, SchedError> {
        self.run(method.scheduler())
    }
}

/// Run one scheduling method over a trace.
///
/// The crate's one panicking convenience over [`Run`], for tests and table
/// code — prefer `Run::new(trace).policy(policy).run_method(method)` for a
/// typed [`SchedError`] instead of the panic below.
///
/// # Panics
/// Panics when the memory policy cannot hold the working set.
pub fn schedule(method: Method, trace: &WindowedTrace, policy: MemoryPolicy) -> Schedule {
    Run::new(trace)
        .policy(policy)
        .run_method(method)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Evaluate the registry's comparison set (SCDS, LOMCDS, GOMCDS, grouped
/// variants — any registered [`Scheduler`] with
/// [`in_comparison`](Scheduler::in_comparison)) on one trace, returning
/// `(name, total cost)` per strategy. One shared cache serves the sweep.
pub fn compare_methods(trace: &WindowedTrace, policy: MemoryPolicy) -> Vec<(&'static str, u64)> {
    let mut run = Run::new(trace).policy(policy);
    registry()
        .comparison_set()
        .map(|s| {
            let sched = run.run(s).unwrap_or_else(|e| panic!("{e}"));
            (s.name(), sched.evaluate(trace).total())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::schedulers;
    use pim_array::grid::Grid;
    use pim_trace::window::{WindowRefs, WindowedTrace};

    fn sample_trace() -> WindowedTrace {
        let grid = Grid::new(4, 4);
        WindowedTrace::from_parts(
            grid,
            vec![
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(0, 0), 2), (grid.proc_xy(1, 0), 1)]),
                    WindowRefs::from_pairs([(grid.proc_xy(3, 3), 4)]),
                    WindowRefs::from_pairs([(grid.proc_xy(3, 2), 2)]),
                ],
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(2, 2), 1)]),
                    WindowRefs::new(),
                    WindowRefs::from_pairs([(grid.proc_xy(2, 2), 3)]),
                ],
            ],
        )
    }

    #[test]
    fn parallel_matches_sequential_unbounded() {
        let trace = sample_trace();
        for method in Method::ALL {
            let seq = schedule(method, &trace, MemoryPolicy::Unbounded);
            let par = Run::new(&trace)
                .parallel(Pool::with_threads(4))
                .run_method(method)
                .unwrap();
            assert_eq!(
                seq.evaluate(&trace),
                par.evaluate(&trace),
                "{method} parallel/sequential cost mismatch"
            );
            assert_eq!(seq, par, "{method} parallel/sequential schedule mismatch");
        }
    }

    #[test]
    fn method_ordering_gomcds_best() {
        let trace = sample_trace();
        let mut run = Run::new(&trace);
        let costs: Vec<u64> = schedulers(&["SCDS", "LOMCDS", "GOMCDS"])
            .into_iter()
            .map(|s| run.run(s).unwrap().evaluate(&trace).total())
            .collect();
        assert!(costs[2] <= costs[1], "GOMCDS ≤ LOMCDS");
        assert!(costs[2] <= costs[0], "GOMCDS ≤ SCDS");
    }

    #[test]
    fn policy_resolution() {
        let trace = sample_trace();
        assert_eq!(
            MemoryPolicy::Unbounded.resolve(&trace).capacity_per_proc,
            u32::MAX
        );
        assert_eq!(
            MemoryPolicy::Capacity(5).resolve(&trace).capacity_per_proc,
            5
        );
        // 2 data / 16 procs → min 1 → factor 2 → 2
        assert_eq!(
            MemoryPolicy::ScaledMinimum { factor: 2 }
                .resolve(&trace)
                .capacity_per_proc,
            2
        );
    }

    #[test]
    fn method_names_round_trip() {
        assert_eq!(Method::Scds.name(), "SCDS");
        assert_eq!(Method::Gomcds.to_string(), "GOMCDS");
        assert_eq!(Method::GomcdsNaive.name(), "GOMCDS-naive");
        assert_eq!(Method::ALL.len(), 6);
        for m in Method::ALL {
            assert_eq!(Method::parse(m.name()), Some(m));
            assert_eq!(m.scheduler().name(), m.name());
        }
        assert_eq!(Method::parse("gomcds(naive)"), Some(Method::GomcdsNaive));
        assert_eq!(Method::parse("online"), None, "registered but not a Method");
        assert_eq!(Method::parse("nope"), None);
    }

    #[test]
    fn run_builder_amortizes_one_context() {
        let trace = sample_trace();
        let mut run = Run::new(&trace).policy(MemoryPolicy::ScaledMinimum { factor: 2 });
        let a = run.run_named("gomcds").expect("registered");
        let b = run.run_method(Method::Gomcds).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            a,
            schedule(
                Method::Gomcds,
                &trace,
                MemoryPolicy::ScaledMinimum { factor: 2 }
            )
        );
        assert!(matches!(
            run.run_named("no-such-method"),
            Err(SchedError::UnknownScheduler(_))
        ));
    }

    #[test]
    fn compare_methods_reports_comparison_set() {
        let trace = sample_trace();
        let rows = compare_methods(&trace, MemoryPolicy::Unbounded);
        let names: Vec<_> = rows.iter().map(|r| r.0).collect();
        assert_eq!(
            names,
            vec![
                "SCDS",
                "LOMCDS",
                "GOMCDS",
                "Grouped-LOMCDS",
                "Grouped-GOMCDS"
            ]
        );
        let gomcds = rows[2].1;
        assert!(rows.iter().all(|r| r.1 >= gomcds), "GOMCDS is optimal");
    }
}
