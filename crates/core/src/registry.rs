//! The `Scheduler` trait and the scheduler registry — the single dispatch
//! point for every scheduling strategy in the crate.
//!
//! A scheduling strategy is a value implementing [`Scheduler`]: it has a
//! stable name and turns a [`SchedContext`] — which holds the trace, the
//! memory policy, the cost cache and the pool — into a [`Schedule`]. The
//! [`SchedulerRegistry`] maps names (case-insensitive, with a small alias
//! table) to registered strategies; [`registry`] exposes
//! one process-wide registry holding every built-in strategy:
//!
//! | name | strategy |
//! |---|---|
//! | `SCDS` | Algorithm 1 single-center scheduling |
//! | `LOMCDS` | per-window local-optimal centers |
//! | `GOMCDS` | Algorithm 2 global optimum (separable distance-transform solver) |
//! | `GOMCDS-naive` | Algorithm 2 with the literal `O(m²)` relaxation |
//! | `Grouped-LOMCDS` | Algorithm 3 grouping, per-group local centers |
//! | `Grouped-GOMCDS` | Algorithm 3 grouping, GOMCDS across groups |
//! | `baseline` | static row-wise distribution (the paper's S.F.) |
//! | `online` | streaming policy with movement hysteresis |
//! | `kcopy` | K-copy primaries (single-copy projection) |
//! | `replicate` | two-copy primaries (single-copy projection) |
//! | `list-scds` | critical-path list scheduling over a task DAG |
//! | `edf-scds` | deadline-ordered (EDF) scheduling over a task DAG |
//!
//! Adding a strategy takes one impl plus one registration line (see the
//! worked example in `DESIGN.md`); the CLI (`--method`, `list-methods`),
//! the simulator (`pim_sim::simulate_named`) and the bench sweeps all pick
//! it up through the registry — there is no other dispatch path.
//!
//! [`Method`](crate::pipeline::Method) is the closed enum of the paper's
//! methods and maps 1:1 onto registered names: `Method::name` is the only
//! label table, and every registered strategy reports that label.

use crate::context::SchedContext;
use crate::error::{ensure_feasible, SchedError};
use crate::gomcds::Solver;
use crate::grouping::GroupMethod;
use crate::schedule::Schedule;
use pim_array::layout::Layout;
use pim_par::Pool;
use std::sync::OnceLock;

/// A pluggable scheduling strategy.
///
/// Implementations read the trace's spans from [`SchedContext::trace`]
/// (any `FlatView`: owned, memory-mapped or editable), serve cost tables
/// from [`SchedContext::cache_and_ws`] when they need them, and use
/// [`SchedContext::pool`] for per-datum parallelism when it returns a
/// pool. The sequential and parallel runs must be bit-identical
/// (property-tested for every registered strategy in
/// `tests/cache_equivalence.rs`).
pub trait Scheduler: Send + Sync {
    /// Stable registry name (also the table/display label). Lookup is
    /// case-insensitive.
    fn name(&self) -> &'static str;

    /// Compute the schedule for the context's trace under its memory
    /// policy.
    ///
    /// Every built-in strategy checks feasibility up front and returns
    /// [`SchedError::CapacityExhausted`] — never panics — when the memory
    /// spec cannot hold the working set (uniform contract, property-tested
    /// across the registry in `tests/capacity_compliance.rs`).
    fn schedule(&self, ctx: &mut SchedContext) -> Result<Schedule, SchedError>;

    /// One-line human description (shown by `pim-cli list-methods`).
    fn description(&self) -> &'static str {
        ""
    }

    /// Whether cost-comparison sweeps (`compare_methods`, the bench
    /// tables) include this strategy by default. Ablations, baselines and
    /// projections opt out; new strategies are included unless they say
    /// otherwise.
    fn in_comparison(&self) -> bool {
        true
    }

    /// Whether this strategy exploits [`SchedContext::pool`]:
    /// per-datum fan-out when the policy is unbounded, the two-phase
    /// compute-then-replay scheme when capacity is bounded. Strategies
    /// that ignore the pool (inherently sequential streaming policies,
    /// static baselines) say `false`; `pim-cli list-methods` reports the
    /// flag.
    fn parallelizable(&self) -> bool {
        true
    }

    /// Whether this strategy reads a task DAG off
    /// [`SchedContext::dag`] (precedence-aware placement). Strategies
    /// saying `false` ignore an attached DAG entirely.
    fn precedence_aware(&self) -> bool {
        false
    }

    /// Whether [`crate::incremental::IncrementalRun`] can drive this
    /// strategy under trace churn (dirty-tracked delta re-solves instead
    /// of from-scratch reruns). `pim-cli list-methods` reports the flag.
    fn incremental(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Built-in strategies
// ---------------------------------------------------------------------------

/// The pool the drivers fan per-datum kernels out over: the context's
/// pool, else an inline one-thread pool (no phase-1 fan-out).
fn driver_pool(ctx: &SchedContext) -> Pool {
    ctx.pool().unwrap_or_else(Pool::serial)
}

/// Algorithm 1: one center per datum for the whole execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScdsScheduler;

impl Scheduler for ScdsScheduler {
    fn name(&self) -> &'static str {
        "SCDS"
    }

    fn description(&self) -> &'static str {
        "Algorithm 1: single center per datum, no run-time movement"
    }

    fn incremental(&self) -> bool {
        true
    }

    fn schedule(&self, ctx: &mut SchedContext) -> Result<Schedule, SchedError> {
        let (trace, spec, pool) = (ctx.trace(), ctx.spec(), driver_pool(ctx));
        crate::flat::scds_on(trace, spec, pool, ctx.metrics())
    }
}

/// Local-optimal multiple-center scheduling: per-window optimal centers.
#[derive(Debug, Clone, Copy, Default)]
pub struct LomcdsScheduler;

impl Scheduler for LomcdsScheduler {
    fn name(&self) -> &'static str {
        "LOMCDS"
    }

    fn description(&self) -> &'static str {
        "per-window local-optimal centers; movement between windows"
    }

    fn incremental(&self) -> bool {
        true
    }

    fn schedule(&self, ctx: &mut SchedContext) -> Result<Schedule, SchedError> {
        let (trace, spec, pool) = (ctx.trace(), ctx.spec(), driver_pool(ctx));
        crate::flat::lomcds_on(trace, spec, pool, ctx.workspace())
    }
}

/// Algorithm 2: global-optimal multiple-center scheduling.
#[derive(Debug, Clone, Copy)]
pub struct GomcdsScheduler {
    /// Which cost-graph solver runs the layered shortest path.
    pub solver: Solver,
}

impl GomcdsScheduler {
    /// The production distance-transform solver (separable, 2-D only for
    /// capacity-masked re-solves).
    pub fn fast() -> Self {
        GomcdsScheduler {
            solver: Solver::DistanceTransform,
        }
    }

    /// The literal `O(m²)` relaxation (ablation).
    pub fn naive() -> Self {
        GomcdsScheduler {
            solver: Solver::Naive,
        }
    }
}

impl Scheduler for GomcdsScheduler {
    fn name(&self) -> &'static str {
        match self.solver {
            Solver::DistanceTransform => "GOMCDS",
            Solver::Naive => "GOMCDS-naive",
        }
    }

    fn description(&self) -> &'static str {
        match self.solver {
            Solver::DistanceTransform => {
                "Algorithm 2: global optimum per datum (one 1-D DP per grid axis; \
                 2-D transform for capacity re-solves)"
            }
            Solver::Naive => "Algorithm 2 with the literal O(m^2) relaxation (ablation)",
        }
    }

    fn in_comparison(&self) -> bool {
        // The naive solver is an ablation: same answer, slower.
        self.solver == Solver::DistanceTransform
    }

    fn incremental(&self) -> bool {
        // The incremental engine re-solves with the distance transform only.
        self.solver == Solver::DistanceTransform
    }

    fn schedule(&self, ctx: &mut SchedContext) -> Result<Schedule, SchedError> {
        let (spec, pool) = (ctx.spec(), driver_pool(ctx));
        let (grid, nw) = (ctx.grid(), ctx.trace().num_windows());
        let (cache, ws) = ctx.cache_and_ws();
        crate::flat::gomcds_on(cache, grid, nw, spec, self.solver, pool, ws)
    }
}

/// Algorithm 3: execution-window grouping. Group decisions always use
/// LOMCDS costs (as run in the paper); `place` chooses how the grouped
/// windows are centered.
#[derive(Debug, Clone, Copy)]
pub struct GroupedScheduler {
    /// Center placement across the decided groups.
    pub place: GroupMethod,
}

impl Scheduler for GroupedScheduler {
    fn name(&self) -> &'static str {
        match self.place {
            GroupMethod::LocalCenters => "Grouped-LOMCDS",
            GroupMethod::GomcdsCenters => "Grouped-GOMCDS",
        }
    }

    fn description(&self) -> &'static str {
        match self.place {
            GroupMethod::LocalCenters => "Algorithm 3 grouping with per-group local centers",
            GroupMethod::GomcdsCenters => "Algorithm 3 grouping with GOMCDS centers across groups",
        }
    }

    fn schedule(&self, ctx: &mut SchedContext) -> Result<Schedule, SchedError> {
        let (trace, spec, pool) = (ctx.trace(), ctx.spec(), driver_pool(ctx));
        let decide = GroupMethod::LocalCenters;
        let (cache, ws) = ctx.cache_and_ws();
        crate::grouping::grouped_schedule(trace, spec, decide, self.place, cache, pool, ws)
    }
}

/// The paper's straight-forward baseline: a static `layout` distribution
/// of a near-square data array inferred from the datum count (`rows =
/// ⌊√n⌋`, `cols = ⌊n/rows⌋`, remainder striped cyclically). Ignores the
/// memory policy — a static distribution is what the schedulers are
/// measured against, not a capacity-aware competitor.
#[derive(Debug, Clone, Copy)]
pub struct BaselineScheduler {
    /// Static data layout (the paper's S.F. is [`Layout::RowWise`]).
    pub layout: Layout,
}

impl Default for BaselineScheduler {
    fn default() -> Self {
        BaselineScheduler {
            layout: Layout::RowWise,
        }
    }
}

impl Scheduler for BaselineScheduler {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn description(&self) -> &'static str {
        "static row-wise distribution (the paper's straight-forward baseline)"
    }

    fn in_comparison(&self) -> bool {
        // The comparison tables already report it as the S.F. column.
        false
    }

    fn parallelizable(&self) -> bool {
        // A static layout needs no per-datum computation worth fanning out.
        false
    }

    fn schedule(&self, ctx: &mut SchedContext) -> Result<Schedule, SchedError> {
        // The layout itself ignores capacity, but the uniform registry
        // contract still rejects an array that cannot hold the data.
        let trace = ctx.trace();
        ensure_feasible(&ctx.grid(), ctx.spec(), trace.num_data())?;
        let nd = trace.num_data() as u32;
        let rows = (nd as f64).sqrt().floor().max(1.0) as u32;
        let cols = nd / rows;
        Ok(crate::baseline::layout_schedule(
            trace,
            rows,
            cols,
            self.layout,
        ))
    }
}

/// Streaming scheduler: windows are revealed one at a time; a datum moves
/// to its local optimum only when the estimated saving exceeds
/// `threshold ×` the movement cost.
#[derive(Debug, Clone, Copy)]
pub struct OnlineScheduler {
    /// Movement hysteresis; `0.0` moves on any strict improvement.
    pub threshold: f64,
}

impl Default for OnlineScheduler {
    fn default() -> Self {
        OnlineScheduler { threshold: 0.0 }
    }
}

impl Scheduler for OnlineScheduler {
    fn name(&self) -> &'static str {
        "online"
    }

    fn description(&self) -> &'static str {
        "streaming policy: per-window local optima with movement hysteresis"
    }

    fn in_comparison(&self) -> bool {
        // Extension, not a paper table column; sweep_online reports it.
        false
    }

    fn parallelizable(&self) -> bool {
        // Streaming decisions depend on prior windows' placements —
        // inherently sequential.
        false
    }

    fn schedule(&self, ctx: &mut SchedContext) -> Result<Schedule, SchedError> {
        crate::online::online_schedule(
            ctx.trace(),
            crate::online::OnlinePolicy {
                threshold: self.threshold,
                spec: ctx.spec(),
            },
        )
    }
}

/// Single-copy projection of the K-copy replication extension: the
/// primary trajectories, which are exactly the (capacity-aware) GOMCDS
/// paths — the replica sets live in [`crate::kcopy::kcopy_schedule`],
/// which this registration points users at.
#[derive(Debug, Clone, Copy)]
pub struct KCopyScheduler {
    /// Copies per datum in the full K-copy plan (`k ≥ 1`).
    pub k: usize,
}

impl Default for KCopyScheduler {
    fn default() -> Self {
        KCopyScheduler { k: 3 }
    }
}

impl Scheduler for KCopyScheduler {
    fn name(&self) -> &'static str {
        "kcopy"
    }

    fn description(&self) -> &'static str {
        "K-copy replication primaries (full replica plans: pim_sched::kcopy)"
    }

    fn in_comparison(&self) -> bool {
        // Projection duplicates GOMCDS; its real evaluation is replica-aware.
        false
    }

    fn schedule(&self, ctx: &mut SchedContext) -> Result<Schedule, SchedError> {
        GomcdsScheduler::fast().schedule(ctx)
    }
}

/// Single-copy projection of the two-copy replication extension (see
/// [`KCopyScheduler`]; full plans live in
/// [`crate::replicate::replicated_schedule`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicateScheduler;

impl Scheduler for ReplicateScheduler {
    fn name(&self) -> &'static str {
        "replicate"
    }

    fn description(&self) -> &'static str {
        "two-copy replication primaries (full plans: pim_sched::replicate)"
    }

    fn in_comparison(&self) -> bool {
        false
    }

    fn schedule(&self, ctx: &mut SchedContext) -> Result<Schedule, SchedError> {
        GomcdsScheduler::fast().schedule(ctx)
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Alias table: alternate spellings accepted by lookup, resolved before
/// the case-insensitive name match. Kept tiny and explicit.
const ALIASES: &[(&str, &str)] = &[
    ("grouped", "grouped-lomcds"),
    ("grouped-local", "grouped-lomcds"),
    ("gomcdsnaive", "gomcds-naive"),
    ("gomcds(naive)", "gomcds-naive"),
];

/// Normalize a name for lookup: ASCII-lowercase, trimmed.
fn normalize(name: &str) -> String {
    name.trim().to_ascii_lowercase()
}

/// An ordered collection of named scheduling strategies. Registration
/// order is the order `iter`/`names` report (and therefore the column
/// order of registry-driven tables).
pub struct SchedulerRegistry {
    entries: Vec<Box<dyn Scheduler>>,
}

impl SchedulerRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SchedulerRegistry {
            entries: Vec::new(),
        }
    }

    /// A registry holding every built-in strategy, in the order the
    /// paper's tables report them followed by the extensions.
    pub fn standard() -> Self {
        let mut r = SchedulerRegistry::new();
        r.register(Box::new(ScdsScheduler));
        r.register(Box::new(LomcdsScheduler));
        r.register(Box::new(GomcdsScheduler::fast()));
        r.register(Box::new(GomcdsScheduler::naive()));
        r.register(Box::new(GroupedScheduler {
            place: GroupMethod::LocalCenters,
        }));
        r.register(Box::new(GroupedScheduler {
            place: GroupMethod::GomcdsCenters,
        }));
        r.register(Box::new(BaselineScheduler::default()));
        r.register(Box::new(OnlineScheduler::default()));
        r.register(Box::new(KCopyScheduler::default()));
        r.register(Box::new(ReplicateScheduler));
        r.register(Box::new(crate::precedence::ListScdsScheduler));
        r.register(Box::new(crate::precedence::EdfScdsScheduler));
        r
    }

    /// Register a strategy.
    ///
    /// # Panics
    /// Panics when another entry already claims the same normalized name —
    /// duplicate registration is a programming error, not an input error.
    pub fn register(&mut self, scheduler: Box<dyn Scheduler>) {
        let name = normalize(scheduler.name());
        assert!(
            self.entries.iter().all(|e| normalize(e.name()) != name),
            "duplicate scheduler registration: {}",
            scheduler.name()
        );
        self.entries.push(scheduler);
    }

    /// Look a strategy up by name (case-insensitive; aliases accepted).
    pub fn get(&self, name: &str) -> Option<&dyn Scheduler> {
        let mut key = normalize(name);
        if let Some(&(_, canonical)) = ALIASES.iter().find(|&&(alias, _)| alias == key) {
            key = canonical.to_string();
        }
        self.entries
            .iter()
            .find(|e| normalize(e.name()) == key)
            .map(Box::as_ref)
    }

    /// Every registered strategy, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Scheduler> {
        self.entries.iter().map(Box::as_ref)
    }

    /// The strategies cost-comparison sweeps run by default
    /// (`in_comparison`), in registration order.
    pub fn comparison_set(&self) -> impl Iterator<Item = &dyn Scheduler> {
        self.iter().filter(|s| s.in_comparison())
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name()).collect()
    }
}

impl Default for SchedulerRegistry {
    fn default() -> Self {
        SchedulerRegistry::new()
    }
}

/// The process-wide registry of built-in strategies. Callers needing
/// custom strategies build their own [`SchedulerRegistry`] (or call
/// [`Scheduler::schedule`] directly).
pub fn registry() -> &'static SchedulerRegistry {
    static REGISTRY: OnceLock<SchedulerRegistry> = OnceLock::new();
    REGISTRY.get_or_init(SchedulerRegistry::standard)
}

/// Resolve a list of names against the global registry.
///
/// # Panics
/// Panics on an unknown name (bench/table configuration error).
pub fn schedulers(names: &[&str]) -> Vec<&'static dyn Scheduler> {
    names
        .iter()
        .map(|n| {
            registry()
                .get(n)
                .unwrap_or_else(|| panic!("unknown scheduler '{n}'"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{MemoryPolicy, Method};
    use pim_array::grid::{Grid, ProcId};
    use pim_trace::flat::FlatTrace;
    use pim_trace::ids::DataId;
    use pim_trace::window::WindowRefs;

    #[test]
    fn standard_registry_contents() {
        let names = registry().names();
        assert_eq!(
            names,
            vec![
                "SCDS",
                "LOMCDS",
                "GOMCDS",
                "GOMCDS-naive",
                "Grouped-LOMCDS",
                "Grouped-GOMCDS",
                "baseline",
                "online",
                "kcopy",
                "replicate",
                "list-scds",
                "edf-scds",
            ]
        );
    }

    #[test]
    fn capability_flags() {
        let r = registry();
        let dag: Vec<_> = r
            .iter()
            .filter(|s| s.precedence_aware())
            .map(|s| s.name())
            .collect();
        assert_eq!(dag, vec!["list-scds", "edf-scds"]);
        let incr: Vec<_> = r
            .iter()
            .filter(|s| s.incremental())
            .map(|s| s.name())
            .collect();
        assert_eq!(incr, vec!["SCDS", "LOMCDS", "GOMCDS"]);
    }

    #[test]
    fn lookup_is_case_insensitive_with_aliases() {
        let r = registry();
        assert_eq!(r.get("scds").unwrap().name(), "SCDS");
        assert_eq!(r.get("  GOMCDS ").unwrap().name(), "GOMCDS");
        assert_eq!(r.get("grouped").unwrap().name(), "Grouped-LOMCDS");
        assert_eq!(r.get("grouped-local").unwrap().name(), "Grouped-LOMCDS");
        assert_eq!(r.get("GOMCDS(naive)").unwrap().name(), "GOMCDS-naive");
        assert!(r.get("magic").is_none());
    }

    #[test]
    fn every_method_round_trips_through_the_registry() {
        for m in Method::ALL {
            let s = registry().get(m.name()).expect("method registered");
            assert_eq!(s.name(), m.name(), "name defined once, round-trips");
            assert_eq!(Method::parse(s.name()), Some(m));
        }
    }

    #[test]
    fn comparison_set_is_the_paper_set() {
        let names: Vec<_> = registry().comparison_set().map(|s| s.name()).collect();
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
    }

    #[test]
    #[should_panic(expected = "duplicate scheduler registration")]
    fn duplicate_registration_panics() {
        let mut r = SchedulerRegistry::new();
        r.register(Box::new(ScdsScheduler));
        r.register(Box::new(ScdsScheduler));
    }

    #[test]
    fn custom_registration_one_liner() {
        // The worked example from DESIGN.md: a strategy lands with one
        // impl + one registration line.
        struct Stay;
        impl Scheduler for Stay {
            fn name(&self) -> &'static str {
                "stay-put"
            }
            fn schedule(&self, ctx: &mut SchedContext) -> Result<Schedule, SchedError> {
                let m = ctx.grid().num_procs() as u32;
                let trace = ctx.trace();
                let placement = (0..trace.num_data() as u32)
                    .map(|d| ProcId(d % m))
                    .collect();
                Ok(Schedule::static_placement(
                    ctx.grid(),
                    placement,
                    trace.num_windows(),
                ))
            }
        }
        let mut r = SchedulerRegistry::new();
        r.register(Box::new(Stay));
        let grid = Grid::new(2, 2);
        let trace = FlatTrace::from_windows(grid, vec![vec![WindowRefs::new()]; 5]).unwrap();
        let mut ctx = SchedContext::new(&trace, MemoryPolicy::Unbounded);
        let s = r.get("STAY-PUT").unwrap().schedule(&mut ctx).unwrap();
        assert_eq!(s.center(DataId(4), 0), ProcId(0));
        assert!(r.comparison_set().any(|s| s.name() == "stay-put"));
    }
}
