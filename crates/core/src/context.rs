//! Shared execution context for pluggable schedulers.
//!
//! A [`SchedContext`] bundles everything a [`crate::registry::Scheduler`]
//! needs beyond the trace itself: the grid view, the memory policy and its
//! resolved [`MemorySpec`], the shared per-trace [`CostCache`], a reusable
//! [`Workspace`], and an optional [`Pool`] for per-datum parallelism.
//! Every scheduler serves its cost tables from the cache's prefix sums;
//! schedulers whose kernels read flat spans (SCDS medians, LOMCDS window
//! medians and anchors) share one [`FlatTrace`] copy of the trace,
//! converted on first use. The context — not the scheduler — decides the
//! *execution mode*:
//!
//! * **sequential** (the default): every kernel runs inline;
//! * **parallel**: a [`Pool`] is attached; schedulers that support
//!   per-datum parallelism use it under *every* memory policy. Without a
//!   capacity constraint the whole schedule is computed in parallel (the
//!   per-datum subproblems are independent). Under a bounded policy the
//!   schedulers run a deterministic **two-phase** scheme: phase 1 computes
//!   the pure, order-independent per-datum kernel results (medians,
//!   anchors, center paths, groupings) in parallel; phase 2 is the
//!   algorithm's one sequential capacity replay in datum order, the same
//!   code the sequential run uses — so the output is bit-identical
//!   regardless of thread count.
//!
//! Both modes are property-tested bit-identical for every registered
//! scheduler × every memory policy in `tests/cache_equivalence.rs`.

use crate::cache::CostCache;
use crate::pipeline::MemoryPolicy;
use crate::workspace::Workspace;
use pim_array::grid::Grid;
use pim_array::memory::MemorySpec;
use pim_metrics::Metrics;
use pim_par::Pool;
use pim_trace::dag::TaskDag;
use pim_trace::flat::FlatTrace;
use pim_trace::window::WindowedTrace;

/// Whether (and how) task precedence constrains a scheduling run.
///
/// The default is [`PrecedencePolicy::None`]: every scheduler behaves
/// exactly as the precedence-free paper model. Attaching a DAG lets the
/// precedence-aware schedulers (`list-scds`, `edf-scds`) weight and order
/// their placement decisions by task priority; precedence-oblivious
/// schedulers simply ignore it.
#[derive(Debug, Clone, Copy, Default)]
pub enum PrecedencePolicy<'t> {
    /// No precedence constraints: the all-ready-at-window-start model.
    #[default]
    None,
    /// Placement is informed by this task DAG.
    Dag(&'t TaskDag),
}

impl<'t> PrecedencePolicy<'t> {
    /// The attached DAG, if any.
    pub fn dag(&self) -> Option<&'t TaskDag> {
        match self {
            PrecedencePolicy::None => None,
            PrecedencePolicy::Dag(dag) => Some(dag),
        }
    }
}

/// Execution context owned by one scheduling run and shared across any
/// number of schedulers (the cache and workspace amortize across calls).
/// The lifetime ties the context to the trace whose reference strings the
/// (lazy) [`CostCache`] serves from.
#[derive(Debug)]
pub struct SchedContext<'t> {
    grid: Grid,
    policy: MemoryPolicy,
    spec: MemorySpec,
    cache: CostCache<'t>,
    flat: Option<FlatTrace>,
    ws: Workspace,
    pool: Option<Pool>,
    metrics: Metrics,
    precedence: PrecedencePolicy<'t>,
}

impl<'t> SchedContext<'t> {
    /// A sequential context wrapping the trace in a (lazy) per-trace
    /// [`CostCache`].
    pub fn new(trace: &'t WindowedTrace, policy: MemoryPolicy) -> Self {
        SchedContext::with_cache(trace, policy, CostCache::build(trace))
    }

    /// A context around a prebuilt cost cache (shares the cache — and any
    /// prefix tables it has already built — with other users of the same
    /// trace).
    pub fn with_cache(
        trace: &'t WindowedTrace,
        policy: MemoryPolicy,
        cache: CostCache<'t>,
    ) -> Self {
        SchedContext {
            grid: trace.grid(),
            policy,
            spec: policy.resolve(trace),
            cache,
            flat: None,
            ws: Workspace::new(),
            pool: None,
            metrics: Metrics::disabled(),
            precedence: PrecedencePolicy::None,
        }
    }

    /// Attach a worker pool for per-datum parallelism.
    pub fn with_pool(mut self, pool: Pool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attach a precedence policy (a task DAG). Precedence-aware
    /// schedulers read it through [`SchedContext::dag`]; everything else
    /// ignores it, so attaching a DAG never perturbs oblivious schedulers.
    pub fn with_precedence(mut self, precedence: PrecedencePolicy<'t>) -> Self {
        self.precedence = precedence;
        self
    }

    /// Attach a metrics sink. An enabled sink is installed into the owned
    /// cost cache (cache-behavior counters) and the workspace (capacity
    /// displacement); schedulers record into it but never read from it, so
    /// the schedule stays bit-identical with metrics on or off.
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        if let Some(stats) = metrics.cache_stats() {
            self.cache.set_stats(&stats);
        }
        self.ws.metrics = metrics.clone();
        self.metrics = metrics;
        self
    }

    /// The metrics sink of this run (disabled by default).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The processor grid of the trace this context was built for.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// The memory policy this run schedules under.
    pub fn policy(&self) -> MemoryPolicy {
        self.policy
    }

    /// The policy resolved against the trace.
    pub fn spec(&self) -> MemorySpec {
        self.spec
    }

    /// The precedence policy of this run.
    pub fn precedence(&self) -> PrecedencePolicy<'t> {
        self.precedence
    }

    /// The attached task DAG, when precedence applies.
    pub fn dag(&self) -> Option<&'t TaskDag> {
        self.precedence.dag()
    }

    /// The shared cost cache.
    pub fn cache(&self) -> &CostCache<'t> {
        &self.cache
    }

    /// The pool to use for per-datum parallel scheduling, or `None` when
    /// the run stays sequential. Bounded policies parallelize too —
    /// schedulers split into a parallel pure phase and a sequential
    /// capacity-replay phase (see the module docs), so determinism never
    /// depends on thread count.
    pub fn pool(&self) -> Option<Pool> {
        self.pool
    }

    /// Split-borrow the cache and the workspace — the shape the
    /// cache-reading drivers want.
    pub fn cache_and_ws(&mut self) -> (&CostCache<'t>, &mut Workspace) {
        (&self.cache, &mut self.ws)
    }

    /// The reusable scratch workspace.
    pub fn workspace(&mut self) -> &mut Workspace {
        &mut self.ws
    }

    /// Split-borrow the flat copy of `trace` (converted with
    /// [`FlatTrace::from_trace`] on the first call, then reused by every
    /// later scheduler of this context), the cache and the workspace — the
    /// shape the span-reading drivers want.
    pub(crate) fn flat_cache_ws(
        &mut self,
        trace: &WindowedTrace,
    ) -> (&FlatTrace, &CostCache<'t>, &mut Workspace) {
        let flat = self
            .flat
            .get_or_insert_with(|| FlatTrace::from_trace(trace));
        (flat, &self.cache, &mut self.ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_trace::window::{WindowRefs, WindowedTrace};

    fn trace() -> WindowedTrace {
        let grid = Grid::new(3, 3);
        WindowedTrace::from_parts(grid, vec![vec![WindowRefs::new(); 2]; 2])
    }

    #[test]
    fn cached_context_owns_cache() {
        let t = trace();
        let ctx = SchedContext::new(&t, MemoryPolicy::Unbounded);
        assert_eq!(ctx.cache().num_data(), t.num_data());
        assert_eq!(ctx.grid(), t.grid());
        assert_eq!(ctx.spec().capacity_per_proc, u32::MAX);
    }

    #[test]
    fn precedence_defaults_to_none() {
        let t = trace();
        let ctx = SchedContext::new(&t, MemoryPolicy::Unbounded);
        assert!(ctx.dag().is_none());
        let dag = pim_trace::dag::TaskDag::new(2, vec![], vec![]).unwrap();
        let ctx = SchedContext::new(&t, MemoryPolicy::Unbounded)
            .with_precedence(PrecedencePolicy::Dag(&dag));
        assert_eq!(ctx.dag().map(|d| d.num_windows()), Some(2));
    }

    #[test]
    fn parallel_pool_requires_pool_and_cache() {
        let t = trace();
        let pool = Pool::serial();
        let unbounded = SchedContext::new(&t, MemoryPolicy::Unbounded).with_pool(pool);
        assert!(unbounded.pool().is_some());
        // Bounded policies parallelize via the two-phase scheme.
        let bounded = SchedContext::new(&t, MemoryPolicy::Capacity(2)).with_pool(pool);
        assert!(bounded.pool().is_some());
        let no_pool = SchedContext::new(&t, MemoryPolicy::Unbounded);
        assert!(no_pool.pool().is_none());
    }
}
