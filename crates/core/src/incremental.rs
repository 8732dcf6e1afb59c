//! Incremental rescheduling under trace churn.
//!
//! [`IncrementalRun`] keeps a live schedule over an [`EditableTrace`] and,
//! after each batch of edits, re-solves **only the dirty data** instead of
//! rerunning the whole scheduler. The engine maintains four invariants
//! (argued in DESIGN.md §12, pinned by the churn property tests):
//!
//! 1. **Per-method phase-1 state**: each method's per-datum answer before
//!    the capacity replay — the SCDS merged median, the LOMCDS
//!    first-window anchor, the GOMCDS unconstrained path — depends only on
//!    that datum's reference span. A resolve re-runs the method's kernel
//!    over the dirty data alone, fanned out over the pool once
//!    `PARALLEL_DIRTY_MIN` (64) of them are dirty.
//! 2. **Append extension**: an appended window with no references for a
//!    datum extends its optimal schedule by repeating the last center, so
//!    clean rows, pure paths and per-window occupancy all extend in place.
//! 3. **The occupancy patch rule** for bounded policies: per-datum prefix
//!    occupancy in the sequential capacity replay is monotone, so *"every
//!    placement lands on its unconstrained desired processor"* is
//!    equivalent to *"final occupancy respects the capacity everywhere"*.
//!    When no datum spilled in the last full replay, swapping the dirty
//!    data's old rows for their new unconstrained rows and checking the
//!    touched occupancy cells is exactly what the full replay would
//!    produce. Any violation (or a pre-existing spill) falls back to a
//!    full capacity replay from the carried phase-1 state — counted in
//!    [`IncrementalRun::fallbacks`] and reported through
//!    [`pim_metrics::IncrementalReport`].
//!
//! 4. **The cost ledger**: the cost model is a sum of per-datum terms, so
//!    [`IncrementalRun::cost`] keeps each datum's [`CostBreakdown`] and
//!    their running total. A full capacity replay marks every entry
//!    stale, a patched resolve only its dirty data (appended windows
//!    extend clean rows by repeating the last center, which costs
//!    nothing), and the stale entries are refolded lazily on the next
//!    `cost()` call.
//!
//! The engine is a driver: every decision comes from the per-method
//! kernels and capacity replays in [`crate::scds`], [`crate::lomcds`] and
//! [`crate::gomcds`], which the flat schedulers
//! ([`flat_scds`](crate::flat::flat_scds) /
//! [`flat_lomcds`](crate::flat::flat_lomcds) /
//! [`flat_gomcds`](crate::flat::flat_gomcds)) drive too — so the result is
//! bit-identical to running them on the materialized trace after every
//! delta.

use crate::cache::DatumCostCache;
use crate::error::{ensure_feasible, SchedError};
use crate::flat::{datum_cost, datum_ids, fan_out};
use crate::gomcds::{gomcds_path, solve_masked_path, GomcdsReplay, Solver};
use crate::lomcds::{span_first_anchor, span_window_medians};
use crate::median::MedianState;
use crate::pipeline::{MemoryPolicy, Method};
use crate::scds::{span_median, ScdsReplay};
use crate::schedule::{CostBreakdown, Schedule};
use crate::workspace::Workspace;
use pim_array::grid::{Grid, ProcId};
use pim_array::memory::MemorySpec;
use pim_metrics::{CacheStats, Metrics};
use pim_par::Pool;
use pim_trace::edit::{EditableTrace, TraceDelta};
use pim_trace::flat::{FlatTrace, FlatTraceError};
use pim_trace::ids::DataId;
use std::fmt;
use std::sync::Arc;

/// Dirty-set size from which a resolve fans its kernel runs out over the
/// pool; smaller sets run inline, where a pool dispatch costs more than it
/// saves.
const PARALLEL_DIRTY_MIN: usize = 64;

/// Why an [`IncrementalRun::incremental`] step failed.
#[derive(Debug)]
pub enum IncrementalError {
    /// The delta failed validation against the current trace shape;
    /// nothing was applied and the engine is unchanged.
    Trace(FlatTraceError),
    /// Rescheduling failed (capacity exhausted under the policy). The
    /// engine state is unspecified afterwards; drop it.
    Sched(SchedError),
}

impl fmt::Display for IncrementalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IncrementalError::Trace(e) => write!(f, "trace edit rejected: {e}"),
            IncrementalError::Sched(e) => write!(f, "incremental re-solve failed: {e}"),
        }
    }
}

impl std::error::Error for IncrementalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IncrementalError::Trace(e) => Some(e),
            IncrementalError::Sched(e) => Some(e),
        }
    }
}

impl From<FlatTraceError> for IncrementalError {
    fn from(e: FlatTraceError) -> Self {
        IncrementalError::Trace(e)
    }
}

impl From<SchedError> for IncrementalError {
    fn from(e: SchedError) -> Self {
        IncrementalError::Sched(e)
    }
}

/// Per-method carried phase-1 state: everything here depends only on
/// individual data spans, so an edit to datum `d` invalidates exactly the
/// entries of `d`.
enum MethodState {
    /// SCDS: each datum's merged-window weighted median.
    Scds { medians: Vec<ProcId> },
    /// LOMCDS: each datum's window-0 anchor (the median of its first
    /// referenced window) — all the sequential replay ever consults
    /// besides the spans.
    Lomcds { anchors: Vec<ProcId> },
    /// GOMCDS: each datum's unconstrained layered-DP path.
    Gomcds { pure: Vec<Vec<ProcId>> },
}

/// Capacity bookkeeping carried between resolves of a bounded run.
struct BoundedState {
    spec: MemorySpec,
    /// Spills the last full replay reported: placements off their
    /// unconstrained desired processor (SCDS, LOMCDS) or data whose
    /// unconstrained path collided (GOMCDS). Zero is the patch
    /// precondition: with no spills, schedule rows *are* the unconstrained
    /// rows and the final-occupancy check below reproduces the replay.
    spilled: usize,
    /// Final occupancy of the current schedule: `num_procs` entries for
    /// SCDS (static placement), `num_windows × num_procs` window-major
    /// for LOMCDS/GOMCDS.
    occ: Vec<u32>,
}
/// Per-datum cost of the current schedule (16 B per datum) and its
/// running total, refolded lazily: entries go stale when their row or span
/// changes and are refolded only when [`IncrementalRun::cost`] is asked.
#[derive(Debug)]
struct CostLedger {
    /// `per_datum[d]` is datum `d`'s cost along its row unless `d` is stale.
    per_datum: Vec<CostBreakdown>,
    /// The sum of `per_datum`.
    total: CostBreakdown,
    /// Data whose entry predates their current row or span (repeats
    /// allowed; past `num_data` entries the whole ledger goes stale).
    stale: Vec<DataId>,
    /// Every entry is stale: nothing folded yet, or a full replay since.
    all_stale: bool,
}

impl CostLedger {
    fn new() -> CostLedger {
        CostLedger {
            per_datum: Vec::new(),
            total: CostBreakdown::default(),
            stale: Vec::new(),
            all_stale: true,
        }
    }

    fn mark_all(&mut self) {
        self.all_stale = true;
        self.stale.clear();
    }

    fn mark(&mut self, ids: impl IntoIterator<Item = DataId>) {
        if self.all_stale {
            return;
        }
        self.stale.extend(ids);
        if self.stale.len() > self.per_datum.len() {
            self.mark_all();
        }
    }

    /// Refold the stale entries against `trace` and return the total.
    fn refold(&mut self, trace: &EditableTrace, schedule: &Schedule) -> CostBreakdown {
        let grid = trace.grid();
        let fold = |d: DataId| datum_cost(&grid, trace.span(d), schedule.centers_of(d), 1);
        if self.all_stale {
            self.per_datum.clear();
            self.per_datum
                .extend((0..trace.num_data() as u32).map(DataId).map(fold));
            self.total = CostBreakdown::default();
            for &c in &self.per_datum {
                self.total.add(c);
            }
            self.all_stale = false;
        }
        for d in self.stale.drain(..) {
            let new = fold(d);
            let old = std::mem::replace(&mut self.per_datum[d.index()], new);
            self.total.reference = self.total.reference - old.reference + new.reference;
            self.total.movement = self.total.movement - old.movement + new.movement;
        }
        self.total
    }
}

/// A live schedule over an editable trace with delta re-solving.
///
/// ```
/// use pim_sched::incremental::IncrementalRun;
/// use pim_sched::{MemoryPolicy, Method};
/// use pim_trace::edit::TraceDelta;
/// use pim_trace::flat::{FlatRecord, FlatTrace};
/// use pim_trace::ids::DataId;
/// use pim_array::grid::Grid;
///
/// let grid = Grid::new(4, 4);
/// let flat = FlatTrace::from_records(
///     grid,
///     2,
///     1,
///     [FlatRecord { datum: DataId(0), window: 0, proc: grid.proc_xy(1, 1), count: 3 }],
/// )
/// .unwrap();
/// let mut run = IncrementalRun::new(
///     flat,
///     Method::Lomcds,
///     MemoryPolicy::Unbounded,
///     pim_par::Pool::serial(),
/// )
/// .unwrap();
/// assert_eq!(run.schedule().center(DataId(0), 0), grid.proc_xy(1, 1));
///
/// let mut delta = TraceDelta::new();
/// delta.set_run(DataId(0), 1, [(grid.proc_xy(3, 0), 5)]);
/// run.incremental(&delta).unwrap();
/// assert_eq!(run.schedule().center(DataId(0), 1), grid.proc_xy(3, 0));
/// ```
pub struct IncrementalRun {
    grid: Grid,
    method: Method,
    policy: MemoryPolicy,
    pool: Pool,
    metrics: Metrics,
    trace: EditableTrace,
    ws: Workspace,
    schedule: Schedule,
    state: MethodState,
    bounded: Option<BoundedState>,
    fallbacks: u64,
    ledger: CostLedger,
}

impl fmt::Debug for IncrementalRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IncrementalRun")
            .field("method", &self.method)
            .field("policy", &self.policy)
            .field("version", &self.trace.version())
            .field("fallbacks", &self.fallbacks)
            .finish_non_exhaustive()
    }
}

impl IncrementalRun {
    /// Build the engine and solve the initial schedule (bit-identical to
    /// the matching flat scheduler). A shared trace is edited through an
    /// overlay, never copied. Only SCDS, LOMCDS and GOMCDS have
    /// incremental engines; other methods return
    /// [`SchedError::UnknownScheduler`].
    pub fn new(
        flat: impl Into<Arc<FlatTrace>>,
        method: Method,
        policy: MemoryPolicy,
        pool: Pool,
    ) -> Result<IncrementalRun, SchedError> {
        IncrementalRun::with_metrics(flat, method, policy, pool, Metrics::disabled())
    }

    /// [`IncrementalRun::new`] with cache/phase/incremental
    /// instrumentation recorded into `metrics`.
    pub fn with_metrics(
        flat: impl Into<Arc<FlatTrace>>,
        method: Method,
        policy: MemoryPolicy,
        pool: Pool,
        metrics: Metrics,
    ) -> Result<IncrementalRun, SchedError> {
        let state = match method {
            Method::Scds => MethodState::Scds {
                medians: Vec::new(),
            },
            Method::Lomcds => MethodState::Lomcds {
                anchors: Vec::new(),
            },
            Method::Gomcds => MethodState::Gomcds { pure: Vec::new() },
            other => {
                return Err(SchedError::UnknownScheduler(format!(
                    "{other} has no incremental engine (supported: SCDS, LOMCDS, GOMCDS)"
                )))
            }
        };
        let trace = EditableTrace::from_arc(flat.into());
        let grid = trace.grid();
        let mut ws = Workspace::new();
        ws.metrics = metrics.clone();
        let mut run = IncrementalRun {
            grid,
            method,
            policy,
            pool,
            metrics,
            trace,
            ws,
            schedule: Schedule::new(grid, Vec::new()),
            state,
            bounded: None,
            fallbacks: 0,
            ledger: CostLedger::new(),
        };
        run.full_solve()?;
        Ok(run)
    }

    /// The current schedule (always consistent with the last resolved
    /// trace version).
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The cost of [`Self::schedule`] on [`Self::trace`], equal to
    /// [`crate::flat_total_cost`] on the materialized trace. Pending edits
    /// (applied, not yet resolved) are resolved first, as
    /// [`Self::set_policy`] does. The answer comes from the per-datum cost
    /// ledger: after a patched resolve only the dirty data are refolded
    /// (`O(dirty)`), after the initial solve or a full capacity replay
    /// every datum is. Callers that never ask pay nothing.
    pub fn cost(&mut self) -> Result<CostBreakdown, SchedError> {
        if self.trace.is_dirty() {
            self.resolve()?;
        }
        Ok(self.ledger.refold(&self.trace, &self.schedule))
    }

    /// The live trace the schedule covers.
    pub fn trace(&self) -> &EditableTrace {
        &self.trace
    }

    /// The trace edit version the schedule corresponds to.
    pub fn version(&self) -> u64 {
        self.trace.version()
    }

    /// How many resolves fell back to a full capacity replay.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// The scheduling method this engine drives.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The memory policy in effect.
    pub fn policy(&self) -> MemoryPolicy {
        self.policy
    }

    /// Apply a delta and re-solve the dirty data: the incremental
    /// counterpart of rerunning the scheduler on the edited trace.
    pub fn incremental(&mut self, delta: &TraceDelta) -> Result<(), IncrementalError> {
        self.apply(delta)?;
        self.resolve()?;
        Ok(())
    }

    /// Validate and apply a delta without re-solving (several deltas can
    /// be batched before one [`Self::resolve`]). On `Err` nothing was
    /// applied.
    pub fn apply(&mut self, delta: &TraceDelta) -> Result<(), FlatTraceError> {
        self.trace.apply(delta)
    }

    /// Switch the memory policy, flushing pending edits under the old
    /// policy first, then replaying capacity from the carried state.
    pub fn set_policy(&mut self, policy: MemoryPolicy) -> Result<(), SchedError> {
        self.resolve()?;
        self.policy = policy;
        self.replay()
    }

    /// Re-solve everything the applied-but-unresolved edits dirtied: the
    /// method's kernel over the dirty data, then the occupancy patch (or a
    /// full capacity replay). No-op (beyond a metrics tick) when nothing
    /// is dirty.
    pub fn resolve(&mut self) -> Result<(), SchedError> {
        let dirty = self.trace.take_dirty();
        if dirty.is_empty() {
            self.metrics.record_incremental(0, false);
            return Ok(());
        }
        let metrics = self.metrics.clone();
        let grid = self.grid;
        let nw = self.trace.num_windows();
        let m = grid.num_procs();

        // Appended windows hold no refs for clean data, so their schedule
        // rows, pure paths and occupancy rows all repeat the last window;
        // the dirty data are re-solved below.
        {
            let _t = metrics.phase("incremental/maintain");
            if dirty.appended_windows > 0 {
                for _ in 0..dirty.appended_windows {
                    self.schedule.append_window_repeat_last();
                }
                if let MethodState::Gomcds { pure } = &mut self.state {
                    for row in pure.iter_mut() {
                        let last = *row.last().expect("paths have ≥1 window");
                        row.resize(nw, last);
                    }
                }
                if let Some(b) = &mut self.bounded {
                    if !matches!(self.method, Method::Scds) {
                        b.occ.resize(nw * m, 0);
                        for w in dirty.old_num_windows..nw {
                            let (prev, rest) = b.occ.split_at_mut(w * m);
                            rest[..m].copy_from_slice(&prev[(w - 1) * m..]);
                        }
                    }
                }
            }
        }

        // Dirty re-solve + occupancy patch (or fallback).
        let ids = dirty.data;
        let pool = if ids.len() >= PARALLEL_DIRTY_MIN {
            self.pool
        } else {
            Pool::serial()
        };
        let fallback = {
            let _t = metrics.phase("incremental/dirty-solve");
            let trace = &self.trace;
            match &mut self.state {
                MethodState::Scds { medians } => {
                    let new = fan_out(pool, &ids, MedianState::default, |med, d| {
                        span_median(&grid, trace.span(d), med)
                    });
                    let changes: Vec<(DataId, ProcId, ProcId)> = ids
                        .iter()
                        .zip(new)
                        .map(|(&d, new)| (d, std::mem::replace(&mut medians[d.index()], new), new))
                        .collect();
                    !patch_medians(&mut self.bounded, &mut self.schedule, &changes)
                }
                MethodState::Lomcds { anchors } => {
                    let rows = fan_out(pool, &ids, MedianState::default, |med, d| {
                        span_window_medians(&grid, trace.span(d), nw, med)
                    });
                    // Gap resolution backfills leading empties with the
                    // first referenced window's median, so row[0] *is*
                    // the window-0 anchor.
                    for (&d, row) in ids.iter().zip(&rows) {
                        anchors[d.index()] = row[0];
                    }
                    !patch_rows(&mut self.bounded, &mut self.schedule, &ids, rows)
                }
                MethodState::Gomcds { pure } => {
                    let rows = pure_paths(trace, &ids, pool, metrics.cache_stats().as_ref());
                    for (&d, row) in ids.iter().zip(&rows) {
                        pure[d.index()].clone_from(row);
                    }
                    !patch_rows(&mut self.bounded, &mut self.schedule, &ids, rows)
                }
            }
        };

        self.ledger.mark(ids.iter().copied());
        if fallback {
            self.fallbacks += 1;
            let _t = metrics.phase("incremental/fallback-replay");
            self.replay()?;
        }
        self.metrics.record_incremental(ids.len() as u64, fallback);
        Ok(())
    }

    /// Phase-1 state for every datum in parallel, then the capacity
    /// replay — the from-scratch solve the deltas patch around.
    fn full_solve(&mut self) -> Result<(), SchedError> {
        let metrics = self.metrics.clone();
        let _t = metrics.phase("incremental/initial-solve");
        let grid = self.grid;
        let ids = datum_ids(self.trace.num_data());
        let trace = &self.trace;
        match &mut self.state {
            MethodState::Scds { medians } => {
                *medians = fan_out(self.pool, &ids, MedianState::default, |med, d| {
                    span_median(&grid, trace.span(d), med)
                });
            }
            MethodState::Lomcds { anchors } => {
                *anchors = fan_out(self.pool, &ids, MedianState::default, |med, d| {
                    span_first_anchor(&grid, trace.span(d), med)
                });
            }
            MethodState::Gomcds { pure } => {
                *pure = pure_paths(trace, &ids, self.pool, metrics.cache_stats().as_ref());
            }
        }
        self.replay()
    }

    /// Full capacity replay from the carried phase-1 state: rebuilds the
    /// schedule, spill count and occupancy through each algorithm's shared
    /// replay — exactly the flat schedulers' sequential phase.
    fn replay(&mut self) -> Result<(), SchedError> {
        let grid = self.grid;
        let nd = self.trace.num_data();
        let nw = self.trace.num_windows();
        let spec = self.policy.resolve(&grid, nd);
        ensure_feasible(&grid, spec, nd)?;
        let (schedule, spilled) = match &self.state {
            MethodState::Scds { medians } => {
                let mut replay = ScdsReplay::new(&grid, spec, &self.metrics);
                let mut placement = Vec::with_capacity(nd);
                for (i, &c) in medians.iter().enumerate() {
                    let d = DataId(i as u32);
                    placement.push(replay.place(&grid, d, self.trace.span(d), c)?);
                }
                let schedule = Schedule::static_placement(grid, placement, nw);
                (schedule, replay.spilled)
            }
            MethodState::Lomcds { .. } if spec.capacity_per_proc == u32::MAX => {
                let pool = self.pool;
                let s = crate::flat::lomcds_on(&self.trace, spec, pool, &mut self.ws)?;
                (s, 0)
            }
            MethodState::Lomcds { anchors } => {
                crate::lomcds::replay(&self.trace, spec, anchors, &mut self.ws)?
            }
            MethodState::Gomcds { pure } => {
                let solver = Solver::DistanceTransform;
                let mut replay = GomcdsReplay::new(&grid, nw, spec, solver);
                let stats = self.metrics.cache_stats();
                let (trace, ws) = (&self.trace, &mut self.ws);
                let centers = pure
                    .iter()
                    .enumerate()
                    .map(|(i, row)| {
                        let d = DataId(i as u32);
                        replay.place(d, row.clone(), |masks| {
                            let cache = live_cache(trace, d, stats.as_ref());
                            solve_masked_path(&grid, &cache, masks, solver, ws)
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                (Schedule::new(grid, centers), replay.spilled)
            }
        };
        // SCDS placements are static, so one occupancy row covers them.
        let occ_windows = match self.state {
            MethodState::Scds { .. } => 1,
            _ => nw,
        };
        self.bounded = (spec.capacity_per_proc != u32::MAX).then(|| BoundedState {
            spec,
            spilled,
            occ: occ_rows(&grid, &schedule, occ_windows),
        });
        self.schedule = schedule;
        self.ledger.mark_all();
        Ok(())
    }
}

/// Datum `d`'s cost cache, borrowed over its live span as `flat_gomcds`
/// borrows one over a flat span (`O(1)`: tables appear only when a query
/// needs them), counting into `stats` when metrics are on.
fn live_cache<'a>(
    trace: &'a EditableTrace,
    d: DataId,
    stats: Option<&Arc<CacheStats>>,
) -> DatumCostCache<'a> {
    let mut cache = DatumCostCache::build_flat(&trace.grid(), trace.span(d), trace.num_windows());
    if let Some(stats) = stats {
        cache.set_stats(Arc::clone(stats));
    }
    cache
}

/// GOMCDS's kernel over `ids`: each datum's unconstrained path, fanned
/// out over `pool`.
fn pure_paths(
    trace: &EditableTrace,
    ids: &[DataId],
    pool: Pool,
    stats: Option<&Arc<CacheStats>>,
) -> Vec<Vec<ProcId>> {
    let grid = trace.grid();
    fan_out(pool, ids, Workspace::new, |ws, d| {
        let cache = live_cache(trace, d, stats);
        gomcds_path(&grid, &cache, Solver::DistanceTransform, ws).0
    })
}

/// The occupancy patch rule for SCDS's static placements: with no spill
/// in the last full replay, swap each dirty datum's old median for its
/// new one in the single occupancy row and check every incremented cell.
/// Returns `false` when a full replay must run instead; with unbounded
/// memory the new medians are installed as is.
fn patch_medians(
    bounded: &mut Option<BoundedState>,
    schedule: &mut Schedule,
    changes: &[(DataId, ProcId, ProcId)],
) -> bool {
    if let Some(b) = bounded {
        if b.spilled > 0 {
            return false;
        }
        let cap = b.spec.capacity_per_proc;
        for &(_, old, _) in changes {
            b.occ[old.index()] -= 1;
        }
        let mut ok = true;
        for &(_, _, new) in changes {
            b.occ[new.index()] += 1;
            ok &= b.occ[new.index()] <= cap;
        }
        if !ok {
            return false;
        }
    }
    for &(d, old, new) in changes {
        if new != old {
            schedule.fill_row(d, new);
        }
    }
    true
}

/// The occupancy patch rule for per-window rows (LOMCDS, GOMCDS): with no
/// spill in the last full replay, swap the dirty data's old rows for their
/// new unconstrained `rows` and check every incremented cell against the
/// capacity. Returns `false` when the patch cannot apply and a full replay
/// must run instead; with unbounded memory the rows are installed as is.
fn patch_rows(
    bounded: &mut Option<BoundedState>,
    schedule: &mut Schedule,
    ids: &[DataId],
    rows: Vec<Vec<ProcId>>,
) -> bool {
    if let Some(b) = bounded {
        if b.spilled > 0 {
            return false;
        }
        let m = schedule.grid().num_procs();
        let cap = b.spec.capacity_per_proc;
        for &d in ids {
            for (w, &p) in schedule.centers_of(d).iter().enumerate() {
                b.occ[w * m + p.index()] -= 1;
            }
        }
        let mut ok = true;
        for row in &rows {
            for (w, &p) in row.iter().enumerate() {
                let cell = &mut b.occ[w * m + p.index()];
                *cell += 1;
                ok &= *cell <= cap;
            }
        }
        if !ok {
            return false;
        }
    }
    for (&d, row) in ids.iter().zip(rows) {
        schedule.set_row(d, row);
    }
    true
}

/// Window-major final occupancy of a schedule's first `windows` windows.
fn occ_rows(grid: &Grid, sched: &Schedule, windows: usize) -> Vec<u32> {
    let m = grid.num_procs();
    let mut occ = vec![0u32; windows * m];
    for i in 0..sched.num_data() {
        for (w, &p) in sched.centers_of(DataId(i as u32))[..windows]
            .iter()
            .enumerate()
        {
            occ[w * m + p.index()] += 1;
        }
    }
    occ
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_trace::flat::FlatRecord;

    fn grid() -> Grid {
        Grid::new(4, 3)
    }

    /// `(datum, window, x, y, count)` quintuples to a flat trace.
    fn flat_of(grid: Grid, nd: usize, nw: usize, recs: &[(u32, u32, u32, u32, u32)]) -> FlatTrace {
        FlatTrace::from_records(
            grid,
            nw,
            nd,
            recs.iter().map(|&(d, w, x, y, c)| FlatRecord {
                datum: DataId(d),
                window: w,
                proc: grid.proc_xy(x, y),
                count: c,
            }),
        )
        .unwrap()
    }

    fn sample(grid: Grid) -> FlatTrace {
        flat_of(
            grid,
            3,
            4,
            &[
                (0, 0, 0, 0, 2),
                (0, 0, 1, 0, 1),
                (0, 1, 3, 2, 4),
                (0, 3, 3, 1, 2),
                (1, 0, 2, 2, 1),
                (1, 2, 2, 2, 3),
                (2, 1, 1, 1, 5),
            ],
        )
    }

    const METHODS: [Method; 3] = [Method::Scds, Method::Lomcds, Method::Gomcds];
    const POLICIES: [MemoryPolicy; 3] = [
        MemoryPolicy::Unbounded,
        MemoryPolicy::ScaledMinimum { factor: 2 },
        MemoryPolicy::Capacity(1),
    ];

    /// From-scratch schedule of the engine's current trace, by the
    /// matching `flat_*` driver (itself pinned to the `pim-reference`
    /// oracles in `tests/cache_equivalence.rs`).
    fn scratch(run: &IncrementalRun) -> Schedule {
        let flat = run.trace().materialize();
        type Driver = fn(&FlatTrace, MemoryPolicy, Pool) -> Result<Schedule, SchedError>;
        let driver: Driver = match run.method() {
            Method::Scds => crate::flat::flat_scds,
            Method::Lomcds => crate::flat::flat_lomcds,
            _ => crate::flat::flat_gomcds,
        };
        driver(&flat, run.policy(), Pool::serial()).unwrap()
    }

    fn assert_parity(run: &IncrementalRun, what: &str) {
        assert_eq!(
            run.schedule(),
            &scratch(run),
            "{what}: {} {:?}",
            run.method(),
            run.policy()
        );
    }

    #[test]
    fn rejects_unsupported_methods() {
        let err = IncrementalRun::new(
            sample(grid()),
            Method::GomcdsNaive,
            MemoryPolicy::Unbounded,
            Pool::serial(),
        )
        .unwrap_err();
        assert!(matches!(err, SchedError::UnknownScheduler(_)), "{err}");
    }

    #[test]
    fn initial_solve_matches_flat_schedulers() {
        for method in METHODS {
            for policy in POLICIES {
                let run =
                    IncrementalRun::new(sample(grid()), method, policy, Pool::serial()).unwrap();
                assert_parity(&run, "initial");
            }
        }
    }

    #[test]
    fn edit_sequence_tracks_scratch() {
        let g = grid();
        for method in METHODS {
            for policy in POLICIES {
                let mut run =
                    IncrementalRun::new(sample(g), method, policy, Pool::serial()).unwrap();

                let mut d1 = TraceDelta::new();
                d1.set_run(DataId(0), 1, [(g.proc_xy(0, 2), 7)]);
                run.incremental(&d1).unwrap();
                assert_parity(&run, "rewrite");

                let mut d2 = TraceDelta::new();
                d2.remove_run(DataId(2), 1).set_run(
                    DataId(1),
                    3,
                    [(g.proc_xy(3, 0), 2), (g.proc_xy(3, 1), 2)],
                );
                run.incremental(&d2).unwrap();
                assert_parity(&run, "remove+rewrite");

                let mut d3 = TraceDelta::new();
                d3.append_window([(DataId(1), g.proc_xy(0, 0), 4)])
                    .append_window([]);
                run.incremental(&d3).unwrap();
                assert_parity(&run, "append");
                assert_eq!(run.trace().num_windows(), 6);
            }
        }
    }

    #[test]
    fn noop_delta_invalidates_nothing() {
        let metrics = Metrics::enabled();
        let mut run = IncrementalRun::with_metrics(
            sample(grid()),
            Method::Gomcds,
            MemoryPolicy::Capacity(2),
            Pool::serial(),
            metrics.clone(),
        )
        .unwrap();
        let solved = metrics.report().cache;
        assert!(solved.raw_serves > 0, "the initial solve counts its reads");
        let v = run.version();
        run.incremental(&TraceDelta::new()).unwrap();
        assert_eq!(run.version(), v, "no-op delta must not bump the version");
        let report = metrics.report();
        assert_eq!(report.cache, solved, "a no-op delta re-solves no datum");
        assert_eq!(report.incremental.resolves, 1);
        assert_eq!(report.incremental.dirty_data, 0);
        assert_eq!(report.incremental.fallbacks, 0);

        // A one-datum edit re-solves that datum, through a cache that
        // counts into the same sink.
        let mut delta = TraceDelta::new();
        delta.set_run(DataId(1), 0, [(grid().proc_xy(1, 1), 1)]);
        run.incremental(&delta).unwrap();
        let report = metrics.report();
        assert_eq!(report.incremental.dirty_data, 1);
        assert!(report.cache.raw_serves >= solved.raw_serves + 4);
        assert_parity(&run, "one-datum edit");
    }

    #[test]
    fn displacement_falls_back_and_stays_exact() {
        // 2×2 grid at capacity 1 with 4 data: every processor is full, so
        // moving datum 0 onto datum 3's processor must displace and the
        // patch cannot apply.
        let g = Grid::new(2, 2);
        let flat = flat_of(
            g,
            4,
            2,
            &[
                (0, 0, 0, 0, 3),
                (1, 0, 1, 0, 3),
                (2, 0, 0, 1, 3),
                (3, 0, 1, 1, 3),
            ],
        );
        for method in METHODS {
            let mut run = IncrementalRun::new(
                flat.clone(),
                method,
                MemoryPolicy::Capacity(1),
                Pool::serial(),
            )
            .unwrap();
            assert_parity(&run, "initial");
            let mut delta = TraceDelta::new();
            delta.set_run(DataId(0), 0, [(g.proc_xy(1, 1), 9)]);
            run.incremental(&delta).unwrap();
            assert_parity(&run, "displacing edit");
            assert!(run.fallbacks() >= 1, "{method}: expected a fallback");
        }
    }

    #[test]
    fn set_policy_replays_under_new_spec() {
        let g = grid();
        for method in METHODS {
            let mut run =
                IncrementalRun::new(sample(g), method, MemoryPolicy::Unbounded, Pool::serial())
                    .unwrap();
            let mut delta = TraceDelta::new();
            delta.set_run(DataId(1), 0, [(g.proc_xy(0, 2), 2)]);
            run.apply(&delta).unwrap();
            run.set_policy(MemoryPolicy::Capacity(1)).unwrap();
            assert_parity(&run, "policy switch");
        }
    }

    #[test]
    fn cost_ledger_refolds_only_what_changed() {
        let g = grid();
        let fold = |run: &IncrementalRun| {
            crate::flat::flat_total_cost(&run.trace().materialize(), run.schedule())
        };
        for method in METHODS {
            for policy in POLICIES {
                let mut run =
                    IncrementalRun::new(sample(g), method, policy, Pool::serial()).unwrap();
                assert!(run.ledger.all_stale, "nothing folded before the first ask");
                assert_eq!(run.cost().unwrap(), fold(&run));

                // A patched resolve marks only its dirty datum stale.
                let mut d = TraceDelta::new();
                d.set_run(DataId(0), 1, [(g.proc_xy(0, 1), 1)]);
                run.incremental(&d).unwrap();
                let fell_back = run.ledger.all_stale;
                if policy == MemoryPolicy::Unbounded {
                    assert!(!fell_back && run.ledger.stale == [DataId(0)], "{method}");
                }
                assert_eq!(run.cost().unwrap(), fold(&run), "{method} {policy:?}");

                // Resolves nobody asks about only grow the stale list;
                // past one entry per datum the whole ledger goes stale.
                for n in 1..=4u32 {
                    let mut d = TraceDelta::new();
                    d.set_run(DataId(0), 1, [(g.proc_xy(n % 4, 2), n)]);
                    run.incremental(&d).unwrap();
                }
                assert!(run.ledger.all_stale && run.ledger.stale.is_empty());
                assert_eq!(run.cost().unwrap(), fold(&run), "{method} {policy:?}");

                // Pending edits are resolved before the answer.
                let mut d = TraceDelta::new();
                d.set_run(DataId(2), 0, [(g.proc_xy(3, 0), 5)])
                    .append_window([(DataId(1), g.proc_xy(0, 0), 1)]);
                run.apply(&d).unwrap();
                let cost = run.cost().unwrap();
                assert!(!run.trace().is_dirty());
                assert_eq!(cost, fold(&run), "{method} {policy:?}");
                assert_parity(&run, "cost after pending edits");
            }
        }
    }

    #[test]
    fn batched_deltas_resolve_once() {
        let g = grid();
        let metrics = Metrics::enabled();
        let mut run = IncrementalRun::with_metrics(
            sample(g),
            Method::Lomcds,
            MemoryPolicy::Unbounded,
            Pool::serial(),
            metrics.clone(),
        )
        .unwrap();
        let mut d1 = TraceDelta::new();
        d1.set_run(DataId(0), 2, [(g.proc_xy(2, 1), 1)]);
        let mut d2 = TraceDelta::new();
        d2.set_run(DataId(2), 0, [(g.proc_xy(1, 2), 8)]);
        run.apply(&d1).unwrap();
        run.apply(&d2).unwrap();
        run.resolve().unwrap();
        assert_parity(&run, "batched");
        let report = metrics.report();
        assert_eq!(report.incremental.resolves, 1);
        assert_eq!(report.incremental.dirty_data, 2);
    }
}
