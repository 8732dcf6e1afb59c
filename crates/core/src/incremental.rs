//! Incremental rescheduling under trace churn.
//!
//! [`IncrementalRun`] keeps a live schedule over an [`EditableTrace`] and,
//! after each batch of edits, re-solves **only the dirty data** instead of
//! rerunning the whole scheduler. The engine maintains three invariants
//! (argued in DESIGN.md §12, pinned by the churn property tests):
//!
//! 1. **Per-method carried state** whose entries depend only on a single
//!    datum's reference span — SCDS merged medians (with optional
//!    [`MedianState`] checkpoints for O(edit)-time median updates), LOMCDS
//!    window-0 anchors, GOMCDS unconstrained paths (with bounded-size
//!    `DpCheckpoint`s so append-heavy churn resumes the layered DP from
//!    the first edited window).
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
//! The engine is a driver: every decision comes from the per-method
//! kernels and capacity replays in [`crate::scds`], [`crate::lomcds`] and
//! [`crate::gomcds`], which the flat schedulers
//! ([`flat_scds`](crate::flat::flat_scds) /
//! [`flat_lomcds`](crate::flat::flat_lomcds) /
//! [`flat_gomcds`](crate::flat::flat_gomcds)) drive too — so the result is
//! bit-identical to running them on the materialized trace after every
//! delta.

use crate::cache::CostCache;
use crate::error::{ensure_feasible, SchedError};
use crate::flat::{datum_ids, fan_out};
use crate::gomcds::{gomcds_path_cached, solve_layered, DpCheckpoint, GomcdsReplay};
use crate::gomcds::{NodeSource, Solver};
use crate::lomcds::{span_first_anchor, span_window_medians};
use crate::median::{MedianState, PackedMedians};
use crate::pipeline::{MemoryPolicy, Method};
use crate::scds::{span_median, ScdsReplay};
use crate::schedule::Schedule;
use crate::workspace::Workspace;
use pim_array::grid::{Grid, ProcId};
use pim_array::memory::MemorySpec;
use pim_metrics::Metrics;
use pim_par::Pool;
use pim_trace::edit::{DirtyKind, EditOp, EditableTrace, TraceDelta};
use pim_trace::flat::{FlatTrace, FlatTraceError};
use pim_trace::ids::DataId;
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Default memory budget for the SCDS per-datum median checkpoints; above
/// it dirty medians are recomputed from their spans instead.
const SCDS_CHECKPOINT_BUDGET: usize = 64 << 20;

/// Dirty-set size up to which GOMCDS re-solves sequentially through the
/// checkpoint store; larger sets fan the from-scratch solves out over the
/// pool instead (checkpoints stop paying once every worker is busy).
const GOMCDS_RESUME_SEQUENTIAL_MAX: usize = 32;

/// Maximum number of per-datum DP checkpoints kept (FIFO eviction): each
/// holds two `num_windows × num_procs` u64 tables, so an unbounded store
/// would dwarf the trace itself under wide churn.
const GOMCDS_RESUME_CAP: usize = 256;

/// Dirty-set size from which LOMCDS recomputes desired rows in parallel.
const LOMCDS_PARALLEL_DIRTY_MIN: usize = 64;

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

/// FIFO-bounded store of per-datum GOMCDS DP checkpoints.
#[derive(Debug, Default)]
struct ResumeStore {
    map: HashMap<u32, DpCheckpoint>,
    fifo: VecDeque<u32>,
}

impl ResumeStore {
    /// Drop every checkpointed layer from `first_dirty` on for `d`.
    fn truncate(&mut self, d: DataId, first_dirty: usize, m: usize) {
        if let Some(c) = self.map.get_mut(&d.0) {
            c.truncate(first_dirty, m);
        }
    }

    /// `d`'s checkpoint, created empty (evicting the oldest entry past
    /// the cap) when absent.
    fn slot(&mut self, d: DataId) -> &mut DpCheckpoint {
        if !self.map.contains_key(&d.0) {
            self.fifo.push_back(d.0);
            if self.fifo.len() > GOMCDS_RESUME_CAP {
                if let Some(old) = self.fifo.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
        self.map.entry(d.0).or_default()
    }
}

/// Per-method carried phase-1 state: everything here depends only on
/// individual data spans, so an edit to datum `d` invalidates exactly the
/// entries of `d`.
enum MethodState {
    /// SCDS: each datum's merged-window weighted median, plus (when the
    /// budget allows) its live median histogram so an edit updates the
    /// median in `O(edit + width + height)` instead of `O(span)`.
    Scds {
        medians: Vec<ProcId>,
        ckpts: Option<PackedMedians>,
    },
    /// LOMCDS: each datum's window-0 anchor (the median of its first
    /// referenced window) — all the sequential replay ever consults
    /// besides the caches.
    Lomcds { anchors: Vec<ProcId> },
    /// GOMCDS: each datum's unconstrained layered-DP path, plus resumable
    /// DP checkpoints for recently re-solved data.
    Gomcds {
        pure: Vec<Vec<ProcId>>,
        resume: ResumeStore,
    },
}

impl MethodState {
    fn init(method: Method) -> MethodState {
        match method {
            Method::Scds => MethodState::Scds {
                medians: Vec::new(),
                ckpts: None,
            },
            Method::Lomcds => MethodState::Lomcds {
                anchors: Vec::new(),
            },
            _ => MethodState::Gomcds {
                pure: Vec::new(),
                resume: ResumeStore::default(),
            },
        }
    }
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
    cache: CostCache<'static>,
    ws: Workspace,
    schedule: Schedule,
    state: MethodState,
    bounded: Option<BoundedState>,
    fallbacks: u64,
    scds_ckpt_budget: usize,
    /// Centers computed in [`Self::post_op`] while the just-updated SCDS
    /// checkpoint is still cache-hot, in op order (sequential pushes — a
    /// per-datum array would pay a cold write per op). The dirty-solve
    /// consumes the list only when its length equals the dirty count,
    /// which proves entries are unique and cover the dirty set; duplicate
    /// edits to one datum fall back to re-reading checkpoints. Always
    /// empty unless the method is SCDS with checkpoints.
    fresh: Vec<(DataId, ProcId)>,
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
    /// the matching flat scheduler). Only SCDS, LOMCDS and GOMCDS have
    /// incremental engines; other methods return
    /// [`SchedError::UnknownScheduler`].
    pub fn new(
        flat: FlatTrace,
        method: Method,
        policy: MemoryPolicy,
        pool: Pool,
    ) -> Result<IncrementalRun, SchedError> {
        IncrementalRun::with_metrics(flat, method, policy, pool, Metrics::disabled())
    }

    /// [`IncrementalRun::new`] with cache/phase/incremental
    /// instrumentation recorded into `metrics`.
    pub fn with_metrics(
        flat: FlatTrace,
        method: Method,
        policy: MemoryPolicy,
        pool: Pool,
        metrics: Metrics,
    ) -> Result<IncrementalRun, SchedError> {
        match method {
            Method::Scds | Method::Lomcds | Method::Gomcds => {}
            other => {
                return Err(SchedError::UnknownScheduler(format!(
                    "{other} has no incremental engine (supported: SCDS, LOMCDS, GOMCDS)"
                )))
            }
        }
        let grid = flat.grid();
        let trace = EditableTrace::new(flat);
        let mut cache = CostCache::build_shared(trace.base());
        if let Some(stats) = metrics.cache_stats() {
            cache.set_stats(&stats);
        }
        let mut ws = Workspace::new();
        ws.metrics = metrics.clone();
        let mut run = IncrementalRun {
            grid,
            method,
            policy,
            pool,
            metrics,
            trace,
            cache,
            ws,
            schedule: Schedule::new(grid, Vec::new()),
            state: MethodState::init(method),
            bounded: None,
            fallbacks: 0,
            scds_ckpt_budget: SCDS_CHECKPOINT_BUDGET,
            fresh: Vec::new(),
        };
        run.full_solve()?;
        Ok(run)
    }

    /// The current schedule (always consistent with the last resolved
    /// trace version).
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
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
        self.trace.check(delta)?;
        let ops = delta.ops();
        for (i, op) in ops.iter().enumerate() {
            // One-op lookahead: start pulling the next op's span and
            // checkpoint block toward cache so their DRAM latency
            // overlaps this op's work (spans land on random data, so
            // every tick begins cold).
            if let Some(EditOp::SetRun { datum, .. }) = ops.get(i + 1) {
                self.trace.prefetch_span(*datum);
                if let MethodState::Scds {
                    ckpts: Some(pm), ..
                } = &self.state
                {
                    pm.prefetch(datum.index());
                }
            }
            self.pre_op(op);
            self.trace
                .apply_op(op)
                .expect("delta pre-validated by check");
            self.post_op(op);
        }
        Ok(())
    }

    /// Switch the memory policy, flushing pending edits under the old
    /// policy first, then replaying capacity from the carried state.
    pub fn set_policy(&mut self, policy: MemoryPolicy) -> Result<(), SchedError> {
        self.resolve()?;
        self.policy = policy;
        self.replay()
    }

    /// Eager carried-state maintenance *before* an op lands: SCDS median
    /// checkpoints must see the run being replaced while it is still in
    /// the trace.
    fn pre_op(&mut self, op: &EditOp) {
        if let (
            MethodState::Scds {
                ckpts: Some(ckpts), ..
            },
            EditOp::SetRun { datum, window, .. },
        ) = (&mut self.state, op)
        {
            for r in self.trace.window_run(*datum, *window as usize) {
                ckpts.remove(datum.index(), r.x, r.y, r.count as u64);
            }
        }
    }

    /// Carried-state maintenance *after* an op lands. Reads the stored
    /// runs back from the trace (not the raw delta refs) so checkpoint
    /// histograms stay exact under run aggregation.
    fn post_op(&mut self, op: &EditOp) {
        match (&mut self.state, op) {
            (
                MethodState::Scds {
                    ckpts: Some(ckpts), ..
                },
                EditOp::SetRun { datum, window, .. },
            ) => {
                for r in self.trace.window_run(*datum, *window as usize) {
                    ckpts.add(datum.index(), r.x, r.y, r.count as u64);
                }
                // The checkpoint's histogram lines are L1-hot right here;
                // computing the new center now saves the dirty-solve a
                // cold re-read of this datum's checkpoint.
                self.fresh
                    .push((*datum, ckpts.center(datum.index(), &self.grid)));
            }
            (
                MethodState::Scds {
                    ckpts: Some(ckpts), ..
                },
                EditOp::AppendWindow { rows },
            ) => {
                let w = self.trace.num_windows() - 1;
                let mut touched: Vec<DataId> = rows.iter().map(|&(d, _, _)| d).collect();
                touched.sort_unstable_by_key(|d| d.0);
                touched.dedup();
                for d in touched {
                    for r in self.trace.window_run(d, w) {
                        ckpts.add(d.index(), r.x, r.y, r.count as u64);
                    }
                    self.fresh.push((d, ckpts.center(d.index(), &self.grid)));
                }
            }
            (MethodState::Gomcds { resume, .. }, EditOp::SetRun { datum, window, .. }) => {
                resume.truncate(*datum, *window as usize, self.grid.num_procs());
            }
            _ => {}
        }
    }

    /// Re-solve everything the applied-but-unresolved edits dirtied.
    /// No-op (beyond a metrics tick) when nothing is dirty.
    pub fn resolve(&mut self) -> Result<(), SchedError> {
        let dirty = self.trace.take_dirty();
        if dirty.is_empty() {
            self.metrics.record_incremental(0, false);
            return Ok(());
        }
        let metrics = self.metrics.clone();
        let grid = self.grid;
        let nd = self.trace.num_data();
        let nw = self.trace.num_windows();
        let m = grid.num_procs();

        // Cache + carried-state maintenance: rebind/extend the dirty
        // data's tables, extend everything else in place across appended
        // windows (appended windows hold no refs for clean data, so their
        // schedules, pure paths and occupancy rows all repeat-last).
        {
            let _t = metrics.phase("incremental/maintain");
            // SCDS never consults the cost cache — its dirty-solve runs on
            // checkpoints (or raw spans) and its replay's spill tables on
            // spans — so maintaining per-datum cache units would be pure
            // overhead on the churn hot path.
            let cache_live = !matches!(self.method, Method::Scds);
            if cache_live {
                for &(d, kind) in &dirty.data {
                    let span = self.trace.shared_span(d);
                    match kind {
                        DirtyKind::Rewritten => self.cache.datum_mut(d).rebind_span(span, nw),
                        DirtyKind::Appended => self.cache.datum_mut(d).extend_span(span, nw),
                    }
                }
            }
            if dirty.appended_windows > 0 {
                if cache_live {
                    let mut touched = vec![false; nd];
                    for &(d, _) in &dirty.data {
                        touched[d.index()] = true;
                    }
                    for (i, &t) in touched.iter().enumerate() {
                        if !t {
                            self.cache.datum_mut(DataId(i as u32)).extend_windows(nw);
                        }
                    }
                }
                for _ in 0..dirty.appended_windows {
                    self.schedule.append_window_repeat_last();
                }
                if let MethodState::Gomcds { pure, .. } = &mut self.state {
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
        let dirty_count = dirty.data.len();
        let mut fallback = false;
        {
            let _t = metrics.phase("incremental/dirty-solve");
            match &mut self.state {
                MethodState::Scds { medians, ckpts } => {
                    let mut fresh = std::mem::take(&mut self.fresh);
                    let mut scratch = MedianState::default();
                    let mut changes: Vec<(DataId, ProcId, ProcId)> =
                        Vec::with_capacity(dirty_count);
                    if ckpts.is_some() && fresh.len() == dirty_count {
                        // One list entry per dirty datum ⇒ unique and
                        // covering: the post_op pre-computed centers stand
                        // in for cold checkpoint re-reads.
                        for &(d, new) in &fresh {
                            let old = medians[d.index()];
                            medians[d.index()] = new;
                            changes.push((d, old, new));
                        }
                    } else {
                        for &(d, _) in &dirty.data {
                            let new = match ckpts {
                                Some(c) => c.center(d.index(), &grid),
                                None => span_median(&grid, self.trace.span(d), &mut scratch),
                            };
                            let old = medians[d.index()];
                            medians[d.index()] = new;
                            changes.push((d, old, new));
                        }
                    }
                    fresh.clear();
                    self.fresh = fresh;
                    match &mut self.bounded {
                        None => {
                            for &(d, old, new) in &changes {
                                if new != old {
                                    self.schedule.fill_row(d, new);
                                }
                            }
                        }
                        Some(b) if b.spilled > 0 => fallback = true,
                        Some(b) => {
                            // No spills ⇒ every current placement is its
                            // median; swap dirty old medians for new ones
                            // and check the incremented cells.
                            let cap = b.spec.capacity_per_proc;
                            for &(_, old, _) in &changes {
                                b.occ[old.index()] -= 1;
                            }
                            let mut ok = true;
                            for &(_, _, new) in &changes {
                                b.occ[new.index()] += 1;
                                ok &= b.occ[new.index()] <= cap;
                            }
                            if ok {
                                for &(d, old, new) in &changes {
                                    if new != old {
                                        self.schedule.fill_row(d, new);
                                    }
                                }
                            } else {
                                fallback = true;
                            }
                        }
                    }
                }
                MethodState::Lomcds { anchors } => {
                    let dirty_ids: Vec<DataId> = dirty.data.iter().map(|&(d, _)| d).collect();
                    let trace = &self.trace;
                    let pool = if dirty_count >= LOMCDS_PARALLEL_DIRTY_MIN {
                        self.pool
                    } else {
                        Pool::serial()
                    };
                    let rows = fan_out(pool, &dirty_ids, MedianState::default, |med, d| {
                        span_window_medians(&grid, trace.span(d), nw, med)
                    });
                    // Gap resolution backfills leading empties with the
                    // first referenced window's median, so row[0] *is*
                    // the window-0 anchor.
                    for (&d, row) in dirty_ids.iter().zip(&rows) {
                        anchors[d.index()] = row[0];
                    }
                    fallback = !patch_rows(&mut self.bounded, &mut self.schedule, &dirty_ids, rows);
                }
                MethodState::Gomcds { pure, resume } => {
                    let dirty_ids: Vec<DataId> = dirty.data.iter().map(|&(d, _)| d).collect();
                    let cache = &self.cache;
                    let rows: Vec<Vec<ProcId>> = if dirty_count > GOMCDS_RESUME_SEQUENTIAL_MAX {
                        fan_out(self.pool, &dirty_ids, Workspace::new, |ws, d| {
                            gomcds_path_cached(&grid, cache.datum(d), Solver::DistanceTransform, ws)
                                .0
                        })
                    } else {
                        dirty_ids
                            .iter()
                            .map(|&d| {
                                let src = NodeSource::Cached(cache.datum(d));
                                let ckpt = Some(resume.slot(d));
                                let dt = Solver::DistanceTransform;
                                solve_layered(&grid, &src, None, dt, 1, ckpt, &mut self.ws)
                                    .expect("unconstrained path always feasible")
                                    .0
                            })
                            .collect()
                    };
                    for (&d, row) in dirty_ids.iter().zip(&rows) {
                        pure[d.index()] = row.clone();
                    }
                    fallback = !patch_rows(&mut self.bounded, &mut self.schedule, &dirty_ids, rows);
                }
            }
        }

        if fallback {
            self.fallbacks += 1;
            let _t = metrics.phase("incremental/fallback-replay");
            self.replay()?;
        }
        self.metrics
            .record_incremental(dirty_count as u64, fallback);
        Ok(())
    }

    /// Phase-1 state for every datum in parallel, then the capacity
    /// replay — the from-scratch solve the deltas patch around.
    fn full_solve(&mut self) -> Result<(), SchedError> {
        let metrics = self.metrics.clone();
        let _t = metrics.phase("incremental/initial-solve");
        let grid = self.grid;
        let nd = self.trace.num_data();
        let ids = datum_ids(nd);
        let trace = &self.trace;
        match &mut self.state {
            MethodState::Scds { medians, ckpts } => {
                *medians = fan_out(self.pool, &ids, MedianState::default, |med, d| {
                    span_median(&grid, trace.span(d), med)
                });
                *ckpts = scds_checkpoints_fit(&grid, nd, self.scds_ckpt_budget).then(|| {
                    let mut pool = PackedMedians::new(&grid, nd);
                    for &d in &ids {
                        for r in trace.span(d) {
                            pool.add(d.index(), r.x, r.y, r.count as u64);
                        }
                    }
                    pool
                });
            }
            MethodState::Lomcds { anchors } => {
                *anchors = fan_out(self.pool, &ids, MedianState::default, |med, d| {
                    span_first_anchor(&grid, trace.span(d), med)
                });
            }
            MethodState::Gomcds { pure, .. } => {
                let cache = &self.cache;
                *pure = fan_out(self.pool, &ids, Workspace::new, |ws, d| {
                    gomcds_path_cached(&grid, cache.datum(d), Solver::DistanceTransform, ws).0
                });
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
        let spec = self.policy.resolve_parts(&grid, nd);
        ensure_feasible(&grid, spec, nd)?;
        let (schedule, spilled) = match &self.state {
            MethodState::Scds { medians, .. } => {
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
                let s = crate::flat::lomcds_on(&self.trace, spec, pool, None, &mut self.ws)?;
                (s, 0)
            }
            MethodState::Lomcds { anchors } => {
                crate::lomcds::replay(grid, nw, spec, &self.cache, anchors, &mut self.ws)?
            }
            MethodState::Gomcds { pure, .. } => {
                let mut replay = GomcdsReplay::new(&grid, nw, spec, Solver::DistanceTransform);
                let centers = pure
                    .iter()
                    .enumerate()
                    .map(|(i, row)| {
                        let d = DataId(i as u32);
                        replay.place_cached(d, Some(row.clone()), self.cache.datum(d), &mut self.ws)
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
        Ok(())
    }
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

/// Whether per-datum SCDS median checkpoints fit the byte budget (one
/// packed histogram block per datum).
fn scds_checkpoints_fit(grid: &Grid, nd: usize, budget: usize) -> bool {
    nd.saturating_mul(PackedMedians::block_bytes(grid)) <= budget
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
        let v = run.version();
        run.incremental(&TraceDelta::new()).unwrap();
        assert_eq!(run.version(), v, "no-op delta must not bump the version");
        let report = metrics.report();
        assert_eq!(report.cache.invalidations, 0);
        assert_eq!(report.incremental.resolves, 1);
        assert_eq!(report.incremental.dirty_data, 0);
        assert_eq!(report.incremental.fallbacks, 0);
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
    fn scds_without_checkpoints_matches() {
        let g = grid();
        let mut run = IncrementalRun::new(
            sample(g),
            Method::Scds,
            MemoryPolicy::Capacity(2),
            Pool::serial(),
        )
        .unwrap();
        run.scds_ckpt_budget = 0;
        run.full_solve().unwrap();
        assert!(matches!(run.state, MethodState::Scds { ckpts: None, .. }));
        let mut delta = TraceDelta::new();
        delta.set_run(DataId(0), 0, [(g.proc_xy(3, 2), 6)]);
        run.incremental(&delta).unwrap();
        assert_parity(&run, "no-checkpoint edit");
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
