//! Editable traces: churn deltas over a [`FlatTrace`] with dirty tracking.
//!
//! The flat CSR layout is immutable by design — one contiguous `refs`
//! array is exactly what makes the big-instance schedulers fast, and
//! exactly what makes in-place edits awkward. [`EditableTrace`] therefore
//! layers a *per-datum overlay* on top of a shared base trace: the base
//! stays behind an `Arc` (so several engines can edit overlays of one
//! loaded trace without copying it), and every edited datum gets a freshly
//! assembled span stored as its own `Arc<[FlatRef]>`. Reads fall through
//! to the base for untouched data, so a 1% churn tick clones 1% of the
//! reference volume and shares the rest.
//!
//! Edits arrive as a [`TraceDelta`] — an ordered list of [`EditOp`]s:
//!
//! * [`EditOp::SetRun`] rewrites one datum's references in one window
//!   (empty = remove the run; a previously empty window = insert one);
//! * [`EditOp::AppendWindow`] grows the trace by one trailing window with
//!   the given reference rows.
//!
//! Applying a delta bumps the trace [version](EditableTrace::version) once
//! per op and maintains a dirty set at per-datum granularity: every datum
//! an op touches (the datum a `SetRun` rewrites, the data an
//! `AppendWindow` references) is listed once, whatever touched it. The
//! incremental scheduling engine drains this set with
//! [`take_dirty`](EditableTrace::take_dirty) and re-solves exactly those
//! data.
//!
//! Overlay spans uphold the `FlatTrace` invariants by construction
//! (window-major `(window, y, x)` order, duplicates aggregated with
//! saturating adds, zero counts kept — byte-for-byte what
//! [`FlatTrace::from_records`] would produce), so
//! [`materialize`](EditableTrace::materialize) can assemble a standalone
//! flat trace by concatenation, without re-sorting. The round trip
//! `apply(delta); materialize()` equals building a fresh trace from the
//! edited records — property-tested below and in `tests/churn_props.rs`.

use crate::flat::{FlatRef, FlatTrace, FlatTraceError};
use crate::ids::DataId;
use pim_array::grid::{Grid, ProcId};
use std::sync::Arc;

/// One edit against an [`EditableTrace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditOp {
    /// Replace datum `datum`'s references in window `window` with `refs`
    /// (processor, count) pairs. An empty list removes the run; duplicate
    /// processors aggregate their counts.
    SetRun {
        /// The datum whose run is rewritten.
        datum: DataId,
        /// The window being rewritten.
        window: u32,
        /// The new references, in any order.
        refs: Vec<(ProcId, u32)>,
    },
    /// Append one window after the current last one, holding the given
    /// `(datum, processor, count)` reference rows (possibly empty).
    AppendWindow {
        /// References inside the new window, in any order.
        rows: Vec<(DataId, ProcId, u32)>,
    },
}

/// An ordered batch of [`EditOp`]s, built fluently and applied atomically
/// (validation happens up front; a bad op leaves the trace untouched).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceDelta {
    ops: Vec<EditOp>,
}

impl TraceDelta {
    /// An empty delta (applying it is a no-op that dirties nothing).
    pub fn new() -> Self {
        TraceDelta::default()
    }

    /// Queue a [`EditOp::SetRun`] rewriting `datum`'s run in `window`.
    pub fn set_run(
        &mut self,
        datum: DataId,
        window: u32,
        refs: impl IntoIterator<Item = (ProcId, u32)>,
    ) -> &mut Self {
        self.ops.push(EditOp::SetRun {
            datum,
            window,
            refs: refs.into_iter().collect(),
        });
        self
    }

    /// Queue a run removal (a [`EditOp::SetRun`] with no references).
    pub fn remove_run(&mut self, datum: DataId, window: u32) -> &mut Self {
        self.set_run(datum, window, [])
    }

    /// Queue a [`EditOp::AppendWindow`] with the given reference rows.
    pub fn append_window(
        &mut self,
        rows: impl IntoIterator<Item = (DataId, ProcId, u32)>,
    ) -> &mut Self {
        self.ops.push(EditOp::AppendWindow {
            rows: rows.into_iter().collect(),
        });
        self
    }

    /// The queued ops, in application order.
    pub fn ops(&self) -> &[EditOp] {
        &self.ops
    }

    /// Whether the delta holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of queued ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Serialize to the JSON document [`TraceDelta::from_json`] accepts:
    ///
    /// ```json
    /// {"version":1,"ops":[
    ///   {"op":"set_run","datum":3,"window":1,"refs":[[5,2],[6,1]]},
    ///   {"op":"append_window","rows":[[0,5,2]]}
    /// ]}
    /// ```
    ///
    /// `refs` pairs are `[processor, count]`, `rows` triples are
    /// `[datum, processor, count]`.
    pub fn to_json(&self) -> String {
        use core::fmt::Write;
        let mut out = String::from("{\"version\":1,\"ops\":[");
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match op {
                EditOp::SetRun {
                    datum,
                    window,
                    refs,
                } => {
                    let _ = write!(
                        out,
                        "{{\"op\":\"set_run\",\"datum\":{},\"window\":{},\"refs\":[",
                        datum.0, window
                    );
                    for (j, (p, n)) in refs.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{},{}]", p.0, n);
                    }
                    out.push_str("]}");
                }
                EditOp::AppendWindow { rows } => {
                    out.push_str("{\"op\":\"append_window\",\"rows\":[");
                    for (j, (d, p, n)) in rows.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{},{},{}]", d.0, p.0, n);
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("]}");
        out
    }

    /// Parse the document produced by [`TraceDelta::to_json`]. Shape
    /// errors (wrong types, unknown keys, id overflow) come back as
    /// [`DeltaJsonError`]; range validation against a concrete trace
    /// happens later in [`EditableTrace::check`].
    pub fn from_json(text: &str) -> Result<TraceDelta, DeltaJsonError> {
        let v = crate::json::parse(text).map_err(DeltaJsonError)?;
        TraceDelta::from_json_value(&v)
    }

    /// [`TraceDelta::from_json`] over an already-parsed [`crate::json::Value`]
    /// (the serve protocol embeds deltas inside request objects).
    pub fn from_json_value(v: &crate::json::Value) -> Result<TraceDelta, DeltaJsonError> {
        let err = |msg: &str| DeltaJsonError(msg.to_string());
        let narrow = |v: u64, what: &str| {
            u32::try_from(v).map_err(|_| DeltaJsonError(format!("{what} {v} overflows u32")))
        };
        let obj = v.as_obj().ok_or_else(|| err("delta must be an object"))?;
        let mut version = None;
        let mut ops: Option<Vec<EditOp>> = None;
        for (k, val) in obj {
            match k.as_str() {
                "version" => version = Some(val.as_u64().ok_or_else(|| err("version"))?),
                "ops" => {
                    let arr = val.as_arr().ok_or_else(|| err("ops must be an array"))?;
                    let mut out = Vec::with_capacity(arr.len());
                    for opv in arr {
                        let op = opv.as_obj().ok_or_else(|| err("op must be an object"))?;
                        let kind = opv
                            .get("op")
                            .and_then(crate::json::Value::as_str)
                            .ok_or_else(|| err("op missing \"op\" kind"))?;
                        match kind {
                            "set_run" => {
                                let mut datum = None;
                                let mut window = None;
                                let mut refs = None;
                                for (k, val) in op {
                                    match k.as_str() {
                                        "op" => {}
                                        "datum" => {
                                            datum = Some(narrow(
                                                val.as_u64().ok_or_else(|| err("datum"))?,
                                                "datum",
                                            )?)
                                        }
                                        "window" => {
                                            window = Some(narrow(
                                                val.as_u64().ok_or_else(|| err("window"))?,
                                                "window",
                                            )?)
                                        }
                                        "refs" => {
                                            let arr = val
                                                .as_arr()
                                                .ok_or_else(|| err("refs must be an array"))?;
                                            let mut rs = Vec::with_capacity(arr.len());
                                            for rv in arr {
                                                let pair = rv
                                                    .as_arr()
                                                    .filter(|p| p.len() == 2)
                                                    .ok_or_else(|| {
                                                        err("ref must be a [proc, count] pair")
                                                    })?;
                                                let p = pair[0]
                                                    .as_u64()
                                                    .ok_or_else(|| err("ref proc"))?;
                                                let n = pair[1]
                                                    .as_u64()
                                                    .ok_or_else(|| err("ref count"))?;
                                                rs.push((
                                                    ProcId(narrow(p, "proc")?),
                                                    narrow(n, "count")?,
                                                ));
                                            }
                                            refs = Some(rs);
                                        }
                                        other => {
                                            return Err(DeltaJsonError(format!(
                                                "unknown set_run key {other:?}"
                                            )))
                                        }
                                    }
                                }
                                out.push(EditOp::SetRun {
                                    datum: DataId(
                                        datum.ok_or_else(|| err("set_run missing datum"))?,
                                    ),
                                    window: window.ok_or_else(|| err("set_run missing window"))?,
                                    refs: refs.ok_or_else(|| err("set_run missing refs"))?,
                                });
                            }
                            "append_window" => {
                                let mut rows = None;
                                for (k, val) in op {
                                    match k.as_str() {
                                        "op" => {}
                                        "rows" => {
                                            let arr = val
                                                .as_arr()
                                                .ok_or_else(|| err("rows must be an array"))?;
                                            let mut rs = Vec::with_capacity(arr.len());
                                            for rv in arr {
                                                let t = rv
                                                    .as_arr()
                                                    .filter(|t| t.len() == 3)
                                                    .ok_or_else(|| {
                                                        err("row must be a [datum, proc, count] triple")
                                                    })?;
                                                let d = t[0]
                                                    .as_u64()
                                                    .ok_or_else(|| err("row datum"))?;
                                                let p =
                                                    t[1].as_u64().ok_or_else(|| err("row proc"))?;
                                                let n = t[2]
                                                    .as_u64()
                                                    .ok_or_else(|| err("row count"))?;
                                                rs.push((
                                                    DataId(narrow(d, "datum")?),
                                                    ProcId(narrow(p, "proc")?),
                                                    narrow(n, "count")?,
                                                ));
                                            }
                                            rows = Some(rs);
                                        }
                                        other => {
                                            return Err(DeltaJsonError(format!(
                                                "unknown append_window key {other:?}"
                                            )))
                                        }
                                    }
                                }
                                out.push(EditOp::AppendWindow {
                                    rows: rows.ok_or_else(|| err("append_window missing rows"))?,
                                });
                            }
                            other => {
                                return Err(DeltaJsonError(format!("unknown op kind {other:?}")))
                            }
                        }
                    }
                    ops = Some(out);
                }
                other => return Err(DeltaJsonError(format!("unknown delta key {other:?}"))),
            }
        }
        match version {
            Some(1) => {}
            Some(v) => return Err(DeltaJsonError(format!("unsupported delta version {v}"))),
            None => return Err(err("missing version")),
        }
        Ok(TraceDelta {
            ops: ops.ok_or_else(|| err("missing ops"))?,
        })
    }
}

/// A [`TraceDelta`] JSON document failed to parse or had the wrong shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaJsonError(pub String);

impl core::fmt::Display for DeltaJsonError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "bad delta JSON: {}", self.0)
    }
}

impl std::error::Error for DeltaJsonError {}

/// Everything that changed since the last [`EditableTrace::take_dirty`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtySummary {
    /// Touched data in first-touched order, each listed once.
    pub data: Vec<DataId>,
    /// Windows appended since the last drain.
    pub appended_windows: usize,
    /// The window count before those appends (clean data's spans are
    /// untouched up to here).
    pub old_num_windows: usize,
}

impl DirtySummary {
    /// Whether nothing changed.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty() && self.appended_windows == 0
    }
}

/// A [`FlatTrace`] plus an overlay of edited per-datum spans, dirty
/// tracking, and a monotonically increasing version (see module docs).
#[derive(Debug, Clone)]
pub struct EditableTrace {
    base: Arc<FlatTrace>,
    /// `overrides[d]` shadows the base span of datum `d` when set.
    overrides: Vec<Option<Arc<[FlatRef]>>>,
    num_windows: usize,
    version: u64,
    /// `listed[d]`: whether datum `d` is in `dirty_order`.
    listed: Vec<bool>,
    /// Dirty data in first-touched order (unique).
    dirty_order: Vec<DataId>,
    appended_since_drain: usize,
    windows_at_drain: usize,
    /// Reusable buffers for [`set_run_unchecked`](Self::apply_op): churn
    /// applies thousands of single-run rewrites per tick, and building
    /// each new span in a scratch that survives across ops halves the
    /// allocations on that hot path.
    run_scratch: Vec<FlatRef>,
    span_scratch: Vec<FlatRef>,
}

impl EditableTrace {
    /// Wrap a flat trace for editing. The base moves behind an `Arc` so
    /// readers (cost caches, scratch solvers) can share it.
    pub fn new(base: FlatTrace) -> EditableTrace {
        EditableTrace::from_arc(Arc::new(base))
    }

    /// Wrap an already-shared flat trace for editing.
    pub fn from_arc(base: Arc<FlatTrace>) -> EditableTrace {
        let nd = base.num_data();
        let nw = base.num_windows();
        EditableTrace {
            base,
            overrides: vec![None; nd],
            num_windows: nw,
            version: 0,
            listed: vec![false; nd],
            dirty_order: Vec::new(),
            appended_since_drain: 0,
            windows_at_drain: nw,
            run_scratch: Vec::new(),
            span_scratch: Vec::new(),
        }
    }

    /// The processor grid.
    #[inline]
    pub fn grid(&self) -> Grid {
        self.base.grid()
    }

    /// Number of data items (fixed; edits never add data).
    #[inline]
    pub fn num_data(&self) -> usize {
        self.overrides.len()
    }

    /// Number of execution windows (grows under [`EditOp::AppendWindow`]).
    #[inline]
    pub fn num_windows(&self) -> usize {
        self.num_windows
    }

    /// Edit counter: bumped once per applied op, never by reads.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The shared base trace (reference strings as of construction).
    pub fn base(&self) -> &Arc<FlatTrace> {
        &self.base
    }

    /// Datum `d`'s current reference run, window-major (overlay if edited,
    /// base otherwise).
    #[inline]
    pub fn span(&self, d: DataId) -> &[FlatRef] {
        match &self.overrides[d.index()] {
            Some(span) => span,
            None => self.base.span(d),
        }
    }

    /// Hint the CPU to pull the head of datum `d`'s span into cache —
    /// a one-op lookahead in an edit loop overlaps the DRAM latency of
    /// the next random span with the current op's work. No-op on
    /// non-x86_64 targets.
    #[inline]
    fn prefetch_span(&self, d: DataId) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: prefetch reads nothing and faults on nothing; the
        // wrapping pointer math never asserts in-bounds provenance.
        unsafe {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            if let Some(first) = self.span(d).first() {
                let p = first as *const FlatRef as *const i8;
                _mm_prefetch(p, _MM_HINT_T0);
                _mm_prefetch(p.wrapping_add(64), _MM_HINT_T0);
                _mm_prefetch(p.wrapping_add(128), _MM_HINT_T0);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = d;
    }

    /// Datum `d`'s current references in window `w` (possibly empty).
    pub fn window_run(&self, d: DataId, w: usize) -> &[FlatRef] {
        let span = self.span(d);
        let lo = span.partition_point(|r| (r.window as usize) < w);
        let hi = span.partition_point(|r| (r.window as usize) <= w);
        &span[lo..hi]
    }

    /// Whether any edits are pending a [`take_dirty`](Self::take_dirty).
    pub fn is_dirty(&self) -> bool {
        !self.dirty_order.is_empty() || self.appended_since_drain > 0
    }

    /// Drain the dirty set, resetting all tracking to clean.
    pub fn take_dirty(&mut self) -> DirtySummary {
        let data = std::mem::take(&mut self.dirty_order);
        for d in &data {
            self.listed[d.index()] = false;
        }
        let summary = DirtySummary {
            data,
            appended_windows: self.appended_since_drain,
            old_num_windows: self.windows_at_drain,
        };
        self.appended_since_drain = 0;
        self.windows_at_drain = self.num_windows;
        summary
    }

    /// Validate a delta against the current trace without applying it.
    /// Window bounds account for windows the delta itself appends.
    pub fn check(&self, delta: &TraceDelta) -> Result<(), FlatTraceError> {
        let mut nw = self.num_windows;
        for op in delta.ops() {
            self.check_op(op, &mut nw)?;
        }
        Ok(())
    }

    /// Validate one op against the current trace, with `nw` the live
    /// window count (bumped in place on appends so a batch caller sees
    /// windows earlier ops in the same delta added).
    fn check_op(&self, op: &EditOp, nw: &mut usize) -> Result<(), FlatTraceError> {
        let grid = self.grid();
        let nd = self.num_data();
        let check_datum = |d: DataId| -> Result<(), FlatTraceError> {
            if d.index() >= nd {
                return Err(FlatTraceError::DatumOutOfRange {
                    datum: d.0,
                    num_data: nd,
                });
            }
            Ok(())
        };
        let check_proc = |p: ProcId| -> Result<(), FlatTraceError> {
            if p.index() >= grid.num_procs() {
                return Err(FlatTraceError::ProcOutOfRange {
                    proc: p.0,
                    num_procs: grid.num_procs(),
                });
            }
            Ok(())
        };
        match op {
            EditOp::SetRun {
                datum,
                window,
                refs,
            } => {
                check_datum(*datum)?;
                if *window as usize >= *nw {
                    return Err(FlatTraceError::WindowOutOfRange {
                        window: *window,
                        num_windows: *nw,
                    });
                }
                for &(p, _) in refs {
                    check_proc(p)?;
                }
            }
            EditOp::AppendWindow { rows } => {
                for &(d, p, _) in rows {
                    check_datum(d)?;
                    check_proc(p)?;
                }
                *nw += 1;
            }
        }
        Ok(())
    }

    /// Apply a whole delta atomically: every op is validated first, so an
    /// invalid delta leaves the trace (and its version) untouched.
    pub fn apply(&mut self, delta: &TraceDelta) -> Result<(), FlatTraceError> {
        self.check(delta)?;
        let ops = delta.ops();
        for (i, op) in ops.iter().enumerate() {
            // One-op lookahead: start pulling the next rewritten span
            // toward cache so its DRAM latency overlaps this op's work
            // (churn edits land on random data, so every tick begins cold).
            if let Some(EditOp::SetRun { datum, .. }) = ops.get(i + 1) {
                self.prefetch_span(*datum);
            }
            self.apply_op(op);
        }
        Ok(())
    }

    /// Apply one op [`check`](Self::check) has validated.
    fn apply_op(&mut self, op: &EditOp) {
        match op {
            EditOp::SetRun {
                datum,
                window,
                refs,
            } => self.set_run_unchecked(*datum, *window, refs),
            EditOp::AppendWindow { rows } => self.append_window_unchecked(rows),
        }
        self.version += 1;
    }

    fn mark(&mut self, d: DataId) {
        if !std::mem::replace(&mut self.listed[d.index()], true) {
            self.dirty_order.push(d);
        }
    }

    fn set_run_unchecked(&mut self, d: DataId, w: u32, refs: &[(ProcId, u32)]) {
        let grid = self.grid();
        let mut run = std::mem::take(&mut self.run_scratch);
        let mut next = std::mem::take(&mut self.span_scratch);
        aggregate_run_into(&grid, w, refs, &mut run);
        let span = self.span(d);
        let lo = span.partition_point(|r| r.window < w);
        let hi = span.partition_point(|r| r.window <= w);
        next.clear();
        next.reserve(span.len() - (hi - lo) + run.len());
        next.extend_from_slice(&span[..lo]);
        next.extend_from_slice(&run);
        next.extend_from_slice(&span[hi..]);
        self.overrides[d.index()] = Some(Arc::from(&next[..]));
        self.run_scratch = run;
        self.span_scratch = next;
        self.mark(d);
    }

    fn append_window_unchecked(&mut self, rows: &[(DataId, ProcId, u32)]) {
        let grid = self.grid();
        let w = self.num_windows as u32;
        self.num_windows += 1;
        self.appended_since_drain += 1;
        // Canonicalize rows exactly as `from_records` would: sort by
        // (datum, y, x), aggregate duplicates with saturating adds.
        let mut tagged: Vec<(u32, FlatRef)> = rows
            .iter()
            .map(|&(d, p, c)| {
                let pt = grid.point_of(p);
                (
                    d.0,
                    FlatRef {
                        window: w,
                        x: pt.x,
                        y: pt.y,
                        count: c,
                    },
                )
            })
            .collect();
        tagged.sort_unstable_by_key(|&(d, r)| (d, r.y, r.x));
        let mut i = 0;
        while i < tagged.len() {
            let d = tagged[i].0;
            let mut run: Vec<FlatRef> = Vec::new();
            while i < tagged.len() && tagged[i].0 == d {
                let r = tagged[i].1;
                match run.last_mut() {
                    Some(last) if last.y == r.y && last.x == r.x => {
                        last.count = last.count.saturating_add(r.count);
                    }
                    _ => run.push(r),
                }
                i += 1;
            }
            let datum = DataId(d);
            let span = self.span(datum);
            let mut next = Vec::with_capacity(span.len() + run.len());
            next.extend_from_slice(span);
            next.extend_from_slice(&run);
            self.overrides[datum.index()] = Some(Arc::from(next));
            self.mark(datum);
        }
    }

    /// Assemble a standalone [`FlatTrace`] of the current contents. The
    /// overlay spans are already canonical, so this is pure concatenation —
    /// `O(total refs)`, no sorting.
    pub fn materialize(&self) -> FlatTrace {
        let nd = self.num_data();
        let mut offsets = Vec::with_capacity(nd + 1);
        offsets.push(0usize);
        let total: usize = (0..nd).map(|d| self.span(DataId(d as u32)).len()).sum();
        let mut refs = Vec::with_capacity(total);
        for d in 0..nd {
            refs.extend_from_slice(self.span(DataId(d as u32)));
            offsets.push(refs.len());
        }
        FlatTrace::from_sorted_parts(self.grid(), self.num_windows, offsets, refs)
    }
}

/// Canonicalize one window's (processor, count) pairs into a sorted,
/// aggregated run of [`FlatRef`]s — the same normal form
/// [`FlatTrace::from_records`] produces (zero counts kept) — written
/// into `run` (cleared first) so hot callers can reuse the buffer.
fn aggregate_run_into(grid: &Grid, w: u32, refs: &[(ProcId, u32)], run: &mut Vec<FlatRef>) {
    run.clear();
    run.extend(refs.iter().map(|&(p, c)| {
        let pt = grid.point_of(p);
        FlatRef {
            window: w,
            x: pt.x,
            y: pt.y,
            count: c,
        }
    }));
    run.sort_unstable_by_key(|r| (r.y, r.x));
    run.dedup_by(|b, a| {
        if a.y == b.y && a.x == b.x {
            a.count = a.count.saturating_add(b.count);
            true
        } else {
            false
        }
    });
}

// The live trace is a CSR view like any other (the base span or its
// overlay per datum), so the flat schedulers drive it directly.
impl crate::flat::FlatView for EditableTrace {
    fn grid(&self) -> Grid {
        EditableTrace::grid(self)
    }
    fn num_windows(&self) -> usize {
        EditableTrace::num_windows(self)
    }
    fn num_data(&self) -> usize {
        EditableTrace::num_data(self)
    }
    fn num_refs(&self) -> usize {
        (0..self.num_data())
            .map(|d| self.span(DataId(d as u32)).len())
            .sum()
    }
    fn span(&self, d: DataId) -> &[FlatRef] {
        EditableTrace::span(self, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatRecord;

    fn base_trace() -> FlatTrace {
        let grid = Grid::new(4, 3);
        let rec = |d: u32, w: u32, p: u32, c: u32| FlatRecord {
            datum: DataId(d),
            window: w,
            proc: ProcId(p),
            count: c,
        };
        FlatTrace::from_records(
            grid,
            3,
            3,
            vec![
                rec(0, 0, 0, 3),
                rec(0, 0, 11, 1),
                rec(0, 2, 6, 5),
                rec(1, 1, 9, 2),
            ],
        )
        .unwrap()
    }

    #[test]
    fn set_run_rewrites_only_the_target_window() {
        let mut t = EditableTrace::new(base_trace());
        let mut delta = TraceDelta::new();
        delta.set_run(DataId(0), 0, [(ProcId(5), 7)]);
        t.apply(&delta).unwrap();
        assert_eq!(t.version(), 1);
        assert_eq!(t.window_run(DataId(0), 0).len(), 1);
        assert_eq!(t.window_run(DataId(0), 0)[0].count, 7);
        // window 2 untouched, datum 1 untouched (still reads the base)
        assert_eq!(t.window_run(DataId(0), 2)[0].count, 5);
        assert!(std::ptr::eq(t.span(DataId(1)), t.base().span(DataId(1))));
        let dirty = t.take_dirty();
        assert_eq!(dirty.data, vec![DataId(0)]);
        assert_eq!(dirty.appended_windows, 0);
        assert!(!t.is_dirty());
    }

    #[test]
    fn remove_and_insert_runs() {
        let mut t = EditableTrace::new(base_trace());
        let mut delta = TraceDelta::new();
        delta.remove_run(DataId(0), 0);
        delta.set_run(DataId(2), 1, [(ProcId(3), 4)]); // previously empty
        t.apply(&delta).unwrap();
        assert!(t.window_run(DataId(0), 0).is_empty());
        assert_eq!(t.window_run(DataId(2), 1)[0].count, 4);
        assert_eq!(t.version(), 2);
    }

    #[test]
    fn append_window_marks_only_referenced_data() {
        let mut t = EditableTrace::new(base_trace());
        let mut delta = TraceDelta::new();
        delta.append_window([(DataId(1), ProcId(2), 1), (DataId(1), ProcId(2), 2)]);
        t.apply(&delta).unwrap();
        assert_eq!(t.num_windows(), 4);
        let run = t.window_run(DataId(1), 3);
        assert_eq!(run.len(), 1);
        assert_eq!(run[0].count, 3); // duplicate rows aggregated
        let dirty = t.take_dirty();
        assert_eq!(dirty.data, vec![DataId(1)]);
        assert_eq!(dirty.appended_windows, 1);
        assert_eq!(dirty.old_num_windows, 3);
    }

    /// A datum both appended to and rewritten in one drain is listed once.
    #[test]
    fn rewritten_wins_over_appended() {
        let mut t = EditableTrace::new(base_trace());
        let mut delta = TraceDelta::new();
        delta.append_window([(DataId(0), ProcId(1), 1)]);
        delta.set_run(DataId(0), 0, [(ProcId(1), 1)]);
        delta.set_run(DataId(2), 1, [(ProcId(3), 2)]);
        t.apply(&delta).unwrap();
        let dirty = t.take_dirty();
        assert_eq!(dirty.data, vec![DataId(0), DataId(2)]);
        assert_eq!(dirty.appended_windows, 1);
        // A drain resets every flag, so a later edit lists its datum again.
        let mut again = TraceDelta::new();
        again.set_run(DataId(2), 0, [(ProcId(4), 1)]);
        t.apply(&again).unwrap();
        assert_eq!(t.take_dirty().data, vec![DataId(2)]);
    }

    #[test]
    fn set_run_may_target_a_window_the_delta_appends() {
        let mut t = EditableTrace::new(base_trace());
        let mut delta = TraceDelta::new();
        delta.append_window([]);
        delta.set_run(DataId(2), 3, [(ProcId(0), 9)]);
        t.apply(&delta).unwrap();
        assert_eq!(t.window_run(DataId(2), 3)[0].count, 9);
    }

    #[test]
    fn invalid_deltas_leave_the_trace_untouched() {
        let mut t = EditableTrace::new(base_trace());
        let mut delta = TraceDelta::new();
        delta.set_run(DataId(0), 0, [(ProcId(1), 1)]);
        delta.set_run(DataId(0), 99, [(ProcId(1), 1)]); // out of range
        assert!(matches!(
            t.apply(&delta),
            Err(FlatTraceError::WindowOutOfRange { window: 99, .. })
        ));
        assert_eq!(t.version(), 0);
        assert!(!t.is_dirty());
        assert_eq!(t.window_run(DataId(0), 0).len(), 2);

        let mut bad_datum = TraceDelta::new();
        bad_datum.set_run(DataId(7), 0, []);
        assert!(matches!(
            t.apply(&bad_datum),
            Err(FlatTraceError::DatumOutOfRange { datum: 7, .. })
        ));
        let mut bad_proc = TraceDelta::new();
        bad_proc.append_window([(DataId(0), ProcId(99), 1)]);
        assert!(matches!(
            t.apply(&bad_proc),
            Err(FlatTraceError::ProcOutOfRange { proc: 99, .. })
        ));
        assert_eq!(t.num_windows(), 3);
    }

    #[test]
    fn empty_delta_is_a_clean_no_op() {
        let mut t = EditableTrace::new(base_trace());
        t.apply(&TraceDelta::new()).unwrap();
        assert_eq!(t.version(), 0);
        assert!(!t.is_dirty());
        assert_eq!(t.materialize(), base_trace());
    }

    #[test]
    fn materialize_matches_from_records_oracle() {
        let mut t = EditableTrace::new(base_trace());
        let mut delta = TraceDelta::new();
        delta.set_run(
            DataId(0),
            0,
            [(ProcId(7), 2), (ProcId(1), 1), (ProcId(7), 3)],
        );
        delta.append_window([(DataId(2), ProcId(0), 1)]);
        t.apply(&delta).unwrap();

        // Oracle: rebuild from the edited record set from scratch.
        let grid = t.grid();
        let mut records = Vec::new();
        for d in 0..t.num_data() {
            for r in t.span(DataId(d as u32)) {
                records.push(FlatRecord {
                    datum: DataId(d as u32),
                    window: r.window,
                    proc: grid.proc_xy(r.x, r.y),
                    count: r.count,
                });
            }
        }
        let oracle = FlatTrace::from_records(grid, t.num_windows(), t.num_data(), records).unwrap();
        assert_eq!(t.materialize(), oracle);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Small base traces built from raw records (degenerate corners
        /// included: empty data, single window).
        fn arb_base() -> impl Strategy<Value = FlatTrace> {
            (2u32..5, 2u32..5, 1usize..4, 1usize..5).prop_flat_map(|(wd, ht, nw, nd)| {
                let grid = Grid::new(wd, ht);
                let m = grid.num_procs() as u32;
                proptest::collection::vec((0..nd as u32, 0..nw as u32, 0..m, 0u32..6), 0..12)
                    .prop_map(move |rows| {
                        FlatTrace::from_records(
                            grid,
                            nw,
                            nd,
                            rows.into_iter().map(|(d, w, p, c)| FlatRecord {
                                datum: DataId(d),
                                window: w,
                                proc: ProcId(p),
                                count: c,
                            }),
                        )
                        .expect("generated records are in range")
                    })
            })
        }

        /// Random deltas against a trace of `nd` data, `nw` windows, `m`
        /// procs. Ops may repeat a datum (duplicate-datum edits), rewrite
        /// every datum (full-trace deltas), set zero counts, and append.
        fn arb_delta(nd: u32, nw: u32, m: u32) -> impl Strategy<Value = TraceDelta> {
            let set_run = (
                0..nd,
                0..nw,
                proptest::collection::vec((0..m, 0u32..5), 0..3),
            )
                .prop_map(|(d, w, refs)| EditOp::SetRun {
                    datum: DataId(d),
                    window: w,
                    refs: refs.into_iter().map(|(p, c)| (ProcId(p), c)).collect(),
                });
            let append = proptest::collection::vec((0..nd, 0..m, 1u32..5), 0..4).prop_map(|rows| {
                EditOp::AppendWindow {
                    rows: rows
                        .into_iter()
                        .map(|(d, p, c)| (DataId(d), ProcId(p), c))
                        .collect(),
                }
            });
            proptest::collection::vec(prop_oneof![set_run, append], 0..6)
                .prop_map(|ops| TraceDelta { ops })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// apply(delta); materialize() == from_records(edited records):
            /// the overlay's normal form is exactly `from_records`'s.
            #[test]
            fn edited_traces_round_trip_through_records(
                (base, delta) in arb_base().prop_flat_map(|base| {
                    let nd = base.num_data() as u32;
                    let nw = base.num_windows() as u32;
                    let m = base.grid().num_procs() as u32;
                    arb_delta(nd, nw, m).prop_map(move |d| (base.clone(), d))
                })
            ) {
                let mut t = EditableTrace::new(base);
                t.apply(&delta).unwrap();
                let grid = t.grid();
                let mut records = Vec::new();
                for d in 0..t.num_data() {
                    for r in t.span(DataId(d as u32)) {
                        records.push(FlatRecord {
                            datum: DataId(d as u32),
                            window: r.window,
                            proc: grid.proc_xy(r.x, r.y),
                            count: r.count,
                        });
                    }
                }
                let oracle = FlatTrace::from_records(
                    grid,
                    t.num_windows(),
                    t.num_data(),
                    records,
                )
                .expect("edited records stay in range");
                prop_assert_eq!(t.materialize(), oracle);
            }

            /// Dirty tracking: exactly the edited data are reported, and a
            /// drained trace is clean.
            #[test]
            fn dirty_set_is_exactly_the_touched_data(
                (base, delta) in arb_base().prop_flat_map(|base| {
                    let nd = base.num_data() as u32;
                    let nw = base.num_windows() as u32;
                    let m = base.grid().num_procs() as u32;
                    arb_delta(nd, nw, m).prop_map(move |d| (base.clone(), d))
                })
            ) {
                let mut t = EditableTrace::new(base);
                t.apply(&delta).unwrap();
                let mut expect: Vec<u32> = Vec::new();
                for op in delta.ops() {
                    match op {
                        EditOp::SetRun { datum, .. } => {
                            if !expect.contains(&datum.0) { expect.push(datum.0); }
                        }
                        EditOp::AppendWindow { rows } => {
                            for &(d, _, _) in rows {
                                if !expect.contains(&d.0) { expect.push(d.0); }
                            }
                        }
                    }
                }
                let dirty = t.take_dirty();
                let mut got: Vec<u32> = dirty.data.iter().map(|d| d.0).collect();
                got.sort_unstable();
                expect.sort_unstable();
                prop_assert_eq!(got, expect);
                prop_assert!(!t.is_dirty());
                prop_assert_eq!(t.version(), delta.len() as u64);
            }
        }
    }
    #[test]
    fn delta_json_round_trips() {
        let mut d = TraceDelta::new();
        d.set_run(DataId(3), 1, [(ProcId(5), 2), (ProcId(6), 1)])
            .remove_run(DataId(0), 0)
            .append_window([(DataId(1), ProcId(2), 7)])
            .append_window([]);
        let text = d.to_json();
        let back = TraceDelta::from_json(&text).unwrap();
        assert_eq!(back, d);
        let empty = TraceDelta::new();
        assert_eq!(TraceDelta::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn delta_json_rejects_malformed_input() {
        for bad in [
            "",
            "[]",
            "{\"version\":2,\"ops\":[]}",
            "{\"ops\":[]}",
            "{\"version\":1}",
            "{\"version\":1,\"ops\":[{}]}",
            "{\"version\":1,\"ops\":[{\"op\":\"bogus\"}]}",
            "{\"version\":1,\"ops\":[{\"op\":\"set_run\",\"datum\":0,\"window\":0}]}",
            "{\"version\":1,\"ops\":[{\"op\":\"set_run\",\"datum\":0,\"window\":0,\"refs\":[[1]]}]}",
            "{\"version\":1,\"ops\":[{\"op\":\"append_window\",\"rows\":[[1,2]]}]}",
            "{\"version\":1,\"ops\":[],\"bogus\":3}",
            "{\"version\":1,\"ops\":[{\"op\":\"set_run\",\"datum\":4294967296,\"window\":0,\"refs\":[]}]}",
        ] {
            assert!(TraceDelta::from_json(bad).is_err(), "accepted: {bad}");
        }
    }
}
