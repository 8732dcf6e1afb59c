//! Shared per-trace cost-table cache.
//!
//! Every scheduler keeps re-deriving the same quantity from the raw
//! reference strings: the axis-projected reference weights of a window
//! *range*. SCDS needs them for the merged whole execution, LOMCDS per
//! window, GOMCDS per window twice (DP forward pass and backtrack), and
//! grouping for `O(n)` different candidate ranges per greedy step. Each
//! derivation walks the `(proc, count)` lists again.
//!
//! Because the L1 cost table is separable (see [`crate::cost`]) and the
//! axis projection is *linear* in the reference counts, the projections of
//! a window range are just differences of per-window prefix sums. A
//! [`DatumCostCache`] can therefore store, per datum:
//!
//! ```text
//! px[w][x] = Σ_{w' < w} Σ_{refs in window w' at column x} count
//! py[w][y] = …same for rows…
//! vol[w]   = Σ_{w' < w} total volume of window w'
//! ```
//!
//! built in one `O(nw·(width+height) + total refs)` pass. Afterwards the
//! cost table of *any* window range `lo..hi` costs
//! `O(width + height + m)` — independent of how many references the range
//! holds — via two subtractions per axis slot and the standard two-sweep
//! `axis_costs` recurrence in [`crate::cost`].
//!
//! The prefix tables are built **lazily, on a query that needs them**.
//! Whole-execution queries are always served by projecting the raw
//! references directly — exactly one pass over the refs involved, which is
//! never more work than the prefix build itself — so SCDS (one full table
//! per datum) pays nothing for tables it would never amortize. A *strict
//! multi-window sub-range* query — the shape Algorithm 3 grouping issues
//! `O(n)` times per datum — triggers the one-time prefix build immediately.
//! Single-window queries are served raw until the datum has answered more
//! of them than one full window sweep could issue
//! (`num_windows + SINGLE_WINDOW_SWEEP_SLACK`); the next one triggers
//! the build. The point: a window-sweeping scheduler (LOMCDS, GOMCDS)
//! reads each window exactly once, so across the whole sweep the raw path
//! walks every reference exactly once — the same total work as the prefix
//! build itself, minus the build's row copies and allocations. Building
//! mid-sweep can therefore only lose (measurably so on the paper table's
//! sparse instances). Only a *re-scan* — more single-window queries than
//! windows, as issued by iterated refinement or repeated capacity replays
//! — amortizes the build, and that is exactly when it fires. The slack
//! keeps one extra probe (e.g. LOMCDS' first-anchor lookup before its
//! sweep) build-free.
//!
//! The arithmetic is identical either way: axis weights are sums of `u64`
//! counts (associative and exact), so raw projection, prefix subtraction,
//! and [`crate::cost::cost_table`] on the merged range all produce
//! bit-identical tables (property-tested in `tests/cache_equivalence.rs`).
//!
//! Laziness also parallelizes for free: [`DatumCostCache`] guards its
//! tables with a [`OnceLock`], so when a worker pool partitions data
//! across threads (see [`crate::context::SchedContext::pool`]),
//! each datum's tables are built on the worker that first needs them —
//! the build runs on the pool without any coordination. [`CostCache::warm`]
//! forces the same build eagerly across a pool when a caller wants the
//! cost out of the measured region.

use crate::cost::{argmin_table, AxisScratch};
use pim_array::grid::{Grid, ProcId};
use pim_metrics::CacheStats;
use pim_trace::flat::{FlatRef, FlatTrace};
use pim_trace::ids::DataId;
use pim_trace::window::{DataRefString, WindowedTrace};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

/// Extra raw single-window serves allowed beyond one per window before a
/// single-window query triggers the prefix build (see the module docs for
/// the rationale): a datum builds its tables on single-window query
/// `num_windows + SINGLE_WINDOW_SWEEP_SLACK + 1`.
const SINGLE_WINDOW_SWEEP_SLACK: u32 = 1;

/// Where a datum's raw references live: the nested per-window
/// representation, one contiguous window-major slice of a [`FlatTrace`],
/// or a shared (`Arc`-owned) flat source that outlives any borrow — the
/// form the incremental engine uses so it can rebind a datum's span after
/// an edit without the cache borrowing the trace. All orderings iterate
/// references identically (window-major, ascending processor id) and all
/// served quantities are exact `u64` sums, so the backing choice can never
/// change a table bit.
#[derive(Debug, Clone)]
enum RefSource<'r> {
    /// Nested per-window reference string.
    Windowed(&'r DataRefString),
    /// One datum's span of a [`FlatTrace`], sorted by (window, proc).
    Flat(&'r [FlatRef]),
    /// One datum of a shared flat trace (span looked up per query).
    SharedTrace(Arc<FlatTrace>, DataId),
    /// A shared standalone span in [`FlatTrace`] canonical order (the
    /// overlay form `pim_trace::edit::EditableTrace` produces).
    SharedSpan(Arc<[FlatRef]>),
}

impl RefSource<'_> {
    /// The window-major flat slice behind every non-`Windowed` variant.
    fn flat(&self) -> Option<&[FlatRef]> {
        match self {
            RefSource::Windowed(_) => None,
            RefSource::Flat(refs) => Some(refs),
            RefSource::SharedTrace(trace, d) => Some(trace.span(*d)),
            RefSource::SharedSpan(refs) => Some(refs),
        }
    }
}

/// The axis-weight prefix sums of one datum, built lazily on first use.
#[derive(Debug, Clone)]
struct PrefixTables {
    /// `(nw+1) × width` row-major prefix sums of x-projected weights.
    px: Vec<u64>,
    /// `(nw+1) × height` row-major prefix sums of y-projected weights.
    py: Vec<u64>,
    /// `nw+1` prefix sums of window volumes.
    vol: Vec<u64>,
}

/// Cached axis projections of one datum's reference string: cheap raw
/// projection for one-shot queries, lazily built prefix sums for
/// arbitrary sub-ranges and repeated window sweeps.
#[derive(Debug)]
pub struct DatumCostCache<'r> {
    grid: Grid,
    num_windows: usize,
    src: RefSource<'r>,
    tables: OnceLock<PrefixTables>,
    /// Count of raw-served single-window queries, driving the build
    /// trigger past `num_windows +` [`SINGLE_WINDOW_SWEEP_SLACK`]. Atomic
    /// because caches are queried concurrently from worker pools; the count only
    /// decides *when* tables appear, never what they contain, so relaxed
    /// racing cannot change a served bit.
    raw_singles: AtomicU32,
    /// Observability counters shared with a [`pim_metrics::Metrics`] sink;
    /// `None` (the default) skips counting entirely. Counting never feeds
    /// back into any served table, so metrics cannot change a schedule.
    stats: Option<Arc<CacheStats>>,
}

impl Clone for DatumCostCache<'_> {
    fn clone(&self) -> Self {
        DatumCostCache {
            grid: self.grid,
            num_windows: self.num_windows,
            src: self.src.clone(),
            tables: self.tables.clone(),
            raw_singles: AtomicU32::new(self.raw_singles.load(Ordering::Relaxed)),
            stats: self.stats.clone(),
        }
    }
}

impl<'r> DatumCostCache<'r> {
    /// Wrap one datum's reference string. `O(1)` — no tables are built
    /// until a query needs them (see the module docs for which do).
    pub fn build(grid: &Grid, rs: &'r DataRefString) -> Self {
        Self::from_source(grid, RefSource::Windowed(rs), rs.num_windows())
    }

    /// Wrap one datum's span of a [`FlatTrace`] (window-major, ascending
    /// processor order — the layout [`FlatTrace`] guarantees). Serves the
    /// exact same tables as [`DatumCostCache::build`] on the equivalent
    /// nested string.
    pub fn build_flat(grid: &Grid, refs: &'r [FlatRef], num_windows: usize) -> Self {
        Self::from_source(grid, RefSource::Flat(refs), num_windows)
    }

    /// Wrap one datum of a shared flat trace. Borrow-free (`'static`):
    /// the cache co-owns the trace, so a caller holding the same `Arc`
    /// may keep editing an overlay beside it — the form the incremental
    /// engine builds its initial cache in.
    pub fn build_shared_trace(grid: &Grid, trace: Arc<FlatTrace>, d: DataId) -> DatumCostCache<'r> {
        let nw = trace.num_windows();
        Self::from_source(grid, RefSource::SharedTrace(trace, d), nw)
    }

    /// Wrap a shared standalone span in [`FlatTrace`] canonical order
    /// (window-major `(window, y, x)`, duplicates aggregated) — the
    /// overlay form `pim_trace::edit::EditableTrace` produces for edited
    /// data.
    pub fn build_shared_span(
        grid: &Grid,
        refs: Arc<[FlatRef]>,
        num_windows: usize,
    ) -> DatumCostCache<'r> {
        Self::from_source(grid, RefSource::SharedSpan(refs), num_windows)
    }

    fn from_source(grid: &Grid, src: RefSource<'r>, num_windows: usize) -> Self {
        DatumCostCache {
            grid: *grid,
            num_windows,
            src,
            tables: OnceLock::new(),
            raw_singles: AtomicU32::new(0),
            stats: None,
        }
    }

    /// Datum `d`'s references within windows `lo..hi` of the flat span
    /// (binary search on the sorted window ids).
    fn flat_range(refs: &[FlatRef], lo: usize, hi: usize) -> &[FlatRef] {
        let a = refs.partition_point(|r| (r.window as usize) < lo);
        let b = refs.partition_point(|r| (r.window as usize) < hi);
        &refs[a..b]
    }

    /// Install shared cache counters (from an enabled metrics sink).
    pub fn set_stats(&mut self, stats: Arc<CacheStats>) {
        self.stats = Some(stats);
    }

    /// The prefix tables, building them on first call (one pass over the
    /// reference string). Safe and deterministic under concurrent callers:
    /// the build is pure and [`OnceLock`] publishes exactly one result.
    fn tables(&self) -> &PrefixTables {
        self.tables.get_or_init(|| {
            if let Some(stats) = &self.stats {
                stats.prefix_builds.fetch_add(1, Ordering::Relaxed);
            }
            let w = self.grid.width() as usize;
            let h = self.grid.height() as usize;
            let nw = self.num_windows;
            let mut px = vec![0u64; (nw + 1) * w];
            let mut py = vec![0u64; (nw + 1) * h];
            let mut vol = vec![0u64; nw + 1];
            let flat = self.src.flat();
            let mut flat_next = 0usize;
            for wi in 0..nw {
                let (prev_x, row_x) = px[wi * w..(wi + 2) * w].split_at_mut(w);
                row_x.copy_from_slice(prev_x);
                let (prev_y, row_y) = py[wi * h..(wi + 2) * h].split_at_mut(h);
                row_y.copy_from_slice(prev_y);
                vol[wi + 1] = vol[wi];
                match (flat, &self.src) {
                    (Some(refs), _) => {
                        while let Some(r) = refs.get(flat_next) {
                            if r.window as usize != wi {
                                break;
                            }
                            row_x[r.x as usize] += r.count as u64;
                            row_y[r.y as usize] += r.count as u64;
                            vol[wi + 1] += r.count as u64;
                            flat_next += 1;
                        }
                    }
                    (None, RefSource::Windowed(rs)) => {
                        for r in rs.window(wi).iter() {
                            let p = self.grid.point_of(r.proc);
                            row_x[p.x as usize] += r.count as u64;
                            row_y[p.y as usize] += r.count as u64;
                            vol[wi + 1] += r.count as u64;
                        }
                    }
                    (None, _) => unreachable!("every non-windowed source is flat"),
                }
            }
            PrefixTables { px, py, vol }
        })
    }

    /// Force the prefix-table build now (used to warm caches on a pool).
    pub fn ensure_tables(&self) {
        let _ = self.tables();
    }

    /// Drop any built prefix tables and reset the lazy-build counter.
    /// The datum becomes an *invalidation unit*: an incremental engine
    /// calls this (via [`DatumCostCache::rebind_span`]) for exactly the
    /// data an edit rewrote, leaving every other datum's tables intact.
    pub fn invalidate(&mut self) {
        if self.tables.get().is_some() {
            if let Some(stats) = &self.stats {
                stats.invalidations.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.tables = OnceLock::new();
        self.raw_singles = AtomicU32::new(0);
    }

    /// Rebind to a rewritten shared span (canonical order) covering
    /// `num_windows` windows, invalidating any built tables.
    pub fn rebind_span(&mut self, refs: Arc<[FlatRef]>, num_windows: usize) {
        self.src = RefSource::SharedSpan(refs);
        self.num_windows = num_windows;
        self.invalidate();
    }

    /// Rebind to a shared span that *extends* the current one: every
    /// reference in pre-existing windows is unchanged and new references
    /// live only in windows `>= self.num_windows()`. Built prefix tables
    /// are extended in place (new rows appended) instead of rebuilt.
    pub fn extend_span(&mut self, refs: Arc<[FlatRef]>, num_windows: usize) {
        debug_assert!(num_windows >= self.num_windows);
        let old_nw = self.num_windows;
        self.src = RefSource::SharedSpan(refs);
        self.num_windows = num_windows;
        self.extend_tables(old_nw);
    }

    /// Grow the window count without touching the source: the appended
    /// windows hold no references to this datum (the caller's contract —
    /// data referenced by an append get [`DatumCostCache::extend_span`]
    /// instead). Built prefix tables gain copy-forward rows in place.
    pub fn extend_windows(&mut self, num_windows: usize) {
        debug_assert!(num_windows >= self.num_windows);
        let old_nw = self.num_windows;
        self.num_windows = num_windows;
        self.extend_tables(old_nw);
    }

    /// Append prefix rows for windows `old_nw..self.num_windows` to
    /// already-built tables (no-op while still lazy — the eventual build
    /// covers the new count). Row `wi+1` = row `wi` + refs of window `wi`,
    /// exactly what a from-scratch build would compute.
    fn extend_tables(&mut self, old_nw: usize) {
        let nw = self.num_windows;
        if nw == old_nw {
            return;
        }
        let w = self.grid.width() as usize;
        let h = self.grid.height() as usize;
        let refs = self.src.flat();
        let Some(t) = self.tables.get_mut() else {
            return;
        };
        if let Some(stats) = &self.stats {
            stats.prefix_extends.fetch_add(1, Ordering::Relaxed);
        }
        t.px.resize((nw + 1) * w, 0);
        t.py.resize((nw + 1) * h, 0);
        t.vol.resize(nw + 1, 0);
        let refs = refs.expect("extendable sources are flat");
        let mut next = refs.partition_point(|r| (r.window as usize) < old_nw);
        for wi in old_nw..nw {
            let (prev_x, row_x) = t.px[wi * w..(wi + 2) * w].split_at_mut(w);
            row_x.copy_from_slice(prev_x);
            let (prev_y, row_y) = t.py[wi * h..(wi + 2) * h].split_at_mut(h);
            row_y.copy_from_slice(prev_y);
            t.vol[wi + 1] = t.vol[wi];
            while let Some(r) = refs.get(next) {
                if r.window as usize != wi {
                    break;
                }
                row_x[r.x as usize] += r.count as u64;
                row_y[r.y as usize] += r.count as u64;
                t.vol[wi + 1] += r.count as u64;
                next += 1;
            }
        }
    }

    /// Number of execution windows the cache covers.
    pub fn num_windows(&self) -> usize {
        self.num_windows
    }

    /// Total reference volume of windows `lo..hi`.
    pub fn range_volume(&self, lo: usize, hi: usize) -> u64 {
        debug_assert!(lo <= hi && hi <= self.num_windows);
        if let Some(t) = self.tables.get() {
            return t.vol[hi] - t.vol[lo];
        }
        match hi - lo {
            0 => 0,
            1 => self.raw_volume(lo, hi),
            _ if lo == 0 && hi == self.num_windows => self.raw_volume(lo, hi),
            _ => {
                let t = self.tables();
                t.vol[hi] - t.vol[lo]
            }
        }
    }

    /// Range volume by walking the raw references of `lo..hi`.
    fn raw_volume(&self, lo: usize, hi: usize) -> u64 {
        match (&self.src, self.src.flat()) {
            (RefSource::Windowed(rs), _) => {
                if lo == 0 && hi == self.num_windows {
                    rs.total_volume()
                } else {
                    (lo..hi).map(|w| rs.window(w).total_volume()).sum()
                }
            }
            (_, Some(refs)) => Self::flat_range(refs, lo, hi)
                .iter()
                .map(|r| r.count as u64)
                .sum(),
            (_, None) => unreachable!("every non-windowed source is flat"),
        }
    }

    /// True when no processor references the datum in windows `lo..hi`.
    pub fn range_is_empty(&self, lo: usize, hi: usize) -> bool {
        self.range_volume(lo, hi) == 0
    }

    /// Cost table of the merged window range `lo..hi`: writes
    /// `out[p] = cost_at(grid, merged(lo..hi), p)` for every processor in
    /// `O(width + height + m)` once tables exist (plus the raw refs of the
    /// range on the lazy paths — see the module docs).
    pub fn range_table(&self, lo: usize, hi: usize, axes: &mut AxisScratch, out: &mut Vec<u64>) {
        assert!(lo <= hi && hi <= self.num_windows, "bad range {lo}..{hi}");
        if let Some(t) = self.tables.get() {
            return self.serve_from_prefix(t, lo, hi, axes, out);
        }
        // No tables yet: the whole execution always projects the raw refs
        // directly (one pass, never worse than a prefix build). A single
        // window does too — until more singles have been served than one
        // full window sweep issues, the signature of a re-scanning caller.
        // A strict multi-window sub-range builds the tables at once.
        let single = hi - lo == 1;
        if single && self.num_windows > 1 {
            let prior = self.raw_singles.fetch_add(1, Ordering::Relaxed);
            if prior >= self.num_windows as u32 + SINGLE_WINDOW_SWEEP_SLACK {
                let t = self.tables();
                return self.serve_from_prefix(t, lo, hi, axes, out);
            }
        }
        if single || (lo == 0 && hi == self.num_windows) {
            if let Some(stats) = &self.stats {
                stats.raw_serves.fetch_add(1, Ordering::Relaxed);
            }
            self.fill_weights_raw(lo, hi, axes);
            axes.sweep_into(&self.grid, out);
        } else {
            let t = self.tables();
            self.serve_from_prefix(t, lo, hi, axes, out);
        }
    }

    /// Project the raw references of `lo..hi` onto the axis weights.
    fn fill_weights_raw(&self, lo: usize, hi: usize, axes: &mut AxisScratch) {
        axes.reset_weights(&self.grid);
        match (&self.src, self.src.flat()) {
            (RefSource::Windowed(rs), _) => {
                for w in lo..hi {
                    for r in rs.window(w).iter() {
                        let p = self.grid.point_of(r.proc);
                        axes.wx[p.x as usize] += r.count as u64;
                        axes.wy[p.y as usize] += r.count as u64;
                    }
                }
            }
            (_, Some(refs)) => {
                for r in Self::flat_range(refs, lo, hi) {
                    axes.wx[r.x as usize] += r.count as u64;
                    axes.wy[r.y as usize] += r.count as u64;
                }
            }
            (_, None) => unreachable!("every non-windowed source is flat"),
        }
    }

    /// Fill the axis weights of `lo..hi` by prefix subtraction.
    fn fill_weights_prefix(&self, t: &PrefixTables, lo: usize, hi: usize, axes: &mut AxisScratch) {
        let w = self.grid.width() as usize;
        let h = self.grid.height() as usize;
        axes.reset_weights(&self.grid);
        for x in 0..w {
            axes.wx[x] = t.px[hi * w + x] - t.px[lo * w + x];
        }
        for y in 0..h {
            axes.wy[y] = t.py[hi * h + y] - t.py[lo * h + y];
        }
    }

    fn serve_from_prefix(
        &self,
        t: &PrefixTables,
        lo: usize,
        hi: usize,
        axes: &mut AxisScratch,
        out: &mut Vec<u64>,
    ) {
        if let Some(stats) = &self.stats {
            stats.prefix_hits.fetch_add(1, Ordering::Relaxed);
        }
        self.fill_weights_prefix(t, lo, hi, axes);
        axes.sweep_into(&self.grid, out);
    }

    /// Cost table of a single window (`range_table(w, w+1)`).
    pub fn window_table(&self, w: usize, axes: &mut AxisScratch, out: &mut Vec<u64>) {
        self.range_table(w, w + 1, axes, out);
    }

    /// Cost table of the whole execution merged — what SCDS schedules on.
    pub fn full_table(&self, axes: &mut AxisScratch, out: &mut Vec<u64>) {
        self.range_table(0, self.num_windows, axes, out);
    }

    /// The cost-table argmin (lowest-id tie-break) of the merged range
    /// `lo..hi` **without building the table**: the per-axis weighted
    /// medians, in `O(width + height + refs in range)` — or
    /// `O(width + height)` once prefix tables exist. Never triggers a
    /// prefix build and does not advance the single-window build counter;
    /// equal to `argmin_table(range_table(lo, hi)).0` by the median
    /// decomposition (pinned in `tests/cache_equivalence.rs`).
    pub fn range_median(&self, lo: usize, hi: usize, axes: &mut AxisScratch) -> ProcId {
        assert!(lo <= hi && hi <= self.num_windows, "bad range {lo}..{hi}");
        match self.tables.get() {
            Some(t) => self.fill_weights_prefix(t, lo, hi, axes),
            None => self.fill_weights_raw(lo, hi, axes),
        }
        let w = self.grid.width() as usize;
        let h = self.grid.height() as usize;
        let mx = crate::median::dense_weighted_median(&axes.wx[..w]);
        let my = crate::median::dense_weighted_median(&axes.wy[..h]);
        self.grid.proc_xy(mx, my)
    }

    /// Local optimal center (lowest-id argmin) and its cost for the merged
    /// range `lo..hi`.
    pub fn optimal_center_range(
        &self,
        lo: usize,
        hi: usize,
        axes: &mut AxisScratch,
        table: &mut Vec<u64>,
    ) -> (ProcId, u64) {
        self.range_table(lo, hi, axes, table);
        argmin_table(table)
    }
}

/// Per-trace cache: one [`DatumCostCache`] per datum. Build once, share
/// across every scheduling method run on the trace (`compare_methods` does
/// exactly this). Construction is `O(num_data)`; each datum's prefix
/// tables appear lazily when a scheduler first issues a query needing
/// them.
#[derive(Debug, Clone)]
pub struct CostCache<'t> {
    data: Vec<DatumCostCache<'t>>,
}

impl<'t> CostCache<'t> {
    /// Wrap every datum of the trace (no per-datum work yet).
    pub fn build(trace: &'t WindowedTrace) -> Self {
        let grid = trace.grid();
        CostCache {
            data: trace
                .iter_data()
                .map(|(_, rs)| DatumCostCache::build(&grid, rs))
                .collect(),
        }
    }

    /// Wrap every datum of a flat trace. Serves bit-identical tables to
    /// [`CostCache::build`] on the equivalent nested trace
    /// (property-tested in `tests/cache_equivalence.rs`), while datum
    /// spans stay contiguous slices of one shared `refs` array.
    pub fn build_flat<V: pim_trace::flat::FlatView + ?Sized>(flat: &'t V) -> Self {
        let grid = flat.grid();
        let nw = flat.num_windows();
        CostCache {
            data: (0..flat.num_data())
                .map(|d| DatumCostCache::build_flat(&grid, flat.span(DataId(d as u32)), nw))
                .collect(),
        }
    }

    /// Wrap every datum of a shared flat trace. Borrow-free (usable as
    /// `CostCache<'static>`): each datum co-owns the trace through the
    /// `Arc`, so the caller can keep an editable overlay beside the cache
    /// and [rebind](DatumCostCache::rebind_span) edited data one by one.
    pub fn build_shared(trace: &Arc<FlatTrace>) -> Self {
        let grid = trace.grid();
        CostCache {
            data: (0..trace.num_data())
                .map(|d| {
                    DatumCostCache::build_shared_trace(&grid, Arc::clone(trace), DataId(d as u32))
                })
                .collect(),
        }
    }

    /// The cache of one datum.
    pub fn datum(&self, d: DataId) -> &DatumCostCache<'t> {
        &self.data[d.index()]
    }

    /// Mutable access to one datum's cache, for per-datum invalidation
    /// and append extension by the incremental engine.
    pub fn datum_mut(&mut self, d: DataId) -> &mut DatumCostCache<'t> {
        &mut self.data[d.index()]
    }

    /// Install shared cache counters into every datum's cache (from an
    /// enabled metrics sink).
    pub fn set_stats(&mut self, stats: &Arc<CacheStats>) {
        for d in &mut self.data {
            d.set_stats(Arc::clone(stats));
        }
    }

    /// Number of cached data items.
    pub fn num_data(&self) -> usize {
        self.data.len()
    }

    /// Build every datum's prefix tables now, fanned out over `pool`.
    /// Scheduling never *requires* this — lazy builds land on whichever
    /// worker first queries a datum — but warming keeps the build cost out
    /// of a measured or latency-sensitive region.
    pub fn warm(&self, pool: pim_par::Pool) {
        let ids: Vec<usize> = (0..self.data.len()).collect();
        pim_par::parallel_map_with(pool, &ids, || (), |_, _, &i| self.data[i].ensure_tables());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{cost_table, optimal_center};
    use pim_trace::window::WindowRefs;

    fn sample_rs(grid: &Grid) -> DataRefString {
        DataRefString::new(vec![
            WindowRefs::from_pairs([(grid.proc_xy(0, 0), 3), (grid.proc_xy(3, 2), 1)]),
            WindowRefs::new(),
            WindowRefs::from_pairs([(grid.proc_xy(2, 1), 5)]),
            WindowRefs::from_pairs([(grid.proc_xy(1, 2), 2), (grid.proc_xy(2, 1), 1)]),
        ])
    }

    #[test]
    fn range_tables_match_merged_cost_tables() {
        let grid = Grid::new(4, 3);
        let rs = sample_rs(&grid);
        let cache = DatumCostCache::build(&grid, &rs);
        let mut axes = AxisScratch::default();
        let (mut cached, mut direct) = (Vec::new(), Vec::new());
        for lo in 0..rs.num_windows() {
            for hi in lo + 1..=rs.num_windows() {
                cache.range_table(lo, hi, &mut axes, &mut cached);
                cost_table(&grid, &rs.merged_range(lo, hi), &mut direct);
                assert_eq!(cached, direct, "range {lo}..{hi}");
            }
        }
    }

    #[test]
    fn lazy_raw_and_prefix_paths_agree() {
        let grid = Grid::new(4, 3);
        let rs = sample_rs(&grid);
        // `fresh` serves raw (no multi-window sub-range query yet);
        // `warmed` serves the same queries from prefix subtraction.
        let fresh = DatumCostCache::build(&grid, &rs);
        let warmed = DatumCostCache::build(&grid, &rs);
        warmed.ensure_tables();
        let mut axes = AxisScratch::default();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for w in 0..rs.num_windows() {
            fresh.window_table(w, &mut axes, &mut a);
            warmed.window_table(w, &mut axes, &mut b);
            assert_eq!(a, b, "window {w}");
        }
        fresh.full_table(&mut axes, &mut a);
        warmed.full_table(&mut axes, &mut b);
        assert_eq!(a, b, "full table");
        assert_eq!(fresh.range_volume(0, 4), warmed.range_volume(0, 4));
        assert_eq!(fresh.range_volume(2, 3), warmed.range_volume(2, 3));
    }

    #[test]
    fn multi_window_subrange_triggers_one_build() {
        let grid = Grid::new(4, 3);
        let rs = sample_rs(&grid);
        let cache = DatumCostCache::build(&grid, &rs);
        assert!(cache.tables.get().is_none(), "starts lazy");
        let mut axes = AxisScratch::default();
        let mut out = Vec::new();
        cache.window_table(1, &mut axes, &mut out);
        cache.full_table(&mut axes, &mut out);
        assert!(
            cache.tables.get().is_none(),
            "single-window and full queries stay raw"
        );
        cache.range_table(1, 3, &mut axes, &mut out);
        assert!(cache.tables.get().is_some(), "sub-range builds tables");
    }

    #[test]
    fn single_window_rescan_triggers_build_after_full_sweep() {
        let grid = Grid::new(4, 3);
        let rs = sample_rs(&grid); // 4 windows
        let cache = DatumCostCache::build(&grid, &rs);
        let mut axes = AxisScratch::default();
        let mut out = Vec::new();
        // One full sweep plus the slack probe stays raw...
        for q in 0..rs.num_windows() + SINGLE_WINDOW_SWEEP_SLACK as usize {
            cache.window_table(q % rs.num_windows(), &mut axes, &mut out);
            assert!(cache.tables.get().is_none(), "query {q} must serve raw");
        }
        // ...and the next single-window query builds the tables.
        cache.window_table(0, &mut axes, &mut out);
        assert!(cache.tables.get().is_some(), "re-scan builds tables");
    }

    #[test]
    fn empty_and_volume_queries() {
        let grid = Grid::new(4, 3);
        let rs = sample_rs(&grid);
        let cache = DatumCostCache::build(&grid, &rs);
        assert!(cache.range_is_empty(1, 2));
        assert!(!cache.range_is_empty(0, 2));
        assert_eq!(cache.range_volume(0, 4), rs.total_volume());
        assert_eq!(cache.range_volume(2, 3), 5);
        assert_eq!(cache.num_windows(), 4);
    }

    #[test]
    fn optimal_center_range_matches_uncached() {
        let grid = Grid::new(4, 3);
        let rs = sample_rs(&grid);
        let cache = DatumCostCache::build(&grid, &rs);
        let mut axes = AxisScratch::default();
        let mut table = Vec::new();
        for (lo, hi) in [(0, 1), (0, 4), (2, 4), (3, 4)] {
            let cached = cache.optimal_center_range(lo, hi, &mut axes, &mut table);
            let direct = optimal_center(&grid, &rs.merged_range(lo, hi));
            assert_eq!(cached, direct, "range {lo}..{hi}");
        }
    }

    #[test]
    fn counters_track_every_serve_path() {
        let grid = Grid::new(4, 3);
        let rs = sample_rs(&grid);
        let mut cache = DatumCostCache::build(&grid, &rs);
        let stats = Arc::new(CacheStats::default());
        cache.set_stats(Arc::clone(&stats));
        let mut axes = AxisScratch::default();
        let mut out = Vec::new();
        cache.window_table(0, &mut axes, &mut out); // raw
        cache.full_table(&mut axes, &mut out); // raw
        cache.range_table(1, 3, &mut axes, &mut out); // build + prefix hit
        cache.window_table(0, &mut axes, &mut out); // tables exist → hit
        assert_eq!(stats.raw_serves.load(Ordering::Relaxed), 2);
        assert_eq!(stats.prefix_builds.load(Ordering::Relaxed), 1);
        assert_eq!(stats.prefix_hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn shared_sources_rebind_and_extend() {
        use pim_trace::flat::FlatRecord;
        let grid = Grid::new(4, 3);
        let rec = |d: u32, w: u32, p: u32, c: u32| FlatRecord {
            datum: DataId(d),
            window: w,
            proc: ProcId(p),
            count: c,
        };
        let flat = Arc::new(
            FlatTrace::from_records(
                grid,
                2,
                1,
                vec![rec(0, 0, 0, 3), rec(0, 1, 6, 5), rec(0, 1, 10, 2)],
            )
            .unwrap(),
        );
        let mut cache = DatumCostCache::build_shared_trace(&grid, Arc::clone(&flat), DataId(0));
        let stats = Arc::new(CacheStats::default());
        cache.set_stats(Arc::clone(&stats));
        cache.ensure_tables();
        assert_eq!(cache.range_volume(0, 2), 10);

        // Append-extension: new window's refs extend the built tables in
        // place, matching a from-scratch build on the extended span.
        let mut extended: Vec<FlatRef> = flat.span(DataId(0)).to_vec();
        extended.push(FlatRef {
            window: 2,
            x: 1,
            y: 1,
            count: 7,
        });
        cache.extend_span(Arc::from(extended.clone()), 3);
        assert_eq!(stats.prefix_extends.load(Ordering::Relaxed), 1);
        assert_eq!(stats.invalidations.load(Ordering::Relaxed), 0);
        let oracle = DatumCostCache::build_shared_span(&grid, Arc::from(extended), 3);
        oracle.ensure_tables();
        let mut axes = AxisScratch::default();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for lo in 0..3 {
            for hi in lo + 1..=3 {
                cache.range_table(lo, hi, &mut axes, &mut a);
                oracle.range_table(lo, hi, &mut axes, &mut b);
                assert_eq!(a, b, "range {lo}..{hi}");
                assert_eq!(cache.range_volume(lo, hi), oracle.range_volume(lo, hi));
            }
        }

        // Rewrite: rebinding invalidates, then rebuilds lazily.
        let rewritten: Arc<[FlatRef]> = Arc::from(vec![FlatRef {
            window: 0,
            x: 2,
            y: 2,
            count: 1,
        }]);
        cache.rebind_span(Arc::clone(&rewritten), 3);
        assert_eq!(stats.invalidations.load(Ordering::Relaxed), 1);
        assert!(cache.tables.get().is_none(), "rebind drops tables");
        assert_eq!(cache.range_volume(0, 3), 1);
    }

    #[test]
    fn extend_windows_copies_rows_forward() {
        let grid = Grid::new(4, 3);
        let rs = sample_rs(&grid); // 4 windows
        let span: Vec<FlatRef> = (0..rs.num_windows())
            .flat_map(|w| {
                rs.window(w).iter().map(move |r| {
                    let p = grid.point_of(r.proc);
                    FlatRef {
                        window: w as u32,
                        x: p.x,
                        y: p.y,
                        count: r.count,
                    }
                })
            })
            .collect();
        let mut cache = DatumCostCache::build_shared_span(&grid, Arc::from(span), 4);
        cache.ensure_tables();
        cache.extend_windows(6);
        assert_eq!(cache.num_windows(), 6);
        assert_eq!(cache.range_volume(4, 6), 0);
        assert_eq!(cache.range_volume(0, 6), rs.total_volume());
        let mut axes = AxisScratch::default();
        let (mut full, mut old) = (Vec::new(), Vec::new());
        cache.range_table(0, 6, &mut axes, &mut full);
        cache.range_table(0, 4, &mut axes, &mut old);
        assert_eq!(full, old, "empty appended windows add no cost");
    }

    #[test]
    fn trace_cache_indexes_by_datum() {
        let grid = Grid::new(4, 3);
        let trace = WindowedTrace::from_parts(
            grid,
            vec![
                vec![WindowRefs::from_pairs([(grid.proc_xy(0, 0), 1)])],
                vec![WindowRefs::from_pairs([(grid.proc_xy(3, 2), 7)])],
            ],
        );
        let cache = CostCache::build(&trace);
        assert_eq!(cache.num_data(), 2);
        assert_eq!(cache.datum(DataId(1)).range_volume(0, 1), 7);
    }

    #[test]
    fn warm_builds_every_datum() {
        let grid = Grid::new(4, 3);
        let trace = WindowedTrace::from_parts(
            grid,
            vec![vec![WindowRefs::from_pairs([(grid.proc_xy(1, 1), 2)]); 3]; 4],
        );
        let cache = CostCache::build(&trace);
        cache.warm(pim_par::Pool::with_threads(2));
        for d in 0..4 {
            assert!(cache.datum(DataId(d)).tables.get().is_some());
        }
    }
}
