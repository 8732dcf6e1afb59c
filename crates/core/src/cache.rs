//! Shared per-trace cost-table cache.
//!
//! The table-reading schedulers keep re-deriving the same quantity from a
//! datum's span: the axis-projected reference weights of a window
//! *range*. GOMCDS needs them per window (the DP's node costs), grouping
//! for `O(n)` different candidate ranges per greedy step, the precedence
//! layer per window again. Each derivation walks the span again. (SCDS and
//! LOMCDS need only medians and the rare table of a full median, which
//! they project straight off the span without a cache.)
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
//! never more work than the prefix build itself — so a one-shot query pays
//! nothing for tables it would never amortize. A *strict
//! multi-window sub-range* query — the shape Algorithm 3 grouping issues
//! `O(n)` times per datum — triggers the one-time prefix build immediately.
//! Single-window queries are served raw until the datum has answered more
//! of them than one full window sweep could issue
//! (`num_windows + SINGLE_WINDOW_SWEEP_SLACK`); the next one triggers
//! the build. The point: a window-sweeping scheduler (GOMCDS) reads each
//! window exactly once, so across the whole sweep the raw path
//! walks every reference exactly once — the same total work as the prefix
//! build itself, minus the build's row copies and allocations. Building
//! mid-sweep can therefore only lose (measurably so on the paper table's
//! sparse instances). Only a *re-scan* — more single-window queries than
//! windows, as issued by iterated refinement or repeated capacity replays
//! — amortizes the build, and that is exactly when it fires. The slack
//! keeps one extra probe before a sweep build-free.
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
use pim_trace::flat::{FlatRef, FlatView};
use pim_trace::ids::DataId;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

/// Extra raw single-window serves allowed beyond one per window before a
/// single-window query triggers the prefix build (see the module docs for
/// the rationale): a datum builds its tables on single-window query
/// `num_windows + SINGLE_WINDOW_SWEEP_SLACK + 1`.
const SINGLE_WINDOW_SWEEP_SLACK: u32 = 1;

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
    /// The datum's span, window-major in canonical `(window, y, x)` order.
    refs: &'r [FlatRef],
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

impl<'r> DatumCostCache<'r> {
    /// Wrap one datum's span (window-major, ascending processor order — the
    /// layout every [`FlatView`] guarantees).
    /// `O(1)` — no tables are built until a query needs them (see the
    /// module docs for which do).
    pub fn build_flat(grid: &Grid, refs: &'r [FlatRef], num_windows: usize) -> Self {
        DatumCostCache {
            grid: *grid,
            num_windows,
            refs,
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
            let refs = self.refs;
            let mut next = 0usize;
            for wi in 0..nw {
                let (prev_x, row_x) = px[wi * w..(wi + 2) * w].split_at_mut(w);
                row_x.copy_from_slice(prev_x);
                let (prev_y, row_y) = py[wi * h..(wi + 2) * h].split_at_mut(h);
                row_y.copy_from_slice(prev_y);
                vol[wi + 1] = vol[wi];
                while let Some(r) = refs.get(next) {
                    if r.window as usize != wi {
                        break;
                    }
                    row_x[r.x as usize] += r.count as u64;
                    row_y[r.y as usize] += r.count as u64;
                    vol[wi + 1] += r.count as u64;
                    next += 1;
                }
            }
            PrefixTables { px, py, vol }
        })
    }

    /// Force the prefix-table build now (used to warm caches on a pool).
    pub fn ensure_tables(&self) {
        let _ = self.tables();
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
        Self::flat_range(self.refs, lo, hi)
            .iter()
            .map(|r| r.count as u64)
            .sum()
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
        self.fill_weights(lo, hi, axes);
        axes.sweep_into(&self.grid, out);
    }

    /// The two axis cost rows of the merged window range `lo..hi`, left in
    /// `axes.cx` (one entry per column) and `axes.cy` (one per row) so
    /// that `range_table(lo, hi)[y·width + x] = cx[x] + cy[y]`. Costs
    /// `O(width + height)` once tables exist and never builds the
    /// `m`-entry table — the form the separable GOMCDS solve reads. Served
    /// and counted exactly like [`DatumCostCache::range_table`].
    pub(crate) fn range_axes(&self, lo: usize, hi: usize, axes: &mut AxisScratch) {
        self.fill_weights(lo, hi, axes);
        axes.sweep_axes();
    }

    /// Fill the axis weights of `lo..hi`: from the prefix tables when they
    /// exist, else raw or through a prefix build as the module docs set out.
    fn fill_weights(&self, lo: usize, hi: usize, axes: &mut AxisScratch) {
        assert!(lo <= hi && hi <= self.num_windows, "bad range {lo}..{hi}");
        if let Some(t) = self.tables.get() {
            return self.fill_weights_prefix(t, lo, hi, axes);
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
                return self.fill_weights_prefix(self.tables(), lo, hi, axes);
            }
        }
        if single || (lo == 0 && hi == self.num_windows) {
            if let Some(stats) = &self.stats {
                stats.raw_serves.fetch_add(1, Ordering::Relaxed);
            }
            axes.project(&self.grid, Self::flat_range(self.refs, lo, hi));
        } else {
            self.fill_weights_prefix(self.tables(), lo, hi, axes);
        }
    }

    /// Fill the axis weights of `lo..hi` by prefix subtraction.
    fn fill_weights_prefix(&self, t: &PrefixTables, lo: usize, hi: usize, axes: &mut AxisScratch) {
        if let Some(stats) = &self.stats {
            stats.prefix_hits.fetch_add(1, Ordering::Relaxed);
        }
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

    /// Cost table of a single window (`range_table(w, w+1)`).
    pub fn window_table(&self, w: usize, axes: &mut AxisScratch, out: &mut Vec<u64>) {
        self.range_table(w, w + 1, axes, out);
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
#[derive(Debug)]
pub struct CostCache<'t> {
    data: Vec<DatumCostCache<'t>>,
}

impl<'t> CostCache<'t> {
    /// Wrap every datum of a flat trace (no per-datum work yet): each datum
    /// borrows its span, so the cache costs one small header per datum and
    /// no copy of the references.
    pub fn build_flat<V: FlatView + ?Sized>(flat: &'t V) -> Self {
        let grid = flat.grid();
        let nw = flat.num_windows();
        CostCache {
            data: (0..flat.num_data())
                .map(|d| DatumCostCache::build_flat(&grid, flat.span(DataId(d as u32)), nw))
                .collect(),
        }
    }

    /// The cache of one datum.
    pub fn datum(&self, d: DataId) -> &DatumCostCache<'t> {
        &self.data[d.index()]
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
    use pim_trace::flat::FlatTrace;
    use pim_trace::window::WindowRefs;

    fn sample_windows(grid: &Grid) -> Vec<WindowRefs> {
        vec![
            WindowRefs::from_pairs([(grid.proc_xy(0, 0), 3), (grid.proc_xy(3, 2), 1)]),
            WindowRefs::new(),
            WindowRefs::from_pairs([(grid.proc_xy(2, 1), 5)]),
            WindowRefs::from_pairs([(grid.proc_xy(1, 2), 2), (grid.proc_xy(2, 1), 1)]),
        ]
    }

    /// A one-datum, four-window trace over the sample windows.
    fn sample(grid: &Grid) -> FlatTrace {
        FlatTrace::from_windows(*grid, vec![sample_windows(grid)]).unwrap()
    }

    fn merged(windows: &[WindowRefs]) -> WindowRefs {
        WindowRefs::merged(windows)
    }

    #[test]
    fn range_tables_match_merged_cost_tables() {
        let grid = Grid::new(4, 3);
        let (flat, windows) = (sample(&grid), sample_windows(&grid));
        let cache = DatumCostCache::build_flat(&grid, flat.span(DataId(0)), 4);
        let mut axes = AxisScratch::default();
        let (mut cached, mut direct) = (Vec::new(), Vec::new());
        for lo in 0..4 {
            for hi in lo + 1..=4 {
                cache.range_table(lo, hi, &mut axes, &mut cached);
                cost_table(&grid, &merged(&windows[lo..hi]), &mut direct);
                assert_eq!(cached, direct, "range {lo}..{hi}");
            }
        }
    }

    #[test]
    fn range_axes_sum_to_range_tables() {
        let grid = Grid::new(4, 3);
        let flat = sample(&grid);
        let cache = DatumCostCache::build_flat(&grid, flat.span(DataId(0)), 4);
        let mut axes = AxisScratch::default();
        let mut table = Vec::new();
        for lo in 0..4 {
            for hi in lo + 1..=4 {
                cache.range_table(lo, hi, &mut axes, &mut table);
                cache.range_axes(lo, hi, &mut axes);
                assert_eq!((axes.cx.len(), axes.cy.len()), (4, 3));
                for p in grid.procs() {
                    let q = grid.point_of(p);
                    let split = axes.cx[q.x as usize] + axes.cy[q.y as usize];
                    assert_eq!(split, table[p.index()], "range {lo}..{hi}, {p}");
                }
            }
        }
    }

    #[test]
    fn lazy_raw_and_prefix_paths_agree() {
        let grid = Grid::new(4, 3);
        let flat = sample(&grid);
        let span = flat.span(DataId(0));
        // `fresh` serves raw (no multi-window sub-range query yet);
        // `warmed` serves the same queries from prefix subtraction.
        let fresh = DatumCostCache::build_flat(&grid, span, 4);
        let warmed = DatumCostCache::build_flat(&grid, span, 4);
        warmed.ensure_tables();
        let mut axes = AxisScratch::default();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for w in 0..4 {
            fresh.window_table(w, &mut axes, &mut a);
            warmed.window_table(w, &mut axes, &mut b);
            assert_eq!(a, b, "window {w}");
        }
        fresh.range_table(0, 4, &mut axes, &mut a);
        warmed.range_table(0, 4, &mut axes, &mut b);
        assert_eq!(a, b, "full table");
        assert_eq!(fresh.range_volume(0, 4), warmed.range_volume(0, 4));
        assert_eq!(fresh.range_volume(2, 3), warmed.range_volume(2, 3));
    }

    #[test]
    fn multi_window_subrange_triggers_one_build() {
        let grid = Grid::new(4, 3);
        let flat = sample(&grid);
        let cache = DatumCostCache::build_flat(&grid, flat.span(DataId(0)), 4);
        assert!(cache.tables.get().is_none(), "starts lazy");
        let mut axes = AxisScratch::default();
        let mut out = Vec::new();
        cache.window_table(1, &mut axes, &mut out);
        cache.range_table(0, 4, &mut axes, &mut out);
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
        let flat = sample(&grid); // 4 windows
        let cache = DatumCostCache::build_flat(&grid, flat.span(DataId(0)), 4);
        let mut axes = AxisScratch::default();
        let mut out = Vec::new();
        // One full sweep plus the slack probe stays raw...
        for q in 0..4 + SINGLE_WINDOW_SWEEP_SLACK as usize {
            cache.window_table(q % 4, &mut axes, &mut out);
            assert!(cache.tables.get().is_none(), "query {q} must serve raw");
        }
        // ...and the next single-window query builds the tables.
        cache.window_table(0, &mut axes, &mut out);
        assert!(cache.tables.get().is_some(), "re-scan builds tables");
    }

    #[test]
    fn empty_and_volume_queries() {
        let grid = Grid::new(4, 3);
        let flat = sample(&grid);
        let cache = DatumCostCache::build_flat(&grid, flat.span(DataId(0)), 4);
        assert!(cache.range_is_empty(1, 2));
        assert!(!cache.range_is_empty(0, 2));
        assert_eq!(cache.range_volume(0, 4), flat.total_volume());
        assert_eq!(cache.range_volume(2, 3), 5);
        assert_eq!(cache.num_windows(), 4);
    }

    #[test]
    fn optimal_center_range_matches_uncached() {
        let grid = Grid::new(4, 3);
        let (flat, windows) = (sample(&grid), sample_windows(&grid));
        let cache = DatumCostCache::build_flat(&grid, flat.span(DataId(0)), 4);
        let mut axes = AxisScratch::default();
        let mut table = Vec::new();
        for (lo, hi) in [(0, 1), (0, 4), (2, 4), (3, 4)] {
            let cached = cache.optimal_center_range(lo, hi, &mut axes, &mut table);
            let direct = optimal_center(&grid, &merged(&windows[lo..hi]));
            assert_eq!(cached, direct, "range {lo}..{hi}");
        }
    }

    #[test]
    fn counters_track_every_serve_path() {
        let grid = Grid::new(4, 3);
        let flat = sample(&grid);
        let mut cache = DatumCostCache::build_flat(&grid, flat.span(DataId(0)), 4);
        let stats = Arc::new(CacheStats::default());
        cache.set_stats(Arc::clone(&stats));
        let mut axes = AxisScratch::default();
        let mut out = Vec::new();
        cache.window_table(0, &mut axes, &mut out); // raw
        cache.range_table(0, 4, &mut axes, &mut out); // raw
        cache.range_table(1, 3, &mut axes, &mut out); // build + prefix hit
        cache.window_table(0, &mut axes, &mut out); // tables exist → hit
        assert_eq!(stats.raw_serves.load(Ordering::Relaxed), 2);
        assert_eq!(stats.prefix_builds.load(Ordering::Relaxed), 1);
        assert_eq!(stats.prefix_hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn trace_cache_indexes_by_datum() {
        let grid = Grid::new(4, 3);
        let trace = FlatTrace::from_windows(
            grid,
            vec![
                vec![WindowRefs::from_pairs([(grid.proc_xy(0, 0), 1)])],
                vec![WindowRefs::from_pairs([(grid.proc_xy(3, 2), 7)])],
            ],
        )
        .unwrap();
        let cache = CostCache::build_flat(&trace);
        assert_eq!(cache.num_data(), 2);
        assert_eq!(cache.datum(DataId(1)).range_volume(0, 1), 7);
    }

    #[test]
    fn warm_builds_every_datum() {
        let grid = Grid::new(4, 3);
        let trace = FlatTrace::from_windows(
            grid,
            vec![vec![WindowRefs::from_pairs([(grid.proc_xy(1, 1), 2)]); 3]; 4],
        )
        .unwrap();
        let cache = CostCache::build_flat(&trace);
        cache.warm(pim_par::Pool::with_threads(2));
        for d in 0..4 {
            assert!(cache.datum(DataId(d)).tables.get().is_some());
        }
    }
}
