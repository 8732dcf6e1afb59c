//! Windowed reference strings — the canonical scheduler input.
//!
//! * [`WindowRefs`] is the paper's *processor reference string with respect
//!   to a datum in one execution window*: the multiset of processors
//!   requiring that datum, stored as a sorted, aggregated `(proc, count)`
//!   list.
//! * [`DataRefString`] is one datum's reference string across all windows.
//! * [`WindowedTrace`] holds the full application: every datum's reference
//!   string over a common window sequence on one grid.

use crate::ids::DataId;
use pim_array::grid::{Grid, ProcId};

/// One aggregated reference: `proc` requires the datum `count` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ref {
    /// The referencing processor.
    pub proc: ProcId,
    /// Total reference volume from that processor within the window.
    pub count: u32,
}

/// The processor reference string for one datum in one execution window:
/// sorted by processor id, aggregated (each processor appears at most once,
/// with positive count).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowRefs {
    refs: Vec<Ref>,
}

impl WindowRefs {
    /// Empty reference string.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from raw `(proc, count)` pairs, aggregating duplicates and
    /// dropping zero counts.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (ProcId, u32)>) -> Self {
        let mut w = WindowRefs::new();
        for (p, n) in pairs {
            w.add(p, n);
        }
        w
    }

    /// Add `count` references from `proc` (no-op when `count == 0`).
    pub fn add(&mut self, proc: ProcId, count: u32) {
        if count == 0 {
            return;
        }
        match self.refs.binary_search_by_key(&proc, |r| r.proc) {
            Ok(i) => self.refs[i].count += count,
            Err(i) => self.refs.insert(i, Ref { proc, count }),
        }
    }

    /// True when no processor references the datum in this window.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Number of *distinct* referencing processors.
    pub fn num_procs(&self) -> usize {
        self.refs.len()
    }

    /// Total reference volume (sum of counts).
    pub fn total_volume(&self) -> u64 {
        self.refs.iter().map(|r| r.count as u64).sum()
    }

    /// Volume contributed by a specific processor (0 when absent).
    pub fn volume_at(&self, proc: ProcId) -> u32 {
        self.refs
            .binary_search_by_key(&proc, |r| r.proc)
            .map(|i| self.refs[i].count)
            .unwrap_or(0)
    }

    /// Iterate the aggregated references in ascending processor order.
    pub fn iter(&self) -> impl Iterator<Item = Ref> + '_ {
        self.refs.iter().copied()
    }

    /// Merge another window's references into this one (used when grouping
    /// consecutive execution windows, Section 4 of the paper).
    pub fn merge(&mut self, other: &WindowRefs) {
        for r in other.iter() {
            self.add(r.proc, r.count);
        }
    }

    /// The union of several windows' references as one new string.
    pub fn merged<'a>(windows: impl IntoIterator<Item = &'a WindowRefs>) -> WindowRefs {
        let mut out = WindowRefs::new();
        for w in windows {
            out.merge(w);
        }
        out
    }
}

/// One datum's reference string across every execution window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataRefString {
    windows: Vec<WindowRefs>,
}

impl DataRefString {
    /// Build from per-window reference strings.
    pub fn new(windows: Vec<WindowRefs>) -> Self {
        assert!(
            !windows.is_empty(),
            "a reference string needs at least one window"
        );
        DataRefString { windows }
    }

    /// Number of execution windows.
    pub fn num_windows(&self) -> usize {
        self.windows.len()
    }

    /// The reference string in window `w`.
    pub fn window(&self, w: usize) -> &WindowRefs {
        &self.windows[w]
    }

    /// Iterate over all windows in order.
    pub fn windows(&self) -> impl Iterator<Item = &WindowRefs> {
        self.windows.iter()
    }

    /// All windows merged into one — what SCDS sees.
    pub fn merged_all(&self) -> WindowRefs {
        WindowRefs::merged(self.windows.iter())
    }

    /// Merge the half-open window range `lo..hi` into one string (grouping).
    pub fn merged_range(&self, lo: usize, hi: usize) -> WindowRefs {
        assert!(lo < hi && hi <= self.windows.len(), "bad range {lo}..{hi}");
        WindowRefs::merged(self.windows[lo..hi].iter())
    }

    /// Total reference volume across all windows.
    pub fn total_volume(&self) -> u64 {
        self.windows.iter().map(WindowRefs::total_volume).sum()
    }

    /// True when the datum is never referenced.
    pub fn is_never_referenced(&self) -> bool {
        self.windows.iter().all(WindowRefs::is_empty)
    }

    /// A new reference string whose windows are the merges given by
    /// `groups`, a partition of `0..num_windows` into consecutive,
    /// non-empty ranges. Used after Algorithm 3 decides a grouping.
    ///
    /// # Panics
    /// Panics if `groups` is not a partition into consecutive ranges.
    pub fn regrouped(&self, groups: &[core::ops::Range<usize>]) -> DataRefString {
        let mut expect = 0usize;
        let mut windows = Vec::with_capacity(groups.len());
        for g in groups {
            assert_eq!(g.start, expect, "groups must be consecutive");
            assert!(g.end > g.start, "groups must be non-empty");
            windows.push(self.merged_range(g.start, g.end));
            expect = g.end;
        }
        assert_eq!(expect, self.windows.len(), "groups must cover all windows");
        DataRefString::new(windows)
    }
}

/// The full windowed application trace: one [`DataRefString`] per datum,
/// all over the same window sequence on the same grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowedTrace {
    grid: Grid,
    num_windows: usize,
    data: Vec<DataRefString>,
}

impl WindowedTrace {
    /// Assemble from per-datum, per-window reference strings. Every datum
    /// must have the same number of windows (at least one).
    pub fn from_parts(grid: Grid, per_data: Vec<Vec<WindowRefs>>) -> Self {
        let num_windows = per_data.first().map_or(1, Vec::len).max(1);
        let data: Vec<DataRefString> = per_data
            .into_iter()
            .map(|mut w| {
                if w.is_empty() {
                    w.push(WindowRefs::new());
                }
                assert_eq!(w.len(), num_windows, "ragged window counts");
                DataRefString::new(w)
            })
            .collect();
        WindowedTrace {
            grid,
            num_windows,
            data,
        }
    }

    /// The processor array this trace targets.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Number of execution windows (same for every datum).
    pub fn num_windows(&self) -> usize {
        self.num_windows
    }

    /// Number of data items.
    pub fn num_data(&self) -> usize {
        self.data.len()
    }

    /// Reference string of one datum.
    pub fn refs(&self, d: DataId) -> &DataRefString {
        &self.data[d.index()]
    }

    /// Iterate `(DataId, &DataRefString)` in ascending id order.
    pub fn iter_data(&self) -> impl Iterator<Item = (DataId, &DataRefString)> {
        self.data
            .iter()
            .enumerate()
            .map(|(i, r)| (DataId(i as u32), r))
    }

    /// Total reference volume of the application.
    pub fn total_volume(&self) -> u64 {
        self.data.iter().map(DataRefString::total_volume).sum()
    }

    /// Merge adjacent windows so that `factor` consecutive windows become
    /// one (coarser windowing of the same trace). The last window absorbs
    /// any remainder.
    pub fn coarsen(&self, factor: usize) -> WindowedTrace {
        assert!(factor > 0, "coarsen factor must be positive");
        let nw = self.num_windows.div_ceil(factor).max(1);
        let per_data = self
            .data
            .iter()
            .map(|rs| {
                (0..nw)
                    .map(|w| {
                        let lo = w * factor;
                        let hi = ((w + 1) * factor).min(self.num_windows);
                        rs.merged_range(lo, hi)
                    })
                    .collect()
            })
            .collect();
        WindowedTrace::from_parts(self.grid, per_data)
    }

    /// Collapse the whole trace to a single window (what SCDS effectively
    /// schedules against).
    pub fn collapsed(&self) -> WindowedTrace {
        self.coarsen(self.num_windows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> Grid {
        Grid::new(4, 4)
    }

    #[test]
    fn window_refs_aggregate_and_sort() {
        let w = WindowRefs::from_pairs([(ProcId(5), 2), (ProcId(1), 1), (ProcId(5), 3)]);
        let v: Vec<_> = w.iter().collect();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].proc, ProcId(1));
        assert_eq!(v[1].proc, ProcId(5));
        assert_eq!(w.volume_at(ProcId(5)), 5);
        assert_eq!(w.volume_at(ProcId(0)), 0);
        assert_eq!(w.total_volume(), 6);
        assert_eq!(w.num_procs(), 2);
    }

    #[test]
    fn zero_counts_dropped() {
        let w = WindowRefs::from_pairs([(ProcId(3), 0)]);
        assert!(w.is_empty());
    }

    #[test]
    fn merge_windows() {
        let a = WindowRefs::from_pairs([(ProcId(0), 1), (ProcId(2), 2)]);
        let b = WindowRefs::from_pairs([(ProcId(2), 3), (ProcId(4), 1)]);
        let m = WindowRefs::merged([&a, &b]);
        assert_eq!(m.volume_at(ProcId(2)), 5);
        assert_eq!(m.total_volume(), 7);
    }

    #[test]
    fn data_ref_string_ranges() {
        let rs = DataRefString::new(vec![
            WindowRefs::from_pairs([(ProcId(0), 1)]),
            WindowRefs::from_pairs([(ProcId(1), 2)]),
            WindowRefs::from_pairs([(ProcId(0), 4)]),
        ]);
        assert_eq!(rs.num_windows(), 3);
        assert_eq!(rs.total_volume(), 7);
        assert_eq!(rs.merged_all().volume_at(ProcId(0)), 5);
        assert_eq!(rs.merged_range(0, 2).total_volume(), 3);
        assert!(!rs.is_never_referenced());
    }

    #[test]
    fn regroup_partitions() {
        let rs = DataRefString::new(vec![
            WindowRefs::from_pairs([(ProcId(0), 1)]),
            WindowRefs::from_pairs([(ProcId(1), 1)]),
            WindowRefs::from_pairs([(ProcId(2), 1)]),
        ]);
        let grouped = rs.regrouped(&[0..2, 2..3]);
        assert_eq!(grouped.num_windows(), 2);
        assert_eq!(grouped.window(0).total_volume(), 2);
        assert_eq!(grouped.window(1).total_volume(), 1);
    }

    #[test]
    #[should_panic(expected = "cover all windows")]
    fn regroup_must_cover() {
        let rs = DataRefString::new(vec![WindowRefs::new(), WindowRefs::new()]);
        #[allow(clippy::single_range_in_vec_init)] // a one-range partition is the test's point
        rs.regrouped(&[0..1]);
    }

    #[test]
    fn windowed_trace_coarsen() {
        let per_data = vec![vec![
            WindowRefs::from_pairs([(ProcId(0), 1)]),
            WindowRefs::from_pairs([(ProcId(1), 1)]),
            WindowRefs::from_pairs([(ProcId(2), 1)]),
            WindowRefs::from_pairs([(ProcId(3), 1)]),
            WindowRefs::from_pairs([(ProcId(4), 1)]),
        ]];
        let t = WindowedTrace::from_parts(g(), per_data);
        let c = t.coarsen(2);
        assert_eq!(c.num_windows(), 3);
        assert_eq!(c.refs(DataId(0)).window(2).total_volume(), 1);
        let one = t.collapsed();
        assert_eq!(one.num_windows(), 1);
        assert_eq!(one.refs(DataId(0)).window(0).total_volume(), 5);
        assert_eq!(one.total_volume(), t.total_volume());
    }

    #[test]
    fn from_parts_pads_empty_data() {
        let t = WindowedTrace::from_parts(g(), vec![vec![]]);
        assert_eq!(t.num_windows(), 1);
        assert!(t.refs(DataId(0)).window(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_windows_panic() {
        WindowedTrace::from_parts(
            g(),
            vec![
                vec![WindowRefs::new()],
                vec![WindowRefs::new(), WindowRefs::new()],
            ],
        );
    }
}
