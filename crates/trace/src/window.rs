//! One execution window's reference string.
//!
//! [`WindowRefs`] is the paper's *processor reference string with respect
//! to a datum in one execution window*: the multiset of processors
//! requiring that datum, stored as a sorted, aggregated `(proc, count)`
//! list. Whole traces live in [`crate::flat::FlatTrace`]; this one-window
//! value is what hand-written traces are assembled from
//! ([`crate::flat::FlatTrace::from_windows`]) and what the one-window cost
//! helpers of `pim-sched` take.

use pim_array::grid::ProcId;

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

    /// Add `count` references from `proc` (no-op when `count == 0`). A
    /// repeated processor's count saturates at `u32::MAX`, the rule every
    /// trace constructor shares.
    pub fn add(&mut self, proc: ProcId, count: u32) {
        if count == 0 {
            return;
        }
        match self.refs.binary_search_by_key(&proc, |r| r.proc) {
            Ok(i) => self.refs[i].count = self.refs[i].count.saturating_add(count),
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

#[cfg(test)]
mod tests {
    use super::*;

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
        // A repeated processor's count saturates instead of wrapping.
        let w = WindowRefs::from_pairs([(ProcId(2), u32::MAX - 1), (ProcId(2), 5)]);
        assert_eq!(w.volume_at(ProcId(2)), u32::MAX);
    }

    #[test]
    fn zero_counts_dropped() {
        let w = WindowRefs::from_pairs([(ProcId(3), 0)]);
        assert!(w.is_empty());
    }

    #[test]
    fn from_parts_pads_empty_data() {
        let t =
            crate::flat::FlatTrace::from_windows(pim_array::grid::Grid::new(4, 4), vec![vec![]])
                .unwrap();
        assert_eq!(t.num_windows(), 1);
        assert_eq!(t.num_data(), 1);
        assert!(t.span(crate::ids::DataId(0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_windows_panic() {
        let _ = crate::flat::FlatTrace::from_windows(
            pim_array::grid::Grid::new(4, 4),
            vec![
                vec![WindowRefs::new()],
                vec![WindowRefs::new(), WindowRefs::new()],
            ],
        );
    }

    #[test]
    fn merge_windows() {
        let a = WindowRefs::from_pairs([(ProcId(0), 1), (ProcId(2), 2)]);
        let b = WindowRefs::from_pairs([(ProcId(2), 3), (ProcId(4), 1)]);
        let m = WindowRefs::merged([&a, &b]);
        assert_eq!(m.volume_at(ProcId(2)), 5);
        assert_eq!(m.total_volume(), 7);
    }
}
