//! The paper's *processor list* mechanism for memory-constrained placement.
//!
//! > "the process list is constructed for each data, containing a list of
//! > processors. It is sorted in the ascending order of the communication
//! > cost computed by assuming the data are assigned to each processor.
//! > ... Assign data i to the first available processor in the processor
//! > list."
//!
//! Ties are broken by ascending processor id, which makes every scheduler
//! in this crate deterministic.

use crate::cost::cost_table;
use pim_array::grid::{Grid, ProcId};
use pim_array::memory::MemoryMap;
use pim_trace::window::WindowRefs;

/// Processors sorted by ascending placement cost for one datum (ties by
/// ascending id). Index 0 is the optimal center.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessorList {
    procs: Vec<ProcId>,
    costs: Vec<u64>,
}

impl ProcessorList {
    /// Build the list for a reference string.
    pub fn build(grid: &Grid, refs: &WindowRefs) -> Self {
        let mut costs = Vec::new();
        cost_table(grid, refs, &mut costs);
        Self::from_cost_table(&costs)
    }

    /// Build from a precomputed cost table (`table[p] = cost at p`).
    pub fn from_cost_table(table: &[u64]) -> Self {
        let mut procs: Vec<ProcId> = (0..table.len() as u32).map(ProcId).collect();
        procs.sort_by_key(|p| (table[p.index()], p.0));
        let costs = procs.iter().map(|p| table[p.index()]).collect();
        ProcessorList { procs, costs }
    }

    /// The optimal (first) processor.
    pub fn best(&self) -> ProcId {
        self.procs[0]
    }

    /// Number of processors in the list (always the full grid).
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// Whether the list is empty (never true for a valid grid).
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// Iterate `(proc, cost)` in ascending cost order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcId, u64)> + '_ {
        self.procs.iter().copied().zip(self.costs.iter().copied())
    }

    /// The first processor in the list with free memory — the paper's
    /// "first available processor" — also claiming its slot. Returns
    /// `None` only when *every* processor is full.
    pub fn assign(&self, mem: &mut MemoryMap) -> Option<ProcId> {
        self.assign_ranked(mem).map(|(p, _)| p)
    }

    /// Like [`assign`](ProcessorList::assign), but also reports the
    /// chosen processor's rank in the list — the datum's *capacity
    /// displacement*: 0 means it landed on [`best`](ProcessorList::best),
    /// `k` means the `k` cheaper processors were all full.
    pub fn assign_ranked(&self, mem: &mut MemoryMap) -> Option<(ProcId, usize)> {
        let (rank, &p) = self
            .procs
            .iter()
            .enumerate()
            .find(|&(_, &p)| mem.has_room(p))?;
        mem.allocate(p).ok()?;
        Some((p, rank))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_array::memory::MemorySpec;

    fn g() -> Grid {
        Grid::new(4, 4)
    }

    #[test]
    fn list_is_sorted_by_cost_then_id() {
        let grid = g();
        let refs = WindowRefs::from_pairs([(grid.proc_xy(1, 1), 1)]);
        let list = ProcessorList::build(&grid, &refs);
        assert_eq!(list.best(), grid.proc_xy(1, 1));
        assert_eq!(list.len(), 16);
        let pairs: Vec<_> = list.iter().collect();
        // non-decreasing cost
        for w in pairs.windows(2) {
            assert!(w[0].1 <= w[1].1);
            if w[0].1 == w[1].1 {
                assert!(w[0].0 .0 < w[1].0 .0, "ties broken by id");
            }
        }
        // distance-1 neighbours come right after the center
        assert_eq!(pairs[1].1, 1);
        assert_eq!(pairs[4].1, 1);
        assert_eq!(pairs[5].1, 2);
    }

    #[test]
    fn first_available_skips_full() {
        let grid = g();
        let refs = WindowRefs::from_pairs([(grid.proc_xy(0, 0), 1)]);
        let list = ProcessorList::build(&grid, &refs);
        let mut mem = MemoryMap::new(&grid, MemorySpec::uniform(1));
        assert_eq!(list.assign(&mut mem), Some(grid.proc_xy(0, 0)));
        // optimal now full; next cheapest is a distance-1 neighbour with
        // the lowest id: (1,0) has id 1, (0,1) has id 4.
        assert_eq!(list.assign(&mut mem), Some(grid.proc_xy(1, 0)));
        assert_eq!(list.assign(&mut mem), Some(grid.proc_xy(0, 1)));
    }

    #[test]
    fn none_when_everything_full() {
        let grid = Grid::new(2, 1);
        let list = ProcessorList::build(&grid, &WindowRefs::new());
        let mut mem = MemoryMap::new(&grid, MemorySpec::uniform(1));
        assert!(list.assign(&mut mem).is_some());
        assert!(list.assign(&mut mem).is_some());
        assert_eq!(list.assign(&mut mem), None);
    }

    #[test]
    fn assign_ranked_reports_displacement() {
        let grid = g();
        let refs = WindowRefs::from_pairs([(grid.proc_xy(0, 0), 1)]);
        let list = ProcessorList::build(&grid, &refs);
        let mut mem = MemoryMap::new(&grid, MemorySpec::uniform(1));
        assert_eq!(list.assign_ranked(&mut mem), Some((grid.proc_xy(0, 0), 0)));
        // The optimal center is full now: next datum lands one rank down.
        assert_eq!(list.assign_ranked(&mut mem), Some((grid.proc_xy(1, 0), 1)));
        assert_eq!(list.assign_ranked(&mut mem), Some((grid.proc_xy(0, 1), 2)));
    }

    #[test]
    fn from_cost_table_direct() {
        let list = ProcessorList::from_cost_table(&[5, 2, 2, 9]);
        let order: Vec<u32> = list.iter().map(|(p, _)| p.0).collect();
        assert_eq!(order, vec![1, 2, 0, 3]);
        assert!(!list.is_empty());
    }
}
