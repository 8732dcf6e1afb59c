//! Per-processor memory capacity accounting.
//!
//! The paper assumes each processor can hold a limited number of data; when
//! the optimal center for a datum is full, the datum falls back to the next
//! processor in a cost-sorted *processor list*. The experiments fix the
//! capacity at twice the minimum a balanced distribution requires (e.g. an
//! 8×8 data array on a 4×4 grid needs 4 slots per processor minimum, so
//! each processor holds 8).

use crate::grid::{Grid, ProcId};

/// How much data each processor's local memory can hold, in data units
/// (one unit = one datum; the paper's model is per-element).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemorySpec {
    /// Capacity of each processor, in data units.
    pub capacity_per_proc: u32,
}

impl MemorySpec {
    /// A uniform capacity.
    pub fn uniform(capacity_per_proc: u32) -> Self {
        MemorySpec { capacity_per_proc }
    }

    /// Effectively unlimited memory (the unconstrained model used when
    /// studying the pure scheduling question).
    pub fn unbounded() -> Self {
        MemorySpec {
            capacity_per_proc: u32::MAX,
        }
    }

    /// The paper's experimental rule: capacity is `factor ×` the minimum a
    /// balanced distribution of `total_data` items over `grid` requires.
    ///
    /// "We assume that the memory size of processor is twice more than the
    /// minimum memory size it requires" → `factor = 2`.
    pub fn scaled_minimum(grid: &Grid, total_data: usize, factor: u32) -> Self {
        let min = total_data.div_ceil(grid.num_procs());
        MemorySpec {
            capacity_per_proc: (min as u32).saturating_mul(factor).max(1),
        }
    }

    /// Whether this spec can hold `total_data` items at all on `grid`.
    pub fn feasible(&self, grid: &Grid, total_data: usize) -> bool {
        (self.capacity_per_proc as u128) * (grid.num_procs() as u128) >= total_data as u128
    }
}

/// Error returned when an allocation would exceed a processor's capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityError {
    /// The processor that was full.
    pub proc: ProcId,
    /// Its capacity.
    pub capacity: u32,
}

impl core::fmt::Display for CapacityError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} is full (capacity {})", self.proc, self.capacity)
    }
}

impl std::error::Error for CapacityError {}

/// Occupancy tracker for one snapshot in time (one execution window).
///
/// The scheduling algorithms allocate one slot per datum stored on a
/// processor during a window; movement between windows frees the old slot
/// and claims a new one, which is modelled by using one `MemoryMap` per
/// window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryMap {
    spec: MemorySpec,
    used: Vec<u32>,
}

impl MemoryMap {
    /// Fresh, empty occupancy map for a grid.
    pub fn new(grid: &Grid, spec: MemorySpec) -> Self {
        MemoryMap {
            spec,
            used: vec![0; grid.num_procs()],
        }
    }

    /// The capacity spec this map enforces.
    pub fn spec(&self) -> MemorySpec {
        self.spec
    }

    /// Units currently allocated on `p`.
    #[inline]
    pub fn used(&self, p: ProcId) -> u32 {
        self.used[p.index()]
    }

    /// Free units remaining on `p`.
    #[inline]
    pub fn free(&self, p: ProcId) -> u32 {
        self.spec.capacity_per_proc - self.used[p.index()]
    }

    /// Whether `p` can accept one more datum.
    #[inline]
    pub fn has_room(&self, p: ProcId) -> bool {
        self.used[p.index()] < self.spec.capacity_per_proc
    }

    /// Claim one slot on `p`.
    pub fn allocate(&mut self, p: ProcId) -> Result<(), CapacityError> {
        if self.has_room(p) {
            self.used[p.index()] += 1;
            Ok(())
        } else {
            Err(CapacityError {
                proc: p,
                capacity: self.spec.capacity_per_proc,
            })
        }
    }

    /// Release one slot on `p`.
    ///
    /// # Panics
    /// Panics if `p` has no allocated slots (double free).
    pub fn release(&mut self, p: ProcId) {
        assert!(self.used[p.index()] > 0, "release on empty {p}");
        self.used[p.index()] -= 1;
    }

    /// Total units allocated across the whole array.
    pub fn total_used(&self) -> u64 {
        self.used.iter().map(|&u| u as u64).sum()
    }

    /// Highest occupancy of any processor — a load-balance diagnostic.
    pub fn max_used(&self) -> u32 {
        self.used.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid {
        Grid::new(4, 4)
    }

    #[test]
    fn scaled_minimum_matches_paper_rule() {
        // 8x8 data on 4x4 grid, factor 2 → "the memory size of each
        // processor is eight".
        let spec = MemorySpec::scaled_minimum(&grid(), 64, 2);
        assert_eq!(spec.capacity_per_proc, 8);
        let spec = MemorySpec::scaled_minimum(&grid(), 16 * 16, 2);
        assert_eq!(spec.capacity_per_proc, 32);
    }

    #[test]
    fn scaled_minimum_rounds_up() {
        // 17 items on 16 procs → min 2 → capacity 4 at factor 2.
        let spec = MemorySpec::scaled_minimum(&grid(), 17, 2);
        assert_eq!(spec.capacity_per_proc, 4);
        // Never zero even for tiny data sets.
        let spec = MemorySpec::scaled_minimum(&grid(), 0, 2);
        assert_eq!(spec.capacity_per_proc, 1);
    }

    #[test]
    fn feasibility() {
        let g = grid();
        assert!(MemorySpec::uniform(4).feasible(&g, 64));
        assert!(!MemorySpec::uniform(3).feasible(&g, 64));
        assert!(MemorySpec::unbounded().feasible(&g, 1_000_000));
    }

    #[test]
    fn allocate_release_cycle() {
        let g = grid();
        let mut m = MemoryMap::new(&g, MemorySpec::uniform(2));
        let p = g.proc_xy(1, 1);
        assert_eq!(m.free(p), 2);
        m.allocate(p).unwrap();
        m.allocate(p).unwrap();
        assert!(!m.has_room(p));
        assert_eq!(
            m.allocate(p),
            Err(CapacityError {
                proc: p,
                capacity: 2
            })
        );
        m.release(p);
        assert!(m.has_room(p));
        assert_eq!(m.total_used(), 1);
        assert_eq!(m.max_used(), 1);
    }

    #[test]
    #[should_panic(expected = "release on empty")]
    fn double_free_panics() {
        let g = grid();
        let mut m = MemoryMap::new(&g, MemorySpec::uniform(2));
        m.release(g.proc_xy(0, 0));
    }

    #[test]
    fn capacity_error_displays() {
        let e = CapacityError {
            proc: ProcId(3),
            capacity: 8,
        };
        assert_eq!(e.to_string(), "P3 is full (capacity 8)");
    }
}
