//! Aggregated simulation results.

use pim_array::grid::Grid;
use pim_array::routing::LinkIndex;

/// Per-window statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowStats {
    /// Window index.
    pub window: usize,
    /// Hop-volume of reference (fetch) traffic.
    pub fetch_hop_volume: u64,
    /// Hop-volume of data-movement traffic leaving this window.
    pub move_hop_volume: u64,
    /// Number of non-local messages.
    pub num_messages: u64,
    /// Idealized lower-bound completion time (see [`crate::contention`]).
    pub completion_time: u64,
}

impl WindowStats {
    /// Fetch plus move hop-volume.
    pub fn total_hop_volume(&self) -> u64 {
        self.fetch_hop_volume + self.move_hop_volume
    }
}

/// Full simulation report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    grid: Grid,
    windows: Vec<WindowStats>,
    link_volume: Vec<u64>,
}

impl SimReport {
    /// Assemble a report (used by the engine).
    pub fn new(grid: Grid, windows: Vec<WindowStats>, link_volume: Vec<u64>) -> Self {
        SimReport {
            grid,
            windows,
            link_volume,
        }
    }

    /// Per-window statistics in window order.
    pub fn windows(&self) -> &[WindowStats] {
        &self.windows
    }

    /// Per-link accumulated volume, indexed by
    /// [`pim_array::routing::LinkIndex`] slots.
    pub fn link_volume(&self) -> &[u64] {
        &self.link_volume
    }

    /// Total fetch hop-volume.
    pub fn total_fetch_hop_volume(&self) -> u64 {
        self.windows.iter().map(|w| w.fetch_hop_volume).sum()
    }

    /// Total movement hop-volume.
    pub fn total_move_hop_volume(&self) -> u64 {
        self.windows.iter().map(|w| w.move_hop_volume).sum()
    }

    /// Total hop-volume — must equal the analytic total cost.
    pub fn total_hop_volume(&self) -> u64 {
        self.total_fetch_hop_volume() + self.total_move_hop_volume()
    }

    /// Sum of per-window completion-time lower bounds.
    pub fn total_completion_time(&self) -> u64 {
        self.windows.iter().map(|w| w.completion_time).sum()
    }

    /// The most loaded link and its volume, if any traffic flowed.
    ///
    /// Ties break deterministically to the **lowest link slot** (the
    /// first maximal link in [`LinkIndex`] order): the scan only replaces
    /// the champion on a strictly greater volume, so equal-volume links
    /// keep the earliest slot.
    pub fn hottest_link(&self) -> Option<(pim_array::routing::Link, u64)> {
        let links = LinkIndex::new(self.grid);
        let mut best: Option<(usize, u64)> = None;
        for (slot, &v) in self.link_volume.iter().enumerate() {
            if v > 0 && best.is_none_or(|(_, bv)| v > bv) {
                best = Some((slot, v));
            }
        }
        best.and_then(|(slot, v)| links.link_of(slot).map(|l| (l, v)))
    }

    /// Mean volume over links that carried any traffic. One pass over the
    /// link table — no per-call allocation.
    pub fn mean_active_link_volume(&self) -> f64 {
        let mut sum = 0u64;
        let mut count = 0u64;
        for &v in &self.link_volume {
            if v > 0 {
                sum += v;
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }

    /// Load imbalance: hottest link volume over mean active link volume
    /// (1.0 = perfectly even, higher = concentrated).
    pub fn link_imbalance(&self) -> f64 {
        let mean = self.mean_active_link_volume();
        match self.hottest_link() {
            Some((_, max)) if mean > 0.0 => max as f64 / mean,
            _ => 0.0,
        }
    }
}

impl core::fmt::Display for SimReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "simulated {} windows on {}: hop-volume {} (fetch {}, move {})",
            self.windows.len(),
            self.grid,
            self.total_hop_volume(),
            self.total_fetch_hop_volume(),
            self.total_move_hop_volume(),
        )?;
        writeln!(
            f,
            "  completion-time lower bound: {}",
            self.total_completion_time()
        )?;
        if let Some((link, v)) = self.hottest_link() {
            writeln!(
                f,
                "  hottest link {link}: volume {v} (imbalance {:.2}x)",
                self.link_imbalance()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimReport {
        let grid = Grid::new(2, 2);
        let links = LinkIndex::new(grid);
        let mut lv = vec![0u64; links.num_slots()];
        let l = links.index_of(pim_array::routing::Link {
            from: grid.proc_xy(0, 0),
            to: grid.proc_xy(1, 0),
        });
        lv[l] = 6;
        let l2 = links.index_of(pim_array::routing::Link {
            from: grid.proc_xy(1, 0),
            to: grid.proc_xy(1, 1),
        });
        lv[l2] = 2;
        SimReport::new(
            grid,
            vec![
                WindowStats {
                    window: 0,
                    fetch_hop_volume: 5,
                    move_hop_volume: 1,
                    num_messages: 2,
                    completion_time: 6,
                },
                WindowStats {
                    window: 1,
                    fetch_hop_volume: 2,
                    move_hop_volume: 0,
                    num_messages: 1,
                    completion_time: 2,
                },
            ],
            lv,
        )
    }

    #[test]
    fn totals() {
        let r = sample();
        assert_eq!(r.total_fetch_hop_volume(), 7);
        assert_eq!(r.total_move_hop_volume(), 1);
        assert_eq!(r.total_hop_volume(), 8);
        assert_eq!(r.total_completion_time(), 8);
        assert_eq!(r.windows()[0].total_hop_volume(), 6);
    }

    #[test]
    fn hottest_link_and_imbalance() {
        let r = sample();
        let (link, v) = r.hottest_link().unwrap();
        assert_eq!(v, 6);
        assert_eq!(link.from, pim_array::grid::ProcId(0));
        assert_eq!(r.mean_active_link_volume(), 4.0);
        assert_eq!(r.link_imbalance(), 1.5);
    }

    #[test]
    fn hottest_link_ties_pick_lowest_slot() {
        let grid = Grid::new(2, 2);
        let links = LinkIndex::new(grid);
        // every link carries the same volume → slot 0's link must win
        let lv = vec![3u64; links.num_slots()];
        let r = SimReport::new(grid, vec![], lv);
        let (link, v) = r.hottest_link().unwrap();
        assert_eq!(v, 3);
        assert_eq!(links.index_of(link), 0, "tie must resolve to slot 0");
        assert_eq!(links.link_of(0), Some(link));
    }

    #[test]
    fn display_renders() {
        let s = sample().to_string();
        assert!(s.contains("hop-volume 8"));
        assert!(s.contains("hottest link"));
    }

    #[test]
    fn empty_report() {
        let grid = Grid::new(2, 2);
        let links = LinkIndex::new(grid);
        let r = SimReport::new(grid, vec![], vec![0; links.num_slots()]);
        assert_eq!(r.total_hop_volume(), 0);
        assert_eq!(r.hottest_link(), None);
        assert_eq!(r.link_imbalance(), 0.0);
    }
}
