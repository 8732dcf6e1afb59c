//! ASCII rendering of network utilization.
//!
//! Renders the grid with per-processor traffic intensity and the four
//! inter-node link directions, so a scheduler's effect on *where* traffic
//! flows is visible at a glance in a terminal:
//!
//! ```text
//! [ 86]==[142]--[ 57]--[  3]
//!   ||     |
//! [ 40]--[ 91]==[ 12]--[  0]
//! ```
//!
//! `==`/`||` mark links above the hot threshold (75th percentile of active
//! links), `--`/`|` active links, spaces idle ones.

use crate::report::SimReport;
use crate::traffic::TrafficMap;
use pim_array::grid::Grid;
use pim_array::routing::{Link, LinkIndex};

/// Render per-node total traffic and link intensity.
pub fn render(grid: &Grid, report: &SimReport, traffic: &TrafficMap) -> String {
    let links = LinkIndex::new(*grid);
    let volume = |from, to| -> u64 {
        let slot = links.index_of(Link { from, to });
        report.link_volume()[slot]
    };
    // both directions of a physical channel, combined for display
    let channel = |a, b| volume(a, b) + volume(b, a);

    let hot = hot_threshold(report.link_volume());

    let mut out = String::new();
    for y in 0..grid.height() {
        // node row with horizontal channels
        for x in 0..grid.width() {
            let p = grid.proc_xy(x, y);
            out.push_str(&format!("[{:>4}]", traffic.node(p).total()));
            if x + 1 < grid.width() {
                let v = channel(p, grid.proc_xy(x + 1, y));
                out.push_str(link_glyph_h(v, hot));
            }
        }
        out.push('\n');
        // vertical channels row
        if y + 1 < grid.height() {
            for x in 0..grid.width() {
                let v = channel(grid.proc_xy(x, y), grid.proc_xy(x, y + 1));
                out.push_str(&format!("  {}   ", link_glyph_v(v, hot)));
                if x + 1 < grid.width() {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        }
    }
    out
}

fn link_glyph_h(v: u64, hot: u64) -> &'static str {
    if v == 0 {
        "  "
    } else if v >= hot {
        "=="
    } else {
        "--"
    }
}

fn link_glyph_v(v: u64, hot: u64) -> &'static str {
    if v == 0 {
        " "
    } else if v >= hot {
        "‖"
    } else {
        "|"
    }
}

/// 75th percentile of active (non-zero) link volumes; `u64::MAX` when no
/// link carried traffic (so nothing renders hot).
fn hot_threshold(link_volume: &[u64]) -> u64 {
    let mut active: Vec<u64> = link_volume.iter().copied().filter(|&v| v > 0).collect();
    if active.is_empty() {
        return u64::MAX;
    }
    active.sort_unstable();
    active[(active.len() - 1) * 3 / 4]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::traffic::traffic_map;
    use pim_par::Pool;
    use pim_sched::schedule::Schedule;
    use pim_trace::flat::FlatTrace;
    use pim_trace::window::WindowRefs;

    #[test]
    fn renders_expected_shape() {
        let grid = Grid::new(3, 2);
        let trace = FlatTrace::from_windows(
            grid,
            vec![vec![WindowRefs::from_pairs([(grid.proc_xy(2, 0), 4)])]],
        )
        .unwrap();
        let s = Schedule::static_placement(grid, vec![grid.proc_xy(0, 0)], 1);
        let report = simulate(&trace, &s, Pool::serial());
        let t = traffic_map(&trace, &s);
        let art = render(&grid, &report, &t);
        // 2 node rows + 1 vertical-channel row
        assert_eq!(art.lines().count(), 3);
        // the route (0,0)->(1,0)->(2,0) is the only traffic: both its
        // channels render hot, everything else idle
        let first = art.lines().next().unwrap();
        assert!(first.contains("=="), "{art}");
        let second_row = art.lines().nth(2).unwrap();
        assert!(
            !second_row.contains("--") && !second_row.contains("=="),
            "{art}"
        );
        // node totals appear
        assert!(first.contains("[   4]"), "{art}");
    }

    #[test]
    fn idle_network_has_no_glyphs() {
        let grid = Grid::new(2, 2);
        let trace = FlatTrace::from_windows(grid, vec![vec![WindowRefs::new()]]).unwrap();
        let s = Schedule::static_placement(grid, vec![grid.proc_xy(0, 0)], 1);
        let report = simulate(&trace, &s, Pool::serial());
        let t = traffic_map(&trace, &s);
        let art = render(&grid, &report, &t);
        assert!(!art.contains("--"));
        assert!(!art.contains("=="));
        assert!(!art.contains('|'));
        assert!(art.contains("[   0]"));
    }

    #[test]
    fn hot_threshold_math() {
        assert_eq!(hot_threshold(&[0, 0, 0]), u64::MAX);
        assert_eq!(hot_threshold(&[5]), 5);
        assert_eq!(hot_threshold(&[1, 2, 3, 4, 0, 0]), 3);
    }
}
