//! Reconstruction of the paper's Figure 1 worked example.
//!
//! Section 3.3 demonstrates the three schedulers on one datum `D` over a
//! 4×4 array and four execution windows, concluding:
//!
//! * SCDS places `D` at processor `(1, 0)`;
//! * LOMCDS places `D` at `(1, 0)`, `(1, 3)`, `(1, 0)`, `(1, 1)`;
//! * GOMCDS places `D` at `(1, 0)`, `(1, 0)`, `(1, 0)`, `(1, 1)`,
//!   achieving the least total cost.
//!
//! The scan of the figure loses the per-processor reference counts, so this
//! module reconstructs a reference pattern that reproduces *exactly* those
//! center sequences (verified by the `figure1` test and bench binary), with
//! strictly ordered costs `GOMCDS < LOMCDS < SCDS`:
//!
//! | window | references `(x, y) × count` |
//! |---|---|
//! | 0 | (1,0)×3, (0,0)×1, (2,0)×1 |
//! | 1 | (1,3)×1 |
//! | 2 | (1,0)×2, (0,1)×1 |
//! | 3 | (1,1)×3, (2,1)×2 |
//!
//! With these counts: SCDS total = 14, LOMCDS = 13 (6 reference + 7
//! movement), GOMCDS = 10 (9 reference + 1 movement).

use crate::space::DataSpace;
use pim_array::grid::Grid;
use pim_trace::flat::FlatTrace;
use pim_trace::window::WindowRefs;

/// Expected totals and centers of the reconstructed example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Figure1Expectation {
    /// SCDS center (all windows).
    pub scds_center: (u32, u32),
    /// SCDS total cost.
    pub scds_cost: u64,
    /// LOMCDS centers per window.
    pub lomcds_centers: [(u32, u32); 4],
    /// LOMCDS total cost.
    pub lomcds_cost: u64,
    /// GOMCDS centers per window.
    pub gomcds_centers: [(u32, u32); 4],
    /// GOMCDS total cost.
    pub gomcds_cost: u64,
}

/// The centers the paper's prose states, with the costs our reconstruction
/// yields.
pub fn expectation() -> Figure1Expectation {
    Figure1Expectation {
        scds_center: (1, 0),
        scds_cost: 14,
        lomcds_centers: [(1, 0), (1, 3), (1, 0), (1, 1)],
        lomcds_cost: 13,
        gomcds_centers: [(1, 0), (1, 0), (1, 0), (1, 1)],
        gomcds_cost: 10,
    }
}

/// The 4×4 grid of the example.
pub fn grid() -> Grid {
    Grid::new(4, 4)
}

/// Build the single-datum, four-window trace of Figure 1.
pub fn figure1_trace() -> (FlatTrace, DataSpace) {
    let g = grid();
    let windows = vec![
        WindowRefs::from_pairs([
            (g.proc_xy(1, 0), 3),
            (g.proc_xy(0, 0), 1),
            (g.proc_xy(2, 0), 1),
        ]),
        WindowRefs::from_pairs([(g.proc_xy(1, 3), 1)]),
        WindowRefs::from_pairs([(g.proc_xy(1, 0), 2), (g.proc_xy(0, 1), 1)]),
        WindowRefs::from_pairs([(g.proc_xy(1, 1), 3), (g.proc_xy(2, 1), 2)]),
    ];
    let (space, _) = DataSpace::single(1);
    let trace = FlatTrace::from_windows(g, vec![windows]).expect("example is on the grid");
    (trace, space)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sched::{schedule, MemoryPolicy, Method};
    use pim_trace::ids::DataId;

    #[test]
    fn reproduces_paper_centers_and_ordering() {
        let (trace, _) = figure1_trace();
        let g = grid();
        let exp = expectation();

        let scds = schedule(Method::Scds, &trace, MemoryPolicy::Unbounded);
        assert_eq!(
            scds.center(DataId(0), 0),
            g.proc_xy(exp.scds_center.0, exp.scds_center.1)
        );
        assert_eq!(scds.evaluate(&trace).total(), exp.scds_cost);

        let lomcds = schedule(Method::Lomcds, &trace, MemoryPolicy::Unbounded);
        for (w, &(x, y)) in exp.lomcds_centers.iter().enumerate() {
            assert_eq!(lomcds.center(DataId(0), w), g.proc_xy(x, y), "LOMCDS w{w}");
        }
        assert_eq!(lomcds.evaluate(&trace).total(), exp.lomcds_cost);

        let gomcds = schedule(Method::Gomcds, &trace, MemoryPolicy::Unbounded);
        for (w, &(x, y)) in exp.gomcds_centers.iter().enumerate() {
            assert_eq!(gomcds.center(DataId(0), w), g.proc_xy(x, y), "GOMCDS w{w}");
        }
        assert_eq!(gomcds.evaluate(&trace).total(), exp.gomcds_cost);

        // the paper's headline: GOMCDS strictly best
        assert!(exp.gomcds_cost < exp.lomcds_cost);
        assert!(exp.lomcds_cost < exp.scds_cost);
    }
}
