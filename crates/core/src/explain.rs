//! Human-readable schedule explanations.
//!
//! A schedule is a matrix of processor ids — opaque when debugging why a
//! cost went up. [`explain_data`] narrates one datum's life: where it
//! lives in each window, what each window's references cost from there,
//! what each move cost, and how far the window sat from its local optimum.
//! [`summarize`] aggregates the whole schedule into the handful of numbers
//! a person actually scans. Both back the CLI's `explain` output.

use crate::cost::{span_cost_at, span_optimal_center};
use crate::flat::datum_cost;
use crate::schedule::Schedule;
use pim_trace::flat::FlatView;
use pim_trace::ids::DataId;

/// One window of a datum's story.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowExplanation {
    /// Window index.
    pub window: usize,
    /// Where the datum lives.
    pub center: (u32, u32),
    /// Reference cost served from there.
    pub reference_cost: u64,
    /// Cost of the move *into* this window (0 for window 0 or no move).
    pub move_cost: u64,
    /// How much cheaper the window's local optimal center would have been
    /// (0 = the schedule sits on the local optimum).
    pub regret: u64,
}

/// Narrate one datum's schedule.
pub fn explain_data(
    trace: &(impl FlatView + ?Sized),
    schedule: &Schedule,
    d: DataId,
) -> Vec<WindowExplanation> {
    let grid = trace.grid();
    let nw = trace.num_windows();
    let mut out = Vec::with_capacity(nw);
    for w in 0..nw {
        let refs = trace.window_run(d, w);
        let center = schedule.center(d, w);
        let reference_cost = span_cost_at(&grid, refs, center);
        let move_cost = if w == 0 {
            0
        } else {
            grid.dist(schedule.center(d, w - 1), center)
        };
        let regret = if refs.is_empty() {
            0
        } else {
            reference_cost - span_optimal_center(&grid, refs).1
        };
        let p = grid.point_of(center);
        out.push(WindowExplanation {
            window: w,
            center: (p.x, p.y),
            reference_cost,
            move_cost,
            regret,
        });
    }
    out
}

/// Render one datum's explanation as text.
pub fn render_data(trace: &(impl FlatView + ?Sized), schedule: &Schedule, d: DataId) -> String {
    let mut out = format!("{d}:\n");
    for e in explain_data(trace, schedule, d) {
        out.push_str(&format!(
            "  w{:<3} at ({},{})  ref {:<5} move {:<4}{}\n",
            e.window,
            e.center.0,
            e.center.1,
            e.reference_cost,
            e.move_cost,
            if e.regret > 0 {
                format!(" (local optimum would save {})", e.regret)
            } else {
                String::new()
            }
        ));
    }
    out
}

/// Whole-schedule summary numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleSummary {
    /// Total cost.
    pub total: u64,
    /// Total movement component.
    pub movement: u64,
    /// Number of moves.
    pub moves: u64,
    /// Sum of per-window regrets (distance from per-window optima); zero
    /// for LOMCDS by construction, positive when movement-awareness traded
    /// local optimality away.
    pub total_regret: u64,
    /// The datum with the highest individual cost.
    pub costliest_data: DataId,
    /// That datum's cost.
    pub costliest_cost: u64,
}

/// Summarize a schedule against its trace.
pub fn summarize(trace: &(impl FlatView + ?Sized), schedule: &Schedule) -> ScheduleSummary {
    let cost = schedule.evaluate(trace);
    let mut total_regret = 0u64;
    let mut worst = (DataId(0), 0u64);
    for d in 0..trace.num_data() {
        let d = DataId(d as u32);
        let per = datum_cost(&trace.grid(), trace.span(d), schedule.centers_of(d), 1).total();
        if per > worst.1 {
            worst = (d, per);
        }
        for e in explain_data(trace, schedule, d) {
            total_regret += e.regret;
        }
    }
    ScheduleSummary {
        total: cost.total(),
        movement: cost.movement,
        moves: schedule.num_moves(),
        total_regret,
        costliest_data: worst.0,
        costliest_cost: worst.1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{schedule, MemoryPolicy, Method};
    use pim_array::grid::Grid;
    use pim_trace::flat::FlatTrace;
    use pim_trace::window::WindowRefs;

    fn sample() -> FlatTrace {
        let grid = Grid::new(4, 4);
        FlatTrace::from_windows(
            grid,
            vec![vec![
                WindowRefs::from_pairs([(grid.proc_xy(0, 0), 5)]),
                WindowRefs::from_pairs([(grid.proc_xy(3, 0), 1)]),
                WindowRefs::from_pairs([(grid.proc_xy(0, 0), 5)]),
            ]],
        )
        .unwrap()
    }

    #[test]
    fn gomcds_trades_regret_for_movement() {
        let trace = sample();
        let s = schedule(Method::Gomcds, &trace, MemoryPolicy::Unbounded);
        let story = explain_data(&trace, &s, DataId(0));
        // GOMCDS stays at (0,0): window 1 has regret 3, no moves anywhere
        assert_eq!(story[0].regret, 0);
        assert_eq!(story[1].regret, 3);
        assert_eq!(story.iter().map(|e| e.move_cost).sum::<u64>(), 0);
        let sum = summarize(&trace, &s);
        assert_eq!(sum.total_regret, 3);
        assert_eq!(sum.moves, 0);
        assert_eq!(sum.costliest_data, DataId(0));
        assert_eq!(sum.costliest_cost, sum.total);
    }

    #[test]
    fn lomcds_has_zero_regret() {
        let trace = sample();
        let s = schedule(Method::Lomcds, &trace, MemoryPolicy::Unbounded);
        let sum = summarize(&trace, &s);
        assert_eq!(sum.total_regret, 0, "LOMCDS sits on every local optimum");
        assert!(sum.moves > 0);
    }

    #[test]
    fn explanation_costs_reconcile_with_evaluate() {
        let trace = sample();
        for m in [Method::Scds, Method::Lomcds, Method::Gomcds] {
            let s = schedule(m, &trace, MemoryPolicy::Unbounded);
            let story = explain_data(&trace, &s, DataId(0));
            let total: u64 = story.iter().map(|e| e.reference_cost + e.move_cost).sum();
            assert_eq!(total, s.evaluate(&trace).total(), "{m}");
        }
    }

    #[test]
    fn render_shows_moves_and_regret() {
        let trace = sample();
        let s = schedule(Method::Lomcds, &trace, MemoryPolicy::Unbounded);
        let text = render_data(&trace, &s, DataId(0));
        assert!(text.contains("D0:"));
        assert!(text.contains("w0"));
        assert!(text.contains("(0,0)"));
        let s2 = schedule(Method::Gomcds, &trace, MemoryPolicy::Unbounded);
        let text2 = render_data(&trace, &s2, DataId(0));
        assert!(text2.contains("local optimum would save 3"));
    }
}
