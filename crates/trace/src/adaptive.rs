//! Adaptive windowing.
//!
//! Fixed `steps_per_window` bucketing (the paper's setup) is oblivious to
//! what the steps actually reference; Algorithm 3 then re-merges windows
//! per datum after the fact. This module attacks the same problem from the
//! front: cut a window boundary only when the *application-wide* reference
//! pattern moves — specifically, when the volume-weighted centroid of a
//! step's references drifts more than `drift_threshold` Manhattan units
//! from the centroid of the window accumulated so far, or the window
//! reaches `max_steps`.
//!
//! The `sweep_adaptive` experiment compares fixed and adaptive windowing
//! at equal window counts; adaptive windows track phase changes (e.g. the
//! LU → CODE seam in benchmark 3) instead of splitting them mid-phase.

use crate::flat::FlatTrace;
use crate::step::StepTrace;
use pim_array::grid::Grid;

/// Parameters for adaptive windowing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveParams {
    /// Cut when the new step's centroid is farther than this from the
    /// running window centroid (in Manhattan grid units).
    pub drift_threshold: f64,
    /// Hard cap on steps per window (keeps windows bounded on stationary
    /// phases).
    pub max_steps: usize,
}

impl Default for AdaptiveParams {
    fn default() -> Self {
        AdaptiveParams {
            drift_threshold: 1.0,
            max_steps: 16,
        }
    }
}

/// Volume-weighted centroid of one step's accesses, or `None` for an idle
/// step.
fn step_centroid(grid: &Grid, step: &crate::step::ExecStep) -> Option<(f64, f64)> {
    let mut vol = 0u64;
    let (mut sx, mut sy) = (0f64, 0f64);
    for a in &step.accesses {
        let p = grid.point_of(a.proc);
        vol += a.count as u64;
        sx += a.count as f64 * p.x as f64;
        sy += a.count as f64 * p.y as f64;
    }
    (vol > 0).then(|| (sx / vol as f64, sy / vol as f64))
}

/// Bucket steps into windows adaptively. Returns the windowed trace and
/// the chosen boundaries (start step index of each window).
pub fn window_adaptive(trace: &StepTrace, params: AdaptiveParams) -> (FlatTrace, Vec<usize>) {
    assert!(params.max_steps > 0, "max_steps must be positive");
    let grid = trace.grid;
    let mut boundaries = vec![0usize];
    let mut acc: Option<(f64, f64, u64)> = None; // running centroid (x, y, volume)
    let mut len = 0usize;

    for (i, step) in trace.steps.iter().enumerate() {
        let sc = step_centroid(&grid, step);
        let cut = if i == 0 {
            false
        } else if len >= params.max_steps {
            true
        } else {
            match (acc, sc) {
                (Some((ax, ay, _)), Some((sx, sy))) => {
                    (ax - sx).abs() + (ay - sy).abs() > params.drift_threshold
                }
                _ => false, // idle steps never force a cut
            }
        };
        if cut {
            boundaries.push(i);
            acc = None;
            len = 0;
        }
        if let Some((sx, sy)) = sc {
            let vol = step.total_refs();
            acc = Some(match acc {
                None => (sx, sy, vol),
                Some((ax, ay, av)) => {
                    let total = av + vol;
                    (
                        (ax * av as f64 + sx * vol as f64) / total as f64,
                        (ay * av as f64 + sy * vol as f64) / total as f64,
                        total,
                    )
                }
            });
        }
        len += 1;
    }

    let num_windows = boundaries.len();
    let bounds = boundaries.clone();
    let windowed = trace.window_by(
        move |step_idx| match bounds.binary_search(&step_idx) {
            Ok(w) => w,
            Err(w) => w - 1,
        },
        num_windows,
    );
    (windowed, boundaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::ids::DataId;
    use pim_array::grid::Grid;

    fn two_phase_trace() -> StepTrace {
        // 4 steps at (0,0), then 4 steps at (3,3)
        let g = Grid::new(4, 4);
        let mut b = TraceBuilder::new(g, 1);
        for _ in 0..4 {
            b.step().access_n(g.proc_xy(0, 0), DataId(0), 3);
        }
        for _ in 0..4 {
            b.step().access_n(g.proc_xy(3, 3), DataId(0), 3);
        }
        b.finish()
    }

    #[test]
    fn cuts_exactly_at_the_phase_change() {
        let t = two_phase_trace();
        let (w, bounds) = window_adaptive(
            &t,
            AdaptiveParams {
                drift_threshold: 1.0,
                max_steps: 100,
            },
        );
        assert_eq!(bounds, vec![0, 4]);
        assert_eq!(w.num_windows(), 2);
        let volume = |i| -> u32 { w.window_run(DataId(0), i).iter().map(|r| r.count).sum() };
        assert_eq!(volume(0), 12);
        assert_eq!(volume(1), 12);
    }

    #[test]
    fn max_steps_caps_stationary_phases() {
        let t = two_phase_trace();
        let (w, bounds) = window_adaptive(
            &t,
            AdaptiveParams {
                drift_threshold: 100.0, // never drift-cut
                max_steps: 3,
            },
        );
        assert_eq!(bounds, vec![0, 3, 6]);
        assert_eq!(w.num_windows(), 3);
    }

    #[test]
    fn huge_threshold_single_window() {
        let t = two_phase_trace();
        let (w, bounds) = window_adaptive(
            &t,
            AdaptiveParams {
                drift_threshold: 1e9,
                max_steps: 1000,
            },
        );
        assert_eq!(bounds, vec![0]);
        assert_eq!(w.num_windows(), 1);
    }

    #[test]
    fn idle_steps_do_not_cut() {
        let g = Grid::new(4, 4);
        let mut b = TraceBuilder::new(g, 1);
        b.step().access(g.proc_xy(0, 0), DataId(0));
        b.step(); // idle
        b.step().access(g.proc_xy(0, 0), DataId(0));
        let t = {
            // keep the idle step: builder drops only *trailing* empties
            let mut t = b.finish();
            assert_eq!(t.num_steps(), 3);
            t.steps[1].accesses.clear();
            t
        };
        let (w, bounds) = window_adaptive(&t, AdaptiveParams::default());
        assert_eq!(bounds, vec![0]);
        assert_eq!(w.num_windows(), 1);
    }

    #[test]
    fn volume_is_preserved() {
        let t = two_phase_trace();
        for threshold in [0.5, 1.0, 3.0, 1e9] {
            let (w, _) = window_adaptive(
                &t,
                AdaptiveParams {
                    drift_threshold: threshold,
                    max_steps: 5,
                },
            );
            assert_eq!(w.total_volume(), t.total_refs());
        }
    }
}
