//! Descriptive statistics over traces.
//!
//! The paper observes that data movement pays off "especially for the
//! benchmarks with complicated data reference patterns". These statistics
//! quantify "complicated": how many distinct processors touch a datum, how
//! spread-out they are, and how much the hot set shifts between windows.

use crate::flat::{span_window_runs, FlatRef, FlatView};
use crate::ids::DataId;

/// Summary statistics of one windowed trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Number of data items.
    pub num_data: usize,
    /// Number of execution windows.
    pub num_windows: usize,
    /// Total reference volume.
    pub total_volume: u64,
    /// Number of data items never referenced at all.
    pub never_referenced: usize,
    /// Mean distinct referencing processors per (datum, window) with any
    /// references.
    pub mean_procs_per_window: f64,
    /// Mean spatial spread: average volume-weighted distance of a window's
    /// references from the window's volume centroid-nearest processor.
    pub mean_spread: f64,
    /// Mean inter-window drift: average distance between the weighted
    /// centroids of consecutive non-empty windows of the same datum. High
    /// drift is what makes multiple-center scheduling win.
    pub mean_drift: f64,
}

/// Volume-weighted centroid of one window's references (a window run of a
/// flat span) in continuous grid coordinates, or `None` when empty.
pub fn centroid(run: &[FlatRef]) -> Option<(f64, f64)> {
    let vol: u64 = run.iter().map(|r| r.count as u64).sum();
    if vol == 0 {
        return None;
    }
    let (mut sx, mut sy) = (0f64, 0f64);
    for r in run {
        sx += r.count as f64 * r.x as f64;
        sy += r.count as f64 * r.y as f64;
    }
    Some((sx / vol as f64, sy / vol as f64))
}

/// Mean volume-weighted L1 distance of one window's references from their
/// centroid.
pub fn spread(run: &[FlatRef]) -> f64 {
    let Some((cx, cy)) = centroid(run) else {
        return 0.0;
    };
    let vol: u64 = run.iter().map(|r| r.count as u64).sum();
    let mut acc = 0f64;
    for r in run {
        acc += r.count as f64 * ((r.x as f64 - cx).abs() + (r.y as f64 - cy).abs());
    }
    acc / vol as f64
}

/// Compute [`TraceStats`] for a trace.
pub fn trace_stats<V: FlatView + ?Sized>(trace: &V) -> TraceStats {
    let mut never = 0usize;
    let mut windows_with_refs = 0u64;
    let mut procs_acc = 0u64;
    let mut spread_acc = 0f64;
    let mut drift_acc = 0f64;
    let mut drift_n = 0u64;

    for d in 0..trace.num_data() {
        let span = trace.span(DataId(d as u32));
        if span.is_empty() {
            never += 1;
            continue;
        }
        let mut prev_centroid: Option<(f64, f64)> = None;
        for (_, run) in span_window_runs(span) {
            windows_with_refs += 1;
            procs_acc += run.len() as u64;
            spread_acc += spread(run);
            let c = centroid(run).expect("non-empty window has centroid");
            if let Some(pc) = prev_centroid {
                drift_acc += (c.0 - pc.0).abs() + (c.1 - pc.1).abs();
                drift_n += 1;
            }
            prev_centroid = Some(c);
        }
    }

    TraceStats {
        num_data: trace.num_data(),
        num_windows: trace.num_windows(),
        total_volume: trace.total_volume(),
        never_referenced: never,
        mean_procs_per_window: if windows_with_refs > 0 {
            procs_acc as f64 / windows_with_refs as f64
        } else {
            0.0
        },
        mean_spread: if windows_with_refs > 0 {
            spread_acc / windows_with_refs as f64
        } else {
            0.0
        },
        mean_drift: if drift_n > 0 {
            drift_acc / drift_n as f64
        } else {
            0.0
        },
    }
}

/// Per-datum reference volume histogram (index = datum id).
pub fn volume_per_data<V: FlatView + ?Sized>(trace: &V) -> Vec<u64> {
    (0..trace.num_data())
        .map(|d| {
            let span = trace.span(DataId(d as u32));
            span.iter().map(|r| r.count as u64).sum()
        })
        .collect()
}

/// Per-window total reference volume (the application's activity series).
pub fn volume_per_window<V: FlatView + ?Sized>(trace: &V) -> Vec<u64> {
    let mut out = vec![0u64; trace.num_windows()];
    for d in 0..trace.num_data() {
        for r in trace.span(DataId(d as u32)) {
            out[r.window as usize] += r.count as u64;
        }
    }
    out
}

/// Shannon entropy (bits) of the per-datum volume distribution. Low
/// entropy = a few hot data dominate (the regime where good placement of
/// a handful of items wins); the maximum is `log2(num_data)` for a
/// perfectly uniform trace.
pub fn volume_entropy<V: FlatView + ?Sized>(trace: &V) -> f64 {
    let vols = volume_per_data(trace);
    let total: u64 = vols.iter().sum();
    if total == 0 {
        return 0.0;
    }
    -vols
        .iter()
        .filter(|&&v| v > 0)
        .map(|&v| {
            let p = v as f64 / total as f64;
            p * p.log2()
        })
        .sum::<f64>()
}

/// Gini coefficient of the per-datum volume distribution: 0 = perfectly
/// uniform, → 1 = all references on one datum.
pub fn volume_gini<V: FlatView + ?Sized>(trace: &V) -> f64 {
    let mut vols = volume_per_data(trace);
    let total: u64 = vols.iter().sum();
    let n = vols.len();
    if total == 0 || n == 0 {
        return 0.0;
    }
    vols.sort_unstable();
    // Gini = (2·Σ i·x_i) / (n·Σ x) − (n + 1)/n  with 1-based ranks i
    let weighted: u128 = vols
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as u128 + 1) * v as u128)
        .sum();
    (2.0 * weighted as f64) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
}

/// The most referenced datum and its volume, or `None` for an empty trace.
pub fn hottest_data<V: FlatView + ?Sized>(trace: &V) -> Option<(DataId, u64)> {
    volume_per_data(trace)
        .into_iter()
        .enumerate()
        .map(|(d, v)| (DataId(d as u32), v))
        .max_by_key(|&(_, v)| v)
        .filter(|&(_, v)| v > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatTrace;
    use crate::window::WindowRefs;
    use pim_array::grid::{Grid, ProcId};

    fn g() -> Grid {
        Grid::new(4, 4)
    }

    fn trace(per_data: Vec<Vec<WindowRefs>>) -> FlatTrace {
        FlatTrace::from_windows(g(), per_data).unwrap()
    }

    /// One window's references as a flat run.
    fn run(pairs: &[((u32, u32), u32)]) -> Vec<FlatRef> {
        pairs
            .iter()
            .map(|&((x, y), count)| FlatRef {
                window: 0,
                x,
                y,
                count,
            })
            .collect()
    }

    #[test]
    fn centroid_weighted() {
        assert_eq!(
            centroid(&run(&[((0, 0), 1), ((2, 0), 1)])),
            Some((1.0, 0.0))
        );
        assert_eq!(
            centroid(&run(&[((0, 0), 3), ((2, 0), 1)])),
            Some((0.5, 0.0))
        );
        assert_eq!(centroid(&[]), None);
    }

    #[test]
    fn spread_zero_for_point_mass() {
        assert_eq!(spread(&run(&[((2, 2), 9)])), 0.0);
        assert_eq!(spread(&[]), 0.0);
    }

    #[test]
    fn stats_on_small_trace() {
        let grid = g();
        let t = trace(vec![
            vec![
                WindowRefs::from_pairs([(grid.proc_xy(0, 0), 1)]),
                WindowRefs::from_pairs([(grid.proc_xy(3, 0), 1)]),
            ],
            vec![WindowRefs::new(), WindowRefs::new()],
        ]);
        let s = trace_stats(&t);
        assert_eq!(s.num_data, 2);
        assert_eq!(s.num_windows, 2);
        assert_eq!(s.total_volume, 2);
        assert_eq!(s.never_referenced, 1);
        assert_eq!(s.mean_procs_per_window, 1.0);
        assert_eq!(s.mean_spread, 0.0);
        assert_eq!(s.mean_drift, 3.0); // centroid moved (0,0) -> (3,0)
    }

    #[test]
    fn hottest_and_histogram() {
        let t = trace(vec![
            vec![WindowRefs::from_pairs([(ProcId(0), 2)])],
            vec![WindowRefs::from_pairs([(ProcId(1), 7)])],
            vec![WindowRefs::new()],
        ]);
        assert_eq!(volume_per_data(&t), vec![2, 7, 0]);
        assert_eq!(hottest_data(&t), Some((DataId(1), 7)));
    }

    #[test]
    fn activity_series() {
        let t = trace(vec![
            vec![
                WindowRefs::from_pairs([(ProcId(0), 2)]),
                WindowRefs::from_pairs([(ProcId(1), 1)]),
            ],
            vec![WindowRefs::from_pairs([(ProcId(2), 3)]), WindowRefs::new()],
        ]);
        assert_eq!(volume_per_window(&t), vec![5, 1]);
    }

    #[test]
    fn entropy_bounds() {
        // uniform over 4 data → entropy = 2 bits
        let uniform = trace(
            (0..4)
                .map(|i| vec![WindowRefs::from_pairs([(ProcId(i), 5)])])
                .collect(),
        );
        assert!((volume_entropy(&uniform) - 2.0).abs() < 1e-9);
        // one hot datum → entropy 0
        let hot = trace(vec![
            vec![WindowRefs::from_pairs([(ProcId(0), 9)])],
            vec![WindowRefs::new()],
        ]);
        assert_eq!(volume_entropy(&hot), 0.0);
        // empty trace → 0
        let empty = trace(vec![vec![WindowRefs::new()]]);
        assert_eq!(volume_entropy(&empty), 0.0);
    }

    #[test]
    fn gini_bounds() {
        let uniform = trace(
            (0..4)
                .map(|i| vec![WindowRefs::from_pairs([(ProcId(i), 5)])])
                .collect(),
        );
        assert!(volume_gini(&uniform).abs() < 1e-9);
        let skewed = trace(vec![
            vec![WindowRefs::from_pairs([(ProcId(0), 100)])],
            vec![WindowRefs::new()],
            vec![WindowRefs::new()],
            vec![WindowRefs::new()],
        ]);
        // one of four data holds everything → Gini = (n−1)/n = 0.75
        assert!((volume_gini(&skewed) - 0.75).abs() < 1e-9);
        let empty = trace(vec![vec![WindowRefs::new()]]);
        assert_eq!(volume_gini(&empty), 0.0);
    }

    #[test]
    fn hottest_none_when_empty() {
        let t = trace(vec![vec![WindowRefs::new()]]);
        assert_eq!(hottest_data(&t), None);
        let s = trace_stats(&t);
        assert_eq!(s.mean_drift, 0.0);
        assert_eq!(s.mean_procs_per_window, 0.0);
    }
}
