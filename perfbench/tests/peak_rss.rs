//! The peak-RSS figure belongs to the workload, not to the process: a
//! large footprint before a workload must not show in the workload's
//! `peak_rss_mb`. Alone in its test binary, since RSS is process-wide.

use std::path::PathBuf;

use perfbench::{rss, run, RunConfig, Workload};

const LARGE: usize = 256 << 20;

/// Allocate `bytes` and touch every page, so they count in the RSS.
fn touched(bytes: usize) -> Vec<u8> {
    let mut v = vec![0u8; bytes];
    for i in (0..bytes).step_by(4096) {
        v[i] = 1;
    }
    std::hint::black_box(v)
}

#[test]
fn a_large_footprint_does_not_leak_into_the_next_workload() {
    drop(touched(LARGE));
    let Some(after_large) = rss::peak_rss_kb() else {
        return; // no /proc: nothing to check
    };
    assert!(after_large >= (LARGE >> 10) as u64, "{after_large} kB");

    let w = Workload::GomcdsDp;
    let cfg = RunConfig {
        workload: w,
        seed: 5,
        seconds: 0.2,
        traced: false,
        shape: w.tiny_shape(),
        dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("peak-rss"),
        setup_reps: 1,
        setup_seconds: 0.0,
        pinned: Vec::new(),
    };
    let out = run(&cfg);
    assert!(out.correct());
    let peak_mb = out
        .metrics
        .iter()
        .find(|m| m.name == "peak_rss_mb")
        .expect("peak_rss_mb reported")
        .value;
    assert!(
        peak_mb < (LARGE >> 21) as f64,
        "the workload reported {peak_mb} MB: the earlier {} MB footprint's watermark",
        LARGE >> 20
    );
}
