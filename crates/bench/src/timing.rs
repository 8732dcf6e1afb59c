//! Shared wall-clock measurement conventions for the report binaries.
//!
//! Every `report_*` binary used to carry its own copy of the same two
//! idioms; they live here once so the conventions cannot drift:
//!
//! * [`bench_ns`] — warmup + **minimum**-of-reps timing. The minimum is
//!   the noise-robust statistic on a shared box: scheduler preemption and
//!   cache pollution only ever add time, so the best observation is the
//!   closest to the true cost — means let one preempted run flip an
//!   optimized-vs-reference comparison.
//! * [`warn_if_slower`] — losing rows are loud on stderr, not buried in
//!   the JSON.

use std::hint::black_box;
use std::time::Instant;

/// Best (minimum) wall time of `f` in nanoseconds over `reps` timed runs
/// (after one warmup run), together with the last result.
///
/// `reps == 0` falls back to the timed warmup run: returning a `u128::MAX`
/// sentinel (as this once did) silently poisons every downstream
/// `reference_ns / optimized_ns` division into a ~0 "speedup" instead of
/// failing loudly, and a caller passing a computed rep count of zero
/// almost certainly still wants *a* measurement.
pub fn bench_ns<R>(reps: u32, mut f: impl FnMut() -> R) -> (u128, R) {
    let warmup_start = Instant::now();
    let mut out = black_box(f());
    if reps == 0 {
        return (warmup_start.elapsed().as_nanos(), out);
    }
    let mut best = u128::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        out = black_box(f());
        best = best.min(start.elapsed().as_nanos());
    }
    (best, out)
}

/// Peak resident set size of this process in kilobytes (`VmHWM` from
/// `/proc/self/status`), or `None` off Linux.
///
/// `VmHWM` is a process-wide high-water mark: it only ever rises, so a
/// reading reflects the hungriest phase since the last
/// [`reset_peak_rss`] (or process start), not the current working set.
/// Report binaries reset it before each row, or isolate each phase in its
/// own process (see `report_stream`).
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Reset the peak-RSS high-water mark to the current RSS, so the next
/// [`peak_rss_kb`] reads the peak of what ran since — one report row's
/// own footprint rather than the hungriest earlier row's. Freed heap pages
/// go back to the kernel first (glibc's `malloc_trim`); otherwise the
/// allocator would keep an earlier row's memory resident and the mark
/// would start there. Returns `false` where the kernel offers no reset
/// (`/proc/self/clear_refs` missing, non-Linux).
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only releases memory
        // glibc's allocator holds free; the Rust global allocator here is
        // that same allocator, so no live allocation is touched.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Warn on stderr when a measured speedup dips below 1 — the optimized
/// path lost to its reference. `what` names the row, e.g.
/// `"SCDS on benchmark 3 size 16: cached path"`.
pub fn warn_if_slower(what: &str, speedup: f64) {
    if speedup < 1.0 {
        eprintln!("warning: {what} slower than the reference (speedup {speedup:.3})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_ns_returns_result_and_min() {
        let mut calls = 0u32;
        let (ns, out) = bench_ns(3, || {
            calls += 1;
            calls
        });
        // 1 warmup + 3 timed.
        assert_eq!(calls, 4);
        assert_eq!(out, 4);
        assert!(ns < u128::MAX);
    }

    #[test]
    fn bench_ns_zero_reps_times_the_warmup() {
        // Regression: this used to return the u128::MAX sentinel, which
        // poisoned downstream speedup divisions into ~0 instead of
        // failing loudly.
        let mut calls = 0u32;
        let (ns, out) = bench_ns(0, || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 1); // warmup only, and it is the measurement
        assert_eq!(out, 1);
        assert!(ns < u128::MAX);
    }
}
