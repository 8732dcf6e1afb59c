//! Report rows measure their own peak RSS: a small row run after a large
//! one must not inherit the large row's `VmHWM` high-water mark (the
//! kernel's mark is process-wide and only rises until reset).
//!
//! Runs without the libtest harness so the rows execute on the main
//! thread, as in the `report_*` binaries: glibc trims freed memory of the
//! main thread's arena, while a libtest worker thread's arena keeps its
//! freed top resident and would inflate every later reading.

use pim_bench::churn::churn_row;
use pim_bench::scale::scale_row;
use pim_sched::MemoryPolicy;

fn main() {
    if !pim_bench::timing::reset_peak_rss() {
        println!("peak_rss: no /proc/self/clear_refs here; nothing to check");
        return;
    }

    // Without a per-row reset the small row would read at least the large
    // row's mark; allocator memory kept by pool worker threads still
    // shows, hence the margin rather than a tight bound.
    let check = |what: &str, large: u64, small: u64| {
        assert!(large > 0, "{what}: VmHWM unreadable");
        assert!(
            small * 10 < large * 9,
            "{what}: small row reports {small} KB after a large row's {large} KB"
        );
        println!("peak_rss: {what} small row {small} KB after a large row's {large} KB");
    };

    let large = scale_row(16, 100_000, false, 1).peak_rss_kb;
    let small = scale_row(4, 1_000, false, 1).peak_rss_kb;
    check("scale", large, small);

    let unbounded = MemoryPolicy::Unbounded;
    let large = churn_row(16, 20_000, "scds", unbounded, "unbounded", 1).peak_rss_kb;
    let small = churn_row(4, 200, "scds", unbounded, "unbounded", 1).peak_rss_kb;
    check("churn", large, small);
}
