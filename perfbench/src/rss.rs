//! Per-workload peak resident set size.
//!
//! `VmHWM` is a process-wide high-water mark that only rises, so a
//! reading taken after a hungry phase would report that phase forever.
//! Writing `5` to `/proc/self/clear_refs` resets the mark to the current
//! RSS; a workload resets it right before what it measures (each job of
//! an offline workload, each session of serve-mixed), after setup and the
//! warm-up have released their memory. The allocator keeps
//! freed heap pages resident, so the reset first hands them back to the
//! kernel; otherwise the mark would start at an earlier phase's peak.

pub use pim_bench::timing::peak_rss_kb;

/// Return freed heap memory to the kernel, then reset the peak-RSS
/// high-water mark to the current RSS.
pub fn reset_peak() -> std::io::Result<()> {
    release_free_heap();
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Hand the allocator's free heap pages back to the kernel (glibc only;
/// elsewhere a no-op).
fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only releases memory
        // glibc's allocator holds free; Rust's global allocator here is
        // that same allocator, so no live allocation is touched.
        unsafe {
            malloc_trim(0);
        }
    }
}
