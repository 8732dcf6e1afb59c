#![warn(missing_docs)]
//! # pim-reference
//!
//! Frozen reference implementations: the straightforward forms of the
//! `pim-sched` algorithms and of the `pim-sim` cycle loop that the
//! optimized production paths replaced. The conformance tests pin every
//! production path bit-identical to them.
//!
//! * [`schedule`] — every [`pim_sched::Method`], re-walking raw reference
//!   strings instead of serving cost tables from a cache;
//! * [`greedy_grouping`] and [`optimal_grouping`] — the literal Algorithm 3
//!   loop and the `O(t³)` grouping DP;
//! * [`optimal_path_exhaustive`] and [`exhaustive_schedule`] — brute-force
//!   enumeration certifying GOMCDS on tiny instances;
//! * [`run_window`] — the clock-every-flit cycle loop.
//!
//! Only tests and `pim-bench` link this crate; no production library does.
//! The oracles keep private copies of the small helpers production code
//! also has (gap resolution, nearest-free placement, empty-window
//! attachment), so changing those cannot move an oracle along with the
//! code it checks.

// The DP loops index tables by window exactly as the recurrences are
// written in the paper.
#![allow(clippy::needless_range_loop)]

mod cycle;
mod exhaustive;
mod grouping;
mod schedulers;

pub use cycle::run_window;
pub use exhaustive::{exhaustive_schedule, optimal_path_exhaustive};
pub use grouping::{greedy_grouping, optimal_grouping};
pub use schedulers::schedule;
