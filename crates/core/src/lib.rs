#![warn(missing_docs)]
//! # pim-sched
//!
//! Data-scheduling algorithms for Processor-In-Memory arrays — the primary
//! contribution of *"Optimizing Data Scheduling on Processor-In-Memory
//! Arrays"* (Tian, Sha, Chantrapornchai, Kogge — IPPS 1998).
//!
//! Given an application's *reference strings* (which processors touch which
//! datum in each execution window, see `pim-trace`), the schedulers choose
//! a storage processor (*center*) for every datum in every window so as to
//! minimize total interprocessor communication: the volume-weighted
//! Manhattan distance of every reference plus the cost of moving data
//! between centers of consecutive windows.
//!
//! ## The three schedulers
//!
//! * [`scds`] — **Single-Center Data Scheduling** (paper Algorithm 1): one
//!   center per datum for the whole execution; no run-time movement.
//! * [`lomcds`] — **Local-Optimal Multiple-Center Data Scheduling**: the
//!   per-window optimal center; data moves between windows but each window
//!   is optimized in isolation.
//! * [`gomcds`] — **Global-Optimal Multiple-Center Data Scheduling** (paper
//!   Algorithm 2): a shortest path through a layered *cost graph* couples
//!   reference cost and movement cost, yielding the global optimum per
//!   datum (when memory is unconstrained).
//!
//! Plus:
//!
//! * [`grouping`] — **execution-window grouping** (paper Algorithm 3): a
//!   greedy pass that merges consecutive windows per datum when re-centering
//!   the merged window does not increase total cost; and a DP-optimal
//!   variant used to measure the greedy's gap.
//! * [`baseline`] — the straight-forward static distributions (row-wise,
//!   column-wise, …) the paper compares against.
//! * [`capacity`] — the *processor list* mechanism that resolves memory
//!   capacity conflicts for all schedulers.
//! * [`cache`] — the shared per-trace cost-table cache: per-datum
//!   axis-weight prefix sums serving any window range's cost table in
//!   `O(width + height + m)`; every scheduler's hot path reads from it.
//! * [`workspace`] — the bundled scratch buffers ([`Workspace`]) reused
//!   across data (and across methods) so the hot path stops allocating.
//! * [`theory`] — executable forms of the paper's Lemma 1 / Theorems 1–3.
//! * [`mod@registry`] — the [`Scheduler`] trait and the [`SchedulerRegistry`]:
//!   every strategy (the three schedulers, grouping, the baseline, and the
//!   `online`/`kcopy`/`replicate` extensions) as a pluggable named value.
//! * [`flat`] — the drivers every execution mode shares: SCDS/LOMCDS/GOMCDS
//!   straight off any flat CSR view (`pim_trace::flat::FlatView`: owned
//!   [`pim_trace::flat::FlatTrace`] or memory-mapped
//!   `pim_trace::binfmt::BinTrace`), fanning each algorithm's per-datum
//!   kernel out over the pool in chunks and running its capacity replay.
//! * [`stream`] — out-of-core scheduling: walk a `.pimb` binary trace in
//!   bounded datum chunks with double-buffered prefetch, folding costs
//!   instead of materializing schedules, bit-identical to [`flat`].
//! * [`context`] — the [`SchedContext`] a scheduler runs against: the
//!   trace (any `FlatView`, read in place), policy, shared cost cache
//!   (built on first use), workspace, optional pool.
//! * [`pipeline`] — the [`Run`] builder (one canonical entry point driving
//!   any registered scheduler) plus the [`compare_methods`] sweep.
//! * [`precedence`] — precedence-aware scheduling over an optional task
//!   DAG (`list-scds` / `edf-scds`): list-scheduling priorities steer
//!   center selection and capacity order.
//!
//! ## Example
//!
//! ```
//! use pim_array::grid::Grid;
//! use pim_trace::builder::TraceBuilder;
//! use pim_trace::ids::DataId;
//! use pim_sched::{MemoryPolicy, Run};
//!
//! let grid = Grid::new(4, 4);
//! let mut b = TraceBuilder::new(grid, 1);
//! b.step().access(grid.proc_xy(0, 0), DataId(0));
//! b.step().access(grid.proc_xy(3, 3), DataId(0));
//! let trace = b.finish().window_fixed(1);
//!
//! let mut run = Run::new(&trace).policy(MemoryPolicy::Unbounded);
//! let sched = run.run_named("gomcds").unwrap();
//! let cost = sched.evaluate(&trace);
//! assert_eq!(cost.total(), 6); // stay put and fetch across, or move once
//! ```

// The DP solvers index dp/cost tables by (window, processor) exactly as
// the recurrences are written in the paper; rewriting those loops with
// iterator adaptors obscures the math for no gain.
#![allow(clippy::needless_range_loop)]

pub mod baseline;
pub mod bounds;
pub mod cache;
pub mod capacity;
pub mod context;
pub mod cost;
pub mod dt;
pub mod error;
pub mod explain;
pub mod flat;
pub mod generic;
pub mod gomcds;
pub mod grouping;
pub mod incremental;
pub mod kcopy;
pub mod lomcds;
pub mod median;
pub mod online;
pub mod pipeline;
pub mod precedence;
pub mod refine;
pub mod registry;
pub mod replicate;
pub mod scds;
pub mod schedule;
pub mod stream;
pub mod theory;
pub mod workspace;

pub use cache::{CostCache, DatumCostCache};
pub use context::{PrecedencePolicy, SchedContext};
pub use error::SchedError;
pub use flat::{flat_gomcds, flat_lomcds, flat_scds, flat_total_cost};
pub use incremental::{IncrementalError, IncrementalRun};
pub use pim_metrics::{Metrics, MetricsReport};
pub use pipeline::{compare_methods, schedule, MemoryPolicy, Method, Run};
pub use precedence::{
    estimate_completion, task_priorities, EdfScdsScheduler, ListScdsScheduler, PriorityMode,
};
pub use registry::{registry, Scheduler, SchedulerRegistry};
pub use schedule::{CostBreakdown, Schedule};
pub use stream::{
    stream_schedule, stream_schedule_with, stream_total_cost, StreamConfig, StreamError,
    StreamOutcome,
};
pub use workspace::Workspace;
