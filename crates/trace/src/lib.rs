#![warn(missing_docs)]
//! # pim-trace
//!
//! Execution traces for PIM data scheduling.
//!
//! The paper drives its algorithms from *reference strings* rather than
//! loop-dependence analysis: for every datum, the sequence of processors
//! that touch it, bucketed into *execution windows* (groups of consecutive
//! parallel execution steps). This crate owns that data model:
//!
//! * [`ids`] — dense datum identifiers.
//! * [`step`] — raw per-step access traces as emitted by workload kernels,
//!   bucketed into execution windows as a [`FlatTrace`].
//! * [`flat`] — the trace representation: a flat structure-of-arrays
//!   (CSR) layout with one window-major span per datum, a streaming text
//!   loader, and the [`flat::FlatView`] accessor trait every scheduler,
//!   cost cache and simulator consumes.
//! * [`window`] — one execution window's reference string
//!   ([`WindowRefs`]), the value hand-written traces are assembled from.
//! * [`binfmt`] — versioned little-endian binary container (`.pimb`) for
//!   flat traces: whole-file encode/decode plus a zero-copy memory-mapped
//!   view, with checksum and structural validation.
//! * [`edit`] — churn deltas over a flat trace: per-datum overlay spans,
//!   dirty tracking, and a trace version for incremental rescheduling.
//! * [`dag`] — optional task precedence DAGs over a trace's windows
//!   (validated ownership partition + JSON round-trip).
//! * [`json`] — the shared hand-rolled JSON parser and string escaper
//!   behind every JSON surface (DAG files, churn deltas, `pim-serve`
//!   requests, metrics and bench reports); the offline build has no JSON
//!   crate.
//! * [`builder`] — ergonomic trace construction.
//! * [`stats`] — descriptive statistics (reference locality, spread).
//! * [`validate`] — structural invariants checked at crate boundaries.
//!
//! ## Example
//!
//! ```
//! use pim_array::grid::Grid;
//! use pim_trace::builder::TraceBuilder;
//! use pim_trace::ids::DataId;
//!
//! let grid = Grid::new(4, 4);
//! let mut b = TraceBuilder::new(grid, 2);
//! b.step().access(grid.proc_xy(0, 0), DataId(0));
//! b.step().access(grid.proc_xy(3, 3), DataId(0)).access_n(grid.proc_xy(1, 2), DataId(1), 4);
//! let trace = b.finish();
//! let windowed = trace.window_fixed(1); // one step per window
//! assert_eq!(windowed.num_windows(), 2);
//! assert_eq!(windowed.span(DataId(0)).len(), 2);
//! ```

pub mod adaptive;
pub mod binfmt;
pub mod builder;
pub mod dag;
pub mod edit;
pub mod flat;
pub mod ids;
pub mod json;
pub mod stats;
pub mod step;
pub mod validate;
pub mod window;

pub use binfmt::{BinError, BinTrace};
pub use builder::TraceBuilder;
pub use dag::{DagError, Task, TaskDag};
pub use edit::{DeltaJsonError, DirtySummary, EditOp, EditableTrace, TraceDelta};
pub use flat::{FlatRecord, FlatRef, FlatTrace, FlatTraceError, FlatView};
pub use ids::DataId;
pub use step::{Access, ExecStep, StepTrace};
pub use window::{Ref, WindowRefs};
