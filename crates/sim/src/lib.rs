#![warn(missing_docs)]
//! # pim-sim
//!
//! A message-level simulator for the PIM array. Where `pim-sched` *counts*
//! communication analytically (volume × Manhattan distance), this crate
//! actually *routes* every transfer hop by hop with x-y routing and
//! observes what the network sees:
//!
//! * total hop-volume — which must equal the analytic cost exactly (the
//!   integration tests assert this for every scheduler on every benchmark);
//! * per-link utilization — where the traffic concentrates;
//! * an idealized per-window completion-time estimate under unit-bandwidth
//!   links ([`contention`]), separating bandwidth-bound from latency-bound
//!   windows;
//! * cycle-accurate completion under link contention ([`cycle`]): an
//!   event-driven per-link-queue simulator, validated bit-identically
//!   against the brute-force loop it replaced (kept in `pim-reference`) —
//!   optionally gated by a task DAG ([`simulate_cycles_dag`]) so a task's
//!   traffic enters the network only when its intra-window predecessors
//!   have delivered.
//!
//! ## Modules
//!
//! * [`message`] — the transfer unit (fetches and moves).
//! * [`engine`] — trace + schedule → messages → routed statistics.
//! * [`contention`] — completion-time estimates per window.
//! * [`cycle`] — event-driven cycle-level simulation.
//! * [`error`] — typed simulation failures ([`SimError`], [`RunError`]).
//! * [`report`] — aggregated results with human-readable rendering.
//! * [`run_report`] — analytic + routed + cycle + metrics in one record.

pub mod contention;
pub mod cycle;
pub mod engine;
pub mod error;
pub mod heatmap;
pub mod message;
pub mod report;
pub mod run_report;
pub mod traffic;

pub use cycle::{
    simulate_cycles, simulate_cycles_dag, simulate_cycles_observed, CycleResult, CycleSim,
    WindowPrecedence,
};
pub use engine::{simulate, simulate_named, simulate_scheduler};
pub use error::{RunError, SimError, SAFETY_VALVE_CYCLES};
pub use report::SimReport;
pub use run_report::{collect_run_report, RunReport};
