//! `pim-serve` — a long-running scheduling daemon over the PIM stack.
//!
//! The offline pipeline (`pim-cli schedule`) pays the full cost of
//! parsing, cache construction and a cold solve on every invocation.
//! For workloads that schedule the *same* traces repeatedly — sweeping
//! policies, absorbing churn deltas, serving cost queries to a compiler
//! — that repeated setup dominates. This crate keeps the expensive
//! state resident: traces and their [`pim_sched::IncrementalRun`]
//! engines (edit overlay, carried per-datum solver state, cost ledger)
//! live in a byte-budgeted LRU store, and requests against a warm
//! trace skip straight to the solved schedule.
//!
//! The daemon speaks newline-delimited JSON (see [`proto`]) over three
//! transports: stdin/stdout, a Unix socket, or TCP ([`server`]).
//! Admission control is a bounded queue ([`queue`]) — a full queue
//! rejects immediately with a typed `overloaded` error carrying the
//! observed depth, so clients get backpressure instead of unbounded
//! latency. A `stats` request reports per-op counters, cache and
//! engine reuse rates, store occupancy, latency percentiles from a
//! fixed ring ([`stats`]) and the full [`pim_metrics::MetricsReport`].
//! A `shutdown` request (or EOF on stdin) drains: in-flight and
//! already-admitted work completes, new work is refused with
//! `shutting_down`, then all threads join.
//!
//! Request execution is transport-independent ([`core`]): tests and
//! the `pim-bench` load generator can drive [`ServeCore::handle_line`]
//! directly and observe byte-identical behaviour to the socket path.
//! Responses to `schedule` are bit-identical to the one-shot flat
//! schedulers — the engine parity the incremental layer already
//! guarantees extends through the wire.
//!
//! Nothing here panics on request input: every malformed line,
//! unknown trace, over-budget payload or scheduler refusal maps to one
//! [`ServeError`] variant with a stable wire kind ([`error`]).

pub mod core;
pub mod error;
pub mod proto;
pub mod queue;
pub mod server;
pub mod stats;
pub mod store;

pub use crate::core::{ServeConfig, ServeCore};
pub use error::ServeError;
pub use proto::{EvictScope, Request};
pub use queue::{JobQueue, PushError};
pub use server::{serve_stdio, submit, Client, Job, Server};
pub use stats::{LatencySnapshot, ServerStats, OPS};
pub use store::{key_hex, parse_key, trace_key, StoreStats, TraceStore};
