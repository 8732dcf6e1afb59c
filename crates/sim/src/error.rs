//! Typed simulation errors.
//!
//! The cycle simulator used to guard against modelling bugs with a
//! `cycle < 1_000_000_000` `assert!` deep inside its clock loop. Matching
//! the panic-free convention of `pim_sched::SchedError`, that safety valve
//! is now a typed [`SimError::NoProgress`] result: the CLI turns it into a
//! one-line message and a nonzero exit instead of a backtrace, and callers
//! that combine scheduling with simulation get both failure families
//! through one [`RunError`].

use pim_sched::SchedError;
use std::fmt;

/// Cycle budget past which the simulator refuses to keep clocking. One
/// flit crosses at least one link per simulated cycle, so a window can
/// only reach this many cycles if its flit-hop volume does too — far past
/// anything the experiments generate, and a reliable tripwire for a
/// future modelling bug that stalls the clock.
pub const SAFETY_VALVE_CYCLES: u64 = 1_000_000_000;

/// Why a cycle-level simulation could not produce a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// The window could not complete within [`SAFETY_VALVE_CYCLES`]: the
    /// event-driven path refuses up front when the window's flit-hop
    /// volume reaches the valve (its cycle count is bounded by it), and
    /// `pim-reference`'s brute-force loop trips when its clock actually
    /// gets there.
    NoProgress {
        /// The cycle budget that was exhausted.
        cycle: u64,
    },
    /// A precedence-gated window contained a fetch message for a
    /// `(window, datum)` pair no task owns — the task DAG does not cover
    /// the trace (run `TaskDag::validate_cover` before simulating).
    UnownedMessage {
        /// The execution window of the orphaned message.
        window: u32,
        /// The datum no task in that window owns.
        datum: u32,
    },
    /// A precedence-gated simulation was handed a task DAG built for a
    /// different number of execution windows than the trace.
    DagWindows {
        /// Windows the DAG covers.
        dag: usize,
        /// Windows the trace has.
        trace: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoProgress { cycle } => write!(
                f,
                "cycle simulator made no progress within {cycle} cycles \
                 (window too large for the safety valve, or a modelling bug)"
            ),
            SimError::UnownedMessage { window, datum } => write!(
                f,
                "task dag does not cover the trace: no task in window \
                 {window} owns datum {datum}"
            ),
            SimError::DagWindows { dag, trace } => {
                write!(f, "task dag covers {dag} windows but the trace has {trace}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Either half of a schedule-then-simulate pipeline can fail; this is the
/// combined error of [`crate::collect_run_report`] and friends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The scheduling pass failed (unknown scheduler, capacity exhausted).
    Sched(SchedError),
    /// The cycle simulation failed (safety valve).
    Sim(SimError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Sched(e) => e.fmt(f),
            RunError::Sim(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RunError {}

impl From<SchedError> for RunError {
    fn from(e: SchedError) -> Self {
        RunError::Sched(e)
    }
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_cycle_budget() {
        let e = SimError::NoProgress { cycle: 42 };
        let msg = e.to_string();
        assert!(msg.contains("42"), "{msg}");
        assert!(msg.contains("no progress"), "{msg}");
    }

    #[test]
    fn unowned_message_names_the_orphan() {
        let e = SimError::UnownedMessage {
            window: 3,
            datum: 9,
        };
        let msg = e.to_string();
        assert!(msg.contains("window 3"), "{msg}");
        assert!(msg.contains("datum 9"), "{msg}");
    }

    #[test]
    fn run_error_wraps_both_families() {
        let s: RunError = SchedError::UnknownScheduler("x".into()).into();
        assert!(matches!(s, RunError::Sched(_)));
        assert!(s.to_string().contains("no scheduler"), "{s}");
        let c: RunError = SimError::NoProgress { cycle: 7 }.into();
        assert!(matches!(c, RunError::Sim(_)));
        assert!(c.to_string().contains("no progress"), "{c}");
    }
}
