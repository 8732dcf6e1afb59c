//! Structural validation of raw step traces at crate boundaries.
//!
//! Schedulers index flat vectors by processor and datum ids; a malformed
//! trace would turn into a panic deep inside a DP loop. Validating once at
//! the boundary gives a precise error instead. Windowed traces need no
//! separate check: [`crate::flat::FlatTrace::from_records`], which every
//! trace constructor routes through, rejects out-of-range ids itself.

use crate::step::StepTrace;

/// A structural problem found in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A processor id `≥ grid.num_procs()` appeared.
    ProcOutOfRange {
        /// Step index where it appeared.
        step: usize,
        /// The offending processor id.
        proc: u32,
    },
    /// A datum id `≥ num_data` appeared.
    DataOutOfRange {
        /// Step index where it appeared.
        step: usize,
        /// The offending datum id.
        data: u32,
    },
}

impl core::fmt::Display for TraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceError::ProcOutOfRange { step, proc } => {
                write!(f, "step {step}: processor P{proc} out of range")
            }
            TraceError::DataOutOfRange { step, data } => {
                write!(f, "step {step}: datum D{data} out of range")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Validate a raw step trace.
pub fn validate_steps(trace: &StepTrace) -> Result<(), TraceError> {
    let nprocs = trace.grid.num_procs();
    for (i, step) in trace.steps.iter().enumerate() {
        for a in &step.accesses {
            if a.proc.index() >= nprocs {
                return Err(TraceError::ProcOutOfRange {
                    step: i,
                    proc: a.proc.0,
                });
            }
            if a.data.0 >= trace.num_data {
                return Err(TraceError::DataOutOfRange {
                    step: i,
                    data: a.data.0,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::DataId;
    use crate::step::{Access, ExecStep};
    use pim_array::grid::{Grid, ProcId};

    #[test]
    fn accepts_valid_step_trace() {
        let g = Grid::new(2, 2);
        let t = StepTrace {
            grid: g,
            num_data: 2,
            steps: vec![ExecStep {
                accesses: vec![Access {
                    proc: ProcId(3),
                    data: DataId(1),
                    count: 1,
                }],
            }],
        };
        assert_eq!(validate_steps(&t), Ok(()));
    }

    #[test]
    fn rejects_bad_proc_in_steps() {
        let g = Grid::new(2, 2);
        let t = StepTrace {
            grid: g,
            num_data: 2,
            steps: vec![ExecStep {
                accesses: vec![Access {
                    proc: ProcId(4),
                    data: DataId(0),
                    count: 1,
                }],
            }],
        };
        assert_eq!(
            validate_steps(&t),
            Err(TraceError::ProcOutOfRange { step: 0, proc: 4 })
        );
    }

    #[test]
    fn rejects_bad_data_in_steps() {
        let g = Grid::new(2, 2);
        let t = StepTrace {
            grid: g,
            num_data: 1,
            steps: vec![ExecStep {
                accesses: vec![Access {
                    proc: ProcId(0),
                    data: DataId(3),
                    count: 1,
                }],
            }],
        };
        assert!(matches!(
            validate_steps(&t),
            Err(TraceError::DataOutOfRange { .. })
        ));
    }

    #[test]
    fn error_messages() {
        let e = TraceError::ProcOutOfRange { step: 3, proc: 7 };
        assert_eq!(e.to_string(), "step 3: processor P7 out of range");
        let e = TraceError::DataOutOfRange { step: 1, data: 2 };
        assert_eq!(e.to_string(), "step 1: datum D2 out of range");
    }
}
