//! Structured simulator errors.
//!
//! Fault-injection and recovery paths used to fail with bare `unwrap()` /
//! `expect()` panics, which is acceptable in a unit test and useless in a
//! thousand-plan chaos soak: the panic message says *what* exploded but not
//! *which configuration* did it. [`SimError`] is the shared, structured
//! error those paths propagate instead, so a failing soak run can report
//! the offending plan, seed and context before exiting.
//!
//! Crate layering: `switchless-sim` sits at the bottom of the workspace, so
//! the variants here are deliberately generic (context + detail strings).
//! Higher crates convert their own error types into it — e.g.
//! `switchless-core` provides `impl From<MachineError> for SimError`.

use crate::fault::FaultPlanError;

/// A structured error from simulator construction or recovery paths.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// An invalid [`crate::fault::FaultPlan`] configuration.
    FaultPlan(FaultPlanError),
    /// A guest program failed to assemble.
    Assemble {
        /// What was being assembled ("supervisor template", …).
        context: &'static str,
        /// The assembler's diagnostic.
        detail: String,
    },
    /// A machine operation failed (thread allocation, image load, …).
    Machine {
        /// What was being set up ("io engine worker", …).
        context: &'static str,
        /// The machine's diagnostic.
        detail: String,
    },
    /// A run completed but failed its check (an invariant violation, a
    /// replay digest that does not match its artifact, …).
    Verdict {
        /// Which run was judged ("chaos replay", …).
        context: &'static str,
        /// What the check found.
        detail: String,
    },
    /// A component was configured inconsistently.
    Config {
        /// Which component rejected its configuration.
        context: &'static str,
        /// Why the configuration is invalid.
        detail: String,
    },
    /// A replay artifact failed to parse.
    Parse {
        /// 1-based line number in the artifact.
        line: usize,
        /// Why the line was rejected.
        detail: String,
    },
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::FaultPlan(e) => write!(f, "invalid fault plan: {e}"),
            SimError::Assemble { context, detail } => {
                write!(f, "assembling {context}: {detail}")
            }
            SimError::Machine { context, detail } => {
                write!(f, "machine setup for {context}: {detail}")
            }
            SimError::Verdict { context, detail } => {
                write!(f, "{context} verdict: {detail}")
            }
            SimError::Config { context, detail } => {
                write!(f, "invalid {context} configuration: {detail}")
            }
            SimError::Parse { line, detail } => {
                write!(f, "parse error at line {line}: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<FaultPlanError> for SimError {
    fn from(e: FaultPlanError) -> SimError {
        SimError::FaultPlan(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};
    use crate::time::Cycles;

    #[test]
    fn display_carries_context() {
        let e = SimError::Assemble {
            context: "supervisor template",
            detail: "unknown mnemonic `mwiat`".into(),
        };
        let s = e.to_string();
        assert!(s.contains("supervisor template"), "{s}");
        assert!(s.contains("mwiat"), "{s}");
    }

    #[test]
    fn fault_plan_errors_convert() {
        let err = FaultPlan::new(1)
            .try_with_burst(FaultKind::NicDrop, 0.5, Cycles(10), Cycles(10))
            .unwrap_err();
        let sim: SimError = err.into();
        assert!(matches!(sim, SimError::FaultPlan(_)));
        assert!(sim.to_string().contains("invalid fault plan"));
    }
}
