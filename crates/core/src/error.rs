//! The unified error type of the optimization pipeline.
//!
//! Every fallible stage — IR construction, schedule lowering, trace and
//! compute execution, cache-simulator configuration, the optimizer itself
//! — reports through [`PaloError`], so callers of
//! [`Session::run`](crate::Session::run) handle one type instead of a
//! zoo of per-crate errors.

use palo_cachesim::SimConfigError;
use palo_exec::{ExecError, TraceError};
use palo_ir::IrError;
use palo_sched::SchedError;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Any failure the optimization pipeline can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum PaloError {
    /// Building or validating a loop nest failed.
    Ir(IrError),
    /// Lowering a schedule onto a nest failed (illegal directive list).
    Sched(SchedError),
    /// Compute-mode execution failed (out-of-bounds access or reference
    /// lowering failure).
    Exec(ExecError),
    /// Trace-mode execution failed for a reason other than a resource
    /// guard (an internally inconsistent lowered nest).
    Trace(TraceError),
    /// The cache simulator rejected the architecture description.
    Sim(SimConfigError),
    /// The architecture description failed validation.
    Arch(String),
    /// The persistent artifact store could not be opened (unwritable
    /// cache directory). Corrupt *entries* never raise this — they
    /// degrade to cache misses; only a store that can never persist
    /// anything surfaces an error, at session construction.
    Store {
        /// What failed, including the offending path.
        detail: String,
    },
    /// A resource budget (e.g. trace-line budget, autotuner evaluation
    /// budget) was exhausted before the stage finished.
    BudgetExceeded {
        /// What ran out, e.g. `"trace lines"`.
        what: &'static str,
        /// The configured limit.
        limit: u64,
    },
    /// A wall-clock deadline expired before the stage finished.
    DeadlineExceeded {
        /// The configured wall-clock budget.
        budget: Duration,
    },
    /// A pipeline stage panicked; the panic was caught and isolated.
    Panicked {
        /// Which stage panicked, e.g. `"optimizer"`.
        context: &'static str,
        /// The panic payload rendered as a string, when it was one.
        message: String,
    },
    /// A configured [`FaultPlan`](crate::FaultPlan) injection point fired.
    FaultInjected {
        /// Which injection site fired, e.g. `"lowering"`.
        site: &'static str,
    },
    /// Compute-mode validation found the optimized schedule produced
    /// different values than the program-order reference.
    SemanticsMismatch {
        /// Human-readable description of the first divergence.
        detail: String,
    },
}

impl fmt::Display for PaloError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PaloError::Ir(e) => write!(f, "IR error: {e}"),
            PaloError::Sched(e) => write!(f, "schedule error: {e}"),
            PaloError::Exec(e) => write!(f, "execution error: {e}"),
            PaloError::Trace(e) => write!(f, "trace error: {e}"),
            PaloError::Sim(e) => write!(f, "cache simulator config error: {e}"),
            PaloError::Arch(msg) => write!(f, "invalid architecture: {msg}"),
            PaloError::Store { detail } => write!(f, "artifact store error: {detail}"),
            PaloError::BudgetExceeded { what, limit } => {
                write!(f, "resource budget exhausted: {what} limit {limit}")
            }
            PaloError::DeadlineExceeded { budget } => {
                write!(f, "deadline of {budget:?} exceeded")
            }
            PaloError::Panicked { context, message } => {
                write!(f, "{context} panicked: {message}")
            }
            PaloError::FaultInjected { site } => {
                write!(f, "injected fault fired at {site}")
            }
            PaloError::SemanticsMismatch { detail } => {
                write!(f, "optimized schedule changed program semantics: {detail}")
            }
        }
    }
}

impl Error for PaloError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PaloError::Ir(e) => Some(e),
            PaloError::Sched(e) => Some(e),
            PaloError::Exec(e) => Some(e),
            PaloError::Trace(e) => Some(e),
            PaloError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IrError> for PaloError {
    fn from(e: IrError) -> Self {
        PaloError::Ir(e)
    }
}

impl From<SchedError> for PaloError {
    fn from(e: SchedError) -> Self {
        PaloError::Sched(e)
    }
}

impl From<ExecError> for PaloError {
    fn from(e: ExecError) -> Self {
        PaloError::Exec(e)
    }
}

impl From<SimConfigError> for PaloError {
    fn from(e: SimConfigError) -> Self {
        PaloError::Sim(e)
    }
}

impl From<TraceError> for PaloError {
    fn from(e: TraceError) -> Self {
        match e {
            // Resource-guard aborts map onto the pipeline-level guard
            // variants so callers match one variant regardless of which
            // stage hit the guard.
            TraceError::LineBudgetExceeded { limit } => {
                PaloError::BudgetExceeded { what: "trace lines", limit }
            }
            TraceError::DeadlineExceeded { budget } => PaloError::DeadlineExceeded { budget },
            other => PaloError::Trace(other),
        }
    }
}

impl PaloError {
    /// Whether the error is a resource-guard abort (budget or deadline)
    /// rather than a genuine failure.
    pub fn is_resource_guard(&self) -> bool {
        matches!(self, PaloError::BudgetExceeded { .. } | PaloError::DeadlineExceeded { .. })
    }
}

/// Runs `f` with panics caught and converted to
/// [`PaloError::Panicked`], so one misbehaving stage (or autotuner
/// candidate) cannot take down the whole pipeline.
pub fn catch_panic<T>(context: &'static str, f: impl FnOnce() -> T) -> Result<T, PaloError> {
    // The closures passed here only touch owned/cloned state, so
    // observing state after an unwound panic is not a concern.
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        PaloError::Panicked { context, message }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_guard_errors_map_to_pipeline_guards() {
        let e: PaloError = TraceError::LineBudgetExceeded { limit: 7 }.into();
        assert_eq!(e, PaloError::BudgetExceeded { what: "trace lines", limit: 7 });
        assert!(e.is_resource_guard());

        let budget = Duration::from_millis(3);
        let e: PaloError = TraceError::DeadlineExceeded { budget }.into();
        assert_eq!(e, PaloError::DeadlineExceeded { budget });
        assert!(e.is_resource_guard());

        let e: PaloError = TraceError::MissingLoopDelta { loop_name: "i".into() }.into();
        assert!(matches!(e, PaloError::Trace(_)));
        assert!(!e.is_resource_guard());
    }

    #[test]
    fn catch_panic_reports_str_and_string_payloads() {
        let e = catch_panic("stage", || panic!("boom")).unwrap_err();
        assert_eq!(e, PaloError::Panicked { context: "stage", message: "boom".into() });
        let e = catch_panic("stage", || panic!("{}", format!("id {}", 42))).unwrap_err();
        assert_eq!(e, PaloError::Panicked { context: "stage", message: "id 42".into() });
        assert_eq!(catch_panic("stage", || 5).unwrap(), 5);
    }

    #[test]
    fn display_is_prefixed_by_stage() {
        let e = PaloError::Arch("no caches".into());
        assert!(e.to_string().contains("invalid architecture"));
        let e = PaloError::FaultInjected { site: "lowering" };
        assert!(e.to_string().contains("lowering"));
    }
}
