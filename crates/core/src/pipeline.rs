//! The vocabulary of the fault-tolerant optimization flow.
//!
//! [`Session`](crate::Session) runs the full optimize → lower → validate
//! → simulate flow as a *guarded* computation: every stage reports
//! through [`PaloError`](crate::PaloError) instead of panicking, and when
//! the proposed schedule cannot be used the run walks a **degradation
//! ladder** instead of failing outright:
//!
//! 1. [`Rung::Proposed`] — the optimizer's (or caller's) schedule;
//! 2. [`Rung::Stripped`] — the same schedule with the execution hints
//!    (`vectorize`, `parallel`, `store_nt`) removed, keeping the loop
//!    structure ([`Schedule::without_execution_hints`]);
//! 3. [`Rung::Baseline`] — the paper's §5.1 baseline (column loop rotated
//!    innermost, vectorized, outer loop parallelized, nothing tiled);
//! 4. [`Rung::Naive`] — the empty schedule, i.e. the program-order nest,
//!    which every valid nest can lower.
//!
//! This module holds the types of that flow: its configuration
//! ([`PipelineConfig`], [`RunOverrides`]), the achieved rung and every
//! failure encountered on the way down ([`PipelineReport`]), so
//! degradation is observable, not silent. Resource guards
//! ([`ResourceBudget`]) bound the cache simulation in both trace lines and
//! wall-clock time, and a [`FaultPlan`] can inject failures at each
//! guarded site to exercise the ladder in tests. The stages themselves
//! live in [`crate::pass`].

use crate::config::ModelKind;
use crate::decision::Decision;
use crate::error::PaloError;
use crate::model::CostBreakdown;
use crate::pass::{CacheStats, PassTiming};
use crate::search::SearchStats;
use crate::store::CacheConfig;
use crate::OptimizerConfig;
use palo_exec::TimeEstimate;
use palo_sched::{LoweredNest, Schedule};
use std::time::Duration;

/// A rung of the degradation ladder, best first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// The optimizer's (or caller's) proposed schedule was used.
    Proposed,
    /// The proposed schedule with execution hints stripped.
    Stripped,
    /// The basic developer baseline schedule.
    Baseline,
    /// The untransformed program-order nest.
    Naive,
}

/// Error of parsing a [`Rung`] from a string: the rejected input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRungError(pub String);

impl std::fmt::Display for ParseRungError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown rung {:?} (expected one of ", self.0)?;
        for (i, r) in Rung::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(r.as_str())?;
        }
        f.write_str(")")
    }
}

impl std::error::Error for ParseRungError {}

impl Rung {
    /// Every rung, best first.
    pub const ALL: [Rung; 4] = [Rung::Proposed, Rung::Stripped, Rung::Baseline, Rung::Naive];

    /// Stable machine-readable name. The single source of truth:
    /// [`std::fmt::Display`] and [`std::str::FromStr`] both go through
    /// it.
    pub fn as_str(self) -> &'static str {
        match self {
            Rung::Proposed => "proposed",
            Rung::Stripped => "stripped",
            Rung::Baseline => "baseline",
            Rung::Naive => "naive",
        }
    }
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Rung {
    type Err = ParseRungError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Rung::ALL
            .iter()
            .copied()
            .find(|r| r.as_str() == s)
            .ok_or_else(|| ParseRungError(s.to_string()))
    }
}

/// One failure encountered while descending the ladder (or while
/// simulating the accepted schedule).
#[derive(Debug, Clone, PartialEq)]
pub struct RungFailure {
    /// The rung that was being attempted when the failure occurred.
    pub rung: Rung,
    /// What went wrong.
    pub error: PaloError,
}

/// Resource guards for the expensive stages of the pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Maximum cache-line accesses the trace simulation may issue before
    /// aborting with [`PaloError::BudgetExceeded`] (`None` = unlimited).
    pub max_trace_lines: Option<u64>,
    /// Wall-clock budget for one whole [`Session::run`](crate::Session::run) call; the
    /// remainder at simulation time bounds the trace walk
    /// (`None` = unlimited).
    pub deadline: Option<Duration>,
}

/// Deterministic fault injection for exercising the degradation ladder.
///
/// All sites default to off; enabling them is a *runtime* configuration
/// choice so the release pipeline and the fault tests run the same code.
/// While any site is armed, the [`Session`](crate::Session) bypasses its
/// artifact cache entirely: injected faults must fire on every run, and
/// a faulted run's artifacts must never be served to a clean one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Fail the first `n` schedule-lowering attempts with
    /// [`PaloError::FaultInjected`]. With a distinct proposed schedule,
    /// `1` forces [`Rung::Stripped`], `2` forces [`Rung::Baseline`],
    /// `3` forces [`Rung::Naive`] and `4` exhausts the ladder.
    pub fail_first_lowerings: u64,
    /// Force a zero trace-line budget so the simulation stage aborts with
    /// [`PaloError::BudgetExceeded`].
    pub trace_overflow: bool,
    /// Panic inside the optimizer stage; the pipeline must catch it and
    /// degrade to [`Rung::Baseline`].
    pub panic_in_optimizer: bool,
}

impl FaultPlan {
    /// Whether any injection site is armed.
    pub fn armed(&self) -> bool {
        *self != FaultPlan::default()
    }
}

/// Per-request overrides layered over a [`Session`](crate::Session)'s
/// [`PipelineConfig`] for one run.
///
/// A long-lived session serves heterogeneous requests: an interactive
/// request may carry a tight wall-clock deadline, a chaos-test request
/// may arm a [`FaultPlan`] for itself only, and a load-shedding service
/// may skip the simulate stage under pressure — all without touching the
/// session-wide configuration (or other concurrent runs). Every field
/// defaults to "inherit from the session config".
///
/// The cache-safety rules are override-aware: a run whose *effective*
/// fault plan is armed bypasses the artifact cache wholesale, and a run
/// under an *effective* deadline keeps its simulate stage uncacheable —
/// so a per-request fault or deadline can never poison artifacts served
/// to clean runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOverrides {
    /// Wall-clock deadline for this run (replaces
    /// [`ResourceBudget::deadline`] when set). Measured from the start of
    /// the run; callers queueing requests should pass the *remaining*
    /// deadline at dequeue time.
    pub deadline: Option<Duration>,
    /// Trace-line budget for this run (replaces
    /// [`ResourceBudget::max_trace_lines`] when set).
    pub max_trace_lines: Option<u64>,
    /// Fault plan for this run (replaces [`PipelineConfig::faults`] when
    /// set — including `Some(FaultPlan::default())`, which *disarms*
    /// session-wide faults for this run).
    pub faults: Option<FaultPlan>,
    /// Whether to run the simulate stage (replaces
    /// [`PipelineConfig::simulate`] when set). `Some(false)` is the
    /// load-shedding lever: the request is answered from the analytical
    /// model alone.
    pub simulate: Option<bool>,
}

impl RunOverrides {
    /// The effective `(budget, faults, simulate)` triple of one run:
    /// `config` with this request's overrides layered on top.
    pub fn effective(&self, config: &PipelineConfig) -> (ResourceBudget, FaultPlan, bool) {
        let budget = ResourceBudget {
            max_trace_lines: self.max_trace_lines.or(config.budget.max_trace_lines),
            deadline: self.deadline.or(config.budget.deadline),
        };
        (budget, self.faults.unwrap_or(config.faults), self.simulate.unwrap_or(config.simulate))
    }
}

/// Configuration of a [`Session`](crate::Session).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Switches forwarded to the [`Optimizer`](crate::Optimizer).
    pub optimizer: OptimizerConfig,
    /// Resource guards for simulation.
    pub budget: ResourceBudget,
    /// Ladder candidates are validated bit-exactly against the
    /// program-order interpreter when the nest's iteration count is below
    /// this bound (compute-mode execution is too slow beyond it).
    pub validate_semantics_below: u128,
    /// Run the cache simulation of the accepted schedule and attach a
    /// [`TimeEstimate`] to the report.
    pub simulate: bool,
    /// Bound on *concurrent* simulate-stage executions across a
    /// [`Session`](crate::Session)'s runs (batch workers included),
    /// independent of the worker count. `None` (the default) leaves
    /// simulation as parallel as the batch; `Some(n)` admits at most `n`
    /// runs into the simulate stage at once — the other stages stay fully
    /// parallel. Zero is clamped to one.
    pub max_concurrent_sims: Option<usize>,
    /// Fault injection sites (all off by default).
    pub faults: FaultPlan,
    /// The session's artifact-store tiers (memory bounds, eviction
    /// policy, on-disk persistence). The default is the original
    /// unbounded in-process cache. **Never enters any cache key** — the
    /// store changes where artifacts live, not what is decided.
    pub cache: CacheConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            optimizer: OptimizerConfig::default(),
            budget: ResourceBudget::default(),
            validate_semantics_below: 4096,
            simulate: true,
            max_concurrent_sims: None,
            faults: FaultPlan::default(),
            cache: CacheConfig::default(),
        }
    }
}

/// What happened during one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The ladder rung whose schedule was accepted.
    pub rung: Rung,
    /// Every failure encountered on the way (ladder descents and
    /// simulation-stage failures). Empty on a clean run.
    pub failures: Vec<RungFailure>,
    /// The simulated time estimate of the accepted schedule; `None` when
    /// simulation was disabled or failed (the failure is recorded).
    pub estimate: Option<TimeEstimate>,
    /// What the optimizer's candidate search did (workers, candidates
    /// evaluated/pruned, memo hit rates, wall time); `None` when the
    /// optimizer stage was skipped ([`Session::run_schedule`](crate::Session::run_schedule)) or
    /// failed. A cache-served optimize artifact replays the *producing*
    /// search's stats.
    pub search: Option<SearchStats>,
    /// Which cost model scored the candidate search
    /// ([`OptimizerConfig::model`]).
    pub model: ModelKind,
    /// Per-term cost decomposition of the winning schedule under that
    /// model; `None` when the optimizer stage was skipped or failed.
    pub breakdown: Option<CostBreakdown>,
    /// Artifact-cache counter movement of this run (all misses/bypasses
    /// on a fresh [`Session`](crate::Session); hits when a warm one replayed artifacts).
    pub cache: CacheStats,
    /// Per-pass wall-clock breakdown of this run, one entry per pass
    /// request in execution order (cache hits included, flagged).
    pub timings: Vec<PassTiming>,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

impl PipelineReport {
    /// Whether the pipeline had to fall back below [`Rung::Proposed`].
    pub fn fallback_fired(&self) -> bool {
        self.rung != Rung::Proposed
    }

    /// Aggregates [`PipelineReport::timings`] per pass, in first-request
    /// order: `(pass name, total wall-clock, requests, cache hits)`.
    pub fn pass_totals(&self) -> Vec<(&'static str, Duration, u32, u32)> {
        let mut totals: Vec<(&'static str, Duration, u32, u32)> = Vec::new();
        for t in &self.timings {
            match totals.iter_mut().find(|(name, ..)| *name == t.pass) {
                Some((_, dur, n, hits)) => {
                    *dur += t.elapsed;
                    *n += 1;
                    *hits += u32::from(t.cached);
                }
                None => totals.push((t.pass, t.elapsed, 1, u32::from(t.cached))),
            }
        }
        totals
    }
}

/// The result of a successful (possibly degraded) pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// The optimizer's decision; `None` when the optimizer itself failed
    /// or when the caller supplied the schedule via
    /// [`Session::run_schedule`](crate::Session::run_schedule).
    pub decision: Option<Decision>,
    /// The accepted schedule (of the reported rung).
    pub schedule: Schedule,
    /// The accepted schedule lowered onto the nest, ready to execute.
    pub lowered: LoweredNest,
    /// The run's report: achieved rung, recorded failures, estimate.
    pub report: PipelineReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_rung_display_names() {
        assert_eq!(Rung::Proposed.to_string(), "proposed");
        assert_eq!(Rung::Naive.to_string(), "naive");
    }

    #[test]
    fn rung_names_round_trip_and_reject_noise() {
        for rung in Rung::ALL {
            assert_eq!(rung.as_str().parse::<Rung>(), Ok(rung));
            assert_eq!(rung.to_string(), rung.as_str());
        }
        for bad in ["", "Proposed", "NAIVE", " baseline", "base"] {
            assert_eq!(bad.parse::<Rung>(), Err(ParseRungError(bad.to_string())));
        }
        let msg = "x".parse::<Rung>().unwrap_err().to_string();
        assert!(msg.contains("proposed") && msg.contains("naive"), "{msg}");
    }
}
