//! Fault-injection tests: every rung of the session's degradation
//! ladder must be reachable, every guard must fire, and every failure
//! must be observable in the report.

use palo::arch::presets;
use palo::core::{FaultPlan, PaloError, PipelineConfig, ResourceBudget, Rung, Session};
use palo::exec::run_reference;
use palo::ir::{DType, LoopNest, NestBuilder};
use std::time::Duration;

/// A matmul small enough to semantically validate every ladder rung but
/// rich enough that the optimizer proposes a schedule with execution
/// hints (so the stripped rung differs from the proposed one).
fn matmul(n: usize) -> LoopNest {
    let mut b = NestBuilder::new("matmul", DType::F32);
    let i = b.var("i", n);
    let j = b.var("j", n);
    let k = b.var("k", n);
    let a = b.array("A", &[n, n]);
    let bm = b.array("B", &[n, n]);
    let c = b.array("C", &[n, n]);
    b.accumulate(c, &[i, j], b.load(a, &[i, k]) * b.load(bm, &[k, j]));
    b.build().unwrap()
}

fn session(config: PipelineConfig) -> Session {
    Session::new(&presets::repro::intel_i7_6700(), config).unwrap()
}

fn session_with_faults(faults: FaultPlan) -> Session {
    session(PipelineConfig { faults, ..PipelineConfig::default() })
}

#[test]
fn no_faults_reaches_proposed() {
    let out = session_with_faults(FaultPlan::default()).run(&matmul(12)).unwrap();
    assert_eq!(out.report.rung, Rung::Proposed);
    assert!(out.report.failures.is_empty());
    assert!(!out.report.fallback_fired());
}

#[test]
fn one_lowering_fault_degrades_to_stripped() {
    let faults = FaultPlan { fail_first_lowerings: 1, ..FaultPlan::default() };
    let out = session_with_faults(faults).run(&matmul(12)).unwrap();
    assert_eq!(out.report.rung, Rung::Stripped);
    assert_eq!(out.report.failures.len(), 1);
    assert_eq!(out.report.failures[0].rung, Rung::Proposed);
    assert_eq!(out.report.failures[0].error, PaloError::FaultInjected { site: "lowering" });
    // The stripped schedule keeps the structure but drops the hints.
    assert!(!out.schedule.uses_nt_stores());
    assert_eq!(out.lowered.vector_lanes(), 1);
    assert_eq!(out.lowered.parallel_loop(), None);
}

#[test]
fn two_lowering_faults_degrade_to_baseline() {
    let faults = FaultPlan { fail_first_lowerings: 2, ..FaultPlan::default() };
    let out = session_with_faults(faults).run(&matmul(12)).unwrap();
    assert_eq!(out.report.rung, Rung::Baseline);
    let rungs: Vec<Rung> = out.report.failures.iter().map(|f| f.rung).collect();
    assert_eq!(rungs, vec![Rung::Proposed, Rung::Stripped]);
}

#[test]
fn three_lowering_faults_degrade_to_naive() {
    let faults = FaultPlan { fail_first_lowerings: 3, ..FaultPlan::default() };
    let out = session_with_faults(faults).run(&matmul(12)).unwrap();
    assert_eq!(out.report.rung, Rung::Naive);
    assert_eq!(out.report.failures.len(), 3);
    // The naive rung lowers the program-order nest.
    assert_eq!(out.schedule.directives().len(), 0);
}

#[test]
fn exhausted_ladder_is_an_error() {
    let faults = FaultPlan { fail_first_lowerings: 4, ..FaultPlan::default() };
    let err = session_with_faults(faults).run(&matmul(12)).unwrap_err();
    assert_eq!(err, PaloError::FaultInjected { site: "lowering" });
}

#[test]
fn optimizer_panic_is_caught_and_degrades_to_baseline() {
    let faults = FaultPlan { panic_in_optimizer: true, ..FaultPlan::default() };
    let out = session_with_faults(faults).run(&matmul(12)).unwrap();
    // No proposed schedule exists, so the ladder starts at baseline.
    assert_eq!(out.report.rung, Rung::Baseline);
    assert!(out.decision.is_none());
    assert!(matches!(
        out.report.failures[0].error,
        PaloError::Panicked { context: "optimizer", .. }
    ));
    assert!(out.report.estimate.is_some(), "simulation still runs on the fallback");
}

#[test]
fn trace_overflow_fault_records_budget_failure_without_changing_rung() {
    let faults = FaultPlan { trace_overflow: true, ..FaultPlan::default() };
    let out = session_with_faults(faults).run(&matmul(12)).unwrap();
    assert_eq!(out.report.rung, Rung::Proposed, "simulation failures must not demote the rung");
    assert!(out.report.estimate.is_none());
    assert!(out
        .report
        .failures
        .iter()
        .any(|f| matches!(f.error, PaloError::BudgetExceeded { what: "trace lines", .. })));
}

#[test]
fn trace_line_budget_guard_fires() {
    let config = PipelineConfig {
        budget: ResourceBudget { max_trace_lines: Some(10), deadline: None },
        ..PipelineConfig::default()
    };
    let out = session(config).run(&matmul(64)).unwrap();
    assert!(out.report.estimate.is_none());
    assert!(out
        .report
        .failures
        .iter()
        .any(|f| f.error == PaloError::BudgetExceeded { what: "trace lines", limit: 10 }));
}

#[test]
fn zero_deadline_guard_fires() {
    let config = PipelineConfig {
        budget: ResourceBudget { max_trace_lines: None, deadline: Some(Duration::ZERO) },
        ..PipelineConfig::default()
    };
    let out = session(config).run(&matmul(64)).unwrap();
    assert!(out.report.estimate.is_none());
    assert!(out
        .report
        .failures
        .iter()
        .any(|f| matches!(f.error, PaloError::DeadlineExceeded { .. })));
}

#[test]
fn generous_budgets_change_nothing() {
    let config = PipelineConfig {
        budget: ResourceBudget {
            max_trace_lines: Some(u64::MAX),
            deadline: Some(Duration::from_secs(3600)),
        },
        ..PipelineConfig::default()
    };
    let nest = matmul(24);
    let plain = session(PipelineConfig::default()).run(&nest).unwrap();
    let guarded = session(config).run(&nest).unwrap();
    assert_eq!(plain.report.rung, guarded.report.rung);
    assert_eq!(plain.schedule, guarded.schedule);
    let (p, g) = (plain.report.estimate.unwrap(), guarded.report.estimate.unwrap());
    assert_eq!(p.ms, g.ms);
}

#[test]
fn degraded_schedule_still_computes_the_reference_result() {
    // Even on the naive rung the outcome must be executable and correct.
    let faults = FaultPlan { fail_first_lowerings: 3, ..FaultPlan::default() };
    let nest = matmul(8);
    let out = session_with_faults(faults).run(&nest).unwrap();
    let mut want = palo::exec::Buffers::for_nest(&nest, 7);
    let mut got = want.clone();
    run_reference(&nest, &mut want).unwrap();
    palo::exec::run(&nest, &out.lowered, &mut got).unwrap();
    assert_eq!(want, got);
}

#[test]
fn fault_plan_armed_reflects_any_site() {
    assert!(!FaultPlan::default().armed());
    assert!(FaultPlan { trace_overflow: true, ..FaultPlan::default() }.armed());
    assert!(FaultPlan { fail_first_lowerings: 1, ..FaultPlan::default() }.armed());
    assert!(FaultPlan { panic_in_optimizer: true, ..FaultPlan::default() }.armed());
}
