//! [`Session`]: the pass-graph executor with a content-addressed
//! artifact cache.
//!
//! A session owns, for one `(architecture, configuration)` pair:
//!
//! * the cost model, **resolved exactly once** at construction
//!   ([`crate::model::resolve`]) — every run optimizes under the same
//!   [`ResolvedModel`] reference instead of re-cloning the config;
//! * the [`ArtifactCache`]: pass artifacts keyed by the stable
//!   [`Fingerprint`](crate::Fingerprint) of their request
//!   (DESIGN.md §12), shared by every run and every
//!   [`BatchDriver`](crate::BatchDriver) worker.
//!
//! A session is the one way to run the optimize → lower → validate →
//! simulate flow: [`Session::run`] for the optimizer's schedule,
//! [`Session::run_schedule`] for a caller's, both through the degradation
//! ladder ([`Rung`]), the resource guards
//! ([`ResourceBudget`](crate::ResourceBudget)) and fault injection
//! ([`FaultPlan`](crate::FaultPlan)). Each stage goes through
//! [`Session::execute`], which consults the cache first. Re-running a
//! nest the session has seen replays the cached artifacts: bit-identical
//! decisions, rungs and estimates, without re-searching. So does a nest
//! that differs only in its kernel or array names (same canonical form):
//! `3mm`'s three stages and `matmul` at one size are one computation.
//!
//! A new artifact enters the memory tier at once; its disk write is the
//! run's epilogue ([`PendingWrites`]). [`Session::run`] and friends
//! persist before they return; [`Session::run_unpersisted`] hands the
//! epilogue to the caller, so a server can answer first and write after.

use crate::batch::BatchDriver;
use crate::error::PaloError;
use crate::gate::SimGate;
use crate::model::{self, ResolvedModel};
use crate::pass::{
    ArtifactCache, CacheStats, ClassifyPass, DegradePass, LowerPass, OptimizePass, Pass,
    PassCx, RunCtl, SimulatePass, ValidatePass,
};
use crate::pipeline::{
    PipelineConfig, PipelineOutcome, PipelineReport, RunOverrides, Rung, RungFailure,
};
use crate::search::SearchStats;
use palo_arch::Architecture;
use palo_cachesim::Hierarchy;
use palo_ir::LoopNest;
use palo_sched::{LoweredNest, Schedule};
use std::sync::Arc;

/// A reusable pipeline execution context: validated architecture,
/// once-resolved cost model, and the content-addressed artifact cache.
///
/// # Examples
///
/// ```
/// use palo_arch::presets;
/// use palo_core::{PipelineConfig, Session};
/// use palo_ir::{DType, NestBuilder};
///
/// let mut b = NestBuilder::new("copy", DType::F32);
/// let i = b.var("i", 64);
/// let j = b.var("j", 64);
/// let src = b.array("src", &[64, 64]);
/// let dst = b.array("dst", &[64, 64]);
/// let ld = b.load(src, &[i, j]);
/// b.store(dst, &[i, j], ld);
/// let nest = b.build()?;
///
/// let session = Session::new(&presets::intel_i7_6700(), PipelineConfig::default())?;
/// let cold = session.run(&nest)?;
/// let warm = session.run(&nest)?; // replayed from the artifact cache
/// assert_eq!(cold.report.rung, warm.report.rung);
/// assert!(warm.report.cache.hits > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Session {
    arch: Architecture,
    config: PipelineConfig,
    resolved: ResolvedModel,
    cache: ArtifactCache,
    sim_gate: SimGate,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("arch", &self.arch.name)
            .field("model", &self.resolved.model.name())
            .field("cache", &self.cache.stats())
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Validates `arch`, resolves the cost model once, and opens an
    /// empty artifact cache.
    ///
    /// # Errors
    ///
    /// [`PaloError::Arch`] for an inconsistent architecture description,
    /// the simulator's rejection when the hierarchy cannot be modeled,
    /// or [`PaloError::Store`] when the configured cache directory
    /// cannot be opened.
    pub fn new(arch: &Architecture, config: PipelineConfig) -> Result<Self, PaloError> {
        arch.validate().map_err(PaloError::Arch)?;
        // Reject architectures the simulator cannot model before any
        // stage constructs a hierarchy (which would panic).
        Hierarchy::try_from_architecture(arch)?;
        let resolved = model::resolve(&config.optimizer, arch);
        let sim_gate = SimGate::new(config.max_concurrent_sims);
        let cache = ArtifactCache::with_config(&config.cache)?;
        Ok(Session { arch: arch.clone(), config, resolved, cache, sim_gate })
    }

    /// The target architecture.
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The once-resolved cost model (and its effective `(arch, config)`
    /// pair) every run of this session optimizes under.
    pub fn resolved_model(&self) -> &ResolvedModel {
        &self.resolved
    }

    /// Lifetime cache counters of this session.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Artifacts currently held by the cache.
    pub fn cached_artifacts(&self) -> usize {
        self.cache.len()
    }

    /// The most simulate-stage executions ever in flight at once over
    /// this session's lifetime (observability for
    /// [`PipelineConfig::max_concurrent_sims`]).
    pub fn max_sims_observed(&self) -> usize {
        self.sim_gate.high_water()
    }

    /// A batch driver over this session (suite-scale concurrent runs).
    pub fn batch(&self) -> BatchDriver<'_> {
        BatchDriver::new(self)
    }

    /// Executes one pass request through the artifact cache: a cached
    /// artifact is returned as-is; otherwise the pass runs and its
    /// artifact is stored in the memory tier, with its disk write
    /// recorded in `ctl` for the run's epilogue ([`PendingWrites`]) —
    /// or, for a hand-built `ctl`, written through at once. The cache
    /// is bypassed wholesale while the
    /// *run's effective* [`FaultPlan`](crate::FaultPlan) is armed
    /// (session-wide or per-request via
    /// [`RunOverrides`](crate::RunOverrides)), and for requests the pass
    /// declares uncacheable.
    ///
    /// # Errors
    ///
    /// Whatever the pass's [`Pass::run`] returns; errors are never
    /// cached.
    pub fn execute<P: Pass>(
        &self,
        pass: &P,
        ctl: &RunCtl,
        input: &P::Input<'_>,
    ) -> Result<Arc<P::Output>, PaloError> {
        let t0 = std::time::Instant::now();
        let cx =
            PassCx { arch: &self.arch, config: &self.config, resolved: &self.resolved, ctl };
        let key = if ctl.faults().armed() { None } else { pass.fingerprint(&cx, input) };
        let Some(key) = key else {
            ctl.tally(|run| self.cache.count_bypass(run));
            let out = pass.run(&cx, input).map(Arc::new);
            ctl.record_pass(pass.name(), t0.elapsed(), false);
            return out;
        };
        let hit =
            ctl.tally(|run| self.cache.get::<P::Output>(key, pass.name(), pass.version(), run));
        if let Some(hit) = hit {
            ctl.record_pass(pass.name(), t0.elapsed(), true);
            return Ok(hit);
        }
        let run = pass.run(&cx, input);
        ctl.record_pass(pass.name(), t0.elapsed(), false);
        let artifact = Arc::new(run?);
        let staged = ctl.tally(|run| {
            self.cache.stage(key, pass.name(), pass.version(), artifact.clone(), run)
        });
        match staged {
            Some(bytes) if ctl.defers_writes() => ctl.defer_write(key, bytes),
            Some(bytes) => ctl.tally(|run| self.cache.persist(key, bytes, run)),
            None => {}
        }
        Ok(artifact)
    }

    /// Runs the optimizer on `nest` and executes the degradation ladder
    /// ([`Rung`]): optimize → lower → validate → simulate.
    ///
    /// # Errors
    ///
    /// Returns an error only when the nest cannot be processed at all:
    /// every ladder rung — including the program-order nest — fails. An
    /// optimizer failure alone is *not* an error: the run degrades and
    /// records the failure in the report.
    pub fn run(&self, nest: &LoopNest) -> Result<PipelineOutcome, PaloError> {
        self.run_with(nest, &RunOverrides::default())
    }

    /// [`Session::run`] with per-request overrides layered over the
    /// session configuration: a request-scoped deadline or trace budget,
    /// a request-scoped [`FaultPlan`](crate::FaultPlan) (armed plans
    /// bypass the cache for this run only), or a request-scoped
    /// `simulate` switch (the load-shedding lever — `Some(false)` answers
    /// from the analytical model alone).
    ///
    /// The run's new artifacts are on disk when this returns, on `Ok`
    /// and `Err` alike, and the report's cache window includes their
    /// disk writes.
    ///
    /// # Errors
    ///
    /// As for [`Session::run`].
    pub fn run_with(
        &self,
        nest: &LoopNest,
        overrides: &RunOverrides,
    ) -> Result<PipelineOutcome, PaloError> {
        self.persisted(|| self.run_unpersisted(nest, overrides))
    }

    /// [`Session::run_with`] without the epilogue: the outcome, plus the
    /// disk writes the run still owes. The artifacts are already in the
    /// memory tier, so concurrent and later runs of this session hit
    /// them; the disk tier gets them on [`PendingWrites::persist`] or
    /// when the [`PendingWrites`] is dropped. The report's cache window
    /// excludes those writes.
    ///
    /// This is how `palo-serve` answers before it writes files.
    pub fn run_unpersisted(
        &self,
        nest: &LoopNest,
        overrides: &RunOverrides,
    ) -> (Result<PipelineOutcome, PaloError>, PendingWrites<'_>) {
        let run = self.pending(overrides);
        let ctl = &run.ctl;
        let mut failures: Vec<RungFailure> = Vec::new();

        let optimized = self
            .execute(&ClassifyPass, ctl, &nest)
            .and_then(|c| self.execute(&OptimizePass, ctl, &(nest, c.class)));
        let (decision, search) = match optimized {
            Ok(a) => (Some(a.decision.clone()), Some(a.search.clone())),
            Err(error) => {
                failures.push(RungFailure { rung: Rung::Proposed, error });
                (None, None)
            }
        };

        let proposed = decision.as_ref().map(|d| d.schedule().clone());
        (self.finish(nest, decision, proposed, search, failures, ctl), run)
    }

    /// Executes the degradation ladder for a caller-supplied schedule
    /// (skipping the optimizer stage). Persists before it returns, like
    /// [`Session::run_with`].
    ///
    /// The schedule may be arbitrary — even illegal for `nest`; an
    /// illegal schedule simply fails its rung and the ladder continues.
    ///
    /// # Errors
    ///
    /// As for [`Session::run`].
    pub fn run_schedule(
        &self,
        nest: &LoopNest,
        proposed: &Schedule,
    ) -> Result<PipelineOutcome, PaloError> {
        self.persisted(|| {
            let run = self.pending(&RunOverrides::default());
            let out =
                self.finish(nest, None, Some(proposed.clone()), None, Vec::new(), &run.ctl);
            (out, run)
        })
    }

    /// A fresh run: its control block, owned by the epilogue that
    /// persists what the run stages (even if the run unwinds).
    fn pending(&self, overrides: &RunOverrides) -> PendingWrites<'_> {
        let ctl = RunCtl::for_run(&self.config, overrides).deferring_writes();
        PendingWrites { cache: &self.cache, ctl }
    }

    /// Runs `run`, persists its writes, and re-takes the report's cache
    /// window so it covers them.
    fn persisted<'s>(
        &'s self,
        run: impl FnOnce() -> (Result<PipelineOutcome, PaloError>, PendingWrites<'s>),
    ) -> Result<PipelineOutcome, PaloError> {
        let (out, writes) = run();
        let window = writes.persist_window();
        out.map(|mut out| {
            out.report.cache = window;
            out
        })
    }

    /// Walks the ladder, simulates the accepted schedule, and assembles
    /// the outcome.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        nest: &LoopNest,
        decision: Option<crate::Decision>,
        proposed: Option<Schedule>,
        search: Option<SearchStats>,
        mut failures: Vec<RungFailure>,
        ctl: &RunCtl,
    ) -> Result<PipelineOutcome, PaloError> {
        let ladder =
            self.execute(&DegradePass, ctl, &(nest, proposed.as_ref()))?.ladder.clone();

        let mut accepted: Option<(Rung, Schedule, LoweredNest)> = None;
        for (rung, schedule) in ladder {
            match self.attempt_rung(nest, &schedule, ctl) {
                Ok(lowered) => {
                    accepted = Some((rung, schedule, lowered));
                    break;
                }
                Err(error) => failures.push(RungFailure { rung, error }),
            }
        }
        let Some((rung, schedule, lowered)) = accepted else {
            // Even the program-order nest failed; surface the last error.
            return Err(failures
                .last()
                .map(|f| f.error.clone())
                .unwrap_or(PaloError::FaultInjected { site: "ladder" }));
        };

        let estimate = if ctl.simulate() {
            // Simulation is the memory-heavy stage: gate its concurrency
            // (batch-wide) to `max_concurrent_sims`, leaving every other
            // stage as parallel as the driver.
            let _permit = self.sim_gate.acquire();
            match self.execute(&SimulatePass, ctl, &(nest, &lowered)) {
                Ok(a) => Some(a.estimate.clone()),
                Err(error) => {
                    failures.push(RungFailure { rung, error });
                    None
                }
            }
        } else {
            None
        };

        let breakdown = decision.as_ref().map(|d| d.breakdown.clone());
        Ok(PipelineOutcome {
            decision,
            schedule,
            lowered,
            report: PipelineReport {
                rung,
                failures,
                estimate,
                search,
                model: self.config.optimizer.model,
                breakdown,
                cache: ctl.cache_window(),
                timings: ctl.take_timings(),
                elapsed: ctl.start().elapsed(),
            },
        })
    }

    /// Lowers and (when cheap enough) semantically validates one ladder
    /// candidate.
    fn attempt_rung(
        &self,
        nest: &LoopNest,
        schedule: &Schedule,
        ctl: &RunCtl,
    ) -> Result<LoweredNest, PaloError> {
        let lowered = self.execute(&LowerPass, ctl, &(nest, schedule))?.lowered.clone();
        if nest.iteration_count() < self.config.validate_semantics_below {
            self.execute(&ValidatePass, ctl, &(nest, &lowered))?;
        }
        Ok(lowered)
    }
}

/// The disk writes one run still owes: the epilogue of a
/// [`Session::run_unpersisted`] call.
///
/// Every artifact in it is already in the session's memory tier.
/// [`persist`](PendingWrites::persist) writes them to the disk tier;
/// dropping the value does the same, so no path — early return, error,
/// unwinding panic — loses them. Without a disk tier there is nothing to
/// write.
#[must_use = "dropping PendingWrites persists at once; hold it to write after answering"]
pub struct PendingWrites<'s> {
    cache: &'s ArtifactCache,
    /// The run's control block: its deferred writes live here while the
    /// run executes, so the epilogue persists them even if the run
    /// unwinds.
    ctl: RunCtl,
}

impl PendingWrites<'_> {
    /// Writes every pending artifact to the disk tier.
    pub fn persist(self) {
        // `Drop` does the work.
    }

    /// Persists, and returns the run's cache window with the writes.
    fn persist_window(self) -> CacheStats {
        self.write_all();
        self.ctl.cache_window()
    }

    fn write_all(&self) {
        for (key, bytes) in self.ctl.take_writes() {
            self.ctl.tally(|run| self.cache.persist(key, bytes, run));
        }
    }
}

impl Drop for PendingWrites<'_> {
    fn drop(&mut self) {
        self.write_all();
    }
}

impl std::fmt::Debug for PendingWrites<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingWrites").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::FaultPlan;
    use palo_arch::presets;
    use palo_ir::{DType, NestBuilder};

    fn matmul(n: usize) -> LoopNest {
        named_matmul("matmul", n)
    }

    fn named_matmul(name: &str, n: usize) -> LoopNest {
        matmul_with_arrays(name, ["A", "B", "C"], n)
    }

    fn matmul_with_arrays(name: &str, [an, bn, cn]: [&str; 3], n: usize) -> LoopNest {
        let mut b = NestBuilder::new(name, DType::F32);
        let i = b.var("i", n);
        let j = b.var("j", n);
        let k = b.var("k", n);
        let a = b.array(an, &[n, n]);
        let bm = b.array(bn, &[n, n]);
        let c = b.array(cn, &[n, n]);
        b.accumulate(c, &[i, j], b.load(a, &[i, k]) * b.load(bm, &[k, j]));
        b.build().unwrap()
    }

    #[test]
    fn warm_run_replays_cold_run_from_cache() {
        let session =
            Session::new(&presets::intel_i7_6700(), PipelineConfig::default()).unwrap();
        let cold = session.run(&matmul(16)).unwrap();
        assert_eq!(cold.report.rung, Rung::Proposed);
        assert!(cold.report.failures.is_empty());
        let stats = cold.report.search.as_ref().unwrap();
        assert!(stats.workers >= 1);
        assert!(stats.candidates_evaluated > 0);
        // The scoring model and its per-term breakdown are surfaced next
        // to the search stats.
        assert_eq!(cold.report.model, crate::ModelKind::Paper);
        let bd = cold.report.breakdown.as_ref().unwrap();
        assert_eq!(bd.total, cold.decision.as_ref().unwrap().predicted_cost);
        assert_eq!(cold.report.cache.hits, 0);
        assert!(cold.report.cache.misses > 0);

        let warm = session.run(&matmul(16)).unwrap();
        assert!(
            warm.report.cache.misses == 0,
            "warm run must be fully cached: {:?}",
            warm.report.cache
        );
        assert!(warm.report.cache.hits > 0);
        assert_eq!(cold.decision, warm.decision);
        assert_eq!(cold.report.rung, warm.report.rung);
        assert_eq!(cold.schedule, warm.schedule);
        assert_eq!(
            cold.report.estimate.as_ref().map(|e| e.ms.to_bits()),
            warm.report.estimate.as_ref().map(|e| e.ms.to_bits()),
        );
    }

    #[test]
    fn run_schedule_skips_the_optimizer_and_degrades_an_illegal_schedule() {
        let session =
            Session::new(&presets::intel_i7_6700(), PipelineConfig::default()).unwrap();
        let out = session.run_schedule(&matmul(8), &Schedule::new()).unwrap();
        assert!(out.decision.is_none());
        assert!(out.report.search.is_none());
        assert!(out.report.breakdown.is_none());

        let mut bad = Schedule::new();
        bad.reorder(&["nonexistent"]); // fails to lower
        let out = session.run_schedule(&matmul(8), &bad).unwrap();
        assert!(out.report.fallback_fired());
        assert!(out
            .report
            .failures
            .iter()
            .any(|f| f.rung == Rung::Proposed && matches!(f.error, PaloError::Sched(_))));
    }

    #[test]
    fn invalid_architecture_is_a_session_error() {
        let mut arch = presets::intel_i7_6700();
        arch.caches.truncate(1);
        let err = Session::new(&arch, PipelineConfig::default()).unwrap_err();
        assert!(matches!(err, PaloError::Arch(_)));
    }

    #[test]
    fn kernel_name_does_not_fragment_the_cache() {
        let session =
            Session::new(&presets::intel_i7_6700(), PipelineConfig::default()).unwrap();
        session.run(&named_matmul("mm_a", 16)).unwrap();
        let renamed = session.run(&named_matmul("a_completely_different_label", 16)).unwrap();
        assert_eq!(renamed.report.cache.misses, 0);
        // Array names are labels too: `3mm`'s `G = E·F` replays `matmul`.
        let stage = session.run(&matmul_with_arrays("3mm_g", ["E", "F", "G"], 16)).unwrap();
        assert_eq!(stage.report.cache.misses, 0);
        assert!(stage.report.cache.hits > 0);
    }

    #[test]
    fn armed_faults_bypass_the_cache() {
        let mut config = PipelineConfig::default();
        config.faults.fail_first_lowerings = 1;
        let session = Session::new(&presets::intel_i7_6700(), config).unwrap();
        let out = session.run(&matmul(8)).unwrap();
        assert!(out.report.fallback_fired());
        let s = session.cache_stats();
        assert_eq!((s.hits, s.misses), (0, 0), "armed faults must not touch the cache");
        assert!(s.bypasses > 0);
        assert_eq!(session.cached_artifacts(), 0);
    }

    #[test]
    fn deadline_budget_keeps_simulation_uncacheable() {
        let mut config = PipelineConfig::default();
        config.budget.deadline = Some(std::time::Duration::from_secs(600));
        let session = Session::new(&presets::intel_i7_6700(), config).unwrap();
        session.run(&matmul(8)).unwrap();
        let warm = session.run(&matmul(8)).unwrap();
        // Everything but the simulate stage replays from cache.
        assert_eq!(warm.report.cache.misses, 0);
        assert_eq!(warm.report.cache.bypasses, 1);
        assert!(warm.report.estimate.is_some());
    }

    #[test]
    fn report_carries_a_per_pass_timing_breakdown() {
        let session =
            Session::new(&presets::intel_i7_6700(), PipelineConfig::default()).unwrap();
        let cold = session.run(&matmul(16)).unwrap();
        let totals = cold.report.pass_totals();
        let names: Vec<&str> = totals.iter().map(|t| t.0).collect();
        for expect in ["classify", "optimize", "degrade", "lower", "simulate"] {
            assert!(names.contains(&expect), "missing {expect} in {names:?}");
        }
        assert!(cold.report.timings.iter().all(|t| !t.cached), "cold run must not hit");
        assert!(totals.iter().all(|&(_, _, n, hits)| n >= 1 && hits == 0));

        let warm = session.run(&matmul(16)).unwrap();
        assert!(
            warm.report.timings.iter().all(|t| t.cached),
            "warm run must replay every pass: {:?}",
            warm.report.timings
        );
    }

    #[test]
    fn per_request_faults_bypass_the_cache_without_arming_the_session() {
        let session =
            Session::new(&presets::intel_i7_6700(), PipelineConfig::default()).unwrap();
        let faulted = RunOverrides {
            faults: Some(FaultPlan { fail_first_lowerings: 1, ..FaultPlan::default() }),
            ..RunOverrides::default()
        };
        let out = session.run_with(&matmul(8), &faulted).unwrap();
        assert!(out.report.fallback_fired());
        let s = session.cache_stats();
        assert_eq!((s.hits, s.misses), (0, 0), "armed per-request faults must bypass");
        assert!(s.bypasses > 0);
        assert_eq!(session.cached_artifacts(), 0);

        // A clean request on the same session caches normally...
        let clean = session.run(&matmul(8)).unwrap();
        assert!(clean.report.cache.misses > 0);
        assert!(session.cached_artifacts() > 0);
        assert!(!clean.report.fallback_fired());

        // ...and a faulted re-request still bypasses the now-warm cache.
        let refaulted = session.run_with(&matmul(8), &faulted).unwrap();
        assert!(refaulted.report.fallback_fired());
        assert_eq!(refaulted.report.cache.hits, 0);
        assert_eq!(refaulted.report.cache.misses, 0);
        assert!(refaulted.report.cache.bypasses > 0);
    }

    #[test]
    fn per_request_deadline_keeps_simulation_uncacheable() {
        let session =
            Session::new(&presets::intel_i7_6700(), PipelineConfig::default()).unwrap();
        let deadlined = RunOverrides {
            deadline: Some(std::time::Duration::from_secs(600)),
            ..RunOverrides::default()
        };
        session.run_with(&matmul(8), &deadlined).unwrap();
        let warm = session.run_with(&matmul(8), &deadlined).unwrap();
        assert_eq!(warm.report.cache.misses, 0);
        assert_eq!(warm.report.cache.bypasses, 1, "simulate must stay uncacheable");
        assert!(warm.report.estimate.is_some());
    }

    #[test]
    fn per_request_simulate_override_sheds_the_estimate() {
        let session =
            Session::new(&presets::intel_i7_6700(), PipelineConfig::default()).unwrap();
        let shed = RunOverrides { simulate: Some(false), ..RunOverrides::default() };
        let out = session.run_with(&matmul(8), &shed).unwrap();
        assert!(out.report.estimate.is_none());
        assert!(out.decision.is_some(), "the analytical decision still lands");
        let full = session.run(&matmul(8)).unwrap();
        assert!(full.report.estimate.is_some());
        assert_eq!(out.decision, full.decision, "shedding must not change the decision");
    }

    fn persistent_session(tag: &str) -> (Session, std::path::PathBuf) {
        let root =
            std::env::temp_dir().join(format!("palo-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut config = PipelineConfig::default();
        config.cache.dir = Some(root.clone());
        (Session::new(&presets::intel_i7_6700(), config).unwrap(), root)
    }

    fn art_files(root: &std::path::Path) -> usize {
        use crate::store::ArtifactStore;
        crate::store::DiskStore::open(root).unwrap().len()
    }

    #[test]
    fn unpersisted_runs_answer_from_memory_and_write_on_persist() {
        let (session, root) = persistent_session("deferred");
        let (cold, pending) = session.run_unpersisted(&matmul(8), &RunOverrides::default());
        let cold = cold.unwrap();
        assert!(cold.report.cache.misses > 0);
        assert_eq!(art_files(&root), 0, "nothing may touch the disk before persist");
        assert_eq!(cold.report.cache.disk.bytes_written, 0);

        // The memory tier already serves the run's artifacts, and a
        // replay owes the disk nothing.
        let (warm, nothing) = session.run_unpersisted(&matmul(8), &RunOverrides::default());
        assert_eq!(warm.unwrap().report.cache.misses, 0);
        nothing.persist();
        assert_eq!(art_files(&root), 0);

        pending.persist();
        assert_eq!(art_files(&root) as u64, cold.report.cache.misses);

        // `run` persists before it returns and its window shows the writes.
        let shed = RunOverrides { simulate: Some(false), ..RunOverrides::default() };
        let out = session.run_with(&matmul(12), &shed).unwrap();
        assert!(out.report.cache.disk.bytes_written > 0);
        assert_eq!(art_files(&root) as u64, cold.report.cache.misses + out.report.cache.misses);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn dropped_pending_writes_still_persist() {
        let (session, root) = persistent_session("dropped");
        let (out, pending) = session.run_unpersisted(&matmul(8), &RunOverrides::default());
        let misses = out.unwrap().report.cache.misses;
        drop(pending);
        assert_eq!(art_files(&root) as u64, misses);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_hand_built_run_ctl_writes_through() {
        let (session, root) = persistent_session("by-hand");
        session.execute(&ClassifyPass, &RunCtl::new(), &&matmul(8)).unwrap();
        assert_eq!(art_files(&root), 1, "no epilogue will run: the write must be inline");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn model_is_resolved_once_per_session() {
        let session =
            Session::new(&presets::intel_i7_6700(), PipelineConfig::default()).unwrap();
        let first = session.resolved_model() as *const _;
        session.run(&matmul(8)).unwrap();
        assert_eq!(first, session.resolved_model() as *const _);
        assert_eq!(session.resolved_model().model.name(), "paper");
    }
}
