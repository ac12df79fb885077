//! The paper's prefetch-aware loop optimizer.
//!
//! This crate implements the optimization flow of *Loop Transformations
//! Leveraging Hardware Prefetching* (CGO'18), Figure 1:
//!
//! 1. **Classification** ([`mod@classify`]) — Figure 2: inspect the index sets
//!    of the statement to decide between the temporal optimizer, the
//!    spatial optimizer, or no loop transformation at all.
//! 2. **Cache emulation** ([`mod@emu`]) — Algorithm 1: bound tile dimensions
//!    so that no interference (conflict) misses occur, accounting for the
//!    lines injected by the L1 next-line and L2 constant-stride
//!    prefetchers.
//! 3. **Temporal optimizer** ([`temporal`]) — Algorithm 2: joint tile-size
//!    and loop-order selection minimizing
//!    `Ctotal = a2·CL1 + a3·CL2` (Eqs. 1–11) with prefetched references
//!    discounted from the miss estimates, then a reorder step minimizing
//!    the inter/intra-tile distance `Corder` (Eq. 12).
//! 4. **Spatial optimizer** ([`spatial`]) — Algorithm 3: tile-size
//!    selection for transposed kernels driven by the prefetching
//!    efficiency `Tx / lc` (Eqs. 14–19).
//! 5. **Post optimizations** ([`post`]) — parallelization (Eq. 13
//!    constraint), vectorization, and non-temporal stores.
//!
//! Steps 3–4 are *drivers*: they enumerate candidate tiles and delegate
//! all scoring to the pluggable [`model`] layer ([`CostModel`]), selected
//! via [`OptimizerConfig::model`] ([`ModelKind`]) — the paper's
//! analytical [`PrefetchAwareModel`], the TSS/TTS baselines, or the
//! cachesim-backed [`SimulatedModel`].
//!
//! The entry point is [`Optimizer`], which produces a [`Decision`]
//! containing the chosen [`palo_sched::Schedule`]. For end-to-end use,
//! [`Session`] is the one entry point: it runs the optimizer in a
//! fault-tolerant optimize → lower → validate → simulate flow with a
//! degradation ladder ([`Rung`]), resource guards ([`ResourceBudget`])
//! and fault injection ([`FaultPlan`]), and shares a content-addressed
//! artifact cache across its runs; every failure is reported through
//! [`PaloError`].
//!
//! # Examples
//!
//! ```
//! use palo_arch::presets;
//! use palo_core::{Class, Optimizer};
//! use palo_ir::{DType, NestBuilder};
//!
//! let mut b = NestBuilder::new("matmul", DType::F32);
//! let i = b.var("i", 512);
//! let j = b.var("j", 512);
//! let k = b.var("k", 512);
//! let a = b.array("A", &[512, 512]);
//! let bm = b.array("B", &[512, 512]);
//! let c = b.array("C", &[512, 512]);
//! b.accumulate(c, &[i, j], b.load(a, &[i, k]) * b.load(bm, &[k, j]));
//! let nest = b.build()?;
//!
//! let decision = Optimizer::new(&presets::intel_i7_5930k()).try_optimize(&nest)?;
//! assert_eq!(decision.class, Class::Temporal);
//! assert!(decision.tile.iter().any(|&t| t > 1)); // it tiled something
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod batch;
mod candidates;
pub mod classify;
mod codec;
mod config;
mod decision;
pub mod emu;
mod error;
pub mod fingerprint;
mod footprint;
mod gate;
pub mod model;
pub mod order;
pub mod pass;
mod pipeline;
pub mod post;
pub mod search;
mod session;
pub mod spatial;
pub mod store;
pub mod temporal;

pub use batch::{BatchDriver, BatchItem, BatchReport, BatchRequest, Priority};
pub use classify::{classify, Class};
pub use config::{ModelKind, OptimizerConfig, ParseModelKindError, SearchOptions};
pub use decision::Decision;
pub use emu::{emu, emu_cached, EmuKey, EmuParams};
pub use error::{catch_panic, PaloError};
pub use fingerprint::{Fingerprint, FingerprintBuilder};
pub use footprint::{Coverage, Footprints};
pub use model::{
    coverage_of, resolve, shift_hierarchy, CandidatePoint, CostBreakdown, CostModel,
    PrefetchAwareModel, ResolvedModel, SimulatedModel, TileContext,
};
pub use pass::{CacheStats, Pass, PassCx, PassTiming, RunCtl};
pub use pipeline::{
    FaultPlan, ParseRungError, PipelineConfig, PipelineOutcome, PipelineReport, ResourceBudget,
    RunOverrides, Rung, RungFailure,
};
pub use search::{SearchCounters, SearchStats};
pub use session::{PendingWrites, Session};
pub use store::{ArtifactStore, CacheConfig, ParsePolicyKindError, PolicyKind, TierStats};

use palo_arch::Architecture;
use palo_ir::{LoopNest, NestInfo};

/// The full optimization flow of the paper (Figure 1).
///
/// Holds the target [`Architecture`] and an [`OptimizerConfig`] whose
/// switches expose the design choices called out in DESIGN.md for
/// ablation (prefetch discounting, halved effective L2, the reorder step,
/// the parallel-grain constraint, NTI).
#[derive(Debug, Clone)]
pub struct Optimizer {
    arch: Architecture,
    config: OptimizerConfig,
}

impl Optimizer {
    /// An optimizer for `arch` with the paper's default configuration.
    pub fn new(arch: &Architecture) -> Self {
        Optimizer { arch: arch.clone(), config: OptimizerConfig::default() }
    }

    /// An optimizer with an explicit configuration (ablation switches).
    pub fn with_config(arch: &Architecture, config: OptimizerConfig) -> Self {
        Optimizer { arch: arch.clone(), config }
    }

    /// The target architecture.
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// The active configuration.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Runs the full flow on `nest` and returns the scheduling decision.
    pub fn optimize(&self, nest: &LoopNest) -> Decision {
        self.optimize_with_stats(nest).0
    }

    /// [`Optimizer::optimize`], also reporting what the candidate search
    /// did ([`SearchStats`]: workers, candidates evaluated/pruned, memo
    /// hit rates, wall time).
    ///
    /// Resolves [`OptimizerConfig::model`] once, then drives
    /// [`Optimizer::optimize_resolved`]. Callers issuing many
    /// optimizations under one configuration (a [`Session`] does this
    /// automatically) should resolve once themselves and reuse it.
    pub fn optimize_with_stats(&self, nest: &LoopNest) -> (Decision, SearchStats) {
        let resolved = model::resolve(&self.config, &self.arch);
        self.optimize_resolved(nest, &resolved)
    }

    /// The full flow under an already-resolved cost model: classify,
    /// then route to the class's driver. The `ContiguousOnly`
    /// passthrough runs under the optimizer's *original*
    /// `(arch, config)` pair (its decision mirrors the unoptimized
    /// flow); the search drivers run under the resolved *effective*
    /// pair.
    pub fn optimize_resolved(
        &self,
        nest: &LoopNest,
        resolved: &ResolvedModel,
    ) -> (Decision, SearchStats) {
        let info = NestInfo::analyze(nest);
        let class = classify(&info);
        pass::dispatch(nest, &info, class, &self.arch, &self.config, resolved)
    }

    /// Guarded variant of [`Optimizer::optimize`]: validates the
    /// architecture first and isolates panics.
    ///
    /// # Errors
    ///
    /// Returns [`PaloError::Arch`] for an inconsistent architecture
    /// description and [`PaloError::Panicked`] when the optimization flow
    /// panics.
    pub fn try_optimize(&self, nest: &LoopNest) -> Result<Decision, PaloError> {
        self.arch.validate().map_err(PaloError::Arch)?;
        catch_panic("optimizer", || self.optimize(nest))
    }
}
