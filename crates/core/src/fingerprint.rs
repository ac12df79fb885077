//! Content-addressed fingerprints for pass artifacts.
//!
//! Every artifact the [`Session`](crate::Session) caches is keyed by a
//! [`Fingerprint`]: a stable 128-bit digest of everything that can
//! influence the artifact's bits and *nothing else*. The key rules
//! (DESIGN.md §12):
//!
//! * **Hashed:** the nest's canonical form ([`palo_ir::StableHash`] on
//!   [`LoopNest`] — loops, array shapes, dtype, statement), every [`Architecture`] parameter (cache geometry,
//!   prefetchers, timing, core counts), every model-relevant
//!   [`OptimizerConfig`] field (ablation switches, candidate budget,
//!   [`ModelKind`](crate::ModelKind)), the relevant
//!   [`PipelineConfig`](crate::PipelineConfig) knobs
//!   (`validate_semantics_below`, the [`ResourceBudget`]), the pass name,
//!   the pass *version*, and the fingerprints of upstream artifacts
//!   (Lower is keyed by the schedule it lowers, Simulate by the lowered
//!   nest it traces).
//! * **Not hashed:** [`SearchOptions`](crate::SearchOptions) — worker
//!   count, pruning and memoization are guaranteed not to change any
//!   result bit (the engine's determinism contract, DESIGN.md §10), so
//!   two requests differing only in search knobs share one cache line.
//!   The kernel name and the array names (display-only: accesses name
//!   arrays by position, and the only other reader, a validation error's
//!   text, is never cached). [`FaultPlan`](crate::FaultPlan) —
//!   an armed plan *bypasses* the cache entirely instead of keying it
//!   (injected faults must fire on every run, and a faulted artifact
//!   must never be served to a clean request).
//! * **Version-bump policy:** any change to a pass's observable output
//!   for some input — a model tweak, a new lowering rule, a changed
//!   report field — must bump that pass's `version` constant, which
//!   invalidates exactly that pass's cached artifacts (and, through key
//!   chaining, everything downstream of them).

use crate::config::OptimizerConfig;
use crate::pipeline::ResourceBudget;
use palo_arch::{Architecture, CacheLevel, PrefetcherConfig, SharingScope, WriteAllocate};
use palo_ir::{Digest, LoopNest, StableHash, StableHasher};

/// A cache key: the stable digest of one pass request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub Digest);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

fn hash_prefetcher(h: &mut StableHasher, p: &PrefetcherConfig) {
    match p {
        PrefetcherConfig::None => h.write_u8(0),
        PrefetcherConfig::NextLine => h.write_u8(1),
        PrefetcherConfig::Stride { degree, max_distance } => {
            h.write_u8(2);
            h.write_usize(*degree);
            h.write_usize(*max_distance);
        }
        PrefetcherConfig::AdjacentPair => h.write_u8(3),
        PrefetcherConfig::ConfidentStride { degree, max_distance, min_confidence } => {
            h.write_u8(4);
            h.write_usize(*degree);
            h.write_usize(*max_distance);
            h.write_u8(*min_confidence);
        }
        PrefetcherConfig::Stream { degree, max_distance, confirm } => {
            h.write_u8(5);
            h.write_usize(*degree);
            h.write_usize(*max_distance);
            h.write_u8(*confirm);
        }
    }
}

fn hash_cache_level(h: &mut StableHasher, c: &CacheLevel) {
    h.write_usize(c.line_size);
    h.write_usize(c.associativity);
    h.write_usize(c.size_bytes);
    h.write_u8(match c.sharing {
        SharingScope::Core => 0,
        SharingScope::Chip => 1,
    });
    h.write_u8(match c.write_allocate {
        WriteAllocate::Allocate => 0,
        WriteAllocate::NoAllocate => 1,
    });
    hash_prefetcher(h, &c.prefetcher);
    h.write_f64(c.latency_cycles);
}

/// Folds every model-visible architecture parameter. The platform `name`
/// is display-only and excluded, mirroring the nest's canonical form.
pub fn hash_architecture(h: &mut StableHasher, arch: &Architecture) {
    h.write_usize(arch.caches.len());
    for c in &arch.caches {
        hash_cache_level(h, c);
    }
    h.write_usize(arch.cores);
    h.write_usize(arch.threads_per_core);
    h.write_usize(arch.vector_bytes);
    arch.supports_nt_stores.stable_hash(h);
    h.write_f64(arch.timing.freq_ghz);
    h.write_f64(arch.timing.mem_latency_cycles);
    h.write_f64(arch.timing.mem_transfer_cycles);
    h.write_f64(arch.timing.compute_cycles_per_iter);
    h.write_f64(arch.timing.hit_exposed_fraction);
}

/// Folds every model-relevant optimizer switch. `config.search` is
/// deliberately *not* folded: the engine's determinism contract
/// guarantees worker count, pruning and memoization never change a
/// result bit, so they must not fragment the cache.
pub fn hash_optimizer_config(h: &mut StableHasher, config: &OptimizerConfig) {
    config.prefetch_discount.stable_hash(h);
    config.halve_l2_sets.stable_hash(h);
    config.reorder_step.stable_hash(h);
    config.parallel_grain_constraint.stable_hash(h);
    config.enable_nti.stable_hash(h);
    config.bandwidth_term.stable_hash(h);
    h.write_usize(config.max_candidates_per_dim);
    h.write_u8(match config.model {
        crate::ModelKind::Paper => 0,
        crate::ModelKind::Tss => 1,
        crate::ModelKind::Tts => 2,
        crate::ModelKind::Simulated => 3,
    });
}

/// Folds the resource guards that can change a Simulate artifact (an
/// aborted trace is a different outcome than a completed one).
pub fn hash_budget(h: &mut StableHasher, budget: &ResourceBudget) {
    budget.max_trace_lines.stable_hash(h);
    match budget.deadline {
        None => h.write_u8(0),
        Some(d) => {
            h.write_u8(1);
            h.write_u64(d.as_nanos() as u64);
        }
    }
}

/// Builder for one pass-request fingerprint: seed with the pass identity,
/// fold the request's inputs, [`finish`](FingerprintBuilder::finish).
#[derive(Debug, Clone)]
pub struct FingerprintBuilder {
    h: StableHasher,
}

impl FingerprintBuilder {
    /// Starts a key for `pass` at schema `version`.
    pub fn pass(pass: &str, version: u32) -> Self {
        let mut h = StableHasher::new();
        h.write_str(pass);
        h.write_u64(version as u64);
        FingerprintBuilder { h }
    }

    /// Folds the nest's canonical form.
    pub fn nest(mut self, nest: &LoopNest) -> Self {
        nest.stable_hash(&mut self.h);
        self
    }

    /// Folds the target architecture.
    pub fn arch(mut self, arch: &Architecture) -> Self {
        hash_architecture(&mut self.h, arch);
        self
    }

    /// Folds the optimizer configuration (minus search knobs).
    pub fn optimizer_config(mut self, config: &OptimizerConfig) -> Self {
        hash_optimizer_config(&mut self.h, config);
        self
    }

    /// Folds the simulation resource guards.
    pub fn budget(mut self, budget: &ResourceBudget) -> Self {
        hash_budget(&mut self.h, budget);
        self
    }

    /// Folds an arbitrary stable-hashable value (upstream artifact
    /// digests, schedules, thresholds).
    pub fn value<T: StableHash + ?Sized>(mut self, v: &T) -> Self {
        v.stable_hash(&mut self.h);
        self
    }

    /// The finished cache key.
    pub fn finish(self) -> Fingerprint {
        Fingerprint(self.h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelKind;
    use palo_arch::presets;
    use palo_ir::{DType, NestBuilder};
    use std::time::Duration;

    fn nest(n: usize) -> LoopNest {
        let mut b = NestBuilder::new("mm", DType::F32);
        let i = b.var("i", n);
        let j = b.var("j", n);
        let k = b.var("k", n);
        let a = b.array("A", &[n, n]);
        let bm = b.array("B", &[n, n]);
        let c = b.array("C", &[n, n]);
        b.accumulate(c, &[i, j], b.load(a, &[i, k]) * b.load(bm, &[k, j]));
        b.build().unwrap()
    }

    fn key(
        n: usize,
        arch: &Architecture,
        config: &OptimizerConfig,
        version: u32,
    ) -> Fingerprint {
        FingerprintBuilder::pass("optimize", version)
            .nest(&nest(n))
            .arch(arch)
            .optimizer_config(config)
            .finish()
    }

    #[test]
    fn identical_requests_collide_and_any_input_change_misses() {
        let arch = presets::intel_i7_6700();
        let config = OptimizerConfig::default();
        let base = key(32, &arch, &config, 1);
        assert_eq!(base, key(32, &arch, &config, 1));

        // Nest bounds.
        assert_ne!(base, key(48, &arch, &config, 1));
        // Pass version.
        assert_ne!(base, key(32, &arch, &config, 2));
        // Architecture parameter.
        let mut other_arch = arch.clone();
        other_arch.caches[0].size_bytes *= 2;
        assert_ne!(base, key(32, &other_arch, &config, 1));
        // Config field.
        let other_cfg = OptimizerConfig { model: ModelKind::Tss, ..config.clone() };
        assert_ne!(base, key(32, &arch, &other_cfg, 1));
    }

    #[test]
    fn search_knobs_do_not_fragment_the_cache() {
        let arch = presets::intel_i7_6700();
        let mut config = OptimizerConfig::default();
        let base = key(32, &arch, &config, 1);
        config.search = crate::SearchOptions::exhaustive();
        assert_eq!(base, key(32, &arch, &config, 1));
        config.search.threads = Some(7);
        assert_eq!(base, key(32, &arch, &config, 1));
    }

    #[test]
    fn platform_name_is_display_only() {
        let arch = presets::intel_i7_6700();
        let mut renamed = arch.clone();
        renamed.name = "some other label".into();
        let config = OptimizerConfig::default();
        assert_eq!(key(32, &arch, &config, 1), key(32, &renamed, &config, 1));
    }

    #[test]
    fn budget_guards_key_the_simulate_request() {
        let b = |budget: &ResourceBudget| {
            FingerprintBuilder::pass("simulate", 1).budget(budget).finish()
        };
        let unlimited = b(&ResourceBudget::default());
        assert_ne!(unlimited, b(&ResourceBudget { max_trace_lines: Some(10), deadline: None }));
        assert_ne!(
            unlimited,
            b(&ResourceBudget {
                max_trace_lines: None,
                deadline: Some(Duration::from_secs(1))
            })
        );
    }
}
