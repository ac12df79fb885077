//! The TSS and TTS analytical tile-size models (§5.2, Table 6).
//!
//! Both models are the shared cost machinery of [`palo_core::model`]
//! ([`PrefetchAwareModel`](palo_core::PrefetchAwareModel) under the names
//! `"tss"`/`"tts"`) running under an *effective* configuration
//! ([`ModelKind::effective_config`]) — the same search engine, the same
//! [`CostBreakdown`](palo_core::CostBreakdown) reporting:
//!
//! * **TSS** \[Mehta et al., TACO 2013\] exploits reuse in the L1 and L2
//!   with associativity awareness but "without taking prefetching into
//!   account": prefetched references are *not* discounted from the cold
//!   miss counts, and no cache capacity is reserved for prefetch streams.
//! * **TTS / TurboTiling** \[Mehta et al., ICS 2016\] "optimizes for L2
//!   and L3 cache while taking advantage of hardware prefetching.
//!   However, prefetching is not considered in the analytical model":
//!   the same search is run one level down the hierarchy
//!   ([`palo_core::shift_hierarchy`]: L2 plays L1's role, the L3 — or
//!   memory on two-level platforms — plays L2's), again without prefetch
//!   discounting. The resulting tiles are characteristically larger than
//!   TSS's.

use palo_arch::Architecture;
use palo_core::{resolve, temporal, Decision, ModelKind, OptimizerConfig};
use palo_ir::{LoopNest, NestInfo};

/// TSS tile-size selection: L1+L2 reuse, associativity-aware, no
/// prefetch modeling. (The original models are temporal-reuse tilers, so
/// every kernel runs through the temporal driver, as in the paper's
/// comparison.)
pub fn tss(nest: &LoopNest, arch: &Architecture) -> Decision {
    temporal_under(ModelKind::Tss, nest, arch)
}

/// TTS/TurboTiling tile-size selection: L2+L3 reuse, prefetch streams
/// assumed to fill the LLC but not modeled in the miss estimates.
pub fn tts(nest: &LoopNest, arch: &Architecture) -> Decision {
    temporal_under(ModelKind::Tts, nest, arch)
}

/// The temporal driver under `kind`'s model, effective architecture and
/// effective configuration ([`resolve`]).
fn temporal_under(kind: ModelKind, nest: &LoopNest, arch: &Architecture) -> Decision {
    let r = resolve(&OptimizerConfig { model: kind, ..OptimizerConfig::default() }, arch);
    let info = NestInfo::analyze(nest);
    temporal::optimize_with_model(nest, &info, &r.arch, &r.config, r.model.as_ref()).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use palo_arch::presets;
    use palo_core::{shift_hierarchy, Optimizer};
    use palo_suite::kernels;

    #[test]
    fn tss_and_tts_produce_lowerable_schedules() {
        let nest = kernels::matmul(256).unwrap();
        let arch = presets::intel_i7_5930k();
        for d in [tss(&nest, &arch), tts(&nest, &arch)] {
            d.schedule().lower(&nest).unwrap();
            assert!(d.tile.iter().any(|&t| t > 1));
        }
    }

    #[test]
    fn tts_tiles_are_at_least_as_large_in_volume() {
        // TTS targets a bigger cache, so its tile volume should not be
        // smaller than TSS's.
        let nest = kernels::matmul(512).unwrap();
        let arch = presets::intel_i7_5930k();
        let v_tss: usize = tss(&nest, &arch).tile.iter().product();
        let v_tts: usize = tts(&nest, &arch).tile.iter().product();
        assert!(v_tts >= v_tss, "tts {v_tts} < tss {v_tss}");
    }

    #[test]
    fn baseline_models_match_config_level_model_selection() {
        // The dedicated entry points and `OptimizerConfig::model` are two
        // doors to the same machinery: identical decisions, same cost
        // bits.
        let nest = kernels::matmul(256).unwrap();
        let arch = presets::intel_i7_5930k();
        for (kind, d_fn) in
            [(ModelKind::Tss, tss(&nest, &arch)), (ModelKind::Tts, tts(&nest, &arch))]
        {
            let config = OptimizerConfig { model: kind, ..OptimizerConfig::default() };
            let d_cfg = Optimizer::with_config(&arch, config).optimize(&nest);
            assert_eq!(d_fn.tile, d_cfg.tile, "{kind:?}");
            assert_eq!(d_fn.predicted_cost.to_bits(), d_cfg.predicted_cost.to_bits());
            assert_eq!(d_fn.breakdown, d_cfg.breakdown);
        }
    }

    #[test]
    fn shift_hierarchy_on_arm_reuses_l2() {
        let arm = presets::arm_cortex_a15();
        let shifted = shift_hierarchy(&arm);
        assert_eq!(shifted.caches.len(), 2);
        assert_eq!(shifted.caches[0].size_bytes, arm.l2().size_bytes);
    }
}
