//! The three experimental platforms of the paper (Table 3).

use crate::cache::{CacheLevel, PrefetcherConfig, SharingScope, WriteAllocate};
use crate::cost::TimingModel;
use crate::Architecture;

/// Intel stride-prefetcher degree used throughout the paper (`L2pref`).
pub const INTEL_L2_PREF_DEGREE: usize = 2;
/// Intel maximum prefetch distance in lines (`L2maxpref`, "usually 20").
pub const INTEL_L2_MAX_PREF_DISTANCE: usize = 20;

fn intel_l1() -> CacheLevel {
    CacheLevel {
        line_size: 64,
        associativity: 8,
        size_bytes: 32 * 1024,
        sharing: SharingScope::Core,
        write_allocate: WriteAllocate::Allocate,
        prefetcher: PrefetcherConfig::NextLine,
        latency_cycles: 4.0,
    }
}

fn intel_l2() -> CacheLevel {
    CacheLevel {
        line_size: 64,
        associativity: 8,
        size_bytes: 256 * 1024,
        sharing: SharingScope::Core,
        write_allocate: WriteAllocate::Allocate,
        prefetcher: PrefetcherConfig::Stride {
            degree: INTEL_L2_PREF_DEGREE,
            max_distance: INTEL_L2_MAX_PREF_DISTANCE,
        },
        latency_cycles: 12.0,
    }
}

fn intel_l3(size_bytes: usize) -> CacheLevel {
    CacheLevel {
        line_size: 64,
        associativity: 16,
        size_bytes,
        sharing: SharingScope::Chip,
        write_allocate: WriteAllocate::Allocate,
        prefetcher: PrefetcherConfig::None,
        latency_cycles: 38.0,
    }
}

/// Intel i7-6700 (Skylake): 4 cores × 2 threads, 32 KiB 8-way L1,
/// 256 KiB 8-way L2, 8 MiB shared L3, AVX2.
pub fn intel_i7_6700() -> Architecture {
    Architecture {
        name: "Intel i7-6700".into(),
        caches: vec![intel_l1(), intel_l2(), intel_l3(8 * 1024 * 1024)],
        cores: 4,
        threads_per_core: 2,
        vector_bytes: 32,
        supports_nt_stores: true,
        timing: TimingModel {
            freq_ghz: 3.4,
            mem_latency_cycles: 210.0,
            mem_transfer_cycles: 12.0,
            compute_cycles_per_iter: 1.0,
            hit_exposed_fraction: 0.15,
        },
    }
}

/// Intel i7-5930K (Haswell-E): 6 cores × 2 threads, 32 KiB 8-way L1,
/// 256 KiB 8-way L2, 15 MiB shared L3, AVX2.
pub fn intel_i7_5930k() -> Architecture {
    Architecture {
        name: "Intel i7-5930K".into(),
        caches: vec![intel_l1(), intel_l2(), intel_l3(15 * 1024 * 1024)],
        cores: 6,
        threads_per_core: 2,
        vector_bytes: 32,
        supports_nt_stores: true,
        timing: TimingModel {
            freq_ghz: 3.5,
            mem_latency_cycles: 230.0,
            mem_transfer_cycles: 10.0,
            compute_cycles_per_iter: 1.0,
            hit_exposed_fraction: 0.15,
        },
    }
}

/// ARM Cortex-A15: 4 cores × 1 thread, 32 KiB 2-way L1, 512 KiB 16-way
/// *shared* L2, no L3, NEON (no non-temporal vector stores).
pub fn arm_cortex_a15() -> Architecture {
    Architecture {
        name: "ARM Cortex-A15".into(),
        caches: vec![
            CacheLevel {
                line_size: 64,
                associativity: 2,
                size_bytes: 32 * 1024,
                sharing: SharingScope::Core,
                write_allocate: WriteAllocate::Allocate,
                prefetcher: PrefetcherConfig::NextLine,
                latency_cycles: 4.0,
            },
            CacheLevel {
                line_size: 64,
                associativity: 16,
                size_bytes: 512 * 1024,
                sharing: SharingScope::Chip,
                write_allocate: WriteAllocate::Allocate,
                prefetcher: PrefetcherConfig::Stride { degree: 1, max_distance: 8 },
                latency_cycles: 21.0,
            },
        ],
        cores: 4,
        threads_per_core: 1,
        vector_bytes: 16,
        supports_nt_stores: false,
        timing: TimingModel {
            freq_ghz: 1.9,
            mem_latency_cycles: 250.0,
            mem_transfer_cycles: 30.0,
            compute_cycles_per_iter: 2.0,
            hit_exposed_fraction: 0.30,
        },
    }
}

/// All three Table-3 presets, in the paper's column order.
pub fn all() -> Vec<Architecture> {
    vec![intel_i7_5930k(), intel_i7_6700(), arm_cortex_a15()]
}

/// AMD Zen 2 (Ryzen 3700X-style): 8 cores × 2 threads, 32 KiB 8-way L1
/// with a next-line streamer, 512 KiB 8-way L2 driven by a
/// *stream-with-confirmation* engine (unit-stride only, 2 confirmations,
/// degree 4 up to 16 lines ahead), 16 MiB shared L3, AVX2.
pub fn amd_zen2() -> Architecture {
    Architecture {
        name: "AMD Zen 2".into(),
        caches: vec![
            CacheLevel {
                line_size: 64,
                associativity: 8,
                size_bytes: 32 * 1024,
                sharing: SharingScope::Core,
                write_allocate: WriteAllocate::Allocate,
                prefetcher: PrefetcherConfig::NextLine,
                latency_cycles: 4.0,
            },
            CacheLevel {
                line_size: 64,
                associativity: 8,
                size_bytes: 512 * 1024,
                sharing: SharingScope::Core,
                write_allocate: WriteAllocate::Allocate,
                prefetcher: PrefetcherConfig::Stream {
                    degree: 4,
                    max_distance: 16,
                    confirm: 2,
                },
                latency_cycles: 12.0,
            },
            CacheLevel {
                line_size: 64,
                associativity: 16,
                size_bytes: 16 * 1024 * 1024,
                sharing: SharingScope::Chip,
                write_allocate: WriteAllocate::Allocate,
                prefetcher: PrefetcherConfig::None,
                latency_cycles: 39.0,
            },
        ],
        cores: 8,
        threads_per_core: 2,
        vector_bytes: 32,
        supports_nt_stores: true,
        timing: TimingModel {
            freq_ghz: 3.6,
            mem_latency_cycles: 240.0,
            mem_transfer_cycles: 11.0,
            compute_cycles_per_iter: 1.0,
            hit_exposed_fraction: 0.15,
        },
    }
}

/// ARM Neoverse N1: 4 cores × 1 thread, 64 KiB 4-way L1 with an
/// adjacent-pair unit, 1 MiB 8-way private L2 with a slow-training
/// *confident-stride* engine (3 confirmations, degree 2 up to 12 lines),
/// 4 MiB shared SLC, NEON.
pub fn arm_neoverse_n1() -> Architecture {
    Architecture {
        name: "ARM Neoverse N1".into(),
        caches: vec![
            CacheLevel {
                line_size: 64,
                associativity: 4,
                size_bytes: 64 * 1024,
                sharing: SharingScope::Core,
                write_allocate: WriteAllocate::Allocate,
                prefetcher: PrefetcherConfig::AdjacentPair,
                latency_cycles: 4.0,
            },
            CacheLevel {
                line_size: 64,
                associativity: 8,
                size_bytes: 1024 * 1024,
                sharing: SharingScope::Core,
                write_allocate: WriteAllocate::Allocate,
                prefetcher: PrefetcherConfig::ConfidentStride {
                    degree: 2,
                    max_distance: 12,
                    min_confidence: 3,
                },
                latency_cycles: 11.0,
            },
            CacheLevel {
                line_size: 64,
                associativity: 16,
                size_bytes: 4 * 1024 * 1024,
                sharing: SharingScope::Chip,
                write_allocate: WriteAllocate::Allocate,
                prefetcher: PrefetcherConfig::None,
                latency_cycles: 28.0,
            },
        ],
        cores: 4,
        threads_per_core: 1,
        vector_bytes: 16,
        supports_nt_stores: false,
        timing: TimingModel {
            freq_ghz: 2.6,
            mem_latency_cycles: 220.0,
            mem_transfer_cycles: 16.0,
            compute_cycles_per_iter: 1.5,
            hit_exposed_fraction: 0.20,
        },
    }
}

/// [`intel_i7_6700`] with every hardware prefetcher disabled — the
/// ablation personality: the optimizer must stop discounting
/// prefetch-covered misses and decisions shift accordingly.
pub fn intel_i7_6700_no_prefetch() -> Architecture {
    let mut arch = intel_i7_6700();
    arch.name = "Intel i7-6700 (no prefetch)".into();
    for level in &mut arch.caches {
        level.prefetcher = PrefetcherConfig::None;
    }
    arch
}

/// The prefetcher-zoo presets added on top of the paper's Table-3 trio,
/// in golden-suite row order.
pub fn zoo() -> Vec<Architecture> {
    vec![amd_zen2(), arm_neoverse_n1(), intel_i7_6700_no_prefetch()]
}

/// Presets for the *reproduction's scaled problem sizes* (DESIGN.md §5).
///
/// The paper's working sets exceed the last-level cache by large factors
/// (e.g. matmul 2048²: 48 MiB vs a 15 MiB L3). The reproduction scales
/// every problem by ~4× per dimension to keep trace simulation
/// tractable; to preserve the *working-set : LLC* ratio — and with it
/// the memory-bound regime the paper studies — these variants scale the
/// L3 capacity by the same 16× area factor (floored at twice the L2).
/// L1, L2, core counts and timing are untouched, so the optimizer's
/// decisions are essentially identical to the Table-3 presets'.
pub mod repro {
    use super::Architecture;

    fn shrink_llc(mut arch: Architecture) -> Architecture {
        if arch.caches.len() > 2 {
            let l2_size = arch.caches[1].size_bytes;
            let llc = arch.caches.last_mut().expect("validated hierarchy");
            llc.size_bytes = (llc.size_bytes / 16).max(2 * l2_size);
        }
        arch
    }

    /// [`super::intel_i7_6700`] with the L3 scaled to 512 KiB.
    pub fn intel_i7_6700() -> Architecture {
        shrink_llc(super::intel_i7_6700())
    }

    /// [`super::intel_i7_5930k`] with the L3 scaled to ~960 KiB.
    pub fn intel_i7_5930k() -> Architecture {
        shrink_llc(super::intel_i7_5930k())
    }

    /// [`super::arm_cortex_a15`] — unchanged: its shared 512 KiB L2 is
    /// already far smaller than every scaled working set.
    pub fn arm_cortex_a15() -> Architecture {
        super::arm_cortex_a15()
    }

    /// [`super::amd_zen2`] with the L3 scaled to 1 MiB.
    pub fn amd_zen2() -> Architecture {
        shrink_llc(super::amd_zen2())
    }

    /// [`super::arm_neoverse_n1`] with the SLC scaled to 2 MiB.
    pub fn arm_neoverse_n1() -> Architecture {
        shrink_llc(super::arm_neoverse_n1())
    }

    /// [`super::intel_i7_6700_no_prefetch`] with the L3 scaled to 512 KiB.
    pub fn intel_i7_6700_no_prefetch() -> Architecture {
        shrink_llc(super::intel_i7_6700_no_prefetch())
    }

    /// The scaled preset a command-line platform name selects: `5930k`,
    /// `6700`, `a15`, `zen2`, `n1` or `nopf`, plus the aliases `5930K`,
    /// `A15`, `arm`, `amd`, `neoverse` and `no-prefetch`. `None` for any
    /// other name.
    pub fn by_name(name: &str) -> Option<Architecture> {
        match name {
            "5930k" | "5930K" => Some(intel_i7_5930k()),
            "6700" => Some(intel_i7_6700()),
            "a15" | "A15" | "arm" => Some(arm_cortex_a15()),
            "zen2" | "amd" => Some(amd_zen2()),
            "n1" | "neoverse" => Some(arm_neoverse_n1()),
            "nopf" | "no-prefetch" => Some(intel_i7_6700_no_prefetch()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharingScope;

    #[test]
    fn arm_l2_is_shared() {
        let arm = arm_cortex_a15();
        assert_eq!(arm.l2().sharing, SharingScope::Chip);
        assert!(arm.l3().is_none());
    }

    #[test]
    fn intel_l2_is_private() {
        assert_eq!(intel_i7_6700().l2().sharing, SharingScope::Core);
    }

    #[test]
    fn all_returns_three() {
        assert_eq!(all().len(), 3);
    }

    #[test]
    fn intel_prefetch_distance_is_twenty() {
        let p = intel_i7_5930k();
        assert_eq!(p.l2().prefetcher.max_distance(), 20);
    }

    #[test]
    fn zoo_presets_validate() {
        let zoo = zoo();
        assert_eq!(zoo.len(), 3);
        for arch in zoo {
            arch.validate().unwrap_or_else(|e| panic!("{}: {e}", arch.name));
        }
    }

    #[test]
    fn zoo_covers_distinct_strategies() {
        assert!(matches!(amd_zen2().l2().prefetcher, PrefetcherConfig::Stream { .. }));
        assert!(matches!(
            arm_neoverse_n1().l2().prefetcher,
            PrefetcherConfig::ConfidentStride { .. }
        ));
        assert!(matches!(arm_neoverse_n1().l1().prefetcher, PrefetcherConfig::AdjacentPair));
        let nopf = intel_i7_6700_no_prefetch();
        assert!(nopf.caches.iter().all(|c| !c.prefetcher.is_enabled()));
    }

    #[test]
    fn repro_by_name_resolves_every_alias() {
        let table: [(&[&str], Architecture); 6] = [
            (&["5930k", "5930K"], repro::intel_i7_5930k()),
            (&["6700"], repro::intel_i7_6700()),
            (&["a15", "A15", "arm"], repro::arm_cortex_a15()),
            (&["zen2", "amd"], repro::amd_zen2()),
            (&["n1", "neoverse"], repro::arm_neoverse_n1()),
            (&["nopf", "no-prefetch"], repro::intel_i7_6700_no_prefetch()),
        ];
        for (aliases, want) in &table {
            for &alias in *aliases {
                let got = repro::by_name(alias).unwrap_or_else(|| panic!("{alias} unknown"));
                assert_eq!(got.name, want.name, "{alias}");
                assert_eq!(&got, want, "{alias}: not the scaled preset");
            }
        }
        for unknown in ["", "6700K", "zen", "NOPF", "a15 "] {
            assert!(repro::by_name(unknown).is_none(), "{unknown:?} resolved");
        }
    }
}
