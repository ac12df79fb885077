//! Differential gate for the run-compressed replay engine.
//!
//! The cache hierarchy's batched [`AccessRun`] path is a *performance*
//! feature: by contract it must be bit-identical to the scalar per-line
//! reference path on every statistic the simulator reports. These tests drive both
//! engines over the full evaluation suite (every benchmark nest at n=16
//! and at sizes whose rows are not whole lines, both the program-order
//! schedule and the optimizer's proposed schedule) and over
//! proptest-sampled random affine nests, on all six platform presets
//! (Table 3 plus the prefetcher-zoo trio), and demand equal
//! [`HierarchyStats`]. A dedicated sweep additionally pins the contract
//! per [`Prefetcher`] implementation: every `PrefetcherConfig` variant is
//! installed at both L1 and L2 and replayed through both engines.
//!
//! [`AccessRun`]: palo::cachesim::AccessRun
//! [`HierarchyStats`]: palo::cachesim::HierarchyStats
//! [`Prefetcher`]: palo::cachesim::Prefetcher

use palo::arch::{presets, Architecture, PrefetcherConfig};
use palo::core::Optimizer;
use palo::exec::{estimate_time_with, TimeEstimate, TraceOptions};
use palo::ir::{DType, LoopNest, NestBuilder};
use palo::sched::Schedule;
use palo::suite::Benchmark;
use proptest::prelude::*;

fn platforms() -> Vec<Architecture> {
    let mut all =
        vec![presets::intel_i7_5930k(), presets::intel_i7_6700(), presets::arm_cortex_a15()];
    all.extend(presets::zoo());
    all
}

/// One architecture per `PrefetcherConfig` variant, installed at both L1
/// and L2 of the i7-6700 geometry so each [`palo::cachesim::Prefetcher`]
/// implementation (and each legacy placement mapping) gets exercised by
/// the differential gate.
fn strategy_zoo() -> Vec<(&'static str, Architecture)> {
    let variants: [(&'static str, PrefetcherConfig); 6] = [
        ("none", PrefetcherConfig::None),
        ("next-line", PrefetcherConfig::NextLine),
        ("adjacent-pair", PrefetcherConfig::AdjacentPair),
        ("stride", PrefetcherConfig::Stride { degree: 2, max_distance: 20 }),
        (
            "confident-stride",
            PrefetcherConfig::ConfidentStride {
                degree: 2,
                max_distance: 12,
                min_confidence: 3,
            },
        ),
        ("stream", PrefetcherConfig::Stream { degree: 4, max_distance: 16, confirm: 2 }),
    ];
    variants
        .into_iter()
        .map(|(name, pf)| {
            let mut arch = presets::intel_i7_6700();
            arch.caches[0].prefetcher = pf;
            arch.caches[1].prefetcher = pf;
            arch.name = format!("6700/{name}");
            (name, arch)
        })
        .collect()
}

/// Traces `schedule` over `nest` through both engines, demands
/// bit-identical simulator statistics and returns both estimates
/// (compressed, scalar). Schedules that do not lower are skipped with
/// `None` (the proptest sampler produces some illegal ones).
fn assert_engines_agree(
    nest: &LoopNest,
    schedule: &Schedule,
    arch: &Architecture,
) -> Option<(TimeEstimate, TimeEstimate)> {
    let lowered = schedule.lower(nest).ok()?;
    let compressed = TraceOptions { run_compressed: true, ..TraceOptions::default() };
    let scalar = TraceOptions { run_compressed: false, ..TraceOptions::default() };
    let fast = estimate_time_with(nest, &lowered, arch, &compressed).unwrap_or_else(|e| {
        panic!("{} on {}: compressed trace failed: {e}", nest.name(), arch.name)
    });
    let slow = estimate_time_with(nest, &lowered, arch, &scalar).unwrap_or_else(|e| {
        panic!("{} on {}: scalar trace failed: {e}", nest.name(), arch.name)
    });
    assert_eq!(
        fast.stats,
        slow.stats,
        "run-compressed and scalar statistics diverge for {} on {}",
        nest.name(),
        arch.name
    );
    assert_eq!(fast.ms.to_bits(), slow.ms.to_bits(), "{} on {}", nest.name(), arch.name);
    Some((fast, slow))
}

/// Every suite nest at n=16, where every row is a whole number of lines,
/// and at sizes whose rows are not, so the element a whole-line-stride
/// walk touches straddles a line on some outer iterations and non-line
/// strides take the strided walk: 14 nests at n=16 plus 36 at odd sizes.
fn suite_nests() -> Vec<LoopNest> {
    use palo::suite::Benchmark::*;
    let mut nests = Vec::new();
    for b in Benchmark::all() {
        let odd: &[usize] = match b {
            Tp | Tpm | Copy | Mask => &[130, 258],
            Convlayer => &[5, 13],
            Doitgen => &[13, 23],
            _ => &[13, 23, 37],
        };
        for &n in std::iter::once(&16).chain(odd) {
            nests.extend(b.build(n).unwrap_or_else(|e| panic!("{}({n}): {e}", b.name())));
        }
    }
    nests
}

/// Every suite nest × every platform, program-order and optimized: the
/// two replay engines must agree counter-for-counter, and both replay
/// every line (the replay counters cover the whole trace; the skip
/// counters kept for wire compatibility stay 0).
#[test]
fn suite_nests_compressed_equals_scalar_on_all_platforms() {
    let mut checked = 0usize;
    let nests = suite_nests();
    for arch in &platforms() {
        for nest in &nests {
            let decision = Optimizer::new(arch)
                .try_optimize(nest)
                .unwrap_or_else(|e| panic!("{}: {e}", nest.name()));
            for schedule in [&Schedule::new(), decision.schedule()] {
                let what = format!("{} on {}: {schedule:?}", nest.name(), arch.name);
                let (fast, slow) = assert_engines_agree(nest, schedule, arch)
                    .unwrap_or_else(|| panic!("{what}: does not lower"));
                for est in [&fast, &slow] {
                    let r = est.replay;
                    assert_eq!(r.run_lines, est.stats.total_accesses, "{what}");
                    assert_eq!((r.cycles_skipped, r.lines_skipped), (0, 0), "{what}");
                }
            }
            checked += 1;
        }
    }
    // 12 benchmarks, threemm contributing three nests → 14 per size set,
    // 50 nests per platform, on the three Table-3 presets plus the three
    // zoo presets.
    assert_eq!(checked, 6 * 50, "suite shape changed; update the gate");
}

/// Every `PrefetcherConfig` variant at both L1 and L2: the run-compressed
/// engine must stay bit-identical to the scalar reference for every
/// [`palo::cachesim::Prefetcher`] implementation, including the
/// conservative no-lock fallbacks.
#[test]
fn every_prefetcher_strategy_compressed_equals_scalar() {
    let nests = suite_nests();
    for (name, arch) in &strategy_zoo() {
        for nest in &nests {
            assert_engines_agree(nest, &Schedule::new(), arch);
            let decision = Optimizer::new(arch)
                .try_optimize(nest)
                .unwrap_or_else(|e| panic!("{} ({name}): {e}", nest.name()));
            assert_engines_agree(nest, decision.schedule(), arch);
        }
    }
}

/// Replaying the same trace twice through the same engine must produce
/// the same bits, for every strategy and both engines — no hidden global
/// state in any prefetcher implementation.
#[test]
fn every_prefetcher_strategy_replays_deterministically() {
    let nest = matmul_nest(48, 48, 48);
    let schedule = Schedule::new();
    for (name, arch) in &strategy_zoo() {
        let lowered = schedule.lower(&nest).expect("program order lowers");
        for run_compressed in [false, true] {
            let opts = TraceOptions { run_compressed, ..TraceOptions::default() };
            let a = estimate_time_with(&nest, &lowered, arch, &opts)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let b = estimate_time_with(&nest, &lowered, arch, &opts)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(a.stats, b.stats, "{name} compressed={run_compressed}");
            assert_eq!(a.ms.to_bits(), b.ms.to_bits(), "{name} compressed={run_compressed}");
        }
    }
}

fn matmul_nest(ni: usize, nj: usize, nk: usize) -> LoopNest {
    let mut b = NestBuilder::new("rc_mm", DType::F32);
    let i = b.var("i", ni);
    let j = b.var("j", nj);
    let k = b.var("k", nk);
    let a = b.array("A", &[ni, nk]);
    let bm = b.array("B", &[nk, nj]);
    let c = b.array("C", &[ni, nj]);
    b.accumulate(c, &[i, j], b.load(a, &[i, k]) * b.load(bm, &[k, j]));
    b.build().expect("valid nest")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random affine nests under random (often tail-producing) tilings,
    /// orders and vector widths: compressed == scalar on every platform.
    #[test]
    fn random_affine_nests_compressed_equals_scalar(
        ni in 1usize..24, nj in 1usize..24, nk in 1usize..24,
        ti in 1usize..7, tj in 1usize..7,
        order_pick in 0usize..4,
        lanes in 1usize..9,
    ) {
        let nest = matmul_nest(ni, nj, nk);
        let mut s = Schedule::new();
        // Non-dividing factors exercise the guarded-tail fallback.
        s.split("i", "io", "ii", ti.min(ni)).split("j", "jo", "ji", tj.min(nj));
        match order_pick {
            0 => { s.reorder(&["io", "jo", "k", "ii", "ji"]); }
            1 => { s.reorder(&["io", "jo", "ii", "k", "ji"]); }
            // Strided-innermost orders: runs with non-unit line strides.
            2 => { s.reorder(&["io", "jo", "ji", "k", "ii"]); }
            _ => { s.reorder(&["k", "io", "jo", "ii", "ji"]); }
        }
        if lanes > 1 {
            s.vectorize("ji", lanes);
        }
        for arch in &platforms() {
            assert_engines_agree(&nest, &s, arch);
        }
    }

    /// Strided streaming copies (row-major walk of a column-major array
    /// and vice versa) — the patterns the run engine's stream lock
    /// follows.
    #[test]
    fn random_strided_copies_compressed_equals_scalar(
        n in 8usize..64,
        transposed_pick in 0usize..2,
        par_pick in 0usize..2,
    ) {
        let (transposed, par) = (transposed_pick == 1, par_pick == 1);
        let mut b = NestBuilder::new("rc_copy", DType::F32);
        let i = b.var("i", n);
        let j = b.var("j", n);
        let src = b.array("src", &[n, n]);
        let dst = b.array("dst", &[n, n]);
        let ld = if transposed { b.load(src, &[j, i]) } else { b.load(src, &[i, j]) };
        b.store(dst, &[i, j], ld);
        let nest = b.build().expect("valid nest");
        let mut s = Schedule::new();
        if par {
            s.parallel("i");
        }
        for arch in &platforms() {
            assert_engines_agree(&nest, &s, arch);
        }
    }
}

/// zen2's L2 unit is a stream engine: a stream whose stride is not ±1
/// line never issues, so the run engine counts its feeds and applies
/// them in one bulk step when the lock ends. With more threads than
/// cores, two hardware threads share each L1 (half its ways), and a
/// reduced syr2k whose inner `j` loop walks the columns
/// `A[j][k]`/`B[j][k]` (a 64-float row is 4 lines, so a column maps to
/// 16 of the 64 sets) misses L1 on ~94 % of its lines: long silent
/// stretches, broken where the row walks' unit-stride streams preempt.
#[test]
fn zen2_shared_l1_silent_stream_feeds_compressed_equals_scalar() {
    let arch = presets::amd_zen2();
    let nest = palo::suite::kernels::syr2k(64).expect("valid nest");
    for order in [["i", "k", "j"], ["k", "i", "j"]] {
        let mut s = Schedule::new();
        s.reorder(&order).parallel(order[0]);
        assert!(s.lower(&nest).is_ok(), "{order:?} must lower");
        assert_engines_agree(&nest, &s, &arch);
    }
}
