//! The search engine's two headline guarantees, checked end-to-end on the
//! paper's full 12-kernel suite (Table 4):
//!
//! 1. **Bit-determinism** — the winning schedule and its predicted cost
//!    are identical (to the bit) for 1, 2 and N workers, with and without
//!    pruning/memoization. The engine's total order makes the minimum a
//!    property of the candidate *set*, not of the visit order.
//! 2. **Pruning/memo soundness** — the default engine (branch-and-bound
//!    plus the `emu()` memo) returns exactly what the exhaustive
//!    no-prune/no-memo sweep returns: same winner, same cost bits.
//!
//! The suite is built at reduced sizes so the exhaustive reference sweep
//! stays fast; the candidate spaces are still thousands-deep for the
//! temporal kernels. The soundness check also runs at bench sizes
//! (matmul at 1440, doitgen at 96), where the spaces are widest.

use palo_arch::presets;
use palo_core::{ModelKind, Optimizer, OptimizerConfig, SearchOptions};
use palo_ir::LoopNest;
use palo_suite::Benchmark;

/// Every kernel of the suite at a size small enough for an exhaustive
/// reference sweep (3mm contributes its three stages).
fn small_suite() -> Vec<(String, LoopNest)> {
    let mut nests = Vec::new();
    for b in Benchmark::all() {
        let size = match b {
            Benchmark::Convlayer => 16,
            Benchmark::Doitgen => 32,
            Benchmark::Tpm | Benchmark::Tp | Benchmark::Copy | Benchmark::Mask => 256,
            _ => 128,
        };
        let built = b.build(size).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
        for (stage, nest) in built.into_iter().enumerate() {
            nests.push((format!("{}[{stage}]", b.name()), nest));
        }
    }
    assert_eq!(nests.len(), 14); // 12 kernels, 3mm has 3 stages
    nests
}

/// The widest candidate spaces the exhaustive sweep still finishes in
/// milliseconds: matmul at 1440 and the 4-deep doitgen at 96. The
/// 7-deep convlayer's bench size, 16, is already `small_suite`'s.
fn bench_size_nests() -> Vec<(String, LoopNest)> {
    [(Benchmark::Matmul, 1440), (Benchmark::Doitgen, 96)]
        .into_iter()
        .map(|(b, n)| (format!("{}@{n}", b.name()), b.build(n).unwrap().remove(0)))
        .collect()
}

fn engine_config(threads: usize) -> OptimizerConfig {
    OptimizerConfig {
        search: SearchOptions { threads: Some(threads), prune: true, memo: true },
        ..OptimizerConfig::default()
    }
}

#[test]
fn worker_count_never_changes_the_schedule() {
    let arch = presets::intel_i7_5930k();
    for (name, nest) in small_suite() {
        let reference = Optimizer::with_config(&arch, engine_config(1)).optimize(&nest);
        for threads in [2, 5] {
            let parallel =
                Optimizer::with_config(&arch, engine_config(threads)).optimize(&nest);
            assert_eq!(parallel, reference, "{name} with {threads} workers diverged");
            assert_eq!(
                parallel.predicted_cost.to_bits(),
                reference.predicted_cost.to_bits(),
                "{name}: cost not bit-identical with {threads} workers"
            );
        }
    }
}

#[test]
fn pruned_memoized_search_is_exhaustive_search() {
    // Both target machines of the paper, so the L2-prefetcher-sensitive
    // terms are exercised in both configurations.
    for arch in [presets::intel_i7_5930k(), presets::intel_i7_6700()] {
        for (name, nest) in small_suite().into_iter().chain(bench_size_nests()) {
            let exhaustive = Optimizer::with_config(
                &arch,
                OptimizerConfig {
                    search: SearchOptions::exhaustive(),
                    ..OptimizerConfig::default()
                },
            )
            .optimize(&nest);
            let engine = Optimizer::with_config(&arch, engine_config(4)).optimize(&nest);
            assert_eq!(engine, exhaustive, "{name}: pruning/memo changed the winner");
            assert_eq!(
                engine.predicted_cost.to_bits(),
                exhaustive.predicted_cost.to_bits(),
                "{name}: pruning/memo changed the cost"
            );
        }
    }
}

#[test]
fn worker_count_never_changes_the_schedule_for_any_analytical_model() {
    // The determinism guarantee is per-CostModel: TSS and TTS run through
    // the same engine and must be just as worker-count-independent.
    let arch = presets::intel_i7_5930k();
    for kind in [ModelKind::Tss, ModelKind::Tts] {
        for (name, nest) in small_suite() {
            let config = |threads| OptimizerConfig { model: kind, ..engine_config(threads) };
            let reference = Optimizer::with_config(&arch, config(1)).optimize(&nest);
            for threads in [2, 5] {
                let parallel = Optimizer::with_config(&arch, config(threads)).optimize(&nest);
                assert_eq!(
                    parallel, reference,
                    "{name} under {kind:?} with {threads} workers diverged"
                );
                assert_eq!(
                    parallel.predicted_cost.to_bits(),
                    reference.predicted_cost.to_bits(),
                    "{name} under {kind:?}: cost not bit-identical with {threads} workers"
                );
            }
        }
    }
}

#[test]
fn worker_count_never_changes_the_schedule_for_the_simulated_model() {
    // Each SimulatedModel evaluation traces a full kernel, so this runs
    // on a tiny two-kernel suite (one temporal, one spatial) with a
    // thinned candidate grid (ModelKind::Simulated's effective config).
    let arch = presets::intel_i7_5930k();
    let suite = [
        ("matmul", Benchmark::Matmul.build(32).unwrap().remove(0)),
        ("tp", Benchmark::Tp.build(64).unwrap().remove(0)),
    ];
    for (name, nest) in suite {
        let config =
            |threads| OptimizerConfig { model: ModelKind::Simulated, ..engine_config(threads) };
        let reference = Optimizer::with_config(&arch, config(1)).optimize(&nest);
        for threads in [2, 5] {
            let parallel = Optimizer::with_config(&arch, config(threads)).optimize(&nest);
            assert_eq!(parallel, reference, "{name} (sim) with {threads} workers diverged");
            assert_eq!(
                parallel.predicted_cost.to_bits(),
                reference.predicted_cost.to_bits(),
                "{name} (sim): cost not bit-identical with {threads} workers"
            );
        }
    }
}

#[test]
fn engine_does_real_work_on_the_suite() {
    // The counters behind perfbench's `core.search.*` figures must show
    // the engine actually pruning and memoizing on a temporal kernel, not
    // just agreeing by doing nothing. The emu() memo is process-wide and
    // a single search asks each bound once: a first search warms it, so a
    // repeat must hit.
    let arch = presets::intel_i7_5930k();
    let nest = &Benchmark::Matmul.build(256).unwrap()[0];
    let optimizer = Optimizer::with_config(&arch, engine_config(2));
    optimizer.optimize_with_stats(nest);
    let (_, stats) = optimizer.optimize_with_stats(nest);
    assert!(stats.candidates_evaluated > 0, "no candidates evaluated");
    assert!(stats.candidates_pruned > 0, "branch-and-bound never fired");
    assert!(stats.emu_memo_hits > 0, "emu() memo never hit");
    assert!(stats.workers >= 1);
}
