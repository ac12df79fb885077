//! Perf-tracking harness for the candidate-search engine.
//!
//! For each requested kernel this runs the optimizer twice — once with
//! [`SearchOptions::exhaustive`] (the pre-engine sequential sweep: one
//! worker, no pruning, no `emu()` memo) and once with the default engine
//! configuration — takes the median wall time of each over several
//! repetitions, verifies the two return the *same decision bit-for-bit*,
//! and writes the medians plus the engine's work counters to
//! `BENCH_search.json`.
//!
//! Exit status is non-zero when any kernel disagrees, when the engine's
//! median search time exceeds the ceiling, or when the engine did no
//! pruning/memoization at all (the counters the acceptance criteria
//! track). CI runs this on one kernel as a smoke job.
//!
//! Environment:
//!
//! * `PALO_BENCH_SEARCH_CEILING_MS` — per-kernel wall ceiling for the
//!   engine's search, default 30000 (generous: seconds, not the
//!   milliseconds it actually takes);
//! * `PALO_BENCH_SEARCH_REPS` — repetitions per configuration, default 5,
//!   at least 2 (the reported counters are the last repetition's, after
//!   the first has warmed the process-wide `emu()` memo);
//! * `PALO_BENCH_SEARCH_OUT` — output path, default `BENCH_search.json`;
//! * `PALO_SEARCH_THREADS` — engine worker count (the engine's own knob).
//!
//! Usage: `bench_search [kernel ...]` where `kernel` is a paper name
//! (`matmul`, `gemm`, `tp`, ...); default is the matmul-class trio
//! `matmul gemm syrk` plus the spatial `tp`.

use palo_arch::presets;
use palo_core::{Optimizer, OptimizerConfig, SearchOptions, SearchStats};
use palo_ir::LoopNest;
use palo_suite::Benchmark;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct KernelRow {
    name: &'static str,
    size: usize,
    reps: usize,
    exhaustive_ms: f64,
    engine_ms: f64,
    agree: bool,
    stats: SearchStats,
}

fn env_parse<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key).ok().and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

fn median_ms(samples: &mut [Duration]) -> f64 {
    samples.sort();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

/// Benchmark size: small enough that the exhaustive reference sweep
/// finishes in seconds, large enough that the candidate space is real.
fn bench_size(b: Benchmark) -> usize {
    match b {
        Benchmark::Convlayer => 16,
        Benchmark::Doitgen => 96,
        Benchmark::Tpm | Benchmark::Tp | Benchmark::Copy | Benchmark::Mask => 512,
        _ => 1440,
    }
}

fn run_kernel(b: Benchmark, reps: usize) -> Result<KernelRow, String> {
    let arch = presets::intel_i7_5930k();
    let nests: Vec<LoopNest> =
        b.build(bench_size(b)).map_err(|e| format!("{}: {e}", b.name()))?;

    let exhaustive_opt = Optimizer::with_config(
        &arch,
        OptimizerConfig { search: SearchOptions::exhaustive(), ..OptimizerConfig::default() },
    );
    let engine_opt = Optimizer::with_config(
        &arch,
        OptimizerConfig { search: SearchOptions::default(), ..OptimizerConfig::default() },
    );

    let mut exhaustive_samples = Vec::with_capacity(reps);
    let mut engine_samples = Vec::with_capacity(reps);
    let mut agree = true;
    let mut stats = SearchStats::default();
    for rep in 0..reps {
        let t0 = Instant::now();
        let reference: Vec<_> = nests.iter().map(|n| exhaustive_opt.optimize(n)).collect();
        exhaustive_samples.push(t0.elapsed());

        let t1 = Instant::now();
        let mut rep_stats = SearchStats::default();
        let engine: Vec<_> = nests
            .iter()
            .map(|n| {
                let (d, s) = engine_opt.optimize_with_stats(n);
                rep_stats.absorb(&s);
                d
            })
            .collect();
        engine_samples.push(t1.elapsed());

        agree &= engine == reference
            && engine
                .iter()
                .zip(&reference)
                .all(|(e, r)| e.predicted_cost.to_bits() == r.predicted_cost.to_bits());
        if rep + 1 == reps {
            // Last rep: the process-wide emu() memo has seen every bound
            // once, so its hits show the memo at work.
            stats = rep_stats;
        }
    }

    Ok(KernelRow {
        name: b.name(),
        size: bench_size(b),
        reps,
        exhaustive_ms: median_ms(&mut exhaustive_samples),
        engine_ms: median_ms(&mut engine_samples),
        agree,
        stats,
    })
}

fn json_escape_free(name: &str) -> &str {
    // Kernel names are [a-z0-9]+ by construction; guarded anyway.
    debug_assert!(name.chars().all(|c| c.is_ascii_alphanumeric()));
    name
}

fn render_json(rows: &[KernelRow], ceiling_ms: f64) -> String {
    // The vendored serde is a no-op stub (offline build), so the report
    // is rendered by hand; the schema is flat on purpose.
    let mut out = String::from("{\n  \"bench\": \"search\",\n");
    let _ = writeln!(out, "  \"ceiling_ms\": {ceiling_ms},");
    out.push_str("  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let speedup = if r.engine_ms > 0.0 { r.exhaustive_ms / r.engine_ms } else { f64::NAN };
        let _ = write!(
            out,
            "    {{\"kernel\": \"{}\", \"size\": {}, \"reps\": {}, \
             \"exhaustive_ms\": {:.3}, \"engine_ms\": {:.3}, \"speedup\": {:.2}, \
             \"agree\": {}, \"workers\": {}, \"candidates_evaluated\": {}, \
             \"candidates_pruned\": {}, \"memo_hits\": {}, \"memo_misses\": {}, \
             \"emu_memo_hits\": {}, \"emu_memo_misses\": {}}}",
            json_escape_free(r.name),
            r.size,
            r.reps,
            r.exhaustive_ms,
            r.engine_ms,
            speedup,
            r.agree,
            r.stats.workers,
            r.stats.candidates_evaluated,
            r.stats.candidates_pruned,
            r.stats.memo_hits,
            r.stats.memo_misses,
            r.stats.emu_memo_hits,
            r.stats.emu_memo_misses,
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    // At least two, so the memo gate below sees a repeated search.
    let reps: usize = env_parse("PALO_BENCH_SEARCH_REPS", 5).max(2);
    let ceiling_ms: f64 = env_parse("PALO_BENCH_SEARCH_CEILING_MS", 30_000.0);
    let out_path =
        std::env::var("PALO_BENCH_SEARCH_OUT").unwrap_or_else(|_| "BENCH_search.json".into());

    let requested: Vec<String> = std::env::args().skip(1).collect();
    let kernels: Vec<Benchmark> = if requested.is_empty() {
        vec![Benchmark::Matmul, Benchmark::Gemm, Benchmark::Syrk, Benchmark::Tp]
    } else {
        let mut ks = Vec::new();
        for want in &requested {
            match Benchmark::all().iter().find(|b| b.name() == want) {
                Some(b) => ks.push(*b),
                None => {
                    eprintln!("bench_search: unknown kernel '{want}'");
                    std::process::exit(2);
                }
            }
        }
        ks
    };

    let mut rows = Vec::new();
    let mut failed = false;
    for b in kernels {
        match run_kernel(b, reps) {
            Ok(row) => {
                println!(
                    "{:<10} size {:>4}: exhaustive {:>9.2} ms, engine {:>9.2} ms \
                     ({:.2}x), evaluated {}, pruned {}, emu memo hits {}, agree: {}",
                    row.name,
                    row.size,
                    row.exhaustive_ms,
                    row.engine_ms,
                    row.exhaustive_ms / row.engine_ms.max(1e-9),
                    row.stats.candidates_evaluated,
                    row.stats.candidates_pruned,
                    row.stats.emu_memo_hits,
                    row.agree,
                );
                if !row.agree {
                    eprintln!("bench_search: {}: engine diverged from exhaustive", row.name);
                    failed = true;
                }
                if row.engine_ms > ceiling_ms {
                    eprintln!(
                        "bench_search: {}: engine {:.1} ms over ceiling {:.1} ms",
                        row.name, row.engine_ms, ceiling_ms
                    );
                    failed = true;
                }
                rows.push(row);
            }
            Err(e) => {
                eprintln!("bench_search: {e}");
                failed = true;
            }
        }
    }

    // The acceptance criteria track these counters: an engine that never
    // prunes or memoizes is a regression even if it agrees.
    let total_pruned: u64 = rows.iter().map(|r| r.stats.candidates_pruned).sum();
    let total_memo: u64 = rows.iter().map(|r| r.stats.memo_hits + r.stats.emu_memo_hits).sum();
    if rows.iter().any(|r| r.name != "tp") && total_pruned == 0 {
        eprintln!("bench_search: no candidate was ever pruned");
        failed = true;
    }
    if total_memo == 0 {
        eprintln!("bench_search: the memo tables never hit");
        failed = true;
    }

    let json = render_json(&rows, ceiling_ms);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("bench_search: cannot write {out_path}: {e}");
        failed = true;
    } else {
        println!("wrote {out_path}");
    }
    if failed {
        std::process::exit(1);
    }
}
