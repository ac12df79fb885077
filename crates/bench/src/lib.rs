//! Shared harness for the table/figure generators.
//!
//! Every bench target in this crate regenerates one table or figure of
//! the paper (DESIGN.md §4) on the simulator substrate. The helpers here
//! open one [`Session`] per platform, measure techniques on benchmarks
//! over it, format tables, and read the `PALO_QUICK` environment variable
//! that trades fidelity for runtime.

use palo_arch::Architecture;
use palo_baselines::{schedule_for, Technique};
use palo_core::{PipelineConfig, Session};
use palo_ir::LoopNest;
use palo_suite::Benchmark;

/// A default-configured [`Session`] for `arch`: a generator opens one per
/// platform and measures every cell on it, so cells that repeat a
/// simulation (Proposed and Proposed+NTI on the temporal kernels, `3mm`'s
/// stages after `matmul`) replay it from the artifact cache.
///
/// # Panics
///
/// When `arch` fails validation; the generators run the presets only.
pub fn session(arch: &Architecture) -> Session {
    Session::new(arch, PipelineConfig::default())
        .unwrap_or_else(|e| panic!("palo-bench: {}: {e}", arch.name))
}

/// Estimated execution time (ms) of `technique` on a multi-stage
/// benchmark, on `session`'s platform: stages are scheduled independently
/// and their times summed, as the paper's per-function Halide tool does.
///
/// Each stage runs through [`Session::run_schedule`]: a schedule that
/// fails to lower degrades to a fallback rung (reported on stderr)
/// instead of aborting the whole table, and a stage with no measurable
/// schedule at all contributes `f64::INFINITY`.
pub fn measure_technique(
    session: &Session,
    nests: &[LoopNest],
    technique: Technique,
    seed: u64,
) -> f64 {
    nests
        .iter()
        .map(|nest| {
            let sched = schedule_for(technique, nest, session.arch(), seed);
            match session.run_schedule(nest, &sched) {
                Ok(out) => {
                    if out.report.fallback_fired() {
                        eprintln!(
                            "palo-bench: {} on {}: fell back to {} schedule",
                            technique.label(),
                            nest.name(),
                            out.report.rung
                        );
                    }
                    out.report.estimate.as_ref().map(|e| e.ms).unwrap_or(f64::INFINITY)
                }
                Err(e) => {
                    eprintln!(
                        "palo-bench: {} on {}: unmeasurable: {e}",
                        technique.label(),
                        nest.name()
                    );
                    f64::INFINITY
                }
            }
        })
        .sum()
}

/// Measures a benchmark at its scaled size; an unbuildable benchmark is
/// reported on stderr and measured as `f64::INFINITY`.
pub fn measure_benchmark(
    session: &Session,
    benchmark: Benchmark,
    technique: Technique,
    seed: u64,
) -> f64 {
    match benchmark.build_scaled() {
        Ok(nests) => measure_technique(session, &nests, technique, seed),
        Err(e) => {
            eprintln!("palo-bench: benchmark failed to build: {e}");
            f64::INFINITY
        }
    }
}

/// The time grid of a figure: for each benchmark, the time (ms) of
/// every technique, in `techniques` order.
pub fn time_grid(
    session: &Session,
    benchmarks: &[Benchmark],
    techniques: &[Technique],
    seed: u64,
) -> Vec<(Benchmark, Vec<f64>)> {
    benchmarks
        .iter()
        .map(|&b| {
            (b, techniques.iter().map(|&t| measure_benchmark(session, b, t, seed)).collect())
        })
        .collect()
}

/// The fastest of `times`.
pub fn best(times: &[f64]) -> f64 {
    times.iter().cloned().fold(f64::INFINITY, f64::min)
}

/// A figure cell: throughput `rel` to two decimals and a 10-wide
/// [`bar`] of `rel / full` (so `full` is the throughput of a full bar).
pub fn throughput_cell(rel: f64, full: f64) -> String {
    format!("{rel:.2} {}", bar(rel / full, 10))
}

/// Figure rows: each benchmark's name, then each technique's throughput
/// relative to the benchmark's fastest technique ([`throughput_cell`]).
pub fn relative_rows(grid: &[(Benchmark, Vec<f64>)]) -> Vec<Vec<String>> {
    grid.iter()
        .map(|(b, times)| {
            let fastest = best(times);
            let cells = times.iter().map(|ms| throughput_cell(fastest / ms, 1.0));
            std::iter::once(b.name().to_string()).chain(cells).collect()
        })
        .collect()
}

/// Whether the `PALO_QUICK` environment variable asks for reduced
/// budgets/sizes.
pub fn quick() -> bool {
    std::env::var_os("PALO_QUICK").is_some()
}

/// Autotuner evaluation budget standing in for the paper's one hour.
pub fn autotuner_budget_1h() -> usize {
    if quick() {
        4
    } else {
        20
    }
}

/// Autotuner evaluation budget standing in for the paper's one day.
pub fn autotuner_budget_1d() -> usize {
    if quick() {
        10
    } else {
        100
    }
}

/// Prints an aligned ASCII table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(ncols) {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::new();
        for (c, cell) in cells.iter().enumerate().take(ncols) {
            line.push_str(&format!("{:width$}  ", cell, width = widths[c]));
        }
        line.trim_end().to_string()
    };
    println!("{}", fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * ncols));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Renders a value in `[0, 1]` as a unicode bar (for figure-style
/// relative-throughput output).
pub fn bar(frac: f64, width: usize) -> String {
    let frac = frac.clamp(0.0, 1.0);
    let filled = (frac * width as f64).round() as usize;
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

#[cfg(test)]
mod tests {
    use super::*;
    use palo_arch::presets;

    #[test]
    fn measure_copy_is_positive() {
        let ms = measure_benchmark(
            &session(&presets::intel_i7_6700()),
            Benchmark::Copy,
            Technique::Baseline,
            0,
        );
        assert!(ms > 0.0);
    }

    #[test]
    fn proposed_nti_replays_proposed_on_a_temporal_kernel() {
        // matmul accumulates, so NTI never fires and both techniques
        // schedule it alike: the second cell is a pure cache replay.
        let session = session(&presets::repro::intel_i7_5930k());
        let nests = Benchmark::Matmul.build(128).unwrap();
        let proposed = measure_technique(&session, &nests, Technique::Proposed, 0);
        let before = session.cache_stats();
        let nti = measure_technique(&session, &nests, Technique::ProposedNti, 0);
        let delta = session.cache_stats().since(&before);
        assert_eq!(proposed.to_bits(), nti.to_bits());
        assert!(proposed.is_finite());
        assert_eq!(delta.misses, 0, "simulate and every other pass must hit: {delta:?}");
        assert!(delta.hits > 0);
    }

    #[test]
    fn relative_rows_put_the_fastest_at_one() {
        let grid = vec![(Benchmark::Tp, vec![2.0, 1.0, f64::INFINITY])];
        assert_eq!(
            relative_rows(&grid),
            vec![vec![
                "tp".to_string(),
                "0.50 #####.....".to_string(),
                "1.00 ##########".to_string(),
                "0.00 ..........".to_string(),
            ]]
        );
        assert_eq!(throughput_cell(0.8, 1.6), "0.80 #####.....");
    }

    #[test]
    fn bar_renders() {
        assert_eq!(bar(1.0, 4), "####");
        assert_eq!(bar(0.0, 4), "....");
        assert_eq!(bar(0.5, 4), "##..");
        assert_eq!(bar(2.0, 2), "##");
    }

    #[test]
    fn budgets_positive() {
        assert!(autotuner_budget_1h() > 0);
        assert!(autotuner_budget_1d() > autotuner_budget_1h() / 2);
    }
}
