//! Table 4: average execution time of the best implementation per
//! benchmark per platform.
//!
//! The paper reports the wall-clock of the fastest schedule; here the
//! fastest *estimated* time across the non-autotuned techniques (the
//! autotuner never wins in the paper's Table 4 columns and is costly to
//! run; enable it by unsetting PALO_QUICK and editing TECHNIQUES below).

use palo_arch::presets;
use palo_baselines::Technique;
use palo_bench::{best, print_table, session, time_grid};
use palo_suite::Benchmark;

const TECHNIQUES: &[Technique] = &[
    Technique::ProposedNti,
    Technique::Proposed,
    Technique::AutoScheduler,
    Technique::Baseline,
];

fn main() {
    let sessions = [
        presets::repro::intel_i7_6700(),
        presets::repro::intel_i7_5930k(),
        presets::repro::arm_cortex_a15(),
    ]
    .map(|arch| session(&arch));
    let mut rows = Vec::new();
    for b in Benchmark::all() {
        let mut row = vec![b.name().to_string(), b.scaled_size().to_string()];
        for session in &sessions {
            // ARM lacks vector NT stores; copy/mask are excluded there as
            // in the paper.
            if session.arch().name.starts_with("ARM")
                && matches!(b, Benchmark::Copy | Benchmark::Mask)
            {
                row.push("-".into());
                continue;
            }
            let (_, times) = &time_grid(session, &[b], TECHNIQUES, 0)[0];
            row.push(format!("{:.2}", best(times)));
        }
        rows.push(row);
    }
    print_table(
        "Table 4: estimated execution time (ms) — best implementation (scaled sizes)",
        &["Benchmark", "Problem size", "Intel i7 6700", "Intel 5930K", "ARM A15"],
        &rows,
    );
    println!("\nNote: absolute values are simulator estimates at the scaled problem");
    println!("sizes of DESIGN.md §5; compare orderings and ratios, not magnitudes.");
}
