//! Figure 4: throughput relative to the fastest implementation on the
//! two Intel platforms, five techniques × twelve benchmarks.

use palo_arch::presets;
use palo_baselines::Technique;
use palo_bench::{autotuner_budget_1h, print_table, relative_rows, session, time_grid};
use palo_suite::Benchmark;

fn main() {
    let budget = autotuner_budget_1h();
    let techniques = [
        Technique::Proposed,
        Technique::ProposedNti,
        Technique::AutoScheduler,
        Technique::Baseline,
        Technique::Autotuner { budget },
    ];
    for arch in [presets::repro::intel_i7_6700(), presets::repro::intel_i7_5930k()] {
        let grid = time_grid(&session(&arch), &Benchmark::all(), &techniques, 0xC60);
        print_table(
            &format!(
                "Figure 4: throughput relative to fastest — {} (autotuner budget {budget})",
                arch.name
            ),
            &[
                "Benchmark",
                "Proposed",
                "Proposed+NTI",
                "Auto-Scheduler",
                "Baseline",
                "Autotuner",
            ],
            &relative_rows(&grid),
        );
    }
}
