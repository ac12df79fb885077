//! Figure 7: the ARM Cortex-A15 platform (no L3, shared 16-way L2,
//! one thread per core, no vector NT stores).
//!
//! copy and mask are excluded as in the paper (without NT stores all
//! three implementations are identical). The model correction for the
//! shared L2 (`L2way / NCores`) is derived automatically from the
//! level's `SharingScope::Chip`.

use palo_arch::presets;
use palo_baselines::Technique;
use palo_bench::{print_table, relative_rows, session, time_grid};
use palo_suite::Benchmark;

fn main() {
    let arch = presets::repro::arm_cortex_a15();
    let techniques = [Technique::Proposed, Technique::AutoScheduler, Technique::Baseline];
    let benchmarks: Vec<Benchmark> = Benchmark::all()
        .into_iter()
        .filter(|b| !matches!(b, Benchmark::Copy | Benchmark::Mask))
        .collect();
    print_table(
        "Figure 7: throughput relative to fastest — ARM Cortex A15",
        &["Benchmark", "Proposed", "Auto-Scheduler", "Baseline"],
        &relative_rows(&time_grid(&session(&arch), &benchmarks, &techniques, 0)),
    );
}
