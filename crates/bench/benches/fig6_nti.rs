//! Figure 6: the effect of non-temporal stores on the kernels whose
//! output has no temporal reuse (tp&m, tp, copy, mask), Intel 5930K.
//!
//! Throughput is reported relative to the *Proposed non-NTI*
//! implementation, as in the paper — values above 1.0 for Proposed+NTI
//! demonstrate the benefit of the new scheduling directive.

use palo_arch::presets;
use palo_baselines::Technique;
use palo_bench::{print_table, session, throughput_cell, time_grid};
use palo_suite::Benchmark;

fn main() {
    let arch = presets::repro::intel_i7_5930k();
    let benchmarks = [Benchmark::Tpm, Benchmark::Tp, Benchmark::Copy, Benchmark::Mask];
    let techniques = [Technique::Proposed, Technique::ProposedNti, Technique::AutoScheduler];
    let rows: Vec<Vec<String>> = time_grid(&session(&arch), &benchmarks, &techniques, 0)
        .into_iter()
        .map(|(b, times)| {
            // A full bar is 1.6× the Proposed (non-NTI) throughput.
            let cells = times.iter().map(|ms| throughput_cell(times[0] / ms, 1.6));
            std::iter::once(b.name().to_string()).chain(cells).collect()
        })
        .collect();
    print_table(
        "Figure 6: throughput relative to Proposed (non-NTI), Intel 5930K",
        &["Benchmark", "Proposed", "Proposed+NTI", "Auto-Scheduler"],
        &rows,
    );
}
