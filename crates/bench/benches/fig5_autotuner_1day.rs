//! Figure 5: the proposed schedule vs. the autotuner given a full day of
//! tuning, on the four benchmarks with 2/3/4/5-dimensional loop nests
//! (tp&m, matmul, doitgen, convolution layer), Intel 5930K.
//!
//! The paper's point: even after a day, the autotuner — which only tiles
//! the output dimensions — does not reach the proposed analytical
//! schedule. The evaluation budget stands in for tuning wall-clock.

use palo_arch::presets;
use palo_baselines::Technique;
use palo_bench::{autotuner_budget_1d, print_table, relative_rows, session, time_grid};
use palo_suite::Benchmark;

fn main() {
    let arch = presets::repro::intel_i7_5930k();
    let budget = autotuner_budget_1d();
    let benchmarks =
        [Benchmark::Tpm, Benchmark::Convlayer, Benchmark::Matmul, Benchmark::Doitgen];
    let techniques = [Technique::ProposedNti, Technique::Autotuner { budget }];
    // The seed feeds the autotuner only; the proposed schedule ignores it.
    let grid = time_grid(&session(&arch), &benchmarks, &techniques, 0xDA1);
    print_table(
        &format!(
            "Figure 5: throughput relative to fastest — autotuner at 'one day' budget ({budget} evals), Intel 5930K"
        ),
        &["Benchmark", "Proposed+NTI", "Autotuner"],
        &relative_rows(&grid),
    );
}
