//! How the benchmark calls into palo: platform presets by their CLI
//! names, the session configuration every workload shares, the
//! canonical renderings its correctness gates compare, and the golden
//! decision gate.

use crate::util::Outcome;
use palo_arch::{presets, Architecture};
use palo_cachesim::HierarchyStats;
use palo_core::{CacheConfig, Decision, Optimizer, PipelineConfig, PipelineOutcome};
use palo_exec::TimeEstimate;
use palo_suite::Benchmark;
use std::collections::HashMap;

/// The four suite platforms: together they enable all six prefetch
/// strategies (6700: next-line + stride; zen2: next-line + stream;
/// n1: adjacent-pair + confident-stride; nopf: none).
pub const PLATFORMS: [&str; 4] = ["6700", "zen2", "n1", "nopf"];

/// The preset `palo-opt --platform NAME` uses.
pub fn platform(name: &str) -> Architecture {
    match name {
        "6700" => presets::repro::intel_i7_6700(),
        "zen2" => presets::repro::amd_zen2(),
        "n1" => presets::repro::arm_neoverse_n1(),
        "nopf" => presets::repro::intel_i7_6700_no_prefetch(),
        other => panic!("no platform {other:?} in the benchmark's table"),
    }
}

/// Session configuration: the candidate-search pool pinned to one
/// thread, so a workload's thread count is exactly its batch or server
/// worker count.
pub fn pipeline_config(simulate: bool, cache: CacheConfig) -> PipelineConfig {
    let mut config = PipelineConfig { simulate, cache, ..PipelineConfig::default() };
    config.optimizer.search.threads = Some(1);
    config
}

/// A decision in the format of `tests/golden/decisions.txt`, cost bits
/// included so float drift cannot hide.
pub fn decision_line(d: &Decision) -> String {
    format!(
        "class={:?} tile={:?} inter={:?} intra={:?} nti={} lanes={} par={:?} cost={:#018x}",
        d.class,
        d.tile,
        d.inter_order,
        d.intra_order,
        d.use_nti,
        d.vector_lanes,
        d.parallel_var,
        d.predicted_cost.to_bits()
    )
}

/// Every simulated counter plus the estimate's bits.
pub fn estimate_line(e: &TimeEstimate) -> String {
    format!("est={:#018x} {}", e.ms.to_bits(), stats_line(&e.stats))
}

/// Every counter of a hierarchy.
pub fn stats_line(s: &HierarchyStats) -> String {
    let mut out = format!("lines={}", s.total_accesses);
    for (i, l) in s.levels.iter().enumerate() {
        out.push_str(&format!(
            " L{}={}/{}/{}/{}/{}",
            i + 1,
            l.demand_hits,
            l.demand_misses,
            l.prefetch_hits,
            l.prefetch_fills,
            l.dirty_evictions
        ));
    }
    out.push_str(&format!(
        " mem={}/{}/{}/{}",
        s.mem_demand_fills, s.mem_prefetch_fills, s.mem_writebacks, s.nt_store_lines
    ));
    out
}

/// What a run decided and estimated, rendered for exact comparison.
pub fn outcome_line(out: &PipelineOutcome) -> String {
    let decision =
        out.decision.as_ref().map_or_else(|| "no-decision".to_string(), decision_line);
    let estimate =
        out.report.estimate.as_ref().map_or_else(|| "est=none".into(), estimate_line);
    format!("{decision} rung={} {estimate}", out.report.rung)
}

/// The repository's golden decision snapshot.
pub const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../tests/golden/decisions.txt");

/// The golden decision rows, keyed `kernel[stage] @ platform`.
pub fn golden_rows() -> Result<HashMap<String, String>, String> {
    let text =
        std::fs::read_to_string(GOLDEN).map_err(|e| format!("cannot read {GOLDEN}: {e}"))?;
    Ok(text
        .lines()
        .filter_map(|l| l.split_once(": ").map(|(k, v)| (k.to_string(), v.to_string())))
        .collect())
}

/// Decisions of the scaled suite on the benchmark's platforms, compared
/// with every golden row they match. Part of set-up: real optimizer work
/// and a correctness gate.
#[derive(Debug, Default)]
pub struct GoldenGate {
    pub checked: u64,
    pub mismatches: Vec<String>,
}

impl GoldenGate {
    pub fn run(golden: &HashMap<String, String>) -> Result<Self, String> {
        let mut gate = GoldenGate::default();
        let config = pipeline_config(false, CacheConfig::default());
        for name in PLATFORMS {
            let optimizer = Optimizer::with_config(&platform(name), config.optimizer.clone());
            for b in Benchmark::all() {
                let nests = b.build_scaled().map_err(|e| e.to_string())?;
                for (stage, nest) in nests.iter().enumerate() {
                    let key = format!("{}[{stage}] @ {name}", b.name());
                    let Some(want) = golden.get(&key) else { continue };
                    gate.checked += 1;
                    match optimizer.try_optimize(nest) {
                        Ok(d) if decision_line(&d) == *want => {}
                        Ok(d) => {
                            gate.mismatches.push(format!("{key}: got {}", decision_line(&d)))
                        }
                        Err(e) => gate.mismatches.push(format!("{key}: {e}")),
                    }
                }
            }
        }
        Ok(gate)
    }

    /// Counts every checked row as an attempt and every mismatch as a
    /// failure.
    pub fn record(&self, out: &mut Outcome) {
        for _ in 0..self.checked - self.mismatches.len() as u64 {
            out.attempt(true, String::new);
        }
        for m in &self.mismatches {
            out.attempt(false, || format!("golden {m}"));
        }
    }
}
