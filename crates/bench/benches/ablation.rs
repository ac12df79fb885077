//! Ablation of the design choices DESIGN.md §6 calls out:
//!
//! 1. prefetch discounting in the miss model (Eq. 2 → Eq. 3),
//! 2. the halved effective L2 set count,
//! 3. the `Corder` reorder step,
//! 4. the Eq. 13 parallel-grain constraint,
//! 5. non-temporal stores.
//!
//! Each switch is disabled in isolation and the resulting schedule is
//! measured on the simulator for one temporal kernel (matmul) and one
//! spatial kernel (tpm).

use palo_arch::presets;
use palo_bench::print_table;
use palo_core::{OptimizerConfig, PipelineConfig, Session};
use palo_suite::kernels;

fn main() {
    let arch = presets::repro::intel_i7_5930k();
    let variants: Vec<(&str, OptimizerConfig)> = vec![
        ("full model (paper)", OptimizerConfig::default()),
        (
            "no prefetch discount",
            OptimizerConfig { prefetch_discount: false, ..OptimizerConfig::default() },
        ),
        (
            "no halved L2 sets",
            OptimizerConfig { halve_l2_sets: false, ..OptimizerConfig::default() },
        ),
        (
            "no reorder step",
            OptimizerConfig { reorder_step: false, ..OptimizerConfig::default() },
        ),
        (
            "no parallel-grain constraint",
            OptimizerConfig { parallel_grain_constraint: false, ..OptimizerConfig::default() },
        ),
        ("no NTI", OptimizerConfig { enable_nti: false, ..OptimizerConfig::default() }),
    ];

    let nests = [("matmul 512", kernels::matmul(512)), ("tpm 1024", kernels::tpm(1024))];
    for (bench, nest) in nests {
        let nest = match nest {
            Ok(n) => n,
            Err(e) => {
                eprintln!("{bench}: kernel failed to build: {e}");
                continue;
            }
        };
        let mut rows = Vec::new();
        for (label, config) in &variants {
            let config =
                PipelineConfig { optimizer: config.clone(), ..PipelineConfig::default() };
            let out = match Session::new(&arch, config).and_then(|s| s.run(&nest)) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("{bench} / {label}: pipeline failed: {e}");
                    continue;
                }
            };
            if out.report.fallback_fired() {
                eprintln!("{bench} / {label}: fell back to the {} schedule", out.report.rung);
            }
            let ms = out.report.estimate.as_ref().map(|e| e.ms).unwrap_or(f64::INFINITY);
            let (tile, nti) = out
                .decision
                .as_ref()
                .map(|d| (format!("{:?}", d.tile), d.use_nti.to_string()))
                .unwrap_or_else(|| ("-".into(), "-".into()));
            rows.push(vec![label.to_string(), format!("{ms:.2}"), tile, nti]);
        }
        print_table(
            &format!("Ablation — {bench}, Intel 5930K"),
            &["Variant", "est. ms", "tile", "NTI"],
            &rows,
        );
    }
}
