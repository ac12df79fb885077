//! Compare every scheduling technique of the paper's evaluation on one
//! kernel (matrix multiplication) — a one-kernel slice of Figure 4.
//!
//! Run with: `cargo run --release --example matmul_tuning`

use palo::arch::presets;
use palo::baselines::{schedule_for, Technique};
use palo::core::{PipelineConfig, Session};
use palo::suite::kernels;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nest = kernels::matmul(512)?;
    let techniques = [
        Technique::Proposed,
        Technique::AutoScheduler,
        Technique::Baseline,
        Technique::Autotuner { budget: 10 },
        Technique::Tss,
        Technique::Tts,
    ];

    for arch in [presets::repro::intel_i7_5930k(), presets::repro::arm_cortex_a15()] {
        println!("\n=== {} ===", arch.name);
        let session = Session::new(&arch, PipelineConfig::default())?;
        let mut results = Vec::new();
        for t in techniques {
            let sched = schedule_for(t, &nest, &arch, 42);
            let out = session.run_schedule(&nest, &sched)?;
            if out.report.fallback_fired() {
                println!("{:>15}: fell back to the {} schedule", t.label(), out.report.rung);
            }
            let ms = out.report.estimate.as_ref().map(|e| e.ms).unwrap_or(f64::INFINITY);
            results.push((t.label(), ms, out.schedule.to_string()));
        }
        let best = results.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
        results.sort_by(|a, b| a.1.total_cmp(&b.1));
        for (label, ms, sched) in &results {
            println!("{label:>15}: {ms:8.2} ms  (rel. throughput {:.2})", best / ms);
            println!("{:>15}  {sched}", "");
        }
    }
    Ok(())
}
