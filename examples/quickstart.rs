//! Quickstart: describe a loop nest, run it through a fault-tolerant
//! session, and compare the result against the naive schedule on the
//! simulator.
//!
//! Run with: `cargo run --release --example quickstart`

use palo::arch::presets;
use palo::core::{PipelineConfig, Session};
use palo::ir::{DType, NestBuilder};
use palo::sched::Schedule;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the algorithm (matrix multiplication, Listing 1 of the
    //    paper) — just the loop nest and the statement, no schedule.
    let n = 512;
    let mut b = NestBuilder::new("matmul", DType::F32);
    let i = b.var("i", n);
    let j = b.var("j", n);
    let k = b.var("k", n);
    let a = b.array("A", &[n, n]);
    let bm = b.array("B", &[n, n]);
    let c = b.array("C", &[n, n]);
    b.accumulate(c, &[i, j], b.load(a, &[i, k]) * b.load(bm, &[k, j]));
    let nest = b.build()?;
    println!("Algorithm:\n{nest}");

    // 2. Pick a target platform (Table 3 presets) and run the session:
    //    optimize -> lower -> validate -> simulate. If any stage of the
    //    proposed schedule fails, the run degrades through stripped
    //    -> baseline -> naive instead of erroring out.
    let arch = presets::repro::intel_i7_5930k();
    let session = Session::new(&arch, PipelineConfig::default())?;
    let out = session.run(&nest)?;
    if let Some(decision) = &out.decision {
        println!("Classification: {:?}", decision.class);
        println!("Tile sizes:     {:?}", decision.tile);
    }
    println!("Schedule ({} rung): {}", out.report.rung, out.schedule);
    if out.report.fallback_fired() {
        for f in &out.report.failures {
            println!("  degraded past {} rung: {}", f.rung, f.error);
        }
    }

    // 3. Inspect the concrete loop structure the session lowered.
    println!("\nLowered nest:\n{}", out.lowered);

    // 4. Compare against the naive program order (on the same session).
    let naive = session.run_schedule(&nest, &Schedule::new())?;
    let (t_opt, t_naive) = match (&out.report.estimate, &naive.report.estimate) {
        (Some(o), Some(n)) => (o, n),
        _ => return Err("simulation produced no estimate".into()),
    };
    println!(
        "naive:     {:8.2} ms  ({} mem lines)",
        t_naive.ms,
        t_naive.stats.mem_traffic_lines()
    );
    println!("optimized: {:8.2} ms  ({} mem lines)", t_opt.ms, t_opt.stats.mem_traffic_lines());
    println!("speedup:   {:.2}x", t_naive.ms / t_opt.ms);
    Ok(())
}
