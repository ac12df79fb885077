//! Optimize a small vision pipeline (convolution layer + doitgen-style
//! multiresolution stage) and *verify* each optimized schedule against
//! the reference interpretation — the workflow a compiler developer
//! would use to trust a new schedule.
//!
//! Run with: `cargo run --release --example conv_pipeline`

use palo::arch::presets;
use palo::core::{Optimizer, PipelineConfig, Session};
use palo::exec::{run, run_reference, Buffers};
use palo::suite::kernels;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arch = presets::repro::intel_i7_6700();
    let opt = Optimizer::new(&arch);
    let session = Session::new(&arch, PipelineConfig::default())?;

    // Small instances so the functional check is instant; the estimate
    // afterwards uses the real scaled sizes.
    let stages = [
        (
            "convlayer",
            kernels::convlayer(8, 8, 4, 2, 4, 3)?,
            kernels::convlayer(32, 32, 16, 4, 16, 3)?,
        ),
        ("doitgen", kernels::doitgen(12)?, kernels::doitgen(64)?),
    ];

    for (name, small, full) in stages {
        let decision = opt.try_optimize(&full)?;
        println!("== {name} ==");
        println!("class {:?}, tile {:?}", decision.class, decision.tile);
        println!("schedule: {}", decision.schedule());

        // Functional verification at the small size: the same schedule
        // shape re-derived for the small instance must compute exactly
        // the reference result.
        let small_decision = opt.try_optimize(&small)?;
        let lowered = small_decision.schedule().lower(&small)?;
        let mut expect = Buffers::for_nest(&small, 2024);
        let mut got = expect.clone();
        run_reference(&small, &mut expect)?;
        run(&small, &lowered, &mut got)?;
        assert_eq!(expect, got, "{name}: optimized schedule changed the result");
        println!("functional check: OK (bit-exact vs. reference)");

        // Performance estimate at the full scaled size, through the
        // guarded session (degrades instead of failing).
        let out = session.run_schedule(&full, decision.schedule())?;
        if out.report.fallback_fired() {
            println!("note: fell back to the {} schedule", out.report.rung);
        }
        match &out.report.estimate {
            Some(est) => println!(
                "estimated {:.2} ms on {} ({} lines of memory traffic)\n",
                est.ms,
                arch.name,
                est.stats.mem_traffic_lines()
            ),
            None => println!("no estimate: simulation failed\n"),
        }
    }
    Ok(())
}
