//! palo's benchmark: three seeded workloads driven through the crates'
//! public functions, each with a correctness gate, plus a traced run
//! that reports per-layer figures. See NOTES.md for the workloads, the
//! metrics and what each layer figure should move.

pub mod drive;
pub mod layers;
pub mod probe;
pub mod serve;
pub mod span;
pub mod suite;
pub mod sweep;
pub mod util;

pub use util::Outcome;

/// Input scale: `Full` for measurement, `Tiny` for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }
}

#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

pub const WORKLOADS: [&str; 3] = ["suite-cold", "sweep-analytic", "serve-mixed"];

/// The end-to-end metrics every timed run reports, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
];

pub fn run(workload: &str, cfg: &RunCfg) -> Result<Outcome, String> {
    match workload {
        "suite-cold" => suite::run(cfg),
        "sweep-analytic" => sweep::run(cfg),
        "serve-mixed" => serve::run(cfg),
        other => Err(format!("unknown workload {other:?} (expected one of {WORKLOADS:?})")),
    }
}

/// Ends a traced run: writes its spans to
/// `.bench_out/spans-<workload>-<seed>.ndjson` and prints each span
/// name's count and self time as notes.
pub fn finish_trace(tracer: &span::Tracer, cfg: &RunCfg, workload: &str, out: &mut Outcome) {
    for (name, t) in tracer.self_times() {
        out.note(&format!("span.{name}.count"), t.count as f64, "count");
        out.note(&format!("span.{name}.self_ms"), t.self_ms, "ms");
    }
    let path = std::path::PathBuf::from(".bench_out")
        .join(format!("spans-{workload}-{}.ndjson", cfg.seed));
    if let Err(e) = tracer.write_ndjson(&path) {
        eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
    }
}
