//! `sweep-analytic`: a seeded sweep of kernel × size × platform ×
//! prefetcher-override combinations with simulation off. A cold phase
//! decides every combination through sessions writing to one fresh
//! `DiskStore` directory; a restart phase opens new sessions with a
//! small bounded memory tier on that directory and replays the whole
//! sweep from disk. Classify/emu/search/model and their writes dominate
//! the cold phase; disk reads, frame decoding and eviction dominate the
//! restart. The no-change control for simulator changes.

use crate::drive::{self, decision_line, pipeline_config, GoldenGate, PLATFORMS};
use crate::layers::Layers;
use crate::span::{maybe_span, Tracer};
use crate::util::{median, quantile, secs, Outcome, Rng, ScratchDir, SetupTimes};
use crate::{RunCfg, Scale};
use palo_arch::{Architecture, PrefetcherConfig};
use palo_core::{CacheConfig, CacheStats, PipelineOutcome, PolicyKind, Session};
use palo_ir::LoopNest;
use palo_suite::Benchmark;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::Instant;

const WORKERS: usize = 2;

/// The cold phase runs in chunks of this many sessions (groups).
const GROUPS_PER_CHUNK: usize = 4;

/// Set-ups before the cold phase; one more follows each cold chunk, so
/// the median (`setup_s`) samples the whole cold phase.
const SETUPS_BEFORE: usize = 3;

/// Memory-tier capacity (entries) of the restarted sessions: far below
/// the sweep's artifact count, so the restart evicts continuously.
const RESTART_CAPACITY: usize = 32;

/// `--prefetcher` overrides applied on top of each platform preset
/// (`level=spec`, level 1 or 2); the empty override is the preset.
const OVERRIDES: [&[(usize, &str)]; 6] = [
    &[],
    &[(1, "next-line")],
    &[(2, "stride:2:20")],
    &[(1, "adjacent-pair"), (2, "confident-stride:2:12:3")],
    &[(2, "stream:4:16:2")],
    &[(1, "none"), (2, "none")],
];

/// Combinations per kernel. Fixed counts keep every seed's sweep the
/// same amount of work; convlayer's 7-deep search costs ~100× a matrix
/// kernel's, so it gets fewer.
fn combos(b: Benchmark, scale: Scale) -> usize {
    match (scale, b) {
        (Scale::Full, Benchmark::Convlayer) => 48,
        (Scale::Full, _) => 100,
        (Scale::Tiny, _) => 4,
    }
}

/// Size range (inclusive) and step per kernel.
fn sizes(b: Benchmark, scale: Scale) -> (usize, usize, usize) {
    use Benchmark::*;
    let full = match b {
        Convlayer => (16, 64, 4),
        Doitgen => (32, 256, 8),
        Matmul | ThreeMm | Gemm | Trmm => (128, 2048, 16),
        Syrk | Syr2k => (128, 1024, 16),
        Tpm | Tp | Copy | Mask => (256, 4096, 32),
    };
    match scale {
        Scale::Full => full,
        Scale::Tiny => (full.0 / 4, full.0 / 2, full.2.max(4) / 4),
    }
}

fn with_overrides(
    mut arch: Architecture,
    over: &[(usize, &str)],
) -> Result<Architecture, String> {
    for &(level, spec) in over {
        let pf: PrefetcherConfig = spec.parse().map_err(|e| format!("{spec}: {e}"))?;
        arch.caches[level - 1].prefetcher = pf;
    }
    arch.validate()?;
    Ok(arch)
}

/// One session's share of the sweep: a distinct effective architecture
/// and its nests.
struct Group {
    label: String,
    arch: Architecture,
    items: Vec<(String, LoopNest)>,
}

fn generate(seed: u64, scale: Scale) -> Result<Vec<Group>, String> {
    let mut groups: Vec<Group> = Vec::new();
    let mut seen_arch = HashSet::new();
    for name in PLATFORMS {
        for (i, over) in OVERRIDES.iter().enumerate() {
            let arch = with_overrides(drive::platform(name), over)?;
            if seen_arch.insert(format!("{:?}", arch.caches)) {
                groups.push(Group { label: format!("{name}+o{i}"), arch, items: Vec::new() });
            }
        }
    }
    let mut rng = Rng::new(seed, 2);
    let mut seen = HashSet::new();
    for b in Benchmark::all() {
        // Sizes come off a shuffled deck of the whole range, so every
        // seed decides about the same multiset of sizes per kernel.
        let (lo, hi, step) = sizes(b, scale);
        // Groups too, so every group gets the same share of each kernel
        // and the cold chunks weigh the same.
        let mut deck: Vec<usize> = Vec::new();
        let mut group_deck: Vec<usize> = Vec::new();
        let mut placed = 0;
        while placed < combos(b, scale) {
            if deck.is_empty() {
                deck = (lo..=hi).step_by(step).collect();
                rng.shuffle(&mut deck);
            }
            if group_deck.is_empty() {
                group_deck = (0..groups.len()).collect();
                rng.shuffle(&mut group_deck);
            }
            let size = deck.pop().expect("refilled above");
            let g = group_deck.pop().expect("refilled above");
            if !seen.insert((g, b.name(), size)) {
                continue;
            }
            let nests = b.build(size).map_err(|e| format!("{}({size}): {e}", b.name()))?;
            for (stage, nest) in nests.into_iter().enumerate() {
                groups[g].items.push((format!("{}[{stage}] n={size}", b.name()), nest));
            }
            placed += 1;
        }
    }
    Ok(groups)
}

/// `group label` of every nest, in order.
pub fn input_labels(seed: u64, scale: Scale) -> Result<Vec<String>, String> {
    Ok(generate(seed, scale)?
        .iter()
        .flat_map(|g| g.items.iter().map(move |(l, _)| format!("{} {l}", g.label)))
        .collect())
}

fn decided(out: &PipelineOutcome) -> String {
    let d = out.decision.as_ref().map_or_else(|| "no-decision".into(), decision_line);
    format!("{d} rung={}", out.report.rung)
}

struct Setup {
    groups: Vec<Group>,
    dir: ScratchDir,
    golden: GoldenGate,
}

/// Input generation, the golden-decision gate, a fresh store directory,
/// sessions opened once per group, and one untimed decision.
fn setup(cfg: &RunCfg, golden: &HashMap<String, String>) -> Result<Setup, String> {
    let groups = generate(cfg.seed, cfg.scale)?;
    let golden = GoldenGate::run(golden)?;
    let dir = ScratchDir::new("sweep")?;
    for g in &groups {
        Session::new(&g.arch, cold_config(dir.path())).map_err(|e| e.to_string())?;
    }
    let warm = Benchmark::Matmul.build(96).map_err(|e| e.to_string())?;
    Session::new(&groups[0].arch, pipeline_config(false, CacheConfig::default()))
        .and_then(|s| s.run(&warm[0]))
        .map_err(|e| e.to_string())?;
    Ok(Setup { groups, dir, golden })
}

fn cold_config(dir: &Path) -> palo_core::PipelineConfig {
    pipeline_config(
        false,
        CacheConfig { dir: Some(dir.to_path_buf()), ..CacheConfig::default() },
    )
}

fn restart_config(dir: &Path) -> palo_core::PipelineConfig {
    pipeline_config(
        false,
        CacheConfig {
            dir: Some(dir.to_path_buf()),
            policy: PolicyKind::Lru,
            capacity_entries: Some(RESTART_CAPACITY),
            capacity_bytes: None,
        },
    )
}

struct Pass {
    wall_s: f64,
    item_ms: Vec<f64>,
    lines: Vec<String>,
    cache: CacheStats,
}

/// Decides every item of `groups` through one batch per group, each
/// group's session opened on `config` (open time included: a restart
/// pays it). Lines come back in group order. With a tracer, each group
/// is one item with spans around its session open and its batch; with
/// `layers`, every run's report is taken in.
fn sweep_pass(
    groups: &[Group],
    config: &palo_core::PipelineConfig,
    out: &mut Outcome,
    tracer: Option<&Tracer>,
    mut layers: Option<&mut Layers>,
) -> Result<Pass, String> {
    let mut pass = Pass {
        wall_s: 0.0,
        item_ms: Vec::new(),
        lines: Vec::new(),
        cache: CacheStats::default(),
    };
    for g in groups {
        let nests: Vec<LoopNest> = g.items.iter().map(|(_, n)| n.clone()).collect();
        let req = tracer.map_or(0, Tracer::request);
        let t = Instant::now();
        let report = maybe_span(tracer, "sweep.group", 0, req, |id| {
            let session = maybe_span(tracer, "core.session.open", id, req, |_| {
                Session::new(&g.arch, config.clone())
            })
            .map_err(|e| e.to_string())?;
            Ok::<_, String>(maybe_span(tracer, "core.batch", id, req, |_| {
                session.batch().with_threads(WORKERS).run(&nests)
            }))
        })?;
        let wall = secs(t);
        pass.wall_s += wall;
        pass.cache.absorb(&report.cache);
        if let Some(layers) = layers.as_mut() {
            layers.batch_wall_s += wall * WORKERS as f64;
        }
        for ((label, _), item) in g.items.iter().zip(&report.items) {
            match &item.outcome {
                Ok(o) => {
                    pass.item_ms.push(o.report.elapsed.as_secs_f64() * 1e3);
                    pass.lines.push(decided(o));
                    if let Some(layers) = layers.as_mut() {
                        layers.absorb_report(&o.report);
                    }
                }
                Err(e) => {
                    out.fail(format!("{} {label}: {e}", g.label));
                    pass.lines.push(format!("error: {e}"));
                }
            }
        }
    }
    Ok(pass)
}

/// The restart gate: byte-identical decisions, every lookup served from
/// the disk tier (no recompute), no anomaly.
fn check_restart(cold: &[String], restart: &Pass, what: &str, out: &mut Outcome) {
    for (i, (a, b)) in cold.iter().zip(&restart.lines).enumerate() {
        out.attempt(a == b, || format!("{what} item {i}: {b} != cold {a}"));
    }
    let c = &restart.cache;
    out.attempt(c.misses == 0 && c.anomalies == 0 && c.disk.hits > 0, || {
        format!(
            "{what}: {} misses, {} anomalies, {} disk hits",
            c.misses, c.anomalies, c.disk.hits
        )
    });
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let golden = drive::golden_rows()?;
    let mut setups = SetupTimes::default();
    for _ in 1..SETUPS_BEFORE {
        setups.time(|| setup(cfg, &golden))?;
    }
    let state = setups.time(|| setup(cfg, &golden))?;
    state.golden.record(&mut out);
    let groups = &state.groups;
    let n_items: usize = groups.iter().map(|g| g.items.len()).sum();

    // The cold phase in chunks of equal weight, so its rate is a median
    // rather than one reading.
    let budget = cfg.seconds * if cfg.trace { 0.45 } else { 1.0 };
    let t0 = Instant::now();
    let mut chunks = Vec::new();
    for chunk in groups.chunks(GROUPS_PER_CHUNK) {
        chunks.push(sweep_pass(chunk, &cold_config(state.dir.path()), &mut out, None, None)?);
        setups.time(|| setup(cfg, &golden))?;
    }
    let cold_lines: Vec<String> = chunks.iter().flat_map(|p| p.lines.iter().cloned()).collect();
    let rates: Vec<f64> = chunks.iter().map(|p| p.lines.len() as f64 / p.wall_s).collect();
    let cold_ms: Vec<f64> = chunks.iter().flat_map(|p| p.item_ms.iter().copied()).collect();
    out.attempted += n_items as u64;
    let mut c = CacheStats::default();
    for p in &chunks {
        c.absorb(&p.cache);
    }
    out.attempt(c.anomalies == 0 && c.disk.bytes_written > 0, || {
        format!("cold: {} anomalies, {} bytes written", c.anomalies, c.disk.bytes_written)
    });

    // Restarts until the time is used: per restart its wall and its
    // per-nest latency quartiles (the passes themselves are dropped).
    let restart = restart_config(state.dir.path());
    let (mut walls, mut p50s, mut p90s) = (Vec::new(), Vec::new(), Vec::new());
    while walls.len() < 3 || (secs(t0) + median(&walls) < budget && walls.len() < 400) {
        let r = sweep_pass(groups, &restart, &mut out, None, None)?;
        check_restart(&cold_lines, &r, "restart", &mut out);
        walls.push(r.wall_s);
        p50s.push(quantile(&r.item_ms, 0.5));
        p90s.push(quantile(&r.item_ms, 0.9));
    }
    let restart_s = median(&walls);

    if !cfg.trace {
        out.metric("setup_s", setups.median(), "s");
        out.metric("peak_rss_mb", crate::util::peak_rss_mb(), "MB");
        out.metric("throughput_per_s", median(&rates), "1/s");
        out.metric("p50_ms", median(&p50s), "ms");
        out.metric("p90_ms", median(&p90s), "ms");
        out.note("decisions_per_s", median(&rates), "1/s");
        out.note("restart_s", restart_s, "s");
        out.note("restarts", walls.len() as f64, "count");
        out.note("setups", setups.count() as f64, "count");
        out.note("nests", n_items as f64, "count");
        out.note("sessions", groups.len() as f64, "count");
        out.note("cold_p50_ms", quantile(&cold_ms, 0.5), "ms");
        return Ok(out);
    }

    // Traced pass: a second cold sweep into a fresh directory, then one
    // restart from it, through the same code with spans and the same
    // gates.
    let tracer = Tracer::default();
    let mut layers = Layers::default();
    let dir = ScratchDir::new("sweep-traced")?;
    let cold = sweep_pass(
        groups,
        &cold_config(dir.path()),
        &mut out,
        Some(&tracer),
        Some(&mut layers),
    )?;
    for (i, (a, b)) in cold_lines.iter().zip(&cold.lines).enumerate() {
        out.attempt(a == b, || format!("traced cold item {i}: {b} != cold {a}"));
    }
    let r = sweep_pass(groups, &restart_config(dir.path()), &mut out, Some(&tracer), None)?;
    check_restart(&cold_lines, &r, "traced restart", &mut out);
    layers.cache.absorb(&r.cache);
    layers.trace_overhead_share = r.wall_s / restart_s - 1.0;
    let suite_like = crate::suite::generate(cfg.seed, cfg.scale)?;
    crate::probe::run(cfg, &suite_like[0], &mut layers, &mut out)?;
    crate::finish_trace(&tracer, cfg, "sweep-analytic", &mut out);
    layers.emit(&mut out);
    Ok(out)
}
