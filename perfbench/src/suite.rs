//! `suite-cold`: the 12 paper kernels (14 nests) through cold sessions
//! with full simulation on 6700, zen2, n1 and nopf — the trace walker,
//! the hierarchy demand path and the prefetcher feeds do almost all the
//! work. The no-change control for store, codec and serve changes.

use crate::drive::{self, outcome_line, GoldenGate, PLATFORMS};
use crate::layers::Layers;
use crate::span::{maybe_span, Tracer};
use crate::util::{geomean, median, quantile, secs, Outcome, Rng, SetupTimes};
use crate::{RunCfg, Scale};
use palo_arch::Architecture;
use palo_core::{CacheConfig, Session};
use palo_ir::LoopNest;
use palo_suite::Benchmark;
use std::collections::HashMap;
use std::time::Instant;

/// Committed per-nest expectations: decision, rung, estimate bits and
/// every simulated counter, for every (scale, platform, kernel, size)
/// a seed can draw. Regenerate with `--bless` after an intended change.
pub const EXPECTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected/suite-cold.txt");

/// Batch workers; with the search pool pinned to 1 this is the whole
/// process's thread count.
const WORKERS: usize = 2;

/// Set-ups before the first cycle; one more follows each cycle, so the
/// median (`setup_s`) samples the whole run.
const SETUPS_BEFORE: usize = 3;

/// Two sizes per kernel. A seed deals each kernel's two sizes out to
/// the four platforms (two platforms get each) and a run simulates whole
/// cycles of two rounds, the second with the deal flipped, so over a
/// cycle every platform simulates both sizes: the seed decides which
/// sizes share a platform batch and in which order, while the work per
/// cycle is the same for every seed (host time is far from additive
/// across sizes, so drawing sizes freely would make the seed, not the
/// program, set the figure). All sizes are multiples of 16 elements
/// (whole lines at every dtype), which keeps the walker's cycle skipping
/// effective, and every working set exceeds the 6700/nopf L2 (256 KiB).
fn size_table(scale: Scale) -> [(Benchmark, [usize; 2]); 12] {
    use Benchmark::*;
    match scale {
        Scale::Full => [
            (Convlayer, [14, 16]),
            (Doitgen, [44, 48]),
            (Matmul, [224, 240]),
            (ThreeMm, [224, 240]),
            (Gemm, [224, 240]),
            (Trmm, [224, 240]),
            (Syrk, [192, 208]),
            (Syr2k, [160, 176]),
            (Tpm, [512, 576]),
            (Tp, [512, 576]),
            (Copy, [512, 576]),
            (Mask, [512, 576]),
        ],
        Scale::Tiny => [
            (Convlayer, [4, 5]),
            (Doitgen, [8, 10]),
            (Matmul, [16, 20]),
            (ThreeMm, [16, 20]),
            (Gemm, [16, 20]),
            (Trmm, [16, 20]),
            (Syrk, [16, 20]),
            (Syr2k, [16, 20]),
            (Tpm, [32, 40]),
            (Tp, [32, 40]),
            (Copy, [32, 40]),
            (Mask, [32, 40]),
        ],
    }
}

#[derive(Debug, Clone)]
pub struct Item {
    /// `kernel[stage] n=size`.
    pub label: String,
    pub nest: LoopNest,
}

#[derive(Debug, Clone)]
pub struct Plat {
    pub name: &'static str,
    pub arch: Architecture,
    pub items: Vec<Item>,
}

fn build(b: Benchmark, size: usize) -> Result<Vec<Item>, String> {
    let nests = b.build(size).map_err(|e| format!("{}({size}): {e}", b.name()))?;
    Ok(nests
        .into_iter()
        .enumerate()
        .map(|(stage, nest)| Item { label: format!("{}[{stage}] n={size}", b.name()), nest })
        .collect())
}

/// The seeded inputs: two rounds, each with the 14 nests per platform
/// at that round's dealt sizes.
pub fn generate(seed: u64, scale: Scale) -> Result<Vec<Vec<Plat>>, String> {
    let mut rng = Rng::new(seed, 1);
    let deals: Vec<[usize; 4]> = size_table(scale)
        .iter()
        .map(|_| {
            let mut deal = [0usize, 0, 1, 1];
            rng.shuffle(&mut deal);
            deal
        })
        .collect();
    (0..2)
        .map(|round| {
            let mut plats: Vec<Plat> = PLATFORMS
                .iter()
                .map(|&name| Plat { name, arch: drive::platform(name), items: Vec::new() })
                .collect();
            for ((b, sizes), deal) in size_table(scale).into_iter().zip(&deals) {
                for (p, plat) in plats.iter_mut().enumerate() {
                    plat.items.extend(build(b, sizes[deal[p] ^ round])?);
                }
            }
            Ok(plats)
        })
        .collect()
}

/// `platform label` of every nest of every round, in order.
pub fn input_labels(seed: u64, scale: Scale) -> Result<Vec<String>, String> {
    Ok(generate(seed, scale)?
        .iter()
        .flatten()
        .flat_map(|p| p.items.iter().map(move |i| format!("{} {}", p.name, i.label)))
        .collect())
}

fn expected_key(scale: Scale, plat: &str, label: &str) -> String {
    format!("{} {plat} {label}", scale.name())
}

pub fn load_expected() -> Result<HashMap<String, String>, String> {
    let text = std::fs::read_to_string(EXPECTED)
        .map_err(|e| format!("cannot read {EXPECTED}: {e}"))?;
    Ok(text
        .lines()
        .filter_map(|l| l.split_once(" :: ").map(|(k, v)| (k.to_string(), v.to_string())))
        .collect())
}

/// Regenerates the expected file: every size of every kernel on every
/// platform, at both scales.
pub fn bless() -> Result<usize, String> {
    let mut lines = Vec::new();
    for scale in [Scale::Full, Scale::Tiny] {
        for name in PLATFORMS {
            let session = Session::new(
                &drive::platform(name),
                drive::pipeline_config(true, CacheConfig::default()),
            )
            .map_err(|e| e.to_string())?;
            let mut items = Vec::new();
            for (b, sizes) in size_table(scale) {
                for size in sizes {
                    items.extend(build(b, size)?);
                }
            }
            let nests: Vec<LoopNest> = items.iter().map(|i| i.nest.clone()).collect();
            let report = session.batch().with_threads(WORKERS).run(&nests);
            for (item, got) in items.iter().zip(&report.items) {
                let out = got.outcome.as_ref().map_err(|e| format!("{}: {e}", item.label))?;
                lines.push(format!(
                    "{} :: {}",
                    expected_key(scale, name, &item.label),
                    outcome_line(out)
                ));
            }
        }
    }
    lines.sort();
    lines.dedup();
    std::fs::write(EXPECTED, lines.join("\n") + "\n").map_err(|e| e.to_string())?;
    Ok(lines.len())
}

struct Setup {
    rounds: Vec<Vec<Plat>>,
    golden: GoldenGate,
}

/// Input generation, the golden-decision gate and one untimed warm-up
/// simulation (the last kernel's smaller size on the first platform, the
/// same for every seed).
fn setup(cfg: &RunCfg, golden: &HashMap<String, String>) -> Result<Setup, String> {
    let rounds = generate(cfg.seed, cfg.scale)?;
    let golden = GoldenGate::run(golden)?;
    let first = &rounds[0][0];
    let (b, sizes) = size_table(cfg.scale)[11];
    let warm = build(b, sizes[0])?.remove(0);
    Session::new(&first.arch, drive::pipeline_config(true, CacheConfig::default()))
        .and_then(|s| s.run(&warm.nest))
        .map_err(|e| format!("warm-up {}: {e}", warm.label))?;
    Ok(Setup { rounds, golden })
}

/// What one cold pass measured.
struct Rep {
    wall_s: f64,
    item_ms: Vec<f64>,
    sim_s: f64,
    sim_lines: u64,
    est_ms: Vec<f64>,
}

/// One cold pass over all platforms. With a tracer, each platform's
/// batch is one item: a span around opening its session and one around
/// the `BatchDriver::run` call, and `layers` takes every run's report.
fn cold_rep(
    cfg: &RunCfg,
    plats: &[Plat],
    expected: &HashMap<String, String>,
    out: &mut Outcome,
    mut trace: Option<(&Tracer, &mut Layers)>,
) -> Result<Rep, String> {
    let tracer = trace.as_ref().map(|(t, _)| *t);
    let mut rep =
        Rep { wall_s: 0.0, item_ms: Vec::new(), sim_s: 0.0, sim_lines: 0, est_ms: Vec::new() };
    for plat in plats {
        let req = tracer.map_or(0, Tracer::request);
        let (report, wall) = maybe_span(tracer, "suite.platform", 0, req, |id| {
            let session = maybe_span(tracer, "core.session.open", id, req, |_| {
                Session::new(&plat.arch, drive::pipeline_config(true, CacheConfig::default()))
            })
            .map_err(|e| e.to_string())?;
            let nests: Vec<LoopNest> = plat.items.iter().map(|i| i.nest.clone()).collect();
            let t = Instant::now();
            let report = maybe_span(tracer, "core.batch", id, req, |_| {
                session.batch().with_threads(WORKERS).run(&nests)
            });
            Ok::<_, String>((report, secs(t)))
        })?;
        rep.wall_s += wall;
        if let Some((_, layers)) = trace.as_mut() {
            layers.batch_wall_s += wall * WORKERS as f64;
            layers.cache.absorb(&report.cache);
        }
        for (item, got) in plat.items.iter().zip(&report.items) {
            let key = expected_key(cfg.scale, plat.name, &item.label);
            match &got.outcome {
                Ok(o) => {
                    rep.item_ms.push(o.report.elapsed.as_secs_f64() * 1e3);
                    rep.sim_s += o
                        .report
                        .timings
                        .iter()
                        .filter(|t| t.pass == "simulate")
                        .map(|t| t.elapsed.as_secs_f64())
                        .sum::<f64>();
                    if let Some(e) = &o.report.estimate {
                        rep.sim_lines += e.stats.total_accesses;
                        rep.est_ms.push(e.ms);
                    }
                    if let Some((_, layers)) = trace.as_mut() {
                        layers.absorb_report(&o.report);
                    }
                    let line = outcome_line(o);
                    out.attempt(expected.get(&key) == Some(&line), || {
                        format!("{key}: got {line}, want {:?}", expected.get(&key))
                    });
                }
                Err(e) => out.attempt(false, || format!("{key}: {e}")),
            }
        }
    }
    Ok(rep)
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let expected = load_expected()?;
    let golden = drive::golden_rows()?;
    let mut setups = SetupTimes::default();
    for _ in 1..SETUPS_BEFORE {
        setups.time(|| setup(cfg, &golden))?;
    }
    let state = setups.time(|| setup(cfg, &golden))?;
    state.golden.record(&mut out);

    let budget = cfg.seconds * if cfg.trace { 0.3 } else { 1.0 };
    let t0 = Instant::now();
    let mut cycles: Vec<Vec<Rep>> = Vec::new();
    while cycles.is_empty()
        || (secs(t0) * (1.0 + 1.0 / cycles.len() as f64) < budget && cycles.len() < 20)
    {
        let mut cycle = Vec::new();
        for plats in &state.rounds {
            cycle.push(cold_rep(cfg, plats, &expected, &mut out, None)?);
        }
        cycles.push(cycle);
        setups.time(|| setup(cfg, &golden))?;
    }

    // Per cycle: wall per round (the mean over the cycle's rounds).
    let round_walls: Vec<f64> = cycles
        .iter()
        .map(|c| c.iter().map(|r| r.wall_s).sum::<f64>() / c.len() as f64)
        .collect();
    let nests_per_round = state.rounds[0].iter().map(|p| p.items.len()).sum::<usize>() as f64;
    let reps: Vec<&Rep> = cycles.iter().flatten().collect();
    let item_ms: Vec<f64> = reps.iter().flat_map(|r| r.item_ms.iter().copied()).collect();
    let mlines: Vec<f64> = cycles
        .iter()
        .map(|c| {
            let lines: u64 = c.iter().map(|r| r.sim_lines).sum();
            lines as f64 / c.iter().map(|r| r.sim_s).sum::<f64>() / 1e6
        })
        .collect();
    let est_ms: Vec<f64> = cycles[0].iter().flat_map(|r| r.est_ms.iter().copied()).collect();
    let suite_s = median(&round_walls);

    if !cfg.trace {
        out.metric("setup_s", setups.median(), "s");
        out.metric("peak_rss_mb", crate::util::peak_rss_mb(), "MB");
        out.metric("throughput_per_s", nests_per_round / suite_s, "1/s");
        out.metric("p50_ms", quantile(&item_ms, 0.5), "ms");
        out.metric("p90_ms", quantile(&item_ms, 0.9), "ms");
        out.note("suite_s", suite_s, "s");
        out.note("sim_mlines_per_s", median(&mlines), "Mlines/s");
        out.note("est_ms_geomean", geomean(&est_ms), "ms");
        out.note("cycles", cycles.len() as f64, "count");
        out.note("setups", setups.count() as f64, "count");

        out.note("latency_samples", item_ms.len() as f64, "count");
        return Ok(out);
    }

    // Traced pass: the same cold rounds through the same code, with spans.
    let tracer = Tracer::default();
    let mut layers = Layers::default();
    let t1 = Instant::now();
    let mut traced_walls = Vec::new();
    while traced_walls.is_empty()
        || (secs(t1) * (1.0 + 1.0 / traced_walls.len() as f64) < budget
            && traced_walls.len() < 20)
    {
        let mut wall = 0.0;
        for plats in &state.rounds {
            wall +=
                cold_rep(cfg, plats, &expected, &mut out, Some((&tracer, &mut layers)))?.wall_s;
        }
        traced_walls.push(wall / state.rounds.len() as f64);
    }
    layers.trace_overhead_share = median(&traced_walls) / suite_s - 1.0;
    crate::probe::run(cfg, &state.rounds[0], &mut layers, &mut out)?;
    crate::finish_trace(&tracer, cfg, "suite-cold", &mut out);
    layers.emit(&mut out);
    Ok(out)
}
