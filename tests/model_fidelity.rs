//! Model fidelity: how well does each *analytical* cost model rank
//! candidates compared to the simulator's measured time?
//!
//! For each scenario — kernel × platform preset, where the platforms
//! cover the prefetcher zoo (the paper's i7-5930k next-line + stride
//! units, an AMD-styled L2 stream unit, an ARM-styled confident-stride
//! unit behind an adjacent-pair L1, and a prefetch-less control) — this
//! enumerates a fixed grid of candidate points (tile + the
//! driver-default `(x, u)` orders), scores every point with the three
//! analytical models — the paper's prefetch-aware model, TSS and TTS,
//! each under its own *effective* `(config, arch)` pair — and with the
//! [`SimulatedModel`] oracle (estimated milliseconds on the cache
//! simulator). Per model it computes the Spearman rank correlation ρ
//! between predicted cost and simulated time (average ranks under ties;
//! model-infeasible points count as tied-worst).
//!
//! Measured ρ (12-point temporal grid at n=160, 9-point spatial grid
//! for tp at n=768), as paper / TSS / TTS:
//!
//! | kernel | 5930k | zen2 | n1 | nopf |
//! |---|---|---|---|---|
//! | matmul | .870 / .840 / .840 | .870 / .832 / .832 | .289 / .211 / .141 | .370 / .370 / .085 |
//! | gemm | .870 / .840 / .840 | .870 / .832 / .832 | .155 / .077 / .007 | .370 / .370 / .014 |
//! | syrk | .265 / .265 / .265 | .265 / .265 / .265 | −.077 / −.077 / −.077 | .203 / .203 / −.211 |
//! | tp | .048 / −.388 / −.388 | .636 / .869 / .869 | .547 / .684 / .684 | .854 / .854 / .854 |
//!
//! The gates: every kernel builds and has a transformable stage, the
//! simulator scores at least one point of every grid, some analytical
//! model ranks positively somewhere, and — the measured shape — the
//! paper model ranks positively on matmul and gemm on every preset.
//! syrk@n1 is negative for all three models and is not asserted.
//!
//! Simulating every grid point takes ~11 s in release, so the test is
//! ignored by default: `cargo test --release --test model_fidelity --
//! --ignored`.

use palo::arch::{presets, Architecture};
use palo::core::{
    classify, post, CandidatePoint, Class, CostModel, Footprints, ModelKind, OptimizerConfig,
    PrefetchAwareModel, SearchCounters, SimulatedModel, TileContext,
};
use palo::ir::{LoopNest, NestInfo};
use palo::suite::Benchmark;

/// One candidate point of the shared grid: every model and the oracle
/// score exactly this `(tile, x, u)` triple.
struct Point {
    tile: Vec<usize>,
    x: Option<usize>,
    u: Option<usize>,
}

/// One scored stage: the class, its column and row loops, and the grid.
struct Scenario<'a> {
    nest: &'a LoopNest,
    info: NestInfo,
    class: Class,
    col: usize,
    row: usize,
    points: Vec<Point>,
}

/// The paper's reference machine plus the prefetcher-zoo presets, so
/// every strategy family gets ranked against the simulator.
fn platforms() -> [(&'static str, Architecture); 4] {
    [
        ("5930k", presets::intel_i7_5930k()),
        ("zen2", presets::amd_zen2()),
        ("n1", presets::arm_neoverse_n1()),
        ("nopf", presets::intel_i7_6700_no_prefetch()),
    ]
}

/// The simulator traces the full kernel once per point, so sizes stay
/// small: seconds per kernel, not minutes.
fn size(b: Benchmark) -> usize {
    match b {
        Benchmark::Tp => 768,
        _ => 160,
    }
}

/// The candidate grid. Temporal: a coarse sweep of column-tile ×
/// other-dims tile sizes under the driver-default `(x, u)` (x = first
/// non-column variable, u = the column loop). Spatial: a width × height
/// sweep with the remaining dims untiled. Tiles are clipped to the
/// extents and deduplicated.
fn candidate_points(class: Class, extents: &[usize], col: usize, row: usize) -> Vec<Point> {
    let mut points: Vec<Point> = Vec::new();
    let mut push = |tile: Vec<usize>, x: Option<usize>, u: Option<usize>| {
        if !points.iter().any(|p| p.tile == tile) {
            points.push(Point { tile, x, u });
        }
    };
    match class {
        Class::Temporal => {
            let x = (0..extents.len()).find(|&v| v != col);
            for tc in [8usize, 32, usize::MAX] {
                for t in [4usize, 16, 64, usize::MAX] {
                    let mut tile: Vec<usize> = extents.iter().map(|&e| t.min(e)).collect();
                    tile[col] = tc.min(extents[col]);
                    push(tile, x, Some(col));
                }
            }
        }
        _ => {
            for tw in [8usize, 32, 128] {
                for th in [8usize, 32, 128] {
                    let mut tile = extents.to_vec();
                    tile[col] = tw.min(extents[col]);
                    tile[row] = th.min(extents[row]);
                    push(tile, None, None);
                }
            }
        }
    }
    points
}

/// The first transformable stage of a multi-stage benchmark, with its grid.
fn scenario(nests: &[LoopNest]) -> Option<Scenario<'_>> {
    nests.iter().find_map(|nest| {
        let info = NestInfo::analyze(nest);
        let class = classify(&info);
        if class == Class::ContiguousOnly {
            return None;
        }
        let col = nest.column_var()?.index();
        let out_order = nest.statement().output.var_order();
        let row = out_order.iter().rev().map(|v| v.index()).find(|&v| v != col)?;
        let points = candidate_points(class, &nest.extents(), col, row);
        Some(Scenario { nest, info, class, col, row, points })
    })
}

/// Scores every point with `model` under `kind`'s effective `(config,
/// arch)` pair; a point the model rejects (budget/validity) scores `+inf`.
fn score_points(
    s: &Scenario,
    base_arch: &Architecture,
    kind: ModelKind,
    model: &dyn CostModel,
) -> Vec<f64> {
    let config = kind.effective_config(&OptimizerConfig::default());
    let arch = kind.effective_arch(base_arch);
    let extents = s.nest.extents();
    let fp = Footprints::new(s.nest, arch.l1().line_size);
    let use_nti = post::nti_eligible(&s.info, &arch, &config);
    let counters = SearchCounters::default();
    let ctx = match s.class {
        Class::Temporal => TileContext::temporal(
            s.nest, &fp, &extents, &arch, &config, s.col, use_nti, &counters,
        ),
        _ => TileContext::spatial(
            s.nest, &fp, &extents, &arch, &config, s.col, s.row, use_nti, &counters,
        ),
    };
    s.points
        .iter()
        .map(|p| {
            let point = CandidatePoint { tile: &p.tile, x: p.x, u: p.u };
            model.evaluate(&ctx, &point).map(|bd| bd.total).unwrap_or(f64::INFINITY)
        })
        .collect()
}

/// Average ranks (1-based, ties share the mean rank); `+inf` entries tie
/// at the bottom.
fn average_ranks(scores: &[f64]) -> Vec<f64> {
    let n = scores.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| {
        scores[a].partial_cmp(&scores[b]).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && scores[idx[j + 1]] == scores[idx[i]] {
            j += 1;
        }
        let mean = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = mean;
        }
        i = j + 1;
    }
    ranks
}

/// Spearman's rho as the Pearson correlation of the average ranks
/// (exact under ties). `None` when either ranking is constant.
fn spearman(a: &[f64], b: &[f64]) -> Option<f64> {
    let (ra, rb) = (average_ranks(a), average_ranks(b));
    let n = ra.len() as f64;
    let (ma, mb) = (ra.iter().sum::<f64>() / n, rb.iter().sum::<f64>() / n);
    let (mut cov, mut va, mut vb) = (0.0, 0.0, 0.0);
    for (x, y) in ra.iter().zip(&rb) {
        cov += (x - ma) * (y - mb);
        va += (x - ma).powi(2);
        vb += (y - mb).powi(2);
    }
    (va != 0.0 && vb != 0.0).then(|| cov / (va * vb).sqrt())
}

#[test]
#[ignore = "simulates every grid point (~11 s in release); run with --ignored (CI release step)"]
fn analytical_models_rank_candidates_like_the_simulator() {
    let kernels = [Benchmark::Matmul, Benchmark::Gemm, Benchmark::Syrk, Benchmark::Tp];
    // (kernel, platform, model, rho)
    let mut rhos: Vec<(&str, &str, &str, Option<f64>)> = Vec::new();
    for (pname, arch) in &platforms() {
        for b in kernels {
            let nests = b.build(size(b)).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            let s = scenario(&nests)
                .unwrap_or_else(|| panic!("{}: no transformable stage", b.name()));
            // The oracle: simulated milliseconds under the real arch and
            // the paper-default config (budgets are irrelevant for
            // explicit points; only the canonical schedule matters).
            let truth = score_points(&s, arch, ModelKind::Paper, &SimulatedModel::default());
            assert!(
                truth.iter().any(|t| t.is_finite()),
                "{} @ {pname}: simulator scored no candidate point",
                b.name()
            );
            let analytical: [(&str, ModelKind, &dyn CostModel); 3] = [
                ("paper", ModelKind::Paper, &PrefetchAwareModel::paper()),
                ("tss", ModelKind::Tss, &PrefetchAwareModel::named("tss")),
                ("tts", ModelKind::Tts, &PrefetchAwareModel::named("tts")),
            ];
            for (mname, kind, model) in analytical {
                let rho = spearman(&score_points(&s, arch, kind, model), &truth);
                println!(
                    "{:<6} @ {pname:<5} {:>2} points: {mname:<5} spearman {}",
                    b.name(),
                    s.points.len(),
                    rho.map_or("n/a".into(), |v| format!("{v:+.3}")),
                );
                rhos.push((b.name(), pname, mname, rho));
            }
        }
    }

    let positive = |rho: Option<f64>| rho.is_some_and(|v| v > 0.0);
    assert!(
        rhos.iter().any(|&(.., rho)| positive(rho)),
        "no analytical model achieved a positive rank correlation"
    );
    for &(kernel, pname, model, rho) in &rhos {
        if model == "paper" && matches!(kernel, "matmul" | "gemm") {
            assert!(positive(rho), "paper model on {kernel} @ {pname}: rho {rho:?} not > 0");
        }
    }
}
