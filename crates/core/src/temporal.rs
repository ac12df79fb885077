//! Algorithm 2: the temporal-reuse optimizer (candidate-enumeration
//! driver).
//!
//! Step 1 jointly searches tile sizes and the two order-defining choices
//! the cost model depends on — the *outermost intra-tile* loop (L1 reuse,
//! working set of Eq. 1) and the *innermost inter-tile* loop (L2 reuse,
//! Eq. 10). *Scoring* is delegated to a [`CostModel`] (the paper's
//! [`crate::model::PrefetchAwareModel`] by default; see
//! [`crate::config::ModelKind`]): this module only enumerates the
//! candidate space, decodes linear indices into tiles, hands each tile's
//! whole `(x, u)` sweep to [`CostModel::evaluate_tile`], and ranks the
//! model's [`CostBreakdown`]s. Step 2 completes the full
//! inter/intra permutation by minimizing the loop-distance cost `Corder`
//! (Eq. 12).
//!
//! Step 1 runs on the [`crate::search`] engine: the per-`Tcol` candidate
//! lists are flattened into one linear index space, sharded across the
//! worker pool, pruned against the shared incumbent with the model's
//! admissible [`CostModel::lower_bound`], and memoized at one level: the
//! process-wide Algorithm-1 `emu()` bounds, consulted through
//! [`TileContext`]. Footprint terms are computed directly, in one
//! allocation-free pass per access ([`Footprints::terms`]). The engine's
//! total order makes the winner independent of worker count.

use crate::candidates::tile_candidates;
use crate::classify::Class;
use crate::config::OptimizerConfig;
use crate::decision::Decision;
use crate::footprint::Footprints;
use crate::model::{self, CostBreakdown, CostModel, TileContext};
use crate::order::{corder, inter_trip, permutations};
use crate::post;
use crate::search::{self, cost_bits, resolve_threads, Candidate, SearchCounters, SearchStats};
use palo_arch::Architecture;
use palo_ir::{LoopNest, NestInfo};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// One fully evaluated Step-1 candidate: a tile plus the order-defining
/// `(x, u)` pair, ranked by `(total, tie cost, linear index, x, u)`.
struct TempCand {
    bd: CostBreakdown,
    tile: Vec<usize>,
    /// Outermost intra-tile variable.
    x: usize,
    /// Innermost inter-tile variable.
    u: usize,
    /// `[linear candidate index, x, u]` — the lexicographic tail of the
    /// engine's total order.
    key: [usize; 3],
}

impl Candidate for TempCand {
    fn cost_key(&self) -> (u64, u64) {
        (cost_bits(self.bd.total), cost_bits(self.bd.tie))
    }
    fn tie_key(&self) -> &[usize] {
        &self.key
    }
}

/// One `Tcol` slice of the candidate space: the per-variable tile-size
/// lists and the slice's offset in the flattened linear index space.
struct Plan {
    lists: Vec<Vec<usize>>,
    offset: usize,
}

/// Step 1's tile space: the per-`Tcol` slices flattened into one linear
/// index space `0..total`.
struct Space {
    plans: Vec<Plan>,
    total: usize,
}

impl Space {
    /// Enumerates the per-variable candidate lists of every `Tcol` slice.
    fn new(ctx: &TileContext<'_>, config: &OptimizerConfig, lanes: usize) -> Self {
        let (n, col, extents) = (ctx.n, ctx.col, ctx.extents);
        let ld = extents[col]; // leading-dimension surrogate for Algorithm 1

        // Positional Algorithm-1 caps: the first non-column dimension is
        // bounded against the L1, the second against the L2, the rest by
        // the problem size ("for the first three dimensions ... and
        // problem size for loop nests with four or more levels").
        let others: Vec<usize> = (0..n).filter(|&v| v != col).collect();

        let col_cands =
            tile_candidates(extents[col], extents[col], config.max_candidates_per_dim, lanes);

        let mut plans: Vec<Plan> = Vec::with_capacity(col_cands.len());
        let mut total = 0usize;
        for &tcol in &col_cands {
            let cap1 = ctx.l1_cap(tcol, ld, usize::MAX >> 1);
            let cap2 = ctx.l2_cap(tcol, ld, usize::MAX >> 1);

            // Per-variable candidate lists, shrunk until the slice's
            // cross-product is tractable.
            let mut lists: Vec<Vec<usize>> = vec![Vec::new(); n];
            lists[col] = vec![tcol];
            let mut budget = config.max_candidates_per_dim;
            loop {
                for (pos, &v) in others.iter().enumerate() {
                    let cap = match pos {
                        0 => cap1,
                        1 => cap2,
                        _ => extents[v],
                    };
                    lists[v] = tile_candidates(extents[v], cap, budget, 1);
                }
                let combos: usize = lists.iter().map(|l| l.len().max(1)).product();
                if combos <= 300_000 || budget <= 3 {
                    break;
                }
                budget -= 1;
            }
            let combos: usize = lists.iter().map(|l| l.len().max(1)).product();
            plans.push(Plan { lists, offset: total });
            total += combos;
        }
        Space { plans, total }
    }

    /// Decodes linear index `i`: which `Tcol` slice, then the odometer
    /// position inside its cross-product (last variable fastest).
    fn tile(&self, i: usize) -> Vec<usize> {
        let p = self.plans.partition_point(|pl| pl.offset <= i) - 1;
        let lists = &self.plans[p].lists;
        let mut rem = i - self.plans[p].offset;
        let mut tile = vec![0usize; lists.len()];
        for v in (0..lists.len()).rev() {
            let len = lists[v].len();
            tile[v] = lists[v][rem % len];
            rem /= len;
        }
        tile
    }
}

/// Runs the temporal optimizer on a nest classified [`Class::Temporal`].
pub fn optimize(
    nest: &LoopNest,
    info: &NestInfo,
    arch: &Architecture,
    config: &OptimizerConfig,
) -> Decision {
    optimize_with_stats(nest, info, arch, config).0
}

/// [`optimize`], also reporting what the candidate search did.
///
/// Resolves `config.model` into a [`CostModel`] plus the effective
/// `(arch, config)` pair exactly once, then drives
/// [`optimize_with_model`].
pub fn optimize_with_stats(
    nest: &LoopNest,
    info: &NestInfo,
    arch: &Architecture,
    config: &OptimizerConfig,
) -> (Decision, SearchStats) {
    let resolved = model::resolve(config, arch);
    optimize_with_model(nest, info, &resolved.arch, &resolved.config, resolved.model.as_ref())
}

/// The Step-1/Step-2 driver under an explicit [`CostModel`] and an
/// already-*effective* `(arch, config)` pair — callers that resolve a
/// [`crate::config::ModelKind`] themselves (the baselines) enter here.
pub fn optimize_with_model(
    nest: &LoopNest,
    info: &NestInfo,
    arch: &Architecture,
    config: &OptimizerConfig,
    cost_model: &dyn CostModel,
) -> (Decision, SearchStats) {
    let start = Instant::now();
    let Some(col) = nest.column_var().map(|v| v.index()) else {
        return (post::passthrough(nest, info, arch, config), SearchStats::default());
    };
    let extents = nest.extents();
    let n = extents.len();
    if n < 2 {
        return (post::passthrough(nest, info, arch, config), SearchStats::default());
    }
    let dts = nest.dtype().size_bytes();
    let fp = Footprints::new(nest, arch.l1().line_size);
    let lanes = arch.vector_lanes(dts);
    let use_nti = post::nti_eligible(info, arch, config);

    let counters = SearchCounters::default();
    let ctx = TileContext::temporal(nest, &fp, &extents, arch, config, col, use_nti, &counters);
    let space = Space::new(&ctx, config, lanes);

    let workers = resolve_threads(config.search.threads);
    let best = search::search_min(workers, space.total, |i, incumbent| {
        let tile = space.tile(i);

        // Branch and bound against the model's admissible bound; `None`
        // means the tile itself is infeasible. Strict comparison inside
        // `prunes` keeps cost-tied candidates alive for the
        // deterministic tie-break.
        let lb = cost_model.lower_bound(&ctx, &tile)?;
        if config.search.prune && incumbent.prunes(lb) {
            counters.pruned.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        counters.evaluated.fetch_add(1, Ordering::Relaxed);

        // The full `(x, u)` sweep of this tile, scored once by the model;
        // the tile moves into the winning point only.
        let mut best: Option<TempCand> = None;
        cost_model.evaluate_tile(&ctx, &tile, &mut |x, u, bd| {
            let key = [i, x, u];
            let rank = ((cost_bits(bd.total), cost_bits(bd.tie)), &key[..]);
            if best.as_ref().is_none_or(|b| rank < (b.cost_key(), b.tie_key())) {
                best = Some(TempCand { bd: bd.clone(), tile: Vec::new(), x, u, key });
            }
        });
        best.map(|b| TempCand { tile, ..b })
    });
    let stats = counters.snapshot(workers, start.elapsed());

    let Some(best) = best else {
        return (post::passthrough(nest, info, arch, config), stats);
    };

    // Step 2 never changes the ranked cost; record the winning
    // permutation's distance cost for observability.
    let (inter_order, intra_order, corder) = choose_orders(&best, col, &extents, config);
    let bd = CostBreakdown { corder, ..best.bd };
    let decision = post::emit(
        nest,
        arch,
        Class::Temporal,
        best.tile,
        inter_order,
        intra_order,
        use_nti,
        bd,
    );
    (decision, stats)
}

/// Step 2: complete the permutation, minimizing `Corder` (Eq. 12) subject
/// to: `x` outermost intra-tile, the column loop innermost intra-tile,
/// `u` innermost inter-tile, and the column loop not outermost. Returns the
/// inter order, the intra order and their `Corder`.
fn choose_orders(
    best: &TempCand,
    col: usize,
    extents: &[usize],
    config: &OptimizerConfig,
) -> (Vec<usize>, Vec<usize>, f64) {
    let n = extents.len();
    let default_intra: Vec<usize> = std::iter::once(best.x)
        .chain((0..n).filter(|&v| v != best.x && v != col))
        .chain(std::iter::once(col))
        .collect();
    // Default inter order: non-(u, col) vars in program order, then the
    // column loop (never outermost when another var exists), then `u`
    // innermost.
    let mut default_inter: Vec<usize> = (0..n).filter(|&v| v != best.u && v != col).collect();
    if col != best.u {
        default_inter.push(col);
    }
    default_inter.push(best.u);
    let defaults = move || {
        let c = corder(&default_inter, &default_intra, &best.tile, extents);
        (default_inter, default_intra, c)
    };

    if !config.reorder_step {
        return defaults();
    }

    // Enumerate intra middles and inter prefixes.
    let intra_middle: Vec<usize> = (0..n).filter(|&v| v != best.x && v != col).collect();
    let inter_free: Vec<usize> = (0..n).filter(|&v| v != best.u).collect();

    let intra_perms = permutations(&intra_middle);
    let inter_perms = permutations(&inter_free);
    if intra_perms.len().saturating_mul(inter_perms.len()) > 2_000_000 {
        return defaults();
    }

    // Step 2's tables: every variable's inter-tile trip count and tile
    // size, the factors `corder` multiplies. The sweep below forms exactly
    // `corder`'s products, in its order, without its per-permutation
    // allocation and position scans: a variable's distance is the running
    // product over the inter loops after its own (`head`, once per inter
    // permutation), continued over the intra loops before its own.
    let trips: Vec<f64> = (0..n).map(|v| inter_trip(v, &best.tile, extents)).collect();
    let sizes: Vec<f64> = best.tile.iter().map(|&t| t as f64).collect();
    let mut inter = vec![best.u; n];
    let mut intra = vec![col; n];
    intra[0] = best.x;
    let mut head = vec![0.0f64; n];
    let mut intra_pos = vec![0usize; n];

    let mut best_order: Option<(f64, Vec<usize>, Vec<usize>)> = None;
    for ip in &inter_perms {
        // Column loop must not be outermost among the *tiled* inter loops.
        if let Some(&first_tiled) =
            ip.iter().chain(std::iter::once(&best.u)).find(|&&v| best.tile[v] < extents[v])
        {
            if first_tiled == col {
                continue;
            }
        }
        inter[..n - 1].copy_from_slice(ip);
        for (a, &v) in inter.iter().enumerate() {
            let mut dist = 1.0;
            for &w in &inter[a + 1..] {
                dist *= trips[w];
            }
            head[v] = dist;
        }
        for mp in &intra_perms {
            intra[1..n - 1].copy_from_slice(mp);
            for (b, &v) in intra.iter().enumerate() {
                intra_pos[v] = b;
            }
            let mut c = 0.0;
            for v in 0..n {
                let mut dist = head[v];
                for &w in &intra[..intra_pos[v]] {
                    dist *= sizes[w];
                }
                c += dist;
            }
            if best_order.as_ref().is_none_or(|(bc, _, _)| c < *bc) {
                best_order = Some((c, inter.clone(), intra.clone()));
            }
        }
    }
    match best_order {
        Some((c, inter, intra)) => (inter, intra, c),
        None => defaults(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchOptions;
    use crate::model::CandidatePoint;
    use palo_arch::presets;
    use palo_ir::{DType, NestBuilder, NestInfo};

    fn matmul(nm: usize) -> LoopNest {
        let mut b = NestBuilder::new("matmul", DType::F32);
        let i = b.var("i", nm);
        let j = b.var("j", nm);
        let k = b.var("k", nm);
        let a = b.array("A", &[nm, nm]);
        let bm = b.array("B", &[nm, nm]);
        let c = b.array("C", &[nm, nm]);
        b.accumulate(c, &[i, j], b.load(a, &[i, k]) * b.load(bm, &[k, j]));
        b.build().unwrap()
    }

    fn optimize_matmul(nm: usize, arch: &Architecture) -> Decision {
        let nest = matmul(nm);
        let info = NestInfo::analyze(&nest);
        optimize(&nest, &info, arch, &OptimizerConfig::default())
    }

    #[test]
    fn matmul_gets_tiled_and_parallel() {
        let arch = presets::intel_i7_5930k();
        let d = optimize_matmul(512, &arch);
        assert_eq!(d.class, Class::Temporal);
        assert!(d.tile.iter().any(|&t| t > 1 && t < 512), "tile {:?}", d.tile);
        assert!(d.parallel_var.is_some());
        assert_eq!(d.vector_lanes, 8);
        assert!(!d.use_nti, "accumulating output must not use NT stores");
        // Column loop (j = var 1) innermost intra.
        assert_eq!(*d.intra_order.last().unwrap(), 1);
        // schedule lowers cleanly
        let nest = matmul(512);
        d.schedule().lower(&nest).unwrap();
    }

    #[test]
    fn working_sets_fit_budgets() {
        let arch = presets::intel_i7_6700();
        let nest = matmul(512);
        let info = NestInfo::analyze(&nest);
        let d = optimize(&nest, &info, &arch, &OptimizerConfig::default());
        let fp = Footprints::new(&nest, 64);
        let ws_l2: f64 = (0..fp.shapes().len()).map(|a| fp.elems(a, &d.tile)).sum();
        // halved, hyper-thread-shared L2 budget in f32 elements
        let budget = (256 * 1024 / 4 / 2 / 2) as f64;
        assert!(ws_l2 <= budget, "ws {ws_l2} > {budget}");
    }

    #[test]
    fn parallel_grain_respected() {
        let arch = presets::intel_i7_5930k(); // 12 threads
        let d = optimize_matmul(512, &arch);
        let outer: f64 = d
            .inter_order
            .iter()
            .filter(|&&v| v != *d.inter_order.last().unwrap() && v != 1)
            .map(|&v| (512f64 / d.tile[v] as f64).ceil())
            .product();
        assert!(outer >= 1.0);
        // The emitted schedule lowers and has a parallel loop.
        let nest = matmul(512);
        let low = d.schedule().lower(&nest).unwrap();
        assert!(low.parallel_loop().is_some());
    }

    #[test]
    fn arm_differs_from_intel() {
        let d_intel = optimize_matmul(512, &presets::intel_i7_5930k());
        let d_arm = optimize_matmul(512, &presets::arm_cortex_a15());
        // Different hierarchies must be allowed to pick different tiles;
        // at minimum both must be valid and the ARM one must not vectorize
        // by 8 f32 (NEON = 4).
        assert_eq!(d_arm.vector_lanes, 4);
        assert!(d_intel.vector_lanes == 8);
    }

    #[test]
    fn reorder_step_changes_or_keeps_cost_monotone() {
        let nest = matmul(256);
        let info = NestInfo::analyze(&nest);
        let arch = presets::intel_i7_6700();
        let with = optimize(&nest, &info, &arch, &OptimizerConfig::default());
        let without = optimize(
            &nest,
            &info,
            &arch,
            &OptimizerConfig { reorder_step: false, ..OptimizerConfig::default() },
        );
        // Step 2 does not change the model cost (it breaks ties).
        assert_eq!(with.predicted_cost, without.predicted_cost);
        assert_eq!(with.tile, without.tile);
    }

    #[test]
    fn breakdown_terms_recompose_the_total() {
        let nest = matmul(256);
        let info = NestInfo::analyze(&nest);
        let arch = presets::intel_i7_5930k();
        let d = optimize(&nest, &info, &arch, &OptimizerConfig::default());
        let bd = &d.breakdown;
        let a2 = arch.l2().latency_cycles;
        let a3 = arch.l3().map(|c| c.latency_cycles).unwrap();
        let am = arch.timing.mem_transfer_cycles;
        let recomposed = a2 * bd.cl1 + a3 * bd.cl2 + am * bd.cl2_lines;
        assert_eq!(recomposed.to_bits(), bd.total.to_bits());
        assert_eq!(d.predicted_cost.to_bits(), bd.total.to_bits());
        assert!(bd.corder > 0.0, "winning permutation has a distance cost");
        assert!(bd.pref_efficiency > 0.0);
    }

    #[test]
    fn single_loop_nest_passes_through() {
        let mut b = NestBuilder::new("dot", DType::F32);
        let i = b.var("i", 64);
        let a = b.array("A", &[64]);
        let c = b.array("C", &[1]);
        let ld = b.load(a, &[i]);
        b.store_expr(c, vec![palo_ir::AffineIndex::constant(0)], ld);
        let nest = b.build().unwrap();
        let info = NestInfo::analyze(&nest);
        let d = optimize(&nest, &info, &presets::intel_i7_6700(), &OptimizerConfig::default());
        // Degenerate nest: no tiling emitted, still a valid schedule.
        d.schedule().lower(&nest).unwrap();
    }

    #[test]
    fn search_stats_report_work_and_pruning() {
        let nest = matmul(512);
        let info = NestInfo::analyze(&nest);
        let arch = presets::intel_i7_5930k();
        let config = OptimizerConfig::default();
        // The emu() memo is process-wide and a single search asks each
        // bound once: a first search warms it, so a repeat must hit it.
        optimize_with_stats(&nest, &info, &arch, &config);
        let (d, stats) = optimize_with_stats(&nest, &info, &arch, &config);
        assert_eq!(d.class, Class::Temporal);
        assert!(stats.workers >= 1);
        assert!(stats.candidates_evaluated > 0, "{stats:?}");
        assert!(stats.candidates_pruned > 0, "{stats:?}");
        assert!(stats.emu_memo_hits > 0, "{stats:?}");
    }

    #[test]
    fn exhaustive_and_engine_search_agree() {
        // Pruning + memoization + parallelism must not change the answer.
        let nest = matmul(256);
        let info = NestInfo::analyze(&nest);
        let arch = presets::intel_i7_6700();
        let exhaustive = OptimizerConfig {
            search: SearchOptions::exhaustive(),
            ..OptimizerConfig::default()
        };
        let engine = OptimizerConfig {
            search: SearchOptions { threads: Some(3), prune: true, memo: true },
            ..OptimizerConfig::default()
        };
        let (de, _) = optimize_with_stats(&nest, &info, &arch, &exhaustive);
        let (dg, _) = optimize_with_stats(&nest, &info, &arch, &engine);
        assert_eq!(de, dg);
        assert_eq!(de.predicted_cost.to_bits(), dg.predicted_cost.to_bits());
    }

    /// The paper's temporal suite at its scaled sizes (3mm's three stages
    /// included).
    fn temporal_suite() -> Vec<(String, LoopNest)> {
        let mut nests = Vec::new();
        for b in palo_suite::Benchmark::all().into_iter().filter(|b| b.is_temporal()) {
            for (stage, nest) in b.build_scaled().unwrap().into_iter().enumerate() {
                nests.push((format!("{}[{stage}]", b.name()), nest));
            }
        }
        nests
    }

    /// The temporal model's point score exactly as the optimizer computed
    /// it before the per-tile hoist, term by term: the oracle the hoisted
    /// sweep must reproduce bit for bit.
    fn pre_hoist_point(
        ctx: &TileContext<'_>,
        tile: &[usize],
        x: usize,
        u: usize,
    ) -> Option<CostBreakdown> {
        if x == ctx.col || tile[x] <= 1 {
            return None;
        }
        let mut ws_l2 = 0.0;
        let mut rows_tile = vec![0.0f64; ctx.na];
        let mut lines_tile = vec![0.0f64; ctx.na];
        for a in 0..ctx.na {
            let (elems, rows, lines) = ctx.terms(a, tile);
            ws_l2 += elems;
            rows_tile[a] = rows;
            lines_tile[a] = lines;
        }
        if ws_l2 > ctx.l2_budget {
            return None;
        }
        let trips: Vec<f64> = (0..ctx.n).map(|v| inter_trip(v, tile, ctx.extents)).collect();
        let ntiles: f64 = trips.iter().product();
        let cl1: f64 = rows_tile.iter().sum::<f64>() * ntiles;
        let cl1_lines: f64 = lines_tile.iter().sum::<f64>() * ntiles;
        let mut slice = tile.to_vec();
        slice[x] = 1;
        let ws_l1: f64 = (0..ctx.na).map(|a| ctx.terms(a, &slice).0).sum();
        if ws_l1 > ctx.l1_budget {
            return None;
        }
        if ctx.config.parallel_grain_constraint {
            let outer_cap: f64 =
                (0..ctx.n).filter(|&v| v != u && v != ctx.col).map(|v| trips[v]).product();
            if outer_cap < ctx.threads as f64 {
                return None;
            }
        }
        let mut cl2 = 0.0;
        let mut cl2_lines = 0.0;
        for a in 0..ctx.na {
            let reuse = if ctx.fp.uses_var(a, u) { 1.0 } else { trips[u] };
            cl2 += rows_tile[a] * ntiles / reuse;
            cl2_lines += lines_tile[a] * ntiles / reuse;
        }
        Some(CostBreakdown {
            cl1,
            cl2,
            cl2_lines,
            corder: 0.0,
            pref_efficiency: tile[ctx.col] as f64 / ctx.fp.lc() as f64,
            total: ctx.a2 * cl1 + ctx.a3 * cl2 + ctx.am * cl2_lines,
            tie: ctx.a2 * cl1_lines + ctx.a3 * cl2_lines,
        })
    }

    fn breakdown_bits(bd: &CostBreakdown) -> [u64; 7] {
        [bd.cl1, bd.cl2, bd.cl2_lines, bd.corder, bd.pref_efficiency, bd.total, bd.tie]
            .map(f64::to_bits)
    }

    #[test]
    fn evaluate_tile_is_the_point_sweep_bit_for_bit() {
        use crate::config::ModelKind;
        let platforms = [
            presets::intel_i7_6700(),
            presets::intel_i7_5930k(),
            presets::arm_cortex_a15(),
            presets::amd_zen2(),
            presets::arm_neoverse_n1(),
            presets::intel_i7_6700_no_prefetch(),
        ];
        // Tiles rejected by Eq. 6, structurally valid `x`s rejected by
        // Eq. 1, and `u`s rejected by Eq. 13 must all be exercised.
        let (mut eq6, mut eq1, mut eq13, mut points) = (0usize, 0usize, 0usize, 0usize);
        for (name, nest) in temporal_suite() {
            let col = nest.column_var().unwrap().index();
            let extents = nest.extents();
            let n = extents.len();
            for base in &platforms {
                for kind in [ModelKind::Paper, ModelKind::Tss, ModelKind::Tts] {
                    let r = model::resolve(
                        &OptimizerConfig { model: kind, ..OptimizerConfig::default() },
                        base,
                    );
                    let (arch, config, m) = (&r.arch, &r.config, r.model.as_ref());
                    let fp = Footprints::new(&nest, arch.l1().line_size);
                    let counters = SearchCounters::default();
                    let ctx = TileContext::temporal(
                        &nest, &fp, &extents, arch, config, col, false, &counters,
                    );
                    let lanes = arch.vector_lanes(nest.dtype().size_bytes());
                    let space = Space::new(&ctx, config, lanes);
                    let step = (space.total / 24).max(1);
                    for i in (0..space.total).step_by(step).chain([space.total - 1]) {
                        let tile = space.tile(i);
                        let at = format!("{name} {} {kind:?} tile {tile:?}", base.name);
                        let mut expected = Vec::new();
                        for x in 0..n {
                            for u in 0..n {
                                let point =
                                    CandidatePoint { tile: &tile, x: Some(x), u: Some(u) };
                                let bd = m.evaluate(&ctx, &point);
                                let reference = pre_hoist_point(&ctx, &tile, x, u);
                                assert_eq!(
                                    bd.as_ref().map(breakdown_bits),
                                    reference.as_ref().map(breakdown_bits),
                                    "{at} x={x} u={u}: evaluate drifted from the pre-hoist score"
                                );
                                if let Some(bd) = bd {
                                    expected.push((x, u, breakdown_bits(&bd)));
                                }
                            }
                        }
                        let mut visited = Vec::new();
                        m.evaluate_tile(&ctx, &tile, &mut |x, u, bd| {
                            visited.push((x, u, breakdown_bits(bd)));
                        });
                        assert_eq!(visited, expected, "{at}: evaluate_tile != evaluate");
                        points += visited.len();

                        if m.lower_bound(&ctx, &tile).is_none() {
                            eq6 += 1;
                            continue;
                        }
                        let live =
                            |x: usize, u: usize| expected.iter().any(|e| (e.0, e.1) == (x, u));
                        let live_x = |x: usize| (0..n).any(|u| live(x, u));
                        let live_u = |u: usize| (0..n).any(|x| live(x, u));
                        if (0..n).any(live_u) {
                            eq1 += (0..n)
                                .filter(|&x| x != col && tile[x] > 1 && !live_x(x))
                                .count();
                        }
                        if (0..n).any(live_x) {
                            eq13 += (0..n).filter(|&u| !live_u(u)).count();
                        }
                    }
                }
            }
        }
        assert!(points > 0 && eq6 > 0 && eq1 > 0 && eq13 > 0, "{points} {eq6} {eq1} {eq13}");
    }

    /// The first `Corder` minimum over every Step-2 permutation, straight
    /// from [`corder`].
    fn reference_orders(
        tile: &[usize],
        x: usize,
        u: usize,
        col: usize,
        extents: &[usize],
    ) -> Option<(Vec<usize>, Vec<usize>)> {
        let n = extents.len();
        let inter_free: Vec<usize> = (0..n).filter(|&v| v != u).collect();
        let middle: Vec<usize> = (0..n).filter(|&v| v != x && v != col).collect();
        let mut best: Option<(f64, Vec<usize>, Vec<usize>)> = None;
        for ip in permutations(&inter_free) {
            let inter: Vec<usize> = ip.into_iter().chain([u]).collect();
            if inter.iter().find(|&&v| tile[v] < extents[v]) == Some(&col) {
                continue;
            }
            for mp in permutations(&middle) {
                let intra: Vec<usize> = std::iter::once(x).chain(mp).chain([col]).collect();
                let c = corder(&inter, &intra, tile, extents);
                if best.as_ref().is_none_or(|(bc, _, _)| c < *bc) {
                    best = Some((c, inter.clone(), intra));
                }
            }
        }
        best.map(|(_, inter, intra)| (inter, intra))
    }

    #[test]
    fn step2_tables_match_the_corder_reference() {
        let arch = presets::intel_i7_6700();
        let config = OptimizerConfig::default();
        for b in [palo_suite::Benchmark::Convlayer, palo_suite::Benchmark::Doitgen] {
            let nest = b.build_scaled().unwrap().remove(0);
            let info = NestInfo::analyze(&nest);
            let extents = nest.extents();
            let n = extents.len();
            let col = nest.column_var().unwrap().index();

            // The optimizer's own winner, and its recorded Corder bits.
            let d = optimize(&nest, &info, &arch, &config);
            let (x, u) = (d.intra_order[0], *d.inter_order.last().unwrap());
            assert_eq!(
                reference_orders(&d.tile, x, u, col, &extents),
                Some((d.inter_order.clone(), d.intra_order.clone())),
                "{}: winner's orders",
                b.name()
            );
            assert_eq!(
                d.breakdown.corder.to_bits(),
                corder(&d.inter_order, &d.intra_order, &d.tile, &extents).to_bits(),
                "{}: recorded corder",
                b.name()
            );

            // Other tiles and `(x, u)` choices of the same nest.
            let tiles = [d.tile.clone(), extents.iter().map(|&e| e.div_ceil(2)).collect()];
            for tile in tiles {
                for (x, u) in [(x, u), ((col + 1) % n, col), ((col + 2) % n, (col + 1) % n)] {
                    if x == col || tile[x] <= 1 {
                        continue;
                    }
                    let cand = TempCand {
                        bd: CostBreakdown::default(),
                        tile: tile.clone(),
                        x,
                        u,
                        key: [0, x, u],
                    };
                    let (inter, intra, c) = choose_orders(&cand, col, &extents, &config);
                    let at = format!("{} tile {tile:?} x={x} u={u}", b.name());
                    if let Some(want) = reference_orders(&tile, x, u, col, &extents) {
                        assert_eq!((inter.clone(), intra.clone()), want, "{at}");
                    }
                    let want = corder(&inter, &intra, &tile, &extents);
                    assert_eq!(c.to_bits(), want.to_bits(), "{at}: table Corder");
                }
            }
        }
    }
}
