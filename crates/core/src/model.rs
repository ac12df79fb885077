//! The pluggable cost-model layer.
//!
//! The paper's contribution is a *cost model* — prefetch-discounted cold
//! misses `Ctotal = a2·CL1 + a3·CL2` (Eqs. 1–11), the loop-distance cost
//! `Corder` (Eq. 12) and the prefetching efficiency `Twidth/lc`
//! (Eqs. 14–19). This module makes that model a first-class, swappable
//! component instead of arithmetic inlined in the optimizers:
//!
//! * [`CostModel`] — the trait every model implements: score one
//!   [`CandidatePoint`] under a [`TileContext`] into a per-term
//!   [`CostBreakdown`] (or a whole temporal tile's `(x, u)` sweep, via
//!   [`CostModel::evaluate_tile`]), plus an *admissible*
//!   [`CostModel::lower_bound`] hook so the search engine's
//!   branch-and-bound pruning stays sound per-model;
//! * [`PrefetchAwareModel`] — the paper's analytical model, hoisted
//!   bit-for-bit out of [`crate::temporal`] / [`crate::spatial`] (which
//!   are now thin candidate-enumeration drivers);
//! * [`SimulatedModel`] — a measurement-grade oracle: candidates are
//!   lowered onto a canonical schedule and *traced* on the
//!   `palo-cachesim` hierarchy, scoring by estimated milliseconds;
//! * [`ModelKind`] + [`resolve`] — config-level model selection: the TSS
//!   and TTS baselines are the same analytical machinery under an
//!   *effective* configuration (prefetch awareness off) and, for TTS, a
//!   shifted cache hierarchy ([`shift_hierarchy`]).
//!
//! # Pruning soundness
//!
//! [`CostModel::lower_bound`] must be **admissible**: for every feasible
//! point of the tile it must not exceed the point's
//! [`CostBreakdown::total`]. Returning `Some(0.0)` (never prune) is
//! always sound; returning `None` declares the whole tile infeasible.
//! The engine's strict incumbent comparison keeps cost-*tied* candidates
//! alive, so an admissible bound preserves the deterministic winner
//! exactly (DESIGN.md §10–§11).

use crate::classify::Class;
use crate::config::{ModelKind, OptimizerConfig};
use crate::decision::Decision;
use crate::emu::{emu, emu_cached, l1_params, l2_params, EmuParams};
use crate::error::{catch_panic, PaloError};
use crate::footprint::{Coverage, Footprints};
use crate::order::inter_trip;
use crate::post;
use crate::search::SearchCounters;
use palo_arch::{Architecture, PrefetcherConfig, SharingScope};
use palo_exec::{estimate_time_with, TimeEstimate, TraceOptions};
use palo_ir::LoopNest;
use palo_sched::LoweredNest;
use serde::{Deserialize, Serialize};

/// Per-term decomposition of one candidate's model cost.
///
/// Which terms are populated depends on the model and the kernel class —
/// see the table in DESIGN.md §11. `total` is what the search ranks by
/// (ties broken by `tie`, then by the engine's lexicographic key);
/// `corder` is filled in by the driver *after* the reorder step, for the
/// winning candidate only (it breaks ties, it never changes `total`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// L1-targeted cold-miss term `CL1` (Eq. 5 generalized).
    pub cl1: f64,
    /// L2-targeted cold-miss term `CL2` (Eq. 10 generalized).
    pub cl2: f64,
    /// Line-granular memory traffic of the `CL2` term (the bandwidth
    /// term's multiplicand; see `OptimizerConfig::bandwidth_term`).
    pub cl2_lines: f64,
    /// Loop-distance cost of the chosen permutation (Eq. 12).
    pub corder: f64,
    /// Prefetching efficiency `Twidth / lc` (Eqs. 14–17) of the column
    /// tile; for [`SimulatedModel`], the fraction of demand accesses
    /// served from prefetched lines.
    pub pref_efficiency: f64,
    /// The ranked scalar: `a2·CL1 + a3·CL2 + am·CL2_lines` for the
    /// temporal model, the efficiency-weighted miss total for the
    /// spatial model, estimated milliseconds for [`SimulatedModel`].
    pub total: f64,
    /// Deterministic tie-breaker ranked after `total` (the undiscounted
    /// line-traffic cost; see `temporal`'s tie rationale).
    pub tie: f64,
}

/// One point of the candidate space handed to a [`CostModel`].
///
/// For [`Class::Temporal`] kernels a point is a tile plus the two
/// order-defining choices of Algorithm 2 — `x`, the outermost intra-tile
/// variable, and `u`, the innermost inter-tile variable. For
/// [`Class::Spatial`] kernels the tile alone defines the point and both
/// are `None`.
#[derive(Debug, Clone, Copy)]
pub struct CandidatePoint<'a> {
    /// Tile size per loop variable (`tile[v] == extent[v]` = untiled).
    pub tile: &'a [usize],
    /// Outermost intra-tile variable (temporal kernels only).
    pub x: Option<usize>,
    /// Innermost inter-tile variable (temporal kernels only).
    pub u: Option<usize>,
}

/// Capacity divisor of a cache level for one thread of a fully-parallel
/// run: private levels are shared by the core's hardware threads,
/// chip-shared levels by all cores (§5.1's ARM correction).
pub fn sharing_divisor(level: &palo_arch::CacheLevel, arch: &Architecture) -> usize {
    match level.sharing {
        SharingScope::Core => arch.threads_per_core.max(1),
        SharingScope::Chip => arch.cores.max(1),
    }
}

/// The prefetch [`Coverage`] regime the miss terms run under: derived
/// from the target's per-level prefetcher descriptions, gated by the
/// `prefetch_discount` ablation switch. Any stream-capable unit anywhere
/// in the hierarchy yields row coverage (Eq. 3, the paper's discount); a
/// hierarchy whose strongest unit is adjacent-pair yields pair coverage;
/// a prefetch-less target pays full line misses even with the discount
/// switch on — the a2/a3 terms follow the hardware, not the flag alone.
pub fn coverage_of(arch: &Architecture, config: &OptimizerConfig) -> Coverage {
    if !config.prefetch_discount {
        return Coverage::None;
    }
    if arch.caches.iter().any(|c| c.prefetcher.covers_streams()) {
        Coverage::Rows
    } else if arch.caches.iter().any(|c| matches!(c.prefetcher, PrefetcherConfig::AdjacentPair))
    {
        Coverage::Pairs
    } else {
        Coverage::None
    }
}

/// Everything a [`CostModel`] may consult about the nest under
/// optimization, shared read-only across the search worker pool.
///
/// The context holds the derived weights and budgets the analytical
/// model uses, so the optimizers themselves contain no cost arithmetic.
/// Footprint terms are computed directly on every call
/// ([`TileContext::terms`]): a few multiply-adds per array dimension,
/// cheaper than any lookup. The only memo left is the process-wide one
/// for Algorithm-1 `emu()` bounds, which the context consults when
/// `SearchOptions::memo` is on.
pub struct TileContext<'a> {
    /// The nest being optimized.
    pub nest: &'a LoopNest,
    /// The (effective) target architecture.
    pub arch: &'a Architecture,
    /// The (effective) optimizer configuration.
    pub config: &'a OptimizerConfig,
    /// The classification the driver is running under.
    pub class: Class,
    /// Footprint machinery of the nest.
    pub fp: &'a Footprints,
    /// Loop extents per variable.
    pub extents: &'a [usize],
    /// The column (contiguous) variable.
    pub col: usize,
    /// The row variable (spatial kernels only).
    pub row: Option<usize>,
    /// Number of deduplicated access shapes.
    pub na: usize,
    /// Number of loop variables.
    pub n: usize,
    /// Data type size in bytes.
    pub dts: usize,
    /// L1 working-set budget in elements (Eq. 1's bound).
    pub l1_budget: f64,
    /// L2 working-set budget in elements (Eq. 6's bound).
    pub l2_budget: f64,
    /// `a2`: L2 access latency (weight of `CL1`).
    pub a2: f64,
    /// `a3`: L3 (or memory) access latency (weight of `CL2`).
    pub a3: f64,
    /// `am`: memory transfer cycles per line (weight of `CL2_lines`;
    /// zero when the bandwidth term is disabled).
    pub am: f64,
    /// Hardware threads of the target.
    pub threads: usize,
    /// Prefetch-coverage regime of the miss terms, derived from the
    /// target's prefetcher descriptions (see [`coverage_of`]).
    pub coverage: Coverage,
    /// Whether the emitted schedule will use non-temporal stores (the
    /// [`SimulatedModel`] scores candidates under the same hint).
    pub use_nti: bool,
    pub(crate) counters: &'a SearchCounters,
}

impl<'a> TileContext<'a> {
    /// The context of a [`Class::Temporal`] search, with the budgets and
    /// weights of Algorithm 2 (Eqs. 1, 6, 11).
    #[allow(clippy::too_many_arguments)]
    pub fn temporal(
        nest: &'a LoopNest,
        fp: &'a Footprints,
        extents: &'a [usize],
        arch: &'a Architecture,
        config: &'a OptimizerConfig,
        col: usize,
        use_nti: bool,
        counters: &'a SearchCounters,
    ) -> Self {
        let dts = nest.dtype().size_bytes();
        let l1_budget = (arch.l1().size_bytes / dts / sharing_divisor(arch.l1(), arch)) as f64;
        let mut l2_budget =
            (arch.l2().size_bytes / dts / sharing_divisor(arch.l2(), arch)) as f64;
        if config.halve_l2_sets && arch.l2().prefetcher.covers_streams() {
            l2_budget /= 2.0;
        }
        Self::assemble(
            nest,
            fp,
            extents,
            arch,
            config,
            Class::Temporal,
            col,
            None,
            dts,
            l1_budget,
            l2_budget,
            use_nti,
            counters,
        )
    }

    /// The context of a [`Class::Spatial`] search, with the budgets of
    /// Algorithm 3 (Eqs. 18–19): the L1 budget is divided by the core's
    /// hardware threads (the column sweep is private per thread).
    #[allow(clippy::too_many_arguments)]
    pub fn spatial(
        nest: &'a LoopNest,
        fp: &'a Footprints,
        extents: &'a [usize],
        arch: &'a Architecture,
        config: &'a OptimizerConfig,
        col: usize,
        row: usize,
        use_nti: bool,
        counters: &'a SearchCounters,
    ) -> Self {
        let dts = nest.dtype().size_bytes();
        let l1_budget = (arch.l1().size_bytes / dts / arch.threads_per_core.max(1)) as f64;
        let mut l2_budget =
            (arch.l2().size_bytes / dts / sharing_divisor(arch.l2(), arch)) as f64;
        if config.halve_l2_sets && arch.l2().prefetcher.covers_streams() {
            l2_budget /= 2.0;
        }
        Self::assemble(
            nest,
            fp,
            extents,
            arch,
            config,
            Class::Spatial,
            col,
            Some(row),
            dts,
            l1_budget,
            l2_budget,
            use_nti,
            counters,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        nest: &'a LoopNest,
        fp: &'a Footprints,
        extents: &'a [usize],
        arch: &'a Architecture,
        config: &'a OptimizerConfig,
        class: Class,
        col: usize,
        row: Option<usize>,
        dts: usize,
        l1_budget: f64,
        l2_budget: f64,
        use_nti: bool,
        counters: &'a SearchCounters,
    ) -> Self {
        let a2 = arch.l2().latency_cycles;
        let a3 = arch.l3().map(|c| c.latency_cycles).unwrap_or(arch.timing.mem_latency_cycles);
        let am = if config.bandwidth_term { arch.timing.mem_transfer_cycles } else { 0.0 };
        TileContext {
            nest,
            arch,
            config,
            class,
            fp,
            extents,
            col,
            row,
            na: fp.shapes().len(),
            n: extents.len(),
            dts,
            l1_budget,
            l2_budget,
            a2,
            a3,
            am,
            threads: arch.total_threads(),
            coverage: coverage_of(arch, config),
            use_nti,
            counters,
        }
    }

    /// `(elems, prefetch-discounted misses, lines)` of shape `a` under
    /// `sizes`, computed directly ([`Footprints::terms`]).
    pub fn terms(&self, a: usize, sizes: &[usize]) -> (f64, f64, f64) {
        self.fp.terms(a, sizes, self.coverage)
    }

    /// Algorithm-1 bound of a tile dimension against the **L1** (next-line
    /// row inflation), for rows of `row_len` elements spaced `row_stride`
    /// apart, capped at `cap`.
    pub fn l1_cap(&self, row_len: usize, row_stride: usize, cap: usize) -> usize {
        self.bound(&l1_params(
            self.arch.l1(),
            self.dts,
            row_len,
            row_stride,
            self.arch.threads_per_core,
            cap,
        ))
    }

    /// Algorithm-1 bound of a tile dimension against the **L2** (halved
    /// sets, stride-prefetch tests), capped at `cap`. The set halving
    /// reserves capacity for stream prefetches, so it only applies when
    /// the L2's declared unit actually runs streams; the injected test
    /// lines likewise follow the unit's degree and run-ahead distance.
    pub fn l2_cap(&self, row_len: usize, row_stride: usize, cap: usize) -> usize {
        let l2_pref = &self.arch.l2().prefetcher;
        self.bound(&l2_params(
            self.arch.l2(),
            self.dts,
            row_len,
            row_stride,
            self.arch.threads_per_core,
            if l2_pref.covers_streams() { l2_pref.degree() } else { 0 },
            l2_pref.max_distance(),
            self.config.halve_l2_sets && l2_pref.covers_streams(),
            cap,
        ))
    }

    fn bound(&self, p: &EmuParams<'_>) -> usize {
        if self.config.search.memo {
            emu_cached(p, self.counters)
        } else {
            emu(p)
        }
    }
}

/// A cost model: scores candidate points of the tile-size search.
///
/// Implementations must be deterministic pure functions of
/// `(context, point)` — the engine shares them across its worker pool and
/// the bit-determinism contract (same winner for any worker count)
/// depends on every evaluation returning identical bits every time.
pub trait CostModel: Send + Sync {
    /// Short machine-readable name (`"paper"`, `"tss"`, `"tts"`,
    /// `"sim"`).
    fn name(&self) -> &'static str;

    /// An admissible lower bound on the cost of *every* point of `tile`,
    /// or `None` when the whole tile is infeasible (e.g. its working set
    /// overflows the L2 budget). `Some(0.0)` is always sound and simply
    /// disables pruning for this model.
    fn lower_bound(&self, ctx: &TileContext<'_>, tile: &[usize]) -> Option<f64>;

    /// Scores one candidate point, or `None` when the point is
    /// infeasible (working-set, parallel-grain or structural
    /// constraints).
    fn evaluate(
        &self,
        ctx: &TileContext<'_>,
        point: &CandidatePoint<'_>,
    ) -> Option<CostBreakdown>;

    /// Algorithm 2's inner sweep: scores every `(x, u)` point of a
    /// temporal `tile` and calls `visit(x, u, breakdown)` for each
    /// feasible one, `x` outer and `u` inner, both ascending. It must
    /// visit exactly the points [`CostModel::evaluate`] scores `Some`,
    /// with the same bits. The default evaluates point by point; a model
    /// whose terms do not all depend on `(x, u)` overrides it to compute
    /// them once per tile.
    fn evaluate_tile(
        &self,
        ctx: &TileContext<'_>,
        tile: &[usize],
        visit: &mut dyn FnMut(usize, usize, &CostBreakdown),
    ) {
        sweep_points(self, ctx, tile, visit);
    }
}

/// The point-by-point `(x, u)` sweep behind the default
/// [`CostModel::evaluate_tile`].
fn sweep_points<M: CostModel + ?Sized>(
    model: &M,
    ctx: &TileContext<'_>,
    tile: &[usize],
    visit: &mut dyn FnMut(usize, usize, &CostBreakdown),
) {
    for x in 0..ctx.n {
        for u in 0..ctx.n {
            let point = CandidatePoint { tile, x: Some(x), u: Some(u) };
            if let Some(bd) = model.evaluate(ctx, &point) {
                visit(x, u, &bd);
            }
        }
    }
}

/// The paper's analytical model (Eqs. 1–19), bit-for-bit the arithmetic
/// previously inlined in the temporal and spatial optimizers.
///
/// The TSS and TTS baselines are this same machinery running under an
/// effective configuration with the prefetch awareness switched off (and,
/// for TTS, a shifted hierarchy) — see [`resolve`] and
/// `palo_baselines::models`.
#[derive(Debug, Clone, Copy)]
pub struct PrefetchAwareModel {
    label: &'static str,
}

impl PrefetchAwareModel {
    /// The paper's model under the context's own configuration.
    pub fn paper() -> Self {
        PrefetchAwareModel { label: "paper" }
    }

    /// The same analytical machinery reporting under a baseline's name
    /// (the baseline's knobs live in the *effective* config/arch of the
    /// context, per [`ModelKind::effective_config`]).
    pub fn named(label: &'static str) -> Self {
        PrefetchAwareModel { label }
    }

    /// Spatial scoring (Algorithm 3): working sets of Eqs. 18–19, then
    /// `CTotal = Σ inputs misses(tile) × ntiles × (Twidth / lc)`
    /// (Eqs. 15, 17).
    fn evaluate_spatial(
        &self,
        ctx: &TileContext<'_>,
        point: &CandidatePoint<'_>,
    ) -> Option<CostBreakdown> {
        let tile = point.tile;
        let row = ctx.row?;
        let (tw, th) = (tile[ctx.col], tile[row]);
        let lc = ctx.fp.lc();
        let inputs = || (0..ctx.na).filter(|&a| !ctx.fp.shapes()[a].is_output);
        let ntiles: f64 =
            (0..ctx.n).map(|v| (ctx.extents[v] as f64 / tile[v] as f64).ceil()).product();
        let eff = tw as f64 / lc as f64;

        // Working sets (Eqs. 18–19 generalized): transposed inputs pay
        // a full line per row they touch in one column sweep.
        let mut col_slice = vec![1usize; ctx.n];
        col_slice[ctx.col] = tw;
        let ws_l1: f64 = inputs().map(|a| ctx.terms(a, &col_slice).2 * lc as f64).sum();
        // One pass per input for Eq. 19's working set and the miss total
        // below, accumulated left to right from `Iterator::sum`'s own
        // neutral element so both stay bit-identical to a `.sum()`.
        let mut ws_l2: f64 = std::iter::empty::<f64>().sum();
        let mut c_total = ws_l2;
        for a in inputs() {
            let (elems, misses, _) = ctx.terms(a, tile);
            ws_l2 += elems;
            // CTotal = Σ inputs rows(tile) × ntiles × (Tw / lc) (Eqs. 15, 17).
            c_total += misses * ntiles * eff;
        }
        if ws_l1 > ctx.l1_budget || ws_l2 > ctx.l2_budget {
            return None;
        }
        if ctx.config.parallel_grain_constraint {
            let trips = (ctx.extents[row] as f64 / th as f64).ceil()
                * (ctx.extents[ctx.col] as f64 / tw as f64).ceil();
            if trips < ctx.threads as f64 {
                return None;
            }
        }
        Some(CostBreakdown {
            cl1: 0.0,
            cl2: 0.0,
            cl2_lines: 0.0,
            corder: 0.0,
            pref_efficiency: eff,
            total: c_total,
            tie: 0.0,
        })
    }
}

/// The paper model's temporal terms for one tile, each computed at the
/// granularity it depends on: the Eq. 6 working set, the inter-tile trips,
/// `ntiles` and `CL1` once per tile; the Eq. 1 slice check once per `x`;
/// the Eq. 13 grain check and `CL2` (Eq. 10) once per `u`. Both the
/// per-point [`CostModel::evaluate`] and the per-tile
/// [`CostModel::evaluate_tile`] of [`PrefetchAwareModel`] score through
/// it, so Eqs. 1/6/10/11/13 exist in this one place. The float-operation
/// order matches the pre-refactor optimizer exactly: the golden-decision
/// snapshots assert the decisions stay bit-identical.
struct TemporalTile<'t, 'a> {
    ctx: &'t TileContext<'a>,
    tile: &'t [usize],
    /// Prefetch-discounted misses of the tile, per access shape.
    rows: Vec<f64>,
    /// Line footprint of the tile, per access shape.
    lines: Vec<f64>,
    /// Inter-tile trip count, per variable.
    trips: Vec<f64>,
    ntiles: f64,
    cl1: f64,
    cl1_lines: f64,
}

impl<'t, 'a> TemporalTile<'t, 'a> {
    /// The tile-level terms, or `None` when the tile's working set
    /// overflows the L2 budget (Eq. 6).
    fn new(ctx: &'t TileContext<'a>, tile: &'t [usize]) -> Option<Self> {
        let mut ws_l2 = 0.0;
        let mut rows = Vec::with_capacity(ctx.na);
        let mut lines = Vec::with_capacity(ctx.na);
        for a in 0..ctx.na {
            let (elems, r, l) = ctx.terms(a, tile);
            ws_l2 += elems;
            rows.push(r);
            lines.push(l);
        }
        if ws_l2 > ctx.l2_budget {
            return None;
        }
        let trips: Vec<f64> = (0..ctx.n).map(|v| inter_trip(v, tile, ctx.extents)).collect();
        let ntiles: f64 = trips.iter().product();
        let cl1 = rows.iter().sum::<f64>() * ntiles;
        let cl1_lines = lines.iter().sum::<f64>() * ntiles;
        Some(TemporalTile { ctx, tile, rows, lines, trips, ntiles, cl1, cl1_lines })
    }

    /// Whether `x` can be the outermost intra-tile loop: not the column
    /// loop, not a degenerate dimension, and one of its iterations fits
    /// the L1 budget (Eq. 1). `slice` holds the tile on entry and on
    /// return.
    fn x_fits(&self, x: usize, slice: &mut [usize]) -> bool {
        let ctx = self.ctx;
        if x == ctx.col || self.tile[x] <= 1 {
            return false;
        }
        slice[x] = 1;
        let ws_l1: f64 = (0..ctx.na).map(|a| ctx.terms(a, slice).0).sum();
        slice[x] = self.tile[x];
        if ws_l1 > ctx.l1_budget {
            return false;
        }
        true
    }

    /// The breakdown with `u` as the innermost inter-tile loop: the
    /// parallel-grain check (Eq. 13), then `CL2` (Eq. 10 generalized) and
    /// `Ctotal = a2·CL1 + a3·CL2 + am·CL2_lines` (Eq. 11). Independent of
    /// `x`.
    fn score(&self, u: usize) -> Option<CostBreakdown> {
        let ctx = self.ctx;
        if ctx.config.parallel_grain_constraint {
            // Eq. 13: the parallelizable outer inter-tile loops (all but
            // the innermost-inter `u` and the column loop) must provide
            // at least one iteration per hardware thread.
            let outer_cap: f64 =
                (0..ctx.n).filter(|&v| v != u && v != ctx.col).map(|v| self.trips[v]).product();
            if outer_cap < ctx.threads as f64 {
                return None;
            }
        }

        let mut cl2 = 0.0;
        let mut cl2_lines = 0.0;
        for a in 0..ctx.na {
            let reuse = if ctx.fp.uses_var(a, u) { 1.0 } else { self.trips[u] };
            cl2 += self.rows[a] * self.ntiles / reuse;
            cl2_lines += self.lines[a] * self.ntiles / reuse;
        }
        let total = ctx.a2 * self.cl1 + ctx.a3 * cl2 + ctx.am * cl2_lines;
        // Undiscounted (line-granular) variant of the cost, used to break
        // ties: the prefetch-discounted model (Eq. 3) makes row cost
        // independent of row length, so candidates that differ only in
        // memory-bus traffic score identically; the line footprint is
        // exactly that traffic.
        let tie = ctx.a2 * self.cl1_lines + ctx.a3 * cl2_lines;
        Some(CostBreakdown {
            cl1: self.cl1,
            cl2,
            cl2_lines,
            corder: 0.0,
            pref_efficiency: self.tile[ctx.col] as f64 / ctx.fp.lc() as f64,
            total,
            tie,
        })
    }

    /// One `(x, u)` point.
    fn point(&self, x: usize, u: usize) -> Option<CostBreakdown> {
        let mut slice = self.tile.to_vec();
        if !self.x_fits(x, &mut slice) {
            return None;
        }
        self.score(u)
    }

    /// Every feasible `(x, u)` point: `n` scores and at most `n` slice
    /// checks, instead of `n²` full evaluations.
    fn sweep(&self, visit: &mut dyn FnMut(usize, usize, &CostBreakdown)) {
        let scores: Vec<Option<CostBreakdown>> =
            (0..self.ctx.n).map(|u| self.score(u)).collect();
        if scores.iter().all(Option::is_none) {
            return;
        }
        let mut slice = self.tile.to_vec();
        for x in 0..self.ctx.n {
            if !self.x_fits(x, &mut slice) {
                continue;
            }
            for (u, bd) in scores.iter().enumerate() {
                if let Some(bd) = bd {
                    visit(x, u, bd);
                }
            }
        }
    }
}

impl CostModel for PrefetchAwareModel {
    fn name(&self) -> &'static str {
        self.label
    }

    /// Temporal tiles: feasibility of Eq. 6, then `a2·CL1` — admissible
    /// because `Ctotal = a2·CL1 + a3·CL2 + am·CL2_lines` with every term
    /// non-negative. Spatial tiles never prune (the candidate space is a
    /// few hundred points at most).
    fn lower_bound(&self, ctx: &TileContext<'_>, tile: &[usize]) -> Option<f64> {
        match ctx.class {
            Class::Temporal => TemporalTile::new(ctx, tile).map(|t| ctx.a2 * t.cl1),
            _ => Some(0.0),
        }
    }

    fn evaluate(
        &self,
        ctx: &TileContext<'_>,
        point: &CandidatePoint<'_>,
    ) -> Option<CostBreakdown> {
        match ctx.class {
            Class::Temporal => {
                let (x, u) = (point.x?, point.u?);
                TemporalTile::new(ctx, point.tile)?.point(x, u)
            }
            _ => self.evaluate_spatial(ctx, point),
        }
    }

    /// Temporal tiles compute their tile-level terms once, each `x`'s
    /// Eq. 1 check once and each `u`'s score once, then visit the
    /// feasible cross-product; the spatial class has no `(x, u)` choice
    /// and scores point by point.
    fn evaluate_tile(
        &self,
        ctx: &TileContext<'_>,
        tile: &[usize],
        visit: &mut dyn FnMut(usize, usize, &CostBreakdown),
    ) {
        match ctx.class {
            Class::Temporal => {
                if let Some(t) = TemporalTile::new(ctx, tile) {
                    t.sweep(visit);
                }
            }
            _ => sweep_points(self, ctx, tile, visit),
        }
    }
}

/// A measurement-grade oracle behind the same trait: each candidate point
/// is materialized as a canonical schedule (the driver's default orders),
/// lowered, and *traced* on the cache simulator; the score is the
/// estimated wall-clock milliseconds.
///
/// Orders of magnitude more expensive per point than the analytical
/// model — intended for the autotuner's measurement loop and for small
/// problem sizes ([`resolve`] thins the candidate grid accordingly). Its
/// lower bound is `Some(0.0)`: trivially admissible, so branch-and-bound
/// never fires and every enumerated point is measured.
#[derive(Debug, Clone, Default)]
pub struct SimulatedModel {
    /// Trace options of each measurement (budget/deadline guards).
    pub trace: TraceOptions,
}

impl SimulatedModel {
    /// Scores an already-lowered schedule — the shared measurement path
    /// used by both [`CostModel::evaluate`] and the autotuner.
    ///
    /// # Errors
    ///
    /// Returns the trace failure ([`PaloError::Trace`]-convertible) or
    /// [`PaloError::Panicked`] when the simulator panics.
    pub fn score_lowered(
        &self,
        nest: &LoopNest,
        arch: &Architecture,
        lowered: &LoweredNest,
    ) -> Result<CostBreakdown, PaloError> {
        let opts = self.trace;
        let est =
            catch_panic("simulated-model", || estimate_time_with(nest, lowered, arch, &opts))?
                .map_err(PaloError::from)?;
        Ok(Self::breakdown_of(&est))
    }

    /// Maps a simulated [`TimeEstimate`] onto the shared breakdown: the
    /// analytical miss terms become *measured* demand misses.
    fn breakdown_of(est: &TimeEstimate) -> CostBreakdown {
        let stats = &est.stats;
        let mem_lines = stats.mem_traffic_lines() as f64;
        let pref_hits = stats.levels.first().map(|l| l.prefetch_hits).unwrap_or(0) as f64;
        CostBreakdown {
            cl1: stats.levels.first().map(|l| l.demand_misses).unwrap_or(0) as f64,
            cl2: stats.levels.get(1).map(|l| l.demand_misses).unwrap_or(0) as f64,
            cl2_lines: mem_lines,
            corder: 0.0,
            pref_efficiency: if stats.total_accesses > 0 {
                pref_hits / stats.total_accesses as f64
            } else {
                0.0
            },
            total: est.ms,
            tie: mem_lines,
        }
    }
}

impl CostModel for SimulatedModel {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn lower_bound(&self, _ctx: &TileContext<'_>, _tile: &[usize]) -> Option<f64> {
        Some(0.0)
    }

    fn evaluate(
        &self,
        ctx: &TileContext<'_>,
        point: &CandidatePoint<'_>,
    ) -> Option<CostBreakdown> {
        let decision = canonical_decision(ctx, point)?;
        let lowered = decision.schedule().lower(ctx.nest).ok()?;
        self.score_lowered(ctx.nest, ctx.arch, &lowered).ok()
    }
}

/// Materializes a candidate point as the driver's *default* schedule
/// (the orders Algorithm 2/3 emit before the `Corder` reorder step), so
/// the simulated score measures the tile choice, not an arbitrary
/// permutation.
fn canonical_decision(ctx: &TileContext<'_>, point: &CandidatePoint<'_>) -> Option<Decision> {
    let n = ctx.n;
    let col = ctx.col;
    let tile = point.tile.to_vec();
    let (inter, intra) = match ctx.class {
        Class::Temporal => {
            let (x, u) = (point.x?, point.u?);
            if x == col || point.tile[x] <= 1 {
                return None;
            }
            let intra: Vec<usize> = std::iter::once(x)
                .chain((0..n).filter(|&v| v != x && v != col))
                .chain(std::iter::once(col))
                .collect();
            let mut inter: Vec<usize> = (0..n).filter(|&v| v != u && v != col).collect();
            if col != u {
                inter.push(col);
            }
            inter.push(u);
            (inter, intra)
        }
        _ => {
            let row = ctx.row?;
            let inter: Vec<usize> =
                (0..n).filter(|&v| v != row && v != col).chain([row, col]).collect();
            let intra = inter.clone();
            (inter, intra)
        }
    };
    Some(post::emit(
        ctx.nest,
        ctx.arch,
        ctx.class,
        tile,
        inter,
        intra,
        ctx.use_nti,
        CostBreakdown::default(),
    ))
}

/// Builds a pseudo-architecture whose first two levels are the real L2
/// and L3 (so the level-generic search optimizes one level further out,
/// as TurboTiling does). On two-level platforms the L2 doubles as both.
pub fn shift_hierarchy(arch: &Architecture) -> Architecture {
    let mut shifted = arch.clone();
    let caches = &arch.caches;
    shifted.caches = if caches.len() >= 3 {
        caches[1..].to_vec()
    } else {
        vec![caches[1].clone(), caches[1].clone()]
    };
    shifted
}

/// A [`ModelKind`] resolved into a model instance plus the *effective*
/// architecture and configuration the drivers must run under.
pub struct ResolvedModel {
    /// The model implementation.
    pub model: Box<dyn CostModel>,
    /// The effective architecture (shifted for [`ModelKind::Tts`]).
    pub arch: Architecture,
    /// The effective configuration (prefetch awareness off for the
    /// TSS/TTS baselines, candidate grid thinned for
    /// [`ModelKind::Simulated`]).
    pub config: OptimizerConfig,
}

/// Resolves `config.model` into the model instance and the effective
/// `(arch, config)` pair. Called exactly once per optimization, at the
/// driver entry — the drivers themselves never re-resolve.
pub fn resolve(config: &OptimizerConfig, arch: &Architecture) -> ResolvedModel {
    let kind = config.model;
    ResolvedModel {
        model: match kind {
            ModelKind::Paper => Box::new(PrefetchAwareModel::paper()),
            ModelKind::Tss => Box::new(PrefetchAwareModel::named("tss")),
            ModelKind::Tts => Box::new(PrefetchAwareModel::named("tts")),
            ModelKind::Simulated => Box::new(SimulatedModel::default()),
        },
        arch: kind.effective_arch(arch),
        config: kind.effective_config(config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palo_arch::presets;
    use palo_ir::{DType, NestBuilder};

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

    fn ctx_parts(nm: usize) -> (LoopNest, Architecture, OptimizerConfig) {
        (matmul(nm), presets::intel_i7_5930k(), OptimizerConfig::default())
    }

    #[test]
    fn lower_bound_is_admissible_for_the_paper_model() {
        let (nest, arch, config) = ctx_parts(128);
        let fp = Footprints::new(&nest, arch.l1().line_size);
        let extents = nest.extents();
        let counters = SearchCounters::default();
        let ctx =
            TileContext::temporal(&nest, &fp, &extents, &arch, &config, 1, false, &counters);
        let model = PrefetchAwareModel::paper();
        for tile in [vec![8, 64, 16], vec![16, 128, 8], vec![128, 128, 128]] {
            let Some(lb) = model.lower_bound(&ctx, &tile) else { continue };
            for x in 0..3 {
                for u in 0..3 {
                    let point = CandidatePoint { tile: &tile, x: Some(x), u: Some(u) };
                    if let Some(bd) = model.evaluate(&ctx, &point) {
                        assert!(
                            lb <= bd.total,
                            "bound {lb} > total {} for tile {tile:?} x={x} u={u}",
                            bd.total
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn infeasible_tile_has_no_bound() {
        let (nest, arch, config) = ctx_parts(2048);
        let fp = Footprints::new(&nest, arch.l1().line_size);
        let extents = nest.extents();
        let counters = SearchCounters::default();
        let ctx =
            TileContext::temporal(&nest, &fp, &extents, &arch, &config, 1, false, &counters);
        // The full problem cannot fit the L2 working-set budget.
        let tile = vec![2048, 2048, 2048];
        assert!(PrefetchAwareModel::paper().lower_bound(&ctx, &tile).is_none());
    }

    #[test]
    fn structural_invalid_points_score_none() {
        let (nest, arch, config) = ctx_parts(64);
        let fp = Footprints::new(&nest, arch.l1().line_size);
        let extents = nest.extents();
        let counters = SearchCounters::default();
        let ctx =
            TileContext::temporal(&nest, &fp, &extents, &arch, &config, 1, false, &counters);
        let model = PrefetchAwareModel::paper();
        let tile = vec![16, 64, 16];
        // x on the column loop is structurally invalid.
        assert!(model
            .evaluate(&ctx, &CandidatePoint { tile: &tile, x: Some(1), u: Some(2) })
            .is_none());
        // x on a degenerate (size-1) dimension too.
        let thin = vec![1, 64, 16];
        assert!(model
            .evaluate(&ctx, &CandidatePoint { tile: &thin, x: Some(0), u: Some(2) })
            .is_none());
    }

    #[test]
    fn simulated_model_scores_real_milliseconds() {
        let (nest, arch, config) = ctx_parts(24);
        let fp = Footprints::new(&nest, arch.l1().line_size);
        let extents = nest.extents();
        let counters = SearchCounters::default();
        let ctx =
            TileContext::temporal(&nest, &fp, &extents, &arch, &config, 1, false, &counters);
        let model = SimulatedModel::default();
        let tile = vec![8, 24, 8];
        let bd = model
            .evaluate(&ctx, &CandidatePoint { tile: &tile, x: Some(0), u: Some(2) })
            .expect("simulated score");
        assert!(bd.total > 0.0);
        assert!(bd.cl1 > 0.0, "a 24^3 matmul must miss in L1 at least once");
        assert!((0.0..=1.0).contains(&bd.pref_efficiency));
    }

    #[test]
    fn resolve_shifts_arch_only_for_tts() {
        let arch = presets::intel_i7_5930k();
        let base = OptimizerConfig::default();
        for (kind, name) in [
            (ModelKind::Paper, "paper"),
            (ModelKind::Tss, "tss"),
            (ModelKind::Tts, "tts"),
            (ModelKind::Simulated, "sim"),
        ] {
            let r = resolve(&OptimizerConfig { model: kind, ..base.clone() }, &arch);
            assert_eq!(r.model.name(), name);
            let shifted = kind == ModelKind::Tts;
            assert_eq!(r.arch.l1().size_bytes != arch.l1().size_bytes, shifted);
        }
    }

    #[test]
    fn shift_hierarchy_on_arm_reuses_l2() {
        let arm = presets::arm_cortex_a15();
        let shifted = shift_hierarchy(&arm);
        assert_eq!(shifted.caches.len(), 2);
        assert_eq!(shifted.caches[0].size_bytes, arm.l2().size_bytes);
    }
}
