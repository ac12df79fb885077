//! Optimizer configuration and ablation switches.

use palo_arch::Architecture;
use serde::{Deserialize, Serialize};

/// Which [`CostModel`](crate::model::CostModel) scores the candidate
/// search (DESIGN.md §11).
///
/// The kind is *resolved once* at the driver entry
/// ([`crate::model::resolve`]) into a model instance plus the effective
/// `(arch, config)` pair it runs under — the baselines are the paper's
/// analytical machinery with the prefetch awareness switched off, not a
/// separate code path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelKind {
    /// The paper's prefetch-aware analytical model (Eqs. 1–19).
    #[default]
    Paper,
    /// The TSS baseline: the same machinery without the prefetch
    /// discount or the halved effective L2.
    Tss,
    /// The TurboTiling-style baseline: TSS on a hierarchy shifted one
    /// level out ([`crate::model::shift_hierarchy`]).
    Tts,
    /// The cachesim-backed empirical oracle: candidates are lowered and
    /// traced, scored by estimated milliseconds.
    Simulated,
}

/// Error of parsing a [`ModelKind`] from a string (e.g. the CLI's
/// `--model` flag): the rejected input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelKindError(pub String);

impl std::fmt::Display for ParseModelKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown model {:?} (expected one of ", self.0)?;
        for (i, k) in ModelKind::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(k.as_str())?;
        }
        f.write_str(")")
    }
}

impl std::error::Error for ParseModelKindError {}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for ModelKind {
    type Err = ParseModelKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ModelKind::ALL
            .iter()
            .copied()
            .find(|k| k.as_str() == s)
            .ok_or_else(|| ParseModelKindError(s.to_string()))
    }
}

impl ModelKind {
    /// Every kind, in CLI/documentation order.
    pub const ALL: [ModelKind; 4] =
        [ModelKind::Paper, ModelKind::Tss, ModelKind::Tts, ModelKind::Simulated];

    /// Short machine-readable name, matching the CLI's `--model` values.
    /// The single source of truth: [`std::fmt::Display`],
    /// [`std::str::FromStr`] and [`ModelKind::name`] all go through it.
    pub fn as_str(self) -> &'static str {
        match self {
            ModelKind::Paper => "paper",
            ModelKind::Tss => "tss",
            ModelKind::Tts => "tts",
            ModelKind::Simulated => "sim",
        }
    }

    /// Alias of [`ModelKind::as_str`] kept for existing callers.
    pub fn name(self) -> &'static str {
        self.as_str()
    }

    /// Parses a CLI `--model` value ([`std::str::FromStr`] as an
    /// `Option`).
    pub fn parse(s: &str) -> Option<Self> {
        s.parse().ok()
    }

    /// The configuration the drivers must run under for this model: the
    /// TSS/TTS baselines switch the prefetch awareness off; the
    /// simulated oracle thins the candidate grid (each point costs a
    /// full cache-hierarchy trace).
    pub fn effective_config(self, config: &OptimizerConfig) -> OptimizerConfig {
        let mut cfg = config.clone();
        match self {
            ModelKind::Paper => {}
            ModelKind::Tss | ModelKind::Tts => {
                cfg.prefetch_discount = false;
                cfg.halve_l2_sets = false;
            }
            ModelKind::Simulated => {
                cfg.max_candidates_per_dim = cfg.max_candidates_per_dim.min(4);
            }
        }
        cfg
    }

    /// The architecture the drivers must run under: identity except for
    /// [`ModelKind::Tts`], which optimizes against the shifted hierarchy.
    pub fn effective_arch(self, arch: &Architecture) -> Architecture {
        match self {
            ModelKind::Tts => crate::model::shift_hierarchy(arch),
            _ => arch.clone(),
        }
    }
}

/// Switches for the optimization flow.
///
/// The defaults reproduce the paper; each switch isolates one design
/// choice for the ablation benches (DESIGN.md §6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// Discount streaming-prefetched references from the cold-miss
    /// estimates (Eq. 2 → Eq. 3). Off ≈ the TSS-style model.
    pub prefetch_discount: bool,
    /// Halve the effective L2 set count in Algorithm 1 and the L2 working
    /// set budget, reserving room for constant-stride prefetch traffic.
    pub halve_l2_sets: bool,
    /// Run Step 2 of Algorithm 2 (minimize the `Corder` loop distance).
    pub reorder_step: bool,
    /// Enforce Eq. 13 (at least one inter-tile iteration per thread).
    pub parallel_grain_constraint: bool,
    /// Allow emitting the non-temporal store directive.
    pub enable_nti: bool,
    /// Extend `Ctotal` (Eq. 11) with a memory-bandwidth term
    /// `am · CL2_lines`: the prefetch-discounted miss counts capture
    /// *latency* (a streamed row costs one stall regardless of length)
    /// but every line still crosses the bus. The paper's testbed hid
    /// this inside the measured runtime; on the simulator substrate the
    /// bus is the roofline for parallel memory-bound kernels, so the
    /// model accounts it explicitly. Disable for the paper-pure model.
    pub bandwidth_term: bool,
    /// Upper bound on tile-size candidates examined per dimension
    /// (candidates are divisor-based and thinned geometrically).
    pub max_candidates_per_dim: usize,
    /// Which cost model scores the candidate search (DESIGN.md §11).
    pub model: ModelKind,
    /// Knobs of the candidate-search engine ([`crate::search`]).
    pub search: SearchOptions,
}

/// Knobs of the candidate-search engine ([`crate::search`]).
///
/// All combinations return bit-identical schedules (the engine's
/// determinism contract); the knobs only trade search time, and exist so
/// tests and benches can compare the pruned/memoized parallel search
/// against the exhaustive sequential one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchOptions {
    /// Worker threads for the candidate search. `None` defers to the
    /// `PALO_SEARCH_THREADS` environment variable, then to the machine's
    /// available parallelism.
    pub threads: Option<usize>,
    /// Branch-and-bound pruning against the shared incumbent.
    pub prune: bool,
    /// Consult the process-wide `emu()` memo for Algorithm-1 bounds —
    /// the only memo the search has. Footprint terms are always computed
    /// directly.
    pub memo: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions { threads: None, prune: true, memo: true }
    }
}

impl SearchOptions {
    /// The pre-engine behavior: sequential, exhaustive, and recomputing
    /// every `emu()` bound instead of reading the memo. The
    /// determinism/soundness tests and the bench harness use this as the
    /// ground truth to compare against.
    pub fn exhaustive() -> Self {
        SearchOptions { threads: Some(1), prune: false, memo: false }
    }
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            prefetch_discount: true,
            halve_l2_sets: true,
            reorder_step: true,
            parallel_grain_constraint: true,
            enable_nti: true,
            bandwidth_term: true,
            max_candidates_per_dim: 12,
            model: ModelKind::default(),
            search: SearchOptions::default(),
        }
    }
}

impl OptimizerConfig {
    /// The TSS-like ablation: no prefetch awareness anywhere.
    pub fn without_prefetch_model() -> Self {
        OptimizerConfig {
            prefetch_discount: false,
            halve_l2_sets: false,
            ..OptimizerConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = OptimizerConfig::default();
        assert!(c.prefetch_discount);
        assert!(c.halve_l2_sets);
        assert!(c.reorder_step);
        assert!(c.parallel_grain_constraint);
        assert!(c.enable_nti);
        assert_eq!(c.model, ModelKind::Paper);
    }

    #[test]
    fn model_kind_names_round_trip() {
        for kind in ModelKind::ALL {
            assert_eq!(ModelKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.as_str().parse::<ModelKind>(), Ok(kind));
            assert_eq!(kind.to_string(), kind.as_str());
        }
        assert_eq!(ModelKind::parse("bogus"), None);
    }

    #[test]
    fn model_kind_rejects_near_misses() {
        for bad in ["", "Paper", "PAPER", " paper", "paper ", "simulated", "ts", "tsss"] {
            let err = bad.parse::<ModelKind>().unwrap_err();
            assert_eq!(err, ParseModelKindError(bad.to_string()));
            // The message names the rejected input and the valid values.
            let msg = err.to_string();
            assert!(msg.contains("paper") && msg.contains("sim"), "{msg}");
        }
    }

    #[test]
    fn effective_config_maps_baselines_and_sim() {
        let base = OptimizerConfig::default();
        let tss = ModelKind::Tss.effective_config(&base);
        assert!(!tss.prefetch_discount && !tss.halve_l2_sets);
        assert_eq!(tss.max_candidates_per_dim, base.max_candidates_per_dim);
        let sim = ModelKind::Simulated.effective_config(&base);
        assert!(sim.prefetch_discount, "sim keeps the paper switches");
        assert!(sim.max_candidates_per_dim <= 4, "sim thins the grid");
        assert_eq!(ModelKind::Paper.effective_config(&base), base);
    }

    #[test]
    fn ablation_disables_prefetch_model() {
        let c = OptimizerConfig::without_prefetch_model();
        assert!(!c.prefetch_discount);
        assert!(!c.halve_l2_sets);
        assert!(c.reorder_step);
    }

    #[test]
    fn search_defaults_and_exhaustive_mode() {
        let s = SearchOptions::default();
        assert_eq!(s.threads, None);
        assert!(s.prune);
        assert!(s.memo);
        let e = SearchOptions::exhaustive();
        assert_eq!(e.threads, Some(1));
        assert!(!e.prune);
        assert!(!e.memo);
    }
}
