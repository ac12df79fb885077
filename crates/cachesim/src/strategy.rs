//! The pluggable prefetcher strategy layer.
//!
//! [`Hierarchy`](crate::Hierarchy) holds one boxed [`Prefetcher`] per
//! cache level and drives every implementation through the same two
//! contracts (DESIGN.md §16):
//!
//! 1. **Observe** — on each demand L1 miss, every unit sees the missed
//!    line via [`Prefetcher::observe_into`] and appends the lines it
//!    wants fetched. The hierarchy routes level-0 emissions into L1 and
//!    level-`k` emissions into levels `k..` bottom-up, through the shared
//!    accuracy throttle.
//! 2. **Steady state** — the run-compressed replay engine may lock onto
//!    a stream via [`Prefetcher::expects`] and feed it through the O(1)
//!    [`Prefetcher::observe_expected`] / [`Prefetcher::feed_denied`] /
//!    [`Prefetcher::feed_parked`] paths. Before each fed line it asks
//!    [`Prefetcher::preempts`] whether another stream would capture that
//!    line first; if so, the line takes the full observe. A stream that
//!    can never issue ([`Prefetcher::silent`]) is not fed line by line:
//!    the engine counts its lines and applies them in one
//!    [`Prefetcher::feed_silent`] step when the lock ends. Every
//!    fast-path transition must be *bit-identical* to the observe it
//!    replaces; the defaults opt out (`expects` false, `preempts` true),
//!    which degrades to one full observe per miss and is therefore always
//!    correct.

use crate::prefetch::StridePrefetcher;
use palo_arch::PrefetcherConfig;

/// One hardware prefetching unit attached to a cache level.
///
/// Only [`Prefetcher::observe_into`], [`Prefetcher::reset`] and
/// [`Prefetcher::box_clone`] are mandatory; the defaults for the
/// steady-state hooks are conservative (no stream lock) and keep
/// run-compressed replay bit-identical to scalar replay for any
/// implementation.
pub trait Prefetcher: std::fmt::Debug + Send + Sync {
    /// Clones the unit behind the trait object ([`Hierarchy`]s are
    /// cloneable).
    ///
    /// [`Hierarchy`]: crate::Hierarchy
    fn box_clone(&self) -> Box<dyn Prefetcher>;

    /// Observes a demand miss to `line`, appends the lines to prefetch,
    /// and returns the index of the stream the access extended (`None`
    /// when the unit tracks no streams, allocated a new one, or is
    /// disabled). Indices returned here key every steady-state hook
    /// below.
    fn observe_into(&mut self, line: u64, out: &mut Vec<u64>) -> Option<usize>;

    /// Whether stream `i` exists and predicts exactly `line` — the
    /// precondition for the O(1) feed paths. The default (`false`) opts
    /// the unit out of the run engine's stream lock entirely.
    fn expects(&self, _i: usize, _line: u64) -> bool {
        false
    }

    /// Feeds stream `i` a line it is known ([`Prefetcher::expects`]) to
    /// predict, performing the identical transition the scan-based
    /// observe would. The default falls back to the full scan, which is
    /// that identical transition by definition.
    fn observe_expected(&mut self, _i: usize, line: u64, out: &mut Vec<u64>) {
        let _ = self.observe_into(line, out);
    }

    /// Whether a stream other than `i` would capture `line`, which `i`
    /// [`expects`](Prefetcher::expects), in a full observe. The run engine
    /// asks before every fast feed and takes the full observe when this
    /// holds; `true` (the default) forces that observe on every line.
    fn preempts(&self, _i: usize, _line: u64) -> bool {
        true
    }

    /// Ramp-regime view of stream `i` for the run engine's throttle-aware
    /// fast feeds: `(r, limit, degree)` with `r` the signed frontier
    /// run-ahead, `limit` the run-ahead cap in lines and `degree` the
    /// per-feed push budget. `None` (the default) disables the
    /// [`Prefetcher::feed_denied`] / [`Prefetcher::feed_parked`]
    /// specialisations.
    fn ramp_state(&self, _i: usize) -> Option<(i64, u64, u32)> {
        None
    }

    /// [`Prefetcher::observe_expected`] specialised to a feed whose
    /// pushes the caller's throttle arithmetic pre-denied: the identical
    /// transition with the emitted lines dropped. Only called when
    /// [`Prefetcher::ramp_state`] returned `Some`; the default
    /// materialises and drops.
    fn feed_denied(&mut self, i: usize, line: u64) {
        let mut dropped = Vec::new();
        self.observe_expected(i, line, &mut dropped);
    }

    /// [`Prefetcher::observe_expected`] specialised to a stream parked at
    /// its run-ahead limit (exactly one line emitted per feed), returning
    /// that line. Only called when [`Prefetcher::ramp_state`] returned
    /// `Some`.
    fn feed_parked(&mut self, i: usize, line: u64) -> u64 {
        let mut out = Vec::new();
        self.observe_expected(i, line, &mut out);
        out.pop().unwrap_or(line)
    }

    /// Whether stream `i` can never issue, so an expected feed changes
    /// nothing but the unit's own counters. The run engine then defers
    /// the stream's feeds to one [`Prefetcher::feed_silent`] call.
    fn silent(&self, _i: usize) -> bool {
        false
    }

    /// `n` expected feeds of a [`silent`](Prefetcher::silent) stream `i`
    /// in one step: the lines `first`, `first + stride`, … Must equal `n`
    /// [`Prefetcher::observe_expected`] calls, which is the default.
    fn feed_silent(&mut self, i: usize, first: u64, stride: i64, n: u64) {
        let mut dropped = Vec::new();
        let mut line = first;
        for _ in 0..n {
            self.observe_expected(i, line, &mut dropped);
            line = line.wrapping_add_signed(stride);
        }
    }

    /// Whether the unit is configured to do nothing (observes then only
    /// advance its clock, if any).
    fn disabled(&self) -> bool {
        false
    }

    /// Advances the unit's observe clock by `n` without a table
    /// transition — mirrors `n` disabled observes.
    fn tick(&mut self, _n: u64) {}

    /// Drops all learned state (stream tables, last-line trackers).
    fn reset(&mut self);
}

impl Clone for Box<dyn Prefetcher> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// A unit that never prefetches (the `PrefetcherConfig::None` strategy).
#[derive(Debug, Clone, Copy, Default)]
pub struct InertPrefetcher;

impl Prefetcher for InertPrefetcher {
    fn box_clone(&self) -> Box<dyn Prefetcher> {
        Box::new(*self)
    }

    fn observe_into(&mut self, _line: u64, _out: &mut Vec<u64>) -> Option<usize> {
        None
    }

    fn disabled(&self) -> bool {
        true
    }

    fn reset(&mut self) {}
}

/// The L1 next-line (DCU) streamer: on an ascending sequential miss to
/// line `l`, fetch `l + 1`. "Sequential" means `l` extends (or repeats)
/// the previously missed line — arbitrary misses do not trigger it.
#[derive(Debug, Clone)]
pub struct NextLinePrefetcher {
    last_miss: u64,
}

impl NextLinePrefetcher {
    /// A fresh streamer that has seen no miss yet.
    pub fn new() -> Self {
        NextLinePrefetcher { last_miss: u64::MAX }
    }
}

impl Default for NextLinePrefetcher {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for NextLinePrefetcher {
    fn box_clone(&self) -> Box<dyn Prefetcher> {
        Box::new(self.clone())
    }

    fn observe_into(&mut self, line: u64, out: &mut Vec<u64>) -> Option<usize> {
        let sequential = line == self.last_miss.wrapping_add(1) || line == self.last_miss;
        self.last_miss = line;
        if sequential {
            out.push(line + 1);
        }
        None
    }

    fn reset(&mut self) {
        self.last_miss = u64::MAX;
    }
}

/// Adjacent-pair (buddy-line) unit: on every observed miss to line `l`,
/// fetch the other half of the aligned two-line sector (`l ^ 1`).
#[derive(Debug, Clone, Copy, Default)]
pub struct AdjacentPairPrefetcher;

impl Prefetcher for AdjacentPairPrefetcher {
    fn box_clone(&self) -> Box<dyn Prefetcher> {
        Box::new(*self)
    }

    fn observe_into(&mut self, line: u64, out: &mut Vec<u64>) -> Option<usize> {
        out.push(line ^ 1);
        None
    }

    fn reset(&mut self) {}
}

/// Builds the simulator unit for `cfg` at cache level `level` (0 = L1).
///
/// The legacy variants keep the seed's exact placement semantics so
/// golden statistics stay byte-identical: at L1 only `NextLine` is
/// active (the paper's simulator has no L1 stride table, so `Stride` at
/// L1 stays inert), while at L2+ `NextLine` degrades to a degree-1,
/// distance-1 stride table and `Stride` maps directly. The zoo variants
/// are live at any level.
pub(crate) fn unit_for(level: usize, cfg: &PrefetcherConfig) -> Box<dyn Prefetcher> {
    match (level, cfg) {
        (_, PrefetcherConfig::None) | (0, PrefetcherConfig::Stride { .. }) => {
            Box::new(InertPrefetcher)
        }
        (0, PrefetcherConfig::NextLine) => Box::new(NextLinePrefetcher::new()),
        (_, PrefetcherConfig::NextLine) => Box::new(StridePrefetcher::new(1, 1)),
        (_, PrefetcherConfig::Stride { degree, max_distance }) => {
            Box::new(StridePrefetcher::new(*degree, *max_distance))
        }
        (_, PrefetcherConfig::AdjacentPair) => Box::new(AdjacentPairPrefetcher),
        (_, PrefetcherConfig::ConfidentStride { degree, max_distance, min_confidence }) => {
            Box::new(StridePrefetcher::with_confidence(*degree, *max_distance, *min_confidence))
        }
        (_, PrefetcherConfig::Stream { degree, max_distance, confirm }) => {
            Box::new(StridePrefetcher::stream(*degree, *max_distance, *confirm))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_line_triggers_only_on_sequential_misses() {
        let mut p = NextLinePrefetcher::new();
        let mut out = Vec::new();
        p.observe_into(100, &mut out);
        assert!(out.is_empty(), "first miss is not sequential");
        p.observe_into(101, &mut out);
        assert_eq!(out, vec![102]);
        out.clear();
        p.observe_into(500, &mut out);
        assert!(out.is_empty(), "a jump is not sequential");
        p.observe_into(500, &mut out);
        assert_eq!(out, vec![501], "a repeat counts as sequential");
    }

    #[test]
    fn adjacent_pair_fetches_buddy() {
        let mut p = AdjacentPairPrefetcher;
        let mut out = Vec::new();
        p.observe_into(100, &mut out);
        p.observe_into(101, &mut out);
        assert_eq!(out, vec![101, 100]);
    }

    #[test]
    fn inert_unit_does_nothing() {
        let mut p = InertPrefetcher;
        let mut out = Vec::new();
        assert_eq!(p.observe_into(42, &mut out), None);
        assert!(out.is_empty());
        assert!(p.disabled());
    }

    #[test]
    fn factory_keeps_legacy_placement() {
        // L1 Stride is inert (the seed had no L1 stride table)...
        let cfg = PrefetcherConfig::Stride { degree: 2, max_distance: 20 };
        assert!(unit_for(0, &cfg).disabled());
        // ...while the same config at L2 is a live stride table.
        assert!(!unit_for(1, &cfg).disabled());
        assert!(unit_for(1, &PrefetcherConfig::None).disabled());
        assert!(!unit_for(0, &PrefetcherConfig::NextLine).disabled());
    }

    #[test]
    fn conservative_defaults_opt_out_of_the_lock() {
        // A minimal custom strategy: only the mandatory methods. The
        // defaults must keep it out of the run engine's stream lock.
        #[derive(Debug, Clone)]
        struct Custom;
        impl Prefetcher for Custom {
            fn box_clone(&self) -> Box<dyn Prefetcher> {
                Box::new(self.clone())
            }
            fn observe_into(&mut self, line: u64, out: &mut Vec<u64>) -> Option<usize> {
                out.push(line + 3);
                Some(0)
            }
            fn reset(&mut self) {}
        }
        let mut c = Custom;
        assert!(!c.expects(0, 1));
        assert!(c.preempts(0, 1), "default preemption forces the full observe");
        assert!(!c.silent(0));
        assert!(c.ramp_state(0).is_none());
        let mut out = Vec::new();
        c.observe_expected(0, 7, &mut out);
        assert_eq!(out, vec![10], "default expected feed is the full observe");
    }
}
