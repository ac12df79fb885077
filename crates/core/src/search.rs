//! The parallel, memoized, branch-and-bound candidate-search engine.
//!
//! Every optimizer in the workspace — the temporal and spatial tilers
//! here, and the autotuner in `palo-baselines` — walks a finite candidate
//! list and keeps the minimum of a deterministic cost function. This
//! module factors that walk into one engine with three properties the
//! callers must not have to re-derive:
//!
//! * **Parallel and bit-deterministic.** Candidates are sharded across a
//!   scoped [`std::thread`] pool (no external dependencies). The winner
//!   is defined by a *total order* — `(cost bits, tie bits, lexicographic
//!   key)` compared exactly, no tolerances — so the minimum of the
//!   candidate set is a property of the set, not of the visit order:
//!   1 worker, 2 workers and N workers return bit-identical results.
//! * **Pruned.** Workers share the best cost seen so far in an
//!   [`AtomicU64`] holding the cost's IEEE-754 bits ([`Incumbent`]).
//!   A caller with a cheap *admissible* lower bound skips a candidate
//!   when the bound is *strictly* worse than the incumbent; since the
//!   bound never exceeds the true cost, the global minimum (and every
//!   cost-tied candidate, by strictness) survives pruning — the result
//!   is exact, only faster.
//! * **Memoized.** A sharded mutex-striped [`MemoTable`] caches the
//!   Algorithm-1 `emu()` bounds process-wide, across candidates and
//!   across optimizer invocations. Footprint terms are not memoized:
//!   they cost a few multiply-adds per array dimension, less than a
//!   lookup.
//!
//! Counters ([`SearchCounters`] → [`SearchStats`]) record how much work
//! the engine did and how much it skipped; the pipeline surfaces them in
//! `PipelineReport::search` and perfbench reports them per layer
//! (`core.search.*`).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Floating-point cost as orderable bits. Costs produced by the models
/// are finite and non-negative, where the IEEE-754 bit pattern is
/// monotonic in the value; NaN (never produced, but belt-and-braces) maps
/// to `u64::MAX` so it loses to every real cost.
#[inline]
pub fn cost_bits(cost: f64) -> u64 {
    if cost.is_nan() {
        u64::MAX
    } else {
        cost.max(0.0).to_bits()
    }
}

/// One evaluated candidate: its cost pair and a lexicographic tie-break
/// key. The engine keeps the minimum under the total order
/// `(primary, secondary, key)`.
pub trait Candidate: Send {
    /// `(primary cost bits, secondary/tie cost bits)`; lower wins.
    fn cost_key(&self) -> (u64, u64);
    /// Final tie-break, compared lexicographically. Distinct candidates
    /// must have distinct keys for the order to be total.
    fn tie_key(&self) -> &[usize];
}

/// Strict total order: does `a` beat (rank strictly before) `b`?
pub fn beats<C: Candidate>(a: &C, b: &C) -> bool {
    (a.cost_key(), a.tie_key()) < (b.cost_key(), b.tie_key())
}

/// The shared best-so-far primary cost, as bits, for branch-and-bound.
///
/// Starts at `u64::MAX` (worse than any real cost), only ever decreases
/// ([`AtomicU64::fetch_min`]), and is safe to read stale: a stale value
/// is an *upper* bound on the incumbent, so pruning against it is
/// conservative.
#[derive(Debug)]
pub struct Incumbent(AtomicU64);

impl Default for Incumbent {
    fn default() -> Self {
        Incumbent(AtomicU64::new(u64::MAX))
    }
}

impl Incumbent {
    /// Records a candidate's primary cost.
    #[inline]
    pub fn observe(&self, cost: f64) {
        self.0.fetch_min(cost_bits(cost), Ordering::Relaxed);
    }

    /// Whether an *admissible* lower bound already loses to the incumbent
    /// — strictly, so cost-tied candidates are never pruned and the
    /// lexicographic tie-break stays deterministic.
    #[inline]
    pub fn prunes(&self, lower_bound: f64) -> bool {
        cost_bits(lower_bound) > self.0.load(Ordering::Relaxed)
    }
}

/// Live counters of one search, shared across workers.
#[derive(Debug, Default)]
pub struct SearchCounters {
    /// Candidates whose cost model was fully evaluated.
    pub evaluated: AtomicU64,
    /// Candidates skipped because their lower bound lost to the
    /// incumbent.
    pub pruned: AtomicU64,
    /// Memo-table hits for Algorithm-1 `emu()` bounds.
    pub emu_memo_hits: AtomicU64,
    /// Memo-table misses for Algorithm-1 `emu()` bounds.
    pub emu_memo_misses: AtomicU64,
}

impl SearchCounters {
    /// Freezes the counters into a report.
    pub fn snapshot(&self, workers: usize, wall: Duration) -> SearchStats {
        SearchStats {
            workers,
            candidates_evaluated: self.evaluated.load(Ordering::Relaxed),
            candidates_pruned: self.pruned.load(Ordering::Relaxed),
            memo_hits: 0,
            memo_misses: 0,
            emu_memo_hits: self.emu_memo_hits.load(Ordering::Relaxed),
            emu_memo_misses: self.emu_memo_misses.load(Ordering::Relaxed),
            wall,
        }
    }
}

/// What one search did: evaluated/pruned/memoized counts and wall time.
///
/// Attached to `PipelineReport::search` and merged across pipeline stages
/// with [`SearchStats::absorb`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Worker threads used (1 = sequential path).
    pub workers: usize,
    /// Candidates whose cost model was fully evaluated.
    pub candidates_evaluated: u64,
    /// Candidates skipped by branch-and-bound.
    pub candidates_pruned: u64,
    /// Always 0. Footprint terms are computed directly, with no memo;
    /// the field stays because the optimize artifact's wire format
    /// (`codec`) and external readers of [`SearchStats`] carry it.
    pub memo_hits: u64,
    /// Always 0, for the same reason as [`SearchStats::memo_hits`].
    pub memo_misses: u64,
    /// Algorithm-1 `emu()` memo hits.
    pub emu_memo_hits: u64,
    /// Algorithm-1 `emu()` memo misses.
    pub emu_memo_misses: u64,
    /// Wall-clock time of the search stage.
    pub wall: Duration,
}

impl SearchStats {
    /// Accumulates another stage's stats (multi-stage benchmarks, 3mm).
    pub fn absorb(&mut self, other: &SearchStats) {
        self.workers = self.workers.max(other.workers);
        self.candidates_evaluated += other.candidates_evaluated;
        self.candidates_pruned += other.candidates_pruned;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.emu_memo_hits += other.emu_memo_hits;
        self.emu_memo_misses += other.emu_memo_misses;
        self.wall += other.wall;
    }
}

/// Resolves a requested worker count: explicit value, else the
/// `PALO_SEARCH_THREADS` environment variable, else the machine's
/// available parallelism (capped to keep spawn overhead sane).
pub fn resolve_threads(requested: Option<usize>) -> usize {
    if let Some(t) = requested {
        return t.max(1);
    }
    if let Some(v) = std::env::var_os("PALO_SEARCH_THREADS") {
        if let Some(t) = v.to_str().and_then(|s| s.trim().parse::<usize>().ok()) {
            return t.max(1);
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(16)
}

/// Below this many candidates the scoped pool is not worth its spawn
/// cost and the engine runs inline (the result is identical either way —
/// that is the determinism contract). Tile searches at the scaled suite
/// sizes sit just under this; divisor-rich paper-scale extents go well
/// over and get the pool.
const INLINE_THRESHOLD: usize = 512;

/// Candidates claimed per pool interaction. Small enough to balance
/// skewed evaluation costs, large enough to amortize the atomic claim.
const CHUNK: usize = 64;

/// Evaluates candidates `0..n` and returns the minimum under the
/// [`beats`] total order.
///
/// `eval(i, incumbent)` returns `None` for infeasible or pruned
/// candidates. It runs concurrently on up to `threads` workers and must
/// be deterministic in `i` (the incumbent may only be used for
/// *admissible* pruning via [`Incumbent::prunes`]); under that contract
/// the returned winner is bit-identical for every worker count.
pub fn search_min<C, F>(threads: usize, n: usize, eval: F) -> Option<C>
where
    C: Candidate,
    F: Fn(usize, &Incumbent) -> Option<C> + Sync,
{
    if threads <= 1 || n <= INLINE_THRESHOLD {
        search_inline(n, &eval)
    } else {
        search_pooled(threads, n, CHUNK, &eval)
    }
}

/// [`search_min`] with an explicit claim granularity, for candidate lists
/// that are *short but expensive per element* (the autotuner: each
/// evaluation is a full trace simulation). `chunk = 1` hands candidates
/// out one at a time; the default entry point's inline shortcut is
/// skipped so even a handful of candidates spreads across the pool.
pub fn search_min_grained<C, F>(threads: usize, n: usize, chunk: usize, eval: F) -> Option<C>
where
    C: Candidate,
    F: Fn(usize, &Incumbent) -> Option<C> + Sync,
{
    if threads <= 1 || n <= 1 {
        search_inline(n, &eval)
    } else {
        search_pooled(threads, n, chunk.max(1), &eval)
    }
}

fn search_inline<C, F>(n: usize, eval: &F) -> Option<C>
where
    C: Candidate,
    F: Fn(usize, &Incumbent) -> Option<C> + Sync,
{
    let incumbent = Incumbent::default();
    let mut best: Option<C> = None;
    for i in 0..n {
        if let Some(c) = eval(i, &incumbent) {
            incumbent.observe(f64::from_bits(c.cost_key().0));
            if best.as_ref().is_none_or(|b| beats(&c, b)) {
                best = Some(c);
            }
        }
    }
    best
}

fn search_pooled<C, F>(threads: usize, n: usize, chunk: usize, eval: &F) -> Option<C>
where
    C: Candidate,
    F: Fn(usize, &Incumbent) -> Option<C> + Sync,
{
    let incumbent = Incumbent::default();
    let next = AtomicUsize::new(0);
    let workers = threads.min(n.div_ceil(chunk)).max(1);
    let mut bests: Vec<Option<C>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (next, incumbent, eval) = (&next, &incumbent, &eval);
            handles.push(scope.spawn(move || {
                let mut local: Option<C> = None;
                loop {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    for i in start..(start + chunk).min(n) {
                        if let Some(c) = eval(i, incumbent) {
                            incumbent.observe(f64::from_bits(c.cost_key().0));
                            if local.as_ref().is_none_or(|b| beats(&c, b)) {
                                local = Some(c);
                            }
                        }
                    }
                }
                local
            }));
        }
        for h in handles {
            // A worker can only panic if `eval` panics; surface the
            // first panic payload rather than deadlocking.
            match h.join() {
                Ok(b) => bests.push(b),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    // The total order makes min associative and commutative, so folding
    // per-worker bests in any order yields the set minimum.
    bests.into_iter().flatten().fold(None, |acc: Option<C>, c| match acc {
        Some(b) if beats(&b, &c) => Some(b),
        _ => Some(c),
    })
}

/// Maps `f` over `items` on up to `threads` scoped workers, returning
/// the results **in input order**.
///
/// The same claim-an-index worker pool as [`search_min`], at granularity
/// 1: batch items (whole pipeline runs) are expensive and skewed, so
/// fine-grained claiming balances the pool. Result order is a property
/// of the input, not of scheduling — callers relying on deterministic
/// output (the batch driver) get it for free. A panic in `f` is
/// propagated after all workers drain, like the search pool.
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.min(n).max(1);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (next, f) = (&next, &f);
            handles.push(scope.spawn(move || {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(&items[i])));
                }
                local
            }));
        }
        for h in handles {
            match h.join() {
                Ok(mut part) => tagged.append(&mut part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    tagged.sort_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// [`parallel_map`] with an explicit **claim order**: workers claim
/// items in `order[0], order[1], …` instead of input order, but results
/// are still returned in input order.
///
/// This is the scheduling lever of the batch driver's priority lanes:
/// interactive items can be claimed before batch items, and large items
/// early so one huge nest overlaps the rest of the queue instead of
/// serializing its tail. Because every item's result is deterministic in
/// the item alone (the pass determinism contract), the claim order
/// affects wall-clock only — never a result bit.
///
/// `order` must be a permutation of `0..items.len()`; out-of-range
/// entries are skipped and omitted indices simply never run (debug
/// builds assert the permutation).
pub fn parallel_map_in<T, R, F>(threads: usize, order: &[usize], items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    debug_assert_eq!(
        {
            let mut sorted = order.to_vec();
            sorted.sort_unstable();
            sorted
        },
        (0..n).collect::<Vec<_>>(),
        "order must be a permutation of 0..{n}"
    );
    let workers = threads.min(n).max(1);
    if workers <= 1 {
        let mut tagged: Vec<(usize, R)> =
            order.iter().filter(|&&i| i < n).map(|&i| (i, f(&items[i]))).collect();
        tagged.sort_by_key(|(i, _)| *i);
        return tagged.into_iter().map(|(_, r)| r).collect();
    }
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (next, f) = (&next, &f);
            handles.push(scope.spawn(move || {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    if slot >= order.len() {
                        break;
                    }
                    let i = order[slot];
                    if i < n {
                        local.push((i, f(&items[i])));
                    }
                }
                local
            }));
        }
        for h in handles {
            match h.join() {
                Ok(mut part) => tagged.append(&mut part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    tagged.sort_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// A concurrent memo table: mutex-striped shards of `HashMap`.
///
/// Shards bound contention on the worker pool; each shard is capped so a
/// pathological key stream degrades to recomputation instead of
/// unbounded memory growth.
#[derive(Debug)]
pub struct MemoTable<K, V> {
    shards: Vec<Mutex<HashMap<K, V>>>,
}

/// Entries per shard before the shard is recycled.
const SHARD_CAP: usize = 8192;

impl<K: Hash + Eq, V: Clone> MemoTable<K, V> {
    /// A table with `shards` stripes (rounded up to at least 1).
    pub fn new(shards: usize) -> Self {
        MemoTable { shards: (0..shards.max(1)).map(|_| Mutex::new(HashMap::new())).collect() }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, V>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Returns the cached value for `key`, computing and inserting it on
    /// a miss. `hits`/`misses` record which happened. A poisoned shard
    /// (a panic inside another thread's compute) falls back to
    /// recomputation, keeping the engine panic-isolated.
    pub fn get_or_compute(
        &self,
        key: K,
        hits: &AtomicU64,
        misses: &AtomicU64,
        compute: impl FnOnce() -> V,
    ) -> V {
        let shard = self.shard(&key);
        if let Ok(map) = shard.lock() {
            if let Some(v) = map.get(&key) {
                hits.fetch_add(1, Ordering::Relaxed);
                return v.clone();
            }
        }
        misses.fetch_add(1, Ordering::Relaxed);
        let v = compute();
        if let Ok(mut map) = shard.lock() {
            if map.len() >= SHARD_CAP {
                map.clear();
            }
            map.insert(key, v.clone());
        }
        v
    }

    /// Total cached entries (test/introspection helper).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map(|m| m.len()).unwrap_or(0)).sum()
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Cand {
        cost: f64,
        tie: f64,
        key: Vec<usize>,
    }

    impl Candidate for Cand {
        fn cost_key(&self) -> (u64, u64) {
            (cost_bits(self.cost), cost_bits(self.tie))
        }
        fn tie_key(&self) -> &[usize] {
            &self.key
        }
    }

    /// A deterministic pseudo-cost so tests cover ties and ordering.
    fn cost_of(i: usize) -> f64 {
        ((i as f64 * 37.0) % 101.0).floor()
    }

    fn eval_all(i: usize, _inc: &Incumbent) -> Option<Cand> {
        Some(Cand { cost: cost_of(i), tie: 0.0, key: vec![i] })
    }

    #[test]
    fn inline_and_parallel_agree() {
        let n = 10_000;
        let seq = search_min(1, n, eval_all).unwrap();
        for threads in [2, 3, 8] {
            let par = search_min(threads, n, eval_all).unwrap();
            assert_eq!(par, seq, "threads {threads}");
        }
    }

    #[test]
    fn ties_break_lexicographically() {
        // cost_of has many ties (values repeat every 101 indices); the
        // winner must be the smallest index among the minimum-cost ones.
        let n = 5000;
        let win = search_min(4, n, eval_all).unwrap();
        let expect = (0..n).filter(|&i| cost_of(i) == 0.0).min().unwrap();
        assert_eq!(win.key, vec![expect]);
        assert_eq!(win.cost, 0.0);
    }

    #[test]
    fn pruning_preserves_the_winner() {
        // Admissible bound: half the true cost. Count prunes to make
        // sure the bound actually fires.
        let pruned = AtomicU64::new(0);
        let eval = |i: usize, inc: &Incumbent| -> Option<Cand> {
            let c = cost_of(i);
            if inc.prunes(c / 2.0) {
                pruned.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Some(Cand { cost: c, tie: 0.0, key: vec![i] })
        };
        let n = 50_000;
        let win = search_min(4, n, eval).unwrap();
        let full = search_min(1, n, eval_all).unwrap();
        assert_eq!(win, full);
        assert!(pruned.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn grained_pool_agrees_with_inline_on_short_lists() {
        // Short list, chunk 1: the coarse-grained entry must still
        // return the inline winner bit-for-bit.
        for n in [0, 1, 2, 7, 12] {
            let seq = search_min(1, n, eval_all);
            for threads in [2, 5] {
                let par = search_min_grained(threads, n, 1, eval_all);
                assert_eq!(par, seq, "n {n} threads {threads}");
            }
        }
    }

    #[test]
    fn infeasible_everywhere_returns_none() {
        let r = search_min(3, 9000, |_i, _inc| -> Option<Cand> { None });
        assert!(r.is_none());
    }

    #[test]
    fn empty_space_returns_none() {
        assert!(search_min(2, 0, eval_all).is_none());
    }

    #[test]
    fn incumbent_monotone_and_strict() {
        let inc = Incumbent::default();
        assert!(!inc.prunes(1e300)); // nothing observed yet
        inc.observe(10.0);
        inc.observe(25.0); // worse, must not raise the bar
        assert!(inc.prunes(10.000001));
        assert!(!inc.prunes(10.0)); // ties are never pruned
        assert!(!inc.prunes(9.0));
    }

    #[test]
    fn cost_bits_orders_costs() {
        assert!(cost_bits(0.0) < cost_bits(1.0));
        assert!(cost_bits(1.0) < cost_bits(1.0000001));
        assert!(cost_bits(f64::INFINITY) < cost_bits(f64::NAN));
        assert_eq!(cost_bits(-3.0), cost_bits(0.0)); // clamped
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let seq = parallel_map(1, &items, |&i| i * 3);
        for threads in [2, 5, 16] {
            assert_eq!(parallel_map(threads, &items, |&i| i * 3), seq, "threads {threads}");
        }
        assert_eq!(seq[256], 768);
        assert!(parallel_map(4, &Vec::<usize>::new(), |&i: &usize| i).is_empty());
    }

    #[test]
    fn memo_table_hits_and_caps() {
        let t: MemoTable<u64, u64> = MemoTable::new(4);
        let (h, m) = (AtomicU64::new(0), AtomicU64::new(0));
        assert_eq!(t.get_or_compute(7, &h, &m, || 49), 49);
        assert_eq!(t.get_or_compute(7, &h, &m, || 0), 49);
        assert_eq!(h.load(Ordering::Relaxed), 1);
        assert_eq!(m.load(Ordering::Relaxed), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn resolve_threads_prefers_explicit() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn stats_snapshot_and_absorb() {
        let c = SearchCounters::default();
        c.evaluated.fetch_add(5, Ordering::Relaxed);
        c.pruned.fetch_add(2, Ordering::Relaxed);
        let mut s = c.snapshot(4, Duration::from_millis(3));
        let c2 = SearchCounters::default();
        c2.evaluated.fetch_add(1, Ordering::Relaxed);
        c2.emu_memo_hits.fetch_add(9, Ordering::Relaxed);
        s.absorb(&c2.snapshot(2, Duration::from_millis(1)));
        assert_eq!(s.workers, 4);
        assert_eq!(s.candidates_evaluated, 6);
        assert_eq!(s.candidates_pruned, 2);
        assert_eq!(s.emu_memo_hits, 9);
        assert_eq!(s.wall, Duration::from_millis(4));
    }
}
