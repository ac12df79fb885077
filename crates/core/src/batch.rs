//! [`BatchDriver`]: concurrent suite-scale execution over one
//! [`Session`]'s shared artifact cache.
//!
//! The driver maps [`Session::run`] over a list of nests on the same
//! scoped worker pool the candidate search uses
//! ([`crate::search::parallel_map`]), with:
//!
//! * **Per-nest isolation** — each item's outcome is independent; a
//!   panic or error in one nest becomes that item's `Err`, the rest of
//!   the batch completes (the PR-1 fault-tolerance semantics, batch
//!   scale).
//! * **Deterministic results** — outcomes are returned in input order,
//!   and because pass artifacts are keyed by content (never by worker or
//!   schedule timing), every worker count and every cold/warm cache
//!   state produces bit-identical decisions, rungs and estimates.
//! * **Shared cache** — duplicate kernels across the batch (or a batch
//!   re-run on a warm session) hit the session's artifact cache.

use crate::error::{catch_panic, PaloError};
use crate::pass::CacheStats;
use crate::pipeline::{PipelineOutcome, RunOverrides};
use crate::search::{parallel_map_in, resolve_threads};
use crate::session::Session;
use palo_ir::{LoopNest, StableHash};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Concurrent batch executor borrowing a [`Session`].
#[derive(Debug)]
pub struct BatchDriver<'s> {
    session: &'s Session,
    threads: Option<usize>,
}

/// Scheduling lane of one batch request.
///
/// Lanes order *claiming*, not results: a mixed batch claims every
/// interactive item before any batch item, so latency-sensitive work is
/// never stuck behind a backlog of bulk work on a busy driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive: claimed before every batch-lane item.
    Interactive,
    /// Throughput-oriented bulk work (the default).
    #[default]
    Batch,
}

impl Priority {
    /// Stable machine-readable name.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One item of a mixed batch: a nest plus its lane and per-request
/// overrides.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// The nest to optimize.
    pub nest: LoopNest,
    /// Claim lane ([`Priority::Interactive`] items are claimed first).
    pub priority: Priority,
    /// Per-request overrides layered over the session config (deadline,
    /// trace budget, fault plan, simulate switch).
    pub overrides: RunOverrides,
}

impl BatchRequest {
    /// A batch-lane request with no overrides.
    pub fn new(nest: LoopNest) -> Self {
        BatchRequest { nest, priority: Priority::Batch, overrides: RunOverrides::default() }
    }

    /// Sets the claim lane.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the per-request overrides.
    pub fn with_overrides(mut self, overrides: RunOverrides) -> Self {
        self.overrides = overrides;
        self
    }
}

/// One batch item's result, in input order.
#[derive(Debug)]
pub struct BatchItem {
    /// The nest's kernel name (display only — not part of any cache
    /// key).
    pub name: String,
    /// The run's outcome; `Err` isolates this item's failure from the
    /// rest of the batch.
    pub outcome: Result<PipelineOutcome, PaloError>,
}

/// What one batch run did.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-nest outcomes, in input order.
    pub items: Vec<BatchItem>,
    /// Cache counter movement of this batch (a window over the
    /// session's lifetime counters).
    pub cache: CacheStats,
    /// Wall-clock time of the whole batch.
    pub elapsed: Duration,
}

impl BatchReport {
    /// Items that produced an outcome.
    pub fn succeeded(&self) -> usize {
        self.items.iter().filter(|i| i.outcome.is_ok()).count()
    }

    /// Items whose run failed outright (ladder exhausted, panic).
    pub fn failed(&self) -> usize {
        self.items.len() - self.succeeded()
    }
}

impl<'s> BatchDriver<'s> {
    /// A driver over `session` using the default worker count
    /// ([`resolve_threads`] — the `PALO_SEARCH_THREADS` environment
    /// variable, then available parallelism).
    pub fn new(session: &'s Session) -> Self {
        BatchDriver { session, threads: None }
    }

    /// Overrides the worker count (determinism tests sweep 1/2/5).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Runs every nest through the session's pass graph, concurrently,
    /// returning outcomes in input order. Equivalent to
    /// [`BatchDriver::run_requests`] with every nest in the batch lane
    /// and no overrides.
    pub fn run(&self, nests: &[LoopNest]) -> BatchReport {
        let requests: Vec<BatchRequest> =
            nests.iter().map(|n| BatchRequest::new(n.clone())).collect();
        self.run_requests(&requests)
    }

    /// Runs a mixed batch — per-request lanes and overrides — returning
    /// outcomes **in input order**.
    ///
    /// Claiming is lane- and size-aware: interactive items first, and
    /// within a lane the largest nests (by iteration count) first, so one
    /// huge nest overlaps the rest of the queue instead of serializing
    /// its tail when it would otherwise be claimed last. Within a lane,
    /// a repeat of a nest already in that lane (equal canonical form, so
    /// equal up to kernel and array names) is claimed after every
    /// distinct nest: by then its first copy has usually finished, and
    /// the repeat replays its artifacts instead of racing it on another
    /// worker. The claim order never affects a result bit (the
    /// determinism contract); it only shapes wall-clock.
    pub fn run_requests(&self, requests: &[BatchRequest]) -> BatchReport {
        let start = Instant::now();
        let before = self.session.cache_stats();
        let threads = resolve_threads(self.threads);
        let order = claim_order(requests);
        let items = parallel_map_in(threads, &order, requests, |req| BatchItem {
            name: req.nest.name().to_string(),
            // Session::run guards each stage already; the outer
            // catch_panic is the batch-level isolation boundary, so even
            // a bug outside the guarded stages costs one item, not the
            // batch.
            outcome: catch_panic("batch-item", || {
                self.session.run_with(&req.nest, &req.overrides)
            })
            .and_then(|r| r),
        });
        BatchReport {
            items,
            cache: self.session.cache_stats().since(&before),
            elapsed: start.elapsed(),
        }
    }
}

/// The claim order of a mixed batch: interactive lane before batch lane;
/// within a lane, distinct nests before repeats (a nest whose
/// [`digest`](palo_ir::StableHash::digest) an earlier request in the same
/// lane has), then largest iteration count first; ties in input order
/// (the order is a pure function of the request list — deterministic).
fn claim_order(requests: &[BatchRequest]) -> Vec<usize> {
    let mut seen = HashSet::new();
    let repeat: Vec<bool> =
        requests.iter().map(|r| !seen.insert((r.priority, r.nest.digest()))).collect();
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (&requests[a], &requests[b]);
        ra.priority
            .cmp(&rb.priority)
            .then(repeat[a].cmp(&repeat[b]))
            .then_with(|| rb.nest.iteration_count().cmp(&ra.nest.iteration_count()))
            .then(a.cmp(&b))
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use palo_arch::presets;
    use palo_ir::{DType, NestBuilder};

    fn matmul(name: &str, n: usize) -> LoopNest {
        matmul_named(name, ["A", "B", "C"], n)
    }

    fn matmul_named(name: &str, [an, bn, cn]: [&str; 3], n: usize) -> LoopNest {
        let mut b = NestBuilder::new(name, DType::F32);
        let i = b.var("i", n);
        let j = b.var("j", n);
        let k = b.var("k", n);
        let a = b.array(an, &[n, n]);
        let bm = b.array(bn, &[n, n]);
        let c = b.array(cn, &[n, n]);
        b.accumulate(c, &[i, j], b.load(a, &[i, k]) * b.load(bm, &[k, j]));
        b.build().unwrap()
    }

    #[test]
    fn batch_preserves_input_order_and_shares_the_cache() {
        let session =
            Session::new(&presets::intel_i7_6700(), PipelineConfig::default()).unwrap();
        // Two distinct kernels plus a duplicate of the first under
        // another name: the duplicate must hit the cache even cold.
        let nests = vec![matmul("alpha", 16), matmul("beta", 24), matmul("alpha_again", 16)];
        let report = session.batch().with_threads(2).run(&nests);
        assert_eq!(report.failed(), 0);
        let names: Vec<&str> = report.items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, ["alpha", "beta", "alpha_again"]);
        let (a, c) = (&report.items[0], &report.items[2]);
        let (ao, co) = (a.outcome.as_ref().unwrap(), c.outcome.as_ref().unwrap());
        assert_eq!(ao.decision, co.decision);
        assert!(report.cache.hits > 0, "duplicate kernel must hit: {:?}", report.cache);
    }

    #[test]
    fn sim_cap_bounds_concurrent_simulations_below_worker_count() {
        let config =
            PipelineConfig { max_concurrent_sims: Some(1), ..PipelineConfig::default() };
        let session = Session::new(&presets::intel_i7_6700(), config).unwrap();
        // Six distinct kernels on four workers: without the gate the
        // simulate stage would overlap up to four ways.
        let nests: Vec<LoopNest> =
            (0..6).map(|i| matmul(&format!("mm{i}"), 16 + 2 * i)).collect();
        let report = session.batch().with_threads(4).run(&nests);
        assert_eq!(report.failed(), 0);
        assert_eq!(
            session.max_sims_observed(),
            1,
            "simulate stage exceeded its concurrency cap"
        );
    }

    #[test]
    fn claim_order_is_lane_then_size_then_input_order() {
        let requests = vec![
            BatchRequest::new(matmul("big_batch", 32)),
            BatchRequest::new(matmul("small_int", 8)).with_priority(Priority::Interactive),
            BatchRequest::new(matmul("small_batch", 8)),
            BatchRequest::new(matmul("big_int", 32)).with_priority(Priority::Interactive),
            BatchRequest::new(matmul("small_batch2", 8)),
        ];
        // Interactive first (largest first within the lane), then batch
        // largest-first, ties in input order.
        assert_eq!(claim_order(&requests), vec![3, 1, 0, 2, 4]);
    }

    #[test]
    fn claim_order_puts_repeats_after_distinct_nests() {
        let requests = vec![
            BatchRequest::new(matmul("mm16", 16)),
            BatchRequest::new(matmul("mm32", 32)),
            BatchRequest::new(matmul("mm16_again", 16)),
            // The same nest in the other lane is that lane's first copy.
            BatchRequest::new(matmul("mm32_int", 32)).with_priority(Priority::Interactive),
            BatchRequest::new(matmul("mm8", 8)),
            // Equal up to array names: `3mm`'s `F = C·D` stage.
            BatchRequest::new(matmul_named("3mm_f", ["C", "D", "F"], 32)),
        ];
        // Interactive first; then the batch lane's distinct nests largest
        // first, then its repeats largest first.
        assert_eq!(claim_order(&requests), vec![3, 1, 0, 4, 5, 2]);
    }

    #[test]
    fn mixed_lanes_and_overrides_return_input_order_results() {
        let session =
            Session::new(&presets::intel_i7_6700(), PipelineConfig::default()).unwrap();
        let requests = vec![
            BatchRequest::new(matmul("bulk", 24)),
            BatchRequest::new(matmul("urgent", 16)).with_priority(Priority::Interactive),
            // A request-scoped shed to the analytical model: no estimate.
            BatchRequest::new(matmul("shed", 16))
                .with_overrides(RunOverrides { simulate: Some(false), ..Default::default() }),
        ];
        let report = session.batch().with_threads(2).run_requests(&requests);
        assert_eq!(report.failed(), 0);
        let names: Vec<&str> = report.items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, ["bulk", "urgent", "shed"]);
        let shed = report.items[2].outcome.as_ref().unwrap();
        assert!(shed.report.estimate.is_none(), "simulate override must shed the estimate");
        let urgent = report.items[1].outcome.as_ref().unwrap();
        assert!(urgent.report.estimate.is_some());
    }

    #[test]
    fn one_bad_nest_does_not_sink_the_batch() {
        let mut arch = presets::intel_i7_6700();
        arch.caches.truncate(1); // Session::new would reject this...
        assert!(Session::new(&arch, PipelineConfig::default()).is_err());

        // ...so break one *run* instead: exhaust the ladder via faults on
        // a fresh session per batch (faults are session-wide), proving
        // the errored item is isolated in the report.
        let mut config = PipelineConfig::default();
        config.faults.fail_first_lowerings = u64::MAX; // every rung fails
        let session = Session::new(&presets::intel_i7_6700(), config).unwrap();
        let report = session.batch().with_threads(2).run(&[matmul("a", 8), matmul("b", 8)]);
        assert_eq!(report.failed(), 2);
        assert_eq!(report.items.len(), 2);
        for item in &report.items {
            assert!(item.outcome.is_err());
        }
    }
}
