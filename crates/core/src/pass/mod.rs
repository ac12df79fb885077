//! The typed pass framework behind [`Session`](crate::Session).
//!
//! The former monolithic pipeline is split into six passes, each a
//! [`Pass`] with a typed input and a typed, immutable output artifact:
//!
//! | pass | input | artifact |
//! |---|---|---|
//! | [`ClassifyPass`] | nest | [`ClassifyArtifact`] (kernel class) |
//! | [`OptimizePass`] | nest + class | [`OptimizeArtifact`] (decision + search stats) |
//! | [`DegradePass`] | nest + proposed schedule | [`DegradeArtifact`] (the ladder rungs) |
//! | [`LowerPass`] | nest + schedule | [`LowerArtifact`] (lowered nest) |
//! | [`ValidatePass`] | nest + lowered | [`ValidateArtifact`] (semantic proof) |
//! | [`SimulatePass`] | nest + lowered | [`SimulateArtifact`] (time estimate) |
//!
//! A pass declares a stable [`Pass::name`] and a [`Pass::version`] and
//! computes a [`Fingerprint`] for each request; the
//! [`Session`](crate::Session) consults its content-addressed
//! [`ArtifactCache`] under that key before running the pass. A pass that
//! returns `None` from [`Pass::fingerprint`] is uncacheable for that
//! request (e.g. [`SimulatePass`] under a wall-clock deadline), and the
//! session bypasses the cache wholesale while a
//! [`FaultPlan`](crate::FaultPlan) is armed — injected faults must fire
//! on every run and must never poison the cache. Only *successful*
//! artifacts are cached; errors always recompute.
//!
//! The cache key folds the pass name and version first, so two passes
//! can never collide on a key and a bumped version invalidates exactly
//! that pass's artifacts (DESIGN.md §12).

mod classify;
mod degrade;
mod lower;
mod optimize;
mod simulate;
mod validate;

pub use classify::{ClassifyArtifact, ClassifyPass};
pub use degrade::{DegradeArtifact, DegradePass};
pub use lower::{LowerArtifact, LowerPass};
pub use optimize::{OptimizeArtifact, OptimizePass};
pub use simulate::{SimulateArtifact, SimulatePass};
pub use validate::{ValidateArtifact, ValidatePass};

pub(crate) use optimize::dispatch;

use crate::error::PaloError;
use crate::fingerprint::Fingerprint;
use crate::model::ResolvedModel;
use crate::pipeline::PipelineConfig;
use crate::store::{ArtifactStore, CacheConfig, StoredArtifact, TierStats, TieredStore};
use palo_arch::Architecture;
use palo_codec::{frame, Codec};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Read-only context every pass runs under: the session's architecture
/// and configuration, the once-resolved cost model, and the per-run
/// mutable control block.
pub struct PassCx<'s> {
    /// The *original* target architecture (simulation, lowering and the
    /// `ContiguousOnly` passthrough run against it; the optimizer search
    /// runs against `resolved.arch`).
    pub arch: &'s Architecture,
    /// The session's pipeline configuration.
    pub config: &'s PipelineConfig,
    /// The cost model, resolved exactly once per session
    /// ([`crate::model::resolve`]) together with its effective
    /// `(arch, config)` pair.
    pub resolved: &'s ResolvedModel,
    /// Per-run mutable state (fault counters, start time).
    pub ctl: &'s RunCtl,
}

/// Per-run mutable control block, threaded through the passes of one
/// [`Session::run`](crate::Session::run) call.
///
/// Besides the mutable counters, the control block carries the run's
/// **effective** resource budget, fault plan and simulate switch — the
/// session config with the request's
/// [`RunOverrides`](crate::RunOverrides) layered on top
/// ([`RunCtl::for_run`]). Passes consult these instead of
/// `cx.config`, so two concurrent runs of one session can carry
/// different deadlines or fault plans without interfering.
///
/// Fault-injection counters are *run*-scoped, not pass- or
/// session-scoped: `FaultPlan::fail_first_lowerings = 2` means the first
/// two lowering attempts *of this run* fail, however many runs the
/// session has served before.
///
/// The control block of a session run also collects the run's deferred
/// disk writes: the framed artifacts
/// [`Session::execute`](crate::Session::execute) put in the memory tier
/// but owes the disk tier, persisted as the run's epilogue
/// ([`PendingWrites`](crate::PendingWrites)). A control block built by
/// hand ([`RunCtl::new`], [`RunCtl::for_run`]) defers nothing: `execute`
/// writes its artifacts through to disk at once.
#[derive(Debug)]
pub struct RunCtl {
    start: Instant,
    budget: crate::pipeline::ResourceBudget,
    faults: crate::pipeline::FaultPlan,
    simulate: bool,
    lowerings_attempted: Cell<u64>,
    timings: RefCell<Vec<PassTiming>>,
    defers_writes: bool,
    writes: RefCell<Vec<(Fingerprint, Arc<[u8]>)>>,
    cache: Cell<CacheStats>,
}

/// One pass request of a run, as timed by
/// [`Session::execute`](crate::Session::execute): how long the request
/// took wall-clock and whether the artifact came from the cache.
///
/// Requests are recorded in execution order, one entry per request (a
/// ladder that lowers three rungs records three `lower` entries);
/// aggregate with
/// [`PipelineReport::pass_totals`](crate::PipelineReport::pass_totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassTiming {
    /// The pass's stable name ([`Pass::name`]).
    pub pass: &'static str,
    /// Wall-clock time of the request. For a cached artifact this is the
    /// lookup time, not the producing run's time.
    pub elapsed: Duration,
    /// Whether the artifact was served from the cache.
    pub cached: bool,
}

impl RunCtl {
    /// A fresh control block with no budget, no faults and simulation
    /// enabled; stamps the run's start time. Prefer [`RunCtl::for_run`]
    /// inside the session, which layers request overrides over the
    /// session config.
    pub fn new() -> Self {
        RunCtl {
            start: Instant::now(),
            budget: crate::pipeline::ResourceBudget::default(),
            faults: crate::pipeline::FaultPlan::default(),
            simulate: true,
            lowerings_attempted: Cell::new(0),
            timings: RefCell::new(Vec::new()),
            defers_writes: false,
            writes: RefCell::new(Vec::new()),
            cache: Cell::new(CacheStats::default()),
        }
    }

    /// The control block of one run: `config` with the request's
    /// `overrides` layered on top ([`RunOverrides::effective`]).
    ///
    /// [`RunOverrides::effective`]: crate::RunOverrides::effective
    pub fn for_run(config: &PipelineConfig, overrides: &crate::RunOverrides) -> Self {
        let (budget, faults, simulate) = overrides.effective(config);
        RunCtl { budget, faults, simulate, ..RunCtl::new() }
    }

    /// When the run started (deadline accounting).
    pub fn start(&self) -> Instant {
        self.start
    }

    /// The run's effective resource budget (session config layered with
    /// the request's overrides).
    pub fn budget(&self) -> crate::pipeline::ResourceBudget {
        self.budget
    }

    /// The run's effective fault plan. While armed, the session bypasses
    /// the artifact cache for this run's requests.
    pub fn faults(&self) -> crate::pipeline::FaultPlan {
        self.faults
    }

    /// Whether this run executes the simulate stage.
    pub fn simulate(&self) -> bool {
        self.simulate
    }

    /// Counts one lowering attempt and returns the new total.
    pub fn count_lowering(&self) -> u64 {
        let n = self.lowerings_attempted.get() + 1;
        self.lowerings_attempted.set(n);
        n
    }

    /// Records one timed pass request.
    pub fn record_pass(&self, pass: &'static str, elapsed: Duration, cached: bool) {
        self.timings.borrow_mut().push(PassTiming { pass, elapsed, cached });
    }

    /// Drains the recorded per-pass timings (in execution order).
    pub fn take_timings(&self) -> Vec<PassTiming> {
        std::mem::take(&mut self.timings.borrow_mut())
    }

    /// This control block with its disk writes deferred to the run's
    /// epilogue instead of written through.
    pub(crate) fn deferring_writes(self) -> Self {
        RunCtl { defers_writes: true, ..self }
    }

    /// Whether new artifacts' disk writes wait for the run's epilogue.
    pub(crate) fn defers_writes(&self) -> bool {
        self.defers_writes
    }

    /// Records one disk write the run owes: `bytes` framed under `key`.
    pub(crate) fn defer_write(&self, key: Fingerprint, bytes: Arc<[u8]>) {
        self.writes.borrow_mut().push((key, bytes));
    }

    /// Drains the recorded disk writes (in execution order).
    pub(crate) fn take_writes(&self) -> Vec<(Fingerprint, Arc<[u8]>)> {
        std::mem::take(&mut self.writes.borrow_mut())
    }

    /// Runs `f` on this run's cache counters.
    pub(crate) fn tally<R>(&self, f: impl FnOnce(&mut CacheStats) -> R) -> R {
        let mut run = self.cache.get();
        let out = f(&mut run);
        self.cache.set(run);
        out
    }

    /// The run's cache window so far: what its own lookups, bypasses and
    /// writes did, whatever other runs of the session do meanwhile.
    pub fn cache_window(&self) -> CacheStats {
        self.cache.get()
    }
}

impl Default for RunCtl {
    fn default() -> Self {
        RunCtl::new()
    }
}

/// One stage of the pipeline: a pure, deterministic function from a
/// typed input (under a [`PassCx`]) to a typed artifact.
///
/// # Contract
///
/// * `run` must be deterministic in `(cx.arch, cx.config, cx.resolved,
///   input)` — the cache serves a prior artifact in place of a re-run,
///   so any hidden input would desynchronize cached and uncached runs.
/// * `fingerprint` must fold **every** determinant of the output (the
///   session folds the pass name/version for you via
///   [`Fingerprint`] builders inside each pass) and **nothing
///   run-specific**; return `None` when a request depends on wall-clock
///   state and is therefore uncacheable.
/// * Bump `version` whenever the observable output changes for some
///   input — that, not manual invalidation, is how stale artifacts die.
pub trait Pass {
    /// The request consumed by one invocation (borrows are fine).
    type Input<'a>;
    /// The artifact produced; cached behind an [`Arc`]. The [`Codec`]
    /// bound is what lets the artifact store persist it to disk and
    /// replay it bit-identically in another process.
    type Output: Codec + Send + Sync + 'static;

    /// Stable machine-readable pass name, folded into every cache key.
    fn name(&self) -> &'static str;

    /// Artifact schema version, folded into every cache key.
    fn version(&self) -> u32;

    /// The content-addressed key of this request, or `None` when the
    /// request must not be cached.
    fn fingerprint(&self, cx: &PassCx<'_>, input: &Self::Input<'_>) -> Option<Fingerprint>;

    /// Executes the pass.
    ///
    /// # Errors
    ///
    /// Pass-specific [`PaloError`]s; errors are never cached.
    fn run(&self, cx: &PassCx<'_>, input: &Self::Input<'_>) -> Result<Self::Output, PaloError>;
}

/// Counters of one [`ArtifactCache`] (or a window of one), snapshotted
/// into [`PipelineReport::cache`](crate::PipelineReport::cache), the
/// batch report, and the serve protocol.
///
/// The request-level counters (`hits`/`misses`/`bypasses`/`anomalies`)
/// describe pass requests; the per-tier [`TierStats`] describe where
/// lookups were served and what eviction did. All counters are
/// monotonic, so [`CacheStats::since`] windows any two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from a cached artifact (either tier).
    pub hits: u64,
    /// Requests that ran their pass and stored the artifact.
    pub misses: u64,
    /// Requests that skipped the cache entirely (armed faults,
    /// uncacheable fingerprints).
    pub bypasses: u64,
    /// Cached entries that failed validation — corrupt or truncated
    /// frames, wrong pass header, undecodable payloads. Each was healed
    /// (deleted) and served as a miss, never an error.
    pub anomalies: u64,
    /// The in-memory tier's counters.
    pub mem: TierStats,
    /// The on-disk tier's counters (all zero when persistence is off).
    pub disk: TierStats,
}

impl CacheStats {
    /// Hits over cache-eligible requests (`hits + misses`); `0.0` when
    /// nothing was eligible.
    pub fn hit_rate(&self) -> f64 {
        let eligible = self.hits + self.misses;
        if eligible == 0 {
            0.0
        } else {
            self.hits as f64 / eligible as f64
        }
    }

    /// The counter movement since `earlier` (a snapshot of the same
    /// cache): windowed stats for one run or one batch.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            bypasses: self.bypasses.saturating_sub(earlier.bypasses),
            anomalies: self.anomalies.saturating_sub(earlier.anomalies),
            mem: self.mem.since(&earlier.mem),
            disk: self.disk.since(&earlier.disk),
        }
    }

    /// Accumulates another snapshot's counters (aggregating windowed
    /// stats across runs or serve outcomes).
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.bypasses += other.bypasses;
        self.anomalies += other.anomalies;
        self.mem.absorb(&other.mem);
        self.disk.absorb(&other.disk);
    }
}

/// The session's content-addressed artifact cache: the typed front of
/// the [`TieredStore`].
///
/// Artifacts live in the store as [`StoredArtifact`]s — the canonical
/// framed encoding plus, in memory, the decoded `Arc` — so a warm
/// in-memory hit is an `Arc` clone, a disk hit decodes once and is
/// promoted, and a cold run computes, [`stage`](ArtifactCache::stage)s
/// into memory and [`persist`](ArtifactCache::persist)s to disk at the
/// end of the run. Every operation counts into the cache's lifetime
/// counters and into the caller's run window (a [`CacheStats`]). The
/// pass name
/// and version are stamped in every frame header and checked on every
/// disk-served hit; any mismatch or decode failure counts an anomaly,
/// heals the entry, and degrades to a miss.
#[derive(Debug)]
pub struct ArtifactCache {
    store: TieredStore,
    hits: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
    anomalies: AtomicU64,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        ArtifactCache::new()
    }
}

impl ArtifactCache {
    /// An empty memory-only cache with the original unbounded behavior.
    pub fn new() -> Self {
        ArtifactCache::over(TieredStore::unbounded())
    }

    /// A cache over the tier stack `config` describes.
    ///
    /// # Errors
    ///
    /// [`PaloError::Store`] when the configured cache directory cannot
    /// be opened.
    pub fn with_config(config: &CacheConfig) -> Result<Self, PaloError> {
        Ok(ArtifactCache::over(TieredStore::from_config(config)?))
    }

    fn over(store: TieredStore) -> Self {
        ArtifactCache {
            store,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            anomalies: AtomicU64::new(0),
        }
    }

    /// Whether artifacts persist to disk.
    pub fn persistent(&self) -> bool {
        self.store.persistent()
    }

    fn count_hit(&self, run: &mut CacheStats) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        run.hits += 1;
    }

    fn count_miss(&self, run: &mut CacheStats) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        run.misses += 1;
    }

    /// Heals an invalid entry: counts the anomaly, drops the entry from
    /// every tier, and reports the lookup as a miss.
    fn count_anomaly(&self, key: Fingerprint, run: &mut CacheStats) {
        self.anomalies.fetch_add(1, Ordering::Relaxed);
        run.anomalies += 1;
        self.store.heal(key, run);
        self.count_miss(run);
    }

    /// The artifact under `key`, if a valid one is cached for this
    /// `(pass, pass_version)`. Counts a hit, a miss, or an anomaly, into
    /// the lifetime counters and into `run`.
    pub fn get<T: Codec + Send + Sync + 'static>(
        &self,
        key: Fingerprint,
        pass: &str,
        pass_version: u32,
        run: &mut CacheStats,
    ) -> Option<Arc<T>> {
        let Some(stored) = self.store.lookup(key, run) else {
            self.count_miss(run);
            return None;
        };
        if let Some(value) = &stored.value {
            // A memory-tier hit: the decoded artifact is already shared.
            return match value.clone().downcast::<T>() {
                Ok(hit) => {
                    self.count_hit(run);
                    Some(hit)
                }
                Err(_) => {
                    // Unreachable while keys fold pass identity; healed
                    // as an anomaly if it ever happens.
                    self.count_anomaly(key, run);
                    None
                }
            };
        }
        // A disk-tier hit, whose frame the disk tier has verified (the
        // memory tier only holds decoded values): check the stamped
        // header against the requesting pass, decode once, promote.
        let decoded = match frame::read_verified_frame(&stored.bytes) {
            Ok(f) if f.pass == pass && f.pass_version == pass_version => {
                T::decode_from_slice(f.payload).ok()
            }
            _ => None,
        };
        match decoded {
            Some(artifact) => {
                let artifact = Arc::new(artifact);
                self.store.put_mem(
                    key,
                    StoredArtifact { value: Some(artifact.clone()), bytes: stored.bytes },
                    run,
                );
                self.count_hit(run);
                Some(artifact)
            }
            None => {
                self.count_anomaly(key, run);
                None
            }
        }
    }

    /// Stores `artifact` under `key`, framed as `(pass, pass_version)`,
    /// writing through every tier: [`stage`](ArtifactCache::stage), then
    /// [`persist`](ArtifactCache::persist).
    pub fn insert<T: Codec + Send + Sync + 'static>(
        &self,
        key: Fingerprint,
        pass: &str,
        pass_version: u32,
        artifact: Arc<T>,
    ) {
        let mut run = CacheStats::default();
        if let Some(bytes) = self.stage(key, pass, pass_version, artifact, &mut run) {
            self.persist(key, bytes, &mut run);
        }
    }

    /// Stores `artifact` under `key`, framed as `(pass, pass_version)`,
    /// in the memory tier only, so every later lookup in this process
    /// hits at once. Returns the framed bytes the disk tier still owes,
    /// or `None` when there is no disk tier.
    pub fn stage<T: Codec + Send + Sync + 'static>(
        &self,
        key: Fingerprint,
        pass: &str,
        pass_version: u32,
        artifact: Arc<T>,
        run: &mut CacheStats,
    ) -> Option<Arc<[u8]>> {
        let bytes: Arc<[u8]> =
            frame::encode_frame(pass, pass_version, &artifact.encode_to_vec()).into();
        let stored = StoredArtifact { value: Some(artifact), bytes: bytes.clone() };
        self.store.put_mem(key, stored, run);
        self.persistent().then_some(bytes)
    }

    /// Writes a [`stage`](ArtifactCache::stage)d artifact's framed bytes
    /// to the disk tier.
    pub fn persist(&self, key: Fingerprint, bytes: Arc<[u8]>, run: &mut CacheStats) {
        self.store.persist(key, bytes, run);
    }

    /// Counts one cache-bypassed request.
    pub fn count_bypass(&self, run: &mut CacheStats) {
        self.bypasses.fetch_add(1, Ordering::Relaxed);
        run.bypasses += 1;
    }

    /// Artifacts currently resident in the memory tier.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the memory tier holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime counters of this cache, request-level and per-tier.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            anomalies: self.anomalies.load(Ordering::Relaxed) + self.store.disk_anomalies(),
            mem: self.store.mem_stats(),
            disk: self.store.disk_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PolicyKind;
    use palo_ir::Digest;

    fn key(n: u128) -> Fingerprint {
        Fingerprint(Digest(n))
    }

    #[test]
    fn cache_round_trips_and_counts() {
        let mut run = CacheStats::default();
        let cache = ArtifactCache::new();
        assert!(cache.get::<String>(key(1), "p", 1, &mut run).is_none());
        cache.insert(key(1), "p", 1, Arc::new("artifact".to_string()));
        assert_eq!(*cache.get::<String>(key(1), "p", 1, &mut run).unwrap(), "artifact");
        cache.count_bypass(&mut run);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.bypasses, s.anomalies), (1, 1, 1, 0));
        assert_eq!(s.hit_rate(), 0.5);
        // The run window saw every operation but the insert.
        assert_eq!(run, CacheStats { mem: TierStats { bytes_written: 0, ..s.mem }, ..s });
        assert_eq!(cache.len(), 1);
        assert!(!cache.persistent());
    }

    #[test]
    fn mismatched_type_is_healed_as_an_anomaly() {
        let mut run = CacheStats::default();
        let cache = ArtifactCache::new();
        cache.insert(key(2), "p", 1, Arc::new(7u64));
        assert!(cache.get::<String>(key(2), "p", 1, &mut run).is_none());
        let s = cache.stats();
        assert_eq!((s.anomalies, s.misses), (1, 1));
        // The poisoned entry was dropped, so even the right type misses.
        assert!(cache.get::<u64>(key(2), "p", 1, &mut run).is_none());
    }

    #[test]
    fn a_disk_served_artifact_decodes_promotes_and_replays() {
        let mut run = CacheStats::default();
        let root =
            std::env::temp_dir().join(format!("palo-cache-promote-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let config = CacheConfig { dir: Some(root.clone()), ..CacheConfig::default() };

        let cold = ArtifactCache::with_config(&config).unwrap();
        cold.insert(key(3), "p", 2, Arc::new(41u64));
        drop(cold);

        let warm = ArtifactCache::with_config(&config).unwrap();
        assert_eq!(*warm.get::<u64>(key(3), "p", 2, &mut run).unwrap(), 41);
        assert_eq!(warm.stats().disk.hits, 1);
        // Promoted: the second hit is served by the memory tier.
        assert_eq!(*warm.get::<u64>(key(3), "p", 2, &mut run).unwrap(), 41);
        assert_eq!(warm.stats().disk.hits, 1);
        assert_eq!(warm.stats().hits, 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_pass_version_bump_invalidates_disk_artifacts() {
        let mut run = CacheStats::default();
        let root =
            std::env::temp_dir().join(format!("palo-cache-version-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let config = CacheConfig { dir: Some(root.clone()), ..CacheConfig::default() };

        let cold = ArtifactCache::with_config(&config).unwrap();
        cold.insert(key(4), "p", 1, Arc::new(9u64));
        drop(cold);

        // Same key, newer pass version: the stale frame is an anomaly,
        // healed and served as a miss.
        let warm = ArtifactCache::with_config(&config).unwrap();
        assert!(warm.get::<u64>(key(4), "p", 2, &mut run).is_none());
        let s = warm.stats();
        assert_eq!((s.anomalies, s.misses, s.hits), (1, 1, 0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn bounded_config_evicts_but_never_changes_values() {
        let mut run = CacheStats::default();
        let config = CacheConfig {
            policy: PolicyKind::Lru,
            capacity_entries: Some(1),
            ..CacheConfig::default()
        };
        let cache = ArtifactCache::with_config(&config).unwrap();
        cache.insert(key(5), "p", 1, Arc::new(5u64));
        cache.insert(key(6), "p", 1, Arc::new(6u64));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().mem.evictions, 1);
        // The survivor is intact; the evictee is a miss, never garbage.
        assert!(cache.get::<u64>(key(5), "p", 1, &mut run).is_none());
        assert_eq!(*cache.get::<u64>(key(6), "p", 1, &mut run).unwrap(), 6);
    }

    #[test]
    fn windowed_stats_subtract_and_absorb() {
        let a = CacheStats { hits: 10, misses: 4, bypasses: 1, ..CacheStats::default() };
        let b = CacheStats { hits: 3, misses: 4, bypasses: 0, ..CacheStats::default() };
        assert_eq!(
            a.since(&b),
            CacheStats { hits: 7, misses: 0, bypasses: 1, ..CacheStats::default() }
        );
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let mut sum = b;
        sum.absorb(&a.since(&b));
        assert_eq!((sum.hits, sum.misses, sum.bypasses), (10, 4, 1));
    }
}
