//! Integration tests for the session's content-addressed artifact cache
//! and the concurrent batch driver:
//!
//! * **fingerprint sensitivity** — a pass-request key must *miss* under
//!   any change to the nest shape, loop bounds, element type, an
//!   architecture parameter, a model-relevant config switch, or the pass
//!   version, and must *hit* (same key) when everything is identical;
//! * **warm runs replay cold bits** — a cache-served run reproduces the
//!   cold run's decision, rung, schedule and estimate bit-for-bit;
//! * **batch determinism** — the batch driver reports the same decisions
//!   and rungs at every worker count, cold or warm;
//! * **deadline-adjacent caching** — a deadline-bounded run can never
//!   poison the cache: its simulate stage stays uncacheable, and an
//!   identical follow-up with a generous deadline recomputes and returns
//!   the full-fidelity answer bit-identical to a cold run.

use palo::arch::{presets, Architecture};
use palo::core::{
    Fingerprint, FingerprintBuilder, ModelKind, OptimizerConfig, PipelineConfig, Session,
};
use palo::ir::{DType, LoopNest, NestBuilder};
use proptest::prelude::*;

fn matmul(name: &str, ni: usize, nj: usize, nk: usize, dtype: DType) -> LoopNest {
    let mut b = NestBuilder::new(name, dtype);
    let i = b.var("i", ni);
    let j = b.var("j", nj);
    let k = b.var("k", nk);
    let a = b.array("A", &[ni, nk]);
    let bm = b.array("B", &[nk, nj]);
    let c = b.array("C", &[ni, nj]);
    b.accumulate(c, &[i, j], b.load(a, &[i, k]) * b.load(bm, &[k, j]));
    b.build().expect("valid nest")
}

fn copy2d(name: &str, n: usize) -> LoopNest {
    let mut b = NestBuilder::new(name, DType::F32);
    let i = b.var("i", n);
    let j = b.var("j", n);
    let src = b.array("S", &[n, n]);
    let dst = b.array("D", &[n, n]);
    b.store(dst, &[i, j], b.load(src, &[i, j]));
    b.build().expect("valid nest")
}

/// The cache key an optimize-shaped request would get: pass identity,
/// nest canonical form, architecture, model-relevant config.
fn key(
    version: u32,
    nest: &LoopNest,
    arch: &Architecture,
    config: &OptimizerConfig,
) -> Fingerprint {
    FingerprintBuilder::pass("optimize", version)
        .nest(nest)
        .arch(arch)
        .optimizer_config(config)
        .finish()
}

const DTYPES: [DType; 4] = [DType::F32, DType::F64, DType::I32, DType::I64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Identical `(nest, arch, config, version)` always collide on one
    /// key — regardless of kernel name — and every single-determinant
    /// change produces a distinct key.
    #[test]
    fn fingerprint_misses_on_any_determinant_change(
        ni in 1usize..24, nj in 1usize..24, nk in 1usize..24,
        dtype_pick in 0usize..4,
        nti in any::<bool>(),
        discount in any::<bool>(),
    ) {
        let dtype = DTYPES[dtype_pick];
        let arch = presets::intel_i7_5930k();
        let config = OptimizerConfig {
            enable_nti: nti,
            prefetch_discount: discount,
            ..OptimizerConfig::default()
        };
        let nest = matmul("mm", ni, nj, nk, dtype);
        let base = key(1, &nest, &arch, &config);

        // Hit: a rebuild of the same request, even under another kernel
        // name, lands on the same key.
        prop_assert_eq!(base, key(1, &matmul("other_name", ni, nj, nk, dtype), &arch, &config));

        // Miss: shape (loop added), bounds, dtype.
        let mut deeper = NestBuilder::new("mm", dtype);
        let (i, j, k, l) =
            (deeper.var("i", ni), deeper.var("j", nj), deeper.var("k", nk), deeper.var("l", 2));
        let a = deeper.array("A", &[ni, nk]);
        let bm = deeper.array("B", &[nk, nj]);
        let c = deeper.array("C", &[ni, nj, 2]);
        deeper.accumulate(c, &[i, j, l], deeper.load(a, &[i, k]) * deeper.load(bm, &[k, j]));
        let deeper = deeper.build().expect("valid nest");
        prop_assert_ne!(base, key(1, &deeper, &arch, &config));
        prop_assert_ne!(base, key(1, &matmul("mm", ni + 1, nj, nk, dtype), &arch, &config));
        prop_assert_ne!(base, key(1, &matmul("mm", ni, nj, nk + 1, dtype), &arch, &config));
        let other_dtype = DTYPES[(dtype_pick + 1) % 4];
        prop_assert_ne!(base, key(1, &matmul("mm", ni, nj, nk, other_dtype), &arch, &config));

        // Miss: architecture parameters (cache geometry, core count,
        // prefetcher degree).
        let mut bigger_l1 = arch.clone();
        bigger_l1.caches[0].size_bytes *= 2;
        prop_assert_ne!(base, key(1, &nest, &bigger_l1, &config));
        let mut more_cores = arch.clone();
        more_cores.cores += 1;
        prop_assert_ne!(base, key(1, &nest, &more_cores, &config));

        // Miss: any model-relevant config switch.
        let mut flipped = config.clone();
        flipped.enable_nti = !flipped.enable_nti;
        prop_assert_ne!(base, key(1, &nest, &arch, &flipped));
        let mut other_model = config.clone();
        other_model.model = if config.model == ModelKind::Paper {
            ModelKind::Tss
        } else {
            ModelKind::Paper
        };
        prop_assert_ne!(base, key(1, &nest, &arch, &other_model));

        // Miss: a pass version bump (the invalidation mechanism) or a
        // different pass reusing the same inputs.
        prop_assert_ne!(base, key(2, &nest, &arch, &config));
        prop_assert_ne!(
            base,
            FingerprintBuilder::pass("classify", 1)
                .nest(&nest)
                .arch(&arch)
                .optimizer_config(&config)
                .finish()
        );
    }

    /// A warm run is served from the cache (zero misses) and replays the
    /// cold run bit-for-bit.
    #[test]
    fn warm_session_runs_replay_cold_bits(
        ni in 2usize..14, nj in 2usize..14, nk in 2usize..14,
    ) {
        let nest = matmul("mm", ni, nj, nk, DType::F32);
        let session =
            Session::new(&presets::intel_i7_6700(), PipelineConfig::default()).expect("session");
        let cold = session.run(&nest).expect("cold run");
        prop_assert!(cold.report.cache.misses > 0);
        let warm = session.run(&nest).expect("warm run");
        prop_assert_eq!(warm.report.cache.misses, 0, "warm run recomputed something");
        prop_assert!(warm.report.cache.hits > 0);

        prop_assert_eq!(&cold.decision, &warm.decision);
        prop_assert_eq!(cold.report.rung, warm.report.rung);
        prop_assert_eq!(cold.schedule.to_string(), warm.schedule.to_string());
        let bits = |o: &palo::core::PipelineOutcome| {
            o.report.estimate.as_ref().map(|e| e.ms.to_bits())
        };
        prop_assert_eq!(bits(&cold), bits(&warm));
    }
}

/// Array names are labels, not content: after `matmul(n)`, every stage of
/// `3mm(n)` on the same session is served from the cache (`E = A·B`,
/// `F = C·D` and `G = E·F` are `C = A·B` renamed) and replays what a cold
/// run of that stage on a fresh session computes, down to every
/// simulator counter.
#[test]
fn threemm_stages_replay_matmul_artifacts() {
    use palo::suite::kernels;

    let n = 24;
    let arch = presets::intel_i7_6700();
    let session = Session::new(&arch, PipelineConfig::default()).expect("session");
    session.run(&kernels::matmul(n).expect("matmul")).expect("matmul run");
    for stage in kernels::threemm(n).expect("3mm") {
        let warm = session.run(&stage).expect("stage run");
        assert_eq!(
            warm.report.cache.misses,
            0,
            "{} recomputed: {:?}",
            stage.name(),
            warm.report.cache
        );
        assert!(warm.report.cache.hits > 0, "{}", stage.name());

        let cold = Session::new(&arch, PipelineConfig::default())
            .expect("session")
            .run(&stage)
            .expect("cold stage run");
        assert!(cold.report.cache.misses > 0);
        assert_eq!(&warm.decision, &cold.decision, "{}", stage.name());
        assert_eq!(warm.report.rung, cold.report.rung);
        assert_eq!(warm.schedule.to_string(), cold.schedule.to_string());
        let (w, c) = (
            warm.report.estimate.as_ref().expect("warm estimate"),
            cold.report.estimate.as_ref().expect("cold estimate"),
        );
        assert_eq!(w.ms.to_bits(), c.ms.to_bits(), "{}", stage.name());
        assert_eq!(w.stats, c.stats, "{}", stage.name());
    }
}

/// Every worker count, cold or warm, produces the same decisions, rungs
/// and estimates over a mixed batch (temporal, spatial-free copy,
/// duplicate kernels).
#[test]
fn batch_driver_is_deterministic_across_worker_counts() {
    let nests = vec![
        matmul("mm20", 20, 20, 20, DType::F32),
        matmul("mm12", 12, 16, 8, DType::F64),
        copy2d("copy", 64),
        matmul("mm20_twin", 20, 20, 20, DType::F32),
        copy2d("copy_twin", 64),
    ];

    let fingerprint_of =
        |report: &palo::core::BatchReport| -> Vec<(String, String, Option<u64>)> {
            report
                .items
                .iter()
                .map(|item| {
                    let out = item.outcome.as_ref().expect("batch item succeeds");
                    (
                        format!("{}", out.report.rung),
                        format!("{:?}|{}", out.decision, out.schedule),
                        out.report.estimate.as_ref().map(|e| e.ms.to_bits()),
                    )
                })
                .collect()
        };

    let mut reference: Option<Vec<(String, String, Option<u64>)>> = None;
    for workers in [1usize, 2, 5] {
        let session = Session::new(&presets::intel_i7_5930k(), PipelineConfig::default())
            .expect("session");
        let cold = session.batch().with_threads(workers).run(&nests);
        assert_eq!(cold.failed(), 0, "cold batch at {workers} workers failed");
        assert!(cold.cache.hits > 0, "duplicate kernels must hit even cold: {:?}", cold.cache);
        let warm = session.batch().with_threads(workers).run(&nests);
        assert_eq!(warm.failed(), 0, "warm batch at {workers} workers failed");
        assert_eq!(warm.cache.misses, 0, "warm batch recomputed: {:?}", warm.cache);

        let cold_bits = fingerprint_of(&cold);
        assert_eq!(cold_bits, fingerprint_of(&warm), "warm != cold at {workers} workers");
        match &reference {
            None => reference = Some(cold_bits),
            Some(r) => assert_eq!(r, &cold_bits, "{workers} workers disagree with 1 worker"),
        }
    }
}

/// A request that hits its deadline must never poison the cache for the
/// requests that come after it: the deadline-bounded simulate stage is
/// uncacheable (bypassed), so an identical follow-up with a generous
/// deadline recomputes and returns the full-fidelity estimate
/// bit-identical to a cold, unconstrained run.
#[test]
fn deadline_hit_never_poisons_the_cache() {
    use palo::core::{PaloError, RunOverrides};
    use std::time::Duration;

    let nest = matmul("mm", 40, 40, 40, DType::F32);
    let arch = presets::intel_i7_6700();

    // Cold unconstrained reference from a fresh session.
    let reference = Session::new(&arch, PipelineConfig::default())
        .expect("session")
        .run(&nest)
        .expect("reference run");
    let ref_bits = reference.report.estimate.as_ref().expect("reference estimate").ms.to_bits();

    let session = Session::new(&arch, PipelineConfig::default()).expect("session");

    // 1. Deadline-hit run: the zero deadline aborts the trace walk. The
    //    abort is recorded (not silent), no estimate is produced, and
    //    the simulate request bypassed the cache.
    let tight = session
        .run_with(&nest, &RunOverrides { deadline: Some(Duration::ZERO), ..Default::default() })
        .expect("tight run");
    assert!(tight.report.estimate.is_none(), "zero deadline still produced an estimate");
    assert!(
        tight
            .report
            .failures
            .iter()
            .any(|f| matches!(f.error, PaloError::DeadlineExceeded { .. })),
        "deadline abort not recorded: {:?}",
        tight.report.failures
    );
    assert!(tight.report.cache.bypasses >= 1, "deadline simulate must bypass the cache");

    // 2. Identical follow-up, generous deadline: nothing poisoned — it
    //    recomputes (still bypassing: a deadline is in force) and the
    //    answer is bit-identical to the cold reference.
    let generous = session
        .run_with(
            &nest,
            &RunOverrides { deadline: Some(Duration::from_secs(3600)), ..Default::default() },
        )
        .expect("generous run");
    let gen = generous.report.estimate.as_ref().expect("generous estimate");
    assert_eq!(gen.ms.to_bits(), ref_bits, "deadline-adjacent run changed the estimate");
    assert_eq!(&generous.decision, &reference.decision);
    assert_eq!(generous.report.rung, reference.report.rung);
    assert!(generous.report.cache.bypasses >= 1, "deadline simulate must stay uncacheable");

    // 3. Unconstrained runs on the same warm session now cache the
    //    simulate artifact — and still agree bit-for-bit.
    let clean = session.run(&nest).expect("clean run");
    assert_eq!(clean.report.estimate.as_ref().expect("clean estimate").ms.to_bits(), ref_bits);
    let warm = session.run(&nest).expect("warm run");
    assert_eq!(
        warm.report.cache.misses, 0,
        "warm clean run recomputed: {:?}",
        warm.report.cache
    );
    assert_eq!(warm.report.estimate.as_ref().expect("warm estimate").ms.to_bits(), ref_bits);
}

/// Per-run cache windows are the run's own operations: on a session
/// shared by two batch workers, the items' windows sum exactly to the
/// session's counter movement — request counters and every tier's —
/// with no run counting another's lookups or writes. Checked on a warm
/// in-memory session, and cold and after a restart over a disk tier.
#[test]
fn concurrent_run_windows_sum_to_the_session_delta() {
    let nests: Vec<LoopNest> = (0..8)
        .map(|k| matmul(&format!("mm{k}"), 8 + 2 * k, 12, 10, DType::F32))
        .chain((0..4).map(|k| copy2d(&format!("copy{k}"), 32 + 8 * k)))
        .collect();
    // One 2-worker batch: the sum of its items' windows, and the
    // session's movement over the batch.
    let windows = |session: &Session| {
        let before = session.cache_stats();
        let report = session.batch().with_threads(2).run(&nests);
        let mut sum = palo::core::CacheStats::default();
        for item in &report.items {
            sum.absorb(&item.outcome.as_ref().expect("item succeeds").report.cache);
        }
        (sum, session.cache_stats().since(&before))
    };

    let session =
        Session::new(&presets::intel_i7_6700(), PipelineConfig::default()).expect("session");
    windows(&session);
    let (sum, delta) = windows(&session);
    assert_eq!(sum, delta, "warm memory session");
    assert!(sum.hits > 0 && sum.misses == 0, "{sum:?}");

    let dir = std::env::temp_dir().join(format!("palo-run-windows-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = PipelineConfig {
        cache: palo::core::store::CacheConfig { dir: Some(dir.clone()), ..Default::default() },
        ..PipelineConfig::default()
    };
    let cold = Session::new(&presets::intel_i7_6700(), config.clone()).expect("session");
    let (sum, delta) = windows(&cold);
    assert_eq!(sum, delta, "cold batch over a disk tier");
    assert!(sum.disk.bytes_written > 0, "{sum:?}");
    let restarted = Session::new(&presets::intel_i7_6700(), config).expect("session");
    let (sum, delta) = windows(&restarted);
    assert_eq!(sum, delta, "warm restart over a disk tier");
    assert!(sum.disk.hits > 0 && sum.misses == 0, "{sum:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
