//! Integration tests for the tiered persistent artifact store
//! (DESIGN.md §15), centered on its two contracts:
//!
//! * **bit-identity** — a decision replayed from the memory tier, from
//!   the disk tier (including a fresh "process" on a warm directory), or
//!   recomputed cold is bit-identical, under every eviction policy and
//!   any capacity; the store changes *what is cached*, never *what is
//!   decided*;
//! * **corruption safety** — truncated files, garbage bytes, wrong
//!   format versions and racing same-key writers can only ever produce a
//!   cache miss plus a recorded [`CacheStats`] anomaly — never an error
//!   and never a wrong decision.
//!
//! It also pins the persistence contract: `Session::run` returns with
//! its artifacts on disk, and a server's answered requests are on disk
//! once it has shut down (it writes them after answering).

use palo::arch::presets;
use palo::codec::frame;
use palo::core::store::{ArtifactStore, DiskStore, StoredArtifact};
use palo::core::{CacheConfig, PipelineConfig, PolicyKind, Session};
use palo::ir::{DType, Digest, LoopNest, NestBuilder};
use palo::serve::{Request, Response, ServeConfig, Server};
use palo::suite::Benchmark;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Barrier};

fn matmul(n: usize) -> LoopNest {
    let mut b = NestBuilder::new("matmul", DType::F32);
    let i = b.var("i", n);
    let j = b.var("j", n);
    let k = b.var("k", n);
    let a = b.array("A", &[n, n]);
    let bm = b.array("B", &[n, n]);
    let c = b.array("C", &[n, n]);
    b.accumulate(c, &[i, j], b.load(a, &[i, k]) * b.load(bm, &[k, j]));
    b.build().expect("valid nest")
}

fn transpose(n: usize) -> LoopNest {
    let mut b = NestBuilder::new("tp", DType::F64);
    let i = b.var("i", n);
    let j = b.var("j", n);
    let src = b.array("S", &[n, n]);
    let dst = b.array("D", &[n, n]);
    let ld = b.load(src, &[j, i]);
    b.store(dst, &[i, j], ld);
    b.build().expect("valid nest")
}

fn workload() -> Vec<LoopNest> {
    vec![matmul(16), transpose(24), matmul(24), transpose(16)]
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("palo-store-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The run's observable outcome, down to the float bits.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RunBits {
    rung: String,
    schedule: String,
    decision: Option<String>,
    predicted_cost_bits: Option<u64>,
    estimate_ms_bits: Option<u64>,
}

fn run_bits(session: &Session, nest: &LoopNest) -> RunBits {
    let out = session.run(nest).expect("the pipeline must never fail on these nests");
    RunBits {
        rung: out.report.rung.to_string(),
        schedule: out.schedule.to_string(),
        decision: out.decision.as_ref().map(|d| format!("{d:?}")),
        predicted_cost_bits: out.decision.as_ref().map(|d| d.predicted_cost.to_bits()),
        estimate_ms_bits: out.report.estimate.as_ref().map(|e| e.ms.to_bits()),
    }
}

fn run_all(session: &Session) -> Vec<RunBits> {
    workload().iter().map(|nest| run_bits(session, nest)).collect()
}

fn session_with(cache: CacheConfig) -> Session {
    let config = PipelineConfig { cache, ..PipelineConfig::default() };
    Session::new(&presets::intel_i7_6700(), config).expect("session must open")
}

/// Every artifact file under a cache directory.
fn art_files(root: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(root)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|shard| std::fs::read_dir(shard.path()).ok())
        .flat_map(|entries| entries.flatten())
        .map(|f| f.path())
        .filter(|p| p.extension().is_some_and(|e| e == "art"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_backend_and_policy_replays_the_cold_decision_bit_identically() {
    // The reference: a cold, memory-only session.
    let reference = run_all(&session_with(CacheConfig::default()));

    // Bounded memory tiers at a capacity tight enough to force
    // evictions, one session per eviction policy.
    for policy in PolicyKind::ALL {
        let config =
            CacheConfig { policy, capacity_entries: Some(2), ..CacheConfig::default() };
        let session = session_with(config);
        // Two sweeps: the second replays what survived eviction and
        // recomputes what did not — the answers must not move.
        assert_eq!(run_all(&session), reference, "{policy} first sweep diverged");
        assert_eq!(run_all(&session), reference, "{policy} warm sweep diverged");
        assert!(
            session.cache_stats().mem.evictions > 0,
            "capacity 2 must actually evict under {policy}"
        );
    }

    // A byte-bounded tier (evicts by size, not count).
    let by_bytes = CacheConfig { capacity_bytes: Some(2048), ..CacheConfig::default() };
    assert_eq!(run_all(&session_with(by_bytes)), reference, "byte-capped tier diverged");

    // The persistent store: a cold session writes through to disk, a
    // fresh session on the same directory replays from it.
    let root = tmp_dir("bit-identity");
    let persistent = CacheConfig { dir: Some(root.clone()), ..CacheConfig::default() };
    assert_eq!(run_all(&session_with(persistent.clone())), reference, "disk cold diverged");

    let warm = session_with(persistent);
    assert_eq!(run_all(&warm), reference, "fresh session on a warm dir diverged");
    let s = warm.cache_stats();
    assert!(s.disk.hits > 0, "the warm session must actually read from disk: {s:?}");
    assert_eq!(s.anomalies, 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_warm_directory_serves_a_fresh_session_with_a_high_hit_rate() {
    let root = tmp_dir("hit-rate");
    let config = CacheConfig { dir: Some(root.clone()), ..CacheConfig::default() };

    let cold = session_with(config.clone());
    let cold_bits = run_all(&cold);
    drop(cold);

    let warm = session_with(config);
    let warm_bits = run_all(&warm);
    assert_eq!(cold_bits, warm_bits);
    let s = warm.cache_stats();
    assert_eq!(s.misses, 0, "a fully warm directory must not miss: {s:?}");
    assert!(s.hit_rate() >= 0.9, "hit rate {:.2} below the 90% floor", s.hit_rate());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corrupt_disk_entries_heal_as_anomalies_and_never_change_decisions() {
    let root = tmp_dir("corruption");
    let config = CacheConfig { dir: Some(root.clone()), ..CacheConfig::default() };

    let cold = session_with(config.clone());
    let reference = run_all(&cold);
    drop(cold);

    // Vandalize every cached artifact, cycling through the three
    // corruption shapes the store must survive: truncation, garbage
    // bytes, and a wrong format version.
    let files = art_files(&root);
    assert!(!files.is_empty(), "the cold session must have persisted artifacts");
    for (i, path) in files.iter().enumerate() {
        let bytes = std::fs::read(path).expect("artifact must be readable");
        match i % 3 {
            0 => std::fs::write(path, &bytes[..bytes.len() / 2]).expect("truncate"),
            1 => std::fs::write(path, b"not a frame at all").expect("garbage"),
            _ => {
                let mut b = bytes;
                b[8] ^= 0x5a; // first byte of the format-version word
                std::fs::write(path, &b).expect("version flip");
            }
        }
    }

    // A fresh session on the vandalized directory: every lookup heals
    // (miss + anomaly + recompute), no error surfaces, and the decisions
    // are the cold run's, bit for bit.
    let healed = session_with(config.clone());
    assert_eq!(run_all(&healed), reference, "corruption must cost recomputes, not answers");
    let s = healed.cache_stats();
    assert!(s.anomalies > 0, "healing must be recorded: {s:?}");
    drop(healed);

    // The store healed itself: the re-written artifacts serve a third
    // session clean.
    let clean = session_with(config);
    assert_eq!(run_all(&clean), reference);
    assert_eq!(clean.cache_stats().anomalies, 0, "healed entries must be valid again");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn concurrent_same_key_writers_are_miss_or_hit_never_an_error() {
    let root = tmp_dir("races");
    let key = palo::core::Fingerprint(Digest(0xfeed_beef_cafe));
    let payload: Vec<u8> = (0..=255u8).collect();
    let bytes: Arc<[u8]> = frame::encode_frame("race", 1, &payload).into();

    // Many stores on one directory (stand-ins for separate processes),
    // many threads per store, all hammering one content-addressed key.
    let stores: Vec<Arc<DiskStore>> =
        (0..4).map(|_| Arc::new(DiskStore::open(&root).expect("open must succeed"))).collect();
    let mut handles = Vec::new();
    for store in &stores {
        for _ in 0..4 {
            let store = Arc::clone(store);
            let bytes = Arc::clone(&bytes);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    store.put(key, StoredArtifact { value: None, bytes: bytes.clone() });
                    if let Some(got) = store.get(key) {
                        // Anything served must be the one true encoding.
                        let f = frame::decode_frame(&got.bytes)
                            .expect("a served entry is always a complete frame");
                        assert_eq!(f.pass, "race");
                        assert_eq!(f.payload.len(), 256);
                    }
                }
            }));
        }
    }
    for h in handles {
        h.join().expect("no writer or reader may panic");
    }

    // The dust settled: the entry is present, valid, and no writer
    // tripped the corruption detector.
    let survivor = DiskStore::open(&root).expect("open must succeed");
    let got = survivor.get(key).expect("the key must have landed");
    assert_eq!(frame::decode_frame(&got.bytes).expect("valid").payload, &payload[..]);
    for store in &stores {
        assert_eq!(store.anomalies(), 0, "racing identical writers is not corruption");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn an_unwritable_cache_directory_is_a_session_error_not_a_panic() {
    let file = std::env::temp_dir().join(format!("palo-store-it-file-{}", std::process::id()));
    std::fs::write(&file, b"occupied").expect("marker file");
    let config = PipelineConfig {
        cache: CacheConfig { dir: Some(file.join("sub")), ..CacheConfig::default() },
        ..PipelineConfig::default()
    };
    let err = match Session::new(&presets::intel_i7_6700(), config) {
        Ok(_) => panic!("an unopenable store must refuse the session"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("artifact store"), "the error must name the store: {err}");
    let _ = std::fs::remove_file(&file);
}

#[test]
fn disk_stores_sharing_a_root_never_swap_keys() {
    // Several stores on one root in one process (two sessions sharing a
    // cache directory) write distinct keys into one shard in lockstep.
    // Temp-file names must be unique process-wide: a name shared by two
    // writers lets one rename install the other key's (valid) frame.
    const STORES: u128 = 4;
    const KEYS: u128 = 150;
    let root = tmp_dir("tmp-names");
    let key =
        |store: u128, i: u128| palo::core::Fingerprint(Digest(0xab << 120 | store << 32 | i));
    let payload = |store: u128, i: u128| format!("store {store} key {i}").into_bytes();
    let barrier = Arc::new(Barrier::new(STORES as usize));
    let handles: Vec<_> = (0..STORES)
        .map(|store| {
            let disk = DiskStore::open(&root).expect("open must succeed");
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                for i in 0..KEYS {
                    let bytes = frame::encode_frame("tmp-names", 1, &payload(store, i)).into();
                    barrier.wait();
                    disk.put(key(store, i), StoredArtifact { value: None, bytes });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no writer may panic");
    }

    let reader = DiskStore::open(&root).expect("open must succeed");
    let mut wrong = Vec::new();
    for store in 0..STORES {
        for i in 0..KEYS {
            let got = reader
                .get(key(store, i))
                .map(|a| frame::decode_frame(&a.bytes).expect("valid frame").payload.to_vec());
            if got.as_deref() != Some(&payload(store, i)[..]) {
                wrong.push((store, i, got.map(String::from_utf8)));
            }
        }
    }
    assert!(root.join("ab").is_dir(), "every key must shard under ab/");
    assert!(
        wrong.is_empty(),
        "{} keys lost or swapped: {:?}",
        wrong.len(),
        &wrong[..wrong.len().min(5)]
    );
    assert_eq!(reader.anomalies(), 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn session_run_returns_with_its_artifacts_on_disk() {
    let root = tmp_dir("run-persists");
    let config = CacheConfig { dir: Some(root.clone()), ..CacheConfig::default() };
    // The writer stays alive: its files must be on disk when `run`
    // returns, not when the session is dropped.
    let writer = session_with(config.clone());
    for nest in workload() {
        let cold = run_bits(&writer, &nest);
        let fresh = session_with(config.clone());
        assert_eq!(run_bits(&fresh, &nest), cold, "{}: replay diverged", nest.name());
        let s = fresh.cache_stats();
        assert_eq!(s.misses, 0, "{}: the run's artifacts were not on disk: {s:?}", nest.name());
        assert!(s.disk.hits > 0, "{}: {s:?}", nest.name());
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_shut_down_server_leaves_every_served_artifact_on_disk() {
    let root = tmp_dir("serve-persists");
    let pipeline = PipelineConfig {
        cache: CacheConfig { dir: Some(root.clone()), ..CacheConfig::default() },
        ..PipelineConfig::default()
    };
    let lines = [
        r#"{"id":"a","kernel":"matmul","size":32}"#,
        r#"{"id":"b","kernel":"3mm","size":16,"priority":"interactive"}"#,
        r#"{"id":"c","kernel":"tp","size":48,"estimate":false}"#,
        r#"{"id":"d","kernel":"copy","size":64}"#,
    ];
    let requests: Vec<Request> =
        lines.iter().map(|l| Request::parse(l, "?").expect("valid request")).collect();
    let server = Server::start(
        &presets::intel_i7_6700(),
        ServeConfig { pipeline: pipeline.clone(), workers: Some(2), ..ServeConfig::default() },
    )
    .expect("server must start");
    let (tx, rx) = mpsc::channel::<Response>();
    for request in &requests {
        let tx = tx.clone();
        server.submit(request.clone(), Box::new(move |r| drop(tx.send(r))));
    }
    drop(tx);
    let responses: Vec<Response> = rx.iter().take(requests.len()).collect();
    let stats = server.shutdown();
    assert_eq!(stats.served, requests.len() as u64, "{responses:?}");
    assert!(stats.cache.disk.bytes_written > 0, "the drain must count the deferred writes");

    // A fresh session on the directory replays every served nest, at the
    // fidelity it was served, without computing anything.
    let fresh = Session::new(&presets::intel_i7_6700(), pipeline).expect("session must open");
    for request in &requests {
        let ok = responses
            .iter()
            .find(|r| r.id == request.id)
            .and_then(Response::ok)
            .unwrap_or_else(|| panic!("{}: not served", request.id));
        let nests = Benchmark::all()
            .into_iter()
            .find(|b| b.name() == request.kernel)
            .expect("suite kernel")
            .build(request.size.expect("sized request"))
            .expect("kernel builds");
        // The served fidelity decides whether the simulate artifact exists.
        let overrides = request.overrides(None, ok.fidelity);
        assert_eq!(nests.len(), ok.nests.len(), "{}", request.id);
        for (nest, served) in nests.iter().zip(&ok.nests) {
            let out = fresh.run_with(nest, &overrides).expect("replay must succeed");
            assert_eq!(
                out.report.cache.misses, 0,
                "{}/{}: {:?}",
                request.id, served.name, out.report.cache
            );
            let d = out.decision.as_ref().expect("the optimizer ran");
            assert_eq!(out.report.rung.as_str(), served.rung, "{}/{}", request.id, served.name);
            assert_eq!(Some(format!("{:?}", d.class)), served.class, "{}", request.id);
            assert_eq!(d.tile, served.tile, "{}/{}", request.id, served.name);
            assert_eq!(
                Some(d.predicted_cost.to_bits()),
                served.predicted_cost.map(f64::to_bits),
                "{}/{}",
                request.id,
                served.name
            );
            assert_eq!(
                out.report.estimate.as_ref().map(|e| e.ms.to_bits()),
                served.estimate_ms.map(f64::to_bits),
                "{}/{}",
                request.id,
                served.name
            );
        }
    }
    assert!(fresh.cache_stats().disk.hits > 0);
    let _ = std::fs::remove_dir_all(&root);
}
