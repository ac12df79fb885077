//! Layer probes shared by every traced run: the trace walker, the
//! hierarchy demand path and each prefetch strategy's feed (replaying one
//! recorded suite-cold stream), hierarchy set-up, frame encode/decode,
//! disk-tier get/put and protocol JSON parse/render.

use crate::drive::{self, stats_line};
use crate::layers::{Layers, STRATEGIES};
use crate::suite::Plat;
use crate::util::{median, secs, Outcome, ScratchDir};
use crate::RunCfg;
use palo_arch::{Architecture, PrefetcherConfig};
use palo_cachesim::{AccessKind, AccessRun, Hierarchy, LineSink};
use palo_codec::frame;
use palo_core::store::{ArtifactStore, DiskStore, StoredArtifact};
use palo_core::{CacheConfig, FingerprintBuilder, Session};
use palo_exec::{trace_stream, TraceOptions};
use palo_ir::LoopNest;
use palo_sched::LoweredNest;
use std::hint::black_box;
use std::time::Instant;

/// Kernels whose chosen schedules make up the recorded stream: a
/// blocked matrix product, a symmetric update, a transposition and a
/// 4-D nest.
const STREAM_KERNELS: [&str; 4] = ["matmul[", "syrk[", "tp[", "doitgen["];

/// Upper bound on recorded events (memory guard).
const MAX_EVENTS: usize = 3_000_000;

#[derive(Debug, Clone, Copy)]
enum Event {
    Range { addr: u64, bytes: u64, kind: AccessKind },
    Run(AccessRun),
}

/// A `LineSink` that records the walker's events for replay.
struct Recorder {
    events: Vec<Event>,
    lines: u64,
    line: usize,
}

impl LineSink for Recorder {
    fn access_range(&mut self, addr: u64, bytes: u64, kind: AccessKind) {
        self.lines += lines_in(addr, bytes, self.line);
        self.events.push(Event::Range { addr, bytes, kind });
    }

    fn access_run(&mut self, run: &AccessRun) {
        self.lines += run.count;
        self.events.push(Event::Run(*run));
    }

    fn lines_issued(&self) -> u64 {
        self.lines
    }

    fn line_size(&self) -> usize {
        self.line
    }
}

/// A `LineSink` that only counts: the walker's own cost.
struct NullSink {
    lines: u64,
    line: usize,
}

impl LineSink for NullSink {
    fn access_range(&mut self, addr: u64, bytes: u64, _kind: AccessKind) {
        self.lines += lines_in(addr, bytes, self.line);
    }

    fn access_run(&mut self, run: &AccessRun) {
        self.lines += run.count;
    }

    fn lines_issued(&self) -> u64 {
        self.lines
    }

    fn line_size(&self) -> usize {
        self.line
    }
}

fn lines_in(addr: u64, bytes: u64, line: usize) -> u64 {
    let line = line as u64;
    if bytes == 0 {
        return 0;
    }
    (addr + bytes - 1) / line - addr / line + 1
}

fn replay(events: &[Event], hier: &mut Hierarchy) {
    for ev in events {
        match ev {
            Event::Range { addr, bytes, kind } => hier.access_range(*addr, *bytes, *kind),
            Event::Run(run) => hier.access_run(run),
        }
    }
}

/// The 6700 with every prefetcher off except `strategy` at the level
/// its zoo platform places it (L1 units at L1, L2 engines at L2), with
/// that platform's knobs.
fn isolated(strategy: Option<&str>) -> Architecture {
    let mut arch = drive::platform("nopf");
    let Some(s) = strategy else { return arch };
    let (level, pf) = match s {
        "next-line" => (0, PrefetcherConfig::NextLine),
        "adjacent-pair" => (0, PrefetcherConfig::AdjacentPair),
        "stride" => (1, drive::platform("6700").caches[1].prefetcher),
        "confident-stride" => (1, drive::platform("n1").caches[1].prefetcher),
        "stream" => (1, drive::platform("zen2").caches[1].prefetcher),
        other => panic!("no strategy {other:?} in the probe"),
    };
    arch.caches[level].prefetcher = pf;
    arch
}

/// Median wall time of `reps` runs of `f`.
fn timed(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut t = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f();
        t.push(secs(start));
    }
    median(&t)
}

pub fn run(
    cfg: &RunCfg,
    plats: &[Plat],
    layers: &mut Layers,
    out: &mut Outcome,
) -> Result<(), String> {
    let six = &plats[0];
    let session =
        Session::new(&six.arch, drive::pipeline_config(false, CacheConfig::default()))
            .map_err(|e| e.to_string())?;
    let mut chosen: Vec<(LoopNest, LoweredNest)> = Vec::new();
    for item in &six.items {
        if STREAM_KERNELS.iter().any(|k| item.label.starts_with(k)) {
            let o =
                session.run(&item.nest).map_err(|e| format!("probe {}: {e}", item.label))?;
            chosen.push((item.nest.clone(), o.lowered));
        }
    }
    let line = six.arch.caches[0].line_size;
    let opts = TraceOptions::default();

    // Record the stream and check that replaying it reproduces the
    // run-compressed simulation bit for bit.
    let mut rec = Recorder { events: Vec::new(), lines: 0, line };
    let mut direct = Hierarchy::from_architecture(&six.arch);
    let mut kept = 0;
    for (nest, lowered) in &chosen {
        if rec.events.len() > MAX_EVENTS {
            break;
        }
        trace_stream(nest, lowered, &mut rec, &opts).map_err(|e| e.to_string())?;
        trace_stream(nest, lowered, &mut direct, &TraceOptions { flush_first: false, ..opts })
            .map_err(|e| e.to_string())?;
        kept += 1;
    }
    chosen.truncate(kept);
    let mut replayed = Hierarchy::from_architecture(&six.arch);
    replay(&rec.events, &mut replayed);
    let (want, got) = (stats_line(direct.stats()), stats_line(replayed.stats()));
    out.attempt(want == got, || format!("probe replay differs: {got} vs {want}"));
    let rs = direct.replay_stats();
    layers.lines_per_event = crate::util::ratio(rs.run_lines as f64, rs.runs as f64);
    layers.skipped_share =
        crate::util::ratio(rs.lines_skipped as f64, direct.stats().total_accesses as f64);

    let recorded = rec.lines.max(1) as f64;
    layers.walker_ns_per_line = timed(3, || {
        let mut sink = NullSink { lines: 0, line };
        for (nest, lowered) in &chosen {
            let _ = trace_stream(nest, lowered, &mut sink, &opts);
        }
        black_box(sink.lines);
    }) * 1e9
        / recorded;

    // Replays interleaved across configurations, so host-speed drift
    // hits every configuration alike; median of five per configuration.
    let archs: Vec<Architecture> = std::iter::once(isolated(None))
        .chain(STRATEGIES.iter().map(|s| isolated(Some(s))))
        .collect();
    let mut times = vec![Vec::new(); archs.len()];
    let mut accuracy = vec![0.0; archs.len()];
    for _ in 0..5 {
        for (i, arch) in archs.iter().enumerate() {
            let start = Instant::now();
            let mut hier = Hierarchy::from_architecture(arch);
            replay(&rec.events, &mut hier);
            times[i].push(secs(start));
            let s = hier.stats();
            let hits: u64 = s.levels.iter().map(|l| l.prefetch_hits).sum();
            let fills: u64 = s.levels.iter().map(|l| l.prefetch_fills).sum();
            accuracy[i] = crate::util::ratio(hits as f64, fills as f64);
        }
    }
    let ns: Vec<f64> = times.iter().map(|t| median(t) * 1e9 / recorded).collect();
    layers.demand_ns_per_line = ns[0];
    for i in 0..STRATEGIES.len() {
        layers.feed_ns_per_line[i] = ns[i + 1] - ns[0];
        layers.feed_accuracy[i] = accuracy[i + 1];
    }

    const SETUPS: usize = 200;
    layers.hier_setup_us = timed(3, || {
        for _ in 0..SETUPS {
            let mut h = Hierarchy::from_architecture(&six.arch);
            h.flush();
            black_box(&h);
        }
    }) * 1e6
        / SETUPS as f64;

    store_and_codec(&chosen, six, layers, out)?;
    json(cfg, layers, out)
}

/// Frames written by a persistent session, then decoded, re-encoded and
/// pushed through a fresh `DiskStore`.
fn store_and_codec(
    chosen: &[(LoopNest, LoweredNest)],
    six: &Plat,
    layers: &mut Layers,
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = ScratchDir::new("probe-store")?;
    let cache = CacheConfig { dir: Some(dir.path().to_path_buf()), ..CacheConfig::default() };
    let session = Session::new(&six.arch, drive::pipeline_config(true, cache))
        .map_err(|e| e.to_string())?;
    for (nest, _) in chosen {
        session.run(nest).map_err(|e| e.to_string())?;
    }
    let frames = read_frames(dir.path())?;
    let bytes: usize = frames.iter().map(Vec::len).sum();
    if frames.is_empty() {
        return Err("probe: the persistent session wrote no artifacts".into());
    }
    const ROUNDS: usize = 200;
    let decode = timed(3, || {
        for _ in 0..ROUNDS {
            for f in &frames {
                black_box(frame::decode_frame(black_box(f)).is_ok());
            }
        }
    });
    layers.decode_mb_s = (bytes * ROUNDS) as f64 / decode / 1e6;
    let decoded: Vec<(String, u32, Vec<u8>)> = frames
        .iter()
        .filter_map(|f| frame::decode_frame(f).ok())
        .map(|f| (f.pass.to_string(), f.pass_version, f.payload.to_vec()))
        .collect();
    out.attempt(decoded.len() == frames.len(), || {
        "probe: a stored frame failed to decode".into()
    });
    let encode = timed(3, || {
        for _ in 0..ROUNDS {
            for (pass, v, payload) in &decoded {
                black_box(frame::encode_frame(pass, *v, payload));
            }
        }
    });
    layers.encode_mb_s = (bytes * ROUNDS) as f64 / encode / 1e6;

    let store_dir = ScratchDir::new("probe-disk")?;
    let store = DiskStore::open(store_dir.path()).map_err(|e| e.to_string())?;
    const OPS: usize = 400;
    let keys: Vec<_> = (0..OPS as u64)
        .map(|i| FingerprintBuilder::pass("perfbench", 1).value(&i).finish())
        .collect();
    let t = Instant::now();
    for (i, key) in keys.iter().enumerate() {
        let bytes = &frames[i % frames.len()];
        store.put(*key, StoredArtifact { value: None, bytes: bytes.as_slice().into() });
    }
    layers.disk_put_us = secs(t) * 1e6 / OPS as f64;
    let t = Instant::now();
    let mut intact = 0;
    for (i, key) in keys.iter().enumerate() {
        if store.get(*key).is_some_and(|a| *a.bytes == *frames[i % frames.len()]) {
            intact += 1;
        }
    }
    layers.disk_get_us = secs(t) * 1e6 / OPS as f64;
    out.attempt(intact == OPS, || {
        format!("probe: {intact}/{OPS} disk entries read back intact")
    });
    Ok(())
}

fn read_frames(root: &std::path::Path) -> Result<Vec<Vec<u8>>, String> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).map_err(|e| e.to_string())? {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|x| x == "art") {
                files.push(path);
            }
        }
    }
    files.sort();
    files.iter().map(|p| std::fs::read(p).map_err(|e| e.to_string())).collect()
}

/// Request parse and response render over the serve workload's request
/// lines and the responses a one-worker server gives them.
fn json(cfg: &RunCfg, layers: &mut Layers, out: &mut Outcome) -> Result<(), String> {
    let lines = crate::serve::sample_request_lines(cfg.seed, 64);
    const ROUNDS: usize = 200;
    let parse = timed(3, || {
        for _ in 0..ROUNDS {
            for l in &lines {
                black_box(palo_serve::Request::parse(black_box(l), "probe").is_ok());
            }
        }
    });
    layers.json_parse_us = parse * 1e6 / (ROUNDS * lines.len()) as f64;
    let responses = crate::serve::serve_lines(&lines[..16])?;
    let render = timed(3, || {
        for _ in 0..ROUNDS {
            for r in &responses {
                black_box(r.to_json());
            }
        }
    });
    layers.json_render_us = render * 1e6 / (ROUNDS * responses.len()) as f64;
    let ok = responses.iter().all(|r| {
        palo_codec::json::Json::parse(&r.to_json())
            .ok()
            .and_then(|j| j.get("id").and_then(|v| v.as_str().map(|s| s == r.id)))
            .unwrap_or(false)
    });
    out.attempt(ok && responses.len() == 16, || {
        "probe: rendered responses do not parse back".into()
    });
    Ok(())
}
