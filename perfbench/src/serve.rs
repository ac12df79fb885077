//! `serve-mixed`: an open-loop generator drives an in-process `Server`
//! (one worker) with NDJSON request lines at three fixed offered rates —
//! light, moderate, and an overload only shedding can absorb. About a third of
//! the requests are interactive and a seventh ask for analytic answers
//! only; some keys repeat (memory hits), some were written to the disk
//! tier during set-up (disk hits) and the rest need fresh short
//! simulations. The only workload where queue waiting blocks results.

use crate::drive::{self, pipeline_config};
use crate::layers::{Layers, PASSES};
use crate::span::{maybe_span, Tracer};
use crate::util::{quantile, ratio, settle_fs, Outcome, Rng, ScratchDir, SetupTimes};
use crate::{RunCfg, Scale};
use palo_core::{CacheConfig, Priority, RunOverrides, Session};
use palo_serve::{Fidelity, Request, Response, ServeConfig, Server, ShedPolicy};
use palo_suite::Benchmark;
use std::collections::HashMap;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const PLATFORM: &str = "6700";

/// Offered rates (requests/s): light and moderate load for the one
/// worker (about 0.12 and 0.25 of its full-fidelity capacity on the
/// reference machine, low enough that a busy host does not tip the
/// queue over) and an overload (about 1.5× that capacity) that only the
/// shedding ladder keeps answerable.
const RATES: [f64; 3] = [20.0, 40.0, 250.0];
const RATE_NAMES: [&str; 3] = ["low", "mid", "high"];

/// The p90 latency limit a rate must meet to count as sustained.
const P90_LIMIT_MS: f64 = 150.0;

/// Set-ups per run (`setup_s` is their median): three before the phases
/// and three after each, so the median samples the whole run. One
/// set-up's time varies by ±30 % on a shared host.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER_PHASE: usize = 3;

/// Deep enough that even a host running at half speed sheds at the high
/// rate instead of refusing; the ladder's thresholds sit at 128 (yellow)
/// and 256 (red) queued requests so that shedding still engages.
const QUEUE_CAPACITY: usize = 1024;
const SHED: ShedPolicy = ShedPolicy { yellow: 0.125, red: 0.25 };

/// Keys written to the disk tier during set-up, and the hot subset that
/// most repeats draw from.
const DISK_KEYS: usize = 48;
const HOT_KEYS: usize = 6;

/// Request classes per 20 requests: 2 hot repeats, 2 disk-pool keys,
/// 16 fresh. With hits and analytic answers about 30 % of requests, the
/// median request is a fresh simulation well inside their cost range,
/// where its latency is mostly simulation; at a 44 % share it sat among
/// the cheapest simulations, where per-request file writes dominate and
/// the median moved by ±25 % between runs.
const CLASS_DECK: [u8; 20] = [0, 0, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2];

/// The fresh key space per kernel: inclusive size range and step. Every
/// size is 1–20 ms of single-threaded full-fidelity service on the
/// reference machine.
fn key_space(scale: Scale) -> Vec<(&'static str, Vec<usize>)> {
    let ranges: &[(&str, usize, usize, usize)] = match scale {
        Scale::Full => &[
            ("matmul", 48, 104, 1),
            ("gemm", 48, 104, 1),
            ("trmm", 48, 104, 1),
            ("3mm", 40, 72, 1),
            ("syrk", 40, 88, 1),
            ("syr2k", 24, 48, 1),
            ("tp", 256, 768, 2),
            ("tpm", 256, 768, 2),
            ("copy", 256, 768, 2),
            ("mask", 256, 768, 2),
        ],
        Scale::Tiny => &[("matmul", 8, 24, 1), ("tp", 16, 64, 1), ("copy", 16, 64, 1)],
    };
    ranges.iter().map(|&(k, lo, hi, step)| (k, (lo..=hi).step_by(step).collect())).collect()
}

/// A shuffled deck of card values, reshuffled when exhausted: fixed
/// proportions per deck, seeded order. Stratifying the request mix this
/// way keeps every seed's load the same shape.
struct Deck<T: Copy> {
    cards: Vec<T>,
    pos: usize,
}

impl<T: Copy> Deck<T> {
    fn new(cards: Vec<T>) -> Self {
        let pos = cards.len();
        Deck { cards, pos }
    }

    fn draw(&mut self, rng: &mut Rng) -> T {
        if self.pos == self.cards.len() {
            rng.shuffle(&mut self.cards);
            self.pos = 0;
        }
        self.pos += 1;
        self.cards[self.pos - 1]
    }
}

#[derive(Debug, Clone)]
struct Planned {
    offset: Duration,
    kernel: &'static str,
    size: usize,
    interactive: bool,
    analytic: bool,
    line: String,
}

/// Seeded keys: a disk pool written during set-up (its first keys are
/// the hot ones) and, per kernel, a stream of sizes the phase's server
/// has never seen. Every phase runs on its own copy of the disk pool, so
/// each phase draws fresh keys from the whole key space.
struct Keys {
    disk: Vec<(&'static str, usize)>,
    space: Vec<(&'static str, Vec<usize>)>,
    fresh: Vec<(&'static str, Vec<usize>)>,
    class: Deck<u8>,
    kernel: Deck<usize>,
    interactive: Deck<bool>,
    analytic: Deck<bool>,
}

impl Keys {
    fn new(seed: u64, scale: Scale) -> Self {
        let mut rng = Rng::new(seed, 3);
        let mut space = key_space(scale);
        // The key sets are the same for every seed (so is the work per
        // phase); the seed orders them, picks the hot keys and sets the
        // request sequence and arrival times.
        let mut disk = Vec::new();
        while disk.len() < DISK_KEYS.min(space.len() * 4) {
            let k = disk.len() % space.len();
            let sizes = &mut space[k].1;
            let size = sizes.remove(sizes.len() / 2);
            disk.push((space[k].0, size));
        }
        rng.shuffle(&mut disk);
        let kernels = space.len();
        Keys {
            disk,
            space,
            fresh: Vec::new(),
            class: Deck::new(CLASS_DECK.to_vec()),
            kernel: Deck::new((0..kernels).collect()),
            interactive: Deck::new(vec![true, false, false]),
            analytic: Deck::new(vec![true, false, false, false, false, false, false]),
        }
    }

    /// Restarts the fresh streams for a phase on a fresh disk copy.
    fn start_phase(&mut self) {
        self.fresh = self
            .space
            .iter()
            .map(|(k, sizes)| {
                let mut order = spread(sizes);
                // Drawn from the back.
                order.reverse();
                (*k, order)
            })
            .collect();
    }

    fn draw(&mut self, rng: &mut Rng) -> (&'static str, usize) {
        let hot = HOT_KEYS.min(self.disk.len());
        match self.class.draw(rng) {
            0 => self.disk[rng.below(hot)],
            1 => self.disk[rng.below(self.disk.len())],
            _ => {
                let k = self.kernel.draw(rng);
                let (kernel, sizes) = &mut self.fresh[k];
                match sizes.pop() {
                    Some(size) => (*kernel, size),
                    None => self.disk[rng.below(self.disk.len())],
                }
            }
        }
    }
}

/// `sizes` in an order that spreads every run of consecutive draws
/// across the whole range (a golden-ratio stride), so each phase's fresh
/// keys sample the cost curve evenly.
fn spread(sizes: &[usize]) -> Vec<usize> {
    let n = sizes.len();
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let mut stride = ((n as f64 * 0.618_034).round() as usize).max(1);
    while gcd(stride, n) != 1 {
        stride += 1;
    }
    (0..n).map(|j| sizes[(j * stride) % n]).collect()
}

fn line_for(id: &str, kernel: &str, size: usize, interactive: bool, analytic: bool) -> String {
    Request {
        id: id.to_string(),
        kernel: kernel.to_string(),
        size: Some(size),
        priority: if interactive { Priority::Interactive } else { Priority::Batch },
        deadline: None,
        max_trace_lines: None,
        fidelity: if analytic { Fidelity::Analytic } else { Fidelity::Full },
        faults: None,
    }
    .to_json()
}

/// `rate × duration` arrivals, one per `1/rate` slot at a seeded
/// uniform offset within its slot: an open-loop schedule (arrivals never
/// wait for responses) with the same offered load on every seed and less
/// burstiness than Poisson arrivals, so tail latency measures the
/// server rather than the draw.
fn plan(rng: &mut Rng, keys: &mut Keys, phase: &str, rate: f64, duration: f64) -> Vec<Planned> {
    keys.start_phase();
    let n = (rate * duration).round() as usize;
    let times: Vec<f64> = (0..n).map(|i| (i as f64 + rng.unit()) / rate).collect();
    let mut out = Vec::with_capacity(n);
    for t in times {
        let (kernel, size) = keys.draw(rng);
        let interactive = keys.interactive.draw(rng);
        let analytic = keys.analytic.draw(rng);
        let id = format!("{phase}-{}", out.len());
        let line = line_for(&id, kernel, size, interactive, analytic);
        out.push(Planned {
            offset: Duration::from_secs_f64(t),
            kernel,
            size,
            interactive,
            analytic,
            line,
        });
    }
    out
}

/// The request lines of the three timed phases at their nominal length
/// (`--seconds 30`).
pub fn input_lines(seed: u64, scale: Scale) -> Vec<String> {
    let mut keys = Keys::new(seed, scale);
    let mut rng = Rng::new(seed, 5);
    let durations = phase_durations(30.0, false);
    (0..3)
        .flat_map(|i| plan(&mut rng, &mut keys, RATE_NAMES[i], RATES[i], durations[i]))
        .map(|p| format!("{:?} {}", p.offset, p.line))
        .collect()
}

/// Of the measured time, the mid rate (where latency is reported) gets
/// half; low and high a quarter each.
fn phase_durations(seconds: f64, trace: bool) -> [f64; 3] {
    let budget = seconds * if trace { 0.5 } else { 0.9 };
    [budget * 0.25, budget * 0.5, budget * 0.25]
}

/// Request lines of the workload's shape (for the JSON probe).
pub fn sample_request_lines(seed: u64, n: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, 4);
    let mut keys = Keys::new(seed, Scale::Full);
    let mut lines = plan(&mut rng, &mut keys, "probe", n as f64, 1.0);
    lines.truncate(n);
    lines.into_iter().map(|p| p.line).collect()
}

/// Serves `lines` on a fresh one-worker server and returns the responses.
pub fn serve_lines(lines: &[String]) -> Result<Vec<Response>, String> {
    let config = ServeConfig {
        pipeline: pipeline_config(true, CacheConfig::default()),
        workers: Some(1),
        queue_capacity: lines.len().max(1),
        ..ServeConfig::default()
    };
    let server =
        Server::start(&drive::platform(PLATFORM), config).map_err(|e| e.to_string())?;
    let (tx, rx) = mpsc::channel();
    for (i, l) in lines.iter().enumerate() {
        let tx = tx.clone();
        server.submit_line(l, &i.to_string(), Box::new(move |r| drop(tx.send(r))));
    }
    drop(tx);
    let responses: Vec<Response> = rx.iter().take(lines.len()).collect();
    server.shutdown();
    Ok(responses)
}

struct Setup {
    dir: ScratchDir,
    keys: Keys,
    rng: Rng,
}

/// Fresh store directory, the disk keys written through a persistent
/// session at full fidelity, and one untimed served request.
fn setup(cfg: &RunCfg) -> Result<Setup, String> {
    let dir = ScratchDir::new("serve")?;
    let keys = Keys::new(cfg.seed, cfg.scale);
    let cache = CacheConfig { dir: Some(dir.path().to_path_buf()), ..CacheConfig::default() };
    let session = Session::new(&drive::platform(PLATFORM), pipeline_config(true, cache))
        .map_err(|e| e.to_string())?;
    for &(kernel, size) in &keys.disk {
        for nest in build(kernel, size)? {
            session.run(&nest).map_err(|e| format!("populate {kernel}({size}): {e}"))?;
        }
    }
    // The same warm-up key for every seed (the pool's order is seeded).
    let (kernel, size) = *keys.disk.iter().min().ok_or("empty disk pool")?;
    let warm = vec![line_for("warm-up", kernel, size, false, true)];
    serve_lines(&warm)?;
    Ok(Setup { dir, keys, rng: Rng::new(cfg.seed, 5) })
}

fn build(kernel: &str, size: usize) -> Result<Vec<palo_ir::LoopNest>, String> {
    let b = Benchmark::all()
        .into_iter()
        .find(|b| b.name() == kernel)
        .ok_or_else(|| format!("no kernel {kernel}"))?;
    b.build(size).map_err(|e| format!("{kernel}({size}): {e}"))
}

struct Got {
    response: Response,
    at: Instant,
}

struct Phase {
    rate: f64,
    planned: Vec<Planned>,
    due: Vec<Instant>,
    lag_ms: Vec<f64>,
    got: Vec<Vec<Got>>,
    stats: palo_serve::ServeStats,
    cache: palo_core::CacheStats,
    start: Instant,
}

impl Phase {
    /// Latency from due time; a request refused, failed or never
    /// answered misses every limit (infinite latency).
    fn latencies(&self, filter: impl Fn(&Planned) -> bool) -> Vec<f64> {
        self.planned
            .iter()
            .enumerate()
            .filter(|(_, p)| filter(p))
            .map(|(i, _)| match self.got[i].first() {
                Some(g) if g.response.is_ok() => (g.at - self.due[i]).as_secs_f64() * 1e3,
                _ => f64::INFINITY,
            })
            .collect()
    }

    fn last_response(&self) -> Option<Instant> {
        self.got.iter().flatten().map(|g| g.at).max()
    }

    /// Time from the last due request to the last response: a backlog
    /// that grew during the phase shows up as a long drain.
    fn drain_ms(&self) -> f64 {
        match (self.due.last(), self.last_response()) {
            (Some(d), Some(r)) => r.saturating_duration_since(*d).as_secs_f64() * 1e3,
            _ => 0.0,
        }
    }

    /// OK responses per second from the first due time to the last
    /// response.
    fn throughput(&self) -> f64 {
        let ok = self.got.iter().filter(|g| g.first().is_some_and(|g| g.response.is_ok()));
        let done = ok.count() as f64;
        self.last_response().map_or(0.0, |r| done / (r - self.start).as_secs_f64())
    }

    /// Whether this rate is sustained: p90 within the limit, and no
    /// growing backlog (the work queued at the last arrival drains
    /// within a second).
    fn passes(&self) -> bool {
        let all = self.latencies(|_| true);
        quantile(&all, 0.9) <= P90_LIMIT_MS && self.drain_ms() <= 1000.0
    }

    /// Per OK response: summed pass time (service) in ms.
    fn service_ms(&self) -> Vec<f64> {
        self.got
            .iter()
            .filter_map(|g| g.first()?.response.ok())
            .map(|ok| ok.nests.iter().flat_map(|n| &n.passes).map(|p| p.ms).sum())
            .collect()
    }
}

fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// One open-loop phase on a fresh server over a private copy of the
/// disk pool.
fn run_phase(
    pool: &Path,
    rate: f64,
    planned: Vec<Planned>,
    tracer: Option<&Tracer>,
) -> Result<Phase, String> {
    let phase_dir = ScratchDir::new("serve-phase")?;
    copy_tree(pool, phase_dir.path()).map_err(|e| format!("copying the disk pool: {e}"))?;
    let cache =
        CacheConfig { dir: Some(phase_dir.path().to_path_buf()), ..CacheConfig::default() };
    let config = ServeConfig {
        pipeline: pipeline_config(true, cache),
        workers: Some(1),
        queue_capacity: QUEUE_CAPACITY,
        shed: SHED,
    };
    settle_fs();
    let server =
        Server::start(&drive::platform(PLATFORM), config).map_err(|e| e.to_string())?;
    let (tx, rx) = mpsc::channel::<(usize, Got)>();
    let start = Instant::now() + Duration::from_millis(20);
    let mut due = Vec::with_capacity(planned.len());
    let mut lag_ms = Vec::with_capacity(planned.len());
    for (i, p) in planned.iter().enumerate() {
        let at = start + p.offset;
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        let submitted = Instant::now();
        due.push(at);
        lag_ms.push((submitted - at).as_secs_f64() * 1e3);
        let tx = tx.clone();
        let respond = move |response: Response| {
            // Render as a line transport would; the line itself is
            // checked by the JSON probe.
            std::hint::black_box(response.to_json());
            let _ = tx.send((i, Got { response, at: Instant::now() }));
        };
        maybe_span(tracer, "serve.submit", 0, i as u64, |_| {
            server.submit_line(&p.line, &i.to_string(), Box::new(respond))
        });
    }
    drop(tx);
    let mut got: Vec<Vec<Got>> = (0..planned.len()).map(|_| Vec::new()).collect();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut received = 0;
    while received < planned.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok((i, g)) => {
                if let Some(t) = tracer {
                    let id = t.id();
                    t.record(id, "serve.request", 0, i as u64, due[i], g.at);
                }
                got[i].push(g);
                received += 1;
            }
            Err(_) => break,
        }
    }
    let cache = server.session().cache_stats();
    let stats = server.shutdown();
    // Late duplicates (which would be a protocol violation) are counted.
    for (i, g) in rx.try_iter() {
        got[i].push(g);
    }
    Ok(Phase { rate, planned, due, lag_ms, got, stats, cache, start })
}

/// The answer a direct `Session::run` gives, in `decision_signature`'s
/// format.
fn reference_signature(session: &Session, kernel: &str, size: usize) -> Result<String, String> {
    let analytic = RunOverrides { simulate: Some(false), ..RunOverrides::default() };
    let mut sig = String::new();
    for nest in build(kernel, size)? {
        let out = session.run_with(&nest, &analytic).map_err(|e| e.to_string())?;
        let d = out.decision.as_ref();
        sig.push_str(&format!(
            "{}:{}:{}:{:?}:{:?};",
            nest.name(),
            out.report.rung.as_str(),
            d.map(|d| format!("{:?}", d.class)).as_deref().unwrap_or("-"),
            d.map(|d| d.tile.clone()).unwrap_or_default(),
            d.map(|d| d.predicted_cost),
        ));
    }
    Ok(sig)
}

/// The correctness gate: exactly one response per request, every OK
/// signature equal to a direct run's, no answer above the fidelity asked
/// (an analytic request carries no simulated estimate).
fn verify(phases: &[Phase], out: &mut Outcome) -> Result<(), String> {
    let session = Session::new(
        &drive::platform(PLATFORM),
        pipeline_config(false, CacheConfig::default()),
    )
    .map_err(|e| e.to_string())?;
    let mut reference: HashMap<(&str, usize), String> = HashMap::new();
    for phase in phases {
        for (p, got) in phase.planned.iter().zip(&phase.got) {
            let Some(g) = got.first() else {
                out.attempt(false, || format!("{}: no response", p.line));
                continue;
            };
            if got.len() > 1 {
                out.attempt(false, || format!("{}: {} responses", p.line, got.len()));
                continue;
            }
            let Some(ok) = g.response.ok() else {
                out.attempt(false, || format!("{}: {}", p.line, g.response.to_json()));
                continue;
            };
            let want = match reference.entry((p.kernel, p.size)) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(reference_signature(&session, p.kernel, p.size)?)
                }
            };
            let fidelity_ok = if p.analytic {
                ok.fidelity == Fidelity::Analytic
                    && ok.nests.iter().all(|n| n.estimate_ms.is_none())
            } else {
                ok.fidelity == Fidelity::Analytic
                    || ok.nests.iter().all(|n| n.estimate_ms.is_some())
            };
            let sig = ok.decision_signature();
            out.attempt(sig == *want && fidelity_ok, || {
                format!("{}: signature {sig} (want {want}), fidelity {}", p.line, ok.fidelity)
            });
        }
    }
    Ok(())
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = SetupTimes::default();
    for _ in 1..SETUPS_BEFORE {
        setups.time(|| setup(cfg))?;
    }
    let mut state = setups.time(|| setup(cfg))?;
    let durations = phase_durations(cfg.seconds, cfg.trace);
    let mut phases = Vec::new();
    for (i, rate) in RATES.iter().enumerate() {
        let duration = durations[i];
        let planned = plan(&mut state.rng, &mut state.keys, RATE_NAMES[i], *rate, duration);
        phases.push(run_phase(state.dir.path(), *rate, planned, None)?);
        for _ in 0..SETUPS_AFTER_PHASE {
            setups.time(|| setup(cfg))?;
        }
    }
    let mid = &phases[1];
    let high = &phases[2];
    let mid_all = mid.latencies(|_| true);
    let best = phases.iter().rev().find(|p| p.passes());
    // The one worker's capacity for this request mix: OK responses per
    // second of service (summed pass time) at the low and mid rates,
    // where nothing is shed. The offered rate does not enter it.
    let service: Vec<f64> = phases[..2].iter().flat_map(Phase::service_ms).collect();
    let capacity = ratio(service.len() as f64, service.iter().sum::<f64>() / 1e3);
    let served_full = |p: &Phase| {
        let ok: Vec<_> = p.got.iter().filter_map(|g| g.first()?.response.ok()).collect();
        ratio(
            ok.iter().filter(|o| o.fidelity == Fidelity::Full).count() as f64,
            ok.len() as f64,
        )
    };

    if !cfg.trace {
        out.metric("setup_s", setups.median(), "s");
        out.metric("peak_rss_mb", crate::util::peak_rss_mb(), "MB");
        out.metric("throughput_per_s", capacity, "1/s");
        out.metric("p50_ms", quantile(&mid_all, 0.5), "ms");
        out.metric("p90_ms", quantile(&mid_all, 0.9), "ms");
        for p in &phases {
            let all = p.latencies(|_| true);
            out.note(&format!("rate_{:.0}.samples", p.rate), all.len() as f64, "count");
            out.note(&format!("rate_{:.0}.p90_ms", p.rate), quantile(&all, 0.9), "ms");
            out.note(&format!("rate_{:.0}.drain_ms", p.rate), p.drain_ms(), "ms");
            out.note(&format!("rate_{:.0}.throughput", p.rate), p.throughput(), "1/s");
            let svc = p.service_ms();
            out.note(&format!("rate_{:.0}.p50_ms", p.rate), quantile(&all, 0.5), "ms");
            out.note(
                &format!("rate_{:.0}.utilization", p.rate),
                svc.iter().sum::<f64>() / 1e3 / (p.planned.len() as f64 / p.rate),
                "ratio",
            );
        }
        out.note("setups", setups.count() as f64, "count");
        out.note("capacity_samples", service.len() as f64, "count");
        out.note("max_rate_rps", best.map_or(0.0, |p| p.rate), "1/s");
        out.note("p99_ms", quantile(&mid_all, 0.99), "ms");
        let hi_inter = high.latencies(|p| p.interactive);
        out.note("interactive_p99_ms", quantile(&hi_inter, 0.99), "ms");
        out.note("interactive_samples", hi_inter.len() as f64, "count");
        out.note("full_fidelity_share", served_full(high), "ratio");
        verify(&phases, &mut out)?;
        return Ok(out);
    }

    // Traced pass at the mid rate.
    let tracer = Tracer::default();
    let planned = plan(&mut state.rng, &mut state.keys, "traced", RATES[1], durations[1]);
    let traced = run_phase(state.dir.path(), RATES[1], planned, Some(&tracer))?;
    let traced_all = traced.latencies(|_| true);
    let mut layers = Layers {
        trace_overhead_share: quantile(&traced_all, 0.5) / quantile(&mid_all, 0.5) - 1.0,
        ..Layers::default()
    };
    let mut waits = Vec::new();
    let mut service = Vec::new();
    for g in traced.got.iter().filter_map(|g| g.first()) {
        let Some(ok) = g.response.ok() else { continue };
        let mut svc = 0.0;
        for n in &ok.nests {
            for pt in &n.passes {
                svc += pt.ms;
                if let Some(i) = PASSES.iter().position(|p| *p == pt.pass) {
                    layers.pass_self_ms[i] += pt.ms;
                }
            }
        }
        layers.items += 1;
        service.push(svc);
        waits.push((ok.elapsed.as_secs_f64() * 1e3 - svc).max(0.0));
    }
    layers.wait_ms_p50 = quantile(&waits, 0.5);
    layers.wait_ms_p99 = quantile(&waits, 0.99);
    layers.service_ms_p50 = quantile(&service, 0.5);
    layers.busy_s = service.iter().sum::<f64>() / 1e3;
    layers.batch_wall_s =
        traced.last_response().map_or(0.0, |r| (r - traced.start).as_secs_f64());
    let s = traced.stats;
    layers.shed_share = ratio(s.shed as f64, s.served as f64);
    layers.refused_share =
        ratio((s.rejected_full + s.expired) as f64, traced.planned.len() as f64);
    layers.generator_lag_ms = quantile(&traced.lag_ms, 0.99);
    layers.cache.absorb(&traced.cache);
    phases.push(traced);
    let suite_like = crate::suite::generate(cfg.seed, cfg.scale)?;
    crate::probe::run(cfg, &suite_like[0], &mut layers, &mut out)?;
    verify(&phases, &mut out)?;
    crate::finish_trace(&tracer, cfg, "serve-mixed", &mut out);
    layers.emit(&mut out);
    Ok(out)
}
