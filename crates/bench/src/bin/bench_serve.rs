//! Perf-tracking harness for the serving layer (`palo-serve`).
//!
//! Drives one warm [`Server`] with a deterministic burst of
//! mixed-priority requests — the same generator shape as the chaos soak,
//! minus the fault injection — and writes latency percentiles (overall
//! and per lane) plus the admission/shedding counters to
//! `BENCH_serve.json`.
//!
//! Exit status is non-zero when a response is lost (the client ledger
//! and the server's terminal counters disagree), when a worker panics,
//! or when nothing was served at all. Shedding and door rejections are
//! *reported*, not failed on: an overloaded run is a valid measurement.
//!
//! Environment:
//!
//! * `PALO_BENCH_SERVE_REQUESTS` — request count, default 400;
//! * `PALO_BENCH_SERVE_WORKERS` — worker threads, default 4;
//! * `PALO_BENCH_SERVE_QUEUE` — admission-queue capacity, default 16;
//! * `PALO_BENCH_SERVE_PACE_US` — microseconds each client thread
//!   breathes after a burst of 4 submissions, default 15000; `0` blasts
//!   the whole load at once (pure-overload measurement);
//! * `PALO_BENCH_SERVE_PLATFORM` — one of `5930k,6700,a15`, default
//!   `6700`;
//! * `PALO_BENCH_SERVE_OUT` — output path, default `BENCH_serve.json`.

use palo_arch::{presets, Architecture};
use palo_core::{PipelineConfig, Priority};
use palo_serve::{Fidelity, Request, Response, ServeConfig, Server, ShedPolicy};
use std::fmt::Write as _;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Deterministic request mix (no global RNG: reruns are comparable).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

const POOL: [(&str, usize); 8] = [
    ("matmul", 16),
    ("matmul", 32),
    ("gemm", 16),
    ("trmm", 16),
    ("copy", 48),
    ("mask", 48),
    ("tp", 48),
    ("3mm", 12),
];

fn request(n: usize, rng: &mut Lcg) -> Request {
    let (kernel, size) = POOL[(rng.next() % POOL.len() as u64) as usize];
    let priority =
        if rng.next().is_multiple_of(3) { Priority::Interactive } else { Priority::Batch };
    let fidelity =
        if rng.next().is_multiple_of(7) { Fidelity::Analytic } else { Fidelity::Full };
    Request {
        id: format!("b{n}"),
        kernel: kernel.to_string(),
        size: Some(size),
        priority,
        deadline: None,
        max_trace_lines: None,
        fidelity,
        faults: None,
    }
}

/// `p` in `[0,1]` over a sorted latency slice, nearest-rank.
fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

struct LaneRow {
    lane: &'static str,
    count: usize,
    p50: f64,
    p95: f64,
    p99: f64,
}

fn lane_row(lane: &'static str, mut latencies_ms: Vec<f64>) -> LaneRow {
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    LaneRow {
        lane,
        count: latencies_ms.len(),
        p50: percentile_ms(&latencies_ms, 0.50),
        p95: percentile_ms(&latencies_ms, 0.95),
        p99: percentile_ms(&latencies_ms, 0.99),
    }
}

fn env_parse<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key).ok().and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

fn platform(name: &str) -> Option<(&'static str, Architecture)> {
    match name {
        "5930k" => Some(("5930k", presets::repro::intel_i7_5930k())),
        "6700" => Some(("6700", presets::repro::intel_i7_6700())),
        "a15" => Some(("a15", presets::repro::arm_cortex_a15())),
        _ => None,
    }
}

fn main() {
    let total: usize = env_parse("PALO_BENCH_SERVE_REQUESTS", 400);
    let workers: usize = env_parse("PALO_BENCH_SERVE_WORKERS", 4);
    let queue: usize = env_parse("PALO_BENCH_SERVE_QUEUE", 16);
    let pace_us: u64 = env_parse("PALO_BENCH_SERVE_PACE_US", 15_000);
    let out_path =
        std::env::var("PALO_BENCH_SERVE_OUT").unwrap_or_else(|_| "BENCH_serve.json".into());
    let platform_name =
        std::env::var("PALO_BENCH_SERVE_PLATFORM").unwrap_or_else(|_| "6700".into());
    let Some((platform_label, arch)) = platform(platform_name.trim()) else {
        eprintln!("bench_serve: unknown platform '{platform_name}'");
        std::process::exit(2);
    };

    let server = match Server::start(
        &arch,
        ServeConfig {
            pipeline: PipelineConfig::default(),
            workers: Some(workers.max(1)),
            queue_capacity: queue,
            shed: ShedPolicy::default(),
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_serve: cannot open session: {e}");
            std::process::exit(2);
        }
    };

    let mut rng = Lcg(0x0be1_1c45_e44e);
    let requests: Vec<Request> = (0..total).map(|n| request(n, &mut rng)).collect();

    // Three client threads; each responder reports (lane, ok, latency)
    // measured from its own submission instant.
    let (tx, rx) = mpsc::channel::<(Priority, bool, Duration)>();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for chunk in requests.chunks(total.div_ceil(3).max(1)) {
            let server = &server;
            let tx = tx.clone();
            scope.spawn(move || {
                for (i, req) in chunk.iter().enumerate() {
                    let tx = tx.clone();
                    let lane = req.priority;
                    let submitted = Instant::now();
                    server.submit(
                        req.clone(),
                        Box::new(move |r: Response| {
                            let _ = tx.send((lane, r.is_ok(), submitted.elapsed()));
                        }),
                    );
                    if pace_us > 0 && i % 4 == 3 {
                        std::thread::sleep(Duration::from_micros(pace_us));
                    }
                }
            });
        }
    });
    drop(tx);

    let mut all: Vec<f64> = Vec::with_capacity(total);
    let mut interactive: Vec<f64> = Vec::new();
    let mut batch: Vec<f64> = Vec::new();
    let mut ok_count: u64 = 0;
    for (lane, ok, latency) in rx.iter() {
        let ms = latency.as_secs_f64() * 1e3;
        all.push(ms);
        match lane {
            Priority::Interactive => interactive.push(ms),
            Priority::Batch => batch.push(ms),
        }
        ok_count += u64::from(ok);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let responses = all.len();
    let stats = server.shutdown();
    let cache = stats.cache;

    let rows =
        [lane_row("all", all), lane_row("interactive", interactive), lane_row("batch", batch)];

    let mut failed = false;
    if responses != total || stats.responses() != total as u64 {
        eprintln!(
            "bench_serve: lost responses: client saw {responses}/{total}, server counted {}",
            stats.responses()
        );
        failed = true;
    }
    if stats.worker_panics > 0 {
        eprintln!("bench_serve: {} worker panics", stats.worker_panics);
        failed = true;
    }
    if ok_count != stats.served {
        eprintln!(
            "bench_serve: served disagreement: client {ok_count}, server {}",
            stats.served
        );
        failed = true;
    }
    if stats.served == 0 {
        eprintln!("bench_serve: nothing was served");
        failed = true;
    }

    println!(
        "{platform_label}: {total} requests in {wall_ms:.1} ms: {} served ({} shed, {} retried), \
         {} full, {} expired, {} failed; levels g/y/r {}/{}/{}",
        stats.served,
        stats.shed,
        stats.retried,
        stats.rejected_full,
        stats.expired,
        stats.failed,
        stats.levels[0],
        stats.levels[1],
        stats.levels[2],
    );
    for r in &rows {
        println!(
            "  {:<11} {:>4} responses: p50 {:>8.3} ms, p95 {:>8.3} ms, p99 {:>8.3} ms",
            r.lane, r.count, r.p50, r.p95, r.p99
        );
    }

    // Hand-rendered like the other bench reports: the vendored serde is
    // a no-op stub (offline build).
    let mut out = String::from("{\n  \"bench\": \"serve\",\n");
    let _ = writeln!(out, "  \"platform\": \"{platform_label}\",");
    let _ = writeln!(out, "  \"requests\": {total},");
    let _ = writeln!(out, "  \"workers\": {workers},");
    let _ = writeln!(out, "  \"queue_capacity\": {queue},");
    let _ = writeln!(out, "  \"pace_us\": {pace_us},");
    let _ = writeln!(out, "  \"wall_ms\": {wall_ms:.3},");
    let _ = writeln!(
        out,
        "  \"served\": {}, \"shed\": {}, \"retried\": {}, \"rejected_full\": {}, \
         \"expired\": {}, \"failed\": {},",
        stats.served,
        stats.shed,
        stats.retried,
        stats.rejected_full,
        stats.expired,
        stats.failed
    );
    let _ = writeln!(
        out,
        "  \"levels\": {{\"green\": {}, \"yellow\": {}, \"red\": {}}},",
        stats.levels[0], stats.levels[1], stats.levels[2]
    );
    let _ = writeln!(
        out,
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"bypasses\": {}, \"hit_rate\": {:.4}}},",
        cache.hits,
        cache.misses,
        cache.bypasses,
        cache.hit_rate()
    );
    out.push_str("  \"latency_ms\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"lane\": \"{}\", \"count\": {}, \"p50\": {:.3}, \"p95\": {:.3}, \
             \"p99\": {:.3}}}",
            r.lane, r.count, r.p50, r.p95, r.p99
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");

    if let Err(e) = std::fs::write(&out_path, &out) {
        eprintln!("bench_serve: cannot write {out_path}: {e}");
        failed = true;
    } else {
        println!("wrote {out_path}");
    }
    if failed {
        std::process::exit(1);
    }
}
