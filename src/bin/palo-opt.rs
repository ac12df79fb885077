//! `palo-opt` — the command-line face of the optimizer, mirroring the
//! tool the paper ships for Halide: give it a kernel, a size and a
//! platform; get the optimization schedule (and optionally a simulated
//! time estimate) back in milliseconds of optimizer runtime.
//!
//! ```text
//! palo-opt <kernel> [--size N] [--platform 5930k|6700|a15|zen2|n1|nopf]
//!          [--technique proposed|autosched|baseline|autotune|tss|tts]
//!          [--model paper|tss|tts|sim]
//!          [--prefetcher l1=SPEC,l2=SPEC,...]
//!          [--ablate no-prefetch-discount,no-corder,...]
//!          [--estimate] [--profile] [--no-nti] [--verbose] [--cache-stats]
//!          [--cache-dir DIR] [--cache-policy lru|slru|2q]
//!          [--cache-capacity ENTRIES] [--cache-capacity-bytes BYTES]
//! palo-opt --batch [kernel] [--threads N] [--estimate] [--profile] [--cache-stats]
//!          [--cache-dir DIR] [--cache-policy lru|slru|2q] [--cache-capacity N]
//! ```
//!
//! `--prefetcher` swaps individual hardware prefetch units of the chosen
//! platform before optimizing — the prefetcher zoo (DESIGN.md §16). A
//! SPEC is one of `none`, `next-line`, `adjacent-pair`,
//! `stride:DEGREE:MAXDIST`, `confident-stride:DEGREE:MAXDIST:CONF` or
//! `stream:DEGREE:MAXDIST:CONFIRM`; e.g.
//! `--prefetcher l1=adjacent-pair,l2=stream:4:16:2` optimizes for an
//! AMD-style L2 stream unit behind a buddy-line L1. The analytic model's
//! coverage discounts, Algorithm 1's row inflation and set reservations,
//! and the simulator all follow the override.
//!
//! `--cache-dir` opens the tiered persistent artifact store (DESIGN.md
//! §15): a second invocation on the same directory replays the first
//! run's pass artifacts bit-identically instead of re-optimizing.
//! `--cache-policy` and the `--cache-capacity*` flags bound the in-memory
//! tier; decisions are identical under every policy and capacity — only
//! hit rates change.
//!
//! `--profile` (implies `--estimate`) prints, per nest, the per-pass
//! wall-clock breakdown of the run plus the replay engine's run/line
//! compression telemetry.
//!
//! `--batch` routes the whole suite (or one kernel) through the
//! [`palo::serve`] serving core: one warm [`Session`] (shared
//! content-addressed artifact cache), a bounded admission queue and a
//! concurrent worker pool. SIGINT/SIGTERM drain gracefully — in-flight
//! nests finish, queued ones are cancelled with a typed rejection, and
//! the partial results plus cache statistics are still printed.
//! `--cache-stats` prints the session's cache counters afterwards.

use palo::arch::Architecture;
use palo::baselines::{schedule_for, Technique};
use palo::cli::{cache_report, value, SharedFlags};
use palo::core::{
    ModelKind, Optimizer, OptimizerConfig, PipelineConfig, PipelineReport, Priority, Session,
};
use palo::serve::{
    signal, Fidelity, NestResult, Request, Responder, Response, ServeConfig, Server, ShedPolicy,
};
use palo::suite::Benchmark;
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::{Duration, Instant};

struct Args {
    kernel: String,
    size: Option<usize>,
    shared: SharedFlags,
    prefetcher: Option<String>,
    technique: String,
    model: ModelKind,
    ablate: Vec<String>,
    estimate: bool,
    profile: bool,
    nti: bool,
    verbose: bool,
    batch: bool,
    threads: Option<usize>,
    cache_stats: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: palo-opt <kernel> [--size N] [--platform 5930k|6700|a15|zen2|n1|nopf]\n\
         \x20               [--technique proposed|autosched|baseline|autotune|tss|tts]\n\
         \x20               [--model paper|tss|tts|sim]\n\
         \x20               [--prefetcher l1=SPEC,l2=SPEC,...] (SPEC: none|next-line|adjacent-pair|\n\
         \x20                       stride:D:M|confident-stride:D:M:C|stream:D:M:C)\n\
         \x20               [--ablate no-prefetch-discount,no-corder,no-parallel-grain,no-bandwidth-term]\n\
         \x20               [--estimate] [--profile] [--no-nti] [--verbose] [--cache-stats]\n\
         \x20               [--cache-dir DIR] [--cache-policy lru|slru|2q]\n\
         \x20               [--cache-capacity ENTRIES] [--cache-capacity-bytes BYTES]\n\
         \x20      palo-opt --batch [kernel] [--threads N] [--estimate] [--profile] [--cache-stats]\n\
         \x20               [--cache-dir DIR] [--cache-policy lru|slru|2q] [--cache-capacity N]\n\
         kernels: {}",
        Benchmark::all().map(|b| b.name()).join(", ")
    );
    ExitCode::from(2)
}

fn parse() -> Result<Args, ExitCode> {
    let mut args = Args {
        kernel: String::new(),
        size: None,
        shared: SharedFlags::default(),
        prefetcher: None,
        technique: "proposed".into(),
        model: ModelKind::Paper,
        ablate: Vec::new(),
        estimate: false,
        profile: false,
        nti: true,
        verbose: false,
        batch: false,
        threads: None,
        cache_stats: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            flag if args.shared.accept(flag, &mut it, usage)? => {}
            "--size" => args.size = Some(value(&a, &mut it, usage)?),
            "--prefetcher" => args.prefetcher = Some(value(&a, &mut it, usage)?),
            "--technique" => args.technique = value(&a, &mut it, usage)?,
            "--model" => args.model = value(&a, &mut it, usage)?,
            "--ablate" => {
                let list: String = value(&a, &mut it, usage)?;
                args.ablate.extend(list.split(',').map(|s| s.trim().to_string()));
            }
            "--threads" => args.threads = Some(value(&a, &mut it, usage)?),
            "--estimate" => args.estimate = true,
            "--profile" => {
                args.profile = true;
                args.estimate = true; // the breakdown needs the pipeline run
            }
            "--no-nti" => args.nti = false,
            "--verbose" => args.verbose = true,
            "--batch" => args.batch = true,
            "--cache-stats" => args.cache_stats = true,
            "-h" | "--help" => return Err(usage()),
            k if !k.starts_with('-') && args.kernel.is_empty() => args.kernel = k.into(),
            _ => return Err(usage()),
        }
    }
    if args.kernel.is_empty() && !args.batch {
        return Err(usage());
    }
    Ok(args)
}

/// Maps `--ablate` switch names onto [`OptimizerConfig`] flags
/// (DESIGN.md §11's ablation table).
fn apply_ablations(config: &mut OptimizerConfig, ablate: &[String]) -> Result<(), ExitCode> {
    for a in ablate {
        match a.as_str() {
            "no-prefetch-discount" => config.prefetch_discount = false,
            "no-corder" => config.reorder_step = false,
            "no-halve-l2" => config.halve_l2_sets = false,
            "no-parallel-grain" => config.parallel_grain_constraint = false,
            "no-bandwidth-term" => config.bandwidth_term = false,
            other => {
                eprintln!("unknown ablation {other:?}");
                return Err(usage());
            }
        }
    }
    Ok(())
}

/// Applies `--prefetcher` overrides (`l1=SPEC,l2=SPEC,...`) to the
/// chosen platform. Specs use the [`palo::arch::PrefetcherConfig`]
/// grammar; levels are named `l1`, `l2`, `l3` outermost-first.
fn apply_prefetcher_overrides(arch: &mut Architecture, overrides: &str) -> Result<(), String> {
    for part in overrides.split(',') {
        let part = part.trim();
        let (level, spec) = part
            .split_once('=')
            .ok_or_else(|| format!("prefetcher override {part:?} is not LEVEL=SPEC"))?;
        let k = match level.trim().to_ascii_lowercase().as_str() {
            "l1" => 0,
            "l2" => 1,
            "l3" => 2,
            other => return Err(format!("unknown cache level {other:?} (use l1, l2 or l3)")),
        };
        if k >= arch.caches.len() {
            return Err(format!("platform {:?} has no {} cache", arch.name, level.trim()));
        }
        arch.caches[k].prefetcher = spec.trim().parse()?;
    }
    Ok(())
}

fn optimizer_config(args: &Args) -> Result<OptimizerConfig, ExitCode> {
    let mut config = OptimizerConfig {
        enable_nti: args.nti,
        model: args.model,
        ..OptimizerConfig::default()
    };
    apply_ablations(&mut config, &args.ablate)?;
    Ok(config)
}

/// `--profile`: per-pass wall-clock of one run plus the replay engine's
/// compression telemetry.
fn print_profile(report: &PipelineReport) {
    for (pass, dur, requests, cached) in report.pass_totals() {
        println!(
            "//   {:<9} {:>9.3} ms ({requests} requests, {cached} cached)",
            pass,
            dur.as_secs_f64() * 1e3
        );
    }
    if let Some(est) = &report.estimate {
        let r = &est.replay;
        let lines_per_run = if r.runs > 0 { r.run_lines as f64 / r.runs as f64 } else { 0.0 };
        println!(
            "//   replay: {} lines in {} batched events ({lines_per_run:.1} lines/event)",
            r.run_lines, r.runs
        );
    }
}

/// The served-batch equivalent of [`print_profile`]: the per-pass and
/// replay telemetry carried back in the protocol's [`NestResult`].
fn print_profile_nest(n: &NestResult) {
    for p in &n.passes {
        println!(
            "//   {:<9} {:>9.3} ms ({} requests, {} cached)",
            p.pass, p.ms, p.requests, p.cached
        );
    }
    if let Some([runs, run_lines, ..]) = n.replay {
        let lines_per_run = if runs > 0 { run_lines as f64 / runs as f64 } else { 0.0 };
        println!(
            "//   replay: {run_lines} lines in {runs} batched events ({lines_per_run:.1} lines/event)"
        );
    }
}

/// `--batch`: the suite (or one kernel) through the [`palo::serve`]
/// serving core — one warm session, admission queue, worker pool — with
/// a SIGINT/SIGTERM graceful drain: finished nests are printed, queued
/// ones are cancelled, cache statistics survive the interrupt.
fn run_batch(args: &Args, arch: &Architecture) -> ExitCode {
    let benchmarks: Vec<Benchmark> = if args.kernel.is_empty() {
        Benchmark::all().into_iter().collect()
    } else {
        match Benchmark::all().into_iter().find(|b| b.name() == args.kernel) {
            Some(b) => vec![b],
            None => {
                eprintln!("unknown kernel {:?}", args.kernel);
                return usage();
            }
        }
    };

    let config = match optimizer_config(args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    signal::install_shutdown_handler();
    let serve_config = ServeConfig {
        pipeline: PipelineConfig {
            optimizer: config,
            simulate: args.estimate,
            cache: args.shared.cache.clone(),
            ..PipelineConfig::default()
        },
        workers: args.threads,
        // A closed batch is not an overloaded service: admit everything,
        // shed nothing.
        queue_capacity: benchmarks.len().max(1),
        shed: ShedPolicy { yellow: 2.0, red: 2.0 },
    };
    let server = match Server::start(arch, serve_config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open session: {e}");
            return ExitCode::FAILURE;
        }
    };

    let t0 = Instant::now();
    let (tx, rx) = mpsc::channel::<Response>();
    for b in &benchmarks {
        let request = Request {
            id: b.name().to_string(),
            kernel: b.name().to_string(),
            size: args.size,
            priority: Priority::Batch,
            deadline: None,
            max_trace_lines: None,
            fidelity: if args.estimate { Fidelity::Full } else { Fidelity::Analytic },
            faults: None,
        };
        let tx = tx.clone();
        server.submit(
            request,
            Box::new(move |r| {
                let _ = tx.send(r);
            }) as Responder,
        );
    }

    // Collect until every response arrived or a drain was requested.
    let mut responses: Vec<Response> = Vec::new();
    let interrupted = loop {
        if responses.len() == benchmarks.len() {
            break false;
        }
        if signal::shutdown_requested() {
            break true;
        }
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(r) => responses.push(r),
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break false,
        }
    };
    // Graceful drain: in-flight benchmarks finish (their responses land
    // in the channel), still-queued ones come back as typed `shutdown`
    // rejections.
    let cached_artifacts = server.session().cached_artifacts();
    let persistent = args.shared.cache.dir.is_some();
    let stats = server.shutdown();
    while let Ok(r) = rx.try_recv() {
        responses.push(r);
    }
    let elapsed = t0.elapsed();

    let order = |id: &str| benchmarks.iter().position(|b| b.name() == id).unwrap_or(usize::MAX);
    responses.sort_by_key(|r| order(&r.id));
    let nest_count: usize =
        responses.iter().filter_map(Response::ok).map(|ok| ok.nests.len()).sum();
    let succeeded = responses.iter().filter(|r| r.is_ok()).count();
    let cancelled = responses
        .iter()
        .filter(|r| r.error_kind() == Some(palo::serve::ErrorKind::Shutdown))
        .count();
    let failed = responses.len() - succeeded - cancelled;
    println!(
        "// batch: {} nests on {} in {:.3?} ({} ok, {} failed, {} cancelled)",
        nest_count, arch.name, elapsed, succeeded, failed, cancelled
    );
    for r in &responses {
        match &r.body {
            palo::serve::ResponseBody::Ok(ok) => {
                for n in &ok.nests {
                    let mut line = format!("// {:<12} rung {}", n.name, n.rung);
                    if let Some(class) = &n.class {
                        line.push_str(&format!(", class {class}, tile {:?}", n.tile));
                    }
                    if let Some(ms) = n.estimate_ms {
                        line.push_str(&format!(", est {ms:.3} ms"));
                    }
                    println!("{line}");
                    if args.profile {
                        print_profile_nest(n);
                    }
                }
            }
            palo::serve::ResponseBody::Err { kind, message } => {
                println!("// {:<12} {}: {message}", r.id, kind.as_str().to_uppercase());
            }
        }
    }
    if args.cache_stats {
        print!("{}", cache_report(&stats.cache, cached_artifacts, persistent));
    }
    debug_assert_eq!(stats.responses() as usize, responses.len(), "a response was lost");
    if interrupted {
        ExitCode::from(130)
    } else if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(code) => return code,
    };
    let mut arch = args.shared.arch.clone();
    if let Some(overrides) = &args.prefetcher {
        if let Err(e) = apply_prefetcher_overrides(&mut arch, overrides) {
            eprintln!("{e}");
            return usage();
        }
    }
    let arch = arch;
    if args.batch {
        return run_batch(&args, &arch);
    }
    let Some(benchmark) = Benchmark::all().into_iter().find(|b| b.name() == args.kernel) else {
        eprintln!("unknown kernel {:?}", args.kernel);
        return usage();
    };
    let nests = match args.size {
        Some(s) => benchmark.build(s),
        None => benchmark.build_scaled(),
    };
    let nests = match nests {
        Ok(n) => n,
        Err(e) => {
            eprintln!("cannot build kernel: {e}");
            return ExitCode::FAILURE;
        }
    };

    // One session for every nest and estimate of this invocation: the
    // model is resolved once and repeated work hits the artifact cache
    // (persisting across processes when --cache-dir is given).
    let pipeline =
        PipelineConfig { cache: args.shared.cache.clone(), ..PipelineConfig::default() };
    let session = match Session::new(&arch, pipeline) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open session: {e}");
            return ExitCode::FAILURE;
        }
    };

    for nest in &nests {
        if args.verbose {
            println!("{nest}");
        }
        let t0 = Instant::now();
        let (schedule, detail) = match args.technique.as_str() {
            "proposed" => {
                let config = match optimizer_config(&args) {
                    Ok(c) => c,
                    Err(code) => return code,
                };
                let d = match Optimizer::with_config(&arch, config).try_optimize(nest) {
                    Ok(d) => d,
                    Err(e) => {
                        eprintln!("optimizer failed: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let bd = &d.breakdown;
                let detail = format!(
                    "model {}, class {:?}, tile {:?}, predicted cost {:.3e}\n\
                     //   breakdown: cl1 {:.3e}, cl2 {:.3e}, cl2_lines {:.3e}, \
                     corder {:.3e}, pref_efficiency {:.3}",
                    args.model,
                    d.class,
                    d.tile,
                    d.predicted_cost,
                    bd.cl1,
                    bd.cl2,
                    bd.cl2_lines,
                    bd.corder,
                    bd.pref_efficiency
                );
                (d.into_schedule(), detail)
            }
            "autosched" => {
                (schedule_for(Technique::AutoScheduler, nest, &arch, 0), String::new())
            }
            "baseline" => (schedule_for(Technique::Baseline, nest, &arch, 0), String::new()),
            "autotune" => (
                schedule_for(Technique::Autotuner { budget: 20 }, nest, &arch, 0),
                String::new(),
            ),
            "tss" => (schedule_for(Technique::Tss, nest, &arch, 0), String::new()),
            "tts" => (schedule_for(Technique::Tts, nest, &arch, 0), String::new()),
            other => {
                eprintln!("unknown technique {other:?}");
                return usage();
            }
        };
        let opt_time = t0.elapsed();

        println!("// {} on {} — optimizer ran in {:.3?}", nest.name(), arch.name, opt_time);
        if !detail.is_empty() {
            println!("// {detail}");
        }
        println!("{schedule}");

        if args.estimate {
            match session.run_schedule(nest, &schedule) {
                Ok(out) => {
                    if out.report.fallback_fired() {
                        eprintln!(
                            "// schedule unusable, fell back to the {} schedule",
                            out.report.rung
                        );
                    }
                    for f in &out.report.failures {
                        eprintln!("//   {} rung: {}", f.rung, f.error);
                    }
                    match &out.report.estimate {
                        Some(est) => println!(
                            "// estimated {:.3} ms ({} lines of memory traffic, speedup {:.1}x)",
                            est.ms,
                            est.stats.mem_traffic_lines(),
                            est.speedup
                        ),
                        None => eprintln!("// no estimate: simulation failed (see above)"),
                    }
                    if args.profile {
                        print_profile(&out.report);
                    }
                }
                Err(e) => eprintln!("pipeline failed: {e}"),
            }
        }
    }
    if args.cache_stats {
        let (stats, persistent) = (session.cache_stats(), args.shared.cache.dir.is_some());
        print!("{}", cache_report(&stats, session.cached_artifacts(), persistent));
    }
    ExitCode::SUCCESS
}
