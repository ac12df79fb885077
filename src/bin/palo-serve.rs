//! `palo-serve` — the optimizer as a long-lived daemon.
//!
//! One warm [`Session`](palo::core::Session) (resolved cost model +
//! content-addressed artifact cache) behind admission control, priority
//! lanes and a load-shedding ladder. Requests are newline-delimited
//! JSON, one per line, answered one line each — over stdin/stdout by
//! default or a Unix socket with `--socket`:
//!
//! ```text
//! palo-serve [--platform 5930k|6700|a15|zen2|n1|nopf] [--socket PATH]
//!            [--workers N] [--queue N] [--max-sims N]
//!            [--yellow F] [--red F] [--no-estimate]
//!            [--cache-dir DIR] [--cache-policy lru|slru|2q]
//!            [--cache-capacity ENTRIES] [--cache-capacity-bytes BYTES]
//!
//! echo '{"id":"r1","kernel":"matmul","size":256}' | palo-serve
//! ```
//!
//! `--cache-dir` opens the tiered persistent artifact store at startup
//! (DESIGN.md §15): a restarted daemon starts warm, replaying the
//! previous process's pass artifacts bit-identically from disk.
//!
//! SIGINT/SIGTERM (and end of input) drain gracefully: in-flight
//! requests finish, queued ones are answered with a typed `shutdown`
//! rejection, and the lifetime counters go to stderr. Exactly one
//! response per request, always.

use palo::cli::{cache_report, value, SharedFlags};
use palo::core::PipelineConfig;
use palo::serve::{signal, Responder, Response, ServeConfig, Server, ShedPolicy};
use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

struct Args {
    shared: SharedFlags,
    socket: Option<String>,
    workers: Option<usize>,
    queue: usize,
    max_sims: Option<usize>,
    yellow: f64,
    red: f64,
    estimate: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: palo-serve [--platform 5930k|6700|a15|zen2|n1|nopf] [--socket PATH]\n\
         \x20                 [--workers N] [--queue N] [--max-sims N]\n\
         \x20                 [--yellow F] [--red F] [--no-estimate]\n\
         \x20                 [--cache-dir DIR] [--cache-policy lru|slru|2q]\n\
         \x20                 [--cache-capacity ENTRIES] [--cache-capacity-bytes BYTES]\n\
         protocol: one JSON request per line on stdin (or per socket\n\
         connection), one JSON response per line back; see README."
    );
    ExitCode::from(2)
}

fn parse() -> Result<Args, ExitCode> {
    let shed = ShedPolicy::default();
    let mut args = Args {
        shared: SharedFlags::default(),
        socket: None,
        workers: None,
        queue: 64,
        max_sims: None,
        yellow: shed.yellow,
        red: shed.red,
        estimate: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            flag if args.shared.accept(flag, &mut it, usage)? => {}
            "--socket" => args.socket = Some(value(&a, &mut it, usage)?),
            "--workers" => args.workers = Some(value(&a, &mut it, usage)?),
            "--queue" => args.queue = value(&a, &mut it, usage)?,
            "--max-sims" => args.max_sims = Some(value(&a, &mut it, usage)?),
            "--yellow" => args.yellow = value(&a, &mut it, usage)?,
            "--red" => args.red = value(&a, &mut it, usage)?,
            "--no-estimate" => args.estimate = false,
            "-h" | "--help" => return Err(usage()),
            _ => return Err(usage()),
        }
    }
    Ok(args)
}

fn print_drain_stats(stats: &palo::serve::ServeStats) {
    eprintln!(
        "// drained: {} served ({} shed, {} retried), {} rejected full, \
         {} rejected shutdown, {} bad, {} expired, {} failed; levels g/y/r {}/{}/{}",
        stats.served,
        stats.shed,
        stats.retried,
        stats.rejected_full,
        stats.rejected_shutdown,
        stats.bad_requests,
        stats.expired,
        stats.failed,
        stats.levels[0],
        stats.levels[1],
        stats.levels[2],
    );
}

/// Responses to stdout, one line each, under a shared lock so
/// concurrent workers never interleave within a line.
fn stdout_responder() -> Responder {
    Box::new(|response: Response| {
        let out = std::io::stdout();
        let mut lock = out.lock();
        let _ = writeln!(lock, "{}", response.to_json());
        let _ = lock.flush();
    })
}

/// stdin → server. A reader thread feeds lines through a channel so the
/// main loop can poll the signal flag while the pipe is quiet.
fn serve_stdin(server: Server, persistent: bool) -> ExitCode {
    let (tx, rx) = mpsc::channel::<String>();
    std::thread::spawn(move || {
        for line in std::io::stdin().lock().lines() {
            match line {
                Ok(l) => {
                    if tx.send(l).is_err() {
                        return;
                    }
                }
                Err(_) => return,
            }
        }
    });

    let mut seq: u64 = 0;
    let interrupted = loop {
        if signal::shutdown_requested() {
            break true;
        }
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                seq += 1;
                server.submit_line(&line, &format!("#{seq}"), stdout_responder());
            }
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break false, // EOF
        }
    };

    // End of input finishes the work before exiting (one response per
    // submitted line); only a signal cancels what is still queued.
    while !interrupted && server.stats().responses() < seq && !signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(10));
    }

    let cached_artifacts = server.session().cached_artifacts();
    let stats = server.shutdown();
    // After the drain: the totals include the writes persisted after the
    // last answers.
    eprint!("{}", cache_report(&stats.cache, cached_artifacts, persistent));
    print_drain_stats(&stats);
    if interrupted {
        ExitCode::from(130)
    } else {
        ExitCode::SUCCESS
    }
}

/// Unix-socket mode: accept loop with the listener nonblocking so the
/// signal flag is polled between accepts; one reader thread per
/// connection, responses written back to that connection.
#[cfg(unix)]
fn serve_socket(server: Server, path: &str, persistent: bool) -> ExitCode {
    use std::os::unix::net::UnixListener;

    let _ = std::fs::remove_file(path);
    let listener = match UnixListener::bind(path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("cannot poll {path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("// listening on {path}");

    let server = Arc::new(server);
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !signal::shutdown_requested() {
        match listener.accept() {
            Ok((stream, _)) => {
                let server = Arc::clone(&server);
                conns.push(std::thread::spawn(move || {
                    // A read timeout keeps the reader polling the drain
                    // flag even while the client is silent, so shutdown
                    // never hangs on an idle connection.
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
                    let mut reader = match stream.try_clone() {
                        Ok(r) => BufReader::new(r),
                        Err(_) => return,
                    };
                    let writer = Arc::new(Mutex::new(stream));
                    let mut seq: u64 = 0;
                    let mut buf = String::new();
                    while !signal::shutdown_requested() {
                        match reader.read_line(&mut buf) {
                            Ok(0) => break, // client closed
                            Ok(_) => {
                                let line = std::mem::take(&mut buf);
                                if line.trim().is_empty() {
                                    continue;
                                }
                                seq += 1;
                                let writer = Arc::clone(&writer);
                                let responder: Responder =
                                    Box::new(move |response: Response| {
                                        if let Ok(mut w) = writer.lock() {
                                            let _ = writeln!(w, "{}", response.to_json());
                                            let _ = w.flush();
                                        }
                                    });
                                server.submit_line(
                                    line.trim_end(),
                                    &format!("#{seq}"),
                                    responder,
                                );
                            }
                            Err(e)
                                if matches!(
                                    e.kind(),
                                    std::io::ErrorKind::WouldBlock
                                        | std::io::ErrorKind::TimedOut
                                        | std::io::ErrorKind::Interrupted
                                ) =>
                            {
                                // Partial line (if any) stays in `buf`;
                                // keep polling.
                            }
                            Err(_) => break,
                        }
                    }
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => {
                eprintln!("accept failed: {e}");
                break;
            }
        }
    }

    // Drain: close the socket file first so no new connections arrive,
    // then shut the server down (in-flight finish, queued rejected).
    let _ = std::fs::remove_file(path);
    drop(listener);
    for c in conns {
        let _ = c.join();
    }
    match Arc::try_unwrap(server) {
        Ok(server) => {
            let cached_artifacts = server.session().cached_artifacts();
            let stats = server.shutdown();
            eprint!("{}", cache_report(&stats.cache, cached_artifacts, persistent));
            print_drain_stats(&stats);
        }
        Err(server) => {
            let s = server.session();
            eprint!("{}", cache_report(&s.cache_stats(), s.cached_artifacts(), persistent));
            eprintln!("// connection thread leaked; skipping drain report")
        }
    }
    ExitCode::from(130)
}

#[cfg(not(unix))]
fn serve_socket(_server: Server, _path: &str, _persistent: bool) -> ExitCode {
    eprintln!("--socket requires a Unix platform");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(code) => return code,
    };
    if !(args.yellow.is_finite() && args.red.is_finite() && args.yellow <= args.red) {
        eprintln!("--yellow must be <= --red");
        return usage();
    }

    signal::install_shutdown_handler();
    let config = ServeConfig {
        pipeline: PipelineConfig {
            simulate: args.estimate,
            max_concurrent_sims: args.max_sims,
            cache: args.shared.cache.clone(),
            ..PipelineConfig::default()
        },
        workers: args.workers,
        queue_capacity: args.queue,
        shed: ShedPolicy { yellow: args.yellow, red: args.red },
    };
    let server = match Server::start(&args.shared.arch, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open session: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = &args.shared.cache.dir {
        eprintln!("// artifact store: {} (persistent)", dir.display());
    }

    let persistent = args.shared.cache.dir.is_some();
    match &args.socket {
        Some(path) => serve_socket(server, path, persistent),
        None => serve_stdin(server, persistent),
    }
}
