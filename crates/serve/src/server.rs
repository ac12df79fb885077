//! The serving core: one warm [`Session`] behind an admission queue and
//! a worker pool.
//!
//! Life of a request:
//!
//! 1. **Admission** — [`Server::submit`] parses nothing (that is
//!    [`Server::submit_line`]'s job), resolves the kernel, and offers the
//!    job to the bounded [`AdmissionQueue`]. At capacity or after
//!    shutdown the job is answered immediately with a typed rejection —
//!    never buffered without bound, never dropped.
//! 2. **Scheduling** — workers pop lane-then-smallest-first. At dequeue
//!    the worker reads the queue pressure, takes the shedding ladder's
//!    level, and derives the fidelity this request is served at.
//! 3. **Deadline** — the remaining deadline (measured from admission) is
//!    propagated into the pipeline's trace-walk guard via
//!    [`RunOverrides`]; a request that expired while queued is answered
//!    with a typed [`ErrorKind::DeadlineExpired`] without running.
//! 4. **Execution** — [`Session::run_unpersisted`] per nest, panics
//!    isolated by [`catch_panic`]. New artifacts enter the session's
//!    memory tier at once; their disk writes are held as
//!    [`PendingWrites`]. A transient failure (injected fault, caught
//!    panic, exhausted budget) earns one retry with faults disarmed and
//!    analytic fidelity; what remains is a typed failure.
//! 5. **Response** — exactly one [`Response`] per submitted request,
//!    through the job's [`Responder`] closure (stdout, a socket, a test
//!    channel — the server does not care).
//! 6. **Persistence** — only then does the worker write the request's
//!    artifacts (both attempts', if it retried) to the disk tier, before
//!    it pops the next job. File creation costs far more than a warm
//!    answer, so the client never waits for it; the request's own disk
//!    `bytes_written` therefore shows in the session totals, not in its
//!    response's `cache` window.
//!
//! [`Server::shutdown`] drains gracefully: the queue closes, its pending
//! entries are rejected with [`ErrorKind::Shutdown`], in-flight requests
//! finish and persist, workers exit, and the final statistics are
//! returned — with every served artifact on disk.

use crate::protocol::{ErrorKind, NestResult, OkResponse, Request, Response, ResponseBody};
use crate::queue::{AdmissionQueue, PushError};
use crate::shed::{Fidelity, ShedLevel, ShedPolicy};
use palo_core::{
    catch_panic, CacheStats, FaultPlan, PaloError, PendingWrites, PipelineConfig,
    PipelineOutcome, RunOverrides, Session,
};
use palo_ir::LoopNest;
use palo_suite::Benchmark;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Delivers the response for one request. Submitters choose the
/// transport: the stdin server writes to locked stdout, the socket
/// server to its connection, tests to a channel.
pub type Responder = Box<dyn FnOnce(Response) + Send + 'static>;

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Pipeline configuration of the warm session (cost model, budgets,
    /// `max_concurrent_sims`, …). `simulate` should stay `true`: the
    /// per-request fidelity decides whether simulation actually runs.
    pub pipeline: PipelineConfig,
    /// Worker threads; `None` picks a small machine-derived default.
    pub workers: Option<usize>,
    /// Admission-queue bound (clamped to ≥ 1).
    pub queue_capacity: usize,
    /// The shedding ladder's thresholds.
    pub shed: ShedPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            pipeline: PipelineConfig::default(),
            workers: None,
            queue_capacity: 64,
            shed: ShedPolicy::default(),
        }
    }
}

/// A snapshot of the server's lifetime counters. Every submitted
/// request lands in exactly one terminal counter; [`ServeStats::responses`]
/// totals them for the zero-lost-responses check.
///
/// [`ServeStats::cache`] is the session's lifetime cache totals. The
/// snapshot [`Server::shutdown`] returns is taken after the workers
/// finished persisting, so it counts every disk write a response's own
/// `cache` window does not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered with a decision (degraded ones included).
    pub served: u64,
    /// Served below the fidelity the request asked for (load shedding).
    pub shed: u64,
    /// Served from the degraded retry after a transient failure.
    pub retried: u64,
    /// Rejected at admission: queue full.
    pub rejected_full: u64,
    /// Rejected because the server was draining (at admission or stolen
    /// from the queue at shutdown).
    pub rejected_shutdown: u64,
    /// Malformed or unresolvable requests.
    pub bad_requests: u64,
    /// Deadline expired before a worker picked the request up.
    pub expired: u64,
    /// Pipeline failures that survived the retry.
    pub failed: u64,
    /// Requests dequeued at each shedding level, best first
    /// `[green, yellow, red]`.
    pub levels: [u64; 3],
    /// Worker threads that died by panic (must stay 0; responses are
    /// panic-isolated per request).
    pub worker_panics: u64,
    /// The warm session's lifetime artifact-cache counters.
    pub cache: CacheStats,
}

impl ServeStats {
    /// Total responses delivered — with zero lost responses this equals
    /// the number of submissions.
    pub fn responses(&self) -> u64 {
        self.served
            + self.rejected_full
            + self.rejected_shutdown
            + self.bad_requests
            + self.expired
            + self.failed
    }
}

#[derive(Default)]
struct Counters {
    served: AtomicU64,
    shed: AtomicU64,
    retried: AtomicU64,
    rejected_full: AtomicU64,
    rejected_shutdown: AtomicU64,
    bad_requests: AtomicU64,
    expired: AtomicU64,
    failed: AtomicU64,
    levels: [AtomicU64; 3],
    worker_panics: AtomicU64,
}

impl Counters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self, worker_panics: u64, cache: CacheStats) -> ServeStats {
        ServeStats {
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            rejected_full: self.rejected_full.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            levels: [
                self.levels[0].load(Ordering::Relaxed),
                self.levels[1].load(Ordering::Relaxed),
                self.levels[2].load(Ordering::Relaxed),
            ],
            worker_panics: self.worker_panics.load(Ordering::Relaxed) + worker_panics,
            cache,
        }
    }
}

struct Job {
    request: Request,
    nests: Vec<LoopNest>,
    admitted: Instant,
    responder: Responder,
}

struct Shared {
    session: Session,
    shed: ShedPolicy,
    queue: AdmissionQueue<Job>,
    counters: Counters,
}

/// The daemon core: a warm [`Session`], an [`AdmissionQueue`] and a
/// worker pool. See the module docs for a request's life.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Opens the session (validating the architecture once) and starts
    /// the worker pool.
    ///
    /// # Errors
    ///
    /// As for [`Session::new`]: an invalid architecture or a hierarchy
    /// the simulator cannot model.
    pub fn start(
        arch: &palo_arch::Architecture,
        config: ServeConfig,
    ) -> Result<Server, PaloError> {
        let session = Session::new(arch, config.pipeline)?;
        let shared = Arc::new(Shared {
            session,
            shed: config.shed,
            queue: AdmissionQueue::new(config.queue_capacity),
            counters: Counters::default(),
        });
        let worker_count = config
            .workers
            .unwrap_or_else(|| palo_core::search::resolve_threads(None).min(4))
            .max(1);
        let workers = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    while let Some(job) = shared.queue.pop() {
                        // One request must never take a worker (and with
                        // it the whole drain) down.
                        if catch_panic("serve-worker", || serve_one(&shared, job)).is_err() {
                            Counters::bump(&shared.counters.worker_panics);
                        }
                    }
                })
            })
            .collect();
        Ok(Server { shared, workers })
    }

    /// The warm session (for cache statistics and configuration).
    pub fn session(&self) -> &Session {
        &self.shared.session
    }

    /// Current queue occupancy in `[0, 1]`.
    pub fn pressure(&self) -> f64 {
        self.shared.queue.pressure()
    }

    /// A snapshot of the lifetime counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.counters.snapshot(0, self.shared.session.cache_stats())
    }

    /// Submits a parsed request. Always answers through `responder` —
    /// immediately for rejections (unknown kernel, queue full, server
    /// draining), from a worker otherwise.
    pub fn submit(&self, request: Request, responder: Responder) {
        let nests = {
            let named = Benchmark::all().into_iter().find(|b| b.name() == request.kernel);
            let built = match named {
                None => Err(format!("unknown kernel {:?}", request.kernel)),
                Some(b) => match request.size {
                    Some(s) => b.build(s).map_err(|e| format!("cannot build kernel: {e}")),
                    None => b.build_scaled().map_err(|e| format!("cannot build kernel: {e}")),
                },
            };
            match built {
                Ok(nests) => nests,
                Err(message) => {
                    Counters::bump(&self.shared.counters.bad_requests);
                    responder(Response::error(&request.id, ErrorKind::BadRequest, message));
                    return;
                }
            }
        };
        let weight: u128 = nests.iter().map(|n| n.iteration_count()).sum();
        let lane = request.priority;
        let job = Job { request, nests, admitted: Instant::now(), responder };
        if let Err((job, err)) = self.shared.queue.push(lane, weight, job) {
            let (kind, counter) = match err {
                PushError::Full { .. } => {
                    (ErrorKind::QueueFull, &self.shared.counters.rejected_full)
                }
                PushError::Shutdown => {
                    (ErrorKind::Shutdown, &self.shared.counters.rejected_shutdown)
                }
            };
            Counters::bump(counter);
            (job.responder)(Response::error(&job.request.id, kind, err.to_string()));
        }
    }

    /// Parses one protocol line and submits it; a malformed line is
    /// answered with a typed `bad_request` (correlated to the line's
    /// `id` when recoverable, to `fallback_id` otherwise).
    pub fn submit_line(&self, line: &str, fallback_id: &str, responder: Responder) {
        match Request::parse(line, fallback_id) {
            Ok(request) => self.submit(request, responder),
            Err(bad) => {
                Counters::bump(&self.shared.counters.bad_requests);
                let id = bad.id.as_deref().unwrap_or(fallback_id);
                responder(Response::error(id, ErrorKind::BadRequest, bad.message));
            }
        }
    }

    /// Graceful drain: close the queue, reject everything still pending
    /// with a typed shutdown error, let in-flight requests finish and
    /// persist, join the workers, and return the final counters.
    pub fn shutdown(self) -> ServeStats {
        for job in self.shared.queue.close() {
            Counters::bump(&self.shared.counters.rejected_shutdown);
            (job.responder)(Response::error(
                &job.request.id,
                ErrorKind::Shutdown,
                "server draining: request was still queued",
            ));
        }
        let mut worker_panics = 0;
        for handle in self.workers {
            if handle.join().is_err() {
                worker_panics += 1;
            }
        }
        self.shared.counters.snapshot(worker_panics, self.shared.session.cache_stats())
    }
}

/// A failure that earns one degraded retry: an injected fault, an
/// isolated panic, or an exhausted resource budget — conditions a
/// cleaner, cheaper second attempt can clear. A wall-clock deadline is
/// *not* transient (retrying cannot recover spent time), and genuine
/// IR/schedule errors would fail identically again.
fn transient(e: &PaloError) -> bool {
    matches!(
        e,
        PaloError::FaultInjected { .. }
            | PaloError::Panicked { .. }
            | PaloError::BudgetExceeded { .. }
    )
}

/// Remaining deadline at this instant; `Err` when already expired.
fn remaining(request: &Request, admitted: Instant) -> Result<Option<Duration>, Duration> {
    match request.deadline {
        None => Ok(None),
        Some(d) => {
            let spent = admitted.elapsed();
            match d.checked_sub(spent) {
                Some(left) if left > Duration::ZERO => Ok(Some(left)),
                _ => Err(d),
            }
        }
    }
}

/// Runs every nest, collecting the disk writes each run still owes into
/// `pending` (the caller persists them after answering).
fn run_all<'s>(
    session: &'s Session,
    nests: &[LoopNest],
    overrides: &RunOverrides,
    pending: &mut Vec<PendingWrites<'s>>,
) -> Result<Vec<PipelineOutcome>, PaloError> {
    nests
        .iter()
        .map(|nest| {
            catch_panic("serve-request", || {
                let (out, writes) = session.run_unpersisted(nest, overrides);
                pending.push(writes);
                out
            })?
        })
        .collect()
}

fn nest_result(nest: &LoopNest, out: &PipelineOutcome) -> NestResult {
    let d = out.decision.as_ref();
    NestResult {
        name: nest.name().to_string(),
        rung: out.report.rung.as_str().to_string(),
        class: d.map(|d| format!("{:?}", d.class)),
        tile: d.map(|d| d.tile.clone()).unwrap_or_default(),
        predicted_cost: d.map(|d| d.predicted_cost),
        breakdown: out
            .report
            .breakdown
            .as_ref()
            .map(|b| [b.cl1, b.cl2, b.cl2_lines, b.corder, b.pref_efficiency]),
        estimate_ms: out.report.estimate.as_ref().map(|e| e.ms),
        passes: out
            .report
            .pass_totals()
            .into_iter()
            .map(|(pass, dur, requests, cached)| crate::protocol::PassTotal {
                pass: pass.to_string(),
                ms: dur.as_secs_f64() * 1e3,
                requests,
                cached,
            })
            .collect(),
        replay: out.report.estimate.as_ref().map(|e| {
            let r = &e.replay;
            [r.runs, r.run_lines, r.cycles_skipped, r.lines_skipped]
        }),
        failures: out
            .report
            .failures
            .iter()
            .map(|f| format!("{} rung: {}", f.rung, f.error))
            .collect(),
    }
}

/// How the shedding ladder answered this request: the fidelity served,
/// the level and pressure reading that drove it, and whether the answer
/// came from the degraded retry.
#[derive(Clone, Copy)]
struct Served {
    fidelity: Fidelity,
    level: ShedLevel,
    pressure: f64,
    retried: bool,
}

fn respond_ok(
    shared: &Shared,
    job_request: &Request,
    admitted: Instant,
    nests: &[LoopNest],
    outcomes: &[PipelineOutcome],
    served: Served,
) -> Response {
    if served.fidelity < job_request.fidelity {
        Counters::bump(&shared.counters.shed);
    }
    if served.retried {
        Counters::bump(&shared.counters.retried);
    }
    Counters::bump(&shared.counters.served);
    let mut cache = CacheStats::default();
    for out in outcomes {
        cache.absorb(&out.report.cache);
    }
    Response {
        id: job_request.id.clone(),
        body: ResponseBody::Ok(OkResponse {
            kernel: job_request.kernel.clone(),
            nests: nests.iter().zip(outcomes).map(|(n, out)| nest_result(n, out)).collect(),
            fidelity: served.fidelity,
            shed_level: served.level,
            pressure: served.pressure,
            retried: served.retried,
            cache,
            elapsed: admitted.elapsed(),
        }),
    }
}

fn serve_one(shared: &Shared, job: Job) {
    let Job { request, nests, admitted, responder } = job;

    // The pressure reading is taken once, at dequeue, and both the
    // reading and the level derived from it are reported — so a client
    // (and the soak) can check level == policy.level(pressure).
    let pressure = shared.queue.pressure();
    let level = shared.shed.level(pressure);
    Counters::bump(&shared.counters.levels[level as usize]);
    let fidelity = shared.shed.fidelity(level, request.priority, request.fidelity);

    let left = match remaining(&request, admitted) {
        Ok(left) => left,
        Err(deadline) => {
            Counters::bump(&shared.counters.expired);
            responder(Response::error(
                &request.id,
                ErrorKind::DeadlineExpired,
                format!("deadline of {deadline:?} expired while queued"),
            ));
            return;
        }
    };

    let overrides = request.overrides(left, fidelity);
    let served = Served { fidelity, level, pressure, retried: false };
    let mut pending = Vec::new();
    let response = match run_all(&shared.session, &nests, &overrides, &mut pending) {
        Ok(outcomes) => respond_ok(shared, &request, admitted, &nests, &outcomes, served),
        Err(first) if transient(&first) => {
            // One retry: faults disarmed, analytic fidelity, whatever
            // deadline is left. A second failure is terminal.
            let degraded = RunOverrides {
                deadline: remaining(&request, admitted).unwrap_or(Some(Duration::ZERO)),
                max_trace_lines: request.max_trace_lines,
                faults: Some(FaultPlan::default()),
                simulate: Some(false),
            };
            let served = Served { fidelity: Fidelity::Analytic, retried: true, ..served };
            match run_all(&shared.session, &nests, &degraded, &mut pending) {
                Ok(outcomes) => {
                    respond_ok(shared, &request, admitted, &nests, &outcomes, served)
                }
                Err(second) => {
                    Counters::bump(&shared.counters.failed);
                    Response::error(
                        &request.id,
                        ErrorKind::Failed,
                        format!("pipeline failed: {first}; retry failed: {second}"),
                    )
                }
            }
        }
        Err(e) => {
            Counters::bump(&shared.counters.failed);
            Response::error(&request.id, ErrorKind::Failed, format!("pipeline failed: {e}"))
        }
    };
    // Answer first, persist after: the client does not wait for file
    // creation, and the worker still finishes it before its next job.
    responder(response);
    for writes in pending {
        writes.persist();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palo_arch::presets;
    use palo_core::Priority;
    use std::sync::mpsc;

    fn server(config: ServeConfig) -> Server {
        Server::start(&presets::intel_i7_6700(), config).unwrap()
    }

    fn collect(tx: &mpsc::Sender<Response>) -> Responder {
        let tx = tx.clone();
        Box::new(move |r| {
            let _ = tx.send(r);
        })
    }

    fn request(line: &str) -> Request {
        Request::parse(line, "#0").unwrap()
    }

    #[test]
    fn serves_a_small_batch_with_decisions_and_cache_stats() {
        let srv = server(ServeConfig { workers: Some(2), ..ServeConfig::default() });
        let (tx, rx) = mpsc::channel();
        for (id, kernel) in [("a", "matmul"), ("b", "tp"), ("c", "matmul")] {
            srv.submit(
                request(&format!(r#"{{"id":"{id}","kernel":"{kernel}","size":32}}"#)),
                collect(&tx),
            );
        }
        let responses: Vec<Response> = rx.iter().take(3).collect();
        assert_eq!(responses.len(), 3);
        for r in &responses {
            let ok = r.ok().unwrap_or_else(|| panic!("{}: {:?}", r.id, r.body));
            assert_eq!(ok.nests[0].rung, "proposed");
            assert_eq!(ok.fidelity, Fidelity::Full);
            assert!(ok.nests[0].estimate_ms.is_some());
        }
        // The repeated matmul must decide identically to the first one.
        let by_id = |id: &str| {
            responses
                .iter()
                .find(|r| r.id == id)
                .and_then(Response::ok)
                .map(OkResponse::decision_signature)
        };
        assert_eq!(by_id("a"), by_id("c"));
        let stats = srv.shutdown();
        assert_eq!(stats.served, 3);
        assert_eq!(stats.responses(), 3);
        assert_eq!(stats.worker_panics, 0);
    }

    #[test]
    fn unknown_kernel_and_bad_line_are_typed_rejections() {
        let srv = server(ServeConfig::default());
        let (tx, rx) = mpsc::channel();
        srv.submit(request(r#"{"id":"u","kernel":"nope"}"#), collect(&tx));
        srv.submit_line("{not json", "#5", collect(&tx));
        let responses: Vec<Response> = rx.iter().take(2).collect();
        for r in &responses {
            assert_eq!(r.error_kind(), Some(ErrorKind::BadRequest), "{:?}", r.body);
        }
        assert!(responses.iter().any(|r| r.id == "u"));
        assert!(responses.iter().any(|r| r.id == "#5"));
        assert_eq!(srv.shutdown().bad_requests, 2);
    }

    #[test]
    fn expired_deadline_is_rejected_without_running() {
        let srv = server(ServeConfig::default());
        let (tx, rx) = mpsc::channel();
        srv.submit(
            request(r#"{"id":"d","kernel":"matmul","size":64,"deadline_ms":0}"#),
            collect(&tx),
        );
        let r = rx.recv().unwrap();
        assert_eq!(r.error_kind(), Some(ErrorKind::DeadlineExpired));
        let stats = srv.shutdown();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.served, 0);
    }

    #[test]
    fn transient_fault_earns_one_degraded_retry() {
        let srv = server(ServeConfig::default());
        let (tx, rx) = mpsc::channel();
        // fail_first_lowerings=4 exhausts the whole ladder → transient
        // FaultInjected error → the retry (faults disarmed, analytic)
        // answers.
        srv.submit(
            request(
                r#"{"id":"f","kernel":"matmul","size":16,
                    "faults":{"fail_first_lowerings":4}}"#,
            ),
            collect(&tx),
        );
        let r = rx.recv().unwrap();
        let ok = r.ok().unwrap_or_else(|| panic!("{:?}", r.body));
        assert!(ok.retried);
        assert_eq!(ok.fidelity, Fidelity::Analytic);
        assert_eq!(ok.nests[0].rung, "proposed");
        assert_eq!(ok.nests[0].estimate_ms, None);
        let stats = srv.shutdown();
        assert_eq!(stats.retried, 1);
        assert_eq!(stats.served, 1);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn red_policy_sheds_every_request_to_analytic() {
        let srv = server(ServeConfig {
            shed: ShedPolicy { yellow: 0.0, red: 0.0 },
            ..ServeConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        srv.submit(
            request(r#"{"id":"s","kernel":"copy","size":64,"priority":"interactive"}"#),
            collect(&tx),
        );
        let r = rx.recv().unwrap();
        let ok = r.ok().unwrap_or_else(|| panic!("{:?}", r.body));
        assert_eq!(ok.shed_level, ShedLevel::Red);
        assert_eq!(ok.fidelity, Fidelity::Analytic);
        assert_eq!(ok.nests[0].estimate_ms, None);
        // The decision itself is full quality — only the estimate is shed.
        assert_eq!(ok.nests[0].rung, "proposed");
        let stats = srv.shutdown();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.levels, [0, 0, 1]);
    }

    #[test]
    fn shutdown_rejects_pending_and_later_submissions() {
        let (tx, rx) = mpsc::channel();
        let srv = server(ServeConfig::default());
        let shared = Arc::clone(&srv.shared);
        let stats = srv.shutdown();
        assert_eq!(stats.responses(), 0);
        // Submissions after shutdown (e.g. from a still-open socket)
        // get a typed rejection through the same responder path.
        let req = request(r#"{"id":"late","kernel":"matmul"}"#);
        let nests = Benchmark::Matmul.build_scaled().unwrap();
        let job =
            Job { request: req, nests, admitted: Instant::now(), responder: collect(&tx) };
        if let Err((job, err)) = shared.queue.push(Priority::Batch, 1, job) {
            assert_eq!(err, crate::queue::PushError::Shutdown);
            (job.responder)(Response::error(
                &job.request.id,
                ErrorKind::Shutdown,
                err.to_string(),
            ));
        } else {
            panic!("closed queue admitted a job");
        }
        let r = rx.recv().unwrap();
        assert_eq!(r.id, "late");
        assert_eq!(r.error_kind(), Some(ErrorKind::Shutdown));
    }
}
