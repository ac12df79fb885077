//! `palo-serve` — the optimizer as a long-lived service.
//!
//! A compilation service amortizes what a CLI cannot: the warm
//! [`Session`](palo_core::Session) keeps the once-resolved cost model
//! and the content-addressed artifact cache across requests, so the
//! hundredth `matmul` answers from cache in microseconds. What a
//! service must add on top is *robustness under load*, and that is this
//! crate:
//!
//! * **Admission control** ([`AdmissionQueue`]) — a bounded two-lane
//!   queue; beyond capacity requests are rejected with a typed error,
//!   never buffered without bound.
//! * **Priority lanes** — `interactive` before `batch`, smallest job
//!   first within a lane.
//! * **Load shedding** ([`ShedPolicy`]) — under pressure, requests are
//!   answered from the analytical model alone (the decision is
//!   unchanged; the simulated estimate is sacrificed), batch lane
//!   first. Every response reports the level and pressure that shaped
//!   it.
//! * **Deadline propagation** — a request's remaining deadline rides
//!   [`RunOverrides`](palo_core::RunOverrides) into the trace-walk
//!   guard; cache-safety invariants keep deadline-bounded work from
//!   poisoning artifacts served to unconstrained requests.
//! * **Fault isolation and retry** — panics are caught per request;
//!   transient failures earn one retry with faults disarmed and
//!   analytic fidelity.
//! * **Graceful drain** ([`Server::shutdown`]) — in-flight requests
//!   finish, queued ones are rejected with a typed shutdown error,
//!   exactly one response per submission either way.
//!
//! The wire protocol ([`protocol`]) is newline-delimited JSON over
//! stdin/stdout or a Unix socket, parsed by the small strict hand-rolled
//! reader in [`palo_codec::json`] because the workspace's `serde` is an
//! offline no-op stand-in. See DESIGN.md §14 for the full design rationale.
//!
//! # Examples
//!
//! ```
//! use palo_arch::presets;
//! use palo_serve::{Request, Responder, Response, ServeConfig, Server};
//! use std::sync::mpsc;
//!
//! let server = Server::start(&presets::intel_i7_6700(), ServeConfig::default())?;
//! let (tx, rx) = mpsc::channel::<Response>();
//! let req = Request::parse(r#"{"id":"r1","kernel":"matmul","size":32}"#, "#0")?;
//! server.submit(req, Box::new(move |resp| { let _ = tx.send(resp); }) as Responder);
//! let response = rx.recv()?;
//! assert_eq!(response.ok().unwrap().nests[0].rung, "proposed");
//! let stats = server.shutdown();
//! assert_eq!(stats.responses(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod protocol;
pub mod queue;
pub mod server;
pub mod shed;
pub mod signal;

pub use protocol::{
    BadRequest, ErrorKind, NestResult, OkResponse, Request, Response, ResponseBody,
};
pub use queue::{AdmissionQueue, PushError};
pub use server::{Responder, ServeConfig, ServeStats, Server};
pub use shed::{Fidelity, ShedLevel, ShedPolicy};
