//! # palo — Prefetch-Aware Loop Optimizer
//!
//! A reproduction of *Loop Transformations Leveraging Hardware Prefetching*
//! (Sioutas, Stuijk, Corporaal, Basten, Somers — CGO 2018) as a standalone
//! Rust library: a loop-nest IR, a schedule language, an analytical
//! prefetch-aware optimizer, a multi-level cache simulator with hardware
//! prefetchers, and reimplementations of the baselines the paper compares
//! against.
//!
//! This crate is a facade that re-exports the workspace crates:
//!
//! * [`ir`] — loop-nest IR ([`palo_ir`])
//! * [`arch`] — architecture descriptions ([`palo_arch`])
//! * [`codec`] — strict JSON + checksummed binary artifact framing
//!   ([`palo_codec`])
//! * [`sched`] — schedule directives and lowering ([`palo_sched`])
//! * [`cachesim`] — cache + prefetcher simulator ([`palo_cachesim`])
//! * [`exec`] — interpreter and trace generator ([`palo_exec`])
//! * [`core`] — the paper's optimizer ([`palo_core`])
//! * [`baselines`] — Baseline / Auto-Scheduler / Autotuner / TSS / TTS
//!   ([`palo_baselines`])
//! * [`suite`] — the 12 evaluation kernels ([`palo_suite`])
//! * [`serve`] — the long-lived optimization daemon ([`palo_serve`])
//! * [`cli`] — what the `palo-opt` and `palo-serve` binaries share
//!
//! # Examples
//!
//! Optimize matrix multiplication for the Intel i7-5930K and inspect the
//! resulting schedule:
//!
//! ```
//! use palo::arch::presets;
//! use palo::core::Optimizer;
//! use palo::suite::kernels;
//!
//! let nest = kernels::matmul(256)?;
//! let arch = presets::intel_i7_5930k();
//! let decision = Optimizer::new(&arch).try_optimize(&nest)?;
//! let schedule = decision.schedule();
//! assert!(!schedule.directives().is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Or run the whole fault-tolerant flow — optimize, lower, validate,
//! simulate — on a [`core::Session`], which degrades to simpler
//! schedules instead of failing, reports what happened, and replays
//! repeated work from its artifact cache:
//!
//! ```
//! use palo::arch::presets;
//! use palo::core::{PipelineConfig, Rung, Session};
//! use palo::suite::kernels;
//!
//! let nest = kernels::matmul(96)?;
//! let session = Session::new(&presets::intel_i7_5930k(), PipelineConfig::default())?;
//! let out = session.run(&nest)?;
//! assert_eq!(out.report.rung, Rung::Proposed); // no degradation needed
//! assert!(out.report.estimate.is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cli;

pub use palo_arch as arch;
pub use palo_baselines as baselines;
pub use palo_cachesim as cachesim;
pub use palo_codec as codec;
pub use palo_core as core;
pub use palo_exec as exec;
pub use palo_ir as ir;
pub use palo_sched as sched;
pub use palo_serve as serve;
pub use palo_suite as suite;
