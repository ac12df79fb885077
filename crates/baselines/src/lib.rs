//! The comparison techniques of the paper's evaluation (§5):
//!
//! * [`baseline`] — "the most basic optimization a developer may
//!   perform": parallelize the outer loop, vectorize the inner one;
//! * [`auto_scheduler`] — a faithful simplification of the Halide
//!   Auto-Scheduler \[Mullapudi et al. 2016\]: bounds-inference footprints,
//!   a *single* cache level, tiling only the output dimensions, no
//!   source-pattern awareness — exactly the two limitations the paper
//!   exploits;
//! * [`Autotuner`] — an OpenTuner-style stochastic search over the
//!   restricted schedule space the paper describes (output-dimension
//!   tiling only), with an evaluation budget standing in for wall-clock
//!   tuning time;
//! * [`tss`] — the TSS tile-size-selection model \[Mehta et al.,
//!   TACO 2013\]: L1+L2 reuse with associativity awareness but *no*
//!   prefetch modeling;
//! * [`tts`] — the TurboTiling model \[Mehta et al., ICS 2016\]: tiles for
//!   reuse in the last two levels (L2+L3), relying on prefetching to
//!   stream data inward but not discounting prefetched lines from its
//!   miss estimates.
//!
//! All techniques emit [`palo_sched::Schedule`]s comparable with the
//! proposed optimizer's output on the same measurement substrate.

mod autosched;
mod autotuner;
mod basic;
mod models;
mod technique;

pub use autosched::auto_scheduler;
pub use autotuner::{Autotuner, TuneResult};
pub use basic::baseline;
pub use models::{tss, tts};
pub use technique::{schedule_for, schedule_for_within, Technique};
