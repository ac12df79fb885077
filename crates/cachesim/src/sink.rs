//! Streaming consumers of line-granular access traces.
//!
//! The trace walker in `palo-exec` never materializes a trace: it pushes
//! each batched access event into a [`LineSink`] as it is generated.
//! [`Hierarchy`] is the production sink (full cache simulation).
//!
//! Two event shapes exist: byte ranges ([`LineSink::access_range`], the
//! original contract) and run-compressed constant-stride line runs
//! ([`LineSink::access_run`]).

use crate::hierarchy::{AccessKind, AccessRun, Hierarchy};

/// A consumer of line-granular memory traffic.
///
/// The contract mirrors [`Hierarchy`]'s batched entry points: one
/// [`LineSink::access_range`] call touches every line overlapping
/// `[addr, addr + bytes)` exactly once, one [`LineSink::access_run`]
/// call touches `count` lines a fixed line-stride apart, and
/// [`LineSink::lines_issued`] reports the running total — the trace
/// walker's line-budget guard reads it between batches, so
/// implementations must keep it current.
pub trait LineSink {
    /// Consumes one contiguous access run of `bytes` bytes at `addr`.
    fn access_range(&mut self, addr: u64, bytes: u64, kind: AccessKind);

    /// Consumes one constant-stride line run. The default expands the run
    /// into per-line [`LineSink::access_range`] calls, so custom sinks
    /// keep working unchanged; [`Hierarchy`] overrides it with the
    /// run-compressed engine.
    fn access_run(&mut self, run: &AccessRun) {
        let bits = self.line_size().max(1).trailing_zeros();
        let mut line = run.start_line;
        for _ in 0..run.count {
            self.access_range(line << bits, 1, run.kind);
            line = line.wrapping_add_signed(run.stride_lines);
        }
    }

    /// Total lines consumed so far (drives resource-budget guards).
    fn lines_issued(&self) -> u64;

    /// Line size in bytes the sink accounts with.
    fn line_size(&self) -> usize;

    /// Resets any cached state before a fresh walk (cache contents,
    /// stream tables); counters may be kept.
    fn flush(&mut self) {}
}

impl LineSink for Hierarchy {
    fn access_range(&mut self, addr: u64, bytes: u64, kind: AccessKind) {
        Hierarchy::access_range(self, addr, bytes, kind);
    }

    fn access_run(&mut self, run: &AccessRun) {
        Hierarchy::access_run(self, run);
    }

    fn lines_issued(&self) -> u64 {
        self.stats().total_accesses
    }

    fn line_size(&self) -> usize {
        Hierarchy::line_size(self)
    }

    fn flush(&mut self) {
        Hierarchy::flush(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palo_arch::presets;

    #[test]
    fn hierarchy_sink_flush_clears_contents() {
        let mut h = Hierarchy::from_architecture(&presets::intel_i7_6700());
        LineSink::access_range(&mut h, 0, 64, AccessKind::Load);
        LineSink::flush(&mut h);
        // After a flush the same line misses again.
        let s = h.access(0, AccessKind::Load);
        assert_eq!(s.level, h.num_levels());
    }
}
