//! Streaming consumers of line-granular access traces.
//!
//! The trace walker in `palo-exec` never materializes a trace: it pushes
//! each batched access event into a [`LineSink`] as it is generated.
//! [`Hierarchy`] is the production sink (full cache simulation).
//!
//! Three event shapes exist: byte ranges ([`LineSink::access_range`], the
//! original contract), run-compressed constant-stride line runs
//! ([`LineSink::access_run`]) and trace blocks
//! ([`LineSink::access_block`]), which stand for the walker's two
//! innermost loops and expand into the other two.

use crate::hierarchy::{
    within_line, AccessKind, AccessRun, BlockAccess, Hierarchy, InnerShape, RUN_CHUNK,
};

/// A consumer of line-granular memory traffic.
///
/// The contract mirrors [`Hierarchy`]'s batched entry points: one
/// [`LineSink::access_range`] call touches every line overlapping
/// `[addr, addr + bytes)` exactly once, one [`LineSink::access_run`]
/// call touches `count` lines a fixed line-stride apart, one
/// [`LineSink::access_block`] call stands for the range and run events
/// of its default expansion, and [`LineSink::lines_issued`] reports the
/// running total — the trace walker's line-budget guard reads it between
/// events, so implementations must keep it current.
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

    /// Consumes a trace block: `outer` outer iterations, each issuing
    /// every access of `accesses` in order. The default expands the block
    /// into the events the walker issues loop by loop: a
    /// [`InnerShape::Range`] is one [`LineSink::access_range`], a
    /// [`InnerShape::Run`] is [`LineSink::access_run`]s of at most
    /// [`RUN_CHUNK`] lines (one `access_range` per element in iterations
    /// where the element straddles a line), and a [`InnerShape::Walk`] is
    /// one `access_range` per element. This expansion is the reference
    /// that [`Hierarchy`]'s one-loop override is tested against.
    fn access_block(&mut self, outer: u64, accesses: &[BlockAccess]) {
        let line = self.line_size().max(1) as u64;
        let bits = line.trailing_zeros();
        for t in 0..outer {
            for a in accesses {
                let addr = a.addr_at(t);
                let (stride, count, bytes) = match a.inner {
                    InnerShape::Range { bytes } => {
                        self.access_range(addr, bytes, a.kind);
                        continue;
                    }
                    InnerShape::Run { stride_lines, count, bytes }
                        if within_line(addr, bytes, line) =>
                    {
                        let mut start_line = addr >> bits;
                        let mut remaining = count;
                        while remaining > 0 {
                            let count = remaining.min(RUN_CHUNK);
                            self.access_run(&AccessRun {
                                start_line,
                                stride_lines,
                                count,
                                kind: a.kind,
                            });
                            start_line =
                                start_line.wrapping_add_signed(stride_lines * count as i64);
                            remaining -= count;
                        }
                        continue;
                    }
                    InnerShape::Run { stride_lines, count, bytes } => {
                        (stride_lines.wrapping_mul(line as i64), count, bytes)
                    }
                    InnerShape::Walk { stride, count, bytes } => (stride, count, bytes),
                };
                let mut addr = addr;
                for _ in 0..count {
                    self.access_range(addr, bytes, a.kind);
                    addr = addr.wrapping_add_signed(stride);
                }
            }
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

    fn access_block(&mut self, outer: u64, accesses: &[BlockAccess]) {
        Hierarchy::access_block(self, outer, accesses);
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
    use palo_arch::{presets, Architecture};

    #[test]
    fn hierarchy_sink_flush_clears_contents() {
        let mut h = Hierarchy::from_architecture(&presets::intel_i7_6700());
        LineSink::access_range(&mut h, 0, 64, AccessKind::Load);
        LineSink::flush(&mut h);
        // After a flush the same line misses again.
        let s = h.access(0, AccessKind::Load);
        assert_eq!(s.level, h.num_levels());
    }

    /// A hierarchy behind the trait's default block expansion: every
    /// block reaches it as the range and run events the walker would
    /// issue loop by loop.
    struct Expanded(Hierarchy);

    impl LineSink for Expanded {
        fn access_range(&mut self, addr: u64, bytes: u64, kind: AccessKind) {
            self.0.access_range(addr, bytes, kind);
        }

        fn access_run(&mut self, run: &AccessRun) {
            self.0.access_run(run);
        }

        fn lines_issued(&self) -> u64 {
            self.0.stats().total_accesses
        }

        fn line_size(&self) -> usize {
            self.0.line_size()
        }
    }

    /// Replays `accesses` for `outer` iterations through
    /// [`Hierarchy::access_block`] and through the default expansion, on
    /// a cold hierarchy and after a warm-up of the block's first half,
    /// then once more on the warm state; statistics and replay counters
    /// must agree each time.
    fn assert_block_matches_expansion(
        arch: &Architecture,
        outer: u64,
        accesses: &[BlockAccess],
    ) {
        for warm in [false, true] {
            let mut direct = Hierarchy::from_architecture(arch);
            if warm {
                direct.access_block(outer / 2, accesses);
            }
            let mut expanded = Expanded(direct.clone());
            for round in 0..2 {
                direct.access_block(outer, accesses);
                expanded.access_block(outer, accesses);
                let what = format!("{} warm={warm} round {round}: {accesses:?}", arch.name);
                assert_eq!(direct.stats(), expanded.0.stats(), "{what}");
                assert_eq!(direct.replay_stats(), expanded.0.replay_stats(), "{what}");
            }
        }
    }

    fn archs() -> Vec<Architecture> {
        let mut all = vec![presets::intel_i7_6700(), presets::arm_cortex_a15()];
        all.extend(presets::zoo());
        all
    }

    fn access(addr: u64, outer_delta: i64, kind: AccessKind, inner: InnerShape) -> BlockAccess {
        BlockAccess { addr, outer_delta, kind, inner }
    }

    #[test]
    fn block_with_straddling_outer_delta_matches_expansion() {
        // An outer delta of 100 bytes (not a multiple of the 64-byte line)
        // with 8-byte elements: the whole-line-stride run straddles a
        // line in some outer iterations and replays as a walk there.
        let run = InnerShape::Run { stride_lines: 3, count: 40, bytes: 8 };
        let accesses = [
            access(1 << 20, 100, AccessKind::Load, run),
            access(1 << 22, 4, AccessKind::Load, InnerShape::Range { bytes: 4 }),
            access(1 << 23, 100, AccessKind::Store, InnerShape::Range { bytes: 200 }),
        ];
        let straddles =
            (0..64).filter(|&t| !within_line(accesses[0].addr_at(t), 8, 64)).count();
        assert!(straddles > 0 && straddles < 64, "{straddles} straddling iterations");
        for arch in &archs() {
            assert_block_matches_expansion(arch, 64, &accesses);
        }
    }

    #[test]
    fn block_with_negative_inner_strides_matches_expansion() {
        let accesses = [
            access(
                1 << 21,
                64 * 5,
                AccessKind::Load,
                InnerShape::Walk { stride: -100, count: 30, bytes: 4 },
            ),
            access(
                1 << 22,
                -256,
                AccessKind::Load,
                InnerShape::Run { stride_lines: -2, count: 50, bytes: 4 },
            ),
            access(
                3 << 21,
                7,
                AccessKind::Store,
                InnerShape::Walk { stride: -72, count: 9, bytes: 8 },
            ),
        ];
        for arch in &archs() {
            assert_block_matches_expansion(arch, 48, &accesses);
        }
    }

    #[test]
    fn block_with_long_runs_counts_run_chunks() {
        // A run longer than one chunk counts as one run event per chunk,
        // as the walker's expansion issues it.
        let accesses = [access(
            1 << 24,
            64,
            AccessKind::Load,
            InnerShape::Run { stride_lines: 1, count: RUN_CHUNK + 10, bytes: 4 },
        )];
        let mut h = Hierarchy::from_architecture(&presets::intel_i7_6700());
        h.access_block(3, &accesses);
        assert_eq!(h.replay_stats().runs, 6);
        assert_eq!(h.replay_stats().run_lines, 3 * (RUN_CHUNK + 10));
        assert_block_matches_expansion(&presets::intel_i7_6700(), 3, &accesses);
    }

    #[test]
    fn empty_inner_loops_issue_nothing() {
        let accesses = [
            access(
                1 << 20,
                64,
                AccessKind::Load,
                InnerShape::Run { stride_lines: 2, count: 0, bytes: 4 },
            ),
            access(
                1 << 21,
                64,
                AccessKind::Store,
                InnerShape::Walk { stride: 100, count: 0, bytes: 4 },
            ),
        ];
        let mut h = Hierarchy::from_architecture(&presets::intel_i7_6700());
        h.access_block(10, &accesses);
        h.access_block(0, &[access(0, 64, AccessKind::Load, InnerShape::Range { bytes: 4 })]);
        assert_eq!(h.stats().total_accesses, 0);
        assert_eq!(h.replay_stats(), Default::default());
        assert_block_matches_expansion(&presets::intel_i7_6700(), 10, &accesses);
    }

    #[test]
    fn nt_store_blocks_match_expansion() {
        let accesses = [
            access(1 << 20, 64, AccessKind::Load, InnerShape::Range { bytes: 256 }),
            access(1 << 22, 64, AccessKind::NtStore, InnerShape::Range { bytes: 256 }),
            access(
                1 << 23,
                4,
                AccessKind::NtStore,
                InnerShape::Run { stride_lines: 4, count: 20, bytes: 4 },
            ),
        ];
        for arch in &archs() {
            assert_block_matches_expansion(arch, 32, &accesses);
        }
    }
}
