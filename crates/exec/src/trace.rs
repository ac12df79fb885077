//! Trace-mode execution: walk a lowered nest and feed the address stream
//! of every array reference to a streaming [`LineSink`].
//!
//! The walker never materializes a trace: contiguous runs of the
//! innermost loop are batched into [`LineSink::access_range`] calls and
//! constant-stride walks into run-compressed [`LineSink::access_run`]
//! events (line-granular), which keeps tracing of multi-hundred-megabyte
//! iteration spaces tractable while preserving the per-line
//! demand/prefetch behaviour the paper's analysis is about. Every line is
//! replayed: run compression is exact — statistics are bit-identical to
//! the scalar walk, which stays available via
//! [`TraceOptions::run_compressed`] `= false` as the differential-testing
//! reference. The production sink is the cache simulator ([`Hierarchy`]).

use crate::error::TraceError;
use palo_cachesim::{AccessKind, AccessRun, Hierarchy, LineSink};
use palo_ir::{Access, LoopNest};
use palo_sched::LoweredNest;
use std::time::{Duration, Instant};

/// Options for a trace run.
#[derive(Debug, Clone, Copy)]
pub struct TraceOptions {
    /// Flush caches and stream tables before tracing (cold start).
    pub flush_first: bool,
    /// Abort with [`TraceError::LineBudgetExceeded`] once the trace has
    /// issued this many line accesses (`None` = unlimited).
    pub max_lines: Option<u64>,
    /// Abort with [`TraceError::DeadlineExceeded`] once the trace has run
    /// for this long (`None` = unlimited). Checked coarsely (every few
    /// thousand walk steps), so overrun is bounded but not zero.
    pub deadline: Option<Duration>,
    /// Use the run-compressed replay engine (batched [`AccessRun`]
    /// events). Statistics are bit-identical either way; `false` forces
    /// the scalar reference path and exists for differential testing and
    /// debugging.
    pub run_compressed: bool,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            flush_first: true,
            max_lines: None,
            deadline: None,
            run_compressed: true,
        }
    }
}

struct TraceAccess {
    kind: AccessKind,
    /// Current byte address (updated incrementally during the walk).
    addr: i64,
    /// Address delta in bytes per unit step of each original variable.
    var_strides: Vec<i64>,
    /// Address delta in bytes per step of each lowered loop
    /// (`None` for fused loops, which are recomputed per iteration).
    loop_deltas: Vec<Option<i64>>,
}

struct Walker<'a> {
    loops: &'a [palo_sched::LoweredLoop],
    extents: Vec<usize>,
    values: Vec<i64>,
    accesses: Vec<TraceAccess>,
    dts: i64,
    line: i64,
    /// Whether the line size is a power of two (required by the
    /// run-compression shift arithmetic).
    line_pow2: bool,
    /// Emit run-compressed events.
    compressed: bool,
    /// Absolute `total_accesses` threshold (entry count + budget).
    line_limit: Option<u64>,
    /// The configured budget, for the error report.
    max_lines: u64,
    /// Absolute wall-clock cutoff.
    deadline_at: Option<Instant>,
    /// The configured wall-clock budget, for the error report.
    deadline_budget: Duration,
    /// Walk steps since the last deadline probe (clock reads are
    /// expensive relative to a walk step).
    steps_since_check: u32,
}

/// How many walk steps pass between wall-clock probes.
const DEADLINE_CHECK_INTERVAL: u32 = 4096;

/// Maximum run length issued per [`LineSink::access_run`] call; longer
/// strided walks are chunked so the budget/deadline guards keep their
/// scalar-path granularity.
const RUN_CHUNK: u64 = 4096;

/// Streams every memory reference of `lowered` (a schedule of `nest`)
/// into the cache simulator `hier`. Equivalent to [`trace_stream`] with a
/// [`Hierarchy`] sink.
///
/// # Errors
///
/// As for [`trace_stream`].
pub fn trace_into(
    nest: &LoopNest,
    lowered: &LoweredNest,
    hier: &mut Hierarchy,
    opts: &TraceOptions,
) -> Result<(), TraceError> {
    trace_stream(nest, lowered, hier, opts)
}

/// Streams every memory reference of `lowered` (a schedule of `nest`)
/// into `sink`, one batched contiguous run at a time.
///
/// Array base addresses are assigned sequentially, page-aligned, with one
/// guard page between arrays, mirroring what a real allocator does for
/// large arrays.
///
/// # Errors
///
/// Returns [`TraceError::LineBudgetExceeded`] / [`TraceError::DeadlineExceeded`]
/// when the corresponding [`TraceOptions`] guard trips (whatever the sink
/// accumulated up to that point is kept), and
/// [`TraceError::MissingLoopDelta`] when the lowered nest is internally
/// inconsistent.
pub fn trace_stream<S: LineSink>(
    nest: &LoopNest,
    lowered: &LoweredNest,
    sink: &mut S,
    opts: &TraceOptions,
) -> Result<(), TraceError> {
    if opts.flush_first {
        sink.flush();
    }
    let dts = nest.dtype().size_bytes() as i64;
    let nvars = nest.vars().len();

    // Page-aligned base address per array.
    let mut bases = Vec::with_capacity(nest.arrays().len());
    let mut cursor: i64 = 4096;
    for decl in nest.arrays() {
        bases.push(cursor);
        let bytes = decl.len() as i64 * dts;
        cursor += (bytes + 4095) / 4096 * 4096 + 4096;
    }

    let strides: Vec<Vec<usize>> = nest.arrays().iter().map(|a| a.strides()).collect();
    let mk = |acc: &Access, kind: AccessKind| -> TraceAccess {
        let st = &strides[acc.array.index()];
        let mut var_strides = vec![0i64; nvars];
        let mut addr = bases[acc.array.index()];
        for (ix, &s) in acc.indices.iter().zip(st) {
            addr += ix.offset() * s as i64 * dts;
            for &(v, c) in ix.terms() {
                var_strides[v.index()] += c * s as i64 * dts;
            }
        }
        let loop_deltas = lowered
            .loops()
            .iter()
            .map(|l| {
                if l.contribs.len() == 1 && l.contribs[0].divisor == 1 {
                    let c = l.contribs[0];
                    Some(c.stride as i64 * var_strides[c.var.index()])
                } else {
                    None
                }
            })
            .collect();
        TraceAccess { kind, addr, var_strides, loop_deltas }
    };

    let stmt = nest.statement();
    let mut accesses: Vec<TraceAccess> =
        stmt.inputs().map(|a| mk(a, AccessKind::Load)).collect();
    let store_kind = if lowered.nt_store() { AccessKind::NtStore } else { AccessKind::Store };
    accesses.push(mk(&stmt.output, store_kind));

    let line = sink.line_size() as i64;
    let mut walker = Walker {
        loops: lowered.loops(),
        extents: lowered.extents().to_vec(),
        values: vec![0i64; nvars],
        accesses,
        dts,
        line,
        line_pow2: line.count_ones() == 1,
        compressed: opts.run_compressed,
        line_limit: opts.max_lines.map(|m| sink.lines_issued().saturating_add(m)),
        max_lines: opts.max_lines.unwrap_or(u64::MAX),
        deadline_at: opts.deadline.map(|d| Instant::now() + d),
        deadline_budget: opts.deadline.unwrap_or(Duration::ZERO),
        steps_since_check: 0,
    };
    walker.walk(0, sink)
}

impl Walker<'_> {
    /// Trips the line-budget and wall-clock guards. Called once per walk
    /// step; the clock is only read every [`DEADLINE_CHECK_INTERVAL`]
    /// steps.
    fn check_guards(&mut self, sink: &impl LineSink) -> Result<(), TraceError> {
        if let Some(limit) = self.line_limit {
            if sink.lines_issued() >= limit {
                return Err(TraceError::LineBudgetExceeded { limit: self.max_lines });
            }
        }
        if let Some(at) = self.deadline_at {
            // Probe the clock on the very first step (so an
            // already-expired deadline aborts immediately even for tiny
            // traces), then once per interval.
            if self.steps_since_check == 0 && Instant::now() >= at {
                return Err(TraceError::DeadlineExceeded { budget: self.deadline_budget });
            }
            self.steps_since_check += 1;
            if self.steps_since_check >= DEADLINE_CHECK_INTERVAL {
                self.steps_since_check = 0;
            }
        }
        Ok(())
    }

    fn missing_delta(&self, d: usize) -> TraceError {
        TraceError::MissingLoopDelta { loop_name: self.loops[d].name.clone() }
    }
    /// In-bounds steps of loop `d` (which must be simple) from the current
    /// variable values.
    fn simple_steps(&self, d: usize) -> (usize, usize, i64) {
        let l = &self.loops[d];
        let c = l.contribs[0];
        let v = c.var.index();
        let stride = c.stride as i64;
        let remaining = self.extents[v] as i64 - self.values[v];
        let steps = if remaining <= 0 {
            0
        } else if stride == 0 {
            l.trip
        } else {
            (l.trip as i64).min((remaining + stride - 1) / stride) as usize
        };
        (steps, v, stride)
    }

    fn walk<S: LineSink>(&mut self, d: usize, sink: &mut S) -> Result<(), TraceError> {
        self.check_guards(sink)?;
        if d == self.loops.len() {
            for a in &self.accesses {
                sink.access_range(a.addr as u64, self.dts as u64, a.kind);
            }
            return Ok(());
        }
        let l = &self.loops[d];
        let simple = l.contribs.len() == 1 && l.contribs[0].divisor == 1;
        let innermost = d + 1 == self.loops.len();

        if simple {
            let (steps, v, stride) = self.simple_steps(d);
            if innermost {
                return self.issue_innermost(d, steps, sink);
            }
            for _ in 0..steps {
                self.walk(d + 1, sink)?;
                self.values[v] += stride;
                for ai in 0..self.accesses.len() {
                    match self.accesses[ai].loop_deltas[d] {
                        Some(delta) => self.accesses[ai].addr += delta,
                        None => return Err(self.missing_delta(d)),
                    }
                }
            }
            // restore
            self.values[v] -= stride * steps as i64;
            for ai in 0..self.accesses.len() {
                match self.accesses[ai].loop_deltas[d] {
                    Some(delta) => self.accesses[ai].addr -= delta * steps as i64,
                    None => return Err(self.missing_delta(d)),
                }
            }
        } else {
            // Fused loop: recompute contributions per iteration.
            let l = l.clone();
            for t in 0..l.trip {
                let mut ok = true;
                let mut addr_deltas = vec![0i64; self.accesses.len()];
                let mut val_deltas = vec![(0usize, 0i64); 0];
                for c in &l.contribs {
                    let contrib = c.value(t) as i64;
                    let v = c.var.index();
                    val_deltas.push((v, contrib));
                    if self.values[v] + contrib >= self.extents[v] as i64 {
                        ok = false;
                    }
                    for (ai, a) in self.accesses.iter().enumerate() {
                        addr_deltas[ai] += contrib * a.var_strides[v];
                    }
                }
                if !ok {
                    continue;
                }
                for &(v, dv) in &val_deltas {
                    self.values[v] += dv;
                }
                for (ai, a) in self.accesses.iter_mut().enumerate() {
                    a.addr += addr_deltas[ai];
                }
                self.walk(d + 1, sink)?;
                for &(v, dv) in &val_deltas {
                    self.values[v] -= dv;
                }
                for (ai, a) in self.accesses.iter_mut().enumerate() {
                    a.addr -= addr_deltas[ai];
                }
            }
        }
        Ok(())
    }

    /// Issues the accesses of the innermost (simple) loop with `steps`
    /// in-bounds iterations, batching contiguous runs.
    fn issue_innermost<S: LineSink>(
        &mut self,
        d: usize,
        steps: usize,
        sink: &mut S,
    ) -> Result<(), TraceError> {
        if steps == 0 {
            return Ok(());
        }
        let n = steps as i64;
        for ai in 0..self.accesses.len() {
            self.check_guards(sink)?;
            let a = &self.accesses[ai];
            let Some(delta) = a.loop_deltas[d] else {
                return Err(self.missing_delta(d));
            };
            if delta == 0 {
                sink.access_range(a.addr as u64, self.dts as u64, a.kind);
            } else if delta > 0 && delta <= self.line {
                let span = (n - 1) * delta + self.dts;
                sink.access_range(a.addr as u64, span as u64, a.kind);
            } else if delta < 0 && -delta <= self.line {
                let start = a.addr + (n - 1) * delta;
                let span = (n - 1) * (-delta) + self.dts;
                sink.access_range(start as u64, span as u64, a.kind);
            } else if self.compressed
                && self.line_pow2
                && delta % self.line == 0
                && a.addr % self.line + self.dts <= self.line
            {
                // Whole-line stride with the element inside one line:
                // every step touches exactly one line, so the walk is a
                // single constant-stride line run. Chunked so the guards
                // keep firing at their scalar granularity.
                let bits = self.line.trailing_zeros();
                let stride_lines = delta / self.line;
                let kind = a.kind;
                let mut start_line = (a.addr as u64) >> bits;
                let mut remaining = steps as u64;
                while remaining > 0 {
                    let count = remaining.min(RUN_CHUNK);
                    sink.access_run(&AccessRun { start_line, stride_lines, count, kind });
                    start_line = start_line.wrapping_add_signed(stride_lines * count as i64);
                    remaining -= count;
                    if remaining > 0 {
                        self.check_guards(sink)?;
                    }
                }
            } else {
                let (mut addr, dts, kind) = (a.addr, self.dts, a.kind);
                for step in 0..steps {
                    if step % DEADLINE_CHECK_INTERVAL as usize == 0 {
                        self.check_guards(sink)?;
                    }
                    sink.access_range(addr as u64, dts as u64, kind);
                    addr += delta;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palo_arch::presets;
    use palo_ir::{DType, NestBuilder};
    use palo_sched::Schedule;

    fn copy_nest(n: usize) -> LoopNest {
        let mut b = NestBuilder::new("copy", DType::F32);
        let i = b.var("i", n);
        let j = b.var("j", n);
        let src = b.array("src", &[n, n]);
        let dst = b.array("dst", &[n, n]);
        let ld = b.load(src, &[i, j]);
        b.store(dst, &[i, j], ld);
        b.build().unwrap()
    }

    fn matmul(n: usize) -> LoopNest {
        let mut b = NestBuilder::new("matmul", DType::F32);
        let i = b.var("i", n);
        let j = b.var("j", n);
        let k = b.var("k", n);
        let a = b.array("A", &[n, n]);
        let bm = b.array("B", &[n, n]);
        let c = b.array("C", &[n, n]);
        b.accumulate(c, &[i, j], b.load(a, &[i, k]) * b.load(bm, &[k, j]));
        b.build().unwrap()
    }

    #[test]
    fn copy_touches_each_line_once_per_array() {
        let n = 256; // 256*256*4 = 256 KiB per array = 4096 lines
        let nest = copy_nest(n);
        let lowered = Schedule::new().lower(&nest).unwrap();
        let mut hier = Hierarchy::from_architecture(&presets::intel_i7_6700());
        trace_into(&nest, &lowered, &mut hier, &TraceOptions::default()).unwrap();
        // 4096 lines read + 4096 lines written
        assert_eq!(hier.stats().total_accesses, 8192);
    }

    #[test]
    fn nt_store_lines_counted_for_scheduled_store() {
        let nest = copy_nest(64);
        let mut s = Schedule::new();
        s.store_nt();
        let lowered = s.lower(&nest).unwrap();
        let mut hier = Hierarchy::from_architecture(&presets::intel_i7_6700());
        trace_into(&nest, &lowered, &mut hier, &TraceOptions::default()).unwrap();
        assert_eq!(hier.stats().nt_store_lines, 64 * 64 * 4 / 64);
    }

    #[test]
    fn matmul_line_counts_match_analysis() {
        // Program order is i, j, k with k innermost. Per (i, j) pair:
        // C load and C store are k-invariant (1 touch each), A[i][k] is
        // contiguous in k (batched to n/16 line touches), and B[k][j]
        // strides a full row per k step (n separate touches).
        let n = 64;
        let nest = matmul(n);
        let lowered = Schedule::new().lower(&nest).unwrap();
        let mut hier = Hierarchy::from_architecture(&presets::intel_i7_6700());
        trace_into(&nest, &lowered, &mut hier, &TraceOptions::default()).unwrap();
        let lines_per_row = n / 16;
        let expected = (n * n) as u64 * (2 + lines_per_row + n) as u64;
        assert_eq!(hier.stats().total_accesses, expected);
    }

    #[test]
    fn tiled_matmul_reduces_memory_traffic() {
        let n = 128; // arrays: 64 KiB each — larger than L1, fits L2
        let nest = matmul(n);
        let naive = Schedule::new().lower(&nest).unwrap();
        let mut s = Schedule::new();
        s.split("j", "jj", "jt", 32)
            .split("k", "kk", "kt", 32)
            .reorder(&["jj", "kk", "i", "kt", "jt"]);
        let tiled = s.lower(&nest).unwrap();

        let arch = presets::intel_i7_6700();
        let mut h1 = Hierarchy::from_architecture(&arch);
        trace_into(&nest, &naive, &mut h1, &TraceOptions::default()).unwrap();
        let mut h2 = Hierarchy::from_architecture(&arch);
        trace_into(&nest, &tiled, &mut h2, &TraceOptions::default()).unwrap();

        // Both compute the same work; both should touch far fewer memory
        // lines than total accesses, and miss counts must be positive.
        assert!(h1.stats().mem_demand_fills + h1.stats().mem_prefetch_fills > 0);
        assert!(h2.stats().mem_demand_fills + h2.stats().mem_prefetch_fills > 0);
    }

    #[test]
    fn guarded_tail_does_not_overrun() {
        let nest = copy_nest(50); // 50 not divisible by 16
        let mut s = Schedule::new();
        s.split("j", "jj", "jt", 16);
        let lowered = s.lower(&nest).unwrap();
        let mut hier = Hierarchy::from_architecture(&presets::intel_i7_6700());
        trace_into(&nest, &lowered, &mut hier, &TraceOptions::default()).unwrap();
        // 50*50 elements * 4B = 10000 B per array; rows of 50*4=200B are
        // not line aligned, so count lines via the walk: just require that
        // the total equals the unguarded program-order walk.
        let plain = Schedule::new().lower(&nest).unwrap();
        let mut h2 = Hierarchy::from_architecture(&presets::intel_i7_6700());
        trace_into(&nest, &plain, &mut h2, &TraceOptions::default()).unwrap();
        // Tiled-with-tail touches each line at least once; totals may
        // differ (batch boundaries) but memory traffic must match to
        // within the per-row rounding.
        let t1 = hier.stats().mem_traffic_lines() as f64;
        let t2 = h2.stats().mem_traffic_lines() as f64;
        assert!((t1 - t2).abs() / t2 < 0.35, "t1={t1} t2={t2}");
    }

    #[test]
    fn reversed_access_batches_negative_delta() {
        // out[i] = A[63 - i]: the A access has delta -4 bytes per i step,
        // exercising the descending-run batching path.
        let mut b = NestBuilder::new("rev", DType::F32);
        let i = b.var("i", 64);
        let a = b.array("A", &[64]);
        let out = b.array("out", &[64]);
        let ix = palo_ir::AffineIndex::from_terms([(i, -1i64)], 63);
        let ld = b.load_expr(a, vec![ix]);
        b.store(out, &[i], ld);
        let nest = b.build().unwrap();
        let lowered = Schedule::new().lower(&nest).unwrap();
        let mut hier = Hierarchy::from_architecture(&presets::intel_i7_6700());
        trace_into(&nest, &lowered, &mut hier, &TraceOptions::default()).unwrap();
        // 64 f32 = 4 lines for A (batched descending) + 4 for out.
        assert_eq!(hier.stats().total_accesses, 8);
    }

    #[test]
    fn line_budget_aborts_and_reports_limit() {
        let nest = copy_nest(256);
        let lowered = Schedule::new().lower(&nest).unwrap();
        let mut hier = Hierarchy::from_architecture(&presets::intel_i7_6700());
        let opts = TraceOptions { max_lines: Some(100), ..TraceOptions::default() };
        let err = trace_into(&nest, &lowered, &mut hier, &opts).unwrap_err();
        assert_eq!(err, TraceError::LineBudgetExceeded { limit: 100 });
        // The guard trips between walk steps, so a small batch overshoot
        // is allowed — but the trace must stop near the budget, far from
        // the 8192 lines of the full walk.
        assert!(hier.stats().total_accesses >= 100);
        assert!(hier.stats().total_accesses < 200);
    }

    #[test]
    fn zero_line_budget_aborts_immediately() {
        let nest = copy_nest(64);
        let lowered = Schedule::new().lower(&nest).unwrap();
        let mut hier = Hierarchy::from_architecture(&presets::intel_i7_6700());
        let opts = TraceOptions { max_lines: Some(0), ..TraceOptions::default() };
        let err = trace_into(&nest, &lowered, &mut hier, &opts).unwrap_err();
        assert_eq!(err, TraceError::LineBudgetExceeded { limit: 0 });
        assert_eq!(hier.stats().total_accesses, 0);
    }

    #[test]
    fn zero_deadline_aborts_with_deadline_error() {
        // A zero budget expires before the first probe, so the trace must
        // abort within one probe interval rather than walk 256^2 points.
        let nest = copy_nest(256);
        let lowered = Schedule::new().lower(&nest).unwrap();
        let mut hier = Hierarchy::from_architecture(&presets::intel_i7_6700());
        let opts = TraceOptions { deadline: Some(Duration::ZERO), ..TraceOptions::default() };
        let err = trace_into(&nest, &lowered, &mut hier, &opts).unwrap_err();
        assert_eq!(err, TraceError::DeadlineExceeded { budget: Duration::ZERO });
    }

    #[test]
    fn generous_guards_do_not_change_results() {
        let nest = copy_nest(64);
        let lowered = Schedule::new().lower(&nest).unwrap();
        let arch = presets::intel_i7_6700();
        let mut h1 = Hierarchy::from_architecture(&arch);
        trace_into(&nest, &lowered, &mut h1, &TraceOptions::default()).unwrap();
        let mut h2 = Hierarchy::from_architecture(&arch);
        let opts = TraceOptions {
            max_lines: Some(u64::MAX),
            deadline: Some(Duration::from_secs(3600)),
            ..TraceOptions::default()
        };
        trace_into(&nest, &lowered, &mut h2, &opts).unwrap();
        assert_eq!(h1.stats().total_accesses, h2.stats().total_accesses);
        assert_eq!(h1.stats().mem_demand_fills, h2.stats().mem_demand_fills);
    }

    fn scalar_opts() -> TraceOptions {
        TraceOptions { run_compressed: false, ..TraceOptions::default() }
    }

    /// Traces `lowered` twice per preset — run-compressed and scalar —
    /// and asserts bit-identical statistics.
    fn assert_compressed_matches_scalar(nest: &LoopNest, lowered: &LoweredNest) {
        for arch in
            [presets::intel_i7_6700(), presets::intel_i7_5930k(), presets::arm_cortex_a15()]
        {
            let mut hc = Hierarchy::from_architecture(&arch);
            trace_into(nest, lowered, &mut hc, &TraceOptions::default()).unwrap();
            let mut hs = Hierarchy::from_architecture(&arch);
            trace_into(nest, lowered, &mut hs, &scalar_opts()).unwrap();
            assert_eq!(hc.stats(), hs.stats(), "compressed != scalar on {}", arch.name);
        }
    }

    #[test]
    fn compressed_replay_matches_scalar_program_order() {
        let nest = matmul(48);
        let lowered = Schedule::new().lower(&nest).unwrap();
        assert_compressed_matches_scalar(&nest, &lowered);
    }

    #[test]
    fn compressed_replay_matches_scalar_strided_inner() {
        // i innermost: A[i][k] and C[i][j] advance a full row per step —
        // the whole-line strided run path, with B k-invariant.
        let nest = matmul(48);
        let mut s = Schedule::new();
        s.reorder(&["j", "k", "i"]);
        let lowered = s.lower(&nest).unwrap();
        assert_compressed_matches_scalar(&nest, &lowered);
    }

    #[test]
    fn compressed_replay_matches_scalar_tiled_with_tail() {
        let nest = copy_nest(50); // guarded tails: clamped inner trips
        let mut s = Schedule::new();
        s.split("j", "jj", "jt", 16).split("i", "ii", "it", 8);
        let lowered = s.lower(&nest).unwrap();
        assert_compressed_matches_scalar(&nest, &lowered);
    }

    #[test]
    fn deadline_still_fires_under_compression() {
        let nest = copy_nest(256);
        let lowered = Schedule::new().lower(&nest).unwrap();
        let mut hier = Hierarchy::from_architecture(&presets::intel_i7_6700());
        let opts = TraceOptions { deadline: Some(Duration::ZERO), ..TraceOptions::default() };
        let err = trace_into(&nest, &lowered, &mut hier, &opts).unwrap_err();
        assert_eq!(err, TraceError::DeadlineExceeded { budget: Duration::ZERO });
    }

    #[test]
    fn replay_stats_report_compression() {
        let nest = matmul(64);
        let lowered = Schedule::new().lower(&nest).unwrap();
        let mut hier = Hierarchy::from_architecture(&presets::intel_i7_6700());
        trace_into(&nest, &lowered, &mut hier, &TraceOptions::default()).unwrap();
        let r = hier.replay_stats();
        // Every traced line flows through a batched event, so the replay
        // accounting must agree with the simulator's own total.
        assert_eq!(r.run_lines, hier.stats().total_accesses);
        // B[k][j] walks a row per k step: far fewer run events than lines.
        assert!(r.runs < r.run_lines / 4, "runs={} lines={}", r.runs, r.run_lines);
    }

    #[test]
    fn fused_loop_traces_same_lines_as_unfused() {
        let nest = copy_nest(64);
        let mut s1 = Schedule::new();
        s1.split("i", "io", "it", 8)
            .split("j", "jo", "jt", 8)
            .reorder(&["io", "jo", "it", "jt"]);
        let mut s2 = s1.clone();
        s2.fuse("io", "jo", "f");
        let l1 = s1.lower(&nest).unwrap();
        let l2 = s2.lower(&nest).unwrap();
        let arch = presets::intel_i7_6700();
        let mut h1 = Hierarchy::from_architecture(&arch);
        let mut h2 = Hierarchy::from_architecture(&arch);
        trace_into(&nest, &l1, &mut h1, &TraceOptions::default()).unwrap();
        trace_into(&nest, &l2, &mut h2, &TraceOptions::default()).unwrap();
        assert_eq!(h1.stats().total_accesses, h2.stats().total_accesses);
        assert_eq!(h1.stats().mem_demand_fills, h2.stats().mem_demand_fills);
    }
}
