//! Trace-mode execution: walk a lowered nest and feed the address stream
//! of every array reference to a streaming [`LineSink`].
//!
//! The walker never materializes a trace: contiguous runs of the
//! innermost loop are batched into [`LineSink::access_range`] calls and
//! whole-line-stride walks into run-compressed [`LineSink::access_run`]
//! events (line-granular). When the loop above the innermost one is
//! simple and steps another variable, both loops go to the sink as one
//! trace block ([`LineSink::access_block`]), byte-strided walks included.
//! This keeps tracing of multi-hundred-megabyte iteration spaces
//! tractable while preserving the per-line demand/prefetch behaviour the
//! paper's analysis is about. Every line is replayed: run compression is
//! exact — statistics are bit-identical to the scalar walk, which stays
//! available via [`TraceOptions::run_compressed`] `= false` as the
//! differential-testing reference. The production sink is the cache
//! simulator ([`Hierarchy`]).

use crate::error::TraceError;
use palo_cachesim::{
    AccessKind, AccessRun, BlockAccess, Hierarchy, InnerShape, LineSink, RUN_CHUNK,
};
use palo_ir::{Access, LoopNest};
use palo_sched::{LoweredLoop, LoweredNest};
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
    /// events and trace blocks). Statistics are bit-identical either
    /// way; `false` forces the scalar reference path and exists for
    /// differential testing and debugging.
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
    loops: &'a [LoweredLoop],
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
    /// The accesses of the trace block being issued (reused).
    block: Vec<BlockAccess>,
}

/// How many walk steps pass between wall-clock probes.
const DEADLINE_CHECK_INTERVAL: u32 = 4096;

/// Most outer iterations one trace block ([`LineSink::access_block`])
/// covers: the guards run between blocks.
const BLOCK_ITERS: usize = 4096;

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
    let (loops, extents) = (lowered.loops(), lowered.extents());
    trace_loops(nest, loops, extents, lowered.nt_store(), sink, opts)
}

/// [`trace_stream`] over the lowered loops `loops` of `nest`, whose
/// variables range over `0..extents`.
fn trace_loops<S: LineSink>(
    nest: &LoopNest,
    loops: &[LoweredLoop],
    extents: &[usize],
    nt_store: bool,
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
        let loop_deltas = loops
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
    let store_kind = if nt_store { AccessKind::NtStore } else { AccessKind::Store };
    accesses.push(mk(&stmt.output, store_kind));

    let line = sink.line_size() as i64;
    let mut walker = Walker {
        loops,
        extents: extents.to_vec(),
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
        block: Vec::new(),
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
            self.count_steps(1);
        }
        Ok(())
    }

    /// Counts `n` walk steps towards the next clock probe.
    fn count_steps(&mut self, n: usize) {
        let steps = self.steps_since_check as usize + n;
        self.steps_since_check =
            if steps >= DEADLINE_CHECK_INTERVAL as usize { 0 } else { steps as u32 };
    }

    fn missing_delta(&self, d: usize) -> TraceError {
        TraceError::MissingLoopDelta { loop_name: self.loops[d].name.clone() }
    }

    /// Whether loop `d` is simple: one undivided contribution to one
    /// variable, so every access moves by a constant delta per step.
    fn is_simple(&self, d: usize) -> bool {
        let c = &self.loops[d].contribs;
        c.len() == 1 && c[0].divisor == 1
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

    /// Moves the walk `k` steps along the simple loop `d`, which steps
    /// variable `v` by `stride`.
    fn advance(&mut self, d: usize, v: usize, stride: i64, k: i64) -> Result<(), TraceError> {
        self.values[v] += stride * k;
        for ai in 0..self.accesses.len() {
            match self.accesses[ai].loop_deltas[d] {
                Some(delta) => self.accesses[ai].addr += delta * k,
                None => return Err(self.missing_delta(d)),
            }
        }
        Ok(())
    }

    fn walk<S: LineSink>(&mut self, d: usize, sink: &mut S) -> Result<(), TraceError> {
        self.check_guards(sink)?;
        if d == self.loops.len() {
            for a in &self.accesses {
                sink.access_range(a.addr as u64, self.dts as u64, a.kind);
            }
            return Ok(());
        }
        if self.is_simple(d) {
            let (steps, v, stride) = self.simple_steps(d);
            if d + 1 == self.loops.len() {
                return self.issue_innermost(d, steps, sink);
            }
            if self.compressed
                && d + 2 == self.loops.len()
                && self.is_simple(d + 1)
                && self.loops[d + 1].contribs[0].var.index() != v
            {
                return self.issue_blocks(d, sink);
            }
            for _ in 0..steps {
                self.walk(d + 1, sink)?;
                self.advance(d, v, stride, 1)?;
            }
            self.advance(d, v, stride, -(steps as i64))?;
        } else {
            // Fused loop: recompute contributions per iteration.
            let l = self.loops[d].clone();
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

    /// What access `ai` touches over `steps` in-bounds steps of the
    /// simple loop `d` from the current position, and the address its
    /// first event starts at: a byte range when the access moves at most
    /// a line per step, a line run when it moves whole lines (run
    /// compression only), a strided walk otherwise.
    fn inner_shape(
        &self,
        ai: usize,
        d: usize,
        steps: usize,
    ) -> Result<(u64, InnerShape), TraceError> {
        let a = &self.accesses[ai];
        let Some(delta) = a.loop_deltas[d] else {
            return Err(self.missing_delta(d));
        };
        let (count, bytes) = (steps as u64, self.dts as u64);
        Ok(if delta.abs() <= self.line {
            let back = if delta < 0 { (steps as i64 - 1) * delta } else { 0 };
            let span = (steps as i64 - 1) * delta.abs() + self.dts;
            ((a.addr + back) as u64, InnerShape::Range { bytes: span as u64 })
        } else if self.compressed && self.line_pow2 && delta % self.line == 0 {
            (a.addr as u64, InnerShape::Run { stride_lines: delta / self.line, count, bytes })
        } else {
            (a.addr as u64, InnerShape::Walk { stride: delta, count, bytes })
        })
    }

    /// Issues one instance of the innermost (simple) loop with `steps`
    /// in-bounds iterations, one access at a time: the events of
    /// [`LineSink::access_block`]'s default expansion, with the guards
    /// checked before each access, between the chunks of a line run and
    /// every [`DEADLINE_CHECK_INTERVAL`] steps of a strided walk.
    fn issue_innermost<S: LineSink>(
        &mut self,
        d: usize,
        steps: usize,
        sink: &mut S,
    ) -> Result<(), TraceError> {
        if steps == 0 {
            return Ok(());
        }
        for ai in 0..self.accesses.len() {
            self.check_guards(sink)?;
            let kind = self.accesses[ai].kind;
            let (addr, inner) = self.inner_shape(ai, d, steps)?;
            let (stride, bytes) = match inner {
                InnerShape::Range { bytes } => {
                    sink.access_range(addr, bytes, kind);
                    continue;
                }
                InnerShape::Run { stride_lines, bytes, .. }
                    if addr % self.line as u64 + bytes <= self.line as u64 =>
                {
                    // Whole-line stride with the element inside one line:
                    // every step touches exactly one line, so the walk is
                    // a single constant-stride line run. Chunked so the
                    // guards keep firing at their scalar granularity.
                    let mut start_line = addr >> self.line.trailing_zeros();
                    let mut remaining = steps as u64;
                    while remaining > 0 {
                        let count = remaining.min(RUN_CHUNK);
                        sink.access_run(&AccessRun { start_line, stride_lines, count, kind });
                        start_line =
                            start_line.wrapping_add_signed(stride_lines * count as i64);
                        remaining -= count;
                        if remaining > 0 {
                            self.check_guards(sink)?;
                        }
                    }
                    continue;
                }
                InnerShape::Run { stride_lines, bytes, .. } => {
                    (stride_lines * self.line, bytes)
                }
                InnerShape::Walk { stride, bytes, .. } => (stride, bytes),
            };
            let mut addr = addr;
            for step in 0..steps {
                if step % DEADLINE_CHECK_INTERVAL as usize == 0 {
                    self.check_guards(sink)?;
                }
                sink.access_range(addr, bytes, kind);
                addr = addr.wrapping_add_signed(stride);
            }
        }
        Ok(())
    }

    /// Issues the simple loop `d` together with the innermost loop below
    /// it (simple, stepping another variable, so its trip does not change
    /// across `d`'s iterations) as trace blocks of at most
    /// [`BLOCK_ITERS`] outer iterations, with the guards checked before
    /// each. A chunk whose line bound could reach the line budget is
    /// walked instance by instance instead, so the budget trips exactly
    /// where the loop-by-loop walk trips it.
    fn issue_blocks<S: LineSink>(&mut self, d: usize, sink: &mut S) -> Result<(), TraceError> {
        let (steps, v, stride) = self.simple_steps(d);
        let (inner_steps, _, _) = self.simple_steps(d + 1);
        let line = self.line as u64;
        let mut done = 0;
        while done < steps && inner_steps > 0 {
            let iters = (steps - done).min(BLOCK_ITERS);
            self.check_guards(sink)?;
            self.fill_block(d, inner_steps)?;
            let per_iter = self
                .block
                .iter()
                .fold(0u64, |sum, b| sum.saturating_add(b.inner.line_bound(line)));
            let bound = per_iter.saturating_mul(iters as u64);
            if self
                .line_limit
                .is_some_and(|limit| sink.lines_issued().saturating_add(bound) >= limit)
            {
                for _ in 0..iters {
                    self.walk(d + 1, sink)?;
                    self.advance(d, v, stride, 1)?;
                }
            } else {
                sink.access_block(iters as u64, &self.block);
                self.count_steps(iters * (1 + self.block.len()));
                self.advance(d, v, stride, iters as i64)?;
            }
            done += iters;
        }
        self.advance(d, v, stride, -(done as i64))
    }

    /// Fills `self.block` with the accesses of one trace block from the
    /// current position: outer loop `d`, `inner_steps` steps of loop
    /// `d + 1`.
    fn fill_block(&mut self, d: usize, inner_steps: usize) -> Result<(), TraceError> {
        self.block.clear();
        for ai in 0..self.accesses.len() {
            let (addr, inner) = self.inner_shape(ai, d + 1, inner_steps)?;
            let a = &self.accesses[ai];
            let Some(outer_delta) = a.loop_deltas[d] else {
                return Err(self.missing_delta(d));
            };
            let kind = a.kind;
            self.block.push(BlockAccess { addr, outer_delta, kind, inner });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palo_arch::{presets, Architecture};
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

    /// `C[i][j] += A[i][k]·A[j][k]`, as the suite's syrk.
    fn syrk(n: usize) -> LoopNest {
        let mut b = NestBuilder::new("syrk", DType::F32);
        let i = b.var("i", n);
        let j = b.var("j", n);
        let k = b.var("k", n);
        let a = b.array("A", &[n, n]);
        let c = b.array("C", &[n, n]);
        b.accumulate(c, &[i, j], b.load(a, &[i, k]) * b.load(a, &[j, k]));
        b.build().unwrap()
    }

    /// `out[y][x] = A[x][y]`, as the suite's tp, or with the strided side
    /// on the store, `out[x][y] = A[y][x]`.
    fn tp(n: usize, strided_store: bool) -> LoopNest {
        let mut b = NestBuilder::new("tp", DType::F32);
        let y = b.var("y", n);
        let x = b.var("x", n);
        let a = b.array("A", &[n, n]);
        let out = b.array("out", &[n, n]);
        let (load, store) = if strided_store { ([y, x], [x, y]) } else { ([x, y], [y, x]) };
        let ld = b.load(a, &load);
        b.store(out, &store, ld);
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

    /// A nest the guard tests run on, with the lines its full walk issues
    /// and where the loop-by-loop walk stops under line budgets of 100,
    /// 1000, 12345 and 100000 (`None`: the walk completes).
    struct GuardCase {
        name: &'static str,
        nest: LoopNest,
        lowered: LoweredNest,
        full: u64,
        stops: [Option<u64>; 4],
    }

    /// Each case is issued as trace blocks: a program-order copy (byte
    /// ranges), a tiled matmul whose innermost `jt` sits under `kt`, and
    /// syrk(37) with `i` innermost, whose references stride 148 bytes
    /// (strided walks).
    fn guard_cases() -> Vec<GuardCase> {
        let mut tiled = Schedule::new();
        tiled
            .split("j", "jj", "jt", 16)
            .split("k", "kk", "kt", 16)
            .reorder(&["jj", "kk", "i", "kt", "jt"]);
        let mut strided = Schedule::new();
        strided.reorder(&["k", "j", "i"]);
        let case = |name, nest: LoopNest, s: &Schedule, full, stops| {
            let lowered = s.lower(&nest).unwrap();
            GuardCase { name, nest, lowered, full, stops }
        };
        vec![
            case(
                "copy(256)",
                copy_nest(256),
                &Schedule::new(),
                8192,
                [Some(112), Some(1008), None, None],
            ),
            case(
                "tiled matmul(40)",
                matmul(40),
                &tiled,
                24000,
                [Some(100), Some(1000), Some(12346), None],
            ),
            case(
                "syrk(37) k,j,i",
                syrk(37),
                &strided,
                153328,
                [Some(112), Some(1008), Some(12357), Some(100016)],
            ),
        ]
    }

    /// A hierarchy that counts the trace blocks it receives.
    struct BlockCount(Hierarchy, u64);

    impl LineSink for BlockCount {
        fn access_range(&mut self, addr: u64, bytes: u64, kind: AccessKind) {
            self.0.access_range(addr, bytes, kind);
        }

        fn access_run(&mut self, run: &AccessRun) {
            self.0.access_run(run);
        }

        fn access_block(&mut self, outer: u64, accesses: &[BlockAccess]) {
            self.1 += 1;
            self.0.access_block(outer, accesses);
        }

        fn lines_issued(&self) -> u64 {
            self.0.stats().total_accesses
        }

        fn line_size(&self) -> usize {
            self.0.line_size()
        }
    }

    /// A hierarchy behind [`LineSink::access_block`]'s default expansion.
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

    /// Traces `lowered` on `arch` and returns how many trace blocks the
    /// walker issued.
    fn blocks_issued(nest: &LoopNest, lowered: &LoweredNest, arch: &Architecture) -> u64 {
        let mut sink = BlockCount(Hierarchy::from_architecture(arch), 0);
        trace_stream(nest, lowered, &mut sink, &TraceOptions::default()).unwrap();
        sink.1
    }

    /// [`Hierarchy::access_block`] against the trait's default expansion
    /// of the same blocks: identical statistics and replay counters.
    fn assert_blocks_match_expansion(
        nest: &LoopNest,
        lowered: &LoweredNest,
        arch: &Architecture,
    ) {
        let mut direct = Hierarchy::from_architecture(arch);
        trace_into(nest, lowered, &mut direct, &TraceOptions::default()).unwrap();
        let mut expanded = Expanded(Hierarchy::from_architecture(arch));
        trace_stream(nest, lowered, &mut expanded, &TraceOptions::default()).unwrap();
        assert_eq!(direct.stats(), expanded.0.stats(), "{} on {}", nest.name(), arch.name);
        assert_eq!(direct.replay_stats(), expanded.0.replay_stats(), "{}", nest.name());
    }

    #[test]
    fn guard_cases_issue_blocks() {
        let arch = presets::intel_i7_6700();
        for GuardCase { name, nest, lowered, full, .. } in guard_cases() {
            assert!(blocks_issued(&nest, &lowered, &arch) > 0, "{name}");
            let mut hier = Hierarchy::from_architecture(&arch);
            trace_into(&nest, &lowered, &mut hier, &TraceOptions::default()).unwrap();
            assert_eq!(hier.stats().total_accesses, full, "{name}");
            assert_blocks_match_expansion(&nest, &lowered, &arch);
        }
    }

    #[test]
    fn line_budget_aborts_and_reports_limit() {
        for GuardCase { name, nest, lowered, .. } in guard_cases() {
            let mut hier = Hierarchy::from_architecture(&presets::intel_i7_6700());
            let opts = TraceOptions { max_lines: Some(100), ..TraceOptions::default() };
            let err = trace_into(&nest, &lowered, &mut hier, &opts).unwrap_err();
            assert_eq!(err, TraceError::LineBudgetExceeded { limit: 100 }, "{name}");
            // The guard trips between walk steps, so a small batch
            // overshoot is allowed — but the trace must stop near the
            // budget, far from the thousands of lines of the full walk.
            let lines = hier.stats().total_accesses;
            assert!((100..200).contains(&lines), "{name}: {lines} lines");
        }
    }

    #[test]
    fn budget_aborts_where_the_loop_by_loop_walk_does() {
        for GuardCase { name, nest, lowered, full, stops } in guard_cases() {
            for (budget, stop) in [100, 1000, 12345, 100_000].into_iter().zip(stops) {
                let mut hier = Hierarchy::from_architecture(&presets::intel_i7_6700());
                let opts = TraceOptions { max_lines: Some(budget), ..TraceOptions::default() };
                let done = trace_into(&nest, &lowered, &mut hier, &opts);
                let what = format!("{name}, budget {budget}");
                match stop {
                    Some(lines) => {
                        assert_eq!(done, Err(TraceError::LineBudgetExceeded { limit: budget }));
                        assert_eq!(hier.stats().total_accesses, lines, "{what}");
                    }
                    None => {
                        assert_eq!(done, Ok(()), "{what}");
                        assert_eq!(hier.stats().total_accesses, full, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_line_budget_aborts_immediately() {
        for GuardCase { name, nest, lowered, .. } in guard_cases() {
            let mut hier = Hierarchy::from_architecture(&presets::intel_i7_6700());
            let opts = TraceOptions { max_lines: Some(0), ..TraceOptions::default() };
            let err = trace_into(&nest, &lowered, &mut hier, &opts).unwrap_err();
            assert_eq!(err, TraceError::LineBudgetExceeded { limit: 0 }, "{name}");
            assert_eq!(hier.stats().total_accesses, 0, "{name}");
        }
    }

    #[test]
    fn zero_deadline_aborts_with_deadline_error() {
        // A zero budget expires before the first probe, so the trace must
        // abort at once rather than walk the whole nest.
        for GuardCase { name, nest, lowered, .. } in guard_cases() {
            let mut hier = Hierarchy::from_architecture(&presets::intel_i7_6700());
            let opts =
                TraceOptions { deadline: Some(Duration::ZERO), ..TraceOptions::default() };
            let err = trace_into(&nest, &lowered, &mut hier, &opts).unwrap_err();
            assert_eq!(err, TraceError::DeadlineExceeded { budget: Duration::ZERO }, "{name}");
            assert_eq!(hier.stats().total_accesses, 0, "{name}");
        }
    }

    #[test]
    fn generous_guards_do_not_change_results() {
        let arch = presets::intel_i7_6700();
        for GuardCase { name, nest, lowered, .. } in guard_cases() {
            let mut h1 = Hierarchy::from_architecture(&arch);
            trace_into(&nest, &lowered, &mut h1, &TraceOptions::default()).unwrap();
            let mut h2 = Hierarchy::from_architecture(&arch);
            let opts = TraceOptions {
                max_lines: Some(u64::MAX),
                deadline: Some(Duration::from_secs(3600)),
                ..TraceOptions::default()
            };
            trace_into(&nest, &lowered, &mut h2, &opts).unwrap();
            assert_eq!(h1.stats(), h2.stats(), "{name}");
            assert_eq!(h1.replay_stats(), h2.replay_stats(), "{name}");
        }
    }

    #[test]
    fn tail_tiles_under_their_own_variable_walk_per_instance() {
        // `jt` steps `j`, as does `jj` above it, so its trip shrinks in
        // the tail tile: no block, every instance walked on its own.
        let nest = copy_nest(50);
        let mut s = Schedule::new();
        s.split("j", "jj", "jt", 16);
        let lowered = s.lower(&nest).unwrap();
        assert_eq!(blocks_issued(&nest, &lowered, &presets::intel_i7_6700()), 0);
        assert_compressed_matches_scalar(&nest, &lowered);
    }

    #[test]
    fn blocks_with_negative_inner_strides_match_scalar() {
        // out[i][j] = A[n-1-j][i]: `j` walks A's rows backwards, 148 bytes
        // a step at n=37 (a strided walk) and two lines at n=32 (a run).
        for n in [37, 32] {
            let mut b = NestBuilder::new("rev", DType::F32);
            let i = b.var("i", n);
            let j = b.var("j", n);
            let a = b.array("A", &[n, n]);
            let out = b.array("out", &[n, n]);
            let row = palo_ir::AffineIndex::from_terms([(j, -1i64)], n as i64 - 1);
            let ld = b.load_expr(a, vec![row, i.into()]);
            b.store(out, &[i, j], ld);
            let nest = b.build().unwrap();
            let lowered = Schedule::new().lower(&nest).unwrap();
            let arch = presets::intel_i7_6700();
            assert!(blocks_issued(&nest, &lowered, &arch) > 0, "n={n}");
            assert_compressed_matches_scalar(&nest, &lowered);
            assert_blocks_match_expansion(&nest, &lowered, &arch);
        }
    }

    #[test]
    fn blocks_with_outer_deltas_off_the_line_grid_match_scalar() {
        // Transpositions: the column walk's start moves 4 bytes per outer
        // iteration, so each block run starts at every offset in a line.
        // At n=100 the strided reference is the store, and its dirty lines
        // leave L1.
        for (n, strided_store) in [(37, false), (32, false), (100, true)] {
            let nest = tp(n, strided_store);
            let lowered = Schedule::new().lower(&nest).unwrap();
            assert!(blocks_issued(&nest, &lowered, &presets::intel_i7_6700()) > 0);
            assert_compressed_matches_scalar(&nest, &lowered);
            for arch in [presets::intel_i7_6700(), presets::arm_cortex_a15()] {
                assert_blocks_match_expansion(&nest, &lowered, &arch);
            }
        }
        // On 4-byte lines an 8-byte element straddles two lines, so the
        // whole-line-stride run of every outer iteration replays as a
        // strided walk.
        let mut arch = presets::intel_i7_6700();
        for level in &mut arch.caches {
            level.line_size = 4;
        }
        let mut b = NestBuilder::new("copy64", DType::F64);
        let i = b.var("i", 24);
        let j = b.var("j", 24);
        let src = b.array("src", &[24, 24]);
        let dst = b.array("dst", &[24, 24]);
        let ld = b.load(src, &[j, i]);
        b.store(dst, &[i, j], ld);
        let nest = b.build().unwrap();
        let lowered = Schedule::new().lower(&nest).unwrap();
        assert!(blocks_issued(&nest, &lowered, &arch) > 0);
        assert_blocks_match_expansion(&nest, &lowered, &arch);
        let mut hc = Hierarchy::from_architecture(&arch);
        trace_into(&nest, &lowered, &mut hc, &TraceOptions::default()).unwrap();
        let mut hs = Hierarchy::from_architecture(&arch);
        trace_into(&nest, &lowered, &mut hs, &scalar_opts()).unwrap();
        assert_eq!(hc.stats(), hs.stats());
        assert_eq!(hc.stats().total_accesses, 2 * 2 * 24 * 24);
    }

    #[test]
    fn inner_loop_with_zero_steps_issues_nothing() {
        let nest = matmul(8);
        let lowered = Schedule::new().lower(&nest).unwrap();
        let mut loops = lowered.loops().to_vec();
        loops.last_mut().unwrap().trip = 0;
        for run_compressed in [true, false] {
            let opts = TraceOptions { run_compressed, ..TraceOptions::default() };
            let mut sink =
                BlockCount(Hierarchy::from_architecture(&presets::intel_i7_6700()), 0);
            trace_loops(&nest, &loops, lowered.extents(), false, &mut sink, &opts).unwrap();
            assert_eq!(sink.0.stats().total_accesses, 0, "compressed={run_compressed}");
            assert_eq!(sink.1, 0, "compressed={run_compressed}");
        }
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
