//! Converting a traced schedule into estimated execution time.

use crate::error::TraceError;
use crate::trace::{trace_into, TraceOptions};
use palo_arch::Architecture;
use palo_cachesim::{Hierarchy, HierarchyStats, ReplayStats};
use palo_ir::LoopNest;
use palo_sched::LoweredNest;

/// Estimated execution time of a schedule plus its breakdown.
#[derive(Debug, Clone)]
pub struct TimeEstimate {
    /// Estimated wall-clock milliseconds.
    pub ms: f64,
    /// Latency-weighted memory-system cycles (cache hits + demand memory
    /// fills; divided by the parallel speedup).
    pub memory_cycles: f64,
    /// Shared memory-bus cycles (all lines crossing the bus × transfer
    /// cost; *not* divided by parallelism — the bandwidth roof).
    pub bus_cycles: f64,
    /// Issue-width-limited compute cycles.
    pub compute_cycles: f64,
    /// Parallel speedup divisor applied (1.0 for serial schedules).
    pub speedup: f64,
    /// Raw simulator statistics of the trace.
    pub stats: HierarchyStats,
    /// Replay-engine telemetry: how the trace was consumed (batched runs
    /// and the lines they covered). Diagnostic only — does not affect the
    /// estimate.
    pub replay: ReplayStats,
}

impl TimeEstimate {
    /// Throughput relative to another estimate (>1 means `self` is
    /// faster) — the y-axis of the paper's Figures 4–7.
    pub fn relative_throughput(&self, other: &TimeEstimate) -> f64 {
        other.ms / self.ms
    }
}

/// Traces `lowered` on a hierarchy derived from `arch` and converts the
/// statistics to estimated time.
///
/// Parallel schedules are modeled as in the paper's own corrections: the
/// per-thread hierarchy loses associativity to co-resident threads
/// (`Liway / Nthreads`, `L2way / Ncores` for chip-shared levels), and the
/// total time divides by the achievable chunked speedup
/// `trip / ceil(trip / cores)` of the parallel loop (Eq. 13's concern).
///
/// # Errors
///
/// Propagates [`TraceError`] from the trace walk (budget, deadline, or an
/// internally inconsistent lowered nest).
pub fn estimate_time(
    nest: &LoopNest,
    lowered: &LoweredNest,
    arch: &Architecture,
) -> Result<TimeEstimate, TraceError> {
    estimate_time_with(nest, lowered, arch, &TraceOptions::default())
}

/// [`estimate_time`] with explicit trace options.
///
/// # Errors
///
/// Propagates [`TraceError`] from the trace walk.
pub fn estimate_time_with(
    nest: &LoopNest,
    lowered: &LoweredNest,
    arch: &Architecture,
    opts: &TraceOptions,
) -> Result<TimeEstimate, TraceError> {
    let par_trip = lowered.parallel_loop().map(|i| lowered.loops()[i].trip).unwrap_or(1);
    let (tpc_used, cores_used, speedup) = if par_trip > 1 {
        let threads = par_trip.min(arch.total_threads());
        let cores_used = threads.min(arch.cores);
        let tpc_used = if threads > arch.cores { arch.threads_per_core } else { 1 };
        let chunks = par_trip.div_ceil(cores_used);
        (tpc_used, cores_used, par_trip as f64 / chunks as f64)
    } else {
        (1, 1, 1.0)
    };

    let mut hier = Hierarchy::with_effective_sharing(arch, tpc_used, cores_used);
    trace_into(nest, lowered, &mut hier, opts)?;
    let stats = hier.stats().clone();
    let replay = hier.replay_stats();
    // Hits expose only a fraction of their latency on pipelined cores;
    // demand misses to memory stall for the full latency.
    let memory_cycles = stats.hit_cycles(hier.latencies()) * arch.timing.hit_exposed_fraction
        + stats.demand_fill_cycles(&arch.timing);
    let bus_cycles = stats.bus_cycles(&arch.timing);

    let iters = nest.iteration_count() as f64;
    let ops = (nest.statement().rhs.op_count() + 1) as f64;
    let lanes = lowered.vector_lanes().max(1) as f64;
    let compute_cycles = iters * ops * arch.timing.compute_cycles_per_iter / lanes;

    // Roofline-style combination: per-thread work scales with the
    // parallel speedup, the shared memory bus does not.
    let total = ((memory_cycles + compute_cycles) / speedup).max(bus_cycles);
    Ok(TimeEstimate {
        ms: arch.timing.cycles_to_ms(total),
        memory_cycles,
        bus_cycles,
        compute_cycles,
        speedup,
        stats,
        replay,
    })
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

    fn matmul_nest(n: usize) -> LoopNest {
        let mut b = NestBuilder::new("mm", DType::F32);
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
    fn parallel_schedule_is_faster_when_not_bus_bound() {
        // Cache-resident matmul: compute/latency dominate, so parallelism
        // must show. (A pure streaming copy can legitimately tie — both
        // serial and parallel sit on the bandwidth roof.)
        let nest = matmul_nest(96);
        let arch = presets::intel_i7_6700();
        let serial = Schedule::new().lower(&nest).unwrap();
        let mut s = Schedule::new();
        s.reorder(&["i", "k", "j"]).parallel("i").vectorize("j", 8);
        let par = s.lower(&nest).unwrap();
        let t_serial = estimate_time(&nest, &serial, &arch).unwrap();
        let t_par = estimate_time(&nest, &par, &arch).unwrap();
        assert!(t_par.ms < t_serial.ms, "par {} vs serial {}", t_par.ms, t_serial.ms);
        assert!(t_par.speedup > 1.0);
        assert!(t_par.relative_throughput(&t_serial) > 1.0);
    }

    #[test]
    fn bus_bound_copy_hits_the_bandwidth_roof() {
        let nest = copy_nest(512);
        let arch = presets::intel_i7_6700();
        let mut s = Schedule::new();
        s.parallel("i").vectorize("j", 8);
        let t = estimate_time(&nest, &s.lower(&nest).unwrap(), &arch).unwrap();
        // Parallel streaming: total time is bounded below by bus cycles.
        assert!(t.ms >= arch.timing.cycles_to_ms(t.bus_cycles) - 1e-12);
    }

    #[test]
    fn vectorization_cuts_compute() {
        let nest = copy_nest(64);
        let arch = presets::intel_i7_6700();
        let plain = Schedule::new().lower(&nest).unwrap();
        let mut s = Schedule::new();
        s.vectorize("j", 8);
        let vec = s.lower(&nest).unwrap();
        let t0 = estimate_time(&nest, &plain, &arch).unwrap();
        let t1 = estimate_time(&nest, &vec, &arch).unwrap();
        assert!((t1.compute_cycles - t0.compute_cycles / 8.0).abs() < 1e-6);
    }

    #[test]
    fn nt_store_reduces_memory_traffic_for_streaming() {
        let nest = copy_nest(512); // 1 MiB per array, exceeds L2
        let arch = presets::intel_i7_5930k();
        let plain = Schedule::new().lower(&nest).unwrap();
        let mut s = Schedule::new();
        s.store_nt();
        let nt = s.lower(&nest).unwrap();
        let t0 = estimate_time(&nest, &plain, &arch).unwrap();
        let t1 = estimate_time(&nest, &nt, &arch).unwrap();
        // NT stores avoid the read-for-ownership of the destination.
        assert!(
            t1.stats.mem_demand_fills + t1.stats.mem_prefetch_fills
                < t0.stats.mem_demand_fills + t0.stats.mem_prefetch_fills
        );
        assert!(t1.ms < t0.ms, "nt {} vs plain {}", t1.ms, t0.ms);
    }

    #[test]
    fn serial_speedup_is_one() {
        let nest = copy_nest(32);
        let arch = presets::arm_cortex_a15();
        let t = estimate_time(&nest, &Schedule::new().lower(&nest).unwrap(), &arch).unwrap();
        assert_eq!(t.speedup, 1.0);
        assert!(t.ms > 0.0);
    }
}
