//! Property-based tests over the core invariants:
//!
//! * any legal schedule of a random nest computes the reference result;
//! * the fault-tolerant pipeline never panics on arbitrary (often
//!   illegal) schedules and always degrades to an executable schedule
//!   that is bit-identical to the naive interpreter;
//! * Algorithm 1's bound is safe: the emulated footprint it admits never
//!   conflicts (re-checked against an actual set-mapping replay);
//! * the cache simulator never hallucinates hits (occupancy bounds) and
//!   more associativity never hurts a linear replay.

use palo::arch::presets;
use palo::cachesim::{AccessKind, Hierarchy};
use palo::core::{PipelineConfig, Session};
use palo::exec::{run, run_reference, Buffers};
use palo::ir::{DType, LoopNest, NestBuilder};
use palo::sched::Schedule;
use proptest::prelude::*;

/// A random 3-deep nest: C[i][j] += A[i][k] * B[k][j] with random extents.
fn matmul_nest(ni: usize, nj: usize, nk: usize) -> LoopNest {
    let mut b = NestBuilder::new("pmm", DType::F32);
    let i = b.var("i", ni);
    let j = b.var("j", nj);
    let k = b.var("k", nk);
    let a = b.array("A", &[ni, nk]);
    let bm = b.array("B", &[nk, nj]);
    let c = b.array("C", &[ni, nj]);
    b.accumulate(c, &[i, j], b.load(a, &[i, k]) * b.load(bm, &[k, j]));
    b.build().expect("valid nest")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_tiling_is_semantics_preserving(
        ni in 1usize..12, nj in 1usize..12, nk in 1usize..12,
        ti in 1usize..12, tj in 1usize..12, tk in 1usize..12,
        order_pick in 0usize..6,
    ) {
        let nest = matmul_nest(ni, nj, nk);
        let mut s = Schedule::new();
        s.split("i", "io", "ii", ti.min(ni))
            .split("j", "jo", "ji", tj.min(nj))
            .split("k", "ko", "ki", tk.min(nk));
        let inner = [
            ["ii", "ki", "ji"], ["ii", "ji", "ki"], ["ki", "ii", "ji"],
            ["ki", "ji", "ii"], ["ji", "ii", "ki"], ["ji", "ki", "ii"],
        ][order_pick];
        s.reorder(&["io", "ko", "jo", inner[0], inner[1], inner[2]]);
        let lowered = s.lower(&nest).expect("legal schedule");

        let mut expect = Buffers::for_nest(&nest, 3);
        let mut got = expect.clone();
        run_reference(&nest, &mut expect).expect("reference run succeeds");
        run(&nest, &lowered, &mut got).expect("schedule run succeeds");
        prop_assert_eq!(expect, got);
    }

    #[test]
    fn random_fuse_and_parallel_preserve_semantics(
        ni in 2usize..10, nj in 2usize..10,
        ti in 1usize..10, tj in 1usize..10,
    ) {
        let mut b = NestBuilder::new("pcopy", DType::F32);
        let i = b.var("i", ni);
        let j = b.var("j", nj);
        let src = b.array("src", &[ni, nj]);
        let dst = b.array("dst", &[ni, nj]);
        let ld = b.load(src, &[i, j]);
        b.store(dst, &[i, j], ld);
        let nest = b.build().expect("valid nest");

        let mut s = Schedule::new();
        s.split("i", "io", "ii", ti.min(ni))
            .split("j", "jo", "ji", tj.min(nj))
            .reorder(&["io", "jo", "ii", "ji"])
            .fuse("io", "jo", "f")
            .parallel("f");
        let lowered = s.lower(&nest).expect("legal schedule");
        let mut expect = Buffers::for_nest(&nest, 5);
        let mut got = expect.clone();
        run_reference(&nest, &mut expect).expect("reference run succeeds");
        run(&nest, &lowered, &mut got).expect("schedule run succeeds");
        prop_assert_eq!(expect, got);
    }

    /// Random nests pushed through `Session::run_schedule` with random
    /// directive soups — unknown loop names, zero split factors, absurd
    /// vector lane counts, double fusions. The pipeline must never
    /// panic, must always hand back an executable schedule (degrading as
    /// far as the naive nest if needed), and the result must stay
    /// bit-identical to the reference interpreter.
    #[test]
    fn pipeline_degrades_arbitrary_schedules_to_executable_ones(
        ni in 1usize..8, nj in 1usize..8, nk in 1usize..8,
        ops in proptest::collection::vec((0usize..5, 0usize..4, 0usize..9), 0..6),
    ) {
        let nest = matmul_nest(ni, nj, nk);
        // "z" never names a loop, so many sampled schedules are illegal.
        let names = ["i", "j", "k", "z"];
        let mut s = Schedule::new();
        for &(op, which, amt) in &ops {
            let v = names[which];
            match op {
                0 => { s.split(v, &format!("{v}o"), &format!("{v}i"), amt); }
                1 => { s.reorder(&[names[(which + 1) % 4], v]); }
                2 => { s.vectorize(v, amt); }
                3 => { s.parallel(v); }
                _ => { s.fuse(v, names[(which + 1) % 4], "f"); }
            }
        }
        let config = PipelineConfig { simulate: false, ..PipelineConfig::default() };
        let out = Session::new(&presets::repro::intel_i7_6700(), config)
            .and_then(|session| session.run_schedule(&nest, &s))
            .expect("the ladder always bottoms out at an executable schedule");

        let mut expect = Buffers::for_nest(&nest, 11);
        let mut got = expect.clone();
        run_reference(&nest, &mut expect).expect("reference run succeeds");
        run(&nest, &out.lowered, &mut got).expect("accepted schedule executes");
        prop_assert_eq!(expect, got);
    }

    #[test]
    fn emu_bound_is_safe(
        row_len in 1usize..512,
        stride_lines in 1usize..256,
        threads in 1usize..3,
    ) {
        // Replay the footprint Algorithm 1 admits into a plain set-mapping
        // count and check no set exceeds the effective associativity.
        let arch = presets::intel_i7_5930k();
        let level = arch.l1();
        let dts = 4usize;
        let lc = level.line_size / dts;
        let row_stride = stride_lines * lc + lc; // avoid degenerate 0
        let bound = palo::core::emu(&palo::core::EmuParams {
            level,
            dts,
            row_len,
            row_stride,
            threads,
            addr: 0,
            l2_pref: 0,
            l2_max_pref: 0,
            for_l2: false,
            inflate_lines: 1,
            halve_l2_sets: true,
            cap: 1 << 12,
        });
        prop_assert!(bound >= 1);

        // Count lines per set for `bound` rows of (row_len + one
        // prefetched line), exactly as the algorithm fetches them. Any
        // overflow would mean the bound admitted an interference miss.
        // (bound == 1 is always admitted by construction, so skip it.)
        if bound > 1 {
            let nsets = level.num_sets();
            let eff_ways = (level.associativity / threads).max(1);
            let lines_per_row = (row_len + lc).max(2 * lc).div_ceil(lc);
            let mut counts = vec![0usize; nsets];
            for r in 0..bound {
                let start = (r * row_stride) / lc;
                for i in 0..lines_per_row {
                    let set = (start + i) % nsets;
                    counts[set] += 1;
                    prop_assert!(
                        counts[set] <= eff_ways,
                        "bound {} admitted overflow at set {} (row {})",
                        bound, set, r
                    );
                }
            }
        }
    }

    #[test]
    fn simulator_occupancy_never_exceeds_capacity(
        addrs in proptest::collection::vec(0u64..1_000_000, 1..400),
    ) {
        let arch = presets::intel_i7_6700();
        let mut h = Hierarchy::from_architecture(&arch);
        for &a in &addrs {
            h.access(a * 8, AccessKind::Load);
        }
        let s = h.stats();
        // every access either hits somewhere or goes to memory
        let served: u64 = s.levels.iter().map(|l| l.demand_hits).sum::<u64>()
            + s.mem_demand_fills;
        prop_assert_eq!(served, addrs.len() as u64);
    }

    #[test]
    fn linear_stream_hits_after_first_touch(start in 0u64..4096) {
        let arch = presets::intel_i7_6700();
        let mut h = Hierarchy::from_architecture(&arch);
        let base = start * 64;
        h.access_range(base, 4096, AccessKind::Load);
        h.reset_stats();
        h.access_range(base, 4096, AccessKind::Load);
        // 4 KiB fits comfortably in L1: second pass must be all L1 hits.
        prop_assert_eq!(h.stats().levels[0].demand_misses, 0);
    }
}
