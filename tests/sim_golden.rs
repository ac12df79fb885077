//! Golden simulated counters.
//!
//! Pins every [`HierarchyStats`] counter and the exact estimate bits of
//! the suite run through [`Session`] (full simulation, run-compressed
//! replay) on the `6700`, `zen2`, `n1` and `nopf` presets. Going through
//! `Session` matters: parallel schedules are simulated on the per-thread
//! hierarchies of `estimate_time_with`, whose levels lose ways to
//! co-resident threads, so the pinned counters cover those geometries as
//! well as the single-thread ones. Any change to the cache simulator
//! that is meant to be a pure speed-up must leave this file untouched.
//!
//! The sizes are reduced from the scaled suite (whose simulation takes
//! minutes even in a release build) so the test stays quick in a debug
//! build. The streaming kernels still overflow the LLC of the `repro`
//! presets and the rank-2k update misses L1 on most lines at this size,
//! so misses, prefetch fills and writebacks all show.
//!
//! To regenerate after an *intentional* simulator change, bless the
//! snapshot and review the diff like source:
//!
//! ```text
//! PALO_BLESS_GOLDEN=1 cargo test --test sim_golden
//! ```

use palo::arch::{presets, Architecture};
use palo::cachesim::HierarchyStats;
use palo::core::{PipelineConfig, Session};
use palo::suite::Benchmark;
use std::fmt::Write as _;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sim_counters.txt");

fn platforms() -> Vec<(&'static str, Architecture)> {
    vec![
        ("6700", presets::repro::intel_i7_6700()),
        ("zen2", presets::repro::amd_zen2()),
        ("n1", presets::repro::arm_neoverse_n1()),
        ("nopf", presets::repro::intel_i7_6700_no_prefetch()),
    ]
}

/// Problem size per kernel, chosen to keep a debug build quick.
fn size(b: Benchmark) -> usize {
    use Benchmark::*;
    match b {
        Convlayer => 12,
        Doitgen => 32,
        Matmul | ThreeMm | Gemm | Trmm => 128,
        Syrk | Syr2k => 96,
        Tpm | Tp | Copy | Mask => 1024,
    }
}

/// Every counter of a hierarchy run, in a fixed order.
fn stats_line(s: &HierarchyStats) -> String {
    let mut out = format!("lines={}", s.total_accesses);
    for (i, l) in s.levels.iter().enumerate() {
        write!(
            out,
            " L{}={}/{}/{}/{}/{}",
            i + 1,
            l.demand_hits,
            l.demand_misses,
            l.prefetch_hits,
            l.prefetch_fills,
            l.dirty_evictions
        )
        .expect("write to String cannot fail");
    }
    write!(
        out,
        " mem={}/{}/{}/{}",
        s.mem_demand_fills, s.mem_prefetch_fills, s.mem_writebacks, s.nt_store_lines
    )
    .expect("write to String cannot fail");
    out
}

/// One line per (nest, platform): rung, parallel loop, estimate bits and
/// every simulated counter.
fn render_counters() -> String {
    let mut out = String::new();
    for (pname, arch) in platforms() {
        let session = Session::new(&arch, PipelineConfig::default())
            .unwrap_or_else(|e| panic!("{pname}: {e}"));
        for b in Benchmark::all() {
            let n = size(b);
            let nests = b.build(n).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            for (stage, nest) in nests.iter().enumerate() {
                let got = session
                    .run(nest)
                    .unwrap_or_else(|e| panic!("{}[{stage}] @ {pname}: {e}", b.name()));
                let est =
                    got.report.estimate.as_ref().unwrap_or_else(|| {
                        panic!("{}[{stage}] @ {pname}: no estimate", b.name())
                    });
                writeln!(
                    out,
                    "{}[{stage}] n={n} @ {pname}: rung={} par={:?} est={:#018x} {}",
                    b.name(),
                    got.report.rung,
                    got.lowered.parallel_loop(),
                    est.ms.to_bits(),
                    stats_line(&est.stats),
                )
                .expect("write to String cannot fail");
            }
        }
    }
    out
}

#[test]
fn simulated_counters_are_bit_identical_to_the_snapshot() {
    let got = render_counters();
    if std::env::var_os("PALO_BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).expect("bless: cannot write snapshot");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("missing snapshot; run with PALO_BLESS_GOLDEN=1 to create it");
    assert_eq!(
        got, want,
        "simulated counters diverged from the golden snapshot; if the \
         change is intentional, re-bless with PALO_BLESS_GOLDEN=1 and \
         review the diff"
    );
}
