//! The per-layer figures of a traced run. Every traced run reports the
//! full set, in one fixed order; a layer a workload never calls reads 0
//! (NOTES.md lists which layers each workload exercises).

use crate::util::{ratio, Outcome};
use palo_core::{CacheStats, PipelineReport, SearchStats};

/// The prefetch strategies the probe isolates, by their CLI spelling.
pub const STRATEGIES: [&str; 5] =
    ["next-line", "adjacent-pair", "stride", "confident-stride", "stream"];

pub const PASSES: [&str; 6] =
    ["classify", "optimize", "degrade", "lower", "validate", "simulate"];

#[derive(Debug, Default)]
pub struct Layers {
    pub walker_ns_per_line: f64,
    pub demand_ns_per_line: f64,
    pub feed_ns_per_line: [f64; 5],
    pub feed_accuracy: [f64; 5],
    pub lines_per_event: f64,
    pub skipped_share: f64,
    pub hier_setup_us: f64,
    /// Total self time per pass (ms), over `items` traced items.
    pub pass_self_ms: [f64; 6],
    pub items: u64,
    pub search: SearchStats,
    /// Batch wall × workers: the worker time available.
    pub batch_wall_s: f64,
    /// Summed item (or service) time.
    pub busy_s: f64,
    pub cache: CacheStats,
    pub disk_get_us: f64,
    pub disk_put_us: f64,
    pub decode_mb_s: f64,
    pub encode_mb_s: f64,
    pub json_parse_us: f64,
    pub json_render_us: f64,
    pub wait_ms_p50: f64,
    pub wait_ms_p99: f64,
    pub service_ms_p50: f64,
    pub shed_share: f64,
    pub refused_share: f64,
    pub generator_lag_ms: f64,
    pub trace_overhead_share: f64,
}

impl Layers {
    /// One run's pass times, busy time and search counters. The pass
    /// timings are the program's own: sequential pass durations with no
    /// children, so each is that pass's self time.
    pub fn absorb_report(&mut self, report: &PipelineReport) {
        for t in &report.timings {
            if let Some(i) = PASSES.iter().position(|p| *p == t.pass) {
                self.pass_self_ms[i] += t.elapsed.as_secs_f64() * 1e3;
            }
        }
        if let Some(s) = &report.search {
            self.search.absorb(s);
        }
        self.busy_s += report.elapsed.as_secs_f64();
        self.items += 1;
    }

    pub fn emit(&self, out: &mut Outcome) {
        out.metric("exec.trace.ns_per_line", self.walker_ns_per_line, "ns");
        out.metric("cachesim.demand.ns_per_line", self.demand_ns_per_line, "ns");
        for (i, s) in STRATEGIES.iter().enumerate() {
            out.metric(
                &format!("cachesim.feed.{s}.ns_per_line"),
                self.feed_ns_per_line[i],
                "ns",
            );
        }
        for (i, s) in STRATEGIES.iter().enumerate() {
            out.metric(&format!("cachesim.feed.{s}.accuracy"), self.feed_accuracy[i], "ratio");
        }
        out.metric("cachesim.replay.lines_per_event", self.lines_per_event, "lines");
        out.metric("cachesim.replay.skipped_share", self.skipped_share, "ratio");
        out.metric("cachesim.setup_us", self.hier_setup_us, "us");
        let items = self.items.max(1) as f64;
        for (i, p) in PASSES.iter().enumerate() {
            out.metric(&format!("core.pass.{p}.self_ms"), self.pass_self_ms[i] / items, "ms");
        }
        let s = &self.search;
        out.metric(
            "core.search.candidates_per_s",
            ratio(s.candidates_evaluated as f64, s.wall.as_secs_f64()),
            "1/s",
        );
        out.metric(
            "core.search.pruned_share",
            ratio(
                s.candidates_pruned as f64,
                (s.candidates_evaluated + s.candidates_pruned) as f64,
            ),
            "ratio",
        );
        out.metric(
            "core.search.memo_hit_ratio",
            ratio(s.memo_hits as f64, (s.memo_hits + s.memo_misses) as f64),
            "ratio",
        );
        out.metric(
            "core.emu.memo_hit_ratio",
            ratio(s.emu_memo_hits as f64, (s.emu_memo_hits + s.emu_memo_misses) as f64),
            "ratio",
        );
        out.metric("core.batch.busy_share", ratio(self.busy_s, self.batch_wall_s), "ratio");
        let m = &self.cache.mem;
        out.metric(
            "core.store.mem_hit_ratio",
            ratio(m.hits as f64, (m.hits + m.misses) as f64),
            "ratio",
        );
        out.metric("core.store.disk.get_us", self.disk_get_us, "us");
        out.metric("core.store.disk.put_us", self.disk_put_us, "us");
        out.metric("core.store.evictions", m.evictions as f64, "count");
        out.metric("codec.frame.decode_mb_s", self.decode_mb_s, "MB/s");
        out.metric("codec.frame.encode_mb_s", self.encode_mb_s, "MB/s");
        out.metric("codec.json.parse_us", self.json_parse_us, "us");
        out.metric("codec.json.render_us", self.json_render_us, "us");
        out.metric("serve.queue.wait_ms_p50", self.wait_ms_p50, "ms");
        out.metric("serve.queue.wait_ms_p99", self.wait_ms_p99, "ms");
        out.metric("serve.service_ms_p50", self.service_ms_p50, "ms");
        out.metric("serve.shed_share", self.shed_share, "ratio");
        out.metric("serve.refused_share", self.refused_share, "ratio");
        out.metric("serve.generator_lag_ms", self.generator_lag_ms, "ms");
        out.metric("trace_overhead_share", self.trace_overhead_share, "ratio");
    }

    /// The metric names `emit` reports, in order (for BENCHMARK.json and
    /// the name tests).
    pub fn names() -> Vec<(String, &'static str)> {
        let mut out = Outcome::default();
        Layers::default().emit(&mut out);
        out.metrics.into_iter().map(|m| (m.name, m.unit)).collect()
    }
}
