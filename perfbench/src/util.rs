//! Shared plumbing: the seeded generator, order statistics, process
//! memory, scratch directories and the result record.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// SplitMix64: a tiny seeded generator, so the same `--seed` yields the
/// same inputs on every machine and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so workloads
    /// sharing a seed still draw independent inputs.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between order
/// statistics; `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values.iter().filter(|v| **v > 0.0).map(|v| v.ln()).collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A scratch directory inside the working directory, created empty and
/// removed on drop, so a failed run cannot poison the next one.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Result<Self, String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            PathBuf::from(".bench_tmp").join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create scratch dir {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly while
        // another scratch dir is still alive).
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run reports: the correctness ledger and its metrics.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (nests, decisions, requests, gate rows).
    pub attempted: u64,
    /// Attempted operations that erred, were refused, expired or
    /// answered wrongly.
    pub failed: u64,
    /// Why each failure failed (bounded; for the log).
    pub errors: Vec<String>,
    /// Metrics in the order the JSON lists them.
    pub metrics: Vec<Metric>,
    /// Workload-specific figures printed for people, outside the JSON.
    pub notes: Vec<Metric>,
}

impl Outcome {
    pub fn attempt(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.push(Metric { name: name.to_string(), value, unit });
    }

    /// No failed operation, and every metric a number: an infinite or
    /// undefined figure (a latency quantile over failed requests) means
    /// something went wrong even if no attempt was counted as failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The one-line JSON result. A non-finite metric is written as
    /// `null`, never as a number a comparator could read as a gain.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value =
                if m.value.is_finite() { format!("{:?}", m.value) } else { "null".to_string() };
            out.push_str(&format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Flushes all dirty file data to disk, so writeback left behind by one
/// step (a set-up's store writes, a removed scratch directory) does not
/// stall the file operations timed in the next.
pub fn settle_fs() {
    extern "C" {
        fn sync();
    }
    // SAFETY: sync(2) takes no arguments, cannot fail and touches no
    // memory of this process.
    unsafe { sync() }
}

/// Wall times of repeated set-ups; `setup_s` is their median. A
/// workload spreads the repeats over its run, so one slow stretch of a
/// shared host does not set the figure.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Runs one set-up, from a settled file system, and records its
    /// wall time.
    pub fn time<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        settle_fs();
        let t = Instant::now();
        let out = f()?;
        self.0.push(secs(t));
        Ok(out)
    }

    pub fn median(&self) -> f64 {
        median(&self.0)
    }

    pub fn count(&self) -> usize {
        self.0.len()
    }
}
