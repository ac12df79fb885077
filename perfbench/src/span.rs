//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer
//! (a session open, a `BatchDriver::run`, a submitted or served
//! request). Spans carry a name, start, end, parent and the request id
//! shared by every span of one item; they stay in memory until the run
//! ends and are then written out as NDJSON.
//! Timed runs never construct a tracer.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub req: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub self_ms: f64,
    pub total_ms: f64,
    pub count: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    next_req: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            next_req: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// Runs `f` inside a span when there is a tracer, plainly (with parent
/// id 0) when there is none, so timed and traced runs share one path.
pub fn maybe_span<R>(
    tracer: Option<&Tracer>,
    name: &str,
    parent: u64,
    req: u64,
    f: impl FnOnce(u64) -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, parent, req, f),
        None => f(0),
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves a span id (for a parent whose children start first).
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// A fresh request id, shared by every span of one item.
    pub fn request(&self) -> u64 {
        self.next_req.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span measured by the caller under a reserved `id`.
    pub fn record(
        &self,
        id: u64,
        name: &str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            req,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span buffer poisoned by a panicking thread").push(span);
    }

    /// Runs `f` inside a span; `f` receives the span's id for children.
    pub fn span<R>(&self, name: &str, parent: u64, req: u64, f: impl FnOnce(u64) -> R) -> R {
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        self.record(id, name, parent, req, start, Instant::now());
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned by a panicking thread").clone()
    }

    /// Per span name: summed self and total time. Self time is a span's
    /// duration minus the part of it its children cover.
    pub fn self_times(&self) -> BTreeMap<String, SpanTotals> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for s in &spans {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let covered =
                children.get(&s.id).map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let e = out.entry(s.name.clone()).or_default();
            e.self_ms += total.saturating_sub(covered) as f64 / 1e6;
            e.total_ms += total as f64 / 1e6;
            e.count += 1;
        }
        out
    }

    /// Writes every span as one NDJSON line.
    pub fn write_ndjson(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| a < b).collect();
    v.sort_unstable();
    let (mut total, mut cur) = (0, None::<(u64, u64)>);
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children_is_counted_once() {
        assert_eq!(covered_ns(&[(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered_ns(&[(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }
}
