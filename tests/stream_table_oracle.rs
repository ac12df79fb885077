//! Oracle for the stride unit's indexed stream matching.
//!
//! [`StridePrefetcher`] finds the stream an access extends through two
//! hashed indices (by predicted next line, by the 64-line zone of the
//! last line) and leaves the stream the run engine feeds stale in them
//! until the next full observe. The run-compression differential cannot
//! catch a matcher bug, because both of its engines share that observe.
//! This test keeps the linear table scan the indices replaced as a
//! reference ([`LinearTable`]) and drives both through seeded
//! adversarial sequences — more live streams than the table holds, ties
//! in window distance, several streams predicting one line, strides
//! beyond the window, negative strides, lines on zone boundaries and
//! across the top of the address space, `reset`, and the engine's O(1)
//! and bulk silent feeds — demanding after every step the same matched
//! index, the same emitted lines and the same table.
//!
//! `oracle_long_sweep` is the long seed sweep (run with `--ignored`).

use palo::cachesim::{Prefetcher, Stream, StridePrefetcher};

/// The stream table as it was before indexing: every observe scans all
/// entries. Kept verbatim in its matching and transition rules.
#[derive(Debug, Clone)]
struct LinearTable {
    streams: Vec<Stream>,
    degree: usize,
    max_distance: u64,
    clock: u64,
    min_confidence: u8,
    unit_only: bool,
}

impl LinearTable {
    const CAPACITY: usize = 32;
    const MATCH_WINDOW: i64 = 64;

    fn new(degree: usize, max_distance: u64, min_confidence: u8, unit_only: bool) -> Self {
        LinearTable {
            streams: Vec::new(),
            degree,
            max_distance,
            clock: 0,
            min_confidence,
            unit_only,
        }
    }

    fn observe_into(&mut self, line: u64, out: &mut Vec<u64>) -> Option<usize> {
        self.clock += 1;
        if self.degree == 0 {
            return None;
        }
        let mut best: Option<usize> = None;
        let mut best_score = i64::MAX;
        for (i, s) in self.streams.iter().enumerate() {
            let predicted = s.last.wrapping_add(s.stride as u64);
            if predicted == line && s.stride != 0 {
                best = Some(i);
                break;
            }
            let d = (line as i64).wrapping_sub(s.last as i64);
            if d != 0 && d.abs() <= Self::MATCH_WINDOW && d.abs() < best_score {
                best = Some(i);
                best_score = d.abs();
            }
        }
        match best {
            Some(i) => {
                let delta = (line as i64).wrapping_sub(self.streams[i].last as i64);
                let s = &mut self.streams[i];
                if delta == 0 {
                    s.stamp = self.clock;
                    return Some(i);
                }
                if delta == s.stride {
                    s.confidence = s.confidence.saturating_add(1);
                } else {
                    s.stride = delta;
                    s.confidence = 1;
                    s.frontier = line;
                }
                s.last = line;
                s.stamp = self.clock;
                let issues = !self.unit_only || s.stride.unsigned_abs() == 1;
                if s.confidence >= self.min_confidence && issues {
                    let stride = s.stride;
                    if (stride > 0 && s.frontier < line) || (stride < 0 && s.frontier > line) {
                        s.frontier = line;
                    }
                    let limit = self.max_distance.saturating_mul(stride.unsigned_abs().max(1));
                    for _ in 0..self.degree {
                        let next = (s.frontier as i64).wrapping_add(stride) as u64;
                        let ahead = (next as i64 - line as i64).unsigned_abs();
                        if ahead > limit {
                            break;
                        }
                        s.frontier = next;
                        out.push(next);
                    }
                }
                Some(i)
            }
            None => {
                if self.streams.len() == Self::CAPACITY {
                    let oldest = self
                        .streams
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, s)| s.stamp)
                        .map(|(i, _)| i)
                        .expect("capacity > 0");
                    self.streams.swap_remove(oldest);
                }
                self.streams.push(Stream {
                    last: line,
                    stride: 0,
                    confidence: 0,
                    frontier: line,
                    stamp: self.clock,
                });
                None
            }
        }
    }

    /// Whether a stream below `i` predicts `line` exactly.
    fn preempts(&self, i: usize, line: u64) -> bool {
        self.streams[..i]
            .iter()
            .any(|s| s.stride != 0 && s.last.wrapping_add(s.stride as u64) == line)
    }

    fn reset(&mut self) {
        self.streams.clear();
    }
}

/// splitmix64: a seeded, dependency-free generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }

    /// A signed value in `[-m, m]`.
    fn around(&mut self, m: u64) -> i64 {
        self.below(2 * m + 1) as i64 - m as i64
    }
}

/// Strides at, inside and beyond the match window, both directions.
const STRIDES: [i64; 18] =
    [1, -1, 2, -2, 3, -5, 7, 16, -32, 63, -63, 64, -64, 65, -65, 100, -129, 1000];

/// Region bases: line 0, an ordinary address range, a zone-aligned one,
/// and just below the top of the address space, so walkers straddle the
/// wrap (and zone numbers wrap with it).
const REGIONS: [u64; 4] = [0, 1 << 24, 5 << 30, u64::MAX - (1 << 13)];

/// The unit configurations of the stride family (paper unit, the L2
/// next-line placement, confident-stride, stream, a disabled table and a
/// deep one).
fn units() -> Vec<(&'static str, StridePrefetcher, LinearTable)> {
    vec![
        ("stride", StridePrefetcher::new(2, 20), LinearTable::new(2, 20, 2, false)),
        ("l2-next-line", StridePrefetcher::new(1, 1), LinearTable::new(1, 1, 2, false)),
        (
            "confident",
            StridePrefetcher::with_confidence(2, 12, 3),
            LinearTable::new(2, 12, 3, false),
        ),
        ("stream", StridePrefetcher::stream(4, 16, 2), LinearTable::new(4, 16, 2, true)),
        ("disabled", StridePrefetcher::new(0, 20), LinearTable::new(0, 20, 2, false)),
        ("deep", StridePrefetcher::new(8, 64), LinearTable::new(8, 64, 2, false)),
    ]
}

/// One synthetic access stream: its next line and stride.
#[derive(Clone, Copy)]
struct Walker {
    next: u64,
    stride: i64,
}

/// Drives `fast` and `slow` through `steps` seeded actions, checking
/// them against each other after every one.
fn drive(
    seed: u64,
    steps: usize,
    name: &str,
    fast: &mut StridePrefetcher,
    slow: &mut LinearTable,
) {
    let mut rng = Rng(seed);
    // Up to 48 walkers: past the table's 32 entries, so LRU eviction
    // and `swap_remove` renumber live streams.
    let nwalkers = 1 + rng.below(48) as usize;
    let region = rng.pick(&REGIONS);
    let mut walkers: Vec<Walker> = (0..nwalkers)
        .map(|_| Walker {
            next: region.wrapping_add(rng.below(1 << 14)),
            stride: rng.pick(&STRIDES),
        })
        .collect();
    let (mut out_fast, mut out_slow) = (Vec::new(), Vec::new());
    for step in 0..steps {
        let at = || format!("{name} seed {seed} step {step}");
        out_fast.clear();
        out_slow.clear();
        let roll = rng.below(100);
        // The line the step observes, or `None` when the step checks
        // something else.
        let line = match roll {
            // Advance one walker.
            0..=49 => {
                let w = &mut walkers[rng.below(nwalkers as u64) as usize];
                let line = w.next;
                w.next = w.next.wrapping_add_signed(w.stride);
                Some(line)
            }
            // Jitter around a walker, across zone boundaries.
            50..=59 => {
                let w = walkers[rng.below(nwalkers as u64) as usize];
                Some(w.next.wrapping_add_signed(rng.around(70)))
            }
            // A tie: the midpoint of two streams at even distance.
            60..=64 => {
                let t = fast.streams();
                if t.len() < 2 {
                    None
                } else {
                    let a = t[rng.below(t.len() as u64) as usize].last;
                    let b = t[rng.below(t.len() as u64) as usize].last;
                    let d = b.wrapping_sub(a) as i64;
                    (d % 2 == 0 && d.unsigned_abs() <= 128)
                        .then(|| a.wrapping_add_signed(d / 2))
                }
            }
            // Convergence: retrain a stream onto another stream's
            // predicted line, then observe that line.
            65..=69 => {
                let t = fast.streams();
                let target = t
                    .get(rng.below(t.len().max(1) as u64) as usize)
                    .filter(|s| s.stride != 0)
                    .map(|s| s.last.wrapping_add_signed(s.stride));
                if let Some(target) = target {
                    let st = match rng.around(63) {
                        0 => 64,
                        st => st,
                    };
                    for l in
                        [target.wrapping_add_signed(-2 * st), target.wrapping_add_signed(-st)]
                    {
                        let (a, b) = (
                            Prefetcher::observe_into(fast, l, &mut out_fast),
                            slow.observe_into(l, &mut out_slow),
                        );
                        assert_eq!(a, b, "{}: converge {l}", at());
                    }
                }
                target
            }
            // The run engine's lock: feed a stream its predicted line on
            // the O(1) path when nothing below it would capture it.
            70..=84 => {
                let t = fast.streams();
                if let Some(f) = (!t.is_empty()).then(|| rng.below(t.len() as u64) as usize) {
                    let s = t[f];
                    let pred = s.last.wrapping_add(s.stride as u64);
                    if s.stride != 0 && !Prefetcher::disabled(fast) {
                        assert!(Prefetcher::expects(fast, f, pred), "{}", at());
                        let pre = Prefetcher::preempts(fast, f, pred);
                        assert_eq!(pre, slow.preempts(f, pred), "{}: preempts({f})", at());
                        if !pre {
                            Prefetcher::observe_expected(fast, f, pred, &mut out_fast);
                            let got = slow.observe_into(pred, &mut out_slow);
                            assert_eq!(got, Some(f), "{}: lock on {f}", at());
                            assert_eq!(out_fast, out_slow, "{}: expected feed", at());
                            assert_eq!(fast.streams(), &slow.streams[..], "{}", at());
                            continue;
                        }
                    }
                }
                None
            }
            // Bulk silent feeds: the engine defers a silent stream's
            // feeds and applies them in one step.
            85..=91 => {
                let t = fast.streams();
                if let Some(f) = (!t.is_empty()).then(|| rng.below(t.len() as u64) as usize) {
                    let s = t[f];
                    if s.stride != 0
                        && !Prefetcher::disabled(fast)
                        && Prefetcher::silent(fast, f)
                    {
                        let first = s.last.wrapping_add(s.stride as u64);
                        let mut n = 0u64;
                        let mut l = first;
                        for _ in 0..1 + rng.below(300) {
                            if Prefetcher::preempts(fast, f, l) {
                                assert!(slow.preempts(f, l), "{}: silent preempts", at());
                                break;
                            }
                            assert!(!slow.preempts(f, l), "{}: silent preempts", at());
                            assert_eq!(
                                slow.observe_into(l, &mut out_slow),
                                Some(f),
                                "{}",
                                at()
                            );
                            n += 1;
                            l = l.wrapping_add_signed(s.stride);
                        }
                        assert!(out_slow.is_empty(), "{}: a silent stream issued", at());
                        if n > 0 {
                            Prefetcher::feed_silent(fast, f, first, s.stride, n);
                        }
                        assert_eq!(fast.streams(), &slow.streams[..], "{}: bulk {n}", at());
                        continue;
                    }
                }
                None
            }
            // Lines on both sides of the address-space wrap, where
            // window distances and zone numbers wrap.
            92..=93 => Some(rng.around(100) as u64),
            // Random far lines: allocations and evictions.
            94..=97 => Some(rng.pick(&REGIONS).wrapping_add(rng.below(1 << 20))),
            _ => {
                Prefetcher::reset(fast);
                slow.reset();
                None
            }
        };
        if let Some(line) = line {
            let a = Prefetcher::observe_into(fast, line, &mut out_fast);
            let b = slow.observe_into(line, &mut out_slow);
            assert_eq!(a, b, "{}: matched stream for line {line}", at());
            assert_eq!(out_fast, out_slow, "{}: emitted lines for {line}", at());
        }
        assert_eq!(fast.streams(), &slow.streams[..], "{}: tables", at());
        // Spot-check the preemption query on a random stream and line.
        let t = fast.streams();
        if !t.is_empty() {
            let f = rng.below(t.len() as u64) as usize;
            let probe = t[rng.below(t.len() as u64) as usize];
            let line = probe.last.wrapping_add(probe.stride as u64);
            assert_eq!(
                Prefetcher::preempts(fast, f, line),
                slow.preempts(f, line),
                "{}: preempts({f}, {line})",
                at()
            );
        }
    }
}

fn sweep(seeds: std::ops::Range<u64>, steps: usize) {
    for seed in seeds {
        for (name, mut fast, mut slow) in units() {
            drive(seed, steps, name, &mut fast, &mut slow);
        }
    }
}

#[test]
fn indexed_table_matches_the_linear_scan() {
    sweep(0..40, 2000);
}

#[test]
fn more_streams_than_entries_evict_and_renumber_alike() {
    // 40 interleaved unit-stride streams 4096 lines apart: every observe
    // past the 32nd allocates and evicts, and the survivors renumber.
    for (name, mut fast, mut slow) in units() {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for round in 0..6u64 {
            for s in 0..40u64 {
                let line = s * 4096 + round;
                assert_eq!(
                    Prefetcher::observe_into(&mut fast, line, &mut a),
                    slow.observe_into(line, &mut b),
                    "{name} round {round} stream {s}"
                );
                assert_eq!(a, b, "{name}");
                assert_eq!(fast.streams(), &slow.streams[..], "{name}");
            }
        }
    }
}

#[test]
#[ignore = "long seed sweep; run with --ignored (CI release step)"]
fn oracle_long_sweep() {
    sweep(0..2000, 4000);
}
