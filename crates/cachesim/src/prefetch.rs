//! Constant-stride stream prefetcher (the L2 unit of the paper).

/// Streams a table tracks at once; table indices are bits of a `u32`.
const CAPACITY: usize = 32;
/// Log2 of the match window: an access is matched to the nearest stream
/// whose last line lies within `±(1 << ZONE_BITS)` lines, and the `last`
/// index files streams by zones of that many lines.
const ZONE_BITS: u32 = 6;
const MATCH_WINDOW: u64 = 1 << ZONE_BITS;
/// Zone numbers wrap with the line address space.
const ZONE_MASK: u64 = u64::MAX >> ZONE_BITS;
/// Log2 of the bucket count of each index.
const BUCKET_BITS: u32 = 7;
/// The bucket of a stream without a prediction (stride 0).
const NO_BUCKET: u8 = u8::MAX;

/// The index bucket of a predicted line or a zone (Fibonacci hashing).
#[inline]
fn bucket(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - BUCKET_BITS)) as usize
}

/// One tracked access stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stream {
    /// Last demand line observed for this stream.
    pub last: u64,
    /// Detected stride in lines (may be negative).
    pub stride: i64,
    /// Consecutive confirmations of `stride`.
    pub confidence: u8,
    /// Furthest line already prefetched for this stream.
    pub frontier: u64,
    /// LRU stamp.
    pub stamp: u64,
}

impl Stream {
    /// The line this stream predicts next (`None` until it has a stride).
    #[inline]
    fn predicts(&self) -> Option<u64> {
        (self.stride != 0).then(|| self.last.wrapping_add(self.stride as u64))
    }
}

/// The stream table's two lookup indices, as bitmasks over table
/// indices per hash bucket: by predicted next line, and by the zone of
/// `last`. A bucket may hold streams with other keys (hash collisions,
/// and the one stale stream's old keys), so every candidate is verified
/// against the table; what the index guarantees is that, apart from the
/// stale stream, no stream with the key is missing from its bucket.
#[derive(Debug, Clone)]
struct StreamIndex {
    by_pred: [u32; 1 << BUCKET_BITS],
    by_zone: [u32; 1 << BUCKET_BITS],
    /// The `(by_pred, by_zone)` buckets each stream is filed under
    /// (`NO_BUCKET` for no prediction); read only for filed streams.
    filed: [(u8, u8); CAPACITY],
}

impl StreamIndex {
    /// An empty index, all zeros (building a hierarchy stays cheap).
    fn new() -> Self {
        StreamIndex {
            by_pred: [0; 1 << BUCKET_BITS],
            by_zone: [0; 1 << BUCKET_BITS],
            filed: [(0, 0); CAPACITY],
        }
    }

    /// Files stream `i` under its current keys.
    fn file(&mut self, i: usize, s: &Stream) {
        let pb = s.predicts().map_or(NO_BUCKET, |p| bucket(p) as u8);
        let zb = bucket(s.last >> ZONE_BITS) as u8;
        if pb != NO_BUCKET {
            self.by_pred[pb as usize] |= 1 << i;
        }
        self.by_zone[zb as usize] |= 1 << i;
        self.filed[i] = (pb, zb);
    }

    /// Removes stream `i` from the buckets it is filed under.
    fn unfile(&mut self, i: usize) {
        let (pb, zb) = self.filed[i];
        if pb != NO_BUCKET {
            self.by_pred[pb as usize] &= !(1 << i);
        }
        self.by_zone[zb as usize] &= !(1 << i);
    }

    /// Removes streams `0..n` (the whole table) from the index.
    fn unfile_all(&mut self, n: usize) {
        for i in 0..n {
            self.unfile(i);
        }
    }

    /// Re-files stream `from` as stream `to` (a `swap_remove` moved it).
    fn renumber(&mut self, from: usize, to: usize) {
        let (pb, zb) = self.filed[from];
        self.unfile(from);
        if pb != NO_BUCKET {
            self.by_pred[pb as usize] |= 1 << to;
        }
        self.by_zone[zb as usize] |= 1 << to;
        self.filed[to] = (pb, zb);
    }

    /// Streams that may predict `line`.
    #[inline]
    fn predicting(&self, line: u64) -> u32 {
        self.by_pred[bucket(line)]
    }

    /// Streams whose `last` may lie within the match window of `line`:
    /// those filed under `line`'s zone or either neighbour.
    #[inline]
    fn near(&self, line: u64) -> u32 {
        let z = line >> ZONE_BITS;
        self.by_zone[bucket(z.wrapping_sub(1) & ZONE_MASK)]
            | self.by_zone[bucket(z)]
            | self.by_zone[bucket(z.wrapping_add(1) & ZONE_MASK)]
    }
}

/// Table indices set in `mask`, ascending.
#[inline]
fn indices(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// A stream-table constant-stride prefetcher.
///
/// Mirrors the paper's model of the Intel L2 prefetcher: it detects
/// constant strides (unit or not — "modern hardware prefetching units are
/// also capable of detecting non-unit strides"), issues `degree`
/// (`L2pref`) prefetches per triggering access, and never runs more than
/// `max_distance` (`L2maxpref`) lines ahead of the demand stream.
///
/// Two knobs generalise the table into the rest of the stride family:
/// `min_confidence` (the confirmations a stream needs before issuing —
/// the paper's unit is hard-wired to 2) parameterises the
/// *confident-stride* strategy, and `unit_only` restricts issuing to
/// unit-stride streams, which is the *stream-with-confirmation* engine
/// styled after AMD L2 units. All knob settings share the identical
/// table mechanics, so the run engine's steady-state contract holds for
/// every member of the family.
///
/// An access is matched to the lowest-indexed stream that predicts it
/// exactly, else to the nearest stream within the match window (ties to
/// the lowest index). Two hashed indices answer both questions by
/// visiting a few candidates instead of the whole table (DESIGN.md §13).
/// The O(1) feed paths leave the fed stream's entries stale; the next
/// full observe re-files it.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    streams: Vec<Stream>,
    index: StreamIndex,
    /// Bit of the one stream whose index entries may be out of date (the
    /// last one observed or fed), or 0.
    stale: u32,
    degree: usize,
    max_distance: u64,
    clock: u64,
    /// Confirmations a stream needs before any prefetch issues.
    min_confidence: u8,
    /// When set, only unit-stride (±1 line) streams ever issue.
    unit_only: bool,
}

impl StridePrefetcher {
    /// Creates a prefetcher with the given degree (`L2pref`) and maximum
    /// run-ahead distance in lines (`L2maxpref`).
    pub fn new(degree: usize, max_distance: usize) -> Self {
        StridePrefetcher {
            streams: Vec::new(),
            index: StreamIndex::new(),
            stale: 0,
            degree,
            max_distance: max_distance as u64,
            clock: 0,
            min_confidence: 2,
            unit_only: false,
        }
    }

    /// [`StridePrefetcher::new`] with an explicit confirmation threshold
    /// (the `ConfidentStride` strategy; `new` fixes it at 2).
    pub fn with_confidence(degree: usize, max_distance: usize, min_confidence: u8) -> Self {
        let mut p = Self::new(degree, max_distance);
        p.min_confidence = min_confidence;
        p
    }

    /// A stream-with-confirmation engine (the `Stream` strategy): only
    /// unit-stride streams issue, after `confirm` confirmations.
    pub fn stream(degree: usize, max_distance: usize, confirm: u8) -> Self {
        let mut p = Self::with_confidence(degree, max_distance, confirm);
        p.unit_only = true;
        p
    }

    /// Whether a stream with this stride may issue under the unit-stride
    /// restriction.
    #[inline]
    fn issues_for(&self, stride: i64) -> bool {
        !self.unit_only || stride.unsigned_abs() == 1
    }

    /// Observes a demand access to `line` and returns the lines to
    /// prefetch (empty until a stream's stride is confirmed).
    pub fn observe(&mut self, line: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.observe_into(line, &mut out);
        out
    }

    /// Re-files the stale stream, if any, under its current keys.
    #[inline]
    fn refresh(&mut self) {
        if self.stale != 0 {
            let i = self.stale.trailing_zeros() as usize;
            self.index.unfile(i);
            self.index.file(i, &self.streams[i]);
            self.stale = 0;
        }
    }

    /// Marks stream `i` as the one about to change without re-filing
    /// (refreshing a different stale stream first).
    #[inline]
    fn touch(&mut self, i: usize) {
        if self.stale != 1 << i {
            self.refresh();
            self.stale = 1 << i;
        }
    }

    /// The stream `line` extends: the lowest-indexed exact prediction,
    /// else the nearest `last` within the match window (ties to the
    /// lowest index). Requires a fresh index.
    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        let exact = indices(self.index.predicting(line))
            .find(|&i| self.streams[i].predicts() == Some(line));
        if exact.is_some() {
            return exact;
        }
        let mut best: Option<usize> = None;
        let mut best_dist = u64::MAX;
        for i in indices(self.index.near(line)) {
            let d = line.wrapping_sub(self.streams[i].last) as i64;
            let dist = d.unsigned_abs();
            if d != 0 && dist <= MATCH_WINDOW && dist < best_dist {
                best = Some(i);
                best_dist = dist;
            }
        }
        best
    }

    /// Allocation-free [`StridePrefetcher::observe`]: appends prefetch
    /// lines to `out` and returns the index of the stream the access was
    /// matched to (`None` when a new stream was allocated or prefetching
    /// is disabled).
    pub(crate) fn observe_into(&mut self, line: u64, out: &mut Vec<u64>) -> Option<usize> {
        self.clock += 1;
        if self.degree == 0 {
            return None;
        }
        self.refresh();
        match self.find(line) {
            Some(i) => {
                // Nonzero: neither kind of match accepts `line == last`.
                let delta = (line as i64).wrapping_sub(self.streams[i].last as i64);
                let s = &mut self.streams[i];
                if delta == s.stride {
                    s.confidence = s.confidence.saturating_add(1);
                } else {
                    s.stride = delta;
                    s.confidence = 1;
                    s.frontier = line;
                }
                s.last = line;
                s.stamp = self.clock;
                let (confidence, stride) = (s.confidence, s.stride);
                self.stale = 1 << i;
                if confidence >= self.min_confidence && self.issues_for(stride) {
                    let s = &mut self.streams[i];
                    Self::run_ahead(s, line, self.degree, self.max_distance, out);
                }
                Some(i)
            }
            None => {
                if self.streams.len() == CAPACITY {
                    let oldest = self
                        .streams
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, s)| s.stamp)
                        .map(|(i, _)| i)
                        .expect("capacity > 0");
                    self.streams.swap_remove(oldest);
                    self.index.unfile(oldest);
                    if oldest != self.streams.len() {
                        self.index.renumber(self.streams.len(), oldest);
                    }
                }
                let s = Stream {
                    last: line,
                    stride: 0,
                    confidence: 0,
                    frontier: line,
                    stamp: self.clock,
                };
                self.index.file(self.streams.len(), &s);
                self.streams.push(s);
                None
            }
        }
    }

    /// Advances `s`'s frontier up to `degree` prefetches ahead of `line`,
    /// bounded by the run-ahead distance. Exactly the confirmed-stride
    /// tail of [`StridePrefetcher::observe_into`], shared with the
    /// expected-stream fast path.
    fn run_ahead(
        s: &mut Stream,
        line: u64,
        degree: usize,
        max_distance: u64,
        out: &mut Vec<u64>,
    ) {
        let stride = s.stride;
        // The frontier never lags the demand stream.
        if (stride > 0 && s.frontier < line) || (stride < 0 && s.frontier > line) {
            s.frontier = line;
        }
        let limit = max_distance.saturating_mul(stride.unsigned_abs().max(1));
        for _ in 0..degree {
            let next = (s.frontier as i64).wrapping_add(stride) as u64;
            let ahead = (next as i64 - line as i64).unsigned_abs();
            if ahead > limit {
                break;
            }
            s.frontier = next;
            out.push(next);
        }
    }

    /// Whether stream `i` exists and predicts exactly `line` with a
    /// nonzero stride — the precondition for
    /// [`StridePrefetcher::observe_expected`].
    pub(crate) fn expects(&self, i: usize, line: u64) -> bool {
        self.streams.get(i).is_some_and(|s| s.predicts() == Some(line))
    }

    /// Whether a stream with index below `i` predicts exactly `line`: the
    /// table match would then pick it over `i` (an exact match beats
    /// every window match, and the lowest index wins among exact ones).
    pub(crate) fn preempts(&self, i: usize, line: u64) -> bool {
        let below = (1u32 << i) - 1;
        // The stale stream is filed under its old keys: always verify it.
        indices((self.index.predicting(line) | self.stale) & below)
            .any(|j| self.streams[j].predicts() == Some(line))
    }

    /// Fast-path observe for a line already known (via
    /// [`StridePrefetcher::expects`]) to be the exact predicted successor
    /// of stream `i`: skips the table match, performing the identical
    /// state transition the matching observe would.
    pub(crate) fn observe_expected(&mut self, i: usize, line: u64, out: &mut Vec<u64>) {
        self.clock += 1;
        self.touch(i);
        let s = &mut self.streams[i];
        debug_assert!(s.predicts() == Some(line));
        s.confidence = s.confidence.saturating_add(1);
        s.last = line;
        s.stamp = self.clock;
        let (confidence, stride) = (s.confidence, s.stride);
        if confidence >= self.min_confidence && self.issues_for(stride) {
            let s = &mut self.streams[i];
            Self::run_ahead(s, line, self.degree, self.max_distance, out);
        }
    }

    /// Ramp-regime view of stream `i` for the run engine's fast feed
    /// paths: `(r, limit, degree)` where `r` is the signed frontier
    /// run-ahead `(frontier - last) * signum(stride)` in lines, `limit`
    /// the run-ahead cap `max_distance * |stride|`, and `degree` the
    /// per-feed push budget. `limit` and `degree` are invariant along a
    /// locked stretch (the stride never changes under expected feeds).
    pub(crate) fn ramp_state(&self, i: usize) -> (i64, u64, u32) {
        let s = &self.streams[i];
        let st = s.stride.unsigned_abs();
        let limit = self.max_distance.saturating_mul(st);
        let r = if s.stride >= 0 {
            s.frontier.wrapping_sub(s.last) as i64
        } else {
            s.last.wrapping_sub(s.frontier) as i64
        };
        (r, limit, self.degree as u32)
    }

    /// [`StridePrefetcher::observe_expected`] specialised to a feed whose
    /// pushes are all pre-denied by the caller's throttle arithmetic and
    /// whose ramp regime guarantees exactly `degree` pushes (no frontier
    /// lag, no limit break): the identical stream transition with the
    /// emitted lines dropped unmaterialised.
    pub(crate) fn feed_denied(&mut self, i: usize, line: u64) {
        self.clock += 1;
        self.touch(i);
        let advance = (self.degree as i64).wrapping_mul(self.streams[i].stride);
        let s = &mut self.streams[i];
        debug_assert!(s.predicts() == Some(line));
        // The regime implies a prior confirming feed, so the push budget
        // is live (confidence reaches >= 2 with this feed).
        debug_assert!(s.confidence >= 1);
        s.confidence = s.confidence.saturating_add(1);
        s.last = line;
        s.stamp = self.clock;
        s.frontier = (s.frontier as i64).wrapping_add(advance) as u64;
    }

    /// [`StridePrefetcher::observe_expected`] specialised to a parked
    /// stream (`parked(i)` true, `line` the exact predicted successor):
    /// the identical transition, returning the single line the full path
    /// would have emitted.
    pub(crate) fn feed_parked(&mut self, i: usize, line: u64) -> u64 {
        self.clock += 1;
        self.touch(i);
        let s = &mut self.streams[i];
        debug_assert!(s.predicts() == Some(line));
        debug_assert!(s.confidence >= 1);
        s.confidence = s.confidence.saturating_add(1);
        s.last = line;
        s.stamp = self.clock;
        let next = (s.frontier as i64).wrapping_add(s.stride) as u64;
        s.frontier = next;
        next
    }

    /// Whether stream `i` can never issue: the unit-stride restriction
    /// silences every other stride, and expected feeds keep the stride.
    pub(crate) fn silent(&self, i: usize) -> bool {
        !self.issues_for(self.streams[i].stride)
    }

    /// `n` expected feeds of silent stream `i` in one step: the lines
    /// `first`, `first + stride`, … that [`StridePrefetcher::expects`]
    /// would accept one after the other. Each would only advance the
    /// clock, bump the confidence and move `last` and the stamp.
    pub(crate) fn feed_silent(&mut self, i: usize, first: u64, n: u64) {
        self.clock += n;
        self.touch(i);
        let s = &mut self.streams[i];
        debug_assert!(n > 0 && s.predicts() == Some(first));
        s.confidence =
            u8::try_from(u64::from(s.confidence).saturating_add(n)).unwrap_or(u8::MAX);
        s.last = first.wrapping_add((s.stride as u64).wrapping_mul(n - 1));
        s.stamp = self.clock;
    }

    /// Whether the table is inert (degree zero): observes then only
    /// advance the clock.
    pub(crate) fn disabled(&self) -> bool {
        self.degree == 0
    }

    /// Advances the observe clock by `n` without touching the table —
    /// mirrors `n` degree-zero observes.
    pub(crate) fn tick(&mut self, n: u64) {
        self.clock += n;
    }

    /// The stream table in index order (creation order up to
    /// `swap_remove` permutations).
    pub fn streams(&self) -> &[Stream] {
        &self.streams
    }

    /// Drops all tracked streams.
    pub fn reset(&mut self) {
        self.index.unfile_all(self.streams.len());
        self.streams.clear();
        self.stale = 0;
    }
}

impl crate::strategy::Prefetcher for StridePrefetcher {
    fn box_clone(&self) -> Box<dyn crate::strategy::Prefetcher> {
        Box::new(self.clone())
    }

    fn observe_into(&mut self, line: u64, out: &mut Vec<u64>) -> Option<usize> {
        StridePrefetcher::observe_into(self, line, out)
    }

    fn expects(&self, i: usize, line: u64) -> bool {
        StridePrefetcher::expects(self, i, line)
    }

    fn preempts(&self, i: usize, line: u64) -> bool {
        StridePrefetcher::preempts(self, i, line)
    }

    fn observe_expected(&mut self, i: usize, line: u64, out: &mut Vec<u64>) {
        StridePrefetcher::observe_expected(self, i, line, out);
    }

    fn ramp_state(&self, i: usize) -> Option<(i64, u64, u32)> {
        Some(StridePrefetcher::ramp_state(self, i))
    }

    fn feed_denied(&mut self, i: usize, line: u64) {
        StridePrefetcher::feed_denied(self, i, line);
    }

    fn feed_parked(&mut self, i: usize, line: u64) -> u64 {
        StridePrefetcher::feed_parked(self, i, line)
    }

    fn silent(&self, i: usize) -> bool {
        StridePrefetcher::silent(self, i)
    }

    fn feed_silent(&mut self, i: usize, first: u64, _stride: i64, n: u64) {
        StridePrefetcher::feed_silent(self, i, first, n);
    }

    fn disabled(&self) -> bool {
        StridePrefetcher::disabled(self)
    }

    fn tick(&mut self, n: u64) {
        StridePrefetcher::tick(self, n);
    }

    fn reset(&mut self) {
        StridePrefetcher::reset(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_stride_detected_after_two_confirmations() {
        let mut p = StridePrefetcher::new(2, 20);
        assert!(p.observe(100).is_empty()); // new stream
        assert!(p.observe(101).is_empty()); // confidence 1
        let pf = p.observe(102); // confidence 2 -> prefetch
        assert_eq!(pf, vec![103, 104]);
    }

    #[test]
    fn non_unit_stride_detected() {
        let mut p = StridePrefetcher::new(1, 20);
        p.observe(0);
        p.observe(8);
        let pf = p.observe(16);
        assert_eq!(pf, vec![24]);
    }

    #[test]
    fn negative_stride_detected() {
        let mut p = StridePrefetcher::new(1, 20);
        p.observe(1000);
        p.observe(996);
        let pf = p.observe(992);
        assert_eq!(pf, vec![988]);
    }

    #[test]
    fn distance_limit_caps_runahead() {
        let mut p = StridePrefetcher::new(4, 3);
        p.observe(0);
        p.observe(1);
        // Frontier can reach at most line 2 + 3 = 5.
        let pf = p.observe(2);
        assert_eq!(pf, vec![3, 4, 5]);
        // No further prefetch until demand advances.
        let pf = p.observe(3);
        assert_eq!(pf, vec![6]);
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut p = StridePrefetcher::new(2, 20);
        p.observe(0);
        p.observe(1);
        assert!(!p.observe(2).is_empty());
        // Break the stride: jump by 5 (within match window).
        assert!(p.observe(7).is_empty());
        assert!(!p.observe(12).is_empty()); // re-confirms at delta 5
    }

    #[test]
    fn far_accesses_form_separate_streams() {
        let mut p = StridePrefetcher::new(1, 20);
        p.observe(0);
        p.observe(1_000_000);
        p.observe(1);
        p.observe(1_000_001);
        let a = p.observe(2);
        let b = p.observe(1_000_002);
        assert_eq!(a, vec![3]);
        assert_eq!(b, vec![1_000_003]);
    }

    #[test]
    fn zero_degree_never_prefetches() {
        let mut p = StridePrefetcher::new(0, 20);
        p.observe(0);
        p.observe(1);
        assert!(p.observe(2).is_empty());
    }

    #[test]
    fn reset_forgets_streams() {
        let mut p = StridePrefetcher::new(1, 20);
        p.observe(0);
        p.observe(1);
        p.reset();
        assert!(p.observe(2).is_empty());
        assert!(p.observe(3).is_empty());
    }

    #[test]
    fn table_capacity_recycles_oldest() {
        let mut p = StridePrefetcher::new(1, 20);
        // Create 40 distinct far-apart streams; table holds 32.
        for s in 0..40u64 {
            p.observe(s * 1_000_000);
        }
        // The first stream was evicted; re-observing shouldn't match it.
        assert!(p.observe(1).is_empty());
        assert_eq!(p.streams().len(), 32);
    }

    #[test]
    fn expected_path_matches_scan_path() {
        let mut scan = StridePrefetcher::new(2, 20);
        let mut fast = StridePrefetcher::new(2, 20);
        // Warm both on the same stride-3 stream.
        for line in [0u64, 3, 6] {
            scan.observe(line);
            fast.observe(line);
        }
        let mut buf = Vec::new();
        for line in (9..60).step_by(3) {
            let slow = scan.observe(line);
            assert!(fast.expects(0, line));
            buf.clear();
            fast.observe_expected(0, line, &mut buf);
            assert_eq!(slow, buf, "line {line}");
        }
        assert!(!fast.preempts(0, 60), "a lone stream is never preempted");
    }

    #[test]
    fn confidence_threshold_delays_issuing() {
        // min_confidence 4: the stride must repeat four times.
        let mut p = StridePrefetcher::with_confidence(2, 20, 4);
        assert!(p.observe(100).is_empty()); // new stream
        assert!(p.observe(101).is_empty()); // confidence 1
        assert!(p.observe(102).is_empty()); // confidence 2
        assert!(p.observe(103).is_empty()); // confidence 3
        assert_eq!(p.observe(104), vec![105, 106]); // confidence 4
    }

    #[test]
    fn stream_engine_ignores_non_unit_strides() {
        let mut p = StridePrefetcher::stream(2, 20, 2);
        p.observe(0);
        p.observe(8);
        assert!(p.observe(16).is_empty(), "non-unit stride must never issue");
        assert!(p.observe(24).is_empty());
        // A unit-stride stream issues normally after `confirm` repeats.
        let mut p = StridePrefetcher::stream(2, 20, 2);
        p.observe(1000);
        p.observe(1001);
        assert_eq!(p.observe(1002), vec![1003, 1004]);
        // Descending unit stride counts too.
        let mut p = StridePrefetcher::stream(1, 20, 2);
        p.observe(5000);
        p.observe(4999);
        assert_eq!(p.observe(4998), vec![4997]);
    }

    #[test]
    fn default_knobs_match_the_seed_unit() {
        // `new` is the paper's unit: threshold 2, any stride.
        let a = StridePrefetcher::new(2, 20);
        let b = StridePrefetcher::with_confidence(2, 20, 2);
        assert_eq!(a.min_confidence, b.min_confidence);
        assert!(!a.unit_only);
    }

    #[test]
    fn expected_path_matches_scan_path_with_knobs() {
        for (mk, label) in [
            (StridePrefetcher::with_confidence(2, 20, 4), "confident"),
            (StridePrefetcher::stream(2, 20, 3), "stream"),
        ] {
            let mut scan = mk.clone();
            let mut fast = mk;
            for line in [0u64, 1, 2] {
                scan.observe(line);
                fast.observe(line);
            }
            let mut buf = Vec::new();
            for line in 3..40u64 {
                let slow = scan.observe(line);
                assert!(fast.expects(0, line), "{label} line {line}");
                buf.clear();
                fast.observe_expected(0, line, &mut buf);
                assert_eq!(slow, buf, "{label} line {line}");
            }
        }
    }

    #[test]
    fn preempts_sees_only_lower_exact_predictions() {
        let mut p = StridePrefetcher::new(1, 20);
        // Stream 0: stride 10 at last=110 (predicts 120).
        p.observe(100);
        p.observe(110);
        // Stream 1: far away, stride 4 at last=1_000_004.
        p.observe(1_000_000);
        p.observe(1_000_004);
        assert!(p.preempts(1, 120), "stream 0 predicts 120");
        assert!(!p.preempts(1, 1_000_008));
        // Only lower indices preempt: stream 0 is never preempted by 1.
        assert!(!p.preempts(0, 1_000_008));
        // A window match (115 is 5 from stream 0) does not preempt.
        assert!(!p.preempts(1, 115));
        // Feeding stream 0 on the fast path leaves it stale in the index;
        // its new prediction must still be seen.
        let mut out = Vec::new();
        p.observe_expected(0, 120, &mut out);
        assert!(p.preempts(1, 130));
        assert!(!p.preempts(1, 120));
    }

    #[test]
    fn silent_feeds_in_bulk_match_one_by_one() {
        // The stream engine never issues for stride 3.
        let mut bulk = StridePrefetcher::stream(2, 20, 2);
        for line in [0u64, 3, 6] {
            bulk.observe(line);
        }
        let mut single = bulk.clone();
        assert!(bulk.silent(0));
        let mut out = Vec::new();
        for k in 0..300u64 {
            single.observe_expected(0, 9 + 3 * k, &mut out);
        }
        assert!(out.is_empty());
        bulk.feed_silent(0, 9, 300);
        assert_eq!(bulk.streams(), single.streams(), "confidence saturates at 255");
        // Clocks agree too: the next allocation stamps alike.
        assert_eq!(bulk.observe(1 << 30), single.observe(1 << 30));
        assert_eq!(bulk.streams(), single.streams());
        assert!(!StridePrefetcher::stream(2, 20, 2).issues_for(-2));
        let mut unit = StridePrefetcher::stream(2, 20, 2);
        unit.observe(50);
        unit.observe(49);
        assert!(!unit.silent(0), "descending unit stride issues");
    }
}
