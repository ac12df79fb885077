//! A single set-associative cache with true-LRU replacement.
//!
//! Storage is flat: two parallel arrays (`addrs`, `meta`) of
//! `sets * ways` slots. `meta` packs a monotonically increasing
//! recency stamp with the dirty/prefetched flags
//! (`stamp << 2 | dirty << 1 | prefetched`); a slot is empty iff its
//! meta word is zero (stamps start at 1). Because stamps are unique and
//! strictly increasing, comparing meta words compares recency, so the
//! LRU victim of a set is simply the occupied slot with the smallest
//! meta — and an empty slot (meta 0) always wins, which is exactly the
//! "insert while not full" rule. This layout keeps a set's ways in one
//! cache-line-friendly span and replaces the old remove+push Vec
//! shuffle with a single word write per access.
//!
//! A small way predictor sits in front of the set scan: a table indexed
//! by the low bits of the line address remembers the way each line was
//! last seen in. Lookups check the predicted way first and fall back to
//! the one fused lookup+victim scan on a wrong guess, so a repeat hit
//! costs one compare and one stamp write. The table is only a hint —
//! every guess is verified against `addrs`/`meta` — so it
//! never needs invalidating and takes no part in statistics.

/// Result of inserting a line: what fell out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eviction {
    /// No line was displaced.
    None,
    /// A clean line was displaced.
    Clean(u64),
    /// A dirty line was displaced and must be written back.
    Dirty(u64),
}

const DIRTY: u64 = 0b10;
const PREFETCHED: u64 = 0b01;
const FLAG_BITS: u64 = 0b11;

/// Way-predictor slots per cache (one byte each). A power of two, so the
/// slot is the line address's low bits; at 4096 an L1 of 64 sets gets 64
/// slots per set, far more than its ways.
const PRED_SLOTS: usize = 4096;

#[inline]
fn pred_slot(line: u64) -> usize {
    line as usize & (PRED_SLOTS - 1)
}

/// One level of cache, indexed by line address.
///
/// Addresses are *line numbers* (byte address divided by the line size);
/// the hierarchy performs the shift once so all levels share it.
#[derive(Debug, Clone)]
pub struct Cache {
    /// Line address per slot (`ways` consecutive slots per set);
    /// meaningless where `meta` is zero.
    addrs: Vec<u64>,
    /// `stamp << 2 | dirty << 1 | prefetched`; zero = empty slot.
    meta: Vec<u64>,
    geo: Geometry,
    stamp: u64,
    /// Way predictor: `pred[pred_slot(line)]` is the way `line` last hit
    /// or was inserted at (truncated to a byte; any value below `ways` is
    /// a safe guess). Set on every hit and insert, verified before use.
    pred: Box<[u8; PRED_SLOTS]>,
}

/// Set count, associativity and the strength-reduced set-index map.
/// `Copy`, so a hot loop can hold it in registers.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    sets: usize,
    ways: usize,
    /// `sets - 1` when the set count is a power of two, else `u64::MAX`
    /// (the replay hot loop indexes sets on every access, so the modulo
    /// is strength-reduced to a mask wherever the geometry allows).
    mask: u64,
    /// `floor(2^64 / sets) + 1` — Lemire's direct-remainder magic for
    /// non-power-of-two set counts (e.g. the 5930k's 12288-set L3).
    magic: u64,
}

impl Geometry {
    fn new(sets: usize, ways: usize) -> Self {
        Geometry {
            sets,
            ways,
            mask: if sets.is_power_of_two() { sets as u64 - 1 } else { u64::MAX },
            // ceil(2^64 / sets); wraps to 0 for sets == 1, where the
            // power-of-two mask path is taken instead.
            magic: (u64::MAX / sets as u64).wrapping_add(1),
        }
    }

    /// `line % sets` without a hardware division: a mask for
    /// power-of-two set counts, Lemire's direct remainder (exact for
    /// operands below 2^32) otherwise, falling back to `%` for lines at
    /// or past 2^32.
    #[inline]
    fn index(self, line: u64) -> usize {
        if self.mask != u64::MAX {
            (line & self.mask) as usize
        } else if line < 1 << 32 {
            let frac = self.magic.wrapping_mul(line);
            ((u128::from(frac) * self.sets as u128) >> 64) as usize
        } else {
            (line % self.sets as u64) as usize
        }
    }

    /// First slot of `line`'s set.
    #[inline]
    fn base(self, line: u64) -> usize {
        self.index(line) * self.ways
    }
}

/// The fused lookup+victim pass over one set: `Ok(way)` of `line` if
/// resident, else `Err(victim)`, the way an insertion would take. One
/// bounds-check-free pass stops at the hit way while tracking the
/// first-minimum meta (empty slots are 0, older stamps are smaller) as
/// the prospective victim; on a miss that covers the whole set, so the
/// victim is the set's LRU way (or an empty one).
#[inline]
fn scan(metas: &[u64], addrs: &[u64], line: u64) -> Result<usize, usize> {
    let mut victim = 0usize;
    let mut vmeta = u64::MAX;
    for (i, (&m, &a)) in metas.iter().zip(addrs).enumerate() {
        if m != 0 && a == line {
            return Ok(i);
        }
        if m < vmeta {
            vmeta = m;
            victim = i;
        }
    }
    Err(victim)
}

/// Finds `line` in the set at `base`: the predicted way `guess` first,
/// then one fused [`scan`] on a wrong guess. Returns flat slot indices:
/// `Ok(slot)` if resident, else `Err(victim)`. Any `guess` below `ways`
/// is safe, because the guess is verified before it is used.
#[inline]
fn lookup(
    meta: &[u64],
    addrs: &[u64],
    ways: usize,
    base: usize,
    guess: u8,
    line: u64,
) -> Result<usize, usize> {
    let g = base + usize::from(guess);
    if meta[g] != 0 && addrs[g] == line {
        return Ok(g);
    }
    let set = base..base + ways;
    scan(&meta[set.clone()], &addrs[set], line).map(|w| base + w).map_err(|w| base + w)
}

/// What [`Cache::hit_streak`] consumed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Streak {
    /// Leading lines that hit.
    pub hits: u64,
    /// How many of those hits were first demand uses of prefetched lines.
    pub first_uses: u32,
    /// Victim slot of the line after the hits, if it missed (that line is
    /// not consumed).
    pub missed: Option<u32>,
}

/// Outcome of a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookup {
    /// Whether the line was present.
    pub hit: bool,
    /// Whether the hit line had been brought in by a prefetch and this is
    /// its first demand use.
    pub first_prefetch_use: bool,
}

/// Outcome of a fused lookup-or-victim pass (see
/// [`Cache::access_with_victim`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccessOutcome {
    /// The line was present; recency/dirtiness updated as in
    /// [`Cache::access`].
    Hit {
        /// First demand use of a prefetched line.
        first_prefetch_use: bool,
    },
    /// The line was absent; `victim` is the slot an insertion of this
    /// line would take (the LRU of its set), valid until the next
    /// operation on this cache.
    Miss {
        /// Flat slot index of the set's LRU entry.
        victim: u32,
    },
}

impl Cache {
    /// Creates a cache with `sets` sets of `ways` lines.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be nonzero");
        Cache {
            addrs: vec![0; sets * ways],
            meta: vec![0; sets * ways],
            geo: Geometry::new(sets, ways),
            stamp: 0,
            pred: Box::new([0; PRED_SLOTS]),
        }
    }

    #[inline]
    fn set_base(&self, line: u64) -> usize {
        self.geo.base(line)
    }

    #[inline]
    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// [`lookup`] for `line`, after which the predictor points at the line
    /// if it is resident.
    #[inline]
    fn locate(&mut self, line: u64) -> Result<usize, usize> {
        let base = self.set_base(line);
        let slot = pred_slot(line);
        let found = lookup(&self.meta, &self.addrs, self.geo.ways, base, self.pred[slot], line);
        if let Ok(i) = found {
            self.pred[slot] = (i - base) as u8;
        }
        found
    }

    /// Demand access to `line`. On a hit the line becomes most-recent and
    /// (for writes) dirty. Returns the lookup outcome; on a miss the
    /// caller is responsible for filling via [`Cache::fill`].
    pub fn access(&mut self, line: u64, write: bool) -> Lookup {
        match self.access_with_victim(line, write) {
            AccessOutcome::Hit { first_prefetch_use } => {
                Lookup { hit: true, first_prefetch_use }
            }
            AccessOutcome::Miss { .. } => Lookup { hit: false, first_prefetch_use: false },
        }
    }

    /// Whether `line` is present, without touching LRU state.
    pub fn probe(&self, line: u64) -> bool {
        let (base, guess) = (self.set_base(line), self.pred[pred_slot(line)]);
        lookup(&self.meta, &self.addrs, self.geo.ways, base, guess, line).is_ok()
    }

    /// [`Cache::access`] fused with victim preselection: one pass over
    /// the set serves both the lookup and, on a miss, the LRU victim
    /// scan that a subsequent fill would repeat. The returned victim
    /// slot stays valid as long as no other operation touches this
    /// cache; pair with [`Cache::insert_at`].
    #[inline]
    pub(crate) fn access_with_victim(&mut self, line: u64, write: bool) -> AccessOutcome {
        let streak = self.hit_streak(line, 0, 0, 1, write);
        match streak.missed {
            None => AccessOutcome::Hit { first_prefetch_use: streak.first_uses != 0 },
            Some(victim) => AccessOutcome::Miss { victim },
        }
    }

    /// [`Cache::access_with_victim`] over a constant-stride streak: up to
    /// `n` accesses to the lines `pos >> shift`, `pos` moving `step`
    /// apart (`shift` 0 walks line addresses directly; the line shift
    /// walks byte addresses, for strides that are not whole lines),
    /// stopping at the first miss. Every hit makes the line most-recent
    /// and (for writes) dirty, and clears its prefetched flag; the miss
    /// (if any) leaves the cache untouched and reports its victim slot
    /// under the same validity rule. The predicted way is tried first and
    /// the fused scan runs only on a wrong guess. The recency clock, the
    /// set geometry and the slot and predictor tables stay in locals for
    /// the whole streak, so a correctly predicted hit costs one compare
    /// and one stamp write.
    #[inline]
    pub(crate) fn hit_streak(
        &mut self,
        pos: u64,
        step: i64,
        shift: u32,
        n: u64,
        write: bool,
    ) -> Streak {
        let geo = self.geo;
        if geo.mask != u64::MAX {
            // Power-of-two set count (every L1 the presets describe): a
            // mask-only set index keeps the division fallbacks, and the
            // registers they need, out of the loop.
            let base_of = |l| (l & geo.mask) as usize * geo.ways;
            self.streak_by(base_of, pos, step, shift, n, write)
        } else {
            self.streak_by(|l| geo.base(l), pos, step, shift, n, write)
        }
    }

    /// [`Cache::hit_streak`] with the set-base map `base_of`.
    #[inline(always)]
    fn streak_by(
        &mut self,
        base_of: impl Fn(u64) -> usize,
        pos: u64,
        step: i64,
        shift: u32,
        n: u64,
        write: bool,
    ) -> Streak {
        let ways = self.geo.ways;
        let (meta, addrs) = (&mut self.meta[..], &self.addrs[..]);
        let pred = &mut *self.pred;
        let wbit = if write { DIRTY } else { 0 };
        let mut stamp = self.stamp;
        let mut pos = pos;
        let mut streak = Streak { hits: 0, first_uses: 0, missed: None };
        while streak.hits < n {
            let line = pos >> shift;
            let (base, slot) = (base_of(line), pred_slot(line));
            let i = match lookup(meta, addrs, ways, base, pred[slot], line) {
                Ok(i) => i,
                Err(victim) => {
                    streak.missed = Some(victim as u32);
                    break;
                }
            };
            pred[slot] = (i - base) as u8;
            let m = meta[i];
            streak.first_uses += (m & PREFETCHED) as u32;
            stamp += 1;
            meta[i] = (stamp << 2) | (m & DIRTY) | wbit;
            streak.hits += 1;
            pos = pos.wrapping_add_signed(step);
        }
        self.stamp = stamp;
        streak
    }

    /// [`Cache::probe`] fused with victim preselection, for prefetch
    /// fills: `None` if `line` is resident (recency and flags untouched),
    /// else the slot to pass to [`Cache::insert_at`] under the same
    /// validity rule as [`Cache::access_with_victim`].
    pub(crate) fn absent_victim(&mut self, line: u64) -> Option<u32> {
        self.locate(line).err().map(|victim| victim as u32)
    }

    /// Inserts `line` into `slot` (a victim returned by
    /// [`Cache::access_with_victim`] with no intervening operation on
    /// this cache), evicting the slot's current occupant. Identical to
    /// the insertion tail of [`Cache::fill`] for an absent line.
    pub(crate) fn insert_at(
        &mut self,
        slot: u32,
        line: u64,
        dirty: bool,
        prefetched: bool,
    ) -> Eviction {
        let slot = slot as usize;
        let m = self.meta[slot];
        let evicted = if m == 0 {
            Eviction::None
        } else if m & DIRTY != 0 {
            Eviction::Dirty(self.addrs[slot])
        } else {
            Eviction::Clean(self.addrs[slot])
        };
        let flags = if dirty { DIRTY } else { 0 } | if prefetched { PREFETCHED } else { 0 };
        self.addrs[slot] = line;
        self.meta[slot] = (self.next_stamp() << 2) | flags;
        self.pred[pred_slot(line)] = (slot - self.set_base(line)) as u8;
        evicted
    }

    /// Inserts `line` as most-recently-used, evicting the LRU line of its
    /// set when full. `prefetched` marks prefetch fills; `dirty` marks
    /// store-allocated or written-back lines.
    pub fn fill(&mut self, line: u64, dirty: bool, prefetched: bool) -> Eviction {
        match self.locate(line) {
            Ok(i) => {
                // Refill of a present line (e.g. writeback into a lower
                // level): merge dirtiness, refresh recency, keep the
                // prefetched flag.
                let flags = (self.meta[i] & FLAG_BITS) | if dirty { DIRTY } else { 0 };
                self.meta[i] = (self.next_stamp() << 2) | flags;
                Eviction::None
            }
            Err(victim) => self.insert_at(victim as u32, line, dirty, prefetched),
        }
    }

    /// Marks a present line dirty (writeback absorption) without changing
    /// recency. Returns whether the line was present.
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        self.mark_dirty_with_victim(line).is_none()
    }

    /// Fused form of [`Cache::mark_dirty`] for the writeback cascade:
    /// marks a present line dirty in place (returning `None`), or returns
    /// the LRU victim slot of the line's set so the caller can insert via
    /// [`Cache::insert_at`] without re-scanning the set.
    pub(crate) fn mark_dirty_with_victim(&mut self, line: u64) -> Option<u32> {
        match self.locate(line) {
            Ok(i) => {
                self.meta[i] |= DIRTY;
                None
            }
            Err(victim) => Some(victim as u32),
        }
    }

    /// Number of lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.meta.iter().filter(|&&m| m != 0).count()
    }

    /// Total line capacity.
    pub fn capacity(&self) -> usize {
        self.meta.len()
    }

    /// Drops every resident line.
    pub fn clear(&mut self) {
        // Every insert advances the clock, so a zero clock means nothing
        // was resident. Skipping the sweep then keeps a fresh cache's
        // zero-allocated pages untouched: a hierarchy flushed before its
        // first walk only pays memory for the sets it actually uses.
        if self.stamp != 0 {
            self.meta.fill(0);
            self.stamp = 0;
        }
    }

    /// Number of sets.
    #[cfg(test)]
    fn set_count(&self) -> usize {
        self.geo.sets
    }

    /// Appends this cache's resident lines of set `set`, oldest first, as
    /// `(addr, flags)` pairs — recency *order* without the absolute
    /// stamps (the lockstep reference test compares whole images).
    #[cfg(test)]
    fn set_entries_by_recency(&self, set: usize, out: &mut Vec<(u64, u64)>) {
        let base = set * self.geo.ways;
        let from = out.len();
        for i in base..base + self.geo.ways {
            if self.meta[i] != 0 {
                out.push((self.meta[i], self.addrs[i]));
            }
        }
        out[from..].sort_unstable();
        for e in &mut out[from..] {
            *e = (e.1, e.0 & FLAG_BITS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut c = Cache::new(4, 2);
        assert!(!c.access(10, false).hit);
        c.fill(10, false, false);
        assert!(c.access(10, false).hit);
        assert!(c.probe(10));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = Cache::new(1, 2);
        c.fill(0, false, false);
        c.fill(1, false, false);
        // touch 0 so 1 becomes LRU
        assert!(c.access(0, false).hit);
        let ev = c.fill(2, false, false);
        assert_eq!(ev, Eviction::Clean(1));
        assert!(c.probe(0));
        assert!(!c.probe(1));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = Cache::new(1, 1);
        c.fill(0, true, false);
        assert_eq!(c.fill(1, false, false), Eviction::Dirty(0));
    }

    #[test]
    fn store_hit_marks_dirty() {
        let mut c = Cache::new(1, 1);
        c.fill(0, false, false);
        c.access(0, true);
        assert_eq!(c.fill(1, false, false), Eviction::Dirty(0));
    }

    #[test]
    fn prefetched_flag_cleared_on_first_use() {
        let mut c = Cache::new(1, 2);
        c.fill(7, false, true);
        let l = c.access(7, false);
        assert!(l.hit && l.first_prefetch_use);
        let l = c.access(7, false);
        assert!(l.hit && !l.first_prefetch_use);
    }

    #[test]
    fn refill_merges_dirty_without_duplicating() {
        let mut c = Cache::new(1, 2);
        c.fill(3, false, false);
        assert_eq!(c.fill(3, true, false), Eviction::None);
        assert_eq!(c.occupancy(), 1);
        assert_eq!(c.fill(4, false, false), Eviction::None);
        assert_eq!(c.fill(5, false, false), Eviction::Dirty(3));
    }

    #[test]
    fn mark_dirty_only_if_present() {
        let mut c = Cache::new(2, 1);
        c.fill(0, false, false);
        assert!(c.mark_dirty(0));
        assert!(!c.mark_dirty(1));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = Cache::new(2, 1);
        c.fill(0, false, false); // set 0
        c.fill(1, false, false); // set 1
        assert!(c.probe(0));
        assert!(c.probe(1));
        assert_eq!(c.capacity(), 2);
    }

    #[test]
    fn clear_empties() {
        let mut c = Cache::new(2, 2);
        c.fill(0, false, false);
        c.clear();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_geometry_panics() {
        let _ = Cache::new(0, 1);
    }

    #[test]
    fn mark_dirty_does_not_refresh_recency() {
        let mut c = Cache::new(1, 2);
        c.fill(0, false, false);
        c.fill(1, false, false);
        c.mark_dirty(0); // 0 stays LRU
        assert_eq!(c.fill(2, false, false), Eviction::Dirty(0));
    }

    #[test]
    fn set_index_matches_modulo_for_all_geometries() {
        for sets in [1usize, 3, 5, 48, 64, 4096, 12288, 20480] {
            let c = Cache::new(sets, 1);
            let d = sets as u64;
            let mut lines: Vec<u64> = vec![
                0,
                1,
                d - 1,
                d,
                d + 1,
                (1 << 32) - 1,
                1 << 32,
                (1 << 32) + 1,
                u64::MAX - 1,
                u64::MAX,
            ];
            // Pseudo-random probes across the Lemire (< 2^32) range and
            // boundary-adjacent multiples of the divisor.
            for k in 1..4096u64 {
                let r = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                lines.push(r >> 32);
                lines.push((r % (1 << 32) / d) * d + k % 3);
            }
            for line in lines {
                assert_eq!(c.geo.index(line), (line % d) as usize, "sets={sets} line={line}");
            }
        }
    }

    /// A naive true-LRU reference: one `Vec` per set, most recent first,
    /// with move-to-front on every hit. No stamps, no predictor, no
    /// fused scans — the behaviour [`Cache`] must reproduce exactly.
    #[derive(Debug, Clone)]
    struct RefCache {
        sets: Vec<Vec<RefLine>>,
        ways: usize,
    }

    #[derive(Debug, Clone, Copy)]
    struct RefLine {
        addr: u64,
        dirty: bool,
        prefetched: bool,
    }

    impl RefCache {
        fn new(sets: usize, ways: usize) -> Self {
            RefCache { sets: vec![Vec::new(); sets], ways }
        }

        fn set_of(&self, line: u64) -> usize {
            (line % self.sets.len() as u64) as usize
        }

        fn position(&self, line: u64) -> Option<usize> {
            self.sets[self.set_of(line)].iter().position(|l| l.addr == line)
        }

        fn probe(&self, line: u64) -> bool {
            self.position(line).is_some()
        }

        fn access(&mut self, line: u64, write: bool) -> Lookup {
            let Some(p) = self.position(line) else {
                return Lookup { hit: false, first_prefetch_use: false };
            };
            let set = self.set_of(line);
            let mut l = self.sets[set].remove(p);
            let first_prefetch_use = l.prefetched;
            l.prefetched = false;
            l.dirty |= write;
            self.sets[set].insert(0, l);
            Lookup { hit: true, first_prefetch_use }
        }

        fn fill(&mut self, line: u64, dirty: bool, prefetched: bool) -> Eviction {
            let set = self.set_of(line);
            if let Some(p) = self.position(line) {
                let mut l = self.sets[set].remove(p);
                l.dirty |= dirty;
                self.sets[set].insert(0, l);
                return Eviction::None;
            }
            let evicted = if self.sets[set].len() == self.ways {
                let v = self.sets[set].pop().expect("full set");
                if v.dirty {
                    Eviction::Dirty(v.addr)
                } else {
                    Eviction::Clean(v.addr)
                }
            } else {
                Eviction::None
            };
            self.sets[set].insert(0, RefLine { addr: line, dirty, prefetched });
            evicted
        }

        fn mark_dirty(&mut self, line: u64) -> bool {
            let set = self.set_of(line);
            match self.position(line) {
                Some(p) => {
                    self.sets[set][p].dirty = true;
                    true
                }
                None => false,
            }
        }

        fn clear(&mut self) {
            for set in &mut self.sets {
                set.clear();
            }
        }

        /// `(addr, flags)` oldest first, as [`Cache::set_entries_by_recency`].
        fn entries_by_recency(&self, set: usize) -> Vec<(u64, u64)> {
            self.sets[set]
                .iter()
                .rev()
                .map(|l| {
                    let flags = if l.dirty { DIRTY } else { 0 }
                        | if l.prefetched { PREFETCHED } else { 0 };
                    (l.addr, flags)
                })
                .collect()
        }
    }

    /// A [`Cache`] and its reference driven in lockstep: every operation
    /// is applied to both and every result compared.
    struct Lockstep {
        real: Cache,
        model: RefCache,
        what: String,
    }

    impl Lockstep {
        fn new(sets: usize, ways: usize) -> Self {
            Lockstep {
                real: Cache::new(sets, ways),
                model: RefCache::new(sets, ways),
                what: format!("{sets}x{ways}"),
            }
        }

        fn access(&mut self, line: u64, write: bool) {
            let want = self.model.access(line, write);
            assert_eq!(self.real.access(line, write), want, "{}: access {line}", self.what);
        }

        /// The fused demand lookup; on a miss, optionally the paired
        /// insertion into the returned victim slot.
        fn access_with_victim(&mut self, line: u64, write: bool, insert: Option<(bool, bool)>) {
            let want = self.model.access(line, write);
            match self.real.access_with_victim(line, write) {
                AccessOutcome::Hit { first_prefetch_use } => {
                    assert!(want.hit, "{}: phantom hit on {line}", self.what);
                    assert_eq!(first_prefetch_use, want.first_prefetch_use, "{}", self.what);
                }
                AccessOutcome::Miss { victim } => {
                    assert!(!want.hit, "{}: missed resident {line}", self.what);
                    if let Some((dirty, prefetched)) = insert {
                        let want = self.model.fill(line, dirty, prefetched);
                        let got = self.real.insert_at(victim, line, dirty, prefetched);
                        assert_eq!(got, want, "{}: insert_at {line}", self.what);
                    }
                }
            }
        }

        fn fill(&mut self, line: u64, dirty: bool, prefetched: bool) {
            let want = self.model.fill(line, dirty, prefetched);
            assert_eq!(
                self.real.fill(line, dirty, prefetched),
                want,
                "{}: fill {line}",
                self.what
            );
        }

        /// The writeback cascade's step: absorb in place, or insert dirty
        /// into the returned victim slot.
        fn mark_dirty_with_victim(&mut self, line: u64, insert: bool) {
            let present = self.model.mark_dirty(line);
            match self.real.mark_dirty_with_victim(line) {
                None => assert!(present, "{}: phantom writeback hit {line}", self.what),
                Some(slot) => {
                    assert!(!present, "{}: writeback missed resident {line}", self.what);
                    if insert {
                        let want = self.model.fill(line, true, false);
                        let got = self.real.insert_at(slot, line, true, false);
                        assert_eq!(got, want, "{}: writeback insert {line}", self.what);
                    }
                }
            }
        }

        /// The prefetch fill: skip when resident, else insert prefetched.
        fn absent_victim(&mut self, line: u64, insert: bool) {
            let present = self.model.probe(line);
            match self.real.absent_victim(line) {
                None => assert!(present, "{}: phantom probe hit {line}", self.what),
                Some(slot) => {
                    assert!(!present, "{}: probe missed resident {line}", self.what);
                    if insert {
                        let want = self.model.fill(line, false, true);
                        let got = self.real.insert_at(slot, line, false, true);
                        assert_eq!(got, want, "{}: prefetch insert {line}", self.what);
                    }
                }
            }
        }

        fn probe(&mut self, line: u64) {
            assert_eq!(
                self.real.probe(line),
                self.model.probe(line),
                "{}: probe {line}",
                self.what
            );
        }

        fn mark_dirty(&mut self, line: u64) {
            let want = self.model.mark_dirty(line);
            assert_eq!(self.real.mark_dirty(line), want, "{}: mark_dirty {line}", self.what);
        }

        fn clear(&mut self) {
            self.real.clear();
            self.model.clear();
        }

        /// Whole-image comparison: contents, flags and recency order of
        /// every set.
        fn assert_same_image(&self) {
            let mut got = Vec::new();
            for set in 0..self.real.set_count() {
                got.clear();
                self.real.set_entries_by_recency(set, &mut got);
                assert_eq!(got, self.model.entries_by_recency(set), "{}: set {set}", self.what);
            }
            let resident: usize = self.model.sets.iter().map(Vec::len).sum();
            assert_eq!(self.real.occupancy(), resident, "{}", self.what);
        }
    }

    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }

    /// Distance between two lines that share both a set and a predictor
    /// slot.
    fn alias_stride(sets: usize) -> u64 {
        let (s, p) = (sets as u64, PRED_SLOTS as u64);
        s / gcd(s, p) * p
    }

    /// Seeded random streams through every operation, on every geometry
    /// the simulator builds (1 to 20 ways, power-of-two and 12288 sets).
    /// Half the lines come from a window of twice the capacity, half from
    /// alias families that share a set *and* a predictor slot, so wrong
    /// and stale way guesses are the common case, not the corner.
    #[test]
    fn cache_matches_the_naive_lru_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let geometries = [
            (1usize, 8usize),
            (64, 1),
            (64, 2),
            (64, 4),
            (64, 8),
            (32, 16),
            (16, 20),
            (12, 8),
            (12288, 4),
        ];
        for (g, &(sets, ways)) in geometries.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0x5eed + g as u64);
            let mut c = Lockstep::new(sets, ways);
            let window = 2 * (sets * ways) as u64;
            let alias = alias_stride(sets);
            let base = 1u64 << 40;
            let ops = if sets > 1000 { 60_000 } else { 20_000 };
            for op in 0..ops {
                let line = if rng.gen_bool(0.5) {
                    base + rng.gen_range(0..window)
                } else {
                    base + rng.gen_range(0..4u64)
                        + alias * rng.gen_range(0..2 * ways as u64 + 2)
                };
                let (b1, b2) = (rng.gen_bool(0.3), rng.gen_bool(0.3));
                match rng.gen_range(0..100u32) {
                    0..=29 => {
                        c.access_with_victim(line, b1, rng.gen_bool(0.9).then_some((b1, b2)))
                    }
                    30..=44 => c.access(line, b1),
                    45..=67 => c.fill(line, b1, b2),
                    68..=77 => c.mark_dirty_with_victim(line, rng.gen_bool(0.8)),
                    78..=87 => c.absent_victim(line, rng.gen_bool(0.8)),
                    88..=93 => c.probe(line),
                    94..=97 => c.mark_dirty(line),
                    _ => {
                        if rng.gen_bool(0.1) {
                            c.clear();
                        }
                    }
                }
                if op % 512 == 0 {
                    c.assert_same_image();
                }
            }
            c.assert_same_image();
        }
    }

    /// `clear` leaves the predictor pointing at ways whose lines are gone:
    /// every guess must be rejected and refills must land on fresh LRU
    /// order.
    #[test]
    fn stale_predictions_after_clear_are_rejected() {
        let mut c = Lockstep::new(4, 4);
        for line in [1u64, 5, 9, 13] {
            c.fill(line, line == 5, false);
            c.access_with_victim(line, false, None);
        }
        c.clear();
        for line in [1u64, 5, 9, 13] {
            c.probe(line);
            c.access_with_victim(line, false, Some((false, false)));
        }
        c.fill(17, false, false);
        c.access_with_victim(1, true, None);
        c.access_with_victim(21, false, Some((false, false)));
        c.assert_same_image();
    }

    /// Two lines in one set that share a predictor slot: each evicts the
    /// other's guess, so every second lookup is a wrong guess that must
    /// fall back to the scan (hit) or pick the true LRU victim (miss).
    #[test]
    fn lines_sharing_a_predictor_slot_stay_exact() {
        for (sets, ways) in [(64usize, 4usize), (12288, 2), (1, 3)] {
            let mut c = Lockstep::new(sets, ways);
            let a = 1u64 << 30;
            let stride = alias_stride(sets);
            let (b, d, e) = (a + stride, a + 2 * stride, a + 3 * stride);
            c.fill(a, false, false);
            c.fill(b, false, true);
            for _ in 0..4 {
                c.access_with_victim(a, true, None);
                c.access_with_victim(b, false, None);
            }
            // The slot now guesses `b`'s way; `d` and `e` miss past it.
            c.access_with_victim(d, false, Some((false, false)));
            c.access_with_victim(e, false, Some((true, false)));
            c.mark_dirty_with_victim(a, true);
            c.absent_victim(b, true);
            c.absent_victim(a + 4 * stride, true);
            c.assert_same_image();
        }
    }
}
