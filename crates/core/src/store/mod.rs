//! The tiered persistent artifact store behind the session cache.
//!
//! [`ArtifactStore`] is the one trait all tiers implement; three
//! implementations compose into the session's cache (DESIGN.md §15):
//!
//! * [`MemStore`] — the original unbounded in-process map;
//! * [`BoundedMemStore`] — an in-memory tier capped by entry count
//!   and/or bytes, with a pluggable [`CachePolicy`] (LRU, SLRU, 2Q)
//!   choosing eviction victims deterministically;
//! * [`DiskStore`] — an on-disk content-addressed store: one file per
//!   artifact at a fingerprint-sharded path, written atomically
//!   (tmp + rename) with a version-stamped, checksummed
//!   [`frame`](palo_codec::frame) header. Corrupt or truncated entries
//!   are deleted and reported as misses plus a recorded anomaly, never
//!   as errors.
//!
//! [`TieredStore`] composes a memory tier over an optional disk tier as
//! a read-through/write-through cache with promotion on disk hits.
//!
//! # The bit-identity invariant
//!
//! A stored artifact is the canonical [`Codec`](palo_codec::Codec)
//! encoding of the pass output, and floats encode as raw bit patterns —
//! so a decision replayed from memory, from disk, or recomputed cold is
//! bit-identical, under any eviction policy and any capacity. Eviction
//! and corruption can only ever cost a recompute.

mod disk;
mod mem;
mod policy;
mod tiered;

pub use disk::DiskStore;
pub use mem::{BoundedMemStore, MemStore};
pub use policy::{CachePolicy, Lru, ParsePolicyKindError, PolicyKind, Slru, TwoQ};
pub use tiered::TieredStore;

use crate::fingerprint::Fingerprint;
use std::any::Any;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One cached artifact as a store holds it: the canonical framed bytes,
/// plus (for memory tiers) the already-decoded value so warm hits never
/// re-decode.
///
/// `bytes` is always the full [`frame`](palo_codec::frame) — header and
/// payload — so spilling to disk is a plain byte write and byte-capacity
/// accounting matches what the disk tier would store.
#[derive(Clone)]
pub struct StoredArtifact {
    /// The decoded artifact, type-erased. `None` when the entry was read
    /// from disk and not yet decoded by the typed layer.
    pub value: Option<Arc<dyn Any + Send + Sync>>,
    /// The framed encoding (header + payload).
    pub bytes: Arc<[u8]>,
}

impl std::fmt::Debug for StoredArtifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoredArtifact")
            .field("decoded", &self.value.is_some())
            .field("bytes", &self.bytes.len())
            .finish()
    }
}

/// Monotonic counters of one store tier, snapshotted into
/// [`CacheStats`](crate::CacheStats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Lookups served by this tier.
    pub hits: u64,
    /// Lookups this tier could not serve.
    pub misses: u64,
    /// Entries evicted by capacity pressure (memory) or deleted after
    /// failing validation (disk).
    pub evictions: u64,
    /// Artifact bytes written into this tier.
    pub bytes_written: u64,
}

impl TierStats {
    /// The counter movement since `earlier` (a snapshot of the same
    /// tier).
    pub fn since(&self, earlier: &TierStats) -> TierStats {
        TierStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
        }
    }

    /// Accumulates another tier's counters (cross-session aggregation).
    pub fn absorb(&mut self, other: &TierStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.bytes_written += other.bytes_written;
    }
}

/// Shared atomic counters behind [`TierStats`].
#[derive(Debug, Default)]
pub(crate) struct TierCounters {
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
    pub(crate) evictions: AtomicU64,
    pub(crate) bytes_written: AtomicU64,
}

impl TierStats {
    /// One lookup's movement: a hit or a miss.
    pub(crate) fn lookup(hit: bool) -> TierStats {
        TierStats { hits: u64::from(hit), misses: u64::from(!hit), ..TierStats::default() }
    }
}

impl TierCounters {
    /// Adds one operation's counter movement, touching only the
    /// counters that move (concurrent runs share these cache lines).
    pub(crate) fn add(&self, d: &TierStats) {
        for (counter, n) in [
            (&self.hits, d.hits),
            (&self.misses, d.misses),
            (&self.evictions, d.evictions),
            (&self.bytes_written, d.bytes_written),
        ] {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn snapshot(&self) -> TierStats {
        TierStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }
}

/// A content-addressed artifact tier: [`Fingerprint`] keys, immutable
/// [`StoredArtifact`] values.
///
/// # Contract
///
/// * `get`/`put` never fail: a tier that cannot serve or persist an
///   entry records the event in its [`TierStats`] and degrades to a
///   miss — caching is an optimization, never a correctness dependency;
/// * keys are content hashes, so two writers racing on one key write
///   identical bytes and any interleaving is safe;
/// * implementations are internally synchronized (`&self` methods).
pub trait ArtifactStore: Send + Sync {
    /// The artifact under `key`, if this tier holds a valid one. Counts
    /// a tier hit or miss.
    fn get(&self, key: Fingerprint) -> Option<StoredArtifact>;

    /// Stores `artifact` under `key`, evicting per policy when bounded.
    fn put(&self, key: Fingerprint, artifact: StoredArtifact);

    /// Drops the entry under `key`, if present (corruption healing).
    fn remove(&self, key: Fingerprint);

    /// Entries currently held.
    fn len(&self) -> usize;

    /// Whether this tier currently holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime counters of this tier.
    fn tier_stats(&self) -> TierStats;
}

/// Configuration of the session's artifact store: which tiers exist and
/// how the memory tier is bounded.
///
/// The default — no directory, no capacity — reproduces the original
/// unbounded in-process map. **None of these knobs enter any cache
/// key**: they change where artifacts live, never what they contain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheConfig {
    /// Root directory of the on-disk tier; `None` disables persistence.
    pub dir: Option<PathBuf>,
    /// Eviction policy of the bounded memory tier (ignored while the
    /// tier is unbounded).
    pub policy: PolicyKind,
    /// Memory-tier capacity in entries; `None` = unbounded.
    pub capacity_entries: Option<usize>,
    /// Memory-tier capacity in artifact bytes; `None` = unbounded.
    pub capacity_bytes: Option<u64>,
}

impl CacheConfig {
    /// Whether the memory tier is capacity-bounded.
    pub fn bounded(&self) -> bool {
        self.capacity_entries.is_some() || self.capacity_bytes.is_some()
    }
}
