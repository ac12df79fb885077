//! The read-through composition of the memory and disk tiers, with the
//! disk write available on its own.

use crate::error::PaloError;
use crate::fingerprint::Fingerprint;
use crate::pass::CacheStats;
use crate::store::{
    ArtifactStore, BoundedMemStore, CacheConfig, DiskStore, MemStore, StoredArtifact, TierStats,
};
use std::sync::Arc;

/// A memory tier over an optional disk tier.
///
/// * `get` reads through: a memory miss falls to disk; a disk hit is
///   returned with `value: None` (encoded bytes only, the frame already
///   verified by the disk tier) for the typed layer to decode and
///   [`put_mem`](TieredStore::put_mem);
/// * `put` writes through: every new artifact lands in both tiers, so a
///   future process starts warm even if the memory tier evicts it;
/// * [`put_mem`](TieredStore::put_mem) and
///   [`persist`](TieredStore::persist) are its two halves, for a caller
///   that answers from memory first and writes the disk tier later (the
///   session's run epilogue, DESIGN.md §15).
///
/// The session-facing operations also add what they did, tier by tier,
/// to a caller's [`CacheStats`]: one run's cache window, exact however
/// many runs share the store.
#[derive(Debug)]
pub struct TieredStore {
    mem: MemTier,
    disk: Option<DiskStore>,
}

/// The two memory-tier shapes, statically dispatched.
#[derive(Debug)]
enum MemTier {
    Unbounded(MemStore),
    Bounded(BoundedMemStore),
}

impl MemTier {
    fn as_store(&self) -> &dyn ArtifactStore {
        match self {
            MemTier::Unbounded(s) => s,
            MemTier::Bounded(s) => s,
        }
    }

    fn fetch(&self, key: Fingerprint) -> (Option<StoredArtifact>, TierStats) {
        match self {
            MemTier::Unbounded(s) => s.fetch(key),
            MemTier::Bounded(s) => s.fetch(key),
        }
    }

    fn store(&self, key: Fingerprint, artifact: StoredArtifact) -> TierStats {
        match self {
            MemTier::Unbounded(s) => s.store(key, artifact),
            MemTier::Bounded(s) => s.store(key, artifact),
        }
    }
}

impl TieredStore {
    /// Builds the tier stack `config` describes: an unbounded or bounded
    /// memory tier, over a disk tier when a directory is configured.
    ///
    /// # Errors
    ///
    /// [`PaloError::Store`] when the cache directory cannot be opened
    /// (see [`DiskStore::open`]).
    pub fn from_config(config: &CacheConfig) -> Result<Self, PaloError> {
        let mem = if config.bounded() {
            MemTier::Bounded(BoundedMemStore::new(
                config.policy,
                config.capacity_entries,
                config.capacity_bytes,
            ))
        } else {
            MemTier::Unbounded(MemStore::new())
        };
        let disk = config.dir.as_ref().map(DiskStore::open).transpose()?;
        Ok(TieredStore { mem, disk })
    }

    /// A memory-only store with the original unbounded behavior.
    pub fn unbounded() -> Self {
        TieredStore { mem: MemTier::Unbounded(MemStore::new()), disk: None }
    }

    /// The artifact under `key`: from memory, else from disk (bytes
    /// only), counting each tier's lookup into `run`.
    pub fn lookup(&self, key: Fingerprint, run: &mut CacheStats) -> Option<StoredArtifact> {
        let (hit, d) = self.mem.fetch(key);
        run.mem.absorb(&d);
        if hit.is_some() {
            return hit;
        }
        let (hit, d, anomalies) = self.disk.as_ref()?.fetch(key);
        run.disk.absorb(&d);
        run.anomalies += anomalies;
        hit
    }

    /// Stores `artifact` in the memory tier only: a disk-served artifact
    /// promoted with its decoded value attached (the disk already holds
    /// it), or a fresh one whose disk write is [`persist`]ed later.
    ///
    /// [`persist`]: TieredStore::persist
    pub fn put_mem(&self, key: Fingerprint, artifact: StoredArtifact, run: &mut CacheStats) {
        run.mem.absorb(&self.mem.store(key, artifact));
    }

    /// Writes framed `bytes` under `key` to the disk tier, if there is
    /// one. Leaves the memory tier alone.
    pub fn persist(&self, key: Fingerprint, bytes: Arc<[u8]>, run: &mut CacheStats) {
        if let Some(disk) = &self.disk {
            run.disk.absorb(&disk.store(key, StoredArtifact { value: None, bytes }));
        }
    }

    /// Drops the entry under `key` from every tier (corruption healing).
    pub fn heal(&self, key: Fingerprint, run: &mut CacheStats) {
        self.mem.as_store().remove(key);
        if let Some(disk) = &self.disk {
            run.disk.absorb(&disk.evict(key));
        }
    }

    /// Lifetime counters of the memory tier.
    pub fn mem_stats(&self) -> TierStats {
        self.mem.as_store().tier_stats()
    }

    /// Lifetime counters of the disk tier (zeros when disabled).
    pub fn disk_stats(&self) -> TierStats {
        self.disk.as_ref().map(|d| d.tier_stats()).unwrap_or_default()
    }

    /// Corrupt disk entries encountered and healed.
    pub fn disk_anomalies(&self) -> u64 {
        self.disk.as_ref().map(|d| d.anomalies()).unwrap_or(0)
    }

    /// Whether a disk tier is attached.
    pub fn persistent(&self) -> bool {
        self.disk.is_some()
    }
}

impl ArtifactStore for TieredStore {
    fn get(&self, key: Fingerprint) -> Option<StoredArtifact> {
        self.lookup(key, &mut CacheStats::default())
    }

    fn put(&self, key: Fingerprint, artifact: StoredArtifact) {
        let mut run = CacheStats::default();
        self.persist(key, artifact.bytes.clone(), &mut run);
        self.put_mem(key, artifact, &mut run);
    }

    fn remove(&self, key: Fingerprint) {
        self.heal(key, &mut CacheStats::default());
    }

    /// Entries resident in the *memory* tier (the session-facing count;
    /// the disk tier may hold more).
    fn len(&self) -> usize {
        self.mem.as_store().len()
    }

    fn tier_stats(&self) -> TierStats {
        self.mem_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PolicyKind;
    use palo_codec::frame;
    use palo_ir::Digest;
    use std::path::PathBuf;

    fn key(n: u128) -> Fingerprint {
        Fingerprint(Digest(n))
    }

    fn framed(payload: &[u8]) -> StoredArtifact {
        StoredArtifact { value: None, bytes: frame::encode_frame("test", 1, payload).into() }
    }

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("palo-tiered-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_only_config_reads_its_own_writes() {
        let store = TieredStore::from_config(&CacheConfig::default()).unwrap();
        assert!(!store.persistent());
        store.put(key(1), framed(b"a"));
        assert!(store.get(key(1)).is_some());
        assert_eq!(store.disk_stats(), TierStats::default());
    }

    #[test]
    fn evicted_entries_read_through_from_disk() {
        let root = tmp_root("readthrough");
        let config = CacheConfig {
            dir: Some(root.clone()),
            policy: PolicyKind::Lru,
            capacity_entries: Some(1),
            capacity_bytes: None,
        };
        let store = TieredStore::from_config(&config).unwrap();
        store.put(key(1), framed(b"one"));
        store.put(key(2), framed(b"two")); // evicts 1 from memory
        let m = store.mem_stats();
        assert_eq!(m.evictions, 1);

        // 1 is gone from memory but read through from disk.
        let got = store.get(key(1)).expect("disk must still hold the evicted entry");
        assert!(got.value.is_none(), "a disk hit serves bytes, not a decoded value");
        assert_eq!(frame::decode_frame(&got.bytes).unwrap().payload, b"one");
        assert_eq!(store.disk_stats().hits, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_fresh_store_on_the_same_dir_starts_warm() {
        let root = tmp_root("warm");
        let config = CacheConfig { dir: Some(root.clone()), ..CacheConfig::default() };
        let cold = TieredStore::from_config(&config).unwrap();
        cold.put(key(3), framed(b"persisted"));
        drop(cold);

        let warm = TieredStore::from_config(&config).unwrap();
        assert!(warm.get(key(3)).is_some());
        assert_eq!(warm.disk_stats().hits, 1);
        assert_eq!(warm.mem_stats().misses, 1);
        let _ = std::fs::remove_dir_all(&root);
    }
}
