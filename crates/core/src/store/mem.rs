//! The in-memory tiers: the original unbounded map and the bounded,
//! policy-evicted variant.

use crate::fingerprint::Fingerprint;
use crate::store::{
    ArtifactStore, CachePolicy, PolicyKind, StoredArtifact, TierCounters, TierStats,
};
use std::collections::HashMap;
use std::sync::Mutex;

/// The original unbounded in-process map — every artifact stays until
/// the session dies. The zero-configuration default tier.
#[derive(Debug, Default)]
pub struct MemStore {
    map: Mutex<HashMap<Fingerprint, StoredArtifact>>,
    counters: TierCounters,
}

impl MemStore {
    /// An empty unbounded store.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// [`ArtifactStore::get`], also returning the counter movement.
    pub(crate) fn fetch(&self, key: Fingerprint) -> (Option<StoredArtifact>, TierStats) {
        let found = self.map.lock().ok().and_then(|map| map.get(&key).cloned());
        let d = TierStats::lookup(found.is_some());
        self.counters.add(&d);
        (found, d)
    }

    /// [`ArtifactStore::put`], also returning the counter movement.
    pub(crate) fn store(&self, key: Fingerprint, artifact: StoredArtifact) -> TierStats {
        let d =
            TierStats { bytes_written: artifact.bytes.len() as u64, ..TierStats::default() };
        self.counters.add(&d);
        if let Ok(mut map) = self.map.lock() {
            map.insert(key, artifact);
        }
        d
    }
}

impl ArtifactStore for MemStore {
    fn get(&self, key: Fingerprint) -> Option<StoredArtifact> {
        self.fetch(key).0
    }

    fn put(&self, key: Fingerprint, artifact: StoredArtifact) {
        self.store(key, artifact);
    }

    fn remove(&self, key: Fingerprint) {
        if let Ok(mut map) = self.map.lock() {
            map.remove(&key);
        }
    }

    fn len(&self) -> usize {
        self.map.lock().map(|m| m.len()).unwrap_or(0)
    }

    fn tier_stats(&self) -> TierStats {
        self.counters.snapshot()
    }
}

/// State a [`BoundedMemStore`] keeps under one lock: the map, the
/// eviction policy mirroring its keys, and the byte total.
#[derive(Debug)]
struct BoundedInner {
    map: HashMap<Fingerprint, StoredArtifact>,
    policy: Box<dyn CachePolicy>,
    bytes: u64,
}

/// An in-memory tier capped by entry count and/or artifact bytes, with
/// a pluggable [`CachePolicy`] choosing deterministic eviction victims.
#[derive(Debug)]
pub struct BoundedMemStore {
    inner: Mutex<BoundedInner>,
    capacity_entries: Option<usize>,
    capacity_bytes: Option<u64>,
    counters: TierCounters,
}

impl BoundedMemStore {
    /// An empty bounded store evicting per `policy`. A `None` capacity
    /// leaves that axis unbounded (but at least one should be set —
    /// otherwise prefer [`MemStore`]).
    pub fn new(
        policy: PolicyKind,
        capacity_entries: Option<usize>,
        capacity_bytes: Option<u64>,
    ) -> Self {
        BoundedMemStore {
            inner: Mutex::new(BoundedInner {
                map: HashMap::new(),
                policy: policy.build(capacity_entries),
                bytes: 0,
            }),
            capacity_entries,
            capacity_bytes,
            counters: TierCounters::default(),
        }
    }

    fn over_capacity(&self, inner: &BoundedInner) -> bool {
        self.capacity_entries.is_some_and(|cap| inner.map.len() > cap)
            || self.capacity_bytes.is_some_and(|cap| inner.bytes > cap)
    }

    /// Evicts policy victims until the store fits its caps, returning
    /// how many it evicted. The victim may be the entry just inserted —
    /// a cache too small for an artifact simply will not hold it.
    fn enforce(&self, inner: &mut BoundedInner) -> u64 {
        let mut evicted = 0;
        while self.over_capacity(inner) {
            let Some(victim) = inner.policy.victim() else { break };
            if let Some(gone) = inner.map.remove(&victim) {
                inner.bytes = inner.bytes.saturating_sub(gone.bytes.len() as u64);
                evicted += 1;
            }
        }
        evicted
    }

    /// [`ArtifactStore::get`], also returning the counter movement.
    pub(crate) fn fetch(&self, key: Fingerprint) -> (Option<StoredArtifact>, TierStats) {
        let found = self.inner.lock().ok().and_then(|mut inner| {
            let found = inner.map.get(&key).cloned();
            if found.is_some() {
                inner.policy.on_hit(key);
            }
            found
        });
        let d = TierStats::lookup(found.is_some());
        self.counters.add(&d);
        (found, d)
    }

    /// [`ArtifactStore::put`], also returning the counter movement.
    pub(crate) fn store(&self, key: Fingerprint, artifact: StoredArtifact) -> TierStats {
        let mut d =
            TierStats { bytes_written: artifact.bytes.len() as u64, ..TierStats::default() };
        if let Ok(mut inner) = self.inner.lock() {
            let added = artifact.bytes.len() as u64;
            match inner.map.insert(key, artifact) {
                Some(old) => {
                    // Same key → same content hash → same bytes; treat the
                    // rewrite as a touch.
                    inner.bytes = inner.bytes.saturating_sub(old.bytes.len() as u64) + added;
                    inner.policy.on_hit(key);
                }
                None => {
                    inner.bytes += added;
                    inner.policy.on_insert(key);
                }
            }
            d.evictions = self.enforce(&mut inner);
        }
        self.counters.add(&d);
        d
    }
}

impl ArtifactStore for BoundedMemStore {
    fn get(&self, key: Fingerprint) -> Option<StoredArtifact> {
        self.fetch(key).0
    }

    fn put(&self, key: Fingerprint, artifact: StoredArtifact) {
        self.store(key, artifact);
    }

    fn remove(&self, key: Fingerprint) {
        if let Ok(mut inner) = self.inner.lock() {
            if let Some(gone) = inner.map.remove(&key) {
                inner.bytes = inner.bytes.saturating_sub(gone.bytes.len() as u64);
                inner.policy.on_remove(key);
            }
        }
    }

    fn len(&self) -> usize {
        self.inner.lock().map(|inner| inner.map.len()).unwrap_or(0)
    }

    fn tier_stats(&self) -> TierStats {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn key(n: u128) -> Fingerprint {
        Fingerprint(palo_ir::Digest(n))
    }

    fn artifact(len: usize) -> StoredArtifact {
        StoredArtifact { value: None, bytes: vec![0u8; len].into() }
    }

    #[test]
    fn unbounded_store_round_trips_and_counts() {
        let store = MemStore::new();
        assert!(store.get(key(1)).is_none());
        store.put(key(1), artifact(10));
        assert_eq!(store.get(key(1)).unwrap().bytes.len(), 10);
        store.remove(key(1));
        assert!(store.get(key(1)).is_none());
        let s = store.tier_stats();
        assert_eq!((s.hits, s.misses, s.bytes_written), (1, 2, 10));
    }

    #[test]
    fn entry_capacity_evicts_in_policy_order() {
        let store = BoundedMemStore::new(PolicyKind::Lru, Some(2), None);
        store.put(key(1), artifact(1));
        store.put(key(2), artifact(1));
        store.get(key(1)); // warm 1; 2 is the LRU victim
        store.put(key(3), artifact(1));
        assert_eq!(store.len(), 2);
        assert!(store.get(key(2)).is_none(), "LRU victim must be 2");
        assert!(store.get(key(1)).is_some());
        assert!(store.get(key(3)).is_some());
        assert_eq!(store.tier_stats().evictions, 1);
    }

    #[test]
    fn byte_capacity_evicts_until_it_fits() {
        let store = BoundedMemStore::new(PolicyKind::Lru, None, Some(100));
        store.put(key(1), artifact(60));
        store.put(key(2), artifact(60)); // 120 > 100 → evict 1
        assert_eq!(store.len(), 1);
        assert!(store.get(key(2)).is_some());
        // An artifact larger than the whole cap passes through unheld.
        store.put(key(3), artifact(200));
        assert!(store.get(key(3)).is_none());
    }

    #[test]
    fn rewriting_a_key_does_not_double_count_bytes() {
        let store = BoundedMemStore::new(PolicyKind::Slru, None, Some(100));
        store.put(key(1), artifact(80));
        store.put(key(1), artifact(80));
        assert_eq!(store.len(), 1, "no eviction: 80 bytes live, not 160");
        assert_eq!(store.tier_stats().evictions, 0);
    }

    #[test]
    fn stored_value_survives_the_round_trip() {
        let store = MemStore::new();
        let arc: Arc<dyn std::any::Any + Send + Sync> = Arc::new(42u64);
        store.put(key(5), StoredArtifact { value: Some(arc), bytes: vec![1, 2].into() });
        let got = store.get(key(5)).unwrap();
        let v = got.value.unwrap().downcast::<u64>().unwrap();
        assert_eq!(*v, 42);
    }
}
