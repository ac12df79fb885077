//! The on-disk content-addressed tier.
//!
//! One artifact per file at a fingerprint-sharded path:
//!
//! ```text
//! <root>/<first 2 hex digits>/<full 32-hex fingerprint>.art
//! ```
//!
//! Files are complete [`frame`](palo_codec::frame)s — version-stamped
//! header, checksum, payload — written to a unique temp file and
//! `rename`d into place, so readers only ever observe absent or complete
//! files even across processes. Because paths are content hashes,
//! concurrent same-key writers write identical bytes and either rename
//! winning is correct.
//!
//! Every failure mode — unreadable file, truncated frame, garbage bytes,
//! wrong format version, failed write — degrades to a tier miss (plus a
//! recorded anomaly for corruption), never an error: losing the cache
//! costs a recompute, which is always safe.

use crate::error::PaloError;
use crate::fingerprint::Fingerprint;
use crate::store::{ArtifactStore, StoredArtifact, TierCounters, TierStats};
use palo_codec::frame;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// File extension of stored artifacts.
const ART_EXT: &str = "art";

/// Sequence of temp-file names, process-wide: two stores on one root in
/// one process (two sessions sharing a cache directory) must never pick
/// the same `.<pid>.<n>.tmp` name, or one rename would install the
/// other key's bytes.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The persistent tier rooted at one cache directory.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    counters: TierCounters,
    anomalies: AtomicU64,
}

impl DiskStore {
    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// # Errors
    ///
    /// [`PaloError::Store`] when the directory cannot be created or is
    /// not writable — the one store failure that surfaces as an error,
    /// because it means *no* artifact will ever persist and the caller
    /// asked for persistence explicitly.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, PaloError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| PaloError::Store {
            detail: format!("cannot create cache dir {}: {e}", root.display()),
        })?;
        Ok(DiskStore { root, counters: TierCounters::default(), anomalies: AtomicU64::new(0) })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Corrupt or unreadable entries encountered (each also deleted and
    /// counted as a tier eviction).
    pub fn anomalies(&self) -> u64 {
        self.anomalies.load(Ordering::Relaxed)
    }

    fn path_of(&self, key: Fingerprint) -> PathBuf {
        let hex = format!("{key}");
        self.root.join(&hex[..2]).join(format!("{hex}.{ART_EXT}"))
    }

    /// Counts an anomaly and best-effort deletes the offending file so
    /// the store heals itself instead of tripping on every lookup.
    /// Returns the lookup's counter movement: a miss, plus the eviction.
    fn quarantine(&self, path: &Path) -> TierStats {
        self.anomalies.fetch_add(1, Ordering::Relaxed);
        let evictions = u64::from(fs::remove_file(path).is_ok());
        TierStats { evictions, ..TierStats::lookup(false) }
    }

    /// [`ArtifactStore::get`], also returning the counter movement and
    /// the anomalies it found (0 or 1).
    pub(crate) fn fetch(&self, key: Fingerprint) -> (Option<StoredArtifact>, TierStats, u64) {
        let path = self.path_of(key);
        let (found, d, anomalies) = match fs::read(&path) {
            // Validate the envelope before serving: a torn or bit-rotted
            // entry must read as a miss, not reach the typed layer.
            Ok(bytes) if frame::decode_frame(&bytes).is_ok() => (
                Some(StoredArtifact { value: None, bytes: bytes.into() }),
                TierStats::lookup(true),
                0,
            ),
            Ok(_) => (None, self.quarantine(&path), 1),
            // Unreadable is corruption, plain absence is not.
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                (None, self.quarantine(&path), 1)
            }
            Err(_) => (None, TierStats::lookup(false), 0),
        };
        self.counters.add(&d);
        (found, d, anomalies)
    }

    /// [`ArtifactStore::put`], also returning the counter movement.
    pub(crate) fn store(&self, key: Fingerprint, artifact: StoredArtifact) -> TierStats {
        let d = TierStats { bytes_written: self.write(key, &artifact), ..TierStats::default() };
        self.counters.add(&d);
        d
    }

    /// Writes `artifact` under `key` unless an entry exists, returning
    /// the bytes written.
    fn write(&self, key: Fingerprint, artifact: &StoredArtifact) -> u64 {
        let path = self.path_of(key);
        if path.exists() {
            // Content-addressed: an existing entry already holds these
            // bytes (or is corrupt, and the next get heals it).
            return 0;
        }
        let Some(shard) = path.parent() else { return 0 };
        if fs::create_dir_all(shard).is_err() {
            return 0;
        }
        // Unique temp name per write, then an atomic rename: readers
        // and racing writers never see a partial file.
        let tmp = shard.join(format!(
            ".{:x}.{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if fs::write(&tmp, &artifact.bytes).is_ok() && fs::rename(&tmp, &path).is_ok() {
            artifact.bytes.len() as u64
        } else {
            let _ = fs::remove_file(&tmp);
            0
        }
    }

    /// [`ArtifactStore::remove`], also returning the counter movement.
    pub(crate) fn evict(&self, key: Fingerprint) -> TierStats {
        let evictions = u64::from(fs::remove_file(self.path_of(key)).is_ok());
        let d = TierStats { evictions, ..TierStats::default() };
        self.counters.add(&d);
        d
    }
}

impl ArtifactStore for DiskStore {
    fn get(&self, key: Fingerprint) -> Option<StoredArtifact> {
        self.fetch(key).0
    }

    fn put(&self, key: Fingerprint, artifact: StoredArtifact) {
        self.store(key, artifact);
    }

    fn remove(&self, key: Fingerprint) {
        self.evict(key);
    }

    fn len(&self) -> usize {
        let Ok(shards) = fs::read_dir(&self.root) else { return 0 };
        shards
            .flatten()
            .filter_map(|shard| fs::read_dir(shard.path()).ok())
            .flat_map(|files| files.flatten())
            .filter(|f| f.path().extension().is_some_and(|e| e == ART_EXT))
            .count()
    }

    fn tier_stats(&self) -> TierStats {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palo_ir::Digest;

    fn key(n: u128) -> Fingerprint {
        Fingerprint(Digest(n))
    }

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("palo-disk-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn framed(payload: &[u8]) -> StoredArtifact {
        StoredArtifact { value: None, bytes: frame::encode_frame("test", 1, payload).into() }
    }

    #[test]
    fn round_trips_through_sharded_paths() {
        let root = tmp_root("roundtrip");
        let store = DiskStore::open(&root).unwrap();
        assert!(store.get(key(0xabcd)).is_none());
        store.put(key(0xabcd), framed(b"payload"));
        let got = store.get(key(0xabcd)).unwrap();
        assert_eq!(frame::decode_frame(&got.bytes).unwrap().payload, b"payload");
        // The path is sharded on the first two hex digits of the key.
        assert!(root.join("00").exists(), "fingerprint 0xabcd shards under 00…");
        assert_eq!(store.len(), 1);

        // A second store on the same root starts warm.
        let reopened = DiskStore::open(&root).unwrap();
        assert!(reopened.get(key(0xabcd)).is_some());
        assert_eq!(reopened.anomalies(), 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_entries_are_quarantined_not_served() {
        let root = tmp_root("corrupt");
        let store = DiskStore::open(&root).unwrap();
        store.put(key(7), framed(b"good"));
        let path = store.path_of(key(7));

        // Truncation.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(store.get(key(7)).is_none());
        assert_eq!(store.anomalies(), 1);
        assert!(!path.exists(), "corrupt file must be deleted");

        // Garbage bytes.
        store.put(key(7), framed(b"good"));
        fs::write(&path, b"complete garbage, not a frame").unwrap();
        assert!(store.get(key(7)).is_none());
        assert_eq!(store.anomalies(), 2);

        // Wrong format version.
        store.put(key(7), framed(b"good"));
        let mut bytes = fs::read(&path).unwrap();
        bytes[8] = 0x77;
        fs::write(&path, &bytes).unwrap();
        assert!(store.get(key(7)).is_none());
        assert_eq!(store.anomalies(), 3);

        // After healing, a fresh put works again.
        store.put(key(7), framed(b"good"));
        assert!(store.get(key(7)).is_some());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn existing_entries_are_not_rewritten() {
        let root = tmp_root("norewrite");
        let store = DiskStore::open(&root).unwrap();
        store.put(key(9), framed(b"payload"));
        let written = store.tier_stats().bytes_written;
        store.put(key(9), framed(b"payload"));
        assert_eq!(store.tier_stats().bytes_written, written);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn open_failure_is_an_error() {
        let file = std::env::temp_dir().join(format!("palo-not-a-dir-{}", std::process::id()));
        fs::write(&file, b"occupied").unwrap();
        assert!(DiskStore::open(file.join("sub")).is_err());
        let _ = fs::remove_file(&file);
    }
}
