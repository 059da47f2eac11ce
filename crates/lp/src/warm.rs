//! Cross-solve basis reuse.
//!
//! A [`BasisCache`] maps caller-chosen `u64` keys (scenario-set ids,
//! problem-structure hashes) to saved optimal [`Basis`] values so
//! successive controller epochs can warm-start their TE solves. The
//! cache is purely an accelerator: a stale or mismatched basis is
//! rejected by its structural signature at restore time and the solve
//! falls back to a cold start, so cached state can never change a
//! result — only how fast it is reached.
//!
//! Memory is bounded: an optional capacity caps the number of stored
//! bases with deterministic least-recently-used eviction. Recency is
//! tracked by a logical access counter (not wall clock), so eviction
//! order is a pure function of the operation sequence — two replays
//! that perform the same lookups and stores evict the same keys, and a
//! [`BasisCacheSnapshot`] restore resumes the exact recency stream of
//! the cache it was taken from.

use crate::simplex::Basis;
use std::collections::HashMap;

/// A stored basis plus the logical time it was last touched.
#[derive(Debug, Clone)]
struct Slot {
    basis: Basis,
    last_used: u64,
}

/// An in-memory store of optimal bases keyed by scenario/problem id,
/// with optional deterministic LRU bounding.
#[derive(Debug, Default)]
pub struct BasisCache {
    map: HashMap<u64, Slot>,
    /// Maximum stored bases; `0` means unbounded.
    capacity: usize,
    /// Logical clock, bumped on every get-hit and put.
    tick: u64,
    hits: usize,
    misses: usize,
    evictions: usize,
}

impl BasisCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache holding at most `capacity` bases
    /// (`0` = unbounded). Once full, a store of a new key evicts the
    /// least recently used entry.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { capacity, ..Self::default() }
    }

    /// The configured capacity (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Changes the capacity, evicting LRU entries immediately if the
    /// cache is over the new bound (`0` = unbounded).
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.enforce_capacity();
    }

    /// Looks up the basis saved under `key`, counting a hit or miss.
    /// A hit refreshes the entry's recency.
    pub fn get(&mut self, key: u64) -> Option<&Basis> {
        self.tick += 1;
        match self.map.get_mut(&key) {
            Some(slot) => {
                slot.last_used = self.tick;
                self.hits += 1;
                Some(&slot.basis)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Saves (or replaces) the basis under `key`, evicting the least
    /// recently used entry if the store would exceed the capacity.
    pub fn put(&mut self, key: u64, basis: Basis) {
        self.tick += 1;
        self.map.insert(key, Slot { basis, last_used: self.tick });
        self.enforce_capacity();
    }

    /// Evicts least-recently-used entries until the cache fits its
    /// capacity. Ticks are unique so recency is a strict order; the
    /// key tie-break is unreachable but keeps the scan deterministic.
    fn enforce_capacity(&mut self) {
        if self.capacity == 0 {
            return;
        }
        while self.map.len() > self.capacity {
            let victim = self
                .map
                .iter()
                .map(|(&k, s)| (s.last_used, k))
                .min()
                .map(|(_, k)| k)
                .expect("over-capacity cache is non-empty");
            self.map.remove(&victim);
            self.evictions += 1;
        }
    }

    /// Number of stored bases.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups that found a basis.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Entries evicted to stay within the capacity.
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// Fraction of lookups that hit, in `[0, 1]` (0 when never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Drops all stored bases and resets the counters and the logical
    /// clock. The capacity is kept.
    pub fn clear(&mut self) {
        self.map.clear();
        self.tick = 0;
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
    }

    /// Captures the complete cache state (entries sorted by key so the
    /// serialized form is canonical). Recency and
    /// the eviction bookkeeping are part of the snapshot: a restored
    /// cache must evict the same keys the original would have.
    pub fn snapshot(&self) -> BasisCacheSnapshot {
        let mut entries: Vec<CacheEntry> = self
            .map
            .iter()
            .map(|(&key, s)| CacheEntry { key, basis: s.basis.clone(), last_used: s.last_used })
            .collect();
        entries.sort_by_key(|e| e.key);
        BasisCacheSnapshot {
            entries,
            capacity: self.capacity,
            tick: self.tick,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }

    /// Replaces this cache's state with a snapshot. Counters, the
    /// logical clock and per-entry recency are restored too:
    /// downstream solver stats fold in `hits`/`misses`/`evictions`,
    /// and eviction order must resume the exact stream of the
    /// snapshotted cache.
    pub fn restore(&mut self, snap: &BasisCacheSnapshot) {
        self.map = snap
            .entries
            .iter()
            .map(|e| (e.key, Slot { basis: e.basis.clone(), last_used: e.last_used }))
            .collect();
        self.capacity = snap.capacity;
        self.tick = snap.tick;
        self.hits = snap.hits;
        self.misses = snap.misses;
        self.evictions = snap.evictions;
    }
}

/// One serialized cache entry: the key, the basis, and the logical
/// time it was last touched.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheEntry {
    /// The caller-chosen cache key.
    pub key: u64,
    /// The saved optimal basis.
    pub basis: Basis,
    /// Logical access time (for LRU resume).
    pub last_used: u64,
}

/// A serializable, canonical image of a [`BasisCache`].
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct BasisCacheSnapshot {
    /// Entries sorted by key.
    pub entries: Vec<CacheEntry>,
    /// Configured capacity (`0` = unbounded).
    pub capacity: usize,
    /// Logical clock at snapshot time.
    pub tick: u64,
    /// Hit counter at snapshot time.
    pub hits: usize,
    /// Miss counter at snapshot time.
    pub misses: usize,
    /// Eviction counter at snapshot time.
    pub evictions: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinearProgram, Sense};
    use crate::simplex::{SimplexOptions, WarmSimplex};

    fn some_basis() -> Basis {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Sense::Ge, 2.0);
        let mut ws = WarmSimplex::new(SimplexOptions::default());
        assert!(ws.solve(&lp).is_optimal());
        ws.basis().expect("optimal basis")
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let basis = some_basis();
        let mut cache = BasisCache::new();
        assert!(cache.get(7).is_none());
        cache.put(7, basis);
        assert!(cache.get(7).is_some());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits() + cache.misses(), 0);
    }

    #[test]
    fn lru_eviction_is_deterministic_and_counted() {
        let basis = some_basis();
        let mut cache = BasisCache::with_capacity(2);
        cache.put(1, basis.clone());
        cache.put(2, basis.clone());
        // Touch key 1 so key 2 becomes the LRU victim.
        assert!(cache.get(1).is_some());
        cache.put(3, basis.clone());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(2).is_none(), "LRU key 2 must be evicted");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        // Replacing an existing key does not evict.
        cache.put(1, basis.clone());
        assert_eq!(cache.evictions(), 1);
        // Shrinking the capacity evicts immediately, oldest first.
        cache.set_capacity(1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 2);
        assert!(cache.get(1).is_some(), "most recently touched key survives");
        // Unbounded caches never evict.
        let mut unbounded = BasisCache::new();
        for k in 0..100 {
            unbounded.put(k, basis.clone());
        }
        assert_eq!(unbounded.len(), 100);
        assert_eq!(unbounded.evictions(), 0);
    }

    #[test]
    fn identical_operation_sequences_evict_identically() {
        let basis = some_basis();
        let run = || {
            let mut cache = BasisCache::with_capacity(3);
            for k in [5u64, 1, 9, 5, 2, 7, 1, 3] {
                if cache.get(k).is_none() {
                    cache.put(k, basis.clone());
                }
            }
            let mut keys: Vec<u64> = cache.snapshot().entries.iter().map(|e| e.key).collect();
            keys.sort_unstable();
            (keys, cache.evictions())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn snapshot_round_trips_through_json_and_resumes_recency() {
        let basis = some_basis();
        let mut cache = BasisCache::with_capacity(2);
        let _ = cache.get(1); // miss
        cache.put(9, basis.clone());
        cache.put(2, basis.clone());
        let _ = cache.get(9); // hit: 2 is now the LRU entry
        let snap = cache.snapshot();
        assert_eq!(snap.entries.len(), 2);
        assert!(snap.entries[0].key < snap.entries[1].key, "entries sorted by key");
        assert_eq!(snap.capacity, 2);

        let json = serde_json::to_string(&snap).expect("serialize snapshot");
        let back: BasisCacheSnapshot = serde_json::from_str(&json).expect("parse snapshot");
        assert_eq!(back, snap);

        let mut restored = BasisCache::new();
        restored.restore(&back);
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.hits(), 1);
        assert_eq!(restored.misses(), 1);
        assert_eq!(restored.capacity(), 2);
        assert!(restored.get(9).is_some(), "restored basis usable");

        // The restored cache evicts the same victim the original
        // would: key 2 (LRU), not the just-refreshed 9.
        cache.put(5, basis.clone());
        restored.put(5, basis.clone());
        let keys = |c: &BasisCache| {
            let mut ks: Vec<u64> = c.snapshot().entries.iter().map(|e| e.key).collect();
            ks.sort_unstable();
            ks
        };
        assert_eq!(keys(&cache), keys(&restored));
        assert!(!keys(&cache).contains(&2), "LRU entry evicted on both");
    }
}
