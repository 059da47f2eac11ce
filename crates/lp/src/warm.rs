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
//! clone of a cache evicts exactly as the original would.

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
#[derive(Debug, Clone, Default)]
pub struct BasisCache {
    map: HashMap<u64, Slot>,
    /// Maximum stored bases; `0` means unbounded.
    capacity: usize,
    /// Logical clock, bumped on every get and put.
    tick: u64,
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

    /// Changes the capacity, evicting LRU entries immediately if the
    /// cache is over the new bound (`0` = unbounded).
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.enforce_capacity();
    }

    /// Looks up the basis saved under `key`. A hit refreshes the
    /// entry's recency.
    pub fn get(&mut self, key: u64) -> Option<&Basis> {
        self.tick += 1;
        let slot = self.map.get_mut(&key)?;
        slot.last_used = self.tick;
        Some(&slot.basis)
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

    /// Entries evicted to stay within the capacity.
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// Drops all stored bases and resets the eviction counter and the
    /// logical clock. The capacity is kept.
    pub fn clear(&mut self) {
        self.map.clear();
        self.tick = 0;
        self.evictions = 0;
    }
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
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 0);
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.get(7).is_none());
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
            let kept: Vec<bool> = (0..10).map(|k| cache.get(k).is_some()).collect();
            (kept, cache.evictions())
        };
        assert_eq!(run(), run());
    }
}
