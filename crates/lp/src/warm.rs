//! Cross-solve basis reuse.
//!
//! A [`BasisCache`] maps caller-chosen `u64` keys (problem-structure
//! and selection hashes) to saved optimal [`Basis`] values so
//! successive controller epochs can warm-start their TE solves. The
//! cache is purely an accelerator: a stale or mismatched basis is
//! rejected by its structural signature at restore time and the solve
//! falls back to a cold start, so cached state can never change a
//! result — only how fast it is reached. It is unbounded: a caller
//! holds one basis per key it has solved.

use crate::simplex::Basis;
use std::collections::HashMap;

/// An in-memory store of optimal bases keyed by problem id.
#[derive(Debug, Clone, Default)]
pub struct BasisCache {
    map: HashMap<u64, Basis>,
}

impl BasisCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up the basis saved under `key`.
    pub fn get(&self, key: u64) -> Option<&Basis> {
        self.map.get(&key)
    }

    /// Saves (or replaces) the basis under `key`.
    pub fn put(&mut self, key: u64, basis: Basis) {
        self.map.insert(key, basis);
    }

    /// Number of stored bases.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops all stored bases.
    pub fn clear(&mut self) {
        self.map.clear();
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
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.get(7).is_none());
    }
}
