//! Hash tables under steady churn.
//!
//! Several simulator tables hold a steady number of entries whose keys
//! keep changing: physical frames come and go as pages migrate. A
//! `std` hash table removes a key by leaving a tombstone, and once the
//! tombstones use up its spare room it either cleans them up in place or
//! — when more than half its slots are live — reallocates a larger
//! table. How soon the tombstones run out depends on the table's random
//! hash seed, so without help a steady workload reallocates at a
//! run-dependent moment. A [`ChurnMap`] keeps itself at most half full,
//! so the cleanup always happens in place.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::ops::Deref;

/// A `HashMap` that grows by its live count alone: whenever an insert
/// takes the count to a new high, the table grows to at least twice
/// that count, so churn at a count already reached never reallocates.
/// Reads go through `Deref`; every insert goes through the map itself,
/// which is what keeps the rule from being skipped.
pub struct ChurnMap<K, V> {
    map: HashMap<K, V>,
    /// Most entries ever held at once.
    high: usize,
}

impl<K, V> Default for ChurnMap<K, V> {
    fn default() -> Self {
        ChurnMap {
            map: HashMap::new(),
            high: 0,
        }
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for ChurnMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.map.fmt(f)
    }
}

impl<K, V> Deref for ChurnMap<K, V> {
    type Target = HashMap<K, V>;

    fn deref(&self) -> &HashMap<K, V> {
        &self.map
    }
}

impl<K: Copy + Eq + Hash, V> ChurnMap<K, V> {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `value` at `key`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let old = self.map.insert(key, value);
        if self.map.len() > self.high {
            self.high = self.map.len();
            self.map.reserve(self.map.len() + 2);
        }
        old
    }

    /// The value at `key`, inserting `default()` first if there is none.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        if !self.map.contains_key(&key) {
            self.insert(key, default());
        }
        self.map.get_mut(&key).expect("present above")
    }

    /// Mutable access to the value at `key`.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.map.get_mut(key)
    }

    /// Removes and returns the value at `key`.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_to_twice_the_high_water_count() {
        let mut m: ChurnMap<u64, u64> = ChurnMap::new();
        for k in 0..100 {
            m.insert(k, k);
            assert!(m.capacity() >= 2 * m.len(), "at most half full");
        }
        for k in 100..10_000 {
            assert_eq!(m.remove(&(k - 100)), Some(k - 100));
            assert_eq!(m.insert(k, k), None);
        }
        assert_eq!(m.len(), 100);
        *m.get_or_insert_with(7, || 0) += 1;
        *m.get_or_insert_with(7, || 0) += 1;
        assert_eq!(m.get(&7), Some(&2));
        assert_eq!(m.get_mut(&9_999).copied(), Some(9_999));
    }
}
