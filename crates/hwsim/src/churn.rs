//! Hash tables under steady churn, and the hasher every simulator
//! table uses.
//!
//! Several simulator tables hold a steady number of entries whose keys
//! keep changing: frame-allocator blocks come and go as pages migrate,
//! descriptor chains as transfers retire. A `std` hash table removes a
//! key by leaving a tombstone, and once the tombstones use up its spare
//! room it either cleans them up in place or — when more than half its
//! slots are live — reallocates a larger table. How soon the tombstones
//! run out depends on where the keys hash, so without help a steady
//! workload reallocates at a key-dependent moment. A [`ChurnMap`] keeps
//! itself at most half full, so the cleanup always happens in place.
//!
//! Every table on the simulated path hashes with [`FastHasher`]: a
//! fixed, unseeded integer hash, so the same run lays its tables out the
//! same way (and allocates the same number of times) in every process,
//! and a key costs a few multiplies instead of a SipHash round.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Deref;

/// A deterministic hasher for integer keys: each written word is folded
/// in with a multiply, and [`finish`](Hasher::finish) applies
/// MurmurHash3's fmix64 finaliser. The finaliser matters: keys are
/// mostly 4 KiB-aligned addresses, and a bare multiply would leave the
/// low bits — the ones `hashbrown` picks buckets with — all zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

/// A `HashMap` hashed with [`FastHasher`] (build with `default()`).
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` hashed with [`FastHasher`] (build with `default()`).
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// A [`FastMap`] that grows by its live count alone: whenever an insert
/// takes the count to a new high, the table grows to at least twice
/// that count, so churn at a count already reached never reallocates.
/// Reads go through `Deref`; every insert goes through the map itself,
/// which is what keeps the rule from being skipped.
pub struct ChurnMap<K, V> {
    map: FastMap<K, V>,
    /// Most entries ever held at once.
    high: usize,
}

impl<K, V> Default for ChurnMap<K, V> {
    fn default() -> Self {
        ChurnMap {
            map: FastMap::default(),
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
    type Target = FastMap<K, V>;

    fn deref(&self) -> &FastMap<K, V> {
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

    #[test]
    fn hasher_is_unseeded_and_mixes_aligned_keys_into_low_bits() {
        let hash = |k: u64| {
            let mut h = FastHasher::default();
            k.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(0x8000_1000), hash(0x8000_1000), "no per-process seed");
        // 4 KiB-aligned keys spread over the low bits a table of 1024
        // buckets indexes with.
        let buckets: FastSet<u64> = (0..1024u64).map(|k| hash(k << 12) & 1023).collect();
        assert!(
            buckets.len() > 500,
            "only {} of 1024 buckets hit",
            buckets.len()
        );
        // Multi-word keys depend on every word and on their order.
        let pair = |a: usize, b: u64| {
            let mut h = FastHasher::default();
            (a, b).hash(&mut h);
            h.finish()
        };
        assert_ne!(pair(1, 2), pair(2, 1));
        assert_ne!(pair(0, 7), pair(1, 7));
    }
}
