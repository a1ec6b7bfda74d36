//! A deterministic open-addressed map for the device's sparse per-row state.
//!
//! `std::collections::HashMap` is banned from the hot-path modules (see the
//! `siloz-lint` rule table in `DESIGN.md` §4d): its default `RandomState`
//! seeds SipHash from process entropy — a nondeterminism source — and the
//! hash itself is far heavier than needed for small integer keys that are
//! already well-mixed by a single multiply. Its users, all in
//! [`crate::DramSystem`] and all keyed by a packed `(bank, row)`:
//!
//! - `data` — written media rows (absent = all zeros);
//! - `flipped` — the currently-flipped cells of each media row;
//! - `repair_inverse` — internal spare row → the media row living there.
//!
//! Per-bank victim state is not here: a touched bank indexes its victims
//! by a flat `2 × rows_per_bank` array (`crate::bank`), one load per
//! lookup. The map's shape:
//!
//! - keys are packed `u64`s, hashed with one Fibonacci multiply;
//! - power-of-two capacity, linear probing, growth at 7/8 load;
//! - no removal (emptied entries simply stay, e.g. a scrubbed row's flip
//!   list), so there are no tombstones and probes stay short;
//! - iteration order is a pure function of the insertion sequence, so every
//!   fold over the map is reproducible run to run.

/// Fibonacci hashing constant (2^64 / φ).
const FIB: u64 = 0x9e37_79b9_7f4a_7c15;

/// Sentinel key marking an empty slot. Packed keys are `(small id) << 32 |
/// row` with ids far below `u32::MAX`, so the sentinel can never collide
/// with a real key.
const EMPTY: u64 = u64::MAX;

/// A deterministic open-addressed `u64 → V` map without removal.
#[derive(Debug, Clone)]
pub struct RowMap<V> {
    /// Slot keys; `EMPTY` marks a free slot.
    keys: Vec<u64>,
    /// Slot values, `Some` exactly where `keys` is not `EMPTY`.
    vals: Vec<Option<V>>,
    /// Number of occupied slots.
    len: usize,
}

impl<V> Default for RowMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> RowMap<V> {
    /// Initial slot count (power of two).
    const INITIAL_SLOTS: usize = 16;

    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        Self {
            keys: vec![EMPTY; Self::INITIAL_SLOTS],
            vals: (0..Self::INITIAL_SLOTS).map(|_| None).collect(),
            len: 0,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot index `key` hashes to under the current capacity.
    fn slot_of(&self, key: u64) -> usize {
        let mask = self.keys.len() as u64 - 1;
        (key.wrapping_mul(FIB) >> 32 & mask) as usize
    }

    /// Index of `key`'s slot, or of the empty slot where it would go.
    fn probe(&self, key: u64) -> usize {
        debug_assert_ne!(key, EMPTY, "sentinel key");
        let mask = self.keys.len() - 1;
        let mut i = self.slot_of(key);
        loop {
            if self.keys[i] == key || self.keys[i] == EMPTY {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles capacity and re-inserts every entry.
    fn grow(&mut self) {
        let new_slots = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_slots]);
        let old_vals = std::mem::replace(
            &mut self.vals,
            (0..new_slots).map(|_| None).collect::<Vec<Option<V>>>(),
        );
        for (key, val) in old_keys.into_iter().zip(old_vals) {
            if key != EMPTY {
                let i = self.probe(key);
                self.keys[i] = key;
                self.vals[i] = val;
            }
        }
    }

    /// Returns a shared reference to `key`'s value, if present.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<&V> {
        let i = self.probe(key);
        if self.keys[i] == key {
            self.vals[i].as_ref()
        } else {
            None
        }
    }

    /// Returns a mutable reference to `key`'s value, if present.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let i = self.probe(key);
        if self.keys[i] == key {
            self.vals[i].as_mut()
        } else {
            None
        }
    }

    /// Returns a mutable reference to `key`'s value, inserting `make()` on
    /// first touch.
    pub fn get_or_insert_with(&mut self, key: u64, make: impl FnOnce() -> V) -> &mut V {
        let mut i = self.probe(key);
        if self.keys[i] != key {
            if (self.len + 1) * 8 > self.keys.len() * 7 {
                self.grow();
                i = self.probe(key);
            }
            self.keys[i] = key;
            self.vals[i] = Some(make());
            self.len += 1;
        }
        self.vals[i].as_mut().expect("occupied slot has a value")
    }

    /// Iterates over values in slot order (deterministic for a given
    /// insertion sequence).
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.vals.iter().filter_map(Option::as_ref)
    }

    /// Iterates over `(key, value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.keys
            .iter()
            .zip(&self.vals)
            .filter(|&(&k, _)| k != EMPTY)
            .map(|(&k, v)| (k, v.as_ref().expect("occupied slot has a value")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_and_len() {
        let mut m = RowMap::new();
        assert!(m.is_empty());
        *m.get_or_insert_with(7, || 10u32) += 1;
        *m.get_or_insert_with(7, || 99) += 1;
        assert_eq!(m.get(7), Some(&12));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(8), None);
        assert!(m.get_mut(8).is_none());
    }

    #[test]
    fn grows_past_initial_capacity_and_matches_std_hashmap() {
        let mut m = RowMap::new();
        let mut reference = HashMap::new();
        // Keys shaped like packed (side, row) tuples, with collisions.
        for i in 0..1000u64 {
            let key = ((i % 2) << 32) | ((i * 37) % 400);
            *m.get_or_insert_with(key, || 0u64) += i;
            *reference.entry(key).or_insert(0u64) += i;
        }
        assert_eq!(m.len(), reference.len());
        for (&k, &v) in &reference {
            assert_eq!(m.get(k), Some(&v), "key {k:#x}");
        }
        let sum: u64 = m.values().sum();
        assert_eq!(sum, reference.values().sum::<u64>());
    }

    #[test]
    fn iteration_order_is_deterministic() {
        let build = || {
            let mut m = RowMap::new();
            for i in 0..100u64 {
                m.get_or_insert_with(i * 101, || i);
            }
            m.iter().map(|(k, &v)| (k, v)).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn colliding_keys_probe_linearly() {
        let mut m: RowMap<char> = RowMap::new();
        // Find two keys hashing to the same initial slot; both must stay
        // reachable through the linear probe.
        let a = 1u64;
        let b = (2..)
            .find(|&k| m.slot_of(k) == m.slot_of(a))
            .expect("a colliding key exists");
        m.get_or_insert_with(a, || 'a');
        m.get_or_insert_with(b, || 'b');
        assert_eq!(m.get(a), Some(&'a'));
        assert_eq!(m.get(b), Some(&'b'));
    }
}
