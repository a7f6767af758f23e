//! A deterministic, dependency-free FxHash-style hasher for hot paths.
//!
//! `std`'s default `HashMap` hasher (SipHash-1-3 with per-instance random
//! keys) is designed to resist hash-flooding from untrusted input. The
//! simulator's hot-path maps are keyed by small trusted integers and
//! names — cache-line addresses, pages, hcall numbers, ptids, counter
//! names — where SipHash is pure overhead and the random seed adds
//! nothing (map *iteration order* still must never leak into simulated
//! behaviour; see the determinism notes on each use site). This module
//! provides the classic Firefox/rustc "Fx" multiply-xor hash: one rotate,
//! one xor and one multiply per 8-byte chunk, fully deterministic across
//! runs and platforms of the same pointer width.
//!
//! # Examples
//!
//! ```
//! use switchless_sim::hash::FxHashMap;
//!
//! let mut m: FxHashMap<u64, &str> = FxHashMap::default();
//! m.insert(7, "seven");
//! assert_eq!(m.get(&7), Some(&"seven"));
//! ```

use core::hash::{BuildHasherDefault, Hasher};
use std::collections::HashMap;

/// `HashMap` with the Fx hasher. `Default` gives an empty map.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Creates an empty [`FxHashMap`] with space for `cap` elements.
#[must_use]
pub fn fx_map_with_capacity<K, V>(cap: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(cap, BuildHasherDefault::default())
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc/Firefox Fx word-at-a-time multiply-xor hasher.
///
/// Not flooding-resistant — only for maps keyed by trusted simulator
/// state.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::hash::Hash;

    fn hash_of<T: Hash>(x: T) -> u64 {
        let mut h = FxHasher::default();
        x.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_eq!(hash_of("inst.executed"), hash_of("inst.executed"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Not a statistical test — just a sanity check that the low bits
        // (which HashMap uses for bucket selection) vary for small keys.
        let hashes: Vec<u64> = (0u64..64).map(hash_of).collect();
        let mut low7: Vec<u64> = hashes.iter().map(|h| h >> 57).collect();
        low7.sort_unstable();
        low7.dedup();
        assert!(low7.len() > 32, "small keys collapse to few buckets");
    }

    #[test]
    fn map_round_trip() {
        let mut m: FxHashMap<u64, u64> = fx_map_with_capacity(16);
        for i in 0..1000u64 {
            m.insert(i, i * 3);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&999), Some(&2997));
        assert_eq!(m.remove(&5), Some(15));
        assert_eq!(m.remove(&5), None);
    }

    #[test]
    fn string_tail_length_matters() {
        // The tail is tagged with its length so prefixes of zero bytes
        // do not collide trivially.
        assert_ne!(hash_of([0u8; 3].as_slice()), hash_of([0u8; 4].as_slice()));
    }
}
