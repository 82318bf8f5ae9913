//! The fixed multiplicative hasher of the engine's value-keyed maps.
//!
//! `std`'s default SipHash costs several times more than the lookups it
//! guards when the key is one or two machine words. The maps that key on
//! values the engine computes itself (term arena indices, operators,
//! variable ids, instruction words) use [`FxHashMap`] instead: each word
//! of the key is added and multiplied by an odd constant, and the finished
//! hash is rotated so that its well-mixed high bits pick the bucket. None
//! of these keys comes from outside the program in the sense that SipHash
//! protects against: a program under test sets exploration cost through
//! its path count, not through hash collisions. Maps keyed by names or
//! text keep the default hasher.
//!
//! The hasher is deterministic, but no engine output depends on map
//! order: with `std`'s per-process random seed, any such dependence would
//! already show as a run-to-run difference.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (the constant of rustc's own
/// `FxHasher`).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// The multiplicative hasher: `h = (h + word) · K` per key word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    /// Byte strings (no engine key has one) take one step per byte.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The product's low bits depend only on the key's low bits; the
        // rotation brings the high bits down to where the table indexes.
        self.hash.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s (stateless: every map hashes alike).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by engine-computed values, hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn equal_keys_hash_alike_and_neighbours_spread() {
        let hash = |k: u32| FxBuildHasher::default().hash_one(k);
        assert_eq!(hash(12_345), hash(12_345));
        // Consecutive arena indices, and keys that differ only above bit
        // 12 (instruction words that share their opcode and `rd` bits),
        // both spread over the buckets of a 64-bucket table.
        for stride in [1, 1 << 12] {
            let buckets: HashSet<u64> = (0..64).map(|i| hash(i * stride) & 63).collect();
            assert!(
                buckets.len() > 32,
                "stride {stride}: {} buckets",
                buckets.len()
            );
        }
    }
}
